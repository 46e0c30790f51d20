"""A small decoder-only transformer with per-head KV caches.

The attention path follows the usual per-head projection / causal softmax /
value mixing scheme; around it sits a plain pre-norm residual block (RMS
normalization, 4x MLP with ReLU) so the decoder is a genuine, if tiny,
language model. Position embeddings are absolute and added once at the
input, which makes cache pruning a pure row deletion with no renumbering.

Prefill and decode are one forward pass: each head appends the new rows to
its cache and attends over it in causal row blocks. Prefill starts from
empty caches, decode from the rows each head kept. A cache keeps its rows in
a store with room to spare, so a decode step writes one row per head and
copies none. No head holds an S x S
map and the masked upper triangle is never multiplied; every output keeps
the bits of the full-matrix computation (a masked weight is exactly +0.0,
and adding its +-0 product leaves the sum unchanged). The pass returns only
the last row's output, which decode unembeds and prefill drops, so the
final layer appends every row to the caches but runs the rest of the layer
for its last row block alone.

After each layer finishes its prefill forward pass an optional pruning hook
may shrink that layer's caches; the hook never affects prefill values, only
decode-time attention. The hook sees only the last prompt row of each head's
attention map, the one row every pruning rule reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from .layout import MultimodalSequence
from .tensor_core import make_rng, masked_row_softmax, matmul

# hook(layer_1based, last_rows[H, S], caches_for_layer, seq) -> (caches, LayerDecision);
# last_rows[h] is the last prompt row of head h's causal attention map
PruningHook = Callable[
    [int, np.ndarray, list["HeadKVCache"], MultimodalSequence],
    tuple[list["HeadKVCache"], Any],
]

# Rows of one prefill attention block: each head's scores, normalised in
# place, take ATTN_BLOCK_ROWS x S floats at a time instead of S x S. 64 rows
# keep a block's buffers (1 MiB each at S=2048) within a 2 MiB L2; measured
# against 32 and 128 at S=1024 and S=4096 (table in README.md).
ATTN_BLOCK_ROWS = 64

__all__ = [
    "ModelConfig", "ModelWeights", "HeadKVCache", "DecoderState",
    "PrefillReport", "PruningHook",
    "init_model", "prefill", "decode_step", "greedy_generate",
]


@dataclass(frozen=True)
class ModelConfig:
    num_layers: int
    num_heads: int
    model_dim: int
    head_dim: int
    vocab_size: int
    max_positions: int

    def __post_init__(self):
        if min(self.num_layers, self.num_heads, self.model_dim, self.head_dim,
               self.vocab_size, self.max_positions) < 1:
            raise ValueError("all model dimensions must be positive")
        if self.model_dim != self.num_heads * self.head_dim:
            raise ValueError(
                f"model_dim must equal num_heads * head_dim, "
                f"got {self.model_dim} != {self.num_heads} * {self.head_dim}")
        if self.num_layers < 4:
            raise ValueError("need at least 4 layers (pruned range 3..N-1 must be nonempty)")


@dataclass
class ModelWeights:
    token_embedding: np.ndarray     # vocab x D
    position_embedding: np.ndarray  # max_positions x D
    w_q: np.ndarray                 # N x H x D x D_k
    w_k: np.ndarray
    w_v: np.ndarray
    w_o: np.ndarray                 # N x D x D
    w_up: np.ndarray                # N x D x 4D
    w_down: np.ndarray              # N x 4D x D
    unembedding: np.ndarray         # D x vocab


class HeadKVCache:
    """Variable-length key/value rows for one head, with original positions.

    ``keys`` and ``values`` are L x D_k, ``positions`` is L and strictly
    ascending. The rows live in a store: keys transposed (D_k x cap), values
    (cap x D_k) and positions (cap), with cap >= L. The constructor copies
    its arrays into an exact-size store, so a cache never aliases them; the
    three attributes are read-only L-row views into the store, and every
    ``append`` writes only the new rows.
    """

    def __init__(self, keys: np.ndarray, values: np.ndarray, positions: np.ndarray):
        if not (len(keys) == len(values) == len(positions)):
            raise ValueError("keys, values and positions must have equal length")
        if len(positions) > 1 and not np.all(np.diff(positions) > 0):
            raise ValueError("cache positions must be strictly ascending")
        self._kt = np.array(keys.T, order="C")
        self._vs = np.array(values, order="C")
        self._ps = np.array(positions)
        self._len = len(positions)

    def __len__(self) -> int:
        return self._len

    @property
    def keys(self) -> np.ndarray:
        return self._kt[:, :self._len].T

    @property
    def values(self) -> np.ndarray:
        return self._vs[:self._len]

    @property
    def positions(self) -> np.ndarray:
        return self._ps[:self._len]

    def append(self, keys: np.ndarray, values: np.ndarray, positions: np.ndarray,
               max_rows: int) -> tuple[np.ndarray, np.ndarray]:
        """Append m rows; returns the store's transposed keys and its values.

        Only their first ``len(self)`` columns (rows) are valid. A store too
        small for the new rows is replaced by one of twice the new length,
        but no more than ``max_rows`` rows, so it never holds more than
        ``len(self)`` rows of slack; the old rows are copied over once.
        """
        l0 = self._len
        l1 = l0 + len(positions)
        if l1 > self._kt.shape[1]:
            cap = max(l1, min(2 * l1, max_rows))
            old_k, old_v, old_p = self.keys, self.values, self.positions
            self._kt = np.empty((keys.shape[1], cap))
            self._vs = np.empty((cap, values.shape[1]))
            self._ps = np.empty(cap, positions.dtype)
            self._kt[:, :l0] = old_k.T
            self._vs[:l0] = old_v
            self._ps[:l0] = old_p
        self._kt[:, l0:l1] = keys.T
        self._vs[l0:l1] = values
        self._ps[l0:l1] = positions
        self._len = l1
        return self._kt, self._vs

    def clone(self) -> "HeadKVCache":
        return HeadKVCache(self.keys, self.values, self.positions)


@dataclass
class DecoderState:
    caches: list[list[HeadKVCache]]  # N x H
    next_position: int

    def clone(self) -> "DecoderState":
        return DecoderState(caches=[[c.clone() for c in layer] for layer in self.caches],
                            next_position=self.next_position)


@dataclass
class PrefillReport:
    decisions: list[Any] | None              # one LayerDecision per layer; None without a hook
    head_cache_lengths: np.ndarray           # N x H after the hook
    attn_last_rows: np.ndarray | None = None # N x H x S when tracing was requested


def init_model(config: ModelConfig, seed: int) -> ModelWeights:
    """Draw all weights from one seeded PCG64 stream, scaled by 1/sqrt(D)."""
    rng = make_rng(seed)
    d, dk, n, h = config.model_dim, config.head_dim, config.num_layers, config.num_heads
    scale = 1.0 / np.sqrt(d)

    def draw(*shape):
        return rng.standard_normal(shape) * scale

    return ModelWeights(
        token_embedding=draw(config.vocab_size, d),
        position_embedding=draw(config.max_positions, d),
        w_q=draw(n, h, d, dk),
        w_k=draw(n, h, d, dk),
        w_v=draw(n, h, d, dk),
        w_o=draw(n, d, d),
        w_up=draw(n, d, 4 * d),
        w_down=draw(n, 4 * d, d),
        unembedding=draw(d, config.vocab_size),
    )


def _rmsnorm(x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    # np.mean's own sum and divide, without its Python wrapper
    return x / np.sqrt(np.add.reduce(x * x, axis=-1, keepdims=True) / x.shape[-1] + eps)


def attention_row_blocks(m: int) -> list[tuple[int, int]]:
    """Causal attention row blocks ``[i0, i1)`` over the m new rows of a pass.

    Blocks hold ATTN_BLOCK_ROWS rows; a 1-row tail joins the block before it,
    so only a 1-row pass (a decode step, or an S=1 prompt) has a 1-row block.
    """
    bounds = [*range(0, m, ATTN_BLOCK_ROWS), m]
    if len(bounds) > 2 and bounds[-1] - bounds[-2] == 1:
        del bounds[-2]
    return list(zip(bounds, bounds[1:]))


def _forward(weights: ModelWeights, config: ModelConfig, caches: list[list[HeadKVCache]],
             token_ids: np.ndarray, first_position: int,
             after_layer: Callable[[int, np.ndarray], None] | None = None) -> np.ndarray:
    """Run m new rows from ``first_position`` through every layer; returns the last row, 1 x D.

    Each head appends the rows' keys, values and positions to its cache and
    attends over it: with l0 rows cached before, row block ``[i0, i1)`` is
    rows ``l0 + i0..`` of a causal map ``l0 + m`` wide. ``after_layer(l,
    last_rows[H, l0 + m])`` runs after each layer (every head must then hold
    l0 rows) and may replace ``caches[l]``.

    Only the last row leaves the final layer, so that layer appends all m
    rows to the caches but runs the rest (queries, scores, softmax, value
    mix, out-projection and MLP) for its last row block alone.
    """
    m = len(token_ids)
    if first_position + m > config.max_positions:
        raise ValueError(f"positions up to {first_position + m - 1} exceed "
                         f"max_positions {config.max_positions}")
    positions = np.arange(first_position, first_position + m, dtype=np.int64)
    x = weights.token_embedding[token_ids] + weights.position_embedding[positions]
    dk = config.head_dim
    inv_sqrt_dk = 1.0 / np.sqrt(dk)
    blocks = attention_row_blocks(m)
    r0 = 0  # first row a layer computes beyond its K/V: 0 before the final layer

    for l in range(config.num_layers):
        h_in = _rmsnorm(x)
        if l == config.num_layers - 1:
            blocks = blocks[-1:]
            r0 = blocks[0][0]
            x = x[r0:]
        mixed = np.empty((m - r0, config.model_dim))
        last_rows = []
        for h in range(config.num_heads):
            cache = caches[l][h]
            l0 = len(cache)
            q = matmul(h_in[r0:], weights.w_q[l, h])
            # the store keeps keys^T: each k-step of the score loop reads one row
            kt, values = cache.append(matmul(h_in, weights.w_k[l, h]),
                                      matmul(h_in, weights.w_v[l, h]), positions,
                                      config.max_positions)
            out = mixed[:, h * dk:(h + 1) * dk]
            work = None  # a 1-row pass (decode) scores into a fresh row
            if m > 1:  # one score workspace per pass, sized for its largest block
                work = np.empty(max((i1 - i0) * (l0 + i1) for i0, i1 in blocks))
            for i0, i1 in blocks:
                n = l0 + i1
                scores = None if work is None else work[:(i1 - i0) * n].reshape(i1 - i0, n)
                scores = matmul(q[i0 - r0:i1 - r0], kt[:, :n], out=scores)
                scores *= inv_sqrt_dk
                masked_row_softmax(scores, first_row=l0 + i0, width=l0 + m, out=scores)
                out[i0 - r0:i1 - r0] = matmul(scores, values[:n])
            if after_layer is not None:  # a copy, so the workspace is freed
                last_rows.append(scores[-1].copy())
        x = x + matmul(mixed, weights.w_o[l])
        m_in = _rmsnorm(x)
        x = x + matmul(np.maximum(matmul(m_in, weights.w_up[l]), 0.0), weights.w_down[l])
        if after_layer is not None:
            after_layer(l, np.stack(last_rows))
    return x[-1:]


def prefill(weights: ModelWeights, config: ModelConfig, seq: MultimodalSequence,
            hook: PruningHook | None = None,
            record_trace: bool = False) -> tuple[DecoderState, PrefillReport]:
    """Run the full prompt through all layers, populating per-head caches.

    The hook, when given, fires after each layer's own forward pass has
    consumed the full cache, receives that layer's H x S block of last
    attention rows, and may replace the layer's caches with pruned ones.
    """
    s = seq.total_length
    empty = np.empty((0, config.head_dim))
    caches = [[HeadKVCache(empty, empty, np.empty(0, dtype=np.int64))
               for _ in range(config.num_heads)] for _ in range(config.num_layers)]
    decisions: list[Any] = []
    trace_rows = np.empty((config.num_layers, config.num_heads, s)) if record_trace else None

    def after_layer(l: int, last_rows: np.ndarray) -> None:
        if record_trace:
            trace_rows[l] = last_rows
        if hook is not None:
            caches[l], decision = hook(l + 1, last_rows, caches[l], seq)
            decisions.append(decision)

    _forward(weights, config, caches, seq.token_ids, 0, after_layer)
    state = DecoderState(caches=caches, next_position=s)
    lengths = np.array([[len(c) for c in layer] for layer in caches])
    report = PrefillReport(decisions=decisions if hook is not None else None,
                           head_cache_lengths=lengths, attn_last_rows=trace_rows)
    return state, report


def decode_step(weights: ModelWeights, config: ModelConfig, state: DecoderState,
                token_id: int) -> tuple[np.ndarray, DecoderState]:
    """One autoregressive step: append K/V rows, attend over each head's cache.

    Each head attends only over its own (possibly pruned) rows, normalized
    over the survivors. Mutates ``state`` in place and returns it.
    """
    x = _forward(weights, config, state.caches, np.array([token_id]), state.next_position)
    logits = matmul(_rmsnorm(x), weights.unembedding)[0]
    state.next_position += 1
    return logits, state


def greedy_generate(weights: ModelWeights, config: ModelConfig, state: DecoderState,
                    start_token: int, steps: int) -> list[int]:
    """Repeated decode with argmax selection (ties -> lowest token id)."""
    if steps < 0:
        raise ValueError("steps must be >= 0")
    out: list[int] = []
    token = start_token
    for _ in range(steps):
        logits, state = decode_step(weights, config, state, token)
        token = int(np.argmax(logits))
        out.append(token)
    return out
