"""A small decoder-only transformer with one KV cache store per layer.

The attention path follows the usual per-head projection / causal softmax /
value mixing scheme; around it sits a plain pre-norm residual block (RMS
normalization, 4x MLP with ReLU) so the decoder is a genuine, if tiny,
language model. Position embeddings are absolute and added once at the
input, which makes cache pruning a pure row deletion with no renumbering.

Prefill and decode are two passes over the same caches. Prefill's pass
writes each head's rows to its slab of its layer's cache and attends over
them in causal row blocks, starting from empty caches. A decode step's pass
appends one row per head and attends with all H heads of a layer at once
(``tensor_core.head_matmul`` and ``head_row_softmax``), each head over the
rows it kept. A layer keeps all its heads' rows in one store with room to
spare, so a decode step writes one row per head and copies none. No head
holds an S x S map and the masked upper triangle is never multiplied; every
output keeps the bits of the full-matrix computation (a masked weight is
exactly +0.0, and adding its +-0 product leaves the sum unchanged), and each
head's decode row keeps the bits of its own 1-row product and softmax. On
another CPU the softmax's ``np.exp`` may move by 1 ULP, so logits there
agree within 1e-9 rather than bit for bit (``tests/test_cpu_dispatch.py``).
Prefill's pass returns only the last row's output, which prefill drops, so
the final layer appends every row to the caches but runs the rest of the
layer for its last row block alone.

Within a layer no head reads another head's state, so prefill runs the
heads on min(H, usable CPUs) threads: the calling thread and threads
started for that layer and joined before it ends, so no thread outlives a
pass. The bits cannot change: each head keeps its own summation order,
writes only its own slab of the store, its own D_k columns of the layer's
output and its own last row, and the layer waits for every head before its
out-projection. A decode step starts no thread: its batched heads are a
handful of numpy calls per layer on the calling thread.

Prefill also returns the last prompt row of each head's attention map, the
one row every pruning method reads, as one (N, H, S) array;
``baselines.decide`` turns it into decisions and ``pruning.prune`` cuts the
caches after the pass. No layer reads another layer's cache, so pruning
never affects prefill values, only decode-time attention.
"""

from __future__ import annotations

import os
import threading
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from .layout import MultimodalSequence
from .tensor_core import head_matmul, head_row_softmax, make_rng, masked_row_softmax, matmul

# hook(layer_1based, last_rows[H, S], layer_cache, seq) -> (layer_cache, LayerDecision),
# last_rows read-only; kept for perfbench/ until ROADMAP item 6, as is prefill's hook loop
PruningHook = Callable[
    [int, np.ndarray, "LayerKVCache", MultimodalSequence],
    tuple["LayerKVCache", Any],
]

# Rows of one prefill attention block: each head's scores, normalised in
# place, take ATTN_BLOCK_ROWS x S floats at a time instead of S x S. 64 rows
# keep a block's buffers (1 MiB each at S=2048) within a 2 MiB L2; measured
# against 32 and 128 at S=1024 and S=4096 (table in README.md).
ATTN_BLOCK_ROWS = 64

__all__ = [
    "ModelConfig", "ModelWeights", "HeadKVCache", "LayerKVCache", "DecoderState",
    "PrefillReport",
    "weight_shapes", "init_model", "prefill", "decode_step", "greedy_generate",
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
    """One array per field, shaped as ``weight_shapes`` lists it."""

    token_embedding: np.ndarray
    position_embedding: np.ndarray
    w_q: np.ndarray
    w_k: np.ndarray
    w_v: np.ndarray
    w_o: np.ndarray
    w_up: np.ndarray
    w_down: np.ndarray
    unembedding: np.ndarray


@dataclass(frozen=True, eq=False)
class HeadKVCache:
    """One head's rows in a ``LayerKVCache`` as read-only views into its store:
    ``keys`` and ``values`` L x D_k, ``positions`` L and strictly ascending."""

    keys: np.ndarray
    values: np.ndarray
    positions: np.ndarray

    def __len__(self) -> int:
        return len(self.positions)


class LayerKVCache(Sequence):
    """Key/value rows and their positions for the H heads of one layer, ``rows`` rows each.

    One head-major store holds them: keys^T (H x D_k x cap), values (H x cap
    x D_k) and positions (H x cap), cap >= rows, so each head's slab has the
    strides of a store of its own. The constructor copies its arrays into an
    exact-size store, so a layer never aliases them. Item h is head h's view.
    """

    def __init__(self, keys: np.ndarray, values: np.ndarray, positions: np.ndarray):
        if keys.ndim != 3 or values.shape != keys.shape or positions.shape != keys.shape[:2]:
            raise ValueError(f"need H x L x D_k keys and values and H x L positions, got "
                             f"{keys.shape}, {values.shape} and {positions.shape}")
        if positions.shape[1] > 1 and not np.all(np.diff(positions, axis=1) > 0):
            raise ValueError("each head's cache positions must be strictly ascending")
        self._kt = np.array(keys.transpose(0, 2, 1), order="C")
        self._vs = np.array(values, order="C")
        self._ps = np.array(positions)
        self.rows = positions.shape[1]

    def __len__(self) -> int:
        return len(self._ps)

    def __getitem__(self, head: int) -> HeadKVCache:
        h, l = range(len(self))[head], self.rows
        views = self._kt[h, :, :l].T, self._vs[h, :l], self._ps[h, :l]
        for view in views:
            view.flags.writeable = False
        return HeadKVCache(*views)

    def extend(self, positions: np.ndarray, max_rows: int) -> tuple[np.ndarray, np.ndarray]:
        """Add m rows at ``positions`` to every head; returns the store's keys^T and values.

        Head h then writes its rows to ``kt[h, :, rows - m:rows]`` and
        ``vs[h, rows - m:rows]``. A store too small is replaced by one of twice
        the new length, but at most ``max_rows`` rows, so its slack stays
        within ``rows`` rows; the old rows are copied over once.
        """
        l0 = self.rows
        l1 = l0 + len(positions)
        if l1 > self._ps.shape[1]:
            cap = max(l1, min(2 * l1, max_rows))
            kt, vs, ps = self._kt, self._vs, self._ps
            self._kt = np.empty((*kt.shape[:2], cap))
            self._vs = np.empty((len(vs), cap, vs.shape[2]))
            self._ps = np.empty((len(ps), cap), ps.dtype)
            self._kt[:, :, :l0] = kt[:, :, :l0]
            self._vs[:, :l0] = vs[:, :l0]
            self._ps[:, :l0] = ps[:, :l0]
        self._ps[:, l0:l1] = positions
        self.rows = l1
        return self._kt, self._vs

    def take(self, rows: np.ndarray) -> "LayerKVCache":
        """A new layer of rows ``rows[h]`` of each head h (broadcast to H x L'), in one gather."""
        heads, l = np.arange(len(self))[:, None], self.rows
        return LayerKVCache(self._kt[:, :, :l][heads, :, rows], self._vs[:, :l][heads, rows],
                            self._ps[:, :l][heads, rows])

    def clone(self) -> "LayerKVCache":
        l = self.rows  # slices copy 3-5x faster than take's gather (S=4096)
        return LayerKVCache(self._kt[:, :, :l].transpose(0, 2, 1), self._vs[:, :l], self._ps[:, :l])


@dataclass
class DecoderState:
    caches: list[LayerKVCache]  # one per layer
    next_position: int

    def clone(self) -> "DecoderState":
        return DecoderState(caches=[layer.clone() for layer in self.caches],
                            next_position=self.next_position)


@dataclass
class PrefillReport:
    decisions: list[Any] | None              # one LayerDecision per layer; None without a hook
    attn_last_rows: np.ndarray | None = None # N x H x S when tracing was requested


def weight_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """The shape of every ``ModelWeights`` field, in field (and draw) order."""
    d, dk, n, h = config.model_dim, config.head_dim, config.num_layers, config.num_heads
    return {"token_embedding": (config.vocab_size, d),
            "position_embedding": (config.max_positions, d),
            "w_q": (n, h, d, dk), "w_k": (n, h, d, dk), "w_v": (n, h, d, dk),
            "w_o": (n, d, d), "w_up": (n, d, 4 * d), "w_down": (n, 4 * d, d),
            "unembedding": (d, config.vocab_size)}


def init_model(config: ModelConfig, seed: int) -> ModelWeights:
    """Draw all weights from one seeded PCG64 stream, scaled by 1/sqrt(D)."""
    rng = make_rng(seed)
    scale = 1.0 / np.sqrt(config.model_dim)
    return ModelWeights(**{name: rng.standard_normal(shape) * scale
                           for name, shape in weight_shapes(config).items()})


def _rmsnorm(x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    # np.mean's own sum and divide, without its Python wrapper
    return x / np.sqrt(np.add.reduce(x * x, axis=-1, keepdims=True) / x.shape[-1] + eps)


def attention_row_blocks(m: int) -> list[tuple[int, int]]:
    """Causal attention row blocks ``[i0, i1)`` over the m new rows of a pass.

    Blocks hold ATTN_BLOCK_ROWS rows; a 1-row tail joins the block before it,
    so only an S=1 prompt has a 1-row block.
    """
    bounds = [*range(0, m, ATTN_BLOCK_ROWS), m]
    if len(bounds) > 2 and bounds[-1] - bounds[-2] == 1:
        del bounds[-2]
    return list(zip(bounds, bounds[1:]))


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask, else the CPU count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _run_heads(attend: Callable[[int, np.ndarray], None], num_heads: int,
               works: list[np.ndarray]) -> None:
    """``attend(h, works[t])`` for every head h, thread t taking heads t, t + T, ...

    T = ``len(works)``: the calling thread is t = 0 and T - 1 threads started
    for this call take the rest. Returns once every head has finished and
    every started thread has been joined; a head that raised does not stop
    the others, and the lowest-index head's exception is then re-raised.
    With T = 1 the heads run in order on the calling thread.
    """
    threads = len(works)
    if threads == 1:
        for h in range(num_heads):
            attend(h, works[0])
        return
    errors: list[BaseException | None] = [None] * num_heads

    def share(t: int) -> None:
        for h in range(t, num_heads, threads):
            try:
                attend(h, works[t])
            except BaseException as exc:  # re-raised below, once every head has finished
                errors[h] = exc

    workers = [threading.Thread(target=share, args=(t,), name=f"plphp-head-{t}")
               for t in range(1, threads)]
    for worker in workers:
        worker.start()
    share(0)
    for worker in workers:
        worker.join()
    for exc in errors:
        if exc is not None:
            raise exc


def _embed(weights: ModelWeights, config: ModelConfig, token_ids: np.ndarray,
           first_position: int) -> tuple[np.ndarray, np.ndarray]:
    """The m new rows' input (m x D) and positions, after checking both.

    A token id outside [0, vocab_size), or a position past max_positions,
    raises ``ValueError`` before any cache changes.
    """
    m = len(token_ids)
    if m and not 0 <= token_ids.min() <= token_ids.max() < config.vocab_size:
        bad = token_ids[(token_ids < 0) | (token_ids >= config.vocab_size)][0]
        raise ValueError(f"token id {bad} is outside the vocabulary [0, {config.vocab_size})")
    if first_position + m > config.max_positions:
        raise ValueError(f"positions up to {first_position + m - 1} exceed "
                         f"max_positions {config.max_positions}")
    positions = np.arange(first_position, first_position + m, dtype=np.int64)
    return weights.token_embedding[token_ids] + weights.position_embedding[positions], positions


def _prefill_pass(weights: ModelWeights, config: ModelConfig, caches: list[LayerKVCache],
                  token_ids: np.ndarray, last_rows: np.ndarray) -> np.ndarray:
    """Run the m prompt rows through every layer; returns the last row, 1 x D.

    Each layer's cache takes the rows (``LayerKVCache.extend``), and each
    head writes their keys and values to its slab and attends over its rows:
    row block ``[i0, i1)`` is rows ``i0..`` of a causal map m wide. Head h
    of layer l writes its map's last row into ``last_rows[l, h]`` (N x H x m).

    Only the last row leaves the final layer, so that layer appends all m
    rows to the caches but runs the rest (queries, scores, softmax, value
    mix, out-projection and MLP) for its last row block alone.

    Each layer's heads run on min(H, usable CPUs) threads (``_run_heads``),
    each thread with one score workspace for the whole pass.
    """
    m = len(token_ids)
    x, positions = _embed(weights, config, token_ids, 0)
    dk = config.head_dim
    inv_sqrt_dk = 1.0 / np.sqrt(dk)
    blocks = attention_row_blocks(m)
    r0 = 0  # first row a layer computes beyond its K/V: 0 before the final layer
    # per thread, sized for the largest block of any head and layer
    size = max((i1 - i0) * i1 for i0, i1 in blocks)
    works = [np.empty(size) for _ in range(min(config.num_heads, _usable_cpus()))]

    for l in range(config.num_layers):
        h_in = _rmsnorm(x)
        if l == config.num_layers - 1:
            blocks = blocks[-1:]
            r0 = blocks[0][0]
            x = x[r0:]
        mixed = np.empty((m - r0, config.model_dim))
        # the store keeps keys^T: each k-step of the score loop reads one row
        kt, vs = caches[l].extend(positions, config.max_positions)

        def attend(h: int, work: np.ndarray) -> None:
            # reads only shared inputs; writes only head h's slabs, columns of
            # mixed and last row, so the order of heads changes no bit
            q = matmul(h_in[r0:], weights.w_q[l, h])
            kt[h, :, :m] = matmul(h_in, weights.w_k[l, h]).T
            vs[h, :m] = matmul(h_in, weights.w_v[l, h])
            out = mixed[:, h * dk:(h + 1) * dk]
            for i0, i1 in blocks:
                scores = matmul(q[i0 - r0:i1 - r0], kt[h, :, :i1],
                                out=work[:(i1 - i0) * i1].reshape(i1 - i0, i1))
                scores *= inv_sqrt_dk
                masked_row_softmax(scores, width=m, out=scores)
                out[i0 - r0:i1 - r0] = matmul(scores, vs[h, :i1])
            last_rows[l, h] = scores[-1]  # before the next head reuses the workspace

        _run_heads(attend, config.num_heads, works)
        x = x + matmul(mixed, weights.w_o[l])
        m_in = _rmsnorm(x)
        x = x + matmul(np.maximum(matmul(m_in, weights.w_up[l]), 0.0), weights.w_down[l])
    return x[-1:]


def _decode_pass(weights: ModelWeights, config: ModelConfig, caches: list[LayerKVCache],
                 token_id: int, position: int) -> np.ndarray:
    """Run one new row at ``position`` through every layer; returns it, 1 x D.

    Each layer appends the row to every head (``LayerKVCache.extend``) and
    attends with all H heads at once, over the n rows each head now holds:
    queries, keys and values as 3H rows of one ``head_matmul`` over the
    layer's stacked (3H, D, D_k) weights, scores over ``kt[:, :, :n]``, the
    softmax of the (H, n) rows by ``head_row_softmax`` and the value mix
    over ``vs[:, :n]``. Row h of each keeps the bits of head h's 1-row
    ``matmul`` and ``masked_row_softmax``, and the (H, D_k) output, read as
    one row, is the heads' columns in order.
    """
    x, positions = _embed(weights, config, np.array([token_id]), position)
    h = config.num_heads
    inv_sqrt_dk = 1.0 / np.sqrt(config.head_dim)
    for l in range(config.num_layers):
        kt, vs = caches[l].extend(positions, config.max_positions)
        n = caches[l].rows
        qkv = head_matmul(_rmsnorm(x).repeat(3 * h, axis=0),
                          np.concatenate((weights.w_q[l], weights.w_k[l], weights.w_v[l])))
        q, kt[:, :, n - 1], vs[:, n - 1] = qkv[:h], qkv[h:2 * h], qkv[2 * h:]
        scores = head_matmul(q, kt[:, :, :n])
        scores *= inv_sqrt_dk
        head_row_softmax(scores)
        x = x + matmul(head_matmul(scores, vs[:, :n]).reshape(1, -1), weights.w_o[l])
        m_in = _rmsnorm(x)
        x = x + matmul(np.maximum(matmul(m_in, weights.w_up[l]), 0.0), weights.w_down[l])
    return x


def prefill(weights: ModelWeights, config: ModelConfig, seq: MultimodalSequence,
            hook: PruningHook | None = None,
            record_trace: bool = False) -> tuple[DecoderState, PrefillReport]:
    """Run the full prompt through all layers, populating every layer's cache.

    With ``record_trace`` the report's ``attn_last_rows`` is the N x H x S
    array of last attention rows that ``decide`` reads. The hook, kept for
    perfbench/ until ROADMAP item 6, runs for layers 1..N in order on a
    read-only view of that layer's H x S block and may replace the layer's
    caches with pruned ones. No layer reads another layer's cache, so
    pruning after the pass leaves the caches pruning between layers would.
    """
    s = seq.total_length
    empty = np.empty((config.num_heads, 0, config.head_dim))
    caches = [LayerKVCache(empty, empty, np.empty((config.num_heads, 0), dtype=np.int64))
              for _ in range(config.num_layers)]
    last_rows = np.empty((config.num_layers, config.num_heads, s))
    _prefill_pass(weights, config, caches, seq.token_ids, last_rows)
    decisions: list[Any] | None = None
    if hook is not None:
        read_only = last_rows.view()
        read_only.flags.writeable = False
        decisions = []
        for l in range(config.num_layers):
            caches[l], decision = hook(l + 1, read_only[l], caches[l], seq)
            decisions.append(decision)
    state = DecoderState(caches=caches, next_position=s)
    return state, PrefillReport(decisions, last_rows if record_trace else None)


def decode_step(weights: ModelWeights, config: ModelConfig, state: DecoderState,
                token_id: int) -> tuple[np.ndarray, DecoderState]:
    """One autoregressive step: append K/V rows, attend over each head's cache.

    Each head attends only over its own (possibly pruned) rows, normalized
    over the survivors. Mutates ``state`` in place and returns it.
    """
    x = _decode_pass(weights, config, state.caches, token_id, state.next_position)
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
