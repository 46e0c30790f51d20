"""A small decoder-only transformer with per-head KV caches.

The attention path follows the usual per-head projection / causal softmax /
value mixing scheme; around it sits a plain pre-norm residual block (RMS
normalization, 4x MLP with ReLU) so the decoder is a genuine, if tiny,
language model. Position embeddings are absolute and added once at the
input, which makes cache pruning a pure row deletion with no renumbering.

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


@dataclass
class HeadKVCache:
    """Variable-length key/value rows for one head, with original positions."""

    keys: np.ndarray       # L x D_k
    values: np.ndarray     # L x D_k
    positions: np.ndarray  # L, strictly ascending

    def __post_init__(self):
        if not (len(self.keys) == len(self.values) == len(self.positions)):
            raise ValueError("keys, values and positions must have equal length")
        if len(self.positions) > 1 and not np.all(np.diff(self.positions) > 0):
            raise ValueError("cache positions must be strictly ascending")

    def __len__(self) -> int:
        return len(self.positions)

    def clone(self) -> "HeadKVCache":
        return HeadKVCache(self.keys.copy(), self.values.copy(), self.positions.copy())


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
    return x / np.sqrt(np.mean(x * x, axis=-1, keepdims=True) + eps)


def prefill(weights: ModelWeights, config: ModelConfig, seq: MultimodalSequence,
            hook: PruningHook | None = None,
            record_trace: bool = False) -> tuple[DecoderState, PrefillReport]:
    """Run the full prompt through all layers, populating per-head caches.

    The hook, when given, fires after each layer's own forward pass has
    consumed the full cache, receives that layer's H x S block of last
    attention rows, and may replace the layer's caches with pruned ones.
    """
    s = seq.total_length
    if s > config.max_positions:
        raise ValueError(f"sequence length {s} exceeds max_positions {config.max_positions}")
    x = weights.token_embedding[seq.token_ids] + weights.position_embedding[:s]
    caches: list[list[HeadKVCache]] = []
    decisions: list[Any] = []
    trace_rows = np.empty((config.num_layers, config.num_heads, s)) if record_trace else None
    inv_sqrt_dk = 1.0 / np.sqrt(config.head_dim)
    positions = np.arange(s, dtype=np.int64)

    for l in range(config.num_layers):
        h_in = _rmsnorm(x)
        layer_caches: list[HeadKVCache] = []
        head_outs: list[np.ndarray] = []
        last_rows = np.empty((config.num_heads, s))
        for h in range(config.num_heads):
            q = matmul(h_in, weights.w_q[l, h])
            k = matmul(h_in, weights.w_k[l, h])
            v = matmul(h_in, weights.w_v[l, h])
            attn = masked_row_softmax(matmul(q, k.T) * inv_sqrt_dk, causal=True)
            head_outs.append(matmul(attn, v))
            last_rows[h] = attn[-1]
            del attn  # free this head's S x S map before the next head builds its own
            layer_caches.append(HeadKVCache(keys=k, values=v, positions=positions.copy()))
        x = x + matmul(np.concatenate(head_outs, axis=1), weights.w_o[l])
        m_in = _rmsnorm(x)
        x = x + matmul(np.maximum(matmul(m_in, weights.w_up[l]), 0.0), weights.w_down[l])

        if record_trace:
            trace_rows[l] = last_rows
        if hook is not None:
            layer_caches, decision = hook(l + 1, last_rows, layer_caches, seq)
            decisions.append(decision)
        caches.append(layer_caches)

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
    pos = state.next_position
    if pos >= config.max_positions:
        raise ValueError(f"position {pos} exceeds max_positions {config.max_positions}")
    x = (weights.token_embedding[token_id] + weights.position_embedding[pos]).reshape(1, -1)
    inv_sqrt_dk = 1.0 / np.sqrt(config.head_dim)

    for l in range(config.num_layers):
        h_in = _rmsnorm(x)
        head_outs: list[np.ndarray] = []
        for h in range(config.num_heads):
            cache = state.caches[l][h]
            q = matmul(h_in, weights.w_q[l, h])
            k_new = matmul(h_in, weights.w_k[l, h])
            v_new = matmul(h_in, weights.w_v[l, h])
            cache.keys = np.concatenate([cache.keys, k_new])
            cache.values = np.concatenate([cache.values, v_new])
            cache.positions = np.concatenate([cache.positions, [pos]])
            scores = matmul(q, cache.keys.T) * inv_sqrt_dk
            attn = masked_row_softmax(scores, causal=False)
            head_outs.append(matmul(attn, cache.values))
        x = x + matmul(np.concatenate(head_outs, axis=1), weights.w_o[l])
        m_in = _rmsnorm(x)
        x = x + matmul(np.maximum(matmul(m_in, weights.w_up[l]), 0.0), weights.w_down[l])

    logits = matmul(_rmsnorm(x), weights.unembedding)[0]
    state.next_position = pos + 1
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
