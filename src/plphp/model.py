"""A small decoder-only transformer with one KV cache store per layer.

The attention path follows the usual per-head projection / causal softmax /
value mixing scheme; around it sits a plain pre-norm residual block (RMS
normalization, 4x MLP with ReLU) so the decoder is a genuine, if tiny,
language model. Position embeddings are absolute and added once at the
input, which makes cache pruning a pure row deletion with no renumbering.

Prefill and decode are two passes over the same caches. Prefill's pass
writes each head's rows to its slab of its layer's cache and attends over
them in causal row blocks, starting from empty caches; each block's value
mix reads its normalised scores column-major, from one transposing copy,
so ``matmul`` runs its innermost loop along the block's rows. A decode
step's pass appends one row per head and attends with all H heads of a
layer at once, each head over the rows it kept, through the contraction
and softmax bodies that ``matmul`` and ``masked_row_softmax`` check
(``tensor_core._head_matmul`` and ``_normalise_rows``); its queries, keys
and values are one contraction over the layer's slice of the (3, N, H, D,
D_k) q/k/v table (``ModelWeights.w_qkv``). A layer keeps all its heads'
rows in one store with room to spare, so a decode step writes one row per
head and copies none. No head holds an S x S map: a block of B rows ending at row
i1 holds B x i1 scores, and B shrinks as i1 grows so that a block holds at
most ATTN_BLOCK_FLOATS floats (plus one row). So a thread's two score
workspaces are bounded whatever the prompt length, not O(S) per thread or
O(S^2) per head, and the masked upper triangle is never multiplied. This
is FlashAttention's tiling (Dao et al. 2022, arXiv 2205.14135), which sizes
a tile by the memory it must fit; full rows fit, so there is no online
rescaling. Every
output keeps the bits of the full-matrix computation (a masked weight is
exactly +0.0, and adding its +-0 product leaves the sum unchanged), and
each head's decode row keeps the bits of its own 1-row product and
softmax. On another CPU the softmax's ``np.exp`` may move by 1
ULP, so logits there agree within 1e-9 rather than bit for bit
(``tests/test_cpu_dispatch.py``). Prefill's pass returns only the last
row's output, which prefill drops, so the final layer appends every row to
the caches but runs the rest of the layer for its last row block alone.

Within a layer no head reads another head's state, so prefill runs the
heads on min(H, usable CPUs) threads, as FlashAttention-2 parallelises
over heads (Dao 2023, arXiv 2307.08691): the calling thread and threads
started for that layer and joined before it ends, so no thread outlives a
pass. Most of a head's time is spent in numpy calls that release the
interpreter lock, so the threads overlap. There is no setting for the
thread count. The bits cannot change: each head keeps its own summation
order, writes only its own slab of the store, its own D_k columns of the
layer's output and its own last row, and the layer waits for every head
before its out-projection. A decode step starts no thread: its batched
heads are a handful of numpy calls per layer on the calling thread, and
starting and joining a thread in every layer would add a fixed cost of its
own to every step.

Prefill also returns the last prompt row of each head's attention map, the
one row every pruning method reads, as one (N, H, S) array;
``baselines.decide`` turns it into decisions and ``pruning.prune`` cuts the
caches after the pass; a prefill hook does both in one call there. No layer
reads another layer's cache, so pruning never affects prefill values, only
decode-time attention.
"""

from __future__ import annotations

import math
import os
import threading
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from .layout import MultimodalSequence
from .tensor_core import _head_matmul, _normalise_rows, make_rng, masked_row_softmax, matmul

# hook(last_rows[N, H, S], state, seq) -> (state, decisions), called once after the
# pass with last_rows read-only; kept for perfbench/ until ROADMAP item 6
PruningHook = Callable[[np.ndarray, "DecoderState", MultimodalSequence],
                       tuple["DecoderState", Any]]

# The most rows and floats of one prefill attention block: a block of r rows
# ending at row i1 holds r x i1 scores, normalised in place, and their
# transposing copy, so r is capped by ATTN_BLOCK_ROWS and r * i1 by
# ATTN_BLOCK_FLOATS. 2**17 floats (1 MiB) keep a thread's two workspaces
# within a 2 MiB L2 at any prompt length; up to i1 = 2048 the budget allows
# the full 64 rows. 64 rows were measured against 32 and 128 at S=1024 and
# S=4096 (BENCH_einsum_contract.json's tile_sweep), and 2**17 floats against
# 2**16 and 2**18 at S=4096 and S=8192 (BENCH_block_floats.json).
ATTN_BLOCK_ROWS = 64
ATTN_BLOCK_FLOATS = 2**17

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
    """One array per field, shaped as ``weight_shapes`` lists it.

    ``w_qkv`` holds the query, key and value projections as one (3, N, H, D,
    D_k) table, so a decode step contracts its layer's (3, H, D, D_k) slice
    once and builds nothing per step; ``w_qkv[c, l, h]`` is head h's query
    (c = 0), key (1) or value (2) projection in layer l.
    """

    token_embedding: np.ndarray
    position_embedding: np.ndarray
    w_qkv: np.ndarray
    w_o: np.ndarray
    w_up: np.ndarray
    w_down: np.ndarray
    unembedding: np.ndarray


@dataclass(frozen=True, eq=False)
class HeadKVCache:
    """One head's rows in a ``LayerKVCache`` as read-only views into its store
    (a write raises ``ValueError``): ``keys`` and ``values`` L x D_k,
    ``positions`` L and strictly ascending."""

    keys: np.ndarray
    values: np.ndarray
    positions: np.ndarray

    def __len__(self) -> int:
        return len(self.positions)


class LayerKVCache(Sequence):
    """Key/value rows and their positions for the H heads of one layer, ``rows`` rows each.

    One head-major store holds them: keys^T (H x D_k x cap), values (H x cap
    x D_k) and positions (H x cap), cap >= rows, so each head's slab has the
    strides of a store of its own, and the bits and memory traffic are those
    of a per-head store. The constructor refuses arrays of mismatched shapes
    and positions that are not strictly ascending in every head
    (``ValueError``), and copies its arrays into an exact-size store, so a
    layer never aliases them. Item h is head h's view.
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
        within ``rows`` rows; the old rows are copied over once. So prefill
        reserves min(2S, ``max_rows``) rows per head, and a layer cut by
        ``take`` (exact size) is copied into a store of at most twice its
        length on its first decode step; every later step writes only its
        new row. The capacity idea is PagedAttention's (Kwon et al. 2023,
        arXiv 2309.06180), per layer and without pages.
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
    """The shape of every ``ModelWeights`` field, in field (and draw) order.

    The q/k/v table is one entry and one draw: PCG64 fills a (3, N, H, D,
    D_k) draw with the values of three consecutive (N, H, D, D_k) draws.
    """
    d, dk, n, h = config.model_dim, config.head_dim, config.num_layers, config.num_heads
    return {"token_embedding": (config.vocab_size, d),
            "position_embedding": (config.max_positions, d),
            "w_qkv": (3, n, h, d, dk),
            "w_o": (n, d, d), "w_up": (n, d, 4 * d), "w_down": (n, 4 * d, d),
            "unembedding": (d, config.vocab_size)}


def init_model(config: ModelConfig, seed: int) -> ModelWeights:
    """Draw all weights from one seeded PCG64 stream, scaled by 1/sqrt(D)."""
    rng = make_rng(seed)
    scale = 1.0 / np.sqrt(config.model_dim)
    return ModelWeights(**{name: rng.standard_normal(shape) * scale
                           for name, shape in weight_shapes(config).items()})


def _rmsnorm(x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Each row of ``x`` (m x D, or one row of D) over the root of its mean
    square plus ``eps``.

    The mean is ``np.mean``'s own sum and divide without its Python wrapper.
    A single row, every norm of a decode step, takes its scale as a Python
    float: the same reduce, then a divide, an add and a square root, each
    correctly rounded in IEEE double as numpy's are, so the bits are the
    rows' form's in three numpy calls instead of six.
    """
    if x.size == x.shape[-1]:
        row = x.reshape(-1)
        return x / math.sqrt(float(np.add.reduce(row * row)) / len(row) + eps)
    return x / np.sqrt(np.add.reduce(x * x, axis=-1, keepdims=True) / x.shape[-1] + eps)


def _add_mlp(weights: ModelWeights, l: int, x: np.ndarray) -> None:
    """Add layer l's MLP of x's RMS norm to x in place. The ReLU runs in place
    on the up-projection, so one hidden array is alive at a time."""
    hidden = matmul(_rmsnorm(x), weights.w_up[l])
    x += matmul(np.maximum(hidden, 0.0, out=hidden), weights.w_down[l])


def attention_row_blocks(m: int) -> list[tuple[int, int]]:
    """Causal attention row blocks ``[i0, i1)`` over the m new rows of a pass.

    Block ``[i0, i1)`` takes the most rows r <= ATTN_BLOCK_ROWS for which
    ``r * i1 <= ATTN_BLOCK_FLOATS``, with ``i1 = min(m, i0 + r)``, but at
    least 2; a 1-row tail joins the block before it. So only an S=1 prompt
    (or ATTN_BLOCK_ROWS = 1) has a 1-row block, and a block exceeds the
    budget only by that joined row or at the 2-row floor. Up to m = 2048 the
    defaults give the plain 64-row tiling.
    """
    bounds = [0]
    while bounds[-1] < m:
        i0 = bounds[-1]
        # the most rows r with r * (i0 + r) <= ATTN_BLOCK_FLOATS, but at least 2
        fit = max(2, (math.isqrt(i0 * i0 + 4 * ATTN_BLOCK_FLOATS) - i0) // 2)
        bounds.append(min(m, i0 + min(ATTN_BLOCK_ROWS, fit)))
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
    for this call take the rest (none for T = 1). Returns once every head has
    finished and every started thread has been joined; a head that raised
    does not stop the others, and the lowest-index head's exception is then
    re-raised, at every T. A thread that fails to start raises its error
    once the threads started before it have been joined.
    """
    threads = len(works)
    errors: list[BaseException | None] = [None] * num_heads

    def share(t: int) -> None:
        for h in range(t, num_heads, threads):
            try:
                attend(h, works[t])
            except BaseException as exc:  # re-raised below, once every head has finished
                errors[h] = exc

    started: list[threading.Thread] = []
    try:
        for t in range(1, threads):
            worker = threading.Thread(target=share, args=(t,), name=f"plphp-head-{t}")
            worker.start()
            started.append(worker)
        share(0)
    finally:
        for worker in started:
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
    mix, out-projection and MLP) for its last row block alone, which saves
    most of the final layer's attention, 1/N of the pass's. Serving engines
    sample from the last token's hidden state in the same way (vLLM, Kwon
    et al. 2023, arXiv 2309.06180). That block still has more than one row
    unless m is 1, so a prompt of m > 1 rows gives no operand a single row.

    Each layer's heads run on min(H, usable CPUs) threads (``_run_heads``),
    each thread with two workspaces of one block each for the whole pass: the
    block's scores, normalised in place, and their transposing copy, which
    hands the value mix a column-major block (``matmul`` then runs its inner
    loop along the block's rows).
    """
    m = len(token_ids)
    x, positions = _embed(weights, config, token_ids, 0)
    dk = config.head_dim
    inv_sqrt_dk = 1.0 / np.sqrt(dk)
    blocks = attention_row_blocks(m)
    r0 = 0  # first row a layer computes beyond its K/V: 0 before the final layer
    # per thread, sized for the largest block of any head and layer
    size = max((i1 - i0) * i1 for i0, i1 in blocks)
    works = [np.empty((2, size)) for _ in range(min(config.num_heads, _usable_cpus()))]

    for l in range(config.num_layers):
        h_in = _rmsnorm(x)
        if l == config.num_layers - 1:
            blocks = blocks[-1:]
            r0 = blocks[0][0]
            x = x[r0:]
        mixed = np.empty((m - r0, config.model_dim))
        # the store keeps keys^T: the scores' innermost loop runs along its rows
        kt, vs = caches[l].extend(positions, config.max_positions)

        def attend(h: int, work: np.ndarray) -> None:
            # reads only shared inputs; writes only head h's slabs, columns of
            # mixed and last row, so the order of heads changes no bit
            q = matmul(h_in[r0:], weights.w_qkv[0, l, h])
            kt[h, :, :m] = matmul(h_in, weights.w_qkv[1, l, h]).T
            vs[h, :m] = matmul(h_in, weights.w_qkv[2, l, h])
            out = mixed[:, h * dk:(h + 1) * dk]
            for i0, i1 in blocks:
                cells = (i1 - i0) * i1
                scores = matmul(q[i0 - r0:i1 - r0], kt[h, :, :i1],
                                out=work[0, :cells].reshape(i1 - i0, i1))
                scores *= inv_sqrt_dk
                masked_row_softmax(scores, width=m)
                attn = work[1, :cells].reshape(i1, i1 - i0).T  # column-major
                attn[...] = scores
                out[i0 - r0:i1 - r0] = matmul(attn, vs[h, :i1])
            last_rows[l, h] = scores[-1]  # before the next head reuses the workspace

        _run_heads(attend, config.num_heads, works)
        x += matmul(mixed, weights.w_o[l])
        del h_in, mixed  # freed before the MLP's m x 4D hidden array
        _add_mlp(weights, l, x)
    return x[-1:]


def _decode_pass(weights: ModelWeights, config: ModelConfig, caches: list[LayerKVCache],
                 token_id: int, position: int) -> np.ndarray:
    """Run one new row at ``position`` through every layer; returns it, 1 x D.

    Each layer appends the row to every head (``LayerKVCache.extend``) and
    attends with all H heads at once, over the n rows each head now holds.
    It calls the bodies that ``matmul`` and ``masked_row_softmax`` check
    (``tensor_core._head_matmul`` and ``_normalise_rows``) on the shapes it
    builds, without the checks: queries, keys and values in one contraction
    of the row with the layer's (3, H, D, D_k) slice of ``w_qkv`` (no
    per-step copy of the weights), scores over ``kt[:, :, :n]``, their
    softmax and the value mix over ``vs[:, :n]``.
    Row h of each keeps the bits of head h's 1-row ``matmul`` and
    ``masked_row_softmax``, and the (H, D_k) output, read as one row, is the
    heads' columns in order. The out-projection, MLP and unembedding are
    checked ``matmul`` calls.
    """
    x, positions = _embed(weights, config, np.array([token_id]), position)
    inv_sqrt_dk = 1.0 / np.sqrt(config.head_dim)
    for l in range(config.num_layers):
        kt, vs = caches[l].extend(positions, config.max_positions)
        n = caches[l].rows
        q, kt[:, :, n - 1], vs[:, n - 1] = _head_matmul(_rmsnorm(x), weights.w_qkv[:, l])
        scores = _head_matmul(q, kt[:, :, :n])
        scores *= inv_sqrt_dk
        _normalise_rows(scores, n)
        x += matmul(_head_matmul(scores, vs[:, :n]).reshape(1, -1), weights.w_o[l])
        _add_mlp(weights, l, x)
    return x


def prefill(weights: ModelWeights, config: ModelConfig, seq: MultimodalSequence,
            hook: PruningHook | None = None,
            record_trace: bool = False) -> tuple[DecoderState, PrefillReport]:
    """Run the full prompt through all layers, populating every layer's cache.

    With ``record_trace`` the report's ``attn_last_rows`` is the N x H x S
    array of last attention rows that ``decide`` reads. The hook, kept for
    perfbench/ until ROADMAP item 6, runs once after the pass on a read-only
    view of that array (a write raises ``ValueError``) and returns the state
    to decode from and the decisions the report carries. No layer reads
    another layer's cache, so pruning after the pass leaves the caches
    pruning between layers would.
    """
    s = seq.total_length
    empty = np.empty((config.num_heads, 0, config.head_dim))
    caches = [LayerKVCache(empty, empty, np.empty((config.num_heads, 0), dtype=np.int64))
              for _ in range(config.num_layers)]
    last_rows = np.empty((config.num_layers, config.num_heads, s))
    _prefill_pass(weights, config, caches, seq.token_ids, last_rows)
    state, decisions = DecoderState(caches=caches, next_position=s), None
    if hook is not None:
        read_only = last_rows.view()
        read_only.flags.writeable = False
        state, decisions = hook(read_only, state, seq)
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
