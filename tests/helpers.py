"""Independent brute-force oracles used across the test suite.

Everything here is deliberately written the dumb way (explicit loops,
sorting, set arithmetic, BLAS matmul) and never calls into the code paths
it checks. The exceptions are ``full_matrix_prefill`` and
``reference_decode_step``: the unblocked prefill and the per-head decode
step, kept as bitwise references for ``plphp.prefill``'s blocked pass and
``plphp.decode_step``'s head-batched one. They share the 1-row and
full-matrix kernels, and check the blocking, the head batching and the
cache handling. Likewise
``per_layer_decision`` is the one-layer pruning decision that
``plphp.pruning.decide_layers`` batches: it shares the class, retention and
top-K rules, and checks only the batching and the per-image column slices;
``select_retained``, the one-image selection it builds on, composes
``argtopk`` and ``retained_count`` and is itself checked against
``sort_select``. ``stable_argtopk``, ``argtopk``'s former full-argsort path,
is the reference for ``argtopk`` and for FastV's ranking; the per-layer
decision reaches it only through ``argtopk``.
``FastVRule`` and ``vtw_decide`` are the baselines' per-layer rules that
``plphp.decide`` batches: they share the FastV ranking and the gamma of one
layer, and check only the batching and FastV's layer-K set.
``json_report`` is the report JSON as ``json.dumps`` writes it, which
``plphp.metrics.report_to_json`` renders without json's indenting encoder;
``dict_writer_csv`` is the report CSV as ``csv.DictWriter`` writes it, which
``plphp.metrics.write_report_csv`` builds as one string.
``decision_count_report`` is the replay report counted from ``decide``'s
selected rows, which ``plphp.trace.replay_report`` counts from each layer's
allocation alone; both go through the one accounting.
``layer_from_heads``, ``random_cache_state``, ``cut_head`` and
``pruned_prefill`` are no oracles: they build and cut
caches for the tests, ``pruned_prefill`` through the library's one pruning
path; the ``assert_same_*`` helpers compare caches and decisions.
"""

from __future__ import annotations

import csv
import io
import json

import numpy as np

from plphp import (DecoderState, LayerDecision, LayerKVCache, allocate_retention, argtopk,
                   build_sequence, classify_layer, decide, masked_row_softmax, matmul, prefill,
                   prune, vision_attention_score)
from plphp.baselines import fastv_surviving_set
from plphp.metrics import CSV_COLUMNS, report_from_counts
from plphp.pruning import prune_head_cache, prune_layer, retained_count


# a quiet NaN with a payload no computation here produces
DIRTY_NAN = np.uint64(0x7FF8000000000001).view(np.float64)


def _dirty(out: np.ndarray) -> np.ndarray:
    if out.dtype == np.float64:
        out.fill(DIRTY_NAN)
    else:
        out.view(np.uint8).fill(0xA5)
    return out


class DirtyNumpy:
    """numpy, except that ``empty`` and ``empty_like`` return memory full of
    garbage (DIRTY_NAN in float64 arrays), as a reused heap block may hold.
    Patched in as a module's ``np``, it shows that the module reads no byte
    of a buffer it allocated before writing it."""

    def __getattr__(self, name):
        return getattr(np, name)

    @staticmethod
    def empty(*args, **kwargs):
        return _dirty(np.empty(*args, **kwargs))

    @staticmethod
    def empty_like(*args, **kwargs):
        return _dirty(np.empty_like(*args, **kwargs))


def layer_from_heads(heads) -> LayerKVCache:
    """A layer cache from each head's ``(keys, values, positions)``, stacked."""
    keys, values, positions = zip(*heads)
    return LayerKVCache(np.stack(keys), np.stack(values), np.stack(positions))


def random_cache_state(rng, n: int, h: int, s: int) -> DecoderState:
    """N layers of H heads with zero keys and values, no model execution: each
    head keeps its own random prompt positions, as many as every head of its
    layer."""
    caches = []
    for _ in range(n):
        kept = int(rng.integers(1, s + 1))
        caches.append(layer_from_heads(
            (np.zeros((kept, 2)), np.zeros((kept, 2)),
             np.sort(rng.choice(s, kept, replace=False)).astype(np.int64)) for _ in range(h)))
    return DecoderState(caches=caches, next_position=s)


def cut_head(cache: LayerKVCache, text_union, retained_vision):
    """Head 0 of a one-head layer cut to the rows ``prune_head_cache`` keeps."""
    return cache.take(prune_head_cache(cache[0], text_union, retained_vision)[None])[0]


def pruned_prefill(weights, config, seq, pruning=None):
    """``prefill``, ``decide`` under method ``pruning`` (None: no pruning), then
    ``prune``: returns the pruned state, the last rows (N x H x S) and the decisions."""
    state, report = prefill(weights, config, seq, record_trace=True)
    decisions = decide(pruning, report.attn_last_rows, seq)
    return prune(state, seq, decisions), report.attn_last_rows, decisions


def assert_same_caches(ref, got):
    """Every head's keys, values and positions, bit for bit and dtype for dtype."""
    for ref_layer, got_layer in zip(ref.caches, got.caches, strict=True):
        for a, b in zip(ref_layer, got_layer, strict=True):
            assert a.positions.dtype == b.positions.dtype
            assert np.array_equal(a.positions, b.positions)
            assert same_bits(a.keys, b.keys) and same_bits(a.values, b.values)


def assert_same_decisions(got, want):
    """Decisions field for field, gamma to the bit, kept rows dtype for dtype."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert (g.layer, float.hex(g.gamma), g.layer_class, g.exempt, g.retention) == \
            (w.layer, float.hex(w.gamma), w.layer_class, w.exempt, w.retention)
        a, b = g.per_head_retained, w.per_head_retained
        assert (a is None) == (b is None)
        if a is not None:
            assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)


def assert_kept_sets_nest(inner, outer, seq):
    """Each (layer, head)'s kept vision rows under decisions ``inner`` lie within
    its rows under ``outer``; an exempt layer keeps every vision row."""
    vision = seq.vision_union.size
    for a, b in zip(inner, outer, strict=True):
        assert a.layer == b.layer
        if b.exempt:
            continue
        if a.exempt:  # then b must keep every vision row too
            assert all(len(row) == vision for row in b.per_head_retained), a.layer
            continue
        for h, (small, big) in enumerate(zip(a.per_head_retained, b.per_head_retained,
                                             strict=True)):
            assert np.isin(small, big).all(), (a.layer, h, small, big)


def bits(x: np.ndarray) -> np.ndarray:
    """Bit patterns of a float64 array: unlike ==, tells -0.0 from +0.0."""
    return np.ascontiguousarray(x, dtype=np.float64).view(np.uint64)


def same_bits(x: np.ndarray, y: np.ndarray) -> bool:
    return x.shape == y.shape and np.array_equal(bits(x), bits(y))


def naive_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    m, inner = a.shape
    n = b.shape[1]
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            s = 0.0
            for k in range(inner):
                s += a[i, k] * b[k, j]
            out[i, j] = s
    return out


def loop_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The k-loop product ``c += a[:, k] * b[k, :]``, one numpy step per k.

    Same summation order as ``naive_matmul`` and fast enough for the
    differential tests of ``plphp.matmul`` and the contraction it shares with
    a decode step: their einsum layouts, the in-order 1-column sum and the
    empty products must reproduce it bit for bit.
    """
    out = np.zeros((a.shape[0], b.shape[1]))
    tmp = np.empty_like(out)
    for k in range(a.shape[1]):
        np.multiply(a[:, k : k + 1], b[k : k + 1, :], out=tmp)
        out += tmp
    return out


def canonical_nan_bits(x: np.ndarray) -> np.ndarray:
    """Bit patterns with every NaN replaced by one NaN.

    numpy does not define which payload a sum or product of two different
    NaNs carries: its SIMD loops return one operand's in vector lanes and the
    other's in the tail, so it depends on where the element sits in the
    array. Compare such results by this; compare everything else by ``bits``.
    """
    return bits(np.where(np.isnan(x), np.nan, x))


def naive_softmax(scores: np.ndarray, causal: bool = False) -> np.ndarray:
    out = np.zeros_like(scores, dtype=float)
    for i in range(scores.shape[0]):
        limit = i + 1 if causal else scores.shape[1]
        exps = [float(np.exp(scores[i, j])) for j in range(limit)]
        total = sum(exps)
        for j in range(limit):
            out[i, j] = exps[j] / total
    return out


def row_softmax(scores: np.ndarray) -> np.ndarray:
    """Row-wise softmax over every column, with nothing masked.

    The non-causal path ``plphp.masked_row_softmax`` had before it became
    causal only, with the same numpy calls in the same order: the oracle for
    a 1-row block, which masks nothing, and the softmax of
    ``reference_decode_step``.
    """
    scores = np.asarray(scores, dtype=np.float64)
    m, n = scores.shape
    out = np.empty((m, n))
    exp = out[:, :n]
    exp[...] = scores
    exp -= exp.max(axis=1, keepdims=True)
    np.exp(exp, out=exp)
    out /= np.add.reduce(out, axis=1, keepdims=True)  # np.sum without its wrapper
    return out


def sort_topk(values, k: int) -> list[int]:
    order = sorted(range(len(values)), key=lambda i: (-values[i], i))
    return sorted(order[:k])


def stable_argtopk(values, k: int) -> np.ndarray:
    """``plphp.argtopk``'s former 1-D path: a full stable argsort of ``-values``.

    The stable sort keeps the original order among ties (smallest index
    first) and sorts NaN last; the first k indices are returned ascending.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1:
        raise ValueError(f"expected a 1-D sequence, got {values.ndim}-D")
    if not 0 <= k <= values.shape[0]:
        raise ValueError(f"k={k} out of range for length {values.shape[0]}")
    order = np.argsort(-values, kind="stable")[:k]
    return np.sort(order)


def select_retained(head_row: np.ndarray, image_indices: np.ndarray,
                    retention: float) -> tuple[np.ndarray, int]:
    """Top-K vision positions of one image for one head, or for each row of ``(H, S)``.

    The per-image selection ``plphp.pruning.decide_layers`` batches over
    layers and images: K is ``retained_count(retention, image length)``, the
    top K by ``argtopk``. Returns the retained absolute positions
    (ascending, one row per head for 2-D input) and K.
    """
    head_row = np.asarray(head_row, dtype=np.float64)
    image_indices = np.asarray(image_indices, dtype=np.int64)
    k = retained_count(retention, image_indices.size)
    return image_indices[argtopk(np.take(head_row, image_indices, axis=-1), k)], k


def loop_gamma(rows: np.ndarray, vision: np.ndarray) -> float:
    h = rows.shape[0]
    total = 0.0
    for k in vision:
        for head in range(h):
            total += rows[head, k] / h
    return total


def per_layer_decision(rows: np.ndarray, seq, cfg, layer: int, num_layers: int) -> LayerDecision:
    """One layer's decision as plphp made it before ``plphp.pruning.decide_layers``
    batched the layers.

    One layer's ``(H, S)`` rows: gamma by ``np.mean``, a 1-D gather and
    ``np.sum``, then one ``select_retained`` per image over the H rows.
    """
    rows = np.asarray(rows, dtype=np.float64)
    vision = seq.vision_union
    gamma = float(np.sum(np.mean(rows, axis=0)[vision])) if vision.size else 0.0
    layer_class = classify_layer(gamma, cfg)
    first, last = cfg.pruned_range(num_layers)
    if not first <= layer <= last:
        return LayerDecision(layer=layer, gamma=gamma, layer_class=layer_class)
    retention = allocate_retention(layer_class, cfg)
    per_image = [select_retained(rows, np.arange(lo, hi), retention)[0]
                 for lo, hi in seq.image_spans]
    per_head = np.concatenate([np.empty((len(rows), 0), dtype=np.int64), *per_image], axis=1)
    return LayerDecision(layer=layer, gamma=gamma, layer_class=layer_class,
                         retention=retention, per_head_retained=per_head)


def image_parts(row: np.ndarray, seq) -> list[np.ndarray]:
    """A decision row's kept positions cut at ``seq.image_spans``, one part per image."""
    return [row[(row >= lo) & (row < hi)] for lo, hi in seq.image_spans]


def _shared_decision(layer: int, last_rows: np.ndarray, seq,
                     kept: np.ndarray | None) -> LayerDecision:
    """Every head keeps the vision positions ``kept``; None exempts the layer."""
    gamma = float(vision_attention_score(last_rows[None], seq.vision_union)[0])
    if kept is None:
        return LayerDecision(layer=layer, gamma=gamma, layer_class=None)
    per_image = [kept[np.isin(kept, np.arange(lo, hi))] for lo, hi in seq.image_spans]
    row = np.concatenate([np.empty(0, dtype=np.int64), *per_image])
    return LayerDecision(layer=layer, gamma=gamma, layer_class=None,
                         per_head_retained=np.tile(row, (len(last_rows), 1)))


class FastVRule:
    """FastV's per-layer rule as it was before ``plphp.decide``; ``surviving``
    is the set ranked at layer K, carried to the layers after it."""

    def __init__(self, cfg):
        self.cfg = cfg
        self.surviving: np.ndarray | None = None

    def __call__(self, layer: int, last_rows: np.ndarray, seq) -> LayerDecision:
        k = self.cfg.k_layer
        if layer == k:
            self.surviving = fastv_surviving_set(last_rows, seq, self.cfg)
        elif layer > k and self.surviving is None:
            raise ValueError(f"layer {layer} reached without a surviving set from layer {k}")
        return _shared_decision(layer, last_rows, seq, self.surviving if layer >= k else None)


def vtw_decide(layer: int, last_rows: np.ndarray, seq, cfg) -> LayerDecision:
    """VTW's per-layer rule as it was before ``plphp.decide``: every vision
    row below layer K, none from K on."""
    kept = None if layer < cfg.k_layer else np.empty(0, dtype=np.int64)
    return _shared_decision(layer, last_rows, seq, kept)


def sort_select(head_row: np.ndarray, image_indices: np.ndarray,
                retention: float) -> tuple[list[int], int]:
    # K floors the product rounded to 9 decimals: 0.19999999999999998 * 10 keeps 2
    k = int(np.floor(round(retention * len(image_indices), 9)))
    if retention > 0:
        k = max(1, k)
    ranked = sorted(image_indices.tolist(), key=lambda i: (-head_row[i], i))
    return sorted(ranked[:k]), k


def set_keep(positions, text_union, retained_vision) -> list[int]:
    keep = set(text_union.tolist()) | set(np.asarray(retained_vision).tolist())
    return [p for p in positions.tolist() if p in keep]


def recount_metrics(state, seq) -> tuple[float, float]:
    """Brute-force RR/KV recount over every head cache."""
    s = seq.total_length
    vision = set()
    for lo, hi in seq.image_spans:
        vision |= set(range(lo, hi))
    n = len(state.caches)
    h = len(state.caches[0])
    rows = 0
    vision_rows = 0
    for layer in state.caches:
        for cache in layer:
            for pos in cache.positions.tolist():
                if pos < s:
                    rows += 1
                    if pos in vision:
                        vision_rows += 1
    rr = vision_rows / (n * h * len(vision)) if vision else 1.0
    return rr, rows / (n * h * s)


def decision_count_report(trace, cfg):
    """The replay report of method ``cfg`` counted from ``decide``'s decisions.

    Each pruned layer's heads keep ``per_head_retained.shape[1]`` vision rows
    and every text row; an exempt layer keeps every row. This is how replay
    counted before it counted level one alone, selecting every row first.
    """
    seq = build_sequence(trace.segments, seed=0)
    n, h, s = trace.num_layers, trace.num_heads, trace.seq_len
    v = seq.vision_union.size
    kept_vision = np.full((n, h), v)
    decisions = decide(cfg, trace.rows, seq)
    for l, dec in enumerate(decisions or ()):
        if not dec.exempt:
            kept_vision[l] = dec.per_head_retained.shape[1]
    return report_from_counts(kept_vision + (s - v), kept_vision, s, v, decisions)


def json_report(report) -> str:
    """The report JSON as ``json.dumps`` writes it: sorted keys, indent 2."""
    payload = {
        "retention_rate": report.retention_rate,
        "kv_fraction": report.kv_fraction,
        "decode_latency_ms": report.decode_latency_ms,
        "per_layer": report.per_layer,
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def dict_writer_csv(report) -> bytes:
    """The report CSV as ``csv.DictWriter`` writes it, None as an empty cell."""
    f = io.StringIO(newline="")
    writer = csv.DictWriter(f, fieldnames=CSV_COLUMNS)
    writer.writeheader()
    for row in report.per_layer:
        writer.writerow({k: ("" if row[k] is None else row[k]) for k in CSV_COLUMNS})
    return f.getvalue().encode()


def _rms(x):
    return x / np.sqrt(np.mean(x * x, axis=-1, keepdims=True) + 1e-6)


def cache_free_decode_logits(weights, config, seq, decode_tokens,
                             retained_positions) -> np.ndarray:
    """Full-attention recomputation of every decode step, no KV cache.

    ``retained_positions[l][h]`` holds the prefill positions head (l, h)
    kept after pruning. Prompt positions attend causally over the full
    prompt (pruning happens after prefill); decode position S+t attends to
    that head's retained prefill rows plus decode rows S..S+t. Returns the
    logits row for every decode input token.
    """
    s = seq.total_length
    t_steps = len(decode_tokens)
    total = s + t_steps
    ids = np.concatenate([seq.token_ids, np.asarray(decode_tokens, dtype=np.int64)])
    x = weights.token_embedding[ids] + weights.position_embedding[:total]
    n, h = config.num_layers, config.num_heads
    scale = 1.0 / np.sqrt(config.head_dim)

    for l in range(n):
        h_in = _rms(x)
        outs = []
        for head in range(h):
            q = h_in @ weights.w_qkv[0, l, head]
            k = h_in @ weights.w_qkv[1, l, head]
            v = h_in @ weights.w_qkv[2, l, head]
            allowed = np.zeros((total, total), dtype=bool)
            for i in range(s):
                allowed[i, : i + 1] = True
            for t in range(t_steps):
                i = s + t
                allowed[i, retained_positions[l][head]] = True
                allowed[i, s : i + 1] = True
            scores = np.where(allowed, (q @ k.T) * scale, -np.inf)
            exp = np.exp(scores - scores.max(axis=1, keepdims=True))
            attn = np.where(allowed, exp, 0.0)
            attn = attn / attn.sum(axis=1, keepdims=True)
            outs.append(attn @ v)
        x = x + np.concatenate(outs, axis=1) @ weights.w_o[l]
        x = x + np.maximum(_rms(x) @ weights.w_up[l], 0.0) @ weights.w_down[l]

    return (_rms(x) @ weights.unembedding)[s:]


def full_matrix_prefill(weights, config, seq, decisions=None):
    """Prefill with each head's full S x S causal attention map.

    Returns ``(state, last_rows[N, H, S], hidden[S, D])``, ``hidden`` being
    every row's output of the final layer. Same kernels (``matmul``,
    ``masked_row_softmax``) and summation order as ``plphp.prefill``, so its
    outputs must match the row-blocked prefill bit for bit, and the last row
    of ``hidden`` the row its forward pass returns. With ``decisions`` (one
    per layer), layer l's cache is cut by ``prune_layer`` before layer l + 1
    runs, so matching ``prune`` after the whole pass shows that no layer
    reads another layer's cache.
    """
    s = seq.total_length
    x = weights.token_embedding[seq.token_ids] + weights.position_embedding[:s]
    n, h = config.num_layers, config.num_heads
    scale = 1.0 / np.sqrt(config.head_dim)
    caches = []
    last_rows = np.empty((n, h, s))
    for l in range(n):
        h_in = _rms(x)
        heads, outs = [], []
        for head in range(h):
            q = matmul(h_in, weights.w_qkv[0, l, head])
            k = matmul(h_in, weights.w_qkv[1, l, head])
            v = matmul(h_in, weights.w_qkv[2, l, head])
            attn = masked_row_softmax(matmul(q, k.T) * scale)
            outs.append(matmul(attn, v))
            last_rows[l, head] = attn[-1]
            heads.append((k, v, np.arange(s)))
        layer_cache = layer_from_heads(heads)
        x = x + matmul(np.concatenate(outs, axis=1), weights.w_o[l])
        x = x + matmul(np.maximum(matmul(_rms(x), weights.w_up[l]), 0.0), weights.w_down[l])
        if decisions is not None:
            layer_cache = prune_layer(layer_cache, seq, decisions[l])
        caches.append(layer_cache)
    return DecoderState(caches=caches, next_position=s), last_rows, x


def reference_decode_step(weights, config, state, token_id):
    """Decode step with its own layer loop and non-causal softmax over each cache.

    The per-head decode loop ``plphp.decode_step`` ran before its heads were
    batched (``matmul`` and the plain row softmax per head); the batched pass
    must match it bit for bit. Mutates ``state``:
    each layer's cache is replaced by a new one, stacked from each head's
    concatenated rows, so the store's append path is not used here.
    """
    pos = state.next_position
    if pos >= config.max_positions:
        raise ValueError(f"position {pos} exceeds max_positions {config.max_positions}")
    x = (weights.token_embedding[token_id] + weights.position_embedding[pos]).reshape(1, -1)
    inv_sqrt_dk = 1.0 / np.sqrt(config.head_dim)

    for l in range(config.num_layers):
        h_in = _rms(x)
        head_outs: list[np.ndarray] = []
        heads = []
        for h in range(config.num_heads):
            cache = state.caches[l][h]
            q = matmul(h_in, weights.w_qkv[0, l, h])
            k_new = matmul(h_in, weights.w_qkv[1, l, h])
            v_new = matmul(h_in, weights.w_qkv[2, l, h])
            keys = np.concatenate([cache.keys, k_new])
            values = np.concatenate([cache.values, v_new])
            positions = np.concatenate([cache.positions, [pos]])
            heads.append((keys, values, positions))
            scores = matmul(q, keys.T) * inv_sqrt_dk
            attn = row_softmax(scores)
            head_outs.append(matmul(attn, values))
        state.caches[l] = layer_from_heads(heads)
        x = x + matmul(np.concatenate(head_outs, axis=1), weights.w_o[l])
        m_in = _rms(x)
        x = x + matmul(np.maximum(matmul(m_in, weights.w_up[l]), 0.0), weights.w_down[l])

    logits = matmul(_rms(x), weights.unembedding)[0]
    state.next_position = pos + 1
    return logits, state
