"""Minimal dense numeric kernel.

All public operations work on float64 numpy arrays and are deterministic:
``matmul`` accumulates over the inner dimension in a fixed sequential order,
so results are bit-reproducible across runs and match a naive triple-loop
product exactly. It picks its path from the operand shape: one running sum
for a single output element, one product buffer and one in-order reduction
for a single row, a loop over the inner dimension when the output has long
rows, else a chunked reduction that adds the same products in the same order
(see ``matmul``). A decode step runs every head of a layer at once through
``head_matmul`` and ``head_row_softmax``, whose row h keeps the bits of the
1-row ``matmul`` and ``masked_row_softmax`` of head h.

The seeded generator is numpy's PCG64 (a documented 64-bit PRNG), so the
values it draws are the same on every platform. ``matmul`` and ``argtopk``
keep their bits on every CPU too, but numpy picks ``np.exp``'s kernel at run
time from the CPU's features, so a ``masked_row_softmax`` result may move by
1 ULP on another CPU (``tests/test_cpu_dispatch.py``).
"""

from __future__ import annotations

import numpy as np

__all__ = ["matmul", "masked_row_softmax", "head_matmul", "head_row_softmax", "argtopk",
           "make_rng"]

# matmul's paths (see its docstring). The single-row path makes two
# numpy calls in all, over a K x n product buffer of at most
# MATMUL_BUFFER_FLOATS floats (256 KiB). The k-loop makes two numpy calls per
# k and chunk of max(1, MATMUL_BUFFER_FLOATS // n) output rows, so it needs
# long output rows (m <= n) and at least MATMUL_LOOP_MIN_OUTPUT elements to
# pay for them; its product temporary is one chunk.
# The chunked path fills a product buffer of MATMUL_BUFFER_FLOATS floats per
# chunk of k: chunk = MATMUL_BUFFER_FLOATS // (m * n), at least 1.
MATMUL_LOOP_MIN_OUTPUT = 2048
MATMUL_BUFFER_FLOATS = 2**15
# head_matmul's product slab: half matmul's buffer, because numpy's
# buffered multiply of a broadcast operand adds up to a slab of its own, and
# a decode step's temporaries stay below one head's key rows
# (tests/test_model.py::TestKVStore::test_decode_steps_copy_no_cache)
HEAD_SLAB_FLOATS = MATMUL_BUFFER_FLOATS // 2


def make_rng(seed: int) -> np.random.Generator:
    """Deterministic generator (PCG64) for the given seed."""
    return np.random.Generator(np.random.PCG64(seed))


def matmul(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Matrix product with a mandated summation order.

    Every output element is ``((0.0 + a[i,0]*b[0,j]) + a[i,1]*b[1,j]) + ...``,
    added left to right, which is bitwise identical to a naive triple loop.
    BLAS-backed ``a @ b`` reorders the sum and is deliberately not used. The
    operand shape, (m x K) by (K x n), picks one of four paths that add the
    same products in the same order:

    * single element, for ``m == n == 1``: the K products in one row, then
      ``np.add.accumulate`` along it, which adds left to right by
      construction, and its last sum ``+ 0.0`` (the loop's ``0.0 + p0``: a
      running sum is -0.0 only while every product so far is).
    * single row, for ``m == 1 < n`` with ``K * n <= MATMUL_BUFFER_FLOATS``:
      all K x n products fill one freshly allocated C-ordered buffer, and
      ``np.add.reduce`` over axis 0 with ``initial=0.0`` (the loop's ``0.0 +
      p0``) adds its rows in order. C order keeps the reduced axis outer even
      when ``b`` is a transposed view, so numpy never sums it pairwise.
    * k-loop, for outputs with long rows (``m <= n`` and ``m * n >=
      MATMUL_LOOP_MIN_OUTPUT``): ``c = a[:, 0] * b[0, :] + 0.0`` (the loop's
      ``0.0 + p0``, with no zero fill), then ``c += a[:, k] * b[k, :]`` for
      k = 1, 2, ... It runs over contiguous chunks of ``max(1,
      MATMUL_BUFFER_FLOATS // n)`` output rows, one after another, so its
      product temporary holds at most MATMUL_BUFFER_FLOATS floats (or one
      row); each element still takes the same steps.
    * chunked reduce, for every other shape: the products of a chunk of k
      fill one buffer, laid out ``(chunk, n, m)`` when ``m > n`` (else
      ``(chunk, m, n)``) so the innermost axis is the long one. The running
      sum is added into slice 0 as the left operand, as in the loop, and
      ``np.add.reduce`` over axis 0 with ``initial=0.0`` adds the slices
      strictly in order: numpy sums pairwise only when the reduced axis is
      the innermost loop, which happens for a single output element, so
      that shape takes its own path.

    ``K == 0`` gives zeros, and an empty output (``m == 0`` or ``n == 0``)
    is returned at once.

    Where two different NaNs meet in one sum or product the result may carry
    either payload, in the loop as well: numpy's vector and tail lanes pick
    different operands.

    ``out``, if given, is a C-contiguous float64 m x n array that receives
    the product and is returned; it must not overlap ``a`` or ``b``. Every
    path writes all of it before reading any of it, so its old contents
    never matter.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError(f"matmul expects 2-D operands, got {a.ndim}-D and {b.ndim}-D")
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"shape mismatch: {a.shape} x {b.shape}")
    (m, inner), n = a.shape, b.shape[1]
    if out is not None and (out.shape != (m, n) or out.dtype != np.float64
                            or not out.flags.c_contiguous):
        raise ValueError(f"out must be a C-contiguous float64 array of shape {(m, n)}, "
                         f"got {out.dtype} {out.shape}")
    if inner == 0 or m * n == 0:
        if out is None:
            return np.zeros((m, n))
        out.fill(0.0)
        return out
    if m == n == 1:
        sums = np.add.accumulate(np.multiply(a, b.T), axis=1)
        return np.add(sums[:, -1:], 0.0, out=out)
    if m == 1 and inner * n <= MATMUL_BUFFER_FLOATS:
        prod = np.empty((inner, n))
        np.multiply(a.T, b, out=prod)
        return np.add.reduce(prod, axis=0, initial=0.0, keepdims=True, out=out)
    if m <= n and m * n >= MATMUL_LOOP_MIN_OUTPUT:
        if out is None:
            out = np.empty((m, n))
        rows = max(1, MATMUL_BUFFER_FLOATS // n)
        tmp = np.empty((min(m, rows), n))
        for i0 in range(0, m, rows):
            ai, ci = a[i0 : i0 + rows], out[i0 : i0 + rows]
            np.multiply(ai[:, :1], b[:1, :], out=ci)
            ci += 0.0  # the loop's 0.0 + p0: a -0.0 first product ends +0.0
            ti = tmp[: len(ci)]
            for k in range(1, inner):
                np.multiply(ai[:, k : k + 1], b[k : k + 1, :], out=ti)
                ci += ti
        return out
    wide = m > n
    chunk = min(inner, max(1, MATMUL_BUFFER_FLOATS // (m * n)))
    prod = np.empty((chunk, n, m) if wide else (chunk, m, n))
    if wide:  # summed as (n, m), copied out transposed
        acc = np.empty((n, m))
    else:
        acc = np.empty((m, n)) if out is None else out
    for k0 in range(0, inner, chunk):
        p = prod[: inner - k0]
        ak, bk = a[:, k0 : k0 + len(p)].T, b[k0 : k0 + len(p)]
        if wide:  # a's columns copied to rows: every product slice reads contiguous rows
            np.multiply(np.ascontiguousarray(ak)[:, None, :], bk[:, :, None], out=p)
        else:
            np.multiply(ak[:, :, None], bk[:, None, :], out=p)
        if k0:
            np.add(acc, p[0], out=p[0])
        # initial=0.0 is the loop's 0.0 + p0 (a -0.0 first product ends +0.0);
        # a running sum is never -0.0, so later chunks keep their bits
        np.add.reduce(p, axis=0, initial=0.0, out=acc)
    if not wide:
        return acc
    if out is None:
        out = np.empty((m, n))
    out[...] = acc.T
    return out


def masked_row_softmax(scores: np.ndarray, width: int | None = None,
                       out: np.ndarray | None = None) -> np.ndarray:
    """Row-wise softmax under the causal (lower-triangular) mask.

    Each row is normalized over its unmasked prefix using max-subtraction;
    masked entries come out exactly 0. Row ``i`` may attend to columns
    ``0..i`` only, so row 0 is always ``[1, 0, ...]``.

    The map may be normalised one row block at a time: an m x n ``scores``
    then holds rows ``n - m .. n - 1`` of a ``width`` x ``width`` score
    matrix, cut after column n (every later column is masked in these rows),
    so ``m <= n <= width``. The result has the m x n shape of ``scores`` and
    is bitwise equal to those rows and columns of the full matrix's softmax:
    ``width`` only picks the row sum's tree. Each row sum equals
    ``np.add.reduce`` over the row zero-padded to ``width`` columns, which
    ``_padded_row_sum`` computes without the padding.

    ``out``, if given, is a C-contiguous float64 m x n array that receives
    the result and is returned; ``out=scores`` normalises the scores in
    place. C order keeps each row sum a pairwise sum along the row.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 2:
        raise ValueError(f"expected a 2-D score matrix, got {scores.ndim}-D")
    m, n = scores.shape
    width = n if width is None else width
    if not m <= n <= width:
        raise ValueError(f"an m x n block of a width-{width} causal map needs "
                         f"m <= n <= {width}, got {m} x {n}")
    if out is None:
        out = scores.copy()
    elif out.shape != (m, n) or out.dtype != np.float64 or not out.flags.c_contiguous:
        raise ValueError(f"out must be a C-contiguous float64 array of shape {(m, n)}, "
                         f"got {out.dtype} {out.shape}")
    elif out is not scores:
        out[...] = scores
    # only the trailing m x m triangle of the block is masked: none of a 1-row block
    mask = m > 1
    if mask:
        tail = out[:, n - m:]
        masked = np.arange(m) > np.arange(m)[:, None]
        np.copyto(tail, -np.inf, where=masked)
    out -= out.max(axis=1, keepdims=True)
    np.exp(out, out=out)
    if mask:  # already 0 unless a row's max is -inf or NaN
        np.copyto(tail, 0.0, where=masked)
    out /= _padded_row_sum(out, width)
    return out


def head_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Each head's row times its own matrix: (H x K) by (H x K x n) gives H x n.

    Row h is bitwise ``matmul(a[h:h+1], b[h])``, the loop's ``0.0 + p0 + p1
    + ...`` over k. The products fill one C-ordered slab of at most
    HEAD_SLAB_FLOATS floats at a time, laid out so that numpy's inner loops
    run along the longer of K and n:

    * long rows (``K <= n``: a decode step's scores): a K x H x cols slab
      per chunk of columns, k outermost, and ``np.add.reduce`` over k with
      ``initial=0.0`` (the loop's ``0.0 + p0``) adds the slices in order,
      its inner loop running over every head's columns at once. It would sum
      pairwise if that inner loop ran over k, which needs H = 1 and a
      1-column slab, so slabs are at least 2 columns wide and a 1-column
      last slab starts one column early (that column is computed twice,
      to the same bits).
    * long sums (``K > n``: the value mix, and q, k and v): an H x n x chunk
      slab per chunk of k, k innermost, summed in place by
      ``np.add.accumulate`` along k, which adds left to right by
      construction, and its last sum ``+ 0.0`` (a running sum is -0.0 only
      while every product so far is, as in ``matmul``'s single-element path).
      The running sum is added into the next chunk's first products as the
      left operand, as in ``matmul``'s chunked path.

    Either path splits both axes when it must: a long-rows slab that cannot
    hold every k of two columns takes k in chunks, and a long-sums slab that
    cannot hold one k of every column takes the columns in chunks. ``K ==
    0`` gives zeros. NaN payloads behave as in ``matmul``.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 3 or b.shape[:2] != a.shape:
        raise ValueError(f"head_matmul expects (H, K) x (H, K, n) operands, "
                         f"got {a.shape} x {b.shape}")
    h, inner, n = b.shape
    if inner == 0 or h * n == 0:
        return np.zeros((h, n))
    sums = inner > n
    if sums:  # every column if one k of them fits; k innermost
        cols = min(n, max(1, HEAD_SLAB_FLOATS // h))
        at, bt = a[:, None, :], b.transpose(0, 2, 1)
    else:  # every k of as many columns as fit, at least two; k outermost
        cols = min(n, max(2, HEAD_SLAB_FLOATS // (h * inner)))
        at, bt = a.T[:, :, None], b.transpose(1, 0, 2)
    chunk = min(inner, max(1, HEAD_SLAB_FLOATS // (h * cols)))
    out = np.empty((h, n))
    if cols == n and chunk == inner:  # one slab, a decode step's usual case: no slicing
        return _head_slab(at, bt, sums, np.empty(bt.size), None, out)
    prod = np.empty(h * cols * chunk)  # each slab's products are a C-ordered prefix
    for j0 in range(0, n, cols):
        if n - j0 == 1 < cols:  # a 1-column last slab starts one column early
            j0 -= 1
        acc, cj = out[:, j0:j0 + cols], slice(j0, j0 + cols)
        for k0 in range(0, inner, chunk):
            ck = slice(k0, k0 + chunk)
            ak, bk = (at[:, :, ck], bt[:, cj, ck]) if sums else (at[ck], bt[ck, :, cj])
            _head_slab(ak, bk, sums, prod, acc if k0 else None, acc)
    return out


def _head_slab(at: np.ndarray, bt: np.ndarray, sums: bool, buf: np.ndarray,
               carry: np.ndarray | None, out: np.ndarray) -> np.ndarray:
    """One slab of ``head_matmul``: the products ``at * bt`` (laid out as ``bt``)
    fill a prefix of ``buf`` and are summed over k into ``out``, continuing
    from the running sum ``carry`` (None: the slab starts the sum)."""
    p = buf[:bt.size].reshape(bt.shape)
    np.multiply(at, bt, out=p)
    if sums:  # k is the last axis
        if carry is not None:
            np.add(carry, p[:, :, 0], out=p[:, :, 0])
        np.add.accumulate(p, axis=2, out=p)
        # + 0.0 is the loop's 0.0 + p0: its running sum is never -0.0
        return np.add(p[:, :, -1], 0.0, out=out)
    if carry is not None:  # k is the first axis
        np.add(carry, p[0], out=p[0])
    return np.add.reduce(p, axis=0, initial=0.0, out=out)


def head_row_softmax(scores: np.ndarray) -> np.ndarray:
    """Softmax of each row of H x n ``scores``, normalised in place and returned.

    A decode step's score row per head: nothing is masked, and row h keeps
    the bits of ``masked_row_softmax(scores[h:h+1])``. Its row sum is one
    ``np.add.reduce`` along each C-ordered row, numpy's pairwise sum of the
    row alone, as the 1-row block's is when its width is n.
    """
    if scores.ndim != 2 or scores.shape[1] == 0 or scores.dtype != np.float64 \
            or not scores.flags.c_contiguous:
        raise ValueError(f"expected a C-contiguous float64 H x n array with n >= 1, "
                         f"got {scores.dtype} {scores.shape}")
    scores -= scores.max(axis=1, keepdims=True)
    np.exp(scores, out=scores)
    scores /= np.add.reduce(scores, axis=1, keepdims=True)
    return scores


# numpy's pairwise summation (``np.add.reduce`` along a contiguous row):
# a row longer than _PAIRWISE_LEAF splits at half its length rounded down
# to a multiple of _PAIRWISE_UNROLL; a leaf of at most _PAIRWISE_LEAF
# values is added with _PAIRWISE_UNROLL accumulators. Private to numpy:
# tests/test_tensor_core.py checks ``_padded_row_sum`` against the padded
# reduce bit for bit, so a change there fails a test.
_PAIRWISE_LEAF = 128
_PAIRWISE_UNROLL = 8


def _padded_row_sum(x: np.ndarray, width: int) -> np.ndarray:
    """``np.add.reduce(padded, axis=1, keepdims=True)``, where ``padded`` is
    m x n ``x`` with ``width - n`` zero columns appended, without the padding.

    A subtree of padding alone sums to +0.0 and one of computed columns
    alone is one reduce of them, so only the path to column n needs work:
    each level on it reduces its computed left half, or skips a right half
    of padding, and the walk ends at a computed subtree or at a leaf of at
    most _PAIRWISE_LEAF columns, zero-padded and reduced. Each reduce starts
    from +0.0, as the padded reduce does, so it turns a -0.0 subtree sum into
    +0.0; the sign of a zero changes only the sign of a zero sum above it,
    and the padded reduce's own +0.0 start clears that too.
    """
    m, n = x.shape
    if n == width:
        return np.add.reduce(x, axis=1, keepdims=True)
    lo, length = 0, width  # the subtree over columns [lo, lo + length) straddles column n
    lefts = []  # the sums of the computed left halves on the path
    while lo + length > n and length > _PAIRWISE_LEAF:
        half = length // 2
        half -= half % _PAIRWISE_UNROLL
        if lo + half < n:
            lefts.append(np.add.reduce(x[:, lo:lo + half], axis=1, keepdims=True))
            lo, length = lo + half, length - half
        else:  # the right half is padding: the left half's sum + 0.0 is that sum
            length = half
    if lo + length <= n:
        total = np.add.reduce(x[:, lo:lo + length], axis=1, keepdims=True)
    else:
        leaf = np.zeros((m, length))
        leaf[:, :n - lo] = x[:, lo:]
        total = np.add.reduce(leaf, axis=1, keepdims=True)
    for left in reversed(lefts):
        total = left + total
    return total


def argtopk(values: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest values along the last axis of a 1-D or 2-D array.

    Each row (pruning passes one per head) keeps its k largest entries;
    ties go to the smaller index, NaN ranks below every number and +0.0 ties
    with -0.0. The result has shape ``values.shape[:-1] + (k,)``,
    each row ascending: the set a stable argsort of ``-values`` puts first.

    One ``np.partition`` finds each row's k-th largest value, its threshold.
    When exactly k entries of every row reach their threshold (distinct
    values, the usual case) they are the answer; otherwise ties past k or a
    NaN threshold take one tie pass (``_tied_topk``).
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim not in (1, 2):
        raise ValueError(f"expected a 1-D or 2-D array, got {values.ndim}-D")
    length = values.shape[-1]
    if not 0 <= k <= length:
        raise ValueError(f"k={k} out of range for length {length}")
    shape = values.shape[:-1] + (k,)
    if k == 0:
        return np.empty(shape, dtype=np.intp)
    neg = -values.reshape(-1, length)  # the k largest are neg's k smallest; NaN partitions last
    threshold = np.partition(neg, k - 1, axis=-1)[:, k - 1 : k]
    # a row reaches its threshold at least k times unless the threshold is
    # NaN, so k per row on average means exactly k in every row
    kept = np.flatnonzero(neg <= threshold)
    if kept.size != neg.shape[0] * k or np.isnan(threshold).any():
        kept = np.flatnonzero(_tied_topk(neg, threshold, k))
    return (kept.reshape(-1, k) - np.arange(0, neg.size, length)[:, None]).reshape(shape)


def _tied_topk(neg: np.ndarray, threshold: np.ndarray, k: int) -> np.ndarray:
    """``argtopk``'s keep-mask when a row has ties past k or a NaN threshold.

    Every entry strictly below its row's threshold in ``neg`` is kept, and the
    entries equal to it fill the row up to k, smallest index first. A NaN
    threshold (fewer than k numbers in the row) keeps every number and its
    first NaNs.
    """
    nan = np.isnan(neg)
    nan_threshold = np.isnan(threshold)
    above = np.where(nan_threshold, ~nan, neg < threshold)
    tie = np.where(nan_threshold, nan, neg == threshold)
    need = k - np.count_nonzero(above, axis=-1, keepdims=True)
    return above | (tie & (np.cumsum(tie, axis=-1) <= need))
