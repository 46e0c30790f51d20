"""Minimal dense numeric kernel.

All public operations work on float64 numpy arrays and are deterministic:
``matmul`` accumulates over the inner dimension in a fixed sequential order,
so results are bit-reproducible across runs and match a naive triple-loop
product exactly. Two bodies hold the arithmetic. ``_head_matmul`` is the
row-major contraction: one ``np.einsum`` with ``optimize=False`` whose
innermost loop runs along an output axis and never along the summed one,
or, for a 1-column output, which has no such axis, one in-order
``np.add.accumulate``. ``_normalise_rows`` is the row softmax. ``matmul``
and ``masked_row_softmax`` are their checked entries: ``matmul`` adds one
column-major layout of its own (prefill's value mix), and
``masked_row_softmax`` the causal mask. A decode step calls both bodies
directly, for every head of a layer at once, on the shapes it builds, so
it runs their arithmetic without their per-call checks, and row h keeps
the bits of head h's 1-row ``matmul`` and ``masked_row_softmax``.

The seeded generator is numpy's PCG64 (a documented 64-bit PRNG), so the
values it draws are the same on every platform. ``matmul`` and ``argtopk``
keep their bits on every CPU too, but numpy picks ``np.exp``'s kernel at run
time from the CPU's features, so a ``masked_row_softmax`` result may move by
1 ULP on another CPU (``tests/test_cpu_dispatch.py``).
"""

from __future__ import annotations

import numpy as np

__all__ = ["matmul", "masked_row_softmax", "argtopk", "make_rng"]


def make_rng(seed: int) -> np.random.Generator:
    """Deterministic generator (PCG64) for the given seed."""
    return np.random.Generator(np.random.PCG64(seed))


def matmul(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Matrix product with a mandated summation order.

    Every output element is ``((0.0 + a[i,0]*b[0,j]) + a[i,1]*b[1,j]) + ...``,
    added left to right, which is bitwise identical to a naive triple loop.
    BLAS-backed ``a @ b`` reorders the sum and is deliberately not used.

    The product of (m x K) by (K x n) is one ``np.einsum`` with
    ``optimize=False`` (``optimize=True`` may hand it to BLAS). einsum zeroes
    its output and then, for each k in turn, adds the products into it: the
    loop's ``0.0 + p0 + p1 + ...``, each a multiply and a separate add, with
    no product buffer. That holds while numpy's innermost loop runs along an
    output axis; along k it would sum with unrolled accumulators of its own.
    numpy orders the loops by the operands' strides, so the innermost axis is
    the output axis along which an operand is unit-stride:

    * j, ``_head_matmul``'s ``"...k,...kn->...n"``, over b with unit-stride
      rows that follow one another forward without overlap (b is copied if
      not, see ``_unit_rows``): the usual layout, and every one with n >= 2
      but the next.
    * i, ``"ki,kj->ji"`` over a column-major a, when m > n > 1: a's columns
      are the longer inner loop. The n x m result is copied out transposed.
    * none, for ``n == 1``: each row's K products, added left to right by
      ``_head_matmul``'s ``_in_order_sum``.

    einsum may run an axis backwards when every operand steps backwards
    along it; k runs forward because b's rows, or a's columns, step forward.
    ``K == 0`` gives zeros, and an empty output (``m == 0`` or ``n == 0``)
    is returned at once.

    The bits rest on three facts about numpy's einsum. It zeroes its output
    first, so a -0.0 first product ends +0.0, as in the loop. It multiplies
    and adds separately: its kernels are built for numpy's baseline CPU
    features (on x86-64, X86_V2, which has no FMA) and are not dispatched at
    run time, so no fused multiply-add rounds a product away. With
    ``optimize=False`` it never calls BLAS. ``tests/test_tensor_core.py``
    fails if this numpy's einsum fuses (``(0.0 - p) + x*x`` is 0.0 unfused
    and 2^-60 fused, for ``p = x*x`` rounded), and
    ``tests/test_cpu_dispatch.py`` checks ``matmul``'s bits at every CPU
    dispatch level.

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
    (m, inner), (rows, n) = a.shape, b.shape
    if inner != rows:
        raise ValueError(f"shape mismatch: {a.shape} x {b.shape}")
    if out is None:
        out = np.empty((m, n))
    elif out.shape != (m, n) or out.dtype != np.float64 or not out.flags.c_contiguous:
        raise ValueError(f"out must be a C-contiguous float64 array of shape {(m, n)}, "
                         f"got {out.dtype} {out.shape}")
    if inner == 0 or m * n == 0:
        out.fill(0.0)
        return out
    if m > n > 1 and a.flags.f_contiguous:
        out_t = np.einsum("ki,kj->ji", a.T, b, out=np.empty((n, m)), optimize=False)
        out[...] = out_t.T
        return out
    return _head_matmul(a, _unit_rows(b), out)


def _in_order_sum(products: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Each row (last axis) of (..., K) ``products`` added left to right, (...,
    1) (into ``out`` if given): accumulate's last sums ``+ 0.0``, the loop's
    ``0.0 + p0 + p1 + ...`` (a running sum is -0.0 only while every product
    so far is)."""
    sums = np.add.accumulate(products, axis=-1)
    return np.add(sums[..., -1:], 0.0, out=out)


def _unit_rows(x: np.ndarray) -> np.ndarray:
    """``x``, or a C-ordered copy of it unless its rows (last axis) are
    unit-stride and follow one another forward without overlap.

    einsum's innermost loop then runs along the rows and its loop over them
    (k) runs forward. A transposed view would put k innermost; rows that
    overlap (a broadcast, stride 0) leave the loop order to the other
    operands, which put k innermost too; rows that step backwards (a
    negative stride) run k backwards when the other operand's k does.
    A C-contiguous ``x``, the usual operand, passes on its flag alone: its
    rows are unit-stride and follow one another, except along an axis of
    length 1, where the order of one row or one product cannot show.
    """
    if x.flags.c_contiguous:
        return x
    if x.strides[-1] != x.itemsize or x.strides[-2] < x.itemsize * x.shape[-1]:
        return np.ascontiguousarray(x)
    return x


def masked_row_softmax(scores: np.ndarray, width: int | None = None) -> np.ndarray:
    """Row-wise softmax under the causal (lower-triangular) mask, normalised in
    place and returned.

    Each row is normalized over its unmasked prefix using max-subtraction;
    masked entries are set to -inf, which exp makes exactly 0 (a row whose
    max is -inf or NaN comes out NaN throughout, NaN payloads as in
    ``matmul``). Row ``i`` may attend to columns ``0..i`` only, so row 0 is
    always ``[1, 0, ...]``.

    The map may be normalised one row block at a time: an m x n ``scores``
    then holds rows ``n - m .. n - 1`` of a ``width`` x ``width`` score
    matrix, cut after column n (every later column is masked in these rows),
    so ``m <= n <= width``. The result is bitwise equal to those rows and
    columns of the full matrix's softmax: ``width`` only picks the row sum's
    tree. Each row sum equals ``np.add.reduce`` over the row zero-padded to
    ``width`` columns, which ``_padded_row_sum`` computes without the padding.

    ``scores`` must be a C-contiguous float64 array: C order keeps each row
    sum a pairwise sum along the row. Any other layout raises ``ValueError``.
    """
    if scores.ndim != 2 or scores.dtype != np.float64 or not scores.flags.c_contiguous:
        raise ValueError(f"expected a C-contiguous float64 m x n array, "
                         f"got {scores.dtype} {scores.shape}")
    m, n = scores.shape
    width = n if width is None else width
    if not m <= n <= width:
        raise ValueError(f"an m x n block of a width-{width} causal map needs "
                         f"m <= n <= {width}, got {m} x {n}")
    if n == 0:  # a 0 x 0 block: no row to normalise, and a max over no columns raises
        return scores
    if m > 1:  # only the trailing m x m triangle of the block is masked: none of a 1-row block
        np.copyto(scores[:, n - m:], -np.inf, where=np.arange(m) > np.arange(m)[:, None])
    return _normalise_rows(scores, width)


def _head_matmul(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The row-major contraction: float64 ``a`` (..., K) times ``b`` (..., K,
    n), unchecked, for K >= 1 and n >= 1, b's rows unit-stride and following
    one another forward (``_unit_rows``). Gives ``b.shape[:-2] + (n,)``,
    C-ordered, when a's leading axes broadcast to b's, or fills and returns
    ``out``, a C-contiguous array of the broadcast shape (``matmul``'s m x n).

    Each output row is the loop's ``0.0 + p0 + p1 + ...`` over k: one
    ``np.einsum("...k,...kn->...n", ..., optimize=False)``, so numpy's
    innermost loop runs along n (a decode step's cache rows for the scores,
    D_k for the value mix and q/k/v) and each k adds its products into the
    zeroed output. A 1-column product has no such loop to run, so its
    products are added along k by ``_in_order_sum``. NaN payloads behave as
    in ``matmul``. The only temporaries are those products and the result,
    so a decode step's stay below one head's key rows.

    A decode step's q/k/v is one call: its (1, D) row, broadcast, against
    the layer's (3, H, D, D_k) slice of ``ModelWeights.w_qkv`` gives (3, H,
    D_k), each (c, h) row the bits of ``matmul(row, w[c, h])``.
    """
    if b.shape[-1] == 1:
        return _in_order_sum(np.multiply(a, b[..., 0]), out)
    if out is None:
        out = np.empty(b.shape[:-2] + b.shape[-1:])
    return np.einsum("...k,...kn->...n", a, b, out=out, optimize=False)


def _normalise_rows(x: np.ndarray, width: int) -> np.ndarray:
    """Softmax of each row of C-ordered ``x`` in place: subtract the row max,
    exp, divide by the row sum over ``width`` columns (``_padded_row_sum``).
    ``np.maximum.reduce`` and ``np.add.reduce`` are ``np.max``'s and
    ``np.sum``'s bits without their Python wrappers."""
    x -= np.maximum.reduce(x, axis=1, keepdims=True)
    np.exp(x, out=x)
    x /= _padded_row_sum(x, width)
    return x


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
    if n == width:  # every decode row: one reduce of the row alone
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
