"""Minimal dense numeric kernel.

All public operations work on float64 numpy arrays and are deterministic:
``matmul`` accumulates over the inner dimension in a fixed sequential order,
so results are bit-reproducible across runs and match a naive triple-loop
product exactly.

The seeded generator is numpy's PCG64 (a documented 64-bit PRNG), so any
synthetic experiment replays identically on every platform.
"""

from __future__ import annotations

import numpy as np

__all__ = ["matmul", "masked_row_softmax", "argtopk", "make_rng"]


def make_rng(seed: int) -> np.random.Generator:
    """Deterministic generator (PCG64) for the given seed."""
    return np.random.Generator(np.random.PCG64(seed))


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product with a mandated summation order.

    The result is accumulated one inner-dimension slice at a time
    (``c += a[:, k] * b[k, :]`` for k = 0, 1, ...), which is bitwise
    identical to a naive triple loop. BLAS-backed ``a @ b`` reorders the
    sum and is deliberately not used.

    A single-row ``a`` (every decode-step product) takes the same
    left-to-right sum as one ``np.add.accumulate`` over the products; the
    trailing ``+ 0.0`` turns a ``-0.0`` first product into the ``+0.0`` the
    loop's zero-initialised sum gives, so the result keeps the same bits.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError(f"matmul expects 2-D operands, got {a.ndim}-D and {b.ndim}-D")
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"shape mismatch: {a.shape} x {b.shape}")
    if a.shape[0] == 1 and a.shape[1] > 0:
        return np.add.accumulate(a[0][:, None] * b, axis=0)[-1:] + 0.0
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.float64)
    tmp = np.empty_like(out)
    for k in range(a.shape[1]):
        np.multiply(a[:, k : k + 1], b[k : k + 1, :], out=tmp)
        out += tmp
    return out


def masked_row_softmax(scores: np.ndarray, causal: bool = False, first_row: int = 0,
                       width: int | None = None) -> np.ndarray:
    """Row-wise softmax with optional causal (lower-triangular) masking.

    Each row is normalized over its unmasked prefix using max-subtraction;
    masked entries come out exactly 0. Under the causal mask row ``i`` may
    attend to columns ``0..i`` only, so row 0 is always ``[1, 0, ...]``.

    A causal map may be normalised one row block at a time: ``scores`` then
    holds rows ``first_row .. first_row + m - 1`` of a ``width`` x ``width``
    score matrix, cut after column ``first_row + m`` (every later column is
    masked in these rows). The result is zero-padded back to ``width``
    columns, and each of its rows is bitwise equal to that row of the full
    matrix's softmax: the row sum runs over the same zero-padded row, so
    numpy's pairwise summation keeps its tree.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 2:
        raise ValueError(f"expected a 2-D score matrix, got {scores.ndim}-D")
    m, n = scores.shape
    width = n if width is None else width
    if not causal and (first_row, width) != (0, n):
        raise ValueError("first_row and width apply to causal row blocks only")
    if causal and (n != first_row + m or width < n):
        raise ValueError(f"causal rows {first_row}..{first_row + m - 1} of a width-{width} "
                         f"map need {first_row + m} score columns, got {n}")
    neg = scores.copy()
    if causal:
        masked = np.arange(n) > np.arange(first_row, first_row + m)[:, None]
        np.copyto(neg, -np.inf, where=masked)
    neg -= np.max(neg, axis=1, keepdims=True)
    exp = np.exp(neg, out=neg)
    if causal:  # already 0 unless a row's max is -inf or NaN
        np.copyto(exp, 0.0, where=masked)
    if width > n:
        exp = np.concatenate([exp, np.zeros((m, width - n))], axis=1)
    exp /= np.sum(exp, axis=1, keepdims=True)
    return exp


def argtopk(values: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest values, ties broken by smaller index.

    Returned indices are sorted ascending.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1:
        raise ValueError(f"expected a 1-D sequence, got {values.ndim}-D")
    if not 0 <= k <= values.shape[0]:
        raise ValueError(f"k={k} out of range for length {values.shape[0]}")
    # stable sort on negated values keeps original order among ties,
    # which is exactly smallest-index-first
    order = np.argsort(-values, kind="stable")[:k]
    return np.sort(order)
