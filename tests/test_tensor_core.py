"""The kernels against the brute-force references in ``helpers``, by bit pattern.

``matmul`` is held to the k-loop (``loop_matmul``): a Hypothesis property
over m, K and n in {0, 1, 2-40, 200-300}, seven memory layouts of each
operand, a dirty ``out`` and every special value; the cancellation
``1e16 + 1 + ... + 1 - 1e16`` at one row, one column and one element; a
case that fused multiply-adds round differently, whose failure says that
this numpy's einsum fuses; a recording ``np`` that checks ``optimize=False``
and unit-stride inner loops; and reversed and broadcast operands. The
bodies a decode step calls unchecked, ``_head_matmul`` and
``_normalise_rows``, are held to the per-head ``matmul`` and 1-row softmax
on the layouts a decode step builds, one column, signed zeros, +-inf and
NaN. The blocked softmax is held to the full map's rows, and its
padding-free row sum to the zero-padded reduce for widths past 9000.
``argtopk`` is held to a stable argsort.
"""

import itertools
import tracemalloc
from collections import Counter
from fractions import Fraction
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from helpers import (DIRTY_NAN, DirtyNumpy, bits, canonical_nan_bits, loop_matmul,
                     naive_matmul, naive_softmax, row_softmax, same_bits, sort_topk,
                     stable_argtopk)
from plphp import argtopk, make_rng, masked_row_softmax, matmul, model, tensor_core
from plphp.tensor_core import _head_matmul, _normalise_rows

NAN_A = DIRTY_NAN
NAN_B = np.uint64(0xFFF80000000ABCDE).view(np.float64)
# m, K and n: empty, one, short and long
DIM = st.one_of(st.just(0), st.just(1), st.integers(2, 40), st.integers(200, 300))
# values mixed into the normal operands, per test mode
SPECIALS = {"finite": [0.0, -0.0], "inf": [0.0, -0.0, np.inf, -np.inf],
            "nan_a": [0.0, -0.0, NAN_A], "nan_b": [0.0, -0.0, NAN_B],
            "nan_two": [0.0, -0.0, np.inf, -np.inf, NAN_A, NAN_B]}
# how an operand's values lie in memory (see _laid_out)
LAYOUTS = ["C", "F", "transposed", "sliced", "strided", "reversed", "broadcast"]


def _operand(rng, shape, mode):
    x = rng.standard_normal(shape)
    pick = rng.random(shape) < 0.3
    x[pick] = rng.choice(SPECIALS[mode], size=int(pick.sum()))
    return x


def _laid_out(x, layout):
    """An array equal to ``x`` whose values lie in memory as ``layout`` says.

    "C" and "F" are contiguous copies; "transposed" is a view of a C copy
    with the last two axes swapped (unit stride along the second-to-last);
    "sliced" is cut from a larger NaN-filled array, every axis starting at 1
    and ending before the larger one's end, as a cache store's slab is;
    "strided" takes every other element along every axis; "reversed" is a
    view with every axis stepping backwards. "broadcast" alone is not equal
    to ``x``: it repeats x's first row (stride 0 along the second-to-last
    axis), so a test compares against a copy of it.
    """
    if layout == "broadcast":
        return np.broadcast_to(x[..., :1, :], x.shape)
    if layout == "C":
        return np.ascontiguousarray(x)
    if layout == "F":
        return np.asfortranarray(x)
    if layout == "transposed":
        return np.ascontiguousarray(np.swapaxes(x, -1, -2)).swapaxes(-1, -2)
    if layout == "reversed":
        back = (slice(None, None, -1),) * x.ndim
        return np.ascontiguousarray(x[back])[back]
    step = 2 if layout == "strided" else 1
    big = np.full(tuple(step * d + 2 for d in x.shape), NAN_B)
    view = big[tuple(slice(1, 1 + step * d, step) for d in x.shape)]
    view[...] = x
    return view


class _RecordingNumpy:
    """numpy, except that ``einsum`` records its arguments in ``calls``."""

    def __init__(self):
        self.calls = []

    def __getattr__(self, name):
        return getattr(np, name)

    def einsum(self, *args, **kwargs):
        self.calls.append((args, kwargs))
        return np.einsum(*args, **kwargs)


class TestMatmul:
    def test_bitwise_many_shapes(self, rng):
        for _ in range(50):
            m, k, n = rng.integers(1, 9, size=3)
            a = rng.standard_normal((m, k))
            b = rng.standard_normal((k, n))
            assert same_bits(matmul(a, b), naive_matmul(a, b))

    @pytest.mark.parametrize("rows", [1, 3])
    def test_signed_zeros_and_inf(self, rng, rows):
        # a -0.0 first product must not survive into the result: the loop's
        # sum starts at +0.0, so -0.0 + -0.0 + ... ends +0.0
        specials = np.array([0.0, -0.0, np.inf, -np.inf, 1.5, -2.0])
        for _ in range(200):
            inner, cols = rng.integers(1, 6, size=2)
            a = rng.choice(specials, size=(rows, inner))
            b = rng.choice(specials, size=(inner, cols))
            with np.errstate(invalid="ignore"):  # inf * 0 and inf - inf give NaN
                assert same_bits(matmul(a, b), naive_matmul(a, b))

    def test_negative_zero_products_sum_to_positive_zero(self):
        a = np.array([[-0.0, 1.0, -1.0]])
        b = np.array([[1.0], [-0.0], [0.0]])
        assert same_bits(naive_matmul(a, b), np.zeros((1, 1)))
        assert same_bits(matmul(a, b), np.zeros((1, 1)))

    def test_shape_mismatch(self, rng):
        with pytest.raises(ValueError):
            matmul(rng.random((2, 3)), rng.random((4, 2)))

    @pytest.mark.parametrize("m,n", [(1, 15), (15, 1), (1, 1), (15, 15)])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_sums_in_order_not_pairwise(self, m, n, order):
        # 1e16 + 1 + ... + 1 - 1e16 is 0.0 in order (each +1 rounds away) and
        # not in a sum with several accumulators, which einsum takes when its
        # innermost loop runs along k: one row, one column and one element,
        # with a and b in either order
        a = np.asarray(np.ones((m, 9)), order=order)
        b = np.asarray(np.tile(np.array([1e16] + [1.0] * 7 + [-1e16])[:, None], (1, n)),
                       order=order)
        assert same_bits(matmul(a, b), np.zeros((m, n)))
        assert same_bits(loop_matmul(a, b), np.zeros((m, n)))

    def test_einsum_multiplies_and_adds_separately(self):
        # x * x rounds to p, so the loop's (0.0 - p) + x * x is 0.0, where a
        # fused multiply-add keeps the exact product and gives x * x - p = 2^-60
        x = 1.0 + 2.0**-30
        p = x * x
        assert Fraction(x) * Fraction(x) - Fraction(p) == Fraction(1, 2**60)
        a, b = np.array([[-1.0, x]] * 3), np.array([[p] * 3, [x] * 3])
        got = {"j innermost": matmul(a, b),
               "i innermost": matmul(np.asfortranarray(a), b[:, :2]),
               "heads": _head_matmul(a, np.stack([b] * 3))}
        for layout, c in got.items():
            assert same_bits(c, np.zeros(c.shape)), (
                f"{layout}: this numpy's einsum fuses its multiply and add (FMA), so "
                f"matmul cannot keep the loop's bits with it")
        assert same_bits(loop_matmul(a, b), np.zeros((3, 3)))

    def test_einsum_runs_unoptimized(self, rng):
        # optimize=True may hand a contraction to BLAS, which sums in its own order
        recording = _RecordingNumpy()
        a, b = rng.standard_normal((30, 8)), rng.standard_normal((8, 4))
        keys = rng.standard_normal((4, 8, 16))  # a decode step's keys^T store
        with patch.object(tensor_core, "np", recording):
            matmul(a, b)
            matmul(np.asfortranarray(a), b)
            _head_matmul(a[:4], keys[:, :, :3])
        assert [kwargs.get("optimize", "not given") for _, kwargs in recording.calls] == \
            [False] * 3

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_einsum_reads_unit_stride_rows(self, rng, layout):
        # whatever the operands' layout, einsum's innermost loop reads
        # unit-stride rows of b (j innermost) or columns of a (i innermost),
        # not numpy's strided kernel
        a, b = rng.standard_normal((5, 8)), rng.standard_normal((8, 30))
        recording = _RecordingNumpy()
        with patch.object(tensor_core, "np", recording):
            matmul(_laid_out(a, layout), _laid_out(b, layout))
            matmul(_laid_out(b.T, layout), _laid_out(a.T, layout))
        assert len(recording.calls) == 2
        for (spec, *operands), _ in recording.calls:
            inner = operands[0] if spec == "ki,kj->ji" else operands[-1]
            assert inner.strides[-1] == inner.itemsize, (spec, inner.strides)

    def test_reversed_operands_sum_forward(self, rng):
        # einsum runs k forward also when both operands step backwards along it
        a = rng.standard_normal((3, 50)) * 10.0 ** rng.integers(-8, 9, (3, 50))
        b = rng.standard_normal((50, 5))
        want = loop_matmul(a, b)
        assert not same_bits(loop_matmul(a[:, ::-1], b[::-1]), want)  # the order shows
        a_back, b_back = np.array(a[:, ::-1])[:, ::-1], np.array(b[::-1])[::-1]
        for x in (a, a_back, np.asfortranarray(a_back[::-1])[::-1]):
            assert same_bits(matmul(x, b_back), want) and same_bits(matmul(x, b), want)

    def test_broadcast_rows_are_copied(self, rng):
        # rows of b that overlap (one row broadcast along k) would leave the
        # loop order to a and the output, which put k innermost
        a = rng.standard_normal((3, 50)) * 10.0 ** rng.integers(-8, 9, (3, 50))
        b = np.broadcast_to(rng.standard_normal(5), (50, 5))
        want = loop_matmul(a, np.array(b))
        assert same_bits(matmul(a, b), want)

    @settings(max_examples=300, deadline=None)
    @given(m=DIM, inner=DIM, n=DIM, mode=st.sampled_from(sorted(SPECIALS)),
           layout_a=st.sampled_from(LAYOUTS), layout_b=st.sampled_from(LAYOUTS),
           out=st.booleans(), seed=st.integers(0, 2**32 - 1))
    @example(m=3, inner=5, n=0, mode="finite", layout_a="C", layout_b="C", out=False, seed=0)
    @example(m=1, inner=4096, n=1, mode="nan_two", layout_a="C", layout_b="C", out=True,
             seed=0)
    @example(m=1, inner=4, n=2, mode="finite", layout_a="C", layout_b="transposed", out=False,
             seed=0)
    @example(m=1, inner=0, n=3, mode="finite", layout_a="C", layout_b="C", out=False, seed=0)
    @example(m=300, inner=300, n=4, mode="finite", layout_a="F", layout_b="C", out=False, seed=0)
    @example(m=7, inner=5, n=1, mode="finite", layout_a="broadcast", layout_b="sliced", out=True,
             seed=0)
    @example(m=1, inner=33, n=9, mode="finite", layout_a="reversed", layout_b="broadcast",
             out=True, seed=0)
    @example(m=1, inner=5, n=1, mode="finite", layout_a="F", layout_b="broadcast", out=False,
             seed=0)
    def test_shape_rule_bitwise_equals_loop(self, m, inner, n, mode, layout_a, layout_b, out,
                                            seed):
        # both einsum layouts and the 1-column sum, empty outputs, m = 1,
        # n = 1, over operands in every memory layout, into a fresh result or
        # a caller's dirty buffer, in memory that np.empty returns dirty. One
        # NaN payload must come through bit for bit; where two different NaNs
        # meet (nan_two: two payloads and inf * 0), numpy defines no payload
        rng = make_rng(seed)
        a = _laid_out(_operand(rng, (m, inner), mode), layout_a)
        b = _laid_out(_operand(rng, (inner, n), mode), layout_b)
        buf = np.full((m, n), NAN_A) if out else None
        with patch.object(tensor_core, "np", DirtyNumpy()), np.errstate(invalid="ignore"):
            got = matmul(a, b, out=buf)
            want = loop_matmul(np.array(a), np.array(b))
        view = canonical_nan_bits if mode == "nan_two" else bits
        assert got.shape == want.shape and np.array_equal(view(got), view(want))
        assert buf is None or got is buf

    @pytest.mark.parametrize("inner", [1, 2, 5])
    def test_special_first_products(self, inner):
        # einsum adds the first product into its zeroed output and the single
        # element adds +0.0 to its first sum: a -0.0 first product must end
        # +0.0, and NaN and +-inf must come through as the loop's 0.0 + p0
        # leaves them
        rng = make_rng(inner)
        firsts_a = [-0.0, 2.0, np.inf, NAN_A]
        firsts_b = [1.0, -1.0, 0.0, -0.0, np.inf, -np.inf, NAN_A]
        # every pair in one long-row output, and one pair per single-element
        # output
        cases = [(np.resize(firsts_a, 4), np.resize(firsts_b, 600))]
        cases += [(np.array([x]), np.array([y])) for x in firsts_a for y in firsts_b]
        # m > n and m <= n, each with a in both orders: every einsum layout
        cases += [(np.resize(firsts_a, 300), np.resize(firsts_b, 7)),
                  (np.resize(firsts_a, 4), np.resize(firsts_b, 300))]
        for (a0, b0), order in itertools.product(cases, "CF"):
            a = rng.standard_normal((len(a0), inner))
            b = rng.standard_normal((inner, len(b0)))
            a[:, 0], b[0] = a0, b0
            with patch.object(tensor_core, "np", DirtyNumpy()), np.errstate(invalid="ignore"):
                got = matmul(np.asarray(a, order=order), b)
            with np.errstate(invalid="ignore"):
                want, first = loop_matmul(a, b), a0[:, None] * b0[None, :]
            assert same_bits(got, want)
            if inner == 1:  # the first step alone
                assert same_bits(got, first + 0.0)

    @pytest.mark.parametrize("m,inner,n", [(1, 5000, 1), (1, 5000, 4), (2, 5000, 1),
                                           (1, 8, 64), (1, 4, 2047), (1, 4, 2048),
                                           (300, 70, 4), (4, 70, 300), (2048, 8, 8)] +
                             # K * n products at four of numpy's iterator buffers, and one more
                             [(1, 4 * np.getbufsize() // n + extra, n)
                              for n in (2, 4, 8) for extra in (0, 1)])
    def test_decode_and_prefill_shapes_bitwise(self, rng, m, inner, n):
        a = rng.standard_normal((m, inner))
        b = rng.standard_normal((inner, n))
        assert same_bits(matmul(a, b), loop_matmul(a, b))

    def test_value_mix_takes_no_temporary(self, rng):
        # a 256 x 4096 attention block times 4096 x 4 values: no m x K temporary
        m, inner = 256, 4096
        a = rng.random((m, inner))
        b = rng.standard_normal((inner, 4))
        tracemalloc.start()
        try:
            matmul(a, b)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # below an eighth of one m x K float64 matrix
        assert peak < m * inner * 8 / 8, f"peak {peak / 2**20:.2f} MiB"

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), inner=st.integers(1, 6), mode=st.sampled_from(sorted(SPECIALS)),
           layout_a=st.sampled_from(LAYOUTS), layout_b=st.sampled_from(LAYOUTS),
           out=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_long_output_rows_bitwise(self, data, inner, mode, layout_a, layout_b, out, seed):
        # outputs with long rows (m <= n, m * n >= 2048: the prefill scores'
        # shape) over operands in every memory layout, all in memory that
        # np.empty returns dirty
        m = data.draw(st.integers(1, 40), label="m")
        n = data.draw(st.integers(max(m, -(-2048 // m)), 6000), label="n")
        rng = make_rng(seed)
        a = _laid_out(_operand(rng, (m, inner), mode), layout_a)
        b = _laid_out(_operand(rng, (inner, n), mode), layout_b)
        buf = np.full((m, n), NAN_A) if out else None
        with patch.object(tensor_core, "np", DirtyNumpy()), np.errstate(invalid="ignore"):
            got = matmul(a, b, out=buf)
        with np.errstate(invalid="ignore"):
            want = loop_matmul(np.array(a), np.array(b))
        view = canonical_nan_bits if mode == "nan_two" else bits
        assert got.shape == want.shape and np.array_equal(view(got), view(want))

    @pytest.mark.parametrize("m,n", [(3, 2**15 + 1), (13, 4096)])
    def test_long_rows_take_no_temporary(self, rng, m, n):
        # long output rows into a caller's buffer: einsum's products take no
        # temporary, so the peak stays under 4 KiB, below a 2^15-float chunk
        # of rows (or one row) and the m x n output
        a, b = rng.standard_normal((m, 4)), rng.standard_normal((4, n))
        buf = np.full((m, n), NAN_A)
        tracemalloc.start()
        try:
            with patch.object(tensor_core, "np", DirtyNumpy()):
                matmul(a, b, out=buf)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert same_bits(buf, loop_matmul(a, b))
        rows = max(1, 2**15 // n)
        assert peak < 2**12 < rows * n * 8 + 2**12 < m * n * 8

    @pytest.mark.parametrize("m,inner,n", [(1, 70, 300),   # one row: j innermost
                                           (64, 4, 300),   # m < n: j innermost
                                           (300, 70, 4),   # m > n: i innermost for F-ordered a
                                           (24, 8, 24)])   # square: j innermost
    def test_out_buffer_paths_and_shape_check(self, rng, m, inner, n):
        a = rng.standard_normal((m, inner))
        b = rng.standard_normal((inner, n))
        for a_in in (a, np.asfortranarray(a)):  # j innermost, and i innermost when m > n
            buf = np.full((m, n), NAN_A)
            assert matmul(a_in, b, out=buf) is buf and same_bits(buf, loop_matmul(a, b))
        for bad in (np.empty((m, n + 1)), np.empty((n + 1, m)), np.empty((m, n), np.float32),
                    np.empty((m, 2 * n))[:, ::2]):
            with pytest.raises(ValueError):
                matmul(a, b, out=bad)


@st.composite
def _causal_blocks(draw):
    """(s, i0, i1): rows i0 .. i1 - 1 of an s x s causal map, 1 <= s <= 300."""
    s = draw(st.integers(1, 300))
    i0 = draw(st.integers(0, s - 1))
    return s, i0, draw(st.integers(i0 + 1, s))


class TestMaskedRowSoftmax:
    def test_uniform_row(self):
        # the last row of a 4-wide map: nothing masked
        out = masked_row_softmax(np.full((1, 4), 2.5))
        assert np.allclose(out, 0.25, atol=1e-15)

    def test_causal_first_row(self, rng):
        out = masked_row_softmax(rng.standard_normal((5, 5)))
        assert out[0, 0] == 1.0
        assert np.all(out[0, 1:] == 0.0)

    def test_causal_matches_oracle(self, rng):
        scores = rng.standard_normal((6, 6))
        out = masked_row_softmax(scores.copy())
        assert np.max(np.abs(out - naive_softmax(scores, causal=True))) < 1e-12
        assert np.max(np.abs(out.sum(axis=1) - 1.0)) < 1e-12

    def test_masked_entries_exactly_zero(self, rng):
        out = masked_row_softmax(rng.standard_normal((8, 8)))
        assert np.all(out[np.triu_indices(8, k=1)] == 0.0)

    def test_large_scores_stable(self):
        out = masked_row_softmax(np.array([[1000.0, 1000.0, -1000.0]]))
        assert np.all(np.isfinite(out))
        assert abs(out.sum() - 1.0) < 1e-12

    def test_causal_requires_square(self, rng):
        with pytest.raises(ValueError):  # more rows than columns: not a causal block
            masked_row_softmax(rng.random((4, 3)))

    @settings(max_examples=80, deadline=None)
    @given(s=st.integers(1, 700), seed=st.integers(0, 2**32 - 1),
           scale=st.sampled_from([1.0, 60.0]), data=st.data())
    def test_row_blocks_equal_full_rows_bitwise(self, s, seed, scale, data):
        scores = make_rng(seed).standard_normal((s, s)) * scale
        full = masked_row_softmax(scores.copy())
        cuts = data.draw(st.lists(st.integers(1, s - 1), max_size=6)) if s > 1 else []
        bounds = sorted({0, s, *cuts})
        for i0, i1 in zip(bounds, bounds[1:]):
            block = masked_row_softmax(scores[i0:i1, :i1].copy(), width=s)
            assert same_bits(block, full[i0:i1, :i1])
        # a decode step's 1-row block masks nothing: it is the plain row softmax
        last = scores[-1:]
        assert same_bits(masked_row_softmax(last.copy(), width=s), row_softmax(last))

    @settings(max_examples=60, deadline=None)
    @given(rows=_causal_blocks(), seed=st.integers(0, 2**32 - 1),
           mode=st.sampled_from(["finite", "inf", "nan_a"]), poison=st.booleans())
    @example(rows=(9, 2, 7), seed=0, mode="finite", poison=True)
    @example(rows=(300, 64, 128), seed=0, mode="finite", poison=False)
    def test_block_columns_equal_full_rows_and_padding_is_zero(self, rows, seed, mode, poison):
        # a block returns only the columns it computed: those match the full
        # map's rows, NaN and inf rows too, in dirty memory
        s, i0, i1 = rows
        scores = _operand(make_rng(seed), (s, s), mode)
        if poison:  # the block's first row -inf wherever unmasked (its max), a NaN in its last
            scores[i0, :i0 + 1] = -np.inf
            scores[i1 - 1, 0] = np.nan
        with np.errstate(invalid="ignore"):
            full = masked_row_softmax(scores.copy())
            with patch.object(tensor_core, "np", DirtyNumpy()):
                block = masked_row_softmax(scores[i0:i1, :i1].copy(), width=s)
        # NaN payloads may differ where two NaNs meet, as in matmul
        compare = bits if mode == "finite" and not poison else canonical_nan_bits
        assert np.array_equal(compare(block), compare(full[i0:i1, :i1]))

    @settings(max_examples=80, deadline=None)
    @given(s=st.integers(1, 300), seed=st.integers(0, 2**32 - 1),
           mode=st.sampled_from(["finite", "inf", "nan_a"]), data=st.data())
    def test_in_place_equals_a_fresh_copy(self, s, seed, mode, data):
        # the scores are normalised in place and returned, with the bits a
        # fresh copy of them gets; a block that is no C-contiguous float64
        # array is refused, not copied
        scores = _operand(make_rng(seed), (s, s), mode)
        i0 = data.draw(st.integers(0, s - 1))
        i1 = data.draw(st.integers(i0 + 1, s))
        block = scores[i0:i1, :i1].copy()
        with np.errstate(invalid="ignore"):
            want = masked_row_softmax(block.copy(), width=s)
            got = masked_row_softmax(block, width=s)
        assert got is block and same_bits(got, want)
        bad_blocks = [block.astype(np.float32)]
        if i1 > 1:  # strided columns: not C-contiguous
            bad_blocks.append(np.empty((i1 - i0, 2 * i1))[:, ::2])
        for bad in bad_blocks:
            with pytest.raises(ValueError, match="C-contiguous float64"):
                masked_row_softmax(bad, width=s)

    @pytest.mark.parametrize("n,width", [(0, None), (0, 5), (4, None), (4, 9)])
    def test_empty_block_gives_empty_result(self, n, width):
        # no rows, 0 x 0 included: nothing to normalise, as matmul's empty outputs
        block = np.zeros((0, n))
        assert masked_row_softmax(block, width=width) is block

    def test_row_block_arguments_checked(self, rng):
        with pytest.raises(ValueError):  # 3 rows need at least 3 score columns
            masked_row_softmax(rng.random((3, 2)), width=6)
        with pytest.raises(ValueError):  # narrower than the block
            masked_row_softmax(rng.random((2, 4)), width=3)

    def test_causal_temporaries_bounded(self, rng):
        # in place, with boolean masks: no S x S float64 temporaries
        s = 1024
        scores = rng.standard_normal((s, s))
        tracemalloc.start()
        try:
            masked_row_softmax(scores)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * s * s * 8, f"peak {peak / 2**20:.1f} MiB"


# K and n of a head product: one, short and long (a decode step's are never 0)
HEAD_DIM = st.one_of(st.just(1), st.integers(2, 40), st.integers(200, 300))


class TestHeadMatmul:
    """``_head_matmul``, the contraction a decode step calls unchecked."""

    @settings(max_examples=300, deadline=None)
    @given(h=st.integers(1, 5), inner=HEAD_DIM, n=HEAD_DIM,
           mode=st.sampled_from(sorted(SPECIALS)), layout=st.sampled_from(["C", "sliced"]),
           shared=st.booleans(), seed=st.integers(0, 2**32 - 1))
    @example(h=2, inner=300, n=1, mode="nan_two", layout="sliced", shared=False, seed=0)
    @example(h=1, inner=9, n=1, mode="finite", layout="C", shared=False, seed=0)
    @example(h=3, inner=8, n=4, mode="finite", layout="C", shared=True, seed=0)
    def test_rows_bitwise_equal_loop(self, h, inner, n, mode, layout, shared, seed):
        # short and long K and n, and one column, in memory that np.empty
        # returns dirty, over the layouts a decode step builds: C-ordered
        # operands, keys^T and values sliced from their store
        # (kt[:, :, :n], vs[:, :n]), and one q/k/v row (shared) against
        # every head's weights. One NaN payload comes through bit for bit;
        # where two different NaNs meet (nan_two), numpy defines no payload
        rng = make_rng(seed)
        a = _operand(rng, (1 if shared else h, inner), mode)
        b = _operand(rng, (h, inner, n), mode)
        with patch.object(tensor_core, "np", DirtyNumpy()), np.errstate(invalid="ignore"):
            got = _head_matmul(a, _laid_out(b, layout))
        view = canonical_nan_bits if mode == "nan_two" else bits
        assert got.shape == (h, n)
        with np.errstate(invalid="ignore"):
            for i, row in enumerate(got):
                want = loop_matmul(a[[0 if shared else i]], b[i])
                assert np.array_equal(view(row[None]), view(want))

    # one head, one head with one column, and two heads, each over the
    # first n columns of a store with rows of `cap` floats
    @pytest.mark.parametrize("h,n,cap", [(1, 15, 64), (1, 1, 64), (2, 15, 128)])
    def test_sums_in_order_not_pairwise(self, h, n, cap):
        # 1e16 + 1 + ... + 1 - 1e16 is 0.0 in order (each +1 rounds away) and
        # not in a sum with several accumulators, which einsum takes when
        # its innermost loop runs along k
        a = np.ones((h, 9))
        store = np.full((h, 9, cap), NAN_B)
        store[:, :, :n] = np.array([1e16] + [1.0] * 7 + [-1e16])[:, None]
        assert same_bits(_head_matmul(a, store[:, :, :n]), np.zeros((h, n)))
        assert same_bits(loop_matmul(a[:1], store[0, :, :n]), np.zeros((1, n)))

    @pytest.mark.parametrize("inner,n", [(1, 3), (2, 5), (3, 1), (5, 2)])  # einsum, 1 column
    # b starts `offset` floats into its buffer: 1 puts its rows off the
    # 16-byte boundary that einsum's aligned vector loads need, 2^14 keeps
    # the buffer's own alignment
    @pytest.mark.parametrize("offset", [1, 2**14])
    def test_special_first_products(self, inner, n, offset):
        # a -0.0 first product ends +0.0 (the loop's 0.0 + p0), and +-inf and
        # NaN come through as the loop leaves them
        firsts = [(-0.0, 1.0), (-0.0, -0.0), (2.0, -0.0), (np.inf, -1.0), (NAN_A, 1.0),
                  (1.0, np.inf)]
        a = np.array([[x] + [-0.0] * (inner - 1) for x, _ in firsts])
        size = len(firsts) * inner * n
        b = np.full(offset + size, NAN_B)[offset:].reshape(len(firsts), inner, n)
        b[...] = 1.0
        b[:, 0] = np.array([y for _, y in firsts])[:, None]
        with patch.object(tensor_core, "np", DirtyNumpy()):
            got = _head_matmul(a, b)
        want = np.concatenate([loop_matmul(a[i:i + 1], b[i]) for i in range(len(firsts))])
        assert same_bits(got, want)
        assert same_bits(got[:3], np.zeros((3, n)))

    @pytest.mark.parametrize("h,inner,n", [(8, 4, 4100), (8, 4100, 4), (2, 16, 4100),
                                           (1, 3, 70000), (3, 70000, 2)])
    def test_temporaries_bounded(self, rng, h, inner, n):
        # scores and value mixes with many products: einsum takes no product
        # buffer, and the peak stays below two 2^14-float slabs and the
        # result, never H x K x n floats
        a, b = rng.standard_normal((h, inner)), rng.standard_normal((h, inner, n))
        tracemalloc.start()
        try:
            got = _head_matmul(a, b)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < (2 * 2**14 + h * n) * 8 + 2**12 < h * inner * n * 8
        assert same_bits(got[-1:], loop_matmul(a[-1:], b[-1]))


class TestHeadRowSoftmax:
    """``_normalise_rows`` at the row's own width: a decode step's softmax."""

    @settings(max_examples=150, deadline=None)
    @given(h=st.integers(1, 6), n=st.one_of(st.integers(1, 300), st.integers(8150, 8300)),
           mode=st.sampled_from(["finite", "inf", "nan_a"]), scale=st.sampled_from([1.0, 60.0]),
           seed=st.integers(0, 2**32 - 1))
    def test_rows_equal_one_row_blocks(self, h, n, mode, scale, seed):
        # every row keeps the bits of the 1-row masked_row_softmax, row sums
        # past numpy's 8192-element buffer included; NaN payloads may differ
        # where two NaNs meet, as in masked_row_softmax
        scores = _operand(make_rng(seed), (h, n), mode) * scale
        with np.errstate(invalid="ignore"):
            got = _normalise_rows(scores.copy(), n)
            want = np.concatenate([masked_row_softmax(scores[i:i + 1].copy(), width=n)
                                   for i in range(h)])
        compare = bits if mode == "finite" else canonical_nan_bits
        assert np.array_equal(compare(got), compare(want))

    def test_normalises_in_place(self, rng):
        scores = rng.standard_normal((3, 7))
        want = np.concatenate([row_softmax(row[None]) for row in scores])
        assert _normalise_rows(scores, 7) is scores and same_bits(scores, want)


def _sum_operand(draw, rows, n):
    """rows x n softmax-like values (or values of both signs), with +0.0,
    -0.0, inf and NaN mixed in."""
    x = make_rng(draw(st.integers(0, 2**32 - 1))).random((rows, n))
    x -= draw(st.sampled_from([0.0, 0.5]))
    x *= 10.0 ** draw(st.integers(-300, 300))
    specials = draw(st.lists(st.sampled_from([0.0, -0.0, np.inf, np.nan]), max_size=3))
    for value in specials:
        x[draw(st.integers(0, rows - 1)), draw(st.integers(0, n - 1))] = value
    zeros = draw(st.sampled_from([None, 0.0, -0.0]))
    if zeros is not None:  # signed zeros up to the last column, or in every column
        x[0, :-1 if draw(st.booleans()) else n] = zeros
    return x


@settings(max_examples=400, deadline=None)
@given(width=st.one_of(st.integers(1, 300), st.integers(1, 9300)), rows=st.integers(1, 8),
       data=st.data())
def test_padded_row_sum_equals_padded_reduce(width, rows, data):
    # the row sum of a softmax block equals np.add.reduce over its rows
    # zero-padded to the map's width, for computed widths n on both sides
    # of the pairwise leaf (128) and unroll (8) boundaries, n == width, and
    # widths past numpy's 8192-element buffer
    unit = data.draw(st.sampled_from([1, 8, 128, width]))
    n = unit * data.draw(st.integers(0, width // unit)) + data.draw(st.integers(-1, 1))
    n = min(max(n, 1), width)
    x = _sum_operand(data.draw, rows, n)
    padded = np.zeros((rows, width))
    padded[:, :n] = x
    with np.errstate(invalid="ignore"):
        got = tensor_core._padded_row_sum(x, width)
        want = np.add.reduce(padded, axis=1, keepdims=True)
    assert np.array_equal(canonical_nan_bits(got), canonical_nan_bits(want))


@settings(max_examples=100, deadline=None)
@given(x=hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=2, max_side=40),
                    elements=st.floats(-1e150, 1e150)))
def test_rmsnorm_equals_mean_formula_bitwise(x):
    # model._rmsnorm sums and divides as np.mean does, without its wrapper
    want = x / np.sqrt(np.mean(x * x, axis=-1, keepdims=True) + 1e-6)
    assert same_bits(model._rmsnorm(x), want)


class TestArgtopk:
    def test_basic(self):
        assert argtopk(np.array([0.1, 0.9, 0.5]), 2).tolist() == [1, 2]

    def test_k_equals_length(self, rng):
        v = rng.random(6)
        assert argtopk(v, 6).tolist() == list(range(6))

    def test_tie_lowest_index(self):
        assert argtopk(np.array([0.5, 0.5, 0.2]), 1).tolist() == [0]

    def test_k_zero(self, rng):
        assert argtopk(rng.random(4), 0).size == 0

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            argtopk(np.array([1.0, 2.0]), 3)

    def test_property_vs_sort_oracle(self):
        rng = make_rng(77)
        for _ in range(10_000):
            n = int(rng.integers(1, 20))
            # coarse values force plenty of ties
            v = np.round(rng.random(n) * 4) / 4
            k = int(rng.integers(0, n + 1))
            assert argtopk(v, k).tolist() == sort_topk(v, k)

    def test_rows_select_independently(self):
        v = np.array([[0.5, 0.5, 0.2], [0.1, 0.9, 0.9], [np.nan, 1.0, np.nan]])
        assert argtopk(v, 1).tolist() == [[0], [1], [1]]
        assert argtopk(v, 2).tolist() == [[0, 1], [1, 2], [0, 1]]
        assert argtopk(v, 0).shape == (3, 0)
        # a NaN threshold keeps none of its row at the threshold, and another
        # row's extra ties must not make up the count
        nan_row_and_ties = np.array([[np.nan, np.nan, np.nan], [1.0, 1.0, 0.0]])
        assert argtopk(nan_row_and_ties, 1).tolist() == [[0], [0]]

    def test_rejects_other_ranks(self):
        with pytest.raises(ValueError):
            argtopk(np.zeros((2, 2, 2)), 1)
        with pytest.raises(ValueError):
            argtopk(np.zeros((2, 3)), 4)


# ties, NaN, signed zeros, infinities and subnormals
TOPK_SPECIALS = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, 0.5, 1.0, 2.0]


@st.composite
def topk_cases(draw):
    """A 1-D or (H, L) array of special values or of distinct numbers, and a k in 0..L."""
    heads = draw(st.none() | st.integers(1, 5), label="heads (None: 1-D)")
    length = draw(st.integers(1, 49), label="L")
    shape = (length,) if heads is None else (heads, length)
    if draw(st.booleans(), label="special values"):
        values = draw(hnp.arrays(np.float64, shape, elements=st.sampled_from(TOPK_SPECIALS)))
    else:  # distinct in every row: the exactly-k path
        rows = [draw(hnp.arrays(np.float64, length, unique=True,
                                elements=st.floats(0.0, 1.0, exclude_min=True)))
                for _ in range(heads or 1)]
        values = np.stack(rows).reshape(shape)
    k = draw(st.sampled_from([0, length]) | st.integers(0, length), label="k")
    return values, k


def test_argtopk_equals_stable_argsort(monkeypatch):
    # differential test against the stable argsort argtopk replaced; both the
    # exactly-k path and the tie pass must be reached, and agree with it
    paths = Counter()
    tied = tensor_core._tied_topk

    def counting_tied(*args):
        paths["tie pass"] += 1
        return tied(*args)

    monkeypatch.setattr(tensor_core, "_tied_topk", counting_tied)

    @settings(max_examples=150, deadline=None)
    @given(case=topk_cases())
    def check(case):
        values, k = case
        ties = paths["tie pass"]
        got = argtopk(values, k)
        if k > 0 and paths["tie pass"] == ties:
            paths["exactly k"] += 1
        assert got.shape == values.shape[:-1] + (k,)
        rows = values.reshape(-1, values.shape[-1])
        assert [row.tolist() for row in got.reshape(len(rows), k)] == \
            [stable_argtopk(row, k).tolist() for row in rows]

    check()
    assert paths["exactly k"] > 0 and paths["tie pass"] > 0, paths


def test_make_rng_deterministic():
    assert make_rng(5).integers(0, 1000, 10).tolist() == make_rng(5).integers(0, 1000, 10).tolist()
    assert make_rng(5).integers(0, 1000, 10).tolist() != make_rng(6).integers(0, 1000, 10).tolist()
