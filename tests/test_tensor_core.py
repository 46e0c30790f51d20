import itertools
import tracemalloc
from collections import Counter
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

NAN_A = DIRTY_NAN
NAN_B = np.uint64(0xFFF80000000ABCDE).view(np.float64)
# product-buffer sizes: tiny ones put chunk boundaries inside small K
BUFFER_FLOATS = st.sampled_from([1, 2, 3, 5, 16, 64, 200, tensor_core.MATMUL_BUFFER_FLOATS])
# m and n: 1, small, and large enough that m * n crosses MATMUL_LOOP_MIN_OUTPUT
DIM = st.one_of(st.just(1), st.integers(1, 24), st.integers(300, 400))
# values mixed into the normal operands, per test mode
SPECIALS = {"finite": [0.0, -0.0], "inf": [0.0, -0.0, np.inf, -np.inf],
            "nan_a": [0.0, -0.0, NAN_A], "nan_b": [0.0, -0.0, NAN_B],
            "nan_two": [0.0, -0.0, np.inf, -np.inf, NAN_A, NAN_B]}


def _operand(rng, shape, mode):
    x = rng.standard_normal(shape)
    pick = rng.random(shape) < 0.3
    x[pick] = rng.choice(SPECIALS[mode], size=int(pick.sum()))
    return x


class TestMatmul:
    def test_identity(self, rng):
        m = rng.random((3, 3))
        assert same_bits(matmul(np.eye(3), m), m)

    def test_scalar(self):
        assert matmul(np.array([[2.0]]), np.array([[3.0]]))[0, 0] == 6.0

    def test_bitwise_equals_triple_loop(self, rng):
        a = rng.standard_normal((7, 5))
        b = rng.standard_normal((5, 4))
        assert same_bits(matmul(a, b), naive_matmul(a, b))

    def test_bitwise_many_shapes(self, rng):
        for _ in range(50):
            m, k, n = rng.integers(1, 9, size=3)
            a = rng.standard_normal((m, k))
            b = rng.standard_normal((k, n))
            assert same_bits(matmul(a, b), naive_matmul(a, b))

    @pytest.mark.parametrize("inner", [1, 2, 7, 64, 1000, 5000])
    def test_single_row_bitwise(self, rng, inner):
        # one query row against a long cache: the decode-step shape
        a = rng.standard_normal((1, inner))
        b = rng.standard_normal((inner, 3))
        assert same_bits(matmul(a, b), naive_matmul(a, b))

    def test_single_row_empty_inner(self):
        assert same_bits(matmul(np.zeros((1, 0)), np.zeros((0, 3))), np.zeros((1, 3)))

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

    @settings(max_examples=300, deadline=None)
    @given(m=st.one_of(st.just(0), DIM), inner=st.one_of(st.just(0), st.integers(1, 70)),
           n=st.one_of(st.just(0), DIM), mode=st.sampled_from(sorted(SPECIALS)),
           buffer_floats=BUFFER_FLOATS, seed=st.integers(0, 2**32 - 1))
    @example(m=3, inner=5, n=0, mode="finite", buffer_floats=64, seed=0)
    @example(m=1, inner=4096, n=1, mode="nan_two", buffer_floats=64, seed=0)
    def test_shape_rule_bitwise_equals_loop(self, m, inner, n, mode, buffer_floats, seed):
        # every path, empty outputs, m = 1, n = 1, one output element and
        # chunk boundaries inside K. One NaN payload must come through bit
        # for bit; where two different NaNs meet (nan_two: two payloads and
        # inf * 0), numpy defines no payload
        rng = make_rng(seed)
        a, b = _operand(rng, (m, inner), mode), _operand(rng, (inner, n), mode)
        with patch.object(tensor_core, "MATMUL_BUFFER_FLOATS", buffer_floats), \
                np.errstate(invalid="ignore"):
            got, want = matmul(a, b), loop_matmul(a, b)
        view = canonical_nan_bits if mode == "nan_two" else bits
        assert got.shape == want.shape and np.array_equal(view(got), view(want))

    @pytest.mark.parametrize("inner", [1, 2, 5])
    def test_loop_first_step_special_products(self, inner):
        # the k-loop writes the first product into an output that was never
        # zeroed and adds +0.0, and the chunked reduce starts from
        # initial=0.0: a -0.0 first product must end +0.0, and NaN and +-inf
        # must come through as the loop's 0.0 + p0 leaves them
        rng = make_rng(inner)
        firsts_a = [-0.0, 2.0, np.inf, NAN_A]
        firsts_b = [1.0, -1.0, 0.0, -0.0, np.inf, -np.inf, NAN_A]
        # both k-loop shapes: every pair in one long-row output, and one pair
        # per single-element output
        cases = [(np.resize(firsts_a, 4), np.resize(firsts_b, 600))]
        cases += [(np.array([x]), np.array([y])) for x in firsts_a for y in firsts_b]
        # both chunked layouts, (300, K) x (K, 7) and (4, K) x (K, 300); with a
        # 1-float buffer every k is its own chunk
        cases += [(np.resize(firsts_a, 300), np.resize(firsts_b, 7)),
                  (np.resize(firsts_a, 4), np.resize(firsts_b, 300))]
        for (a0, b0), buffer_floats in itertools.product(
                cases, [tensor_core.MATMUL_BUFFER_FLOATS, 1]):
            a = rng.standard_normal((len(a0), inner))
            b = rng.standard_normal((inner, len(b0)))
            a[:, 0], b[0] = a0, b0
            with patch.object(tensor_core, "np", DirtyNumpy()), \
                    patch.object(tensor_core, "MATMUL_BUFFER_FLOATS", buffer_floats), \
                    np.errstate(invalid="ignore"):
                got = matmul(a, b)
            with np.errstate(invalid="ignore"):
                want, first = loop_matmul(a, b), a0[:, None] * b0[None, :]
            assert same_bits(got, want)
            if inner == 1:  # the first step alone
                assert same_bits(got, first + 0.0)

    @settings(max_examples=100, deadline=None)
    @given(m=DIM, inner=st.integers(1, 8), n=DIM,
           mode=st.sampled_from(["finite", "inf", "nan_a"]), seed=st.integers(0, 2**32 - 1))
    def test_transposed_view_equals_contiguous_copy(self, m, inner, n, mode, seed):
        # prefill scores read a contiguous copy of keys.T: same values, same bits
        rng = make_rng(seed)
        a, keys = _operand(rng, (m, inner), mode), _operand(rng, (n, inner), mode)
        with np.errstate(invalid="ignore"):
            strided = matmul(a, keys.T)
            contiguous = matmul(a, np.ascontiguousarray(keys.T))
            want = loop_matmul(a, keys.T)
        assert same_bits(strided, contiguous) and same_bits(contiguous, want)

    @pytest.mark.parametrize("m,inner,n", [(1, 5000, 1), (1, 5000, 4), (2, 5000, 1),
                                           (1, 8, 64), (1, 4, 2047), (1, 4, 2048),
                                           (300, 70, 4), (4, 70, 300), (2048, 8, 8)])
    def test_decode_and_prefill_shapes_bitwise(self, rng, m, inner, n):
        a = rng.standard_normal((m, inner))
        b = rng.standard_normal((inner, n))
        assert same_bits(matmul(a, b), loop_matmul(a, b))

    @settings(max_examples=40, deadline=None)
    @given(s=st.integers(2, 300), seed=st.integers(0, 2**32 - 1), data=st.data(),
           buffer_floats=BUFFER_FLOATS)
    def test_causal_value_mix_block_bitwise(self, s, seed, data, buffer_floats):
        # the prefill value mix: a causal softmax block (zero upper triangle) times V
        rng = make_rng(seed)
        i0 = data.draw(st.integers(0, s - 1))
        i1 = data.draw(st.integers(i0 + 1, s))
        attn = masked_row_softmax(rng.standard_normal((i1 - i0, i1)), width=s)
        v = rng.standard_normal((i1, 4))
        with patch.object(tensor_core, "MATMUL_BUFFER_FLOATS", buffer_floats):
            assert same_bits(matmul(attn, v), loop_matmul(attn, v))

    @settings(max_examples=150, deadline=None)
    @given(inner=st.integers(1, 300), n=st.integers(2, 100), transposed=st.booleans(),
           mode=st.sampled_from(sorted(SPECIALS)), seed=st.integers(0, 2**32 - 1))
    def test_single_row_path_bitwise(self, inner, n, transposed, mode, seed):
        # one reduce over a C-ordered K x n buffer, also when b is a transposed
        # (F-ordered) view: the decode step's q @ keys^T and attn @ values
        rng = make_rng(seed)
        a = _operand(rng, (1, inner), mode)
        b = _operand(rng, (n, inner), mode).T if transposed else _operand(rng, (inner, n), mode)
        with np.errstate(invalid="ignore"):
            got, want = matmul(a, b), loop_matmul(a, b)
        view = canonical_nan_bits if mode == "nan_two" else bits
        assert got.shape == want.shape and np.array_equal(view(got), view(want))

    @pytest.mark.parametrize("n", [2, 4, 8])
    @pytest.mark.parametrize("extra", [0, 1])
    def test_single_row_path_buffer_limit(self, rng, n, extra):
        # K * n at MATMUL_BUFFER_FLOATS takes the single-row path, one more
        # inner step does not: both must keep the loop's bits
        inner = tensor_core.MATMUL_BUFFER_FLOATS // n + extra
        a = rng.standard_normal((1, inner)) * 10.0 ** rng.integers(-8, 9, (1, inner))
        b = rng.standard_normal((inner, n))
        assert (inner * n <= tensor_core.MATMUL_BUFFER_FLOATS) == (extra == 0)
        assert same_bits(matmul(a, b), loop_matmul(a, b))
        assert same_bits(matmul(a, np.asfortranarray(b)), loop_matmul(a, b))

    @pytest.mark.parametrize("inner", [1, 2, 5])
    def test_single_row_path_special_first_products(self, inner):
        # the reduce starts at initial=0.0: a -0.0 first product ends +0.0,
        # and +-inf and NaN come through as the loop's 0.0 + p0 leaves them
        rng = make_rng(inner)
        firsts_b = np.array([1.0, -1.0, 0.0, -0.0, np.inf, -np.inf, NAN_A])
        for a0 in [-0.0, 2.0, np.inf, -np.inf, NAN_A]:
            a = rng.standard_normal((1, inner))
            b = rng.standard_normal((inner, len(firsts_b)))
            a[0, 0], b[0] = a0, firsts_b
            with patch.object(tensor_core, "np", DirtyNumpy()), np.errstate(invalid="ignore"):
                got = matmul(a, b)
            with np.errstate(invalid="ignore"):
                want = loop_matmul(a, b)
            assert same_bits(got, want)
            if inner == 1:
                with np.errstate(invalid="ignore"):
                    assert same_bits(got, a0 * firsts_b[None, :] + 0.0)

    def test_chunked_temporaries_bounded(self, rng):
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
           buffer_floats=st.sampled_from([1, 100, 1000, 5000, tensor_core.MATMUL_BUFFER_FLOATS]),
           out=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_loop_row_chunks_bitwise(self, data, inner, mode, buffer_floats, out, seed):
        # k-loop shapes (m <= n, m * n >= MATMUL_LOOP_MIN_OUTPUT) in chunks of
        # buffer_floats // n rows: one row per chunk when n exceeds the
        # buffer, a ragged last chunk when the rows do not divide m, all in
        # memory that np.empty returns dirty
        m = data.draw(st.integers(1, 40), label="m")
        n = data.draw(st.integers(max(m, -(-tensor_core.MATMUL_LOOP_MIN_OUTPUT // m)), 6000),
                      label="n")
        rng = make_rng(seed)
        a, b = _operand(rng, (m, inner), mode), _operand(rng, (inner, n), mode)
        buf = np.full((m, n), NAN_A) if out else None
        with patch.object(tensor_core, "MATMUL_BUFFER_FLOATS", buffer_floats), \
                patch.object(tensor_core, "np", DirtyNumpy()), np.errstate(invalid="ignore"):
            got = matmul(a, b, out=buf)
        with np.errstate(invalid="ignore"):
            want = loop_matmul(a, b)
        view = canonical_nan_bits if mode == "nan_two" else bits
        assert got.shape == want.shape and np.array_equal(view(got), view(want))

    @pytest.mark.parametrize("m,n", [(3, tensor_core.MATMUL_BUFFER_FLOATS + 1),  # a row a chunk
                                     (13, 4096)])  # chunks of 8 rows and a ragged 5
    def test_loop_row_chunks_at_the_real_buffer(self, rng, m, n):
        # the k-loop's temporary is one chunk: below MATMUL_BUFFER_FLOATS
        # floats, or one row, where the m x n output needs more
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
        rows = max(1, tensor_core.MATMUL_BUFFER_FLOATS // n)
        assert rows * n * 8 <= peak < rows * n * 8 + 2**12 < m * n * 8

    @settings(max_examples=200, deadline=None)
    @given(m=DIM, inner=st.one_of(st.just(0), st.integers(1, 70)), n=DIM,
           mode=st.sampled_from(sorted(SPECIALS)),
           buffer_floats=BUFFER_FLOATS, seed=st.integers(0, 2**32 - 1))
    def test_out_buffer_bitwise_equals_fresh_result(self, m, inner, n, mode, buffer_floats,
                                                    seed):
        # every path (single row, k-loop, chunked either way round, K == 0)
        # writes the bits it would return into a caller's dirty buffer
        rng = make_rng(seed)
        a, b = _operand(rng, (m, inner), mode), _operand(rng, (inner, n), mode)
        buf = np.full((m, n), NAN_A)
        with patch.object(tensor_core, "MATMUL_BUFFER_FLOATS", buffer_floats), \
                np.errstate(invalid="ignore"):
            want = matmul(a, b)
            got = matmul(a, b, out=buf)
        view = canonical_nan_bits if mode == "nan_two" else bits
        assert got is buf and np.array_equal(view(buf), view(want))

    @pytest.mark.parametrize("m,inner,n", [(1, 70, 300),   # single row
                                           (64, 4, 300),   # k-loop
                                           (300, 70, 4),   # chunked, m > n
                                           (24, 8, 24)])   # chunked, m <= n
    def test_out_buffer_paths_and_shape_check(self, rng, m, inner, n):
        a = rng.standard_normal((m, inner))
        b = rng.standard_normal((inner, n))
        buf = np.full((m, n), NAN_A)
        assert matmul(a, b, out=buf) is buf and same_bits(buf, loop_matmul(a, b))
        for bad in (np.empty((m, n + 1)), np.empty((n + 1, m)), np.empty((m, n), np.float32),
                    np.empty((m, 2 * n))[:, ::2]):
            with pytest.raises(ValueError):
                matmul(a, b, out=bad)


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
        out = masked_row_softmax(scores)
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
        full = masked_row_softmax(scores)
        cuts = data.draw(st.lists(st.integers(1, s - 1), max_size=6)) if s > 1 else []
        bounds = sorted({0, s, *cuts})
        for i0, i1 in zip(bounds, bounds[1:]):
            block = masked_row_softmax(scores[i0:i1, :i1], width=s)
            assert same_bits(block, full[i0:i1, :i1])
        # a decode step's 1-row block masks nothing: it is the plain row softmax
        last = scores[-1:]
        assert same_bits(masked_row_softmax(last, width=s), row_softmax(last))

    @pytest.mark.parametrize("s,i0,i1", [(9, 0, 9), (9, 3, 7), (300, 64, 128), (300, 299, 300)])
    def test_padding_is_positive_zero_in_dirty_memory(self, s, i0, i1):
        # the row sum's zero-padded leaf is the only padding: every entry must
        # come out as if every buffer had started at +0.0
        scores = make_rng(s + i0).standard_normal((s, s))
        full = masked_row_softmax(scores)
        with patch.object(tensor_core, "np", DirtyNumpy()):
            block = masked_row_softmax(scores[i0:i1, :i1], width=s)
        assert same_bits(block, full[i0:i1, :i1])

    @settings(max_examples=60, deadline=None)
    @given(s=st.integers(1, 300), seed=st.integers(0, 2**32 - 1),
           mode=st.sampled_from(["finite", "inf", "nan_a"]), data=st.data())
    def test_block_columns_equal_full_rows_and_padding_is_zero(self, s, seed, mode, data):
        # a block returns only the columns it computed: those match the full
        # map's rows, NaN and inf rows too, in dirty memory
        scores = _operand(make_rng(seed), (s, s), mode)
        i0 = data.draw(st.integers(0, s - 1))
        i1 = data.draw(st.integers(i0 + 1, s))
        with np.errstate(invalid="ignore"):
            full = masked_row_softmax(scores)
            with patch.object(tensor_core, "np", DirtyNumpy()):
                block = masked_row_softmax(scores[i0:i1, :i1], width=s)
        # NaN payloads may differ where two NaNs meet, as in matmul
        compare = bits if mode == "finite" else canonical_nan_bits
        assert np.array_equal(compare(block), compare(full[i0:i1, :i1]))

    @settings(max_examples=80, deadline=None)
    @given(s=st.integers(1, 300), seed=st.integers(0, 2**32 - 1),
           mode=st.sampled_from(["finite", "inf", "nan_a"]), data=st.data())
    def test_out_equals_fresh_result(self, s, seed, mode, data):
        # out=scores normalises in place, and a separate dirty buffer takes
        # the same bits
        scores = _operand(make_rng(seed), (s, s), mode)
        i0 = data.draw(st.integers(0, s - 1))
        i1 = data.draw(st.integers(i0 + 1, s))
        block = scores[i0:i1, :i1]
        with np.errstate(invalid="ignore"):
            want = masked_row_softmax(block, width=s)
            in_place = block.copy()
            got = masked_row_softmax(in_place, width=s, out=in_place)
            other = masked_row_softmax(block, width=s,
                                       out=np.full(block.shape, NAN_A))
        assert got is in_place and same_bits(got, want) and same_bits(other, want)
        assert same_bits(block, scores[i0:i1, :i1])  # the input was not written
        bad_out = [np.empty((i1 - i0, i1 + 1))]
        if i1 > 1:  # strided columns: not C-contiguous
            bad_out.append(np.empty((i1 - i0, 2 * i1))[:, ::2])
        for bad in bad_out:
            with pytest.raises(ValueError):
                masked_row_softmax(block, width=s, out=bad)

    def test_row_block_arguments_checked(self, rng):
        with pytest.raises(ValueError):  # 3 rows need at least 3 score columns
            masked_row_softmax(rng.random((3, 2)), width=6)
        with pytest.raises(ValueError):  # narrower than the block
            masked_row_softmax(rng.random((2, 4)), width=3)

    def test_causal_temporaries_bounded(self, rng):
        # the result plus boolean masks: no S x S float64 temporaries
        s = 1024
        scores = rng.standard_normal((s, s))
        tracemalloc.start()
        try:
            masked_row_softmax(scores)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * s * s * 8, f"peak {peak / 2**20:.1f} MiB"


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
