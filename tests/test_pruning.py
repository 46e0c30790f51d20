"""The pruning rules: the batched decisions against the per-layer oracle
``per_layer_decision`` for every class, range end and tie, the per-image
budgets, and each rule against a brute-force oracle in ``helpers``.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_segments, random_softmax_rows
from helpers import (assert_kept_sets_nest, assert_same_decisions, cut_head, image_parts,
                     layer_from_heads, loop_gamma, per_layer_decision, select_retained, set_keep,
                     sort_select, stable_argtopk)
from plphp import (IMAGE, TEXT, FastVConfig, LayerDecision, PruningConfig, Segment, VTWConfig,
                   build_sequence, decide, make_rng, pruning)
from plphp.baselines import fastv_surviving_set
from plphp.pruning import (VISION_ATTENTIVE, VISION_BALANCED, VISION_INDIFFERENT,
                           allocate_retention, classify_layer, decide_layers, prune_head_cache,
                           prune_layer, retained_count, vision_attention_score)

DEFAULT = PruningConfig()  # (r, dr, alpha, beta) = (0.4, 0.3, 0.25, 0.1)


def make_cache(s, dk=4, rng=None, heads=1):
    rng = rng or make_rng(0)
    return layer_from_heads((rng.random((s, dk)), rng.random((s, dk)),
                             np.arange(s, dtype=np.int64)) for _ in range(heads))


class TestPruningConfig:
    def test_defaults_valid(self):
        assert (DEFAULT.r, DEFAULT.delta_r, DEFAULT.alpha, DEFAULT.beta) == (0.4, 0.3, 0.25, 0.1)

    @pytest.mark.parametrize("kwargs", [
        dict(alpha=0.1, beta=0.2),          # beta > alpha
        dict(r=0.2, delta_r=0.3),           # delta_r > r
        dict(r=0.9, delta_r=0.3),           # r > 1 - delta_r
        dict(first_pruned_layer=0),
        dict(first_pruned_layer=5, last_pruned_layer=4),
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            PruningConfig(**kwargs)

    def test_pruned_range_is_never_empty(self):
        # the default last layer, N - 1, resolves per model: a first layer past
        # it is refused as the same range written out is, not pruned as nothing
        assert PruningConfig().pruned_range(4) == (3, 3)
        assert PruningConfig(first_pruned_layer=8, last_pruned_layer=8).pruned_range(8) == (8, 8)
        for cfg, depth in [(PruningConfig(first_pruned_layer=8), 8), (PruningConfig(), 3),
                           (PruningConfig(), 1)]:
            with pytest.raises(ValueError, match="lies past the last"):
                cfg.pruned_range(depth)
        with pytest.raises(ValueError, match="exceeds model depth"):
            PruningConfig(last_pruned_layer=9).pruned_range(8)


class TestVisionAttentionScore:
    def test_uniform_rows(self):
        rows = np.full((3, 10), 0.1)
        assert vision_attention_score(rows[None], np.arange(4))[0] == \
            pytest.approx(0.4, abs=1e-15)

    def test_empty_vision(self):
        assert vision_attention_score(np.full((1, 2, 6), 1 / 6), np.empty(0, dtype=int))[0] == 0.0

    def test_matches_double_loop_oracle(self, rng):
        rows = random_softmax_rows(rng, 4, 16)
        vision = np.array([2, 3, 4, 9, 10])
        got = vision_attention_score(rows[None], vision)[0]
        assert abs(got - loop_gamma(rows, vision)) < 1e-12
        assert 0.0 <= got <= 1.0

    def test_out_of_range_index(self, rng):
        with pytest.raises(ValueError):
            vision_attention_score(random_softmax_rows(rng, 2, 5)[None], np.array([7]))


class TestClassifyAndAllocate:
    def test_worked_examples(self):
        # the standard setting's three worked cases
        assert classify_layer(0.30, DEFAULT) == VISION_ATTENTIVE
        assert classify_layer(0.05, DEFAULT) == VISION_INDIFFERENT
        assert classify_layer(0.15, DEFAULT) == VISION_BALANCED
        assert allocate_retention(VISION_ATTENTIVE, DEFAULT) == pytest.approx(0.7)
        assert allocate_retention(VISION_INDIFFERENT, DEFAULT) == pytest.approx(0.1)
        assert allocate_retention(VISION_BALANCED, DEFAULT) == pytest.approx(0.4)

    def test_boundaries(self):
        assert classify_layer(DEFAULT.alpha, DEFAULT) == VISION_ATTENTIVE
        assert classify_layer(DEFAULT.beta, DEFAULT) == VISION_BALANCED

    def test_monotone_in_gamma(self, rng):
        order = {VISION_INDIFFERENT: 0, VISION_BALANCED: 1, VISION_ATTENTIVE: 2}
        for _ in range(100):
            beta, alpha = np.sort(rng.random(2))
            cfg = PruningConfig(alpha=float(alpha), beta=float(beta))
            gammas = np.sort(rng.random(10))
            ranks = [order[classify_layer(float(g), cfg)] for g in gammas]
            assert ranks == sorted(ranks)

    def test_retention_three_values_only(self, rng):
        for _ in range(50):
            dr = float(rng.random() * 0.5)
            r = float(dr + rng.random() * (1 - 2 * dr))
            cfg = PruningConfig(r=r, delta_r=dr, alpha=0.6, beta=0.3)
            for cls in (VISION_ATTENTIVE, VISION_BALANCED, VISION_INDIFFERENT):
                ret = allocate_retention(cls, cfg)
                assert ret in (pytest.approx(r - dr), pytest.approx(r), pytest.approx(r + dr))
                assert 0.0 <= ret <= 1.0


class TestSelectRetained:
    def test_top4_of_10(self, rng):
        row = rng.random(16)
        image = np.arange(3, 13)
        got, k = select_retained(row, image, 0.4)
        expected, k_expected = sort_select(row, image, 0.4)
        assert got.tolist() == expected and k == k_expected == 4

    def test_full_retention(self, rng):
        image = np.arange(3, 13)
        got, k = select_retained(rng.random(16), image, 1.0)
        assert got.tolist() == image.tolist() and k == 10

    def test_minimum_one_token(self, rng):
        got, k = select_retained(rng.random(8), np.arange(5), 0.1)
        assert k == 1 and got.size == 1

    def test_zero_retention_allowed(self, rng):
        got, k = select_retained(rng.random(8), np.arange(5), 0.0)
        assert k == 0 and got.size == 0

    @pytest.mark.parametrize("r, dr, layer_class, want", [
        (0.3, 0.1, VISION_INDIFFERENT, 2),  # retention 0.19999999999999998
        (0.7, 0.1, VISION_ATTENTIVE, 8),    # retention 0.7999999999999999
    ])
    def test_k_floors_the_rounded_product(self, rng, r, dr, layer_class, want):
        retention = allocate_retention(layer_class, PruningConfig(r=r, delta_r=dr))
        row, image = rng.random(12), np.arange(1, 11)
        got, k = select_retained(row, image, retention)
        assert k == got.size == sort_select(row, image, retention)[1] == want

    @pytest.mark.parametrize("retention", [0.0, 0.1, 0.4, 1.0])
    def test_head_rows_equal_per_head_calls(self, rng, retention):
        # coarse values tie within and across heads
        rows = np.round(rng.random((4, 16)) * 3) / 3
        image = np.arange(3, 13)
        got, k = select_retained(rows, image, retention)
        assert got.shape == (4, k)
        for h in range(4):
            want, k_h = select_retained(rows[h], image, retention)
            assert got[h].tolist() == want.tolist() and k_h == k

    def test_empty_image_rejected(self, rng):
        with pytest.raises(ValueError):
            select_retained(rng.random(8), np.empty(0, dtype=int), 0.4)


class TestPruneHeadCache:
    def test_keep_all_vision_is_identity(self):
        cache = make_cache(6)
        out = cut_head(cache, np.array([0, 1, 5]), np.array([2, 3, 4]))
        assert np.array_equal(out.keys, cache[0].keys)

    def test_set_filter(self):
        cache = make_cache(6)
        out = cut_head(cache, np.array([0, 1, 5]), np.array([3]))
        assert out.positions.tolist() == [0, 1, 3, 5]

    def test_alignment_preserved(self, rng):
        cache = make_cache(10, rng=make_rng(3))
        out = cut_head(cache, np.array([0, 9]), np.array([4, 7]))
        for row, pos in zip(out.keys, out.positions):
            assert np.array_equal(row, cache[0].keys[pos])

    def test_missing_position_rejected(self):
        cache = make_cache(4)
        with pytest.raises(ValueError):
            prune_head_cache(cache[0], np.array([0]), np.array([9]))

    def test_counting_oracle(self, rng):
        for _ in range(50):
            s = int(rng.integers(4, 20))
            cache = make_cache(s)
            split = rng.permutation(s)
            text = np.sort(split[: s // 3])
            vision = np.sort(split[s // 3:])
            keep_vision = np.sort(rng.choice(vision, size=int(rng.integers(0, vision.size + 1)),
                                             replace=False))
            out = cut_head(cache, text, keep_vision)
            assert out.positions.tolist() == set_keep(cache[0].positions, text, keep_vision)

    def test_heads_keeping_unequally_many_rows_raise(self):
        # a layer's heads share one store, so a decision holds its kept rows
        # as one (H, K) array: per-head sets of unequal sizes, or the heads'
        # sets run together, cannot be built
        for ragged in ([np.array([2, 3]), np.array([4])], np.array([2, 3, 4])):
            with pytest.raises(ValueError, match=r"layer 3's kept rows must be one \(H, K\)"):
                LayerDecision(layer=3, gamma=0.5, layer_class=None, per_head_retained=ragged)
        seq = build_sequence([Segment(TEXT, 2), Segment(IMAGE, 6), Segment(TEXT, 2)], seed=0)
        decision = LayerDecision(layer=3, gamma=0.5, layer_class=None,
                                 per_head_retained=np.array([[2, 3], [4, 7]]))
        pruned = prune_layer(make_cache(seq.total_length, heads=2), seq, decision)
        assert [c.positions.tolist() for c in pruned] == [[0, 1, 2, 3, 8, 9], [0, 1, 4, 7, 8, 9]]

    def test_exempt_is_derived_from_the_kept_rows(self):
        # a layer is exempt exactly when it keeps no rows: no decision can say otherwise
        assert [f.name for f in dataclasses.fields(LayerDecision)] == \
            ["layer", "gamma", "layer_class", "retention", "per_head_retained"]
        with pytest.raises(TypeError):
            LayerDecision(layer=3, gamma=0.1, layer_class=None, exempt=False)
        exempt = LayerDecision(layer=3, gamma=0.1, layer_class=None)
        kept = LayerDecision(layer=3, gamma=0.1, layer_class=None,
                             per_head_retained=np.array([[2, 3], [4, 5]]))
        assert (exempt.exempt, kept.exempt) == (True, False)
        assert kept.per_head_retained.shape[1] == 2
        for decision in (exempt, kept):
            with pytest.raises(AttributeError):
                decision.exempt = not decision.exempt

    def test_exempt_layer_is_copied_whole(self):
        # prune_layer never hands back its input, so decoding its output leaves the input alone
        seq = build_sequence([Segment(TEXT, 2), Segment(IMAGE, 6), Segment(TEXT, 2)], seed=0)
        layer = make_cache(seq.total_length, heads=2)
        out = prune_layer(layer, seq, LayerDecision(layer=1, gamma=0.5, layer_class=None))
        for a, b in zip(layer, out, strict=True):
            for x, y in ((a.keys, b.keys), (a.values, b.values), (a.positions, b.positions)):
                assert np.array_equal(x, y) and not np.shares_memory(x, y)


def test_decide_layer_per_image_budget(rng):
    seq = build_sequence([Segment(TEXT, 1), Segment(IMAGE, 5), Segment(IMAGE, 9),
                          Segment(TEXT, 1)], seed=0)
    rows = random_softmax_rows(rng, 2, seq.total_length)
    decision, = decide_layers(rows[None], seq,
                              PruningConfig(r=0.4, delta_r=0.0, alpha=1.0, beta=0.0,
                                            first_pruned_layer=1, last_pruned_layer=1))
    # each image gets its own floor(0.4 * S_j) budget, and keeps nothing outside itself
    assert decision.per_head_retained.shape == (2, 5)
    for row in decision.per_head_retained:
        assert [len(part) for part in image_parts(row, seq)] == [2, 3]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_decide_layers_equals_per_layer_oracle(data):
    """Batched decisions are the per-layer ones bit for bit, for every class,
    both ends of the pruned range, retention 0 and 1, rows whose values tie,
    and images of unequal lengths, the first of which may start at position 0."""
    n, h = data.draw(st.integers(4, 13)), data.draw(st.integers(1, 8))
    segments = []
    for i in range(data.draw(st.integers(0, 3))):
        if i > 0 or data.draw(st.booleans()):  # else the first image starts at 0
            segments.append(Segment(TEXT, data.draw(st.integers(1, 3))))
        segments.append(Segment(IMAGE, data.draw(st.integers(1, 12))))
    seq = build_sequence(segments + [Segment(TEXT, data.draw(st.integers(1, 3)))], seed=0)
    rng = make_rng(data.draw(st.integers(0, 2**32 - 1)))
    rows = rng.random((n, h, seq.total_length))
    levels = data.draw(st.sampled_from([None, 2, 4]))  # few levels: ties within a row
    if levels is not None:
        rows = np.floor(rows * levels) + 1.0
    rows /= rows.sum(axis=2, keepdims=True)

    # thresholds at two of the layers' own gammas, so one draw meets all
    # three classes and gamma == alpha and gamma == beta
    gammas = sorted(per_layer_decision(rows[l], seq, PruningConfig(), l + 1, n).gamma
                    for l in range(n))
    i = data.draw(st.integers(0, n - 1))
    beta, alpha = gammas[i], gammas[data.draw(st.integers(i, n - 1))]
    # r = dr: retention 0; r = 1 - dr with dr exact in binary: retention 1
    dr = data.draw(st.one_of(st.sampled_from([0.0, 0.25, 0.5]), st.floats(0.0, 0.5)))
    r = data.draw(st.one_of(st.just(dr), st.just(1.0 - dr), st.floats(dr, 1.0 - dr)))
    first = data.draw(st.integers(1, n))
    # the default last layer is N - 1, so a range that starts at N names its end
    last = data.draw(st.one_of(st.none(), st.integers(first, n)) if first < n else st.just(n))
    cfg = PruningConfig(r=r, delta_r=dr, alpha=alpha, beta=beta,
                        first_pruned_layer=first, last_pruned_layer=last)

    want = [per_layer_decision(rows[l], seq, cfg, l + 1, n) for l in range(n)]
    assert_same_decisions(decide_layers(rows, seq, cfg), want)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), method=st.sampled_from(["none", "plphp", "fastv", "vtw"]))
def test_every_decision_keeps_one_ascending_row_per_head(seed, method):
    """Over random layouts and all four methods: a pruned layer's kept rows are
    one (H, K) int64 array whose rows are strictly ascending and lie inside
    the images; plphp keeps ``retained_count`` rows of each image per head."""
    rng = make_rng(seed)
    seq = build_sequence(random_segments(rng), seed=0)
    # plphp's default range [3, N - 1] needs N >= 4
    n = int(rng.integers(4 if method == "plphp" else 3, 8))
    h = int(rng.integers(1, 5))
    rows = rng.random((n, h, seq.total_length))
    rows /= rows.sum(axis=2, keepdims=True)
    dr = float(rng.uniform(0.0, 0.5))
    beta = float(rng.uniform(0.0, 1.0))
    cfg = {"none": None,
           "plphp": PruningConfig(r=float(rng.uniform(dr, 1.0 - dr)), delta_r=dr,
                                  alpha=float(rng.uniform(beta, 1.0)), beta=beta),
           "fastv": FastVConfig(k_layer=int(rng.integers(1, n + 1)),
                                prune_ratio=float(rng.uniform(0.0, 1.0))),
           "vtw": VTWConfig(k_layer=int(rng.integers(1, n + 1)))}[method]
    decisions = decide(cfg, rows, seq)
    if cfg is None:
        assert decisions is None
        return
    is_image = np.zeros(seq.total_length, dtype=bool)
    for lo, hi in seq.image_spans:
        is_image[lo:hi] = True
    for d in decisions:
        assert (d.per_head_retained is None) == d.exempt
        if d.exempt:
            continue
        kept = d.per_head_retained
        assert isinstance(kept, np.ndarray) and kept.dtype == np.int64
        assert kept.ndim == 2 and kept.shape[0] == h
        assert np.all(np.diff(kept, axis=1) > 0) and is_image[kept].all()
        if method == "plphp":
            want = [retained_count(d.retention, hi - lo) for lo, hi in seq.image_spans]
            assert all([len(part) for part in image_parts(row, seq)] == want for row in kept)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_kept_sets_nest_as_r_grows(data):
    """With dr, alpha and beta fixed, each (layer, head)'s kept rows at a larger
    r hold its rows at a smaller r, over random layouts and rows that tie: a
    layer's class does not depend on r, its retention and so K grow with r,
    and a top-K keeps its ranking's first K."""
    rng = make_rng(data.draw(st.integers(0, 2**32 - 1)))
    seq = build_sequence(random_segments(rng, max_segments=5, max_len=12), seed=0)
    n, h = data.draw(st.integers(4, 9)), data.draw(st.integers(1, 4))
    rows = rng.random((n, h, seq.total_length))
    levels = data.draw(st.sampled_from([None, 2, 3]))  # few levels: ties within a row
    if levels is not None:
        rows = np.floor(rows * levels) + 1.0
    rows /= rows.sum(axis=2, keepdims=True)
    dr = data.draw(st.one_of(st.sampled_from([0.0, 0.1, 0.25]), st.floats(0.0, 0.5)))
    beta = data.draw(st.floats(0.0, 1.0))
    alpha = data.draw(st.floats(beta, 1.0))
    rs = sorted(data.draw(st.lists(st.one_of(st.just(dr), st.just(1.0 - dr),
                                             st.floats(dr, 1.0 - dr)), min_size=2, max_size=5)))
    decisions = [decide(PruningConfig(r=r, delta_r=dr, alpha=alpha, beta=beta), rows, seq)
                 for r in rs]
    for inner, outer in zip(decisions, decisions[1:]):
        assert_kept_sets_nest(inner, outer, seq)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_kept_sets_shrink_as_alpha_or_beta_rise(data):
    """With r and dr fixed, raising alpha or beta never adds a kept row to any
    (layer, head), over random layouts and rows that tie: a higher alpha can
    only move a layer from attentive to balanced and a higher beta from
    balanced to indifferent, each to a retention no larger, and a top-K
    keeps its ranking's first K."""
    rng = make_rng(data.draw(st.integers(0, 2**32 - 1)))
    seq = build_sequence(random_segments(rng, max_segments=5, max_len=12), seed=0)
    n, h = data.draw(st.integers(4, 9)), data.draw(st.integers(1, 4))
    rows = rng.random((n, h, seq.total_length))
    levels = data.draw(st.sampled_from([None, 2, 3]))  # few levels: ties within a row
    if levels is not None:
        rows = np.floor(rows * levels) + 1.0
    rows /= rows.sum(axis=2, keepdims=True)
    dr = data.draw(st.one_of(st.sampled_from([0.0, 0.1, 0.25]), st.floats(0.0, 0.5)))
    r = data.draw(st.one_of(st.just(dr), st.just(1.0 - dr), st.floats(dr, 1.0 - dr)))
    # thresholds at the layers' own gammas too, so a rise moves layers across them
    gammas = vision_attention_score(rows, seq.vision_union).tolist()
    threshold = st.one_of(st.sampled_from([0.0, 1.0, *gammas]), st.floats(0.0, 1.0))
    steps = data.draw(st.integers(2, 5))
    betas = sorted(data.draw(st.lists(threshold, min_size=steps, max_size=steps)))
    alphas = sorted(data.draw(st.lists(threshold, min_size=steps, max_size=steps)))
    # alpha_i = max(alphas_i, betas_i): both rise, and beta <= alpha at every step
    decisions = [decide(PruningConfig(r=r, delta_r=dr, alpha=max(alpha, beta), beta=beta),
                        rows, seq)
                 for alpha, beta in zip(alphas, betas)]
    for lower, higher in zip(decisions, decisions[1:]):
        assert_kept_sets_nest(higher, lower, seq)


def test_decide_layers_one_top_k_per_retention_and_image(rng, monkeypatch):
    calls = []
    real = pruning.argtopk
    monkeypatch.setattr(pruning, "argtopk",
                        lambda values, k: calls.append(np.shape(values)) or real(values, k))
    seq = build_sequence([Segment(TEXT, 2), Segment(IMAGE, 6), Segment(TEXT, 1),
                          Segment(IMAGE, 9), Segment(TEXT, 2)], seed=0)
    rows = np.stack([random_softmax_rows(rng, 3, seq.total_length) for _ in range(8)])
    # gammas around V/S = 0.75: layers fall on both sides of alpha and beta
    cfg = PruningConfig(alpha=0.76, beta=0.74)
    decisions = decide_layers(rows, seq, cfg)
    groups = {d.retention: sum(1 for e in decisions if e.retention == d.retention)
              for d in decisions if not d.exempt}
    assert len(groups) >= 2
    assert sorted(calls) == sorted((3 * size, hi - lo) for size in groups.values()
                                   for lo, hi in seq.image_spans)


def test_vision_attention_score_per_layer_bits(rng):
    # 277 vision columns: numpy's pairwise sum recurses past 128, which the
    # Hypothesis layouts above do not reach
    rows = np.stack([random_softmax_rows(rng, 5, 300) for _ in range(6)])
    vision = np.r_[3:140, 150:290]
    batched = vision_attention_score(rows, vision)
    assert batched.shape == (6,)
    assert [float.hex(g) for g in batched.tolist()] == \
        [float.hex(float(np.sum(np.mean(rows[l], axis=0)[vision]))) for l in range(6)]
    assert [float.hex(vision_attention_score(rows[l][None], vision)[0]) for l in range(6)] == \
        [float.hex(g) for g in batched.tolist()]
    # FastV ranks by the same head average: a top-K of np.mean's
    seq = build_sequence([Segment(TEXT, 3), Segment(IMAGE, 137), Segment(TEXT, 10),
                          Segment(IMAGE, 140), Segment(TEXT, 10)], seed=0, vocab_size=32)
    assert np.array_equal(seq.vision_union, vision)
    cfg = FastVConfig(prune_ratio=0.3)
    keep = vision.size - int(np.floor(cfg.prune_ratio * vision.size))
    for l in range(6):
        want = vision[stable_argtopk(np.mean(rows[l], axis=0)[vision], keep)]
        assert np.array_equal(fastv_surviving_set(rows[l], seq, cfg), want)
