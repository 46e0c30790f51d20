import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_softmax_rows
from helpers import (FastVRule, assert_same_caches, assert_same_decisions, layer_from_heads,
                     pruned_prefill, same_bits, sort_topk, vtw_decide)
from plphp import (IMAGE, TEXT, DecoderState, FastVConfig, PruningConfig, Segment,
                   VTWConfig, build_sequence, decide, init_model, make_rng, prefill, prune)
from plphp.baselines import fastv_surviving_set, make_fastv_hook, make_vtw_hook
from plphp.model import ModelConfig
from plphp.pruning import make_hook


def mixed_seq(text_a=2, vision=6, text_b=2):
    return build_sequence([Segment(TEXT, text_a), Segment(IMAGE, vision),
                           Segment(TEXT, text_b)], seed=0, vocab_size=32)


def caches_for(seq, heads=2):
    rng = make_rng(1)
    s = seq.total_length
    return layer_from_heads((rng.random((s, 4)), rng.random((s, 4)), np.arange(s, dtype=np.int64))
                            for _ in range(heads))


def rows_for(rng, seq, heads=2):
    """H x S last attention rows."""
    return random_softmax_rows(rng, heads, seq.total_length)


def decide_and_prune(cfg, rng, seq, num_layers=4):
    """``decide`` and ``prune`` over ``num_layers`` layers of random rows and full caches."""
    rows = np.stack([rows_for(rng, seq) for _ in range(num_layers)])
    state = DecoderState(caches=[caches_for(seq) for _ in range(num_layers)],
                         next_position=seq.total_length)
    decisions = decide(cfg, rows, seq)
    return prune(state, seq, decisions).caches, decisions


def kept_set(decision):
    """The vision positions a baseline decision keeps (every head keeps the same)."""
    if decision.per_head_retained is None:
        return None
    first, *others = decision.per_head_retained
    assert all(np.array_equal(row, first) for row in others)
    return first


class TestConfigs:
    def test_invalid(self, rng):
        with pytest.raises(ValueError):
            FastVConfig(k_layer=0, prune_ratio=0.5)
        with pytest.raises(ValueError):
            FastVConfig(k_layer=2, prune_ratio=1.5)
        with pytest.raises(ValueError):
            VTWConfig(k_layer=0)
        with pytest.raises(ValueError):
            make_vtw_hook(VTWConfig(k_layer=9), num_layers=8)
        with pytest.raises(ValueError):
            make_fastv_hook(FastVConfig(k_layer=9, prune_ratio=0.5), num_layers=8)
        seq = mixed_seq()
        rows = np.stack([rows_for(rng, seq) for _ in range(8)])
        for cfg in (VTWConfig(k_layer=9), FastVConfig(k_layer=9, prune_ratio=0.5)):
            with pytest.raises(ValueError, match="exceeds model depth 8"):
                decide(cfg, rows, seq)


class TestFastV:
    def test_ratio_zero_identity(self, rng):
        seq = mixed_seq()
        caches, decisions = decide_and_prune(FastVConfig(k_layer=3, prune_ratio=0.0), rng, seq)
        out, surviving = caches[2], kept_set(decisions[2])
        assert all(len(c) == seq.total_length for c in out)
        assert surviving.size == 6

    def test_ratio_one_drops_all_vision(self, rng):
        seq = mixed_seq()
        caches, decisions = decide_and_prune(FastVConfig(k_layer=3, prune_ratio=1.0), rng, seq)
        out, surviving = caches[2], kept_set(decisions[2])
        assert surviving.size == 0
        for cache in out:
            assert cache.positions.tolist() == seq.text_union.tolist()

    def test_surviving_count(self, rng):
        seq = mixed_seq(text_a=4, vision=92, text_b=4)
        surviving = fastv_surviving_set(rows_for(rng, seq), seq,
                                        FastVConfig(k_layer=3, prune_ratio=0.5))
        assert surviving.size == 46  # 92 - floor(0.5 * 92)

    def test_ranking_matches_sort_oracle(self, rng):
        seq = mixed_seq(vision=10)
        rows = rows_for(rng, seq, heads=3)
        cfg = FastVConfig(k_layer=2, prune_ratio=0.4)
        surviving = fastv_surviving_set(rows, seq, cfg)
        vision = seq.vision_union
        mean_row = np.mean(rows, axis=0)
        keep = vision.size - int(np.floor(0.4 * vision.size))
        expected = vision[sort_topk(mean_row[vision], keep)]
        assert surviving.tolist() == expected.tolist()

    def test_layers_below_k_untouched(self, rng):
        seq = mixed_seq()
        caches, decisions = decide_and_prune(FastVConfig(k_layer=3, prune_ratio=0.5), rng, seq)
        out, surviving = caches[0], kept_set(decisions[0])
        assert surviving is None
        assert all(len(c) == seq.total_length for c in out)

    def test_same_set_across_heads_and_layers(self):
        cfg = ModelConfig(num_layers=5, num_heads=3, model_dim=12, head_dim=4,
                          vocab_size=32, max_positions=64)
        weights = init_model(cfg, seed=2)
        seq = mixed_seq(vision=10)
        state, _, _ = pruned_prefill(weights, cfg, seq, FastVConfig(k_layer=2, prune_ratio=0.5))
        vision = set(seq.vision_union.tolist())
        reference = None
        for l in range(1, cfg.num_layers):  # layers 2..5, i.e. >= K
            for cache in state.caches[l]:
                kept = tuple(p for p in cache.positions.tolist() if p in vision)
                reference = kept if reference is None else reference
                assert kept == reference
        for cache in state.caches[0]:  # layer 1 < K: full
            assert len(cache) == seq.total_length


class TestVTW:
    def test_k1_all_layers_text_only(self, rng):
        seq = mixed_seq()
        caches, _ = decide_and_prune(VTWConfig(k_layer=1), rng, seq)
        for out in caches:
            for cache in out:
                assert cache.positions.tolist() == seq.text_union.tolist()

    def test_below_k_untouched(self, rng):
        seq = mixed_seq()
        caches, _ = decide_and_prune(VTWConfig(k_layer=3), rng, seq)
        assert all(len(c) == seq.total_length for c in caches[1])

    def test_retention_by_layer_counting_oracle(self):
        cfg = ModelConfig(num_layers=6, num_heads=2, model_dim=8, head_dim=4,
                          vocab_size=32, max_positions=64)
        weights = init_model(cfg, seed=0)
        seq = mixed_seq(vision=10)
        k = 3  # ceil(N / 2)
        state, _, _ = pruned_prefill(weights, cfg, seq, VTWConfig(k_layer=k))
        vision = seq.vision_union
        for l in range(cfg.num_layers):
            for cache in state.caches[l]:
                kept_vision = int(np.isin(cache.positions, vision).sum())
                assert kept_vision == (vision.size if l + 1 < k else 0)


def per_layer_oracle(cfg, rows, seq):
    """The baselines' decisions as their per-layer rules made them, layer by layer."""
    rule = FastVRule(cfg) if isinstance(cfg, FastVConfig) \
        else lambda layer, last_rows, seq: vtw_decide(layer, last_rows, seq, cfg)
    return [rule(l + 1, rows[l], seq) for l in range(len(rows))]


@st.composite
def baseline_case(draw):
    """A layout of 0-3 images, (N, H, S) rows (tied ones too) and a baseline config."""
    n = draw(st.integers(4, 13))
    h = draw(st.integers(1, 8))
    images = draw(st.integers(0, 3))
    segments = [Segment(TEXT, draw(st.integers(1, 3)))]
    for _ in range(images):
        segments += [Segment(IMAGE, draw(st.integers(1, 9))),
                     Segment(TEXT, draw(st.integers(1, 3)))]
    seq = build_sequence(segments, seed=0)
    s = seq.total_length
    rng = np.random.Generator(np.random.PCG64(draw(st.integers(0, 2**32 - 1))))
    if draw(st.booleans()):  # few distinct values, so rankings tie
        rows = rng.integers(1, 3, size=(n, h, s)).astype(np.float64)
        rows /= rows.sum(axis=2, keepdims=True)
    else:
        rows = np.stack([random_softmax_rows(rng, h, s) for _ in range(n)])
    k = draw(st.sampled_from([1, n, draw(st.integers(1, n))]))
    if draw(st.booleans()):
        ratio = draw(st.sampled_from([0.0, 1.0, draw(st.floats(0.0, 1.0))]))
        cfg = FastVConfig(k_layer=k, prune_ratio=ratio)
    else:
        cfg = VTWConfig(k_layer=k)
    return cfg, rows, seq


@settings(max_examples=150, deadline=None)
@given(case=baseline_case())
def test_decide_equals_per_layer_rules(case):
    cfg, rows, seq = case
    assert_same_decisions(decide(cfg, rows, seq), per_layer_oracle(cfg, rows, seq))


@pytest.mark.parametrize("cfg", [None, PruningConfig(), FastVConfig(k_layer=2, prune_ratio=0.5),
                                 VTWConfig(k_layer=3)])
def test_decide_is_pure(rng, cfg):
    seq = build_sequence([Segment(TEXT, 2), Segment(IMAGE, 7), Segment(TEXT, 1),
                          Segment(IMAGE, 5), Segment(TEXT, 2)], seed=0)
    rows = np.stack([rows_for(rng, seq, heads=3) for _ in range(6)])
    before = rows.copy()
    rows.flags.writeable = False
    first, second = decide(cfg, rows, seq), decide(cfg, rows, seq)
    assert same_bits(rows, before)
    if cfg is None:
        assert first is None and second is None
    else:
        assert_same_decisions(first, second)


HOOKS = {"none": (None, lambda cfg, n: None), "plphp": (PruningConfig(), make_hook),
         "fastv": (FastVConfig(k_layer=3, prune_ratio=0.5), make_fastv_hook),
         "vtw": (VTWConfig(k_layer=4), make_vtw_hook)}


@pytest.mark.parametrize("method", sorted(HOOKS))
def test_hook_adapters_equal_decide_and_prune(method):
    """The prefill hooks only the benchmark runs leave what the library's decide and prune
    leave: the one test of the adapters' caches and decisions."""
    cfg = ModelConfig(num_layers=6, num_heads=3, model_dim=12, head_dim=4,
                      vocab_size=32, max_positions=64)
    weights = init_model(cfg, seed=5)
    seq = build_sequence([Segment(TEXT, 2), Segment(IMAGE, 9), Segment(TEXT, 1),
                          Segment(IMAGE, 8), Segment(TEXT, 3)], seed=5, vocab_size=32)
    pruning, factory = HOOKS[method]
    hooked, hook_report = prefill(weights, cfg, seq, hook=factory(pruning, cfg.num_layers))
    state, _, decisions = pruned_prefill(weights, cfg, seq, pruning)
    assert_same_caches(state, hooked)
    if pruning is None:
        assert hook_report.decisions is None and decisions is None
    else:
        assert_same_decisions(hook_report.decisions, decisions)
