import numpy as np
import pytest

from conftest import random_softmax_rows
from helpers import sort_topk
from plphp import (IMAGE, TEXT, FastVConfig, HeadKVCache, Segment, VTWConfig,
                   build_sequence, init_model, make_fastv_hook, make_rng,
                   make_vtw_hook, prefill, vision_index_union)
from plphp.baselines import FastVRule, fastv_hook, fastv_surviving_set, vtw_hook
from plphp.model import ModelConfig


def mixed_seq(text_a=2, vision=6, text_b=2):
    return build_sequence([Segment(TEXT, text_a), Segment(IMAGE, vision),
                           Segment(TEXT, text_b)], seed=0, vocab_size=32)


def caches_for(seq, heads=2):
    rng = make_rng(1)
    s = seq.total_length
    return [HeadKVCache(keys=rng.random((s, 4)), values=rng.random((s, 4)),
                        positions=np.arange(s, dtype=np.int64)) for _ in range(heads)]


def rows_for(rng, seq, heads=2):
    """H x S last attention rows."""
    return random_softmax_rows(rng, heads, seq.total_length)


class TestConfigs:
    def test_invalid(self):
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


class TestFastV:
    def test_ratio_zero_identity(self, rng):
        seq = mixed_seq()
        caches = caches_for(seq)
        rule = FastVRule(FastVConfig(k_layer=3, prune_ratio=0.0))
        out, _ = fastv_hook(3, rows_for(rng, seq), caches, seq, rule)
        surviving = rule.surviving
        assert all(len(c) == seq.total_length for c in out)
        assert surviving.size == 6

    def test_ratio_one_drops_all_vision(self, rng):
        seq = mixed_seq()
        rule = FastVRule(FastVConfig(k_layer=3, prune_ratio=1.0))
        out, _ = fastv_hook(3, rows_for(rng, seq), caches_for(seq), seq, rule)
        surviving = rule.surviving
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
        vision = vision_index_union(seq)
        mean_row = np.mean(rows, axis=0)
        keep = vision.size - int(np.floor(0.4 * vision.size))
        expected = vision[sort_topk(mean_row[vision], keep)]
        assert surviving.tolist() == expected.tolist()

    def test_layers_below_k_untouched(self, rng):
        seq = mixed_seq()
        rule = FastVRule(FastVConfig(k_layer=3, prune_ratio=0.5))
        out, _ = fastv_hook(1, rows_for(rng, seq), caches_for(seq), seq, rule)
        surviving = rule.surviving
        assert surviving is None
        assert all(len(c) == seq.total_length for c in out)

    def test_same_set_across_heads_and_layers(self):
        cfg = ModelConfig(num_layers=5, num_heads=3, model_dim=12, head_dim=4,
                          vocab_size=32, max_positions=64)
        weights = init_model(cfg, seed=2)
        seq = mixed_seq(vision=10)
        hook = make_fastv_hook(FastVConfig(k_layer=2, prune_ratio=0.5), cfg.num_layers)
        state, _ = prefill(weights, cfg, seq, hook=hook)
        vision = set(vision_index_union(seq).tolist())
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
        out, _ = vtw_hook(1, rows_for(rng, seq), caches_for(seq), seq, VTWConfig(k_layer=1))
        for cache in out:
            assert cache.positions.tolist() == seq.text_union.tolist()

    def test_below_k_untouched(self, rng):
        seq = mixed_seq()
        out, _ = vtw_hook(2, rows_for(rng, seq), caches_for(seq), seq, VTWConfig(k_layer=3))
        assert all(len(c) == seq.total_length for c in out)

    def test_retention_by_layer_counting_oracle(self):
        cfg = ModelConfig(num_layers=6, num_heads=2, model_dim=8, head_dim=4,
                          vocab_size=32, max_positions=64)
        weights = init_model(cfg, seed=0)
        seq = mixed_seq(vision=10)
        k = 3  # ceil(N / 2)
        hook = make_vtw_hook(VTWConfig(k_layer=k), cfg.num_layers)
        state, _ = prefill(weights, cfg, seq, hook=hook)
        vision = vision_index_union(seq)
        for l in range(cfg.num_layers):
            for cache in state.caches[l]:
                kept_vision = int(np.isin(cache.positions, vision).sum())
                assert kept_vision == (vision.size if l + 1 < k else 0)
