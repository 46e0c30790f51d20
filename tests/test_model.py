import dataclasses

import numpy as np
import pytest

from conftest import random_segments, small_model
from helpers import cache_free_decode_logits
from plphp import (IMAGE, TEXT, ModelConfig, PruningConfig, Segment, build_sequence,
                   decode_step, greedy_generate, init_model, make_hook, make_rng, prefill)


def mixed_seq(vocab=32, seed=0):
    return build_sequence([Segment(TEXT, 3), Segment(IMAGE, 8), Segment(TEXT, 2)],
                          seed=seed, vocab_size=vocab)


def tiny(n=4, h=2, dk=4, vocab=32, seed=0):
    cfg = ModelConfig(num_layers=n, num_heads=h, model_dim=h * dk, head_dim=dk,
                      vocab_size=vocab, max_positions=64)
    return cfg, init_model(cfg, seed)


class TestInitModel:
    def test_deterministic(self):
        cfg, w1 = tiny(seed=3)
        _, w2 = tiny(seed=3)
        assert np.array_equal(w1.w_q, w2.w_q)
        assert np.array_equal(w1.token_embedding, w2.token_embedding)

    def test_seed_changes_weights(self):
        _, w1 = tiny(seed=3)
        _, w2 = tiny(seed=4)
        assert not np.array_equal(w1.w_q, w2.w_q)

    def test_bad_dims_rejected(self):
        with pytest.raises(ValueError):
            ModelConfig(num_layers=4, num_heads=2, model_dim=9, head_dim=4,
                        vocab_size=32, max_positions=64)
        with pytest.raises(ValueError):
            ModelConfig(num_layers=3, num_heads=2, model_dim=8, head_dim=4,
                        vocab_size=32, max_positions=64)


class TestPrefill:
    def test_no_hook_full_caches(self):
        cfg, w = tiny()
        seq = mixed_seq()
        state, report = prefill(w, cfg, seq)
        for layer in state.caches:
            for cache in layer:
                assert len(cache) == seq.total_length
                assert cache.positions.tolist() == list(range(seq.total_length))
        assert report.decisions is None

    def test_noop_pruning_identical_caches(self):
        cfg, w = tiny()
        seq = mixed_seq()
        plain, _ = prefill(w, cfg, seq)
        hook = make_hook(PruningConfig(r=1.0, delta_r=0.0), cfg.num_layers)
        pruned, _ = prefill(w, cfg, seq, hook=hook)
        for l in range(cfg.num_layers):
            for h in range(cfg.num_heads):
                assert np.array_equal(plain.caches[l][h].keys, pruned.caches[l][h].keys)
                assert np.array_equal(plain.caches[l][h].values, pruned.caches[l][h].values)

    def test_prefix_invariance(self):
        # causal attention: tokens from position j on cannot reach any cache
        # row before j, bit for bit
        cfg, w = tiny()
        seq = mixed_seq()
        base, _ = prefill(w, cfg, seq)
        for j in (1, 5, seq.total_length - 1):
            ids = seq.token_ids.copy()
            ids[j:] = (ids[j:] + 1) % cfg.vocab_size
            changed, _ = prefill(w, cfg, dataclasses.replace(seq, token_ids=ids))
            for l in range(cfg.num_layers):
                for h in range(cfg.num_heads):
                    a, b = base.caches[l][h], changed.caches[l][h]
                    assert np.array_equal(a.keys[:j], b.keys[:j])
                    assert np.array_equal(a.values[:j], b.values[:j])
                    assert not np.array_equal(a.keys[j:], b.keys[j:])

    def test_sequence_too_long(self):
        cfg, w = tiny()
        long_seq = build_sequence([Segment(TEXT, cfg.max_positions + 1)], seed=0,
                                  vocab_size=cfg.vocab_size)
        with pytest.raises(ValueError):
            prefill(w, cfg, long_seq)

    def test_position_integrity_after_pruning(self):
        # surviving rows must be bitwise the rows the full prefill produced
        # at the same positions
        cfg, w = tiny()
        seq = mixed_seq()
        full, _ = prefill(w, cfg, seq)
        hook = make_hook(PruningConfig(), cfg.num_layers)
        pruned, _ = prefill(w, cfg, seq, hook=hook)
        for l in range(cfg.num_layers):
            for h in range(cfg.num_heads):
                pos = pruned.caches[l][h].positions
                assert np.array_equal(pruned.caches[l][h].keys, full.caches[l][h].keys[pos])
                assert np.array_equal(pruned.caches[l][h].values, full.caches[l][h].values[pos])


class TestDecode:
    def test_deterministic_from_cloned_states(self):
        cfg, w = tiny()
        seq = mixed_seq()
        state, _ = prefill(w, cfg, seq)
        l1, _ = decode_step(w, cfg, state.clone(), 7)
        l2, _ = decode_step(w, cfg, state.clone(), 7)
        assert np.array_equal(l1, l2)

    def test_noop_pruning_identical_logits(self):
        cfg, w = tiny()
        seq = mixed_seq()
        plain, _ = prefill(w, cfg, seq)
        hook = make_hook(PruningConfig(r=1.0, delta_r=0.0), cfg.num_layers)
        pruned, _ = prefill(w, cfg, seq, hook=hook)
        l1, _ = decode_step(w, cfg, plain, 3)
        l2, _ = decode_step(w, cfg, pruned, 3)
        assert np.array_equal(l1, l2)

    def test_cache_growth(self):
        cfg, w = tiny()
        seq = mixed_seq()
        hook = make_hook(PruningConfig(), cfg.num_layers)
        state, _ = prefill(w, cfg, seq, hook=hook)
        before = [[len(c) for c in layer] for layer in state.caches]
        decode_step(w, cfg, state, 1)
        after = [[len(c) for c in layer] for layer in state.caches]
        for row_b, row_a in zip(before, after):
            assert [b + 1 for b in row_b] == row_a

    def test_position_overflow(self):
        cfg, w = tiny()
        seq = mixed_seq()
        state, _ = prefill(w, cfg, seq)
        state.next_position = cfg.max_positions
        with pytest.raises(ValueError):
            decode_step(w, cfg, state, 0)

    def test_pruned_rollout_matches_cache_free_recomputation(self):
        cfg, w = tiny(n=5, h=2, dk=4)
        seq = build_sequence([Segment(TEXT, 3), Segment(IMAGE, 10), Segment(TEXT, 2)],
                             seed=5, vocab_size=cfg.vocab_size)
        hook = make_hook(PruningConfig(), cfg.num_layers)
        state, _ = prefill(w, cfg, seq, hook=hook)
        retained = [[c.positions.copy() for c in layer] for layer in state.caches]

        tokens = [0]
        live_logits = []
        for _ in range(10):
            logits, state = decode_step(w, cfg, state, tokens[-1])
            live_logits.append(logits)
            tokens.append(int(np.argmax(logits)))

        oracle = cache_free_decode_logits(w, cfg, seq, tokens[:-1], retained)
        assert np.max(np.abs(np.stack(live_logits) - oracle)) < 1e-9


class TestGreedyGenerate:
    def test_zero_steps(self):
        cfg, w = tiny()
        state, _ = prefill(w, cfg, mixed_seq())
        assert greedy_generate(w, cfg, state, 0, 0) == []

    def test_deterministic(self):
        cfg, w = tiny()
        seq = mixed_seq()
        s1, _ = prefill(w, cfg, seq)
        s2, _ = prefill(w, cfg, seq)
        assert greedy_generate(w, cfg, s1, 0, 8) == greedy_generate(w, cfg, s2, 0, 8)

    def test_noop_pruning_same_tokens_random_configs(self):
        rng = make_rng(42)
        for _ in range(8):
            cfg, w = small_model(rng)
            seq = build_sequence(random_segments(rng), seed=int(rng.integers(0, 1000)),
                                 vocab_size=cfg.vocab_size)
            plain, _ = prefill(w, cfg, seq)
            hook = make_hook(PruningConfig(r=1.0, delta_r=0.0), cfg.num_layers)
            pruned, _ = prefill(w, cfg, seq, hook=hook)
            assert greedy_generate(w, cfg, plain, 1, 4) == greedy_generate(w, cfg, pruned, 1, 4)
