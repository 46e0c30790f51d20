"""Acceptance suite: one test per release criterion, each printing a
pass line (run with ``pytest -s tests/test_acceptance.py`` to see them).

1. worked-example fidelity of the retention-rate table
2. oracle equivalence over >= 1000 randomized cases per operation
3. no-op pruning (r=1, dr=0) is bitwise invisible to the caches and greedy decoding
4. decode under head-divergent caches matches cache-free recomputation
5. exact KV accounting on the derived 12-layer layout
6. structural contrast: coarse FastV set vs per-head divergent sets
7. monotone decode-latency trend on an S=4096 workload
8. live/replay equality through the trace file format, for every method
"""

import gc
import time

import numpy as np
import pytest

from conftest import random_segments, random_softmax_rows, small_model
from helpers import (assert_same_caches, assert_same_decisions, cache_free_decode_logits,
                     cut_head, layer_from_heads, loop_gamma, pruned_prefill, random_cache_state,
                     recount_metrics, select_retained, set_keep, sort_select, sort_topk)
from plphp import (IMAGE, TEXT, FastVConfig, ModelConfig, PruningConfig, Segment, VTWConfig,
                   account, argtopk, build_sequence, decide, decode_step, greedy_generate,
                   init_model, make_rng, prefill, prune, vision_attention_score)
from plphp.pruning import allocate_retention, classify_layer, decide_layers, prune_layer
from plphp.trace import read_trace, replay, trace_from_run, write_trace


def done(n, name):
    print(f"\nCRITERION {n} ({name}): PASS")


def test_criterion_1_worked_example_fidelity():
    cfg = PruningConfig(r=0.4, delta_r=0.3, alpha=0.25, beta=0.1)
    # retention is exactly r + dr / r - dr / r; the decimal targets hold to
    # one float rounding of the sum
    assert allocate_retention(classify_layer(0.30, cfg), cfg) == cfg.r + cfg.delta_r
    assert allocate_retention(classify_layer(0.30, cfg), cfg) == pytest.approx(0.7, abs=1e-15)
    assert allocate_retention(classify_layer(0.05, cfg), cfg) == cfg.r - cfg.delta_r
    assert allocate_retention(classify_layer(0.05, cfg), cfg) == pytest.approx(0.1, abs=1e-15)
    assert allocate_retention(classify_layer(0.15, cfg), cfg) == cfg.r == 0.4
    done(1, "worked-example fidelity")


def test_criterion_2_oracle_equivalence():
    rng = make_rng(2024)

    for _ in range(1000):
        n = int(rng.integers(1, 25))
        v = np.round(rng.random(n) * 8) / 8
        k = int(rng.integers(0, n + 1))
        assert argtopk(v, k).tolist() == sort_topk(v, k)

    for _ in range(1000):
        h, s = int(rng.integers(1, 5)), int(rng.integers(4, 20))
        rows = random_softmax_rows(rng, h, s)
        vision = np.sort(rng.choice(s, size=int(rng.integers(0, s + 1)), replace=False))
        assert abs(vision_attention_score(rows[None], vision)[0] - loop_gamma(rows, vision)) \
            < 1e-12

    for _ in range(1000):
        s = int(rng.integers(6, 24))
        row = np.round(rng.random(s) * 8) / 8
        lo = int(rng.integers(0, s - 2))
        hi = int(rng.integers(lo + 1, s))
        image = np.arange(lo, hi, dtype=np.int64)
        retention = float(rng.random())
        got, k = select_retained(row, image, retention)
        expected, k_expected = sort_select(row, image, retention)
        assert got.tolist() == expected and k == k_expected

    for _ in range(1000):
        s = int(rng.integers(4, 20))
        cache = layer_from_heads([(rng.random((s, 2)), rng.random((s, 2)),
                                   np.arange(s, dtype=np.int64))])
        split = rng.permutation(s)
        cut = int(rng.integers(1, s))
        text = np.sort(split[:cut])
        vision = np.sort(split[cut:])
        kept = np.sort(rng.choice(vision, size=int(rng.integers(0, vision.size + 1)),
                                  replace=False)) if vision.size else vision
        out = cut_head(cache, text, kept)
        assert out.positions.tolist() == set_keep(cache[0].positions, text, kept)

    seq = build_sequence([Segment(TEXT, 3), Segment(IMAGE, 8), Segment(TEXT, 3)],
                         seed=0, vocab_size=32)
    for _ in range(1000):
        state = random_cache_state(rng, n=int(rng.integers(4, 7)), h=int(rng.integers(1, 4)),
                                   s=seq.total_length)
        report = account(state, seq)
        rr, kv = recount_metrics(state, seq)
        assert abs(report.retention_rate - rr) < 1e-12
        assert abs(report.kv_fraction - kv) < 1e-12

    done(2, "oracle equivalence, >=1000 cases per op")


def test_criterion_3_noop_equivalence():
    rng = make_rng(33)
    for _ in range(20):
        cfg, weights = small_model(rng)
        seq = build_sequence(random_segments(rng), seed=int(rng.integers(0, 10_000)),
                             vocab_size=cfg.vocab_size)
        plain, _ = prefill(weights, cfg, seq)
        pruned, _, _ = pruned_prefill(weights, cfg, seq, PruningConfig(r=1.0, delta_r=0.0))
        assert_same_caches(plain, pruned)
        start = int(rng.integers(0, cfg.vocab_size))
        assert greedy_generate(weights, cfg, plain, start, 5) == \
            greedy_generate(weights, cfg, pruned, start, 5)
    done(3, "no-op pruning bitwise equivalence, 20 configs")


def test_criterion_4_decode_vs_cache_free_recomputation():
    rng = make_rng(44)
    worst = 0.0
    for _ in range(3):
        cfg, weights = small_model(rng, min_layers=5, max_layers=6)
        seq = build_sequence([Segment(TEXT, 3), Segment(IMAGE, 9), Segment(IMAGE, 6),
                              Segment(TEXT, 2)], seed=int(rng.integers(0, 1000)),
                             vocab_size=cfg.vocab_size)
        state, _, _ = pruned_prefill(weights, cfg, seq, PruningConfig())
        retained = [[c.positions.copy() for c in layer] for layer in state.caches]
        tokens = [1]
        live = []
        for _ in range(10):
            logits, state = decode_step(weights, cfg, state, tokens[-1])
            live.append(logits)
            tokens.append(int(np.argmax(logits)))
        oracle = cache_free_decode_logits(weights, cfg, seq, tokens[:-1], retained)
        worst = max(worst, float(np.max(np.abs(np.stack(live) - oracle))))
    assert worst < 1e-9
    done(4, f"decode vs cache-free recomputation, max |dlogit| = {worst:.2e}")


def test_criterion_5_accounting_check():
    cfg = ModelConfig(num_layers=12, num_heads=4, model_dim=8, head_dim=2,
                      vocab_size=32, max_positions=128)
    seq = build_sequence([Segment(TEXT, 4), Segment(IMAGE, 92), Segment(TEXT, 4)],
                         seed=0, vocab_size=32)
    # delta_r = 0 forces retention 0.4 regardless of layer class
    state, _, _ = pruned_prefill(init_model(cfg, 0), cfg, seq, PruningConfig(r=0.4, delta_r=0.0))
    report = account(state, seq)
    assert report.kv_fraction == (3 * 100 + 9 * 44) / (12 * 100) == 0.58
    done(5, "exact KV accounting on the derived layout")


def test_criterion_6_structural_contrast():
    # FastV: one surviving set shared by all heads at every layer >= K
    cfg = ModelConfig(num_layers=6, num_heads=3, model_dim=12, head_dim=4,
                      vocab_size=32, max_positions=64)
    seq = build_sequence([Segment(TEXT, 2), Segment(IMAGE, 10), Segment(TEXT, 2)],
                         seed=0, vocab_size=32)
    state, _, _ = pruned_prefill(init_model(cfg, 3), cfg, seq,
                                 FastVConfig(k_layer=2, prune_ratio=0.5))
    vision = set(seq.vision_union.tolist())
    sets = {tuple(p for p in cache.positions.tolist() if p in vision)
            for layer in state.caches[1:] for cache in layer}
    assert len(sets) == 1

    # constructed orthogonal-head attention makes the fine-grained pruner
    # keep different sets in two heads of one layer
    s = seq.total_length
    rows = []
    for peaks in [(2, 3), (8, 9)]:
        row = np.full(s, 1e-4)
        row[list(peaks)] = 1.0
        rows.append(row / row.sum())
    caches = layer_from_heads([(np.zeros((s, 4)), np.zeros((s, 4)), np.arange(s, dtype=np.int64))
                               for _ in rows])
    decision, = decide_layers(np.stack(rows)[None], seq,
                              PruningConfig(r=0.2, delta_r=0.0, alpha=0.0, beta=0.0), 3, 6)
    pruned = prune_layer(caches, seq, decision)
    head_sets = [tuple(row.tolist()) for row in decision.per_head_retained]
    assert head_sets[0] != head_sets[1]
    assert pruned[0].positions.tolist() != pruned[1].positions.tolist()
    done(6, "coarse baseline vs per-head divergent pruning")


def test_criterion_7_monotone_latency_trend():
    cfg = ModelConfig(num_layers=6, num_heads=2, model_dim=8, head_dim=4,
                      vocab_size=64, max_positions=4200)
    seq = build_sequence([Segment(TEXT, 64), Segment(IMAGE, 4000), Segment(TEXT, 32)],
                         seed=0, vocab_size=64)
    assert seq.total_length == 4096
    weights = init_model(cfg, 0)

    rates = (1.0, 0.5, 0.4, 0.3)
    # the caches and last rows do not depend on the method: one prefill, four prunings
    state, prefilled = prefill(weights, cfg, seq, record_trace=True)
    states = []
    for r in rates:
        pruning = PruningConfig(r=r, delta_r=0.0, alpha=0.0, beta=0.0,
                                first_pruned_layer=2, last_pruned_layer=5)
        states.append(prune(state, seq, decide(pruning, prefilled.attn_last_rows, seq)))

    # interleave the timed steps across retention rates so slow machine
    # drift hits every rate equally; gc pauses would otherwise dominate
    tokens = [0] * len(rates)
    samples = [[] for _ in rates]
    gc.collect()
    gc.disable()
    try:
        for step in range(20):
            for i, state in enumerate(states):
                t0 = time.perf_counter()
                logits, states[i] = decode_step(weights, cfg, state, tokens[i])
                elapsed = time.perf_counter() - t0
                tokens[i] = int(np.argmax(logits))
                if step >= 4:  # warmup rounds excluded
                    samples[i].append(elapsed)
    finally:
        gc.enable()
    medians = [float(np.median(s) * 1000.0) for s in samples]

    # fail only on a >5% inversion between adjacent retention rates
    for prev, nxt in zip(medians, medians[1:]):
        assert nxt <= prev * 1.05, f"latency inversion: {medians}"
    done(7, "monotone latency trend, medians ms = "
            + ", ".join(f"{m:.2f}" for m in medians)
            + f"; r=0.4 -> 0.3 ratio {medians[3] / medians[2]:.3f}")


@pytest.mark.parametrize("method", ["none", "plphp", "fastv", "vtw"])
def test_criterion_8_live_replay_equality(tmp_path, method):
    pruning = {"none": None, "plphp": PruningConfig(), "vtw": VTWConfig(k_layer=4),
               "fastv": FastVConfig(k_layer=3, prune_ratio=0.5)}[method]
    cfg = ModelConfig(num_layers=6, num_heads=2, model_dim=8, head_dim=4,
                      vocab_size=32, max_positions=64)
    seq = build_sequence([Segment(TEXT, 2), Segment(IMAGE, 6), Segment(IMAGE, 8),
                          Segment(TEXT, 3)], seed=8, vocab_size=32)
    state, rows, live_decisions = pruned_prefill(init_model(cfg, 8), cfg, seq, pruning)
    path = tmp_path / "run.plpt"
    write_trace(path, trace_from_run(rows, seq))
    decisions, offline_metrics = replay(read_trace(path), pruning)

    if pruning is None:
        assert decisions is None and live_decisions is None
    else:
        assert len(decisions) == cfg.num_layers
        assert_same_decisions(decisions, live_decisions)
    live_metrics = account(state, seq, live_decisions)
    assert offline_metrics.retention_rate == live_metrics.retention_rate
    assert offline_metrics.kv_fraction == live_metrics.kv_fraction
    assert offline_metrics.per_layer == live_metrics.per_layer
    done(8, f"live/replay equality, {method}")
