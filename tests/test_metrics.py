import csv
import io
import json

import numpy as np
import pytest

from helpers import random_cache_state, recount_metrics
from plphp import (IMAGE, TEXT, PruningConfig, Segment, VTWConfig,
                   account, build_sequence, init_model, latency_probe, make_hook,
                   make_rng, make_vtw_hook, prefill)
from plphp.metrics import CSV_COLUMNS, report_to_json, write_report_csv
from plphp.model import ModelConfig


def test_no_pruning_is_unity():
    cfg = ModelConfig(num_layers=4, num_heads=2, model_dim=8, head_dim=4,
                      vocab_size=32, max_positions=64)
    seq = build_sequence([Segment(TEXT, 2), Segment(IMAGE, 6), Segment(TEXT, 2)], seed=0, vocab_size=32)
    state, _ = prefill(init_model(cfg, 0), cfg, seq)
    report = account(state, seq)
    assert report.retention_rate == 1.0
    assert report.kv_fraction == 1.0


def test_worked_kv_example():
    # N=12, H=4, text 8 + vision 92, retention forced to 0.4 everywhere,
    # pruned layers 3..11: per pruned head 8 + floor(0.4 * 92) = 44 rows,
    # KV = (3*100 + 9*44) / (12*100) = 0.58
    cfg = ModelConfig(num_layers=12, num_heads=4, model_dim=8, head_dim=2,
                      vocab_size=32, max_positions=128)
    seq = build_sequence([Segment(TEXT, 4), Segment(IMAGE, 92), Segment(TEXT, 4)], seed=0, vocab_size=32)
    hook = make_hook(PruningConfig(r=0.4, delta_r=0.0), cfg.num_layers)
    state, _ = prefill(init_model(cfg, 0), cfg, seq, hook=hook)
    report = account(state, seq)
    assert report.kv_fraction == pytest.approx(0.58, abs=1e-15)
    assert report.retention_rate == pytest.approx((3 * 92 + 9 * 36) / (12 * 92), abs=1e-15)


def test_vtw_k1_example():
    cfg = ModelConfig(num_layers=4, num_heads=2, model_dim=8, head_dim=4,
                      vocab_size=32, max_positions=128)
    seq = build_sequence([Segment(TEXT, 4), Segment(IMAGE, 92), Segment(TEXT, 4)], seed=0, vocab_size=32)
    hook = make_vtw_hook(VTWConfig(k_layer=1), cfg.num_layers)
    state, _ = prefill(init_model(cfg, 0), cfg, seq, hook=hook)
    report = account(state, seq)
    assert report.retention_rate == 0.0
    assert report.kv_fraction == pytest.approx(8 / 100, abs=1e-15)


def test_decode_rows_excluded():
    from plphp import decode_step
    cfg = ModelConfig(num_layers=4, num_heads=2, model_dim=8, head_dim=4,
                      vocab_size=32, max_positions=64)
    seq = build_sequence([Segment(TEXT, 2), Segment(IMAGE, 6), Segment(TEXT, 2)], seed=0, vocab_size=32)
    state, _ = prefill(init_model(cfg, 0), cfg, seq)
    before = account(state, seq)
    decode_step(init_model(cfg, 0), cfg, state, 1)
    after = account(state, seq)
    assert before.kv_fraction == after.kv_fraction == 1.0


def test_matches_brute_force_recount(rng):
    seq = build_sequence([Segment(TEXT, 3), Segment(IMAGE, 9), Segment(TEXT, 2)], seed=0, vocab_size=32)
    for _ in range(100):
        state = random_cache_state(rng, n=int(rng.integers(4, 7)), h=int(rng.integers(1, 4)),
                                   s=seq.total_length)
        report = account(state, seq)
        rr, kv = recount_metrics(state, seq)
        assert report.retention_rate == pytest.approx(rr, abs=1e-15)
        assert report.kv_fraction == pytest.approx(kv, abs=1e-15)


def test_kv_monotone_in_r():
    cfg = ModelConfig(num_layers=5, num_heads=2, model_dim=8, head_dim=4,
                      vocab_size=32, max_positions=128)
    seq = build_sequence([Segment(TEXT, 3), Segment(IMAGE, 20), Segment(TEXT, 2)], seed=0, vocab_size=32)
    weights = init_model(cfg, 0)
    fractions = []
    for r in (0.1, 0.3, 0.5, 0.7, 0.9):
        hook = make_hook(PruningConfig(r=r, delta_r=0.1), cfg.num_layers)
        state, _ = prefill(weights, cfg, seq, hook=hook)
        fractions.append(account(state, seq).kv_fraction)
    assert fractions == sorted(fractions)


class TestLatencyProbe:
    def test_rejects_few_steps(self):
        # below 16 steps every step still runs, but there is no median
        for steps in (0, 15):
            calls = []
            assert latency_probe(lambda: calls.append(1), steps) is None
            assert len(calls) == steps

    def test_returns_positive_median(self):
        assert latency_probe(lambda: sum(range(1000)), 16) > 0.0


def test_serialization(tmp_path):
    cfg = ModelConfig(num_layers=4, num_heads=2, model_dim=8, head_dim=4,
                      vocab_size=32, max_positions=64)
    seq = build_sequence([Segment(TEXT, 2), Segment(IMAGE, 6), Segment(TEXT, 2)], seed=0, vocab_size=32)
    hook = make_hook(PruningConfig(), cfg.num_layers)
    state, _ = prefill(init_model(cfg, 0), cfg, seq, hook=hook)
    report = account(state, seq)

    payload = json.loads(report_to_json(report))
    assert set(payload) == {"retention_rate", "kv_fraction", "decode_latency_ms", "per_layer"}
    assert len(payload["per_layer"]) == cfg.num_layers * cfg.num_heads

    out = tmp_path / "report.csv"
    write_report_csv(out, report)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 1 + cfg.num_layers * cfg.num_heads


def dict_writer_csv(report) -> bytes:
    """The report CSV as ``csv.DictWriter`` writes it, None as an empty cell."""
    f = io.StringIO(newline="")
    writer = csv.DictWriter(f, fieldnames=CSV_COLUMNS)
    writer.writeheader()
    for row in report.per_layer:
        writer.writerow({k: ("" if row[k] is None else row[k]) for k in CSV_COLUMNS})
    return f.getvalue().encode()


@pytest.mark.parametrize("method", ["plphp", "none"])
def test_csv_bytes_equal_dict_writer(tmp_path, method):
    cfg = ModelConfig(num_layers=5, num_heads=3, model_dim=12, head_dim=4,
                      vocab_size=32, max_positions=64)
    seq = build_sequence([Segment(TEXT, 2), Segment(IMAGE, 7), Segment(TEXT, 1),
                          Segment(IMAGE, 4), Segment(TEXT, 2)], seed=1, vocab_size=32)
    hook = make_hook(PruningConfig(), cfg.num_layers) if method == "plphp" else None
    state, prefill_report = prefill(init_model(cfg, 1), cfg, seq, hook=hook)
    report = account(state, seq, prefill_report.decisions)
    out = tmp_path / "report.csv"
    write_report_csv(out, report)
    assert out.read_bytes() == dict_writer_csv(report)
    lines = out.read_bytes().split(b"\r\n")
    if method == "none":  # no decisions: gamma, class and retention are empty
        assert lines[1].startswith(b"1,,,,1,")
    else:  # exempt layer 1 has a gamma and a class but no retention
        assert lines[1].split(b",")[3] == b"" and lines[1].split(b",")[1] != b""
