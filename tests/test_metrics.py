import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import dict_writer_csv, json_report, pruned_prefill, random_cache_state, recount_metrics
from plphp import (IMAGE, TEXT, PruningConfig, Segment, VTWConfig,
                   account, build_sequence, init_model, latency_probe, prefill)
from plphp.metrics import CSV_COLUMNS, MetricsReport, report_to_json, write_report_csv
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
    state, _, _ = pruned_prefill(init_model(cfg, 0), cfg, seq, PruningConfig(r=0.4, delta_r=0.0))
    report = account(state, seq)
    assert report.kv_fraction == pytest.approx(0.58, abs=1e-15)
    assert report.retention_rate == pytest.approx((3 * 92 + 9 * 36) / (12 * 92), abs=1e-15)


def test_vtw_k1_example():
    cfg = ModelConfig(num_layers=4, num_heads=2, model_dim=8, head_dim=4,
                      vocab_size=32, max_positions=128)
    seq = build_sequence([Segment(TEXT, 4), Segment(IMAGE, 92), Segment(TEXT, 4)], seed=0, vocab_size=32)
    state, _, _ = pruned_prefill(init_model(cfg, 0), cfg, seq, VTWConfig(k_layer=1))
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
        state, _, _ = pruned_prefill(weights, cfg, seq, PruningConfig(r=r, delta_r=0.1))
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
    state, _, _ = pruned_prefill(init_model(cfg, 0), cfg, seq, PruningConfig())
    report = account(state, seq)

    assert report_to_json(report) == json_report(report)
    payload = json.loads(report_to_json(report))
    assert set(payload) == {"retention_rate", "kv_fraction", "decode_latency_ms", "per_layer"}
    assert len(payload["per_layer"]) == cfg.num_layers * cfg.num_heads

    out = tmp_path / "report.csv"
    write_report_csv(out, report)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 1 + cfg.num_layers * cfg.num_heads


# every scalar json.dumps takes, with the spellings that differ from repr, and
# the cells csv must quote
_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-320,
                     1.7976931348623157e308, -1e300, 1e16, 1e-7, float("nan"),
                     float("inf"), float("-inf")]),
    st.floats(allow_nan=True).map(np.float64))  # a float subclass: float.__repr__
_STRINGS = st.one_of(
    st.text(st.characters(codec=None, exclude_categories=())),  # lone surrogates too
    st.sampled_from(["", "\x00\x1f\x7f", '"\\/\b\f\n\r\t', "\u00e9\u2028\u2029",
                     "\U0001f600", "\ud800", "vision-attentive", "a,b", 'say "hi"', "\r",
                     "\n", "two\r\nlines", " ", ""]))
_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), st.integers(-2**70, 2**70),
                     _FLOATS, _STRINGS)
# cells equal under == but spelled apart; NaN equals nothing, not even a NaN
_EQUAL_GROUPS = ((0.0, -0.0, 0, False), (1, 1.0, True), (math.nan,))


def _fresh(value):
    """``value`` as a new object where Python makes one: a float is never cached."""
    return float(repr(value)) if type(value) is float else value


@st.composite
def _shared_layers(draw):
    """``per_layer`` as ``report_from_counts`` builds it: each layer's layer,
    gamma, class and retention drawn once and held by all of its rows. A layer
    may take each cell from its predecessor's group: an equal but distinct
    object, which a writer must spell again."""
    rows, groups = [], None
    for _ in range(draw(st.integers(1, 4))):
        if groups is None or draw(st.booleans()):
            groups = {k: draw(st.one_of(st.sampled_from(_EQUAL_GROUPS),
                                        _SCALARS.map(lambda v: (v,))))
                      for k in ("layer", "gamma", "class", "retention")}
        shared = {k: _fresh(draw(st.sampled_from(group))) for k, group in groups.items()}
        rows += [{**shared, "head": draw(_SCALARS), "kept_rows": draw(_SCALARS)}
                 for _ in range(draw(st.integers(1, 3)))]
    return rows


_PER_LAYER = st.one_of(
    st.lists(st.fixed_dictionaries({k: _SCALARS for k in CSV_COLUMNS}), max_size=4),
    _shared_layers())


@settings(max_examples=300, deadline=None)
@given(top=st.tuples(_SCALARS, _SCALARS, _SCALARS), per_layer=_PER_LAYER)
def test_report_json_bytes_equal_json_dumps(top, per_layer):
    # the renderer writes the fixed shape itself; json.dumps is the spec
    report = MetricsReport(*top, per_layer=per_layer)
    assert report_to_json(report) == json_report(report)


def test_report_json_refuses_what_json_refuses():
    row = dict.fromkeys(CSV_COLUMNS, 1)
    for bad in (np.int64(3), b"x", object()):
        report = MetricsReport(0.5, 0.5, None, [{**row, "kept_rows": bad}])
        with pytest.raises(TypeError, match="is not JSON serializable"):
            json_report(report)
        with pytest.raises(TypeError, match="is not JSON serializable"):
            report_to_json(report)
    # a report holds scalars only; the renderer writes no nested container
    with pytest.raises(TypeError, match="is not JSON serializable"):
        report_to_json(MetricsReport([0.5], 0.5, None, []))


@settings(max_examples=300, deadline=None)
@given(per_layer=_PER_LAYER)
def test_report_csv_bytes_equal_dict_writer(per_layer):
    # the CSV is built as one string; csv.DictWriter is the spec, quoting included
    report = MetricsReport(0.5, 0.5, None, per_layer=per_layer)
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "report.csv"
        try:
            want = dict_writer_csv(report)
        except UnicodeEncodeError:  # a lone surrogate: neither writes it
            with pytest.raises(UnicodeEncodeError):
                write_report_csv(out, report)
            return
        write_report_csv(out, report)
        assert out.read_bytes() == want


@pytest.mark.parametrize("method", ["plphp", "none"])
def test_csv_bytes_equal_dict_writer(tmp_path, method):
    cfg = ModelConfig(num_layers=5, num_heads=3, model_dim=12, head_dim=4,
                      vocab_size=32, max_positions=64)
    seq = build_sequence([Segment(TEXT, 2), Segment(IMAGE, 7), Segment(TEXT, 1),
                          Segment(IMAGE, 4), Segment(TEXT, 2)], seed=1, vocab_size=32)
    pruning = PruningConfig() if method == "plphp" else None
    state, _, decisions = pruned_prefill(init_model(cfg, 1), cfg, seq, pruning)
    report = account(state, seq, decisions)
    out = tmp_path / "report.csv"
    write_report_csv(out, report)
    assert out.read_bytes() == dict_writer_csv(report)
    lines = out.read_bytes().split(b"\r\n")
    if method == "none":  # no decisions: gamma, class and retention are empty
        assert lines[1].startswith(b"1,,,,1,")
    else:  # exempt layer 1 has a gamma and a class but no retention
        assert lines[1].split(b",")[3] == b"" and lines[1].split(b",")[1] != b""
