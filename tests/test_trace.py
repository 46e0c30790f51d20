import struct
import tempfile
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_softmax_rows
from helpers import assert_same_decisions, decision_count_report, layer_from_heads
from plphp import (IMAGE, TEXT, FastVConfig, PruningConfig, Segment, VTWConfig,
                   account, build_sequence, decide, prune)
from plphp import baselines as baselines_module
from plphp import pruning as pruning_module
from plphp import layout as layout_module
from plphp import trace as trace_module
from plphp.baselines import allocate
from plphp.cli import main
from plphp.metrics import report_to_json, write_report_csv
from plphp.model import DecoderState
from plphp.trace import (AttentionTrace, TraceFormatError, read_trace, replay, replay_report,
                         write_trace)

# the methods that prune; "none" keeps every row
METHODS = ["fastv", "plphp", "vtw"]


def make_trace(rng, n=5, h=2, segments=(Segment(TEXT, 2), Segment(IMAGE, 6), Segment(TEXT, 2))):
    s = sum(seg.length for seg in segments)
    rows = np.stack([random_softmax_rows(rng, h, s) for _ in range(n)])
    return AttentionTrace(num_layers=n, num_heads=h, seq_len=s,
                          segments=tuple(segments), rows=rows)


def raw_trace(n, h, s, segments, payload=b""):
    """PLPT bytes written by hand, so headers write_trace would refuse can be built."""
    header = b"PLPT" + struct.pack("<IIIII", 1, n, h, s, len(segments))
    return header + b"".join(struct.pack("<II", kind, length) for kind, length in segments) \
        + payload


class TestRoundTrip:
    def test_bitwise(self, rng, tmp_path):
        trace = make_trace(rng)
        path = tmp_path / "t.plpt"
        write_trace(path, trace)
        loaded = read_trace(path)
        assert np.array_equal(loaded.rows, trace.rows)
        assert loaded.segments == trace.segments
        assert (loaded.num_layers, loaded.num_heads, loaded.seq_len) == (5, 2, 10)

    def test_truncated_rejected(self, rng, tmp_path):
        trace = make_trace(rng)
        path = tmp_path / "t.plpt"
        write_trace(path, trace)
        data = path.read_bytes()
        path.write_bytes(data[:-9])
        with pytest.raises(TraceFormatError):
            read_trace(path)

    def test_truncated_body_rejected(self, rng, tmp_path):
        # a body that ends early although the size check passed (the file
        # shrank after it): the short read is a trace error, exit 3
        trace = make_trace(rng)
        path = tmp_path / "t.plpt"
        write_trace(path, trace)
        size = path.stat().st_size
        path.write_bytes(path.read_bytes()[:-9])
        stale = SimpleNamespace(fstat=lambda fd: SimpleNamespace(st_size=size))
        with mock.patch.object(trace_module, "os", stale):
            with pytest.raises(TraceFormatError, match="truncated trace file"):
                read_trace(path)
            assert main(["replay", "--trace", str(path)]) == 3

    def test_bad_magic_rejected(self, rng, tmp_path):
        path = tmp_path / "t.plpt"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(TraceFormatError):
            read_trace(path)

    def test_trailing_bytes_rejected(self, rng, tmp_path):
        trace = make_trace(rng)
        path = tmp_path / "t.plpt"
        write_trace(path, trace)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(TraceFormatError):
            read_trace(path)

    def test_bad_row_sum_rejected(self, rng, tmp_path):
        trace = make_trace(rng)
        trace.rows[2, 1] *= 1.01  # off by 1e-2 > 1e-6
        path = tmp_path / "t.plpt"
        with pytest.raises(TraceFormatError):
            write_trace(path, trace)

    @pytest.mark.parametrize("values", [[np.nan], [np.inf], [-np.inf], [np.inf, -np.inf],
                                        [1e308, 1e308]])
    def test_non_finite_row_rejected(self, rng, tmp_path, values):
        trace = make_trace(rng)
        good = tmp_path / "good.plpt"
        write_trace(good, trace)
        raw = bytearray(good.read_bytes())
        body = len(raw) - trace.rows.nbytes
        at = body + 8 * (1 * trace.num_heads * trace.seq_len + 3)  # layer 2, head 1
        for i, value in enumerate(values):
            raw[at + 8 * i:at + 8 * (i + 1)] = struct.pack("<d", value)
        path = tmp_path / "t.plpt"
        path.write_bytes(bytes(raw))
        message = "sums to inf" if values == [1e308, 1e308] else "contains non-finite values"
        with pytest.raises(TraceFormatError, match=rf"\(layer 2, head 1\) {message}"):
            read_trace(path)
        assert main(["replay", "--trace", str(path)]) == 3

    def test_bad_segment_total_rejected(self, rng):
        trace = make_trace(rng)
        trace = AttentionTrace(trace.num_layers, trace.num_heads, trace.seq_len,
                               (Segment(TEXT, 3),), trace.rows)
        with pytest.raises(TraceFormatError):
            trace.validate()

    def test_final_image_segment_rejected(self, rng, tmp_path):
        segments = (Segment(TEXT, 2), Segment(IMAGE, 3))
        trace = make_trace(rng, segments=segments)
        with pytest.raises(TraceFormatError):
            trace.validate()
        path = tmp_path / "t.plpt"
        path.write_bytes(raw_trace(5, 2, 5, [(0, 2), (1, 3)], trace.rows.astype("<f8").tobytes()))
        with pytest.raises(TraceFormatError):
            read_trace(path)
        assert main(["replay", "--trace", str(path)]) == 3

    def test_oversized_header_rejected_before_reading(self, tmp_path):
        # N = H = S = 2^20 declares an 8 PiB payload the file does not have
        path = tmp_path / "t.plpt"
        path.write_bytes(raw_trace(2**20, 2**20, 2**20, [(0, 2**20)]))
        with pytest.raises(TraceFormatError):
            read_trace(path)
        assert main(["replay", "--trace", str(path)]) == 3

    @pytest.mark.parametrize("n, h, s, segments, payload", [
        (0, 2, 4, [(0, 4)], b""),                                # no layers
        (1, 1, 1, [(0, 1), (1, 0)], struct.pack("<d", 1.0)),     # empty segment
    ])
    def test_degenerate_header_rejected(self, tmp_path, n, h, s, segments, payload):
        path = tmp_path / "t.plpt"
        path.write_bytes(raw_trace(n, h, s, segments, payload))
        with pytest.raises(TraceFormatError):
            read_trace(path)
        assert main(["replay", "--trace", str(path)]) == 3


HEADER_WORDS = (0, 1, 2**31, 2**32 - 1)

# (kind, offset or bytes, value); offsets past the end of a shortened file wrap
MUTATIONS = st.one_of(
    st.tuples(st.just("flip"), st.integers(0, 2**16), st.integers(1, 255)),
    st.tuples(st.just("word"), st.integers(1, 5 + 2 * 3), st.sampled_from(HEADER_WORDS)),
    st.tuples(st.just("truncate"), st.integers(0, 2**16), st.none()),
    st.tuples(st.just("append"), st.binary(min_size=1, max_size=16), st.none()),
)


def mutate(raw: bytes, kind, arg, value) -> bytes:
    if kind == "append":
        return raw + arg
    if not raw:
        return raw
    if kind == "flip":
        at = arg % len(raw)
        return raw[:at] + bytes([raw[at] ^ value]) + raw[at + 1:]
    if kind == "word":  # the arg-th u32 after the magic: version, N, H, S, count, segments
        at = 4 * arg
        return raw[:at] + struct.pack("<I", value) + raw[at + 4:] if at + 4 <= len(raw) else raw
    return raw[:arg % len(raw)]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_mutated_trace_exits_0_or_3(data):
    """A damaged trace is replayed or refused as a trace/I/O error, for every
    method; it is a config error (2) only for plphp on one that parses with
    fewer than 4 layers, and never an internal error (4)."""
    n, h = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 3))
    kinds = data.draw(st.lists(st.sampled_from([TEXT, IMAGE]), max_size=2)) + [TEXT]
    segments = tuple(Segment(kind, data.draw(st.integers(1, 4))) for kind in kinds)
    rng = np.random.Generator(np.random.PCG64(data.draw(st.integers(0, 2**32 - 1))))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.plpt"
        write_trace(path, make_trace(rng, n=n, h=h, segments=segments))
        raw = path.read_bytes()
        for change in data.draw(st.lists(MUTATIONS, min_size=1, max_size=3)):
            raw = mutate(raw, *change)
        path.write_bytes(raw)
        try:
            depth = read_trace(path).num_layers
        except TraceFormatError:
            depth = None
        for method in ("none", *METHODS):
            # k = 1 fits every depth, so a trace that still parses is never too
            # shallow for FastV or VTW; plphp's default range [3, N - 1] is
            # empty below N = 4
            code = main(["replay", "--trace", str(path), "--method", method,
                         "--fastv-k", "1", "--vtw-k", "1"])
            shallow = method == "plphp" and depth is not None and depth < 4
            assert code == 2 if shallow else code in (0, 3), (method, depth, code)


@pytest.mark.parametrize("n, code", [(1, 2), (3, 2), (4, 0)])
def test_plphp_replay_needs_a_layer_to_prune(rng, tmp_path, capsys, n, code):
    # layers 1, 2 and N are exempt: a trace of fewer than 4 layers leaves plphp
    # nothing to prune, a config error like FastV's K past the depth
    path = tmp_path / "t.plpt"
    write_trace(path, make_trace(rng, n=n))
    assert main(["replay", "--trace", str(path), "--method", "plphp"]) == code
    if code == 2:
        assert "config error: first pruned layer 3 lies past the last" in capsys.readouterr().err


class TestReplay:
    def test_uniform_attention_all_attentive(self):
        # V/S = 0.4 everywhere, alpha = 0.25 -> every layer vision-attentive
        segments = (Segment(TEXT, 3), Segment(IMAGE, 4), Segment(TEXT, 3))
        rows = np.full((5, 2, 10), 0.1)
        trace = AttentionTrace(5, 2, 10, segments, rows)
        decisions, _ = replay(trace, PruningConfig())
        assert all(d.layer_class == "vision-attentive" for d in decisions)

    def test_all_text_trace(self):
        segments = (Segment(TEXT, 6),)
        rows = np.full((4, 2, 6), 1 / 6)
        trace = AttentionTrace(4, 2, 6, segments, rows)
        decisions, report = replay(trace, PruningConfig())
        assert all(d.gamma == 0.0 for d in decisions)
        assert all(d.layer_class == "vision-indifferent" for d in decisions)
        assert report.retention_rate == 1.0  # no vision tokens to retain


# each method's config as ``main`` builds it from ``--method M --fastv-k 1 --vtw-k 1``
REPLAY_METHODS = {"none": None, "plphp": PruningConfig(), "fastv": FastVConfig(k_layer=1),
                  "vtw": VTWConfig(k_layer=1)}


@pytest.mark.parametrize("method", sorted(REPLAY_METHODS))
def test_cli_replay_makes_no_top_k_call(rng, tmp_path, monkeypatch, method):
    """Replay counts each layer's allocation, so it selects no row; ``replay``,
    which also returns ``decide``'s decisions, shows that the counter counts."""
    segments = (Segment(TEXT, 2), Segment(IMAGE, 6), Segment(TEXT, 1), Segment(IMAGE, 5),
                Segment(TEXT, 2))
    path = tmp_path / "t.plpt"
    write_trace(path, make_trace(rng, n=9, h=3, segments=segments))
    calls = []
    for module in (pruning_module, baselines_module):
        monkeypatch.setattr(module, "argtopk", lambda values, k, real=module.argtopk:
                            calls.append(k) or real(values, k))
    assert main(["replay", "--trace", str(path), "--method", method, "--fastv-k", "1",
                 "--vtw-k", "1", "--report-out", str(tmp_path / "r.json")]) == 0
    assert calls == []
    replay(read_trace(path), REPLAY_METHODS[method])
    assert bool(calls) == (method in ("plphp", "fastv"))


def count_case(n, h, segments, cfg, seed=0):
    """A trace of random softmax rows over ``segments``, and the method config."""
    s = sum(seg.length for seg in segments)
    rng = np.random.Generator(np.random.PCG64(seed))
    rows = np.stack([random_softmax_rows(rng, h, s) for _ in range(n)])
    return AttentionTrace(n, h, s, tuple(segments), rows), cfg


def images(*lengths):
    """Text, then each image followed by text."""
    return [Segment(TEXT, 2), *(seg for n in lengths for seg in (Segment(IMAGE, n),
                                                                 Segment(TEXT, 1)))]


@st.composite
def count_cases(draw):
    method = draw(st.sampled_from(["none", *METHODS]))
    # plphp's default range [3, N - 1] needs N >= 4
    n, h = draw(st.integers(4 if method == "plphp" else 3, 6)), draw(st.integers(1, 3))
    segments = images(*draw(st.lists(st.integers(1, 12), max_size=3)))
    k = draw(st.sampled_from([1, n, draw(st.integers(1, n))]))
    if method == "plphp":
        dr = draw(st.floats(0.0, 0.5))
        beta, alpha = sorted(draw(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2)))
        r = draw(st.sampled_from([dr, draw(st.floats(dr, 1.0 - dr))]))  # r = dr: retention 0
        cfg = PruningConfig(r=r, delta_r=dr, alpha=alpha, beta=beta)
    elif method == "fastv":
        ratio = draw(st.sampled_from([0.0, 1.0, draw(st.floats(0.0, 1.0))]))
        cfg = FastVConfig(k_layer=k, prune_ratio=ratio)
    else:
        cfg = VTWConfig(k_layer=k) if method == "vtw" else None
    return count_case(n, h, segments, cfg, draw(st.integers(0, 2**32 - 1)))


# alpha = beta = 1 makes every layer indifferent (r - dr), alpha = beta = 0 attentive (r + dr)
INDIFFERENT, ATTENTIVE = dict(alpha=1.0, beta=1.0), dict(alpha=0.0, beta=0.0)


@settings(max_examples=100, deadline=None)
@given(case=count_cases())
@example(case=count_case(5, 2, images(7, 3, 1, 12), None))
@example(case=count_case(5, 2, images(7, 3, 1, 12), PruningConfig(r=0.1, delta_r=0.0)))  # K = 1
@example(case=count_case(5, 3, images(4, 9), PruningConfig(r=0.3, delta_r=0.3, **INDIFFERENT)))
@example(case=count_case(4, 2, images(10, 10), PruningConfig(r=0.3, delta_r=0.1, **INDIFFERENT)))
@example(case=count_case(4, 2, images(10, 3), PruningConfig(r=0.7, delta_r=0.1, **ATTENTIVE)))
@example(case=count_case(5, 2, images(7, 3), FastVConfig(k_layer=1, prune_ratio=0.0)))
@example(case=count_case(5, 2, images(7, 3), FastVConfig(k_layer=5, prune_ratio=1.0)))
@example(case=count_case(4, 2, images(60, 40), FastVConfig(k_layer=2, prune_ratio=0.29)))
@example(case=count_case(5, 2, images(7, 3), VTWConfig(k_layer=1)))
@example(case=count_case(5, 2, images(7, 3), VTWConfig(k_layer=5)))
def test_level_one_count_equals_the_count_of_selected_rows(case):
    """The replay report counted from each layer's allocation has the bytes,
    JSON and CSV, of the one counted from ``decide``'s selected rows, and each
    pruned layer selects as many rows as its allocation counts."""
    trace, cfg = case
    got, want = replay_report(trace, cfg), decision_count_report(trace, cfg)
    assert report_to_json(got) == report_to_json(want)
    with tempfile.TemporaryDirectory() as tmp:
        paths = Path(tmp) / "got.csv", Path(tmp) / "want.csv"
        write_report_csv(paths[0], got)
        write_report_csv(paths[1], want)
        assert paths[0].read_bytes() == paths[1].read_bytes()
    seq = build_sequence(trace.segments, seed=0)
    allocations, decisions = allocate(cfg, trace.rows, seq), decide(cfg, trace.rows, seq)
    assert (allocations is None) == (decisions is None)
    for a, d in zip(allocations or (), decisions or (), strict=True):
        assert (a.kept is None) == d.exempt
        if not d.exempt:
            assert d.per_head_retained.shape[1] == a.kept


@pytest.mark.parametrize("cfg", [None, PruningConfig(), FastVConfig(k_layer=2),
                                 VTWConfig(k_layer=2)])
def test_replay_lays_out_the_trace_once_and_draws_no_token_id(monkeypatch, cfg):
    # decide and the count read one layout, built with no token draw; the
    # decisions and report keep their bits
    rng = np.random.Generator(np.random.PCG64(5))
    segments = (Segment(TEXT, 3), Segment(IMAGE, 9), Segment(TEXT, 2), Segment(IMAGE, 5),
                Segment(TEXT, 2))
    trace = AttentionTrace(5, 2, 21, segments,
                           np.stack([random_softmax_rows(rng, 2, 21) for _ in range(5)]))
    want_decisions = decide(cfg, trace.rows, build_sequence(segments, seed=0))
    want_json = report_to_json(decision_count_report(trace, cfg))
    monkeypatch.setattr(layout_module, "make_rng",
                        mock.Mock(side_effect=AssertionError("token ids drawn")))
    layouts = []
    for name in ("decide", "allocate"):
        def recording(cfg, rows, seq, _fn=getattr(trace_module, name)):
            layouts.append(seq)
            return _fn(cfg, rows, seq)
        monkeypatch.setattr(trace_module, name, recording)
    decisions, report = replay(trace, cfg)
    assert len(layouts) == 2 and layouts[0] is layouts[1]
    assert layouts[0].segments == segments
    assert (decisions is None) == (want_decisions is None)
    assert_same_decisions(decisions or [], want_decisions or [])
    assert report_to_json(report) == want_json


@st.composite
def method_config(draw, num_layers):
    method = draw(st.sampled_from(METHODS))
    if method == "plphp":
        dr = draw(st.floats(0.0, 0.5))
        beta, alpha = sorted(draw(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2)))
        return PruningConfig(r=draw(st.floats(dr, 1.0 - dr)), delta_r=dr, alpha=alpha, beta=beta)
    if method == "fastv":
        return FastVConfig(k_layer=draw(st.integers(1, num_layers)),
                           prune_ratio=draw(st.floats(0.0, 1.0)))
    return VTWConfig(k_layer=draw(st.integers(1, num_layers)))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_replay_counts_equal_account_of_live_hook(data):
    """Replay counts RR/KV from decisions; account() counts what a live ``prune`` kept."""
    n = data.draw(st.integers(4, 6))
    h = data.draw(st.integers(1, 3))
    kinds = data.draw(st.lists(st.sampled_from([TEXT, IMAGE]), max_size=4)) + [TEXT]
    segments = [Segment(kind, data.draw(st.integers(1, 6))) for kind in kinds]
    s = sum(seg.length for seg in segments)
    rng = np.random.Generator(np.random.PCG64(data.draw(st.integers(0, 2**32 - 1))))
    trace = AttentionTrace(n, h, s, tuple(segments),
                           np.stack([random_softmax_rows(rng, h, s) for _ in range(n)]))
    cfg = data.draw(method_config(n))

    seq = build_sequence(segments, seed=0)
    full = [layer_from_heads((np.zeros((s, 1)), np.zeros((s, 1)), np.arange(s, dtype=np.int64))
                             for _ in range(h)) for _ in range(n)]
    live_decisions = decide(cfg, trace.rows, seq)
    state = prune(DecoderState(caches=full, next_position=s), seq, live_decisions)
    live = account(state, seq, live_decisions)

    _, offline = replay(trace, cfg)
    assert offline.per_layer == live.per_layer
    assert offline.retention_rate == live.retention_rate
    assert offline.kv_fraction == live.kv_fraction
