import struct
import tempfile
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_softmax_rows
from helpers import layer_from_heads
from plphp import (IMAGE, TEXT, FastVConfig, PruningConfig, Segment, VTWConfig,
                   account, build_sequence, decide, prune)
from plphp import pruning as pruning_module
from plphp import trace as trace_module
from plphp.cli import main
from plphp.model import DecoderState
from plphp.trace import AttentionTrace, TraceFormatError, read_trace, replay, write_trace

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
    method; it is never a config error (2) or an internal error (4)."""
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
        for method in ("none", *METHODS):
            # k = 1 fits every depth, so a trace that still parses is never too shallow
            code = main(["replay", "--trace", str(path), "--method", method,
                         "--fastv-k", "1", "--vtw-k", "1"])
            assert code in (0, 3), (method, code)


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


def test_cli_replay_takes_one_top_k_per_image_and_retention(rng, tmp_path, monkeypatch):
    segments = (Segment(TEXT, 2), Segment(IMAGE, 6), Segment(TEXT, 1), Segment(IMAGE, 5),
                Segment(TEXT, 1), Segment(IMAGE, 7), Segment(TEXT, 2))
    path = tmp_path / "t.plpt"
    write_trace(path, make_trace(rng, n=9, h=3, segments=segments))
    # gammas around V/S = 0.75, so the pruned layers take more than one retention
    cfg = PruningConfig(alpha=0.76, beta=0.74)
    decisions, _ = replay(read_trace(path), cfg)
    retentions = {d.retention for d in decisions if not d.exempt}
    assert len(retentions) >= 2
    calls = []
    real = pruning_module.argtopk
    monkeypatch.setattr(pruning_module, "argtopk",
                        lambda values, k: calls.append(k) or real(values, k))
    assert main(["replay", "--trace", str(path), "--method", "plphp",
                 "--alpha", "0.76", "--beta", "0.74"]) == 0
    assert 0 < len(calls) <= 3 * len(retentions)


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
