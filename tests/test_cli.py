import json

import pytest

from plphp.cli import (ConfigError, build_parser, load_config_file, main, parse_grid,
                       parse_segments, resolve_config)

SMALL_MODEL = ["--model-layers", "4", "--model-heads", "2", "--model-dim", "8",
               "--head-dim", "4", "--vocab-size", "32", "--max-positions", "64",
               "--segments", "T:2,I:6,T:2", "--steps", "0"]


def run_report(tmp_path, name, extra):
    out = tmp_path / name
    code = main(["run", *SMALL_MODEL, "--report-out", str(out), *extra])
    assert code == 0
    return json.loads(out.read_text())


class TestParsing:
    def test_segments(self):
        segs = parse_segments("T:8,I:92,T:4")
        assert [(s.kind, s.length) for s in segs] == [("text", 8), ("image", 92), ("text", 4)]

    def test_bad_segments(self):
        for bad in ("T8", "X:3", "T:0", "T:x"):
            with pytest.raises(ConfigError):
                parse_segments(bad)

    def test_grid(self):
        points = parse_grid("r=0.3|0.4,dr=0.3")
        assert points == [{"r": 0.3, "dr": 0.3}, {"r": 0.4, "dr": 0.3}]

    def test_bad_grid(self):
        with pytest.raises(ConfigError):
            parse_grid("nope")
        with pytest.raises(ConfigError):
            parse_grid("unknown_key=1")

    def test_config_file(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("method = plphp\nr = 0.5  # comment\n\nmodel_layers = 6\n")
        assert load_config_file(cfg) == {"method": "plphp", "r": 0.5, "model_layers": 6}

    def test_config_file_unknown_key(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("bogus = 1\n")
        with pytest.raises(ConfigError):
            load_config_file(cfg)


# a non-default value for every config key, as it is written on the command line
KEY_VALUES = {
    "model_layers": "5", "model_heads": "3", "model_dim": "12", "head_dim": "4",
    "vocab_size": "64", "max_positions": "99", "segments": "T:2,I:3,T:1",
    "method": "fastv", "r": "0.45", "dr": "0.2", "alpha": "0.3", "beta": "0.05",
    "fastv_k": "2", "fastv_ratio": "0.25", "vtw_k": "5", "seed": "7", "steps": "20",
    "trace_out": "t.plpt", "report_out": "r.json",
}


@pytest.mark.parametrize("key", sorted(KEY_VALUES))
def test_flag_and_config_file_agree(tmp_path, key):
    defaults = resolve_config(build_parser().parse_args(["run"]))
    assert set(defaults) == set(KEY_VALUES)
    from_flag = resolve_config(build_parser().parse_args(
        ["run", "--" + key.replace("_", "-"), KEY_VALUES[key]]))[key]
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"{key} = {KEY_VALUES[key]}\n")
    from_file = resolve_config(build_parser().parse_args(["run", "--config", str(cfg)]))[key]
    default = defaults[key]
    assert from_flag == from_file != default
    assert type(from_flag) is type(from_file) is (str if default is None else type(default))


class TestRun:
    def test_method_none_unity(self, tmp_path):
        report = run_report(tmp_path, "r.json", ["--method", "none"])
        assert report["retention_rate"] == 1.0
        assert report["kv_fraction"] == 1.0

    def test_default_setting_prunes(self, tmp_path):
        report = run_report(tmp_path, "r.json", ["--method", "plphp", "--r", "0.4",
                                                 "--dr", "0.3", "--alpha", "0.25",
                                                 "--beta", "0.1"])
        assert report["kv_fraction"] < 1.0
        assert (tmp_path / "r.csv").exists()

    def test_byte_identical_reports(self, tmp_path):
        args = ["--method", "plphp", "--seed", "7"]
        run_report(tmp_path, "a.json", args)
        run_report(tmp_path, "b.json", args)
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_flag_overrides_config_file(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("method = none\nsteps = 0\n")
        out = tmp_path / "r.json"
        code = main(["run", *SMALL_MODEL, "--config", str(cfg),
                     "--method", "vtw", "--vtw-k", "1", "--report-out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["retention_rate"] == 0.0  # vtw won over the file's "none"

    def test_config_error_exit_code(self, tmp_path):
        # delta_r > r violates the pruning config invariant
        assert main(["run", *SMALL_MODEL, "--method", "plphp",
                     "--r", "0.1", "--dr", "0.5"]) == 2

    def test_io_error_exit_code(self, tmp_path):
        assert main(["run", *SMALL_MODEL, "--method", "none",
                     "--report-out", str(tmp_path / "no" / "dir" / "r.json")]) == 3


class TestSweep:
    def test_kv_monotone_in_r(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", *SMALL_MODEL, "--method", "plphp",
                     "--grid", "r=0.3|0.4|0.5,dr=0.3", "--report-out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("# sweep csv v")
        rows = [dict(zip(lines[1].split(","), line.split(","))) for line in lines[2:]]
        assert len(rows) == 3
        kv = [float(r["KV"]) for r in rows]
        assert kv == sorted(kv)

    def test_invalid_point_marked_failed(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", *SMALL_MODEL, "--method", "plphp",
                     "--grid", "r=0.2|0.4,dr=0.3", "--report-out", str(out)])
        assert code == 0
        body = out.read_text()
        assert "failed" in body  # r=0.2 < dr=0.3 violates the invariant
        assert body.count("ok") == 1

    def test_empty_grid_rejected(self, tmp_path):
        assert main(["sweep", *SMALL_MODEL, "--grid", ""]) == 2


class TestReplay:
    def test_round_trip_matches_run(self, tmp_path):
        trace = tmp_path / "run.plpt"
        run_out = tmp_path / "run.json"
        main(["run", *SMALL_MODEL, "--method", "plphp",
              "--trace-out", str(trace), "--report-out", str(run_out)])
        replay_out = tmp_path / "replay.json"
        code = main(["replay", "--trace", str(trace), "--report-out", str(replay_out)])
        assert code == 0
        live = json.loads(run_out.read_text())
        offline = json.loads(replay_out.read_text())
        assert live["retention_rate"] == offline["retention_rate"]
        assert live["kv_fraction"] == offline["kv_fraction"]

    @pytest.mark.parametrize("method", ["none", "plphp", "fastv", "vtw"])
    def test_replay_method_matches_run(self, tmp_path, method):
        trace = tmp_path / "run.plpt"
        args = ["--method", method, "--fastv-k", "2", "--vtw-k", "3"]
        live = run_report(tmp_path, "run.json", [*args, "--trace-out", str(trace)])
        replay_out = tmp_path / "replay.json"
        assert main(["replay", "--trace", str(trace), *args,
                     "--report-out", str(replay_out)]) == 0
        offline = json.loads(replay_out.read_text())
        assert offline["retention_rate"] == live["retention_rate"]
        assert offline["kv_fraction"] == live["kv_fraction"]
        assert offline["per_layer"] == live["per_layer"]

    def test_missing_trace_exit_code(self, tmp_path):
        assert main(["replay", "--trace", str(tmp_path / "nope.plpt")]) == 3

    def test_corrupt_trace_exit_code(self, tmp_path):
        bad = tmp_path / "bad.plpt"
        bad.write_bytes(b"JUNKJUNKJUNK")
        assert main(["replay", "--trace", str(bad)]) == 3
