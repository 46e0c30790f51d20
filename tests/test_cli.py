"""The CLI: parsing, config files, the three subcommands, exit codes, input
bounds, and README's account of every flag, key, column and trace field.
``replay --method M`` is checked against ``run --method M`` for each method.
"""

import csv
import dataclasses
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import dict_writer_csv, json_report
from plphp import FastVConfig, PruningConfig, VTWConfig, cli, init_model, metrics, pruning
from plphp.trace import MAGIC, VERSION, AttentionTrace, read_trace, replay
from plphp.cli import (ConfigError, build_parser, load_config_file, main, parse_grid,
                       parse_segments, resolve_config)

SMALL_MODEL = ["--model-layers", "4", "--model-heads", "2", "--head-dim", "4",
               "--vocab-size", "32", "--max-positions", "64", "--segments", "T:2,I:6,T:2",
               "--steps", "0"]


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
        # a segments value holds commas: only a comma before ``key=`` starts an entry
        assert parse_grid("segments=T:8,I:92,T:4|T:4,I:8,T:2,dr=0.3") == [
            {"segments": "T:8,I:92,T:4", "dr": 0.3}, {"segments": "T:4,I:8,T:2", "dr": 0.3}]

    def test_bad_grid(self):
        with pytest.raises(ConfigError):
            parse_grid("nope")
        for key in ("unknown_key", "model_dim"):
            with pytest.raises(ConfigError, match=f"unknown grid key '{key}'"):
                parse_grid(f"{key}=1")
        for key in ("trace_out", "report_out", "report-out"):  # no point would use them
            with pytest.raises(ConfigError):
                parse_grid(f"r=0.4,{key}=x.csv")
        for spec in ("r=0.3,r=0.5", "fastv_k=1,r=0.4,fastv-k=2"):  # a key given twice
            with pytest.raises(ConfigError, match="twice"):
                parse_grid(spec)
        assert main(["sweep", *SMALL_MODEL, "--grid", "report_out=/nonexistent/x"]) == 2
        assert main(["sweep", *SMALL_MODEL, "--grid", "model_dim=8",
                     "--report-out", "/nonexistent/x"]) == 2
        assert main(["sweep", *SMALL_MODEL, "--grid", "r=0.3,r=0.5",
                     "--report-out", "/nonexistent/x"]) == 2

    @pytest.mark.parametrize("argv", [
        ["replay", "--trace", "run.plpt", "--seed", "1"],
        ["replay", "--trace", "run.plpt", "--steps", "-9"],
        ["sweep", "--grid", "r=0.4", "--trace-out", "t.plpt"],
    ])
    def test_flags_a_subcommand_never_reads_are_refused(self, argv):
        with pytest.raises(SystemExit) as e:
            main(argv)
        assert e.value.code == 2

    def test_subcommand_flags(self):
        required = {"run": [], "sweep": ["--grid", "r=0.4"], "replay": ["--trace", "t.plpt"]}
        flags = {name: set(vars(build_parser().parse_args([name, *argv])))
                 - {"command", "fn", "config", "grid", "trace"}
                 for name, argv in required.items()}
        assert flags["run"] == set(cli._KEYS)
        assert flags["sweep"] == set(cli._KEYS) - {"trace_out"}
        assert flags["replay"] == set(cli._METHOD_KEYS) | {"report_out"}

    def test_one_config_file_serves_run_and_replay(self, tmp_path):
        trace, cfg = tmp_path / "run.plpt", tmp_path / "exp.cfg"
        values = dict(zip(SMALL_MODEL[::2], SMALL_MODEL[1::2]))
        cfg.write_text("".join(f"{flag[2:].replace('-', '_')} = {value}\n"
                               for flag, value in values.items())
                       + f"method = plphp\nr = 0.5\ntrace_out = {trace}\n"
                       + f"report_out = {tmp_path / 'run.json'}\n")
        assert main(["run", "--config", str(cfg)]) == 0
        assert main(["replay", "--config", str(cfg), "--trace", str(trace),
                     "--report-out", str(tmp_path / "replay.json")]) == 0
        live = json.loads((tmp_path / "run.json").read_text())
        assert json.loads((tmp_path / "replay.json").read_text())["per_layer"] == \
            live["per_layer"]

    def test_one_parser_serves_every_main_call(self, tmp_path):
        # main() parses each argv with the same parser: built on the first
        # call, then reused across subcommands with the same exit codes
        trace = tmp_path / "run.plpt"
        build_parser.cache_clear()
        with mock.patch.object(cli, "_add_config_flags", wraps=cli._add_config_flags) as flags:
            assert main(["run", *SMALL_MODEL, "--method", "plphp", "--trace-out", str(trace),
                         "--report-out", str(tmp_path / "run.json")]) == 0
            assert main(["replay", "--trace", str(trace),
                         "--report-out", str(tmp_path / "replay.json")]) == 0
            with pytest.raises(SystemExit) as e:
                main(["replay", "--trace", str(trace), "--seed", "1"])
            assert e.value.code == 2
            assert main(["replay", "--trace", str(tmp_path / "missing.plpt")]) == 3
        assert flags.call_count == len(cli._SUBCOMMAND_KEYS)  # once per subcommand: one build
        assert json.loads((tmp_path / "replay.json").read_text())["per_layer"] == \
            json.loads((tmp_path / "run.json").read_text())["per_layer"]

    def test_config_file(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("method = plphp\nr = 0.5  # comment\n\nmodel_layers = 6\n")
        assert load_config_file(cfg) == {"method": "plphp", "r": 0.5, "model_layers": 6}

    def test_config_file_unknown_key(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        for key in ("bogus", "model_dim"):  # the width is model_heads x head_dim
            cfg.write_text(f"{key} = 8\n")
            with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
                load_config_file(cfg)
            assert main(["run", *SMALL_MODEL, "--config", str(cfg)]) == 2


# a non-default value for every config key, as it is written on the command line
KEY_VALUES = {
    "model_layers": "5", "model_heads": "3", "head_dim": "4",
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

    @pytest.mark.parametrize("extra", [
        ["--method", "fastv", "--fastv-k", "9"],      # deeper than the 4-layer model
        ["--segments", "T:2,I:6"],                     # prompt ends in an image
        ["--head-dim", "0"],                           # no columns per head
        ["--max-positions", "12", "--steps", "3"],     # 10 prompt rows + 3 steps
        ["--seed", "-1"],
    ])
    def test_user_input_errors_exit_2(self, extra):
        assert main(["run", *SMALL_MODEL, *extra]) == 2

    @pytest.mark.parametrize("extra", [["--model-heads", "2"], ["--head-dim", "4"]])
    def test_one_model_size_key_alone_runs(self, extra):
        # the model width is heads x head_dim, so either one changes alone
        assert main(["run", *extra]) == 0
        cfg = resolve_config(build_parser().parse_args(["run", *extra]))
        assert cli.experiment_inputs(cfg)[0].model_dim == cfg["model_heads"] * cfg["head_dim"]

    @pytest.mark.parametrize("source", ["flag", "config file"])
    def test_negative_seed_names_the_key_and_value(self, tmp_path, capsys, source):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("seed = -1\n")
        argv = ["--seed", "-1"] if source == "flag" else ["--config", str(cfg)]
        assert main(["run", *SMALL_MODEL, *argv]) == 2
        assert "config error: seed must be >= 0, got -1" in capsys.readouterr().err

    def test_internal_value_error_exits_4(self, monkeypatch, capsys):
        # a broken invariant below the CLI is an internal error, not a config error
        def broken(cache, text_union, retained_vision):
            raise ValueError("retained positions [3] not present in cache")
        monkeypatch.setattr(pruning, "prune_head_cache", broken)
        assert main(["run", *SMALL_MODEL, "--method", "plphp"]) == 4
        err = capsys.readouterr().err
        assert "internal error" in err
        assert "Traceback" in err and "in broken" in err

    def test_io_error_exit_code(self, tmp_path):
        assert main(["run", *SMALL_MODEL, "--method", "none",
                     "--report-out", str(tmp_path / "no" / "dir" / "r.json")]) == 3

    @pytest.mark.parametrize("argv", [
        ["run", "--report-out", "r.csv"],                         # the JSON is its own CSV
        ["run", "--trace-out", "x.json", "--report-out", "x.json"],
        ["run", "--trace-out", "r.csv", "--report-out", "r.json"],
        ["run", "--trace-out", "x.json", "--report-out", "sub/../x.json"],
        ["replay", "--trace", "t.plpt", "--report-out", "t.plpt"],
        ["replay", "--trace", "t.csv", "--report-out", "./t.json"],
        ["replay", "--trace", "t.plpt", "--report-out", "link.plpt"],  # a symlink to it
        # the outputs never overwrite the config file
        ["run", "--config", "x.cfg", "--report-out", "x.cfg"],
        ["run", "--config", "x.cfg", "--trace-out", "x.cfg"],
        ["run", "--config", "self.cfg"],                           # it names itself
        ["replay", "--trace", "t.plpt", "--config", "x.cfg", "--report-out", "x.cfg"],
        ["sweep", "--grid", "r=0.4", "--config", "x.cfg", "--report-out", "x.cfg"],
        ["sweep", "--grid", "r=0.4", "--config", "sweep.csv"],     # the default CSV
    ])
    def test_outputs_that_are_one_file_exit_2(self, small_trace, tmp_path, monkeypatch, argv):
        # refused before any work: every file, the input trace and config too,
        # is left as it was
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        for name in ("t.plpt", "t.csv"):
            (tmp_path / name).write_bytes(small_trace.read_bytes())
        for name in ("r.csv", "r.json", "x.json"):
            (tmp_path / name).write_text("untouched\n")
        for name in ("x.cfg", "sweep.csv"):
            (tmp_path / name).write_text("method = plphp\n")
        (tmp_path / "self.cfg").write_text("report_out = self.cfg\n")
        (tmp_path / "link.plpt").symlink_to("t.plpt")
        before = {path: path.read_bytes() for path in tmp_path.iterdir() if path.is_file()}
        model_flags = SMALL_MODEL if argv[0] in ("run", "sweep") else []
        assert main([argv[0], *model_flags, *argv[1:]]) == 2
        assert {path: path.read_bytes() for path in tmp_path.iterdir()
                if path.is_file()} == before

    def test_method_defaults_are_the_configs_defaults(self):
        cfg = resolve_config(build_parser().parse_args(["run"]))
        for method, want in (("plphp", PruningConfig()), ("fastv", FastVConfig()),
                             ("vtw", VTWConfig())):
            assert cli.method_config({**cfg, "method": method}, 8) == want


# fuzzed keys with their small valid values, and the values that try them
FUZZ_INTS = {"model_layers": [4, 5], "model_heads": [1, 2], "head_dim": [2, 4],
             "vocab_size": [8, 32], "max_positions": [12, 64],
             "seed": [3], "steps": [1, 2], "fastv_k": [1, 3], "vtw_k": [2]}
FUZZ_FLOATS = {"r": [0.5], "dr": [0.2], "alpha": [0.3], "beta": [0.05],
               "fastv_ratio": [0.25]}
FUZZ_HUGE = [10**20, -10**20, -1, 0]
FUZZ_SPECIAL_FLOATS = [float("nan"), float("inf"), float("-inf"), -0.0]
# method values for replay and sweep: the specials above, boundaries and the
# extremes of the float range
METHOD_FUZZ_FLOATS = [*FUZZ_SPECIAL_FLOATS, 0.0, 1e308, -1.0, 1e-320]
METHOD_FUZZ_INTS = [0, -1, 10**20]
METHOD_FUZZ = {key: ((METHOD_FUZZ_INTS if key in FUZZ_INTS else METHOD_FUZZ_FLOATS)
                     + (FUZZ_INTS | FUZZ_FLOATS)[key])
               for key in cli._METHOD_KEYS if key != "method"}
METHODS = ["none", "plphp", "fastv", "vtw"]


@pytest.fixture(scope="module")
def small_trace(tmp_path_factory):
    trace = tmp_path_factory.mktemp("replay") / "run.plpt"
    assert main(["run", *SMALL_MODEL, "--method", "plphp", "--trace-out", str(trace)]) == 0
    return trace


def exit_code(argv) -> int:
    try:
        return main(argv)
    except SystemExit as e:  # argparse refuses a value it cannot convert
        return e.code


class TestInputBounds:
    """``run``'s flags and config-file values are fuzzed with huge, negative,
    zero, NaN and infinite values, and ``replay``'s method keys over a
    recorded trace and single-point ``sweep`` grids, every method, with NaN,
    +-inf, -0.0, 0, 1e308, -1, 1e-320, 10^20 and valid values: each exits 0
    or 2. The oversized cases also run in a child process whose address
    space is capped at 1 GiB."""

    @pytest.mark.parametrize("extra", [
        ["--steps", "-5"],
        ["--segments", "T:1,I:3000000000,T:1"],                  # 22 GiB of positions
        ["--segments", "T:30,I:28,T:6", "--steps", "1"],          # 64 rows + 1 step
    ])
    def test_refused_before_the_prompt_is_built(self, monkeypatch, extra):
        build = mock.Mock(side_effect=AssertionError("build_sequence reached"))
        monkeypatch.setattr(cli, "build_sequence", build)
        assert main(["run", *SMALL_MODEL, *extra]) == 2
        build.assert_not_called()

    @pytest.mark.parametrize("extra", [["--vocab-size", str(10**12)],      # 233 TiB of weights
                                       ["--max-positions", str(10**11)]])  # 23 TiB
    def test_weights_capped_before_init_model(self, monkeypatch, extra):
        init = mock.Mock(side_effect=AssertionError("init_model reached"))
        monkeypatch.setattr(cli, "init_model", init)
        assert main(["run", *SMALL_MODEL, *extra]) == 2
        init.assert_not_called()

    def test_weight_cap_counts_every_weight(self):
        cfg = {"segments": "T:4", "steps": 0, "seed": 0, "model_layers": 4, "model_heads": 2,
               "head_dim": 4, "vocab_size": 16, "max_positions": 8}
        model_cfg, _ = cli.experiment_inputs(cfg)
        w = init_model(model_cfg, 0)
        floats = sum(getattr(w, f.name).size for f in dataclasses.fields(w))
        # the largest vocabulary that still fits, and one more
        vocab = (cli.MAX_WEIGHT_FLOATS - (floats - 2 * 16 * 8)) // (2 * 8)
        assert cli.experiment_inputs({**cfg, "vocab_size": vocab})[0].vocab_size == vocab
        with pytest.raises(cli.ConfigError):
            cli.experiment_inputs({**cfg, "vocab_size": vocab + 1})

    def test_config_file_bounded_and_utf8(self, tmp_path):
        # a file of MAX_CONFIG_BYTES loads; one byte more, or a byte that is
        # not UTF-8, is a config error (exit 2), not an internal one
        cfg = tmp_path / "exp.cfg"
        cfg.write_bytes(b"method = plphp\n#" + b"x" * (cli.MAX_CONFIG_BYTES - 17) + b"\n")
        assert load_config_file(cfg) == {"method": "plphp"}
        bad = {"large.cfg": cfg.read_bytes() + b"\n", "latin1.cfg": b"method = plphp # \xff\n"}
        for name, data in bad.items():
            (tmp_path / name).write_bytes(data)
            with pytest.raises(ConfigError):
                load_config_file(tmp_path / name)
            assert main(["run", *SMALL_MODEL, "--config", str(tmp_path / name)]) == 2

    def test_grid_points_capped_before_the_product(self, monkeypatch):
        def values(n):
            return "|".join(str(0.3 + i / 1e4) for i in range(n))

        side = int(cli.MAX_GRID_POINTS ** 0.5)
        assert len(parse_grid(f"r={values(side)},dr={values(cli.MAX_GRID_POINTS // side)}")) \
            == cli.MAX_GRID_POINTS
        product = mock.Mock(side_effect=AssertionError("itertools.product reached"))
        monkeypatch.setattr(cli.itertools, "product", product)
        grid = f"r={values(side + 1)},dr={values(cli.MAX_GRID_POINTS // side)}"
        assert main(["sweep", *SMALL_MODEL, "--grid", grid]) == 2
        product.assert_not_called()

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_fuzzed_values_exit_0_or_2(self, data):
        # up to three keys huge, negative or zero (integers) or NaN, +-inf or
        # -0.0 (floats); every other key absent or small and valid; all given
        # as flags or all in a config file. No value may be an internal
        # error, and none may allocate its way to one.
        values = {flag[2:].replace("-", "_"): value
                  for flag, value in zip(SMALL_MODEL[::2], SMALL_MODEL[1::2])}
        values["method"] = data.draw(st.sampled_from(["none", "plphp", "fastv", "vtw"]))
        bad = data.draw(st.sets(st.sampled_from([*FUZZ_INTS, *FUZZ_FLOATS]), max_size=3))
        for key, valid in {**FUZZ_INTS, **FUZZ_FLOATS}.items():
            special = FUZZ_HUGE if key in FUZZ_INTS else FUZZ_SPECIAL_FLOATS
            value = data.draw(st.sampled_from(special) if key in bad
                              else st.none() | st.sampled_from(valid), label=key)
            if value is not None:
                values[key] = repr(value)
        with tempfile.TemporaryDirectory() as tmp:
            if data.draw(st.booleans(), label="config file"):
                cfg = Path(tmp) / "fuzz.cfg"
                cfg.write_text("".join(f"{key} = {value}\n" for key, value in values.items()))
                argv = ["run", "--config", str(cfg)]
            else:
                argv = ["run", *(f"--{key.replace('_', '-')}={value}"
                                 for key, value in values.items())]
            code = exit_code(argv)
        assert code in (0, 2), values

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_fuzzed_replay_values_exit_0_or_2(self, small_trace, data):
        # every method over a recorded trace, each method key absent, valid
        # or special; values as --key=value, so argparse reads -inf as a value
        argv = ["replay", "--trace", str(small_trace),
                f"--method={data.draw(st.sampled_from(METHODS), label='method')}"]
        for key, values in METHOD_FUZZ.items():
            value = data.draw(st.none() | st.sampled_from(values), label=key)
            if value is not None:
                argv.append(f"--{key.replace('_', '-')}={value!r}")
        assert exit_code(argv) in (0, 2), argv

    @settings(max_examples=30, deadline=None)
    @given(method=st.sampled_from(METHODS),
           point=st.sampled_from(list(METHOD_FUZZ)).flatmap(
               lambda key: st.tuples(st.just(key), st.sampled_from(METHOD_FUZZ[key]))))
    def test_fuzzed_sweep_point_exits_0_or_2(self, method, point):
        key, value = point
        with tempfile.TemporaryDirectory() as tmp:
            argv = ["sweep", *SMALL_MODEL, f"--method={method}", f"--grid={key}={value!r}",
                    f"--report-out={Path(tmp) / 'sweep.csv'}"]
            assert exit_code(argv) in (0, 2), argv

    def test_huge_inputs_refused_under_an_address_space_limit(self):
        # one child, its address space capped at 1 GiB once plphp is imported:
        # each case must be refused (exit 2), not run out of memory or be killed
        cases = [["--vocab-size", str(10**12)], ["--segments", "T:1,I:3000000000,T:1"],
                 ["--max-positions", str(10**11)]]
        child = (
            "import resource\n"
            "from plphp.cli import main\n"
            "resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))\n"
            f"print([main(['run', *{SMALL_MODEL!r}, *extra]) for extra in {cases!r}])\n")
        src = str(Path(__file__).resolve().parents[1] / "src")
        done = subprocess.run([sys.executable, "-c", child],
                              env={**os.environ, "PYTHONPATH": src},
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "[2, 2, 2]", done.stdout + done.stderr


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

    def test_method_only_grid_keeps_its_bytes(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", *SMALL_MODEL, "--method", "plphp",
                     "--grid", "r=0.3|0.4|0.5,dr=0.1|0.3", "--report-out", str(out)]) == 0
        assert out.read_bytes() == (
            b"# sweep csv v1\n"
            b"method,r,dr,alpha,beta,fastv_k,fastv_ratio,vtw_k,RR,KV,latency_ms,status\r\n"
            b"plphp,0.3,0.1,0.25,0.1,3,0.5,4,0.833333,0.900000,,ok\r\n"
            b"plphp,0.3,0.3,0.25,0.1,3,0.5,4,0.875000,0.925000,,ok\r\n"
            b"plphp,0.4,0.1,0.25,0.1,3,0.5,4,0.875000,0.925000,,ok\r\n"
            b"plphp,0.4,0.3,0.25,0.1,3,0.5,4,0.916667,0.950000,,ok\r\n"
            b"plphp,0.5,0.1,0.25,0.1,3,0.5,4,0.875000,0.925000,,ok\r\n"
            b"plphp,0.5,0.3,0.25,0.1,3,0.5,4,0.916667,0.950000,,ok\r\n")

    def test_model_key_grid_rows_name_their_points(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", *SMALL_MODEL, "--grid", "seed=0|-1,model_layers=4|5",
                     "--report-out", str(out)]) == 0
        reader = csv.DictReader(out.read_text().splitlines()[1:])
        assert reader.fieldnames == [*cli._METHOD_KEYS, "seed", "model_layers",
                                     "RR", "KV", "latency_ms", "status"]
        rows = list(reader)  # a failed point's message holds a comma, so it is quoted
        assert [(r["seed"], r["model_layers"], r["status"]) for r in rows] == [
            ("0", "4", "ok"), ("0", "5", "ok"),
            ("-1", "4", "failed: seed must be >= 0, got -1"),
            ("-1", "5", "failed: seed must be >= 0, got -1")]

    def test_layout_grid_rows_name_their_layouts(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", *SMALL_MODEL, "--grid", "segments=T:8,I:40,T:4|T:4,I:8,T:2",
                     "--report-out", str(out)]) == 0
        rows = list(csv.DictReader(out.read_text().splitlines()[1:]))
        assert [(r["segments"], r["status"]) for r in rows] == [
            ("T:8,I:40,T:4", "ok"), ("T:4,I:8,T:2", "ok")]

    def test_empty_grid_rejected(self, tmp_path):
        assert main(["sweep", *SMALL_MODEL, "--grid", ""]) == 2

    def test_bad_grid_value_rejected(self, tmp_path):
        assert main(["sweep", *SMALL_MODEL, "--grid", "r=0.4|high",
                     "--report-out", str(tmp_path / "s.csv")]) == 2

    def test_internal_value_error_is_not_a_failed_point(self, monkeypatch, tmp_path):
        def broken(cache, text_union, retained_vision):
            raise ValueError("retained positions [3] not present in cache")
        monkeypatch.setattr(pruning, "prune_head_cache", broken)
        out = tmp_path / "sweep.csv"
        assert main(["sweep", *SMALL_MODEL, "--method", "plphp", "--grid", "r=0.4",
                     "--report-out", str(out)]) == 4
        assert not out.exists()


class TestReplay:
    def test_replay_validates_the_trace_once(self, tmp_path):
        # read_trace is the one gate: the replay itself does not validate again
        trace = tmp_path / "run.plpt"
        assert main(["run", *SMALL_MODEL, "--method", "plphp", "--trace-out", str(trace)]) == 0
        with mock.patch.object(AttentionTrace, "validate", autospec=True,
                               side_effect=AttentionTrace.validate) as validate:
            assert main(["replay", "--trace", str(trace),
                         "--report-out", str(tmp_path / "replay.json")]) == 0
        assert validate.call_count == 1

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

    @pytest.mark.parametrize("method, cfg", [
        ("none", None), ("plphp", PruningConfig()),
        ("fastv", FastVConfig(k_layer=2)), ("vtw", VTWConfig(k_layer=3))])
    def test_replay_writes_json_dumps_and_dict_writer_bytes(self, small_trace, tmp_path,
                                                            method, cfg):
        # the files replay writes, byte for byte, against json.dumps and
        # csv.DictWriter over replay's report of the same trace and method
        out = tmp_path / "replay.json"
        assert main(["replay", "--trace", str(small_trace), "--method", method,
                     "--fastv-k", "2", "--vtw-k", "3", "--report-out", str(out)]) == 0
        _, report = replay(read_trace(small_trace), cfg)
        assert out.read_text() == json_report(report)
        assert out.with_suffix(".csv").read_bytes() == dict_writer_csv(report)

    def test_missing_trace_exit_code(self, tmp_path):
        assert main(["replay", "--trace", str(tmp_path / "nope.plpt")]) == 3

    def test_corrupt_trace_exit_code(self, tmp_path):
        bad = tmp_path / "bad.plpt"
        bad.write_bytes(b"JUNKJUNKJUNK")
        assert main(["replay", "--trace", str(bad)]) == 3


def test_readme_documents_every_flag_key_column_and_trace_field():
    # every name is read from the code, so a flag, default, column or trace
    # field the code gains or changes without README following fails here
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    keys = {"--" + key.replace("_", "-"): key for key in cli._KEYS}
    flags = [*keys, "--config", "--grid", "--trace"]
    assert [flag for flag in flags if flag not in text] == []
    rows = {cells[0].strip("`"): cells for cells in
            ([c.strip() for c in line.split("|")[1:-1]] for line in text.splitlines()
             if line.startswith("| `--"))}
    assert sorted(rows) == sorted(flags)  # the flag table names each flag once
    for flag, key in keys.items():
        kind, default = cli._KEYS[key]
        subcommands = [name for name, read in cli._SUBCOMMAND_KEYS.items() if key in read]
        _, type_cell, default_cell, subcommand_cell, _ = rows[flag]
        assert type_cell == kind.__name__, flag
        assert default_cell.startswith("unset" if default is None else f"`{default}`"), flag
        assert subcommand_cell == ("all" if len(subcommands) == len(cli._SUBCOMMAND_KEYS)
                                   else ", ".join(subcommands)), flag
    for code in (0, 2, 3, 4):
        assert f"| `{code}` |" in text, code
    assert ",".join(metrics.CSV_COLUMNS) in text
    assert all(f"`{field.name}`" in text for field in dataclasses.fields(metrics.MetricsReport))
    assert ",".join(cli._METHOD_KEYS) in text and "RR,KV,latency_ms,status" in text
    assert f'magic "{MAGIC.decode()}"' in text and f"version = {VERSION}" in text
