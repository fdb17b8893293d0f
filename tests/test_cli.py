import inspect
import json
import math
import os
import re
import subprocess
import sys
import typing
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

import dengfan.cli
import dengfan.hyp2f1
import dengfan.scatter
from dengfan import (DEFAULT_PARAMS, TABLE1, BoundaryNotDecayedError, IntegrationConfig,
                     barrier_top, default_config, integrate_scatter, potential, scan)
from dengfan.cli import RunConfig, _json_pieces, build_parser, main

from helpers import load_benchmark_module

EXPECTED_HEADER = "E,E_over_Vmax,T,R,unitarity_residual"
EXPECTED_HEADER_ORACLE = EXPECTED_HEADER + ",T_oracle,R_oracle,delta_T"


def run(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse usage failures
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


# ---------------------------------------------------------------------------
# scatter
# ---------------------------------------------------------------------------

def test_scatter_table1_csv(capsys):
    code, out, err = run(["scatter", "--table1"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == EXPECTED_HEADER
    assert len(lines) == 21
    for line, (E, T, R) in zip(lines[1:], TABLE1):
        cols = [float(v) for v in line.split(",")]
        assert cols[0] == pytest.approx(E, abs=1e-12)
        assert cols[2] == pytest.approx(T, abs=1e-5)
        assert cols[3] == pytest.approx(R, abs=1e-5)
        assert cols[4] <= 1e-9


def test_scatter_output_deterministic(capsys):
    _, first, _ = run(["scatter", "--table1"], capsys)
    _, second, _ = run(["scatter", "--table1"], capsys)
    assert first == second


def test_scatter_json_roundtrip(tmp_path, capsys):
    code, out, _ = run(["scatter", "--table1", "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert len(doc["rows"]) == 20
    assert set(doc["rows"][0]) == set(EXPECTED_HEADER.split(","))
    # the echoed config, given back as a --config file, runs the same scan
    # and echoes itself
    cfg = tmp_path / "echo.json"
    cfg.write_text(json.dumps(doc["config"]))
    code, again, _ = run(["scatter", "--config", str(cfg)], capsys)
    assert code == 0
    assert json.loads(again)["config"] == doc["config"]
    assert again == out


@pytest.mark.parametrize("log_grid", [False, True])
def test_run_config_energies_are_the_grid_array(log_grid):
    space = np.geomspace if log_grid else np.linspace
    for n_points in (1, 2, 7):
        config = RunConfig(params=DEFAULT_PARAMS, e_min=0.01, e_max=0.3, n_points=n_points,
                           log_grid=log_grid)
        energies = config.energies()
        assert isinstance(energies, np.ndarray) and energies.dtype == np.float64
        assert energies.tolist() == space(0.01, 0.3, n_points).tolist()
        assert energies[0] == 0.01 and (n_points == 1 or energies[-1] == 0.3)


def indented_dumps(config: dict, columns: dict) -> str:
    """The stdlib's indent=2 layout of a table of named columns."""
    rows = [dict(zip(columns, row)) for row in zip(*(c.tolist() for c in columns.values()))]
    doc = {"config": config, "rows": rows}
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=True) + "\n"


def joined_pieces(monkeypatch, config: dict, columns: dict) -> list[str]:
    """``_json_pieces`` of the table, which must be the same text whether or
    not the writer formats each distinct bit pattern of a piece once (it
    does on pieces of ``_DISTINCT_ROWS`` rows or more); the pieces of the
    default setting."""
    with monkeypatch.context() as patch:
        patch.setattr(dengfan.cli, "_DISTINCT_ROWS", 1)
        distinct = "".join(_json_pieces(config, columns))
    with monkeypatch.context() as patch:
        patch.setattr(dengfan.cli, "_DISTINCT_ROWS", 1 << 30)
        each = "".join(_json_pieces(config, columns))
    assert distinct == each
    return list(_json_pieces(config, columns))


def float_columns(header, *columns) -> dict:
    return {key: np.array(column, dtype=float) for key, column in zip(header, columns)}


@pytest.mark.parametrize("columns", [
    float_columns(["E", "T"], [], []),
    float_columns(["E", "T", "R", "delta_T"], [0.5], [math.nan], [math.inf], [-math.inf]),
    float_columns(["T", "E", "R"], [1e-300, 5e20], [2.0, 3.0], [0.1 + 0.2, -0.0]),
    # sorted, the oracle header's keys are in another order than its columns
    float_columns(EXPECTED_HEADER_ORACLE.split(","),
                  *zip((0.005, 0.0004, 0.0992, 0.9008, 0.0, 0.0992, 0.9008, 1e-13),
                       (0.1, 0.008, 0.25, 0.75, 2.2e-16, math.nan, math.nan, math.nan))),
], ids=["no-rows", "nan-inf", "two-rows", "oracle-header"])
def test_json_writer_matches_indented_dumps(columns, monkeypatch):
    config = asdict(RunConfig(params=DEFAULT_PARAMS))
    assert "".join(joined_pieces(monkeypatch, config, columns)) == indented_dumps(config, columns)


NAN_BITS = np.array([0x7FF8000000000000, 0x7FF8000000000001, 0xFFF8000000000000],
                    dtype=np.uint64).view(float)


@pytest.mark.parametrize("columns", [
    float_columns(["x", "V"], [0.0, -0.0, 0.0, -0.0], [-0.0, -0.0, 0.0, 1.0]),
    float_columns(["x", "V"], [1.0, 2.0, 3.0], NAN_BITS),
    float_columns(["x", "V"], [math.inf, -math.inf, math.inf], [-math.inf, 0.5, -math.inf]),
    float_columns(["T", "E"], [0.25] * 70, np.linspace(0.0, 1.0, 70)),
    float_columns(["R", "T", "E"], [0.1, 0.3, 0.1], [0.3, 0.1, 0.2], [0.2, 0.2, 0.3]),
], ids=["signed-zeros", "nan-payloads", "infinities", "all-equal", "across-columns"])
def test_json_writer_formats_each_bit_pattern_once(columns, monkeypatch):
    # the writer takes each distinct bit pattern's text once: -0.0 beside
    # 0.0 keeps its sign, and a value repeated in several columns or rows
    # reads the same everywhere
    config = asdict(RunConfig(params=DEFAULT_PARAMS))
    assert "".join(joined_pieces(monkeypatch, config, columns)) == indented_dumps(config, columns)


@pytest.mark.parametrize("extra", [-1, 0, 1, 2 * dengfan.cli._JSON_BATCH + 3])
def test_json_writer_pieces_join_to_indented_dumps(extra, monkeypatch):
    # the rows go out in pieces of _JSON_BATCH; a piece's bounds change no byte
    n = dengfan.cli._JSON_BATCH + extra
    i = np.arange(n, dtype=float)
    columns = float_columns(["T", "E", "R"], 1.0 / (i + 1), i * 0.1, -i * 1e-300)
    config = asdict(RunConfig(params=DEFAULT_PARAMS))
    pieces = joined_pieces(monkeypatch, config, columns)
    assert "".join(pieces) == indented_dumps(config, columns)
    assert len(pieces) == 2 + -(-n // dengfan.cli._JSON_BATCH)


def test_parser_reuse_keeps_outputs(monkeypatch, capsys):
    argvs = [["scatter", "--table1", "--oracle", "--format", "json"],
             ["scatter", "--table1"],
             ["scatter", "--table1", "--fig3"],  # a usage error, exit 1
             ["verify"]]
    assert build_parser() is build_parser()
    cached = [run(argv, capsys) for argv in argvs]
    # each call again, on a parser built for it alone
    monkeypatch.setattr(dengfan.cli, "build_parser", build_parser.__wrapped__)
    fresh = [run(argv, capsys) for argv in argvs]
    assert [code for code, _, _ in cached] == [0, 0, 1, 0]
    assert cached == fresh


def test_help_follows_columns_on_cached_parser(monkeypatch, capsys):
    build_parser()
    widths = []
    for columns in ("60", "120"):
        monkeypatch.setenv("COLUMNS", columns)
        code, out, _ = run(["scatter", "--help"], capsys)
        assert code == 0
        widths.append(max(map(len, out.splitlines())))
    assert widths[0] <= 60 < widths[1] <= 120


def test_scatter_oracle_columns(capsys):
    code, out, _ = run(["scatter", "--emin", "0.05", "--emax", "0.1",
                        "--n", "2", "--oracle"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == EXPECTED_HEADER_ORACLE
    for line in lines[1:]:
        cols = [float(v) for v in line.split(",")]
        assert abs(cols[2] - cols[5]) <= 1e-6  # T vs T_oracle
        assert cols[7] <= 1e-6                 # delta_T


def test_oracle_one_config_and_one_call_per_scan(tmp_path, monkeypatch, capsys):
    # the scan's one config, its domain at the default step, serves every
    # energy, and one call marches them all on the grid of the highest
    calls = []

    def config(E, *args, **kwargs):
        calls.append(("config", np.asarray(E).tolist()))
        return default_config(E, *args, **kwargs)

    def march(E, v, m, cfg):
        calls.append(("march", np.asarray(E).tolist(), cfg))
        return integrate_scatter(E, v, m, cfg)

    monkeypatch.setattr(dengfan.cli, "default_config", config)
    monkeypatch.setattr(dengfan.cli, "integrate_scatter", march)
    code, out, _ = run(["scatter", "--emin", "300", "--emax", "600", "--n", "8",
                        "--oracle", "--format", "json"], capsys)
    assert code == 0
    energies = np.linspace(300.0, 600.0, 8).tolist()
    [config, (march, lanes, cfg)] = calls
    assert config == ("config", energies)
    assert (march, lanes) == ("march", energies)
    v = lambda x: potential(x, DEFAULT_PARAMS)  # noqa: E731
    seed = max(40.0 / DEFAULT_PARAMS.a, 10.0 * DEFAULT_PARAMS.x_e)
    assert cfg == default_config(600.0, v, x_max_seed=seed)
    alone = integrate_scatter(np.array([600.0]), v, 1.0, cfg)
    row = json.loads(out)["rows"][-1]
    assert row["E"] == 600.0
    assert row["T_oracle"] == alone.T[0]
    assert row["delta_T"] <= 1e-6
    # verify's one scan with the oracle, and one scan per --q value
    for argv, scans in ((["verify", "--n", "3"], 1),
                        (["scatter", "--table1", "--oracle", "--q", "0.6", "0.7",
                          "--out", str(tmp_path / "t1")], 2)):
        calls.clear()
        assert run(argv, capsys)[0] == 0
        assert [call[0] for call in calls] == ["config", "march"] * scans


def test_benchmark_tracer_names_resolve(capsys):
    # the benchmark's tracer (benchmarks/worker.py) wraps every (module,
    # attribute) of TRACED and reads each integrate_scatter call's config
    # as its 4th positional argument, args[3]
    worker = load_benchmark_module("worker")
    for module, attr, _ in worker.TRACED:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"
    fourth = list(inspect.signature(integrate_scatter).parameters.values())[3]
    assert fourth.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD
    assert typing.get_type_hints(integrate_scatter)[fourth.name] is IntegrationConfig
    # a traced oracle scan: the CLI passes the config positionally
    tracer = worker.Tracer(seed=0)
    tracer.install()
    try:
        code, _, _ = run(["scatter", "--emin", "0.05", "--emax", "0.1", "--n", "2",
                          "--oracle"], capsys)
    finally:
        tracer.uninstall()
    assert code == 0
    assert tracer.steps > 0 and not tracer.errors


def test_benchmark_tracer_aliases_stay_uncalled(tmp_path, monkeypatch, capsys):
    # TRACED also wraps dengfan.scatter.gauss_2f1 and
    # dengfan.hyp2f1.lngamma_complex, aliases of the closed form's kernels
    # that nothing calls; a traced call of the first would crash in
    # Tracer._count, which reads req.a of its argument
    calls = []
    for module, attr in ((dengfan.scatter, "gauss_2f1"), (dengfan.hyp2f1, "lngamma_complex")):
        def counting(*args, fn=getattr(module, attr), name=attr):
            calls.append(name)
            return fn(*args)

        monkeypatch.setattr(module, attr, counting)
    # a q-sweep set: asymmetric q near 1, 25 log-spaced energies, JSON
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"params": {"v0": 1.2, "a": 1.5, "x_e": 0.3, "q": 0.99,
                                          "q_tilde": 0.9, "m": 0.8},
                               "e_min": 1.2e-6, "e_max": 120.0, "n_points": 25,
                               "log_grid": True, "output_format": "json"}))
    for argv in (["scatter", "--table1", "--oracle"], ["scatter", "--fig3", "--format", "json"],
                 ["scatter", "--config", str(cfg)]):
        assert run(argv, capsys)[0] == 0
    assert calls == []


# ---------------------------------------------------------------------------
# failures, by stage
# ---------------------------------------------------------------------------

# past the upper energy edge every 2F1 lane fails with NoConvergenceError
PAST_EDGE = ["--emin", "3e6", "--emax", "6e6", "--n", "3"]
PAST_EDGE_E = ("3e+06", "4.5e+06", "6e+06")


def test_scatter_failures_exit_2_with_nan_rows(capsys):
    # one stderr line per failed energy, in the layout benchmarks/run.py
    # parses: "dengfan scatter: E=<E>: <Type>: <message>"
    code, out, err = run(["scatter", "--oracle"] + PAST_EDGE, capsys)
    assert code == 2
    lines = err.splitlines()
    assert len(lines) == 3
    for line, E in zip(lines, PAST_EDGE_E):
        assert re.fullmatch(rf"dengfan scatter: E={re.escape(E)}: NoConvergenceError: .+", line)
    for row in out.splitlines()[1:]:
        assert row.split(",")[2:] == ["nan"] * 6


def test_verify_reports_analytic_failures(capsys):
    code, out, _ = run(["verify"] + PAST_EDGE, capsys)
    assert code == 2
    assert "max unitarity residual      = 0   (tol 1e-09)" in out
    for E in PAST_EDGE_E:
        assert f"\n  E = {E}: analytic: NoConvergenceError: 2F1 " in out
    assert out.endswith("FAIL\n")


def test_verify_reports_oracle_disagreement(monkeypatch, capsys):
    def shifted(E, v, m, cfg):
        res = integrate_scatter(E, v, m, cfg)
        return replace(res, T=res.T + 1e-5)

    monkeypatch.setattr(dengfan.cli, "integrate_scatter", shifted)
    code, out, _ = run(["verify", "--emin", "0.05", "--emax", "0.1", "--n", "2"], capsys)
    assert code == 2
    assert "max |T_analytic - T_oracle| = 1e-05   (tol 1e-06)" in out
    for E in ("0.05", "0.1"):
        assert re.search(rf"\n  E = {E}: \|dT\|=1e-05, \|dR\|=\d\.?\d*e-1\d\n", out)
    assert out.endswith("FAIL\n")


def test_verify_reports_unitarity_residual(monkeypatch, capsys):
    def leaky(energies, params):
        res = scan(energies, params)
        return replace(res, unitarity_residual=res.unitarity_residual + 1e-8)

    monkeypatch.setattr(dengfan.cli, "scan", leaky)
    code, out, err = run(["verify", "--emin", "0.05", "--emax", "0.1", "--n", "2"], capsys)
    assert (code, err) == (2, "")
    assert "\n  max unitarity residual      = 1e-08   (tol 1e-09)\n" in out
    assert out.endswith("offending energies:\n  E = 0.05: unitarity residual 1e-08\n"
                        "  E = 0.1: unitarity residual 1e-08\nFAIL\n")


def test_broken_pipe_exits_0(monkeypatch, capsys):
    # a reader that closes stdout early (dengfan scatter | head) ends the
    # run quietly
    class ClosedPipe:
        def write(self, text):
            raise BrokenPipeError

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    code, _, err = run(["scatter", "--table1"], capsys)
    assert (code, err) == (0, "")


def test_failing_oracle_config_fails_every_energy(monkeypatch, capsys):
    def undecayed(*args, **kwargs):
        raise BoundaryNotDecayedError("|V| still 1 at x = +-50; potential does not decay")

    monkeypatch.setattr(dengfan.cli, "default_config", undecayed)
    grid = ["--emin", "0.05", "--emax", "0.1", "--n", "2"]
    code, out, err = run(["scatter", "--oracle"] + grid, capsys)
    assert code == 2
    assert err.splitlines() == [
        f"dengfan scatter: E={E}: BoundaryNotDecayedError: |V| still 1 at x = +-50; "
        "potential does not decay" for E in ("0.05", "0.1")]
    for row in out.splitlines()[1:]:
        assert row.split(",")[5:] == ["nan"] * 3
    code, out, _ = run(["verify"] + grid, capsys)
    assert code == 2
    for E in ("0.05", "0.1"):
        assert f"\n  E = {E}: oracle: BoundaryNotDecayedError: |V| still 1" in out
    assert out.endswith("FAIL\n")


def test_scatter_fig3_preset_reaches_high_transmission(capsys):
    code, out, _ = run(["scatter", "--fig3", "--n", "60"], capsys)
    assert code == 0
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    assert float(rows[-1][1]) == pytest.approx(5.0, rel=1e-9)  # E/Vmax
    assert float(rows[-1][2]) >= 0.99


def test_scatter_fig4_preset_files_and_report(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(["scatter", "--fig4", "--n", "40"], capsys)
    assert code == 0
    for v0 in ("1.15", "1.25", "1.35"):
        path = tmp_path / f"fig4_v0_{v0}.csv"
        assert path.exists()
        assert path.read_text().startswith(EXPECTED_HEADER)
        assert f"v0_{v0}: max T" in out
    assert "low-energy transmission survey" in out


def test_survey_line_skips_failed_rows_and_takes_the_first_peak():
    v = barrier_top(DEFAULT_PARAMS)
    columns = {"E": np.array([1e-6, 2e-6, 3e-6, 0.5]) * v,
               "T": np.array([math.nan, 0.25, 0.95, 0.95])}
    line = dengfan.cli._survey_line("run", v, columns)
    assert line == (f"  run: max T = 0.9500 at E = {3e-6 * v:.4g} (E/Vmax = 3e-06); "
                    "T at lowest grid energy = 0.25; near-total transmission (T >= 0.9) "
                    "below E/Vmax = 1e-3: yes")
    columns["T"][2] = 0.5
    assert dengfan.cli._survey_line("run", v, columns).endswith("1e-3: no")
    columns["T"][:] = math.nan
    assert dengfan.cli._survey_line("run", v, columns) == "  run: no successful points"


def test_scatter_config_file_and_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "params": {"v0": 1.15}, "n_points": 3,
        "e_min": 0.01, "e_max": 0.03, "output_format": "json",
    }))
    code, out, _ = run(["scatter", "--config", str(cfg), "--v0", "1.25"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["config"]["params"]["v0"] == 1.25  # flag wins
    assert doc["config"]["n_points"] == 3         # file wins over default
    assert len(doc["rows"]) == 3


def test_scatter_multi_v0_files(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, _, _ = run(["scatter", "--v0", "1.15", "1.25", "--emin", "0.05",
                      "--emax", "0.1", "--n", "2", "--out", "curve"], capsys)
    assert code == 0
    assert (tmp_path / "curve_v0_1.15.csv").exists()
    assert (tmp_path / "curve_v0_1.25.csv").exists()


def test_scatter_multi_q_files(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, _, _ = run(["scatter", "--q", "0.6", "0.7", "--n", "2",
                      "--format", "json"], capsys)
    assert code == 0
    for q in (0.6, 0.7):
        doc = json.loads((tmp_path / f"scatter_q_{q:g}.json").read_text())
        assert doc["config"]["params"]["q"] == q
        assert doc["config"]["params"]["q_tilde"] == q
        assert len(doc["rows"]) == 2


@pytest.mark.parametrize("setting, flags, message", [
    ({"e_min": -1.0}, ["--emin", "0.01", "--emax", "0.1"],
     "invalid config: need 0 < e_min < e_max, got e_min=-1.0, e_max=0.1"),
    ({"params": {"q": 1.5}}, ["--q", "0.5"], "invalid params: q must lie in (0, 1), got 1.5"),
], ids=["e_min", "q"])
def test_config_file_is_checked_before_flags_override_it(setting, flags, message, tmp_path,
                                                         capsys):
    # the file is checked as one layer over the defaults: a flag that would
    # mend the value does not hide the file's error
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(setting))
    code, out, err = run(["scatter", "--config", str(cfg)] + flags, capsys)
    assert (code, out) == (1, "")
    assert err == f"dengfan scatter: error: {message}\n"


@pytest.mark.parametrize("params, q_tilde", [
    ({"q": 0.6}, 0.6),                   # q_tilde follows q, as with --q
    ({"q": 0.6, "q_tilde": 0.7}, 0.7),
    ({"q_tilde": 0.7}, 0.7),
])
def test_config_file_q_sets_q_tilde(params, q_tilde, tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"params": params, "n_points": 1}))
    code, out, _ = run(["scatter", "--config", str(cfg), "--format", "json"],
                       capsys)
    assert code == 0
    assert json.loads(out)["config"]["params"]["q_tilde"] == q_tilde


@pytest.mark.parametrize("argv", [
    ["scatter", "--n", "0", "--emin", "0.1", "--emax", "1.0"],
    ["scatter", "--emin", "0.5", "--emax", "0.1"],
    ["scatter", "--emin", "-1.0", "--emax", "0.1"],
    ["scatter", "--q", "1.5"],
    ["scatter", "--table1", "--fig3"],
    ["potential", "--v0", "1.1", "1.2", "--q", "0.6", "0.7"],
    # verify always runs the oracle and prints only its report
    ["verify", "--oracle"],
    ["verify", "--format", "json"],
    ["verify", "--out", "report.txt"],
    # one oracle domain per scan, chosen by the oracle
    ["verify", "--oracle-xmax", "60"],
    # a barrier top past the float range
    ["scatter", "--a", "800", "--xe", "1"],
    # a deformation whose (a q)^2 underflows to 0
    ["scatter", "--q", "1e-200", "--n", "2"],
])
def test_usage_errors_exit_1(argv, capsys):
    code, _, err = run(argv, capsys)
    assert code == 1
    assert err


def test_runtime_imports_numpy_alone():
    # scipy, mpmath and hypothesis are test-only; a fresh interpreter, since
    # this session has loaded them
    code = ("import sys, dengfan, dengfan.cli; print(sorted("
            "{m.partition('.')[0] for m in sys.modules} & {'scipy', 'mpmath', 'hypothesis'}))")
    src = Path(dengfan.cli.__file__).resolve().parents[1]
    pythonpath = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env=dict(os.environ, PYTHONPATH=pythonpath))
    assert proc.stdout == "[]\n"


def test_unknown_flag_exits_1(capsys):
    code, _, _ = run(["scatter", "--frequency", "3"], capsys)
    assert code == 1


def test_bad_config_file_exits_1(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text('{"nonsense": 1}')
    code, _, err = run(["scatter", "--config", str(cfg)], capsys)
    assert code == 1
    assert "nonsense" in err


@pytest.mark.parametrize("argv, contents, message", [
    (["scatter", "--emin", "nan"], None, "e_min and e_max must be finite"),
    (["scatter", "--config", "{cfg}"], '{"output_format": "xml"}',
     "invalid config: output_format must be 'csv' or 'json', got 'xml'"),
    (["scatter", "--config", "{cfg}"], None,
     "cannot read config file: [Errno 2] No such file or directory: '{cfg}'"),
    (["scatter", "--config", "{cfg}"], "{",
     "config file is not valid JSON: Expecting property name enclosed in double quotes: "
     "line 1 column 2 (char 1)"),
    (["scatter", "--config", "{cfg}"], "[1]", "config must be a JSON object"),
    (["scatter", "--config", "{cfg}"], '{"params": [1]}', "config 'params' must be a JSON object"),
    (["potential", "--n", "0"], None, "--n must be >= 1, got 0"),
    (["potential", "--xmin", "1", "--xmax", "0"], None, "--xmin 1.0 exceeds --xmax 0.0"),
    (["scatter", "--config", "{cfg}"],
     '{"params": {"v0": true}, "e_min": true, "e_max": 2, "n_points": 3}',
     "invalid params: v0 must be a number, got True"),
    (["scatter", "--config", "{cfg}"], '{"e_min": true, "e_max": 2, "n_points": 3}',
     "invalid config: e_min must be a number, got True"),
], ids=["emin-nan", "output-format", "unreadable", "not-json", "not-object", "params-not-object",
        "potential-n", "potential-x-range", "params-bool", "config-bool"])
def test_settings_errors_exit_1_with_one_line(argv, contents, message, tmp_path, capsys):
    # a config file at "{cfg}", missing when contents is None
    cfg = tmp_path / "run.json"
    if contents is not None:
        cfg.write_text(contents)
    code, out, err = run([arg.replace("{cfg}", str(cfg)) for arg in argv], capsys)
    assert (code, out) == (1, "")
    assert err == f"dengfan {argv[0]}: error: {message.replace('{cfg}', str(cfg))}\n"


@pytest.mark.parametrize("argv, path, reason", [
    (["scatter", "--table1"], "missing/t1.csv", "No such file or directory"),
    (["potential", "--n", "3"], ".", "Is a directory"),
], ids=["missing-directory", "a-directory"])
def test_unwritable_output_exits_1_with_one_line(argv, path, reason, tmp_path, capsys):
    out_path = str(tmp_path / path)
    code, out, err = run(argv + ["--out", out_path], capsys)
    assert (code, out) == (1, "")
    assert err == f"dengfan {argv[0]}: error: cannot write {out_path}: {reason}\n"


def test_matching_mode_is_not_a_setting(tmp_path, capsys):
    # one matching convention: a config's "mode" is an unknown key, and
    # --mode an unknown flag
    cfg = tmp_path / "old.json"
    cfg.write_text('{"mode": "corrected", "n_points": 2}')
    code, out, err = run(["scatter", "--config", str(cfg)], capsys)
    assert (code, out) == (1, "")
    assert "unknown config keys: ['mode']" in err
    code, _, err = run(["scatter", "--table1", "--mode", "corrected"], capsys)
    assert code == 1
    assert "--mode" in err


@pytest.mark.parametrize("n_points", [2.5, True, "5"])
def test_non_integer_n_points_exits_1(n_points, tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"n_points": n_points}))
    for preset in ([], ["--fig3"]):
        code, out, err = run(["scatter", "--config", str(cfg)] + preset, capsys)
        assert code == 1
        assert "n_points must be an integer" in err
        assert not out and "Traceback" not in err


@pytest.mark.parametrize("setting", [{"oracle_enabled": "false"}, {"log_grid": "no"}],
                         ids=["oracle_enabled", "log_grid"])
def test_non_boolean_flag_in_config_exits_1(setting, tmp_path, capsys):
    # a string is not read by its truthiness
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({**setting, "n_points": 2}))
    code, out, err = run(["scatter", "--config", str(cfg)], capsys)
    assert code == 1
    assert f"error: invalid config: {next(iter(setting))} must be true or false" in err
    assert not out and "Traceback" not in err


# ---------------------------------------------------------------------------
# potential
# ---------------------------------------------------------------------------

def test_potential_default_table(capsys):
    code, out, _ = run(["potential", "--n", "11"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "x,V"
    assert len(lines) == 12
    xs = [float(line.split(",")[0]) for line in lines[1:]]
    assert xs[0] == pytest.approx(-10.0 / 0.8)
    assert xs[-1] == pytest.approx(10.0 / 0.8)


def test_potential_single_point_at_origin(capsys):
    code, out, _ = run(["potential", "--n", "1", "--xmin", "0", "--xmax", "0"],
                       capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 2
    x, v = (float(s) for s in lines[1].split(","))
    assert x == 0.0
    assert v == pytest.approx(barrier_top(DEFAULT_PARAMS), rel=1e-8)


def test_potential_multi_v0_peak_heights(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, _, _ = run(["potential", "--v0", "1.15", "1.25", "1.35",
                      "--n", "101"], capsys)
    assert code == 0
    peaks = []
    for v0 in ("1.15", "1.25", "1.35"):
        text = (tmp_path / f"potential_v0_{v0}.csv").read_text()
        vals = [float(line.split(",")[1]) for line in text.strip().split("\n")[1:]]
        peaks.append(max(vals))
    assert peaks[0] < peaks[1] < peaks[2]


def test_potential_multi_q_origin_maximum(tmp_path, monkeypatch, capsys):
    # the origin maximum decreases as q = q_tilde decreases
    monkeypatch.chdir(tmp_path)
    code, _, _ = run(["potential", "--q", "0.6", "0.7", "0.8",
                      "--n", "3", "--xmin", "-1", "--xmax", "1"], capsys)
    assert code == 0
    origin = []
    for q in ("0.6", "0.7", "0.8"):
        text = (tmp_path / f"potential_q_{q}.csv").read_text()
        rows = [line.split(",") for line in text.strip().split("\n")[1:]]
        origin.append(float(rows[1][1]))  # x = 0 row
    assert origin[0] < origin[1] < origin[2]


def test_potential_json_echoes_its_x_grid(capsys):
    # the echo is the tabulated grid and the parameters, not a scan's config
    code, out, _ = run(["potential", "--n", "5", "--xmin", "-2", "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["config"]["n"] == 5 == len(doc["rows"])
    assert doc["config"] == {"params": asdict(DEFAULT_PARAMS), "x_min": -2.0,
                             "x_max": 10.0 / DEFAULT_PARAMS.a, "n": 5}
    assert [row["x"] for row in doc["rows"]] == np.linspace(-2.0, 12.5, 5).tolist()


def test_potential_out_file(tmp_path, capsys):
    target = tmp_path / "pot.csv"
    code, out, _ = run(["potential", "--n", "5", "--out", str(target)], capsys)
    assert code == 0
    assert out == ""
    assert target.read_text().startswith("x,V\n")


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_small_grid_passes(capsys):
    code, out, _ = run(["verify", "--emin", "0.05", "--emax", "0.1", "--n", "2"],
                       capsys)
    assert code == 0
    assert out.startswith("corrected matching reproduces Table 1: max deviation 4.63e-07\n")
    assert "\nanalytic vs oracle over 2 energies:\n" in out
    # the relative |dT| is printed without a tolerance of its own
    rel = float(out.split("max |dT| / T_analytic       = ")[1].split("\n")[0])
    assert 0.0 <= rel <= 1e-10
    # the oracle's own error estimate, on the line before the verdict
    t_err = out.splitlines()[-2]
    assert t_err.startswith("  max oracle T_err            = ")
    assert 0.0 < float(t_err.split("= ")[1]) <= 1e-10
    assert out.endswith("PASS\n")


def test_verify_checks_table1_to_its_digits(monkeypatch, capsys):
    # today every value is within half a unit of its 6th digit (at most
    # |dR| = 4.63e-7 against 5e-7): one unit off in one row offends
    rows = list(TABLE1)
    E, T, R = rows[7]
    rows[7] = (E, T, R + 1e-6)
    monkeypatch.setattr(dengfan.cli, "TABLE1", tuple(rows))
    code, out, _ = run(["verify", "--emin", "0.05", "--emax", "0.1", "--n", "2"], capsys)
    assert code == 2
    assert "\noffending energies:\n  E = 0.04: Table 1: |dT|=" in out
    assert out.count("\n  E = ") == 1 and out.endswith("FAIL\n")


def test_verify_coarse_oracle_step_fails(capsys):
    # the coarsest step, 0.5, leaves T_err at 1.4e-4 and 3.3e-4: no energy
    # is compared, so every maximum but the closed form's unitarity is nan
    code, out, _ = run(["verify", "--emin", "0.0003", "--emax", "0.001", "--n", "2",
                        "--oracle-step", "0.5"], capsys)
    assert code == 2
    assert out.count("StepTooCoarseError") == 2
    for line in ("max |T_analytic - T_oracle| = nan   (tol 1e-06)",
                 "max |dT| / T_analytic       = nan",
                 "max |R_analytic - R_oracle| = nan   (tol 1e-06)",
                 "max oracle T_err            = nan"):
        assert f"\n  {line}\n" in out
    assert "max unitarity residual      = nan" not in out
    assert "FAIL" in out


def test_verify_finer_oracle_step_refines(capsys):
    # --oracle-step sets the graded grid's step: halving it from the default
    # cuts the largest T_err about 2^6 times (4.4e-15 to 6.9e-17 on Table 1)
    t_err = []
    for step in ([], ["--oracle-step", "0.01"]):
        code, out, _ = run(["verify"] + step, capsys)
        assert code == 0
        t_err.append(float(out.split("max oracle T_err            = ")[1].split()[0]))
    assert t_err[0] >= 32.0 * t_err[1]


def test_oracle_step_is_checked_before_any_scan(tmp_path, monkeypatch, capsys):
    def no_scan(*args, **kwargs):
        raise AssertionError("scanned")

    monkeypatch.setattr(dengfan.cli, "scan", no_scan)
    # outside [0.001, 0.5], with or without an oracle run, and even where
    # every closed-form energy would fail
    for argv in (["scatter", "--n", "2", "--oracle-step", "-1"],
                 ["scatter", "--oracle", "--oracle-step", "5e-4"] + PAST_EDGE,
                 ["verify", "--oracle-step", "0.6"]):
        code, _, err = run(argv, capsys)
        assert code == 1
        assert "argument --oracle-step: step must be in [0.001, 0.5]" in err
    # a valid step with no oracle run to take it
    code, _, err = run(["scatter", "--n", "2", "--oracle-step", "0.01"], capsys)
    assert code == 1
    assert err == "dengfan scatter: error: --oracle-step needs an oracle run (--oracle)\n"
    monkeypatch.undo()
    # an oracle run that a config file asks for takes the step
    cfg = tmp_path / "oracle.json"
    cfg.write_text(json.dumps({"oracle_enabled": True}))
    code, out, _ = run(["scatter", "--config", str(cfg), "--n", "2", "--oracle-step", "0.04"],
                       capsys)
    assert code == 0 and out.startswith(EXPECTED_HEADER_ORACLE + "\n")


def test_verify_free_particle(capsys):
    code, out, _ = run(["verify", "--v0", "0", "--emin", "0.5", "--emax", "1.0",
                        "--n", "2"], capsys)
    assert code == 0
    assert "PASS" in out
    # with no barrier both R vanish to rounding (--v0 0 must not be dropped)
    dr = float(out.split("max |R_analytic - R_oracle| = ")[1].split()[0])
    assert dr < 1e-20
