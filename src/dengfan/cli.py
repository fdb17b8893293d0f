"""Command-line front end: potential tables, R/T scans, and verification.

Subcommands
-----------
potential   tabulate V(x)
scatter     tabulate E, E/V_max, T, R (+ oracle columns with --oracle)
verify      check the closed form against the reference table and compare
            its R/T with the integration oracle

A list-valued --v0 or --q emits one file per value, <prefix>_v0_<v0>.<format>
or <prefix>_q_<q>.<format>.  The presets of scatter and verify, held in
``_PRESETS``, are --table1 (reference-table grid and parameters), --fig3
(E/V_max in (0, 5], 200 points) and --fig4 (low-energy log grid, one curve
per v0 in {1.15, 1.25, 1.35}, with a transmission survey on stdout).

``_COMMANDS`` holds one row per subcommand: the flag groups it registers,
its run (one table per run) and its writer; ``build_parser`` and ``main``
read it.  ``_runs`` resolves every setting of a command line in one order:
the built-in defaults (the reference-table setup), then a --config JSON
file, then the preset, then the command-line flags, and builds each run's
BarrierParams and RunConfig and its V_max once.  Exit codes: 0 success, 1
usage error, 2 numerical failure or tolerance breach.

``main`` may be called repeatedly in one process (scripts, notebooks, a
benchmark loop): the parser is built on the first call, not at import,
and reused by every later call.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from collections import namedtuple
from dataclasses import dataclass, field, fields, replace
from typing import Callable, Iterable, Iterator, Literal, Sequence

import numpy as np

# potential_fn, default_config and integrate_scatter stay names of this
# module: benchmarks/worker.py wraps them here, and counts a nominal
# ceil(2 x_max / step) steps per integrate_scatter call from args[3].x_max
# and args[3].step, so cfg stays its 4th positional argument
from .model import BarrierParams, barrier_top, potential as potential_fn
from .oracle import IntegrationConfig, OracleError, default_config, integrate_scatter
from .reference import DEFAULT_PARAMS, TABLE1
# compute_rt and scan stay names of this module: benchmarks/worker.py wraps them
from .scatter import ScatteringResult, compute_rt, scan  # noqa: F401

__all__ = ["RunConfig", "main"]

_DT_TOL = 1e-6
_DR_TOL = 1e-6
_UNITARITY_TOL = 1e-9


class _UsageError(Exception):
    pass


@dataclass(frozen=True)
class RunConfig:
    """One scan configuration (parameters, energy grid, output options)."""

    params: BarrierParams
    e_min: float = 0.005
    e_max: float = 0.100
    n_points: int = 20
    output_format: Literal["csv", "json"] = "csv"
    oracle_enabled: bool = False
    log_grid: bool = False

    def __post_init__(self) -> None:
        for name in ("e_min", "e_max"):
            if isinstance(getattr(self, name), bool):
                raise ValueError(f"{name} must be a number, got {getattr(self, name)!r}")
        if not (math.isfinite(self.e_min) and math.isfinite(self.e_max)):
            raise ValueError("e_min and e_max must be finite")
        if not 0.0 < self.e_min < self.e_max:
            raise ValueError(
                f"need 0 < e_min < e_max, got e_min={self.e_min}, e_max={self.e_max}"
            )
        if isinstance(self.n_points, bool) or not isinstance(self.n_points, int):
            raise ValueError(f"n_points must be an integer, got {self.n_points!r}")
        if self.n_points < 1:
            raise ValueError(f"n_points must be >= 1, got {self.n_points}")
        for name in ("oracle_enabled", "log_grid"):
            if not isinstance(getattr(self, name), bool):
                raise ValueError(f"{name} must be true or false, got {getattr(self, name)!r}")
        if self.output_format not in ("csv", "json"):
            raise ValueError(
                f"output_format must be 'csv' or 'json', got {self.output_format!r}"
            )

    def energies(self) -> np.ndarray:
        """The grid, evenly or (log_grid) geometrically spaced."""
        space = np.geomspace if self.log_grid else np.linspace
        return space(self.e_min, self.e_max, self.n_points)


_PARAM_KEYS = tuple(f.name for f in fields(BarrierParams))
_CONFIG_KEYS = tuple(f.name for f in fields(RunConfig))


@dataclass(frozen=True)
class _Preset:
    """Everything one preset sets; the empty preset sets nothing."""

    help: str = ""
    # RunConfig fields
    settings: dict = field(default_factory=dict)
    # (V_max, n_points) -> (e_min, e_max), from the final parameters
    energy_range: Callable[[float, int], tuple[float, float]] | None = None
    # one curve per v0 unless --v0 is given
    v0s: tuple[float, ...] = ()
    # file-name prefix of a multi-curve run; None means the command name
    prefix: str | None = None
    # stdout header of a per-curve low-energy transmission survey
    survey: str | None = None


_PRESETS = {
    "table1": _Preset(
        help="preset: reference-table grid and parameters",
        settings=dict(params=DEFAULT_PARAMS, e_min=0.005, e_max=0.100,
                      n_points=20, log_grid=False),
    ),
    "fig3": _Preset(
        help="preset: E/V_max in (0, 5], 200 points",
        settings=dict(params=DEFAULT_PARAMS, n_points=200, log_grid=False),
        energy_range=lambda v_max, n: (5.0 * v_max / n, 5.0 * v_max),
    ),
    "fig4": _Preset(
        help="preset: low-energy log grid, v0 in {1.15, 1.25, 1.35}",
        settings=dict(params=DEFAULT_PARAMS, n_points=2000, log_grid=True),
        # a log grid reaching low enough to expose narrow near-zero resonances
        energy_range=lambda v_max, n: (1e-6 * v_max, 0.5 * v_max),
        v0s=(1.15, 1.25, 1.35),
        prefix="fig4",
        survey="low-energy transmission survey (log grid, E/Vmax in [1e-06, 0.5]):",
    ),
}
_NO_PRESET = _Preset()


# ----------------------------------------------------------------------------
# parsing
# ----------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    # usage problems exit 1 (argparse defaults to 2, reserved here for
    # numerical failures)
    def error(self, message: str):  # noqa: D102
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_param_flags(sub: argparse.ArgumentParser, nargs: str | None) -> None:
    sub.add_argument("--v0", type=float, nargs=nargs,
                     help="well depth / dissociation energy")
    sub.add_argument("--a", type=float, help="inverse range")
    sub.add_argument("--xe", dest="x_e", metavar="XE", type=float,
                     help="equilibrium distance")
    sub.add_argument("--q", type=float, nargs=nargs,
                     help="deformation for x < 0"
                          + (" (list sets q_tilde = q per value)" if nargs else ""))
    sub.add_argument("--q-tilde", dest="q_tilde", type=float,
                     help="deformation for x >= 0 (defaults to q)")
    sub.add_argument("--mass", dest="m", metavar="MASS", type=float,
                     help="particle mass")
    sub.add_argument("--config", type=str,
                     help="JSON config file (a preset and the flags override it)")


def _add_output_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", dest="output_format", choices=("csv", "json"),
                     help="output format")
    sub.add_argument("--out", type=str,
                     help="output file, or filename prefix for multi-curve runs")


def _add_x_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--xmin", type=float,
                     help="left edge of the x grid (default -10/a)")
    sub.add_argument("--xmax", type=float,
                     help="right edge of the x grid (default +10/a)")
    sub.add_argument("--n", type=int, default=401,
                     help="number of x samples (default 401)")


def _oracle_step(text: str) -> float:
    # checked as IntegrationConfig checks a step; x_max plays no part
    try:
        return IntegrationConfig(x_max=1.0, step=float(text)).step
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _add_grid_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--emin", dest="e_min", metavar="EMIN", type=float,
                     help="lowest energy")
    sub.add_argument("--emax", dest="e_max", metavar="EMAX", type=float,
                     help="highest energy")
    sub.add_argument("--n", dest="n_points", metavar="N", type=int,
                     help="number of grid points")
    presets = sub.add_mutually_exclusive_group()
    for name, preset in _PRESETS.items():
        presets.add_argument(f"--{name}", dest="preset", action="store_const",
                             const=name, help=preset.help)
    sub.add_argument("--oracle-step", dest="oracle_step", type=_oracle_step,
                     help="step scale of the oracle's graded grid, in [0.001, 0.5] "
                          "(default 0.02): a smaller value refines it")


def _add_oracle_flag(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--oracle", dest="oracle_enabled", action="store_true",
                     default=None, help="add integration-oracle columns")


@functools.cache
def build_parser() -> _Parser:
    """The parser, built on the first call and shared after it: a parse
    returns a new Namespace, and help is formatted, at the terminal's
    width then, only when printed."""
    parser = _Parser(prog="dengfan",
                     description="Reflection/transmission coefficients for the "
                                 "symmetric barrier-type shifted Deng-Fan potential")
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, command in _COMMANDS.items():
        sub = subs.add_parser(name, help=command.help)
        sub.set_defaults(preset=None)
        _add_param_flags(sub, "+" if command.curves else None)
        for add_flags in command.flags:
            add_flags(sub)
    return parser


# ----------------------------------------------------------------------------
# settings
# ----------------------------------------------------------------------------

def _build(cls, base: dict, layer: dict, error: str):
    """``cls`` from the fields ``base`` overlaid with ``layer``, in which a
    q given without q_tilde sets both (from a flag or a config file)."""
    if "q" in layer:
        layer = {"q_tilde": layer["q"], **layer}
    try:
        return cls(**{**base, **layer})
    except (TypeError, ValueError) as exc:
        raise _UsageError(error + str(exc)) from exc


def _read_config(path: str | None) -> dict:
    """The RunConfig fields a --config file sets (none without one), its
    params a BarrierParams; the file is checked as one layer over the
    defaults, whatever a preset or a flag sets later."""
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise _UsageError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise _UsageError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise _UsageError("config must be a JSON object")
    params = data.get("params", {})
    if not isinstance(params, dict):
        raise _UsageError("config 'params' must be a JSON object")
    for what, keys, known in (("config", data, _CONFIG_KEYS), ("params", params, _PARAM_KEYS)):
        unknown = set(keys) - set(known)
        if unknown:
            raise _UsageError(f"unknown {what} keys: {sorted(unknown)}")
    data["params"] = _build(BarrierParams, vars(DEFAULT_PARAMS), params, "invalid params: ")
    _build(RunConfig, data, {}, "invalid config: ")
    return data


def _runs(args, curves: bool) -> list[tuple[str, RunConfig, float]]:
    """(tag, RunConfig, V_max) of each run of a command line, its settings
    merged as dicts: the defaults, then the --config file, then the preset,
    then the flags, whose dests are field names.  One untagged run, unless
    --v0 or --q lists several values (with ``curves``, a preset's v0 curves
    stand in for an absent --v0): then one run per value, tagged
    ``v0_<v0>`` or ``q_<q>``."""
    preset = _PRESETS.get(args.preset, _NO_PRESET)
    settings = {"params": DEFAULT_PARAMS, **_read_config(args.config), **preset.settings}
    given = {key: value for key, value in vars(args).items() if value is not None}
    flags = {key: given[key] for key in _CONFIG_KEYS if key in given}
    params = {key: given[key] for key in _PARAM_KEYS if key in given}
    if curves and preset.v0s:
        params.setdefault("v0", list(preset.v0s))
    lists = {key: value for key, value in params.items() if isinstance(value, list)}
    params.update((key, value[0]) for key, value in lists.items())
    multi = [key for key, value in lists.items() if len(value) > 1]
    if len(multi) > 1:
        raise _UsageError("only one of --v0 / --q may be list-valued "
                          "(a preset's v0 curves count as a --v0 list)")
    variants = [(f"{key}_{value:g}", {**params, key: value})
                for key in multi for value in lists[key]] or [("", params)]
    n_points = {**settings, **flags}.get("n_points", RunConfig.n_points)
    runs = []
    for tag, variant in variants:
        run_params = _build(BarrierParams, vars(settings["params"]), variant, "invalid params: ")
        v_max = barrier_top(run_params)
        grid = {}
        if preset.energy_range is not None and n_points >= 1:
            # the preset's grid follows the final parameters and point count;
            # --emin/--emax still override it
            grid = dict(zip(("e_min", "e_max"), preset.energy_range(v_max, n_points)))
        config = _build(RunConfig, {**settings, **grid, "params": run_params}, flags, "")
        runs.append((tag, config, v_max))
    return runs


# a table's values as one flat list, by the C encoder (any indent selects
# the pure-Python one)
_FLAT_ENCODER = json.JSONEncoder(allow_nan=True, separators=(",", ":"))
# rows per piece of a streamed JSON table; pieces never change a byte
_JSON_BATCH = 256
# a piece of at least this many rows formats each distinct float once; on a
# shorter one the sort costs more than the repeats save (a 25-row scan table
# writes 8% slower with it, a 100-row one 3% faster)
_DISTINCT_ROWS = 64


def _json_pieces(config, columns: dict[str, np.ndarray]) -> Iterator[str]:
    """json.dumps({"config": config, "rows": [dict(zip(columns, row)) for row
    in zip(*columns.values())]}, indent=2, sort_keys=True, allow_nan=True)
    plus a newline, byte for byte, in pieces of at most ``_JSON_BATCH`` rows;
    a dataclass in ``config`` is written as the dict of its fields, as
    ``dataclasses.asdict`` gives it, without its deep copy.
    The columns are float64 arrays of one length.  A piece's values, row by
    row in sorted-key order, are formatted by one encoder call, whose output
    splits on commas and fills one %-template of the rows' indented layout.
    From ``_DISTINCT_ROWS`` rows on, that call takes each distinct bit
    pattern of the piece once (-0.0 and 0.0 stay apart), and the values
    take their texts by index: a fig4 curve's 8 pieces format 8,046 of its
    10,000 values.  Only one piece's texts are held at a time."""
    head = json.dumps(config, indent=2, sort_keys=True, allow_nan=True, default=vars)
    yield '{\n  "config": ' + head.replace("\n", "\n  ") + ',\n  "rows": '
    keys = sorted(columns)
    n = len(columns[keys[0]]) if keys else 0
    if not n:
        yield "[]\n}\n"
        return
    flat = np.column_stack([columns[key] for key in keys]).ravel()
    one_row = ",\n      ".join(json.dumps(key).replace("%", "%%") + ": %s" for key in keys)
    between = "\n    },\n    {\n      "
    width = len(keys)
    for start in range(0, n, _JSON_BATCH):
        rows = min(_JSON_BATCH, n - start)
        piece = flat[start * width:(start + rows) * width]
        if rows < _DISTINCT_ROWS:
            values = _FLAT_ENCODER.encode(piece.tolist())[1:-1].split(",")
        else:
            bits, index = np.unique(piece.view(np.uint64), return_inverse=True)
            texts = _FLAT_ENCODER.encode(bits.view(float).tolist())[1:-1].split(",")
            values = np.array(texts, dtype=object)[index].tolist()
        template = between.join([one_row] * rows)
        yield (between if start else "[\n    {\n      ") + template % tuple(values)
    yield "\n    }\n  ]\n}\n"


# ----------------------------------------------------------------------------
# commands: runs, one table each as (columns, failures by index, JSON echo),
# and writers, every run's table out and the exit code
# ----------------------------------------------------------------------------

def _potential_table(args, tag: str, config: RunConfig, v_max: float):
    if args.n < 1:
        raise _UsageError(f"--n must be >= 1, got {args.n}")
    params = config.params
    x_min = args.xmin if args.xmin is not None else -10.0 / params.a
    x_max = args.xmax if args.xmax is not None else 10.0 / params.a
    if x_min > x_max:
        raise _UsageError(f"--xmin {x_min} exceeds --xmax {x_max}")
    xs = np.linspace(x_min, x_max, args.n)
    echo = {"params": params, "x_min": x_min, "x_max": x_max, "n": args.n}
    return {"x": xs, "V": potential_fn(xs, params)}, {}, echo


def _oracle_runs(res: ScatteringResult, params: BarrierParams, args):
    """Oracle T, R and T_err at each energy of the scan ``res`` that did not
    fail (nan elsewhere), and the OracleError of each failed one by index,
    from one default_config call for them all and one integrate_scatter
    call."""
    T, R, T_err = np.full((3, res.E.size), math.nan)
    ok = [i for i in range(res.E.size) if i not in res.errors]
    if not ok:
        return T, R, T_err, {}
    v = lambda x: potential_fn(x, params)  # noqa: E731
    try:
        cfg = default_config(res.E[ok], v, x_max_seed=max(40.0 / params.a, 10.0 * params.x_e))
    except OracleError as exc:
        return T, R, T_err, dict.fromkeys(ok, exc)
    cfg = replace(cfg, step=args.oracle_step or cfg.step)  # a given step is >= 1e-3
    orc = integrate_scatter(res.E[ok], v, params.m, cfg)
    T[ok], R[ok], T_err[ok] = orc.T, orc.R, orc.T_err
    return T, R, T_err, {ok[j]: exc for j, exc in orc.errors.items()}


def _scan(args, tag: str, config: RunConfig, v_max: float):
    """One scan: its named columns, nan at a failed energy, and (stage,
    "<error type>: <message>") by index of each failed energy, in grid
    order, where the stage is "analytic" or "oracle".  With the oracle the
    columns end with T_err, its error estimate, which scatter does not
    write."""
    if args.oracle_step is not None and not config.oracle_enabled:
        raise _UsageError("--oracle-step needs an oracle run (--oracle)")
    params = config.params
    res = scan(config.energies(), params)
    columns = {"E": res.E,
               "E_over_Vmax": res.E / v_max if v_max > 0 else np.full(res.E.shape, math.inf),
               "T": res.T, "R": res.R, "unitarity_residual": res.unitarity_residual}
    failures = {i: ("analytic", exc) for i, exc in res.errors.items()}
    if config.oracle_enabled:
        T, R, T_err, oracle_errors = _oracle_runs(res, params, args)
        columns.update(T_oracle=T, R_oracle=R, delta_T=np.abs(res.T - T), T_err=T_err)
        failures.update((i, ("oracle", exc)) for i, exc in oracle_errors.items())
    return columns, {i: (stage, f"{type(exc).__name__}: {exc}")
                     for i, (stage, exc) in sorted(failures.items())}, config


def _survey_line(tag: str, v_max: float, columns: dict[str, np.ndarray]) -> str:
    ok = ~np.isnan(columns["T"])
    E, T = columns["E"][ok], columns["T"][ok]
    if not T.size or v_max <= 0:
        return f"  {tag}: no successful points"
    peak = int(np.argmax(T))  # the first of equal maxima
    e_peak, t_peak = E[peak].item(), T[peak].item()
    low = T[E / v_max <= 1e-3]
    near_total = bool(low.size) and low.max() >= 0.9
    return (f"  {tag}: max T = {t_peak:.4f} at E = {e_peak:.4g} "
            f"(E/Vmax = {e_peak / v_max:.3g}); T at lowest grid energy = "
            f"{T[0].item():.4g}; near-total transmission (T >= 0.9) below "
            f"E/Vmax = 1e-3: {'yes' if near_total else 'no'}")


def _write_tables(args, tables) -> int:
    """Write each run's table of named float columns, but the oracle's
    T_err, as CSV (9 significant digits a value) or as JSON whose "config"
    is the run's echo, to --out or stdout; a tagged run goes to
    <prefix>_<tag>.<format>, where --out, when given, is the prefix.  JSON
    goes out in pieces of rows (``_json_pieces``).  Each failed energy
    takes one stderr line, and a preset's survey goes to stdout; exit 2 if
    any energy failed."""
    preset = _PRESETS.get(args.preset, _NO_PRESET)
    any_errors, survey = False, [preset.survey]
    for (tag, config, v_max), (columns, failures, echo) in tables:
        columns.pop("T_err", None)
        any_errors = any_errors or bool(failures)
        for i, (_, message) in failures.items():
            print(f"dengfan {args.command}: E={columns['E'][i]:g}: {message}", file=sys.stderr)
        if config.output_format == "csv":
            lines = [",".join(columns)]
            lines += [",".join(f"{v:.9g}" for v in row)
                      for row in zip(*(column.tolist() for column in columns.values()))]
            pieces: Iterable[str] = ["\n".join(lines) + "\n"]
        else:
            pieces = _json_pieces(echo, columns)
        out = args.out
        if tag:
            out = f"{args.out or preset.prefix or args.command}_{tag}.{config.output_format}"
        if out is None:
            for piece in pieces:
                sys.stdout.write(piece)
        else:
            try:
                fh = open(out, "w", encoding="utf-8", newline="")
            except OSError as exc:
                raise _UsageError(f"cannot write {out}: {exc.strerror}") from exc
            with fh:
                fh.writelines(pieces)
        if preset.survey:
            survey.append(_survey_line(tag or "run", v_max, columns))
    if preset.survey:
        print("\n".join(survey))
    return 2 if any_errors else 0


def _report(args, tables) -> int:
    e_ref, t_ref, r_ref = np.array(TABLE1).T
    table = scan(e_ref, DEFAULT_PARAMS)
    dev = np.abs([table.T - t_ref, table.R - r_ref])
    print(f"corrected matching reproduces Table 1: max deviation {dev.max():.3g}")
    print()
    # the table prints 6 significant digits: a row whose T or R is off by
    # more than half a unit of the sixth offends (as does a failed one, nan)
    missed = ~(dev <= 5.0 * 10.0 ** (np.floor(np.log10([t_ref, r_ref])) - 6))
    offenders = [(e, f"Table 1: |dT|={dt:.3g}, |dR|={dr:.3g}") for e, (dt, dr), miss
                 in zip(e_ref.tolist(), dev.T.tolist(), missed.any(axis=0).tolist()) if miss]

    [(_, (columns, failures, _))] = tables
    E, T, dT, uni = (columns[key] for key in ("E", "T", "delta_T", "unitarity_residual"))
    dR = np.abs(columns["R"] - columns["R_oracle"])
    # nan at a failed energy: the maxima over the energies compared, nan if
    # none (unitarity over those the closed form did not fail, 0 if none)
    with np.errstate(divide="ignore", invalid="ignore"):  # T = 0
        max_dt, max_rel_dt, max_dr, max_err = (np.fmax.reduce(a, initial=math.nan)
                                               for a in (dT, dT / T, dR, columns["T_err"]))
    max_uni = np.fmax.reduce(uni, initial=0.0)
    for i, (e, dt, dr, u) in enumerate(zip(E.tolist(), dT.tolist(), dR.tolist(), uni.tolist())):
        if i in failures:
            offenders.append((e, "{}: {}".format(*failures[i])))
            continue
        if dt > _DT_TOL or dr > _DR_TOL:
            offenders.append((e, f"|dT|={dt:.3g}, |dR|={dr:.3g}"))
        if u > _UNITARITY_TOL:
            offenders.append((e, f"unitarity residual {u:.3g}"))

    print(f"analytic vs oracle over {E.size} energies:")
    print(f"  max |T_analytic - T_oracle| = {max_dt:.3g}   (tol {_DT_TOL:g})")
    print(f"  max |dT| / T_analytic       = {max_rel_dt:.3g}")
    print(f"  max |R_analytic - R_oracle| = {max_dr:.3g}   (tol {_DR_TOL:g})")
    print(f"  max unitarity residual      = {max_uni:.3g}   (tol {_UNITARITY_TOL:g})")
    print(f"  max oracle T_err            = {max_err:.3g}")
    if offenders:
        print("offending energies:")
        for e, why in offenders:
            print(f"  E = {e:g}: {why}")
        print("FAIL")
        return 2
    print("PASS")
    return 0


# a subcommand: its help; whether --v0 and --q take lists (``_runs``'
# ``curves``); the flag groups it registers after the parameter flags; its
# run, (args, tag, config, v_max) -> (columns, failures, echo); and its
# writer, (args, each run with its table) -> exit code
_Command = namedtuple("_Command", "help curves flags run write")

_COMMANDS = {
    "potential": _Command("tabulate V(x)", True, (_add_output_flags, _add_x_flags),
                          _potential_table, _write_tables),
    "scatter": _Command("tabulate T(E), R(E)", True, (_add_output_flags, _add_grid_flags,
                                                      _add_oracle_flag), _scan, _write_tables),
    # verify always runs the oracle and prints only its report
    "verify": _Command("analytic-vs-oracle verification report", False,
                       (_add_grid_flags, lambda sub: sub.set_defaults(oracle_enabled=True)),
                       _scan, _report),
}


def main(argv: Sequence[str] | None = None) -> int:
    """Run one command line (``sys.argv[1:]`` when ``argv`` is None) and
    return its exit code.  ``main`` may be called any number of times in
    one process; the parser is built on the first call and reused, and
    keeps no state between calls."""
    args = build_parser().parse_args(argv)
    command = _COMMANDS[args.command]
    try:
        # every run's settings are resolved before the first table
        tables = ((run, command.run(args, *run)) for run in _runs(args, command.curves))
        return command.write(args, tables)
    except _UsageError as exc:
        print(f"dengfan {args.command}: error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
