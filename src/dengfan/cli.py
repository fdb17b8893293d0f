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

``_run_config`` resolves every setting in one order: the built-in defaults
(the reference-table setup), then a --config JSON file, then the preset, then
the command-line flags.  Exit codes: 0 success, 1 usage error, 2 numerical
failure or tolerance breach.

``_scan_rows`` makes the rows of scatter and verify: the closed-form scan
and, with the oracle, one ``default_config`` call (one domain for every
energy the scan did not fail) and one ``integrate_scatter`` call.

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
from dataclasses import asdict, dataclass, field, fields, replace
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

OutputFormat = Literal["csv", "json"]

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
    output_format: OutputFormat = "csv"
    oracle_enabled: bool = False
    log_grid: bool = False

    def __post_init__(self) -> None:
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

    def energies(self) -> list[float]:
        if self.n_points == 1:
            return [self.e_min]
        space = np.geomspace if self.log_grid else np.linspace
        return [float(E) for E in space(self.e_min, self.e_max, self.n_points)]


def _params(base: BarrierParams, updates: dict) -> BarrierParams:
    """Overlay parameter values on ``base``.  A q given without q_tilde sets
    both, whether it comes from a flag or from a config file."""
    if "q" in updates:
        updates = {"q_tilde": updates["q"], **updates}
    try:
        return replace(base, **updates)
    except (TypeError, ValueError) as exc:
        raise _UsageError(f"invalid params: {exc}") from exc


def config_from_dict(data: dict, base: RunConfig) -> RunConfig:
    """Overlay a (possibly partial) config mapping onto ``base``."""
    if not isinstance(data, dict):
        raise _UsageError("config must be a JSON object")
    pdata = data.get("params", {})
    if not isinstance(pdata, dict):
        raise _UsageError("config 'params' must be a JSON object")
    for what, keys, cls in (("config", data, RunConfig),
                            ("params", pdata, BarrierParams)):
        unknown = set(keys) - {f.name for f in fields(cls)}
        if unknown:
            raise _UsageError(f"unknown {what} keys: {sorted(unknown)}")
    try:
        return replace(base, **{**data, "params": _params(base.params, pdata)})
    except (TypeError, ValueError) as exc:
        raise _UsageError(f"invalid config: {exc}") from exc


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


@functools.cache
def build_parser() -> _Parser:
    """The parser, built on the first call and shared after it: a parse
    returns a new Namespace, and help is formatted, at the terminal's
    width then, only when printed."""
    parser = _Parser(prog="dengfan",
                     description="Reflection/transmission coefficients for the "
                                 "symmetric barrier-type shifted Deng-Fan potential")
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    pot = subs.add_parser("potential", help="tabulate V(x)")
    _add_param_flags(pot, "+")
    _add_output_flags(pot)
    pot.add_argument("--xmin", type=float,
                     help="left edge of the x grid (default -10/a)")
    pot.add_argument("--xmax", type=float,
                     help="right edge of the x grid (default +10/a)")
    pot.add_argument("--n", type=int, default=401,
                     help="number of x samples (default 401)")
    pot.set_defaults(preset=None)

    sct = subs.add_parser("scatter", help="tabulate T(E), R(E)")
    _add_param_flags(sct, "+")
    _add_output_flags(sct)
    _add_grid_flags(sct)
    sct.add_argument("--oracle", dest="oracle_enabled", action="store_true",
                     default=None, help="add integration-oracle columns")

    ver = subs.add_parser("verify", help="analytic-vs-oracle verification report")
    _add_param_flags(ver, None)
    _add_grid_flags(ver)

    return parser


# ----------------------------------------------------------------------------
# settings
# ----------------------------------------------------------------------------

def _given(args, cls) -> dict:
    """The flags given for the fields of ``cls`` (flag dests are field names)."""
    return {f.name: getattr(args, f.name) for f in fields(cls)
            if getattr(args, f.name, None) is not None}


def _variants(args, preset_v0s: Sequence[float] = ()) -> list[tuple[str, dict]]:
    """The parameter flags of each run, tagged ``v0_<v0>`` or ``q_<q>`` when
    --v0 or --q lists several values (a preset's v0 curves stand in for an
    absent --v0), else one untagged set."""
    given = _given(args, BarrierParams)
    if preset_v0s and "v0" not in given:
        given["v0"] = list(preset_v0s)
    lists = {key: value for key, value in given.items() if isinstance(value, list)}
    given.update((key, value[0]) for key, value in lists.items())
    multi = [key for key, value in lists.items() if len(value) > 1]
    if len(multi) > 1:
        raise _UsageError("only one of --v0 / --q may be list-valued "
                          "(a preset's v0 curves count as a --v0 list)")
    if not multi:
        return [("", given)]
    key = multi[0]
    return [(f"{key}_{value:g}", {**given, key: value}) for value in lists[key]]


def _run_config(args, variant: dict) -> RunConfig:
    """Resolve one run's settings: the defaults, then the --config file,
    then the preset, then the flags, with ``variant`` (from ``_variants``)
    as the parameter flags."""
    config = RunConfig(params=DEFAULT_PARAMS)
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise _UsageError(f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise _UsageError(f"config file is not valid JSON: {exc}") from exc
        config = config_from_dict(data, config)
    preset = _PRESETS.get(args.preset, _NO_PRESET)
    config = replace(config, **preset.settings)
    params = _params(config.params, variant)
    flags = _given(args, RunConfig)
    n_points = flags.get("n_points", config.n_points)
    if preset.energy_range is not None and n_points >= 1:
        # the preset's grid follows the final parameters and point count;
        # --emin/--emax still override it
        e_range = preset.energy_range(barrier_top(params), n_points)
        flags = {**dict(zip(("e_min", "e_max"), e_range)), **flags}
    try:
        return replace(config, params=params, **flags)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc


# a table's values as one flat list, by the C encoder (any indent selects
# the pure-Python one)
_FLAT_ENCODER = json.JSONEncoder(allow_nan=True, separators=(",", ":"))
# rows per piece of a streamed JSON table; pieces never change a byte
_JSON_BATCH = 256
# a piece of at least this many rows formats each distinct float once; on a
# shorter one the sort costs more than the repeats save (a 25-row scan table
# writes 8% slower with it, a 100-row one 3% faster)
_DISTINCT_ROWS = 64


def _json_pieces(config: dict, columns: dict[str, np.ndarray]) -> Iterator[str]:
    """json.dumps({"config": config, "rows": [dict(zip(columns, row)) for row
    in zip(*columns.values())]}, indent=2, sort_keys=True, allow_nan=True)
    plus a newline, byte for byte, in pieces of at most ``_JSON_BATCH`` rows.
    The columns are float64 arrays of one length.  A piece's values, row by
    row in sorted-key order, are formatted by one encoder call, whose output
    splits on commas and fills one %-template of the rows' indented layout.
    From ``_DISTINCT_ROWS`` rows on, that call takes each distinct bit
    pattern of the piece once (-0.0 and 0.0 stay apart), and the values
    take their texts by index: a fig4 curve's 8 pieces format 8,046 of its
    10,000 values.  Only one piece's texts are held at a time."""
    head = json.dumps(config, indent=2, sort_keys=True, allow_nan=True)
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


def _write(args, tag: str, columns: dict[str, np.ndarray], echo: dict,
           output_format: OutputFormat) -> None:
    """Write one table of named float columns, as CSV (9 significant digits
    a value) or as JSON whose "config" echoes ``echo``, to --out or stdout;
    a tagged run goes to <prefix>_<tag>.<format>, where --out, when given,
    is the prefix.  JSON goes out in pieces of rows (``_json_pieces``)."""
    if output_format == "csv":
        lines = [",".join(columns)]
        lines += [",".join(f"{v:.9g}" for v in row)
                  for row in zip(*(column.tolist() for column in columns.values()))]
        pieces: Iterable[str] = ["\n".join(lines) + "\n"]
    else:
        pieces = _json_pieces(echo, columns)
    out = args.out
    if tag:
        prefix = args.out or _PRESETS.get(args.preset, _NO_PRESET).prefix or args.command
        out = f"{prefix}_{tag}.{output_format}"
    if out is None:
        for piece in pieces:
            sys.stdout.write(piece)
        return
    with open(out, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(pieces)


# ----------------------------------------------------------------------------
# potential command
# ----------------------------------------------------------------------------

def _cmd_potential(args) -> int:
    if args.n < 1:
        raise _UsageError(f"--n must be >= 1, got {args.n}")
    runs = [(tag, _run_config(args, variant)) for tag, variant in _variants(args)]
    for tag, config in runs:
        params = config.params
        x_min = args.xmin if args.xmin is not None else -10.0 / params.a
        x_max = args.xmax if args.xmax is not None else 10.0 / params.a
        if x_min > x_max:
            raise _UsageError(f"--xmin {x_min} exceeds --xmax {x_max}")
        xs = np.linspace(x_min, x_max, args.n)
        echo = {"params": asdict(params), "x_min": x_min, "x_max": x_max, "n": args.n}
        _write(args, tag, {"x": xs, "V": potential_fn(xs, params)}, echo, config.output_format)
    return 0


# ----------------------------------------------------------------------------
# scatter command
# ----------------------------------------------------------------------------

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


def _scan_rows(config: RunConfig, args):
    """Run one scan.  Returns its named columns, nan at a failed energy, and
    (stage, "<error type>: <message>") by index of each failed energy, in
    grid order, where the stage is "analytic" or "oracle".  With the oracle
    the columns end with T_err, its error estimate, which scatter does not
    write."""
    params = config.params
    v_max = barrier_top(params)
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
                     for i, (stage, exc) in sorted(failures.items())}


def _survey_line(tag: str, config: RunConfig, columns: dict[str, np.ndarray]) -> str:
    v_max = barrier_top(config.params)
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


def _cmd_scatter(args) -> int:
    preset = _PRESETS.get(args.preset, _NO_PRESET)
    runs = [(tag, _run_config(args, variant))
            for tag, variant in _variants(args, preset.v0s)]
    if args.oracle_step is not None and not runs[0][1].oracle_enabled:
        raise _UsageError("--oracle-step needs an oracle run (--oracle)")
    any_errors, survey = False, []
    for tag, config in runs:
        columns, failures = _scan_rows(config, args)
        columns.pop("T_err", None)
        any_errors = any_errors or bool(failures)
        for i, (_, message) in failures.items():
            print(f"dengfan scatter: E={columns['E'][i]:g}: {message}", file=sys.stderr)
        _write(args, tag, columns, asdict(config), config.output_format)
        if preset.survey:
            survey.append(_survey_line(tag or "run", config, columns))
    if preset.survey:
        print("\n".join([preset.survey] + survey))
    return 2 if any_errors else 0


# ----------------------------------------------------------------------------
# verify command
# ----------------------------------------------------------------------------

def _cmd_verify(args) -> int:
    [(_, variant)] = _variants(args)
    config = _run_config(args, variant)

    e_ref, t_ref, r_ref = np.array(TABLE1).T
    table = scan(e_ref, DEFAULT_PARAMS)
    worst = max(np.max(np.abs(table.T - t_ref)), np.max(np.abs(table.R - r_ref)))
    print(f"corrected matching reproduces Table 1: max deviation {worst:.3g}")
    print()

    columns, failures = _scan_rows(replace(config, oracle_enabled=True), args)
    E, T, dT, uni = (columns[key] for key in ("E", "T", "delta_T", "unitarity_residual"))
    dR = np.abs(columns["R"] - columns["R_oracle"])
    # nan at a failed energy: the maxima over the energies compared, nan if
    # none (unitarity over those the closed form did not fail, 0 if none)
    with np.errstate(divide="ignore", invalid="ignore"):  # T = 0
        max_dt, max_rel_dt, max_dr, max_err = (np.fmax.reduce(a, initial=math.nan)
                                               for a in (dT, dT / T, dR, columns["T_err"]))
    max_uni = np.fmax.reduce(uni, initial=0.0)
    offenders: list[tuple[float, str]] = []
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


def main(argv: Sequence[str] | None = None) -> int:
    """Run one command line (``sys.argv[1:]`` when ``argv`` is None) and
    return its exit code.  ``main`` may be called any number of times in
    one process; the parser is built on the first call and reused, and
    keeps no state between calls."""
    args = build_parser().parse_args(argv)
    try:
        if args.command == "potential":
            return _cmd_potential(args)
        if args.command == "scatter":
            return _cmd_scatter(args)
        return _cmd_verify(args)
    except _UsageError as exc:
        print(f"dengfan {args.command}: error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
