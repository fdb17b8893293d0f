"""Command-line front end: potential tables, R/T scans, and verification.

Subcommands
-----------
potential   tabulate V(x); list-valued --v0 or --q emit one file per value
scatter     tabulate E, E/V_max, T, R (+ oracle columns with --oracle)
verify      compare the closed-form R/T against the integration oracle and
            report which matching mode reproduces the reference table

Configuration precedence: command-line flags override a --config JSON file,
which overrides the built-in defaults (the reference-table setup).  Exit
codes: 0 success, 1 usage error, 2 numerical failure or tolerance breach.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass, replace
from typing import Literal, Sequence

import numpy as np

from .model import BarrierParams, barrier_top, potential as potential_fn
from .oracle import (IntegrationConfig, OracleError, OracleResult, _default_step,
                     default_config, integrate_scatter)
from .reference import DEFAULT_PARAMS, TABLE1, TABLE1_ENERGIES
from .scatter import (MatchMode, ScanEntry, SingularMatchingError, compute_rt,
                      scan)

OutputFormat = Literal["csv", "json"]

__all__ = ["RunConfig", "main"]

_DT_TOL = 1e-6
_DR_TOL = 1e-6
_UNITARITY_TOL = 1e-9

_SCATTER_HEADER = "E,E_over_Vmax,T,R,unitarity_residual"
_SCATTER_HEADER_ORACLE = _SCATTER_HEADER + ",T_oracle,R_oracle,delta_T"


class _UsageError(Exception):
    pass


@dataclass(frozen=True)
class RunConfig:
    """One scan configuration (parameters, energy grid, output options)."""

    params: BarrierParams
    e_min: float = 0.005
    e_max: float = 0.100
    n_points: int = 20
    mode: MatchMode = "corrected"
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
        if self.n_points < 1:
            raise ValueError(f"n_points must be >= 1, got {self.n_points}")
        if self.mode not in ("corrected", "paper"):
            raise ValueError(f"mode must be 'corrected' or 'paper', got {self.mode!r}")
        if self.output_format not in ("csv", "json"):
            raise ValueError(
                f"output_format must be 'csv' or 'json', got {self.output_format!r}"
            )

    def energies(self) -> list[float]:
        if self.n_points == 1:
            return [self.e_min]
        space = np.geomspace if self.log_grid else np.linspace
        return [float(E) for E in space(self.e_min, self.e_max, self.n_points)]


def config_to_dict(config: RunConfig) -> dict:
    out = asdict(config)
    out["params"] = asdict(config.params)
    return out


def config_from_dict(data: dict, base: RunConfig) -> RunConfig:
    """Overlay a (possibly partial) config mapping onto ``base``."""
    if not isinstance(data, dict):
        raise _UsageError("config must be a JSON object")
    known = {"params", "e_min", "e_max", "n_points", "mode",
             "output_format", "oracle_enabled", "log_grid"}
    unknown = set(data) - known
    if unknown:
        raise _UsageError(f"unknown config keys: {sorted(unknown)}")
    params = base.params
    if "params" in data:
        pdata = data["params"]
        if not isinstance(pdata, dict):
            raise _UsageError("config 'params' must be a JSON object")
        pknown = {"v0", "a", "x_e", "q", "q_tilde", "m"}
        punknown = set(pdata) - pknown
        if punknown:
            raise _UsageError(f"unknown params keys: {sorted(punknown)}")
        try:
            params = replace(params, **pdata)
        except (TypeError, ValueError) as exc:
            raise _UsageError(f"invalid params in config: {exc}") from exc
    fields = {key: data[key] for key in known - {"params"} if key in data}
    try:
        return replace(base, params=params, **fields)
    except (TypeError, ValueError) as exc:
        raise _UsageError(f"invalid config: {exc}") from exc


# ----------------------------------------------------------------------------
# parsing
# ----------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    # usage problems exit 1 (argparse defaults to 2, reserved here for
    # numerical failures)
    def error(self, message: str):  # noqa: D102
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_common_flags(sub: argparse.ArgumentParser, multi_params: bool) -> None:
    nargs = "+" if multi_params else None
    sub.add_argument("--v0", type=float, nargs=nargs, default=None,
                     help="well depth / dissociation energy")
    sub.add_argument("--a", type=float, default=None, help="inverse range")
    sub.add_argument("--xe", type=float, default=None, help="equilibrium distance")
    sub.add_argument("--q", type=float, nargs=nargs, default=None,
                     help="deformation for x < 0"
                          + (" (list sets q_tilde = q per value)" if multi_params else ""))
    sub.add_argument("--q-tilde", dest="q_tilde", type=float, default=None,
                     help="deformation for x >= 0 (defaults to q)")
    sub.add_argument("--mass", type=float, default=None, help="particle mass")
    sub.add_argument("--format", choices=("csv", "json"), default=None,
                     help="output format")
    sub.add_argument("--config", type=str, default=None,
                     help="JSON config file (flags override it)")
    sub.add_argument("--out", type=str, default=None,
                     help="output file, or filename prefix for multi-curve runs")


def _add_grid_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--emin", type=float, default=None, help="lowest energy")
    sub.add_argument("--emax", type=float, default=None, help="highest energy")
    sub.add_argument("--n", type=int, default=None, help="number of grid points")
    sub.add_argument("--mode", choices=("corrected", "paper"), default=None,
                     help="derivative-matching convention")
    sub.add_argument("--oracle", action="store_true",
                     help="add integration-oracle columns")
    sub.add_argument("--table1", action="store_true",
                     help="preset: reference-table grid and parameters")
    sub.add_argument("--fig3", action="store_true",
                     help="preset: E/V_max in (0, 5], 200 points")
    sub.add_argument("--fig4", action="store_true",
                     help="preset: low-energy log grid, v0 in {1.15, 1.25, 1.35}")
    sub.add_argument("--oracle-step", dest="oracle_step", type=float, default=None,
                     help="override the oracle integration step")
    sub.add_argument("--oracle-xmax", dest="oracle_xmax", type=float, default=None,
                     help="override the oracle half-domain")


def build_parser() -> _Parser:
    parser = _Parser(prog="dengfan",
                     description="Reflection/transmission coefficients for the "
                                 "symmetric barrier-type shifted Deng-Fan potential")
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    pot = subs.add_parser("potential", help="tabulate V(x)")
    _add_common_flags(pot, multi_params=True)
    pot.add_argument("--xmin", type=float, default=None,
                     help="left edge of the x grid (default -10/a)")
    pot.add_argument("--xmax", type=float, default=None,
                     help="right edge of the x grid (default +10/a)")
    pot.add_argument("--n", type=int, default=None,
                     help="number of x samples (default 401)")

    sct = subs.add_parser("scatter", help="tabulate T(E), R(E)")
    _add_common_flags(sct, multi_params=True)
    _add_grid_flags(sct)

    ver = subs.add_parser("verify", help="analytic-vs-oracle verification report")
    _add_common_flags(ver, multi_params=False)
    _add_grid_flags(ver)

    return parser


def _scalar(value, flag: str):
    """Collapse an nargs='+' value to a scalar where only one is allowed."""
    if isinstance(value, list):
        if len(value) != 1:
            raise _UsageError(f"{flag} takes a single value here")
        return value[0]
    return value


def _resolve_params(args, base: BarrierParams,
                    v0=None, q=None) -> BarrierParams:
    """Apply parameter flags (already scalar) on top of ``base``."""
    updates = {}
    if v0 is not None:
        updates["v0"] = v0
    if args.a is not None:
        updates["a"] = args.a
    if args.xe is not None:
        updates["x_e"] = args.xe
    if q is not None:
        updates["q"] = q
        if args.q_tilde is None:
            updates["q_tilde"] = q
    if args.q_tilde is not None:
        updates["q_tilde"] = args.q_tilde
    if args.mass is not None:
        updates["m"] = args.mass
    try:
        return replace(base, **updates)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc


def _load_config_file(path: str, base: RunConfig) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise _UsageError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise _UsageError(f"config file is not valid JSON: {exc}") from exc
    return config_from_dict(data, base)


# ----------------------------------------------------------------------------
# output helpers
# ----------------------------------------------------------------------------

def _fmt(x: float) -> str:
    return f"{x:.9g}"


def _write_text(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _render(header: Sequence[str], rows: Sequence[Sequence[float]],
            output_format: OutputFormat, config_echo: dict | None) -> str:
    if output_format == "csv":
        lines = [",".join(header)]
        lines += [",".join(_fmt(v) for v in row) for row in rows]
        return "\n".join(lines) + "\n"
    doc = {
        "config": config_echo,
        "rows": [dict(zip(header, row)) for row in rows],
    }
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=True) + "\n"


# ----------------------------------------------------------------------------
# potential command
# ----------------------------------------------------------------------------

def _cmd_potential(args) -> int:
    base = RunConfig(params=DEFAULT_PARAMS)
    if args.config:
        base = _load_config_file(args.config, base)
    fmt = args.format or base.output_format

    v0_list = args.v0 if isinstance(args.v0, list) else None
    q_list = args.q if isinstance(args.q, list) else None
    if v0_list and q_list and len(v0_list) > 1 and len(q_list) > 1:
        raise _UsageError("only one of --v0 / --q may be list-valued")

    variants: list[tuple[str, BarrierParams]] = []
    if v0_list and len(v0_list) > 1:
        q = _scalar(args.q, "--q") if args.q else None
        for v0 in v0_list:
            variants.append((f"v0_{v0:g}", _resolve_params(args, base.params, v0, q)))
    elif q_list and len(q_list) > 1:
        v0 = _scalar(args.v0, "--v0") if args.v0 else None
        for q in q_list:
            variants.append((f"q_{q:g}", _resolve_params(args, base.params, v0, q)))
    else:
        v0 = _scalar(args.v0, "--v0") if args.v0 else None
        q = _scalar(args.q, "--q") if args.q else None
        variants.append(("", _resolve_params(args, base.params, v0, q)))

    n = args.n if args.n is not None else 401
    if n < 1:
        raise _UsageError(f"--n must be >= 1, got {n}")

    for tag, params in variants:
        x_min = args.xmin if args.xmin is not None else -10.0 / params.a
        x_max = args.xmax if args.xmax is not None else 10.0 / params.a
        if x_min > x_max:
            raise _UsageError(f"--xmin {x_min} exceeds --xmax {x_max}")
        xs = np.linspace(x_min, x_max, n)
        rows = [(float(x), float(potential_fn(float(x), params))) for x in xs]
        echo = config_to_dict(replace(base, params=params, output_format=fmt))
        text = _render(("x", "V"), rows, fmt, echo)
        if len(variants) == 1:
            _write_text(text, args.out)
        else:
            prefix = args.out or "potential"
            ext = "csv" if fmt == "csv" else "json"
            _write_text(text, f"{prefix}_{tag}.{ext}")
    return 0


# ----------------------------------------------------------------------------
# scatter command
# ----------------------------------------------------------------------------

def _oracle_config(E: float, params: BarrierParams, args) -> IntegrationConfig:
    seed = max(40.0 / params.a, 10.0 * params.x_e)
    if args.oracle_step is None and args.oracle_xmax is None:
        return default_config(E, lambda x: potential_fn(x, params),
                              m=params.m, x_max_seed=seed)
    x_max = args.oracle_xmax if args.oracle_xmax is not None else seed
    step = (args.oracle_step if args.oracle_step is not None
            else _default_step(E, params.m))
    try:
        return IntegrationConfig(x_max=x_max, step=step)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc


def _run_oracle(E: float, params: BarrierParams, args) -> OracleResult:
    cfg = _oracle_config(E, params, args)
    return integrate_scatter(E, lambda x: potential_fn(x, params), params.m, cfg)


def _apply_presets(args, config: RunConfig) -> tuple[RunConfig, list[float] | None]:
    """Returns (config, v0_list or None).  fig3/fig4 grids depend on the
    final parameters, so they are resolved per variant later via log/lin
    markers plus e_min/e_max recomputation in _variant_config."""
    if sum(bool(f) for f in (args.table1, args.fig3, args.fig4)) > 1:
        raise _UsageError("presets --table1/--fig3/--fig4 are mutually exclusive")
    if args.table1:
        config = replace(config, params=DEFAULT_PARAMS, e_min=0.005, e_max=0.100,
                         n_points=20, log_grid=False)
        return config, None
    if args.fig3:
        config = replace(config, params=DEFAULT_PARAMS, n_points=200, log_grid=False)
        return config, None
    if args.fig4:
        config = replace(config, params=DEFAULT_PARAMS, n_points=2000, log_grid=True)
        return config, [1.15, 1.25, 1.35]
    return config, None


def _variant_config(args, config: RunConfig, params: BarrierParams) -> RunConfig:
    """Finish grid resolution for one parameter variant."""
    v_max = barrier_top(params)
    e_min, e_max = config.e_min, config.e_max
    if args.fig3:
        e_min, e_max = 5.0 * v_max / config.n_points, 5.0 * v_max
    if args.fig4:
        # log grid reaching low enough to expose narrow near-zero resonances
        e_min, e_max = 1e-6 * v_max, 0.5 * v_max
    if args.emin is not None:
        e_min = args.emin
    if args.emax is not None:
        e_max = args.emax
    try:
        return replace(config, params=params, e_min=e_min, e_max=e_max)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc


def _scan_rows(config: RunConfig, args, use_oracle: bool):
    """Run one scan; returns (rows, errors) with nan-filled failed rows."""
    params = config.params
    v_max = barrier_top(params)
    entries = scan(config.energies(), params, config.mode)
    rows = []
    errors: list[tuple[float, str]] = []
    for entry in entries:
        E = entry.E
        e_over = E / v_max if v_max > 0 else math.inf
        if entry.error is not None:
            width = 8 if use_oracle else 5
            rows.append((E, e_over) + (math.nan,) * (width - 2))
            errors.append((E, entry.error))
            continue
        res = entry.result
        row = (E, e_over, res.T, res.R, res.unitarity_residual)
        if use_oracle:
            try:
                orc = _run_oracle(E, params, args)
                row += (orc.T, orc.R, abs(res.T - orc.T))
            except OracleError as exc:
                row += (math.nan, math.nan, math.nan)
                errors.append((E, f"{type(exc).__name__}: {exc}"))
        rows.append(row)
    return rows, errors


def _fig4_summary(tag: str, config: RunConfig, rows) -> str:
    v_max = barrier_top(config.params)
    ok = [(r[0], r[2]) for r in rows if not math.isnan(r[2])]
    if not ok or v_max <= 0:
        return f"  {tag}: no successful points"
    e_peak, t_peak = max(ok, key=lambda t: t[1])
    low = [t for e, t in ok if e / v_max <= 1e-3]
    near_total = max(low) >= 0.9 if low else False
    return (f"  {tag}: max T = {t_peak:.4f} at E = {e_peak:.4g} "
            f"(E/Vmax = {e_peak / v_max:.3g}); T at lowest grid energy = "
            f"{ok[0][1]:.4g}; near-total transmission (T >= 0.9) below "
            f"E/Vmax = 1e-3: {'yes' if near_total else 'no'}")


def _cmd_scatter(args) -> int:
    config = RunConfig(params=DEFAULT_PARAMS)
    if args.config:
        config = _load_config_file(args.config, config)
    config, preset_v0 = _apply_presets(args, config)

    v0_values: list[float] | None = None
    if isinstance(args.v0, list):
        v0_values = args.v0 if len(args.v0) > 1 else None
    q = _scalar(args.q, "--q") if args.q else None
    if v0_values is None and preset_v0 is not None and args.v0 is None:
        v0_values = preset_v0

    updates = {}
    if args.mode is not None:
        updates["mode"] = args.mode
    if args.format is not None:
        updates["output_format"] = args.format
    if args.oracle:
        updates["oracle_enabled"] = True
    if args.n is not None:
        updates["n_points"] = args.n
    try:
        config = replace(config, **updates)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc

    if v0_values is None:
        v0 = _scalar(args.v0, "--v0") if args.v0 else None
        variants = [("", _resolve_params(args, config.params, v0, q))]
    else:
        variants = [(f"v0_{v0:g}", _resolve_params(args, config.params, v0, q))
                    for v0 in v0_values]

    use_oracle = config.oracle_enabled
    header = (_SCATTER_HEADER_ORACLE if use_oracle else _SCATTER_HEADER).split(",")
    any_errors = False
    summaries = []
    for tag, params in variants:
        vconfig = _variant_config(args, config, params)
        rows, errors = _scan_rows(vconfig, args, use_oracle)
        any_errors = any_errors or bool(errors)
        for E, message in errors:
            print(f"dengfan scatter: E={E:g}: {message}", file=sys.stderr)
        text = _render(header, rows, vconfig.output_format,
                       config_to_dict(vconfig))
        if len(variants) == 1:
            _write_text(text, args.out)
        else:
            prefix = args.out or ("fig4" if args.fig4 else "scatter")
            ext = "csv" if vconfig.output_format == "csv" else "json"
            _write_text(text, f"{prefix}_{tag}.{ext}")
        if args.fig4:
            summaries.append(_fig4_summary(tag or "run", vconfig, rows))
    if summaries:
        print("low-energy transmission survey "
              "(log grid, E/Vmax in [1e-06, 0.5]):")
        for line in summaries:
            print(line)
    return 2 if any_errors else 0


# ----------------------------------------------------------------------------
# verify command
# ----------------------------------------------------------------------------

def _table_check(mode: MatchMode) -> tuple[str, float | None]:
    """Max |dT| against the reference table, or the failure description."""
    worst = 0.0
    try:
        for E, t_ref, r_ref in TABLE1:
            res = compute_rt(E, DEFAULT_PARAMS, mode)
            worst = max(worst, abs(res.T - t_ref), abs(res.R - r_ref))
    except SingularMatchingError as exc:
        return f"{type(exc).__name__}: {exc}", None
    return "", worst


def _cmd_verify(args) -> int:
    config = RunConfig(params=DEFAULT_PARAMS, oracle_enabled=True)
    if args.config:
        config = _load_config_file(args.config, config)
    config, _ = _apply_presets(args, config)
    v0 = _scalar(args.v0, "--v0") if args.v0 else None
    q = _scalar(args.q, "--q") if args.q else None
    params = _resolve_params(args, config.params, v0, q)
    updates = {"params": params, "oracle_enabled": True}
    if args.mode is not None:
        updates["mode"] = args.mode
    if args.n is not None:
        updates["n_points"] = args.n
    try:
        config = replace(config, **updates)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    config = _variant_config(args, config, params)

    print("mode check against the reference table "
          "(v0=1.25, a=x_e=q=q_tilde=0.8, m=1):")
    reproducing = []
    for mode in ("corrected", "paper"):
        failure, worst = _table_check(mode)
        if failure:
            print(f"  {mode}: {failure} -> does not reproduce the table")
        elif worst <= 1e-5:
            print(f"  {mode}: max deviation = {worst:.3g} -> reproduces the table")
            reproducing.append(mode)
        else:
            print(f"  {mode}: max deviation = {worst:.3g} "
                  f"-> does not reproduce the table")
    print(f"  reproducing mode: {', '.join(reproducing) if reproducing else 'none'}")
    print()

    energies = config.energies()
    max_dt = max_dr = max_uni = 0.0
    offenders: list[tuple[float, str]] = []
    for E in energies:
        try:
            res = compute_rt(E, config.params, config.mode)
        except Exception as exc:
            offenders.append((E, f"analytic: {type(exc).__name__}: {exc}"))
            continue
        max_uni = max(max_uni, res.unitarity_residual)
        try:
            orc = _run_oracle(E, config.params, args)
        except OracleError as exc:
            offenders.append((E, f"oracle: {type(exc).__name__}: {exc}"))
            continue
        dt, dr = abs(res.T - orc.T), abs(res.R - orc.R)
        max_dt, max_dr = max(max_dt, dt), max(max_dr, dr)
        if dt > _DT_TOL or dr > _DR_TOL:
            offenders.append((E, f"|dT|={dt:.3g}, |dR|={dr:.3g}"))
        if res.unitarity_residual > _UNITARITY_TOL:
            offenders.append((E, f"unitarity residual {res.unitarity_residual:.3g}"))

    print(f"analytic vs oracle over {len(energies)} energies "
          f"(mode={config.mode}):")
    print(f"  max |T_analytic - T_oracle| = {max_dt:.3g}   (tol {_DT_TOL:g})")
    print(f"  max |R_analytic - R_oracle| = {max_dr:.3g}   (tol {_DR_TOL:g})")
    print(f"  max unitarity residual      = {max_uni:.3g}   (tol {_UNITARITY_TOL:g})")
    if offenders:
        print("offending energies:")
        for E, why in offenders:
            print(f"  E = {E:g}: {why}")
        print("FAIL")
        return 2
    print("PASS")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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
