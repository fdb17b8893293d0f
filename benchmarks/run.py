"""Benchmark of the dengfan CLI: end-to-end metrics, or per-layer ones with
--trace 1.  Run from the root of a source checkout:

    python3 benchmarks/run.py --workload paper --seed 1 --seconds 50 --trace 0

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it are a readable report.
Every run builds its inputs from the seed, runs the workload in one fresh
single-threaded worker process (worker.py), which also times set-up in fresh
interpreters spawned between its CLI calls, and then checks every output
against a 40-digit mpmath reference (reference.py).  See README.md for the
metrics and workloads.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter

import numpy as np

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
TABLE_TOL = 1e-5
UNITARITY_TOL = 1e-9
REF_TOL = 1e-6
# energies on the grid of `dengfan verify` (the Table-1 grid)
VERIFY_POINTS = 20
# digits are capped where the relative error reaches double rounding
DIGITS_CAP = -math.log10(2.0 ** -53)
# a checked value below this many digits has failed; failed and NaN values
# count at this floor, so the digit metrics keep one sign and can only fall
# when a value gets worse
DIGITS_FLOOR = -math.log10(REF_TOL)
SETUP_SPAWNS = 20
# fastest time of the worker's host-speed loop in a typical 50-s run on the
# 2-vCPU Intel Xeon host the benchmark was set up on; every end-to-end
# timing is scaled to it
HOST_NOMINAL_NS = 2.8e5
SETUP_CODE = "import dengfan.cli, time; print(repr(time.monotonic()))"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# the published Table 1, (E, T, R); kept here so the check does not trust
# the package's copy
TABLE1 = (
    (0.005, 0.0992153, 0.900785), (0.010, 0.0559170, 0.944083),
    (0.015, 0.0411413, 0.958859), (0.020, 0.0337481, 0.966252),
    (0.025, 0.0293473, 0.970653), (0.030, 0.0264526, 0.973547),
    (0.035, 0.0244214, 0.975579), (0.040, 0.0229305, 0.977069),
    (0.045, 0.0217998, 0.978200), (0.050, 0.0209209, 0.979079),
    (0.055, 0.0202247, 0.979775), (0.060, 0.0196651, 0.980335),
    (0.065, 0.0192101, 0.980790), (0.070, 0.0188371, 0.981163),
    (0.075, 0.0185293, 0.981471), (0.080, 0.0182742, 0.981726),
    (0.085, 0.0180621, 0.981938), (0.090, 0.0178858, 0.982114),
    (0.095, 0.0177393, 0.982261), (0.100, 0.0176180, 0.982382),
)
FAIL_KINDS = ("NoConvergenceError", "OverflowError", "SingularMatchingError")


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def child_env(root: str) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONHASHSEED"] = "0"
    env.update({k: "1" for k in THREAD_VARS})
    return env


# ----------------------------------------------------------------------------
# set-up: fresh interpreter to `import dengfan.cli` done
# ----------------------------------------------------------------------------

def setup_metrics(spawns: list, trace: bool) -> dict:
    """Fastest of the worker's set-up spawns.  With ``trace`` they ran under
    ``-X importtime``, which splits the time into numpy and dengfan import."""
    out = {"setup_s": min(total for total, _ in spawns)}
    if trace:
        numpy_s, dengfan_s = [], []
        for _, stderr in spawns:
            cum = {}
            for line in stderr.splitlines():
                parts = line.split("|")
                if len(parts) == 3 and parts[1].strip().isdigit():
                    cum.setdefault(parts[2].strip(), int(parts[1]) * 1e-6)
            numpy_s.append(cum["numpy"])
            dengfan_s.append(cum["dengfan.cli"] - cum["numpy"])
        out["numpy_import_s"] = min(numpy_s)
        out["dengfan_import_s"] = min(dengfan_s)
    return out


# ----------------------------------------------------------------------------
# worker process
# ----------------------------------------------------------------------------

def run_worker(wl: workloads.Workload, args, root: str, work: str, env: dict) -> dict:
    for name, cfg in wl.configs.items():
        with open(os.path.join(work, f"{name}.cfg.json"), "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
    calls = [[a.replace("{cfg}", work) for a in call] for call in wl.calls]
    timed = [[wl.curves[c][0], r, wl.curves[c][1]] for c, r in wl.timed]
    setup_cmd = ([sys.executable] + (["-X", "importtime"] if args.trace else [])
                 + ["-c", SETUP_CODE])
    spec = {"calls": calls, "dir": os.path.join(work, "out"), "seconds": args.seconds,
            "trace": bool(args.trace), "seed": args.seed, "timed": timed,
            "setup_cmd": setup_cmd, "setup_spawns": SETUP_SPAWNS,
            "spans": os.path.join(root, ".bench_out", f"spans-{wl.name}.npz")}
    os.makedirs(spec["dir"])
    os.makedirs(os.path.dirname(spec["spans"]), exist_ok=True)
    spec_path = os.path.join(work, "spec.json")
    result_path = os.path.join(work, "result.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), spec_path, result_path]
    proc = subprocess.Popen(cmd, env=env, cwd=work, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    # the worker may overshoot its budget by up to one pass
    timeout = 2.0 * args.seconds + 60.0
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker exceeded {timeout:g} s")
    if proc.returncode != 0:
        raise BenchError(f"worker failed ({proc.returncode}):\n{out}\n{err}")
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    result["spans_path"] = spec["spans"]
    return result


# ----------------------------------------------------------------------------
# output checks
# ----------------------------------------------------------------------------

class Checks:
    """Failed energies keyed by (curve, row), each with its first reason."""

    def __init__(self) -> None:
        self.failed: dict[tuple, str] = {}
        self.broken: list[str] = []   # checks whose failure makes correct false
        self.digits: list[float] = []      # every checked value, floored
        self.raw_digits: list[float] = []  # every finite checked value, unfloored

    def fail(self, key: tuple, kind: str) -> None:
        self.failed.setdefault(key, kind)

    def by_kind(self) -> dict[str, int]:
        return dict(sorted(Counter(self.failed.values()).items()))


def digits(value: float, ref: float) -> float:
    err = abs(value - ref) / abs(ref)
    return DIGITS_CAP if err == 0 else min(DIGITS_CAP, -math.log10(err))


def error_kinds(stderr: str) -> dict[str, str]:
    """E as the CLI prints it (``%g``) -> exception type, from the per-point
    stderr lines."""
    out = {}
    for line in stderr.splitlines():
        # dengfan scatter: E=<E>: <Type>: <message>
        head, _, rest = line.partition(": E=")
        if head != "dengfan scatter" or ": " not in rest:
            continue
        e_text, _, msg = rest.partition(": ")
        out[e_text] = msg.split(":", 1)[0].strip()
    return out


def load_curves(wl: workloads.Workload, out_dir: str, ck: Checks) -> dict[int, list]:
    """Rows of each output file of the first pass, by curve index."""
    curves = {}
    for c, (name, _) in enumerate(wl.curves):
        try:
            with open(os.path.join(out_dir, name), encoding="utf-8") as fh:
                curves[c] = json.load(fh)["rows"]
        except (OSError, ValueError, KeyError) as exc:
            ck.broken.append(f"{name}: {exc}")
            curves[c] = []
    return curves


def check_outputs(wl: workloads.Workload, result: dict, curves: dict,
                  reference: dict, ck: Checks) -> None:
    """Check the first pass's outputs into ``ck``."""
    if not result["identical"]:
        ck.broken.append("passes of one run wrote different outputs")
    if result.get("traced_identical") is False:
        ck.broken.append("traced outputs differ from untraced outputs")
    first = result["passes"][0]
    kinds: dict[str, str] = {}
    for call, code, err in zip(wl.calls, first["codes"], first["stderr"]):
        kinds.update(error_kinds(err))
        if call[0] == "scatter" and code not in (0, 2):
            ck.broken.append(f"{' '.join(call)} exited {code}")
    for c, ((name, _), n_rows) in enumerate(zip(wl.curves, wl.rows)):
        rows = curves[c]
        if len(rows) != n_rows:
            ck.broken.append(f"{name}: {len(rows)} rows, expected {n_rows}")
            for r in range(len(rows), n_rows):
                ck.fail((c, r), "MissingRow")
        for r, row in enumerate(rows[:n_rows]):
            if not math.isfinite(row["T"]):
                ck.fail((c, r), kinds.get(f"{row['E']:g}", "NaNRow"))
            elif not row["unitarity_residual"] <= UNITARITY_TOL:
                ck.fail((c, r), "UnitarityResidual")
            if "T_oracle" in row and not math.isfinite(row["T_oracle"]):
                ck.fail((c, r), kinds.get(f"{row['E']:g}", "OracleNaN"))
        if name.startswith("table1"):
            for r, (E, t_ref, r_ref) in enumerate(TABLE1):
                row = rows[r] if r < len(rows) else None
                if row is None or not (abs(row["E"] - E) <= 1e-12
                                       and abs(row["T"] - t_ref) <= TABLE_TOL
                                       and abs(row["R"] - r_ref) <= TABLE_TOL):
                    ck.fail((c, r), "Table1Deviation")
                    ck.broken.append(f"{name} row {r} misses Table 1")
    for c, r in wl.checks:
        rows = curves[c]
        if r >= len(rows):
            continue
        row = rows[r]
        t_ref = reference[ref_key(row["E"], wl.curves[c][1])]
        for label in ("T", "T_oracle"):
            if label not in row:
                continue
            value = row[label]
            if not math.isfinite(value):   # failed above as a NaN row
                ck.digits.append(DIGITS_FLOOR)
                continue
            if abs(value - t_ref) > REF_TOL * t_ref:
                ck.fail((c, r), "ReferenceMiss" if label == "T" else "OracleReferenceMiss")
            found = digits(value, t_ref)
            ck.raw_digits.append(found)
            ck.digits.append(max(DIGITS_FLOOR, found))
    verify_at = [i for i, call in enumerate(wl.calls) if call[0] == "verify"]
    for i in verify_at:
        text, code = first["stdout"][i], first["codes"][i]
        if code != 0 or "PASS" not in text.splitlines()[-1:]:
            ck.broken.append(f"verify exited {code} without PASS")
            for r in range(VERIFY_POINTS):
                ck.fail(("verify", r), "VerifyFail")


def ref_key(E: float, p: dict) -> str:
    return repr((E, p["v0"], p["a"], p["x_e"], p["q"], p["q_tilde"], p["m"]))


def reference_values(wl: workloads.Workload, curves: dict, cache_path: str) -> dict:
    """40-digit T at every checked energy, read from the cache when there."""
    import reference

    cache = {}
    if os.path.exists(cache_path):
        with open(cache_path, encoding="utf-8") as fh:
            cache = json.load(fh)
    out, fresh = {}, False
    for c, r in wl.checks:
        if r >= len(curves[c]):
            continue
        E, p = curves[c][r]["E"], wl.curves[c][1]
        key = ref_key(E, p)
        if key not in cache:
            cache[key] = reference.transmission(E, p["v0"], p["a"], p["x_e"],
                                                p["q"], p["q_tilde"], p["m"])
            fresh = True
        out[key] = cache[key]
    if fresh:
        os.makedirs(os.path.dirname(cache_path), exist_ok=True)
        with open(cache_path, "w", encoding="utf-8") as fh:
            json.dump(cache, fh)
    return out


# ----------------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------------

def pass_points(wl: workloads.Workload, curves: dict, ck: Checks) -> int:
    """Energies that got a result row in one pass (verify counts its grid
    when it passed)."""
    rows = sum(1 for rs in curves.values() for row in rs if math.isfinite(row["T"]))
    verify = sum(1 for call in wl.calls if call[0] == "verify")
    verify_ok = verify * VERIFY_POINTS - sum(1 for k in ck.failed if k[0] == "verify")
    return rows + verify_ok


def attempted(wl: workloads.Workload) -> int:
    return sum(wl.rows) + VERIFY_POINTS * sum(1 for call in wl.calls if call[0] == "verify")


def pass_seconds(passes: list[dict]) -> float:
    """CLI time of one pass: each call's fastest repeat, summed."""
    return sum(min(times) for times in zip(*(p["times"] for p in passes)))


def host_scale(result: dict) -> float:
    """Nominal over the run's fastest host-loop time.  The host's speed
    moves by up to 20% from run to run even in its fast stretches, and every
    timing is a fastest repeat, taken in those stretches; dividing by the
    fastest host-loop time, taken the same way, removes that movement."""
    return HOST_NOMINAL_NS / result["host_ns"]


def end_to_end(wl, result, setup, ck, curves) -> dict:
    scale = host_scale(result)
    pass_s = pass_seconds(result["passes"]) * scale
    ns = np.array(result["points"], dtype=float) * scale
    n_att = attempted(wl)
    return {
        "setup_s": (setup["setup_s"] * scale, "s"),
        "points_per_s": (pass_points(wl, curves, ck) / pass_s, "energies/s"),
        "point_ms_p50": (float(np.percentile(ns, 50)) * 1e-6, "ms"),
        "point_ms_p99": (float(np.percentile(ns, 99)) * 1e-6, "ms"),
        "ok_share": (1.0 - len(ck.failed) / n_att, "ratio"),
        "t_digits_min": (min(ck.digits, default=DIGITS_FLOOR), "digits"),
        "t_digits_median": (statistics.median(ck.digits or [DIGITS_FLOOR]), "digits"),
        "peak_rss_mb": (result["maxrss_kb"] / 1024.0, "MB"),
    }


def span_stats(path: str) -> dict:
    """Per span name: calls, total (inclusive) ns and self ns, where self
    time is a span's duration minus the durations of its direct children."""
    with np.load(path) as z:
        names, name_id, parent = z["names"], z["name_id"], z["parent"]
        dur = (z["end"] - z["start"]).astype(float)
    child = parent >= 0
    covered = np.bincount(parent[child], weights=dur[child], minlength=len(dur))
    n = len(names)
    calls = np.bincount(name_id, minlength=n)
    total = np.bincount(name_id, weights=dur, minlength=n)
    own = np.bincount(name_id, weights=dur - covered, minlength=n)
    return {str(names[i]): {"calls": int(calls[i]), "total_ns": float(total[i]),
                            "self_ns": float(own[i])} for i in range(n)}


def hyp2f1_digits(requests: list) -> float:
    """Fewest correct digits among the sampled gauss_2f1 values."""
    import mpmath as mp

    worst = DIGITS_CAP
    with mp.workdps(40):
        for a, b, c, z, got in requests:
            ref = complex(mp.hyp2f1(*(mp.mpc(*v) for v in (a, b, c, z))))
            if ref != 0:
                worst = min(worst, digits(complex(*got), ref))
    return worst


def per_layer(wl, result, setup) -> dict:
    st = span_stats(result["spans_path"])
    tr = result["trace"]
    n_pass = tr["n_passes"]
    zero = {"calls": 0, "total_ns": 0, "self_ns": 0}
    g = lambda name: st.get(name, zero)  # noqa: E731
    total = g("cli.main")["total_ns"] or 1

    def per_call(name, scale):
        s = g(name)
        return s["total_ns"] / s["calls"] * scale if s["calls"] else 0.0

    def share(name):
        return g(name)["self_ns"] / total

    def rate(count, name):
        t = g(name)["total_ns"]
        return count / (t * 1e-9) if t else 0.0

    points = g("scatter.compute_rt")["calls"]
    n2f1 = g("hyp2f1.gauss_2f1")["calls"]
    errors = tr["errors"].get("scatter.compute_rt", {})
    other = sum(v for k, v in errors.items() if k not in FAIL_KINDS)
    untraced = pass_seconds(result["passes"])
    traced = pass_seconds(result["traced_passes"])
    m = {
        "hyp2f1.gauss_2f1.calls_per_point": (n2f1 / points if points else 0.0, "calls/point"),
        "hyp2f1.gauss_2f1.us_per_call": (per_call("hyp2f1.gauss_2f1", 1e-3), "us"),
        "hyp2f1.gauss_2f1.self_share": (share("hyp2f1.gauss_2f1"), "share"),
        "hyp2f1.gauss_2f1.digits_min": (
            hyp2f1_digits(tr["requests"]) if tr["requests"] else DIGITS_CAP, "digits"),
        "hyp2f1.lngamma_complex.calls_per_2f1": (
            g("hyp2f1.lngamma_complex")["calls"] / n2f1 if n2f1 else 0.0, "calls/2F1"),
        "hyp2f1.lngamma_complex.self_share": (share("hyp2f1.lngamma_complex"), "share"),
        "model.side_coefficients.us_per_call": (per_call("model.side_coefficients", 1e-3), "us"),
        "scatter.match_coefficients.self_share": (share("scatter.match_coefficients"), "share"),
        "scatter.solve_amplitudes.us_per_call": (per_call("scatter.solve_amplitudes", 1e-3), "us"),
        "scatter.scan.self_share": (share("scatter.scan"), "share"),
    }
    for kind in FAIL_KINDS:
        m[f"scatter.fail.{kind}"] = (errors.get(kind, 0) / n_pass, "count")
    m["scatter.fail.other"] = (other / n_pass, "count")
    m.update({
        "oracle.integrate_scatter.ms_per_call": (per_call("oracle.integrate_scatter", 1e-6), "ms"),
        "oracle.integrate_scatter.self_share": (share("oracle.integrate_scatter"), "share"),
        "oracle.steps_per_s": (rate(tr["steps"], "oracle.integrate_scatter"), "steps/s"),
        "oracle.default_config.ms_per_call": (per_call("oracle.default_config", 1e-6), "ms"),
        "model.potential.samples_per_s": (rate(tr["samples"], "model.potential"), "samples/s"),
        "model.potential.self_share": (share("model.potential"), "share"),
        "cli.self_share": (share("cli.main"), "share"),
        "setup.numpy_import_s": (setup["numpy_import_s"], "s"),
        "setup.dengfan_import_s": (setup["dengfan_import_s"], "s"),
        "trace.overhead_share": (traced / untraced - 1.0, "share"),
    })
    return m


# ----------------------------------------------------------------------------
# driver
# ----------------------------------------------------------------------------

def environment() -> str:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(l.split(":", 1)[1].strip() for l in fh if l.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return (f"python {platform.python_version()}, numpy {np.__version__}, "
            f"cpu {cpu}, nproc {os.cpu_count()}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "dengfan", "cli.py")):
        print("benchmark: run from the root of a dengfan checkout "
              "(src/dengfan/cli.py not found)", file=sys.stderr)
        return 2
    wl = workloads.make(args.workload, args.seed)
    env = child_env(root)
    work = os.path.join(root, ".bench_tmp", f"{wl.name}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        result = run_worker(wl, args, root, work, env)
        setup = setup_metrics(result["setup"], bool(args.trace))
        cache = os.path.join(root, ".bench_cache", f"ref-{wl.name}-{args.seed}.json")
        ck = Checks()
        curves = load_curves(wl, result["first_dir"], ck)
        reference = reference_values(wl, curves, cache)
        check_outputs(wl, result, curves, reference, ck)
        metrics = (per_layer(wl, result, setup) if args.trace
                   else end_to_end(wl, result, setup, ck, curves))
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    n_att, n_fail = attempted(wl), len(ck.failed)
    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}  ({environment()})")
    pass_s = sorted(sum(p["times"]) for p in result["passes"])
    print(f"passes {len(pass_s)}"
          + (f" untraced, {len(result['traced_passes'])} traced" if args.trace else "")
          + f"; pass seconds {pass_s[0]:.3f} .. {pass_s[-1]:.3f}, "
            f"fastest repeat of each call summed {pass_seconds(result['passes']):.3f}")
    if not args.trace:
        print(f"host-speed loop: fastest {result['host_ns'] * 1e-3:.1f} us of "
              f"{result['host_samples']} timings (nominal {HOST_NOMINAL_NS * 1e-3:.1f} us); "
              f"timings below scaled by {host_scale(result):.4f}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:.6g} {unit}")
    print(f"checks: attempted {n_att}, failed {n_fail}, fail_share {n_fail / n_att:.6g}, "
          f"reference-checked values {len(ck.digits)}, fewest digits "
          f"{min(ck.raw_digits, default=math.nan):.3g} (finite values, not floored)")
    for kind, count in ck.by_kind().items():
        print(f"  failed: {kind} x{count}")
    for why in ck.broken:
        print(f"  BROKEN: {why}")
    print(json.dumps({
        "correct": not ck.broken, "attempted": n_att, "failed": n_fail,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
