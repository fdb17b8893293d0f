"""One benchmark process: run a workload's CLI calls through dengfan.cli.main.

    python worker.py SPEC.json RESULT.json

SPEC holds the CLI calls of one pass, the time budget, the (output file,
row, params) triples of the single-call compute_rt timing, the set-up
command, and whether to trace.  The worker runs whole passes until the
budget is spent, each into its own directory, with slices of compute_rt
timing and set-up spawns between the CLI calls, and checks that every pass
wrote the same bytes.  With tracing there is no compute_rt timing: half the
budget runs untraced, with the set-up spawns, and half traced, and the
traced passes must match the untraced ones byte for byte.  This file imports
only dengfan, the numpy it already loads, and the standard library, so the
process's peak memory is the program's own.
"""

from __future__ import annotations

import cmath
import contextlib
import filecmp
import io
import json
import math
import os
import random
import resource
import shutil
import subprocess
import sys
import time
from array import array

import numpy as np

import dengfan.cli
import dengfan.hyp2f1
import dengfan.oracle
import dengfan.scatter
from dengfan import BarrierParams, compute_rt

# (module, attribute looked up by the caller, span name)
TRACED = (
    (dengfan.scatter, "compute_rt", "scatter.compute_rt"),
    (dengfan.scatter, "match_coefficients", "scatter.match_coefficients"),
    (dengfan.scatter, "solve_amplitudes", "scatter.solve_amplitudes"),
    (dengfan.scatter, "side_coefficients", "model.side_coefficients"),
    (dengfan.scatter, "gauss_2f1", "hyp2f1.gauss_2f1"),
    (dengfan.hyp2f1, "lngamma_complex", "hyp2f1.lngamma_complex"),
    (dengfan.cli, "scan", "scatter.scan"),
    (dengfan.cli, "compute_rt", "scatter.compute_rt"),
    (dengfan.cli, "integrate_scatter", "oracle.integrate_scatter"),
    (dengfan.cli, "default_config", "oracle.default_config"),
    (dengfan.cli, "potential_fn", "model.potential"),
    (dengfan.cli, "barrier_top", "model.barrier_top"),
    (dengfan.oracle, "plane_wave_decompose", "oracle.plane_wave_decompose"),
)
# gauss_2f1 requests kept for the parent's mpmath comparison
SAMPLED_2F1 = 60
# compute_rt timing after each CLI call, as a share of that call's time
TIMING_SHARE = 0.25
# samples every timed compute_rt call gets at least
MIN_SAMPLES = 3
# compute_rt samples per timing of the host-speed loop
HOST_EVERY = 8


class Tracer:
    """Spans (name, start, end, parent) kept in memory, plus a few counters.

    The process is single threaded, so one stack gives every span's parent.
    """

    def __init__(self, seed: int) -> None:
        self.names: list[str] = []
        self.name_id: array = array("B")
        self.start: array = array("q")
        self.end: array = array("q")
        self.parent: array = array("q")
        self.stack: list[int] = []
        self.errors: dict[str, dict[str, int]] = {}
        self.steps = 0
        self.samples = 0
        self.requests: list[list] = []
        self.n_requests = 0
        self.rng = random.Random(seed)
        self.saved: list[tuple] = []

    def _wrap(self, name: str, fn):
        clock = time.perf_counter_ns
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)

        def traced(*args, **kwargs):
            idx = len(self.name_id)
            self.name_id.append(name_id)
            self.parent.append(self.stack[-1] if self.stack else -1)
            self.end.append(0)
            self.stack.append(idx)
            self.start.append(clock())
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                kind = type(exc).__name__
                per = self.errors.setdefault(name, {})
                per[kind] = per.get(kind, 0) + 1
                raise
            finally:
                self.end[idx] = clock()
                self.stack.pop()
            self._count(name, args, out)
            return out

        return traced

    def _count(self, name: str, args, out) -> None:
        if name == "oracle.integrate_scatter":
            cfg = args[3]
            self.steps += math.ceil(2.0 * cfg.x_max / cfg.step)
        elif name == "model.potential":
            self.samples += getattr(args[0], "size", 1)
        elif name == "hyp2f1.gauss_2f1":
            # reservoir sample, chosen before the value is looked at
            self.n_requests += 1
            slot = (len(self.requests) if len(self.requests) < SAMPLED_2F1
                    else self.rng.randrange(self.n_requests))
            if slot < SAMPLED_2F1:
                req = args[0]
                row = [[c.real, c.imag] for c in map(complex, (req.a, req.b, req.c, req.z))]
                row.append([out.real, out.imag])
                if slot == len(self.requests):
                    self.requests.append(row)
                else:
                    self.requests[slot] = row

    def install(self) -> None:
        for module, attr, name in TRACED:
            fn = getattr(module, attr)
            self.saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(name, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self.saved):
            setattr(module, attr, fn)
        self.saved.clear()

    def write(self, path: str) -> None:
        """All spans as arrays: names, name_id, start and end (ns), parent
        (index of the enclosing span, -1 for none)."""
        np.savez(path, names=np.array(self.names), name_id=np.frombuffer(self.name_id, np.uint8),
                 start=np.frombuffer(self.start, np.int64), end=np.frombuffer(self.end, np.int64),
                 parent=np.frombuffer(self.parent, np.int64))


def run_pass(calls: list[list[str]], out_dir: str, main, after=None) -> dict:
    """One pass of the CLI calls into ``out_dir``; ``after``, when given, is
    called with each call's duration once the call is done."""
    os.makedirs(out_dir)
    times, codes, stdout, stderr = [], [], [], []
    for call in calls:
        argv = [arg.replace("{dir}", out_dir) for arg in call]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            code = main(argv)
            times.append(time.perf_counter() - t0)
        codes.append(code)
        stdout.append(out.getvalue())
        stderr.append(err.getvalue())
        if after is not None:
            after(times[-1])
    return {"times": times, "codes": codes, "stdout": stdout, "stderr": stderr}


def same_output(a: dict, a_dir: str, b: dict, b_dir: str) -> bool:
    if a["stdout"] != b["stdout"] or a["codes"] != b["codes"]:
        return False
    names = sorted(os.listdir(a_dir))
    if names != sorted(os.listdir(b_dir)):
        return False
    return all(filecmp.cmp(os.path.join(a_dir, n), os.path.join(b_dir, n), shallow=False)
               for n in names)


def run_passes(spec: dict, tag: str, budget: float, main, first: dict | None,
               first_dir: str | None, timer=None, setup=None) -> tuple[list[dict], bool]:
    """Whole passes until the pass count that ends nearest ``budget``
    seconds (at least one).  Every pass is compared with the first pass of
    the run.  After each call the compute_rt timer, once the first pass has
    written the energies it times, takes its share, and then the set-up
    timer spawns when one is due."""

    def after(seconds: float) -> None:
        if timer is not None and timer.calls:
            timer.run_for(TIMING_SHARE * seconds)
        if setup is not None:
            setup.poll()

    passes, identical = [], True
    t_start = time.perf_counter()
    while True:
        out_dir = os.path.join(spec["dir"], f"{tag}{len(passes)}")
        p = run_pass(spec["calls"], out_dir, main, after)
        if first is None:
            first, first_dir = p, out_dir
            if timer is not None:
                timer.load(first_dir)
        else:
            identical = identical and same_output(first, first_dir, p, out_dir)
            shutil.rmtree(out_dir)
        passes.append(p)
        elapsed = time.perf_counter() - t_start
        if elapsed + 0.5 * elapsed / len(passes) >= budget:
            return passes, identical


def host_loop() -> complex:
    """Fixed work that no change to dengfan touches: complex arithmetic and
    math calls in a Python loop, the mix of the closed form's inner code,
    about as long as one compute_rt call.  Its time measures the host's
    speed, which swings by up to 2x for stretches of seconds to minutes on
    a shared host."""
    s = 0j
    for i in range(1, 600):
        z = complex(i * 1e-4, 0.5)
        s += cmath.exp(-z) * math.lgamma(1.0 + i * 1e-3) / (z + 1.0)
    return s


class PointTimer:
    """compute_rt timed one call at a time, at energies read from the CLI's
    own output.  Slices of this timing run between the CLI calls, cycling
    through the calls, so every call is sampled many times across the whole
    run; each call reports its fastest sample.  Other tenants of a shared
    host slow whole stretches of a run, and the fastest repeat is the
    steadiest estimate of the call's own cost.  The host-speed loop is
    timed after every HOST_EVERY calls, the same way."""

    def __init__(self, timed: list) -> None:
        self.timed = timed
        self.calls: list = []
        self.best: list[int] = []
        self.samples: list[int] = []
        self.next = 0
        self.host_best = 2 ** 62
        self.host_samples = 0
        self.count = 0

    def load(self, out_dir: str) -> None:
        rows: dict[str, list] = {}
        for name, row, params in self.timed:
            if name not in rows:
                with open(os.path.join(out_dir, name), encoding="utf-8") as fh:
                    rows[name] = json.load(fh)["rows"]
            self.calls.append((rows[name][row]["E"], BarrierParams(**params)))
        self.best = [2 ** 62] * len(self.calls)
        self.samples = [0] * len(self.calls)

    def _time_one(self) -> None:
        i = self.next
        E, params = self.calls[i]
        t0 = time.perf_counter_ns()
        try:
            compute_rt(E, params)
        except Exception:  # a failing energy still costs its time
            pass
        self.best[i] = min(self.best[i], time.perf_counter_ns() - t0)
        self.samples[i] += 1
        self.next = (i + 1) % len(self.calls)
        self.count += 1
        if self.count % HOST_EVERY == 0:
            t0 = time.perf_counter_ns()
            host_loop()
            self.host_best = min(self.host_best, time.perf_counter_ns() - t0)
            self.host_samples += 1

    def run_for(self, seconds: float) -> None:
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            self._time_one()

    def result(self) -> list[int]:
        """Fastest sample of each call, in ns."""
        while min(self.samples) < MIN_SAMPLES:
            self._time_one()
        return self.best


class SetupTimer:
    """Fresh interpreters timed from spawn to ``import dengfan.cli`` done,
    at most one after each CLI call, due at even steps over the budget, so
    that they sample the host's slow and fast stretches alike.  The child
    prints its CLOCK_MONOTONIC time when the import is done."""

    def __init__(self, cmd: list[str], n: int, budget: float) -> None:
        self.cmd, self.n, self.budget = cmd, n, budget
        self.t_start = time.perf_counter()
        self.spawns: list[list] = []   # [seconds, stderr]

    def _spawn(self) -> None:
        t0 = time.monotonic()
        done = subprocess.run(self.cmd, capture_output=True, text=True, timeout=60)
        if done.returncode != 0:
            raise RuntimeError(f"import dengfan.cli failed:\n{done.stderr}")
        self.spawns.append([float(done.stdout) - t0, done.stderr])

    def poll(self) -> None:
        due = (time.perf_counter() - self.t_start) * self.n / self.budget
        if len(self.spawns) < min(self.n, due):
            self._spawn()

    def result(self) -> list[list]:
        while len(self.spawns) < self.n:
            self._spawn()
        return self.spawns


def main() -> int:
    spec_path, result_path = sys.argv[1], sys.argv[2]
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    main_fn = dengfan.cli.main
    result: dict = {}
    if spec["trace"]:
        budget, timer = spec["seconds"] / 2.0, None
    else:
        budget, timer = spec["seconds"], PointTimer(spec["timed"])
    setup = SetupTimer(spec["setup_cmd"], spec["setup_spawns"], budget)
    passes, identical = run_passes(spec, "p", budget, main_fn, None, None, timer, setup)
    result["setup"] = setup.result()
    result["passes"] = passes
    result["identical"] = identical
    result["first_dir"] = os.path.join(spec["dir"], "p0")
    if timer is not None:
        result["points"] = timer.result()
        result["host_ns"] = timer.host_best
        result["host_samples"] = timer.host_samples
    else:
        tracer = Tracer(spec["seed"])
        tracer.install()
        traced_main = tracer._wrap("cli.main", main_fn)
        try:
            tpasses, same = run_passes(spec, "t", budget, traced_main,
                                       passes[0], result["first_dir"])
        finally:
            tracer.uninstall()
        result["traced_passes"] = tpasses
        result["traced_identical"] = same
        tracer.write(spec["spans"])
        result["trace"] = {"errors": tracer.errors, "steps": tracer.steps,
                           "samples": tracer.samples, "requests": tracer.requests,
                           "n_passes": len(tpasses)}
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
