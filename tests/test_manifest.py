"""The bits of every workload curve against a committed manifest.

``tests/data/manifest.json`` holds one entry per curve that the benchmark's
workloads scan (the 192 q-sweep sets, Table 1, fig3 and fig4's three v0
curves): its parameters, its energy grid and a sha256 over ``scan``'s
r_amp, t_amp, R and T bytes and its error messages.  It also holds one entry
per ``verify`` run of CI (four barriers, and the default one at half the
oracle's default step): a sha256 over the oracle's R, T, T_err and n_steps
on the Table-1 grid.  The test recomputes every hash in a child interpreter
with numpy's AVX-512 loops off, as ``test_cli_golden.py`` runs the CLI, and
names each entry whose hash moved.

After an intended change of bits, re-record the file with
``PYTHONPATH=src python tests/test_manifest.py`` (it reads each curve's
grid from the config echo of the CLI call that scans it in
``benchmarks/workloads.py``) and list the moved entries in CHANGES.md.
``PYTHONPATH=src python tests/test_manifest.py sha256`` prints one sha256
over both workloads' CLI calls at seed 3 (exit codes, stdout, stderr and
files), in the same child, for a change that claims its outputs unchanged.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from dengfan import (DEFAULT_PARAMS, BarrierParams, default_config, integrate_scatter,
                     potential, scan)

MANIFEST = Path(__file__).parent / "data" / "manifest.json"

# (parameter changes, oracle step) of each verify run of CI; None is the
# default step
VERIFY_RUNS = {
    "default": ({}, None),
    "q_0.9_q_tilde_0.55": ({"q": 0.9, "q_tilde": 0.55}, None),
    "q_0.99_q_tilde_0.5": ({"q": 0.99, "q_tilde": 0.5}, None),
    "q_0.999": ({"q": 0.999, "q_tilde": 0.999}, None),
    "default_step_0.01": ({}, 0.01),
}


def _grid(entry: dict) -> np.ndarray:
    space = np.geomspace if entry["log_grid"] else np.linspace
    return space(entry["e_min"], entry["e_max"], entry["n_points"])


def _digest(columns, errors: dict) -> str:
    digest = hashlib.sha256()
    for column in columns:
        digest.update(np.ascontiguousarray(column).tobytes())
    digest.update(repr([(i, f"{type(exc).__name__}: {exc}")
                        for i, exc in sorted(errors.items())]).encode())
    return digest.hexdigest()


def scan_hash(entry: dict) -> str:
    res = scan(_grid(entry), BarrierParams(**entry["params"]))
    return _digest((res.r_amp, res.t_amp, res.R, res.T), res.errors)


def oracle_hash(entry: dict) -> str:
    params = BarrierParams(**entry["params"])
    v = lambda x: potential(x, params)  # noqa: E731
    energies = _grid(entry)
    cfg = default_config(energies, v, x_max_seed=entry["x_max_seed"])
    if entry["step"] is not None:
        cfg = replace(cfg, step=entry["step"])
    res = integrate_scatter(energies, v, params.m, cfg)
    return _digest((res.R, res.T, res.T_err, np.asarray(res.n_steps, dtype=np.int64)),
                   res.errors)


def hashes(manifest: dict) -> dict[str, dict[str, str]]:
    return {"scan": {name: scan_hash(entry) for name, entry in manifest["scan"].items()},
            "oracle": {name: oracle_hash(entry) for name, entry in manifest["oracle"].items()}}


def child(mode: str) -> str:
    """This file run as ``python tests/test_manifest.py <mode>`` in a child
    interpreter with numpy's AVX-512 loops off; returns its stdout."""
    from helpers import CHILD_PYTHON, avx512_off_env

    proc = subprocess.run([*CHILD_PYTHON, __file__, mode], env=avx512_off_env(),
                          capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_workload_bits_match_manifest():
    manifest = json.loads(MANIFEST.read_text())
    got = json.loads(child("hash"))
    moved = [f"{kind}/{name}" for kind, entries in manifest.items()
             for name, entry in entries.items() if got[kind][name] != entry["sha256"]]
    assert not moved, f"{len(moved)} entries moved: {', '.join(moved)}"


def run_workloads(tmp: Path, seed: int = 3) -> list[tuple]:
    """Every CLI call of the benchmark's workloads at ``seed``, run in this
    process with the files of workload <name> in ``tmp/<name>``: (name,
    argv, exit code, stdout, stderr) per call, argv as the workload spells
    it."""
    import contextlib
    import io

    from dengfan.cli import main
    from helpers import load_benchmark_module

    workloads = load_benchmark_module("workloads")
    calls = []
    for name in workloads.NAMES:
        wl = workloads.make(name, seed)
        for cfg_name, cfg in wl.configs.items():
            Path(tmp, f"{cfg_name}.cfg.json").write_text(json.dumps(cfg))
        out = Path(tmp, name)
        out.mkdir()
        for call in wl.calls:
            argv = [arg.replace("{cfg}", str(tmp)).replace("{dir}", str(out)) for arg in call]
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main(argv)
            calls.append((name, call, code, stdout.getvalue(), stderr.getvalue()))
    return calls


def outputs_sha256() -> str:
    """One sha256 over both workloads' CLI calls at seed 3: each call's
    argv, exit code, stdout and stderr, then every file by name."""
    import tempfile

    digest = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        for call in run_workloads(Path(tmp)):
            digest.update(repr(call).encode())
        for path in sorted(Path(tmp).glob("*/*")):
            digest.update(f"{path.parent.name}/{path.name}".encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def record_entries() -> dict:
    """The manifest without its hashes: each curve's parameters and grid
    from the config echo of the workload call that scans it, and the
    Table-1 grid at each barrier of ``VERIFY_RUNS``, with the oracle's
    x_max seed as verify takes it."""
    import tempfile

    curves = {}
    with tempfile.TemporaryDirectory() as tmp:
        run_workloads(Path(tmp))
        for path in sorted(Path(tmp).glob("*/*.json")):
            config = json.loads(path.read_text())["config"]
            # the oracle call scans Table 1 again
            if not config["oracle_enabled"]:
                curves[f"{path.parent.name}/{path.stem}"] = {
                    key: config[key] for key in ("params", "e_min", "e_max", "n_points",
                                                 "log_grid")}
    oracle = {}
    for name, (changes, step) in VERIFY_RUNS.items():
        params = replace(DEFAULT_PARAMS, **changes)
        oracle[name] = {"params": asdict(params), "e_min": 0.005, "e_max": 0.1,
                        "n_points": 20, "log_grid": False, "step": step,
                        "x_max_seed": max(40.0 / params.a, 10.0 * params.x_e)}
    return {"scan": curves, "oracle": oracle}


if __name__ == "__main__":
    mode = sys.argv[1] if len(sys.argv) > 1 else "record"
    if mode == "hash":
        print(json.dumps(hashes(json.loads(MANIFEST.read_text()))))
    elif mode == "outputs":
        print(outputs_sha256())
    elif mode == "write":
        manifest = record_entries()
        for kind, digests in hashes(manifest).items():
            for name, digest in digests.items():
                manifest[kind][name]["sha256"] = digest
        # one line per entry
        MANIFEST.write_text("{\n" + ",\n".join(
            f" {json.dumps(kind)}: {{\n" + ",\n".join(
                f"  {json.dumps(name)}: {json.dumps(entry)}" for name, entry in entries.items())
            + "\n }" for kind, entries in manifest.items()) + "\n}\n")
    elif mode == "sha256":
        print(child("outputs"), end="")
    else:
        child("write")
