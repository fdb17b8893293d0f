"""Byte-for-byte CLI outputs against recorded fixtures.

Each case runs ``dengfan.cli.main`` in a child interpreter in an empty
directory and compares its stdout, stderr and every file it writes with
``tests/data/cli/<case>/``.  The fixtures pin the exact text the presets,
the oracle columns, the multi-q files, the JSON config echo and
config-file precedence produce, a q-sweep-shaped --config run and the
verify report.  After an intended output change, rewrite
them with ``PYTHONPATH=src python tests/test_cli_golden.py``.

The child runs with numpy's AVX-512 dispatch targets off
(``NPY_DISABLE_CPU_FEATURES``): numpy's AVX-512 float64 ``power``, ``exp``,
``log`` and ``sinh`` round differently from libm, which its AVX2 loops
match, so on an AVX-512 CPU 4 of the 7 cases would differ in the last bits
of T and R.  The fixtures hold the bits of numpy's AVX2 and FMA loops.  Under
its baseline loops (x86-64-v3 off too) 6 of the 7 cases differ, so run and
re-record them on an x86-64-v3 or newer CPU.
"""

from __future__ import annotations

import json
import shutil
import subprocess
from pathlib import Path

import pytest

from helpers import CHILD_PYTHON, avx512_off_env

DATA = Path(__file__).parent / "data" / "cli"

CONFIGS = {
    # the preset discards the file's parameters and grid, and --format its format
    "cfg": {"params": {"v0": 1.15, "q": 0.6}, "n_points": 7, "e_min": 0.01,
            "e_max": 0.03, "log_grid": True, "output_format": "csv"},
    # the call form of every q-sweep set: asymmetric q, 25 log-spaced
    # energies from 1e-6 v0 to 1e2 v0, JSON
    "sweep": {"params": {"v0": 1.2, "a": 1.5, "x_e": 0.3, "q": 0.99, "q_tilde": 0.9,
                         "m": 0.8},
              "e_min": 1.2e-6, "e_max": 120.0, "n_points": 25, "log_grid": True,
              "output_format": "json"},
}

# name -> (argv, exit code); "{<name>}" stands for the path of CONFIGS[name]
# as JSON
CASES = {
    "scatter_table1": (["scatter", "--table1"], 0),
    "scatter_fig4": (["scatter", "--fig4", "--n", "30"], 0),
    # every digit of the oracle's T and R, one batched call for the 20 energies
    "scatter_table1_oracle": (["scatter", "--table1", "--oracle", "--format", "json"], 0),
    "potential_multi_q": (["potential", "--q", "0.6", "0.7", "--n", "5",
                           "--format", "json"], 0),
    "scatter_config_fig3": (["scatter", "--config", "{cfg}", "--fig3",
                             "--format", "json"], 0),
    "scatter_config_sweep": (["scatter", "--config", "{sweep}", "--out", "sweep.json"], 0),
    "verify": (["verify"], 0),
}


def run_case(name: str, tmp: Path) -> tuple[int, dict[str, bytes]]:
    """Run one case with ``tmp`` as scratch space; returns the exit code and
    the outputs by name (``stdout``, ``stderr`` and each written file)."""
    argv, _ = CASES[name]
    paths = {}
    for key, config in CONFIGS.items():
        paths["{%s}" % key] = path = tmp / f"{key}.json"
        path.write_text(json.dumps(config))
    work = tmp / "work"
    work.mkdir()
    main = "import sys; from dengfan.cli import main; sys.exit(main(sys.argv[1:]))"
    proc = subprocess.run(
        [*CHILD_PYTHON, "-c", main, *(str(paths.get(arg, arg)) for arg in argv)],
        cwd=work, env=avx512_off_env(), capture_output=True, check=False)
    outputs = {"stdout": proc.stdout, "stderr": proc.stderr}
    for path in sorted(work.iterdir()):
        outputs[path.name] = path.read_bytes()
    return proc.returncode, outputs


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_fixture(name, tmp_path):
    code, outputs = run_case(name, tmp_path)
    assert code == CASES[name][1]
    expected = {p.name: p.read_bytes() for p in (DATA / name).iterdir()}
    assert sorted(outputs) == sorted(expected)
    for key, value in outputs.items():
        assert value == expected[key], f"{name}/{key} differs"


def record() -> None:
    """Rewrite every fixture from the current code."""
    import tempfile

    for name in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            code, outputs = run_case(name, Path(tmp))
        if code != CASES[name][1]:
            raise SystemExit(f"{name}: exit code {code}, expected {CASES[name][1]}")
        target = DATA / name
        shutil.rmtree(target, ignore_errors=True)
        target.mkdir(parents=True)
        for key, value in outputs.items():
            (target / key).write_bytes(value)


if __name__ == "__main__":
    record()
