"""Byte-for-byte CLI outputs against recorded fixtures.

Each case runs ``dengfan.cli.main`` in an empty directory and compares its
stdout, stderr and every file it writes with ``tests/data/cli/<case>/``.
The fixtures pin the exact text the presets, the oracle columns, the
multi-q files, the JSON config echo and config-file precedence produce.
After an intended output change, rewrite them with
``python tests/test_cli_golden.py``.

The fixtures hold the last bits of T and R (and so of the residual column)
that numpy's FMA complex loops give.  Under its baseline loops
(``NPY_DISABLE_CPU_FEATURES``), 4 of the 5 cases differ in those bits, so
re-record them on an x86-64-v3 or newer CPU.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys
from pathlib import Path

import pytest

DATA = Path(__file__).parent / "data" / "cli"

# the preset discards the file's parameters, grid and format
CONFIG = {"params": {"v0": 1.15, "q": 0.6}, "n_points": 7, "e_min": 0.01,
          "e_max": 0.03, "log_grid": True, "output_format": "csv"}

# name -> (argv, exit code); "{cfg}" stands for the path of CONFIG as JSON
CASES = {
    "scatter_table1": (["scatter", "--table1"], 0),
    "scatter_fig4": (["scatter", "--fig4", "--n", "30"], 0),
    # every digit of the oracle's T and R, one batched call for the 20 energies
    "scatter_table1_oracle": (["scatter", "--table1", "--oracle", "--format", "json"], 0),
    "potential_multi_q": (["potential", "--q", "0.6", "0.7", "--n", "5",
                           "--format", "json"], 0),
    "scatter_config_fig3": (["scatter", "--config", "{cfg}", "--fig3",
                             "--format", "json"], 0),
}


def run_case(name: str, tmp: Path) -> tuple[int, dict[str, bytes]]:
    """Run one case with ``tmp`` as scratch space; returns the exit code and
    the outputs by name (``stdout``, ``stderr`` and each written file)."""
    from dengfan.cli import main

    argv, _ = CASES[name]
    cfg = tmp / "cfg.json"
    cfg.write_text(json.dumps(CONFIG))
    work = tmp / "work"
    work.mkdir()
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(work)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([arg.replace("{cfg}", str(cfg)) for arg in argv])
    finally:
        os.chdir(cwd)
    outputs = {"stdout": out.getvalue().encode(), "stderr": err.getvalue().encode()}
    for path in sorted(work.iterdir()):
        outputs[path.name] = path.read_bytes()
    return code, outputs


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
    sys.path.insert(0, str(Path(__file__).parents[1] / "src"))
    record()
