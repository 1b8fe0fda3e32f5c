"""The benchmark's hooks into the package: every name it patches must exist.

``perfbench/child.py`` wraps netsketch functions at the modules that import
them, and ``perfbench/run.py`` imports a few package names to choose its
inputs.  A renamed or dropped import breaks the benchmark without breaking
any other test, so each hook is installed here in a fresh interpreter.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

SPANS = (
    "import child, tracing, time; "
    "child.install_spans(tracing.Tracer(time.monotonic()))"
)
OP_CLOCK = "import child; child.install_op_clock(child.OpClock(), {kind!r})"
RUN_IMPORTS = (
    "from netsketch.experiment import build_family; "
    "from netsketch import fit_class_tail_model, truncation_dimension"
)


@pytest.mark.parametrize(
    "statement",
    [
        SPANS,
        OP_CLOCK.format(kind="experiment"),
        OP_CLOCK.format(kind="jl"),
        RUN_IMPORTS,
    ],
    ids=["spans", "op_clock_experiment", "op_clock_jl", "run_imports"],
)
def test_benchmark_hooks_install(statement):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    proc = subprocess.run(
        [sys.executable, "-c", statement],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
