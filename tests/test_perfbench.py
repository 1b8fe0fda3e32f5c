"""The benchmark's hooks into the package: every name it patches must exist.

``perfbench/child.py`` wraps netsketch functions at the modules that import
them, and ``perfbench/run.py`` imports a few package names to choose its
inputs.  A renamed or dropped import breaks the benchmark without breaking
any other test, so each hook is installed here in a fresh interpreter, and
two traced commands check that the command line still calls the names the
bench wraps.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from collections import Counter
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


def _run(statement: str, *args: str) -> str:
    """Stdout of ``statement`` in a fresh interpreter that sees the bench."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    proc = subprocess.run(
        [sys.executable, "-c", statement, *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


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
    _run(statement)


# Runs one argv through cli.main with every span installed, then prints the
# (span, parent span) name pair of every span as the last line.
TRACED_COMMAND = """
import json, sys, time, child, tracing
from netsketch import cli
tracer = tracing.Tracer(time.monotonic())
child.install_spans(tracer)
assert cli.main(sys.argv[1:]) == 0
tracer.close(tracer.root)
names = tracer.names
print(json.dumps([[names[i], names[p]] for i, p in enumerate(tracer.parents) if p >= 0]))
"""

EXPERIMENT = """
class = smooth
smoothness = 3
amplitude = 2.0
eps = 3.0
p = 0.5
trials = 2
mode = fixed_w
seed = 17
tail_dims = 32,64,128,256
"""

# A step class: a factored net, whose decoder the bench sizes.
FACTORED_EXPERIMENT = """
class = piecewise
degree = 0
max_jumps = 1
deriv_bound = 1.0
min_gap = 0.5
level_bound = 1.0
eps = 3.0
p = 0.5
trials = 2
mode = fixed_w
seed = 5
ambient_dim = 512
tail_samples = 10
tail_dims = 32,64,128
"""


@pytest.mark.parametrize(
    "command, config, spans",
    [
        (
            ["experiment", "run"],
            EXPERIMENT,
            {
                ("experiment.load_experiment_config", "cli.main"): 1,
                ("experiment.run_experiment", "cli.main"): 1,
                ("experiment.write_outputs", "cli.main"): 2,
            },
        ),
        (
            ["experiment", "run"],
            FACTORED_EXPERIMENT,
            {
                ("reconstructor.preprocess", "experiment.setup"): 1,
                ("nets.decode_measurements", "reconstructor.reconstruct"): 2,
                ("nets.decode_coefficients", "experiment.trial"): 0,
                # One d-prefix of x per trial, one of the witness in each trial
                # whose witness is not the decoded center (one of the two, on
                # the net at r = 2.61), none of the center.
                ("hilbert.analyze_piecewise", "experiment.trial"): 3,
            },
        ),
        (
            ["jl", "check"],
            "d = 32\nm = 4\nseeds = 3\nseed = 1\njl_constant = 4.0\n",
            {
                ("cli.run_jl_check", "cli.main"): 1,
                ("jl.random_subspace", "cli.run_jl_check"): 3,
                ("jl.distortion_ok", "cli.run_jl_check"): 3,
                ("experiment.write_outputs", "cli.main"): 1,
            },
        ),
    ],
    ids=["experiment_run", "factored_experiment_run", "jl_check"],
)
def test_traced_command_opens_every_cli_layer(tmp_path, command, config, spans):
    # The bench wraps these names where cli calls them; a front end that
    # stops calling one through its module global loses that layer silently.
    path = tmp_path / "command.cfg"
    path.write_text(config, encoding="utf-8")
    argv = [*command, str(path), "--out", str(tmp_path / "out")]
    stdout = _run(TRACED_COMMAND, *argv)
    pairs = Counter(tuple(pair) for pair in json.loads(stdout.splitlines()[-1]))
    assert pairs[("cli.main", "process")] == 1
    assert {pair: pairs[pair] for pair in spans} == spans


# The bench's output digests at bench seed 1, the first 16 hex digits of
# each child's sha256 over its CSV and JSON: a byte that moves in either
# step workload's outputs fails here.
STEP_DIGESTS = {"step_fixed_w": "f462cb2cffd2b96a", "step_fixed_x": "b16403ce5d5fcf55"}


@pytest.mark.parametrize("workload", sorted(STEP_DIGESTS))
def test_bench_step_outputs_keep_their_digest(workload):
    proc = subprocess.run(
        [
            sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
            "--seed", "1", "--seconds", "30", "--trace", "0",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    assert "correct" in proc.stdout.splitlines()
    assert json.loads(proc.stdout.splitlines()[-1])["correct"] is True
    digests = re.findall(r"^  child\d+: status 0, .* outputs ([0-9a-f]{16})$", proc.stdout, re.M)
    assert digests == [STEP_DIGESTS[workload]] * 3
