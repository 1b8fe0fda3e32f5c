#!/usr/bin/env python3
"""netsketch benchmark: one workload per invocation, each run in fresh processes.

Run from the repository root:

    python3 perfbench/run.py --workload step_fixed_w --seed 1 --seconds 30 --trace 0

The workload's inputs are generated from ``--seed`` and handed to the
``netsketch`` command line as a config file.  Each child process (see
``child.py``) runs one command with one BLAS thread and ``--jobs 1``.

``--trace 0`` runs the command in two or three children, checks that their
outputs are correct and byte-identical, and reports the end-to-end metrics:
set-up and wall time, op rate, op latency percentiles and peak RSS, each taken
per child and reported as the median over the children.  ``--trace 1`` runs
it once untraced and once traced, checks that both give the same outputs, and
reports the per-layer metrics of the traced child.  The last line of standard
output is one JSON object; the lines before it are a readable report.  See
README.md in this directory.
"""

from __future__ import annotations

import argparse
import compileall
import csv
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from typing import Any

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from tracing import summarize  # noqa: E402

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT_ROOT = os.path.join(ROOT, ".perfbench_out")
CHILD = os.path.join(HERE, "child.py")

# A run must end within 180 s; children get what is left of this.
RUN_SECONDS_MAX = 170
SUCCESS_FLOOR = 0.5
# Accepted distance of the fitted truncation dimension d from the workload's
# target, as a share of the target (see master_seed).
D_BAND = 0.03
MAX_SEED_CANDIDATES = 2000

CHILD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

STEP_CLASS = {
    "class": "piecewise",
    "degree": "0",
    "max_jumps": "1",
    "deriv_bound": "1.0",
    "min_gap": "0.5",
    "level_bound": "1.0",
}
TAIL_SAMPLES = 40
TAIL_DIMS = (64, 128, 256, 512, 1024)
AMBIENT_DIM = 4096

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "op_ms.p50": "ms",
    "op_ms.p90": "ms",
    "peak_rss_mb": "MB",
    "success_rate": "frac",
}

# Per-layer metrics of the traced run.  Every one is exercised by both step
# workloads, the two that BENCHMARK.json lists; a layer a workload never
# calls reads 0 (the span table still shows every span and computed size).
PER_LAYER = {
    "hilbert.analyze_piecewise.calls": "count",
    "hilbert.analyze_piecewise.busy_s": "s",
    "function_classes.fit_class_tail_model.busy_s": "s",
    "nets.build_net.busy_s": "s",
    "nets.decode_measurements.calls": "count",
    "nets.decode_measurements.busy_s": "s",
    "nets.decode_measurements.gflop": "GFLOP",
    "nets.decode_coefficients.busy_s": "s",
    "nets.indicator_mb": "MB",
    "jl.random_subspace.calls": "count",
    "jl.random_subspace.busy_s": "s",
    "jl.random_subspace.gflop": "GFLOP",
    "reconstructor.preprocess.busy_s": "s",
    "reconstructor.preprocess.self_s": "s",
    "reconstructor.reconstruct.self_s": "s",
    "experiment.setup.self_s": "s",
    "experiment.trial.self_s": "s",
    "experiment.premise_ratio": "frac",
    "experiment.write_outputs.busy_s": "s",
    "experiment.write_outputs.bytes": "bytes",
    "hilbert.self_s": "s",
    "function_classes.self_s": "s",
    "nets.self_s": "s",
    "jl.self_s": "s",
    "entropy.self_s": "s",
    "reconstructor.self_s": "s",
    "experiment.self_s": "s",
    "cli.self_s": "s",
    "process.self_s": "s",
    "trace.wall_s": "s",
    "trace.ops": "count",
    "trace.overhead_frac": "frac",
}

# Span-name prefixes whose self times add up to the traced wall time.
LAYERS = (
    "hilbert",
    "function_classes",
    "nets",
    "jl",
    "entropy",
    "reconstructor",
    "experiment",
    "cli",
    "process",
)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``op_seconds`` is the per-op time on the reference machine (README.md).
    It sets how many ops a child runs, so that there the ``children``
    together spend ``op_share`` of ``--seconds`` in ops.
    """

    name: str
    kind: str  # "experiment" or "jl"
    op_seconds: float
    children: int
    op_share: float
    eps: float = 0.0
    mode: str = ""
    jl_constant: float = 20.0
    target_d: int = 0


STEP = {"eps": 0.6, "jl_constant": 20.0, "target_d": 1924}
# BENCHMARK.json lists the two step workloads.  The other two stay runnable
# by name; their op times spread by up to 0.3 of the median between runs on
# the reference machine, more than any bound the benchmark may fix.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("step_fixed_w", "experiment", 0.71, 3, 1.0, mode="fixed_w", **STEP),
        Workload("step_fixed_x", "experiment", 0.93, 3, 1.0, mode="fixed_x", **STEP),
        # Set-up takes about 20 s a child, so two children and a short op phase.
        Workload(
            "materialized_fixed_w",
            "experiment",
            0.01,
            2,
            0.5,
            eps=4.8,
            mode="fixed_w",
            jl_constant=2.0,
            target_d=44,
        ),
        Workload("jl_check", "jl", 0.011, 3, 0.5),
    )
}

JL_INPUTS = {"d": 512, "m": 64, "p": 0.5, "jl_constant": 20.0}


class BenchError(Exception):
    """The benchmark cannot produce a result."""


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def master_seed(workload: Workload, seed: int) -> tuple[int, int | None]:
    """The config's master seed for ``seed``, and the d it makes the run use.

    An experiment's truncation dimension d comes from a tail-decay fit on 40
    sampled members and sets the work of every op.  Across master seeds it
    ranges from about 600 to 69,000 at eps 0.6, and some seeds ask for more
    than the 4096 ambient coefficients and fail.  So the candidates drawn
    from ``seed`` are tried in order until one fits d within ``D_BAND`` of
    the workload's target.  The fit repeats what ``run_experiment`` does:
    its tail-fit stream is ``default_rng([master_seed, 1, 0, 0])``.
    """
    if workload.kind == "jl":
        return int(np.random.default_rng([seed, 0]).integers(2**31)), None
    from netsketch import fit_class_tail_model, truncation_dimension
    from netsketch.experiment import build_family

    family = build_family(STEP_CLASS)
    candidates = np.random.default_rng([seed, workload.target_d])
    for _ in range(MAX_SEED_CANDIDATES):
        candidate = int(candidates.integers(2**31))
        model = fit_class_tail_model(
            family,
            TAIL_SAMPLES,
            TAIL_DIMS,
            np.random.default_rng([candidate, 1, 0, 0]),
            AMBIENT_DIM,
        )
        d = truncation_dimension(model, workload.eps / 6.0)
        if abs(d - workload.target_d) <= D_BAND * workload.target_d:
            return candidate, d
    raise BenchError(f"no master seed within the d band for seed {seed}")


def ops_per_child(workload: Workload, seconds: int) -> int:
    share = seconds * workload.op_share / workload.children
    return max(2, round(share / workload.op_seconds))


def write_inputs(workload: Workload, seed: int, ops: int, directory: str) -> list[str]:
    """Write the config file and return the ``netsketch`` argv, minus ``--out``."""
    path = os.path.join(directory, "input.cfg")
    if workload.kind == "jl":
        values = {**JL_INPUTS, "seeds": ops, "seed": seed}
        argv = ["jl", "check", path]
    else:
        values = {
            **STEP_CLASS,
            "eps": workload.eps,
            "p": 0.5,
            "trials": ops,
            "mode": workload.mode,
            "seed": seed,
            "delta": 0.0,
            "jl_constant": workload.jl_constant,
            "ambient_dim": AMBIENT_DIM,
            "m_max": 1000000,
            "tail_samples": TAIL_SAMPLES,
            "tail_dims": ",".join(str(d) for d in TAIL_DIMS),
        }
        argv = ["experiment", "run", path, "--jobs", "1"]
    with open(path, "w") as handle:
        handle.writelines(f"{key} = {value}\n" for key, value in values.items())
    return argv


# ---------------------------------------------------------------------------
# Children
# ---------------------------------------------------------------------------


@dataclass
class ChildRun:
    label: str
    result: dict[str, Any]
    outputs: dict[str, bytes]

    @property
    def ok(self) -> bool:
        return self.result["status"] == 0 and self.result["failed"] == 0

    @property
    def wall_s(self) -> float:
        return self.result["end"] - self.result["start"]

    @property
    def setup_s(self) -> float:
        return self.result["op_starts"][0] - self.result["start"]

    @property
    def latencies_s(self) -> list[float]:
        return [e - s for s, e in zip(self.result["op_starts"], self.result["op_ends"])]

    @property
    def op_phase_s(self) -> float:
        return self.result["op_ends"][-1] - self.result["op_starts"][0]

    @property
    def digest(self) -> str:
        sha = hashlib.sha256()
        for name in sorted(self.outputs):
            sha.update(name.encode() + b"\0" + self.outputs[name] + b"\0")
        return sha.hexdigest()


def run_child(
    workload: Workload,
    argv: list[str],
    directory: str,
    label: str,
    trace: bool,
    deadline: float,
) -> ChildRun:
    out_dir = os.path.join(directory, label)
    os.mkdir(out_dir)
    if workload.kind == "jl":
        outputs = [os.path.join(out_dir, "report.json")]
        argv = argv + ["--out", outputs[0]]
    else:
        outputs = [os.path.join(out_dir, "run.csv"), os.path.join(out_dir, "run.json")]
        argv = argv + ["--out", os.path.join(out_dir, "run")]
    job = {
        "kind": workload.kind,
        "argv": argv,
        "trace": trace,
        "src": SRC,
        "result": os.path.join(out_dir, "result.json"),
    }
    job_path = os.path.join(out_dir, "job.json")
    with open(job_path, "w") as handle:
        json.dump(job, handle)
    env = {**os.environ, **CHILD_ENV, "PYTHONPATH": SRC}
    start = time.monotonic()
    try:
        completed = subprocess.run(
            [sys.executable, CHILD, job_path, repr(start)],
            env=env,
            stdout=subprocess.DEVNULL,
            timeout=max(1.0, deadline - start),
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{label}: the run did not finish in {RUN_SECONDS_MAX} s")
    if not os.path.exists(job["result"]):
        raise BenchError(f"{label}: child exited {completed.returncode} without a result")
    with open(job["result"]) as handle:
        result = json.load(handle)
    contents = {}
    for path in outputs:
        if os.path.exists(path):
            with open(path, "rb") as handle:
                contents[os.path.basename(path)] = handle.read()
    return ChildRun(label, result, contents)


# ---------------------------------------------------------------------------
# Correctness
# ---------------------------------------------------------------------------


def check_outputs(
    workload: Workload, run: ChildRun, ops: int, expected_d: int | None
) -> tuple[list[str], float, float]:
    """Problems with one child's outputs, its success rate and premise ratio."""
    problems: list[str] = []
    if not run.ok:
        status, failed = run.result["status"], run.result["failed"]
        return [f"{run.label}: exit {status}, {failed} ops raised"], 0.0, 0.0
    if workload.kind == "jl":
        report = json.loads(run.outputs["report.json"])
        rate = report["success_fraction"]
        if report["draws"] != ops:
            problems.append(f"{run.label}: {report['draws']} draws, expected {ops}")
        premise = 0.0
    else:
        summary = json.loads(run.outputs["run.json"])
        rows = list(csv.DictReader(run.outputs["run.csv"].decode().splitlines()))
        rate = summary["success_rate"]
        premise = summary["implication_premise_trials"] / summary["trials"]
        if summary["trials"] != ops or len(rows) != ops:
            problems.append(f"{run.label}: {len(rows)} rows for {ops} trials")
        if summary["implication_counterexamples"] != 0:
            problems.append(f"{run.label}: implication counterexamples reported")
        if summary["d"] != expected_d:
            problems.append(f"{run.label}: d={summary['d']}, inputs made for d={expected_d}")
        if sum(row["guarantee_met"] == "True" for row in rows) != summary["success_count"]:
            problems.append(f"{run.label}: CSV and JSON disagree on successes")
    if rate < SUCCESS_FLOOR:
        problems.append(f"{run.label}: success rate {rate} below {SUCCESS_FLOOR}")
    if len(run.result["op_ends"]) != ops:
        problems.append(f"{run.label}: timed {len(run.result['op_ends'])} of {ops} ops")
    return problems, rate, premise


def same_digests(runs: list[ChildRun]) -> list[str]:
    digests = {run.digest for run in runs}
    if len(digests) == 1:
        return []
    listed = ", ".join(f"{run.label}={run.digest[:12]}" for run in runs)
    return [f"outputs differ between children: {listed}"]


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(runs: list[ChildRun], success_rate: float) -> dict[str, float]:
    """Each metric is taken per child, then the median over the children."""

    def median(metric) -> float:
        return statistics.median(metric(run) for run in runs)

    return {
        "setup_s": median(lambda run: run.setup_s),
        "wall_s": median(lambda run: run.wall_s),
        "ops_per_s": median(lambda run: len(run.latencies_s) / run.op_phase_s),
        "op_ms.p50": 1000.0 * median(lambda run: statistics.median(run.latencies_s)),
        "op_ms.p90": 1000.0 * median(lambda run: percentile(run.latencies_s, 90)),
        "peak_rss_mb": median(lambda run: run.result["peak_rss_mb"]),
        "success_rate": success_rate,
    }


def per_layer(
    traced: ChildRun, untraced: ChildRun, premise_ratio: float
) -> tuple[dict[str, float], dict[str, dict[str, float]]]:
    table = summarize(traced.result["spans"])

    def get(name: str, key: str) -> float:
        return table.get(name, {}).get(key, 0.0)

    derived = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    for name, row in table.items():
        derived[f"{name.split('.')[0]}.self_s"] += row["self_s"]
    derived.update(
        {
            "nets.indicator_mb": get("reconstructor.preprocess", "indicator_mb"),
            "experiment.premise_ratio": premise_ratio,
            "trace.wall_s": traced.wall_s,
            "trace.ops": len(traced.result["op_ends"]),
            "trace.overhead_frac": traced.wall_s / untraced.wall_s - 1.0,
        }
    )
    metrics = {}
    for metric in PER_LAYER:
        name, _, key = metric.rpartition(".")
        metrics[metric] = derived[metric] if metric in derived else get(name, key)
    return metrics, table


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------


def print_environment(run: ChildRun) -> None:
    env = run.result["environment"]
    print(
        "environment: python {python}, numpy {numpy}, scipy {scipy}, blas {blas},"
        " nproc {nproc}, OPENBLAS_NUM_THREADS={OPENBLAS_NUM_THREADS},"
        " OMP_NUM_THREADS={OMP_NUM_THREADS}, MKL_NUM_THREADS={MKL_NUM_THREADS},"
        " jobs 1".format(**env)
    )


def print_children(runs: list[ChildRun]) -> None:
    for run in runs:
        ops = len(run.result["op_ends"])
        setup = f"{run.setup_s:.3f}" if run.result["op_starts"] else "-"
        print(
            f"  {run.label}: status {run.result['status']}, setup {setup} s,"
            f" {ops} ops, wall {run.wall_s:.3f} s,"
            f" rss {run.result['peak_rss_mb']:.0f} MB, outputs {run.digest[:16]}"
        )


def print_metrics(metrics: dict[str, float], units: dict[str, str]) -> None:
    for name, value in metrics.items():
        print(f"  {name:<46} {value:>14.6g} {units[name]}")


def print_spans(table: dict[str, dict[str, float]], wall: float) -> None:
    print(f"  {'span':<44} {'calls':>8} {'busy_s':>10} {'self_s':>10}  counts")
    rows = sorted(table.items(), key=lambda item: -item[1]["self_s"])
    for name, row in rows:
        extra = {
            key: round(value, 3)
            for key, value in row.items()
            if key not in ("calls", "busy_s", "self_s")
        }
        print(
            f"  {name:<44} {row['calls']:>8} {row['busy_s']:>10.4f} {row['self_s']:>10.4f}"
            f"  {extra if extra else ''}"
        )
    total = sum(row["self_s"] for row in table.values())
    print(f"  sum of self_s {total:.6f} s, traced wall {wall:.6f} s")


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------


def run_benchmark(args: argparse.Namespace, directory: str, deadline: float) -> dict[str, Any]:
    workload = WORKLOADS[args.workload]
    seed, expected_d = master_seed(workload, args.seed)
    ops = ops_per_child(workload, args.seconds)
    argv = write_inputs(workload, seed, ops, directory)
    print(
        f"workload {workload.name}: bench seed {args.seed} -> master seed {seed},"
        f" {ops} ops per child" + (f", d {expected_d}" if expected_d else "")
    )
    if args.trace:
        plan = [("untraced", False), ("traced", True)]
    else:
        plan = [(f"child{i + 1}", False) for i in range(workload.children)]

    runs: list[ChildRun] = []
    problems: list[str] = []
    rates: list[float] = []
    premises: list[float] = []
    for label, trace in plan:
        run = run_child(workload, argv, directory, label, trace, deadline)
        runs.append(run)
        found, rate, premise = check_outputs(workload, run, ops, expected_d)
        problems += found
        rates.append(rate)
        premises.append(premise)
        if not run.ok:
            break
    print_environment(runs[0])
    print_children(runs)
    if not all(run.ok for run in runs):
        print("FAILED: " + "; ".join(problems))
        raise BenchError("a child failed; no metrics")
    attempted = sum(len(run.result["op_starts"]) for run in runs)
    failed = sum(run.result["failed"] for run in runs)
    problems += same_digests(runs)

    if args.trace:
        metrics, table = per_layer(runs[1], runs[0], premises[1])
        total_self = sum(row["self_s"] for row in table.values())
        if abs(total_self - runs[1].wall_s) > 1e-6 * runs[1].wall_s:
            problems.append(f"self times sum to {total_self} s, traced wall is {runs[1].wall_s} s")
        print("spans of the traced child:")
        print_spans(table, runs[1].wall_s)
        units = PER_LAYER
    else:
        metrics = end_to_end(runs, rates[0])
        latencies = sum(len(run.latencies_s) for run in runs)
        print(f"end-to-end ({latencies} ops; failed_ops_frac {failed / attempted:.6g}):")
        units = END_TO_END
    print_metrics(metrics, units)
    correct = not problems
    print("correct" if correct else "INCORRECT: " + "; ".join(problems))
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_SECONDS_MAX
    if not os.path.isfile(os.path.join(SRC, "netsketch", "__init__.py")):
        print(f"no netsketch sources under {SRC}; run from the repository root", file=sys.stderr)
        return 1
    sys.path.insert(0, SRC)
    if not compileall.compile_dir(os.path.join(SRC, "netsketch"), quiet=1):
        print("netsketch sources do not compile", file=sys.stderr)
        return 1
    os.makedirs(OUT_ROOT, exist_ok=True)
    directory = tempfile.mkdtemp(prefix="run-", dir=OUT_ROOT)
    try:
        result = run_benchmark(args, directory, deadline)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(directory, ignore_errors=True)
        try:
            os.rmdir(OUT_ROOT)
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
