"""One benchmark child: runs one netsketch command in a fresh process.

    python3 perfbench/child.py JOB.json START

``run.py`` writes JOB.json and passes START, its monotonic clock reading just
before it started this process, so set-up time includes interpreter start
and imports.  The child runs ``netsketch.cli.main`` on the job's argv (the
command a user would type), times every op, and, for a traced job, records a
span around each call one netsketch module makes into another.  It writes
its measurements to the job's result path and exits with the command's exit
status.

An op is one experiment trial, or on ``jl check`` one operator draw plus its
all-pairs distortion check.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
import time
from typing import Any

from tracing import Tracer


class OpClock:
    """Start and end times of every op, and how many ops raised."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.failed = 0

    def begin(self) -> None:
        self.starts.append(time.monotonic())

    def end(self) -> None:
        self.ends.append(time.monotonic())

    def around(self, function, *, begins: bool = True, ends: bool = True):
        def timed(*args, **kwargs):
            if begins:
                self.begin()
            try:
                result = function(*args, **kwargs)
            except BaseException:
                self.failed += 1
                raise
            if ends:
                self.end()
            return result

        return timed


def _qr_gflop(operator, *args, **kwargs) -> dict[str, float]:
    # Householder QR of a d x n Gaussian plus forming the reduced Q:
    # (2dn^2 - 2n^3/3) for the factorization and as much again for Q.
    d, n = operator.d, operator.n
    return {"gflop": (4.0 * d * n * n - 4.0 * n**3 / 3.0) / 1e9}


def _decode_gflop(result, decoder, y, operator) -> dict[str, float]:
    # The indicator-by-operator product W R^T: P x d times d x n.
    return {"gflop": 2.0 * decoder.positions.size * operator.d * operator.n / 1e9}


def _sampler_sizes(sampler, *args, **kwargs) -> dict[str, float]:
    """Bytes of the large arrays a prepared sampler implies, from their shapes."""
    net = sampler.net
    sizes = {"d": sampler.d, "n": sampler.n, "M": net.size}
    if net.mode == "factored":
        positions = net.decoder.positions.size
        sizes["P"] = positions
        sizes["indicator_mb"] = positions * sampler.d * 8 / 1e6
    if net.mode == "materialized":
        sizes["projected_net_mb"] = net.size * sampler.n * 8 / 1e6
        sizes["member_matrix_mb"] = net.size * sampler.d * 8 / 1e6
        # run_experiment stacks views of full-width signals, all alive at once.
        sizes["member_matrix_build_mb"] = net.size * sampler.ambient_dim * 8 / 1e6
    return sizes


def _file_bytes(result, path, *args, **kwargs) -> dict[str, float]:
    return {"bytes": os.path.getsize(path)}


def _distortion_pairs(report, *args, **kwargs) -> dict[str, float]:
    return {"pairs": report.pairs_checked}


def install_spans(tracer: Tracer) -> None:
    """Wrap each netsketch name at the module that imports and calls it."""
    from netsketch import cli, experiment, function_classes, reconstructor
    from netsketch.nets import FactoredStepDecoder as decoder

    tracer.patch(cli, "main", "cli.main")
    tracer.patch(cli, "run_jl_check", "cli.run_jl_check")
    tracer.patch(cli, "load_experiment_config", "experiment.load_experiment_config")
    tracer.patch(cli, "write_trials_csv", "experiment.write_outputs", _file_bytes)
    tracer.patch(cli, "write_summary_json", "experiment.write_outputs", _file_bytes)
    tracer.patch(cli, "random_subspace", "jl.random_subspace", _qr_gflop)
    tracer.patch(cli, "distortion_ok", "jl.distortion_ok", _distortion_pairs)

    # run_experiment has no call boundary between set-up and the first
    # trial, so "experiment.setup" opens with it and the first trial ends it.
    run_experiment = cli.run_experiment

    def run_experiment_with_setup(*args, **kwargs):
        index = tracer.open("experiment.run_experiment")
        tracer.open("experiment.setup")
        try:
            return run_experiment(*args, **kwargs)
        finally:
            tracer.close(index)

    trial = tracer.wrap(experiment._run_trial, "experiment.trial")

    def trial_after_setup(*args, **kwargs):
        tracer.close_innermost("experiment.setup")
        return trial(*args, **kwargs)

    cli.run_experiment = run_experiment_with_setup
    experiment._run_trial = trial_after_setup
    tracer.patch(
        experiment, "fit_class_tail_model", "function_classes.fit_class_tail_model"
    )
    tracer.patch(experiment, "preprocess", "reconstructor.preprocess", _sampler_sizes)
    tracer.patch(experiment, "with_new_operator", "reconstructor.with_new_operator")
    tracer.patch(experiment, "measure", "reconstructor.measure")
    tracer.patch(experiment, "reconstruct", "reconstructor.reconstruct")
    tracer.patch(experiment, "build_net", "nets.build_net")
    tracer.patch(experiment, "apply_operator", "jl.apply_operator")
    tracer.patch(experiment, "tail_norm", "hilbert.tail_norm")
    tracer.patch(experiment, "measurement_lower_bound", "entropy.measurement_lower_bound")
    tracer.patch(
        experiment, "within_measurement_budget", "entropy.within_measurement_budget"
    )

    tracer.patch(reconstructor, "build_net", "nets.build_net")
    tracer.patch(reconstructor, "random_subspace", "jl.random_subspace", _qr_gflop)
    tracer.patch(reconstructor, "apply_operator", "jl.apply_operator")

    tracer.patch(function_classes, "analyze_piecewise", "hilbert.analyze_piecewise")
    tracer.patch(function_classes, "tail_norm", "hilbert.tail_norm")

    tracer.patch(decoder, "decode_measurements", "nets.decode_measurements", _decode_gflop)
    tracer.patch(decoder, "decode_coefficients", "nets.decode_coefficients")


def install_op_clock(clock: OpClock, kind: str) -> None:
    from netsketch import cli, experiment

    if kind == "experiment":
        experiment._run_trial = clock.around(experiment._run_trial)
    else:
        cli.random_subspace = clock.around(cli.random_subspace, ends=False)
        cli.distortion_ok = clock.around(cli.distortion_ok, begins=False)


def environment(numpy, scipy) -> dict[str, Any]:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "MKL_NUM_THREADS": os.environ.get("MKL_NUM_THREADS"),
    }


def main(argv: list[str]) -> int:
    job_path, start = argv[1], float(argv[2])
    with open(job_path) as handle:
        job = json.load(handle)
    tracer = Tracer(start) if job["trace"] else None
    imports = tracer.open("process.import") if tracer else None
    import numpy
    import scipy
    import netsketch
    from netsketch import cli

    if tracer:
        tracer.close(imports)
    expected = os.path.realpath(job["src"])
    if not os.path.realpath(netsketch.__file__).startswith(expected + os.sep):
        print(f"netsketch imported from {netsketch.__file__}, not {expected}", file=sys.stderr)
        return 3
    if tracer:
        install_spans(tracer)
    clock = OpClock()
    install_op_clock(clock, job["kind"])

    status = cli.main(job["argv"])
    end = time.monotonic()
    if tracer:
        tracer.close(tracer.root)
        end = tracer.ends[tracer.root]
    result = {
        "start": start,
        "end": end,
        "status": status,
        "op_starts": clock.starts,
        "op_ends": clock.ends,
        "failed": clock.failed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "environment": environment(numpy, scipy),
        "spans": tracer.spans() if tracer else None,
    }
    with open(job["result"], "w") as handle:
        json.dump(result, handle)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv))
