"""Seeded Monte Carlo reconstruction experiments with CSV/JSON reporting.

An ``ExperimentConfig`` (see ``config``) describes one experiment: a function
class, an accuracy target, a trial count, and the trial framing — ``fixed_x``
redraws the measurement operator around one signal, ``fixed_w`` redraws the
signal under one operator.  ``run_experiment`` executes the trials on
per-trial random streams derived from the master seed, so results are
reproducible bit-for-bit and independent of the worker count.
"""

from __future__ import annotations

import csv
import json
import logging
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any

import numpy as np

# build_family is imported for callers that still import it from here.
from .config import ExperimentConfig, build_family  # noqa: F401
from .errors import NetSketchError, UsageError
from .entropy import measurement_lower_bound, within_measurement_budget
from .function_classes import fit_class_tail_model
from .hilbert import Signal, pad_or_truncate, tail_norm
from .jl import DISTORTION_BAND, apply_operator
from .nets import build_net
from .reconstructor import (
    PreparedSampler,
    ReconstructionOutcome,
    measure,
    preprocess,
    reconstruct,
    with_new_operator,
)

__all__ = [
    "CSV_COLUMNS",
    "ExperimentResult",
    "TrialAudit",
    "audit_trial",
    "run_experiment",
    "wilson_interval",
    "write_summary_json",
    "write_trials_csv",
]

logger = logging.getLogger(__name__)

# Two-sided 95% normal quantile used for the binomial score interval.
_WILSON_Z = 1.959963984540054

# Stream-domain tags: every random draw is made on
# default_rng([master_seed, domain, trial, lane]), so trials are independent
# of execution order and worker count.
_DOMAIN_TAILFIT = 1
_DOMAIN_PREPROCESS = 2
_DOMAIN_TRIAL = 3
_DOMAIN_FIXED_MEMBER = 4

_LANE_MEMBER = 0
_LANE_OPERATOR = 1
_LANE_NOISE = 2

CSV_COLUMNS = (
    "seed",
    "class",
    "eps",
    "p",
    "d",
    "n",
    "M",
    "clamped",
    "delta",
    "projected_distance",
    "within_ball",
    "ambient_error",
    "guarantee_met",
    "distortion_ok",
)


def _stream(master_seed: int, domain: int, trial: int = 0, lane: int = 0):
    return np.random.default_rng([master_seed, domain, trial, lane])


# ---------------------------------------------------------------------------
# Trial execution
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentResult:
    """Summary statistics plus one CSV-ready record per trial."""

    summary: dict[str, Any]
    rows: list[dict[str, Any]]


def _distortion_ratio(
    operator, difference: np.ndarray
) -> float:
    """Projected-over-true distance ratio for one coefficient difference."""
    true = float(np.linalg.norm(difference))
    if true == 0.0:
        return 1.0
    return float(np.linalg.norm(apply_operator(operator, difference))) / true


@dataclass(frozen=True)
class TrialAudit:
    """One reconstruction checked against its ground truth.

    The accuracy chain bounds ``ambient_error`` by ``truncation_tail`` (the
    signal's energy beyond dimension ``d``) plus ``projected_offset`` (its
    distance to the decoded center in the first ``d`` coefficients) plus
    ``center_tail`` (the center's energy beyond ``d``), with budgets
    ``eps1``, ``4 * eps1`` and ``eps1`` that add up to ``eps``.  The chain's
    premise needs the upper distortion band on the pair (x, nearest center),
    the lower band on the pair (x, decoded center), exact measurements, and
    both tails within ``eps1``.  A counterexample is a trial whose premise
    holds but whose guarantee fails.
    """

    truncation_tail: float
    projected_offset: float
    center_tail: float
    ambient_error: float
    guarantee_met: bool
    distortion_ok: bool
    premise: bool
    counterexample: bool


def audit_trial(
    sampler: PreparedSampler,
    x: Signal,
    outcome: ReconstructionOutcome,
    delta: float,
    trial: int,
) -> TrialAudit:
    """Audit one reconstruction of ``x``; the only comparison with ground truth.

    Raises ``UsageError`` when ``x`` has fewer than ``d`` coefficients, and
    ``NetSketchError`` when a clamped operator distorts a pair.
    """
    d = sampler.d
    if x.ambient_dim < d:
        raise UsageError(
            f"ground truth has {x.ambient_dim} coefficients, fewer than d = {d}"
        )
    center = sampler.net.family.to_signal(outcome.center, sampler.ambient_dim)
    x_truncated = x.coefficients[:d]
    offset = x_truncated - center.coefficients[:d]
    nearest = sampler.decoder.decode_coefficients(x_truncated).coefficients
    upper_ratio = _distortion_ratio(sampler.operator, x_truncated - nearest)
    lower_ratio = _distortion_ratio(sampler.operator, offset)
    lower, upper = DISTORTION_BAND
    distortion_ok = upper_ratio <= upper and lower_ratio >= lower
    if sampler.clamped:
        # n = d makes the operator a full orthogonal map; any visible
        # distortion here is an internal error, not statistical bad luck.
        for ratio in (upper_ratio, lower_ratio):
            if abs(ratio - 1.0) > 1e-10:
                raise NetSketchError(
                    f"clamped operator distorted a pair by {ratio!r} in trial {trial}"
                )
    truncation_tail = tail_norm(x, d)
    center_tail = tail_norm(center, d)
    # Zero-pad the shorter signal: coefficients it lacks are zero.
    dim = max(x.ambient_dim, center.ambient_dim)
    ambient_error = float(
        np.linalg.norm(
            pad_or_truncate(x.coefficients, dim)
            - pad_or_truncate(center.coefficients, dim)
        )
    )
    guarantee_met = ambient_error <= sampler.eps
    premise = (
        distortion_ok
        and delta == 0.0
        and truncation_tail <= sampler.eps1
        and center_tail <= sampler.eps1
    )
    return TrialAudit(
        truncation_tail=truncation_tail,
        projected_offset=float(np.linalg.norm(offset)),
        center_tail=center_tail,
        ambient_error=ambient_error,
        guarantee_met=guarantee_met,
        distortion_ok=distortion_ok,
        premise=premise,
        counterexample=premise and not guarantee_met,
    )


def _run_trial(
    config: ExperimentConfig,
    sampler: PreparedSampler,
    fixed_signal: Signal | None,
    delta: float,
    trial: int,
) -> tuple[dict[str, Any], TrialAudit]:
    """One trial's CSV row and its audit."""
    family = config.family
    if config.mode == "fixed_x":
        trial_sampler = with_new_operator(
            sampler, _stream(config.seed, _DOMAIN_TRIAL, trial, _LANE_OPERATOR)
        )
        x = fixed_signal
    else:
        trial_sampler = sampler
        member = family.sample(
            _stream(config.seed, _DOMAIN_TRIAL, trial, _LANE_MEMBER),
            config.ambient_dim,
        )
        x = family.to_signal(member, config.ambient_dim)
    noise_rng = (
        _stream(config.seed, _DOMAIN_TRIAL, trial, _LANE_NOISE) if delta > 0.0 else None
    )
    y = measure(trial_sampler, x, delta=delta, rng=noise_rng)
    outcome = reconstruct(trial_sampler, y, delta=delta)
    audit = audit_trial(trial_sampler, x, outcome, delta, trial)
    if audit.counterexample:
        raise NetSketchError(
            f"trial {trial}: reconstruction guarantee failed although distortion,"
            " exactness, and tail bounds were all verified"
        )

    row = {
        "seed": config.seed,
        "class": family.spec_string(),
        "eps": config.eps,
        "p": config.p,
        "d": trial_sampler.d,
        "n": trial_sampler.n,
        "M": trial_sampler.net.size,
        "clamped": trial_sampler.clamped,
        "delta": delta,
        "projected_distance": outcome.projected_distance,
        "within_ball": outcome.within_ball,
        "ambient_error": audit.ambient_error,
        "guarantee_met": audit.guarantee_met,
        "distortion_ok": audit.distortion_ok,
    }
    return row, audit


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise UsageError(f"trials must be >= 1, got {trials!r}")
    if not 0 <= successes <= trials:
        raise UsageError(f"successes {successes!r} outside [0, {trials}]")
    z_sq = _WILSON_Z**2
    phat = successes / trials
    denominator = 1.0 + z_sq / trials
    center = (phat + z_sq / (2.0 * trials)) / denominator
    half = (
        _WILSON_Z
        * math.sqrt(phat * (1.0 - phat) / trials + z_sq / (4.0 * trials * trials))
        / denominator
    )
    # the score interval contains the point estimate; keep that under rounding
    return (max(0.0, min(phat, center - half)), min(1.0, max(phat, center + half)))


def run_experiment(config: ExperimentConfig, jobs: int = 1) -> ExperimentResult:
    """Run all trials and aggregate; reproducible from the master seed.

    Wall time is reported on the logging channel only, keeping the summary
    (and hence the JSON output) identical across repeated runs.
    """
    if jobs < 1:
        raise UsageError(f"jobs must be >= 1, got {jobs!r}")
    started = time.monotonic()
    family = config.family
    tail_model = fit_class_tail_model(
        family,
        config.tail_samples,
        config.tail_dims,
        _stream(config.seed, _DOMAIN_TAILFIT),
        config.ambient_dim,
    )
    sampler = preprocess(
        family,
        config.eps,
        config.p,
        tail_model,
        _stream(config.seed, _DOMAIN_PREPROCESS),
        ambient_dim=config.ambient_dim,
        jl_constant=config.jl_constant,
        m_max=config.m_max,
    )
    delta = (
        config.eps / (4.0 * math.sqrt(sampler.d))
        if config.delta is None
        else config.delta
    )
    fixed_signal = None
    if config.mode == "fixed_x":
        member = family.sample(
            _stream(config.seed, _DOMAIN_FIXED_MEMBER), config.ambient_dim
        )
        fixed_signal = family.to_signal(member, config.ambient_dim)
    else:
        # Every trial measures through this operator: draw it and build the
        # decoder's terms for it in set-up, before worker threads share them.
        sampler.decoder.prepare(sampler.operator)

    def worker(trial: int) -> tuple[dict[str, Any], TrialAudit]:
        return _run_trial(config, sampler, fixed_signal, delta, trial)

    if jobs == 1:
        results = [worker(trial) for trial in range(config.trials)]
    else:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(worker, range(config.trials)))
    rows = [row for row, _ in results]
    premises = sum(audit.premise for _, audit in results)
    counterexamples = sum(audit.counterexample for _, audit in results)

    successes = sum(1 for row in rows if row["guarantee_met"])
    errors = [row["ambient_error"] for row in rows]
    interval = wilson_interval(successes, config.trials)
    entropy_bits = sampler.net.entropy_bits
    # The information-theoretic measurement bound is stated at the target
    # accuracy eps, not at the finer net resolution eps/6, so count a second
    # net at eps for it.  The formula needs 0 < delta < 1 to carry meaning.
    entropy_bits_at_eps = build_net(config.family, config.eps, mode="counted").entropy_bits
    lower_bound = (
        measurement_lower_bound(entropy_bits_at_eps, delta)
        if 0.0 < delta < 1.0
        else 0.0
    )
    summary: dict[str, Any] = {
        "class": family.spec_string(),
        "mode": config.mode,
        "eps": config.eps,
        "p": config.p,
        "delta": delta,
        "delta_policy": "auto" if config.delta is None else "fixed",
        "trials": config.trials,
        "seed": config.seed,
        "jl_constant": config.jl_constant,
        "ambient_dim": config.ambient_dim,
        "d": sampler.d,
        "n": sampler.n,
        "net_size": sampler.net.size,
        "net_mode": sampler.net.mode,
        "entropy_bits": entropy_bits,
        "entropy_bits_at_eps": entropy_bits_at_eps,
        "clamped": sampler.clamped,
        "tail_model": {
            "constant": tail_model.constant,
            "decay_exponent": tail_model.decay_exponent,
            "norm_bound": tail_model.norm_bound,
        },
        "success_count": successes,
        "success_rate": successes / config.trials,
        "success_ci": [interval[0], interval[1]],
        "mean_ambient_error": float(np.mean(errors)),
        "max_ambient_error": float(np.max(errors)),
        "within_ball_failures": sum(1 for row in rows if not row["within_ball"]),
        "distortion_failures": sum(1 for row in rows if not row["distortion_ok"]),
        "theorem_bound_check": within_measurement_budget(
            sampler.n, config.p, entropy_bits
        ),
        "measurement_lower_bound": lower_bound,
        "n_meets_lower_bound": sampler.n >= lower_bound,
        "implication_premise_trials": premises,
        "implication_counterexamples": counterexamples,
    }
    logger.info(
        "experiment done: class=%s mode=%s success=%d/%d elapsed=%.2fs",
        summary["class"],
        config.mode,
        successes,
        config.trials,
        time.monotonic() - started,
    )
    return ExperimentResult(summary=summary, rows=rows)


# ---------------------------------------------------------------------------
# Output files
# ---------------------------------------------------------------------------


def _csv_cell(value: Any) -> str:
    if isinstance(value, bool):
        return "True" if value else "False"
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def write_trials_csv(
    path: str, rows: list[dict[str, Any]], columns: tuple[str, ...] = CSV_COLUMNS
) -> None:
    """Write records with a fixed column order, one line per record."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_csv_cell(row[column]) for column in columns])


def write_summary_json(path: str, summary: dict[str, Any]) -> None:
    """Write the summary with sorted keys so reruns are byte-identical."""
    with open(path, "w") as handle:
        json.dump(summary, handle, sort_keys=True, indent=2)
        handle.write("\n")
