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
from typing import Any, NamedTuple

import numpy as np

# build_family is imported for callers that still import it from here.
from .config import ExperimentConfig, build_family  # noqa: F401
from .errors import NetSketchError, UsageError
from .entropy import measurement_lower_bound, within_measurement_budget
from .function_classes import fit_class_tail_model
# tail_norm is imported for callers that wrap it here (perfbench/child.py).
from .hilbert import tail_norm  # noqa: F401
from .jl import DEFAULT_JL_CONSTANT, apply_operator
from .nets import DecodeResult, build_net, round_coordinates
from .reconstructor import (
    PreparedSampler,
    add_noise,
    measure,
    noise_shift,
    preprocess,
    reconstruct,
    with_new_operator,
)

__all__ = [
    "CSV_COLUMNS",
    "ExperimentResult",
    "TrialAudit",
    "Witness",
    "audit_trial",
    "covering_witness",
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
    "premise",
    "witness_error",
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
    operator, difference: np.ndarray, projected: float | None = None
) -> float:
    """Projected-over-true distance ratio for one coefficient difference.

    ``projected`` is the length of the difference's sketch when the caller
    already has it; without it the operator is applied to the difference.
    """
    true = float(np.linalg.norm(difference))
    if true == 0.0:
        return 1.0
    if projected is None:
        projected = float(np.linalg.norm(apply_operator(operator, difference)))
    return projected / true


class Witness(NamedTuple):
    """The net center that covers a member: its ``round_coordinates``, first ``d`` coefficients and distance."""

    coordinates: tuple
    coefficients: np.ndarray
    error: float


def covering_witness(
    sampler: PreparedSampler, member: Any, coordinates: tuple | None = None
) -> Witness:
    """``member``'s witness in ``sampler``'s net, rounded unless ``coordinates`` are given."""
    family = sampler.net.family
    if coordinates is None:
        coordinates = round_coordinates(family, sampler.net.plan, member)
    witness = family.member(*coordinates)
    return Witness(
        coordinates,
        family.coefficient_prefix(witness, sampler.d),
        family.distance(member, witness),
    )


@dataclass(frozen=True)
class TrialAudit:
    """One reconstruction checked against its ground truth, in L2[-pi, pi].

    The accuracy chain bounds ``ambient_error`` by ``truncation_tail`` (the
    signal's energy beyond dimension ``d``) plus ``projected_offset`` (its
    distance to the decoded center in the first ``d`` coefficients) plus
    ``center_tail`` (the center's energy beyond ``d``), with the sampler's
    ``AccuracyBudget``: ``t``, ``(a_hi / a_lo) r`` and ``t``, which add up to
    ``eps``; all four are exact, in closed form.  The middle budget needs a
    net center w within the net resolution ``r`` of x: the decode minimizes
    the sketch residual over the whole net, so ``|R(x_d - c_d)| <= |R(x_d -
    w_d)|``, and the band ``(a_lo, a_hi)`` turns that into ``|x_d - c_d| <=
    (a_hi / a_lo) |x_d - w_d|``.  The audit takes for w the class's rounding
    of x, the witness of the covering, at distance ``witness_error``.  The
    chain's premise needs ``upper_ratio <= a_hi`` on the pair (x, w),
    ``lower_ratio >= a_lo`` on the pair (x, decoded center), exact
    measurements, and both tails within ``t``; ``upper_ratio`` and
    ``lower_ratio`` are the two pairs' projected-over-true distance ratios.
    A counterexample is a trial whose premise holds but whose guarantee
    fails.
    """

    truncation_tail: float
    projected_offset: float
    center_tail: float
    ambient_error: float
    witness_error: float
    upper_ratio: float
    lower_ratio: float
    guarantee_met: bool
    distortion_ok: bool
    premise: bool
    counterexample: bool


def audit_trial(
    sampler: PreparedSampler,
    member: Any,
    x_d: np.ndarray,
    sketch: np.ndarray,
    outcome: DecodeResult,
    delta: float,
    trial: int,
    witness: Witness | None = None,
) -> TrialAudit:
    """Audit one reconstruction of ``member``; the only comparison with ground truth.

    ``x_d`` is the member's first ``d`` coefficients, ``sketch`` its noise-free
    ``R x_d``, and ``outcome`` the decode's ``DecodeResult``: the center's
    ``c_d`` is its ``coefficients`` and ``R c`` its ``measured``.  The two
    sketches give the lower pair's projected length ``|R x_d - R c|`` with no
    product with the frame.  The witness w is ``witness`` when given (a
    ``fixed_x`` run builds its one member's once), else the center that
    ``nets.round_coordinates`` names.  When w's breakpoints and axis values
    are the decode's ``coordinates``, the upper pair is the lower one and
    ``witness_error`` is ``ambient_error``.  Otherwise the upper pair's
    length is ``|R x_d - R w_d|``, ``R w_d`` from the sampler's ``sketched``,
    and ``witness_error`` is ``covering_witness``'s.  A clamped sampler
    applies the operator to both pairs' differences: its isometry check
    allows ``1e-10``, which a difference of sketches would spend on cancellation.

    Raises ``UsageError`` when ``x_d`` is not ``d`` coefficients or
    ``sketch`` is not ``n`` measurements, and ``NetSketchError`` when a
    clamped operator distorts a pair or the witness is more than the
    budget's resolution ``r`` from x, a net that does not cover its class.
    """
    if np.shape(x_d) != (sampler.d,):
        raise UsageError(
            f"expected {sampler.d} coefficients, got shape {np.shape(x_d)}"
        )
    if np.shape(sketch) != (sampler.n,):
        raise UsageError(
            f"expected a sketch of {sampler.n} measurements, got shape {np.shape(sketch)}"
        )
    offset = x_d - outcome.coefficients
    family, operator = sampler.net.family, sampler.operator
    kept = None if sampler.clamped else float(np.linalg.norm(sketch - outcome.measured))
    lower_ratio = _distortion_ratio(operator, offset, kept)
    ambient_error = family.distance(member, outcome.member)
    coordinates = (
        round_coordinates(family, sampler.net.plan, member) if witness is None else witness.coordinates
    )
    if coordinates == outcome.coordinates:
        upper_ratio, witness_error = lower_ratio, ambient_error
    else:
        if witness is None:
            witness = covering_witness(sampler, member, coordinates)
        if not sampler.clamped:
            kept = float(np.linalg.norm(sketch - sampler.decoder.center_sketch(coordinates, sampler.sketched)))
        upper_ratio = _distortion_ratio(operator, x_d - witness.coefficients, kept)
        witness_error = witness.error
    budget = sampler.budget
    if witness_error > budget.resolution:
        raise NetSketchError(
            f"trial {trial}: the net's witness is {witness_error!r} from the member,"
            f" over r = {budget.resolution!r}: the net does not cover its class"
        )
    lower, upper = budget.band
    distortion_ok = upper_ratio <= upper and lower_ratio >= lower
    if sampler.clamped:
        # n = d makes the operator a full orthogonal map; any visible
        # distortion here is an internal error, not statistical bad luck.
        for ratio in (upper_ratio, lower_ratio):
            if abs(ratio - 1.0) > 1e-10:
                raise NetSketchError(
                    f"clamped operator distorted a pair by {ratio!r} in trial {trial}"
                )
    truncation_tail = family.tail(member, x_d)
    center_tail = family.tail(outcome.member, outcome.coefficients)
    guarantee_met = ambient_error <= sampler.eps
    premise = (
        distortion_ok
        and delta == 0.0
        and truncation_tail <= budget.tail
        and center_tail <= budget.tail
    )
    return TrialAudit(
        truncation_tail=truncation_tail,
        projected_offset=float(np.linalg.norm(offset)),
        center_tail=center_tail,
        ambient_error=ambient_error,
        witness_error=witness_error,
        upper_ratio=upper_ratio,
        lower_ratio=lower_ratio,
        guarantee_met=guarantee_met,
        distortion_ok=distortion_ok,
        premise=premise,
        counterexample=premise and not guarantee_met,
    )


def _run_trial(
    config: ExperimentConfig,
    sampler: PreparedSampler,
    fixed: tuple[Any, np.ndarray, Witness] | None,
    delta: float,
    trial: int,
) -> tuple[dict[str, Any], TrialAudit]:
    """One trial's CSV row and its audit; ``fixed`` is a ``fixed_x`` run's member, its ``x_d`` and witness."""
    family = config.family
    if config.mode == "fixed_x":
        trial_sampler = with_new_operator(
            sampler, _stream(config.seed, _DOMAIN_TRIAL, trial, _LANE_OPERATOR)
        )
        member, x_d, witness = fixed
    else:
        trial_sampler, witness = sampler, None
        member = family.sample(
            _stream(config.seed, _DOMAIN_TRIAL, trial, _LANE_MEMBER),
            config.ambient_dim,
        )
        x_d = family.coefficient_prefix(member, sampler.d)
    noise_rng = (
        _stream(config.seed, _DOMAIN_TRIAL, trial, _LANE_NOISE) if delta > 0.0 else None
    )
    sketch = measure(trial_sampler, x_d)
    outcome = reconstruct(trial_sampler, add_noise(trial_sampler, sketch, delta, noise_rng))
    audit = audit_trial(trial_sampler, member, x_d, sketch, outcome, delta, trial, witness)
    if audit.counterexample:
        raise NetSketchError(
            f"trial {trial}: reconstruction guarantee failed although distortion,"
            " exactness, and tail bounds were all verified"
        )

    budget = trial_sampler.budget
    ball = budget.band[1] * budget.resolution + noise_shift(trial_sampler, delta)
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
        "projected_distance": outcome.distance,
        "within_ball": outcome.distance <= ball,
        "ambient_error": audit.ambient_error,
        "guarantee_met": audit.guarantee_met,
        "distortion_ok": audit.distortion_ok,
        "premise": audit.premise,
        "witness_error": audit.witness_error,
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
    (and hence the JSON output) identical across repeated runs.  A config
    that sets ``jl_constant`` gets a WARNING: the exact Beta tail sets ``n``,
    and the constant is read only by ``theorem_bound_check``.
    """
    if jobs < 1:
        raise UsageError(f"jobs must be >= 1, got {jobs!r}")
    started = time.monotonic()
    jl_constant = DEFAULT_JL_CONSTANT
    if config.jl_constant is not None:
        jl_constant = config.jl_constant
        logger.warning(
            "jl_constant = %g is unused for n, which the exact Beta tail sets;"
            " only theorem_bound_check reads it", jl_constant,
        )
    family = config.family
    # The measurement lower bound is stated at eps, not at the net's
    # resolution r, so it counts a second net at eps; lay it out before any
    # trial runs.
    entropy_bits_at_eps = build_net(family, config.eps).entropy_bits
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
        m_max=config.m_max,
    )
    delta = (
        config.eps / (4.0 * math.sqrt(sampler.d))
        if config.delta is None
        else config.delta
    )
    fixed = None
    if config.mode == "fixed_x":
        member = family.sample(
            _stream(config.seed, _DOMAIN_FIXED_MEMBER), config.ambient_dim
        )
        fixed = (
            member,
            family.coefficient_prefix(member, sampler.d),
            covering_witness(sampler, member),
        )
    else:
        # Every trial measures through this operator: draw it and sketch the
        # net under it in set-up, before worker threads share the sampler.
        sampler.sketched

    def worker(trial: int) -> tuple[dict[str, Any], TrialAudit]:
        return _run_trial(config, sampler, fixed, delta, trial)

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
    # The formula needs 0 < delta < 1 to carry meaning.
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
        "jl_constant": jl_constant,
        "ambient_dim": config.ambient_dim,
        "d": sampler.d,
        "n": sampler.n,
        "net_size": sampler.net.size,
        "net_mode": sampler.net.mode,
        "entropy_bits": entropy_bits,
        "entropy_bits_at_eps": entropy_bits_at_eps,
        "clamped": sampler.clamped,
        "certified_failure_bound": sampler.certified_failure_bound,
        "resolution": sampler.budget.resolution,
        "band": list(sampler.budget.band),
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
            sampler.n, config.p, entropy_bits, jl_constant
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
