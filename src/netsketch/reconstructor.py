"""Reconstruction pipeline: truncate, sketch, and decode against a covering net.

``preprocess`` combines a function class with a fitted tail-decay model and
produces a ``PreparedSampler``: an ``AccuracyBudget`` that splits the accuracy
target ``eps`` into two tail budgets ``t = eps / 6`` and the net resolution
``r``, a truncation dimension ``d`` that keeps the coefficient tails within
``t``, a covering net at resolution ``r``, and a random ``n``-dimensional
measurement operator, ``n`` the fewest rows that the exact Beta tails certify
for the net.  ``measure`` sketches a signal through the operator, ``add_noise``
perturbs the sketch within a bound, and ``reconstruct`` decodes it to the
nearest projected net center.  Comparing a reconstruction with its ground
truth is ``experiment.audit_trial``'s job.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from typing import Any

import numpy as np

from .errors import AmbientTooSmallError, UsageError
from .function_classes import TailDecayModel
from .hilbert import DEFAULT_AMBIENT_DIM
from .jl import (
    DISTORTION_BAND,
    SEED_RANGE,
    MeasurementOperator,
    apply_operator,
    exact_failure_bound,
    exact_measurements,
    random_subspace,
)
from .nets import (
    DEFAULT_NET_BUDGET,
    ConfigurationDecoder,
    CoveringNet,
    DecodeResult,
    FactoredStepDecoder,
    SketchedNet,
    build_net,
)

__all__ = [
    "AccuracyBudget",
    "CHAIN_BAND",
    "PreparedSampler",
    "add_noise",
    "measure",
    "noise_shift",
    "preprocess",
    "reconstruct",
    "truncation_dimension",
    "with_new_operator",
]

logger = logging.getLogger(__name__)

#: The accuracy chain's distortion band ``(a_lo, a_hi)``.  The lower end
#: guards the pair (x, c) for every center c the decode may return, ``M``
#: pairs, and keeps ``jl.DISTORTION_BAND``'s 1/2.  The upper end guards only
#: the pair (x, w) with the covering witness w, paid for once in the union
#: bound, so it sits near 1: at ``a_hi = 1.15`` and the bench's ``n`` 37 its
#: exact tail is 0.089 (the ``M`` lower pairs' union is 0.33), and the net
#: gets the resolution that the narrower end frees (``AccuracyBudget``).
CHAIN_BAND = (DISTORTION_BAND[0], 1.15)


# ---------------------------------------------------------------------------
# Preprocessing
# ---------------------------------------------------------------------------


def truncation_dimension(tail_model: TailDecayModel, tail: float) -> int:
    """Smallest ``d`` with ``C * R * d**-beta <= tail`` under the fitted model.

    Degenerate models (a non-finite or non-positive decay exponent), and
    dimensions beyond floating-point range, are rejected as usage errors.
    """
    if not tail > 0.0:
        raise UsageError(f"tail budget must be positive, got {tail!r}")
    beta = tail_model.decay_exponent
    if not math.isfinite(beta) or beta <= 0.0:
        raise UsageError(
            f"tail model with decay exponent {beta!r} cannot justify a finite"
            " truncation dimension"
        )
    mass = tail_model.constant * tail_model.norm_bound
    if mass < 0.0:
        raise UsageError(f"tail model has negative mass bound {mass!r}")
    if mass <= tail:
        return 1
    try:
        return max(1, math.ceil((mass / tail) ** (1.0 / beta)))
    except OverflowError:
        raise UsageError(
            f"tail model with decay exponent {beta!r} needs a truncation dimension"
            f" beyond floating-point range at tail budget {tail!r}"
        ) from None


@dataclass(frozen=True)
class AccuracyBudget:
    """How the accuracy target ``eps`` is spent along the reconstruction chain.

    The chain bounds the error by the signal's tail beyond ``d``, the offset
    to the decoded center in the first ``d`` coefficients, and the center's
    tail.  Each tail gets ``tail = eps / 6``.  The decode minimizes the sketch
    residual over the net, so a witness w within ``resolution`` of x and the
    band ``(a_lo, a_hi)`` on the pairs (x, w) and (x, c) give an offset of at
    most ``(a_hi / a_lo) resolution``.  ``resolution = a_lo (eps - 2 tail) /
    a_hi`` makes the chain ``tail + (a_hi / a_lo) resolution + tail = eps``.
    """

    eps: float
    tail: float
    resolution: float
    band: tuple[float, float]

    @classmethod
    def split(cls, eps: float) -> AccuracyBudget:
        """The budget at ``CHAIN_BAND``."""
        tail = eps / 6.0
        lower, upper = CHAIN_BAND
        return cls(eps=eps, tail=tail, resolution=lower * (eps - 2.0 * tail) / upper, band=CHAIN_BAND)


@dataclass(frozen=True)
class PreparedSampler:
    """Everything fixed before measuring: budget, dimensions, net, and operator.

    ``budget`` is how the accuracy target ``eps`` is spent: ``d`` keeps the
    tails within ``budget.tail`` and the net covers at ``budget.resolution``.
    ``decoder`` is the net's decoder, built with the net for this ``d``: it
    finds the nearest net center to measurements under an operator.
    ``clamped`` says that no count below ``d`` is certified, so ``n = d``:
    the operator is a full orthogonal map and the sketch is exact on the
    truncated space.

    ``sketched`` is the net as the sampler's operator sees it: the ``n x d``
    operator, drawn from ``operator_seed``, and the decoder's ``prepare`` of
    it, both built on first use of ``sketched`` or ``operator`` and kept
    with the sampler, so they die with it.  A sampler whose operator is
    replaced before any measurement (every trial of a ``fixed_x`` run)
    never pays for either.  The build takes no lock: build it before
    threads share the sampler.  (Before Python 3.12,
    ``functools.cached_property`` holds one lock for every sampler while it
    builds, which would serialize a ``fixed_x`` run's worker threads.)
    """

    budget: AccuracyBudget
    p: float
    d: int
    n: int
    operator_seed: int
    net: CoveringNet

    @property
    def eps(self) -> float:
        return self.budget.eps

    @property
    def decoder(self) -> FactoredStepDecoder | ConfigurationDecoder:
        return self.net.decoder

    @property
    def clamped(self) -> bool:
        return self.n == self.d

    @property
    def certified_failure_bound(self) -> float:
        """Bound on the chance that the operator breaks a trial's accuracy chain.

        The chain needs the budget band's lower end on the pair (x, c) for
        whichever center c is decoded, ``M`` pairs in all, and its upper end
        on the one pair (x, w) with the covering witness w, each priced by
        its exact tail: ``jl.exact_failure_bound(n, d, M, 1, budget.band)``.
        """
        return exact_failure_bound(self.n, self.d, self.net.size, 1, self.budget.band)

    @property
    def sketched(self) -> SketchedNet:
        built = self.__dict__.get("_sketched")
        if built is None:
            built = self.decoder.prepare(random_subspace(self.d, self.n, seed=self.operator_seed))
            object.__setattr__(self, "_sketched", built)
        return built

    @property
    def operator(self) -> MeasurementOperator:
        return self.sketched.operator


def preprocess(
    family: Any,
    eps: float,
    p: float,
    tail_model: TailDecayModel,
    rng: np.random.Generator,
    *,
    ambient_dim: int = DEFAULT_AMBIENT_DIM,
    m_max: float = DEFAULT_NET_BUDGET,
) -> PreparedSampler:
    """Prepare the decoding side: truncation dimension, net, and operator.

    The accuracy target ``eps`` is split by ``AccuracyBudget.split``: ``d``
    keeps the truncation tails within ``budget.tail`` and the net is laid out
    at ``budget.resolution``.  For a net of ``M`` centers the operator gets
    ``jl.exact_measurements(p, d, M, 1, budget.band)`` rows: the fewest,
    at most ``d``, whose ``certified_failure_bound`` is at most ``1 - p``.
    At ``d`` the operator is a full orthogonal map, exact on the truncated
    space.  The INFO line reports the budget and that bound.
    """
    if not (math.isfinite(eps) and eps > 0.0):
        raise UsageError(f"accuracy target must be positive, got {eps!r}")
    if not 0.0 < p < 1.0:
        raise UsageError(f"success probability must lie in (0, 1), got {p!r}")
    if ambient_dim < 1:
        raise UsageError(f"ambient dimension must be positive, got {ambient_dim!r}")
    budget = AccuracyBudget.split(eps)
    d = truncation_dimension(tail_model, budget.tail)
    if d > ambient_dim:
        raise AmbientTooSmallError(
            f"tail model needs truncation dimension {d}, beyond the ambient"
            f" dimension {ambient_dim}"
        )
    net = build_net(family, budget.resolution, m_max=m_max, d=d)
    sampler = PreparedSampler(
        budget=budget,
        p=p,
        d=d,
        n=exact_measurements(p, d, net.size, 1, budget.band),
        operator_seed=int(rng.integers(SEED_RANGE)),
        net=net,
    )
    logger.info(
        "prepared sampler: eps=%g tail=%g r=%g band=[%g, %g] d=%d n=%d M=%d"
        " mode=%s failure_bound=%.3g",
        eps, budget.tail, budget.resolution, *budget.band, d, sampler.n,
        net.size, net.mode, sampler.certified_failure_bound,
    )
    return sampler


def with_new_operator(
    sampler: PreparedSampler, rng: np.random.Generator
) -> PreparedSampler:
    """Redraw the measurement operator, keeping dimensions, net and decoder.

    Takes the new operator's seed from ``rng`` now; the operator itself is
    drawn, and the net sketched under it, on first use.
    """
    return replace(sampler, operator_seed=int(rng.integers(SEED_RANGE)))


# ---------------------------------------------------------------------------
# Measurement and decoding
# ---------------------------------------------------------------------------


def measure(sampler: PreparedSampler, x: np.ndarray) -> np.ndarray:
    """Sketch ``x``, exactly ``d`` coefficients, through the sampler's operator."""
    return apply_operator(sampler.operator, x)


def add_noise(
    sampler: PreparedSampler,
    y: np.ndarray,
    delta: float,
    rng: np.random.Generator | None,
) -> np.ndarray:
    """Measurements ``y`` with bounded noise added, or ``y`` itself at ``delta`` 0.

    Noise is uniform per coordinate over ``[-delta * scale, delta * scale]``,
    where ``scale`` is the operator's rescaling factor, so ``delta`` is
    calibrated in unscaled projection coordinates.
    """
    if delta < 0.0:
        raise UsageError(f"noise level must be non-negative, got {delta!r}")
    if not delta > 0.0:
        return y
    if rng is None:
        raise UsageError("noisy measurement needs a random stream")
    bound = delta * sampler.operator.scale
    return y + rng.uniform(-bound, bound, size=y.shape)


def noise_shift(sampler: PreparedSampler, delta: float) -> float:
    """The most ``add_noise`` at ``delta`` can move a sketch: ``sqrt(n) * delta * scale``."""
    if delta < 0.0:
        raise UsageError(f"noise level must be non-negative, got {delta!r}")
    return math.sqrt(sampler.n) * delta * sampler.operator.scale


def reconstruct(sampler: PreparedSampler, y: np.ndarray) -> DecodeResult:
    """Decode measurements to the nearest projected net center: the decoder's answer.

    Ties break toward the lowest center index, but for the last axis's
    rounding (see ``nets._nearest_on_grid``).  The result's ``coefficients``
    and ``measured`` are the center's ``c_d`` and its sketch ``R c``.
    """
    return sampler.decoder.decode_measurements(y, sampler.sketched)
