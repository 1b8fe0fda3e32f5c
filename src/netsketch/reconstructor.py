"""Reconstruction pipeline: truncate, sketch, and decode against a covering net.

``preprocess`` combines a function class with a fitted tail-decay model and
produces a ``PreparedSampler``: a truncation dimension ``d`` that absorbs the
coefficient tails, a covering net at resolution ``eps1 = eps / 6``, and a
random ``n``-dimensional measurement operator sized for the net by the
Johnson-Lindenstrauss union bound.  ``measure`` sketches a signal through the
operator, ``add_noise`` perturbs the sketch within a bound, and
``reconstruct`` decodes it to the nearest projected net center.  Comparing a
reconstruction with its ground truth is ``experiment.audit_trial``'s job.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from typing import Any

import numpy as np

from .errors import AmbientTooSmallError, UsageError
from .function_classes import TailDecayModel
from .hilbert import DEFAULT_AMBIENT_DIM, Signal
from .jl import (
    DEFAULT_JL_CONSTANT,
    SEED_RANGE,
    MeasurementOperator,
    apply_operator,
    failure_bound,
    random_subspace,
    required_measurements,
)
from .nets import (
    DEFAULT_NET_BUDGET,
    ConfigurationDecoder,
    CoveringNet,
    DecodeResult,
    FactoredStepDecoder,
    build_net,
)

__all__ = [
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


# ---------------------------------------------------------------------------
# Preprocessing
# ---------------------------------------------------------------------------


def truncation_dimension(tail_model: TailDecayModel, eps1: float) -> int:
    """Smallest ``d`` with ``C * R * d**-beta <= eps1`` under the fitted model.

    Degenerate models (a non-finite or non-positive decay exponent), and
    dimensions beyond floating-point range, are rejected as usage errors.
    """
    if not eps1 > 0.0:
        raise UsageError(f"resolution must be positive, got {eps1!r}")
    beta = tail_model.decay_exponent
    if not math.isfinite(beta) or beta <= 0.0:
        raise UsageError(
            f"tail model with decay exponent {beta!r} cannot justify a finite"
            " truncation dimension"
        )
    mass = tail_model.constant * tail_model.norm_bound
    if mass < 0.0:
        raise UsageError(f"tail model has negative mass bound {mass!r}")
    if mass <= eps1:
        return 1
    try:
        return max(1, math.ceil((mass / eps1) ** (1.0 / beta)))
    except OverflowError:
        raise UsageError(
            f"tail model with decay exponent {beta!r} needs a truncation dimension"
            f" beyond floating-point range at resolution {eps1!r}"
        ) from None


@dataclass(frozen=True)
class PreparedSampler:
    """Everything fixed before measuring: dimensions, net, and operator.

    ``decoder`` is the net's decoder, built with the net for this ``d``: it
    finds the nearest net center to measurements under an operator, and
    builds its terms on the first decode under each.
    ``clamped`` says that the Johnson-Lindenstrauss requirement met or
    exceeded ``d``, so ``n = d``: the operator is a full orthogonal map and
    the sketch is exact on the truncated space.

    The ``n x d`` operator is drawn from ``operator_seed`` on first use of
    ``operator``, so a sampler whose operator is replaced before any
    measurement (every trial of a ``fixed_x`` run) never pays for the draw.
    The draw takes no lock: draw it before threads share the sampler.
    (Before Python 3.12, ``functools.cached_property`` holds one lock for
    every sampler while it draws, which would serialize the draws of a
    ``fixed_x`` run's worker threads.)
    """

    eps: float
    eps1: float
    p: float
    d: int
    n: int
    operator_seed: int
    net: CoveringNet

    @property
    def decoder(self) -> FactoredStepDecoder | ConfigurationDecoder:
        return self.net.decoder

    @property
    def clamped(self) -> bool:
        return self.n == self.d

    @property
    def certified_failure_bound(self) -> float:
        """Bound on the chance that the operator breaks a trial's accuracy chain.

        The chain needs the lower distortion band on the pair (x, c) for
        whichever center c is decoded, ``M`` pairs in all, and the upper band
        on the one pair (x, w) with the covering witness w:
        ``jl.failure_bound(n, d, M, 1)``.
        """
        return failure_bound(self.n, self.d, self.net.size, 1)

    @property
    def operator(self) -> MeasurementOperator:
        drawn = self.__dict__.get("_operator")
        if drawn is None:
            drawn = random_subspace(self.d, self.n, seed=self.operator_seed)
            object.__setattr__(self, "_operator", drawn)
        return drawn


def preprocess(
    family: Any,
    eps: float,
    p: float,
    tail_model: TailDecayModel,
    rng: np.random.Generator,
    *,
    ambient_dim: int = DEFAULT_AMBIENT_DIM,
    jl_constant: float = DEFAULT_JL_CONSTANT,
    m_max: float = DEFAULT_NET_BUDGET,
) -> PreparedSampler:
    """Prepare the decoding side: truncation dimension, net, and operator.

    The accuracy target ``eps`` is split into three budgeted terms, leaving
    ``eps1 = eps / 6`` for the net resolution and for the truncation tails.
    The operator gets ``required_measurements(p, M + 1)`` rows for a net of
    ``M`` centers, ``ceil(c ln((M + 1) / (1 - p)))`` by the union bound over
    the signal's pairs with the centers, clamped at ``d`` — a full orthogonal
    operator is already exact on the truncated space, so further rows cannot
    help.  The INFO line reports the sampler's ``certified_failure_bound``,
    at most ``1 - p`` for every ``jl_constant >= 1 / jl.KAPPA_LOWER``; a
    smaller constant is not refused, and its bound may exceed ``1 - p``.
    """
    if not (math.isfinite(eps) and eps > 0.0):
        raise UsageError(f"accuracy target must be positive, got {eps!r}")
    if not 0.0 < p < 1.0:
        raise UsageError(f"success probability must lie in (0, 1), got {p!r}")
    if ambient_dim < 1:
        raise UsageError(f"ambient dimension must be positive, got {ambient_dim!r}")
    eps1 = eps / 6.0
    d = truncation_dimension(tail_model, eps1)
    if d > ambient_dim:
        raise AmbientTooSmallError(
            f"tail model needs truncation dimension {d}, beyond the ambient"
            f" dimension {ambient_dim}"
        )
    net = build_net(family, eps1, m_max=m_max, d=d)
    wanted = required_measurements(p, net.size + 1, jl_constant)
    sampler = PreparedSampler(
        eps=eps,
        eps1=eps1,
        p=p,
        d=d,
        n=min(wanted, d),
        operator_seed=int(rng.integers(SEED_RANGE)),
        net=net,
    )
    logger.info(
        "prepared sampler: eps=%g d=%d n=%d (wanted %d) M=%d mode=%s failure_bound=%.3g",
        eps, d, sampler.n, wanted, net.size, net.mode, sampler.certified_failure_bound,
    )
    return sampler


def with_new_operator(
    sampler: PreparedSampler, rng: np.random.Generator
) -> PreparedSampler:
    """Redraw the measurement operator, keeping dimensions, net and decoder.

    Takes the new operator's seed from ``rng`` now; the operator itself is
    drawn on first use.
    """
    return replace(sampler, operator_seed=int(rng.integers(SEED_RANGE)))


# ---------------------------------------------------------------------------
# Measurement and decoding
# ---------------------------------------------------------------------------


def measure(sampler: PreparedSampler, x: Signal | np.ndarray) -> np.ndarray:
    """Sketch ``x``'s first ``d`` coefficients through the sampler's operator."""
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
    return sampler.decoder.decode_measurements(y, sampler.operator)
