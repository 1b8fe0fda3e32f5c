"""Reconstruction pipeline: truncate, sketch, and decode against a covering net.

``preprocess`` combines a function class with a fitted tail-decay model and
produces a ``PreparedSampler``: a truncation dimension ``d`` that absorbs the
coefficient tails, a covering net at resolution ``eps1 = eps / 6``, and a
random ``n``-dimensional measurement operator sized for the net by the
Johnson-Lindenstrauss requirement.  ``measure`` sketches a signal through the
operator (optionally with bounded noise), and ``reconstruct`` decodes the
sketch to the nearest projected net center.  Comparing a reconstruction with
its ground truth is ``experiment.audit_trial``'s job.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from typing import Any

import numpy as np

from .errors import AmbientTooSmallError, NetTooLargeError, UsageError
from .function_classes import TailDecayModel
from .hilbert import DEFAULT_AMBIENT_DIM, Signal
from .jl import (
    DEFAULT_JL_CONSTANT,
    SEED_RANGE,
    MeasurementOperator,
    apply_operator,
    random_subspace,
    required_measurements,
)
from .nets import (
    DEFAULT_NET_BUDGET,
    CoveringNet,
    FactoredStepDecoder,
    MaterializedDecoder,
    build_net,
)

__all__ = [
    "PreparedSampler",
    "ReconstructionOutcome",
    "measure",
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

    ``decoder`` finds the nearest net center, to measurements or to truncated
    coefficients: the net's own decoder for factored nets, and for
    materialized nets one over the centers' first ``d`` coefficients.
    ``clamped`` says that the Johnson-Lindenstrauss requirement met or
    exceeded ``d``, so ``n = d``: the operator is a full orthogonal map and
    the sketch is exact on the truncated space.

    The ``n x d`` operator is drawn from ``operator_seed`` on first use of
    ``operator``, so a sampler whose operator is replaced before any
    measurement (every trial of a ``fixed_x`` run) never pays for the draw.
    The draw takes no lock: draw it before threads share the sampler.
    """

    eps: float
    eps1: float
    p: float
    d: int
    n: int
    operator_seed: int
    net: CoveringNet
    decoder: FactoredStepDecoder | MaterializedDecoder
    ambient_dim: int

    @property
    def clamped(self) -> bool:
        return self.n == self.d

    @property
    def operator(self) -> MeasurementOperator:
        drawn = self.__dict__.get("_operator")
        if drawn is None:
            drawn = random_subspace(self.d, self.n, seed=self.operator_seed)
            object.__setattr__(self, "_operator", drawn)
        return drawn


def _materialized_decoder(
    net: CoveringNet, d: int, ambient_dim: int
) -> MaterializedDecoder:
    """A decoder over the first ``d`` coefficients of every enumerated center."""
    rows = np.empty((net.size, d))
    for row, member in zip(rows, net.members):
        row[:] = net.family.to_signal(member, ambient_dim).coefficients[:d]
    return MaterializedDecoder(net.members, rows)


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
    ``M`` centers, clamped at ``d`` — a full orthogonal operator is already
    exact on the truncated space, so further rows cannot help.
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
    net = build_net(family, eps1, mode="auto", m_max=m_max)
    if net.mode == "counted":
        raise NetTooLargeError(
            f"net with {net.size} centers cannot be decoded: materialization"
            f" is capped at {m_max} and no factored decoder applies"
        )
    decoder = net.decoder
    if decoder is None:
        decoder = _materialized_decoder(net, d, ambient_dim)
    wanted = required_measurements(p, net.size + 1, jl_constant)
    n = min(wanted, d)
    logger.info(
        "prepared sampler: eps=%g d=%d n=%d (wanted %d) M=%d mode=%s",
        eps,
        d,
        n,
        wanted,
        net.size,
        net.mode,
    )
    return PreparedSampler(
        eps=eps,
        eps1=eps1,
        p=p,
        d=d,
        n=n,
        operator_seed=int(rng.integers(SEED_RANGE)),
        net=net,
        decoder=decoder,
        ambient_dim=ambient_dim,
    )


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


def measure(
    sampler: PreparedSampler,
    x: Signal,
    delta: float = 0.0,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Sketch ``x`` through the sampler's operator, optionally with noise.

    Noise is uniform per coordinate over ``[-delta * scale, delta * scale]``,
    where ``scale`` is the operator's rescaling factor, so ``delta`` is
    calibrated in unscaled projection coordinates.
    """
    if delta < 0.0:
        raise UsageError(f"noise level must be non-negative, got {delta!r}")
    y = apply_operator(sampler.operator, x)
    if delta > 0.0:
        if rng is None:
            raise UsageError("noisy measurement needs a random stream")
        bound = delta * sampler.operator.scale
        y = y + rng.uniform(-bound, bound, size=y.shape)
    return y


@dataclass(frozen=True)
class ReconstructionOutcome:
    """The decoded center, its index, and its distance to the measurements."""

    index: int
    center: Any
    projected_distance: float
    within_ball: bool


def reconstruct(
    sampler: PreparedSampler, y: np.ndarray, delta: float = 0.0
) -> ReconstructionOutcome:
    """Decode measurements to the nearest projected net center.

    Ties break toward the lowest center index.  ``within_ball`` compares the
    decoded distance against ``2 * eps1`` plus the worst-case noise shift
    ``sqrt(n) * delta * scale``.
    """
    if delta < 0.0:
        raise UsageError(f"noise level must be non-negative, got {delta!r}")
    decoded = sampler.decoder.decode_measurements(y, sampler.operator)
    noise_shift = math.sqrt(sampler.operator.n) * delta * sampler.operator.scale
    return ReconstructionOutcome(
        index=decoded.index,
        center=decoded.member,
        projected_distance=decoded.distance,
        within_ball=decoded.distance <= 2.0 * sampler.eps1 + noise_shift,
    )
