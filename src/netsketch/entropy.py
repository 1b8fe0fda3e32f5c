"""Covering numbers, entropy growth fits, and measurement-budget diagnostics.

The Kolmogorov entropy of a class at resolution ``eps`` is ``log2`` of its
minimal covering number.  Exact covering numbers are out of reach for
function classes, so entropy values come from constructed nets (upper
bounds).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import UsageError
from .jl import DEFAULT_JL_CONSTANT

__all__ = [
    "EntropyScan",
    "fit_growth",
    "measurement_lower_bound",
    "within_measurement_budget",
]


# ---------------------------------------------------------------------------
# Growth-law fitting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EntropyScan:
    """A resolution sweep with entropy values and a fitted growth law.

    ``entropy_values`` holds bits (log2 of net sizes).  The fit runs in the
    model's linearizing coordinates — ``log H`` against ``log(1/eps)`` for
    the power law, plain ``H`` against ``log(1/eps)`` (quadratic) for the
    log-square law — with natural logarithms throughout.  ``non_monotone``
    flags entropy that decreases as ``eps`` shrinks; the fit is still
    produced.
    """

    eps_values: np.ndarray
    entropy_values: np.ndarray
    model: str
    fit_params: dict[str, float]
    residuals: np.ndarray
    r_squared: float
    non_monotone: bool

    def __post_init__(self) -> None:
        for name in ("eps_values", "entropy_values", "residuals"):
            frozen = np.asarray(getattr(self, name), dtype=np.float64).copy()
            frozen.setflags(write=False)
            object.__setattr__(self, name, frozen)


def _r_squared(observed: np.ndarray, residuals: np.ndarray) -> float:
    total = float(np.sum((observed - observed.mean()) ** 2))
    leftover = float(np.sum(residuals**2))
    if total == 0.0:
        return 1.0 if leftover < 1e-30 else 0.0
    return 1.0 - leftover / total


def fit_growth(eps_values, entropy_values, model: str) -> EntropyScan:
    """Least-squares growth fit of entropy against resolution.

    ``model`` is ``"power"`` (``H = amplitude * (1/eps)**exponent``) or
    ``"logsquare"`` (``H = quadratic*log(1/eps)**2 + linear*log(1/eps)
    + constant``).
    """
    eps = np.asarray(eps_values, dtype=np.float64)
    entropy = np.asarray(entropy_values, dtype=np.float64)
    if eps.ndim != 1 or eps.size < 4:
        raise UsageError("growth fits need at least 4 resolution values")
    if entropy.shape != eps.shape:
        raise UsageError("entropy values must align with resolution values")
    if np.any(eps <= 0.0):
        raise UsageError("resolution values must be positive")
    if np.any(np.diff(eps) >= 0.0):
        raise UsageError("resolution values must be strictly decreasing")
    if eps[0] < 2.0 * eps[-1]:
        raise UsageError("resolution values must span at least one octave")

    non_monotone = bool(np.any(np.diff(entropy) < 0.0))
    x = -np.log(eps)
    if model == "power":
        if np.any(entropy <= 0.0):
            raise UsageError("power-law fits need positive entropy values")
        y = np.log(entropy)
        slope, intercept = np.polyfit(x, y, 1)
        residuals = y - (slope * x + intercept)
        params = {"exponent": float(slope), "amplitude": float(math.exp(intercept))}
        r2 = _r_squared(y, residuals)
    elif model == "logsquare":
        quadratic, linear, constant = np.polyfit(x, entropy, 2)
        residuals = entropy - np.polyval([quadratic, linear, constant], x)
        params = {
            "quadratic": float(quadratic),
            "linear": float(linear),
            "constant": float(constant),
        }
        r2 = _r_squared(entropy, residuals)
    else:
        raise UsageError(f"unknown growth model: {model!r}")

    return EntropyScan(
        eps_values=eps,
        entropy_values=entropy,
        model=model,
        fit_params=params,
        residuals=residuals,
        r_squared=r2,
        non_monotone=non_monotone,
    )


# ---------------------------------------------------------------------------
# Measurement-count diagnostics
# ---------------------------------------------------------------------------


def measurement_lower_bound(entropy_bits: float, delta: float) -> float:
    """Information floor on measurement counts: ``H / log2(1/delta)``.

    A measurement read to accuracy ``delta`` carries at most ``log2(1/delta)``
    bits, so recovering ``entropy_bits`` bits needs at least this many.
    """
    if entropy_bits < 0.0:
        raise UsageError(f"entropy must be nonnegative, got {entropy_bits!r}")
    if not 0.0 < delta < 1.0:
        raise UsageError(f"accuracy must lie in (0, 1), got {delta!r}")
    return entropy_bits / math.log2(1.0 / delta)


def within_measurement_budget(
    n_used: int, p: float, entropy_bits: float, jl_constant: float = DEFAULT_JL_CONSTANT
) -> bool:
    """Check ``n_used`` against the rate ``(c/(1-p)) * H + c/(1-p) + 1``, ``c = jl_constant``.

    For every ``c > 0`` the rate bounds the union-bound count
    ``ceil(c ln((M+1)/(1-p)))`` at ``H = log2 M``: with ``a = 1/(1-p)``,
    ``ln(M+1) <= ln 2 (H+1)`` and ``ln a <= a - 1`` leave that count ``c ((a
    - ln 2) H + 1 - ln 2) > 0`` below it.  An experiment's count comes from
    the exact Beta tail instead (``jl.exact_measurements``), which the rate
    bounds only for ``c`` large enough: at ``p = 1/2`` a 7-center net gets
    ``n = 7`` at ``d = 1000``, within ``2 c (log2 7 + 1) + 1`` from ``c =
    0.79`` up.
    """
    if not 0.0 < p < 1.0:
        raise UsageError(f"probability must lie in (0, 1), got {p!r}")
    if n_used < 0:
        raise UsageError(f"measurement count must be nonnegative, got {n_used!r}")
    rate = jl_constant / (1.0 - p)
    return n_used <= rate * entropy_bits + rate + 1.0
