"""Generative function classes and tail-decay models.

Each class describes a family of square-integrable functions on ``[-pi, pi]``
through a structured member representation (coefficient vectors or
piecewise descriptions).  A class object knows how to sample a member, turn a
member into ambient coefficients, test membership, and compute distances
between members in closed form.  It also carries everything class-specific
about its covering net (see ``FunctionClass``); ``nets`` supplies the grids
and builds the net without knowing which class it covers.

The tail-decay model summarizes how fast coefficient tails shrink with the
truncation dimension; it is fitted empirically from samples and used to pick
working dimensions downstream.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import UsageError
from .hilbert import (
    MAX_PIECE_DEGREE,
    TWO_PI,
    PiecewiseDescription,
    Signal,
    _piece_polynomial_at,
    analyze_piecewise,
    exact_l2_distance,
    pad_or_truncate,
    tail_norm,
)
from .nets import (
    AxisLog,
    FactoredStepDecoder,
    NetPlan,
    gap_separated_count,
    grid_count,
    iter_gap_tuples,
    position_grid,
    symmetric_grid,
)

__all__ = [
    "FunctionClass",
    "SmoothClass",
    "PiecewiseSmoothClass",
    "PiecewiseAnalyticClass",
    "AnalyticStepMember",
    "TailDecayModel",
    "fit_tail_model",
    "fit_class_tail_model",
    "count_tail_violations",
]

_MAX_SAMPLE_ATTEMPTS = 1000
_MEMBERSHIP_TOLERANCE = 1e-9
_SQRT_2PI = math.sqrt(TWO_PI)


def _fmt(value: float) -> str:
    """Compact, whitespace-free rendering of a numeric parameter."""
    if float(value) == int(value):
        return str(int(value))
    return format(float(value), "g")


def _ball_uniform(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Uniform draw from the unit ball of ``R^dim``."""
    direction = rng.standard_normal(dim)
    norm = np.linalg.norm(direction)
    while norm == 0.0:  # pragma: no cover - probability zero
        direction = rng.standard_normal(dim)
        norm = np.linalg.norm(direction)
    radius = rng.uniform() ** (1.0 / dim)
    return direction * (radius / norm)


def _monomial_norm(m: int) -> float:
    """L2 norm of ``u^m`` over ``[-pi, pi]``: ``sqrt(2 pi^(2m+1) / (2m+1))``."""
    return math.sqrt(2.0 * math.pi ** (2 * m + 1) / (2 * m + 1))


class FunctionClass:
    """The protocol every function class follows; subclasses are frozen dataclasses.

    Members: ``sample(rng, ambient_dim)``, ``to_signal(member, ambient_dim)``,
    ``contains(member, tolerance)``, ``distance(a, b)`` and ``spec_string()``.

    Covering nets: ``net_plan(eps1)`` lays the net out as breakpoint
    configurations times one point on each quantized axis, and
    ``factored_decoder(plan)`` returns an exact decoder that needs no
    enumeration, or ``None``.  Enumeration and rounding walk that layout here,
    for every class, through three hooks: ``member(breakpoints, values)``
    builds the center at a configuration and one value per axis;
    ``snap_breakpoints(plan, member)`` snaps a member's breakpoints onto a
    configuration; and ``coordinates(plan, member, breakpoints)`` gives the
    member's unsnapped value on each axis, given its snapped breakpoints.

    The smooth and piecewise smooth classes also provide
    ``coefficient_prefix(member, dim)``: the first ``dim`` coefficients, with
    no check on the energy beyond them.
    """

    def factored_decoder(self, plan: NetPlan) -> FactoredStepDecoder | None:
        return None

    def snap_breakpoints(self, plan: NetPlan, member) -> tuple[float, ...]:
        return ()

    def enumerate_members(self, plan: NetPlan) -> Iterator:
        """Every center in index order: configurations, then axis points."""
        positions = () if plan.positions is None else plan.positions
        grids = [axis.points() for axis in plan.axes]
        for combo in iter_gap_tuples(len(positions), plan.jumps, plan.index_gap):
            breakpoints = tuple(float(positions[i]) for i in combo)
            for values in itertools.product(*grids):
                yield self.member(breakpoints, values)

    def round_member(self, plan: NetPlan, member):
        """The center that witnesses the covering of ``member``."""
        breakpoints = self.snap_breakpoints(plan, member)
        coordinates = self.coordinates(plan, member, breakpoints)
        values = tuple(
            axis.snap(float(value))
            for axis, value in zip(plan.axes, coordinates, strict=True)
        )
        return self.member(breakpoints, values)


# ---------------------------------------------------------------------------
# Smooth (Sobolev ellipsoid) class
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SmoothClass(FunctionClass):
    """Coefficient ellipsoid ``sum((i+1)^k c_i)^2 <= K^2``.

    ``smoothness`` is the decay order ``k`` and ``amplitude`` the ellipsoid
    radius ``K``.  Members are plain coefficient vectors; the envelope on the
    ``i``-th coefficient is ``K / (i+1)^k``.
    """

    smoothness: int
    amplitude: float

    def __post_init__(self) -> None:
        if self.smoothness < 1:
            raise UsageError(f"smoothness order must be >= 1, got {self.smoothness!r}")
        if not self.amplitude > 0.0:
            raise UsageError(f"amplitude must be positive, got {self.amplitude!r}")

    def spec_string(self) -> str:
        return f"smooth(k={self.smoothness},K={_fmt(self.amplitude)})"

    def coefficient_envelope(self, dim: int) -> np.ndarray:
        """Per-coordinate bounds ``K / (i+1)^k`` for ``i < dim``."""
        indices = np.arange(1, dim + 1, dtype=np.float64)
        return self.amplitude * indices ** (-float(self.smoothness))

    def sample(self, rng: np.random.Generator, ambient_dim: int) -> Signal:
        weights = _ball_uniform(rng, ambient_dim)
        return Signal(self.coefficient_envelope(ambient_dim) * weights)

    def coefficient_prefix(self, member: Signal, dim: int) -> np.ndarray:
        return pad_or_truncate(member.coefficients, dim)

    def to_signal(self, member: Signal, ambient_dim: int) -> Signal:
        if member.ambient_dim > ambient_dim and tail_norm(member, ambient_dim) > 0.0:
            raise UsageError(
                f"member carries energy beyond ambient dimension {ambient_dim}"
            )
        return Signal(self.coefficient_prefix(member, ambient_dim))

    def contains(self, member: Signal, tolerance: float = _MEMBERSHIP_TOLERANCE) -> bool:
        weights = np.arange(1, member.ambient_dim + 1, dtype=np.float64) ** float(
            self.smoothness
        )
        weighted = float(np.sum((weights * member.coefficients) ** 2))
        return weighted <= self.amplitude**2 * (1.0 + tolerance)

    def distance(self, a: Signal, b: Signal) -> float:
        dim = max(a.ambient_dim, b.ambient_dim)
        delta = self.coefficient_prefix(a, dim) - self.coefficient_prefix(b, dim)
        return float(np.linalg.norm(delta))

    def net_plan(self, eps1: float) -> NetPlan:
        k, big_k = self.smoothness, self.amplitude
        truncation = max(1, int(math.ceil((2.0 * big_k / eps1) ** (1.0 / k))))
        step = eps1 / math.sqrt(truncation)
        envelope = self.coefficient_envelope(truncation)
        axes = tuple(
            AxisLog(
                label=f"coefficient[{i}]", count=grid_count(envelope[i], step), step=step
            )
            for i in range(truncation)
        )
        return NetPlan(eps1=eps1, axes=axes, config_count=1)

    def member(self, breakpoints, values) -> Signal:
        return Signal(np.array(values))

    def coordinates(self, plan: NetPlan, member, breakpoints) -> np.ndarray:
        return pad_or_truncate(member.coefficients, len(plan.axes))


# ---------------------------------------------------------------------------
# Piecewise smooth class
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PiecewiseSmoothClass(FunctionClass):
    """Piecewise polynomials on ``[-pi, pi]`` with bounded data.

    Members have at most ``max_jumps`` interior breakpoints, consecutive
    breakpoints at least ``min_gap`` apart, piece degree at most ``degree``,
    midpoint values bounded by ``level_bound``, and the degree-``m`` local
    coefficient bounded by ``deriv_bound / m!``.
    """

    degree: int
    max_jumps: int
    deriv_bound: float
    min_gap: float
    level_bound: float

    def __post_init__(self) -> None:
        if not 0 <= self.degree <= MAX_PIECE_DEGREE:
            raise UsageError(
                f"piece degree must lie in [0, {MAX_PIECE_DEGREE}], got {self.degree!r}"
            )
        if self.max_jumps < 0:
            raise UsageError(f"max_jumps must be >= 0, got {self.max_jumps!r}")
        if not self.deriv_bound > 0.0:
            raise UsageError(f"deriv_bound must be positive, got {self.deriv_bound!r}")
        if not self.level_bound > 0.0:
            raise UsageError(f"level_bound must be positive, got {self.level_bound!r}")
        if not self.min_gap > 0.0:
            raise UsageError(f"min_gap must be positive, got {self.min_gap!r}")
        if (self.max_jumps - 1) * self.min_gap >= 2.0 * math.pi:
            raise UsageError(
                f"{self.max_jumps} breakpoints cannot keep gaps of {self.min_gap}"
            )

    def spec_string(self) -> str:
        return (
            f"piecewise_smooth(k={self.degree},s={self.max_jumps},"
            f"K2={_fmt(self.deriv_bound)},gap={_fmt(self.min_gap)},"
            f"A={_fmt(self.level_bound)})"
        )

    def coefficient_bounds(self) -> np.ndarray:
        """Per-degree bounds: ``A`` then ``K2 / m!`` for ``m = 1..degree``."""
        bounds = [self.level_bound]
        for m in range(1, self.degree + 1):
            bounds.append(self.deriv_bound / math.factorial(m))
        return np.array(bounds)

    def sample(self, rng: np.random.Generator, ambient_dim: int) -> PiecewiseDescription:
        del ambient_dim  # members are descriptions; the ambient enters later
        for _ in range(_MAX_SAMPLE_ATTEMPTS):
            breakpoints = np.sort(rng.uniform(-math.pi, math.pi, self.max_jumps))
            if breakpoints.size > 1 and np.min(np.diff(breakpoints)) < self.min_gap:
                continue
            bounds = self.coefficient_bounds()
            pieces = tuple(
                tuple(rng.uniform(-b, b) for b in bounds)
                for _ in range(self.max_jumps + 1)
            )
            return PiecewiseDescription(
                breakpoints=tuple(float(b) for b in breakpoints),
                piece_coefficients=pieces,
                periodic=False,
            )
        raise UsageError(
            f"could not draw {self.max_jumps} breakpoints with gaps >= {self.min_gap}"
        )

    def to_signal(self, member: PiecewiseDescription, ambient_dim: int) -> Signal:
        return analyze_piecewise(member, ambient_dim)

    def coefficient_prefix(self, member: PiecewiseDescription, dim: int) -> np.ndarray:
        return analyze_piecewise(member, dim).coefficients

    def contains(
        self,
        member: PiecewiseDescription,
        tolerance: float = _MEMBERSHIP_TOLERANCE,
    ) -> bool:
        if member.periodic:
            return False
        if len(member.breakpoints) > self.max_jumps:
            return False
        gaps = np.diff(member.breakpoints)
        if gaps.size and float(np.min(gaps)) < self.min_gap * (1.0 - tolerance):
            return False
        bounds = self.coefficient_bounds() * (1.0 + tolerance)
        for coeffs in member.piece_coefficients:
            if len(coeffs) - 1 > self.degree:
                return False
            for value, bound in zip(coeffs, bounds):
                if abs(value) > bound:
                    return False
        return True

    def distance(self, a: PiecewiseDescription, b: PiecewiseDescription) -> float:
        return exact_l2_distance(a, b)

    def net_plan(self, eps1: float) -> NetPlan:
        s = self.max_jumps
        if s == 0:
            positions = np.array([])
            gap = 1
            configs = 1
        elif s == 1:
            positions, _, _ = position_grid(eps1, s, self.level_bound, periodic=False)
            gap = 1
            configs = positions.size
        else:
            positions, effective, pitch = position_grid(
                eps1, s, self.level_bound, periodic=False
            )
            slack = self.min_gap - 2.0 * pitch
            gap = max(1, int(math.ceil(slack / effective))) if slack > 0.0 else 1
            if positions.size - (s - 1) * (gap - 1) < s:
                raise UsageError(
                    "no breakpoint configuration satisfies the gap constraint"
                )
            configs = gap_separated_count(positions.size, s, gap)
        bounds = self.coefficient_bounds()
        denom = math.sqrt(s + 1.0) * (self.degree + 1)
        steps = [eps1 / (denom * _monomial_norm(m)) for m in range(self.degree + 1)]
        axes = tuple(
            AxisLog(
                label=f"piece[{piece}].coeff[{m}]",
                count=grid_count(bounds[m], steps[m]),
                step=steps[m],
            )
            for piece in range(s + 1)
            for m in range(self.degree + 1)
        )
        return NetPlan(
            eps1=eps1,
            axes=axes,
            config_count=int(configs),
            positions=positions,
            index_gap=gap,
            jumps=s,
        )

    def member(self, breakpoints, values) -> PiecewiseDescription:
        per_piece = self.degree + 1
        pieces = tuple(
            tuple(values[p * per_piece : (p + 1) * per_piece])
            for p in range(self.max_jumps + 1)
        )
        return PiecewiseDescription(
            breakpoints=breakpoints, piece_coefficients=pieces, periodic=False
        )

    def snap_breakpoints(self, plan: NetPlan, member) -> tuple[float, ...]:
        if self.max_jumps == 0:
            return ()
        positions = plan.positions
        effective = TWO_PI / positions.size
        indices: list[int] = []
        for b in np.sort(np.asarray(member.breakpoints, dtype=np.float64)):
            idx = int(math.floor((b + math.pi) / effective))
            idx = max(0, min(positions.size - 1, idx))
            indices.append(idx)
        # Enforce distinctness and the configuration gap, bumping forward.
        for t in range(1, len(indices)):
            indices[t] = max(indices[t], indices[t - 1] + plan.index_gap)
        while len(indices) < self.max_jumps:
            candidate = (indices[-1] + plan.index_gap) if indices else 0
            indices.append(candidate)
        if indices and indices[-1] >= positions.size:
            raise UsageError("member breakpoints cannot be snapped into the net grid")
        return tuple(float(positions[i]) for i in indices)

    def coordinates(self, plan: NetPlan, member, breakpoints) -> list[float]:
        """Each piece's local coefficients about its midpoint, piece by piece."""
        edges = [-math.pi, *breakpoints, math.pi]
        values: list[float] = []
        for left, right in zip(edges[:-1], edges[1:]):
            midpoint = 0.5 * (left + right)
            polynomial = _piece_polynomial_at(member, midpoint)
            local = polynomial(np.polynomial.Polynomial([midpoint, 1.0]))
            values.extend(pad_or_truncate(local.coef, self.degree + 1))
        return values

    def factored_decoder(self, plan: NetPlan) -> FactoredStepDecoder | None:
        """The exact sweep decoder, for single-jump piecewise-constant classes."""
        if self.degree != 0 or self.max_jumps != 1:
            return None
        level_step = plan.axes[0].step
        return FactoredStepDecoder(
            positions=plan.positions,
            levels=symmetric_grid(self.level_bound, level_step),
            level_step=level_step,
        )


# ---------------------------------------------------------------------------
# Piecewise analytic class
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AnalyticStepMember:
    """Analytic coefficients plus a piecewise-constant step component."""

    smooth: Signal
    steps: PiecewiseDescription

    def __post_init__(self) -> None:
        if not self.steps.periodic:
            raise UsageError("step component must use the periodic flavour")
        for coeffs in self.steps.piece_coefficients:
            if len(coeffs) != 1:
                raise UsageError("step component pieces must be constants")


@dataclass(frozen=True)
class PiecewiseAnalyticClass(FunctionClass):
    """Analytic part with geometric coefficient decay plus bounded steps.

    The analytic part satisfies ``|c_i| <= K exp(-eta j)`` where ``j`` is the
    frequency of basis index ``i``; the step part has at most ``max_jumps``
    jumps on the circle with levels in ``[-K, K]``.
    """

    max_jumps: int
    strip_width: float
    amplitude: float

    def __post_init__(self) -> None:
        if self.max_jumps < 1:
            raise UsageError(f"max_jumps must be >= 1, got {self.max_jumps!r}")
        if not self.strip_width > 0.0:
            raise UsageError(f"strip_width must be positive, got {self.strip_width!r}")
        if not self.amplitude > 0.0:
            raise UsageError(f"amplitude must be positive, got {self.amplitude!r}")

    def spec_string(self) -> str:
        return (
            f"piecewise_analytic(jumps={self.max_jumps},"
            f"eta={_fmt(self.strip_width)},K={_fmt(self.amplitude)})"
        )

    def coefficient_envelope(self, dim: int) -> np.ndarray:
        """Geometric envelope ``K exp(-eta j)`` per basis index."""
        frequencies = (np.arange(dim) + 1) // 2
        return self.amplitude * np.exp(-self.strip_width * frequencies)

    def sample(self, rng: np.random.Generator, ambient_dim: int) -> AnalyticStepMember:
        envelope = self.coefficient_envelope(ambient_dim)
        smooth = Signal(envelope * rng.uniform(-1.0, 1.0, ambient_dim))
        for _ in range(_MAX_SAMPLE_ATTEMPTS):
            positions = np.sort(rng.uniform(-math.pi, math.pi, self.max_jumps))
            if positions.size > 1 and np.min(np.diff(positions)) == 0.0:
                continue  # pragma: no cover - probability zero
            levels = rng.uniform(-self.amplitude, self.amplitude, self.max_jumps)
            steps = PiecewiseDescription(
                breakpoints=tuple(float(p) for p in positions),
                piece_coefficients=tuple((float(v),) for v in levels),
                periodic=True,
            )
            return AnalyticStepMember(smooth=smooth, steps=steps)
        raise UsageError("could not draw distinct step positions")  # pragma: no cover

    def to_signal(self, member: AnalyticStepMember, ambient_dim: int) -> Signal:
        smooth = pad_or_truncate(member.smooth.coefficients, ambient_dim)
        steps = analyze_piecewise(member.steps, ambient_dim)
        return Signal(smooth + steps.coefficients)

    def contains(
        self,
        member: AnalyticStepMember,
        tolerance: float = _MEMBERSHIP_TOLERANCE,
    ) -> bool:
        envelope = self.coefficient_envelope(member.smooth.ambient_dim)
        if np.any(np.abs(member.smooth.coefficients) > envelope * (1.0 + tolerance) + 1e-300):
            return False
        if len(member.steps.breakpoints) > self.max_jumps:
            return False
        level_cap = self.amplitude * (1.0 + tolerance)
        return all(
            abs(coeffs[0]) <= level_cap for coeffs in member.steps.piece_coefficients
        )

    def distance(self, a: AnalyticStepMember, b: AnalyticStepMember) -> float:
        dim = max(a.smooth.ambient_dim, b.smooth.ambient_dim)
        smooth_a = pad_or_truncate(a.smooth.coefficients, dim)
        smooth_delta = smooth_a - pad_or_truncate(b.smooth.coefficients, dim)
        # || smooth_delta + step_delta ||^2 expands exactly: the smooth part
        # has finite support, so its inner product with the step difference
        # needs only the first ``dim`` step coefficients.
        steps_a = analyze_piecewise(a.steps, dim).coefficients
        steps_b = analyze_piecewise(b.steps, dim).coefficients
        cross = float(np.dot(smooth_delta, steps_a - steps_b))
        step_sq = exact_l2_distance(a.steps, b.steps) ** 2
        total = float(np.dot(smooth_delta, smooth_delta)) + 2.0 * cross + step_sq
        return math.sqrt(max(total, 0.0))

    def net_plan(self, eps1: float) -> NetPlan:
        kappa, big_k, eta = self.max_jumps, self.amplitude, self.strip_width
        positions, _, _ = position_grid(eps1, kappa, big_k, periodic=True)
        if positions.size < kappa:
            raise UsageError(
                f"step-position grid at eps1 = {eps1!r} has {positions.size}"
                f" points, fewer than max_jumps = {kappa}"
            )
        level_step = eps1 / (2.0 * _SQRT_2PI)
        axes = [
            AxisLog(
                label=f"level[{p}]", count=grid_count(big_k, level_step), step=level_step
            )
            for p in range(kappa)
        ]
        ratio = 4.0 * big_k / ((1.0 - math.exp(-eta)) * eps1)
        freq_cut = max(1, int(math.ceil(math.log(max(ratio, 1.0 + 1e-12)) / eta)))
        n_coeffs = 2 * freq_cut + 1
        coeff_step = eps1 / (2.0 * math.sqrt(n_coeffs))
        envelope = self.coefficient_envelope(n_coeffs)
        axes.extend(
            AxisLog(
                label=f"coefficient[{i}]",
                count=grid_count(envelope[i], coeff_step),
                step=coeff_step,
            )
            for i in range(n_coeffs)
        )
        return NetPlan(
            eps1=eps1,
            axes=tuple(axes),
            config_count=int(math.comb(positions.size, kappa)),
            positions=positions,
            jumps=kappa,
        )

    def member(self, breakpoints, values) -> AnalyticStepMember:
        kappa = self.max_jumps
        return AnalyticStepMember(
            smooth=Signal(np.array(values[kappa:])),
            steps=_shared(_step_component, breakpoints, values[:kappa]),
        )

    def snap_breakpoints(self, plan: NetPlan, member) -> tuple[float, ...]:
        """Nearest free grid points on the circle, moving on past taken ones."""
        positions = plan.positions
        count = positions.size
        effective = TWO_PI / count
        taken: set[int] = set()
        indices: list[int] = []
        for b in np.asarray(member.steps.breakpoints, dtype=np.float64):
            idx = int(math.floor((b + math.pi) / effective + 0.5)) % count
            while idx in taken:
                idx = (idx + 1) % count
            taken.add(idx)
            indices.append(idx)
        while len(indices) < self.max_jumps:
            idx = 0
            while idx in taken:
                idx += 1
            if idx >= count:
                raise UsageError("step positions cannot be snapped into the net grid")
            taken.add(idx)
            indices.append(idx)
        return tuple(float(positions[i]) for i in sorted(indices))

    def coordinates(self, plan: NetPlan, member, breakpoints) -> list[float]:
        """The step levels at the snapped arcs' midpoints, then the coefficients."""
        arcs = [*breakpoints, breakpoints[0] + TWO_PI]
        midpoints = [0.5 * (left + right) for left, right in zip(arcs[:-1], arcs[1:])]
        coefficients = pad_or_truncate(
            member.smooth.coefficients, len(plan.axes) - self.max_jumps
        )
        return [*member.steps.evaluate(np.array(midpoints)), *coefficients]


def _step_component(breakpoints, levels) -> PiecewiseDescription:
    return PiecewiseDescription(
        breakpoints=breakpoints,
        piece_coefficients=tuple((float(v),) for v in levels),
        periodic=True,
    )


@functools.lru_cache(maxsize=1)
def _shared(make: Callable, *args):
    """``make(*args)``, one object for consecutive calls with equal arguments.

    Enumeration yields in a row the analytic members that share a step
    component, so one cached entry makes it one object for all of them.
    """
    return make(*args)


# ---------------------------------------------------------------------------
# Tail-decay models
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TailDecayModel:
    """Empirical bound ``tail(x, d) <= constant * |x| * d^-decay_exponent``.

    ``norm_bound`` caps member norms, so ``constant * norm_bound * d^-beta``
    bounds absolute tails.  ``decay_exponent`` may be ``inf`` when every
    probed tail vanished; such degenerate fits cannot drive dimension choices.
    """

    constant: float
    decay_exponent: float
    norm_bound: float = field(default=0.0)


def fit_tail_model(samples: Sequence[Signal], dims: Sequence[int]) -> TailDecayModel:
    """Fit a power-law tail bound from sampled coefficient vectors.

    The exponent is the least-squares slope of ``log(tail / |x|)`` against
    ``log d`` over all samples and probe dimensions with a nonzero tail; the
    constant is then the largest residual, so the fitted bound holds with
    equality somewhere and is never violated on the fitting data.
    """
    if not samples:
        raise UsageError("need at least one sample to fit a tail model")
    dims = sorted(set(int(d) for d in dims))
    if len(dims) < 2:
        raise UsageError("need at least two distinct probe dimensions")
    if dims[0] < 1:
        raise UsageError(f"probe dimensions must be positive, got {dims[0]}")
    norms = np.array([sample.norm() for sample in samples])
    if np.any(norms == 0.0):
        raise UsageError("tail fitting requires nonzero samples")
    relative = np.array(
        [[tail_norm(sample, d) for d in dims] for sample in samples]
    ) / norms[:, None]
    log_dims = np.log(np.array(dims, dtype=np.float64))
    positive = relative > 0.0
    if not np.any(positive):
        return TailDecayModel(
            constant=0.0,
            decay_exponent=math.inf,
            norm_bound=1.1 * float(np.max(norms)),
        )
    xs = np.broadcast_to(log_dims, relative.shape)[positive]
    ys = np.log(relative[positive])
    if np.ptp(xs) == 0.0:
        raise UsageError("nonzero tails seen at only one probe dimension")
    slope = float(np.polyfit(xs, ys, 1)[0])
    beta = -slope
    residuals = relative[positive] * np.exp(beta * xs)
    return TailDecayModel(
        constant=float(np.max(residuals)),
        decay_exponent=beta,
        norm_bound=1.1 * float(np.max(norms)),
    )


def fit_class_tail_model(
    family,
    n_samples: int,
    dims: Sequence[int],
    rng: np.random.Generator,
    ambient_dim: int,
) -> TailDecayModel:
    """Sample a class and fit its tail-decay model in one step."""
    if n_samples < 10:
        raise UsageError(f"tail fitting needs at least 10 samples, got {n_samples!r}")
    dims = [int(d) for d in dims]
    if any(b <= a for a, b in zip(dims, dims[1:])):
        raise UsageError("probe dimensions must be strictly increasing")
    if dims and not 1 <= dims[0] <= dims[-1] <= ambient_dim:
        raise UsageError(
            f"probe dimensions must lie within [1, {ambient_dim}], got {dims}"
        )
    samples = [
        family.to_signal(family.sample(rng, ambient_dim), ambient_dim)
        for _ in range(n_samples)
    ]
    return fit_tail_model(samples, dims)


def count_tail_violations(
    model: TailDecayModel,
    samples: Sequence[Signal],
    dims: Sequence[int],
    slack: float = 1e-12,
) -> int:
    """How many (sample, dimension) pairs exceed the fitted relative bound."""
    violations = 0
    for sample in samples:
        norm = sample.norm()
        for d in dims:
            allowed = model.constant * norm * float(d) ** (-model.decay_exponent)
            if tail_norm(sample, int(d)) > allowed + slack:
                violations += 1
    return violations
