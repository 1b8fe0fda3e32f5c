"""Generative function classes and tail-decay models.

Each class describes a family of square-integrable functions on ``[-pi, pi]``
through a structured member representation (coefficient vectors or
piecewise descriptions).  A class object knows how to sample a member, turn a
member into ambient coefficients, test membership, and compute distances
between members in closed form.  It also carries everything class-specific
about its covering net, as hooks (see ``FunctionClass``); ``nets`` supplies
the grids, builds, numbers and walks the net without knowing which class it
covers.

The tail-decay model summarizes how fast coefficient tails shrink with the
truncation dimension; it is fitted empirically from samples and used to pick
working dimensions downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import UsageError
from .hilbert import (
    MAX_PIECE_DEGREE,
    TWO_PI,
    _SQRT_2PI,
    PiecewiseDescription,
    Signal,
    _taylor,
    analyze_piecewise,
    exact_l2_distance,
    pad_or_truncate,
    piecewise_norm,
    tail_norm,
)
from .nets import AxisLog, NetPlan, grid_count, position_grid

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

    Members: ``sample(rng, ambient_dim)``, ``coefficient_prefix(member, dim)``,
    ``contains(member, tolerance)``, ``distance(a, b)`` (exact in L2[-pi, pi])
    and ``spec_string()``, and the attribute ``zero``, the zero function as a
    member, from which ``norm`` and ``tail`` follow.  ``coefficient_prefix`` is
    the one expansion hook: the member's first ``dim`` basis coefficients.
    ``to_signal`` wraps it as a ``Signal``.

    Covering nets: ``net_plan(eps1)`` lays the net out as breakpoint
    configurations times one point on each quantized axis, and marks it
    ``factored`` when its step decoder can search it without enumeration.
    ``nets`` walks that layout for every class, to enumerate the net, decode
    onto it and round a member onto it, through three hooks:
    ``member(breakpoints, values)`` builds the center at a configuration and
    one value per axis, and its coefficients must be linear in ``values``,
    with no offset; ``snap_breakpoints(plan, member)`` gives the grid indices
    of a configuration for a member's breakpoints, from the grid cells
    ``plan.cell`` names; and ``coordinates(plan, member, breakpoints)`` gives
    the member's unsnapped value on each axis, given its snapped breakpoints.
    """

    def to_signal(self, member, ambient_dim: int) -> Signal:
        """The member's first ``ambient_dim`` coefficients as a signal."""
        return Signal(self.coefficient_prefix(member, ambient_dim))

    def norm(self, member) -> float:
        """The member's exact L2 norm: its distance to ``zero``."""
        return self.distance(member, self.zero)

    def tail(self, member, prefix: np.ndarray) -> float:
        """Exact ``|x - prefix|`` as ``sqrt(|x|^2 - |prefix|^2)``, to ``1e-16 |x|^2 / tail^2`` relative."""
        return math.sqrt(max(self.norm(member) ** 2 - float(prefix @ prefix), 0.0))

    def snap_breakpoints(self, plan: NetPlan, member) -> tuple[int, ...]:
        return ()


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
    zero = Signal(np.zeros(1))

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

    def tail(self, member: Signal, prefix: np.ndarray) -> float:
        """The norm of the member's coefficients past the prefix: exact, with no cancellation."""
        return float(np.linalg.norm(member.coefficients[prefix.size:]))

    def to_signal(self, member: Signal, ambient_dim: int) -> Signal:
        if member.ambient_dim > ambient_dim and tail_norm(member, ambient_dim) > 0.0:
            raise UsageError(
                f"member carries energy beyond ambient dimension {ambient_dim}"
            )
        return super().to_signal(member, ambient_dim)

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
            AxisLog(count=grid_count(envelope[i], step), step=step)
            for i in range(truncation)
        )
        return NetPlan(eps1=eps1, axes=axes)

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
    zero = PiecewiseDescription((), ((0.0,),))

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
            )
        raise UsageError(
            f"could not draw {self.max_jumps} breakpoints with gaps >= {self.min_gap}"
        )

    def coefficient_prefix(self, member: PiecewiseDescription, dim: int) -> np.ndarray:
        return analyze_piecewise(member, dim).coefficients

    def contains(
        self,
        member: PiecewiseDescription,
        tolerance: float = _MEMBERSHIP_TOLERANCE,
    ) -> bool:
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

    def norm(self, member: PiecewiseDescription) -> float:
        """The distance to ``zero``, bit for bit, from the member's own pieces."""
        return piecewise_norm(member)

    def net_plan(self, eps1: float) -> NetPlan:
        """The net at ``eps1``, laid out from the exact error of its witness.

        ``nets.round_coordinates`` snaps a member's ``s`` breakpoints onto the ``P``-point
        grid, then rounds piece ``j``'s polynomial, re-expanded about snapped
        piece ``j``'s midpoint, coefficient by coefficient: degree ``m`` at
        ``step_m``.  Let ``B_m`` be the degree-``m`` bound and ``delta = pi /
        P`` half a cell.  For a member with all ``s`` breakpoints:

        - Positions.  Each breakpoint moves at most ``delta``, and the gap rule
          never bumps one.  With ``s > 1`` the nominal pitch is at most
          ``min_gap / 4`` and at least ``2 delta``, so ``index_gap <= ceil(z) -
          2`` for ``z = min_gap / (2 delta)``, while breakpoints ``min_gap``
          apart fall ``floor(z) >= ceil(z) - 1`` or more cells apart: a cell to
          spare for the rounding of ``(b + pi) / (2 delta)``.  The same bound
          leaves ``P - (s - 1)(index_gap - 1) > 2 (s - 1) >= s``, so every
          layout has a configuration.
        - Moved regions.  The member and its witness take different pieces
          only between a breakpoint and its snap, at most ``delta`` long.  There
          the member is at most ``sum_m B_m pi^m`` in size, as every point is
          within ``pi`` of its piece's midpoint; so is the witness's polynomial
          before rounding, as grid points lie in ``[-pi + delta, pi - delta]``;
          and its rounding is at most ``sum_m (step_m / 2) pi^m``.  So they
          differ by at most ``h = sum_m (2 B_m + step_m / 2) pi^m``.
        - Levels.  Elsewhere they differ by the rounding alone, ``sum_m e_jm (u
          - t_j)^m`` on snapped piece ``j`` with ``|e_jm| <= step_m / 2``.  Its
          norm over all pieces is at most ``e_l = sum_m (step_m / 2) |u^m|``,
          the norm on ``[-pi, pi]``: the pieces' half-widths ``h_j`` sum to
          ``pi``, so ``sum_j h_j^(2m+1) <= pi^(2m+1)``.  No rounding clamps: a
          midpoint moves at most ``delta``, so a re-expanded coefficient is at
          most ``R_m = sum_{k>=m} B_k C(k, m) delta^(k-m)``, and axis ``m``
          covers ``[-R_m, R_m]`` (``R_0 = B_0`` at degree 0).
        - Split.  The regions are disjoint, so ``|x - w|^2 <= e_l^2 + s delta
          h^2``.  ``step_m = sqrt(2) eps1 / ((degree + 1) |u^m|)`` makes ``e_l^2
          = eps1^2 / 2``, and the pitch ``eps1^2 / (s h^2)`` keeps ``s delta
          h^2 <= eps1^2 / 2`` (``position_grid``).

        A member with fewer breakpoints is snapped with extra ones after its
        last; at degree 0 that splits a constant and the bound holds, but at
        higher degree a split piece's coefficients can pass ``R_m``.
        """
        s, degree = self.max_jumps, self.degree
        bounds = self.coefficient_bounds()
        steps = [
            math.sqrt(2.0) * eps1 / ((degree + 1) * _monomial_norm(m)) for m in range(degree + 1)
        ]
        count, gap, shift = 0, 1, 0.0
        if s:
            height = sum((2.0 * bounds[m] + steps[m] / 2.0) * math.pi**m for m in range(degree + 1))
            pitch = eps1**2 / (s * height**2)
            if s > 1:
                pitch = min(pitch, self.min_gap / 4.0)
            count, effective = position_grid(pitch)
            gap = max(1, math.ceil((self.min_gap - 2.0 * pitch) / effective))
            shift = effective / 2.0
        reach = [
            sum(bounds[k] * math.comb(k, m) * shift ** (k - m) for k in range(m, degree + 1))
            for m in range(degree + 1)
        ]
        axes = tuple(
            AxisLog(count=grid_count(reach[m], steps[m]), step=steps[m])
            for piece in range(s + 1)
            for m in range(degree + 1)
        )
        return NetPlan(
            eps1=eps1,
            axes=axes,
            breakpoint_count=count,
            index_gap=gap,
            jumps=s,
            factored=degree == 0 and s == 1,
        )

    def member(self, breakpoints, values) -> PiecewiseDescription:
        per_piece = self.degree + 1
        pieces = tuple(
            tuple(values[p * per_piece : (p + 1) * per_piece])
            for p in range(self.max_jumps + 1)
        )
        return PiecewiseDescription(breakpoints=breakpoints, piece_coefficients=pieces)

    def snap_breakpoints(self, plan: NetPlan, member) -> tuple[int, ...]:
        if self.max_jumps == 0:
            return ()
        count = plan.breakpoint_count
        indices = [max(0, min(count - 1, plan.cell(b))) for b in member.breakpoints.tolist()]
        # Enforce distinctness and the configuration gap, bumping forward.
        for t in range(1, len(indices)):
            indices[t] = max(indices[t], indices[t - 1] + plan.index_gap)
        while len(indices) < self.max_jumps:
            candidate = (indices[-1] + plan.index_gap) if indices else 0
            indices.append(candidate)
        if indices and indices[-1] >= count:
            raise UsageError("member breakpoints cannot be snapped into the net grid")
        return tuple(indices)

    def coordinates(self, plan: NetPlan, member, breakpoints) -> list[float]:
        """Piece ``j``'s polynomial about snapped piece ``j``'s midpoint, piece by piece.

        Snapped pieces past the member's last are its last piece's.
        """
        edges = [-math.pi, *breakpoints, math.pi]
        midpoints = [0.5 * (left + right) for left, right in zip(edges[:-1], edges[1:])]
        last = len(member.breakpoints)
        return [
            value
            for j, t in enumerate(midpoints)
            for value in _taylor(member, t, self.degree + 1, piece=min(j, last))
        ]


# ---------------------------------------------------------------------------
# Piecewise analytic class
# ---------------------------------------------------------------------------


def _circle_steps(positions, levels) -> PiecewiseDescription:
    """The step function that takes ``levels[i]`` from ``positions[i]`` on.

    ``positions`` increase in [-pi, pi).  The last level wraps onto
    [-pi, positions[0]), so a position at -pi is no interior breakpoint.
    """
    positions = tuple(float(p) for p in positions)
    levels = tuple((float(v),) for v in levels)
    if positions[0] == -math.pi:
        return PiecewiseDescription(positions[1:], levels)
    return PiecewiseDescription(positions, (levels[-1], *levels))


def _circle_jumps(steps: PiecewiseDescription) -> tuple[float, ...]:
    """A step description's jump positions on the circle, increasing in [-pi, pi).

    -pi when its end levels differ, then its interior breakpoints.
    """
    pieces = steps.piece_coefficients
    wrap = (-math.pi,) if pieces[0][0] != pieces[-1][0] else ()
    return wrap + tuple(float(b) for b in steps.breakpoints)


@dataclass(frozen=True)
class AnalyticStepMember:
    """Analytic coefficients plus a piecewise-constant step component."""

    smooth: Signal
    steps: PiecewiseDescription

    def __post_init__(self) -> None:
        for coeffs in self.steps.piece_coefficients:
            if len(coeffs) != 1:
                raise UsageError("step component pieces must be constants")


@dataclass(frozen=True)
class PiecewiseAnalyticClass(FunctionClass):
    """Analytic part with geometric coefficient decay plus bounded steps.

    The analytic part satisfies ``|c_i| <= K exp(-eta j)`` where ``j`` is the
    frequency of basis index ``i``; the step part has at most ``max_jumps``
    jumps on the circle, a jump at +/-pi included, with levels in ``[-K, K]``.
    """

    max_jumps: int
    strip_width: float
    amplitude: float
    zero = AnalyticStepMember(Signal(np.zeros(1)), PiecewiseSmoothClass.zero)

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
        positions = np.sort(rng.uniform(-math.pi, math.pi, self.max_jumps))
        levels = rng.uniform(-self.amplitude, self.amplitude, self.max_jumps)
        return AnalyticStepMember(smooth=smooth, steps=_circle_steps(positions, levels))

    def coefficient_prefix(self, member: AnalyticStepMember, dim: int) -> np.ndarray:
        smooth = pad_or_truncate(member.smooth.coefficients, dim)
        return smooth + analyze_piecewise(member.steps, dim).coefficients

    def contains(
        self,
        member: AnalyticStepMember,
        tolerance: float = _MEMBERSHIP_TOLERANCE,
    ) -> bool:
        envelope = self.coefficient_envelope(member.smooth.ambient_dim)
        if np.any(np.abs(member.smooth.coefficients) > envelope * (1.0 + tolerance) + 1e-300):
            return False
        if len(_circle_jumps(member.steps)) > self.max_jumps:
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
        # Step positions, step levels, coefficient rounding and the coefficient
        # tail each get a quarter of eps1.  The snap steps past grid points
        # already taken, so a position may move more than half a cell: the
        # pitch budgets a whole cell per step, (eps1/4)^2 / (kappa (2K)^2).
        count, _ = position_grid((eps1 / 4.0) ** 2 / (kappa * (2.0 * big_k) ** 2))
        if count < kappa:
            raise UsageError(
                f"step-position grid at eps1 = {eps1!r} has {count}"
                f" points, fewer than max_jumps = {kappa}"
            )
        level_step = eps1 / (2.0 * _SQRT_2PI)
        axes = [AxisLog(count=grid_count(big_k, level_step), step=level_step)] * kappa
        ratio = 4.0 * big_k / ((1.0 - math.exp(-eta)) * eps1)
        freq_cut = max(1, int(math.ceil(math.log(max(ratio, 1.0 + 1e-12)) / eta)))
        n_coeffs = 2 * freq_cut + 1
        coeff_step = eps1 / (2.0 * math.sqrt(n_coeffs))
        envelope = self.coefficient_envelope(n_coeffs)
        axes.extend(
            AxisLog(count=grid_count(envelope[i], coeff_step), step=coeff_step)
            for i in range(n_coeffs)
        )
        return NetPlan(
            eps1=eps1,
            axes=tuple(axes),
            breakpoint_count=count,
            jumps=kappa,
        )

    def member(self, breakpoints, values) -> AnalyticStepMember:
        kappa = self.max_jumps
        steps = _circle_steps(breakpoints, values[:kappa])
        return AnalyticStepMember(smooth=Signal(np.array(values[kappa:])), steps=steps)

    def snap_breakpoints(self, plan: NetPlan, member) -> tuple[int, ...]:
        """Nearest free grid points on the circle, moving on past taken ones."""
        count = plan.breakpoint_count
        taken: set[int] = set()
        indices: list[int] = []
        for b in _circle_jumps(member.steps):
            idx = plan.cell(b) % count
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
        return tuple(sorted(indices))

    def coordinates(self, plan: NetPlan, member, breakpoints) -> list[float]:
        """The step levels at the snapped arcs' midpoints, then the coefficients."""
        arcs = np.array([*breakpoints, breakpoints[0] + TWO_PI])
        midpoints = np.mod(0.5 * (arcs[:-1] + arcs[1:]) + math.pi, TWO_PI) - math.pi
        coefficients = pad_or_truncate(
            member.smooth.coefficients, len(plan.axes) - self.max_jumps
        )
        return [*member.steps.evaluate(midpoints), *coefficients]


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
