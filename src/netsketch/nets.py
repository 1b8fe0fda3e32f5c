"""Covering-net construction, counting, and exact nearest-member decoding.

A covering net for a function class at resolution ``eps1`` is a finite set of
members within ``eps1`` (in L2) of every member of the class.  A net is its
layout, a ``NetPlan``, and the counts that follow from it; no member is built
to count one, so counting works at any scale.  This module alone reads the
plan: center ``k`` is the same member in every walk of the net, whether
``enumerate_members`` lists it, a decoder returns its index, or
``round_coordinates`` rounds a member onto it.  A class supplies only hooks:
``net_plan``, ``member``, ``breakpoints`` and ``coordinates`` (see
``function_classes.FunctionClass``); ``NetPlan.snap`` is the one snap rule.
``build_net`` labels a net by the decoder its plan calls for and, given the
truncation dimension ``d``, builds that decoder from the plan:

- ``factored``: plans marked ``factored`` (single-jump piecewise-constant
  classes), at any size: ``FactoredStepDecoder`` gets every breakpoint's
  Gram at once from closed forms and FFTs.
- ``configurations``: every other plan, by ``ConfigurationDecoder`` from one
  ``d x k`` linear map per breakpoint configuration, built for at most
  ``m_max`` centers.

A decoder serves one ``d``, holds the class it covers, and changes nothing
after construction.  ``prepare`` builds the net as one operator sees it, a
``SketchedNet``: each configuration's factored Gram and the sketch of its
axis vectors, which the operator's owner keeps; a decode projects ``y`` on
that sketch for one exact closest-point search, ``_nearest_on_grid``, and
the class's ``member`` builds the winner.  Ties go to the lowest member
index, except that the last axis takes the rounding of its continuous
optimum, half-way up.

Grids are "round-image": a symmetric grid with ``2*floor(bound/step + 1/2)+1``
points always contains the rounding of any in-bound value, so per-coordinate
rounding error never exceeds half a step even at the boundary.  Breakpoint
grids are uniform with ``2^a 3^b 5^c`` points (``position_grid``), so the
step decoder's length-``P`` FFTs have no large prime factor; ``NetPlan.snap``
moves a breakpoint at most half a cell, or, at index gap 1, ``s - 1/2``
cells when it bumps or pulls one back.  A piecewise net's error is then
exact in two disjoint parts: on the moved regions, of measure at most that
much per breakpoint, the member and its rounding differ by at most a
bounded height ``h``; everywhere else they differ by the coefficient
rounding alone.  Squared errors of disjoint regions add, so the net splits
``eps1^2`` between the two (``PiecewiseSmoothClass.net_plan``,
``PiecewiseAnalyticClass.net_plan``).
"""

from __future__ import annotations

import functools
import itertools
import logging
import math
import time
from dataclasses import dataclass, field
from typing import IO, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import NetTooLargeError, UsageError
from .hilbert import TWO_PI, _SQRT_2PI, dump_signal
from .jl import MeasurementOperator

__all__ = [
    "AxisLog",
    "CoveringNet",
    "ConfigurationDecoder",
    "FactoredStepDecoder",
    "DecodeResult",
    "NetPlan",
    "SketchedNet",
    "build_net",
    "enumerate_members",
    "round_coordinates",
    "gap_separated_count",
    "iter_gap_tuples",
    "position_grid",
    "grid_count",
    "dump_net",
    "write_net",
]

_UNIT_ROUNDOFF = float(np.finfo(np.float64).eps / 2.0)

DEFAULT_NET_BUDGET = 10**6

# Operator rows per block of the factored decoder's operator terms.
_TERMS_BLOCK_ROWS = 8

logger = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# Round-image grids
# ---------------------------------------------------------------------------


def grid_count(bound: float, step: float) -> int:
    """Points in the symmetric grid covering ``[-bound, bound]`` at ``step``."""
    if not bound >= 0.0:
        raise UsageError(f"grid bound must be nonnegative, got {bound!r}")
    if not step > 0.0:
        raise UsageError(f"grid step must be positive, got {step!r}")
    return 2 * int(math.floor(bound / step + 0.5)) + 1


def _centered_grid(count: int, step: float) -> np.ndarray:
    return (np.arange(count) - (count - 1) / 2.0) * step


# ---------------------------------------------------------------------------
# Net containers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AxisLog:
    """One quantized coordinate of the construction: size and spacing.

    The axis's grid is symmetric about zero: ``count`` points ``step`` apart.
    """

    count: int
    step: float

    def points(self) -> np.ndarray:
        """The axis's grid points, in index order."""
        return _centered_grid(self.count, self.step)

    def snap(self, value: float) -> float:
        """The nearest grid point, clamped to the grid's ends."""
        half = (self.count - 1) // 2
        k = int(math.floor(value / self.step + 0.5))
        return max(-half, min(half, k)) * self.step


# ---------------------------------------------------------------------------
# Exact closest-point search over per-configuration axis grids
# ---------------------------------------------------------------------------

# A configuration with a pivot at most this fraction of its Gram diagonal is
# near singular: it is swept whole instead of bounded.
_PIVOT_FLOOR = 1e-8


def _gamma(m: int) -> float:
    """Higham's ``gamma_m = m u / (1 - m u)``."""
    return m * _UNIT_ROUNDOFF / (1.0 - m * _UNIT_ROUNDOFF)


class _Geometry(NamedTuple):
    """Every configuration's Gram and its factor, stacked by axis over the ``C`` configurations.

    ``gram`` is ``(k, k, C)``, ``G_ij`` at ``gram[i, j]``.  ``G = U
    diag(pivots) U^T`` (``U`` unit upper triangular, ``U_ij`` at ``upper[i,
    j]`` for ``i < j``, zero elsewhere), eliminated from the last axis back;
    ``pivots`` and ``widths`` are ``(k, C)``, ``w_i = sum_{m <= i} |U_mi|
    L_m`` the most ``|(U^T x)_i|`` on the grid box (``L_m`` the largest value
    on axis ``m``); ``valid``: every pivot exceeds ``_PIVOT_FLOOR`` of its
    diagonal; ``slack``: the rounding slack's Gram part.
    """

    gram: np.ndarray
    pivots: np.ndarray
    upper: np.ndarray
    widths: np.ndarray
    valid: np.ndarray
    slack: np.ndarray


def _grid_geometry(gram, grids: Sequence[np.ndarray]) -> _Geometry:
    """Factor every configuration's Gram, elementwise; each array kept, ``gram``'s stack too, is read-only."""
    gram = np.asarray(gram, dtype=np.float64)
    k, count = len(grids), gram.shape[-1]
    tops = [float(grid[-1]) for grid in grids]
    pivots, upper = np.empty((k, count)), np.zeros((k, k, count))
    with np.errstate(all="ignore"):
        for j in reversed(range(k)):
            pivots[j] = gram[j, j]
            for m in range(j + 1, k):
                pivots[j] -= pivots[m] * upper[j, m] ** 2
            for i in range(j):
                entry = gram[i, j] - sum(upper[i, m] * pivots[m] * upper[j, m] for m in range(j + 1, k))
                upper[i, j] = entry / pivots[j]
        widths = [top + sum(np.abs(upper[m, i]) * tops[m] for m in range(i)) for i, top in enumerate(tops)]
        factor = sum(p * w**2 for p, w in zip(pivots, widths))
        slack = 2.0 * (_gamma(k * (k + 1) // 2 + max(k, 2)) + _gamma(k + 3)) * factor
        valid = np.isfinite(slack)
        for j in range(k):
            valid &= (gram[j, j] > 0.0) & (pivots[j] > _PIVOT_FLOOR * gram[j, j])
    widths = np.array([np.broadcast_to(w, (count,)) for w in widths])
    arrays = (gram, pivots, upper, widths, valid, slack)
    for array in arrays:
        array.setflags(write=False)
    logger.debug(
        "search geometry: %d configurations, %d axes, %d bytes kept",
        count, k, sum(array.nbytes for array in arrays),
    )
    return _Geometry(*arrays)


def _leaf_objective(gram, projections, rows, values, step: float, count: int):
    """The objective at each leaf, and the index its last axis rounds to.

    Leaf ``l`` is configuration ``rows[l]`` with axis ``i`` at ``values[i][l]``
    for every axis but the last, ``z``, whose value solves its quadratic and
    is rounded onto the ``count``-point grid of pitch ``step``, a half-way
    value up (the higher index).  One rounding step per line, each formula
    left to right:

      c_z = (q_z - sum_{i<z} G_iz c_i) / G_zz,  k = clip(floor(c_z / step + 1/2))
      objective = -2 sum_i c_i q_i + sum_i (G_ii c_i^2 + sum_{j>i} 2 c_i c_j G_ij)

    ``|t - A c|^2 - |t|^2`` for ``G = A^T A``, ``q = A^T t``, with
    ``projections[i]`` the ``q_i``.  A zero last column (``0 / 0``) ties every
    value there and takes the lowest; call it under ``np.errstate(all="ignore")``.
    ``rows`` may be one configuration's index and ``values`` scalars: one
    leaf, in the same arithmetic.
    """
    last, half = len(values), (count - 1) // 2
    index = projections[last, rows] - sum(gram[i, last, rows] * values[i] for i in range(last))
    index /= gram[last, last, rows]
    index /= step
    index += 0.5
    index = np.fmin(np.fmax(np.floor(index), -half), half)
    chosen = [*values, index * step]
    objective = projections[0, rows] * chosen[0]
    for i in range(1, last + 1):
        objective += chosen[i] * projections[i, rows]
    objective *= -2.0
    for i in range(last + 1):
        objective += gram[i, i, rows] * (chosen[i] * chosen[i])
        for j in range(i + 1, last + 1):
            term = 2.0 * chosen[i] * chosen[j]
            term *= gram[i, j, rows]
            objective += term
    return objective, index + half


# The most leaves whose objectives a search takes one at a time, on numpy
# scalars, rather than in arrays (``_nearest_on_grid``).
_SCALAR_LEAVES = 8


def _nearest_on_grid(geometry: _Geometry, projections, grids, step: float):
    """The nearest center's configuration and axis indices, exactly.

    Configuration ``c`` has Gram ``G = A^T A`` and projections ``q = A^T t``
    (``projections[i][c]``, stacked as ``(k, C)``); a center ``x`` on the
    symmetric axis ``grids`` has objective ``f(x) = -2 q.x + x^T G x = |t -
    A x|^2 - |t|^2``.  A leaf is a configuration and a point of every grid
    but the last, whose axis ``_leaf_objective`` solves in closed form,
    rounding a half-way value up.  The winner is the least objective over all
    leaves, ties to the lowest leaf, and so to the lowest member index but
    for that rounding: what sweeping the leaves all gives.

    Bound (Fincke & Pohst 1985; Schnorr & Euchner 1994; Agrell et al. 2002).
    With ``G = U D U^T``, ``h = U^-1 q``, ``a = h / D`` and ``y = U^T x``,
    ``f(x) = beta + sum_i D_i (y_i - a_i)^2``, where ``beta = -sum_i h_i a_i``
    is the continuous minimum and term ``i`` depends on ``x_0 .. x_i`` only.
    So a leaf reaches the incumbent ``U`` only if, for every ``j``, ``x_j``
    is within ``sqrt((U - beta) / D_j)`` of its centre ``a_j - sum_{m<j}
    U_mj x_m``.  One leaf of the configuration with the least ``beta`` gives
    ``U``: each centre in turn rounded onto its grid, the last axis solved;
    then that configuration and every other with ``lower = beta - slack <= U``
    are expanded axis by axis, breadth first, one ``np.repeat`` per axis, by
    each window, and the near-singular ones (``valid`` false) whole.  Leaves
    stay in index order, so the argmin is the exhaustive one, bits and ties
    included: a leaf left out is above ``U``.

    Few leaves.  Most searches reach a leaf or two, where numpy's cost per
    call outweighs the arithmetic.  The seed leaf, and up to
    ``_SCALAR_LEAVES`` leaves, are evaluated one at a time on numpy scalars,
    the seed leaf's value reused; more go through arrays.  Both run
    ``_leaf_objective``, the same arithmetic in the same order, and take the
    first least, so they find the same winner.

    Slack.  A sum whose terms each pass through at most ``m`` roundings is
    off by at most ``gamma_m`` times their magnitudes' sum (Higham, *Accuracy
    and Stability of Numerical Algorithms*, ch. 3).  With ``L_i`` the largest
    value on axis ``i`` and ``w_i = sum_{m<=i} |U_mi| L_m``: a computed
    objective is within ``gamma_m (2 sum_i L_i |q_i| + sum_ij L_i L_j
    |G_ij|)``, ``m = k(k+1)/2 + max(k, 2)``; the computed factor is exact for
    ``G + dG``, ``|dG| <= gamma_{k+1} |U| D |U^T|`` (as LU, Thm 9.3, plus a
    rounding for three-factor products), and ``h`` for ``q + dq``, ``|dq| <=
    gamma_{k-1} |U| |h|`` (Thm 8.5), which move ``f`` on the grid box by at
    most ``gamma_{k+1} (sum_i D_i w_i^2 + 2 sum_i |h_i| w_i)``; and ``beta``
    is within ``gamma_{k+1} sum_i |h_i a_i|`` of the perturbed problem's.
    Where every pivot is positive, ``|G| <= |U| D |U^T|`` and ``|q| <= |U|
    |h|`` (to first order), so ``sum_ij L_i L_j |G_ij| <= sum_i D_i w_i^2``
    and ``sum_i L_i |q_i| <= sum_i |h_i| w_i``, and ``h_i a_i >= 0`` sum to
    ``|beta|``.  ``slack`` is twice the total, with ``gamma_{k+3}`` for
    ``gamma_{k+1}``: ``2 (gamma_m + gamma_{k+3}) sum_i D_i w_i^2`` from the
    Gram alone, and ``2 (2 (gamma_m + gamma_{k+3}) sum_i |h_i| w_i +
    gamma_{k+3} |beta|)``; where every pivot exceeds ``_PIVOT_FLOOR`` of its
    diagonal the factor 2 covers the higher orders.  ``U - lower`` is taken
    plus ``gamma_{k+3} (|U| + |lower|)`` for its own rounding, a window's
    half-width adds the computed centre's error ``gamma_{k+3} (|a_j| +
    w_j)``, and a factor ``1 + 1e-6`` covers the rest.
    """
    k, count = len(grids), grids[-1].size
    gram, pivots, upper, widths = geometry.gram, geometry.pivots, geometry.upper, geometry.widths
    projections = np.asarray(projections, dtype=np.float64)
    gamma = _gamma(k + 3)
    with np.errstate(all="ignore"):
        solved = projections.copy()
        for i in reversed(range(k)):
            for m in range(i + 1, k):
                solved[i] -= upper[i, m] * solved[m]
        centres = solved / pivots
        bound = -sum(solved * centres)
        slack = sum(np.abs(solved) * widths)
        slack *= 2.0 * (_gamma(k * (k + 1) // 2 + max(k, 2)) + gamma)
        slack += gamma * np.abs(bound)
        del solved
        lower = bound - (geometry.slack + 2.0 * slack)
        valid = geometry.valid & np.isfinite(lower)
        seed = int(np.where(valid, bound, np.inf).argmin())

        def leaves(rows, room):
            """Every leaf of ``rows`` in its windows, an infinite ``room`` sweeping whole: rows and grid indices."""
            indices, frontier = [], []
            for j, grid in enumerate(grids[:-1]):
                frontier.append(rows.size)
                a = centres[j, rows]
                centre = a - sum(upper[m, j, rows] * grids[m][indices[m]] for m in range(j))
                radius = np.sqrt(room / pivots[j, rows]) * (1.0 + 1e-6)
                radius += gamma * (np.abs(a) + widths[j, rows])
                lo = grid.searchsorted(centre - radius)
                hi = grid.searchsorted(centre + radius, side="right")
                sweep = room == np.inf
                lo[sweep], hi[sweep] = 0, grid.size
                counts = hi - lo
                parents = np.arange(rows.size).repeat(counts)
                columns = np.arange(parents.size) - (counts.cumsum() - counts - lo).repeat(counts)
                rows, room = rows[parents], room[parents]
                indices = [index[parents] for index in indices] + [columns]
            return rows, indices, frontier

        seeded = []  # the seed leaf's grid index on each axis but the last
        for j, grid in enumerate(grids[:-1]):
            centre = centres[j, seed] - sum(upper[m, j, seed] * grids[m][i] for m, i in enumerate(seeded))
            seeded.append(int(np.abs(grid - centre).argmin()))
        values = [grid[i] for grid, i in zip(grids, seeded)]
        seed_objective = _leaf_objective(gram, projections, seed, values, step, count)
        incumbent = float(seed_objective[0])
        keep = ~valid | (lower <= incumbent)
        keep[seed] = True
        rows = keep.nonzero()[0]
        room = incumbent - lower[rows] + gamma * (abs(incumbent) + np.abs(lower[rows]))
        room[~valid[rows]] = np.inf
        leaf_rows, indices, frontier = leaves(rows, room)
        if leaf_rows.size <= _SCALAR_LEAVES:
            objective, last, seed_leaf = [], [], (seed, *seeded)
            for leaf in zip(leaf_rows.tolist(), *(index.tolist() for index in indices)):
                if leaf == seed_leaf:
                    value, index = seed_objective
                else:
                    values = [grid[i] for grid, i in zip(grids, leaf[1:])]
                    value, index = _leaf_objective(gram, projections, leaf[0], values, step, count)
                objective.append(value)
                last.append(index)
            objective = np.array(objective)
        else:
            values = [grid[index] for grid, index in zip(grids, indices)]
            objective, last = _leaf_objective(gram, projections, leaf_rows, values, step, count)
        best = int(objective.argmin())
        row, steps = int(leaf_rows[best]), tuple(int(index[best]) for index in (*indices, last))
    if logger.isEnabledFor(logging.DEBUG):
        logger.debug(
            "grid search: %d configurations, %d kept after bounding (%d never pruned),"
            " frontier %s, %d leaves", valid.size, rows.size,
            np.count_nonzero(~geometry.valid), "/".join(map(str, frontier)), leaf_rows.size,
        )
    return row, steps


@dataclass(frozen=True)
class DecodeResult:
    """The nearest member, its index in net order, and its distance.

    ``coefficients`` holds the member's first ``d`` coefficients.
    ``measured`` is the member as the distance compared it with the target:
    its sketch ``R c``, from the operator's ``SketchedNet``.  ``coordinates`` is
    ``(breakpoints, values)``, what the class's ``member`` built it from.
    """

    member: object
    index: int
    distance: float
    coefficients: np.ndarray = field(compare=False)
    measured: np.ndarray = field(compare=False)
    coordinates: tuple = field(compare=False)


class SketchedNet(NamedTuple):
    """A net as one operator sees it: a decoder's search geometry and the sketch of its axis vectors under ``operator``."""

    operator: MeasurementOperator
    geometry: _Geometry
    sketch: object

    @property
    def n(self) -> int:
        return self.operator.n

    @property
    def d(self) -> int:
        return self.operator.d


class _GridDecoder:
    """The decode entry points both decoders share, for targets of length ``d``.

    A decoder is built from its net's ``plan`` and searches that net alone:
    ``configurations`` (each one's breakpoints) and the axis grids are the
    plan's, so center ``k`` is configuration ``k // A`` at the ``k % A``-th
    axis point in ``itertools.product`` order, ``A`` the product of the axis
    counts: ``enumerate_members``'s order.  ``prepare`` builds an operator's
    ``SketchedNet`` by ``_operator_terms``, the one reader of the frame, and
    keeps nothing; a decode works from that sketch alone, through
    ``_projections(sketch, y)`` and ``_measured(sketch, configuration,
    values)``, a center's ``R c``, and ``_center(configuration, values)``
    builds the winner by ``family.member``.
    """

    def __init__(self, plan: NetPlan, d: int, family) -> None:
        self.plan, self.d, self.family = plan, d, family
        self.configurations = tuple(plan.configurations())
        self._grids = [axis.points() for axis in plan.axes]
        self._step = plan.axes[-1].step
        self._configuration_index = {breakpoints: index for index, breakpoints in enumerate(self.configurations)}

    def prepare(self, operator) -> SketchedNet:
        """The net under ``operator``, built now; the caller keeps it for as long as it measures through ``operator``."""
        if operator.d != self.d:
            raise UsageError(f"decoder serves d = {self.d}, not an operator on d = {operator.d}")
        return SketchedNet(operator, *self._operator_terms(operator))

    def center_sketch(self, coordinates: tuple, sketched: SketchedNet) -> np.ndarray:
        """``R c`` for the center at ``(breakpoints, values)``, from ``sketched``'s sketch."""
        breakpoints, values = coordinates
        return self._measured(sketched.sketch, self._configuration_index[breakpoints], values)

    def _search(self, geometry: _Geometry, sketch, y: np.ndarray):
        return _nearest_on_grid(geometry, self._projections(sketch, y), self._grids, self._step)

    def decode_measurements(self, y: np.ndarray, sketched: SketchedNet) -> DecodeResult:
        """Nearest net member to measurements under ``sketched``'s operator (exactly)."""
        y = np.asarray(y, dtype=np.float64)
        if sketched.d != self.d:
            raise UsageError(f"decoder serves d = {self.d}, not a net sketched on d = {sketched.d}")
        if y.shape != (sketched.n,):
            raise UsageError(f"expected {sketched.n} measurements, got shape {y.shape}")
        configuration, steps = self._search(sketched.geometry, sketched.sketch, y)
        index = configuration
        for step, grid in zip(steps, self._grids):  # the axis points in itertools.product order
            index = index * grid.size + step
        values = tuple(float(grid[i]) for grid, i in zip(self._grids, steps))
        member, coefficients = self._center(configuration, values)
        # The distance comes from the residual, not from the objective (the
        # squared distance minus |y|^2), which cancels when it is small.
        measured = self._measured(sketched.sketch, configuration, values)
        distance = float(np.linalg.norm(y - measured))
        coordinates = (self.configurations[configuration], values)
        return DecodeResult(member, index, distance, coefficients, measured, coordinates)

    def decode_coefficients(self, target: np.ndarray) -> DecodeResult:
        """Nearest net member to ``d`` coefficients: the measurement decode under the identity.

        Only the tests and the bench name it.  Each call builds the identity's
        geometry, a ``C d k`` map product on a net of ``C`` configurations and
        ``k`` axes.  ROADMAP item 21 deletes it once the bench stops patching
        it.
        """
        target = np.asarray(target, dtype=np.float64)
        if target.shape != (self.d,):
            raise UsageError(f"expected {self.d} coefficients, got shape {target.shape}")
        identity = np.eye(self.d)
        identity.setflags(write=False)  # so the operator keeps it uncopied
        return self.decode_measurements(target, self.prepare(MeasurementOperator(identity)))


class FactoredStepDecoder(_GridDecoder):
    """Exact nearest-member search over a ``factored`` plan's single-jump step-function net.

    Members are ``c0`` on ``[-pi, b]`` and ``c1`` after the jump, ``b`` on
    the plan's breakpoint grid and the levels on its shared level grid.  A
    breakpoint is a configuration of two axes, the pre-jump indicator
    ``w(b)`` and the post-jump ``v - w(b)`` (``v`` the constant one): with
    ``g00 = |w|^2``, ``g0f = <w, v>`` and ``gff = |v|^2`` their Gram is
    ``g01 = g0f - g00`` and ``g11 = gff - 2 g0f + g00``.  The plan's
    ``positions`` are uniform at pitch ``2 pi / P``: every term is then a
    trigonometric polynomial in ``b``, and one real inverse FFT of length
    ``P`` evaluates it on all ``P`` breakpoints at once.  Its sketch keeps
    ``R w(b)`` whole: the Gram, the projections and ``R c`` each read it once.

    The decoder serves targets of length ``d`` for ``family``, whose
    ``member`` and ``coefficient_prefix`` build and expand the decoded
    center.  It builds its phases, the series' weights and the shifted
    positions at construction, read-only and shared.
    """

    def __init__(self, plan: NetPlan, d: int, family) -> None:
        if not plan.factored:
            raise UsageError("a factored step decoder needs a factored plan: one jump, one level grid")
        super().__init__(plan, d, family)
        self.positions = plan.positions
        degree, pairs = d // 2, (d - 1) // 2
        # exp(i f b_0) / 2 for every frequency a series reaches, K = d // 2.
        self._phases = 0.5 * np.exp(1j * np.arange(degree + 1) * self.positions[0])
        js = np.arange(1, degree + 1)
        weights = 1.0 / (js * math.sqrt(math.pi))
        # z_0's weights on the sine entries, and each z_j's factor -i / (j sqrt(pi)).
        self._alternating = np.where(js[:pairs] % 2 == 0, 1.0, -1.0) * weights[:pairs]
        self._factors = -1j * weights
        self._shift = self.positions + math.pi  # sqrt(2 pi) w_0(b) = <w(b), v>, any d
        for array in (self._phases, self._alternating, self._factors, self._shift):
            array.setflags(write=False)

    def _indicator_series(self, rows: np.ndarray, constants: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Series ``z_0 .. z_K`` of ``<row, w(b)> - row[0] (b+pi)/sqrt(2 pi)``, each row into its row of ``out``.

        ``w(b)``, the first ``d`` coefficients of the indicator of ``[-pi,
        b]``, has constant ``(b+pi)/sqrt(2 pi)``, cosine-``j`` ``sin(j
        b)/(j sqrt(pi))`` and sine-``j`` ``((-1)^j - cos(j b))/(j
        sqrt(pi))``.  So past the ``(b+pi)`` term a row's product with
        ``w(b)`` is ``Re sum_j z_j exp(i j b)``, of degree ``K = d // 2``:
        ``z_0 = sum_j (-1)^j s_j / (j sqrt(pi))`` and ``z_j = conj(c_j + i
        s_j) (-i) / (j sqrt(pi))`` for the row's cosine-``j`` and sine-``j``
        entries, read as complex pairs.  The weights are the decoder's, built
        at construction.  ``constants`` holds the rows' ``z_0``: the caller
        forms it for every row of the frame in one product, because numpy
        sums a one-row product in another order.  Each row is written in
        place by one-dimensional calls: numpy buffers a broadcast or strided
        two-dimensional operand.
        """
        d = rows.shape[-1]
        degree, pairs = d // 2, (d - 1) // 2
        out[:, 0] = constants
        factors = self._factors[:pairs]
        for row, series in zip(rows, out):
            part = np.conjugate(row[1 : 1 + 2 * pairs].view(np.complex128), out=series[1 : pairs + 1])
            np.multiply(part, factors, out=part)
        if d % 2 == 0:
            out[:, degree] = self._factors[-1] * rows[:, d - 1]
        return out

    def _on_breakpoints(self, series: np.ndarray, out=None) -> np.ndarray:
        """``Re sum_f series_f exp(i f b)`` at every breakpoint ``b``, into ``out`` when given.

        ``series`` is a complex array of rows, which the call overwrites.
        With ``b_p = b_0 + 2 pi p / P`` and ``u_f = series_f exp(i f b_0)``,
        formed in place, and folded a whole turn at a time, ``U_k = sum_{f =
        k mod P} u_f``, the sum is the length-``P`` inverse DFT of the
        Hermitian ``H_k = (U_k + conj(U_{P-k})) / 2``: one real inverse FFT
        of its half ``k = 0 .. P // 2``.  A row's first ``P // 2 + 1`` terms
        are the first turn's head, so the row holds its own half: each tail,
        conjugated and reversed, and each later turn's head ``f <= P // 2``
        are added there, by one-dimensional calls.  A series shorter than
        the half is zero-padded to it first; no tail reaches it.
        ``position_grid`` makes ``P`` free of large primes; any other ``P``
        is as exact, only slower.
        """
        count, width = self.positions.size, series.shape[-1]
        bins = count // 2 + 1
        folds = []  # (terms, their bins, conjugated and reversed), besides the first head
        for start in range(0, width, count):
            if start:
                head = min(bins, width - start)
                folds.append((slice(start, start + head), slice(0, head), False))
            tail = min(count, width - start) - (count - count // 2)
            if tail > 0:  # else the series ends before this turn's tail
                first = start + count - count // 2
                folds.append((slice(first, first + tail), slice(bins - tail, bins), True))
        if width < bins:
            padded = np.zeros((*series.shape[:-1], bins), dtype=np.complex128)
            padded[..., :width] = series
            series = padded
        phases = self._phases[:width]
        for values in series.reshape(-1, series.shape[-1]):
            np.multiply(values[:width], phases, out=values[:width])
            half = values[:bins]
            np.add(half, 0.0, out=half)  # 0 + u, as a zeroed spectrum would sum it: -0 becomes +0
            for terms, target, reversed_ in folds:
                part = values[terms]
                if reversed_:
                    part = np.conjugate(part)[::-1]
                np.add(values[target], part, out=values[target])
        spectrum = series[..., :bins]
        first = spectrum[..., 0]
        np.add(first, np.conjugate(first), out=first)  # no tail reaches bin 0
        return np.fft.irfft(spectrum, n=count, axis=-1, norm="forward", out=out)

    def _operator_terms(self, operator) -> tuple[_Geometry, tuple]:
        """The search geometry under ``operator``, and the sketch ``(table, Rv)``.

        The sketch is ``R`` applied to the axis vectors: ``table[:, p] = R
        w(b_p)`` and ``Rv = sqrt(2 pi) R[:, 0]``, the constant one's image.
        ``R w(b)`` is ``(b+pi) R[:, 0] / sqrt(2 pi)`` plus the periodic part
        of ``_indicator_series``, which ``_on_breakpoints`` evaluates
        ``_TERMS_BLOCK_ROWS`` rows at a time on the ``P`` breakpoints, straight
        into their slice of the table; the linear part is added a row at a
        time.  The build's scratch, which the DEBUG line reports, is a block's
        series, ``16 B (K + 1)`` bytes for ``B`` rows, multiplied by the
        phases and folded into its own head (with a zero-padded copy of ``16
        B (P // 2 + 1)`` bytes when ``K < P // 2``), and one row's linear
        part, ``8 P`` bytes; the series goes before the geometry is built.
        Then ``g00`` is the table's column square-sum and ``g0f = <R w(b),
        Rv>`` one product.  The rows are read from ``R`` as it is stored: no
        frame-sized copy.
        """
        started = time.perf_counter()
        frame = operator.frame
        n, d = frame.shape
        count = self.positions.size
        table = np.empty((n, count))
        block = min(n, _TERMS_BLOCK_ROWS)
        constants = frame[:, 2::2] @ self._alternating  # every row's z_0
        series = np.empty((block, self._phases.size), dtype=np.complex128)
        for start in range(0, n, block):
            rows, stop = frame[start : start + block], min(n, start + block)
            out = table[start:stop]
            self._on_breakpoints(self._indicator_series(rows, constants[start:stop], series[: stop - start]), out)
            for values, level in zip(out, rows[:, 0] / _SQRT_2PI):
                values += level * self._shift  # (b+pi) R[row, 0] / sqrt(2 pi), the linear part
        width, bins = self._phases.size, count // 2 + 1
        scratch = 16 * block * (width + (bins if width < bins else 0)) + 8 * count
        del series
        v_full = _SQRT_2PI * frame[:, 0]
        g00, g0f = np.einsum("ij,ij->j", table, table), v_full @ table
        logger.debug(
            "factored decoder terms: P=%d d=%d n=%d block=%d rows, scratch %d bytes, sketch %d bytes,"
            " built in %.3fs",
            count, d, n, block, scratch, table.nbytes, time.perf_counter() - started,
        )
        g01 = g0f - g00
        gram = [[g00, g01], [g01, float(np.dot(v_full, v_full)) - 2.0 * g0f + g00]]
        for array in (table, v_full):
            array.setflags(write=False)
        return _grid_geometry(gram, self._grids), (table, v_full)

    def _projections(self, sketch: tuple, y: np.ndarray) -> np.ndarray:
        table, v_full = sketch
        projections = np.empty((2, table.shape[1]))
        q0 = np.matmul(y, table, out=projections[0])
        np.subtract(np.dot(v_full, y), q0, out=projections[1])  # <R v, y> for the constant one v
        return projections

    def _measured(self, sketch: tuple, configuration: int, values: tuple) -> np.ndarray:
        (table, v_full), (c0, c1) = sketch, values
        return (c0 - c1) * table[:, configuration] + c1 * v_full

    def _center(self, configuration: int, values: tuple):
        member = self.family.member(self.configurations[configuration], values)
        return member, self.family.coefficient_prefix(member, self.d)


class ConfigurationDecoder(_GridDecoder):
    """Exact nearest-member search over any plan's net, by one map per configuration.

    ``maps[c]`` (read-only) takes configuration ``c``'s ``k`` axis values to
    a center's first ``d`` coefficients.  At a fixed configuration a center's
    coefficients are linear in its axis values, so column ``j`` of the map is
    ``coefficient_prefix(member(breakpoints, e_j), d)``: ``k`` expansions per
    configuration, built at construction, and no center's.  Its sketch under
    an operator is ``R @ maps``, whose transpose times ``y`` gives the projections.
    The center is built by ``family.member``, its coefficients by its map.
    """

    def __init__(self, plan: NetPlan, d: int, family) -> None:
        super().__init__(plan, d, family)
        started = time.perf_counter()
        units = np.eye(len(plan.axes))
        self.maps = np.empty((len(self.configurations), d, len(plan.axes)))
        for block, breakpoints in zip(self.maps, self.configurations):
            for column, e in zip(block.T, units):
                column[:] = family.coefficient_prefix(family.member(breakpoints, e), d)
        self.maps.flags.writeable = False
        logger.debug(
            "configuration decoder maps: M=%d d=%d configurations=%d axes=%d bytes=%d"
            " built in %.3fs", plan.size, d, len(self.configurations), len(plan.axes),
            self.maps.nbytes, time.perf_counter() - started,
        )

    def _operator_terms(self, operator) -> tuple[_Geometry, np.ndarray]:
        """The projected maps ``R @ maps``, the sketch, and their Grams' factor, kept read-only and shared."""
        sketch = np.matmul(operator.frame, self.maps)
        sketch.setflags(write=False)
        gram = np.ascontiguousarray(np.matmul(sketch.transpose(0, 2, 1), sketch).transpose(1, 2, 0))
        logger.debug("configuration decoder terms: C=%d n=%d axes=%d, sketch %d bytes", *sketch.shape, sketch.nbytes)
        return _grid_geometry(gram, self._grids), sketch

    def _projections(self, sketch: np.ndarray, y: np.ndarray):
        return np.ascontiguousarray(np.matmul(y, sketch).T)

    def _measured(self, sketch: np.ndarray, configuration: int, values: tuple) -> np.ndarray:
        return sketch[configuration] @ np.array(values)

    def _center(self, configuration: int, values: tuple):
        member = self.family.member(self.configurations[configuration], values)
        return member, self.maps[configuration] @ np.array(values)


@dataclass(frozen=True)
class CoveringNet:
    """A net's layout; its counts and ``mode`` are the plan's, and ``decoder``, when built for a ``d``, decodes it."""

    family: object
    plan: NetPlan
    decoder: FactoredStepDecoder | ConfigurationDecoder | None = field(default=None)
    m_max: int | float = DEFAULT_NET_BUDGET

    @property
    def mode(self) -> str:
        return "factored" if self.plan.factored else "configurations"

    @property
    def size(self) -> int:
        return self.plan.size

    @property
    def entropy_bits(self) -> float:
        return self.plan.entropy_bits


# ---------------------------------------------------------------------------
# Construction plans: what every class builds its net from
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NetPlan:
    """A class's net at resolution ``eps1``, before any member exists.

    The net is every choice of one of ``config_count`` breakpoint
    configurations (``jumps`` of the ``breakpoint_count`` grid points,
    consecutive indices at least ``index_gap`` apart) times one point on
    each axis.  The grid, ``positions``, is built on first use only;
    ``snap`` takes a member's breakpoints to a configuration.
    ``factored``: one jump and two axes on one level grid, which
    ``FactoredStepDecoder`` searches at any size without enumerating the net.
    """

    eps1: float
    axes: tuple[AxisLog, ...]
    breakpoint_count: int = 0
    index_gap: int = 1
    jumps: int = 0
    factored: bool = False

    @property
    def config_count(self) -> int:
        """The number of breakpoint configurations."""
        return gap_separated_count(self.breakpoint_count, self.jumps, self.index_gap)

    @property
    def size(self) -> int:
        """The number of centers ``M``, exactly."""
        return self.config_count * math.prod(axis.count for axis in self.axes)

    @property
    def entropy_bits(self) -> float:
        """``log2 M``, summed per factor so it stays finite for any ``M``."""
        return math.log2(self.config_count) + float(
            sum(math.log2(axis.count) for axis in self.axes)
        )

    @functools.cached_property
    def positions(self) -> np.ndarray:
        """The grid at pitch ``2 pi / P``, from half a pitch in: every point inside (-pi, pi)."""
        count = self.breakpoint_count
        effective = TWO_PI / max(count, 1)
        return -math.pi + effective * (np.arange(count) + 0.5)

    def configurations(self) -> Iterator[tuple[float, ...]]:
        """Every configuration's breakpoints, in index order."""
        positions = self.positions
        for combo in iter_gap_tuples(positions.size, self.jumps, self.index_gap):
            yield tuple(float(positions[i]) for i in combo)

    def snap(self, breakpoints: Sequence[float]) -> tuple[int, ...]:
        """The configuration, by grid index, that increasing ``breakpoints`` snap to.

        Breakpoint ``t`` takes its cell ``[-pi + p 2 pi / P, -pi + (p + 1) 2
        pi / P)``, clamped to the grid, or ``index_gap`` past breakpoint ``t -
        1``'s index if that is later; missing ones follow the last,
        ``index_gap`` apart; then index ``t`` is capped at ``P - 1 - (jumps -
        1 - t) index_gap``.  Each pass keeps the gaps, and breakpoint ``t``
        lands at most ``max(t, jumps - 1 - t)`` gaps from its cell: at
        ``index_gap`` 1, within ``jumps - 1/2`` cells of where it was.
        """
        count, gap, jumps = self.breakpoint_count, self.index_gap, self.jumps
        indices = []
        for b in breakpoints:
            cell = max(0, min(count - 1, int(math.floor((b + math.pi) / (TWO_PI / count)))))
            indices.append(max(cell, indices[-1] + gap) if indices else cell)
        while len(indices) < jumps:
            indices.append(indices[-1] + gap if indices else 0)
        return tuple(min(index, count - 1 - (jumps - 1 - t) * gap) for t, index in enumerate(indices))


def enumerate_members(family, plan: NetPlan) -> Iterator:
    """Every center of ``plan``'s net in the decoders' index order: configurations, then axis points."""
    grids = [axis.points() for axis in plan.axes]
    for breakpoints in plan.configurations():
        for values in itertools.product(*grids):
            yield family.member(breakpoints, values)


def round_coordinates(family, plan: NetPlan, member) -> tuple[tuple, tuple]:
    """``(breakpoints, values)`` of the center of ``plan``'s net that witnesses the covering of ``member``.

    ``plan.snap`` picks the grid points of ``family.breakpoints(member)`` by
    index, and ``family.coordinates`` gives its unsnapped value on each axis, which is
    snapped onto that axis.  The result compares equal to a decode's
    ``coordinates`` exactly when the decoded center is this one.
    """
    breakpoints = tuple(float(plan.positions[i]) for i in plan.snap(family.breakpoints(member)))
    coordinates = family.coordinates(plan, member, breakpoints)
    values = tuple(axis.snap(float(value)) for axis, value in zip(plan.axes, coordinates, strict=True))
    return breakpoints, values


def _smooth_length(minimum: int) -> int:
    """The smallest ``2^a 3^b 5^c`` at least ``minimum``: ``position_grid``'s ``P``, an FFT length without large primes."""
    best = 1 << (minimum - 1).bit_length()
    odd5 = 1
    while odd5 < best:
        odd = odd5
        while odd < best:
            # The smallest power of two times ``odd`` that reaches ``minimum``.
            best = min(best, odd << (-(-minimum // odd) - 1).bit_length())
            odd *= 3
        odd5 *= 5
    return best


def position_grid(pitch: float) -> tuple[int, float]:
    """Breakpoint count ``P`` and actual pitch ``2 pi / P``, no coarser than ``pitch``.

    ``P`` is the smallest ``2^a 3^b 5^c`` at least ``ceil(2 pi / pitch)``, so
    the step decoder's length-``P`` FFT has no large prime factor; the
    rounding adds at most ``log2(15/13) < 0.21`` bits per jump to
    ``entropy_bits`` (``P`` 13 to 15 is the worst ratio).

    Error model.  The grid (``NetPlan.positions``) puts a point at the centre
    of each of ``P`` cells, so a breakpoint snapped to its cell's point moves
    at most half the actual pitch.  Two members that differ only there
    differ on a region of that measure per breakpoint, by at most ``h``, the
    largest difference of the two pieces that meet there.  Such regions are
    disjoint, so ``s`` breakpoints add at most ``s (pi / P) h^2`` to the
    squared distance: ``pitch = 2 e^2 / (s h^2)`` keeps that within ``e^2``.
    """
    count = _smooth_length(int(math.ceil(TWO_PI / pitch)))
    return count, TWO_PI / count


def gap_separated_count(total: int, choose: int, gap: int) -> int:
    """Sorted index tuples from ``range(total)`` with consecutive gaps >= gap."""
    return math.comb(total - (choose - 1) * (gap - 1), choose) if choose >= 1 else 1


def iter_gap_tuples(total: int, choose: int, gap: int) -> Iterator[tuple[int, ...]]:
    """Those tuples, in order: entry ``i`` of a shorter range's combination moves up ``i * (gap - 1)``."""
    for combo in itertools.combinations(range(total - (choose - 1) * (gap - 1)), choose):
        yield tuple(index + i * (gap - 1) for i, index in enumerate(combo))


# ---------------------------------------------------------------------------
# Building
# ---------------------------------------------------------------------------


def build_net(
    family,
    eps1: float,
    m_max: int | float = DEFAULT_NET_BUDGET,
    d: int | None = None,
) -> CoveringNet:
    """Lay out and count a covering net at resolution ``eps1``; build no member.

    The plan alone picks the decoder, ``factored`` or ``configurations``.
    Given ``d``, the net carries it for targets of length ``d``, but maps for
    more than ``m_max`` centers are refused; without ``d``, nothing past the
    counts is built.
    """
    if not eps1 > 0.0:
        raise UsageError(f"net resolution must be positive, got {eps1!r}")
    plan = family.net_plan(eps1)
    decoder = None
    if d is not None:
        if not plan.factored and plan.size > m_max:
            raise NetTooLargeError(f"net with {plan.size} centers is over m_max = {m_max}: no maps are built")
        decoder = (FactoredStepDecoder if plan.factored else ConfigurationDecoder)(plan, d, family)
    return CoveringNet(family, plan, decoder, m_max)


# ---------------------------------------------------------------------------
# Serialization (nets of at most m_max centers)
# ---------------------------------------------------------------------------


def _refuse_to_write(net: CoveringNet, ambient_dim: int) -> None:
    if net.size > net.m_max:
        raise NetTooLargeError(f"net with {net.size} centers is over m_max = {net.m_max}: not written")
    if ambient_dim < 1:
        raise UsageError(f"ambient_dim must be positive, got {ambient_dim!r}: not written")


def dump_net(stream: IO[str], net: CoveringNet, ambient_dim: int) -> None:
    _refuse_to_write(net, ambient_dim)
    spec = net.family.spec_string()
    stream.write(f"eps1={net.plan.eps1:.17g} M={net.size} spec={spec}\n")
    for index, member in enumerate(enumerate_members(net.family, net.plan)):
        if index:
            stream.write("---\n")
        dump_signal(stream, net.family.to_signal(member, ambient_dim))


def write_net(path, net: CoveringNet, ambient_dim: int) -> None:
    _refuse_to_write(net, ambient_dim)  # before opening, so a refused net leaves the file as it was
    with open(path, "w", encoding="utf-8") as stream:
        dump_net(stream, net, ambient_dim)
