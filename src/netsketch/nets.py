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

One decoder, ``FactoredStepDecoder``, serves every class.  The plan states
the axes' vectors in two fields, ``degree`` (the piece degree, ``None`` for
no pieces) and ``coefficients`` (the coefficient axes' basis indices), and
``build_net``, given the truncation dimension ``d``, builds the decoder
from it for at most ``m_max`` centers, or for the one-jump step net (``mode``
``factored``; every other net is ``configurations``) at any size.  By the
jump relations each axis's sketch under an operator is a mix of shared
columns, one table per monomial order on the breakpoint grid and a few
constants, and each configuration's Gram the same mix of their products.
A decoder serves one ``d`` and changes nothing after construction;
``prepare`` builds the net as one operator sees it, a ``SketchedNet``, which
the operator's owner keeps, and a decode runs one exact closest-point
search on it, ``_nearest_on_grid``.  Ties go to the lowest member index,
except that the last axis takes the rounding of its continuous optimum,
half-way up.

Grids are "round-image": a symmetric grid with ``2*floor(bound/step + 1/2)+1``
points always contains the rounding of any in-bound value, so per-coordinate
rounding error never exceeds half a step even at the boundary.  Breakpoint
grids are uniform with ``2^a 3^b 5^c`` points (``position_grid``), so the
decoder's length-``P`` FFTs have no large prime factor; ``NetPlan.snap``
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
from dataclasses import dataclass, field, replace
from typing import IO, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import NetTooLargeError, UsageError
from .hilbert import TWO_PI, _SQRT_2PI, dump_signal
from .jl import MeasurementOperator

__all__ = [
    "AxisLog",
    "CoveringNet",
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

# Operator rows per block of the decoder's per-breakpoint tables.
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


def _axis_terms(plan: NetPlan, slots: np.ndarray) -> list[list[tuple[tuple[int, int], object]]]:
    """Each axis's ``(column, weight)`` terms, columns descending (``FactoredStepDecoder``).

    Column ``(t, r)`` is order ``r``'s table at breakpoint ``t < s``; ``(s,
    0)`` is ``V``, ``(s, 1 + r)`` ``T_r(pi)``, then one per coefficient axis.
    A weight is a number or one per configuration (``slots``).  Monomial
    ``u^j`` takes ``(-1)^r D_r = (-1)^r j! / (j-r)! x^(j-r)`` at its piece's
    end, ``x = beta``, and minus that at its start, ``x = alpha``.  For ``j
    >= 1`` the anchor of ``W`` adds ``(beta^j - alpha^j) T_0(pi)`` and, with
    the integral's term, ``-(j (beta^(j+1) - alpha^(j+1)) / (j + 1) + (m +
    pi) (beta^j - alpha^j)) V / (2 pi)``, ``m`` the midpoint.
    """
    s, degree, terms = plan.jumps, plan.degree, []
    orders = 0 if degree is None else degree + 1
    if degree is not None:
        ends = [np.full(len(slots), -math.pi), *(plan.positions[slots[:, t]] for t in range(s))]
        ends.append(np.full(len(slots), math.pi))
        for k in range(s + 1):
            mid = 0.5 * (ends[k] + ends[k + 1])
            alpha, beta = ends[k] - mid, ends[k + 1] - mid
            for j in range(orders):
                parts = []
                for r in range(j + 1):
                    scale = (-1) ** r * math.factorial(j) / math.factorial(j - r)
                    for edge, x, sign in ((k + 1, beta, 1.0), (k, alpha, -1.0)):
                        if 0 < edge <= s:
                            column = (edge - 1, r)
                        elif r or edge:  # T_r(pi) at either end, and W(pi) = V; W(-pi) = 0
                            column = (s, 1 + r) if r else (s, 0)
                        else:
                            continue
                        parts.append((column, sign * scale * (x ** (j - r) if j > r else 1.0)))
                if j:  # the anchor of W
                    rise = beta**j - alpha**j
                    area = j * (beta ** (j + 1) - alpha ** (j + 1)) / (j + 1) + (mid + math.pi) * rise
                    parts += [((s, 1), rise), ((s, 0), -area / TWO_PI)]
                axis: dict[tuple[int, int], object] = {}
                for column, weight in parts:
                    axis[column] = axis[column] + weight if column in axis else weight
                terms.append(sorted(axis.items(), key=lambda term: term[0], reverse=True))
    first = 0 if degree is None else 1 + orders
    return terms + [[((s, first + i), 1.0)] for i in range(len(plan.coefficients))]


class FactoredStepDecoder:
    """Exact nearest-member search over any plan's net, from shared per-breakpoint tables.

    The one decoder, named for the step net it first served, for targets of
    length ``d``: center ``k`` is configuration ``k // A`` at the ``k %
    A``-th of its ``A`` axis points in ``itertools.product`` order, as
    ``enumerate_members`` lists them, built by ``family.member``.

    Axis sketches.  An axis vector is a piece monomial ``u^j`` (``u`` the
    offset from the piece's midpoint, ``j <= plan.degree``) or a basis vector
    ``e_i`` (``i`` in ``plan.coefficients``).  By the jump relations
    (``hilbert.analyze_piecewise``) ``R`` takes a piece monomial to ``sum_t
    sum_r (-1)^r D_r(t) T_r(t) + R[:, 0] int / sqrt(2 pi)`` over its ends
    ``t`` (``-pi`` read as ``pi``), ``D_r(t)`` the drop of its ``r``-th
    derivative there, ``T_r(b) = Re sum_j Z_j exp(i j b) / (i j)^(r+1)`` and
    ``Z_j = (R[:, 2j-1] - i R[:, 2j]) / sqrt(pi)``.  Order 0 is anchored:
    ``W(b) = T_0(b) - T_0(pi) + R[:, 0] (b + pi) / sqrt(2 pi)`` is ``R`` times
    the indicator of ``[-pi, b]``, with ``W(-pi) = 0`` and ``W(pi) = V =
    sqrt(2 pi) R[:, 0]``, so a level is ``W(end) - W(start)``.  An
    operator's sketch is the shared columns: one ``n x P`` table per order on
    the breakpoint grid (``W``, then ``T_1 .. T_degree``), and ``V``,
    ``T_r(pi)`` and ``R e_i``; ``_axis_terms`` weighs them per axis.

    Grams.  A configuration's Gram is its weights' mix of the columns'
    products, ``G_ab = sum_{i <= j} c_ij K_ij`` from the highest pair down:
    a square-sum per pair of orders at one breakpoint, a ``P x P`` product
    per pair at two, a product with each constant; no configuration gets a
    vector.  The step net's Gram is ``|W|^2``, ``<W, V> - |W|^2`` and ``|V|^2
    - 2 <W, V> + |W|^2``.  What construction builds is shared and never
    written; ``_operator_terms`` alone reads the frame, and a decode the sketch.
    """

    def __init__(self, plan: NetPlan, d: int, family) -> None:
        self.plan, self.d, self.family = plan, d, family
        self.positions = plan.positions
        combos = list(iter_gap_tuples(plan.breakpoint_count, plan.jumps, plan.index_gap))
        self._slots = np.array(combos, dtype=np.intp).reshape(len(combos), plan.jumps)
        # Slot t's breakpoint index per configuration; with one jump, every breakpoint in order.
        self._at = [slice(None) if plan.jumps == 1 else self._slots[:, t] for t in range(plan.jumps)]
        self.configurations = tuple(plan.configurations())
        self._configuration_index = {breakpoints: index for index, breakpoints in enumerate(self.configurations)}
        self._grids = [axis.points() for axis in plan.axes]
        self._terms, columns = _axis_terms(plan, self._slots), {}
        for a, terms in enumerate(self._terms):
            for column, weight in terms:
                columns.setdefault(column, []).append((a, weight))
        self._columns = sorted(columns.items())  # each column's axes and weights, for a center's sketch
        orders, degree, pairs = 0 if plan.degree is None else plan.degree + 1, d // 2, (d - 1) // 2
        # exp(i f b_0) / 2 for every frequency a series reaches, K = d // 2.
        self._phases = 0.5 * np.exp(1j * np.arange(degree + 1) * (self.positions[0] if plan.jumps else 0.0))
        js = np.arange(1, degree + 1)
        # Order r's factors 1 / ((i j)^(r+1) sqrt(pi)), and T_r(pi)'s weights, (-1)^j times them:
        # on the sine entries for even r, on the cosine entries for odd r.
        factors = -1j / (js * math.sqrt(math.pi))
        self._factors = np.array([factors * (-1j / js) ** r if r else factors for r in range(orders)])
        signed = np.where(js % 2 == 0, 1.0, -1.0) * self._factors.reshape(orders, degree)
        self._at_pi = [(2 - r % 2, (g.real if r % 2 else g.imag[:pairs]).copy()) for r, g in enumerate(signed)]
        self._shift = self.positions + math.pi  # sqrt(2 pi) w_0(b) = <w(b), v>, any d
        for array in (self._slots, self._phases, self._factors, self._shift, *(w for _, w in self._at_pi)):
            array.setflags(write=False)

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
        return _nearest_on_grid(geometry, self._projections(sketch, y), self._grids, self.plan.axes[-1].step)

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
        member = self.family.member(self.configurations[configuration], values)
        coefficients = self.family.coefficient_prefix(member, self.d)
        # The distance comes from the residual, not from the objective (the
        # squared distance minus |y|^2), which cancels when it is small.
        measured = self._measured(sketched.sketch, configuration, values)
        distance = float(np.linalg.norm(y - measured))
        coordinates = (self.configurations[configuration], values)
        return DecodeResult(member, index, distance, coefficients, measured, coordinates)

    def decode_coefficients(self, target: np.ndarray) -> DecodeResult:
        """Nearest net member to ``d`` coefficients, under the identity: for the tests and the bench (item 21)."""
        target = np.asarray(target, dtype=np.float64)
        if target.shape != (self.d,):
            raise UsageError(f"expected {self.d} coefficients, got shape {target.shape}")
        identity = np.eye(self.d)
        identity.setflags(write=False)  # so the operator keeps it uncopied
        return self.decode_measurements(target, self.prepare(MeasurementOperator(identity)))

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
        """The search geometry under ``operator``, and the sketch ``(tables, constants)``.

        ``tables[r][:, p]`` is ``W(b_p)`` for order ``r = 0`` and ``T_r(b_p)``
        after; ``constants`` holds ``V``, the ``T_r(pi)`` and the ``R e_i``.
        A row's order-``r`` series is ``z_j = conj(c_j + i s_j) factors_j =
        Z_j / (i j)^(r+1)`` over its cosine-``j`` and sine-``j`` entries, read
        as complex pairs, and ``z_0``: ``-T_0(pi)`` for ``W``, formed for every
        row in one product (numpy sums a one-row product in another order),
        0 for ``T_r``.  ``_on_breakpoints`` evaluates it ``_TERMS_BLOCK_ROWS``
        rows at a time into their slice of the table, and ``W``'s linear part,
        ``(b+pi) R[:, 0] / sqrt(2 pi)``, is added a row at a time.  Each row is
        written by one-dimensional calls: numpy buffers a broadcast or
        strided two-dimensional operand.
        The scratch, which the DEBUG line reports, is a block's series, ``16
        B (K + 1)`` bytes for ``B`` rows (with a zero-padded copy of ``16 B
        (P // 2 + 1)`` when ``K < P // 2``), and one row's linear part, ``8
        P``; it goes before the Gram is built.  No frame-sized copy is made.
        """
        started = time.perf_counter()
        frame = operator.frame
        n, d = frame.shape
        count, plan, pairs = self.positions.size, self.plan, (d - 1) // 2
        at_pi = [frame[:, start::2] @ weights for start, weights in self._at_pi]
        tables = np.empty((len(at_pi) if plan.jumps else 0, n, count))
        block, scratch = min(n, _TERMS_BLOCK_ROWS), 0
        if len(tables):
            z0s = -at_pi[0]  # every row's z_0 for W
            series = np.empty((block, self._phases.size), dtype=np.complex128)
            for order, (table, factors) in enumerate(zip(tables, self._factors)):
                for start in range(0, n, block):
                    rows, stop = frame[start : start + block], min(n, start + block)
                    out, part = table[start:stop], series[: stop - start]
                    part[:, 0] = 0.0 if order else z0s[start:stop]
                    for row, values in zip(rows, part):
                        pair = np.conjugate(row[1 : 1 + 2 * pairs].view(np.complex128), out=values[1 : pairs + 1])
                        np.multiply(pair, factors[:pairs], out=pair)
                    if d % 2 == 0:
                        part[:, d // 2] = factors[-1] * rows[:, d - 1]
                    self._on_breakpoints(part, out)
                    for values, level in zip(out, rows[:, 0] / _SQRT_2PI if order == 0 else ()):
                        values += level * self._shift  # (b+pi) R[row, 0] / sqrt(2 pi), the linear part
            width, bins = self._phases.size, count // 2 + 1
            scratch = 16 * block * (width + (bins if width < bins else 0)) + 8 * count
            del series, part, pair, values  # the views too, so the series' buffer goes
        columns = [] if plan.degree is None else [_SQRT_2PI * frame[:, 0], *at_pi]
        columns += [frame[:, i] if i < d else np.zeros(n) for i in plan.coefficients]
        constants = np.array(columns).reshape(len(columns), n)
        for array in (tables, constants):
            array.setflags(write=False)
        logger.debug(
            "decoder terms: P=%d d=%d n=%d orders=%d block=%d rows, scratch %d bytes, sketch %d bytes,"
            " built in %.3fs",
            count, d, n, len(tables), block, scratch, tables.nbytes + constants.nbytes, time.perf_counter() - started,
        )
        return _grid_geometry(self._gram(tables, constants), self._grids), (tables, constants)

    def _gram(self, tables: np.ndarray, constants: np.ndarray) -> np.ndarray:
        """Every configuration's Gram, ``(k, k, C)``: ``sum_{i <= j} c_ij K_ij`` from the highest pair down."""
        s, slots, products = self.plan.jumps, self._slots, {}

        def product(left, right):
            """``K_ij`` for columns ``left <= right``: one per configuration, or one number."""
            (t, r), (u, q) = left, right
            if t == s:
                return float(np.dot(constants[r], constants[q]))
            key = (u == s, t == u, r, q)
            if key not in products:
                if u == s:
                    products[key] = constants[q] @ tables[r]
                else:
                    products[key] = np.einsum("ij,ij->j", tables[r], tables[q]) if t == u else tables[r].T @ tables[q]
            return products[key][self._at[t]] if u == s or t == u else products[key][slots[:, t], slots[:, u]]

        k = len(self._terms)
        gram = np.empty((k, k, len(slots)))
        for a, b in itertools.combinations_with_replacement(range(k), 2):
            mix: dict = {}
            for i, left in self._terms[a]:
                for j, right in self._terms[b]:
                    key = min(i, j), max(i, j)
                    mix[key] = mix[key] + left * right if key in mix else left * right
            total = None
            for key in sorted(mix, reverse=True):
                term = mix[key] * product(*key)
                total = term if total is None else total + term
            gram[a, b] = gram[b, a] = total
        return gram

    def _projections(self, sketch: tuple, y: np.ndarray) -> np.ndarray:
        """``q_a = sum_i w_ia <column_i, y>`` for every configuration, columns from the highest down."""
        (tables, constants), s, read = sketch, self.plan.jumps, {}
        per_order = [np.matmul(y, table) for table in tables]
        projections = np.empty((len(self._terms), len(self._slots)))
        for row, terms in zip(projections, self._terms):
            for count, ((t, r), weight) in enumerate(terms):
                if (t, r) not in read:
                    read[t, r] = per_order[r][self._at[t]] if t < s else np.dot(constants[r], y)
                if count:
                    row += weight * read[t, r]
                else:
                    np.multiply(weight, read[t, r], out=row)
        return projections

    def _measured(self, sketch: tuple, configuration: int, values: tuple) -> np.ndarray:
        """``R c`` at one configuration: each column once, at its mixed weight, columns ascending."""
        (tables, constants), s, measured = sketch, self.plan.jumps, None
        for (t, r), weights in self._columns:
            mixed = sum((w if isinstance(w, float) else w[configuration]) * values[a] for a, w in weights)
            term = mixed * (tables[r][:, self._slots[configuration, t]] if t < s else constants[r])
            measured = term if measured is None else measured + term
        return measured


@dataclass(frozen=True)
class CoveringNet:
    """A net's layout; its counts and ``mode`` are the plan's, and ``decoder``, when built for a ``d``, decodes it."""

    family: object
    plan: NetPlan
    decoder: FactoredStepDecoder | None = field(default=None)
    m_max: int | float = DEFAULT_NET_BUDGET

    @property
    def mode(self) -> str:
        """``factored`` for the one-jump step net, which ``m_max`` does not bound; ``configurations`` otherwise."""
        plan = self.plan
        return "factored" if (plan.degree, plan.jumps, plan.coefficients) == (0, 1, ()) else "configurations"

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
    ``snap`` takes a member's breakpoints to a configuration.  The axes'
    vectors, which the decoder sketches, are the class's layout, not an
    option: ``degree + 1`` monomials per piece, ``None`` for no pieces,
    then one basis vector per index in ``coefficients``.
    """

    eps1: float
    axes: tuple[AxisLog, ...]
    breakpoint_count: int = 0
    index_gap: int = 1
    jumps: int = 0
    degree: int | None = None
    coefficients: tuple[int, ...] = ()

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
    the decoder's length-``P`` FFTs have no large prime factor; the
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

    Given ``d``, the net carries its decoder for targets of length ``d``,
    but a net of more than ``m_max`` centers is refused one, unless it is
    the ``factored`` step net; without ``d``, nothing past the counts is
    built.
    """
    if not eps1 > 0.0:
        raise UsageError(f"net resolution must be positive, got {eps1!r}")
    net = CoveringNet(family, family.net_plan(eps1), None, m_max)
    if d is None:
        return net
    if net.mode != "factored" and net.size > m_max:
        raise NetTooLargeError(f"net with {net.size} centers is over m_max = {m_max}: no decoder is built")
    return replace(net, decoder=FactoredStepDecoder(net.plan, d, family))


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
