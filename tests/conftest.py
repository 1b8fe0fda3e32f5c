"""Shared test helpers: independent quadrature oracles for trig-basis analysis.

One oracle computes basis coefficients of a piecewise polynomial with
``scipy.integrate.quad`` using its oscillatory-weight rules; another computes
L2 distances between class members by composite Simpson over point values;
a third computes squared L2 distances of piecewise polynomials exactly, in
``fractions.Fraction`` arithmetic.  None of them shares code with the closed
forms in the package.  A fourth computes the coefficients in closed form by a
recursion in the monomial degree, piece by piece, which shares only the
constant coefficient's expression with the package's jump relations.
``synthesize`` evaluates a coefficient vector at points by the basis
convention that ``netsketch.hilbert`` states, so it is that convention's
oracle, and ``evaluate`` a piecewise polynomial by its pieces.
``ConfigurationDecoder`` decodes by one ``d x k`` map per configuration,
the exactness reference for the package's decoder.
"""

from __future__ import annotations

import copy
import itertools
import math
from fractions import Fraction

import numpy as np
from scipy import integrate

from netsketch import nets
from netsketch.errors import UsageError
from netsketch.hilbert import _derivatives
from netsketch.jl import MeasurementOperator


def synthesize(coefficients, t):
    """Evaluate the function with the given basis coefficients at points ``t``."""
    coeffs = np.asarray(coefficients, dtype=float)
    points = np.asarray(t, dtype=float)
    flat = np.atleast_1d(points).ravel()
    out = np.full(flat.shape, coeffs[0] / math.sqrt(2.0 * math.pi))
    if coeffs.size > 1:
        jmax = coeffs.size // 2
        js = np.arange(1, jmax + 1, dtype=float)
        cos_coeffs = coeffs[1::2]
        sin_coeffs = np.zeros(jmax)
        sin_coeffs[: (coeffs.size - 1) // 2] = coeffs[2::2]
        for start in range(0, flat.size, 4096):
            block = flat[start : start + 4096, None] * js[None, :]
            out[start : start + 4096] += (
                np.cos(block) @ cos_coeffs + np.sin(block) @ sin_coeffs
            ) / math.sqrt(math.pi)
    if points.ndim == 0:
        return float(out[0])
    return out.reshape(points.shape)


def evaluate(description, t):
    """``description``, a piecewise polynomial, at points ``t`` clipped to [-pi, pi], by Horner on each piece."""
    points = np.asarray(t, dtype=float)
    flat = np.clip(np.atleast_1d(points).astype(float).ravel(), -math.pi, math.pi)
    idx = np.searchsorted(description.breakpoints, flat, side="right")
    out = np.empty_like(flat)
    for piece, (start, end) in enumerate(description.piece_intervals()):
        mask = idx == piece
        coeffs = description.piece_coefficients[piece].tolist()
        out[mask] = _derivatives(coeffs, flat[mask] - 0.5 * (start + end), 1)[0]
    if points.ndim == 0:
        return float(out[0])
    return out.reshape(points.shape)


def oracle_trig_coefficients(description, ambient_dim: int) -> np.ndarray:
    """Compute trig-basis coefficients of ``description`` by adaptive quadrature.

    Integrates ``evaluate(description, t)`` piece by piece with ``quad`` weight
    rules, so smoothness is never violated inside a single call.
    """
    intervals = description.piece_intervals()
    jmax = ambient_dim // 2
    const = 0.0
    cos_part = np.zeros(jmax)
    sin_part = np.zeros(jmax)

    def f(t: float) -> float:
        return float(evaluate(description, t))

    for start, end in intervals:
        const += integrate.quad(f, start, end, epsabs=1e-13, limit=400)[0]
        for j in range(1, jmax + 1):
            cos_part[j - 1] += integrate.quad(
                f, start, end, weight="cos", wvar=j, epsabs=1e-13, limit=400
            )[0]
            sin_part[j - 1] += integrate.quad(
                f, start, end, weight="sin", wvar=j, epsabs=1e-13, limit=400
            )[0]

    coeffs = np.zeros(ambient_dim)
    coeffs[0] = const / math.sqrt(2.0 * math.pi)
    n_cos = (ambient_dim - 1 + 1) // 2
    n_sin = (ambient_dim - 1) // 2
    coeffs[1::2] = cos_part[:n_cos] / math.sqrt(math.pi)
    coeffs[2::2] = sin_part[:n_sin] / math.sqrt(math.pi)
    return coeffs


def _monomial_trig_integrals(alpha: float, beta: float, js: np.ndarray, degree: int):
    """Definite integrals of u**m cos(j u) and u**m sin(j u) over [alpha, beta].

    Two arrays of shape (degree + 1, len(js)), from the recursion obtained by
    integrating by parts once per degree.
    """
    sin_b, cos_b = np.sin(js * beta), np.cos(js * beta)
    sin_a, cos_a = np.sin(js * alpha), np.cos(js * alpha)
    cos_ints = [(sin_b - sin_a) / js]
    sin_ints = [(cos_a - cos_b) / js]
    pow_a, pow_b = 1.0, 1.0
    for m in range(1, degree + 1):
        pow_a *= alpha
        pow_b *= beta
        cos_ints.append((pow_b * sin_b - pow_a * sin_a) / js - (m / js) * sin_ints[m - 1])
        sin_ints.append((pow_a * cos_a - pow_b * cos_b) / js + (m / js) * cos_ints[m - 1])
    return np.stack(cos_ints), np.stack(sin_ints)


def recursion_trig_coefficients(description, ambient_dim: int) -> np.ndarray:
    """Trig-basis coefficients of ``description`` by the degree recursion.

    Each piece is integrated in its own local coordinate, monomial by
    monomial, and its phase is rotated to the piece's midpoint.  The constant
    coefficient is the one ``hilbert.analyze_piecewise`` computes, bit for bit.
    """
    jmax = ambient_dim // 2
    js = np.arange(1, jmax + 1, dtype=float)
    total_const = 0.0
    total_cos = np.zeros(jmax)
    total_sin = np.zeros(jmax)
    for (start, end), coeffs in zip(
        description.piece_intervals(), description.piece_coefficients
    ):
        midpoint = 0.5 * (start + end)
        alpha, beta = start - midpoint, end - midpoint
        powers = np.arange(1, coeffs.size + 1, dtype=float)
        total_const += float(np.dot(coeffs, (beta**powers - alpha**powers) / powers))
        if jmax == 0:
            continue
        cos_ints, sin_ints = _monomial_trig_integrals(alpha, beta, js, coeffs.size - 1)
        local_cos = coeffs @ cos_ints
        local_sin = coeffs @ sin_ints
        phase_cos, phase_sin = np.cos(js * midpoint), np.sin(js * midpoint)
        total_cos += phase_cos * local_cos - phase_sin * local_sin
        total_sin += phase_sin * local_cos + phase_cos * local_sin
    coeffs_out = np.zeros(ambient_dim)
    coeffs_out[0] = total_const / math.sqrt(2.0 * math.pi)
    coeffs_out[1::2] = total_cos[: ambient_dim // 2] / math.sqrt(math.pi)
    coeffs_out[2::2] = total_sin[: (ambient_dim - 1) // 2] / math.sqrt(math.pi)
    return coeffs_out


def _point_values(member):
    """A smooth, piecewise or analytic member's point evaluator and its jumps."""
    if hasattr(member, "steps"):  # analytic: coefficients plus a piecewise-constant description
        return (
            lambda t: synthesize(member.smooth.coefficients, t) + evaluate(member.steps, t),
            member.steps.breakpoints,
        )
    if hasattr(member, "coefficients"):  # smooth: a Signal
        return (lambda t: synthesize(member.coefficients, t)), ()
    return (lambda t: evaluate(member, t)), getattr(member, "breakpoints", ())


def oracle_l2_distance(a, b, points_per_piece: int) -> float:
    """L2[-pi, pi] distance of two members by composite Simpson between jumps.

    Each piece is sampled just inside its ends, so a jump on a cut cannot
    leak into the samples of its neighbour.
    """
    eval_a, jumps_a = _point_values(a)
    eval_b, jumps_b = _point_values(b)
    cuts = sorted({-math.pi, math.pi, *map(float, jumps_a), *map(float, jumps_b)})
    total = 0.0
    for start, end in zip(cuts[:-1], cuts[1:]):
        grid = np.linspace(start, end, points_per_piece)
        points = grid.copy()
        nudge = 1e-9 * (end - start) / points_per_piece
        points[0] += nudge
        points[-1] -= nudge
        delta = eval_a(points) - eval_b(points)
        total += float(integrate.simpson(delta * delta, x=grid))
    return math.sqrt(total)


def _fraction_pieces(description):
    """Each piece's ``(start, end, midpoint, coefficients)`` as exact rationals.

    The midpoint is the float the description defines its local coordinate
    by, so every quantity is a float and hence rational.
    """
    pieces = []
    for (start, end), coeffs in zip(
        description.piece_intervals(), description.piece_coefficients
    ):
        midpoint = 0.5 * (start + end)
        pieces.append(
            (Fraction(start), Fraction(end), Fraction(midpoint), [Fraction(c) for c in coeffs])
        )
    return pieces


def fraction_l2_distance_squared(a, b) -> Fraction:
    """Squared L2[-pi, pi] distance of two piecewise polynomials, exactly.

    On each interval between merged breakpoints, both pieces are re-expanded
    in ``t - start`` by the binomial theorem, and the squared difference is
    integrated term by term; ``-pi`` and ``pi`` are the floats ``-math.pi``
    and ``math.pi``.
    """
    pieces_a, pieces_b = _fraction_pieces(a), _fraction_pieces(b)
    cuts = sorted({*(p[0] for p in pieces_a + pieces_b), Fraction(math.pi)})
    total = Fraction(0)
    for start, end in zip(cuts[:-1], cuts[1:]):
        here = [
            next(p for p in pieces if p[0] <= start < p[1]) for pieces in (pieces_a, pieces_b)
        ]
        diff = [Fraction(0)] * max(len(coeffs) for *_, coeffs in here)
        for (_, _, midpoint, coeffs), sign in zip(here, (1, -1)):
            shift = start - midpoint
            for m, c in enumerate(coeffs):
                for k in range(m + 1):
                    diff[k] += sign * c * math.comb(m, k) * shift ** (m - k)
        width = end - start
        for i, di in enumerate(diff):
            for j, dj in enumerate(diff):
                total += di * dj * width ** (i + j + 1) / (i + j + 1)
    return total


def grid_l2_inner(values_a: np.ndarray, values_b: np.ndarray, grid: np.ndarray) -> float:
    """L2 inner product of two sampled functions via composite Simpson."""
    return float(integrate.simpson(values_a * values_b, x=grid))


def split_net_text(text: str) -> tuple[str, list[list[str]]]:
    """A dumped net's header line and, per member, its signal's lines."""
    header, _, body = text.partition("\n")
    return header, [block.splitlines() for block in body.split("---\n")]


def linear_expansion_bound(family, values) -> float:
    """Largest rounding gap between two evaluations of one center's coefficients.

    At a fixed configuration a center's coefficient ``i`` is ``sum_j v_j t_j``
    over its ``k`` axis values ``v_j``: ``t_j`` is a unit coefficient, or a
    piece monomial's share of the closed forms of ``hilbert.analyze_piecewise``,
    whose constants (interval powers, phases, ``1/j``) both evaluations share
    bit for bit.  Expanding the center directly and multiplying its
    configuration's linear map by ``v`` sum the same products in different
    orders.  For piece degree ``m`` each term goes through at most ``N = 2k +
    5m + 8`` roundings: the derivative factors and Horner's rule in the local
    coordinate, the drop, Horner's rule in ``1/(ij)``, the phase, the sum over
    jumps, the scaling and the map's dot product.  So each result is within
    ``gamma_N = N u / (1 - N u)`` of the exact sum times the sum of the term
    magnitudes ``|v_j| m_j`` (Higham, *Accuracy and Stability of Numerical
    Algorithms*, ch. 3), and the two differ by at most twice that.  A
    degree-``m`` monomial enters the constant by its integral over a piece of
    half-length ``h <= pi``, at most ``2 h^(m+1) / ((m+1) sqrt(2 pi))``, and
    frequency ``j >= 1`` by its derivatives at the piece's two ends, at most
    ``2 m! sum_{r<=m} pi^r / r! / sqrt(pi)``; a unit coefficient has ``m_j = 1``.
    """
    degree = getattr(family, "degree", 0)
    count = 2 * len(values) + 5 * degree + 8
    unit = np.finfo(np.float64).eps / 2.0
    gamma = count * unit / (1.0 - count * unit)
    constant = 2.0 * math.pi ** (degree + 1) / ((degree + 1) * math.sqrt(2.0 * math.pi))
    drops = sum(math.pi**r / math.factorial(r) for r in range(degree + 1))
    trig = 2.0 * math.factorial(degree) * drops / math.sqrt(math.pi)
    magnitude = max(constant, trig)
    return 2.0 * gamma * magnitude * float(np.sum(np.abs(values)))


def configuration_maps(plan, d, family) -> np.ndarray:
    """One ``d x k`` map per configuration: column ``a`` is ``coefficient_prefix(member(b, e_a), d)``.

    At a fixed configuration ``b`` a center's coefficients are linear in its
    ``k`` axis values, so its map times its axis point is the center.
    """
    units = np.eye(len(plan.axes))
    maps = np.empty((plan.config_count, d, len(plan.axes)))
    for block, breakpoints in zip(maps, plan.configurations()):
        for column, e in zip(block.T, units):
            column[:] = family.coefficient_prefix(family.member(breakpoints, e), d)
    maps.setflags(write=False)
    return maps


def decoder_rows(decoder) -> np.ndarray:
    """Every center's first ``d`` coefficients in index order, from its configuration's map.

    The materialized decoder's rows before it searched the maps directly.
    Each is its configuration's map times its axis point, in
    ``itertools.product`` order.
    """
    maps = configuration_maps(decoder.plan, decoder.d, decoder.family)
    points = [np.array(p) for p in itertools.product(*(axis.points() for axis in decoder.plan.axes))]
    return np.array([block @ point for block in maps for point in points])


class ConfigurationDecoder:
    """The exactness reference: exact nearest-member search by one map per configuration.

    ``maps`` holds ``configuration_maps``; an operator's sketch is ``R @ maps``, each
    configuration's Gram ``(R maps_c)^T (R maps_c)`` and its projections
    ``(R maps_c)^T y``, searched by the package's ``_nearest_on_grid``.  The
    winner is ``family.member``'s, its coefficients its map's image.
    """

    def __init__(self, plan, d: int, family) -> None:
        self.plan, self.d, self.family = plan, d, family
        self.configurations = tuple(plan.configurations())
        self._index = {breakpoints: index for index, breakpoints in enumerate(self.configurations)}
        self._grids = [axis.points() for axis in plan.axes]
        self.maps = configuration_maps(plan, d, family)

    def prepare(self, operator) -> nets.SketchedNet:
        if operator.d != self.d:
            raise UsageError(f"decoder serves d = {self.d}, not an operator on d = {operator.d}")
        sketch = np.matmul(operator.frame, self.maps)
        sketch.setflags(write=False)
        gram = np.ascontiguousarray(np.matmul(sketch.transpose(0, 2, 1), sketch).transpose(1, 2, 0))
        return nets.SketchedNet(operator, nets._grid_geometry(gram, self._grids), sketch)

    def center_sketch(self, coordinates, sketched) -> np.ndarray:
        breakpoints, values = coordinates
        return sketched.sketch[self._index[breakpoints]] @ np.array(values)

    def decode_measurements(self, y, sketched) -> nets.DecodeResult:
        y = np.asarray(y, dtype=np.float64)
        if sketched.d != self.d:
            raise UsageError(f"decoder serves d = {self.d}, not a net sketched on d = {sketched.d}")
        if y.shape != (sketched.n,):
            raise UsageError(f"expected {sketched.n} measurements, got shape {y.shape}")
        projections = np.ascontiguousarray(np.matmul(y, sketched.sketch).T)
        configuration, steps = nets._nearest_on_grid(
            sketched.geometry, projections, self._grids, self.plan.axes[-1].step
        )
        index = configuration
        for step, grid in zip(steps, self._grids):
            index = index * grid.size + step
        values = tuple(float(grid[i]) for grid, i in zip(self._grids, steps))
        member = self.family.member(self.configurations[configuration], values)
        measured = sketched.sketch[configuration] @ np.array(values)
        distance = float(np.linalg.norm(y - measured))
        coefficients = self.maps[configuration] @ np.array(values)
        coordinates = (self.configurations[configuration], values)
        return nets.DecodeResult(member, index, distance, coefficients, measured, coordinates)

    def decode_coefficients(self, target) -> nets.DecodeResult:
        target = np.asarray(target, dtype=np.float64)
        if target.shape != (self.d,):
            raise UsageError(f"expected {self.d} coefficients, got shape {target.shape}")
        identity = np.eye(self.d)
        identity.setflags(write=False)
        return self.decode_measurements(target, self.prepare(MeasurementOperator(identity)))


def row_scan(table: np.ndarray, target: np.ndarray) -> tuple[int, float]:
    """Index and distance of the row of ``table`` nearest to ``target``.

    The materialized decoder's scan before the closest-point search, kept as
    the oracle for generic decodes.  Ties go to the lowest index; rows are
    scanned in blocks of at most 256 KiB with the per-row arithmetic of
    ``np.linalg.norm(table - target, axis=1)``.
    """
    step = max(1, 256 * 1024 // (8 * table.shape[1]))
    best_index, best = 0, math.inf
    for start in range(0, table.shape[0], step):
        block = table[start : start + step] - target
        np.square(block, out=block)
        distances = np.sqrt(np.add.reduce(block, axis=1))
        local = int(np.argmin(distances))
        if distances[local] < best:
            best_index, best = start + local, float(distances[local])
    return best_index, best


class CountedFrame(np.ndarray):
    """An operator frame's view that records each matrix product it takes part in, in ``products``."""

    products: list = []

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            CountedFrame.products.append(None)
        plain = [a.view(np.ndarray) if isinstance(a, CountedFrame) else a for a in inputs]
        return getattr(ufunc, method)(*plain, **kwargs)


def factor_per_decode(decoder, raw, projections):
    """A step decoder's search from its raw Gram terms, factored on every decode.

    The factored step decoder's search before it kept each operator's
    factor, kept as the oracle.  ``raw`` is ``(g00, g0f, gff)``: ``|w(b)|^2``,
    ``<w(b), v>`` and ``|v|^2`` for the constant one's image ``v``.  Every
    call assembles ``g01 = g0f - g00`` and ``g11 = gff - 2 g0f + g00``,
    factors the ``P`` 2x2 Grams and searches them with the decoder's own
    ``projections`` ``(q0, q1)``.
    """
    g00, g0f, gff = raw
    g01 = g0f - g00
    grids = (decoder.plan.axes[0].points(), decoder.plan.axes[0].points())
    geometry = nets._grid_geometry([[g00, g01], [g01, gff - 2.0 * g0f + g00]], grids)
    return nets._nearest_on_grid(geometry, projections, grids, decoder.plan.axes[0].step)


def per_decode_copy(decoder):
    """A copy of a factored step decoder that keeps raw terms and runs ``factor_per_decode``.

    Its ``prepare`` puts raw terms where ``decoder.prepare``'s net has its
    geometry: ``g00`` is that geometry's Gram corner, and ``g0f`` and
    ``gff`` are recomputed from the sketch's table ``R w(b)`` and its first
    constant ``v`` as the decoder computes them (``<R w(b), v> = v.table``
    and ``|v|^2`` for ``v = sqrt(2 pi) R[:, 0]``, the constant one's image
    under an operator ``R``, the identity included).  Prepare once per
    operator, as for ``decoder``.
    """
    reference = copy.copy(decoder)

    def prepare(operator):
        sketched = decoder.prepare(operator)
        (table,), (v, *_) = sketched.sketch
        g0f = v @ table
        return sketched._replace(geometry=(sketched.geometry.gram[0][0], g0f, float(np.dot(v, v))))

    reference.prepare = prepare
    reference._search = lambda raw, sketch, y: factor_per_decode(decoder, raw, decoder._projections(sketch, y))
    return reference
