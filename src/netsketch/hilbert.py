"""Trigonometric basis on [-pi, pi], piecewise-polynomial analysis, signal text output.

Basis convention (orthonormal in L2[-pi, pi]):

* index 0:        1 / sqrt(2*pi)
* index 2*j - 1:  cos(j*t) / sqrt(pi)
* index 2*j:      sin(j*t) / sqrt(pi)

so an ambient dimension ``d`` holds frequencies up to ``d // 2``.

Piecewise polynomials live on [-pi, pi] as a plain interval: ``k`` interior
breakpoints split it into ``k + 1`` pieces.  A function on the circle is one
whose first and last pieces continue each other through +/-pi.  Each piece
carries monomial coefficients in the local coordinate ``u = t - midpoint`` of
its interval, which keeps coefficient magnitudes comparable across pieces.

Analysis against the basis is closed form, by the jump relations: a piecewise
polynomial's Fourier coefficients are fixed by the jumps of its derivatives
at the breakpoints and at +/-pi (Eckhoff, *Math. Comp.* 64, 1995), so each
frequency ``j`` costs a few operations per jump, vectorized over ``j``.

Distances, re-centring and point values use Horner's rule alone: about ``t``,
a piece has Taylor coefficients ``q_r = p^(r)(t) / r!`` (by repeated synthetic
division), and its squared integral over ``[t - h, t + h]`` is
``sum q_i q_j 2 h^(i+j+1) / (i+j+1)`` over even ``i + j``.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import UsageError

TWO_PI = 2.0 * math.pi
_SQRT_2PI = math.sqrt(TWO_PI)
_SQRT_PI = math.sqrt(math.pi)

#: Highest local polynomial degree accepted by the analysis.
MAX_PIECE_DEGREE = 8

#: Default ambient truncation: the working model of L2[-pi, pi] is R**4096.
DEFAULT_AMBIENT_DIM = 4096


# ---------------------------------------------------------------------------
# Signals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Signal:
    """A function represented by its coefficients in the trig basis."""

    coefficients: np.ndarray

    def __post_init__(self) -> None:
        coeffs = np.ascontiguousarray(self.coefficients, dtype=float)
        if coeffs.ndim != 1 or coeffs.size == 0:
            raise UsageError("signal coefficients must form a non-empty 1-d array")
        coeffs.flags.writeable = False
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def ambient_dim(self) -> int:
        return int(self.coefficients.size)

    def norm(self) -> float:
        return float(np.linalg.norm(self.coefficients))


def pad_or_truncate(values: np.ndarray, dim: int) -> np.ndarray:
    """The first ``dim`` entries of ``values``, zero-padded when it is shorter."""
    out = np.zeros(dim)
    keep = min(dim, values.shape[0])
    out[:keep] = values[:keep]
    return out


def tail_norm(x: Signal, d: int) -> float:
    """Euclidean norm of the coefficients beyond the first ``d``."""
    if not 1 <= d <= x.ambient_dim:
        raise UsageError(f"tail dimension {d} outside [1, {x.ambient_dim}]")
    return float(np.linalg.norm(x.coefficients[d:]))


# ---------------------------------------------------------------------------
# Piecewise-polynomial descriptions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PiecewiseDescription:
    """A piecewise polynomial on [-pi, pi].

    ``breakpoints`` are the interior jump locations in (-pi, pi), strictly
    increasing.  ``piece_coefficients`` hold one monomial-coefficient array
    per piece, ``len(breakpoints) + 1`` of them, in increasing degree,
    expressed in the local coordinate around the piece midpoint.  Both are
    kept read-only, and ``_edges``, ``-pi``, the breakpoints and ``pi`` as
    plain floats, serves the piece lookups; the checks run on those floats.
    """

    breakpoints: np.ndarray
    piece_coefficients: tuple[np.ndarray, ...] = field()
    _edges: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        points = np.ascontiguousarray(self.breakpoints, dtype=float)
        if points.ndim != 1:
            raise UsageError("breakpoints must form a 1-d array")
        edges = (-math.pi, *points.tolist(), math.pi)
        inner = edges[1:-1]
        if not all(right - left > 0.0 for left, right in zip(inner, inner[1:])):
            raise UsageError("breakpoints must be strictly increasing")
        if inner and (inner[0] <= -math.pi or inner[-1] >= math.pi):
            raise UsageError("interior breakpoints must lie in (-pi, pi)")
        pieces = tuple(
            np.ascontiguousarray(c, dtype=float) for c in self.piece_coefficients
        )
        if len(pieces) != len(edges) - 1:
            raise UsageError(
                f"expected {len(edges) - 1} coefficient arrays, got {len(pieces)}"
            )
        for coeffs in pieces:
            if coeffs.ndim != 1 or coeffs.size == 0:
                raise UsageError("piece coefficients must form non-empty 1-d arrays")
            coeffs.setflags(write=False)
        points.setflags(write=False)
        object.__setattr__(self, "breakpoints", points)
        object.__setattr__(self, "piece_coefficients", pieces)
        object.__setattr__(self, "_edges", edges)

    def piece_intervals(self) -> list[tuple[float, float]]:
        """Each piece's ``(start, end)``, from ``-pi`` to ``pi``."""
        edges = self._edges
        return list(zip(edges[:-1], edges[1:]))


def _derivatives(coeffs: list[float], u: float | np.ndarray, count: int) -> list:
    """``p(u), p'(u), ..., p^(count - 1)(u)`` for monomial coefficients ``coeffs``, by Horner."""
    values = []
    for _ in range(count):
        value = 0.0
        for c in reversed(coeffs):
            value = value * u + c
        values.append(value)
        coeffs = [m * c for m, c in enumerate(coeffs[1:], 1)]
    return values


def analyze_piecewise(description: PiecewiseDescription, ambient_dim: int) -> Signal:
    """Exact trig-basis coefficients of a piecewise polynomial, by the jump relations.

    Integrating each piece by parts until its polynomial is spent gives
    ``int f(t) e^{ijt} dt = sum_t e^{ijt} sum_r (-1)^r D_r(t) / (ij)^(r+1)``
    (Eckhoff, *Math. Comp.* 64, 1995) over the jump points ``t``: each
    interior breakpoint, and +/-pi, where the last piece meets the first.
    ``D_r(t)`` is the drop of the ``r``-th derivative at ``t``, left piece
    minus right piece.  The cosine-``j`` and sine-``j`` coefficients are the
    real and imaginary parts over ``sqrt(pi)``; each depends on ``j`` alone,
    so a shorter expansion is a prefix of a longer one, bit for bit.  The
    constant is each piece's integral.  Piece degree is capped at
    ``MAX_PIECE_DEGREE``.
    """
    if ambient_dim < 1:
        raise UsageError("ambient_dim must be positive")
    pieces = [coeffs.tolist() for coeffs in description.piece_coefficients]
    ends = []  # each piece's local coordinates at its start and its end
    total_const = 0.0
    intervals = description.piece_intervals()
    for (start, end), coeffs, values in zip(intervals, description.piece_coefficients, pieces):
        if coeffs.size - 1 > MAX_PIECE_DEGREE:
            raise UsageError(
                f"piece degree {coeffs.size - 1} exceeds the cap of {MAX_PIECE_DEGREE}"
            )
        midpoint = 0.5 * (start + end)
        alpha, beta = start - midpoint, end - midpoint
        if coeffs.size == 1:  # the product np.dot forms below, on plain floats
            total_const += values[0] * (beta - alpha)
        else:
            powers = np.arange(1, coeffs.size + 1, dtype=float)
            total_const += float(np.dot(coeffs, (beta**powers - alpha**powers) / powers))
        ends.append((alpha, beta))
    js = np.arange(1, ambient_dim // 2 + 1, dtype=float)
    inverse = np.zeros(js.size, dtype=complex)  # 1 / (ij)
    inverse.imag = -1.0 / js
    spectrum = np.zeros(js.size, dtype=complex)
    # Breakpoint p joins piece p to piece p + 1; +/-pi joins the last piece to the first.
    joins = [(float(t), p, p + 1) for p, t in enumerate(description.breakpoints)]
    for t, left, right in [*joins, (math.pi, -1, 0)]:
        count = max(len(pieces[left]), len(pieces[right]))
        left_values = _derivatives(pieces[left], ends[left][1], count)
        right_values = _derivatives(pieces[right], ends[right][0], count)
        series = 0.0  # Horner in 1 / (ij), from the highest derivative down
        for r in reversed(range(count)):
            series = inverse * (series + (-1) ** r * (left_values[r] - right_values[r]))
        if t == math.pi:
            series[::2] *= -1.0  # e^{ij pi} = (-1)^j, exactly
        else:  # not *=, which numpy can round differently on a length-1 array
            angles = js * t
            series = series * (np.cos(angles) + 1j * np.sin(angles))
        spectrum += series
    coeffs_out = np.zeros(ambient_dim)
    coeffs_out[0] = total_const / _SQRT_2PI
    coeffs_out[1::2] = spectrum.real / _SQRT_PI
    coeffs_out[2::2] = spectrum.imag[: (ambient_dim - 1) // 2] / _SQRT_PI
    return Signal(coeffs_out)


def _taylor(
    description: PiecewiseDescription, t: float, count: int, piece: int | None = None
) -> list[float]:
    """``p^(r)(t) / r!`` for ``r < count``, with ``p`` the piece at ``t``, or ``piece``'s polynomial.

    Repeated synthetic division by ``u - s``, for ``t`` at local coordinate
    ``s``, leaves them as remainders; at the piece's midpoint, ``s = 0``,
    they are its own coefficients, bit for bit.
    """
    edges = description._edges
    if piece is None:
        piece = _piece_at(description, t)
    q = description.piece_coefficients[piece].tolist()
    q += [0.0] * (count - len(q))
    s = t - 0.5 * (edges[piece] + edges[piece + 1])
    for low in range(len(q) - 1):
        for i in range(len(q) - 2, low - 1, -1):
            q[i] += s * q[i + 1]
    return q[:count]


def _piece_at(description: PiecewiseDescription, t: float) -> int:
    """The piece holding ``t``: how many breakpoints lie at or below it.

    ``np.searchsorted(breakpoints, t, side="right")``, by ``bisect`` on the edge tuple.
    """
    edges = description._edges
    return bisect.bisect_right(edges, t, 1, len(edges) - 1) - 1


def _add_square_integral(total: float, q: list[float], half: float) -> float:
    """``total`` plus ``int_{-h}^{h} (sum_i q_i u^i)^2 du`` for ``h = half``, one term at a time.

    The terms are ``q_i q_j 2 h^(i+j+1) / (i+j+1)`` over even ``i + j``, in
    the order of ``i``, then ``j``.
    """
    for i, qi in enumerate(q):
        for j in range(i % 2, len(q), 2):
            total += qi * q[j] * 2.0 * half ** (i + j + 1) / (i + j + 1)
    return total


def exact_l2_distance(a: PiecewiseDescription, b: PiecewiseDescription) -> float:
    """Exact L2[-pi, pi] distance between two piecewise polynomials.

    On each interval between merged breakpoints, of half-width ``h``, the
    difference has Taylor coefficients ``q`` about the midpoint, and its squared
    integral is ``sum q_i q_j 2 h^(i+j+1) / (i+j+1)`` over even ``i + j``.  The
    sign of ``q`` drops out, so swapping ``a`` and ``b`` changes no bit.
    """
    count = max(len(c) for c in (*a.piece_coefficients, *b.piece_coefficients))
    edges = sorted({*a._edges, *b._edges})
    total = 0.0
    for start, end in zip(edges[:-1], edges[1:]):
        midpoint, half = 0.5 * (start + end), 0.5 * (end - start)
        pairs = zip(_taylor(a, midpoint, count), _taylor(b, midpoint, count))
        total = _add_square_integral(total, [x - y for x, y in pairs], half)
    return math.sqrt(max(total, 0.0))


def piecewise_norm(description: PiecewiseDescription) -> float:
    """Exact L2[-pi, pi] norm: ``exact_l2_distance`` to the zero function, bit for bit.

    With no breakpoint of its own, zero adds no interval, and about each
    piece's midpoint the difference's Taylor coefficients are the piece's
    own, so the squared integrals are added piece by piece, in that order.
    """
    count = max(len(c) for c in description.piece_coefficients)
    total = 0.0
    for (start, end), coeffs in zip(description.piece_intervals(), description.piece_coefficients):
        q = coeffs.tolist()
        total = _add_square_integral(total, q + [0.0] * (count - len(q)), 0.5 * (end - start))
    return math.sqrt(max(total, 0.0))


# ---------------------------------------------------------------------------
# Signal text output
# ---------------------------------------------------------------------------


def dump_signal(stream, signal: Signal) -> None:
    """Write a signal to a text stream: header line, one coefficient per line."""
    stream.write(f"basis=trig ambient_dim={signal.ambient_dim}\n")
    for value in signal.coefficients:
        stream.write(f"{float(value):.17g}\n")
