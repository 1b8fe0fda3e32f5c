"""Random subspace measurement operators.

A measurement operator is the sketch map ``R = sqrt(d / n) Q``, where ``Q``
holds an orthonormal family of ``n`` rows in a ``d``-dimensional coefficient
space: applied to ``d`` coefficients, it projects onto the row span and
rescales so that squared norms are preserved in expectation over a uniformly
random subspace.  A fixed unit vector's squared projection follows
Beta(n/2, (d - n)/2), so the chance that some pair leaves its end of a
distortion band is at most ``exact_failure_bound``, a union of the exact Beta
tails (``log_betainc`` and ``log_betaincc``), and ``exact_measurements`` is
the smallest ``n`` whose bound meets a target success probability.  An
operator's ``Q`` is the orthonormalized columns of a Gaussian ``d x n``
draw, by verified Cholesky QR.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import NetSketchError, UsageError

__all__ = [
    "MeasurementOperator",
    "DISTORTION_BAND",
    "DistortionReport",
    "exact_failure_bound",
    "exact_measurements",
    "log_betainc",
    "log_betaincc",
    "random_subspace",
    "apply_operator",
    "distortion_ok",
]

DEFAULT_JL_CONSTANT = 20.0

#: A pair's measured-over-true distance ratio passes inside ``[1/2, 2]``.
#: ``distortion_ok`` checks every pair against it; ``exact_failure_bound``
#: takes it as the default band.
DISTORTION_BAND = (0.5, 2.0)

#: Operator seeds are drawn from a caller's stream as ints below this bound,
#: so ``(d, n, seed)`` alone reproduces an operator.
SEED_RANGE = 2**63 - 1

_QR_RETRIES = 3
_RANK_TOLERANCE = 1e-12
_CHOLESKY_PASSES = 3
_BLOCK_ROWS = 64
# Columns per chunk of the forward substitution.  OpenBLAS picks its kernel
# by a product's shape: at the bench's 37 x 1,886 frame, 1,024-column
# chunks round as the whole-width product does, where 256, 943 and 1,536
# columns move its last bits.
_CHUNK_COLUMNS = 1024

logger = logging.getLogger(__name__)

# The Stirling series' coefficients B_2k / (2k (2k - 1)), k = 1..8 (DLMF 5.11.1).
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156, -3617 / 122400)
_HALF_LOG_TWO_PI = 0.5 * math.log(2.0 * math.pi)
_CF_LIMIT = 10_000
_CF_TINY = 1e-300


def _stirling_remainder(z: float) -> float:
    """``ln Gamma(z) - ((z - 1/2) ln z - z + ln(2 pi) / 2)``, for ``z > 0``.

    From the series at ``z >= 8``, where its first omitted term is below
    1e-16; below that, from ``math.lgamma``, whose values at the
    half-integers the tails pass are at most ``ln Gamma(8) = 8.5``.
    """
    if z < 8.0:
        return math.lgamma(z) - ((z - 0.5) * math.log(z) - z + _HALF_LOG_TWO_PI)
    t = 1.0 / (z * z)
    total = 0.0
    for coefficient in reversed(_STIRLING):
        total = total * t + coefficient
    return total / z


def _rlog1(e: float, ratio: float) -> float:
    """``e - ln(1 + e)`` for ``e > -1``, given ``ratio``, ``1 + e`` formed on its own.

    Far from 0 it is ``e - ln(ratio)``, whose log keeps the digits that ``1 +
    e`` would lose near ``e = -1``.  Near 0, with ``t = e / (2 + e)``, ``ln(1
    + e) = 2 atanh t`` and ``e - 2t = t e``, so the value is ``t e - 2 (t^3/3
    + t^5/5 + ...)``.
    """
    if abs(e) > 0.5:
        return e - math.log(ratio)
    t = e / (2.0 + e)
    square = t * t
    power, k, series = t * square, 3, 0.0
    while True:
        term = power / k
        series += term
        if abs(term) <= 1e-17 * abs(series):
            return t * e - 2.0 * series
        power *= square
        k += 2


def _log_power_over_beta(a: float, b: float, x: float) -> float:
    """``ln(x^a (1 - x)^b / B(a, b))`` for ``0 < x < 1``, without cancellation.

    Didonato and Morris's form (*ACM TOMS* 18(3), 1992, Algorithm 708,
    ``brcomp`` and ``bcorr``).  Stirling's formula leaves ``x0^a y0^b / B(a,
    b) = sqrt(a b / (a + b)) / sqrt(2 pi) e^-(D(a) + D(b) - D(a + b))`` at
    ``x0 = a / (a + b)``, ``y0 = 1 - x0``, with ``D`` the small Stirling
    remainders, so no large ``ln Gamma`` is ever formed.  The rest, ``a ln(x
    / x0) + b ln(y / y0)``, is ``-(a rlog1(e_a) + b rlog1(e_b))`` with ``e_a
    = x / x0 - 1 = -lam / a`` and ``e_b = y / y0 - 1 = lam / b`` at ``lam =
    a - (a + b) x``, because ``a e_a + b e_b = 0``: two non-negative terms.
    """
    total = a + b
    lam = a - total * x
    remainders = _stirling_remainder(a) + _stirling_remainder(b) - _stirling_remainder(total)
    deviation = a * _rlog1(-lam / a, x * total / a) + b * _rlog1(lam / b, (1.0 - x) * total / b)
    return 0.5 * math.log(a * b / total) - _HALF_LOG_TWO_PI - remainders - deviation


def _log_betainc_below(a: float, b: float, x: float) -> float:
    """``ln I_x(a, b)`` for ``0 < x < (a + 1) / (a + b + 2)``, where the fraction converges.

    ``I_x(a, b) = x^a (1 - x)^b / (a B(a, b)) / (1 + d_1 / (1 + d_2 / (1 +
    ...)))`` with ``d_2m = m (b - m) x / ((a + 2m - 1)(a + 2m))`` and
    ``d_2m+1 = -(a + m)(a + b + m) x / ((a + 2m)(a + 2m + 1))`` (DLMF
    8.17.22), evaluated by the modified Lentz method (*Numerical Recipes*,
    section 6.4).
    """
    c, inverse = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    inverse = 1.0 / (inverse if abs(inverse) > _CF_TINY else _CF_TINY)
    fraction = inverse
    for m in range(1, _CF_LIMIT):
        twice = 2 * m
        for term in (
            m * (b - m) * x / ((a + twice - 1.0) * (a + twice)),
            -(a + m) * (a + b + m) * x / ((a + twice) * (a + twice + 1.0)),
        ):
            inverse = 1.0 + term * inverse
            inverse = 1.0 / (inverse if abs(inverse) > _CF_TINY else _CF_TINY)
            c = 1.0 + term / c
            c = c if abs(c) > _CF_TINY else _CF_TINY
            step = inverse * c
            fraction *= step
        if abs(step - 1.0) <= 2.2e-16:
            return _log_power_over_beta(a, b, x) - math.log(a) + math.log(fraction)
    raise NetSketchError(f"the incomplete beta fraction at a={a!r}, b={b!r}, x={x!r} did not converge")


def _log1mexp(log_value: float) -> float:
    """``ln(1 - e^v)`` for ``v < 0``, each branch where it keeps its digits."""
    if log_value > -math.log(2.0):
        return math.log(-math.expm1(log_value))
    return math.log1p(-math.exp(log_value))


def _check_beta(a: float, b: float) -> None:
    if not (a > 0.0 and b > 0.0 and math.isfinite(a + b)):
        raise UsageError(f"beta parameters must be positive and finite, got a={a!r}, b={b!r}")


def log_betainc(a: float, b: float, x: float) -> float:
    """``ln I_x(a, b)``, the log of the regularized incomplete beta function.

    Computed directly below ``x = (a + 1) / (a + b + 2)``; above it, ``I_x(a,
    b) = 1 - I_{1-x}(b, a)`` and the direct side is ``log_betaincc``'s.
    ``-inf`` at ``x <= 0`` and 0.0 at ``x >= 1``.
    """
    _check_beta(a, b)
    if x <= 0.0:
        return -math.inf
    if x >= 1.0:
        return 0.0
    if x < (a + 1.0) / (a + b + 2.0):
        return _log_betainc_below(a, b, x)
    return _log1mexp(_log_betainc_below(b, a, 1.0 - x))


def log_betaincc(a: float, b: float, x: float) -> float:
    """``ln(1 - I_x(a, b))``, computed directly from ``x = (a + 1) / (a + b + 2)`` up.

    Below that point it is formed from ``log_betainc``'s direct side.  0.0
    at ``x <= 0`` and ``-inf`` at ``x >= 1``.
    """
    _check_beta(a, b)
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return -math.inf
    if x < (a + 1.0) / (a + b + 2.0):
        return _log1mexp(_log_betainc_below(a, b, x))
    return _log_betainc_below(b, a, 1.0 - x)


def exact_failure_bound(
    n: int,
    d: int,
    lower_pairs: int,
    upper_pairs: int,
    band: tuple[float, float] = DISTORTION_BAND,
) -> float:
    """Union bound on the chance that some pair leaves its end of ``band``: ``F(n)``.

    ``lower_pairs`` pairs must stay above the band's lower end ``a_lo`` and
    ``upper_pairs`` below its upper end ``a_hi``, under a uniformly random
    ``n``-subspace of ``R^d``.  A pair's rescaled distance ratio is ``sqrt(d
    L / n)`` with ``L ~ Beta(n/2, (d - n)/2)``, so it falls below ``a_lo``
    with chance ``I_{a_lo^2 n/d}(n/2, (d - n)/2)`` and rises above ``a_hi``
    with ``1 - I_{a_hi^2 n/d}(n/2, (d - n)/2)``, which is 0 once ``a_hi^2 n
    / d >= 1``.  Returns ``lower_pairs`` times the first plus
    ``upper_pairs`` times the second, capped at 1, and exactly 0.0 when ``n
    >= d``: a full orthogonal operator distorts nothing.  Each term is
    formed from its logarithm, so that pair counts beyond float range stay
    exact.  Dasgupta and Gupta's exponential tails (*Random Struct. Alg.*
    22(1), 2003, Lemma 2.2) bound these from above.
    """
    if n < 1 or d < 1:
        raise UsageError(f"dimensions must be positive, got d={d!r}, n={n!r}")
    if lower_pairs < 0 or upper_pairs < 0:
        raise UsageError(
            f"pair counts must be non-negative, got {lower_pairs!r} and {upper_pairs!r}"
        )
    lower, upper = band
    if not 0.0 < lower < 1.0 < upper:
        raise UsageError(f"a distortion band must straddle 1, got {band!r}")
    if n >= d:
        return 0.0
    a, b = n / 2.0, (d - n) / 2.0
    log_tails = (log_betainc(a, b, lower * lower * n / d), log_betaincc(a, b, upper * upper * n / d))
    total = 0.0
    for pairs, log_tail in zip((lower_pairs, upper_pairs), log_tails):
        if pairs:
            exponent = math.log(pairs) + log_tail
            if exponent >= 0.0:
                return 1.0
            total += math.exp(exponent)
    return min(1.0, total)


def exact_measurements(
    p: float,
    d: int,
    lower_pairs: int,
    upper_pairs: int,
    band: tuple[float, float] = DISTORTION_BAND,
) -> int:
    """The smallest ``n`` in ``[1, d]`` with ``exact_failure_bound(n, ...) <= 1 - p``.

    The bound falls as ``n`` grows and is 0 at ``n = d``, so a bisection over
    ``[1, d]`` finds it; ``d`` itself means no smaller count is certified.
    """
    if not 0.0 < p < 1.0:
        raise UsageError(f"success probability must lie in (0, 1), got {p!r}")
    low, high = 1, d
    while low < high:
        middle = (low + high) // 2
        if exact_failure_bound(middle, d, lower_pairs, upper_pairs, band) <= 1.0 - p:
            high = middle
        else:
            low = middle + 1
    return low


@dataclass(frozen=True)
class MeasurementOperator:
    """The ``n x d`` sketch map ``R``: ``sqrt(d / n)`` times orthonormal rows.

    ``frame`` holds ``R`` itself, read-only, so a sketch is ``frame @ x``.
    Any array a caller could still write through is copied; a read-only
    C-ordered array that owns its data, as ``random_subspace`` passes, is
    kept as it is.
    """

    frame: np.ndarray

    def __post_init__(self) -> None:
        frame = np.asarray(self.frame, dtype=np.float64)
        if frame.ndim != 2:
            raise UsageError("operator frame must be a 2-d array")
        if not 0 < frame.shape[0] <= frame.shape[1]:
            raise UsageError(f"operator frame needs 1 to {frame.shape[1]} rows, got {frame.shape[0]}")
        flags = frame.flags
        if flags.writeable or not flags.owndata or not flags.c_contiguous:
            frame = frame.copy()
            frame.setflags(write=False)
        object.__setattr__(self, "frame", frame)

    @property
    def n(self) -> int:
        return self.frame.shape[0]

    @property
    def d(self) -> int:
        return self.frame.shape[1]

    @property
    def scale(self) -> float:
        """``sqrt(d / n)``, the factor ``frame`` carries over its orthonormal rows."""
        return math.sqrt(self.d / self.n)


def _factor_in_place(gram: np.ndarray) -> bool:
    """Overwrite the lower triangle of ``gram`` with its Cholesky factor ``L``.

    Right-looking, in ``_BLOCK_ROWS`` blocks: ``np.linalg.cholesky`` factors
    each diagonal block ``L_ss``; the panel below it becomes
    ``A[e:, s:e] L_ss^{-T}``; and the trailing lower triangle loses the
    panel's outer product one row block at a time.  Forward substitution
    needs ``L_ss`` only through its inverse, so the diagonal block keeps
    ``L_ss^{-1}`` in place of ``L_ss``.  Returns False, a rank deficient draw,
    when a block fails to factor or has a diagonal at most ``_RANK_TOLERANCE``
    (the diagonal blocks' diagonals are ``L``'s).
    """
    n = gram.shape[0]
    upper = ~np.tri(min(n, _BLOCK_ROWS), dtype=bool)
    for start in range(0, n, _BLOCK_ROWS):
        stop = min(n, start + _BLOCK_ROWS)
        block = gram[start:stop, start:stop]
        try:
            block[...] = np.linalg.cholesky(block)
        except np.linalg.LinAlgError:
            return False
        if np.min(np.diag(block)) <= _RANK_TOLERANCE:
            return False
        block[...] = np.linalg.inv(block)
        np.copyto(block, 0.0, where=upper[: stop - start, : stop - start])
        panel = gram[stop:, start:stop]
        panel[...] = panel @ block.T
        # The lower triangle, and diagonal-block upper halves cholesky never reads.
        for row in range(stop, n, _BLOCK_ROWS):
            end = min(n, row + _BLOCK_ROWS)
            gram[row:end, stop:end] -= panel[row - stop : end - stop] @ panel[: end - stop].T
    return True


def random_subspace(d: int, n: int, seed: int) -> MeasurementOperator:
    """Draw the sketch map onto a uniformly random ``n``-dimensional subspace of ``R^d``.

    The frame is ``sqrt(d / n) Q^T``, where ``G = Q T``, with positive
    ``diag T``, is the QR factorization of a Gaussian ``d x n`` draw ``G``.
    ``Q`` is unique: with ``G^T G = L L^T`` (Cholesky), ``Q^T = L^{-1} G^T``.
    Cholesky QR leaves an orthogonality error near ``kappa(G)^2 u``, so each
    pass is verified and, if it fails, run again on its own output
    (CholeskyQR2, Fukaya et al. 2014), three at most.  Rounding an exactly
    orthonormal ``F`` leaves ``|F F^T - I| <= 2u + u^2`` entrywise, and
    computing ``F F^T`` adds at most ``gamma_d |f_i| |f_j| ~ d u`` (Higham,
    *Accuracy and Stability*, section 3.1), so a pass is accepted when the
    computed ``max |F F^T - I| <= (d + 2) eps``, twice that floor.  A
    Cholesky diagonal (Householder QR's ``|diag T|``) at most
    ``_RANK_TOLERANCE``, or a failed factorization (``kappa(G) >~ 1e9``),
    counts as rank deficient: the draw is repeated, and after three fresh
    redraws a failure is treated as an internal error.  The accepted ``Q^T``
    is scaled in place, once, to the frame.

    Two buffers are allocated per call and reused by every pass and redraw:
    a C-ordered ``n x d`` frame and an ``n x n`` Gram buffer.  ``G^T`` is
    drawn straight into the frame, in the stream's order, by one call.
    The Gram matrix ``F F^T`` is formed into its buffer (syrk) and factored
    there in place by ``_factor_in_place``.  ``L^{-1}`` is then applied to the
    frame top-down by forward substitution: row block ``[s:e]`` loses
    ``L[s:e, :s]`` times the rows above it, which already hold the pass's
    output, and is multiplied by its diagonal block's inverse, one chunk of
    at most ``_CHUNK_COLUMNS`` columns at a time, so each product is formed
    chunk by chunk, not ``64 x d`` at once.  The verification's ``F F^T``
    goes into the same Gram buffer, where the next pass factors it.  So at
    most these are alive at once, in float64 entries:

    - ``n d``: the frame, holding ``G^T``, then each pass's output;
    - ``n^2``: the Gram buffer, holding ``G^T G``, then ``L`` with its
      diagonal blocks inverted, then ``F F^T``;
    - ``min(n, 64) min(d, 1024) + 64 n``: the temporaries of one step, none
      of them ``n x n``: one chunk of the substitution; or the ``64 x 64``
      work arrays of a diagonal block's factor or inverse, the panel product
      (at most ``n x 64``) or one trailing-update block (at most ``64 x n``)
      while factoring.

    The DEBUG line reports ``8 (n d + n^2 + min(n, 64) min(d, 1024) + 64
    n)`` bytes as ``work_bytes``: a chunk is 296 KiB at ``n`` 37 and ``d``
    1,886, against the frame's 545 KiB.
    """
    if n < 1 or d < 1:
        raise UsageError(f"dimensions must be positive, got d={d!r}, n={n!r}")
    if n > d:
        raise UsageError(f"subspace dimension n={n} exceeds ambient dimension d={d}")
    started = time.perf_counter()
    rng = np.random.default_rng(seed)
    tolerance = (d + 2) * np.finfo(np.float64).eps
    frame = np.empty((n, d))
    gram = np.empty((n, n))
    for redraws in range(1 + _QR_RETRIES):
        rng.standard_normal(out=frame)
        np.matmul(frame, frame.T, out=gram)
        for passes in range(1, 1 + _CHOLESKY_PASSES):
            if not _factor_in_place(gram):
                break
            for start in range(0, n, _BLOCK_ROWS):  # top down: L X = F
                stop = min(n, start + _BLOCK_ROWS)
                for column in range(0, d, _CHUNK_COLUMNS):
                    columns = slice(column, column + _CHUNK_COLUMNS)
                    chunk = frame[start:stop, columns]
                    if start:
                        chunk -= gram[start:stop, :start] @ frame[:start, columns]
                    chunk[...] = gram[start:stop, start:stop] @ chunk
            np.matmul(frame, frame.T, out=gram)
            # max |gram - I| without n x n temporaries; the next pass factors
            # ``gram``, so its diagonal is restored from a copy, bit for bit.
            diagonal = gram.diagonal().copy()
            gram.flat[:: n + 1] -= 1.0
            error = max(float(gram.max()), -float(gram.min()))
            gram.flat[:: n + 1] = diagonal
            if error <= tolerance:
                frame *= math.sqrt(d / n)
                work = n * n + min(n, _BLOCK_ROWS) * min(d, _CHUNK_COLUMNS) + _BLOCK_ROWS * n
                logger.debug(
                    "random subspace: d=%d n=%d passes=%d gram_error=%.2e redraws=%d"
                    " frame_bytes=%d work_bytes=%d in %.3fs",
                    d, n, passes, error, redraws, frame.nbytes,
                    frame.nbytes + 8 * work, time.perf_counter() - started,
                )
                frame.setflags(write=False)
                return MeasurementOperator(frame)
    raise NetSketchError(
        f"rank-deficient or ill-conditioned draw persisted over {1 + _QR_RETRIES} attempts"
    )


def apply_operator(op: MeasurementOperator, x: np.ndarray) -> np.ndarray:
    """Measure ``x``, exactly ``op.d`` coefficients: ``R x``."""
    return op.frame @ x


@dataclass(frozen=True)
class DistortionReport:
    """Outcome of checking pairwise distance ratios against ``DISTORTION_BAND``."""

    ok: bool
    min_ratio: float | None
    max_ratio: float | None
    pairs_checked: int


def _pairwise_distances(points: np.ndarray) -> np.ndarray:
    """Euclidean distances between the rows of ``points``, pairs ``(i, j)``, ``i < j``, in row order.

    ``scipy.spatial.distance.pdist``'s layout, one row's pairs at a time, so
    no more than ``m - 1`` differences are alive at once.  Each difference
    is one rounded subtraction, as in ``pdist``; only the order of the sum
    of squares differs, within a few units in the last place.
    """
    m = points.shape[0]
    squares = np.empty(m * (m - 1) // 2)
    stop = 0
    for row in range(m - 1):
        start, stop = stop, stop + m - 1 - row
        differences = points[row + 1 :] - points[row]
        np.einsum("ij,ij->i", differences, differences, out=squares[start:stop])
    return np.sqrt(squares, out=squares)


def distortion_ok(op: MeasurementOperator, points: np.ndarray) -> DistortionReport:
    """Check that projected pairwise distances stay within ``DISTORTION_BAND``.

    ``points`` is an ``(m, k)`` array of coefficient vectors with ``k >= op.d``;
    ratios compare distances after measurement to distances among the
    truncated originals.  Coincident pairs are skipped.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise UsageError("expected a 2-d array of points")
    if points.shape[1] < op.d:
        raise UsageError(
            f"points have {points.shape[1]} coefficients but the operator needs {op.d}"
        )
    truncated = points[:, : op.d]
    original = _pairwise_distances(truncated)
    projected = _pairwise_distances(truncated @ op.frame.T)
    nonzero = original > 0.0
    if not np.any(nonzero):  # fewer than two points, or all coincide
        return DistortionReport(ok=True, min_ratio=None, max_ratio=None, pairs_checked=0)
    ratios = projected[nonzero] / original[nonzero]
    min_ratio = float(np.min(ratios))
    max_ratio = float(np.max(ratios))
    lower, upper = DISTORTION_BAND
    return DistortionReport(
        ok=bool(lower <= min_ratio and max_ratio <= upper),
        min_ratio=min_ratio,
        max_ratio=max_ratio,
        pairs_checked=int(np.count_nonzero(nonzero)),
    )
