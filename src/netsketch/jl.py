"""Random subspace measurement operators.

A measurement operator is the sketch map ``R = sqrt(d / n) Q``, where ``Q``
holds an orthonormal family of ``n`` rows in a ``d``-dimensional coefficient
space: applied to ``d`` coefficients, it projects onto the row span and
rescales so that squared norms are preserved in expectation over a uniformly
random subspace.  The measurement count needed for a target success
probability over a finite point set is the Johnson-Lindenstrauss union bound,
``n = ceil(c * ln(m / (1 - p)))``, and ``failure_bound`` certifies it by
Dasgupta and Gupta's tail, pricing each end of a distortion band at its own
rate ``kappa``; ``certified_measurements`` raises the count, if need be, to
one that tail certifies for the reconstruction chain.  An operator's ``Q`` is
the orthonormalized columns of a Gaussian ``d x n`` draw, by verified
Cholesky QR.
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
    "certified_measurements",
    "failure_bound",
    "kappa",
    "required_measurements",
    "random_subspace",
    "apply_operator",
    "distortion_ok",
]

DEFAULT_JL_CONSTANT = 20.0

#: A pair's measured-over-true distance ratio passes inside ``[1/2, 2]``.
#: ``distortion_ok`` checks every pair against it; ``failure_bound`` takes it
#: as the default band.
DISTORTION_BAND = (0.5, 2.0)


def kappa(ratio: float) -> float:
    """Dasgupta-Gupta rate, per measurement, of a pair's ratio passing ``ratio``.

    ``(a^2 - 1 - ln a^2) / 2`` at ``a = ratio``: the chance that a fixed
    pair's measured-over-true distance ratio falls below ``a < 1``, or rises
    above ``a > 1``, under a uniformly random ``n``-subspace is at most
    ``exp(-kappa(a) n)`` (see ``required_measurements``).
    """
    if not (math.isfinite(ratio) and ratio > 0.0):
        raise UsageError(f"distortion ratio must be positive and finite, got {ratio!r}")
    beta = ratio * ratio
    return (beta - 1.0 - math.log(beta)) / 2.0


#: The rates at ``DISTORTION_BAND``'s ends: ``(ln 4 - 3/4) / 2`` below and
#: ``(3 - ln 4) / 2`` above.
KAPPA_LOWER = kappa(DISTORTION_BAND[0])
KAPPA_UPPER = kappa(DISTORTION_BAND[1])

#: Operator seeds are drawn from a caller's stream as ints below this bound,
#: so ``(d, n, seed)`` alone reproduces an operator.
SEED_RANGE = 2**63 - 1

_QR_RETRIES = 3
_RANK_TOLERANCE = 1e-12
_CHOLESKY_PASSES = 3
_BLOCK_ROWS = 64

logger = logging.getLogger(__name__)


def required_measurements(p: float, m: int, jl_constant: float = DEFAULT_JL_CONSTANT) -> int:
    """Measurements needed to preserve pairwise distances among ``m`` points.

    Returns ``ceil(jl_constant * ln(m / (1 - p)))``, clamped to at least one
    measurement, where ``p`` is the target success probability.

    The form is the union bound.  For a fixed unit ``u`` and a uniformly
    random ``n``-subspace with orthonormal frame ``Q``, ``L = |Q^T u|^2``
    satisfies ``P(L <= beta n / d) <= exp((n / 2) (1 - beta + ln beta))`` for
    ``beta < 1``, and the same bound on ``P(L >= beta n / d)`` for ``beta >
    1`` (Dasgupta and Gupta, *Random Struct. Alg.* 22(1), 2003, Lemma 2.2).
    A pair's rescaled distance ratio is ``sqrt(d L / n)``, so passing a band
    end ``a`` is ``beta = a^2``, at the rate ``kappa(a) = (a^2 - 1 - ln a^2)
    / 2`` per measurement: ``KAPPA_LOWER = kappa(1/2)`` and ``KAPPA_UPPER =
    kappa(2)`` for ``DISTORTION_BAND``.  With ``m`` pairs on the lower end,
    ``m exp(-KAPPA_LOWER n) <= 1 - p`` once ``n >= ln(m / (1 - p)) /
    KAPPA_LOWER``, so every ``jl_constant >= 1 / KAPPA_LOWER ~ 3.143``
    certifies the lower end alone.  A band whose upper end is priced at a
    slower rate, as the reconstruction chain's, can need more:
    ``certified_measurements`` raises the count to what its
    ``failure_bound`` certifies.
    """
    if not 0.0 < p < 1.0:
        raise UsageError(f"success probability must lie in (0, 1), got {p!r}")
    if m < 2:
        raise UsageError(f"need at least two points, got m={m!r}")
    if jl_constant <= 0.0:
        raise UsageError(f"jl_constant must be positive, got {jl_constant!r}")
    return max(1, math.ceil(jl_constant * math.log(m / (1.0 - p))))


def failure_bound(
    n: int,
    d: int,
    lower_pairs: int,
    upper_pairs: int,
    band: tuple[float, float] = DISTORTION_BAND,
) -> float:
    """Union bound on the chance that some pair leaves its end of ``band``.

    ``lower_pairs`` pairs must stay above the band's lower end ``a_lo`` and
    ``upper_pairs`` below its upper end ``a_hi``, under a uniformly random
    ``n``-subspace of ``R^d``.  Returns ``lower_pairs exp(-kappa(a_lo) n) +
    upper_pairs exp(-kappa(a_hi) n)``, Dasgupta and Gupta's tails (see
    ``required_measurements``), each formed from its logarithm, so that pair
    counts beyond float range stay exact, and the sum capped at 1.  It is
    exactly 0.0 when ``n >= d``: a full orthogonal operator distorts nothing.
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
    total = 0.0
    for pairs, rate in ((lower_pairs, kappa(lower)), (upper_pairs, kappa(upper))):
        if pairs:
            exponent = math.log(pairs) - rate * n
            if exponent >= 0.0:
                return 1.0
            total += math.exp(exponent)
    return min(1.0, total)


def certified_measurements(
    p: float,
    d: int,
    centers: int,
    band: tuple[float, float] = DISTORTION_BAND,
    jl_constant: float = DEFAULT_JL_CONSTANT,
) -> int:
    """Measurements for the reconstruction chain over a net of ``centers`` centers.

    The chain needs ``band``'s lower end on the ``centers`` pairs of the
    signal with a center and its upper end on the one pair with the covering
    witness.  ``required_measurements(p, centers + 1, jl_constant)`` pays for
    that one pair at the lower rate, which covers it only while
    ``kappa(a_hi) >= kappa(a_lo)``: at ``DISTORTION_BAND`` every
    ``jl_constant >= 1 / KAPPA_LOWER`` is certified, but an upper end near 1
    is priced far more slowly.  So for such a constant the count is raised,
    if need be, to the smallest ``n <= d`` whose ``failure_bound(n, d,
    centers, 1, band)`` is at most ``1 - p``; that bound falls as ``n`` grows
    and is 0 at ``n = d``, so a bisection over ``[1, d]`` finds it.  A
    smaller constant asks for an uncertified count and gets the union-bound
    count alone.  The result is not clamped at ``d``.
    """
    wanted = required_measurements(p, centers + 1, jl_constant)
    if jl_constant < 1.0 / KAPPA_LOWER:
        return wanted
    low, high = 1, d
    while low < high:
        middle = (low + high) // 2
        if failure_bound(middle, d, centers, 1, band) <= 1.0 - p:
            high = middle
        else:
            low = middle + 1
    return max(wanted, low)


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
    output, and is multiplied by its diagonal block's inverse.  The
    verification's ``F F^T`` goes into the same Gram buffer, where the next
    pass factors it.  So at most these are alive at once, in float64 entries:

    - ``n d``: the frame, holding ``G^T``, then each pass's output;
    - ``n^2``: the Gram buffer, holding ``G^T G``, then ``L`` with its
      diagonal blocks inverted, then ``F F^T``;
    - ``64 (d + n)``: the temporaries of one step, none of them ``n x n``:
      the ``64 x 64`` work arrays of a diagonal block's factor or inverse,
      the panel product (at most ``n x 64``) or one trailing-update block (at
      most ``64 x n``) while factoring; and one 64-row block of the
      substitution (``64 d``).

    The DEBUG line reports ``8 (n d + n^2 + 64 (d + n))`` bytes as
    ``work_bytes``.
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
                rows = frame[start:stop]
                if start:
                    rows -= gram[start:stop, :start] @ frame[:start]
                rows[...] = gram[start:stop, start:stop] @ rows
            np.matmul(frame, frame.T, out=gram)
            # max |gram - I| without n x n temporaries; the next pass factors
            # ``gram``, so its diagonal is restored from a copy, bit for bit.
            diagonal = gram.diagonal().copy()
            gram.flat[:: n + 1] -= 1.0
            error = max(float(gram.max()), -float(gram.min()))
            gram.flat[:: n + 1] = diagonal
            if error <= tolerance:
                frame *= math.sqrt(d / n)
                work = n * n + _BLOCK_ROWS * (d + n)
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


def distortion_ok(op: MeasurementOperator, points: np.ndarray) -> DistortionReport:
    """Check that projected pairwise distances stay within ``DISTORTION_BAND``.

    ``points`` is an ``(m, k)`` array of coefficient vectors with ``k >= op.d``;
    ratios compare distances after measurement to distances among the
    truncated originals.  Coincident pairs are skipped.
    """
    # Imported here: see README, "Start-up cost".  pdist, not numpy: it sums
    # each distance in sequence, and the report's ratios are pinned to those bits.
    from scipy.spatial.distance import pdist

    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise UsageError("expected a 2-d array of points")
    if points.shape[1] < op.d:
        raise UsageError(
            f"points have {points.shape[1]} coefficients but the operator needs {op.d}"
        )
    truncated = points[:, : op.d]
    original = pdist(truncated)
    projected = pdist(truncated @ op.frame.T)
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
