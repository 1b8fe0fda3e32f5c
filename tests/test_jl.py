"""Tests for random subspace measurement operators and distortion checks."""

from __future__ import annotations

import logging
import math
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from netsketch import jl
from netsketch.errors import NetSketchError, UsageError
from netsketch.jl import (
    DISTORTION_BAND,
    MeasurementOperator,
    apply_operator,
    distortion_ok,
    exact_failure_bound,
    exact_measurements,
    log_betainc,
    log_betaincc,
    random_subspace,
)

# The reconstruction chain's band: 1/2 below, 1.15 above (reconstructor.CHAIN_BAND).
CHAIN = (0.5, 1.15)

# ---------------------------------------------------------------------------
# Measurement counts and their certificates
# ---------------------------------------------------------------------------

#: Dasgupta and Gupta's per-measurement rate at the lower end 1/2, (ln 4 - 3/4) / 2.
DG_LOWER_RATE = (math.log(4.0) - 0.75) / 2.0


def dasgupta_gupta_bound(n, d, lower_pairs, upper_pairs, band=DISTORTION_BAND):
    """Dasgupta and Gupta's closed-form union bound, which the exact tails sharpen.

    A pair's ratio passes a band end ``a`` with chance at most ``exp(-kappa(a)
    n)``, ``kappa(a) = (a^2 - 1 - ln a^2) / 2`` (*Random Struct. Alg.* 22(1),
    2003, Lemma 2.2).  0.0 at ``n >= d``, capped at 1, and formed from logs.
    """
    if n >= d:
        return 0.0
    total = 0.0
    for pairs, end in zip((lower_pairs, upper_pairs), band):
        if pairs:
            exponent = math.log(pairs) - n * (end * end - 1.0 - math.log(end * end)) / 2.0
            if exponent >= 0.0:
                return 1.0
            total += math.exp(exponent)
    return min(1.0, total)


@pytest.mark.parametrize("d", [8, 20, 64, 300, 1886])
def test_failure_bound_dominates_the_exact_beta_tails(d):
    # |Q^T u|^2 ~ Beta(n/2, (d - n)/2) for a uniformly random n-subspace, so
    # the ratio sqrt(d L / n) falls below 1/2 with probability
    # I(n / (4d); n/2, (d - n)/2) and rises above 2 with 1 - I(4n / d; ...).
    # exact_failure_bound on one pair is that tail, and Dasgupta and Gupta's
    # bound lies above it.
    from scipy.special import betainc, betaincc

    n = np.arange(1, d)
    a, b = n / 2.0, (d - n) / 2.0
    below = betainc(a, b, n / (4.0 * d))
    above = betaincc(a, b, np.minimum(1.0, 4.0 * n / d))
    for k, low, high in zip(n.tolist(), below, above):
        assert exact_failure_bound(k, d, 1, 0) == pytest.approx(low, rel=1e-11, abs=1e-300)
        assert exact_failure_bound(k, d, 0, 1) == pytest.approx(high, rel=1e-11, abs=1e-300)
        assert dasgupta_gupta_bound(k, d, 1, 0) >= low
        assert dasgupta_gupta_bound(k, d, 0, 1) >= high


def test_random_subspace_projections_follow_the_beta_law():
    # The certificate's premise: the squared length of a fixed unit vector's
    # projection onto a uniformly random n-subspace is Beta(n/2, (d - n)/2).
    from scipy.stats import beta, kstest

    # The frame is sqrt(d / n) Q^T, so |frame u|^2 is d / n times |Q^T u|^2.
    d, n = 12, 4
    u = np.ones(d) / math.sqrt(d)
    lengths = [float(np.sum((random_subspace(d, n, seed=s).frame @ u) ** 2)) * n / d for s in range(2500)]
    assert kstest(lengths, beta(n / 2.0, (d - n) / 2.0).cdf).pvalue > 1e-3


@settings(max_examples=200, deadline=None)
@given(
    jl_constant=st.floats(1.0 / DG_LOWER_RATE, 100.0),
    centers=st.integers(1, 10**12),
    p=st.floats(1e-6, 1.0 - 1e-6),
    upper=st.one_of(st.just(1.15), st.floats(1.01, 2.0)),
)
def test_the_rule_is_certified_for_every_constant_above_the_rate(jl_constant, centers, p, upper):
    # At the symmetric band the union-bound count ceil(c ln((M + 1) / (1 -
    # p))) alone is certified, so the exact tail's count is at most it; at
    # any band the exact count is the first whose bound is met.
    n = max(1, math.ceil(jl_constant * math.log((centers + 1) / (1.0 - p))))
    assert dasgupta_gupta_bound(n, 10**9, centers, 1) <= 1.0 - p
    assert exact_measurements(p, 10**9, centers, 1) <= n
    band = (0.5, upper)
    exact = exact_measurements(p, 10**9, centers, 1, band)
    assert exact_failure_bound(exact, 10**9, centers, 1, band) <= 1.0 - p
    if exact > 1:
        assert exact_failure_bound(exact - 1, 10**9, centers, 1, band) > 1.0 - p


def test_exact_measurements_pays_for_the_slow_upper_end():
    # One center: ceil(20 ln 4) = 28 rows leave Dasgupta-Gupta's e^(-0.0215
    # * 28) = 0.548 on the witness pair, where the exact tails leave 0.117;
    # 2 rows are the first within 1/2.
    assert dasgupta_gupta_bound(28, 1886, 1, 1, CHAIN) == pytest.approx(0.548, abs=1e-3)
    assert exact_failure_bound(28, 1886, 1, 1, CHAIN) == pytest.approx(0.1167, abs=1e-4)
    assert exact_measurements(0.5, 1886, 1, 1, CHAIN) == 2
    # The bench net, M 396,900: the union-bound rule's 272 rows certify
    # 0.0029 by Dasgupta-Gupta and 7.7e-05 exactly; 37 rows are the first
    # within 1/2 (0.4185, against 0.5534 at 36), and 45 within 1/10.
    assert dasgupta_gupta_bound(272, 1886, 396_900, 1, CHAIN) == pytest.approx(0.002895, rel=1e-3)
    assert exact_failure_bound(272, 1886, 396_900, 1, CHAIN) == pytest.approx(7.718e-05, rel=1e-3)
    assert exact_measurements(0.5, 1886, 396_900, 1, CHAIN) == 37
    assert exact_failure_bound(37, 1886, 396_900, 1, CHAIN) == pytest.approx(0.4185, abs=1e-4)
    assert exact_failure_bound(36, 1886, 396_900, 1, CHAIN) == pytest.approx(0.5534, abs=1e-4)
    assert exact_measurements(0.9, 1886, 396_900, 1, CHAIN) == 45
    # The symmetric band at M 3,548,448, where the union-bound rule asks 316.
    assert exact_measurements(0.5, 1886, 3_548_448, 1) == 43
    # The count stays in [1, d]: d itself when nothing smaller is certified.
    assert exact_measurements(0.5, 20, 396_900, 1, CHAIN) == 19
    assert exact_measurements(0.5, 4, 396_900, 1, CHAIN) == 4
    assert exact_measurements(0.5, 1, 396_900, 1, CHAIN) == 1
    for p in (0.0, 1.0, math.nan):
        with pytest.raises(UsageError):
            exact_measurements(p, 20, 1, 1, CHAIN)


# Each d's n: every n below d up to 1,021, else n = 1, 2, d - 2, d - 1 and
# 360 log-spaced counts, over 200 distinct in all.
BETA_DIMENSIONS = (44, 512, 1021, 1886, 9170)
BAND_ENDS = (0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 1.05, 1.1, 1.15, 1.2, 1.3, 1.5, 1.75, 2.0)


def _beta_counts(d):
    if d <= 1021:
        return range(1, d)
    counts = {1, 2, d - 2, d - 1, *np.geomspace(1, d - 1, 360).astype(int).tolist()}
    assert len(counts) > 200
    return sorted(counts)


def test_log_betainc_matches_scipy_on_each_direct_side():
    # Each side is checked where it is computed directly: I_x(a, b) below
    # (a + 1) / (a + b + 2), 1 - I_x(a, b) from there up, at the tail's own
    # x = end^2 n / d.  Where scipy's value is itself off by more than
    # 1e-12, a 40-digit mpmath value decides, at 1e-13.
    from scipy.special import betainc, betaincc

    checked, disputed = 0, []
    for d in BETA_DIMENSIONS:
        for n in _beta_counts(d):
            a, b = n / 2.0, (d - n) / 2.0
            for end in BAND_ENDS:
                x = end * end * n / d
                if x >= 1.0:
                    continue
                below = x < (a + 1.0) / (a + b + 2.0)
                expected = float(betainc(a, b, x) if below else betaincc(a, b, x))
                if expected < 1e-300:  # scipy's value has left the normal range
                    continue
                got = math.exp(log_betainc(a, b, x) if below else log_betaincc(a, b, x))
                checked += 1
                if abs(got - expected) > 1e-12 * expected:
                    disputed.append((a, b, x, below, got))
    assert checked > 10_000
    import mpmath

    with mpmath.workdps(40):
        for a, b, x, below, got in disputed:
            if below:
                exact = mpmath.betainc(a, b, 0, x, regularized=True)
            else:
                exact = mpmath.betainc(b, a, 0, 1 - mpmath.mpf(x), regularized=True)
            assert abs(got - exact) <= 1e-13 * exact, (a, b, x)
    assert len(disputed) <= 5


def test_log_betainc_edges_and_sides():
    # Both functions agree with each other across the switch, and the ends of
    # [0, 1] are exact.
    for a, b in ((0.5, 0.5), (0.5, 943.0), (943.0, 0.5), (18.5, 924.5), (2292.5, 2292.5)):
        for x in (1e-9, 0.01, (a + 1.0) / (a + b + 2.0), 0.5, 0.99):
            lower, upper = math.exp(log_betainc(a, b, x)), math.exp(log_betaincc(a, b, x))
            assert lower + upper == pytest.approx(1.0, rel=1e-13)
        assert log_betainc(a, b, 0.0) == log_betaincc(a, b, 1.0) == -math.inf
        assert log_betainc(a, b, 1.0) == log_betaincc(a, b, 0.0) == 0.0
    # I_x(1/2, 1/2) = (2 / pi) asin(sqrt x), the arcsine law.
    assert math.exp(log_betainc(0.5, 0.5, 0.25)) == pytest.approx(1.0 / 3.0, rel=1e-14)
    for a, b in ((0.0, 1.0), (1.0, -1.0), (math.inf, 1.0), (1.0, math.nan)):
        with pytest.raises(UsageError):
            log_betainc(a, b, 0.5)


def test_exact_failure_bound_is_at_most_dasgupta_gupta_and_falls_with_n():
    for d in (2, 8, 44, 64, 300, 1886):
        for lower_pairs in (1, 7, 30, 396_900, 10**12):
            for band in (CHAIN, DISTORTION_BAND, (0.8, 1.05)):
                exact = [exact_failure_bound(n, d, lower_pairs, 1, band) for n in range(1, d + 1)]
                loose = [dasgupta_gupta_bound(n, d, lower_pairs, 1, band) for n in range(1, d + 1)]
                assert all(0.0 <= e <= f <= 1.0 for e, f in zip(exact, loose))
                assert all(later <= earlier for earlier, later in zip(exact, exact[1:]))
                assert exact[-1] == 0.0


def test_exact_failure_bound_edges():
    # n >= d is exact; an upper end past sqrt(d / n) cannot be crossed; pair
    # counts beyond float range stay finite in log space.
    assert exact_failure_bound(1886, 1886, 10**12, 10**12) == 0.0
    assert exact_failure_bound(2000, 1886, 1, 1) == 0.0
    a, b = 500.0, 443.0  # n 1,000 of d 1,886: 2^2 n / d >= 1
    assert exact_failure_bound(1000, 1886, 0, 1) == 0.0
    assert exact_failure_bound(1000, 1886, 1, 0) == math.exp(log_betainc(a, b, 0.25 * 1000 / 1886))
    assert exact_failure_bound(2, 1886, 10**12, 0) == 1.0
    assert exact_failure_bound(5, 1886, 0, 0) == 0.0
    assert 0.0 < exact_failure_bound(3000, 4000, 10**400, 1) < dasgupta_gupta_bound(3000, 4000, 10**400, 1)
    for args in ((0, 8, 1, 1), (3, 0, 1, 1), (3, 8, -1, 1), (3, 8, 1, -1)):
        with pytest.raises(UsageError):
            exact_failure_bound(*args)
    for band in ((0.5, 1.0), (1.0, 2.0), (0.0, 2.0), (0.5, math.nan)):
        with pytest.raises(UsageError):
            exact_failure_bound(5, 10, 1, 1, band)


def test_the_exact_certificate_can_fail_at_its_rate():
    # A net small enough to enumerate: a signal x, 30 centers c and a
    # witness w in R^64.  At n 11 the chain's bound is F = 0.323, so the
    # operator should break the chain (some |R(x - c)| below a_lo |x - c|,
    # or |R(x - w)| above a_hi |x - w|) on about that share of draws, and not
    # on more than F plus three standard errors.
    d, centers, n, draws = 64, 30, 11, 2000
    bound = exact_failure_bound(n, d, centers, 1, CHAIN)
    assert bound == pytest.approx(0.323, abs=1e-3)
    rng = np.random.default_rng(2013)
    x = rng.normal(size=d)
    differences = np.vstack([x - rng.normal(size=(centers, d)), x - rng.normal(size=d)])
    lengths = np.linalg.norm(differences, axis=1)
    broken = 0
    for seed in range(draws):
        ratios = np.linalg.norm(differences @ random_subspace(d, n, seed=seed).frame.T, axis=1) / lengths
        broken += bool(np.any(ratios[:centers] < CHAIN[0]) or ratios[centers] > CHAIN[1])
    rate = broken / draws
    assert 0.25 < rate <= bound + 3.0 * math.sqrt(bound * (1.0 - bound) / draws)


# ---------------------------------------------------------------------------
# Random subspaces
# ---------------------------------------------------------------------------


def one_call_subspace(d, n, seed):
    """The reference draw: ``G^T`` in one call, then Householder QR of ``G``.

    Its ``Q`` has signs fixed so that ``diag T > 0`` (``G = Q T``) and is
    scaled to ``sqrt(d / n) Q^T``.
    """
    gaussian = np.random.default_rng(seed).standard_normal((n, d)).T
    q, t = np.linalg.qr(gaussian, mode="reduced")
    return math.sqrt(d / n) * (q * np.where(np.diag(t) < 0.0, -1.0, 1.0)).T


def gram_error(op):
    """``max |Q Q^T - I|`` for the operator's orthonormal rows ``Q = frame / scale``."""
    rows = op.frame / op.scale
    return np.max(np.abs(rows @ rows.T - np.eye(op.n)))


def test_orthonormal_rows():
    # The square shapes have the worst-conditioned Gaussians, so their first
    # Cholesky pass is the one most often repeated.
    for d, n in ((512, 128), (512, 167), (300, 150), (1, 1), (2, 2), (32, 32), (301, 301)):
        op = random_subspace(d, n, seed=7)
        assert op.d == d and op.n == n
        assert gram_error(op) <= (d + 2) * np.finfo(np.float64).eps
        np.testing.assert_allclose(op.scale**2 * op.n / op.d, 1.0, atol=1e-12)


@pytest.mark.parametrize("d, n", [(1886, 272), (512, 167), (65, 3), (301, 301), (32, 32), (1, 1)])
def test_draw_matches_the_one_call_reference(d, n):
    # The bench's d and n, other n off the 64-row blocks, and clamped n = d.
    for seed in (7, 8):
        np.testing.assert_allclose(
            random_subspace(d, n, seed).frame, one_call_subspace(d, n, seed), rtol=0.0, atol=1e-13
        )


def blocked_cholesky(gram):
    """``L`` and its diagonal blocks' inverses, by the draw's blocked Cholesky.

    Each is an array of its own; None stands for a rank-deficient Gram
    matrix.  The trailing update goes one row block at a time, as in the draw:
    one product for the whole trailing part would move the last bits.
    """
    n, size = gram.shape[0], jl._BLOCK_ROWS
    lower, inverses = np.tril(gram), []
    for start in range(0, n, size):
        stop = min(n, start + size)
        try:
            block = np.linalg.cholesky(lower[start:stop, start:stop])
        except np.linalg.LinAlgError:
            return None
        if np.min(np.diag(block)) <= jl._RANK_TOLERANCE:
            return None
        inverses.append(np.tril(np.linalg.inv(block)))
        lower[start:stop, start:stop] = block
        panel = lower[stop:, start:stop] @ inverses[-1].T
        lower[stop:, start:stop] = panel
        for row in range(stop, n, size):
            end = min(n, row + size)
            lower[row:end, stop:end] -= panel[row - stop : end - stop] @ panel[: end - stop].T
    return lower, inverses


def reference_subspace(d, n, seed):
    """Reference: the draw's arithmetic, in two frame buffers and fresh arrays.

    It draws ``G^T`` into one ``n x d`` array, factors a copy of each
    Gram matrix with ``blocked_cholesky``, and writes each pass's
    ``L^{-1} F`` by forward substitution into a fresh ``n x d`` array, so two
    frames and three ``n x n`` arrays are alive at once; kept here as the
    oracle of the buffer reuse.  The substitution's products are split into
    the draw's column chunks: OpenBLAS picks its kernel by a product's shape,
    so a whole-width product can round differently.  The accepted frame is
    scaled by ``sqrt(d / n)``.
    """
    rng = np.random.default_rng(seed)
    tolerance = (d + 2) * np.finfo(np.float64).eps
    size = jl._BLOCK_ROWS
    for _ in range(1 + jl._QR_RETRIES):
        frame = np.empty((n, d))
        rng.standard_normal(out=frame)
        gram = frame @ frame.T
        for _ in range(jl._CHOLESKY_PASSES):
            factor = blocked_cholesky(gram)
            if factor is None:
                break
            (lower, inverses), previous, frame = factor, frame, np.empty((n, d))
            for start in range(0, n, size):
                stop = min(n, start + size)
                for column in range(0, d, jl._CHUNK_COLUMNS):
                    columns = slice(column, column + jl._CHUNK_COLUMNS)
                    rows = previous[start:stop, columns] - lower[start:stop, :start] @ frame[:start, columns]
                    np.matmul(inverses[start // size], rows, out=frame[start:stop, columns])
            gram = frame @ frame.T
            diagonal = gram.diagonal().copy()
            gram.flat[:: n + 1] -= 1.0
            error = max(float(gram.max()), -float(gram.min()))
            gram.flat[:: n + 1] = diagonal
            if error <= tolerance:
                return frame * math.sqrt(d / n)
    raise NetSketchError("reference draw failed")


def lower_inverse(lower):
    """Inverse of a lower-triangular matrix by recursive halving."""
    n = lower.shape[0]
    if n <= 32:
        return np.tril(np.linalg.inv(lower))
    h = n // 2
    out = np.zeros_like(lower)
    out[:h, :h] = lower_inverse(lower[:h, :h])
    out[h:, h:] = lower_inverse(lower[h:, h:])
    out[h:, :h] = -out[h:, h:] @ (lower[h:, :h] @ out[:h, :h])
    return out


def unblocked_subspace(d, n, seed):
    """Reference: the draw before its Cholesky factor was blocked.

    One frame buffer as in the draw, but each pass takes the full
    ``np.linalg.cholesky`` factor, inverts it by recursive halving and applies
    the inverse bottom-up in 64-row blocks, so the Gram matrix, the Cholesky
    call's work copy and its factor, and then ``L`` and ``L^{-1}``, are alive
    beside the frame.  The accepted frame is scaled by ``sqrt(d / n)``.
    """
    rng = np.random.default_rng(seed)
    tolerance = (d + 2) * np.finfo(np.float64).eps
    frame = np.empty((n, d))
    for _ in range(1 + jl._QR_RETRIES):
        rng.standard_normal(out=frame)
        gram = frame @ frame.T
        for _ in range(jl._CHOLESKY_PASSES):
            try:
                lower = np.linalg.cholesky(gram)
            except np.linalg.LinAlgError:
                break
            del gram
            if np.min(np.diag(lower)) <= jl._RANK_TOLERANCE:
                break
            inverse = lower_inverse(lower)
            del lower
            for start in reversed(range(0, n, 64)):
                stop = min(n, start + 64)
                frame[start:stop] = inverse[start:stop, :stop] @ frame[:stop]
            del inverse
            gram = frame @ frame.T
            diagonal = gram.diagonal().copy()
            gram.flat[:: n + 1] -= 1.0
            error = max(float(gram.max()), -float(gram.min()))
            gram.flat[:: n + 1] = diagonal
            if error <= tolerance:
                frame *= math.sqrt(d / n)
                return frame
    raise NetSketchError("unblocked draw failed")


def test_draw_matches_the_two_buffer_reference():
    # Same Gaussian stream, the same blocks and the same products: bit for
    # bit, the bench's d with a tall n (d = 1,886, n = 604) included.  At
    # d = 2,500, n = 37 the last 452-column chunk rounds differently from a
    # whole-width product, so the reference's chunks are the draw's.
    shapes = (
        (1886, 604), (2500, 37), (512, 128), (512, 167), (301, 301), (65, 3), (1, 1),
        (32, 32), (300, 150), (130, 129), (129, 65),
    )
    for d, n in shapes:
        for seed in range(4):
            frame = random_subspace(d, n, seed).frame
            assert np.array_equal(frame, reference_subspace(d, n, seed)), (d, n, seed)


def test_draw_matches_the_unblocked_factor():
    # Blocking reorders the factor's sums, so only rounding moves.
    for d, n in ((1886, 604), (512, 167), (301, 301), (300, 150), (130, 129), (65, 3)):
        for seed in range(2):
            np.testing.assert_allclose(
                random_subspace(d, n, seed).frame,
                unblocked_subspace(d, n, seed),
                rtol=0.0,
                atol=1e-14,
            )


def traced_peak(draw):
    """Peak bytes that numpy and Python allocate while ``draw()`` runs."""
    tracemalloc.start()
    try:
        draw()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_draw_peak_memory_is_one_frame_and_small_blocks(caplog):
    """The draw's traced peak at d = 1,200, n = 300 and at the bench's
    d = 1,886, n = 37 stays under

        8 (n d + n^2 + min(n, 64) min(d, 1,024) + 64 n) bytes,

    4.28 MB and 0.89 MB:

    - ``n d``: the one frame buffer, holding ``G^T``, drawn into it in one
      call, then each pass's ``L^{-1} G^T``, written in place, and at last
      the frame scaled in place;
    - ``n^2``: the one Gram buffer, holding ``G^T G``, then the blocked
      factor, then the verification's ``F F^T``;
    - ``min(n, 64) min(d, 1,024)``: one chunk of at most 64 substitution
      rows and 1,024 columns, formed before it is copied into place;
    - ``64 n``: the ``64 x 64`` factor and inverse of one diagonal block
      with a panel product of ``n x 64``.

    The unblocked draw held the Gram matrix with ``np.linalg.cholesky``'s
    work copy and factor, then ``L`` and ``L^{-1}``, and a whole block of
    substitution rows, ``8 (n d + 3 n^2 + 64 d + 64 n)`` = 5.81 MB at the
    first shape, and fails it, as does the two-buffer reference.  The DEBUG
    line reports the same bound as ``work_bytes``.
    """
    for d, n in ((1200, 300), (1886, 37)):
        bound = 8 * (n * d + n * n + min(n, 64) * min(d, 1024) + 64 * n)
        random_subspace(d, n, seed=0)  # any one-time set-up happens outside the trace
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="netsketch.jl"):
            assert traced_peak(lambda: random_subspace(d, n, seed=0)) <= bound
        (line,) = [r.getMessage() for r in caplog.records if r.name == "netsketch.jl"]
        assert f" frame_bytes={8 * n * d} work_bytes={bound} " in line
        assert traced_peak(lambda: unblocked_subspace(d, n, seed=0)) > bound
        assert traced_peak(lambda: reference_subspace(d, n, seed=0)) > bound


def test_seed_determinism():
    a = random_subspace(64, 16, seed=123)
    b = random_subspace(64, 16, seed=123)
    assert np.array_equal(a.frame, b.frame)
    c = random_subspace(64, 16, seed=124)
    assert not np.array_equal(a.frame, c.frame)


def test_operator_frame_cannot_be_written_through():
    frame = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    op = MeasurementOperator(frame=frame)
    frame[0, 0] = 5.0
    assert op.frame[0, 0] == 1.0 and not op.frame.flags.writeable
    with pytest.raises(ValueError):
        op.frame[0, 0] = 5.0
    # A read-only view of a writable array is copied too.
    view = frame[:, :]
    view.setflags(write=False)
    op = MeasurementOperator(frame=view)
    frame[0, 0] = 7.0
    assert op.frame[0, 0] == 5.0 and not op.frame.flags.writeable
    # A fresh frame from the draw is read-only already and kept as it is.
    drawn = random_subspace(16, 4, seed=3).frame
    assert not drawn.flags.writeable
    assert MeasurementOperator(frame=drawn).frame is drawn


def test_operator_frame_needs_one_to_d_rows():
    # No rows would leave scale = sqrt(d / 0); more rows than d are not orthonormal.
    for rows in (0, 6):
        with pytest.raises(UsageError, match="needs 1 to 5 rows"):
            MeasurementOperator(np.zeros((rows, 5)))


def test_full_rank_case_is_invertible():
    op = random_subspace(32, 32, seed=5)
    rng = np.random.default_rng(0)
    x = rng.normal(size=32)
    y = apply_operator(op, x)
    # n = d: scale is 1 and the frame is a full orthogonal basis.
    assert op.scale == 1.0
    back = op.frame.T @ y
    np.testing.assert_allclose(back, x, atol=1e-10)
    np.testing.assert_allclose(np.linalg.norm(y), np.linalg.norm(x), atol=1e-10)


def test_dimension_validation():
    with pytest.raises(UsageError):
        random_subspace(8, 9, seed=0)
    with pytest.raises(UsageError):
        random_subspace(8, 0, seed=0)


# ---------------------------------------------------------------------------
# Applying the operator
# ---------------------------------------------------------------------------


def test_apply_zero_and_linearity():
    op = random_subspace(48, 12, seed=11)
    rng = np.random.default_rng(1)
    x, y = rng.normal(size=48), rng.normal(size=48)
    np.testing.assert_array_equal(apply_operator(op, np.zeros(48)), np.zeros(12))
    lhs = apply_operator(op, 2.5 * x - 1.5 * y)
    rhs = 2.5 * apply_operator(op, x) - 1.5 * apply_operator(op, y)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_apply_takes_exactly_d_coefficients():
    # A sketch is R x on the operator's d coefficients; nothing is truncated.
    op = random_subspace(16, 4, seed=3)
    x = np.random.default_rng(2).normal(size=16)
    np.testing.assert_array_equal(apply_operator(op, x), op.frame @ x)
    for size in (8, 64):
        with pytest.raises(ValueError):
            apply_operator(op, np.zeros(size))


def test_apply_norm_is_contraction_after_scale():
    rng = np.random.default_rng(4)
    for seed in range(10):
        op = random_subspace(64, 16, seed=seed)
        x = rng.normal(size=64)
        assert np.linalg.norm(apply_operator(op, x)) <= op.scale * np.linalg.norm(
            x
        ) + 1e-12


def test_scaled_projection_is_unbiased():
    rng = np.random.default_rng(6)
    x = rng.normal(size=32)
    x /= np.linalg.norm(x)
    estimates = [
        float(np.sum(apply_operator(random_subspace(32, 8, seed=s), x) ** 2))
        for s in range(2000)
    ]
    assert abs(np.mean(estimates) - 1.0) <= 0.03


# ---------------------------------------------------------------------------
# Distortion certification
# ---------------------------------------------------------------------------


def test_distortion_trivial_cases():
    op = random_subspace(8, 4, seed=9)
    single = distortion_ok(op, np.zeros((1, 8)))
    assert single.ok and single.pairs_checked == 0
    assert single.min_ratio is None and single.max_ratio is None
    duplicated = distortion_ok(op, np.vstack([np.eye(8)[:2], np.eye(8)[:1]]))
    # The duplicate pair is skipped; the distinct pairs drive the outcome.
    assert duplicated.pairs_checked == 2


def test_distortion_hand_computed_failure():
    # n = 1 of d = 2: the frame is sqrt(2) times the orthonormal row e1.
    op = MeasurementOperator(frame=np.array([[math.sqrt(2.0), 0.0]]))
    points = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    report = distortion_ok(op, points)
    # Pair (origin, e2) projects to distance 0: ratio 0 breaks the lower bound.
    assert not report.ok
    assert report.min_ratio == 0.0
    np.testing.assert_allclose(report.max_ratio, math.sqrt(2.0), rtol=1e-12)
    assert report.pairs_checked == 3


@settings(max_examples=200, deadline=None)
@given(
    m=st.integers(2, 12),
    k=st.integers(1, 40),
    rows=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
    scale=st.sampled_from([1e-3, 1.0, 1e3]),
    copies=st.lists(
        st.tuples(st.integers(0, 11), st.integers(0, 11), st.sampled_from([0.0, 1e-15, 1e-12, 1e-6])),
        max_size=6,
    ),
)
@example(m=2, k=1, rows=1, seed=0, scale=1.0, copies=[])
@example(m=2, k=1, rows=1, seed=0, scale=1.0, copies=[(0, 1, 0.0)])
@example(m=3, k=5, rows=2, seed=1, scale=1.0, copies=[(0, 1, 1e-15), (0, 2, 0.0)])
def test_pairwise_distances_match_pdist(m, k, rows, seed, scale, copies):
    # Each pair's difference is rounded once, as in pdist; only the order of
    # its sum of squares differs.  Coincident rows (a copy at offset 0) and
    # near-coincident ones (a copy moved by a small relative offset) included.
    from scipy.spatial.distance import pdist

    rng = np.random.default_rng(seed)
    points = scale * rng.normal(size=(m, k))
    for source, target, offset in copies:
        points[target % m] = points[source % m] * (1.0 + offset * rng.normal(size=k))
    expected = pdist(points)
    got = jl._pairwise_distances(points)
    assert got.shape == expected.shape
    np.testing.assert_allclose(got, expected, rtol=1e-13, atol=0.0)
    # distortion_ok skips the same coincident pairs and sees the same ratios.
    op = random_subspace(k, min(rows, k), seed=seed)
    report = distortion_ok(op, points)
    nonzero = expected > 0.0
    assert report.pairs_checked == np.count_nonzero(nonzero)
    if report.pairs_checked:
        ratios = pdist(points @ op.frame.T)[nonzero] / expected[nonzero]
        assert report.min_ratio == pytest.approx(ratios.min(), rel=1e-13, abs=0.0)
        assert report.max_ratio == pytest.approx(ratios.max(), rel=1e-13, abs=0.0)
    else:
        assert report.ok and report.min_ratio is None and report.max_ratio is None


def test_distortion_band_usually_holds_at_formula_count():
    rng = np.random.default_rng(42)
    points = rng.normal(size=(64, 512))
    points /= np.linalg.norm(points, axis=1, keepdims=True)
    n = math.ceil(20.0 * math.log(64 / 0.5))  # 98 rows, the union-bound rule at c 20
    hits = sum(
        distortion_ok(random_subspace(512, n, seed=s), points).ok for s in range(30)
    )
    assert hits / 30 >= 0.5  # expected near 1.0; the bound is conservative


def conditioned_gaussian(d, n, kappa):
    """A ``d x n`` matrix with singular values spread geometrically from 1 to 1/kappa."""
    rng = np.random.default_rng(int(math.log10(kappa)))
    left = np.linalg.qr(rng.standard_normal((d, n)))[0]
    right = np.linalg.qr(rng.standard_normal((n, n)))[0]
    return (left * np.geomspace(1.0, 1.0 / kappa, n)) @ right.T


class FixedRNG:
    """Stands in for ``np.random.default_rng(seed)``: draw ``i`` is ``matrices[i]``.

    Each matrix is a ``d x n`` Gaussian ``G``; a draw writes its ``G^T`` into
    the ``n x d`` buffer it is given, in one call.  The last matrix serves
    every draw past the list.  ``draws`` counts the draws made.
    """

    def __init__(self, *matrices):
        self.matrices = matrices
        self.draws = 0

    def standard_normal(self, *, out):
        out[...] = self.matrices[min(self.draws, len(self.matrices) - 1)].T
        self.draws += 1
        return out


def test_ill_conditioned_draw_needs_a_second_cholesky_pass(monkeypatch, caplog):
    # One Cholesky QR pass leaves an orthogonality error near kappa^2 u, about
    # 1e-5 here; the verified second pass brings it to rounding level.
    gaussian = conditioned_gaussian(300, 150, 1e6)
    monkeypatch.setattr(np.random, "default_rng", lambda seed: FixedRNG(gaussian))
    with caplog.at_level(logging.DEBUG, logger="netsketch.jl"):
        op = random_subspace(300, 150, seed=0)
    assert gram_error(op) <= 302 * np.finfo(np.float64).eps
    # The rows span the Gaussian's column space: projecting onto them keeps it.
    rows = op.frame / op.scale
    residual = gaussian - rows.T @ (rows @ gaussian)
    assert np.linalg.norm(residual) <= 1e-13 * np.linalg.norm(gaussian)
    (line,) = [r.getMessage() for r in caplog.records if r.name == "netsketch.jl"]
    assert "d=300 n=150 passes=2 " in line and "redraws=0" in line


def test_numerically_singular_draw_is_rank_deficient(monkeypatch):
    # At kappa = 1e9 the Gram matrix's condition number, 1e18, is past 1/u.
    gaussian = conditioned_gaussian(300, 150, 1e9)
    monkeypatch.setattr(np.random, "default_rng", lambda seed: FixedRNG(gaussian))
    with pytest.raises(NetSketchError):
        random_subspace(300, 150, seed=0)


def test_draw_leaves_scipy_linalg_unimported():
    # Importing scipy.linalg costs about 0.2 s of start-up; a draw needs none of it.
    probe = (
        "import sys; from netsketch.jl import random_subspace; "
        "random_subspace(64, 16, seed=1); print(*sys.modules)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert "scipy.linalg" not in proc.stdout.split()


def test_rank_deficiency_error_path(monkeypatch):
    monkeypatch.setattr(np.random, "default_rng", lambda seed: FixedRNG(np.zeros((4, 2))))
    with pytest.raises(NetSketchError):
        random_subspace(4, 2, seed=0)


def with_column(gaussian, column, scale):
    out = gaussian.copy()
    out[:, column] *= scale
    return out


@pytest.mark.parametrize("scale", [0.0, 1e-14])
def test_rank_deficiency_in_a_later_block_redraws(monkeypatch, scale):
    # Column 100 sits in the second diagonal block: the first factors, and the
    # second fails to (scale 0) or has a diagonal under _RANK_TOLERANCE.
    gaussian = with_column(np.random.default_rng(3).standard_normal((300, 150)), 100, scale)
    fake = FixedRNG(gaussian)
    monkeypatch.setattr(np.random, "default_rng", lambda seed: fake)
    cholesky, blocks = np.linalg.cholesky, []

    def counted(a):
        blocks.append(a.shape[0])
        return cholesky(a)

    monkeypatch.setattr(np.linalg, "cholesky", counted)
    with pytest.raises(NetSketchError, match="persisted over 4 attempts"):
        random_subspace(300, 150, seed=0)
    assert fake.draws == 1 + jl._QR_RETRIES
    assert blocks == [64, 64] * (1 + jl._QR_RETRIES)


def test_a_redraw_leaves_nothing_behind_in_the_buffers(monkeypatch, caplog):
    # The first bad draw needs a second pass, which is made to fail after the
    # first has overwritten the frame and the Gram buffer; the second fails
    # in its third diagonal block, after the first two have been factored in
    # place.  The good draw after them is the frame the good matrix gives alone.
    good = np.random.default_rng(5).standard_normal((300, 150))
    bad = (conditioned_gaussian(300, 150, 1e8), with_column(3.0 * good[::-1], 130, 0.0))
    monkeypatch.setattr(np.random, "default_rng", lambda seed: FixedRNG(good))
    alone = random_subspace(300, 150, seed=0).frame
    monkeypatch.setattr(np.random, "default_rng", lambda seed: FixedRNG(*bad, good))
    cholesky, calls = np.linalg.cholesky, []

    def failing_in_the_second_pass(a):
        calls.append(a.shape[0])
        if len(calls) == 4:  # blocks of 64, 64 and 22 rows, then pass 2
            raise np.linalg.LinAlgError("injected")
        return cholesky(a)

    monkeypatch.setattr(np.linalg, "cholesky", failing_in_the_second_pass)
    with caplog.at_level(logging.DEBUG, logger="netsketch.jl"):
        frame = random_subspace(300, 150, seed=0).frame
    assert np.array_equal(frame, alone)
    assert calls[:7] == [64, 64, 22, 64, 64, 64, 22]
    (line,) = [r.getMessage() for r in caplog.records if r.name == "netsketch.jl"]
    assert "redraws=2" in line
