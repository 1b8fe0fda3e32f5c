"""Tests for random subspace measurement operators and distortion checks."""

from __future__ import annotations

import logging
import math
import subprocess
import sys

import numpy as np
import pytest

from netsketch.errors import NetSketchError, UsageError
from netsketch.hilbert import Signal
from netsketch.jl import (
    MeasurementOperator,
    apply_operator,
    distortion_ok,
    random_subspace,
    required_measurements,
)

# ---------------------------------------------------------------------------
# Measurement-count formula (frozen arithmetic)
# ---------------------------------------------------------------------------


def test_required_measurements_frozen_values():
    assert required_measurements(0.5, 8) == 84  # ceil(40 * ln 8) = ceil(83.177...)
    assert required_measurements(0.9, 3) == 220  # ceil(200 * ln 3) = ceil(219.72...)
    assert required_measurements(0.5, 101) == 185  # ceil(40 * ln 101)
    assert required_measurements(0.5, 64) == 167  # ceil(40 * ln 64)


def test_required_measurements_rejects_bad_input():
    with pytest.raises(UsageError):
        required_measurements(0.0, 8)
    with pytest.raises(UsageError):
        required_measurements(1.0, 8)
    with pytest.raises(UsageError):
        required_measurements(0.5, 1)
    with pytest.raises(UsageError):
        required_measurements(0.5, 8, jl_constant=0.0)


# ---------------------------------------------------------------------------
# Random subspaces
# ---------------------------------------------------------------------------


def householder_frame(gaussian):
    """The reference frame: Householder QR's ``Q``, signs fixed so ``diag R > 0``."""
    q, r = np.linalg.qr(gaussian, mode="reduced")
    return (q * np.where(np.diag(r) < 0.0, -1.0, 1.0)).T


def gram_error(frame):
    return np.max(np.abs(frame @ frame.T - np.eye(frame.shape[0])))


def test_orthonormal_rows():
    # The square shapes have the worst-conditioned Gaussians, so their first
    # Cholesky pass is the one most often repeated.
    for d, n in ((512, 128), (512, 167), (300, 150), (1, 1), (2, 2), (32, 32), (301, 301)):
        op = random_subspace(d, n, seed=7)
        assert op.d == d and op.n == n
        assert gram_error(op.frame) <= (d + 2) * np.finfo(np.float64).eps
        reference = householder_frame(np.random.default_rng(7).standard_normal((d, n)))
        np.testing.assert_allclose(op.frame, reference, rtol=0.0, atol=1e-13)
        np.testing.assert_allclose(op.scale**2 * op.n / op.d, 1.0, atol=1e-12)


def test_seed_determinism():
    a = random_subspace(64, 16, seed=123)
    b = random_subspace(64, 16, seed=123)
    assert np.array_equal(a.frame, b.frame)
    c = random_subspace(64, 16, seed=124)
    assert not np.array_equal(a.frame, c.frame)


def test_operator_frame_cannot_be_written_through():
    frame = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    op = MeasurementOperator(frame=frame, seed=0)
    frame[0, 0] = 5.0
    assert op.frame[0, 0] == 1.0 and not op.frame.flags.writeable
    with pytest.raises(ValueError):
        op.frame[0, 0] = 5.0
    # A read-only view of a writable array is copied too.
    view = frame[:, :]
    view.setflags(write=False)
    op = MeasurementOperator(frame=view, seed=0)
    frame[0, 0] = 7.0
    assert op.frame[0, 0] == 5.0 and not op.frame.flags.writeable
    # A fresh frame from the draw is read-only already and kept as it is.
    drawn = random_subspace(16, 4, seed=3).frame
    assert not drawn.flags.writeable
    assert MeasurementOperator(frame=drawn, seed=3).frame is drawn


def test_full_rank_case_is_invertible():
    op = random_subspace(32, 32, seed=5)
    rng = np.random.default_rng(0)
    x = rng.normal(size=32)
    y = apply_operator(op, x)
    # n = d: scale is 1 and the frame is a full orthogonal basis.
    back = op.frame.T @ (y / op.scale)
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


def test_apply_truncates_long_inputs():
    op = random_subspace(16, 4, seed=3)
    rng = np.random.default_rng(2)
    long_vec = rng.normal(size=64)
    np.testing.assert_array_equal(
        apply_operator(op, long_vec), apply_operator(op, long_vec[:16])
    )
    signal = Signal(long_vec)
    np.testing.assert_array_equal(
        apply_operator(op, signal), apply_operator(op, long_vec[:16])
    )
    with pytest.raises(UsageError):
        apply_operator(op, np.zeros(8))


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
    frame = np.array([[1.0, 0.0]])
    op = MeasurementOperator(frame=frame, seed=0)
    points = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    report = distortion_ok(op, points)
    # Pair (origin, e2) projects to distance 0: ratio 0 breaks the lower bound.
    assert not report.ok
    assert report.min_ratio == 0.0
    np.testing.assert_allclose(report.max_ratio, math.sqrt(2.0), rtol=1e-12)
    assert report.pairs_checked == 3


def test_distortion_band_usually_holds_at_formula_count():
    rng = np.random.default_rng(42)
    points = rng.normal(size=(64, 512))
    points /= np.linalg.norm(points, axis=1, keepdims=True)
    n = required_measurements(0.5, 64)
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
    """Stands in for ``np.random.default_rng(seed)``: every draw is ``matrix``."""

    def __init__(self, matrix):
        self.matrix = matrix

    def standard_normal(self, size):
        assert size == self.matrix.shape
        return self.matrix.copy()


def test_ill_conditioned_draw_needs_a_second_cholesky_pass(monkeypatch, caplog):
    # One Cholesky QR pass leaves an orthogonality error near kappa^2 u, about
    # 1e-5 here; the verified second pass brings it to rounding level.
    gaussian = conditioned_gaussian(300, 150, 1e6)
    monkeypatch.setattr(np.random, "default_rng", lambda seed: FixedRNG(gaussian))
    with caplog.at_level(logging.DEBUG, logger="netsketch.jl"):
        op = random_subspace(300, 150, seed=0)
    assert gram_error(op.frame) <= 302 * np.finfo(np.float64).eps
    # The rows span the Gaussian's column space: projecting onto them keeps it.
    residual = gaussian - op.frame.T @ (op.frame @ gaussian)
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
