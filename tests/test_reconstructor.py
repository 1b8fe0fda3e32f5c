"""Reconstruction pipeline: dimension choices, decoding, and the error audit."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netsketch import nets, reconstructor
from netsketch.errors import AmbientTooSmallError, NetTooLargeError, UsageError
from netsketch.experiment import audit_trial
from netsketch.function_classes import PiecewiseSmoothClass, SmoothClass, TailDecayModel
from netsketch.hilbert import Signal
from netsketch.jl import apply_operator, required_measurements
from netsketch.nets import MaterializedDecoder, build_net
from netsketch.reconstructor import (
    measure,
    preprocess,
    reconstruct,
    truncation_dimension,
    with_new_operator,
)


def step_class() -> PiecewiseSmoothClass:
    return PiecewiseSmoothClass(
        degree=0, max_jumps=1, deriv_bound=1.0, min_gap=0.5, level_bound=1.0
    )


@pytest.fixture(scope="module")
def smooth_sampler():
    """Small materialized setting: 39 centers, d=36, n=30, not clamped."""
    family = SmoothClass(3, 2.0)
    model = TailDecayModel(constant=1.2, decay_exponent=0.5, norm_bound=2.5)
    rng = np.random.default_rng(11)
    return preprocess(family, 3.0, 0.5, model, rng, jl_constant=4.0)


@pytest.fixture(scope="module")
def factored_step_sampler():
    """Factored step net of 1,125 centers: d=300, n=282, ambient 512."""
    model = TailDecayModel(constant=450.0, decay_exponent=1.0, norm_bound=1.0)
    rng = np.random.default_rng(41)
    return preprocess(step_class(), 9.0, 0.5, model, rng, ambient_dim=512, m_max=1000)


# ---------------------------------------------------------------------------
# Truncation dimension
# ---------------------------------------------------------------------------


def test_truncation_dimension_is_minimal():
    model = TailDecayModel(constant=1.0, decay_exponent=0.5, norm_bound=1.0)
    d = truncation_dimension(model, 0.1)
    assert d == 100
    # the absolute tail bound C * R * d**-beta first drops to eps1 at d
    mass = model.constant * model.norm_bound
    assert mass * d ** -model.decay_exponent <= 0.1
    assert mass * (d - 1) ** -model.decay_exponent > 0.1
    # the eps -> eps/6 split lands on the same dimension
    assert truncation_dimension(model, 0.6 / 6.0) == 100


def test_truncation_dimension_saturates_at_one():
    model = TailDecayModel(constant=1.0, decay_exponent=0.5, norm_bound=1.0)
    assert truncation_dimension(model, 1.0) == 1
    assert truncation_dimension(model, 7.5) == 1
    zero_mass = TailDecayModel(constant=0.0, decay_exponent=2.0, norm_bound=3.0)
    assert truncation_dimension(zero_mass, 0.01) == 1


def test_truncation_dimension_rejects_degenerate_models():
    for beta in (math.inf, 0.0, -1.0, math.nan):
        model = TailDecayModel(constant=1.0, decay_exponent=beta, norm_bound=1.0)
        with pytest.raises(UsageError):
            truncation_dimension(model, 0.5)
    good = TailDecayModel(constant=1.0, decay_exponent=1.0, norm_bound=1.0)
    with pytest.raises(UsageError):
        truncation_dimension(good, 0.0)


def test_truncation_dimension_beyond_float_range_is_a_usage_error():
    # (10 / 1e-3) ** (1 / 0.01) = 1e400 overflows a float.
    slow = TailDecayModel(constant=1.0, decay_exponent=0.01, norm_bound=10.0)
    with pytest.raises(UsageError, match="beyond floating-point range"):
        truncation_dimension(slow, 1e-3)


# ---------------------------------------------------------------------------
# Preprocessing
# ---------------------------------------------------------------------------


def test_preprocess_dimensions_smooth(smooth_sampler):
    s = smooth_sampler
    assert s.eps1 == pytest.approx(0.5)
    assert s.d == 36
    assert s.net.size == 39
    assert s.net.mode == "materialized"
    # ceil(4 / (1 - 0.5) * ln 40) = 30 rows wanted, below d = 36
    assert s.n == 30
    assert not s.clamped
    assert s.decoder.rows.shape == (39, 36)
    assert s.operator.frame.shape == (30, 36)


def test_preprocess_clamps_operator_at_truncation_dimension():
    family = SmoothClass(3, 2.0)
    model = TailDecayModel(constant=1.0, decay_exponent=1.0, norm_bound=1.0)
    rng = np.random.default_rng(3)
    s = preprocess(family, 3.0, 0.5, model, rng)
    assert s.d == 2
    assert required_measurements(0.5, s.net.size + 1) > s.d
    assert s.n == 2
    assert s.clamped
    # a clamped operator is a full orthogonal map: exact isometry
    probe_rng = np.random.default_rng(17)
    for _ in range(10):
        v = probe_rng.standard_normal(s.d)
        ratio = np.linalg.norm(apply_operator(s.operator, v)) / np.linalg.norm(v)
        assert ratio == pytest.approx(1.0, abs=1e-10)


def test_preprocess_clamp_example_numbers():
    # 100 centers at p = 1/2 want ceil(40 ln 101) = 185 rows; a tail model
    # stopping at d = 100 caps the operator there.
    assert required_measurements(0.5, 101) == 185
    model = TailDecayModel(constant=1.0, decay_exponent=0.5, norm_bound=1.0)
    rng = np.random.default_rng(29)
    s = preprocess(step_class(), 0.6, 0.5, model, rng)
    assert s.d == 100
    assert s.net.mode == "factored"
    assert s.net.size == 50_682_214
    assert s.decoder is s.net.decoder
    assert s.n == 100
    assert s.clamped


def test_preprocess_ambient_too_small_reports_requirement():
    model = TailDecayModel(constant=1.0, decay_exponent=0.5, norm_bound=1.0)
    rng = np.random.default_rng(5)
    with pytest.raises(AmbientTooSmallError, match="100"):
        preprocess(step_class(), 0.6, 0.5, model, rng, ambient_dim=64)


def test_preprocess_rejects_undecodable_net():
    family = PiecewiseSmoothClass(
        degree=1, max_jumps=2, deriv_bound=1.0, min_gap=1.5, level_bound=1.0
    )
    model = TailDecayModel(constant=1.0, decay_exponent=1.0, norm_bound=1.0)
    rng = np.random.default_rng(5)
    with pytest.raises(NetTooLargeError):
        preprocess(family, 0.75 * 6.0, 0.5, model, rng, m_max=1000)


def test_preprocess_rejects_bad_inputs():
    family = SmoothClass(1, 1.0)
    model = TailDecayModel(constant=1.0, decay_exponent=1.0, norm_bound=1.0)
    rng = np.random.default_rng(0)
    with pytest.raises(UsageError):
        preprocess(family, 0.0, 0.5, model, rng)
    with pytest.raises(UsageError):
        preprocess(family, math.inf, 0.5, model, rng)
    with pytest.raises(UsageError):
        preprocess(family, 1.0, 1.0, model, rng)
    with pytest.raises(UsageError):
        preprocess(family, 1.0, 0.5, model, rng, ambient_dim=0)
    degenerate = TailDecayModel(constant=1.0, decay_exponent=math.inf, norm_bound=1.0)
    with pytest.raises(UsageError):
        preprocess(family, 1.0, 0.5, degenerate, rng)


def test_preprocess_is_deterministic_given_stream():
    family = SmoothClass(3, 2.0)
    model = TailDecayModel(constant=1.2, decay_exponent=0.5, norm_bound=2.5)
    first = preprocess(family, 3.0, 0.5, model, np.random.default_rng(42))
    second = preprocess(family, 3.0, 0.5, model, np.random.default_rng(42))
    assert first.operator.seed == second.operator.seed
    assert np.array_equal(first.operator.frame, second.operator.frame)
    assert np.array_equal(first.decoder.rows, second.decoder.rows)
    other = preprocess(family, 3.0, 0.5, model, np.random.default_rng(43))
    assert other.operator.seed != first.operator.seed


def test_decoder_rows_are_read_only(smooth_sampler):
    with pytest.raises(ValueError):
        smooth_sampler.decoder.rows[0, 0] = 1.0


def test_with_new_operator_keeps_net_and_redraws_frame(smooth_sampler):
    redrawn = with_new_operator(smooth_sampler, np.random.default_rng(8))
    assert redrawn.net is smooth_sampler.net
    assert redrawn.d == smooth_sampler.d
    assert redrawn.n == smooth_sampler.n
    assert not np.array_equal(redrawn.operator.frame, smooth_sampler.operator.frame)
    assert redrawn.decoder is smooth_sampler.decoder
    # centers still decode to themselves under the fresh frame
    out = reconstruct(redrawn, apply_operator(redrawn.operator, redrawn.decoder.rows[7]))
    assert out.index == 7
    assert out.projected_distance == pytest.approx(0.0, abs=1e-12)
    # redraws are reproducible from the stream
    again = with_new_operator(smooth_sampler, np.random.default_rng(8))
    assert np.array_equal(again.operator.frame, redrawn.operator.frame)


def test_operator_is_drawn_from_its_seed_on_first_use(monkeypatch):
    draws = []
    draw = reconstructor.random_subspace

    def counted(*args, **kwargs):
        draws.append(kwargs["seed"])
        return draw(*args, **kwargs)

    monkeypatch.setattr(reconstructor, "random_subspace", counted)
    family = SmoothClass(3, 2.0)
    model = TailDecayModel(constant=1.2, decay_exponent=0.5, norm_bound=2.5)
    sampler = preprocess(family, 3.0, 0.5, model, np.random.default_rng(11))
    redrawn = with_new_operator(sampler, np.random.default_rng(8))
    assert draws == []
    operator = sampler.operator
    assert sampler.operator is operator
    assert draws == [sampler.operator_seed] == [operator.seed]
    assert (operator.n, operator.d) == (sampler.n, sampler.d)
    assert redrawn.operator.seed == redrawn.operator_seed != operator.seed
    assert draws == [operator.seed, redrawn.operator_seed]


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


def test_measure_noiseless_matches_operator(smooth_sampler):
    x = SmoothClass(3, 2.0).sample(np.random.default_rng(2), 4096)
    y = measure(smooth_sampler, x)
    assert np.array_equal(y, apply_operator(smooth_sampler.operator, x))


def test_measure_noise_is_bounded_per_coordinate(smooth_sampler):
    x = SmoothClass(3, 2.0).sample(np.random.default_rng(2), 4096)
    clean = measure(smooth_sampler, x)
    delta = 0.25
    bound = delta * smooth_sampler.operator.scale
    for seed in range(5):
        noisy = measure(smooth_sampler, x, delta=delta, rng=np.random.default_rng(seed))
        shift = np.abs(noisy - clean)
        assert shift.max() <= bound
        assert shift.max() > 0.0


def test_measure_validates_noise_arguments(smooth_sampler):
    x = SmoothClass(3, 2.0).sample(np.random.default_rng(2), 4096)
    with pytest.raises(UsageError):
        measure(smooth_sampler, x, delta=-0.1)
    with pytest.raises(UsageError):
        measure(smooth_sampler, x, delta=0.1)


# ---------------------------------------------------------------------------
# Decoding
# ---------------------------------------------------------------------------


def test_reconstruct_exact_center_measurement(smooth_sampler):
    y = apply_operator(smooth_sampler.operator, smooth_sampler.decoder.rows[5])
    out = reconstruct(smooth_sampler, y)
    assert out.index == 5
    assert out.projected_distance == pytest.approx(0.0, abs=1e-12)
    assert out.within_ball


def test_reconstruct_breaks_ties_toward_lowest_index(smooth_sampler, monkeypatch):
    rows = np.array(smooth_sampler.decoder.rows)
    rows[4] = rows[1]
    decoder = MaterializedDecoder(smooth_sampler.net.members, rows)
    tied = replace(smooth_sampler, decoder=decoder)
    measured = np.array([apply_operator(tied.operator, row) for row in rows])
    probe = np.random.default_rng(53)
    # One block holds the whole table; then blocks of four rows put the tied
    # rows in different blocks.
    for block_bytes in (nets._SCAN_BLOCK_BYTES, 4 * 8 * tied.n):
        monkeypatch.setattr(nets, "_SCAN_BLOCK_BYTES", block_bytes)
        assert reconstruct(tied, measured[1]).index == 1
        assert decoder.decode_coefficients(rows[1]).index == 1
        # Both spaces against brute force, near members and far from them.
        for scale in (1e-3, 0.3, 3.0):
            y = measured[probe.integers(len(rows))] + scale * probe.normal(size=tied.n)
            distances = np.linalg.norm(measured - y, axis=1)
            out = reconstruct(tied, y)
            assert out.index == int(np.argmin(distances))
            assert out.projected_distance == pytest.approx(
                distances[out.index], rel=1e-12
            )
            target = rows[probe.integers(len(rows))] + scale * probe.normal(size=tied.d)
            distances = np.linalg.norm(rows - target, axis=1)
            result = decoder.decode_coefficients(target)
            assert result.index == int(np.argmin(distances))
            assert result.distance == pytest.approx(distances[result.index], rel=1e-12)
            np.testing.assert_array_equal(result.coefficients, rows[result.index])


def test_reconstruct_validates_inputs(smooth_sampler):
    with pytest.raises(UsageError):
        reconstruct(smooth_sampler, np.zeros(smooth_sampler.n + 1))
    with pytest.raises(UsageError):
        reconstruct(smooth_sampler, np.zeros(smooth_sampler.n), delta=-1.0)


def test_reconstruct_far_measurement_leaves_ball(smooth_sampler):
    y = apply_operator(smooth_sampler.operator, smooth_sampler.decoder.rows[0]) + 10.0
    out = reconstruct(smooth_sampler, y)
    assert not out.within_ball
    assert out.projected_distance > 2.0 * smooth_sampler.eps1


def test_reconstruct_noiseless_members_stay_in_ball(smooth_sampler):
    family = SmoothClass(3, 2.0)
    rng = np.random.default_rng(23)
    for _ in range(20):
        x = family.sample(rng, smooth_sampler.ambient_dim)
        out = reconstruct(smooth_sampler, measure(smooth_sampler, x))
        audit = audit_trial(smooth_sampler, x, out, delta=0.0, trial=0)
        assert out.within_ball
        assert audit.ambient_error <= smooth_sampler.eps
        assert audit.guarantee_met


def test_reconstruct_noisy_accounting(smooth_sampler):
    family = SmoothClass(3, 2.0)
    rng = np.random.default_rng(31)
    delta = 0.1
    slack = math.sqrt(smooth_sampler.n) * delta * smooth_sampler.operator.scale
    for _ in range(10):
        x = family.sample(rng, smooth_sampler.ambient_dim)
        y = measure(smooth_sampler, x, delta=delta, rng=rng)
        out = reconstruct(smooth_sampler, y, delta=delta)
        assert out.within_ball == (
            out.projected_distance <= 2.0 * smooth_sampler.eps1 + slack
        )
        assert out.within_ball


def test_reconstruct_ambient_error_matches_padded_distance(smooth_sampler):
    family = SmoothClass(3, 2.0)
    x = family.sample(np.random.default_rng(37), smooth_sampler.ambient_dim)
    out = reconstruct(smooth_sampler, measure(smooth_sampler, x))
    audit = audit_trial(smooth_sampler, x, out, delta=0.0, trial=0)
    center = family.to_signal(out.center, smooth_sampler.ambient_dim)
    expected = np.linalg.norm(x.coefficients - center.coefficients)
    assert audit.ambient_error == pytest.approx(expected, rel=1e-12)
    assert audit.guarantee_met == (audit.ambient_error <= smooth_sampler.eps)


def test_reconstruct_factored_agrees_with_materialized():
    family = step_class()
    model = TailDecayModel(constant=450.0, decay_exponent=1.0, norm_bound=1.0)
    rng = np.random.default_rng(41)
    s = preprocess(family, 9.0, 0.5, model, rng, ambient_dim=512)
    assert s.net.mode == "materialized" and s.net.size == 1125
    assert s.d == 300 and s.n == 282 and not s.clamped
    factored_net = build_net(family, s.eps1, mode="factored")
    factored = replace(s, net=factored_net, decoder=factored_net.decoder)
    probe = np.random.default_rng(43)
    for _ in range(10):
        x = family.to_signal(family.sample(probe, 512), 512)
        y = measure(s, x) + probe.normal(0.0, 0.05, size=s.n)
        direct = reconstruct(s, y)
        via_decoder = reconstruct(factored, y)
        assert via_decoder.projected_distance == pytest.approx(
            direct.projected_distance, rel=1e-9
        )
        if via_decoder.index == direct.index:
            assert via_decoder.center == direct.center
        else:
            # flat functions appear once per breakpoint position, so exact
            # duplicate centers can tie; both answers must then be the same
            # function
            decoded = family.to_signal(via_decoder.center, 512)
            chosen = family.to_signal(direct.center, 512)
            assert np.allclose(decoded.coefficients, chosen.coefficients, atol=1e-9)


# ---------------------------------------------------------------------------
# Guarantee audit
# ---------------------------------------------------------------------------


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), factored=st.booleans())
def test_audit_decomposes_ambient_error(
    smooth_sampler, factored_step_sampler, seed, factored
):
    """The audit's three terms against its ambient error, on fresh operators.

    The first ``d`` coefficients are orthogonal to the rest, so the squared
    ambient error splits exactly into the squared projected offset and the
    squared distance between the two tails; the triangle inequality then
    bounds the error by the three terms, and their budgets add up to eps.
    """
    base = factored_step_sampler if factored else smooth_sampler
    family = base.net.family
    rng = np.random.default_rng(seed)
    sampler = with_new_operator(base, rng)
    x = family.to_signal(family.sample(rng, sampler.ambient_dim), sampler.ambient_dim)
    out = reconstruct(sampler, measure(sampler, x))
    audit = audit_trial(sampler, x, out, delta=0.0, trial=0)

    d, eps1 = sampler.d, sampler.eps1
    center = family.to_signal(out.center, sampler.ambient_dim).coefficients
    tail_gap = np.linalg.norm(x.coefficients[d:] - center[d:])
    assert audit.ambient_error**2 == pytest.approx(
        audit.projected_offset**2 + tail_gap**2, rel=1e-12
    )
    assert audit.ambient_error == pytest.approx(
        np.linalg.norm(x.coefficients - center), rel=1e-12
    )
    total = audit.truncation_tail + audit.projected_offset + audit.center_tail
    assert audit.ambient_error <= total + 1e-12
    assert eps1 + 4.0 * eps1 + eps1 == pytest.approx(sampler.eps, rel=1e-12)
    if (
        audit.truncation_tail <= eps1
        and audit.projected_offset <= 4.0 * eps1
        and audit.center_tail <= eps1
    ):
        assert audit.guarantee_met
    assert audit.guarantee_met == (audit.ambient_error <= sampler.eps)
    assert audit.counterexample == (audit.premise and not audit.guarantee_met)


def test_audit_trial_refuses_short_ground_truth(smooth_sampler):
    short = Signal(np.array([0.3, -0.2]))
    padded = np.zeros(smooth_sampler.d)
    padded[:2] = short.coefficients
    out = reconstruct(smooth_sampler, measure(smooth_sampler, Signal(padded)))
    with pytest.raises(UsageError, match="fewer than d"):
        audit_trial(smooth_sampler, short, out, delta=0.0, trial=0)
