"""Reconstruction pipeline: dimension choices, decoding, and the error audit."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from conftest import decoder_rows, row_scan
from hypothesis import given, settings
from hypothesis import strategies as st

from netsketch import nets, reconstructor
from netsketch.errors import AmbientTooSmallError, NetTooLargeError, UsageError
from netsketch.experiment import audit_trial
from netsketch.function_classes import PiecewiseSmoothClass, SmoothClass, TailDecayModel
from netsketch.hilbert import DEFAULT_AMBIENT_DIM, tail_norm
from netsketch.jl import apply_operator, exact_failure_bound, exact_measurements
from netsketch.reconstructor import (
    add_noise,
    measure,
    noise_shift,
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
    """Small materialized setting: 7 centers, d=36, n=6, not clamped."""
    family = SmoothClass(3, 2.0)
    model = TailDecayModel(constant=1.2, decay_exponent=0.5, norm_bound=2.5)
    rng = np.random.default_rng(11)
    return preprocess(family, 3.0, 0.5, model, rng)


@pytest.fixture(scope="module")
def factored_step_sampler():
    """Factored step net of 72 centers: d=300, n=12, ambient 512."""
    model = TailDecayModel(constant=450.0, decay_exponent=1.0, norm_bound=1.0)
    rng = np.random.default_rng(41)
    return preprocess(step_class(), 9.0, 0.5, model, rng, ambient_dim=512)


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
    # eps 3: tails t = 3 / 6 and r = (3 - 2 t) / (2 * 1.15) = 0.8696.
    assert s.budget.tail == pytest.approx(0.5)
    assert s.budget.resolution == pytest.approx(2.0 / 2.3)
    assert s.budget.band == (0.5, 1.15)
    assert s.net.plan.eps1 == s.budget.resolution
    assert s.d == 36
    assert s.net.size == 7
    assert s.net.mode == "configurations"
    # The exact tails certify 6 rows (0.464; 5 give 0.605), below d = 36.
    assert s.n == 6
    assert s.certified_failure_bound == pytest.approx(0.4642, abs=1e-4)
    assert not s.clamped
    assert s.decoder.maps.shape == (1, 36, len(s.net.plan.axes))
    assert s.operator.frame.shape == (6, 36)


def test_preprocess_clamps_operator_at_truncation_dimension():
    family = SmoothClass(3, 2.0)
    model = TailDecayModel(constant=1.0, decay_exponent=1.0, norm_bound=1.0)
    rng = np.random.default_rng(3)
    s = preprocess(family, 3.0, 0.5, model, rng)
    assert s.d == 2
    assert exact_measurements(0.5, s.d, s.net.size, 1, s.budget.band) == s.d
    assert s.n == 2
    assert s.clamped
    # a clamped operator is a full orthogonal map: exact isometry
    probe_rng = np.random.default_rng(17)
    for _ in range(10):
        v = probe_rng.standard_normal(s.d)
        ratio = np.linalg.norm(apply_operator(s.operator, v)) / np.linalg.norm(v)
        assert ratio == pytest.approx(1.0, abs=1e-10)


def test_preprocess_clamp_example_numbers():
    # A tail model stopping at d = 17 (0.4 / (0.6 / 6) squared, rounded up)
    # caps the operator there.
    model = TailDecayModel(constant=0.4, decay_exponent=0.5, norm_bound=1.0)
    rng = np.random.default_rng(29)
    s = preprocess(step_class(), 0.6, 0.5, model, rng)
    assert s.d == 17
    assert s.net.mode == "factored"
    # r 0.1739: P 900 and 21 levels, M = 900 * 21^2 = 396,900, whose exact
    # bound at n 16 is 0.824: no count below d is certified (from d 18 one is).
    assert s.net.size == 396_900
    assert s.decoder is s.net.decoder
    assert exact_failure_bound(16, 17, 396_900, 1, s.budget.band) == pytest.approx(0.8237, abs=1e-4)
    assert exact_measurements(0.5, 18, 396_900, 1, s.budget.band) == 17
    assert s.n == 17
    assert s.clamped
    assert s.certified_failure_bound == 0.0


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
    assert first.operator_seed == second.operator_seed
    assert np.array_equal(first.operator.frame, second.operator.frame)
    assert np.array_equal(first.decoder.maps, second.decoder.maps)
    other = preprocess(family, 3.0, 0.5, model, np.random.default_rng(43))
    assert other.operator_seed != first.operator_seed


def test_decoder_rows_are_read_only(smooth_sampler):
    with pytest.raises(ValueError):
        smooth_sampler.decoder.maps[0, 0, 0] = 1.0


def test_with_new_operator_keeps_net_and_redraws_frame(smooth_sampler):
    redrawn = with_new_operator(smooth_sampler, np.random.default_rng(8))
    assert redrawn.net is smooth_sampler.net
    assert redrawn.d == smooth_sampler.d
    assert redrawn.n == smooth_sampler.n
    assert not np.array_equal(redrawn.operator.frame, smooth_sampler.operator.frame)
    assert redrawn.decoder is smooth_sampler.decoder
    # centers still decode to themselves under the fresh frame
    center = decoder_rows(redrawn.decoder)[6]
    out = reconstruct(redrawn, apply_operator(redrawn.operator, center))
    assert out.index == 6
    assert out.distance == pytest.approx(0.0, abs=1e-12)
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
    assert draws == [sampler.operator_seed]
    assert (operator.n, operator.d) == (sampler.n, sampler.d)
    assert redrawn.operator is not operator
    assert draws == [sampler.operator_seed, redrawn.operator_seed]
    assert redrawn.operator_seed != sampler.operator_seed


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


def smooth_coefficients(sampler, seed):
    """A smooth member's first ``d`` coefficients, what ``measure`` takes."""
    family = SmoothClass(3, 2.0)
    return family.coefficient_prefix(family.sample(np.random.default_rng(seed), 4096), sampler.d)


def test_measure_noiseless_matches_operator(smooth_sampler):
    x = smooth_coefficients(smooth_sampler, 2)
    y = measure(smooth_sampler, x)
    assert np.array_equal(y, apply_operator(smooth_sampler.operator, x))


def test_measure_noise_is_bounded_per_coordinate(smooth_sampler):
    x = smooth_coefficients(smooth_sampler, 2)
    clean = measure(smooth_sampler, x)
    delta = 0.25
    bound = delta * smooth_sampler.operator.scale
    for seed in range(5):
        noisy = add_noise(smooth_sampler, clean, delta, np.random.default_rng(seed))
        shift = np.abs(noisy - clean)
        assert shift.max() <= bound
        assert shift.max() > 0.0


def test_measure_validates_noise_arguments(smooth_sampler):
    x = smooth_coefficients(smooth_sampler, 2)
    y = measure(smooth_sampler, x)
    with pytest.raises(UsageError):
        add_noise(smooth_sampler, y, -0.1, np.random.default_rng(2))
    with pytest.raises(UsageError):
        add_noise(smooth_sampler, y, 0.1, None)
    assert add_noise(smooth_sampler, y, 0.0, None) is y


# ---------------------------------------------------------------------------
# Decoding
# ---------------------------------------------------------------------------


def test_reconstruct_exact_center_measurement(smooth_sampler):
    y = apply_operator(smooth_sampler.operator, decoder_rows(smooth_sampler.decoder)[5])
    out = reconstruct(smooth_sampler, y)
    assert out.index == 5
    assert out.distance == pytest.approx(0.0, abs=1e-12)
    np.testing.assert_array_equal(out.coefficients, decoder_rows(smooth_sampler.decoder)[5])


@pytest.mark.parametrize("maps", [False, True])
def test_reconstruct_returns_the_decoders_result(factored_step_sampler, maps):
    sampler, family = factored_step_sampler, factored_step_sampler.net.family
    if maps:
        decoder = nets.ConfigurationDecoder(sampler.net.plan, sampler.d, family)
        sampler = replace(sampler, net=replace(sampler.net, decoder=decoder))
    assert isinstance(sampler.decoder, nets.ConfigurationDecoder) == maps
    member = family.sample(np.random.default_rng(59), 512)
    y = measure(sampler, family.coefficient_prefix(member, sampler.d))
    out = reconstruct(sampler, y)
    decoded = sampler.decoder.decode_measurements(y, sampler.decoder.prepare(sampler.operator))
    assert isinstance(out, nets.DecodeResult)
    assert out == decoded
    np.testing.assert_array_equal(out.coefficients, decoded.coefficients)
    np.testing.assert_array_equal(out.measured, decoded.measured)
    assert out.coordinates == decoded.coordinates


def test_noise_shift_is_the_largest_noise_length(smooth_sampler):
    operator = smooth_sampler.operator
    assert noise_shift(smooth_sampler, 0.0) == 0.0
    assert noise_shift(smooth_sampler, 0.1) == math.sqrt(operator.n) * 0.1 * operator.scale
    with pytest.raises(UsageError, match="non-negative"):
        noise_shift(smooth_sampler, -0.1)
    y = np.zeros(smooth_sampler.n)
    noisy = add_noise(smooth_sampler, y, 0.1, np.random.default_rng(61))
    assert 0.0 < np.linalg.norm(noisy - y) <= noise_shift(smooth_sampler, 0.1)


def test_reconstruct_breaks_ties_toward_lowest_index(smooth_sampler):
    # A second configuration repeating the first's map ties every center with
    # the one a net's length lower.
    decoder = smooth_sampler.decoder
    tied_decoder = nets.ConfigurationDecoder(decoder.plan, decoder.d, decoder.family)
    tied_decoder.maps = np.concatenate([decoder.maps, decoder.maps])
    tied_decoder.configurations = decoder.configurations * 2
    tied = replace(smooth_sampler, net=replace(smooth_sampler.net, decoder=tied_decoder))
    rows = decoder_rows(tied_decoder)
    measured = np.array([apply_operator(tied.operator, row) for row in rows])
    size = smooth_sampler.net.size
    assert reconstruct(tied, measured[size + 1]).index == 1
    assert tied_decoder.decode_coefficients(rows[size + 1]).index == 1
    # Both spaces against the row scan, near members and far from them.
    probe = np.random.default_rng(53)
    for scale in (1e-3, 0.3, 3.0):
        y = measured[probe.integers(len(rows))] + scale * probe.normal(size=tied.n)
        best, distance = row_scan(measured, y)
        out = reconstruct(tied, y)
        assert out.index == best < size
        assert out.distance == pytest.approx(distance, rel=1e-12)
        target = rows[probe.integers(len(rows))] + scale * probe.normal(size=tied.d)
        best, distance = row_scan(rows, target)
        result = tied_decoder.decode_coefficients(target)
        assert result.index == best < size
        assert result.distance == pytest.approx(distance, rel=1e-12)
        np.testing.assert_array_equal(result.coefficients, rows[result.index])


def test_reconstruct_validates_inputs(smooth_sampler):
    with pytest.raises(UsageError):
        reconstruct(smooth_sampler, np.zeros(smooth_sampler.n + 1))


def _ball(sampler):
    """A noiseless decode's reach when the witness pair keeps the band: ``a_hi r``."""
    return sampler.budget.band[1] * sampler.budget.resolution


def test_reconstruct_far_measurement_leaves_ball(smooth_sampler):
    center = decoder_rows(smooth_sampler.decoder)[0]
    y = apply_operator(smooth_sampler.operator, center) + 10.0
    out = reconstruct(smooth_sampler, y)
    assert out.distance > _ball(smooth_sampler)


def test_reconstruct_noiseless_members_stay_in_ball(smooth_sampler):
    family = SmoothClass(3, 2.0)
    rng = np.random.default_rng(23)
    for _ in range(20):
        x = family.sample(rng, DEFAULT_AMBIENT_DIM)
        x_d = family.coefficient_prefix(x, smooth_sampler.d)
        sketch = measure(smooth_sampler, x_d)
        out = reconstruct(smooth_sampler, sketch)
        audit = audit_trial(smooth_sampler, x, x_d, sketch, out, delta=0.0, trial=0)
        assert out.distance <= _ball(smooth_sampler)
        assert audit.ambient_error <= smooth_sampler.eps
        assert audit.guarantee_met


def test_reconstruct_noisy_accounting(smooth_sampler):
    family = SmoothClass(3, 2.0)
    rng = np.random.default_rng(31)
    delta = 0.1
    slack = noise_shift(smooth_sampler, delta)
    for _ in range(10):
        x = family.coefficient_prefix(family.sample(rng, DEFAULT_AMBIENT_DIM), smooth_sampler.d)
        y = add_noise(smooth_sampler, measure(smooth_sampler, x), delta, rng)
        out = reconstruct(smooth_sampler, y)
        assert out.distance <= _ball(smooth_sampler) + slack


def test_reconstruct_ambient_error_matches_padded_distance(smooth_sampler):
    family = SmoothClass(3, 2.0)
    x = family.sample(np.random.default_rng(37), DEFAULT_AMBIENT_DIM)
    x_d = family.coefficient_prefix(x, smooth_sampler.d)
    sketch = measure(smooth_sampler, x_d)
    out = reconstruct(smooth_sampler, sketch)
    audit = audit_trial(smooth_sampler, x, x_d, sketch, out, delta=0.0, trial=0)
    center = family.to_signal(out.member, DEFAULT_AMBIENT_DIM)
    expected = np.linalg.norm(x.coefficients - center.coefficients)
    assert audit.ambient_error == family.distance(x, out.member)
    assert audit.ambient_error == pytest.approx(expected, rel=1e-12)
    assert audit.guarantee_met == (audit.ambient_error <= smooth_sampler.eps)


def test_reconstruct_factored_agrees_with_materialized():
    family = step_class()
    model = TailDecayModel(constant=450.0, decay_exponent=1.0, norm_bound=1.0)
    rng = np.random.default_rng(41)
    s = preprocess(family, 9.0, 0.5, model, rng, ambient_dim=512)
    # r = (9 - 3) / 2.3 = 2.61: P 8 and 3 levels, M = 8 * 3^2 = 72, and
    # the exact tails certify n 12 (0.488; 11 give 0.627).
    assert s.net.mode == "factored" and s.net.size == 72
    assert s.d == 300 and s.n == 12 and not s.clamped
    # The configuration decoder over the same plan is the oracle.
    maps = nets.ConfigurationDecoder(s.net.plan, s.d, family)
    materialized = replace(s, net=replace(s.net, decoder=maps))
    probe = np.random.default_rng(43)
    for _ in range(10):
        x = family.coefficient_prefix(family.sample(probe, 512), s.d)
        y = measure(s, x) + probe.normal(0.0, 0.05, size=s.n)
        direct = reconstruct(materialized, y)
        via_decoder = reconstruct(s, y)
        assert via_decoder.distance == pytest.approx(
            direct.distance, rel=1e-9
        )
        if via_decoder.index == direct.index:
            assert via_decoder.member == direct.member
        else:
            # flat functions appear once per breakpoint position, so exact
            # duplicate centers can tie; both answers must then be the same
            # function
            decoded = family.to_signal(via_decoder.member, 512)
            chosen = family.to_signal(direct.member, 512)
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

    The error and the tails are exact.  The first ``d`` coefficients are
    orthogonal to the rest, so the squared error is the squared projected
    offset plus the squared distance between the two tails: on ``ambient``
    coefficients exactly for a smooth member, which has no more, and at
    least that for a step member, which has more.  The triangle inequality
    bounds the error by the three terms, and their budgets add up to eps.
    """
    base = factored_step_sampler if factored else smooth_sampler
    family = base.net.family
    rng = np.random.default_rng(seed)
    sampler = with_new_operator(base, rng)
    ambient = 512 if factored else DEFAULT_AMBIENT_DIM
    member = family.sample(rng, ambient)
    x_d = family.coefficient_prefix(member, sampler.d)
    sketch = measure(sampler, x_d)
    out = reconstruct(sampler, sketch)
    audit = audit_trial(sampler, member, x_d, sketch, out, delta=0.0, trial=0)

    d, budget = sampler.d, sampler.budget
    lower, upper = budget.band
    x = family.to_signal(member, ambient)
    center = family.to_signal(out.member, ambient)
    assert audit.ambient_error == family.distance(member, out.member)
    assert audit.truncation_tail >= tail_norm(x, d) - 1e-12
    assert audit.center_tail >= tail_norm(center, d) - 1e-12
    split = audit.projected_offset**2 + np.sum((x.coefficients[d:] - center.coefficients[d:]) ** 2)
    if factored:
        assert audit.ambient_error**2 >= split * (1.0 - 1e-12)
    else:
        assert audit.ambient_error**2 == pytest.approx(split, rel=1e-12)
    total = audit.truncation_tail + audit.projected_offset + audit.center_tail
    assert audit.ambient_error <= total + 1e-12
    offset_budget = upper / lower * budget.resolution
    assert budget.tail + offset_budget + budget.tail == pytest.approx(sampler.eps, rel=1e-12)
    if (
        audit.truncation_tail <= budget.tail
        and audit.projected_offset <= offset_budget
        and audit.center_tail <= budget.tail
    ):
        assert audit.guarantee_met
    assert audit.guarantee_met == (audit.ambient_error <= sampler.eps)
    assert audit.counterexample == (audit.premise and not audit.guarantee_met)


def test_audit_trial_refuses_a_sketch_of_another_length(smooth_sampler):
    family = SmoothClass(3, 2.0)
    x = family.sample(np.random.default_rng(47), DEFAULT_AMBIENT_DIM)
    x_d = family.coefficient_prefix(x, smooth_sampler.d)
    sketch = measure(smooth_sampler, x_d)
    out = reconstruct(smooth_sampler, sketch)
    for wrong in (sketch[:-1], np.append(sketch, 0.0), sketch[None, :]):
        with pytest.raises(UsageError, match="sketch of"):
            audit_trial(smooth_sampler, x, x_d, wrong, out, delta=0.0, trial=0)
    with pytest.raises(UsageError, match=f"expected {smooth_sampler.d} coefficients"):
        audit_trial(smooth_sampler, x, x.coefficients, sketch, out, delta=0.0, trial=0)
