"""Tests for the generative function classes and tail-decay fitting."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
import pytest
from conftest import linear_expansion_bound, oracle_l2_distance
from hypothesis import given, settings
from hypothesis import strategies as st

from netsketch.config import CLASSES
from netsketch.errors import UsageError
from netsketch.function_classes import (
    AnalyticStepMember,
    PiecewiseAnalyticClass,
    PiecewiseSmoothClass,
    SmoothClass,
    TailDecayModel,
    count_tail_violations,
    fit_tail_model,
)
from netsketch.hilbert import PiecewiseDescription, Signal, tail_norm
from netsketch.reconstructor import truncation_dimension

# ---------------------------------------------------------------------------
# Tail-decay fitting
# ---------------------------------------------------------------------------


def exact_power_tail_signal(beta: float, dim: int, scale: float = 1.0) -> Signal:
    """Signal whose tail norm is exactly ``scale * d**-beta`` for d < dim."""
    d = np.arange(1, dim - 1, dtype=np.float64)
    coeffs = np.empty(dim)
    coeffs[1:-1] = scale * np.sqrt(d ** (-2 * beta) - (d + 1) ** (-2 * beta))
    # The last coefficient absorbs the whole remaining tail so the telescoping
    # sum gives tail(d)^2 = scale^2 * d^(-2 beta) with no finite-size remainder.
    coeffs[-1] = scale * float(dim - 1) ** (-beta)
    coeffs[0] = scale
    return Signal(coeffs)


def test_fit_recovers_exact_power_law():
    samples = [exact_power_tail_signal(0.75, 512), exact_power_tail_signal(0.75, 512, 3.0)]
    model = fit_tail_model(samples, dims=[2, 4, 8, 16, 32, 64])
    assert abs(model.decay_exponent - 0.75) <= 1e-9
    assert count_tail_violations(model, samples, [2, 4, 8, 16, 32, 64]) == 0
    expected_r = 1.1 * max(s.norm() for s in samples)
    np.testing.assert_allclose(model.norm_bound, expected_r, rtol=1e-12)


def test_fit_constant_is_the_largest_residual():
    sample = exact_power_tail_signal(1.0, 256)
    model = fit_tail_model([sample], dims=[2, 4, 8, 16])
    # tail(d) = d^-1 exactly and |x| = sqrt(2), so C = 1/sqrt(2).
    np.testing.assert_allclose(model.constant, 1.0 / sample.norm(), rtol=1e-9)


def test_fit_rejects_degenerate_inputs():
    sample = exact_power_tail_signal(0.5, 64)
    with pytest.raises(UsageError):
        fit_tail_model([], dims=[2, 4])
    with pytest.raises(UsageError):
        fit_tail_model([sample], dims=[4])
    with pytest.raises(UsageError):
        fit_tail_model([Signal(np.zeros(16))], dims=[2, 4])


def test_fit_flags_vanishing_tails():
    compact = Signal(np.concatenate([np.ones(3), np.zeros(61)]))
    model = fit_tail_model([compact], dims=[4, 8, 16])
    assert math.isinf(model.decay_exponent)
    assert model.constant == 0.0
    # The absolute bound C * R * d**-beta vanishes with the constant.
    assert model.constant * model.norm_bound * 32.0 ** -model.decay_exponent == 0.0


def test_tail_bound_hand_value():
    model = TailDecayModel(constant=2.0, decay_exponent=0.5, norm_bound=3.0)
    bound = model.constant * model.norm_bound * 4.0 ** -model.decay_exponent
    np.testing.assert_allclose(bound, 3.0, rtol=1e-15)
    # d starts at 1: truncation_dimension never asks for the bound at 0.
    assert truncation_dimension(model, 100.0) == 1


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.integers(min_value=1, max_value=2**31 - 1),
        min_size=1,
        max_size=6,
    )
)
def test_fitted_model_is_sound_on_its_own_data(seeds):
    rng_samples = [
        Signal(np.random.default_rng(seed).normal(size=128) / np.arange(1, 129))
        for seed in seeds
    ]
    dims = [4, 8, 16, 32, 64]
    model = fit_tail_model(rng_samples, dims)
    assert count_tail_violations(model, rng_samples, dims) == 0


def test_fitted_slope_bands_for_reference_classes():
    rng = np.random.default_rng(2024)
    dims = [16, 32, 64, 128, 256]
    piecewise = PiecewiseSmoothClass(
        degree=1, max_jumps=2, deriv_bound=1.0, min_gap=0.5, level_bound=1.0
    )
    piecewise_samples = [
        piecewise.to_signal(piecewise.sample(rng, 2048), 2048) for _ in range(40)
    ]
    rough = fit_tail_model(piecewise_samples, dims)
    assert 0.4 <= rough.decay_exponent <= 0.6
    smooth = SmoothClass(smoothness=2, amplitude=100.0)
    smooth_samples = [smooth.sample(rng, 2048) for _ in range(40)]
    regular = fit_tail_model(smooth_samples, dims)
    assert 1.3 <= regular.decay_exponent <= 1.7


# ---------------------------------------------------------------------------
# Smooth class
# ---------------------------------------------------------------------------


def test_smooth_samples_are_members():
    cls = SmoothClass(smoothness=2, amplitude=5.0)
    rng = np.random.default_rng(0)
    for _ in range(20):
        member = cls.sample(rng, 256)
        assert cls.contains(member)
        assert np.all(np.abs(member.coefficients) <= cls.coefficient_envelope(256))
    assert not cls.contains(Signal(10.0 * np.ones(4)))


def test_smooth_to_signal_pads_and_guards():
    cls = SmoothClass(smoothness=1, amplitude=1.0)
    short = Signal(np.array([0.5, 0.25]))
    padded = cls.to_signal(short, 6)
    assert padded.ambient_dim == 6
    np.testing.assert_array_equal(padded.coefficients[:2], short.coefficients)
    assert np.all(padded.coefficients[2:] == 0.0)
    long = Signal(np.array([0.5, 0.0, 0.0, 0.1]))
    with pytest.raises(UsageError):
        cls.to_signal(long, 3)


def test_smooth_distance_is_coefficient_distance():
    cls = SmoothClass(smoothness=1, amplitude=1.0)
    a = Signal(np.array([1.0, 0.0, 2.0]))
    b = Signal(np.array([0.0, 0.0, 2.0, 2.0]))
    np.testing.assert_allclose(cls.distance(a, b), math.sqrt(5.0), rtol=1e-15)


def test_smooth_validation():
    with pytest.raises(UsageError):
        SmoothClass(smoothness=0, amplitude=1.0)
    with pytest.raises(UsageError):
        SmoothClass(smoothness=1, amplitude=0.0)


# ---------------------------------------------------------------------------
# Piecewise smooth class
# ---------------------------------------------------------------------------


def test_piecewise_samples_are_members():
    cls = PiecewiseSmoothClass(
        degree=1, max_jumps=2, deriv_bound=1.0, min_gap=0.5, level_bound=1.0
    )
    rng = np.random.default_rng(1)
    for _ in range(50):
        member = cls.sample(rng, 64)
        assert cls.contains(member)
        assert len(member.breakpoints) == 2
        assert float(np.min(np.diff(member.breakpoints))) >= 0.5
        for coeffs in member.piece_coefficients:
            assert len(coeffs) == 2
            assert abs(coeffs[0]) <= 1.0 and abs(coeffs[1]) <= 1.0


def test_piecewise_membership_rejections():
    cls = PiecewiseSmoothClass(
        degree=0, max_jumps=1, deriv_bound=1.0, min_gap=0.5, level_bound=1.0
    )
    too_high = PiecewiseDescription(
        breakpoints=(0.0,), piece_coefficients=((2.0,), (0.0,))
    )
    assert not cls.contains(too_high)
    too_many = PiecewiseDescription(
        breakpoints=(-1.0, 1.0),
        piece_coefficients=((0.0,), (0.5,), (0.0,)),
    )
    assert not cls.contains(too_many)


def test_piecewise_gap_infeasibility():
    with pytest.raises(UsageError):
        PiecewiseSmoothClass(
            degree=0, max_jumps=3, deriv_bound=1.0, min_gap=3.2, level_bound=1.0
        )
    nearly_full = PiecewiseSmoothClass(
        degree=0, max_jumps=2, deriv_bound=1.0, min_gap=2 * math.pi - 1e-9,
        level_bound=1.0,
    )
    with pytest.raises(UsageError):
        nearly_full.sample(np.random.default_rng(0), 16)


# ---------------------------------------------------------------------------
# Piecewise analytic class
# ---------------------------------------------------------------------------


def test_analytic_samples_are_members():
    cls = PiecewiseAnalyticClass(max_jumps=2, strip_width=0.5, amplitude=1.0)
    rng = np.random.default_rng(2)
    for _ in range(20):
        member = cls.sample(rng, 128)
        assert cls.contains(member)
        envelope = cls.coefficient_envelope(128)
        assert np.all(np.abs(member.smooth.coefficients) <= envelope)
        assert len(member.steps.breakpoints) == 2


def test_analytic_max_jumps_counts_interior_breakpoints():
    cls = PiecewiseAnalyticClass(max_jumps=2, strip_width=0.5, amplitude=1.0)

    def member(breakpoints, *levels):
        steps = PiecewiseDescription(breakpoints, tuple((v,) for v in levels))
        return AnalyticStepMember(Signal(np.zeros(8)), steps)

    # The jump at +/-pi is implied: two interior breakpoints are max_jumps
    # whether or not the end levels meet there, and fewer are members too.
    assert cls.contains(member((-1.0, 1.0), 0.5, -0.5, 0.5))
    assert cls.contains(member((-1.0, 1.0), 0.5, -0.5, 0.25))
    assert cls.contains(member((), 0.5))
    assert not cls.contains(member((-1.0, 0.0, 1.0), 0.5, -0.5, 0.5, 0.25))
    # max_jumps = 0 is the analytic part plus a constant, and one jump is one
    # interior breakpoint.
    assert PiecewiseAnalyticClass(0, 0.5, 1.0).contains(member((), 0.5))
    assert not PiecewiseAnalyticClass(0, 0.5, 1.0).contains(member((0.0,), 0.5, 0.5))
    assert PiecewiseAnalyticClass(1, 0.5, 1.0).contains(member((0.0,), 0.5, -0.5))
    with pytest.raises(UsageError, match="max_jumps must be >= 0"):
        PiecewiseAnalyticClass(-1, 0.5, 1.0)


def _quadrature_cases():
    piecewise = PiecewiseSmoothClass(
        degree=1, max_jumps=2, deriv_bound=1.0, min_gap=0.8, level_bound=1.0
    )
    return {
        "smooth": SmoothClass(smoothness=2, amplitude=1.0),
        "piecewise": piecewise,
        "analytic": PiecewiseAnalyticClass(max_jumps=2, strip_width=0.8, amplitude=1.0),
    }


def test_analytic_distance_matches_quadrature():
    for name, cls in _quadrature_cases().items():
        rng = np.random.default_rng(3)
        a = cls.sample(rng, 64)
        b = cls.sample(rng, 64)
        exact = cls.distance(a, b)
        numeric = oracle_l2_distance(a, b, points_per_piece=2**14 + 1)
        np.testing.assert_allclose(exact, numeric, rtol=1e-12, err_msg=name)
        assert cls.distance(a, a) == 0.0, name


def test_norms_match_quadrature():
    zero_steps = PiecewiseDescription((), ((0.0,),))
    zeros = {
        "smooth": Signal(np.zeros(1)),
        "piecewise": zero_steps,
        "analytic": AnalyticStepMember(Signal(np.zeros(1)), zero_steps),
    }
    for name, cls in _quadrature_cases().items():
        member = cls.sample(np.random.default_rng(4), 64)
        numeric = oracle_l2_distance(member, zeros[name], points_per_piece=2**14 + 1)
        np.testing.assert_allclose(cls.norm(member), numeric, rtol=1e-12, err_msg=name)


# ---------------------------------------------------------------------------
# Exact tails
# ---------------------------------------------------------------------------

TAIL_CLASSES = st.one_of(
    st.builds(
        PiecewiseSmoothClass,
        degree=st.integers(0, 2),
        max_jumps=st.integers(0, 2),
        deriv_bound=st.just(1.0),
        min_gap=st.just(0.5),
        level_bound=st.just(1.0),
    ),
    st.just(PiecewiseAnalyticClass(max_jumps=2, strip_width=0.5, amplitude=1.0)),
    st.just(SmoothClass(smoothness=1, amplitude=2.0)),
)


@settings(max_examples=60, deadline=None)
@given(
    family=TAIL_CLASSES,
    seed=st.integers(0, 2**32 - 1),
    d=st.sampled_from([1, 2, 17, 64, 1886]),
)
def test_exact_tails_bound_the_expanded_ones(family, seed, d):
    member = family.sample(np.random.default_rng(seed), 4096)
    exact = family.tail(member, family.coefficient_prefix(member, d))
    assert exact >= tail_norm(family.to_signal(member, 4096), d) - 1e-12
    if isinstance(family, PiecewiseSmoothClass) and family.degree == 0:
        # A jump J at t puts |J e^{ijt}| / j into |int f e^{ijt} dt|, so
        # frequency j carries at most V^2 / (pi j^2), with V the total
        # variation on the circle; frequencies past K = 2^15, which 2^16 + 1
        # coefficients complete, carry less than V^2 / (pi K) together.
        levels = [coeffs[0] for coeffs in member.piece_coefficients]
        variation = sum(abs(b - a) for a, b in zip(levels, [*levels[1:], levels[0]]))
        long = family.coefficient_prefix(member, 2**16 + 1)
        beyond = exact**2 - float(np.sum(long[d:] ** 2))
        assert -1e-12 <= beyond <= variation**2 / (math.pi * 2**15) + 1e-12


@settings(max_examples=30, deadline=None)
@given(
    smoothness=st.sampled_from([1, 3]),
    seed=st.integers(0, 2**32 - 1),
    d=st.sampled_from([1, 2, 17, 36, 64, 1886]),
)
def test_exact_smooth_tail_is_the_coefficient_tail(smoothness, seed, d):
    # A smooth member's tail is its coefficients past d, bit for bit, however
    # small next to |x|: sqrt(|x|^2 - |x_d|^2) would lose it to cancellation.
    family = SmoothClass(smoothness=smoothness, amplitude=2.0)
    member = family.sample(np.random.default_rng(seed), 4096)
    assert family.tail(member, family.coefficient_prefix(member, d)) == tail_norm(member, d)


# ---------------------------------------------------------------------------
# Canonical class labels
# ---------------------------------------------------------------------------


def test_spec_strings_are_canonical():
    assert SmoothClass(2, 100.0).spec_string() == "smooth(k=2,K=100)"
    piecewise = PiecewiseSmoothClass(
        degree=1, max_jumps=2, deriv_bound=1.0, min_gap=0.5, level_bound=1.0
    )
    assert piecewise.spec_string() == "piecewise_smooth(k=1,s=2,K2=1,gap=0.5,A=1)"
    analytic = PiecewiseAnalyticClass(max_jumps=2, strip_width=0.5, amplitude=1.0)
    assert analytic.spec_string() == "piecewise_analytic(jumps=2,eta=0.5,K=1)"


def test_sampling_is_deterministic_per_seed():
    cls = PiecewiseSmoothClass(
        degree=1, max_jumps=2, deriv_bound=1.0, min_gap=0.5, level_bound=1.0
    )
    first = cls.sample(np.random.default_rng(99), 32)
    second = cls.sample(np.random.default_rng(99), 32)
    assert np.array_equal(first.breakpoints, second.breakpoints)
    for left, right in zip(first.piece_coefficients, second.piece_coefficients):
        assert np.array_equal(left, right)


def test_tail_norm_behaviour_of_smooth_samples():
    cls = SmoothClass(smoothness=2, amplitude=10.0)
    rng = np.random.default_rng(8)
    member = cls.sample(rng, 1024)
    tails = [tail_norm(member, d) for d in (8, 32, 128, 512)]
    assert all(a >= b for a, b in zip(tails, tails[1:]))
    assert tails[-1] < tails[0] * 1e-2


# ---------------------------------------------------------------------------
# Linearity of centers in their axis values
# ---------------------------------------------------------------------------

# Every registered class, at resolutions with a few hundred configurations at
# most; the piecewise cases reach degree 3 and two jumps.
LINEAR_CASES = {
    "smooth": [(SmoothClass(3, 2.0), 0.5), (SmoothClass(1, 2.0), 0.2)],
    "piecewise": [
        (PiecewiseSmoothClass(0, 1, 1.0, 0.5, 1.0), 1.5),
        (PiecewiseSmoothClass(1, 1, 1.0, 0.5, 1.0), 6.0),
        (PiecewiseSmoothClass(3, 2, 1.0, 1.5, 1.0), 3.0),
    ],
    "analytic": [
        (PiecewiseAnalyticClass(1, 2.0, 0.5), 2.0),
        (PiecewiseAnalyticClass(2, 0.5, 1.0), 1.0),
    ],
}


def linearity_gap(family, plan, config_index, values, dim):
    """The largest gap between a center's expansion and its linear map's image,
    and the rounding bound it must stay within."""
    configurations = plan.configurations()
    breakpoints = next(itertools.islice(configurations, config_index, None))
    direct = family.coefficient_prefix(family.member(breakpoints, tuple(values)), dim)
    # Column j of the configuration's map: the center at the j-th unit vector.
    units = np.eye(len(values))
    linear_map = np.column_stack(
        [family.coefficient_prefix(family.member(breakpoints, unit), dim) for unit in units]
    )
    mapped = linear_map @ values
    return float(np.max(np.abs(direct - mapped))), linear_expansion_bound(family, values)


def test_linear_cases_cover_every_class():
    assert set(LINEAR_CASES) == set(CLASSES)
    for name, cases in LINEAR_CASES.items():
        assert all(type(family) is CLASSES[name] for family, _ in cases)


@settings(max_examples=80, deadline=None)
@given(
    case=st.sampled_from([case for cases in LINEAR_CASES.values() for case in cases]),
    config=st.integers(0, 10**6),
    seed=st.integers(0, 2**32 - 1),
    dim=st.sampled_from([1, 2, 7, 64]),
)
def test_center_coefficients_are_linear_in_axis_values(case, config, seed, dim):
    family, eps1 = case
    plan = family.net_plan(eps1)
    # Random values over each axis's grid extent, not only grid points.
    extents = np.array([axis.step * axis.count / 2.0 for axis in plan.axes])
    values = extents * np.random.default_rng(seed).uniform(-1.0, 1.0, extents.size)
    gap, bound = linearity_gap(family, plan, config % plan.config_count, values, dim)
    assert gap <= bound


@pytest.mark.parametrize("family, eps1", LINEAR_CASES["piecewise"])
def test_piecewise_coordinates_of_a_center_are_its_axis_values(family, eps1):
    plan = family.net_plan(eps1)
    grids = [axis.points() for axis in plan.axes]
    configurations = list(plan.configurations())
    rng = np.random.default_rng(11)
    for _ in range(200):
        breakpoints = configurations[rng.integers(len(configurations))]
        values = [float(grid[rng.integers(grid.size)]) for grid in grids]
        center = family.member(breakpoints, values)
        coordinates = family.coordinates(plan, center, breakpoints)
        assert [value.hex() for value in coordinates] == [value.hex() for value in values]


@dataclass(frozen=True)
class OffsetSmoothClass(SmoothClass):
    """A smooth class whose centers carry a constant offset: affine, not linear."""

    def member(self, breakpoints, values) -> Signal:
        return Signal(np.array(values) + 0.01)


def test_linearity_check_rejects_a_constant_offset():
    family = OffsetSmoothClass(3, 2.0)
    plan = family.net_plan(0.5)
    rng = np.random.default_rng(5)
    for _ in range(5):
        values = rng.uniform(-1.0, 1.0, len(plan.axes))
        gap, bound = linearity_gap(family, plan, 0, values, 8)
        assert gap > 1e6 * bound
