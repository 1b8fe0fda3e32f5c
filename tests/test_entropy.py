"""Entropy of constructed nets, growth-law fits, and measurement-budget checks."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netsketch.entropy import (
    fit_growth,
    measurement_lower_bound,
    within_measurement_budget,
)
from netsketch.errors import UsageError
from netsketch.function_classes import PiecewiseSmoothClass, SmoothClass
from netsketch.jl import exact_measurements
from netsketch.reconstructor import CHAIN_BAND
from netsketch.nets import build_net


# ---------------------------------------------------------------------------
# Covers: entropy values come from constructed nets, whose size is the
# product of the configuration count and every axis count.
# ---------------------------------------------------------------------------


def test_construction_entropy_matches_grid_logs():
    family = PiecewiseSmoothClass(
        degree=0, max_jumps=1, deriv_bound=1.0, min_gap=0.5, level_bound=1.0
    )
    net = build_net(family, 0.5)
    expected = math.log2(net.plan.config_count) + sum(
        math.log2(axis.count) for axis in net.plan.axes
    )
    assert net.entropy_bits == expected


# ---------------------------------------------------------------------------
# Growth fits
# ---------------------------------------------------------------------------


def geometric_resolutions(count: int = 6) -> np.ndarray:
    return 1.0 / np.exp(np.linspace(0.0, 2.0, count))


def test_fit_growth_recovers_exact_power_law():
    eps = geometric_resolutions()
    entropy = 5.0 * (1.0 / eps) ** 2
    scan = fit_growth(eps, entropy, "power")
    assert scan.fit_params["exponent"] == pytest.approx(2.0, abs=1e-9)
    assert scan.fit_params["amplitude"] == pytest.approx(5.0, abs=1e-9)
    assert scan.r_squared == pytest.approx(1.0, abs=1e-12)
    assert not scan.non_monotone
    assert np.max(np.abs(scan.residuals)) < 1e-9


def test_fit_growth_recovers_exact_logsquare_law():
    eps = geometric_resolutions()
    x = -np.log(eps)
    entropy = 3.0 * x**2 + 2.0 * x + 5.0
    scan = fit_growth(eps, entropy, "logsquare")
    assert scan.fit_params["quadratic"] == pytest.approx(3.0, abs=1e-9)
    assert scan.fit_params["linear"] == pytest.approx(2.0, abs=1e-9)
    assert scan.fit_params["constant"] == pytest.approx(5.0, abs=1e-9)
    assert scan.r_squared == pytest.approx(1.0, abs=1e-12)


def test_fit_growth_flags_non_monotone_entropy():
    eps = geometric_resolutions(5)
    entropy = np.array([1.0, 2.0, 1.5, 3.0, 4.0])
    scan = fit_growth(eps, entropy, "power")
    assert scan.non_monotone
    assert math.isfinite(scan.fit_params["exponent"])


def test_fit_growth_validation():
    eps = geometric_resolutions()
    entropy = (1.0 / eps) ** 2
    with pytest.raises(UsageError):
        fit_growth(eps[:3], entropy[:3], "power")
    with pytest.raises(UsageError):
        fit_growth(eps, entropy, "cubic")
    with pytest.raises(UsageError):
        fit_growth(eps[::-1], entropy, "power")
    with pytest.raises(UsageError):
        fit_growth(eps, -entropy, "power")
    narrow = np.array([1.0, 0.9, 0.8, 0.7])
    with pytest.raises(UsageError):
        fit_growth(narrow, (1.0 / narrow) ** 2, "power")


def test_fit_growth_on_constructed_nets_tracks_smooth_rate():
    family = SmoothClass(smoothness=2, amplitude=100.0)
    eps = np.array([0.4, 0.2, 0.1, 0.05])
    entropy = np.array(
        [build_net(family, e, m_max=math.inf).entropy_bits for e in eps]
    )
    scan = fit_growth(eps, entropy, "power")
    assert 0.4 <= scan.fit_params["exponent"] <= 0.6
    assert not scan.non_monotone


# ---------------------------------------------------------------------------
# Measurement budgets
# ---------------------------------------------------------------------------


def test_measurement_lower_bound_values():
    assert measurement_lower_bound(100.0, 2.0**-10) == pytest.approx(10.0)
    assert measurement_lower_bound(0.0, 0.5) == 0.0
    with pytest.raises(UsageError):
        measurement_lower_bound(-1.0, 0.5)
    with pytest.raises(UsageError):
        measurement_lower_bound(10.0, 1.0)
    with pytest.raises(UsageError):
        measurement_lower_bound(10.0, 0.0)


def test_within_measurement_budget_threshold():
    assert within_measurement_budget(84, 0.5, 10.0)
    assert within_measurement_budget(441, 0.5, 10.0)
    assert not within_measurement_budget(442, 0.5, 10.0)
    assert within_measurement_budget(0, 0.9, 0.0)
    # At p 0.5 and H 10 the rate is 2 c (H + 1) + 1: 441 at the default c = 20, 1,321 at 60.
    assert within_measurement_budget(1321, 0.5, 10.0, 60.0)
    assert not within_measurement_budget(1322, 0.5, 10.0, 60.0)
    with pytest.raises(UsageError):
        within_measurement_budget(10, 1.0, 5.0)
    with pytest.raises(UsageError):
        within_measurement_budget(-1, 0.5, 5.0)


@settings(max_examples=200, deadline=None)
@given(
    jl_constant=st.floats(1e-3, 1e3),
    p=st.floats(1e-6, 1.0 - 1e-6),
    size=st.integers(1, 10**30),
)
def test_within_measurement_budget_holds_the_union_bound_count(jl_constant, p, size):
    # The rate at c bounds ceil(c ln((M + 1) / (1 - p))) for every c > 0.
    n = max(1, math.ceil(jl_constant * math.log((size + 1) / (1.0 - p))))
    assert within_measurement_budget(n, p, math.log2(size), jl_constant)


@pytest.mark.parametrize("d", [40, 100, 1_000])
def test_within_measurement_budget_misses_the_certified_floor(d):
    # The exact tail certifies a 7-center net for the chain's band at n 6 or
    # 7, within the rate 2 c (log2 7 + 1) + 1 at c 4 (31.46), but past it at
    # c 0.5 (4.81), where the union-bound count is 2.
    assert math.ceil(0.5 * math.log(8 / 0.5)) == 2
    n = exact_measurements(0.5, d, 7, 1, CHAIN_BAND)
    assert n == (6 if d == 40 else 7)
    assert within_measurement_budget(n, 0.5, math.log2(7), 4.0)
    assert not within_measurement_budget(n, 0.5, math.log2(7), 0.5)
