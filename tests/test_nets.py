"""Covering nets: frozen sizes, rounding validity, exact decoding, file output."""

from __future__ import annotations

import copy
import dataclasses
import functools
import io
import itertools
import logging
import math
import re
import sys
import tracemalloc
import types
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from conftest import (
    ConfigurationDecoder,
    CountedFrame,
    decoder_rows,
    linear_expansion_bound,
    per_decode_copy,
    row_scan,
    split_net_text,
)
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from netsketch import function_classes, nets
from netsketch.errors import NetTooLargeError, UsageError
from netsketch.function_classes import (
    AnalyticStepMember,
    PiecewiseAnalyticClass,
    PiecewiseSmoothClass,
    SmoothClass,
)
from netsketch.hilbert import PiecewiseDescription, analyze_piecewise
from netsketch.jl import MeasurementOperator, apply_operator, random_subspace
from netsketch.nets import (
    AxisLog,
    FactoredStepDecoder,
    NetPlan,
    build_net,
    dump_net,
    enumerate_members,
    gap_separated_count,
    grid_count,
    iter_gap_tuples,
    position_grid,
    round_coordinates,
)

TWO_PI = 2.0 * math.pi


def symmetric_grid(bound, step):
    """The grid an axis covering ``[-bound, bound]`` at ``step`` lays out."""
    return AxisLog(grid_count(bound, step), step).points()


def step_class(**overrides):
    params = dict(degree=0, max_jumps=1, deriv_bound=1.0, min_gap=0.5, level_bound=1.0)
    params.update(overrides)
    return PiecewiseSmoothClass(**params)


def step_decoder(eps1, d):
    """The step class's factored decoder at ``eps1`` and ``d``."""
    return build_net(step_class(), eps1, d=d).decoder


def factored_size(decoder):
    """The members a factored step decoder searches: breakpoints times two levels."""
    return decoder.positions.size * decoder.plan.axes[0].points().size**2


def centers(net):
    """Every center of a net, in index order."""
    return list(enumerate_members(net.family, net.plan))


# ---------------------------------------------------------------------------
# Grids
# ---------------------------------------------------------------------------


def test_grid_count_and_symmetric_grid_basics():
    assert grid_count(1.0, 1.0) == 3
    np.testing.assert_allclose(symmetric_grid(1.0, 1.0), [-1.0, 0.0, 1.0])
    assert grid_count(0.0, 0.3) == 1
    assert grid_count(1.0, 10.0) == 1
    with pytest.raises(UsageError):
        grid_count(-1.0, 0.5)
    with pytest.raises(UsageError):
        grid_count(1.0, 0.0)


def test_snap_picks_nearest_and_clamps():
    axis = AxisLog(count=grid_count(1.0, 1.0), step=1.0)
    points = axis.points()
    np.testing.assert_array_equal(points, [-1.0, 0.0, 1.0])
    assert axis.snap(0.49) == points[1] == 0.0
    assert axis.snap(0.51) == points[2] == 1.0
    assert axis.snap(-0.51) == points[0] == -1.0
    # Out-of-range values clamp to the last grid point.
    assert axis.snap(7.3) == points[2] == 1.0
    assert axis.snap(-7.3) == points[0] == -1.0


@settings(max_examples=200, deadline=None)
@given(
    bound=st.floats(0.01, 1e3),
    ratio=st.floats(1e-3, 10.0),
    offset=st.floats(-1.0, 1.0),
)
def test_snap_error_bounded_by_half_step(bound, ratio, offset):
    step = bound * ratio
    axis = AxisLog(count=grid_count(bound, step), step=step)
    value = bound * offset
    snapped = axis.snap(value)
    assert np.any(axis.points() == snapped)
    assert abs(snapped - value) <= 0.5 * step * (1.0 + 1e-9) + 1e-12


def test_gap_separated_count_matches_enumeration():
    cases = [(20, 2, 3), (12, 3, 2), (9, 4, 1), (7, 2, 5), (10, 3, 4), (8, 1, 3), (5, 0, 2), (4, 3, 3)]
    for total, choose, gap in cases:
        filtered = [
            combo
            for combo in itertools.combinations(range(total), choose)
            if all(b - a >= gap for a, b in zip(combo, combo[1:]))
        ]
        assert list(iter_gap_tuples(total, choose, gap)) == filtered
        assert gap_separated_count(total, choose, gap) == len(filtered)
    assert gap_separated_count(20, 2, 3) == math.comb(18, 2)


# ---------------------------------------------------------------------------
# Sizes and construction logs
# ---------------------------------------------------------------------------


def test_single_jump_net_matches_hand_counts():
    # Level step sqrt(2) eps1 / sqrt(2 pi) = eps1 / sqrt(pi), so 2 floor(sqrt(pi)
    # / eps1 + 1/2) + 1 levels; jump height h = 2 + step / 2, and P the next
    # 2^a 3^b 5^c from ceil(2 pi h^2 / eps1^2).  At eps1 0.5: step 0.2821,
    # 9 levels, h 2.1410, ceil(115.2) = 116 -> 120.
    family = step_class()
    net = build_net(family, 0.5)
    assert net.plan.config_count == 120
    assert [axis.count for axis in net.plan.axes] == [9, 9]
    assert net.size == 120 * 9 * 9 == 9720
    positions = net.plan.positions
    assert positions.size == 120
    assert np.all(positions > -math.pi) and np.all(positions < math.pi)
    assert positions[0] == pytest.approx(-math.pi + math.pi / 120, abs=1e-15)  # half a pitch in
    spacing = np.diff(positions)
    np.testing.assert_allclose(spacing, TWO_PI / 120, rtol=1e-12)

    # The bench's net: step 0.05642, 37 levels, h 2.0282, ceil(2584.6) = 2585
    # -> 2592 = 2^5 3^4.
    finer = build_net(family, 0.1)
    assert finer.plan.config_count == 2592
    assert [axis.count for axis in finer.plan.axes] == [37, 37]
    assert finer.size == 2592 * 37 * 37 == 3_548_448


def test_flat_class_net_is_a_single_member():
    family = step_class(max_jumps=0)
    net = build_net(family, 6.0)
    plan = net.plan
    assert net.mode == "configurations"
    assert net.size == 1 and len(centers(net)) == 1
    only = centers(net)[0]
    assert len(only.breakpoints) == 0
    assert family.contains(only)
    rng = np.random.default_rng(11)
    for _ in range(10):
        member = family.sample(rng, 64)
        witness = family.member(*round_coordinates(family, plan, member))
        assert family.distance(member, witness) <= 6.0


def test_two_jump_net_configurations():
    # The error pitch 9 / (2 * 2.846^2) = 0.555 is over min_gap / 4, so the
    # pitch is 0.375: ceil(2 pi / 0.375) = 17 -> 18 points, index gap
    # ceil((1.5 - 0.75) / (2 pi / 18)) = 3, C(18 - 2, 2) = 120 configurations.
    family = step_class(max_jumps=2, min_gap=1.5)
    net = build_net(family, 3.0)
    plan = net.plan
    positions = plan.positions
    effective = TWO_PI / positions.size
    assert positions.size == 18 and plan.index_gap == 3
    assert plan.config_count == math.comb(16, 2) == 120
    assert net.size == 120 * 3**3 == 3240 == len(centers(net))

    # Center breakpoints may sit closer than the pristine minimum gap by the
    # snapping slack, and levels (step 3 / sqrt(pi) = 1.69) past the level
    # bound by half a step; membership of the centers holds under that slack.
    gap_tolerance = max(1.0 - 3 * effective / 1.5, plan.axes[0].step / 2.0) + 1e-9
    pairs = set()
    for member in centers(net):
        b = tuple(float(v) for v in member.breakpoints)
        pairs.add(b)
        i0 = int(np.argmin(np.abs(positions - b[0])))
        i1 = int(np.argmin(np.abs(positions - b[1])))
        assert i1 - i0 >= 3  # configuration gap in grid indices
        assert family.contains(member, tolerance=gap_tolerance)
    assert len(pairs) == plan.config_count

    rng = np.random.default_rng(21)
    for _ in range(15):
        member = family.sample(rng, 256)
        witness = family.member(*round_coordinates(family, plan, member))
        assert family.distance(member, witness) <= 3.0
        assert witness.breakpoints[1] - witness.breakpoints[0] >= 3 * effective - 1e-12


def test_rounding_bumps_colliding_breakpoints_forward():
    family = step_class(max_jumps=2, min_gap=1.5)
    net = build_net(family, 3.0)
    plan = net.plan
    effective = TWO_PI / plan.positions.size
    assert plan.index_gap == 3
    # Breakpoints closer than the configuration gap still snap to a
    # configuration of the net: the second index, 11, is pushed to 9 + 3.
    member = PiecewiseDescription(
        breakpoints=(0.0, 0.8),
        piece_coefficients=((0.5,), (-0.5,), (0.0,)),
    )
    witness = family.member(*round_coordinates(family, plan, member))
    np.testing.assert_array_equal(witness.breakpoints, plan.positions[[9, 12]])


# ---------------------------------------------------------------------------
# Rounding validity across families
# ---------------------------------------------------------------------------


def test_witness_within_resolution_single_jump():
    family = step_class()
    net = build_net(family, 0.5)
    plan = net.plan
    rng = np.random.default_rng(101)
    for _ in range(40):
        member = family.sample(rng, 512)
        witness = family.member(*round_coordinates(family, plan, member))
        assert family.distance(member, witness) <= 0.5


def test_witness_within_resolution_piecewise_linear():
    family = PiecewiseSmoothClass(
        degree=1, max_jumps=2, deriv_bound=1.0, min_gap=0.5, level_bound=1.0
    )
    net = build_net(family, 0.75)
    plan = net.plan
    rng = np.random.default_rng(202)
    for _ in range(25):
        member = family.sample(rng, 512)
        witness = family.member(*round_coordinates(family, plan, member))
        assert family.distance(member, witness) <= 0.75


@settings(max_examples=200, deadline=None)
@given(
    degree=st.integers(0, 3),
    jumps=st.integers(1, 2),
    eps1=st.floats(0.1, 6.0),
    data=st.data(),
)
def test_witness_within_resolution_for_adversarial_members(degree, jumps, eps1, data):
    # The worst members the error model allows: each breakpoint within 1e-9
    # of a cell edge moves almost half a cell; each level sits at a half-step,
    # where it rounds by half a step, or at the level bound; each slope is as
    # large as the class allows.
    family = PiecewiseSmoothClass(
        degree=degree, max_jumps=jumps, deriv_bound=1.0, min_gap=0.5, level_bound=1.0
    )
    plan = build_net(family, eps1).plan
    count, step = plan.breakpoint_count, plan.axes[0].step
    effective = TWO_PI / count
    draw = data.draw
    apart = math.ceil((family.min_gap + 2e-9) / effective)  # cells between edges min_gap apart
    edges = [draw(st.integers(1, count - 1 - (jumps - 1) * apart))]
    if jumps == 2:
        edges.append(draw(st.integers(edges[0] + apart, count - 1)))
    breakpoints = tuple(
        -math.pi + edge * effective + draw(st.sampled_from([-1e-9, 1e-9])) for edge in edges
    )
    halves = [(j + 0.5) * step for j in range(-int(1.0 / step + 0.5), int(1.0 / step + 0.5))]
    levels = st.sampled_from([-1.0, 1.0] + [h for h in halves if abs(h) <= 1.0])
    bounds = family.coefficient_bounds()
    pieces = tuple(
        (draw(levels), *(draw(st.sampled_from([-1.0, 1.0])) * bounds[m] for m in range(1, degree + 1)))
        for _ in range(jumps + 1)
    )
    member = PiecewiseDescription(breakpoints, pieces)
    assert family.contains(member)
    assert family.distance(member, family.member(*round_coordinates(family, plan, member))) <= eps1


def test_witness_within_resolution_smooth():
    family = SmoothClass(smoothness=2, amplitude=100.0)
    net = build_net(family, 0.5)
    plan = net.plan
    rng = np.random.default_rng(303)
    for _ in range(40):
        member = family.sample(rng, 512)
        witness = family.member(*round_coordinates(family, plan, member))
        assert family.distance(member, witness) <= 0.5


def test_witness_within_resolution_analytic():
    rng = np.random.default_rng(404)
    for jumps in range(4):
        family = PiecewiseAnalyticClass(max_jumps=jumps, strip_width=0.5, amplitude=1.0)
        plan = build_net(family, 1.0).plan
        for _ in range(200):
            member = family.sample(rng, 256)
            witness = family.member(*round_coordinates(family, plan, member))
            assert family.distance(member, witness) <= 1.0


def alternating_steps(breakpoints, sign):
    """Levels +/-1 in turn on the pieces between ``breakpoints``: every jump as high as the class allows."""
    levels = tuple((sign * (-1.0) ** j,) for j in range(len(breakpoints) + 1))
    return PiecewiseDescription(np.asarray(breakpoints, dtype=float), levels)


@pytest.mark.parametrize("jumps", [1, 2, 3])
def test_witness_within_resolution_with_a_step_at_pi(jumps):
    # Up to s breakpoints inside the grid's first cell, next to -pi, or its
    # last, next to pi, and fewer than s anywhere: the snap bumps them into
    # the cells after the first, pads after the last and pulls back from the
    # grid's end, s - 1/2 cells at most, and padded pieces take the last level.
    family = PiecewiseAnalyticClass(max_jumps=jumps, strip_width=0.5, amplitude=1.0)
    plan = build_net(family, 1.0).plan
    cell = TWO_PI / plan.breakpoint_count
    rng = np.random.default_rng(505)
    for count in range(jumps + 1):
        for _ in range(10):
            smooth = family.sample(rng, 512).smooth
            offsets = cell * np.sort(1.0 - rng.uniform(0.0, 1.0, count))  # in (0, cell]
            cases = [-math.pi + offsets, math.pi - offsets[::-1]]
            if count < jumps:
                cases.append(np.sort(rng.uniform(-math.pi, math.pi, count)))
            sign = float(rng.choice([-1.0, 1.0]))
            for breakpoints in cases:
                member = AnalyticStepMember(smooth, alternating_steps(breakpoints, sign))
                assert family.contains(member)
                witness = family.member(*round_coordinates(family, plan, member))
                assert len(witness.steps.breakpoints) == jumps
                assert family.distance(member, witness) <= 1.0


def test_snap_takes_cells_bumps_pads_and_pulls_back():
    plan = NetPlan(eps1=1.0, axes=(), breakpoint_count=10, index_gap=2, jumps=3)
    cell = TWO_PI / 10

    def at(*cells):
        return [-math.pi + (c + 0.5) * cell for c in cells]

    assert plan.snap(at(1, 4, 7)) == (1, 4, 7)
    assert plan.snap(at(1, 2, 7)) == (1, 3, 7)  # bumped index_gap past its neighbour
    assert plan.snap(at(2)) == (2, 4, 6)  # padded after the last
    assert plan.snap(at(8, 9)) == (5, 7, 9)  # padded to 12, then pulled back
    assert plan.snap([]) == (0, 2, 4)
    assert plan.snap([-math.pi, math.pi]) == (0, 7, 9)  # the ends clamp to the grid
    assert NetPlan(eps1=1.0, axes=()).snap([]) == ()

    # A full piecewise member takes its cells: no bump, no pull-back.
    rng = np.random.default_rng(808)
    for family, eps1 in ((step_class(max_jumps=2, min_gap=1.5), 0.5), (step_class(degree=1, max_jumps=3), 2.0)):
        plan = build_net(family, eps1).plan
        for _ in range(200):
            breakpoints = family.sample(rng, 1).breakpoints.tolist()
            cells = tuple(int(math.floor((b + math.pi) / (TWO_PI / plan.breakpoint_count))) for b in breakpoints)
            assert plan.snap(breakpoints) == cells
    # One breakpoint short, next to pi: padded and pulled back, where the
    # grid's end once refused it.  Such a member is snapped, not covered.
    family = step_class(max_jumps=2, min_gap=1.5)
    plan = build_net(family, 0.5).plan
    member = PiecewiseDescription([3.1], ((1.0,), (-1.0,)))
    count, gap = plan.breakpoint_count, plan.index_gap
    assert plan.snap(member.breakpoints) == (count - 1 - gap, count - 1)
    assert len(round_coordinates(family, plan, member)[0]) == 2


def member_bytes(value) -> bytes:
    """Every number of a member, as the bytes of its float64 value."""
    if dataclasses.is_dataclass(value):
        fields = dataclasses.fields(value)
        return b"(" + b",".join(member_bytes(getattr(value, f.name)) for f in fields) + b")"
    if isinstance(value, tuple):
        return b"[" + b",".join(member_bytes(v) for v in value) + b"]"
    return np.asarray(value, dtype=np.float64).tobytes()


def test_every_analytic_layout_has_a_configuration():
    # The pitch is at most 2 pi / (s (s - 1/2)), so P >= s at any eps1; a
    # grid coarser than max_jumps was once refused (s 3, K 0.01, eps1 10).
    for jumps in range(1, 6):
        for amplitude in (0.01, 1.0, 100.0):
            for eps1 in (1e4, 60.0, 10.0, 1.0):
                plan = build_net(PiecewiseAnalyticClass(jumps, 1.0, amplitude), eps1).plan
                assert plan.breakpoint_count >= jumps and plan.config_count >= 1


def test_witness_is_a_center_bit_for_bit():
    cases = (
        (SmoothClass(smoothness=2, amplitude=1.0), 0.5),
        (step_class(), 1.5),
        (step_class(max_jumps=0), 6.0),
        (step_class(max_jumps=2, min_gap=1.5), 3.0),
        (step_class(degree=1), 6.0),
        (PiecewiseAnalyticClass(max_jumps=1, strip_width=2.0, amplitude=0.5), 2.0),
    )
    rng = np.random.default_rng(707)
    for family, eps1 in cases:
        net = build_net(family, eps1)
        members = centers(net)
        indices = {member_bytes(center): index for index, center in enumerate(members)}
        assert len(indices) == net.size
        for _ in range(40):
            witness = family.member(*round_coordinates(family, net.plan, family.sample(rng, 128)))
            assert member_bytes(witness) in indices
        for index in rng.choice(net.size, size=min(40, net.size), replace=False):
            fixed = member_bytes(family.member(*round_coordinates(family, net.plan, members[index])))
            assert indices[fixed] == index


def test_centers_are_members_with_grid_overshoot_tolerance():
    # The analytic levels carry the constant too, so they reach K (1 + 1 /
    # sqrt(2 pi)) and a center need not be a member.  Every center's levels
    # and coefficients lie within the plan's reaches, but for the half step
    # a grid may overshoot them by.
    family = PiecewiseAnalyticClass(max_jumps=1, strip_width=2.0, amplitude=0.5)
    net = build_net(family, 2.0)
    assert net.size == 500
    level, coefficient = net.plan.axes[0], net.plan.axes[-1]
    level_reach = 0.5 * (1.0 + 1.0 / math.sqrt(TWO_PI)) + level.step / 2.0
    envelope = family.coefficient_envelope(len(net.plan.axes) - 1) + coefficient.step / 2.0
    envelope[0] = 0.0  # no c_0 axis: the levels carry the constant
    for member in centers(net):
        assert all(abs(coeffs[0]) <= level_reach for coeffs in member.steps.piece_coefficients)
        assert np.all(np.abs(member.smooth.coefficients) <= envelope)
    assert any(not family.contains(member) for member in centers(net))

    step_net = build_net(step_class(), 1.5)
    assert step_net.size == 162
    assert all(step_class().contains(member) for member in centers(step_net))


def test_net_size_monotone_in_resolution():
    for family in (
        step_class(),
        SmoothClass(smoothness=2, amplitude=100.0),
        PiecewiseAnalyticClass(max_jumps=2, strip_width=0.5, amplitude=1.0),
    ):
        sizes = [build_net(family, eps1).size for eps1 in (2.0, 1.0, 0.5, 0.25)]
        assert sizes == sorted(sizes)


def test_entropy_bits_match_sizes():
    for family, eps1 in (
        (step_class(), 0.5),
        (step_class(max_jumps=2, min_gap=1.5), 3.0),
        (SmoothClass(smoothness=2, amplitude=100.0), 0.5),
        (PiecewiseAnalyticClass(max_jumps=2, strip_width=0.5, amplitude=1.0), 1.0),
    ):
        net = build_net(family, eps1)
        assert net.entropy_bits == pytest.approx(math.log2(net.size), rel=1e-12)


# ---------------------------------------------------------------------------
# Modes and budgets
# ---------------------------------------------------------------------------


def test_auto_mode_selection_and_budget(monkeypatch):
    flat = build_net(step_class(max_jumps=0), 6.0)
    assert flat.mode == "configurations" and flat.decoder is None
    assert isinstance(build_net(step_class(max_jumps=0), 6.0, d=8).decoder, FactoredStepDecoder)

    # Without a d the net is counted only; with one it carries its decoder.
    assert build_net(step_class(), 0.1).decoder is None
    factored = build_net(step_class(), 0.1, d=16)
    assert factored.mode == "factored" and factored.decoder.d == 16
    assert factored_size(factored.decoder) == factored.size
    # The plan alone chooses: a step net is factored under any budget.
    for m_max in (0, 100, 10**6, math.inf):
        small = build_net(step_class(), 1.5, m_max=m_max, d=16)
        assert small.mode == "factored" and factored_size(small.decoder) == small.size == 162
        assert isinstance(small.decoder, FactoredStepDecoder)

    # A decoder for a net over the budget is refused before it is built; its
    # counts are not.
    family = PiecewiseSmoothClass(
        degree=1, max_jumps=2, deriv_bound=1.0, min_gap=0.5, level_bound=1.0
    )
    over = build_net(family, 0.75, m_max=1000)
    assert over.mode == "configurations" and over.decoder is None and over.size > 1000
    monkeypatch.setattr(nets, "FactoredStepDecoder", None)
    with pytest.raises(NetTooLargeError):
        build_net(family, 0.75, m_max=1000, d=16)

    with pytest.raises(UsageError):
        build_net(step_class(), -0.5)


# ---------------------------------------------------------------------------
# Exact decoding
# ---------------------------------------------------------------------------


def brute_force_coefficients(net, ambient_dim):
    family = net.family
    return np.array(
        [family.to_signal(member, ambient_dim).coefficients for member in centers(net)]
    )


def test_factored_decoder_matches_brute_force_in_coefficient_space():
    family = step_class()
    materialized = build_net(family, 1.5)
    decoder = step_decoder(1.5, 16)
    assert factored_size(decoder) == materialized.size

    table = brute_force_coefficients(materialized, 16)
    rng = np.random.default_rng(17)
    for _ in range(12):
        target = rng.normal(scale=0.8, size=16)
        distances = np.linalg.norm(table - target, axis=1)
        expected_index = int(np.argmin(distances))
        result = decoder.decode_coefficients(target)
        assert result.index == expected_index
        assert result.distance == pytest.approx(float(distances[expected_index]), rel=1e-10)
        expected = centers(materialized)[expected_index]
        np.testing.assert_array_equal(result.member.breakpoints, expected.breakpoints)
        for got, want in zip(result.member.piece_coefficients, expected.piece_coefficients):
            np.testing.assert_array_equal(got, want)


def test_factored_decoder_matches_brute_force_under_measurements():
    family = step_class()
    materialized = build_net(family, 1.5)
    decoder = step_decoder(1.5, 16)
    operator = random_subspace(16, 7, seed=9)
    table = brute_force_coefficients(materialized, 16) @ operator.frame.T
    sketched = decoder.prepare(operator)

    rng = np.random.default_rng(23)
    for _ in range(12):
        y = rng.normal(size=7)
        distances = np.linalg.norm(table - y, axis=1)
        expected_index = int(np.argmin(distances))
        result = decoder.decode_measurements(y, sketched)
        assert result.index == expected_index
        assert result.distance == pytest.approx(float(distances[expected_index]), rel=1e-10)


def test_decoded_distance_is_exact_next_to_a_member():
    family = step_class()
    materialized = build_net(family, 1.5)
    decoder = step_decoder(1.5, 16)
    operator = random_subspace(16, 7, seed=9)
    coefficients = brute_force_coefficients(materialized, 16)
    table = coefficients @ operator.frame.T
    sketched = decoder.prepare(operator)
    rng = np.random.default_rng(43)
    # A small residual is where |y|^2 + objective cancels.  Constant members
    # repeat at every breakpoint, so compare with the decoded index's row.
    for index in rng.choice(len(table), size=8, replace=False):
        for rows, decode in (
            (table, lambda y: decoder.decode_measurements(y, sketched)),
            (coefficients, decoder.decode_coefficients),
        ):
            y = rows[index] + 1e-4 * rng.normal(size=rows.shape[1])
            result = decode(y)
            distances = np.linalg.norm(rows - y, axis=1)
            assert distances[result.index] == pytest.approx(np.min(distances), rel=1e-9)
            assert result.distance == pytest.approx(distances[result.index], rel=1e-12)


def dense_indicator_rows(positions, d):
    """The pre-jump indicator coefficients, written out from the closed forms."""
    b = np.asarray(positions)[:, None]
    w = np.zeros((b.size, d))
    w[:, :1] = (b + math.pi) / math.sqrt(TWO_PI)
    for j in range(1, d // 2 + 1):
        w[:, 2 * j - 1] = np.sin(j * b[:, 0]) / (j * math.sqrt(math.pi))
        if 2 * j < d:
            w[:, 2 * j] = ((-1.0) ** j - np.cos(j * b[:, 0])) / (j * math.sqrt(math.pi))
    return w


def indicator_norms(positions, d):
    """``|w(b)|^2`` from the squared closed forms, as a cosine series in ``b``.

    The ``cos(2 j b)`` terms cancel except the last cosine's, so

        |w(b)|^2 = (b+pi)^2/(2 pi) + sum_{j<=d//2} 1/(2 pi j^2)
                   + sum_{j<=(d-1)//2} (3 - 4 (-1)^j cos(j b))/(2 pi j^2)
                   - [d even] cos(d b)/(2 pi (d/2)^2).
    """
    b = np.asarray(positions)
    js = np.arange(1, d // 2 + 1)
    pairs = js[: (d - 1) // 2]
    norms = (b + math.pi) ** 2 / TWO_PI + np.sum(1.0 / (TWO_PI * js**2))
    norms += np.sum(3.0 / (TWO_PI * pairs**2))
    norms -= np.cos(np.multiply.outer(b, pairs)) @ (4.0 * (-1.0) ** pairs / (TWO_PI * pairs**2))
    if d % 2 == 0:
        norms -= np.cos(d * b) / (TWO_PI * (d // 2) ** 2)
    return norms


def test_indicator_products_match_the_dense_closed_form():
    rng = np.random.default_rng(29)
    # eps1 1.6 gives P = 15 (odd), 1.2 gives P = 24 (even); d = 300 puts
    # frequencies past P / 2, where they alias on the breakpoint grid.
    for eps1, count in ((1.6, 15), (1.2, 24)):
        for d in (1, 2, 3, 16, 17, 300, 301):
            decoder = step_decoder(eps1, d)
            assert decoder.positions.size == count
            w = dense_indicator_rows(decoder.positions, d)
            # The products <R_r, w(b)> of one row, or of a block of rows: the
            # kept table itself.
            for rows in (1, min(4, d)):
                block = rng.normal(size=(rows, d))
                (table,), _ = decoder._operator_terms(MeasurementOperator(block))[1]
                assert table.shape == (rows, count)
                np.testing.assert_allclose(table, block @ w.T, rtol=0.0, atol=1e-12)
            # |w(b)|^2 in coefficient space: the terms under the identity,
            # against the dense rows and the squared closed forms.
            identity = MeasurementOperator(np.eye(d))
            norms = decoder._operator_terms(identity)[0].gram[0][0]
            dense = np.einsum("ij,ij->i", w, w)
            np.testing.assert_allclose(norms, dense, rtol=0.0, atol=1e-12)
            np.testing.assert_allclose(norms, indicator_norms(decoder.positions, d), rtol=0.0, atol=1e-12)


def test_operator_terms_match_the_dense_closed_form():
    rng = np.random.default_rng(41)
    # P = 45 and 70.  At d = 300 and 301 the square-sum's degree 2 (d // 2) =
    # 300 is past P / 2, so it folds onto the grid; n = d is the clamped case.
    # At d = 64, n = 32 and 64 fill whole blocks of the square-sum's rows.
    for eps1 in (1.5, 1.2):
        for d in (1, 2, 3, 16, 17, 64, 300, 301):
            decoder = step_decoder(eps1, d)
            w = dense_indicator_rows(decoder.positions, d)
            for n in sorted({1, max(1, d // 2), d}):
                operator = random_subspace(d, n, seed=1000 * d + n)
                rows = operator.frame
                projected = w @ rows.T
                # The two axes under R: R w(b) and R (v - w(b)).
                after = math.sqrt(TWO_PI) * rows[:, 0] - projected
                geometry, sketch = decoder._operator_terms(operator)
                # The kept sketch is R applied to the two axis vectors: the
                # table is R w(b), and v is R times the constant one.
                (table,), (v, *_) = sketch
                assert table.shape == (n, decoder.positions.size) and not table.flags.writeable
                np.testing.assert_allclose(table, projected.T, rtol=0.0, atol=1e-12)
                np.testing.assert_array_equal(v, math.sqrt(TWO_PI) * rows[:, 0])
                gram = geometry.gram
                for (i, j), (a, b) in {
                    (0, 0): (projected, projected),
                    (0, 1): (projected, after),
                    (1, 0): (after, projected),
                    (1, 1): (after, after),
                }.items():
                    np.testing.assert_allclose(
                        gram[i][j], np.einsum("ij,ij->i", a, b), rtol=0.0, atol=1e-12
                    )
                y = rng.normal(size=n)
                # The projections from the kept sketch alone: q0 = <R w(b), y>
                # and q1 = <R (v - w(b)), y>, v the constant one.
                q0, q1 = decoder._projections(sketch, y)
                np.testing.assert_allclose(q0, projected @ y, rtol=0.0, atol=1e-12)
                np.testing.assert_allclose(q1, after @ y, rtol=0.0, atol=1e-12)


def test_operator_terms_follow_the_operator():
    plan = step_class().net_plan(1.5)
    operators = [random_subspace(40, 9, seed=seed) for seed in (1, 2)]
    ys = np.random.default_rng(37).normal(size=(6, 9))

    def decode_all(decoder, sketched):
        results = [decoder.decode_measurements(y, sketched) for y in ys]
        return [(result.index, result.distance) for result in results]

    # Each operator's terms are its own SketchedNet; a decoder keeps none,
    # and no decode changes what it holds.
    for make_decoder in (
        lambda: step_decoder(1.5, 40),
        lambda: build_net(step_class(degree=1), 6.0, d=40).decoder,
    ):
        expected = []
        for operator in operators:
            fresh = make_decoder()
            expected.append(decode_all(fresh, fresh.prepare(operator)))
        decoder = make_decoder()
        held = dict(vars(decoder))
        sketched = [decoder.prepare(operator) for operator in operators]
        for _ in range(2):
            for which, net in enumerate(sketched):
                assert net.operator is operators[which] and (net.n, net.d) == (9, 40)
                assert decode_all(decoder, net) == expected[which]

        # Threads sharing the decoder, each with one of the two sketched
        # nets, switching often.
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(decode_all, decoder, sketched[k % 2]) for k in range(8)]
                for k, future in enumerate(futures):
                    assert future.result(timeout=60) == expected[k % 2]
        finally:
            sys.setswitchinterval(previous)
        assert vars(decoder).keys() == held.keys()
        assert all(vars(decoder)[name] is value for name, value in held.items())


def test_operator_terms_make_no_frame_sized_copy(monkeypatch, caplog):
    # At the bench's P and d with a tall n (P = 2,592, d = 1,886, n = 604)
    # the build reads the 9.1 MB frame 8 rows at a time and copies none of
    # it.  Past the n x P table it keeps (12.5 MB here, its output, not a
    # copy), its block loop holds no more than the scratch its DEBUG line
    # reports: one block's series (0.12 MB) and, as K < P / 2 here, its
    # zero-padded copy, which holds the half spectrum (0.17 MB), and one
    # row's linear part (0.02 MB), 0.31 MB in all, where 32-row blocks held
    # 2.47 MB.  The scratch is gone before the search geometry's arrays are
    # made, so they and their temporaries stay within it too.
    decoder = step_decoder(0.1, 1886)
    assert decoder.positions.size == 2592
    operator = random_subspace(1886, 604, seed=1)
    factor, loop_peaks = nets._grid_geometry, []

    def measured_factor(gram, grids):
        loop_peaks.append(tracemalloc.get_traced_memory()[1])
        return factor(gram, grids)

    monkeypatch.setattr(nets, "_grid_geometry", measured_factor)
    tracemalloc.start()
    try:
        with caplog.at_level(logging.DEBUG, logger="netsketch.nets"):
            geometry, (table, _) = decoder._operator_terms(operator)
        peak = tracemalloc.get_traced_memory()[1] - table.nbytes
    finally:
        tracemalloc.stop()
    (scratch,) = [int(size) for size in re.findall(r"scratch (\d+) bytes", caplog.text)]
    assert table.nbytes == 604 * 2592 * 8
    assert scratch == 16 * 8 * (1886 // 2 + 1 + 2592 // 2 + 1) + 8 * 2592 == 307_584
    assert loop_peaks[0] - table.nbytes <= scratch
    assert peak - sum(array.nbytes for array in geometry) <= scratch


def test_a_decode_under_a_prepared_operator_reads_no_frame(caplog):
    # The decoder decodes from the operator's SketchedNet: no product with
    # the frame, in the decode or in a center's sketch, and it logs the
    # kept sketch's bytes: one n x P table per order and n per constant
    # column (V and each T_r(pi)), (P + 2) n 8 for the step net and (2 P +
    # 3) n 8 at degree 1.
    # A center's sketch is R c to rounding.
    d, n = 40, 9
    rng = np.random.default_rng(71)
    for family, eps1, tables, constants in ((step_class(), 1.5, 1, 2), (step_class(degree=1), 6.0, 2, 3)):
        plan = family.net_plan(eps1)
        decoder, size = build_net(family, eps1, d=d).decoder, (tables * plan.breakpoint_count + constants) * n * 8
        operator = random_subspace(d, n, seed=5)
        frame = operator.frame
        object.__setattr__(operator, "frame", frame.view(CountedFrame))
        with caplog.at_level(logging.DEBUG, logger="netsketch.nets"):
            sketched = decoder.prepare(operator)
        assert re.search(rf"decoder terms: .*, sketch {size} bytes", caplog.text)
        caplog.clear()
        CountedFrame.products.clear()
        for _ in range(4):
            result = decoder.decode_measurements(rng.normal(size=n), sketched)
            witness = round_coordinates(family, plan, result.member)
            assert witness == result.coordinates
            assert decoder.center_sketch(witness, sketched).tobytes() == result.measured.tobytes()
            other = (plan.configurations().__next__(), result.coordinates[1])
            sketch = decoder.center_sketch(other, sketched)
            np.testing.assert_allclose(
                sketch, frame @ family.coefficient_prefix(family.member(*other), d), rtol=0.0, atol=1e-12
            )
        assert CountedFrame.products == []


def test_coefficient_decode_keeps_its_identity_uncopied(monkeypatch):
    # The identity goes to the operator read-only, which keeps it as it is:
    # building the operator allocates no second d x d array.
    d = 64
    grown = []
    build = nets.MeasurementOperator

    def measured_build(frame):
        before = tracemalloc.get_traced_memory()[0]
        operator = build(frame)
        grown.append(tracemalloc.get_traced_memory()[0] - before)
        assert operator.frame is frame
        return operator

    decoder = step_decoder(1.5, d)
    target = np.random.default_rng(64).normal(scale=0.7, size=d)
    expected = decoder.decode_measurements(target, decoder.prepare(build(np.eye(d))))
    monkeypatch.setattr(nets, "MeasurementOperator", measured_build)
    tracemalloc.start()
    try:
        result = decoder.decode_coefficients(target)
    finally:
        tracemalloc.stop()
    assert len(grown) == 1 and grown[0] < 8 * d * d / 4
    assert (result.index, result.distance) == (expected.index, expected.distance)


def test_phases_are_built_once_per_dimension():
    # A decoder serves one d: it builds its phases at construction, keeps
    # them read-only, and refuses every other length.  Each coefficient
    # decode builds the identity's terms anew.
    def decode_all(decoder, targets):
        results = [decoder.decode_coefficients(target) for target in targets]
        return [(result.index, result.distance) for result in results]

    for d in (40, 41):
        targets = np.random.default_rng(d).normal(scale=0.7, size=(6, d))
        expected = decode_all(step_decoder(1.5, d), targets)
        decoder = step_decoder(1.5, d)
        phases = decoder._phases
        assert phases.shape == (d // 2 + 1,) and not phases.flags.writeable
        assert np.array_equal(phases, step_decoder(1.5, d)._phases)
        # Threads sharing the decoder, switching often.
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(decode_all, decoder, targets) for _ in range(8)]
                for future in futures:
                    assert future.result(timeout=60) == expected
        finally:
            sys.setswitchinterval(previous)
        assert decoder._phases is phases
        with pytest.raises(UsageError):
            decoder.decode_coefficients(np.zeros(81 - d))


def geometry_arrays(geometry):
    """Every array a search geometry holds, found by walking its fields."""
    if isinstance(geometry, np.ndarray):
        return [geometry]
    if isinstance(geometry, (list, tuple)):
        return [array for part in geometry for array in geometry_arrays(part)]
    return []


def count_term_builds(monkeypatch):
    """Patch the decoder's ``_operator_terms`` to log each build's ``n``; returns the log."""
    builds = []

    def counted_build(self, operator, build=FactoredStepDecoder._operator_terms):
        builds.append(operator.n)
        return build(self, operator)

    monkeypatch.setattr(FactoredStepDecoder, "_operator_terms", counted_build)
    return builds


def test_each_geometry_is_factored_once(monkeypatch):
    factored = []
    real = nets._grid_geometry

    def counting(gram, grids):
        factored.append(len(grids))
        return real(gram, grids)

    monkeypatch.setattr(nets, "_grid_geometry", counting)
    builds = count_term_builds(monkeypatch)
    rng = np.random.default_rng(53)
    operators = [random_subspace(40, 9, seed=seed) for seed in (1, 2)]
    kept = []
    # No decoder builds terms at construction or in a measurement decode;
    # each factors once per prepare, and a coefficient decode once per
    # call, for the identity.
    for decoder in (step_decoder(1.5, 40), build_net(step_class(degree=1), 6.0, d=40).decoder):
        assert factored == [] and builds == []
        for count, operator in enumerate(operators, start=1):
            sketched = decoder.prepare(operator)
            for _ in range(3):
                decoder.decode_measurements(rng.normal(size=9), sketched)
            assert len(factored) == len(builds) == count
        kept.append(sketched)
        for count in (3, 4):
            decoder.decode_coefficients(rng.normal(scale=0.7, size=40))
            assert len(factored) == len(builds) == count
        factored.clear()
        builds.clear()

    for geometry in kept:
        arrays = geometry_arrays(geometry)
        assert len(arrays) >= 5
        assert not any(array.flags.writeable for array in arrays)


def test_a_step_decode_builds_its_center_through_the_class(monkeypatch):
    # The decoded center is the class's member, expanded by the class's
    # coefficient_prefix: one analyze_piecewise call per decode, and none
    # for the operator's geometry.
    calls = []
    real = function_classes.analyze_piecewise

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    family, d = step_class(), 40
    decoder = build_net(family, 1.5, d=d).decoder
    assert decoder.family is family
    sketched = decoder.prepare(random_subspace(d, 9, seed=3))
    monkeypatch.setattr(function_classes, "analyze_piecewise", counting)
    rng = np.random.default_rng(59)
    for decode in (
        lambda: decoder.decode_measurements(rng.normal(size=9), sketched),
        lambda: decoder.decode_coefficients(rng.normal(scale=0.5, size=d)),
    ):
        calls.clear()
        result = decode()
        assert len(calls) == 1
        assert result.member == family.member(*result.coordinates)
        assert result.coefficients.tobytes() == real(result.member, d).coefficients.tobytes()


def test_full_rank_measurements_reduce_to_coefficient_decoding():
    decoder = step_decoder(1.5, 16)
    operator = random_subspace(16, 16, seed=5)
    sketched = decoder.prepare(operator)
    rng = np.random.default_rng(31)
    for _ in range(8):
        target = rng.normal(scale=0.7, size=16)
        y = apply_operator(operator, target)
        direct = decoder.decode_coefficients(target)
        via_op = decoder.decode_measurements(y, sketched)
        assert via_op.index == direct.index
        assert via_op.distance == pytest.approx(direct.distance, rel=1e-10)


def reference_rows(family, plan, d):
    """Every center's first ``d`` coefficients, by one expansion per center.

    The materialized decoder's set-up before it used one linear map per
    configuration, kept here as the oracle.
    """
    rows = np.empty((plan.size, d))
    for row, member in zip(rows, enumerate_members(family, plan)):
        row[:] = family.coefficient_prefix(member, d)
    return rows


@pytest.mark.parametrize(
    "family, eps1",
    [
        (SmoothClass(3, 2.0), 0.5),  # the smooth experiment's net
        (step_class(), 1.5),  # the materialized step experiment's net
        (step_class(max_jumps=2, min_gap=1.5), 3.0),
        (step_class(degree=1), 6.0),
        (PiecewiseAnalyticClass(max_jumps=1, strip_width=2.0, amplitude=0.5), 2.0),
    ],
)
def test_materialized_decoder_matches_the_per_member_oracle(family, eps1):
    plan = family.net_plan(eps1)
    members = centers(build_net(family, eps1))
    grid = np.array(list(itertools.product(*(axis.points() for axis in plan.axes))))
    values = np.tile(grid, (plan.config_count, 1))
    bounds = np.array([linear_expansion_bound(family, row) for row in values])
    coordinates = [(b, tuple(map(float, point))) for b in plan.configurations() for point in grid]
    rng = np.random.default_rng(plan.size)
    for d in (3, 16):
        decoder = build_net(family, eps1, m_max=math.inf, d=d).decoder
        oracle = reference_rows(family, plan, d)
        identity = np.eye(d)
        identity.setflags(write=False)
        operators = (MeasurementOperator(identity), random_subspace(d, 2, seed=d + 2))
        operators += (random_subspace(d, d, seed=2 * d),)
        for operator in operators:
            sketched = decoder.prepare(operator)
            # The decoder's sketch of every center, from the shared columns.
            used = np.array([decoder.center_sketch(center, sketched) for center in coordinates])
            rows = oracle @ operator.frame.T
            if operator.frame is identity:
                assert np.all(np.abs(used - oracle) <= bounds[:, None])
            # Each distance the decoder computes moves by at most ``gap``.
            gap = float(np.max(np.linalg.norm(used - rows, axis=1)))
            for scale in (1e-3, 0.1, 1.0):
                for index in rng.choice(plan.size, size=4):
                    target = rows[index] + scale * rng.normal(size=rows.shape[1])
                    result = decoder.decode_measurements(target, sketched)
                    best, distance = row_scan(rows, target)
                    # The winner is the scan's, or ties it up to 1e-12
                    # relative and twice the sketches' rounding gap.
                    assert result.index == best or np.linalg.norm(
                        rows[result.index] - target
                    ) <= distance * (1.0 + 1e-12) + 2.0 * gap
                    assert member_bytes(result.member) == member_bytes(members[result.index])
                    assert np.array_equal(result.coefficients, oracle[result.index])
                    assert result.measured.tobytes() == used[result.index].tobytes()


# Small nets of every class: smooth, analytic with 0 to 2 jumps, and
# piecewise of degree 0 to 3 with 0 to 3 jumps (wide gaps keep three jumps
# enumerable).
REFERENCE_CASES = (
    (SmoothClass(2, 2.0), 0.5),
    *((PiecewiseAnalyticClass(s, 1.0, 1.0), eps1) for s, eps1 in ((0, 3.0), (1, 3.0), (2, 12.0))),
    *((step_class(degree=degree, max_jumps=0), 3.0) for degree in range(4)),
    *((step_class(degree=degree), eps1) for degree, eps1 in ((0, 3.0), (1, 6.0), (2, 12.0), (3, 24.0))),
    (step_class(max_jumps=2, min_gap=3.0), 3.0),
    (step_class(degree=1, max_jumps=2, min_gap=3.0), 12.0),
    (step_class(degree=2, max_jumps=2, min_gap=3.0, deriv_bound=0.5, level_bound=4.0), 40.0),
    (step_class(degree=3, max_jumps=2, min_gap=3.0, deriv_bound=0.5, level_bound=4.0), 40.0),
    (step_class(max_jumps=3, min_gap=3.0), 3.0),
    (step_class(degree=1, max_jumps=3, min_gap=3.0), 12.0),
    (step_class(degree=2, max_jumps=3, min_gap=3.0, deriv_bound=0.5, level_bound=4.0), 40.0),
    (step_class(degree=3, max_jumps=3, min_gap=3.0, deriv_bound=0.5, level_bound=4.0), 24.0),
)


def test_reference_cases_are_small():
    # A search sweeps a configuration whole when its Gram is singular (as
    # under a one-row operator), so every net here stays small.
    assert max(family.net_plan(eps1).size for family, eps1 in REFERENCE_CASES) <= 20_000


@functools.lru_cache(maxsize=None)
def reference_pair(case, d):
    """The decoder of ``REFERENCE_CASES[case]`` at ``d``, and the map decoder over the same plan."""
    family, eps1 = REFERENCE_CASES[case]
    decoder = build_net(family, eps1, m_max=math.inf, d=d).decoder
    return decoder, ConfigurationDecoder(decoder.plan, d, family)


def reference_operator(d, n, seed):
    """The identity at ``n = d``, else a random ``n``-row operator."""
    if n < d:
        return random_subspace(d, n, seed=seed)
    identity = np.eye(d)
    identity.setflags(write=False)
    return MeasurementOperator(identity)


def jump_scale(plan, axis):
    """An axis's jump-relation size: ``sum_r j! / (j - r)! pi^(j-r)`` for a monomial ``u^j``, 1 for a basis vector.

    The sketch of a monomial on a short piece is a difference of terms this
    large, and ``hilbert.analyze_piecewise`` and the decoder's tables each
    round every one of them: a cubic one cell wide has a sketch near 4e-10
    from jumps of 6, and each misses a 50-digit value by about 1e-6 of it.
    """
    if plan.degree is None or axis >= (plan.jumps + 1) * (plan.degree + 1):
        return 1.0
    j = axis % (plan.degree + 1)
    return sum(math.factorial(j) / math.factorial(j - r) * math.pi ** (j - r) for r in range(j + 1))


@settings(max_examples=60, deadline=None)
@given(
    case=st.integers(0, len(REFERENCE_CASES) - 1),
    d=st.sampled_from([1, 2, 9, 16]),
    rows=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**31 - 1),
)
def test_axis_sketches_and_grams_are_the_projected_maps(case, d, rows, seed):
    # Every axis of every configuration: the decoder's sketch is R times
    # the axis's expansion, coefficient_prefix(member(b, e_a), d), to 1e-12
    # of the axis's jump terms (or of its own norm, if larger); its Gram
    # entries agree to the same scale.
    decoder, reference = reference_pair(case, d)
    plan, k = decoder.plan, len(decoder.plan.axes)
    operator = reference_operator(d, max(1, round(rows * d)), seed)
    sketched = decoder.prepare(operator)
    maps = operator.frame @ reference.maps  # (C, n, k)
    norm = float(np.linalg.norm(operator.frame, 2))
    units, jumps = np.eye(k), np.array([jump_scale(plan, a) for a in range(k)])
    for c, breakpoints in enumerate(decoder.configurations):
        assert breakpoints == reference.configurations[c]
        got = np.column_stack([decoder.center_sketch((breakpoints, tuple(unit)), sketched) for unit in units])
        scale = np.maximum(np.linalg.norm(maps[c], axis=0), norm * jumps)
        assert np.all(np.abs(got - maps[c]) <= 1e-12 * scale)
        gram = maps[c].T @ maps[c]
        assert np.all(np.abs(sketched.geometry.gram[:, :, c] - gram) <= 1e-12 * np.outer(scale, scale))


@settings(max_examples=60, deadline=None)
@given(
    case=st.integers(0, len(REFERENCE_CASES) - 1),
    d=st.sampled_from([9, 16]),
    rows=st.floats(0.0, 1.0),
    noise=st.sampled_from([0.0, 1e-9, 1e-3, 0.1, 1.0]),
    seed=st.integers(0, 2**31 - 1),
)
def test_decoder_decodes_as_the_reference_map_decoder(case, d, rows, noise, seed):
    # Under the identity and random operators, targets at a center, near
    # one and far from every one decode to the map decoder's index, or to a
    # tie: the same function (at exact distance 0), or objectives within
    # 1e-12 of the target's and the centers' squared sketches.
    decoder, reference = reference_pair(case, d)
    family, _ = REFERENCE_CASES[case]
    operator = reference_operator(d, max(1, round(rows * d)), seed)
    rng = np.random.default_rng(seed)
    configuration = reference.configurations[rng.integers(len(reference.configurations))]
    values = tuple(float(rng.choice(grid)) for grid in reference._grids)
    center = family.coefficient_prefix(family.member(configuration, values), d)
    y = operator.frame @ (center + noise * rng.normal(size=d))
    got = decoder.decode_measurements(y, decoder.prepare(operator))
    want = reference.decode_measurements(y, reference.prepare(operator))
    if got.index != want.index and family.distance(got.member, want.member) > 0.0:
        scale = float(y @ y + got.measured @ got.measured + want.measured @ want.measured)
        assert abs(got.distance**2 - want.distance**2) <= 1e-12 * scale


@pytest.mark.parametrize("eps1", [0.8, 0.3])
def test_factored_decoder_matches_the_configuration_decoder(eps1):
    # Step nets within the default m_max decode factored; the configuration
    # decoder over the same plan is the oracle.  Winners may differ only in a
    # tie: a constant is the same function at every breakpoint, and at d <= 2
    # many members share their coefficients up to rounding, where the tiny
    # residuals are exact only relative to the target.
    family = step_class()
    plan = family.net_plan(eps1)
    assert plan.size <= nets.DEFAULT_NET_BUDGET
    levels = plan.axes[0].points()
    rng = np.random.default_rng(int(10 * eps1))
    for d in (1, 2, 3, 4, 7, 43):
        net = build_net(family, eps1, d=d)
        assert net.mode == "factored" and isinstance(net.decoder, FactoredStepDecoder)
        oracle = ConfigurationDecoder(plan, d, family)
        operator = random_subspace(d, max(1, d // 2), seed=d)
        sketched = {decoder: decoder.prepare(operator) for decoder in (net.decoder, oracle)}
        targets = [
            step_member_coefficients(rng.choice(plan.positions), *rng.choice(levels, 2), d)
            + scale * rng.normal(size=d)
            for scale in (1e-3, 0.03, 0.3)
            for _ in range(10)
        ]
        for target in targets:
            for decode in (
                lambda decoder: decoder.decode_coefficients(target),
                lambda decoder: decoder.decode_measurements(apply_operator(operator, target), sketched[decoder]),
            ):
                got, want = decode(net.decoder), decode(oracle)
                if got.index == want.index:
                    assert got.member == want.member
                elif d > 2:
                    for member in (got.member, want.member):
                        assert member.piece_coefficients[0] == member.piece_coefficients[1]
                    # One constant, so the two sketches agree up to their
                    # expansion's and product's rounding, gamma_{d+4} of their
                    # size.  The computed distances are the residual norms to
                    # gamma_{d+2}, relative: they differ by at most that gap
                    # plus their own rounding, however small the residual.
                    gap = float(np.linalg.norm(got.measured - want.measured))
                    sizes = np.linalg.norm(got.measured) + np.linalg.norm(want.measured)
                    assert gap <= nets._gamma(d + 4) * sizes
                    slack = nets._gamma(d + 2) * (got.distance + want.distance + gap)
                    assert abs(got.distance - want.distance) <= gap + slack
                else:
                    assert abs(got.distance - want.distance) <= 1e-12 * np.linalg.norm(target)


def test_decoder_input_validation(monkeypatch):
    builds = count_term_builds(monkeypatch)
    operator = random_subspace(16, 7, seed=9)
    other = random_subspace(17, 7, seed=9)
    for decoder in (
        step_decoder(1.5, 16),
        build_net(step_class(degree=1), 6.0, d=16).decoder,
    ):
        sketched = decoder.prepare(operator)
        builds.clear()
        with pytest.raises(UsageError):
            decoder.decode_coefficients(np.zeros((2, 3)))
        with pytest.raises(UsageError):
            decoder.decode_coefficients(np.array([]))
        with pytest.raises(UsageError):
            decoder.decode_measurements(np.zeros(6), sketched)
        # A decoder serves one d: other lengths and operators are refused,
        # before any terms are built for them.
        with pytest.raises(UsageError):
            decoder.decode_coefficients(np.zeros(15))
        with pytest.raises(UsageError):
            decoder.prepare(other)
        assert builds == []
        with pytest.raises(UsageError, match="serves d = 16"):
            decoder.decode_measurements(np.zeros(7), step_decoder(1.5, 17).prepare(other))


# ---------------------------------------------------------------------------
# Breakpoint transform
# ---------------------------------------------------------------------------


def length_p_on_breakpoints(positions, series):
    """Reference: ``Re sum_f series_f exp(i f b)`` by one inverse DFT of length ``P``.

    Frequency ``f`` is frequency ``f mod P`` on the grid, so each whole turn
    of the series is folded into the ``P`` bins separately, in conjugate
    halves at bins ``f`` and ``-f``, and the transform is real.
    """
    count = positions.size
    values = series * np.exp(1j * np.arange(series.shape[-1]) * positions[0])
    spectrum = np.zeros(series.shape[:-1] + (count,), dtype=np.complex128)
    for start in range(0, values.shape[-1], count):
        half = 0.5 * values[..., start : start + count]
        bins = np.arange(half.shape[-1])
        spectrum[..., bins] += half
        spectrum[..., -bins % count] += np.conj(half, out=half)
    return np.fft.ifft(spectrum, axis=-1, norm="forward", out=spectrum).real


def grid_decoder(count, d):
    """A factored decoder at ``d`` on a plan of ``count`` breakpoints, any ``count``."""
    level = AxisLog(grid_count(1.0, 0.5), 0.5)
    plan = NetPlan(eps1=1.0, axes=(level, level), breakpoint_count=count, jumps=1, degree=0)
    return FactoredStepDecoder(plan, d, step_class())


# Every plan's grid starts half a pitch in, the one offset a decoder can have.
@pytest.mark.parametrize("offset", [0.5])
@pytest.mark.parametrize("count", [1, 2, 45, 70, 97, 10_054, 10_125])
def test_on_breakpoints_matches_the_length_p_oracle(count, offset):
    # _on_breakpoints on smooth (1, 2, 45, 10,125) and rough (70, 97,
    # 10,054) grids alike, at a d whose series reach 3 P + 1 frequencies, so
    # the longest series fold three whole turns.  Widths P // 2 + 1 and
    # P // 2 + 2 reach the first bins folded onto P - f (the Nyquist bin of
    # an even P), and 2 P - 1 ends one bin short of a second whole turn.
    decoder = grid_decoder(count, 2 * (3 * count + 1))
    assert decoder.positions[0] == -math.pi + offset * TWO_PI / count
    rng = np.random.default_rng(count)
    widths = (1, 2, count // 2, count // 2 + 1, count // 2 + 2, count, 2 * count - 1, 3 * count + 1)
    for width in widths:
        for series in (
            rng.normal(size=width) + 1j * rng.normal(size=width),
            rng.normal(size=(3, width)) + 1j * rng.normal(size=(3, width)),
            rng.normal(size=width),  # real, as the indicator norms pass
        ):
            got = decoder._on_breakpoints(series.astype(np.complex128))  # a copy: it is overwritten
            want = length_p_on_breakpoints(decoder.positions, series)
            assert got.shape == want.shape and got.flags.c_contiguous
            scale = np.sum(np.abs(series), axis=-1, keepdims=True)
            assert np.all(np.abs(got - want) <= 1e-12 * scale)


@settings(max_examples=200, deadline=None)
@given(pitch=st.floats(1e-5, 10.0))
@example(pitch=0.1**2 / (2.0 + 0.05 / math.sqrt(math.pi)) ** 2)  # the bench grid, 2,585 -> 2,592
def test_position_grid_takes_the_next_smooth_count(pitch):
    count, effective = position_grid(pitch)
    needed = math.ceil(TWO_PI / pitch)
    assume(needed <= 10**6)  # a bound on the sweep below, not on position_grid
    assert rough_part(count) == 1 and count >= needed
    assert all(rough_part(n) > 1 for n in range(needed, count))
    assert effective == TWO_PI / count <= pitch * (1.0 + 1e-12)


def rough_part(n):
    """``n`` without its factors 2, 3 and 5."""
    for p in (2, 3, 5):
        while n % p == 0:
            n //= p
    return n


def test_bench_size_decode_uses_only_smooth_fft_lengths(monkeypatch):
    """At the bench size (P = 2,592 = 2^5 * 3^4) every transform is a real
    inverse FFT on the breakpoints: no other kind, and no length with a
    prime factor above 5, where numpy falls back to its own Bluestein set-up
    on every call."""
    lengths = []

    def recording(name, function):
        inverse_real = name in ("irfft", "hfft")

        @functools.wraps(function)
        def wrapper(a, n=None, axis=-1, *args, **kwargs):
            if n is None:
                n = np.shape(a)[axis]
                n = 2 * (n - 1) if inverse_real else n
            lengths.append((name, n))
            return function(a, n, axis, *args, **kwargs)

        return wrapper

    for name in ("fft", "ifft", "rfft", "irfft", "hfft", "ihfft"):
        monkeypatch.setattr(np.fft, name, recording(name, getattr(np.fft, name)))
    for name in ("fft2", "ifft2", "fftn", "ifftn", "rfft2", "irfft2", "rfftn", "irfftn"):
        monkeypatch.setattr(np.fft, name, None)  # any multi-axis call fails loudly

    d = 1_886  # the bench's fitted d at seed 1
    decoder = step_decoder(0.1, d)
    assert decoder.positions.size == 2_592
    operator = random_subspace(d, 604, seed=3)
    target = step_member_coefficients(decoder.positions[1234], 0.5, -0.25, d)
    decoder.decode_measurements(apply_operator(operator, target), decoder.prepare(operator))
    decoder.decode_coefficients(target)
    assert lengths and set(lengths) == {("irfft", 2_592)}


# ---------------------------------------------------------------------------
# Branch-and-bound decode against the full sweep
# ---------------------------------------------------------------------------


# Leaf budgets that send every search down one path: every leaf evaluated in
# arrays, or every one on scalars, one at a time.
ONE_PATH_BUDGETS = {"in arrays": 0, "one by one": 10**9}


def full_sweep(self, geometry, sketch, y):
    """Reference: every (breakpoint, ``c0``) pair, in the decoder's arithmetic.

    The factored decoder's sweep before it pruned breakpoints, kept here as
    the oracle the pruned search must match bit for bit.  It stands in for
    the decoder's ``_search`` and reads the same inputs, the kept 2x2 Grams
    and the decoder's projections ``q0`` and ``q1`` of ``y``.
    """
    c0 = self.plan.axes[0].points()
    q0, q1 = self._projections(sketch, y)
    (g00, g01), (_, g11) = geometry.gram
    half = (self.plan.axes[0].points().size - 1) // 2
    k = np.multiply.outer(g01, c0)
    np.subtract(q1[:, None], k, out=k)
    k /= g11[:, None]
    k /= self.plan.axes[0].step
    k += 0.5
    np.floor(k, out=k)
    np.clip(k, -half, half, out=k)
    c1 = k * self.plan.axes[0].step
    objective = np.multiply.outer(q0, c0)
    term = c1 * q1[:, None]
    objective += term
    objective *= -2.0
    objective += np.multiply.outer(g00, c0**2)
    np.multiply(2.0 * c0, c1, out=term)
    term *= g01[:, None]
    objective += term
    np.square(c1, out=c1)
    c1 *= g11[:, None]
    objective += c1
    p_idx, c0_idx = divmod(int(np.argmin(objective)), c0.size)
    return p_idx, (c0_idx, int(k[p_idx, c0_idx]) + half)


@functools.lru_cache(maxsize=2)
def bench_step_decoders(d):
    """The bench step class's factored decoder at eps = 0.6 (eps1 = 0.1) and
    ``d``, and a copy that sweeps every breakpoint."""
    decoder = step_decoder(0.1, d)
    assert (decoder.positions.size, decoder.plan.axes[0].points().size) == (2_592, 37)
    reference = copy.copy(decoder)
    reference._search = types.MethodType(full_sweep, reference)
    return decoder, reference


def step_member_coefficients(b, c0, c1, d):
    coefficients = (c0 - c1) * dense_indicator_rows([b], d)[0]
    coefficients[0] += c1 * math.sqrt(TWO_PI)
    return coefficients


def assert_same_decode(got, want):
    assert got.index == want.index
    assert got.distance.hex() == want.distance.hex()
    assert got.coefficients.tobytes() == want.coefficients.tobytes()
    assert got.member == want.member


@settings(max_examples=20, deadline=None)
@given(
    kind=st.sampled_from(["member", "constant"]),
    noise=st.sampled_from([0.0, 1e-9, 1e-4, 0.03, 0.3]),
    operator_seed=st.integers(0, 2**31 - 1),
    data_seed=st.integers(0, 2**31 - 1),
)
def test_pruned_decode_equals_the_full_sweep(kind, noise, operator_seed, data_seed):
    d, n = 300, 150
    decoder, reference = bench_step_decoders(d)
    operator = random_subspace(d, n, seed=operator_seed)
    sketched = decoder.prepare(operator)  # the reference's too: it differs only in its search
    rng = np.random.default_rng(data_seed)
    if kind == "constant":
        level = rng.choice(decoder.plan.axes[0].points())  # c * 1 ties at every breakpoint
        target = step_member_coefficients(0.0, level, level, d)
    else:
        b = rng.choice(decoder.positions)
        target = step_member_coefficients(b, *rng.choice(decoder.plan.axes[0].points(), 2), d)
        target += noise * rng.normal(size=d)
    for decode in (
        lambda dec, x: dec.decode_coefficients(x),
        lambda dec, x: dec.decode_measurements(apply_operator(operator, x), sketched),
    ):
        want = decode(reference, target)
        assert_same_decode(decode(decoder, target), want)
        # On a member the winner's objective meets its bound up to rounding.
        member = decode(reference, want.coefficients)
        assert_same_decode(decode(decoder, want.coefficients), member)


@pytest.mark.parametrize("path", sorted(ONE_PATH_BUDGETS))
def test_each_leaf_path_decodes_as_the_full_sweep(path):
    # Constant targets tie at every breakpoint; noisy members keep few or
    # many breakpoints.  Either path alone must give the sweep's decode.
    d, n = 300, 150
    decoder, reference = bench_step_decoders(d)
    operator = random_subspace(d, n, seed=71)
    sketched = decoder.prepare(operator)
    rng = np.random.default_rng(71)
    levels = decoder.plan.axes[0].points()
    targets = [step_member_coefficients(0.0, level, level, d) for level in levels[::9]]
    for noise in (0.0, 1e-4, 0.03, 0.3):
        b = rng.choice(decoder.positions)
        targets.append(step_member_coefficients(b, *rng.choice(levels, 2), d) + noise * rng.normal(size=d))
    with mock.patch.object(nets, "_SCALAR_LEAVES", ONE_PATH_BUDGETS[path]):
        for target in targets:
            assert_same_decode(decoder.decode_coefficients(target), reference.decode_coefficients(target))
            y = apply_operator(operator, target)
            want = reference.decode_measurements(y, sketched)
            assert_same_decode(decoder.decode_measurements(y, sketched), want)


@pytest.mark.parametrize(
    "family, eps1",
    [(SmoothClass(3, 2.0), 0.5), (step_class(max_jumps=2, min_gap=1.5), 3.0), (step_class(degree=1), 6.0)],
)
def test_each_leaf_path_decodes_as_the_row_scan(family, eps1):
    # Configuration nets of one to three axes: both paths give one decode,
    # the row scan's winner up to ties within the maps' rounding.
    d = 16
    decoder = build_net(family, eps1, d=d).decoder
    rows = decoder_rows(decoder)
    rng = np.random.default_rng(83)
    for scale in (0.0, 1e-3, 0.3):
        for index in rng.choice(len(rows), size=4):
            target = rows[index] + scale * rng.normal(size=d)
            decodes = []
            for budget in ONE_PATH_BUDGETS.values():
                with mock.patch.object(nets, "_SCALAR_LEAVES", budget):
                    decodes.append(decoder.decode_coefficients(target))
            first, second = decodes
            assert (first.index, first.distance.hex()) == (second.index, second.distance.hex())
            assert member_bytes(first.member) == member_bytes(second.member)
            best, distance = row_scan(rows, target)
            assert decodes[0].index == best or decodes[0].distance <= distance * (1.0 + 1e-12) + 1e-12


def test_kept_factor_decodes_as_the_per_decode_factor():
    # The kept geometry must give the bits of assembling and factoring the
    # 2x2 Grams on every decode, in both spaces, ties included.
    d, n = 300, 150
    decoder, _ = bench_step_decoders(d)
    assert decoder.positions.size >= 1_000
    reference = per_decode_copy(decoder)
    operator = random_subspace(d, n, seed=61)
    rng = np.random.default_rng(61)
    targets = [rng.normal(scale=0.5, size=d) for _ in range(4)]
    # Constant members tie at every breakpoint.
    targets += [step_member_coefficients(0.0, level, level, d) for level in decoder.plan.axes[0].points()[::17]]

    def decodes(dec, target, sketched):
        results = [
            dec.decode_coefficients(target),
            dec.decode_measurements(apply_operator(sketched.operator, target), sketched),
        ]
        return [(result.index, result.distance.hex()) for result in results]

    kept, raw = decoder.prepare(operator), reference.prepare(operator)
    for target in targets:
        assert decodes(decoder, target, kept) == decodes(reference, target, raw)

    # Four threads sharing one fresh decoder at each of d 40 and 41, both spaces.
    for d in (40, 41):
        shared = step_decoder(0.1, d)
        reference = per_decode_copy(step_decoder(0.1, d))
        operator = random_subspace(d, 20, seed=d)
        kept, raw = shared.prepare(operator), reference.prepare(operator)
        cases = [rng.normal(scale=0.7, size=d) for _ in range(4)]
        expected = [decodes(reference, target, raw) for target in cases]
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(decodes, shared, target, kept) for target in cases * 2]
                for want, future in zip(expected * 2, futures):
                    assert future.result(timeout=120) == want
        finally:
            sys.setswitchinterval(previous)


def test_pruning_sweeps_few_breakpoints(caplog):
    d, n = 1_886, 604  # the bench's fitted d at seed 1, and a tall n
    decoder, _ = bench_step_decoders(d)
    operator = random_subspace(d, n, seed=11)
    sketched = decoder.prepare(operator)
    rng = np.random.default_rng(101)
    targets = []
    for _ in range(20):
        c0, c1 = rng.choice(decoder.plan.axes[0].points(), 2, replace=False)
        targets.append(step_member_coefficients(rng.choice(decoder.positions), c0, c1, d))
    # A constant (c0 = c1) ties at every breakpoint, so none can be pruned;
    # the level window still skips all levels but about one of each.
    for noise in (0.0, 1e-3):
        level = rng.choice(decoder.plan.axes[0].points())
        targets.append(step_member_coefficients(0.0, level, level, d) + noise * rng.normal(size=d))
    with caplog.at_level(logging.DEBUG, logger="netsketch.nets"):
        for target in targets:
            decoder.decode_coefficients(target)
            decoder.decode_measurements(apply_operator(operator, target), sketched)
    line = re.compile(
        r"grid search: 2592 configurations, (\d+) kept after bounding"
        r" \(\d+ never pruned\), frontier \1, (\d+) leaves"
    )
    matches = [match for match in map(line.fullmatch, caplog.messages) if match]
    swept = np.array([(int(match.group(1)), int(match.group(2))) for match in matches])
    assert swept.shape == (44, 2)
    assert np.median(swept[0:40:2, 0]) <= 0.01 * 2_592
    assert np.median(swept[1:40:2, 0]) <= 0.01 * 2_592
    assert np.all(swept[:, 1] <= 2 * 2_592)


def test_one_configuration_decode_seeds_with_one_leaf():
    # The smooth class at eps1 0.1 has 1.18e7 centers in one configuration,
    # 3.9e6 leaves; a decode near the class seeds its bound with one leaf,
    # where sweeping the configuration traced 715 MB.
    family = SmoothClass(2, 2.0)
    decoder = build_net(family, 0.1, m_max=math.inf, d=64).decoder
    assert len(decoder.configurations) == 1 and math.prod(grid.size for grid in decoder._grids) == 11_830_455
    rng = np.random.default_rng(67)
    for _ in range(3):
        target = family.coefficient_prefix(family.sample(rng, 256), 64)
        tracemalloc.start()
        try:
            result = decoder.decode_coefficients(target)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        assert result.distance <= 0.1


VALID_UNDER_THE_IDENTITY = (
    SmoothClass(2, 2.0),
    step_class(max_jumps=0),
    step_class(),
    step_class(max_jumps=2, min_gap=1.5),
    step_class(degree=1),
    PiecewiseAnalyticClass(0, 1.0, 1.0),
    PiecewiseAnalyticClass(1, 1.0, 1.0),
    PiecewiseAnalyticClass(2, 1.0, 1.0),
)


@pytest.mark.parametrize("family", VALID_UNDER_THE_IDENTITY, ids=lambda family: family.spec_string())
def test_every_configuration_is_valid_under_the_identity(family):
    # Each axis vector is carried once, so no configuration's Gram is
    # singular and the search bounds every one.
    identity = np.eye(64)
    identity.setflags(write=False)
    operator = MeasurementOperator(identity)
    for eps1 in (12.0, 8.0, 6.0):
        geometry = build_net(family, eps1, m_max=math.inf, d=64).decoder.prepare(operator).geometry
        assert geometry.valid.all()


def test_an_analytic_decode_bounds_every_configuration(caplog):
    family = PiecewiseAnalyticClass(2, 1.0, 1.0)
    decoder = build_net(family, 6.0, m_max=math.inf, d=64).decoder
    rng = np.random.default_rng(31)
    with caplog.at_level(logging.DEBUG, logger="netsketch.nets"):
        for _ in range(3):
            decoder.decode_coefficients(family.coefficient_prefix(family.sample(rng, 256), 64))
    line = re.compile(r"grid search: 1770 configurations, (\d+) kept after bounding \((\d+) never pruned\).*")
    matches = [match for match in map(line.fullmatch, caplog.messages) if match]
    assert len(matches) == 3
    assert all(int(match.group(2)) == 0 for match in matches)
    assert min(int(match.group(1)) for match in matches) < 1770


@pytest.mark.parametrize("jumps, eps1", [(1, 3.0), (2, 12.0)])
def test_analytic_centers_coincide_only_through_equal_adjacent_levels(jumps, eps1):
    # Two equal adjacent levels hide a breakpoint, so the same function is
    # a center at every position of it; no other two centers coincide.
    # Centers at distance 0 have the same first 64 coefficients, so each is
    # among the centers whose prefix is near another's.
    family = PiecewiseAnalyticClass(jumps, 1.0, 1.0)
    members = centers(build_net(family, eps1))
    prefixes = np.array([family.coefficient_prefix(member, 64) for member in members])
    squares = np.einsum("ij,ij->i", prefixes, prefixes)
    shared = 0
    for start in range(0, len(members), 512):
        block = prefixes[start : start + 512]
        near = squares[start : start + 512, None] + squares[None, :] - 2.0 * block @ prefixes.T < 1e-9
        for i, row in enumerate(near, start):
            if row.sum() > 1:
                levels = [coeffs[0] for coeffs in members[i].steps.piece_coefficients]
                assert any(left == right for left, right in zip(levels, levels[1:]))
                assert family.distance(members[int(row.argmax())], members[i]) == 0.0
                shared += 1
    assert shared


# ---------------------------------------------------------------------------
# The closest-point engine against exhaustive enumeration
# ---------------------------------------------------------------------------


def exhaustive_on_grid(gram, projections, grids, step):
    """Reference: every leaf of every configuration, in the engine's arithmetic.

    Each configuration's leaves are every point of the grids but the last, in
    ``itertools.product`` order, with the last axis from the same closed form
    (``nets._leaf_objective``); the argmin's first occurrence is the lowest
    member index.
    """
    counts = [grid.size for grid in grids[:-1]]
    prefix = [p.ravel() for p in np.meshgrid(*grids[:-1], indexing="ij")]
    size, configs = math.prod(counts), projections[0].size
    rows = np.repeat(np.arange(configs), size)
    values = [np.tile(p, configs) for p in prefix]
    with np.errstate(all="ignore"):  # a zero last column is 0 / 0
        objective, last = nets._leaf_objective(
            gram, projections, rows, values, step, grids[-1].size
        )
    best = int(np.argmin(objective))
    steps = np.unravel_index(best % size, counts) if counts else ()
    return int(rows[best]), (*map(int, steps), int(last[best]))


def exact_nearest(gram, projections, grids):
    """Reference for exact data: every member, the last axis's values included.

    With integer data every objective is exact.  The winner is the lowest
    member index at the minimum, except that the last axis is rounded: of two
    tied values in one leaf (a half-way optimum, ``G_zz > 0``) it takes the
    upper.
    """
    counts = [grid.size for grid in grids]
    points = np.stack([p.ravel() for p in np.meshgrid(*grids, indexing="ij")])
    objective = -2.0 * (projections.T @ points)
    objective += np.einsum("is,ijc,js->cs", points, np.asarray(gram), points)
    objective = objective.ravel()
    tied = np.flatnonzero(objective == objective.min())
    best = int(tied[0])
    config, last = divmod(best, math.prod(counts))
    if gram[-1][-1][config] > 0.0 and last % counts[-1] + 1 < counts[-1] and best + 1 in tied:
        best += 1
    config, flat = divmod(best, math.prod(counts))
    return config, tuple(map(int, np.unravel_index(flat, counts)))


def grid_problem(maps, grids, target, step, exact=False):
    """The engine's inputs for centers ``maps[c] @ x``, ``x`` on ``grids``."""
    gram = np.ascontiguousarray(np.matmul(maps.transpose(0, 2, 1), maps).transpose(1, 2, 0))
    projections = np.ascontiguousarray(np.matmul(target, maps).T)
    return gram, projections, grids, step, exact


def mirrored_problem(seed):
    """Configuration 1 repeats configuration 0's map with its columns reversed.

    On equal grids, with a member as the target, both configurations reach
    the minimum up to rounding, so which wins rests on the last bits: without
    the rounding slack a bound or a window misses the winner here.
    """
    rng = np.random.default_rng(seed)
    k = 2 + seed % 3
    maps = rng.normal(size=(2, 6, k))
    maps[1] = maps[0, :, ::-1]
    grids = [nets._centered_grid(9, 0.25)] * k
    member = np.array([grid[rng.integers(9)] for grid in grids])
    return grid_problem(maps, grids, maps[seed % 2] @ member, 0.25)


@st.composite
def grid_problems(draw):
    """Grams and projections of up to 12 configurations of 1 to 4 axes.

    ``A_c`` has 1 to 6 rows, so fewer than ``k`` makes ``G_c`` singular;
    its last column may nearly repeat its first, and a configuration may
    repeat another's map with its columns reversed.  Integer data at pitch 1
    is exact throughout, so a target half a step off a member on the last
    axis is exactly half-way.  Otherwise targets are members plus noise.
    """
    k = draw(st.integers(1, 4))
    configs = draw(st.integers(1, 12))
    counts = [draw(st.sampled_from([1, 3, 5, 7, 9])) for _ in range(k)]
    exact = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (configs, draw(st.integers(1, 6)), k)
    if exact:
        steps = [1.0] * k
        maps = rng.integers(-3, 4, size=shape).astype(np.float64)
    else:
        steps = [draw(st.floats(0.05, 2.0)) for _ in range(k)]
        maps = rng.normal(size=shape)
    if k > 1 and draw(st.booleans()):
        maps[..., -1] = maps[..., 0] + (0.0 if exact else 1e-9) * rng.normal(size=shape[:2])
    if configs > 1 and draw(st.booleans()):
        maps[-1] = maps[0, :, ::-1]
        steps = [steps[0]] * k
    grids = [nets._centered_grid(count, step) for count, step in zip(counts, steps)]
    home = int(rng.integers(configs))
    member = np.array([grid[rng.integers(grid.size)] for grid in grids])
    kind = draw(st.sampled_from(["member", "half-way", "noise"]))
    if kind == "half-way":
        member[-1] += 0.5 * steps[-1]
    target = maps[home] @ member
    if kind == "noise":
        target += draw(st.sampled_from([1e-12, 1e-4])) * rng.normal(size=target.size)
    return grid_problem(maps, grids, target, steps[-1], exact and kind != "noise")


@settings(max_examples=400, deadline=None)
@given(problem=grid_problems())
@example(problem=mirrored_problem(0))
@example(problem=mirrored_problem(1))
@example(problem=mirrored_problem(2))
def test_nearest_on_grid_equals_exhaustive_enumeration(problem):
    gram, projections, grids, step, exact = problem
    geometry = nets._grid_geometry(gram, grids)
    found = nets._nearest_on_grid(geometry, projections, grids, step)
    assert found == exhaustive_on_grid(gram, projections, grids, step)
    if exact:
        assert found == exact_nearest(gram, projections, grids)


@settings(max_examples=150, deadline=None)
@given(problem=grid_problems())
@example(problem=mirrored_problem(0))
@example(problem=mirrored_problem(1))
def test_each_leaf_path_equals_exhaustive_enumeration(problem):
    # The scalar and the array evaluation run the same arithmetic on the same
    # leaves in the same order, so each alone finds the exhaustive winner.
    gram, projections, grids, step, _ = problem
    geometry = nets._grid_geometry(gram, grids)
    want = exhaustive_on_grid(gram, projections, grids, step)
    for budget in ONE_PATH_BUDGETS.values():
        with mock.patch.object(nets, "_SCALAR_LEAVES", budget):
            assert nets._nearest_on_grid(geometry, projections, grids, step) == want


def seed_leaf_problem(case):
    """One configuration of two axes whose seed leaf rounds its last axis as ``case`` says.

    ``zero column``: ``G_zz = G_0z = q_z = 0``, so ``c_z`` is ``0 / 0`` and
    takes the lowest index; ``clamped high`` and ``clamped low``: ``q_z``
    far past either end of the grid; ``inside``: a member's own projections.
    """
    grids = [nets._centered_grid(9, 0.25)] * 2
    maps = np.array([[[1.0, 0.5], [0.25, 1.0], [0.5, -0.75]]])
    if case == "zero column":
        maps[..., 1] = 0.0
    gram, projections, _, step, _ = grid_problem(maps, grids, maps[0] @ np.array([0.5, -0.25]), 0.25)
    if case.startswith("clamped"):
        projections[1] = 1e3 if case == "clamped high" else -1e3
    return gram, projections, grids, step


@pytest.mark.parametrize("case", ["zero column", "clamped high", "clamped low", "inside"])
def test_the_incumbent_is_the_seed_leaf_in_array_arithmetic(monkeypatch, case):
    # The search evaluates its seed leaf on scalars; the bits must be those
    # of the same leaf as a length-1 array, 0 / 0 and a clamped index included.
    gram, projections, grids, step = seed_leaf_problem(case)
    calls = []
    real = nets._leaf_objective

    def recording(gram, projections, rows, values, step, count):
        result = real(gram, projections, rows, values, step, count)
        calls.append((rows, list(values), result))
        return result

    monkeypatch.setattr(nets, "_leaf_objective", recording)
    found = nets._nearest_on_grid(nets._grid_geometry(gram, grids), projections, grids, step)
    seed, values, (objective, last) = calls[0]
    assert isinstance(seed, int) and np.ndim(objective) == 0
    with np.errstate(all="ignore"):
        want, want_last = real(gram, projections, np.array([seed]), [np.array([v]) for v in values], step, 9)
    assert float(objective).hex() == float(want[0]).hex()
    assert int(last) == int(want_last[0])
    expected_last = {"zero column": 0, "clamped high": 8, "clamped low": 0, "inside": 3}[case]
    assert int(last) == expected_last
    assert found == exhaustive_on_grid(gram, projections, grids, step)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def test_net_serialization_roundtrip():
    family = step_class()
    net = build_net(family, 1.5)
    buffer = io.StringIO()
    dump_net(buffer, net, ambient_dim=32)
    text = buffer.getvalue()

    again = io.StringIO()
    dump_net(again, net, ambient_dim=32)
    assert again.getvalue() == text

    header, blocks = split_net_text(text)
    assert header == f"eps1=1.5 M={net.size} spec={family.spec_string()}"
    assert text.count("---\n") == net.size - 1 == len(blocks) - 1
    for lines, member in zip(blocks, centers(net)):
        assert lines[0] == "basis=trig ambient_dim=32"
        np.testing.assert_array_equal(
            [float(line) for line in lines[1:]],
            analyze_piecewise(member, 32).coefficients,
        )


def test_single_member_net_roundtrip_has_no_separator():
    net = build_net(step_class(max_jumps=0), 6.0)
    buffer = io.StringIO()
    dump_net(buffer, net, ambient_dim=8)
    text = buffer.getvalue()
    assert "---" not in text
    header, [lines] = split_net_text(text)
    assert " M=1 " in header
    assert lines[0] == "basis=trig ambient_dim=8"
    np.testing.assert_array_equal(
        [float(line) for line in lines[1:]],
        analyze_piecewise(centers(net)[0], 8).coefficients,
    )


def test_net_serialization_rejects_malformed():
    with pytest.raises(UsageError):
        dump_net(io.StringIO(), build_net(step_class(degree=1), 0.75, m_max=100), 8)
    with pytest.raises(UsageError):
        dump_net(io.StringIO(), build_net(step_class(), 1.5, m_max=100), 8)
