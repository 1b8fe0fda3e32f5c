"""Tests for the trigonometric basis, piecewise analysis, and signal IO."""

from __future__ import annotations

import io
import math
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    fraction_l2_distance_squared,
    grid_l2_inner,
    oracle_trig_coefficients,
    recursion_trig_coefficients,
    synthesize,
)
from netsketch.errors import UsageError
from netsketch.function_classes import _circle_steps
from netsketch.hilbert import (
    MAX_PIECE_DEGREE,
    PiecewiseDescription,
    Signal,
    _piece_at,
    _taylor,
    analyze_piecewise,
    dump_signal,
    exact_l2_distance,
    pad_or_truncate,
    piecewise_norm,
    tail_norm,
)

# ---------------------------------------------------------------------------
# Closed-form coefficients frozen from hand computation
# ---------------------------------------------------------------------------

SQRT_2PI = 2.5066282746310002  # sqrt(2*pi)
TWO_SQRT_PI = 3.5449077018110318  # 2*sqrt(pi)
FOUR_OVER_SQRT_PI = 2.2567583341910251  # 4/sqrt(pi)


def constant_one() -> PiecewiseDescription:
    return PiecewiseDescription(
        breakpoints=np.array([]), piece_coefficients=(np.array([1.0]),)
    )


def identity_ramp() -> PiecewiseDescription:
    # f(t) = t on [-pi, pi]: single piece, local-midpoint coefficients (0, 1).
    return PiecewiseDescription(
        breakpoints=np.array([]), piece_coefficients=(np.array([0.0, 1.0]),)
    )


def unit_step() -> PiecewiseDescription:
    # f(t) = sign(t): -1 on [-pi, 0], +1 on [0, pi].
    return PiecewiseDescription(
        breakpoints=np.array([0.0]),
        piece_coefficients=(np.array([-1.0]), np.array([1.0])),
    )


def test_constant_function_coefficients():
    coeffs = analyze_piecewise(constant_one(), ambient_dim=32).coefficients
    np.testing.assert_allclose(coeffs[0], SQRT_2PI, rtol=1e-14)
    # Its one jump point, +/-pi, drops by exactly zero in every derivative.
    assert np.all(coeffs[1:] == 0.0)


def test_identity_ramp_coefficients():
    coeffs = analyze_piecewise(identity_ramp(), ambient_dim=9).coefficients
    # Odd function: constant and cosine coefficients vanish; sine coefficient
    # at frequency j equals 2*sqrt(pi)*(-1)**(j+1)/j.
    np.testing.assert_allclose(coeffs[0], 0.0, atol=1e-13)
    np.testing.assert_allclose(coeffs[1::2], 0.0, atol=1e-13)
    expected_sin = [TWO_SQRT_PI, -TWO_SQRT_PI / 2, TWO_SQRT_PI / 3, -TWO_SQRT_PI / 4]
    np.testing.assert_allclose(coeffs[2::2], expected_sin, rtol=1e-13)


def test_unit_step_coefficients():
    coeffs = analyze_piecewise(unit_step(), ambient_dim=13).coefficients
    np.testing.assert_allclose(coeffs[0], 0.0, atol=1e-13)
    np.testing.assert_allclose(coeffs[1::2], 0.0, atol=1e-13)
    # Sine coefficients: 4/(sqrt(pi)*j) for odd j, zero for even j.
    expected_sin = [FOUR_OVER_SQRT_PI, 0.0, FOUR_OVER_SQRT_PI / 3, 0.0, FOUR_OVER_SQRT_PI / 5, 0.0]
    np.testing.assert_allclose(coeffs[2::2], expected_sin, rtol=1e-13, atol=1e-14)


def test_step_envelope_slope_is_minus_one():
    coeffs = analyze_piecewise(unit_step(), ambient_dim=256).coefficients
    frequencies = np.array([(i + 1) // 2 for i in range(1, 256)], dtype=float)
    magnitudes = np.abs(coeffs[1:])
    keep = magnitudes > 1e-12
    slope = np.polyfit(np.log(frequencies[keep]), np.log(magnitudes[keep]), 1)[0]
    assert -1.2 <= slope <= -0.8
    np.testing.assert_allclose(slope, -1.0, atol=1e-9)


# ---------------------------------------------------------------------------
# Quadrature oracle agreement
# ---------------------------------------------------------------------------


def random_description(rng: np.random.Generator, circle: bool = False) -> PiecewiseDescription:
    """Random polynomial pieces of degree up to 4, or steps on the circle.

    The circle's steps start inside (-pi, pi), so the last level wraps
    through +/-pi onto the first piece.
    """
    num_jumps = int(rng.integers(1, 4))
    if circle:
        positions = np.sort(rng.uniform(-math.pi, math.pi, size=num_jumps))
        return _circle_steps(positions, rng.uniform(-1.0, 1.0, size=num_jumps))
    points = np.sort(rng.uniform(-2.5, 2.5, size=num_jumps))
    pieces = tuple(
        rng.uniform(-1.0, 1.0, size=int(rng.integers(1, 6))) for _ in range(num_jumps + 1)
    )
    return PiecewiseDescription(breakpoints=points, piece_coefficients=pieces)


@pytest.mark.parametrize("circle", [False, True])
@pytest.mark.parametrize("seed", [0, 1])
def test_analyze_matches_quadrature_oracle(circle, seed):
    rng = np.random.default_rng(seed)
    desc = random_description(rng, circle)
    computed = analyze_piecewise(desc, ambient_dim=128).coefficients
    expected = oracle_trig_coefficients(desc, ambient_dim=128)
    np.testing.assert_allclose(computed, expected, atol=1e-8)


@st.composite
def piecewise_descriptions(draw):
    """Up to four breakpoints and pieces of mixed degree up to the cap.

    The degree-``m`` coefficient lies in ``[-1/m!, 1/m!]``, the piecewise
    class's bounds at unit level and derivative bounds.
    """
    points = sorted(draw(st.sets(st.floats(-3.14, 3.14), max_size=4)))
    pieces = []
    for _ in range(len(points) + 1):
        degree = draw(st.integers(0, MAX_PIECE_DEGREE))
        pieces.append(
            [draw(st.floats(-1.0, 1.0)) / math.factorial(m) for m in range(degree + 1)]
        )
    return PiecewiseDescription(np.array(points), tuple(pieces))


@settings(max_examples=200, deadline=None)
@given(
    description=piecewise_descriptions(),
    dim=st.sampled_from([1, 2, 7, 111, 1886, 4096]),
)
def test_jump_relations_match_the_degree_recursion(description, dim):
    coeffs = analyze_piecewise(description, dim).coefficients
    expected = recursion_trig_coefficients(description, dim)
    assert coeffs[0].tobytes() == expected[0].tobytes()
    scale = max(1.0, float(np.linalg.norm(expected)))
    assert float(np.max(np.abs(coeffs - expected))) <= 1e-13 * scale


@pytest.mark.parametrize("degree", range(MAX_PIECE_DEGREE + 1))
def test_a_shorter_expansion_is_a_prefix_bit_for_bit(degree):
    # Each coefficient comes from its own frequency alone, whatever the length.
    rng = np.random.default_rng(degree)
    scales = 1.0 / np.array([math.factorial(m) for m in range(degree + 1)])
    for _ in range(20):
        points = np.sort(rng.uniform(-3.1, 3.1, size=int(rng.integers(0, 5))))
        pieces = tuple(rng.uniform(-1.0, 1.0, degree + 1) * scales for _ in range(points.size + 1))
        description = PiecewiseDescription(points, pieces)
        full = analyze_piecewise(description, 4096).coefficients
        for d in (1, 2, 3, 4, 7, 64, 111, 1885, 1886, 4095):
            assert analyze_piecewise(description, d).coefficients.tobytes() == full[:d].tobytes()


def test_expansion_leaves_numpy_polynomial_unimported():
    # Importing numpy.polynomial costs about 0.6 MB and 3 ms; an expansion
    # needs none of it, nor does any class's distance, rounding or evaluation.
    probe = (
        "import sys\n"
        "import numpy as np\n"
        "from netsketch.config import CLASSES\n"
        "from netsketch.function_classes import PiecewiseSmoothClass\n"
        "from netsketch.nets import round_coordinates\n"
        "rng = np.random.default_rng(1)\n"
        "for degree in (0, 2):\n"
        "    family = PiecewiseSmoothClass(degree, 1, 1.0, 0.5, 1.0)\n"
        "    family.to_signal(family.sample(rng, 4096), 4096)\n"
        "cases = [\n"
        "    (CLASSES['smooth'](3, 2.0), 0.5),\n"
        "    (CLASSES['piecewise'](3, 2, 1.0, 1.5, 1.0), 3.0),\n"
        "    (CLASSES['analytic'](2, 0.5, 1.0), 1.0),\n"
        "]\n"
        "assert {type(family) for family, _ in cases} == set(CLASSES.values())\n"
        "for family, eps1 in cases:\n"
        "    a, b = family.sample(rng, 64), family.sample(rng, 64)\n"
        "    family.distance(a, b)\n"
        "    family.member(*round_coordinates(family, family.net_plan(eps1), a))\n"
        "    points = getattr(a, 'steps', a)\n"
        "    if hasattr(points, 'evaluate'):  # a smooth member is a Signal: no evaluator\n"
        "        points.evaluate(np.linspace(-4.0, 4.0, 9))\n"
        "print(*sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    modules = proc.stdout.split()
    assert "netsketch.hilbert" in modules
    assert "numpy.polynomial" not in modules


# ---------------------------------------------------------------------------
# Hilbert-space identities
# ---------------------------------------------------------------------------


def test_parseval_identity_for_bandlimited_signal():
    rng = np.random.default_rng(3)
    coeffs = rng.normal(size=129)
    grid = np.linspace(-math.pi, math.pi, 2**15 + 1)
    values = synthesize(coeffs, grid)
    energy = grid_l2_inner(values, values, grid)
    np.testing.assert_allclose(energy, float(np.dot(coeffs, coeffs)), rtol=1e-6)


def test_basis_orthonormality_via_quadrature():
    grid = np.linspace(-math.pi, math.pi, 2**14 + 1)
    dim = 9
    columns = [synthesize(np.eye(dim)[i], grid) for i in range(dim)]
    gram = np.array(
        [[grid_l2_inner(a, b, grid) for b in columns] for a in columns]
    )
    np.testing.assert_allclose(gram, np.eye(dim), atol=1e-9)


def test_energy_split_is_exact():
    desc = random_description(np.random.default_rng(11))
    coeffs = analyze_piecewise(desc, ambient_dim=512).coefficients
    total = float(np.dot(coeffs, coeffs))
    head = float(np.dot(coeffs[:64], coeffs[:64]))
    tail = float(np.dot(coeffs[64:], coeffs[64:]))
    assert abs(head + tail - total) <= 1e-12 * max(1.0, total)


def test_project_prefix_and_tail_norm():
    # The pipeline projects onto the first d basis functions by truncating
    # the coefficients with pad_or_truncate; tail_norm checks the dimension.
    x = Signal(np.array([1.0, 1.0, 1.0]))
    np.testing.assert_array_equal(
        pad_or_truncate(pad_or_truncate(x.coefficients, 2), 3),
        np.array([1.0, 1.0, 0.0]),
    )
    assert pad_or_truncate(x.coefficients, 3) is not None
    np.testing.assert_array_equal(pad_or_truncate(x.coefficients, 3), x.coefficients)
    assert tail_norm(Signal(np.array([0.0, 0.0, 5.0])), 2) == 5.0
    assert tail_norm(x, 3) == 0.0
    with pytest.raises(UsageError):
        tail_norm(x, 0)
    with pytest.raises(UsageError):
        tail_norm(x, 4)


def test_projection_is_idempotent_and_contractive():
    rng = np.random.default_rng(21)
    for _ in range(20):
        x = Signal(rng.normal(size=64))
        d = int(rng.integers(1, 65))
        once = Signal(pad_or_truncate(x.coefficients, d))
        twice = Signal(pad_or_truncate(once.coefficients, d))
        assert np.array_equal(once.coefficients, twice.coefficients)
        assert once.norm() <= x.norm() + 1e-15


def test_orthogonal_decomposition_identity():
    rng = np.random.default_rng(13)
    for _ in range(100):
        x = Signal(rng.normal(size=128))
        for d in (1, 2, 4, 8, 16, 32, 64, 128):
            head = Signal(pad_or_truncate(x.coefficients, d)).norm() ** 2
            tail = tail_norm(x, d) ** 2
            total = x.norm() ** 2
            assert abs(head + tail - total) <= 1e-12 * max(1.0, total)


def test_tail_norm_decreasing_in_dimension():
    rng = np.random.default_rng(17)
    for seed in range(50):
        desc = random_description(np.random.default_rng(seed))
        x = analyze_piecewise(desc, ambient_dim=256)
        tails = [tail_norm(x, d) for d in (8, 16, 32, 64, 128, 256)]
        assert all(a >= b - 1e-15 for a, b in zip(tails, tails[1:]))
    _ = rng


# ---------------------------------------------------------------------------
# Exact piecewise L2 distance
# ---------------------------------------------------------------------------


def test_exact_l2_distance_matches_quadrature():
    rng = np.random.default_rng(23)
    for circle in (False, True):
        a = random_description(rng, circle)
        b = random_description(rng, circle)
        edges = sorted({-math.pi, math.pi, *a.breakpoints, *b.breakpoints})
        total = 0.0
        for start, end in zip(edges[:-1], edges[1:]):
            grid = np.linspace(start, end, 4097)
            nudged = grid.copy()
            nudged[0] += 1e-12
            nudged[-1] -= 1e-12
            diff = a.evaluate(nudged) - b.evaluate(nudged)
            total += grid_l2_inner(diff, diff, grid)
        expected = math.sqrt(total)
        distance = exact_l2_distance(a, b)
        np.testing.assert_allclose(distance, expected, rtol=1e-9, atol=1e-10)
        assert exact_l2_distance(b, a).hex() == distance.hex()
        assert exact_l2_distance(a, a) == 0.0


def test_exact_l2_distance_mixed_models():
    interval = PiecewiseDescription(
        breakpoints=np.array([0.5]),
        piece_coefficients=(np.array([1.0]), np.array([2.0])),
    )
    # Steps at 0.5 and 2.5 with levels 2 and 1: the level 1 wraps through
    # +/-pi, so they are 1, 2, 1 on the interval, bit for bit.
    arc = _circle_steps((0.5, 2.5), (2.0, 1.0))
    same = PiecewiseDescription(
        breakpoints=np.array([0.5, 2.5]),
        piece_coefficients=(np.array([1.0]), np.array([2.0]), np.array([1.0])),
    )
    assert arc.breakpoints.tobytes() == same.breakpoints.tobytes()
    assert [c.tobytes() for c in arc.piece_coefficients] == [
        c.tobytes() for c in same.piece_coefficients
    ]
    assert exact_l2_distance(same, arc) == 0.0
    assert exact_l2_distance(interval, arc) > 0.5


@st.composite
def circle_step_descriptions(draw):
    """One to four steps on the circle, at times with a position at -pi."""
    positions = draw(
        st.sets(st.just(-math.pi) | st.floats(-3.14, 3.14), min_size=1, max_size=4)
    )
    levels = [draw(st.floats(-1.0, 1.0)) for _ in positions]
    return _circle_steps(sorted(positions), levels)


@settings(max_examples=200, deadline=None)
@given(
    a=piecewise_descriptions() | circle_step_descriptions(),
    b=piecewise_descriptions() | circle_step_descriptions(),
)
def test_exact_l2_distance_matches_the_fraction_oracle(a, b):
    # Every breakpoint, midpoint, coefficient and +/-pi is a float, hence a
    # rational, so the oracle is exact.
    distance = exact_l2_distance(a, b)
    expected = math.sqrt(fraction_l2_distance_squared(a, b))
    assert abs(distance - expected) <= 1e-14 * max(1.0, expected)
    assert exact_l2_distance(b, a).hex() == distance.hex()


@settings(max_examples=200, deadline=None)
@given(
    description=piecewise_descriptions() | circle_step_descriptions(),
    between=st.floats(0.0, 1.0),
)
def test_piece_lookup_counts_breakpoints_as_searchsorted_does(description, between):
    # At every breakpoint, a float either side of it, +/-pi and a point
    # between each pair of edges, the piece ``_taylor`` takes is the count
    # of breakpoints at or below the point.
    points = description.breakpoints
    edges = [-math.pi, *points.tolist(), math.pi]
    probes = [*edges, *np.nextafter(points, -np.inf), *np.nextafter(points, np.inf)]
    probes += [left + between * (right - left) for left, right in zip(edges[:-1], edges[1:])]
    for t in probes:
        assert _piece_at(description, float(t)) == int(np.searchsorted(points, t, side="right"))


@settings(max_examples=200, deadline=None)
@given(description=piecewise_descriptions() | circle_step_descriptions())
def test_piecewise_norm_is_the_distance_to_zero_bit_for_bit(description):
    zero = PiecewiseDescription((), ((0.0,),))
    assert piecewise_norm(description).hex() == exact_l2_distance(description, zero).hex()


def test_taylor_about_a_piece_midpoint_is_its_coefficients_bit_for_bit():
    # 2,000 descriptions of three degree-8 pieces with 1/m! bounds: 6,000
    # pieces, of which dividing derivatives by r! got 5,303 an ulp off.
    rng = np.random.default_rng(0)
    bounds = 1.0 / np.array([math.factorial(m) for m in range(MAX_PIECE_DEGREE + 1)])
    for _ in range(2000):
        description = PiecewiseDescription(
            breakpoints=np.sort(rng.uniform(-2.5, 2.5, size=2)),
            piece_coefficients=tuple(
                rng.uniform(-bounds, bounds) for _ in range(3)
            ),
        )
        for (start, end), coeffs in zip(
            description.piece_intervals(), description.piece_coefficients
        ):
            taylor = _taylor(description, 0.5 * (start + end), coeffs.size)
            assert [value.hex() for value in taylor] == [
                value.hex() for value in coeffs.tolist()
            ]


# ---------------------------------------------------------------------------
# Piecewise descriptions
# ---------------------------------------------------------------------------


def test_piecewise_evaluate_interval_model():
    desc = PiecewiseDescription(
        breakpoints=np.array([-1.0, 2.0]),
        piece_coefficients=(
            np.array([1.0]),
            np.array([0.0, 1.0]),  # u around the midpoint 0.5 of [-1, 2]
            np.array([3.0]),
        ),
    )
    t = np.array([-3.0, -1.0, 0.5, 1.0, 2.5, math.pi])
    expected = np.array([1.0, -1.5, 0.0, 0.5, 3.0, 3.0])
    np.testing.assert_allclose(desc.evaluate(t), expected, rtol=1e-14)


def arc_lookup(positions, levels, t):
    """The level of the arc from ``positions[i]`` to the next position round
    the circle that holds each ``t``."""
    starts = np.asarray(positions, dtype=float)
    lengths = np.mod(np.roll(starts, -1) - starts, 2 * math.pi)
    lengths[lengths == 0.0] = 2 * math.pi  # one position: one arc, the whole circle
    inside = np.mod(t[:, None] - starts[None, :], 2 * math.pi) < lengths
    assert np.all(inside.sum(axis=1) == 1)
    return np.asarray(levels)[np.argmax(inside, axis=1)]


def test_piecewise_evaluate_periodic_wraps():
    # Steps on the circle, with the first at -pi in every other case, read
    # at random points, at -pi and at every position.
    rng = np.random.default_rng(29)
    for case in range(16):
        count = int(rng.integers(1, 5))
        positions = np.sort(rng.uniform(-math.pi, math.pi, size=count))
        if case % 2:
            positions[0] = -math.pi
        levels = rng.uniform(-1.0, 1.0, size=count)
        t = np.concatenate([rng.uniform(-math.pi, math.pi, size=200), [-math.pi], positions])
        steps = _circle_steps(positions, levels)
        assert len(steps.breakpoints) == count - case % 2
        np.testing.assert_array_equal(steps.evaluate(t), arc_lookup(positions, levels, t))


@pytest.mark.parametrize(
    "breakpoints, pieces, message",
    [
        ([1.0, -1.0], ([1.0], [1.0], [1.0]), "strictly increasing"),
        ([0.5, 0.5], ([1.0], [1.0], [1.0]), "strictly increasing"),
        ([-math.pi], ([1.0], [1.0]), "lie in (-pi, pi)"),
        ([0.0, math.pi], ([1.0], [1.0], [1.0]), "lie in (-pi, pi)"),
        ([4.0], ([1.0], [1.0]), "lie in (-pi, pi)"),
        ([0.0], ([1.0],), "expected 2 coefficient arrays, got 1"),
        ([], ([1.0], [1.0]), "expected 1 coefficient arrays, got 2"),
        ([0.0], ([1.0], []), "non-empty 1-d arrays"),
        ([0.0], ([1.0], [[1.0, 2.0]]), "non-empty 1-d arrays"),
        ([[0.0]], ([1.0], [1.0]), "1-d array"),
    ],
    ids=[
        "unsorted", "repeated", "at -pi", "at pi", "past pi", "too few pieces",
        "too many pieces", "empty piece", "2-d piece", "2-d breakpoints",
    ],
)
def test_piecewise_description_refuses(breakpoints, pieces, message):
    with pytest.raises(UsageError, match=re.escape(message)):
        PiecewiseDescription(np.array(breakpoints), pieces)


def test_piecewise_validation_rejects_bad_input():
    with pytest.raises(UsageError):
        PiecewiseDescription(
            breakpoints=np.array([1.0, -1.0]),
            piece_coefficients=(np.array([1.0]), np.array([1.0]), np.array([1.0])),
        )
    with pytest.raises(UsageError):
        PiecewiseDescription(
            breakpoints=np.array([0.0]),
            piece_coefficients=(np.array([1.0]),),
        )
    with pytest.raises(UsageError):
        analyze_piecewise(
            PiecewiseDescription(
                breakpoints=np.array([]),
                piece_coefficients=(np.zeros(10),),  # degree 9 exceeds the cap
            ),
            ambient_dim=16,
        )


# ---------------------------------------------------------------------------
# Signal IO
# ---------------------------------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.floats(allow_nan=False, allow_infinity=False, width=64),
        min_size=1,
        max_size=24,
    )
)
def test_signal_stream_roundtrip_is_bit_exact(values):
    signal = Signal(np.array(values))
    buffer = io.StringIO()
    dump_signal(buffer, signal)
    header, *lines = buffer.getvalue().splitlines()
    assert header == f"basis=trig ambient_dim={len(values)}"
    assert np.array_equal([float(line) for line in lines], signal.coefficients)
