"""Covering-net construction, counting, and exact nearest-member decoding.

A covering net for a function class at resolution ``eps1`` is a finite set of
members within ``eps1`` (in L2) of every member of the class.  Nets here come
in three modes:

- ``counted``: only the construction log is kept — sizes and entropy are
  available, members are never enumerated.  Works at any scale.
- ``materialized``: all members are enumerated (guarded by ``m_max``).
- ``factored``: for single-jump piecewise-constant classes the net is a
  product of a breakpoint grid and two level grids, and the nearest member
  under a measurement operator is found exactly by sweeping configurations
  with the inner minimization solved in closed form.

Grids are "round-image": a symmetric grid with ``2*floor(bound/step + 1/2)+1``
points always contains the rounding of any in-bound value, so per-coordinate
rounding error never exceeds half a step even at the boundary.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import IO, Iterator

import numpy as np

from .errors import FormatError, NetTooLargeError, UsageError
from .hilbert import (
    PiecewiseDescription,
    Signal,
    dump_signal,
    load_signal,
    parse_header,
)

__all__ = [
    "AxisLog",
    "CoveringNet",
    "FactoredStepDecoder",
    "DecodeResult",
    "LoadedNet",
    "NetPlan",
    "axis_grids",
    "build_net",
    "gap_separated_count",
    "iter_gap_tuples",
    "position_grid",
    "round_to_net",
    "grid_count",
    "symmetric_grid",
    "snap_to_symmetric_grid",
    "dump_net",
    "load_net",
    "write_net",
    "read_net",
]

TWO_PI = 2.0 * math.pi
_SQRT_2PI = math.sqrt(TWO_PI)

DEFAULT_NET_BUDGET = 10**6


# ---------------------------------------------------------------------------
# Round-image grids
# ---------------------------------------------------------------------------


def grid_count(bound: float, step: float) -> int:
    """Points in the symmetric grid covering ``[-bound, bound]`` at ``step``."""
    if not bound >= 0.0:
        raise UsageError(f"grid bound must be nonnegative, got {bound!r}")
    if not step > 0.0:
        raise UsageError(f"grid step must be positive, got {step!r}")
    return 2 * int(math.floor(bound / step + 0.5)) + 1


def _centered_grid(count: int, step: float) -> np.ndarray:
    return (np.arange(count) - (count - 1) / 2.0) * step


def symmetric_grid(bound: float, step: float) -> np.ndarray:
    return _centered_grid(grid_count(bound, step), step)


def snap_to_symmetric_grid(value: float, bound: float, step: float) -> tuple[int, float]:
    """Nearest grid index and value; the grid always contains the image."""
    half = (grid_count(bound, step) - 1) // 2
    k = int(math.floor(value / step + 0.5))
    k = max(-half, min(half, k))
    return k + half, k * step


# ---------------------------------------------------------------------------
# Net containers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AxisLog:
    """One quantized coordinate of the construction: label, size, spacing.

    ``start`` is ``None`` for grids symmetric about zero; one-sided grids
    (warp parameters live in ``[0, 1]``) record their first point instead.
    """

    label: str
    count: int
    step: float
    start: float | None = None


@dataclass(frozen=True)
class LoadedNet:
    """Materialized net read back from disk: header fields plus signals."""

    eps1: float
    size: int
    spec: str
    signals: tuple[Signal, ...]


@dataclass
class FactoredStepDecoder:
    """Exact nearest-member search over a single-jump step-function net.

    Net members are ``c0`` on ``[-pi, b]`` and ``c1`` after the jump, with
    ``b`` on a breakpoint grid and levels on a shared symmetric grid.  For a
    fixed configuration the best ``c1`` solves a scalar quadratic, so the
    sweep touches every configuration without enumerating the full product.
    """

    positions: np.ndarray
    levels: np.ndarray
    level_step: float

    def __post_init__(self) -> None:
        self.positions = np.asarray(self.positions, dtype=np.float64)
        self.levels = np.asarray(self.levels, dtype=np.float64)
        self._indicator_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    @property
    def size(self) -> int:
        return self.positions.size * self.levels.size ** 2

    def _indicators(self, d: int) -> tuple[np.ndarray, np.ndarray]:
        """Truncated coefficients of the pre-jump indicators, with row norms.

        Closed forms: the constant coefficient is ``(b+pi)/sqrt(2 pi)``, the
        cosine-``j`` one ``sin(j b)/(j sqrt(pi))``, and the sine-``j`` one
        ``((-1)^j - cos(j b))/(j sqrt(pi))``.
        """
        if d < 1:
            raise UsageError(f"truncation dimension must be positive, got {d!r}")
        cached = self._indicator_cache.get(d)
        if cached is not None:
            return cached
        b = self.positions
        w = np.zeros((b.size, d))
        w[:, 0] = (b + math.pi) / _SQRT_2PI
        if d > 1:
            n_cos = d // 2
            js = np.arange(1, n_cos + 1, dtype=np.float64)
            phases = np.outer(b, js)
            w[:, 1::2] = np.sin(phases) / (js * math.sqrt(math.pi))
            signs = np.where(js.astype(int) % 2 == 0, 1.0, -1.0)
            sines = (signs - np.cos(phases)) / (js * math.sqrt(math.pi))
            w[:, 2::2] = sines[:, : (d - 1) // 2]
        norms_sq = np.einsum("ij,ij->i", w, w)
        self._indicator_cache[d] = (w, norms_sq)
        return self._indicator_cache[d]

    def _sweep(
        self,
        q0: np.ndarray,
        q_full: float,
        g00: np.ndarray,
        g0f: np.ndarray,
        gff: float,
        target_norm_sq: float,
    ) -> "DecodeResult":
        """Minimize ``|target - c0 w - c1 (v - w)|`` over the grid.

        ``q0``/``q_full`` are inner products of the target with the indicator
        rows and the constant-one function; ``g00``/``g0f``/``gff`` the
        corresponding Gram entries, all in the working geometry.
        """
        c0 = self.levels
        q1 = q_full - q0
        g01 = g0f - g00
        g11 = gff - 2.0 * g0f + g00
        half = (self.levels.size - 1) // 2
        c1_opt = (q1[:, None] - np.outer(g01, c0)) / g11[:, None]
        k = np.floor(c1_opt / self.level_step + 0.5)
        np.clip(k, -half, half, out=k)
        c1 = k * self.level_step
        objective = (
            -2.0 * (c0[None, :] * q0[:, None] + c1 * q1[:, None])
            + c0[None, :] ** 2 * g00[:, None]
            + 2.0 * c0[None, :] * c1 * g01[:, None]
            + c1**2 * g11[:, None]
        )
        flat = int(np.argmin(objective))
        p_idx, c0_idx = divmod(flat, c0.size)
        c1_idx = int(k[p_idx, c0_idx]) + half
        member = PiecewiseDescription(
            breakpoints=(float(self.positions[p_idx]),),
            piece_coefficients=(
                (float(c0[c0_idx]),),
                (float(self.levels[c1_idx]),),
            ),
            periodic=False,
        )
        index = (p_idx * c0.size + c0_idx) * c0.size + c1_idx
        distance_sq = target_norm_sq + float(objective[p_idx, c0_idx])
        return DecodeResult(
            member=member, index=index, distance=math.sqrt(max(distance_sq, 0.0))
        )

    def decode_coefficients(self, target: np.ndarray) -> "DecodeResult":
        """Nearest net member to a truncated coefficient vector (exactly)."""
        target = np.asarray(target, dtype=np.float64)
        if target.ndim != 1 or target.size < 1:
            raise UsageError("decode target must be a nonempty 1-d vector")
        d = target.size
        w, norms_sq = self._indicators(d)
        q0 = w @ target
        q_full = _SQRT_2PI * float(target[0])
        g0f = self.positions + math.pi  # <w(b), 1-function> is exact at any d
        return self._sweep(
            q0, q_full, norms_sq, g0f, TWO_PI, float(np.dot(target, target))
        )

    def decode_measurements(self, y: np.ndarray, operator) -> "DecodeResult":
        """Nearest net member to measurements under a general operator."""
        y = np.asarray(y, dtype=np.float64)
        if y.shape != (operator.n,):
            raise UsageError(
                f"expected {operator.n} measurements, got shape {y.shape}"
            )
        d = operator.d
        w, _ = self._indicators(d)
        rows = operator.scale * operator.frame
        projected = w @ rows.T
        v_full = _SQRT_2PI * rows[:, 0]
        q0 = projected @ y
        q_full = float(np.dot(v_full, y))
        g00 = np.einsum("ij,ij->i", projected, projected)
        g0f = projected @ v_full
        gff = float(np.dot(v_full, v_full))
        return self._sweep(q0, q_full, g00, g0f, gff, float(np.dot(y, y)))


@dataclass(frozen=True)
class DecodeResult:
    member: PiecewiseDescription
    index: int
    distance: float


@dataclass(frozen=True)
class CoveringNet:
    """A constructed net: counts and logs always, members when materialized."""

    family: object
    eps1: float
    mode: str
    size: int
    entropy_bits: float
    config_count: int
    axes: tuple[AxisLog, ...]
    positions: np.ndarray | None = field(default=None)
    members: tuple | None = field(default=None)
    decoder: FactoredStepDecoder | None = field(default=None)


# ---------------------------------------------------------------------------
# Construction plans: what every class builds its net from
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NetPlan:
    """A class's net at resolution ``eps1``, before any member exists.

    The net is every choice of one of ``config_count`` breakpoint
    configurations (drawn from the grid ``positions``, consecutive indices at
    least ``index_gap`` apart) times one point on each axis.
    """

    eps1: float
    axes: tuple[AxisLog, ...]
    config_count: int
    positions: np.ndarray | None = None
    index_gap: int = 1


def position_grid(eps1: float, num_jumps: int, value_scale: float, periodic: bool):
    """Breakpoint grid: nominal pitch from the jump budget, rescaled to fit.

    The nominal pitch ``(eps1/2)^2 / (jumps * (2*scale)^2)`` (quarter budget
    for the periodic flavour) fixes the point count ``P``; the actual grid
    uses ``2 pi / P`` so all points stay inside the domain.
    """
    budget = eps1 / (4.0 if periodic else 2.0)
    pitch = budget**2 / (num_jumps * (2.0 * value_scale) ** 2)
    count = int(math.ceil(TWO_PI / pitch))
    effective = TWO_PI / count
    if periodic:
        points = -math.pi + effective * np.arange(count)
    else:
        points = -math.pi + effective * (np.arange(count) + 0.5)
    return points, effective, pitch


def gap_separated_count(total: int, choose: int, gap: int) -> int:
    """Sorted index tuples from ``range(total)`` with consecutive gaps >= gap."""
    return math.comb(total - (choose - 1) * (gap - 1), choose) if choose >= 1 else 1


def iter_gap_tuples(total: int, choose: int, gap: int) -> Iterator[tuple[int, ...]]:
    if choose == 1:
        yield from ((i,) for i in range(total))
        return
    for combo in itertools.combinations(range(total), choose):
        if all(b - a >= gap for a, b in zip(combo, combo[1:])):
            yield combo


def axis_grids(axes: tuple[AxisLog, ...]) -> list[np.ndarray]:
    """The points of each axis, in index order."""
    grids = []
    for axis in axes:
        if axis.start is None:
            grids.append(_centered_grid(axis.count, axis.step))
        else:
            grids.append(axis.start + np.arange(axis.count) * axis.step)
    return grids


# ---------------------------------------------------------------------------
# Building and rounding
# ---------------------------------------------------------------------------


def build_net(
    family,
    eps1: float,
    mode: str = "auto",
    m_max: int | float = DEFAULT_NET_BUDGET,
) -> CoveringNet:
    """Construct a covering net at resolution ``eps1`` in the requested mode.

    ``auto`` materializes when the size fits within ``m_max``, falls back to
    the factored representation when one exists, and otherwise keeps counts
    only.  Explicit ``materialized`` raises when the net exceeds ``m_max``.
    """
    if not eps1 > 0.0:
        raise UsageError(f"net resolution must be positive, got {eps1!r}")
    if mode not in ("auto", "counted", "materialized", "factored"):
        raise UsageError(f"unknown net mode: {mode!r}")
    plan = family.net_plan(eps1)
    size = plan.config_count
    for axis in plan.axes:
        size *= axis.count
    entropy_bits = math.log2(plan.config_count) + float(
        sum(math.log2(axis.count) for axis in plan.axes)
    )
    decoder = family.factored_decoder(plan)
    if mode == "auto":
        if size <= m_max:
            mode = "materialized"
        elif decoder is not None:
            mode = "factored"
        else:
            mode = "counted"
    members = None
    if mode == "materialized":
        if size > m_max:
            raise NetTooLargeError(
                f"net has {size} members, over the materialization budget {m_max}"
            )
        members = tuple(family.enumerate_members(plan, m_max))
        if len(members) != size:
            raise UsageError(
                f"enumerated {len(members)} members but counted {size}"
            )  # pragma: no cover - internal consistency
    elif mode == "factored" and decoder is None:
        raise UsageError(
            "factored nets require a single-jump piecewise-constant class"
        )
    return CoveringNet(
        family=family,
        eps1=eps1,
        mode=mode,
        size=size,
        entropy_bits=entropy_bits,
        config_count=plan.config_count,
        axes=plan.axes,
        positions=plan.positions,
        members=members,
        decoder=decoder if mode == "factored" else None,
    )


def round_to_net(net: CoveringNet, member: object) -> object:
    """Round a class member onto the net, coordinate by coordinate.

    Returns a member-like object of the same structural type; its distance to
    the input (by the class metric) is the witnessed covering error.
    """
    return net.family.round_member(net.family.net_plan(net.eps1), member)


# ---------------------------------------------------------------------------
# Serialization (materialized nets only)
# ---------------------------------------------------------------------------


def dump_net(stream: IO[str], net: CoveringNet, ambient_dim: int) -> None:
    if net.mode != "materialized":
        raise UsageError(f"only materialized nets can be serialized, not {net.mode}")
    spec = net.family.spec_string()
    stream.write(f"eps1={net.eps1:.17g} M={net.size} spec={spec}\n")
    for index, member in enumerate(net.members):
        if index:
            stream.write("---\n")
        dump_signal(stream, net.family.to_signal(member, ambient_dim))


def load_net(stream: IO[str]) -> LoadedNet:
    header = stream.readline()
    if not header:
        raise FormatError("empty net input")
    fields = parse_header(header, ("eps1", "M", "spec"), context="net header")
    try:
        eps1 = float(fields["eps1"])
        size = int(fields["M"])
    except ValueError as exc:
        raise FormatError(f"bad numeric field in net header: {exc}") from exc
    if size < 0:
        raise FormatError(f"net size must be nonnegative, got {size}")
    signals = []
    for index in range(size):
        if index:
            separator = stream.readline()
            if separator.strip() != "---":
                raise FormatError(f"missing separator before net member {index}")
        try:
            signals.append(load_signal(stream))
        except FormatError as exc:
            raise FormatError(f"net member {index}: {exc}") from exc
    if stream.read().strip():
        raise FormatError("trailing data after net members")
    return LoadedNet(
        eps1=eps1, size=size, spec=fields["spec"], signals=tuple(signals)
    )


def write_net(path, net: CoveringNet, ambient_dim: int) -> None:
    with open(path, "w", encoding="utf-8") as stream:
        dump_net(stream, net, ambient_dim)


def read_net(path) -> LoadedNet:
    with open(path, "r", encoding="utf-8") as stream:
        return load_net(stream)
