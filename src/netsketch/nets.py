"""Covering-net construction, counting, and exact nearest-member decoding.

A covering net for a function class at resolution ``eps1`` is a finite set of
members within ``eps1`` (in L2) of every member of the class.  A net is its
layout, a ``NetPlan``, and the counts that follow from it; no member is built
to count one, so counting works at any scale.  ``build_net`` labels a net by
how it decodes:

- ``materialized``: at most ``m_max`` centers.  ``MaterializedDecoder`` scans
  every center's first ``d`` coefficients, or their images under a
  measurement operator; the class builds those rows by one linear map per
  configuration (``FunctionClass.materialized_decoder``).
- ``factored``: over the budget, for single-jump piecewise-constant classes.
  ``FactoredStepDecoder`` finds the nearest center exactly by a
  branch-and-bound sweep with the inner minimization solved in closed form.
- ``counted``: over the budget with no factored decoder: counts only.

Both decoders answer ``decode_coefficients(target)`` and
``decode_measurements(y, operator)`` with a ``DecodeResult``; ties go to the
lowest member index.

Grids are "round-image": a symmetric grid with ``2*floor(bound/step + 1/2)+1``
points always contains the rounding of any in-bound value, so per-coordinate
rounding error never exceeds half a step even at the boundary.
"""

from __future__ import annotations

import functools
import itertools
import logging
import math
import threading
import time
import weakref
from dataclasses import dataclass, field
from typing import IO, Callable, Iterator

import numpy as np

from .errors import UsageError
from .hilbert import PiecewiseDescription, dump_signal

__all__ = [
    "AxisLog",
    "CoveringNet",
    "FactoredStepDecoder",
    "DecodeResult",
    "MaterializedDecoder",
    "NetPlan",
    "build_net",
    "gap_separated_count",
    "iter_gap_tuples",
    "position_grid",
    "grid_count",
    "symmetric_grid",
    "dump_net",
    "write_net",
]

TWO_PI = 2.0 * math.pi
_SQRT_2PI = math.sqrt(TWO_PI)
_UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2.0

DEFAULT_NET_BUDGET = 10**6

# Largest temporary a materialized nearest-member scan allocates at once; the
# fastest of 128 KiB to 1 MiB in interleaved decodes at M = 12,798, d = 45.
_SCAN_BLOCK_BYTES = 256 * 1024
# Operator rows per block of the factored decoder's square-sum grid.
_TERMS_BLOCK_ROWS = 32

logger = logging.getLogger(__name__)


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


# ---------------------------------------------------------------------------
# Net containers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AxisLog:
    """One quantized coordinate of the construction: label, size, spacing.

    The axis's grid is symmetric about zero: ``count`` points ``step`` apart.
    """

    label: str
    count: int
    step: float

    def points(self) -> np.ndarray:
        """The axis's grid points, in index order."""
        return _centered_grid(self.count, self.step)

    def snap(self, value: float) -> float:
        """The nearest grid point, clamped to the grid's ends."""
        half = (self.count - 1) // 2
        k = int(math.floor(value / self.step + 0.5))
        return max(-half, min(half, k)) * self.step


@dataclass(frozen=True)
class _OperatorTerms:
    """Operator-only parts of a measured decode, shared by every trial.

    With ``R`` the scaled operator rows and ``w(b)`` the pre-jump indicator
    coefficients, ``g00(b) = |R w(b)|^2`` and ``g0f(b) = <R w(b), v_full>``
    on the breakpoint grid, where ``v_full`` is the measured constant-one
    function and ``gff = |v_full|^2``.
    """

    v_full: np.ndarray
    g00: np.ndarray
    g0f: np.ndarray
    gff: float


class _OperatorSlot:
    """What a decoder built for the last operator it decoded under.

    One slot, shared by every thread that decodes: a run under a fixed
    operator builds once, and a new operator replaces the contents.  The slot
    holds its operator weakly, so a dead operator's frame is freed before the
    next one is drawn; a dead reference returns ``None``, so the identity
    check cannot match a different operator allocated at a reused address.
    The reference has no callback, which could run during cyclic garbage
    collection while the slot's lock is held.
    """

    def __init__(self, build) -> None:
        self._build = build
        self._lock = threading.Lock()
        self._held: tuple[weakref.ref, object] | None = None

    def get(self, operator):
        with self._lock:
            held = self._held
            if held is not None and held[0]() is operator:
                return held[1]
            # Release the previous operator's contents before building anew.
            self._held = None
        del held
        built = self._build(operator)
        with self._lock:
            self._held = (weakref.ref(operator), built)
        return built


def _nearest_row(table: np.ndarray, target: np.ndarray) -> tuple[int, float]:
    """Index and distance of the row of ``table`` nearest to ``target``.

    Ties go to the lowest index.  Rows are scanned in blocks of at most
    ``_SCAN_BLOCK_BYTES`` with the per-row arithmetic of
    ``np.linalg.norm(table - target, axis=1)``, so the distances are the same
    bits without a temporary as large as the table.
    """
    step = max(1, _SCAN_BLOCK_BYTES // (8 * table.shape[1]))
    best_index, best = 0, math.inf
    for start in range(0, table.shape[0], step):
        block = table[start : start + step] - target
        np.square(block, out=block)
        distances = np.sqrt(np.add.reduce(block, axis=1))
        local = int(np.argmin(distances))
        if distances[local] < best:
            best_index, best = start + local, float(distances[local])
    return best_index, best


def _smooth_length(minimum: int) -> int:
    """The smallest ``2^a 3^b 5^c`` at least ``minimum``: an FFT length without large primes."""
    best = 1 << (minimum - 1).bit_length()
    odd5 = 1
    while odd5 < best:
        odd = odd5
        while odd < best:
            # The smallest power of two times ``odd`` that reaches ``minimum``.
            best = min(best, odd << (-(-minimum // odd) - 1).bit_length())
            odd *= 3
        odd5 *= 5
    return best


@dataclass(frozen=True)
class _ChirpPlan:
    """What the chirp-z evaluation of a length-``F`` series on ``P`` breakpoints keeps.

    With ``chirp_m = exp(i pi m^2 / P)``, ``f p = (f^2 + p^2 - (p - f)^2) / 2``
    turns the length-``P`` DFT into a linear convolution with the conjugate
    chirp, run as a circular one of length ``M >= P + F - 1``:

        sum_f a_f e^{i f b_p} = chirp_p sum_f (a_f e^{i f b_0} chirp_f) conj(chirp_{p-f})

    (Rabiner, Schafer & Rader 1969; Bluestein 1970).  ``input_factor`` is
    ``e^{i f b_0} chirp_f``, ``kernel_spectrum`` the length-``M`` FFT of the
    conjugate chirp at lags ``-(F-1) .. P-1``, divided by ``M`` so the inverse
    FFT needs no scaling, and ``output_chirp`` is ``chirp_p``.
    """

    input_factor: np.ndarray
    kernel_spectrum: np.ndarray
    output_chirp: np.ndarray


def _chirp_plan(positions: np.ndarray, width: int) -> _ChirpPlan:
    """The chirp-z plan for series of length ``width`` on the uniform grid ``positions``."""
    started = time.perf_counter()
    count = positions.size
    length = _smooth_length(count + width - 1)
    m = np.arange(max(count, width), dtype=np.int64)
    # exp(i pi m^2 / P) has period 2 P in m^2: reduce the exponent exactly.
    chirp = np.exp(1j * (math.pi / count) * ((m * m) % (2 * count)))
    kernel = np.zeros(length, dtype=np.complex128)
    kernel[:count] = chirp[:count]
    kernel[length - width + 1 :] = chirp[width - 1 : 0 : -1]
    plan = _ChirpPlan(
        input_factor=np.exp(1j * np.arange(width) * positions[0]) * chirp[:width],
        kernel_spectrum=np.fft.fft(np.conj(kernel, out=kernel)) / length,
        output_chirp=chirp[:count].copy(),
    )
    arrays = (plan.input_factor, plan.kernel_spectrum, plan.output_chirp)
    for array in arrays:
        array.setflags(write=False)
    logger.debug(
        "chirp-z plan: P=%d F=%d M=%d bytes=%d built in %.3fs",
        count, width, length, sum(array.nbytes for array in arrays),
        time.perf_counter() - started,
    )
    return plan


def _indicator_series(rows: np.ndarray, width: int) -> np.ndarray:
    """Series ``z_0 .. z_{width-1}`` of ``<rows, w(b)> - rows[0] (b+pi)/sqrt(2 pi)``.

    Row ``p`` of the indicator matrix ``W`` holds the first ``d`` coefficients
    ``w(b_p)`` of the pre-jump indicator of ``[-pi, b_p]``.  Closed forms: the
    constant coefficient is ``(b+pi)/sqrt(2 pi)``, the cosine-``j`` one
    ``sin(j b)/(j sqrt(pi))``, and the sine-``j`` one
    ``((-1)^j - cos(j b))/(j sqrt(pi))``.  Apart from the ``(b+pi)`` term, a
    row's inner product with ``w(b)`` is then ``Re sum_j z_j exp(i j b)``, a
    trigonometric polynomial of degree ``d // 2``, with
    ``z_j = -(s_j + i c_j) / (j sqrt(pi))`` for the row's cosine-``j`` and
    sine-``j`` entries ``c_j``, ``s_j``, and the constant
    ``z_0 = sum_j (-1)^j s_j / (j sqrt(pi))``.  Entries past ``d // 2`` are 0.
    """
    d = rows.shape[-1]
    n_sin = (d - 1) // 2
    js = np.arange(1, d // 2 + 1)
    weights = 1.0 / (js * math.sqrt(math.pi))
    signs = np.where(js % 2 == 0, 1.0, -1.0)
    sin_rows = rows[..., 2::2]
    series = np.zeros(rows.shape[:-1] + (width,), dtype=np.complex128)
    series[..., 0] = sin_rows @ (signs[:n_sin] * weights[:n_sin])
    series[..., 1 : js.size + 1] = (-1j * weights) * rows[..., 1::2]
    series[..., 1 : n_sin + 1] -= weights[:n_sin] * sin_rows
    return series


def _indicator_coefficients(b: float, d: int) -> np.ndarray:
    """``w(b)``: the first ``d`` coefficients of the indicator of ``[-pi, b]``."""
    js = np.arange(1, d // 2 + 1)
    weights = 1.0 / (js * math.sqrt(math.pi))
    signs = np.where(js % 2 == 0, 1.0, -1.0)
    n_sin = (d - 1) // 2
    w = np.empty(d)
    w[0] = (b + math.pi) / _SQRT_2PI
    w[1::2] = np.sin(js * b) * weights
    w[2::2] = (signs[:n_sin] - np.cos(js[:n_sin] * b)) * weights[:n_sin]
    return w


@dataclass
class FactoredStepDecoder:
    """Exact nearest-member search over a single-jump step-function net.

    Net members are ``c0`` on ``[-pi, b]`` and ``c1`` after the jump, with
    ``b`` on a breakpoint grid and levels on a shared symmetric grid.  For a
    fixed configuration the best ``c1`` solves a scalar quadratic, and a
    per-breakpoint lower bound skips the breakpoints that cannot win.

    The breakpoints must be a uniform grid of pitch ``2 pi / P`` (as
    ``position_grid`` makes them): every term the sweep needs is then a
    trigonometric polynomial in ``b``, and one chirp-z transform evaluates it
    on all ``P`` breakpoints at once.
    """

    positions: np.ndarray
    levels: np.ndarray
    level_step: float

    def __post_init__(self) -> None:
        self.positions = np.asarray(self.positions, dtype=np.float64)
        self.levels = np.asarray(self.levels, dtype=np.float64)
        if self.positions.ndim != 1 or self.positions.size < 1:
            raise UsageError("breakpoint positions must be a nonempty 1-d grid")
        pitch = TWO_PI / self.positions.size
        if not np.allclose(np.diff(self.positions), pitch, rtol=0.0, atol=1e-12):
            raise UsageError(
                "breakpoint positions must have the uniform pitch 2 pi / P"
            )
        self._terms = _OperatorSlot(self._operator_terms)
        self._norms_sq: dict[int, np.ndarray] = {}
        self._norms_lock = threading.Lock()
        # Its own lock: ``_indicator_norms_sq`` transforms under ``_norms_lock``.
        self._plans: dict[int, _ChirpPlan] = {}
        self._plans_lock = threading.Lock()

    @property
    def size(self) -> int:
        return self.positions.size * self.levels.size ** 2

    def _on_breakpoints(self, series: np.ndarray) -> np.ndarray:
        """``Re sum_f series_f exp(i f b)`` at every breakpoint ``b``.

        With ``b_p = b_0 + 2 pi p / P`` the sum is a length-``P`` DFT, which a
        chirp-z transform evaluates with FFTs of a length ``M`` free of large
        primes (see ``_ChirpPlan``), for series of any length ``F`` along the
        last axis.  The plan for each ``F`` is built once, kept read-only, and
        shared by every thread.
        """
        width = series.shape[-1]
        with self._plans_lock:
            plan = self._plans.get(width)
            if plan is None:
                plan = self._plans[width] = _chirp_plan(self.positions, width)
        length = plan.kernel_spectrum.size
        spectrum = np.fft.fft(series * plan.input_factor, n=length, axis=-1)
        spectrum *= plan.kernel_spectrum
        convolved = np.fft.ifft(spectrum, axis=-1, norm="forward", out=spectrum)
        values = convolved[..., : self.positions.size]
        values *= plan.output_chirp
        return np.ascontiguousarray(values.real)

    def _indicator_products(self, rows: np.ndarray) -> np.ndarray:
        """``W @ rows`` along the last axis of ``rows``, never forming ``W``."""
        periodic = self._on_breakpoints(
            _indicator_series(rows, rows.shape[-1] // 2 + 1)
        )
        return periodic + np.multiply.outer(
            rows[..., 0] / _SQRT_2PI, self.positions + math.pi
        )

    def _indicator_norms_sq(self, d: int) -> np.ndarray:
        """``|w(b)|^2`` at every breakpoint, from the squared closed forms.

        The ``cos(2 j b)`` terms cancel except the last cosine's, so

            |w(b)|^2 = (b+pi)^2/(2 pi) + sum_{j<=d//2} 1/(2 pi j^2)
                       + sum_{j<=(d-1)//2} (3 - 4 (-1)^j cos(j b))/(2 pi j^2)
                       - [d even] cos(d b)/(2 pi (d/2)^2).

        They depend on ``d`` and the grid only, so the norms for each ``d``
        are built once, kept read-only, and shared by every thread.
        """
        with self._norms_lock:
            norms = self._norms_sq.get(d)
            if norms is not None:
                return norms
            n_sin = (d - 1) // 2
            js = np.arange(1, d // 2 + 1)
            weights_sq = 1.0 / (math.pi * js**2)
            series = np.zeros(d + 1)
            series[0] = np.sum(weights_sq) / 2.0 + 1.5 * np.sum(weights_sq[:n_sin])
            alternating = np.where(js[:n_sin] % 2 == 0, -2.0, 2.0)
            series[1 : n_sin + 1] = alternating * weights_sq[:n_sin]
            if d % 2 == 0:
                series[d] = -weights_sq[-1] / 2.0
            shift_sq = (self.positions + math.pi) ** 2 / TWO_PI
            norms = self._on_breakpoints(series) + shift_sq
            norms.setflags(write=False)
            self._norms_sq[d] = norms
        return norms

    def _operator_terms(self, operator) -> _OperatorTerms:
        """The decode terms that depend on ``operator`` only.

        With ``t_r(b)`` the periodic part of ``<R_r, w(b)>`` (degree
        ``K = d // 2``) and ``beta = R[:, 0] / sqrt(2 pi)``,

            |R w(b)|^2 = (b+pi)^2 |beta|^2 + 2 (b+pi) t[R^T beta](b)
                         + sum_r t_r(b)^2,

        and ``R^T beta = R^T v_full / (2 pi)``, so ``g00`` follows from
        ``g0f = W R^T v_full`` and the square-sum.  The square-sum has degree
        ``2 K``: a real inverse FFT evaluates the ``t_r`` of a block of
        ``_TERMS_BLOCK_ROWS`` rows on ``N >= 4 K + 1`` uniform points (``N`` a
        power of two), the blocks' squares are summed into one length-``N``
        vector, and one real forward FFT of it gives its coefficients exactly.
        Each block of rows is scaled as it is read, and ``v_full @ R`` is
        ``scale * (v_full @ frame)``, so no frame-sized copy is made.
        Decoding keeps the last operator's terms in a slot, so they are built
        once per operator.
        """
        started = time.perf_counter()
        scale, frame = operator.scale, operator.frame
        n, d = frame.shape
        degree = d // 2
        points = 1 << (4 * degree).bit_length()
        squares = np.zeros(points)
        for start in range(0, n, _TERMS_BLOCK_ROWS):
            rows = frame[start : start + _TERMS_BLOCK_ROWS]
            series = _indicator_series(scale * rows, points // 2 + 1)
            # Bin f of a real inverse DFT holds half of z_f, f > 0; bins past K
            # are 0.  (numpy's irfft is slower on a shorter, zero-padded input.)
            series[:, 1 : degree + 1] *= 0.5
            block = np.fft.irfft(series, n=points, axis=-1, norm="forward")
            squares += np.einsum("ij,ij->j", block, block)
            del series, block  # before the next block's are built
        square_sum = np.fft.rfft(squares, norm="forward")
        square_sum = square_sum[: 2 * degree + 1]
        square_sum[1:] *= 2.0
        first = scale * frame[:, 0]
        v_full = _SQRT_2PI * first
        lead = float(np.dot(first, first))
        g0f = self._indicator_products(scale * (v_full @ frame))
        shift = self.positions + math.pi
        g00 = self._on_breakpoints(square_sum)
        g00 += shift * (2.0 * g0f - shift * lead) / TWO_PI
        terms = _OperatorTerms(
            v_full=v_full, g00=g00, g0f=g0f, gff=float(np.dot(v_full, v_full))
        )
        logger.debug(
            "factored decoder terms: P=%d d=%d n=%d N=%d block=%d bytes"
            " kept=%d bytes built in %.3fs",
            self.positions.size,
            d,
            n,
            points,
            min(n, _TERMS_BLOCK_ROWS) * points * 8,
            g00.nbytes + g0f.nbytes + v_full.nbytes,
            time.perf_counter() - started,
        )
        return terms

    def prepare(self, operator) -> None:
        """Build the terms for ``operator`` now, as its first decode would."""
        self._terms.get(operator)

    def _objective_pairs(self, q0, q1, g00, g01, g11, c0) -> tuple[np.ndarray, np.ndarray]:
        """The objective at each (breakpoint, ``c0``) pair, and its best ``c1`` index.

        In place, one rounding step per line, each formula left to right:
          c1_opt = (q1 - g01 c0) / g11,  k = clip(floor(c1_opt / step + 1/2))
          objective = -2 (c0 q0 + c1 q1) + c0^2 g00 + 2 c0 c1 g01 + c1^2 g11
        Every step is elementwise, so a pair's bits do not depend on the others.
        """
        half = (self.levels.size - 1) // 2
        k = g01 * c0
        np.subtract(q1, k, out=k)
        k /= g11
        k /= self.level_step
        k += 0.5
        np.floor(k, out=k)
        np.clip(k, -half, half, out=k)
        c1 = k * self.level_step
        objective = q0 * c0
        term = c1 * q1
        objective += term
        objective *= -2.0
        objective += g00 * c0**2
        np.multiply(2.0 * c0, c1, out=term)
        term *= g01
        objective += term
        np.square(c1, out=c1)
        c1 *= g11
        objective += c1
        return objective, k + half

    def _sweep(
        self,
        q0: np.ndarray,
        q_full: float,
        g00: np.ndarray,
        g0f: np.ndarray,
        gff: float,
    ) -> tuple[int, int, int]:
        """Minimize ``|target - c0 w - c1 (v - w)|`` over the grid, exactly.

        ``q0``/``q_full`` are inner products of the target with the indicator
        rows and the constant-one function; ``g00``/``g0f``/``gff`` the
        corresponding Gram entries, all in the working geometry.  Returns the
        winner's breakpoint, ``c0`` and ``c1`` indices.

        Branch and bound (Fincke & Pohst 1985; Agrell et al. 2002): where
        ``G = [[g00, g01], [g01, g11]]`` is positive definite, the objective
        at ``c0`` is at least ``beta + S (c0 - c0*)^2`` for every ``c1``, with
        ``beta = -q^T G^-1 q``, ``S = D / g11``, ``D = det G`` and ``c0* =
        (g11 q0 - g01 q1) / D``.  The best-bounded breakpoint is swept first;
        with its best objective ``U`` and ``lower = beta - slack``, another
        breakpoint sweeps only the levels within ``sqrt((U - lower) / S)`` of
        ``c0*``, none if ``lower > U``.  A near-constant target ties at every
        breakpoint, and still sweeps about one level at each.  The pairs are
        swept in ascending order, so the winner, its objective bits and the
        lowest-index tie-break are those of sweeping every pair.

        ``slack`` bounds the rounding of both sides.  A sum whose terms each
        pass through at most ``m`` roundings is off by at most ``gamma_m =
        m u / (1 - m u)`` times their magnitudes' sum (Higham, *Accuracy and
        Stability of Numerical Algorithms*, ch. 3).  Objective terms pass
        through at most five, and ``|c0|, |c1| <= L``, the largest level: a
        computed objective is within ``gamma_5 T``, ``T = 2 L (|q0| + |q1|)
        + L^2 (g00 + 2 |g01| + |g11|)``.  ``beta``'s numerator is within
        ``gamma_4 N~`` (``N~`` its terms' magnitudes) and ``D`` within
        ``gamma_2 D~``, ``D~ = g00 g11 + g01^2``, so ``beta`` is within
        ``gamma_4 (|beta| D~ + N~) / D`` to first order.  Breakpoints with
        ``g00 <= 0`` or ``D <= 1e-8 g00 g11`` (``w(b) -> 0`` near ``b = -pi``)
        sweep every level; elsewhere ``D~ / D < 2e8``, higher orders add under
        ``1e-7`` of this, and ``slack = 2 gamma_5 (T + (|beta| D~ + N~) / D)``.
        Likewise ``c0*`` is within ``gamma_3 (|g11 q0| + |g01 q1| + |c0*| D~)
        / D`` and ``S`` within a factor ``1 + 1e-7``; the window's half-width
        adds twice the first, and a factor ``1 + 1e-6`` covers the rest.
        """
        levels = self.levels
        q1, g01, g11 = q_full - q0, g0f - g00, gff - 2.0 * g0f + g00
        det = g00 * g11 - g01 * g01
        bound = -(g11 * q0 * q0 - 2.0 * g01 * q0 * q1 + g00 * q1 * q1) / det
        top = float(levels[-1])  # the grid is symmetric: L = levels[-1]
        slack = (np.abs(q0) + np.abs(q1)) * 2.0 * top
        slack += (g00 + 2.0 * np.abs(g01) + np.abs(g11)) * top**2
        spread = g11 * q0 * q0 + np.abs(2.0 * g01 * q0 * q1) + g00 * q1 * q1
        slack += (np.abs(bound) * (g00 * g11 + g01 * g01) + spread) / det
        lower = bound - slack * (10.0 * _UNIT_ROUNDOFF / (1.0 - 5.0 * _UNIT_ROUNDOFF))
        valid = (g00 > 0.0) & (det > 1e-8 * g00 * g11) & np.isfinite(lower)
        seed = int(np.argmin(np.where(valid, bound, np.inf)))
        inputs = (q0, q1, g00, g01, g11)
        incumbent = np.min(self._objective_pairs(*(a[seed] for a in inputs), levels)[0])
        # Levels [lo, hi) swept at each breakpoint: all of them at the seed and
        # where G is near singular, else a window about c0*, empty if pruned.
        lo, hi = np.zeros(q0.size, dtype=np.intp), np.full(q0.size, levels.size)
        hi[valid] = 0
        rows = np.flatnonzero(valid & (lower <= incumbent))
        r0, r1, r00, r01, r11, rdet = (a[rows] for a in (*inputs, det))
        centre = (r11 * r0 - r01 * r1) / rdet
        shift = np.abs(r11 * r0) + np.abs(r01 * r1) + np.abs(centre) * (r00 * r11 + r01 * r01)
        shift *= 6.0 * _UNIT_ROUNDOFF / (1.0 - 3.0 * _UNIT_ROUNDOFF) / rdet
        radius = (np.sqrt((incumbent - lower[rows]) * r11 / rdet) + shift) * (1.0 + 1e-6)
        lo[rows] = np.searchsorted(levels, centre - radius)
        hi[rows] = np.searchsorted(levels, centre + radius, side="right")
        lo[seed], hi[seed] = 0, levels.size
        counts = hi - lo
        pairs = np.repeat(np.arange(q0.size), counts)
        columns = np.arange(pairs.size) - np.repeat(np.cumsum(counts) - counts - lo, counts)
        objective, k = self._objective_pairs(*(a[pairs] for a in inputs), levels[columns])
        best = int(np.argmin(objective))
        logger.debug(
            "factored decode: swept %d of %d breakpoints (%d of %d pairs, %d never pruned)",
            np.count_nonzero(counts),
            q0.size,
            pairs.size,
            counts.size * levels.size,
            np.count_nonzero(~valid),
        )
        return int(pairs[best]), int(columns[best]), int(k[best])

    def _decoded(
        self, winner: tuple[int, int, int], d: int, measure, target: np.ndarray
    ) -> "DecodeResult":
        """The winner as a member, with its distance from the residual.

        The distance is ``|target - measure(x)|`` for the winner's ``d``
        coefficients ``x``, computed directly: the sweep's objective equals
        the squared distance minus ``|target|^2``, and recovering a small
        distance from it cancels.
        """
        p_idx, c0_idx, c1_idx = winner
        c0, c1 = float(self.levels[c0_idx]), float(self.levels[c1_idx])
        b = float(self.positions[p_idx])
        coefficients = (c0 - c1) * _indicator_coefficients(b, d)
        coefficients[0] += c1 * _SQRT_2PI
        member = PiecewiseDescription(
            breakpoints=(b,),
            piece_coefficients=((c0,), (c1,)),
            periodic=False,
        )
        index = (p_idx * self.levels.size + c0_idx) * self.levels.size + c1_idx
        distance = float(np.linalg.norm(target - measure(coefficients)))
        return DecodeResult(member, index, distance, coefficients)

    def decode_coefficients(self, target: np.ndarray) -> "DecodeResult":
        """Nearest net member to a truncated coefficient vector (exactly)."""
        target = np.asarray(target, dtype=np.float64)
        if target.ndim != 1 or target.size < 1:
            raise UsageError("decode target must be a nonempty 1-d vector")
        g0f = self.positions + math.pi  # <w(b), 1-function> is exact at any d
        winner = self._sweep(
            self._indicator_products(target),
            _SQRT_2PI * float(target[0]),
            self._indicator_norms_sq(target.size),
            g0f,
            TWO_PI,
        )
        return self._decoded(winner, target.size, lambda x: x, target)

    def decode_measurements(self, y: np.ndarray, operator) -> "DecodeResult":
        """Nearest net member to measurements under a general operator."""
        y = np.asarray(y, dtype=np.float64)
        if y.shape != (operator.n,):
            raise UsageError(
                f"expected {operator.n} measurements, got shape {y.shape}"
            )
        terms = self._terms.get(operator)
        winner = self._sweep(
            self._indicator_products(operator.scale * (y @ operator.frame)),
            float(np.dot(terms.v_full, y)),
            terms.g00,
            terms.g0f,
            terms.gff,
        )
        return self._decoded(
            winner, operator.d, lambda x: operator.scale * (operator.frame @ x), y
        )


@dataclass(frozen=True)
class DecodeResult:
    """The nearest member, its index in net order, and its distance.

    ``coefficients`` holds the member's first ``d`` coefficients, the space
    the decode ran in.
    """

    member: object
    index: int
    distance: float
    coefficients: np.ndarray = field(compare=False)


@dataclass(eq=False)
class MaterializedDecoder:
    """Exact nearest-member search over a net within the materialization budget.

    ``rows`` holds each center's first ``d`` coefficients in index order
    (configurations, then the axis grid in ``itertools.product`` order) and
    is made read-only.  No center is kept: the decoded one is built by
    ``member(breakpoints, values)`` from its configuration and axis point.
    Measured decodes scan the rows' images ``scale * rows R^T`` under the
    operator, one matrix product built on the first decode under each one.
    """

    rows: np.ndarray
    configurations: tuple[tuple[float, ...], ...]
    axes: tuple[AxisLog, ...]
    member: Callable

    def __post_init__(self) -> None:
        self.rows = np.ascontiguousarray(self.rows, dtype=np.float64)
        self._counts = tuple(axis.count for axis in self.axes)
        self._grids = [axis.points() for axis in self.axes]
        size = len(self.configurations) * math.prod(self._counts)
        if self.rows.ndim != 2 or self.rows.shape[0] != size:
            raise UsageError(
                f"expected one coefficient row per member, got shape {self.rows.shape}"
                f" for {size} members"
            )
        self.rows.flags.writeable = False
        self._tables = _OperatorSlot(self._measured_rows)

    def _measured_rows(self, operator) -> np.ndarray:
        started = time.perf_counter()
        table = self.rows @ operator.frame.T
        table *= operator.scale
        logger.debug(
            "materialized decoder table: M=%d d=%d n=%d bytes=%d built in %.3fs",
            self.rows.shape[0],
            operator.d,
            operator.n,
            table.nbytes,
            time.perf_counter() - started,
        )
        return table

    def prepare(self, operator) -> None:
        """Build the measured table for ``operator`` now, as its first decode would."""
        self._tables.get(operator)

    def _decoded(self, table: np.ndarray, target: np.ndarray) -> DecodeResult:
        index, distance = _nearest_row(table, target)
        configuration, point = divmod(index, len(self.rows) // len(self.configurations))
        steps = np.unravel_index(point, self._counts)
        values = tuple(grid[i] for grid, i in zip(self._grids, steps))
        member = self.member(self.configurations[configuration], values)
        return DecodeResult(member, index, distance, self.rows[index])

    def decode_coefficients(self, target: np.ndarray) -> DecodeResult:
        """Nearest net member to a truncated coefficient vector."""
        target = np.asarray(target, dtype=np.float64)
        if target.shape != self.rows.shape[1:]:
            raise UsageError(
                f"expected {self.rows.shape[1]} coefficients, got shape {target.shape}"
            )
        return self._decoded(self.rows, target)

    def decode_measurements(self, y: np.ndarray, operator) -> DecodeResult:
        """Nearest net member to measurements under ``operator``."""
        y = np.asarray(y, dtype=np.float64)
        if y.shape != (operator.n,):
            raise UsageError(
                f"expected {operator.n} measurements, got shape {y.shape}"
            )
        if operator.d != self.rows.shape[1]:
            raise UsageError(
                f"operator acts on {operator.d} coefficients, the net rows have"
                f" {self.rows.shape[1]}"
            )
        return self._decoded(self._tables.get(operator), y)


@dataclass(frozen=True)
class CoveringNet:
    """A net's layout and counts; ``decoder`` is set on ``factored`` nets only."""

    family: object
    mode: str
    size: int
    entropy_bits: float
    plan: NetPlan
    decoder: FactoredStepDecoder | None = field(default=None)


# ---------------------------------------------------------------------------
# Construction plans: what every class builds its net from
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NetPlan:
    """A class's net at resolution ``eps1``, before any member exists.

    The net is every choice of one of ``config_count`` breakpoint
    configurations (``jumps`` of the ``breakpoint_count`` grid points,
    consecutive indices at least ``index_gap`` apart) times one point on
    each axis.  The grid, ``positions``, is built on first use only.
    """

    eps1: float
    axes: tuple[AxisLog, ...]
    config_count: int
    breakpoint_count: int = 0
    periodic: bool = False
    index_gap: int = 1
    jumps: int = 0

    @property
    def size(self) -> int:
        """The number of centers ``M``, exactly."""
        return self.config_count * math.prod(axis.count for axis in self.axes)

    @property
    def entropy_bits(self) -> float:
        """``log2 M``, summed per factor so it stays finite for any ``M``."""
        return math.log2(self.config_count) + float(
            sum(math.log2(axis.count) for axis in self.axes)
        )

    @functools.cached_property
    def positions(self) -> np.ndarray:
        """The grid at pitch ``2 pi / P``: from ``-pi``, or half a pitch in."""
        count = self.breakpoint_count
        effective = TWO_PI / max(count, 1)
        return -math.pi + effective * (np.arange(count) + (0.0 if self.periodic else 0.5))

    def configurations(self) -> Iterator[tuple[float, ...]]:
        """Every configuration's breakpoints, in index order."""
        positions = self.positions
        for combo in iter_gap_tuples(positions.size, self.jumps, self.index_gap):
            yield tuple(float(positions[i]) for i in combo)


def position_grid(eps1: float, num_jumps: int, value_scale: float, periodic: bool):
    """Breakpoint count ``P``, actual pitch and nominal pitch.

    The nominal pitch ``(eps1/2)^2 / (jumps * (2*scale)^2)`` (quarter budget
    for the periodic flavour) fixes the point count ``P``; the actual grid
    (``NetPlan.positions``) uses ``2 pi / P`` so all points stay inside the
    domain.
    """
    budget = eps1 / (4.0 if periodic else 2.0)
    pitch = budget**2 / (num_jumps * (2.0 * value_scale) ** 2)
    count = int(math.ceil(TWO_PI / pitch))
    return count, TWO_PI / count, pitch


def gap_separated_count(total: int, choose: int, gap: int) -> int:
    """Sorted index tuples from ``range(total)`` with consecutive gaps >= gap."""
    return math.comb(total - (choose - 1) * (gap - 1), choose) if choose >= 1 else 1


def iter_gap_tuples(total: int, choose: int, gap: int) -> Iterator[tuple[int, ...]]:
    for combo in itertools.combinations(range(total), choose):
        if all(b - a >= gap for a, b in zip(combo, combo[1:])):
            yield combo


# ---------------------------------------------------------------------------
# Building
# ---------------------------------------------------------------------------


def build_net(
    family,
    eps1: float,
    m_max: int | float = DEFAULT_NET_BUDGET,
) -> CoveringNet:
    """Lay out and count a covering net at resolution ``eps1``; build no member.

    The net is ``materialized`` when its size fits within ``m_max``, else
    ``factored`` when the class has a factored decoder (built here), else
    ``counted``.
    """
    if not eps1 > 0.0:
        raise UsageError(f"net resolution must be positive, got {eps1!r}")
    plan = family.net_plan(eps1)
    fits = plan.size <= m_max
    decoder = None if fits else family.factored_decoder(plan)
    mode = "materialized" if fits else "counted" if decoder is None else "factored"
    return CoveringNet(family, mode, plan.size, plan.entropy_bits, plan, decoder)


# ---------------------------------------------------------------------------
# Serialization (materialized nets only)
# ---------------------------------------------------------------------------


def dump_net(stream: IO[str], net: CoveringNet, ambient_dim: int) -> None:
    if net.mode != "materialized":
        raise UsageError(f"only materialized nets can be serialized, not {net.mode}")
    spec = net.family.spec_string()
    stream.write(f"eps1={net.plan.eps1:.17g} M={net.size} spec={spec}\n")
    for index, member in enumerate(net.family.enumerate_members(net.plan)):
        if index:
            stream.write("---\n")
        dump_signal(stream, net.family.to_signal(member, ambient_dim))


def write_net(path, net: CoveringNet, ambient_dim: int) -> None:
    with open(path, "w", encoding="utf-8") as stream:
        dump_net(stream, net, ambient_dim)
