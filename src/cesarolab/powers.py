"""Iterated powers, exact power norms, Cesàro means, and the mean identity.

Orbits run on one of two exact engines, chosen from the spec.  Finite-
dimensional specs step a dense matrix.  Every infinite spec compiles to a
banded stencil (offsets -1, 0, +1 with per-index weight tables) acting on a
moving dense window: a shift or a diagonal is one term and keeps the window
width, the duplicating shift and the block operator [[T, T-I],[0, T]] have
several offsets and grow it.  Scalar multiples are folded into the weights.
Both engines hold the state as a start coordinate plus a rows x width array,
so a single Kahan-compensated accumulator serves every Cesàro sum: a grid of
unimodular lam at once, with a single mean as the one-point grid [1].
Compensation keeps desk-scale sweeps (N up to 1e6) inside the package
tolerances.

A state that never moves (a matrix, or a diagonal window) is a fixed frame:
its engine advances a block of B steps per numpy call from a stack of the
step operator's powers A^1 .. A^B, built once in extended precision, with B
set by a 1 MiB cap on the stack.  The engines' batched reductions
(``norms``, ``inners``) and the Cesàro sums read those blocks.  A block is
summed in extended precision and folded in by a TwoSum update, so its sums
stay correctly rounded.  A one-term weighted shift is a translating frame:
its weight products telescope, so states, their reductions and the Cesàro
sums are read off one cumulative product table, the sums by prefix sums.
Every other moving window steps one state at a time.  The operator-norm
sweep ``lambda_operator_norms`` is the matrix counterpart of the sums: one
compensated pass over the powers (lam A)^k for a whole lam grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    BackwardShift,
    BilateralShift,
    BlockTZ,
    Diagonal,
    DomainError,
    DuplicatingShift,
    Explicit,
    FiniteRange,
    ForwardShift,
    NatFromOne,
    OperatorSpec,
    PairVec,
    ParameterError,
    PolyRatio,
    PowerRatio,
    ScalarMultiple,
    SparseVec,
    UnsupportedVariantError,
    apply,
    expects_pair,
    p_norm,
    spec_dim,
    spec_universe,
    to_matrix,
    weight_product,
)

__all__ = [
    "NormSeq",
    "power_apply",
    "power_norm_exact",
    "orbit_norms",
    "cesaro_apply",
    "cesaro_operator_norm",
    "cesaro_operator_norm_sweep",
    "media_residual",
    "media_residual_max",
    "block_tz_power_check",
    "largest_singular_value",
    "matrix_exponential",
    "make_orbit",
    "shift_direction",
    "CesaroSum",
    "compensated_add",
    "lambda_mean_norms",
    "lambda_operator_norms",
]

SHIFT_SUP_HORIZON = 10**6
_STACK_BYTES = 2**20  # cap on a fixed frame's power stack; it fixes the block length B
# Equal doubles that an extended-precision sum adds exactly: 2^11 with an x87 long double.
_EXACT_ROWS = 2 ** max(np.finfo(np.longdouble).nmant - np.finfo(float).nmant, 6)
_DOUBLE = np.finfo(float)


@dataclass(frozen=True)
class NormSeq:
    """Sequence of (n, value) pairs recording ||T^n x|| or ||T^n||."""

    entries: tuple[tuple[int, float], ...]
    kind: str  # "vector-orbit" | "operator-norm"
    p: float

    def __post_init__(self) -> None:
        prev = -1
        for n, value in self.entries:
            if n <= prev:
                raise ParameterError("NormSeq indices must be strictly increasing")
            if not (math.isfinite(value) and value >= 0):
                raise ParameterError(f"NormSeq values must be finite and >= 0, got {value!r} at n={n}")
            prev = n

    def ns(self) -> list[int]:
        return [n for n, _ in self.entries]

    def values(self) -> list[float]:
        return [v for _, v in self.entries]

    def dyadic(self, start: int = 1) -> "NormSeq":
        """Subsequence at n = start, 2*start, 4*start, ... (keeps present entries only)."""
        wanted = set()
        n = start
        top = self.entries[-1][0] if self.entries else 0
        while n <= top:
            wanted.add(n)
            n *= 2
        kept = tuple((n, v) for n, v in self.entries if n in wanted)
        return NormSeq(kept, self.kind, self.p)


# ---------------------------------------------------------------------------
# numerical kernels


def largest_singular_value(a):
    """Largest singular value of a matrix (a float) or of each matrix in a stack (..., d, d) (an array).

    LAPACK's SVD computes it; a matrix with a non-finite entry has value inf
    and never reaches LAPACK.
    """
    a = np.asarray(a, dtype=complex)
    finite = np.isfinite(a).all(axis=(-2, -1))
    out = np.full(finite.shape, np.inf)
    out[finite] = np.linalg.svd(a[finite], compute_uv=False)[..., 0]
    return float(out) if out.ndim == 0 else out


def matrix_exponential(a, tol: float = 1e-14) -> np.ndarray:
    """exp(a) by scaling-and-squaring over a Taylor series with a tail bound."""
    a = np.asarray(a, dtype=complex)
    d = a.shape[0]
    norm1 = float(np.max(np.sum(np.abs(a), axis=0))) if a.size else 0.0
    squarings = max(0, int(math.ceil(math.log2(norm1))) + 1) if norm1 > 0.5 else 0
    b = a / (2.0**squarings)
    nb = norm1 / (2.0**squarings)
    total = np.eye(d, dtype=complex)
    term = np.eye(d, dtype=complex)
    for k in range(1, 200):
        term = term @ b / k
        total = total + term
        q = nb / (k + 1)
        if q < 1.0:
            term_norm = float(np.max(np.sum(np.abs(term), axis=0)))
            total_norm = float(np.max(np.sum(np.abs(total), axis=0)))
            if term_norm * q / (1.0 - q) <= tol * max(total_norm, 1.0):
                break
    for _ in range(squarings):
        total = total @ total
    return total


# ---------------------------------------------------------------------------
# orbit engines


def _rule_table(rule, lo: int, hi: int) -> np.ndarray:
    """weight_at(rule, k) for k in [lo, hi] as a dense array (vectorized)."""
    if hi < lo:
        return np.zeros(0)
    ks = np.arange(lo, hi + 1, dtype=float)
    if isinstance(rule, PowerRatio):
        num = ks + rule.offset
        return (num / (num - 1.0)) ** rule.alpha
    if isinstance(rule, PolyRatio):
        a = rule.p(ks)
        b = rule.p(ks + 1.0)
        bad = np.nonzero(~((a > 0) & (b > 0)))[0]
        if bad.size:
            j = int(ks[bad[0]])
            raise ParameterError(f"weight polynomial not positive near index {j}")
        return np.sqrt(b / a)
    if isinstance(rule, Explicit):
        out = np.full(hi - lo + 1, rule.tail)
        for k in range(max(lo, 1), min(hi, len(rule.values)) + 1):
            out[k - lo] = rule.values[k - 1]
        return out
    raise UnsupportedVariantError(f"unknown weight rule {rule!r}")


def _lp_norm(mags, p: float, axis=None):
    """ell^p norm of nonnegative magnitudes: of the whole array, or of each row (axis=1).

    For p > 1 the powers can underflow or overflow: a norm that comes out 0 or
    inf while the largest magnitude is finite and nonzero is recomputed on the
    magnitudes divided by that maximum.  Every other norm is the plain sum.
    """
    if p == 1:
        return np.sum(mags, axis=axis)
    if p == 2:
        norm = np.sqrt(np.sum(mags * mags, axis=axis))
    else:
        norm = np.sum(mags**p, axis=axis) ** (1.0 / p)
    if axis is not None:
        for i in np.flatnonzero((norm == 0) | np.isinf(norm)):
            norm[i] = _lp_norm(mags[i], p)
        return norm
    if 0 < norm < math.inf:  # plain comparisons: a single norm is taken once per orbit step
        return norm
    top = np.max(mags, initial=0.0)
    return _lp_norm(mags / top, p) * top if 0 < top < math.inf else norm


def _dense(x, lo: int | None = None, hi: int | None = None) -> tuple[int, np.ndarray]:
    """(lo, rows x width array) holding a plain or pair vector on [lo, hi] (default: its support hull)."""
    parts = (x.top, x.bottom) if isinstance(x, PairVec) else (x,)
    if lo is None:
        keys = [k for part in parts for k in part.entries]
        lo, hi = min(keys, default=1), max(keys, default=0)
    out = np.zeros((len(parts), hi - lo + 1), dtype=complex)
    for r, part in enumerate(parts):
        for k, v in part.entries.items():
            out[r, k - lo] = v
    return lo, out


def _as_vector(universe, lo: int, vals: np.ndarray):
    """Sparse (or pair) vector of the nonzero entries of a state array."""
    rows = []
    for row in vals:
        nz = np.flatnonzero(row)
        rows.append(SparseVec(universe, dict(zip((nz + lo).tolist(), row[nz].tolist()))))
    return PairVec(*rows) if len(rows) == 2 else rows[0]


def _power_stack(op: np.ndarray, size: int) -> np.ndarray:
    """op^1 .. op^size of a matrix (matrix powers) or a weight vector (elementwise powers).

    Built by doubling, stack[k : 2k] = stack[:k] op^k, in extended precision:
    log2(size) numpy calls fill it, and each power, rounded once to double, is
    as accurate as one step (in double, powers that share a factor op^k would
    share its rounding error).
    """
    mul = np.matmul if op.ndim == 2 else np.multiply
    stack = np.empty((size, *op.shape), dtype=np.clongdouble)
    stack[0] = op
    k = 1
    while k < size:
        m = min(k, size - k)
        mul(stack[:m], stack[k - 1], out=stack[k : k + m])
        k += m
    return stack.astype(complex)


class _Orbit:
    """Engine state: vals[r, j] is row r (0 plain or pair top, 1 pair bottom) at coordinate lo + j.

    ``norms`` and ``inners`` reduce the next ``count`` states in one call.  On
    a fixed frame (a state that never moves: a matrix, or a diagonal window)
    they read whole blocks of states off a power stack of the step operator
    ``_op``; on a translating frame (a one-term shift) off its product table
    (see ``_WindowOrbit``); every other engine steps one state at a time.
    """

    dead = False
    can_die = False  # whether a zero state is detected and ends the orbit
    fixed = False  # the state never moves, so blocks of steps come from a power stack
    translating = False  # a one-term shift whose states come from a product table
    steps = 0
    floor = None  # lowest index of the universe, when the window must not pass it
    low_off = high_off = 0  # stencil offsets; a matrix state never moves
    horizon = 0  # steps the caller asked for; the power stack never exceeds what is left
    _y = None
    _stack = None

    def span(self, n_max: int) -> tuple[int, int]:
        """Coordinates the state can occupy within n_max steps, inside the universe."""
        lo = self.lo + n_max * min(self.low_off, 0)
        hi = self.lo + self.vals.shape[1] - 1 + n_max * max(self.high_off, 0)
        return (lo if self.floor is None else max(lo, self.floor)), hi

    def norm(self, p: float) -> float:
        self.check_p(p)
        return float(_lp_norm(np.abs(self.vals.ravel()), p))

    def check_p(self, p: float) -> None:
        if p < 1:
            raise ParameterError(f"p must be >= 1, got {p}")
        if self.rows == 2 and p != 2:
            raise ParameterError("pair vectors carry the Hilbert norm only (p=2)")

    def to_sparse(self):
        return _as_vector(self.universe, self.lo, self.vals)

    def inner_with(self, y) -> complex:
        """<T^k x, y> for the current k; y is embedded once and reused while it stays the same."""
        if y is not self._y:
            self._y = y
            self._ylo, self._yv = _dense(y)
        mine, theirs = _overlap(self.lo, self.vals.shape[1], self._ylo, self._yv.shape[1])
        return complex(np.vdot(self._yv[:, theirs], self.vals[:, mine]))  # vdot conjugates its first argument

    def norms(self, p: float, count: int) -> np.ndarray:
        """||T^k x||_p for the next count steps; shorter when the orbit dies, ending at the zero state."""
        self.check_p(p)
        if self.fixed or self.translating:
            return _joined([_lp_norm(np.abs(s), p, axis=1) for s in self._blocks(count)], float)
        return self._walk(count, lambda: self.norm(p), float)

    def inners(self, y, count: int) -> np.ndarray:
        """<T^k x, y> for the next count steps; shorter when the orbit dies, ending at the zero state.

        A pairing that is not finite raises FloatingPointError naming its k.
        """
        first = self.steps + 1
        with np.errstate(over="ignore", invalid="ignore"):
            values = self._inners(y, count)
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            raise FloatingPointError(f"<T^n x, y> is not finite at n={first + bad[0]}: the orbit overflows")
        return values

    def _inners(self, y, count: int) -> np.ndarray:
        if self.fixed:
            ylo, yv = _dense(y)
            frame = np.zeros_like(self.vals)
            mine, theirs = _overlap(self.lo, frame.shape[1], ylo, yv.shape[1])
            frame[:, mine] = yv[:, theirs]
            yc = frame.ravel().conj()
            return _joined([s @ yc for s in self._blocks(count)], complex)
        if self.translating:
            # conj(y) at the travel coordinates of the product table, windowed like it
            width, d, length = self.vals.shape[1], self.low_off, len(self._wt)
            ylo, yv = _dense(y)
            lo = self._trail if d > 0 else self._trail - (length - 1)
            frame = np.zeros(length, dtype=complex)
            mine, theirs = _overlap(lo, length, ylo, yv.shape[1])
            frame[mine] = yv[0, theirs].conj()
            windows = np.lib.stride_tricks.sliding_window_view(frame if d > 0 else frame[::-1], width)
            parts = []
            for s in self._blocks(count):
                first = self.steps - len(s) + 1
                parts.append(np.einsum("ij,ij->i", s, windows[first : first + len(s)]))
            return _joined(parts, complex)
        return self._walk(count, lambda: self.inner_with(y), complex)

    def advance(self, n: int) -> None:
        """Move the orbit to step n (never backwards); a dead orbit stays at the step where it died.

        A translating frame jumps there off its product table; every other
        engine steps.
        """
        if not self.translating:
            while self.steps < n and not self.dead:
                self.step()
            return
        if self._death is not None:
            n = min(n, self._death)
        if n == self.steps:
            return
        state = self._travel_states(n, 1)[0]
        self.vals = (state if self.low_off > 0 else state[::-1]).reshape(1, -1)
        self.lo += self.low_off * (n - self.steps)
        self.steps = n
        self.dead = n == self._death

    def _walk(self, count: int, value, dtype) -> np.ndarray:
        """The stepping loop: value() after each of the next count steps, up to the zero state."""
        out = []
        while len(out) < count and not self.dead:
            self.step()
            out.append(value())
        return np.array(out, dtype=dtype)

    def _blocks(self, count: int):
        """Yield the next count states of a fixed or translating frame, flattened and stacked (m, rows * width).

        A fixed frame's first multi-step advance builds the power stack
        A^1 .. A^B once; B fills a 1 MiB cap and never exceeds the steps left
        to the horizon.  A translating frame reads its states off its product
        table, in travel order (a backward window's columns reversed), in
        blocks under the same cap.  Each block is one numpy call.  The first
        all-zero state of an orbit that can die ends the block and the orbit.
        """
        while count > 0 and not self.dead:
            if self.translating:
                states = self._travel_states(self.steps + 1, count)
            elif self._stack is None and count == 1:
                self.step()
                count -= 1
                yield self.vals.reshape(1, -1)
                continue
            else:
                if self._stack is None:
                    per_power = 16 * self._op.size
                    size = min(max(_STACK_BYTES // per_power, 1), max(self.horizon - self.steps, count))
                    self._stack = _power_stack(self._op, size)
                m = min(count, len(self._stack))
                stack, flat = self._stack[:m], self.vals.ravel()
                if stack.ndim == 3:  # matrix powers: one gemv for the whole block
                    states = (stack.reshape(-1, flat.size) @ flat).reshape(m, -1)
                else:
                    states = stack * flat
            if self.can_die:
                zero = np.flatnonzero(~states.any(axis=1))
                if zero.size:
                    states = states[: zero[0] + 1]
                    self.dead = True
            last = states[-1] if self.low_off >= 0 else states[-1, ::-1]
            self.vals = last.reshape(self.rows, -1).copy()
            self.lo += self.low_off * len(states)
            self.steps += len(states)
            count -= len(states)
            yield states


def _running_products(factors: np.ndarray) -> np.ndarray:
    """Each row's running products 1, f0, f0 f1, ... of a (rows, count) array, shape (rows, count + 1).

    They accumulate in extended precision and are rounded once to double, as
    a power stack is.  The extended run is taken 128 KiB at a time, so the
    only large array is the result.
    """
    rows, count = factors.shape
    out = np.ones((rows, count + 1), dtype=complex)
    carry = np.ones((rows, 1), dtype=np.clongdouble)
    chunk = max(2**12 // rows, 1)
    for j in range(0, count, chunk):
        run = np.cumprod(np.concatenate((carry, factors[:, j : j + chunk]), axis=1), axis=1)
        out[:, j + 1 : j + run.shape[1]] = run[:, 1:]
        carry = run[:, -1:]
    return out


def _overlap(lo: int, width: int, other_lo: int, other_width: int) -> tuple[slice, slice]:
    """(own columns, other columns) where the windows [lo, lo + width) and [other_lo, other_lo + other_width) meet."""
    a = max(lo, other_lo)
    b = max(a, min(lo + width, other_lo + other_width))
    return slice(a - lo, b - lo), slice(a - other_lo, b - other_lo)


def _joined(parts: list, dtype) -> np.ndarray:
    return np.concatenate(parts) if parts else np.zeros(0, dtype=dtype)


@dataclass(frozen=True)
class _Term:
    """new[dst, k + offset] += weights(k) * old[src, k] for every source index k."""

    dst: int
    src: int
    offset: int
    weights: object  # (lo, hi) -> weight array over source indices lo..hi


def _rule_weights(rule, k_min: int | None):
    def table(lo: int, hi: int) -> np.ndarray:
        start = lo if k_min is None else max(lo, k_min)
        out = np.zeros(max(hi - lo + 1, 0))
        if start <= hi:
            out[start - lo :] = _rule_table(rule, start, hi)
        return out

    return table


def _diagonal_weights(default: complex, overrides) -> object:
    def table(lo: int, hi: int) -> np.ndarray:
        out = np.full(max(hi - lo + 1, 0), default, dtype=complex)
        for k, v in overrides:
            if lo <= k <= hi:
                out[k - lo] = v
        return out

    return table


def _scaled(weights, c: complex):
    return lambda lo, hi: c * weights(lo, hi)


def _compile(spec: OperatorSpec) -> tuple[int, tuple[_Term, ...], int | None]:
    """(rows, stencil terms, lowest index or None) of an infinite banded spec."""
    if isinstance(spec, ScalarMultiple):
        rows, terms, floor = _compile(spec.inner)
        if spec.scalar != 1:
            terms = tuple(_Term(t.dst, t.src, t.offset, _scaled(t.weights, spec.scalar)) for t in terms)
        return rows, terms, floor
    if isinstance(spec, BackwardShift) and isinstance(spec.universe, NatFromOne):
        return 1, (_Term(0, 0, -1, _rule_weights(spec.rule, 2)),), 1  # e_1 -> 0
    if isinstance(spec, ForwardShift) and isinstance(spec.universe, NatFromOne):
        return 1, (_Term(0, 0, +1, _rule_weights(spec.rule, 1)),), 1
    if isinstance(spec, BilateralShift):
        return 1, (_Term(0, 0, +1 if spec.forward else -1, _rule_weights(spec.rule, None)),), None
    if isinstance(spec, Diagonal) and not isinstance(spec.universe, FiniteRange):
        floor = 1 if isinstance(spec.universe, NatFromOne) else None
        return 1, (_Term(0, 0, 0, _diagonal_weights(spec.default, spec.overrides)),), floor
    if isinstance(spec, DuplicatingShift):
        copy_first = _diagonal_weights(0j, ((1, 1.0 + 0j),))
        return 1, (_Term(0, 0, +1, _rule_weights(Explicit((), 1.0), 1)), _Term(0, 0, 0, copy_first)), 1
    if isinstance(spec, BlockTZ):
        rows, inner, floor = _compile(spec.inner)
        if rows != 1:
            raise UnsupportedVariantError("BlockTZ over a pair operator is not supported")
        minus_one = _diagonal_weights(-1.0 + 0j, ())
        top = [_Term(0, src, t.offset, t.weights) for src in (0, 1) for t in inner]
        bottom = [_Term(1, 1, t.offset, t.weights) for t in inner]
        return 2, (*top, _Term(0, 1, 0, minus_one), *bottom), floor  # top += T bottom - bottom
    raise UnsupportedVariantError(f"no orbit engine for {type(spec).__name__}")


class _WindowOrbit(_Orbit):
    """Moving dense window for infinite specs, stepped by their compiled banded stencil.

    A one-term stencil (a shift or a diagonal) translates the window by its
    offset and keeps its width; a stencil with several offsets grows it.
    Weights vanish at sources whose image leaves the universe, so a moving
    window needs no per-step index checks; a growing one drops the columns
    past the universe's lowest index.  A diagonal (one term at offset 0) is a
    fixed frame whose step operator is its weight table over the window.

    A one-term shift (offset d = +-1) is a translating frame.  Read its window
    in the direction of motion: travel coordinate u is the coordinate
    ``trail + d u``, where ``trail`` is the end of the initial window that the
    motion leaves behind.  Every step moves u to u + 1, so with W(u) the
    product of the weights at travel coordinates 0 .. u-1,

        (T^n x)(u) = x(u - n) W(u) / W(u - n),

    and T^n x is x / W times the window W[n : n + width]: a telescoping
    product, read without stepping.  W is built once, in extended precision,
    over the travel coordinates the horizon can visit.  A backward shift on N
    has weight 0 at the floor, so W is zero past it: entries that cross the
    floor vanish, and the orbit dies at the step where the last one crosses,
    as it does when stepped.  The table is used only if the ratios of its
    live part, times the entries of x, stay normal doubles (so no step of
    the stepping loop overflows or underflows either); otherwise the window
    steps.  A translating frame keeps no weight tables: even ``step`` moves
    along W.
    """

    def __init__(self, spec: OperatorSpec, x, n_max: int):
        self.rows, self.terms, self.floor = _compile(spec)
        self.universe = x.universe
        self.lo, self.vals = _dense(x)
        self.horizon = n_max
        offsets = [t.offset for t in self.terms]
        self.low_off, self.high_off = min(offsets), max(offsets)
        width = self.vals.shape[1]
        # Sources visited by n_max steps; tables cover them once.  Inside the universe
        # only: a one-term window keeps its width, so until the orbit dies up to
        # width - 1 of its columns hang past the floor, where the weights are zero.
        self.t_lo = self.lo + max(n_max - 1, 0) * min(self.low_off, 0)
        if self.floor is not None:
            self.t_lo = max(self.t_lo, self.floor - max(width - 1, 0))
        t_hi = self.lo + width - 1 + max(n_max - 1, 0) * max(self.high_off, 0)
        self.tables = [t.weights(self.t_lo, t_hi) for t in self.terms]
        self.single = len(self.terms) == 1
        # Shifts die only by leaving the universe; other stencils can zero a state anywhere.
        self.can_die = not self.single or offsets[0] == 0 or (self.floor is not None and offsets[0] < 0)
        self.dead = width == 0
        self.fixed = self.single and offsets == [0]
        if self.fixed:
            self._op = self.tables[0][:width]
        elif self.single and width:
            self.translating = self._product_table(n_max)

    def _product_table(self, n_max: int) -> bool:
        """Build the travel table W and x / W of a translating frame; False (keep stepping) if they leave double range."""
        d, width, table = self.low_off, self.vals.shape[1], self.tables[0]
        trail = self.lo if d > 0 else self.lo + width - 1
        death = None if self.floor is None or d > 0 else trail - self.floor + 1  # the last column crosses
        length = (n_max if death is None else min(n_max, death)) + width
        s = trail - self.t_lo
        weights = table[s : s + length - 1] if d > 0 else table[s - (length - 2) : s + 1][::-1]
        with np.errstate(over="ignore", invalid="ignore"):
            wt = _running_products(weights[None])[0]  # inf past double range
            mags = np.abs(wt[:death])
            top, bottom = mags.max(), mags.min()
            xs = np.abs(self.vals[0][self.vals[0] != 0])
            if not (0 < bottom and top < np.inf and not wt[len(mags) :].any()):
                return False
            if xs.max() * (top / bottom) > _DOUBLE.max or xs.min() * (bottom / top) < _DOUBLE.tiny:
                return False
        self._src = (self.vals[0] if d > 0 else self.vals[0, ::-1]) / wt[:width]
        self._wt, self._trail, self._death = wt, trail, death
        self.tables = None  # W replaces them: even a single step reads W
        self._windows = np.lib.stride_tricks.sliding_window_view(wt, width)  # row n: W[n : n + width]
        return True

    def _travel_states(self, first: int, count: int) -> np.ndarray:
        """States first, first + 1, ... of a translating frame in travel order, (m, width) with 1 <= m <= count."""
        m = min(count, max(_STACK_BYTES // (16 * len(self._src)), 1), len(self._windows) - first)
        if m < 1:
            raise ParameterError(f"the orbit was built for {self.horizon} steps")
        return self._windows[first : first + m] * self._src

    def step(self) -> None:
        if self.translating:
            self.advance(self.steps + 1)
            return
        self.steps += 1
        if self.dead:
            return
        vals = self.vals
        width = vals.shape[1]
        s = self.lo - self.t_lo
        if self.single:
            self.vals = vals * self.tables[0][s : s + width]
            self.lo += self.low_off
        else:
            new = np.zeros((self.rows, width + self.high_off - self.low_off), dtype=complex)
            for term, table in zip(self.terms, self.tables):
                c = term.offset - self.low_off
                new[term.dst, c : c + width] += vals[term.src] * table[s : s + width]
            self.lo += self.low_off
            if self.floor is not None and self.lo < self.floor:
                new = new[:, self.floor - self.lo :]  # entries past the boundary carry zero weight
                self.lo = self.floor
            self.vals = new
        if self.can_die and not self.vals.any():
            self.dead = True


class _MatrixOrbit(_Orbit):
    """Dense matrix for finite-dimensional specs, a fixed frame; pairs stack as [top; bottom]."""

    lo = 1
    fixed = True

    def __init__(self, spec: OperatorSpec, x, n_max: int):
        self.matrix = self._op = to_matrix(spec)
        self.universe = spec_universe(spec)
        self.horizon = n_max
        self.rows = 2 if isinstance(x, PairVec) else 1
        self.vals = _dense(x, 1, self.matrix.shape[0] // self.rows)[1]

    def step(self) -> None:
        self.vals = (self.matrix @ self.vals.ravel()).reshape(self.rows, -1)
        self.steps += 1


def make_orbit(spec: OperatorSpec, x, n_max: int):
    """Exact engine for T^k x, k <= n_max: a matrix loop for finite specs, a banded window otherwise."""
    if expects_pair(spec) != isinstance(x, PairVec):
        kind = "ordered pairs of vectors" if expects_pair(spec) else "plain sparse vectors"
        raise DomainError(f"this operator acts on {kind}")
    if x.universe != spec_universe(spec):
        raise DomainError(f"vector universe {x.universe} does not match operator universe {spec_universe(spec)}")
    if spec_dim(spec) is not None:
        return _MatrixOrbit(spec, x, n_max)
    return _WindowOrbit(spec, x, n_max)


def shift_direction(spec: OperatorSpec) -> int | None:
    """Offset (+1 or -1) of an infinite weighted shift, seen through scalars and BlockTZ; else None."""
    if spec_dim(spec) is not None:
        return None
    rows, terms, _ = _compile(spec)
    offsets = {t.offset for t in terms if t.dst == t.src == rows - 1}
    return offsets.pop() if len(offsets) == 1 and 0 not in offsets else None


# ---------------------------------------------------------------------------
# Cesàro sums


class CesaroSum:
    """Kahan-compensated sums sum_{k<=n} lam^k T^k x over a grid of lam, in one orbit pass.

    A single Cesàro mean is the one-point grid ``[1]``.  Once the orbit state
    is exactly zero the sums freeze: later means are the frozen sums over n+1.
    On a translating frame and a unimodular grid the sums at n are written
    straight off the frame's product table (see ``_write``), with no pass.
    """

    def __init__(self, spec: OperatorSpec, x, n_max: int, lams=None):
        self.orbit = make_orbit(spec, x, n_max)
        self.unit = lams is None
        self.lams = np.ones(1, dtype=complex) if lams is None else np.asarray(lams, dtype=complex)
        self.lam_pow = np.ones(len(self.lams), dtype=complex)
        self.lo, hi = self.orbit.span(n_max)
        self.sum = np.zeros((len(self.lams), self.orbit.rows, max(hi - self.lo + 1, 0)), dtype=complex)
        self.n = self.stepped = 0
        self._lam_run = None
        self._live = slice(None)  # columns that can be nonzero; a translating frame narrows it
        self.closed = self.orbit.translating and bool(np.all(np.abs(np.abs(self.lams) - 1.0) <= 1e-12))
        if self.closed:  # written, never accumulated: no compensation
            self._prefix_sums()
            state_cols, self._live = self._overlap()
            self.sum[:, :, self._live] = self.orbit.vals[:, state_cols]
        else:
            self.comp = np.zeros_like(self.sum)
            self._add()

    def _prefix_sums(self) -> None:
        """Prefix sums of lam^-j x(j) / W(j) over the window of x, and the gains lam^u W(u) (travel coordinates)."""
        o = self.orbit
        terms = o._src[None]
        self._gains = o._wt[None]
        if not self.unit:
            lams = self.lams[:, None].astype(np.clongdouble)
            inverse = np.ones((len(lams), len(o._src)), dtype=np.clongdouble)
            inverse[:, 1:] = 1 / lams
            terms = terms * np.cumprod(inverse, axis=1)
            # lam^u, relative to the window's trailing end
            self._gains = _running_products(np.broadcast_to(lams, (len(lams), len(o._wt) - 1)))
            self._gains *= o._wt
        self._prefix = np.zeros((len(terms), terms.shape[1] + 1), dtype=np.clongdouble)
        np.cumsum(terms, axis=1, out=self._prefix[:, 1:])
        self._rounded = self._prefix.astype(complex)

    def _write(self, k: int) -> None:
        """Write the sums over steps 0..k of a translating frame.

        In travel coordinates (see ``_WindowOrbit``) lam^m (T^m x)(u) is
        lam^u W(u) lam^-j x(j) / W(j) with j = u - m, so

            (sum_{m<=k} lam^m T^m x)(u) = lam^u W(u) sum_{j in [u-k, u]} lam^-j x(j) / W(j):

        a difference of two prefix sums over the window of x, or all of it
        where [u - k, u] covers the window.  Prefix sums, powers of lam and
        the gains lam^u W(u) are taken in extended precision and rounded, so
        the cancellation in a difference stays far below double rounding
        (Higham, Accuracy and Stability of Numerical Algorithms, ch. 4).
        """
        o = self.orbit
        width, prefix, gains = len(o._src), self._prefix, self._gains
        start = o._trail - self.lo  # accumulator column of travel coordinate 0
        if o.low_off > 0:
            top = width - 1 + k
            self._live = slice(start, start + top + 1)
            out = self.sum[:, 0, self._live]
        else:
            top = min(width - 1 + k, start)  # not past the floor
            self._live = slice(start - top, start + 1)
            out = self.sum[:, 0, self._live][:, ::-1]  # travel order
        head = min(width - 1, top + 1)  # u < head: the window [u - k, u] ends inside x
        tail = min(max(k + 1, width - 1), top + 1)  # u >= tail: it starts inside x
        full = min(head, k + 1)  # u < full: it starts before x
        # differences of prefix sums are taken in extended precision, products in double
        np.multiply(self._rounded[:, 1 : full + 1], gains[:, :full], out=out[:, :full])
        inside = prefix[:, full + 1 : head + 1] - prefix[:, full - k : head - k]
        np.multiply(inside.astype(complex), gains[:, full:head], out=out[:, full:head])
        np.multiply(self._rounded[:, -1:], gains[:, head:tail], out=out[:, head:tail])
        closing = prefix[:, -1:] - prefix[:, tail - k : top - k + 1]
        np.multiply(closing.astype(complex), gains[:, tail : top + 1], out=out[:, tail:])

    def _overlap(self) -> tuple[slice, slice]:
        """(state columns, accumulator columns) where the orbit window meets the sums."""
        o = self.orbit
        return _overlap(o.lo, o.vals.shape[1], self.lo, self.sum.shape[2])

    def _add(self) -> None:
        o = self.orbit
        if o.dead:
            return
        if self.unit:
            vals = o.vals[None]  # same shape as the sums: numpy skips broadcasting
        else:
            vals = self.lam_pow[:, None, None] * o.vals
            self.lam_pow = self.lam_pow * self.lams
        state_cols, cols = self._overlap()
        s = self.sum[:, :, cols]
        c = self.comp[:, :, cols]
        y = vals[..., state_cols] - c
        t = s + y
        c[...] = (t - s) - y
        s[...] = t

    def _add_block(self, states: np.ndarray) -> None:
        """Fold a fixed frame's block of states (m, rows * width) into the sums.

        A fixed frame fills the sums exactly.  On a grid the block is weighted
        by a (lams x m) power matrix, in chunks that keep it under the stack cap.
        """
        if self.unit:
            s, c = compensated_add(self.sum.ravel(), self.comp.ravel(), states)
            self.sum, self.comp = s.reshape(self.sum.shape), c.reshape(self.sum.shape)
            return
        if self._lam_run is None:
            chunk = max(_STACK_BYTES // (16 * len(self.lams)), 1)
            run = np.ones((len(self.lams), chunk + 1), dtype=complex)
            run[:, 1:] = self.lams[:, None]
            self._lam_run = np.cumprod(run, axis=1)  # lam^0 .. lam^chunk
        chunk = self._lam_run.shape[1] - 1
        for j in range(0, len(states), chunk):
            part = states[j : j + chunk]
            block = (self.lam_pow[:, None] * self._lam_run[:, : len(part)]) @ part
            self.sum, self.comp = _two_sum(self.sum, self.comp, block.reshape(self.sum.shape), 0.0)
            self.lam_pow = self.lam_pow * self._lam_run[:, len(part)]

    def advance_to(self, n: int) -> None:
        """Move the sums to index n (never backwards)."""
        orbit, k = self.orbit, self.stepped
        if self.closed:
            orbit.advance(n)
            k = orbit.steps
            if k != self.stepped:
                self._write(k)
        elif orbit.fixed:
            for states in orbit._blocks(n - k):
                self._add_block(states)
                k += len(states)
        else:
            while k < n and not orbit.dead:
                orbit.step()
                self._add()
                k += 1
        self.stepped, self.n = k, n

    def norms(self, p: float) -> np.ndarray:
        """||M_n(lam T) x||_p for every lam of the grid."""
        self.orbit.check_p(p)
        mags = np.abs(self.sum[..., self._live]).reshape(len(self.lams), -1)
        if self.stepped < self.n:  # frozen
            return _lp_norm(mags, p, axis=1) / (self.n + 1)
        return _lp_norm(mags / (self.n + 1), p, axis=1)

    def mean(self) -> np.ndarray:
        """M_n(T) x on the accumulator's coordinates (first grid point)."""
        return self.sum[0] * (1.0 / (self.n + 1))

    def state(self) -> np.ndarray:
        """The current orbit state on the accumulator's coordinates."""
        out = np.zeros(self.sum.shape[1:], dtype=complex)
        state_cols, cols = self._overlap()
        out[:, cols] = self.orbit.vals[:, state_cols]
        return out

    def gap(self, a: np.ndarray, b: np.ndarray, p: float) -> float:
        """||a - b||_p of two arrays on the accumulator's coordinates."""
        self.orbit.check_p(p)
        return float(_lp_norm(np.abs(a - b).ravel(), p))


def compensated_add(total, comp, values: np.ndarray):
    """(total, comp) after adding values[0] + values[1] + ... to a compensated running sum.

    ``comp`` is the running residual with the sign of a Kahan correction
    (the exact sum is total - comp).  Rows are summed in extended precision,
    ``_EXACT_ROWS`` at a time, so a run of equal rows sums exactly; each partial
    sum and its residual enter by a TwoSum update, which keeps ``total`` the
    correctly rounded sum.
    """
    for j in range(0, len(values), _EXACT_ROWS):
        exact = np.sum(values[j : j + _EXACT_ROWS], axis=0, dtype=np.clongdouble)
        hi = exact.astype(complex)
        total, comp = _two_sum(total, comp, hi, (exact - hi).astype(complex))
    return total, comp


def _two_sum(total, comp, hi, lo):
    """Add hi + lo (lo well below hi) to the sum total - comp, exactly up to the final rounding."""
    t = total + hi
    bb = t - total
    low = (lo + ((total - (t - bb)) + (hi - bb))) - comp  # total + hi == t + rounding error, exactly
    total = t + low
    return total, (total - t) - low


def lambda_mean_norms(spec: OperatorSpec, x, lams, checkpoints: list[int], p: float) -> np.ndarray:
    """||M_n(lam T) x||_p at each checkpoint for every lam; shape (len(lams), len(checkpoints))."""
    acc = CesaroSum(spec, x, checkpoints[-1], lams)
    out = np.zeros((len(acc.lams), len(checkpoints)))
    for j, n in enumerate(checkpoints):
        acc.advance_to(n)
        out[:, j] = acc.norms(p)
    return out


# ---------------------------------------------------------------------------
# module operations


def power_apply(spec: OperatorSpec, x, n: int):
    """n-fold application T^n x; n = 0 returns x unchanged."""
    if n < 0:
        raise ParameterError("power must be >= 0")
    if n == 0:
        return x
    orbit = make_orbit(spec, x, n)
    orbit.advance(n)
    return orbit.to_sparse()


def _shift_sup_candidates(lowest: int, span: int) -> list[int]:
    """Start indices probed for the supremum: dense head plus dyadic tail."""
    out = list(range(lowest, lowest + 8))
    t = 8
    while t <= span:
        out.append(lowest + t)
        t *= 2
    return out


def _scan_products(rule, starts, n: int, monotone_shortcut: bool = False) -> float:
    """Max of the n-term weight products over [s, s + n) for the candidate starts s.

    With the shortcut enabled, a strictly decreasing head lets the scan jump
    to the final two (horizon) candidates only: power-ratio products are
    monotone in the start, so the supremum sits at the boundary.
    """
    best = 0.0
    values = []
    for s in starts:
        try:
            prod = weight_product(rule, s, n)
        except ParameterError:
            continue
        values.append(prod)
        best = max(best, prod)
        if monotone_shortcut and len(values) == 6 and all(a > b for a, b in zip(values, values[1:])):
            for tail in starts[-2:]:
                try:
                    best = max(best, weight_product(rule, tail, n))
                except ParameterError:
                    continue
            break
    return best


def _poly_sup(rule: PolyRatio, n: int, lowest: int | None) -> float:
    """sup over the integer starts s >= lowest (every s if None) of sqrt(p(s + n) / p(s)).

    f(s) = p(s + n) / p(s) is continuous and monotone between consecutive
    real breakpoints: the roots of f's numerator p'(s + n) p(s) - p(s + n) p'(s)
    and of p(s) and p(s + n).  Over the integers it therefore peaks at an
    integer next to a breakpoint, or at ``lowest``; each breakpoint adds its
    neighbours within 2 (the error of the computed roots).  At infinity f
    tends to 1, and on the far right, where p increases, it exceeds 1, so a
    limit never decides the supremum.
    """
    from numpy.polynomial import polynomial as P  # loaded only here: 5 ms of start-up

    p, q = rule.p.coefficients, rule.p.shifted(n).coefficients  # q(s) = p(s + n)
    numerator = P.polysub(P.polymul(P.polyder(q), p), P.polymul(q, P.polyder(p)))
    breaks = [P.polyroots(P.polytrim(numerator)), P.polyroots(p), P.polyroots(q)]
    starts = {0 if lowest is None else lowest}
    for c in np.concatenate(breaks).real:
        starts.update(range(math.floor(c) - 2, math.floor(c) + 4))
    s = np.array(sorted(t for t in starts if lowest is None or t >= lowest), dtype=float)
    return float(np.sqrt(rule.p(s + n) / rule.p(s)).max())


def _shift_power_norm(spec, n: int) -> float:
    """sup of the n-term weight products over the windows [s, s + n) that T^n maps from basis vectors."""
    rule = spec.rule
    bilateral = isinstance(spec, BilateralShift)
    lowest = 0 if bilateral else 2 if isinstance(spec, BackwardShift) else 1  # e_1 is killed by a backward shift
    if not bilateral and isinstance(spec.universe, FiniteRange):
        return _scan_products(rule, range(lowest, spec.universe.dim - n + lowest), n)
    if isinstance(rule, Explicit):
        tail = len(rule.values) + 1  # windows from here on, or ending before 1, hold tail weights only
        if bilateral:
            return _scan_products(rule, sorted({*range(1 - n, tail - n + 1), *range(1, tail + 1)}), n)
        return _scan_products(rule, range(lowest, max(lowest, tail) + 1), n)
    if isinstance(rule, PolyRatio):
        return _poly_sup(rule, n, None if bilateral else lowest)
    heads = _shift_sup_candidates(lowest, SHIFT_SUP_HORIZON)
    if not bilateral:
        return _scan_products(rule, heads, n, monotone_shortcut=True)
    starts = sorted(set(heads + [-s for s in heads]))
    return _scan_products(rule, starts if spec.forward else [s - n + 1 for s in starts], n)


def power_norm_exact(spec: OperatorSpec, n: int, p: float) -> float:
    """Exact ||T^n|| for shifts (any p), diagonals, and finite matrices (p=2).

    A shift's norm is the supremum of its n-term weight products over basis
    starts, each a telescoping closed form.  Explicit rules scan every start
    whose window meets the listed weights, plus one window of tail weights;
    polynomial ratios scan every start up to where the products turn
    monotone (see ``_poly_sup``); power ratios, whose products are monotone in
    the start, take a dense head of starts plus dyadic tail probes.
    """
    if n < 1:
        raise ParameterError("power must be >= 1")
    if p < 1:
        raise ParameterError(f"p must be >= 1, got {p}")
    if isinstance(spec, ScalarMultiple):
        return abs(spec.scalar) ** n * power_norm_exact(spec.inner, n, p)
    if isinstance(spec, Diagonal):
        candidates = [abs(v) for _, v in spec.overrides]
        if not (isinstance(spec.universe, FiniteRange) and len(spec.overrides) >= spec.universe.dim):
            candidates.append(abs(spec.default))
        return max(candidates) ** n
    if isinstance(spec, (BackwardShift, ForwardShift, BilateralShift)):
        return _shift_power_norm(spec, n)
    dim = spec_dim(spec)
    if dim is not None:
        if p != 2:
            raise ParameterError("operator norms of matrices are computed for p=2 only")
        with np.errstate(over="ignore", invalid="ignore"):  # an overflowing power has norm inf
            return largest_singular_value(np.linalg.matrix_power(to_matrix(spec), n))
    raise UnsupportedVariantError(
        f"no closed-form power norm for {type(spec).__name__}; use orbit probes for lower bounds"
    )


def orbit_norms(spec: OperatorSpec, x, p: float, n_max: int) -> NormSeq:
    """(n, ||T^n x||_p) for n = 0..n_max with incremental application.

    An orbit that overflows raises FloatingPointError naming the first n
    whose norm is not finite.
    """
    if n_max < 1:
        raise ParameterError("n_max must be >= 1")
    orbit = make_orbit(spec, x, n_max)
    values = np.zeros(n_max + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        values[0] = orbit.norm(p)
        norms = orbit.norms(p, n_max)
    values[1 : len(norms) + 1] = norms
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise FloatingPointError(f"||T^n x|| is not finite at n={bad[0]}: the orbit overflows")
    return NormSeq(tuple(enumerate(values.tolist())), "vector-orbit", p)


def cesaro_apply(spec: OperatorSpec, x, n: int):
    """Cesàro mean M_n(T) x = (1/(n+1)) sum_{k<=n} T^k x."""
    if n < 0:
        raise ParameterError("n must be >= 0")
    acc = CesaroSum(spec, x, n)
    acc.advance_to(n)
    return _as_vector(acc.orbit.universe, acc.lo, acc.mean())


def cesaro_operator_norm(spec: OperatorSpec, n: int, lam: complex = 1.0 + 0j) -> float:
    """||M_n(lam T)|| for finite-dimensional specs (largest singular value)."""
    if abs(abs(lam) - 1.0) > 1e-12:
        raise ParameterError("lam must be unimodular")
    if spec_dim(spec) is None:
        raise UnsupportedVariantError("cesaro_operator_norm needs a finite-dimensional spec")
    sweep = cesaro_operator_norm_sweep(spec, lam, [n])
    return sweep[0][1]


def cesaro_operator_norm_sweep(spec: OperatorSpec, lam: complex, ns) -> list[tuple[int, float]]:
    """Exact ||M_n(lam T)|| at each requested n: the one-point grid of ``lambda_operator_norms``."""
    ns = sorted(set(int(n) for n in ns))
    if not ns or ns[0] < 0:
        raise ParameterError("requested indices must be >= 0")
    return list(zip(ns, lambda_operator_norms(spec, [lam], ns)[0].tolist()))


def lambda_operator_norms(spec: OperatorSpec, lams, checkpoints: list[int]) -> np.ndarray:
    """Exact ||M_n(lam T)|| at sorted checkpoints n >= 0 for every lam; shape (len(lams), len(checkpoints)).

    One Kahan-compensated sweep accumulates the powers (lam A)^k for the whole
    grid; one batched largest singular value over the lam stack reads each
    checkpoint (inf once a mean holds a non-finite entry).
    """
    lams = np.asarray(lams, dtype=complex)
    a = to_matrix(spec)
    d = a.shape[0]
    nlam = len(lams)
    power = np.broadcast_to(np.eye(d, dtype=complex), (nlam, d, d)).copy()
    total = power.copy()
    comp = np.zeros_like(total)
    out = np.zeros((nlam, len(checkpoints)))
    pos = 0
    lam_a = lams[:, None, None] * a[None, :, :]
    with np.errstate(over="ignore", invalid="ignore"):  # overflowing means read as inf
        for k in range(checkpoints[-1] + 1):
            if k:
                power = lam_a @ power
                y = power - comp
                t = total + y
                comp = (t - total) - y
                total = t
            if checkpoints[pos] == k:
                out[:, pos] = largest_singular_value(total / (k + 1))
                pos += 1
    return out


def media_residual(spec: OperatorSpec, x, n: int, p: float) -> float:
    """Residual of T^n x/(n+1) = M_n(T) x - (n/(n+1)) M_{n-1}(T) x."""
    if n < 1:
        raise ParameterError("n must be >= 1")
    return media_residual_max(spec, x, n, p, from_n=n)


def media_residual_max(spec: OperatorSpec, x, n_max: int, p: float, from_n: int = 1) -> float:
    """Max residual of the mean identity over n in [from_n, n_max] (one orbit pass)."""
    if n_max < 1 or from_n < 1 or from_n > n_max:
        raise ParameterError("need 1 <= from_n <= n_max")
    acc = CesaroSum(spec, x, n_max)
    prev_mean = acc.mean()
    worst = 0.0
    for n in range(1, n_max + 1):
        acc.advance_to(n)
        mean = acc.mean()
        if n >= from_n:
            lhs = acc.state() * (1.0 / (n + 1))
            worst = max(worst, acc.gap(lhs, mean - prev_mean * (n / (n + 1)), p))
        prev_mean = mean
    return worst


def block_tz_power_check(inner: OperatorSpec, x: PairVec, n: int) -> float:
    """Residual between iterated BlockTZ powers and the commuting closed form.

    The blocks of [[T, T-I],[0, T]] commute, so the n-th power is
    [[T^n, n T^{n-1}(T-I)],[0, T^n]]; both routes are evaluated on x.
    """
    if n < 1:
        raise ParameterError("n must be >= 1")
    from .core import vec_add, vec_scale, vec_sub

    iterated = power_apply(BlockTZ(inner), x, n)
    top_n = power_apply(inner, x.top, n)
    bot_prev = power_apply(inner, x.bottom, n - 1)
    bot_n = apply(inner, bot_prev)
    closed_top = vec_add(top_n, vec_scale(n, vec_sub(bot_n, bot_prev)))
    closed = PairVec(closed_top, bot_n)
    return p_norm(vec_sub(iterated, closed), 2)
