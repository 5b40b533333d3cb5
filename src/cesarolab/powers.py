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
(``norms``, ``inners``) and the Cesàro sums read those blocks; a moving
window steps one state at a time.  A block is summed in extended precision
and folded in by a TwoSum update, so its sums stay correctly rounded.  The
operator-norm sweep ``lambda_operator_norms`` is the matrix counterpart: one
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
    ``_op``; every other engine steps one state at a time.
    """

    dead = False
    can_die = False  # whether a zero state is detected and ends the orbit
    fixed = False  # the state never moves, so blocks of steps come from a power stack
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
        if self.fixed:
            return _joined([_lp_norm(np.abs(s), p, axis=1) for s in self._blocks(count)], float)
        return self._walk(count, lambda: self.norm(p), float)

    def inners(self, y, count: int) -> np.ndarray:
        """<T^k x, y> for the next count steps; shorter when the orbit dies, ending at the zero state."""
        if self.fixed:
            ylo, yv = _dense(y)
            frame = np.zeros_like(self.vals)
            mine, theirs = _overlap(self.lo, frame.shape[1], ylo, yv.shape[1])
            frame[:, mine] = yv[:, theirs]
            yc = frame.ravel().conj()
            return _joined([s @ yc for s in self._blocks(count)], complex)
        return self._walk(count, lambda: self.inner_with(y), complex)

    def _walk(self, count: int, value, dtype) -> np.ndarray:
        """The stepping loop: value() after each of the next count steps, up to the zero state."""
        out = []
        while len(out) < count and not self.dead:
            self.step()
            out.append(value())
        return np.array(out, dtype=dtype)

    def _blocks(self, count: int):
        """Yield the next count states of a fixed frame, flattened and stacked (m, rows * width), m <= B.

        The first multi-step advance builds the power stack A^1 .. A^B once; B
        fills a 1 MiB cap and never exceeds the steps left to the horizon.  Each
        block is one numpy call.  The first all-zero state of an orbit that can
        die ends the block and the orbit.
        """
        while count > 0 and not self.dead:
            if self._stack is None and count == 1:
                self.step()
                states = self.vals.reshape(1, -1)
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
                self.vals = states[-1].reshape(self.rows, -1).copy()
                self.steps += len(states)
            count -= len(states)
            yield states


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
    """

    def __init__(self, spec: OperatorSpec, x, n_max: int):
        self.rows, self.terms, self.floor = _compile(spec)
        self.universe = x.universe
        self.lo, self.vals = _dense(x)
        self.horizon = n_max
        offsets = [t.offset for t in self.terms]
        self.low_off, self.high_off = min(offsets), max(offsets)
        width = self.vals.shape[1]
        # Sources visited by n_max steps; tables cover them once.
        self.t_lo = self.lo + max(n_max - 1, 0) * min(self.low_off, 0)
        t_hi = self.lo + width - 1 + max(n_max - 1, 0) * max(self.high_off, 0)
        self.tables = [t.weights(self.t_lo, t_hi) for t in self.terms]
        self.single = len(self.terms) == 1
        # Shifts die only by leaving the universe; other stencils can zero a state anywhere.
        self.can_die = not self.single or offsets[0] == 0 or (self.floor is not None and offsets[0] < 0)
        self.dead = width == 0
        self.fixed = self.single and offsets == [0]
        if self.fixed:
            self._op = self.tables[0][:width]

    def step(self) -> None:
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
    """

    def __init__(self, spec: OperatorSpec, x, n_max: int, lams=None):
        self.orbit = make_orbit(spec, x, n_max)
        self.unit = lams is None
        self.lams = np.ones(1, dtype=complex) if lams is None else np.asarray(lams, dtype=complex)
        self.lam_pow = np.ones(len(self.lams), dtype=complex)
        self.lo, hi = self.orbit.span(n_max)
        self.sum = np.zeros((len(self.lams), self.orbit.rows, max(hi - self.lo + 1, 0)), dtype=complex)
        self.comp = np.zeros_like(self.sum)
        self.n = self.stepped = 0
        self._lam_run = None
        self._add()

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
        if orbit.fixed:
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
        mags = np.abs(self.sum).reshape(len(self.lams), -1)
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
    for _ in range(n):
        if orbit.dead:
            break
        orbit.step()
    return orbit.to_sparse()


def _shift_sup_candidates(lowest: int, span: int) -> list[int]:
    """Start indices probed for the supremum: dense head plus dyadic tail."""
    out = list(range(lowest, lowest + 8))
    t = 8
    while t <= span:
        out.append(lowest + t)
        t *= 2
    return out


def _scan_products(rule, starts, window, monotone_shortcut: bool) -> tuple[float, int]:
    """Max weight product over candidate starts.

    With the shortcut enabled, a strictly decreasing head lets the scan jump
    to the final two (horizon) candidates only; the package's closed-form
    weight families have monotone products in the start index, so the
    supremum sits at the boundary.
    """
    best = 0.0
    best_j = starts[0] if starts else 0
    values = []
    scanned = 0
    for pos, j in enumerate(starts):
        start, count = window(j)
        try:
            prod = weight_product(rule, start, count)
        except ParameterError:
            continue
        values.append(prod)
        scanned += 1
        if prod > best:
            best = prod
            best_j = j
        if monotone_shortcut and scanned == 6 and all(a > b for a, b in zip(values, values[1:])):
            for tail_j in starts[-2:]:
                t_start, t_count = window(tail_j)
                try:
                    t_prod = weight_product(rule, t_start, t_count)
                except ParameterError:
                    continue
                if t_prod > best:
                    best = t_prod
                    best_j = tail_j
            break
    return best, best_j


def _shift_power_norm(spec, n: int) -> tuple[float, int]:
    """(sup weight product over basis starts, attaining start index)."""
    shortcut = isinstance(spec.rule, (PowerRatio, PolyRatio))
    if isinstance(spec, BackwardShift):
        if isinstance(spec.universe, FiniteRange):
            starts = list(range(n + 1, spec.universe.dim + 1))
            shortcut = False
        else:
            starts = _shift_sup_candidates(n + 1, SHIFT_SUP_HORIZON)
        window = lambda j: (j - n + 1, n)  # noqa: E731  sources j-n+1 .. j
    elif isinstance(spec, ForwardShift):
        if isinstance(spec.universe, FiniteRange):
            starts = list(range(1, spec.universe.dim - n + 1))
            shortcut = False
        else:
            starts = _shift_sup_candidates(1, SHIFT_SUP_HORIZON)
        window = lambda j: (j, n)  # noqa: E731
    elif isinstance(spec, BilateralShift):
        heads = _shift_sup_candidates(0, SHIFT_SUP_HORIZON)
        starts = sorted(set(heads + [-s for s in heads]))
        shortcut = False
        if spec.forward:
            window = lambda j: (j, n)  # noqa: E731
        else:
            window = lambda j: (j - n + 1, n)  # noqa: E731
    else:
        raise UnsupportedVariantError(f"not a shift: {spec!r}")
    return _scan_products(spec.rule, starts, window, shortcut)


def power_norm_exact(spec: OperatorSpec, n: int, p: float) -> float:
    """Exact ||T^n|| for shifts (any p), diagonals, and finite matrices (p=2).

    Shift norms are suprema of n-term weight products over basis starts,
    evaluated through telescoping closed forms at a dense head of start
    indices plus dyadic tail probes (the package's weight families attain
    the supremum at the boundary).
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
        value, _ = _shift_power_norm(spec, n)
        return value
    dim = spec_dim(spec)
    if dim is not None:
        if p != 2:
            raise ParameterError("operator norms of matrices are computed for p=2 only")
        a = to_matrix(spec)
        return largest_singular_value(np.linalg.matrix_power(a, n))
    raise UnsupportedVariantError(
        f"no closed-form power norm for {type(spec).__name__}; use orbit probes for lower bounds"
    )


def orbit_norms(spec: OperatorSpec, x, p: float, n_max: int) -> NormSeq:
    """(n, ||T^n x||_p) for n = 0..n_max with incremental application."""
    if n_max < 1:
        raise ParameterError("n_max must be >= 1")
    orbit = make_orbit(spec, x, n_max)
    values = np.zeros(n_max + 1)
    values[0] = orbit.norm(p)
    norms = orbit.norms(p, n_max)
    values[1 : len(norms) + 1] = norms
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
