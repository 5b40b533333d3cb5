"""Iterated powers, exact power norms, Cesàro means, and the mean identity.

Every orbit is a frame, whose states, norms, pairings and Cesàro sums are
read off a closed form: a matrix or a diagonal (and BlockTZ over it) is a
fixed frame, read off one held table of its operator (``_table``); a
weighted shift is a translating frame read off one cumulative product table,
whose lam-batched norms come in closed form off lam-free magnitude tables;
the duplicating shift is the unweighted shift plus a plateau; BlockTZ
composes its inner frame (``_WindowOrbit``).  No orbit steps, and no table
saturates: a product table is held as double mantissas times exact powers of
two, so a state or a sum reads inf or 0 only where its exact value leaves
double range.  Sums cover a grid of unimodular lam at once, a mean being the
one-point grid [1].

A fixed frame's table is the one extended power builder, ``_power_stack``:
A^1 .. A^S, S set by one size rule (the extended powers fill a 1 MiB cap),
rounded once for the orbit states and ``pb``'s norms, and summed into
residue prefix sums of a period L.  Its sums, the matrix sweeps
(``lambda_operator_norms``) and ``pb`` past S are one fold (``_Fold``):
class sums of a^m v, carried past the table by its extended last power and
never restarted from a rounded state, read on a roots-of-unity grid through
one inverse DFT at the exact roots; any other lam is the one-point grid of
lam T, summed apart (``_lambda_parts``, ``lambda_mean_norms``).  One power
table per period is held by the bytes it is built from (``_held``), so a
command builds each once; a table depends on nothing else, so holding never
changes a result.  Nothing else is held: a written sum builds its own gain
table (lam s)^u W(u) the way W is built (``CesaroSum._write_tables``).
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
    log_weight_product,
    p_norm,
    scale,
    spec_dim,
    spec_universe,
    to_matrix,
    vec_sub,
    weight_product,
)

__all__ = [
    "NormSeq",
    "power_apply",
    "power_norm_exact",
    "power_norms_exact",
    "orbit_norms",
    "orbit_norm_array",
    "cesaro_apply",
    "cesaro_operator_norm",
    "media_residual",
    "media_residual_max",
    "block_tz_power_check",
    "largest_singular_value",
    "matrix_exponential",
    "make_orbit",
    "drop_tables",
    "fixed_frame",
    "shift_direction",
    "CesaroSum",
    "lambda_mean_norms",
    "lambda_grid",
    "lambda_operator_norms",
]

_STACK_BYTES = 2**20  # cap on a fixed frame's extended powers A^1 .. A^S: the one size rule, it fixes S (``_table``)
_GATHER_BYTES = 2**17  # cap on the residue sums gathered for one chunk of checkpoints
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

    def values(self) -> list[float]:
        return [v for _, v in self.entries]


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


def _norm1(stack: np.ndarray) -> np.ndarray:
    """Induced 1-norm (largest column sum) of each matrix in a stack."""
    return np.max(np.sum(np.abs(stack), axis=-2), axis=-1, initial=0.0)


def matrix_exponential(a, tol: float = 1e-14) -> np.ndarray:
    """exp(a) of a matrix or of each matrix in a stack (..., d, d): scaling and squaring over a Taylor series.

    Each matrix takes its own squaring count s (||a||_1 / 2^s <= 1/2) and
    stops its own series once a geometric bound on the tail is below tol
    relative to the sum, so a converged matrix takes no further terms.  A
    matrix with a non-finite entry gives NaN.
    """
    a = np.asarray(a, dtype=complex)
    stack = a.reshape(-1, *a.shape[-2:])
    norm1 = _norm1(stack)
    # libm's log2: numpy's vector log2 can round the other way next to a power of two
    squarings = np.array([math.ceil(math.log2(x)) + 1 if 0.5 < x < math.inf else 0 for x in norm1], dtype=int)
    scale = 2.0**squarings
    b = stack / scale[:, None, None]
    nb = norm1 / scale
    total = np.broadcast_to(np.eye(a.shape[-1], dtype=complex), stack.shape).copy()
    term = total.copy()
    finite = np.isfinite(norm1)
    total[~finite] = np.nan
    live = np.flatnonzero(finite)  # the matrices whose series is still summing
    for k in range(1, 200):
        if not live.size:
            break
        term[live] = term[live] @ b[live] / k
        total[live] = total[live] + term[live]
        q = nb[live] / (k + 1)
        with np.errstate(divide="ignore", invalid="ignore"):  # no geometric tail bound while q >= 1
            tail = _norm1(term[live]) * q / (1.0 - q)
        live = live[~((q < 1.0) & (tail <= tol * np.maximum(_norm1(total[live]), 1.0)))]
    with np.errstate(over="ignore", invalid="ignore"):  # a square past double range reads inf or NaN
        for s in range(1, int(squarings.max(initial=0)) + 1):
            due = np.flatnonzero(squarings >= s)
            total[due] = total[due] @ total[due]
    return total.reshape(a.shape)


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

    For p > 1 the powers can underflow or overflow: a norm below
    (tiny / eps)^(1/p), where powers of the magnitudes lose bits as subnormals,
    or inf while the largest magnitude is finite and nonzero, is recomputed on
    the magnitudes divided by that maximum.  Every other norm is the plain sum.
    """
    if p == 1:
        return np.sum(mags, axis=axis)
    if p == 2:
        norm = np.sqrt(np.sum(mags * mags, axis=axis))
    else:
        norm = np.sum(mags**p, axis=axis) ** (1.0 / p)
    small = (_DOUBLE.tiny / _DOUBLE.eps) ** (1.0 / p)
    if axis is not None:
        redo = np.flatnonzero((norm < small) | np.isinf(norm))
        if redo.size:
            top = np.max(mags[redo], axis=1, initial=0.0)
            fine = (0 < top) & (top < math.inf)  # rows that hold an inf or only zeros keep their norm
            redo, top = redo[fine], top[fine]
            norm[redo] = _lp_norm(mags[redo] / top[:, None], p, axis=1) * top  # each between 1 and the row's width
        return norm
    if small <= norm < math.inf:  # plain comparisons: a single norm is taken once per orbit step
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


def _power_stack(op: np.ndarray, size: int, period: int = 1) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(op^1 .. op^size rounded to double, the residue prefix sums of the extended powers for period, the extended
    op^size, which carries a reader past the stack) of a matrix or a stack of 2 x 2 blocks (matrix powers) or a weight
    vector (elementwise powers): the one builder of extended powers, which ``_table`` holds.

    Built by doubling, stack[k : 2k] = stack[:k] op^k, in extended precision:
    log2(size) numpy calls fill it, and each power, rounded once to double, is
    as accurate as one step (in double, powers that share a factor op^k would
    share its rounding error).  The doubling stops at a dead power: one that
    is all zero, as every later power is (the zeroed buffer holds them), or
    that has no finite entry, whose later powers are filled as NaN.  It is
    found at the first block whose last power is dead.  A stack of 2 x 2
    BlockTZ blocks qualifies too: their lower-left 0 stays finite only while
    the powers do, as a product with an infinite factor makes it 0 inf = NaN.
    The residue sums are that extended stack, built inside a residue table
    (``_Fold``, op^0 held as 0) and summed over its rows in place.
    """
    mul = np.matmul if op.ndim >= 2 else np.multiply
    sums = np.zeros(((size + period) // period + 1, period, *op.shape), dtype=np.clongdouble)
    stack = sums.reshape(-1, *op.shape)[period + 1 : period + 1 + size]
    stack[0] = op
    k = 1
    while k < size:
        m = min(k, size - k)
        mul(stack[:m], stack[k - 1], out=stack[k : k + m])
        k += m
        if not (stack[k - 1].any() and np.isfinite(stack[k - 1]).any()):
            block = stack[k - m : k].reshape(m, -1)
            dead = k - m + int(np.argmax(~block.any(axis=1) | ~np.isfinite(block).any(axis=1)))
            stack[dead + 1 :] = np.nan if stack[dead].any() else 0
            break
    rounded, last = stack.astype(complex), stack[-1].copy()
    np.cumsum(sums, axis=0, out=sums)
    return rounded, sums, last


_held: dict = {}  # ("stack", L): (key, table), the last power table of each period (``_table``)


def drop_tables() -> None:
    """Drop the held power tables (``_table``) as a command ends."""
    _held.clear()


def _table(op: np.ndarray, period: int = 1) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ``_power_stack`` of a fixed frame's operator for period (orbit states read period 1's rounded stack), held:
    the one reader of extended powers.  One size rule: the extended op^1 .. op^S fill ``_STACK_BYTES`` (S >= 1),
    whatever the horizon, so a table depends on the operator, the period and the cap alone, and holding it never
    changes a result.  One table is held per period (``_held``), keyed by the operator's shape and bytes, so readers
    that alternate periods within a command (``cb``, the ladders and ``pb`` 1, ``uk`` L) build each once; another
    operator's table of that period is dropped before the new one is built.  A caller reads the table returned, never
    the holder, which another thread may change."""
    size = max(_STACK_BYTES // (32 * op.size), 1)
    name, key = ("stack", period), (size, op.shape, op.tobytes())
    held = _held.get(name)
    if held is None or held[0] != key:
        _held.pop(name, None)
        with np.errstate(over="ignore", invalid="ignore"):  # an overflowing power reads inf
            held = _held[name] = key, _power_stack(op, size, period)
    return held[1]


class _Fold:
    """The extended class sums B_c(k) = sum_{m <= k, m = c mod L} a^m v of a flat state v, or of the identity (v None),
    shape (L, *v.shape), off the held table of a for period L (``_table``): the one fold of a residue table into sums
    (``CesaroSum``, ``_residue_norms``), whose carry also reads powers past the stack (``_matrix_power_norms``).

    The table (``_power_stack``) holds a^s at flat position L + s (zero at s = 0) in rows of L, summed over its rows,
    so R_r(t), the sum of a^s over s <= t, s = r mod L, sits at t + L - (t - r) mod L, for t up to S.  From
    base = B(start) and P v = a^start v, checkpoint k in [start, start + S] reads base + R(k - start) P v, class c from
    R's class (c - start) mod L, as S need not be a multiple of L; a block moves base += R(S) P v, then
    P v <- a^S P v with the extended a^S, so no block restarts from a rounded state.  a^0 v opens class 0.
    """

    def __init__(self, op: np.ndarray, period: int, v: np.ndarray | None = None):
        self.stack, self.table, self.last = _table(op, period)
        self.size, self.start = len(self.stack), 0
        self.carry = None if v is None else v.astype(np.clongdouble)  # P v; the identity's first block takes no product
        self.base = np.zeros((period, *(op.shape if v is None else v.shape)), dtype=np.clongdouble)
        self.base[0] = np.eye(len(op)) if v is None else v

    def reach(self, k: int) -> None:
        """Carry the fold to the block of checkpoint k: start < k <= start + S, or k <= S in the first block."""
        while self.start + self.size < k:
            self.base = self.at(np.array([self.start + self.size]))[0]
            self.carry = self.last if self.carry is None else _apply_powers(self.last, self.carry, self.last.ndim)
            self.start += self.size

    def at(self, ks: np.ndarray) -> np.ndarray:
        """B(k) for the sorted checkpoints ks, carried to the block of ks[0], for those of ks in that block (the
        first len(result))."""
        self.reach(ks[0])
        period = self.table.shape[1]
        t = ks[: np.searchsorted(ks, self.start + self.size, side="right"), None] - self.start
        sums = self.table.reshape(-1, *self.table.shape[2:])[t + period - (t - np.arange(period) + self.start) % period]
        if self.carry is not None:
            sums = _apply_powers(sums, self.carry, self.last.ndim)
        sums += self.base
        return sums


def _apply_powers(powers: np.ndarray, x: np.ndarray, ndim: int) -> np.ndarray:
    """Powers (..., *op.shape) of an operator with ndim axes applied to a flat state x (rows * width), shape
    (..., x.size): matrix powers in one product over every leading axis (one gemv for a block of states), which also
    takes a matrix right-hand side x (rows * width, k); a weight vector's elementwise; 2 x 2 blocks on the rows."""
    lead = powers.shape[: powers.ndim - ndim]
    if ndim == 2:
        return (powers.reshape(-1, len(x)) @ x).reshape(*lead, *x.shape)
    rows = x.reshape(-1, powers.shape[-ndim])  # (top; bottom) under 2 x 2 blocks
    out = powers * x if ndim == 1 else np.einsum("...jik,kj->...ij", powers, rows)
    return out.reshape(*lead, -1)


class _Orbit:
    """Engine state: vals[r, j] is row r (0 plain or pair top, 1 pair bottom) at coordinate lo + j.

    ``norms`` and ``inners`` reduce the next ``count`` states in one call, off
    a fixed frame's power stack of its step operator ``_op`` or off a
    translating frame's product table (``_WindowOrbit``).
    """

    dead = False
    can_die = False  # whether a zero state is detected and ends the orbit
    fixed = False  # the state never moves, so blocks of steps come from a power stack
    translating = False  # states come from a product table
    steps = 0
    floor = None  # lowest index of the universe, when the window must not pass it
    d = 0  # coordinates the window moves per step: +-1 for a shift, 0 for a fixed frame
    _stack = None

    def span(self, n_max: int) -> tuple[int, int]:
        """Coordinates the state can occupy within n_max steps, inside the universe."""
        lo = self.lo + n_max * min(self.d, 0)
        hi = self.lo + self.vals.shape[1] - 1 + n_max * max(self.d, 0)
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
        """<T^k x, y> for the current k."""
        ylo, yv = _dense(y)
        mine, theirs = _overlap(self.lo, self.vals.shape[1], ylo, yv.shape[1])
        return complex(np.vdot(yv[:, theirs], self.vals[:, mine]))  # vdot conjugates its first argument

    def norms(self, p: float, count: int) -> np.ndarray:
        """||T^k x||_p for the next count steps; shorter when the orbit dies, ending at the zero state."""
        self.check_p(p)
        parts = []
        with np.errstate(over="ignore"):  # powers of entries past the root of double range: rescaled by _lp_norm
            for first, *block in self._states(count):
                states, plateau = _exact(*block)
                mags = np.abs(states)
                if plateau is not None:  # n - 1 equal entries per row
                    cells = np.arange(first - 1, first - 1 + len(states), dtype=float)[:, None]
                    mags = np.concatenate((mags, np.abs(plateau) * cells ** (1.0 / p)), axis=1)
                parts.append(_lp_norm(mags, p, axis=1))
        return _joined(parts, float)

    def inners(self, y, count: int) -> np.ndarray:
        """<T^k x, y> for the next count steps; shorter when the orbit dies, ending at the zero state.

        A pairing that is not finite raises FloatingPointError naming its k.
        """
        first = self.steps + 1
        with np.errstate(over="ignore", invalid="ignore"):
            if self.translating:
                values = self._frame_inners(y, count)
            else:
                ylo, yv = _dense(y)
                frame = np.zeros_like(self.vals)
                mine, theirs = _overlap(self.lo, frame.shape[1], ylo, yv.shape[1])
                frame[:, mine] = yv[:, theirs]
                values = _joined([s @ frame.ravel().conj() for _, s, _, _ in self._states(count)], complex)
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            raise FloatingPointError(f"<T^n x, y> is not finite at n={first + bad[0]}: the orbit overflows")
        return values

    def advance(self, n: int) -> None:
        """Move the orbit to step n (never backwards): a translating frame jumps, a fixed frame reads blocks of
        its power stack; a dead orbit stays where it died."""
        if not self.translating:
            for _ in self._states(n - self.steps):
                pass
            return
        n = n if self._death is None else min(n, self._death)
        if n != self.steps:
            self.steps, self.dead = n, n == self._death
            self._unhold()

    def step(self) -> None:
        self.advance(self.steps + 1)

    def _states(self, count: int):
        """Yield (first step, states (m, rows * width), plateau values or None, exponents or None) for the next count steps.

        A translating frame reads them off its product table, in travel order, up
        to its death index, as mantissas and the exponents that scale them
        (``_exact``); a fixed frame off the held power stack A^1 .. A^S of its
        operator (``_table``), S states a numpy call.  The first exactly zero
        state of an orbit that can die ends it.
        """
        while count > 0 and not self.dead:
            first, exps = self.steps + 1, None
            if self.translating:
                states, plateau, exps = self._travel_states(first, count)
            else:
                if self._stack is None:
                    self._stack = _table(self._op)[0]
                states, plateau = _apply_powers(self._stack[:count], self.vals.ravel(), self._op.ndim), None
            if self.can_die:
                zero = ~states.reshape(len(states), -1).any(axis=1) & (True if plateau is None else ~plateau.any(axis=1))
                if zero.any():
                    m = np.argmax(zero) + 1
                    states, plateau, self.dead = states[:m], None if plateau is None else plateau[:m], True
                    exps = None if exps is None else exps[:m]
            self.steps += len(states)
            count -= len(states)
            if self.translating:
                self.dead |= self.steps == self._death
                self._unhold()
            else:
                self.vals = states[-1].reshape(self.rows, -1).copy()
            yield first, states.reshape(len(states), -1), plateau, exps


def _scaled(z: np.ndarray, exps, inplace: bool = False) -> np.ndarray:
    """z times 2^exps (complex z, any precision), z itself where every exponent is 0: exact for normal numbers, else
    each part rounded once, to 0 or inf."""
    if not np.count_nonzero(exps):
        return z
    out = z if inplace else np.empty(np.broadcast_shapes(z.shape, np.shape(exps)), dtype=z.dtype)
    with np.errstate(over="ignore"):
        np.ldexp(z.real, exps, out=out.real)
        np.ldexp(z.imag, exps, out=out.imag)
    return out


def _exact(states: np.ndarray, plateau, exps):
    """(states, plateau values) from the mantissas and exponents of ``_Orbit._states``: the exponents (m or 1, 1, width)
    of states (m, rows * width), the plateau at column 0's; as they are when exps is None."""
    if exps is None:
        return states, plateau
    scaled = _scaled(states.reshape(len(states), -1, exps.shape[-1]), exps).reshape(states.shape)
    return scaled, None if plateau is None else _scaled(plateau, exps[:, 0, :1])


def _coarse(exps):
    """The multiples of 2^8 nearest (binary) exponents, so that 2^(e - _coarse(e)) lies within 2^+-128."""
    return (exps + 2**7) // 2**8 * 2**8


def _reference(z: np.ndarray, axes) -> np.ndarray:
    """``_coarse`` of the binary exponent of the largest |z| over axes (0 where those are all 0)."""
    return _coarse(np.frexp(np.abs(z).max(axis=axes))[1])


def _windows(table: np.ndarray, width: int) -> np.ndarray:
    """The read-only view whose row r is table[r : r + width]."""
    return np.lib.stride_tricks.as_strided(table, (len(table) - width + 1, width), table.strides * 2, writeable=False)


def _running_products(factors: np.ndarray, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Each row's running products 1, f0, f0 f1, ... of a (rows, count) array of factors, or of a (rows, 1) column
    repeated count times, as m 2^e: double mantissas m and int32 exponents e, shape (rows, count + 1) each.  Extended
    factors stay extended until the one rounding.

    e is the multiple of 2^8 nearest the running sum of log2|f| (stopping at
    +-2^29), and each factor gives up the exact power of two between
    consecutive exponents, so the running product of the rest, accumulated in
    extended precision 128 KiB at a time and rounded once to double as a power
    stack is, stays within about 2^+-128 and never saturates.  Powers of two
    scale every rounding exactly: m 2^e is the double the plain running product
    rounds to wherever that is normal, and a table within 2^+-128 of 1 has e = 0,
    held as a read-only view.
    """
    rows = len(factors)
    logs = np.abs(factors)
    np.log2(logs, out=logs, where=logs > 0)  # a zero factor adds no exponent: its products are 0
    if logs.shape[1] == count:
        sums = np.cumsum(logs, axis=1, out=logs)
    else:  # one column, repeated: the running sums are u log2|f|, taken only when they can leave (-2^7, 2^7)
        factors = np.broadcast_to(factors, (rows, count))
        sums = logs * np.arange(1, count + 1) if np.abs(logs).max() * count >= 2**7 else logs[:, :0]
    e = np.broadcast_to(np.int32(0), (rows, count + 1))
    if sums.max(initial=0) >= 2**7 or sums.min(initial=0) < -(2**7):
        e = np.pad(_coarse(np.clip(sums, -(2**29), 2**29)).astype(np.int32), ((0, 0), (1, 0)))
        factors = _scaled(factors.astype(np.result_type(factors, 1j)), -np.diff(e, axis=1))
    del logs, sums
    m = np.ones((rows, count + 1), dtype=complex)
    carry = np.ones((rows, 1), dtype=np.clongdouble)
    chunk = max(2**12 // rows, 1)
    for j in range(0, count, chunk):
        run = np.cumprod(np.concatenate((carry, factors[:, j : j + chunk]), axis=1), axis=1)
        m[:, j + 1 : j + run.shape[1]] = run[:, 1:]
        carry = run[:, -1:]
    return m, e


def _running_sums(terms: np.ndarray, exps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The running sums of terms 2^exps (extended terms in [0, 2), integer exponents) as s 2^peak, peak the running
    maximum of exps.  They are summed at z, peak rounded up to a multiple of 2^12, so no term within 2^-12000 of the
    largest so far loses a bit, and each run of one z is one extended cumulative sum, carried into the next run."""
    peak = np.maximum.accumulate(exps)
    z = -(-peak // 2**12) * 2**12
    sums = np.ldexp(terms, exps - z)
    starts = [0, *(np.flatnonzero(np.diff(z)) + 1)]
    for lo, hi in zip(starts, [*starts[1:], len(z)]):
        np.cumsum(sums[lo:hi], out=sums[lo:hi])
        if lo:
            sums[lo:hi] += np.ldexp(sums[lo - 1], z[lo - 1] - z[lo])
    return np.ldexp(sums, z - peak), peak


def _overlap(lo: int, width: int, other_lo: int, other_width: int) -> tuple[slice, slice]:
    """(own columns, other columns) where the windows [lo, lo + width) and [other_lo, other_lo + other_width) meet."""
    a = max(lo, other_lo)
    b = max(a, min(lo + width, other_lo + other_width))
    return slice(a - lo, b - lo), slice(a - other_lo, b - other_lo)


def _joined(parts: list, dtype) -> np.ndarray:
    return np.concatenate(parts) if parts else np.zeros(0, dtype=dtype)


def _frame_spec(spec: OperatorSpec) -> tuple[OperatorSpec, complex, complex | None, int]:
    """(T, s, kappa, d): c T acts as A = s T, c1 BlockTZ(c2 T) as [[A, A - kappa I], [0, A]] with s = c1 c2 and
    kappa = c1; T moves an entry d coordinates per step."""
    scalar, kappa = 1.0 + 0j, None
    while isinstance(spec, ScalarMultiple) or (isinstance(spec, BlockTZ) and kappa is None):
        if isinstance(spec, BlockTZ):
            kappa = scalar
        else:
            scalar *= spec.scalar
        spec = spec.inner
    if isinstance(spec, BlockTZ):
        raise UnsupportedVariantError("BlockTZ over a pair operator is not supported")
    if not isinstance(spec, (BackwardShift, ForwardShift, BilateralShift, Diagonal, DuplicatingShift)):
        raise UnsupportedVariantError(f"no orbit engine for {type(spec).__name__}")
    backward = isinstance(spec, BackwardShift) or (isinstance(spec, BilateralShift) and not spec.forward)
    return spec, scalar, kappa, 0 if isinstance(spec, Diagonal) else -1 if backward else 1


def _weight_table(base: OperatorSpec, lo: int, hi: int) -> np.ndarray:
    """Weights of a shift or a diagonal at source indices lo..hi; zero where the image leaves the universe."""
    if isinstance(base, Diagonal):
        out = np.full(max(hi - lo + 1, 0), base.default, dtype=complex)
        for k, v in base.overrides:
            if lo <= k <= hi:
                out[k - lo] = v
        return out
    start = max(lo, {BackwardShift: 2, ForwardShift: 1}.get(type(base), lo))  # a backward shift sends e_1 to 0
    out = np.zeros(max(hi - lo + 1, 0))
    if start <= hi:
        out[start - lo :] = _rule_table(base.rule, start, hi)
    return out


class _WindowOrbit(_Orbit):
    """A dense window over an infinite spec's base operator T (see ``_frame_spec``), read as a frame.

    A diagonal, or any base times a zero scalar, is a fixed frame: its step
    operator is its weights over the window, under BlockTZ the per-coordinate
    blocks [[a, a - kappa], [0, a]].

    A shift (offset d = +-1) is a translating frame.  With travel coordinate u
    at ``trail + d u`` (``trail``: the end of the window the motion leaves) and
    W(u) the product of the weights at travel 0 .. u-1, (A^n x)(u) =
    x(u - n) W(u) / W(u - n): state n is a = x / W times W[n : n + width].
    W is built once in extended precision over the steps asked for; past the
    floor of a backward shift on N it is zero, and the orbit dies there.  BlockTZ state
    n is (A^n x + n (A^n y - kappa A^{n-1} y), A^n y) since its blocks commute:
    on the window padded by one column behind the motion it is
    W[n - 1 : n + width] (a + n b), a = [0, x / W; 0, y / W],
    b = [0, y / W; 0] - kappa [y / W, 0; 0].

    The duplicating shift D = S + e_1 e_1^* is read on the unweighted shift S
    (W = 1): D^n v = S^n v + v(1) 1_[1, n].  Padded, the window of step n
    starts at cell n, so a = [v(1), v], and cells 1 .. n-1 hold one plateau
    value per row, affine in n under BlockTZ.  A scalar s makes state n
    s^(n-1) times the state with s folded into a: the rows of its windows.

    Range.  Every table (W, the powers s^u, the sums' gains) is held as
    W(u) = m(u) 2^e(u) (``_running_products``), and the sources a(j) = a'(j)
    2^-E(j), a'(j) = x(j) / m(j) and E(j) = e(j) (e(j - 1) padded), each
    column moved by a multiple of 2^8 to within 2^+-128 (b with a).  State n
    reads ldexp(m(n + j) a'(j), e(n + j) - E(j)), a product far inside double
    range, so (as a power of two scales exactly) it is the double that the
    plain double table gives wherever that is normal, and it reads inf or 0
    only where its exact value leaves double range: no table saturates, at any
    horizon.  With all exponents 0 nothing is scaled.  The one limit is a
    single window whose own weights span more than the extended exponent range
    (see ``CesaroSum``).  A state is read off the table only when ``vals`` or
    ``lo`` is (``_unhold``).
    """

    def __init__(self, spec: OperatorSpec, x, n_max: int):
        base, scalar, self.kappa, self.d = _frame_spec(spec)
        self.universe = x.universe
        self.lo, self.vals = _dense(x)
        self.rows, width = self.vals.shape
        self.horizon = n_max
        self.floor = 1 if isinstance(spec_universe(base), NatFromOne) else None
        self.dead = width == 0
        if self.dead:
            return
        if fixed_frame(spec):  # a diagonal, or A = 0, which moves nothing: a frame of zero weights
            self.d = 0
        elif isinstance(base, DuplicatingShift):
            return self._duplicating_frame(scalar, n_max)
        self.can_die = self.d == 0 or (self.floor is not None and self.d < 0)
        if self.d:
            return self._product_table(base, scalar, n_max)
        self.fixed = True
        a = np.zeros(width, dtype=complex) if scalar == 0 else scalar * _weight_table(base, self.lo, self.lo + width - 1)
        self._op = np.moveaxis(np.array([[a, a - self.kappa], [0 * a, a]]), -1, 0) if self.kappa is not None else a

    def _product_table(self, base: OperatorSpec, scalar: complex, n_max: int) -> None:
        """Build the travel table W and the sources of a shift."""
        d, width, pad = self.d, self.vals.shape[1], int(self.kappa is not None)
        trail = self.lo if d > 0 else self.lo + width - 1
        live = None if self.floor is None or d > 0 else trail - self.floor + 1  # W vanishes from here on
        death = None if live is None else live + pad
        length = (n_max if death is None else min(n_max, death)) + width

        def weights():  # at travel 0 .. length - 2, in travel order, the scalar folded in; zero past the floor
            w = _weight_table(base, trail, trail + length - 2) if d > 0 else _weight_table(base, trail - length + 2, trail)[::-1]
            return w if scalar == 1 else scalar * w

        wt, we = (t[0] for t in _running_products(weights()[None], length - 1))
        src = self.vals[:, ::d] / wt[:width]  # x / W, column j scaled by 2^e(j)
        if not pad:
            return self._frame(src, None, weights, wt, we, we[:width], trail, death, 0)
        exps = np.append(we[0], we[:width])  # column j holds x(j - 1) / W(j - 1)
        prev_y = _scaled(src[1], exps[:width] - we[:width])  # y / W, column j at column j's exponent
        self._frame(np.concatenate((np.zeros((self.rows, 1)), src), axis=1), prev_y, weights, wt, we, exps, trail, death, 1)

    def _duplicating_frame(self, scalar: complex, n_max: int) -> None:
        x = self.vals
        width = x.shape[1]
        first = x[:, 0] if self.lo == 1 else np.zeros(self.rows, dtype=complex)  # v(1) of each row
        a = scalar * np.concatenate((first[:, None], x), axis=1)  # s D^n v on the window of step n
        q = np.stack((scalar * first, 0 * first))  # plateau value q[0] + n q[1] of each row
        if self.kappa is not None:
            q[1, 0] = (scalar - self.kappa) * first[1]
        rows = max(n_max, 1)  # state 0 too has a window
        powers, exps = (t[0] for t in _running_products(np.full((1, 1), scalar), rows + width - 1))  # s^u, u < rows + width
        ones, zeros = np.ones(rows + width, dtype=complex), np.zeros(rows + width, dtype=np.int32)  # W = 1
        self._frame(a, None if self.kappa is None else x[1], lambda: np.ones(1), ones, zeros, zeros[: a.shape[1]], self.lo, None, 1)
        self._scalar, self._q = scalar, q if first.any() else None  # the sums' gains are (lam s)^u
        shape = (rows, a.shape[1])  # s^(n-1) for state n: row n - 1
        self._windows = np.broadcast_to(powers[:rows, None], shape)
        self._window_exps = np.broadcast_to(exps[:rows, None], shape) if exps.any() else None

    def _frame(self, a, prev_y, weights, wt, we, exps, trail, death, pad) -> None:
        """Hold a frame's sources a and, under BlockTZ, b = [y_n, 0] - kappa [y_{n-1}] from a's rows and prev_y, at
        the column exponents exps, each column moved to within 2^+-128 (see the class docstring), and weights(), which
        rebuilds its travel weights w, W's factors (one weight when all are 1), for the few sums that read them."""
        b = None if prev_y is None else np.stack((a[1] - self.kappa * np.append(prev_y, 0), np.zeros_like(a[1])))
        shift = _reference(a if b is None else np.concatenate((a, b)), 0)
        a, b, exps = _scaled(a, -shift), None if b is None else _scaled(b, -shift), exps - shift
        self._a, self._b, self._exps, self._weights, self._wt, self._we = a, b, exps, weights, wt, we
        self._trail, self._death, self._pad = trail, death, pad
        self._scalar, self._q = 1, None
        self._x0 = self.vals[:, :: self.d] if pad else None  # the initial state, in travel order, of a padded frame
        self._windows = _windows(wt, a.shape[1])  # row r: W[r : r + width]
        self._window_exps = _windows(we, a.shape[1]) if we.any() else None  # None: no state takes a block of exponents
        self.translating = True

    def _travel_states(self, first: int, count: int):
        """Mantissas of states first, first + 1, .. in travel order (m, rows, width), 1 <= m <= count, of their plateau
        values (m, rows) or None at column 0's exponent, and the exponents (m or 1, 1, width) that scale them."""
        m = min(count, max(_STACK_BYTES // (16 * self._a.size), 1), len(self._windows) + self._pad - first)
        if m < 1:
            raise ParameterError(f"the orbit was built for {self.horizon} steps")
        ns = np.arange(first, first + m)[:, None]
        rows = slice(first - self._pad, first - self._pad + m)
        windows = self._windows[rows, None]
        states = windows * self._a if self._b is None else np.multiply(ns[:, :, None], self._b)
        if self._b is not None:  # a + n b in place: a block holds one array
            states += self._a
            states *= windows
        if self._q is not None:  # q s^(n-1), its mantissa moved like column 0
            q = _scaled(self._q, self._exps[0])
            plateau = (q[0] + ns * q[1]) * windows[:, :, 0]
        exps = -self._exps if self._window_exps is None else self._window_exps[rows] - self._exps
        return states, None if self._q is None else plateau, exps.reshape(-1, 1, exps.shape[-1])

    def _hold(self, n: int) -> None:
        """Hold state n >= 1 in ``vals`` and ``lo``, its plateau included."""
        states, plateau = _exact(*self._travel_states(n, 1))
        vals, width = states[0][:, :: self.d], states.shape[2]
        self.lo = self._trail + n - self._pad if self.d > 0 else self._trail - (n - self._pad) - (width - 1)
        if plateau is not None and n > 1:  # coordinates 1 .. n-1, behind a window that starts at n
            self.lo, vals = 1, np.concatenate((np.repeat(plateau[0][:, None], n - 1, axis=1), vals), axis=1)
        self.vals = vals

    def _unhold(self) -> None:
        """Drop the held state of a frame that moved; ``__getattr__`` holds the new one when it is read."""
        self.__dict__.pop("vals", None)
        self.__dict__.pop("lo", None)

    def __getattr__(self, name: str):
        if name not in ("vals", "lo") or not self.translating:
            raise AttributeError(name)
        self._hold(self.steps)
        return self.__dict__[name]

    def _frame_inners(self, y, count: int) -> np.ndarray:
        """<A^n x, y>: conj(y) at the travel coordinates of W, windowed like it; a plateau pairs with its prefix sums."""
        length, width = len(self._wt), self._a.shape[1]
        ylo, yv = _dense(y)
        frame = np.zeros((self.rows, length), dtype=complex)
        mine, theirs = _overlap(self._trail if self.d > 0 else self._trail - (length - 1), length, ylo, yv.shape[1])
        frame[:, mine] = yv[:, theirs].conj()
        windows = np.lib.stride_tricks.sliding_window_view(frame[:, :: self.d], width, axis=1)
        if self._q is not None:  # ysums[:, n - 1]: the plateau cells of state n
            ysums = np.pad(np.cumsum(frame[:, :: self.d], axis=1), ((0, 0), (1, 0)))
        parts = []
        for first, states, plateau, exps in self._states(count):
            yw = windows[:, first - self._pad : first - self._pad + len(states)]  # conj(y) under each state
            ys = None if plateau is None else ysums[:, first - 1 : first - 1 + len(states)]
            full, level = _exact(states, plateau, exps)
            values = np.einsum("irj,rij->i", full.reshape(len(states), self.rows, -1), yw)
            if plateau is not None:
                values += np.einsum("ij,ji->i", level, ys)
            if not np.isfinite(values).all():  # an entry past double range meets zeros of y: scale each product
                terms = _exact(states * yw.transpose(1, 0, 2).reshape(states.shape), None if plateau is None else plateau * ys.T, exps)
                values = terms[0].sum(axis=1) + (0 if plateau is None else terms[1].sum(axis=1))
            parts.append(values)
        return _joined(parts, complex)


class _MatrixOrbit(_Orbit):
    """Dense matrix for finite-dimensional specs, a fixed frame; pairs stack as [top; bottom]."""

    lo = 1
    fixed = True

    def __init__(self, spec: OperatorSpec, x, n_max: int):
        self._op = to_matrix(spec)
        self.universe = spec_universe(spec)
        self.rows = 2 if isinstance(x, PairVec) else 1
        self.vals = _dense(x, 1, self._op.shape[0] // self.rows)[1]


def make_orbit(spec: OperatorSpec, x, n_max: int):
    """Exact engine for T^k x, k <= n_max: a matrix for finite specs, a window over the base operator otherwise.

    A fixed frame reads its operator's held power stack (``_table``), so the
    orbits of one probe family build it once.
    """
    if expects_pair(spec) != isinstance(x, PairVec):
        kind = "ordered pairs of vectors" if expects_pair(spec) else "plain sparse vectors"
        raise DomainError(f"this operator acts on {kind}")
    if x.universe != spec_universe(spec):
        raise DomainError(f"vector universe {x.universe} does not match operator universe {spec_universe(spec)}")
    if spec_dim(spec) is not None:
        return _MatrixOrbit(spec, x, n_max)
    return _WindowOrbit(spec, x, n_max)


def fixed_frame(spec: OperatorSpec) -> bool:
    """Whether the orbits of spec are fixed frames (``make_orbit``): a matrix, a diagonal, or any base times a zero
    scalar, under BlockTZ too."""
    if spec_dim(spec) is not None:
        return True
    _, scalar, _, d = _frame_spec(spec)
    return scalar == 0 or d == 0


def shift_direction(spec: OperatorSpec) -> int | None:
    """Offset (+1 or -1) of an infinite weighted shift, seen through scalars and BlockTZ; else None."""
    if spec_dim(spec) is not None:
        return None
    base, _, _, d = _frame_spec(spec)
    return d if isinstance(base, (BackwardShift, ForwardShift, BilateralShift)) else None


# ---------------------------------------------------------------------------
# Cesàro sums


class CesaroSum:
    """Sums sum_{k<=n} lam^k T^k x over a grid of unimodular lam; a single Cesàro mean is the one-point grid ``[1]``.

    Once the orbit state is exactly zero the sums freeze.  On a translating
    frame the prefix sums of the terms mu^-i a(i), mu = lam s, are taken in
    extended precision (``_prefix_sums``; a window whose weights span more
    than the extended range loses the terms below it).  A weighted shift, or a
    multiple of one (no BlockTZ part b, no plateau, no pad: ``_closed``),
    reads its norms off them in closed form (``_closed_norms``): |lam^u| = 1,
    so a cell's magnitude is a lam-free gain |W(u)| times a span of the prefix
    sums.  Its sums, and every sum of BlockTZ and the duplicating shift, are
    written off the product table (``_write``) with gains G(u) = mu^u W(u):
    one table per sum, the running products of mu w(u) (w the travel weights,
    W's factors), mantissas and exponents built the way W is, by the first
    write (``_write_tables``); when every mu is 1, G is W.  A span is read at
    its own power of two, so a cell is the double product of a plain table
    wherever that is normal.

    A fixed frame's sums at n are the fold (``_Fold``) of its operator's held
    residue table with the initial state x: the class sums of a^m x, carried
    from block to block by the extended power applied to x, so nothing is
    rounded before the sums themselves and the orbit never steps (``state``
    moves it when read).  Its grid is one part (``_lambda_parts``), summed on
    one table: [1], or a head ``lambda_grid(L)``, where step k joins residue
    class k mod L, whose sums one inverse DFT reads at the exact roots
    e^{2 pi i j/L}.  Any other grid raises ParameterError:
    ``lambda_mean_norms`` sums it part by part, an off-grid lam as the
    one-point sum of lam T.  The sums are extended, ``_exact``, and rounded
    once into ``sum``, as are the mean and the pairing they give.
    """

    def __init__(self, spec: OperatorSpec, x, n_max: int, lams=(1.0,)):
        self.orbit = make_orbit(spec, x, n_max)
        self.lams = np.asarray(lams, dtype=complex)
        if np.any(np.abs(np.abs(self.lams) - 1.0) > 1e-12):
            raise ParameterError("lam must be unimodular")
        self.lo, hi = self.orbit.span(n_max)
        self.sum = np.zeros((len(self.lams), self.orbit.rows, max(hi - self.lo + 1, 0)), dtype=complex)
        self.n = self.stepped = self._final = 0  # stepped: the last index summed, short of n once an orbit dies
        self._rounded = None  # ``_write_tables``, built by the first write
        # a weighted shift, or a multiple of one, reads its norms in closed form (``_closed_norms``); a pad comes with
        # a BlockTZ part b or a duplicating plateau q, whose sums are written (``_write``)
        o = self.orbit
        self._closed = o.translating and o._b is None and o._q is None and not o._pad
        if self.orbit.translating:  # written, never accumulated: no compensation
            self._prefix_sums()
        state_cols, self._live = self._overlap()  # columns that can be nonzero; a translating frame narrows them
        self.sum[:, :, self._live] = self.orbit.vals[:, state_cols]
        self._start = np.abs(self.orbit.vals).ravel()  # |x|: the closed form's sum of no step
        if not self.orbit.translating:
            parts = _lambda_parts(self.lams)
            if len(parts) != 1 or parts[0][0] != 1:
                raise ParameterError("a fixed frame sums [1] or a head lambda_grid(L); lambda_mean_norms sums any lams")
            x0 = self.sum[0].ravel()
            self._exact = np.repeat(x0[None].astype(np.clongdouble), len(self.lams), axis=0)
            # an empty window has no operator, and its sums stay empty
            self._fold = None if self.orbit.dead else _Fold(self.orbit._op, len(self.lams), x0)

    def _prefix_sums(self) -> None:
        """Prefix sums of mu^-i a(i) (and mu^-i b(i), i mu^-i b(i)), times lam if padded, in extended precision."""
        o = self.orbit
        width = o._a.shape[1]
        terms = (o._a[None] if o._b is None else np.stack([o._a, o._b, np.arange(width) * o._b]))[None]
        factor = np.ldexp(np.ones(width, dtype=np.longdouble), -o._exps)  # a(i) = a'(i) 2^-E(i)
        if not (np.all(self.lams == 1) and o._scalar == 1):
            inverse = np.ones((len(self.lams), width), dtype=np.clongdouble)
            inverse[:, 1:] = 1 / (self.lams * o._scalar)[:, None].astype(np.clongdouble)
            factor = factor * np.cumprod(inverse, axis=1) * self.lams[:, None] ** o._pad
        terms = terms * (factor if factor.ndim == 1 else factor[:, None, None, :])
        self._prefix = np.zeros((*terms.shape[:-1], width + 1), dtype=np.clongdouble)
        np.cumsum(terms, axis=-1, out=self._prefix[..., 1:])

    def _write_tables(self) -> None:
        """What ``_write`` reads besides the prefix sums, built by its first call: the gains G(u) = mu^u W(u), the
        running products of mu w(u) as W is built (``_running_products``; W itself, one row for every lam, when every
        mu is 1), mantissas and exponents; the references R of the prefix sums per lam and index (``_reference``) and
        the sums rounded to double at 2^-R; and their closing differences total - prefix[j], j in [1, width), at their
        own references."""
        o = self.orbit
        width = o._a.shape[1]
        mus = self.lams * o._scalar
        if np.all(mus == 1):
            self._gain, self._gain_exp = o._wt[None], o._we[None]
        else:
            self._gain, self._gain_exp = _running_products(mus[:, None] * o._weights().astype(np.clongdouble), len(o._wt) - 1)
        # a column exponent or |s| != 1 spreads the terms past 2^+-128; else every span stays in double range at R = 0
        spread = o._exps.any() or abs(o._scalar) != 1
        self._ref = _reference(self._prefix, (1, 2)) if spread else np.zeros((len(self._prefix), width + 1), dtype=int)
        self._rounded = _scaled(self._prefix, -self._ref[:, None, None]).astype(complex)
        closing = self._prefix[..., width:] - self._prefix[..., 1:width]  # the same at every checkpoint
        self._closing_ref = _reference(closing, (1, 2)) if spread else self._ref[:, 1:width]
        closing = _scaled(closing, -self._closing_ref[:, None, None])
        self._closing = closing if o._b is not None else closing[:, 0].astype(complex)
        # whether any cell's 2^(e + R) differs from 1; when none does, the writes skip the exponent bookkeeping
        self._scales = bool(self._gain_exp.any() or self._ref.any() or self._closing_ref.any())

    def _write(self, k: int) -> None:
        """Write the sums over steps 0..k of a translating frame.

        In travel coordinates lam^m (T^m x)(u) is lam^pad mu^u W(u) mu^-i (a(i) + m b(i))
        with m = u + pad - i and mu = lam s (see ``_WindowOrbit``), so the sum
        over m in [pad, k] is lam^pad mu^u W(u) (S_a + (u + pad) S_b - S_ib): S are
        sums of mu^-i a(i), mu^-i b(i), i mu^-i b(i) over i in [u + pad - k, u],
        differences of prefix sums, or totals where the range covers the
        window.  A cell u in [width, k - pad] sums the whole window, so it is
        final once written: later writes start past it, unless a plateau adds
        to it; the closing cells past it are total - prefix[u + pad - k].
        A padded frame adds its initial state; the plateau's cell u gets
        lam sum_{j in (u, k)} mu^j (q_a + (j + 1) q_b), summed in extended
        precision relative to its largest term.  Prefix sums are
        extended-precision, so a difference cancels far below double rounding
        (Higham, Accuracy and Stability of Numerical Algorithms, ch. 4).  A span
        is rounded to double at its reference 2^R (a difference at the larger
        of its ends'), multiplied by the gain's mantissa, and the cell takes
        2^(e + R) once, so with all exponents 0 a cell is the plain double
        product.  Under a plateau past 1 a cell's parts are taken relative to
        the plateau's peak and scaled back once, so they never meet as opposite
        infinities.
        """
        o = self.orbit
        if self._rounded is None:
            self._write_tables()
        width, pad = o._a.shape[1], o._pad
        start = o._trail - self.lo  # accumulator column of travel coordinate 0
        top = k + width - 1 - pad if o.d > 0 else min(k + width - 1 - pad, start)  # not past the floor
        self._live = slice(start, start + top + 1) if o.d > 0 else slice(start - top, start + 1)
        out = self.sum[:, :, self._live][:, :, :: o.d]  # travel order
        moments = (lambda s, u: s[:, 0]) if o._b is None else (lambda s, u: s[:, 0] + (u + pad) * s[:, 1] - s[:, 2])
        prefix, ref, k0 = self._prefix, self._ref, k - pad
        a, b = min(k0, width - 1) + 1, max(k0, width - 1) + 1
        final = width if o._q is not None else max(width, self._final)
        plateau = o._q is not None and k > 1
        peak = cell = 0  # the plateau's largest gain exponent, and the cells' exponent until it is added, per lam
        if rescale := plateau and self._scales:
            peak = self._gain_exp[:, 1:k].max(axis=1)[:, None, None]
            cell = np.maximum(peak, 0)
        for lo_u, hi_u in ((0, a), (a, width), (final, b), (b, top + 1)):  # i in [max(u - k0, 0), min(u, width - 1)]
            if lo_u < (hi_u := min(hi_u, top + 1)):
                u = None if o._b is None else np.arange(lo_u, hi_u)
                if lo_u <= k0:  # from i = 0 the sums are rounded prefix sums (the first is exactly 0) or the total
                    cols = slice(lo_u + 1, hi_u + 1) if lo_u < width else slice(width, None)
                    spans, r = moments(self._rounded[..., cols], u), ref[:, cols]
                elif lo_u < width:  # else extended differences, at the larger reference of their ends
                    r = np.maximum(ref[:, lo_u + 1 : hi_u + 1], ref[:, lo_u - k0 : hi_u - k0])
                    spans = moments(_scaled(prefix[..., lo_u + 1 : hi_u + 1] - prefix[..., lo_u - k0 : hi_u - k0], -r[:, None, None]), u)
                else:  # the closing cells
                    cols = slice(lo_u - k0 - 1, hi_u - k0 - 1)
                    spans, r = self._closing[..., cols], self._closing_ref[:, cols]
                    spans = spans if o._b is None else moments(spans, u)
                cells = out[:, :, lo_u:hi_u]
                np.multiply(spans.astype(complex, copy=False), self._gain[:, None, lo_u:hi_u], out=cells)
                if self._scales:
                    _scaled(cells, (self._gain_exp[:, lo_u:hi_u] + r)[:, None] - cell, inplace=True)
        self._final = b
        if pad:
            out[:, :, : o._x0.shape[1]] += _scaled(o._x0, -cell)
        if plateau:  # mu^j / 2^peak, j = 1 .. k-1
            g = _scaled(self._gain[:, None, 1:k], self._gain_exp[:, None, 1:k] - peak if self._scales else 0)
            g = g.astype(np.clongdouble)
            r0 = np.cumsum(g[..., ::-1], axis=-1)[..., ::-1]
            r1 = np.cumsum((np.arange(1, k) * g)[..., ::-1], axis=-1)[..., ::-1]
            qa, qb = o._q[0][None, :, None], o._q[1][None, :, None]
            cells = (((qa + qb) * r0 + qb * r1) * self.lams[:, None, None]).astype(complex)
            out[:, :, : k - 1] += _scaled(cells, peak - cell)
        if rescale:
            for lo_u, hi_u in ((0, width), (final, top + 1)):  # the cells written
                if lo_u < (hi_u := min(hi_u, top + 1)):
                    _scaled(out[:, :, lo_u:hi_u], cell, inplace=True)

    def _overlap(self) -> tuple[slice, slice]:
        """(state columns, accumulator columns) where the orbit window meets the sums."""
        return _overlap(self.orbit.lo, self.orbit.vals.shape[1], self.lo, self.sum.shape[2])

    def advance_to(self, n: int) -> None:
        """Move the sums to index n (never backwards)."""
        orbit = self.orbit
        if orbit.translating:
            orbit.advance(n)
            if orbit.steps != self.stepped:
                with np.errstate(over="ignore"):  # a plateau whose exact value overflows reads inf
                    self._write(orbit.steps)
            self.stepped = orbit.steps
        elif n > self.stepped and self._fold is not None:
            classes = self._fold.at(np.array([n]))[0]
            self._exact = classes if len(classes) == 1 else np.fft.ifft(classes, axis=0, norm="forward")
            with np.errstate(over="ignore"):  # rounded once; a sum past double range reads inf
                self.sum.reshape(len(self.lams), -1)[:] = self._exact
            self.stepped = n
        self.n = n

    def norms(self, p: float) -> np.ndarray:
        """||M_n(lam T) x||_p for every lam of the grid: a weighted shift's in closed form (``_closed_norms``), any
        other frame's of its sum."""
        if self._closed:
            return self._closed_norms(np.array([self.stepped]), np.array([self.n]), p)[:, 0]
        self.orbit.check_p(p)
        mags = np.abs(self.sum[..., self._live]).reshape(len(self.lams), -1)
        if self.stepped < self.n:  # frozen
            return _lp_norm(mags, p, axis=1) / (self.n + 1)
        return _lp_norm(mags / (self.n + 1), p, axis=1)

    def _closed_norms(self, ks: np.ndarray, ns: np.ndarray, p: float) -> np.ndarray:
        """||M_n(lam T) x||_p of a weighted shift (``_closed``), shape (lams, checkpoints): the norms of the sums over
        steps 0..k, k in ks (n, or the death index once the orbit died), divided by n + 1, n in ns.

        Identity.  In travel coordinates the frame's state m is (A^m x)(u) = W(u) a(u - m), the scalar folded into
        W, so cell u of the sum over m <= k is lam^u W(u) S(u) with S(u) = sum lam^-i a(i) over i in
        [u - k, u] and in [0, w), w the width: a difference of the prefix sums P(j) = sum_{i<j} lam^-i a(i)
        (``_prefix_sums``).  As |lam^u| = 1, |cell u|^p = g(u) |S(u)|^p with g(u) = |W(u)|^p free of lam, and S(u)
        is P(u + 1) for u <= min(k, w - 1), P(u + 1) - P(u - k) for k < u < w, the total T = P(w) for
        w <= u <= k, and C(j) = T - P(j), j = u - k, for the closing cells max(w, k + 1) <= u <= k + w - 1, so

            ||sum||_p^p = sum_{u <= min(k, w-1)} g(u) |P(u+1)|^p + sum_{k < u < w} g(u) |P(u+1) - P(u-k)|^p
                          + |T|^p sum_{w <= u <= k} g(u) + sum_{0 < j < w, k + j >= w} g(k + j) |C(j)|^p.

        The third term is one lam-free running sum of g, taken in extended precision (``_running_sums``), the
        fourth one (checkpoints x w) by (w x lams) product, and the second only meets k < w - 1.  A vector costs
        O(k + checkpoints w lams) for every checkpoint, where its written sum costs lams times the live cells at each.

        Range.  |W(u)| = f 2^t with f in [1/2, 1), so g(u) = gamma(u) 2^q(u) with q = floor(p t) and
        gamma = f^p 2^(p t - q) in (2^-p, 2).  The spans are differences of P 2^-r, r the binary exponent of each
        lam's largest |P|, held as a high and a low part, so a difference keeps the bits of the extended P.  Each
        checkpoint's terms are taken relative to the largest q it meets, and the root takes 2^(q / p + r) once, so a
        norm reads inf or 0 only where its exact value leaves double range, and never NaN.  The terms are summed in
        double where that provably loses nothing the extended sum keeps: cell 0, g(0) |a(0)|^p with W(0) = 1, is
        at least 2^-(p R) of the reference, R the binary range of the nonzero |a(i)| and |W(u)| plus log2 w + 3, so
        with p R < 900 every term lost below 2^-1022 is below 2^-64 of the sum.  Elsewhere they are summed in
        extended precision, which, as ``_write`` does, loses a term more than the extended range below the largest.
        """
        self.orbit.check_p(p)
        o = self.orbit
        width = o._a.shape[1]
        top = int(ks.max(initial=0))
        with np.errstate(over="ignore", under="ignore", divide="ignore"):
            f, t = np.frexp(np.abs(o._wt[: top + width]))
            t = t + o._we[: top + width]  # |W(u)| = f 2^t
            column = np.abs(o._a).max(axis=0)
            ta = (np.frexp(column)[1] - o._exps)[column > 0]
            spread = np.ptp(ta) + np.ptp(t[f > 0]) + np.log2(width) + 3
            real = float if column[0] and p * spread < 900 else np.longdouble
            prefix = self._prefix[:, 0]  # P(j) per lam and row: (lams, rows, w + 1)
            ref = np.frexp(np.abs(prefix).max(axis=(1, 2)))[1]
            scaled = prefix * np.ldexp(np.longdouble(1), -ref)[:, None, None]  # exact: a power of two
            high = scaled.astype(np.result_type(real, 1j))
            low = (scaled - high).astype(high.dtype)

            def spans(i, j):  # sum over the rows of |P(i) - P(j)|^p 2^-pr, (lams, ...)
                s = (high[..., i] - high[..., j]) + (low[..., i] - low[..., j])
                squares = s.real**2 + s.imag**2
                return np.sum(squares if p == 2 else squares ** (p / 2), axis=1)

            heads, closing = spans(np.arange(1, width + 1), [0]), spans([width], np.arange(1, width))
            logs = p * t
            q = np.floor(logs).astype(np.int64)
            gamma = f**p * np.exp2(logs - q)  # g = gamma 2^q
            za = q[:width].max()
            ga = np.ldexp(gamma[:width].astype(real), q[:width] - za)

            def opening(k):  # the terms g(u) |P(u+1) - P(u-k)|^p of the cells k < u < w of the sorted checkpoints k,
                # (lams, cells), at 2^za, and where each checkpoint's cells start
                rows, u = np.nonzero(np.arange(width) > k[:, None])
                return spans(u + 1, u - k[rows]) * ga[u], np.searchsorted(rows, range(len(k)))

            head = np.cumsum(heads * ga, axis=1)[:, np.minimum(ks, width - 1)]  # cells u <= min(k, w - 1), at 2^za
            early = np.flatnonzero(ks < width - 1)
            while early.size:  # in calls of at most 1 MiB of spans
                cells_left = np.cumsum(width - 1 - ks[early])
                take = max(np.searchsorted(cells_left, _STACK_BYTES // (16 * ref.size), "right"), 1)
                head[:, early[:take]] += np.add.reduceat(*opening(ks[early[:take]]), axis=1)
                early = early[take:]
            mids, zm = _running_sums(gamma[width : top + 1].astype(np.longdouble), q[width : top + 1])
            past = np.flatnonzero(ks >= width)
            mid, zk = np.zeros(len(ks), dtype=real), np.full(len(ks), za)
            mid[past], zk[past] = mids[ks[past] - width], zm[ks[past] - width]
            cells = ks[:, None] + np.arange(1, width)  # the closing cells u = k + j
            live = cells >= width
            z = np.maximum(zk, np.max(q[cells], axis=1, where=live, initial=za))  # the reference of checkpoint k
            tail = np.where(live, np.ldexp(gamma[cells].astype(real), q[cells] - z[:, None]), 0) @ closing.T
            total = np.ldexp(head, za - z) + np.ldexp(mid, zk - z) * heads[:, -1:] + tail.T
            e = np.floor(z / p).astype(np.int64)
            frac = np.exp2(z / p - e)
            root = total ** (1 / p) * frac  # ||sum||_p 2^-(e + r)
            norms = np.ldexp(root / (ns + 1), e + ref[:, None])
            norms[:, ks == 0] = _lp_norm(self._start, p) / (ns[ks == 0] + 1)  # the sum of no step: x, read as it is
            # a cell past double range is inf in the written sum, and so in its mean (``mean``): so is the norm
            past_range = (np.ldexp(root, e + ref[:, None]) > _DOUBLE.max) & (norms <= _DOUBLE.max)
            for i in np.flatnonzero(past_range.any(axis=0)):  # the largest cell of each group, at 2^z
                k, u, cut = ks[i], cells[i][live[i]], min(ks[i], width - 1) + 1

                def gains(v):
                    return np.ldexp(gamma[v].astype(real), q[v] - z[i])

                peak = np.max([np.ldexp(np.max(heads[:, :cut] * ga[:cut], axis=1), za - z[i]),
                               np.ldexp(opening(ks[i : i + 1])[0].max(axis=1, initial=0), za - z[i]),
                               heads[:, -1] * gains(np.arange(width, k + 1)).max(initial=0),
                               np.max(closing[:, u - k - 1] * gains(u), axis=1, initial=0)], axis=0)
                norms[np.ldexp(peak ** (1 / p) * frac[i], e[i] + ref) > _DOUBLE.max, i] = np.inf
            return norms.astype(float).repeat(len(self.lams) // len(norms), axis=0)  # one row when every lam is 1

    def mean(self) -> np.ndarray:
        """M_n(T) x on the accumulator's coordinates (first grid point), scaled by parts (``_times``); a fixed frame's
        is its extended sum divided by n + 1 and rounded once."""
        if self.orbit.translating:
            return _times(self.sum[0], 1.0 / (self.n + 1))
        mean = self._exact[0].view(np.longdouble) / (self.n + 1)  # real and imaginary parts apart
        with np.errstate(over="ignore"):
            return mean.astype(float).view(complex).reshape(self.sum.shape[1:])

    def inner(self, y) -> complex:
        """<M_n(T) x, y> (first grid point): a fixed frame's extended sum paired with y and rounded once, a
        translating frame's sum (``mean``) paired in double."""
        ylo, yv = _dense(y)
        mine, theirs = _overlap(self.lo, self.sum.shape[2], ylo, yv.shape[1])
        total = self.sum[0] if self.orbit.translating else self._exact[0].reshape(self.sum.shape[1:])
        return complex(np.vdot(yv[:, theirs], total[:, mine]) / (self.n + 1))  # vdot conjugates its first argument

    def state(self) -> np.ndarray:
        """The current orbit state on the accumulator's coordinates; a fixed frame's orbit moves to n when it is read."""
        self.orbit.advance(self.n)  # a translating frame's orbit is there already
        out = np.zeros(self.sum.shape[1:], dtype=complex)
        state_cols, cols = self._overlap()
        out[:, cols] = self.orbit.vals[:, state_cols]
        return out

    def gap(self, a: np.ndarray, b: np.ndarray, p: float) -> float:
        """||a - b||_p of two arrays on the accumulator's coordinates."""
        self.orbit.check_p(p)
        with np.errstate(over="ignore"):  # powers of entries past the root of double range: rescaled by _lp_norm
            return float(_lp_norm(np.abs(a - b).ravel(), p))


def _times(z: np.ndarray, c: float) -> np.ndarray:
    """z times the real c, real and imaginary parts apart: a complex product would add inf * 0 = NaN to the other
    part of an infinite entry.  z is contiguous."""
    return (z.view(float) * c).view(complex)


def lambda_mean_norms(spec: OperatorSpec, xs, lams, checkpoints: list[int], p: float) -> np.ndarray:
    """||M_n(lam T) x||_p at each checkpoint for every lam and every vector x of xs; shape (len(xs), len(lams),
    len(checkpoints)).

    The vectors are summed one at a time, each as its own ``CesaroSum``.  A
    weighted shift's sum reads every checkpoint in one call, in closed form
    (``CesaroSum._closed_norms``); a written sum (BlockTZ, the duplicating
    shift) builds its own gain table (``CesaroSum._write_tables``), and a
    fixed frame reads the held table of its operator and period (``_table``),
    built for the first vector.  A fixed frame's lam list is summed one part (``_lambda_parts``)
    after another, a lam off the grid as the one-point sum of lam T, so that
    the vectors read one table of a part; the off-grid parts share period 1,
    so each replaces the last.
    """
    lams = np.asarray(lams, dtype=complex)
    parts = [(list(range(len(lams))), spec, lams)]
    if fixed_frame(spec):
        parts = [(rows, spec, lams[rows]) if period > 1 else (rows, spec if lam == 1 else scale(lam, spec), [1.0])
                 for lam, period, rows in _lambda_parts(lams)]
    out = np.zeros((len(xs), len(lams), len(checkpoints)))
    ns = np.asarray(checkpoints)
    for rows, part, part_lams in parts:
        for v, x in enumerate(xs):
            acc = CesaroSum(part, x, checkpoints[-1], part_lams)
            if acc._closed:  # every checkpoint in one call; a dead orbit's sums stay those of its death index
                death = acc.orbit._death
                out[v, rows] = acc._closed_norms(ns if death is None else np.minimum(ns, death), ns, p)
            else:
                for j, n in enumerate(checkpoints):
                    acc.advance_to(n)
                    out[v, rows, j] = acc.norms(p)
            del acc  # before the next sum is built
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


def _shift_power_norm(spec, n: int, log: bool = False):
    """sup of the n-term weight products over the windows [s, s + n) that T^n maps from basis vectors (its
    extended-precision log with ``log``)."""
    rule = spec.rule
    product = log_weight_product if log else weight_product
    bilateral = isinstance(spec, BilateralShift)
    lowest = 0 if bilateral else 2 if isinstance(spec, BackwardShift) else 1  # e_1 is killed by a backward shift
    if not bilateral and isinstance(spec.universe, FiniteRange):
        starts = range(lowest, spec.universe.dim - n + lowest)
    elif isinstance(rule, Explicit):
        tail = len(rule.values) + 1  # windows from here on, or ending before 1, hold tail weights only
        starts = {*range(1 - n, tail - n + 1), *range(1, tail + 1)} if bilateral else range(lowest, max(lowest, tail) + 1)
    elif isinstance(rule, PolyRatio):
        sup = _poly_sup(rule, n, None if bilateral else lowest)
        return np.log(np.longdouble(sup)) if log else sup
    else:  # a power ratio on N: a bilateral shift cannot carry one
        return max(product(rule, lowest, n), 0.0 if log else 1.0)
    return max((product(rule, s, n) for s in starts), default=-np.inf if log else 0.0)


def _log_power_norm(spec: OperatorSpec, n: int, p: float):
    """log ||T^n|| in extended precision: n log|c| plus the inner log for a scalar multiple, n log max|d| for a
    diagonal and the log weight products for a shift, none of which saturates; else the log of the norm."""
    with np.errstate(divide="ignore"):  # a zero operator has log norm -inf
        if isinstance(spec, ScalarMultiple):
            return n * np.log(np.longdouble(abs(spec.scalar))) + _log_power_norm(spec.inner, n, p) if spec.scalar else -np.inf
        if isinstance(spec, Diagonal):  # ||D^n|| = ||D||^n
            return n * np.log(np.longdouble(power_norm_exact(spec, 1, p)))
        if isinstance(spec, (BackwardShift, ForwardShift, BilateralShift)):
            return _shift_power_norm(spec, n, log=True)
        return np.log(np.longdouble(power_norm_exact(spec, n, p)))


def _power(base: float, n: int) -> float:
    """base ** n, saturating to inf past double range."""
    with np.errstate(over="ignore"):
        return float(np.float64(base) ** n)


def power_norm_exact(spec: OperatorSpec, n: int, p: float) -> float:
    """Exact ||T^n|| for shifts (any p), diagonals, and finite matrices (p=2): ``power_norms_exact`` at one n."""
    return power_norms_exact(spec, [n], p)[0]


def power_norms_exact(spec: OperatorSpec, ns, p: float) -> list[float]:
    """Exact ||T^n|| at each n of the sorted ns for shifts (any p), diagonals, and finite matrices (p=2).

    A shift's norm is the supremum of its n-term weight products over basis
    starts s, each a telescoping closed form.  A power ratio on N has products
    ((s + n - 1 + c) / (s - 1 + c))^alpha, and 1 + n / (s - 1 + c) decreases
    in s toward 1: for alpha >= 0 the products decrease from the lowest start,
    for alpha < 0 they increase toward their limit 1, so the supremum is the
    larger of the first product and 1.  Explicit rules take every start whose
    window meets the listed weights, plus one window of tail weights;
    polynomial ratios the starts next to the breakpoints of their monotone
    pieces (``_poly_sup``); a finite range every start.  A zero scalar
    multiple has norm 0.  A scalar multiple c T has norm |c|^n ||T^n||; where
    either factor saturates in double, it is exp(n log|c| + log ||T^n||) with
    the closed-form log norm (``_log_power_norm``).  A diagonal's norm is
    max|d|^n; any other matrix's are read off its held power stack in one
    pass (``_matrix_power_norms``).
    """
    ns = list(ns)
    if min(ns, default=1) < 1:
        raise ParameterError("power must be >= 1")
    if p < 1:
        raise ParameterError(f"p must be >= 1, got {p}")
    if isinstance(spec, ScalarMultiple):
        if not spec.scalar:
            return [0.0] * len(ns)
        norms = []
        for n, inner in zip(ns, power_norms_exact(spec.inner, ns, p)):
            outer = _power(abs(spec.scalar), n)
            exact = 0 < outer < math.inf and 0 < inner < math.inf
            with np.errstate(over="ignore"):  # a factor saturates: one exp of the log norm, 0 or inf only where it is
                norms.append(outer * inner if exact else float(np.exp(_log_power_norm(spec, n, p))))
        return norms
    if isinstance(spec, Diagonal):
        candidates = [abs(v) for _, v in spec.overrides]
        if not (isinstance(spec.universe, FiniteRange) and len(spec.overrides) >= spec.universe.dim):
            candidates.append(abs(spec.default))
        return [_power(max(candidates), n) for n in ns]
    if isinstance(spec, (BackwardShift, ForwardShift, BilateralShift)):
        return [_shift_power_norm(spec, n) for n in ns]
    if spec_dim(spec) is not None:
        if p != 2:
            raise ParameterError("operator norms of matrices are computed for p=2 only")
        return _matrix_power_norms(to_matrix(spec), ns).tolist()
    raise UnsupportedVariantError(
        f"no closed-form power norm for {type(spec).__name__}; use orbit probes for lower bounds"
    )


def _matrix_power_norms(a: np.ndarray, ns) -> np.ndarray:
    """||a^n||_2 at the sorted n >= 1 of ns, off the held power stack a^1 .. a^S (``_table``) and one batched largest
    singular value per block: the rounded a^n for n <= S, and past S a^n = a^t a^s with s the multiple of S below n,
    the rounded a^t times ``_Fold``'s extended carry a^s, rounded once."""
    fold = _Fold(a, 1)
    ns = np.asarray(ns, dtype=np.int64)
    out = np.empty(len(ns))
    lo = 0
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing power has norm inf
        while lo < len(ns):
            fold.reach(ns[lo])
            hi = int(np.searchsorted(ns, fold.start + fold.size, side="right"))
            block = fold.stack[ns[lo:hi] - fold.start - 1]
            out[lo:hi] = largest_singular_value(block if fold.carry is None else (block @ fold.carry).astype(complex))
            lo = hi
    return out


def orbit_norm_array(spec: OperatorSpec, x, p: float, n_max: int) -> np.ndarray:
    """||T^n x||_p for n = 0..n_max as an array, zero past the death of an orbit.

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
    return values


def orbit_norms(spec: OperatorSpec, x, p: float, n_max: int) -> NormSeq:
    """(n, ||T^n x||_p) for n = 0..n_max (``orbit_norm_array``)."""
    return NormSeq(tuple(enumerate(orbit_norm_array(spec, x, p, n_max).tolist())), "vector-orbit", p)


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
    if n < 0:
        raise ParameterError("n must be >= 0")
    return float(lambda_operator_norms(spec, [lam], [n])[0, 0])


def lambda_grid(samples: int) -> np.ndarray:
    """samples-th roots of unity, with 1 and -1 always present, exactly (-1 appended when samples is odd)."""
    lams = np.exp(2j * np.pi * np.arange(samples) / samples)
    lams[0] = 1.0
    if samples % 2:
        return np.append(lams, -1.0 + 0j)
    lams[samples // 2] = -1.0
    return lams


def _lambda_parts(lams: np.ndarray) -> list[tuple[complex, int, list[int]]]:
    """The parts (lam, L, rows) that the sums over lams split into: (1, L, [0 .. L-1]) when lams begins with the L
    roots of ``lambda_grid(L)`` (the -1 that an odd grid appends is not one of them), and (lam, 1, [j]) for every
    other lam."""
    size = 0
    if len(lams) > 1 and lams[0] == 1 and (angle := float(np.angle(lams[1]))) > 0:  # lams[1] = e^{2 pi i/L}
        period = round(2 * math.pi / angle)
        if period <= len(lams) and np.array_equal(lams[:period], lambda_grid(period)[:period]):
            size = period
    head = [(1, size, list(range(size)))] if size else []
    return head + [(lam, 1, [j]) for j, lam in enumerate(lams) if j >= size]


def lambda_operator_norms(spec: OperatorSpec, lams, checkpoints: list[int]) -> np.ndarray:
    """Exact ||M_n(lam T)|| at sorted checkpoints n >= 0 for every lam; shape (len(lams), len(checkpoints)).

    The L roots of unity of a head ``lambda_grid(L)`` (``_lambda_parts``) are
    one residue-DFT sweep (``_residue_norms``) over the powers of A, evaluated
    at the exact roots e^{2 pi i j/L}; any other lam (and the -1 of an odd
    grid) is the one-point sweep of lam A.  A mean that holds a non-finite
    entry reads as inf.
    """
    a = to_matrix(spec)
    parts = _lambda_parts(np.asarray(lams, dtype=complex))
    return np.vstack([_residue_norms(a if period > 1 else lam * a, period, checkpoints) for lam, period, _ in parts])


def _residue_norms(a: np.ndarray, period: int, checkpoints: list[int]) -> np.ndarray:
    """||(1/(k+1)) sum_{m<=k} w^{jm} a^m|| for w = e^{2 pi i/period} and j < period, at each checkpoint k.

    With B_r(k) = sum_{m<=k, m = r mod period} a^m, the sum is
    sum_r w^{jr} B_r(k): one length-period inverse DFT over r for the whole
    grid, in extended precision, at the exact roots: its rounding grows like
    log(period) eps sum_r ||B_r(k)|| with the extended eps (Higham, Accuracy
    and Stability of Numerical Algorithms, ch. 24), far below the one
    rounding to double.  The held residue table of a for period (``_table``)
    is folded with the identity as its right-hand side (``_Fold``), as a fixed
    frame's ``CesaroSum`` folds it with a state.  The checkpoints of a block are
    read in chunks, divided by k+1 and rounded to double once; each chunk takes
    one batched largest singular value.  Shape (period, len(checkpoints)).
    """
    d = len(a)
    ks = np.asarray(checkpoints, dtype=np.int64)
    out = np.empty((period, len(ks)))
    chunk = max(_GATHER_BYTES // (32 * period * d * d), 1)  # checkpoints per gather of residue sums
    lo = 0  # first checkpoint not yet read
    with np.errstate(over="ignore", invalid="ignore"):  # overflowing means read as inf
        fold = _Fold(a, period)
        while lo < len(ks):
            sums = np.fft.ifft(fold.at(ks[lo : lo + chunk]), axis=1, norm="forward")
            hi = lo + len(sums)
            sums /= (ks[lo:hi] + 1).astype(np.longdouble)[:, None, None, None]
            sums = sums.astype(complex)
            out[:, lo:hi] = largest_singular_value(sums.reshape(-1, d, d)).reshape(hi - lo, period).T
            lo = hi
    return out


def media_residual(spec: OperatorSpec, x, n: int, p: float) -> float:
    """Residual of T^n x/(n+1) = M_n(T) x - (n/(n+1)) M_{n-1}(T) x."""
    if n < 1:
        raise ParameterError("n must be >= 1")
    return media_residual_max(spec, x, n, p, from_n=n)


def media_residual_max(spec: OperatorSpec, x, n_max: int, p: float, from_n: int = 1) -> float:
    """Max residual of the mean identity over n in [from_n, n_max] (one orbit pass), states and means scaled by
    parts (``_times``); a residual that is not finite raises FloatingPointError naming its n."""
    if n_max < 1 or from_n < 1 or from_n > n_max:
        raise ParameterError("need 1 <= from_n <= n_max")
    acc = CesaroSum(spec, x, n_max)
    prev_mean = acc.mean()
    worst = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(1, n_max + 1):
            acc.advance_to(n)
            mean = acc.mean()
            if n >= from_n:
                gap = acc.gap(_times(acc.state(), 1.0 / (n + 1)), mean - _times(prev_mean, n / (n + 1)), p)
                if not math.isfinite(gap):
                    raise FloatingPointError(f"the mean identity residual is not finite at n={n}: the orbit overflows")
                worst = max(worst, gap)
            prev_mean = mean
    return worst


def block_tz_power_check(inner: OperatorSpec, x: PairVec, n: int) -> float:
    """Residual between the engine's BlockTZ power and n-fold ``core.apply``.

    The engine reads the n-th power off the commuting closed form
    [[T^n, n T^{n-1}(T-I)],[0, T^n]]; the reference applies the block
    operator n times.
    """
    if n < 1:
        raise ParameterError("n must be >= 1")
    spec = BlockTZ(inner)
    stepped = x
    for _ in range(n):
        stepped = apply(spec, stepped)
    return p_norm(vec_sub(power_apply(spec, x, n), stepped), 2)
