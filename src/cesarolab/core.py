"""Sparse complex vectors over countable index sets and operator descriptions.

Everything in the package acts on finitely supported complex sequences
indexed by the 1-based naturals, by all integers, or by a finite range
``1..dim``.  An :class:`OperatorSpec` is a small immutable description of a
bounded operator on such a space, and :func:`apply` is the single dispatch
point turning a description into an action on vectors.  Weight rules expose
exact telescoping products so power norms of the shift families never go
through long floating-point loops.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Union

import numpy as np

__all__ = [
    "DomainError",
    "ParameterError",
    "ConstructionError",
    "UnsupportedVariantError",
    "NatFromOne",
    "AllIntegers",
    "FiniteRange",
    "NAT",
    "INTS",
    "SparseVec",
    "PairVec",
    "make_vector",
    "basis_vector",
    "pair_vector",
    "vec_add",
    "vec_sub",
    "vec_scale",
    "p_norm",
    "inner",
    "Polynomial",
    "PowerRatio",
    "PolyRatio",
    "Explicit",
    "weight_at",
    "weight_product",
    "log_weight_product",
    "reindex_rule",
    "OperatorSpec",
    "BackwardShift",
    "ForwardShift",
    "BilateralShift",
    "Diagonal",
    "FiniteMatrix",
    "BlockTZ",
    "DirectSum",
    "ScalarMultiple",
    "DiagPlusNilpotent",
    "DuplicatingShift",
    "identity",
    "apply",
    "adjoint",
    "scale",
    "spec_universe",
    "spec_dim",
    "to_matrix",
    "describe",
]

# Eager positivity screening horizon for polynomial weight rules.
POLY_POSITIVITY_HORIZON = 10**6
_FLOAT = np.finfo(float)


class DomainError(ValueError):
    """Index outside its universe, or universe mismatch between operands."""


class ParameterError(ValueError):
    """Numeric parameter outside its documented range."""


class ConstructionError(ValueError):
    """Operator construction failed (e.g. a weight polynomial goes nonpositive)."""


class UnsupportedVariantError(TypeError):
    """The requested operation is not defined for this operator variant."""


# ---------------------------------------------------------------------------
# index universes


@dataclass(frozen=True)
class NatFromOne:
    """Indices 1, 2, 3, ..."""

    def contains(self, k: int) -> bool:
        return k >= 1

    def __str__(self) -> str:
        return "N1"


@dataclass(frozen=True)
class AllIntegers:
    """All integer indices."""

    def contains(self, k: int) -> bool:
        return True

    def __str__(self) -> str:
        return "Z"


@dataclass(frozen=True)
class FiniteRange:
    """Indices 1..dim."""

    dim: int

    def __post_init__(self) -> None:
        if not isinstance(self.dim, int) or self.dim < 1:
            raise ParameterError(f"FiniteRange dim must be a positive integer, got {self.dim!r}")

    def contains(self, k: int) -> bool:
        return 1 <= k <= self.dim

    def __str__(self) -> str:
        return f"1..{self.dim}"


IndexUniverse = Union[NatFromOne, AllIntegers, FiniteRange]

NAT = NatFromOne()
INTS = AllIntegers()


def _as_complex(value) -> complex:
    z = complex(value)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ParameterError(f"scalar must have finite components, got {value!r}")
    return z


# ---------------------------------------------------------------------------
# vectors


@dataclass(frozen=True)
class SparseVec:
    """Finitely supported complex sequence over an index universe.

    ``entries`` never stores an exact zero; equality is support-wise and
    exact.  Instances are treated as immutable: all arithmetic returns new
    vectors.
    """

    universe: IndexUniverse
    entries: Mapping[int, complex]

    def support(self) -> list[int]:
        return sorted(self.entries)

    def is_zero(self) -> bool:
        return not self.entries

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseVec):
            return NotImplemented
        return self.universe == other.universe and dict(self.entries) == dict(other.entries)

    def __hash__(self):
        return hash((self.universe, frozenset(self.entries.items())))


@dataclass(frozen=True)
class PairVec:
    """Ordered pair of vectors sharing one universe (state space of BlockTZ)."""

    top: SparseVec
    bottom: SparseVec

    def __post_init__(self) -> None:
        if self.top.universe != self.bottom.universe:
            raise DomainError("pair components must share one universe")

    @property
    def universe(self) -> IndexUniverse:
        return self.top.universe

    def is_zero(self) -> bool:
        return self.top.is_zero() and self.bottom.is_zero()


Vector = Union[SparseVec, PairVec]


def make_vector(universe: IndexUniverse, pairs: Iterable[tuple[int, complex]]) -> SparseVec:
    """Build a sparse vector; duplicate indices are summed, zeros dropped."""
    acc: dict[int, complex] = {}
    for k, value in pairs:
        if not isinstance(k, int) or isinstance(k, bool):
            raise DomainError(f"index must be an integer, got {k!r}")
        if not universe.contains(k):
            raise DomainError(f"index {k} outside universe {universe}")
        z = _as_complex(value)
        acc[k] = acc.get(k, 0j) + z
    return SparseVec(universe, {k: v for k, v in acc.items() if v != 0})


def basis_vector(universe: IndexUniverse, k: int) -> SparseVec:
    return make_vector(universe, [(k, 1.0 + 0j)])


def pair_vector(top: SparseVec, bottom: SparseVec) -> PairVec:
    return PairVec(top, bottom)


def _entries_add(a: Mapping[int, complex], b: Mapping[int, complex], sign: complex = 1) -> dict[int, complex]:
    out = dict(a)
    for k, v in b.items():
        w = out.get(k, 0j) + sign * v
        if w == 0:
            out.pop(k, None)
        else:
            out[k] = w
    return out


def vec_add(x: Vector, y: Vector) -> Vector:
    if isinstance(x, PairVec) or isinstance(y, PairVec):
        if not (isinstance(x, PairVec) and isinstance(y, PairVec)):
            raise DomainError("cannot mix pair and plain vectors")
        return PairVec(vec_add(x.top, y.top), vec_add(x.bottom, y.bottom))
    if x.universe != y.universe:
        raise DomainError("universe mismatch in vector addition")
    return SparseVec(x.universe, _entries_add(x.entries, y.entries))


def vec_sub(x: Vector, y: Vector) -> Vector:
    if isinstance(x, PairVec) or isinstance(y, PairVec):
        if not (isinstance(x, PairVec) and isinstance(y, PairVec)):
            raise DomainError("cannot mix pair and plain vectors")
        return PairVec(vec_sub(x.top, y.top), vec_sub(x.bottom, y.bottom))
    if x.universe != y.universe:
        raise DomainError("universe mismatch in vector subtraction")
    return SparseVec(x.universe, _entries_add(x.entries, y.entries, sign=-1))


def vec_scale(c, x: Vector) -> Vector:
    z = _as_complex(c)
    if isinstance(x, PairVec):
        return PairVec(vec_scale(z, x.top), vec_scale(z, x.bottom))
    if z == 0:
        return SparseVec(x.universe, {})
    return SparseVec(x.universe, {k: z * v for k, v in x.entries.items()})


def p_norm(x: Vector, p: float) -> float:
    """ell^p norm; pair vectors are Hilbertian (p must be 2)."""
    if p < 1:
        raise ParameterError(f"p must be >= 1, got {p}")
    if isinstance(x, PairVec):
        if p != 2:
            raise ParameterError("pair vectors carry the Hilbert norm only (p=2)")
        return math.hypot(p_norm(x.top, 2), p_norm(x.bottom, 2))
    if not x.entries:
        return 0.0
    if p == 2:
        norm = math.sqrt(sum((v.real * v.real + v.imag * v.imag) for v in x.entries.values()))
    elif p == 1:
        return sum(abs(v) for v in x.entries.values())
    else:
        try:
            norm = sum(abs(v) ** p for v in x.entries.values()) ** (1.0 / p)
        except OverflowError:
            norm = math.inf
    if (_FLOAT.tiny / _FLOAT.eps) ** (1.0 / p) <= norm < math.inf:  # below it the powers lose bits as subnormals
        return norm
    mags = [abs(v) for v in x.entries.values()]
    if not all(math.isfinite(m) for m in mags) or not any(mags):  # the norm is inf, nan or 0
        return norm
    # the powers underflowed or overflowed: divide by the largest magnitude, which no ratio exceeds
    top = max(mags)
    return top * math.fsum((m / top) ** p for m in mags) ** (1.0 / p)


def inner(x: Vector, y: Vector) -> complex:
    """Slot-wise sum(x_j * conj(y_j)); conjugate-linear in the second argument."""
    if isinstance(x, PairVec) or isinstance(y, PairVec):
        if not (isinstance(x, PairVec) and isinstance(y, PairVec)):
            raise DomainError("cannot pair plain with pair vectors")
        return inner(x.top, y.top) + inner(x.bottom, y.bottom)
    if x.universe != y.universe:
        raise DomainError("universe mismatch in inner product")
    small, big = (x.entries, y.entries) if len(x.entries) <= len(y.entries) else (y.entries, x.entries)
    total = 0j
    if small is x.entries:
        for k, v in small.items():
            w = big.get(k)
            if w is not None:
                total += v * w.conjugate()
    else:
        for k, w in small.items():
            v = big.get(k)
            if v is not None:
                total += v * w.conjugate()
    return total


# ---------------------------------------------------------------------------
# polynomials and weight rules


@dataclass(frozen=True)
class Polynomial:
    """Real-coefficient polynomial, lowest degree first, trailing zeros trimmed."""

    coefficients: tuple[float, ...]

    def __post_init__(self) -> None:
        coeffs = tuple(float(c) for c in self.coefficients)
        if not all(math.isfinite(c) for c in coeffs):
            raise ParameterError("polynomial coefficients must be finite")
        while len(coeffs) > 1 and coeffs[-1] == 0.0:
            coeffs = coeffs[:-1]
        if not coeffs:
            coeffs = (0.0,)
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def is_zero(self) -> bool:
        return self.coefficients == (0.0,)

    def __call__(self, x):
        result = 0.0 * x + self.coefficients[-1]
        for c in reversed(self.coefficients[:-1]):
            result = result * x + c
        return result

    def shifted(self, delta: int) -> "Polynomial":
        """Coefficients of x -> p(x + delta)."""
        coeffs = [self.coefficients[-1]]
        for c in reversed(self.coefficients[:-1]):
            new = [0.0] * (len(coeffs) + 1)
            for i, a in enumerate(coeffs):
                new[i + 1] += a
                new[i] += a * delta
            new[0] += c
            coeffs = new
        return Polynomial(tuple(coeffs))

    def __str__(self) -> str:
        return "poly(" + ",".join(repr(c) for c in self.coefficients) + ")"


def _screen_positive(p: Polynomial, lo: int, hi: int, require_even_degree: bool = False) -> None:
    """Reject p unless p(k) > 0 on [lo, hi] and the tail sign stays positive."""
    if p.is_zero() or p.coefficients[-1] < 0:
        raise ConstructionError(f"weight polynomial {p} is not eventually positive")
    if require_even_degree and p.degree % 2 == 1:
        raise ConstructionError(
            f"weight polynomial {p} has odd degree and is negative on one integer tail"
        )
    chunk = 1 << 18
    k = lo
    while k <= hi:
        stop = min(hi, k + chunk - 1)
        ks = np.arange(k, stop + 1, dtype=float)
        with np.errstate(over="ignore"):  # a value past double range reads inf, which is positive
            vals = p(ks)
        bad = np.nonzero(~(vals > 0.0))[0]
        if bad.size:
            j = int(ks[bad[0]])
            raise ConstructionError(f"weight polynomial {p} is not positive at index {j}: p({j}) = {p(float(j))}")
        k = stop + 1


@dataclass(frozen=True)
class PowerRatio:
    """weight(k) = ((k + offset) / (k + offset - 1)) ** alpha.

    offset 0 is the k/(k-1) form (valid for k >= 2); offset 1 is the
    (k+1)/k form (valid for k >= 1).
    """

    alpha: float
    offset: int = 0

    def __post_init__(self) -> None:
        if not math.isfinite(self.alpha):
            raise ParameterError("alpha must be finite")

    def __str__(self) -> str:
        return f"power_ratio(alpha={self.alpha!r},offset={self.offset})"


@dataclass(frozen=True)
class PolyRatio:
    """weight(k) = sqrt(p(k+1) / p(k)) for a polynomial positive on the index set."""

    p: Polynomial

    def __post_init__(self) -> None:
        _screen_positive(self.p, 1, POLY_POSITIVITY_HORIZON)

    def __str__(self) -> str:
        return f"poly_ratio({self.p})"


@dataclass(frozen=True)
class Explicit:
    """weight(k) = values[k-1] for 1 <= k <= len(values), constant tail otherwise."""

    values: tuple[float, ...]
    tail: float = 1.0

    def __post_init__(self) -> None:
        vals = tuple(float(v) for v in self.values)
        for i, v in enumerate(vals):
            if not (math.isfinite(v) and v > 0):
                raise ConstructionError(f"explicit weight at index {i + 1} must be positive and finite, got {v}")
        if not (math.isfinite(self.tail) and self.tail > 0):
            raise ConstructionError(f"explicit tail weight must be positive and finite, got {self.tail}")
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "tail", float(self.tail))

    def __str__(self) -> str:
        return f"explicit({list(self.values)},tail={self.tail!r})"


WeightRule = Union[PowerRatio, PolyRatio, Explicit]


def weight_at(rule: WeightRule, k: int) -> float:
    """Exact closed-form weight of the rule at source index ``k``."""
    if isinstance(rule, PowerRatio):
        num = k + rule.offset
        den = num - 1
        if den < 1:
            raise ParameterError(f"power-ratio weight undefined at index {k} (offset {rule.offset})")
        return (num / den) ** rule.alpha
    if isinstance(rule, PolyRatio):
        a, b = rule.p(float(k)), rule.p(float(k + 1))
        if not (a > 0 and b > 0):
            j = k if not a > 0 else k + 1
            raise ConstructionError(f"weight polynomial {rule.p} is not positive at index {j}")
        return math.sqrt(b / a)
    if isinstance(rule, Explicit):
        i = k - 1
        if 0 <= i < len(rule.values):
            return rule.values[i]
        return rule.tail
    raise UnsupportedVariantError(f"unknown weight rule {rule!r}")


def _telescoped(rule: PowerRatio | PolyRatio, start: int, count: int, real=float):
    """Ends (a, b) of the telescoped product of weight(k) over [start, start+count): (b / a)^alpha for a power
    ratio, whose ends are integers, sqrt(b / a) for a polynomial ratio, whose ends are p evaluated in ``real``."""
    if isinstance(rule, PowerRatio):
        lo = start - 1 + rule.offset
        if lo < 1:
            raise ParameterError(f"power-ratio product undefined from index {start} (offset {rule.offset})")
        return lo, start + count - 1 + rule.offset
    a, b = rule.p(real(start)), rule.p(real(start + count))
    if not (a > 0 and b > 0):
        j = start if not a > 0 else start + count
        raise ConstructionError(f"weight polynomial {rule.p} is not positive at index {j}")
    return a, b


def weight_product(rule: WeightRule, start: int, count: int) -> float:
    """Product of weight(k) for k in [start, start+count); telescoping closed forms."""
    if count < 0:
        raise ParameterError("count must be >= 0")
    if count == 0:
        return 1.0
    if isinstance(rule, PowerRatio):
        lo, hi = _telescoped(rule, start, count)
        try:
            return (hi / lo) ** rule.alpha
        except OverflowError:  # saturates, as in the Explicit branch below
            return math.inf
    if isinstance(rule, PolyRatio):
        a, b = _telescoped(rule, start, count)
        return math.sqrt(b / a)
    # Explicit: the exponential of the log sum, so a finite product never overflows on an intermediate factor;
    # the product saturates to 0 or inf only at the end.
    with np.errstate(over="ignore"):
        return float(np.exp(log_weight_product(rule, start, count)).astype(float))


def log_weight_product(rule: WeightRule, start: int, count: int) -> np.longdouble:
    """log of ``weight_product(rule, start, count)`` in extended precision, which never saturates.

    A power ratio telescopes to alpha (log(s + n - 1 + c) - log(s - 1 + c)), a
    polynomial ratio to (log p(s + n) - log p(s)) / 2 (s = start, n = count,
    c = offset); an explicit rule sums the logs of its listed factors inside
    the range and of the tail for the rest.
    """
    if count < 0:
        raise ParameterError("count must be >= 0")
    if count == 0:
        return np.longdouble(0)
    if isinstance(rule, (PowerRatio, PolyRatio)):
        a, b = _telescoped(rule, start, count, np.longdouble)
        logs = np.log(np.longdouble(b)) - np.log(np.longdouble(a))
        return logs * rule.alpha if isinstance(rule, PowerRatio) else logs / 2
    listed = rule.values[max(start, 1) - 1 : max(start + count - 1, 0)]
    return np.sum(np.log(np.array(listed, dtype=np.longdouble))) + (count - len(listed)) * np.log(np.longdouble(rule.tail))


def reindex_rule(rule: WeightRule, delta: int) -> WeightRule:
    """Rule r' with r'(k) = r(k + delta); used by shift adjoints."""
    if isinstance(rule, PowerRatio):
        return PowerRatio(rule.alpha, rule.offset + delta)
    if isinstance(rule, PolyRatio):
        return PolyRatio(rule.p.shifted(delta))
    if isinstance(rule, Explicit):
        length = len(rule.values) + max(0, -delta)
        new_vals = []
        for k in range(1, length + 1):
            i = k + delta - 1
            new_vals.append(rule.values[i] if 0 <= i < len(rule.values) else rule.tail)
        while new_vals and new_vals[-1] == rule.tail:
            new_vals.pop()
        return Explicit(tuple(new_vals), rule.tail)
    raise UnsupportedVariantError(f"unknown weight rule {rule!r}")


# ---------------------------------------------------------------------------
# operator specifications


class OperatorSpec:
    """Marker base class for operator descriptions."""

    __slots__ = ()


def _check_unilateral_universe(universe) -> None:
    if not isinstance(universe, (NatFromOne, FiniteRange)):
        raise ParameterError("unilateral shifts live on N1 or a finite range")


def _check_rule_on(rule: WeightRule, indices: Iterable[int]) -> None:
    for k in indices:
        w = weight_at(rule, k)
        if not (math.isfinite(w) and w > 0):
            raise ConstructionError(f"weight at index {k} must be positive and finite, got {w}")


@dataclass(frozen=True)
class BackwardShift(OperatorSpec):
    """e_k -> weight(k) e_{k-1} for k >= 2, and e_1 -> 0."""

    universe: IndexUniverse
    rule: WeightRule

    def __post_init__(self) -> None:
        _check_unilateral_universe(self.universe)
        probe_hi = self.universe.dim if isinstance(self.universe, FiniteRange) else 4
        _check_rule_on(self.rule, range(2, probe_hi + 1))


@dataclass(frozen=True)
class ForwardShift(OperatorSpec):
    """e_k -> weight(k) e_{k+1}; on a finite range the top index maps to 0."""

    universe: IndexUniverse
    rule: WeightRule

    def __post_init__(self) -> None:
        _check_unilateral_universe(self.universe)
        probe_hi = self.universe.dim - 1 if isinstance(self.universe, FiniteRange) else 4
        _check_rule_on(self.rule, range(1, max(probe_hi, 1) + 1))


@dataclass(frozen=True)
class BilateralShift(OperatorSpec):
    """Weighted shift on all integers; forward moves e_k to weight(k) e_{k+1}."""

    rule: WeightRule
    forward: bool = True

    def __post_init__(self) -> None:
        if isinstance(self.rule, PowerRatio):  # weight(1 - offset) divides by zero: no such operator on Z
            raise ConstructionError(f"{self.rule} is undefined at index {1 - self.rule.offset}")
        if isinstance(self.rule, PolyRatio):
            # Negative tail would make some weight nonpositive on Z.
            _screen_positive(self.rule.p, -(10**4), 10**4, require_even_degree=True)
        _check_rule_on(self.rule, range(-4, 5))

    @property
    def universe(self) -> AllIntegers:
        return INTS


def _freeze_overrides(overrides) -> tuple[tuple[int, complex], ...]:
    if isinstance(overrides, Mapping):
        items = overrides.items()
    else:
        items = overrides
    frozen = tuple(sorted((int(k), _as_complex(v)) for k, v in items))
    seen = set()
    for k, _ in frozen:
        if k in seen:
            raise ParameterError(f"duplicate diagonal override at index {k}")
        seen.add(k)
    return frozen


@dataclass(frozen=True)
class Diagonal(OperatorSpec):
    """Diagonal operator: constant ``default`` entry with finitely many overrides."""

    universe: IndexUniverse
    default: complex = 1.0 + 0j
    overrides: tuple[tuple[int, complex], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "default", _as_complex(self.default))
        frozen = _freeze_overrides(self.overrides)
        for k, _ in frozen:
            if not self.universe.contains(k):
                raise DomainError(f"diagonal override index {k} outside universe {self.universe}")
        object.__setattr__(self, "overrides", frozen)

    def entry(self, k: int) -> complex:
        for i, v in self.overrides:
            if i == k:
                return v
        return self.default


def identity(universe: IndexUniverse) -> Diagonal:
    return Diagonal(universe, 1.0 + 0j)


@dataclass(frozen=True)
class FiniteMatrix(OperatorSpec):
    """Dense matrix on C^dim, row-major complex entries."""

    entries: tuple[tuple[complex, ...], ...]

    def __post_init__(self) -> None:
        rows = tuple(tuple(_as_complex(v) for v in row) for row in self.entries)
        if not rows or any(len(row) != len(rows) for row in rows):
            raise ParameterError("matrix entries must form a nonempty square array")
        object.__setattr__(self, "entries", rows)

    @property
    def dim(self) -> int:
        return len(self.entries)

    @property
    def universe(self) -> FiniteRange:
        return FiniteRange(self.dim)


def finite_matrix(rows) -> FiniteMatrix:
    return FiniteMatrix(tuple(tuple(row) for row in rows))


@dataclass(frozen=True)
class BlockTZ(OperatorSpec):
    """The 2x2 block operator [[T, T-I], [0, T]] acting on ordered pairs."""

    inner: OperatorSpec


@dataclass(frozen=True)
class DirectSum(OperatorSpec):
    """Block-diagonal sum of finite-dimensional parts on consecutive index blocks."""

    parts: tuple[OperatorSpec, ...]

    def __post_init__(self) -> None:
        parts = tuple(self.parts)
        if not parts:
            raise ParameterError("direct sum needs at least one part")
        for part in parts:
            if spec_dim(part) is None:
                raise UnsupportedVariantError("direct sum supports finite-dimensional parts only")
        object.__setattr__(self, "parts", parts)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(spec_dim(part) for part in self.parts)

    @property
    def universe(self) -> FiniteRange:
        return FiniteRange(sum(self.dims))


@dataclass(frozen=True)
class ScalarMultiple(OperatorSpec):
    """lambda * inner."""

    scalar: complex
    inner: OperatorSpec

    def __post_init__(self) -> None:
        object.__setattr__(self, "scalar", _as_complex(self.scalar))


@dataclass(frozen=True)
class DiagPlusNilpotent(OperatorSpec):
    """Unitary diagonal plus a commuting nilpotent on C^dim.

    Diagonal (lam1 x ell, lam2, lam2, 1 x (dim-ell-2)); the nilpotent sends
    e_i -> (lam1-1) e_{i-1} for 2 <= i <= ell and e_{ell+2} -> (lam2-1) e_{ell+1}.
    The chain length ell fixes the nilpotency order, hence the strictness
    order 2*ell - 1 of the resulting power-norm polynomial.
    """

    dim: int
    ell: int
    lam1: complex
    lam2: complex

    def __post_init__(self) -> None:
        if not (isinstance(self.dim, int) and self.dim >= 4):
            raise ParameterError(f"dim must be an integer >= 4, got {self.dim!r}")
        if not (isinstance(self.ell, int) and 2 <= self.ell <= self.dim - 2):
            raise ParameterError(f"chain length must lie in [2, dim-2], got {self.ell!r}")
        for name in ("lam1", "lam2"):
            z = _as_complex(getattr(self, name))
            if abs(abs(z) - 1.0) > 1e-12:
                raise ParameterError(f"{name} must be unimodular, got {z!r}")
            if z == 1:
                raise ParameterError(f"{name} must differ from 1")
            object.__setattr__(self, name, z)

    @property
    def universe(self) -> FiniteRange:
        return FiniteRange(self.dim)

    def diagonal_entry(self, i: int) -> complex:
        if i <= self.ell:
            return self.lam1
        if i <= self.ell + 2:
            return self.lam2
        return 1.0 + 0j


@dataclass(frozen=True)
class DuplicatingShift(OperatorSpec):
    """(x1, x2, ...) -> (x1, x1, x2, x3, ...) on the 1-based naturals."""

    @property
    def universe(self) -> NatFromOne:
        return NAT


# ---------------------------------------------------------------------------
# structural queries


def spec_universe(spec: OperatorSpec):
    """Universe of plain vectors the spec acts on; BlockTZ reports its inner universe."""
    if isinstance(spec, (BackwardShift, ForwardShift)):
        return spec.universe
    if isinstance(spec, BilateralShift):
        return INTS
    if isinstance(spec, Diagonal):
        return spec.universe
    if isinstance(spec, (FiniteMatrix, DirectSum, DiagPlusNilpotent)):
        return spec.universe
    if isinstance(spec, ScalarMultiple):
        return spec_universe(spec.inner)
    if isinstance(spec, BlockTZ):
        return spec_universe(spec.inner)
    if isinstance(spec, DuplicatingShift):
        return NAT
    raise UnsupportedVariantError(f"unknown operator spec {spec!r}")


def spec_dim(spec: OperatorSpec) -> int | None:
    """Dimension of the plain-vector state space, None when infinite.

    BlockTZ over a d-dimensional inner operator reports 2d (pairs stack).
    """
    if isinstance(spec, FiniteMatrix):
        return spec.dim
    if isinstance(spec, DiagPlusNilpotent):
        return spec.dim
    if isinstance(spec, Diagonal):
        return spec.universe.dim if isinstance(spec.universe, FiniteRange) else None
    if isinstance(spec, (BackwardShift, ForwardShift)):
        return spec.universe.dim if isinstance(spec.universe, FiniteRange) else None
    if isinstance(spec, DirectSum):
        return sum(spec.dims)
    if isinstance(spec, ScalarMultiple):
        return spec_dim(spec.inner)
    if isinstance(spec, BlockTZ):
        d = spec_dim(spec.inner)
        return None if d is None else 2 * d
    return None


def expects_pair(spec: OperatorSpec) -> bool:
    while isinstance(spec, ScalarMultiple):
        spec = spec.inner
    return isinstance(spec, BlockTZ)


def _check_vector(spec: OperatorSpec, x: Vector) -> None:
    if expects_pair(spec):
        if not isinstance(x, PairVec):
            raise DomainError("BlockTZ acts on ordered pairs of vectors")
        if x.universe != spec_universe(spec):
            raise DomainError("pair universe does not match the inner operator")
    else:
        if not isinstance(x, SparseVec):
            raise DomainError("this operator acts on plain sparse vectors")
        if x.universe != spec_universe(spec):
            raise DomainError(f"vector universe {x.universe} does not match operator universe {spec_universe(spec)}")


# ---------------------------------------------------------------------------
# the dispatch point


def apply(spec: OperatorSpec, x: Vector) -> Vector:
    """Exact image of a finitely supported vector under the operator."""
    _check_vector(spec, x)
    return _apply_unchecked(spec, x)


def _apply_unchecked(spec: OperatorSpec, x: Vector) -> Vector:
    if isinstance(spec, BackwardShift):
        out: dict[int, complex] = {}
        for k, v in x.entries.items():
            if k <= 1:
                continue
            w = weight_at(spec.rule, k) * v
            if w != 0:
                out[k - 1] = out.get(k - 1, 0j) + w
        return SparseVec(x.universe, {k: v for k, v in out.items() if v != 0})

    if isinstance(spec, ForwardShift):
        top = spec.universe.dim if isinstance(spec.universe, FiniteRange) else None
        out = {}
        for k, v in x.entries.items():
            if top is not None and k >= top:
                continue
            w = weight_at(spec.rule, k) * v
            if w != 0:
                out[k + 1] = w
        return SparseVec(x.universe, out)

    if isinstance(spec, BilateralShift):
        step = 1 if spec.forward else -1
        out = {}
        for k, v in x.entries.items():
            w = weight_at(spec.rule, k) * v
            if w != 0:
                out[k + step] = w
        return SparseVec(x.universe, out)

    if isinstance(spec, Diagonal):
        out = {}
        for k, v in x.entries.items():
            w = spec.entry(k) * v
            if w != 0:
                out[k] = w
        return SparseVec(x.universe, out)

    if isinstance(spec, FiniteMatrix):
        out = {}
        for j, v in x.entries.items():
            col = j - 1
            for i in range(spec.dim):
                a = spec.entries[i][col]
                if a != 0:
                    out[i + 1] = out.get(i + 1, 0j) + a * v
        return SparseVec(x.universe, {k: v for k, v in out.items() if v != 0})

    if isinstance(spec, BlockTZ):
        t_top = _apply_unchecked(spec.inner, x.top)
        t_bot = _apply_unchecked(spec.inner, x.bottom)
        new_top = vec_add(t_top, vec_sub(t_bot, x.bottom))
        return PairVec(new_top, t_bot)

    if isinstance(spec, DirectSum):
        dims = spec.dims
        out: dict[int, complex] = {}
        offset = 0
        for part, d in zip(spec.parts, dims):
            local = {k - offset: v for k, v in x.entries.items() if offset < k <= offset + d}
            if local:
                sub = SparseVec(FiniteRange(d), local)
                img = _apply_unchecked(part, sub)
                for k, v in img.entries.items():
                    out[k + offset] = v
            offset += d
        return SparseVec(x.universe, out)

    if isinstance(spec, ScalarMultiple):
        return vec_scale(spec.scalar, _apply_unchecked(spec.inner, x))

    if isinstance(spec, DiagPlusNilpotent):
        out = {}
        c1 = spec.lam1 - 1.0
        c2 = spec.lam2 - 1.0
        for i, v in x.entries.items():
            w = spec.diagonal_entry(i) * v
            if w != 0:
                out[i] = out.get(i, 0j) + w
            if 2 <= i <= spec.ell:
                out[i - 1] = out.get(i - 1, 0j) + c1 * v
            elif i == spec.ell + 2:
                out[i - 1] = out.get(i - 1, 0j) + c2 * v
        return SparseVec(x.universe, {k: v for k, v in out.items() if v != 0})

    if isinstance(spec, DuplicatingShift):
        out = {}
        first = x.entries.get(1)
        if first:
            out[1] = first
        for k, v in x.entries.items():
            out[k + 1] = out.get(k + 1, 0j) + v
        return SparseVec(x.universe, {k: v for k, v in out.items() if v != 0})

    raise UnsupportedVariantError(f"apply not implemented for {type(spec).__name__}")


def scale(lam, spec: OperatorSpec) -> ScalarMultiple:
    """Wrap the spec in a scalar multiple; apply(scale(c, S), x) == c * apply(S, x)."""
    return ScalarMultiple(_as_complex(lam), spec)


def adjoint(spec: OperatorSpec) -> OperatorSpec:
    """Hilbert-space adjoint for shifts, diagonals, matrices and their sums."""
    if isinstance(spec, ForwardShift):
        return BackwardShift(spec.universe, reindex_rule(spec.rule, -1))
    if isinstance(spec, BackwardShift):
        return ForwardShift(spec.universe, reindex_rule(spec.rule, +1))
    if isinstance(spec, BilateralShift):
        delta = -1 if spec.forward else +1
        return BilateralShift(reindex_rule(spec.rule, delta), forward=not spec.forward)
    if isinstance(spec, Diagonal):
        return Diagonal(
            spec.universe,
            spec.default.conjugate(),
            tuple((k, v.conjugate()) for k, v in spec.overrides),
        )
    if isinstance(spec, FiniteMatrix):
        d = spec.dim
        return FiniteMatrix(tuple(tuple(spec.entries[j][i].conjugate() for j in range(d)) for i in range(d)))
    if isinstance(spec, ScalarMultiple):
        return ScalarMultiple(spec.scalar.conjugate(), adjoint(spec.inner))
    if isinstance(spec, DirectSum):
        return DirectSum(tuple(adjoint(part) for part in spec.parts))
    raise UnsupportedVariantError(
        f"adjoint unsupported for {type(spec).__name__}; use the FiniteMatrix form instead"
    )


# ---------------------------------------------------------------------------
# dense realization of finite-dimensional specs


def to_matrix(spec: OperatorSpec) -> np.ndarray:
    """Dense complex matrix of a finite-dimensional spec (BlockTZ doubles the size)."""
    if isinstance(spec, FiniteMatrix):
        return np.array(spec.entries, dtype=complex)
    if isinstance(spec, Diagonal):
        if not isinstance(spec.universe, FiniteRange):
            raise UnsupportedVariantError("diagonal on an infinite universe has no dense form")
        d = spec.universe.dim
        m = np.eye(d, dtype=complex) * spec.default
        for k, v in spec.overrides:
            m[k - 1, k - 1] = v
        return m
    if isinstance(spec, DiagPlusNilpotent):
        m = np.zeros((spec.dim, spec.dim), dtype=complex)
        for i in range(1, spec.dim + 1):
            m[i - 1, i - 1] = spec.diagonal_entry(i)
        for i in range(2, spec.ell + 1):
            m[i - 2, i - 1] = spec.lam1 - 1.0
        m[spec.ell, spec.ell + 1] = spec.lam2 - 1.0
        return m
    if isinstance(spec, ScalarMultiple):
        return spec.scalar * to_matrix(spec.inner)
    if isinstance(spec, DirectSum):
        blocks = [to_matrix(part) for part in spec.parts]
        total = sum(b.shape[0] for b in blocks)
        m = np.zeros((total, total), dtype=complex)
        at = 0
        for b in blocks:
            d = b.shape[0]
            m[at : at + d, at : at + d] = b
            at += d
        return m
    if isinstance(spec, BlockTZ):
        a = to_matrix(spec.inner)
        d = a.shape[0]
        m = np.zeros((2 * d, 2 * d), dtype=complex)
        m[:d, :d] = a
        m[:d, d:] = a - np.eye(d)
        m[d:, d:] = a
        return m
    if isinstance(spec, (BackwardShift, ForwardShift)) and isinstance(spec.universe, FiniteRange):
        d = spec.universe.dim
        m = np.zeros((d, d), dtype=complex)
        if isinstance(spec, BackwardShift):
            for k in range(2, d + 1):
                m[k - 2, k - 1] = weight_at(spec.rule, k)
        else:
            for k in range(1, d):
                m[k, k - 1] = weight_at(spec.rule, k)
        return m
    raise UnsupportedVariantError(f"{type(spec).__name__} has no finite dense realization")


# ---------------------------------------------------------------------------
# descriptions


def _fmt_complex(z: complex) -> str:
    if z.imag == 0:
        return repr(z.real)
    return f"{z.real!r}{'+' if z.imag >= 0 else '-'}{abs(z.imag)!r}i"


def describe(spec: OperatorSpec) -> str:
    """Deterministic one-line description used in reports and witnesses."""
    if isinstance(spec, BackwardShift):
        return f"backward_shift({spec.universe},{spec.rule})"
    if isinstance(spec, ForwardShift):
        return f"forward_shift({spec.universe},{spec.rule})"
    if isinstance(spec, BilateralShift):
        direction = "fwd" if spec.forward else "bwd"
        return f"bilateral_shift({direction},{spec.rule})"
    if isinstance(spec, Diagonal):
        parts = [f"default={_fmt_complex(spec.default)}"]
        if spec.overrides:
            parts.append("overrides=" + ";".join(f"{k}:{_fmt_complex(v)}" for k, v in spec.overrides))
        return f"diagonal({spec.universe},{','.join(parts)})"
    if isinstance(spec, FiniteMatrix):
        rows = ";".join("[" + ",".join(_fmt_complex(v) for v in row) + "]" for row in spec.entries)
        return f"matrix({rows})"
    if isinstance(spec, BlockTZ):
        return f"block_tz({describe(spec.inner)})"
    if isinstance(spec, DirectSum):
        return "direct_sum(" + ",".join(describe(p) for p in spec.parts) + ")"
    if isinstance(spec, ScalarMultiple):
        return f"scale({_fmt_complex(spec.scalar)},{describe(spec.inner)})"
    if isinstance(spec, DiagPlusNilpotent):
        return (
            f"diag_plus_nilpotent(dim={spec.dim},ell={spec.ell},"
            f"lam1={_fmt_complex(spec.lam1)},lam2={_fmt_complex(spec.lam2)})"
        )
    if isinstance(spec, DuplicatingShift):
        return "duplicating_shift()"
    return repr(spec)


def describe_vector(x: Vector) -> str:
    if isinstance(x, PairVec):
        return f"pair({describe_vector(x.top)};{describe_vector(x.bottom)})"
    if not x.entries:
        return "0"
    return "+".join(f"({_fmt_complex(v)})e[{k}]" for k, v in sorted(x.entries.items()))
