"""Mixing/chaos criteria for shifts, hypercyclicity coverage, ergodic probes.

Density and convergence are never certified here: coverage reports and
Cauchy tests are evidence at desk scale.  Ergodic probes exploit structure
where it is exact (a backward-shift orbit of a finitely supported vector
dies in finitely many steps, and inner products along one-directional
shift orbits vanish once the support has moved past the test vector), so
dyadic Cauchy ladders up to 2^20 cost almost nothing in those cases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    INTS,
    NAT,
    OperatorSpec,
    PairVec,
    ParameterError,
    PolyRatio,
    Polynomial,
    PowerRatio,
    SparseVec,
    expects_pair,
    log_weight_product,
    p_norm,
    weight_product,
)
from .powers import CesaroSum, fixed_frame, make_orbit, shift_direction
from .classify import DEFAULT_SEED, ProbeConfig, probe_vectors

__all__ = [
    "MixingVerdict",
    "ChaosVerdict",
    "CoverageReport",
    "ErgodicVerdict",
    "mixing_criterion_backward_shift",
    "chaos_criterion_shift_adjoint",
    "hypercyclicity_probe",
    "balanced_witness",
    "circle_cell_count",
    "mean_ergodic_probe",
    "weak_ergodic_probe",
    "ergodic_family",
]

MIXING_TOL = 1e-2
MIXING_N_CLOSED = 2**40
MIXING_N_NUMERIC = 2**20
SUMMABILITY_TERMS = 10**4
TAIL_NODES = 32  # Gauss-Legendre nodes per piece of the summability tail's quadrature
CAUCHY_REL_TOL = 1e-6
HC_CHUNK = 2**16  # pairings binned per numpy pass: 1 MiB of complex values
# Equal doubles that an extended-precision sum adds exactly: 2^11 with an x87 long double.
_EXACT_ROWS = 2 ** max(np.finfo(np.longdouble).nmant - np.finfo(float).nmant, 6)


@dataclass(frozen=True)
class MixingVerdict:
    status: str  # "mixing_evidence" | "fails"
    samples: tuple[tuple[int, float], ...]  # (n, inverse weight product)
    closed_form: bool

    def to_dict(self) -> dict:
        return {"status": self.status, "samples": [list(s) for s in self.samples], "closed_form": self.closed_form}


@dataclass(frozen=True)
class ChaosVerdict:
    status: str  # "chaotic" | "mixing_only" | "neither"
    degree: int
    summability: dict | None

    def to_dict(self) -> dict:
        return {"status": self.status, "degree": self.degree, "summability": self.summability}


@dataclass(frozen=True)
class CoverageReport:
    region_half_width: float
    cell_size: float
    hits: frozenset
    coverage_fraction: float
    n_used: int
    orbit_magnitude_max: float

    def cells_per_side(self) -> int:
        return int(math.ceil(2.0 * self.region_half_width / self.cell_size))

    def to_dict(self, verbose: bool = False) -> dict:
        out = {
            "region_half_width": self.region_half_width,
            "cell_size": self.cell_size,
            "hit_count": len(self.hits),
            "coverage_fraction": self.coverage_fraction,
            "n_used": self.n_used,
            "orbit_magnitude_max": self.orbit_magnitude_max,
        }
        if verbose:
            out["hits"] = sorted([list(c) for c in self.hits])
        return out


@dataclass(frozen=True)
class ErgodicVerdict:
    mode: str  # "mean" | "weak"
    status: str  # "converged" | "diverged" | "inconclusive"
    limit_estimate: object
    final_gap: float
    gaps: tuple[tuple[int, float], ...]  # doubling gaps (M_2n vs M_n)
    parity_gaps: tuple[tuple[int, float], ...] = ()  # consecutive gaps (M_{n+1} vs M_n)

    def to_dict(self) -> dict:
        limit = self.limit_estimate
        if isinstance(limit, complex):
            limit = [limit.real, limit.imag]
        return {
            "mode": self.mode,
            "status": self.status,
            "limit_estimate": limit,
            "final_gap": self.final_gap,
            "gaps": [list(g) for g in self.gaps],
            "parity_gaps": [list(g) for g in self.parity_gaps],
        }


# ---------------------------------------------------------------------------
# mixing / chaos criteria


def _dyadic_upto(n_max: int) -> list[int]:
    out = []
    n = 1
    while n <= n_max:
        out.append(n)
        n *= 2
    return out


def mixing_criterion_backward_shift(rule, n_max: int | None = None) -> MixingVerdict:
    """Inverse partial weight products at dyadic n; evidence when they sink below 1e-2.

    Every rule reads its products in closed form (``weight_product``): PowerRatio
    and PolyRatio rules telescope, so the dyadic ladder extends to 2^40;
    explicit weight lists sum their logs, and stop at 2^20.  The verdict reads
    the extended-precision logs (``log_weight_product``), which never
    saturate: the last inverse must sink below the tolerance, and the last
    three must strictly decrease, even where the samples saturate to 0 or inf.
    """
    closed = isinstance(rule, (PowerRatio, PolyRatio))
    if n_max is None:
        n_max = MIXING_N_CLOSED if closed else MIXING_N_NUMERIC
    start = max(1, 2 - rule.offset) if isinstance(rule, PowerRatio) else 1
    samples = []
    log_inverses = []
    for n in _dyadic_upto(n_max):
        count = max(n - start + 1, 0)
        product = weight_product(rule, start, count)
        samples.append((n, 1.0 / product if product else math.inf))  # a product that underflows has no finite inverse
        log_inverses.append(-log_weight_product(rule, start, count))
    tail = log_inverses[-3:]
    decreasing = all(a > b for a, b in zip(tail, tail[1:]))
    status = "mixing_evidence" if log_inverses[-1] < math.log(MIXING_TOL) and decreasing else "fails"
    return MixingVerdict(status, tuple(samples), closed)


def chaos_criterion_shift_adjoint(p: Polynomial, side: str = "unilateral") -> ChaosVerdict:
    """Dynamics of the adjoint of the shift with weight(k)^2 = p(k+1)/p(k).

    The analytic rule is driven by deg p (the shift is a strict (deg p + 1)-
    isometry): degree >= 2 gives a chaotic adjoint, degree 1 mixing only,
    degree 0 neither.  For the unilateral case a summability witness
    sum p(1)/p(n+1) is reported: its first N = SUMMABILITY_TERMS terms, and
    `tail_bound`, an upper bound on the rest: the integral test's integral,
    rounded up by a proven bound on its quadrature and rounding errors
    (`_summability_tail`).
    Where no bound is proven (degree < 2, or p not increasing past N + 1)
    the tail bound is inf; `converges` follows the degree alone.  A term whose
    p(n + 1) overflows in floats (at degree 400, from n = 5 on) reads 0: its
    exact value is below p(1)/1.8e308, and all 10^4 such terms together lie
    under half an ulp of the partial sum, whose first term is p(1)/p(2),
    wherever p(2) < 1e288.
    """
    if side not in ("unilateral", "bilateral"):
        raise ParameterError(f"side must be unilateral or bilateral, got {side!r}")
    from .isometry import shift_from_polynomial

    shift_from_polynomial(p, "forward", INTS if side == "bilateral" else NAT)
    degree = p.degree
    if degree >= 2:
        status = "chaotic"
    elif degree == 1:
        status = "mixing_only"
    else:
        status = "neither"
    summability = None
    if side == "unilateral":
        p1 = p(1.0)
        ns = np.arange(1, SUMMABILITY_TERMS + 1, dtype=float)
        with np.errstate(over="ignore"):  # an overflowing p(n + 1) gives its term 0 (see above)
            terms = p1 / p(ns + 1.0)
        partial = float(math.fsum(terms.tolist()))
        summability = {
            "partial_sum": partial,
            "terms": SUMMABILITY_TERMS,
            "tail_bound": _summability_tail(p, SUMMABILITY_TERMS) if degree >= 2 else math.inf,
            "converges": degree >= 2,
        }
    return ChaosVerdict(status, degree, summability)


def _ratio_down(num: int, den: int) -> float:
    """num/den for integers num >= 0 < den, as the largest float not above it."""
    x = num / den  # correctly rounded
    n, q = x.as_integer_ratio()
    return math.nextafter(x, 0.0) if n * den > num * q else x


def _summability_tail(p: Polynomial, terms: int) -> float:
    """Upper bound on sum_{n > N} p(1)/p(n+1), N = terms, for deg p = d >= 2; inf where none is proven.

    Integral test.  Let a = N + 1 and p(a + z) = sum b_k z^k, computed
    exactly: the float coefficients are dyadic rationals over one common
    power of two, shifted in integers.  If b_0 > 0 and b_k >= 0 for k >= 1,
    p is positive and increasing on [a, oo), so f(t) = p(1)/p(t+1)
    decreases on [N, oo) and f(n) <= int_{n-1}^{n} f for every n > N: the
    tail is at most J = int_N^oo f = p(1) int_0^oo dz/p(a+z).  Otherwise
    inf is returned.

    Scaling.  z = 2^s w, with 2^(sd) near b_0/b_d, gives
    J = p(1)/(b_d 2^(s(d-1))) * int_0^oo dw/Q(w), Q = sum c_k w^k, c_d = 1.
    Each c_k is rounded toward 0 into Q', so Q' <= Q on [0, oo) and
    I' = int_0^oo dw/Q'(w) bounds the integral.  Q' has nonnegative
    coefficients, so where |arg w| <= pi/(2d) every term c_k w^k lies within
    pi/4 of the direction (d/2) arg w, and |Q'(w)| >= Q'(|w|)/sqrt(2) > 0.

    Pieces.  On [0, eps], 1/Q' <= 1/c_0; on [Z, oo), Q'(w) >= w^d: the two
    ends add eps/c_0 and Z^(1-d)/(d-1), and the powers of two eps and Z are
    chosen so that both are below 2^-52/Q'(1) <= 2^-52 I'.  [eps, Z] is
    split into geometric pieces [c-h, c+h] with h/c <= beta =
    sin(pi/(2d))/(5/4), so the Bernstein ellipse E_2 of a piece (semi-axes
    5h/4 and 3h/4) lies in the disk |w - c| <= c sin(pi/(2d)): inside the
    sector above, with |w| >= c (1 - sin(pi/(2d))), where
    |1/Q'(w)| <= M = sqrt(2)/Q'(c (1 - sin(pi/(2d)))).

    Rule error.  A function analytic on E_rho and bounded by M there has
    Chebyshev coefficients |a_k| <= 2M rho^-k.  The n-point Gauss-Legendre
    rule (Golub and Welsch, Math. Comp. 23, 1969) integrates T_k exactly
    for k < 2n and for odd k, and misses an even T_k by at most
    2 + 2/(k^2 - 1).  On a piece its error is therefore at most
    4hM (1 + 1/(4n^2 - 1)) rho^-2n / (1 - rho^-2), under 6hM 2^-64 for
    rho = 2 and n = TAIL_NODES = 32.

    Rounding.  u = 2^-53.  numpy's leggauss nodes lie within 2^-52 of the
    Gauss nodes and its weights within 2^-42 relative of the Gauss weights
    (checked to 60 digits in the tests).  A computed node is then within
    5u relative of its place (h <= 1.31 (c - h)), and Q'(lw) >= l^d Q'(w)
    for l <= 1, so 1/Q' there is off by a factor at most 1 + 6du; Horner's
    2d roundings of positive terms and the division add 1 + (2d+2)u, the
    positive weighted sum and the factor h 1 + (n+2)u.  Rounding c and h
    moves each piece's ends by at most u of their size, leaving gaps that
    hold at most (1 + r) u r/(r-1) I', r = (1+beta)/(1-beta) the pieces'
    ratio.  The sum of the rule values, the rule errors and the two ends
    is raised by (16d + 2n + 12 r/(r-1) + 32) u + 2^-42, over twice these
    relative errors with the sums' own roundings; the rule errors take
    M = 2/Q', which covers their own roundings.  The prefactor is an
    exact integer ratio m 2^e with m in (1/2, 2): m is moved up one ulp,
    then the product, then its scaling by 2^e, which may round into
    subnormals.  Where eps or Q'(Z) leaves [2^-960, 2^960], or a value
    leaves the float range, inf is returned.
    """
    a = terms + 1
    ratios = [c.as_integer_ratio() for c in p.coefficients]
    den = max(q for _, q in ratios)
    b = [num * (den // q) for num, q in ratios]
    p1 = sum(b)  # p(1) times the common denominator, as are the b_k
    d = len(b) - 1
    for i in range(d):  # Taylor shift by a (repeated Horner), exact in integers
        for j in range(d - 1, i - 1, -1):
            b[j] += a * b[j + 1]
    if b[0] <= 0 or min(b) < 0:
        return math.inf
    s = (b[0].bit_length() - b[d].bit_length()) // d  # c_0 = b_0/(b_d 2^(sd)) lies in [1/2, 2^(d+1))
    try:
        c = [_ratio_down(b[k] << max(s * (k - d), 0), b[d] << max(s * (d - k), 0)) for k in range(d + 1)]
        log_q1 = math.log2(math.fsum(c))  # Q'(1) >= c_d = 1
    except OverflowError:  # a coefficient, or Q'(1), beyond the float range
        return math.inf
    eps = math.ldexp(1.0, math.floor(math.log2(c[0]) - 52 - log_q1))  # eps/c_0 <= 2^-52/Q'(1)
    top = math.ceil((52 + log_q1 - math.log2(d - 1)) / (d - 1))  # Z = 2^top: Z^(1-d)/(d-1) <= 2^-52/Q'(1)
    if not (eps > 2.0**-960 and log_q1 + d * top < 960):  # Q'(Z) <= Q'(1) Z^d
        return math.inf
    sin = math.sin(math.pi / (2 * d))
    beta = sin / 1.25 * (1.0 - 2.0**-20)  # the margin absorbs the roundings of sin and of the piece ends
    count = math.ceil(math.log(math.ldexp(1.0, top) / eps) / math.log1p(2.0 * beta / (1.0 - beta)))
    ends = np.geomspace(eps, math.ldexp(1.0, top), count + 1)
    mid, half = (ends[1:] + ends[:-1]) / 2.0, (ends[1:] - ends[:-1]) / 2.0

    def q(w: np.ndarray) -> np.ndarray:  # Q'(w) by Horner: every term is nonnegative
        acc = np.ones_like(w)
        for ck in c[-2::-1]:
            acc = acc * w + ck
        return acc

    # resolved here, not at import: importing numpy.polynomial costs milliseconds that no other command needs
    x, weights = np.polynomial.legendre.leggauss(TAIL_NODES)
    rule = half * ((1.0 / q(mid[:, None] + half[:, None] * x)) @ weights)
    errors = 12.0 * 2.0**-64 * half / q(mid * (1.0 - sin))  # 6 h M 2^-64, M = 2/Q'(c (1 - sin))
    outer = [eps / c[0], math.ldexp(1.0, top * (1 - d)) / (d - 1)]  # [0, eps] and [Z, oo)
    slack = (16 * d + 2 * TAIL_NODES + 6 * (1.0 + beta) / beta + 32) * 2.0**-53 + 2.0**-42
    total = math.fsum(outer + rule.tolist() + errors.tolist()) * (1.0 + slack)
    e = p1.bit_length() - b[d].bit_length()
    m = (p1 << max(-e, 0)) / (b[d] << max(e, 0))  # the prefactor p(1)/(b_d 2^(s(d-1))) is m 2^(e - s(d-1))
    up = math.nextafter
    try:
        return up(math.ldexp(up(up(m, math.inf) * total, math.inf), e - s * (d - 1)), math.inf)
    except OverflowError:  # the bound itself is beyond the float range
        return math.inf


# ---------------------------------------------------------------------------
# numerical hypercyclicity


def balanced_witness(spec, seed: int = DEFAULT_SEED) -> SparseVec:
    """Seeded unit witness for the coverage probe of a dim-4-style construction.

    For chain length 2 the pairing values n(c lam1^(n-1) + d lam2^(n-1)) + O(1)
    re-enter a fixed window infinitely often only when |c| = |d|; the seeded
    entries are rescaled to balance the two block coefficients exactly.
    """
    from .core import DiagPlusNilpotent, FiniteRange, make_vector

    if not isinstance(spec, DiagPlusNilpotent):
        raise ParameterError("balanced_witness expects the diagonal-plus-nilpotent construction")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    raw = rng.standard_normal(2 * spec.dim)
    vals = [complex(raw[2 * i], raw[2 * i + 1]) for i in range(spec.dim)]
    if spec.ell == 2:
        i1, i2 = 1, 2  # zero-based positions of e2 and e_{ell+1}
        j2 = 3  # e_{ell+2}
        c = abs(spec.lam1 - 1.0) * abs(vals[i1]) * abs(vals[0])
        d_unit = abs(spec.lam2 - 1.0) * abs(vals[i2])
        vals[j2] = vals[j2] / abs(vals[j2]) * (c / d_unit)
    vec = make_vector(FiniteRange(spec.dim), list(enumerate(vals, start=1)))
    norm = p_norm(vec, 2)
    return make_vector(FiniteRange(spec.dim), [(k, v / norm) for k, v in vec.entries.items()])


def circle_cell_count(r: float, cell: float, radius: float = 1.0) -> int:
    """Number of grid cells of the coverage region intersecting |z| = radius."""
    per_side = int(math.ceil(2.0 * r / cell))
    count = 0
    for i in range(per_side):
        x0 = -r + i * cell
        x1 = x0 + cell
        for j in range(per_side):
            y0 = -r + j * cell
            y1 = y0 + cell
            dx = 0.0 if x0 <= 0.0 <= x1 else min(abs(x0), abs(x1))
            dy = 0.0 if y0 <= 0.0 <= y1 else min(abs(y0), abs(y1))
            dmin = math.hypot(dx, dy)
            dmax = math.hypot(max(abs(x0), abs(x1)), max(abs(y0), abs(y1)))
            if dmin <= radius <= dmax:
                count += 1
    return count


def hypercyclicity_probe(spec: OperatorSpec, x, y, n_max: int, r: float = 40.0, cell: float = 1.0) -> CoverageReport:
    """Grid coverage of the pairing values <T^n x, y> for n = 0..n_max.

    Values are binned into the [-r, r]^2 grid; coverage is the hit fraction.
    Evidence only: a fixed window sees a prefix of an unbounded orbit, and the
    report records the max orbit magnitude so callers can rescale r.  Calls
    on one fixed frame read one power stack (``make_orbit``).
    """
    if n_max < 1:
        raise ParameterError("n_max must be >= 1")
    if r <= 0 or cell <= 0:
        raise ParameterError("region half-width and cell size must be positive")
    per_side = int(math.ceil(2.0 * r / cell))
    orbit = make_orbit(spec, x, n_max)
    hits: set[tuple[int, int]] = set()
    mag_max = 0.0
    values = np.array([orbit.inner_with(y)])
    done = 0
    while len(values):
        mag_max = max(mag_max, float(np.abs(values).max()))
        re, im = values.real, values.imag
        inside = (-r <= re) & (re < r) & (-r <= im) & (im < r)
        cols = ((re[inside] + r) // cell).astype(int)
        rows = ((im[inside] + r) // cell).astype(int)
        hits.update(zip(cols.tolist(), rows.tolist()))
        # a dead orbit's later pairings are zero, the value its last state already binned
        values = orbit.inners(y, min(n_max - done, HC_CHUNK))
        done += len(values)
    fraction = len(hits) / float(per_side * per_side)
    return CoverageReport(r, cell, frozenset(hits), fraction, n_max, mag_max)


# ---------------------------------------------------------------------------
# ergodic probes


def _family_converged(gaps: list[tuple[int, float]], threshold: float) -> bool:
    if not gaps:
        return True
    final = gaps[-1][1]
    tail = [g for _, g in gaps[-3:]]
    trending = all(a >= b for a, b in zip(tail, tail[1:])) or all(g <= threshold for g in tail)
    return final <= threshold and trending


def _family_diverged(gaps: list[tuple[int, float]], threshold: float) -> bool:
    if not gaps:
        return False
    final = gaps[-1][1]
    tail = [g for _, g in gaps[-3:]]
    peak = max(g for _, g in gaps)
    return peak > 0 and min(tail) >= 0.1 * peak and final > threshold


def _cauchy_verdict(
    mode: str,
    gaps: list[tuple[int, float]],
    parity_gaps: list[tuple[int, float]],
    limit_estimate,
    limit_size: float,
) -> ErgodicVerdict:
    """Convergence needs both gap families small; either one persisting means divergence.

    The doubling family alone can alias parity oscillations (powers of two are
    all even), which is exactly what the consecutive family catches.
    """
    final = gaps[-1][1] if gaps else 0.0
    threshold = CAUCHY_REL_TOL * (1.0 + limit_size)
    if _family_converged(gaps, threshold) and _family_converged(parity_gaps, threshold):
        status = "converged"
    elif _family_diverged(gaps, threshold) or _family_diverged(parity_gaps, threshold):
        status = "diverged"
    else:
        status = "inconclusive"
    return ErgodicVerdict(mode, status, limit_estimate, final, tuple(gaps), tuple(parity_gaps))


def mean_ergodic_probe(spec: OperatorSpec, x, n_max: int = 2**14, p: float = 2.0) -> ErgodicVerdict:
    """Cauchy test on ||M_{2n} x - M_n x||_p across dyadic n <= n_max.

    Once the orbit state is exactly zero the running sum is frozen and the
    remaining dyadic means are scalar multiples of it, so the ladder finishes
    analytically.  Probes of one fixed frame read one power stack
    (``make_orbit``).  A mean that is not finite raises FloatingPointError
    naming its n.
    """
    if n_max < 8:
        raise ParameterError("n_max must be >= 8")
    dyadic = _dyadic_upto(n_max)
    checkpoints = sorted(set(dyadic) | {n + 1 for n in dyadic if n + 1 <= n_max})
    acc = CesaroSum(spec, x, n_max)
    means = {}  # dyadic means still waiting for M_{n+1} or M_{2n}
    gaps = []
    parity_gaps = []
    for n in checkpoints:
        with np.errstate(over="ignore", invalid="ignore"):
            acc.advance_to(n)
            mean = acc.mean()
        if not np.isfinite(mean.view(float)).all():  # parts as doubles: numpy's complex isfinite is slower
            raise FloatingPointError(f"M_n x is not finite at n={n}: the orbit overflows")
        if n - 1 in means:
            parity_gaps.append((n - 1, acc.gap(mean, means[n - 1], p)))
        if n % 2 == 0 and n // 2 in means:
            gaps.append((n // 2, acc.gap(mean, means.pop(n // 2), p)))
        if n & (n - 1) == 0:
            means[n] = mean
    limit_norm = acc.gap(mean, 0.0, p)
    return _cauchy_verdict("mean", gaps, parity_gaps, limit_norm, limit_norm)


def _inner_stream_stop(spec: OperatorSpec, x, y) -> int | None:
    """Index beyond which <T^k x, y> is structurally zero, if detectable."""
    direction = shift_direction(spec)
    if direction is None:
        return None
    margin = 2 if expects_pair(spec) else 0

    def bounds(v):
        if isinstance(v, PairVec):
            supp = v.top.support() + v.bottom.support()
        else:
            supp = v.support()
        if not supp:
            return None
        return min(supp), max(supp)

    bx, by = bounds(x), bounds(y)
    if bx is None or by is None:
        return 0
    if direction > 0:
        stop = by[1] - bx[0]
    else:
        stop = bx[1] - by[0]
    return max(stop + margin, 0)


def weak_ergodic_probe(spec: OperatorSpec, x, y, n_max: int = 2**14) -> ErgodicVerdict:
    """Cauchy test on <M_n(T) x, y> across dyadic n <= n_max.

    A fixed frame pairs y with its Cesàro sums (``CesaroSum.inner``).  A
    translating frame adds its pairing stream <T^k x, y> to a compensated
    sum; for one-directional shifts (and their BlockTZ extensions) it
    vanishes once the orbit support passes y, so the partial sums freeze and
    the remaining checkpoints are evaluated analytically.  A pairing that is
    not finite raises FloatingPointError naming its index.
    """
    if n_max < 8:
        raise ParameterError("n_max must be >= 8")
    dyadic = _dyadic_upto(n_max)
    checkpoints = sorted(set(dyadic) | {n + 1 for n in dyadic if n + 1 <= n_max})
    mus: dict[int, complex] = {}
    if fixed_frame(spec):
        acc = CesaroSum(spec, x, n_max)
        for n in checkpoints:
            with np.errstate(over="ignore", invalid="ignore"):
                acc.advance_to(n)
                mus[n] = acc.inner(y)
            if not np.isfinite(mus[n]):
                raise FloatingPointError(f"<M_n x, y> is not finite at n={n}: the orbit overflows")
    else:
        stop = _inner_stream_stop(spec, x, y)
        hard_stop = n_max if stop is None else min(stop, n_max)
        orbit = make_orbit(spec, x, hard_stop)
        total = orbit.inner_with(y)
        comp = 0j
        stepped = 0
        for n in checkpoints:
            values = orbit.inners(y, min(n, hard_stop) - stepped)
            stepped += len(values)
            total, comp = _compensated_add(total, comp, values)
            mus[n] = complex(total) / (n + 1)
    gaps = [(n, abs(mus[2 * n] - mus[n])) for n in dyadic if 2 * n in mus]
    parity_gaps = [(n, abs(mus[n + 1] - mus[n])) for n in dyadic if n + 1 in mus]
    limit = mus[checkpoints[-1]]
    return _cauchy_verdict("weak", gaps, parity_gaps, limit, abs(limit))


def _compensated_add(total, comp, values: np.ndarray):
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
        t = total + hi
        bb = t - total
        low = ((exact - hi).astype(complex) + ((total - (t - bb)) + (hi - bb))) - comp  # total + hi == t + rounding error, exactly
        total = t + low
        comp = (total - t) - low
    return total, comp


def ergodic_family(spec: OperatorSpec, mode: str, n_max: int, seed: int = DEFAULT_SEED):
    """Mean or weak ladder over a small probe family, and the family's overall status.

    Returns (status, [(label, verdict), ...]); any diverged probe makes the
    family diverged, and it converges only when every probe converges.  The
    probes of a fixed frame read one power table, built for the first probe.
    """
    if mode not in ("mean", "weak"):
        raise ParameterError(f"mode must be mean or weak, got {mode!r}")
    results = [
        (label, mean_ergodic_probe(spec, x, n_max) if mode == "mean" else weak_ergodic_probe(spec, x, x, n_max))
        for label, x in probe_vectors(spec, ProbeConfig(basis_probes=4, seeded_probes=4, seed=seed))
    ]
    statuses = [v.status for _, v in results]
    if "diverged" in statuses:
        return "diverged", results
    if all(s == "converged" for s in statuses):
        return "converged", results
    return "inconclusive", results
