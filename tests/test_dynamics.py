import cmath
import math
import warnings
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from cesarolab.core import (
    INTS,
    NAT,
    BackwardShift,
    BilateralShift,
    BlockTZ,
    ConstructionError,
    Diagonal,
    DiagPlusNilpotent,
    Explicit,
    FiniteMatrix,
    FiniteRange,
    PairVec,
    ParameterError,
    PolyRatio,
    Polynomial,
    PowerRatio,
    basis_vector,
    identity,
    make_vector,
    p_norm,
)
from cesarolab.dynamics import (
    SUMMABILITY_TERMS,
    TAIL_NODES,
    balanced_witness,
    chaos_criterion_shift_adjoint,
    circle_cell_count,
    hypercyclicity_probe,
    mean_ergodic_probe,
    mixing_criterion_backward_shift,
    weak_ergodic_probe,
)
LAM1, LAM2 = cmath.exp(1j), cmath.exp(1j * math.sqrt(2))
HYPER4 = DiagPlusNilpotent(4, 2, LAM1, LAM2)
ASSANI = FiniteMatrix(((-1.0, 2.0), (0.0, -1.0)))
U2 = FiniteRange(2)


# ---------------------------------------------------------------------------
# mixing


def test_mixing_power_ratio_closed_form():
    verdict = mixing_criterion_backward_shift(PowerRatio(0.25, 0))
    assert verdict.status == "mixing_evidence"
    assert verdict.closed_form
    for n, value in verdict.samples:
        if n >= 2:
            assert value == pytest.approx(float(n) ** -0.25, rel=1e-12)


def test_mixing_unit_weights_fails():
    verdict = mixing_criterion_backward_shift(Explicit((), 1.0))
    assert verdict.status == "fails"
    assert verdict.samples[-1][1] == 1.0


def test_mixing_poly_ratio():
    verdict = mixing_criterion_backward_shift(PolyRatio(Polynomial((0.0, 1.0))))
    assert verdict.status == "mixing_evidence"
    for n, value in verdict.samples:
        assert value == pytest.approx(1.0 / math.sqrt(n + 1.0), rel=1e-12)


def test_mixing_reads_inf_where_the_products_underflow():
    # n^-30 and 2^5 0.9^(n - 5) underflow to 0 long before 2^40 and 2^20: their inverses read inf
    for rule in (PowerRatio(-30.0, 0), Explicit((2.0,) * 5, 0.9)):
        verdict = mixing_criterion_backward_shift(rule)
        assert verdict.status == "fails"
        assert verdict.samples[-1][1] == math.inf
    explicit = mixing_criterion_backward_shift(Explicit((2.0,) * 5, 0.9))
    for n, value in explicit.samples[:8]:
        assert value == pytest.approx(2.0 ** -min(n, 5) * 0.9 ** -max(n - 5, 0), rel=1e-12)


def test_mixing_reads_products_that_overflow_through_their_logs():
    # P_n = n^30 overflows from n = 2^35 on, so its inverse reads 0.0 there; the verdict reads log P_n = 30 log n
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        verdict = mixing_criterion_backward_shift(PowerRatio(30.0, 0))
    assert verdict.status == "mixing_evidence"
    assert [v for _, v in verdict.samples[-6:]] == [0.0] * 6
    for n, value in verdict.samples[:30]:
        assert value == pytest.approx(float(n) ** -30.0, rel=1e-12)


def test_mixing_agrees_with_chaos_overlap():
    # degree >= 1 families must show mixing evidence for the adjoint weights
    for coeffs in [(0.0, 1.0), (0.0, 0.0, 1.0), (0.0, 0.0, 0.0, 1.0)]:
        verdict = mixing_criterion_backward_shift(PolyRatio(Polynomial(coeffs)))
        assert verdict.status == "mixing_evidence"


# ---------------------------------------------------------------------------
# chaos


def test_chaos_degree_rules():
    chaotic = chaos_criterion_shift_adjoint(Polynomial((0.0, 0.0, 1.0)))
    assert chaotic.status == "chaotic"
    assert chaotic.summability["converges"]
    assert chaotic.summability["tail_bound"] < 1e-3
    mixing_only = chaos_criterion_shift_adjoint(Polynomial((0.0, 1.0)))
    assert mixing_only.status == "mixing_only"
    assert not mixing_only.summability["converges"]
    neither = chaos_criterion_shift_adjoint(Polynomial((1.0,)))
    assert neither.status == "neither"


def test_chaos_summability_partial_sum_oracle():
    # sum of p(1)/p(n+1) = sum 1/(n+1)^2 = pi^2/6 - 1
    verdict = chaos_criterion_shift_adjoint(Polynomial((0.0, 0.0, 1.0)))
    total = verdict.summability["partial_sum"] + verdict.summability["tail_bound"]
    assert verdict.summability["partial_sum"] < math.pi**2 / 6 - 1 <= total


def _alternating(x, powers, count=7):
    # sum_{k < count} (-1)^k x^powers(k) / powers(k), ending on a positive term: above the alternating series' limit
    return sum(Fraction((-1) ** k) * x ** powers(k) / powers(k) for k in range(count))


_A = SUMMABILITY_TERMS + 1
# p -> the exact int_N^oo p(1)/p(t+1) dt, N = SUMMABILITY_TERMS (from above where it is a series)
_EXACT_TAILS = [((0.0,) * d + (1.0,), Fraction(1, (d - 1) * _A ** (d - 1))) for d in range(2, 7)] + [
    ((0.0, 1.0, 0.0, 1.0), _alternating(Fraction(1, _A**2), lambda k: k + 1)),  # t + t^3: log(1 + 1/a^2)
    ((1.0, 0.0, 1.0), 2 * _alternating(Fraction(1, _A), lambda k: 2 * k + 1)),  # 1 + t^2: 2 atan(1/a)
    ((1.0, 2.0, 1.0), Fraction(4, _A + 1)),  # (t + 1)^2
    ((0.0, 0.0, 1.0, 1.0), 2 * _alternating(Fraction(1, _A), lambda k: k + 2)),  # t^2 + t^3: 2/a - 2 log(1 + 1/a)
    # (t - 10000.5)^2: p(a + z) = (z + 1/2)^2, a double root half a unit below a; 2 p(1)
    ((100010000.25, -20001.0, 1.0), 2 * Fraction(99990000.25)),
]
_PI = 4 * (
    4 * _alternating(Fraction(1, 5), lambda k: 2 * k + 1, 41) - _alternating(Fraction(1, 239), lambda k: 2 * k + 1, 41)
)  # Machin's formula, to 1e-50
_ATAN_HALF = _alternating(Fraction(1, 2), lambda k: 2 * k + 1, 81)  # to 1e-50
# (t - 10000.5)^2 + 1: p(a + z) = (z + 1/2)^2 + 1, roots -1/2 +- i; p(1) (pi/2 - atan(1/2))
_EXACT_TAILS.append(((100010001.25, -20001.0, 1.0), Fraction(99990001.25) * (_PI / 2 - _ATAN_HALF)))
with localcontext(prec=60):  # t^2 + 10^6 t, whose root -10^6 lies past a: (1 + 10^-6) log(1 + 10^6/a), to 1e-58
    _EXACT_TAILS.append(((0.0, 1e6, 1.0), Fraction(Decimal(1000001) / 10**6 * (1 + Decimal(10**6) / _A).ln())))


@pytest.mark.parametrize("coefficients, exact", _EXACT_TAILS, ids=[str(c) for c, _ in _EXACT_TAILS])
def test_chaos_tail_bound_is_the_integral_rounded_up(coefficients, exact):
    p = Polynomial(coefficients)
    tail = chaos_criterion_shift_adjoint(p).summability["tail_bound"]
    assert exact <= Fraction(tail) <= exact * (1 + Fraction(1, 10**12))
    assert exact * (1 + Fraction(1, 2**42)) <= Fraction(tail)  # the allowance for leggauss's weights is in the bound
    ns = np.arange(SUMMABILITY_TERMS + 1, SUMMABILITY_TERMS + 10**6 + 1, dtype=float)
    assert math.fsum((p(1.0) / p(ns + 1.0)).tolist()) <= tail


def test_chaos_tail_bound_is_infinite_where_p_is_not_increasing():
    # (t - 20000)^2 + 1 is positive on the naturals but falls on [N + 1, 20000]: no integral bound is claimed
    verdict = chaos_criterion_shift_adjoint(Polynomial((400000001.0, -40000.0, 1.0)))
    assert verdict.status == "chaotic" and verdict.summability["converges"]
    assert verdict.summability["tail_bound"] == math.inf
    # nor where a scaled coefficient leaves the float range (c_1 ~ 3e309), or Q'(Z) would (degree 400), or the
    # integral itself does (1e308 + 1e-320 t^2: about 1e308 pi/2 / 1e-6)
    for coefficients in ((1e-320, 1e303, 1e-320), (1.0,) * 401, (1e308, 0.0, 1e-320)):
        with np.errstate(over="ignore"):  # the partial sum's p(n + 1) overflows at degree 400
            verdict = chaos_criterion_shift_adjoint(Polynomial(coefficients))
        assert verdict.summability["tail_bound"] == math.inf


def _legendre(n, x):
    # P_n(x) and P_n'(x) by the three-term recurrence, in the arithmetic of x
    p0, p1 = 1, x
    for k in range(1, n):
        p0, p1 = p1, ((2 * k + 1) * x * p1 - k * p0) / (k + 1)
    return p1, n * (x * p1 - p0) / (x * x - 1)


def test_leggauss_meets_the_accuracy_the_tail_bound_assumes():
    # _summability_tail's rounding allowance assumes nodes within 2^-52 and weights within 2^-42 relative
    x, w = np.polynomial.legendre.leggauss(TAIL_NODES)
    with localcontext(prec=60):
        for xi, wi in zip(x.tolist(), w.tolist()):
            root = Decimal(xi)
            for _ in range(6):  # Newton from the float node: quadratic convergence to 60 digits
                value, slope = _legendre(TAIL_NODES, root)
                root -= value / slope
            weight = 2 / ((1 - root * root) * _legendre(TAIL_NODES, root)[1] ** 2)
            assert abs(Decimal(xi) - root) <= Decimal(2) ** -52
            assert abs(Decimal(wi) - weight) <= Decimal(2) ** -42 * weight


def test_chaos_bilateral_parity():
    with pytest.raises(ConstructionError):
        chaos_criterion_shift_adjoint(Polynomial((0.0, 1.0)), side="bilateral")
    verdict = chaos_criterion_shift_adjoint(Polynomial((1.0, 0.0, 1.0)), side="bilateral")
    assert verdict.status == "chaotic"
    assert verdict.summability is None


# ---------------------------------------------------------------------------
# hypercyclicity coverage


def test_identity_orbit_hits_one_cell():
    spec = identity(U2)
    x = basis_vector(U2, 1)
    report = hypercyclicity_probe(spec, x, x, 500)
    assert len(report.hits) == 1
    assert report.coverage_fraction == pytest.approx(1.0 / report.cells_per_side() ** 2)


def test_unitary_orbit_stays_on_circle_cells():
    spec = Diagonal(FiniteRange(1), cmath.exp(1j))
    e1 = basis_vector(FiniteRange(1), 1)
    report = hypercyclicity_probe(spec, e1, e1, 20000)
    assert len(report.hits) <= circle_cell_count(40.0, 1.0, 1.0)
    assert report.orbit_magnitude_max == pytest.approx(1.0, rel=1e-12)


def test_coverage_monotone_in_n():
    w = balanced_witness(HYPER4)
    prev = frozenset()
    for n in (100, 1000, 5000):
        report = hypercyclicity_probe(HYPER4, w, w, n)
        assert prev <= report.hits
        prev = report.hits


def test_coverage_strictly_increasing_for_balanced_witness():
    w = balanced_witness(HYPER4)
    counts = [len(hypercyclicity_probe(HYPER4, w, w, n).hits) for n in (10**3, 10**4, 10**5)]
    assert counts[0] < counts[1] < counts[2]


def test_balanced_witness_balances_block_coefficients():
    w = balanced_witness(HYPER4)
    assert p_norm(w, 2) == pytest.approx(1.0, abs=1e-12)
    c = abs(LAM1 - 1) * abs(w.entries[2]) * abs(w.entries[1])
    d = abs(LAM2 - 1) * abs(w.entries[4]) * abs(w.entries[3])
    assert c == pytest.approx(d, rel=1e-12)


def test_hc_probe_oracle_closed_form_pairing():
    # <T^n x, x> for the 4x4 construction, via the commuting binomial expansion
    w = balanced_witness(HYPER4)
    report = hypercyclicity_probe(HYPER4, w, w, 64)
    x = np.array([w.entries.get(k, 0j) for k in range(1, 5)])
    a = np.array(
        [
            [LAM1, LAM1 - 1, 0, 0],
            [0, LAM1, 0, 0],
            [0, 0, LAM2, LAM2 - 1],
            [0, 0, 0, LAM2],
        ]
    )
    values = []
    v = x.copy()
    for n in range(65):
        values.append(np.vdot(x, v))
        v = a @ v
    assert max(abs(z) for z in values) == pytest.approx(report.orbit_magnitude_max, rel=1e-10)


def test_hc_probe_validation():
    w = balanced_witness(HYPER4)
    with pytest.raises(ParameterError):
        hypercyclicity_probe(HYPER4, w, w, 0)
    with pytest.raises(ParameterError):
        hypercyclicity_probe(HYPER4, w, w, 10, r=-1.0)


# ---------------------------------------------------------------------------
# ergodic probes


def test_mean_ergodic_assani_diverges():
    verdict = mean_ergodic_probe(ASSANI, basis_vector(U2, 2), 2**14)
    assert verdict.status == "diverged"
    # the parity gaps carry the oscillation (all power-of-two indices are even)
    assert verdict.parity_gaps[-1][1] > 1.0


def test_mean_ergodic_identity_converges_exactly():
    x = make_vector(NAT, [(1, 0.6), (3, 0.8)])
    verdict = mean_ergodic_probe(identity(NAT), x, 2**10)
    assert verdict.status == "converged"
    assert verdict.final_gap == 0.0


def test_mean_ergodic_backward_shift_to_zero():
    spec = BackwardShift(NAT, PowerRatio(0.25, 0))
    verdict = mean_ergodic_probe(spec, basis_vector(NAT, 1), 2**21)
    assert verdict.status == "converged"
    # M_n e1 = e1/(n+1): limit 0, decay is exactly 1/(n+1)
    assert verdict.limit_estimate == pytest.approx(1.0 / (2**21 + 1 + 1), rel=1e-6)


def test_weak_ergodic_block_tz_bilateral():
    u = BilateralShift(Explicit((), 1.0))
    tz = BlockTZ(u)
    x = PairVec(basis_vector(INTS, 0), make_vector(INTS, []))
    verdict = weak_ergodic_probe(tz, x, x, 2**20)
    assert verdict.status == "converged"
    # <M_n x, x> = 1/(n+1) exactly on this probe
    assert abs(verdict.limit_estimate - 1.0 / (2**20 + 1 + 1)) < 1e-9


def test_weak_ergodic_block_tz_random_pairs_converge_with_1_over_n_fit():
    rng = np.random.default_rng(29)
    u = BilateralShift(Explicit((), 1.0))
    tz = BlockTZ(u)
    for _ in range(6):
        def rv():
            return make_vector(
                INTS, [(int(k), complex(*rng.standard_normal(2))) for k in rng.integers(-6, 7, size=5)]
            )

        def unit_pair():
            pair = PairVec(rv(), rv())
            norm = p_norm(pair, 2)
            return PairVec(
                make_vector(INTS, [(k, v / norm) for k, v in pair.top.entries.items()]),
                make_vector(INTS, [(k, v / norm) for k, v in pair.bottom.entries.items()]),
            )

        x, y = unit_pair(), unit_pair()
        verdict = weak_ergodic_probe(tz, x, y, 2**24)
        assert verdict.status == "converged"
        # C/n fit: once the pairing stream freezes (n past the support span),
        # the scaled gaps n * |mu_2n - mu_n| flatten to a constant
        scaled = [n * g for n, g in verdict.gaps if n >= 64]
        if max(scaled) > 1e-12:
            assert max(scaled) <= 2.0 * min(scaled)


def test_weak_ergodic_assani_diverges():
    verdict = weak_ergodic_probe(ASSANI, basis_vector(U2, 2), basis_vector(U2, 1), 2**14)
    assert verdict.status == "diverged"


def test_weak_ergodic_identity():
    x = basis_vector(NAT, 2)
    verdict = weak_ergodic_probe(identity(NAT), x, x, 2**10)
    assert verdict.status == "converged"
    assert verdict.limit_estimate == pytest.approx(1.0)


def test_mean_implies_weak_on_probes():
    # whenever the mean probe converges, the weak probe on the same data must too
    specs_and_vecs = [
        (identity(NAT), basis_vector(NAT, 1)),
        (BackwardShift(NAT, PowerRatio(0.25, 0)), basis_vector(NAT, 1)),
        (BackwardShift(NAT, PowerRatio(0.25, 0)), make_vector(NAT, [(1, 0.8), (2, 0.6)])),
    ]
    for spec, x in specs_and_vecs:
        mean = mean_ergodic_probe(spec, x, 2**21)
        weak = weak_ergodic_probe(spec, x, x, 2**21)
        if mean.status == "converged":
            assert weak.status == "converged"


def test_ergodic_validation():
    with pytest.raises(ParameterError):
        mean_ergodic_probe(ASSANI, basis_vector(U2, 1), 4)
    with pytest.raises(ParameterError):
        weak_ergodic_probe(ASSANI, basis_vector(U2, 1), basis_vector(U2, 1), 2)
