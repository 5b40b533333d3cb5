import cmath
import math

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
    assert verdict.summability["partial_sum"] < math.pi**2 / 6 - 1 < total + 1e-6


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
