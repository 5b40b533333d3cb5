import cmath
import math

import numpy as np
import pytest

from cesarolab.classify import ProbeConfig, probe_vectors
from cesarolab.core import (
    INTS,
    NAT,
    BackwardShift,
    BilateralShift,
    BlockTZ,
    ConstructionError,
    Diagonal,
    DiagPlusNilpotent,
    DomainError,
    DuplicatingShift,
    Explicit,
    FiniteMatrix,
    FiniteRange,
    ForwardShift,
    ParameterError,
    Polynomial,
    PowerRatio,
    basis_vector,
    make_vector,
    to_matrix,
    vec_scale,
    weight_at,
)
from cesarolab.isometry import (
    IndeterminateDegreeError,
    covariance_form,
    covariance_injectivity_probe,
    defect,
    defect_via_differences,
    detect_degree,
    is_m_isometry,
    isometry_table,
    norm_square_degree,
    shift_from_polynomial,
    strict_order,
)

ASSANI = FiniteMatrix(((-1.0, 2.0), (0.0, -1.0)))
U2 = FiniteRange(2)
LAM1, LAM2 = cmath.exp(1j), cmath.exp(1j * math.sqrt(2))
HYPER4 = DiagPlusNilpotent(4, 2, LAM1, LAM2)


def test_defect_linear_shift():
    spec = shift_from_polynomial(Polynomial((0.0, 1.0)))
    e1 = basis_vector(NAT, 1)
    # ||e1|| = 1, ||Te1||^2 = 2, ||T^2 e1||^2 = 3: defects 3 - 4 + 1 and 2 - 1
    assert defect(spec, e1, 2) == pytest.approx(0.0, abs=1e-12)
    assert defect(spec, e1, 1) == pytest.approx(1.0, rel=1e-12)


def test_defect_assani_values():
    e2 = basis_vector(U2, 2)
    assert defect(ASSANI, e2, 3) == pytest.approx(0.0, abs=1e-10)
    assert defect(ASSANI, e2, 2) == pytest.approx(8.0, rel=1e-12)


def test_defect_two_code_paths_agree():
    rng = np.random.default_rng(19)
    specs = [ASSANI, HYPER4, shift_from_polynomial(Polynomial((0.0, 0.0, 1.0))), DuplicatingShift()]
    cfg = ProbeConfig(basis_probes=4, seeded_probes=4)
    for spec in specs:
        for label, x in probe_vectors(spec, cfg):
            for m in (1, 2, 3, 4):
                a = defect(spec, x, m)
                b = defect_via_differences(spec, x, m)
                scale = max(abs(a), abs(b), 1.0)
                assert abs(a - b) / scale < 1e-10, (label, m)


def test_is_m_isometry_reports():
    assert is_m_isometry(HYPER4, 3).passed
    assert is_m_isometry(HYPER4, 3).max_defect < 1e-9 * is_m_isometry(HYPER4, 3).scale
    unitary = Diagonal(FiniteRange(3), cmath.exp(1j))
    assert is_m_isometry(unitary, 1).passed
    backward = BackwardShift(NAT, PowerRatio(0.25, 0))
    assert not is_m_isometry(backward, 2).passed


def test_isometry_table_rows_match_single_orders():
    # one orbit per probe vector up to m_max serves every order m <= m_max
    for spec in (HYPER4, ASSANI, shift_from_polynomial(Polynomial((0.0, 1.0))), BackwardShift(NAT, PowerRatio(0.25, 0))):
        table = isometry_table(spec, 6)
        assert [row.m_tested for row in table] == [1, 2, 3, 4, 5, 6]
        for m, row in enumerate(table, start=1):
            single = is_m_isometry(spec, m)
            assert (row.passed, row.witness) == (single.passed, single.witness)
            assert row.scale == pytest.approx(single.scale, rel=1e-12)
            assert row.max_defect == pytest.approx(single.max_defect, rel=1e-12, abs=1e-12 * single.scale)


def test_strict_orders():
    assert strict_order(ASSANI, 6) == 3
    assert strict_order(shift_from_polynomial(Polynomial((0.0, 1.0))), 6) == 2
    assert strict_order(BackwardShift(NAT, PowerRatio(0.25, 0)), 6) is None
    assert strict_order(HYPER4, 6) == 3
    assert strict_order(DuplicatingShift(), 6) == 2
    unitary = Diagonal(FiniteRange(3), cmath.exp(1j))
    assert strict_order(unitary, 4) == 1


def test_strict_order_polynomial_family():
    for coeffs, expected in [
        ((0.0, 1.0), 2),  # p(n) = n
        ((0.0, 0.0, 1.0), 3),  # p(n) = n^2
        ((1.0, 0.0, 1.0), 3),  # p(n) = n^2 + 1
        ((2.0, 3.0, 1.0), 3),  # p(n) = (n+1)(n+2)
    ]:
        spec = shift_from_polynomial(Polynomial(coeffs))
        assert strict_order(spec, 6) == expected


def test_block_tz_strict_orders_match_nilpotency():
    u = BilateralShift(Explicit((), 1.0))
    assert strict_order(BlockTZ(u), 6) == 3
    inner2 = FiniteMatrix(((1.0, 1.0), (0.0, 1.0)))  # nilpotency order 2
    m4 = FiniteMatrix(tuple(tuple(r) for r in to_matrix(BlockTZ(inner2)).tolist()))
    assert strict_order(m4, 8) == 3
    inner3 = FiniteMatrix(((1.0, 1.0, 0.0), (0.0, 1.0, 1.0), (0.0, 0.0, 1.0)))  # order 3
    m6 = FiniteMatrix(tuple(tuple(r) for r in to_matrix(BlockTZ(inner3)).tolist()))
    assert strict_order(m6, 8) == 5


def test_norm_square_degree_values():
    assert norm_square_degree(ASSANI, basis_vector(U2, 2)) == 2
    spec = shift_from_polynomial(Polynomial((0.0, 1.0)))
    assert norm_square_degree(spec, basis_vector(NAT, 1)) == 1
    unitary = Diagonal(FiniteRange(3), cmath.exp(1j))
    assert norm_square_degree(unitary, basis_vector(FiniteRange(3), 1)) == 0
    zero = make_vector(U2, [])
    assert norm_square_degree(ASSANI, zero) == -1


def test_norm_square_degree_matches_poly_degree():
    for coeffs in [(0.0, 1.0), (0.0, 0.0, 1.0), (1.0, 0.0, 1.0)]:
        p = Polynomial(coeffs)
        spec = shift_from_polynomial(p)
        assert norm_square_degree(spec, basis_vector(NAT, 1)) == p.degree


def test_norm_square_degree_window_validation():
    with pytest.raises(ParameterError):
        norm_square_degree(ASSANI, basis_vector(U2, 2), window=4)


def test_degree_indeterminate_on_transient():
    # orbit squares 1, 0, 0, ... are eventually zero but not polynomial
    zero_matrix = FiniteMatrix(((0.0, 0.0), (0.0, 0.0)))
    with pytest.raises(IndeterminateDegreeError):
        norm_square_degree(zero_matrix, basis_vector(U2, 1), window=16)
    with pytest.raises(IndeterminateDegreeError):
        detect_degree(zero_matrix, basis_vector(U2, 1))


def test_shift_from_polynomial_weights():
    spec = shift_from_polynomial(Polynomial((0.0, 1.0)))
    assert isinstance(spec, ForwardShift)
    assert weight_at(spec.rule, 1) == pytest.approx(math.sqrt(2), rel=1e-15)
    assert weight_at(spec.rule, 2) == pytest.approx(math.sqrt(1.5), rel=1e-15)
    flat = shift_from_polynomial(Polynomial((1.0,)))
    for k in range(1, 10):
        assert weight_at(flat.rule, k) == pytest.approx(1.0)
    assert strict_order(flat, 3) == 1


def test_shift_from_polynomial_positivity_error():
    with pytest.raises(ConstructionError):
        shift_from_polynomial(Polynomial((0.0, -1.0)))


def test_shift_from_polynomial_bilateral():
    spec = shift_from_polynomial(Polynomial((1.0, 0.0, 1.0)), universe=INTS)
    assert isinstance(spec, BilateralShift)
    assert strict_order(spec, 6) == 3
    with pytest.raises(ConstructionError):
        shift_from_polynomial(Polynomial((0.0, 1.0)), universe=INTS)  # odd degree


def test_covariance_form_values():
    assert covariance_form(ASSANI, basis_vector(U2, 2)) == pytest.approx(4.0, abs=1e-9)
    assert covariance_form(ASSANI, basis_vector(U2, 1)) == pytest.approx(0.0, abs=1e-12)
    u4 = FiniteRange(4)
    assert covariance_form(HYPER4, basis_vector(u4, 2)) == pytest.approx(abs(LAM1 - 1) ** 2, rel=1e-9)
    assert covariance_form(HYPER4, basis_vector(u4, 4)) == pytest.approx(abs(LAM2 - 1) ** 2, rel=1e-9)


def test_covariance_form_quadratic_homogeneity():
    rng = np.random.default_rng(5)
    for _ in range(10):
        x = make_vector(
            FiniteRange(4),
            [(k, complex(rng.standard_normal(), rng.standard_normal())) for k in range(1, 5)],
        )
        c = complex(rng.standard_normal(), rng.standard_normal())
        base = covariance_form(HYPER4, x)
        scaled = covariance_form(HYPER4, vec_scale(c, x))
        assert scaled == pytest.approx(abs(c) ** 2 * base, rel=1e-10)


def test_covariance_form_rejects_higher_degree():
    spec = shift_from_polynomial(Polynomial((0.0, 0.0, 0.0, 1.0)))  # degree 3: 4-isometry
    with pytest.raises(DomainError):
        covariance_form(spec, basis_vector(NAT, 1))


def test_covariance_injectivity_probes():
    assani_probe = covariance_injectivity_probe(ASSANI)
    assert assani_probe.status == "kernel_witness"
    assert assani_probe.witness == "e[1]"
    tz = BlockTZ(BilateralShift(Explicit((), 1.0)))
    tz_probe = covariance_injectivity_probe(tz)
    assert tz_probe.status == "kernel_witness"
    assert tz_probe.witness == "pair(e[0];0)"  # top-slot vectors have flat orbits
    h4 = covariance_injectivity_probe(HYPER4)
    forms = dict(h4.forms)
    assert forms["e[2]"] == pytest.approx(abs(LAM1 - 1) ** 2, rel=1e-9)
    assert forms["e[4]"] == pytest.approx(abs(LAM2 - 1) ** 2, rel=1e-9)
