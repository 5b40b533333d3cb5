import cmath
import math
import warnings
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
    DirectSum,
    DomainError,
    DuplicatingShift,
    Explicit,
    FiniteMatrix,
    FiniteRange,
    ForwardShift,
    PairVec,
    ParameterError,
    PolyRatio,
    Polynomial,
    PowerRatio,
    ScalarMultiple,
    SparseVec,
    UnsupportedVariantError,
    adjoint,
    apply,
    basis_vector,
    identity,
    inner,
    log_weight_product,
    make_vector,
    p_norm,
    reindex_rule,
    scale,
    spec_dim,
    to_matrix,
    vec_add,
    vec_scale,
    weight_at,
    weight_product,
)


def seeded_vec(universe, rng, lo, hi):
    pairs = [(k, complex(rng.standard_normal(), rng.standard_normal())) for k in range(lo, hi + 1)]
    return make_vector(universe, pairs)


# ---------------------------------------------------------------------------
# vectors


def test_make_vector_basis():
    v = make_vector(NAT, [(1, 1.0)])
    assert v.entries == {1: 1.0 + 0j}


def test_make_vector_cancellation():
    v = make_vector(NAT, [(1, 1.0), (1, -1.0)])
    assert v.is_zero()


def test_make_vector_out_of_range():
    with pytest.raises(DomainError):
        make_vector(FiniteRange(2), [(3, 1.0)])


def test_make_vector_rejects_nonfinite():
    with pytest.raises(ParameterError):
        make_vector(NAT, [(1, complex(math.nan, 0.0))])


def test_p_norm_flat_window_is_unit():
    # n^{-1/p} (e_1 + ... + e_n) has unit p-norm
    n, p = 4, 2.0
    x = make_vector(NAT, [(k, n ** (-1.0 / p)) for k in range(1, n + 1)])
    assert p_norm(x, p) == pytest.approx(1.0, abs=1e-15)


def test_p_norm_simple_values():
    assert p_norm(basis_vector(NAT, 1), 1) == 1.0
    two = make_vector(NAT, [(1, 1.0), (2, 1.0)])
    assert p_norm(two, 2) == pytest.approx(math.sqrt(2), rel=1e-15)
    # squares and powers past double range are rescaled by the largest magnitude
    for c in (1e200, 1e-200):
        assert p_norm(make_vector(NAT, [(1, c), (2, c * 1j)]), 2) == pytest.approx(math.sqrt(2) * c, rel=1e-15)
        assert p_norm(make_vector(NAT, [(1, c), (2, c)]), 3) == pytest.approx(2 ** (1 / 3) * c, rel=1e-15)
    # a subnormal largest magnitude, whose reciprocal overflows
    assert p_norm(make_vector(NAT, [(1, 1e-310)]), 2) == pytest.approx(1e-310, rel=1e-15)
    assert p_norm(make_vector(NAT, [(1, 1e-310), (2, 1e-310)]), 3) == pytest.approx(2 ** (1 / 3) * 1e-310, rel=1e-12)
    # a non-finite entry after a finite one is the norm, not a rescaling
    for bad, norm in ((math.nan, math.nan), (math.inf, math.inf)):
        v = SparseVec(NAT, {1: 1.0 + 0j, 2: complex(bad, 0.0)})
        for p in (2, 3):
            assert p_norm(v, p) == pytest.approx(norm, nan_ok=True)


def test_p_norm_rejects_small_p():
    with pytest.raises(ParameterError):
        p_norm(basis_vector(NAT, 1), 0.5)


def test_inner_values():
    e1, e2 = basis_vector(NAT, 1), basis_vector(NAT, 2)
    assert inner(e1, e1) == 1.0 + 0j
    assert inner(e1, e2) == 0j
    z = vec_scale(1 + 1j, e1)
    assert inner(z, e1) == 1 + 1j


def test_inner_conjugate_symmetry():
    rng = np.random.default_rng(11)
    for _ in range(20):
        x = seeded_vec(NAT, rng, 1, 6)
        y = seeded_vec(NAT, rng, 3, 9)
        assert inner(x, y) == pytest.approx(inner(y, x).conjugate(), rel=1e-14)


def test_inner_universe_mismatch():
    with pytest.raises(DomainError):
        inner(basis_vector(NAT, 1), basis_vector(INTS, 1))


# ---------------------------------------------------------------------------
# weights and polynomials


def test_weight_power_ratio():
    assert weight_at(PowerRatio(0.25, 0), 2) == pytest.approx(2**0.25, rel=1e-15)


def test_weight_poly_ratio():
    assert weight_at(PolyRatio(Polynomial((0.0, 1.0))), 1) == pytest.approx(math.sqrt(2), rel=1e-15)


def test_weight_poly_ratio_positivity():
    with pytest.raises(ConstructionError):
        PolyRatio(Polynomial((0.0, -1.0)))


def test_weight_power_ratio_domain():
    with pytest.raises(ParameterError):
        weight_at(PowerRatio(0.25, 0), 1)


def test_weight_product_telescopes():
    rule = PowerRatio(0.25, 0)
    # product of (k/(k-1))^a for k = 2..n is n^a
    assert weight_product(rule, 2, 9) == pytest.approx(10**0.25, rel=1e-15)
    rule2 = PolyRatio(Polynomial((0.0, 1.0)))
    assert weight_product(rule2, 1, 5) == pytest.approx(math.sqrt(6.0), rel=1e-15)


def test_weight_product_explicit_matches_factor_loop():
    # listed factors times tail**remaining against the exact product of the factors
    rng = np.random.default_rng(5)
    for _ in range(12):
        values = tuple(rng.uniform(0.8, 1.25, int(rng.integers(0, 30))).tolist())
        for tail in (float(rng.uniform(0.999, 1.001)), 1.0):
            rule = Explicit(values, tail)
            for count in (int(rng.integers(0, 60)), int(rng.integers(1001, 1500))):
                start = int(rng.integers(-5, 40))
                got = weight_product(rule, start, count)
                exact = Fraction(1)
                for k in range(start, start + count):
                    exact *= Fraction(weight_at(rule, k))
                assert got == float(exact)  # the one rounding of an extended-precision log sum is the correct one here


def test_log_weight_product_is_the_log_of_the_telescoped_product():
    # in range, exp(log P) is the float closed form; past double range the log still reads the exact growth
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rules = (PowerRatio(0.25, 0), PowerRatio(-3.0, 2), PolyRatio(Polynomial((1.0, 0.0, 2.0))), Explicit((2.0, 0.5, 3.0), 0.9))
        for rule in rules:
            for start, count in ((2, 0), (2, 1), (3, 9), (5, 200)):
                log = log_weight_product(rule, start, count)
                assert isinstance(log, np.longdouble)
                assert float(np.exp(log)) == pytest.approx(weight_product(rule, start, count), rel=1e-13)
        assert log_weight_product(PowerRatio(200.0, 1), 1, 40) == pytest.approx(200 * math.log(41), rel=1e-15)
        assert log_weight_product(PolyRatio(Polynomial((0.0, 1.0))), 1, 2**40) == pytest.approx(math.log(2**40 + 1) / 2, rel=1e-15)
        assert log_weight_product(Explicit((), 0.5), 1, 5000) == pytest.approx(5000 * math.log(0.5), rel=1e-15)
    with pytest.raises(ParameterError):
        log_weight_product(PowerRatio(1.0, 0), 1, 3)
    with pytest.raises(ParameterError):
        log_weight_product(PowerRatio(1.0, 0), 2, -1)


def test_explicit_rule_tail_and_validation():
    rule = Explicit((2.0, 3.0), tail=1.5)
    assert weight_at(rule, 1) == 2.0
    assert weight_at(rule, 2) == 3.0
    assert weight_at(rule, 7) == 1.5
    with pytest.raises(ConstructionError):
        Explicit((0.0,))


def test_reindex_rule_matches_pointwise():
    rules = [PowerRatio(0.3, 0), PolyRatio(Polynomial((1.0, 2.0, 1.0))), Explicit((2.0, 3.0, 4.0), 1.0)]
    for rule in rules:
        shifted = reindex_rule(rule, 1)
        for k in range(1, 8):
            assert weight_at(shifted, k) == pytest.approx(weight_at(rule, k + 1), rel=1e-13)


def test_polynomial_shifted():
    p = Polynomial((1.0, -2.0, 3.0))
    q = p.shifted(2)
    for x in (-1.0, 0.0, 0.5, 4.0):
        assert q(x) == pytest.approx(p(x + 2), rel=1e-13)


def test_polynomial_trim_and_degree():
    assert Polynomial((1.0, 2.0, 0.0)).degree == 1
    assert Polynomial((0.0,)).is_zero()


# ---------------------------------------------------------------------------
# apply: per-variant actions


def test_backward_shift_action():
    spec = BackwardShift(NAT, PowerRatio(0.25, 0))
    img = apply(spec, basis_vector(NAT, 2))
    assert img.entries == {1: pytest.approx(2**0.25 + 0j)}
    assert apply(spec, basis_vector(NAT, 1)).is_zero()


def test_forward_shift_action():
    spec = ForwardShift(NAT, PowerRatio(0.4, 1))
    img = apply(spec, basis_vector(NAT, 1))
    assert img.entries == {2: pytest.approx(2**0.4 + 0j)}


def test_duplicating_shift_action():
    spec = DuplicatingShift()
    img = apply(spec, basis_vector(NAT, 1))
    assert img.entries == {1: 1.0 + 0j, 2: 1.0 + 0j}
    # general coordinates shift up by one
    x = make_vector(NAT, [(1, 2.0), (2, 3.0), (5, 7.0)])
    img = apply(spec, x)
    assert img.entries == {1: 2.0 + 0j, 2: 2.0 + 0j, 3: 3.0 + 0j, 6: 7.0 + 0j}


def test_bilateral_shift_action():
    spec = BilateralShift(Explicit((), 1.0))
    img = apply(spec, basis_vector(INTS, 0))
    assert img.entries == {1: 1.0 + 0j}
    back = BilateralShift(Explicit((), 1.0), forward=False)
    assert apply(back, basis_vector(INTS, 0)).entries == {-1: 1.0 + 0j}


def test_bilateral_shift_rejects_power_ratios():
    # weight(1 - offset) = (1 / 0)^alpha: no such operator on the integers
    for rule in (PowerRatio(0.3, 6), PowerRatio(0.3, 100), PowerRatio(-1.0, 0)):
        with pytest.raises(ConstructionError):
            BilateralShift(rule)


def test_finite_matrix_action():
    spec = FiniteMatrix(((-1.0, 2.0), (0.0, -1.0)))
    img = apply(spec, basis_vector(FiniteRange(2), 2))
    assert img.entries == {1: 2.0 + 0j, 2: -1.0 + 0j}


def test_diagonal_action_with_overrides():
    spec = Diagonal(NAT, 2.0, ((3, 5.0),))
    x = make_vector(NAT, [(1, 1.0), (3, 1.0)])
    img = apply(spec, x)
    assert img.entries == {1: 2.0 + 0j, 3: 5.0 + 0j}


def test_block_tz_action():
    inner = identity(FiniteRange(2))
    spec = BlockTZ(inner)
    x = PairVec(basis_vector(FiniteRange(2), 1), basis_vector(FiniteRange(2), 2))
    img = apply(spec, x)
    # T = I: top' = top + (I - I) bottom = top, bottom' = bottom
    assert img.top == x.top and img.bottom == x.bottom


def test_diag_plus_nilpotent_action():
    lam1, lam2 = cmath.exp(1j), cmath.exp(1j * math.sqrt(2))
    spec = DiagPlusNilpotent(4, 2, lam1, lam2)
    img = apply(spec, basis_vector(FiniteRange(4), 2))
    assert img.entries[2] == pytest.approx(lam1)
    assert img.entries[1] == pytest.approx(lam1 - 1)
    img = apply(spec, basis_vector(FiniteRange(4), 4))
    assert img.entries[4] == pytest.approx(lam2)
    assert img.entries[3] == pytest.approx(lam2 - 1)


def test_diag_plus_nilpotent_validation():
    lam1, lam2 = cmath.exp(1j), cmath.exp(1j * math.sqrt(2))
    with pytest.raises(ParameterError):
        DiagPlusNilpotent(4, 3, lam1, lam2)  # chain must fit below dim-2
    with pytest.raises(ParameterError):
        DiagPlusNilpotent(4, 2, 1.0, lam2)  # lam must differ from 1


def test_direct_sum_action():
    parts = (FiniteMatrix(((2.0,),)), FiniteMatrix(((0.0, 1.0), (0.0, 0.0))))
    spec = DirectSum(parts)
    x = make_vector(FiniteRange(3), [(1, 1.0), (3, 1.0)])
    img = apply(spec, x)
    assert img.entries == {1: 2.0 + 0j, 2: 1.0 + 0j}


def test_scale_behaviour():
    spec = identity(FiniteRange(1))
    e1 = basis_vector(FiniteRange(1), 1)
    assert apply(scale(1.0, spec), e1) == apply(spec, e1)
    assert apply(scale(1j, spec), e1).entries == {1: 1j}
    rng = np.random.default_rng(5)
    shift = BackwardShift(NAT, PowerRatio(0.25, 0))
    x = seeded_vec(NAT, rng, 1, 10)
    lam = cmath.exp(0.7j)
    assert p_norm(apply(scale(lam, shift), x), 2) == pytest.approx(p_norm(apply(shift, x), 2), rel=1e-15)


def test_apply_universe_mismatch():
    with pytest.raises(DomainError):
        apply(BackwardShift(NAT, PowerRatio(0.25, 0)), basis_vector(INTS, 1))


# ---------------------------------------------------------------------------
# adjoint


def test_adjoint_forward_becomes_backward():
    fwd = ForwardShift(NAT, PowerRatio(0.4, 1))
    adj = adjoint(fwd)
    assert isinstance(adj, BackwardShift)
    # e_{k+1} must map to w_k e_k, with w_k = ((k+1)/k)^0.4
    for k in range(1, 6):
        img = apply(adj, basis_vector(NAT, k + 1))
        assert img.entries[k] == pytest.approx(((k + 1) / k) ** 0.4)


def test_adjoint_diagonal_and_matrix():
    diag = Diagonal(NAT, 1j)
    assert adjoint(diag).default == -1j
    mat = FiniteMatrix(((-1.0, 2.0), (0.0, -1.0)))
    assert adjoint(mat).entries == ((-1.0 + 0j, 0.0 + 0j), (2.0 + 0j, -1.0 + 0j))


def test_adjoint_involution_on_basis():
    rng = np.random.default_rng(2)
    specs = [
        ForwardShift(NAT, PowerRatio(0.4, 1)),
        BackwardShift(NAT, PowerRatio(0.25, 0)),
        BilateralShift(PolyRatio(Polynomial((1.0, 0.0, 1.0)))),
        Diagonal(NAT, cmath.exp(0.3j), ((2, 1j),)),
        FiniteMatrix(tuple(tuple(complex(*rng.standard_normal(2)) for _ in range(3)) for _ in range(3))),
        ScalarMultiple(1j, FiniteMatrix(((1.0, 0.0), (1.0, 1.0)))),
    ]
    for spec in specs:
        double = adjoint(adjoint(spec))
        universe = NAT if isinstance(spec, (ForwardShift, BackwardShift, Diagonal)) else None
        if isinstance(spec, BilateralShift):
            universe = INTS
        if universe is None:
            dim = spec_dim(spec)
            universe = FiniteRange(dim)
        for k in range(1, 5):
            if isinstance(universe, FiniteRange) and k > universe.dim:
                break
            e = basis_vector(universe, k)
            a, b = apply(spec, e), apply(double, e)
            assert sorted(a.entries) == sorted(b.entries)
            for idx in a.entries:
                assert a.entries[idx] == pytest.approx(b.entries[idx], rel=1e-13)


def test_adjoint_unsupported_variants():
    with pytest.raises(UnsupportedVariantError):
        adjoint(BlockTZ(identity(FiniteRange(2))))
    with pytest.raises(UnsupportedVariantError):
        adjoint(DiagPlusNilpotent(4, 2, cmath.exp(1j), cmath.exp(1j * math.sqrt(2))))


# ---------------------------------------------------------------------------
# linearity properties (seeded sweep)


def test_apply_is_linear():
    rng = np.random.default_rng(42)
    lam1, lam2 = cmath.exp(1j), cmath.exp(1j * math.sqrt(2))
    specs = [
        BackwardShift(NAT, PowerRatio(0.25, 0)),
        ForwardShift(NAT, PolyRatio(Polynomial((0.0, 1.0)))),
        DuplicatingShift(),
        Diagonal(NAT, 0.5 + 0.1j, ((4, 2.0),)),
        DiagPlusNilpotent(5, 2, lam1, lam2),
        FiniteMatrix(((1.0, 1j), (0.0, -1.0))),
    ]
    for spec in specs:
        universe = (
            FiniteRange(spec_dim(spec)) if spec_dim(spec) is not None else NAT
        )
        hi = 8 if spec_dim(spec) is None else spec_dim(spec)
        for _ in range(10):
            x = seeded_vec(universe, rng, 1, hi)
            y = seeded_vec(universe, rng, 1, hi)
            c = complex(rng.standard_normal(), rng.standard_normal())
            lhs = apply(spec, vec_add(x, vec_scale(c, y)))
            rhs = vec_add(apply(spec, x), vec_scale(c, apply(spec, y)))
            scale_ref = max(p_norm(lhs, 2), 1e-30)
            assert p_norm(vec_add(lhs, vec_scale(-1.0, rhs)), 2) / scale_ref < 1e-12


def test_shift_matches_closed_form_weight():
    for alpha in (0.1, 0.25, 0.4):
        spec = BackwardShift(NAT, PowerRatio(alpha, 0))
        for k in range(2, 40):
            img = apply(spec, basis_vector(NAT, k))
            assert img.entries[k - 1] == pytest.approx((k / (k - 1)) ** alpha, rel=1e-14)


# ---------------------------------------------------------------------------
# dense realization


def test_to_matrix_consistency():
    lam1, lam2 = cmath.exp(1j), cmath.exp(1j * math.sqrt(2))
    specs = [
        FiniteMatrix(((-1.0, 2.0), (0.0, -1.0))),
        Diagonal(FiniteRange(3), 2.0, ((2, 1j),)),
        DiagPlusNilpotent(4, 2, lam1, lam2),
        DirectSum((FiniteMatrix(((1.0,),)), FiniteMatrix(((0.0, 1.0), (0.0, 0.0))))),
    ]
    for spec in specs:
        m = to_matrix(spec)
        d = spec_dim(spec)
        for j in range(1, d + 1):
            img = apply(spec, basis_vector(FiniteRange(d), j))
            col = np.zeros(d, dtype=complex)
            for idx, v in img.entries.items():
                col[idx - 1] = v
            assert np.allclose(col, m[:, j - 1], atol=1e-14)


def test_to_matrix_block_tz():
    inner = FiniteMatrix(((1.0, 1.0), (0.0, 1.0)))
    m = to_matrix(BlockTZ(inner))
    assert m.shape == (4, 4)
    expected = np.array(
        [
            [1, 1, 0, 1],
            [0, 1, 0, 0],
            [0, 0, 1, 1],
            [0, 0, 0, 1],
        ],
        dtype=complex,
    )
    assert np.allclose(m, expected)
