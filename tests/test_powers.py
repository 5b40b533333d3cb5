import cmath
import math
import warnings
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg

import cesarolab.powers as powers
from cesarolab import zoo
from cesarolab.core import (
    INTS,
    NAT,
    BackwardShift,
    BilateralShift,
    BlockTZ,
    Diagonal,
    DiagPlusNilpotent,
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
    UnsupportedVariantError,
    apply,
    basis_vector,
    identity,
    inner,
    make_vector,
    p_norm,
    scale,
    vec_add,
    vec_scale,
    weight_product,
)
from cesarolab.powers import (
    CesaroSum,
    NormSeq,
    block_tz_power_check,
    cesaro_apply,
    cesaro_operator_norm,
    lambda_mean_norms,
    lambda_grid,
    lambda_operator_norms,
    largest_singular_value,
    make_orbit,
    matrix_exponential,
    media_residual,
    media_residual_max,
    orbit_norms,
    power_apply,
    power_norm_exact,
)

ASSANI = FiniteMatrix(((-1.0, 2.0), (0.0, -1.0)))
U2 = FiniteRange(2)


def assani_power(n: int) -> np.ndarray:
    sign = (-1.0) ** n
    return np.array([[sign, -sign * 2 * n], [0.0, sign]])


def rand_vec(universe, rng, lo, hi):
    return make_vector(universe, [(k, complex(rng.standard_normal(), rng.standard_normal())) for k in range(lo, hi + 1)])


# ---------------------------------------------------------------------------
# power_apply


def test_power_apply_assani_closed_form():
    x = basis_vector(U2, 2)
    img = power_apply(ASSANI, x, 3)
    assert img.entries == {1: 6.0 + 0j, 2: -1.0 + 0j}
    # exact match against the printed closed form for all n <= 64
    for n in range(65):
        img = power_apply(ASSANI, x, n)
        expected = assani_power(n)[:, 1]
        got = np.array([img.entries.get(1, 0), img.entries.get(2, 0)])
        assert np.array_equal(got, expected.astype(complex))


def test_power_apply_backward_telescoping():
    alpha = 0.3
    spec = BackwardShift(NAT, PowerRatio(alpha, 0))
    for n in (1, 3, 7):
        img = power_apply(spec, basis_vector(NAT, n + 1), n)
        assert list(img.entries) == [1]
        assert img.entries[1] == pytest.approx((n + 1) ** alpha, rel=1e-13)
        # oracle: iterate single applications
        state = basis_vector(NAT, n + 1)
        for _ in range(n):
            state = apply(spec, state)
        assert img.entries[1] == pytest.approx(state.entries[1], rel=1e-14)


def test_power_apply_zero_is_identity():
    x = basis_vector(NAT, 4)
    assert power_apply(DuplicatingShift(), x, 0) is x


# ---------------------------------------------------------------------------
# power_norm_exact


def test_power_norm_backward_shift_law():
    spec = BackwardShift(NAT, PowerRatio(0.25, 0))
    assert power_norm_exact(spec, 3, 2) == pytest.approx(math.sqrt(2), rel=1e-15)


def test_power_norm_forward_shift():
    spec = ForwardShift(NAT, PowerRatio(0.4, 1))
    assert power_norm_exact(spec, 10, 2) == pytest.approx(11**0.4, rel=1e-15)


def test_power_norm_assani_singular_value():
    # largest singular value of [[-1,2],[0,-1]] is 1 + sqrt(2)
    assert power_norm_exact(ASSANI, 1, 2) == pytest.approx(1 + math.sqrt(2), rel=1e-12)


@pytest.mark.parametrize("seed", range(8))
def test_matrix_power_norms_match_matrix_power_across_carries(seed, monkeypatch):
    # at a 2^12-byte cap the table holds 4 to 32 powers, so n <= 4096 crosses many carries of the extended a^S; the
    # oracle is numpy's binary powering in double, within about 3e-13 of the exact norm on these matrices
    monkeypatch.setattr(powers, "_STACK_BYTES", 2**12)
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 7))
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    a = np.triu(a) if seed % 2 else a  # a triangular matrix is far from normal
    a *= rng.uniform(0.9, 1.02) / np.abs(np.linalg.eigvals(a)).max()
    spec = FiniteMatrix(tuple(map(tuple, a.tolist())))
    ns = sorted({*range(1, 65), *(2**k for k in range(13)), 1000, 4095})
    want = np.array([largest_singular_value(np.linalg.matrix_power(a, n)) for n in ns])
    got = np.array(powers.power_norms_exact(spec, ns, 2))
    assert len(powers._table(a)[0]) <= 32
    assert np.all(np.abs(got - want) <= 1e-12 * want), np.max(np.abs(got - want) / want)
    assert [power_norm_exact(spec, n, 2) for n in ns[::9]] == got[::9].tolist()  # one n reads the same fold


def test_power_norm_matches_attaining_basis_vector():
    specs = [
        BackwardShift(NAT, PowerRatio(0.25, 0)),
        ForwardShift(NAT, PolyRatio(Polynomial((0.0, 1.0)))),
        BilateralShift(PolyRatio(Polynomial((1.0, 0.0, 1.0)))),
    ]
    for spec in specs:
        for n in (1, 4, 16, 100, 1000):
            value = power_norm_exact(spec, n, 2)
            # brute-force over a window of basis starts
            universe = INTS if isinstance(spec, BilateralShift) else NAT
            starts = range(-40, 41) if isinstance(spec, BilateralShift) else range(1, 60 + n)
            best = 0.0
            for j in starts:
                if universe is NAT and j < 1:
                    continue
                best = max(best, p_norm(power_apply(spec, basis_vector(universe, j), n), 2))
            assert value == pytest.approx(best, rel=1e-12)


def test_power_norm_is_exact_for_non_monotone_weights():
    # the largest weight sits past a dense head of starts, or between complex roots of p
    explicit = ForwardShift(NAT, Explicit((1.0,) * 9 + (7.0,), 1.0))
    assert power_norm_exact(explicit, 1, 2) == 7.0
    assert power_norm_exact(explicit, 3, 2) == 7.0
    assert power_norm_exact(BackwardShift(NAT, Explicit((1.0,) * 9 + (7.0,), 1.0)), 2, 2) == 7.0
    valley = PolyRatio(Polynomial((100.01, -20.0, 1.0)))  # (x - 10)^2 + 0.01: weight(10) = sqrt(1.01 / 0.01)
    for spec in (ForwardShift(NAT, valley), BilateralShift(valley, forward=False)):
        assert power_norm_exact(spec, 1, 2) == weight_product(valley, 10, 1) == pytest.approx(math.sqrt(101), rel=1e-12)
    # log p is convex between 10 - 5 and 10 + 5, so the products peak inside, at start 15
    wide = ForwardShift(NAT, PolyRatio(Polynomial((125.0, -20.0, 1.0))))  # (x - 10)^2 + 25
    assert power_norm_exact(wide, 1, 2) == pytest.approx(math.sqrt(61.0 / 50.0), rel=1e-15)


def test_power_norm_equals_the_largest_basis_orbit():
    # sup over basis vectors, brute force over the starts where the weights vary
    rules = [
        Explicit((0.5, 3.0, 0.25, 2.0), 1.1),
        Explicit((4.0,), 0.5),
        PolyRatio(Polynomial((125.0, -20.0, 1.0))),
        PolyRatio(Polynomial((2.0, -3.0, 1.5, 0.25))),
    ]
    specs = [cls(NAT, rule) for rule in rules for cls in (ForwardShift, BackwardShift)]
    specs += [BilateralShift(rule, forward) for rule in rules[:3] for forward in (True, False)]
    for spec in specs:
        universe = INTS if isinstance(spec, BilateralShift) else NAT
        for n in (1, 2, 5, 40):
            best = max(p_norm(power_apply(spec, basis_vector(universe, j), n), 2)
                       for j in range(-60 if universe is INTS else 1, 80))
            assert power_norm_exact(spec, n, 2) == pytest.approx(best, rel=1e-12)


def test_power_norm_diagonal_and_errors():
    spec = Diagonal(NAT, 0.5, ((2, 2.0),))
    assert power_norm_exact(spec, 3, 2) == pytest.approx(8.0)
    with pytest.raises(ParameterError):
        power_norm_exact(ASSANI, 2, 3.0)  # matrices are p=2 only
    with pytest.raises(UnsupportedVariantError):
        power_norm_exact(DuplicatingShift(), 2, 2)
    with pytest.raises(UnsupportedVariantError):
        power_norm_exact(BlockTZ(BilateralShift(Explicit((), 1.0))), 2, 2)


def test_power_norm_scalar_multiple():
    spec = scale(2.0j, ASSANI)
    assert power_norm_exact(spec, 2, 2) == pytest.approx(4.0 * power_norm_exact(ASSANI, 2, 2), rel=1e-12)


def test_power_norm_of_a_zero_multiple_is_zero():
    # the inner norm overflows to inf; the zero operator's norm is 0, not 0 * inf
    spec = scale(0.0, ForwardShift(NAT, PowerRatio(200, 1)))
    assert power_norm_exact(ForwardShift(NAT, PowerRatio(200, 1)), 40, 2) == math.inf
    assert power_norm_exact(spec, 40, 2) == 0.0


def test_power_norm_of_a_scalar_multiple_never_reads_zero_times_inf():
    # |c|^40 underflows and 41^200 overflows: a saturated factor reads exp(40 log|c| + 200 log 41), one exp of the log norm
    shift = ForwardShift(NAT, PowerRatio(200, 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert power_norm_exact(scale(1e-10, shift), 40, 2) == pytest.approx(3.6038884832714e-78, rel=1e-12)
        assert power_norm_exact(scale(1e-200, shift), 40, 2) == 0.0  # about 3.6e-7678
        assert power_norm_exact(scale(1e-10, Diagonal(NAT, 1e12)), 40, 2) == pytest.approx(1e80, rel=1e-12)
        assert power_norm_exact(scale(0.5, shift), 40, 2) == math.inf
        # two factors in double range keep their product
        assert power_norm_exact(scale(0.5, shift), 4, 2) == 0.5**4 * power_norm_exact(shift, 4, 2)


def test_power_ratio_norms_with_negative_alpha_are_the_limit_one():
    # the products ((s + n - 1 + c) / (s - 1 + c))^alpha increase in the start s toward 1 when alpha < 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for spec in (BackwardShift(NAT, PowerRatio(-0.25, 0)), ForwardShift(NAT, PowerRatio(-0.4, 1))):
            for n in (1, 8, 1024):
                assert power_norm_exact(spec, n, 2) == 1.0
                assert max(p_norm(power_apply(spec, basis_vector(NAT, s), n), 2) for s in range(1, 201)) <= 1.0


def test_power_norm_on_a_finite_range_is_the_largest_basis_orbit():
    spec = ForwardShift(FiniteRange(12), PowerRatio(-1.0, 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n in range(1, 14):
            best = max(p_norm(power_apply(spec, basis_vector(FiniteRange(12), j), n), 2) for j in range(1, 13))
            assert power_norm_exact(spec, n, 2) == pytest.approx(best, rel=1e-12, abs=0.0)


# ---------------------------------------------------------------------------
# orbit_norms


def test_orbit_norms_assani_values():
    seq = orbit_norms(ASSANI, basis_vector(U2, 2), 2, 4)
    expected = [1.0, math.sqrt(5), math.sqrt(17), math.sqrt(37), math.sqrt(65)]
    assert seq.values() == pytest.approx(expected, rel=1e-14)


def test_orbit_norms_squared_is_4n2_plus_1():
    seq = orbit_norms(ASSANI, basis_vector(U2, 2), 2, 64)
    for n, value in seq.entries:
        assert value * value == pytest.approx(4.0 * n * n + 1.0, rel=1e-12)


def test_orbit_norms_identity():
    seq = orbit_norms(identity(NAT), basis_vector(NAT, 3), 2, 5)
    assert seq.values() == [1.0] * 6


def test_orbit_norms_keep_states_below_the_square_underflow():
    # 1e-200 squares to 0 and 1e200 to inf; the norms are rescaled by the largest magnitude
    seq = orbit_norms(Diagonal(NAT, 1e-100), basis_vector(NAT, 1), 2, 3)
    for n, value in seq.entries:
        assert value == pytest.approx(10.0 ** (-100 * n), rel=1e-12)
    seq = orbit_norms(Diagonal(NAT, 1e100), basis_vector(NAT, 1), 2, 3)
    assert seq.values()[3] == pytest.approx(1e300, rel=1e-12)


def test_orbit_norms_duplicating_shift():
    seq = orbit_norms(DuplicatingShift(), basis_vector(NAT, 1), 2, 2)
    assert seq.values() == pytest.approx([1.0, math.sqrt(2), math.sqrt(3)], rel=1e-14)


def _entries_close(got, want):
    """Entry-wise comparison of plain or pair vectors at the oracle tolerance."""
    if isinstance(want, PairVec):
        _entries_close(got.top, want.top)
        _entries_close(got.bottom, want.bottom)
        return
    keys = sorted(set(got.entries) | set(want.entries))
    fast = [got.entries.get(k, 0j) for k in keys]
    slow = [want.entries.get(k, 0j) for k in keys]
    assert fast == pytest.approx(slow, rel=1e-12, abs=1e-14)


def test_orbit_norms_engine_matches_sparse():
    # every engine input shape against plain core.apply stepping
    rng = np.random.default_rng(9)
    shifts = [
        BackwardShift(NAT, PowerRatio(0.25, 0)),
        ForwardShift(NAT, PowerRatio(0.4, 1)),
        ForwardShift(NAT, PolyRatio(Polynomial((0.0, 0.0, 1.0)))),
        BilateralShift(Explicit((2.0, 0.5), 1.0)),
        BilateralShift(PolyRatio(Polynomial((1.0, 0.0, 1.0))), forward=False),
    ]
    cases = []
    for spec in shifts:
        universe = INTS if isinstance(spec, BilateralShift) else NAT
        cases.append((spec, rand_vec(universe, rng, -4 if universe is INTS else 1, 9)))
    bilateral = BilateralShift(Explicit((2.0, 0.5), 1.0))
    cases += [
        (Diagonal(NAT, cmath.exp(1j), ((2, 0.5), (3, 0.0))), rand_vec(NAT, rng, 1, 9)),
        (Diagonal(INTS, 0.9, ((0, 1.0), (-2, 2.0), (3, 0.0))), rand_vec(INTS, rng, -4, 9)),
        (Diagonal(NAT, 0.0, ((6, 2.0),)), make_vector(NAT, [(1, 1.0), (3, -2.0j), (5, 0.5)])),  # dies at once
        (identity(NAT), rand_vec(NAT, rng, 2, 7)),
        (DuplicatingShift(), rand_vec(NAT, rng, 1, 9)),
        (DuplicatingShift(), rand_vec(NAT, rng, 3, 6)),
        (scale(0.5j, ForwardShift(NAT, PowerRatio(0.4, 1))), rand_vec(NAT, rng, 1, 9)),
        (scale(-0.8, DuplicatingShift()), rand_vec(NAT, rng, 1, 5)),
    ]
    for inner in (
        bilateral,
        ForwardShift(NAT, PowerRatio(0.4, 1)),
        BackwardShift(NAT, PowerRatio(0.25, 0)),
        DuplicatingShift(),
        scale(0.9j, BackwardShift(NAT, PowerRatio(0.25, 0))),
    ):
        universe = INTS if inner is bilateral else NAT
        lo = -4 if inner is bilateral else 1
        cases.append((BlockTZ(inner), PairVec(rand_vec(universe, rng, lo, 6), rand_vec(universe, rng, lo + 2, 9))))
    pair = PairVec(rand_vec(INTS, rng, -3, 3), rand_vec(INTS, rng, 0, 5))
    cases.append((scale(cmath.exp(0.7j), BlockTZ(bilateral)), pair))

    lams = np.array([1.0, -1.0, 1j, cmath.exp(0.3j)])
    checkpoints = [1, 2, 7, 16, 30]
    for spec, x in cases:
        orbit = make_orbit(spec, x, 30)
        fast = orbit_norms(spec, x, 2, 30).values()
        states = [x]
        for _ in range(30):
            states.append(apply(spec, states[-1]))
        assert fast == pytest.approx([p_norm(s, 2) for s in states], rel=1e-12, abs=1e-14)
        _entries_close(orbit.to_sparse(), x)
        for state in states[1:]:
            orbit.step()
            _entries_close(orbit.to_sparse(), state)
        table = lambda_mean_norms(spec, [x], lams, checkpoints, 2.0)[0]
        for n in checkpoints:
            total = states[0]
            for s in states[1 : n + 1]:
                total = vec_add(total, s)
            _entries_close(cesaro_apply(spec, x, n), vec_scale(1.0 / (n + 1), total))
        for i, lam in enumerate(lams):
            for j, n in enumerate(checkpoints):
                total = states[0]
                for k, s in enumerate(states[1 : n + 1], start=1):
                    total = vec_add(total, vec_scale(lam**k, s))
                assert table[i, j] == pytest.approx(p_norm(total, 2) / (n + 1), rel=1e-12, abs=1e-14)


def _fixed_frame_cases():
    """(spec, x, y) on every fixed-frame engine shape: matrices, pairs, diagonals on N and Z."""
    from cesarolab import zoo
    from cesarolab.classify import ProbeConfig, probe_vectors
    from cesarolab.core import spec_dim

    rng = np.random.default_rng(17)
    cases = []
    for entry in zoo.all_entries():
        if spec_dim(entry.spec) is not None:
            vecs = probe_vectors(entry.spec, ProbeConfig(basis_probes=1, seeded_probes=2))
            cases.append((entry.spec, vecs[-1][1], vecs[-2][1]))
    a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    a *= 0.9 / np.linalg.norm(a, 2)
    u6 = FiniteRange(6)
    cases.append((FiniteMatrix(tuple(map(tuple, a.tolist()))), rand_vec(u6, rng, 1, 6), rand_vec(u6, rng, 2, 5)))
    tz = BlockTZ(FiniteMatrix(((1.0, 0.5), (0.0, cmath.exp(0.4j)))))
    pairs = [PairVec(rand_vec(U2, rng, 1, 2), rand_vec(U2, rng, 1, 2)) for _ in range(2)]
    cases.append((tz, *pairs))
    cases += [
        (Diagonal(NAT, cmath.exp(1j), ((2, 0.5), (3, 0.0))), rand_vec(NAT, rng, 1, 16), rand_vec(NAT, rng, 4, 30)),
        (Diagonal(INTS, cmath.exp(0.7j), ((0, 1.0), (-2, 0.99))), rand_vec(INTS, rng, -8, 7), rand_vec(INTS, rng, -20, 0)),
        # dies at once; and by underflow at step 1075, inside a block
        (Diagonal(NAT, 0.0, ((6, 2.0),)), make_vector(NAT, [(1, 1.0), (3, -2.0j), (5, 0.5)]), rand_vec(NAT, rng, 1, 5)),
        (Diagonal(NAT, 0.5, ((2, 0.0),)), make_vector(NAT, [(1, 1.0), (2, 1.0)] + [(k, 0.0) for k in range(3, 17)]),
         rand_vec(NAT, rng, 1, 3)),
    ]
    return cases


def _close(a, b, scale):
    """|a - b| <= 1e-12 * scale elementwise (scale: the size of the reference); subnormals match absolutely."""
    assert a.shape == b.shape
    assert np.all(np.abs(a - b) <= 1e-12 * scale + np.finfo(float).tiny)


def _oracle_sums(states, lams, lo, width, ns):
    """{n: (sum_{k<=n} lam^k T^k x for each lam) as (lams, rows, width) arrays on lo .. lo + width - 1} from oracle states."""
    rows = 2 if isinstance(states[0], PairVec) else 1
    total = np.zeros((len(lams), rows, width), dtype=complex)
    out = {}
    for k, v in enumerate(states):
        gains = lams**k
        for r, part in enumerate((v.top, v.bottom) if rows == 2 else (v,)):
            for j, value in part.entries.items():
                total[:, r, j - lo] += gains * value
        if k in ns:
            out[k] = total.copy()
    return out


def _part_sums(spec, x, n_max, lams):
    """[(sum, rows, c)]: CesaroSums that together cover the grid lams, the rows of lams each holds, and the scalar c of
    the operator c T it steps.  A translating frame sums the whole grid; a fixed frame one part (``_lambda_parts``)
    at a time, as ``lambda_mean_norms`` does: a head lambda_grid(L) on T, any other lam as the one-point sum of lam T."""
    lams = np.asarray(lams, dtype=complex)
    if not powers.fixed_frame(spec):
        return [(CesaroSum(spec, x, n_max, lams), list(range(len(lams))), 1)]
    return [(CesaroSum(spec, x, n_max, lams[rows]), rows, 1) if period > 1 else
            (CesaroSum(spec if lam == 1 else scale(lam, spec), x, n_max), rows, lam)
            for lam, period, rows in powers._lambda_parts(lams)]


def test_block_path_matches_stepping(monkeypatch):
    # fixed frames read blocks off a power stack; the reference steps n-fold core.apply.  A small stack cap makes
    # blocks of a few to a few hundred states, and the horizon keeps the underflow death at step 1075 inside it.
    monkeypatch.setattr(powers, "_STACK_BYTES", 2**13)
    lams = np.array([1.0, -1.0, 1j, cmath.exp(0.3j)])
    for spec, x, y in _fixed_frame_cases():
        probe = make_orbit(spec, x, 10**9)
        probe.norms(2, 2)
        block = len(probe._stack)
        n_top = max(3 * block + 7, 1100)
        ns = [0, 1, block - 1, block, block + 1, n_top]
        states = _apply_oracle(spec, x, n_top)
        zero = [k for k, v in enumerate(states) if v.is_zero()]
        death = zero[0] if zero and probe.can_die else None  # a matrix orbit runs on through zero states

        # rounding scales (Higham ch. 3-4): ||T^n|| ||x|| for a state, sum_k ||T^k x|| for a sum
        sizes = np.array([p_norm(v, 2) for v in states])
        sums = [(CesaroSum(spec, x, n_top), [0], 1), *_part_sums(spec, x, n_top, lams)]
        want_sums = _oracle_sums(states, lams, sums[0][0].lo, sums[0][0].sum.shape[2], {min(n, death or n) for n in ns})
        for n in ns:
            dies = n if death is None else min(n, death)  # steps taken: the death index ends the orbit
            orbit = make_orbit(spec, x, n_top)
            norms = orbit.norms(2, n)
            _close(norms, sizes[1 : dies + 1], sizes[1 : dies + 1])
            power = power_norm_exact(spec, dies, 2) if dies else 1.0
            jump = make_orbit(spec, x, n_top)
            jump.advance(n)
            for state in (orbit, jump):
                assert state.steps == dies and state.dead == (death is not None and n >= death)
                _close(state.vals, _dense_on(states[dies], state.lo, state.vals.shape[1]), power * p_norm(x, 2))
            inners = make_orbit(spec, x, n_top).inners(y, n)
            _close(inners, np.array([inner(v, y) for v in states[1 : dies + 1]]), sizes[1 : dies + 1] * p_norm(y, 2))
            for acc, rows, c in sums:
                acc.advance_to(n)  # a fixed-frame sum reads its fold at n and takes no steps
                want = want_sums[dies][rows]
                summed = sizes[: dies + 1].sum()
                _close(acc.sum, want, summed)
                _close(acc.norms(2), np.linalg.norm(want.reshape(len(want), -1), axis=1) / (n + 1), summed / (n + 1))
                _close(acc.state(), c**dies * _dense_on(states[dies], acc.lo, acc.sum.shape[2]), power * p_norm(x, 2))


def _translating_cases():
    """(spec, x, y) on every translating-frame shape, each with a support of width 8."""
    rng = np.random.default_rng(23)
    fwd = ForwardShift(NAT, PowerRatio(0.4, 1))
    return [
        (fwd, rand_vec(NAT, rng, 3, 10), rand_vec(NAT, rng, 1, 40)),
        # dies at step 5000
        (BackwardShift(NAT, PowerRatio(0.25, 0)), make_vector(NAT, [(4993, 1.0), (4996, -0.5j), (5000, 2.0)]),
         rand_vec(NAT, rng, 1, 30)),
        (BilateralShift(Explicit((2.0, 0.5, 1.5), 0.9999)), rand_vec(INTS, rng, -4, 3), rand_vec(INTS, rng, -2, 20)),
        (BilateralShift(PolyRatio(Polynomial((1.0, 0.0, 1.0))), forward=False), rand_vec(INTS, rng, -3, 4),
         rand_vec(INTS, rng, -40, 0)),
        (scale(0.999 * cmath.exp(0.4j), fwd), rand_vec(NAT, rng, 1, 8), rand_vec(NAT, rng, 1, 12)),
        (ForwardShift(NAT, Explicit((1.5, 0.5, 3.0, 1.0, 0.25), 1.0)), rand_vec(NAT, rng, 1, 8), rand_vec(NAT, rng, 1, 30)),
    ]


def test_translating_frames_match_stepping(monkeypatch):
    # one-term shifts read states and sums off a product table; the reference steps n-fold core.apply.  A small
    # stack cap makes blocks of 64 states, and the horizon keeps the backward orbit's death at step 5000 inside it.
    monkeypatch.setattr(powers, "_STACK_BYTES", 2**13)
    lams = np.array([1.0, -1.0, 1j, cmath.exp(0.3j)])
    block = 2**13 // (16 * 8)  # states per block at width 8
    n_top = 5003
    ns = [0, 1, block - 1, block, block + 1, n_top]
    for spec, x, y in _translating_cases():
        assert make_orbit(spec, x, n_top).translating
        states = _apply_oracle(spec, x, n_top)
        zero = [k for k, v in enumerate(states) if v.is_zero()]
        death = zero[0] if zero else None
        sizes = np.array([p_norm(v, 2) for v in states])  # ||T^k x||
        sums = [CesaroSum(spec, x, n_top), CesaroSum(spec, x, n_top, lams)]
        want_sums = _oracle_sums(states, lams, sums[0].lo, sums[0].sum.shape[2], {min(n, death or n) for n in ns})
        for n in ns:
            dies = n if death is None else min(n, death)
            orbit = make_orbit(spec, x, n_top)
            norms = orbit.norms(2, n)
            assert len(norms) == dies and orbit.dead == (death is not None and n >= death)
            _close(norms, sizes[1 : dies + 1], sizes[1 : dies + 1])
            power = power_norm_exact(spec, dies, 2) if dies else 1.0
            jump = make_orbit(spec, x, n_top)
            jump.advance(n)
            for state in (orbit, jump):
                width = state.vals.shape[1]
                assert state.steps == dies and state.dead == orbit.dead
                assert all(state.lo <= k < state.lo + width for k in states[dies].entries)
                _close(state.vals, _dense_on(states[dies], state.lo, width), power * p_norm(x, 2))
            inners = make_orbit(spec, x, n_top).inners(y, n)
            _close(inners, np.array([inner(v, y) for v in states[1 : dies + 1]]), sizes[1 : dies + 1] * p_norm(y, 2))
            for acc in sums:
                acc.advance_to(n)
                assert acc.stepped == dies
                want = want_sums[dies][: len(acc.lams)]
                summed = sizes[: dies + 1].sum()
                _close(acc.sum, want, summed)
                _close(acc.norms(2), np.linalg.norm(want.reshape(len(want), -1), axis=1) / (n + 1), summed / (n + 1))
                _close(acc.state(), _dense_on(states[dies], acc.lo, acc.sum.shape[2]), power * p_norm(x, 2))


def test_translating_frame_falls_back_outside_double_range():
    # W(u) = ((u + 1) / 1)^200 leaves double range at u = 35: the table carries exponents from there on, the state at
    # n = 400 reads inf as its exact value 401^200 does, and the overflow of the orbit itself is named
    spec = ForwardShift(NAT, PowerRatio(200.0, 1))
    x = basis_vector(NAT, 1)
    orbit = make_orbit(spec, x, 400)
    assert orbit.translating and CesaroSum(spec, x, 400).orbit.translating
    assert power_apply(spec, x, 400).entries == {401: complex(math.inf, 0.0)}
    assert power_apply(spec, x, 30).entries == pytest.approx({31: 31.0**200}, rel=1e-13)
    with pytest.raises(FloatingPointError, match="n=34"):
        orbit_norms(spec, x, 2, 400)
    assert power_apply(spec, x, 20).entries == pytest.approx({21: 21.0**200}, rel=1e-13)


def test_orbit_reads_zero_where_its_exact_state_underflows():
    # 0.5^u over 2^16 steps leaves even the extended range near u = 16380; every state from about step 1100 on reads
    # 0, as its exact value and n-fold stepping (the reference) do, and the forward orbit never dies
    rng = np.random.default_rng(43)
    spec = scale(0.5, ForwardShift(NAT, PowerRatio(0.4, 1)))
    x = rand_vec(NAT, rng, 1, 32)
    n = 2**16
    lams = np.array([1.0, 1j, cmath.exp(0.3j)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        orbit = make_orbit(spec, x, n)
        states = _apply_oracle(spec, x, 1200)
        assert states[-1].is_zero()
        sizes = np.array([p_norm(v, 2) for v in states])
        norms = orbit_norms(spec, x, 2, n).values()
        _close(np.array(norms[:1201]), sizes, sizes)
        assert not any(norms[1201:])
        inners = orbit.inners(x, n)
        assert len(inners) == n and not orbit.dead and not inners[1200:].any()
        assert power_apply(spec, x, n).is_zero()
        acc = CesaroSum(spec, x, n, lams)
        acc.advance_to(n)
        assert acc.stepped == n and not acc.orbit.dead
        want = _oracle_sums(states, lams, acc.lo, acc.sum.shape[2], {1200})[1200]
        _close(acc.sum, want, sizes.sum())


def test_orbit_reads_inf_where_its_exact_state_overflows():
    # 2^u leaves even the extended range near u = 16380; from the overflow (near step 1020, and named there) on every
    # state reads inf, as its exact value does, never NaN, and so does every sum; the pairings with x are exactly 0
    rng = np.random.default_rng(47)
    spec = scale(2.0, ForwardShift(NAT, PowerRatio(0.4, 1)))
    x = rand_vec(NAT, rng, 1, 32)
    n = 2**15
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        orbit = make_orbit(spec, x, n)
        assert orbit.translating and orbit._death is None
        with np.errstate(over="ignore", invalid="ignore"):  # as the probes read overflowing orbits
            norms = orbit.norms(2, n)
            sums = lambda_mean_norms(spec, [x], [1.0, 1j], [1000, 16000, n], 2.0)[0]
        first_inf = np.argmin(np.isfinite(norms))
        assert 1000 < first_inf < 1100 and np.isinf(norms[first_inf:]).all()
        with pytest.raises(FloatingPointError, match=f"n={first_inf + 1}:"):
            orbit_norms(spec, x, 2, n)
        inners = make_orbit(spec, x, n).inners(x, n)
        assert len(inners) == n and np.isfinite(inners[:31]).all() and not inners[31:].any()
        assert np.isfinite(sums[:, 0]).all() and np.isinf(sums[:, 1:]).all()
        assert all(cmath.isinf(v) and not cmath.isnan(v) for v in power_apply(spec, x, n).entries.values())


# Magnitudes past double and extended range, against exact decimal references: a table m 2^e reads each state, norm,
# pairing and sum within a few roundings of its exact value, which a double rounds to 0 or inf only where it leaves
# double range; nothing reads NaN and no orbit dies by rule.


def _exact_products(weights) -> list[Decimal]:
    """The running products 1, w1, w1 w2, ... of double weights, exactly at 60 digits."""
    with localcontext() as ctx:
        ctx.prec = 60
        out = [Decimal(1)]
        for w in weights:
            out.append(out[-1] * Decimal(w))
    return out


def _near(got, want, rel=1e-13):
    """|got - want| <= rel |want|, elementwise, up to one ulp of the subnormal range; got is inf where want is."""
    got, want = np.asarray(got), np.asarray(want)
    finite = np.isfinite(want)
    assert got.shape == want.shape and not np.isnan(got).any() and np.all(got[~finite] == want[~finite])
    assert np.all(np.abs(got[finite] - want[finite]) <= rel * np.abs(want[finite]) + 2.0**-1074)


def test_a_table_below_extended_range_reads_its_exact_orbit():
    # the weights fall to 1e-20 for 250 steps and rise back: the table dips to 1e-5000, below even extended range, and
    # T^500 e_1 is the product of the 500 double weights, about e_501.  With x = e_1 + 1e60 e_5, (T^n x)(k + n) =
    # x(k) P(k + n - 1) / P(k - 1), P the running products: e_5 enters at 1e140 times its share of the table
    weights = [1e-20] * 250 + [1e20] * 250
    spec = ForwardShift(NAT, Explicit(tuple(weights)))
    exact = _exact_products(weights + [1.0] * 4)
    with localcontext() as ctx:
        ctx.prec = 60
        states = [{k + n: c * exact[k + n - 1] / exact[k - 1] for k, c in ((1, 1), (5, Decimal(1e60)))} for n in range(501)]
        norms = [float(sum(v * v for v in state.values()).sqrt()) for state in states]
    x = make_vector(NAT, [(1, 1.0), (5, 1e60)])
    assert abs(float(exact[500]) - 1) < 1e-13 and float(exact[250]) == 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        state = power_apply(spec, x, 500)
        assert sorted(state.entries) == [501, 505]
        _near([state.entries[501], state.entries[505]], [float(states[500][501]), float(states[500][505])])
        _near(orbit_norms(spec, x, 2, 500).values(), norms)
        y = make_vector(NAT, [(2, 1.0), (300, 1.0), (501, 1.0)])
        _near(make_orbit(spec, x, 500).inners(y, 500), [float(sum(states[n].get(k, 0) for k in (2, 300, 501))) for n in range(1, 501)])
        acc = CesaroSum(spec, x, 500, [1.0, -1.0])
        acc.advance_to(500)
        assert acc.lo == 1
        for j, lam in enumerate((1, -1)):
            want = [float(sum(lam**n * states[n].get(c, 0) for n in range(501))) for c in range(1, 506)]
            _near(acc.sum[j, 0], want)


@pytest.mark.parametrize("c", [0.5, 2.0])
def test_scaled_shift_orbits_read_exact_zeros_or_infs(c):
    # c^u (u + 1)^0.4 leaves extended range near u = 16400: at n = 2^16 every state reads 0 (c = 0.5) or inf (c = 2),
    # as its exact value does, and below the boundary each matches it; no death index, no NaN
    n = 2**16
    spec = scale(c, ForwardShift(NAT, PowerRatio(0.4, 1)))
    x = basis_vector(NAT, 1)
    weights = c * powers._rule_table(PowerRatio(0.4, 1), 1, n)
    exact = _exact_products(weights)
    want = np.array([float(exact[k]) for k in range(n + 1)])
    assert want[-1] == (0.0 if c < 1 else math.inf)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert power_apply(spec, x, n).entries == ({} if c < 1 else {n + 1: complex(math.inf, 0.0)})
        orbit = make_orbit(spec, x, n)
        with np.errstate(over="ignore"):
            norms = orbit.norms(2, n)
        assert len(norms) == n and not orbit.dead and orbit._death is None
        _near(norms, want[1:])
        acc = CesaroSum(spec, x, n, [1.0, -1.0])  # one term per cell: lam^m want[m] at e_(m+1)
        acc.advance_to(n)
        assert acc.stepped == n
        _near(acc.sum[:, 0], np.array([want, want * (-1.0) ** np.arange(n + 1)]))


def test_blocktz_over_a_table_below_extended_range_reads_its_exact_orbit():
    # BlockTZ over weights that fall to 1e-20 for 1000 steps and rise back (the table dips to 1e-20000): with
    # x = y = e_1, state n is ((n + 1) P(n) e_(n+1) - n P(n-1) e_n, P(n) e_(n+1)), P the products of the weights
    weights = [1e-20] * 1000 + [1e20] * 1000
    spec = BlockTZ(ForwardShift(NAT, Explicit(tuple(weights))))
    e1 = basis_vector(NAT, 1)
    x = PairVec(e1, e1)
    exact = _exact_products(weights)
    n = 2000
    with localcontext() as ctx:
        ctx.prec = 60
        norms = [float(((k + 1) ** 2 * exact[k] ** 2 + k**2 * exact[k - 1] ** 2 + exact[k] ** 2).sqrt()) for k in range(1, n + 1)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        state = power_apply(spec, x, n)
        assert sorted(state.top.entries) == [n, n + 1] and list(state.bottom.entries) == [n + 1]
        _near([state.top.entries[n + 1], state.top.entries[n], state.bottom.entries[n + 1]],
              [float((n + 1) * exact[n]), float(-n * exact[n - 1]), float(exact[n])])
        _near(make_orbit(spec, x, n).norms(2, n), norms)
        acc = CesaroSum(spec, x, n, [1.0, -1.0])
        acc.advance_to(n)
        assert not np.isnan(acc.sum).any()
        for j, lam in enumerate((1, -1)):  # top(m) = m P(m-1) (lam^(m-1) - lam^m), m <= n; bottom(m) = lam^(m-1) P(m-1)
            m = np.arange(1, n + 2)
            top = [float(k * exact[k - 1] * (lam ** (k - 1) - lam**k)) if k <= n else float(k * exact[k - 1] * lam ** (k - 1)) for k in m]
            sizes = [float(k * exact[k - 1] * 2) for k in m]  # the terms the sum cancels
            assert np.all(np.abs(acc.sum[j, 0, : n + 1] - top) <= 1e-13 * np.array(sizes) + 2.0**-1074)
            _near(acc.sum[j, 1, : n + 1], [float(lam ** (k - 1) * exact[k - 1]) for k in m])


def test_duplicating_sums_below_extended_range_read_their_exact_values():
    # 0.5^u leaves extended range near u = 16400, and the orbit runs on to n = 2^15 without dying; the sum of
    # (lam D / 2)^k v, v = e_1 + e_2 / 2, holds r^(j-1) + r^(j-2) / 2 + sum_{k=j..n} r^k at e_j, r = lam / 2: within
    # 1e-13 of it, and 0 where it underflows
    n = 2**15
    spec = scale(0.5, DuplicatingShift())
    v = make_vector(NAT, [(1, 1.0), (2, 0.5)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert power_apply(spec, v, n).is_zero()
        acc = CesaroSum(spec, v, n, [1.0, -1.0])
        acc.advance_to(n)
    assert acc.lo == 1 and acc.stepped == n and not acc.orbit.dead and not np.isnan(acc.sum).any()
    with localcontext() as ctx:
        ctx.prec = 60
        for j, lam in enumerate((1, -1)):
            r = Decimal(lam) / 2
            want = [float(r ** (m - 1) + (r ** (m - 2) / 2 if m >= 2 else 0) + r**m * (1 - r ** (n - m + 1)) / (1 - r))
                    for m in range(1, 1201)]
            _near(acc.sum[j, 0, :1200], want)
            assert not acc.sum[j, 0, 1200:].any()


def test_window_tables_stay_inside_the_universe():
    # a backward window dies within its width (BlockTZ one step later); no table covers the 2^20-step horizon
    x = make_vector(NAT, [(k, 1.0) for k in range(1, 33)])
    bshift = BackwardShift(NAT, PowerRatio(0.25, 0))
    orbits = [make_orbit(spec, v, 2**20) for spec, v in ((bshift, x), (BlockTZ(bshift), PairVec(x, x)))]
    assert [len(orbit._wt) for orbit in orbits] == [64, 65]
    for orbit in orbits:
        norms = orbit.norms(2, 2**20)
        assert orbit.dead and len(norms) <= 33 and norms[-1] == 0


def _composed_cases():
    """(spec, A, kappa, x): BlockTZ over every inner engine, and the duplicating shift (kappa None), with complex scalars.

    The n-th state of c1 BlockTZ(c2 T) is (A^n x + n (A^n y - kappa A^{n-1} y), A^n y), A = c1 c2 T, kappa = c1.
    """
    rng = np.random.default_rng(29)
    c, s = 0.999 * cmath.exp(0.4j), cmath.exp(0.7j)
    fwd = ForwardShift(NAT, PowerRatio(0.4, 1))
    bwd = BackwardShift(NAT, PowerRatio(0.25, 0))
    bil = BilateralShift(Explicit((2.0, 0.5, 1.5), 0.9999), forward=False)
    diag = Diagonal(NAT, cmath.exp(1j), ((2, 0.5), (3, 0.0), (7, 1.001)))
    dup = DuplicatingShift()

    def pair(universe, lo, hi):
        return PairVec(rand_vec(universe, rng, lo, hi - 2), rand_vec(universe, rng, lo + 2, hi))

    return [
        (BlockTZ(scale(c, fwd)), scale(c, fwd), 1.0, pair(NAT, 1, 8)),
        (scale(s, BlockTZ(fwd)), scale(s, fwd), s, pair(NAT, 3, 10)),
        # dies when the last column has crossed the floor, one step after its inner orbits
        (BlockTZ(scale(c, bwd)), scale(c, bwd), 1.0, pair(NAT, 1, 8)),
        (scale(s, BlockTZ(bil)), scale(s, bil), s, pair(INTS, -4, 3)),
        (BlockTZ(scale(s, diag)), scale(s, diag), 1.0, pair(NAT, 1, 8)),
        (BlockTZ(Diagonal(NAT, 0.0)), Diagonal(NAT, 0.0), 1.0, pair(NAT, 1, 8)),  # dies at step 2
        (BlockTZ(dup), dup, 1.0, pair(NAT, 1, 8)),
        # both rows reach coordinate 1, so the plateau's value is affine in n
        (scale(s, BlockTZ(scale(c, dup))), scale(s * c, dup), s, PairVec(rand_vec(NAT, rng, 1, 6), rand_vec(NAT, rng, 1, 8))),
        (BlockTZ(dup), dup, 1.0, pair(NAT, 3, 10)),  # no plateau: a plain unweighted shift
        (scale(c, dup), scale(c, dup), None, rand_vec(NAT, rng, 1, 8)),
        (dup, dup, None, rand_vec(NAT, rng, 2, 9)),
        # a zero scalar leaves no weight to telescope: (x, y) goes to (-y, 0), then to 0
        (BlockTZ(scale(0.0, fwd)), scale(0.0, fwd), 1.0, pair(NAT, 1, 8)),
        (scale(0.0, dup), scale(0.0, dup), None, rand_vec(NAT, rng, 1, 8)),
    ]


def _apply_oracle(spec, x, n):
    """T^0 x .. T^n x by n-fold core.apply."""
    states = [x]
    for _ in range(n):
        states.append(apply(spec, states[-1]))
    return states


def _dense_on(v, lo, width, dtype=complex):
    """A plain or pair vector as a (rows, width) array on the coordinates lo .. lo + width - 1."""
    rows = (v.top, v.bottom) if isinstance(v, PairVec) else (v,)
    out = np.zeros((len(rows), width), dtype=dtype)
    for r, row in enumerate(rows):
        for k, value in row.entries.items():
            out[r, k - lo] = value
    return out


def _composed_scales(states, a, kappa, x, n):
    """Rounding scales: ||A^k x|| + k (||A^k y|| + |kappa| ||A^{k-1} y||) for state k; their sum for a Cesàro sum."""
    if kappa is None:
        return np.array([p_norm(v, 2) for v in states])
    bn = np.array([p_norm(v, 2) for v in _apply_oracle(a, x.bottom, n)])
    sizes = np.array([p_norm(v, 2) for v in _apply_oracle(a, x.top, n)]) + bn
    sizes[1:] += np.arange(1, n + 1) * (bn[1:] + abs(kappa) * bn[:-1])
    return sizes


def test_composed_frames_match_apply(monkeypatch):
    # BlockTZ and the duplicating shift read states, reductions and sums off their inner frame, never stepping;
    # the reference is n-fold core.apply.  A small stack cap makes blocks of a few dozen states.
    monkeypatch.setattr(powers, "_STACK_BYTES", 2**13)
    lams = np.array([1.0, -1.0, 1j, cmath.exp(0.3j)])
    for spec, a, kappa, x in _composed_cases():
        probe = make_orbit(spec, x, 1000)
        assert probe.translating or probe.fixed
        probe.norms(2, 2)
        block = len(probe._stack) if probe.fixed else powers._STACK_BYTES // (16 * probe._a.size)
        n_top = 3 * block + 7
        ns = [0, 1, block - 1, block, block + 1, n_top]
        states = _apply_oracle(spec, x, n_top)
        zero = [k for k, v in enumerate(states) if v.is_zero()]
        death = zero[0] if zero else None
        sizes = _composed_scales(states, a, kappa, x, n_top)
        y = x if kappa is None else PairVec(x.bottom, x.top)
        sums = [(CesaroSum(spec, x, n_top), [0]), *((acc, rows) for acc, rows, _ in _part_sums(spec, x, n_top, lams))]
        assert all(acc.orbit.translating or acc.orbit.fixed for acc, _ in sums)
        for n in ns:
            dies = n if death is None else min(n, death)
            orbit = make_orbit(spec, x, n_top)
            norms = orbit.norms(2, n)
            assert len(norms) == dies and orbit.dead == (death is not None and n >= death)
            _close(norms, np.array([p_norm(v, 2) for v in states[1 : dies + 1]]), sizes[1 : dies + 1])
            jump = make_orbit(spec, x, n_top)
            jump.advance(n)
            for state in (orbit, jump):
                assert state.steps == dies
                width = state.vals.shape[1]
                parts = (states[dies].top, states[dies].bottom) if kappa is not None else (states[dies],)
                assert all(state.lo <= k < state.lo + width for part in parts for k in part.entries)
                _close(state.vals, _dense_on(states[dies], state.lo, width), sizes[dies])
            inners = make_orbit(spec, x, n_top).inners(y, n)
            _close(inners, np.array([inner(v, y) for v in states[1 : dies + 1]]), sizes[1 : dies + 1] * p_norm(y, 2))
            for acc, rows in sums:
                acc.advance_to(n)
                assert acc.stepped == dies or not acc.orbit.translating  # a fixed-frame sum takes no steps
                width = acc.sum.shape[2]
                want = [sum(lam**k * _dense_on(v, acc.lo, width) for k, v in enumerate(states[: dies + 1]))
                        for lam in lams[rows]]
                summed = sizes[: dies + 1].sum()
                _close(acc.sum, np.array(want), summed)
                _close(acc.norms(2), np.array([np.linalg.norm(w) for w in want]) / (n + 1), summed / (n + 1))



def test_duplicating_frames_at_horizon_zero():
    # M_0 x = x: a frame built for no steps still holds its initial state
    x = make_vector(NAT, [(1, 1.0), (2, 2j), (4, -0.5)])
    for spec, v in ((DuplicatingShift(), x), (BlockTZ(DuplicatingShift()), PairVec(x, vec_scale(1j, x)))):
        assert cesaro_apply(spec, v, 0) == v
        assert power_apply(spec, v, 0) == v


def test_duplicating_sums_off_the_unit_circle_are_written():
    # with |s| != 1, s^u over a wide window leaves double range: the sums' terms and gains carry exponents; and on a
    # narrow window and a short horizon, where s^u stays within it
    rng = np.random.default_rng(31)
    w = rand_vec(NAT, rng, 1, 1200)
    lams = np.array([1.0, 1j, cmath.exp(0.3j)])
    n = 6
    for spec, x, kappa, n in ((scale(0.5, DuplicatingShift()), w, None, n),
                              (BlockTZ(scale(0.5, DuplicatingShift())), PairVec(w, vec_scale(1j, w)), 1.0, n),
                              (scale(0.5, DuplicatingShift()), rand_vec(NAT, rng, 1, 8), None, 40)):
        states = _apply_oracle(spec, x, n)
        sizes = _composed_scales(states, spec.inner if kappa else spec, kappa, x, n)
        acc = CesaroSum(spec, x, n, lams)
        assert acc.orbit.translating
        acc.advance_to(n)
        want = [sum(lam**k * _dense_on(v, acc.lo, acc.sum.shape[2]) for k, v in enumerate(states)) for lam in lams]
        _close(acc.sum, np.array(want), sizes.sum())


def test_duplicating_plateaus_keep_the_scale_of_their_first_entry():
    # a first entry far from 1 moves the window's column 0 by a power of two; the plateau it feeds keeps its value
    lams = np.array([1.0, 1j, cmath.exp(0.3j)])
    n = 5
    for first in (1e50, 1e-50, 1e300):
        x = make_vector(NAT, [(1, first), (2, 1.0), (3, -2j)])
        for spec, v, kappa in ((DuplicatingShift(), x, None), (scale(0.5j, DuplicatingShift()), x, None),
                               (BlockTZ(DuplicatingShift()), PairVec(x, vec_scale(1j, x)), 1.0)):
            states = _apply_oracle(spec, v, n)
            sizes = _composed_scales(states, spec.inner if kappa else spec, kappa, v, n)
            orbit = make_orbit(spec, v, n)
            _close(orbit.norms(2, n), np.array([p_norm(s, 2) for s in states[1:]]), sizes[1:])
            _close(orbit.vals, _dense_on(states[n], orbit.lo, orbit.vals.shape[1]), sizes[n])
            y = make_vector(NAT, [(1, 1.0), (2, -1.0), (4, 1j)])
            y = PairVec(y, y) if kappa else y
            inners = make_orbit(spec, v, n).inners(y, n)
            _close(inners, np.array([inner(s, y) for s in states[1:]]), sizes[1:] * p_norm(y, 2))
            acc = CesaroSum(spec, v, n, lams)
            acc.advance_to(n)
            want = [sum(lam**k * _dense_on(s, acc.lo, acc.sum.shape[2]) for k, s in enumerate(states)) for lam in lams]
            _close(acc.sum, np.array(want), sizes.sum())


def _extended_composed_cases():
    """(spec, A, kappa, x): BlockTZ over shifts whose product table leaves double range while their states stay in it.

    The weights climb to 1e200, fall to 1e-200 and climb back, so the table's range, 1e400, exceeds double's.
    """
    rng = np.random.default_rng(37)
    c, s = 0.999 * cmath.exp(0.4j), cmath.exp(0.7j)
    profile = (1e20,) * 10 + (1e-20,) * 20 + (1e20,) * 10
    fwd = ForwardShift(NAT, Explicit(profile))
    bwd = BackwardShift(NAT, Explicit((1.0,) * 20 + profile[::-1]))  # met from source 60 down; dies at the floor
    bil = BilateralShift(Explicit((1.0,) * 20 + profile[::-1]), forward=False)

    def pair(universe, lo, hi):
        return PairVec(rand_vec(universe, rng, lo, hi - 1), rand_vec(universe, rng, lo + 1, hi))

    return [
        (BlockTZ(fwd), fwd, 1.0, pair(NAT, 1, 4)),
        (BlockTZ(scale(c, fwd)), scale(c, fwd), 1.0, pair(NAT, 1, 4)),
        (scale(s, BlockTZ(bwd)), scale(s, bwd), s, pair(NAT, 57, 60)),
        (BlockTZ(scale(c, bil)), scale(c, bil), 1.0, pair(INTS, 57, 60)),
    ]


def test_blocktz_extended_frames_match_apply():
    # BlockTZ over a shift whose table leaves double range composes its inner frame, exponents and all
    lams = np.array([1.0, 1j, cmath.exp(0.3j)])
    n = 70
    for spec, a, kappa, x in _extended_composed_cases():
        states = _apply_oracle(spec, x, n)
        sizes = _composed_scales(states, a, kappa, x, n)
        orbit = make_orbit(spec, x, n)
        assert orbit.translating and orbit._we.any()
        norms = orbit.norms(2, n)
        _close(norms, np.array([p_norm(v, 2) for v in states[1 : len(norms) + 1]]), sizes[1 : len(norms) + 1])
        assert states[len(norms)].is_zero() == orbit.dead
        _close(orbit.vals, _dense_on(states[orbit.steps], orbit.lo, orbit.vals.shape[1]), sizes[orbit.steps])
        y = PairVec(x.bottom, x.top)
        inners = make_orbit(spec, x, n).inners(y, n)
        _close(inners, np.array([inner(v, y) for v in states[1 : len(inners) + 1]]), sizes[1 : len(inners) + 1] * p_norm(y, 2))
        acc = CesaroSum(spec, x, n, lams)
        acc.advance_to(n)
        want = [sum(lam**k * _dense_on(v, acc.lo, acc.sum.shape[2]) for k, v in enumerate(states[: acc.stepped + 1]))
                for lam in lams]
        _close(acc.sum, np.array(want), sizes[: acc.stepped + 1].sum())


def test_cesaro_sum_of_a_constant_orbit_is_correctly_rounded():
    # blocks of equal states, longer than one extended-precision chunk, still sum exactly
    x = make_vector(NAT, [(1, 0.6), (2, 0.8j), (5, -0.3)])
    acc = CesaroSum(identity(NAT), x, 2**16)
    for n in sorted({2**k + d for k in range(17) for d in (0, 1)} - {2**16 + 1}):
        acc.advance_to(n)
        want = [complex(float(Fraction(v.real) * (n + 1)), float(Fraction(v.imag) * (n + 1))) for v in acc.state()[0]]
        assert acc.sum[0, 0].tolist() == want


def _written_cases(rng):
    """(spec, x) of written lam-sums whose gains are not all 1: scaled shifts, a scaled duplicating shift, BlockTZ."""
    s = 0.9 * cmath.exp(2j)
    bwd = BackwardShift(NAT, PowerRatio(0.25, 0))
    return [
        (scale(cmath.exp(0.4j), ForwardShift(NAT, PowerRatio(0.4, 1))), rand_vec(NAT, rng, 1, 6)),  # complex W
        (scale(s, bwd), rand_vec(NAT, rng, 1, 6)),
        (scale(cmath.exp(1j), DuplicatingShift()), basis_vector(NAT, 2)),
        (scale(1.1 * cmath.exp(1j), DuplicatingShift()), rand_vec(NAT, rng, 1, 6)),
        (scale(s, BlockTZ(bwd)), PairVec(rand_vec(NAT, rng, 40, 50), rand_vec(NAT, rng, 42, 52))),
        (BlockTZ(scale(s, ForwardShift(NAT, PowerRatio(0.4, 1)))), PairVec(rand_vec(NAT, rng, 1, 6), rand_vec(NAT, rng, 2, 7))),
        (scale(1.05 * cmath.exp(1j), BlockTZ(DuplicatingShift())), PairVec(rand_vec(NAT, rng, 1, 5), rand_vec(NAT, rng, 1, 5))),
    ]


def test_gains_are_rounded_as_whole_rows():
    # a write multiplies the spans of a few cells at a time by their gains; a cell must not depend on how many cells
    # or lams a write takes, so the sums written at every checkpoint 1..n are the bytes of the sums written at n alone
    rng = np.random.default_rng(29)
    for spec, x in _written_cases(rng):
        for lams in ([cmath.exp(0.7j)], [cmath.exp(0.7j), cmath.exp(2.1j)], lambda_grid(64)):
            dense, once = CesaroSum(spec, x, 50, lams), CesaroSum(spec, x, 50, lams)
            for k in range(1, 51):
                dense.advance_to(k)
            once.advance_to(50)
            assert dense.sum.tobytes() == once.sum.tobytes(), (spec, len(lams))


def _extended(v):
    """A plain or pair vector with clongdouble entries, which ``core.apply`` steps in extended precision."""
    if isinstance(v, PairVec):
        return PairVec(_extended(v.top), _extended(v.bottom))
    return type(v)(v.universe, {k: np.clongdouble(z) for k, z in v.entries.items()})


def test_written_lambda_sums_match_extended_stepping():
    # a written sum with gains (lam s)^u W(u) != 1 against n-fold core.apply stepped in extended precision: each gain
    # is its extended running product rounded once, and each cell is within n ulps of the size of its sum (the
    # first-order bound of n-fold double stepping; the largest error seen is under 3 ulps)
    rng = np.random.default_rng(5)
    n = 60
    for spec, x in _written_cases(rng):
        states = [_extended(x)]
        for _ in range(n):
            states.append(apply(spec, states[-1]))
        for lams in ([cmath.exp(0.7j)], [cmath.exp(0.7j), cmath.exp(2.1j)], lambda_grid(64)):
            acc = CesaroSum(spec, x, n, lams)
            acc.advance_to(n)
            o = acc.orbit
            factors = (acc.lams * o._scalar)[:, None] * o._weights().astype(np.clongdouble)
            factors = np.broadcast_to(factors, (len(lams), len(o._wt) - 1))
            exact = np.cumprod(np.pad(factors, ((0, 0), (1, 0)), constant_values=1), axis=1)
            assert np.array_equal(np.ldexp(acc._gain.real, acc._gain_exp) + 1j * np.ldexp(acc._gain.imag, acc._gain_exp),
                                  exact.astype(complex)), spec
            rows = 2 if isinstance(x, PairVec) else 1
            for i, lam in enumerate(np.asarray(lams, dtype=np.clongdouble)):
                want = np.zeros((rows, acc.sum.shape[2]), dtype=np.clongdouble)
                size = np.longdouble(0)
                for k, v in enumerate(states):
                    term = _dense_on(v, acc.lo, acc.sum.shape[2], np.clongdouble) * lam**k
                    want += term
                    size += np.sqrt(np.sum(np.abs(term) ** 2))
                assert np.all(np.abs(acc.sum[i] - want) <= n * np.finfo(float).eps * size), (spec, len(lams), i)


def test_only_weighted_shifts_read_norms_in_closed_form(monkeypatch):
    # a weighted shift's sums read their norms in closed form and are never written for them; BlockTZ (a B part)
    # and the duplicating shift (a plateau) write their sums (``_write``) and take the norms of the cells
    writes = []
    write = CesaroSum._write
    monkeypatch.setattr(CesaroSum, "_write", lambda self, k: (writes.append(type(self.orbit)), write(self, k)))
    rng = np.random.default_rng(31)
    shift = ForwardShift(NAT, PowerRatio(0.4, 1))
    cases = [
        (shift, rand_vec(NAT, rng, 1, 6), True),
        (scale(0.5j, BackwardShift(NAT, PowerRatio(0.25, 0))), rand_vec(NAT, rng, 3, 6), True),
        (BlockTZ(shift), PairVec(rand_vec(NAT, rng, 1, 4), rand_vec(NAT, rng, 2, 4)), False),
        (DuplicatingShift(), rand_vec(NAT, rng, 1, 4), False),
    ]
    for spec, x, closed in cases:
        writes.clear()
        assert CesaroSum(spec, x, 8, lambda_grid(4))._closed == closed
        lambda_mean_norms(spec, [x], lambda_grid(4), [1, 2, 8], 2.0)
        assert bool(writes) != closed, spec


def test_single_lambda_sum_is_the_one_point_grid():
    # a Cesàro sum and the sum over the grid [1] are one computation, bit for bit
    rng = np.random.default_rng(17)
    shift = ForwardShift(NAT, PowerRatio(0.4, 1))
    cases = [
        (Diagonal(NAT, 0.5, ((2, -1.0), (3, 1j))), rand_vec(NAT, rng, 1, 6)),
        (ASSANI, rand_vec(U2, rng, 1, 2)),
        (shift, rand_vec(NAT, rng, 1, 6)),
        (BackwardShift(NAT, PowerRatio(0.25, 0)), rand_vec(NAT, rng, 1, 40)),
        (DuplicatingShift(), rand_vec(NAT, rng, 1, 6)),
        (BlockTZ(BilateralShift(Explicit((), 1.0))), PairVec(rand_vec(INTS, rng, -3, 3), rand_vec(INTS, rng, -2, 4))),
        (scale(0.9j, shift), rand_vec(NAT, rng, 1, 6)),
    ]
    for spec, x in cases:
        for n in (1, 7, 64, 1000, 3000):
            sums = [CesaroSum(spec, x, n), CesaroSum(spec, x, n, [1])]
            for acc in sums:
                acc.advance_to(n)
            assert np.array_equal(sums[0].sum, sums[1].sum)
            assert np.array_equal(sums[0].norms(2), sums[1].norms(2))


def test_orbit_norms_submultiplicative_consistency():
    rng = np.random.default_rng(21)
    specs = [
        BackwardShift(NAT, PowerRatio(0.25, 0)),
        ForwardShift(NAT, PowerRatio(0.4, 1)),
    ]
    for spec in specs:
        x = rand_vec(NAT, rng, 1, 12)
        seq = orbit_norms(spec, x, 2, 24)
        vals = seq.values()
        for a in (1, 3, 8):
            norm_a = power_norm_exact(spec, a, 2)
            for b in range(0, 24 - a):
                assert vals[a + b] <= norm_a * vals[b] * (1 + 1e-10)


# ---------------------------------------------------------------------------
# Cesàro means


def test_cesaro_apply_single_term():
    x = basis_vector(U2, 2)
    assert cesaro_apply(ASSANI, x, 0) == x


@pytest.mark.parametrize("spec", [ASSANI, Diagonal(NAT, cmath.exp(1j)), BlockTZ(Diagonal(NAT, 0.5))])
def test_fixed_frame_mean_of_no_steps_needs_no_held_table(spec):
    # M_0 x = x with nothing held: a fixed frame's tables are built for at least one step
    x = basis_vector(U2, 2) if spec is ASSANI else make_vector(NAT, [(1, 0.5), (3, -2.0j)])
    x = PairVec(x, x) if isinstance(spec, BlockTZ) else x
    powers.drop_tables()
    assert cesaro_apply(spec, x, 0) == x
    powers.drop_tables()
    acc = CesaroSum(spec, x, 0, lambda_grid(4))
    acc.advance_to(0)
    assert np.array_equal(acc.norms(2), np.full(4, p_norm(x, 2)))


def test_translating_frame_pairing_is_its_mean_paired():
    x = make_vector(NAT, [(1, 0.5), (2, 1.0 - 1.0j), (3, 2.0)])
    y = make_vector(NAT, [(2, 1.0j), (40, 3.0)])
    for spec in (BackwardShift(NAT, PowerRatio(0.5, 1)), ForwardShift(NAT, PowerRatio(0.5, 1))):
        acc = CesaroSum(spec, x, 64)
        for n in (0, 1, 5, 64):
            acc.advance_to(n)
            mine, theirs = powers._overlap(acc.lo, acc.sum.shape[2], 1, 40)
            dense = np.zeros((1, 40), dtype=complex)
            for j, v in y.entries.items():
                dense[0, j - 1] = v
            assert acc.inner(y) == pytest.approx(complex(np.vdot(dense[:, theirs], acc.mean()[:, mine])), rel=1e-14)


def test_cesaro_apply_assani_m2():
    m2 = cesaro_apply(ASSANI, basis_vector(U2, 2), 2)
    assert m2.entries[1] == pytest.approx(-2.0 / 3.0, rel=1e-15)
    assert m2.entries[2] == pytest.approx(1.0 / 3.0, rel=1e-15)


def test_cesaro_apply_identity():
    x = make_vector(NAT, [(1, 0.5), (4, -2.0)])
    assert cesaro_apply(identity(NAT), x, 17) == x


def test_cesaro_apply_deterministic_replay():
    rng = np.random.default_rng(3)
    spec = BackwardShift(NAT, PowerRatio(0.25, 0))
    x = rand_vec(NAT, rng, 1, 20)
    first = cesaro_apply(spec, x, 200)
    second = cesaro_apply(spec, x, 200)
    assert first == second  # identical operation order -> bit-for-bit equality


def test_cesaro_means_of_infinite_cells_stay_real():
    # 1e300 * 1e300 overflows in states 1 and 2 of e_7 + e_8: the sums read inf + 0j there, and the mean scales each
    # part apart, so no inf * 0 = NaN reaches an imaginary part.  The reference sums the real states in Python floats.
    spec = BackwardShift(NAT, Explicit((1.0, 2.0, 1e-300, 3.0, 1e300, 1e300)))
    x = make_vector(NAT, [(7, 1.0), (8, 1.0)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mean = cesaro_apply(spec, x, 10)
        states = [x] + [power_apply(spec, x, n) for n in range(1, 11)]
    for k in range(1, 9):
        want = sum(s.entries.get(k, 0j).real for s in states) / 11
        got = mean.entries[k]
        assert got.imag == 0.0 and (got.real == want if math.isinf(want) else got.real == pytest.approx(want, rel=1e-15)), k


def test_cesaro_operator_norm_values():
    # M_1(assani) = (I + T)/2 = [[0, 1], [0, 0]]
    assert cesaro_operator_norm(ASSANI, 1) == pytest.approx(1.0, rel=1e-12)
    unitary = Diagonal(FiniteRange(3), cmath.exp(1j), ((2, cmath.exp(2j)),))
    for n in (1, 5, 20):
        assert cesaro_operator_norm(unitary, n) <= 1.0 + 1e-12
    zero = FiniteMatrix(((0.0, 0.0), (0.0, 0.0)))
    for n in (1, 4, 9):
        assert cesaro_operator_norm(zero, n) == pytest.approx(1.0 / (n + 1), rel=1e-12)
    with pytest.raises(ParameterError):
        cesaro_operator_norm(ASSANI, -1)


def test_cesaro_operator_norm_sweep_matches_single():
    ns = [1, 2, 5, 9]
    sweep = dict(zip(ns, lambda_operator_norms(ASSANI, [1.0 + 0j], ns)[0].tolist()))
    for n, value in sweep.items():
        assert value == pytest.approx(cesaro_operator_norm(ASSANI, n), rel=1e-11)


def test_cesaro_operator_norm_sweep_oracle_svd():
    # independent oracle: accumulate powers directly and take numpy's svd
    lam = cmath.exp(2j * math.pi / 7)
    a = np.array([[lam, lam - 1], [0, lam]], dtype=complex)
    acc = np.eye(2, dtype=complex)
    power = np.eye(2, dtype=complex)
    expected = {}
    for k in range(1, 33):
        power = a @ power
        acc = acc + power
        expected[k] = np.linalg.svd(acc / (k + 1), compute_uv=False)[0]
    spec = FiniteMatrix(((lam, lam - 1), (0.0, lam)))
    sweep = dict(zip(range(1, 33), lambda_operator_norms(spec, [1.0 + 0j], list(range(1, 33)))[0].tolist()))
    for n, value in expected.items():
        assert sweep[n] == pytest.approx(value, rel=1e-11)


# The lam sweep against clongdouble references at the exact roots of unity.  The sum
# sum_r w^{jr} B_r(k) cancels from sum_r ||B_r(k)|| down to (k+1) ||M_k||, so a few roundings
# to double at either scale bound the error of the sweep (extended precision up to its one
# rounding to double) and of the references: |got - want| <= 4 eps (sum_r ||B_r(k)|| / (k+1) + ||M_k||).
# Summing double-rounded powers, or evaluating at the double-rounded lam, exceeds it.
_EPS = np.finfo(float).eps
_SWEEP_KS = [0, 1, 5, 6, 7, 20, 21, 22, 63, 64, 65, 127, 128, 300]


def _exact_roots(period):
    """The grid lambda_grid(period) at its exact points, in clongdouble (-1 appended for odd period)."""
    turn = 8 * np.arctan(np.longdouble(1)) / period
    roots = np.exp(1j * turn * np.arange(period).astype(np.longdouble))
    return np.append(roots, np.clongdouble(-1)) if period % 2 else roots


def _residue_scale(a, period, ks):
    """sum_r ||B_r(k)||_2 / (k+1) at each k, stepped in clongdouble."""
    power = np.eye(len(a), dtype=np.clongdouble)
    sums = np.zeros((period, *a.shape), dtype=np.clongdouble)
    out = []
    for k in range(ks[-1] + 1):
        sums[k % period] += power
        power = power @ a
        if k in ks:
            out.append(sum(np.linalg.norm(b.astype(complex), 2) for b in sums) / (k + 1))
    return np.array(out)


def _stepped_sweep(a, lams, ks):
    """||M_k(lam A)|| at each exact lam and checkpoint k, stepped in clongdouble."""
    lam_a = lams[:, None, None] * a.astype(np.clongdouble)
    power = np.broadcast_to(np.eye(len(a), dtype=np.clongdouble), lam_a.shape).copy()
    total = np.zeros_like(power)
    out = []
    for k in range(ks[-1] + 1):
        total += power
        power = lam_a @ power
        if k in ks:
            out.append(largest_singular_value((total / (k + 1)).astype(complex)))
    return np.array(out).T


def _geometric_sweep(diag, lams, ks):
    """||M_k(lam D)|| for a diagonal D: the largest |(1 - z^{k+1}) / ((1 - z)(k+1))|, z = lam d, in clongdouble."""
    z = lams[:, None] * np.asarray(diag).astype(np.clongdouble)
    out = []
    for k in ks:
        with np.errstate(divide="ignore", invalid="ignore"):
            mean = np.where(z == 1, 1, (1 - z ** (k + 1)) / ((1 - z) * (k + 1)))
        out.append(np.abs(mean.astype(complex)).max(axis=1))
    return np.array(out).T


def _assert_sweep(a, period, want, monkeypatch, stack_bytes):
    if stack_bytes:
        monkeypatch.setattr(powers, "_STACK_BYTES", stack_bytes)
    got = lambda_operator_norms(FiniteMatrix(tuple(map(tuple, a.tolist()))), lambda_grid(period), _SWEEP_KS)
    bound = 4 * _EPS * (_residue_scale(a, period, _SWEEP_KS) + want)
    assert np.all(np.abs(got - want) <= bound), np.max(np.abs(got - want) / bound)


@pytest.mark.parametrize("stack_bytes", [None, 2**12])
@pytest.mark.parametrize("period", [1, 4, 7, 64])
def test_lambda_sweep_matches_geometric_sums_on_diagonals(period, stack_bytes, monkeypatch):
    # at 2^12 bytes a block holds 8 to 32 powers, so the checkpoints span many blocks
    rng = np.random.default_rng(41)
    rotation = np.diag(np.diag(powers.to_matrix(zoo.get_entry("rotation").spec)))
    diagonals = [rotation, np.diag([2.0, 1.0]), np.diag(rng.uniform(0, 1, 3) * np.exp(2j * np.pi * rng.uniform(size=3)))]
    for a in diagonals:
        _assert_sweep(a, period, _geometric_sweep(np.diag(a), _exact_roots(period), _SWEEP_KS), monkeypatch, stack_bytes)


@pytest.mark.parametrize("stack_bytes", [None, 2**12])
@pytest.mark.parametrize("period", [1, 4, 7, 64])
def test_lambda_sweep_matches_stepping_on_non_normal_matrices(period, stack_bytes, monkeypatch):
    for name in ("assani", "hyper4"):
        a = powers.to_matrix(zoo.get_entry(name).spec)
        _assert_sweep(a, period, _stepped_sweep(a, _exact_roots(period), _SWEEP_KS), monkeypatch, stack_bytes)


@pytest.mark.parametrize("samples", [4, 7, 8, 64, 65])
def test_lambda_grid_holds_one_and_minus_one_exactly(samples):
    lams = lambda_grid(samples)
    assert len(lams) == samples + samples % 2 and lams[0] == 1
    assert np.count_nonzero(lams == -1) == 1  # both parts: -1 + 0j, not e^{i pi} rounded


def test_lambda_sweep_off_the_grid_is_the_one_point_sweep():
    # a grid that is not lambda_grid(L) element for element reads each lam as the one-point sweep of lam A; a list
    # that begins with lambda_grid(L) reads its L roots as that grid does, and each lam after them one-point
    a = np.array([[-1.0, 2.0], [0.0, -1.0]])
    off = lambda_grid(8)
    off[3] *= 1 + 2**-52
    head = lambda_operator_norms(ASSANI, lambda_grid(7), _SWEEP_KS)[:7]
    for lams in (off, [1j], [1j, 1], [*lambda_grid(7), 1]):
        table = lambda_operator_norms(ASSANI, lams, _SWEEP_KS)
        grid = 7 if len(lams) == 9 else 0
        assert table[:grid].tolist() == head[:grid].tolist()
        for lam, row in zip(lams[grid:], table[grid:], strict=True):
            spec = FiniteMatrix(tuple(map(tuple, (lam * a).tolist())))
            assert row.tolist() == lambda_operator_norms(spec, [1.0], _SWEEP_KS)[0].tolist()


_FOLD_KS = [0, 1, 5, 63, 64, 65, 1000, 4097, 2**16]
_FOLD_ENTRIES = (1.0, -1.0, 1j, 0.5 * cmath.exp(0.7j))  # exact powers, and a decaying one


def _exact_fixed_frame_cases():
    """(spec, x, exact states T^k x for k <= max(_FOLD_KS) in clongdouble, shape (k, rows, width)) on fixed frames."""
    ks = np.arange(_FOLD_KS[-1] + 1)
    d = np.array(_FOLD_ENTRIES, dtype=np.clongdouble)
    powers_ = np.ones((len(ks), len(d)), dtype=np.clongdouble)
    powers_[1:] = np.cumprod(np.broadcast_to(d, (len(ks) - 1, len(d))), axis=0)
    diagonal = Diagonal(NAT, _FOLD_ENTRIES[-1], tuple(enumerate(_FOLD_ENTRIES[:-1], start=1)))
    top, bottom = np.array([0.5, -0.25, 1.0, 0.75]), np.array([1.0, 0.5j, -0.5, 0.25])
    pair = PairVec(*(make_vector(NAT, list(enumerate(v, start=1))) for v in (top, bottom)))
    prev = np.vstack([np.zeros((1, len(d))), powers_[:-1]])  # a^(k-1), 0 at k = 0
    blocktz = np.stack([powers_ * top + ks[:, None] * prev * (d - 1) * bottom, powers_ * bottom], axis=1)
    signs = (-1.0) ** ks  # ASSANI^k = (-1)^k [[1, -2k], [0, 1]]
    assani = np.stack([signs * (0.5 + 0.5 * ks), signs * -0.25], axis=1)[:, None]
    return [
        (identity(NAT), basis_vector(NAT, 1), np.ones((len(ks), 1, 1), dtype=np.clongdouble)),
        (diagonal, make_vector(NAT, list(enumerate(top, start=1))), (powers_ * top)[:, None]),
        (ASSANI, make_vector(U2, [(1, 0.5), (2, -0.25)]), assani.astype(np.clongdouble)),
        (BlockTZ(diagonal), pair, blocktz),
    ]


@pytest.mark.parametrize("period", [4, 7, 64])
def test_fixed_frame_grid_sums_are_residue_sums_at_the_exact_roots(period):
    # with B_r(n) the sum of the states k <= n with k = r mod L, the grid row j is sum_r w^{jr} B_r(n), w = e^{2 pi i/L},
    # within the _assert_sweep bound 4 eps (sum_r ||B_r(n)|| + ||sum||); the -1 of an odd grid, the one-point sum of
    # -T, is sum_k (-1)^k T^k x
    roots = _exact_roots(period)[:period]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for spec, x, states in _exact_fixed_frame_cases():
            parts = _part_sums(spec, x, _FOLD_KS[-1], lambda_grid(period))
            for n in _FOLD_KS:
                for acc, _, _ in parts:
                    acc.advance_to(n)
                padded = np.zeros((-(-(n + 1) // period) * period, *states.shape[1:]), dtype=np.clongdouble)
                padded[: n + 1] = states[: n + 1]
                classes = padded.reshape(-1, period, *states.shape[1:]).sum(axis=0)
                want = np.einsum("jr,r...->j...", roots[(np.arange(period)[:, None] * np.arange(period)) % period], classes)
                if period % 2:
                    want = np.concatenate([want, np.sum(states[: n + 1] * ((-1.0) ** np.arange(n + 1))[:, None, None], axis=0)[None]])
                scale_ = sum(np.linalg.norm(b.astype(complex)) for b in classes)
                for got, row in zip(np.concatenate([acc.sum for acc, _, _ in parts]), want, strict=True):
                    error = np.linalg.norm((got - row).astype(complex))
                    assert error <= 4 * _EPS * (scale_ + np.linalg.norm(row.astype(complex))), (spec, n, error)


def test_fixed_frame_sums_off_the_grid_are_one_point_sums():
    # on a fixed frame lambda_mean_norms reads a grid that is not lambda_grid(L) element for element as one-point sums
    # of lam T, and so the -1 of an odd grid and every lam after a head lambda_grid(L), whose rows are that grid's sum
    # on T's own orbit, as for lam = 1
    off = lambda_grid(8)
    off[3] *= 1 + 2**-52
    cases = ((off, range(8)), (lambda_grid(7), [7]), ([1j], [0]), ([1j, 1], [0, 1]), ([*lambda_grid(7), 1], [7, 8]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for spec, x, _ in _exact_fixed_frame_cases():
            for lams, rows in cases:
                for n in (1, 7, 64, 1000):
                    table = lambda_mean_norms(spec, [x], lams, [n], 2.0)[0, :, 0]
                    grid = CesaroSum(spec, x, n, lambda_grid(7)[:7])
                    grid.advance_to(n)
                    assert table[: rows[0]].tobytes() == grid.norms(2.0)[: rows[0]].tobytes(), (spec, n)
                    for j in rows:
                        single = CesaroSum(spec if lams[j] == 1 else scale(lams[j], spec), x, n)
                        single.advance_to(n)
                        assert table[j] == single.norms(2.0)[0], (spec, n, j)
                    assert grid.state().tobytes() == _dense_on(power_apply(spec, x, n), grid.lo, grid.sum.shape[2]).tobytes()


def test_fixed_frame_sums_take_one_part_of_the_grid():
    # a fixed frame sums lam = 1 or a head lambda_grid(L) on one table; any other list is refused and named to
    # lambda_mean_norms, while a translating frame sums any list
    x = make_vector(U2, [(1, 0.5), (2, -0.25)])
    for lams in ([1j], [1, 1j], [1, 1], lambda_grid(7), [*lambda_grid(8), 1]):
        with pytest.raises(ParameterError, match="lambda_mean_norms"):
            CesaroSum(ASSANI, x, 8, lams)
    for lams in ([1], lambda_grid(2), lambda_grid(7)[:7], lambda_grid(64)):
        assert len(CesaroSum(ASSANI, x, 8, lams).sum) == len(lams)
    assert len(CesaroSum(ForwardShift(NAT, PowerRatio(0.4, 1)), basis_vector(NAT, 1), 8, [1j, 1]).sum) == 2


@pytest.mark.parametrize(
    ("spec", "x"),
    [(FiniteMatrix(((2.0, 0.0), (0.0, 1.0))), basis_vector(U2, 1)), (Diagonal(NAT, 2.0), basis_vector(NAT, 1))],
    ids=["matrix", "diagonal"],
)
def test_fixed_frame_means_pass_a_state_outside_double_range(spec, x):
    # T^1024 e_1 = 2^1024 leaves double range, but M_1025 e_1 = (2^1026 - 1) / 1026 e_1 does not: the fold carries
    # the extended power past every block, so no sum goes on from the state rounded to inf
    acc = CesaroSum(spec, x, 2**14)
    for n in (1024, 1025):
        acc.advance_to(n)
        assert acc.mean()[0, 0] == pytest.approx(float(Fraction(2 ** (n + 1) - 1, n + 1)), rel=1e-12)


def test_cesaro_sweep_and_kreiss_row_one_agree_within_two_dft_roundings():
    # cb reads lam = 1 as the one-point sweep (L = 1), uk as row 0 of the L = 64 sweep: each lies within
    # 4 eps (sum_r ||B_r(k)|| / (k+1) + ||M_k||) of ||M_k||, so they differ by at most the sum of the two bounds
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for name in ("assani", "hyper4", "lambda-block", "rotation", "blocktz-nilpotent"):
            spec = zoo.get_entry(name).spec
            a = powers.to_matrix(spec)
            cb = lambda_operator_norms(spec, [1.0], _SWEEP_KS)[0]
            uk = lambda_operator_norms(spec, lambda_grid(64), _SWEEP_KS)[0]
            bound = 4 * _EPS * (_residue_scale(a, 1, _SWEEP_KS) + _residue_scale(a, 64, _SWEEP_KS) + 2 * cb)
            assert np.all(np.abs(cb - uk) <= bound), name


def test_matrix_exponential_stack_matches_single_calls():
    # rotation: |z| rounds to either side of r, so each radius mixes squaring counts; then a zero and a NaN matrix
    a = powers.to_matrix(zoo.get_entry("rotation").spec)
    args = np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False)
    stack = []
    for r in (1.0, 2.0, 4.0, 8.0):
        zs = [r * complex(math.cos(t), math.sin(t)) for t in args]
        counts = {math.ceil(math.log2(np.abs(z * a).sum(axis=0).max())) for z in zs}
        assert len(counts) == 2, (r, counts)
        stack += [z * a for z in zs]
    stack += [np.zeros((4, 4)), np.where(np.eye(4) == 1, np.nan, a)]
    stack = np.array(stack)
    batched = matrix_exponential(stack)
    for m, got in zip(stack, batched):
        assert np.array_equal(got, matrix_exponential(m), equal_nan=True)
    assert np.array_equal(batched[-2], np.eye(4))
    assert np.isnan(batched[-1]).all()
    assert matrix_exponential(stack.reshape(2, 33, 4, 4)).shape == (2, 33, 4, 4)


# ---------------------------------------------------------------------------
# the mean identity


def test_media_residual_examples():
    assert media_residual(ASSANI, basis_vector(U2, 2), 5, 2) < 1e-12
    rng = np.random.default_rng(7)
    spec = BackwardShift(NAT, PowerRatio(0.25, 0))
    x = rand_vec(NAT, rng, 1, 30)
    x = make_vector(NAT, [(k, v / p_norm(x, 2)) for k, v in x.entries.items()])
    assert media_residual(spec, x, 50, 2) < 1e-12
    assert media_residual(identity(NAT), x, 7, 2) < 1e-15


def test_media_residual_max_sweep():
    rng = np.random.default_rng(13)
    x = rand_vec(NAT, rng, 1, 10)
    assert media_residual_max(DuplicatingShift(), x, 64, 2) < 1e-11


def test_media_residual_max_names_the_first_residual_that_is_not_finite():
    # T^3 x holds 1e300 * 1e300: the residual there is inf - inf, which max() would pass over as NaN
    spec = BackwardShift(NAT, Explicit((1.0, 2.0, 1e-300, 3.0, 1e300, 1e300)))
    x = make_vector(NAT, [(7, 1.0), (8, 1.0)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert media_residual_max(spec, x, 2, 2) < 1e-11
        with pytest.raises(FloatingPointError, match="n=3"):
            media_residual_max(spec, x, 10, 2)


# ---------------------------------------------------------------------------
# BlockTZ power identity


def test_block_tz_power_check_examples():
    u = BilateralShift(Explicit((), 1.0))
    x = PairVec(basis_vector(INTS, 0), make_vector(INTS, []))
    assert block_tz_power_check(u, x, 4) < 1e-12
    x2 = PairVec(basis_vector(INTS, 0), basis_vector(INTS, 1))
    assert block_tz_power_check(u, x2, 4) < 1e-12
    # identity inner: T - I = 0, exact equality at any power
    ident = identity(FiniteRange(2))
    xp = PairVec(basis_vector(FiniteRange(2), 1), basis_vector(FiniteRange(2), 2))
    assert block_tz_power_check(ident, xp, 9) == 0.0
    xa = PairVec(basis_vector(U2, 2), basis_vector(U2, 1))
    assert block_tz_power_check(ASSANI, xa, 3) < 1e-12


# ---------------------------------------------------------------------------
# numerical kernels


def test_row_norms_rescale_where_powers_leave_the_normal_range():
    # rows whose powers underflow into subnormals (or overflow) are rescaled by their largest entry, as a single norm
    # is.  For p = 2 every row matches math.hypot, which never loses range; for other p the rescaled fsum core.p_norm
    # takes, within the 1e-14 that the rounded exponent 1/p costs a plain norm of a tiny or huge row.
    rng = np.random.default_rng(53)
    mags = np.abs(rng.standard_normal((7, 9))) * np.array([1.0, 1e-160, 1e-310, 1e160, 1e300, 0.0, 1.0])[:, None]
    mags[6, 4] = np.inf
    for p, rel in ((2.0, 4e-16), (3.0, 1e-13), (1.5, 1e-13)):
        with np.errstate(over="ignore"):  # the plain powers of the large rows overflow before they are rescaled
            rows = powers._lp_norm(mags, p, axis=1)
            singles = np.array([powers._lp_norm(row, p) for row in mags])
        if p == 2:
            want = np.array([math.hypot(*row) for row in mags[:-1]])
        else:
            want = np.array([max(r) * math.fsum((m / max(r)) ** p for m in r) ** (1 / p) if max(r) else 0.0 for r in mags[:-1]])
        assert rows[-1] == singles[-1] == math.inf
        for got in (rows[:-1], singles[:-1]):
            assert np.all(np.abs(got - want) <= rel * want + 2**-1074)


@pytest.mark.parametrize("op, dead, zero", [
    (np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex), 1, True),  # nilpotent: A^2 = 0
    (np.array([1e100, 1e90j]), 54, False),  # both weights overflow the extended range, 1e90 at its 55th power
    (np.array([1e-100, 1e-90j]), 55, True),  # both weights underflow the extended range, 1e-90 at its 56th power
    (np.array([[[1e100, 1e100 - 1.0], [0.0, 1e100]]], dtype=complex), 64, False),  # a BlockTZ block: 0 inf = NaN
], ids=["nilpotent", "overflow", "underflow", "blocktz-block"])
def test_power_stack_stops_at_a_dead_power(op, dead, zero):
    # the doubling stops at the first power that is all 0 or has no finite entry: up to it the stack is a plain full
    # doubling's, and past it every power is 0 or NaN, as is the extended last power that carries a reader past S
    size = 256
    full = np.zeros((size, *op.shape), dtype=np.clongdouble)
    full[0] = op
    mul = np.matmul if op.ndim >= 2 else np.multiply
    with np.errstate(over="ignore", invalid="ignore"):
        k = 1
        while k < size:
            m = min(k, size - k)
            full[k : k + m] = mul(full[:m], full[k - 1])
            k += m
        stack, _, last = powers._power_stack(op, size)
        want = full[: dead + 1].astype(complex)
    assert [bool(p.any()) and bool(np.isfinite(p).any()) for p in full[: dead + 1]] == [True] * dead + [False]
    assert np.array_equal(stack[: dead + 1], want, equal_nan=True)
    tail = np.concatenate([stack[dead + 1 :].ravel(), [last.ravel()[0]]])
    assert np.all(tail == 0) if zero else np.all(np.isnan(tail))


def test_largest_singular_value_against_svd():
    rng = np.random.default_rng(17)
    for d in (1, 2, 3, 5, 8):
        stack = rng.standard_normal((8, d, d)) + 1j * rng.standard_normal((8, d, d))
        values = largest_singular_value(stack)
        assert values.shape == (8,)
        for a, value in zip(stack, values):
            expected = np.linalg.svd(a, compute_uv=False)[0]
            assert value == pytest.approx(expected, rel=1e-10)
            assert largest_singular_value(a) == value
    assert largest_singular_value(np.zeros((3, 3))) == 0.0
    # squaring 1e200 overflows; sigma of the all-1e200 3x3 matrix is 3e200
    assert largest_singular_value(np.full((3, 3), 1e200)) == pytest.approx(3e200, rel=1e-12)
    big = np.array([[np.inf, 0.0], [0.0, 1.0]])
    assert largest_singular_value(big) == math.inf
    mixed = largest_singular_value(np.stack([np.eye(2), np.full((2, 2), np.nan), 2.0 * np.eye(2)]))
    assert mixed.tolist() == [1.0, math.inf, 2.0]


def test_matrix_exponential_against_scipy_and_closed_form():
    rng = np.random.default_rng(23)
    for d in (1, 2, 4):
        for _ in range(5):
            a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            ours = matrix_exponential(a)
            ref = scipy.linalg.expm(a)
            assert np.allclose(ours, ref, rtol=1e-11, atol=1e-11 * np.abs(ref).max())
    # closed form: exp(z [[-1,2],[0,-1]]) = e^{-z} [[1, 2z], [0, 1]]
    for z in (0.5, -2.0, 1.0 + 1.5j, -3.0 + 0.25j):
        ours = matrix_exponential(z * np.array([[-1.0, 2.0], [0.0, -1.0]]))
        ref = cmath.exp(-z) * np.array([[1.0, 2.0 * z], [0.0, 1.0]])
        assert np.allclose(ours, ref, rtol=1e-12, atol=1e-12 * abs(cmath.exp(-z)))


# ---------------------------------------------------------------------------
# NormSeq plumbing


def test_normseq_validation():
    with pytest.raises(ParameterError):
        NormSeq(((0, 1.0), (0, 2.0)), "vector-orbit", 2)
    with pytest.raises(ParameterError):
        NormSeq(((0, -1.0),), "vector-orbit", 2)


def test_diag_plus_nilpotent_orbit_squares():
    lam1, lam2 = cmath.exp(1j), cmath.exp(1j * math.sqrt(2))
    spec = DiagPlusNilpotent(4, 2, lam1, lam2)
    seq = orbit_norms(spec, basis_vector(FiniteRange(4), 2), 2, 32)
    for n, value in seq.entries:
        assert value**2 == pytest.approx(n * n * abs(lam1 - 1) ** 2 + 1.0, rel=1e-12)
