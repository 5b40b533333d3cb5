"""Property tests: frame orbits and Cesàro sums against the n-fold core.apply oracle, and verdicts on growing specs.

Weighted shifts (forward and backward on N, bilateral both ways on Z) with
power-ratio, polynomial-ratio and explicit weights, optionally times a
complex scalar, act on random finitely supported vectors for up to a few
hundred steps; power_norm_exact bounds every basis orbit.  Tolerances are the package's 1e-12, at the rounding scale of
each quantity: ||T^n|| ||x|| for a state, ||T^k x|| for a norm, ||T^k x|| ||y||
for an inner product and sum_k ||T^k x|| for a Cesàro sum.  The mean identity
holds within 1e-11 on shifts, BlockTZ over shifts and diagonals and the
duplicating shift; specs whose powers grow exponentially or like n^alpha,
alpha >= 1, are never reported bounded, also once their orbits overflow;
||M_n(lam T)|| of a contraction is invariant under unitary conjugation, within
the perturbation bound of the rounded conjugation.  A power-ratio shift with
alpha up to 400, whose product table leaves double range and stays in
extended precision, maps e_k to the exact product of its double factors,
within 1e-12, or overflows exactly where that product leaves double range.
"""

import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cesarolab.classify import (
    ProbeConfig,
    acb_constant,
    checkpoint_set,
    cesaro_bounded_probe,
    power_bounded_probe,
    uniform_kreiss_probe,
)
from cesarolab.core import (
    INTS,
    basis_vector,
    NAT,
    BackwardShift,
    BilateralShift,
    BlockTZ,
    Diagonal,
    DuplicatingShift,
    Explicit,
    FiniteMatrix,
    ForwardShift,
    PolyRatio,
    Polynomial,
    PowerRatio,
    apply,
    inner,
    make_vector,
    p_norm,
    PairVec,
    scale,
    vec_scale,
    weight_product,
)
from cesarolab.powers import (
    CesaroSum,
    lambda_grid,
    lambda_mean_norms,
    lambda_operator_norms,
    make_orbit,
    media_residual_max,
    power_apply,
    power_norm_exact,
)

SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None)

unit = st.floats(0.0, 2 * math.pi)
explicit = st.builds(
    Explicit, st.lists(st.floats(0.2, 3.0), max_size=6).map(tuple), st.floats(0.6, 1.4)
)
nat_rules = st.one_of(
    st.builds(PowerRatio, st.floats(-1.0, 1.0), st.integers(1, 3)),
    st.builds(
        lambda c0, c1, c2: PolyRatio(Polynomial((c0, c1, c2))),
        st.floats(0.1, 5.0), st.floats(0.0, 3.0), st.floats(0.0, 1.0),
    ),
    explicit,
)
# (x - a)^2 + d: even degree and positive on every integer
int_rules = st.one_of(
    st.builds(
        lambda a, d: PolyRatio(Polynomial((a * a + d, -2.0 * a, 1.0))), st.floats(-6.0, 6.0), st.floats(0.1, 5.0)
    ),
    explicit,
)


@st.composite
def shift_cases(draw):
    kind = draw(st.sampled_from(["forward", "backward", "bilateral+", "bilateral-"]))
    if kind.startswith("bilateral"):
        spec = BilateralShift(draw(int_rules), forward=kind == "bilateral+")
        universe, lo = INTS, draw(st.integers(-20, 20))
    else:
        spec = (ForwardShift if kind == "forward" else BackwardShift)(NAT, draw(nat_rules))
        universe, lo = NAT, draw(st.integers(1, 20))
    if draw(st.booleans()):
        spec = scale(draw(st.floats(0.7, 1.3)) * cmath.exp(1j * draw(unit)), spec)
    entry = st.builds(complex, st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)).filter(lambda z: abs(z) > 1e-3)
    offsets = draw(st.dictionaries(st.integers(0, 10), entry, min_size=1, max_size=6))
    x = make_vector(universe, [(lo + j, v) for j, v in offsets.items()])
    y = make_vector(universe, [(k, 1.0 - 0.5j * (k - lo)) for k in range(lo - 3, lo + 14) if universe.contains(k)])
    return spec, x, y, draw(st.integers(0, 300))


def _oracle(spec, x, n):
    """T^0 x .. T^k x by n-fold core.apply, ending early at the first zero state (included)."""
    states = [x]
    while len(states) <= n and (len(states) == 1 or states[-1].entries):
        states.append(apply(spec, states[-1]))
    return states


def _dense(vec, lo, width):
    out = np.zeros(width, dtype=complex)
    for k, v in vec.entries.items():
        out[k - lo] = v
    return out


def _close(got, want, scale_):
    assert np.all(np.abs(np.asarray(got) - np.asarray(want)) <= 1e-12 * np.asarray(scale_) + 1e-300)


@SETTINGS
@given(shift_cases())
def test_translating_states_norms_and_inners_match_apply(case):
    spec, x, y, n = case
    states = _oracle(spec, x, n)
    sizes = np.array([p_norm(s, 2) for s in states])
    orbit = make_orbit(spec, x, n)
    assert orbit.translating
    _close(orbit.norms(2, n), sizes[1:], sizes[1:])
    _close(make_orbit(spec, x, n).inners(y, n), [inner(s, y) for s in states[1:]], sizes[1:] * p_norm(y, 2))
    jump = make_orbit(spec, x, n)
    jump.advance(n)
    got, want = jump.to_sparse(), states[-1]
    keys = sorted(set(got.entries) | set(want.entries))
    bound = power_norm_exact(spec, len(states) - 1, 2) * p_norm(x, 2) if len(states) > 1 else p_norm(x, 2)
    _close([got.entries.get(k, 0j) for k in keys], [want.entries.get(k, 0j) for k in keys], bound)


@SETTINGS
@given(shift_cases(), st.lists(unit, min_size=1, max_size=3))
def test_translating_cesaro_sums_match_apply(case, angles):
    spec, x, _, n = case
    lams = np.exp(1j * np.array([0.0, *angles]))
    acc = CesaroSum(spec, x, n, lams)
    assert acc.orbit.translating
    acc.advance_to(n)
    states = _oracle(spec, x, n)
    width = acc.sum.shape[2]
    magnitude = sum(p_norm(s, 2) for s in states)
    for i, lam in enumerate(lams):
        want = sum(lam**k * _dense(s, acc.lo, width) for k, s in enumerate(states))
        _close(acc.sum[i, 0], want, magnitude)
        _close(acc.norms(2)[i], np.linalg.norm(want) / (n + 1), magnitude / (n + 1))


@SETTINGS
@given(shift_cases())
def test_power_norm_bounds_basis_orbits(case):
    spec, x, _, n = case
    n = n % 40 + 1
    universe = x.universe
    starts = [j for j in range(min(x.entries) - 30, max(x.entries) + 30) if universe.contains(j)]
    best = max(p_norm(power_apply(spec, basis_vector(universe, j), n), 2) for j in starts)
    assert power_norm_exact(spec, n, 2) >= best * (1 - 1e-12)


_DOUBLE = np.finfo(float)


def _exact_product(factors) -> complex | None:
    """The exact product of complex doubles, each part correctly rounded; None where a part leaves double range.

    The product is a Gaussian integer over a power of two, multiplied out by a balanced tree.
    """
    terms = []
    for f in factors:
        (a, da), (b, db) = f.real.as_integer_ratio(), f.imag.as_integer_ratio()
        den = max(da, db)  # both are powers of two
        terms.append((a * (den // da), b * (den // db), den))
    while len(terms) > 1:
        pairs = [(p * r - q * t, p * t + q * r, d * e) for (p, q, d), (r, t, e) in zip(terms[::2], terms[1::2])]
        terms = pairs + terms[len(pairs) * 2 :]
    re, im, den = terms[0]
    try:
        return complex(re / den, im / den)  # integer division rounds correctly
    except OverflowError:
        return None


@SETTINGS
@given(st.floats(50.0, 400.0), st.integers(1, 3000), st.integers(1, 4000), st.floats(0.25, 4.0), unit)
def test_power_ratio_basis_orbits_match_the_exact_product(alpha, k, n, size, angle):
    # T e_j = s w_j e_{j+1}, so T^n e_k = (prod of the n factors s w_j from j = k) e_{k+n}.  Its product table leaves
    # double range for most draws and is then kept in extended precision.  The reference is the exact product of
    # the same double factors, so a non-finite value appears exactly where it leaves double range.  In magnitude
    # the closed form |s|^n weight_product(rule, k, n) differs from it only by the rounding of the n factors,
    # at most (alpha + 3) eps / 2 each.
    rule = PowerRatio(alpha, 1)
    s = size * cmath.exp(1j * angle)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = power_apply(scale(s, ForwardShift(NAT, rule)), basis_vector(NAT, k), n)
    assert set(got.entries) <= {k + n}
    entry = got.entries.get(k + n, 0j)
    num = np.arange(k, k + n, dtype=float) + rule.offset
    want = _exact_product((s * (num / (num - 1.0)) ** alpha).tolist())
    if want is None or not cmath.isfinite(entry):  # both leave double range, up to the 1e-12 rounding
        assert want is None or max(abs(want.real), abs(want.imag)) >= _DOUBLE.max * (1 - 1e-12)
        assert not cmath.isfinite(entry)
        return
    assert abs(entry - want) <= 1e-12 * abs(want) + _DOUBLE.tiny
    closed = abs(s) ** n * weight_product(rule, k, n)  # NaN where |s|^n underflows and the product overflows
    if math.isfinite(closed):
        assert abs(abs(want) - closed) <= n * (alpha + 3) * _DOUBLE.eps * abs(want) + _DOUBLE.tiny


# ---------------------------------------------------------------------------
# the mean identity on every frame, and verdicts on growing specs


@st.composite
def frame_cases(draw):
    """Random shifts, BlockTZ over shifts and diagonals, and the duplicating shift, with a random vector."""
    spec, x, _, _ = draw(shift_cases())
    kind = draw(st.sampled_from(["shift", "blocktz-shift", "blocktz-diagonal", "dupshift", "blocktz-dupshift"]))
    universe = x.universe
    if kind == "blocktz-diagonal":
        overrides = draw(st.dictionaries(st.integers(-3, 12), st.builds(cmath.rect, st.floats(0.0, 1.2), unit), max_size=4))
        if universe is NAT:
            overrides = {k: v for k, v in overrides.items() if k >= 1}
        spec = BlockTZ(Diagonal(universe, cmath.rect(draw(st.floats(0.5, 1.0)), draw(unit)), overrides))
    elif kind.endswith("dupshift"):
        universe = NAT
        spec = scale(cmath.exp(1j * draw(unit)), DuplicatingShift()) if draw(st.booleans()) else DuplicatingShift()
        x = make_vector(NAT, [(k + 1, v) for k, v in draw(st.dictionaries(st.integers(0, 10), st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False), min_size=1, max_size=6)).items() if v])
    if kind.startswith("blocktz") and kind != "blocktz-diagonal":
        spec = BlockTZ(spec)
    if kind.startswith("blocktz"):
        y = make_vector(universe, [(k + 1, 0.5 - 0.25j * k) for k in sorted(x.entries)[:3]])
        x = PairVec(x, y)
    return spec, x, draw(st.integers(1, 64))


@SETTINGS
@given(frame_cases())
def test_mean_identity_holds_on_every_frame(case):
    spec, x, n = case
    if x.is_zero():
        return
    unit_x = vec_scale(1.0 / p_norm(x, 2), x)
    assert media_residual_max(spec, unit_x, n, 2) <= 1e-11


# ---------------------------------------------------------------------------
# lambda sweeps over a probe family: every vector gets its one-vector table, bit for bit


def _same_support(draw, x):
    """A vector with x's support, hence x's window, and fresh entries of magnitude 0.1 .. 2."""
    entry = st.builds(cmath.rect, st.floats(0.1, 2.0), unit)
    if isinstance(x, PairVec):
        return PairVec(_same_support(draw, x.top), _same_support(draw, x.bottom))
    return make_vector(x.universe, [(k, draw(entry)) for k in sorted(x.entries)])


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(st.data(), frame_cases(), st.integers(1, 3), st.lists(unit, max_size=2))
def test_family_lambda_sweeps_match_one_vector_sweeps(data, case, extra, angles):
    # a basis vector first builds the running products mu^u on its narrow window, x's wider window grows them, and
    # the basis vector again reads a prefix of the grown table
    spec, x, n = case
    if x.is_zero():
        return
    k = min(x.top.entries if isinstance(x, PairVec) else x.entries)
    e_k = basis_vector(x.universe, k)
    e_k = PairVec(e_k, make_vector(x.universe, [])) if isinstance(x, PairVec) else e_k
    xs = [e_k, x] + [_same_support(data.draw, x) for _ in range(extra)] + [e_k]
    lams = np.exp(1j * np.array([0.0, *angles]))
    checkpoints = checkpoint_set(n)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        family = lambda_mean_norms(spec, xs, lams, checkpoints, 2.0)
        for v, y in enumerate(xs):
            assert np.array_equal(family[v], lambda_mean_norms(spec, [y], lams, checkpoints, 2.0)[0]), v


@pytest.mark.parametrize("spec", [
    ForwardShift(NAT, PowerRatio(0.4, 1)),
    BackwardShift(NAT, PowerRatio(0.25, 0)),
    BlockTZ(BilateralShift(Explicit((), 1.0))),
    DuplicatingShift(),
], ids=["fshift", "bshift", "blocktz:bilateral", "dupshift"])
def test_probe_reports_do_not_depend_on_a_shared_gain_table(spec, monkeypatch):
    cfg = ProbeConfig(n_max=96, basis_probes=4, seeded_probes=6, lambda_samples=8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        shared = [probe(spec, cfg).to_dict() for probe in (uniform_kreiss_probe, cesaro_bounded_probe)]
        monkeypatch.setattr(CesaroSum, "_sharing", classmethod(lambda cls, _, *args: cls(*args)))  # each its own mu^u
        alone = [probe(spec, cfg).to_dict() for probe in (uniform_kreiss_probe, cesaro_bounded_probe)]
    assert shared == alone


growing = st.one_of(
    st.builds(lambda a: ForwardShift(NAT, PowerRatio(a, 1)), st.floats(1.0, 300.0)),
    st.builds(lambda r, t: Diagonal(NAT, cmath.rect(r, t)), st.floats(1.5, 1e100), unit),
    st.builds(lambda r, t: Diagonal(INTS, 1.0, ((0, cmath.rect(r, t)),)), st.floats(1.5, 1e100), unit),
)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(growing, st.sampled_from([64, 256, 2048]))
def test_growing_specs_are_never_bounded(spec, n_max):
    # ||T^n|| grows exponentially or like n^alpha with alpha >= 1: overflow gives violated or inconclusive, never bounded
    cfg = ProbeConfig(n_max=n_max, basis_probes=2, seeded_probes=1, lambda_samples=4, probe_support=8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for probe in (acb_constant, cesaro_bounded_probe, uniform_kreiss_probe, power_bounded_probe):
            verdict = probe(spec, cfg)
            assert verdict.status != "bounded_up_to", (probe.__name__, verdict)
            assert all(math.isfinite(v) for v in (verdict.witness or {}).values() if isinstance(v, float))


# ---------------------------------------------------------------------------
# unitary invariance of the lam sweep


@SETTINGS
@given(st.integers(1, 6), st.floats(0.0, 0.9), st.integers(0, 256), st.integers(0, 2**32 - 1))
def test_lambda_norms_invariant_under_unitary_conjugation(d, size, n, seed):
    # ||M_n(lam U A U*)|| = ||M_n(lam A)||.  The computed conjugation is Q (A + E) Q^{-1} with
    # ||E|| <= eta = 3 d^2 eps ||A|| (two products, each within d gamma_d in the 2-norm, and Q's distance
    # from unitarity), which moves M_k by at most (1/(k+1)) sum_{m<=k} m s^{m-1} eta, s = ||A|| + eta;
    # each table adds its own rounding, 4 eps (sum_{m<=k} s^m / (k+1) + ||M_k||) with ||M_k|| <= 1.
    rng = np.random.default_rng(seed)
    gauss = lambda: rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))  # noqa: E731
    a = gauss()
    a *= size / np.linalg.norm(a, 2)
    u, _ = np.linalg.qr(gauss())
    ks = sorted({0, n // 3, n})
    tables = [
        lambda_operator_norms(FiniteMatrix(tuple(map(tuple, m.tolist()))), lambda_grid(8), ks)
        for m in (a, u @ a @ u.conj().T)
    ]
    eps = np.finfo(float).eps
    eta = 3 * d * d * eps * size
    s = size + eta
    tol = np.array([
        sum(m * s ** (m - 1) for m in range(1, k + 1)) * eta / (k + 1)
        + 8 * eps * (sum(s**m for m in range(k + 1)) / (k + 1) + 1)
        for k in ks
    ])
    assert np.all(tol <= 1e-12 * tables[0].max())
    assert np.all(np.abs(tables[1] - tables[0]) <= tol), np.max(np.abs(tables[1] - tables[0]) / tol)
