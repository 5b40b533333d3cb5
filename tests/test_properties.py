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
alpha up to 400, whose product table leaves double range and carries
exponents, maps e_k to the exact product of its double factors,
within 1e-12, or overflows exactly where that product leaves double range.
A Cesàro mean's norm is at most the mean and the maximum of its orbit norms,
within their derived rounding, also on shifts whose tables leave double and
extended range, and no zoo entry expects a power bounded operator to violate
absolute Cesàro or uniform Kreiss boundedness.
"""

import cmath
import math
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cesarolab.powers as powers
from cesarolab import zoo
from cesarolab.classify import (
    ProbeConfig,
    acb_constant,
    checkpoint_set,
    cesaro_bounded_probe,
    kreiss_resolvent_constant,
    power_bounded_probe,
    probe_vectors,
    strong_kreiss_exp_probe,
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
    spec_universe,
    vec_scale,
    weight_product,
)
from cesarolab.dynamics import ergodic_family, hypercyclicity_probe, mean_ergodic_probe
from cesarolab.powers import (
    CesaroSum,
    lambda_grid,
    lambda_mean_norms,
    lambda_operator_norms,
    largest_singular_value,
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


@st.composite
def closed_cases(draw):
    """(spec, x, n) of a weighted shift: ``shift_cases``, a steep forward power ratio (alpha 100 .. 300) whose table
    leaves double range within 40 steps, or either times a scalar far from 1 (|s| 1/4 .. 1/2 or 4 .. 16)."""
    spec, x, _, n = draw(shift_cases())
    if draw(st.booleans()):
        spec = ForwardShift(NAT, PowerRatio(draw(st.floats(100.0, 300.0)), draw(st.integers(1, 3))))
        x = make_vector(NAT, [(j + 1, complex(1.0, j)) for j in range(draw(st.integers(1, 6)))])
    if draw(st.booleans()):
        size = draw(st.sampled_from([draw(st.floats(0.25, 0.5)), draw(st.floats(4.0, 16.0))]))
        spec = scale(size * cmath.exp(1j * draw(unit)), spec)
    return spec, x, n


@SETTINGS
@given(closed_cases(), st.lists(unit, max_size=3), st.sampled_from([1.0, 2.0, 3.0]))
def test_closed_form_norms_match_the_written_means(case, angles, p):
    # The closed form (``CesaroSum._closed_norms``) against p_norm(cesaro_apply(lam T, x, n), p), the written sum's
    # mean, at a few checkpoints; both are inf at once where a cell of the sum leaves double range.  Bound: both
    # round the same exact norm.  The written mean's cell u <= n + w - 1 carries the gain (lam s)^u W(u), and
    # |lam| = 1 + delta with |delta| <= eps, so its cell is off by up to (n + w) eps relative, and lam T's rounded
    # weights add as much; the closed form takes |lam^u| = 1 exactly.  Spans, gains, their products, the sums of
    # positive terms, the means and the p-th roots add a few eps each on both sides, within 64 eps: so the norms
    # agree within (2 (n + w) + 64) eps relative.
    spec, x, n = case
    lams = np.exp(1j * np.array([0.0, *angles]))
    checkpoints = sorted({n // 3, n - 1, n} - {-1})
    width = max(x.entries) - min(x.entries) + 1
    with np.errstate(over="ignore", invalid="ignore"):
        table = lambda_mean_norms(spec, [x], lams, checkpoints, p)[0]
        acc = CesaroSum(spec, x, n, lams)
        assert acc._closed
        acc.advance_to(n)
        got = np.column_stack((table, acc.norms(p)))
        want = np.array([[p_norm(powers.cesaro_apply(spec if lam == 1 else scale(lam, spec), x, m), p)
                          for m in (*checkpoints, n)] for lam in lams])
    assert not np.isnan(got).any()
    assert np.array_equal(np.isinf(got), np.isinf(want)), (got, want)
    finite = np.isfinite(want)
    tol = (2 * (n + width) + 64) * np.finfo(float).eps
    assert np.all(np.abs(got[finite] - want[finite]) <= tol * want[finite]), np.max(np.abs(got - want) / want)


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
    # a family's norms are those of its vectors summed one at a time, whatever the order of their windows: a narrow
    # basis vector, x's wider window, and the basis vector again
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
        powers.drop_tables()
        family = lambda_mean_norms(spec, xs, lams, checkpoints, 2.0)
        for v, y in enumerate(xs):
            powers.drop_tables()  # a table of its own
            assert np.array_equal(family[v], lambda_mean_norms(spec, [y], lams, checkpoints, 2.0)[0]), v


@pytest.mark.parametrize("spec", [
    ForwardShift(NAT, PowerRatio(0.4, 1)),
    BackwardShift(NAT, PowerRatio(0.25, 0)),
    BlockTZ(BilateralShift(Explicit((), 1.0))),
    DuplicatingShift(),
], ids=["fshift", "bshift", "blocktz:bilateral", "dupshift"])
def test_probe_reports_do_not_depend_on_a_shared_gain_table(spec, monkeypatch):
    cfg = ProbeConfig(n_max=96, basis_probes=4, seeded_probes=6, lambda_samples=8)

    def reports() -> list:
        out = []
        for probe in (uniform_kreiss_probe, cesaro_bounded_probe):
            powers.drop_tables()
            out.append(probe(spec, cfg).to_dict())
        return out

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        shared = reports()
        monkeypatch.setattr(powers, "_held", _NeverHeld())  # no table held across sums
        alone = reports()
    assert shared == alone


class _NeverHeld(dict):
    """A holder that never holds: every lookup misses, so each power stack is built for its reader."""

    def get(self, key, default=None):
        return default


def _contraction(seed: int, d: int, size: float) -> FiniteMatrix:
    """A seeded complex d x d matrix scaled to spectral norm size."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    a *= size / np.linalg.norm(a, 2)
    return FiniteMatrix(tuple(map(tuple, a.tolist())))


@pytest.mark.parametrize("spec, windows", [
    (zoo.get_entry("assani").spec, 1),
    (zoo.get_entry("hyper4").spec, 1),
    (_contraction(5, 12, 0.9), 1),
    (Diagonal(NAT, 0.999 * cmath.exp(0.3j), ((100, 0.5),)), 2),  # the override lies past every probe window
    (BlockTZ(Diagonal(NAT, cmath.exp(1j))), 2),
    (Diagonal(NAT, 0.999 * cmath.exp(0.3j), ((2, 0.5), (30, 0.0))), 4),
    (ForwardShift(NAT, PowerRatio(0.4, 1)), 0),  # a translating frame: no power stack
], ids=["assani", "hyper4", "contraction12", "diag", "blocktz:diag", "diag:overrides", "fshift"])
def test_probe_families_read_one_power_stack(spec, windows, monkeypatch):
    # Each family of fixed-frame orbits builds one power table per run of probes whose operators agree byte for byte
    # (``windows``), and its reports are those of orbits that build their own.  A matrix's probes all read one table.
    # A diagonal's width-1 basis windows read one and its wider seeded windows another, unless a basis window sees
    # another weight (e_2 under the override at 2 sits between e_1 and e_3).  Every table is built at the cap length
    # whatever the horizon, so the coverage calls build one in either order.  A diagonal's pb norms are exact, and a
    # matrix's read the table of period 1 that its orbits and means read.  The -1 of an odd grid is the one-point sum
    # of -T, summed for every vector after the grid's roots, so it reads one table of -T per run as well.  Every
    # table holds the residue sums of its period (1 for an orbit, a mean and the pb norms, L for a sweep of
    # lambda_grid(L)); a translating frame builds none.  Each family starts with nothing held.
    pair = isinstance(spec, BlockTZ)
    cfg = ProbeConfig(n_max=96, basis_probes=4, seeded_probes=4, probe_support=8, lambda_samples=8, p=2.0 if pair else 1.0)
    xs = [x for _, x in probe_vectors(spec, cfg)]

    def coverage(ns) -> list:
        return [hypercyclicity_probe(spec, xs[-1], xs[-1], n).to_dict(verbose=True) for n in ns]

    families = {
        "mean": lambda: [(label, v.to_dict()) for label, v in ergodic_family(spec, "mean", 2**12, seed=3)[1]],
        "weak": lambda: [(label, v.to_dict()) for label, v in ergodic_family(spec, "weak", 2**12, seed=3)[1]],
        "lambda": lambda: lambda_mean_norms(spec, xs, lambda_grid(8), checkpoint_set(cfg.n_max), cfg.p).tolist(),
        "lambda, odd grid": lambda: lambda_mean_norms(spec, xs, lambda_grid(7), checkpoint_set(cfg.n_max), cfg.p).tolist(),
        "acb": lambda: acb_constant(spec, cfg).to_dict(),
        "pb": lambda: power_bounded_probe(spec, cfg).to_dict(),
        "coverage": lambda: coverage((200, 50)),
        "coverage, shortest first": lambda: coverage((50, 200)),
    }
    stacks = {"pb": 0 if isinstance(spec, Diagonal) else windows, "coverage": 1, "coverage, shortest first": 1,
              "lambda, odd grid": 2 * windows} if windows else {}
    periods = {"lambda": {8}, "lambda, odd grid": {7, 1}}
    builds = []
    build = powers._power_stack

    def counted(op, size, period=1):
        builds.append(period)
        return build(op, size, period)

    monkeypatch.setattr(powers, "_power_stack", counted)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        shared = {}
        for name, family in families.items():
            powers.drop_tables()
            builds.clear()
            shared[name] = family()
            assert len(builds) == stacks.get(name, windows), (name, builds)
            assert set(builds) <= periods.get(name, {1}), (name, builds)
        monkeypatch.setattr(powers, "_held", _NeverHeld())  # one stack per orbit
        alone = {name: family() for name, family in families.items()}
    assert shared == alone


@pytest.mark.parametrize("specs", [
    (_contraction(5, 12, 0.9), Diagonal(NAT, 0.999 * cmath.exp(0.3j), ((2, 0.5),))),
    (ForwardShift(NAT, PowerRatio(0.4, 1)), scale(cmath.exp(0.5j), DuplicatingShift())),
    (BlockTZ(Diagonal(NAT, cmath.exp(1j))), BlockTZ(BilateralShift(Explicit((), 1.0)))),
], ids=["matrix+diag", "fshift+dupshift", "blocktz:diag+blocktz:bilateral"])
def test_interleaved_families_read_what_fresh_tables_give(specs, monkeypatch):
    # the calls of two specs' families alternate, so each call finds the other spec's power stack or gain table held
    # (or, in the second, shorter round, a longer one of its own), and reads what tables built for it alone give
    cfg = ProbeConfig(n_max=96, basis_probes=2, seeded_probes=2, probe_support=8, lambda_samples=8, p=2.0)

    def calls(spec):
        xs = [x for _, x in probe_vectors(spec, cfg)]
        for n in (96, 40):
            for x in xs:
                yield lambda x=x, n=n: lambda_mean_norms(spec, [x], lambda_grid(8), checkpoint_set(n), 2.0).tolist()
                yield lambda x=x, n=n: mean_ergodic_probe(spec, x, 8 * n).to_dict()
                yield lambda x=x, n=n: hypercyclicity_probe(spec, x, x, n).to_dict(verbose=True)

    def interleaved() -> list:
        powers.drop_tables()
        return [call() for pair in zip(*map(calls, specs), strict=True) for call in pair]

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        held = interleaved()
        monkeypatch.setattr(powers, "_held", _NeverHeld())
        assert held == interleaved()


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
# the paper's implication chain at finite n: power bounded => absolutely Cesàro bounded => uniformly Kreiss bounded


@st.composite
def excursion_cases(draw):
    """A shift whose product table leaves double range, and extended range once a m > 4951, then comes back: weights
    10^a for m steps and 10^-a for m more (either first), plain or under BlockTZ, with n past the excursion."""
    a, m = draw(st.floats(10.0, 40.0)), draw(st.integers(1, 300))
    up, down = (10.0**a,) * m, (10.0**-a,) * m
    spec = ForwardShift(NAT, Explicit(up + down if draw(st.booleans()) else down + up))
    entry = st.builds(complex, st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)).filter(lambda z: abs(z) > 1e-3)
    x = make_vector(NAT, [(k + 1, v) for k, v in draw(st.dictionaries(st.integers(0, 5), entry, min_size=1, max_size=4)).items()])
    if draw(st.booleans()):
        spec, x = BlockTZ(spec), PairVec(x, make_vector(NAT, [(k + 1, 0.5 - 0.25j * k) for k in sorted(x.entries)[:2]]))
    return spec, x, draw(st.integers(2 * m, 2 * m + 40))


@SETTINGS
@given(st.one_of(frame_cases(), excursion_cases()), st.lists(unit, min_size=1, max_size=3))
def test_means_are_bounded_by_their_orbit_norms(case, angles):
    # ||M_n(lam T) x|| <= (1/(n+1)) sum_{k<=n} ||T^k x|| <= max_{k<=n} ||T^k x||: a mean is an average of unimodular
    # multiples of the orbit, so power bounded implies absolutely Cesàro bounded implies uniformly Kreiss bounded.
    # The left side is lambda_mean_norms' (one CesaroSum over the grid, or on a fixed frame one per lam, the sum of
    # lam T), the right side the orbit's norms; both read the same table, for which the inequalities are exact.  Rounding, u = eps / 2: a state entry takes at most 8 roundings (x / W, a + n b under
    # BlockTZ, times W), its norm width + 2 more and the mean of the norms n + 1 more; a sum cell takes at most 8
    # (term, gain, their product, the rounded span) relative to the sum of its terms' magnitudes, whose l2 norm over
    # the cells is at most sum_k ||T^k x||, and its norm cells + 2 more.  So the computed left side exceeds the
    # computed bounds by at most (20 + width + cells + n) u of the bound.  Overflowing orbits read inf on both sides.
    spec, x, n = case
    if x.is_zero():
        return
    lams = np.exp(1j * np.array(angles))
    lo, hi = make_orbit(spec, x, n).span(n)  # the cells of the sums
    with warnings.catch_warnings(), np.errstate(over="ignore"):  # as the probes read overflowing orbits
        warnings.simplefilter("error")
        means = lambda_mean_norms(spec, [x], lams, [n], 2.0)[0, :, 0]
        orbit = make_orbit(spec, x, n)
        norms = np.zeros(n + 1)
        norms[0] = orbit.norm(2.0)
        steps = orbit.norms(2.0, n)
        norms[1 : len(steps) + 1] = steps  # a dead orbit stays zero
    tol = (20 + 2 * (hi - lo + 1) + n) * np.finfo(float).eps / 2  # the state's width is at most the cells
    for bound in (norms.sum() / (n + 1), norms.max()):
        assert np.all(means <= bound * (1 + tol)), (means, bound)


def test_zoo_tables_follow_the_implication_chain():
    # power bounded implies absolutely Cesàro bounded and uniformly Kreiss bounded: no entry expects a power bounded
    # operator to violate either
    for entry in zoo.all_entries():
        expected = {row.probe: row.expected for row in entry.expected}
        if expected.get("power_bounded") == "bounded":
            assert expected.get("absolutely_cesaro") != "violated", entry.entry_id
            assert expected.get("uniformly_kreiss") != "violated", entry.entry_id


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


# ---------------------------------------------------------------------------
# contractions: ||A||_2 <= 1 bounds the Kreiss, strong Kreiss and uniform Kreiss constants


@st.composite
def contractions(draw):
    """(d, A) with ||A||_2 <= 1 up to the rounding of its scaling: a seeded complex matrix, or a unitary diagonal of
    angles on the probes' 16-point argument grid, where the bounds below are attained (A = I attains all three)."""
    d = draw(st.integers(1, 6))
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        a *= draw(st.floats(0.0, 1.0)) / np.linalg.norm(a, 2)
    else:
        a = np.diag(np.exp(2j * np.pi * np.array(draw(st.lists(st.integers(0, 15), min_size=d, max_size=d))) / 16))
    return d, a


_U = np.finfo(float).eps / 2  # unit roundoff of double
_U_EXT = np.finfo(np.longdouble).eps / 2  # and of the extended precision the lam sweeps sum in


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(contractions())
def test_contractions_have_kreiss_constants_at_most_one(case):
    # Rounding model, as in the lam-sweep tests: a largest singular value of a matrix rounded once to double lies
    # within 4 eps of its exact value (one rounding, sqrt(d) u <= 1.3 eps for d <= 6, and LAPACK's backward-stable
    # SVD).  ||A|| <= 1 + eta_A, eta_A the computed norm's excess over 1 plus that 4 eps.
    # kreiss: |lam| = (1 + delta)|complex(cos t, sin t)| >= (1 + delta)(1 - 3u), so delta ||(lam - A)^-1|| <= delta /
    # delta' with delta' = delta - 3u (1 + delta) - eta_A.  The LU solve is backward stable with error
    # f <= gamma_3d 2^(d-1) d ||lam - A|| (growth factor of partial pivoting, Higham ch. 9) plus the rounding u sqrt(d)
    # (2 + delta) of lam - A, so the computed value is at most delta / (delta' - f) (1 + 4 eps).
    # sk: ||e^(zA)|| e^-|z| <= e^(|z| eta_A).  matrix_exponential's series for b = zA / 2^s (||b||_1 <= 1/2) is within
    # e_s = sqrt(d) 3e-14 + 100 d u of e^b relative to e^(|z| ||A|| / 2^s) (its 1e-14 tail test in the 1-norm, ~30
    # rounded terms), and each of the s squarings at most doubles that relative error and adds gamma_d, so the value
    # is at most e^(|z| (eta_A + (sqrt(d) + 2) u)) (1 + 2^s (e_s + d u) + 4 eps), the u terms from z A and e^-|z|.
    d, a = case
    spec = FiniteMatrix(tuple(map(tuple, a.tolist())))
    eps = 2 * _U
    eta_a = max(float(np.linalg.norm(a, 2)) - 1.0, 0.0) + 4 * eps
    gamma = lambda n: n * _U / (1 - n * _U)  # noqa: E731
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        kreiss = kreiss_resolvent_constant(spec, zoo.KREISS_DELTAS)
        strong = strong_kreiss_exp_probe(spec)
    for delta, value, _ in kreiss.parameters["per_delta"]:
        low = delta - 3 * _U * (1 + delta) - eta_a - gamma(3 * d) * 2 ** (d - 1) * d * (2 + delta) - _U * math.sqrt(d) * (2 + delta)
        assert value <= delta / low * (1 + 4 * eps), (delta, value)
    norm1 = float(np.abs(a).sum(axis=0).max())
    for r, value, _ in strong.parameters["per_radius"]:
        s = max(math.ceil(math.log2(r * norm1)) + 2, 0) if norm1 else 0  # at least matrix_exponential's squarings
        e_s = math.sqrt(d) * 3e-14 + 100 * d * _U
        bound = math.exp(r * (eta_a + (math.sqrt(d) + 2) * _U)) * (1 + 2**s * (e_s + d * _U) + 4 * eps)
        assert value <= bound, (r, value, bound)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(contractions(), st.sampled_from([8, 64]))
def test_contraction_lambda_sweeps_are_bounded_by_the_averaged_power_norms(case, samples):
    # ||M_k(lam A)|| <= S_k = (1/(k+1)) sum_{m<=k} ||A^m|| by the triangle inequality.  Each computed table entry lies
    # within 4 eps (sum_r ||B_r(k)|| / (k+1) + ||M_k||) <= 8 eps S_k of its exact value (the rounding of the residue
    # DFT, as in the lam-sweep tests; sum_r ||B_r(k)|| <= sum_m ||A^m||), plus the extended-precision sums and
    # doubling products, (k + 2 d log2(k + 2) + log2 L + 2) u_ext S_k.  S_k is summed from norms of the powers in
    # ``_power_stack`` (built in extended precision and rounded once), each within 4 eps.  cb's lam = 1 sweep
    # (L = 1) and uk's lam = 1 row (L = samples) thus differ by at most twice that error.
    d, a = case
    spec = FiniteMatrix(tuple(map(tuple, a.tolist())))
    eps = 2 * _U
    n_max = 64
    ks = checkpoint_set(n_max)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        uk = lambda_operator_norms(spec, lambda_grid(samples), ks)
        cb = lambda_operator_norms(spec, [1.0], list(range(1, n_max + 1)))[0]
        norms = np.concatenate(([1.0], largest_singular_value(powers._power_stack(a, n_max)[0])))
    s = np.array([math.fsum(norms[: k + 1]) / (k + 1) for k in ks])
    ext = np.array([(k + 2 * d * math.log2(k + 2) + math.log2(samples) + 2) * _U_EXT for k in ks])
    err = (8 * eps + ext) * s
    assert np.all(uk <= s * (1 + 4 * eps) + err), np.max(uk - s)
    assert np.all(np.abs(cb[np.array(ks) - 1] - uk[0]) <= 2 * err), np.max(np.abs(cb[np.array(ks) - 1] - uk[0]) / err)


_SWEEP_KS = [0, 1, 5, 6, 7, 20, 21, 22, 63, 64, 65, 127, 128, 300]


@pytest.mark.parametrize("stack_bytes", [None, 2**12])
@pytest.mark.parametrize("grid", [[1.0], lambda_grid(7)[:7], lambda_grid(8), lambda_grid(64)], ids=["1", "7", "8", "64"])
def test_matrix_sweeps_are_the_largest_singular_values_of_the_basis_means(grid, stack_bytes, monkeypatch):
    # The two readers of the one fold (``_Fold``) agree: lambda_operator_norms (the held table, the identity as
    # right-hand side) and the CesaroSum means of e_1 .. e_d (the same table, e_j as right-hand side), both carried
    # past the table by the extended a^S.  The largest singular value of the matrix whose columns are those means lies
    # within the lam-sweep bound 4 eps (sum_r ||B_r(k)|| / (k+1) + ||M_k||) of the sweep, B_r(k) the sum of the powers
    # m <= k, m = r mod L.  At 2^12 bytes a block holds 1 to 32 powers.
    if stack_bytes:
        monkeypatch.setattr(powers, "_STACK_BYTES", stack_bytes)
    rng = np.random.default_rng(7)
    a = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
    a *= 0.9 / np.linalg.norm(a, 2)
    specs = [zoo.get_entry(name).spec for name in ("assani", "lambda-block", "hyper4", "blocktz-nilpotent", "rotation")]
    period = len(grid)
    for spec in [*specs, FiniteMatrix(tuple(map(tuple, a.tolist())))]:
        m = powers.to_matrix(spec)
        d = len(m)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sweep = lambda_operator_norms(spec, grid, _SWEEP_KS)
            means = np.zeros((period, len(_SWEEP_KS), d, d), dtype=complex)
            for j in range(d):
                acc = CesaroSum(spec, basis_vector(spec_universe(spec), j + 1), _SWEEP_KS[-1], grid)
                for c, k in enumerate(_SWEEP_KS):
                    acc.advance_to(k)
                    means[:, c, :, j] = acc.sum[:, 0] / (k + 1)
        power = np.eye(d, dtype=np.clongdouble)  # sum_r ||B_r(k)|| / (k+1), stepped in clongdouble
        classes = np.zeros((period, d, d), dtype=np.clongdouble)
        scale_ = []
        for k in range(_SWEEP_KS[-1] + 1):
            classes[k % period] += power
            power = power @ m
            if k in _SWEEP_KS:
                scale_.append(sum(np.linalg.norm(b.astype(complex), 2) for b in classes) / (k + 1))
        want = largest_singular_value(means)
        bound = 4 * np.finfo(float).eps * (np.array(scale_) + want)
        assert np.all(np.abs(sweep - want) <= bound), (spec, np.max(np.abs(sweep - want) / bound))


@pytest.mark.parametrize("name", ["assani", "blocktz-nilpotent"])
def test_fixed_frame_means_are_correctly_rounded(name):
    # A fixed frame's sum is the fold of one residue table, carried block to block by the extended power from x itself
    # and rounded once, so its mean is the exact mean rounded: each entry's real and imaginary part lies within half an
    # ulp of the largest |entry| of a 40-digit stepping reference.  The horizon 2^12 is one table of 4096 powers, so
    # n = 4097 reads a carried block.
    spec = zoo.get_entry(name).spec
    a = [[int(v.real) for v in row] for row in powers.to_matrix(spec)]  # integer entries, exact in Decimal
    family = probe_vectors(spec, ProbeConfig(basis_probes=4, seeded_probes=4))
    for label, x in family:
        if not label.startswith("seeded"):
            continue
        acc = CesaroSum(spec, x, 2**12)
        with localcontext() as ctx:
            ctx.prec = 40
            state = [[Decimal(z.real), Decimal(z.imag)] for z in (x.entries.get(j + 1, 0j) for j in range(len(a)))]
            total, k = [list(z) for z in state], 0
            for n in (1024, 1025, 2048, 4097):
                for k in range(k + 1, n + 1):
                    state = [[sum(c * z[part] for c, z in zip(row, state) if c) for part in (0, 1)] for row in a]
                    total = [[t + z for t, z in zip(tz, sz)] for tz, sz in zip(total, state)]
                acc.advance_to(n)
                mean = acc.mean().ravel()
                want = [[t / (n + 1) for t in tz] for tz in total]
                half = Decimal(math.ulp(max(math.hypot(re, im) for re, im in want))) / 2
                for z, (re, im) in zip(mean, want):
                    assert abs(Decimal(z.real) - re) <= half and abs(Decimal(z.imag) - im) <= half, (label, n)
