import cmath
import math
import warnings

import numpy as np
import pytest

from cesarolab.classify import (
    ProbeConfig,
    acb_constant,
    adversarial_vector,
    cesaro_bounded_probe,
    checkpoint_set,
    dyadic_divergence,
    growth_exponent,
    kreiss_resolvent_constant,
    lambda_grid,
    power_bounded_probe,
    probe_vectors,
    ratio_trend,
    strong_kreiss_exp_probe,
    uniform_kreiss_probe,
)
from cesarolab.core import (
    NAT,
    BackwardShift,
    BilateralShift,
    BlockTZ,
    Diagonal,
    DomainError,
    DuplicatingShift,
    Explicit,
    FiniteMatrix,
    FiniteRange,
    ForwardShift,
    ParameterError,
    PowerRatio,
    UnsupportedVariantError,
    basis_vector,
    identity,
    p_norm,
    scale,
    spec_dim,
)
from cesarolab.powers import (
    NormSeq,
    cesaro_apply,
    lambda_mean_norms,
    lambda_operator_norms,
    make_orbit,
    power_norm_exact,
    power_norms_exact,
)
from cesarolab.core import INTS as INTS_

ASSANI = FiniteMatrix(((-1.0, 2.0), (0.0, -1.0)))
ACB = BackwardShift(NAT, PowerRatio(0.25, 0))
KREISS_FWD = ForwardShift(NAT, PowerRatio(0.4, 1))
NON_CESARO = BackwardShift(NAT, PowerRatio(0.5, 0))


def test_probe_vectors_are_unit():
    cfg = ProbeConfig(basis_probes=4, seeded_probes=6)
    for spec in (ACB, ASSANI, BlockTZ(BilateralShift(Explicit((), 1.0)))):
        for label, x in probe_vectors(spec, cfg):
            assert p_norm(x, 2) == pytest.approx(1.0, abs=1e-12), label


def test_probe_vectors_deterministic():
    cfg = ProbeConfig(seeded_probes=5)
    first = probe_vectors(ACB, cfg)
    second = probe_vectors(ACB, cfg)
    assert [l for l, _ in first] == [l for l, _ in second]
    assert all(a == b for (_, a), (_, b) in zip(first, second))


def test_adversarial_vector_values():
    x = adversarial_vector(4, 2)
    assert x.entries == {k: pytest.approx(0.5 + 0j) for k in range(1, 5)}
    assert p_norm(x, 2) == pytest.approx(1.0, abs=1e-15)
    x2 = adversarial_vector(2, 1)
    assert x2.entries == {1: pytest.approx(0.5 + 0j), 2: pytest.approx(0.5 + 0j)}
    with pytest.raises(ParameterError):
        adversarial_vector(3, 2)


def test_dyadic_divergence_protocol():
    growing = [(n, float(n)) for n in (8, 16, 32, 64, 128)]
    hit, wn, wv = dyadic_divergence(growing)
    assert hit and wn == 128 and wv == 128.0
    flat = [(n, 1.0) for n in (8, 16, 32, 64)]
    assert dyadic_divergence(flat)[0] is False
    # growth that does not sustain to the end is not flagged
    spike = [(8, 1.0), (16, 5.0), (32, 0.1), (64, 0.1)]
    assert dyadic_divergence(spike)[0] is False


# ---------------------------------------------------------------------------
# absolutely Cesàro bounded


def test_acb_backward_shift_bounded_by_jensen_constant():
    cfg = ProbeConfig(n_max=2048, basis_probes=12, seeded_probes=40)
    verdict = acb_constant(ACB, cfg)
    assert verdict.bounded()
    assert verdict.best_constant <= math.sqrt(6.0)
    assert verdict.certainty == "probe"


def test_acb_forward_shift_violated():
    cfg = ProbeConfig(n_max=10**4, basis_probes=3, seeded_probes=3)
    verdict = acb_constant(KREISS_FWD, cfg)
    assert verdict.status == "violated"
    # direct-summation oracle for the e_1 average at N = 10^4
    avg = math.fsum((n + 1) ** 0.4 for n in range(1, 10**4 + 1)) / 10**4
    assert verdict.best_constant == pytest.approx(avg, rel=1e-9)
    assert avg == pytest.approx(28.44, rel=1e-3)


def test_acb_identity_constant_one():
    verdict = acb_constant(identity(NAT), ProbeConfig(n_max=256, seeded_probes=4))
    assert verdict.bounded()
    assert verdict.best_constant == pytest.approx(1.0, rel=1e-12)


def test_acb_monotone_in_n_max_and_probes():
    small = acb_constant(ACB, ProbeConfig(n_max=128, basis_probes=4, seeded_probes=4))
    bigger_n = acb_constant(ACB, ProbeConfig(n_max=512, basis_probes=4, seeded_probes=4))
    more_probes = acb_constant(ACB, ProbeConfig(n_max=128, basis_probes=8, seeded_probes=8))
    assert bigger_n.best_constant >= small.best_constant - 1e-15
    assert more_probes.best_constant >= small.best_constant - 1e-15


# ---------------------------------------------------------------------------
# power bounded


def test_power_bounded_exact_verdicts():
    violated = power_bounded_probe(ACB, ProbeConfig(n_max=2048))
    assert violated.status == "violated" and violated.certainty == "exact"
    unitary = Diagonal(FiniteRange(3), cmath.exp(1j))
    bounded = power_bounded_probe(unitary, ProbeConfig(n_max=512))
    assert bounded.bounded() and bounded.best_constant == pytest.approx(1.0)
    assani = power_bounded_probe(ASSANI, ProbeConfig(n_max=1024))
    assert assani.status == "violated"


def test_power_bounded_probe_fallback():
    from cesarolab.core import DuplicatingShift

    verdict = power_bounded_probe(DuplicatingShift(), ProbeConfig(n_max=512, seeded_probes=4))
    assert verdict.status == "violated"
    assert verdict.certainty == "probe"
    assert verdict.witness is not None and "vector" in verdict.witness


def test_power_bounded_zero_operator_is_exactly_bounded():
    verdict = power_bounded_probe(scale(0.0, ForwardShift(NAT, PowerRatio(200, 1))), ProbeConfig(n_max=256))
    assert verdict.status == "bounded_up_to" and verdict.certainty == "exact"
    assert verdict.best_constant == 0.0 and "non_finite_at" not in verdict.parameters


# ---------------------------------------------------------------------------
# Cesàro bounded


def test_cesaro_bounded_assani_exact():
    verdict = cesaro_bounded_probe(ASSANI, ProbeConfig(n_max=10**4))
    assert verdict.bounded() and verdict.certainty == "exact"
    assert verdict.best_constant <= 3.0


def test_cesaro_bounded_identity():
    verdict = cesaro_bounded_probe(identity(NAT), ProbeConfig(n_max=256, seeded_probes=4, include_adversarial=False))
    assert verdict.bounded()
    assert verdict.best_constant == pytest.approx(1.0, rel=1e-12)


def test_cesaro_bounded_non_cesaro_shift_violated():
    cfg = ProbeConfig(n_max=2**14, basis_probes=4, seeded_probes=4)
    verdict = cesaro_bounded_probe(NON_CESARO, cfg)
    assert verdict.status == "violated"
    assert "adversarial" in verdict.witness["vector"]
    assert _replayed(NON_CESARO, cfg, "cb", verdict.witness) == verdict.witness["value"]
    # logarithmic lower bound at n = 2^10 with c = 0.4309644
    c = (2.0 / 3.0) * (1.0 - 2.0 ** (-1.5))
    n = 2**10
    value = p_norm(cesaro_apply(NON_CESARO, adversarial_vector(n, 2), n - 1), 2)
    assert value * value >= 0.9 * c * c * math.log(n / 2)
    assert value * value >= 1.159  # frozen: bound evaluates to ~1.16 at n = 2^10


# ---------------------------------------------------------------------------
# uniformly Kreiss


def test_lambda_grid_contains_unit_points():
    lams = lambda_grid(64)
    assert any(abs(l - 1.0) < 1e-14 for l in lams)
    assert any(abs(l + 1.0) < 1e-14 for l in lams)


def test_uniform_kreiss_forward_shift_bounded():
    cfg = ProbeConfig(n_max=1024, basis_probes=4, seeded_probes=6)
    verdict = uniform_kreiss_probe(KREISS_FWD, cfg)
    assert verdict.bounded()
    assert verdict.best_constant < 5.0


def test_uniform_kreiss_assani_violated_at_minus_one():
    verdict = uniform_kreiss_probe(ASSANI, ProbeConfig(n_max=2048))
    assert verdict.status == "violated" and verdict.certainty == "exact"
    lam = complex(*verdict.witness["lam"])
    assert abs(lam + 1.0) < 1e-9  # the worst violation sits at lam = -1


def test_uniform_kreiss_identity():
    verdict = uniform_kreiss_probe(identity(FiniteRange(2)), ProbeConfig(n_max=256, lambda_samples=16))
    assert verdict.bounded()
    assert verdict.best_constant <= 1.0 + 1e-9


def test_uniform_kreiss_dominates_cesaro_at_lambda_one():
    cfg = ProbeConfig(n_max=512, basis_probes=4, seeded_probes=4, include_adversarial=False)
    uk = uniform_kreiss_probe(ACB, cfg)
    cb = cesaro_bounded_probe(ACB, cfg)
    assert uk.best_constant >= cb.best_constant - 1e-12


# ---------------------------------------------------------------------------
# Kreiss resolvent


def test_kreiss_assani_violated_with_jordan_rate():
    deltas = [2.0**-k for k in range(3, 17)]
    verdict = kreiss_resolvent_constant(ASSANI, deltas)
    assert verdict.status == "violated"
    per_delta = verdict.parameters["per_delta"]
    # delta * ||R|| doubles per dyadic delta step (Jordan block: ||R|| ~ 2/delta^2)
    values = {d: v for d, v, _ in per_delta}
    for k in range(3, 16):
        ratio = values[2.0 ** -(k + 1)] / values[2.0**-k]
        assert 1.6 <= ratio <= 2.4
    # oracle at delta = 1e-3-ish: closed-form resolvent of the 2x2 block
    delta = 2.0**-10
    r = np.array([[-1.0 / delta, 2.0 / delta**2], [0.0, -1.0 / delta]])
    expected = delta * np.linalg.svd(r, compute_uv=False)[0]
    assert values[delta] == pytest.approx(expected, rel=1e-9)


def test_kreiss_scalar_and_zero():
    deltas = [2.0**-k for k in range(3, 12)]
    one = kreiss_resolvent_constant(FiniteMatrix(((1.0,),)), deltas)
    assert one.bounded()
    assert one.best_constant == pytest.approx(1.0, rel=1e-9)
    zero = kreiss_resolvent_constant(FiniteMatrix(((0.0,),)), deltas)
    assert zero.bounded()
    assert zero.best_constant <= 1.0 + 1e-12


def test_kreiss_invariant_under_unitary_conjugation():
    rng = np.random.default_rng(31)
    deltas = [2.0**-k for k in range(3, 10)]
    base = kreiss_resolvent_constant(ASSANI, deltas)
    a = np.array([[-1.0, 2.0], [0.0, -1.0]], dtype=complex)
    for _ in range(5):
        m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        q, _ = np.linalg.qr(m)
        conj = q @ a @ q.conj().T
        spec = FiniteMatrix(tuple(tuple(row) for row in conj.tolist()))
        other = kreiss_resolvent_constant(spec, deltas)
        assert other.best_constant == pytest.approx(base.best_constant, rel=1e-9)


def test_kreiss_requires_finite_dimensions():
    with pytest.raises(UnsupportedVariantError):
        kreiss_resolvent_constant(ACB, [0.1])


# ---------------------------------------------------------------------------
# strongly Kreiss (exponential probe)


def test_strong_kreiss_zero_and_unitary():
    zero = strong_kreiss_exp_probe(FiniteMatrix(((0.0,),)))
    assert zero.bounded()
    assert zero.best_constant <= 1.0
    unitary = strong_kreiss_exp_probe(Diagonal(FiniteRange(2), cmath.exp(1j)))
    assert unitary.bounded()
    assert unitary.best_constant <= 1.0 + 1e-9


def test_strong_kreiss_assani_violated():
    verdict = strong_kreiss_exp_probe(ASSANI)
    assert verdict.status == "violated"
    # closed form: sup over |z| = r of ||e^{zT}|| e^{-r} reaches ~2r at z = -r
    per_radius = {r: v for r, v, _ in verdict.parameters["per_radius"]}
    expected = np.linalg.svd(np.array([[1.0, -32.0], [0.0, 1.0]]), compute_uv=False)[0]
    assert per_radius[16.0] == pytest.approx(expected, rel=1e-6)


def test_strong_kreiss_cuts_its_radii_at_the_first_overflow():
    # e^{r A} e^{-r} for diag(100, 1) is e^{99 r}, past double range from r = 8 on: the prefix r <= 4 diverges.  For
    # diag(1e200, 1) no radius is finite, and an empty series is inconclusive with constant 0, never inf or bounded
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cut = strong_kreiss_exp_probe(FiniteMatrix(((100.0, 0.0), (0.0, 1.0))))
        empty = strong_kreiss_exp_probe(FiniteMatrix(((1e200, 0.0), (0.0, 1.0))))
    assert cut.status == "violated" and cut.parameters["non_finite_at"] == 8.0
    assert [r for r, _, _ in cut.parameters["per_radius"]] == [1.0, 2.0, 4.0]
    assert cut.best_constant == pytest.approx(math.exp(396), rel=1e-9)
    assert cut.witness["radius"] == 4.0
    assert empty.status == "inconclusive" and empty.parameters["non_finite_at"] == 1.0
    assert empty.parameters["per_radius"] == [] and empty.best_constant == 0.0 and empty.witness is None


# ---------------------------------------------------------------------------
# growth analysis


def test_growth_exponent_matches_alpha():
    for alpha in (0.1, 0.25, 0.4):
        spec = BackwardShift(NAT, PowerRatio(alpha, 0))
        seq = NormSeq(
            tuple((n, power_norm_exact(spec, n, 2)) for n in [2**k for k in range(15)]),
            "operator-norm",
            2,
        )
        assert growth_exponent(seq) == pytest.approx(alpha, abs=0.01)


def test_growth_exponent_constant_sequence():
    seq = NormSeq(tuple((n, 1.0) for n in range(2, 40)), "operator-norm", 2)
    assert growth_exponent(seq) == pytest.approx(0.0, abs=1e-9)


def test_growth_exponent_assani_orbit():
    from cesarolab.powers import orbit_norms

    seq = orbit_norms(ASSANI, basis_vector(FiniteRange(2), 2), 2, 2**14)
    assert growth_exponent(seq) == pytest.approx(1.0, abs=0.01)


def test_growth_exponent_validation():
    with pytest.raises(ParameterError):
        growth_exponent(NormSeq(((2, 1.0), (3, 1.0)), "operator-norm", 2))
    with pytest.raises(DomainError):
        growth_exponent(NormSeq(tuple((n, 0.0) for n in range(2, 20)), "operator-norm", 2))


def test_ratio_trend_classifications():
    dyadics = [2**k for k in range(15)]
    seq_acb = NormSeq(tuple((n, (n + 1) ** 0.25) for n in dyadics), "operator-norm", 2)
    assert ratio_trend(seq_acb, 0.5) == "decreasing_to_zero"
    assert ratio_trend(seq_acb, 1.0) == "decreasing_to_zero"
    from cesarolab.powers import orbit_norms

    seq_orbit = orbit_norms(ASSANI, basis_vector(FiniteRange(2), 2), 2, 2**14)
    assert ratio_trend(seq_orbit, 1.0) == "bounded"
    assert ratio_trend(seq_orbit, 0.5) == "growing"
    seq_flat = NormSeq(tuple((n, 1.0) for n in dyadics), "operator-norm", 2)
    assert ratio_trend(seq_flat, 0.0) == "bounded"


def test_checkpoint_set_shape():
    pts = checkpoint_set(1000)
    assert pts[0] == 1 and pts[-1] == 1000
    assert 512 in pts and 64 in pts and 65 not in pts


def test_lambda_mean_norms_against_direct_cesaro():
    # dual route: the batched accumulator must match scale-then-average per lam
    from cesarolab.powers import lambda_mean_norms
    from cesarolab.core import make_vector, scale

    rng = np.random.default_rng(37)
    lams = np.array([1.0 + 0j, -1.0 + 0j, cmath.exp(0.5j)])
    checkpoints = [1, 2, 3, 5, 8, 13]
    specs = [ACB, KREISS_FWD, BilateralShift(Explicit((2.0,), 1.0))]
    for spec in specs:
        universe = spec.universe if not isinstance(spec, BilateralShift) else INTS_
        x = make_vector(
            universe,
            [(k, complex(rng.standard_normal(), rng.standard_normal())) for k in range(1, 7)],
        )
        table = lambda_mean_norms(spec, [x], lams, checkpoints, 2.0)[0]
        for i, lam in enumerate(lams):
            for j, n in enumerate(checkpoints):
                direct = p_norm(cesaro_apply(scale(lam, spec), x, n), 2)
                assert table[i, j] == pytest.approx(direct, rel=1e-11, abs=1e-13)


def test_lambda_mean_norms_pair_path():
    from cesarolab.powers import lambda_mean_norms
    from cesarolab.core import PairVec, make_vector, scale

    u = BilateralShift(Explicit((), 1.0))
    tz = BlockTZ(u)
    x = PairVec(
        make_vector(INTS_, [(0, 0.6), (2, 0.8j)]),
        make_vector(INTS_, [(1, 1.0)]),
    )
    lams = np.array([1.0 + 0j, 1j])
    checkpoints = [1, 3, 6]
    table = lambda_mean_norms(tz, [x], lams, checkpoints, 2.0)[0]
    for i, lam in enumerate(lams):
        for j, n in enumerate(checkpoints):
            direct = p_norm(cesaro_apply(scale(lam, tz), x, n), 2)
            assert table[i, j] == pytest.approx(direct, rel=1e-11)


def test_matrix_lambda_sweep_matches_single_lambda():
    from cesarolab.powers import lambda_operator_norms

    lams = [cmath.exp(0.3j), 1.0, -1.0, 1j]
    ns = [0, 1, 4, 9]
    table = lambda_operator_norms(ASSANI, lams, ns)
    a = np.array([[-1.0, 2.0], [0.0, -1.0]])
    for i, lam in enumerate(lams):
        single = lambda_operator_norms(ASSANI, [lam], ns)[0]
        for j, n in enumerate(ns):
            mean = sum(np.linalg.matrix_power(lam * a, k) for k in range(n + 1)) / (n + 1)
            assert table[i, j] == pytest.approx(single[j], rel=1e-12)
            assert table[i, j] == pytest.approx(np.linalg.norm(mean, 2), rel=1e-10)


# ---------------------------------------------------------------------------
# the judge's witnesses


def _acb_averages(spec, x, cfg) -> np.ndarray:
    """(1/N) sum_{j<=N} ||T^j x|| for N <= n_max, one vector's call of the acb probe."""
    with np.errstate(over="ignore", invalid="ignore"):
        norms = make_orbit(spec, x, cfg.n_max).norms(cfg.p, cfg.n_max)
        return (np.cumsum(norms, dtype=np.longdouble) / np.arange(1, len(norms) + 1)).astype(float)


def test_acb_and_cb_violations_name_the_largest_divergence():
    # several probes of blocktz:fshift:alpha=0.4 diverge; the witness is the largest diverging peak over every probe,
    # the first on ties, and the first probe to diverge (pair(e[1];0)) is not the one with the largest peak
    spec = BlockTZ(ForwardShift(NAT, PowerRatio(0.4, 1)))
    cfg = ProbeConfig(n_max=512, seed=1)
    checkpoints = checkpoint_set(cfg.n_max)
    acb, cb = [], []
    for label, x in probe_vectors(spec, cfg):
        avgs = _acb_averages(spec, x, cfg)
        hit, n, value = dyadic_divergence(list(zip(range(1, len(avgs) + 1), avgs.tolist())))
        acb += [(value, label, n)] if hit else []
        means = lambda_mean_norms(spec, [x], [1.0], checkpoints, cfg.p)[0, 0]
        hit, n, value = dyadic_divergence(list(zip(checkpoints, means.tolist())))
        cb += [(value, label, n)] if hit else []
    for verdict, hits, index in ((acb_constant(spec, cfg), acb, "N"), (cesaro_bounded_probe(spec, cfg), cb, "n")):
        value, label, n = max(hits, key=lambda t: t[0])  # max keeps the first of equal peaks
        assert verdict.status == "violated"
        assert (verdict.witness["vector"], verdict.witness[index], verdict.witness["value"]) == (label, n, value)
    assert acb[0][0] < max(acb)[0]


def _replayed(spec, cfg: ProbeConfig, probe: str, witness: dict) -> float:
    """The value a witness names, recomputed by one vector's (or the operator's) call on the probe's own grid."""
    x = dict(probe_vectors(spec, cfg)).get(witness.get("vector"))
    checkpoints = checkpoint_set(cfg.n_max)
    n = witness.get("n")
    if probe == "acb":
        return float(_acb_averages(spec, x, cfg)[witness["N"] - 1])
    if probe == "pb" and x is None:
        return float(power_norms_exact(spec, checkpoints, cfg.p)[checkpoints.index(n)])
    if probe == "pb":
        return float(make_orbit(spec, x, cfg.n_max).norms(cfg.p, cfg.n_max)[n - 1])
    if probe == "cb" and spec_dim(spec) is not None:
        return float(lambda_operator_norms(spec, [1.0], list(range(1, cfg.n_max + 1)))[0, n - 1])
    if probe == "cb" and x is None:  # adversarial[n=n + 1]
        return p_norm(cesaro_apply(spec, adversarial_vector(n + 1, cfg.p), n), cfg.p)
    lams = lambda_grid(cfg.lambda_samples) if probe == "uk" else [1.0]
    row = 0 if probe == "cb" else [[lam.real, lam.imag] for lam in lams].index(witness["lam"])
    if x is None:
        table = lambda_operator_norms(spec, lams, checkpoints)
    else:
        table = lambda_mean_norms(spec, [x], lams, checkpoints, cfg.p)[0]
    return float(table[row, checkpoints.index(n)])


@pytest.mark.parametrize("spec", [
    KREISS_FWD,
    NON_CESARO,
    ASSANI,
    BlockTZ(ForwardShift(NAT, PowerRatio(0.4, 1))),
    BlockTZ(BilateralShift(Explicit((), 1.0))),
    BlockTZ(BackwardShift(NAT, PowerRatio(0.25, 0))),
    DuplicatingShift(),
    Diagonal(FiniteRange(3), cmath.exp(1j)),
], ids=["fshift", "noncesaro-bshift", "assani", "blocktz:fshift", "blocktz:bilateral", "blocktz:bshift", "dupshift",
        "unitary-diag"])
def test_every_witness_replays_its_value(spec):
    # each best or violated witness of the four probes names the entry it reports: its value, bit for bit
    cfg = ProbeConfig(n_max=256, basis_probes=3, seeded_probes=3, lambda_samples=8, seed=7)
    probes = {"acb": acb_constant, "pb": power_bounded_probe, "cb": cesaro_bounded_probe, "uk": uniform_kreiss_probe}
    for name, probe in probes.items():
        verdict = probe(spec, cfg)
        assert verdict.witness is not None, name
        assert _replayed(spec, cfg, name, verdict.witness) == verdict.witness["value"], (name, verdict.witness)
