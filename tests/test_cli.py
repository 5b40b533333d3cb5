import io
import json
import math
import warnings
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import numpy as np
import pytest

from cesarolab import powers, zoo
from cesarolab.cli import main, parse_operator, parse_vector, OperatorParseError
from cesarolab.core import (
    BackwardShift,
    BilateralShift,
    BlockTZ,
    Diagonal,
    Explicit,
    FiniteMatrix,
    ForwardShift,
    NAT,
    PairVec,
    PowerRatio,
    basis_vector,
    weight_product,
)
from cesarolab.powers import lambda_grid, lambda_mean_norms, power_apply, power_norm_exact


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# operator grammar


def test_parse_zoo_id():
    spec, _ = parse_operator("assani")
    assert isinstance(spec, FiniteMatrix)


def test_parse_bshift_with_p_hint():
    spec, hints = parse_operator("bshift:alpha=0.25,p=2")
    assert isinstance(spec, BackwardShift)
    assert hints["p"] == 2.0


def test_parse_matrix_with_unicode_minus():
    spec, _ = parse_operator("matrix:[[−1,2],[0,−1]]")
    assert spec.entries == ((-1 + 0j, 2 + 0j), (0j, -1 + 0j))


def test_parse_matrix_complex_entries():
    spec, _ = parse_operator("matrix:[[1+2i,-i],[0,3]]")
    assert spec.entries[0][0] == 1 + 2j
    assert spec.entries[0][1] == -1j


def test_parse_polyshift():
    spec, hints = parse_operator("polyshift:p=1,0,1;dir=fwd")
    assert isinstance(spec, ForwardShift)
    assert hints["polynomial"].coefficients == (1.0, 0.0, 1.0)
    spec, _ = parse_operator("polyshift:p=1,0,1;side=bi")
    assert isinstance(spec, BilateralShift)


def test_parse_blocktz_recursive():
    spec, _ = parse_operator("blocktz:bilateral")
    assert isinstance(spec, BlockTZ)
    assert isinstance(spec.inner, BilateralShift)


def test_parse_errors_carry_positions():
    with pytest.raises(OperatorParseError) as info:
        parse_operator("bshift:nope=2")
    assert info.value.pos >= 0
    assert "alpha" in str(info.value)
    with pytest.raises(OperatorParseError):
        parse_operator("matrix:[[1,2],[3]]")
    with pytest.raises(OperatorParseError):
        parse_operator("wat:1")


def test_parse_vectors():
    spec, _ = parse_operator("assani")
    x = parse_vector("e2", spec, 1)
    assert x.entries == {2: 1 + 0j}
    h4, _ = parse_operator("hyper4")
    w = parse_vector("balanced", h4, 1)
    assert set(w.entries) == {1, 2, 3, 4}
    tz, _ = parse_operator("blocktz:bilateral")
    pv = parse_vector("pair:e0|0", tz, 1)
    assert isinstance(pv, PairVec)
    assert pv.bottom.is_zero()


# ---------------------------------------------------------------------------
# subcommands


def test_zoo_list_lines_and_json():
    code, out, _ = run_cli(["zoo", "list"])
    assert code == 0
    lines = [l for l in out.splitlines() if l.strip()]
    assert len(lines) >= 9
    code, out, _ = run_cli(["zoo", "list", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert isinstance(payload, list) and len(payload) >= 9


def test_zoo_unknown_flag_exits_2():
    code, _, _ = run_cli(["zoo", "list", "--frobnicate"])
    assert code == 2


def test_classify_assani_expected_table():
    code, out, _ = run_cli(["classify", "assani", "--probes", "cb,me"])
    assert code == 0
    assert "cesaro_bounded: bounded_up_to" in out
    assert "mean_ergodic: diverged" in out


def test_classify_inline_acb_constant():
    code, out, _ = run_cli(
        ["classify", "bshift:alpha=0.25,p=2", "--probes", "acb", "--n-max", "1024", "--json"]
    )
    assert code == 0
    report = json.loads(out)
    result = report["probes"][0]["result"]
    assert result["status"] == "bounded_up_to"
    assert result["best_constant"] <= 2.45


def test_classify_scalar_matrix_kreiss():
    code, out, _ = run_cli(["classify", "matrix:[[1]]", "--probes", "kreiss", "--json"])
    assert code == 0
    report = json.loads(out)
    result = report["probes"][0]["result"]
    assert result["best_constant"] == pytest.approx(1.0, rel=1e-9)


def test_classify_exponential_growth_is_violated_past_overflow():
    # ||diag(2, 1)^n|| = 2^n overflows at n = 1024; the finite prefix already diverges
    for extra in (["--n-max", "512"], []):
        code, out, err = run_cli(["classify", "matrix:[[2,0],[0,1]]", "--probes", "pb,cb,uk", "--json", *extra])
        assert code == 0, err
        results = [probe["result"] for probe in json.loads(out)["probes"]]
        assert [r["status"] for r in results] == ["violated"] * 3
        assert all(math.isfinite(r["best_constant"]) for r in results)


def test_classify_overflowing_matrix_prints_no_warnings():
    # the non-finite powers and means become verdicts, not numpy RuntimeWarnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(["classify", "matrix:[[2,0],[0,1]]", "--probes", "pb,cb,uk,kreiss,sk,acb", "--json"])
    assert code == 0, err
    assert err == ""
    assert [probe["result"]["status"] for probe in json.loads(out)["probes"][:3]] == ["violated"] * 3


def _overflowing_mean_at(base: int, ns) -> int:
    """First n whose mean (1/(n+1)) sum_{k<=n} base^k rounds past the largest double."""
    for n in ns:
        try:
            float(Fraction(base ** (n + 1) - 1, (base - 1) * (n + 1)))
        except OverflowError:
            return n
    raise AssertionError("no mean overflows")


def test_exact_means_stay_finite_until_the_mean_itself_overflows():
    # the means are summed and divided in extended precision, so 2^1024 as a power never reaches double
    from cesarolab.classify import checkpoint_set

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(["classify", "matrix:[[2,0],[0,1]]", "--probes", "cb,uk", "--json"])
        assert code == 0, err
        for probe in json.loads(out)["probes"]:
            result = probe["result"]
            assert result["status"] == "violated"
            assert "non_finite_at" not in result["parameters"]
            assert result["best_constant"] == pytest.approx(float(Fraction(2**1025 - 1, 1025)), rel=1e-12)
        code, out, err = run_cli(["classify", "matrix:[[4,0],[0,1]]", "--probes", "cb,uk", "--json"])
    assert code == 0, err
    cb, uk = (probe["result"] for probe in json.loads(out)["probes"])
    assert cb["status"] == uk["status"] == "violated"
    assert cb["parameters"]["non_finite_at"] == _overflowing_mean_at(4, range(1, 1025)) == 517
    assert uk["parameters"]["non_finite_at"] == _overflowing_mean_at(4, checkpoint_set(1024))


def test_kreiss_singular_resolvent_names_its_lam():
    # delta = 2^-3 puts lam = 1.125 at theta = 0 on the eigenvalue: the batched solve fails and the witness is that lam
    code, out, err = run_cli(["classify", "matrix:[[1.125]]", "--probes", "kreiss", "--json"])
    assert code == 0, err
    result = json.loads(out)["probes"][0]["result"]
    assert result["status"] == "violated"
    assert result["witness"]["lam"] == [1.125, 0.0]
    assert result["witness"]["singular"] is True


def test_orbit_overflow_exits_1_naming_the_index():
    # ||T^n e_1|| = (n + 1)^200 leaves double range at n = 34
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(["orbit", "fshift:alpha=200", "--N", "400"])
    assert code == 1
    assert out == ""
    assert "n=34" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["orbit", "fshift:alpha=200", "--N", "60", "--vector", "e1", "--pair", "e40"],
        ["probe", "hc", "fshift:alpha=200", "--x", "e1", "--y", "e40", "--N", "100"],
        ["probe", "ergodic", "fshift:alpha=200", "--weak", "--x", "e1", "--y", "e40", "--N", "64"],
    ],
)
def test_pairing_overflow_exits_1_naming_the_index(argv):
    # <T^39 e_1, e_40> = 40^200 leaves double range
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(argv)
    assert code == 1
    assert out == ""
    assert "n=39" in err


@pytest.mark.parametrize(("probes", "named"), [("me", "M_n x"), ("we", "<M_n x, y>")])
def test_overflowing_matrix_ladders_exit_1_naming_the_index(probes, named):
    # diag(2, 1): M_n e_1 = (2^(n+1) - 1) / (n + 1) e_1 first leaves double range at the checkpoint n = 2048 (M_1025 e_1
    # is finite, although T^1024 e_1 is not); the report names it, and no overflow warning reaches stderr
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(["classify", "matrix:[[2,0],[0,1]]", "--probes", probes, "--json"])
    assert code == 1
    assert out == ""
    assert err == f"runtime failure: {named} is not finite at n=2048: the orbit overflows\n"


def test_power_bounded_overflowing_power_ratio_is_violated():
    # ||T^n|| = (n + 1)^200 overflows at n = 34; the product saturates instead of raising
    assert weight_product(PowerRatio(200.0, 1), 1, 40) == math.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(["classify", "fshift:alpha=200", "--probes", "pb", "--json"])
    assert code == 0, err
    result = json.loads(out)["probes"][0]["result"]
    assert result["status"] == "violated"
    assert result["parameters"]["non_finite_at"] == 34



@pytest.mark.parametrize("operator", ["fshift:alpha=200", "blocktz:fshift:alpha=200"])
def test_overflowing_probe_vectors_are_never_bounded(operator):
    # every probe's series is cut at its first non-finite value and judged on the prefix, which already diverges
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(["classify", operator, "--probes", "acb,cb,uk", "--json"])
    assert code == 0, err
    results = [probe["result"] for probe in json.loads(out)["probes"]]
    assert [r["class_name"] for r in results] == ["absolutely_cesaro_bounded", "cesaro_bounded", "uniformly_kreiss"]
    for r in results:
        assert r["status"] == "violated"
        assert r["parameters"]["non_finite_at"] == 34  # ((n + 1) / 1)^200 leaves double range
        assert math.isfinite(r["best_constant"]) and math.isfinite(r["witness"]["value"])


def test_probe_series_cut_before_the_protocol_is_inconclusive():
    # |d|^n leaves double range at n = 4, before the first dyadic checkpoint 8: no verdict either way
    from cesarolab.classify import ProbeConfig, acb_constant, cesaro_bounded_probe, uniform_kreiss_probe
    from cesarolab.core import NAT, Diagonal

    spec = Diagonal(NAT, 1e100)
    cfg = ProbeConfig(n_max=64, basis_probes=2, seeded_probes=1, lambda_samples=4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for probe in (acb_constant, cesaro_bounded_probe, uniform_kreiss_probe):
            verdict = probe(spec, cfg)
            assert verdict.status == "inconclusive"
            assert verdict.parameters["non_finite_at"] == 4


def test_explicit_weight_product_saturates():
    # past 1000 factors the product is taken in log space; it overflows to inf instead of raising
    assert weight_product(Explicit((), 2.0), 1, 2000) == math.inf
    assert weight_product(Explicit((), 0.5), 1, 2000) == 0.0
    assert weight_product(Explicit((3.0,), 1.0), 1, 2000) == pytest.approx(3.0, rel=1e-12)


def test_explicit_weight_product_survives_an_overflowing_factor():
    # 1e200 * 1e200 overflows on the way, but the product of the four doubles is 1 - 9.6e-17, which rounds to 1 - 2^-53
    rule = Explicit((1e200, 1e200, 1e-200, 1e-200))
    exact = float(Fraction(1e200) ** 2 * Fraction(1e-200) ** 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert weight_product(rule, 1, 4) == exact == pytest.approx(1.0, rel=1e-15)
        assert power_norm_exact(ForwardShift(NAT, rule), 4, 2.0) == 1.0
        assert power_apply(ForwardShift(NAT, rule), basis_vector(NAT, 1), 4).entries == {5: exact}


def test_named_infinite_specs_never_step(monkeypatch):
    # every infinite spec the grammar names is a frame, also where its product table leaves double range:
    # its probe orbits, reductions and sums never call step
    from cesarolab import powers
    from cesarolab.classify import ProbeConfig, checkpoint_set, lambda_grid, probe_vectors
    from cesarolab.core import DuplicatingShift, make_vector, scale

    def refuse(self):
        raise AssertionError("an orbit stepped")

    monkeypatch.setattr(powers._Orbit, "step", refuse)
    monkeypatch.setattr(powers._WindowOrbit, "step", refuse)
    cfg = ProbeConfig()
    lams = lambda_grid(cfg.lambda_samples)
    names = ["fshift:alpha=0.4", "bshift:alpha=0.25", "bilateral", "polyshift:p=1,1", "polyshift:p=1,0,1;side=bi",
             "polyshift:p=1,2;dir=bwd", "dupshift", "fshift:alpha=200"]
    cases = []
    for name in names + [f"blocktz:{name}" for name in names]:
        spec, _ = parse_operator(name)
        cases.append((name, spec, [x for _, x in probe_vectors(spec, cfg)]))
    wide = make_vector(NAT, [(k, 1.0 / k) for k in range(1, 1201)])  # 0.5^u over the window leaves double range
    cases.append(("0.5 dupshift", scale(0.5, DuplicatingShift()), [wide]))
    for name, spec, xs in cases:
        with np.errstate(over="ignore", invalid="ignore"):  # as the probes read overflowing orbits
            for x in xs:
                orbit = powers.make_orbit(spec, x, cfg.n_max)
                assert orbit.translating, name
                orbit.norms(2, cfg.n_max)
                try:
                    powers.make_orbit(spec, x, cfg.n_max).inners(x, cfg.n_max)
                except FloatingPointError:  # an overflowing pairing is named, not stepped past
                    assert "alpha=200" in name
            powers.lambda_mean_norms(spec, xs, lams, checkpoint_set(cfg.n_max), 2.0)  # the probe family at once


def test_classify_malformed_grammar_exits_2():
    code, _, err = run_cli(["classify", "matrix:[[1,2],[3]]", "--probes", "cb"])
    assert code == 2
    assert "position" in err


def test_orbit_csv_values():
    code, out, _ = run_cli(["orbit", "assani", "--vector", "e2", "--N", "10"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,norm"
    row3 = lines[4].split(",")
    assert int(row3[0]) == 3
    assert float(row3[1]) == pytest.approx(math.sqrt(37.0), rel=1e-12)


def test_orbit_identity_all_ones():
    code, out, _ = run_cli(["orbit", "diag:1,dim=3", "--vector", "e1", "--N", "5"])
    assert code == 0
    values = [float(l.split(",")[1]) for l in out.splitlines()[1:]]
    assert values == [1.0] * 6


def test_orbit_pair_emits_complex_columns():
    code, out, _ = run_cli(["orbit", "hyper4", "--vector", "balanced", "--pair", "balanced", "--N", "8"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,re,im"
    assert len(lines) == 10


def test_orbit_unwritable_path_exits_1():
    code, _, err = run_cli(["orbit", "assani", "--vector", "e2", "--N", "3", "--out", "/nonexistent-dir/x.csv"])
    assert code == 1
    assert "cannot write" in err


def test_isometry_command_reports_order_and_covariance():
    code, out, _ = run_cli(["isometry", "assani", "--m-max", "5", "--json"])
    assert code == 0
    report = json.loads(out)
    payload = report["probes"][0]["result"]
    assert payload["strict_order"] == 3
    forms = dict(tuple(f) for f in payload["covariance"]["forms"])
    assert forms["e[2]"] == pytest.approx(4.0, abs=1e-9)


def test_isometry_polyshift_order_two():
    code, out, _ = run_cli(["isometry", "polyshift:p=0,1", "--m-max", "4", "--json"])
    assert code == 0
    assert json.loads(out)["probes"][0]["result"]["strict_order"] == 2


def test_isometry_unitary_order_one():
    code, out, _ = run_cli(["isometry", "rotation", "--m-max", "3", "--json"])
    assert code == 0
    assert json.loads(out)["probes"][0]["result"]["strict_order"] == 1


def test_probe_mixing():
    code, out, _ = run_cli(["probe", "mixing", "bshift:alpha=0.25", "--json"])
    assert code == 0
    assert json.loads(out)["probes"][0]["result"]["status"] == "mixing_evidence"


def test_probe_mixing_with_overflowing_inverse_products():
    code, out, _ = run_cli(["probe", "mixing", "bshift:alpha=-30", "--json"])
    assert code == 0
    assert json.loads(out)["probes"][0]["result"]["status"] == "fails"


def test_classify_power_bounded_with_negative_alpha_reads_one():
    code, out, _ = run_cli(["classify", "bshift:alpha=-0.25", "--probes", "pb", "--json"])
    assert code == 0
    result = json.loads(out)["probes"][0]["result"]
    assert result["status"] == "bounded_up_to" and result["certainty"] == "exact" and result["best_constant"] == 1.0


def test_probe_chaos_requires_polyshift():
    code, _, err = run_cli(["probe", "chaos", "assani"])
    assert code == 2
    assert "polyshift" in err


def test_probe_hc_small_run():
    code, out, _ = run_cli(["probe", "hc", "hyper4", "--N", "2000", "--json"])
    assert code == 0
    result = json.loads(out)["probes"][0]["result"]
    assert result["hit_count"] > 10
    assert 0 < result["coverage_fraction"] < 1


def test_probe_ergodic_weak_blocktz():
    code, out, _ = run_cli(
        ["probe", "ergodic", "blocktz:bilateral", "--weak", "--x", "pair:e0|0", "--N", "16777216", "--json"]
    )
    assert code == 0
    assert json.loads(out)["probes"][0]["result"]["status"] == "converged"


def test_probe_ergodic_default_ladder_is_the_classify_one():
    code, out, _ = run_cli(["probe", "ergodic", "dupshift", "--json"])
    assert code == 0
    assert json.loads(out)["config"]["N"] == 2**14
    code, out, _ = run_cli(["probe", "ergodic", "bshift:alpha=0.25", "--weak", "--x", "window:4", "--json"])
    assert code == 0
    assert json.loads(out)["config"]["N"] == 2**20


def test_classify_cesaro_probe_on_block_operators_over_n():
    # pair operators take no plain adversarial vectors
    for op in ("blocktz:fshift:alpha=0.4", "blocktz:bshift:alpha=0.25", "blocktz:dupshift"):
        code, out, err = run_cli(["classify", op, "--probes", "cb", "--n-max", "64", "--json"])
        assert code == 0, err
        assert json.loads(out)["probes"][0]["result"]["status"] in ("violated", "bounded_up_to")


# ---------------------------------------------------------------------------
# determinism and replay


def test_reports_are_byte_identical_for_fixed_seed():
    argv = ["classify", "bshift:alpha=0.25,p=2", "--probes", "acb,pb,uk,cb", "--json", "--seed", "0xCE5A70"]
    _, first, _ = run_cli(argv)
    _, second, _ = run_cli(argv)
    assert first == second
    argv = ["probe", "hc", "hyper4", "--N", "3000", "--json"]
    _, first, _ = run_cli(argv)
    _, second, _ = run_cli(argv)
    assert first == second


def test_replay_roundtrip(tmp_path):
    path = tmp_path / "report.json"
    code, _, _ = run_cli(
        ["classify", "bshift:alpha=0.25,p=2", "--probes", "acb", "--json", "--out", str(path)]
    )
    assert code == 0
    code, out, _ = run_cli(["classify", "--replay", str(path)])
    assert code == 0
    assert "verdicts match" in out


def test_probe_replay_roundtrip(tmp_path):
    path = tmp_path / "probe.json"
    code, _, _ = run_cli(["probe", "hc", "hyper4", "--N", "2000", "--json", "--out", str(path)])
    assert code == 0
    code, out, _ = run_cli(["probe", "--replay", str(path)])
    assert code == 0
    assert "verdicts match" in out
    code, _, err = run_cli(["probe"])
    assert code == 2
    assert "mode" in err


def test_isometry_replay_keeps_tolerance(tmp_path):
    # at tol 2 the unilateral shift also passes m = 1, which the default tolerance rejects
    path = tmp_path / "iso.json"
    code, _, _ = run_cli(["isometry", "polyshift:p=0,1", "--m-max", "3", "--tol", "2", "--json", "--out", str(path)])
    assert code == 0
    assert json.loads(path.read_text())["config"]["tol"] == 2.0
    code, out, _ = run_cli(["isometry", "--replay", str(path)])
    assert code == 0
    assert "verdicts match" in out


def test_probe_replay_keeps_verbose(tmp_path):
    path = tmp_path / "hc.json"
    code, _, _ = run_cli(["probe", "hc", "hyper4", "--N", "2000", "--verbose", "--json", "--out", str(path)])
    assert code == 0
    assert json.loads(path.read_text())["config"]["verbose"] is True
    code, out, _ = run_cli(["probe", "--replay", str(path)])
    assert code == 0
    assert "verdicts match" in out


def test_replay_overlays_only_parser_settings(tmp_path):
    # report keys that are not settings of the command (`func`, a stale `p`) must not reach the run
    path = tmp_path / "report.json"
    code, _, _ = run_cli(["classify", "rotation", "--probes", "pb", "--n-max", "64", "--json", "--out", str(path)])
    assert code == 0
    report = json.loads(path.read_text())
    report["config"].update(func="x", replay="elsewhere.json", p=3.0)
    path.write_text(json.dumps(report))
    code, out, _ = run_cli(["classify", "--replay", str(path)])
    assert code == 0
    assert "verdicts match" in out


def test_probe_mixing_needs_a_backward_shift():
    code, _, err = run_cli(["probe", "mixing", "fshift:alpha=0.4"])
    assert code == 2
    assert "backward shift" in err


def test_ignored_flags_are_not_accepted():
    assert run_cli(["probe", "mixing", "bshift:alpha=0.25", "--tol", "2"])[0] == 2
    assert run_cli(["probe", "mixing", "bshift:alpha=0.25", "--timing"])[0] == 2
    assert run_cli(["isometry", "rotation", "--m-max", "2", "--timing"])[0] == 2
    code, out, _ = run_cli(["classify", "matrix:[[0.5]]", "--probes", "pb", "--tol", "1e-6", "--timing", "--json"])
    assert code == 0
    assert set(json.loads(out)["timing"]) == {"pb"}


@pytest.mark.parametrize(
    ("argv", "message"),
    [
        (["classify", "rotation", "--probes", "cb", "--n-max", "0", "--json"], "n_max must be >= 1"),
        (["classify", "rotation", "--probes", "cb", "--tol", "0", "--json"], "tolerance must be > 0"),
        (["isometry", "rotation", "--m-max", "2", "--tol", "0", "--json"], "tolerance must be > 0"),
    ],
    ids=["classify-n-max", "classify-tol", "isometry-tol"],
)
def test_zero_n_max_and_tol_are_rejected_not_defaulted(argv, message):
    # a zero is a value the user gave, not a missing flag: the probe config rejects it
    code, out, err = run_cli(argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_unknown_probe_token_exits_2_before_the_table(monkeypatch):
    calls = []
    monkeypatch.setattr(zoo, "verify_entry", lambda *a, **k: calls.append(a))
    code, _, err = run_cli(["classify", "blocktz-bilateral", "--probes", "cb,zz"])
    assert code == 2
    assert "'zz'" in err
    assert calls == []


# ---------------------------------------------------------------------------
# probe registry


def test_every_expected_row_is_a_registry_probe():
    for entry in zoo.all_entries():
        assert zoo.get_entry(entry.entry_id).entry_id == entry.entry_id
        for row in entry.expected:
            assert row.probe in zoo.PROBES


@pytest.mark.parametrize("token", list(zoo.TOKENS))
def test_token_reports_under_its_registry_name(token):
    code, out, err = run_cli(["classify", "matrix:[[0.5,1],[0,0.5]]", "--probes", token, "--n-max", "64", "--json"])
    assert code == 0, err
    assert [item["probe"] for item in json.loads(out)["probes"]] == [zoo.TOKENS[token].name]


@pytest.mark.parametrize("operator", ["rotation", "diag:0.5,dim=3"])
def test_classify_replay_roundtrip_on_zoo_id_and_spec(tmp_path, operator):
    path = tmp_path / "report.json"
    code, _, _ = run_cli(["classify", operator, "--probes", "pb,me", "--n-max", "128", "--seed", "7", "--json", "--out", str(path)])
    assert code == 0
    code, out, _ = run_cli(["classify", "--replay", str(path)])
    assert code == 0
    assert "verdicts match" in out


def test_exit_code_contract():
    assert run_cli(["zoo", "list"])[0] == 0
    assert run_cli(["classify", "not-a-thing", "--probes", "cb"])[0] == 2
    assert run_cli(["classify", "bshift:alpha="])[0] == 2


@pytest.mark.parametrize("argv, code", [
    (["classify", "diag:0.5,dim=3", "--probes", "acb,uk", "--n-max", "64"], 0),
    (["classify", "bshift:alpha=0.25", "--probes", "uk", "--n-max", "64"], 0),
    (["classify", "bshift:alpha="], 2),
    (["classify", "rotation", "--no-such-flag"], 2),
])
def test_a_command_leaves_no_table_held(argv, code):
    # a stack and a gain table are held before the command (a library call) and while it runs; none after it
    lambda_mean_norms(Diagonal(NAT, 0.5), [basis_vector(NAT, 1)], lambda_grid(8), [8], 2.0)
    lambda_mean_norms(ForwardShift(NAT, PowerRatio(0.4, 1)), [basis_vector(NAT, 1)], lambda_grid(8), [8], 2.0)
    assert set(powers._held) == {"stack", "mu"}
    assert run_cli(argv)[0] == code
    assert not powers._held
