"""The benchmark's workloads: named job lists with expected verdicts.

Each job runs one `cesarolab` command in-process (or one public library call
where the command line has no selector) and returns a flat dict of verdicts.
The expected dict is written next to the job with a one-line reason.  The
expected verdicts hold for every workload seed: the seed only moves the
command-line `--seed` (seeded probe vectors), the random contraction, the
seeded vectors of library calls and the `power_apply` cases.
"""

from __future__ import annotations

import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Callable

import numpy as np

POWER_LAW_TOL = 1e-12  # pinned tolerance of the exact power-norm law

B, V = "bounded_up_to", "violated"


@dataclass(frozen=True)
class Job:
    name: str
    run: Callable[[], dict]
    expected: dict
    reason: str


class JobFailure(Exception):
    """A job exited with an unexpected code or produced unreadable output."""


def _cli(argv: list[str]) -> str:
    from cesarolab import cli

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        raise JobFailure(f"exit code {code}: {err.getvalue().strip()[-300:]}")
    return out.getvalue()


def _cli_json(argv: list[str], seed: int) -> dict:
    return json.loads(_cli(argv + ["--json", "--seed", str(seed)]))


def _verdicts(report: dict) -> dict:
    """Flatten a report to {probe: status}; expected-table rows become table.<probe>."""
    out = {}
    for item in report["probes"]:
        result = item["result"]
        if item["probe"] == "expected_table":
            for row in result["rows"]:
                out[f"table.{row['probe']}"] = row["actual"]
        elif item["probe"] == "isometry":
            out["strict_order"] = result["strict_order"]
            out["isometric_orders"] = [row["m"] for row in result["defect_table"] if row["passed"]]
        else:
            out[item["probe"]] = result["status"]
    return out


def _law(max_rel_err: float) -> str:
    return "holds" if max_rel_err <= POWER_LAW_TOL else f"broken (max relative error {max_rel_err:.3e})"


def _classify(target: str, probes: str, seed: int) -> Callable[[], dict]:
    argv = ["classify", target] + (["--probes", probes] if probes else [])
    return lambda: _verdicts(_cli_json(argv, seed))


def _probe(argv: list[str], seed: int) -> Callable[[], dict]:
    return lambda: _verdicts(_cli_json(["probe"] + argv, seed))


def _shift_classify(target: str, probes: str, alpha: float, n_max: int, seed: int, acb_bound: float | None):
    """Verdicts plus constants: sup_n<=N ||T^n|| = (N+1)^alpha, and the acb constant bound."""
    argv = ["classify", target, "--probes", probes, "--n-max", str(n_max)]

    def run() -> dict:
        report = _cli_json(argv, seed)
        out = _verdicts(report)
        results = {item["probe"]: item["result"] for item in report["probes"]}
        exact = (n_max + 1.0) ** alpha
        out["power_norm_law"] = _law(abs(results["power_bounded"]["best_constant"] - exact) / exact)
        if acb_bound is not None:
            best = results["absolutely_cesaro"]["best_constant"]
            out["acb_constant"] = "within bound" if best <= acb_bound else f"{best!r} > {acb_bound!r}"
        return out

    return run


# ---------------------------------------------------------------------------
# zoo-tables: the paper's separation rows


ZOO_TABLES = {
    "assani": {"power_bounded": "violated", "cesaro_bounded": "bounded", "mean_ergodic": "diverged", "strict_order": "3"},
    "lambda-block": {"cesaro_bounded": "bounded", "mean_ergodic": "diverged", "strict_order": "3"},
    "acb-bshift": {"absolutely_cesaro": "bounded", "power_bounded": "violated", "mixing": "mixing_evidence"},
    "kreiss-fshift": {"uniformly_kreiss": "bounded", "absolutely_cesaro": "violated"},
    "noncesaro-bshift": {"cesaro_bounded": "violated"},
    "embed2iso": {"strict_order": "2", "cesaro_bounded": "violated"},
    "blocktz-bilateral": {
        "cesaro_bounded": "bounded",
        "weak_ergodic": "converged",
        "strict_order": "3",
        "covariance_kernel": "kernel_witness",
    },
    "blocktz-nilpotent": {"strict_order": "3", "cesaro_bounded": "violated"},
    "hyper4": {"strict_order": "3", "coverage_increasing": "increasing", "cesaro_bounded": "bounded"},
    "rotation": {"power_bounded": "bounded", "strict_order": "1"},
}


def _table(entry_id: str, **extra) -> dict:
    out = {f"table.{probe}": value for probe, value in ZOO_TABLES[entry_id].items()}
    out.update(extra)
    return out


def zoo_tables(seed: int) -> list[Job]:
    return [
        Job(f"classify {entry}", _classify(entry, "", seed), _table(entry), "zoo table row of the paper")
        for entry in ZOO_TABLES
    ]


# ---------------------------------------------------------------------------
# shift-probes: many short window orbits and lambda-batched sweeps


def _power_norm_sweep() -> dict:
    """||T^n|| = (n+1)^alpha for the backward shift with weights (k/(k-1))^alpha."""
    from cesarolab import powers
    from cesarolab.core import NAT, BackwardShift, PowerRatio

    alpha = 0.25
    spec = BackwardShift(NAT, PowerRatio(alpha, 0))
    worst = 0.0
    for n in range(1, 10_001):
        exact = (n + 1.0) ** alpha
        worst = max(worst, abs(powers.power_norm_exact(spec, n, 2.0) - exact) / exact)
    return {"power_norm_law": _law(worst)}


def _power_apply_repeats(seed: int) -> Callable[[], dict]:
    """T^n e_k = ((k+n)/k)^alpha e_{k+n} for the forward shift with weights ((k+1)/k)^alpha."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    cases = [(int(rng.integers(1, 65)), int(rng.integers(990, 1011))) for _ in range(40)]

    def run() -> dict:
        from cesarolab import powers
        from cesarolab.core import NAT, ForwardShift, PowerRatio, make_vector

        alpha = 0.4
        spec = ForwardShift(NAT, PowerRatio(alpha, 1))
        worst = 0.0
        for k, n in cases:
            image = powers.power_apply(spec, make_vector(NAT, [(k, 1.0)]), n)
            exact = ((k + n) / k) ** alpha
            if set(image.entries) != {k + n}:
                return {"power_apply_law": f"broken (support {sorted(image.entries)[:4]})"}
            worst = max(worst, abs(image.entries[k + n] - exact) / exact)
        return {"power_apply_law": _law(worst)}

    return run


def _orbit_window(seed: int) -> dict:
    """||T^n x||^2 = (1/J) sum_k ((k+n)/k)^(2 alpha) for the flat window x of length J."""
    alpha, j, n_max = 0.4, 64, 100_000
    rows = _cli(["orbit", f"fshift:alpha={alpha}", "--vector", f"window:{j}", "--N", str(n_max), "--seed", str(seed)])
    lines = rows.strip().split("\n")
    if lines[0] != "n,norm" or len(lines) != n_max + 2:
        raise JobFailure(f"unexpected orbit CSV shape: {lines[0]!r}, {len(lines)} lines")
    k = np.arange(1, j + 1, dtype=float)
    worst = 0.0
    for n in (0, 1, 7, 1000, 65_536, n_max):
        got_n, got = lines[n + 1].split(",")
        exact = math.sqrt(float(np.sum(((k + n) / k) ** (2 * alpha))) / j)
        worst = max(worst, abs(float(got) - exact) / exact) if int(got_n) == n else math.inf
    return {"orbit_norm_law": _law(worst)}


def explicit_rule_norm() -> dict:
    """Known defect: the weight 7 at index 10 lies outside the scanned start indices."""
    from cesarolab import powers
    from cesarolab.core import NAT, Explicit, ForwardShift

    spec = ForwardShift(NAT, Explicit((1.0,) * 9 + (7.0,), 1.0))
    value = powers.power_norm_exact(spec, 1, 2.0)
    return {"power_norm": "7.0" if abs(value - 7.0) <= 7.0 * POWER_LAW_TOL else repr(value)}


def shift_probes(seed: int) -> list[Job]:
    return [
        Job(
            "classify fshift:alpha=0.4 uk,acb,pb n=2048",
            _shift_classify("fshift:alpha=0.4", "uk,acb,pb", 0.4, 2048, seed, None),
            {"uniformly_kreiss": B, "absolutely_cesaro": V, "power_bounded": V, "power_norm_law": "holds"},
            "kreiss-fshift row: uniformly Kreiss; ||T^n|| = (n+1)^0.4, attained at e_1",
        ),
        Job(
            "classify bshift:alpha=0.25 acb,pb,uk n=4096",
            _shift_classify("bshift:alpha=0.25", "acb,pb,uk", 0.25, 4096, seed, math.sqrt(6.0)),
            {"absolutely_cesaro": B, "power_bounded": V, "uniformly_kreiss": B, "power_norm_law": "holds", "acb_constant": "within bound"},
            "acb-bshift row: acb constant <= (2 (1/(1-2 alpha) + 1))^(1/2) = sqrt 6, hence uniformly Kreiss; ||T^n|| = (n+1)^0.25",
        ),
        Job(
            "classify polyshift:p=1,1 pb,acb",
            _classify("polyshift:p=1,1", "pb,acb", seed),
            {"power_bounded": V, "absolutely_cesaro": V},
            "closed form: ||T^n e_k||^2 = (k+n+1)/(k+1) grows like n",
        ),
        Job(
            "orbit fshift:alpha=0.4 window:64 N=100000",
            lambda: _orbit_window(seed),
            {"orbit_norm_law": "holds"},
            "closed form: window orbit norms are telescoping weight products",
        ),
        Job(
            "isometry polyshift:p=0,1 m<=6",
            lambda: _verdicts(_cli_json(["isometry", "polyshift:p=0,1", "--m-max", "6"], seed)),
            {"strict_order": 2, "isometric_orders": [2, 3, 4, 5, 6]},
            "closed form: weight(k)^2 = (k+1)/k gives a strict 2-isometry",
        ),
        Job(
            "probe mixing bshift:alpha=0.25",
            _probe(["mixing", "bshift:alpha=0.25"], seed),
            {"mixing": "mixing_evidence"},
            "acb-bshift row: inverse weight products decay like n^-0.25",
        ),
        Job(
            "probe chaos polyshift:p=0,0,1",
            _probe(["chaos", "polyshift:p=0,0,1"], seed),
            {"chaos": "chaotic"},
            "closed form: degree-2 weight polynomial gives a chaotic adjoint",
        ),
        Job(
            "probe chaos polyshift:p=0,1",
            _probe(["chaos", "polyshift:p=0,1"], seed),
            {"chaos": "mixing_only"},
            "closed form: degree-1 weight polynomial gives a mixing, non-chaotic adjoint",
        ),
        Job(
            "power_norm_exact bshift:alpha=0.25 n=1..10^4",
            _power_norm_sweep,
            {"power_norm_law": "holds"},
            "closed form: ||T^n|| = (n+1)^0.25 at 1e-12 relative (acceptance criterion 01)",
        ),
        Job(
            "power_apply fshift:alpha=0.4 e_k, n~1000, x40",
            _power_apply_repeats(seed),
            {"power_apply_law": "holds"},
            "closed form: T^n e_k = ((k+n)/k)^0.4 e_{k+n}",
        ),
    ]


# ---------------------------------------------------------------------------
# matrix-kernels: the finite-dimensional path


MATRIX_PROBES = "pb,cb,uk,kreiss,sk,me"

MATRIX_VERDICTS = {
    # entry: (verdicts of MATRIX_PROBES, reason)
    "assani": (
        {"power_bounded": V, "cesaro_bounded": B, "uniformly_kreiss": V, "kreiss": V, "strongly_kreiss": V, "mean_ergodic": "diverged"},
        "zoo table; -T is I plus a nilpotent, so lam=-1 averages and the resolvent at -1 blow up",
    ),
    "lambda-block": (
        {"power_bounded": V, "cesaro_bounded": B, "uniformly_kreiss": V, "kreiss": B, "strongly_kreiss": V, "mean_ergodic": "diverged"},
        "zoo table; Jordan block at lam = e^i, which the 16-argument resolvent grid does not sample",
    ),
    "hyper4": (
        {"power_bounded": V, "cesaro_bounded": B, "uniformly_kreiss": V, "kreiss": B, "strongly_kreiss": V, "mean_ergodic": "diverged"},
        "zoo table; Jordan chains at e^i and e^(i sqrt 2), off the 16-argument resolvent grid",
    ),
    "blocktz-nilpotent": (
        {"power_bounded": V, "cesaro_bounded": V, "uniformly_kreiss": V, "kreiss": V, "strongly_kreiss": V, "mean_ergodic": "diverged"},
        "zoo table; I plus a nilpotent of order 3 grows quadratically",
    ),
    "rotation": (
        {"power_bounded": B, "cesaro_bounded": B, "uniformly_kreiss": B, "kreiss": B, "strongly_kreiss": B, "mean_ergodic": "inconclusive"},
        "zoo table; unitary, and its means decay like 1/n, above the 1e-6 Cauchy tolerance at 2^14",
    ),
}


def random_contraction(seed: int) -> str:
    """`matrix:` literal of a seeded complex 12x12 matrix scaled to spectral norm 0.9."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 2]))
    a = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
    a *= 0.9 / np.linalg.norm(a, 2)
    rows = ",".join("[" + ",".join(f"{z.real:.6f}{z.imag:+.6f}i" for z in row) + "]" for row in a)
    return f"matrix:[{rows}]"


def matrix_2_1() -> dict:
    """Known defect: diag(2, 1) has ||M_n|| ~ 2^n / n, yet cb and uk report bounded."""
    report = _cli_json(["classify", "matrix:[[2,0],[0,1]]", "--probes", "cb,uk", "--n-max", "512"], 0)
    return _verdicts(report)


def matrix_kernels(seed: int) -> list[Job]:
    jobs = [
        Job(
            f"classify {entry} {MATRIX_PROBES}",
            _classify(entry, MATRIX_PROBES, seed),
            _table(entry, **verdicts),
            reason,
        )
        for entry, (verdicts, reason) in MATRIX_VERDICTS.items()
    ]
    contraction = random_contraction(seed)
    bounded = {"power_bounded": B, "cesaro_bounded": B, "uniformly_kreiss": B, "kreiss": B, "strongly_kreiss": B}
    jobs += [
        Job(
            f"classify random 12x12 contraction {MATRIX_PROBES}",
            _classify(contraction, MATRIX_PROBES, seed),
            dict(bounded, mean_ergodic="inconclusive"),
            "contraction: spectral norm 0.9 < 1 bounds every class; means decay like 1/n, above the Cauchy tolerance",
        ),
        Job(
            "probe hc hyper4 N=1e6",
            lambda: _coverage(seed),
            {"coverage": "hits"},
            "hyper4 row: the balanced witness keeps hitting new cells",
        ),
        Job(
            "isometry hyper4 m<=8",
            lambda: _verdicts(_cli_json(["isometry", "hyper4", "--m-max", "8"], seed)),
            {"strict_order": 3, "isometric_orders": [3, 4, 5, 6, 7, 8]},
            "hyper4 row: chain length 2 gives a strict 3-isometry",
        ),
    ]
    return jobs


def _coverage(seed: int) -> dict:
    report = _cli_json(["probe", "hc", "hyper4", "--N", "1e6"], seed)
    result = report["probes"][0]["result"]
    return {"coverage": "hits" if result["coverage_fraction"] > 0 else "none"}


# ---------------------------------------------------------------------------
# ergodic-ladders: mean and weak Cauchy ladders


def _library_ergodic(seed: int) -> Callable[[], dict]:
    """Identity and Diagonal(e^i) on N: means are x and, for lam != 1, tend to 0."""

    def run() -> dict:
        import cmath

        from cesarolab import dynamics
        from cesarolab.cli import parse_vector
        from cesarolab.core import NAT, Diagonal, identity

        out = {}
        for label, spec in (("identity", identity(NAT)), ("diag_e^i", Diagonal(NAT, cmath.exp(1j)))):
            x = parse_vector("seeded", spec, seed)
            out[f"{label}.mean"] = dynamics.mean_ergodic_probe(spec, x, 2**16).status
            out[f"{label}.weak"] = dynamics.weak_ergodic_probe(spec, x, x, 2**16).status
        return out

    return run


def ergodic_ladders(seed: int) -> list[Job]:
    return [
        Job(
            "mean/weak ergodic identity and diag(e^i) on N, 2^16",
            _library_ergodic(seed),
            {"identity.mean": "converged", "identity.weak": "converged", "diag_e^i.mean": "inconclusive", "diag_e^i.weak": "inconclusive"},
            "closed form: M_n x = x for the identity; for e^i the means decay like 1/n, above the 1e-6 Cauchy tolerance",
        ),
        Job(
            "probe ergodic dupshift mean N=2^11",
            _probe(["ergodic", "dupshift", "--N", "2048"], seed),
            {"ergodic": "diverged"},
            "embed2iso row: averages accumulate the duplicated head",
        ),
        Job(
            "probe ergodic dupshift weak N=2^12",
            _probe(["ergodic", "dupshift", "--weak", "--N", "4096"], seed),
            {"ergodic": "inconclusive"},
            "closed form: <T^n x, x> is constant once the window has passed; the 1/n approach stays above the tolerance",
        ),
        Job(
            "probe ergodic blocktz:bilateral pair mean N=2^12",
            _probe(["ergodic", "blocktz:bilateral", "--x", "pair:seeded:0|seeded:1", "--N", "4096"], seed),
            {"ergodic": "diverged"},
            "blocktz-bilateral row: the top slot picks up n (T-I) T^(n-1) y, so means do not converge",
        ),
        Job(
            "probe ergodic fshift:alpha=0.4 window:32 N=65536",
            _probe(["ergodic", "fshift:alpha=0.4", "--x", "window:32", "--N", "65536"], seed),
            {"ergodic": "diverged"},
            "closed form: ||M_n x|| decays like n^-0.1, which the dyadic Cauchy test reads as a persisting gap",
        ),
        Job(
            "probe ergodic bshift:alpha=0.25 window:32 N=2^20",
            _probe(["ergodic", "bshift:alpha=0.25", "--x", "window:32", "--N", "1048576"], seed),
            {"ergodic": "inconclusive"},
            "closed form: the orbit dies, so means decay like |sum|/n, 25x above the 1e-6 tolerance at 2^20",
        ),
        Job(
            "classify assani me",
            _classify("assani", "me", seed),
            _table("assani", mean_ergodic="diverged"),
            "zoo table: averages oscillate with index parity",
        ),
    ]


WORKLOADS = {
    "zoo-tables": zoo_tables,
    "shift-probes": shift_probes,
    "matrix-kernels": matrix_kernels,
    "ergodic-ladders": ergodic_ladders,
}

# Known defects, run once per run with their true expected verdicts.
# They are reported on their own line and in the trace, not in the timed
# passes, because the timed workloads must run without failures.
KNOWN_DEFECTS = {
    "shift-probes": [
        Job(
            "power_norm_exact fshift Explicit((1,)*9+(7,)) n=1",
            explicit_rule_norm,
            {"power_norm": "7.0"},
            "closed form: the largest weight is 7 at index 10",
        )
    ],
    "matrix-kernels": [
        Job(
            "classify matrix:[[2,0],[0,1]] cb,uk n=512",
            matrix_2_1,
            {"cesaro_bounded": V, "uniformly_kreiss": V},
            "closed form: ||M_n|| >= 2^n/(n+1) grows without bound",
        )
    ],
}
