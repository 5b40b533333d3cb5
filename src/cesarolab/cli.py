"""Command-line front end: construct operators, run probes, emit reports.

Reports are versioned JSON documents (schema_version 1) rendered with
sorted keys; identical invocations with identical seeds produce
byte-identical output.  Sequences go to CSV (header row, UTF-8, LF).
Exit codes: 0 success/match, 1 expectation mismatch or runtime failure,
2 usage or grammar errors (with position-annotated messages).
"""

from __future__ import annotations

import argparse
import io
import json
import math
import sys
import time
from contextlib import redirect_stdout

import numpy as np

from . import classify, dynamics, isometry, powers, zoo
from .classify import DEFAULT_SEED, ProbeConfig
from .core import (
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
    OperatorSpec,
    PairVec,
    ParameterError,
    Polynomial,
    PowerRatio,
    SparseVec,
    UnsupportedVariantError,
    describe,
    expects_pair,
    make_vector,
    spec_universe,
)

SCHEMA_VERSION = 1

GRAMMAR_HELP = """\
operator selectors:
  <zoo-id>                      see `cesarolab zoo list`
  bshift:alpha=A[,p=P]          backward shift, weights (k/(k-1))^A
  fshift:alpha=A                forward shift, weights ((k+1)/k)^A
  polyshift:p=c0,c1,..[;dir=fwd|bwd][;side=uni|bi]
                                shift with weight(k)^2 = p(k+1)/p(k)
  matrix:[[a,b],[c,d]]          square complex matrix (entries like -1, 2.5, 1+2i, -i)
  diag:VALUE[,dim=N]            constant diagonal (default dim 4)
  bilateral                     unweighted bilateral shift
  dupshift                      first-coordinate duplicating embedding
  blocktz:<operator>            block [[T, T-I],[0,T]] over <operator>

vector selectors:
  eK (e.g. e3, e-2)             basis vector
  window:J                      normalized flat window of length J
  adversarial:N                 flat adversarial unit vector (even N)
  seeded[:k]                    k-th seeded random window
  balanced                      balanced coverage witness (diag-plus-nilpotent)
  pair:<vec>|<vec>              ordered pair for blocktz operators (0 = zero slot)
"""


class OperatorParseError(ValueError):
    def __init__(self, message: str, text: str, pos: int):
        super().__init__(message)
        self.message = message
        self.text = text
        self.pos = pos

    def pretty(self) -> str:
        caret = " " * self.pos + "^"
        return f"parse error at position {self.pos}: {self.message}\n  {self.text}\n  {caret}"


class UsageError(ValueError):
    pass


# ---------------------------------------------------------------------------
# operator grammar


def _parse_complex(token: str, text: str, base: int) -> complex:
    cleaned = token.strip().replace("−", "-")
    if not cleaned:
        raise OperatorParseError("empty number", text, base)
    candidate = cleaned.replace("i", "j")
    if candidate in ("j", "+j", "-j"):
        candidate = candidate.replace("j", "1j")
    try:
        return complex(candidate)
    except ValueError:
        raise OperatorParseError(f"bad complex literal {token!r}", text, base + text[base:].find(token.strip()) if token.strip() in text[base:] else base) from None


def _parse_float(token: str, text: str, base: int) -> float:
    try:
        return float(token.strip().replace("−", "-"))
    except ValueError:
        raise OperatorParseError(f"bad number {token!r}", text, base) from None


def _parse_kv(rest: str, text: str, base: int) -> dict[str, str]:
    out = {}
    pos = base
    for chunk in rest.split(","):
        if "=" not in chunk:
            raise OperatorParseError(f"expected key=value, got {chunk!r}", text, pos)
        key, _, value = chunk.partition("=")
        out[key.strip()] = value.strip()
        pos += len(chunk) + 1
    return out


def _parse_matrix(rest: str, text: str, base: int) -> FiniteMatrix:
    s = rest.strip()
    pos = base + rest.find(s) if s else base
    if not s.startswith("[["):
        raise OperatorParseError("matrix literal must start with [[", text, pos)
    if not s.endswith("]]"):
        raise OperatorParseError("matrix literal must end with ]]", text, base + len(rest) - 1)
    body = s[2:-2]
    rows = body.split("],[")
    entries = []
    offset = pos + 2
    for row in rows:
        cells = []
        cell_offset = offset
        for cell in row.split(","):
            cells.append(_parse_complex(cell, text, cell_offset))
            cell_offset += len(cell) + 1
        entries.append(tuple(cells))
        offset += len(row) + 3
    width = len(entries[0])
    if any(len(r) != width for r in entries) or len(entries) != width:
        raise OperatorParseError("matrix must be square", text, pos)
    return FiniteMatrix(tuple(entries))


def parse_operator(text: str) -> tuple[OperatorSpec, dict]:
    """Selector text -> (spec, hints); hints may carry a preferred p."""
    text = text.strip()
    if not text:
        raise OperatorParseError("empty operator selector", text, 0)
    head, sep, rest = text.partition(":")
    base = len(head) + 1
    if not sep:
        if head == "bilateral":
            return BilateralShift(Explicit((), 1.0)), {}
        if head == "dupshift":
            return DuplicatingShift(), {}
        try:
            return zoo.get_entry(head).spec, {}
        except KeyError:
            raise OperatorParseError(f"unknown operator or zoo id {head!r}", text, 0) from None
    if head == "bshift":
        kv = _parse_kv(rest, text, base)
        if "alpha" not in kv:
            raise OperatorParseError("bshift needs alpha=...", text, base)
        alpha = _parse_float(kv["alpha"], text, base)
        hints = {}
        if "p" in kv:
            hints["p"] = _parse_float(kv["p"], text, base)
        return BackwardShift(NAT, PowerRatio(alpha, 0)), hints
    if head == "fshift":
        kv = _parse_kv(rest, text, base)
        if "alpha" not in kv:
            raise OperatorParseError("fshift needs alpha=...", text, base)
        return ForwardShift(NAT, PowerRatio(_parse_float(kv["alpha"], text, base), 1)), {}
    if head == "polyshift":
        coeffs = None
        direction = "forward"
        side = "uni"
        pos = base
        for segment in rest.split(";"):
            key, _, value = segment.partition("=")
            key = key.strip()
            if key == "p":
                coeffs = tuple(_parse_float(c, text, pos) for c in value.split(","))
            elif key == "dir":
                if value not in ("fwd", "bwd"):
                    raise OperatorParseError("dir must be fwd or bwd", text, pos)
                direction = "forward" if value == "fwd" else "backward"
            elif key == "side":
                if value not in ("uni", "bi"):
                    raise OperatorParseError("side must be uni or bi", text, pos)
                side = value
            else:
                raise OperatorParseError(f"unknown polyshift key {key!r}", text, pos)
            pos += len(segment) + 1
        if coeffs is None:
            raise OperatorParseError("polyshift needs p=c0,c1,...", text, base)
        poly = Polynomial(coeffs)
        universe = INTS if side == "bi" else NAT
        return isometry.shift_from_polynomial(poly, direction, universe), {"polynomial": poly}
    if head == "matrix":
        return _parse_matrix(rest, text, base), {}
    if head == "diag":
        parts = rest.split(",")
        value = _parse_complex(parts[0], text, base)
        dim = 4
        for extra in parts[1:]:
            key, _, v = extra.partition("=")
            if key.strip() != "dim":
                raise OperatorParseError(f"unknown diag key {key.strip()!r}", text, base)
            dim = int(_parse_float(v, text, base))
        return Diagonal(FiniteRange(dim), value), {}
    if head == "blocktz":
        inner, hints = parse_operator(rest)
        return BlockTZ(inner), hints
    raise OperatorParseError(f"unknown operator kind {head!r}", text, 0)


def parse_vector(text: str, spec: OperatorSpec, seed: int, index: int = 0):
    """Vector selector for the given operator's state space."""
    text = text.strip()
    universe = spec_universe(spec)
    if expects_pair(spec):
        if text.startswith("pair:"):
            body = text[5:]
            if "|" not in body:
                raise OperatorParseError("pair needs two slots separated by |", text, 5)
            left, right = body.split("|", 1)
            return PairVec(_plain_vector(left, universe, seed, index), _plain_vector(right, universe, seed, index + 1))
        return PairVec(_plain_vector(text, universe, seed, index), make_vector(universe, []))
    if text.startswith("balanced"):
        if not isinstance(spec, DiagPlusNilpotent):
            raise UsageError("balanced witness applies to the diag-plus-nilpotent construction")
        return dynamics.balanced_witness(spec, seed)
    return _plain_vector(text, universe, seed, index)


def _plain_vector(text: str, universe, seed: int, index: int) -> SparseVec:
    text = text.strip()
    if text == "0":
        return make_vector(universe, [])
    if text.startswith("e") and (text[1:].lstrip("-").isdigit()):
        return make_vector(universe, [(int(text[1:]), 1.0)])
    if text.startswith("window:"):
        j = int(text.split(":", 1)[1])
        idx = range(1, j + 1) if not isinstance(universe, type(INTS)) else range(-(j // 2), j - j // 2)
        coeff = 1.0 / math.sqrt(j)
        return make_vector(universe, [(k, coeff) for k in idx])
    if text.startswith("adversarial:"):
        return classify.adversarial_vector(int(text.split(":", 1)[1]), 2.0)
    if text.startswith("seeded"):
        k = int(text.split(":", 1)[1]) if ":" in text else index
        rng = np.random.default_rng(np.random.SeedSequence([seed, k]))
        return classify._seeded_window(universe, rng, 32, 2.0)
    raise OperatorParseError(f"unknown vector selector {text!r}", text, 0)


# ---------------------------------------------------------------------------
# reports


def canonical_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    if getattr(args, "json", False):
        content = canonical_json(payload)
    else:
        content = "\n".join(text_lines) + "\n"
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(content)
    else:
        sys.stdout.write(content)


def _make_report(command: str, operator: str, spec: OperatorSpec, probes: list[dict], config: dict, timings=None) -> dict:
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "operator": operator,
        "spec": describe(spec),
        "probes": probes,
        "config": config,
    }
    if timings is not None:
        report["timing"] = timings
    return report


# ---------------------------------------------------------------------------
# classify subcommand


def cmd_classify(args) -> int:
    tokens = [t.strip() for t in args.probes.split(",") if t.strip()]
    unknown = [t for t in tokens if t not in zoo.TOKENS]
    if unknown:
        raise UsageError(f"unknown probe token {unknown[0]!r} (choose from {', '.join(zoo.TOKENS)})")
    seed = _parse_seed(args.seed)
    entry = zoo.get_entry(args.operator.strip()) if args.operator.strip() in zoo.ENTRIES else None
    spec, hints = (entry.spec, {}) if entry else parse_operator(args.operator)
    cfg = ProbeConfig(n_max=args.n_max, p=hints.get("p", 2.0), tolerance=args.tol, seed=seed)
    probes: list[dict] = []
    timings: dict[str, float] = {}
    exit_code = 0
    if entry is not None:
        t0 = time.perf_counter()
        checks = zoo.verify_entry(entry, seed)
        timings["expected_table"] = time.perf_counter() - t0
        rows = [
            {"probe": c.row.probe, "expected": c.row.expected, "actual": c.actual, "match": c.passed}
            for c in checks
        ]
        probes.append({"probe": "expected_table", "result": {"rows": rows, "all_match": all(c.passed for c in checks)}})
        if not all(c.passed for c in checks):
            exit_code = 1
    for token in tokens:
        t0 = time.perf_counter()
        probe = zoo.TOKENS[token]
        result, _ = probe.run(spec, zoo.Profile(cfg))
        probes.append({"probe": probe.name, "result": result})
        timings[token] = time.perf_counter() - t0
    config = {
        "operator": args.operator,
        "probes": args.probes or "",
        "seed": seed,
        "n_max": cfg.n_max,
        "tol": cfg.tolerance,
        "p": cfg.p,
    }
    report = _make_report("classify", args.operator, spec, probes, config, timings if args.timing else None)
    lines = [f"classify {args.operator} ({describe(spec)})"]
    for item in probes:
        if item["probe"] == "expected_table":
            for row in item["result"]["rows"]:
                mark = "ok " if row["match"] else "BAD"
                lines.append(f"  [{mark}] {row['probe']}: expected {row['expected']}, got {row['actual']}")
        else:
            result = item["result"]
            status = result.get("status", "?")
            extra = ""
            if "best_constant" in result:
                extra = f" constant={result['best_constant']:.6g}"
            lines.append(f"  {item['probe']}: {status}{extra}")
    args.json = args.json or bool(args.out and str(args.out).endswith(".json"))
    _emit(args, report, lines)
    return exit_code


# ---------------------------------------------------------------------------
# orbit subcommand


def cmd_orbit(args) -> int:
    seed = _parse_seed(args.seed)
    spec, hints = parse_operator(args.operator)
    p = args.p or hints.get("p", 2.0)
    x = parse_vector(args.vector, spec, seed)
    if args.pair:
        y = parse_vector(args.pair, spec, seed, index=1)
        orbit = powers.make_orbit(spec, x, args.N)
        values = np.zeros(args.N + 1, dtype=complex)
        values[0] = orbit.inner_with(y)
        inners = orbit.inners(y, args.N)
        values[1 : len(inners) + 1] = inners
        rows = ["n,re,im", *map("{},{!r},{!r}".format, range(len(values)), values.real.tolist(), values.imag.tolist())]
    else:
        values = powers.orbit_norm_array(spec, x, p, args.N)
        rows = ["n,norm", *map("{},{!r}".format, range(len(values)), values.tolist())]
    content = "\n".join(rows) + "\n"
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(content)
        except OSError as exc:
            print(f"cannot write {args.out}: {exc}", file=sys.stderr)
            return 1
    else:
        sys.stdout.write(content)
    return 0


# ---------------------------------------------------------------------------
# isometry subcommand


def cmd_isometry(args) -> int:
    seed = _parse_seed(args.seed)
    spec, _ = parse_operator(args.operator)
    cfg = ProbeConfig(basis_probes=8, seeded_probes=8, seed=seed, tolerance=args.tol)
    reports = isometry.isometry_table(spec, args.m_max, cfg)
    order = next((rep.m_tested for rep in reports if rep.passed), None)
    defects = [
        {"m": rep.m_tested, "max_defect": rep.max_defect, "scale": rep.scale, "passed": rep.passed} for rep in reports
    ]
    degree_profile = {}
    for label, x in classify.probe_vectors(spec, ProbeConfig(basis_probes=4, seeded_probes=0, seed=seed)):
        try:
            degree_profile[label] = isometry.detect_degree(spec, x)
        except isometry.IndeterminateDegreeError:
            degree_profile[label] = None
    covariance = None
    if order == 3:
        probe = isometry.covariance_injectivity_probe(spec)
        covariance = probe.to_dict()
    payload = {
        "strict_order": order,
        "defect_table": defects,
        "degree_profile": degree_profile,
        "covariance": covariance,
    }
    config = {"operator": args.operator, "m_max": args.m_max, "seed": seed, "tol": cfg.tolerance}
    report = _make_report("isometry", args.operator, spec, [{"probe": "isometry", "result": payload}], config)
    lines = [f"isometry {args.operator}: strict_order={order}"]
    for row in defects:
        lines.append(f"  m={row['m']}: max_defect={row['max_defect']:.3e} (scale {row['scale']:.3e}) {'ok' if row['passed'] else 'no'}")
    if covariance:
        lines.append(f"  covariance: {covariance['status']} witness={covariance['witness']}")
        for label, value in covariance["forms"]:
            lines.append(f"    form({label}) = {value:.6g}")
    _emit(args, report, lines)
    return 0


# ---------------------------------------------------------------------------
# probe subcommand


HC_N = 10**6


def cmd_probe(args) -> int:
    if not args.mode:
        raise UsageError("probe needs a mode: mixing, chaos, hc, or ergodic")
    seed = _parse_seed(args.seed)
    spec, hints = parse_operator(args.operator)
    mode = args.mode
    payload: dict
    n_max = None  # mixing and chaos take no N
    if mode == "mixing":
        payload, status = zoo.PROBES["mixing"].run(spec, zoo.Profile(ProbeConfig(seed=seed)))
        n, product = payload["samples"][-1]
        lines = [f"mixing {args.operator}: {status}", f"  final inverse product: {product!r} at n={n}"]
    elif mode == "chaos":
        poly = hints.get("polynomial")
        if poly is None:
            raise UsageError("chaos probe needs a polyshift operator (polyshift:p=...)")
        side = "bilateral" if isinstance(spec, BilateralShift) else "unilateral"
        verdict = dynamics.chaos_criterion_shift_adjoint(poly, side)
        payload = verdict.to_dict()
        lines = [f"chaos {args.operator}: {verdict.status} (degree {verdict.degree})"]
        if verdict.summability:
            lines.append(
                f"  summability: partial={verdict.summability['partial_sum']:.6g}"
                f" tail<{verdict.summability['tail_bound']:.3g}"
            )
    elif mode == "hc":
        n_max = int(HC_N if args.N is None else args.N)
        x = parse_vector(args.x or ("balanced" if isinstance(spec, DiagPlusNilpotent) else "seeded"), spec, seed)
        y = parse_vector(args.y, spec, seed, index=1) if args.y else x
        report_obj = dynamics.hypercyclicity_probe(spec, x, y, n_max, args.R, args.cell)
        payload = report_obj.to_dict(verbose=args.verbose)
        lines = [
            f"hc {args.operator}: hits={len(report_obj.hits)} coverage={report_obj.coverage_fraction:.6f}",
            f"  N={report_obj.n_used} max|value|={report_obj.orbit_magnitude_max:.6g}",
        ]
    elif mode == "ergodic":
        n_max = int((zoo.Profile.weak_n if args.weak else zoo.MEAN_N) if args.N is None else args.N)
        x = parse_vector(args.x or "seeded", spec, seed)
        if args.weak:
            y = parse_vector(args.y, spec, seed, index=1) if args.y else x
            verdict = dynamics.weak_ergodic_probe(spec, x, y, n_max)
        else:
            verdict = dynamics.mean_ergodic_probe(spec, x, n_max)
        payload = verdict.to_dict()
        lines = [f"ergodic ({verdict.mode}) {args.operator}: {verdict.status} final_gap={verdict.final_gap:.3e}"]
    else:
        raise UsageError(f"unknown probe mode {mode!r}")
    config = {
        "operator": args.operator,
        "mode": mode,
        "seed": seed,
        "N": n_max,
        "R": getattr(args, "R", None),
        "cell": getattr(args, "cell", None),
        "x": args.x,
        "y": args.y,
        "weak": bool(getattr(args, "weak", False)),
        "verbose": args.verbose,
    }
    report = _make_report("probe", args.operator, spec, [{"probe": mode, "result": payload}], config)
    _emit(args, report, lines)
    return 0


# ---------------------------------------------------------------------------
# zoo subcommand


def cmd_zoo(args) -> int:
    if args.action != "list":
        raise UsageError("supported: zoo list")
    entries = zoo.all_entries()
    lines = []
    for e in entries:
        expected = ", ".join(f"{r.probe}={r.expected}" for r in e.expected)
        lines.append(f"{e.entry_id:20s} {e.description} | expected: {expected}")
    _emit(args, [e.to_dict() for e in entries], lines)
    return 0


# ---------------------------------------------------------------------------
# replay


def _replay(args) -> int:
    """Re-run a report's command, its stored config (keyed by ``dest`` names) over the defaults; compare verdicts."""
    with open(args.replay, "r", encoding="utf-8") as fh:
        original = json.load(fh)
    command = original.get("command")
    if command not in ("classify", "isometry", "probe"):
        raise UsageError(f"cannot replay command {command!r}")
    fresh = build_parser().parse_args([command])
    stored = {k: v for k, v in original.get("config", {}).items() if k in vars(fresh) and k not in ("func", "replay")}
    vars(fresh).update(stored, json=True, out=None)
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        fresh.func(fresh)
    match = json.loads(buffer.getvalue()).get("probes") == original.get("probes")
    print("replay: verdicts match" if match else "replay: MISMATCH")
    return 0 if match else 1


# ---------------------------------------------------------------------------
# argument parsing


def _parse_seed(token) -> int:
    if token is None:
        return DEFAULT_SEED
    if isinstance(token, int):
        return token
    return int(token, 0)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--json", action="store_true", help="emit the JSON report document")
    p.add_argument("--seed", default=None, help="RNG seed (hex like 0xCE5A70 or decimal)")
    p.add_argument("--out", default=None, help="write output to this path")
    p.add_argument("--replay", default=None, help="re-run from a report document and compare")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cesarolab",
        description="Numerical laboratory for operator boundedness taxonomy and linear dynamics.",
        epilog=GRAMMAR_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_zoo = sub.add_parser("zoo", help="operator zoo")
    p_zoo.add_argument("action", choices=["list"])
    p_zoo.add_argument("--json", action="store_true")
    p_zoo.add_argument("--out", default=None)
    p_zoo.set_defaults(func=cmd_zoo)

    p_cls = sub.add_parser("classify", help="run boundedness probes", epilog=GRAMMAR_HELP,
                           formatter_class=argparse.RawDescriptionHelpFormatter)
    p_cls.add_argument("operator", nargs="?", default="")
    tokens = ", ".join(f"{t} ({probe.name})" for t, probe in zoo.TOKENS.items())
    p_cls.add_argument("--probes", default="", help=f"comma list of tokens: {tokens}")
    p_cls.add_argument("--n-max", dest="n_max", type=int, default=1024)
    p_cls.add_argument("--timing", action="store_true", help="include wall times in the report")
    p_cls.add_argument("--tol", type=float, default=1e-9, help="probe tolerance")
    _add_common(p_cls)
    p_cls.set_defaults(func=cmd_classify)

    p_orb = sub.add_parser("orbit", help="emit orbit norms (or pairings) as CSV")
    p_orb.add_argument("operator")
    p_orb.add_argument("--vector", default="e1")
    p_orb.add_argument("--N", type=int, default=64)
    p_orb.add_argument("--p", type=float, default=None)
    p_orb.add_argument("--pair", default=None, help="second vector: emit n,re,im of <T^n x, y>")
    p_orb.add_argument("--seed", default=None)
    p_orb.add_argument("--out", default=None)
    p_orb.set_defaults(func=cmd_orbit)

    p_iso = sub.add_parser("isometry", help="defect table, strict order, covariance forms")
    p_iso.add_argument("operator", nargs="?", default="")
    p_iso.add_argument("--m-max", dest="m_max", type=int, default=8)
    p_iso.add_argument("--tol", type=float, default=1e-9, help="probe tolerance")
    _add_common(p_iso)
    p_iso.set_defaults(func=cmd_isometry)

    p_prb = sub.add_parser("probe", help="dynamics probes: mixing, chaos, hc, ergodic")
    p_prb.add_argument("mode", nargs="?", choices=["mixing", "chaos", "hc", "ergodic"])
    p_prb.add_argument("operator", nargs="?", default="")
    p_prb.add_argument("--N", type=float, default=None, help="steps: 1e6 for hc; 2^14 (mean) or 2^20 (weak) for ergodic")
    p_prb.add_argument("--R", type=float, default=40.0)
    p_prb.add_argument("--cell", type=float, default=1.0)
    p_prb.add_argument("--x", default=None)
    p_prb.add_argument("--y", default=None)
    p_prb.add_argument("--weak", action="store_true")
    p_prb.add_argument("--verbose", action="store_true", help="include the hit-cell list")
    _add_common(p_prb)
    p_prb.set_defaults(func=cmd_probe)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _replay(args) if getattr(args, "replay", None) else args.func(args)
    except SystemExit as exc:  # argparse: usage errors and --help
        return int(exc.code or 0)
    except OperatorParseError as exc:
        print(exc.pretty(), file=sys.stderr)
        return 2
    except (UsageError, ParameterError, DomainError, UnsupportedVariantError, ConstructionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 1
    finally:  # the power tables and gain table held for the command's probe families
        powers.drop_tables()


if __name__ == "__main__":
    sys.exit(main())
