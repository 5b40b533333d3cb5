"""Boundedness-class probes and growth-rate analysis.

A probe is a finite computation providing evidence for an asymptotic
property, never a certificate.  Verdicts are ``bounded_up_to`` (with the
best constant seen), ``violated`` (with a replayable witness: operator
description, probe vector, index, value), or ``inconclusive``.  Divergence
is declared by a fixed dyadic protocol: checkpoints start at N = 8, and a
quantity is violated when its checkpoint maximum reaches twice the first
checkpoint value and the final checkpoint sustains at least 0.8x the max.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    NAT,
    AllIntegers,
    DomainError,
    FiniteRange,
    NatFromOne,
    OperatorSpec,
    PairVec,
    ParameterError,
    SparseVec,
    UnsupportedVariantError,
    describe,
    expects_pair,
    make_vector,
    p_norm,
    spec_dim,
    spec_universe,
    to_matrix,
)
from .powers import (
    NormSeq,
    cesaro_apply,
    lambda_grid,
    lambda_mean_norms,
    lambda_operator_norms,
    largest_singular_value,
    make_orbit,
    matrix_exponential,
    power_norm_exact,
)

__all__ = [
    "ClassVerdict",
    "ProbeConfig",
    "DEFAULT_SEED",
    "probe_vectors",
    "adversarial_vector",
    "acb_constant",
    "power_bounded_probe",
    "cesaro_bounded_probe",
    "uniform_kreiss_probe",
    "kreiss_resolvent_constant",
    "strong_kreiss_exp_probe",
    "growth_exponent",
    "ratio_trend",
    "lambda_grid",
]

DEFAULT_SEED = 0xCE5A70


@dataclass(frozen=True)
class ClassVerdict:
    """Outcome of a boundedness probe with parameters and witness."""

    class_name: str
    status: str  # "bounded_up_to" | "violated" | "inconclusive"
    certainty: str  # "exact" | "probe"
    n_checked: int
    best_constant: float
    witness: dict | None = None
    parameters: dict = field(default_factory=dict)

    def bounded(self) -> bool:
        return self.status == "bounded_up_to"

    def to_dict(self) -> dict:
        return {
            "class_name": self.class_name,
            "status": self.status,
            "certainty": self.certainty,
            "n_checked": self.n_checked,
            "best_constant": self.best_constant,
            "witness": self.witness,
            "parameters": self.parameters,
        }


@dataclass(frozen=True)
class ProbeConfig:
    """Desk-scale probe settings; every probe echoes the fields it used."""

    n_max: int = 1024
    lambda_samples: int = 64
    basis_probes: int = 12
    seeded_probes: int = 20
    probe_support: int = 32
    include_adversarial: bool = True
    p: float = 2.0
    tolerance: float = 1e-9
    seed: int = DEFAULT_SEED

    def __post_init__(self) -> None:
        if self.n_max < 1:
            raise ParameterError("n_max must be >= 1")
        if self.lambda_samples < 4:
            raise ParameterError("lambda_samples must be >= 4")
        if self.tolerance <= 0:
            raise ParameterError("tolerance must be > 0")
        if self.p < 1:
            raise ParameterError("p must be >= 1")

    def echo(self, **extra) -> dict:
        base = {
            "n_max": self.n_max,
            "lambda_samples": self.lambda_samples,
            "basis_probes": self.basis_probes,
            "seeded_probes": self.seeded_probes,
            "probe_support": self.probe_support,
            "include_adversarial": self.include_adversarial,
            "p": self.p,
            "tolerance": self.tolerance,
            "seed": self.seed,
        }
        base.update(extra)
        return base


# ---------------------------------------------------------------------------
# probe vector families


def adversarial_vector(n: int, p: float) -> SparseVec:
    """Unit vector n^(-1/p) (e_1 + ... + e_n) on the naturals; n must be even."""
    if n < 2 or n % 2:
        raise ParameterError(f"adversarial index must be even and >= 2, got {n}")
    coeff = complex(n ** (-1.0 / p))
    return make_vector(NAT, [(k, coeff) for k in range(1, n + 1)])


def _seeded_window(universe, rng, support: int, p: float) -> SparseVec:
    if isinstance(universe, FiniteRange):
        idx = range(1, universe.dim + 1)
    elif isinstance(universe, AllIntegers):
        half = support // 2
        idx = range(-half, support - half)
    else:
        idx = range(1, support + 1)
    raw = [(k, complex(rng.standard_normal(), rng.standard_normal())) for k in idx]
    vec = make_vector(universe, raw)
    norm = p_norm(vec, p)
    return make_vector(universe, [(k, v / norm) for k, v in vec.entries.items()])


def _basis_indices(universe, count: int) -> list[int]:
    if isinstance(universe, FiniteRange):
        return list(range(1, min(universe.dim, count) + 1))
    if isinstance(universe, AllIntegers):
        out = [0]
        k = 1
        while len(out) < count:
            out.append(k)
            if len(out) < count:
                out.append(-k)
            k += 1
        return out
    return list(range(1, count + 1))


def probe_vectors(spec: OperatorSpec, cfg: ProbeConfig) -> list[tuple[str, SparseVec | PairVec]]:
    """Deterministic labelled probe family: unit basis vectors plus seeded windows."""
    universe = spec_universe(spec)
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    out: list[tuple[str, SparseVec | PairVec]] = []
    if expects_pair(spec):
        for k in _basis_indices(universe, cfg.basis_probes):
            e = make_vector(universe, [(k, 1.0)])
            z = make_vector(universe, [])
            out.append((f"pair(e[{k}];0)", PairVec(e, z)))
            out.append((f"pair(0;e[{k}])", PairVec(z, e)))
        for i in range(cfg.seeded_probes):
            top = _seeded_window(universe, rng, cfg.probe_support, 2)
            bottom = _seeded_window(universe, rng, cfg.probe_support, 2)
            pair = PairVec(top, bottom)
            norm = p_norm(pair, 2)
            pair = PairVec(*(SparseVec(universe, {k: v / norm for k, v in c.entries.items()}) for c in (top, bottom)))
            out.append((f"pair_seeded[{i}]", pair))
        return out
    for k in _basis_indices(universe, cfg.basis_probes):
        out.append((f"e[{k}]", make_vector(universe, [(k, 1.0)])))
    for i in range(cfg.seeded_probes):
        out.append((f"seeded[{i}]", _seeded_window(universe, rng, cfg.probe_support, cfg.p)))
    return out


# ---------------------------------------------------------------------------
# checkpoint / divergence protocol


def checkpoint_set(n_max: int, head: int = 64) -> list[int]:
    """Dense head 1..head plus dyadic indices up to (and including) n_max."""
    pts = set(range(1, min(head, n_max) + 1))
    k = 1
    while k <= n_max:
        pts.add(k)
        k *= 2
    pts.add(n_max)
    return sorted(pts)


def _protocol_points(values: list[tuple[int, float]], start: int = 8) -> list[tuple[int, float]]:
    if not values:
        return []
    n_last = values[-1][0]
    return [(n, v) for n, v in values if n >= start and ((n & (n - 1)) == 0 or n == n_last)]


def _row_divergences(checkpoints: list[int], table: np.ndarray):
    """(row, witness n, witness value) of each row of a (rows, checkpoints) table that ``dyadic_divergence`` finds
    diverging.  Each row is handed only the columns ``_protocol_points`` keeps, selected once for the table; the
    protocol is idempotent, so the verdicts are the same."""
    ns = np.asarray(checkpoints[: table.shape[1]], dtype=np.int64)
    cols = np.flatnonzero((ns >= 8) & (((ns & (ns - 1)) == 0) | (ns == ns[-1:])))  # ns[-1:]: empty for an empty table
    ns = ns[cols].tolist()
    for i, row in enumerate(table[:, cols].tolist()):
        hit, wn, wv = dyadic_divergence(list(zip(ns, row)))
        if hit:
            yield i, wn, wv


def dyadic_divergence(values: list[tuple[int, float]], factor: float = 2.0, sustain: float = 0.8):
    """(violated, witness_n, witness_value) under the dyadic growth protocol."""
    pts = _protocol_points(values)
    firsts = [v for _, v in pts if v > 0]
    if len(pts) < 2 or not firsts:
        return False, None, None
    first = firsts[0]
    peak_n, peak = max(pts, key=lambda t: t[1])
    last = pts[-1][1]
    if peak >= factor * first and last >= sustain * peak:
        return True, peak_n, peak
    return False, None, None


# ---------------------------------------------------------------------------
# probes


def acb_constant(spec: OperatorSpec, cfg: ProbeConfig) -> ClassVerdict:
    """Best constant in (1/N) sum_{j<=N} ||T^j x|| over unit probes, N <= n_max.

    Each probe's averages are judged on their finite prefix (see ``_cut``).
    The probes of a fixed frame read one power stack (``make_orbit``).
    """
    best = 0.0
    best_witness = None
    violated_witness = None
    params = cfg.echo(probe="absolutely_cesaro_bounded")
    for label, x in probe_vectors(spec, cfg):
        with np.errstate(over="ignore", invalid="ignore"):
            norms = make_orbit(spec, x, cfg.n_max).norms(cfg.p, cfg.n_max)
            # prefix sums in extended precision stand in for a compensated running sum
            avgs = (np.cumsum(norms, dtype=np.longdouble) / np.arange(1, len(norms) + 1)).astype(float)
        avgs = avgs[: _cut(range(1, len(avgs) + 1), avgs, params)].tolist()
        if avgs and max(avgs) > best:
            best = max(avgs)
            best_witness = {"vector": label, "N": avgs.index(best) + 1, "value": best}
        checkpoints = [(j, avgs[j - 1]) for j in range(8, len(avgs) + 1) if (j & (j - 1)) == 0 or j == cfg.n_max]
        hit, wn, wv = dyadic_divergence(checkpoints)
        if hit and violated_witness is None:
            violated_witness = {"spec": describe(spec), "vector": label, "N": wn, "value": wv}
    if violated_witness is not None:
        return ClassVerdict(
            "absolutely_cesaro_bounded", "violated", "probe", cfg.n_max, best, violated_witness, params
        )
    return ClassVerdict(
        "absolutely_cesaro_bounded", _unviolated(params), "probe", cfg.n_max, best, best_witness, params
    )


def _cut(ns, values, params: dict) -> int:
    """Length of a series (values at the indices ns) before its first non-finite value.

    The least such index over the series judged is ``non_finite_at``.
    """
    bad = np.flatnonzero(~np.isfinite(np.asarray(values, dtype=float)))
    if bad.size:
        n = int(ns[bad[0]])
        params["non_finite_at"] = min(n, params.get("non_finite_at", n))
        return int(bad[0])
    return len(values)


def _unviolated(params: dict) -> str:
    """Status of probe evidence that never diverged: a series cut by a non-finite value is never bounded."""
    return "inconclusive" if "non_finite_at" in params else "bounded_up_to"


def _exact_norm_values(spec, cfg) -> list[tuple[int, float]] | None:
    try:
        return [(n, power_norm_exact(spec, n, cfg.p)) for n in checkpoint_set(cfg.n_max)]
    except (UnsupportedVariantError, ParameterError):
        return None


def power_bounded_probe(spec: OperatorSpec, cfg: ProbeConfig) -> ClassVerdict:
    """sup_n ||T^n||: exact norms where closed forms exist, else orbit suprema."""
    values = _exact_norm_values(spec, cfg)
    if values is not None:
        return _exact_verdict("power_bounded", spec, cfg, values, cfg.echo(probe="power_bounded"))
    probes = probe_vectors(spec, cfg)
    sup = np.full(cfg.n_max, -1.0)  # sup[n - 1] over the probes whose orbit reached n
    sup_vec = np.zeros(cfg.n_max, dtype=int)
    reached = 0
    for i, (label, x) in enumerate(probes):
        with np.errstate(over="ignore", invalid="ignore"):
            norms = make_orbit(spec, x, cfg.n_max).norms(cfg.p, cfg.n_max)
        norms[np.isnan(norms)] = np.inf  # a NaN norm is non-finite too, and must win the supremum
        better = np.flatnonzero(norms > sup[: len(norms)])
        sup[better] = norms[better]
        sup_vec[better] = i
        reached = max(reached, len(norms))
    params = cfg.echo(probe="power_bounded")
    values = list(enumerate(sup[: _cut(range(1, reached + 1), sup[:reached], params)].tolist(), start=1)) or [(1, 0.0)]
    best_n, best = max(values, key=lambda t: t[1])
    hit, wn, wv = dyadic_divergence(values)
    if hit:
        witness = {"spec": describe(spec), "n": wn, "value": wv, "vector": probes[sup_vec[wn - 1]][0]}
        return ClassVerdict("power_bounded", "violated", "probe", cfg.n_max, best, witness, params)
    return ClassVerdict(
        "power_bounded", _unviolated(params), "probe", cfg.n_max, best, {"n": best_n, "value": best}, params
    )


def _exact_verdict(class_name: str, spec, cfg: ProbeConfig, values, params: dict) -> ClassVerdict:
    """Verdict on an exact (n, value) series, judged on its finite prefix.

    The dyadic protocol firing on the prefix gives ``violated``; a series cut
    by a non-finite value is otherwise ``inconclusive``, never bounded.  A
    cut records its index as ``non_finite_at``.
    """
    values = values[: _cut([n for n, _ in values], [v for _, v in values], params)]
    best_n, best = max(values, key=lambda t: t[1], default=(None, 0.0))
    hit, wn, wv = dyadic_divergence(values)
    if hit:
        witness = {"spec": describe(spec), "n": wn, "value": wv}
        return ClassVerdict(class_name, "violated", "exact", cfg.n_max, best, witness, params)
    witness = {"n": best_n, "value": best} if values else None
    return ClassVerdict(class_name, _unviolated(params), "exact", cfg.n_max, best, witness, params)


def _is_nat_universe(spec) -> bool:
    return isinstance(spec_universe(spec), NatFromOne)


def cesaro_bounded_probe(spec: OperatorSpec, cfg: ProbeConfig) -> ClassVerdict:
    """sup_n ||M_n(T)||: exact for finite matrices, probe families otherwise."""
    params = cfg.echo(probe="cesaro_bounded")
    if spec_dim(spec) is not None:
        ns = list(range(1, cfg.n_max + 1))
        values = list(zip(ns, lambda_operator_norms(spec, [1.0], ns)[0].tolist()))
        return _exact_verdict("cesaro_bounded", spec, cfg, values, params)

    checkpoints = checkpoint_set(cfg.n_max)
    best = 0.0
    best_witness = None
    violated_witness = None
    probes = probe_vectors(spec, cfg)
    with np.errstate(over="ignore", invalid="ignore"):
        tables = lambda_mean_norms(spec, [x for _, x in probes], [1.0], checkpoints, cfg.p)
    for (label, _), norms in zip(probes, tables[:, 0]):
        norms = norms[: _cut(checkpoints, norms, params)]
        if norms.size and (v_best := float(norms.max())) > best:
            best = v_best
            best_witness = {"vector": label, "n": checkpoints[int(np.argmax(norms))], "value": v_best}
        hit = next(_row_divergences(checkpoints, norms[None]), None)
        if hit and violated_witness is None:
            violated_witness = {"spec": describe(spec), "vector": label, "n": hit[1], "value": hit[2]}
    if cfg.include_adversarial and _is_nat_universe(spec) and not expects_pair(spec):
        series = []
        n = 8
        while n <= cfg.n_max:
            xn = adversarial_vector(n, cfg.p)
            with np.errstate(over="ignore", invalid="ignore"):
                series.append((n, p_norm(cesaro_apply(spec, xn, n - 1), cfg.p)))
            n *= 2
        series = series[: _cut([n for n, _ in series], [v for _, v in series], params)]
        for n, value in series:
            if value > best:
                best = value
                best_witness = {"vector": f"adversarial[n={n}]", "n": n - 1, "value": value}
        hit, wn, wv = dyadic_divergence(series)
        if hit and violated_witness is None:
            violated_witness = {
                "spec": describe(spec),
                "vector": f"adversarial[n={wn}]",
                "n": wn - 1,
                "value": wv,
            }
        params["adversarial_series"] = [[n, v] for n, v in series]
    if violated_witness is not None:
        return ClassVerdict("cesaro_bounded", "violated", "probe", cfg.n_max, best, violated_witness, params)
    return ClassVerdict("cesaro_bounded", _unviolated(params), "probe", cfg.n_max, best, best_witness, params)


def uniform_kreiss_probe(spec: OperatorSpec, cfg: ProbeConfig) -> ClassVerdict:
    """sup over unimodular lam and n of ||M_n(lam T)|| (grid x checkpoint evidence)."""
    lams = lambda_grid(cfg.lambda_samples)
    checkpoints = checkpoint_set(cfg.n_max)
    params = cfg.echo(probe="uniformly_kreiss", lambda_grid_size=len(lams))
    if spec_dim(spec) is not None:
        table = lambda_operator_norms(spec, lams, checkpoints)
        # the whole grid is judged up to the first checkpoint where any lam is non-finite
        table = table[:, : _cut(checkpoints, table.max(axis=0), params)]
        if not table.size:
            return ClassVerdict("uniformly_kreiss", "inconclusive", "exact", cfg.n_max, 0.0, None, params)
        best = float(table.max())
        flat = int(np.argmax(table))
        li, ci = divmod(flat, table.shape[1])
        best_witness = {"lam": [float(lams[li].real), float(lams[li].imag)], "n": checkpoints[ci], "value": best}
        violations = [(wv, i, wn) for i, wn, wv in _row_divergences(checkpoints, table)]
        if violations:
            wv, i, wn = max(violations)
            witness = {
                "spec": describe(spec),
                "lam": [float(lams[i].real), float(lams[i].imag)],
                "n": wn,
                "value": wv,
            }
            return ClassVerdict("uniformly_kreiss", "violated", "exact", cfg.n_max, best, witness, params)
        return ClassVerdict("uniformly_kreiss", _unviolated(params), "exact", cfg.n_max, best, best_witness, params)

    best = 0.0
    best_witness = None
    violations = []
    probes = probe_vectors(spec, cfg)
    with np.errstate(over="ignore", invalid="ignore"):
        tables = lambda_mean_norms(spec, [x for _, x in probes], lams, checkpoints, cfg.p)
    for (label, _), table in zip(probes, tables):
        # the whole grid is judged up to the first checkpoint where any lam is non-finite
        table = table[:, : _cut(checkpoints, table.max(axis=0), params)]
        if not table.size:
            continue
        local = float(table.max())
        if local > best:
            best = local
            flat = int(np.argmax(table))
            li, ci = divmod(flat, table.shape[1])
            best_witness = {
                "vector": label,
                "lam": [float(lams[li].real), float(lams[li].imag)],
                "n": checkpoints[ci],
                "value": local,
            }
        violations += [(wv, i, wn, label) for i, wn, wv in _row_divergences(checkpoints, table)]
    if violations:
        wv, i, wn, label = max(violations)
        witness = {
            "spec": describe(spec),
            "vector": label,
            "lam": [float(lams[i].real), float(lams[i].imag)],
            "n": wn,
            "value": wv,
        }
        return ClassVerdict("uniformly_kreiss", "violated", "probe", cfg.n_max, best, witness, params)
    return ClassVerdict("uniformly_kreiss", _unviolated(params), "probe", cfg.n_max, best, best_witness, params)


def kreiss_resolvent_constant(
    spec: OperatorSpec, delta_grid, arg_samples: int = 16
) -> ClassVerdict:
    """sup over |lam| = 1 + delta of (|lam|-1) ||(lam I - T)^{-1}|| via direct solves."""
    deltas = sorted(float(d) for d in delta_grid)
    if not deltas or deltas[0] <= 0:
        raise ParameterError("deltas must be positive")
    if spec_dim(spec) is None:
        raise UnsupportedVariantError("kreiss_resolvent_constant needs a finite-dimensional spec")
    a = to_matrix(spec)
    eye = np.eye(a.shape[0], dtype=complex)
    args = np.linspace(0.0, 2.0 * np.pi, arg_samples, endpoint=False)
    if not np.any(np.isclose(args, np.pi)):
        args = np.append(args, np.pi)
    units = [complex(math.cos(theta), math.sin(theta)) for theta in args]
    per_delta = []
    for delta in deltas:
        lams = [(1.0 + delta) * u for u in units]
        shifted = np.array(lams)[:, None, None] * eye - a
        try:
            resolvents = np.linalg.solve(shifted, np.broadcast_to(eye, shifted.shape))
        except np.linalg.LinAlgError:
            # LU pivots as solve's: the first exactly singular lam is the witness
            lam = lams[int(np.flatnonzero(np.linalg.slogdet(shifted)[0] == 0)[0])]
            return ClassVerdict(
                "kreiss",
                "violated",
                "exact",
                len(deltas),
                math.inf,
                {"spec": describe(spec), "lam": [lam.real, lam.imag], "singular": True},
                {"delta_grid": deltas, "arg_samples": int(len(args))},
            )
        values = delta * largest_singular_value(resolvents)
        worst = int(np.argmax(values))
        per_delta.append((delta, float(values[worst]), float(args[worst])))
    best = max(v for _, v, _ in per_delta)
    params = {
        "delta_grid": deltas,
        "arg_samples": int(len(args)),
        "per_delta": [[dv, vv, av] for dv, vv, av in per_delta],
    }
    small, large = per_delta[0][1], per_delta[-1][1]
    if large > 0 and small >= 5.0 * large:
        dv, vv, av = per_delta[0]
        witness = {"spec": describe(spec), "delta": dv, "arg": av, "value": vv}
        return ClassVerdict("kreiss", "violated", "exact", len(deltas), best, witness, params)
    return ClassVerdict("kreiss", "bounded_up_to", "exact", len(deltas), best, None, params)


def strong_kreiss_exp_probe(
    spec: OperatorSpec, radii=(1.0, 2.0, 4.0, 8.0, 16.0), arg_samples: int = 16
) -> ClassVerdict:
    """sup over sampled z of ||e^{zT}|| e^{-|z|}; bounded when stable across radii."""
    radii = sorted(float(r) for r in radii)
    if not radii or radii[0] <= 0:
        raise ParameterError("radii must be positive")
    if spec_dim(spec) is None:
        raise UnsupportedVariantError("strong_kreiss_exp_probe needs a finite-dimensional spec")
    a = to_matrix(spec)
    args = np.linspace(0.0, 2.0 * np.pi, arg_samples, endpoint=False)
    units = [complex(math.cos(theta), math.sin(theta)) for theta in args]
    per_radius = []
    for r in radii:
        zs = [r * u for u in units]
        damping = np.array([math.exp(-abs(z)) for z in zs])  # libm's hypot: numpy's vector |z| can differ by an ulp
        values = largest_singular_value(matrix_exponential(np.array(zs)[:, None, None] * a)) * damping
        worst = int(np.argmax(values))
        per_radius.append((r, float(values[worst]), float(args[worst])))
    best = max(v for _, v, _ in per_radius)
    params = {
        "radii": radii,
        "arg_samples": int(arg_samples),
        "per_radius": [[rv, vv, av] for rv, vv, av in per_radius],
    }
    first, last = per_radius[0][1], per_radius[-1][1]
    if first > 0 and last >= 2.0 * first:
        rv, vv, av = per_radius[-1]
        witness = {"spec": describe(spec), "radius": rv, "arg": av, "value": vv}
        return ClassVerdict("strongly_kreiss", "violated", "exact", len(radii), best, witness, params)
    return ClassVerdict("strongly_kreiss", "bounded_up_to", "exact", len(radii), best, None, params)


# ---------------------------------------------------------------------------
# growth analysis


def _positive_entries(seq: NormSeq) -> list[tuple[int, float]]:
    entries = [(n, v) for n, v in seq.entries if n >= 2]
    if len(entries) < 8:
        raise ParameterError("need at least 8 entries with n >= 2")
    if any(v <= 0 for _, v in entries):
        raise DomainError("growth analysis needs positive values")
    return entries


def growth_exponent(seq: NormSeq) -> float:
    """Least-squares slope of log(value) against log(n) on the top log-half."""
    entries = _positive_entries(seq)
    n_top = entries[-1][0]
    cut = math.sqrt(n_top)
    window = [(n, v) for n, v in entries if n >= cut]
    if len(window) < 2:
        window = entries[-8:]
    xs = np.log([n for n, _ in window])
    ys = np.log([v for _, v in window])
    slope, _ = np.polyfit(xs, ys, 1)
    return float(slope)


def ratio_trend(seq: NormSeq, beta: float) -> str:
    """Trend of value / n^beta across dyadic n: decreasing_to_zero | bounded | growing."""
    _positive_entries(seq)
    points = [(n, v / n**beta) for n, v in seq.entries if n >= 1 and (n & (n - 1)) == 0]
    if len(points) < 2:
        raise ParameterError("need at least two dyadic entries with n >= 1")
    first = points[0][1]
    last = points[-1][1]
    if last < 0.1 * first:
        return "decreasing_to_zero"
    if last > 2.0 * first:
        return "growing"
    return "bounded"
