"""Boundedness-class probes and growth-rate analysis.

A probe is a finite computation providing evidence for an asymptotic
property, never a certificate.  Verdicts are ``bounded_up_to`` (with the
best constant seen), ``violated`` (with a replayable witness: operator
description, probe vector, index, value), or ``inconclusive``.

The n-indexed probes (``acb``, ``pb``, ``cb``, ``uk``) build tables and
hand them to one judge (``_judge``).  A table is a group of rows (a probe
vector's lam rows, or one row) over the indices n, each entry located by
witness fields.  A group is cut before its first column with a non-finite
entry, the least such n being ``non_finite_at``; a cut verdict is never
bounded (``inconclusive`` unless it diverges before the cut).  The
best constant is the largest entry, the first in (group, row, n) order.
Divergence is the dyadic protocol (``_divergences``): on the columns with
n >= 8 that are a power of two or the last, a row diverges when its peak
reaches twice its first positive value and its last value sustains at
least 0.8x the peak.  The violation witness is the largest diverging peak
over every row, the first in (group, row) order on ties.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

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
    power_norms_exact,
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
# checkpoint / divergence protocol and the judge


def checkpoint_set(n_max: int, head: int = 64) -> list[int]:
    """Dense head 1..head plus dyadic indices up to (and including) n_max."""
    pts = set(range(1, min(head, n_max) + 1))
    k = 1
    while k <= n_max:
        pts.add(k)
        k *= 2
    pts.add(n_max)
    return sorted(pts)


def _divergences(ns, table) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rows, peak columns, peaks) of the rows of a (rows x len(ns)) table that the dyadic protocol (module docstring)
    finds diverging, in row order; the protocol's columns are picked once for the table."""
    ns = np.asarray(ns, dtype=np.int64)
    cols = np.flatnonzero((ns >= 8) & (((ns & (ns - 1)) == 0) | (np.arange(len(ns)) == len(ns) - 1)))
    if cols.size < 2:
        return np.empty(0, dtype=np.int64), cols[:0], np.empty(0)
    pts = np.asarray(table, dtype=float)[:, cols]
    positive = pts > 0
    first = np.take_along_axis(pts, np.argmax(positive, axis=1)[:, None], axis=1)[:, 0]
    peak_at = np.argmax(pts, axis=1)
    peak = np.take_along_axis(pts, peak_at[:, None], axis=1)[:, 0]
    rows = np.flatnonzero(positive.any(axis=1) & (peak >= 2.0 * first) & (pts[:, -1] >= 0.8 * peak))
    return rows, cols[peak_at[rows]], peak[rows]


def dyadic_divergence(values: list[tuple[int, float]]):
    """(violated, witness_n, witness_value) of one (n, value) series under the dyadic protocol (``_divergences``)."""
    ns = [n for n, _ in values]
    rows, cols, peaks = _divergences(ns, [[v for _, v in values]])
    return (True, ns[cols[0]], float(peaks[0])) if rows.size else (False, None, None)


def _cut(ns, values, params: dict) -> int:
    """Length of a series (values at the indices ns), or of a table's columns, before the first non-finite value;
    the least such index over the series judged is ``non_finite_at``."""
    finite = np.atleast_2d(np.isfinite(np.asarray(values, dtype=float))).all(axis=0)
    bad = np.flatnonzero(~finite)
    if bad.size:
        n = np.asarray(ns[bad[0]]).item()  # an int index, or a float radius
        params["non_finite_at"] = min(n, params.get("non_finite_at", n))
        return int(bad[0])
    return len(finite)


def _unviolated(params: dict) -> str:
    """Status of probe evidence that never diverged: a series cut by a non-finite value is never bounded."""
    return "inconclusive" if "non_finite_at" in params else "bounded_up_to"


def _judge(class_name: str, certainty: str, spec, cfg: ProbeConfig, params: dict, groups) -> ClassVerdict:
    """The verdict of an n-indexed quantity, read off groups (ns, table, where): a (rows x len(ns)) table of values
    at the indices ns, and where(row, col), the witness fields that locate an entry (see the module docstring)."""
    best, best_witness, peak, violated_witness = 0.0, None, None, None
    for ns, table, where in groups:
        table = np.asarray(table, dtype=float)
        table = table[:, : _cut(ns, table, params)]
        if table.size:
            r, c = divmod(int(np.argmax(table)), table.shape[1])
            if best_witness is None or table[r, c] > best:
                best = float(table[r, c])
                best_witness = {**where(r, c), "value": best}
        rows, cols, peaks = _divergences(ns[: table.shape[1]], table)
        if peaks.size and (peak is None or peaks.max() > peak):
            i = int(np.argmax(peaks))
            peak = peaks[i]
            violated_witness = {"spec": describe(spec), **where(int(rows[i]), int(cols[i])), "value": float(peak)}
    if violated_witness is not None:
        return ClassVerdict(class_name, "violated", certainty, cfg.n_max, best, violated_witness, params)
    return ClassVerdict(class_name, _unviolated(params), certainty, cfg.n_max, best, best_witness, params)


# ---------------------------------------------------------------------------
# probes


def acb_constant(spec: OperatorSpec, cfg: ProbeConfig) -> ClassVerdict:
    """Best constant in (1/N) sum_{j<=N} ||T^j x|| over unit probes, N <= n_max: one row of running averages per
    probe, located by (vector, N).  The probes of a fixed frame read one power stack (``make_orbit``)."""

    def groups():
        for label, x in probe_vectors(spec, cfg):
            with np.errstate(over="ignore", invalid="ignore"):
                norms = make_orbit(spec, x, cfg.n_max).norms(cfg.p, cfg.n_max)
                # prefix sums in extended precision stand in for a compensated running sum
                avgs = (np.cumsum(norms, dtype=np.longdouble) / np.arange(1, len(norms) + 1)).astype(float)
            yield range(1, len(avgs) + 1), avgs[None], lambda r, c, label=label: {"vector": label, "N": c + 1}

    params = cfg.echo(probe="absolutely_cesaro_bounded")
    return _judge("absolutely_cesaro_bounded", "probe", spec, cfg, params, groups())


def power_bounded_probe(spec: OperatorSpec, cfg: ProbeConfig) -> ClassVerdict:
    """sup_n ||T^n||: exact norms at the checkpoints where closed forms exist, located by n; else the supremum of the
    probe orbits at each n, located by n and the first probe that attains it."""
    params = cfg.echo(probe="power_bounded")
    ns = checkpoint_set(cfg.n_max)
    try:
        norms = power_norms_exact(spec, ns, cfg.p)
    except (UnsupportedVariantError, ParameterError):
        pass
    else:
        return _judge("power_bounded", "exact", spec, cfg, params, [(ns, [norms], lambda r, c: {"n": ns[c]})])
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
    where = lambda r, c: {"n": c + 1, "vector": probes[sup_vec[c]][0]}  # noqa: E731
    return _judge("power_bounded", "probe", spec, cfg, params, [(range(1, reached + 1), [sup[:reached]], where)])


def _vector_groups(spec, cfg: ProbeConfig, lams, checkpoints, where) -> list:
    """One group per probe vector: its (lam x checkpoint) table of ||M_n(lam T) x|| (``lambda_mean_norms``), an entry
    located by where(vector label, row, col)."""
    probes = probe_vectors(spec, cfg)
    with np.errstate(over="ignore", invalid="ignore"):
        tables = lambda_mean_norms(spec, [x for _, x in probes], lams, checkpoints, cfg.p)
    return [(checkpoints, table, partial(where, label)) for (label, _), table in zip(probes, tables)]


def cesaro_bounded_probe(spec: OperatorSpec, cfg: ProbeConfig) -> ClassVerdict:
    """sup_n ||M_n(T)||: a finite matrix's exact row for n <= n_max, located by n; else one row per probe vector at the
    checkpoints, located by (vector, n), and on the naturals the adversarial series ||M_{n-1}(T) x_n|| at dyadic n,
    located by (adversarial[n=...], n - 1)."""
    params = cfg.echo(probe="cesaro_bounded")
    if spec_dim(spec) is not None:
        ns = list(range(1, cfg.n_max + 1))
        groups = [(ns, lambda_operator_norms(spec, [1.0], ns), lambda r, c: {"n": ns[c]})]
        return _judge("cesaro_bounded", "exact", spec, cfg, params, groups)
    checkpoints = checkpoint_set(cfg.n_max)
    groups = _vector_groups(spec, cfg, [1.0], checkpoints, lambda label, r, c: {"vector": label, "n": checkpoints[c]})
    if cfg.include_adversarial and isinstance(spec_universe(spec), NatFromOne) and not expects_pair(spec):
        ns = [2**k for k in range(3, cfg.n_max.bit_length())]  # 8, 16, .. <= n_max
        with np.errstate(over="ignore", invalid="ignore"):
            series = [p_norm(cesaro_apply(spec, adversarial_vector(n, cfg.p), n - 1), cfg.p) for n in ns]
        series = series[: _cut(ns, series, params)]
        params["adversarial_series"] = [list(t) for t in zip(ns, series)]
        groups.append((ns, [series], lambda r, c: {"vector": f"adversarial[n={ns[c]}]", "n": ns[c] - 1}))
    return _judge("cesaro_bounded", "probe", spec, cfg, params, groups)


def uniform_kreiss_probe(spec: OperatorSpec, cfg: ProbeConfig) -> ClassVerdict:
    """sup over unimodular lam and n of ||M_n(lam T)|| (grid x checkpoint evidence): a matrix's exact table, located by
    (lam, n), else one table per probe vector, located by (vector, lam, n)."""
    lams = lambda_grid(cfg.lambda_samples)
    checkpoints = checkpoint_set(cfg.n_max)
    params = cfg.echo(probe="uniformly_kreiss", lambda_grid_size=len(lams))
    points = [[float(lam.real), float(lam.imag)] for lam in lams]
    where = lambda r, c: {"lam": points[r], "n": checkpoints[c]}  # noqa: E731
    if spec_dim(spec) is not None:
        groups = [(checkpoints, lambda_operator_norms(spec, lams, checkpoints), where)]
        return _judge("uniformly_kreiss", "exact", spec, cfg, params, groups)
    groups = _vector_groups(spec, cfg, lams, checkpoints, lambda label, r, c: {"vector": label, **where(r, c)})
    return _judge("uniformly_kreiss", "probe", spec, cfg, params, groups)


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
    """sup over sampled z of ||e^{zT}|| e^{-|z|}; bounded when stable across radii.

    The radius series is judged on its finite prefix (``_cut``): a value past
    double range records its radius as ``non_finite_at``, and a cut series is
    never bounded.
    """
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
    params = {"radii": radii, "arg_samples": int(arg_samples)}
    per_radius = per_radius[: _cut(radii, [v for _, v, _ in per_radius], params)]
    params["per_radius"] = [[rv, vv, av] for rv, vv, av in per_radius]
    best = max((v for _, v, _ in per_radius), default=0.0)
    if per_radius and 0 < per_radius[0][1] and 2.0 * per_radius[0][1] <= per_radius[-1][1]:
        rv, vv, av = per_radius[-1]
        witness = {"spec": describe(spec), "radius": rv, "arg": av, "value": vv}
        return ClassVerdict("strongly_kreiss", "violated", "exact", len(radii), best, witness, params)
    return ClassVerdict("strongly_kreiss", _unviolated(params), "exact", len(radii), best, None, params)


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
