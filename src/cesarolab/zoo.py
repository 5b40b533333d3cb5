"""Named constructors for the package's concrete operators, and the probe registry.

Every entry carries an expected-properties table (probe name, expected
verdict, one-line claim) that the acceptance suite and the CLI replay at
desk scale.  ``PROBES`` maps each probe name to the code that runs it, for
these tables and for ``cesarolab classify --probes`` alike.  Defaults
follow the Hilbert-space setting (p = 2) and the 4-dimensional
diagonal-plus-nilpotent construction with chain length 2.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field, replace
from typing import Callable

from .core import (
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
    OperatorSpec,
    ParameterError,
    PowerRatio,
    describe,
    to_matrix,
)
from . import classify, dynamics, isometry
from .classify import DEFAULT_SEED, ProbeConfig, adversarial_vector

__all__ = [
    "ExpectedRow",
    "ZooEntry",
    "RowCheck",
    "assani",
    "lambda_block",
    "acb_backward_shift",
    "forward_kreiss_shift",
    "non_cesaro_backward_shift",
    "two_isometry_embedding",
    "block_tz",
    "diag_nilpotent_3isometry",
    "rotation_control",
    "adversarial_vector",
    "acb_bound",
    "non_cesaro_constant",
    "RATIONALLY_INDEPENDENT",
    "all_entries",
    "get_entry",
    "ENTRIES",
    "MEAN_N",
    "Profile",
    "PROBES",
    "TOKENS",
    "verify_entry",
]

# e^i and e^(i*sqrt(2)): pi, 1, sqrt(2) are rationally independent.
RATIONALLY_INDEPENDENT = (cmath.exp(1j), cmath.exp(1j * math.sqrt(2.0)))


@dataclass(frozen=True)
class ExpectedRow:
    probe: str
    expected: str
    claim: str
    overrides: dict = field(default_factory=dict, compare=False)  # ProbeConfig fields set for this row


@dataclass(frozen=True)
class ZooEntry:
    entry_id: str
    description: str
    spec: OperatorSpec
    expected: tuple[ExpectedRow, ...]
    notes: str = ""

    def to_dict(self) -> dict:
        return {
            "id": self.entry_id,
            "description": self.description,
            "spec": describe(self.spec),
            "expected": [[r.probe, r.expected, r.claim] for r in self.expected],
            "notes": self.notes,
        }


@dataclass(frozen=True)
class RowCheck:
    row: ExpectedRow
    actual: str
    passed: bool


def acb_bound(p: float, alpha: float) -> float:
    """Absolute-Cesàro constant bound (2 (1/eps + 1))^(1/p) with eps = 1 - alpha p."""
    eps = 1.0 - alpha * p
    if eps <= 0:
        raise ParameterError("need alpha < 1/p")
    return (2.0 * (1.0 / eps + 1.0)) ** (1.0 / p)


def non_cesaro_constant(p: float) -> float:
    """The lower-bound constant c = (p/(p+1)) (1 - 2^-(1+1/p))."""
    return (p / (p + 1.0)) * (1.0 - 2.0 ** (-(1.0 + 1.0 / p)))


# ---------------------------------------------------------------------------
# constructors


def assani() -> ZooEntry:
    spec = FiniteMatrix(((-1.0, 2.0), (0.0, -1.0)))
    expected = (
        ExpectedRow("power_bounded", "violated", "orbit norms grow linearly"),
        ExpectedRow("cesaro_bounded", "bounded", "averaged powers stay uniformly bounded"),
        ExpectedRow("mean_ergodic", "diverged", "averages oscillate with index parity"),
        ExpectedRow("strict_order", "3", "squared orbit norms are exact quadratics"),
    )
    return ZooEntry(
        "assani",
        "2x2 upper-triangular matrix with -1 diagonal and a rank-one coupling",
        spec,
        expected,
        "closed-form powers alternate sign while the off-diagonal entry grows like 2n",
    )


def lambda_block(lam: complex = RATIONALLY_INDEPENDENT[0]) -> ZooEntry:
    lam = complex(lam)
    if abs(abs(lam) - 1.0) > 1e-12 or lam == 1:
        raise ParameterError("lam must be unimodular and different from 1")
    spec = FiniteMatrix(((lam, lam - 1.0), (0.0, lam)))
    expected = (
        ExpectedRow("cesaro_bounded", "bounded", "geometric sums against lam != 1 stay bounded"),
        ExpectedRow("mean_ergodic", "diverged", "averages track the non-convergent lam^n"),
        ExpectedRow("strict_order", "3", "unitary diagonal plus commuting nilpotent block"),
    )
    return ZooEntry(
        "lambda-block",
        "2x2 block [[lam, lam-1], [0, lam]] with unimodular lam != 1",
        spec,
        expected,
    )


def acb_backward_shift(p: float = 2.0, alpha: float = 0.25) -> ZooEntry:
    if not 0.0 < alpha < 1.0 / p:
        raise ParameterError(f"alpha must lie in (0, 1/p), got {alpha}")
    spec = BackwardShift(NAT, PowerRatio(alpha, 0))
    expected = (
        ExpectedRow("absolutely_cesaro", "bounded", "orbit-norm averages admit a uniform constant"),
        ExpectedRow("power_bounded", "violated", "power norms equal (n+1)^alpha"),
        ExpectedRow("mixing", "mixing_evidence", "inverse weight products decay like n^-alpha"),
    )
    return ZooEntry(
        "acb-bshift",
        f"backward shift with weights (k/(k-1))^{alpha:g} on ell^{p:g}",
        spec,
        expected,
        f"absolute-Cesaro constant bounded by {acb_bound(p, alpha):.6f}",
    )


def forward_kreiss_shift(alpha: float = 0.4) -> ZooEntry:
    if not 0.0 < alpha < 0.5:
        raise ParameterError(f"alpha must lie in (0, 1/2), got {alpha}")
    spec = ForwardShift(NAT, PowerRatio(alpha, 1))
    expected = (
        ExpectedRow("uniformly_kreiss", "bounded", "unimodular-averaged powers stay bounded",
                    {"n_max": 2**10, "seeded_probes": 6, "basis_probes": 4}),
        ExpectedRow("absolutely_cesaro", "violated", "orbit of e_1 has norms (n+1)^alpha"),
    )
    return ZooEntry(
        "kreiss-fshift",
        f"forward shift with weights ((k+1)/k)^{alpha:g} on ell^2",
        spec,
        expected,
        "adjoint of the absolutely-Cesàro-bounded backward shift with the same exponent",
    )


def non_cesaro_backward_shift(p: float = 2.0) -> ZooEntry:
    if p < 1:
        raise ParameterError("p must be >= 1")
    spec = BackwardShift(NAT, PowerRatio(1.0 / p, 0))
    expected = (ExpectedRow("cesaro_bounded", "violated", "flat-window vectors force log growth",
                            {"n_max": 2**14, "seeded_probes": 4, "basis_probes": 4}),)
    return ZooEntry(
        "noncesaro-bshift",
        f"backward shift with weights (j/(j-1))^(1/{p:g}) on ell^{p:g}",
        spec,
        expected,
        f"averaged-orbit norm squared >= c^{p:g} ln(n/2) with c = {non_cesaro_constant(p):.7f}",
    )


def two_isometry_embedding() -> ZooEntry:
    spec = DuplicatingShift()
    expected = (
        ExpectedRow("strict_order", "2", "squared orbit norms are exact linear polynomials"),
        ExpectedRow("cesaro_bounded", "violated", "averages accumulate the duplicated head",
                    {"n_max": 2**10, "seeded_probes": 4, "basis_probes": 4}),
    )
    return ZooEntry(
        "embed2iso",
        "first-coordinate duplicating shift (x1, x2, ...) -> (x1, x1, x2, ...)",
        spec,
        expected,
    )


def block_tz(inner: OperatorSpec, entry_id: str = "blocktz", description: str = "") -> ZooEntry:
    """BlockTZ entry; the Cesàro row is instantiated from a power probe of the inner operator."""
    spec: OperatorSpec = BlockTZ(inner)
    inner_pb = classify.power_bounded_probe(inner, ProbeConfig(n_max=512, basis_probes=6, seeded_probes=6))
    cb_expected = "bounded" if inner_pb.bounded() else "violated"
    expected = (
        ExpectedRow(
            "cesaro_bounded",
            cb_expected,
            "block averages stay bounded exactly when the inner operator is power bounded",
        ),
    )
    return ZooEntry(entry_id, description or "block operator [[T, T-I], [0, T]]", spec, expected)


def _blocktz_bilateral_entry() -> ZooEntry:
    inner = BilateralShift(Explicit((), 1.0))
    base = block_tz(inner, "blocktz-bilateral", "block operator over the unweighted bilateral shift")
    expected = base.expected + (
        ExpectedRow("weak_ergodic", "converged", "paired averages decay like 1/n"),
        ExpectedRow("strict_order", "3", "isometry plus commuting nilpotent of order 2"),
        ExpectedRow("covariance_kernel", "kernel_witness", "top-slot vectors have flat orbits"),
    )
    return ZooEntry(base.entry_id, base.description, base.spec, expected, base.notes)


def _blocktz_nilpotent_entry() -> ZooEntry:
    inner = FiniteMatrix(((1.0, 1.0), (0.0, 1.0)))  # identity + nilpotent of order 2
    matrix = FiniteMatrix(tuple(tuple(row) for row in to_matrix(BlockTZ(inner)).tolist()))
    expected = (
        ExpectedRow("strict_order", "3", "inner nilpotency order 2 doubles to order 3"),
        ExpectedRow("cesaro_bounded", "violated", "inner operator is not power bounded"),
    )
    return ZooEntry(
        "blocktz-nilpotent",
        "block operator over I + (order-2 nilpotent), realized as a 4x4 matrix",
        matrix,
        expected,
    )


def diag_nilpotent_3isometry(
    dim: int = 4,
    ell: int = 2,
    lam1: complex = RATIONALLY_INDEPENDENT[0],
    lam2: complex = RATIONALLY_INDEPENDENT[1],
) -> ZooEntry:
    spec = DiagPlusNilpotent(dim, ell, lam1, lam2)
    expected = [
        ExpectedRow("strict_order", str(2 * ell - 1), "chain length ell gives nilpotency order ell"),
        ExpectedRow("coverage_increasing", "increasing", "pairing orbit keeps hitting new grid cells"),
    ]
    if dim == 4 and ell == 2:
        expected.append(
            ExpectedRow("cesaro_bounded", "bounded", "both 2x2 blocks average boundedly")
        )
    return ZooEntry(
        "hyper4" if (dim, ell) == (4, 2) else f"diagnilp-{dim}-{ell}",
        f"diagonal-plus-nilpotent construction on C^{dim} with chain length {ell}",
        spec,
        tuple(expected),
    )


def rotation_control() -> ZooEntry:
    spec = Diagonal(FiniteRange(4), RATIONALLY_INDEPENDENT[0])
    expected = (
        ExpectedRow("power_bounded", "bounded", "unitary diagonal"),
        ExpectedRow("strict_order", "1", "norms are preserved exactly"),
    )
    return ZooEntry(
        "rotation",
        "unitary diagonal rotation (control operator for coverage probes)",
        spec,
        expected,
    )


ENTRIES = {  # zoo id -> constructor at the default parameters
    "assani": assani, "lambda-block": lambda_block, "acb-bshift": acb_backward_shift,
    "kreiss-fshift": forward_kreiss_shift, "noncesaro-bshift": non_cesaro_backward_shift,
    "embed2iso": two_isometry_embedding, "blocktz-bilateral": _blocktz_bilateral_entry,
    "blocktz-nilpotent": _blocktz_nilpotent_entry, "hyper4": diag_nilpotent_3isometry, "rotation": rotation_control,
}


def all_entries() -> list[ZooEntry]:
    return [make() for make in ENTRIES.values()]


def get_entry(entry_id: str) -> ZooEntry:
    if entry_id not in ENTRIES:
        raise KeyError(f"no zoo entry named {entry_id!r}")
    return ENTRIES[entry_id]()


# ---------------------------------------------------------------------------
# the probe registry, shared by `classify` and the expected tables


MEAN_N = 2**14  # mean-ergodic ladder length, for `classify`, `probe ergodic` and the tables


@dataclass(frozen=True)
class Profile:
    """What a probe reads besides the operator: probe settings and the weak-ergodic ladder length.

    ``Profile(cfg)`` is the command-line profile; ``Profile.table(seed)`` is
    the one the expected tables run on.  Its weak ladder goes to 2^24: at
    2^20 the blocktz-bilateral family still reads ``inconclusive``.
    """

    cfg: ProbeConfig
    weak_n: int = 2**20

    @classmethod
    def table(cls, seed: int) -> Profile:
        return cls(ProbeConfig(basis_probes=8, seeded_probes=8, seed=seed), weak_n=2**24)


KREISS_DELTAS = tuple(2.0**-k for k in range(3, 17))


@dataclass(frozen=True)
class Probe:
    """A report name, its ``--probes`` token (None: expected tables only) and
    ``run(spec, profile) -> (report result, table status)``."""

    name: str
    token: str | None
    run: Callable[[OperatorSpec, Profile], tuple[dict, str]]


def _verdict(v) -> tuple[dict, str]:
    """A verdict's report result and table status; a class verdict within its bound reads ``bounded``."""
    return v.to_dict(), "bounded" if isinstance(v, classify.ClassVerdict) and v.bounded() else v.status


def _ergodic(mode: str):
    def run(spec: OperatorSpec, prof: Profile) -> tuple[dict, str]:
        n_max = MEAN_N if mode == "mean" else prof.weak_n
        overall, results = dynamics.ergodic_family(spec, mode, n_max, prof.cfg.seed)
        details = [{"vector": label, "status": v.status, "final_gap": v.final_gap} for label, v in results]
        return {"status": overall, "probes": details}, overall

    return run


def _strict_order(spec: OperatorSpec, prof: Profile) -> tuple[dict, str]:
    order = isometry.strict_order(spec, 8, prof.cfg)
    return {"strict_order": order}, "none" if order is None else str(order)


def _mixing(spec: OperatorSpec, prof: Profile) -> tuple[dict, str]:
    if not isinstance(spec, BackwardShift):
        raise ParameterError("mixing probe needs a backward shift operator")
    return _verdict(dynamics.mixing_criterion_backward_shift(spec.rule))


def _coverage(spec: OperatorSpec, prof: Profile) -> tuple[dict, str]:
    w = dynamics.balanced_witness(spec, prof.cfg.seed)
    counts = [len(dynamics.hypercyclicity_probe(spec, w, w, n).hits) for n in (2**7, 2**10, 2**13)]
    status = "increasing" if counts[0] < counts[1] < counts[2] else "stalled"
    return {"status": status, "hit_counts": counts}, status


# Module functions are looked up at call time, so wrappers installed on them are seen.
PROBES = {
    probe.name: probe
    for probe in (
        Probe("absolutely_cesaro", "acb", lambda s, pr: _verdict(classify.acb_constant(s, pr.cfg))),
        Probe("uniformly_kreiss", "uk", lambda s, pr: _verdict(classify.uniform_kreiss_probe(s, pr.cfg))),
        Probe("power_bounded", "pb", lambda s, pr: _verdict(classify.power_bounded_probe(s, pr.cfg))),
        Probe("cesaro_bounded", "cb", lambda s, pr: _verdict(classify.cesaro_bounded_probe(s, pr.cfg))),
        Probe("kreiss", "kreiss", lambda s, pr: _verdict(classify.kreiss_resolvent_constant(s, KREISS_DELTAS))),
        Probe("strongly_kreiss", "sk", lambda s, pr: _verdict(classify.strong_kreiss_exp_probe(s))),
        Probe("mean_ergodic", "me", _ergodic("mean")),
        Probe("weak_ergodic", "we", _ergodic("weak")),
        Probe("strict_order", None, _strict_order),
        Probe("mixing", None, _mixing),
        Probe("covariance_kernel", None, lambda s, pr: _verdict(isometry.covariance_injectivity_probe(s))),
        Probe("coverage_increasing", None, _coverage),
    )
}
TOKENS = {probe.token: probe for probe in PROBES.values() if probe.token}


def verify_entry(entry: ZooEntry, seed: int = DEFAULT_SEED) -> list[RowCheck]:
    """Run every expected-table row on the table profile, with the row's overrides, and report matches."""
    table = Profile.table(seed)
    checks = []
    for row in entry.expected:
        profile = replace(table, cfg=replace(table.cfg, **row.overrides))
        _, actual = PROBES[row.probe].run(entry.spec, profile)
        checks.append(RowCheck(row, actual, actual == row.expected))
    return checks
