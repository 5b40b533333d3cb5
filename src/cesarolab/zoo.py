"""Named constructors for the package's concrete operators.

Every entry carries an expected-properties table (probe name, expected
verdict, one-line claim) that the acceptance suite and the CLI replay at
desk scale.  Defaults follow the Hilbert-space setting (p = 2) and the
4-dimensional diagonal-plus-nilpotent construction with chain length 2.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

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
    to_matrix,
)
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
    "verify_entry",
]

# e^i and e^(i*sqrt(2)): pi, 1, sqrt(2) are rationally independent.
RATIONALLY_INDEPENDENT = (cmath.exp(1j), cmath.exp(1j * math.sqrt(2.0)))


@dataclass(frozen=True)
class ExpectedRow:
    probe: str
    expected: str
    claim: str


@dataclass(frozen=True)
class ZooEntry:
    entry_id: str
    description: str
    spec: OperatorSpec
    expected: tuple[ExpectedRow, ...]
    notes: str = ""

    def to_dict(self) -> dict:
        from .core import describe

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
        ExpectedRow("uniformly_kreiss", "bounded", "unimodular-averaged powers stay bounded"),
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
    expected = (ExpectedRow("cesaro_bounded", "violated", "flat-window vectors force log growth"),)
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
        ExpectedRow("cesaro_bounded", "violated", "averages accumulate the duplicated head"),
    )
    return ZooEntry(
        "embed2iso",
        "first-coordinate duplicating shift (x1, x2, ...) -> (x1, x1, x2, ...)",
        spec,
        expected,
    )


def block_tz(inner: OperatorSpec, entry_id: str = "blocktz", description: str = "") -> ZooEntry:
    """BlockTZ entry; the Cesàro row is instantiated from a power probe of the inner operator."""
    from .classify import power_bounded_probe

    spec: OperatorSpec = BlockTZ(inner)
    inner_pb = power_bounded_probe(inner, ProbeConfig(n_max=512, basis_probes=6, seeded_probes=6))
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


def all_entries() -> list[ZooEntry]:
    return [
        assani(),
        lambda_block(),
        acb_backward_shift(),
        forward_kreiss_shift(),
        non_cesaro_backward_shift(),
        two_isometry_embedding(),
        _blocktz_bilateral_entry(),
        _blocktz_nilpotent_entry(),
        diag_nilpotent_3isometry(),
        rotation_control(),
    ]


def get_entry(entry_id: str) -> ZooEntry:
    for entry in all_entries():
        if entry.entry_id == entry_id:
            return entry
    raise KeyError(f"no zoo entry named {entry_id!r}")


# ---------------------------------------------------------------------------
# expected-table verification


_PROFILES: dict[tuple[str, str], dict] = {
    ("noncesaro-bshift", "cesaro_bounded"): {"n_max": 2**14, "seeded_probes": 4, "basis_probes": 4},
    ("kreiss-fshift", "uniformly_kreiss"): {"n_max": 2**10, "seeded_probes": 6, "basis_probes": 4},
    ("embed2iso", "cesaro_bounded"): {"n_max": 2**10, "seeded_probes": 4, "basis_probes": 4},
}


def _probe_cfg(entry_id: str, probe: str, seed: int) -> ProbeConfig:
    kwargs = {"n_max": 1024, "basis_probes": 8, "seeded_probes": 8, "seed": seed}
    kwargs.update(_PROFILES.get((entry_id, probe), {}))
    return ProbeConfig(**kwargs)


def _run_probe(entry: ZooEntry, probe: str, seed: int) -> str:
    from . import classify, dynamics, isometry

    spec = entry.spec
    cfg = _probe_cfg(entry.entry_id, probe, seed)
    boundedness = {
        "power_bounded": classify.power_bounded_probe,
        "cesaro_bounded": classify.cesaro_bounded_probe,
        "absolutely_cesaro": classify.acb_constant,
        "uniformly_kreiss": classify.uniform_kreiss_probe,
    }
    if probe in boundedness:
        v = boundedness[probe](spec, cfg)
        return "bounded" if v.bounded() else v.status
    if probe == "strict_order":
        order = isometry.strict_order(spec, 8, cfg)
        return "none" if order is None else str(order)
    if probe == "mean_ergodic":
        return dynamics.ergodic_family(spec, "mean", 2**14, seed)[0]
    if probe == "weak_ergodic":
        return dynamics.ergodic_family(spec, "weak", 2**24, seed)[0]
    if probe == "mixing":
        if not isinstance(spec, BackwardShift):
            raise ParameterError("mixing probe applies to backward shifts")
        return dynamics.mixing_criterion_backward_shift(spec.rule).status
    if probe == "covariance_kernel":
        return isometry.covariance_injectivity_probe(spec).status
    if probe == "coverage_increasing":
        from .dynamics import balanced_witness, hypercyclicity_probe

        w = balanced_witness(spec, seed)
        counts = [len(hypercyclicity_probe(spec, w, w, n).hits) for n in (2**7, 2**10, 2**13)]
        return "increasing" if counts[0] < counts[1] < counts[2] else "stalled"
    raise ParameterError(f"unknown probe {probe!r} in expected table")


def verify_entry(entry: ZooEntry, seed: int = DEFAULT_SEED) -> list[RowCheck]:
    """Run every expected-table row at desk scale and report matches."""
    checks = []
    for row in entry.expected:
        actual = _run_probe(entry, row.probe, seed)
        checks.append(RowCheck(row, actual, actual == row.expected))
    return checks
