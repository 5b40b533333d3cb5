"""m-isometry defect identity, orbit-square polynomial structure, covariance form.

An operator is an m-isometry when the alternating binomial sum of squared
orbit norms vanishes for every vector; equivalently n -> ||T^n x||^2 is a
polynomial of degree at most m-1.  Both characterizations are implemented
as independent code paths (binomial sum vs. iterated forward differences)
and cross-checked in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    NAT,
    AllIntegers,
    BackwardShift,
    BilateralShift,
    DomainError,
    ForwardShift,
    OperatorSpec,
    ParameterError,
    PolyRatio,
    Polynomial,
)
from .classify import ProbeConfig, probe_vectors
from .powers import orbit_norms

__all__ = [
    "IsometryReport",
    "CovarianceProbe",
    "IndeterminateDegreeError",
    "defect",
    "defect_via_differences",
    "is_m_isometry",
    "isometry_table",
    "strict_order",
    "norm_square_degree",
    "detect_degree",
    "shift_from_polynomial",
    "covariance_form",
    "covariance_injectivity_probe",
]

DEGREE_WINDOW_DEFAULT = 32
DEGREE_WINDOW_CAP = 512
DEGREE_TOL = 1e-8


class IndeterminateDegreeError(ValueError):
    """No stable difference order found inside the window; enlarge it."""


@dataclass(frozen=True)
class IsometryReport:
    """Probe outcome for a single isometry order m."""

    m_tested: int
    passed: bool
    max_defect: float
    scale: float
    witness: str | None = None


@dataclass(frozen=True)
class CovarianceProbe:
    """Outcome of the covariance-form injectivity probe."""

    status: str  # "injective_evidence" | "kernel_witness"
    witness: str | None
    forms: tuple[tuple[str, float], ...]

    def to_dict(self) -> dict:
        return {"status": self.status, "witness": self.witness, "forms": [list(f) for f in self.forms]}


def _orbit_squares(spec: OperatorSpec, x, upto: int) -> list[float]:
    seq = orbit_norms(spec, x, 2, upto)
    return [v * v for v in seq.values()]


def defect(spec: OperatorSpec, x, m: int) -> float:
    """sum_{k<=m} (-1)^(m-k) C(m,k) ||T^k x||^2 (the m-isometry defect at x)."""
    if m < 1:
        raise ParameterError("m must be >= 1")
    squares = _orbit_squares(spec, x, m)
    total = 0.0
    comp = 0.0
    for k, s in enumerate(squares):
        term = ((-1.0) ** (m - k)) * math.comb(m, k) * s
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return total


def defect_via_differences(spec: OperatorSpec, x, m: int) -> float:
    """Same quantity as the m-th forward difference of k -> ||T^k x||^2 at 0."""
    if m < 1:
        raise ParameterError("m must be >= 1")
    squares = np.array(_orbit_squares(spec, x, m))
    return float(np.diff(squares, n=m)[0])


def isometry_table(spec: OperatorSpec, m_max: int, cfg: ProbeConfig | None = None) -> list[IsometryReport]:
    """The is_m_isometry reports for m = 1..m_max, from each probe vector's orbit squares up to m_max."""
    if m_max < 1:
        raise ParameterError(f"isometry order must be >= 1, got {m_max}")
    cfg = cfg or ProbeConfig()
    squares = [(label, _orbit_squares(spec, x, m_max)) for label, x in probe_vectors(spec, cfg)]
    return [_report(m, squares, cfg.tolerance) for m in range(1, m_max + 1)]


def _report(m: int, squares: list[tuple[str, list[float]]], tolerance: float) -> IsometryReport:
    """The order-m report from (label, orbit squares up to at least m) of each probe vector.

    A failing row reports the vector with the worst relative defect.  In a
    passing row every defect is rounding noise about 0, so it reports the
    family's largest |defect|, and the scale and label of the vector with the
    largest scale (the first on ties), which a last-bit change cannot move.
    """
    worst = 0.0
    worst_rel = 0.0
    worst_label = None
    worst_scale = 1.0
    largest, top_label, top_scale = 0.0, None, 1.0
    for label, sq in squares:
        sq = sq[: m + 1]
        d = sum(((-1.0) ** (m - k)) * math.comb(m, k) * s for k, s in enumerate(sq))
        scale = max(sq)
        rel = abs(d) / max(scale, 1e-300)
        largest = max(largest, abs(d))
        if top_label is None or scale > top_scale:
            top_label, top_scale = label, scale
        if rel > worst_rel:
            worst_rel = rel
            worst = abs(d)
            worst_label = label
            worst_scale = scale
    if worst_rel < tolerance:
        return IsometryReport(m, True, largest, top_scale, top_label)
    return IsometryReport(m, False, worst, worst_scale, worst_label)


def is_m_isometry(spec: OperatorSpec, m: int, cfg: ProbeConfig | None = None) -> IsometryReport:
    """Max |defect| over the probe family; passes when below tolerance * scale."""
    return isometry_table(spec, m, cfg)[-1]


def strict_order(spec: OperatorSpec, m_max: int, cfg: ProbeConfig | None = None) -> int | None:
    """Smallest m <= m_max passing the isometry probe; None when there is none.

    Minimality supplies the strictness witness: the (m-1) probe failed on some
    vector, and m-isometries are automatically (m+1)-isometries.
    """
    return next((r.m_tested for r in isometry_table(spec, m_max, cfg) if r.passed), None)


def _difference_degree(squares: np.ndarray) -> int | None:
    """Degree of the polynomial fitting the sequence, None if indeterminate."""
    scale = float(np.max(np.abs(squares)))
    if scale == 0.0:
        return -1
    level = squares
    for d in range(len(squares)):
        if float(np.max(np.abs(level))) <= DEGREE_TOL * scale:
            return d - 1
        if len(level) < 2:
            return None
        level = np.diff(level)
    return None


def norm_square_degree(spec: OperatorSpec, x, window: int = DEGREE_WINDOW_DEFAULT) -> int:
    """Detected polynomial degree of n -> ||T^n x||^2 over n = 0..window.

    Returns -1 for the zero sequence; raises IndeterminateDegreeError when no
    difference order stabilizes inside the window.
    """
    if window < 8:
        raise ParameterError("window must be >= 8")
    squares = np.array(_orbit_squares(spec, x, window))
    degree = _difference_degree(squares)
    if degree is None:
        raise IndeterminateDegreeError(
            f"no stable degree within window {window}; enlarge the window"
        )
    return degree


def detect_degree(spec: OperatorSpec, x, window: int = DEGREE_WINDOW_DEFAULT) -> int:
    """norm_square_degree with the window doubled on indeterminacy (cap 512)."""
    while True:
        try:
            return norm_square_degree(spec, x, window)
        except IndeterminateDegreeError:
            if window >= DEGREE_WINDOW_CAP:
                raise
            window = min(2 * window, DEGREE_WINDOW_CAP)


def shift_from_polynomial(p: Polynomial, direction: str = "forward", universe=NAT) -> OperatorSpec:
    """Weighted shift with weight(k)^2 = p(k+1)/p(k); p must stay positive."""
    rule = PolyRatio(p)
    if isinstance(universe, AllIntegers):
        return BilateralShift(rule, forward=(direction == "forward"))
    if direction == "forward":
        return ForwardShift(universe, rule)
    if direction == "backward":
        return BackwardShift(universe, rule)
    raise ParameterError(f"direction must be 'forward' or 'backward', got {direction!r}")


def covariance_form(spec: OperatorSpec, x) -> float:
    """Leading coefficient of the degree-<=2 polynomial n -> ||T^n x||^2.

    Computed as half the second forward difference at 0, which equals
    lim ||T^n x||^2 / n^2 on quadratic orbits.
    """
    degree = detect_degree(spec, x)
    if degree > 2:
        raise DomainError(f"orbit square degree {degree} exceeds 2; not a 3-isometry direction")
    squares = _orbit_squares(spec, x, 2)
    return (squares[2] - 2.0 * squares[1] + squares[0]) / 2.0


def covariance_injectivity_probe(spec: OperatorSpec, basis_count: int = 8, tolerance: float = 1e-9) -> CovarianceProbe:
    """Search basis probes for a vanishing covariance form (kernel witness)."""
    cfg = ProbeConfig(basis_probes=basis_count, seeded_probes=0)
    forms = []
    for label, x in probe_vectors(spec, cfg):
        forms.append((label, covariance_form(spec, x)))
    scale = max((abs(v) for _, v in forms), default=0.0)
    threshold = tolerance * max(scale, 1.0)
    for label, value in forms:
        if abs(value) <= threshold:
            return CovarianceProbe("kernel_witness", label, tuple(forms))
    return CovarianceProbe("injective_evidence", None, tuple(forms))
