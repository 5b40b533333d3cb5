"""Span tracer that wraps cesarolab's public functions from outside the package.

Every wrapped call opens a span (name, start, end, parent, job id).  A span's
self time is its duration minus the time covered by its child spans.  Calls
on hot paths (orbit steps, `core.apply`, `core.weight_product`) are counted
and timed but not stored one by one, so a traced pass keeps a bounded list of
spans in memory; it is written out once the run ends.

The tracer patches every binding of a wrapped function inside the loaded
`cesarolab` modules, because `classify`, `dynamics` and `isometry` import
several functions by name.  Orbit engines are traced by wrapping `.step` on
each orbit that `make_orbit` returns, keyed by the orbit's class name.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (module, attribute, span name, stored).  A missing attribute is skipped, so
# a later refactor that removes a function leaves its counters at zero.
TARGETS = (
    ("cli", "main", "cli.main", True),
    ("zoo", "all_entries", "zoo.all_entries", True),
    ("zoo", "verify_entry", "zoo.verify_entry", True),
    ("classify", "probe_vectors", "classify.probe_vectors", True),
    ("classify", "power_bounded_probe", "classify.power_bounded_probe", True),
    ("classify", "cesaro_bounded_probe", "classify.cesaro_bounded_probe", True),
    ("classify", "uniform_kreiss_probe", "classify.uniform_kreiss_probe", True),
    ("classify", "acb_constant", "classify.acb_constant", True),
    ("classify", "kreiss_resolvent_constant", "classify.kreiss_resolvent_constant", True),
    ("classify", "strong_kreiss_exp_probe", "classify.strong_kreiss_exp_probe", True),
    ("powers", "power_norm_exact", "powers.power_norm_exact", True),
    ("powers", "power_apply", "powers.power_apply", True),
    ("powers", "orbit_norms", "powers.orbit_norms", True),
    ("powers", "cesaro_apply", "powers.cesaro_apply", True),
    ("powers", "cesaro_operator_norm_sweep", "powers.cesaro_operator_norm_sweep", True),
    ("powers", "matrix_exponential", "powers.matrix_exponential", True),
    ("powers", "largest_singular_value", "powers.sigma", False),
    ("powers", "SigmaMaxTracker.value", "powers.sigma", False),
    ("isometry", "is_m_isometry", "isometry.is_m_isometry", True),
    ("isometry", "strict_order", "isometry.strict_order", True),
    ("dynamics", "mean_ergodic_probe", "dynamics.mean_ergodic_probe", True),
    ("dynamics", "weak_ergodic_probe", "dynamics.weak_ergodic_probe", True),
    ("dynamics", "hypercyclicity_probe", "dynamics.hypercyclicity_probe", True),
    ("dynamics", "balanced_witness", "dynamics.balanced_witness", True),
    ("dynamics", "mixing_criterion_backward_shift", "dynamics.mixing_criterion_backward_shift", True),
    ("dynamics", "chaos_criterion_shift_adjoint", "dynamics.chaos_criterion_shift_adjoint", True),
    ("isometry", "detect_degree", "isometry.detect_degree", True),
    ("isometry", "covariance_injectivity_probe", "isometry.covariance_injectivity_probe", True),
    ("core", "apply", "core.apply", False),
    ("core", "weight_product", "core.weight_product", False),
)

ENGINE_NAMES = {"_WindowOrbit": "window", "_MatrixOrbit": "matrix", "_SparseOrbit": "sparse"}


class _Stat:
    __slots__ = ("calls", "self_s")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0


class Tracer:
    """Collects spans and per-name counters while installed."""

    def __init__(self) -> None:
        self.stats: dict[str, _Stat] = defaultdict(_Stat)
        self.spans: list[tuple] = []
        self.job_id = ""
        self.sup_scan_candidates = 0
        self._stack: list[list] = []  # [name, start, child_s, span_id]
        self._open: dict[str, int] = defaultdict(int)
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _enter(self, name: str) -> list:
        frame = [name, time.perf_counter(), 0.0, self._next_id]
        self._next_id += 1
        self._stack.append(frame)
        self._open[name] += 1
        return frame

    def _exit(self, frame: list, stored: bool) -> None:
        end = time.perf_counter()
        self._stack.pop()
        name, start, child_s, span_id = frame
        self._open[name] -= 1
        duration = end - start
        stat = self.stats[name]
        stat.calls += 1
        stat.self_s += duration - child_s
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += duration
        if stored:
            self.spans.append((self.job_id, span_id, parent[3] if parent else None, name, start, end))

    def job(self, job_id: str, fn):
        """Run fn() as the root span of one job."""
        self.job_id = job_id
        frame = self._enter("job")
        try:
            return fn()
        finally:
            self._exit(frame, True)

    # -- patching ----------------------------------------------------------

    def _wrap(self, original, name: str, stored: bool):
        tracer = self
        counts_candidates = name == "core.weight_product"

        def traced(*args, **kwargs):
            if counts_candidates and tracer._open["powers.power_norm_exact"]:
                tracer.sup_scan_candidates += 1
            frame = tracer._enter(name)
            try:
                return original(*args, **kwargs)
            finally:
                tracer._exit(frame, stored)

        return traced

    def _wrap_make_orbit(self, original):
        tracer = self

        def make_orbit(*args, **kwargs):
            orbit = original(*args, **kwargs)
            cls = type(orbit).__name__
            step_name = f"powers.orbit.{ENGINE_NAMES.get(cls, cls)}.step"
            step = orbit.step

            def traced_step():
                frame = tracer._enter(step_name)
                try:
                    return step()
                finally:
                    tracer._exit(frame, False)

            orbit.step = traced_step
            return orbit

        return make_orbit

    def _patch_everywhere(self, original, replacement) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "cesarolab" or mod_name.startswith("cesarolab.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, replacement)

    def install(self) -> None:
        for mod_name, attr, name, stored in TARGETS:
            mod = sys.modules.get(f"cesarolab.{mod_name}")
            owner_name, _, method = attr.partition(".")
            owner = getattr(mod, owner_name, None) if mod is not None else None
            if owner is None:
                continue
            if method:
                original = vars(owner).get(method)
                if original is None:
                    continue
                self._patches.append((owner, method, original))
                setattr(owner, method, self._wrap(original, name, stored))
            else:
                self._patch_everywhere(owner, self._wrap(owner, name, stored))
        powers = sys.modules.get("cesarolab.powers")
        original = getattr(powers, "make_orbit", None)
        if original is not None:
            self._patch_everywhere(original, self._wrap_make_orbit(original))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics: name -> (value, unit).

        Layers are the package's modules.  Each module's self time is the sum
        of the self times of its wrapped functions (orbit steps belong to
        `powers`); work done is counted per function and per orbit engine.
        """
        out: dict[str, tuple[float, str]] = {}

        def stat(name: str) -> _Stat:
            return self.stats.get(name) or _Stat()

        engines = sorted(set(ENGINE_NAMES.values()) | {n.split(".")[2] for n in self.stats if n.startswith("powers.orbit.")})
        for engine in engines:
            s = stat(f"powers.orbit.{engine}.step")
            out[f"powers.orbit.{engine}.steps"] = (s.calls, "count")
            out[f"powers.orbit.{engine}.step_s"] = (s.self_s, "s")
        out["powers.orbit.step_s"] = (sum(out[f"powers.orbit.{e}.step_s"][0] for e in engines), "s")
        for name in sorted({name for _, _, name, _ in TARGETS}):
            s = stat(name)
            out[f"{name}.calls"] = (s.calls, "count")
            out[f"{name}.self_s"] = (s.self_s, "s")
        for module in sorted({mod for mod, _, _, _ in TARGETS}):
            total = sum(s.self_s for name, s in self.stats.items() if name.startswith(module + "."))
            out[f"{module}.self_s"] = (total, "s")
        norms = stat("powers.power_norm_exact").calls
        out["powers.sup_scan.candidates_per_norm"] = (self.sup_scan_candidates / norms if norms else 0.0, "ratio")
        commands = stat("cli.main").calls
        out["zoo.builds_per_command"] = (stat("zoo.all_entries").calls / commands if commands else 0.0, "ratio")
        return out
