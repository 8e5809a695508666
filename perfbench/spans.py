"""Span tracing by attribute replacement, for the traced benchmark run.

`Tracer.install` replaces public callables of the stablegap modules (and
`numpy.linalg.eigh`) with wrappers that record a span per call and counts at
the same boundary; `Tracer.uninstall` puts every original object back. A
function imported by name into several modules (for example
`eigensolver.solve_spectrum`, also bound as `cli.solve_spectrum`) is replaced
in each of them, so every call site is seen. Nothing under `src/` is edited.

Spans are recorded only while an operation is open (`Tracer.operation`), so
the benchmark's own correctness checks, which call the same library, do not
count as workload work.
"""

from __future__ import annotations

import contextlib
import inspect
import sys
import time
from collections import Counter, defaultdict

import numpy as np

_clock = time.perf_counter


def _points(x, dim):
    return np.size(x) // dim


def _contains_counts(args, kwargs, out):
    dom, x = args[0], args[1] if len(args) > 1 else kwargs["x"]
    return {"geometry.contains_calls": 1,
            "geometry.contains_points": _points(x, dom.dim)}


def _subordinator_counts(args, kwargs, out):
    return {"kernels.subordinator_draws": int(np.size(out))}


def _mode_transform_counts(args, kwargs, out):
    return {"eigensolver.mode_transform_evals": int(np.size(out))}


def _eigh_counts(args, kwargs, out):
    n = int(np.shape(args[0])[-1])
    return {"eigensolver.eigh_calls": 1, "eigensolver.eigh_n3": n**3}


def _basis_eval_counts(args, kwargs, out):
    basis, x = args[0], args[2] if len(args) > 2 else kwargs["x"]
    return {"eigensolver.basis_eval_points": _points(x, basis.domain.dim)}


def _wofz_counts(args, kwargs, out):
    return {"steklov.wofz_calls": 1, "steklov.wofz_evals": int(np.size(args[0]))}


def _engine_values_counts(args, kwargs, out):
    # out has shape (rows, points..., times)
    return {"steklov.engine_values_calls": 1, "steklov.engine_points": int(np.size(out))}


def _calls(name):
    return lambda args, kwargs, out: {name: 1}


def targets():
    """(owner, attribute, span name, count function) for every wrapped callable.

    Owners are modules or classes; a module-level function is also replaced in
    every other stablegap module that holds the same object.
    """
    import stablegap.bounds as bounds
    import stablegap.cli as cli
    import stablegap.eigensolver as eigensolver
    import stablegap.geometry as geometry
    import stablegap.kernels as kernels
    import stablegap.montecarlo as montecarlo
    import stablegap.poincare as poincare
    import stablegap.steklov as steklov

    return [
        (geometry.Domain, "contains", "geometry.contains", _contains_counts),
        (kernels, "sample_subordinator_increment", "kernels.subordinator",
         _subordinator_counts),
        (kernels, "subordination_grid", "kernels.subordination_grid", None),
        (eigensolver, "solve_spectrum", "eigensolver.solve",
         _calls("eigensolver.solve_calls")),
        (eigensolver, "assemble_form_matrix", "eigensolver.assemble", None),
        (eigensolver, "basis_mode_transform", "eigensolver.mode_transform",
         _mode_transform_counts),
        (np.linalg, "eigh", "eigensolver.eigh", _eigh_counts),
        (eigensolver, "evaluate_basis_sum", "eigensolver.basis_eval", _basis_eval_counts),
        (steklov, "wofz", "steklov.wofz", _wofz_counts),
        (steklov, "smoothed_sine_mode", "steklov.sine_mode", None),
        (steklov.ExtensionEngine, "__init__", "steklov.engine_build",
         _calls("steklov.engine_builds")),
        (steklov.ExtensionEngine, "values", "steklov.engine_values", _engine_values_counts),
        (steklov, "q_functional", "steklov.q_functional", None),
        (steklov, "d01_lower_bound_check", "steklov.d01", None),
        (steklov, "gap_identity_check", "steklov.gap_identity", None),
        (poincare, "ground_state_weight", "poincare.ground_state_weight", None),
        (poincare, "min_antisymmetric_quotient", "poincare.min_quotient", None),
        (montecarlo, "simulate_skeleton", "montecarlo.skeleton", None),
        (bounds, "build_report", "bounds.build_report", None),
        (bounds, "bessel_zero", "bounds.bessel_zero", _calls("bounds.bessel_zero_calls")),
        (cli, "main", "cli", None),
    ]


class Tracer:
    """In-memory spans and counts for one workload, recorded at wrapped calls."""

    def __init__(self, workload):
        self.workload = workload
        self.spans = []  # [id, name, start, end, parent id, op id, counts]
        self.counts = Counter()
        self._stack = []
        self._op = None
        self._saved = []  # (owner, attribute, original object)

    # ---------------- installation ----------------

    def install(self):
        for owner, attr, name, count in targets():
            original = owner.__dict__[attr]
            wrapper = self._wrap(original, name, count)
            self._replace(owner, attr, original, wrapper)
            if inspect.ismodule(owner):
                for mod in _package_modules():
                    if mod is not owner and mod.__dict__.get(attr) is original:
                        self._replace(mod, attr, original, wrapper)

    def _replace(self, owner, attr, original, wrapper):
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @staticmethod
    def originals():
        """{(owner, attribute): object} for every wrapped site, read now."""
        out = {}
        for owner, attr, _, _ in targets():
            out[(owner, attr)] = owner.__dict__[attr]
            if inspect.ismodule(owner):
                for mod in _package_modules():
                    if attr in mod.__dict__:
                        out[(mod, attr)] = mod.__dict__[attr]
        return out

    def _wrap(self, fn, name, count):
        def wrapper(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            label = name
            if name == "cli":  # one span name per subcommand
                argv = args[0] if args else kwargs["argv"]
                label = "cli." + argv[0].replace("-", "_")
            parent = self._stack[-1] if self._stack else None
            rec = [len(self.spans), label, _clock(), None, parent, self._op, None]
            self.spans.append(rec)
            self._stack.append(rec[0])
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[3] = _clock()
                self._stack.pop()
            if count is not None:
                rec[6] = count(args, kwargs, out)
                self.counts.update(rec[6])
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    @contextlib.contextmanager
    def operation(self, op_id):
        self._op = op_id
        try:
            yield
        finally:
            self._op = None

    # ---------------- reduction ----------------

    def span_records(self):
        return [
            {"id": s[0], "name": s[1], "start": s[2], "end": s[3], "parent": s[4],
             "workload": self.workload, "op": s[5], "counts": s[6]}
            for s in self.spans
        ]

    def layer_metrics(self):
        """Per-layer totals: time per span name (outermost spans only), self
        time (duration minus the durations of direct children), and counts."""
        dur = [s[3] - s[2] for s in self.spans]
        child = [0.0] * len(self.spans)
        for s, d in zip(self.spans, dur):
            if s[4] is not None:
                child[s[4]] += d
        total = defaultdict(float)
        self_time = defaultdict(float)
        for s, d, c in zip(self.spans, dur, child):
            if not self._has_ancestor(s, s[1]):
                total[s[1]] += d
            self_time[s[1]] += d - c
        m = {}
        c = self.counts
        m["geometry.contains_calls"] = c["geometry.contains_calls"]
        m["geometry.contains_points"] = c["geometry.contains_points"]
        m["geometry.contains_s"] = total["geometry.contains"]
        m["kernels.subordinator_draws"] = c["kernels.subordinator_draws"]
        m["kernels.subordinator_s"] = total["kernels.subordinator"]
        m["kernels.subordination_grid_s"] = total["kernels.subordination_grid"]
        m["eigensolver.solve_calls"] = c["eigensolver.solve_calls"]
        m["eigensolver.solve_s"] = total["eigensolver.solve"]
        m["eigensolver.solve_self_s"] = self_time["eigensolver.solve"]
        m["eigensolver.assemble_s"] = total["eigensolver.assemble"]
        m["eigensolver.mode_transform_evals"] = c["eigensolver.mode_transform_evals"]
        m["eigensolver.mode_transform_s"] = total["eigensolver.mode_transform"]
        m["eigensolver.eigh_calls"] = c["eigensolver.eigh_calls"]
        m["eigensolver.eigh_s"] = total["eigensolver.eigh"]
        m["eigensolver.eigh_n3"] = c["eigensolver.eigh_n3"]
        m["eigensolver.basis_eval_points"] = c["eigensolver.basis_eval_points"]
        m["eigensolver.basis_eval_s"] = total["eigensolver.basis_eval"]
        m["steklov.wofz_calls"] = c["steklov.wofz_calls"]
        m["steklov.wofz_evals"] = c["steklov.wofz_evals"]
        m["steklov.wofz_s"] = total["steklov.wofz"]
        m["steklov.sine_mode_s"] = total["steklov.sine_mode"]
        m["steklov.engine_builds"] = c["steklov.engine_builds"]
        m["steklov.engine_values_calls"] = c["steklov.engine_values_calls"]
        m["steklov.engine_points"] = c["steklov.engine_points"]
        m["steklov.engine_values_s"] = total["steklov.engine_values"]
        m["steklov.q_functional_self_s"] = self_time["steklov.q_functional"]
        m["steklov.d01_s"] = total["steklov.d01"]
        m["steklov.gap_identity_s"] = total["steklov.gap_identity"]
        m["poincare.ground_state_weight_s"] = total["poincare.ground_state_weight"]
        m["poincare.min_quotient_s"] = total["poincare.min_quotient"]
        steps, path_steps = self._skeleton_draws()
        m["montecarlo.skeleton_s"] = total["montecarlo.skeleton"]
        m["montecarlo.skeleton_self_s"] = self_time["montecarlo.skeleton"]
        m["montecarlo.steps"] = steps
        m["montecarlo.path_steps"] = path_steps
        m["montecarlo.ns_per_path_step"] = (
            1e9 * total["montecarlo.skeleton"] / path_steps if path_steps else 0.0
        )
        m["bounds.build_report_s"] = total["bounds.build_report"]
        m["bounds.bessel_zero_calls"] = c["bounds.bessel_zero_calls"]
        for sub in ("eig", "report", "gap_check"):
            m[f"cli.{sub}_s"] = total[f"cli.{sub}"]
        m["cli.self_s"] = sum(v for k, v in self_time.items() if k.startswith("cli."))
        return m

    def _has_ancestor(self, span, name):
        p = span[4]
        while p is not None:
            if self.spans[p][1] == name:
                return True
            p = self.spans[p][4]
        return False

    def _skeleton_draws(self):
        """Sampler calls and sizes drawn directly inside skeleton spans: one call
        per time step, one draw per live path."""
        skel = {s[0] for s in self.spans if s[1] == "montecarlo.skeleton"}
        inner = [s for s in self.spans if s[1] == "kernels.subordinator" and s[4] in skel]
        return len(inner), sum(s[6]["kernels.subordinator_draws"] for s in inner)


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "stablegap" or name.startswith("stablegap."))]

