"""Per-layer tracing of choqint from outside the package.

``Tracer.install()`` replaces public functions of the package's modules by
wrappers that record a span (name, start, end, parent) per call, in every
module namespace that holds the function, and puts the originals back on
``uninstall()``.  Spans are kept in memory for one operation; ``collect()``
folds them into per-name totals (calls, inclusive time, self time) and the
derived counts the benchmark reports, then drops them.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

import numpy as np

#: the wrapped public callables of each module on the CLI's paths; a dotted
#: path is a method of a class in that module
TRACED = {
    "cli": ("main",),
    "report": ("RunReport.to_json_text", "RunReport.to_csv_text"),
    "exprlang": ("parse", "evaluate", "differentiate", "substitute"),
    "capacity": ("check_f_plus", "certify_samples", "Distortion.from_expression",
                 "distorted_capacity"),
    "quadrature": ("integrate", "composite_gauss_legendre", "graded_mesh"),
    "choquet": ("choquet_level_set", "choquet_convolution", "choquet_general",
                "check_hereditary", "shift_to_origin"),
    "laplace": ("forward_laplace", "invert_laplace", "solve_problem2", "solve_problem3"),
}

#: span names that differ from module.function
SPAN_NAMES = {
    "report.RunReport.to_json_text": "report.render",
    "report.RunReport.to_csv_text": "report.render",
    "capacity.Distortion.from_expression": "capacity.distortion",
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.outermost: list[bool] = []
        self.stack: list[int] = []
        self.points = 0
        self.lookups = 0
        self.transform_args: list = []
        self.totals: Counter = Counter()
        self.ops = 0
        self.seen_transforms: set = set()
        self._restore: list = []

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name: str, fn):
        names, starts, ends, parents = self.names, self.starts, self.ends, self.parents
        outermost, stack = self.outermost, self.stack
        clock = time.perf_counter
        depth = 0

        def traced(*args, **kwargs):
            nonlocal depth
            index = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            outermost.append(depth == 0)
            depth += 1
            stack.append(index)
            ends.append(0.0)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
                depth -= 1

        return traced

    def _special(self, name: str, fn):
        """Extra counts recorded at two of the wrappers."""
        if name == "exprlang.evaluate":
            def evaluate(expr, t):
                self.points += np.size(t)
                return fn(expr, t)
            return evaluate
        if name == "laplace.forward_laplace":
            def forward_laplace(h, s, *args, **kwargs):
                self.transform_args.append((h, s))
                return fn(h, s, *args, **kwargs)
            return forward_laplace
        return fn

    def _transform_of(self, fn):
        def transform_of(*args, **kwargs):
            lookup = fn(*args, **kwargs)

            def counted(s):
                self.lookups += 1
                return lookup(s)
            return counted
        return transform_of

    def install(self) -> None:
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "choqint" or key.startswith("choqint."))]
        replacements = []
        for module_name, paths in TRACED.items():
            module = sys.modules[f"choqint.{module_name}"]
            for path in paths:
                full = f"{module_name}.{path}"
                name = SPAN_NAMES.get(full, full)
                if "." in path:
                    cls_name, attr = path.split(".")
                    owner = getattr(module, cls_name)
                    raw = owner.__dict__[attr]
                    if isinstance(raw, classmethod):
                        wrapped = classmethod(self._wrap(name, raw.__func__))
                    else:
                        wrapped = self._wrap(name, raw)
                    self._restore.append((owner, attr, raw))
                    setattr(owner, attr, wrapped)
                    continue
                original = getattr(module, path)
                replacements.append((original, self._wrap(name, self._special(name, original))))
        laplace = sys.modules["choqint.laplace"]
        replacements.append((laplace.transform_of, self._transform_of(laplace.transform_of)))
        for original, wrapped in replacements:
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, attr, value))
                        setattr(module, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- aggregation ------------------------------------------------------

    def collect(self) -> None:
        """Fold the spans of one finished operation into the totals."""
        from choqint.exprlang import Expr, render

        names, parents = self.names, self.parents
        n = len(names)
        durations = [e - s for s, e in zip(self.starts, self.ends)]
        child_time = [0.0] * n
        integrate_time = defaultdict(float)
        under_level_set = [False] * n
        totals = self.totals
        for i in range(n):
            name, parent, d = names[i], parents[i], durations[i]
            totals[f"{name}.calls"] += 1
            if self.outermost[i]:
                totals[f"{name}.s"] += d
            if parent < 0:
                continue
            child_time[parent] += d
            parent_name = names[parent]
            if name == "quadrature.integrate":
                integrate_time[parent] += d
            under_level_set[i] = (under_level_set[parent]
                                  or parent_name == "choquet.choquet_level_set")
            if name == "exprlang.evaluate":
                if under_level_set[i]:
                    totals["choquet.level_set.evaluate_calls"] += 1
                if parent_name == "laplace.forward_laplace":
                    totals["laplace.truncation.evaluate_calls"] += 1
        for i in range(n):
            totals[f"{names[i]}.self_s"] += durations[i] - child_time[i]
            if names[i] == "laplace.forward_laplace":
                totals["laplace.truncation.s"] += durations[i] - integrate_time[i]

        totals["exprlang.evaluate.points"] += self.points
        totals["laplace.transform_lookups"] += self.lookups
        keys = [(render(h) if isinstance(h, Expr) else id(h), float(s))
                for h, s in self.transform_args]
        totals["laplace.repeated_transforms"] += sum(key in self.seen_transforms for key in keys)
        self.seen_transforms.update(keys)
        self.ops += 1

        for buffer in (self.names, self.starts, self.ends, self.parents,
                       self.outermost, self.transform_args):
            buffer.clear()
        self.points = 0
        self.lookups = 0

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as (value, unit): means per traced operation,
        and three ratios."""
        t = self.totals
        ops = max(self.ops, 1)
        transforms = t["laplace.forward_laplace.calls"]
        lookups = t["laplace.transform_lookups"]
        integrates = t["quadrature.integrate.calls"]
        solve_self = t["laplace.solve_problem2.self_s"] + t["laplace.solve_problem3.self_s"]
        per_op = {
            "cli.main.self_s": t["cli.main.self_s"],
            "report.render.s": t["report.render.s"],
            "exprlang.parse.calls": t["exprlang.parse.calls"],
            "exprlang.evaluate.calls": t["exprlang.evaluate.calls"],
            "exprlang.evaluate.points": t["exprlang.evaluate.points"],
            "exprlang.evaluate.s": t["exprlang.evaluate.s"],
            "capacity.check_f_plus.s": t["capacity.check_f_plus.s"],
            "capacity.distortion.s": t["capacity.distortion.s"],
            "capacity.certify.s": t["capacity.certify_samples.s"],
            "quadrature.integrate.calls": integrates,
            "quadrature.passes": t["quadrature.composite_gauss_legendre.calls"],
            "quadrature.pass.self_s": t["quadrature.composite_gauss_legendre.self_s"],
            "choquet.level_set.s": t["choquet.choquet_level_set.s"],
            "choquet.level_set.evaluate_calls": t["choquet.level_set.evaluate_calls"],
            "choquet.convolution.s": t["choquet.choquet_convolution.s"],
            "choquet.general.s": t["choquet.choquet_general.s"],
            "choquet.hereditary.s": t["choquet.check_hereditary.s"],
            "laplace.transforms": transforms,
            "laplace.transform.s": t["laplace.forward_laplace.s"],
            "laplace.truncation.evaluate_calls": t["laplace.truncation.evaluate_calls"],
            "laplace.truncation.s": t["laplace.truncation.s"],
            "laplace.transform_lookups": lookups,
            "laplace.inversions": t["laplace.invert_laplace.calls"],
            "laplace.solve.self_s": solve_self,
        }
        out = {name: (value / ops, "s/op" if name.endswith(("_s", ".s")) else "count/op")
               for name, value in per_op.items()}
        out["quadrature.passes_per_integrate"] = (
            t["quadrature.composite_gauss_legendre.calls"] / integrates if integrates else 0.0,
            "ratio")
        out["laplace.transform_hit_ratio"] = (
            1.0 - transforms / lookups if lookups else 0.0, "ratio")
        out["laplace.cross_op_repeat_share"] = (
            t["laplace.repeated_transforms"] / transforms if transforms else 0.0, "ratio")
        return out
