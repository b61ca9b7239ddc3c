"""Span tracing of gapspline's layers from outside the library.

``Tracer.install`` replaces every binding of the traced public functions
and methods in the loaded ``gapspline`` modules with a wrapper that records
one span per call: name, start, end, parent span and operation id.  Counts
taken at the same boundaries (Newton iterations and convergence, bytes
written) are kept beside the spans.  Nothing is written until the caller
asks; ``uninstall`` puts the original objects back.

``layer_metrics`` turns the spans of a set of operations into per-layer
metrics: self time per operation (span duration minus the time covered by
its child spans) and call counts per operation.
"""

import sys
import time
from collections import defaultdict

# (module, attribute path, span name).  Module functions are replaced in
# every gapspline module that binds them, so calls through a name imported
# into ``gapspline.system`` or ``gapspline.cli`` are seen too.
TRACED = (
    ("gapspline.formats", "read_scene", "formats.read_scene"),
    ("gapspline.formats", "write_solution", "formats.write_solution"),
    ("gapspline.lagrangian", "parse_lagrangian", "lagrangian.parse_lagrangian"),
    ("gapspline.lagrangian", "grad_lagrangian", "lagrangian.grad_lagrangian"),
    ("gapspline.system", "normalize_scene", "system.normalize_scene"),
    ("gapspline.system", "ResidualSystem.__init__", "system.build"),
    ("gapspline.system", "ResidualSystem.residual", "system.residual"),
    ("gapspline.system", "ResidualSystem.jacobian", "system.jacobian"),
    ("gapspline.solver", "solve", "solver.solve"),
    ("gapspline.solver", "newton", "solver.newton"),
    ("gapspline.planner", "plan", "planner.plan"),
    ("gapspline.bspline", "BSplineCurve.point", "bspline.point"),
    ("gapspline.bspline", "BSplineCurve.derivative", "bspline.derivative"),
    ("gapspline.bspline", "BSplineCurve.sample", "bspline.sample"),
    ("gapspline.svg", "render_svg", "svg.render_svg"),
)

# span fields, in the order they are stored
SPAN_FIELDS = ("id", "name", "op", "parent", "start_ns", "end_ns")


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.spans = []  # tuples in SPAN_FIELDS order
        self.counts = defaultdict(int)
        self.op = None
        self._stack = []
        self._next_id = 0
        self._restore = []

    def begin(self, name: str) -> int:
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append((span_id, name, parent, time.perf_counter_ns()))
        return span_id

    def end(self):
        span_id, name, parent, start = self._stack.pop()
        self.spans.append((span_id, name, self.op, parent, start, time.perf_counter_ns()))

    def record(self, name: str, start_ns: int, end_ns: int) -> int:
        """Add a finished span, timed by the caller, under the open span."""
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        self.spans.append((span_id, name, self.op, parent, start_ns, end_ns))
        return span_id

    def adopt(self, spans, counts, parent: int):
        """Add another tracer's spans (say, a child process's) under ``parent``."""
        offset = self._next_id
        for span_id, name, _, up, start, end in spans:
            self.spans.append(
                (span_id + offset, name, self.op, parent if up is None else up + offset, start, end)
            )
            self._next_id = max(self._next_id, span_id + offset + 1)
        for key, value in counts.items():
            self.counts[key] += value

    def _wrap(self, original, name):
        tracer = self

        def traced(*args, **kwargs):
            tracer.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end()
            tracer._count(name, result)
            return result

        traced.__wrapped__ = original
        return traced

    def _count(self, name, result):
        if name == "solver.newton":
            _, iterations, converged, _ = result
            self.counts["solver.newton.iterations"] += iterations
            self.counts["solver.newton.converged"] += int(converged)
        elif name == "formats.write_solution":
            self.counts["formats.write_solution.bytes"] += len(result.encode())

    def install(self):
        modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "gapspline"]
        for module_name, path, name in TRACED:
            owner = sys.modules[module_name]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self._wrap(original, name)
            if outer:
                self._replace(owner, attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._replace(module, key, wrapper)

    def _replace(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)


def self_times(spans) -> dict:
    """Span id -> duration minus the time its direct children cover (ns)."""
    own = {s[0]: s[5] - s[4] for s in spans}
    for s in spans:
        if s[3] in own:
            own[s[3]] -= s[5] - s[4]
    return own


def check_tree(spans) -> list[str]:
    """Problems with the span tree; empty when it is well-formed.

    Each operation must have one root span, every parent must exist in the
    same operation and enclose its child, every self time must be >= 0, and
    per operation the self times must not sum to more than the root span's
    duration.
    """
    problems = []
    by_id = {s[0]: s for s in spans}
    for s in spans:
        if s[5] < s[4]:
            problems.append(f"span {s[0]} {s[1]} ends before it starts")
        if s[3] is None:
            continue
        parent = by_id.get(s[3])
        if parent is None:
            problems.append(f"span {s[0]} {s[1]} has a missing parent {s[3]}")
        elif parent[2] != s[2] or not parent[4] <= s[4] <= s[5] <= parent[5]:
            problems.append(f"span {s[0]} {s[1]} lies outside its parent {parent[1]}")
    own = self_times(spans)
    total = defaultdict(int)
    wall = defaultdict(int)
    for s in spans:
        if own[s[0]] < 0:
            problems.append(f"span {s[0]} {s[1]} has negative self time")
        total[s[2]] += own[s[0]]
        if s[3] is None:
            if s[2] in wall:
                problems.append(f"operation {s[2]} has more than one root span")
            wall[s[2]] = s[5] - s[4]
    for op, ns in total.items():
        if ns > wall[op]:
            problems.append(f"operation {op}: self times sum past its wall time")
    return problems


def layer_metrics(spans, counts, ops: int) -> dict:
    """Per-operation layer metrics from the spans of ``ops`` operations."""
    own = self_times(spans)
    self_ms = defaultdict(float)
    wall_ms = defaultdict(float)
    calls = defaultdict(int)
    by_id = {s[0]: s for s in spans}
    residual_in_jacobian = 0
    residual_in_newton = 0
    for s in spans:
        name = s[1]
        self_ms[name] += own[s[0]] / 1e6
        wall_ms[name] += (s[5] - s[4]) / 1e6
        calls[name] += 1
        if name == "system.residual" and s[3] is not None:
            parent = by_id[s[3]][1]
            residual_in_jacobian += parent == "system.jacobian"
            residual_in_newton += parent == "solver.newton"

    def per_op(x):
        return x / ops

    def ratio(part, whole):
        return part / whole if whole else 0.0

    starts = calls["solver.newton"]
    iterations = counts["solver.newton.iterations"]
    return {
        "solver.solve.ms": (per_op(self_ms["solver.solve"] + self_ms["solver.newton"]), "ms"),
        "solver.newton.starts": (per_op(starts), "count"),
        "solver.newton.iterations": (per_op(iterations), "count"),
        # every newton call evaluates its start once, then once per accepted
        # step and once per rejected (backtracked) trial step
        "solver.newton.backtracks": (per_op(residual_in_newton - starts - iterations), "count"),
        "solver.newton.converged_ratio": (ratio(counts["solver.newton.converged"], starts), "ratio"),
        "system.build.ms": (per_op(self_ms["system.build"]), "ms"),
        "system.residual.calls": (per_op(calls["system.residual"]), "count"),
        "system.residual.ms": (per_op(self_ms["system.residual"]), "ms"),
        "system.residual.fd_share": (ratio(residual_in_jacobian, calls["system.residual"]), "ratio"),
        "system.jacobian.calls": (per_op(calls["system.jacobian"]), "count"),
        "system.jacobian.ms": (per_op(self_ms["system.jacobian"]), "ms"),
        "system.normalize_scene.ms": (per_op(self_ms["system.normalize_scene"]), "ms"),
        "lagrangian.parse_lagrangian.ms": (per_op(self_ms["lagrangian.parse_lagrangian"]), "ms"),
        "lagrangian.grad_lagrangian.calls": (per_op(calls["lagrangian.grad_lagrangian"]), "count"),
        "lagrangian.grad_lagrangian.ms": (per_op(self_ms["lagrangian.grad_lagrangian"]), "ms"),
        "planner.plan.calls": (per_op(calls["planner.plan"]), "count"),
        "planner.plan.ms": (per_op(self_ms["planner.plan"]), "ms"),
        # inclusive time of one plan call, B-spline evaluation included
        "planner.plan.wall_ms": (ratio(wall_ms["planner.plan"], calls["planner.plan"]), "ms"),
        "bspline.point.calls": (per_op(calls["bspline.point"]), "count"),
        "bspline.derivative.calls": (per_op(calls["bspline.derivative"]), "count"),
        "bspline.ms": (
            per_op(
                self_ms["bspline.point"] + self_ms["bspline.derivative"] + self_ms["bspline.sample"]
            ),
            "ms",
        ),
        "bspline.sample.ms": (per_op(self_ms["bspline.sample"]), "ms"),
        "svg.render_svg.ms": (per_op(self_ms["svg.render_svg"]), "ms"),
        "formats.read_scene.ms": (per_op(self_ms["formats.read_scene"]), "ms"),
        "formats.write_solution.ms": (per_op(self_ms["formats.write_solution"]), "ms"),
        "formats.write_solution.bytes": (per_op(counts["formats.write_solution.bytes"]), "bytes"),
        "cli.import_ms": (per_op(self_ms["cli.import"]), "ms"),
        "cli.process_ms": (per_op(self_ms["cli.process"]), "ms"),
    }
