"""Span recorder, hook tables and the per-layer metrics derived from spans.

A hook replaces a callable at the module attribute where its caller looks it
up: ``driftflux.driver:advance`` is the name ``simulate`` calls, and
``driftflux.momentum:solve`` is the ``solve`` that ``predict_velocity`` calls.
The program is not modified; hooks are removed when the unit ends.  Spans
(name, start, end, parent, step id) stay in memory and are written out after
the timed part.

A hook whose target does not resolve is skipped and reported, and every
metric that needs its span name is dropped, so a later refactor that moves a
function costs that layer's numbers, not the run.
"""

import importlib
import inspect
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = float("nan")
    parent: int = -1
    step: int = -1
    attrs: dict = field(default_factory=dict)


class Tracer:
    """Records nested spans of one thread; ``step`` is the id of the latest
    ``driver.advance`` call (-1 before the first)."""

    def __init__(self):
        self.spans = []
        self.step = -1
        self._open = []

    def begin(self, name):
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, time.perf_counter(), parent=parent, step=self.step))
        self._open.append(len(self.spans) - 1)
        return self.spans[-1]

    def end(self, span):
        span.end = time.perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name):
        s = self.begin(name)
        try:
            yield s
        finally:
            self.end(s)


# --- what a hook records besides its interval -------------------------------

def _record_solve(span, bound, result):
    matrix = bound.arguments["matrix"]
    n = int(matrix.shape[0])
    span.attrs["n"] = n
    span.attrs["nnz"] = int(matrix.nnz) if hasattr(matrix, "nnz") else n * n


def _record_newton(span, bound, result):
    span.attrs["iterations"] = int(result.iterations)


def _record_write(span, bound, result):
    span.attrs["bytes"] = os.path.getsize(bound.arguments["path"])


def _record_simulation(span, bound, result):
    # kept in memory only: the correctness checks read the reports
    span.attrs["cells"] = int(result.problem.mesh.n_cells)
    span.attrs["reports"] = result.reports


@dataclass(frozen=True)
class Hook:
    target: str          # "module:attribute[.attribute]"
    span: str            # span name, "<layer>.<what>"
    record: object = None
    step: bool = False   # a scheme step: advances the tracer's step id
    newton: bool = False  # wrap residual_fn/jacobian_fn as <layer>.residual/.jacobian


# Untraced run: the step timer and the instance boundaries, nothing else.
CLOCK_HOOKS = (
    Hook("driftflux.driver:build_case", "cases.build"),
    Hook("driftflux.verification:random_wall_problem", "cases.build"),
    Hook("driftflux.driver:simulate", "driver.simulate", record=_record_simulation),
    Hook("driftflux.verification:simulate", "driver.simulate", record=_record_simulation),
    Hook("driftflux.driver:advance", "driver.advance", step=True),
)

# Traced run.  eos and boundary are not wrapped: a per-call wrapper would cost
# more than their work; their time shows in the *.residual/*.jacobian spans.
TRACE_HOOKS = CLOCK_HOOKS + (
    Hook("driftflux.cases:build_uniform_mesh", "mesh.build"),
    Hook("driftflux.cases:build_diamond_geometry", "mesh.build"),
    Hook("driftflux.verification:build_uniform_mesh", "mesh.build"),
    Hook("driftflux.verification:build_diamond_geometry", "mesh.build"),
    Hook("driftflux.driver:MomentumAssembler", "driver.init"),
    Hook("driftflux.driver:PressureCorrector", "driver.init"),
    Hook("driftflux.driver:initial_state", "driver.init"),
    Hook("driftflux.driver:predict_velocity", "momentum.predict"),
    Hook("driftflux.momentum:assemble_dual_mass_fluxes", "momentum.dual_flux"),
    Hook("driftflux.momentum:MomentumAssembler.assemble", "momentum.assemble"),
    Hook("driftflux.momentum:solve", "linalg.solve", record=_record_solve),
    Hook("driftflux.driver:renormalize_pressure", "pressure_correction.renormalize"),
    Hook("driftflux.pressure_correction:PressureCorrector.step", "pressure_correction.step"),
    Hook("driftflux.pressure_correction:newton_solve", "pressure_correction.newton",
         record=_record_newton, newton=True),
    Hook("driftflux.pressure_correction:solve", "linalg.solve", record=_record_solve),
    Hook("driftflux.driver:drift_fluxes", "gas_fraction.drift"),
    Hook("driftflux.driver:correct_mass_fraction", "gas_fraction.correct"),
    Hook("driftflux.gas_fraction:newton_solve", "gas_fraction.newton",
         record=_record_newton, newton=True),
    Hook("driftflux.linalg:solve", "linalg.solve", record=_record_solve),
    Hook("driftflux.driver:build_step_report", "diagnostics.report"),
    Hook("driftflux.driver:initial_step_report", "diagnostics.report"),
    Hook("driftflux.driver:write_vtk", "io.write", record=_record_write),
    Hook("driftflux.driver:write_diagnostics_csv", "io.write", record=_record_write),
)


def resolve(target):
    """(owner, attribute name, current value) of a hook target, or None."""
    module_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *outer, name = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    value = getattr(owner, name, None)
    if not callable(value):
        return None
    return owner, name, value


def _traced(tracer, fn, name):
    def wrapper(*args, **kwargs):
        s = tracer.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end(s)
    return wrapper


def _wrap(tracer, hook, fn):
    needs_args = hook.record is not None or hook.newton
    signature = inspect.signature(fn) if needs_args else None
    layer = hook.span.rpartition(".")[0]

    def wrapper(*args, **kwargs):
        bound = signature.bind(*args, **kwargs) if needs_args else None
        if hook.newton:
            arguments = bound.arguments
            arguments["residual_fn"] = _traced(tracer, arguments["residual_fn"],
                                               layer + ".residual")
            arguments["jacobian_fn"] = _traced(tracer, arguments["jacobian_fn"],
                                               layer + ".jacobian")
            args, kwargs = bound.args, bound.kwargs
        if hook.step:
            tracer.step += 1
        s = tracer.begin(hook.span)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(s)
        if hook.record is not None:
            hook.record(s, bound, result)
        return result

    return wrapper


@contextmanager
def installed(tracer, hooks):
    """Install ``hooks`` for the duration of the block; yields the targets
    that did not resolve."""
    missing = []
    undo = []
    try:
        for hook in hooks:
            found = resolve(hook.target)
            if found is None:
                missing.append(hook)
                continue
            owner, name, fn = found
            setattr(owner, name, _wrap(tracer, hook, fn))
            undo.append((owner, name, fn))
        yield missing
    finally:
        for owner, name, fn in reversed(undo):
            setattr(owner, name, fn)


# --- per-layer metrics -------------------------------------------------------

class SpanTable:
    """Aggregates over the finished spans of one unit."""

    _CONTEXTS = ("momentum.predict", "pressure_correction.newton", "gas_fraction.newton")

    def __init__(self, spans):
        self.spans = spans
        self.duration = [s.end - s.start for s in spans]
        child_time = [0.0] * len(spans)
        for i, s in enumerate(spans):
            if s.parent >= 0:
                child_time[s.parent] += self.duration[i]
        self.self_time = [d - c for d, c in zip(self.duration, child_time)]

    def named(self, name):
        return [i for i, s in enumerate(self.spans) if s.name == name]

    def total(self, name):
        return sum(self.duration[i] for i in self.named(name))

    def count(self, name):
        return len(self.named(name))

    def self_total(self, name):
        return sum(self.self_time[i] for i in self.named(name))

    def attr_sum(self, name, key):
        return sum(self.spans[i].attrs.get(key, 0) for i in self.named(name))

    def context(self, i):
        """Nearest enclosing span that owns a linear solve."""
        p = self.spans[i].parent
        while p >= 0 and self.spans[p].name not in self._CONTEXTS:
            p = self.spans[p].parent
        return self.spans[p].name if p >= 0 else None

    def solves(self, context):
        return [i for i in self.named("linalg.solve") if self.context(i) == context]

    def self_times_by_name(self):
        out = {}
        for s, t in zip(self.spans, self.self_time):
            out[s.name] = out.get(s.name, 0.0) + t
        return out

    def root_time(self):
        return sum(d for s, d in zip(self.spans, self.duration) if s.parent < 0)


def _time(span, needs=None):
    return "s", needs or (span,), lambda t: t.total(span)


def _count(span, needs=None):
    return "count", needs or (span,), lambda t: t.count(span)


def _iterations(newton):
    return "count", (newton,), lambda t: t.attr_sum(newton, "iterations")


def _solves(context, unit, value):
    """Linear solves whose nearest solve-owning span is ``context``."""
    return unit, (context, "linalg.solve"), lambda t: value(t, t.solves(context))


def _useful_ratio(t):
    evals = t.count("pressure_correction.residual") + t.count("gas_fraction.residual")
    iters = (t.attr_sum("pressure_correction.newton", "iterations")
             + t.attr_sum("gas_fraction.newton", "iterations"))
    return iters / evals if evals else float("nan")


_PC = "pressure_correction.newton"
_GF = "gas_fraction.newton"
_BOTH = (_PC, _GF)

# name -> (unit, span names it needs, value from a SpanTable)
LAYER_METRICS = {
    "cases.build_s": _time("cases.build"),
    "mesh.build_s": _time("mesh.build"),
    "driver.init_s": _time("driver.init"),
    "momentum.predict_s": _time("momentum.predict"),
    "momentum.assemble_s": _time("momentum.assemble"),
    "momentum.dual_flux_s": _time("momentum.dual_flux"),
    "momentum.solve_s": _solves("momentum.predict", "s",
                                lambda t, ix: sum(t.duration[i] for i in ix)),
    "momentum.solve_n": _solves("momentum.predict", "count",
                                lambda t, ix: max((t.spans[i].attrs["n"] for i in ix), default=0)),
    "momentum.solve_nnz": _solves("momentum.predict", "count",
                                  lambda t, ix: max((t.spans[i].attrs["nnz"] for i in ix),
                                                    default=0)),
    "pressure_correction.step_s": _time("pressure_correction.step"),
    "pressure_correction.outer_iters": _count(_PC),
    "pressure_correction.newton_iters": _iterations(_PC),
    "pressure_correction.residual_evals": _count("pressure_correction.residual", (_PC,)),
    "pressure_correction.residual_s": _time("pressure_correction.residual", (_PC,)),
    "pressure_correction.jacobian_s": _time("pressure_correction.jacobian", (_PC,)),
    "pressure_correction.solve_s": _solves(_PC, "s",
                                           lambda t, ix: sum(t.duration[i] for i in ix)),
    "pressure_correction.solve_calls": _solves(_PC, "count", lambda t, ix: len(ix)),
    "pressure_correction.renormalize_s": _time("pressure_correction.renormalize"),
    "gas_fraction.drift_s": _time("gas_fraction.drift"),
    "gas_fraction.correct_s": _time("gas_fraction.correct"),
    "gas_fraction.newton_iters": _iterations(_GF),
    "gas_fraction.residual_evals": _count("gas_fraction.residual", (_GF,)),
    "gas_fraction.residual_s": _time("gas_fraction.residual", (_GF,)),
    "gas_fraction.jacobian_s": _time("gas_fraction.jacobian", (_GF,)),
    "gas_fraction.solve_s": _solves(_GF, "s", lambda t, ix: sum(t.duration[i] for i in ix)),
    "linalg.solve_calls": _count("linalg.solve"),
    "linalg.solve_s": _time("linalg.solve"),
    "linalg.newton_calls": ("count", _BOTH, lambda t: t.count(_PC) + t.count(_GF)),
    "linalg.newton_useful_ratio": ("ratio", _BOTH, _useful_ratio),
    "diagnostics.report_s": _time("diagnostics.report"),
    "diagnostics.report_calls": _count("diagnostics.report"),
    "io.write_s": _time("io.write"),
    "io.bytes": ("B", ("io.write",), lambda t: t.attr_sum("io.write", "bytes")),
    "driver.step_self_s": ("s", ("driver.advance",), lambda t: t.self_total("driver.advance")),
    "verification.self_s": ("s", ("verification.suite",),
                            lambda t: t.self_total("verification.suite")),
}

# Times that are exactly 0 on some workload (renormalization runs only in the
# entropy suite, the y-correction Newton only in the manufactured case, output
# only in sloshing).  They are printed but left out of the result line, which
# carries the per_layer metrics of BENCHMARK.json.
NOT_ON_EVERY_WORKLOAD = ("pressure_correction.renormalize_s", "gas_fraction.residual_s",
                         "gas_fraction.jacobian_s", "gas_fraction.solve_s", "io.write_s",
                         "verification.self_s")

# Counts must repeat exactly between units with the same inputs.
COUNT_METRICS = tuple(n for n, (unit, _, _) in LAYER_METRICS.items() if unit in ("count", "B"))


def layer_metrics(spans, missing_spans):
    """Per-layer values of one traced unit; metrics whose spans are missing are
    left out."""
    table = SpanTable(spans)
    return {name: fn(table) for name, (_, needs, fn) in LAYER_METRICS.items()
            if not set(needs) & set(missing_spans)}
