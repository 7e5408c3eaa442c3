"""Layer tracing from outside the program.

`Tracer.install` replaces every public function of the hbarlab modules,
and every public method of the classes they define, at the module or
class attribute through which callers look it up, with a wrapper that
records a span: (name, parent span, start, end, counts).  Counts come
from the call's arguments (and, for a few layers, its result), so no
source line of the program changes.  `per_layer` turns the spans into the
benchmark's per-layer metrics; self time is a span's duration minus the
durations of its direct child spans.  A call made through a reference held
elsewhere (the runner table in hbarlab.experiments) records no span; its
time is its caller's self time.
"""

import functools
import importlib
import inspect
import math
import os
import pkgutil
import time
import types

from workloads import GRID_SIZES


def _propagate(a, _):
    return {"steps": int(a["n_steps"]), "n": a["psi"].grid.n}


def _quantum_run(a, _):
    return {"snapshots": int(a["n_snapshots"]), "n": a["grid"].n}


def _to_madelung(a, _):
    return {"points": a["psi"].grid.n}


def _liouville(a, _):
    rho = a["rho0"]
    sub = max(1, math.ceil(a["t"] / a["dt"]))
    return {"node_steps": sub * rho.nx * rho.n_p}


def _fan(a, fan):
    steps = math.ceil(a["t_final"] / a["dt"])
    return {"char_steps": fan.x0.size * steps,
            "caustics": int(fan.t_crossing is not None)}


def _newton(a, _):
    return {"steps": int(a["n_steps"])}


def _write_csv(_, path):
    return {"bytes": os.path.getsize(path)}


# span name -> (bound arguments, result) -> counts; result is None when
# the call raised
COUNTERS = {
    "schrodinger.propagate": _propagate,
    "experiments.quantum_run": _quantum_run,
    "madelung.to_madelung": _to_madelung,
    "classical.liouville_evolve": _liouville,
    "hjflow.integrate_fan": _fan,
    "classical.newton_integrate": _newton,
    "records.write_csv": _write_csv,
}

# results the counters read: a call that raised leaves them out
_NEEDS_RESULT = ("hjflow.integrate_fan", "records.write_csv")


def _modules():
    pkg = importlib.import_module("hbarlab")
    names = sorted(m.name for m in pkgutil.iter_modules(pkg.__path__)
                   if m.name != "__main__")
    return [pkg] + [importlib.import_module(f"hbarlab.{n}") for n in names]


def _short(module_name):
    return module_name.split(".", 1)[1] if "." in module_name else module_name


class Tracer:
    def __init__(self):
        self.spans = []          # [name, parent, start, end, counts]
        self._stack = []
        self._restore = []

    def _wrap(self, fn, name):
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, clock(), 0.0, None]
            index = len(spans)
            spans.append(span)
            stack.append(index)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span[3] = clock()
                stack.pop()
                if counter and (result is not None
                                or name not in _NEEDS_RESULT):
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    span[4] = counter(bound.arguments, result)
        return wrapper

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        modules = _modules()
        # canonical span name: the defining module's public attribute
        names = {}
        for mod in modules:
            for attr, obj in vars(mod).items():
                if (isinstance(obj, types.FunctionType)
                        and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    names.setdefault(obj, f"{_short(mod.__name__)}.{attr}")
        wrappers = {fn: self._wrap(fn, name) for fn, name in names.items()}
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in wrappers:
                    self._set(mod, attr, wrappers[obj])
                elif (isinstance(obj, type) and not attr.startswith("_")
                      and obj.__module__ == mod.__name__):
                    self._install_methods(obj, _short(mod.__name__))
        return self

    def _install_methods(self, cls, module):
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{module}.{cls.__name__}.{attr}"
            if isinstance(obj, types.FunctionType):
                self._set(cls, attr, self._wrap(obj, name))
            elif isinstance(obj, (classmethod, staticmethod)):
                self._set(cls, attr,
                          type(obj)(self._wrap(obj.__func__, name)))

    def restore(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def write(self, path):
        """Spans as CSV rows: id, parent, name, start, end, self time,
        counts."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,name,start_s,end_s,self_s,counts\n")
            for i, ((name, parent, start, end, counts), own) in enumerate(
                    zip(self.spans, self_times(self.spans))):
                tail = ";".join(f"{k}={v}" for k, v in (counts or {}).items())
                fh.write(f"{i},{parent},{name},{start!r},{end!r},{own!r},"
                         f"{tail}\n")


def self_times(spans):
    out = [end - start for _, _, start, end, _ in spans]
    for _, parent, start, end, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def per_layer(spans):
    """The per-layer metrics, as name -> (value, unit), from a traced run's
    spans."""
    own = self_times(spans)

    def total(pred):
        return sum((t for span, t in zip(spans, own) if pred(span[0])), 0.0)

    def module(prefix):
        return lambda name: name.startswith(prefix + ".")

    def exactly(target):
        return lambda name: name == target

    def counts(target, key):
        return sum(s[4][key] for s in spans if s[0] == target and s[4])

    def calls(target):
        return sum(1 for s in spans if s[0] == target)

    prop = "schrodinger.propagate"
    wall = [end - start for _, _, start, end, _ in spans]
    runs = [s for s in spans if s[0] == "experiments.quantum_run"]
    autowiden = "experiments.quantum_run_autowiden"
    # per-call and per-step costs are inclusive: what the caller waits for
    single = [w for s, w in zip(spans, wall)
              if s[0] == prop and s[4]["steps"] == 1]
    m = {
        "config.load_s": (total(module("config")), "s"),
        "experiments.self_s": (total(module("experiments")), "s"),
        "experiments.quantum_runs": (len(runs), "count"),
        "experiments.widen_retries": (
            sum(1 for s in runs if s[1] >= 0 and spans[s[1]][0] == autowiden)
            - calls(autowiden), "count"),
        "experiments.snapshots": (
            counts("experiments.quantum_run", "snapshots"), "count"),
        "experiments.grid_n_max": (
            max((s[4]["n"] for s in runs), default=0), "count"),
        f"{prop}.calls": (calls(prop), "count"),
        f"{prop}.steps": (counts(prop, "steps"), "count"),
        f"{prop}.point_steps": (
            sum(s[4]["steps"] * s[4]["n"] for s in spans if s[0] == prop),
            "count"),
        f"{prop}.self_s": (total(exactly(prop)), "s"),
        f"{prop}.single_step_calls": (len(single), "count"),
        f"{prop}.single_step_us": (
            1e6 * sum(single) / len(single) if single else 0.0, "us"),
        "potential.eval_potential.calls": (
            calls("potential.eval_potential"), "count"),
        "madelung.to_madelung.calls": (calls("madelung.to_madelung"),
                                       "count"),
        "madelung.to_madelung.points": (
            counts("madelung.to_madelung", "points"), "count"),
        "madelung.self_s": (total(module("madelung")), "s"),
        "schrodinger.observables.self_s": (
            total(exactly("schrodinger.observables")), "s"),
        "classical.liouville.node_steps": (
            counts("classical.liouville_evolve", "node_steps"), "count"),
        "classical.liouville.self_s": (
            total(exactly("classical.liouville_evolve")), "s"),
        "kernels.liouville_pullback.self_s": (
            total(exactly("_kernels.liouville_pullback")), "s"),
        "hjflow.char_steps": (counts("hjflow.integrate_fan", "char_steps"),
                              "count"),
        "hjflow.caustics": (counts("hjflow.integrate_fan", "caustics"),
                            "count"),
        "hjflow.self_s": (total(module("hjflow")), "s"),
        "kernels.fan_path.self_s": (
            total(exactly("_kernels.fan_path")), "s"),
        "classical.newton.steps": (
            counts("classical.newton_integrate", "steps"), "count"),
        "classical.newton.self_s": (
            total(exactly("classical.newton_integrate")), "s"),
        "kernels.verlet_path.self_s": (
            total(exactly("_kernels.verlet_path")), "s"),
        "detpot.classify.calls": (calls("detpot.classify"), "count"),
        "detpot.self_s": (total(module("detpot")), "s"),
        "records.bytes_written": (counts("records.write_csv", "bytes"),
                                  "count"),
        "records.self_s": (total(module("records")), "s"),
    }
    for n in GRID_SIZES:
        long_calls = [(s[4]["steps"], w) for s, w in zip(spans, wall)
                      if s[0] == prop and s[4]["n"] == n
                      and s[4]["steps"] > 1]
        steps = sum(k for k, _ in long_calls)
        m[f"schrodinger.us_per_step.n{n}"] = (
            1e6 * sum(w for _, w in long_calls) / steps if steps else 0.0,
            "us")
    return m
