"""Per-layer tracing of construct from outside the program.

The tracer replaces public functions of the construct modules with
wrappers that record a span per call (self time = span duration minus
the time covered by child spans), a call count, the exception class of
every call that raised, and a few counters read from arguments and
results. Nothing under src/ knows about it: the wrappers are swapped
into every module namespace that holds the original function (ga.py and
cli.py import several of them by name) and swapped back by uninstall().
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import defaultdict


def _counter(suffix: str, amount):
    """A hook maker: after each call, add amount(arg, result) to the
    counter "<span>.<suffix>", where arg(name) reads an argument of the
    call however it was passed."""
    def make(tracer, name, fn):
        sig = inspect.signature(fn)
        key = f"{name}.{suffix}"

        def hook(args, kwargs, result):
            def arg(param):
                return sig.bind(*args, **kwargs).arguments[param]
            tracer.counts[key] += amount(arg, result)
        return hook
    return make


def _scored_population(tracer, name, fn):
    sig = inspect.signature(fn)

    def hook(args, kwargs, result):
        population = sig.bind(*args, **kwargs).arguments["population"]
        tracer.counts["ga.individuals_scored"] += len(population)
        tracer.counts["ga.distinct_evaluations"] += result[1]
        tracer.last_distinct = len({c.genes for c in population})
    return hook


def _final_population(tracer, name, fn):
    def hook(args, kwargs, result):
        tracer.counts["ga.runs"] += 1
        tracer.counts["ga.distinct_genomes.final_sum"] += tracer.last_distinct
    return hook


def _same_genes(children, parents) -> bool:
    return [c.genes for c in children] == [p.genes for p in parents]


# (module, attribute path, counter hook or None). Spans of functions not
# listed here are charged to the nearest listed caller; mexpr.eval_expr in
# particular is charged to sim.simulate.
TARGETS = (
    ("construct.cli", "main", None),
    ("construct.container", "load_container", None),
    ("construct.container", "load_trace",
     _counter("rows", lambda arg, result: len(result.times))),
    ("construct.container", "write_trace", None),
    ("construct.cparse", "parse_c_unit", None),
    ("construct.isolate", "isolate_step_function", None),
    ("construct.isolate", "normalize_primitives", None),
    ("construct.translate", "eliminate_temporaries", None),
    ("construct.translate", "translate_to_equations", None),
    ("construct.check", "infer_symbol_types", None),
    ("construct.check", "validate_assignment",
     _counter("invalid", lambda arg, result: not result.valid)),
    ("construct.model", "apply_assignment", None),
    ("construct.model", "emit_modelica", None),
    ("construct.sim", "causalize", None),
    ("construct.sim", "simulate",
     _counter("steps", lambda arg, result: len(result.times))),
    ("construct.ga", "run_ga", _final_population),
    ("construct.ga", "_evaluate", _scored_population),
    ("construct.ga", "generate_individual", None),
    ("construct.ga", "mutate",
     _counter("noop", lambda arg, result: _same_genes([result], [arg("c")]))),
    ("construct.ga", "crossover",
     _counter("fallback", lambda arg, result: _same_genes(result, [arg("a"), arg("b")]))),
    ("construct.ga", "GaProblem.constructible",
     _counter("accepted", lambda arg, result: bool(result))),
    ("construct.ga", "GaProblem.fitness_of", None),
)


def span_name(module: str, path: str) -> str:
    return f"{module.rsplit('.', 1)[-1]}.{path}"


class Tracer:
    """Spans and counters for the functions in TARGETS.

    Use install() before the traced body and uninstall() after it, in a
    try/finally. Times are in seconds from time.perf_counter.
    """

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.last_distinct = 0
        self._stack: list = []
        self._undo: list = []  # (namespace object, attribute, original)

    def _wrap(self, name: str, fn, hook):
        stack = self._stack
        calls, self_s, counts = self.calls, self.self_s, self.counts
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            child = [0.0]
            stack.append(child)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                counts[f"{name}.rejected.{type(exc).__name__}"] += 1
                raise
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                self_s[name] += elapsed - child[0]
                calls[name] += 1
            if hook is not None:
                hook(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer is already installed")
        for module_name, path, make_hook in TARGETS:
            module = importlib.import_module(module_name)
            name = span_name(module_name, path)
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[attr]
                hook = make_hook(self, name, original) if make_hook else None
                self._undo.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original, hook))
                continue
            original = getattr(module, path)
            hook = make_hook(self, name, original) if make_hook else None
            wrapper = self._wrap(name, original, hook)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.partition(".")[0] != "construct":
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def total_self_s(self) -> float:
        return sum(self.self_s.values())
