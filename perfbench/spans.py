"""Spans and counters recorded around the public functions of each fwlab layer.

Everything here works from outside the package: a wrapped function is
rebound at every name it has in any loaded fwlab module (``eriksen``
imports ``mul`` by name, ``labcli`` and ``models`` import
``eriksen_transform_numeric`` by name), the command handlers are
replaced inside ``labcli._HANDLERS``, ``BlockOperator.__post_init__`` is
replaced on the class and the ``EriksenPipeline`` stages are replaced by
wrapped cached properties.  After installing, every module is scanned
again, so a binding the wrapper missed stops the run instead of reading
as zero time.

Spans stay in memory (name, start, end, parent, task id) until the run
writes them out.  A span's self time is its duration minus the time its
child spans cover.
"""

from __future__ import annotations

import functools
import hashlib
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Iterable

STAGES = ("h_squared", "k", "sign_operator", "denominator", "unitary", "fw_hamiltonian")


def _mul_counts(args, kwargs, result) -> dict:
    a, b = args[0], args[1]
    return {"pairs_offered": len(a) * len(b), "terms_out": len(result)}


def _terms(args, kwargs, result) -> dict:
    return {"terms": len(result)}


def _input_digest(args, kwargs, result) -> dict:
    block = args[0] if args else kwargs["block"]
    return {"input": hashlib.blake2b(block.matrix.tobytes(), digest_size=16).hexdigest()}


# (layer name, fwlab module, attribute, extra counts taken from the call)
FUNCTIONS = (
    ("ncalg.mul", "ncalg", "mul", _mul_counts),
    ("eriksen.reference", "eriksen", "reference_devries_jonker", None),
    ("eriksen.compare", "eriksen", "compare_series", None),
    ("fseries.inv_sqrt_series", "fseries", "inv_sqrt_series", None),
    ("relfw.grade_filter", "relfw", "eriksen_grade_filter", None),
    ("relfw.even_form", "relfw", "relativistic_even_form", None),
    ("relfw.compare", "relfw", "compare_even_forms", None),
    ("relfw.bch_audit", "relfw", "bch_audit", None),
    ("matfun.transform", "matfun", "eriksen_transform_numeric", _input_digest),
    ("matfun.spectral_norm", "matfun", "spectral_norm", None),
    ("matfun.inv_sqrt", "matfun", "matrix_inv_sqrt", None),
    ("matfun.sqrt", "matfun", "matrix_sqrt", None),
    ("matfun.closed_form", "matfun", "relfw_hamiltonian_numeric", None),
    ("matfun.convergence_study", "matfun", "hbar_convergence_study", None),
    ("models.build_lattice", "models", "build_lattice_dirac", None),
    ("models.build_spin1", "models", "build_spin1_landau", None),
    ("models.spin1_spectrum", "models", "spin1_numeric_spectrum", None),
    ("models.spin1_scaling", "models", "spin1_residual_scaling", None),
)

LAYERS = (
    [name for name, _, _, _ in FUNCTIONS]
    + ["matfun.block_operator", "labcli.cmd"]
    + [f"eriksen.{stage}" for stage in STAGES]
)


@dataclass
class Span:
    name: str
    task: str | None
    parent: int | None
    start: float = 0.0
    end: float = 0.0
    error: bool = False
    counts: dict | None = None


class Tracer:
    """Installs the wrappers, records spans, and restores fwlab on uninstall."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.task: str | None = None
        self._stack: list[int] = []
        self._undo: list[Callable[[], None]] = []
        self._originals: list[object] = []

    def _wrap(self, name: str, fn, measure=None):
        spans, stack, tracer = self.spans, self._stack, self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, tracer.task, stack[-1] if stack else None)
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                span.error = True
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if measure is not None:
                span.counts = measure(args, kwargs, result)
            return result

        self._originals.append(fn)
        return traced

    def _set(self, owner, attr: str, value) -> None:
        old = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, value)
        self._undo.append(functools.partial(setattr, owner, attr, old))

    def _rebind(self, modules, fn, wrapper) -> None:
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._set(mod, attr, wrapper)

    def install(self) -> None:
        import fwlab.labcli  # noqa: F401  (the scan must see every module)

        modules = _fwlab_modules()
        for name, modname, attr, measure in FUNCTIONS:
            fn = getattr(sys.modules[f"fwlab.{modname}"], attr)
            self._rebind(modules, fn, self._wrap(name, fn, measure))
        matfun = sys.modules["fwlab.matfun"]
        post_init = matfun.BlockOperator.__dict__["__post_init__"]
        self._set(matfun.BlockOperator, "__post_init__", self._wrap("matfun.block_operator", post_init))
        pipeline = sys.modules["fwlab.eriksen"].EriksenPipeline
        for stage in STAGES:
            prop = pipeline.__dict__[stage]
            wrapped = functools.cached_property(self._wrap(f"eriksen.{stage}", prop.func, _terms))
            wrapped.__set_name__(pipeline, stage)
            self._set(pipeline, stage, wrapped)
        handlers = sys.modules["fwlab.labcli"]._HANDLERS
        for command, fn in list(handlers.items()):
            wrapper = self._wrap("labcli.cmd", fn)
            self._rebind(modules, fn, wrapper)
            handlers[command] = wrapper
            self._undo.append(functools.partial(handlers.__setitem__, command, fn))
        self._verify(modules, handlers)

    def _verify(self, modules, handlers) -> None:
        missed = []
        for mod in modules:
            for attr, value in vars(mod).items():
                if any(value is fn for fn in self._originals):
                    missed.append(f"{mod.__name__}.{attr}")
        missed += [f"_HANDLERS[{k!r}]" for k, v in handlers.items() if any(v is fn for fn in self._originals)]
        if missed:
            raise RuntimeError(f"trace wrappers missed these bindings: {missed}")

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()
        self._originals.clear()

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child[span.parent] += span.end - span.start
        return [s.end - s.start - c for s, c in zip(self.spans, child)]

    def totals(self, tasks: Iterable[str]) -> dict[str, dict[str, float]]:
        """Per-layer sums over the spans of the given tasks."""
        tasks = set(tasks)
        out: dict[str, dict[str, float]] = {name: defaultdict(float) for name in LAYERS}
        inputs: dict[str, set] = defaultdict(set)
        for span, self_s in zip(self.spans, self.self_times()):
            if span.task not in tasks:
                continue
            t = out[span.name]
            t["calls"] += 1
            t["self_s"] += self_s
            t["span_s"] += span.end - span.start
            t["errors"] += span.error
            for key, value in (span.counts or {}).items():
                if key == "input":
                    inputs[span.name].add((span.task, value))
                else:
                    t[key] += value
        for name, seen in inputs.items():
            out[name]["distinct"] = len(seen)
        return out

    def to_json_obj(self) -> list[list]:
        return [[s.name, s.start, s.end, s.parent, s.task, s.error] for s in self.spans]


def _fwlab_modules() -> list:
    return [m for n, m in list(sys.modules.items()) if n == "fwlab" or n.startswith("fwlab.")]


def layer_metrics(totals: dict[str, dict[str, float]], n_tasks: int) -> dict[str, float]:
    """Per-task calls, self time and errors for every layer, plus the ratios."""
    metrics: dict[str, float] = {}
    for name in LAYERS:
        t = totals[name]
        metrics[f"{name}.calls"] = t["calls"] / n_tasks
        metrics[f"{name}.self_s"] = t["self_s"] / n_tasks
        metrics[f"{name}.errors"] = t["errors"] / n_tasks
    mul = totals["ncalg.mul"]
    metrics["ncalg.mul.pairs_offered"] = mul["pairs_offered"] / n_tasks
    metrics["ncalg.mul.terms_out"] = mul["terms_out"] / n_tasks
    metrics["ncalg.mul.yield"] = mul["terms_out"] / mul["pairs_offered"] if mul["pairs_offered"] else 0.0
    transform = totals["matfun.transform"]
    metrics["matfun.transform.distinct_ratio"] = (
        transform["distinct"] / transform["calls"] if transform["calls"] else 0.0
    )
    return metrics
