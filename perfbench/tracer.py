"""In-process span tracer for gtlab, installed from outside the package.

``Tracer.install`` wraps, without editing gtlab's source:

* every public function and public method defined in the layer modules
  (``LAYERS``), in every gtlab namespace that binds it; ``suites`` imports
  ``expm_herm`` from ``linalg``, so both names are replaced by one wrapper;
* every ``numpy.linalg`` function gtlab calls (layer ``lapack``), patched
  by attribute, which is how gtlab calls them (``np.linalg.eigh``); the
  ``LAPACK`` ones also get per-function metrics;
* ``scipy.integrate.quad`` where a gtlab module bound it (layer ``quad``);
* the runners in ``gtlab.suites.REGISTRY``, as ``suites.tag.<TAG>`` spans.

Each call records a span (name, start, end, parent) in flat arrays that
stay in memory until ``save``.  A span's self time is its duration minus
the time covered by its direct children; a layer's self time is the sum
over its spans, so layer self times add up to the traced ``cli.main``.
``cli`` is the entry layer: time no other span covers is charged to it,
so ``coverage`` leaves it out.  ``uninstall`` restores every patched
binding.
"""

from __future__ import annotations

import importlib
import math
import time
import types
from array import array

LAYERS = ("cli", "suites", "inequalities", "concentration", "studies",
          "pauli", "linalg", "samplers", "reports")
LAPACK = ("eigh", "eigvalsh", "eigvals", "svd", "solve")
#: Other ``numpy.linalg`` functions gtlab calls; layer ``lapack`` only.
LAPACK_OTHER = ("norm", "qr", "matrix_power")
BOUNDARIES = ("lapack", "quad")
VALIDATORS = ("linalg.as_complex_matrix", "linalg.is_hermitian",
              "linalg.require_hermitian")


def _stack_size(args, kwargs, result) -> int:
    """Matrices in a LAPACK call: the leading stack dimensions of its first
    argument (1 for a single matrix)."""
    a = args[0] if args else next(iter(kwargs.values()))
    shape = getattr(a, "shape", None)
    if shape is None:
        import numpy
        shape = numpy.shape(a)
    return math.prod(shape[:-2])


def _values_drawn(args, kwargs, result) -> int:
    return result.size


def _case_trials(args, kwargs, result) -> int:
    return sum(case.trials for case in result)


#: Work counts kept for gtlab functions, by span name.
WEIGHTS = {"samplers.standard_complex": _values_drawn}


class Tracer:
    """Records spans for the wrapped functions between ``install`` and
    ``uninstall``; one tracer traces one run."""

    def __init__(self):
        self.names: list[str] = []
        self.layers: list[str] = []
        self._ids: dict[str, int] = {}
        self._fid = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack = [-1]
        self.weights: dict[int, int] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def wrap(self, fn, name: str, layer: str, weigh=None):
        """A wrapper of ``fn`` recording one ``name`` span per call.
        ``weigh(args, kwargs, result)`` adds a work count to the span name."""
        fid = self._ids.setdefault(name, len(self.names))
        if fid == len(self.names):
            self.names.append(name)
            self.layers.append(layer)
        fids, parents, starts, ends = (self._fid, self._parent, self._start,
                                       self._end)
        stack, weights, clock = self._stack, self.weights, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(fids)
            fids.append(fid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if weigh is not None:
                weights[fid] = weights.get(fid, 0) + weigh(args, kwargs, result)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        traced.__wrapped__ = fn
        traced.perfbench_span = name
        return traced

    # -- patching ------------------------------------------------------------

    def _patch(self, owner, key: str, value):
        """Replace ``owner``'s binding ``key`` (a module, class or dict)."""
        if isinstance(owner, dict):
            self._patches.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._patches.append((owner, key, vars(owner)[key]))
            setattr(owner, key, value)

    def install(self, layers=LAYERS):
        """Wrap the modules of ``layers`` (and the ``REGISTRY`` runners when
        ``suites`` is one of them), ``numpy.linalg`` and ``quad``."""
        import numpy.linalg
        import scipy.integrate

        package = importlib.import_module("gtlab")
        modules = {layer: importlib.import_module(f"gtlab.{layer}")
                   for layer in LAYERS}
        wrappers = {}
        for layer in layers:
            module = modules[layer]
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) \
                        != module.__name__:
                    continue
                if isinstance(obj, types.FunctionType):
                    span = f"{layer}.{name}"
                    wrappers[id(obj)] = (obj, self.wrap(obj, span, layer,
                                                        WEIGHTS.get(span)))
                elif isinstance(obj, type):
                    self._wrap_methods(obj, f"{layer}.{name}", layer)
        for module in (package, *modules.values()):
            for name, obj in list(vars(module).items()):
                original, wrapper = wrappers.get(id(obj), (None, None))
                if original is obj:
                    self._patch(module, name, wrapper)
        for fn in LAPACK + LAPACK_OTHER:
            self._patch(numpy.linalg, fn, self.wrap(
                getattr(numpy.linalg, fn), f"lapack.{fn}", "lapack",
                _stack_size if fn in LAPACK else None))
        quad = scipy.integrate.quad
        traced_quad = self.wrap(quad, "quad.quad", "quad")
        for module in modules.values():
            if vars(module).get("quad") is quad:
                self._patch(module, "quad", traced_quad)
        if "suites" not in layers:
            return
        registry = modules["suites"].REGISTRY
        for tag, (suite, operation, runner) in list(registry.items()):
            if runner is not None:
                self._patch(registry, tag, (suite, operation, self.wrap(
                    runner, f"suites.tag.{tag}", "suites", _case_trials)))

    def _wrap_methods(self, cls: type, prefix: str, layer: str):
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if isinstance(member, types.FunctionType):
                self._patch(cls, attr, self.wrap(member, f"{prefix}.{attr}",
                                                 layer))
            elif isinstance(member, (classmethod, staticmethod)):
                self._patch(cls, attr, type(member)(self.wrap(
                    member.__func__, f"{prefix}.{attr}", layer)))

    def uninstall(self):
        while self._patches:
            owner, key, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)

    # -- results -------------------------------------------------------------

    def _per_name(self):
        """Per span name: calls, self seconds and total seconds."""
        import numpy as np
        k = len(self.names)
        fid = np.frombuffer(self._fid, dtype=np.int32)
        parent = np.frombuffer(self._parent, dtype=np.int32)
        dur = np.frombuffer(self._end) - np.frombuffer(self._start)
        nested = parent >= 0
        covered = np.bincount(parent[nested], weights=dur[nested],
                              minlength=len(fid))
        own = dur - covered
        return (np.bincount(fid, minlength=k),
                np.bincount(fid, weights=own, minlength=k),
                np.bincount(fid, weights=dur, minlength=k))

    def metrics(self, run_s: float) -> dict[str, float]:
        """The per-layer metrics measured inside the process; ``run_s`` is
        the traced run's duration, which ``trace.coverage`` divides."""
        calls, own, total = self._per_name()
        out: dict[str, float] = {}

        def add(prefix: str, ids: list[int], weight: str | None = None):
            out[f"{prefix}.calls"] = int(sum(calls[i] for i in ids))
            out[f"{prefix}.self_s"] = float(sum(own[i] for i in ids))
            if weight is not None:
                out[f"{prefix}.{weight}"] = sum(self.weights.get(i, 0)
                                                for i in ids)

        def named(*names: str) -> list[int]:
            return [self._ids[n] for n in names if n in self._ids]

        for layer in LAYERS + BOUNDARIES:
            add(layer, [i for i, owner in enumerate(self.layers)
                        if owner == layer])
        # the share of the run that a layer below the entry layer accounts for
        out["trace.coverage"] = sum(
            out[f"{layer}.self_s"] for layer in LAYERS + BOUNDARIES
            if layer != "cli") / run_s
        add("samplers.generator", named("samplers.RngStream.generator"))
        add("samplers.standard_complex", named("samplers.standard_complex"),
            "values")
        add("linalg.validate", named(*VALIDATORS))
        for fn in LAPACK:
            add(f"lapack.{fn}", named(f"lapack.{fn}"), "matrices")
        lapack_calls = sum(out[f"lapack.{fn}.calls"] for fn in LAPACK)
        out["lapack.matrices_per_call"] = (
            sum(out[f"lapack.{fn}.matrices"] for fn in LAPACK) / lapack_calls
            if lapack_calls else 0.0)
        add("reports.binomial_ci", named("reports.binomial_ci"))
        for fn in ("parse_config", "emit"):
            out[f"cli.{fn}.self_s"] = float(sum(own[i] for i in
                                               named(f"cli.{fn}")))
        for name, i in self._ids.items():
            if name.startswith("suites.tag.") and calls[i]:
                out[f"{name}.trials_per_s"] = self.weights.get(i, 0) / total[i]
        return out

    def save(self, path: str):
        """Write the recorded spans as arrays (name id, parent, start, end)."""
        import numpy as np
        np.savez(path, names=np.array(self.names), layers=np.array(self.layers),
                 name_id=np.frombuffer(self._fid, dtype=np.int32),
                 parent=np.frombuffer(self._parent, dtype=np.int32),
                 start=np.frombuffer(self._start), end=np.frombuffer(self._end))
