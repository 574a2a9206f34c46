"""Per-layer call counts and self times, recorded from outside the package.

`Tracer.install` replaces each public function named in LAYERS by a wrapper.
A span wrapper counts calls and adds the call's self time: its duration minus
the durations of wrapped calls made inside it.  A count wrapper only counts,
so its time stays with the span that called it.  The wrapper is bound under
every name that held the original: every attribute of a `treebound` module
(names imported with `from ... import` included) and, for a method, every
name its class gives it (`__rmul__ = __mul__`).  A target that no longer
exists is skipped and its metrics are absent from the report.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple


def _found_counts(result) -> Dict[str, int]:
    """Iterations and certificate size of a converged search (`Found`)."""
    cert = getattr(result, "certificate", None)
    if cert is None:
        return {}
    return {"search.iterations": result.iterations,
            "search.cert_vectors": len(cert.vectors)}


@dataclass(frozen=True)
class Layer:
    name: str                    # metric prefix, e.g. "numeric.mul"
    targets: Tuple[str, ...]     # "module:qualified.name"
    report: Tuple[str, ...]      # suffixes reported: "calls" and/or "s"
    timed: bool = True           # False: count calls, record no span
    result_counts: Optional[Callable[[object], Dict[str, int]]] = None
    extra: Tuple[str, ...] = ()  # metric names result_counts yields


LAYERS: Tuple[Layer, ...] = (
    Layer("numeric.mul", ("treebound.numeric:AlgebraicNumber.__mul__",),
          ("calls", "s")),
    Layer("numeric.inverse", ("treebound.numeric:AlgebraicNumber.inverse",),
          ("calls", "s")),
    Layer("numeric.sign", ("treebound.numeric:AlgebraicNumber.sign",),
          ("calls", "s")),
    Layer("numeric.refine", ("treebound.numeric:NumberField.refine",),
          ("calls",), timed=False),
    Layer("geometry.member", ("treebound.geometry:member_dominated_hull",),
          ("calls", "s")),
    Layer("geometry.lp", ("treebound.geometry:lp_solve",), ("calls", "s")),
    Layer("geometry.hull_reduce", ("treebound.geometry:hull_reduce",),
          ("calls", "s")),
    Layer("system.apply", ("treebound.system:apply",), ("calls", "s")),
    Layer("system.bk_levels", ("treebound.system:bk_levels",), ("s",)),
    Layer("automaton.fold_shape", ("treebound.automaton:fold_shape",),
          ("calls", "s")),
    Layer("search.find", ("treebound.search:find_certificate",), ("s",),
          result_counts=_found_counts,
          extra=("search.iterations", "search.cert_vectors")),
    Layer("search.verify", ("treebound.search:verify_certificate",), ("s",)),
    Layer("oracle.levels", ("treebound.oracle:max_count_via_levels",), ("s",)),
    Layer("oracle.shapes", ("treebound.oracle:max_count_via_shapes_system",),
          ("s",)),
    Layer("oracle.audit", ("treebound.oracle:bound_audit",), ("s",)),
    Layer("spectral.lower_bound", ("treebound.spectral:lower_bound",
                                   "treebound.spectral:lower_bound_from_matrix"),
          ("s",)),
    Layer("cli.load", ("treebound.system:load_system",
                       "treebound.search:load_certificate",
                       "treebound.spectral:load_gadget"), ("s",)),
)


def metric_names(layer: Layer) -> List[str]:
    return [f"{layer.name}_{suffix}" for suffix in layer.report] \
        + list(layer.extra)


def metric_unit(name: str) -> str:
    return "s" if name.endswith("_s") else "count"


def _resolve(target: str):
    """(holder, original) for "module:qualified.name", or None if gone."""
    modname, qualname = target.split(":")
    *path, attr = qualname.split(".")
    try:
        holder = importlib.import_module(modname)
        for part in path:
            holder = getattr(holder, part)
    except (ImportError, AttributeError):
        return None
    original = vars(holder).get(attr)
    return None if original is None else (holder, original)


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "treebound"
                                  or name.startswith("treebound."))]


class Tracer:
    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: Dict[str, float] = Counter()
        self.counts: Counter = Counter()
        self._stack: List[float] = []     # child time of each open span
        self._undo: List[Tuple[object, str, object]] = []
        self.installed: List[Layer] = []

    def _span(self, layer: Layer, fn):
        name, stack, hook = layer.name, self._stack, layer.result_counts
        calls, self_s, counts = self.calls, self.self_s, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                self_s[name] += dt - stack.pop()
                calls[name] += 1
                if stack:
                    stack[-1] += dt
            if hook is not None:
                counts.update(hook(result))
            return result
        return wrapper

    def _counter(self, layer: Layer, fn):
        name, calls = layer.name, self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _rebind(self, holder, original, wrapper) -> None:
        holders = [holder] if isinstance(holder, type) else _package_modules()
        for h in holders:
            for attr, value in list(vars(h).items()):
                if value is original:
                    self._undo.append((h, attr, original))
                    setattr(h, attr, wrapper)

    def install(self, layers: Tuple[Layer, ...] = LAYERS) -> None:
        for layer in layers:
            found = False
            for target in layer.targets:
                resolved = _resolve(target)
                if resolved is None:
                    continue
                holder, original = resolved
                make = self._span if layer.timed else self._counter
                self._rebind(holder, original, make(layer, original))
                found = True
            if found:
                self.installed.append(layer)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._undo):
            setattr(holder, attr, original)
        self._undo.clear()

    def snapshot(self) -> Dict[str, float]:
        """Cumulative value of every metric of every installed layer."""
        out: Dict[str, float] = {}
        for layer in self.installed:
            for suffix in layer.report:
                table = self.calls if suffix == "calls" else self.self_s
                out[f"{layer.name}_{suffix}"] = table[layer.name]
            for name in layer.extra:
                out[name] = self.counts[name]
        return out
