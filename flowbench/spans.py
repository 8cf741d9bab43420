"""Span tracing of the ``repro`` layers, installed from outside the library.

:func:`install` wraps the public functions and methods listed in
:data:`SPANNED` for the duration of a ``with`` block.  Each wrapper records a
span -- id, parent id, name, start, end -- into a :class:`Recorder` held in
memory, and the recorder keeps per-name self time (duration minus the part
covered by child spans), inclusive time and call counts as it goes.  The
functions in :data:`COUNTED` are called far too often for a span each; their
wrappers only count calls, and their time stays with the enclosing span.

Module-level functions are imported by name all over the package (for
example ``sink_delays`` is bound in ``repro.opt.base``,
``repro.analysis.skew`` and ``repro.analysis.validate``), so a function
target is replaced in *every* loaded module that binds it, after importing
the whole package once.  Method targets are replaced on their class.
Everything is restored when the block exits, so untraced and traced flows
can alternate in one process.
"""

from __future__ import annotations

import importlib
import json
import pkgutil
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

__all__ = ["SPANNED", "COUNTED", "LAYERS", "Recorder", "install", "write_ndjson"]

#: (layer, module, attribute) of every function or method that gets a span.
#: The span is named after the attribute.
SPANNED: Tuple[Tuple[str, str, str], ...] = (
    ("circuits", "repro.api.spec", "InstanceSpec.build"),
    ("core", "repro.core.ast_dme", "AstDme.route"),
    ("core", "repro.core.merging_order", "MergePairSelector.pairs_for_pass_arrays"),
    ("core", "repro.core.merge_batch", "plan_merges"),
    ("core", "repro.core.merge_batch", "resolve_split"),
    ("cts", "repro.cts.tree", "ClockTree.add_internal"),
    ("cts", "repro.cts.tree", "ClockTree.add_sink"),
    ("cts", "repro.cts.tree", "ClockTree.as_arena"),
    ("cts", "repro.cts.tree", "ClockTree.copy_subtree_from"),
    ("delay", "repro.delay.elmore", "sink_delays"),
    ("delay", "repro.delay.elmore", "elmore_delays"),
    ("delay", "repro.delay.elmore", "subtree_capacitances"),
    ("delay", "repro.delay.rc_tree", "oracle_delays"),
    ("geometry", "repro.geometry.obstacles", "ObstacleSet.detour_distance"),
    ("geometry", "repro.geometry.obstacles", "ObstacleSet.route"),
    ("opt", "repro.opt.optimizer", "optimize_routing"),
    ("opt", "repro.opt.buffering", "BufferInsertPass.run"),
    ("opt", "repro.opt.reembed", "ReembedPass.run"),
    ("opt", "repro.opt.skew_repair", "SkewRepairPass.run"),
    ("opt", "repro.opt.recovery", "WirelengthRecoveryPass.run"),
    ("analysis", "repro.analysis.skew", "skew_report"),
    ("analysis", "repro.analysis.wirelength", "wirelength_report"),
    ("analysis", "repro.analysis.validate", "validate_result"),
    ("eco", "repro.eco.engine", "eco_reroute"),
)

#: (module, attribute) of the hot geometry predicates that are only counted.
COUNTED: Tuple[Tuple[str, str], ...] = (
    ("repro.geometry.obstacles", "ObstacleSet.blocks_segment"),
    ("repro.geometry.obstacles", "ObstacleSet.blocks_point"),
)

LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(layer for layer, _, _ in SPANNED))


class Recorder:
    """Spans and per-name aggregates of one traced flow (single-threaded)."""

    def __init__(self) -> None:
        #: ``(span_id, parent_id, name, start, end)``, in completion order.
        self.spans: List[Tuple[int, Optional[int], str, float, float]] = []
        self.self_seconds: Dict[str, float] = defaultdict(float)
        self.total_seconds: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        #: Summed duration of the spans without a parent.
        self.root_seconds = 0.0
        self.layer_of: Dict[str, str] = {}
        #: Targets that did not resolve (renamed or removed from the library).
        self.missing: List[str] = []
        self._stack: List[list] = []
        self._next_id = 0

    def span_wrapper(self, name: str, fn: Callable) -> Callable:
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id = span_id + 1
            parent = stack[-1] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if parent is None:
                    self.root_seconds += duration
                else:
                    parent[1] += duration
                self.self_seconds[name] += duration - frame[1]
                self.total_seconds[name] += duration
                self.calls[name] += 1
                self.spans.append(
                    (span_id, None if parent is None else parent[0], name, start, end)
                )

        return _like(wrapper, fn)

    def count_wrapper(self, name: str, fn: Callable) -> Callable:
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return _like(wrapper, fn)

    def layer_self_seconds(self) -> Dict[str, float]:
        totals = {layer: 0.0 for layer in LAYERS}
        for name, seconds in self.self_seconds.items():
            totals[self.layer_of[name]] += seconds
        return totals


def _like(wrapper: Callable, fn: Callable) -> Callable:
    wrapper.__name__ = getattr(fn, "__name__", "wrapper")
    wrapper.__qualname__ = getattr(fn, "__qualname__", wrapper.__name__)
    wrapper.__doc__ = fn.__doc__
    wrapper.__wrapped__ = fn
    return wrapper


def _import_package(package: str = "repro") -> None:
    """Import every submodule so each by-name binding exists before patching."""
    root = importlib.import_module(package)
    for info in pkgutil.walk_packages(root.__path__, package + "."):
        importlib.import_module(info.name)


def _resolve(module_name: str, attr: str):
    """``(owner class or None, attribute name, original)`` or None if absent."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if path:
        original = owner.__dict__.get(name)
        return None if original is None else (owner, name, original)
    original = getattr(owner, name, None)
    return None if original is None else (None, name, original)


@contextmanager
def install(recorder: Recorder) -> Iterator[Recorder]:
    """Route every target through ``recorder`` inside the block."""
    _import_package()
    undo: List[Tuple[object, str, object]] = []
    loaded = [
        module
        for module_name, module in list(sys.modules.items())
        if module is not None and module_name.split(".")[0] in ("repro", "flowbench")
    ]
    targets = [(layer, module, attr, True) for layer, module, attr in SPANNED]
    targets += [(None, module, attr, False) for module, attr in COUNTED]
    try:
        for layer, module_name, attr, spanned in targets:
            resolved = _resolve(module_name, attr)
            if resolved is None:
                recorder.missing.append("%s.%s" % (module_name, attr))
                continue
            owner, name, original = resolved
            wrapper = (
                recorder.span_wrapper(attr, original)
                if spanned
                else recorder.count_wrapper(attr, original)
            )
            if layer is not None:
                recorder.layer_of[attr] = layer
            if owner is not None:
                undo.append((owner, name, original))
                setattr(owner, name, wrapper)
                continue
            for module in loaded:
                for key, value in list(vars(module).items()):
                    if value is original:
                        undo.append((module, key, original))
                        setattr(module, key, wrapper)
        yield recorder
    finally:
        for owner, name, original in reversed(undo):
            setattr(owner, name, original)


def write_ndjson(path, recorder: Recorder, origin: float) -> None:
    """One JSON object per span; times in seconds since ``origin``."""
    with open(path, "w", encoding="utf-8") as handle:
        for span_id, parent_id, name, start, end in recorder.spans:
            handle.write(
                json.dumps(
                    {
                        "span_id": span_id,
                        "parent_id": parent_id,
                        "name": name,
                        "layer": recorder.layer_of[name],
                        "start": start - origin,
                        "end": end - origin,
                    }
                )
            )
            handle.write("\n")
