"""Layer spans recorded from outside the program.

:class:`Tracer` wraps the public entry point of each simulator layer
(the table in ``LAYERS``) with a function that records one span per
call: layer name, start, end, the enclosing span and the cell being
simulated.  Spans stay in memory; :func:`layer_totals` derives each
layer's call count, inclusive time and self time (duration minus the
part covered by direct child spans), and :meth:`Tracer.write` dumps
them as CSV when the run ends.

The wrappers only observe: they call the original with the same
arguments and return its result, so a traced sweep's metrics are
bit-identical to an untraced one (the benchmark checks this on every
traced run).  :meth:`Tracer.uninstall` puts every original back.

A call made while the same layer is already open (``MoCAPolicy.
kernel_decide_apply`` calling ``decide``, ``warm_network_cost_cache``
calling ``build_network_cost``) is passed straight through, so nested
calls of one layer count once.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

#: (layer, module, class or None, attribute).  A class attribute is
#: patched on the class; a module function is patched in every
#: ``repro`` module that bound it by name, so ``from x import f``
#: call sites see the wrapper too.
LAYERS: Tuple[Tuple[str, str, Optional[str], str], ...] = (
    ("experiments.runner.cell", "repro.experiments.runner", None,
     "run_cell_detail"),
    ("sim.workload.generate", "repro.sim.workload", "WorkloadGenerator",
     "generate"),
    ("core.latency.cost_build", "repro.core.latency", None,
     "build_network_cost"),
    ("core.latency.cost_build", "repro.core.latency", None,
     "warm_network_cost_cache"),
    ("sim.engine.run", "repro.sim.engine", "Simulator", "run"),
    ("core.policy.moca.decide", "repro.core.policy", "MoCAPolicy",
     "decide"),
    ("core.policy.moca.decide", "repro.core.policy", "MoCAPolicy",
     "kernel_decide_apply"),
    ("baselines.prema.decide", "repro.baselines.prema", "PremaPolicy",
     "decide"),
    ("baselines.planaria.decide", "repro.baselines.planaria",
     "PlanariaPolicy", "decide"),
    ("baselines.static.decide", "repro.baselines.static_partition",
     "StaticPartitionPolicy", "decide"),
    ("sim.plan.apply", "repro.sim.plan", "AllocationController", "apply"),
    ("metrics.summarize", "repro.metrics.summary", None, "summarize"),
    ("reporting.export", "repro.reporting", None, "sweep_to_json"),
    ("reporting.export", "repro.reporting", None, "sweep_to_csv"),
)

#: One span: (layer, start, end, parent span index or -1, cell id).
Span = Tuple[str, float, float, int, str]

_CELL_LAYER = "experiments.runner.cell"


class Tracer:
    """Install span-recording wrappers; collect spans in memory."""

    def __init__(self) -> None:
        self.spans: List[Optional[Span]] = []
        self._stack: List[int] = []
        self._open: Dict[str, bool] = {}
        self._cell = ""
        self._patches: List[Tuple[object, str, object]] = []

    # -- install / uninstall -------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for layer, module_name, class_name, attr in LAYERS:
            module = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(module, class_name)
                original = owner.__dict__[attr]
                self._patch(owner, attr, self._wrap(layer, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(layer, original)
            for name, mod in sorted(sys.modules.items()):
                if mod is None or not (
                    name == "repro" or name.startswith("repro.")
                ):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner: object, attr: str, wrapper: object) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    # -- recording -------------------------------------------------------

    def reset(self) -> None:
        """Drop recorded spans (between sweeps)."""
        if self._stack:
            raise RuntimeError("reset inside an open span")
        self.spans = []

    def _wrap(self, layer: str, fn: Callable) -> Callable:
        opened = self._open
        opened[layer] = False
        stack = self._stack
        clock = time.perf_counter
        tracer = self
        is_cell = layer == _CELL_LAYER

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if opened[layer]:
                return fn(*args, **kwargs)
            opened[layer] = True
            spans = tracer.spans
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            outer_cell = tracer._cell
            if is_cell:
                # run_cell_detail(spec, policy_name, factory, seed, ...)
                tracer._cell = f"{args[0].label}/{args[1]}/{args[3]}"
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                opened[layer] = False
                spans[index] = (layer, start, end, parent, tracer._cell)
                tracer._cell = outer_cell

        return traced

    # -- output ------------------------------------------------------------

    def write(self, path, origin: float) -> None:
        """Write the spans as CSV (times in seconds from ``origin``)."""
        lines = ["id,parent,layer,cell,start_s,end_s\n"]
        for i, (layer, start, end, parent, cell) in enumerate(self.spans):
            lines.append(
                f"{i},{parent},{layer},{cell},"
                f"{start - origin:.9f},{end - origin:.9f}\n"
            )
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(lines)


def layer_totals(spans) -> Dict[str, Dict[str, float]]:
    """Per layer: ``calls``, inclusive ``total_s`` and ``self_s`` (each
    span's duration minus the durations of its direct children)."""
    children = [0.0] * len(spans)
    for _layer, start, end, parent, _cell in spans:
        if parent >= 0:
            children[parent] += end - start
    out: Dict[str, Dict[str, float]] = {}
    for i, (layer, start, end, _parent, _cell) in enumerate(spans):
        rec = out.setdefault(
            layer, {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        rec["calls"] += 1
        rec["total_s"] += end - start
        rec["self_s"] += end - start - children[i]
    return out
