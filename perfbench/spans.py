"""Outside-in tracing of gapcert's layers, and the per-layer metrics.

`Tracer.install` wraps the public function at each layer boundary with a
recorder of (name, start, end, parent) spans plus one work count taken from
the call's result.  gapcert imports its functions by name, so every module
attribute bound to an original is rebound to its wrapper; otherwise calls
such as `certify` from `limits`, `flow` and `report` would go unrecorded.
Spans stay in memory until `dump` writes them to an .npz file.

`layer_metrics` reads such a file back and derives the per-layer counts,
self times and rates.
"""

from __future__ import annotations

import os
import sys
import time
from typing import Any, Callable, Optional

import numpy as np

# (span name, module, attribute, counts of one call from (args, result)).
# The counts are (work, skipped prefixes).  A span name is "<layer>.<function>".
TARGETS: list[tuple[str, str, str, Optional[Callable[[tuple, Any], tuple[int, int]]]]] = [
    ("subsets.gamma_p_plus", "gapcert.subsets", "gamma_p_plus",
     lambda args, out: (sum(len(ws) for ws in out.buckets.values()), 0)),
    ("subsets.q_plus_boundary", "gapcert.subsets", "q_plus_boundary",
     lambda args, out: (len(out), 0)),
    ("domination.certify", "gapcert.domination", "certify", None),
    ("limits.xi_upper", "gapcert.limits", "xi_upper",
     lambda args, out: (out.iterations, len(out.skipped_prefixes))),
    ("limits.holder_estimate", "gapcert.limits", "holder_estimate", None),
    ("flow.bg_splitting", "gapcert.flow", "bg_splitting", None),
    ("flow.splitting_checks", "gapcert.flow", "splitting_checks", None),
    ("flow.cocycle", "gapcert.flow", "cocycle", None),
    ("flow.stability_probe", "gapcert.flow", "stability_probe",
     lambda args, out: (out.trials, 0)),
    ("config.load_config", "gapcert.config", "load_config", None),
    ("report.write_report", "gapcert.report", "write_report",
     lambda args, out: (os.path.getsize(args[1]), 0)),
]
METHOD_TARGETS = [("linalg.times", "times"), ("linalg.compose", "compose")]
SVD_SPAN = "linalg.svd"

NAMES = [t[0] for t in TARGETS] + [m[0] for m in METHOD_TARGETS] + [SVD_SPAN]
LAYERS = np.array([name.split(".")[0] for name in NAMES])
# Spans of these layers do their caller's work; their time is charged to
# the nearest enclosing span of another layer when computing rates.
ENGINE_LAYERS = ("subsets", "linalg")


def unit(metric: str) -> str:
    """Unit of a per-layer metric, read from its name."""
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith("_s"):
        return "s"
    return "bytes" if metric.endswith("bytes") else "count"


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self) -> None:
        self.names: list[int] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.work: list[int] = []
        self.skipped: list[int] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable, count=None) -> Callable:
        name_id = NAMES.index(name)
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        work, skipped, stack = self.work, self.skipped, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(names)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            work.append(0)
            skipped.append(0)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if count is not None:
                work[index], skipped[index] = count(args, out)
            return out

        return traced

    def install(self) -> None:
        """Wrap every target on every loaded gapcert module that holds it."""
        import importlib

        import numpy.linalg

        from gapcert.linalg import ScaledMatrix

        modules = [m for n, m in list(sys.modules.items())
                   if n == "gapcert" or n.startswith("gapcert.")]
        for name, module, attr, count in TARGETS:
            original = getattr(importlib.import_module(module), attr)
            wrapper = self.wrap(name, original, count)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
        for name, attr in METHOD_TARGETS:
            setattr(ScaledMatrix, attr, self.wrap(name, getattr(ScaledMatrix, attr)))
        numpy.linalg.svd = self.wrap(SVD_SPAN, numpy.linalg.svd)

    def dump(self, path: str) -> None:
        np.savez(
            path,
            names=np.array(self.names, dtype=np.int16),
            parents=np.array(self.parents, dtype=np.int64),
            starts=np.array(self.starts),
            ends=np.array(self.ends),
            work=np.array(self.work, dtype=np.int64),
            skipped=np.array(self.skipped, dtype=np.int64),
        )


def layer_metrics(path: str) -> dict[str, float]:
    """Per-layer metrics of one traced job from its span file.

    busy_s is self time: a span's duration minus the part covered by its
    child spans.  A rate divides work by the time of the spans that did it,
    including the enumeration and linear algebra they called (engine
    layers) but not nested calls into other layers, such as the certify a
    limit-map evaluation may run for its dual certificate.
    """
    with np.load(path) as data:
        names, parents = data["names"], data["parents"]
        starts, ends = data["starts"], data["ends"]
        work, skipped = data["work"], data["skipped"]
    n = len(names)
    duration = ends - starts
    child_time = np.zeros(n)
    has_parent = parents >= 0
    np.add.at(child_time, parents[has_parent], duration[has_parent])
    self_time = duration - child_time
    # owner: the nearest span, itself included, outside the engine layers;
    # parents precede their children, so one forward pass settles it
    engine = np.isin(LAYERS, ENGINE_LAYERS)
    owner = np.empty(n, dtype=np.int64)
    for i in range(n):
        if not engine[names[i]] or parents[i] < 0:
            owner[i] = i
        else:
            owner[i] = owner[parents[i]]
    owned_time = np.zeros(n)
    np.add.at(owned_time, owner, self_time)

    def ids(*span_names: str) -> np.ndarray:
        return np.isin(names, [NAMES.index(s) for s in span_names])

    def rate(amount: float, seconds: float) -> float:
        return amount / seconds if seconds > 0 else 0.0

    gamma = ids("subsets.gamma_p_plus")
    certify = ids("domination.certify")
    xi = ids("limits.xi_upper")
    probe = ids("flow.stability_probe")
    writes = ids("report.write_report")
    parent_names = np.where(has_parent, names[np.maximum(parents, 0)], -1)
    certified_words = work[gamma & (parent_names == NAMES.index("domination.certify"))].sum()
    layer_of = LAYERS[names]

    def busy(layer: str) -> float:
        return float(self_time[layer_of == layer].sum())

    return {
        "subsets.calls": int(gamma.sum()),
        "subsets.words": int(work[gamma].sum()),
        "subsets.busy_s": busy("subsets"),
        "subsets.words_per_s": rate(work[gamma].sum(), duration[gamma].sum()),
        "linalg.products": int(ids("linalg.times", "linalg.compose").sum()),
        "linalg.svd_calls": int(ids(SVD_SPAN).sum()),
        "linalg.busy_s": busy("linalg"),
        "domination.certify_calls": int(certify.sum()),
        "domination.busy_s": busy("domination"),
        "domination.words_per_s": rate(certified_words, owned_time[certify].sum()),
        "limits.xi_calls": int(xi.sum()),
        "limits.prefixes": int(work[xi].sum()),
        "limits.skipped_prefixes": int(skipped[xi].sum()),
        "limits.busy_s": busy("limits"),
        "limits.prefixes_per_s": rate(work[xi].sum(), owned_time[xi].sum()),
        "flow.cocycle_calls": int(ids("flow.cocycle").sum()),
        "flow.splittings": int(ids("flow.bg_splitting").sum()),
        "flow.trials": int(work[probe].sum()),
        "flow.trials_per_s": rate(work[probe].sum(), duration[probe].sum()),
        "flow.busy_s": busy("flow"),
        "config.load_s": float(duration[ids("config.load_config")].sum()),
        "report.write_s": float(duration[writes].sum()),
        "report.bytes": int(work[writes].sum()),
    }
