"""In-memory spans around calls into lglift's public functions.

Tracing swaps each traced function, in every loaded lglift module that holds
it, for a wrapper that records a span. Package code looks these names up in
its module globals at call time, so the calls lglift makes into its own
public functions are spanned as well, on their real inputs, and no package
glue is copied here. A parent's self time is its span minus its direct
children. `uninstall` puts the original functions back.
"""

from __future__ import annotations

import functools
import sys
import time
import warnings
from typing import Callable, Dict, List, Optional

import numpy as np

import speed

#: traced public functions, by layer (the lglift module that defines them)
TRACED = {
    "graph": ("build_line_graph", "shortest_path_distance"),
    "lifting": ("forward", "inverse"),
    "shrinkage": (
        "denoise",
        "detail_gains",
        "estimate_sigma_mad",
        "ebayes_threshold",
        "weight_from_data",
        "post_med_cauchy",
        "nlt_denoise",
    ),
    "analysis": ("build_matrices", "condition_number", "sparsity_curve_single"),
    "simulation": (
        "sample_network",
        "add_noise",
        "generate_flow_fixture",
        "embed_pointwise",
        "normalize_unit_variance",
        "compute_metrics",
        "run_experiment",
        "flow_experiment",
        "condition_number_study",
    ),
}

#: simulation drivers whose self time is reported as simulation.driver.self_ms
DRIVERS = (
    "simulation.run_experiment",
    "simulation.flow_experiment",
    "simulation.condition_number_study",
)


def _forward_label(args, kwargs) -> str:
    # forward(values, lg, config, trajectory=None, ...): a given trajectory
    # skips planning, so the two kinds of call are reported apart
    trajectory = kwargs.get("trajectory", args[3] if len(args) > 3 else None)
    return "lifting.forward" if trajectory is None else "lifting.forward_fixed"


class Tracer:
    """Records spans as rows [label, parent, op, start, end] in one list.

    `op` is the index set by `begin_op` (None outside ops, e.g. in set-up).
    `observers` maps a label to a callable run on each result after its span
    has closed, for counters read from return values. `factors` maps an op
    index to the speed factor of that op (speed.py); reported durations are
    rescaled by it.
    """

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.op: Optional[int] = None
        self.observers: Dict[str, Callable] = {}
        self.factors: Dict[Optional[int], float] = {}
        self._stack: List[int] = []
        self._patched: List[tuple] = []

    def begin_op(self, op: int) -> None:
        self.op = op

    def open(self, label: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([label, parent, self.op, time.perf_counter(), None])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][4] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, label: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = _forward_label(args, kwargs) if label == "lifting.forward" else label
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            observer = self.observers.get(name)
            if observer is not None:
                observer(result)
            return result

        return traced

    def install(self) -> None:
        """Swap every traced function for its wrapper in all lglift modules."""
        if self._patched:
            return
        wrappers = {}
        for layer, names in TRACED.items():
            module = sys.modules[f"lglift.{layer}"]
            for name in names:
                fn = getattr(module, name)
                wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{name}", fn))
        for modname, module in list(sys.modules.items()):
            if modname != "lglift" and not modname.startswith("lglift."):
                continue
            for attr, value in list(vars(module).items()):
                fn, wrapper = wrappers.get(id(value), (None, None))
                if fn is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in self._patched:
            setattr(module, attr, value)
        self._patched = []

    def durations_ms(self, label: str) -> List[float]:
        """Rescaled per-call durations of `label`, set-up included."""
        return [
            (s[4] - s[3]) * self.factors.get(s[2], 1.0) * 1e3
            for s in self.spans
            if s[0] == label
        ]

    def self_ms(self, labels) -> List[float]:
        """Rescaled per-call self times of spans whose label is in `labels`."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[1] is not None:
                child[s[1]] += s[4] - s[3]
        return [
            (s[4] - s[3] - child[i]) * self.factors.get(s[2], 1.0) * 1e3
            for i, s in enumerate(self.spans)
            if s[0] in labels
        ]

    def count(self, label: str, ops) -> int:
        return sum(1 for s in self.spans if s[0] == label and s[2] in ops)

    def rows(self):
        """Spans as dicts: raw times in seconds from the first span, and the
        speed factor of their op."""
        t0 = self.spans[0][3] if self.spans else 0.0
        for i, (label, parent, op, start, end) in enumerate(self.spans):
            yield {
                "id": i,
                "name": label,
                "parent": parent,
                "op": op,
                "start_s": start - t0,
                "end_s": end - t0,
                "factor": self.factors.get(op, 1.0),
            }


class Counts:
    """Counters of one op input, read from return values while it runs."""

    def __init__(self) -> None:
        self.plans = {}          # removal order -> LiftingRecord, one per plan
        self.coeffs = 0          # coefficients passed to post_med_cauchy
        self.zeros = 0           # of which the posterior median is exactly 0
        self.fits = 0            # mixing-weight fits (ebayes_threshold calls)
        self.fallbacks = 0       # fits that fell back to w = 0.5

    def exact(self) -> dict:
        """The counters that must repeat exactly; lifting counts are summed
        over the distinct removal orders the op planned or replayed."""
        stages = [st for rec in self.plans.values() for st in rec.stages]
        return {
            "stages": len(stages),
            "relinks": sum(1 for st in stages if st.edges_added),
            "edges_added": sum(len(st.edges_added) for st in stages),
            "nbr_sum": sum(len(st.neighbors) for st in stages),
            "max_nbr": max((len(st.neighbors) for st in stages), default=0),
            "post_med_cauchy_coeffs": self.coeffs,
        }


class TracedRunner:
    """Runs ops with spans on, feeding the counters of the current input."""

    def __init__(self) -> None:
        self.tracer = Tracer()
        self.counts = None
        self.tracer.observers = {
            "lifting.forward": self._plan,
            "lifting.forward_fixed": self._plan,
            "shrinkage.post_med_cauchy": self._shrunk,
        }

    def _plan(self, result) -> None:
        if self.counts is not None:
            record = result[1]
            self.counts.plans.setdefault(record.removal_order, record)

    def _shrunk(self, result) -> None:
        if self.counts is not None:
            arr = np.asarray(result)
            self.counts.coeffs += arr.size
            self.counts.zeros += int(arr.size - np.count_nonzero(arr))

    def run(self, workload, inp, op, counts=None):
        """One traced op; returns (output, raw seconds, speed factor)."""
        self.counts = counts
        first_span = len(self.tracer.spans)
        self.tracer.begin_op(op)
        self.tracer.install()
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                out, seconds, factor = speed.timed(workload.run, inp)
        finally:
            self.tracer.uninstall()
            self.tracer.begin_op(None)
            self.counts = None
        self.tracer.factors[op] = factor
        if counts is not None:
            counts.fits += sum(
                1 for s in self.tracer.spans[first_span:] if s[0] == "shrinkage.ebayes_threshold"
            )
            counts.fallbacks += sum(
                1 for w in caught if "mixing-weight fit failed" in str(w.message)
            )
        return out, seconds, factor
