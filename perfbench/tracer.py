"""Span tracer that wraps the public functions of each intervalwalk layer.

While installed, every module of the package that holds a reference to one of
the traced functions (its defining module, and every module that imported it
by name) sees a wrapper instead.  The wrapper records a span (name, start,
end, parent, op id) around the call.  Spans stay in memory; `summary()` turns
them into per-layer self times and per-name call statistics.  Nothing under
`src/` changes: uninstalling restores the original objects.
"""

from __future__ import annotations

import contextlib
import importlib
import pkgutil
import time
from collections import defaultdict

#: (module, function) pairs traced, one group per layer.  Only public names:
#: a name that a later version of the package drops is skipped, and the
#: metrics built on it read zero.
TRACED = (
    ("generate", "generate_instance"),
    ("instancefile", "load_instance"),
    ("instancefile", "save_instance"),
    ("graph", "validate"),
    ("graph", "selection_of"),
    ("graph", "weight_from_selection"),
    ("graph", "one_step_minimizer"),
    ("chain", "transition_matrix"),
    ("chain", "expectation"),
    ("chain", "forward_step"),
    ("chain", "backward_step"),
    ("optimize", "multistart"),
    ("optimize", "local_optimize"),
    ("optimize", "random_extremal_schedule"),
    ("optimize", "improve_at"),
    ("oracle", "exact_bounds"),
    ("oracle", "enumerate_extremal"),
    ("experiments", "run_extrema_count"),
    ("experiments", "run_sweep_comparison"),
    ("cli", "main"),
    ("rng", "substream"),
    ("rng", "derive_seed"),
)

LAYERS = ("generate", "instancefile", "graph", "chain", "optimize", "oracle", "experiments", "cli", "rng")


def _span_name(layer: str, func: str, args, kwargs) -> str:
    if func == "local_optimize":
        order = kwargs.get("order", args[2] if len(args) > 2 else None)
        rl = order is not None and getattr(order, "value", "") == "right-to-left"
        return f"{layer}.descent_{'rl' if rl else 'lr'}"
    return f"{layer}.{func}"


PACKAGE = "intervalwalk"

#: spans whose arguments and return value `results` keeps, for the descent
#: counts and the replays
KEEP_RESULTS = frozenset({"optimize.descent_lr", "optimize.descent_rl"})


class Tracer:
    """Records spans (name, start, end, parent index, op id) around traced
    calls; `results` keeps the arguments and return values of the
    KEEP_RESULTS spans."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.results: list[tuple[str, tuple, dict, object]] = []
        self._stack: list[tuple[int, int]] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, layer: str, func: str, fn):
        spans, stack, results = self.spans, self._stack, self.results
        clock = time.perf_counter

        def traced(*args, **kwargs):
            name = _span_name(layer, func, args, kwargs)
            index = len(spans)
            # a top-level call starts an op; nested spans share its id
            parent, op = stack[-1] if stack else (-1, index)
            spans.append(None)
            stack.append((index, op))
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, op)
            if name in KEEP_RESULTS:
                results.append((name, args, kwargs, out))
            return out

        traced.__wrapped__ = fn
        return traced

    @staticmethod
    def span_cost(calls: int = 20000) -> float:
        """Seconds the wrapper adds to one call: a traced no-op against the
        bare one, median of five rounds, in a tracer of its own."""
        def noop():
            return None

        wrapped = Tracer()._wrap("probe", "noop", noop)
        rounds = []
        for _ in range(5):
            t0 = time.perf_counter()
            for _ in range(calls):
                noop()
            t1 = time.perf_counter()
            for _ in range(calls):
                wrapped()
            t2 = time.perf_counter()
            rounds.append(((t2 - t1) - (t1 - t0)) / calls)
        return sorted(rounds)[2]

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own, for a unit of work
        that no single public function covers."""
        index = len(self.spans)
        parent, op = self._stack[-1] if self._stack else (-1, index)
        self.spans.append(None)
        self._stack.append((index, op))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, op)

    def install(self) -> None:
        pkg = importlib.import_module(PACKAGE)
        modules = [pkg] + [
            importlib.import_module(f"{PACKAGE}.{info.name}") for info in pkgutil.iter_modules(pkg.__path__)
        ]
        for layer, func in TRACED:
            try:
                original = getattr(importlib.import_module(f"{PACKAGE}.{layer}"), func)
            except (ImportError, AttributeError):
                continue
            wrapper = self._wrap(layer, func, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def clear(self) -> None:
        self.spans.clear()
        self.results.clear()

    def summary(self) -> dict:
        """Self time per layer, and per span name its durations and count.

        A span's self time is its duration minus the durations of its direct
        children; child spans never overlap, since the tracer sees one thread.
        """
        child_time = defaultdict(float)
        by_index = {}
        for index, span in enumerate(self.spans):
            if span is None:
                continue
            by_index[index] = span
            if span[3] >= 0:
                child_time[span[3]] += span[2] - span[1]
        self_by_layer = dict.fromkeys(LAYERS, 0.0)
        durations = defaultdict(list)
        for index, (name, start, end, _parent, _op) in by_index.items():
            layer = name.split(".", 1)[0]
            self_by_layer[layer] += (end - start) - child_time[index]
            durations[name].append(end - start)
        return {"self_s": self_by_layer, "durations": dict(durations)}

    def children_of(self, name: str, child: str) -> list[tuple[float, float]]:
        """For each span called `name`, its duration and the summed duration
        of its descendant spans called `child`."""
        roots = {}
        for index, span in enumerate(self.spans):
            if span is not None and span[0] == name:
                roots[index] = [span[2] - span[1], 0.0]
        for span in self.spans:
            if span is None or span[0] != child:
                continue
            parent = span[3]
            while parent >= 0 and parent not in roots:
                parent = self.spans[parent][3]
            if parent >= 0:
                roots[parent][1] += span[2] - span[1]
        return [tuple(v) for v in roots.values()]

