"""Outside-in span tracing of vemoclap's public functions.

The traced run wraps the program's public functions from here, without
any edit to the package: a module-level function is replaced in every
`vemoclap.*` namespace that binds it (`training` imports `forward` by
name, so both `vemoclap.model.forward` and `vemoclap.training.forward`
are wrapped), and a method is replaced on its class. Each call records a
span (name, start, end, parent) in memory; `Tracer.restore` puts every
original back.

The program is single-threaded, so a span's children run one after
another inside it and its self time is its duration minus the sum of its
children's durations. Self times over a tree therefore add up to the
root's duration exactly; `aggregate` reports both so a caller can check.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import os
import sys
from collections import defaultdict
from time import perf_counter_ns

AUTOGRAD_OPS = (
    "matmul",
    "add",
    "scale",
    "softmax",
    "layer_norm",
    "dropout",
    "mean_pool",
    "concat",
    "concat_cols",
    "slice_cols",
    "transpose",
    "stack_rows",
    "reshape",
    "log",
    "clamp_min",
    "take_per_row",
    "sum_all",
)

# (defining module, attribute or Class.method, layer name)
TARGETS = (
    ("vemoclap.container", "read_container", "container.read_container"),
    ("vemoclap.container", "write_blocks", "container.write_blocks"),
    ("vemoclap.model", "load_checkpoint", "model.load_checkpoint"),
    ("vemoclap.model", "forward", "model.forward"),
    ("vemoclap.model", "cross_attention", "model.cross_attention"),
    ("vemoclap.dataset", "sample_indices", "dataset.sample_indices"),
    ("vemoclap.dataset", "select_frames", "dataset.select_frames"),
    ("vemoclap.dataset", "normalize_features", "dataset.normalize_features"),
    ("vemoclap.dataset", "compute_stats", "dataset.compute_stats"),
    *(("vemoclap.autograd", op, f"autograd.{op}") for op in AUTOGRAD_OPS),
    ("vemoclap.autograd", "Graph.backward", "autograd.Graph.backward"),
    ("vemoclap.training", "adam_step", "training.adam_step"),
    ("vemoclap.training", "cross_entropy", "training.cross_entropy"),
    ("vemoclap.training", "evaluate", "training.evaluate"),
    ("vemoclap.training", "predict_label", "training.predict_label"),
    ("vemoclap.training", "train", "training.train"),
    ("vemoclap.rng", "SplitMix64.random", "rng.SplitMix64.random"),
    ("vemoclap.rng", "SplitMix64.derive", "rng.SplitMix64.derive"),
)

LAYER_NAMES = tuple(name for _, _, name in TARGETS)


def _matmul_counts(counters, args) -> None:
    """Work of one `autograd.matmul`, computed from operand shapes."""
    a, b = args[0].data, args[1].data
    m, k = a.shape
    n = b.shape[1]
    counters["autograd.matmul.flops"] += 2 * m * n * k
    counters["autograd.matmul.bytes"] += (m * k + k * n + m * n) * a.itemsize
    ag = sys.modules["vemoclap.autograd"]
    graph = ag.active_graph()
    if graph is not None and graph.mode is ag.Mode.TRAINING:
        counters["autograd.matmul.training_calls"] += 1


def _backward_counts(counters, args) -> None:
    counters["autograd.backward_calls"] += 1
    counters["autograd.tape_entries"] += len(args[0])


def _file_bytes(counter_name):
    def count(counters, args) -> None:
        counters[counter_name] += os.path.getsize(args[0])

    return count


# Counters taken before the call (from its arguments) ...
BEFORE = {
    "autograd.matmul": _matmul_counts,
    "autograd.Graph.backward": _backward_counts,
    "container.read_container": _file_bytes("container.read_container.bytes"),
}
# ... and after it, once the file it writes exists.
AFTER = {"container.write_blocks": _file_bytes("container.write_blocks.bytes")}


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self):
        # One [name, start_ns, end_ns, parent_index] list per span.
        self.spans: list[list] = []
        # Counters per root span name: {root: {counter: total}}.
        self.counters: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self._root = ""
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------
    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        if parent < 0:
            self._root = name
        self.spans.append([name, perf_counter_ns(), 0, parent])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter_ns()
        self._stack.pop()

    def _wrap(self, fn, name: str):
        before, after = BEFORE.get(name), AFTER.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(tracer.counters[tracer._root], args)
            idx = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx)
                if after is not None:
                    after(tracer.counters[tracer._root], args)

        return traced

    # -- install / restore ---------------------------------------------
    def install(self) -> None:
        """Wrap every target in every vemoclap namespace that binds it."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "vemoclap"]
        for mod_name, attr, name in TARGETS:
            owner = sys.modules[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                fn = cls.__dict__[meth]
                self._patch(cls, meth, fn, self._wrap(fn, name))
                continue
            fn = getattr(owner, attr)
            wrapper = self._wrap(fn, name)
            for mod in modules:
                for bound, value in list(vars(mod).items()):
                    if value is fn:
                        self._patch(mod, bound, fn, wrapper)

    def _patch(self, owner, attr, original, wrapper) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.restore()

    # -- results -------------------------------------------------------
    def write(self, path: str) -> None:
        """Spans as gzip'd CSV: index, parent, name, start_ns, end_ns."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("index,parent,name,start_ns,end_ns\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i},{parent},{name},{start},{end}\n")


def aggregate(spans, roots: dict[str, float]) -> dict[str, dict[str, float]]:
    """Per-name calls, busy seconds and self seconds.

    `roots` maps a root span name to the weight its subtree gets (1 for
    the one traced set-up, 1/n for each of n traced rounds), so the
    result describes one set-up plus one average round. Busy time counts
    a span only when no ancestor has the same name. The extra entry
    "trace" holds the weighted root wall time and the weighted sum of
    every self time, which agree when spans nest properly.
    """
    weight = [0.0] * len(spans)
    child_ns = [0] * len(spans)
    for i, (name, start, end, parent) in enumerate(spans):
        if parent < 0:
            weight[i] = roots.get(name, 0.0)
        else:
            weight[i] = weight[parent]
            child_ns[parent] += end - start
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0.0, "s": 0.0, "self_s": 0.0})
    wall = self_sum = 0.0
    for i, (name, start, end, parent) in enumerate(spans):
        w = weight[i]
        if w == 0.0:
            continue
        dur = (end - start) * 1e-9
        self_s = dur - child_ns[i] * 1e-9
        rec = out[name]
        rec["calls"] += w
        rec["self_s"] += w * self_s
        self_sum += w * self_s
        if parent < 0:
            wall += w * dur
        if not _has_ancestor_named(spans, parent, name):
            rec["s"] += w * dur
    result = dict(out)
    result["trace"] = {"wall_s": wall, "self_sum_s": self_sum}
    return result


def _has_ancestor_named(spans, idx: int, name: str) -> bool:
    while idx >= 0:
        if spans[idx][0] == name:
            return True
        idx = spans[idx][3]
    return False
