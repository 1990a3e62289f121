"""Span tracing from outside the package.

`Tracer.install()` replaces public functions of claimgan's modules with
wrappers that record one span per call: name, start, end and the index of
the enclosing span. Every module binding that holds the original function
is replaced, so calls through `from .nets import forward` in a consumer
module are traced as well as calls through the defining module. Spans are
kept in flat in-memory arrays while the workload runs; `summary()` derives
calls, total time and self time per name from them afterwards, and
`save()` writes them out.

The wrappers also count computed work: matmul flops for `forward` and
`backward` (2 and 4 flops per weight per batch row) and bytes of
parameter, gradient and moment arrays touched by `optimizer_step`. Both
are computed from array shapes, not measured.
"""

from __future__ import annotations

import sys
import time
from array import array

# (defining module, public function); the span and per-layer metric names
# are module.function.
TRACED = (
    ("nets", "forward"),
    ("nets", "backward"),
    ("nets", "optimizer_step"),
    ("nets", "numeric_gradients"),
    ("nets", "checkpoint_save"),
    ("trigan", "d_p_step_grads"),
    ("trigan", "d_n_step_grads"),
    ("trigan", "d_y_step_grads"),
    ("trigan", "g_p_step_grads"),
    ("trigan", "g_n_step_grads"),
    ("trigan", "g_y_step_grads"),
    ("trigan", "train"),
    ("trigan", "classify_batch"),
    ("metrics", "similarity_report"),
    ("metrics", "emit"),
    ("data", "load_claims"),
    ("data", "make_pairs"),
    ("data", "embed_pairs"),
    ("data", "split"),
    ("config", "load_config"),
    ("equilibrium", "v_star"),
    ("equilibrium", "verify_equilibrium"),
    ("equilibrium", "simplex_grid"),
    ("gradcheck", "check_all_gradients"),
    ("variants", "inverted_d_n_grads"),
    ("variants", "inverted_g_p_grads"),
    ("variants", "inverted_g_n_grads"),
    ("variants", "symmetric_d_p_grads"),
    ("variants", "symmetric_g_p_grads"),
    ("variants", "symmetric_d_n_grads"),
    ("variants", "symmetric_g_n_grads"),
    ("cli", "main"),
)

PACKAGE = "claimgan"
STEP_SPAN = "trigan.step"
TRAIN_SPAN = "trigan.train"
KDTREE_SPAN = "metrics.cKDTree"
KDTREE_QUERY_SPAN = "metrics.cKDTree.query"


def _weights(net) -> int:
    return sum(layer.weight.size for layer in net.layers)


def _params(net) -> int:
    return sum(layer.weight.size + layer.bias.size for layer in net.layers)


def _forward_work(net, batch, *_, **__) -> int:
    return 2 * len(batch) * _weights(net)


def _backward_work(net, cache, *_, **__) -> int:
    return 4 * len(cache[0][0]) * _weights(net)


def _optimizer_work(net, grads, state, *_, **__) -> int:
    # adam reads parameter, gradient and both moments and writes parameter
    # and both moments; sgd reads parameter and gradient and writes parameter
    touched = 7 if state.algorithm == "adam" else 3
    return touched * 8 * _params(net)


WORK = {
    "nets.forward": _forward_work,
    "nets.backward": _backward_work,
    "nets.optimizer_step": _optimizer_work,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.work = array("q")
        self._stack = [-1]

    def _name(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, work=None):
        """Return fn wrapped to record one span per call."""
        nid = self._name(name)
        stack, name_id, parent = self._stack, self.name_id, self.parent
        start, end, work_arr = self.start, self.end, self.work
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            w = work(*args, **kwargs) if work else 0
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            work_arr.append(w)
            end.append(0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        """Patch every binding of each traced function in the package."""
        modules = [m for n, m in sys.modules.items()
                   if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for mod_name, attr in TRACED:
            span = f"{mod_name}.{attr}"
            orig = getattr(sys.modules[f"{PACKAGE}.{mod_name}"], attr)
            wrapped = self.wrap(span, orig, WORK.get(span))
            for mod in modules:
                if getattr(mod, attr, None) is orig:
                    setattr(mod, attr, wrapped)
        # metrics binds scipy's cKDTree by name: time construction and query
        metrics = sys.modules[f"{PACKAGE}.metrics"]
        tree_cls = metrics.cKDTree
        build = self.wrap(KDTREE_SPAN, tree_cls)
        query = self.wrap(KDTREE_QUERY_SPAN, tree_cls.query)

        class TracedTree:
            def __init__(self, *args, **kwargs):
                self._tree = build(*args, **kwargs)

            def query(self, *args, **kwargs):
                return query(self._tree, *args, **kwargs)

            def __getattr__(self, item):
                return getattr(self._tree, item)

        metrics.cKDTree = TracedTree

    def summary(self) -> dict:
        """Per span name: calls, total_s, self_s, work; plus per-name call
        and work totals restricted to spans inside trigan.train and inside
        training steps."""
        import numpy as np

        n = len(self.start)
        names = self.names
        nid = np.frombuffer(self.name_id, dtype=np.int32, count=n)
        par = np.frombuffer(self.parent, dtype=np.int32, count=n)
        dur = (np.frombuffer(self.end, dtype=np.int64, count=n)
               - np.frombuffer(self.start, dtype=np.int64, count=n))
        work = np.frombuffer(self.work, dtype=np.int64, count=n)
        if n and np.any(dur < 0):
            raise RuntimeError("span left open")
        has_parent = par >= 0
        child_ns = np.bincount(par[has_parent], weights=dur[has_parent], minlength=n)
        self_ns = dur - child_ns
        # parents are recorded before their children, so one forward pass
        # propagates "inside a span named X" flags down the tree
        in_train = np.zeros(n, dtype=bool)
        in_step = np.zeros(n, dtype=bool)
        train_id = self._ids.get(TRAIN_SPAN, -1)
        step_id = self._ids.get(STEP_SPAN, -1)
        for i in range(n):
            p = par[i]
            if p >= 0:
                in_train[i] = in_train[p] or nid[p] == train_id
                in_step[i] = in_step[p] or nid[p] == step_id
        out = {}
        for k, name in enumerate(names):
            mask = nid == k
            out[name] = {
                "calls": int(mask.sum()),
                "total_s": float(dur[mask].sum()) / 1e9,
                "self_s": float(self_ns[mask].sum()) / 1e9,
                "calls_in_train": int((mask & in_train).sum()),
                "work_in_step": int(work[mask & in_step].sum()),
            }
        return out

    def save(self, path: str) -> None:
        """Write the spans as flat arrays plus the name table."""
        import numpy as np

        n = len(self.start)
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32, count=n),
            parent=np.frombuffer(self.parent, dtype=np.int32, count=n),
            start_ns=np.frombuffer(self.start, dtype=np.int64, count=n),
            end_ns=np.frombuffer(self.end, dtype=np.int64, count=n),
            work=np.frombuffer(self.work, dtype=np.int64, count=n),
        )
