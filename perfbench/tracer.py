"""Per-layer spans recorded from outside the library.

A Tracer replaces, while it is installed, each public function of an mqfb
layer at the attribute its caller looks it up through: multires calls
``gb.knn_graph`` so ``graphs.knn_graph`` is wrapped, filterbank imported
``build_block_diag_q`` by name so ``filterbank.build_block_diag_q`` is
wrapped, and methods are wrapped on their class.  Each call becomes a span
(name, start, end, parent, graph order n, level index) kept in memory;
``remove`` puts every original back.  Nothing under ``src/`` is changed.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field

import scipy.sparse.linalg as spla

from mqfb import filterbank, graphs, multires
from mqfb.gft import FundamentalOperator
from mqfb.sparse_core import SpdSolver

_MARK = "__perfbench_span__"


def _n_of_first(args):
    return args[0].n


def _n_of_shape(args):
    return args[0].shape[0]


def _n_of_second(args):
    return args[1].n


def _count_edges(span, graph):
    span.counts["edges"] = int(graph.adjacency.nnz)


def _count_fill(span, lu):
    span.counts["fill_nnz"] = int(lu.nnz)


def _n_of_result(span, matrix):
    span.n = int(matrix.shape[0])


# (owner, attribute, span name, n from args, hook on the result)
TARGETS = (
    (multires, "decompose", "multires.decompose", None, None),
    (multires, "reconstruct", "multires.reconstruct", None, None),
    (multires, "linear_approximation", "multires.linear_approximation",
     None, None),
    (multires, "save_tree", "multires.save_tree", None, None),
    (multires, "load_tree", "multires.load_tree", None, None),
    (multires, "save_matrix_market", "sparse_core.mm_write",
     lambda a: a[1].shape[0], None),
    (multires, "load_matrix_market", "sparse_core.mm_read", None,
     _n_of_result),
    (graphs, "knn_graph", "graphs.knn", _n_of_first, _count_edges),
    (graphs, "combinatorial_laplacian", "graphs.laplacian", _n_of_first, None),
    (graphs, "normalized_laplacian", "graphs.laplacian", _n_of_first, None),
    (graphs, "random_partition", "graphs.partition",
     lambda a: a[0], None),
    (filterbank, "make_context", "filterbank.make_context",
     _n_of_second, None),
    (filterbank, "analyze", "filterbank.analyze", _n_of_second, None),
    (filterbank, "synthesize", "filterbank.synthesize", _n_of_second, None),
    (filterbank, "build_block_diag_q", "sparse_core.q_build",
     _n_of_shape, None),
    (filterbank, "mq_eigendecompose", "gft.eigh", _n_of_shape, None),
    (filterbank, "dense_spectral_filter", "gft.dense_filter",
     _n_of_first, None),
    (SpdSolver, "__init__", "sparse_core.factor",
     lambda a: a[1].shape[0], None),
    (SpdSolver, "solve", "sparse_core.solve", lambda a: a[0].n, None),
    (spla, "splu", "sparse_core.splu", _n_of_shape, _count_fill),
    (FundamentalOperator, "apply", "gft.z_apply", lambda a: a[0].n, None),
)


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    n: int | None
    end: float = 0.0
    child_s: float = 0.0
    level: int | None = None
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self):
        return self.end - self.start

    @property
    def self_s(self):
        return self.seconds - self.child_s


class Tracer:
    """Records one span per wrapped call; install() / remove() bracket a run."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._originals = []

    def install(self):
        if self._originals:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, size, hook in TARGETS:
            orig = owner.__dict__[attr]
            self._originals.append((owner, attr, orig))
            setattr(owner, attr, self._wrap(orig, name, size, hook))

    def remove(self):
        while self._originals:
            owner, attr, orig = self._originals.pop()
            setattr(owner, attr, orig)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()

    def _wrap(self, orig, name, size, hook):
        spans, stack = self.spans, self._stack

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            n = None if size is None else int(size(args))
            parent = stack[-1] if stack else None
            span = Span(name, 0.0, parent, n)
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                out = orig(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if parent is not None:
                    spans[parent].child_s += span.seconds
            if hook is not None:
                hook(span, out)
            return out

        setattr(wrapper, _MARK, name)
        return wrapper

    def assign_levels(self, level_sizes):
        """Set each span's level from its graph order n (level 0 is finest).

        Level sizes strictly decrease, so n identifies the level.
        """
        level_of = {n: i for i, n in enumerate(level_sizes)}
        for span in self.spans:
            span.level = level_of.get(span.n)

    def totals(self):
        """name -> {"s", "self_s", "calls", <summed counts>}."""
        out = {}
        for span in self.spans:
            t = out.setdefault(span.name, {"s": 0.0, "self_s": 0.0, "calls": 0})
            t["s"] += span.seconds
            t["self_s"] += span.self_s
            t["calls"] += 1
            for key, val in span.counts.items():
                t[key] = t.get(key, 0) + val
        return out

    def per_level(self):
        """Per level: n, nnz of the level's KNN graph, seconds per span name."""
        levels = {}
        for span in self.spans:
            if span.level is None:
                continue
            lv = levels.setdefault(span.level, {"n": span.n, "nnz": None,
                                                "seconds": {}})
            if "edges" in span.counts:
                lv["nnz"] = span.counts["edges"]
            lv["seconds"][span.name] = (lv["seconds"].get(span.name, 0.0)
                                        + span.seconds)
        return [levels[i] for i in sorted(levels)]

    def records(self):
        """Spans as plain dicts, times in seconds from the first span."""
        t0 = self.spans[0].start if self.spans else 0.0
        return [{"id": i, "name": s.name, "start": s.start - t0,
                 "end": s.end - t0, "parent": s.parent, "level": s.level,
                 "n": s.n, **s.counts}
                for i, s in enumerate(self.spans)]


def wrappers_left():
    """Names of targets that still hold a tracer wrapper."""
    return [f"{owner.__name__}.{attr}"
            for owner, attr, *_ in TARGETS
            if hasattr(owner.__dict__[attr], _MARK)]
