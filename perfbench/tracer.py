"""Outside-in tracer for the coronakit package.

Nothing under ``src/`` knows about it.  ``Tracer.install`` replaces every
public function of every package module, and every public method of the
classes those modules define, with a wrapper.  Each module binding that
holds the function is patched, not just the defining module's: ``cli``,
``closed_form``, ``resistance`` and ``suite`` import ``linalg`` and
``resistance`` names by value, so patching only the definitions would miss
most calls.

Each wrapped call becomes a span (name, start, end, parent span, op id,
and for ``linalg`` calls the order of the first matrix argument).  Spans
stay in memory in flat arrays and are written out once, at the end.  A few
hot, cheap functions are only counted (``COUNT_ONLY``); their time stays in
their caller's self time.
"""

from __future__ import annotations

import functools
import inspect
import time
import tracemalloc
from array import array
from pathlib import Path

import numpy as np

LAYERS = ("cli", "specfile", "graphs", "corona", "closed_form", "resistance", "linalg", "suite")

# Called tens of thousands of times per op; a span each would dominate the
# trace.  They are counted per op instead.
COUNT_ONLY = frozenset(
    {
        "corona.VertexPartition.role_of",
        "corona.VertexPartition.total",
        "graphs.Graph.degrees",
        "graphs.Graph.neighbors",
        "linalg.max_abs",
        "suite.round_floats",
    }
)

# With ``measure_memory``, these spans record tracemalloc's peak inside the
# call.  tracemalloc slows the package's many small allocations more than
# tenfold, so it runs only in a separate pass, never in a timed one.
MEMORY_SPANS = frozenset({"closed_form.rv_kirchhoff_terms", "closed_form.re_kirchhoff_terms"})


def _public_functions(module):
    for attr, obj in vars(module).items():
        if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not attr.startswith("_"):
            yield attr, obj


def _public_methods(module):
    for cls_name, cls in vars(module).items():
        if inspect.isclass(cls) and cls.__module__ == module.__name__:
            for attr, obj in vars(cls).items():
                if inspect.isfunction(obj) and not attr.startswith("_"):
                    yield cls, f"{cls_name}.{attr}", attr, obj


class Tracer:
    """Span and count recorder; ``install`` patches, ``uninstall`` restores."""

    def __init__(self, measure_memory: bool = False) -> None:
        self.measure_memory = measure_memory
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("q")
        self.op = array("q")
        self.size = array("q")
        self.mem_peak: dict[int, int] = {}
        self.counts: list[int] = []
        self.op_counts: dict[int, list[int]] = {}
        self.current_op = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        """Id of a span or counter name; -1 if nothing by that name was wrapped."""
        return self._ids.get(name, -1)

    def _register(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.counts.append(0)
        return self._ids[name]

    def _wrap(self, name: str, fn):
        nid = self._register(name)
        if name in COUNT_ONLY:
            counts = self.counts

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counts[nid] += 1
                return fn(*args, **kwargs)

            return counted

        start, end, parent, names, ops, size = (
            self.start, self.end, self.parent, self.name, self.op, self.size
        )
        stack, clock, tracer = self._stack, time.perf_counter, self
        sized = name.startswith("linalg.")
        memory = self.measure_memory and name in MEMORY_SPANS

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            i = len(start)
            start.append(0.0)
            end.append(0.0)
            parent.append(stack[-1] if stack else -1)
            names.append(nid)
            ops.append(tracer.current_op)
            shape = getattr(args[0], "shape", None) if sized and args else None
            size.append(shape[0] if shape else -1)
            stack.append(i)
            outermost = memory and not tracemalloc.is_tracing()
            if outermost:
                tracemalloc.start()
            start[i] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                if outermost:
                    tracer.mem_peak[i] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                stack.pop()

        return spanned

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, modules: dict[str, object], only=None) -> None:
        """Wrap the public functions and methods of ``modules`` (short name -> module).

        ``only``, if given, limits the wrapping to those qualified names.
        """
        wrappers = {}
        for short, module in modules.items():
            for attr, fn in _public_functions(module):
                if only is None or f"{short}.{attr}" in only:
                    wrappers[fn] = self._wrap(f"{short}.{attr}", fn)
            for cls, qual, attr, fn in _public_methods(module):
                if only is None or f"{short}.{qual}" in only:
                    self._patch(cls, attr, self._wrap(f"{short}.{qual}", fn))
        for module in modules.values():
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(module, attr, wrappers[obj])

    def peak_mb(self) -> float:
        """Largest tracemalloc peak recorded inside a memory span, in MiB."""
        return max(self.mem_peak.values(), default=0) / 2**20

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def begin_op(self, op_id: int) -> None:
        self.current_op = op_id
        self.counts[:] = [0] * len(self.counts)

    def end_op(self) -> None:
        self.op_counts[self.current_op] = list(self.counts)
        self.current_op = -1

    def write(self, path: Path) -> None:
        """All spans as tab-separated text, then the per-op counters."""
        with open(path, "w", encoding="ascii") as out:
            out.write("op\tname\tstart_s\tend_s\tparent\tsize\n")
            for i in range(len(self.start)):
                out.write(
                    f"{self.op[i]}\t{self.names[self.name[i]]}\t{self.start[i]:.9f}\t"
                    f"{self.end[i]:.9f}\t{self.parent[i]}\t{self.size[i]}\n"
                )
            out.write("# op\tcounter\tcalls\n")
            for op_id, counts in sorted(self.op_counts.items()):
                for nid, value in enumerate(counts):
                    if value:
                        out.write(f"# {op_id}\t{self.names[nid]}\t{value}\n")

    def op_metrics(self) -> dict[int, dict[str, float]]:
        """Per-layer metrics of every traced op, keyed by op id."""
        total = len(self.start)
        start = np.array(self.start, dtype=float)
        dur = np.array(self.end, dtype=float) - start
        parent = np.array(self.parent, dtype=np.int64)
        name = np.array(self.name, dtype=np.int64)
        op = np.array(self.op, dtype=np.int64)
        size = np.array(self.size, dtype=np.int64)
        nested = parent >= 0
        covered = np.zeros(total)
        np.add.at(covered, parent[nested], dur[nested])
        own = dur - covered
        layer_of_name = np.array(
            [LAYERS.index(n.split(".")[0]) for n in self.names] or [0], dtype=np.int64
        )
        layer = layer_of_name[name] if total else np.zeros(0, dtype=np.int64)
        cf, corona = LAYERS.index("closed_form"), LAYERS.index("corona")
        check = self.name_id("suite.check_corona_instance")
        parent_layer = np.where(nested, layer[np.maximum(parent, 0)], -1)
        # Spans open before their children, so a parent's flag is final
        # before any child reads it.
        under_cf = [False] * total
        under_check = [False] * total
        layer_l, name_l = layer.tolist(), name.tolist()
        for i, p in enumerate(parent.tolist()):
            if p >= 0:
                under_cf[i] = under_cf[p] or layer_l[p] == cf
                under_check[i] = under_check[p] or name_l[p] == check
        under_cf, under_check = np.array(under_cf, dtype=bool), np.array(under_check, dtype=bool)

        def ids(*names):
            return [self.name_id(n) for n in names]

        def isin(sel, *names):
            return np.isin(name[sel], ids(*names))

        out = {}
        for op_id in sorted(self.op_counts):
            sel = np.flatnonzero(op == op_id)
            lay = layer[sel]
            counts = self.op_counts[op_id]

            def count(n):
                nid = self.name_id(n)
                return counts[nid] if nid >= 0 else 0

            def self_of(layer_name):
                return float(own[sel][lay == LAYERS.index(layer_name)].sum())

            # Outermost builder calls only: r_vertex_corona calls r_graph.
            build = (lay == corona) & (parent_layer[sel] != corona)
            dispatch = isin(
                sel,
                "closed_form.rv_resistance_matrix", "closed_form.re_resistance_matrix",
                "closed_form.rv_resistance", "closed_form.re_resistance",
            )
            blocks = isin(sel, "closed_form.rv_blocks", "closed_form.re_blocks")
            kf = isin(
                sel,
                "closed_form.rv_kirchhoff_terms", "closed_form.re_kirchhoff_terms",
                "closed_form.rv_kirchhoff", "closed_form.re_kirchhoff",
            )
            oracle = isin(sel, "resistance.resistance_matrix", "resistance.kirchhoff_index")
            pinv = isin(sel, "linalg.pseudo_group_inverse")
            eig = isin(sel, "linalg.sym_eigendecompose")
            eig_order = size[sel][eig]
            cf_pinv = size[sel][pinv & under_cf[sel]]
            out[op_id] = {
                "cli.self_s": self_of("cli"),
                "specfile.load_s": float(dur[sel][isin(sel, "specfile.load_corona_spec")].sum()),
                "graphs.self_s": self_of("graphs"),
                "graphs.laplacian.calls": int(isin(sel, "graphs.laplacian").sum()),
                "corona.build_s": float(dur[sel][build].sum()),
                "corona.build.calls": int(build.sum()),
                "corona.role_of.calls": count("corona.VertexPartition.role_of"),
                "closed_form.dispatch.self_s": float(own[sel][dispatch].sum()),
                "closed_form.blocks.calls": int(blocks.sum()),
                "closed_form.blocks.self_s": float(own[sel][blocks].sum()),
                "closed_form.blocks_in_instances": int((blocks & under_check[sel]).sum()),
                "closed_form.kf.self_s": float(own[sel][kf].sum()),
                "closed_form.oracle_calls": int((oracle & under_cf[sel]).sum()),
                "closed_form.pinv_order_max": int(cf_pinv.max(initial=0)),
                "resistance.calls": int((lay == LAYERS.index("resistance")).sum()),
                "resistance.self_s": self_of("resistance"),
                "linalg.eig.calls": int(eig.sum()),
                "linalg.eig.s": float(dur[sel][eig].sum()),
                "linalg.eig.order_max": int(eig_order.max(initial=0)),
                "linalg.eig.work_n3": int(np.sum(eig_order**3)),
                "linalg.pinv.calls": int(pinv.sum()),
                "linalg.inverse.calls": int(isin(sel, "linalg.sym_inverse").sum()),
                "linalg.self_s": self_of("linalg"),
                "suite.instances": int(isin(sel, "suite.check_corona_instance").sum()),
                "suite.self_s": self_of("suite"),
            }
        return out
