"""Span tracing of octoslice from the outside, for the per-layer metrics.

`install` replaces each traced function where its callers look it up: in
every loaded octoslice module that holds it under its own name, and on the
domain classes for `contains_batch` and `margin`.  Nothing under `src/`
changes.  A span records its name, start, end, parent span and one size
(rows, edges, pairs or pops, by function); spans are recorded only while an
operation of the benchmark is running, kept in flat arrays in memory, and
written to one `.npz` file at the end of the run.  Self time is a span's
duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from array import array
from pathlib import Path

import numpy as np

FUNCTIONS = {
    "algebra": ("mul", "mul_batch"),
    "sampling": ("adaptive_unit_pool", "arc_probe_graph", "unit_graph_edges"),
    "diffops": ("sliceness_check", "spherical_gamma", "slice_fueter_op", "partial_fd", "stencil_safe"),
    "stems": ("stem_from_gamma", "modulus_local_max_scan", "sfr_check"),
    "golden": ("get_field",),
    "liftings": ("ccl_search", "ccl_verify", "lift_approximate"),
    "quotient": ("build_quotient", "replay_merge_record", "class_at", "quotient_stem"),
    "cli": ("main", "build_parser"),
}
DOMAIN_CLASSES = ("Ball", "BallUnion", "SlabCone", "BallChain", "PredicateDomain")
DOMAIN_METHODS = ("contains_batch", "margin")


def _rows(tracer, args, kwargs, result):
    return len(args[0])


def _method_rows(tracer, args, kwargs, result):
    return len(args[1])


def _edges(tracer, args, kwargs, result):
    return len(result[0])


def _pairs(tracer, args, kwargs, result):
    return len(result)


def _pops(tracer, args, kwargs, result):
    return int(result.nodes)


def _quotient_size(tracer, args, kwargs, result):
    tracer.count("quotient.merge_records", len(result.merge_records))
    tracer.count("quotient.classes", len(result.classes))
    return len(result.classes)


def _out_bytes(tracer, args, kwargs, result):
    argv = args[0] if args else kwargs.get("argv")
    if argv and "--out" in argv:
        path = argv[argv.index("--out") + 1]
        if os.path.exists(path):
            return os.path.getsize(path)
    return 0


SIZES = {
    "algebra.mul_batch": _rows,
    "sampling.arc_probe_graph": _edges,
    "sampling.unit_graph_edges": _pairs,
    "liftings.ccl_search": _pops,
    "quotient.build_quotient": _quotient_size,
    "cli.main": _out_bytes,
}


class Tracer:
    """In-memory span store; recording is on only inside `op` blocks."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.size = array("q")
        self.counters: dict[str, int] = {}
        self._stack: list[int] = []
        self.active = False
        # (span count, counters) at the end of the first round
        self.first_round: tuple[int, dict[str, int]] | None = None

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def count(self, name: str, n: int) -> None:
        if self.active:
            self.counters[name] = self.counters.get(name, 0) + int(n)

    def _open(self, nid: int) -> int:
        sid = len(self.start)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.name.append(nid)
        self.size.append(0)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    def end_round(self) -> None:
        if self.first_round is None:
            self.first_round = (len(self.start), dict(self.counters))

    def op(self, label: str):
        """Context manager: one benchmark operation, the root of its spans."""
        return _OpSpan(self, self.name_id("op." + label))

    def wrap(self, name: str, fn, size=None):
        nid = self.name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            sid = self._open(nid)
            try:
                result = fn(*args, **kwargs)
                if size is not None:
                    self.size[sid] = size(self, args, kwargs, result)
                return result
            finally:
                self._close(sid)

        return traced

    def save(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array(self.names),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            size=np.frombuffer(self.size, dtype=np.int64),
        )


class _OpSpan:
    def __init__(self, tracer: Tracer, nid: int) -> None:
        self.tracer = tracer
        self.nid = nid

    def __enter__(self):
        self.tracer.active = True
        self.sid = self.tracer._open(self.nid)
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.sid)
        self.tracer.active = False
        return False


def _wrap_field(tracer: Tracer, gf) -> None:
    field = gf.field
    field.evaluate = tracer.wrap("golden.evaluate", field.evaluate)
    closed = field.closed_partial
    if closed is not None:

        def counted(x, axis):
            value = closed(x, axis)
            if value is None:
                tracer.count("golden.closed_partial.none", 1)
            return value

        field.closed_partial = counted


def install(tracer: Tracer) -> None:
    """Wrap every traced function in every loaded octoslice module."""
    import octoslice.acceptance  # noqa: F401  (load every importer first)
    import octoslice.cli  # noqa: F401
    from octoslice import domains

    modules = [m for n, m in list(sys.modules.items()) if n == "octoslice" or n.startswith("octoslice.")]
    for short, names in FUNCTIONS.items():
        home = sys.modules["octoslice." + short]
        for fname in names:
            original = getattr(home, fname)
            label = f"{short}.{fname}"
            if label == "golden.get_field":
                wrapped = _field_wrapper(tracer, original)
            else:
                wrapped = tracer.wrap(label, original, SIZES.get(label))
            for mod in modules:
                if getattr(mod, fname, None) is original:
                    setattr(mod, fname, wrapped)
    for cls_name in DOMAIN_CLASSES:
        cls = getattr(domains, cls_name)
        for meth in DOMAIN_METHODS:
            if meth in cls.__dict__:
                size = _method_rows if meth == "contains_batch" else None
                setattr(cls, meth, tracer.wrap(f"domains.{cls_name}.{meth}", cls.__dict__[meth], size))


def _field_wrapper(tracer: Tracer, original):
    inner = tracer.wrap("golden.get_field", original)

    @functools.wraps(original)
    def get_field(name, **kwargs):
        gf = inner(name, **kwargs)
        _wrap_field(tracer, gf)
        return gf

    return get_field


# ---------------------------------------------------------------------------
# Per-layer metrics


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Every per-layer metric over the first round, as {name: (value, unit)}.

    The first round's inputs are the same in every run at one seed, so its
    counts repeat exactly; later rounds draw other inputs.
    """
    n, counters = tracer.first_round
    start = np.frombuffer(tracer.start, dtype=float)[:n]
    dur = np.frombuffer(tracer.end, dtype=float)[:n] - start
    name = np.frombuffer(tracer.name, dtype=np.int32)[:n]
    parent = np.frombuffer(tracer.parent, dtype=np.int32)[:n]
    size = np.frombuffer(tracer.size, dtype=np.int64)[:n]
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
    self_t = dur - child
    ids = {nm: i for i, nm in enumerate(tracer.names)}

    def sel(label):
        return name == ids.get(label, -1)

    def calls(label):
        return float(sel(label).sum())

    def self_s(label):
        return float(self_t[sel(label)].sum())

    def total_size(label):
        return float(size[sel(label)].sum())

    def top_level(meth):
        # calls made from outside the domain layer, e.g. not a union's own balls
        mids = [ids[f"domains.{c}.{meth}"] for c in DOMAIN_CLASSES if f"domains.{c}.{meth}" in ids]
        mask = np.isin(name, mids)
        parent_name = np.where(has_parent, name[np.maximum(parent, 0)], -1)
        return mask, mask & ~np.isin(parent_name, mids)

    cb_all, cb_top = top_level("contains_batch")
    _, mg_top = top_level("margin")

    # rows tested inside witness verification, at any depth below ccl_verify
    verify_id = ids.get("liftings.ccl_verify", -1)
    in_verify = np.zeros(n, dtype=bool)
    for sid in np.flatnonzero(cb_top):
        p = parent[sid]
        while p >= 0 and name[p] != verify_id:
            p = parent[p]
        in_verify[sid] = p >= 0

    search = sel("liftings.ccl_search") & (size > 0)
    pops = float(size[search].sum())
    search_time = float(dur[search].sum())

    values = {
        "algebra.mul.calls": calls("algebra.mul"),
        "algebra.mul.self_s": self_s("algebra.mul"),
        "algebra.mul_batch.rows": total_size("algebra.mul_batch"),
        "domains.contains_batch.calls": float(cb_top.sum()),
        "domains.contains_batch.points": float(size[cb_top].sum()),
        "domains.contains_batch.self_s": float(self_t[cb_all].sum()),
        "domains.Ball.contains_batch.self_s": self_s("domains.Ball.contains_batch"),
        "domains.BallUnion.contains_batch.self_s": self_s("domains.BallUnion.contains_batch"),
        "domains.SlabCone.contains_batch.self_s": self_s("domains.SlabCone.contains_batch"),
        "domains.BallChain.contains_batch.self_s": self_s("domains.BallChain.contains_batch"),
        "domains.margin.calls": float(mg_top.sum()),
        "sampling.adaptive_unit_pool.calls": calls("sampling.adaptive_unit_pool"),
        "sampling.adaptive_unit_pool.self_s": self_s("sampling.adaptive_unit_pool"),
        "sampling.arc_probe_graph.self_s": self_s("sampling.arc_probe_graph"),
        "sampling.arc_probe_graph.edges": total_size("sampling.arc_probe_graph"),
        "sampling.unit_graph_edges.self_s": self_s("sampling.unit_graph_edges"),
        "sampling.unit_graph_edges.pairs": total_size("sampling.unit_graph_edges"),
        "diffops.sliceness_check.self_s": self_s("diffops.sliceness_check"),
        "diffops.spherical_gamma.calls": calls("diffops.spherical_gamma"),
        "diffops.spherical_gamma.self_s": self_s("diffops.spherical_gamma"),
        "diffops.slice_fueter_op.calls": calls("diffops.slice_fueter_op"),
        "diffops.slice_fueter_op.self_s": self_s("diffops.slice_fueter_op"),
        "diffops.partial_fd.calls": calls("diffops.partial_fd"),
        "diffops.stencil_safe.calls": calls("diffops.stencil_safe"),
        "stems.stem_from_gamma.calls": calls("stems.stem_from_gamma"),
        "stems.stem_from_gamma.self_s": self_s("stems.stem_from_gamma"),
        "stems.modulus_local_max_scan.self_s": self_s("stems.modulus_local_max_scan"),
        "stems.sfr_check.self_s": self_s("stems.sfr_check"),
        "golden.get_field.calls": calls("golden.get_field"),
        "golden.get_field.self_s": self_s("golden.get_field"),
        "golden.evaluate.calls": calls("golden.evaluate"),
        "golden.evaluate.self_s": self_s("golden.evaluate"),
        "golden.closed_partial.none": float(counters.get("golden.closed_partial.none", 0)),
        "liftings.ccl_search.calls": calls("liftings.ccl_search"),
        "liftings.ccl_search.self_s": self_s("liftings.ccl_search"),
        "liftings.fiber_search.pops": pops,
        "liftings.ccl_verify.calls": calls("liftings.ccl_verify"),
        "liftings.ccl_verify.points": float(size[cb_top & in_verify].sum()),
        "liftings.ccl_verify.self_s": self_s("liftings.ccl_verify"),
        "liftings.lift_approximate.self_s": self_s("liftings.lift_approximate"),
        "quotient.build_quotient.self_s": self_s("quotient.build_quotient"),
        "quotient.merge_records": float(counters.get("quotient.merge_records", 0)),
        "quotient.classes": float(counters.get("quotient.classes", 0)),
        "quotient.replay_merge_record.calls": calls("quotient.replay_merge_record"),
        "quotient.replay_merge_record.self_s": self_s("quotient.replay_merge_record"),
        "quotient.class_at.calls": calls("quotient.class_at"),
        "quotient.class_at.self_s": self_s("quotient.class_at"),
        "quotient.quotient_stem.calls": calls("quotient.quotient_stem"),
        "quotient.quotient_stem.self_s": self_s("quotient.quotient_stem"),
        "cli.main.calls": calls("cli.main"),
        "cli.main.self_s": self_s("cli.main"),
        "cli.build_parser.self_s": self_s("cli.build_parser"),
        "cli.out_bytes": total_size("cli.main"),
    }
    out = {}
    for key, value in values.items():
        unit = "s" if key.endswith("_s") else ("bytes" if key.endswith("bytes") else "count")
        out[key] = (value, unit)
    out["liftings.fiber_search.pops_per_s"] = (pops / search_time if search_time > 0 else 0.0, "1/s")
    return out
