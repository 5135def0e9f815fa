"""Outside-in layer tracing: spans recorded around the program's functions.

The tracer replaces each layer function under the name its caller looks up
(a module attribute or a class attribute) with a wrapper that records a
span, and puts the original back when tracing ends. A span holds its name,
start, end, parent span and operation id. Spans stay in memory, in flat
arrays, and are written out once, when the run ends.
"""
from __future__ import annotations

import gzip
import json
import statistics
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager

import scipy.optimize

from orbit_isom import _numerics, isom_quotient, lift_verify, orbit_geometry
from orbit_isom.catalog import CatalogAction

OP = "op"


def _record_order(tracer, group):
    tracer.add("repr_model.elements", group.order)


def _record_verdict(tracer, passed):
    tracer.add("orbit_geometry.orbit_test_passes", int(bool(passed)))


def _record_optimizer(tracer, result):
    tracer.add("orbit_geometry.refine_nfev", int(result.nfev))
    tracer.add("orbit_geometry.refine_nit", int(result.nit))


# (owner, attribute, span name, hook on the result). An owner is where the
# caller looks the name up: isom_quotient imports its stage functions by
# name, the rest call through a module or a class attribute.
WRAPPED = (
    (isom_quotient, "enumerate_group", "repr_model.enumerate_group", _record_order),
    (isom_quotient, "fixed_subspace", "repr_model.fixed_subspace", None),
    (isom_quotient, "restrict_group", "repr_model.restrict_group", None),
    (isom_quotient, "commutant_basis", "commutant.commutant_basis", None),
    (isom_quotient, "isotypic_split", "commutant.isotypic_split", None),
    (isom_quotient, "classify_component", "commutant.classify_component", None),
    (isom_quotient, "equivariant_isometry_group", "commutant.equivariant_isometry_group", None),
    (isom_quotient, "compute_kernel", "isom_quotient.compute_kernel", None),
    (isom_quotient, "center_of_group", "isom_quotient.center_of_group", None),
    (isom_quotient, "center_in_component", "isom_quotient.center_in_component", None),
    (isom_quotient, "has_boundary", "orbit_geometry.has_boundary", None),
    (isom_quotient, "orbit_equivalence_test", "orbit_geometry.orbit_equivalence_test",
     _record_verdict),
    (scipy.optimize, "minimize", "scipy.optimize.minimize", _record_optimizer),
    (_numerics, "coordinate_descent", "_numerics.coordinate_descent", None),
    (_numerics, "nullspace", "_numerics.nullspace", None),
    (_numerics, "expm", "_numerics.expm", None),
    (CatalogAction, "element", "catalog.element", None),
    (CatalogAction, "grid", "catalog.grid", None),
    (orbit_geometry, "quotient_distance", "orbit_geometry.quotient_distance", None),
    (lift_verify, "quotient_distance", "orbit_geometry.quotient_distance", None),
    (orbit_geometry, "sector_angle_estimate", "orbit_geometry.sector_angle_estimate", None),
    (lift_verify, "lift_rotation", "lift_verify.lift_rotation", None),
    (lift_verify, "descend_check", "lift_verify.descend_check", None),
)


def span_cost() -> float:
    """Seconds a traced call adds to the call it wraps.

    Times a bare no-op and the same no-op wrapped by a scratch tracer,
    alternately, and returns the median difference per call. Multiplied by
    a span count, it gives the tracing overhead of a pass without comparing
    two passes, whose difference drifts with the machine more than the
    overhead itself.
    """
    calls, rounds = 20000, 7

    def bare():
        return None

    wrapped = Tracer().wrap("noop", bare)
    diffs = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        for _ in range(calls):
            bare()
        t1 = time.perf_counter()
        for _ in range(calls):
            wrapped()
        t2 = time.perf_counter()
        diffs.append(((t2 - t1) - (t1 - t0)) / calls)
    return statistics.median(diffs)


class Tracer:
    """Span recorder for one process; not thread-safe, like the program."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._op_id = -1

    def _open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def add(self, counter: str, value: float) -> None:
        self.counters[counter] += value

    def wrap(self, name: str, fn, hook=None):
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if hook is not None:
                hook(self, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def operation(self, op_id: int):
        """Root span of one benchmark operation."""
        self._op_id = op_id
        idx = self._open(OP)
        try:
            yield
        finally:
            self._close(idx)
            self._op_id = -1

    @contextmanager
    def active(self):
        """Wrap every layer function; restore the originals on exit."""
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in WRAPPED]
        try:
            for owner, attr, name, hook in WRAPPED:
                setattr(owner, attr, self.wrap(name, owner.__dict__[attr], hook))
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    def __len__(self) -> int:
        return len(self.name)

    def durations(self) -> list[float]:
        return [e - s for s, e in zip(self.start, self.end)]

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover.
        Children of one span run one after another, inside it."""
        dur = self.durations()
        own = list(dur)
        for idx, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= dur[idx]
        return own

    def by_name(self, ops=None):
        """{name: (calls, total seconds, self seconds)}, optionally only
        over spans of the given operation ids."""
        dur = self.durations()
        own = self.self_times()
        out: dict[str, list] = {}
        for idx, nid in enumerate(self.name):
            if ops is not None and self.op[idx] not in ops:
                continue
            row = out.setdefault(self.names[nid], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += dur[idx]
            row[2] += own[idx]
        return {k: tuple(v) for k, v in out.items()}

    def children_of(self, parent_name: str, child_name: str, ops) -> int:
        """Number of ``child_name`` spans of the given operation ids whose
        parent is a ``parent_name`` span."""
        pid = self._name_ids.get(parent_name)
        cid = self._name_ids.get(child_name)
        if pid is None or cid is None:
            return 0
        return sum(1 for idx, nid in enumerate(self.name)
                   if nid == cid and self.parent[idx] >= 0
                   and self.name[self.parent[idx]] == pid
                   and self.op[idx] in ops)

    def write(self, path, header: dict) -> None:
        """One JSON header line, then one line per span:
        [name, start, end, parent, op] with times relative to the first span."""
        t0 = self.start[0] if len(self) else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps({**header, "names": self.names,
                                 "counters": dict(self.counters)}) + "\n")
            for idx in range(len(self)):
                fh.write(json.dumps([self.name[idx], round(self.start[idx] - t0, 9),
                                     round(self.end[idx] - t0, 9), self.parent[idx],
                                     self.op[idx]]) + "\n")
