"""Sampled quotient of a domain's slice pairs by close-circular-lifting.

The disjoint union of a domain's complex slices consists of pairs (z, I)
with tau(I, z) in the domain, z ranging over the full plane; an off-axis
point of the domain therefore appears on two conjugate sheets.  Gluing
pairs with equal z whose underlying points are CCL-equivalent yields a
Riemann domain over C with projection P[(z, I)] = z.

`build_quotient` samples the pairs on a `SlicePairGrid` (a rectangular z
grid crossed with an adapted unit pool, shared with the fiber search of
`ccl_search`) and merges them using three certified moves only:

* an admissible arc between two units at fixed z, i.e. a constant-base
  coupled lifting,
* recoupling at a real column, where every unit lifts the same point,
* infectivity: a pair already merged at a neighboring column rides over
  when both unit legs stay inside the domain.

Classes are the least partition that holds each column's arc or real
classes and is closed under riding, so no visit order is needed: the ride
edges are found in whole-grid rounds, one `components` call per round,
until a round joins nothing.  The merge records are a spanning forest of
each column's classes: taking the column's arc or real edges in admissible
order and then its ride edges, an edge is recorded when it joins two
classes of the edges before it, so a column with m members and c classes
has m - c records.  That is Kruskal's forest with the edges' order as
their weights, and `_ordered_forest` finds it exactly in Borůvka rounds:
once over the arc and real edges of every column, which also gives the
within-column classes, and once over the ride edges between those
classes.  `QuotientSample.records` keeps the records as one integer
table, a row (kind code, column, i, j, tag) per record, and
`merge_records` is its tuple view, built on first read.

Classes are therefore the transitive closures of the records, and
`replay_merge_records` re-verifies records from scratch, as the legs they
stand for, without building a witness: an arc record as the constant
lifting and the arc lifting at its column, 16 pieces each, with the checks
of `ccl_verify`; a real record as the real point every lifting at its
column equals; a ride record as the two straight z legs of its units, 16
pieces each.  The records of one kind are checked together: the real
points in one membership call, and the pieces of all arc (or ride)
liftings in one call of `liftings._pieces_inside`, the kernel of
`ccl_verify`, which decides them in blocks of at most `sampling._GRID_ROWS`
sample rows, so a quotient of any size replays in bounded memory.
`replay_merge_record` is the one-record case.
Since merging is certificate-backed only, component counts of the class
graph are upper bounds on the true quotient's.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from typing import Optional

import numpy as np

from .algebra import Octonion, row_norms, tau_rows
from .diffops import OctField
from .domains import Domain
from .errors import DomainError, EmptySampleError, IntegrityError
from .liftings import _END_TOL, _even_times, _pieces_inside
from .report import Report
from .sampling import SamplePlan, SlicePairGrid, arc_legs, components, near_antipodal
from .stems import StemVector, gamma_stem_rows

ColKey = tuple[int, int]

_Z_MATCH_TOL = 1e-9
# Adjacency hops within which the injectivity check compares classes.
_HOP_RADIUS = 4
# The kinds of merge record, by their code in the record table.
RECORD_KINDS = ("arc", "real", "ride")
_ARC, _REAL, _RIDE = range(len(RECORD_KINDS))
# Sample times per lifting of a replay, as in `ccl_verify`.
_REPLAY_SAMPLES = 2048


@dataclass(frozen=True)
class QuotientClass:
    """One equivalence class: a merged set of unit indices at one column."""

    index: int
    col: ColKey
    z: complex
    unit_ids: tuple[int, ...]


@dataclass
class QuotientSample:
    """Sampled CCL quotient with class labels and the adjacency actually used.

    `records` is the merge record table, int64 (m, 5): per record its kind
    code (its place in `RECORD_KINDS`), its column and its units i and j,
    and a tag: an arc's edge index, -1 at a real column, or a ride's
    source column.  A column is flat, alpha * len(betas) + beta.
    """

    domain: Domain
    plan: SamplePlan
    alphas: np.ndarray
    betas: np.ndarray
    units: np.ndarray
    edges: np.ndarray
    members: dict[ColKey, np.ndarray]
    labels: dict[ColKey, np.ndarray]
    classes: list[QuotientClass]
    class_adjacency: list[tuple[int, ...]]
    component_of: np.ndarray
    records: np.ndarray
    link: float
    separation: float

    def z_of(self, col: ColKey) -> complex:
        return complex(self.alphas[col[0]], self.betas[col[1]])

    @cached_property
    def merge_records(self) -> list[tuple]:
        """`records` as tuples of Python ints, built on first read.

        ("arc", col, i, j, arc edge index), ("real", col, i, j) and
        ("ride", col, i, j, source col), a column as its (alpha, beta)
        index pair.
        """
        kinds, cols, i, j, tags = self.records.T
        cols, i, j = _col_keys(self, cols), i.tolist(), j.tolist()
        # most records are arcs: every row as one, then the others rewritten
        records = list(zip(repeat("arc"), cols, i, j, tags.tolist()))
        for k in np.flatnonzero(kinds == _REAL).tolist():
            records[k] = ("real", cols[k], i[k], j[k])
        rides = np.flatnonzero(kinds == _RIDE)
        for k, source in zip(rides.tolist(), _col_keys(self, tags[rides])):
            records[k] = ("ride", cols[k], i[k], j[k], source)
        return records

    def to_json(self) -> dict:
        points, labels = [], []
        for col in sorted(self.members):
            lab = self.labels[col]
            z = self.z_of(col)
            for uid in np.where(self.members[col])[0]:
                points.append({"z": [z.real, z.imag], "i": self.units[uid].tolist()})
                labels.append(int(lab[uid]))
        return {
            "points": points,
            "labels": labels,
            "components": count_components(self),
            "resolution": {
                "alphas": len(self.alphas),
                "betas": len(self.betas),
                "alpha_step": float(self.alphas[1] - self.alphas[0]) if len(self.alphas) > 1 else 0.0,
                "units": len(self.units),
                "link": self.link,
                "separation": self.separation,
                "seed": self.plan.seed,
            },
        }


def _col_keys(q: QuotientSample, cols: np.ndarray) -> list[ColKey]:
    """The flat columns alpha * len(betas) + beta as (alpha, beta) pairs of Python ints."""
    alphas, betas = np.divmod(cols, len(q.betas))
    return list(zip(alphas.tolist(), betas.tolist()))


def _ordered_forest(n: int, ends: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The edges that join two components when taken in order, and the components.

    The graph has nodes 0..n-1 and the edges `ends` (m, 2), self-loops and
    repeated edges allowed.  Returns (forest, labels): the increasing
    indices of the edges that Kruskal's algorithm keeps when it takes them
    in order, and each node's component, numbered by smallest node as
    `sampling.components` numbers them.  Weighed by their indices the edges
    have distinct weights, so the minimum spanning forest is unique and is
    the one Kruskal keeps.  Borůvka rounds find it exactly: each component
    takes its lowest outgoing edge, and the components those edges join
    become one, named by its smallest node.  A round at least halves the
    components that still have an outgoing edge.
    """
    name = np.arange(n)
    # per node, scratch that each round leaves as it found it
    best, top, rename = np.full(n, len(ends)), np.arange(n), np.arange(n)
    # the edges between two components, and their ends' component names
    a, b = ends.T
    live = np.flatnonzero(a != b)
    a, b = a[live], b[live]
    forest = []
    while len(live):
        # each component's lowest outgoing edge, by its place in `live`
        place = np.arange(len(live))
        np.minimum.at(best, a, place)
        np.minimum.at(best, b, place)
        roots = np.flatnonzero(best < len(ends))
        pick = best[roots]
        best[roots] = len(ends)
        # each component points at the other end of its edge; two that took
        # one edge point at each other, and the smaller becomes their top
        other = a[pick] + b[pick] - roots
        top[roots] = other
        pair = top[other] == roots
        forest.append(live[pick[~pair | (roots < other)]])
        lead = roots[pair & (roots < other)]
        top[lead] = lead
        # the pointers jump until every component points at its top
        while True:
            up = top[top[roots]]
            if np.array_equal(up, top[roots]):
                break
            top[roots] = up
        # a joined component is named by its smallest node, the least of its tree's names
        np.minimum.at(rename, up, roots)
        rename[roots] = rename[up]
        name, a, b = rename[name], rename[a], rename[b]
        top[roots] = rename[roots] = roots
        keep = a != b
        live, a, b = live[keep], a[keep], b[keep]
    forest = np.sort(np.concatenate(forest)) if forest else np.empty(0, dtype=np.int64)
    first = name == np.arange(n)
    return forest, (np.cumsum(first) - 1)[name]


class _Builder:
    def __init__(self, domain: Domain, plan: SamplePlan) -> None:
        self.domain = domain
        self.plan = plan
        self.grid = SlicePairGrid(domain, plan)
        # the nonempty columns, in order; a column's slot is its place here
        cols = list(self.grid.columns())
        self.cols = [col for col, mem in zip(cols, self.grid.members_many(cols)) if mem.any()]
        if not self.cols:
            raise EmptySampleError("no sampled slice pair lies in the domain")
        # The ride table: one row (lo, hi, unit) per unit that rides between
        # neighbouring nonempty columns, lo and hi their slots in `cols`, the
        # smaller column first.
        slot = {col: k for k, col in enumerate(self.cols)}
        pairs = [(col, nb) for col in self.cols for nb in self.grid.neighbors(col) if nb > col and nb in slot]
        n = len(self.grid.units)
        pair, unit = np.nonzero(np.array(self.grid.move_masks(pairs), dtype=bool).reshape(-1, n))
        ends = np.array([(slot[col], slot[nb]) for col, nb in pairs], dtype=np.int64).reshape(-1, 2)
        self.table = np.column_stack([ends[pair], unit])
        # Edges live on all columns side by side: unit u of slot k is node
        # k*n + u.  Ride edges that joined two classes, each tagged with its
        # source slot:
        self.rides: list[tuple[np.ndarray, np.ndarray]] = []

    def merge_within_columns(self) -> None:
        """Certified edges at fixed z, the classes they make per column, and their records.

        A column's edges are its arc edges, or a star on its members at a
        real column, in admissible order, tagged with the arc edge index or
        -1.  `labels[k]` numbers the classes of slot k by smallest unit;
        non-members are singletons.  `within` holds the records, as (ends
        (m, 2), tags): the edges of all columns, in order, that join two
        classes of the edges before them.
        """
        grid = self.grid
        n = len(grid.units)
        real = [grid.is_real_col(col) for col in self.cols]
        arcs = iter(grid.arc_masks([col for col, r in zip(self.cols, real) if not r]))
        ends, tags = [], []
        for k, (col, mem) in enumerate(zip(self.cols, grid.members_many(self.cols))):
            if real[k]:
                ids = np.flatnonzero(mem)
                ends.append(np.column_stack([np.full(len(ids) - 1, ids[0]), ids[1:]]) + k * n)
                tags.append(np.full(len(ids) - 1, -1))
            else:
                tags.append(np.flatnonzero(next(arcs)))
                ends.append(grid.edges[tags[-1]] + k * n)
        ends, tags = np.concatenate(ends), np.concatenate(tags)
        forest, labels = _ordered_forest(len(self.cols) * n, ends)
        self.within = (ends[forest], tags[forest])
        # a slot's components are numbered consecutively from its unit 0's
        self.labels = labels.reshape(len(self.cols), n)
        self.labels -= self.labels[:, :1]
        self.within_labels = self.labels

    def propagate_infectivity(self) -> None:
        """Merge the units that ride over together from one neighbouring class, in whole-grid rounds.

        A round takes every row of the ride table in both directions: each
        unit rides with the first ridable unit of its class at the source
        column, and where the two sit in different classes at the target,
        the edge between them is kept as a ride and the classes join.  The
        rounds stop when nothing joins, at the least partition that holds
        the classes of `merge_within_columns` and is closed under riding.
        """
        n = len(self.grid.units)
        lo, hi, unit = self.table.T
        src, dst, unit = np.concatenate([lo, hi]), np.concatenate([hi, lo]), np.tile(unit, 2)
        sources, targets = src * n + unit, dst * n + unit
        # the rows of one pair in one direction share a key prefix
        prefix = (src * len(self.cols) + dst) * n
        while True:
            flat = self.labels.reshape(-1)
            _, first, group = np.unique(prefix + flat[sources], return_index=True, return_inverse=True)
            ends = np.column_stack([targets[first][group], targets])
            joins = flat[ends[:, 0]] != flat[ends[:, 1]]
            if not joins.any():
                return
            self.rides.append((ends[joins], src[joins]))
            # the classes join as nodes slot * n + label, one per class of every column
            _, comp = components(flat.size, ends[joins] // n * n + flat[ends[joins]])
            self.labels = np.take_along_axis(comp.reshape(self.labels.shape), self.labels, axis=1)
            self.labels -= self.labels[:, :1]

    def records(self) -> np.ndarray:
        """The merge records, as `QuotientSample.records`.

        Each column's own records come first, column by column, then the
        ride edges that join two classes of the within-column classes and
        the rides before them: Kruskal over the within edges and then the
        rides keeps exactly these, so one spanning forest of every
        column's classes.
        """
        n = len(self.grid.units)
        nb = len(self.grid.betas)
        flat = np.array([a * nb + b for a, b in self.cols], dtype=np.int64)
        ends, tags = self.within
        kinds = np.where(tags < 0, _REAL, _ARC)
        if self.rides:
            rides = np.concatenate([e for e, _ in self.rides])
            sources = np.concatenate([t for _, t in self.rides])
            # the rides join the within-column classes, as nodes slot * n + label
            keep, _ = _ordered_forest(self.labels.size, rides // n * n + self.within_labels.reshape(-1)[rides])
            ends = np.concatenate([ends, rides[keep]])
            kinds = np.concatenate([kinds, np.full(len(keep), _RIDE)])
            tags = np.concatenate([tags, flat[sources[keep]]])
        return np.column_stack([kinds, flat[ends[:, 0] // n], ends % n, tags]).astype(np.int64, copy=False)

    def finish(self) -> QuotientSample:
        grid = self.grid
        member = np.stack(grid.members_many(self.cols))
        # classes in column order, then by smallest unit
        slots, units = np.nonzero(member)
        _, cls, sizes = np.unique(
            slots * len(grid.units) + self.labels[slots, units], return_inverse=True, return_counts=True
        )
        labels = np.full(member.shape, -1, dtype=int)
        labels[slots, units] = cls
        order = np.argsort(cls, kind="stable")
        starts = np.cumsum(sizes) - sizes
        classes = [
            QuotientClass(c, self.cols[k], grid.z_of(self.cols[k]), tuple(ids.tolist()))
            for c, (k, ids) in enumerate(
                zip(slots[order][starts].tolist(), np.split(units[order], starts[1:]))
            )
        ]
        lo, hi, unit = self.table.T
        pairs = np.column_stack([labels[lo, unit], labels[hi, unit]])
        # both directions of every pair, sorted by (a, b) through the key a * C + b
        n_cls = len(classes)
        a, b = pairs[:, 0], pairs[:, 1]
        keys = np.unique(np.concatenate([a * n_cls + b, b * n_cls + a]))
        bounds = np.searchsorted(keys, np.arange(n_cls + 1) * n_cls)
        nbrs = (keys % n_cls).tolist()
        adjacency = [tuple(nbrs[bounds[c] : bounds[c + 1]]) for c in range(n_cls)]
        # each component is named by its smallest class index
        _, comp = components(len(classes), pairs)
        _, smallest = np.unique(comp, return_index=True)
        return QuotientSample(
            domain=self.domain,
            plan=self.plan,
            alphas=grid.alphas,
            betas=grid.betas,
            units=grid.units,
            edges=grid.edges,
            members=dict(zip(self.cols, member)),
            labels=dict(zip(self.cols, labels)),
            classes=classes,
            class_adjacency=adjacency,
            component_of=smallest[comp],
            records=self.records(),
            link=grid.link,
            separation=grid.sep,
        )


def build_quotient(domain: Domain, plan: Optional[SamplePlan] = None) -> QuotientSample:
    """Sample the slice pairs of a domain and glue CCL classes.

    Merges come from admissible arcs, real-column recoupling, and
    equivalences riding over from neighboring columns; a spanning forest of
    the merges is recorded.
    """
    plan = plan or SamplePlan()
    builder = _Builder(domain, plan)
    builder.merge_within_columns()
    builder.propagate_infectivity()
    return builder.finish()


def project_p(q: QuotientSample, class_id: int) -> complex:
    """The common base point of a class, P[(z, I)] = z."""
    if not 0 <= class_id < len(q.classes):
        raise DomainError("unknown quotient class")
    return q.classes[class_id].z


def count_components(q: QuotientSample) -> int:
    return len(np.unique(q.component_of))


def injectivity_violations(q: QuotientSample) -> list[tuple[int, int]]:
    """Distinct class pairs within `_HOP_RADIUS` adjacency hops sharing a projection value."""
    violations = []
    for cls in q.classes:
        seen = {cls.index}
        frontier = [cls.index]
        for _ in range(_HOP_RADIUS):
            nxt = []
            for cid in frontier:
                for other in q.class_adjacency[cid]:
                    if other not in seen:
                        seen.add(other)
                        nxt.append(other)
            frontier = nxt
        for other in sorted(seen - {cls.index}):
            if other > cls.index and abs(q.classes[other].z - cls.z) <= _Z_MATCH_TOL:
                violations.append((cls.index, other))
    return violations


def local_injectivity_check(q: QuotientSample) -> Report:
    """Sampled local injectivity of P: no nearby distinct classes share a z."""
    violations = injectivity_violations(q)
    worst = None
    if violations:
        z = q.classes[violations[0][0]].z
        worst = [z.real, z.imag]
    return Report(
        op="projection-local-injectivity",
        samples=len(q.classes),
        max_residual=float(len(violations)),
        mean_residual=float(len(violations)) / max(len(q.classes), 1),
        tolerance=0.0,
        passed=not violations,
        worst_point=worst,
    )


def quotient_stem(f: OctField, q: QuotientSample, class_id: int) -> StemVector:
    """Stem vector of a slice Fueter-regular field on one quotient class.

    Evaluates the stem at every member of the class, with the sign of v
    flipped on the conjugate sheet, and demands they agree to 1e-6; any
    disagreement means an invalid merge and raises an integrity error.
    """
    if not 0 <= class_id < len(q.classes):
        raise DomainError("unknown quotient class")
    cls = q.classes[class_id]
    beta = cls.z.imag
    if abs(beta) <= 1e-9:
        x = Octonion.from_real_imag(cls.z.real, np.zeros(7))
        return StemVector(f.evaluate(x), Octonion.zero())
    pts = tau_rows(cls.z.real, beta, q.units[list(cls.unit_ids)])
    us, vs = gamma_stem_rows(f, pts)
    if beta < 0:
        vs = -vs
    spread = max(float(np.ptp(us, axis=0).max()), float(np.ptp(vs, axis=0).max()))
    if spread > 1e-6:
        raise IntegrityError(
            f"class {class_id} stems disagree by {spread:.3e}; a merge is invalid"
        )
    return StemVector(Octonion(us[0]), Octonion(vs[0]))


def class_at(q: QuotientSample, x: Octonion) -> int:
    """Class index of a point whose projection lies on the sampled grid.

    The point must lie in the domain.  Its unit need not be in the pool: it
    is attached to the nearest member unit through a fully probed arc,
    which is itself a certified merge.
    """
    a, b = x.re, x.im_norm
    ia = int(np.argmin(np.abs(q.alphas - a)))
    ib = int(np.argmin(np.abs(q.betas - b)))
    if abs(q.alphas[ia] - a) > _Z_MATCH_TOL or abs(q.betas[ib] - b) > _Z_MATCH_TOL:
        raise DomainError("projection of the point is off the sampled grid")
    col = (ia, ib)
    if col not in q.members:
        raise DomainError("no sampled class at the point's column")
    # the attachment arc's rows are its interior chord points only
    if not q.domain.contains(x):
        raise DomainError("the point lies outside the domain")
    lab = q.labels[col]
    if b <= 1e-9:
        return int(lab[np.where(q.members[col])[0][0]])
    u = x.imag_part().coeffs[1:] / b
    member_ids = np.where(q.members[col])[0]
    dists = np.linalg.norm(q.units[member_ids] - u, axis=1)
    order = np.argsort(dists)
    z = q.z_of(col)
    for k in order[:12]:
        w = q.units[member_ids[k]]
        if dists[k] <= 1e-12:
            return int(lab[member_ids[k]])
        if near_antipodal(u[None], w[None])[0]:
            continue
        # attachment arcs may span several links, so the probe spacing
        # follows the pool separation instead of a fixed count
        n = max(25, int(4.0 * dists[k] / max(q.separation, 1e-9)))
        if q.domain.legs_inside(*arc_legs(z, u[None], w[None], np.linspace(0.0, 1.0, n + 2)[1:-1]))[0]:
            return int(lab[member_ids[k]])
    raise DomainError("no admissible arc reaches a sampled unit at this resolution")


def replay_merge_record(q: QuotientSample, record: tuple) -> bool:
    """`replay_merge_records` of one record."""
    return bool(replay_merge_records(q, [record])[0])


def replay_merge_records(q: QuotientSample, records) -> np.ndarray:
    """Re-verify merge records' certificates from scratch, as the legs they stand for, as bool[n].

    `records` is a record table (`QuotientSample.records`) or a sequence
    of record tuples (`merge_records`), which become one table first.  An
    arc record is its coupled lifting at |beta|, the constant one and the
    arc, checked like `ccl_verify`; a real record is the real point every
    lifting at its column equals; a ride record is its units' two z legs,
    and the source column must still merge the pair.  Every record's kind
    is checked before any work.  The records of one kind are checked
    together: the real points in one `contains_batch` call, the liftings
    of the arcs and of the rides each in one `_pieces_inside` call, which
    decides their pieces in blocks of bounded rows.
    """
    table = records if isinstance(records, np.ndarray) else _record_table(q, records)
    kinds = table[:, 0]
    codes = set(kinds.tolist())
    unknown = codes.difference(range(len(RECORD_KINDS)))
    if unknown:
        raise DomainError(f"unknown merge record kind code {min(unknown)}")
    flags = np.zeros(len(table), dtype=bool)
    for kind in sorted(codes):
        ids = np.flatnonzero(kinds == kind) if len(codes) > 1 else slice(None)
        rows = table[ids]
        flags[ids] = _REPLAYS[kind](q, _z_at(q, rows[:, 1]), rows[:, 2:4], rows[:, 4])
    return flags


def _record_table(q: QuotientSample, records) -> np.ndarray:
    """Record tuples as rows of a record table; an unknown kind raises `DomainError`."""
    nb = len(q.betas)
    rows = []
    for r in records:
        if r[0] not in RECORD_KINDS:
            raise DomainError(f"unknown merge record kind {r[0]!r}")
        kind = RECORD_KINDS.index(r[0])
        tag = -1 if kind == _REAL else r[4] if kind == _ARC else r[4][0] * nb + r[4][1]
        rows.append((kind, r[1][0] * nb + r[1][1], r[2], r[3], tag))
    return np.array(rows, dtype=np.int64).reshape(-1, 5)


def _z_at(q: QuotientSample, cols: np.ndarray) -> np.ndarray:
    """`q.z_of` of the flat columns alpha * len(betas) + beta, as complex[m]."""
    a, b = np.divmod(cols, len(q.betas))
    z = np.empty(len(cols), dtype=complex)
    z.real = q.alphas[a]
    z.imag = q.betas[b]
    return z


def _replay_real(q: QuotientSample, z: np.ndarray, pairs, tags) -> np.ndarray:
    return q.domain.contains_batch(tau_rows(z.real, 0.0, np.zeros(7)))


def _replay_arcs(q: QuotientSample, z: np.ndarray, pairs: np.ndarray, tags) -> np.ndarray:
    # an arc below the axis is lifted at |beta| with the units flipped, and
    # a unit path normalises its vertices
    ends_at = q.units[pairs]
    units = np.where(z.imag < 0, -1.0, 1.0)[:, None, None] * ends_at
    units /= row_norms(units)[..., None]
    # each record's constant lifting, then its arc, over the still base at |beta|
    verts = units[:, _ARC_LIFTINGS].reshape(-1, 2, 7)
    base = np.repeat(z, 2)
    base.imag = np.abs(base.imag)
    inside, ends = _pieces_inside(q.domain, base, base, _even_times(2), verts, _REPLAY_SAMPLES)
    ends = ends.reshape(len(z), 2, 2, 8)
    # the common start, and each lifting's end at its unit's point
    x = tau_rows(z.real[:, None], z.imag[:, None], ends_at)
    gaps = row_norms(np.concatenate([ends[:, :1, 0] - ends[:, 1:, 0], ends[:, :, 1] - x], axis=1))
    return np.concatenate([gaps <= _END_TOL, inside.reshape(-1, 2)], axis=1).all(axis=1)


def _replay_rides(q: QuotientSample, z: np.ndarray, pairs: np.ndarray, sources) -> np.ndarray:
    # the labels of the distinct source columns, one row each
    cols, slot = np.unique(sources, return_inverse=True)
    labels = np.stack([q.labels[col] for col in _col_keys(q, cols)])[slot.reshape(-1, 1), pairs]
    flags = (labels[:, 0] == labels[:, 1]) & (labels[:, 0] >= 0)
    if flags.any():
        units = q.units[pairs[flags]]
        units /= row_norms(units)[..., None]
        # each unit's z leg from the source column, a lifting with a fixed unit
        verts = np.repeat(units[:, :, None], 2, axis=2).reshape(-1, 2, 7)
        source = _z_at(q, sources[flags])
        z0, z1 = np.repeat(source, 2), np.repeat(z[flags], 2)
        inside, _ = _pieces_inside(q.domain, z0, z1, _even_times(2), verts, _REPLAY_SAMPLES)
        flags[flags] = inside.reshape(-1, 2).all(axis=1)
    return flags


# The unit vertices of an arc record's two liftings: the constant one, then the arc.
_ARC_LIFTINGS = np.array([[0, 0], [0, 1]])
# The replay of each kind, by code.
_REPLAYS = (_replay_arcs, _replay_real, _replay_rides)

