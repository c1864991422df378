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
has m - c records.  Classes are therefore the transitive closures of the
records, and `replay_merge_records` re-verifies records from scratch, as
the legs they stand for, without building a witness: an arc record as the
constant lifting and the arc lifting at its column, 16 pieces each, with
the checks of `ccl_verify`; a real record as the real point every lifting
at its column equals; a ride record as the two straight z legs of its
units, 16 pieces each.  The records of one kind are checked together:
the real points in one membership call, and the pieces of all arc (or
ride) liftings in one call of `liftings._pieces_inside`, the kernel of
`ccl_verify`, which decides them in blocks of at most `sampling._GRID_ROWS`
sample rows, so a quotient of any size replays in bounded memory.
`replay_merge_record` is the one-record case.
Since merging is certificate-backed only, component counts of the class
graph are upper bounds on the true quotient's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import minimum_spanning_tree

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
# Columns whose spanning forests `merge_records` builds at once; it bounds
# the forest's temporaries to a block's edges.
_FOREST_BLOCK = 16
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
    """Sampled CCL quotient with class labels and the adjacency actually used."""

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
    merge_records: list[tuple]
    link: float
    separation: float

    def z_of(self, col: ColKey) -> complex:
        return complex(self.alphas[col[0]], self.betas[col[1]])

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


def _ordered_forest(edges: np.ndarray, width: int) -> np.ndarray:
    """Indices of the edges that join two components when taken in order.

    This is the spanning forest Kruskal's algorithm builds from the edge
    order, i.e. the minimum spanning forest under weights 1, 2, 3, ...
    Nodes k * width to (k + 1) * width - 1 make up column k, and no edge
    joins two columns, so the forest is built `_FOREST_BLOCK` columns at a
    time, on each block's edges in their order; its temporaries scale with
    one block's edges.
    """
    slot = edges[:, 0] // width
    by_col = np.argsort(slot, kind="stable")
    firsts = np.arange(0, int(slot.max(initial=0)) + _FOREST_BLOCK + 1, _FOREST_BLOCK)
    bounds = np.searchsorted(slot, firsts, sorter=by_col)
    return np.sort(np.concatenate([
        block[_block_forest(_FOREST_BLOCK * width, edges[block] - first * width)]
        for first, block in zip(firsts, np.split(by_col, bounds[1:-1]))
    ]))


def _block_forest(n: int, edges: np.ndarray) -> np.ndarray:
    """`_ordered_forest` of one block of columns, whose nodes are 0..n-1."""
    if len(edges) == 0:
        return np.empty(0, dtype=np.int64)
    lo, hi = np.minimum(*edges.T), np.maximum(*edges.T)
    # a repeat of an earlier edge, or a self-loop, never joins anything
    _, first = np.unique(lo * n + hi, return_index=True)
    keep = np.sort(first)
    keep = keep[lo[keep] != hi[keep]]
    graph = coo_matrix((keep + 1.0, (lo[keep], hi[keep])), shape=(n, n))
    return np.sort(minimum_spanning_tree(graph).tocoo().data.astype(np.int64) - 1)


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
        """Certified edges at fixed z, and the classes they make per column.

        `within` holds the edges in the order the records take them, as
        (ends (m, 2), tags), a tag being the arc edge index or -1 at a real
        column.  `labels[k]` numbers the classes of slot k by smallest unit;
        non-members are singletons.
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
        self.within = (np.concatenate(ends), np.concatenate(tags))
        # a slot's components are numbered consecutively from its unit 0's
        _, labels = components(len(self.cols) * n, self.within[0])
        self.labels = labels.reshape(len(self.cols), n)
        self.labels -= self.labels[:, :1]

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

    def merge_records(self) -> list[tuple]:
        """One certified edge per merge: a spanning forest of every column's classes.

        Each column's edges are taken in certified order, its arc or real
        edges in admissible order and then its ride edges; a record is an
        edge that joins two classes of the edges before it.
        """
        n = len(self.grid.units)
        ends = np.concatenate([self.within[0]] + [e for e, _ in self.rides])
        tags = np.concatenate([self.within[1]] + [t for _, t in self.rides])
        chosen = _ordered_forest(ends, n)
        slot = ends[chosen, 0] // n
        ks, tag = slot.tolist(), tags[chosen].tolist()
        i, j = (ends[chosen] % n).T.tolist()
        cols = self.cols
        # the records of each column's own edges come first, column by column:
        # all "real" at a real column, all "arc" at any other; the rides follow
        w = int(np.searchsorted(chosen, len(self.within[1])))
        starts = np.flatnonzero(np.diff(slot[:w], prepend=-1)).tolist()
        records: list[tuple] = []
        for s, e in zip(starts, starts[1:] + [w]):
            col = cols[ks[s]]
            if tag[s] < 0:
                records += [("real", col, a, b) for a, b in zip(i[s:e], j[s:e])]
            else:
                records += [("arc", col, a, b, t) for a, b, t in zip(i[s:e], j[s:e], tag[s:e])]
        records += [("ride", cols[k], a, b, cols[t]) for k, a, b, t in zip(ks[w:], i[w:], j[w:], tag[w:])]
        return records

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
            merge_records=self.merge_records(),
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

    An arc record is its coupled lifting at |beta|, the constant one and the
    arc, checked like `ccl_verify`; a real record is the real point every
    lifting at its column equals; a ride record is its units' two z legs,
    and the source column must still merge the pair.  Every record's kind
    is checked before any work.  The records of one kind are checked
    together: the real points in one `contains_batch` call, the liftings
    of the arcs and of the rides each in one `_pieces_inside` call, which
    decides their pieces in blocks of bounded rows.
    """
    kinds = [r[0] for r in records]
    known = tuple(_REPLAYS)
    unknown = [kind for kind in kinds if kind not in known]
    if unknown:
        raise DomainError(f"unknown merge record kind {unknown[0]!r}")
    flags = np.zeros(len(records), dtype=bool)
    for kind, replay in _REPLAYS.items():
        ids = [n for n, k in enumerate(kinds) if k == kind]
        if ids:
            recs = [records[n] for n in ids]
            cols = np.array([r[1] for r in recs], dtype=np.intp)
            pairs = np.array([r[2:4] for r in recs], dtype=np.intp)
            flags[ids] = replay(q, _z_at(q, cols), pairs, recs)
    return flags


def _z_at(q: QuotientSample, cols: np.ndarray) -> np.ndarray:
    """`q.z_of` of the columns (m, 2), as complex[m]."""
    z = np.empty(len(cols), dtype=complex)
    z.real = q.alphas[cols[:, 0]]
    z.imag = q.betas[cols[:, 1]]
    return z


def _replay_real(q: QuotientSample, z: np.ndarray, pairs, records) -> np.ndarray:
    return q.domain.contains_batch(tau_rows(z.real, 0.0, np.zeros(7)))


def _replay_arcs(q: QuotientSample, z: np.ndarray, pairs: np.ndarray, records) -> np.ndarray:
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


def _replay_rides(q: QuotientSample, z: np.ndarray, pairs: np.ndarray, records) -> np.ndarray:
    sources = np.array([r[4] for r in records], dtype=np.intp)
    # the labels of the distinct source columns, one row each
    cols, slot = np.unique(sources, axis=0, return_inverse=True)
    labels = np.stack([q.labels[col] for col in map(tuple, cols.tolist())])[slot.reshape(-1, 1), pairs]
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
_REPLAYS = {"arc": _replay_arcs, "real": _replay_real, "ride": _replay_rides}

