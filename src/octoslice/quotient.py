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

Classes are the connected components of the certified edges, the ride
edges iterated to a fixpoint.  The merge records are a spanning forest of
each column's classes: taking the column's arc or real edges in admissible
order and then its ride edges, an edge is recorded when it joins two
classes of the edges before it, so a column with m members and c classes
has m - c records.  Classes are therefore the transitive closures of the
records, and `replay_merge_record` re-verifies any single record from
scratch, as the legs it stands for, without building a witness: an arc
record as the constant lifting and the arc lifting at its column, 16
pieces each, with the checks of `ccl_verify`; a real record as the real
point every lifting at its column equals; a ride record as the two
straight z legs of its units, 16 pieces each.  `Domain.legs_inside`
decides the pieces, at most 2 x 2048 rows per record.  Since
merging is certificate-backed only, component counts of the class graph
are upper bounds on the true quotient's.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import minimum_spanning_tree

from .algebra import Octonion, row_norms, tau_rows
from .diffops import DEFAULT_SCHEME, FDScheme, OctField
from .domains import Domain
from .errors import DomainError, EmptySampleError, IntegrityError
from .liftings import _coupled_check, _even_times, _liftings_inside
from .report import Report
from .sampling import SamplePlan, SlicePairGrid, Subsphere, arc_points, arc_sags, components
from .stems import StemVector, gamma_stem_rows

ColKey = tuple[int, int]

_Z_MATCH_TOL = 1e-9
# Columns whose spanning forests `merge_records` builds at once; it bounds
# the forest's temporaries to a block's edges.
_FOREST_BLOCK = 16


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
    subsphere: Subsphere
    alphas: np.ndarray
    betas: np.ndarray
    units: np.ndarray
    edges: np.ndarray
    edge_arcs: np.ndarray
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
    lo, hi = edges.min(axis=1), edges.max(axis=1)
    # a repeat of an earlier edge, or a self-loop, never joins anything
    _, first = np.unique(lo * n + hi, return_index=True)
    keep = np.sort(first)
    keep = keep[lo[keep] != hi[keep]]
    graph = coo_matrix((keep + 1.0, (lo[keep], hi[keep])), shape=(n, n))
    return np.sort(minimum_spanning_tree(graph).tocoo().data.astype(np.int64) - 1)


class _Builder:
    def __init__(self, domain: Domain, plan: SamplePlan, subsphere: Subsphere) -> None:
        self.domain = domain
        self.plan = plan
        self.subsphere = subsphere
        self.grid = SlicePairGrid(domain, plan, subsphere)
        # the nonempty columns, in order, and each one's slot in that order
        self.cols = [col for col in self.grid.columns() if self.grid.members(col).any()]
        if not self.cols:
            raise EmptySampleError("no sampled slice pair lies in the domain")
        self.slot = {col: k for k, col in enumerate(self.cols)}
        # Edges live on all columns side by side: unit u of slot k is node
        # k*n + u.  Ride edges that joined two classes, each tagged with its
        # source slot:
        self.rides: list[tuple[np.ndarray, np.ndarray]] = []

    def neighbors(self, col: ColKey):
        return (nb for nb in self.grid.neighbors(col) if nb in self.slot)

    def merge_within_columns(self) -> None:
        """Certified edges at fixed z, and the classes they make per column.

        `within` holds the edges in the order the records take them, as
        (ends (m, 2), tags), a tag being the arc edge index or -1 at a real
        column.  `labels[k]` numbers the classes of slot k by smallest unit;
        non-members are singletons.
        """
        n = len(self.grid.units)
        ends, tags = [], []
        for k, col in enumerate(self.cols):
            if self.grid.is_real_col(col):
                ids = np.flatnonzero(self.grid.members(col))
                ends.append(np.column_stack([np.full(len(ids) - 1, ids[0]), ids[1:]]) + k * n)
                tags.append(np.full(len(ids) - 1, -1))
            else:
                tags.append(np.flatnonzero(self.grid.arc_mask(col)))
                ends.append(self.grid.edges[tags[-1]] + k * n)
        self.within = (np.concatenate(ends), np.concatenate(tags))
        # a slot's components are numbered consecutively from its unit 0's
        _, labels = components(len(self.cols) * n, self.within[0])
        self.labels = labels.reshape(len(self.cols), n)
        self.labels -= self.labels[:, :1]

    def propagate_infectivity(self) -> None:
        """Merge the units that ride over together from one neighbouring class, to the fixpoint."""
        work = deque(self.cols)
        queued = set(work)
        while work:
            col = work.popleft()
            queued.discard(col)
            lab = self.labels[self.slot[col]]
            heads, tails = [], []
            for nb in self.neighbors(col):
                ridable = np.flatnonzero(self.grid.move_mask(col, nb))
                if len(ridable) < 2:
                    continue
                # each unit rides with the first ridable unit of its class at nb
                _, first, group = np.unique(
                    self.labels[self.slot[nb], ridable], return_index=True, return_inverse=True
                )
                head = ridable[first][group]
                joins = lab[head] != lab[ridable]
                if joins.any():
                    node = self.slot[col] * len(lab)
                    ends = np.column_stack([head[joins], ridable[joins]]) + node
                    self.rides.append((ends, np.full(len(ends), self.slot[nb])))
                    heads.append(lab[head[joins]])
                    tails.append(lab[ridable[joins]])
            if heads:
                pairs = np.column_stack([np.concatenate(heads), np.concatenate(tails)])
                lab[:] = components(int(lab.max()) + 1, pairs)[1][lab]
                for nb in self.neighbors(col):
                    if nb not in queued:
                        work.append(nb)
                        queued.add(nb)

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
        a, b = ends[chosen, 0], ends[chosen, 1]
        records: list[tuple] = []
        for e, k, i, j, tag in zip(
            chosen.tolist(), (a // n).tolist(), (a % n).tolist(), (b % n).tolist(), tags[chosen].tolist()
        ):
            col = self.cols[k]
            if e >= len(self.within[1]):
                records.append(("ride", col, i, j, self.cols[tag]))
            elif tag < 0:
                records.append(("real", col, i, j))
            else:
                records.append(("arc", col, i, j, tag))
        return records

    def finish(self) -> QuotientSample:
        grid = self.grid
        member = np.stack([grid.members(col) for col in self.cols])
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
        pairs = [np.empty((0, 2), dtype=int)]
        for col in self.cols:
            for nb in self.neighbors(col):
                if nb > col:
                    ridable = np.flatnonzero(grid.move_mask(col, nb))
                    pairs.append(labels[[self.slot[col], self.slot[nb]]][:, ridable].T)
        pairs = np.concatenate(pairs)
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
            subsphere=self.subsphere,
            alphas=grid.alphas,
            betas=grid.betas,
            units=grid.units,
            edges=grid.edges,
            edge_arcs=grid.edge_arcs,
            members={col: grid.members(col) for col in self.cols},
            labels=dict(zip(self.cols, labels)),
            classes=classes,
            class_adjacency=adjacency,
            component_of=smallest[comp],
            merge_records=self.merge_records(),
            link=grid.link,
            separation=grid.sep,
        )


def build_quotient(
    domain: Domain,
    plan: Optional[SamplePlan] = None,
    subsphere: Optional[Subsphere] = None,
    infectivity: bool = True,
) -> QuotientSample:
    """Sample the slice pairs of a domain and glue CCL classes.

    Merges come from admissible arcs, real-column recoupling, and (when
    `infectivity` is on, the default) equivalences riding over from
    neighboring columns; a spanning forest of the merges is recorded.
    """
    plan = plan or SamplePlan()
    subsphere = subsphere or Subsphere.default()
    builder = _Builder(domain, plan, subsphere)
    builder.merge_within_columns()
    if infectivity:
        builder.propagate_infectivity()
    return builder.finish()


def project_p(q: QuotientSample, class_id: int) -> complex:
    """The common base point of a class, P[(z, I)] = z."""
    if not 0 <= class_id < len(q.classes):
        raise DomainError("unknown quotient class")
    return q.classes[class_id].z


def count_components(q: QuotientSample) -> int:
    return len(np.unique(q.component_of))


def injectivity_violations(q: QuotientSample, hop_radius: int = 4) -> list[tuple[int, int]]:
    """Distinct class pairs within the hop radius sharing a projection value."""
    violations = []
    for cls in q.classes:
        seen = {cls.index}
        frontier = [cls.index]
        for _ in range(hop_radius):
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


def local_injectivity_check(q: QuotientSample, hop_radius: int = 4) -> Report:
    """Sampled local injectivity of P: no nearby distinct classes share a z."""
    violations = injectivity_violations(q, hop_radius)
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


def quotient_stem(
    f: OctField,
    q: QuotientSample,
    class_id: int,
    scheme: FDScheme = DEFAULT_SCHEME,
    use_closed: bool = True,
) -> StemVector:
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
    us, vs = gamma_stem_rows(f, pts, scheme, use_closed)
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

    The unit need not be in the pool: it is attached to the nearest member
    unit through a fully probed arc, which is itself a certified merge.
    """
    a, b = x.re, x.im_norm
    ia = int(np.argmin(np.abs(q.alphas - a)))
    ib = int(np.argmin(np.abs(q.betas - b)))
    if abs(q.alphas[ia] - a) > _Z_MATCH_TOL or abs(q.betas[ib] - b) > _Z_MATCH_TOL:
        raise DomainError("projection of the point is off the sampled grid")
    col = (ia, ib)
    if col not in q.members:
        raise DomainError("no sampled class at the point's column")
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
        # attachment arcs may span several links, so the probe spacing
        # follows the pool separation instead of a fixed count
        n = max(25, int(4.0 * dists[k] / max(q.separation, 1e-9)))
        arc, clear = arc_points(u[None], w[None], np.linspace(0.0, 1.0, n + 2)[1:-1])
        if not clear[0]:
            continue

        def ends():
            pts = tau_rows(z.real, z.imag, np.stack([u, w]))
            return pts[:1], pts[1:], arc_sags(z.imag, (w - u)[None])

        if q.domain.legs_inside(1, ends, lambda ids: (tau_rows(z.real, z.imag, arc[0]), n))[0]:
            return int(lab[member_ids[k]])
    raise DomainError("no admissible arc reaches a sampled unit at this resolution")


def replay_merge_record(q: QuotientSample, record: tuple) -> bool:
    """Re-verify one merge record's certificate from scratch, as the legs it stands for.

    An arc record is its coupled lifting at |beta|, the constant one and the
    arc, checked like `ccl_verify`; a real record is the real point every
    lifting at its column equals; a ride record is its units' two z legs,
    and the source column must still merge the pair.
    """
    if record[0] not in ("arc", "real", "ride"):
        raise DomainError(f"unknown merge record kind {record[0]!r}")
    kind, col, i, j = record[:4]
    z = q.z_of(col)
    if kind == "real":
        return q.domain.contains(Octonion.from_real_imag(z.real, np.zeros(7)))
    # an arc below the axis is lifted at |beta| with the units flipped, and
    # a unit path normalises its vertices
    flip = -1.0 if kind == "arc" and z.imag < 0 else 1.0
    units = flip * q.units[[i, j]]
    units /= row_norms(units)[:, None]
    # the vertex times of every two-vertex path
    times = _even_times(2)
    if kind == "arc":
        zz = complex(z.real, abs(z.imag))
        paths = [(times, units[[0, 0]]), (times, units)]
        x, xp = tau_rows(z.real, z.imag, q.units[[i, j]])
        return _coupled_check(q.domain, (times, np.array([zz, zz])), paths, x, xp, 2048, 1e-9)[0]
    source = record[4]
    if q.labels[source][i] != q.labels[source][j] or q.labels[source][i] < 0:
        return False
    base = (times, np.array([q.z_of(source), z]))
    inside, _ = _liftings_inside(q.domain, base, [(times, units[[k, k]]) for k in (0, 1)], 2048)
    return bool(inside.all())
