"""Sampled quotient of a domain's slice pairs by close-circular-lifting.

The disjoint union of a domain's complex slices consists of pairs (z, I)
with tau(I, z) in the domain, z ranging over the full plane; an off-axis
point of the domain therefore appears on two conjugate sheets.  Gluing
pairs with equal z whose underlying points are CCL-equivalent yields a
Riemann domain over C with projection P[(z, I)] = z.

`build_quotient` samples the pairs on a rectangular z grid crossed with an
adapted unit pool and merges them using three certified moves only:

* an admissible arc between two units at fixed z, i.e. a constant-base
  coupled lifting,
* recoupling at a real column, where every unit lifts the same point,
* infectivity: a pair already merged at a neighboring column rides over
  when both unit legs stay inside the domain.

Each effective union appends a record; classes are transitive closures of
recorded merges and `replay_merge_record` re-verifies any single record
from scratch.  Since merging is certificate-backed only, component counts
of the class graph are upper bounds on the true quotient's.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .algebra import Octonion
from .diffops import DEFAULT_SCHEME, FDScheme, OctField
from .domains import Domain
from .errors import DomainError, EmptySampleError, IntegrityError
from .liftings import CoupledLifting, PolyPathC, PolyPathS, ccl_verify, lift_in_domain
from .report import Report
from .sampling import (
    SamplePlan,
    Subsphere,
    adaptive_unit_pool,
    arc_probe_graph,
    chord_of_angle,
    z_grid_step,
)
from .stems import StemVector, stem_from_gamma

ColKey = tuple[int, int]

_Z_MATCH_TOL = 1e-9
_RIDE_FRACTIONS = np.linspace(0.0, 1.0, 7)[1:-1]


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

    def is_real_col(self, col: ColKey) -> bool:
        return abs(self.betas[col[1]]) <= 1e-12

    def point_of(self, col: ColKey, unit_id: int) -> Octonion:
        z = self.z_of(col)
        coeffs = np.zeros(8)
        coeffs[0] = z.real
        coeffs[1:] = z.imag * self.units[unit_id]
        return Octonion(coeffs)

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


class _ColumnForest:
    """Union-find over unit indices, kept separately per column."""

    def __init__(self, size: int) -> None:
        self.size = size
        self.parent: dict[ColKey, np.ndarray] = {}

    def ensure(self, col: ColKey) -> None:
        if col not in self.parent:
            self.parent[col] = np.arange(self.size)

    def find(self, col: ColKey, i: int) -> int:
        p = self.parent[col]
        while p[i] != i:
            p[i] = p[p[i]]
            i = p[i]
        return int(i)

    def union(self, col: ColKey, i: int, j: int) -> bool:
        ri, rj = self.find(col, i), self.find(col, j)
        if ri == rj:
            return False
        lo, hi = (ri, rj) if ri < rj else (rj, ri)
        self.parent[col][hi] = lo
        return True


def _column_members(domain: Domain, units: np.ndarray, z: complex) -> np.ndarray:
    pts = np.zeros((len(units), 8))
    pts[:, 0] = z.real
    pts[:, 1:] = z.imag * units
    return domain.contains_batch(pts)


class _Builder:
    def __init__(self, domain: Domain, plan: SamplePlan, subsphere: Subsphere) -> None:
        self.domain = domain
        self.plan = plan
        self.subsphere = subsphere
        rng = plan.rng()
        self.units, self.sep = adaptive_unit_pool(domain, subsphere, plan, rng)
        window = domain.z_window()
        a_lo, a_hi, b_max = window
        step = z_grid_step(window, plan)
        self.alphas = np.arange(a_lo - step, a_hi + step + step / 2, step)
        pos = np.arange(step, b_max + step, step)
        self.betas = np.concatenate([-pos[::-1], [0.0], pos])
        self.link = max(chord_of_angle(plan.link_angle), 2.5 * self.sep)
        self.edges, self.edge_arcs = arc_probe_graph(self.units, self.link)
        self.members: dict[ColKey, np.ndarray] = {}
        for ia in range(len(self.alphas)):
            for ib in range(len(self.betas)):
                z = complex(self.alphas[ia], self.betas[ib])
                mask = _column_members(domain, self.units, z)
                if mask.any():
                    self.members[(ia, ib)] = mask
        if not self.members:
            raise EmptySampleError("no sampled slice pair lies in the domain")
        self.forest = _ColumnForest(len(self.units))
        self.records: list[tuple] = []
        self._rides: dict[tuple[ColKey, ColKey], np.ndarray] = {}

    def z_of(self, col: ColKey) -> complex:
        return complex(self.alphas[col[0]], self.betas[col[1]])

    def is_real_col(self, col: ColKey) -> bool:
        return abs(self.betas[col[1]]) <= 1e-12

    def neighbors(self, col: ColKey):
        ia, ib = col
        for da, db in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            nb = (ia + da, ib + db)
            if nb in self.members:
                yield nb

    def admissible_edges(self, col: ColKey) -> np.ndarray:
        """Indices of pool edges whose full arc stays in the domain at this z."""
        mask = self.members[col]
        ends_ok = mask[self.edges[:, 0]] & mask[self.edges[:, 1]]
        cand = np.where(ends_ok)[0]
        if len(cand) == 0:
            return cand
        z = self.z_of(col)
        arcs = self.edge_arcs[cand]
        pts = np.zeros((arcs.shape[0] * arcs.shape[1], 8))
        pts[:, 0] = z.real
        pts[:, 1:] = z.imag * arcs.reshape(-1, 7)
        ok = self.domain.contains_batch(pts).reshape(arcs.shape[0], arcs.shape[1]).all(axis=1)
        return cand[ok]

    def ride_mask(self, a: ColKey, b: ColKey) -> np.ndarray:
        """Units that stay in the domain along the z segment between columns."""
        key = (a, b) if a < b else (b, a)
        if key not in self._rides:
            both = self.members[key[0]] & self.members[key[1]]
            cand = np.where(both)[0]
            mask = np.zeros(len(self.units), dtype=bool)
            if len(cand):
                za, zb = self.z_of(key[0]), self.z_of(key[1])
                zs = (1.0 - _RIDE_FRACTIONS) * za + _RIDE_FRACTIONS * zb
                pts = np.zeros((len(cand) * len(zs), 8))
                pts[:, 0] = np.repeat(zs.real, len(cand))
                pts[:, 1:] = (zs.imag[:, None, None] * self.units[cand][None, :, :]).reshape(-1, 7)
                ok = self.domain.contains_batch(pts).reshape(len(zs), len(cand)).all(axis=0)
                mask[cand[ok]] = True
            self._rides[key] = mask
        return self._rides[key]

    def merge_within_columns(self) -> None:
        for col in sorted(self.members):
            self.forest.ensure(col)
            if self.is_real_col(col):
                ids = np.where(self.members[col])[0]
                for k in ids[1:]:
                    if self.forest.union(col, int(ids[0]), int(k)):
                        self.records.append(("real", col, int(ids[0]), int(k)))
                continue
            for eidx in self.admissible_edges(col):
                i, j = int(self.edges[eidx, 0]), int(self.edges[eidx, 1])
                if self.forest.union(col, i, j):
                    self.records.append(("arc", col, i, j, int(eidx)))

    def propagate_infectivity(self) -> None:
        work = deque(sorted(self.members))
        queued = set(work)
        while work:
            col = work.popleft()
            queued.discard(col)
            changed = False
            for nb in self.neighbors(col):
                ridable = np.where(self.ride_mask(col, nb))[0]
                if len(ridable) < 2:
                    continue
                roots_nb = np.array([self.forest.find(nb, int(i)) for i in ridable])
                for root in np.unique(roots_nb):
                    group = ridable[roots_nb == root]
                    if len(group) < 2:
                        continue
                    head = int(group[0])
                    for k in group[1:]:
                        if self.forest.union(col, head, int(k)):
                            self.records.append(("ride", col, head, int(k), nb))
                            changed = True
            if changed:
                for nb in self.neighbors(col):
                    if nb not in queued:
                        work.append(nb)
                        queued.add(nb)

    def finish(self) -> QuotientSample:
        classes: list[QuotientClass] = []
        labels: dict[ColKey, np.ndarray] = {}
        for col in sorted(self.members):
            lab = np.full(len(self.units), -1, dtype=int)
            ids = np.where(self.members[col])[0]
            roots = np.array([self.forest.find(col, int(i)) for i in ids])
            for root in np.unique(roots):
                group = tuple(int(i) for i in ids[roots == root])
                lab[list(group)] = len(classes)
                classes.append(QuotientClass(len(classes), col, self.z_of(col), group))
            labels[col] = lab
        adjacency: list[set[int]] = [set() for _ in classes]
        for col in sorted(self.members):
            for nb in self.neighbors(col):
                if nb < col:
                    continue
                ridable = self.ride_mask(col, nb)
                for uid in np.where(ridable)[0]:
                    c1, c2 = int(labels[col][uid]), int(labels[nb][uid])
                    adjacency[c1].add(c2)
                    adjacency[c2].add(c1)
        comp = np.arange(len(classes))

        def find(i: int) -> int:
            while comp[i] != i:
                comp[i] = comp[comp[i]]
                i = comp[i]
            return int(i)

        for cid, nbrs in enumerate(adjacency):
            for other in nbrs:
                ra, rb = find(cid), find(other)
                if ra != rb:
                    comp[max(ra, rb)] = min(ra, rb)
        component_of = np.array([find(i) for i in range(len(classes))])
        return QuotientSample(
            domain=self.domain,
            plan=self.plan,
            subsphere=self.subsphere,
            alphas=self.alphas,
            betas=self.betas,
            units=self.units,
            edges=self.edges,
            edge_arcs=self.edge_arcs,
            members=self.members,
            labels=labels,
            classes=classes,
            class_adjacency=[tuple(sorted(s)) for s in adjacency],
            component_of=component_of,
            merge_records=self.records,
            link=self.link,
            separation=self.sep,
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
    neighboring columns; every effective union is recorded.
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
    stems = []
    for uid in cls.unit_ids:
        s = stem_from_gamma(f, q.point_of(cls.col, uid), scheme, use_closed)
        stems.append(StemVector(s.u, -s.v) if beta < 0 else s)
    us = np.array([s.u.coeffs for s in stems])
    vs = np.array([s.v.coeffs for s in stems])
    spread = max(float(np.ptp(us, axis=0).max()), float(np.ptp(vs, axis=0).max()))
    if spread > 1e-6:
        raise IntegrityError(
            f"class {class_id} stems disagree by {spread:.3e}; a merge is invalid"
        )
    return stems[0]


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
        fr = np.linspace(0.0, 1.0, n + 2)[1:-1]
        chords = np.outer(1.0 - fr, u) + np.outer(fr, w)
        norms = np.linalg.norm(chords, axis=1)
        if norms.min() < 1e-6:
            continue
        pts = np.zeros((len(fr), 8))
        pts[:, 0] = z.real
        pts[:, 1:] = z.imag * (chords / norms[:, None])
        if q.domain.contains_batch(pts).all():
            return int(lab[member_ids[k]])
    raise DomainError("no admissible arc reaches a sampled unit at this resolution")


def _unit_polyline(ui: np.ndarray, uj: np.ndarray) -> np.ndarray:
    if np.linalg.norm(ui + uj) >= 0.5:
        return np.vstack([ui, uj])
    probe = np.eye(7)[int(np.argmin(np.abs(ui)))]
    w = probe - (probe @ ui) * ui
    w /= np.linalg.norm(w)
    return np.vstack([ui, w, uj])


def replay_merge_record(q: QuotientSample, record: tuple) -> bool:
    """Re-verify one merge record's certificate from scratch.

    Arc and real records materialize an actual coupled lifting and replay
    it through `ccl_verify`; ride records re-check both unit legs densely
    and that the referenced neighboring column still merges the pair.
    """
    kind, col = record[0], record[1]
    z = q.z_of(col)
    if kind in ("arc", "real"):
        i, j = record[2], record[3]
        zz = complex(z.real, abs(z.imag))
        sgn = -1.0 if z.imag < 0 else 1.0
        ui, uj = sgn * q.units[i], sgn * q.units[j]
        if kind == "arc":
            units2 = np.vstack([ui, uj])
        else:
            units2 = _unit_polyline(ui, uj)
        base = PolyPathC(np.full(len(units2), zz, dtype=complex))
        witness = CoupledLifting(
            base=base,
            units1=PolyPathS(np.tile(ui, (len(units2), 1))),
            units2=PolyPathS(units2),
        )
        ok, _ = ccl_verify(witness, q.point_of(col, i), q.point_of(col, j), q.domain)
        return ok
    if kind == "ride":
        i, j, source = record[2], record[3], record[4]
        if q.labels[source][i] != q.labels[source][j] or q.labels[source][i] < 0:
            return False
        zs = q.z_of(source)
        base = PolyPathC(np.array([zs, z]))
        for uid in (i, j):
            leg = CoupledLifting(
                base=base,
                units1=PolyPathS(np.tile(q.units[uid], (2, 1))),
                units2=PolyPathS(np.tile(q.units[uid], (2, 1))),
            )
            if not lift_in_domain(leg.lifting(1), q.domain):
                return False
        return True
    raise DomainError(f"unknown merge record kind {kind!r}")
