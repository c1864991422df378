"""Sampled CCL quotients: components, projection, infectivity, class stems."""

import functools
import hashlib
import json
import math
from collections import deque

import numpy as np
import pytest

from octoslice import quotient, sampling
from octoslice.algebra import Octonion, UnitImaginary, tau
from octoslice.domains import Ball, BallChain, BallUnion, PredicateDomain, SlabCone
from octoslice.errors import DomainError, EmptySampleError, IntegrityError, PreconditionError
from octoslice.golden import get_field
from octoslice.quotient import (
    QuotientClass,
    QuotientSample,
    _Builder,
    build_quotient,
    class_at,
    count_components,
    injectivity_violations,
    local_injectivity_check,
    project_p,
    quotient_stem,
    replay_merge_record,
)
from octoslice.sampling import SamplePlan, SlicePairGrid

E = [Octonion.basis(k) for k in range(8)]
I1 = UnitImaginary.basis(1)
I2 = UnitImaginary.basis(2)


@functools.lru_cache(maxsize=None)
def far_ball_quotient():
    return build_quotient(Ball(2 * E[1] + 2 * E[2], 0.3))


@functools.lru_cache(maxsize=None)
def real_ball_quotient():
    return build_quotient(Ball(Octonion.zero(), 1.0))


@functools.lru_cache(maxsize=None)
def chain_quotient():
    plan = SamplePlan(quotient_z_step=0.1, pool_sep=0.05)
    return build_quotient(BallChain(I1, I2), plan)


@functools.lru_cache(maxsize=None)
def slab_cone_quotient():
    return build_quotient(SlabCone(I1))


def test_far_ball_has_two_sheets():
    q = far_ball_quotient()
    assert count_components(q) == 2
    upper = {q.component_of[c.index] for c in q.classes if c.z.imag > 0}
    lower = {q.component_of[c.index] for c in q.classes if c.z.imag < 0}
    assert len(upper) == 1 and len(lower) == 1 and upper != lower
    assert local_injectivity_check(q).passed


def test_real_centered_ball_is_connected():
    q = real_ball_quotient()
    assert count_components(q) == 1
    # single sheet: every column carries exactly one class
    assert len(q.classes) == len(q.members)
    assert local_injectivity_check(q).passed


def test_real_ball_has_no_class_punctures():
    # openness proxy: interior classes are never isolated in the class graph
    q = real_ball_quotient()
    for cls in q.classes:
        if abs(cls.z) < 0.7:
            assert len(q.class_adjacency[cls.index]) >= 2


def test_chain_components_and_seam():
    q = chain_quotient()
    assert count_components(q) == 2
    assert local_injectivity_check(q).passed
    seam = [c for c in q.classes if abs(c.z - complex(-1.05, 2)) < 1e-9]
    assert len(seam) == 2
    # both seam classes live on the upper sheet, i.e. one component
    assert q.component_of[seam[0].index] == q.component_of[seam[1].index]


def test_component_count_within_corollary_bound():
    for q in (far_ball_quotient(), real_ball_quotient(), chain_quotient()):
        assert count_components(q) <= 2


def test_degenerate_single_class_quotient():
    q = far_ball_quotient()
    lone = QuotientSample(
        domain=q.domain,
        plan=q.plan,
        alphas=np.array([2.0]),
        betas=np.array([1.0]),
        units=q.units[:1],
        edges=np.empty((0, 2), dtype=int),
        members={(0, 0): np.array([True])},
        labels={(0, 0): np.array([0])},
        classes=[QuotientClass(0, (0, 0), complex(2, 1), (0,))],
        class_adjacency=[()],
        component_of=np.array([0]),
        merge_records=[],
        link=q.link,
        separation=q.separation,
    )
    assert count_components(lone) == 1
    assert local_injectivity_check(lone).passed


def test_projection_and_class_lookup():
    q = real_ball_quotient()
    x = Octonion.from_real_imag(0.0, 0.5 * I1.vec)
    cid = class_at(q, x)
    assert abs(project_p(q, cid) - complex(0.0, 0.5)) <= 1e-9
    # arbitrary unit off the pool attaches through an admissible arc
    u = np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0]) / np.sqrt(3.0)
    x2 = Octonion.from_real_imag(0.0, 0.5 * u)
    assert class_at(q, x2) == cid
    real = Octonion.from_real_imag(float(q.alphas[np.argmin(np.abs(q.alphas - 0.3))]), np.zeros(7))
    rid = class_at(q, real)
    assert project_p(q, rid).imag == 0.0
    with pytest.raises(DomainError):
        project_p(q, len(q.classes))
    with pytest.raises(DomainError):
        class_at(q, Octonion.from_real_imag(0.123456, 0.5 * I1.vec))


def test_class_at_refuses_points_outside_the_domain():
    ball = Ball(0.8 * E[1], 1.0)
    q = build_quotient(ball, SamplePlan(seed=0, pool_max=150, quotient_step_factor=0.1))
    rng = np.random.default_rng(0)
    cols = [col for col, mem in q.members.items() if mem.any() and q.betas[col[1]] > 0.0]
    outside = inside = 0
    for _ in range(1500):
        col = cols[int(rng.integers(len(cols)))]
        u = np.zeros(7)
        u[:3] = rng.normal(size=3)
        x = tau(UnitImaginary(u / np.linalg.norm(u)), q.z_of(col))
        if ball.contains(x):
            inside += 1
            continue
        outside += 1
        with pytest.raises(DomainError, match="outside the domain"):
            class_at(q, x)
    assert outside > 500 and inside > 200
    # a real column's point, once the domain no longer holds it
    col = next(col for col in q.members if q.betas[col[1]] == 0.0)
    real = Octonion.from_real_imag(q.z_of(col).real, np.zeros(7))
    assert project_p(q, class_at(q, real)) == q.z_of(col)
    shrunk = QuotientSample(**{**q.__dict__, "domain": Ball(0.8 * E[1], 0.5)})
    with pytest.raises(DomainError, match="outside the domain"):
        class_at(shrunk, real)


def test_quotient_stems_on_golden_fields():
    qb = real_ball_quotient()
    ident = get_field("identity").field
    x = Octonion.from_real_imag(0.0, 0.5 * I1.vec)
    s = quotient_stem(ident, qb, class_at(qb, x))
    assert np.abs(s.u.coeffs).max() <= 1e-9
    assert abs(s.v.coeffs[0] - 0.5) <= 1e-9 and np.abs(s.v.coeffs[1:]).max() <= 1e-9

    const = get_field("constant").field
    qf = far_ball_quotient()
    rng = np.random.default_rng(20260819)
    for cls in rng.choice(qf.classes, size=6, replace=False):
        sc = quotient_stem(const, qf, cls.index)
        assert np.allclose(sc.u.coeffs, const.evaluate(Octonion.zero()).coeffs, atol=1e-9)
        assert np.abs(sc.v.coeffs).max() <= 1e-9

    # identity on a lower-sheet class: v flips with the sheet
    lower = next(c for c in qf.classes if c.z.imag < 0)
    sl = quotient_stem(ident, qf, lower.index)
    assert abs(sl.u.coeffs[0] - lower.z.real) <= 1e-9
    assert abs(sl.v.coeffs[0] - lower.z.imag) <= 1e-9


def test_sqrt_stem_on_chain_end_ball():
    chain = BallChain(I1, I2)
    ball = Ball(chain.center_at(0.0), chain.RADIUS)
    q = build_quotient(ball, SamplePlan(quotient_z_step=0.05))
    f = get_field("sqrt-example").field
    cid = class_at(q, tau(I1, complex(1.0, 2.0)))
    assert abs(project_p(q, cid) - complex(1.0, 2.0)) <= 1e-9
    s = quotient_stem(f, q, cid)
    assert np.abs(s.u.coeffs).max() <= 1e-9
    assert abs(s.v.coeffs[0] - 0.5) <= 1e-9 and np.abs(s.v.coeffs[1:]).max() <= 1e-9


def test_seam_classes_carry_opposite_branches():
    q = chain_quotient()
    f = get_field("sqrt-example").field
    seam = [c for c in q.classes if abs(c.z - complex(-1.05, 2)) < 1e-9]
    sa = quotient_stem(f, q, seam[0].index)
    sb = quotient_stem(f, q, seam[1].index)
    assert np.abs(sa.u.coeffs + sb.u.coeffs).max() <= 1e-6
    assert abs(sa.u.coeffs[0]) > 0.4

    # merging the seam classes by hand must trip the well-definedness check
    merged = QuotientClass(
        seam[0].index, seam[0].col, seam[0].z, seam[0].unit_ids + seam[1].unit_ids
    )
    patched = list(q.classes)
    patched[seam[0].index] = merged
    corrupt = QuotientSample(
        domain=q.domain,
        plan=q.plan,
        alphas=q.alphas,
        betas=q.betas,
        units=q.units,
        edges=q.edges,
        members=q.members,
        labels=q.labels,
        classes=patched,
        class_adjacency=q.class_adjacency,
        component_of=q.component_of,
        merge_records=q.merge_records,
        link=q.link,
        separation=q.separation,
    )
    with pytest.raises(IntegrityError):
        quotient_stem(f, corrupt, seam[0].index)


def test_slab_cone_infectivity_merges_the_cones():
    q = slab_cone_quotient()
    per_col = {}
    for cls in q.classes:
        per_col[cls.col] = per_col.get(cls.col, 0) + 1
    assert max(per_col.values()) == 1
    assert count_components(q) == 1
    assert local_injectivity_check(q).passed
    assert any(r[0] == "ride" for r in q.merge_records)

    # the same grid with no rides: each column keeps both cones apart
    builder = _Builder(SlabCone(I1), SamplePlan())
    builder.merge_within_columns()
    bare = builder.finish()
    assert not any(r[0] == "ride" for r in bare.merge_records)
    per_col = {}
    for cls in bare.classes:
        per_col[cls.col] = per_col.get(cls.col, 0) + 1
    assert max(per_col.values()) == 2
    assert not local_injectivity_check(bare).passed
    assert injectivity_violations(bare)


def test_merge_records_replay():
    qf = far_ball_quotient()
    assert all(replay_merge_record(qf, r) for r in qf.merge_records)
    qs = slab_cone_quotient()
    rng = np.random.default_rng(7)
    for kind in ("arc", "real", "ride"):
        pool = [r for r in qs.merge_records if r[0] == kind]
        assert pool
        take = rng.choice(len(pool), size=min(15, len(pool)), replace=False)
        assert all(replay_merge_record(qs, pool[int(k)]) for k in take)


def _row_unique_adjacency(q):
    """Class adjacency over every ridable unit of neighbouring columns, sorted by row pairs.

    A unit rides between neighbouring columns when its closed z leg, sampled
    at seven even times from the smaller column, stays in the domain.
    """
    times = np.linspace(0.0, 1.0, 7)
    pairs = [np.empty((0, 2), dtype=int)]
    for col in q.members:
        for nb in ((col[0] + 1, col[1]), (col[0], col[1] + 1)):
            if nb not in q.members:
                continue
            zs = (1.0 - times) * q.z_of(col) + times * q.z_of(nb)
            pts = np.zeros((len(zs) * len(q.units), 8))
            pts[:, 0] = np.repeat(zs.real, len(q.units))
            pts[:, 1:] = (zs.imag[:, None, None] * q.units[None, :, :]).reshape(-1, 7)
            ridable = np.flatnonzero(q.domain.contains_batch(pts).reshape(len(zs), -1).all(axis=0))
            pairs.append(np.column_stack([q.labels[col][ridable], q.labels[nb][ridable]]))
    pairs = np.concatenate(pairs)
    both = np.unique(np.concatenate([pairs, pairs[:, ::-1]]), axis=0)
    bounds = np.searchsorted(both[:, 0], np.arange(len(q.classes) + 1))
    return [tuple(both[bounds[c] : bounds[c + 1], 1].tolist()) for c in range(len(q.classes))]


@pytest.mark.parametrize(
    "fixture", [far_ball_quotient, real_ball_quotient, chain_quotient, slab_cone_quotient], ids=lambda f: f.__name__
)
def test_class_adjacency_equals_row_unique_reference(fixture):
    q = fixture()
    want = _row_unique_adjacency(q)
    assert q.class_adjacency == want
    assert all(type(c) is int for nbrs in q.class_adjacency for c in nbrs)
    assert sum(map(len, want)) > len(q.classes)


@pytest.mark.xfail(
    strict=True,
    reason="a 25-class piece of the lower sheet near z = -1 - 2.4i stays apart: at column"
    " z = 0.35 - 3.0i its one member unit lies chord 0.2099 from the other class's, beyond the"
    " arc link 0.2, so the arc graph has no edge between them although that arc stays in the chain",
)
def test_chain_at_benchmark_plan_has_two_components():
    plan = SamplePlan(seed=1725625430, pool_max=140, quotient_z_step=0.2, pool_sep=0.08)
    assert count_components(build_quotient(BallChain(I1, I2), plan)) == 2


def test_injectivity_detector_flags_adjacent_same_z_classes():
    q = far_ball_quotient()
    z = q.classes[0].z
    fixture = QuotientSample(
        domain=q.domain,
        plan=q.plan,
        alphas=q.alphas,
        betas=q.betas,
        units=q.units,
        edges=q.edges,
        members={},
        labels={},
        classes=[
            QuotientClass(0, (0, 0), z, (0,)),
            QuotientClass(1, (0, 0), z, (1,)),
            QuotientClass(2, (0, 1), z + 0.5j, (0,)),
        ],
        class_adjacency=[(1, 2), (0,), (0,)],
        component_of=np.array([0, 0, 0]),
        merge_records=[],
        link=q.link,
        separation=q.separation,
    )
    report = local_injectivity_check(fixture)
    assert not report.passed
    assert injectivity_violations(fixture) == [(0, 1)]


def test_empty_domain_raises():
    nothing = PredicateDomain(lambda x: False, (np.full(8, -1.0), np.full(8, 1.0)))
    with pytest.raises(EmptySampleError):
        build_quotient(nothing)


def test_runaway_z_grid_is_refused_before_it_is_built():
    with pytest.raises(PreconditionError, match="grid columns"):
        build_quotient(Ball(Octonion.zero(), 1.0), SamplePlan(quotient_z_step=1e-7))
    with pytest.raises(PreconditionError, match="grid columns"):
        build_quotient(Ball(Octonion.zero(), 1.0), SamplePlan(quotient_step_factor=1e-5))


def test_runaway_grid_masks_are_refused_before_any_is_built(monkeypatch):
    domain, plan = Ball(2 * E[1] + 2 * E[2], 0.3), SamplePlan(pool_max=60)
    grid = SlicePairGrid(domain, plan)
    cells = len(grid.alphas) * len(grid.betas) * (2 * len(grid.units) + len(grid.edges))
    monkeypatch.setattr(sampling, "MAX_GRID_CELLS", cells)
    assert len(build_quotient(domain, plan).classes) > 0
    monkeypatch.setattr(sampling, "MAX_GRID_CELLS", cells - 1)
    for mask in ("members_many", "arc_masks", "move_masks"):
        monkeypatch.setattr(SlicePairGrid, mask, lambda *args: pytest.fail("a mask was built"))
    with pytest.raises(PreconditionError, match=f"has {cells} mask cells, over the limit {cells - 1}$"):
        build_quotient(domain, plan)


def test_infectivity_takes_a_few_whole_grid_rounds(monkeypatch):
    # the workload's slab-cone plan, whose classes take 5 joining rounds
    builder = _Builder(SlabCone(I1), SamplePlan(seed=0, pool_max=90, quotient_step_factor=0.1))
    builder.merge_within_columns()
    calls = []
    monkeypatch.setattr(quotient, "components", lambda *args: calls.append(1) or sampling.components(*args))
    builder.propagate_infectivity()
    # one call per round that joins anything, and each such round keeps its rides
    assert 0 < len(calls) <= 8 and len(builder.rides) == len(calls)
    assert count_components(builder.finish()) == 1


# Builds whose nonempty columns have no neighbour, so no unit rides: sha256s
# of their classes, adjacency, components and records as the per-column
# worklist built them.
LONE_COLUMNS = {
    "real-column": (
        Ball(Octonion.zero(), 0.3),
        SamplePlan(seed=3, quotient_z_step=0.45),
        1,
        "c8ee1e2315409378418a247d19832ec4755fd78e382ac3de212e1243613ed39c",
    ),
    "one-column-per-sheet": (
        Ball(0.3 * E[0] + 1.95 * E[1], 0.2),
        SamplePlan(seed=3, quotient_z_step=0.25),
        2,
        "cd6a56741efc316fc35bd17852b2dcbae89d2e462d27b9fead2932e3fcebb2bf",
    ),
}


@pytest.mark.parametrize("name", sorted(LONE_COLUMNS))
def test_a_grid_without_rides_builds_as_before(name):
    domain, plan, columns, digest = LONE_COLUMNS[name]
    assert _Builder(domain, plan).table.shape == (0, 3)
    q = build_quotient(domain, plan)
    assert len(q.members) == columns
    payload = json.dumps([q.to_json(), q.class_adjacency, q.component_of.tolist(), q.merge_records], sort_keys=True)
    assert hashlib.sha256(payload.encode()).hexdigest() == digest


# -- reference: one union-find per column ------------------------------------


def _bridged_union():
    balls = [Ball(2 * E[1], 0.5), Ball(2 * E[2], 0.5)]
    for phi in np.linspace(0.0, math.pi / 2.0, 9):
        balls.append(Ball(2.6 * (math.cos(phi) * E[1] + math.sin(phi) * E[2]), 0.5))
    return BallUnion(balls)


class _UnionFind:
    def __init__(self, n):
        self.parent = np.arange(n)

    def find(self, i):
        p = self.parent
        while p[i] != i:
            p[i] = p[p[i]]
            i = p[i]
        return int(i)

    def union(self, i, j):
        ri, rj = self.find(i), self.find(j)
        if ri == rj:
            return False
        self.parent[max(ri, rj)] = min(ri, rj)
        return True


class _UnionFindQuotient:
    """The quotient built the plain way: a union-find per column, arcs and
    real columns first, then an infectivity worklist, every effective union
    recorded.  It takes the unit pool, z grid and arc graph of a built
    quotient, builds each arc's 23 probes pair by pair, and redoes
    everything else with plain membership calls."""

    RIDE_FRACTIONS = np.linspace(0.0, 1.0, 7)[1:-1]
    ARC_FRACTIONS = np.linspace(0.0, 1.0, 25)[1:-1]

    def __init__(self, q):
        self.q = q
        self.arcs = np.zeros((len(q.edges), len(self.ARC_FRACTIONS), 7))
        for e, (a, b) in enumerate(q.edges):
            chords = np.outer(1.0 - self.ARC_FRACTIONS, q.units[a]) + np.outer(self.ARC_FRACTIONS, q.units[b])
            self.arcs[e] = chords / np.linalg.norm(chords, axis=1)[:, None]
        self.members = {}
        for ia in range(len(q.alphas)):
            for ib in range(len(q.betas)):
                mask = self.inside([q.z_of((ia, ib))], q.units)[0]
                if mask.any():
                    self.members[(ia, ib)] = mask
        self.forest = {col: _UnionFind(len(q.units)) for col in self.members}
        self.records = []
        self.rides = {}
        self.merge_within_columns()
        self.propagate_infectivity()
        self.finish()

    def inside(self, zs, units):
        zs = np.asarray(zs, dtype=complex)
        pts = np.zeros((len(zs) * len(units), 8))
        pts[:, 0] = np.repeat(zs.real, len(units))
        pts[:, 1:] = (zs.imag[:, None, None] * units[None, :, :]).reshape(-1, 7)
        return self.q.domain.contains_batch(pts).reshape(len(zs), len(units))

    def neighbors(self, col):
        ia, ib = col
        for da, db in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            if (ia + da, ib + db) in self.members:
                yield (ia + da, ib + db)

    def admissible_edges(self, col):
        q, mask = self.q, self.members[col]
        cand = np.where(mask[q.edges[:, 0]] & mask[q.edges[:, 1]])[0]
        if len(cand) == 0:
            return cand
        z = q.z_of(col)
        arcs = self.arcs[cand]
        pts = np.zeros((arcs.shape[0] * arcs.shape[1], 8))
        pts[:, 0] = z.real
        pts[:, 1:] = z.imag * arcs.reshape(-1, 7)
        return cand[q.domain.contains_batch(pts).reshape(arcs.shape[:2]).all(axis=1)]

    def ride_mask(self, a, b):
        key = (a, b) if a < b else (b, a)
        if key not in self.rides:
            cand = np.where(self.members[key[0]] & self.members[key[1]])[0]
            mask = np.zeros(len(self.q.units), dtype=bool)
            if len(cand):
                za, zb = self.q.z_of(key[0]), self.q.z_of(key[1])
                zs = (1.0 - self.RIDE_FRACTIONS) * za + self.RIDE_FRACTIONS * zb
                mask[cand[self.inside(zs, self.q.units[cand]).all(axis=0)]] = True
            self.rides[key] = mask
        return self.rides[key]

    def merge_within_columns(self):
        for col in sorted(self.members):
            forest = self.forest[col]
            if abs(self.q.betas[col[1]]) <= 1e-12:
                ids = np.where(self.members[col])[0]
                for k in ids[1:]:
                    if forest.union(int(ids[0]), int(k)):
                        self.records.append(("real", col, int(ids[0]), int(k)))
                continue
            for eidx in self.admissible_edges(col):
                i, j = int(self.q.edges[eidx, 0]), int(self.q.edges[eidx, 1])
                if forest.union(i, j):
                    self.records.append(("arc", col, i, j, int(eidx)))

    def propagate_infectivity(self):
        work = deque(sorted(self.members))
        queued = set(work)
        while work:
            col = work.popleft()
            queued.discard(col)
            changed = False
            for nb in self.neighbors(col):
                ridable = np.where(self.ride_mask(col, nb))[0]
                roots_nb = np.array([self.forest[nb].find(int(i)) for i in ridable])
                for root in np.unique(roots_nb):
                    group = ridable[roots_nb == root]
                    for k in group[1:]:
                        if self.forest[col].union(int(group[0]), int(k)):
                            self.records.append(("ride", col, int(group[0]), int(k), nb))
                            changed = True
            if changed:
                for nb in self.neighbors(col):
                    if nb not in queued:
                        work.append(nb)
                        queued.add(nb)

    def finish(self):
        self.classes, self.labels = [], {}
        n = len(self.q.units)
        for col in sorted(self.members):
            lab = np.full(n, -1, dtype=int)
            ids = np.where(self.members[col])[0]
            roots = np.array([self.forest[col].find(int(i)) for i in ids])
            for root in np.unique(roots):
                group = tuple(int(i) for i in ids[roots == root])
                lab[list(group)] = len(self.classes)
                self.classes.append(QuotientClass(len(self.classes), col, self.q.z_of(col), group))
            self.labels[col] = lab
        adjacency = [set() for _ in self.classes]
        for col in sorted(self.members):
            for nb in self.neighbors(col):
                if nb > col:
                    for uid in np.where(self.ride_mask(col, nb))[0]:
                        c1, c2 = int(self.labels[col][uid]), int(self.labels[nb][uid])
                        adjacency[c1].add(c2)
                        adjacency[c2].add(c1)
        self.adjacency = [tuple(sorted(s)) for s in adjacency]
        comp = _UnionFind(len(self.classes))
        for cid, nbrs in enumerate(adjacency):
            for other in nbrs:
                comp.union(cid, other)
        self.component_of = [comp.find(i) for i in range(len(self.classes))]


REFERENCE_CASES = {
    "real-ball": (Ball(Octonion.zero(), 1.0), {"pool_max": 150, "quotient_step_factor": 0.1}),
    "off-axis-ball": (Ball(0.3 * E[0] + 1.5 * E[1] + 0.5 * E[3], 0.8), {}),
    "slab-cone": (SlabCone(I1), {"pool_max": 90, "quotient_step_factor": 0.1}),
    "chain": (BallChain(I1, I2), {"pool_max": 140, "quotient_z_step": 0.2, "pool_sep": 0.08}),
    "bridged-union": (_bridged_union(), {}),
}


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", sorted(REFERENCE_CASES))
def test_quotient_matches_union_find_reference(name, seed):
    domain, extra = REFERENCE_CASES[name]
    q = build_quotient(domain, SamplePlan(seed=seed, **extra))
    ref = _UnionFindQuotient(q)
    assert list(q.members) == sorted(ref.members)
    for col, mask in ref.members.items():
        assert q.members[col].tobytes() == mask.tobytes(), col
        assert q.labels[col].dtype == ref.labels[col].dtype
        assert np.array_equal(q.labels[col], ref.labels[col]), col
    assert q.classes == ref.classes
    assert q.class_adjacency == ref.adjacency
    assert q.component_of.tolist() == ref.component_of
    assert [r for r in q.merge_records if r[0] != "ride"] == [r for r in ref.records if r[0] != "ride"]
    assert len(q.merge_records) == len(ref.records)
    if name in ("real-ball", "slab-cone", "bridged-union"):
        assert any(r[0] == "ride" for r in q.merge_records)

    # per column the records are a spanning forest of the column's classes
    by_col = {col: [] for col in q.members}
    for record in q.merge_records:
        by_col[record[1]].append(record)
    for col, records in by_col.items():
        lab = q.labels[col]
        n_classes = len(np.unique(lab[q.members[col]]))
        assert len(records) == int(q.members[col].sum()) - n_classes, col
        forest = _UnionFind(len(q.units))
        for record in records:
            i, j = record[2], record[3]
            assert lab[i] == lab[j] >= 0, record
            assert forest.union(i, j), record


# domains whose imaginary data leaves span(e1, e2, e3), the span of the
# sampling sphere: the union is congruent to Ball(2e1, 0.5) u Ball(2e2, 1.6)
OFF_SPAN = {
    "union": BallUnion([Ball(2 * E[1], 0.5), Ball(2 * E[4], 1.6)]),
    "ball": Ball(3 * E[4], 0.5),
    "slab-cone": SlabCone(UnitImaginary.basis(5), math.pi / 4),
}


@pytest.mark.parametrize("name", sorted(OFF_SPAN))
def test_domains_off_the_sampling_span_are_refused_before_sampling(name, monkeypatch):
    domain = OFF_SPAN[name]
    monkeypatch.setattr(domain, "sample_interior", lambda *args, **kwargs: pytest.fail("sampled"))
    with pytest.raises(PreconditionError, match=r"outside span\(e1, e2, e3\), the span of the sampling sphere"):
        build_quotient(domain, SamplePlan(seed=1))


def test_every_built_in_domain_states_its_imaginary_data():
    union = BallUnion([Ball(E[0] + 2 * E[1], 0.5), Ball(2 * E[4], 1.6)])
    assert union.imaginary_data().tolist() == [[2, 0, 0, 0, 0, 0, 0], [0, 0, 0, 2, 0, 0, 0]]
    assert Ball(E[0], 1.0).imaginary_data().tolist() == [[0] * 7]
    assert SlabCone(I2).imaginary_data().tolist() == [I2.vec.tolist()]
    assert BallChain(I1, I2).imaginary_data().tolist() == [I1.vec.tolist(), I2.vec.tolist()]
    predicate = PredicateDomain(lambda x: True, (np.full(8, -1.0), np.full(8, 1.0)))
    assert predicate.imaginary_data().shape == (0, 7)
