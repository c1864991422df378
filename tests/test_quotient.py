"""Sampled CCL quotients: components, projection, infectivity, class stems."""

import functools

import numpy as np
import pytest

from octoslice.algebra import Octonion, UnitImaginary, tau
from octoslice.domains import Ball, BallChain, PredicateDomain, SlabCone
from octoslice.errors import DomainError, EmptySampleError, IntegrityError, PreconditionError
from octoslice.golden import get_field
from octoslice.quotient import (
    QuotientClass,
    QuotientSample,
    build_quotient,
    class_at,
    count_components,
    injectivity_violations,
    local_injectivity_check,
    project_p,
    quotient_stem,
    replay_merge_record,
)
from octoslice.sampling import SamplePlan

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
        subsphere=q.subsphere,
        alphas=np.array([2.0]),
        betas=np.array([1.0]),
        units=q.units[:1],
        edges=np.empty((0, 2), dtype=int),
        edge_arcs=np.zeros((0, 23, 7)),
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
        subsphere=q.subsphere,
        alphas=q.alphas,
        betas=q.betas,
        units=q.units,
        edges=q.edges,
        edge_arcs=q.edge_arcs,
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

    bare = build_quotient(SlabCone(I1), infectivity=False)
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


def test_injectivity_detector_flags_adjacent_same_z_classes():
    q = far_ball_quotient()
    z = q.classes[0].z
    fixture = QuotientSample(
        domain=q.domain,
        plan=q.plan,
        subsphere=q.subsphere,
        alphas=q.alphas,
        betas=q.betas,
        units=q.units,
        edges=q.edges,
        edge_arcs=q.edge_arcs,
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
