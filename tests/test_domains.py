"""Domain membership, margins, slice spheres, and connectivity verdicts."""

import math

import numpy as np
import pytest

from octoslice.algebra import Octonion, UnitImaginary, tau
from octoslice.domains import (
    Ball,
    BallChain,
    BallUnion,
    Domain,
    PredicateDomain,
    SlabCone,
    circularly_connected_scan,
    same_component,
    sphere_slice_member,
)
from octoslice.errors import DomainError, PreconditionError
from octoslice.sampling import SamplePlan, Subsphere, adaptive_unit_pool, components

E1 = UnitImaginary.basis(1)
E2 = UnitImaginary.basis(2)


def oct_(*coeffs):
    c = np.zeros(8)
    c[: len(coeffs)] = coeffs
    return Octonion(c)


def test_slab_cone_membership():
    dom = SlabCone(E1, math.pi / 4)
    assert dom.contains(oct_(1, 2))
    assert dom.contains(oct_(1, -2))
    assert not dom.contains(oct_(1, 0, 2))
    assert dom.contains(oct_(0.5, 0, 0.5))
    assert dom.contains(oct_(-3.0, 0.6, 0.6))
    # 45 degrees off-axis at radius 2 sits exactly on the cone wall: excluded.
    assert not dom.contains(oct_(0, math.sqrt(2), math.sqrt(2)))


def test_ball_membership_and_margin():
    dom = Ball(oct_(0), 2.0)
    assert dom.contains(oct_(1, 1))
    assert not dom.contains(oct_(2, 1))
    x = oct_(1, 0.5)
    m = dom.margin(x)
    assert abs(m - (2.0 - x.norm())) <= 1e-15


def test_z_window():
    ball = Ball(oct_(0), 3.0)
    assert ball.z_window() == (-3.0, 3.0, 3.0)
    far = Ball(oct_(1, 2), 0.5)
    lo, hi, bmax = far.z_window()
    assert (lo, hi) == (0.5, 1.5) and abs(bmax - 2.5) <= 1e-12
    chain = BallChain(E1, E2)
    assert chain.z_window() == (-1.25, 1.25, 3.25)
    assert SlabCone(E1).z_window() == (-4.0, 4.0, 4.0)


def test_margin_is_conservative():
    rng = np.random.default_rng(31)
    domains = [
        Ball(oct_(0.3, 1.0), 1.5),
        BallUnion([Ball(oct_(0), 1.0), Ball(oct_(1.5), 1.0)]),
        SlabCone(E1, math.pi / 4),
        BallChain(E1, E2, theta_steps=512),
    ]
    for dom in domains:
        pts = dom.sample_interior(40, rng)
        for p in pts:
            x = Octonion(p)
            m = dom.margin(x)
            assert m > 0.0
            for _ in range(8):
                d = rng.normal(size=8)
                d /= np.linalg.norm(d)
                assert dom.contains(Octonion(p + 0.95 * m * d))


def test_ball_chain_centers():
    dom = BallChain(E1, E2, theta_steps=512)
    c0 = dom.center_at(0.0)
    assert np.allclose(c0.coeffs, oct_(1, 2).coeffs, atol=1e-15)
    cpi = dom.center_at(math.pi)
    assert np.allclose(cpi.coeffs, oct_(-1, 0, 2).coeffs, atol=1e-12)
    cmpi = dom.center_at(-math.pi)
    assert np.allclose(cmpi.coeffs, oct_(-1, 0, -2).coeffs, atol=1e-12)
    assert dom.contains(c0)
    (theta,), (dist,) = dom.nearest_thetas(c0.coeffs[None, :])
    assert abs(theta) <= 0.01 and dist <= 0.01


def test_ball_chain_grid_resolution_shell():
    # Membership on the theta grid at step 1e-3 may disagree with a 4x finer
    # grid only inside a boundary shell of width 2e-3.
    coarse = BallChain(E1, E2, theta_steps=int(2 * math.pi / 1e-3))
    fine = BallChain(E1, E2, theta_steps=4 * coarse.theta_steps)
    rng = np.random.default_rng(32)
    thetas = rng.uniform(-math.pi, math.pi, size=400)
    dirs = rng.normal(size=(400, 8))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    radii = BallChain.RADIUS + rng.uniform(-5e-3, 5e-3, size=400)
    pts = fine._centers(thetas) + dirs * radii[:, None]
    for p in pts:
        x = Octonion(p)
        fine_margin = fine.margin(x)
        if fine_margin >= 2e-3:
            assert coarse.contains(x)
        elif fine_margin <= -2e-3:
            assert not coarse.contains(x)


def test_sphere_slice_member():
    dom = SlabCone(E1, math.pi / 4)
    assert sphere_slice_member(dom, 0.0, 2.0, E1)
    assert sphere_slice_member(dom, 0.0, 2.0, -E1)
    assert not sphere_slice_member(dom, 0.0, 2.0, E2)
    assert sphere_slice_member(dom, 0.0, 0.5, E2)
    ball = Ball(oct_(0), 2.0)
    assert sphere_slice_member(ball, 0.0, 1.0, E2)
    assert not sphere_slice_member(ball, 0.0, 2.5, E2)


def test_same_component_verdicts():
    plan = SamplePlan()
    cone = SlabCone(E1, math.pi / 4)
    near = UnitImaginary.from_vector([math.cos(0.3), math.sin(0.3), 0, 0, 0, 0, 0])
    assert same_component(cone, 0.0, 2.0, E1, near, plan=plan) == "same"
    assert same_component(cone, 0.0, 2.0, E1, -E1, plan=plan) == "different"
    ball = Ball(oct_(0), 3.0)
    assert same_component(ball, 0.0, 2.0, E1, E2, plan=plan) == "same"
    assert same_component(ball, 0.0, 2.0, E1, -E1, plan=plan) == "same"
    with pytest.raises(DomainError):
        same_component(cone, 0.0, 2.0, E1, E2, plan=plan)
    probe = UnitImaginary.from_vector([0, 0, 0, 1, 0, 0, 0])
    with pytest.raises(PreconditionError):
        same_component(ball, 0.0, 2.0, E1, probe, plan=plan)


def test_same_component_soundness_positive_cases():
    # Never "different" for units joined by an in-domain great-circle arc.
    rng = np.random.default_rng(33)
    plan = SamplePlan()
    sub = Subsphere.default()
    for trial in range(100):
        radius = rng.uniform(1.5, 3.0)
        center = float(rng.uniform(-0.5, 0.5))
        dom = Ball(oct_(center), radius)
        b = rng.uniform(0.3, radius * 0.7)
        u = sub.sample(2, np.random.default_rng(1000 + trial))
        i1 = UnitImaginary.from_vector(u[0])
        i2 = UnitImaginary.from_vector(u[1])
        # Real-centered ball: the whole great circle through i1, i2 is in-slice.
        verdict = same_component(dom, 0.0, b, i1, i2, plan=plan.with_seed(trial))
        assert verdict != "different"
        # every verdict of the DisjointSet labelling here was "same"
        assert verdict == "same"


def test_circularly_connected_scan():
    plan = SamplePlan()
    ball = circularly_connected_scan(Ball(oct_(0), 2.0), plan)
    assert ball.passed
    rep = circularly_connected_scan(SlabCone(E1, math.pi / 4), plan)
    assert not rep.passed
    assert rep.max_residual >= 2.0
    assert rep.to_json()["pass"] is False
    # the reports of the DisjointSet labelling, to the last bit
    assert ball.to_json() == {
        "op": "circular-connectivity",
        "samples": 6,
        "max_residual": 1.0,
        "mean_residual": 1.0,
        "tolerance": 1.0,
        "pass": True,
        "worst_point": [
            -1.0, 0.12525695114429128, -0.4060605918295994, 0.26348717606940975, 0.0, 0.0, 0.0, 0.0
        ],
    }
    assert rep.to_json() == {
        "op": "circular-connectivity",
        "samples": 15,
        "max_residual": 2.0,
        "mean_residual": 1.6666666666666667,
        "tolerance": 1.0,
        "pass": False,
        "worst_point": [
            -2.0, -1.3376504148725021, 0.6723739672407298, -0.09276106817186304, 0.0, 0.0, 0.0, 0.0
        ],
    }


def _plain_union_find(n, edges):
    """Component count and labels numbered by smallest member, the plain way."""
    parent = list(range(n))

    def root(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for a, b in edges:
        ra, rb = root(a), root(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    names: dict[int, int] = {}
    labels = [names.setdefault(root(i), len(names)) for i in range(n)]
    return len(names), labels


def test_components_match_plain_union_find():
    rng = np.random.default_rng(20260819)
    seen = set()
    for trial in range(300):
        n = trial if trial < 2 else int(rng.integers(1, 90))
        m = 0 if trial % 10 == 2 else int(rng.integers(0, 2 * n + 1))
        edges = rng.integers(0, max(n, 1), size=(m, 2)) if n else np.empty((0, 2), dtype=int)
        if n and trial % 3 == 0:
            loops = rng.integers(0, n, size=3)
            edges = np.vstack([edges, np.column_stack([loops, loops]), edges[: m // 2, ::-1], edges[: m // 3]])
        count, labels = components(n, edges)
        want_count, want = _plain_union_find(n, edges.tolist())
        assert count == want_count, trial
        assert labels.shape == (n,) and labels.tolist() == want, trial
        # component k first appears after component k - 1
        firsts = [int(np.flatnonzero(labels == k)[0]) for k in range(count)]
        assert firsts == sorted(firsts), trial
        seen.add("n=0" if n == 0 else "n=1" if n == 1 else "no edges" if len(edges) == 0 else "edges")
        if len(edges):
            if (edges[:, 0] == edges[:, 1]).any():
                seen.add("self-loop")
            if len(np.unique(np.sort(edges, axis=1), axis=0)) < len(edges):
                seen.add("repeat")
    assert seen == {"n=0", "n=1", "no edges", "edges", "self-loop", "repeat"}


def test_domain_json_roundtrip():
    domains = [
        Ball(oct_(1, 0.5), 1.25),
        BallUnion([Ball(oct_(0), 1.0), Ball(oct_(2), 0.5)]),
        SlabCone(E1, math.pi / 4),
        BallChain(E1, E2, theta_steps=256),
    ]
    rng = np.random.default_rng(34)
    pts = rng.uniform(-3, 3, size=(200, 8))
    for dom in domains:
        clone = Domain.from_json(dom.to_json())
        assert np.array_equal(dom.contains_batch(pts), clone.contains_batch(pts))
    with pytest.raises(PreconditionError):
        Domain.from_json({"type": "nope"})
    with pytest.raises(PreconditionError):
        PredicateDomain(lambda x: True, (np.full(8, -1.0), np.full(8, 1.0))).to_json()


def test_predicate_domain():
    dom = PredicateDomain(lambda x: x.re > 0, (np.full(8, -1.0), np.full(8, 1.0)))
    assert dom.contains(oct_(0.5))
    assert not dom.contains(oct_(-0.5))
    pts = dom.sample_interior(20, np.random.default_rng(35))
    assert len(pts) == 20 and (pts[:, 0] > 0).all()


def test_adaptive_unit_pool_far_ball():
    dom = Ball(oct_(0, 2, 2), 0.3)
    plan = SamplePlan()
    units, sep = adaptive_unit_pool(dom, Subsphere.default(), plan, plan.rng())
    assert len(units) > 20
    axis = np.array([1, 1, 0, 0, 0, 0, 0]) / math.sqrt(2)
    cos_to_axis = np.abs(units @ axis)
    # Every pool unit hugs one of the two antipodal caps of the domain.
    assert float(cos_to_axis.min()) > math.cos(0.25)
    d = np.linalg.norm(units[:, None, :] - units[None, :, :], axis=2)
    np.fill_diagonal(d, 9.0)
    assert float(d.min()) >= 2 * math.sin(sep / 2) - 1e-12


def test_subsphere_validation():
    sub = Subsphere.default()
    pts = sub.sample(100, np.random.default_rng(36))
    assert np.allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)
    assert np.allclose(pts[:, 3:], 0.0, atol=1e-15)
    assert sub.contains(E1)
    assert not sub.contains(UnitImaginary.basis(5))
    with pytest.raises(PreconditionError):
        Subsphere([E1, E1])


@pytest.mark.parametrize(
    "field, value",
    [
        ("sphere_samples", 0),
        ("search_budget", -5),
        ("pool_max", 0),
        ("pool_harvest", 2.5),
        ("residual_samples", True),
        ("link_angle", 0.0),
        ("quotient_step_factor", float("nan")),
        ("quotient_step_factor", -0.05),
        ("quotient_z_step", float("inf")),
        ("quotient_z_step", 0.0),
        ("pool_sep_floor", float("-inf")),
        ("pool_sep", "0.1"),
    ],
)
def test_sample_plan_rejects_unresolvable_values(field, value):
    with pytest.raises(PreconditionError, match=field):
        SamplePlan(**{field: value})


def test_sample_plan_keeps_valid_values():
    plan = SamplePlan(quotient_z_step=0.1, pool_sep=0.05, pool_max=1, search_budget=3)
    assert plan.with_seed(4).seed == 4
    assert SamplePlan().quotient_z_step is None and SamplePlan().pool_sep is None
