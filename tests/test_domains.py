"""Domain membership, point-leg margins, slice spheres, and connectivity verdicts."""

import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest

from octoslice.algebra import Octonion, UnitImaginary, tau
from octoslice.domains import (
    MAX_THETA_STEPS,
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
from octoslice.sampling import (
    MAX_GRAPH_PAIRS,
    SUBSPHERE_BASIS,
    SamplePlan,
    adaptive_unit_pool,
    chord_of_angle,
    components,
    in_subsphere,
    sample_units,
)

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
    # the point leg (x, x, r) is certified for r just below the true margin 2 - |x|, not at it
    p = oct_(1, 0.5).coeffs[None, :]
    m = 2.0 - oct_(1, 0.5).norm()
    assert dom.deep_legs(p, p, m * (1.0 - 1e-8)).tolist() == [True]
    assert dom.deep_legs(p, p, m).tolist() == [False]
    assert dom.deep_legs(oct_(2, 1).coeffs[None, :], oct_(2, 1).coeffs[None, :], 0.0).tolist() == [False]


def test_z_window():
    ball = Ball(oct_(0), 3.0)
    assert ball.z_window() == (-3.0, 3.0, 3.0)
    far = Ball(oct_(1, 2), 0.5)
    lo, hi, bmax = far.z_window()
    assert (lo, hi) == (0.5, 1.5) and abs(bmax - 2.5) <= 1e-12
    chain = BallChain(E1, E2)
    assert chain.z_window() == (-1.25, 1.25, 3.25)
    assert SlabCone(E1).z_window() == (-4.0, 4.0, 4.0)


def ref_margin(dom, p):
    """Distance from p to the complement of the piece that holds it best, computed directly."""
    if isinstance(dom, (Ball, BallUnion)):
        balls = dom.balls if isinstance(dom, BallUnion) else [dom]
        return max(b.radius - np.linalg.norm(p - b.center.coeffs) for b in balls)
    if isinstance(dom, BallChain):
        return dom.RADIUS - np.min(np.linalg.norm(dom.centers - p, axis=1))
    y = p[1:]
    along = abs(float(y @ dom.i0.vec))
    across = float(np.linalg.norm(y - (y @ dom.i0.vec) * dom.i0.vec))
    cone = np.linalg.norm(y) * math.sin(dom.half_angle - math.atan2(across, along))
    return max(1.0 - np.linalg.norm(y), cone)


def test_margin_is_conservative():
    rng = np.random.default_rng(31)
    domains = [
        Ball(oct_(0.3, 1.0), 1.5),
        BallUnion([Ball(oct_(0), 1.0), Ball(oct_(1.5), 1.0)]),
        SlabCone(E1, math.pi / 4),
        SlabCone(E2, math.pi / 2),
        BallChain(E1, E2, theta_steps=512),
    ]
    for dom in domains:
        pts = dom.sample_interior(40, rng)
        certified = 0
        for p in pts:
            m = ref_margin(dom, p)
            assert m > 0.0
            leg = p[None, :]
            # the certificate reaches the true margin up to its slack, and never past it
            assert not dom.deep_legs(leg, leg, m)[0]
            if m > 1e-6 * (1.0 + np.linalg.norm(p)):
                assert dom.deep_legs(leg, leg, m - 1e-6 * (1.0 + np.linalg.norm(p)))[0]
                certified += 1
            for _ in range(8):
                d = rng.normal(size=8)
                d /= np.linalg.norm(d)
                assert dom.contains(Octonion(p + 0.95 * m * d))
        assert certified >= 35
        # `sample_interior` with a margin keeps only points whose margin ball is certified
        deep = dom.sample_interior(40, rng, margin=0.05)
        assert len(deep) == 40 and dom.deep_legs(deep, deep, 0.05).all()
        assert all(ref_margin(dom, p) > 0.05 for p in deep)


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
    inside = coarse.contains_batch(pts)
    # points whose 2e-3 ball the fine chain certifies, and points 2e-3 past every fine ball
    deep = fine.deep_legs(pts, pts, 2e-3)
    _, dist = fine.nearest_thetas(pts)
    far = dist >= BallChain.RADIUS + 2e-3
    assert deep.sum() > 100 and far.sum() > 10
    assert inside[deep].all() and not inside[far].any()


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
    for trial in range(100):
        radius = rng.uniform(1.5, 3.0)
        center = float(rng.uniform(-0.5, 0.5))
        dom = Ball(oct_(center), radius)
        b = rng.uniform(0.3, radius * 0.7)
        u = sample_units(2, np.random.default_rng(1000 + trial))
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


# Sampled slice-sphere verdicts stay byte-identical for a seed: the digests
# below were recorded before the sampling sphere became a module constant.
_SCAN_DOMAINS = [
    (Ball(oct_(0.3), 2.0), {}),
    (SlabCone(E1, math.pi / 4), {}),
    (BallUnion([Ball(oct_(0, 2), 1.6), Ball(oct_(0, 0, 2), 1.6)]), {}),
    (BallChain(E1, E2), {"a_values": (-1.0, 0.0, 1.0), "b_values": (1.8, 2.0, 2.2)}),
]


def test_scan_and_component_verdicts_are_frozen():
    scans = [
        circularly_connected_scan(dom, SamplePlan(seed=40 + k, sphere_samples=1500, **grid)).to_json()
        for k, (dom, grid) in enumerate(_SCAN_DOMAINS)
    ]
    digest = hashlib.sha256(json.dumps(scans, sort_keys=True).encode()).hexdigest()
    assert digest == "eb550e06280ad97a7684b4e2b7fb222707b771c6496b2fed5bf850c487ae9dd7"

    verdicts = []
    rng = np.random.default_rng(50)
    for (dom, _), a, b in zip(_SCAN_DOMAINS, (0.3, 0.0, 0.0, -1.0), (1.5, 2.0, 2.0, 2.0)):
        g = rng.normal(size=(400, 3))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        units = [UnitImaginary.from_vector(np.r_[u, np.zeros(4)]) for u in g]
        units = [u for u in units if sphere_slice_member(dom, a, b, u)][:8]
        for i in range(0, len(units) - 1, 2):
            plan = SamplePlan(seed=60 + i, sphere_samples=1000)
            verdicts.append(same_component(dom, a, b, units[i], units[i + 1], plan=plan))
    assert verdicts == [
        "same", "same", "unknown", "same", "different", "different",
        "different", "different", "different", "unknown", "same", "same",
    ]


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


def test_ball_chain_theta_steps_past_the_limit_raise_before_allocating():
    chain = BallChain(E1, E2, theta_steps=64).to_json()
    tracemalloc.start()
    try:
        for steps in (MAX_THETA_STEPS + 1, 10**10):
            with pytest.raises(PreconditionError, match="over the limit"):
                BallChain(E1, E2, theta_steps=steps)
            with pytest.raises(PreconditionError, match="over the limit"):
                Domain.from_json({**chain, "theta_steps": steps})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the thetas alone of the smaller grid would take 8 MB
    assert peak < 2**20


def test_predicate_domain():
    dom = PredicateDomain(lambda x: x.re > 0, (np.full(8, -1.0), np.full(8, 1.0)))
    assert dom.contains(oct_(0.5))
    assert not dom.contains(oct_(-0.5))
    pts = dom.sample_interior(20, np.random.default_rng(35))
    assert len(pts) == 20 and (pts[:, 0] > 0).all()


def test_adaptive_unit_pool_far_ball():
    dom = Ball(oct_(0, 2, 2), 0.3)
    plan = SamplePlan()
    units, sep = adaptive_unit_pool(dom, plan)
    assert len(units) > 20
    axis = np.array([1, 1, 0, 0, 0, 0, 0]) / math.sqrt(2)
    cos_to_axis = np.abs(units @ axis)
    # Every pool unit hugs one of the two antipodal caps of the domain.
    assert float(cos_to_axis.min()) > math.cos(0.25)
    d = np.linalg.norm(units[:, None, :] - units[None, :, :], axis=2)
    np.fill_diagonal(d, 9.0)
    assert float(d.min()) >= 2 * math.sin(sep / 2) - 1e-12


def test_subsphere_validation():
    pts = sample_units(100, np.random.default_rng(36))
    assert np.allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)
    assert np.allclose(pts[:, 3:], 0.0, atol=1e-15)
    assert in_subsphere(E1) and in_subsphere(pts[0])
    assert not in_subsphere(UnitImaginary.basis(5))
    with pytest.raises(ValueError):
        SUBSPHERE_BASIS[0, 0] = 2.0


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
        ("min_im", float("nan")),
        ("min_im", -1.0),
        ("min_im", float("inf")),
        ("min_im", True),
        ("a_values", ()),
        ("a_values", (0.0, float("nan"))),
        ("a_values", (1.0, True)),
        ("a_values", "12"),
        ("b_values", []),
        ("b_values", (0.5, float("-inf"))),
        ("b_values", (1.5 + 0.5j,)),
        ("b_values", 1.5),
        # one past each upper limit, and scan grids of more than 256 cells
        ("sphere_samples", 50_001),
        ("component_detect_min", 50_001),
        ("residual_samples", 50_001),
        ("residual_unit_samples", 1_001),
        ("search_budget", 1_000_001),
        ("pool_harvest", 500_001),
        ("pool_max", 10_001),
        ("sphere_samples", 10**12),
        ("a_values", tuple(range(86))),
        ("b_values", (1.0,) * 52),
        # angles past pi, where a chord shrinks again
        ("link_angle", 4.0),
        ("link_angle", np.nextafter(math.pi, 4.0)),
        ("pool_sep", 3.2),
        ("pool_sep_floor", 7.0),
    ],
)
def test_sample_plan_rejects_unresolvable_values(field, value):
    with pytest.raises(PreconditionError, match=field):
        SamplePlan(**{field: value})


def test_empty_batches_are_bool():
    domains = [
        Ball(oct_(0), 1.0),
        BallUnion([Ball(oct_(0), 1.0), Ball(oct_(1.5), 1.0)]),
        SlabCone(E1),
        BallChain(E1, E2, theta_steps=64),
        PredicateDomain(lambda x: x.norm() < 1.0, (np.full(8, -1.0), np.full(8, 1.0))),
    ]
    empty = np.empty((0, 8))
    for dom in domains:
        for got in (dom.contains_batch(empty), dom.deep_legs(empty, empty, 0.1)):
            assert got.dtype == bool and got.shape == (0,)


def test_sample_plan_keeps_valid_values():
    plan = SamplePlan(quotient_z_step=0.1, pool_sep=0.05, pool_max=1, search_budget=3)
    assert plan.with_seed(4).seed == 4
    assert SamplePlan().quotient_z_step is None and SamplePlan().pool_sep is None
    plan = SamplePlan(min_im=0, a_values=[-1, 0.5], b_values=(np.float64(2.0),))
    assert plan.scan_grid() == ([-1, 0.5], (2.0,))
    # each upper limit itself passes
    SamplePlan(
        sphere_samples=50_000, component_detect_min=50_000, residual_samples=50_000, residual_unit_samples=1_000,
        search_budget=1_000_000, pool_harvest=500_000, pool_max=10_000, a_values=(0.0,) * 16, b_values=(1.0,) * 16,
    )
    # and so does an angle of pi
    SamplePlan(link_angle=math.pi, pool_sep=math.pi, pool_sep_floor=math.pi)


def test_sample_plan_bounds_the_proximity_graph():
    # past pi the chord shrinks: 4.0 would link less than 3.0
    assert chord_of_angle(4.0) < chord_of_angle(3.0)
    # n^2 sin^2(link / 2) / 2 pairs: 7.0 M at the sample limit and the default angle
    assert SamplePlan(sphere_samples=50_000).sphere_samples == 50_000
    assert 50_000**2 * math.sin(0.075) ** 2 / 2 < MAX_GRAPH_PAIRS
    SamplePlan(sphere_samples=4000, link_angle=3.0)
    for samples, link in ((50_000, 3.0), (50_000, 0.2), (10_000, 1.0)):
        with pytest.raises(PreconditionError, match="proximity-graph pairs"):
            SamplePlan(sphere_samples=samples, link_angle=link)


_BUILT_IN = [
    Ball(oct_(0.5, 2.0), 2.0),
    BallUnion([Ball(oct_(0.5, 2.0), 2.0), Ball(oct_(0, 0, 2.0), 1.0)]),
    SlabCone(E1),
    BallChain(E1, E2),
]


@pytest.mark.parametrize("domain", _BUILT_IN, ids=lambda d: type(d).__name__)
def test_non_finite_rows_are_outside(domain):
    # inside: the first ball's centre, on the slab and on a chain ball's centre
    finite = np.array([oct_(0.5, 2.0).coeffs, oct_(1.0, 2.0).coeffs])
    rows = []
    for bad in (np.nan, np.inf, -np.inf):
        for k in (0, 2, 7):
            row = finite[k % 2].copy()
            row[k] = bad
            rows.append(row)
        rows.append(np.full(8, bad))
    pts = np.vstack([finite, rows, finite])
    got = domain.contains_batch(pts)
    want = domain.contains_batch(finite)
    assert want.any()
    assert got.tolist() == want.tolist() + [False] * len(rows) + want.tolist()
    assert domain.contains_batch(np.array(rows)).tolist() == [False] * len(rows)


@pytest.mark.parametrize("domain", _BUILT_IN, ids=lambda d: type(d).__name__)
def test_a_negative_sag_certifies_nothing(domain):
    x = oct_(1.0, 2.0).coeffs[None]
    far = np.full((1, 8), 5.0)
    assert domain.deep_legs(x, x, 1e-3).tolist() == [True]
    for sag in (-np.inf, -1.0, -1e-300, np.nan):
        assert domain.deep_legs(x, x, sag).tolist() == [False]
        assert domain.deep_legs(far, far, sag).tolist() == [False]
    # per-leg sags: only the negative one is refused
    pts = np.vstack([x, x])
    assert domain.deep_legs(pts, pts, np.array([1e-3, -1e-3])).tolist() == [True, False]
    assert domain.deep_legs(pts, pts, np.array([0.0, -0.0])).tolist() == [True, True]


@pytest.mark.parametrize("half_angle", [math.pi / 4, math.pi / 2])
def test_slab_cone_answers_huge_points_like_small_ones(half_angle):
    # |Im x|^2 overflows at these scales; the cone test does not depend on scale
    dom = SlabCone(E1, half_angle)
    side = E2.vec
    units = [E1.vec, -E1.vec, side, 0.6 * E1.vec + 0.8 * side]
    for angle in (half_angle - 1e-6, half_angle + 1e-6):
        if angle < math.pi / 2:
            units.append(math.cos(angle) * E1.vec + math.sin(angle) * side)
    pts = np.zeros((len(units), 8))
    pts[:, 1:] = units
    want = dom.contains_batch(2.0 * pts)
    assert want[:2].all() and not want[2] and want.tolist() == [
        abs(u @ E1.vec) > math.cos(half_angle) for u in units
    ]
    for scale in (1e155, 1e300):
        assert dom.contains_batch(scale * pts).tolist() == want.tolist()
        # rows that do not overflow keep their bits in a batch with huge ones
        assert dom.contains_batch(np.vstack([2.0 * pts, scale * pts])).tolist() == want.tolist() * 2
        # the certificate may refuse such legs, but never certifies an outside one
        held = dom.deep_legs(scale * pts, scale * pts, 0.0)
        assert not (held & ~want).any()
