"""Batched membership work must give bit-for-bit the answers of the plain loops.

Each test holds a reference written the straightforward way: an unbounded
nearest-centre query for the ball chain, a per-unit loop over the seven
points of a closed z leg for base moves, an edge-by-edge loop for arc end
checks, and a candidate-by-candidate greedy thinning for unit pools (each
candidate against the whole pool kept so far).
"""

import math

import numpy as np
import pytest
from scipy.spatial import cKDTree

from octoslice.algebra import Octonion, UnitImaginary
from octoslice.domains import Ball, BallChain, BallUnion, SlabCone
from octoslice.errors import EmptySampleError
from octoslice.liftings import _FiberSearch
from octoslice.sampling import SamplePlan, adaptive_unit_pool, chord_of_angle

E = [Octonion.basis(k) for k in range(8)]
CHAIN = BallChain(UnitImaginary.basis(1), UnitImaginary.basis(2))


def _bridged_union():
    balls = [Ball(2 * E[1], 0.5), Ball(2 * E[2], 0.5)]
    for phi in np.linspace(0.0, math.pi / 2.0, 9):
        balls.append(Ball(2.6 * (math.cos(phi) * E[1] + math.sin(phi) * E[2]), 0.5))
    return BallUnion(balls)


# -- BallChain.contains_batch ------------------------------------------------


def _chain_test_points(rng):
    centers = CHAIN.centers
    r = CHAIN.RADIUS
    parts = []
    # shells just inside and just outside the radius around random centres,
    # in directions normal to the chain so that they meet the union's boundary
    tangents = np.gradient(centers, axis=0)
    for scale in (1.0 - 1e-12, 1.0, 1.0 + 1e-12):
        idx = rng.integers(1, len(centers) - 1, size=60_000)
        g = rng.normal(size=(len(idx), 8))
        t = tangents[idx] / np.linalg.norm(tangents[idx], axis=1, keepdims=True)
        g -= (g * t).sum(axis=1, keepdims=True) * t
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        parts.append(centers[idx] + r * scale * g)
    # axis-aligned offsets, some of which land at exactly the radius
    for k in range(8):
        for sign in (1.0, -1.0):
            shift = np.zeros(8)
            shift[k] = sign * r
            parts.append(centers + shift)
    # around the chain, and far from it
    lo, hi = CHAIN.bounding_box()
    parts.append(rng.uniform(lo, hi, size=(160_000, 8)))
    parts.append(rng.uniform(-50.0, 50.0, size=(30_000, 8)))
    parts.append(centers + rng.normal(scale=0.2, size=centers.shape))
    return np.vstack(parts)


def test_chain_mask_equals_unbounded_nearest_distance():
    pts = _chain_test_points(np.random.default_rng(7))
    assert len(pts) >= 400_000
    dist, _ = cKDTree(CHAIN.centers).query(pts)
    expected = dist < CHAIN.RADIUS
    got = CHAIN.contains_batch(pts)
    assert got.dtype == bool
    assert np.array_equal(got, expected)
    # both verdicts occur in quantity, including right at the boundary
    assert 50_000 < expected.sum() < len(pts) - 50_000
    assert (np.abs(dist - CHAIN.RADIUS) < 1e-11).sum() > 100_000


def test_chain_margin_and_nearest_theta_keep_true_distance():
    x = CHAIN.centers[100] + np.full(8, 1.0)
    (theta,), (dist,) = CHAIN.nearest_thetas(x[None, :])
    assert dist > CHAIN.RADIUS and math.isfinite(dist)
    # a point past every ball certifies no margin, and raises nothing
    assert CHAIN.deep_legs(x[None, :], x[None, :], 0.0).tolist() == [False]
    # near a centre, the point leg is certified up to the true nearest distance, not past it
    y = CHAIN.centers[100] + np.linspace(-0.05, 0.05, 8)
    (_,), (near,) = CHAIN.nearest_thetas(y[None, :])
    margin = CHAIN.RADIUS - near
    assert CHAIN.deep_legs(y[None, :], y[None, :], margin * (1.0 - 1e-6)).tolist() == [True]
    assert CHAIN.deep_legs(y[None, :], y[None, :], margin).tolist() == [False]


# -- _FiberSearch base moves and arc ends ------------------------------------


def _reference_base_move_ok(grid, col_a, col_b, i):
    # the closed leg, both end columns included, sampled from the smaller
    # column; a real end column's sample is the real point itself
    lo, hi = sorted((col_a, col_b))
    za, zb = grid.z_of(lo), grid.z_of(hi)
    u = grid.units[i]
    t = np.linspace(0.0, 1.0, 7)
    zs = (1.0 - t) * za + t * zb
    pts = np.zeros((len(zs), 8))
    pts[:, 0] = zs.real
    pts[:, 1:] = zs.imag[:, None] * u
    return bool(np.all(grid.domain.contains_batch(pts)))


def _reference_edges_ok(search, col):
    grid = search.grid
    z = grid.z_of(col)
    n_edges, n_probes, _ = grid.edge_arcs.shape
    pts = np.zeros((n_edges * n_probes, 8))
    pts[:, 0] = z.real
    pts[:, 1:] = z.imag * grid.edge_arcs.reshape(-1, 7)
    arc_ok = grid.domain.contains_batch(pts).reshape(n_edges, n_probes).all(axis=1)
    mem = grid.members(col)
    ends_ok = np.array([mem[a] and mem[b] for a, b in grid.edges], dtype=bool)
    return arc_ok & ends_ok


def _recorded_search(domain, plan, z, u1, u2):
    search = _FiberSearch(domain, plan, z, u1, u2)
    grid = search.grid
    moves, cols = [], set()
    move_mask, arc_mask = grid.move_mask, grid.arc_mask

    def recording_move_mask(col_a, col_b):
        moves.append((col_a, col_b))
        return move_mask(col_a, col_b)

    def recording_arc_mask(col):
        cols.add(col)
        return arc_mask(col)

    grid.move_mask = recording_move_mask
    grid.arc_mask = recording_arc_mask
    status, _, pops = search.run()
    return search, status, pops, moves, cols


E1, E2 = np.eye(7)[0], np.eye(7)[1]
SEARCHES = {
    # seam pair of the chain: inequivalent, explores its whole component
    "seam": (CHAIN, SamplePlan(seed=0, quotient_z_step=0.25, pool_sep=0.08), -1 + 2j, E2, -E2),
    # bridged union: equivalent only through base-point moves
    "bridged": (_bridged_union(), SamplePlan(seed=0), 2j, E1, E2),
    # ball meeting the real axis: some moves end on a real column
    "real-ball": (
        Ball(0.5 * E[1], 1.0), SamplePlan(seed=0, quotient_z_step=0.1), 0.5 + 0.25j, E2, -E2
    ),
}


@pytest.mark.parametrize("name", sorted(SEARCHES))
def test_base_moves_and_arc_ends_match_per_unit_loops(name):
    domain, plan, z, u1, u2 = SEARCHES[name]
    search, status, pops, moves, cols = _recorded_search(domain, plan, z, u1, u2)
    grid = search.grid
    assert pops > 0 and len(moves) > 0
    assert status == {"seam": "not-equivalent", "bridged": "found", "real-ball": "found"}[name]
    if name == "real-ball":
        assert any(grid.is_real_col(col_b) for _, col_b in moves)
    # every unit of every visited column pair, not only the units visited
    outcomes = set()
    for col_a, col_b in set(moves):
        mask = grid.move_mask(col_a, col_b)
        want = [_reference_base_move_ok(grid, col_a, col_b, i) for i in range(len(grid.units))]
        assert mask.tolist() == want, (col_a, col_b)
        outcomes.update(want)
    assert outcomes == {True, False}
    assert cols
    for col in cols:
        assert np.array_equal(grid.arc_mask(col), _reference_edges_ok(search, col)), col


# -- adaptive_unit_pool ------------------------------------------------------


def _reference_pool(domain, plan):
    pts = domain.sample_interior(plan.pool_harvest, plan.rng(), min_im=1e-6)
    if len(pts) == 0:
        raise EmptySampleError("no interior samples to harvest units from")
    ims = pts[:, 1:]
    units = ims / np.linalg.norm(ims, axis=1, keepdims=True)
    basis = np.eye(3, 7)  # e1, e2, e3
    proj = units @ basis.T @ basis
    keep = np.linalg.norm(proj, axis=1) > 0.7
    units = proj[keep] / np.linalg.norm(proj[keep], axis=1, keepdims=True)
    units = np.vstack([units, -units])
    spread = 2.0 * float(np.arccos(np.clip(np.abs(units @ units[0]), -1.0, 1.0)).max(initial=0.0))
    spread = min(spread, np.pi)
    sep = plan.pool_sep if plan.pool_sep is not None else max(plan.pool_sep_floor, spread / 15.0)
    min_chord = chord_of_angle(sep)
    kept = np.empty((0, 7))
    for u in units:
        if len(kept) >= plan.pool_max:
            break
        if len(kept) == 0 or float(np.linalg.norm(kept - u, axis=1).min()) >= min_chord:
            kept = np.vstack([kept, u])
    return kept, sep


POOL_DOMAINS = {
    "ball": Ball(Octonion.zero(), 1.0),
    "off-axis-ball": Ball(0.3 * E[0] + 1.5 * E[1] + 0.5 * E[3], 0.8),
    "slab-cone": SlabCone(UnitImaginary.basis(1)),
    "chain": CHAIN,
}
# (pool_max, pool_sep): full pools, caps that cut the pool short, the
# smallest caps, and a fine separation under a cap no pool reaches
POOL_PLANS = (
    (900, None), (150, None), (50, None), (140, 0.08), (900, 0.03), (1, None), (0, None), (5000, 0.02)
)


@pytest.mark.parametrize("name", sorted(POOL_DOMAINS))
def test_unit_pool_equals_plain_greedy_thinning(name):
    domain = POOL_DOMAINS[name]
    cut_short = 0
    for seed in (0, 1, 2):
        for pool_max, pool_sep in POOL_PLANS:
            plan = SamplePlan(seed=seed, pool_harvest=1500, pool_sep=pool_sep)
            # set after validation, which refuses an empty cap: the thinning
            # loop must honour any cap by itself
            plan.pool_max = pool_max
            got, sep = adaptive_unit_pool(domain, plan)
            want, want_sep = _reference_pool(domain, plan)
            assert sep == want_sep
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes(), (seed, pool_max, pool_sep)
            cut_short += len(got) == pool_max
    # caps 0 and 1 cut every pool short; some larger caps must cut too
    assert 2 * 3 < cut_short < len(POOL_PLANS) * 3
