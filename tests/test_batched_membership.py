"""Batched membership work must give bit-for-bit the answers of the plain loops.

Each test holds a reference written the straightforward way: an unbounded
nearest-centre query for the ball chain, a per-unit loop over the seven
points of a closed z leg for base moves, an edge-by-edge loop for arc end
checks, a candidate-by-candidate greedy thinning for unit pools (each
candidate against the whole pool kept so far), and interior sampling that
tests every proposal of a round.
"""

import math

import numpy as np
import pytest
from scipy.spatial import cKDTree

from octoslice.algebra import Octonion, UnitImaginary, row_norms
from octoslice.domains import _SAMPLE_ROUNDS, Ball, BallChain, BallUnion, PredicateDomain, SlabCone
from octoslice.errors import EmptySampleError
from octoslice.liftings import _FiberSearch
from octoslice.sampling import SamplePlan, adaptive_unit_pool, chord_of_angle, sample_units, thin_units

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
    return units[_reference_thin(units, chord_of_angle(sep), plan.pool_max)], sep


def _reference_thin(units, min_chord, cap):
    kept = []
    for k, u in enumerate(units):
        if len(kept) >= cap:
            break
        if not kept or float(np.linalg.norm(units[kept] - u, axis=1).min()) >= min_chord:
            kept.append(k)
    return np.array(kept, dtype=np.int64)


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


def _plane_units(angles):
    """Units cos(t) e1 + sin(t) e2 of the sampling sphere, as (n, 7)."""
    units = np.zeros((len(angles), 7))
    units[:, 0], units[:, 1] = np.cos(angles), np.sin(angles)
    return units


def test_thin_units_decides_ties_at_the_chord_like_the_plain_loop():
    rng = np.random.default_rng(5)
    u, w = sample_units(2, rng)
    chord = float(row_norms(u - w))
    pair = np.stack([u, w])
    # a chord equal to min_chord keeps both units, one ulp under it drops the second
    for min_chord, kept in ((chord, [0, 1]), (np.nextafter(chord, 0.0), [0, 1]), (np.nextafter(chord, 3.0), [0])):
        assert thin_units(pair, min_chord, 10).tolist() == kept
    # sets whose chords fall exactly on, one ulp under and one ulp over min_chord
    ring = _plane_units(np.arange(64) * 0.1)
    wobble = sample_units(300, rng)
    cases = []
    for units in (ring, wobble, np.vstack([ring, wobble])):
        chords = row_norms(units[0] - units[1:9])
        for c in chords:
            cases += [(units, m) for m in (c, np.nextafter(c, 0.0), np.nextafter(c, 3.0))]
    # duplicates and antipodes, at chords 0, 2 and just past 2
    u8 = sample_units(8, rng)
    dupes = np.vstack([u8, u8, -u8, u8[::-1], -u8[::-1]])
    cases += [(dupes, m) for m in (0.0, 1e-300, 0.3, 2.0, np.nextafter(2.0, 3.0), 3.0)]
    cases += [(dupes, float(c)) for c in row_norms(u8[0] - dupes)]
    dropped_on_boundary = 0
    for units, min_chord in cases:
        for cap in (0, 1, 5, 10_000):
            got = thin_units(units, min_chord, cap)
            want = _reference_thin(units, min_chord, cap)
            assert got.dtype == np.int64 and got.tolist() == want.tolist(), (min_chord, cap)
        dropped_on_boundary += len(want) < len(units)
    assert thin_units(np.empty((0, 7)), 0.1, 5).tolist() == []
    assert dropped_on_boundary > len(cases) // 2


def _reference_sample_interior(domain, n, rng, margin=0.0, min_im=0.0):
    # every proposal of a round is tested, in one batch
    out = []
    need = n
    for _ in range(_SAMPLE_ROUNDS):
        cand = domain._propose(max(4 * need, 64), rng)
        ok = np.linalg.norm(cand[:, 1:], axis=1) >= min_im
        ok &= domain.deep_legs(cand, cand, margin) if margin > 0.0 else domain.contains_batch(cand)
        cand = cand[ok]
        if len(cand):
            out.append(cand[:need])
            need -= len(cand[:need])
        if need <= 0:
            break
    return np.vstack(out) if out else np.empty((0, 8))


class _CountingPredicate(PredicateDomain):
    def __init__(self, fn, bbox):
        super().__init__(fn, bbox)
        self.calls = []

    def contains_batch(self, pts):
        self.calls.append(len(pts))
        return super().contains_batch(pts)


class _CountingChain(BallChain):
    rows = 0

    def contains_batch(self, pts):
        self.rows += len(pts)
        return super().contains_batch(pts)


SAMPLED_DOMAINS = {
    "ball": Ball(0.3 * E[0] + 1.5 * E[1], 0.8),
    "ball-union": _bridged_union(),
    "slab-cone": SlabCone(UnitImaginary.basis(1)),
    "chain": CHAIN,
    # a tenth of the box: the first block of a round falls short
    "predicate": PredicateDomain(lambda x: x.re > 0.8, (np.full(8, -1.0), np.full(8, 1.0))),
}


@pytest.mark.parametrize("name", sorted(SAMPLED_DOMAINS))
def test_sample_interior_equals_testing_every_proposal(name):
    domain = SAMPLED_DOMAINS[name]
    n = 40 if name == "predicate" else 300
    for seed in (0, 1, 2):
        for margin in (0.0, 0.05):
            for min_im in (0.0, 0.5):
                rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
                got = domain.sample_interior(n, rng, margin=margin, min_im=min_im)
                want = _reference_sample_interior(domain, n, ref_rng, margin=margin, min_im=min_im)
                assert got.shape == want.shape and got.dtype == want.dtype
                assert got.tobytes() == want.tobytes(), (seed, margin, min_im)
                # the same proposals were drawn
                assert rng.bit_generator.state == ref_rng.bit_generator.state
                # a predicate domain certifies no margin, so nothing passes
                assert len(got) == (0 if name == "predicate" and margin > 0.0 else n)


def test_sample_interior_tests_blocks_until_enough_pass():
    tenth = _CountingPredicate(lambda x: x.re > 0.8, (np.full(8, -1.0), np.full(8, 1.0)))
    got = tenth.sample_interior(40, np.random.default_rng(0))
    want = _reference_sample_interior(tenth, 40, np.random.default_rng(0))
    assert got.tobytes() == want.tobytes() and len(got) == 40
    # the first block of n rows fell short, so later blocks followed
    assert tenth.calls[0] == 40 and len(tenth.calls) > 2
    # a domain that accepts nothing still gives up after its rounds
    nothing = _CountingPredicate(lambda x: False, (np.full(8, -1.0), np.full(8, 1.0)))
    rng, ref_rng = np.random.default_rng(1), np.random.default_rng(1)
    empty = nothing.sample_interior(5, rng)
    assert empty.shape == (0, 8) and empty.dtype == np.float64
    assert _reference_sample_interior(nothing, 5, ref_rng).shape == (0, 8)
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert sum(nothing.calls) == 2 * _SAMPLE_ROUNDS * 64


def test_chain_harvest_tests_at_most_twice_its_count():
    plan = SamplePlan()
    chain = _CountingChain(UnitImaginary.basis(1), UnitImaginary.basis(2))
    pts = chain.sample_interior(plan.pool_harvest, plan.rng(), min_im=1e-6)
    assert len(pts) == plan.pool_harvest == 3000
    assert chain.rows <= 2 * plan.pool_harvest
    # testing every proposal takes four rows per point
    reference = _CountingChain(UnitImaginary.basis(1), UnitImaginary.basis(2))
    want = _reference_sample_interior(reference, plan.pool_harvest, plan.rng(), min_im=1e-6)
    assert pts.tobytes() == want.tobytes() and reference.rows == 4 * plan.pool_harvest
