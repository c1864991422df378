"""The membership and leg kernels against the code they replaced.

The reference functions below are the earlier implementations: the
`np.linalg.norm` row norms, the per-ball loop of `BallUnion`, the per-pair
loop of `arc_probe_graph`, the per-pair `np.outer` probes of an arc and the
gathered form of `PolyPathS.eval_many`.
The kernels must reproduce them to the bit (`np.array_equal`) on every
input, non-finite and extreme ones included.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.spatial import cKDTree

from octoslice.algebra import _SMALL_NORMS, Octonion, UnitImaginary, row_dot, row_norms
from octoslice.diffops import FD_STEP, stencil_safe
from octoslice.domains import (
    _BALL_BLOCK,
    _LEG_CELLS,
    Ball,
    BallChain,
    BallUnion,
    PredicateDomain,
    SlabCone,
    balls_contain,
)
from octoslice.errors import DomainError, PreconditionError
from octoslice.liftings import (
    _KNOTS,
    CircularLifting,
    PolyPathC,
    PolyPathS,
    _even_times,
    _real_anchor,
    _unit_path_in_domain,
    lift_in_domain,
)
from octoslice.quotient import QuotientSample, class_at
from octoslice.sampling import _ARC_FRACS, _LEG_TIMES, arc_edges_at_least, arc_legs, arc_probe_graph

# Fixed examples, no example database: a run repeats the last one exactly.
KERNEL_SETTINGS = settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
ULP = 2.0**-52


def ref_row_norms(x):
    return np.linalg.norm(x, axis=-1)


def ref_balls(pts, centers, radii):
    mask = np.zeros(len(pts), dtype=bool)
    for c, r in zip(centers, radii):
        mask |= np.linalg.norm(pts - c, axis=1) < r
    return mask


def balls_member(centers, radii):
    return lambda pts: ref_balls(pts, centers, radii)


def ref_arc_probes(u, w, fracs=np.linspace(0.0, 1.0, 25)[1:-1]):
    """The renormalised chord points of the arc from u to w, or None when one nears the origin."""
    chords = np.outer(1.0 - fracs, u) + np.outer(fracs, w)
    norms = np.linalg.norm(chords, axis=1)
    return None if norms.min() < 1e-6 else chords / norms[:, None]


def ref_arc_probe_graph(units, link):
    """Edges within the link whose 23 probes all clear the origin, with their sags at height 1."""
    if len(units) == 0:
        return np.empty((0, 2), dtype=int), np.zeros(0)
    pairs = cKDTree(units).query_pairs(link, output_type="ndarray")
    ends, sags = [], []
    for a, b in pairs:
        if ref_arc_probes(units[a], units[b]) is None:
            continue
        ends.append((int(a), int(b)))
        sq = (np.linalg.norm((units[b] - units[a])[None], axis=1) ** 2)[0]
        sags.append(sq / 4.0 if sq <= 2.0 else np.nan)
    return np.asarray(ends, dtype=int).reshape(-1, 2), np.asarray(sags, dtype=float)


def ref_eval_many(path, ts):
    ts = np.clip(np.asarray(ts, dtype=float), 0.0, 1.0)
    idx = np.clip(np.searchsorted(path.times, ts, side="right") - 1, 0, len(path.times) - 2)
    t0, t1 = path.times[idx], path.times[idx + 1]
    s = ((ts - t0) / (t1 - t0))[:, None]
    pts = (1.0 - s) * path.vertices[idx] + s * path.vertices[idx + 1]
    return pts / np.linalg.norm(pts, axis=1)[:, None]


def same(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and np.array_equal(a, b, equal_nan=True)


def unit_rows(rng, n, width=8):
    d = rng.normal(size=(n, width))
    return d / np.linalg.norm(d, axis=1, keepdims=True)


# -- row norms ---------------------------------------------------------------

ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True, width=64)
SPECIALS = np.array([np.nan, np.inf, -np.inf, 1e300, -1e300, 1e154, 5e-324, -1e-310, 0.0, -0.0])


@KERNEL_SETTINGS
@given(
    arrays(np.float64, st.tuples(st.integers(0, 40), st.sampled_from([7, 8])), elements=ANY_FLOAT)
)
def test_row_norms_equals_linalg_norm_on_any_floats(x):
    with np.errstate(all="ignore"):
        assert same(row_norms(x), ref_row_norms(x))


@KERNEL_SETTINGS
@given(arrays(np.float64, st.tuples(st.integers(0, 6), st.integers(0, 9), st.just(8)), elements=ANY_FLOAT))
def test_row_norms_equals_linalg_norm_on_stacks_and_views(x):
    with np.errstate(all="ignore"):
        assert same(row_norms(x), ref_row_norms(x))
        assert same(row_norms(x[..., 1:]), ref_row_norms(x[..., 1:]))


@pytest.mark.parametrize("width", [7, 8])
def test_row_norms_equals_linalg_norm_around_the_small_array_size(width):
    # at most `_SMALL_NORMS` entries take one reduce, more the column sums
    rng = np.random.default_rng(width)
    for rows in (1, 2, _SMALL_NORMS // width, _SMALL_NORMS // width + 1, 3 * _SMALL_NORMS // width):
        x = rng.normal(size=(rows, width)) * np.exp(3.0 * rng.normal(size=(rows, width)))
        x[::13] = rng.choice(SPECIALS, size=x[::13].shape)
        with np.errstate(all="ignore"):
            assert same(row_norms(x), ref_row_norms(x))
            assert same(row_norms(x[None]), ref_row_norms(x[None]))


def test_row_norms_on_scaled_random_rows_and_specials():
    rng = np.random.default_rng(5)
    for scale in (1.0, 1e-160, 1e-300, 1e150, 1e160):
        x = rng.normal(size=(20_000, 8)) * np.exp(3.0 * rng.normal(size=(20_000, 8))) * scale
        x[:: 97] = rng.choice(SPECIALS, size=x[:: 97].shape)
        with np.errstate(all="ignore"):
            assert same(row_norms(x), ref_row_norms(x))
            assert same(row_norms(x[:, 1:]), ref_row_norms(x[:, 1:]))
            stack = x.reshape(40, 500, 8)
            assert same(row_norms(stack), ref_row_norms(stack))
            assert same(row_norms(stack[..., 1:]), ref_row_norms(stack[..., 1:]))
            # one row
            assert same(row_norms(x[0]), ref_row_norms(x[0]))
    # widths the kernel leaves to numpy
    for width in (1, 3, 9):
        y = rng.normal(size=(50, width))
        assert same(row_norms(y), ref_row_norms(y))


# -- ball kernel ---------------------------------------------------------------


def check_balls(pts, centers, radii):
    centers = np.asarray(centers, dtype=float)
    radii = np.asarray(radii, dtype=float)
    with np.errstate(all="ignore"):
        want = ref_balls(pts, centers, radii)
        assert same(balls_contain(pts, centers, radii), want)
        union = BallUnion([Ball(Octonion(c), r) for c, r in zip(centers, radii)])
        assert same(union.contains_batch(pts), want)
        for c, r in zip(centers, radii):
            assert same(Ball(Octonion(c), r).contains_batch(pts), ref_balls(pts, [c], [r]))


def shell(rng, center, radius, n, ks=range(-6, 7)):
    """Points at distance radius * (1 + k ulp) from the centre."""
    k = rng.choice(np.asarray(list(ks), dtype=float), size=n)
    return center + unit_rows(rng, n) * (radius * (1.0 + k * ULP))[:, None]


def test_shells_at_a_few_ulps():
    rng = np.random.default_rng(11)
    for scale in (1e-3, 1.0, 7.0, 1e4):
        centers = rng.normal(size=(5, 8)) * scale
        radii = rng.uniform(0.1, 2.0, size=5) * scale
        pts = np.vstack([shell(rng, c, r, 400) for c, r in zip(centers, radii)])
        check_balls(pts, centers, radii)


def test_tangent_and_nested_balls():
    rng = np.random.default_rng(12)
    e1 = np.eye(8)[1]
    # tangent at the origin, and a ball nested in the first, sharing its boundary point -e1
    centers = np.array([-e1, e1, -0.5 * e1])
    radii = np.array([1.0, 1.0, 0.5])
    near = rng.normal(size=(3000, 8)) * 10.0 ** rng.uniform(-17, -8, size=(3000, 1))
    pts = np.vstack([near, near - 2.0 * e1, shell(rng, centers[2], 0.5, 1000), shell(rng, centers[0], 1.0, 1000)])
    check_balls(pts, centers, radii)


def test_far_and_huge_centres_take_the_exact_path():
    rng = np.random.default_rng(13)
    cases = [
        (np.full(8, 1e150), 3e150),  # |c|^2 overflows past the band limit
        (np.full(8, 1e100), 1.0),
        (np.full(8, 2e-160), 1e-160),  # squares underflow
        (np.full(8, 1e5), 1e-9),  # a tiny ball far out: the band is wide next to r
    ]
    for center, radius in cases:
        pts = np.vstack([shell(rng, center, radius, 500), center + rng.normal(size=(200, 8)) * radius])
        check_balls(pts, [center], [radius])
    # |p|^2 and |c|^2 are finite, but -2 <p, c> overflows to -inf
    check_balls(np.full((3, 8), 4.61e153), [np.full(8, 2.74e153)], [1.0])
    pts = rng.normal(size=(50, 8))
    pts[::7] = rng.choice(SPECIALS, size=pts[::7].shape)
    pts[1] = 1e200
    check_balls(pts, [np.zeros(8), np.full(8, 1e200)], [1.0, 1e201])


def test_rows_straddling_block_edges():
    rng = np.random.default_rng(14)
    centers = rng.normal(size=(3, 8))
    radii = np.array([0.7, 1.1, 0.9])
    for n in (_BALL_BLOCK - 1, _BALL_BLOCK, _BALL_BLOCK + 1, 2 * _BALL_BLOCK + 3):
        pts = rng.normal(size=(n, 8)) * 1.5
        for row in (0, _BALL_BLOCK - 1, _BALL_BLOCK, n - 1):
            if row < n:
                pts[row] = shell(rng, centers[row % 3], radii[row % 3], 1)[0]
        check_balls(pts, centers, radii)
    check_balls(np.empty((0, 8)), centers, radii)


FINITE = st.floats(-1e3, 1e3, allow_nan=False)


@KERNEL_SETTINGS
@given(
    arrays(np.float64, st.tuples(st.integers(1, 5), st.just(8)), elements=FINITE),
    st.lists(st.floats(1e-3, 1e3), min_size=5, max_size=5),
    st.data(),
)
def test_ball_verdicts_on_generated_balls(centers, radii, data):
    radii = np.asarray(radii[: len(centers)])
    pts = data.draw(arrays(np.float64, st.tuples(st.integers(0, 30), st.just(8)), elements=ANY_FLOAT))
    # and points on each sphere, to a few ulps
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    pts = np.vstack([pts] + [shell(rng, c, r, 20) for c, r in zip(centers, radii)])
    check_balls(pts, centers, radii)


# -- slab-cone ---------------------------------------------------------------


def test_slab_cone_verdict_does_not_depend_on_the_batch():
    rng = np.random.default_rng(15)
    axis = unit_rows(rng, 1, 7)[0]
    half = math.pi / 4
    dom = SlabCone(UnitImaginary(axis), half)
    # points at 1e-15 rad or less from the cone's half angle, outside the slab
    side = unit_rows(rng, 20_000, 7)
    side -= np.outer(side @ axis, axis)
    side /= np.linalg.norm(side, axis=1, keepdims=True)
    angle = half + rng.uniform(-1e-15, 1e-15, size=(20_000, 1))
    sign = rng.choice([-1.0, 1.0], size=(20_000, 1))
    pts = np.zeros((20_000, 8))
    pts[:, 0] = rng.uniform(-1, 1, size=20_000)
    pts[:, 1:] = rng.uniform(1.5, 3.0, size=(20_000, 1)) * sign * (np.cos(angle) * axis + np.sin(angle) * side)
    batch = dom.contains_batch(pts)
    assert 0 < batch.sum() < len(pts)  # the points straddle the boundary
    assert np.array_equal(batch, [dom.contains(Octonion(p)) for p in pts])
    ims = pts[:, 1:]
    cosang = np.abs(row_dot(ims, dom.i0.vec)) / np.linalg.norm(ims, axis=1)
    assert np.array_equal(batch, cosang > math.cos(half))


# -- arc probes and unit paths -------------------------------------------------


@pytest.mark.parametrize("n, link", [(0, 0.3), (1, 0.3), (2, 2.5), (60, 2.5), (300, 0.5), (900, 0.25)])
def test_arc_probe_graph_equals_the_pair_loop(n, link):
    rng = np.random.default_rng(n)
    units = unit_rows(rng, n, 7)
    if n >= 2:
        units[1] = -units[0]  # an antipodal pair, within the link when link > 2
    got, want = arc_probe_graph(units, link), ref_arc_probe_graph(units, link)
    assert same(got[0], want[0]) and same(got[1], want[1])
    if n == 60:
        assert [0, 1] not in want[0].tolist()
        assert np.isnan(want[1]).any() and not np.isnan(want[1]).all()


@pytest.mark.parametrize("n, link", [(0, 0.3), (1, 0.3), (60, 1.995), (60, 2.5), (300, 0.5), (900, 0.25)])
def test_arc_edge_count_is_a_lower_bound_of_the_arc_graph(n, link):
    """`arc_edges_at_least` never counts more edges than `arc_probe_graph` lists.

    The units hold antipodal and near-antipodal pairs, which get no edge,
    and pairs whose chord is the link to within rounding, which the
    listing may take or leave; the count leaves them, and misses no other
    edge.
    """
    rng = np.random.default_rng(n)
    units = unit_rows(rng, n, 7)
    borderline = []
    for k in range(0, n - 1, 6):
        units[k + 1] = -units[k]
        if k + 3 < n:
            units[k + 3] = -turned(rng, units[k + 2], 2.0 * math.asin(rng.uniform(0.0, 3e-6)))
        if k + 5 < n and link < 2.0:
            units[k + 5] = turned(rng, units[k + 4], 2.0 * math.asin(link / 2.0))
            borderline.append((k + 4, k + 5))
    edges = arc_probe_graph(units, link)[0]
    least = arc_edges_at_least(cKDTree(units), units, link)
    # the count may also leave out every pair within twice `near_antipodal`'s reach
    opposed = np.count_nonzero(np.triu(ref_row_norms(units[:, None] + units[None]) < 5e-6, 1))
    assert len(edges) - len(borderline) - opposed <= least <= len(edges)
    assert opposed >= n // 6


def test_arc_probe_graph_decides_near_antipodal_pairs_as_every_probe():
    # pairs whose chord midpoint has norm m, around the 1e-6 threshold
    rng = np.random.default_rng(17)
    units = []
    for m in (0.0, 1e-9, 0.5e-6, 0.999e-6, 1e-6, 1.001e-6, 2e-6, 1e-3):
        for _ in range(10):
            u = unit_rows(rng, 1, 7)[0]
            units += [u, -turned(rng, u, 2.0 * math.asin(m))]
    units = np.asarray(units)
    got, want = arc_probe_graph(units, 2.5), ref_arc_probe_graph(units, 2.5)
    assert same(got[0], want[0]) and same(got[1], want[1])
    kept = {tuple(e) for e in want[0].tolist()}
    pairs = [(k, k + 1) for k in range(0, len(units), 2)]
    assert 0 < sum(p in kept for p in pairs) < len(pairs)


def test_a_seam_pair_decides_its_waypoints_in_one_call():
    """Antipodal units on the chain's seam have no direct path, and every waypoint path leaves."""
    e2 = np.eye(7)[1]
    near = turned(np.random.default_rng(5), e2, 0.02)
    for z, u, v in ((complex(-1.0, 2.0), e2, -e2), (complex(-1.01, 2.02), near, -e2)):
        paths = ref_unit_path_candidates(u, v)
        assert [len(p.vertices) for p in paths] == [3] * 6
        chain = BallChain(UnitImaginary.basis(1), UnitImaginary.basis(2))
        calls = record_legs(chain)
        assert _unit_path_in_domain(chain, z, u, v) is None
        (pts, counts, _, inside, _), = calls
        ts = np.linspace(0.0, 1.0, 512)
        want = [np.stack([slice_point(z, w) for w in p.eval_many(ts)]) for p in paths]
        assert same(pts, np.concatenate(want)) and len(counts) == len(_KNOTS[1:]) * len(paths)
        assert not inside.reshape(len(paths), -1).all(axis=1).any()


@KERNEL_SETTINGS
@given(st.integers(2, 6), st.integers(0, 2**32 - 1), st.integers(0, 300))
def test_unit_path_eval_many_equals_the_gathered_form(count, seed, samples):
    rng = np.random.default_rng(seed)
    verts = unit_rows(rng, 1, 7)
    for _ in range(count - 1):
        nxt = verts[-1] + rng.normal(size=7) * rng.uniform(0.05, 1.0)
        verts = np.vstack([verts, nxt / np.linalg.norm(nxt)])
    times = np.sort(rng.uniform(0.0, 1.0, size=count - 2))
    path = PolyPathS(verts, np.concatenate([[0.0], times, [1.0]]))
    ts = np.concatenate([rng.uniform(-0.2, 1.2, size=samples), path.times, np.linspace(0, 1, 2048)])
    assert same(path.eval_many(ts), ref_eval_many(path, ts))


# -- leg certificates ----------------------------------------------------------
#
# `Domain.deep_legs` may only certify a leg whose every sample row, as the
# program builds it, passes the per-ball test.  Each case below builds one
# leg the way its caller samples it (the 23 probes of an arc at a fixed z,
# the 5 interior times of a z leg, the 2048 rows of a lifting split into
# 16 pieces, an attachment arc of `class_at`, the 512-row unit paths of
# `_unit_path_in_domain` with 2 and 3 vertices, the 256-row spokes of
# `_real_anchor`), places balls around it, and checks the rows the program
# would skip.  Margins cluster at the sag, at the sag to 2^-40, and at the
# certificate's slack, where a weaker certificate goes wrong.

LEG_SETTINGS = settings(
    max_examples=600,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
# arc angles, the last two past a quarter turn (pi/2)
TURNS = (1e-5, 1e-2, 0.1, 0.5, 1.2, 1.57, 1.58, 2.5)
LEG_KINDS = (
    "arc", "z-leg", "lifting-arc", "lifting-segment", "attach-arc", "unit-path-2", "unit-path-3", "spoke", "point"
)
ARC_KINDS = ("arc", "lifting-arc", "attach-arc", "unit-path-2", "unit-path-3")
# the pool separation of the attachment cases: 25 to about 150 probes
ATTACH_SEP = 0.05


def slice_point(z, unit):
    p = np.empty(8)
    p[0] = z.real
    p[1:] = z.imag * unit
    return p


def turned(rng, u, angle):
    side = rng.normal(size=7)
    side -= (side @ u) * u
    side /= np.linalg.norm(side)
    return math.cos(angle) * u + math.sin(angle) * side


def point_leg_step(x):
    """The finite-difference step h of `sliceness_check` and `sfr_check` at x; the point leg is (x, x, 2h)."""
    return FD_STEP * (1.0 + float(np.linalg.norm(x)))


def ref_stencil_rows(x, h):
    """The 16 rows x +- 2h e_k of the one-point stencil check that point legs replaced."""
    pts = np.tile(x, (16, 1))
    for k in range(8):
        pts[2 * k, k] += 2.0 * h
        pts[2 * k + 1, k] -= 2.0 * h
    return pts


def leg_sag(kind, knots):
    """The sag scale of a leg's certificate: its largest piece's |b| |du|^2 / 4, or 2h for a point leg."""
    if kind == "point":
        return 2.0 * point_leg_step(knots[0])
    if kind not in ARC_KINDS:
        return 0.0
    chords = knots[1:, 1:] - knots[:-1, 1:]
    return float(np.max(np.sum(chords * chords, axis=1))) / (4.0 * np.linalg.norm(knots[0, 1:]))


def record_legs(domain):
    """Wrap a domain's `legs_inside` to keep what every call decides.

    Each call leaves (rows, counts, held, inside, ends): the sample rows of
    all its legs, the rows per leg, which legs `deep_legs` certifies, the
    verdicts and the certificate inputs (p0, p1, sag).
    """
    calls = []
    decide = domain.legs_inside

    def legs_inside(p0, p1, sag, rows):
        pts, counts = rows(np.arange(len(p0)))
        inside = decide(p0, p1, sag, rows)
        held = domain.deep_legs(p0, p1, sag)
        calls.append((pts, np.broadcast_to(counts, (len(p0),)), held, inside, (p0, p1, sag)))
        return inside

    domain.legs_inside = legs_inside
    return calls


def checked_rows(calls, member, want=None):
    """Every recorded row, and whether the program skipped it.

    Each leg's verdict must be that of testing all its rows, and the rows
    must equal `want` (the construction the program replaced) when given.
    """
    rows = np.concatenate([c[0] for c in calls]) if calls else np.empty((0, 8))
    skip = np.concatenate([np.repeat(c[2], c[1]) for c in calls]) if calls else np.zeros(0, dtype=bool)
    for pts, counts, _, inside, _ in calls:
        leg = np.repeat(np.arange(len(counts)), counts)
        out = np.bincount(leg[~member(pts)], minlength=len(counts))
        assert np.array_equal(inside, out == 0)
    if want is not None:
        assert same(rows, np.concatenate(want) if want else np.empty((0, 8)))
    return rows, skip


def ref_attach_rows(z, u, w, sep):
    """The rows of a `class_at` attachment arc, as the inline form built them."""
    n = max(25, int(4.0 * np.linalg.norm(w - u) / sep))
    fr = np.linspace(0.0, 1.0, n + 2)[1:-1]
    chords = np.outer(1.0 - fr, u) + np.outer(fr, w)
    norms = np.linalg.norm(chords, axis=1)
    if norms.min() < 1e-6:
        return None
    pts = np.zeros((len(fr), 8))
    pts[:, 0] = z.real
    pts[:, 1:] = z.imag * (chords / norms[:, None])
    return pts


def ref_unit_path_candidates(u1, u2):
    """The unit paths `_unit_path_in_domain` tries, in order."""
    candidates = []
    if np.linalg.norm(u1 + u2) >= 0.5:
        candidates.append(np.vstack([u1, u2]))
    for k in range(7):
        w = np.zeros(7)
        w[k] = 1.0
        w = w - (w @ u1) * u1
        n = np.linalg.norm(w)
        if n >= 0.3:
            candidates.append(np.vstack([u1, w / n, u2]))
    paths = []
    for verts in candidates:
        try:
            paths.append(PolyPathS(verts))
        except PreconditionError:
            pass
    return paths


def ref_spokes(domain, z, u1, u2, member):
    """The spoke rows `_real_anchor` tests, in order, with all-row verdicts.

    Each anchor tests both spokes in one call, and the first anchor whose
    two spokes stay inside ends the search.
    """
    lo, hi = domain.bounding_box()
    alphas = np.concatenate([[z.real], np.linspace(lo[0], hi[0], 33)])
    reals = np.zeros((len(alphas), 8))
    reals[:, 0] = alphas
    segment = np.linspace(0.0, 1.0, 256)[:, None]
    out = []
    for alpha, good in zip(alphas, member(reals)):
        if not good:
            continue
        zs = (1.0 - segment) * np.array([z.real, z.imag]) + segment * np.array([alpha, 0.0])
        spokes = []
        for u in (u1, u2):
            pts = np.zeros((len(zs), 8))
            pts[:, 0] = zs[:, 0]
            pts[:, 1:] = zs[:, 1:2] * u
            spokes.append(pts)
        out.append(np.concatenate(spokes))
        if member(out[-1]).all():
            return out
    return out


def attach_quotient(domain, z, units):
    """A one-column quotient whose members are `units` (one or (k, 7)), each its own class, for `class_at`."""
    units = np.atleast_2d(units)
    return QuotientSample(
        domain=domain, plan=None,
        alphas=np.array([z.real]), betas=np.array([z.imag]), units=units,
        edges=None, members={(0, 0): np.ones(len(units), dtype=bool)}, labels={(0, 0): np.arange(len(units))},
        classes=[], class_adjacency=[], component_of=None, records=np.empty((0, 5), dtype=np.int64),
        link=0.0, separation=ATTACH_SEP,
    )


def leg_case(kind, rng, scale, turn, at=None):
    """One leg as the program samples it.

    Returns (knots, check, bulge): knots are the points the certificate
    takes as ends (the two ends, the 17 knots of a lifting, or a point leg's
    point twice), check(domain, member) runs the program on the leg, checks
    its verdicts against the reference membership `member`, and returns its
    sample rows and which of them the program skipped, and bulge is the
    direction in which the leg bows out (zero if it is straight).  `at`,
    a (z, unit) pair, replaces the random start of the leg.
    """
    u = unit_rows(rng, 1, 7)[0]
    z = scale * complex(rng.normal(), rng.uniform(0.05, 2.0) * rng.choice([-1.0, 1.0]))
    zb = z + scale * complex(*rng.normal(size=2)) * rng.choice([1e-3, 0.1, 1.0])
    if at is not None:
        zb, (z, u) = zb - z + at[0], at
    v = turned(rng, u, turn)
    if kind == "point":
        x = slice_point(z, u)

        def check(domain, member):
            calls = record_legs(domain)
            stencil_safe(domain, x[None, :], point_leg_step(x))
            return checked_rows(calls, member, [ref_stencil_rows(x, point_leg_step(x))])

        return np.stack([x, x]), check, np.zeros(8)
    if kind == "arc":
        knots = np.stack([slice_point(z, u), slice_point(z, v)])
        want = np.stack([slice_point(z, w) for w in ref_arc_probes(u, v)])

        def check(domain, member):
            # the arc as a grid's arc mask builds it
            calls = record_legs(domain)
            domain.legs_inside(*arc_legs(z, u[None], v[None], _ARC_FRACS))
            return checked_rows(calls, member, [want])

        mid = u + v
        return knots, check, np.concatenate([[0.0], np.sign(z.imag) * mid / np.linalg.norm(mid)])
    if kind == "z-leg":
        knots = np.stack([slice_point(z, u), slice_point(zb, u)])
        zs = (1.0 - _LEG_TIMES) * z + _LEG_TIMES * zb
        rows = np.zeros((len(zs), 8))
        rows[:, 0] = zs.real
        rows[:, 1:] = zs.imag[:, None] * u

        def check(domain, member):
            return rows, np.full(len(rows), domain.deep_legs(knots[:1], knots[1:], 0.0)[0])

        return knots, check, np.zeros(8)
    if kind == "attach-arc":
        # `class_at` takes its column at beta >= 0 and its unit from the point
        z = complex(z.real, abs(z.imag))
        x = Octonion(slice_point(z, u))
        u = x.imag_part().coeffs[1:] / x.im_norm
        want = ref_attach_rows(z, u, v, ATTACH_SEP)

        def check(domain, member):
            calls = record_legs(domain)
            try:
                got = class_at(attach_quotient(domain, z, v), x)
            except DomainError:
                got = None
            if not member(x.coeffs[None])[0]:
                # a point outside the domain is refused before any arc is tried
                assert got is None and not calls
                return np.empty((0, 8)), np.zeros(0, dtype=bool)
            rows, skip = checked_rows(calls, member, None if want is None else [want])
            assert (got == 0) == (want is not None and member(want).all())
            if turn > math.pi / 2:
                assert not skip.any()
            return rows, skip

        mid = u + v
        bulge = np.concatenate([[0.0], mid / np.linalg.norm(mid)])
        return np.stack([slice_point(z, u), slice_point(z, v)]), check, bulge
    if kind in ("unit-path-2", "unit-path-3"):
        if kind == "unit-path-3":
            # nearly antipodal ends: only the paths through a waypoint are tried
            v = turned(rng, u, math.pi - min(turn, 0.5))
        paths = ref_unit_path_candidates(u, v)
        ts = np.linspace(0.0, 1.0, 512)
        want = [np.stack([slice_point(z, w) for w in path.eval_many(ts)]) for path in paths]

        def check(domain, member):
            calls = record_legs(domain)
            got = _unit_path_in_domain(domain, z, u, v)
            verdicts = [member(rows).all() for rows in want]
            # the direct path alone, and only when it fails every waypoint path in one call
            direct = len(paths[0].vertices) == 2
            groups = [[0], list(range(1, len(paths)))] if direct else [list(range(len(paths)))]
            groups = [g for g in groups[: 1 if direct and verdicts[0] else 2] if g]
            assert len(calls) == len(groups) <= 2
            assert [len(c[1]) for c in calls] == [len(_KNOTS[1:]) * len(g) for g in groups]
            tried = [k for g in groups for k in g]
            first = next((k for k in tried if verdicts[k]), None)
            assert (got is None) == (first is None) == (True not in verdicts)
            if got is not None:
                assert same(got.vertices, paths[first].vertices)
            return checked_rows(calls, member, [want[k] for k in tried])

        first = CircularLifting(PolyPathC([z, z]), paths[0])
        bulge = np.concatenate([[0.0], np.sign(z.imag) * paths[0].eval_many([0.27])[0]])
        return first.eval_many(_KNOTS), check, bulge
    if kind == "spoke":
        real = np.zeros(8)
        real[0] = z.real

        def check(domain, member):
            calls = record_legs(domain)
            _real_anchor(domain, z, u, v)
            return checked_rows(calls, member, ref_spokes(domain, z, u, v, member))

        return np.stack([slice_point(z, u), real]), check, np.zeros(8)
    if kind == "lifting-arc":
        lifting = CircularLifting(PolyPathC([z, z]), PolyPathS(np.vstack([u, v])))
        # bowing out most inside a piece, not at a knot
        bulge = np.concatenate([[0.0], np.sign(z.imag) * lifting.units.eval_many([0.53])[0]])
    else:
        lifting = CircularLifting(PolyPathC([z, zb]), PolyPathS(np.vstack([u, u])))
        bulge = np.zeros(8)
    knots = lifting.eval_many(_KNOTS)

    def check(domain, member):
        calls = record_legs(domain)
        got = lift_in_domain(lifting, domain)
        rows, skip = checked_rows(calls, member, [lifting.eval_many(_even_times(2048))])
        assert got == member(rows).all()
        # the certificate's ends are the lifting's knots to the bit
        (p0, p1, _), = [c[4] for c in calls]
        assert same(p0, knots[:-1]) and same(p1, knots[1:])
        return rows, skip

    return knots, check, bulge


def place_balls(placement, rng, knots, bulge, far, margin_of):
    """Centres and radii around a leg; margin_of(reach, centre) gives r - reach."""
    lo, hi = knots[0], knots[-1]
    mid = 0.5 * (lo + hi)
    size = max(float(np.max(np.linalg.norm(knots - mid, axis=1))), 1e-3 * float(np.linalg.norm(mid)), 1e-9)
    half = 0.5 * float(np.linalg.norm(hi - lo))
    if placement == "tangent-pair" and half > 0.0:
        # one ball per end, touching between them: the leg leaves both
        w = rng.normal(size=8)
        w -= (w @ (hi - lo)) / (4.0 * half * half) * (hi - lo)
        w *= rng.uniform(0.01, 0.9) * half / np.linalg.norm(w)
        return np.stack([lo + w, hi + w]), np.array([half, half])
    if placement == "outside-cap":
        # centre on the far side of the arc: the slice cap exceeds a
        # hemisphere, and the arc between two members leaves the ball while
        # its chord stays inside; the arc bows out most when the centre lies
        # as far from the real axis as the arc, or farther
        height = float(np.linalg.norm(mid[1:])) if bulge.any() else size
        centre = mid - far * height * (bulge if bulge.any() else unit_rows(rng, 1)[0])
    elif placement == "real-centred":
        centre = np.zeros(8)
        centre[0] = mid[0] + size * rng.normal()
    else:
        centre = mid + size * rng.normal(size=8)
    reach = float(np.max(np.linalg.norm(knots - centre, axis=1)))
    radius = reach + margin_of(reach, centre)
    if placement != "nested":
        return centre[None, :], np.array([radius])
    # a smaller ball inside, touching the sphere from within
    inner = radius * rng.uniform(0.1, 0.9)
    d = unit_rows(rng, 1)[0]
    return np.stack([centre, centre + (radius - inner) * d]), np.array([radius, inner])


@LEG_SETTINGS
@given(
    st.sampled_from(LEG_KINDS),
    st.sampled_from(("outside-cap",) * 3 + ("generic", "real-centred", "tangent-pair", "nested")),
    st.sampled_from(("fraction", "fraction", "sag-ulps", "slack-edge", "deep")),
    st.integers(-8, 8),
    st.floats(0.0, 0.6),
    st.floats(0.5, 50.0),
    st.sampled_from(TURNS),
    st.floats(-2.0, 2.0),
    st.integers(0, 2**32 - 1),
)
def test_certified_legs_hold_every_sample_row(kind, placement, margin, k, frac, far, turn, log_scale, seed):
    rng = np.random.default_rng(seed)
    scale = 10.0**log_scale
    knots, check, bulge = leg_case(kind, rng, scale, turn)
    sag = leg_sag(kind, knots)
    scale_of_margin = sag if sag > 0.0 else 1e-3 * scale

    def margin_of(reach, centre):
        slack = 2.0**-30 * (
            float(np.max(np.linalg.norm(knots, axis=1))) + float(np.linalg.norm(centre)) + reach
        )
        if margin == "fraction":
            return scale_of_margin * frac
        if margin == "sag-ulps":
            return scale_of_margin * (1.0 + k * 2.0**-40)
        if margin == "deep":
            # room to spare: the certificate holds whole legs, and the rows it skips must be theirs
            return (sag + 4.0 * slack) * (1.0 + frac)
        return sag + slack * (1.0 + k * 2.0**-6)

    centres, radii = place_balls(placement, rng, knots, bulge, far, margin_of)
    domain = Ball(Octonion(centres[0]), radii[0]) if len(radii) == 1 else BallUnion(
        [Ball(Octonion(c), r) for c, r in zip(centres, radii)]
    )
    rows, skip = check(domain, balls_member(centres, radii))
    assert ref_balls(rows[skip], centres, radii).all()


def test_deep_legs_certifies_deep_legs_and_nothing_unsure():
    e1, e2 = np.eye(8)[1], np.eye(8)[2]
    ball = Ball(Octonion.zero(), 1.0)
    p0, p1 = np.stack([0.1 * e1, 0.5 * e1, 0.9 * e1]), np.stack([0.1 * e2, -0.5 * e1, 0.9 * e2])
    assert ball.deep_legs(p0, p1, 0.0).tolist() == [True, True, True]
    assert ball.deep_legs(p0, p1, [0.5, 0.49, 0.1]).tolist() == [True, True, False]
    assert ball.deep_legs(p0, p1, [0.9, 0.5, 0.0999]).tolist() == [False, False, True]
    # NaN and infinite sags and rows certify nothing
    assert ball.deep_legs(p0, p1, [np.nan, np.inf, 0.0]).tolist() == [False, False, True]
    bad = p0.copy()
    bad[0, 3], bad[1, 4] = np.nan, np.inf
    assert ball.deep_legs(bad, p1, 0.0).tolist() == [False, False, True]
    # two tangent balls hold each end of the leg between them, but neither holds the leg
    pair = BallUnion([Ball(Octonion(-e1), 1.0), Ball(Octonion(e1), 1.0)])
    assert pair.deep_legs((-e1 + 0.1 * e2)[None], (e1 + 0.1 * e2)[None], 0.0).tolist() == [False]
    assert pair.deep_legs((-e1 + 0.1 * e2)[None], (-0.5 * e1)[None], 0.0).tolist() == [True]
    # a long batch gives every leg the verdict it gets in short batches
    rng = np.random.default_rng(16)
    many = rng.normal(size=(3 * _LEG_CELLS + 5, 8)) * 0.4
    sags = rng.uniform(0.0, 0.3, size=len(many))
    for domain in (ball, pair):
        whole = domain.deep_legs(many, many[::-1], sags)
        parts = [
            domain.deep_legs(many[i : i + 997], many[::-1][i : i + 997], sags[i : i + 997])
            for i in range(0, len(many), 997)
        ]
        assert np.array_equal(whole, np.concatenate(parts)) and 0 < whole.sum() < len(many)
    # a predicate domain certifies nothing, even a leg its predicate holds everywhere
    anywhere = PredicateDomain(lambda x: True, (np.full(8, -1.0), np.full(8, 1.0)))
    assert anywhere.deep_legs(p0, p1, 0.0).tolist() == [False, False, False]


def test_ball_domains_keep_the_leg_slack_of_each_ball_to_the_bit():
    """The slack a domain computes once is the one its legs took per call, ball by ball."""
    rng = np.random.default_rng(19)
    ball = Ball(Octonion(rng.normal(size=8)), 1.5)
    union = BallUnion([Ball(Octonion(c), r) for c, r in zip(3 * rng.normal(size=(5, 8)), rng.uniform(0.5, 2.0, 5))])
    chain = BallChain(UnitImaginary.basis(1), UnitImaginary.basis(2))
    cases = [(d._centers, d._radii, d._slack) for d in (ball, union)] + [
        (chain.centers, np.full(len(chain.centers), chain.RADIUS), chain._slack)
    ]
    for centers, radii, slack in cases:
        want = [(ref_row_norms(c) + r) * 2.0**-30 + 2.0**-500 for c, r in zip(centers, radii)]
        assert np.array_equal(slack, want)
    # past |c| + r = 2^500 a ball's slack is infinite, so it certifies nothing
    huge = Ball(Octonion(np.full(8, 2.0**500)), 1.0)
    assert huge._slack.tolist() == [np.inf] and not huge.deep_legs(huge._centers, huge._centers, 0.0).any()


def test_leg_certificates_where_norms_underflow():
    """Short segment legs near the sphere of a ball of radius 1e-160 at the origin.

    The squares of their rows' coordinates are subnormal, so `row_norms`
    rounds by up to 2^-536 absolute, 4 % of the radius: a slack floor of
    2^-1000 certifies legs whose rows fail the membership test.
    """
    rng = np.random.default_rng(0)
    for radius in (1e-140, 1e-155, 1e-160, 1e-170):
        ball = Ball(Octonion.zero(), radius)
        p0 = unit_rows(rng, 4000) * radius * (1.0 - 10.0 ** -rng.uniform(1.0, 4.0, size=(4000, 1)))
        p1 = p0 + unit_rows(rng, 4000) * radius * 1e-3
        held = ball.deep_legs(p0, p1, 0.0)
        rows = ((1.0 - _KNOTS[:, None, None]) * p0[held] + _KNOTS[:, None, None] * p1[held]).reshape(-1, 8)
        assert ball.contains_batch(rows).all()
        assert held.any() == (radius > 1e-150)


@pytest.mark.parametrize("kind", ["arc", "lifting-arc", "attach-arc"])
def test_arcs_over_a_cap_larger_than_a_hemisphere(kind):
    """A sweep of ball margins from 0 to past the sag, around arcs that bow out of their ball.

    The arc leaves the ball while its chord stays inside whenever the
    margin of its ends is below its bulge, about 1/3 to 1/2 of the sag
    here; a certificate with a smaller sag would pass such arcs.
    """
    left, held = 0, 0
    for case, (turn, far) in enumerate(itertools.product((0.01, 0.1, 0.5, 1.2, 1.55), (1.0, 3.0, 30.0))):
        for frac in np.linspace(0.0, 1.2, 25):
            rng = np.random.default_rng(case)
            knots, check, bulge = leg_case(kind, rng, 10.0 ** rng.uniform(-1.0, 1.0), turn)
            chords = knots[1:, 1:] - knots[:-1, 1:]
            sag = float(np.max(np.sum(chords * chords, axis=1))) / (4.0 * np.linalg.norm(knots[0, 1:]))
            centres, radii = place_balls("outside-cap", rng, knots, bulge, far, lambda reach, c: frac * sag)
            rows, skip = check(Ball(Octonion(centres[0]), radii[0]), balls_member(centres, radii))
            inside = ref_balls(rows, centres, radii)
            assert inside[skip].all()
            left += not inside.all()
            held += skip.any()
    assert left > 50 and held > 50


@pytest.mark.parametrize("kind", ["spoke", "attach-arc", "unit-path-2", "lifting-segment"])
def test_legs_between_tangent_balls(kind):
    """Legs whose ends sit in two tangent balls leave both between them.

    Each end is held with room to spare, so a certificate that looked at one
    end, or at the wrong leg, would skip rows outside the union.
    """
    left = 0
    for seed in range(40):
        rng = np.random.default_rng(seed)
        knots, check, bulge = leg_case(kind, rng, 10.0 ** rng.uniform(-1.0, 1.0), 0.5)
        centres, radii = place_balls("tangent-pair", rng, knots[[0, -1]], bulge, 1.0, None)
        union = BallUnion([Ball(Octonion(c), r) for c, r in zip(centres, radii)])
        rows, skip = check(union, balls_member(centres, radii))
        inside = ref_balls(rows, centres, radii)
        assert inside[skip].all()
        left += not inside.all()
    assert left >= 20


def test_class_at_and_real_anchor_test_the_rows_of_per_pair_loops():
    """Every attachment arc of `class_at` and every spoke pair of `_real_anchor` it tries, in order.

    The nearest member's arc crosses a gap between two balls, so `class_at`
    goes on to the next member; the spokes to the first real anchors leave
    a union of three balls, so `_real_anchor` tries several.
    """
    e = np.eye(7)

    def on_circle(angle):
        return math.cos(angle) * e[0] + math.sin(angle) * e[1]

    z, u = complex(0.3, 1.5), e[0]
    members = np.stack([on_circle(0.08), on_circle(-0.12), on_circle(0.3)])
    centres = np.stack([slice_point(z, on_circle(a)) for a in (0.0, -0.06, -0.12, 0.08)])
    radii = np.array([0.08, 0.08, 0.08, 0.01])
    domain = BallUnion([Ball(Octonion(c), r) for c, r in zip(centres, radii)])
    member = balls_member(centres, radii)
    calls = record_legs(domain)
    got = class_at(attach_quotient(domain, z, members), Octonion(slice_point(z, u)))
    want = [ref_attach_rows(z, u, w, ATTACH_SEP) for w in members[:2]]
    checked_rows(calls, member, want)
    assert got == 1 and [member(rows).all() for rows in want] == [False, True]

    centres = np.stack([np.eye(8)[1], np.eye(8)[0], 0.5 * (np.eye(8)[0] + np.eye(8)[1])])
    radii = np.array([0.6, 0.8, 0.3])
    domain = BallUnion([Ball(Octonion(c), r) for c, r in zip(centres, radii)])
    member = balls_member(centres, radii)
    calls = record_legs(domain)
    witness = _real_anchor(domain, 1j, u, on_circle(0.4))
    want = ref_spokes(domain, 1j, u, on_circle(0.4), member)
    checked_rows(calls, member, want)
    assert witness is not None and len(calls) == len(want) > 2 and member(want[-1]).all()


# -- leg certificates of the slab-cone and the chain ---------------------------
#
# A slab-cone or a chain cannot be placed around a leg, so these cases place
# the leg, or the cone's axis: a one-parameter family (the leg's scale, the
# axis's tilt, the leg's offset along the chain) is bisected to where the
# margin of the leg's ends, their distance to the boundary of the piece
# that could hold the leg, equals a target.  The targets are those of the
# ball cases: below the sag, at the sag to 2^-40, at the certificate's
# slack, and deep inside.

NEAR_KINDS = ("z-leg", "lifting-segment", "arc", "lifting-arc", "attach-arc", "point")
NEAR_SETTINGS = settings(
    max_examples=120,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def target_margin(margin, k, frac, sag, slack, knots):
    """The margin of a leg's ends, past the boundary, by kind of case (as `margin_of`).

    "outside" puts the worst end outside, by a fraction of the sag or of
    half the leg's length, so a certificate that looked at one end would
    pass rows outside.
    """
    if margin == "outside":
        return -(0.05 + frac) * max(sag, 0.5 * float(np.linalg.norm(knots[-1] - knots[0])))
    if margin == "fraction":
        return (sag if sag > 0.0 else 1e-3 * float(np.max(np.linalg.norm(knots, axis=1)))) * frac
    if margin == "sag-ulps":
        return sag * (1.0 + k * 2.0**-40)
    if margin == "deep":
        return (sag + 4.0 * slack) * (1.0 + frac)
    return sag + slack * (1.0 + k * 2.0**-6)


def bisect(gap, lo, hi, upper, steps=48):
    """Shrink a bracket with gap(lo) > 0 >= gap(hi); return its upper or lower end.

    Without such a bracket the leg cannot reach the target; lo is returned.
    """
    if not (gap(lo) > 0.0 >= gap(hi)):
        return lo
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if gap(mid) > 0.0 else (lo, mid)
    return hi if upper else lo


def ref_wall(ims, axis, half):
    """Distance of each row of ims inside the cone of half angle `half` around `axis`."""
    along = ims @ axis
    across = np.linalg.norm(ims - np.outer(along, axis), axis=1)
    return math.sin(half) * along - math.cos(half) * across


def chain_margin(chain, knots):
    """R - max(d0, d1) for the centre nearest each piece's midpoint, least over the pieces."""
    mids = 0.5 * knots[:-1] + 0.5 * knots[1:]
    near = np.argmin(np.linalg.norm(chain.centers[None, :, :] - mids[:, None, :], axis=2), axis=1)
    c = chain.centers[near]
    reach = np.maximum(np.linalg.norm(knots[:-1] - c, axis=1), np.linalg.norm(knots[1:] - c, axis=1))
    return chain.RADIUS - float(reach.max()), float(np.linalg.norm(c, axis=1).max())


def near_case(place, kind, margin, k, frac, turn, log_scale, seed, upper):
    """A leg of `kind` and a slab-cone or chain, placed so the leg's margin sits at the target."""
    # the placement draws from its own stream: the leg's draws `seed` anew for every try
    rng = np.random.default_rng((seed, 1))
    size_of = lambda knots: float(np.max(np.linalg.norm(knots, axis=1)))  # noqa: E731
    if place == "slab":
        # the leg's scale sets how close its ends come to |Im x| = 1
        axis = UnitImaginary(unit_rows(rng, 1, 7)[0])
        domain = SlabCone(axis, math.pi / 4)

        def leg(scale):
            return leg_case(kind, np.random.default_rng(seed), scale, turn)

        def gap(scale):
            knots = leg(scale)[0]
            slack = 2.0**-30 * (size_of(knots) + 1.0)
            edge = 1.0 - float(np.max(np.linalg.norm(knots[:, 1:], axis=1)))
            return edge - target_margin(margin, k, frac, leg_sag(kind, knots), slack, knots)

        knots = leg(1.0)[0]
        top = 2.0 / float(np.max(np.linalg.norm(knots[:, 1:], axis=1)))
        return domain, leg(bisect(gap, 1e-9 * top, top, upper))
    if place.startswith("cone"):
        # a leg at any scale, or straddling the seam |Im x| = 1; the cone's
        # axis tilts away from the leg until its wall is at the target
        half = math.pi / 2 if place.endswith("90") else math.pi / 4
        scale = 10.0**log_scale
        knots = leg_case(kind, np.random.default_rng(seed), scale, turn)[0]
        if place.startswith("cone-seam"):
            scale /= float(np.median(np.linalg.norm(knots[:, 1:], axis=1)))
        case = leg_case(kind, np.random.default_rng(seed), scale, turn)
        knots = case[0]
        toward = np.sum(knots[:, 1:], axis=0)
        toward /= np.linalg.norm(toward)
        side = turned(rng, toward, math.pi / 2)
        sign = rng.choice([-1.0, 1.0])  # the leg in the cone around +i0 or around -i0
        sag = leg_sag(kind, knots)
        slack = 2.0**-30 * (size_of(knots) + 1.0) / math.sin(half / 2.0)

        def axis_at(tilt):
            return UnitImaginary(math.cos(tilt) * toward + math.sin(tilt) * side)

        def gap(tilt):
            wall = float(np.min(ref_wall(knots[:, 1:], axis_at(tilt).vec, half)))
            return wall - target_margin(margin, k, frac, sag, slack, knots)

        tilt = bisect(gap, 0.0, math.pi / 2 + 0.5, upper)
        return SlabCone(UnitImaginary(sign * axis_at(tilt).vec), half), case
    # the chain: a leg near the lens where two neighbouring balls overlap,
    # moved along a random direction of its slice plane until it leaves
    # the ball its certificate tests
    steps = int(rng.choice([32, 64, 2048]))
    domain = BallChain(UnitImaginary.basis(1), UnitImaginary.basis(2), theta_steps=steps)
    n = int(rng.integers(0, domain.theta_steps - 1))
    mid = 0.5 * domain.centers[n] + 0.5 * domain.centers[n + 1]
    b = float(np.linalg.norm(mid[1:]))
    u = mid[1:] / b
    w = complex(*unit_rows(rng, 1, 2)[0])
    scale = 10.0 ** (log_scale / 2.0 - 2.5)

    def leg(t):
        return leg_case(kind, np.random.default_rng(seed), scale, turn, at=(complex(mid[0], b) + t * w, u))

    def gap(t):
        knots = leg(t)[0]
        edge, c_size = chain_margin(domain, knots)
        slack = 2.0**-30 * (size_of(knots) + c_size + domain.RADIUS)
        return edge - target_margin(margin, k, frac, leg_sag(kind, knots), slack, knots)

    return domain, leg(bisect(gap, 0.0, 0.6, upper))


@pytest.mark.parametrize("place", ["slab", "cone-45", "cone-90", "cone-seam-45", "cone-seam-90", "chain"])
@NEAR_SETTINGS
@given(
    kind=st.sampled_from(NEAR_KINDS),
    margin=st.sampled_from(("fraction", "outside", "sag-ulps", "slack-edge", "slack-edge", "deep")),
    k=st.integers(-8, 8),
    frac=st.floats(0.0, 0.6),
    turn=st.sampled_from((1e-5, 1e-3, 1e-2, 0.1, 0.5)),
    log_scale=st.floats(-1.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
    upper=st.booleans(),
)
def test_slab_cone_and_chain_certify_only_rows_inside(
    place, kind, margin, k, frac, turn, log_scale, seed, upper
):
    if place == "chain":
        # legs small enough for a ball of radius 1/4
        turn = min(turn, 1e-2)
    domain, (knots, check, _) = near_case(place, kind, margin, k, frac, turn, log_scale, seed, upper)
    rows, skip = check(domain, domain.contains_batch)
    assert domain.contains_batch(rows[skip]).all()


def test_slab_cone_and_chain_certificates_turn_at_their_slack():
    """Point legs whose margin is the sag plus 7/8 or 9/8 of the slack: only the second is certified."""
    e1 = np.eye(8)[1]
    r = 1e-4
    for half in (math.pi / 4, math.pi / 2):
        cone = SlabCone(UnitImaginary.basis(1), half)
        tilt = unit_rows(np.random.default_rng(3), 1, 7)[0]
        tilt -= tilt[0] * np.eye(7)[0]
        tilt /= np.linalg.norm(tilt)
        for frac, want in ((7 / 8, False), (9 / 8, True)):
            # the slab: |Im x| = 1 - r - slack * frac
            slack = 2.0**-30 * (math.hypot(0.3, 1.0) + 1.0)
            x = 0.3 * np.eye(8)[0] + (1.0 - r - slack * frac) * np.eye(8)[2]
            assert cone.deep_legs(x[None], x[None], r).tolist() == [want]
            # a cone: Im x at angle half - a from the axis, with |Im x| sin(a) = r + slack * frac
            size = 3.0
            slack = 2.0**-30 * (size + 1.0) / math.sin(half / 2.0)
            a = math.asin((r + slack * frac) / size)
            y = size * (math.cos(half - a) * np.eye(7)[0] + math.sin(half - a) * tilt)
            x = np.concatenate([[0.0], y])
            assert cone.deep_legs(x[None], x[None], r).tolist() == [want]
    chain = BallChain(UnitImaginary.basis(1), UnitImaginary.basis(2), theta_steps=64)
    c = chain.centers[10]
    for frac, want in ((7 / 8, False), (9 / 8, True)):
        slack = 2.0**-30 * (2.0 * np.linalg.norm(c) + chain.RADIUS)
        x = c + (chain.RADIUS - r - slack * frac) * e1
        assert chain.deep_legs(x[None], x[None], r).tolist() == [want]


@pytest.mark.parametrize(
    "domain",
    [
        SlabCone(UnitImaginary.basis(1)),
        SlabCone(UnitImaginary.basis(1), math.pi / 2),
        BallChain(UnitImaginary.basis(1), UnitImaginary.basis(2)),
    ],
)
def test_non_finite_legs_certify_nothing(domain):
    inside = domain.centers[5] if isinstance(domain, BallChain) else np.eye(8)[0] * 0.2
    p0 = np.tile(inside, (7, 1))
    p0[0, 3], p0[1, 4], p0[2, 1], p0[3, 0] = np.nan, np.inf, -np.inf, np.inf
    p0[4] = 1e300
    sag = np.array([0.0, 0.0, 0.0, 0.0, 0.0, np.nan, np.inf])
    # NaN and infinite rows, a row whose norms overflow, NaN and infinite sags; no RuntimeWarning
    assert domain.deep_legs(p0, np.tile(inside, (7, 1)), sag).tolist() == [False] * 7
    assert domain.deep_legs(np.tile(inside, (2, 1)), np.tile(inside, (2, 1)), 1e-3).tolist() == [True, True]
