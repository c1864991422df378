"""Sampling plans, the sampling sphere of imaginary units, and unit-set utilities.

All randomized procedures in the package draw from a generator seeded by the
plan's single seed, so identical inputs reproduce identical outputs byte for
byte.  A `SamplePlan` holds every resolution a caller may choose (sample
counts, link angles, budgets, grid steps), each checked and bounded before
any work starts, so every check records what it actually used.  Where units
are sampled is not a choice: every sampled unit lies on the unit sphere of
span(e1, e2, e3) (`SUBSPHERE_BASIS`).
"""

from __future__ import annotations

import itertools
import math
import reprlib
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

from .algebra import UnitImaginary, row_norms, tau_rows
from .errors import EmptySampleError, PreconditionError

# Upper limit on the columns of a z grid (alphas x betas).  The default plans
# build about a thousand; a grid past the limit is refused before it is built.
MAX_Z_COLUMNS = 50_000
# Upper limit on the bool mask cells of a `SlicePairGrid`, counted as
# columns x (2 units + arc edges): the move masks of a column's two larger
# neighbours and its arc mask.  Each plan limit holds alone, yet together
# they allow grids of tens of GB; 2^29 cells are 0.54 GB.  The largest
# grids in use, criterion 9's chain among them, hold about 5 M.
MAX_GRID_CELLS = 1 << 29
# The (a, b) grid of slice scans whose plan gives none.
_SCAN_GRID = ((-2.0, -1.0, 0.0, 1.0, 2.0), (0.5, 1.5, 2.5))
# The cKDTree radius of `thin_units` over min_chord: a relative slack far
# above the rounding of either distance, and an absolute one whose square
# still stands above underflow.
_THIN_REL = 2.0**-20
_THIN_ABS = 2.0**-500
# `arc_edges_at_least`: its relative shrink of the link, far above the
# rounding of either cKDTree, and its antipodal radius, twice the reach of
# `near_antipodal` (2e-6 in |u + w|).
_LINK_REL = 2.0**-20
_OPPOSED = 4e-6
# Interior sample times of a z leg between neighbouring grid columns; the
# two end columns are checked by their membership.
_LEG_TIMES = np.linspace(0.0, 1.0, 7)[1:-1]
# Chord fractions of the 23 probes of an arc between grid units.  Sparse
# probes miss thin gaps between nearly tangent slice caps, so the count
# errs dense.
_ARC_FRACS = np.linspace(0.0, 1.0, 25)[1:-1]
# Rows per `contains_batch` call of the grid masks, and probe rows per
# `legs_inside` call: an arc leg has `_ARC_FRACS`' 23, a z leg `_LEG_TIMES`' 5.
_GRID_ROWS = 1 << 16
# Graph nodes per `components` call of `cell_components`, the labeller of
# `diffops.sliceness_check`: a block holds whole cells of `len(units)`
# nodes each, and at least one.
_SCAN_NODES = 1 << 13


# The sampling sphere: the unit sphere of span(e1, e2, e3), the imaginary
# units of the quaternion subalgebra generated by e1 and e2 (e1 e2 = e3).
# Every sampled unit of the package lies on it: the slice-sphere scans, the
# unit pools of quotients and fiber searches, and the query units a search
# accepts.  A unit pool refuses a domain whose imaginary data leaves its
# span (`adaptive_unit_pool`).  Rows are its orthonormal basis.
SUBSPHERE_BASIS = np.eye(3, 7)
SUBSPHERE_BASIS.flags.writeable = False


def sample_units(n: int, rng: np.random.Generator) -> np.ndarray:
    """n quasi-uniform units on the sampling sphere, as an (n, 7) array."""
    g = rng.normal(size=(n, 3))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    return g @ SUBSPHERE_BASIS


def in_subsphere(u) -> bool:
    """Whether a unit (UnitImaginary or 7-vector) lies in span(e1, e2, e3), up to 1e-9."""
    vec = u.vec if isinstance(u, UnitImaginary) else np.asarray(u, dtype=float)
    proj = (vec @ SUBSPHERE_BASIS.T) @ SUBSPHERE_BASIS
    return bool(np.linalg.norm(proj - vec) <= 1e-9)


# The counts of a plan, each with its upper limit.  A limit keeps the
# allocation its count drives under about 0.5 GB at the default link angle
# (tracemalloc peaks, or the arithmetic given); every default sits far below.
_PLAN_COUNTS = {
    # A slice scan's proximity graph has about 0.0028 n^2 unit pairs:
    # 50 000 samples peak at 0.35 GB in a slice check.
    "sphere_samples": 50_000,
    # A threshold on those samples that allocates nothing; past them it is never met.
    "component_detect_min": 50_000,
    # 4n interior points with a 16-row stencil each, about 7 kB per sample: 0.36 GB.
    "residual_samples": 50_000,
    # A component gives fewer than 2n units, compared pairwise as (2n, 2n, 8)
    # floats: 2000^2 x 64 B = 0.26 GB.
    "residual_unit_samples": 1_000,
    # The search keeps every node it reaches, about 70 B per pop measured:
    # 0.07 GB, and 0.5 GB even at 500 B per pop.
    "search_budget": 1_000_000,
    # 4n proposals of 8 floats, then the units and their mirrors, about
    # 0.8 kB per harvested point: 0.40 GB.
    "pool_harvest": 500_000,
    # A grid keeps one (E,) bool arc mask per nonempty column, with about
    # 0.0028 n^2 edges: 0.28 M edges, 0.28 GB over a thousand columns.
    "pool_max": 10_000,
}
# Unit pairs of a slice sphere's proximity graph, estimated before any unit
# is sampled as sphere_samples^2 sin^2(link_angle / 2) / 2 (the share of the
# sphere within the link, for the uniform samples).  A pair costs about 50 B
# at its peak in a slice check (the graph's pairs and one cell's edges, both
# int32, and the labeller's sparse matrices: 56 MB for the 1.1 M pairs of
# 20 000 samples at the default angle, so 0.35 GB for the 7.0 M pairs of
# 50 000), so 10 M pairs stay near 0.50 GB.
MAX_GRAPH_PAIRS = 10_000_000
# (a, b) cells of a slice scan.  A cell keeps at most one spread float per
# sampled unit (two per component of two or more units), 32 B each in a
# list: 256 x 50 000 x 32 B = 0.41 GB.
MAX_SCAN_CELLS = 256
# Steps, angles and separations; the optional ones may also be None.
_PLAN_SIZES = ("link_angle", "quotient_step_factor", "pool_sep_floor")
_PLAN_OPTIONAL_SIZES = ("quotient_z_step", "pool_sep")
# Angles, at most pi: past it `chord_of_angle` shrinks again.
_PLAN_ANGLES = ("link_angle", "pool_sep_floor", "pool_sep")
_INTEGERS = (int, np.integer)
_REALS = (int, float, np.integer, np.floating)


def _finite_real(value) -> bool:
    try:
        return not isinstance(value, bool) and isinstance(value, _REALS) and math.isfinite(value)
    except OverflowError:
        # an int too large for a float
        return False


def json_reals(data, shape: tuple, what: str) -> np.ndarray:
    """Numbers read from JSON, as a float array of the given shape (None: any length).

    Only finite numbers pass: a string, a bool, null or a number too large
    for a float raises PreconditionError, and so does any other shape.
    """
    values = np.array(data, dtype=object)
    if values.ndim != len(shape) or any(n not in (None, m) for n, m in zip(shape, values.shape)):
        raise PreconditionError(f"{what} needs shape {shape}, got shape {values.shape}")
    bad = [v for v in values.flat if not _finite_real(v)]
    if bad:
        raise PreconditionError(f"{what} must hold finite JSON numbers, got {reprlib.repr(bad[0])}")
    return values.astype(float)


def json_count(value, what: str) -> int:
    """An integer read from JSON; anything else, a bool among them, raises PreconditionError."""
    if isinstance(value, bool) or not isinstance(value, _INTEGERS):
        raise PreconditionError(f"{what} must be a JSON integer, got {value!r}")
    return int(value)


@dataclass
class SamplePlan:
    """Resolution and budget knobs for every sampled check in the package."""

    seed: int = 20260819
    # Unit sampling on the sampling sphere.
    sphere_samples: int = 4000
    link_angle: float = 0.15
    component_detect_min: int = 10
    # Residual checks.
    residual_samples: int = 200
    residual_unit_samples: int = 60
    min_im: float = 0.5
    # (a, b) grids for slice scans; None takes the default grid.
    a_values: Optional[tuple[float, ...]] = None
    b_values: Optional[tuple[float, ...]] = None
    # Fiber-product search.
    search_budget: int = 80_000
    # Quotient sampling.
    quotient_step_factor: float = 0.05
    quotient_z_step: Optional[float] = None
    pool_harvest: int = 3000
    pool_max: int = 900
    pool_sep_floor: float = 0.02
    # None keeps the spread-derived separation; a float forces it.  Long
    # thin unit bands (the chain) defeat the spread heuristic.
    pool_sep: Optional[float] = None

    def __post_init__(self) -> None:
        for name, limit in _PLAN_COUNTS.items():
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, _INTEGERS) or not 0 < value <= limit:
                raise PreconditionError(f"plan {name} must be an integer in 1..{limit}, got {value!r}")
        for name in _PLAN_SIZES + _PLAN_OPTIONAL_SIZES:
            value = getattr(self, name)
            if value is None and name in _PLAN_OPTIONAL_SIZES:
                continue
            if not (_finite_real(value) and value > 0):
                raise PreconditionError(f"plan {name} must be finite and positive, got {value!r}")
            if name in _PLAN_ANGLES and value > math.pi:
                raise PreconditionError(f"plan {name} is an angle in (0, pi], got {value!r}")
        pairs = self.sphere_samples**2 * math.sin(self.link_angle / 2.0) ** 2 / 2.0
        if pairs > MAX_GRAPH_PAIRS:
            raise PreconditionError(
                f"plan sphere_samples {self.sphere_samples} and link_angle {self.link_angle:g} give about"
                f" {pairs:.3g} proximity-graph pairs, over the limit {MAX_GRAPH_PAIRS}"
            )
        if not (_finite_real(self.min_im) and self.min_im >= 0):
            raise PreconditionError(f"plan min_im must be finite and not negative, got {self.min_im!r}")
        for name in ("a_values", "b_values"):
            value = getattr(self, name)
            if value is not None and not (
                isinstance(value, (tuple, list)) and value and all(map(_finite_real, value))
            ):
                raise PreconditionError(f"plan {name} must be a nonempty list of finite reals, got {value!r}")
        cells = math.prod(map(len, self.scan_grid()))
        if cells > MAX_SCAN_CELLS:
            raise PreconditionError(
                f"plan a_values x b_values give {cells} scan cells, over the limit {MAX_SCAN_CELLS}"
            )

    def rng(self) -> np.random.Generator:
        return np.random.default_rng(self.seed)

    def scan_grid(self) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """The (a, b) values of slice scans: the plan's own, or `_SCAN_GRID`'s."""
        a, b = _SCAN_GRID
        return a if self.a_values is None else self.a_values, b if self.b_values is None else self.b_values

    def with_seed(self, seed: int) -> "SamplePlan":
        return replace(self, seed=seed)


def z_grid_step(window: tuple[float, float, float], plan: SamplePlan) -> float:
    """Step of the sampled z grid over a z window (alpha_lo, alpha_hi, beta_max).

    Refuses, before any grid is built, a step whose grid could exceed
    MAX_Z_COLUMNS columns; the count used is that of a SlicePairGrid (betas
    of both signs), give or take a snapped query column.
    """
    a_lo, a_hi, b_max = window
    step = plan.quotient_z_step or plan.quotient_step_factor * max(a_hi - a_lo, b_max)
    columns = ((a_hi - a_lo) / step + 4.0) * (2.0 * b_max / step + 3.0)
    if not columns <= MAX_Z_COLUMNS:
        raise PreconditionError(
            f"z step {step:g} gives about {columns:.3g} grid columns,"
            f" over the limit {MAX_Z_COLUMNS}"
        )
    return step


def chord_of_angle(angle: float) -> float:
    return 2.0 * float(np.sin(angle / 2.0))


def arc_sags(b, chords: np.ndarray) -> np.ndarray:
    """How far the arcs at heights b over the unit chords du may leave them.

    An arc of the circle of radius |b| between units u and u + du lies
    within |b| |du|^2 / 4 of its chord.  A chord with |du|^2 > 2 (an arc of
    more than a quarter turn) gets NaN, which certifies nothing: on shorter
    arcs every renormalised chord point has norm at least 1/sqrt(2), so
    rounding moves it by a few ulps.  b is one height or one per chord;
    the division by 4 is exact short of underflow, so `arc_sags(b, du)` is
    |b| times `arc_sags(1, du)` to the bit.
    """
    sq = row_norms(chords) ** 2
    return np.where(sq <= 2.0, np.abs(b) * sq / 4.0, np.nan)


def unit_graph_edges(units: np.ndarray, link_angle: float) -> np.ndarray:
    """Index pairs of units closer than link_angle, as an (m, 2) int array."""
    if len(units) == 0:
        return np.empty((0, 2), dtype=int)
    tree = cKDTree(units)
    pairs = tree.query_pairs(r=chord_of_angle(link_angle), output_type="ndarray")
    return pairs


def near_antipodal(u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Whether the unit pairs (u, w) (two (m, 7) arrays) have no arc, as bool[m].

    A pair has none when its chord nears the origin: a chord point
    (1 - f) u + f w of norm below 1e-6.  The midpoint m = (u + w) / 2 is
    orthogonal to w - u, and |m|^2 + |w - u|^2 / 4 = 1, so the point at
    f = 1/2 + d has squared norm |m|^2 + 4 d^2 (1 - |m|^2): the midpoint is
    the nearest, and a point d away from it is at least about 2 |d| from
    the origin.  So the midpoint alone decides what every probe of
    `_ARC_FRACS` would (the others have |d| >= 1/24, norm above 0.08),
    far above any rounding.
    """
    return row_norms(0.5 * u + 0.5 * w) < 1e-6


def arc_legs(z, u: np.ndarray, w: np.ndarray, fracs: np.ndarray) -> tuple:
    """The arcs at slice heights z from units u to w, as `Domain.legs_inside` takes them.

    z is one complex height or one per arc, u and w are (m, 7) units, no
    pair of them `near_antipodal`.  Arc k runs over the slice points at
    z[k] of the units on the shorter arc from u[k] to w[k]: its ends are
    those of u[k] and w[k], its sag `arc_sags`, and its rows those of the
    renormalised chord points (1 - f) u[k] + f w[k] at the fractions f.
    Returns (p0, p1, sag, rows); `rows` builds the rows of only the arcs
    it is asked for.
    """
    z = np.broadcast_to(np.asarray(z, dtype=complex), (len(u),))
    re, im = z.real, z.imag
    fracs = np.asarray(fracs, dtype=float)[:, None]

    def rows(ids):
        chords = (1.0 - fracs) * u[ids, None] + fracs * w[ids, None]
        chords /= row_norms(chords)[..., None]
        return tau_rows(re[ids, None], im[ids, None], chords).reshape(-1, 8), len(fracs)

    return tau_rows(re, im, u), tau_rows(re, im, w), arc_sags(im, w - u), rows


def z_legs(z0, z1, units: np.ndarray, times: np.ndarray) -> tuple:
    """The straight z legs from z0 to z1 at fixed units, as `Domain.legs_inside` takes them.

    z0 and z1 are complex, one for all legs or one per leg, and units is
    (m, 7).  Leg k runs from the slice point of units[k] at z0[k] to the
    one at z1[k], with no sag, and its rows are the slice points at
    (1 - t) z0[k] + t z1[k] for the sample times t.  Returns
    (p0, p1, sag, rows); `rows` builds the rows of only the legs it is
    asked for.
    """
    z0, z1 = (np.broadcast_to(np.asarray(z, dtype=complex), (len(units),)) for z in (z0, z1))

    def rows(ids):
        zs = (1.0 - times) * z0[ids, None] + times * z1[ids, None]
        return tau_rows(zs.real, zs.imag, units[ids, None, :]).reshape(-1, 8), len(times)

    return tau_rows(z0.real, z0.imag, units), tau_rows(z1.real, z1.imag, units), 0.0, rows


def arc_probe_graph(units: np.ndarray, link: float, tree=None) -> tuple[np.ndarray, np.ndarray]:
    """Unit-pool edges within chord `link`, with the sags of their arcs at height 1.

    Returns (ends, sags): ends is (E, 2) int, sags is `arc_sags(1, du)` of
    each edge's chord.  A `near_antipodal` pair has no arc and gets no
    edge.  The probes of an arc are built only when a leg check asks for
    them (`arc_legs`).  `tree`, when given, is `cKDTree(units)`.
    """
    pairs = (
        (cKDTree(units) if tree is None else tree).query_pairs(link, output_type="ndarray")
        if len(units)
        else np.empty((0, 2), dtype=int)
    )
    u, w = units[pairs[:, 0]], units[pairs[:, 1]]
    keep = ~near_antipodal(u, w)
    return pairs[keep].astype(int), arc_sags(1.0, w[keep] - u[keep])


def arc_edges_at_least(tree, units: np.ndarray, link: float) -> int:
    """A lower bound on the edges of `arc_probe_graph(units, link, tree)`, listing no pair.

    `tree` is `cKDTree(units)`.  `count_neighbors` counts the ordered pairs
    within link (1 - 2^-20), each unit with itself among them.  The tree
    accepts a pair, or a whole node pair by its bounding rectangles, within
    rounding of its true distance, so every pair it counts lies within
    `query_pairs`' reach of link.  A `near_antipodal` pair has
    |u + w| < 2e-6 up to rounding, so |u - w|^2 = 4 - |u + w|^2 puts it
    beyond a chord of 1.99; past that chord, half of the ordered pairs with
    |u + w| <= 4e-6 (`query_ball_point` at the antipodes), a superset of
    them, is taken from half of the other pairs counted.  No pair is
    listed, so the count needs no memory per pair.
    """
    shrunk = link * (1.0 - _LINK_REL)
    within = (int(tree.count_neighbors(tree, shrunk)) - len(units)) // 2
    if shrunk < 1.99:
        return within
    return within - int(tree.query_ball_point(-units, _OPPOSED, return_length=True).sum()) // 2


def adaptive_unit_pool(domain, plan: SamplePlan) -> tuple[np.ndarray, float]:
    """Unit pool adapted to a domain's imaginary directions.

    Harvests units from interior samples of the domain (drawn from
    `plan.rng()`), projects them onto the sampling sphere, mirrors them
    through the antipode, and thins them greedily (`thin_units`) to an
    angular separation derived from the observed spread.  Returns
    (units (m, 7), separation used).  A domain whose `imaginary_data`
    leaves span(e1, e2, e3) is refused before any sample is drawn: its
    slice spheres are not seen whole from the sampling sphere, so a pool
    on it would give wrong counts.
    """
    off = [v for v in domain.imaginary_data() if not in_subsphere(v)]
    if off:
        raise PreconditionError(
            f"{type(domain).__name__} has imaginary data {off[0].tolist()} outside"
            " span(e1, e2, e3), the span of the sampling sphere that unit pools draw on"
        )
    pts = domain.sample_interior(plan.pool_harvest, plan.rng(), min_im=1e-6)
    if len(pts) == 0:
        raise EmptySampleError("no interior samples to harvest units from")
    ims = pts[:, 1:]
    units = ims / row_norms(ims)[:, None]
    proj = units @ SUBSPHERE_BASIS.T @ SUBSPHERE_BASIS
    norms = row_norms(proj)
    keep = norms > 0.7
    if not keep.any():
        raise EmptySampleError("domain units do not meet the sampling sphere")
    units = proj[keep] / norms[keep, None]
    units = np.vstack([units, -units])
    spread = 2.0 * float(
        np.arccos(np.clip(np.abs(units @ units[0]), -1.0, 1.0)).max(initial=0.0)
    )
    spread = min(spread, np.pi)
    sep = plan.pool_sep if plan.pool_sep is not None else max(plan.pool_sep_floor, spread / 15.0)
    min_chord = chord_of_angle(sep)
    return units[thin_units(units, min_chord, plan.pool_max)], sep


def thin_units(units: np.ndarray, min_chord: float, cap: int) -> np.ndarray:
    """Greedy thinning in order: the indices of the units kept, as int64.

    A unit is kept when `row_norms` puts it at least min_chord from every
    unit kept before it, until `cap` are kept.  Each kept unit k asks a
    cKDTree on the units' coordinates in `SUBSPHERE_BASIS` for its
    neighbours within a radius a little above min_chord; the projection
    does not lengthen any distance, so they include every unit closer
    than min_chord.  Their drops are decided by `row_norms(units[k] -
    units[near]) < min_chord` itself, and k moves on to the first unit
    neither kept nor dropped.  The units must be finite.
    """
    kept: list[int] = []
    if len(units) == 0:
        return np.array(kept, dtype=np.int64)
    coords = units @ SUBSPHERE_BASIS.T
    # sliding-midpoint splits and larger leaves build the tree in about half
    # the time of a balanced one on a clustered harvest, where building
    # costs more than the queries
    tree = cKDTree(coords, leafsize=32, balanced_tree=False)
    radius = min_chord * (1.0 + _THIN_REL) + _THIN_ABS
    live = np.ones(len(units), dtype=bool)
    k = 0
    while live[k] and len(kept) < cap:
        kept.append(k)
        live[k] = False
        near = np.asarray(tree.query_ball_point(coords[k], radius), dtype=np.intp)
        near = near[live[near]]
        live[near[row_norms(units[k] - units[near]) < min_chord]] = False
        k += int(live[k:].argmax())
    return np.array(kept, dtype=np.int64)


def components(n: int, edges) -> tuple[int, np.ndarray]:
    """Connected components of the graph on nodes 0..n-1 with the given edges.

    Returns (count, labels).  Labels follow each component's smallest node,
    so component 0 holds node 0 and labels first appear in increasing order.
    Self-loops and repeated edges are allowed.  Integer edges are used as
    they are (int32 ones are not widened); others are cast to int64.
    """
    if n == 0:
        return 0, np.empty(0, dtype=np.int64)
    edges = np.asarray(edges).reshape(-1, 2)
    if edges.dtype.kind != "i":
        edges = edges.astype(np.int64)
    graph = coo_matrix((np.ones(len(edges)), (edges[:, 0], edges[:, 1])), shape=(n, n))
    count, raw = connected_components(graph, directed=False)
    # renumber by smallest node, whatever order the traversal used
    _, first = np.unique(raw, return_index=True)
    rank = np.empty(count, dtype=np.int64)
    rank[np.argsort(first)] = np.arange(count)
    return int(count), rank[raw]


def cell_components(domain, units: np.ndarray, cells, link_angle: float, min_members: int):
    """The proximity-graph components of the sampled slice spheres of a scan.

    They group the units whose values `diffops.sliceness_check`, the one
    caller, compares with each other.  They are no verdict on whether a
    slice sphere is connected: the graph checks no arc between neighbours,
    so it may bridge a gap narrower than the link, and it splits where the
    samples are sparse.  The quotient answers that question, from arcs it
    checks (`SlicePairGrid.arc_masks`).

    For each (a, b) of `cells` in order, the members are the units I with
    a + b I in the domain (one `contains_batch` per cell); a cell with
    fewer than `min_members` is skipped.  Yields (a, b, members, labels)
    for every other cell: the members' unit indices in increasing order,
    and each member's component, numbered 0, 1, ... by smallest member.

    Every cell samples the same units, so a cell's graph is the subgraph
    of one graph over all of them, `unit_graph_edges(units, link_angle)`,
    induced by its members; it is built once, when the first cell has
    enough members.  The components of many cells come from one
    `components` call: a block stacks whole cells as nodes cell * n + unit
    (n = len(units)), at most `_SCAN_NODES` nodes or one cell, and each
    component is labelled by its smallest node.  The induced subgraph is
    the graph of `unit_graph_edges(units[members], link_angle)`, save a
    pair whose distance lies within rounding of the link chord, which the
    two cKDTrees may decide differently.
    """
    n = len(units)
    per_block = max(1, _SCAN_NODES // max(n, 1))
    pairs = None
    block: list = []
    for k, (a, b) in enumerate(cells):
        mem = domain.contains_batch(tau_rows(a, b, units))
        if np.count_nonzero(mem) >= min_members:
            if pairs is None:
                # int32 node ids: a block has at most max(_SCAN_NODES, n) nodes,
                # and the labeller's sparse matrix keeps them without a copy
                pairs = unit_graph_edges(units, link_angle).astype(np.int32)
            block.append((a, b, mem))
        if block and (len(block) == per_block or k == len(cells) - 1):
            yield from _label_block(block, pairs, n)
            block = []


def _label_block(block: list, pairs: np.ndarray, n: int):
    """The components of a block of cells, from one `components` call (see `cell_components`)."""
    # the cells' edges as one array, their parts freed before labelling
    edges = np.concatenate(
        [pairs[mem[pairs[:, 0]] & mem[pairs[:, 1]]] + c * n for c, (_, _, mem) in enumerate(block)]
    )
    _, labels = components(len(block) * n, edges)
    for c, (a, b, mem) in enumerate(block):
        members = np.flatnonzero(mem)
        _, local = np.unique(labels[c * n + members], return_inverse=True)
        yield a, b, members, local


class SlicePairGrid:
    """Sampled slice pairs (z, I) of a domain: a z grid crossed with a unit pool.

    The units are an adaptive pool, followed by the query units when there is
    a query.  The z axis has alphas over the domain's window and betas
    [-pos[::-1], 0, pos]; a query's z is snapped in as one more alpha and
    one more beta.  Columns are index pairs (alpha, beta).  Three masks over
    the units are computed on first use and cached:

    * `members(col)`: units I with tau(I, z) in the domain;
    * `arc_mask(col)`, over the arc edges: both ends members and every probe
      of the arc (`_ARC_FRACS`) inside;
    * `move_mask(a, b)` for neighbouring columns: the closed z leg, i.e.
      members at both ends and inside at the interior times `_LEG_TIMES`.
      A leg is sampled from the smaller column to the larger, so the mask
      does not depend on the order of a and b.

    Both leg masks decide the legs between members with
    `domain.legs_inside`, built by `arc_legs` and `z_legs`.  The grid
    keeps no probes: `legs_inside` builds the rows of only the legs that
    `deep_legs` does not certify.

    `members_many`, `arc_masks` and `move_masks` give the masks of many
    columns or pairs at once, and the single-column methods ask them for
    one.  They decide only the entries not cached yet, in blocks that may
    span columns: at most `_GRID_ROWS` rows per `contains_batch` call and
    `_GRID_ROWS` probe rows per `legs_inside` call.  Every membership and
    leg verdict is decided row by row, so the masks do not depend on how
    the columns are grouped: a quotient build decides its whole grid in a
    few calls, and a fiber search decides only the columns it visits.

    A column is real when its beta is 0: every unit lifts one real point
    there, so its units are all members or none are.

    A grid whose masks could pass `MAX_GRID_CELLS` cells is refused before
    its pool is harvested when its member and move masks alone could pass
    it at the largest pool the plan allows; once its pool is built, before
    its arc graph is, when `arc_edges_at_least` puts it past the limit; and
    otherwise once its arc graph is built, before any mask is.
    """

    def __init__(self, domain, plan: SamplePlan, query=None) -> None:
        """`query`, when given, is (z, units (k, 7)): a point's projection and units."""
        self.domain = domain
        window = domain.z_window()
        a_lo, a_hi, b_max = window
        step = z_grid_step(window, plan)
        self.alphas = np.arange(a_lo - step, a_hi + step + step / 2, step)
        pos = np.arange(step, b_max + step, step)
        self.betas = np.concatenate([-pos[::-1], [0.0], pos])
        self.query_col = None
        if query is not None:
            z, query_units = query
            self.alphas = np.sort(np.append(self.alphas, z.real))
            self.betas = np.sort(np.append(self.betas, z.imag))
            self.query_col = (
                int(np.searchsorted(self.alphas, z.real)),
                int(np.searchsorted(self.betas, z.imag)),
            )
        columns = len(self.alphas) * len(self.betas)
        # a pool keeps at most pool_max of its harvest and the harvest's antipodes
        most = min(plan.pool_max, 2 * plan.pool_harvest) + (0 if query is None else len(query_units))
        if columns * 2 * most > MAX_GRID_CELLS:
            raise PreconditionError(
                f"the grid of {columns} columns x 2 x up to {most} units has up to {columns * 2 * most}"
                f" member and move mask cells, over the limit {MAX_GRID_CELLS}"
            )
        self.units, self.sep = adaptive_unit_pool(domain, plan)
        if query is not None:
            self.units = np.vstack([self.units, query_units])
        self.link = max(chord_of_angle(plan.link_angle), 2.5 * self.sep)
        tree = cKDTree(self.units)
        least = arc_edges_at_least(tree, self.units, self.link)
        cells = columns * (2 * len(self.units) + least)
        if cells > MAX_GRID_CELLS:
            raise PreconditionError(
                f"the grid of {columns} columns x (2 x {len(self.units)} units + at least {least} arc edges)"
                f" has at least {cells} mask cells, over the limit {MAX_GRID_CELLS}"
            )
        self.edges = arc_probe_graph(self.units, self.link, tree)[0]
        cells = columns * (2 * len(self.units) + len(self.edges))
        if cells > MAX_GRID_CELLS:
            raise PreconditionError(
                f"the grid of {columns} columns x (2 x {len(self.units)} units + {len(self.edges)} arc edges)"
                f" has {cells} mask cells, over the limit {MAX_GRID_CELLS}"
            )
        self._members: dict[tuple[int, int], np.ndarray] = {}
        self._arcs: dict[tuple[int, int], np.ndarray] = {}
        self._moves: dict[tuple[tuple[int, int], tuple[int, int]], np.ndarray] = {}

    def columns(self):
        """Every column, in increasing order."""
        return itertools.product(range(len(self.alphas)), range(len(self.betas)))

    def z_of(self, col) -> complex:
        return complex(self.alphas[col[0]], self.betas[col[1]])

    def neighbors(self, col):
        ia, ib = col
        for da, db in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            ja, jb = ia + da, ib + db
            if 0 <= ja < len(self.alphas) and 0 <= jb < len(self.betas):
                yield (ja, jb)

    def is_real_col(self, col) -> bool:
        return abs(self.betas[col[1]]) <= 1e-12

    def members(self, col) -> np.ndarray:
        return self._members[col] if col in self._members else self.members_many([col])[0]

    def arc_mask(self, col) -> np.ndarray:
        return self._arcs[col] if col in self._arcs else self.arc_masks([col])[0]

    def move_mask(self, a, b) -> np.ndarray:
        key = (a, b) if a < b else (b, a)
        return self._moves[key] if key in self._moves else self.move_masks([key])[0]

    def members_many(self, cols) -> list[np.ndarray]:
        """`members` of each column, in order."""
        todo = [col for col in dict.fromkeys(cols) if col not in self._members]
        if todo:
            z = np.array([self.z_of(col) for col in todo])

            def decide(k, i):
                zk = z[k]
                return self.domain.contains_batch(tau_rows(zk.real, zk.imag, self.units[i]))

            every = np.ones(len(self.units), dtype=bool)
            masks = _decided((every for _ in todo), (len(todo), len(every)), 1, decide)
            self._members.update(zip(todo, masks))
        return [self._members[col] for col in cols]

    def arc_masks(self, cols) -> list[np.ndarray]:
        """`arc_mask` of each column, in order."""
        todo = [col for col in dict.fromkeys(cols) if col not in self._arcs]
        if todo:
            z = np.array([self.z_of(col) for col in todo])
            a, b = self.edges.T

            def decide(k, e):
                return self.domain.legs_inside(*arc_legs(z[k], self.units[a[e]], self.units[b[e]], _ARC_FRACS))

            cands = (mem[a] & mem[b] for mem in self.members_many(todo))
            masks = _decided(cands, (len(todo), len(a)), len(_ARC_FRACS), decide)
            self._arcs.update(zip(todo, masks))
        return [self._arcs[col] for col in cols]

    def move_masks(self, pairs) -> list[np.ndarray]:
        """`move_mask` of each pair of neighbouring columns, in order."""
        keys = [(a, b) if a < b else (b, a) for a, b in pairs]
        todo = [key for key in dict.fromkeys(keys) if key not in self._moves]
        if todo:
            ends = np.array([[self.z_of(a), self.z_of(b)] for a, b in todo]).T

            def decide(k, i):
                return self.domain.legs_inside(*z_legs(ends[0, k], ends[1, k], self.units[i], _LEG_TIMES))

            mems = iter(self.members_many([col for key in todo for col in key]))
            cands = (lo & hi for lo, hi in zip(mems, mems))
            masks = _decided(cands, (len(todo), len(self.units)), len(_LEG_TIMES), decide)
            self._moves.update(zip(todo, masks))
        return [self._moves[key] for key in keys]


def _decided(cands, shape: tuple[int, int], rows_per_leg: int, decide) -> np.ndarray:
    """The candidate masks, one row per key, with their True entries decided.

    `cands` yields the shape's rows.  `decide(k, i)` gives the verdicts of
    the entries (k[r], i[r]), taken in row-major order, in blocks of at
    most `_GRID_ROWS // rows_per_leg` entries; a block may span rows.  Rows
    are drawn only until a block fills, so the index arrays stay within
    about a block.
    """
    masks = np.empty(shape, dtype=bool)
    size = max(1, _GRID_ROWS // rows_per_leg)
    # entries drawn but not decided yet, the first row not drawn, and the
    # count of candidates from the undecided entries on
    rest_k = rest_i = np.empty(0, dtype=np.intp)
    start = held = 0
    for k, cand in enumerate(cands):
        masks[k] = cand
        last = k == shape[0] - 1
        if not last:
            held += np.count_nonzero(cand)
            if held < size:
                continue
        ks, ids = np.nonzero(masks[start : k + 1])
        ks += start
        if len(rest_k):
            ks, ids = np.concatenate([rest_k, ks]), np.concatenate([rest_i, ids])
        full = len(ks) if last else len(ks) - len(ks) % size
        for s in range(0, full, size):
            part = slice(s, min(s + size, full))
            masks[ks[part], ids[part]] = decide(ks[part], ids[part])
        rest_k, rest_i, start, held = ks[full:], ids[full:], k + 1, len(ks) - full
    return masks
