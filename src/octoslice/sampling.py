"""Sampling plans, subspheres of imaginary units, and unit-set utilities.

All randomized procedures in the package draw from a generator seeded by the
plan's single seed, so identical inputs reproduce identical outputs byte for
byte.  Resolution knobs (sample counts, link angles, budgets) live here so
every check records what it actually used.
"""

from __future__ import annotations

import itertools
import math
import reprlib
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

from .algebra import NEAR_UNIT_TOL, UnitImaginary, row_norms, tau_rows
from .errors import EmptySampleError, PreconditionError

# Upper limit on the columns of a z grid (alphas x betas).  The default plans
# build about a thousand; a grid past the limit is refused before it is built.
MAX_Z_COLUMNS = 50_000
# Unit pairs whose arcs `arc_probe_graph` builds at once.
_ARC_BLOCK = 1024
# The (a, b) grid of slice scans whose plan gives none.
_SCAN_GRID = ((-2.0, -1.0, 0.0, 1.0, 2.0), (0.5, 1.5, 2.5))
# Interior sample times of a z leg between neighbouring grid columns; the
# two end columns are checked by their membership.
_LEG_TIMES = np.linspace(0.0, 1.0, 7)[1:-1]


class Subsphere:
    """The unit sphere of the span of pairwise-orthonormal imaginary units."""

    __slots__ = ("_basis",)

    def __init__(self, units: Sequence[UnitImaginary]) -> None:
        if len(units) < 2:
            raise PreconditionError("a subsphere needs at least two spanning units")
        basis = np.stack([u.vec for u in units])
        gram = basis @ basis.T
        if float(np.max(np.abs(gram - np.eye(len(units))))) > NEAR_UNIT_TOL:
            raise PreconditionError("subsphere units must be pairwise orthonormal")
        self._basis = basis

    @classmethod
    def default(cls) -> "Subsphere":
        return cls([UnitImaginary.basis(1), UnitImaginary.basis(2), UnitImaginary.basis(3)])

    @property
    def dim(self) -> int:
        return self._basis.shape[0]

    @property
    def basis(self) -> np.ndarray:
        return self._basis

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """n quasi-uniform unit 7-vectors in the span, as an (n, 7) array."""
        g = rng.normal(size=(n, self.dim))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        return g @ self._basis

    def contains(self, u, tol: float = 1e-9) -> bool:
        vec = u.vec if isinstance(u, UnitImaginary) else np.asarray(u, dtype=float)
        proj = (vec @ self._basis.T) @ self._basis
        return bool(np.linalg.norm(proj - vec) <= tol)


_PLAN_COUNTS = (
    "sphere_samples",
    "component_detect_min",
    "residual_samples",
    "residual_unit_samples",
    "search_budget",
    "pool_harvest",
    "pool_max",
)
# Steps, angles and separations; the optional ones may also be None.
_PLAN_SIZES = ("link_angle", "quotient_step_factor", "pool_sep_floor")
_PLAN_OPTIONAL_SIZES = ("quotient_z_step", "pool_sep")
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
    # Unit sampling on subspheres.
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
        for name in _PLAN_COUNTS:
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, _INTEGERS) or value <= 0:
                raise PreconditionError(f"plan {name} must be a positive integer, got {value!r}")
        for name in _PLAN_SIZES + _PLAN_OPTIONAL_SIZES:
            value = getattr(self, name)
            if value is None and name in _PLAN_OPTIONAL_SIZES:
                continue
            if not (_finite_real(value) and value > 0):
                raise PreconditionError(f"plan {name} must be finite and positive, got {value!r}")
        if not (_finite_real(self.min_im) and self.min_im >= 0):
            raise PreconditionError(f"plan min_im must be finite and not negative, got {self.min_im!r}")
        for name in ("a_values", "b_values"):
            value = getattr(self, name)
            if value is not None and not (
                isinstance(value, (tuple, list)) and value and all(map(_finite_real, value))
            ):
                raise PreconditionError(f"plan {name} must be a nonempty list of finite reals, got {value!r}")

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


def arc_sags(b: float, chords: np.ndarray) -> np.ndarray:
    """How far the arcs at height b over the unit chords du may leave them.

    An arc of the circle of radius |b| between units u and u + du lies
    within |b| |du|^2 / 4 of its chord.  A chord with |du|^2 > 2 (an arc of
    more than a quarter turn) gets NaN, which certifies nothing: on shorter
    arcs every renormalised chord point has norm at least 1/sqrt(2), so
    rounding moves it by a few ulps.
    """
    sq = row_norms(chords) ** 2
    return np.where(sq <= 2.0, abs(b) * sq / 4.0, np.nan)


def unit_graph_edges(units: np.ndarray, link_angle: float) -> np.ndarray:
    """Index pairs of units closer than link_angle, as an (m, 2) int array."""
    if len(units) == 0:
        return np.empty((0, 2), dtype=int)
    tree = cKDTree(units)
    pairs = tree.query_pairs(r=chord_of_angle(link_angle), output_type="ndarray")
    return pairs


def arc_points(u: np.ndarray, w: np.ndarray, fracs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Renormalised chord points (1 - f) u + f w of unit pairs.

    For ends (m, 7) and fractions (p,), returns the (m, p, 7) points and
    bool[m], False for a near antipodal pair, whose chord nears the origin.
    """
    fracs = np.asarray(fracs, dtype=float)[:, None]
    chords = (1.0 - fracs) * u[:, None] + fracs * w[:, None]
    norms = row_norms(chords)
    ok = ~(norms.min(axis=1, initial=np.inf) < 1e-6)
    chords[ok] /= norms[ok, :, None]
    return chords, ok


def arc_probe_graph(
    units: np.ndarray, link: float, probes: int = 23
) -> tuple[np.ndarray, np.ndarray]:
    """Unit-pool edges within chord `link`, with interior arc check points.

    Returns (ends, arcs): ends is (E, 2) int, arcs is (E, probes, 7) holding
    renormalized chord points strictly between the endpoints.  Sparse arc
    sampling misses thin gaps between nearly tangent slice caps, so the
    probe count errs dense.  Antipodal pairs get no edge.
    """
    fracs = np.linspace(0.0, 1.0, probes + 2)[1:-1]
    pairs = (
        cKDTree(units).query_pairs(link, output_type="ndarray")
        if len(units)
        else np.empty((0, 2), dtype=int)
    )
    arcs = np.empty((len(pairs), probes, 7))
    keep = np.zeros(len(pairs), dtype=bool)
    n = 0
    for start in range(0, len(pairs), _ARC_BLOCK):
        block = pairs[start : start + _ARC_BLOCK]
        points, ok = arc_points(units[block[:, 0]], units[block[:, 1]], fracs)
        keep[start : start + len(block)] = ok
        kept = int(ok.sum())
        arcs[n : n + kept] = points[ok]
        n += kept
    return pairs[keep].astype(int), arcs[:n]


def adaptive_unit_pool(
    domain,
    subsphere: Subsphere,
    plan: SamplePlan,
    rng: np.random.Generator,
) -> tuple[np.ndarray, float]:
    """Unit pool adapted to a domain's imaginary directions.

    Harvests units from interior samples of the domain, mirrors them through
    the antipode, and thins them greedily to an angular separation derived
    from the observed spread.  Returns (units (m, 7), separation used).
    """
    pts = domain.sample_interior(plan.pool_harvest, rng, min_im=1e-6)
    if len(pts) == 0:
        raise EmptySampleError("no interior samples to harvest units from")
    ims = pts[:, 1:]
    units = ims / np.linalg.norm(ims, axis=1, keepdims=True)
    proj = units @ subsphere.basis.T @ subsphere.basis
    keep = np.linalg.norm(proj, axis=1) > 0.7
    if not keep.any():
        raise EmptySampleError("domain units do not meet the chosen subsphere")
    units = proj[keep] / np.linalg.norm(proj[keep], axis=1, keepdims=True)
    units = np.vstack([units, -units])
    spread = 2.0 * float(
        np.arccos(np.clip(np.abs(units @ units[0]), -1.0, 1.0)).max(initial=0.0)
    )
    spread = min(spread, np.pi)
    sep = plan.pool_sep if plan.pool_sep is not None else max(plan.pool_sep_floor, spread / 15.0)
    min_chord = chord_of_angle(sep)
    # Greedy thinning in order: a unit is kept when it lies at least
    # min_chord from every unit kept before it.  Each sweep keeps the first
    # undecided unit and drops the later ones too close to it.
    kept: list[int] = []
    rest = np.arange(len(units))
    while len(rest) and len(kept) < plan.pool_max:
        k, rest = rest[0], rest[1:]
        kept.append(k)
        rest = rest[row_norms(units[k] - units[rest]) >= min_chord]
    return units[np.array(kept, dtype=np.int64)], sep


def components(n: int, edges) -> tuple[int, np.ndarray]:
    """Connected components of the graph on nodes 0..n-1 with the given edges.

    Returns (count, labels).  Labels follow each component's smallest node,
    so component 0 holds node 0 and labels first appear in increasing order.
    Self-loops and repeated edges are allowed.
    """
    if n == 0:
        return 0, np.empty(0, dtype=np.int64)
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    graph = coo_matrix((np.ones(len(edges)), (edges[:, 0], edges[:, 1])), shape=(n, n))
    count, raw = connected_components(graph, directed=False)
    # renumber by smallest node, whatever order the traversal used
    _, first = np.unique(raw, return_index=True)
    rank = np.empty(count, dtype=np.int64)
    rank[np.argsort(first)] = np.arange(count)
    return int(count), rank[raw]


class SlicePairGrid:
    """Sampled slice pairs (z, I) of a domain: a z grid crossed with a unit pool.

    The units are an adaptive pool, followed by the query units when there is
    a query.  The z axis has alphas over the domain's window and betas
    [-pos[::-1], 0, pos]; a query's z is snapped in as one more alpha and
    one more beta.  Columns are index pairs (alpha, beta).  Three masks over
    the units are computed on first use and cached:

    * `members(col)`: units I with tau(I, z) in the domain;
    * `arc_mask(col)`, over the arc edges: both ends members and every probe
      of the arc inside;
    * `move_mask(a, b)` for neighbouring columns: the closed z leg, i.e.
      members at both ends and inside at the interior times `_LEG_TIMES`.
      A leg is sampled from the smaller column to the larger, so the mask
      does not depend on the order of a and b.

    Both leg masks decide the legs between members with
    `domain.legs_inside`: an arc with sag |beta| `edge_sags` and its 23
    probes, a z leg with sag 0 and its interior times.

    A column is real when its beta is 0: every unit lifts one real point
    there, so its units are all members or none are.
    """

    def __init__(self, domain, plan: SamplePlan, subsphere: Subsphere, query=None) -> None:
        """`query`, when given, is (z, units (k, 7)): a point's projection and units."""
        self.domain = domain
        self.units, self.sep = adaptive_unit_pool(domain, subsphere, plan, plan.rng())
        window = domain.z_window()
        a_lo, a_hi, b_max = window
        step = z_grid_step(window, plan)
        self.alphas = np.arange(a_lo - step, a_hi + step + step / 2, step)
        pos = np.arange(step, b_max + step, step)
        self.betas = np.concatenate([-pos[::-1], [0.0], pos])
        self.query_col = None
        if query is not None:
            z, query_units = query
            self.units = np.vstack([self.units, query_units])
            self.alphas = np.sort(np.append(self.alphas, z.real))
            self.betas = np.sort(np.append(self.betas, z.imag))
            self.query_col = (
                int(np.searchsorted(self.alphas, z.real)),
                int(np.searchsorted(self.betas, z.imag)),
            )
        self.link = max(chord_of_angle(plan.link_angle), 2.5 * self.sep)
        self.edges, self.edge_arcs = arc_probe_graph(self.units, self.link)
        # sag of each arc edge at height 1, for `Domain.legs_inside`
        self.edge_sags = arc_sags(1.0, self.units[self.edges[:, 1]] - self.units[self.edges[:, 0]])
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
        if col not in self._members:
            z = self.z_of(col)
            self._members[col] = self.domain.contains_batch(tau_rows(z.real, z.imag, self.units))
        return self._members[col]

    def arc_mask(self, col) -> np.ndarray:
        if col not in self._arcs:
            mem = self.members(col)
            mask = mem[self.edges[:, 0]] & mem[self.edges[:, 1]]
            cand = np.flatnonzero(mask)
            z = self.z_of(col)
            p0, p1 = tau_rows(z.real, z.imag, self.units)[self.edges[cand].T]

            def rows(ids):
                arcs = self.edge_arcs[cand[ids]]
                return tau_rows(z.real, z.imag, arcs).reshape(-1, 8), arcs.shape[1]

            mask[cand] = self.domain.legs_inside(p0, p1, abs(z.imag) * self.edge_sags[cand], rows)
            self._arcs[col] = mask
        return self._arcs[col]

    def move_mask(self, a, b) -> np.ndarray:
        key = (a, b) if a < b else (b, a)
        if key not in self._moves:
            mask = self.members(key[0]) & self.members(key[1])
            cand = np.flatnonzero(mask)
            za, zb = self.z_of(key[0]), self.z_of(key[1])
            ends = np.array([[za], [zb]])
            p0, p1 = tau_rows(ends.real, ends.imag, self.units[cand])

            def rows(ids):
                zs = (1.0 - _LEG_TIMES) * za + _LEG_TIMES * zb
                units = self.units[cand[ids], None, :]
                return tau_rows(zs.real, zs.imag, units).reshape(-1, 8), len(zs)

            mask[cand] = self.domain.legs_inside(p0, p1, 0.0, rows)
            self._moves[key] = mask
        return self._moves[key]
