"""Sampling plans, subspheres of imaginary units, and unit-set utilities.

All randomized procedures in the package draw from a generator seeded by the
plan's single seed, so identical inputs reproduce identical outputs byte for
byte.  Resolution knobs (sample counts, link angles, budgets) live here so
every check records what it actually used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np
from scipy.spatial import cKDTree

from .algebra import NEAR_UNIT_TOL, UnitImaginary
from .errors import EmptySampleError, PreconditionError

# Upper limit on the columns of a z grid (alphas x betas).  The default plans
# build about a thousand; a grid past the limit is refused before it is built.
MAX_Z_COLUMNS = 50_000
# Candidate units tested in one call against the pool kept so far.
_THIN_BLOCK = 64


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

    def project(self, vec: np.ndarray) -> np.ndarray:
        return (vec @ self._basis.T) @ self._basis

    def to_json(self) -> list[list[float]]:
        return [[float(v) for v in row] for row in self._basis]

    @classmethod
    def from_json(cls, data) -> "Subsphere":
        return cls([UnitImaginary(np.asarray(row, dtype=float)) for row in data])


_PLAN_COUNTS = (
    "sphere_samples",
    "component_detect_min",
    "residual_samples",
    "residual_unit_samples",
    "search_budget",
    "pool_harvest",
    "pool_max",
    "verify_samples",
)
# Steps, angles and separations; the optional ones may also be None.
_PLAN_SIZES = ("link_angle", "base_step", "quotient_step_factor", "pool_sep_floor")
_PLAN_OPTIONAL_SIZES = ("quotient_z_step", "pool_sep")
_INTEGERS = (int, np.integer)
_REALS = (int, float, np.integer, np.floating)


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
    # (a, b) grids for slice scans; None derives a small default grid.
    a_values: Optional[tuple[float, ...]] = None
    b_values: Optional[tuple[float, ...]] = None
    # Fiber-product search.
    base_step: float = 0.1
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
    # Witness verification.
    verify_samples: int = 256

    def __post_init__(self) -> None:
        for name in _PLAN_COUNTS:
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, _INTEGERS) or value <= 0:
                raise PreconditionError(f"plan {name} must be a positive integer, got {value!r}")
        for name in _PLAN_SIZES + _PLAN_OPTIONAL_SIZES:
            value = getattr(self, name)
            if value is None and name in _PLAN_OPTIONAL_SIZES:
                continue
            if (
                isinstance(value, bool)
                or not isinstance(value, _REALS)
                or not (math.isfinite(value) and value > 0)
            ):
                raise PreconditionError(f"plan {name} must be finite and positive, got {value!r}")

    def rng(self) -> np.random.Generator:
        return np.random.default_rng(self.seed)

    def with_seed(self, seed: int) -> "SamplePlan":
        return replace(self, seed=seed)


def z_grid_step(window: tuple[float, float, float], plan: SamplePlan) -> float:
    """Step of the sampled z grid over a z window (alpha_lo, alpha_hi, beta_max).

    Refuses, before any grid is built, a step whose grid could exceed
    MAX_Z_COLUMNS columns; the count used bounds both the quotient grid
    (betas of both signs) and the fiber-search grid (one snapped column).
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


def unit_graph_edges(units: np.ndarray, link_angle: float) -> np.ndarray:
    """Index pairs of units closer than link_angle, as an (m, 2) int array."""
    if len(units) == 0:
        return np.empty((0, 2), dtype=int)
    tree = cKDTree(units)
    pairs = tree.query_pairs(r=chord_of_angle(link_angle), output_type="ndarray")
    return pairs


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
    if len(units) == 0:
        return np.empty((0, 2), dtype=int), np.zeros((0, probes, 7))
    pairs = cKDTree(units).query_pairs(link, output_type="ndarray")
    ends, arcs = [], []
    for a, b in pairs:
        chords = np.outer(1.0 - fracs, units[a]) + np.outer(fracs, units[b])
        norms = np.linalg.norm(chords, axis=1)
        if norms.min() < 1e-6:
            continue
        ends.append((int(a), int(b)))
        arcs.append(chords / norms[:, None])
    if not ends:
        return np.empty((0, 2), dtype=int), np.zeros((0, probes, 7))
    return np.asarray(ends, dtype=int), np.asarray(arcs)


def slerp(u: np.ndarray, w: np.ndarray, s: float) -> np.ndarray:
    """Chordal interpolation between unit vectors, renormalized to the sphere."""
    v = (1.0 - s) * u + s * w
    n = float(np.linalg.norm(v))
    if n <= 1e-12:
        raise PreconditionError("cannot interpolate between antipodal units")
    return v / n


def slerp_many(u: np.ndarray, w: np.ndarray, fractions: np.ndarray) -> np.ndarray:
    """Renormalized chordal interpolation at several fractions, (k, dim)."""
    v = np.outer(1.0 - fractions, u) + np.outer(fractions, w)
    n = np.linalg.norm(v, axis=1, keepdims=True)
    if float(n.min()) <= 1e-12:
        raise PreconditionError("cannot interpolate between antipodal units")
    return v / n


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
    # min_chord from every unit kept before it.
    kept = np.empty((min(plan.pool_max, len(units)), 7))
    n = 0
    for start in range(0, len(units), _THIN_BLOCK):
        if n >= plan.pool_max:
            break
        block = units[start : start + _THIN_BLOCK]
        if n:
            # one test against every unit kept before this block
            gaps = np.linalg.norm(kept[None, :n] - block[:, None], axis=2).min(axis=1)
            block = block[gaps >= min_chord]
        # then the survivors, one by one, against units kept within the block
        first = n
        for u in block:
            if n >= plan.pool_max:
                break
            if n == first or float(np.linalg.norm(kept[first:n] - u, axis=1).min()) >= min_chord:
                kept[n] = u
                n += 1
    return kept[:n], sep
