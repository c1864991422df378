"""Octonion domains, membership, and sphere-slice connectivity.

A domain is an open subset of 8-space.  Every variant provides exact
membership, a vectorized batch form, a conservative interior margin (a lower
bound on the distance to the complement, 0.0 when unknown), and interior
sampling.  The slice sphere S(Omega, a, b) of a domain collects the unit
imaginaries I with a + b I inside; connectivity questions about it are
answered by sampled proximity graphs and report "unknown" whenever sampling
cannot certify disjointness.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.spatial import cKDTree

from .algebra import REAL_AXIS_TOL, Octonion, UnitImaginary, angle_between, tau
from .errors import DomainError, PreconditionError
from .report import Report
from .sampling import SamplePlan, Subsphere, components, unit_graph_edges


class Domain:
    """Open subset of octonion space."""

    def contains(self, x: Octonion) -> bool:
        return bool(self.contains_batch(x.coeffs[None, :])[0])

    def contains_batch(self, pts: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def margin(self, x: Octonion) -> float:
        """Lower bound on distance from x to the complement; 0.0 if unknown."""
        raise NotImplementedError

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    def diameter(self) -> float:
        lo, hi = self.bounding_box()
        return float(np.linalg.norm(hi - lo))

    def z_window(self) -> tuple[float, float, float]:
        """Extent of the complex projection: (alpha_lo, alpha_hi, beta_max).

        The default derives beta_max from the bounding box, which can
        overshoot the true imaginary range; subclasses tighten it.
        """
        lo, hi = self.bounding_box()
        b_max = float(np.linalg.norm(np.maximum(np.abs(lo[1:]), np.abs(hi[1:]))))
        return float(lo[0]), float(hi[0]), b_max

    def sample_interior(
        self,
        n: int,
        rng: np.random.Generator,
        margin: float = 0.0,
        min_im: float = 0.0,
        max_tries: int = 200,
    ) -> np.ndarray:
        """Up to n interior points with the requested margin, as (m, 8)."""
        out = []
        need = n
        for _ in range(max_tries):
            cand = self._propose(max(4 * need, 64), rng)
            ims = np.linalg.norm(cand[:, 1:], axis=1)
            ok = ims >= min_im
            if margin > 0.0:
                ok &= np.array([self.margin(Octonion(p)) >= margin for p in cand])
            else:
                ok &= self.contains_batch(cand)
            cand = cand[ok]
            if len(cand):
                out.append(cand[:need])
                need -= len(cand[:need])
            if need <= 0:
                break
        return np.vstack(out) if out else np.empty((0, 8))

    def _propose(self, n: int, rng: np.random.Generator) -> np.ndarray:
        lo, hi = self.bounding_box()
        return rng.uniform(lo, hi, size=(n, 8))

    def to_json(self) -> dict:
        raise NotImplementedError

    @staticmethod
    def from_json(data: dict) -> "Domain":
        kind = data.get("type")
        if kind == "ball":
            return Ball(Octonion(np.asarray(data["center"], dtype=float)), float(data["radius"]))
        if kind == "ball_union":
            return BallUnion([
                Ball(Octonion(np.asarray(b["center"], dtype=float)), float(b["radius"]))
                for b in data["balls"]
            ])
        if kind == "slab_cone":
            return SlabCone(
                UnitImaginary(np.asarray(data["i0"], dtype=float)),
                float(data.get("half_angle", math.pi / 4)),
            )
        if kind == "ball_chain":
            return BallChain(
                UnitImaginary(np.asarray(data["i"], dtype=float)),
                UnitImaginary(np.asarray(data["j"], dtype=float)),
                theta_steps=int(data.get("theta_steps", 2048)),
            )
        raise PreconditionError(f"unknown domain type {kind!r}")


def _ball_points(center: np.ndarray, radius: float, n: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.normal(size=(n, 8))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    r = radius * rng.uniform(size=(n, 1)) ** (1.0 / 8.0)
    return center + g * r


class Ball(Domain):
    """Open euclidean ball."""

    def __init__(self, center: Octonion, radius: float) -> None:
        if radius <= 0:
            raise PreconditionError("ball radius must be positive")
        self.center = center
        self.radius = float(radius)

    def contains_batch(self, pts: np.ndarray) -> np.ndarray:
        return np.linalg.norm(pts - self.center.coeffs, axis=1) < self.radius

    def margin(self, x: Octonion) -> float:
        return self.radius - float(np.linalg.norm(x.coeffs - self.center.coeffs))

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        c = self.center.coeffs
        return c - self.radius, c + self.radius

    def diameter(self) -> float:
        return 2.0 * self.radius

    def z_window(self) -> tuple[float, float, float]:
        c = self.center.coeffs
        im_norm = float(np.linalg.norm(c[1:]))
        return c[0] - self.radius, c[0] + self.radius, im_norm + self.radius

    def _propose(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return _ball_points(self.center.coeffs, self.radius, n, rng)

    def slice_cap(self, a: float, b: float) -> tuple[Optional[np.ndarray], float]:
        """Unit directions admissible at a + b I, as (cap center, cos threshold).

        The slice sphere S(B, a, b) is the spherical cap of unit vectors u with
        <u, Im c>  >  ((a - c0)^2 + b^2 + |Im c|^2 - r^2) / (2 b).
        A real-centered ball returns (None, cos) where the cap is the whole
        sphere iff cos < 0.
        """
        if b <= 0:
            raise PreconditionError("slice cap needs b > 0")
        c = self.center.coeffs
        im_c = c[1:]
        im_norm = float(np.linalg.norm(im_c))
        t = ((a - c[0]) ** 2 + b**2 + im_norm**2 - self.radius**2) / (2.0 * b)
        if im_norm <= REAL_AXIS_TOL:
            return None, (math.inf if t >= 0 else -math.inf)
        return im_c / im_norm, t / im_norm

    def to_json(self) -> dict:
        return {"type": "ball", "center": self.center.to_list(), "radius": self.radius}


class BallUnion(Domain):
    """Finite union of open balls."""

    def __init__(self, balls: Sequence[Ball]) -> None:
        if not balls:
            raise PreconditionError("ball union needs at least one ball")
        self.balls = list(balls)

    def contains_batch(self, pts: np.ndarray) -> np.ndarray:
        mask = np.zeros(len(pts), dtype=bool)
        for ball in self.balls:
            mask |= ball.contains_batch(pts)
        return mask

    def margin(self, x: Octonion) -> float:
        return max(ball.margin(x) for ball in self.balls)

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        los, his = zip(*(b.bounding_box() for b in self.balls))
        return np.min(los, axis=0), np.max(his, axis=0)

    def diameter(self) -> float:
        gaps = [
            float(np.linalg.norm(a.center.coeffs - b.center.coeffs)) + a.radius + b.radius
            for a in self.balls
            for b in self.balls
        ]
        return max(gaps)

    def z_window(self) -> tuple[float, float, float]:
        windows = [b.z_window() for b in self.balls]
        return (
            min(w[0] for w in windows),
            max(w[1] for w in windows),
            max(w[2] for w in windows),
        )

    def _propose(self, n: int, rng: np.random.Generator) -> np.ndarray:
        idx = rng.integers(0, len(self.balls), size=n)
        out = np.empty((n, 8))
        for k, ball in enumerate(self.balls):
            sel = idx == k
            if sel.any():
                out[sel] = _ball_points(ball.center.coeffs, ball.radius, int(sel.sum()), rng)
        return out

    def to_json(self) -> dict:
        return {
            "type": "ball_union",
            "balls": [{"center": b.center.to_list(), "radius": b.radius} for b in self.balls],
        }


class SlabCone(Domain):
    """Slab |Im x| < 1 joined with two opposite axial cones of radius >= 1.

    The cones collect a + t I with t >= 1 and the angle from +-i0 to I below
    half_angle; the union is open and connected.
    """

    def __init__(self, i0: UnitImaginary, half_angle: float = math.pi / 4) -> None:
        if not 0 < half_angle <= math.pi / 2:
            raise PreconditionError("half_angle must lie in (0, pi/2]")
        self.i0 = i0
        self.half_angle = float(half_angle)
        self._cos_half = math.cos(self.half_angle)

    def contains_batch(self, pts: np.ndarray) -> np.ndarray:
        ims = pts[:, 1:]
        b = np.linalg.norm(ims, axis=1)
        mask = b < 1.0
        big = ~mask
        if big.any():
            cosang = np.abs(ims[big] @ self.i0.vec) / b[big]
            mask[big] = cosang > self._cos_half
        return mask

    def margin(self, x: Octonion) -> float:
        b = x.im_norm
        bounds = []
        if b < 1.0:
            bounds.append(1.0 - b)
        if b > REAL_AXIS_TOL:
            ang = angle_between(UnitImaginary.from_vector(x.im), self.i0)
            ang = min(ang, math.pi - ang)
            if ang < self.half_angle:
                bounds.append(b * math.sin(self.half_angle - ang))
        if not bounds:
            return 0.0 if self.contains(x) else -math.inf
        return max(bounds)

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        # The set is unbounded; this box is the default sampling window.
        return np.full(8, -4.0), np.full(8, 4.0)

    def z_window(self) -> tuple[float, float, float]:
        return -4.0, 4.0, 4.0

    def _propose(self, n: int, rng: np.random.Generator) -> np.ndarray:
        out = rng.uniform(-4.0, 4.0, size=(n, 8))
        # Half the proposals go into the cones, which the uniform box misses.
        half = n // 2
        axis = self.i0.vec
        seed = rng.normal(size=(half, 7))
        seed -= np.outer(seed @ axis, axis)
        norms = np.linalg.norm(seed, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        seed /= norms
        angles = rng.uniform(0.0, self.half_angle * 0.98, size=(half, 1))
        sign = np.where(rng.uniform(size=(half, 1)) < 0.5, 1.0, -1.0)
        units = sign * (np.cos(angles) * axis + np.sin(angles) * seed)
        t = rng.uniform(1.0, 3.5, size=(half, 1))
        out[:half, 1:] = units * t
        return out

    def to_json(self) -> dict:
        return {"type": "slab_cone", "i0": self.i0.to_list(), "half_angle": self.half_angle}


class BallChain(Domain):
    """Union over theta in [-pi, pi] of balls of radius 1/4 around

        c(theta) = cos(theta) e0 + (2 + sin(theta)) phi(theta),
        phi(theta) = i cos(theta/2) + j sin(theta/2),

    realized at a finite theta grid with exact per-ball membership.  The
    centers sweep a closed loop whose unit direction phi rotates only half a
    turn, which is what produces the inequivalent overlap near theta = +-pi.
    """

    RADIUS = 0.25

    def __init__(self, i: UnitImaginary, j: UnitImaginary, theta_steps: int = 2048) -> None:
        if abs(i.dot(j)) > 1e-9:
            raise PreconditionError("ball chain needs orthogonal units i, j")
        if theta_steps < 16:
            raise PreconditionError("theta grid too coarse")
        self.i = i
        self.j = j
        self.theta_steps = int(theta_steps)
        self.thetas = np.linspace(-math.pi, math.pi, self.theta_steps)
        self.centers = self._centers(self.thetas)
        self._tree = cKDTree(self.centers)

    def _centers(self, thetas: np.ndarray) -> np.ndarray:
        thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
        phi = np.outer(np.cos(thetas / 2.0), self.i.vec) + np.outer(
            np.sin(thetas / 2.0), self.j.vec
        )
        out = np.empty((len(thetas), 8))
        out[:, 0] = np.cos(thetas)
        out[:, 1:] = (2.0 + np.sin(thetas))[:, None] * phi
        return out

    def center_at(self, theta: float) -> Octonion:
        return Octonion(self._centers(np.array([theta]))[0])

    def nearest_theta(self, x: Octonion) -> tuple[float, float]:
        """Grid theta whose ball center is nearest to x, with the distance."""
        dist, idx = self._tree.query(x.coeffs)
        return float(self.thetas[int(idx)]), float(dist)

    def contains_batch(self, pts: np.ndarray) -> np.ndarray:
        # Points with no center within RADIUS come back at distance inf.
        dist, _ = self._tree.query(pts, distance_upper_bound=self.RADIUS)
        return dist < self.RADIUS

    def margin(self, x: Octonion) -> float:
        dist, _ = self._tree.query(x.coeffs)
        return self.RADIUS - float(dist)

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        lo = self.centers.min(axis=0) - self.RADIUS
        hi = self.centers.max(axis=0) + self.RADIUS
        return lo, hi

    def z_window(self) -> tuple[float, float, float]:
        # projections c(theta) -> cos(theta) + (2 + sin(theta)) i
        return -1.0 - self.RADIUS, 1.0 + self.RADIUS, 3.0 + self.RADIUS

    def _propose(self, n: int, rng: np.random.Generator) -> np.ndarray:
        idx = rng.integers(0, len(self.centers), size=n)
        g = rng.normal(size=(n, 8))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        r = self.RADIUS * rng.uniform(size=(n, 1)) ** (1.0 / 8.0)
        return self.centers[idx] + g * r

    def to_json(self) -> dict:
        return {
            "type": "ball_chain",
            "i": self.i.to_list(),
            "j": self.j.to_list(),
            "theta_steps": self.theta_steps,
        }


class PredicateDomain(Domain):
    """Membership by callable, with an explicit sampling box."""

    def __init__(
        self,
        fn: Callable[[Octonion], bool],
        bbox: tuple[np.ndarray, np.ndarray],
        name: str = "predicate",
    ) -> None:
        self.fn = fn
        self._bbox = (np.asarray(bbox[0], dtype=float), np.asarray(bbox[1], dtype=float))
        self.name = name

    def contains_batch(self, pts: np.ndarray) -> np.ndarray:
        return np.array([bool(self.fn(Octonion(p))) for p in pts])

    def margin(self, x: Octonion) -> float:
        return 0.0 if self.fn(x) else -math.inf

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        return self._bbox

    def to_json(self) -> dict:
        raise PreconditionError("predicate domains have no JSON form")


def sphere_slice_member(domain: Domain, a: float, b: float, i: UnitImaginary) -> bool:
    """Whether I belongs to S(Omega, a, b), i.e. a + b I lies in the domain."""
    return domain.contains(tau(i, complex(a, b)))


def _member_units(domain: Domain, a: float, b: float, units: np.ndarray) -> np.ndarray:
    pts = np.empty((len(units), 8))
    pts[:, 0] = a
    pts[:, 1:] = b * units
    return domain.contains_batch(pts)


def same_component(
    domain: Domain,
    a: float,
    b: float,
    i1: UnitImaginary,
    i2: UnitImaginary,
    subsphere: Optional[Subsphere] = None,
    plan: Optional[SamplePlan] = None,
) -> str:
    """Sampled verdict "same" / "different" / "unknown" for two slice units.

    "different" is only reported when both units' components were detected
    with at least plan.component_detect_min samples each and stayed disjoint
    at the sampled resolution; sampling never certifies disjointness beyond
    that, so everything else non-connected is "unknown".
    """
    subsphere = subsphere or Subsphere.default()
    plan = plan or SamplePlan()
    for u in (i1, i2):
        if not subsphere.contains(u):
            raise PreconditionError("query unit lies outside the subsphere span")
        if not sphere_slice_member(domain, a, b, u):
            raise DomainError("query unit is not in the slice sphere")
    if float(np.linalg.norm(i1.vec - i2.vec)) <= 1e-12:
        return "same"
    units = subsphere.sample(plan.sphere_samples, plan.rng())
    units = units[_member_units(domain, a, b, units)]
    nodes = np.vstack([units, i1.vec[None, :], i2.vec[None, :]])
    n1, n2 = len(nodes) - 2, len(nodes) - 1
    _, labels = components(len(nodes), unit_graph_edges(nodes, plan.link_angle))
    if labels[n1] == labels[n2]:
        return "same"
    sampled = labels[: len(units)]
    size1 = int(np.count_nonzero(sampled == labels[n1]))
    size2 = int(np.count_nonzero(sampled == labels[n2]))
    if size1 >= plan.component_detect_min and size2 >= plan.component_detect_min:
        return "different"
    return "unknown"


def _component_count(units: np.ndarray, link_angle: float, detect_min: int) -> int:
    """Components of the unit proximity graph, ignoring undersampled ones."""
    count, labels = components(len(units), unit_graph_edges(units, link_angle))
    return int(np.count_nonzero(np.bincount(labels, minlength=count) >= detect_min))


def circularly_connected_scan(
    domain: Domain,
    plan: Optional[SamplePlan] = None,
    subsphere: Optional[Subsphere] = None,
) -> Report:
    """Sampled check that every nonempty slice sphere is connected.

    Scans an (a, b) grid, counts proximity-graph components of the sampled
    members of each nonempty slice sphere, and passes iff every evaluated
    cell has exactly one detected component.  Cells with fewer than
    component_detect_min members are skipped as unresolved.
    """
    plan = plan or SamplePlan()
    subsphere = subsphere or Subsphere.default()
    a_values = plan.a_values if plan.a_values is not None else (-2.0, -1.0, 0.0, 1.0, 2.0)
    b_values = plan.b_values if plan.b_values is not None else (0.5, 1.5, 2.5)
    units = subsphere.sample(plan.sphere_samples, plan.rng())
    counts = []
    worst = None
    worst_count = 0
    evaluated = 0
    for a in a_values:
        for b in b_values:
            members = units[_member_units(domain, a, b, units)]
            if len(members) < plan.component_detect_min:
                continue
            evaluated += 1
            count = _component_count(members, plan.link_angle, plan.component_detect_min)
            count = max(count, 1)
            counts.append(count)
            if count > worst_count:
                worst_count = count
                worst = tau(UnitImaginary.from_vector(members[0]), complex(a, b))
    if not counts:
        return Report("circular-connectivity", 0, 0.0, 0.0, 1.0, False, None)
    max_count = max(counts)
    return Report(
        op="circular-connectivity",
        samples=evaluated,
        max_residual=float(max_count),
        mean_residual=float(np.mean(counts)),
        tolerance=1.0,
        passed=max_count <= 1,
        worst_point=worst.to_list() if worst is not None else None,
    )
