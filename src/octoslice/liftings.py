"""Circular liftings of plane paths and the close-circular-lifting relation.

A path gamma in the closed upper half plane lifts through a continuous unit
path Theta to the space path t -> tau_{Theta(t)}(gamma(t)).  Off the real
axis the lifting determines (gamma, Theta) uniquely; where gamma touches the
axis the unit is free, which is what lets liftings recouple there.

Two points x, x' are close-circular-lifting related in a domain when two
liftings of one common base path start at the same point and end at x and
x' respectively, both staying inside the domain.  `ccl_search` looks for
such a coupled witness: first by direct constructions (constant base along
a unit path, or a detour through a real anchor point), then by breadth
first search on a sampled fiber product of the domain.  A search that
exhausts its sampled component without reaching a coupling point reports
not-equivalent at that resolution; hitting the node budget reports that
instead, never a fabricated verdict.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from .algebra import Octonion, UnitImaginary, tau, unit_imaginary_of
from .diffops import DEFAULT_SCHEME, FDScheme, OctField
from .domains import Domain
from .errors import DomainError, PreconditionError
from .sampling import (
    SamplePlan,
    Subsphere,
    adaptive_unit_pool,
    arc_probe_graph,
    chord_of_angle,
    z_grid_step,
)
from .stems import StemVector, stem_from_gamma

_ANTIPODAL_TOL = 1e-6
# Sample times of a base move between neighbouring grid columns, start
# excluded (the start column's membership is already known).
_BASE_MOVE_TIMES = np.linspace(0.0, 1.0, 7)[1:]


def _check_times(times: np.ndarray, count: int) -> np.ndarray:
    times = np.asarray(times, dtype=float)
    if times.shape != (count,) or count < 2:
        raise PreconditionError("need matching times for at least two vertices")
    if abs(times[0]) > 1e-12 or abs(times[-1] - 1.0) > 1e-12:
        raise PreconditionError("paths are parameterized over [0, 1]")
    if np.any(np.diff(times) <= 0):
        raise PreconditionError("times must increase strictly")
    times[0], times[-1] = 0.0, 1.0
    return times


class PolyPathC:
    """Piecewise-linear path in the complex plane."""

    def __init__(self, vertices, times=None):
        self.vertices = np.asarray(vertices, dtype=complex)
        if self.vertices.ndim != 1 or len(self.vertices) < 2:
            raise PreconditionError("need at least two vertices")
        n = len(self.vertices)
        self.times = _check_times(
            np.linspace(0.0, 1.0, n) if times is None else times, n
        )

    def eval_many(self, ts) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        re = np.interp(ts, self.times, self.vertices.real)
        im = np.interp(ts, self.times, self.vertices.imag)
        return re + 1j * im

    def eval(self, t: float) -> complex:
        return complex(self.eval_many([t])[0])

    def to_json(self) -> dict:
        return {
            "times": self.times.tolist(),
            "vertices": [[float(v.real), float(v.imag)] for v in self.vertices],
        }

    @classmethod
    def from_json(cls, data: dict) -> "PolyPathC":
        verts = [complex(a, b) for a, b in data["vertices"]]
        return cls(verts, np.asarray(data["times"]))


class PolyPathS:
    """Piecewise path of imaginary units, interpolated chordally and renormalized."""

    def __init__(self, vertices, times=None):
        verts = np.asarray(vertices, dtype=float)
        if verts.ndim != 2 or verts.shape[1] != 7 or len(verts) < 2:
            raise PreconditionError("need an (n, 7) array of at least two unit vectors")
        norms = np.linalg.norm(verts, axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-9):
            raise PreconditionError("unit path vertices must have norm 1")
        self.vertices = verts / norms[:, None]
        gaps = np.linalg.norm(self.vertices[1:] + self.vertices[:-1], axis=1)
        if np.any(gaps < _ANTIPODAL_TOL):
            raise PreconditionError("adjacent unit vertices are antipodal; insert a waypoint")
        n = len(self.vertices)
        self.times = _check_times(
            np.linspace(0.0, 1.0, n) if times is None else times, n
        )

    def eval_many(self, ts) -> np.ndarray:
        ts = np.clip(np.asarray(ts, dtype=float), 0.0, 1.0)
        idx = np.clip(np.searchsorted(self.times, ts, side="right") - 1, 0, len(self.times) - 2)
        t0, t1 = self.times[idx], self.times[idx + 1]
        s = ((ts - t0) / (t1 - t0))[:, None]
        pts = (1.0 - s) * self.vertices[idx] + s * self.vertices[idx + 1]
        return pts / np.linalg.norm(pts, axis=1)[:, None]

    def eval(self, t: float) -> UnitImaginary:
        return UnitImaginary(self.eval_many([t])[0])

    def to_json(self) -> dict:
        return {"times": self.times.tolist(), "vertices": self.vertices.tolist()}

    @classmethod
    def from_json(cls, data: dict) -> "PolyPathS":
        return cls(np.asarray(data["vertices"]), np.asarray(data["times"]))


class PolyPathO:
    """Piecewise-linear path in octonion space."""

    def __init__(self, vertices, times=None):
        verts = [v.coeffs if isinstance(v, Octonion) else np.asarray(v, dtype=float) for v in vertices]
        self.vertices = np.asarray(verts, dtype=float)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 8 or len(self.vertices) < 2:
            raise PreconditionError("need an (n, 8) array of at least two vertices")
        n = len(self.vertices)
        self.times = _check_times(
            np.linspace(0.0, 1.0, n) if times is None else times, n
        )

    def eval_many(self, ts) -> np.ndarray:
        ts = np.clip(np.asarray(ts, dtype=float), 0.0, 1.0)
        out = np.empty((len(ts), 8))
        for k in range(8):
            out[:, k] = np.interp(ts, self.times, self.vertices[:, k])
        return out

    def eval(self, t: float) -> Octonion:
        return Octonion(self.eval_many([t])[0])

    def to_json(self) -> dict:
        return {"times": self.times.tolist(), "vertices": self.vertices.tolist()}

    @classmethod
    def from_json(cls, data: dict) -> "PolyPathO":
        return cls(np.asarray(data["vertices"]), np.asarray(data["times"]))


@dataclass
class CircularLifting:
    """The space path t -> tau_{units(t)}(base(t))."""

    base: PolyPathC
    units: PolyPathS

    def eval_many(self, ts) -> np.ndarray:
        z = self.base.eval_many(ts)
        u = self.units.eval_many(ts)
        out = np.empty((len(z), 8))
        out[:, 0] = z.real
        out[:, 1:] = z.imag[:, None] * u
        return out

    def eval(self, t: float) -> Octonion:
        return Octonion(self.eval_many([t])[0])

    def to_json(self) -> dict:
        return {"base": self.base.to_json(), "units": self.units.to_json()}

    @classmethod
    def from_json(cls, data: dict) -> "CircularLifting":
        return cls(PolyPathC.from_json(data["base"]), PolyPathS.from_json(data["units"]))


@dataclass
class CoupledLifting:
    """Two liftings of one base path, coinciding at t = 0."""

    base: PolyPathC
    units1: PolyPathS
    units2: PolyPathS

    def lifting(self, k: int) -> CircularLifting:
        if k not in (1, 2):
            raise PreconditionError("lifting index must be 1 or 2")
        return CircularLifting(self.base, self.units1 if k == 1 else self.units2)

    def to_json(self) -> dict:
        return {
            "base": self.base.to_json(),
            "units1": self.units1.to_json(),
            "units2": self.units2.to_json(),
        }

    @classmethod
    def from_json(cls, data: dict) -> "CoupledLifting":
        return cls(
            PolyPathC.from_json(data["base"]),
            PolyPathS.from_json(data["units1"]),
            PolyPathS.from_json(data["units2"]),
        )


def lift_decompose(path: PolyPathO, samples: int = 4096) -> CircularLifting:
    """Split a space path into base and unit paths, x = tau_{Theta}(gamma).

    The path must stay off the real axis except possibly at its endpoints,
    where the unit takes its one-sided limit.  Vertices of the result sit
    exactly on the decomposition at the sample times.
    """
    ts = np.union1d(path.times, np.linspace(0.0, 1.0, samples))
    pts = path.eval_many(ts)
    im = pts[:, 1:]
    b = np.linalg.norm(im, axis=1)
    on_axis = b <= 1e-9
    if np.any(on_axis[1:-1]):
        raise DomainError("path touches the real axis away from its endpoints")
    units = np.empty_like(im)
    off = ~on_axis
    units[off] = im[off] / b[off, None]
    if on_axis[0]:
        units[0] = units[1]
    if on_axis[-1]:
        units[-1] = units[-2]
    base = PolyPathC(pts[:, 0] + 1j * b, ts)
    return CircularLifting(base, PolyPathS(units, ts))


def _push_unit(adjacent_dirs: list[np.ndarray]) -> np.ndarray:
    best, best_score = None, np.inf
    for k in range(7):
        cand = np.zeros(7)
        cand[k] = 1.0
        score = max((abs(cand @ d) for d in adjacent_dirs), default=0.0)
        if score < best_score:
            best, best_score = cand, score
    return best


def lift_approximate(
    path: PolyPathO, delta: float, samples: Optional[int] = None
) -> tuple[CircularLifting, dict]:
    """Circular lifting within delta of a polygonal path, endpoints exact.

    Interior vertices and crossing points on the real axis are pushed off it
    by delta/4, so the perturbed path decomposes while staying within delta/4
    of the original.  The certificate reports the sampled sup deviation and
    endpoint errors.
    """
    if delta <= 0:
        raise PreconditionError("delta must be positive")
    verts = [v.copy() for v in path.vertices]
    times = list(path.times)

    # split segments that cross the axis in their interior
    k = 0
    while k < len(verts) - 1:
        im_a, im_b = verts[k][1:], verts[k + 1][1:]
        d = im_b - im_a
        dd = float(d @ d)
        s_star = 0.5 if dd < 1e-30 else float(np.clip(-(im_a @ d) / dd, 0.0, 1.0))
        low = np.linalg.norm(im_a + s_star * d)
        if low <= 1e-9 and 1e-9 < s_star < 1.0 - 1e-9:
            cross = (1.0 - s_star) * verts[k] + s_star * verts[k + 1]
            dirs = []
            for v in (im_a, im_b):
                n = np.linalg.norm(v)
                if n > 1e-9:
                    dirs.append(v / n)
            cross[1:] += (delta / 4.0) * _push_unit(dirs)
            verts.insert(k + 1, cross)
            times.insert(k + 1, (1.0 - s_star) * times[k] + s_star * times[k + 1])
            k += 1
        k += 1

    # push interior vertices sitting on the axis
    for k in range(1, len(verts) - 1):
        if np.linalg.norm(verts[k][1:]) <= 1e-9:
            dirs = []
            for j in (k - 1, k + 1):
                v = verts[j][1:]
                n = np.linalg.norm(v)
                if n > 1e-9:
                    dirs.append(v / n)
            verts[k][1:] += (delta / 4.0) * _push_unit(dirs)

    # a fully real two-vertex path needs a pushed midpoint
    k = 0
    while k < len(verts) - 1:
        if (
            np.linalg.norm(verts[k][1:]) <= 1e-9
            and np.linalg.norm(verts[k + 1][1:]) <= 1e-9
        ):
            mid = 0.5 * (verts[k] + verts[k + 1])
            mid[1:] += (delta / 4.0) * _push_unit([])
            verts.insert(k + 1, mid)
            times.insert(k + 1, 0.5 * (times[k] + times[k + 1]))
            k += 1
        k += 1

    perturbed = PolyPathO(verts, np.asarray(times))
    resolution = samples or max(10_000, 100 * len(verts))
    lifting = lift_decompose(perturbed, samples=resolution)
    ts = lifting.base.times
    deviation = np.linalg.norm(lifting.eval_many(ts) - path.eval_many(ts), axis=1)
    cert = {
        "delta": float(delta),
        "resolution": int(len(ts)),
        "sup_deviation": float(deviation.max()),
        "endpoint_start_error": float(deviation[0]),
        "endpoint_end_error": float(deviation[-1]),
    }
    cert["passed"] = bool(
        cert["sup_deviation"] < delta
        and cert["endpoint_start_error"] <= 1e-9
        and cert["endpoint_end_error"] <= 1e-9
    )
    return lifting, cert


def lift_in_domain(lifting: CircularLifting, domain: Domain, resolution: int = 2048) -> bool:
    ts = np.union1d(lifting.base.times, np.linspace(0.0, 1.0, resolution))
    return bool(np.all(domain.contains_batch(lifting.eval_many(ts))))


# ---------------------------------------------------------------------------
# Close-circular-lifting search


@dataclass
class SearchResult:
    # found | not-equivalent | budget-exhausted | unverified (the search found
    # a path whose witness then failed ccl_verify)
    status: str
    witness: Optional[CoupledLifting]
    nodes: int = 0
    detail: str = ""

    @property
    def found(self) -> bool:
        return self.status == "found"

    def to_json(self) -> dict:
        return {
            "status": self.status,
            "nodes": self.nodes,
            "detail": self.detail,
            "witness": None if self.witness is None else self.witness.to_json(),
        }


def ccl_verify(
    witness: CoupledLifting,
    x: Octonion,
    xp: Octonion,
    domain: Domain,
    resolution: int = 2048,
    tol: float = 1e-9,
) -> tuple[bool, dict]:
    """Re-check a coupled witness: common start, exact ends, both inside."""
    ts = np.union1d(witness.base.times, np.linspace(0.0, 1.0, resolution))
    pts1 = witness.lifting(1).eval_many(ts)
    pts2 = witness.lifting(2).eval_many(ts)
    detail = {
        "start_gap": float(np.linalg.norm(pts1[0] - pts2[0])),
        "end1_error": float(np.linalg.norm(pts1[-1] - x.coeffs)),
        "end2_error": float(np.linalg.norm(pts2[-1] - xp.coeffs)),
        "in_domain1": bool(np.all(domain.contains_batch(pts1))),
        "in_domain2": bool(np.all(domain.contains_batch(pts2))),
    }
    ok = (
        detail["start_gap"] <= tol
        and detail["end1_error"] <= tol
        and detail["end2_error"] <= tol
        and detail["in_domain1"]
        and detail["in_domain2"]
    )
    return ok, detail


def _constant_path(value: np.ndarray) -> PolyPathS:
    return PolyPathS(np.vstack([value, value]))


def _unit_path_in_domain(
    domain: Domain, z: complex, u1: np.ndarray, u2: np.ndarray, resolution: int = 512
) -> Optional[PolyPathS]:
    """Unit polyline from u1 to u2 whose slice points at z stay in the domain."""
    candidates = []
    if np.linalg.norm(u1 + u2) >= 0.5:
        candidates.append(np.vstack([u1, u2]))
    # antipodal or nearly so: route through an orthogonal waypoint
    for k in range(7):
        w = np.zeros(7)
        w[k] = 1.0
        w = w - (w @ u1) * u1
        n = np.linalg.norm(w)
        if n < 0.3:
            continue
        candidates.append(np.vstack([u1, w / n, u2]))
    for verts in candidates:
        try:
            units = PolyPathS(verts)
        except PreconditionError:
            continue
        us = units.eval_many(np.linspace(0.0, 1.0, resolution))
        pts = np.empty((len(us), 8))
        pts[:, 0] = z.real
        pts[:, 1:] = z.imag * us
        if np.all(domain.contains_batch(pts)):
            return units
    return None


def _real_anchor(domain: Domain, z: complex, u1: np.ndarray, u2: np.ndarray) -> Optional[CoupledLifting]:
    """Witness through a real point: both liftings travel to it, recouple, return."""
    lo, hi = domain.bounding_box()
    alphas = np.concatenate([[z.real], np.linspace(lo[0], hi[0], 33)])
    reals = np.zeros((len(alphas), 8))
    reals[:, 0] = alphas
    ok = domain.contains_batch(reals)
    segment = np.linspace(0.0, 1.0, 256)[:, None]
    for alpha, good in zip(alphas, ok):
        if not good:
            continue
        # spokes tau_{uk}((1-s) z + s alpha) for both units
        zs = (1.0 - segment) * np.array([z.real, z.imag]) + segment * np.array([alpha, 0.0])
        for u in (u1, u2):
            pts = np.zeros((len(zs), 8))
            pts[:, 0] = zs[:, 0]
            pts[:, 1:] = zs[:, 1:2] * u
            if not np.all(domain.contains_batch(pts)):
                break
        else:
            base = PolyPathC(
                [z, complex(alpha, 0.0), complex(alpha, 0.0), z],
                np.array([0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0]),
            )
            units1 = PolyPathS(np.vstack([u1, u1, u1, u1]), base.times.copy())
            if np.linalg.norm(u1 + u2) >= 0.5:
                mid = [u2]
            else:
                mid = [_push_unit([u1, u2]), u2]
                mid[0] -= (mid[0] @ u1) * u1
                mid[0] /= np.linalg.norm(mid[0])
            inner = np.linspace(1.0 / 3.0, 2.0 / 3.0, len(mid) + 1)[1:]
            times2 = np.concatenate([[0.0, 1.0 / 3.0], inner, [1.0]])
            units2 = PolyPathS(np.vstack([u1, u1, *mid, mid[-1]]), times2)
            return CoupledLifting(base, units1, units2)
    return None


class _FiberSearch:
    """Breadth-first search on the sampled fiber product of a domain."""

    def __init__(self, domain, plan, subsphere, z, u1, u2):
        self.domain = domain
        self.plan = plan
        rng = plan.rng()
        units, sep = adaptive_unit_pool(domain, subsphere, plan, rng)
        self.units = np.vstack([units, u1, u2])
        self.i1 = len(self.units) - 2
        self.i2 = len(self.units) - 1
        window = domain.z_window()
        a_lo, a_hi, b_max = window
        step = z_grid_step(window, plan)
        self.alphas = np.arange(a_lo - step, a_hi + step + step / 2, step)
        self.betas = np.arange(0.0, b_max + step, step)
        # snap the query column onto the grid
        self.alphas = np.sort(np.append(self.alphas, z.real))
        self.betas = np.sort(np.append(self.betas, z.imag))
        self.col_x = (int(np.searchsorted(self.alphas, z.real)), int(np.searchsorted(self.betas, z.imag)))
        link = max(chord_of_angle(plan.link_angle), 2.5 * sep)
        self.ends, self.edge_probes = arc_probe_graph(self.units, link)
        self.adj: dict[int, list[tuple[int, int]]] = {i: [] for i in range(len(self.units))}
        for eidx, (a, b) in enumerate(self.ends):
            self.adj[int(a)].append((int(b), eidx))
            self.adj[int(b)].append((int(a), eidx))
        self.edge_index = {(int(a), int(b)): e for e, (a, b) in enumerate(self.ends)}
        self.edge_index.update({(int(b), int(a)): e for e, (a, b) in enumerate(self.ends)})
        self._members: dict[tuple[int, int], np.ndarray] = {}
        self._edges_ok: dict[tuple[int, int], np.ndarray] = {}
        self._moves_ok: dict[tuple[tuple[int, int], tuple[int, int]], np.ndarray] = {}
        self._real_cols: dict[int, bool] = {}

    def z_of(self, col):
        return complex(self.alphas[col[0]], self.betas[col[1]])

    def members(self, col) -> np.ndarray:
        if col not in self._members:
            z = self.z_of(col)
            pts = np.zeros((len(self.units), 8))
            pts[:, 0] = z.real
            pts[:, 1:] = z.imag * self.units
            self._members[col] = self.domain.contains_batch(pts)
        return self._members[col]

    def edges_ok(self, col) -> np.ndarray:
        if col not in self._edges_ok:
            z = self.z_of(col)
            n_edges, n_probes, _ = self.edge_probes.shape
            pts = np.zeros((n_edges * n_probes, 8))
            pts[:, 0] = z.real
            pts[:, 1:] = z.imag * self.edge_probes.reshape(-1, 7)
            arc_ok = self.domain.contains_batch(pts).reshape(n_edges, n_probes).all(axis=1)
            mem = self.members(col)
            self._edges_ok[col] = arc_ok & mem[self.ends[:, 0]] & mem[self.ends[:, 1]]
        return self._edges_ok[col]

    def is_real_col(self, col) -> bool:
        if self.betas[col[1]] > 1e-9:
            return False
        if col[0] not in self._real_cols:
            x = np.zeros(8)
            x[0] = self.alphas[col[0]]
            self._real_cols[col[0]] = bool(self.domain.contains_batch(x[None, :])[0])
        return self._real_cols[col[0]]

    def edge_ok(self, col, eidx) -> bool:
        if self.is_real_col(col):
            return True
        return bool(self.edges_ok(col)[eidx])

    def moves_ok(self, col_a, col_b) -> np.ndarray:
        """Per unit: does the base move from col_a to col_b stay in the domain?"""
        key = (col_a, col_b)
        if key not in self._moves_ok:
            za, zb = self.z_of(col_a), self.z_of(col_b)
            t = _BASE_MOVE_TIMES
            zs = (1.0 - t) * za + t * zb
            if self.is_real_col(col_b):
                # the real end column is checked on its own
                zs = zs[:-1]
            pts = np.zeros((len(self.units), len(zs), 8))
            pts[:, :, 0] = zs.real
            pts[:, :, 1:] = zs.imag[None, :, None] * self.units[:, None, :]
            inside = self.domain.contains_batch(pts.reshape(-1, 8))
            self._moves_ok[key] = inside.reshape(len(self.units), len(zs)).all(axis=1)
        return self._moves_ok[key]

    def base_move_ok(self, col_a, col_b, i) -> bool:
        return bool(self.moves_ok(col_a, col_b)[i])

    def neighbor_cols(self, col):
        ia, ib = col
        for da, db in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            ja, jb = ia + da, ib + db
            if 0 <= ja < len(self.alphas) and 0 <= jb < len(self.betas):
                yield (ja, jb)

    def run(self) -> tuple[str, Optional[list], int]:
        start = (self.col_x, self.i1, self.i2)
        mem = self.members(self.col_x)
        if not (mem[self.i1] and mem[self.i2]):
            return "budget-exhausted", None, 0
        parents = {start: None}
        queue = deque([start])
        pops = 0
        while queue:
            if pops >= self.plan.search_budget:
                return "budget-exhausted", None, pops
            node = queue.popleft()
            pops += 1
            col, i, j = node
            if i == j or self.is_real_col(col):
                return "found", self._walk_back(parents, node), pops
            direct = self.edge_index.get((i, j))
            if direct is not None and self.edge_ok(col, direct):
                # one unit slide away from the diagonal: finish it
                final = (col, i, i)
                parents.setdefault(final, node)
                return "found", self._walk_back(parents, final), pops
            for k, eidx in self.adj[i]:
                if self.edge_ok(col, eidx):
                    nxt = (col, k, j)
                    if nxt not in parents:
                        parents[nxt] = node
                        queue.append(nxt)
            for k, eidx in self.adj[j]:
                if self.edge_ok(col, eidx):
                    nxt = (col, i, k)
                    if nxt not in parents:
                        parents[nxt] = node
                        queue.append(nxt)
            for col2 in self.neighbor_cols(col):
                if self.is_real_col(col2):
                    ok = self.base_move_ok(col, col2, i) and self.base_move_ok(col, col2, j)
                else:
                    mem2 = self.members(col2)
                    ok = (
                        mem2[i]
                        and mem2[j]
                        and self.base_move_ok(col, col2, i)
                        and self.base_move_ok(col, col2, j)
                    )
                if ok:
                    nxt = (col2, i, j)
                    if nxt not in parents:
                        parents[nxt] = node
                        queue.append(nxt)
        return "not-equivalent", None, pops

    def _walk_back(self, parents, node) -> list:
        out = []
        while node is not None:
            out.append(node)
            node = parents[node]
        return out  # coupling point first, query column last


def _witness_from_nodes(search: _FiberSearch, nodes: list, x: Octonion, xp: Octonion) -> CoupledLifting:
    zs = [search.z_of(col) for col, _, _ in nodes]
    us1 = [search.units[i] for _, i, _ in nodes]
    us2 = [search.units[j] for _, _, j in nodes]
    # exact leg from the grid column to the query projection; the final node
    # already carries the exact query units
    zs.append(complex(x.re, x.im_norm))
    us1.append(us1[-1])
    us2.append(us2[-1])
    times = np.linspace(0.0, 1.0, len(zs))
    return CoupledLifting(
        PolyPathC(zs, times), PolyPathS(np.asarray(us1), times), PolyPathS(np.asarray(us2), times)
    )


def ccl_search(
    domain: Domain,
    x: Octonion,
    xp: Octonion,
    plan: Optional[SamplePlan] = None,
    subsphere: Optional[Subsphere] = None,
) -> SearchResult:
    """Search for a coupled-lifting witness that x and x' are CCL related.

    Tries, in order: the trivial witness, a constant-base unit path, a
    detour through a real anchor, and breadth first search on the sampled
    fiber product.  Every witness is re-verified before it is returned.
    """
    plan = plan or SamplePlan()
    subsphere = subsphere or Subsphere.default()
    if not (domain.contains(x) and domain.contains(xp)):
        raise DomainError("both query points must lie in the domain")
    a1, b1 = x.re, x.im_norm
    a2, b2 = xp.re, xp.im_norm
    if abs(a1 - a2) > 1e-9 or abs(b1 - b2) > 1e-9:
        return SearchResult("not-equivalent", None, 0, "slice projections differ")
    z = complex(a1, b1)

    def finish(witness, nodes, detail):
        ok, info = ccl_verify(witness, x, xp, domain)
        if ok:
            return SearchResult("found", witness, nodes, detail)
        return None

    if (x - xp).norm() <= 1e-9:
        u = unit_imaginary_of(x).vec if b1 > 1e-9 else np.eye(7)[0]
        base = PolyPathC([z, z])
        witness = CoupledLifting(base, _constant_path(u), _constant_path(u))
        got = finish(witness, 0, "identical points")
        if got:
            return got
    u1 = unit_imaginary_of(x).vec
    u2 = unit_imaginary_of(xp).vec

    units2 = _unit_path_in_domain(domain, z, u1, u2)
    if units2 is not None:
        base = PolyPathC([z, z])
        stretched = PolyPathS(units2.vertices, np.linspace(0.0, 1.0, len(units2.vertices)))
        witness = CoupledLifting(base, _constant_path(u1), stretched)
        got = finish(witness, 0, "constant-base unit path")
        if got:
            return got

    anchored = _real_anchor(domain, z, u1, u2)
    if anchored is not None:
        got = finish(anchored, 0, "real anchor recoupling")
        if got:
            return got

    if not (subsphere.contains(u1) and subsphere.contains(u2)):
        return SearchResult(
            "budget-exhausted", None, 0, "query units leave the sampling subsphere"
        )
    search = _FiberSearch(domain, plan, subsphere, z, u1, u2)
    status, nodes, pops = search.run()
    if status == "found":
        witness = _witness_from_nodes(search, nodes, x, xp)
        got = finish(witness, pops, "fiber-product search")
        if got:
            return got
        return SearchResult("unverified", None, pops, "witness failed re-verification")
    return SearchResult(status, None, pops, "fiber-product search")


@dataclass
class TransportResult:
    stem_x: StemVector
    stem_xp: StemVector
    deviation: float


def stem_transport(
    f: OctField,
    witness: CoupledLifting,
    domain: Optional[Domain] = None,
    scheme: FDScheme = DEFAULT_SCHEME,
    use_closed: bool = True,
) -> TransportResult:
    """Local stems at the two ends of a coupled witness, and their gap.

    For a slice-regular field, CCL-related points over one base point carry
    the same stem vector; the deviation reports how far the two ends differ.
    """
    x = witness.lifting(1).eval(1.0)
    xp = witness.lifting(2).eval(1.0)
    if x.im_norm <= 1e-9:
        s = StemVector(f.evaluate(x), Octonion.zero())
        sp = StemVector(f.evaluate(xp), Octonion.zero())
    else:
        s = stem_from_gamma(f, x, scheme, use_closed)
        sp = stem_from_gamma(f, xp, scheme, use_closed)
    dev = max((s.u - sp.u).norm(), (s.v - sp.v).norm())
    return TransportResult(s, sp, dev)
