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

`ccl_verify` re-checks a witness at `linspace(0, 1, resolution)` (2048
times by default, cached read-only per resolution; a base with more than
two vertices adds its vertex times), so it tests at most 2 x 2048 rows per
witness.  A lifting over a two-vertex base whose unit is fixed, or whose
base is still and unit vertices sit at knots, is cut into 16 pieces
(`_cut_liftings`).  One kernel, `_pieces_inside`, decides cut liftings for
`ccl_verify`, `lift_in_domain`, the unit paths of the direct
constructions and the merge-record replays of `quotient`: in blocks of
bounded rows, one `Domain.legs_inside` call each, so certified pieces are
not evaluated and the other rows keep the bits of a full evaluation.  Any
other lifting has no certificate, and its rows go straight to
`contains_batch`.  The spokes of a real anchor are z legs, decided with
`legs_inside` too.
"""

from __future__ import annotations

import functools
from collections import deque
from dataclasses import dataclass
from typing import Optional

import numpy as np
from .algebra import Octonion, UnitImaginary, row_norms, tau_rows, unit_imaginary_of
from .diffops import OctField
from .domains import Domain
from .errors import DomainError, PreconditionError
from . import sampling
from .sampling import SamplePlan, SlicePairGrid, arc_sags, in_subsphere, json_reals, z_legs
from .stems import StemVector, gamma_stem_rows

_ANTIPODAL_TOL = 1e-6
# How far a witness's two starts and its ends at x and x' may miss.
_END_TOL = 1e-9
# Upper limit on the samples of `lift_decompose`, which holds a few
# (samples, 8) arrays at once (about 0.4 GB at the limit), and of a witness
# check (`_sample_times`), whose uncut liftings peak near 288 B per sample
# (0.29 GB at the limit); a larger resolution is refused before anything
# is allocated.
MAX_LIFT_SAMPLES = 1_000_000
# Knots that split a lifting into pieces for `Domain.deep_legs`.
_PIECES = 16
_KNOTS = np.linspace(0.0, 1.0, _PIECES + 1)
_KNOTS.flags.writeable = False
# Sample times of each unit path that `_unit_path_in_domain` tries.
_UNIT_PATH_SAMPLES = 512
# Counts kept by each cache of `_even_times`, `_piece_bounds` and
# `_piece_rows`, the least recently used dropped first.  A round of the
# benchmark's witness workload asks for at most 10 (its paths' vertex
# counts and its checks' sample counts; `cache_info()` at seeds 1, 2, 3, 7
# and 11), a quotient round for 2.  At `MAX_LIFT_SAMPLES` an array is 8 MB,
# so the times cached stay under 0.26 GB whatever counts are asked for.
_COUNT_CACHE = 32


@functools.lru_cache(maxsize=_COUNT_CACHE)
def _even_times(count: int) -> np.ndarray:
    """`linspace(0, 1, count)`, built once per count and read-only.

    It is the default times of a path with `count` vertices and the sample
    grid of witness checks, so paths and checks share one array per count
    while it stays in the cache.
    """
    times = np.linspace(0.0, 1.0, count)
    times.flags.writeable = False
    return times


def _path_times(times, count: int) -> np.ndarray:
    """Validated vertex times, or the even times when none are given."""
    return _even_times(count) if times is None else _check_times(times, count)


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


def _base_at(times: np.ndarray, vertices: np.ndarray, ts) -> np.ndarray:
    """A piecewise-linear complex path (vertex times, vertices) at the times ts."""
    ts = np.asarray(ts, dtype=float)
    re = np.interp(ts, times, vertices.real)
    im = np.interp(ts, times, vertices.imag)
    return re + 1j * im


def _segment_at(z0, z1, ts) -> np.ndarray:
    """`_base_at` of the two-vertex bases from z0 to z1 at the times ts in [0, 1].

    z0, z1 and ts broadcast against each other.  The result equals
    `np.interp` over the vertex times [0, 1] to the bit: time 0 gives the
    start, time 1 the end, and any other time t gives (end - start) t +
    start, real and imaginary parts apart.
    """
    # real and imaginary parts on a first axis
    a = np.array([z0.real, z0.imag])
    b = np.array([z1.real, z1.imag])
    parts = np.where(ts <= 0.0, a, np.where(ts >= 1.0, b, (b - a) * ts + a))
    return parts[0] + 1j * parts[1]


def _units_at(times, vertices, ts, paths=None) -> np.ndarray:
    """Unit paths at the times ts in [0, 1].

    The paths share their vertex times.  Without `paths`, every path of
    vertices (..., n, 7) is taken at every time: (..., m, 7).  With them,
    row k is path paths[k] of vertices (p, n, 7) at time ts[k]: (m, 7).
    """
    if len(times) == 2:
        # times [0, 1]: the chord parameter is the time itself
        s = ts[:, None]
        if paths is None:
            lo, hi = vertices[..., :1, :], vertices[..., 1:, :]
        else:
            lo, hi = vertices[paths, 0], vertices[paths, 1]
    else:
        idx = np.minimum(np.maximum(np.searchsorted(times, ts, side="right") - 1, 0), len(times) - 2)
        t0, t1 = times[idx], times[idx + 1]
        s = ((ts - t0) / (t1 - t0))[:, None]
        if paths is None:
            lo, hi = np.take(vertices, idx, axis=-2), np.take(vertices, idx + 1, axis=-2)
        else:
            lo, hi = vertices[paths, idx], vertices[paths, idx + 1]
    pts = lo * (1.0 - s)
    pts += hi * s
    pts /= row_norms(pts)[..., None]
    return pts


class PolyPathC:
    """Piecewise-linear path in the complex plane."""

    def __init__(self, vertices, times=None):
        self.vertices = np.asarray(vertices, dtype=complex)
        if self.vertices.ndim != 1 or len(self.vertices) < 2:
            raise PreconditionError("need at least two vertices")
        self.times = _path_times(times, len(self.vertices))

    def eval_many(self, ts) -> np.ndarray:
        return _base_at(self.times, self.vertices, ts)

    def eval(self, t: float) -> complex:
        return complex(self.eval_many([t])[0])

    def to_json(self) -> dict:
        return {
            "times": self.times.tolist(),
            "vertices": [[float(v.real), float(v.imag)] for v in self.vertices],
        }

    @classmethod
    def from_json(cls, data: dict) -> "PolyPathC":
        """The path of a JSON object: vertices as [re, im] pairs; every number finite."""
        verts = [complex(a, b) for a, b in json_reals(data["vertices"], (None, 2), "base path vertices")]
        return cls(verts, json_reals(data["times"], (None,), "base path times"))


class PolyPathS:
    """Piecewise path of imaginary units, interpolated chordally and renormalized."""

    def __init__(self, vertices, times=None):
        verts = np.asarray(vertices, dtype=float)
        if verts.ndim != 2 or verts.shape[1] != 7 or len(verts) < 2:
            raise PreconditionError("need an (n, 7) array of at least two unit vectors")
        norms = row_norms(verts)
        if np.any(np.abs(norms - 1.0) > 1e-9):
            raise PreconditionError("unit path vertices must have norm 1")
        self.vertices = verts / norms[:, None]
        gaps = row_norms(self.vertices[1:] + self.vertices[:-1])
        if np.any(gaps < _ANTIPODAL_TOL):
            raise PreconditionError("adjacent unit vertices are antipodal; insert a waypoint")
        self.times = _path_times(times, len(self.vertices))

    def eval_many(self, ts) -> np.ndarray:
        return _units_at(self.times, self.vertices, np.clip(np.asarray(ts, dtype=float), 0.0, 1.0))

    def eval(self, t: float) -> UnitImaginary:
        return UnitImaginary(self.eval_many([t])[0])

    def to_json(self) -> dict:
        return {"times": self.times.tolist(), "vertices": self.vertices.tolist()}

    @classmethod
    def from_json(cls, data: dict) -> "PolyPathS":
        """The path of a JSON object: 7-vector vertices; every number finite."""
        return cls(
            json_reals(data["vertices"], (None, 7), "unit path vertices"),
            json_reals(data["times"], (None,), "unit path times"),
        )


class PolyPathO:
    """Piecewise-linear path in octonion space."""

    def __init__(self, vertices, times=None):
        verts = [v.coeffs if isinstance(v, Octonion) else np.asarray(v, dtype=float) for v in vertices]
        self.vertices = np.asarray(verts, dtype=float)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 8 or len(self.vertices) < 2:
            raise PreconditionError("need an (n, 8) array of at least two vertices")
        self.times = _path_times(times, len(self.vertices))

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
        """The path of a JSON object: 8-vector vertices; every number finite."""
        return cls(
            json_reals(data["vertices"], (None, 8), "space path vertices"),
            json_reals(data["times"], (None,), "space path times"),
        )


@dataclass
class CircularLifting:
    """The space path t -> tau_{units(t)}(base(t))."""

    base: PolyPathC
    units: PolyPathS

    def eval_many(self, ts) -> np.ndarray:
        z = self.base.eval_many(ts)
        return tau_rows(z.real, z.imag, self.units.eval_many(ts))

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
    exactly on the decomposition at the sample times.  `samples` is a
    positive integer up to MAX_LIFT_SAMPLES.
    """
    if isinstance(samples, bool) or not isinstance(samples, (int, np.integer)) or samples < 1:
        raise PreconditionError(f"lift samples must be a positive integer, got {samples!r}")
    if samples > MAX_LIFT_SAMPLES:
        raise PreconditionError(f"{samples} lift samples are over the limit {MAX_LIFT_SAMPLES}")
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
    endpoint errors.  The decomposition takes `samples`, by default
    max(10 000, 100 x the vertex count), within the bounds of `lift_decompose`.
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
    resolution = max(10_000, 100 * len(verts)) if samples is None else samples
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


def _sample_times(base_times: np.ndarray, resolution: int) -> np.ndarray:
    """Sample times of a witness check: `resolution` even times and the base's vertex times.

    A two-vertex base has times [0, 1], which the even grid holds already.
    A resolution below 3 leaves no interior sample, so it is refused: such a
    check would test only the base's vertices.  So is one above
    `MAX_LIFT_SAMPLES`, before anything is allocated.
    """
    if not isinstance(resolution, (int, np.integer)) or resolution < 3:
        raise PreconditionError(f"a witness check needs a resolution of at least 3, got {resolution!r}")
    if resolution > MAX_LIFT_SAMPLES:
        raise PreconditionError(f"a witness check of {resolution} samples is over the limit {MAX_LIFT_SAMPLES}")
    grid = _even_times(int(resolution))
    return grid if len(base_times) == 2 else np.union1d(base_times, grid)


@functools.lru_cache(maxsize=_COUNT_CACHE)
def _piece_bounds(count: int) -> np.ndarray:
    """Where each piece's run of `_even_times(count)` starts, and `count` last, as (17,).

    A time t lies in the piece between knots j and j + 1 for j = floor(16 t),
    the last piece also holding t = 1.
    """
    pieces = np.minimum((_even_times(count) * _PIECES).astype(np.intp), _PIECES - 1)
    bounds = np.searchsorted(pieces, np.arange(_PIECES + 1))
    bounds.flags.writeable = False
    return bounds


@functools.lru_cache(maxsize=_COUNT_CACHE)
def _piece_rows(count: int) -> int:
    """The most of `_even_times(count)` that one piece holds."""
    return int(np.diff(_piece_bounds(count)).max())


def _fixed_units(times, vertices) -> np.ndarray:
    """Whether each unit path of (times, vertices (p, n, 7)) is two equal vertices, as bool[p]."""
    return (len(times) == 2) & (vertices[:, 0] == vertices[:, 1]).all(axis=-1)


@functools.lru_cache(maxsize=16)
def _knot_segments(times: bytes) -> tuple[np.ndarray, np.ndarray]:
    """The knot at each vertex time of a unit path (its times as bytes), and the segment that holds each piece.

    Cut liftings have vertex times at knots, and few such time sets are in
    use at once: times [0, 1] by far the most.
    """
    at = np.rint(np.frombuffer(times) * _PIECES).astype(np.intp)
    return at, np.searchsorted(at, np.arange(_PIECES), side="right") - 1


def _cut_liftings(z0, z1, times, vertices) -> tuple:
    """The `_PIECES` legs of liftings over two-vertex bases, as `Domain.legs_inside` takes them.

    Lifting k runs over the base from z0[k] to z1[k] with the unit path
    (times, vertices[k]) (vertices (p, n, 7), the times shared).  Its unit
    is fixed (`_fixed_units`), or its base is still and its unit vertices
    sit at `_KNOTS`.  Leg `_PIECES` k + j is its piece between knots j and
    j + 1: a segment with sag 0 when the unit is fixed, otherwise an arc
    with its `arc_sags`, and none on a unit segment past a quarter turn.
    Returns (knots (p, 17, 8), sag, rows): `rows(ids, count)` gives the
    rows at the `_even_times(count)` the pieces `ids` hold, leg by leg, and
    the rows per leg.  Every row equals, to the bit, the lifting's row at
    its time.
    """
    z = _segment_at(z0[:, None], z1[:, None], _KNOTS)
    w = _units_at(times, vertices, _KNOTS)
    knots = tau_rows(z.real, z.imag, w)
    # the chords of the unit path's segments, then of its pieces; no sag on
    # the pieces of a segment past a quarter turn
    at, seg = _knot_segments(times.tobytes())
    chords = np.concatenate([w[:, at[1:]] - w[:, at[:-1]], w[:, 1:] - w[:, :-1]], axis=1)
    sags = arc_sags(z0.imag[:, None], chords)
    whole, sag = sags[:, : len(at) - 1], sags[:, len(at) - 1 :]
    sag[np.isnan(whole[:, seg])] = np.nan
    sag[_fixed_units(times, vertices)] = 0.0

    def rows(ids, count):
        path, piece = np.divmod(ids, _PIECES)
        bounds = _piece_bounds(count)
        sizes = bounds[piece + 1] - bounds[piece]
        # each row's time, the pieces' runs one after another, and its lifting
        pos = np.arange(sizes.sum()) + np.repeat(bounds[piece] - (np.cumsum(sizes) - sizes), sizes)
        ts = _even_times(count)[pos]
        which = np.repeat(path, sizes)
        zs = _segment_at(z0[which], z1[which], ts)
        return tau_rows(zs.real, zs.imag, _units_at(times, vertices, ts, which)), sizes

    return knots, sag.reshape(-1), rows


def _pieces_inside(domain: Domain, z0, z1, times, verts, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Whether each cut lifting stays inside at `_even_times(count)`, and its rows at t = 0, 1.

    Lifting k runs from z0[k] to z1[k] with the unit path (times,
    verts[k]), as `_cut_liftings` takes them.  Its pieces are decided in
    blocks of at most `sampling._GRID_ROWS` sample rows, one
    `Domain.legs_inside` call each; a block may straddle liftings, and its
    legs are built for its own liftings only.  The end rows are the first
    and last knots, to the bit the rows of the samples at t = 0 and 1.
    """
    n = len(verts) * _PIECES
    size = max(1, sampling._GRID_ROWS // _piece_rows(count))
    inside = np.empty(n, dtype=bool)
    ends = np.empty((len(verts), 2, 8))
    for g0 in range(0, n, size):
        g1 = min(g0 + size, n)
        l0, l1 = g0 // _PIECES, -(-g1 // _PIECES)
        knots, sag, rows = _cut_liftings(z0[l0:l1], z1[l0:l1], times, verts[l0:l1])
        ends[l0:l1] = knots[:, [0, -1]]
        lo, hi = g0 - l0 * _PIECES, g1 - l0 * _PIECES
        inside[g0:g1] = domain.legs_inside(
            knots[:, :-1].reshape(-1, 8)[lo:hi],
            knots[:, 1:].reshape(-1, 8)[lo:hi],
            sag[lo:hi],
            lambda ids, lo=lo: rows(ids + lo, count),
        )
    return inside.reshape(-1, _PIECES).all(axis=1), ends


def _liftings_inside(domain: Domain, base, paths: list, resolution: int) -> tuple[np.ndarray, np.ndarray]:
    """Whether each lifting of one base stays inside at `_sample_times`, and its rows at t = 0, 1.

    Paths are (vertex times, vertices).  Over a two-vertex base, a lifting
    whose unit is fixed, or whose base is still and unit vertices sit at
    knots (arcs), is cut: `_pieces_inside` decides the liftings of each set
    of unit times in one call.  The other liftings have no certificate;
    their rows all go into one `contains_batch` call.
    """
    times, verts = base
    ts = _sample_times(times, resolution)
    still = len(verts) == 2 and verts[0] == verts[1]
    inside = np.empty(len(paths), dtype=bool)
    ends = np.empty((len(paths), 2, 8))
    cut, rest = {}, []
    for k, (t, v) in enumerate(paths):
        at_knots = still and np.array_equal(np.floor(t * _PIECES), t * _PIECES)
        if len(verts) == 2 and (at_knots or _fixed_units(t, v[None])[0]):
            cut.setdefault(t.tobytes(), []).append(k)
        else:
            rest.append(k)
    for ids in cut.values():
        z0, z1 = np.full(len(ids), verts[0]), np.full(len(ids), verts[1])
        unit_verts = np.stack([paths[k][1] for k in ids])
        inside[ids], ends[ids] = _pieces_inside(domain, z0, z1, paths[ids[0]][0], unit_verts, len(ts))
    if rest:
        z = _base_at(times, verts, ts)
        pts = np.stack([tau_rows(z.real, z.imag, _units_at(*paths[k], ts)) for k in rest])
        inside[rest] = domain.contains_batch(pts.reshape(-1, 8)).reshape(len(rest), -1).all(axis=1)
        ends[rest] = pts[:, [0, -1]]
    return inside, ends


def lift_in_domain(lifting: CircularLifting, domain: Domain, resolution: int = 2048) -> bool:
    """Whether the lifting's points at `_sample_times` all lie in the domain.

    A cut lifting's pieces that one ball certifies are not sampled
    (`_pieces_inside`); an uncut lifting's rows are all tested.  See
    `_liftings_inside`.
    """
    base, units = lifting.base, lifting.units
    paths = [(units.times, units.vertices)]
    inside, _ = _liftings_inside(domain, (base.times, base.vertices), paths, resolution)
    return bool(inside[0])


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
) -> tuple[bool, dict]:
    """Re-check a coupled witness: common start, ends within `_END_TOL`, both inside.

    Both liftings are sampled at `_sample_times` (2048 even times by
    default), less the pieces that one ball certifies (`_liftings_inside`):
    cut liftings with equal unit times share one `_pieces_inside` call, and
    the rows of uncut ones one `contains_batch` call.  The gaps come from
    the end rows.
    """
    base = (witness.base.times, witness.base.vertices)
    paths = [(p.times, p.vertices) for p in (witness.units1, witness.units2)]
    inside, ((s1, e1), (s2, e2)) = _liftings_inside(domain, base, paths, resolution)
    detail = {
        "start_gap": float(np.linalg.norm(s1 - s2)),
        "end1_error": float(np.linalg.norm(e1 - x.coeffs)),
        "end2_error": float(np.linalg.norm(e2 - xp.coeffs)),
        "in_domain1": bool(inside[0]),
        "in_domain2": bool(inside[1]),
    }
    ok = (
        detail["start_gap"] <= _END_TOL
        and detail["end1_error"] <= _END_TOL
        and detail["end2_error"] <= _END_TOL
        and detail["in_domain1"]
        and detail["in_domain2"]
    )
    return ok, detail


def _constant_path(value: np.ndarray) -> PolyPathS:
    return PolyPathS(np.vstack([value, value]))


def _unit_path_in_domain(
    domain: Domain, z: complex, u1: np.ndarray, u2: np.ndarray
) -> Optional[PolyPathS]:
    """Unit polyline from u1 to u2 whose slice points at z stay in the domain.

    The direct path [u1, u2], tried when |u1 + u2| >= 0.5, is decided
    alone first.  Only when it fails (or is not tried) are the paths
    through an orthogonal waypoint built, one per basis vector whose part
    orthogonal to u1 has norm at least 0.3; all of them are decided in one
    `_liftings_inside` call, and the first that stays inside, in that
    order, is returned.  Each path is checked at `_UNIT_PATH_SAMPLES`
    times.
    """
    base = (_even_times(2), np.array([z, z]))

    def first_inside(candidates):
        paths = []
        for verts in candidates:
            try:
                paths.append(PolyPathS(verts))
            except PreconditionError:
                continue
        if paths:
            inside, _ = _liftings_inside(domain, base, [(p.times, p.vertices) for p in paths], _UNIT_PATH_SAMPLES)
            for units, ok in zip(paths, inside):
                if ok:
                    return units
        return None

    if np.linalg.norm(u1 + u2) >= 0.5:
        direct = first_inside([np.vstack([u1, u2])])
        if direct is not None:
            return direct
    # antipodal or nearly so, or the direct arc leaves: route through an orthogonal waypoint
    waypoints = []
    for k in range(7):
        w = np.zeros(7)
        w[k] = 1.0
        w = w - (w @ u1) * u1
        n = np.linalg.norm(w)
        if n >= 0.3:
            waypoints.append(np.vstack([u1, w / n, u2]))
    return first_inside(waypoints)


def _real_anchor(domain: Domain, z: complex, u1: np.ndarray, u2: np.ndarray) -> Optional[CoupledLifting]:
    """Witness through a real point: both liftings travel to it, recouple, return."""
    lo, hi = domain.bounding_box()
    alphas = np.concatenate([[z.real], np.linspace(lo[0], hi[0], 33)])
    ok = domain.contains_batch(tau_rows(alphas, 0.0, np.zeros(7)))
    units = np.stack([u1, u2])
    for alpha in alphas[ok]:
        # spokes tau_{uk}((1-s) z + s alpha) for both units, straight legs to the real point
        if domain.legs_inside(*z_legs(z, complex(alpha, 0.0), units, _even_times(256))).all():
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
    """Breadth-first search on the sampled fiber product of a domain.

    Nodes are (column, unit, unit) on a SlicePairGrid holding the query
    units and column; a node at a real column or with equal units couples.
    """

    def __init__(self, domain, plan, z, u1, u2):
        self.plan = plan
        self.grid = SlicePairGrid(domain, plan, query=(z, np.vstack([u1, u2])))
        self.i1 = len(self.grid.units) - 2
        self.i2 = len(self.grid.units) - 1
        # each unit's (neighbour, edge) pairs, in edge order
        self.adj: list[list[tuple[int, int]]] = [[] for _ in self.grid.units]
        for eidx, (a, b) in enumerate(self.grid.edges.tolist()):
            self.adj[a].append((b, eidx))
            self.adj[b].append((a, eidx))

    def run(self) -> tuple[str, Optional[list], int]:
        grid = self.grid
        start = (grid.query_col, self.i1, self.i2)
        mem = grid.members(grid.query_col)
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
            if i == j or grid.is_real_col(col):
                return "found", self._walk_back(parents, node), pops
            arcs = grid.arc_mask(col)
            for k, eidx in self.adj[i]:
                if arcs[eidx]:
                    if k == j:
                        # one unit slide away from the diagonal: finish it
                        final = (col, i, i)
                        parents.setdefault(final, node)
                        return "found", self._walk_back(parents, final), pops
                    nxt = (col, k, j)
                    if nxt not in parents:
                        parents[nxt] = node
                        queue.append(nxt)
            for k, eidx in self.adj[j]:
                if arcs[eidx]:
                    nxt = (col, i, k)
                    if nxt not in parents:
                        parents[nxt] = node
                        queue.append(nxt)
            # the moves to every neighbour, decided in one call on the column's first pop
            nbs = list(grid.neighbors(col))
            for col2, move in zip(nbs, grid.move_masks([(col, nb) for nb in nbs])):
                if move[i] and move[j]:
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


def _witness_from_nodes(grid: SlicePairGrid, nodes: list, x: Octonion, xp: Octonion) -> CoupledLifting:
    zs = [grid.z_of(col) for col, _, _ in nodes]
    us1 = [grid.units[i] for _, i, _ in nodes]
    us2 = [grid.units[j] for _, _, j in nodes]
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
) -> SearchResult:
    """Search for a coupled-lifting witness that x and x' are CCL related.

    Tries, in order: the trivial witness, a constant-base unit path, a
    detour through a real anchor, and breadth first search on the sampled
    fiber product.  Every witness is re-verified before it is returned.
    """
    plan = plan or SamplePlan()
    if not (domain.contains(x) and domain.contains(xp)):
        raise DomainError("both query points must lie in the domain")
    a1, b1 = x.re, x.im_norm
    a2, b2 = xp.re, xp.im_norm
    if abs(a1 - a2) > 1e-9 or abs(b1 - b2) > 1e-9:
        return SearchResult("not-equivalent", None, 0, "slice projections differ")
    z = complex(a1, b1)

    def finish(witness, nodes, detail):
        if ccl_verify(witness, x, xp, domain)[0]:
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

    if not (in_subsphere(u1) and in_subsphere(u2)):
        return SearchResult(
            "budget-exhausted", None, 0, "query units leave the sampling subsphere"
        )
    search = _FiberSearch(domain, plan, z, u1, u2)
    status, nodes, pops = search.run()
    if status == "found":
        witness = _witness_from_nodes(search.grid, nodes, x, xp)
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


def stem_transport(f: OctField, witness: CoupledLifting) -> TransportResult:
    """Local stems at the two ends of a coupled witness, and their gap.

    For a slice-regular field, CCL-related points over one base point carry
    the same stem vector; the deviation reports how far the two ends differ.
    """
    x = witness.lifting(1).eval(1.0)
    pts = np.stack([x.coeffs, witness.lifting(2).eval(1.0).coeffs])
    if x.im_norm <= 1e-9:
        us, vs = f.evaluate_many(pts), np.zeros((2, 8))
    else:
        us, vs = gamma_stem_rows(f, pts)
    s, sp = (StemVector(Octonion(u), Octonion(v)) for u, v in zip(us, vs))
    dev = max((s.u - sp.u).norm(), (s.v - sp.v).norm())
    return TransportResult(s, sp, dev)
