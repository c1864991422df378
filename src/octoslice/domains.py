"""Octonion domains: membership, leg certificates and interior sampling.

A domain is an open subset of 8-space.  Every variant provides exact
membership, a vectorized batch form, leg certificates and interior
sampling.  The slice sphere S(Omega, a, b) of a domain collects the unit
imaginaries I with a + b I inside.  Whether two of its units lie in one
piece is a question about liftings, so it is answered by the quotient,
whose arcs between units are checked legs (`sampling.SlicePairGrid`),
never from sampled points alone.

Membership kernels.  `Ball` and `BallUnion` share one kernel,
`balls_contain`, whose verdicts equal to the bit those of the per-ball test
`row_norms(p - c) < r` on every input.  It works in blocks of `_BALL_BLOCK`
rows, so its temporaries are (block, balls) arrays whatever the batch size.
For each block one `(block, 8) @ (8, balls)` product gives the approximate
squared distance A = |p|^2 - 2 <p, c> + |c|^2 to every centre, and a pair
takes its verdict from the sign of A - r^2 unless |A - r^2| lies within the
band 2^-39 (|p|^2 + |c|^2 + r^2) + 2^-1000.  With u = 2^-53, A - r^2 is
within 24 u (|p|^2 + |c|^2 + r^2) of D - r^2, D = |p - c|^2, in any
summation order and with or without fused multiply-adds; the per-ball test
rounds D by at most 6 u D and its square root by u more, so it gives the
true verdict D < r^2 whenever |D - r^2| > 10 u r^2.  Underflow adds
absolute errors near 2^-1070.  The band is more than 600 times the first
bound and 1600 times the second, so outside it the sign of A - r^2 is the
per-ball test's verdict.  Pairs inside the band (points within about
1e-12 relative of a sphere) are recomputed by the per-ball test itself,
and so are rows with |p|^2 and balls with |c|^2 + r^2 above 2^900 (or not
finite), where A could overflow.  `algebra.row_norms` gives the norms of
the per-ball test and of `SlabCone` (|Im x|); it sums in the order of
`np.linalg.norm` in the pinned numpy 2.4.6.  `SlabCone`'s cone test uses
`algebra.row_dot`, so no verdict depends on the batch a point is in; a
finite row whose |Im x| overflows takes it on Im x scaled to a largest
|coordinate| of 1, as the cones do not depend on scale.

Interior sampling.  `Domain.sample_interior` stops testing proposals once
it has enough, and on its margin-0 path it does not test the rows that
`_propose` marks held; its docstring says why the points it keeps do not
change.  `Ball`, `BallUnion` and `BallChain` draw each proposal in one
ball: p = c + g r, with g = n / |n| for a normal draw n (finite, as
numpy's always are) and r = R U^(1/8) below the ball's radius R.  The row
is held when r + s < R and |n| >= 2^-500, where s = 2^-30 (|c| + R) +
2^-500 is the ball's `ball_slack`, the one its leg certificates use
(infinite when |c| + R passes 2^500 or is not finite).  A held row passes
`contains_batch`:

* Rounding.  With u = 2^-53, the norm of n rounds by 3 u relative, and
  underflow in its squares moves it by 2^-72 relative at most, as
  |n|^2 >= 2^-1000; so |g| <= 1 + 5 u.  Each coordinate of g r, of
  c + g r and of the test's p - c rounds once, by u of its size, or by
  2^-1075 where it underflows, so the computed d = p - c has
  |d| <= r + 12 u (|c| + R) + 2^-1073.  `row_norms(d)` adds 3 u relative,
  and at most 2^-535 from squares that underflow; no square overflows,
  since every coordinate of d is below 2^501.  So `row_norms(p - c)` <=
  r + 2^-49 (|c| + R) + 2^-535, which the rounded test r + s < R (within
  u R of the exact one) keeps below R: the per-ball test passes, and with
  it `balls_contain`, whose verdicts are that test's.
* The chain.  The exact |p - c| is below r + 2^-49 (|c| + R) too, so
  below R - 2^-31 (|c| + R) <= R (1 - 2^-31): the bound of the chain's
  tree below, under which cKDTree finds c, or a centre closer, at
  `dist < RADIUS`.

Leg checks.  A leg is every point within `sag` of a segment [p0, p1];
`Domain.legs_inside` decides every leg of the package, testing the sample
rows of the legs that `deep_legs` does not certify.  `deep_legs` returns
True only when every sample row of the leg passes the membership test, so
each verdict is that of testing all the rows.  A point leg (x, x, r) is
the closed ball of radius r around x: `sample_interior` keeps the points
whose ball of its margin is certified, and `diffops.stencil_safe` decides
the 16 stencil rows x +- 2h e_k as the point leg (x, x, 2h).  The default
certifies nothing, and so does `PredicateDomain`.  `Ball` and `BallUnion`
share `balls_hold_legs`, which certifies a leg when one ball has
max(d0, d1) + sag + s < r, with d0 and d1 the `row_norms(p - c)` of the
ends and the slack s = 2^-30 (max(|p0|, |p1|) + |c| + r) + 2^-500,
infinite when |c| + r passes 2^500.
`BallChain` makes the same test with the one ball whose centre its cKDTree
finds nearest the leg's midpoint.  `SlabCone` certifies a leg that the
slab or one cone holds (below).  Why the rows of a ball's leg are inside:

* Convexity.  The norm is convex, so every point q of the segment has
  |q - c| <= max(|p0 - c|, |p1 - c|), and every point within sag of it
  lies within that plus sag of c.
* Arc bulge.  At a fixed z = a + b i the slice points of the units on the
  shorter arc from u to u + du are a circle arc of radius |b| over the
  chord between its ends.  An arc of angle theta <= pi lies within
  |b| (1 - cos(theta/2)) of its chord, and with x = cos(theta/2) in
  [0, 1], 1 - x <= 1 - x^2 = sin^2(theta/2) = |du|^2 / 4.  So
  sag = |b| |du|^2 / 4 (`sampling.arc_sags`) covers the arc.
* Knot pieces.  A lifting over a two-vertex base is a segment when its
  unit is fixed.  When its base is fixed and every unit vertex sits at a
  knot, it is a chain of arcs as above, one per segment of its unit path.
  The 17 even knots cut it into 16 pieces, each a segment or a shorter arc
  of one unit segment, and a sample time in [k/16, (k+1)/16] lies on piece
  k because the renormalised chord moves monotonically along its arc.
* Rounding.  With u = 2^-53, each computed end, knot or sample row lies
  within a few tens of u (|p| + |c|) of its exact point: the products and
  sums that build it, the renormalisation of a chord of norm at least
  1/sqrt(2) (arcs of more than a quarter turn get no sag, so they are never
  certified), and a time that falls into the neighbouring piece near a
  knot all stay that small.  `row_norms` rounds by at most 5 u relative,
  the certificate's sums by 3 u more, and sag <= |b| / 2 <= |p|.  Together
  these stay below 2^-40 (|p| + |c| + r), a thousandth of the slack.
  Underflow moves a coordinate by 2^-1075 at most, and a `row_norms` by at
  most 2^-535 (8 subnormal squares each rounded by 2^-1075), far below the
  slack's floor 2^-500; no square overflows while |c| + r <= 2^500 and the
  ends are within r of c.  So every row of a certified leg has
  `row_norms(q - c) < r`, which is the verdict of `balls_contain`.  A
  NaN or infinity anywhere fails the
  comparison and certifies nothing.  The rows of a point leg are
  x +- 2h e_k, each coordinate rounded once, so within u (|x| + 2h) of an
  exact point of the leg, and 2h < r on a certified one.
* The chain's tree.  Any ball may be the one tested, so the nearest
  centre's certificate is sound whichever centre cKDTree returns.  A leg
  whose midpoint is not finite asks the first ball, and one whose
  midpoint is too far for a finite distance asks the last ball; the norms
  of both legs are NaN or infinite, so neither is certified.  A negative
  sag is no leg and certifies nothing.  A row of a certified leg
  has |q - c| < r (1 - 2^-31) for that centre c.  cKDTree compares squared
  distances summed in its own order, within 10 u relative of |q - c|^2,
  against r^2, and prunes a subtree only by a rectangle distance that is
  below |q - c|^2 up to the same rounding; so c, or a centre the tree finds
  closer, passes `dist < RADIUS`, which is the chain's membership test.

`SlabCone`'s certificate.  With y = Im x, M = max(|p0|, |p1|) and the slack
s = 2^-30 (M + 1):

* Slab.  |Im .| is a convex norm that does not exceed the 8-space
  distance, so every point of a leg has |Im q| <= max(|Im p0|, |Im p1|) +
  sag.  When that plus s is below 1, a computed row (within a few tens of
  u M of its exact point, and 5 u relative from `row_norms`) still has
  |Im q| < 1: the slab test passes.
* Cones.  For the cone around +i0 of half angle h <= pi/2, let
  f(y) = sin(h) <y, i0> - cos(h) |y - <y, i0> i0|.  By Cauchy-Schwarz f is
  1-Lipschitz, and it is concave (linear minus a norm), so on a leg it is
  at least min(f(p0), f(p1)) - sag; f(y) = |y| sin(h - angle(y, i0)), so
  f > 0 puts y inside the cone.  The certificate computes the component
  across i0 directly, not as sqrt(|y|^2 - <y, i0>^2), so f is computed to
  within tens of u M, and it certifies min(f(p0), f(p1)) > sag + s / sin(h/2).
  A computed row then has f(y) > 2^-31 (M + 1) / sin(h/2), and since
  cos(a) - cos(h) = 2 sin((h + a)/2) sin((h - a)/2) >= sin(h/2) sin(h - a),
  its angle a has cos(a) - cos(h) > 2^-31 (M + 1) / |y| > 2^-33.  The cone
  test |<y, i0>| / |y| > cos(h) rounds each side by less than 20 u, so it
  passes.  The other cone is the same with -i0.  The certificate runs
  under `np.errstate`: a NaN or infinity gives NaN or -inf and certifies
  nothing.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.spatial import cKDTree

from .algebra import REAL_AXIS_TOL, Octonion, UnitImaginary, row_dot, row_norms, tau_rows
from .errors import PreconditionError
from .sampling import json_count, json_reals

# Proposal rounds of `Domain.sample_interior`, each of max(4 need, 64) points.
_SAMPLE_ROUNDS = 200
# After its first block of `need` rows, a round tests blocks of this many
# times the points still missing.
_BLOCK_GROWTH = 2


class Domain:
    """Open subset of octonion space."""

    def contains(self, x: Octonion) -> bool:
        return bool(self.contains_batch(x.coeffs[None, :])[0])

    def contains_batch(self, pts: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def deep_legs(self, p0: np.ndarray, p1: np.ndarray, sag) -> np.ndarray:
        """Legs that provably stay inside, as bool[m].

        Leg k is every point within sag[k] of the segment [p0[k], p1[k]]
        (rows of two (m, 8) arrays).  True means that each sample row of the
        leg, rounding included, passes this domain's membership test; False
        means nothing.  The default certifies no leg.
        """
        return np.zeros(len(p0), dtype=bool)

    def legs_inside(self, p0: np.ndarray, p1: np.ndarray, sag, rows) -> np.ndarray:
        """Whether each leg stays inside, as bool[m].

        The legs are those of `deep_legs(p0, p1, sag)`.  `rows(ids)` gives
        the sample rows of the legs `ids` stacked leg by leg, and the rows
        per leg (or one count for all); the rows of the legs `deep_legs`
        does not certify go into one `contains_batch`.
        """
        inside = np.ones(len(p0), dtype=bool)
        ids = (~self.deep_legs(p0, p1, sag)).nonzero()[0]
        if len(ids):
            pts, counts = rows(ids)
            out = ~self.contains_batch(pts)
            inside[ids[np.repeat(np.arange(len(ids)), counts)[out]]] = False
        return inside

    def imaginary_data(self) -> np.ndarray:
        """The imaginary vectors the domain is built from, as (k, 7).

        A unit pool samples the sphere of span(e1, e2, e3), so it sees the
        slice spheres whole only when these lie in that span;
        `sampling.adaptive_unit_pool` refuses the domain otherwise.  The
        default states none, and is never refused.
        """
        return np.empty((0, 7))

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

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
    ) -> np.ndarray:
        """Up to n interior points, as (m, 8), from at most `_SAMPLE_ROUNDS` proposal rounds.

        A point is kept when |Im x| >= min_im and it is inside; with
        margin > 0, when `deep_legs` certifies the point leg (x, x, margin):
        the ball of that radius around it.  Each round proposes
        max(4 need, 64) points, drawn whole so that the generator's stream
        does not depend on how they are tested, and tests them in order, a
        block at a time, until `need` have passed: the first block is `need`
        rows, each later one `_BLOCK_GROWTH` times what is still missing.
        With margin 0, only the rows of a block that `_propose` did not mark
        held go to `contains_batch`: a held row passes it (module docstring,
        "Interior sampling").  Every verdict is decided row by row, so the
        points kept are those of testing every proposal, in the same order.
        """
        out = []
        need = n
        for _ in range(_SAMPLE_ROUNDS):
            cand, held = self._propose(max(4 * need, 64), rng)
            keep = row_norms(cand[:, 1:]) >= min_im
            cand, held = cand[keep], held[keep]
            start, block = 0, need
            while need > 0 and start < len(cand):
                rows = cand[start : start + block]
                if margin > 0.0:
                    ok = self.deep_legs(rows, rows, margin)
                else:
                    ok = held[start : start + len(rows)].copy()
                    if not ok.all():
                        ok[~ok] = self.contains_batch(rows[~ok])
                kept = rows[ok][:need]
                if len(kept):
                    out.append(kept)
                    need -= len(kept)
                start += len(rows)
                block = _BLOCK_GROWTH * need
            if need <= 0:
                break
        return np.vstack(out) if out else np.empty((0, 8))

    def _propose(self, n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        """n proposals (n, 8), and which of them are held: inside by construction, as bool[n].

        The default draws in the bounding box and holds none.
        """
        lo, hi = self.bounding_box()
        return rng.uniform(lo, hi, size=(n, 8)), np.zeros(n, dtype=bool)

    def to_json(self) -> dict:
        raise NotImplementedError

    @staticmethod
    def from_json(data: dict) -> "Domain":
        """The domain of a JSON object; every number must be a finite JSON number, `theta_steps` an integer."""
        if not isinstance(data, dict):
            raise PreconditionError(f"a domain is a JSON object, got {type(data).__name__}")
        kind = data.get("type")

        def ball(b: dict) -> Ball:
            center = json_reals(b["center"], (8,), "ball center")
            return Ball(Octonion(center), float(json_reals(b["radius"], (), "ball radius")))

        def unit(key: str) -> UnitImaginary:
            return UnitImaginary(json_reals(data[key], (7,), f"{kind} {key}"))

        if kind == "ball":
            return ball(data)
        if kind == "ball_union":
            return BallUnion([ball(b) for b in data["balls"]])
        if kind == "slab_cone":
            half_angle = json_reals(data.get("half_angle", math.pi / 4), (), "slab_cone half_angle")
            return SlabCone(unit("i0"), float(half_angle))
        if kind == "ball_chain":
            steps = json_count(data.get("theta_steps", 2048), "ball_chain theta_steps")
            return BallChain(unit("i"), unit("j"), theta_steps=steps)
        raise PreconditionError(f"unknown domain type {kind!r}")


# Rows per block of `balls_contain`.
_BALL_BLOCK = 4096
# The band of `balls_contain` around r^2: relative to |p|^2 + |c|^2 + r^2,
# plus an absolute floor that covers underflow.  Terms above _BAND_HUGE
# skip the approximation, so nothing in it can overflow.
_BAND_REL = 2.0**-39
_BAND_ABS = 2.0**-1000
_BAND_HUGE = 2.0**900
# Relative slack of `balls_hold_legs`, and its legs per block times balls,
# which bounds its (balls, 2 legs, 8) temporaries.
_LEG_SLACK = 2.0**-30
_LEG_CELLS = 2**13
# The absolute floor of `ball_slack`, which is also the least norm of a
# held proposal's normal draw, and the largest |c| + r it leaves finite.
_SLACK_ABS = 2.0**-500
_SLACK_HUGE = 2.0**500


# a NaN or infinite row makes a NaN gap or band, which the per-ball test decides
@np.errstate(invalid="ignore", over="ignore")
def balls_contain(pts: np.ndarray, centers: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """Whether each row of pts lies in at least one of the open balls.

    Equal to the bit to `any(row_norms(pts - c) < r for c, r in balls)`;
    the module docstring proves the band that makes it so.
    """
    pts = np.asarray(pts, dtype=float)
    out = np.zeros(len(pts), dtype=bool)
    # one row per ball, one column per point, so the "any ball" reduction
    # runs over the long axis
    cross = -2.0 * centers
    c2 = np.einsum("ij,ij->i", centers, centers)
    r2 = radii * radii
    offset = (c2 - r2)[:, None]
    scale = c2 + r2
    scale[~(scale <= _BAND_HUGE)] = np.inf
    band0 = (scale * _BAND_REL + _BAND_ABS)[:, None]
    for start in range(0, len(pts), _BALL_BLOCK):
        p = pts[start : start + _BALL_BLOCK]
        p2 = np.einsum("ij,ij->i", p, p)
        p2[~(p2 <= _BAND_HUGE)] = np.inf
        gap = cross @ p.T
        gap += p2
        gap += offset
        band = band0 + p2 * _BAND_REL
        hit = (gap < -band).any(axis=0)
        # an infinite band, or a NaN gap, leaves the pair unsure
        unsure = ~(np.abs(gap) > band)
        unsure &= ~hit
        if unsure.any():
            balls, rows = np.nonzero(unsure)
            inside = row_norms(p[rows] - centers[balls]) < radii[balls]
            hit[rows[inside]] = True
        out[start : start + len(p)] = hit
    return out


# a centre or radius too large for its squares gets an infinite slack
@np.errstate(over="ignore", invalid="ignore")
def ball_slack(centers: np.ndarray, radii) -> np.ndarray:
    """The balls' slack 2^-30 (|c| + r) + 2^-500, infinite past |c| + r = 2^500.

    It is each ball's term of the slack of `balls_hold_legs`, and the
    slack of its held proposals (module docstring, "Interior sampling").
    """
    size = row_norms(centers) + radii
    return np.where(size <= _SLACK_HUGE, size * _LEG_SLACK + _SLACK_ABS, np.inf)


def balls_hold_legs(
    p0: np.ndarray, p1: np.ndarray, sag, centers: np.ndarray, radii: np.ndarray, slack: np.ndarray
) -> np.ndarray:
    """Whether one open ball holds each leg with room to spare.

    Leg k is every point within sag[k] of the segment [p0[k], p1[k]].  It
    is certified when some ball has max(d0, d1) + sag + slack < r, with d0
    and d1 the `row_norms(p - c)` of its ends and slack
    2^-30 (max(|p0|, |p1|) + |c| + r) + 2^-500; a NaN anywhere certifies
    nothing.  `slack` holds each ball's part of it, `ball_slack(centers,
    radii)`, which a domain computes once, on its first leg check.  The module docstring proves
    that every sample row of a certified leg passes the per-ball test of
    that ball.
    """
    p0 = np.asarray(p0, dtype=float)
    p1 = np.asarray(p1, dtype=float)
    sag = _leg_sags(sag)
    out = np.empty(len(p0), dtype=bool)
    step = max(1, _LEG_CELLS // len(centers))
    for start in range(0, len(p0), step):
        block = slice(start, start + step)
        # one row per ball
        reach = _leg_reach(p0[block], p1[block], sag[block] if sag.ndim else sag, centers[:, None, :])
        reach += slack[:, None]
        out[block] = (reach < radii[:, None]).any(axis=0)
    return out


def _leg_sags(sag) -> np.ndarray:
    """The legs' sags; a negative sag becomes NaN, which certifies nothing."""
    sag = np.asarray(sag, dtype=float)
    return np.where(sag < 0.0, np.nan, sag)


def _leg_reach(p0: np.ndarray, p1: np.ndarray, sag, centers: np.ndarray) -> np.ndarray:
    """max(d0, d1) + sag + 2^-30 max(|p0|, |p1|), the leg's terms of `balls_hold_legs`.

    `centers` broadcasts against the stacked ends [p0; p1].
    """
    ends = np.concatenate([p0, p1])
    m = len(p0)
    dist = row_norms(ends - centers)
    size = row_norms(ends)
    reach = np.maximum(dist[..., :m], dist[..., m:])
    reach += sag
    reach += np.maximum(size[:m], size[m:]) * _LEG_SLACK
    return reach


# rows of a ball too large for floats overflow, and none of them is held
@np.errstate(over="ignore", invalid="ignore")
def _ball_points(center, radius, n: int, rng: np.random.Generator, slack) -> tuple[np.ndarray, np.ndarray]:
    """n points drawn in the ball (or balls, per row), and which of them are held.

    A row is held when its radius r has r + slack < radius and its normal
    draw a norm of at least 2^-500 (module docstring, "Interior sampling").
    """
    g = rng.normal(size=(n, 8))
    norms = row_norms(g)
    g /= norms[:, None]
    r = radius * rng.uniform(size=(n, 1)) ** (1.0 / 8.0)
    return center + g * r, (r[:, 0] + slack < radius) & (norms >= _SLACK_ABS)


class Ball(Domain):
    """Open euclidean ball."""

    def __init__(self, center: Octonion, radius: float) -> None:
        if radius <= 0:
            raise PreconditionError("ball radius must be positive")
        self.center = center
        self.radius = float(radius)
        self._centers = center.coeffs[None, :]
        self._radii = np.array([self.radius])

    @cached_property
    def _slack(self) -> np.ndarray:
        # on the first leg check or proposals: a domain built for a query may make neither
        return ball_slack(self._centers, self._radii)

    def contains_batch(self, pts: np.ndarray) -> np.ndarray:
        return balls_contain(pts, self._centers, self._radii)

    def deep_legs(self, p0: np.ndarray, p1: np.ndarray, sag) -> np.ndarray:
        return balls_hold_legs(p0, p1, sag, self._centers, self._radii, self._slack)

    def imaginary_data(self) -> np.ndarray:
        return self._centers[:, 1:]

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        c = self.center.coeffs
        return c - self.radius, c + self.radius

    def z_window(self) -> tuple[float, float, float]:
        c = self.center.coeffs
        im_norm = float(np.linalg.norm(c[1:]))
        return c[0] - self.radius, c[0] + self.radius, im_norm + self.radius

    def _propose(self, n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        return _ball_points(self.center.coeffs, self.radius, n, rng, self._slack[0])

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
        self._centers = np.stack([b.center.coeffs for b in self.balls])
        self._radii = np.array([b.radius for b in self.balls])

    @cached_property
    def _slack(self) -> np.ndarray:
        # on the first leg check or proposals: a domain built for a query may make neither
        return ball_slack(self._centers, self._radii)

    def contains_batch(self, pts: np.ndarray) -> np.ndarray:
        return balls_contain(pts, self._centers, self._radii)

    def deep_legs(self, p0: np.ndarray, p1: np.ndarray, sag) -> np.ndarray:
        return balls_hold_legs(p0, p1, sag, self._centers, self._radii, self._slack)

    def imaginary_data(self) -> np.ndarray:
        return self._centers[:, 1:]

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        los, his = zip(*(b.bounding_box() for b in self.balls))
        return np.min(los, axis=0), np.max(his, axis=0)

    def z_window(self) -> tuple[float, float, float]:
        windows = [b.z_window() for b in self.balls]
        return (
            min(w[0] for w in windows),
            max(w[1] for w in windows),
            max(w[2] for w in windows),
        )

    def _propose(self, n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        idx = rng.integers(0, len(self.balls), size=n)
        out = np.empty((n, 8))
        held = np.empty(n, dtype=bool)
        for k, ball in enumerate(self.balls):
            sel = idx == k
            if sel.any():
                out[sel], held[sel] = _ball_points(ball.center.coeffs, ball.radius, int(sel.sum()), rng, self._slack[k])
        return out, held

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
        self._sin_half = math.sin(self.half_angle)
        # the cone certificate's slack factor, 1 / sin(half_angle / 2)
        self._wall_slack = 1.0 / math.sin(self.half_angle / 2.0)

    @np.errstate(invalid="ignore", over="ignore")
    def contains_batch(self, pts: np.ndarray) -> np.ndarray:
        ims = pts[:, 1:]
        b = row_norms(ims)
        mask = b < 1.0
        big = ~mask
        if big.any():
            y, norm = ims[big], b[big]
            # |Im x|^2 overflows from about 1e154 on; the cone test does not
            # depend on scale, so such finite rows are scaled to a largest
            # |coordinate| of 1
            huge = np.isinf(norm) & np.isfinite(y).all(axis=1)
            if huge.any():
                y[huge] /= np.abs(y[huge]).max(axis=1, keepdims=True)
                norm[huge] = row_norms(y[huge])
            cosang = np.abs(row_dot(y, self.i0.vec)) / norm
            mask[big] = cosang > self._cos_half
        # a NaN or infinite imaginary part fails both tests; the real part must be finite too
        return mask & np.isfinite(pts[:, 0])

    def deep_legs(self, p0: np.ndarray, p1: np.ndarray, sag) -> np.ndarray:
        """Legs that the slab or one cone holds with room to spare.

        With M = max(|p0|, |p1|) and slack s = 2^-30 (M + 1), the slab holds
        a leg when max(|Im p0|, |Im p1|) + sag + s < 1, and a cone when the
        smaller of its ends' distances to the cone's wall exceeds
        sag + s / sin(half_angle / 2); the module docstring proves both.
        """
        sag = _leg_sags(sag)
        # a NaN or infinity makes NaN or -inf, which certifies nothing
        with np.errstate(invalid="ignore", over="ignore"):
            slack = (np.maximum(row_norms(p0), row_norms(p1)) + 1.0) * _LEG_SLACK
            slab = np.maximum(row_norms(p0[:, 1:]), row_norms(p1[:, 1:])) + sag + slack < 1.0
            depth = np.minimum(self._wall_distance(p0[:, 1:]), self._wall_distance(p1[:, 1:])).max(axis=0)
            return slab | (depth > sag + slack * self._wall_slack)

    def imaginary_data(self) -> np.ndarray:
        return self.i0.vec[None, :]

    def _wall_distance(self, ims: np.ndarray) -> np.ndarray:
        """sin(h) <y, +-i0> - cos(h) |y - <y, i0> i0|, inside the cones around +i0 and -i0, as (2, m)."""
        along = row_dot(ims, self.i0.vec)
        across = self._cos_half * row_norms(ims - along[:, None] * self.i0.vec)
        return np.stack([along, -along]) * self._sin_half - across

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        # The set is unbounded; this box is the default sampling window.
        return np.full(8, -4.0), np.full(8, 4.0)

    def z_window(self) -> tuple[float, float, float]:
        return -4.0, 4.0, 4.0

    def _propose(self, n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
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
        return out, np.zeros(n, dtype=bool)

    def to_json(self) -> dict:
        return {"type": "slab_cone", "i0": self.i0.to_list(), "half_angle": self.half_angle}


# Upper limit on `BallChain.theta_steps`.  A chain keeps about 90 B per step
# (the thetas, the (n, 8) centres, the tree's indices and the leg slacks) and
# peaks near 210 B per step while it builds them (tracemalloc peaks): about
# 0.22 GB at the limit.  A larger grid is refused before anything is
# allocated.
MAX_THETA_STEPS = 1 << 20


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
        if theta_steps > MAX_THETA_STEPS:
            raise PreconditionError(f"{theta_steps} theta steps are over the limit {MAX_THETA_STEPS}")
        self.i = i
        self.j = j
        self.theta_steps = int(theta_steps)
        self.thetas = np.linspace(-math.pi, math.pi, self.theta_steps)
        self.centers = self._centers(self.thetas)
        self._tree = cKDTree(self.centers)

    @cached_property
    def _slack(self) -> np.ndarray:
        # on the first leg check or proposals: it costs a third of building the chain
        return ball_slack(self.centers, self.RADIUS)

    def _centers(self, thetas: np.ndarray) -> np.ndarray:
        thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
        phi = np.outer(np.cos(thetas / 2.0), self.i.vec) + np.outer(
            np.sin(thetas / 2.0), self.j.vec
        )
        return tau_rows(np.cos(thetas), 2.0 + np.sin(thetas), phi)

    def center_at(self, theta: float) -> Octonion:
        return Octonion(self._centers(np.array([theta]))[0])

    def _nearest(self, pts: np.ndarray, bound: float = np.inf) -> tuple[np.ndarray, np.ndarray]:
        """cKDTree distance to the nearest centre within `bound`, and its index, per row.

        A row with no centre that near comes back at distance inf and index
        len(centers).  cKDTree refuses NaN and infinity; such a row comes
        back at distance inf and index 0.
        """
        try:
            return self._tree.query(pts, distance_upper_bound=bound)
        except ValueError:
            finite = np.isfinite(pts).all(axis=1)
            dist, idx = np.full(len(pts), np.inf), np.zeros(len(pts), dtype=np.intp)
            dist[finite], idx[finite] = self._tree.query(pts[finite], distance_upper_bound=bound)
            return dist, idx

    def nearest_thetas(self, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Grid theta of the nearest ball center, and its distance, per row of (n, 8) points."""
        dist, idx = self._nearest(pts)
        return self.thetas[np.minimum(idx, len(self.thetas) - 1)], dist

    def contains_batch(self, pts: np.ndarray) -> np.ndarray:
        dist, _ = self._nearest(pts, self.RADIUS)
        return dist < self.RADIUS

    def deep_legs(self, p0: np.ndarray, p1: np.ndarray, sag) -> np.ndarray:
        """Legs that the ball nearest their midpoint holds, by the test of `balls_hold_legs`."""
        # a NaN or infinity, or a norm that overflows, certifies nothing
        with np.errstate(invalid="ignore", over="ignore"):
            _, idx = self._nearest(0.5 * p0 + 0.5 * p1)
            # a midpoint too far for a finite distance comes back past the last centre
            idx = np.minimum(idx, len(self.centers) - 1)
            c = self.centers[idx]
            reach = _leg_reach(p0, p1, _leg_sags(sag), np.concatenate([c, c]))
        reach += self._slack[idx]
        return reach < self.RADIUS

    def imaginary_data(self) -> np.ndarray:
        return np.stack([self.i.vec, self.j.vec])

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        lo = self.centers.min(axis=0) - self.RADIUS
        hi = self.centers.max(axis=0) + self.RADIUS
        return lo, hi

    def z_window(self) -> tuple[float, float, float]:
        # projections c(theta) -> cos(theta) + (2 + sin(theta)) i
        return -1.0 - self.RADIUS, 1.0 + self.RADIUS, 3.0 + self.RADIUS

    def _propose(self, n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        idx = rng.integers(0, len(self.centers), size=n)
        return _ball_points(self.centers[idx], self.RADIUS, n, rng, self._slack[idx])

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
        return np.array([bool(self.fn(Octonion(p))) for p in pts], dtype=bool)

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        return self._bbox

    def to_json(self) -> dict:
        raise PreconditionError("predicate domains have no JSON form")
