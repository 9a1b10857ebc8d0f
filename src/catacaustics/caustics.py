"""Caustic sheets of a reflected wavefront.

A flat front (unit direction a) or a spherical front (point source O) hits a
mirror surface r(u, v).  Each surface point reflects the ray into
b = a - 2(a, n) n, and the two focal sheets of the reflected front lie on the
reflected rays at xi = r + b / k*, where k* runs over the two roots of a
characteristic quadratic built from the mirror's curvature data:

    flat front:   mu^2 + p mu + q = 0,  mu = k*
    point source: same quadratic in mu = k* + 1/rho, rho = |r - O|

with p = 2 cos(theta) (2H + k_n(a_t) tan^2(theta)) and q = 4K.  Equivalently
k* are the eigenvalues of the Weingarten matrix of the reflected front at the
mirror, assembled from the modified fundamental forms

    g*_ij = g_ij - (d_i r, a)(d_j r, a)
    B*_ij = -2 cos(theta) B_ij            (flat)
    B*_ij = -2 cos(theta) B_ij - g*_ij / rho   (point source)

The roots come from the quadratic; they are cross-checked against the
invariants of W* = g*^-1 B*, whose trace and determinant must equal the root
sum and product (see solve_sheet_curvatures).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field as dc_field
from typing import Optional, Union

import numpy as np

from .diffgeo import (FrameData, SurfaceForms, dot, flat_stand_in, frame_at,
                      fundamental_forms, norm)
from .surfacelang import EvalDomainError, SurfaceAST, eval_surface

__all__ = [
    "FlatFront", "PointSource", "IncidentField",
    "ReflectionData", "ModifiedForms", "MaskedGrid", "GridSpec", "SheetStatistics",
    "InternalConsistencyError",
    "FLAG_VALID", "FLAG_AT_SOURCE", "FLAG_GRAZING", "FLAG_AT_INFINITY",
    "FLAG_CLIPPED", "FLAG_EXCLUDED_ZERO_ROOT", "FLAG_DOMAIN", "FLAG_DEGENERATE",
    "BLOCK_POINTS", "row_blocks", "fill_rows", "default_max_radius", "masked_points_text",
    "incident_direction", "reflect_direction", "reflection_data",
    "modified_forms", "caustic_coefficients", "solve_sheet_curvatures",
    "caustic_point", "caustic_radius", "reflected_front_point",
    "CausticRoots", "caustic_roots", "compute_caustic_sheets", "statistics_text",
]

# per-vertex flag byte of a MaskedGrid:
FLAG_VALID = 0x01               # bit 0
FLAG_AT_SOURCE = 0x02           # bit 1: the point lies on the point source
FLAG_GRAZING = 0x04             # bit 2
FLAG_AT_INFINITY = 0x08        # bit 3
FLAG_CLIPPED = 0x10             # bit 4
FLAG_EXCLUDED_ZERO_ROOT = 0x20  # bit 5
FLAG_DOMAIN = 0x40              # bit 6: the chart is undefined at the point
FLAG_DEGENERATE = 0x80          # bit 7: the chart is singular at the point

EPS_GRAZING_DEFAULT = 1e-6      # |cos theta| at or below this is grazing
EPS_INF_DEFAULT = 1e-9          # |k*| at or below this has no finite caustic point
SOURCE_MIN_DISTANCE = 1e-12     # a point source this close to a surface point is on it

_DISC_NEGATIVE_RTOL = 1e-12     # disc below minus this times scale is an internal error
_DISC_DOUBLE_RTOL = 2e-13       # |disc| below this times scale collapses to a double root

# Cross-check of the roots against W* = g*^-1 B*.  For a 2x2 matrix the
# eigenvalues carry the same information as (trace, det), so the root sum S and
# product P are compared with those, multiplied through by det g*:
#     S det g* = g*22 B*11 - 2 g*12 B*12 + g*11 B*22,    P det g* = det B*.
# Each difference is divided by the magnitudes of the terms before they cancel:
# the left-hand sides by (|k_a| + |k_b|) and |k_a| |k_b| times g11 g22 + g12^2,
# because det g* = det g cos^2(theta) cancels from those terms near grazing and
# its absolute error scales with them; the right-hand sides by their sum of
# |term|.  For a point source each root counts with its magnitude before the
# shift k = mu - 1/rho, that is |mu| + 1/rho.  What is left is a relative
# backward error (Higham, Accuracy and Stability of Numerical Algorithms,
# ch. 3): each side is a few dozen flops from the shared g, B, (d_i r, a),
# cos(theta) and rho, so a correct computation leaves a few units of round-off
# (measured <= 1e-15) whatever the conditioning of W*, also near grazing,
# where one root is ~1/cos^2(theta) and the eigenvalues themselves are only
# known to ~1e-8.  A clamped double root keeps S = -p and moves P by disc/4,
# which is added back before the comparison.  A wrong sign of B*, a dropped
# 1/rho shift or a wrong q moves S or P by O(1) of these magnitudes.
_CROSSCHECK_RTOL = 1e-12

# grid points per row block of fill_rows, which runs the pointwise stages of
# every command, and of the mesh writers: bounds their working set to one
# block of temporaries, whose peak is ~390 B/point (~13 MB) in the closed
# form's _sheet_block
BLOCK_POINTS = 32768


class InternalConsistencyError(RuntimeError):
    """The two computation routes disagree; indicates a bug, not bad input."""


@dataclass
class FlatFront:
    """Flat incident front: all rays travel along the unit direction a."""

    direction: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.direction, dtype=float).reshape(3)
        if not np.all(np.isfinite(a)):
            raise ValueError("flat front direction must be finite")
        # scaling by a power of two is exact and keeps the norm's squares
        # from overflowing or underflowing
        a = np.ldexp(a, -np.frexp(np.max(np.abs(a)))[1])
        length = float(np.linalg.norm(a))
        if length == 0.0:
            raise ValueError("flat front direction must be non-zero")
        self.direction = a / length


@dataclass
class PointSource:
    """Spherical incident front emitted from the point O."""

    origin: np.ndarray

    def __post_init__(self):
        o = np.asarray(self.origin, dtype=float).reshape(3)
        if not np.all(np.isfinite(o)):
            raise ValueError("point source position must be finite")
        self.origin = o


IncidentField = Union[FlatFront, PointSource]


def incident_direction(field: IncidentField, r, outside=False):
    """(a, |r - O|, at_source) at surface points r; a is (x, y, z) planes.

    |r - O| is None and at_source False for a flat front.  at_source marks
    the points within SOURCE_MIN_DISTANCE of the point source, which have no
    incident direction.  There, and where outside is set (r is a stand-in
    for a point off the chart), |r - O| reads 1.
    """
    if isinstance(field, FlatFront):
        return tuple(field.direction), None, False
    d = tuple(ri - oi for ri, oi in zip(r, field.origin))
    # the norm of d scaled by a power of two per point: the scaling is exact
    # and keeps the squares from overflowing, as in FlatFront
    e = np.frexp(np.maximum(np.maximum(np.abs(d[0]), np.abs(d[1])), np.abs(d[2])))[1]
    dist = np.where(outside, 1.0, np.ldexp(norm(tuple(np.ldexp(di, -e) for di in d)), e))
    at_source = dist <= SOURCE_MIN_DISTANCE
    dist = np.where(at_source, 1.0, dist)
    return tuple(di / dist for di in d), dist, at_source


def reflect_direction(a, n, cos_theta=None) -> tuple:
    """Mirror law b = a - 2 (a, n) n on (x, y, z) planes; cos_theta is (a, n) if known."""
    s = 2.0 * (dot(a, n) if cos_theta is None else cos_theta)
    return tuple(ai - s * ni for ai, ni in zip(a, n))


@dataclass
class ReflectionData:
    """Incidence/reflection quantities at surface points; a and b are (x, y, z) planes."""

    a: tuple                 # unit incident direction
    cos_theta: np.ndarray    # (a, n), of either sign: the mirror is two-sided
    b: tuple                 # unit reflected direction
    r_dist: Optional[np.ndarray]  # |r - O| for a point source, None for flat
    frame: FrameData = dc_field(repr=False)

    @functools.cached_property
    def w(self) -> tuple:
        """(w1, w2) = ((r_u, a), (r_v, a)), made on first use: the oracle reads no w."""
        return dot(self.frame.r_u, self.a), dot(self.frame.r_v, self.a)


def reflection_data(frame: FrameData, a, r_dist=None) -> ReflectionData:
    """cos theta = (a, n) and b for the (a, r_dist) of incident_direction; w on demand."""
    cos_theta = dot(a, frame.n)
    return ReflectionData(a, cos_theta, reflect_direction(a, frame.n, cos_theta), r_dist, frame)


@dataclass
class ModifiedForms:
    """Fundamental forms of the reflected front at the mirror."""

    gs11: np.ndarray
    gs12: np.ndarray
    gs22: np.ndarray
    Bs11: np.ndarray
    Bs12: np.ndarray
    Bs22: np.ndarray
    det_gs: np.ndarray
    det_gs_scale: np.ndarray  # g11 g22 + g12^2: the terms det g* cancels from


def modified_forms(forms: SurfaceForms, refl: ReflectionData) -> ModifiedForms:
    """g* and B* of the reflected front, whose Weingarten matrix W* = g*^-1 B* has the k*.

    g*_ij = g_ij - w_i w_j with the w_i of refl; B* takes the point-source
    shift -g*_ij / rho where refl has a source distance rho.  Valid away from
    grazing incidence (cos theta = 0), where g* degenerates; grid-level code
    masks those points before use.
    """
    w1, w2 = refl.w
    gs11 = forms.g11 - w1 * w1
    gs12 = forms.g12 - w1 * w2
    gs22 = forms.g22 - w2 * w2
    det_gs = gs11 * gs22 - gs12 * gs12
    det_gs_scale = forms.g11 * forms.g22 + forms.g12 * forms.g12

    m = -2.0 * refl.cos_theta
    Bs11 = m * forms.B11
    Bs12 = m * forms.B12
    Bs22 = m * forms.B22
    if refl.r_dist is not None:
        shift = 1.0 / refl.r_dist
        Bs11 = Bs11 - shift * gs11
        Bs12 = Bs12 - shift * gs12
        Bs22 = Bs22 - shift * gs22
    return ModifiedForms(gs11, gs12, gs22, Bs11, Bs12, Bs22, det_gs, det_gs_scale)


def caustic_coefficients(forms: SurfaceForms, refl: ReflectionData):
    """Coefficients (p, q) of mu^2 + p mu + q = 0 on the front curvatures.

    mu = k* for a flat front and mu = k* + 1/|r - O| for a point source.
    The tangential term k_n(a_t) tan^2(theta) is computed as
    B(a_t, a_t)/cos^2(theta), its analytic continuation through normal
    incidence where a_t = 0; the (u,v) components X of a_t solve
    g X = (w1, w2).
    """
    w1, w2 = refl.w
    X1 = (forms.g22 * w1 - forms.g12 * w2) / forms.det_g
    X2 = (forms.g11 * w2 - forms.g12 * w1) / forms.det_g
    B_at_at = forms.B11 * X1 * X1 + 2.0 * forms.B12 * X1 * X2 + forms.B22 * X2 * X2
    c = refl.cos_theta
    with np.errstate(all="ignore"):
        p = 4.0 * forms.H * c + 2.0 * B_at_at / c
    q = 4.0 * forms.K
    return p, q


def _stable_quadratic_roots(p, q):
    """Roots of mu^2 + p mu + q = 0, double-root aware.

    Returns (mu_a, mu_b, clamped) with NaN entries propagated; the pair is in
    no particular order.  Raises InternalConsistencyError for a discriminant
    that is negative beyond round-off, which a real shape operator cannot
    produce.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    with np.errstate(over="ignore"):
        pp = p * p
    # near grazing p ~ 2 B(a_t, a_t) / cos theta; where p^2 overflows, the
    # roots are -p and q / -p to round-off
    huge = np.isinf(pp) & np.isfinite(p)
    scale = np.maximum(pp, np.abs(q))
    disc = pp - 4.0 * q
    finite = np.isfinite(disc)
    bad = finite & (disc < -_DISC_NEGATIVE_RTOL * scale)
    if np.any(bad):
        worst = np.nanmin(np.where(bad, disc, np.inf))
        raise InternalConsistencyError(
            f"negative discriminant {worst:.3e} in the characteristic quadratic; "
            "the reflected front's shape operator should be diagonalizable")
    clamped = finite & (np.abs(disc) <= _DISC_DOUBLE_RTOL * scale)
    disc = np.where(clamped, 0.0, np.maximum(disc, 0.0))
    sq = np.sqrt(disc)
    t = -0.5 * (p + np.copysign(sq, p))
    with np.errstate(all="ignore"):
        mu_a = t
        mu_b = np.where(t != 0.0, q / np.where(t != 0.0, t, 1.0), 0.0)
        mu_b = np.where(clamped, mu_a, mu_b)  # a double root is one number
    mu_b = np.where(finite, mu_b, np.nan)
    mu_a = np.where(huge, -p, mu_a)
    mu_b = np.where(huge, q / np.where(huge, -p, 1.0), mu_b)
    return mu_a, mu_b, clamped


def _crosscheck_errors(mods: ModifiedForms, S, P, S_size, P_size):
    """Relative errors of the root sum S and product P against tr W* and det W*.

    S_size and P_size are the magnitudes S and P are computed from.  Both
    sides are multiplied through by det g* and each difference is divided by
    the magnitudes of its terms before cancellation (see _CROSSCHECK_RTOL).
    Returns the larger of the two errors per point.
    """
    gs11, gs12, gs22 = mods.gs11, mods.gs12, mods.gs22
    Bs11, Bs12, Bs22 = mods.Bs11, mods.Bs12, mods.Bs22
    t11, t12, t22 = gs22 * Bs11, gs12 * Bs12, gs11 * Bs22
    err_S = np.abs(S * mods.det_gs - (t11 - 2.0 * t12 + t22))
    size_S = S_size * mods.det_gs_scale + np.abs(t11) + 2.0 * np.abs(t12) + np.abs(t22)
    det_B, B12_sq = Bs11 * Bs22, Bs12 * Bs12
    err_P = np.abs(P * mods.det_gs - (det_B - B12_sq))
    size_P = P_size * mods.det_gs_scale + np.abs(det_B) + B12_sq
    # a zero size means every term is zero, and so is the error
    return np.maximum(err_S / np.where(size_S > 0.0, size_S, 1.0),
                      err_P / np.where(size_P > 0.0, size_P, 1.0))


def solve_sheet_curvatures(mods: ModifiedForms, coeffs, r_dist=None):
    """The two front principal curvatures k*, from the quadratic, cross-checked.

    r_dist is |r - O| for a point source, whose roots are shifted to
    k* = mu - 1/r_dist, and None for a flat front: pass the r_dist of the
    ReflectionData that made mods.  Returns (k_a, k_b, residual): the
    unordered root pair per point and the worst relative error of the root
    sum and product against the trace and determinant of the Weingarten
    matrix W* = g*^-1 B* where both roots are finite (the lit points, once
    the caller sets p and q to NaN elsewhere).  The two routes share no
    arithmetic beyond the raw forms, so agreement validates both.  Raises
    InternalConsistencyError where the error exceeds _CROSSCHECK_RTOL.
    """
    p, q = coeffs
    mu_a, mu_b, clamped = _stable_quadratic_roots(p, q)
    shift = 0.0 if r_dist is None else 1.0 / np.asarray(r_dist, dtype=float)
    k_a = mu_a - shift
    k_b = mu_b - shift

    # a clamped double root keeps the sum -p and moves the product by disc/4
    pc, qc = np.where(clamped, p, 0.0), np.where(clamped, q, 0.0)
    P = k_a * k_b - 0.25 * (pc * pc - 4.0 * qc)
    # each root counts with its magnitude before the shift, |mu| + 1/rho
    mag_a = np.abs(mu_a) + shift
    mag_b = np.abs(mu_b) + shift
    err = _crosscheck_errors(mods, k_a + k_b, P, mag_a + mag_b, mag_a * mag_b)
    err = np.where(np.isfinite(k_a) & np.isfinite(k_b), err, 0.0)
    residual = float(np.max(err)) if err.size else 0.0
    if residual > _CROSSCHECK_RTOL:
        raise InternalConsistencyError(
            f"quadratic roots and the Weingarten matrix's trace and determinant "
            f"disagree by {residual:.3e} (relative)")
    return k_a, k_b, residual


def caustic_point(r, b, k_star, field: IncidentField, eps_inf: float = EPS_INF_DEFAULT,
                  base_flags=np.uint8(0), max_radius: float = np.inf):
    """Caustic points xi = r + b/k* of one sheet and their flag byte.

    r and b are (x, y, z) planes, and so is xi.  Roots with |k*| <= eps_inf
    have no finite caustic point: for a flat front they are flagged
    at_infinity, for a point source excluded_zero_root.  base_flags (uint8)
    carries the upstream reasons of the ray stage.  A placed point is flagged
    valid, or clipped where it lies farther than max_radius along its ray; a
    clipped point keeps its xi.  Returns (xi, flags); xi is NaN off the
    placed points.
    """
    k = np.asarray(k_star, dtype=float)
    finite_root = np.isfinite(k) & (np.abs(k) > eps_inf)
    zero_bit = FLAG_EXCLUDED_ZERO_ROOT if isinstance(field, PointSource) else FLAG_AT_INFINITY
    flags = base_flags | np.where(np.isfinite(k) & ~finite_root, np.uint8(zero_bit), np.uint8(0))
    placed = finite_root & (flags == 0)
    radius = np.where(placed, caustic_radius(k), 0.0)
    flags |= np.where(placed, np.where(np.abs(radius) > max_radius, np.uint8(FLAG_CLIPPED),
                                       np.uint8(FLAG_VALID)), np.uint8(0))
    xi = tuple(np.where(placed, ri + bi * radius, np.nan) for ri, bi in zip(r, b))
    return xi, flags


def caustic_radius(k_star) -> np.ndarray:
    """Signed distance 1/k* from the mirror to the caustic point; inf where k* = 0.

    The one 1/k* helper: placement, with its radius cap, and the oracle's
    comparison read it.
    """
    k = np.asarray(k_star)
    with np.errstate(all="ignore"):
        return np.where(k != 0.0, 1.0 / np.where(k != 0.0, k, 1.0), np.inf)


def reflected_front_point(r, a, b, L, r_dist=None):
    """The reflected front at total travel L: (lambda, rho = r + lambda b).

    lambda = L - (r, a) (flat) or L - |r - O| (point) is the travel after
    reflection.  r, a and b are (x, y, z) planes, and so is rho.  Points with
    lambda < 0 have not been reached by the front yet; consumers exclude
    them from export.
    """
    lam = L - (dot(r, a) if r_dist is None else np.asarray(r_dist, dtype=float))
    return lam, tuple(ri + lam * bi for ri, bi in zip(r, b))


# --------------------------------------------------------------------------
# grid-level computation
# --------------------------------------------------------------------------

@dataclass
class GridSpec:
    """A parameter grid: nu x nv samples of the rectangle [u0,u1] x [v0,v1]."""

    nu: int
    nv: int
    domain: tuple  # (u0, u1, v0, v1)

    def __post_init__(self):
        if self.nu < 2 or self.nv < 2:
            raise ValueError("grid needs at least 2 samples per direction")
        u0, u1, v0, v1 = map(float, self.domain)
        if not (u1 > u0 and v1 > v0):
            raise ValueError("grid domain rectangle is empty")
        if not np.isfinite(u1 - u0) or not np.isfinite(v1 - v0):
            raise ValueError("grid domain rectangle must be finite")
        self.domain = (u0, u1, v0, v1)

    def axes(self):
        u0, u1, v0, v1 = self.domain
        return np.linspace(u0, u1, self.nu), np.linspace(v0, v1, self.nv)

    def mesh(self):
        """Full (nu, nv) arrays of u and v."""
        return np.meshgrid(*self.axes(), indexing="ij")


def default_max_radius(surface_diameter: float) -> float:
    """The default caustic radius cap: 10 surface diameters, positive even at 0.

    With no mirror point on the chart the diameter is NaN, and so is the cap.
    """
    return 10.0 * max(surface_diameter, 1e-300)


def _chart_extrema(r, flags, shape):
    """(min, max) per coordinate of a block's mirror points on the chart; None if none.

    r is (x, y, z) planes and flags a flag byte, both broadcast to shape.
    The extrema of the block extrema, taken in block order, are those of the
    whole grid to the bit, +0.0/-0.0 ties included: _column_extrema is
    min/max(axis=0) to the bit, a left fold of np.minimum/np.maximum, which
    settles a tie by position alike in every block.
    """
    on_chart = np.broadcast_to((flags & FLAG_DOMAIN) == 0, shape)
    if not np.any(on_chart):
        return None
    return _column_extrema(np.stack([np.broadcast_to(x, shape)[on_chart] for x in r]))


def _surface_extent(extrema):
    """(bbox min, bbox max, diameter) of the mirror from its blocks' _chart_extrema; NaN if none."""
    found = [e for e in extrema if e is not None]
    if not found:
        lo = hi = np.full(3, np.nan)
    else:
        lo, hi = (reduce(np.stack([e[i] for e in found]), axis=0)
                  for i, reduce in ((0, np.min), (1, np.max)))
    return lo, hi, float(np.linalg.norm(hi - lo))


def masked_points_text(flags, surface: SurfaceAST, grid: GridSpec, order: int = 2) -> str:
    """A "masked:" line per point-defect bit set in flags: its count and first grid index.

    A line ends with the error of evaluating that one point at the jet order
    that made the flags, if any, so it reads the same at every block size.
    """
    text = ""
    us, vs = grid.axes()
    for bit, what in ((FLAG_DOMAIN, "off the chart"),
                      (FLAG_DEGENERATE, "singular (r_u x r_v ~ 0)"),
                      (FLAG_AT_SOURCE, "at the point source")):
        hits = np.argwhere(flags & bit)
        if len(hits):
            i, j = map(int, hits[0])
            text += f"masked: {len(hits)} point(s) {what}, first at grid index ({i}, {j})"
            try:
                eval_surface(surface, us[i], vs[j], order)
            except EvalDomainError as err:
                text += f": {err}"
            text += "\n"
    return text


def row_blocks(nu: int, nv: int) -> list:
    """Slices of whole grid rows that hold at most BLOCK_POINTS points (one row at least)."""
    rows = max(1, BLOCK_POINTS // max(nv, 1))
    return [slice(start, min(start + rows, nu)) for start in range(0, nu, rows)]


def fill_rows(grid: GridSpec, block) -> tuple:
    """Whole-grid arrays of the tuple block(U, V, rows) returns on each row block.

    The one loop over row_blocks.  U is the u column (rows, 1) and V the v
    row (1, nv), which a surface evaluates once per grid line.  A result
    that broadcasts to (rows, nv) fills an (nu, nv) array of its dtype; a
    tuple of such planes, such as (x, y, z), fills a (len, nu, nv) array of
    their common dtype, one contiguous plane write each.
    """
    us, vs = grid.axes()
    shape = (grid.nu, grid.nv)
    out = ()
    for rows in row_blocks(grid.nu, grid.nv):
        results = block(us[rows, None], vs[None, :], rows)
        out = out or tuple(np.empty((len(x),) + shape, np.result_type(*x)) if isinstance(x, tuple)
                           else np.empty(shape, np.asarray(x).dtype) for x in results)
        for whole, x in zip(out, results):
            for plane, xi in zip(whole, x) if isinstance(x, tuple) else [(whole, x)]:
                plane[rows] = xi
        del results, x  # a block's results die before the next block runs
    return out


@dataclass
class MaskedGrid:
    """A nu x nv vertex grid with a per-vertex flag byte of FLAG_* bits.

    Every vertex carries a bit: FLAG_VALID, or the reasons it is invalid.
    The points are (x, y, z) planes, as placement fills them and writers read them.
    compute's caustic sheets are MaskedGrids too, whose points are the xi.
    """

    u: np.ndarray        # (nu,)
    v: np.ndarray        # (nv,)
    points: np.ndarray   # (3, nu, nv): (x, y, z) planes; entries at invalid vertices are ignored
    flags: np.ndarray    # (nu, nv) uint8

    def __post_init__(self):
        nu, nv = len(self.u), len(self.v)
        if self.points.shape != (3, nu, nv) or self.flags.shape != (nu, nv):
            raise ValueError("MaskedGrid arrays do not match the declared grid size")
        if not np.all(self.flags):
            raise ValueError("invalid vertices must carry at least one reason bit")

    @property
    def valid(self) -> np.ndarray:
        return (self.flags & FLAG_VALID) != 0

    @property
    def placed(self) -> np.ndarray:
        """Vertices placed before a clip: valid, or clipped (by the radius cap, or unreached)."""
        return (self.flags & (FLAG_VALID | FLAG_CLIPPED)) != 0


@dataclass
class SheetStatistics:
    n_valid: int
    n_at_infinity: int
    n_excluded_zero_root: int
    bbox_min: Optional[np.ndarray]
    bbox_max: Optional[np.ndarray]
    diameter: float
    principal_extents: Optional[np.ndarray]


@dataclass
class CausticRoots:
    """The closed form's roots over a grid, with their scene and the mirror's extent.

    The one record of the roots pass, shared by compute and validate: the
    scene, the radius cap resolved from the extent (the bounding box and
    diameter of the mirror points on the chart), the flag byte of the ray
    stage and the front curvatures of both sheets (sheet 1 holds the smaller
    k*).  place puts both sheets on mirror points and reflected directions.
    """

    grid: GridSpec
    surface: SurfaceAST = dc_field(repr=False)
    field: IncidentField
    eps_grazing: float       # |cos theta| at or below it was masked grazing
    eps_inf: float
    max_radius: float        # the sheets' radius cap; NaN with no mirror point on the chart
    base_flags: np.ndarray   # (nu, nv) uint8
    k1: np.ndarray           # (nu, nv)
    k2: np.ndarray           # (nu, nv)
    surface_bbox_min: np.ndarray
    surface_bbox_max: np.ndarray
    surface_diameter: float

    def place(self, rows, r, b):
        """Both sheets' caustic_point (xi, flags) on grid rows whose r and b are given.

        r, b and xi are (x, y, z) planes of the rows' points.
        """
        return tuple(caustic_point(r, b, k[rows], self.field, self.eps_inf,
                                   self.base_flags[rows], self.max_radius)
                     for k in (self.k1, self.k2))


def statistics_text(roots: CausticRoots, sheets) -> str:
    """compute's stats.txt of roots and the two MaskedGrids placed from them, sheet 1 first."""
    nu, nv = roots.grid.nu, roots.grid.nv
    lines = [
        f"grid: {nu} x {nv} ({nu * nv} points)",
        "shadow points: 0",  # the mirror is two-sided: no point is in shadow
        f"grazing points: {np.count_nonzero(roots.base_flags & FLAG_GRAZING)}",
        f"surface bbox min: {_fmt_vec(roots.surface_bbox_min)}",
        f"surface bbox max: {_fmt_vec(roots.surface_bbox_max)}",
        f"surface diameter: {roots.surface_diameter:.9g}",
    ]
    for i, sheet in enumerate(sheets, start=1):
        s, head = _sheet_statistics(sheet), f"sheet {i}"
        lines.append(f"{head}: valid {s.n_valid}, at_infinity {s.n_at_infinity}, "
                     f"excluded_zero_root {s.n_excluded_zero_root}")
        if s.n_valid:
            lines.append(f"{head} bbox min: {_fmt_vec(s.bbox_min)}")
            lines.append(f"{head} bbox max: {_fmt_vec(s.bbox_max)}")
            lines.append(f"{head} bbox diameter: {s.diameter:.9g}")
            lines.append(f"{head} principal extents: {_fmt_vec(s.principal_extents)}")
        else:
            lines.append(f"{head}: no caustic (no valid points)")
    return "\n".join(lines) + "\n"


def _fmt_vec(x) -> str:
    return " ".join(f"{float(c):.9g}" for c in np.asarray(x).ravel())


def _column_extrema(planes):
    """(min, max) of each plane of a (k, N) array, bit-identical to min/max(axis=0) of its (N, k).

    Reducing planes is several times faster than reducing across the rows of
    (N, k).  The two differ only in which zero wins a +0.0/-0.0 tie (and which
    NaN), so those planes take the axis-0 result of a C-ordered (N, k) copy.
    """
    lo, hi = planes.min(axis=1), planes.max(axis=1)
    for ext, reduce in ((lo, np.min), (hi, np.max)):
        redo = (ext == 0.0) | np.isnan(ext)
        if np.any(redo):
            ext[redo] = reduce(np.ascontiguousarray(planes.T), axis=0)[redo]
    return lo, hi


def _sheet_statistics(sheet: MaskedGrid) -> SheetStatistics:
    """Counts and extents of a sheet as placed, before the radius cap: stats.txt ignores the cap."""
    valid = sheet.placed
    n_inf = int(np.count_nonzero(sheet.flags & FLAG_AT_INFINITY))
    n_zero = int(np.count_nonzero(sheet.flags & FLAG_EXCLUDED_ZERO_ROOT))
    if not np.any(valid):
        return SheetStatistics(0, n_inf, n_zero, None, None, 0.0, None)
    planes = sheet.points.reshape(3, -1).compress(valid.ravel(), axis=1)
    bb_min, bb_max = _column_extrema(planes)
    diameter = float(np.linalg.norm(bb_max - bb_min))
    pts = np.ascontiguousarray(planes.T)  # (N, 3): the mean, SVD and projections round on it
    centered = pts - pts.mean(axis=0)
    if pts.shape[0] >= 2:
        # principal-component extents flag degeneracy to a curve or a point
        _, _, vt = np.linalg.svd(centered, full_matrices=False)
        proj_min, proj_max = _column_extrema(np.ascontiguousarray((centered @ vt.T).T))
        extents = np.pad(proj_max - proj_min, (0, 3 - len(vt)))  # 2 points: one zero
    else:
        extents = np.zeros(3)
    return SheetStatistics(int(np.count_nonzero(valid)), n_inf, n_zero,
                           bb_min, bb_max, diameter, extents)


def _ray_block(surface: SurfaceAST, field: IncidentField, U, V, eps_grazing: float,
               order: int = 2):
    """Mirror frame, reflection data and flag byte on grid points.

    The one ray stage, shared by compute, front and the oracle; returns
    (frame, refl, flags).  The surface is evaluated at the jet order given
    (see eval_surface): a ray reads r, r_u and r_v only, so front and the
    oracle take order 1, and compute takes 2 for the curvature.  A bad point
    is flagged where it is, with one bit: FLAG_DOMAIN off the chart (the
    frame of diffgeo.flat_stand_in, r = 0 there), FLAG_AT_SOURCE on the
    point source (|r - O| reads 1 there), FLAG_DEGENERATE where the chart is
    singular, and FLAG_GRAZING where |cos theta| <= eps_grazing.  Vectors
    are (x, y, z) planes, and every result keeps the shape of what it
    depends on: fill_rows broadcasts it to the grid when it writes it.
    """
    outside = False
    try:
        jet = eval_surface(surface, U, V, order)
    except EvalDomainError as err:
        jet, outside = flat_stand_in(err.jet, err.outside), err.outside
    frame = frame_at(jet)
    a, r_dist, at_source = incident_direction(field, frame.r, outside)
    refl = reflection_data(frame, a, r_dist)
    flags = np.where(np.abs(refl.cos_theta) <= eps_grazing, np.uint8(FLAG_GRAZING), np.uint8(0))
    flags = np.where(frame.regular, flags, np.uint8(FLAG_DEGENERATE))
    flags = np.where(at_source, np.uint8(FLAG_AT_SOURCE), flags)
    return frame, refl, np.where(outside, np.uint8(FLAG_DOMAIN), flags)


def _sheet_block(surface: SurfaceAST, field: IncidentField, U, V, eps_grazing: float):
    """The pointwise stages of the closed-form route on one block of grid points.

    Returns (r, b, base_flags, k1, k2): mirror points and reflected
    directions as (x, y, z) planes, the flag byte of _ray_block and the front
    curvatures of the two sheets, which are NaN off the lit region.  Sheet 1
    holds the smaller k* at each point.  The roots are cross-checked on the
    block.
    """
    frame, refl, base_flags = _ray_block(surface, field, U, V, eps_grazing, order=2)
    forms = fundamental_forms(frame)
    mods = modified_forms(forms, refl)
    p, q = (np.where(base_flags == 0, x, np.nan) for x in caustic_coefficients(forms, refl))
    r, b, r_dist = frame.r, refl.b, refl.r_dist
    del frame, refl, forms  # the roots' temporaries need none of the jet
    k_a, k_b, _ = solve_sheet_curvatures(mods, (p, q), r_dist)
    return r, b, base_flags, np.minimum(k_a, k_b), np.maximum(k_a, k_b)


def _roots_pass(surface: SurfaceAST, field: IncidentField, grid: GridSpec, eps_grazing: float,
                eps_inf: float, max_radius: Optional[float], keep_rays: bool):
    """The closed form's roots: one fill_rows pass of _sheet_block.

    Returns (roots, rays): the CausticRoots, whose extent is reduced block by
    block and whose max_radius None resolves to default_max_radius of the
    surface diameter, and [r, b], the whole-grid mirror points and reflected
    directions as (3, nu, nv) planes, if keep_rays, else [].
    """
    if max_radius is not None and not max_radius > 0.0:
        raise ValueError("max_radius must be positive")
    extrema = []

    def roots_block(U, V, rows):
        r, b, base_flags, k1, k2 = _sheet_block(surface, field, U, V, eps_grazing)
        extrema.append(_chart_extrema(r, base_flags, np.broadcast_shapes(U.shape, V.shape)))
        return (base_flags, k1, k2, r, b) if keep_rays else (base_flags, k1, k2)

    base_flags, k1, k2, *rays = fill_rows(grid, roots_block)
    lo, hi, diameter = _surface_extent(extrema)
    max_radius = default_max_radius(diameter) if max_radius is None else float(max_radius)
    return CausticRoots(grid, surface, field, eps_grazing, eps_inf, max_radius,
                        base_flags, k1, k2, lo, hi, diameter), rays


def caustic_roots(surface: SurfaceAST, field: IncidentField, grid: GridSpec,
                  *, eps_grazing: float = EPS_GRAZING_DEFAULT,
                  eps_inf: float = EPS_INF_DEFAULT,
                  max_radius: Optional[float] = None) -> CausticRoots:
    """The roots pass of compute_caustic_sheets, for the same arguments, as CausticRoots.

    It holds no whole-grid r or b: 17 B per grid point.
    """
    return _roots_pass(surface, field, grid, eps_grazing, eps_inf, max_radius, keep_rays=False)[0]


def compute_caustic_sheets(surface: SurfaceAST, field: IncidentField, grid: GridSpec,
                           *, eps_grazing: float = EPS_GRAZING_DEFAULT,
                           eps_inf: float = EPS_INF_DEFAULT,
                           max_radius: Optional[float] = None):
    """Both caustic sheets of the reflected front over a parameter grid.

    Returns (sheet1, sheet2, roots): both sheets as MaskedGrids whose points
    are the caustic points xi, and the CausticRoots they are placed from,
    whose k1 and k2 are the sheets' k* (sheet 1 holds the smaller at each
    point).  Grazing, off-chart, singular and at-source points are masked,
    not errors; roots without a finite caustic point are flagged.  A caustic
    point farther than max_radius along its ray is flagged clipped and keeps
    its xi: near-flat parts of a mirror send the caustic off toward
    infinity.  max_radius None is default_max_radius of the surface diameter
    and inf is no cap; roots.max_radius records the cap in force.  The
    flat-front result is independent of any front offset by construction
    (no travel parameter enters the computation).  The pointwise stages run
    in two fill_rows passes: the roots, which also reduce the mirror's
    extent per block, then, once the cap is resolved, both sheets' placement
    in one pass (CausticRoots.place).  No whole-grid temporary is made, and
    the result does not depend on the block size.
    """
    roots, (r, b) = _roots_pass(surface, field, grid, eps_grazing, eps_inf, max_radius,
                                keep_rays=True)
    # both sheets' (xi, flags) pairs flattened: fill_rows fills one array per result
    xi1, flags1, xi2, flags2 = fill_rows(grid, lambda U, V, rows: sum(roots.place(
        rows, r[:, rows], b[:, rows]), ()))
    return MaskedGrid(*grid.axes(), xi1, flags1), MaskedGrid(*grid.axes(), xi2, flags2), roots
