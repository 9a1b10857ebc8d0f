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

from .diffgeo import (_DISC_DOUBLE_RTOL, DegenerateSurfaceError, FrameData,
                      SurfaceForms, dot, frame_at, fundamental_forms, norm)
from .surfacelang import EvalDomainError, SurfaceAST, eval_surface

__all__ = [
    "FlatFront", "PointSource", "IncidentField",
    "ReflectionData", "ModifiedForms", "CausticPoint", "CausticSheet",
    "FrontPoint", "GridSpec", "SheetStatistics", "FrontStatistics",
    "InternalConsistencyError", "SourceOnSurfaceError",
    "FLAG_VALID", "FLAG_SHADOW", "FLAG_GRAZING", "FLAG_AT_INFINITY",
    "FLAG_CLIPPED", "FLAG_EXCLUDED_ZERO_ROOT",
    "BLOCK_POINTS", "row_blocks", "default_max_radius", "incidence_flags",
    "incident_direction", "reflect_direction", "reflection_data",
    "modified_forms", "caustic_coefficients", "solve_sheet_curvatures",
    "caustic_point", "caustic_radius", "reflected_front_point",
    "compute_caustic_sheets",
]

# per-vertex flag byte, shared with the mesh writer:
FLAG_VALID = 0x01               # bit 0
FLAG_SHADOW = 0x02              # bit 1
FLAG_GRAZING = 0x04             # bit 2
FLAG_AT_INFINITY = 0x08        # bit 3
FLAG_CLIPPED = 0x10             # bit 4
FLAG_EXCLUDED_ZERO_ROOT = 0x20  # bit 5

EPS_GRAZING_DEFAULT = 1e-6      # |cos theta| at or below this is grazing
EPS_INF_DEFAULT = 1e-9          # |k*| at or below this has no finite caustic point
SOURCE_MIN_DISTANCE = 1e-12     # a point source this close to a surface point is on it

_DISC_NEGATIVE_RTOL = 1e-12     # disc below minus this times scale is an internal error

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

# grid points per block of whole rows in the pointwise stages: bounds the
# working set of the whole-grid routes, whose intermediates take ~900 B/point
BLOCK_POINTS = 32768


class InternalConsistencyError(RuntimeError):
    """The two computation routes disagree; indicates a bug, not bad input."""


class SourceOnSurfaceError(ValueError):
    """The point source coincides with a surface point."""


@dataclass
class FlatFront:
    """Flat incident front: all rays travel along the unit direction a."""

    direction: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.direction, dtype=float).reshape(3)
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


def incident_direction(field: IncidentField, r) -> tuple:
    """Unit incident direction at surface points r; both are (x, y, z) planes."""
    if isinstance(field, FlatFront):
        return tuple(field.direction)
    d = tuple(ri - oi for ri, oi in zip(r, field.origin))
    dist = norm(d)
    _check_source_distance(dist)
    return tuple(di / dist for di in d)


def _check_source_distance(dist):
    """Raise SourceOnSurfaceError where a point source lies on the mirror."""
    if np.any(dist <= SOURCE_MIN_DISTANCE):
        raise SourceOnSurfaceError("point source coincides with a surface point")


def reflect_direction(a, n) -> tuple:
    """Mirror law b = a - 2 (a, n) n on (x, y, z) planes."""
    s = 2.0 * dot(a, n)
    return tuple(ai - s * ni for ai, ni in zip(a, n))


def incidence_flags(cos_theta, eps_grazing: float = EPS_GRAZING_DEFAULT) -> np.ndarray:
    """The shadow/grazing flag byte of each point; 0 where the point is lit.

    FLAG_GRAZING where |cos theta| <= eps_grazing, FLAG_SHADOW where
    cos theta > eps_grazing (the mirror faces away from the light).  The
    mirror is two-sided: frame_at orients n so that cos theta = (a, n) <= 0
    at every point, so on the grid routes (compute, front) FLAG_SHADOW is
    never set and only grazing points are masked.
    """
    flags = np.where(np.abs(cos_theta) <= eps_grazing, np.uint8(FLAG_GRAZING), np.uint8(0))
    flags |= np.where(cos_theta > eps_grazing, np.uint8(FLAG_SHADOW), np.uint8(0))
    return flags


@dataclass
class ReflectionData:
    """Incidence/reflection quantities at surface points; a and b are (x, y, z) planes."""

    a: tuple                 # unit incident direction
    cos_theta: np.ndarray    # (a, n); negative on lit points
    b: tuple                 # unit reflected direction
    w1: np.ndarray           # (r_u, a)
    w2: np.ndarray           # (r_v, a)
    r_dist: Optional[np.ndarray]  # |r - O| for a point source, None for flat


def reflection_data(frame: FrameData, a, field: IncidentField) -> ReflectionData:
    """cos theta, b, w_i = (d_i r, a) and |r - O| for the direction a the frame was oriented by."""
    r_dist = None
    if isinstance(field, PointSource):
        r_dist = norm(tuple(ri - oi for ri, oi in zip(frame.r, field.origin)))
    return ReflectionData(a, dot(a, frame.n), reflect_direction(a, frame.n),
                          dot(frame.r_u, a), dot(frame.r_v, a), r_dist)


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

    @functools.cached_property
    def weingarten(self) -> np.ndarray:
        """(..., 2, 2) matrix W* = g*^-1 B*; its eigenvalues are the front curvatures k*."""
        gs11, gs12, gs22 = self.gs11, self.gs12, self.gs22
        Bs11, Bs12, Bs22 = self.Bs11, self.Bs12, self.Bs22
        with np.errstate(all="ignore"):
            inv = 1.0 / self.det_gs
            rows = [[(gs22 * Bs11 - gs12 * Bs12) * inv, (gs22 * Bs12 - gs12 * Bs22) * inv],
                    [(gs11 * Bs12 - gs12 * Bs11) * inv, (gs11 * Bs22 - gs12 * Bs12) * inv]]
        return np.stack([np.stack(row, axis=-1) for row in rows], axis=-2)


def modified_forms(forms: SurfaceForms, refl: ReflectionData,
                   field: IncidentField) -> ModifiedForms:
    """g* and B* of the reflected front; W* = g*^-1 B* is made on first use.

    g*_ij = g_ij - w_i w_j with the w_i of refl.  Valid away from grazing
    incidence (cos theta = 0), where g* degenerates; grid-level code masks
    those points before use.
    """
    w1, w2 = refl.w1, refl.w2
    gs11 = forms.g11 - w1 * w1
    gs12 = forms.g12 - w1 * w2
    gs22 = forms.g22 - w2 * w2
    det_gs = gs11 * gs22 - gs12 * gs12
    det_gs_scale = forms.g11 * forms.g22 + forms.g12 * forms.g12

    m = -2.0 * refl.cos_theta
    Bs11 = m * forms.B11
    Bs12 = m * forms.B12
    Bs22 = m * forms.B22
    if isinstance(field, PointSource):
        with np.errstate(all="ignore"):
            shift = 1.0 / refl.r_dist
        Bs11 = Bs11 - shift * gs11
        Bs12 = Bs12 - shift * gs12
        Bs22 = Bs22 - shift * gs22
    return ModifiedForms(gs11, gs12, gs22, Bs11, Bs12, Bs22, det_gs, det_gs_scale)


def caustic_coefficients(forms: SurfaceForms, refl: ReflectionData,
                         field: IncidentField):
    """Coefficients (p, q) of mu^2 + p mu + q = 0 on the front curvatures.

    mu = k* for a flat front and mu = k* + 1/|r - O| for a point source.
    The tangential term k_n(a_t) tan^2(theta) is computed as
    B(a_t, a_t)/cos^2(theta), its analytic continuation through normal
    incidence where a_t = 0; the (u,v) components X of a_t solve
    g X = (w1, w2).
    """
    w1, w2 = refl.w1, refl.w2
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
    scale = np.maximum(1.0, np.maximum(p * p, np.abs(q)))
    disc = p * p - 4.0 * q
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
    with np.errstate(all="ignore"):
        err_S = np.abs(S * mods.det_gs - (gs22 * Bs11 - 2.0 * gs12 * Bs12 + gs11 * Bs22))
        size_S = (S_size * mods.det_gs_scale + np.abs(gs22 * Bs11)
                  + 2.0 * np.abs(gs12 * Bs12) + np.abs(gs11 * Bs22))
        err_P = np.abs(P * mods.det_gs - (Bs11 * Bs22 - Bs12 * Bs12))
        size_P = P_size * mods.det_gs_scale + np.abs(Bs11 * Bs22) + Bs12 * Bs12
        # a zero size means every term is zero, and so is the error
        return np.maximum(err_S / np.where(size_S > 0.0, size_S, 1.0),
                          err_P / np.where(size_P > 0.0, size_P, 1.0))


def solve_sheet_curvatures(mods: ModifiedForms, coeffs, field: IncidentField,
                           r_dist=None, lit_mask=None):
    """The two front principal curvatures k*, from the quadratic, cross-checked.

    Returns (k_a, k_b, residual): the unordered root pair per point and the
    worst relative error of the root sum and product against the trace and
    determinant of the Weingarten matrix W* = g*^-1 B* on lit points.  The
    two routes share no arithmetic beyond the raw forms, so agreement
    validates both.  Raises InternalConsistencyError where the error exceeds
    _CROSSCHECK_RTOL.
    """
    p, q = coeffs
    mu_a, mu_b, clamped = _stable_quadratic_roots(p, q)
    shift = 0.0
    if isinstance(field, PointSource):
        with np.errstate(all="ignore"):
            shift = 1.0 / np.asarray(r_dist, dtype=float)
    k_a = mu_a - shift
    k_b = mu_b - shift

    lit = np.isfinite(k_a) & np.isfinite(k_b)
    if lit_mask is not None:
        lit = lit & lit_mask

    with np.errstate(all="ignore"):
        # a clamped double root keeps the sum -p and moves the product by disc/4
        P = k_a * k_b - np.where(clamped, 0.25 * (p * p - 4.0 * q), 0.0)
        # each root counts with its magnitude before the shift, |mu| + 1/rho
        mag_a = np.abs(mu_a) + shift
        mag_b = np.abs(mu_b) + shift
        err = _crosscheck_errors(mods, k_a + k_b, P, mag_a + mag_b, mag_a * mag_b)
    err = np.where(lit, err, 0.0)
    residual = float(np.max(err)) if err.size else 0.0
    if residual > _CROSSCHECK_RTOL:
        raise InternalConsistencyError(
            f"quadratic roots and the Weingarten matrix's trace and determinant "
            f"disagree by {residual:.3e} (relative)")
    return k_a, k_b, residual


@dataclass
class CausticPoint:
    """Caustic points xi = r + b/k* of one sheet, with validity flags."""

    k_star: np.ndarray
    radius: np.ndarray       # signed distance 1/k* along the reflected ray
    xi: np.ndarray
    sheet_id: int
    flags: np.ndarray        # uint8 bit field, see FLAG_* constants

    @property
    def valid(self):
        return (self.flags & FLAG_VALID) != 0

    @property
    def shadow(self):
        return (self.flags & FLAG_SHADOW) != 0

    @property
    def grazing(self):
        return (self.flags & FLAG_GRAZING) != 0

    @property
    def at_infinity(self):
        return (self.flags & FLAG_AT_INFINITY) != 0

    @property
    def excluded_zero_root(self):
        return (self.flags & FLAG_EXCLUDED_ZERO_ROOT) != 0


def caustic_point(r, b, k_star, *, field: IncidentField = None, sheet_id: int = 1,
                  eps_inf: float = EPS_INF_DEFAULT, base_flags=None) -> CausticPoint:
    """Place caustic points xi = r + b/k* and set validity flags.

    Roots with |k*| <= eps_inf have no finite caustic point: for a flat front
    they are flagged at_infinity, for a point source excluded_zero_root.
    base_flags (uint8) carries upstream shadow/grazing reasons.
    """
    r = np.asarray(r, dtype=float)
    b = np.asarray(b, dtype=float)
    k = np.asarray(k_star, dtype=float)
    shape = np.broadcast_shapes(k.shape, r.shape[:-1])
    k = np.broadcast_to(k, shape)

    flags = np.zeros(shape, dtype=np.uint8)
    if base_flags is not None:
        flags |= np.broadcast_to(np.asarray(base_flags, dtype=np.uint8), shape)

    finite_root = np.isfinite(k) & (np.abs(k) > eps_inf)
    no_point = np.isfinite(k) & ~finite_root
    zero_bit = FLAG_EXCLUDED_ZERO_ROOT if isinstance(field, PointSource) else FLAG_AT_INFINITY
    flags = flags | np.where(no_point, np.uint8(zero_bit), np.uint8(0))

    valid = finite_root & (flags == 0)
    flags = flags | np.where(valid, np.uint8(FLAG_VALID), np.uint8(0))

    with np.errstate(all="ignore"):
        radius = np.where(finite_root, 1.0 / np.where(finite_root, k, 1.0), np.inf)
        radius = np.where(np.isfinite(k), radius, np.nan)
        xi = np.where(valid[..., None], r + b * np.where(valid, radius, 0.0)[..., None], np.nan)
    return CausticPoint(k.copy(), radius, xi, sheet_id, flags)


def caustic_radius(k_star) -> np.ndarray:
    """Signed distance 1/k* from the mirror to the caustic point; inf where k* = 0."""
    k = np.asarray(k_star)
    with np.errstate(all="ignore"):
        return np.where(k != 0.0, 1.0 / np.where(k != 0.0, k, 1.0), np.inf)


@dataclass
class FrontPoint:
    """Reflected front samples rho = r + lambda b at total travel L, as (x, y, z) planes."""

    lam: np.ndarray      # post-reflection travel; negative where not yet reached
    L: float
    rho: tuple

    @property
    def arrived(self):
        return self.lam >= 0.0


def reflected_front_point(r, a, b, L, r_dist=None) -> FrontPoint:
    """Propagate the front: lambda = L - (r, a) (flat) or L - |r - O| (point).

    r, a and b are (x, y, z) planes, and so is the returned rho = r + lambda b.
    Points with lambda < 0 have not been reached by the front yet; consumers
    exclude them from export.
    """
    lam = L - (dot(r, a) if r_dist is None else np.asarray(r_dist, dtype=float))
    rho = tuple(ri + lam * bi for ri, bi in zip(r, b))
    return FrontPoint(lam, float(L), rho)


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
        self.domain = (u0, u1, v0, v1)

    def axes(self):
        u0, u1, v0, v1 = self.domain
        return np.linspace(u0, u1, self.nu), np.linspace(v0, v1, self.nv)

    def mesh(self):
        """Full (nu, nv) arrays of u and v."""
        return np.meshgrid(*self.axes(), indexing="ij")

    def block(self, rows: slice = slice(None)):
        """The u column (rows, 1) and v row (1, nv) of a block of grid rows.

        They broadcast to the block's mesh, so a surface evaluated on them
        computes each term in u alone or v alone once per grid line.
        """
        us, vs = self.axes()
        return us[rows, None], vs[None, :]


def default_max_radius(surface_diameter: float) -> float:
    """The default caustic radius cap: 10 surface diameters, positive even at 0."""
    return 10.0 * max(surface_diameter, 1e-300)


def row_blocks(nu: int, nv: int) -> list:
    """Slices of whole grid rows that hold at most BLOCK_POINTS points (one row at least)."""
    rows = max(1, BLOCK_POINTS // nv)
    return [slice(start, min(start + rows, nu)) for start in range(0, nu, rows)]


@dataclass
class CausticSheet:
    """One caustic sheet sampled over a parameter grid."""

    sheet_id: int
    u: np.ndarray            # (nu,)
    v: np.ndarray            # (nv,)
    k_star: np.ndarray       # (nu, nv)
    xi: np.ndarray           # (nu, nv, 3)
    flags: np.ndarray        # (nu, nv) uint8

    @property
    def valid(self):
        return (self.flags & FLAG_VALID) != 0


@dataclass
class SheetStatistics:
    sheet_id: int
    n_valid: int
    n_at_infinity: int
    n_excluded_zero_root: int
    bbox_min: Optional[np.ndarray]
    bbox_max: Optional[np.ndarray]
    diameter: float
    principal_extents: Optional[np.ndarray]


@dataclass
class FrontStatistics:
    """Counts, bounding boxes and degeneracy measures for both sheets."""

    nu: int
    nv: int
    n_points: int
    n_shadow: int
    n_grazing: int
    surface_bbox_min: np.ndarray
    surface_bbox_max: np.ndarray
    surface_diameter: float
    caustic_sheets: tuple = dc_field(repr=False)  # the two CausticSheets

    @functools.cached_property
    def sheets(self) -> tuple:
        """SheetStatistics of both sheets, made on first use: validate reads none."""
        return tuple(_sheet_statistics(s) for s in self.caustic_sheets)

    @property
    def empty(self) -> bool:
        return all(s.n_valid == 0 for s in self.sheets)

    def to_text(self) -> str:
        lines = [
            f"grid: {self.nu} x {self.nv} ({self.n_points} points)",
            f"shadow points: {self.n_shadow}",
            f"grazing points: {self.n_grazing}",
            f"surface bbox min: {_fmt_vec(self.surface_bbox_min)}",
            f"surface bbox max: {_fmt_vec(self.surface_bbox_max)}",
            f"surface diameter: {self.surface_diameter:.9g}",
        ]
        for s in self.sheets:
            head = f"sheet {s.sheet_id}"
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


def _column_extrema(pts):
    """(min, max) of each column of an (N, k) array, bit-identical to min/max(axis=0).

    Reducing a contiguous copy of the columns is several times faster than
    reducing across the rows.  The two layouts differ only in which zero wins
    a +0.0/-0.0 tie (and which NaN), so those columns take the axis-0 result.
    """
    cols = np.ascontiguousarray(pts.T)
    lo, hi = cols.min(axis=1), cols.max(axis=1)
    for ext, reduce in ((lo, np.min), (hi, np.max)):
        redo = (ext == 0.0) | np.isnan(ext)
        if np.any(redo):
            ext[redo] = reduce(pts, axis=0)[redo]
    return lo, hi


def _sheet_statistics(sheet: CausticSheet) -> SheetStatistics:
    valid = sheet.valid
    n_inf = int(np.count_nonzero(sheet.flags & FLAG_AT_INFINITY))
    n_zero = int(np.count_nonzero(sheet.flags & FLAG_EXCLUDED_ZERO_ROOT))
    if not np.any(valid):
        return SheetStatistics(sheet.sheet_id, 0, n_inf, n_zero, None, None, 0.0, None)
    pts = sheet.xi[valid]
    bb_min, bb_max = _column_extrema(pts)
    diameter = float(np.linalg.norm(bb_max - bb_min))
    centered = pts - pts.mean(axis=0)
    if pts.shape[0] >= 2:
        # principal-component extents flag degeneracy to a curve or a point
        _, _, vt = np.linalg.svd(centered, full_matrices=False)
        proj = centered @ vt.T
        proj_min, proj_max = _column_extrema(proj)
        extents = proj_max - proj_min
        if extents.shape[0] < 3:
            extents = np.pad(extents, (0, 3 - extents.shape[0]))
    else:
        extents = np.zeros(3)
    return SheetStatistics(sheet.sheet_id, int(np.count_nonzero(valid)), n_inf, n_zero,
                           bb_min, bb_max, diameter, extents)


def _order_roots_by_continuity(k_a, k_b, usable):
    """Assign the unordered root pairs to two sheets.

    Per grid row, roots are matched to the previous point's assignment by
    nearest value; each row starts from an ascending pair.  This prevents
    sheet-swapping artifacts where the root curves cross.  All rows advance
    together, one column at a time; a tie keeps the ascending pair and a NaN
    distance (inf - inf) swaps it.
    """
    nu, nv = k_a.shape
    s1 = np.full_like(k_a, np.nan)
    s2 = np.full_like(k_a, np.nan)
    prev1 = np.zeros(nu)
    prev2 = np.zeros(nu)
    has_prev = np.zeros(nu, dtype=bool)
    with np.errstate(invalid="ignore"):
        for j in range(nv):
            x = np.minimum(k_a[:, j], k_b[:, j])
            y = np.maximum(k_a[:, j], k_b[:, j])
            keep = np.abs(x - prev1) + np.abs(y - prev2)
            swap = np.abs(y - prev1) + np.abs(x - prev2)
            flip = has_prev & ~(keep <= swap)
            first = np.where(flip, y, x)
            second = np.where(flip, x, y)
            use = usable[:, j]
            s1[use, j] = first[use]
            s2[use, j] = second[use]
            prev1 = np.where(use, first, prev1)
            prev2 = np.where(use, second, prev2)
            has_prev |= use
    return s1, s2


def _ray_block(surface: SurfaceAST, field: IncidentField, U, V, eps_grazing: float):
    """Mirror frame, reflection data and shadow/grazing flag byte on grid points.

    The ray stages shared by compute and front; returns (frame, refl, flags).
    Vectors are (x, y, z) planes, and every result keeps the shape of what it
    depends on: broadcast it to the block before writing into it.
    """
    jet = eval_surface(surface, U, V)
    # orientation hint needs the incident direction, which needs positions
    a = incident_direction(field, jet.value())
    frame = frame_at(jet, a)
    refl = reflection_data(frame, a, field)
    return frame, refl, incidence_flags(refl.cos_theta, eps_grazing)


def _sheet_block(surface: SurfaceAST, field: IncidentField, U, V, eps_grazing: float):
    """The pointwise stages of the closed-form route on one block of grid points.

    Returns (r, b, base_flags, k_a, k_b): mirror points and reflected
    directions as (x, y, z) planes, the shadow/grazing flag byte and the
    unordered front curvatures, which are NaN off the lit region.  The roots
    are cross-checked on the block.
    """
    frame, refl, base_flags = _ray_block(surface, field, U, V, eps_grazing)
    lit = base_flags == 0
    forms = fundamental_forms(frame)
    mods = modified_forms(forms, refl, field)
    p, q = caustic_coefficients(forms, refl, field)
    p = np.where(lit, p, np.nan)
    q = np.where(lit, q, np.nan)
    k_a, k_b, _ = solve_sheet_curvatures(mods, (p, q), field, refl.r_dist, lit)
    return frame.r, refl.b, base_flags, k_a, k_b


def compute_caustic_sheets(surface: SurfaceAST, field: IncidentField, grid: GridSpec,
                           *, eps_grazing: float = EPS_GRAZING_DEFAULT,
                           eps_inf: float = EPS_INF_DEFAULT):
    """Both caustic sheets of the reflected front over a parameter grid.

    Returns (sheet1, sheet2, statistics).  Shadowed and grazing points are
    masked, not errors; roots without a finite caustic point are flagged.
    The flat-front result is independent of any front offset by construction
    (no travel parameter enters the computation).  The pointwise stages run
    over blocks of whole grid rows (see row_blocks); the result does not
    depend on the block size.
    """
    us, vs = grid.axes()
    shape = (grid.nu, grid.nv)
    r = np.empty(shape + (3,))
    b = np.empty(shape + (3,))
    base_flags = np.empty(shape, dtype=np.uint8)
    k_a = np.empty(shape)
    k_b = np.empty(shape)
    blocks = row_blocks(grid.nu, grid.nv)
    try:
        for rows in blocks:
            r_rows, b_rows, base_flags[rows], k_a[rows], k_b[rows] = _sheet_block(
                surface, field, *grid.block(rows), eps_grazing)
            for i in range(3):
                r[rows, :, i] = r_rows[i]
                b[rows, :, i] = b_rows[i]
    except (EvalDomainError, SourceOnSurfaceError, DegenerateSurfaceError,
            InternalConsistencyError):
        if len(blocks) > 1:
            # every stage is pointwise, so the whole grid fails as well; run as
            # one block it raises the grid-level error (class, count, first
            # index, worst value) that the failing block only saw part of
            _sheet_block(surface, field, *grid.block(), eps_grazing)
        raise

    k1, k2 = _order_roots_by_continuity(k_a, k_b, base_flags == 0)
    del k_a, k_b  # the placement below is the peak of the working set
    sheets = []
    for sheet_id, k in ((1, k1), (2, k2)):
        cp = caustic_point(r, b, k, field=field, sheet_id=sheet_id,
                           eps_inf=eps_inf, base_flags=base_flags)
        sheets.append(CausticSheet(sheet_id, us, vs, cp.k_star, cp.xi, cp.flags))

    surf_min, surf_max = _column_extrema(r.reshape(-1, 3))
    stats = FrontStatistics(
        nu=grid.nu, nv=grid.nv, n_points=int(base_flags.size),
        n_shadow=int(np.count_nonzero(base_flags & FLAG_SHADOW)),
        n_grazing=int(np.count_nonzero(base_flags & FLAG_GRAZING)),
        surface_bbox_min=surf_min, surface_bbox_max=surf_max,
        surface_diameter=float(np.linalg.norm(surf_max - surf_min)),
        caustic_sheets=tuple(sheets),
    )
    return sheets[0], sheets[1], stats
