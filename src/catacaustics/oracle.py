"""Brute-force validation of the caustic sheets.

The reflected rays form the two-parameter family F(u, v, lambda) = r + lambda b.
A focal (caustic) point is where neighboring rays meet to first order, i.e.
where the Jacobian of the family drops rank:

    det[ d_u F, d_v F, b ](lambda) = 0.

With d_u(r, b) and d_v(r, b) estimated by central finite differences, the
determinant is an explicit quadratic polynomial in lambda, so its two roots --
the signed focal distances along each ray -- come out in closed form.  None of
the fundamental-form machinery is touched, which makes this an independent
check of the curvature route.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .caustics import (EPS_GRAZING_DEFAULT, FLAG_VALID, GridSpec,
                       IncidentField, PointSource, _check_source_distance,
                       _column_extrema, caustic_radius, row_blocks)
from .diffgeo import REGULARITY_RTOL
from .surfacelang import EvalDomainError, SurfaceAST, eval_surface

__all__ = [
    "RaySample", "ValidationReport", "GrazingIncidenceError",
    "reflected_ray", "focal_distances_bruteforce", "validate_sheets",
]

FD_STEP_DEFAULT = 1e-4
FD_STEP_RANGE = (1e-6, 1e-3)
VALIDATION_TOL_DEFAULT = 1e-4


class GrazingIncidenceError(ValueError):
    """The requested point is grazing or shadowed; no reflected ray exists."""


@dataclass
class RaySample:
    """One reflected ray: origin on the mirror, unit direction, parameter tag."""

    origin: np.ndarray
    direction: np.ndarray
    u: float
    v: float


def _dot3(x, y):
    """(x, y) of 3-vectors given as (x, y, z) component planes.

    Summed as (x0 y0 + x2 y2) + x1 y1: that is the order in which numpy's
    einsum reduces a length-3 axis (diffgeo.dot), so the planes round
    exactly as the (..., 3) arrays of the closed-form route do.
    """
    return (x[0] * y[0] + x[2] * y[2]) + x[1] * y[1]


def _cross3(x, y):
    """x cross y of 3-vectors given as component planes (np.cross's rounding)."""
    return (x[1] * y[2] - x[2] * y[1],
            x[2] * y[0] - x[0] * y[2],
            x[0] * y[1] - x[1] * y[0])


def _ray_bundle(surface: SurfaceAST, field: IncidentField, U, V,
                eps_grazing: float = EPS_GRAZING_DEFAULT):
    """Vectorized rays with a lit-mask; silently masks degenerate points.

    Returns (r, b, lit, flipped): the mirror points and unit reflected
    directions as (x, y, z) planes of the broadcast shape of U and V, the
    lit mask and where the raw normal r_u x r_v faces the light.
    """
    U = np.asarray(U, dtype=float)
    V = np.asarray(V, dtype=float)
    shape = np.broadcast_shapes(U.shape, V.shape)
    jet = eval_surface(surface, U, V)
    r = tuple(c.f for c in jet.components())
    ru = tuple(c.fu for c in jet.components())
    rv = tuple(c.fv for c in jet.components())

    c = _cross3(ru, rv)
    cn = np.sqrt(_dot3(c, c))
    # strict, so that a vanishing r_u or r_v (0 > 0 fails) is degenerate too
    regular = cn > REGULARITY_RTOL * np.sqrt(_dot3(ru, ru)) * np.sqrt(_dot3(rv, rv))
    with np.errstate(all="ignore"):
        inv = np.where(cn > 0.0, cn, 1.0)
        n_raw = tuple(ci / inv for ci in c)
    if isinstance(field, PointSource):
        d = tuple(ri - oi for ri, oi in zip(r, field.origin))
        dist = np.sqrt(_dot3(d, d))
        _check_source_distance(dist)
        a = tuple(di / dist for di in d)
    else:
        a = tuple(field.direction)
    side = _dot3(a, n_raw)
    flipped = side > 0.0
    # the mirror law b = a - 2 (a, n) n is even in n and IEEE negation is
    # exact, so reflecting in n_raw gives the same bits as in the oriented n
    b = tuple(ai - 2.0 * side * ni for ai, ni in zip(a, n_raw))
    lit = regular & (np.abs(side) > eps_grazing)

    def full(planes):
        return tuple(np.broadcast_to(x, shape) for x in planes)

    return full(r), full(b), np.broadcast_to(lit, shape), np.broadcast_to(flipped, shape)


def reflected_ray(surface: SurfaceAST, field: IncidentField, u: float, v: float,
                  eps_grazing: float = EPS_GRAZING_DEFAULT) -> RaySample:
    """The reflected ray at a single lit parameter point."""
    r, b, lit, _ = _ray_bundle(surface, field, float(u), float(v), eps_grazing)
    if not bool(np.all(lit)):
        raise GrazingIncidenceError(f"no reflected ray at (u, v) = ({u}, {v}): "
                                    "grazing incidence or degenerate chart")
    return RaySample(np.array(r, dtype=float), np.array(b, dtype=float), float(u), float(v))


def _bundle_or_mask(surface, field, U, V, eps_grazing):
    """Ray bundle that degrades to per-point evaluation on domain errors."""
    try:
        return _ray_bundle(surface, field, U, V, eps_grazing)
    except EvalDomainError:
        pass
    shape = np.broadcast_shapes(np.shape(U), np.shape(V))
    U = np.broadcast_to(np.asarray(U, dtype=float), shape)
    V = np.broadcast_to(np.asarray(V, dtype=float), shape)
    r = np.zeros((3,) + shape)
    b = np.zeros((3,) + shape)
    lit = np.zeros(shape, dtype=bool)
    flipped = np.zeros(shape, dtype=bool)
    for idx in np.ndindex(shape):
        try:
            ri, bi, li, fi = _ray_bundle(surface, field, U[idx], V[idx], eps_grazing)
        except EvalDomainError:
            continue
        r[(slice(None),) + idx], b[(slice(None),) + idx] = ri, bi
        lit[idx], flipped[idx] = li, fi
    return tuple(r), tuple(b), lit, flipped


def _focal_quadratic(surface, field, U, V, h, eps_grazing):
    """FD-assembled coefficients (c0, c1, c2) of det[d_u F, d_v F, b](lambda).

    Returns (coeffs, r0, b0, ok) with r0 and b0 the (..., 3) mirror points
    and reflected directions at (U, V).
    """
    r0, b0, lit0, flip0 = _bundle_or_mask(surface, field, U, V, eps_grazing)
    rpu, bpu, lpu, fpu = _bundle_or_mask(surface, field, U + h, V, eps_grazing)
    rmu, bmu, lmu, fmu = _bundle_or_mask(surface, field, U - h, V, eps_grazing)
    rpv, bpv, lpv, fpv = _bundle_or_mask(surface, field, U, V + h, eps_grazing)
    rmv, bmv, lmv, fmv = _bundle_or_mask(surface, field, U, V - h, eps_grazing)

    ok = lit0 & lpu & lmu & lpv & lmv
    # a stencil straddling an orientation fold would difference two normals of
    # opposite sign; treat such points as unusable rather than produce garbage
    consistent = (fpu == flip0) & (fmu == flip0) & (fpv == flip0) & (fmv == flip0)
    ok &= consistent

    inv2h = 1.0 / (2.0 * h)

    def central(plus, minus):
        return tuple((p - m) * inv2h for p, m in zip(plus, minus))

    ru, rv = central(rpu, rmu), central(rpv, rmv)
    bu, bv = central(bpu, bmu), central(bpv, bmv)

    def det3(x, y, z):
        return _dot3(_cross3(x, y), z)

    c0 = det3(ru, rv, b0)
    c1 = det3(bu, rv, b0) + det3(ru, bv, b0)
    c2 = det3(bu, bv, b0)
    return (c0, c1, c2), np.stack(r0, axis=-1), np.stack(b0, axis=-1), ok


def _roots_of_focal_quadratic(c0, c1, c2):
    """Signed focal distances; infinite where the family does not focus.

    The true determinant always has real roots; a negative discriminant can
    only come from finite-difference noise at a near-double root, so it is
    clamped to the double root -c1/(2 c2).
    """
    c0 = np.asarray(c0, dtype=float)
    c1 = np.asarray(c1, dtype=float)
    c2 = np.asarray(c2, dtype=float)
    disc = np.maximum(c1 * c1 - 4.0 * c2 * c0, 0.0)
    sq = np.sqrt(disc)
    t = -0.5 * (c1 + np.copysign(sq, c1))
    with np.errstate(all="ignore"):
        lam_a = np.where(c2 != 0.0, t / np.where(c2 != 0.0, c2, 1.0), np.inf)
        lam_b = np.where(t != 0.0, c0 / np.where(t != 0.0, t, 1.0), np.inf)
        # t == 0 with a quadratic term means a double root at -c1/(2 c2)
        dbl = (t == 0.0) & (c2 != 0.0)
        lam_b = np.where(dbl, -0.5 * c1 / np.where(dbl, c2, 1.0), lam_b)
        none_ = (c2 == 0.0) & (c1 == 0.0)
        lam_a = np.where(none_, np.inf, lam_a)
        lam_b = np.where(none_, np.inf, lam_b)
    return lam_a, lam_b


def focal_distances_bruteforce(surface: SurfaceAST, field: IncidentField,
                               u: float, v: float, h: float = FD_STEP_DEFAULT,
                               eps_grazing: float = EPS_GRAZING_DEFAULT):
    """The two signed focal distances along the reflected ray at (u, v).

    Distances are the lambda-roots of the rank-drop determinant; either may be
    negative (virtual caustic behind the mirror) or infinite (no focusing).
    """
    lo, hi = FD_STEP_RANGE
    if not (lo <= h <= hi):
        raise ValueError(f"finite-difference step must lie in [{lo}, {hi}]")
    coeffs, _, _, ok = _focal_quadratic(surface, field, float(u), float(v), h, eps_grazing)
    if not bool(np.all(ok)):
        raise GrazingIncidenceError(
            f"focal distances undefined at (u, v) = ({u}, {v}): grazing point "
            "or finite-difference stencil left the chart")
    lam_a, lam_b = _roots_of_focal_quadratic(*coeffs)
    return float(lam_a), float(lam_b)


@dataclass
class ValidationReport:
    """Outcome of comparing closed-form sheets against the ray-envelope oracle."""

    nu: int
    nv: int
    fd_step: float
    tol: float
    max_radius: float
    n_points: int
    n_compared: int
    n_flag_disagreements: int
    max_error: float
    mean_error: float
    p50: float
    p90: float
    p99: float
    passed: bool

    def to_text(self) -> str:
        lines = [
            "oracle validation (ray-envelope rank drop vs closed form)",
            f"  grid:              {self.nu} x {self.nv} ({self.n_points} points per sheet)",
            f"  fd step:           {self.fd_step:.3e}",
            f"  tolerance:         {self.tol:.3e}",
            f"  caustic radius cap: {self.max_radius:.6g}",
            f"  compared:          {self.n_compared} sheet-points",
            f"  flag mismatches:   {self.n_flag_disagreements}",
        ]
        if self.n_compared:
            lines += [
                f"  max error:         {self.max_error:.6e}",
                f"  mean error:        {self.mean_error:.6e}",
                f"  p50/p90/p99:       {self.p50:.3e} / {self.p90:.3e} / {self.p99:.3e}",
            ]
        else:
            lines.append("  no mutually valid points to compare")
        lines.append(f"  result:            {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines) + "\n"


def _point_errors(sheets, rows, r0, b0, ok, lam, max_radius):
    """Caustic-point errors of both sheets on a block of grid rows.

    Returns (err, both, n_disagree): the (2, rows, nv) distances between the
    closed-form and the oracle caustic points, the mask of points both sides
    call valid, and the number of sheet-points only one side calls valid.
    """
    def sheet_side(sheet):
        radius = caustic_radius(sheet.k_star[rows])
        usable = ((sheet.flags[rows] & FLAG_VALID) != 0) & (np.abs(radius) <= max_radius)
        return radius, usable

    rad1, use1 = sheet_side(sheets[0])
    rad2, use2 = sheet_side(sheets[1])
    oracle_ok = ok[None] & (np.abs(lam) <= max_radius) & np.isfinite(lam)

    # pair closed-form radii with oracle roots by least total |difference|
    with np.errstate(all="ignore"):
        cf = np.stack([rad1, rad2])
        keep = np.abs(cf[0] - lam[0]) + np.abs(cf[1] - lam[1])
        swap = np.abs(cf[0] - lam[1]) + np.abs(cf[1] - lam[0])
        swap_better = swap < keep
        orc = np.where(swap_better[None], lam[::-1], lam)
        oracle_ok = np.where(swap_better[None], oracle_ok[::-1], oracle_ok)

        cf_ok = np.stack([use1, use2])
        both = cf_ok & oracle_ok
        disagree = int(np.count_nonzero(cf_ok != oracle_ok))

        xi_cf = np.stack([sheets[0].xi[rows], sheets[1].xi[rows]])
        xi_or = r0[None] + orc[..., None] * b0[None]
        err = np.linalg.norm(np.where(both[..., None], xi_cf - xi_or, 0.0), axis=-1)
    return err, both, disagree


def validate_sheets(closed_form, surface: SurfaceAST, field: IncidentField,
                    grid: GridSpec, h: float = FD_STEP_DEFAULT,
                    tol: float = VALIDATION_TOL_DEFAULT,
                    max_radius: Optional[float] = None,
                    eps_grazing: float = EPS_GRAZING_DEFAULT) -> ValidationReport:
    """Compare two closed-form CausticSheets against the brute-force oracle.

    closed_form is the (sheet1, sheet2) pair computed on the same grid.  The
    error at a point is the distance between the closed-form caustic point and
    r + lambda_oracle * b after pairing the roots by least total difference.
    Points whose caustic lies beyond max_radius (default: 10 surface diameters)
    are excluded on both sides: far focal points amplify any derivative noise
    linearly with distance and carry no geometric information here.
    """
    sheet1, sheet2 = closed_form
    if sheet1.k_star.shape != (grid.nu, grid.nv) or sheet2.k_star.shape != (grid.nu, grid.nv):
        raise ValueError("closed-form sheets were not computed on the given grid")

    shape = (grid.nu, grid.nv)
    r0 = np.empty(shape + (3,))
    b0 = np.empty(shape + (3,))
    ok = np.empty(shape, dtype=bool)
    lam = np.empty((2,) + shape)       # the two oracle roots, sheet-major
    blocks = row_blocks(grid.nu, grid.nv)
    for rows in blocks:
        coeffs, r0[rows], b0[rows], ok[rows] = _focal_quadratic(
            surface, field, *grid.block(rows), h, eps_grazing)
        lam[0, rows], lam[1, rows] = _roots_of_focal_quadratic(*coeffs)

    if max_radius is None:
        lo, hi = _column_extrema(r0.reshape(-1, 3))
        max_radius = 10.0 * float(np.linalg.norm(hi - lo))
    max_radius = float(max_radius)

    # per-point errors into sheet-major arrays, so that err[both] lists the
    # compared points in the same order whatever the block size
    err = np.empty((2,) + shape)
    both = np.empty((2,) + shape, dtype=bool)
    disagree = 0
    for rows in blocks:
        err[:, rows], both[:, rows], n = _point_errors(
            (sheet1, sheet2), rows, r0[rows], b0[rows], ok[rows], lam[:, rows], max_radius)
        disagree += n
    errors = err[both]

    n_compared = int(errors.size)
    if n_compared:
        max_err = float(errors.max())
        stats = (float(errors.mean()), *(float(np.percentile(errors, p)) for p in (50, 90, 99)))
        passed = max_err <= tol
    else:
        max_err = float("inf")
        stats = (float("inf"),) * 4
        passed = False
    return ValidationReport(
        nu=grid.nu, nv=grid.nv, fd_step=float(h), tol=float(tol), max_radius=max_radius,
        n_points=grid.nu * grid.nv, n_compared=n_compared, n_flag_disagreements=disagree,
        max_error=max_err, mean_error=stats[0], p50=stats[1], p90=stats[2], p99=stats[3],
        passed=passed,
    )

