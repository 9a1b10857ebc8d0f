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

validate_sheets is the entry point: it takes the closed form's roots (the
CausticRoots of caustics.caustic_roots, the first pass of compute) and, in a
second pass of caustics.fill_rows, runs the oracle, places both closed-form
sheets and keeps each point's error.  Whole-grid arrays are only k1, k2 and
the flag byte of the roots pass, and the errors and their mask of this one:
35 B per grid point; a block differences each +- stencil pair as soon as
both of its rays exist.  It reads its scene from the roots: the surface,
field, grid, grazing threshold and radius cap.  The rays come from the ray
stage that compute uses (caustics._ray_block), once per stencil point and
block, on first-order jets: a ray needs r, r_u and r_v only.  The centre ray
is therefore the closed form's mirror point and reflected direction to the
bit, and the closed-form caustic points are placed on its (x, y, z) planes
with CausticRoots.place, compute's one placement.  The focal computation is
the oracle's own: its stencil, its quadratic and its pairing of the roots
share nothing with the curvature route.  The radius cap holds for the
oracle's focal distances as well.  A ray the stage flags (grazing, off the
chart, singular or on the point source) makes its stencil unusable.  The
oracle decides a grid point by one rule: where its centre ray is flagged (no
focal point) or where all five stencil rays are lit.  Everywhere else, and
where the closed form's evaluation left the chart, it gives no verdict.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .caustics import FLAG_DOMAIN, FLAG_VALID, _ray_block, caustic_radius, fill_rows
from .diffgeo import cross, dot

__all__ = ["ValidationReport", "validate_sheets"]

FD_STEP_DEFAULT = 1e-4
VALIDATION_TOL_DEFAULT = 1e-4


def _focal_quadratic(surface, field, U, V, h, eps_grazing):
    """FD-assembled coefficients (c0, c1, c2) of det[d_u F, d_v F, b](lambda).

    Returns (coeffs, r0, b0, ok, decided) with r0 and b0 the mirror points
    and reflected directions at (U, V) as (x, y, z) planes.  A point is ok
    where all five stencil rays are lit, so the coefficients hold; decided
    where it is ok or its centre ray is flagged.  A lit centre with a flagged
    stencil ray is undecided: the oracle cannot tell whether it focuses.
    """
    shape = np.broadcast_shapes(np.shape(U), np.shape(V))

    def full(x):
        return np.broadcast_to(x, shape)

    def rays(u, v):
        frame, refl, flags = _ray_block(surface, field, u, v, eps_grazing, order=1)
        return tuple(map(full, frame.r)), tuple(map(full, refl.b)), full(flags)

    r0, b0, flags = rays(U, V)
    ok = flags == 0
    inv2h = 1.0 / (2.0 * h)

    def central(plus, minus):
        """r and b differenced between the rays at two stencil points.

        Called per +- pair, so at most two stencil rays are alive at a time.
        """
        nonlocal ok
        (rp, bp, fp), (rm, bm, fm) = rays(*plus), rays(*minus)
        ok = ok & (fp == 0) & (fm == 0)
        return (tuple((p - m) * inv2h for p, m in zip(rp, rm)),
                tuple((p - m) * inv2h for p, m in zip(bp, bm)))

    ru, bu = central((U + h, V), (U - h, V))
    rv, bv = central((U, V + h), (U, V - h))

    def det3(x, y, z):
        return dot(cross(x, y), z)

    c0 = det3(ru, rv, b0)
    c1 = det3(bu, rv, b0) + det3(ru, bv, b0)
    c2 = det3(bu, bv, b0)
    return (c0, c1, c2), r0, b0, ok, ok | (flags != 0)


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


def _point_errors(roots, rows, placed, r0, b0, ok, decided, lam):
    """Caustic-point errors of both sheets on a block of grid rows.

    placed holds the closed form's (xi, flags) of both sheets on the rows,
    xi as (x, y, z) planes.  Returns (err, both, n_disagree): the (2, rows,
    nv) distances between the closed-form and the oracle caustic points, the
    mask of points both sides call valid, and the number of decided
    sheet-points only one side calls valid.  The closed form's valid points
    are already inside the radius cap; the oracle's focal distances are held
    to it here.  The oracle decides a point where its centre ray is flagged
    or all five stencil rays are lit; the closed form has no answer where
    its own evaluation left the chart (FLAG_DOMAIN), which at order 2 also
    covers a second derivative that is not finite.  No mismatch is counted
    where either side has no verdict.
    """
    oracle_ok = ok[None] & (np.abs(lam) <= roots.max_radius) & np.isfinite(lam)
    decided = decided & ((roots.base_flags[rows] & FLAG_DOMAIN) == 0)

    # pair closed-form radii with oracle roots by least total |difference| over
    # the usable radii: a zero root's ~1e16 radius would leave it to rounding
    with np.errstate(all="ignore"):
        cf = np.stack([caustic_radius(k[rows]) for k in (roots.k1, roots.k2)])
        cf_ok = np.stack([(flags & FLAG_VALID) != 0 for _, flags in placed])
        keep = np.where(cf_ok, np.abs(cf - lam), 0.0)
        swap = np.where(cf_ok, np.abs(cf - lam[::-1]), 0.0)
        swap_better = swap[0] + swap[1] < keep[0] + keep[1]
        orc = np.where(swap_better[None], lam[::-1], lam)
        oracle_ok = np.where(swap_better[None], oracle_ok[::-1], oracle_ok)

        both = cf_ok & oracle_ok
        disagree = int(np.count_nonzero((cf_ok != oracle_ok) & decided))

        # xi_cf - (r0 + lambda b0) per sheet and coordinate plane
        diff = [np.where(both, np.stack([xi[c] for xi, _ in placed])
                         - (r0[c] + orc * b0[c]), 0.0) for c in range(3)]
        err = _norm_planes(diff)
    return err, both, disagree


def _norm_planes(d):
    """|d| of (x, y, z) planes, rounded as np.linalg.norm(axis=-1) of (..., 3) arrays.

    np.linalg.norm sums the squares of a length-3 axis as (d0^2 + d1^2) + d2^2.
    """
    return np.sqrt((d[0] * d[0] + d[1] * d[1]) + d[2] * d[2])


def validate_sheets(roots, h: float = FD_STEP_DEFAULT,
                    tol: float = VALIDATION_TOL_DEFAULT) -> ValidationReport:
    """Compare the closed-form caustic sheets against the brute-force oracle.

    roots is the CausticRoots of caustics.caustic_roots: the closed form's
    first pass, which holds k1, k2 and the flag byte over the grid, and the
    scene (surface, field, grid, eps_grazing, eps_inf and max_radius).  One
    pass of fill_rows then runs the oracle on each block.  Its centre ray is
    the closed form's r and b to the bit, so roots.place on its (x, y, z)
    planes gives the closed-form sheets' points and flags as
    compute_caustic_sheets gives them; the focal distances come from the
    oracle's own stencil and quadratic.  The pass compares the two and
    counts the flag mismatches where both decide: the oracle where a grid
    point's centre ray is flagged or its five stencil rays are all lit, the
    closed form where it stayed on the chart.  Only the errors and their
    mask are kept over the grid, so with the roots the whole-grid arrays
    are 35 B per point.  The error at a point is the distance between the
    closed-form caustic point and r + lambda_oracle * b after pairing the
    roots by least total difference.  Points whose caustic lies beyond the
    radius cap are excluded on both sides: far focal points amplify any
    derivative noise linearly with distance and carry no geometric
    information here.
    """
    grid = roots.grid
    disagree = 0

    def block_errors(U, V, rows):
        nonlocal disagree
        coeffs, r0, b0, ok, decided = _focal_quadratic(roots.surface, roots.field, U, V, h,
                                                       roots.eps_grazing)
        lam = np.stack(_roots_of_focal_quadratic(*coeffs))
        placed = roots.place(rows, r0, b0)  # compute's placement, on the centre ray
        err, both, n = _point_errors(roots, rows, placed, r0, b0, ok, decided, lam)
        disagree += n
        return tuple(err), tuple(both)  # a plane per sheet

    err, both = fill_rows(grid, block_errors)
    # err[both] of the (2, nu, nv) arrays lists the compared points one sheet
    # after the other, whatever the block size; the mean sums them in that order
    errors = err[both]

    n_compared = int(errors.size)
    if n_compared:
        max_err = float(errors.max())
        mean_err = float(errors.mean())
        # the percentiles partition errors in place, after the reductions that read its order
        summary = (mean_err, *map(float, np.percentile(errors, (50, 90, 99),
                                                       overwrite_input=True)))
        passed = max_err <= tol
    else:
        max_err = float("inf")
        summary = (float("inf"),) * 4
        passed = False
    return ValidationReport(
        nu=grid.nu, nv=grid.nv, fd_step=float(h), tol=float(tol), max_radius=roots.max_radius,
        n_points=grid.nu * grid.nv, n_compared=n_compared, n_flag_disagreements=disagree,
        max_error=max_err, mean_error=summary[0], p50=summary[1], p90=summary[2], p99=summary[3],
        passed=passed,
    )
