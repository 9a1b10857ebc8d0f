"""Pointwise differential geometry of a parametric surface.

Everything here is vectorized on 3-vectors given as (x, y, z) component
planes: tuples of three arrays (or scalars) that broadcast together, each
keeping the shape of what it depends on.  Conventions used throughout:

* the unit normal n is the chart's own, (r_u x r_v)/|r_u x r_v|: the mirror
  is two-sided, and the caustic does not change under n -> -n;
* the second fundamental form is B_ij = (d_i d_j r, n), which makes the unit
  sphere with inward normal have H = K = +1.

The caustic reads the mirror's curvature only through g, B, H and K; no
stage needs the principal curvatures or directions, so none are made.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .jets import Jet2, Jet2Vec3

__all__ = [
    "FrameData", "SurfaceForms", "flat_stand_in",
    "frame_at", "fundamental_forms", "dot", "cross", "norm",
]

REGULARITY_RTOL = 1e-12     # |r_u x r_v| below this times |r_u||r_v| is degenerate

# slots (f, fu, fv, fuu, fuv, fvv) of the x, y and z jets of the plane (u, v, 0)
_PLANE_SLOTS = ((0.0, 1.0, 0.0, 0.0, 0.0, 0.0), (0.0, 0.0, 1.0, 0.0, 0.0, 0.0), (0.0,) * 6)


def dot(x, y):
    """(x, y) of component planes, rounded as numpy's einsum on (..., 3) arrays.

    einsum sums a length-3 axis as (x0 y0 + x2 y2) + x1 y1 starting from
    +0.0, so three -0.0 products give +0.0; the pinned output bytes rest on it.
    """
    return (x[0] * y[0] + x[2] * y[2]) + x[1] * y[1] + 0.0


def cross(x, y):
    """x cross y of 3-vectors given as component planes (np.cross's rounding)."""
    return (x[1] * y[2] - x[2] * y[1],
            x[2] * y[0] - x[0] * y[2],
            x[0] * y[1] - x[1] * y[0])


def norm(x):
    return np.sqrt(dot(x, x))


@dataclass
class FrameData:
    """Position, partials and the chart's unit normal at surface points.

    The vectors are tuples of (x, y, z) planes, the jet's own slot arrays on
    a regular chart; the second derivatives hold None where the jet is of
    first order.  regular is False where the chart is singular.
    """

    r: tuple
    r_u: tuple
    r_v: tuple
    r_uu: tuple
    r_uv: tuple
    r_vv: tuple
    n: tuple
    regular: np.ndarray


@dataclass
class SurfaceForms:
    """First and second fundamental forms, det g, mean and Gaussian curvature."""

    g11: np.ndarray
    g12: np.ndarray
    g22: np.ndarray
    B11: np.ndarray
    B12: np.ndarray
    B22: np.ndarray
    det_g: np.ndarray
    H: np.ndarray
    K: np.ndarray


def flat_stand_in(jet: Jet2Vec3, mask) -> Jet2Vec3:
    """jet, with the jet of the plane (u, v, 0) at its origin where mask is set.

    There r = 0, r_u = e_x, r_v = e_y and the second derivatives, if the jet
    has them, vanish: a regular frame, n = e_z, on which every later stage
    computes finite numbers.
    """
    return Jet2Vec3(*(Jet2.of([np.where(mask, p, x) for p, x in zip(plane, c.slots())])
                      for plane, c in zip(_PLANE_SLOTS, jet.components())))


def frame_at(jet: Jet2Vec3) -> FrameData:
    """Build the frame at surface points, with n = (r_u x r_v)/|r_u x r_v|.

    Where the chart is singular, including where r_u or r_v vanishes,
    regular is False and the frame is flat_stand_in's, with the point's own r.
    """
    r, r_u, r_v = jet.value(), jet.d_u(), jet.d_v()
    c = cross(r_u, r_v)
    cn = norm(c)
    # strict, so that a vanishing r_u or r_v (0 > 0 fails) is degenerate too
    regular = cn > REGULARITY_RTOL * norm(r_u) * norm(r_v)
    if not np.all(regular):
        jet = flat_stand_in(jet, ~regular)
        c = cross(jet.d_u(), jet.d_v())
        cn = norm(c)
    n = tuple(ci / cn for ci in c)
    return FrameData(r, jet.d_u(), jet.d_v(), jet.d_uu(), jet.d_uv(), jet.d_vv(), n, regular)


def fundamental_forms(frame: FrameData) -> SurfaceForms:
    """First/second fundamental forms, det g, H and K at the frame's points."""
    g11 = dot(frame.r_u, frame.r_u)
    g12 = dot(frame.r_u, frame.r_v)
    g22 = dot(frame.r_v, frame.r_v)
    B11 = dot(frame.r_uu, frame.n)
    B12 = dot(frame.r_uv, frame.n)
    B22 = dot(frame.r_vv, frame.n)

    det_g = g11 * g22 - g12 * g12
    K = (B11 * B22 - B12 * B12) / det_g
    H = (g22 * B11 - 2.0 * g12 * B12 + g11 * B22) / (2.0 * det_g)
    return SurfaceForms(g11, g12, g22, B11, B12, B22, det_g, H, K)
