"""Pointwise differential geometry of a parametric surface.

Everything here is vectorized on 3-vectors given as (x, y, z) component
planes: tuples of three arrays (or scalars) that broadcast together, each
keeping the shape of what it depends on.  Conventions used throughout:

* the unit normal n is oriented per evaluation so that the incident direction
  satisfies (a, n) <= 0 (the mirror faces the light);
* the second fundamental form is B_ij = (d_i d_j r, n), which makes the unit
  sphere with inward normal have principal curvatures +1.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .jets import Jet2Vec3

__all__ = [
    "FrameData", "SurfaceForms", "DegenerateSurfaceError",
    "frame_at", "fundamental_forms", "shape_frame", "normal_curvature",
    "dot", "cross", "norm",
]

REGULARITY_RTOL = 1e-12     # |r_u x r_v| below this times |r_u||r_v| is degenerate
UMBILIC_RTOL = 1e-9         # |k1 - k2| below this times max(1, |k1|) is umbilic
_DISC_DOUBLE_RTOL = 2e-13   # |disc| below this times scale collapses to a double root


class DegenerateSurfaceError(ValueError):
    """The parameterization is singular: r_u x r_v vanishes."""


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
    """Position, partials and the oriented unit normal at surface points.

    Each field is a tuple of (x, y, z) planes; r and the partials are the
    jet's own slot arrays, not copies.
    """

    r: tuple
    r_u: tuple
    r_v: tuple
    r_uu: tuple
    r_uv: tuple
    r_vv: tuple
    n: tuple


@dataclass
class SurfaceForms:
    """Fundamental forms and curvature data; k1 <= k2."""

    g11: np.ndarray
    g12: np.ndarray
    g22: np.ndarray
    B11: np.ndarray
    B12: np.ndarray
    B22: np.ndarray
    det_g: np.ndarray
    H: np.ndarray
    K: np.ndarray

    @property
    def k1(self) -> np.ndarray:
        return self._curvatures[0]

    @property
    def k2(self) -> np.ndarray:
        return self._curvatures[1]

    @property
    def umbilic(self) -> np.ndarray:
        """Where True, dir1/dir2 are an arbitrary orthonormal pair."""
        return self._curvatures[2]

    @property
    def dir1(self) -> np.ndarray:
        """(u,v)-components of the k1 principal direction, unit in the metric."""
        return self._directions[0]

    @property
    def dir2(self) -> np.ndarray:
        """(u,v)-components of the k2 principal direction, unit in the metric."""
        return self._directions[1]

    @functools.cached_property
    def _curvatures(self):
        # the pipeline reads only H and K, so k1, k2 and umbilic are made on first use
        return _principal_curvatures(self.H, self.K)

    @functools.cached_property
    def _directions(self):
        # only shape_frame reads the directions, so they are made on first use
        return _principal_directions(self)


def frame_at(jet: Jet2Vec3, incident_hint) -> FrameData:
    """Build the oriented frame at surface points.

    The raw normal (r_u x r_v)/|r_u x r_v| is negated wherever it has a
    positive dot product with the incident hint, so (hint, n) <= 0 holds
    pointwise: the mirror is two-sided, and every point faces the light (no
    point is in shadow; see caustics.incidence_flags).  Raises
    DegenerateSurfaceError if the chart is singular anywhere in the batch,
    including where r_u or r_v vanishes.
    """
    r, r_u, r_v = jet.value(), jet.d_u(), jet.d_v()
    c = cross(r_u, r_v)
    cn = norm(c)
    # strict, so that a vanishing r_u or r_v (0 > 0 fails) is degenerate too
    ok = cn > REGULARITY_RTOL * norm(r_u) * norm(r_v)
    if not np.all(ok):
        # count and locate on the block's grid, not on the shape of the normal
        ok = np.broadcast_to(ok, np.broadcast(*r, *r_u, *r_v, *incident_hint).shape)
        idx = np.argwhere(~np.atleast_1d(ok))
        raise DegenerateSurfaceError(
            f"degenerate parameterization (r_u x r_v ~ 0) at {idx.shape[0]} "
            f"point(s), first at grid index {tuple(int(i) for i in idx[0])}")
    n = tuple(ci / cn for ci in c)
    flip = dot(incident_hint, n) > 0.0
    n = tuple(np.where(flip, -ni, ni) for ni in n)
    return FrameData(r, r_u, r_v, jet.d_uu(), jet.d_uv(), jet.d_vv(), n)


def fundamental_forms(frame: FrameData) -> SurfaceForms:
    """First/second fundamental forms, H and K; principal curvatures and directions on demand."""
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


def _principal_curvatures(H, K):
    """(k1, k2, umbilic) with k1 = H - sqrt(H^2 - K) <= k2 = H + sqrt(H^2 - K)."""
    # a double root's discriminant lands at round-off, which sqrt would smear
    disc = H * H - K
    scale = np.maximum(1.0, np.maximum(H * H, np.abs(K)))
    disc = np.where(np.abs(disc) <= _DISC_DOUBLE_RTOL * scale, 0.0, np.maximum(disc, 0.0))
    sq = np.sqrt(disc)
    k1 = H - sq
    k2 = H + sq
    umbilic = np.abs(k2 - k1) < UMBILIC_RTOL * np.maximum(1.0, np.abs(k1))
    return k1, k2, umbilic


def _principal_directions(forms: SurfaceForms):
    """Metric-unit principal directions (dir1, dir2) of the k1 and k2 curvatures."""
    g11, g12, g22, det_g = forms.g11, forms.g12, forms.g22, forms.det_g
    B11, B12, B22 = forms.B11, forms.B12, forms.B22
    k1, k2, umbilic = forms.k1, forms.k2, forms.umbilic

    # shape operator S = g^{-1} B (mixed components)
    S11 = (g22 * B11 - g12 * B12) / det_g
    S12 = (g22 * B12 - g12 * B22) / det_g
    S21 = (g11 * B12 - g12 * B11) / det_g
    S22 = (g11 * B22 - g12 * B12) / det_g

    def eigendirection(k):
        # rows of (S - k I) are both orthogonal to the eigenvector; use the
        # better-conditioned of the two null-space candidates
        c1 = np.stack([S12, k - S11], axis=-1)
        c2 = np.stack([k - S22, S21], axis=-1)
        n1 = c1[..., 0] ** 2 + c1[..., 1] ** 2
        n2 = c2[..., 0] ** 2 + c2[..., 1] ** 2
        X = np.where((n1 >= n2)[..., None], c1, c2)
        good = np.maximum(n1, n2) > 0.0
        return X, good

    X1, good1 = eigendirection(k1)
    X2, good2 = eigendirection(k2)

    # fallback pair, orthonormal in the metric: d_u/|d_u| and its g-orthogonal
    zeros = np.zeros_like(g11)
    Xa = np.stack([1.0 / np.sqrt(g11), zeros], axis=-1)
    Xb = np.stack([-g12, g11], axis=-1) / np.sqrt(g11 * det_g)[..., None]
    use_fallback = umbilic | ~good1 | ~good2
    X1 = np.where(use_fallback[..., None], Xa, X1)
    X2 = np.where(use_fallback[..., None], Xb, X2)

    def g_normalize(X):
        q = g11 * X[..., 0] ** 2 + 2.0 * g12 * X[..., 0] * X[..., 1] + g22 * X[..., 1] ** 2
        X = X / np.sqrt(q)[..., None]
        # deterministic sign: leading significant component positive
        lead = np.where(np.abs(X[..., 0]) >= np.abs(X[..., 1]), X[..., 0], X[..., 1])
        return X * np.where(lead < 0.0, -1.0, 1.0)[..., None]

    return g_normalize(X1), g_normalize(X2)


def shape_frame(frame: FrameData, forms: SurfaceForms):
    """Right-handed orthonormal frame (e1, e2, n) of component planes; e1, e2 principal."""

    def embed(X):
        return tuple(X[..., 0] * ru + X[..., 1] * rv for ru, rv in zip(frame.r_u, frame.r_v))

    e1 = embed(forms.dir1)
    e2 = embed(forms.dir2)
    flip = dot(cross(e1, e2), frame.n) < 0.0
    return e1, tuple(np.where(flip, -c, c) for c in e2), frame.n


def normal_curvature(forms: SurfaceForms, X) -> np.ndarray:
    """Normal curvature B(X, X)/g(X, X) for a tangent direction X in (u,v) components."""
    X = np.asarray(X, dtype=float)
    x0, x1 = X[..., 0], X[..., 1]
    gXX = forms.g11 * x0 * x0 + 2.0 * forms.g12 * x0 * x1 + forms.g22 * x1 * x1
    if np.any(gXX <= 0.0):
        raise ValueError("normal_curvature needs a direction of positive length")
    BXX = forms.B11 * x0 * x0 + 2.0 * forms.B12 * x0 * x1 + forms.B22 * x1 * x1
    return BXX / gXX
