"""Shared generators for randomized tests.

Everything is seeded by the caller, so test runs are reproducible.  The
random surfaces are gentle graphs z = f(u, v): always regular, with bounded
slopes so that near-vertical incident fields stay safely away from grazing.
"""

import tracemalloc

import numpy as np

from catacaustics import FlatFront, PointSource, parse_surface
from catacaustics.surfacelang import (BinOp, Call, Const, Neg, Param,
                                      SurfaceAST, Var)

GRAPH_DOMAIN = (-1.0, 1.0, -1.0, 1.0)


def random_graph_surface(rng: np.random.Generator) -> SurfaceAST:
    """A random smooth graph surface [u, v, f(u, v)] on [-1, 1]^2."""
    params = {
        "a1": rng.uniform(-0.4, 0.4),
        "a2": rng.uniform(-0.4, 0.4),
        "a3": rng.uniform(-0.35, 0.35),
        "a4": rng.uniform(-0.35, 0.35),
        "a5": rng.uniform(-0.35, 0.35),
        "a6": rng.uniform(-0.3, 0.3),
        "a7": rng.uniform(-0.3, 0.3),
        "w1": rng.uniform(0.5, 1.4),
        "w2": rng.uniform(0.5, 1.4),
        "p1": rng.uniform(0.0, 6.0),
        "p2": rng.uniform(0.0, 6.0),
    }
    z = ("a1*u + a2*v + a3*u^2 + a4*u*v + a5*v^2"
         " + a6*sin(w1*u + p1) + a7*cos(w2*v + p2)")
    return parse_surface(f"[u, v, {z}]", params)


def random_flat_field(rng: np.random.Generator) -> FlatFront:
    """Near-vertical flat front; graphs with small slope stay well lit."""
    return FlatFront((rng.uniform(-0.25, 0.25), rng.uniform(-0.25, 0.25), 1.0))


def random_point_field(rng: np.random.Generator) -> PointSource:
    """Point source a few units above the graph domain."""
    return PointSource((rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5),
                        rng.uniform(2.5, 4.0)))


def random_field(rng: np.random.Generator):
    return random_flat_field(rng) if rng.random() < 0.5 else random_point_field(rng)


# -- random scalar expressions for derivative checks ------------------------

def _safe_positive(rng, make):
    # strictly positive wrapper: c + sin(...) with c > 1
    return BinOp("+", Const(rng.uniform(1.5, 3.0)), Call("sin", make()))


def random_scalar_expr(rng: np.random.Generator, depth: int = 3):
    """A random expression tree staying smooth and O(1) on [-1, 1]^2."""

    def make(d):
        if d <= 0 or rng.random() < 0.25:
            return rng.choice([Var("u"), Var("v"), Const(round(rng.uniform(0.3, 2.0), 3))])
        kind = rng.integers(0, 7)
        if kind == 0:
            return Call(rng.choice(["sin", "cos"]), make(d - 1))
        if kind == 1:
            damp = BinOp("*", Const(0.3), make(d - 1))
            return Call(rng.choice(["exp", "sinh", "cosh"]), damp)
        if kind == 2:
            return Call(rng.choice(["log", "sqrt"]), _safe_positive(rng, lambda: make(d - 1)))
        if kind == 3:
            return Neg(make(d - 1))
        if kind == 4:
            return BinOp(rng.choice(["+", "-", "*"]), make(d - 1), make(d - 1))
        if kind == 5:
            return BinOp("/", make(d - 1), _safe_positive(rng, lambda: make(d - 1)))
        return BinOp("^", _safe_positive(rng, lambda: make(d - 1)),
                     Const(float(rng.choice([2.0, 3.0, 0.5, -1.0]))))

    return make(depth)


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniform-ish random rotation from a QR factorization, det = +1."""
    m = rng.normal(size=(3, 3))
    q, r = np.linalg.qr(m)
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def stack_planes(planes, shape):
    """The (..., 3) array of three (x, y, z) planes broadcast to shape."""
    return np.stack([np.broadcast_to(np.asarray(p, dtype=float), shape) for p in planes],
                    axis=-1)


# -- block sizes of the pointwise stages ------------------------------------

HUGE_BLOCK = 10**9      # BLOCK_POINTS that makes any test grid one block

# (built-in, field, grid shape); nu is no multiple of 7 so blocks end ragged
BLOCK_SCENES = [
    ("ellipsoid", PointSource((0.05, -0.03, 0.08)), (23, 17)),
    ("revolution", FlatFront((0.3, 0.1, -1.0)), (19, 24)),  # the normal flips across the grid
    ("cylinder", FlatFront((1.0, 0.0, 0.0)), (16, 9)),      # a sheet at infinity
]


def block_sizes(nv):
    """BLOCK_POINTS values that cut an nv-column grid into several row blocks."""
    return [1, nv - 1, nv + 1, 7 * nv]


def traced_peak_per_point(fn, n_points):
    """Run fn; the traced peak above what was live before, per point, and fn's result."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - before) / n_points, result
