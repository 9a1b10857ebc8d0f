"""Shared generators for randomized tests.

Everything is seeded by the caller, so test runs are reproducible.  The
random surfaces are gentle graphs z = f(u, v): always regular, with bounded
slopes so that near-vertical incident fields stay safely away from grazing.
"""

import os
import pathlib
import re
import subprocess
import sys
import tracemalloc

import numpy as np

import catacaustics
from catacaustics import FlatFront, PointSource, build_surface, parse_surface
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


def normal_curvature(forms, X):
    """Normal curvature B(X, X)/g(X, X) of the tangent direction with (u,v) components X."""
    X = np.asarray(X, dtype=float)
    x0, x1 = X[..., 0], X[..., 1]
    gXX = forms.g11 * x0 * x0 + 2.0 * forms.g12 * x0 * x1 + forms.g22 * x1 * x1
    BXX = forms.B11 * x0 * x0 + 2.0 * forms.B12 * x0 * x1 + forms.B22 * x1 * x1
    return BXX / gXX


def stack_planes(planes, shape):
    """The (..., 3) array of three (x, y, z) planes broadcast to shape."""
    return np.stack([np.broadcast_to(np.asarray(p, dtype=float), shape) for p in planes],
                    axis=-1)


# -- block sizes of the pointwise stages ------------------------------------

HUGE_BLOCK = 10**9      # BLOCK_POINTS that makes any test grid one block

# surfaces with point defects: (text, domain)
DEFECT_SURFACES = {
    # r_u = r_v wherever d/du (u (u - 1/2))^2 = 0: rows u = 0, 1/4, 1/2 on a 9-row grid
    "singular-rows": ("[u + v, (u+v)^2 + (u*(u-0.5))^2, (u+v)^3 + (u*(u-0.5))^2]",
                      (-1.0, 1.0, -1.0, 1.0)),
    # the apex (0, 0) is off the chart of sqrt: a grid point when both counts are odd
    "cone": ("[u, v, sqrt(u^2+v^2)]", (-1.0, 1.0, -1.0, 1.0)),
}


def scene_surface(name):
    """(ast, domain) of a built-in or of a DEFECT_SURFACES entry."""
    if name in DEFECT_SURFACES:
        text, domain = DEFECT_SURFACES[name]
        return parse_surface(text), domain
    return build_surface(name)


# (surface, field, grid shape); nu is no multiple of 7 so blocks end ragged
BLOCK_SCENES = [
    ("ellipsoid", PointSource((0.05, -0.03, 0.08)), (23, 17)),
    ("revolution", FlatFront((0.3, 0.1, -1.0)), (19, 24)),  # the silhouette crosses the grid
    ("cylinder", FlatFront((1.0, 0.0, 0.0)), (16, 9)),      # a sheet at infinity
    ("singular-rows", FlatFront((0.0, 0.0, 1.0)), (9, 6)),
    ("cone", FlatFront((0.1, 0.2, -1.0)), (19, 21)),
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


# a fresh interpreter that runs the CLI from its argv as the console script
# does (cli.run) and, at exit, writes its own peak resident set to stderr
_OWN_PEAK_CHILD = """
import atexit, sys

def own_peak():
    with open("/proc/self/status") as fh:
        sys.stderr.write("".join(line for line in fh if line.startswith("VmHWM:")))

atexit.register(own_peak)
from catacaustics.cli import run
run()
"""


def cli_own_peak(argv, cwd):
    """(exit code, stdout, own peak in MB) of a fresh child that runs the CLI argv.

    The peak is the child's VmHWM at exit, read by the child itself: the
    ru_maxrss a parent gets from os.wait4 starts from the parent's own
    resident set, which a child inherits across fork and exec.
    """
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(catacaustics.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", _OWN_PEAK_CHILD, *argv], cwd=cwd, env=env,
                          capture_output=True, text=True)
    peak = re.search(r"^VmHWM:\s+(\d+) kB$", proc.stderr, re.M)
    return proc.returncode, proc.stdout, int(peak[1]) / 1024.0


# -- sheet labels ------------------------------------------------------------

def _projective_distance(x, y):
    """Distance of angles x and y modulo pi."""
    d = np.abs(x - y)
    return np.minimum(d, np.pi - d)


def label_breaks(k1, k2, diameter, axis):
    """Neighbour pairs along axis where the two sheets' labels cross.

    k* is compared on the projective line, as arctan(k* D) modulo pi with D
    the surface diameter, so a root that passes through infinity stays close
    to itself.  A pair is a break when 4 times the cross-label distance (each
    point's sheet 1 to the other's sheet 2, plus the reverse) is below the
    same-label distance.  A pair with a NaN root is no break.
    """
    t1, t2 = (np.moveaxis(np.arctan(k * diameter), axis, 0) for k in (k1, k2))
    same = _projective_distance(t1[:-1], t1[1:]) + _projective_distance(t2[:-1], t2[1:])
    cross = _projective_distance(t1[:-1], t2[1:]) + _projective_distance(t2[:-1], t1[1:])
    return int(np.count_nonzero(4.0 * cross < same))
