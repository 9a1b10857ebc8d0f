"""Seeded inputs of the benchmark workloads.

The benchmark owns its generators: the program only ever receives the
generated command lines, and an edit to the package's test helpers cannot
change a workload.  Seed 0 is the reference seed, whose output digests are
committed; other seeds perturb the scene a little and are checked by
structure instead.
"""

from __future__ import annotations

import random

REFERENCE_SEED = 0

# Surface family of the graph-sweep mirrors: gentle graphs z = f(u, v) on
# [-1, 1]^2, always regular, with slopes small enough that near-vertical
# fields stay far from grazing.
GRAPH_SURFACE = (
    "# random graph mirror; coefficients come in as --param values\n"
    "[u, v, a1*u + a2*v + a3*u^2 + a4*u*v + a5*v^2"
    " + a6*sin(w1*u + p1) + a7*cos(w2*v + p2)]\n"
    "u in [-1, 1]; v in [-1, 1]\n"
)

GRAPH_PARAM_RANGES = (
    ("a1", -0.4, 0.4), ("a2", -0.4, 0.4),
    ("a3", -0.35, 0.35), ("a4", -0.35, 0.35), ("a5", -0.35, 0.35),
    ("a6", -0.3, 0.3), ("a7", -0.3, 0.3),
    ("w1", 0.5, 1.4), ("w2", 0.5, 1.4),
    ("p1", 0.0, 6.0), ("p2", 0.0, 6.0),
)

GRAPH_GRID = (30, 80)      # grid points per side, inclusive
FRONT_EVERY = 4            # every FRONT_EVERY-th scene also exports a front
FRONT_TRAVEL = (5.0, 6.0)  # beyond the farthest source-to-mirror distance


def _vec(values) -> str:
    return ",".join(repr(float(x)) for x in values)


def ellipsoid_args(seed: int) -> list:
    """Ellipsoid lit by a point source inside it, 400 x 400, OBJ output.

    Seed 0 is the ROADMAP baseline scene; other seeds move the source by up
    to 0.05 along each axis, which keeps it well inside the mirror.
    """
    source = [0.2, 0.1, 0.1]
    if seed != REFERENCE_SEED:
        rng = random.Random(seed)
        source = [c + rng.uniform(-0.05, 0.05) for c in source]
    return ["compute", "--surface", "ellipsoid", f"--source={_vec(source)}",
            "--grid", "400,400", "--format", "obj"]


def torus_args(seed: int) -> list:
    """Torus under a flat front along its axis, validated at 700 x 700.

    Other seeds tilt the front by at most 0.03 rad per axis; on this chart
    |cos theta| stays above 0.15, far from the grazing regime.
    """
    direction = [0.0, 0.0, 1.0]
    if seed != REFERENCE_SEED:
        rng = random.Random(seed)
        direction = [rng.uniform(-0.03, 0.03), rng.uniform(-0.03, 0.03), 1.0]
    return ["validate", "--surface", "revolution", f"--flat={_vec(direction)}",
            "--grid", "700,700"]


def graph_scenes(seed: int):
    """Endless seeded sequence of graph-mirror scenes.

    Yields dicts with ``params`` (name -> float), ``grid`` (nu, nv),
    ``field`` ("flat" or "source", vector) and ``travel`` (None, or the
    travel L of an extra ``front`` export).
    """
    rng = random.Random(seed)
    index = 0
    while True:
        params = {name: rng.uniform(lo, hi) for name, lo, hi in GRAPH_PARAM_RANGES}
        grid = (rng.randint(*GRAPH_GRID), rng.randint(*GRAPH_GRID))
        if rng.random() < 0.5:
            field = ("flat", (rng.uniform(-0.25, 0.25), rng.uniform(-0.25, 0.25), 1.0))
        else:
            field = ("source", (rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5),
                                rng.uniform(2.5, 4.0)))
        travel = rng.uniform(*FRONT_TRAVEL) if index % FRONT_EVERY == FRONT_EVERY - 1 else None
        yield {"params": params, "grid": grid, "field": field, "travel": travel}
        index += 1


def graph_argvs(scene: dict, surface_path: str, out: str) -> list:
    """CLI argument lists of one graph scene: compute, plus front when asked."""
    common = ["--expr-file", surface_path]
    common += [f"--param={k}={v!r}" for k, v in scene["params"].items()]
    kind, vec = scene["field"]
    common += [f"--grid={scene['grid'][0]},{scene['grid'][1]}", f"--{kind}={_vec(vec)}",
               "--out", out]
    argvs = [["compute", *common, "--format", "csv"]]
    if scene["travel"] is not None:
        argvs.append(["front", *common, "--format", "ply",
                      f"--travel={scene['travel']!r}"])
    return argvs
