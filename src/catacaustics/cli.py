"""Command-line front end.

Subcommands:

* ``compute``  -- caustic sheets of a scene, written as meshes plus statistics
* ``validate`` -- compare the closed form against the brute-force ray oracle
* ``front``    -- export the reflected wavefront at a given total travel L
* ``builtins`` -- list the built-in mirror surfaces

A scene comes from flags and/or a plain-text scene file of ``key = value``
lines (keys: surface, domain, grid, field, thresholds, output; ``#`` starts a
comment).  Flags override file entries.  Exit codes: 0 success/PASS, 1 input
error, 2 empty result, 3 validation FAIL.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field as dc_field
from typing import Optional

import numpy as np

from .caustics import (EPS_GRAZING_DEFAULT, EPS_INF_DEFAULT, FLAG_CLIPPED,
                       FLAG_VALID, FlatFront, GridSpec,
                       InternalConsistencyError, PointSource,
                       SourceOnSurfaceError, _ray_block, compute_caustic_sheets,
                       default_max_radius, reflected_front_point)
from .diffgeo import DegenerateSurfaceError
from .meshio import FORMATS, MaskedGrid, clip_sheet, export_mesh, write_ascii
from .oracle import FD_STEP_DEFAULT, VALIDATION_TOL_DEFAULT, validate_sheets
from .surfacelang import (EvalDomainError, SurfaceLangError,
                          parse_surface_definition)
from .surfaces import build_surface, builtin_listing

__all__ = ["SceneSpec", "SceneError", "cmd_compute", "cmd_validate",
           "cmd_front", "cmd_builtins", "main", "run"]

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_EMPTY = 2
EXIT_VALIDATION_FAIL = 3

SCENE_KEYS = ("surface", "domain", "grid", "field", "thresholds", "output")


class SceneError(ValueError):
    """The scene description is inconsistent or incomplete."""


@dataclass
class SceneSpec:
    """Everything needed to compute one scene."""

    surface: Optional[str] = None          # built-in name
    expr_file: Optional[str] = None        # path to a surface-definition file
    params: dict = dc_field(default_factory=dict)
    domain: Optional[tuple] = None         # (u0, u1, v0, v1)
    grid: tuple = (50, 50)
    field: object = None                   # FlatFront | PointSource, default flat +z
    eps_grazing: float = EPS_GRAZING_DEFAULT
    eps_inf: float = EPS_INF_DEFAULT
    max_radius: Optional[float] = None     # None: 10 x surface diameter
    fmt: str = "obj"
    out: str = "caustic"

    def __post_init__(self):
        if self.field is None:
            self.field = FlatFront((0.0, 0.0, 1.0))

    def resolve(self):
        """Build the AST and grid; returns (ast, grid_spec)."""
        if bool(self.surface) == bool(self.expr_file):
            raise SceneError("exactly one surface source is required: "
                             "a built-in name or an expression file")
        domain = self.domain
        if self.surface:
            ast, default_domain = build_surface(self.surface, self.params)
        else:
            try:
                with open(self.expr_file, "r", encoding="utf-8") as fh:
                    text = fh.read()
            except OSError as e:
                raise SceneError(f"cannot read surface file: {e}")
            definition = parse_surface_definition(text, self.params)
            ast, default_domain = definition.ast, definition.domain
        if domain is None:
            domain = default_domain
        if domain is None:
            raise SceneError("no domain: declare one in the surface file or pass --domain")
        nu, nv = self.grid
        if nu < 2 or nv < 2:
            raise SceneError("grid must be at least 2 x 2")
        return ast, GridSpec(nu, nv, domain)


# --------------------------------------------------------------------------
# scene-file and value parsing
# --------------------------------------------------------------------------

def _parse_floats(text: str, n: int, what: str):
    parts = [p for p in text.replace(",", " ").split() if p]
    if len(parts) != n:
        raise SceneError(f"{what} needs {n} comma-separated numbers, got {text!r}")
    try:
        return tuple(float(p) for p in parts)
    except ValueError:
        raise SceneError(f"{what}: could not parse numbers from {text!r}")


def _parse_grid(text: str):
    parts = [p for p in text.replace(",", " ").split() if p]
    try:
        nu, nv = (int(p) for p in parts)
    except ValueError:
        raise SceneError(f"grid needs two integers, got {text!r}")
    return nu, nv


def _parse_kv_pairs(text: str, what: str) -> dict:
    out = {}
    for chunk in text.split():
        if "=" not in chunk:
            raise SceneError(f"{what}: expected key=value, got {chunk!r}")
        key, value = chunk.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _apply_scene_file(scene: SceneSpec, path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as e:
        raise SceneError(f"cannot read scene file: {e}")
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise SceneError(f"scene file line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in SCENE_KEYS:
            raise SceneError(f"scene file line {lineno}: unknown key {key!r} "
                             f"(known: {', '.join(SCENE_KEYS)})")
        if key == "surface":
            parts = value.split()
            if not parts:
                raise SceneError(f"scene file line {lineno}: empty surface")
            if parts[0] == "expr-file":
                if len(parts) != 2:
                    raise SceneError(f"scene file line {lineno}: expr-file needs one path")
                scene.expr_file = parts[1]
                scene.surface = None
            else:
                scene.surface = parts[0]
                scene.expr_file = None
                scene.params.update(_parse_kv_pairs(" ".join(parts[1:]), "surface parameters"))
        elif key == "domain":
            scene.domain = _parse_floats(value, 4, "domain")
        elif key == "grid":
            scene.grid = _parse_grid(value)
        elif key == "field":
            parts = value.split(None, 1)
            if len(parts) != 2 or parts[0] not in ("flat", "point"):
                raise SceneError(f"scene file line {lineno}: field is "
                                 "'flat ax,ay,az' or 'point ox,oy,oz'")
            vec = _parse_floats(parts[1], 3, "field vector")
            scene.field = FlatFront(vec) if parts[0] == "flat" else PointSource(vec)
        elif key == "thresholds":
            for k, v in _parse_kv_pairs(value, "thresholds").items():
                if k == "eps-grazing":
                    scene.eps_grazing = float(v)
                elif k == "eps-inf":
                    scene.eps_inf = float(v)
                elif k == "max-radius":
                    scene.max_radius = float(v)
                else:
                    raise SceneError(f"scene file line {lineno}: unknown threshold {k!r}")
        elif key == "output":
            for k, v in _parse_kv_pairs(value, "output").items():
                if k == "format":
                    scene.fmt = v
                elif k == "prefix":
                    scene.out = v
                else:
                    raise SceneError(f"scene file line {lineno}: unknown output key {k!r}")
    return scene


def _scene_from_args(args) -> SceneSpec:
    scene = SceneSpec()
    if args.scene:
        _apply_scene_file(scene, args.scene)
    if args.surface:
        scene.surface = args.surface
        scene.expr_file = None
    if args.expr_file:
        scene.expr_file = args.expr_file
        scene.surface = None
    for item in args.param or ():
        if "=" not in item:
            raise SceneError(f"--param expects k=v, got {item!r}")
        key, value = item.split("=", 1)
        scene.params[key.strip()] = value.strip()
    if args.domain:
        scene.domain = _parse_floats(args.domain, 4, "--domain")
    if args.grid:
        scene.grid = _parse_grid(args.grid)
    if args.flat and args.source:
        raise SceneError("--flat and --source are mutually exclusive")
    if args.flat:
        scene.field = FlatFront(_parse_floats(args.flat, 3, "--flat"))
    if args.source:
        scene.field = PointSource(_parse_floats(args.source, 3, "--source"))
    if args.eps_grazing is not None:
        scene.eps_grazing = args.eps_grazing
    if args.eps_inf is not None:
        scene.eps_inf = args.eps_inf
    if args.max_radius is not None:
        scene.max_radius = args.max_radius
    if args.format:
        if args.format not in FORMATS:
            raise SceneError(f"unknown format {args.format!r}")
        scene.fmt = args.format
    if args.out:
        scene.out = args.out
    return scene


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------

def cmd_compute(scene: SceneSpec) -> int:
    """Compute both caustic sheets and write meshes plus statistics."""
    ast, grid = scene.resolve()
    sheet1, sheet2, stats = compute_caustic_sheets(
        ast, scene.field, grid,
        eps_grazing=scene.eps_grazing, eps_inf=scene.eps_inf)

    max_radius = scene.max_radius
    if max_radius is None:
        max_radius = default_max_radius(stats.surface_diameter)

    for sheet in (sheet1, sheet2):
        grid_mesh = clip_sheet(sheet, max_radius)
        path = f"{scene.out}-sheet{sheet.sheet_id}.{scene.fmt}"
        export_mesh(grid_mesh, scene.fmt, path)
        print(f"wrote {path}")
    stats_path = f"{scene.out}-stats.txt"
    write_ascii(stats_path, (stats.to_text(),))
    print(f"wrote {stats_path}")

    if stats.empty:
        print("no caustic: every grid point is masked (shadow, grazing or no finite root)")
        return EXIT_EMPTY
    return EXIT_OK


def cmd_validate(scene: SceneSpec, h: float = FD_STEP_DEFAULT,
                 tol: float = VALIDATION_TOL_DEFAULT) -> int:
    """Check the closed-form sheets against the ray-envelope oracle."""
    if h <= 0.0 or tol < 0.0:
        raise SceneError("--fd-step must be positive and --tol non-negative")
    ast, grid = scene.resolve()
    sheet1, sheet2, _ = compute_caustic_sheets(
        ast, scene.field, grid,
        eps_grazing=scene.eps_grazing, eps_inf=scene.eps_inf)
    report = validate_sheets((sheet1, sheet2), ast, scene.field, grid, h=h, tol=tol,
                             max_radius=scene.max_radius, eps_grazing=scene.eps_grazing)
    sys.stdout.write(report.to_text())
    return EXIT_OK if report.passed else EXIT_VALIDATION_FAIL


def cmd_front(scene: SceneSpec, L: float) -> int:
    """Export the reflected front rho(u, v; L) as a mesh."""
    ast, grid = scene.resolve()
    frame, refl, flags = _ray_block(ast, scene.field, *grid.block(), scene.eps_grazing)
    front = reflected_front_point(frame.r, refl.a, refl.b, L, refl.r_dist)
    # the front has not reached points with lambda < 0; mask them like a clip
    flags = np.broadcast_to(flags, (grid.nu, grid.nv)) | np.where(
        ~front.arrived & (flags == 0), np.uint8(FLAG_CLIPPED), np.uint8(0))
    valid = flags == 0
    flags |= np.where(valid, np.uint8(FLAG_VALID), np.uint8(0))

    us, vs = grid.axes()
    rho = np.stack(np.broadcast_arrays(*front.rho), axis=-1)
    points = np.where(valid[..., None], rho, np.nan)
    mesh = MaskedGrid(us, vs, points, flags)
    path = f"{scene.out}-front.{scene.fmt}"
    export_mesh(mesh, scene.fmt, path)
    print(f"wrote {path}")
    if not np.any(valid):
        print(f"front not arrived: L = {L} is below the travel to every lit grid point")
        return EXIT_EMPTY
    return EXIT_OK


def cmd_builtins() -> int:
    """Print the catalog of built-in surfaces."""
    print(builtin_listing())
    return EXIT_OK


# --------------------------------------------------------------------------
# argument parsing
# --------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; 2 is taken by "empty result"
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SceneError(message)


def _add_scene_flags(p: argparse.ArgumentParser):
    p.add_argument("--scene", metavar="FILE", help="scene file of key = value lines")
    p.add_argument("--surface", metavar="NAME", help="built-in surface name")
    p.add_argument("--expr-file", metavar="PATH", help="surface definition file")
    p.add_argument("--param", metavar="K=V", action="append",
                   help="surface parameter (repeatable)")
    p.add_argument("--domain", metavar="U0,U1,V0,V1", help="parameter rectangle")
    p.add_argument("--grid", metavar="NU,NV", help="grid resolution")
    p.add_argument("--flat", metavar="AX,AY,AZ", help="flat front direction")
    p.add_argument("--source", metavar="OX,OY,OZ", help="point source position")
    p.add_argument("--eps-grazing", type=float, metavar="E",
                   help="|cos theta| at or below E is grazing")
    p.add_argument("--eps-inf", type=float, metavar="E",
                   help="|k*| at or below E has no finite caustic point")
    p.add_argument("--max-radius", type=float, metavar="R",
                   help="clip caustic points farther than R along the ray")
    p.add_argument("--format", choices=FORMATS, help="mesh output format")
    p.add_argument("--out", metavar="PREFIX", help="output path prefix")


def _build_parser() -> _Parser:
    parser = _Parser(prog="catacaustics",
                     description="Caustics of reflected wavefronts from parametric mirrors.")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    p = sub.add_parser("compute", help="compute caustic sheets and export meshes")
    _add_scene_flags(p)

    p = sub.add_parser("validate", help="validate against the brute-force ray oracle")
    _add_scene_flags(p)
    p.add_argument("--fd-step", type=float, default=FD_STEP_DEFAULT, metavar="H",
                   help="finite-difference step for the oracle")
    p.add_argument("--tol", type=float, default=VALIDATION_TOL_DEFAULT, metavar="T",
                   help="max allowed caustic-point discrepancy")

    p = sub.add_parser("front", help="export the reflected front at total travel L")
    _add_scene_flags(p)
    p.add_argument("--travel", type=float, required=True, metavar="L",
                   help="total travel distance of the front")

    sub.add_parser("builtins", help="list built-in surfaces")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_help()
            return EXIT_INPUT_ERROR
        if args.command == "builtins":
            return cmd_builtins()
        scene = _scene_from_args(args)
        if args.command == "compute":
            return cmd_compute(scene)
        if args.command == "validate":
            return cmd_validate(scene, h=args.fd_step, tol=args.tol)
        return cmd_front(scene, args.travel)
    except SceneError as e:
        print(f"scene: {e}", file=sys.stderr)
    except SurfaceLangError as e:
        print(f"surface parse: {e}", file=sys.stderr)
    except EvalDomainError as e:
        print(f"surface evaluation: {e}", file=sys.stderr)
    except DegenerateSurfaceError as e:
        print(f"geometry: {e}", file=sys.stderr)
    except SourceOnSurfaceError as e:
        print(f"field: {e}", file=sys.stderr)
    except InternalConsistencyError as e:
        print(f"internal: {e}", file=sys.stderr)
    except OSError as e:
        print(f"output: {e}", file=sys.stderr)
    return EXIT_INPUT_ERROR


def run():  # console-script entry point
    raise SystemExit(main())
