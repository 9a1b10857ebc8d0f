"""Command-line front end.

Subcommands:

* ``compute``  -- caustic sheets of a scene, written as meshes plus statistics
* ``validate`` -- compare the closed form against the brute-force ray oracle
* ``front``    -- export the reflected wavefront at a given total travel L
* ``builtins`` -- list the built-in mirror surfaces

A scene comes from flags and/or a scene file (``--scene FILE``) of
``key = value`` lines; ``#`` starts a comment.  Each line stands for flags
and is parsed by their definitions:

    surface = NAME K=V ...         --surface=NAME --param=K=V ...
    surface = expr-file PATH       --expr-file=PATH
    domain = U0,U1,V0,V1           --domain=U0,U1,V0,V1
    grid = NU,NV                   --grid=NU,NV
    field = flat AX,AY,AZ          --flat=AX,AY,AZ
    field = point OX,OY,OZ         --source=OX,OY,OZ
    thresholds = NAME=X ...        --NAME=X ...  (eps-grazing, eps-inf, max-radius)
    output = format=F prefix=P     --format=F --out=P

Defaults < file < flags: a flag's value wins, then the file's last line
that gives one; a --param wins over the file's parameter of its name.  An
empty value is an error.  Attach a value that starts with a minus sign:
argparse reads ``--flat -0.3,0.1,1`` as a flag without its value, and
``--flat=-0.3,0.1,1`` as meant.  Exit codes: 0 success/PASS, 1 input error,
2 empty result, 3 validation FAIL.
"""

from __future__ import annotations

import argparse
import ctypes
import math
import sys
from functools import cache, partial

import numpy as np

from .caustics import (BLOCK_POINTS, EPS_GRAZING_DEFAULT, EPS_INF_DEFAULT,
                       FLAG_CLIPPED, FLAG_VALID, FlatFront, GridSpec,
                       InternalConsistencyError, MaskedGrid, PointSource,
                       _ray_block, caustic_roots, compute_caustic_sheets,
                       fill_rows, masked_points_text, reflected_front_point,
                       statistics_text)
from .meshio import FORMATS, export_mesh, write_ascii
from .oracle import FD_STEP_DEFAULT, VALIDATION_TOL_DEFAULT, validate_sheets
from .surfacelang import SurfaceLangError, parse_surface_definition
from .surfaces import build_surface, builtin_listing

__all__ = ["SceneError", "cmd_compute", "cmd_validate", "cmd_front", "cmd_builtins", "main", "run"]

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_EMPTY = 2
EXIT_VALIDATION_FAIL = 3

SCENE_KEYS = ("surface", "domain", "grid", "field", "thresholds", "output")
# the scene-file keys of name=value words, and the flag each name stands for
NAMED_FLAGS = {"thresholds": {n: f"--{n}" for n in ("eps-grazing", "eps-inf", "max-radius")},
               "output": {"format": "--format", "prefix": "--out"}}


class SceneError(ValueError):
    """The scene description is inconsistent or incomplete."""


# --------------------------------------------------------------------------
# scene values: one argparse type parses and checks each
# --------------------------------------------------------------------------

def _scene_type(parse):
    """The argparse type parse of a non-empty text; a ValueError's message is the error."""
    def convert(text):
        if not text:
            raise argparse.ArgumentTypeError("needs a value")
        try:
            return parse(text)
        except ValueError as e:
            raise argparse.ArgumentTypeError(str(e)) from None
    return convert


def _numbers(n, make=tuple, convert=float):
    """An argparse type: n comma-separated numbers, passed to make as a tuple."""
    @_scene_type
    def parse(text):
        parts = text.replace(",", " ").split()
        if len(parts) != n:
            raise ValueError(f"needs {n} comma-separated numbers, got {text!r}")
        return make(tuple(map(convert, parts)))
    return parse


def _float_where(ok, must):
    """An argparse type: a float x for which ok(x) holds."""
    @_scene_type
    def parse(text):
        x = float(text)
        if not ok(x):
            raise ValueError(f"must be {must}, got {text!r}")
        return x
    return parse


_non_negative = _float_where(lambda x: x >= 0.0, "non-negative")
# the oracle's central differences scale by 1/(2 h)
_fd_step = _float_where(lambda h: h > 0.0 and 0.0 < 1.0 / (2.0 * h) < math.inf,
                        "positive with a finite 1/(2 H)")
_word = _scene_type(str)


@_scene_type
def _param(text):
    key, eq, value = text.partition("=")
    if not eq:
        raise ValueError(f"expects K=V, got {text!r}")
    return key.strip(), value.strip()


def _read_text(path, what: str) -> str:
    """The text of the UTF-8 file at path; a SceneError names it a `what` file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise SceneError(f"cannot read {what} file: {e}")
    except UnicodeDecodeError as e:
        raise SceneError(f"cannot read {what} file: {path!r}: {e}")


def _surface_file(path, params):
    """(ast, default domain) of the surface file at path, like build_surface's."""
    return parse_surface_definition(_read_text(path, "surface"), params)


def _line_flags(line: str) -> list:
    """The flags that one scene-file line stands for."""
    key, eq, value = (part.strip() for part in line.partition("="))
    if not eq:
        raise SceneError("expected 'key = value'")
    words = value.split()
    if key in ("domain", "grid"):
        return [f"--{key}={value}"]
    if key == "field":
        flag = {"flat": "--flat", "point": "--source"}.get(words[0] if words else "")
        if flag is None:
            raise SceneError("field is 'flat AX,AY,AZ' or 'point OX,OY,OZ'")
        return [f"{flag}={' '.join(words[1:])}"]
    if key == "surface":
        if words[:1] == ["expr-file"]:
            if len(words) != 2:
                raise SceneError("expr-file needs one path")
            return [f"--expr-file={words[1]}"]
        name, *params = words or [""]
        return [f"--surface={name}", *(f"--param={p}" for p in params)]
    if key not in NAMED_FLAGS:
        raise SceneError(f"unknown key {key!r} (known: {', '.join(SCENE_KEYS)})")
    flags = []
    for word in words:
        name, eq, v = word.partition("=")
        if not eq or name not in NAMED_FLAGS[key]:
            raise SceneError(f"{key} takes {', '.join(NAMED_FLAGS[key])} as name=value, "
                             f"got {word!r}")
        flags.append(f"{NAMED_FLAGS[key][name]}={v}")
    return flags


def _read_scene_file(path: str) -> dict:
    """The scene values: defaults, then each scene-file line parsed as its flags."""
    lines = _read_text(path, "scene").split("\n")
    parser = _Parser(prog="scene file", add_help=False, exit_on_error=False)
    _add_scene_flags(parser)
    values = parser.parse_args([])
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            try:
                parser.parse_args(_line_flags(line), values)
            except (SceneError, argparse.ArgumentError) as e:
                raise SceneError(f"scene file line {lineno}: {e}") from None
    return vars(values)


def _resolve(scene: argparse.Namespace):
    """The scene's surface AST and grid."""
    if scene.surface is None:
        raise SceneError("no surface: pass --surface or --expr-file")
    ast, domain = scene.surface(dict(scene.params or ()))
    domain = domain if scene.domain is None else scene.domain
    if domain is None:
        raise SceneError("no domain: declare one in the surface file or pass --domain")
    try:
        return ast, GridSpec(*scene.grid, domain)
    except ValueError as e:
        raise SceneError(str(e)) from None


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------

def _thresholds(scene: argparse.Namespace) -> dict:
    return dict(eps_grazing=scene.eps_grazing, eps_inf=scene.eps_inf,
                max_radius=scene.max_radius)


def cmd_compute(scene: argparse.Namespace) -> int:
    """Compute both caustic sheets and write meshes plus statistics."""
    ast, grid = _resolve(scene)
    *sheets, roots = compute_caustic_sheets(ast, scene.field, grid, **_thresholds(scene))
    sys.stdout.write(masked_points_text(roots.base_flags, ast, grid))
    for i, sheet in enumerate(sheets, start=1):
        path = f"{scene.out}-sheet{i}.{scene.format}"
        export_mesh(sheet, scene.format, path)
        print(f"wrote {path}")
    stats_path = f"{scene.out}-stats.txt"
    write_ascii(stats_path, (statistics_text(roots, sheets).encode("ascii"),))
    print(f"wrote {stats_path}")

    if not any(np.any(sheet.placed) for sheet in sheets):
        print("no caustic: every grid point is masked (grazing, a point defect or no finite root)")
        return EXIT_EMPTY
    if not any(np.any(sheet.valid) for sheet in sheets):
        print(f"no caustic within the radius cap: every caustic point is farther than "
              f"{roots.max_radius:.6g}")
        return EXIT_EMPTY
    return EXIT_OK


def cmd_validate(scene: argparse.Namespace) -> int:
    """Check the closed-form sheets against the ray-envelope oracle."""
    ast, grid = _resolve(scene)
    roots = caustic_roots(ast, scene.field, grid, **_thresholds(scene))
    sys.stdout.write(masked_points_text(roots.base_flags, ast, grid))
    report = validate_sheets(roots, h=scene.fd_step, tol=scene.tol)
    sys.stdout.write(report.to_text())
    return EXIT_OK if report.passed else EXIT_VALIDATION_FAIL


def cmd_front(scene: argparse.Namespace) -> int:
    """Export the reflected front rho(u, v; L) at the total travel L = scene.travel.

    The ray stage runs through fill_rows, which fills the whole-grid points
    (as planes) and flags the writer takes; the mesh does not depend on the
    block size.
    """
    ast, grid = _resolve(scene)

    def front_rows(U, V, rows):
        frame, refl, flags = _ray_block(ast, scene.field, U, V, scene.eps_grazing, order=1)
        lam, rho = reflected_front_point(frame.r, refl.a, refl.b, scene.travel, refl.r_dist)
        # the front has not reached points with lambda < 0 (or NaN); mask them like a clip
        flags = flags | np.where(~(lam >= 0.0) & (flags == 0), np.uint8(FLAG_CLIPPED), np.uint8(0))
        valid = flags == 0
        return (tuple(np.where(valid, x, np.nan) for x in rho),
                np.where(valid, np.uint8(FLAG_VALID), flags))

    points, flags = fill_rows(grid, front_rows)
    sys.stdout.write(masked_points_text(flags, ast, grid, order=1))

    mesh = MaskedGrid(*grid.axes(), points, flags)
    path = f"{scene.out}-front.{scene.format}"
    export_mesh(mesh, scene.format, path)
    print(f"wrote {path}")
    # a point the ray stage lit is VALID, or CLIPPED where the front has not reached it
    if not np.any(mesh.placed):
        print("no front: every grid point is masked (grazing or a point defect)")
        return EXIT_EMPTY
    if not np.any(mesh.valid):
        print(f"front not arrived: L = {scene.travel} is below the travel to every lit grid point")
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
    surface = p.add_mutually_exclusive_group()
    # a surface value is a function of the parameters that returns (ast, default domain)
    surface.add_argument("--surface", type=lambda name: partial(build_surface, _word(name)),
                         metavar="NAME", help="built-in surface name")
    surface.add_argument("--expr-file", dest="surface", metavar="PATH",
                         type=lambda path: partial(_surface_file, _word(path)),
                         help="surface definition file")
    p.add_argument("--param", dest="params", type=_param, action="append", metavar="K=V",
                   help="surface parameter (repeatable)")
    p.add_argument("--domain", type=_numbers(4), metavar="U0,U1,V0,V1",
                   help="parameter rectangle")
    p.add_argument("--grid", type=_numbers(2, convert=int), default=(50, 50), metavar="NU,NV",
                   help="grid resolution")
    field = p.add_mutually_exclusive_group()
    field.add_argument("--flat", dest="field", type=_numbers(3, FlatFront), default="0,0,1",
                       metavar="AX,AY,AZ", help="flat front direction")
    field.add_argument("--source", dest="field", type=_numbers(3, PointSource),
                       metavar="OX,OY,OZ", help="point source position")
    p.add_argument("--eps-grazing", type=_non_negative, default=EPS_GRAZING_DEFAULT, metavar="E",
                   help="|cos theta| at or below E is grazing")
    p.add_argument("--eps-inf", type=_non_negative, default=EPS_INF_DEFAULT, metavar="E",
                   help="|k*| at or below E has no finite caustic point")
    p.add_argument("--max-radius", type=_float_where(lambda x: x > 0.0, "positive"),
                   metavar="R", help="clip caustic points farther than R along the ray")
    p.add_argument("--format", choices=FORMATS, default="obj", help="mesh output format")
    p.add_argument("--out", type=_word, default="caustic", metavar="PREFIX",
                   help="output path prefix")


def _build_parser(scene=None) -> _Parser:
    """The command-line parser; scene replaces the defaults of the scene values."""
    parser = _Parser(prog="catacaustics",
                     description="Caustics of reflected wavefronts from parametric mirrors.")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)
    compute = sub.add_parser("compute", help="compute caustic sheets and export meshes")
    validate = sub.add_parser("validate", help="validate against the brute-force ray oracle")
    front = sub.add_parser("front", help="export the reflected front at total travel L")
    for p in (compute, validate, front):
        p.add_argument("--scene", type=_word, metavar="FILE",
                       help="scene file of key = value lines")
        _add_scene_flags(p)
        p.set_defaults(**(scene or {}))
    validate.add_argument("--fd-step", type=_fd_step, default=FD_STEP_DEFAULT, metavar="H",
                          help="finite-difference step for the oracle")
    validate.add_argument("--tol", type=_non_negative, default=VALIDATION_TOL_DEFAULT,
                          metavar="T", help="max allowed caustic-point discrepancy")
    front.add_argument("--travel", type=_float_where(math.isfinite, "finite"), required=True,
                       metavar="L", help="total travel distance of the front")
    sub.add_parser("builtins", help="list built-in surfaces")
    return parser


# the parser without scene-file defaults, built once per process: building
# it costs several times a parse, and a sweep calls main many times
_plain_parser = cache(_build_parser)


def main(argv=None) -> int:
    parser = _plain_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_help()
            return EXIT_INPUT_ERROR
        if args.command == "builtins":
            return cmd_builtins()
        if args.scene is not None:
            # flags override the file's values as they override defaults
            args = _build_parser(_read_scene_file(args.scene)).parse_args(argv)
        if args.command == "compute":
            return cmd_compute(args)
        if args.command == "validate":
            return cmd_validate(args)
        return cmd_front(args)
    except SceneError as e:
        print(f"scene: {e}", file=sys.stderr)
    except SurfaceLangError as e:
        print(f"surface parse: {e}", file=sys.stderr)
    except InternalConsistencyError as e:
        print(f"internal: {e}", file=sys.stderr)
    except OSError as e:
        print(f"output: {e}", file=sys.stderr)
    return EXIT_INPUT_ERROR


# glibc's mallopt parameters
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_block_heap():
    """Keep the heap that row blocks reuse; a no-op where the C library has no mallopt.

    A block's temporaries are at most one (x, y, z) stack of float64, 24 B
    per block point, and its working set peaks at ~390 B per point (see
    caustics.BLOCK_POINTS).  With mmap above the first and trimming above
    the second, every block reuses the heap pages of the one before, while
    the whole-grid arrays, larger than any block temporary, stay mmapped
    and go back to the system when freed.  glibc's own thresholds follow
    the largest mmapped chunk freed so far instead: whole-grid arrays then
    land on the heap, and pages trimmed between blocks fault in again.  A
    cold `validate` of the 700^2 torus, median of 5 processes, minor faults
    and own peak: 56.8k and 87.2 MB when validate took the whole sheets of
    compute_caustic_sheets, 13.5k and 94.2 MB with this setting added to
    that, 92.5k and 60.8 MB with validate's own two passes alone, and 11.5k
    and 57.8 MB with both.
    """
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(_M_MMAP_THRESHOLD, 32 * BLOCK_POINTS)
        mallopt(_M_TRIM_THRESHOLD, 512 * BLOCK_POINTS)


def run():  # console-script entry point
    _keep_block_heap()
    raise SystemExit(main())
