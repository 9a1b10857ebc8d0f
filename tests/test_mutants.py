"""Planted bugs and the checks that catch them.

Each row of MUTANTS plants one bug in the closed-form pipeline or its mesh
writers and names the checks that must fail under it; the unmutated code
passes every check.  A check passes when its scene runs and reproduces its
pinned bytes; a crash under a mutant counts as a failure.
"""

import contextlib
import hashlib
import inspect
import io
import json
import pathlib
import textwrap
from unittest import mock

import numpy as np
import pytest

from catacaustics import FlatFront, GridSpec, build_surface, caustics, cli, meshio, oracle
from catacaustics.caustics import (FLAG_AT_INFINITY, FLAG_CLIPPED,
                                   FLAG_EXCLUDED_ZERO_ROOT)
from conftest import BLOCK_SCENES, HUGE_BLOCK, scene_surface
from test_cli import STEEP_PLANE, VALIDATE_STDOUT_SHA256
from test_meshio import GOLDEN_SHA256
from test_oracle import MEAN_ERROR_HEX, mean_error_hex, planted_grazing_mismatches

REFERENCE_JSON = pathlib.Path(__file__).parents[1] / "perfbench" / "reference.json"


def _outputs(argv, out_dir, prefix, suffixes):
    """The bytes of each file a compute run writes, or None if it fails."""
    out_dir.mkdir(parents=True, exist_ok=True)
    with contextlib.redirect_stdout(io.StringIO()):
        if cli.main([*argv, "--out", str(out_dir / prefix)]) != 0:
            return None
    return [(out_dir / f"{prefix}{s}").read_bytes() for s in suffixes]


def _sha256(data) -> str:
    return hashlib.sha256(data).hexdigest()


def golden_ellipsoid_capped(out_dir):
    """The golden CSV sheets and stats.txt of the ellipsoid under a binding cap."""
    suffixes = ("-sheet1.csv", "-sheet2.csv", "-stats.txt")
    files = _outputs(["compute", "--surface", "ellipsoid", "--source", "0.2,0.1,0.1",
                      "--grid", "40,40", "--format", "csv", "--max-radius", "1"],
                     out_dir, "ellipsoid-capped", suffixes)
    return files is not None and \
        [_sha256(f) for f in files] == [GOLDEN_SHA256[f"ellipsoid-capped{s}"] for s in suffixes]


def torus_capped_report(out_dir):
    """validate's stdout on the torus whose cap clips all of sheet 1."""
    scene, digest = VALIDATE_STDOUT_SHA256["torus-capped"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(["validate", *scene])
    return _sha256(out.getvalue().encode()) == digest


def reason_bits(out_dir):
    """A sheet with roots at infinity passes the masked grid's reason check."""
    ast, dom = build_surface("cylinder")
    caustics.compute_caustic_sheets(ast, FlatFront((1.0, 0.0, 0.0)), GridSpec(8, 4, dom))
    return True


def reference_scene(out_dir):
    """The benchmark's reference scene, whose default cap clips part of sheet 1."""
    files = _outputs(["compute", "--surface", "ellipsoid", "--source", "0.2,0.1,0.1",
                      "--grid", "400,400", "--format", "obj"], out_dir, "reference",
                     ("-sheet1.obj", "-sheet2.obj", "-stats.txt"))
    reference = json.loads(REFERENCE_JSON.read_text())["ellipsoid-point-obj"]
    return files is not None and _sha256(b"".join(files)) == reference


# compute --surface elliptic-paraboloid --flat=0,0,1 --grid 20,20 --format csv:
# a paraboloid of revolution under an axial front has a double root at every
# point, so both sheets hold the same bytes
DOUBLE_ROOT_SHA256 = {
    "-sheet1.csv": "f2ffbdd759eba1f1f9202329a41673a75ac8cda6705d0b4738f02cd883959667",
    "-sheet2.csv": "f2ffbdd759eba1f1f9202329a41673a75ac8cda6705d0b4738f02cd883959667",
    "-stats.txt": "58a5912b92b9270fbbf1cc9c42e5ca4c69e815e81db5bd1373aae6f04d29c449",
}


def double_root_scene(out_dir):
    """The axial elliptic paraboloid, whose clamped double roots fix its sheets' bytes."""
    files = _outputs(["compute", "--surface", "elliptic-paraboloid", "--flat=0,0,1",
                      "--grid", "20,20", "--format", "csv"], out_dir, "double-root",
                     DOUBLE_ROOT_SHA256)
    return files is not None and [_sha256(f) for f in files] == list(DOUBLE_ROOT_SHA256.values())


def steep_plane_is_empty(out_dir):
    """compute on the steep plane, whose roots are ~1e-10, places nothing and says so."""
    out_dir.mkdir(parents=True, exist_ok=True)
    surface = out_dir / "mirror.surf"
    surface.write_text(STEEP_PLANE[0])
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["compute", "--expr-file", str(surface), *STEEP_PLANE[1:],
                         "--out", str(out_dir / "steep")])
    return code == 2 and "no caustic" in out.getvalue()


def ragged_blocks(out_dir):
    """compute on a BLOCK_SCENES scene whose last row block is ragged, against one block."""
    name, field, (nu, nv) = BLOCK_SCENES[0]
    ast, dom = scene_surface(name)
    grid = GridSpec(nu, nv, dom)
    assert nu % 7
    runs = []
    for size in (7 * nv, HUGE_BLOCK):
        with mock.patch.object(caustics, "BLOCK_POINTS", size):
            runs.append(caustics.compute_caustic_sheets(ast, field, grid))
    (*got, got_stats), (*want, want_stats) = runs
    return got_stats.to_text() == want_stats.to_text() and all(
        np.array_equal(g.k_star, w.k_star, equal_nan=True)
        and np.array_equal(g.points, w.points, equal_nan=True)
        and np.array_equal(g.flags, w.flags) for g, w in zip(got, want))


def golden_mesh_in_blocks(out_dir):
    """The golden PLY sheets of the ellipsoid, written in row blocks of 7 grid rows."""
    suffixes = ("-sheet1.ply", "-sheet2.ply")
    with mock.patch.object(caustics, "BLOCK_POINTS", 7 * 40):
        assert len(caustics.row_blocks(40, 40)) == 6
        files = _outputs(["compute", "--surface", "ellipsoid", "--source", "0.2,0.1,0.1",
                          "--grid", "40,40", "--format", "ply"], out_dir, "ellipsoid-ply",
                         suffixes)
    return files is not None and \
        [_sha256(f) for f in files] == [GOLDEN_SHA256[f"ellipsoid-ply{s}"] for s in suffixes]


def mean_error_bits(out_dir):
    """validate's mean_error to the bit on the MEAN_ERROR_HEX scenes."""
    return all(mean_error_hex(scene) == MEAN_ERROR_HEX[scene][2] for scene in MEAN_ERROR_HEX)


def flag_mismatch_rule(out_dir):
    """The oracle decides neither too much nor too little.

    A lit point whose stencil reaches the grazing band gets no verdict, and a
    point whose centre ray is unlit gets one.
    """
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(["validate", "--surface", "revolution", "--flat=0.3,0.2,-1",
                  "--grid", "200,200"])
    before, after = planted_grazing_mismatches()
    return "  flag mismatches:   0\n" in out.getvalue() and after == before + 1


CHECKS = {f.__name__: f for f in (golden_ellipsoid_capped, torus_capped_report, reason_bits,
                                  reference_scene, double_root_scene, steep_plane_is_empty,
                                  ragged_blocks, mean_error_bits, golden_mesh_in_blocks,
                                  flag_mismatch_rule)}


def _placement(after):
    """caustic_point with after(xi, flags) -> (xi, flags) applied to its result."""
    place = caustics.caustic_point
    return mock.patch.object(caustics, "caustic_point", lambda *a: after(*place(*a)))


def _cap_never_applied():
    place = caustics.caustic_point
    return mock.patch.object(caustics, "caustic_point", lambda *a: place(*a[:6]))


def _cap_makes_xi_nan():
    return _placement(lambda xi, flags: (
        np.where(((flags & FLAG_CLIPPED) != 0)[..., None], np.nan, xi), flags))


def _zero_root_bit_dropped():
    return _placement(lambda xi, flags: (
        xi, flags & ~np.uint8(FLAG_AT_INFINITY | FLAG_EXCLUDED_ZERO_ROOT)))


def _doubled_diameter():
    cap = caustics.default_max_radius
    return mock.patch.object(caustics, "default_max_radius", lambda d: cap(2.0 * d))


def _recompiled(module, name, old, new):
    """module's function name with old replaced by new in its source, recompiled."""
    source = textwrap.dedent(inspect.getsource(getattr(module, name)))
    mutated = source.replace(old, new)
    assert mutated != source
    namespace = {}
    exec(mutated, vars(module), namespace)
    return mock.patch.object(module, name, namespace[name])


def _absolute_floor_restored():
    # the discriminant's scale floored at 1, which makes the double-root clamp
    # absolute in 1/length^2
    return _recompiled(caustics, "_stable_quadratic_roots", "np.maximum(pp, np.abs(q))",
                       "np.maximum(1.0, np.maximum(pp, np.abs(q)))")


def _sheet_2_takes_k1():
    return _recompiled(caustics, "_sheet_block", "np.maximum(k_a, k_b)", "np.minimum(k_a, k_b)")


def _x1_x2_swapped():
    # B(a_t, a_t) taken with the (u, v) components of a_t swapped
    return _recompiled(caustics, "caustic_coefficients",
                       "B11 * X1 * X1 + 2.0 * forms.B12 * X1 * X2 + forms.B22 * X2 * X2",
                       "B11 * X2 * X2 + 2.0 * forms.B12 * X2 * X1 + forms.B22 * X1 * X1")


def _double_root_clamp_off():
    return _recompiled(caustics, "_stable_quadratic_roots",
                       "clamped = finite & (np.abs(disc) <= _DISC_DOUBLE_RTOL * scale)",
                       "clamped = finite & False")


def _grazing_mask_signed():
    # the grazing mask read as if n faced the light, so that (a, n) <= 0 on lit points
    return _recompiled(caustics, "_ray_block", "np.abs(refl.cos_theta) <= eps_grazing",
                       "-refl.cos_theta <= eps_grazing")


def _ragged_block_skipped():
    # fill_rows leaves the rows of a shorter last block as np.empty made them
    blocks = caustics.row_blocks

    def skip_ragged(nu, nv):
        rows = blocks(nu, nv)
        sizes = [len(range(nu)[r]) for r in rows]
        return rows[:-1] if sizes[-1] < sizes[0] else rows
    return mock.patch.object(caustics, "row_blocks", skip_ragged)


def _errors_taken_point_major():
    # the compared errors listed point by point, both sheets of a point together
    return _recompiled(oracle, "validate_sheets",
                       "np.moveaxis(err, -1, 0)[np.moveaxis(both, -1, 0)]", "err[both]")


def _vertex_offset_per_block():
    # the per-row vertex offsets taken from each block's first row, so face
    # indices restart in every block of cell rows
    return _recompiled(meshio, "_mesh_chunks", "offset[corners, None]",
                       "(offset[corners] - offset[rows.start] + base - 1)[:, None]")


def _oracle_decides_everywhere():
    # a verdict at every grid point, also where a stencil ray is flagged
    return _recompiled(oracle, "_focal_quadratic", "ok | (flags != 0)", "np.ones_like(ok)")


def _oracle_undecided_at_masked_centres():
    # no verdict where the centre ray is flagged
    return _recompiled(oracle, "_focal_quadratic", "ok | (flags != 0)", "ok")


def _rho_shift_dropped():
    # B* without the point source's -g*/rho shift
    return _recompiled(caustics, "modified_forms", "if refl.r_dist is not None:", "if False:")


def _b_star_sign_flipped():
    return _recompiled(caustics, "modified_forms", "m = -2.0 * refl.cos_theta",
                       "m = 2.0 * refl.cos_theta")


def _oracle_pairs_raw_radii():
    # the oracle's radii compared in the order they are found, never swapped
    # to the pairing closer to the closed form's
    return _recompiled(oracle, "_point_errors",
                       "swap_better = swap[0] + swap[1] < keep[0] + keep[1]",
                       "swap_better = np.zeros_like(keep[0], dtype=bool)")


# the reference scene, at 0.4 s the dearest check, also fails the first and
# third rows; it is named only where no cheaper check fails
MUTANTS = {
    "sheet-2-placed-with-k1": (_sheet_2_takes_k1,
                               ("golden_ellipsoid_capped", "torus_capped_report")),
    "cap-never-applied": (_cap_never_applied,
                          ("golden_ellipsoid_capped", "torus_capped_report", "reference_scene")),
    "cap-makes-xi-nan": (_cap_makes_xi_nan, ("golden_ellipsoid_capped",)),
    "zero-root-bit-dropped": (_zero_root_bit_dropped, ("reason_bits",)),
    "doubled-diameter-behind-the-default-cap": (_doubled_diameter, ("reference_scene",)),
    "X1-X2-swapped": (_x1_x2_swapped, ("golden_ellipsoid_capped",)),
    "double-root-clamp-off": (_double_root_clamp_off, ("double_root_scene",)),
    "absolute-floor-restored": (_absolute_floor_restored, ("steep_plane_is_empty",)),
    "grazing-mask-signed": (_grazing_mask_signed, ("double_root_scene",)),
    "ragged-block-skipped": (_ragged_block_skipped, ("ragged_blocks",)),
    "errors-taken-point-major": (_errors_taken_point_major, ("mean_error_bits",)),
    "vertex-offset-per-block": (_vertex_offset_per_block, ("golden_mesh_in_blocks",)),
    "oracle-decides-everywhere": (_oracle_decides_everywhere, ("flag_mismatch_rule",)),
    "oracle-undecided-at-masked-centres": (_oracle_undecided_at_masked_centres,
                                           ("flag_mismatch_rule",)),
    "rho-shift-dropped": (_rho_shift_dropped, ("golden_ellipsoid_capped",)),
    "B-star-sign-flipped": (_b_star_sign_flipped, ("golden_ellipsoid_capped",)),
    "oracle-pairs-raw-radii": (_oracle_pairs_raw_radii, ("mean_error_bits", "flag_mismatch_rule")),
}


def _passes(check, out_dir) -> bool:
    try:
        return check(out_dir)
    except Exception:  # a crash under a mutant is a failed check
        return False


def test_unmutated_code_passes_every_check(tmp_path):
    failed = [name for name, check in CHECKS.items() if not check(tmp_path / name)]
    assert not failed


@pytest.mark.parametrize("mutant, killers", MUTANTS.values(), ids=MUTANTS.keys())
def test_mutant_fails_its_checks(mutant, killers, tmp_path):
    with mutant():
        survived = [name for name in killers if _passes(CHECKS[name], tmp_path / name)]
    assert not survived
