"""Masked-grid mesh writers: OBJ, CSV, PLY; byte determinism and face rules."""

import hashlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from catacaustics import (FlatFront, GridSpec, build_surface, caustics, cli,
                          compute_caustic_sheets, export_mesh, meshio)
from catacaustics.caustics import (FLAG_AT_INFINITY, FLAG_CLIPPED,
                                   FLAG_GRAZING, FLAG_VALID, MaskedGrid)
from conftest import traced_peak_per_point

AXIAL = FlatFront((0.0, 0.0, 1.0))


def small_grid(flags=None):
    u = np.array([0.0, 1.0])
    v = np.array([0.0, 1.0])
    pts = np.array([[[0.0, 0.0], [1.0, 1.0]],      # x
                    [[0.0, 1.0], [0.0, 1.0]],      # y
                    [[0.0, 0.25], [0.5, 1.0]]])    # z
    if flags is None:
        flags = np.full((2, 2), FLAG_VALID, dtype=np.uint8)
    return MaskedGrid(u, v, pts, flags)


def read(path):
    with open(path, "rb") as fh:
        return fh.read().decode("ascii")


class TestObj:
    def test_two_by_two_all_valid(self, tmp_path):
        path = tmp_path / "quad.obj"
        n = export_mesh(small_grid(), "obj", path)
        text = read(path)
        lines = text.splitlines()
        assert sum(l.startswith("v ") for l in lines) == 4
        assert sum(l.startswith("f ") for l in lines) == 1
        assert n == len(text.encode())

    def test_one_invalid_vertex_drops_face(self, tmp_path):
        flags = np.full((2, 2), FLAG_VALID, dtype=np.uint8)
        flags[1, 1] = FLAG_GRAZING
        path = tmp_path / "broken.obj"
        export_mesh(small_grid(flags), "obj", path)
        lines = read(path).splitlines()
        assert sum(l.startswith("v ") for l in lines) == 3
        assert sum(l.startswith("f ") for l in lines) == 0

    def test_vertex_format_nine_decimals(self, tmp_path):
        path = tmp_path / "fmt.obj"
        export_mesh(small_grid(), "obj", path)
        assert read(path).splitlines()[0] == "v 0.000000000 0.000000000 0.000000000"

    def test_negative_zero_is_normalized(self, tmp_path):
        g = small_grid()
        g.points[0, 0, 0] = -1e-15
        path = tmp_path / "negzero.obj"
        export_mesh(g, "obj", path)
        assert "-0.000000000" not in read(path)

    def test_faces_reference_only_valid_vertices(self, tmp_path):
        ast, dom = build_surface("sphere")
        grid = GridSpec(12, 12, dom)
        sheet2 = compute_caustic_sheets(ast, AXIAL, grid, max_radius=np.inf)[1]
        path = tmp_path / "sheet.obj"
        export_mesh(sheet2, "obj", path)
        lines = read(path).splitlines()
        n_vertices = sum(l.startswith("v ") for l in lines)
        for line in lines:
            if line.startswith("f "):
                idx = [int(tok) for tok in line.split()[1:]]
                assert len(idx) == 4
                assert all(1 <= i <= n_vertices for i in idx)


class TestClip:
    # the radius cap is applied where compute_caustic_sheets places the sheets
    def sphere_sheets(self, max_radius=None):
        ast, dom = build_surface("sphere")
        grid = GridSpec(10, 10, (0.2, 1.4, 0.0, 6.2831853))
        return compute_caustic_sheets(ast, AXIAL, grid, max_radius=max_radius)

    def test_cylinder_flat_sheet_is_empty_mesh(self, tmp_path):
        ast, dom = build_surface("cylinder")
        s1, s2, _ = compute_caustic_sheets(ast, FlatFront((1.0, 0.0, 0.0)),
                                           GridSpec(8, 4, dom), max_radius=100.0)
        flat = s1 if np.all(s1.flags & FLAG_AT_INFINITY) else s2
        path = tmp_path / "inf.obj"
        n = export_mesh(flat, "obj", path)
        assert n == 0
        assert read(path) == ""

    def test_sphere_sheet1_unclipped_in_range(self):
        s1, _, _ = self.sphere_sheets(max_radius=10.0)  # radii 1/(2 sin u) <= 2.52
        assert np.all(s1.valid)

    def test_clip_radius_masks_far_points(self):
        s1, _, stats = self.sphere_sheets(max_radius=1.0)  # radii span [0.507, 2.52]
        assert stats.roots.max_radius == 1.0
        clipped = (s1.flags & FLAG_CLIPPED) != 0
        assert np.any(clipped)
        assert not np.any(clipped & s1.valid)
        with np.errstate(all="ignore"):
            radii = np.abs(1.0 / s1.k_star)
        assert np.array_equal(clipped, radii > 1.0)
        # a clipped point keeps its placed caustic point
        assert np.all(np.isfinite(s1.points[:, clipped]))

    def test_no_radius_keeps_core_flags_only(self):
        uncapped, _, stats = self.sphere_sheets(max_radius=np.inf)
        assert stats.roots.max_radius == np.inf
        assert not np.any(uncapped.flags & FLAG_CLIPPED)
        # the default cap, 10 surface diameters, is far beyond every radius here
        assert np.array_equal(self.sphere_sheets()[0].flags, uncapped.flags)
        capped = self.sphere_sheets(max_radius=1.0)[0]
        clipped = (capped.flags & FLAG_CLIPPED) != 0
        assert np.array_equal(capped.flags, np.where(clipped, FLAG_CLIPPED, uncapped.flags))

    def test_nonpositive_radius_rejected(self):
        for max_radius in (0.0, -1.0, np.nan):
            with pytest.raises(ValueError):
                self.sphere_sheets(max_radius=max_radius)


class TestCsv:
    def test_round_trip_to_printed_precision(self, tmp_path):
        rng = np.random.default_rng(4)
        u = np.sort(rng.uniform(-2, 2, 3))
        v = np.sort(rng.uniform(-2, 2, 4))
        pts = rng.uniform(-5, 5, (3, 3, 4))
        grid = MaskedGrid(u, v, pts, np.full((3, 4), FLAG_VALID, dtype=np.uint8))
        path = tmp_path / "grid.csv"
        export_mesh(grid, "csv", path)
        lines = read(path).splitlines()
        assert lines[0] == "u,v,x,y,z,flags"
        assert len(lines) == 1 + 12
        for idx, line in enumerate(lines[1:]):
            i, j = divmod(idx, 4)
            su, sv, sx, sy, sz, fl = line.split(",")
            assert float(su) == pytest.approx(u[i], abs=5e-10)
            assert float(sv) == pytest.approx(v[j], abs=5e-10)
            assert [float(sx), float(sy), float(sz)] == pytest.approx(
                list(pts[:, i, j]), abs=5e-10)
            assert int(fl) == FLAG_VALID

    def test_invalid_rows_have_empty_coordinates(self, tmp_path):
        flags = np.full((2, 2), FLAG_VALID, dtype=np.uint8)
        flags[0, 1] = FLAG_GRAZING
        path = tmp_path / "mask.csv"
        export_mesh(small_grid(flags), "csv", path)
        lines = read(path).splitlines()
        bad = lines[2].split(",")
        assert bad[2] == bad[3] == bad[4] == ""
        assert int(bad[5]) == FLAG_GRAZING


class TestPly:
    def test_header_and_counts(self, tmp_path):
        path = tmp_path / "quad.ply"
        export_mesh(small_grid(), "ply", path)
        lines = read(path).splitlines()
        assert lines[0] == "ply"
        assert lines[1] == "format ascii 1.0"
        assert "element vertex 4" in lines
        assert "element face 1" in lines
        assert lines[-1] == "4 0 1 3 2" or lines[-1].startswith("4 ")

    def test_same_vertices_and_faces_as_obj(self, tmp_path):
        ast, dom = build_surface("hyperbolic-paraboloid")
        sheet1 = compute_caustic_sheets(ast, AXIAL, GridSpec(9, 9, dom), max_radius=50.0)[0]
        grid = sheet1
        export_mesh(grid, "obj", tmp_path / "s.obj")
        export_mesh(grid, "ply", tmp_path / "s.ply")
        obj = read(tmp_path / "s.obj").splitlines()
        ply = read(tmp_path / "s.ply").splitlines()
        obj_v = [l[2:] for l in obj if l.startswith("v ")]
        obj_f = [[int(t) - 1 for t in l.split()[1:]] for l in obj if l.startswith("f ")]
        body = ply[ply.index("end_header") + 1:]
        ply_v = body[:len(obj_v)]
        ply_f = [[int(t) for t in l.split()[1:]] for l in body[len(obj_v):]]
        assert obj_v == ply_v
        assert obj_f == ply_f


class TestDeterminismAndErrors:
    def test_byte_identical_reruns(self, tmp_path):
        ast, dom = build_surface("ellipsoid")
        sheet1 = compute_caustic_sheets(ast, AXIAL, GridSpec(14, 14, dom), max_radius=40.0)[0]
        grid = sheet1
        blobs = []
        for fmt in ("obj", "csv", "ply"):
            a = tmp_path / f"a.{fmt}"
            b = tmp_path / f"b.{fmt}"
            export_mesh(grid, fmt, a)
            export_mesh(grid, fmt, b)
            with open(a, "rb") as fa, open(b, "rb") as fb:
                da, db = fa.read(), fb.read()
            assert da == db
            assert b"\r" not in da
            blobs.append(da)

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ValueError):
            export_mesh(small_grid(), "gltf", tmp_path / "x.gltf")

    def test_masked_grid_requires_reason_bits(self):
        flags = np.full((2, 2), FLAG_VALID, dtype=np.uint8)
        flags[0, 0] = 0  # invalid but no reason
        with pytest.raises(ValueError):
            small_grid(flags)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            MaskedGrid(np.zeros(3), np.zeros(2), np.zeros((3, 2, 2)),
                       np.full((2, 2), FLAG_VALID, dtype=np.uint8))
        # points are (x, y, z) planes: an (nu, nv, 3) array on a 3 x 2 grid fails
        # here rather than being written as a transposed mesh
        with pytest.raises(ValueError):
            MaskedGrid(np.zeros(3), np.zeros(2), np.zeros((3, 2, 3)),
                       np.full((3, 2), FLAG_VALID, dtype=np.uint8))

    @pytest.mark.parametrize("nu, nv", [(3, 0), (0, 4), (0, 0)])
    def test_grid_without_points_is_writable(self, tmp_path, nu, nv):
        grid = MaskedGrid(np.linspace(0.0, 1.0, nu), np.linspace(0.0, 1.0, nv),
                          np.zeros((3, nu, nv)), np.zeros((nu, nv), dtype=np.uint8))
        for fmt in meshio.FORMATS:
            path = tmp_path / f"none.{fmt}"
            assert export_mesh(grid, fmt, path) == path.stat().st_size
            assert path.read_bytes() == reference_bytes(grid, fmt)
        assert read(tmp_path / "none.obj") == ""
        assert read(tmp_path / "none.csv") == "u,v,x,y,z,flags\n"
        assert {"element vertex 0", "element face 0"} <= set(read(tmp_path / "none.ply").split("\n"))


@pytest.mark.parametrize("fmt", ["obj", "ply"])
def test_writer_working_set_is_bounded(tmp_path, fmt):
    # the writers hold the flags' masks (2 B per point) and one row block's
    # lines, ~30 B per point here; a whole-grid vertex-index map, face table
    # and gathered vertices read ~77 (OBJ) and ~98 (PLY)
    n = 500
    u, v = np.linspace(-1.0, 1.0, n), np.linspace(0.0, 6.2, n)
    U, V = np.meshgrid(u, v, indexing="ij")
    points = np.stack([np.cos(V) * (2.0 + U), np.sin(V) * (2.0 + U), U * U])
    grid = MaskedGrid(u, v, points, np.full((n, n), FLAG_VALID, dtype=np.uint8))
    per_point, _ = traced_peak_per_point(
        lambda: export_mesh(grid, fmt, tmp_path / f"torus.{fmt}"), n * n)
    assert per_point <= 40, f"{per_point:.0f} B per grid point"


# --------------------------------------------------------------------------
# golden bytes: SHA-256 of every file the writers produce for fixed scenes
# --------------------------------------------------------------------------

def _cli_files(argv, out_dir, prefix):
    out = str(out_dir / prefix)
    assert cli.main([*argv, "--out", out]) in (0, 2)
    return {p.name: p.read_bytes() for p in sorted(out_dir.glob(f"{prefix}-*"))}


def _grid_files(grid, out_dir, prefix):
    files = {}
    for fmt in meshio.FORMATS:
        path = out_dir / f"{prefix}.{fmt}"
        n = export_mesh(grid, fmt, path)
        files[path.name] = path.read_bytes()
        assert n == len(files[path.name])
    return files


def golden_files(out_dir):
    """Every file of the golden scenes, keyed by file name."""
    files = {}
    for fmt in ("obj", "csv", "ply"):
        files.update(_cli_files(["compute", "--surface", "sphere", "--flat", "0,0,1",
                                 "--grid", "12,12", "--format", fmt], out_dir, f"sphere-{fmt}"))
        files.update(_cli_files(["compute", "--surface", "ellipsoid",
                                 "--source", "0.2,0.1,0.1", "--grid", "40,40",
                                 "--format", fmt], out_dir, f"ellipsoid-{fmt}"))
        # L = 0.6 leaves the low rows of the sphere unarrived (clipped)
        files.update(_cli_files(["front", "--surface", "sphere", "--flat", "0,0,1",
                                 "--grid", "12,12", "--travel", "0.6", "--format", fmt],
                                out_dir, f"front-{fmt}"))
        # a point source travels |r - O| to the mirror; L = 0.9 leaves some unarrived
        files.update(_cli_files(["front", "--surface", "ellipsoid",
                                 "--source", "0.2,0.1,0.1", "--grid", "40,40",
                                 "--travel", "0.9", "--format", fmt],
                                out_dir, f"front-point-{fmt}"))
        # cos theta depends on u alone here, so per-point planes keep shape (rows, 1)
        files.update(_cli_files(["front", "--surface", "cylinder", "--flat", "1,0,0",
                                 "--grid", "12,8", "--travel", "0.8", "--format", fmt],
                                out_dir, f"front-cylinder-{fmt}"))
    # a binding cap clips part of both sheets: the flags column shows it
    files.update(_cli_files(["compute", "--surface", "ellipsoid", "--source", "0.2,0.1,0.1",
                             "--grid", "40,40", "--format", "csv", "--max-radius", "1"],
                            out_dir, "ellipsoid-capped"))
    ast, dom = build_surface("cylinder")
    sheets = compute_caustic_sheets(ast, FlatFront((1.0, 0.0, 0.0)), GridSpec(8, 4, dom),
                                    max_radius=100.0)[:2]
    flat = next(s for s in sheets if np.all(s.flags & FLAG_AT_INFINITY))
    files.update(_grid_files(flat, out_dir, "empty"))
    v = np.linspace(-1.0, 1.0, 5)
    pts = np.stack([np.full(5, 0.5), v, v * v - 0.25])[:, None]
    flags = np.full((1, 5), FLAG_VALID, dtype=np.uint8)
    flags[0, 3] = FLAG_GRAZING
    pts[0, 0, 0], pts[0, 0, 1] = -0.0, -2e-10  # both print as -0.000000000
    files.update(_grid_files(MaskedGrid(np.array([0.5]), v, pts, flags), out_dir, "row"))
    return files


GOLDEN_SHA256 = {
    "sphere-obj-sheet1.obj": "f4df7d9ea6b5b653952956a78e861bf6ff787c11c27de1d5fbfe2411193f1cc8",
    "sphere-obj-sheet2.obj": "9f774f7939f6bbb7e9cf71962af13a4564ffeed1c5eaa050c336c9337867a6ad",
    "sphere-obj-stats.txt": "568669e75959ebd9c436bc0a9e272f0b3b4c1cbd65dd62f39e8f229a82b3a3c2",
    "ellipsoid-obj-sheet1.obj": "689e06733c857d7092138a945ba8e9293d3cf03a3714501c3861293c8b5a7f27",
    "ellipsoid-obj-sheet2.obj": "22573b98821a2f5bf53fc7a02eedd1e35a73431a09bbfb004aafaf08f35e6207",
    "ellipsoid-obj-stats.txt": "88e2c8ad7e94932e2973a599f3cb6e593d4e85ccae3c14febc3d5d069639c49c",
    "front-obj-front.obj": "52b7ba13227d5a417a2a47d489ad922761ddc0fb3f2cfd611281ebc137442172",
    "front-point-obj-front.obj": "0a808182e04eb39160268d2564a311fa1a940b151e4530248fee3cc502f74dfe",
    "front-cylinder-obj-front.obj": "cb4b6c64577206825dc1d01b0539224473502b92e29890eafe8352c83402132d",
    "sphere-csv-sheet1.csv": "b6eba090f40a8c5ebd73eb1a330e2db564cee0c45e400ab8dd905e85d7901041",
    "sphere-csv-sheet2.csv": "ac3778ba9d4b0d6d15846ac5988edf72eb31929332a5115734b43fab4684cfe5",
    "sphere-csv-stats.txt": "568669e75959ebd9c436bc0a9e272f0b3b4c1cbd65dd62f39e8f229a82b3a3c2",
    "ellipsoid-csv-sheet1.csv": "8c5d0f6bb9a83fbf1ea07e524a61fc07e7997f40cbf7efab5e992f3cffbc5fab",
    "ellipsoid-csv-sheet2.csv": "30e8c718c9a026d24d0f30fa9239973cb11e257a69efcf29105e2e55ff917711",
    "ellipsoid-csv-stats.txt": "88e2c8ad7e94932e2973a599f3cb6e593d4e85ccae3c14febc3d5d069639c49c",
    "ellipsoid-capped-sheet1.csv": "80dfcf288c86cfcf5d6ae6ee7d8b1dceddb85af1be5ca6cbe6b88ac71268fbcc",
    "ellipsoid-capped-sheet2.csv": "ca9e55c098bba81092f62c6fd419f596fe1c70202ffbb9cfb25df7600b22b1bf",
    "ellipsoid-capped-stats.txt": "88e2c8ad7e94932e2973a599f3cb6e593d4e85ccae3c14febc3d5d069639c49c",
    "front-csv-front.csv": "7f59677f15e4c0dab514531358dbcf8ce4cd3c97d912a8c4775eaea8649b695b",
    "front-point-csv-front.csv": "52e997171cfe296f87f782a01e5497df7c6c9547ecf3ca5ec4f02eb8803dfefe",
    "front-cylinder-csv-front.csv": "1592f37d42c6c2d0fb2705c93dd9bac54253f10558c4b266780ef8a6ff28e1df",
    "sphere-ply-sheet1.ply": "fce5f06375599f62180ef0cd8f7fb8c2116de28c83ac97eac0b33ab23029a59d",
    "sphere-ply-sheet2.ply": "88cdf436bb3afa85f555e6f733db00fdd89face2819818d9e6737d837dc15ca8",
    "sphere-ply-stats.txt": "568669e75959ebd9c436bc0a9e272f0b3b4c1cbd65dd62f39e8f229a82b3a3c2",
    "ellipsoid-ply-sheet1.ply": "c5b6af5a8bd11f2bf2ca8ba785cd4def2929f776285f447013bf715edb0f44a1",
    "ellipsoid-ply-sheet2.ply": "04c659ce79069496b9977dda8eb7470f5c90fbe43f3c03da7befaf650dff762f",
    "ellipsoid-ply-stats.txt": "88e2c8ad7e94932e2973a599f3cb6e593d4e85ccae3c14febc3d5d069639c49c",
    "front-ply-front.ply": "1e6fae746d37feb8c9e8cf2ceebff6069c7ab1bcbfc494ad46686b766bbc08c6",
    "front-point-ply-front.ply": "6e41bc8b502a19b8cc91881022e8647720442c84c242d78f7214ac48e47bf0e5",
    "front-cylinder-ply-front.ply": "32fd7c4f313e08b47a07d7e15e6ef2953c62c9a301b44e415f123a5e6403cf06",
    "empty.obj": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "empty.csv": "5ffe3fbe3707555af4cead82d20cf258e04821e67d423037a0d378ec3e6e39a2",
    "empty.ply": "e41fea06110bba6bc17e5e9506a7b275f0e48d51b9591f92580d517081b45a63",
    "row.obj": "4e69d129671865e7e78f3f22bcd22048e70f251ea4eec77a185d57350369e0c9",
    "row.csv": "cbe77fe6ce48c083960f89a70a9b5bce0d63b780a1daea248cb66a5089aa0f1c",
    "row.ply": "d6b2365c1e7ef5396c3b6f5730bee93ad95d9ea8146ef485bb7e32e9d5fd2f02",
}


def test_golden_bytes(tmp_path):
    files = golden_files(tmp_path)
    digests = {name: hashlib.sha256(data).hexdigest() for name, data in files.items()}
    assert digests == GOLDEN_SHA256
    assert files["empty.obj"] == b""
    assert files["empty.ply"].endswith(b"end_header\n")
    assert b"\nf " not in files["row.obj"]


# --------------------------------------------------------------------------
# property: the writers match a one-value-at-a-time reference formatter
# --------------------------------------------------------------------------

def _fmt9(x) -> str:
    s = f"{x:.9f}"
    return "0.000000000" if s == "-0.000000000" else s


def reference_bytes(grid: MaskedGrid, fmt: str) -> bytes:
    """The byte contract spelled out per vertex, per face and per grid point."""
    valid = grid.valid
    nu, nv = valid.shape
    idx = np.full(valid.shape, -1, dtype=int)
    idx[valid] = np.arange(int(np.count_nonzero(valid)))
    vertices = [" ".join(_fmt9(c) for c in grid.points[:, i, j]) for i, j in np.argwhere(valid)]
    faces = [(idx[i, j], idx[i + 1, j], idx[i + 1, j + 1], idx[i, j + 1])
             for i in range(nu - 1) for j in range(nv - 1) if valid[i:i + 2, j:j + 2].all()]
    if fmt == "obj":
        lines = [f"v {v}" for v in vertices] + [f"f {a + 1} {b + 1} {c + 1} {d + 1}"
                                                for a, b, c, d in faces]
    elif fmt == "ply":
        lines = ["ply", "format ascii 1.0", f"element vertex {len(vertices)}",
                 "property float x", "property float y", "property float z",
                 f"element face {len(faces)}", "property list uchar int vertex_indices",
                 "end_header", *vertices, *(f"4 {a} {b} {c} {d}" for a, b, c, d in faces)]
    else:
        lines = ["u,v,x,y,z,flags"]
        for i in range(nu):
            for j in range(nv):
                coords = ",".join(_fmt9(c) for c in grid.points[:, i, j]) if valid[i, j] else ",,"
                lines.append(f"{_fmt9(grid.u[i])},{_fmt9(grid.v[j])},{coords},"
                             f"{int(grid.flags[i, j])}")
    return "".join(line + "\n" for line in lines).encode("ascii")


def _signed(values):
    return st.tuples(values, st.booleans()).map(lambda t: -t[0] if t[1] else t[0])


_FAST = meshio._FAST_LIMIT
_in_range = st.one_of(
    st.floats(-1e3, 1e3),
    st.floats(-_FAST, _FAST),
    # x * 1e9 rounds onto a half-integer while the exact product is not one
    _signed(st.integers(0, 2**50).map(lambda m: (m + 0.5) / 1e9)),
    # exact ties of x * 1e9, which print half to even, and one ulp either side
    _signed(st.tuples(st.integers(0, 2**30).map(lambda k: (2 * k + 1) * 2.0**-10),
                      st.sampled_from([0.0, np.inf, -np.inf]))
            .map(lambda t: float(np.nextafter(t[0], t[1])) if t[1] else t[0])),
    st.floats(-2.2250738585072014e-308, 2.2250738585072014e-308),  # subnormals
)
_values = st.one_of(
    _in_range, _in_range, _in_range,
    st.floats(-5e-10, 0.0, exclude_min=True, exclude_max=True),  # prints as -0.000000000
    st.just(-0.0),
    st.floats(-1e12, 1e12),
    st.sampled_from([np.inf, -np.inf, np.nan]),
    # either side of the fast path's bound
    _signed(st.sampled_from([_FAST, np.nextafter(_FAST, 0.0), np.nextafter(_FAST, np.inf)])),
    _signed(st.floats(_FAST / 2, _FAST * 2)),
)
_reasons = st.sampled_from([FLAG_GRAZING, FLAG_CLIPPED, FLAG_AT_INFINITY, 0x02, 0x20])


@st.composite
def masked_grids(draw):
    nu, nv = draw(st.integers(1, 7)), draw(st.integers(1, 9))
    u = draw(arrays(float, nu, elements=_values))
    v = draw(arrays(float, nv, elements=_values))
    points = draw(arrays(float, (3, nu, nv), elements=_values))
    valid = draw(arrays(bool, (nu, nv)))
    reasons = draw(arrays(np.uint8, (nu, nv), elements=_reasons))
    flags = np.where(valid, np.uint8(FLAG_VALID), reasons).astype(np.uint8)
    return MaskedGrid(u, v, points, flags)


@given(masked_grids(), st.sampled_from([1, 2, 5, caustics.BLOCK_POINTS]))
@settings(max_examples=200, deadline=None)
def test_export_matches_reference_formatter(tmp_path_factory, grid, block_points):
    out = tmp_path_factory.mktemp("prop")
    with mock.patch.object(caustics, "BLOCK_POINTS", block_points):
        for fmt in meshio.FORMATS:
            path = out / f"grid.{fmt}"
            n = export_mesh(grid, fmt, path)
            assert path.read_bytes() == reference_bytes(grid, fmt)
            assert n == path.stat().st_size
