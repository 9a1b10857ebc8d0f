"""Command-line interface: scenes, exit codes, output files."""

import argparse
import ctypes
import hashlib
import os
import pathlib
import subprocess
import sys
import warnings
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest

import catacaustics
from catacaustics import caustics, cli
from catacaustics.cli import main
from catacaustics.surfacelang import eval_surface
from catacaustics.surfaces import BUILTINS
from conftest import (BLOCK_SCENES, HUGE_BLOCK, block_sizes, cli_own_peak, scene_surface,
                      traced_peak_per_point)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


@pytest.mark.parametrize("preset, seen", [(None, "1"), ("3", "3")])
def test_import_pins_openblas_threads_unless_set(preset, seen):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(catacaustics.__file__))
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    code = "import os, catacaustics; print(os.environ['OPENBLAS_NUM_THREADS'])"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout == seen + "\n"


def test_console_entry_point(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(catacaustics.__file__)))
    launch = (sys.executable, "-c", "from catacaustics.cli import run; run()")
    done = subprocess.run([*launch, "builtins"], env=env, cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    assert "sphere" in done.stdout
    done = subprocess.run([*launch, "compute", "--surface", "sphere", "--grid="], env=env,
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode == 1
    assert "scene: argument --grid: needs a value" in done.stderr.splitlines()
    assert not list(tmp_path.iterdir())


def test_run_keeps_the_block_heap_once_before_main(monkeypatch):
    events = []
    libc = SimpleNamespace(mallopt=lambda param, value: events.append((param, value)))
    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: libc)
    monkeypatch.setattr(cli, "main", lambda: events.append("main") or 0)
    with pytest.raises(SystemExit) as done:
        cli.run()
    assert done.value.code == 0
    # M_MMAP_THRESHOLD above a block's (x, y, z) stack of float64 (24 B per
    # point), M_TRIM_THRESHOLD above a block's working set (~390 B per point)
    settings = [(-3, 32 * caustics.BLOCK_POINTS), (-1, 512 * caustics.BLOCK_POINTS)]
    assert events == [*settings, "main"]
    if hasattr(ctypes.CDLL(None), "mallopt"):
        # the C library takes both values: mallopt returns 1 on success
        code = f"import ctypes; m = ctypes.CDLL(None).mallopt; print([m(*s) for s in {settings}])"
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              check=True, timeout=60)
        assert done.stdout == "[1, 1]\n"


def test_heap_setting_is_a_no_op_without_mallopt(monkeypatch):
    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: SimpleNamespace())
    monkeypatch.setattr(cli, "main", lambda: 0)
    with pytest.raises(SystemExit) as done:
        cli.run()
    assert done.value.code == 0


def test_main_leaves_the_heap_as_it_finds_it(monkeypatch, tmp_path, capsys):
    libc = mock.Mock()
    monkeypatch.setattr(cli.ctypes, "CDLL", libc)
    scene = ("--surface", "sphere", "--flat", "0,0,1", "--grid", "8,8")
    for argv in (["builtins"], ["validate", *scene],
                 ["compute", *scene, "--out", str(tmp_path / "c")],
                 ["front", *scene, "--travel", "2", "--out", str(tmp_path / "f")]):
        assert main(argv) == 0
    capsys.readouterr()
    assert not libc.called


@pytest.mark.skipif(not pathlib.Path("/proc/self/status").exists(),
                    reason="reads VmHWM from /proc/self/status")
def test_validate_own_peak_is_bounded(tmp_path):
    # own peak of a cold validate of the 400^2 torus above that of `builtins`
    # (the interpreter with the package, 29.2 MB): 16.8 MB with a roots pass
    # that keeps no r or b and the block heap kept, 23.9 MB when the roots
    # pass kept them for a placement pass and glibc trimmed the heap
    code, out, peak = cli_own_peak(["validate", "--surface", "revolution", "--flat", "0,0,1",
                                    "--grid", "400,400"], tmp_path)
    assert code == 0 and "result:            PASS" in out
    _, _, floor = cli_own_peak(["builtins"], tmp_path)
    assert peak - floor <= 20.5, f"{peak - floor:.1f} MB above the interpreter's"


class TestBuiltinsCommand:
    def test_lists_surfaces_and_notes(self, capsys):
        code, out, _ = run(capsys, "builtins")
        assert code == 0
        assert "sphere" in out
        assert "revolution" in out and "optional" in out
        assert "cylinder" in out and "infinity" in out


class TestCompute:
    def test_sphere_writes_meshes_and_stats(self, tmp_path, capsys):
        prefix = str(tmp_path / "sphere")
        code, out, _ = run(capsys, "compute", "--surface", "sphere",
                           "--flat", "0,0,1", "--grid", "25,25", "--out", prefix)
        assert code == 0
        stats = read(prefix + "-stats.txt").decode()
        assert "sheet 1" in stats and "sheet 2" in stats
        # axial caustic line: x/y extents vanish
        for line in stats.splitlines():
            if line.startswith("sheet 1 bbox min"):
                lo = np.array([float(t) for t in line.split(":")[1].split()])
            if line.startswith("sheet 1 bbox max"):
                hi = np.array([float(t) for t in line.split(":")[1].split()])
        assert hi[0] - lo[0] < 1e-9 and hi[1] - lo[1] < 1e-9
        assert read(prefix + "-sheet1.obj")
        assert read(prefix + "-sheet2.obj")

    def test_unknown_surface_is_input_error(self, tmp_path, capsys):
        code, _, err = run(capsys, "compute", "--surface", "moebius",
                           "--out", str(tmp_path / "x"))
        assert code == 1
        assert "surface parse" in err or "scene" in err

    def test_two_surface_sources_is_input_error(self, tmp_path, capsys):
        # a readable surface file, so that only the pair of sources is at fault
        surface = tmp_path / "saddle.surf"
        surface.write_text("[u, v, u^2/2 - v^2/2]\nu in [-1, 1]; v in [-1, 1]\n")
        code, _, err = run(capsys, "compute", "--surface", "sphere",
                           "--expr-file", str(surface), "--out", str(tmp_path / "x"))
        assert code == 1
        assert "scene: argument --expr-file: not allowed with argument --surface" in err
        assert not list(tmp_path.glob("x-*"))

    def test_bad_flag_is_input_error_not_argparse_2(self, capsys):
        code, _, err = run(capsys, "compute", "--no-such-flag")
        assert code == 1

    def test_grazing_everything_gives_empty_exit_2(self, tmp_path, capsys):
        code, out, _ = run(capsys, "compute", "--surface", "translation",
                           "--param", "f=0*u", "--param", "h=0*v",
                           "--flat", "1,0,0", "--out", str(tmp_path / "flatmirror"))
        assert code == 2
        assert "no caustic" in out

    def test_expr_file_with_domain(self, tmp_path, capsys):
        surf = tmp_path / "saddle.surf"
        surf.write_text("# a saddle\n[u, v, u^2/2 - v^2/2]\nu in [-2, 2]; v in [-2, 2]\n")
        prefix = str(tmp_path / "saddle")
        code, _, _ = run(capsys, "compute", "--expr-file", str(surf),
                         "--flat", "0,0,1", "--grid", "12,12",
                         "--format", "csv", "--out", prefix)
        assert code == 0
        text = read(prefix + "-sheet1.csv").decode()
        assert text.splitlines()[0] == "u,v,x,y,z,flags"

    def test_param_override(self, tmp_path, capsys):
        prefix = str(tmp_path / "bigsphere")
        code, _, _ = run(capsys, "compute", "--surface", "sphere", "--param", "R=2",
                         "--grid", "10,10", "--flat", "0,0,1", "--out", prefix)
        assert code == 0
        stats = read(prefix + "-stats.txt").decode()
        for line in stats.splitlines():
            if line.startswith("surface diameter"):
                assert float(line.split(":")[1]) > 4.0

    @pytest.mark.parametrize("param", ["typo=3", "u=3"])
    def test_surface_file_rejects_a_param_it_does_not_read(self, param, tmp_path, capsys):
        # as a built-in rejects a parameter it does not take; u is read as the
        # chart variable, which shadows a parameter of that name
        surf = tmp_path / "bowl.surf"
        surf.write_text("[u, v, a*u^2 + v^2]\nu in [-1, 1]; v in [-1, 1]\n")
        code, _, err = run(capsys, "compute", "--expr-file", str(surf), "--param=a=0.5",
                           f"--param={param}", "--out", str(tmp_path / "x"))
        assert code == 1
        name = param.partition("=")[0]
        assert err == f"surface parse: unknown parameter '{name}' for the surface file (takes: a)\n"
        assert not list(tmp_path.glob("x-*"))


def test_parser_is_built_once_without_scene_defaults(tmp_path, capsys):
    # a --scene run builds its own parser from the file's values; the plain
    # parser, built once per process, never carries them
    scene = tmp_path / "scene.txt"
    scene.write_text("surface = sphere\ngrid = 7,6\n")
    cli._plain_parser.cache_clear()
    assert run(capsys, "compute", "--scene", str(scene), "--out", str(tmp_path / "file"))[0] == 0
    for _ in range(3):
        code, _, _ = run(capsys, "compute", "--surface", "sphere", "--out", str(tmp_path / "plain"))
        assert code == 0
    assert read(tmp_path / "file-stats.txt").startswith(b"grid: 7 x 6 ")
    assert read(tmp_path / "plain-stats.txt").startswith(b"grid: 50 x 50 ")
    info = cli._plain_parser.cache_info()
    assert (info.misses, info.hits) == (1, 3)


# a scene file, the flags given with it, and the flags alone that mean the
# same; {surf} is a saddle's surface file
SCENE_OVERRIDES = {
    "point-field-vs-flat": ("surface = sphere\nfield = point 0.3,0.2,3\n",
                            ("--flat", "0.1,0,1"), ("--surface", "sphere", "--flat", "0.1,0,1")),
    "flat-field-vs-source": ("surface = sphere\nfield = flat 0.1,0,1\n",
                             ("--source", "0.3,0.2,3"),
                             ("--surface", "sphere", "--source", "0.3,0.2,3")),
    "surface-vs-expr-file": ("surface = sphere\n", ("--expr-file", "{surf}"),
                             ("--expr-file", "{surf}")),
    "expr-file-vs-surface": ("surface = expr-file {surf}\n", ("--surface", "sphere"),
                             ("--surface", "sphere")),
    "expr-file": ("surface = expr-file {surf}\n", (), ("--expr-file", "{surf}")),
    "eps-grazing": ("surface = sphere\nfield = flat 0.3,0,1\n"
                    "thresholds = eps-grazing=0.3 max-radius=0.7\n",
                    ("--eps-grazing", "0.05"),
                    ("--surface", "sphere", "--flat", "0.3,0,1", "--eps-grazing", "0.05",
                     "--max-radius", "0.7")),
    "max-radius": ("surface = sphere\nfield = flat 0.3,0,1\n"
                   "thresholds = eps-grazing=0.3 max-radius=0.7\n",
                   ("--max-radius", "5"),
                   ("--surface", "sphere", "--flat", "0.3,0,1", "--eps-grazing", "0.3",
                    "--max-radius", "5")),
    "eps-inf": ("surface = sphere\nthresholds = eps-inf=1e3\n", ("--eps-inf", "1e-9"),
                ("--surface", "sphere", "--eps-inf", "1e-9")),
    "format": ("surface = sphere\noutput = format=csv prefix=fromfile\n", ("--format", "ply"),
               ("--surface", "sphere", "--format", "ply", "--out", "fromfile")),
    "out": ("surface = sphere\noutput = format=csv prefix=fromfile\n", ("--out", "flag"),
            ("--surface", "sphere", "--format", "csv", "--out", "flag")),
    # the file's parameters merge with --param's, a flag's value winning per name
    "params": ("surface = ellipsoid ax=2 ay=1.5\n", ("--param", "ay=0.5"),
               ("--surface", "ellipsoid", "--param", "ax=2", "--param", "ay=0.5")),
}

# a scene file with a bad line and the number of that line
SCENE_FILE_ERRORS = {
    "no-equals-sign": ("surface = sphere\ngrid 8,8\n", 2),
    "unknown-key": ("# a comment\n\nshape = sphere\n", 3),
    "word-threshold": ("surface = sphere\nthresholds = eps-inf=abc\n", 2),
    "unknown-threshold": ("surface = sphere\nthresholds = eps-flat=1\n", 2),
    "unknown-format": ("surface = sphere\n# csv next\n\noutput = format=stl\n", 4),
    "unknown-output-key": ("surface = sphere\noutput = suffix=x\n", 2),
    "field-kind": ("surface = sphere\nfield = cone 0,0,1\n", 2),
    "expr-file-without-path": ("surface = expr-file\n", 1),
    "scene-key": ("scene = other.txt\n", 1),
    "grid-word": ("surface = sphere\ngrid = 8,x\n", 2),
    "zero-flat": ("surface = sphere\n\nfield = flat 0,0,0\n", 3),
    "param-without-value": ("surface = sphere R\n", 1),
    "negative-max-radius": ("surface = sphere\nthresholds = max-radius=-1\n", 2),
    "empty-prefix": ("surface = sphere\noutput = prefix=\n", 2),
}


class TestSceneFile:
    def test_scene_file_and_flag_override(self, tmp_path, capsys):
        scene = tmp_path / "scene.txt"
        scene.write_text(
            "# hemisphere lit along its axis\n"
            "surface = sphere R=1.0\n"
            "domain = 0.2, 1.4, 0.0, 6.2831853\n"
            "grid = 8,8\n"
            "field = flat 0,0,1\n"
            "thresholds = eps-grazing=1e-6 eps-inf=1e-9\n"
            f"output = format=csv prefix={tmp_path}/fromfile\n")
        code, _, _ = run(capsys, "compute", "--scene", str(scene))
        assert code == 0
        n_lines = len(read(str(tmp_path / "fromfile-sheet1.csv")).splitlines())
        assert n_lines == 1 + 8 * 8

        # flags override the file: finer grid, different prefix
        code, _, _ = run(capsys, "compute", "--scene", str(scene),
                         "--grid", "9,9", "--out", str(tmp_path / "override"))
        assert code == 0
        n_lines = len(read(str(tmp_path / "override-sheet1.csv")).splitlines())
        assert n_lines == 1 + 9 * 9

    def test_unknown_key_rejected(self, tmp_path, capsys):
        scene = tmp_path / "bad.txt"
        scene.write_text("shape = sphere\n")
        code, _, err = run(capsys, "compute", "--scene", str(scene))
        assert code == 1
        assert "scene" in err

    @pytest.mark.parametrize("text, flags, same", SCENE_OVERRIDES.values(),
                             ids=SCENE_OVERRIDES.keys())
    def test_flags_override_each_scene_file_key(self, text, flags, same, tmp_path, capsys,
                                               monkeypatch):
        surface = tmp_path / "saddle.surf"
        surface.write_text("[u, v, u^2/2 - v^2/4]\nu in [-1, 1]; v in [-1, 1]\n")
        scene = tmp_path / "scene.txt"
        scene.write_text(text.format(surf=surface))

        def outputs(run_dir, *argv):
            run_dir.mkdir()
            monkeypatch.chdir(run_dir)
            code, _, err = run(capsys, "compute", *(a.format(surf=surface) for a in argv),
                               "--grid", "12,12")
            assert err == ""
            return code, {name: read(name) for name in sorted(os.listdir(run_dir))}

        got = outputs(tmp_path / "got", "--scene", str(scene), *flags)
        assert got == outputs(tmp_path / "same", *same)
        if flags:
            assert got != outputs(tmp_path / "file-only", "--scene", str(scene))

    @pytest.mark.parametrize("text, lineno", SCENE_FILE_ERRORS.values(),
                             ids=SCENE_FILE_ERRORS.keys())
    def test_scene_file_error_names_its_line(self, text, lineno, tmp_path, capsys):
        scene = tmp_path / "bad.txt"
        scene.write_text(text)
        code, _, err = run(capsys, "compute", "--scene", str(scene),
                           "--out", str(tmp_path / "x"))
        assert code == 1
        assert f"scene: scene file line {lineno}: " in err
        assert "Traceback" not in err


# each value fails a check of FlatFront, PointSource, GridSpec, a scene value's
# argparse type or the scene-file reader
BAD_SCENE_VALUES = {
    "zero-flat": ("compute", "--flat", "0,0,0"),
    "nan-source": ("compute", "--source", "nan,0,0"),
    "empty-domain": ("compute", "--domain", "1,0,0,1"),
    "one-row-grid": ("compute", "--grid", "1,5"),
    "zero-flat-in-file": ("compute", "--scene", "{scene}"),
    "negative-max-radius": ("compute", "--max-radius", "-1"),
    "validate-negative-max-radius": ("validate", "--max-radius", "-1"),
    "validate-nan-max-radius": ("validate", "--max-radius", "nan"),
    "validate-nan-fd-step": ("validate", "--fd-step", "nan"),
    "validate-subnormal-fd-step": ("validate", "--fd-step", "1e-320"),
    "validate-infinite-fd-step": ("validate", "--fd-step", "inf"),
    "validate-huge-fd-step": ("validate", "--fd-step", "1e308"),
    "negative-eps-inf": ("compute", "--eps-inf", "-1"),
    "nan-eps-inf": ("compute", "--eps-inf", "nan"),
    "negative-eps-grazing": ("compute", "--eps-grazing", "-1"),
    "nan-eps-grazing": ("compute", "--eps-grazing", "nan"),
    "word-threshold-in-file": ("compute", "--scene", "{thresholds}"),
    "unknown-format-in-file": ("compute", "--scene", "{output}"),
    "infinite-domain": ("compute", "--domain=0,1,0,inf"),
    "overflowing-domain": ("compute", "--domain=0,1e308,-1e308,1e308"),
    "infinite-flat": ("compute", "--flat", "inf,0,0"),
    "front-infinite-travel": ("front", "--travel", "inf"),
    "front-nan-travel": ("front", "--travel", "nan"),
    # an empty value is no value: it once meant the default
    "empty-grid": ("compute", "--grid="),
    "empty-flat": ("compute", "--flat="),
    "empty-out": ("compute", "--out="),
}

# the scene files that BAD_SCENE_VALUES name by {placeholder}
BAD_SCENE_FILES = {
    "scene": "field = flat 0,0,0\n",
    "thresholds": "surface = sphere\nthresholds = eps-inf=abc\n",
    "output": "surface = sphere\noutput = format=stl\n",
}


@pytest.mark.parametrize("argv", BAD_SCENE_VALUES.values(), ids=BAD_SCENE_VALUES.keys())
def test_bad_scene_value_is_input_error(argv, tmp_path, capsys):
    paths = {}
    for name, text in BAD_SCENE_FILES.items():
        paths[name] = tmp_path / f"{name}.txt"
        paths[name].write_text(text)
    argv = [arg.format(**paths) for arg in argv]
    code, _, err = run(capsys, *argv, "--surface", "sphere", "--out", str(tmp_path / "x"))
    assert code == 1
    assert any(line.startswith("scene: ") for line in err.splitlines())
    assert "Traceback" not in err


# a file that is not UTF-8, the flags that read it, and the kind of file it is
NOT_UTF8 = {
    "expr-file": (b"[u, v, u*v] # caf\xe9\n", ("--expr-file", "--domain=0,1,0,1"), "surface"),
    "scene": (b"surface = sphere # caf\xe9\n", ("--scene",), "scene"),
}


@pytest.mark.parametrize("data, flags, kind", NOT_UTF8.values(), ids=NOT_UTF8.keys())
def test_file_that_is_not_utf8_is_input_error(data, flags, kind, tmp_path, capsys):
    # this once ended in a UnicodeDecodeError traceback
    path = tmp_path / "latin1.txt"
    path.write_bytes(data)
    flag, *rest = flags
    code, _, err = run(capsys, "compute", flag, str(path), *rest, "--grid", "3,3",
                       "--out", str(tmp_path / "x"))
    assert code == 1
    assert err.startswith(f"scene: cannot read {kind} file: {str(path)!r}: 'utf-8' codec")
    assert "Traceback" not in err
    assert not list(tmp_path.glob("x-*"))


class TestValidate:
    def test_sphere_pass_exit_0(self, tmp_path, capsys):
        code, out, _ = run(capsys, "validate", "--surface", "sphere",
                           "--flat", "0,0,1", "--grid", "15,15")
        assert code == 0
        assert "result:            PASS" in out

    def test_ellipsoid_point_source_pass(self, capsys):
        code, out, _ = run(capsys, "validate", "--surface", "ellipsoid",
                           "--source", "0.05,-0.03,0.08", "--grid", "15,15")
        assert code == 0

    @pytest.mark.parametrize("scene, grid", [
        (("--surface", "revolution", "--flat", "0.3,0.1,-1"), "100,100"),
        (("--surface", "revolution", "--flat", "0.3,0.1,-1"), "400,400"),
        (("--surface", "revolution", "--flat", "0.3,0.1,1"), "200,200"),
        (("--surface", "ellipsoid", "--source", "0.3,0.2,3"), "100,100"),
        (("--surface", "ellipsoid", "--source", "0.3,0.2,3"), "400,400"),
    ], ids=["torus-below-100", "torus-below-400", "torus-above-200",
            "ellipsoid-exterior-100", "ellipsoid-exterior-400"])
    def test_near_grazing_scenes_pass_at_every_grid(self, capsys, scene, grid):
        # these once failed the cross-check of the roots against W* with an
        # internal error, depending on the grid size (|cos theta| down to 6e-6)
        code, out, err = run(capsys, "validate", *scene, "--grid", grid)
        assert (code, err) == (0, "")
        assert "result:            PASS" in out

    def test_validate_reads_no_sheet_statistics(self, capsys, monkeypatch):
        def unread(sheet):
            raise AssertionError("validate computed the sheet statistics")

        monkeypatch.setattr(caustics, "_sheet_statistics", unread)
        code, out, err = run(capsys, "validate", "--surface", "ellipsoid",
                             "--source", "0.05,-0.03,0.08", "--grid", "15,15")
        assert (code, err) == (0, "")
        assert "result:            PASS" in out

    def test_validate_places_no_whole_grid_sheet(self, capsys, monkeypatch):
        def unread(*args, **kwargs):
            raise AssertionError("validate computed the whole-grid sheets")

        monkeypatch.setattr(cli, "compute_caustic_sheets", unread)
        monkeypatch.setattr(caustics, "compute_caustic_sheets", unread)
        code, out, err = run(capsys, "validate", "--surface", "ellipsoid",
                             "--source", "0.05,-0.03,0.08", "--grid", "15,15")
        assert (code, err) == (0, "")
        assert "result:            PASS" in out

    def test_zero_tolerance_fails_exit_3(self, capsys):
        code, out, _ = run(capsys, "validate", "--surface", "sphere",
                           "--flat", "0,0,1", "--grid", "8,8", "--tol", "0")
        assert code == 3
        assert "FAIL" in out
        assert "max error" in out


# the second derivative of |u| ~ sqrt(u^2 + 1e-300) is NaN on the row u = 0
TROUGH = "[u, v, sqrt(u^2 + 1e-300)]\n"

# SHA-256 of validate's stdout, the oracle's whole report; a surface text
# stands for the file passed with --expr-file
VALIDATE_STDOUT_SHA256 = {
    "torus-axial": (("--surface", "revolution", "--flat", "0,0,1", "--grid", "120,100"),
                    "7ceea1225cc4e17487688189918323b3a9df489dce5b7cf1be3b6ca58f92e561"),
    "ellipsoid-point": (("--surface", "ellipsoid", "--source", "0.2,0.1,0.1", "--grid", "40,40"),
                        "1e2a12f8eadfa5a4ba3eeb2597b773832737fe1b673eca7d1e9ae6090f156a97"),
    "trough": ((TROUGH, "--domain=-1,1,-1,1", "--flat", "0.1,0.2,-1", "--grid", "21,21"),
               "e702a39ce64de729b4e7ce26d1f7c1e01cb897a4b4de7a46d32061a59a004e59"),
    # a binding cap: it clips all of sheet 1 (radii 2.7 to 7.7), none of sheet 2
    "torus-capped": (("--surface", "revolution", "--flat", "0,0,1", "--grid", "120,100",
                      "--max-radius", "0.7"),
                     "0eda862d717a4afe8d4c94d369629d18a85d1683b69a1a202fc509bf6162eb53"),
    # a threshold off its default: the oracle must mask the rays compute masked
    "sphere-grazing": (("--surface", "sphere", "--flat", "0.3,0,1", "--eps-grazing", "0.3"),
                       "e7930c87fa4cdf3deae5b8b7dc1f7e9c5b6d32e9726df88cda0943739c916289"),
}


@pytest.mark.parametrize("scene, digest", VALIDATE_STDOUT_SHA256.values(),
                         ids=VALIDATE_STDOUT_SHA256.keys())
def test_validate_report_bytes(scene, digest, tmp_path, capsys):
    if scene[0].startswith("["):
        surface = tmp_path / "mirror.surf"
        surface.write_text(scene[0])
        scene = ("--expr-file", str(surface), *scene[1:])
    code, out, err = run(capsys, "validate", *scene)
    assert err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestFront:
    def test_plane_mirror_front_is_plane(self, tmp_path, capsys):
        prefix = str(tmp_path / "plane")
        code, _, _ = run(capsys, "front", "--surface", "translation",
                         "--param", "f=0*u", "--param", "h=0*v",
                         "--flat", "0,0,-1", "--travel", "2", "--grid", "6,6",
                         "--out", prefix)
        assert code == 0
        zs = [float(line.split()[3]) for line in
              read(prefix + "-front.obj").decode().splitlines() if line.startswith("v ")]
        assert zs and all(z == pytest.approx(2.0, abs=1e-12) for z in zs)

    def test_sphere_front_passes_through_focus_height(self, tmp_path, capsys):
        prefix = str(tmp_path / "sphfront")
        code, _, _ = run(capsys, "front", "--surface", "sphere",
                         "--flat", "0,0,1", "--travel", "1.5",
                         "--domain", f"{np.pi/6},1.4,0,6.2831853",
                         "--grid", "9,9", "--out", prefix)
        assert code == 0
        verts = np.array([[float(t) for t in line.split()[1:]] for line in
                          read(prefix + "-front.obj").decode().splitlines()
                          if line.startswith("v ")])
        # the grid row at u = pi/6, v = 0 reflects through (0, 0, 1)
        d = np.linalg.norm(verts - np.array([0.0, 0.0, 1.0]), axis=1)
        assert d.min() < 1e-9

    def test_front_not_arrived_exit_2(self, tmp_path, capsys):
        code, out, _ = run(capsys, "front", "--surface", "sphere",
                           "--flat", "0,0,1", "--travel", "-5",
                           "--grid", "6,6", "--out", str(tmp_path / "early"))
        assert code == 2
        assert "front not arrived" in out

    def test_front_with_every_point_grazing_is_masked_not_unarrived(self, tmp_path, capsys):
        code, out, _ = run(capsys, "front", "--surface", "sphere", "--flat", "1,0,0",
                           "--eps-grazing", "2", "--grid", "5,5", "--travel", "5",
                           "--out", str(tmp_path / "grazing"))
        assert code == 2
        assert "no front: every grid point is masked" in out
        assert "front not arrived" not in out

    def test_front_with_every_point_singular_is_masked_not_unarrived(self, tmp_path, capsys):
        surface = tmp_path / "curve.surf"
        surface.write_text("[u, u^2, u^3]\n")  # r_v = 0: a curve, singular everywhere
        code, out, _ = run(capsys, "front", "--expr-file", str(surface), "--domain=0,1,0,1",
                           "--grid", "5,8", "--travel", "2", "--out", str(tmp_path / "curve"))
        assert code == 2
        assert "masked: 40 point(s) singular" in out
        assert "no front: every grid point is masked" in out
        assert "front not arrived" not in out

    def test_front_reads_no_fundamental_forms(self, tmp_path, capsys, monkeypatch):
        def unread(frame):
            raise AssertionError("front computed the fundamental forms")

        monkeypatch.setattr(caustics, "fundamental_forms", unread)
        monkeypatch.setattr(cli, "fundamental_forms", unread, raising=False)
        code, out, err = run(capsys, "front", "--surface", "ellipsoid",
                             "--source", "0.2,0.1,0.1", "--grid", "12,12",
                             "--travel", "0.9", "--out", str(tmp_path / "front"))
        assert (code, err) == (0, "")
        assert "wrote" in out

    def test_compute_takes_no_travel_flag(self, capsys):
        code, _, err = run(capsys, "compute", "--surface", "sphere", "--travel", "2")
        assert code == 1

    def test_front_working_set_is_bounded(self, tmp_path, capsys):
        # the ray stage and the PLY writer run per row block: ~56 B per point
        # here, the whole-grid points and flags included; a writer that builds
        # a whole-grid index map and face table reads ~124, and one whole-grid
        # ray stage ~286
        per_point, code = traced_peak_per_point(
            lambda: main(["front", "--surface", "revolution", "--flat", "0,0,1",
                          "--grid", "500,500", "--format", "ply", "--travel", "2",
                          "--out", str(tmp_path / "front")]), 500 * 500)
        assert code == 0
        assert per_point <= 65, f"{per_point:.0f} B per grid point"


def _front_mesh(capsys, name, field, shape):
    """The mesh front exports for a BLOCK_SCENES scene at travel 0.7, and its masked: lines."""
    scene = argparse.Namespace(
        surface=lambda params: scene_surface(name), params=None, domain=None, grid=shape,
        field=field, eps_grazing=caustics.EPS_GRAZING_DEFAULT, travel=0.7, format="ply",
        out="front")
    with mock.patch.object(cli, "export_mesh") as export:
        cli.cmd_front(scene)
    out = capsys.readouterr().out
    return export.call_args.args[0], [line for line in out.splitlines()
                                      if line.startswith("masked:")]


@pytest.mark.parametrize("name, field, shape", BLOCK_SCENES)
def test_block_size_does_not_change_the_front(name, field, shape, capsys):
    with mock.patch.object(caustics, "BLOCK_POINTS", HUGE_BLOCK):
        want, want_masked = _front_mesh(capsys, name, field, shape)
    for size in block_sizes(shape[1]):
        with mock.patch.object(caustics, "BLOCK_POINTS", size):
            assert len(caustics.row_blocks(*shape)) > 1
            got, masked = _front_mesh(capsys, name, field, shape)
        assert masked == want_masked
        assert np.array_equal(got.points.view(np.uint64), want.points.view(np.uint64))
        assert np.array_equal(got.flags, want.flags)


CONE = ("[u, v, sqrt(u^2+v^2)]\n", "--domain=-1,1,-1,1", "--flat", "0.1,0.2,-1")
CONE_MASKED = ("masked: 1 point(s) off the chart, first at grid index (10, 10): "
               "sqrt of non-positive value in 'sqrt(u^2.0 + v^2.0)'\n")


class TestPointDefects:
    """An off-chart or singular point is masked where it is; the grid runs on."""

    def _run(self, capsys, tmp_path, command, text, *argv):
        surface = tmp_path / "mirror.surf"
        surface.write_text(text)
        return run(capsys, *command, "--expr-file", str(surface), *argv,
                   "--out", str(tmp_path / "out"))

    @pytest.mark.parametrize("command", [("compute",), ("validate",),
                                         ("front", "--travel", "2")])
    def test_cone_apex_on_the_grid(self, capsys, tmp_path, command):
        # the apex (0, 0) is a grid point at 21 x 21 and not at 20 x 20
        code, out, err = self._run(capsys, tmp_path, command, *CONE, "--grid", "21,21")
        assert (code, err) == (0, "")
        assert out.startswith(CONE_MASKED)
        if command == ("validate",):
            assert "result:            PASS" in out
            # 10 diameters of the charted points; the apex's stand-in r = 0 is no point
            assert "caustic radius cap: 31.1884\n" in out
        code, out, err = self._run(capsys, tmp_path, command, *CONE, "--grid", "20,20")
        assert (code, err) == (0, "")
        assert "masked:" not in out

    def test_masked_line_does_not_depend_on_the_block_size(self, capsys, tmp_path,
                                                            monkeypatch):
        for size in (1, 21, 10**9):
            monkeypatch.setattr(caustics, "BLOCK_POINTS", size)
            code, out, _ = self._run(capsys, tmp_path, ("compute",), *CONE, "--grid", "21,21")
            assert code == 0
            assert out.startswith(CONE_MASKED)

    def test_cone_pairs_only_usable_roots(self, capsys, tmp_path):
        # a zero root's ~1e16 radius once decided the pairing by rounding: 24
        # points paired crossed, 48 flag mismatches and 376 compared
        code, out, err = self._run(capsys, tmp_path, ("validate",), *CONE, "--grid", "20,20")
        assert (code, err) == (0, "")
        assert "compared:          400 sheet-points\n  flag mismatches:   0\n" in out
        assert "max error:         5.615409e-08\n" in out

    def test_front_reads_no_second_derivative(self, capsys, tmp_path):
        # the trough's second derivative is NaN on the row u = 0, its rays are fine
        code, out, err = self._run(capsys, tmp_path, ("front", "--travel", "2"), TROUGH,
                                   "--domain=-1,1,-1,1", "--flat", "0.1,0.2,-1",
                                   "--grid", "21,21", "--format", "ply")
        assert (code, err) == (0, "")
        assert "masked:" not in out
        assert b"element vertex 441\n" in read(str(tmp_path / "out-front.ply"))
        code, out, err = self._run(capsys, tmp_path, ("compute",), TROUGH, "--domain=-1,1,-1,1",
                                   "--flat", "0.1,0.2,-1", "--grid", "21,21")
        assert out.startswith("masked: 21 point(s) off the chart, first at grid index (10, 0): "
                              "non-finite value in z-component")
        # the masked line gives the error of the order that flagged the point
        code, out, err = self._run(capsys, tmp_path, ("front", "--travel", "2"),
                                   "[sqrt(u^2 + 1e-300), v, log(u^2)]\n", "--domain=-1,1,-1,1",
                                   "--flat", "0.1,0.2,-1", "--grid", "21,21")
        assert out.startswith("masked: 21 point(s) off the chart, first at grid index (10, 0): "
                              "log of non-positive value in 'log(u^2.0)'\n")

    @pytest.mark.parametrize("command, orders", [
        (("compute",), [2]),
        (("validate",), [2, 1, 1, 1, 1, 1]),
        (("front", "--travel", "2"), [1]),
    ])
    def test_rays_take_first_order_jets_and_curvature_second(self, capsys, tmp_path,
                                                             command, orders):
        with mock.patch.object(caustics, "eval_surface", wraps=eval_surface) as spy:
            code, _, _ = run(capsys, *command, "--surface", "ellipsoid", "--source",
                             "0.2,0.1,0.1", "--grid", "12,10", "--out", str(tmp_path / "out"))
        assert code == 0
        assert [call.args[3] for call in spy.call_args_list] == orders

    def test_singular_row_is_masked(self, capsys, tmp_path):
        code, out, err = self._run(capsys, tmp_path, ("compute",),
                                   "[u*cos(v), u*sin(v), u^2/2]\n",
                                   "--domain=0,1,0,6.28", "--grid", "5,8")
        assert (code, err) == (0, "")
        assert out.startswith("masked: 8 point(s) singular (r_u x r_v ~ 0), "
                              "first at grid index (0, 0)\n")

    @pytest.mark.parametrize("command", [("compute",), ("front", "--travel", "2")])
    def test_chart_without_a_regular_point_is_empty(self, capsys, tmp_path, command):
        code, out, err = self._run(capsys, tmp_path, command, "[u, u^2, u^3]\n",
                                   "--domain=0,1,0,1", "--grid", "5,8")
        assert (code, err) == (2, "")
        assert out.startswith("masked: 40 point(s) singular")

    def test_validate_without_a_regular_point_fails(self, capsys, tmp_path):
        code, out, err = self._run(capsys, tmp_path, ("validate",), "[u, u^2, u^3]\n",
                                   "--domain=0,1,0,1", "--grid", "5,8")
        assert (code, err) == (3, "")
        assert "compared:          0 sheet-points" in out


# the sphere passes through the source (1, 0, 0) at (u, v) = (0, 0)
SOURCE_ON_MIRROR = ("--surface", "sphere", "--source", "1,0,0", "--grid", "6,6")
AT_SOURCE_MASKED = "masked: 1 point(s) at the point source, first at grid index (0, 0)\n"


class TestSourceOnMirror:
    """A grid point on the point source is masked where it is; the grid runs on."""

    def test_compute_masks_the_grid_point_on_the_source(self, capsys, tmp_path):
        # this once aborted the whole grid with "field: point source coincides
        # with a surface point", exit 1
        code, out, err = run(capsys, "compute", *SOURCE_ON_MIRROR, "--domain", "0,0.5,0,1",
                             "--format", "csv", "--out", str(tmp_path / "out"))
        assert (code, err) == (0, "")
        assert out.startswith(AT_SOURCE_MASKED)
        for sheet, counts in ((1, {1: 29, 16: 6, 2: 1}), (2, {1: 35, 2: 1})):
            rows = read(str(tmp_path / f"out-sheet{sheet}.csv")).decode().splitlines()[1:]
            flags = [int(row.rsplit(",", 1)[1]) for row in rows]
            assert flags[0] == caustics.FLAG_AT_SOURCE
            assert {f: flags.count(f) for f in set(flags)} == counts

    def test_front_masks_the_grid_point_on_the_source(self, capsys, tmp_path):
        code, out, err = run(capsys, "front", *SOURCE_ON_MIRROR, "--domain", "0,0.5,0,1",
                             "--travel", "2", "--out", str(tmp_path / "out"))
        assert (code, err) == (0, "")
        assert out.startswith(AT_SOURCE_MASKED)

    def test_validate_stencil_on_the_source(self, capsys):
        # no grid point lies on the source, but the stencil point u - h of the
        # grid point (0, 0) does, which once aborted validate as well
        code, out, err = run(capsys, "validate", *SOURCE_ON_MIRROR,
                             "--domain", "0.0001,0.5,0,1", "--fd-step", "1e-4")
        assert (code, err) == (0, "")
        assert "masked:" not in out
        assert "compared:          64 sheet-points\n" in out
        # the grid point whose stencil meets the source gets no verdict
        assert "flag mismatches:   0\n" in out
        assert "result:            PASS\n" in out


# |p| and |q| are ~1e-10 in 1/length: a double-root clamp absolute in
# 1/length^2 once made the distinct roots +-8.5e-11 one root, which the
# cross-check rejected for the whole grid ("internal: ... 2.407e-08")
STEEP_PLANE = ("[u, v, -6445.27*v + 0.00177284*u*v]\n", "--domain=-0.2,0.05,-0.2,0.12",
               "--flat=0,0,1")


def test_steep_plane_has_no_caustic(capsys, tmp_path):
    surface = tmp_path / "mirror.surf"
    surface.write_text(STEEP_PLANE[0])
    code, out, err = run(capsys, "compute", "--expr-file", str(surface), *STEEP_PLANE[1:],
                         "--out", str(tmp_path / "out"))
    assert (code, err) == (2, "")
    assert "no caustic" in out  # both roots lie ~1e10 away, beyond --eps-inf


# |cos theta| ~ 1e-170 on the row u = 0 puts p ~ 2 B(a_t, a_t) / cos theta
# near 1e170, whose square overflows; the roots once came out NaN with no
# flag bit, which ended compute in a traceback
OVERFLOWING_P = ("--surface", "sphere", "--flat", "1e-170,0,1", "--eps-grazing", "0",
                 "--domain=-0.1,0.1,0,3", "--grid", "3,4")


def test_overflowing_quadratic_places_both_sheets(capsys, tmp_path):
    code, _, err = run(capsys, "compute", *OVERFLOWING_P, "--out", str(tmp_path / "out"))
    assert (code, err) == (0, "")
    stats = read(str(tmp_path / "out-stats.txt")).decode()
    for sheet in (1, 2):
        assert f"sheet {sheet}: valid 10, at_infinity 2, excluded_zero_root 0\n" in stats


def test_overflowing_quadratic_validates(capsys):
    # this printed three overflow warnings before its PASS
    code, out, err = run(capsys, "validate", *OVERFLOWING_P)
    assert (code, err) == (0, "")
    assert out.endswith("result:            PASS\n")


class TestDeterminism:
    def test_repeated_compute_is_byte_identical(self, tmp_path, capsys):
        args = ("compute", "--surface", "ellipsoid", "--source", "0.1,0.05,-0.02",
                "--grid", "20,20", "--format", "obj")
        run(capsys, *args, "--out", str(tmp_path / "run1"))
        run(capsys, *args, "--out", str(tmp_path / "run2"))
        for suffix in ("-sheet1.obj", "-sheet2.obj", "-stats.txt"):
            assert read(str(tmp_path / f"run1{suffix}")) == \
                read(str(tmp_path / f"run2{suffix}"))


# the fields of the CLI sweep: axial and oblique flat fronts, and point
# sources inside and outside the closed built-ins
SWEEP_FIELDS = ("--flat=0,0,1", "--flat=0.3,0.2,-1", "--source=0.2,0.1,0.1",
                "--source=0.3,0.2,3")
SWEEP_SCENES = [("--surface", name, field, "--grid", "24,20")
                for name in sorted(BUILTINS) for field in SWEEP_FIELDS] + [OVERFLOWING_P]


def test_cli_sweep_is_warning_free(tmp_path, capsys):
    # every built-in under every field kind, through each command, ends in an
    # exit code of its own, and every CSV row it writes is valid or says why not
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for scene in SWEEP_SCENES:
            for command in (("compute",), ("validate",), ("front", "--travel", "1")):
                out = tmp_path / "run"
                code, _, err = run(capsys, *command, *scene, "--format", "csv",
                                   "--out", str(out))
                assert code in (0, 2, 3), (command, scene, err)
                assert "Traceback" not in err
                for path in tmp_path.glob("run-*.csv"):
                    rows = read(str(path)).decode().splitlines()[1:]
                    assert all(int(row.rsplit(",", 1)[1]) for row in rows), (command, scene)
                    path.unlink()
