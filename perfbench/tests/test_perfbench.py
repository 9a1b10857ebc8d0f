"""Self-tests of the benchmark: generators, trace arithmetic, checks and names.

Run from the repository root with ``PYTHONPATH=src python -m pytest perfbench/tests``.
"""

import json
import os
import re
import sys
import types

import pytest

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import run  # noqa: E402
import scenes  # noqa: E402
import spans  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _take(seed, n):
    gen = scenes.graph_scenes(seed)
    return [next(gen) for _ in range(n)]


def test_graph_scenes_deterministic_per_seed():
    assert _take(7, 40) == _take(7, 40)


def test_graph_scenes_differ_across_seeds():
    first = [_take(seed, 20) for seed in range(5)]
    assert all(first[i] != first[j] for i in range(5) for j in range(i))


def test_graph_scenes_stay_in_family():
    for scene in _take(3, 200):
        nu, nv = scene["grid"]
        assert scenes.GRAPH_GRID[0] <= nu <= scenes.GRAPH_GRID[1]
        assert scenes.GRAPH_GRID[0] <= nv <= scenes.GRAPH_GRID[1]
        for name, lo, hi in scenes.GRAPH_PARAM_RANGES:
            assert lo <= scene["params"][name] <= hi
    travels = [s["travel"] for s in _take(3, 8)]
    assert [t is not None for t in travels] == [False, False, False, True] * 2


def test_graph_argvs_keep_negative_vectors_attached():
    scene = {"params": {"a1": -0.25}, "grid": (30, 41), "field": ("flat", (-0.1, 0.2, 1.0)),
             "travel": 5.5}
    compute, front = scenes.graph_argvs(scene, "g.surf", "out/scene")
    assert "--flat=-0.1,0.2,1.0" in compute and "--param=a1=-0.25" in compute
    assert compute[0] == "compute" and compute[-2:] == ["--format", "csv"]
    assert front[0] == "front" and "--travel=5.5" in front and "ply" in front


def test_fixed_scenes():
    assert scenes.ellipsoid_args(0) == scenes.ellipsoid_args(0)
    assert "--source=0.2,0.1,0.1" in scenes.ellipsoid_args(0)
    assert "--flat=0.0,0.0,1.0" in scenes.torus_args(0)
    assert scenes.ellipsoid_args(1) != scenes.ellipsoid_args(2)
    assert scenes.torus_args(1) != scenes.torus_args(2)


def test_self_times_on_nested_tree():
    # root [0,10] has children a [1,4] and c [5,9]; a has b [2,3]; c has d [6,7]
    tree = [("root", -1, 0.0, 10.0), ("a", 0, 1.0, 4.0), ("b", 1, 2.0, 3.0),
            ("c", 0, 5.0, 9.0), ("d", 3, 6.0, 7.0)]
    assert spans.self_times(tree) == pytest.approx([3.0, 2.0, 1.0, 3.0, 1.0])


def test_self_times_merge_overlapping_children():
    tree = [("p", -1, 0.0, 10.0), ("x", 0, 1.0, 5.0), ("y", 0, 3.0, 7.0), ("z", 0, 9.0, 12.0)]
    assert spans.self_times(tree)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_tracer_nests_spans_and_reports_absent_names(monkeypatch):
    fake = types.ModuleType("fake_layer")
    fake.inner = lambda x: x + 1
    fake.outer = lambda x: fake.inner(x) * 2
    monkeypatch.setitem(sys.modules, "fake_layer", fake)
    ticks = iter(range(1000))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    tracer.install([("fake_layer", "outer", "cli.main", None),
                    ("fake_layer", "inner", "surfacelang.eval", None),
                    ("fake_layer", "deleted", "caustics.solve", None)])
    assert fake.outer(1) == 4
    names = [(name, parent) for name, parent, _, _ in tracer.spans]
    assert names == [("cli.main", -1), ("surfacelang.eval", 0)]
    assert tracer.absent == ["fake_layer.deleted"]
    metrics = spans.layer_metrics([tracer.dump()])
    assert metrics["surfacelang.eval_s"] > 0.0
    assert metrics["cli.self_s"] == pytest.approx(
        spans.self_times(tracer.spans)[0])
    assert metrics["caustics.solve_s"] == 0.0


def test_layer_metrics_are_per_operation():
    dump = {"spans": [["cli.main", -1, 0.0, 4.0], ["caustics.compute", 0, 1.0, 3.0],
                      ["caustics.solve", 1, 1.5, 2.0], ["cli.main", -1, 5.0, 7.0],
                      ["meshio.export_csv", 3, 5.0, 6.0]],
            "counters": {"meshio.bytes": 3e6, "caustics.points": 10, "caustics.lit": 5,
                         "caustics.valid": 8},
            "overhead_s": 0.06, "absent": []}
    m = spans.layer_metrics([dump])
    assert m["caustics.compute_s"] == pytest.approx(1.0)
    assert m["caustics.compute_self_s"] == pytest.approx(0.75)
    assert m["cli.self_s"] == pytest.approx(1.5)
    assert m["meshio.mb_per_s"] == pytest.approx(3.0)
    assert m["meshio.bytes"] == pytest.approx(1.5e6)
    assert m["caustics.lit_frac"] == 0.5 and m["caustics.valid_frac"] == 0.4
    assert m["trace.overhead_frac"] == pytest.approx(0.01)
    assert set(m) == set(spans.LAYER_UNITS)


def test_metric_names_and_benchmark_file_agree():
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    for name in [*spans.LAYER_UNITS, *run.UNITS]:
        assert NAME.fullmatch(name), name
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == spans.LAYER_UNITS
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.UNITS
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)


def test_checks_accept_real_output_and_catch_corruption(tmp_path):
    cli = pytest.importorskip("catacaustics.cli")
    surface = tmp_path / "g.surf"
    surface.write_text(scenes.GRAPH_SURFACE)
    scene = _take(11, 4)[3]
    scene["grid"] = (9, 7)
    prefix = str(tmp_path / "scene")
    for argv in scenes.graph_argvs(scene, str(surface), prefix):
        assert cli.main(argv) == 0
    assert checks.check_compute_csv(prefix, 9, 7)[1] is None
    assert checks.check_front_ply(prefix, 9, 7)[1] is None
    assert checks.check_compute_csv(prefix, 9, 8)[1] is not None

    sheet = tmp_path / "scene-sheet1.csv"
    rows = sheet.read_text().splitlines()
    sheet.write_text("\n".join(rows[:-1]) + "\n")
    assert "CSV rows" in checks.check_compute_csv(prefix, 9, 7)[1]


def test_obj_check_catches_bad_face_index(tmp_path):
    cli = pytest.importorskip("catacaustics.cli")
    prefix = str(tmp_path / "caustic")
    assert cli.main(["compute", "--surface", "ellipsoid", "--source=0.2,0.1,0.1",
                     "--grid", "6,5", "--format", "obj", "--out", prefix]) == 0
    digest, problem = checks.check_compute_obj(prefix, 6, 5)
    assert problem is None and len(digest) == 64
    obj = tmp_path / "caustic-sheet2.obj"
    lines = obj.read_text().splitlines()
    obj.write_text("\n".join(lines[:-1] + ["f 1 2 3 999"]) + "\n")
    assert "face index" in checks.check_compute_obj(prefix, 6, 5)[1]


def test_validate_check():
    good = "  max error:         2.331291e-09\n  result:            PASS\n"
    assert checks.check_validate(good) == (2.331291e-09, None)
    assert checks.check_validate(good.replace("PASS", "FAIL"))[1] is not None
