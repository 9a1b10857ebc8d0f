"""End-to-end benchmark of the catacaustics CLI.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is a closed loop with one client and no threads: the next
operation starts when the previous one has ended.  ``--trace 0`` measures the
end-to-end metrics; ``--trace 1`` repeats the loop with the stage trace of
``spans.py`` installed in the child processes and reports per-layer metrics.
Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  See
README.md for the workloads, the metrics and the recorded choices.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import scenes  # noqa: E402
from spans import LAYER_UNITS, layer_metrics  # noqa: E402

LAUNCH = "from catacaustics.cli import run; run()"  # the console-script entry point
SETUP_REPEATS = 11
WORKDIR = ".perfbench"

UNITS = {"setup_s": "s", "wall_p50_s": "s", "cpu_p50_s": "s",
         "points_per_s": "1/s", "peak_rss_mb": "MB"}


class SetupError(RuntimeError):
    """The program could not be started; no result is printed."""


def run_child(cmd, env, cwd):
    """Run one child to completion; returns (exit code, wall s, cpu s, max RSS MB, stdout)."""
    out_path = os.path.join(cwd, "child.stdout")
    err_path = os.path.join(cwd, "child.stderr")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, cwd=cwd, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="ascii", errors="replace") as fh:
        stdout = fh.read()
    return (proc.returncode, wall, usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024.0, stdout)


def measure_setup(env, cwd) -> float:
    """Median wall time of ``catacaustics builtins``: interpreter start plus import."""
    walls = []
    for _ in range(SETUP_REPEATS):
        code, wall, _, _, stdout = run_child([sys.executable, "-c", LAUNCH, "builtins"],
                                             env, cwd)
        if code != 0 or "ellipsoid" not in stdout:
            raise SetupError(f"`catacaustics builtins` failed with exit code {code}")
        walls.append(wall)
    return statistics.median(walls)


class Run:
    """Per-operation records of one workload run."""

    def __init__(self):
        self.walls, self.cpus, self.rss, self.points = [], [], [], []
        self.problems = []
        self.traces = []
        self.notes = []

    def add(self, wall, cpu, points, problem):
        self.walls.append(wall)
        self.cpus.append(cpu)
        self.points.append(points)
        if problem:
            self.problems.append(problem)


def _per_op_workload(args, points, check, seconds, traced, env, work):
    """One CLI child process per operation, repeated for ``seconds``."""
    run = Run()
    trace_file = os.path.join(work, "trace.json")
    start = time.perf_counter()
    while not run.walls or time.perf_counter() - start < seconds:
        if traced:
            cmd = [sys.executable, os.path.join(HERE, "child.py"), "cli", trace_file, "--"]
        else:
            cmd = [sys.executable, "-c", LAUNCH]
        code, wall, cpu, rss, stdout = run_child(cmd + args, env, work)
        problem = f"exit code {code}" if code != 0 else check(stdout, work)
        run.add(wall, cpu, points, problem)
        run.rss.append(rss)
        if traced and code == 0:
            with open(trace_file, encoding="utf-8") as fh:
                run.traces.append(json.load(fh))
    return run


def ellipsoid_point_obj(seed, seconds, traced, env, work):
    reference = _reference()["ellipsoid-point-obj"] if seed == scenes.REFERENCE_SEED else None

    def check(stdout, work):
        digest, problem = checks.check_compute_obj(os.path.join(work, "caustic"), 400, 400)
        if problem is None and reference and digest != reference:
            problem = "output bytes differ from the reference digest"
        return problem

    return _per_op_workload(scenes.ellipsoid_args(seed), 400 * 400, check,
                            seconds, traced, env, work)


def torus_flat_validate(seed, seconds, traced, env, work):
    errors = []

    def check(stdout, work):
        max_err, problem = checks.check_validate(stdout)
        if max_err is not None:
            errors.append(max_err)
        return problem

    run = _per_op_workload(scenes.torus_args(seed), 700 * 700, check,
                           seconds, traced, env, work)
    if errors:
        run.notes.append(f"oracle_max_err       {max(errors):.6e} length  "
                         "(validate report, worst over operations)")
    return run


def graph_sweep(seed, seconds, traced, env, work):
    """One child process calling ``catacaustics.cli.main`` once per operation."""
    result_file = os.path.join(work, "sweep.json")
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "sweep", str(seed),
           repr(float(seconds)), work, result_file, "1" if traced else "0"]
    code, _, _, rss, _ = run_child(cmd, env, work)
    if code != 0:
        raise SetupError(f"graph-sweep client failed with exit code {code}")
    with open(result_file, encoding="utf-8") as fh:
        doc = json.load(fh)
    reference = _reference()["graph-sweep"] if seed == scenes.REFERENCE_SEED else []
    run = Run()
    run.rss.append(rss)
    for index, rec in enumerate(doc["records"]):
        problem = rec["problem"]
        if problem is None and index < len(reference) \
                and rec["digest"][:len(reference[index])] != reference[index]:
            problem = f"operation {index}: output bytes differ from the reference digest"
        run.add(rec["wall_s"], rec["cpu_s"], rec["points"], problem)
    if "trace" in doc:
        run.traces.append(doc["trace"])
    n = len(run.walls)
    if n >= 100:
        p90 = statistics.quantiles(run.walls, n=10)[-1]
        beyond = sum(1 for w in run.walls if w > p90)
        run.notes.append(f"wall_p90_s           {p90:.6f} s  ({n} samples, {beyond} beyond p90)")
    return run


WORKLOADS = {
    "ellipsoid-point-obj": ellipsoid_point_obj,
    "torus-flat-validate": torus_flat_validate,
    "graph-sweep": graph_sweep,
}


def _reference():
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        return json.load(fh)


def end_to_end(run: Run, setup_s: float) -> dict:
    return {
        "setup_s": setup_s,
        "wall_p50_s": statistics.median(run.walls),
        "cpu_p50_s": statistics.median(run.cpus),
        "points_per_s": sum(run.points) / sum(run.walls),
        "peak_rss_mb": max(run.rss),
    }


def measure(workload, seed, seconds, traced):
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "catacaustics", "cli.py")):
        raise SetupError("no package sources at ./src/catacaustics; "
                         "run from the root of a repository checkout")
    env = dict(os.environ, PYTHONPATH=src)
    os.makedirs(os.path.join(root, WORKDIR), exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=os.path.join(root, WORKDIR))
    try:
        setup_s = measure_setup(env, work)
        run = WORKLOADS[workload](seed, seconds, traced, env, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if traced:
        values = layer_metrics(run.traces)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in LAYER_UNITS.items()}
        for dump in run.traces[:1]:
            for name in dump["absent"]:
                run.notes.append(f"absent from the trace: {name}")
    else:
        metrics = {name: {"value": value, "unit": UNITS[name]}
                   for name, value in end_to_end(run, setup_s).items()}
    return run, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=scenes.REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        run, metrics = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1

    attempted, failed = len(run.walls), len(run.problems)
    print(f"{args.workload} seed {args.seed} trace {args.trace}: "
          f"{attempted} operations, {failed} failed (fail_frac {failed / attempted:g})")
    for name, m in metrics.items():
        print(f"  {name:<28} {m['value']:.6g} {m['unit']}")
    for note in run.notes:
        print(f"  {note}")
    for problem in run.problems[:10]:
        print(f"  FAILED: {problem}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
