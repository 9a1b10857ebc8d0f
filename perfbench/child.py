"""Child processes of the benchmark.

``child.py cli TRACE_FILE -- ARGS...``
    Runs ``catacaustics.cli.main(ARGS)`` once under the stage trace, writes
    the trace to TRACE_FILE and exits with the CLI's exit code.  Untraced
    operations do not use this file: they start the CLI directly.

``child.py sweep SEED SECONDS WORKDIR RESULT_FILE [TRACE]``
    The graph-sweep client: calls ``catacaustics.cli.main`` once per
    operation, for SECONDS of wall time, on the seeded graph scenes, and
    checks each output outside the timed region.  Writes one JSON document
    with a record per operation (and the trace when TRACE is ``1``) to
    RESULT_FILE.

The package must be importable (the parent puts ``src`` on PYTHONPATH).
"""

from __future__ import annotations

import json
import os
import sys
import time

import checks
import scenes
from spans import Tracer


def _cli_main():
    import catacaustics.cli
    return catacaustics.cli.main  # looked up after the tracer patched it


def run_traced_cli(trace_file: str, argv: list) -> int:
    tracer = Tracer()
    tracer.install()
    code = _cli_main()(argv)
    with open(trace_file, "w", encoding="utf-8") as fh:
        json.dump(tracer.dump(), fh)
    return code


def _check(argv, prefix, grid):
    if argv[0] == "compute":
        return checks.check_compute_csv(prefix, *grid)
    return checks.check_front_ply(prefix, *grid)


def run_sweep(seed: int, seconds: float, workdir: str, result_file: str,
              traced: bool, max_ops: float = float("inf")) -> int:
    tracer = Tracer() if traced else None
    if tracer:
        tracer.install()
    main = _cli_main()
    surface = os.path.join(workdir, "graph.surf")
    with open(surface, "w", encoding="utf-8") as fh:
        fh.write(scenes.GRAPH_SURFACE)
    prefix = os.path.join(workdir, "scene")

    records = []
    devnull = open(os.devnull, "w")
    stdout = sys.stdout
    start = time.perf_counter()
    try:
        for scene in scenes.graph_scenes(seed):
            if time.perf_counter() - start >= seconds or len(records) >= max_ops:
                break
            nu, nv = scene["grid"]
            for argv in scenes.graph_argvs(scene, surface, prefix):
                sys.stdout = devnull
                t0, c0 = time.perf_counter(), time.process_time()
                try:
                    code = main(argv)
                except Exception as e:  # reported as a failed operation
                    code, problem = None, f"{type(e).__name__}: {e}"
                else:
                    problem = None
                wall, cpu = time.perf_counter() - t0, time.process_time() - c0
                sys.stdout = stdout
                digest = None
                if code != 0:
                    problem = problem or f"exit code {code}"
                else:
                    digest, problem = _check(argv, prefix, scene["grid"])
                records.append({"command": argv[0], "wall_s": wall, "cpu_s": cpu,
                                "points": nu * nv, "digest": digest, "problem": problem})
    finally:
        sys.stdout = stdout
        devnull.close()

    doc = {"records": records}
    if tracer:
        doc["trace"] = tracer.dump()
    with open(result_file, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return 0


def main(argv) -> int:
    if argv[:1] == ["cli"] and argv[2:3] == ["--"]:
        return run_traced_cli(argv[1], argv[3:])
    if argv[:1] == ["sweep"] and len(argv) in (5, 6):
        return run_sweep(int(argv[1]), float(argv[2]), argv[3], argv[4],
                         argv[5:] == ["1"])
    print(__doc__, file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
