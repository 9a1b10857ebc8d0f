"""Write reference.json: output digests of the reference seed.

Run from the repository root, at a commit whose output bytes are known to be
right:

    python3 perfbench/make_reference.py

It records the SHA-256 of both OBJ sheets plus stats.txt of the
ellipsoid-point-obj scene, and a 16-hex-digit digest of the files of each of
the first GRAPH_OPS graph-sweep operations.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.getcwd(), "src")]

import checks  # noqa: E402
import child  # noqa: E402
import scenes  # noqa: E402
from catacaustics.cli import main as cli_main  # noqa: E402

GRAPH_OPS = 1200
DIGEST_HEX = 16


def main() -> int:
    os.makedirs(".perfbench", exist_ok=True)
    work = tempfile.mkdtemp(prefix="reference-", dir=".perfbench")
    try:
        prefix = os.path.join(work, "caustic")
        argv = scenes.ellipsoid_args(scenes.REFERENCE_SEED) + ["--out", prefix]
        if cli_main(argv) != 0:
            raise SystemExit("ellipsoid scene failed")
        ellipsoid, problem = checks.check_compute_obj(prefix, 400, 400)
        if problem:
            raise SystemExit(f"ellipsoid scene: {problem}")

        result = os.path.join(work, "sweep.json")
        child.run_sweep(scenes.REFERENCE_SEED, float("inf"), work, result, False,
                        max_ops=GRAPH_OPS)
        with open(result, encoding="utf-8") as fh:
            records = json.load(fh)["records"]
        problems = [r["problem"] for r in records if r["problem"]]
        if problems:
            raise SystemExit(f"graph sweep: {problems[0]}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    doc = {"ellipsoid-point-obj": ellipsoid,
           "graph-sweep": [r["digest"][:DIGEST_HEX] for r in records]}
    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=0)
        fh.write("\n")
    print(f"wrote reference digests for 1 + {len(records)} operations")
    return 0


if __name__ == "__main__":
    sys.exit(main())
