"""Output checks: digests of the written bytes and structural invariants.

Each check returns ``(digest, problem)``: the hex SHA-256 of the files it
read, in a fixed order, and ``None`` or a one-line description of what is
wrong.  Digests are compared with the committed reference only for the
reference seed; structure is checked on every seed.
"""

from __future__ import annotations

import hashlib
import re

FLAG_VALID = 0x01
FLAG_CLIPPED = 0x10
CSV_HEADER = "u,v,x,y,z,flags"


def _read(paths):
    digest = hashlib.sha256()
    blobs = []
    for path in paths:
        with open(path, "rb") as fh:
            data = fh.read()
        digest.update(data)
        blobs.append(data.decode("ascii"))
    return digest.hexdigest(), blobs


def stats_valid_counts(stats_text: str) -> dict:
    """sheet id -> valid count, from the lines 'sheet N: valid M, ...'."""
    return {int(m[1]): int(m[2])
            for m in re.finditer(r"^sheet (\d+): valid (\d+),", stats_text, re.M)}


def _stats_problem(stats_text: str, nu: int, nv: int):
    if not stats_text.startswith(f"grid: {nu} x {nv} ({nu * nv} points)\n"):
        return "stats.txt does not describe the requested grid"
    if sorted(stats_valid_counts(stats_text)) != [1, 2]:
        return "stats.txt lacks a valid count for each sheet"
    return None


def check_compute_obj(prefix: str, nu: int, nv: int):
    """Both OBJ sheets and stats.txt of a ``compute --format obj`` run.

    The OBJ holds the valid vertices that survive the radius clip, so its
    vertex count is at most the pre-clip valid count in stats.txt.
    """
    digest, (obj1, obj2, stats) = _read(
        [f"{prefix}-sheet1.obj", f"{prefix}-sheet2.obj", f"{prefix}-stats.txt"])
    problem = _stats_problem(stats, nu, nv)
    if problem:
        return digest, problem
    valid = stats_valid_counts(stats)
    for sheet, text in ((1, obj1), (2, obj2)):
        cut = text.find("\nf ") + 1 or len(text)
        vertices, faces = text[:cut], text[cut:].split()
        n_v = vertices.count("\n")
        if n_v == 0 or n_v > valid[sheet]:
            return digest, f"sheet {sheet}: {n_v} OBJ vertices for {valid[sheet]} valid points"
        if vertices.count("\nv ") + 1 != n_v or faces[::5] != ["f"] * (len(faces) // 5) \
                or len(faces) % 5 or len(faces) // 5 > (nu - 1) * (nv - 1):
            return digest, f"sheet {sheet}: malformed OBJ lines"
        del faces[::5]
        if faces and max(map(int, faces)) > n_v:
            return digest, f"sheet {sheet}: face index beyond the vertex list"
    return digest, None


def check_compute_csv(prefix: str, nu: int, nv: int):
    """Both CSV sheets and stats.txt of a ``compute --format csv`` run.

    Every grid point is one row; rows flagged valid plus rows flagged clipped
    are exactly the pre-clip valid count of stats.txt.
    """
    digest, (csv1, csv2, stats) = _read(
        [f"{prefix}-sheet1.csv", f"{prefix}-sheet2.csv", f"{prefix}-stats.txt"])
    problem = _stats_problem(stats, nu, nv)
    if problem:
        return digest, problem
    valid = stats_valid_counts(stats)
    for sheet, text in ((1, csv1), (2, csv2)):
        rows = text.splitlines()
        if len(rows) != nu * nv + 1 or rows[0] != CSV_HEADER:
            return digest, f"sheet {sheet}: {len(rows)} CSV rows for a {nu} x {nv} grid"
        flags = [int(row.rsplit(",", 1)[1]) for row in rows[1:]]
        kept = sum(1 for f in flags if f & (FLAG_VALID | FLAG_CLIPPED))
        if kept != valid[sheet]:
            return digest, f"sheet {sheet}: {kept} valid or clipped rows, stats says {valid[sheet]}"
    return digest, None


def check_front_ply(prefix: str, nu: int, nv: int):
    """The PLY front: header counts match the vertex and face lines."""
    digest, (ply,) = _read([f"{prefix}-front.ply"])
    header, sep, body = ply.partition("end_header\n")
    n_v = re.search(r"^element vertex (\d+)$", header, re.M)
    n_f = re.search(r"^element face (\d+)$", header, re.M)
    if not sep or not n_v or not n_f:
        return digest, "PLY header incomplete"
    n_v, n_f = int(n_v[1]), int(n_f[1])
    lines = body.splitlines()
    if n_v == 0 or len(lines) != n_v + n_f or n_v > nu * nv:
        return digest, f"PLY declares {n_v} + {n_f} elements, has {len(lines)} lines"
    if any(not line.startswith("4 ") for line in lines[n_v:]):
        return digest, "PLY face lines are not quads"
    return digest, None


def check_validate(stdout: str):
    """The validate report: PASS, and its max error.  Returns (max_err, problem)."""
    m = re.search(r"^  max error: +(\S+)$", stdout, re.M)
    if "result:            PASS" not in stdout or not m:
        return None, "validation did not PASS"
    return float(m[1]), None
