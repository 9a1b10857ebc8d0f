"""Masked parameter-grid meshes and deterministic writers (OBJ, CSV, PLY).

Byte contract: every coordinate is printed as f"{x:.9f}" (9 fixed decimals,
with -0.000000000 written as 0.000000000), every line ends in "\n" and the
files are ASCII, so identical input produces byte-identical files on every run
and platform.  Tests pin the SHA-256 of reference scenes.  Invalid vertices
are dropped (together with their incident faces) instead of emitting NaN,
which many mesh viewers reject.

The writers format blocks of CHUNK_ROWS lines with one C-level ``%`` call per
block and write each block to the file as soon as it is formatted; no Python
statement runs per vertex or face, and no whole-file string is built.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .caustics import FLAG_CLIPPED, FLAG_VALID, CausticSheet, caustic_radius

__all__ = ["MaskedGrid", "clip_sheet", "export_mesh", "write_ascii", "FORMATS"]

CHUNK_ROWS = 32768      # lines formatted by one % call and written at once


@dataclass
class MaskedGrid:
    """A nu x nv vertex grid with a per-vertex reason byte.

    Flag bits: 0 valid, 1 shadow, 2 grazing, 3 at_infinity, 4 clipped,
    5 excluded_zero_root.  Every invalid vertex carries at least one reason.
    """

    u: np.ndarray        # (nu,)
    v: np.ndarray        # (nv,)
    points: np.ndarray   # (nu, nv, 3); entries at invalid vertices are ignored
    flags: np.ndarray    # (nu, nv) uint8

    def __post_init__(self):
        nu, nv = len(self.u), len(self.v)
        if self.points.shape != (nu, nv, 3) or self.flags.shape != (nu, nv):
            raise ValueError("MaskedGrid arrays do not match the declared grid size")
        invalid = (self.flags & FLAG_VALID) == 0
        if np.any(invalid & (self.flags == 0)):
            raise ValueError("invalid vertices must carry at least one reason bit")

    @property
    def valid(self) -> np.ndarray:
        return (self.flags & FLAG_VALID) != 0


def clip_sheet(sheet: CausticSheet, max_radius: float = None) -> MaskedGrid:
    """Mask caustic vertices farther than max_radius along the reflected ray.

    max_radius = None (or inf) keeps every finite vertex; only the flags
    already present on the sheet apply.  Clipping handles the near-flat parts
    of a mirror whose caustic runs off toward infinity.
    """
    flags = sheet.flags.copy()
    if max_radius is not None and np.isfinite(max_radius):
        if max_radius <= 0.0:
            raise ValueError("max_radius must be positive")
        clip = sheet.valid & (np.abs(caustic_radius(sheet.k_star)) > max_radius)
        flags[clip] |= FLAG_CLIPPED
        flags[clip] &= np.uint8(~FLAG_VALID & 0xFF)
    return MaskedGrid(sheet.u, sheet.v, sheet.xi, flags)


_NEG_ZERO = "-0.000000000"


def _normalise_zero(text: str) -> str:
    return text.replace(_NEG_ZERO, _NEG_ZERO[1:]) if _NEG_ZERO in text else text


def _blocks(template: str, rows: np.ndarray):
    """Yield `template` filled from each row of the 2-D array `rows`.

    Each block of CHUNK_ROWS rows is formatted by one ``%`` call; "%.9f" prints
    exactly as f"{x:.9f}" does, inf and nan included.
    """
    for start in range(0, len(rows), CHUNK_ROWS):
        block = rows[start:start + CHUNK_ROWS]
        yield _normalise_zero((template * len(block)) % tuple(block.ravel().tolist()))


def _vertex_index_map(grid: MaskedGrid):
    """Row-major 0-based indices over valid vertices; -1 elsewhere."""
    valid = grid.valid
    idx = np.full(valid.shape, -1, dtype=int)
    idx[valid] = np.arange(int(np.count_nonzero(valid)))
    return idx, valid


def _quad_faces(idx, valid) -> np.ndarray:
    """(n, 4) corner indices of the cells whose four corners are valid, row-major."""
    quad = valid[:-1, :-1] & valid[1:, :-1] & valid[1:, 1:] & valid[:-1, 1:]
    return np.stack([idx[:-1, :-1][quad], idx[1:, :-1][quad],
                     idx[1:, 1:][quad], idx[:-1, 1:][quad]], axis=-1)


def _obj_chunks(grid: MaskedGrid):
    idx, valid = _vertex_index_map(grid)
    yield from _blocks("v %.9f %.9f %.9f\n", grid.points[valid])
    yield from _blocks("f %d %d %d %d\n", _quad_faces(idx, valid) + 1)


def _axis_strings(values) -> np.ndarray:
    """The formatted string of each axis value, as an object array."""
    text = "".join(_blocks("%.9f\n", np.reshape(values, (-1, 1))))
    return np.array(text.split("\n")[:-1], dtype=object)


# CSV line templates, indexed by validity: invalid points keep empty coordinates
_CSV_LINES = np.array(["%s,%s,,,,%d\n", "%s,%s,%.9f,%.9f,%.9f,%d\n"], dtype=object)


def _csv_chunks(grid: MaskedGrid):
    yield "u,v,x,y,z,flags\n"
    us, vs = _axis_strings(grid.u), _axis_strings(grid.v)
    grid_valid = grid.valid
    step = max(1, CHUNK_ROWS // max(len(vs), 1))
    for i in range(0, len(us), step):
        rows = slice(i, i + step)
        valid = grid_valid[rows].ravel()
        n = valid.size
        fields = np.empty((n, 6), dtype=object)
        fields[:, 0] = np.repeat(us[rows], len(vs))
        fields[:, 1] = np.tile(vs, len(us[rows]))
        fields[:, 2:5] = grid.points[rows].reshape(n, 3)
        fields[:, 5] = grid.flags[rows].ravel()
        used = np.ones((n, 6), dtype=bool)
        used[:, 2:5] = valid[:, None]
        template = "".join(_CSV_LINES[valid.astype(np.intp)].tolist())
        yield _normalise_zero(template % tuple(fields[used].tolist()))


def _ply_chunks(grid: MaskedGrid):
    idx, valid = _vertex_index_map(grid)
    faces = _quad_faces(idx, valid)
    yield ("ply\n"
           "format ascii 1.0\n"
           f"element vertex {int(np.count_nonzero(valid))}\n"
           "property float x\n"
           "property float y\n"
           "property float z\n"
           f"element face {len(faces)}\n"
           "property list uchar int vertex_indices\n"
           "end_header\n")
    yield from _blocks("%.9f %.9f %.9f\n", grid.points[valid])
    yield from _blocks("4 %d %d %d %d\n", faces)


_WRITERS = {"obj": _obj_chunks, "csv": _csv_chunks, "ply": _ply_chunks}
FORMATS = tuple(_WRITERS)


def write_ascii(path, chunks) -> int:
    """Write each string of `chunks` to path as it arrives; returns the byte count.

    Missing parent directories are created.
    """
    parent = os.path.dirname(os.fspath(path))
    if parent:
        os.makedirs(parent, exist_ok=True)
    n_bytes = 0
    with open(path, "wb") as fh:
        for chunk in chunks:
            data = chunk.encode("ascii")
            fh.write(data)
            n_bytes += len(data)
    return n_bytes


def export_mesh(grid: MaskedGrid, fmt: str, path) -> int:
    """Write the grid in the requested format; returns the byte count."""
    if fmt not in FORMATS:
        raise ValueError(f"unknown mesh format {fmt!r} (choose from {', '.join(FORMATS)})")
    return write_ascii(path, _WRITERS[fmt](grid))
