"""Deterministic writers (OBJ, CSV, PLY) of masked parameter grids.

Byte contract: every coordinate is printed as f"{x:.9f}" (9 fixed decimals,
with -0.000000000 written as 0.000000000), every line ends in "\n" and the
files are ASCII, so identical input produces byte-identical files on every run
and platform.  Tests pin the SHA-256 of reference scenes.  Invalid vertices
are dropped (together with their incident faces) instead of emitting NaN,
which many mesh viewers reject.

The writers go over the grid one row block (caustics.row_blocks) at a time:
they build the lines of a block with numpy and write them to the file as soon
as they are built; no Python statement runs per vertex or face, and no
whole-file string is built.  OBJ and PLY write the valid vertices of each
block of grid rows, then the faces of each block of cell rows, whose indices
come from the flags alone; the PLY header counts both from the flags.  The
coordinates of a block are its rows of the (x, y, z) planes, plane by plane.

The lines of a block are a (width, lines) stack of byte planes, one row per
byte position: literals are constant rows, and each number field is its rows
of ASCII digits.  A %.9f field is the exactly rounded integer x * 10**9 (an
error-free product settles the products that land on a half-integer, so it
rounds as the decimal conversion does); its digits come from a table of
0..999.  The sign of a non-negative value and leading zeros are NUL bytes, and
one bytes.translate per block deletes them, so fields take their natural
width.  A %d field (face index, CSV flags) takes the same digit path.  Values
formatted together (the coordinates of a block, or a CSV axis) that include a
non-finite value, or one beyond |x| = 2**51 / 10**9, are printed by the "%"
operator instead; that is the only route for such values.
"""

from __future__ import annotations

import os

import numpy as np

from .caustics import MaskedGrid, row_blocks

__all__ = ["export_mesh", "write_ascii", "FORMATS"]

# ASCII digits of 0..999: rows hundreds, tens, units; one column per value
_DIGITS = np.array([list(f"{k:03d}".encode()) for k in range(1000)], np.uint8).T.copy()

# |x| <= 2**51 / 1e9 keeps |x * 1e9| below 2**52, where every half-integer is a
# double: a product that does not land on a half-integer then rounds to the
# same integer as the exact product, and one that does is settled by its error
_FAST_LIMIT = 2.0 ** 51 / 1e9


def _product_error(x):
    """x * 1e9 - fl(x * 1e9), exactly (Dekker's two-product).

    1e9 has 21 significant bits, so it needs no split and both halves of x
    times 1e9 are exact.  Exact while no product underflows, which holds for
    the |x * 1e9| >= 0.5 it is called on.
    """
    c = 134217729.0 * x     # 2**27 + 1: Veltkamp's split into two 26-bit halves
    hi = c - (c - x)
    return (hi * 1e9 - x * 1e9) + (x - hi) * 1e9


def _digits(a, out, leading_zeros=False):
    """Write the decimal digits of the non-negative integers a into the rows of out.

    Row k of out gets the digit of place len(out) - 1 - k of every value (one
    column per value); a holds no more digits than out has rows.  Leading
    zeros are NUL unless leading_zeros; the units digit always stays.
    """
    width = len(out)
    for place in range(0, width, 3):
        group = a // 10 ** place % 1000 if place else a % 1000
        rows = out[max(width - place - 3, 0):width - place]
        np.take(_DIGITS[3 - len(rows):], group, axis=1, out=rows)
    if not leading_zeros:
        for place in range(1, width):
            out[-1 - place] *= a >= 10 ** place


def _integers(k) -> np.ndarray:
    """The byte planes of f"{k:d}" for non-negative integers k: (width, n), NUL-padded."""
    top = int(k.max(initial=0))
    a = k.astype(np.uint32 if top < 2 ** 32 else np.uint64)
    planes = np.empty((len(str(top)), len(k)), np.uint8)
    _digits(a, planes)
    return planes


def _fixed9_exact(x) -> np.ndarray:
    """Byte planes of f"{x:.9f}" for |x| <= _FAST_LIMIT, from the integer x * 10**9."""
    p = x * 1e9
    r = np.rint(p)
    tie = np.flatnonzero(np.abs(p - r) == 0.5)
    if tie.size:   # p is a half-integer: the exact product's error decides
        err = _product_error(x[tie])
        r[tie] = np.where(err == 0.0, r[tie], p[tie] + np.copysign(0.5, err))
    whole, frac = np.divmod(np.abs(r.astype(np.int64)), 10 ** 9)
    whole, frac = whole.astype(np.uint32), frac.astype(np.uint32)
    width = len(str(int(whole.max(initial=0))))
    planes = np.empty((width + 11, len(x)), np.uint8)
    planes[0] = (r < 0.0) * ord("-")    # a value that rounds to zero is unsigned
    _digits(whole, planes[1:width + 1])
    planes[width + 1] = ord(".")
    _digits(frac, planes[width + 2:], leading_zeros=True)
    return planes


def _fixed9_percent(x) -> np.ndarray:
    """Byte planes of "%.9f" % x: the route for non-finite and large values."""
    x = np.where(np.abs(x) < 5e-10, 0.0, x)    # values printing as zero print unsigned
    text = ("%.9f\n" * len(x)) % tuple(x.tolist())
    lines = np.array(text.encode("ascii").split(b"\n")[:-1])
    return lines.view(np.uint8).reshape(len(x), -1).T


def _fixed9(x, present=None) -> np.ndarray:
    """The byte planes of f"{x:.9f}" (never -0.000000000): (width, n), NUL-padded.

    Values where present is False get an empty (all-NUL) field.
    """
    if present is not None:
        x = np.where(present, x, 0.0)
    # checked before multiplying: NaN fails the test, and no product can overflow
    planes = _fixed9_exact(x) if np.all(np.abs(x) <= _FAST_LIMIT) else _fixed9_percent(x)
    if present is not None:
        planes *= present
    return planes


def _lines(n: int, fields) -> bytes:
    """n text lines from fields: bytes literals, the same on every line, and
    (width, n) byte planes; every NUL byte is dropped."""
    out = np.empty((sum(len(f) for f in fields), n), np.uint8)
    row = 0
    for field in fields:
        if isinstance(field, bytes):
            field = np.frombuffer(field, np.uint8)[:, None]
        out[row:row + len(field)] = field
        row += len(field)
    return out.T.tobytes().translate(None, b"\0")


def _table(prefix: bytes, cells, columns: int) -> bytes:
    """Lines of prefix and `columns` fields joined by spaces; cells holds the
    byte planes of the fields, one column after the other."""
    n = cells.shape[1] // columns
    fields = [prefix]
    for k in range(columns):
        fields += [cells[:, k * n:(k + 1) * n], b" "]
    fields[-1] = b"\n"
    return _lines(n, fields)


def _mesh_chunks(grid: MaskedGrid, ply: bool):
    """OBJ or PLY: the valid vertices, then a quad per cell with four valid corners.

    Both are written one row block of the grid at a time, in row-major
    order.  A vertex's index is the format's base (1 for OBJ, 0 for PLY) plus
    the count of valid vertices before it: a per-row offset, the count in the
    rows above, plus the count before it in its own row.
    """
    valid = grid.valid
    quad = valid[:-1, :-1] & valid[1:, :-1] & valid[1:, 1:] & valid[:-1, 1:]
    counts = np.count_nonzero(valid, axis=1)
    if ply:
        yield ("ply\n"
               "format ascii 1.0\n"
               f"element vertex {int(counts.sum())}\n"
               "property float x\n"
               "property float y\n"
               "property float z\n"
               f"element face {int(np.count_nonzero(quad))}\n"
               "property list uchar int vertex_indices\n"
               "end_header\n").encode("ascii")
    base, vertex, face = (0, b"", b"4 ") if ply else (1, b"v ", b"f ")
    nu, nv = valid.shape
    for rows in row_blocks(nu, nv):
        yield _table(vertex, _fixed9(
            grid.points[:, rows].reshape(3, -1).compress(valid[rows].ravel(), axis=1).ravel()), 3)
    # one less than the index of each row's first valid vertex
    offset = np.cumsum(counts) - counts + (base - 1)
    for rows in row_blocks(nu - 1, nv):
        corners = slice(rows.start, rows.stop + 1)
        idx = offset[corners, None] + np.cumsum(valid[corners], axis=1)
        q = quad[rows]
        yield _table(face, _integers(np.concatenate([
            idx[:-1, :-1][q], idx[1:, :-1][q], idx[1:, 1:][q], idx[:-1, 1:][q]])), 4)


def _csv_chunks(grid: MaskedGrid):
    yield b"u,v,x,y,z,flags\n"
    nu, nv = grid.flags.shape
    u, v = _fixed9(grid.u), _fixed9(grid.v)
    valid = grid.valid
    for rows in row_blocks(nu, nv):
        block = valid[rows].ravel()
        n = len(block)
        xyz = _fixed9(grid.points[:, rows].ravel(), np.tile(block, 3))
        yield _lines(n, [
            np.repeat(u[:, rows], nv, axis=1), b",", np.tile(v, (1, rows.stop - rows.start)),
            b",", xyz[:, :n], b",", xyz[:, n:2 * n], b",", xyz[:, 2 * n:], b",",
            _integers(grid.flags[rows].ravel()), b"\n"])


FORMATS = ("obj", "csv", "ply")


def write_ascii(path, chunks) -> int:
    """Write each bytes object of `chunks` to path as it arrives; returns the byte count.

    Missing parent directories are created.
    """
    parent = os.path.dirname(os.fspath(path))
    if parent:
        os.makedirs(parent, exist_ok=True)
    n_bytes = 0
    with open(path, "wb") as fh:
        for chunk in chunks:
            fh.write(chunk)
            n_bytes += len(chunk)
    return n_bytes


def export_mesh(grid: MaskedGrid, fmt: str, path) -> int:
    """Write the grid in the requested format; returns the byte count."""
    if fmt not in FORMATS:
        raise ValueError(f"unknown mesh format {fmt!r} (choose from {', '.join(FORMATS)})")
    return write_ascii(path, _csv_chunks(grid) if fmt == "csv" else
                       _mesh_chunks(grid, ply=fmt == "ply"))
