"""Matrix Market I/O.

The paper's test matrices come from the SuiteSparse Matrix Collection, which
distributes Matrix Market files.  This module implements the coordinate
real/integer/pattern general/symmetric subset of the format so that a user
with the original files can run every benchmark on them; the bundled
benchmarks default to the synthetic analogues in :mod:`repro.graphs.suite`.
"""

from __future__ import annotations

import io as _io
from pathlib import Path

import numpy as np

from .._validation import INDEX_DTYPE, VALUE_DTYPE
from ..errors import FormatError
from .coo import COOMatrix
from .csr import CSRMatrix

__all__ = ["read_matrix_market", "write_matrix_market"]

_SUPPORTED_FIELDS = {"real", "integer", "pattern"}
_SUPPORTED_SYMMETRIES = {"general", "symmetric", "skew-symmetric"}


def read_matrix_market(source) -> CSRMatrix:
    """Read a Matrix Market coordinate file into a :class:`CSRMatrix`.

    ``source`` may be a path or an open text file object.  Malformed input
    raises :class:`~repro.errors.FormatError` naming the problem and the
    line number only — never the offending text, so a server reading
    client-named files cannot be made to echo an arbitrary file's contents.
    """
    try:
        text = source.read() if hasattr(source, "read") else Path(source).read_text()
    except UnicodeDecodeError:
        raise FormatError("Matrix Market input is not valid text") from None
    lines = text.splitlines()
    if not lines:
        raise FormatError("empty Matrix Market input")
    header = lines[0].strip().lower().split()
    if len(header) != 5 or header[0] != "%%matrixmarket":
        raise FormatError("bad Matrix Market header (line 1)")
    _, obj, fmt, field, symmetry = header
    if obj != "matrix" or fmt != "coordinate":
        raise FormatError("only coordinate matrices are supported (line 1)")
    if field not in _SUPPORTED_FIELDS:
        raise FormatError("unsupported field (line 1)")
    if symmetry not in _SUPPORTED_SYMMETRIES:
        raise FormatError("unsupported symmetry (line 1)")

    body = [
        (lineno, ln)
        for lineno, ln in enumerate(lines[1:], start=2)
        if ln.strip() and not ln.lstrip().startswith("%")
    ]
    if not body:
        raise FormatError("missing size line")
    size_lineno, size_line = body[0]
    try:
        n_rows, n_cols, nnz = (int(p) for p in size_line.split())
    except ValueError:
        raise FormatError(f"bad size line (line {size_lineno})") from None
    entries = body[1:]
    if len(entries) != nnz:
        raise FormatError(
            f"size line (line {size_lineno}) does not match the "
            f"{len(entries)} entries that follow"
        )

    rows = np.empty(nnz, dtype=INDEX_DTYPE)
    cols = np.empty(nnz, dtype=INDEX_DTYPE)
    vals = np.empty(nnz, dtype=VALUE_DTYPE)
    try:
        for k, (lineno, ln) in enumerate(entries):
            parts = ln.split()
            rows[k] = int(parts[0]) - 1
            cols[k] = int(parts[1]) - 1
            if field == "pattern":
                vals[k] = 1.0
            else:
                vals[k] = float(parts[2])
    except (ValueError, IndexError, OverflowError):
        raise FormatError(f"bad entry (line {lineno})") from None

    if symmetry in ("symmetric", "skew-symmetric"):
        off = rows != cols
        sign = -1.0 if symmetry == "skew-symmetric" else 1.0
        rows = np.concatenate([rows, cols[off]])
        cols_full = np.concatenate([cols, rows[: nnz][off]])
        vals = np.concatenate([vals, sign * vals[off]])
        cols = cols_full
    return COOMatrix(rows, cols, vals, (n_rows, n_cols)).to_csr()


def write_matrix_market(matrix: CSRMatrix, target, *, symmetry: str = "general") -> None:
    """Write a :class:`CSRMatrix` as a Matrix Market coordinate file.

    With ``symmetry="symmetric"`` only the lower triangle is emitted (the
    matrix must actually be symmetric).
    """
    if symmetry not in ("general", "symmetric"):
        raise FormatError(f"unsupported symmetry {symmetry!r}")
    coo = matrix.to_coo()
    row, col, val = coo.row, coo.col, coo.val
    if symmetry == "symmetric":
        if not matrix.is_symmetric(tol=0.0):
            raise FormatError("matrix is not symmetric")
        keep = row >= col
        row, col, val = row[keep], col[keep], val[keep]

    buf = _io.StringIO()
    buf.write(f"%%MatrixMarket matrix coordinate real {symmetry}\n")
    buf.write(f"{matrix.n_rows} {matrix.n_cols} {row.size}\n")
    for r, c, v in zip(row, col, val):
        buf.write(f"{int(r) + 1} {int(c) + 1} {float(v)!r}\n")
    text = buf.getvalue()
    if hasattr(target, "write"):
        target.write(text)
    else:
        Path(target).write_text(text)
