"""On-disk formats: dense matrix files, CSV emission, run manifests.

All writes are atomic (temp file + rename in the same directory) so a
crashed run never leaves a half-written artifact. Output files embed the
manifest *id* — a digest of the run's parameters — rather than anything
time-dependent, so re-running the same command reproduces outputs byte for
byte; wall time and input digests live in the manifest sidecar only.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import tempfile
from pathlib import Path

import numpy as np

from . import __version__
from .errors import InputFormatError

MATRIX_MAGIC = b"SPDM"
MATRIX_VERSION = 1
# rows per panel of the symmetry check, whose buffer is 32 x dim doubles:
# at dim = 500 that is 6% of the matrix the reader holds
_SYMMETRY_PANEL_ROWS = 32
MANIFEST_SCHEMA = "run-manifest/v1"


def atomic_write_bytes(path, *chunks) -> None:
    """Write the bytes-like ``chunks`` one after another to ``path``."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_text(path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sha256_file(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.file_digest(fh, "sha256").hexdigest()


# ---------------------------------------------------------------------------
# dense symmetric matrix file: magic, u32 version, u64 dim (little endian),
# then dim*dim float64 little-endian row-major
# ---------------------------------------------------------------------------

def write_matrix(path, A: np.ndarray) -> None:
    """Write the square matrix ``A`` as a matrix file. The header goes out
    first, then the array's own buffer: a C-ordered little-endian float64
    array is written without a copy, any other layout with one."""
    A = np.asarray(A, dtype=np.float64)
    header = MATRIX_MAGIC + struct.pack("<IQ", MATRIX_VERSION, A.shape[0])
    payload = np.ascontiguousarray(A, dtype="<f8")
    atomic_write_bytes(path, header, payload)


def read_matrix(path) -> np.ndarray:
    """Read a matrix file into one float64 array, checking magic, version,
    the file size and a nonzero dimension before the payload is allocated,
    and finiteness and symmetry to 1e-12 relative after."""
    with open(path, "rb") as fh:
        header = fh.read(16)
        if len(header) < 16 or header[:4] != MATRIX_MAGIC:
            raise InputFormatError(f"{path}: not a matrix file (bad magic)")
        version, dim = struct.unpack("<IQ", header[4:])
        if version != MATRIX_VERSION:
            raise InputFormatError(
                f"{path}: unsupported matrix format version {version}")
        size = os.fstat(fh.fileno()).st_size
        expected = 16 + dim * dim * 8
        if size != expected:
            raise InputFormatError(
                f"{path}: truncated or padded payload "
                f"({size} bytes, expected {expected} for dim {dim})"
            )
        if dim == 0:
            raise InputFormatError(f"{path}: a 0 x 0 matrix has no spectrum")
        A = np.empty((dim, dim), dtype="<f8")
        got = fh.readinto(A)
    if got != A.nbytes:
        raise InputFormatError(
            f"{path}: truncated payload ({16 + got} bytes read, "
            f"expected {expected} for dim {dim})")
    # max and min propagate NaN and expose +-inf without a temporary, and
    # max(max, -min) is max|A| without an |A| temporary
    scale = max(float(A.max()), -float(A.min()))
    if not np.isfinite(scale):
        raise InputFormatError(f"{path}: matrix has non-finite entries")
    # max|A - A^T| over row panels of the upper triangle, A[i:i+b, i:]
    # against A[i:, i:i+b]^T: the same exact max, in one b x dim buffer
    # instead of a dim x dim temporary. The panel is contiguous and is
    # subtracted a row at a time: a ufunc over a strided 2-d block gets
    # numpy iteration buffers (64 KiB an operand) that outweigh the panel
    # of a small matrix
    b = _SYMMETRY_PANEL_ROWS
    panel = np.empty(min(b, dim) * dim)
    defect = 0.0
    for i in range(0, dim, b):
        D = panel[:min(b, dim - i) * (dim - i)].reshape(-1, dim - i)
        D[...] = A[i:, i:i + b].T
        for k, row in enumerate(D):
            np.subtract(A[i + k, i:], row, out=row)
        defect = max(defect, float(np.abs(D, out=D).max()))
    if defect > 1e-12 * max(scale, 1e-300):
        raise InputFormatError(
            f"{path}: matrix asymmetric: max|A - A^T| = {defect:.3e} "
            f"vs scale {scale:.3e}")
    return A.astype(np.float64, copy=False)


# ---------------------------------------------------------------------------
# manifests
# ---------------------------------------------------------------------------

def build_manifest(command: str, params: dict, inputs=()) -> dict:
    """Identify a run by its reproducible ingredients.

    The id digests the command, parameters, input file digests, and the
    package version — everything that determines the outputs, and nothing
    (timestamps, host) that does not.
    """
    input_entries = [
        {"path": str(p), "sha256": sha256_file(p)} for p in inputs
    ]
    core = {
        "schema": MANIFEST_SCHEMA,
        "command": command,
        "params": params,
        "inputs": input_entries,
        "package_version": __version__,
    }
    digest = sha256_bytes(
        json.dumps(core, sort_keys=True, separators=(",", ":")).encode()
    )
    return {**core, "id": digest}


def write_manifest(path, manifest: dict, wall_time_s: float, outputs) -> None:
    """Write ``manifest`` with the run's wall time and its output paths."""
    doc = {**manifest, "wall_time_s": wall_time_s,
           "outputs": [str(p) for p in outputs]}
    atomic_write_text(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def csv_text(columns, rows, manifest_id: str, schema: str) -> str:
    """Render a CSV with the standard provenance comment line.

    Rows are formatted with repr-level float precision so values survive a
    round trip exactly.
    """
    lines = [f"# manifest={manifest_id} schema={schema}"]
    lines.append(",".join(columns))
    for row in rows:
        cells = []
        for item in row:
            if isinstance(item, float) or isinstance(item, np.floating):
                cells.append(repr(float(item)))
            else:
                cells.append(str(item))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
