"""Dense vector, matrix and order-3 tensor kernels.

Conventions used throughout the package:

* vectors are 1-D float64 arrays, matrices 2-D, verb tensors 3-D with axes
  ``(subject, object, sentence)``;
* arrays are kept C-contiguous, so the flat layout of a tensor enumerates
  ``(i, j, c)`` lexicographically, which also fixes the binary file order;
* all operations are pure functions of their inputs.

``truncated_svd`` picks its solver from the input: a sparse matrix with
``2 * k < min(rows, cols)`` goes to the iterative ``svds`` solver started
from a fixed vector, which computes only the k wanted singular triplets;
anything else (a dense array, or a k too close to the smaller dimension for
the iterative solver to be worthwhile) goes to a full LAPACK SVD, truncated.
"""

import io
import math
import struct
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

TVB_MAGIC = b"TVB1"


@dataclass(frozen=True)
class SvdResult:
    """Rank-k factors of a matrix: ``U @ diag(singular_values) @ V.T``.

    Columns of U and V are orthonormal and singular values are sorted in
    non-increasing order.
    """

    U: np.ndarray
    singular_values: np.ndarray
    V: np.ndarray


def _as_dense_matrix(x, name: str = "matrix") -> np.ndarray:
    arr = np.ascontiguousarray(x, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite values")
    return arr


def cosine(a, b) -> float:
    """Cosine similarity of two arrays of identical shape.

    Matrices are compared as flattened vectors. Raises on zero input, which
    upstream signals an empty noun vector.
    """
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("cosine inputs contain non-finite values")
    norm_a = np.linalg.norm(a)
    norm_b = np.linalg.norm(b)
    if norm_a == 0.0 or norm_b == 0.0:
        raise ValueError("cosine undefined for a zero vector")
    return float(np.dot(a, b) / (norm_a * norm_b))


def l2_normalize_rows(matrix):
    """Scale every nonzero row to unit L2 norm; zero rows pass unchanged.

    Accepts a dense 2-D array or a scipy sparse matrix and returns the same
    kind (sparse input comes back as CSR).
    """
    if sp.issparse(matrix):
        csr = matrix.tocsr(copy=True).astype(np.float64)
        norms = np.sqrt(np.asarray(csr.multiply(csr).sum(axis=1)).ravel())
        scale = np.where(norms > 0.0, 1.0 / np.where(norms > 0.0, norms, 1.0), 1.0)
        csr.data *= np.repeat(scale, np.diff(csr.indptr))
        return csr
    arr = _as_dense_matrix(matrix)
    norms = np.linalg.norm(arr, axis=1)
    out = arr.copy()
    nonzero = norms > 0.0
    out[nonzero] /= norms[nonzero, None]
    return out


def _fix_signs(u: np.ndarray, v: np.ndarray) -> None:
    """Flip singular-vector pairs so each U column's largest entry is positive.

    Makes the decomposition deterministic up to exactly repeated singular
    values, which keeps serialized outputs reproducible.
    """
    for j in range(u.shape[1]):
        pivot = int(np.argmax(np.abs(u[:, j])))
        if u[pivot, j] < 0.0:
            u[:, j] = -u[:, j]
            v[:, j] = -v[:, j]


def truncated_svd(matrix, k: int) -> SvdResult:
    """Best rank-k factorization of a dense or sparse matrix.

    Sparse inputs with ``2 * k < min(rows, cols)`` use an iterative solver
    with a fixed starting vector, so results stay deterministic; every other
    input goes through LAPACK on a dense array.
    """
    if sp.issparse(matrix):
        rows, cols = matrix.shape
    else:
        matrix = _as_dense_matrix(matrix)
        rows, cols = matrix.shape
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise ValueError(f"k must be a positive integer, got {k!r}")
    if k > min(rows, cols):
        raise ValueError(f"k={k} out of range for a {rows}x{cols} matrix")

    if sp.issparse(matrix):
        if 2 * k < min(rows, cols):
            from scipy.sparse.linalg import svds

            start = np.full(min(rows, cols), 1.0 / np.sqrt(min(rows, cols)))
            u, s, vt = svds(matrix.astype(np.float64), k=k, v0=start)
            order = np.argsort(s)[::-1]
            u, s, vt = u[:, order], s[order], vt[order]
            v = vt.T
            u = np.ascontiguousarray(u)
            v = np.ascontiguousarray(v)
            _fix_signs(u, v)
            return SvdResult(u, np.ascontiguousarray(s), v)
        matrix = np.asarray(matrix.todense(), dtype=np.float64)

    u, s, vt = np.linalg.svd(matrix, full_matrices=False)
    u = np.ascontiguousarray(u[:, :k])
    s = np.ascontiguousarray(s[:k])
    v = np.ascontiguousarray(vt[:k].T)
    _fix_signs(u, v)
    return SvdResult(u, s, v)


def write_tvb(dest, array) -> None:
    """Serialize a matrix or order-3 tensor in the TVB1 binary layout.

    Layout: magic ``TVB1``, then order and dims as little-endian uint64,
    then float64 values in (row-major / lexicographic) order. ``dest`` may
    be a path or an open binary file, so several blocks can share one file.
    """
    arr = np.ascontiguousarray(array, dtype=np.float64)
    if arr.ndim not in (2, 3):
        raise ValueError(f"only matrices and order-3 tensors serialize, got ndim={arr.ndim}")
    if not np.isfinite(arr).all():
        raise ValueError("refusing to serialize non-finite values")
    header = TVB_MAGIC + struct.pack("<Q", arr.ndim)
    header += struct.pack(f"<{arr.ndim}Q", *arr.shape)
    payload = arr.astype("<f8").tobytes(order="C")
    if hasattr(dest, "write"):
        dest.write(header)
        dest.write(payload)
    else:
        with open(dest, "wb") as handle:
            handle.write(header)
            handle.write(payload)


def read_tvb(src) -> np.ndarray:
    """Read one TVB1 block from a path or an open binary file."""
    if hasattr(src, "read"):
        return _read_tvb_stream(src)
    with open(src, "rb") as handle:
        return _read_tvb_stream(handle)


def _read_exact(handle, size: int) -> bytes:
    data = handle.read(size)
    if len(data) != size:
        raise ValueError("truncated TVB block")
    return data


def _read_tvb_stream(handle) -> np.ndarray:
    magic = handle.read(4)
    if magic != TVB_MAGIC:
        raise ValueError(f"bad magic bytes {magic!r}, expected {TVB_MAGIC!r}")
    (order,) = struct.unpack("<Q", _read_exact(handle, 8))
    if order not in (2, 3):
        raise ValueError(f"unsupported tensor order {order}")
    dims = struct.unpack(f"<{order}Q", _read_exact(handle, 8 * order))
    # Python ints, so a huge header can neither wrap nor trigger a huge read.
    size = 8 * math.prod(dims)
    start = handle.tell()
    left = handle.seek(0, io.SEEK_END) - start
    handle.seek(start)
    if size > left:
        raise ValueError(
            f"TVB header claims a {' x '.join(map(str, dims))} block of {size} bytes, "
            f"but only {left} bytes follow"
        )
    values = np.frombuffer(_read_exact(handle, size), dtype="<f8").astype(np.float64)
    return np.ascontiguousarray(values.reshape(dims))
