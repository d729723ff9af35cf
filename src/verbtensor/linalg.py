"""Dense vector, matrix and order-3 tensor kernels.

Conventions used throughout the package:

* vectors are 1-D float64 arrays, matrices 2-D, verb tensors 3-D with axes
  ``(subject, object, sentence)``;
* arrays are kept C-contiguous, so the flat layout of a tensor enumerates
  ``(i, j, c)`` lexicographically, which also fixes the binary file order;
* all operations are pure functions of their inputs.

Each function takes the one form of its input that the package passes.
``l2_normalize_rows`` and ``truncated_svd`` take the sparse weighted table,
and ``truncated_svd`` returns only what the embeddings use: ``(u, s)``, the
left singular vectors and the singular values. With ``2 * k < min(rows,
cols)`` it runs the iterative ``svds`` solver started from a fixed vector,
which computes only the k wanted singular triplets; with k closer to the
smaller dimension than that it truncates a full LAPACK SVD of the densified
table. ``write_tvb`` and ``read_tvb`` work on an open binary file, so
several blocks can share one file.
"""

import io
import math
import struct

import numpy as np

TVB_MAGIC = b"TVB1"


def cosine(a, b) -> float:
    """Cosine similarity of two arrays of identical shape.

    Matrices are compared as flattened vectors. Raises ``ValueError`` on a
    zero input, which upstream signals an empty noun vector.
    """
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    norm_a = np.linalg.norm(a)
    norm_b = np.linalg.norm(b)
    if norm_a == 0.0 or norm_b == 0.0:
        raise ValueError("cosine undefined for a zero vector")
    return float(np.dot(a, b) / (norm_a * norm_b))


def l2_normalize_rows(matrix):
    """Scale every nonzero row of a sparse matrix to unit L2 norm, as a new CSR matrix.

    Zero rows pass unchanged.
    """
    csr = matrix.tocsr(copy=True).astype(np.float64)
    norms = np.sqrt(np.asarray(csr.multiply(csr).sum(axis=1)).ravel())
    scale = np.where(norms > 0.0, 1.0 / np.where(norms > 0.0, norms, 1.0), 1.0)
    csr.data *= np.repeat(scale, np.diff(csr.indptr))
    return csr


def _fix_signs(u: np.ndarray) -> None:
    """Flip each column of U so that its largest-magnitude entry is positive.

    Makes the decomposition deterministic up to exactly repeated singular
    values, which keeps serialized outputs reproducible.
    """
    for j in range(u.shape[1]):
        pivot = int(np.argmax(np.abs(u[:, j])))
        if u[pivot, j] < 0.0:
            u[:, j] = -u[:, j]


def truncated_svd(matrix, k: int) -> tuple:
    """``(u, s)`` of the best rank-k factorization of a sparse matrix.

    ``u`` is (rows, k) with orthonormal, sign-fixed columns and ``s`` holds
    the k largest singular values in non-increasing order. With
    ``2 * k < min(rows, cols)`` an iterative solver with a fixed starting
    vector runs, so results stay deterministic; otherwise LAPACK does.
    ``1 <= k <= min(rows, cols)`` is the caller's to keep.
    """
    rows, cols = matrix.shape
    if 2 * k < min(rows, cols):
        from scipy.sparse.linalg import svds

        start = np.full(min(rows, cols), 1.0 / np.sqrt(min(rows, cols)))
        u, s, _ = svds(matrix.astype(np.float64), k=k, v0=start)
        order = np.argsort(s)[::-1]
        u, s = u[:, order], s[order]
    else:
        u, s, _ = np.linalg.svd(matrix.toarray(), full_matrices=False)
        u, s = u[:, :k], s[:k]
    u = np.ascontiguousarray(u)
    _fix_signs(u)
    return u, np.ascontiguousarray(s)


def write_tvb(handle, array) -> None:
    """Write a matrix or order-3 tensor to an open binary file as one TVB1 block.

    Layout: magic ``TVB1``, then order and dims as little-endian uint64,
    then float64 values in (row-major / lexicographic) order.
    """
    arr = np.ascontiguousarray(array, dtype=np.float64)
    if arr.ndim not in (2, 3):
        raise ValueError(f"only matrices and order-3 tensors serialize, got ndim={arr.ndim}")
    if not np.isfinite(arr).all():
        raise ValueError("refusing to serialize non-finite values")
    header = TVB_MAGIC + struct.pack("<Q", arr.ndim)
    header += struct.pack(f"<{arr.ndim}Q", *arr.shape)
    handle.write(header)
    handle.write(arr.astype("<f8").tobytes(order="C"))


def _read_exact(handle, size: int) -> bytes:
    data = handle.read(size)
    if len(data) != size:
        raise ValueError("truncated TVB block")
    return data


def read_tvb(handle) -> np.ndarray:
    """Read the next TVB1 block from an open binary file."""
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
