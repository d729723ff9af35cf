import io
import struct

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given
from hypothesis import strategies as st

from verbtensor.linalg import (
    TVB_MAGIC,
    cosine,
    l2_normalize_rows,
    read_tvb,
    truncated_svd,
    write_tvb,
)


def reconstruct(u, dense):
    """The rank-k matrix ``u @ (u.T @ A)``: A projected onto the span of ``u``.

    For ``A = U diag(s) V.T`` this is ``U_k diag(s_k) V_k.T``, the truncation.
    """
    return u @ (u.T @ dense)


def lapack_reference(dense, k):
    """``(u, s)`` of a full LAPACK SVD, truncated, with ``truncated_svd``'s signs."""
    u, s, _ = np.linalg.svd(dense, full_matrices=False)
    u = u[:, :k].copy()
    pivots = np.argmax(np.abs(u), axis=0)
    u *= np.where(u[pivots, np.arange(k)] < 0.0, -1.0, 1.0)
    return u, s[:k]


class TestCosine:
    def test_identical(self):
        assert cosine([1, 0], [1, 0]) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert cosine([1, 0], [0, 1]) == pytest.approx(0.0)

    def test_direct_arithmetic(self):
        assert cosine([1, 2, 2], [2, 1, 2]) == pytest.approx(8 / 9, abs=1e-15)

    def test_zero_vector_raises(self):
        with pytest.raises(ValueError, match="zero vector"):
            cosine([0.0, 0.0], [1.0, 0.0])

    def test_matrix_inputs_flatten(self):
        a = np.array([[1.0, 0.0], [0.0, 0.0]])
        b = np.array([[1.0, 0.0], [0.0, 0.0]])
        assert cosine(a, b) == pytest.approx(1.0)

    @given(
        st.lists(st.floats(-50, 50), min_size=3, max_size=3),
        st.lists(st.floats(-50, 50), min_size=3, max_size=3),
    )
    def test_bounded(self, a, b):
        if np.linalg.norm(a) == 0.0 or np.linalg.norm(b) == 0.0:
            return
        assert abs(cosine(a, b)) <= 1.0 + 1e-12


class TestTruncatedSvd:
    def test_identity(self):
        _, s = truncated_svd(sp.identity(3, format="csr"), 3)
        np.testing.assert_allclose(s, [1, 1, 1])

    def test_diagonal_truncation(self):
        diag = np.diag([3.0, 2.0, 1.0])
        u, s = truncated_svd(sp.csr_matrix(diag), 2)
        np.testing.assert_allclose(s, [3.0, 2.0])
        err = np.linalg.norm(diag - reconstruct(u, diag))
        assert err == pytest.approx(1.0, abs=1e-10)

    def test_full_rank_round_trip(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((8, 6))
        u, _ = truncated_svd(sp.csr_matrix(m), 6)
        assert np.linalg.norm(m - reconstruct(u, m)) < 1e-8

    def test_orthonormal_columns(self):
        rng = np.random.default_rng(4)
        m = rng.standard_normal((10, 7))
        u, s = truncated_svd(sp.csr_matrix(m), 5)
        assert u.shape == (10, 5) and s.shape == (5,)
        np.testing.assert_allclose(u.T @ u, np.eye(5), atol=1e-8)
        assert np.all(np.diff(s) <= 1e-12)
        assert np.all(s >= 0)

    def test_truncation_error_matches_discarded_spectrum(self):
        rng = np.random.default_rng(9)
        m = rng.standard_normal((20, 15))
        _, full = truncated_svd(sp.csr_matrix(m), 15)
        previous_err = np.inf
        for k in (2, 5, 9, 14):
            u, _ = truncated_svd(sp.csr_matrix(m), k)
            err = np.linalg.norm(m - reconstruct(u, m))
            expected = np.sqrt(np.sum(full[k:] ** 2))
            assert err == pytest.approx(expected, abs=1e-8)
            assert err <= previous_err + 1e-12
            previous_err = err

    def test_sparse_input_matches_dense(self):
        rng = np.random.default_rng(12)
        dense = rng.standard_normal((9, 7))
        dense[dense < 0.5] = 0.0
        u, s = truncated_svd(sp.csr_matrix(dense), 4)
        ref_u, ref_s = lapack_reference(dense, 4)
        np.testing.assert_allclose(s, ref_s, atol=1e-10)
        np.testing.assert_allclose(reconstruct(u, dense), reconstruct(ref_u, dense), atol=1e-10)

    def test_large_sparse_solver_path(self, monkeypatch):
        import scipy.sparse.linalg

        calls = []
        svds = scipy.sparse.linalg.svds

        def counting_svds(*args, **kwargs):
            calls.append(kwargs["k"])
            return svds(*args, **kwargs)

        monkeypatch.setattr(scipy.sparse.linalg, "svds", counting_svds)
        rng = np.random.default_rng(21)
        dense = rng.standard_normal((30, 12))
        u, s = truncated_svd(sp.csr_matrix(dense), 3)
        assert calls == [3]
        ref_u, ref_s = lapack_reference(dense, 3)
        np.testing.assert_allclose(s, ref_s, atol=1e-8)
        np.testing.assert_allclose(reconstruct(u, dense), reconstruct(ref_u, dense), atol=1e-7)

    @pytest.mark.parametrize("k", [20, 40])
    def test_sparse_solver_matches_lapack(self, k):
        """The svds path agrees with a full LAPACK SVD to near machine precision."""
        rng = np.random.default_rng(31)
        table = sp.random(200, 300, density=0.03, format="csr", random_state=rng)
        table = l2_normalize_rows(table)
        u, s = truncated_svd(table, k)
        ref_u, ref_s = lapack_reference(table.toarray(), k)
        np.testing.assert_allclose(s, ref_s, rtol=1e-10, atol=0)
        emb = u * s
        ref = ref_u * ref_s
        np.testing.assert_allclose(emb, ref, rtol=0, atol=1e-9)
        np.testing.assert_allclose(emb @ emb.T, ref @ ref.T, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("k", [5, 7])
    def test_sparse_near_full_rank_is_dense_result(self, k):
        """With 2k >= min(rows, cols) a sparse input takes the LAPACK path bit for bit."""
        rng = np.random.default_rng(13)
        dense = rng.standard_normal((10, 14))
        dense[dense < 0.3] = 0.0
        u, s = truncated_svd(sp.csr_matrix(dense), k)
        ref_u, ref_s = lapack_reference(dense, k)
        np.testing.assert_array_equal(u, ref_u)
        np.testing.assert_array_equal(s, ref_s)


class TestL2NormalizeRows:
    def test_three_four_five(self):
        out = l2_normalize_rows(sp.csr_matrix([[3.0, 4.0]]))
        np.testing.assert_allclose(out.toarray(), [[0.6, 0.8]])

    def test_zero_row_preserved(self):
        out = l2_normalize_rows(sp.csr_matrix([[0.0, 0.0], [1.0, 0.0]]))
        np.testing.assert_array_equal(out.toarray()[0], [0.0, 0.0])

    def test_uniform_row(self):
        out = l2_normalize_rows(sp.csr_matrix(np.ones((1, 4))))
        np.testing.assert_allclose(out.toarray(), [[0.5, 0.5, 0.5, 0.5]])

    def test_norms_are_one(self):
        rng = np.random.default_rng(2)
        m = rng.standard_normal((6, 5))
        out = l2_normalize_rows(sp.csr_matrix(m))
        np.testing.assert_allclose(np.linalg.norm(out.toarray(), axis=1), 1.0, atol=1e-12)

    def test_sparse_agrees_with_dense(self):
        rng = np.random.default_rng(8)
        m = rng.standard_normal((5, 6))
        m[m < 0] = 0.0
        norms = np.linalg.norm(m, axis=1, keepdims=True)
        dense = np.divide(m, norms, out=m.copy(), where=norms > 0.0)
        np.testing.assert_allclose(l2_normalize_rows(sp.csr_matrix(m)).toarray(), dense,
                                   atol=1e-12)


class TestBinaryFormat:
    def test_matrix_round_trip(self, tmp_path):
        m = np.array([[1.5, -2.0], [0.0, 3.25], [4.0, 5.0]])
        path = tmp_path / "m.tvb"
        with open(path, "wb") as handle:
            write_tvb(handle, m)
        with open(path, "rb") as handle:
            np.testing.assert_array_equal(read_tvb(handle), m)

    def test_tensor_round_trip_and_header(self):
        tensor = np.arange(12.0).reshape(2, 3, 2)
        buf = io.BytesIO()
        write_tvb(buf, tensor)
        raw = buf.getvalue()
        assert raw[:4] == TVB_MAGIC
        assert int.from_bytes(raw[4:12], "little") == 3
        dims = [int.from_bytes(raw[12 + 8 * i : 20 + 8 * i], "little") for i in range(3)]
        assert dims == [2, 3, 2]
        values = np.frombuffer(raw[36:], dtype="<f8")
        np.testing.assert_array_equal(values, tensor.ravel())  # (i, j, c) order
        buf.seek(0)
        np.testing.assert_array_equal(read_tvb(buf), tensor)

    def test_multiple_blocks_in_one_file(self, tmp_path):
        path = tmp_path / "blocks.bin"
        a = np.ones((2, 2))
        b = np.zeros((2, 2, 2))
        with open(path, "wb") as handle:
            write_tvb(handle, a)
            write_tvb(handle, b)
        with open(path, "rb") as handle:
            np.testing.assert_array_equal(read_tvb(handle), a)
            np.testing.assert_array_equal(read_tvb(handle), b)

    def test_bad_magic(self):
        with pytest.raises(ValueError, match="magic"):
            read_tvb(io.BytesIO(b"NOPE" + b"\0" * 32))

    @pytest.mark.parametrize("dim", [2**28, 2**40])
    def test_huge_header_rejected_before_reading(self, dim):
        """Header dims are checked against the bytes left, with no wraparound."""
        raw = TVB_MAGIC + struct.pack("<3Q", 2, dim, dim) + b"\0" * 64
        with pytest.raises(ValueError, match="only 64 bytes follow"):
            read_tvb(io.BytesIO(raw))

    def test_truncated_header(self):
        with pytest.raises(ValueError, match="truncated"):
            read_tvb(io.BytesIO(TVB_MAGIC + struct.pack("<2Q", 2, 3)))

    def test_rejects_vectors_and_nan(self):
        with pytest.raises(ValueError, match="order-3"):
            write_tvb(io.BytesIO(), np.ones(3))
        with pytest.raises(ValueError, match="non-finite"):
            write_tvb(io.BytesIO(), np.array([[np.nan, 1.0]]))

