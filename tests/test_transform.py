import numpy as np
import pytest

from tspectral import (
    NumericError,
    ShapeError,
    Tensor3,
    bcirc,
    conj_transpose,
    frobenius_norm,
    identity,
    tprod,
    tprod_dense,
    tprod_fft,
)
from tspectral.transform import _all_slices, _from_stack, _to_stack
from conftest import random_hermitian, random_tensor
from helpers_oracles import oracle_bcirc, oracle_fourier_blocks, oracle_tprod_slices


class TestToStack:
    """Slice k of the Fourier stack is diagonal block k of bcirc under the unitary DFT."""

    def test_p2_sum_difference(self, a2):
        s = _to_stack(a2)
        np.testing.assert_allclose(s[0], [[3, 1], [1, 5]], atol=1e-12)
        np.testing.assert_allclose(s[1], [[1, 1], [1, 1]], atol=1e-12)
        np.testing.assert_allclose(s, oracle_fourier_blocks(list(a2.slices())), atol=1e-12)

    def test_identity_all_slices_eye(self):
        t = identity(3, 4)
        eyes = np.broadcast_to(np.eye(3), (4, 3, 3))
        np.testing.assert_allclose(_all_slices(_to_stack(t), 4), eyes, atol=1e-12)
        np.testing.assert_allclose(_to_stack(t, "complex"), eyes, atol=1e-12)
        np.testing.assert_allclose(oracle_fourier_blocks(list(t.slices())), eyes, atol=1e-12)

    def test_conjugate_symmetry_for_real_input(self):
        rng = np.random.default_rng(41)
        t = random_tensor(rng, 3, 4, 5)
        full = _to_stack(t, "complex")
        np.testing.assert_allclose(full, oracle_fourier_blocks(list(t.slices())), atol=1e-12)
        for k in range(1, 5):
            np.testing.assert_allclose(full[k], full[5 - k].conj(), rtol=1e-12, atol=1e-12)
        half = _to_stack(t)
        assert half.shape == (3, 3, 4)
        np.testing.assert_allclose(_all_slices(half, 5), full, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("complex_kind", [False, True])
    def test_block_diagonalization_identity(self, complex_kind):
        rng = np.random.default_rng(43)
        t = random_tensor(rng, 3, 2, 4, complex_kind)
        s = _all_slices(_to_stack(t), 4)
        blk = np.zeros((12, 8), dtype=complex)
        for k in range(4):
            blk[3 * k : 3 * k + 3, 2 * k : 2 * k + 2] = s[k]
        f_unitary = np.fft.fft(np.eye(4)) / 2.0
        lhs = np.kron(f_unitary, np.eye(3)).conj().T @ blk @ np.kron(f_unitary, np.eye(2))
        np.testing.assert_allclose(lhs, bcirc(t), atol=1e-10)


class TestFromStack:
    def test_round_trip_complex(self):
        rng = np.random.default_rng(47)
        t = random_tensor(rng, 3, 3, 5, complex_kind=True)
        back = _from_stack(_to_stack(t), 5, "complex")
        np.testing.assert_allclose(back.data, t.data, atol=1e-12)
        blocks = oracle_fourier_blocks(list(t.slices()))
        np.testing.assert_allclose(_from_stack(blocks, 5, "complex").data, t.data, atol=1e-12)

    def test_round_trip_real_coerces(self, a1):
        for stack, kind in ((_to_stack(a1, "complex"), None), (_to_stack(a1), "real")):
            back = _from_stack(stack, 2, kind)
            assert back.kind == "real"
            assert back.allclose(a1)
        back = _from_stack(oracle_fourier_blocks(list(a1.slices())), 2)
        assert back.kind == "real"
        assert back.allclose(a1)

    def test_constant_slices_invert_to_first_slice(self):
        mat = np.array([[1.0, 2.0], [3.0, 4.0]])
        t = _from_stack(np.repeat(mat[None].astype(complex), 4, axis=0), 4)
        assert t.kind == "real"
        np.testing.assert_allclose(t.data[:, :, 0], mat, atol=1e-14)
        np.testing.assert_allclose(t.data[:, :, 1:], 0.0, atol=1e-14)
        np.testing.assert_allclose(oracle_bcirc(list(t.slices())), np.kron(np.eye(4), mat), atol=1e-14)

    def test_real_demand_fails_on_asymmetric_spectrum(self):
        stack = np.zeros((3, 2, 2), dtype=complex)
        stack[1] = 1.0j  # no conjugate partner
        with pytest.raises(NumericError, match="residue"):
            _from_stack(stack, 3, kind="real")


class TestTprod:
    def test_reference_product(self, a2, b2):
        expected = [[[2, 2], [3, 3]], [[2, 2], [3, 3]]]
        for path in ("dense", "fft"):
            c = tprod(a2, b2, path=path)
            np.testing.assert_allclose(c.data[:, :, 0], expected[0], atol=1e-12)
            np.testing.assert_allclose(c.data[:, :, 1], expected[1], atol=1e-12)

    def test_identity_neutral(self, a1):
        e = identity(2, 2)
        assert tprod_fft(e, a1).allclose(a1, atol=1e-12)
        assert tprod_fft(a1, e).allclose(a1, atol=1e-12)
        assert tprod_dense(a1, e).allclose(a1)

    def test_shape_mismatch(self):
        a = Tensor3(np.zeros((2, 3, 2)))
        b = Tensor3(np.zeros((2, 3, 2)))
        with pytest.raises(ShapeError):
            tprod_dense(a, b)
        with pytest.raises(ShapeError):
            tprod_fft(a, Tensor3(np.zeros((3, 2, 4))))

    def test_unknown_path(self, a1):
        with pytest.raises(ValueError):
            tprod(a1, a1, path="magic")

    def test_fft_matches_dense_and_oracle(self):
        rng = np.random.default_rng(53)
        a = random_tensor(rng, 5, 4, 8)
        b = random_tensor(rng, 4, 3, 8)
        dense = tprod_dense(a, b)
        fast = tprod_fft(a, b)
        assert frobenius_norm(fast - dense) / frobenius_norm(dense) <= 1e-10
        conv = oracle_tprod_slices(list(a.slices()), list(b.slices()))
        oracle = Tensor3.from_slices(conv)
        assert frobenius_norm(fast - oracle) / frobenius_norm(oracle) <= 1e-10

    def test_complex_hermitian_square_is_hermitian(self):
        rng = np.random.default_rng(59)
        h = random_hermitian(rng, 3, 4, complex_kind=True)
        sq = tprod_fft(h, h)
        assert frobenius_norm(sq - conj_transpose(sq)) <= 1e-10 * (1 + frobenius_norm(sq))

    def test_associativity(self):
        rng = np.random.default_rng(61)
        for _ in range(5):
            a = random_tensor(rng, 3, 4, 3)
            b = random_tensor(rng, 4, 2, 3)
            c = random_tensor(rng, 2, 5, 3)
            left = tprod_fft(tprod_fft(a, b), c)
            right = tprod_fft(a, tprod_fft(b, c))
            assert frobenius_norm(left - right) / frobenius_norm(right) <= 1e-9

    def test_bcirc_multiplicative(self):
        rng = np.random.default_rng(67)
        a = random_tensor(rng, 3, 4, 4)
        b = random_tensor(rng, 4, 2, 4)
        lhs = bcirc(tprod_fft(a, b))
        rhs = bcirc(a) @ bcirc(b)
        assert np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs) <= 1e-10

    def test_conj_transpose_reverses_product(self):
        rng = np.random.default_rng(71)
        a = random_tensor(rng, 3, 4, 3, complex_kind=True)
        b = random_tensor(rng, 4, 2, 3, complex_kind=True)
        lhs = conj_transpose(tprod_fft(a, b))
        rhs = tprod_fft(conj_transpose(b), conj_transpose(a))
        assert frobenius_norm(lhs - rhs) / frobenius_norm(rhs) <= 1e-10

    def test_arbitrary_p_not_power_of_two(self):
        rng = np.random.default_rng(73)
        for p in (3, 5, 6, 7, 12):
            a = random_tensor(rng, 2, 3, p)
            b = random_tensor(rng, 3, 2, p)
            dense = tprod_dense(a, b)
            fast = tprod_fft(a, b)
            assert frobenius_norm(fast - dense) / frobenius_norm(dense) <= 1e-10

    def test_result_kind(self):
        rng = np.random.default_rng(79)
        a = random_tensor(rng, 2, 2, 3)
        b = random_tensor(rng, 2, 2, 3, complex_kind=True)
        assert tprod_fft(a, a).kind == "real"
        assert tprod_fft(a, b).kind == "complex"


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")  # matmul
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")  # matmul
@pytest.mark.parametrize("shape", [(2, 2, 1), (2, 2, 2), (1, 1, 4)])
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_overflowing_product_raises_overflow(shape, kind):
    big = Tensor3(np.full(shape, 1e200) * (1.0 if kind == "real" else 1.0 + 1.0j))
    with pytest.raises(NumericError, match="^the result overflowed: its inverse transform is not finite$"):
        tprod_fft(big, big)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")  # the fft
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")  # the fft
@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize("batch", [False, True], ids=["tensor", "batch"])
def test_overflowing_forward_transform_raises(kind, batch):
    """Finite entries whose tube sums leave float range give no inf or nan stack."""
    data = np.full((2, 2, 4), 1e308) * (1.0 if kind == "real" else 1.0 + 1.0j)
    if batch:
        data = np.stack([np.ones_like(data), data])
    with pytest.raises(NumericError, match="^an operand overflowed: its Fourier transform is not finite$"):
        _to_stack(data if batch else Tensor3(data))
    assert np.isfinite(_to_stack(Tensor3(np.full((2, 2, 4), 1e307)))).all()


@pytest.mark.parametrize("p", [1, 2, 5])
def test_batch_inverse_raises_for_its_first_failing_item(p):
    """Per item, an overflow is an overflow and a broken symmetry a residue;
    the error raised is the first failing item's."""
    data = np.random.default_rng(5).standard_normal((4, 2, 2, p))
    stacks = _to_stack(data)
    overflow = stacks.copy()
    overflow[2, 0, 0, 0] = np.inf
    asymmetric = overflow.copy()
    asymmetric[1, 0, 0, 0] += 1j
    assert _from_stack(stacks, p, "real").shape == (4, 2, 2, p)
    with pytest.raises(NumericError, match="overflowed"):
        _from_stack(overflow, p, "real")
    with pytest.raises(NumericError, match="overflowed"):
        _from_stack(overflow, p, None)
    with pytest.raises(NumericError, match="imaginary residue"):
        _from_stack(asymmetric, p, "real")
    full = _to_stack(data, "complex")
    full[1, 0, 0, 0] += 1j
    mixed = _from_stack(full, p, None)  # item 1 stays complex, so the batch does
    assert mixed.dtype.kind == "c"
    assert _from_stack(full[0], p, None).kind == "real"
    assert np.array_equal(mixed[0].real, _from_stack(full[0], p, None).data)
