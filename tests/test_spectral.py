import math
import warnings

import numpy as np
import pytest

from tspectral import (
    DomainError,
    PreconditionError,
    ShapeError,
    SingularityError,
    Tensor3,
    bcirc,
    conj_transpose,
    frobenius_norm,
    hermitian_eig,
    identity,
    is_hermitian,
    is_psd,
    psd_factor,
    random_psd,
    t_eigenvalues,
    t_function,
    t_svd,
    to_fourier,
    tprod_fft,
    trace,
)
from conftest import random_hermitian, random_psd_tensor, random_tensor
from helpers_oracles import assert_multiset_close, oracle_eigenvalues


def reconstruction_error(factors_product, original):
    return frobenius_norm(factors_product - original) / max(frobenius_norm(original), 1e-30)


class TestTEigenvalues:
    def test_example_two_decimals(self, a2):
        vals = t_eigenvalues(a2).values
        np.testing.assert_allclose(np.round(vals, 2), [5.41, 2.59, 2.0, 0.0])

    def test_example_exact(self, a2):
        vals = t_eigenvalues(a2).values
        expected = np.array([4 + math.sqrt(2), 4 - math.sqrt(2), 2.0, 0.0])
        np.testing.assert_allclose(vals, expected, atol=1e-8)

    def test_identity(self):
        np.testing.assert_allclose(t_eigenvalues(identity(4, 3)).values, np.ones(12))

    def test_tie_breaking_by_slice_index(self):
        # all eigenvalues equal: order falls back to ascending slice index
        spec = t_eigenvalues(identity(2, 3))
        np.testing.assert_array_equal(spec.provenance, [1, 1, 2, 2, 3, 3])
        assert spec.max == spec.min == 1.0
        assert spec.spectral_radius == 1.0

    def test_sorted_descending_with_provenance(self, a2):
        spec = t_eigenvalues(a2)
        assert len(spec) == a2.n * a2.p
        assert np.all(np.diff(np.real(spec.values)) <= 1e-12)
        assert spec.provenance is not None and set(spec.provenance) == {1, 2}

    def test_hermitian_spectrum_is_real(self):
        rng = np.random.default_rng(83)
        h = random_hermitian(rng, 4, 3, complex_kind=True)
        spec = t_eigenvalues(h)
        assert spec.is_real

    def test_methods_agree_as_multisets(self):
        rng = np.random.default_rng(89)
        for _ in range(10):
            n = int(rng.integers(1, 7))
            p = int(rng.integers(1, 6))
            t = random_tensor(rng, n, n, p)
            fast = t_eigenvalues(t, "fourier").values
            dense = t_eigenvalues(t, "bcirc").values
            assert_multiset_close(fast, dense, 1e-8)

    def test_matches_independent_oracle(self, a1):
        mine = np.sort(np.real(t_eigenvalues(a1).values))
        ref = np.sort(np.real(oracle_eigenvalues(list(a1.slices()))))
        np.testing.assert_allclose(mine, ref, atol=1e-10)

    def test_non_square_raises(self):
        with pytest.raises(ShapeError):
            t_eigenvalues(Tensor3(np.zeros((2, 3, 2))))

    def test_unknown_method(self, a1):
        with pytest.raises(ValueError):
            t_eigenvalues(a1, method="guess")


class TestHermitianEig:
    def test_example_reconstruction(self, a2):
        f = hermitian_eig(a2)
        rebuilt = tprod_fft(tprod_fft(f.q, f.l), conj_transpose(f.q))
        assert reconstruction_error(rebuilt, a2) <= 1e-9

    def test_identity(self):
        e = identity(3, 2)
        f = hermitian_eig(e)
        rebuilt = tprod_fft(tprod_fft(f.q, f.l), conj_transpose(f.q))
        assert rebuilt.allclose(e, atol=1e-10)

    def test_random_complex_hermitian(self):
        rng = np.random.default_rng(97)
        h = random_hermitian(rng, 4, 3, complex_kind=True)
        f = hermitian_eig(h)
        gram = tprod_fft(f.q, conj_transpose(f.q))
        assert frobenius_norm(gram - identity(4, 3)) <= 1e-9
        rebuilt = tprod_fft(tprod_fft(f.q, f.l), conj_transpose(f.q))
        assert reconstruction_error(rebuilt, h) <= 1e-9

    def test_real_input_gives_real_factors(self):
        rng = np.random.default_rng(101)
        h = random_hermitian(rng, 3, 5)
        f = hermitian_eig(h)
        assert f.q.kind == "real" and f.l.kind == "real"

    def test_eigenvalues_match_spectrum(self):
        rng = np.random.default_rng(103)
        h = random_hermitian(rng, 3, 4)
        f = hermitian_eig(h)
        np.testing.assert_allclose(
            np.sort(f.fourier_eigenvalues.ravel()),
            np.sort(np.asarray(t_eigenvalues(h).values)),
            atol=1e-8,
        )

    def test_rejects_non_hermitian(self, a3):
        with pytest.raises(PreconditionError, match="Hermitian"):
            hermitian_eig(a3)


class TestTSvd:
    def test_identity(self):
        f = t_svd(identity(3, 2))
        assert f.s.allclose(identity(3, 2), atol=1e-10)

    def test_example_singular_values(self, a1):
        # symmetric PSD block-circulant matrix: singular values equal eigenvalues
        sv = np.sort(t_svd(a1).fourier_singular_values.ravel())
        expected = np.sort([(5 + math.sqrt(17)) / 2, (5 - math.sqrt(17)) / 2, 2.0, 3.0])
        np.testing.assert_allclose(sv, expected, atol=1e-8)

    def test_random_rectangular_reconstruction(self):
        rng = np.random.default_rng(107)
        t = random_tensor(rng, 3, 5, 4)
        f = t_svd(t)
        rebuilt = tprod_fft(tprod_fft(f.u, f.s), conj_transpose(f.v))
        assert reconstruction_error(rebuilt, t) <= 1e-9

    def test_factor_orthogonality(self):
        rng = np.random.default_rng(109)
        t = random_tensor(rng, 4, 3, 3, complex_kind=True)
        f = t_svd(t)
        assert frobenius_norm(tprod_fft(f.u, conj_transpose(f.u)) - identity(4, 3)) <= 1e-9
        assert frobenius_norm(tprod_fft(f.v, conj_transpose(f.v)) - identity(3, 3)) <= 1e-9

    def test_fourier_slices_of_s_are_diagonal_descending(self):
        rng = np.random.default_rng(113)
        t = random_tensor(rng, 4, 4, 3)
        f = t_svd(t)
        shat = to_fourier(f.s).slices
        for k in range(3):
            mat = shat[:, :, k]
            diag = np.real(np.diag(mat))
            assert np.all(diag >= -1e-12)
            assert np.all(np.diff(diag) <= 1e-10)
            off = mat - np.diag(np.diag(mat))
            assert np.abs(off).max() <= 1e-10

    def test_matches_bcirc_singular_values(self):
        rng = np.random.default_rng(127)
        t = random_tensor(rng, 3, 4, 5)
        mine = np.sort(t_svd(t).fourier_singular_values.ravel())
        ref = np.sort(np.linalg.svd(bcirc(t), compute_uv=False))
        np.testing.assert_allclose(mine, ref, atol=1e-8)

    def test_unitary_invariance_of_singular_values(self):
        rng = np.random.default_rng(131)
        t = random_tensor(rng, 3, 3, 4)
        q = hermitian_eig(random_hermitian(rng, 3, 4)).q
        rotated = tprod_fft(q, t)
        np.testing.assert_allclose(
            np.sort(t_svd(rotated).fourier_singular_values.ravel()),
            np.sort(t_svd(t).fourier_singular_values.ravel()),
            atol=1e-8,
        )


class TestTFunction:
    def test_sqrt_identity(self):
        assert t_function(identity(3, 2), "sqrt").allclose(identity(3, 2), atol=1e-12)

    def test_sqrt_squares_back(self):
        rng = np.random.default_rng(137)
        a = random_psd_tensor(rng, 4, 3)
        r = t_function(a, "sqrt")
        assert reconstruction_error(tprod_fft(r, r), a) <= 1e-8

    def test_sqrt_output_is_psd_hermitian(self):
        rng = np.random.default_rng(139)
        a = random_psd_tensor(rng, 3, 4)
        r = t_function(a, "sqrt")
        assert is_hermitian(r).ok
        assert is_psd(r).ok

    def test_pow_exponent_laws(self):
        rng = np.random.default_rng(149)
        a = random_psd_tensor(rng, 3, 2) + 0.5 * identity(3, 2)
        assert t_function(a, "pow", exponent=1.0).allclose(a, atol=1e-9)
        assert t_function(a, "pow", exponent=0.0).allclose(identity(3, 2), atol=1e-12)

    def test_inv_sqrt(self):
        rng = np.random.default_rng(151)
        a = random_psd_tensor(rng, 3, 3) + 0.5 * identity(3, 3)
        prod = tprod_fft(t_function(a, "inv_sqrt"), t_function(a, "sqrt"))
        assert frobenius_norm(prod - identity(3, 3)) <= 1e-8

    def test_log_of_scalar_tensor(self):
        c = 3.0
        t = t_function(c * identity(2, 3), "log")
        assert t.allclose(math.log(c) * identity(2, 3), atol=1e-10)

    def test_sqrt_rejects_indefinite(self):
        t = -1.0 * identity(2, 2)
        with pytest.raises(DomainError, match="semidefinite"):
            t_function(t, "sqrt")

    def test_log_rejects_singular(self):
        rng = np.random.default_rng(157)
        m = random_tensor(rng, 1, 3, 2)
        singular = tprod_fft(conj_transpose(m), m)  # rank-deficient gram
        with pytest.raises(SingularityError):
            t_function(singular, "log")

    def test_rejects_non_hermitian(self, a3):
        with pytest.raises(PreconditionError):
            t_function(a3, "sqrt")

    def test_bad_tags(self, a2):
        with pytest.raises(ValueError):
            t_function(a2, "exp")
        with pytest.raises(ValueError):
            t_function(a2, "pow")
        with pytest.raises(ValueError):
            t_function(a2, "sqrt", exponent=2.0)


class TestChecks:
    def test_is_hermitian_examples(self, a2, a3):
        assert is_hermitian(a2).ok
        chk = is_hermitian(a3)
        assert not chk.ok and chk.residual > 1e-6
        assert is_hermitian(identity(3, 3)).ok

    @pytest.mark.parametrize("complex_kind", [False, True])
    def test_tiny_non_hermitian_is_not_hermitian(self, complex_kind):
        # residual ~1e-11: an absolute floor below scale 1 would call it Hermitian
        # and return a real spectrum of a tensor whose spectrum is complex
        t = 1e-12 * random_tensor(np.random.default_rng(167), 3, 3, 4, complex_kind)
        assert not is_hermitian(t).ok
        spec = t_eigenvalues(t)
        assert not spec.is_real
        assert_multiset_close(spec.values, oracle_eigenvalues(list(t.slices())), 1e-21)

    @pytest.mark.parametrize("scale", [1e-12, 1.0, 1e12])
    @pytest.mark.parametrize("complex_kind", [False, True])
    def test_hermitian_at_any_scale(self, scale, complex_kind):
        rng = np.random.default_rng(173)
        exact = scale * random_hermitian(rng, 3, 4, complex_kind)
        chk = is_hermitian(exact)
        assert (chk.ok, chk.residual) == (True, 0.0)
        # a Gram tensor through the FFT is Hermitian only to roundoff
        gram = scale * random_psd_tensor(rng, 3, 4)
        chk = is_hermitian(gram)
        assert chk.ok and 0.0 < chk.residual <= 1e-14 * frobenius_norm(gram)

    @pytest.mark.parametrize("c", [1e300, 1e-300, 1e170, 1e-170, 1e160, 1e-160])
    @pytest.mark.parametrize("complex_kind", [False, True])
    def test_hermitian_verdict_at_extreme_scales(self, c, complex_kind):
        """The norms of the check rescale where the squared entries would
        overflow or underflow, so no scale makes every tensor Hermitian."""
        rng = np.random.default_rng(179)
        r = random_tensor(rng, 3, 3, 4, complex_kind)
        chk, base = is_hermitian(c * r), is_hermitian(r)
        assert not chk.ok and not base.ok
        assert math.isclose(chk.residual, c * base.residual, rel_tol=1e-14)
        assert is_hermitian(c * random_hermitian(rng, 3, 4, complex_kind)).ok

    @pytest.mark.parametrize("complex_kind", [False, True])
    def test_plain_norm_overflow_warns_nothing(self, complex_kind):
        """The norm's plain attempt overflows here and is redone rescaled; no
        RuntimeWarning escapes, even when warnings are errors."""
        r = random_tensor(np.random.default_rng(181), 3, 3, 4, complex_kind)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            chk = is_hermitian(1e170 * r)
        assert not chk.ok and math.isclose(chk.residual, 1e170 * is_hermitian(r).residual, rel_tol=1e-14)

    def test_zero_tensor_is_hermitian(self):
        zero = Tensor3(np.zeros((3, 3, 4)))
        chk = is_hermitian(zero)
        assert (chk.ok, chk.residual) == (True, 0.0)
        assert is_psd(zero).ok

    def test_is_psd_examples(self, a2):
        chk = is_psd(a2)
        assert chk.ok
        assert abs(chk.min_eigenvalue) <= 1e-10

    def test_is_psd_negative(self):
        t = identity(2, 2) - 2.0 * identity(2, 2)
        chk = is_psd(t)
        assert not chk.ok
        assert chk.min_eigenvalue == pytest.approx(-1.0)

    def test_is_psd_gram(self):
        rng = np.random.default_rng(163)
        m = random_tensor(rng, 3, 3, 4)
        assert is_psd(tprod_fft(m, conj_transpose(m))).ok

    def test_is_psd_requires_hermitian(self, a3):
        with pytest.raises(PreconditionError):
            is_psd(a3)


class TestPsdFactor:
    def test_identity(self):
        m = psd_factor(identity(2, 3))
        assert tprod_fft(m, conj_transpose(m)).allclose(identity(2, 3), atol=1e-10)

    def test_example(self, a2):
        m = psd_factor(a2)
        assert frobenius_norm(tprod_fft(m, conj_transpose(m)) - a2) <= 1e-8

    def test_random(self):
        rng = np.random.default_rng(167)
        a = random_psd_tensor(rng, 5, 3)
        m = psd_factor(a)
        assert reconstruction_error(tprod_fft(m, conj_transpose(m)), a) <= 1e-8

    def test_rejects_indefinite(self):
        with pytest.raises(DomainError, match="min eigenvalue"):
            psd_factor(-1.0 * identity(2, 2))


class TestRandomPsd:
    def test_deterministic(self):
        assert random_psd(2, 2, seed=0).allclose(random_psd(2, 2, seed=0))

    def test_always_psd(self):
        for seed in range(5):
            assert is_psd(random_psd(3, 2, seed)).ok

    def test_degenerate_dims(self):
        t = random_psd(1, 1, seed=5)
        assert t.shape == (1, 1, 1)
        assert t.data[0, 0, 0] >= 0.0


class TestConcavityOfSqrtTrace:
    def test_strict_on_distinct_pairs(self):
        rng = np.random.default_rng(173)
        for _ in range(20):
            x = random_psd_tensor(rng, 3, 2)
            y = random_psd_tensor(rng, 3, 2)
            a = float(rng.uniform(0.1, 0.9))
            mixed = trace(t_function(a * x + (1 - a) * y, "sqrt"))
            split = a * trace(t_function(x, "sqrt")) + (1 - a) * trace(t_function(y, "sqrt"))
            assert mixed - split > 1e-12

    def test_equality_when_equal(self):
        rng = np.random.default_rng(179)
        x = random_psd_tensor(rng, 3, 3)
        a = 0.4
        mixed = trace(t_function(a * x + (1 - a) * x, "sqrt"))
        split = trace(t_function(x, "sqrt"))
        assert abs(mixed - split) <= 1e-10 * max(1.0, abs(split))
