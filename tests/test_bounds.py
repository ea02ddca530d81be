import math

import numpy as np
import pytest

from tspectral import (
    DomainError,
    NumericError,
    PreconditionError,
    ShapeError,
    Tensor3,
    conj_transpose,
    extremal_ratio_bounds,
    extremal_ratio_witness,
    frobenius_norm,
    hermitian_trace_bounds,
    identity,
    is_psd,
    ky_fan_sum,
    rayleigh_value,
    sandwich_bounds,
    symmetric_relax_bounds,
    symmetrized_bounds,
    t_eigenvalues,
    tprod_fft,
    trace,
    vn_trace_bounds,
    write_tensor,
)
from tspectral import bounds
from tspectral.cli import main
from tspectral.transform import _slice_weights
from conftest import random_hermitian, random_psd_tensor, random_tensor
from helpers_oracles import oracle_bcirc, random_partial_isometry

SQRT2 = math.sqrt(2)
SQRT17 = math.sqrt(17)


def unit_column(n, p, position):
    data = np.zeros((n, 1, p))
    data[position % n, 0, position // n] = 1.0
    return Tensor3(data)


class TestBoundReport:
    def test_build_contract(self):
        from tspectral import BoundReport

        rep = BoundReport.build(1.0, 2.0, 4.0, "demo")
        assert rep.satisfied
        assert rep.slack_lower == pytest.approx(1.0)
        assert rep.slack_upper == pytest.approx(2.0)
        assert not BoundReport.build(1.0, 5.0, 4.0, "demo").satisfied
        # violations within 1e-8 * max(1, |value|) still count as satisfied
        assert BoundReport.build(1.0, 1.0 - 5e-9, 4.0, "demo").satisfied


class TestRayleighValue:
    def test_first_basis_vector(self, a1):
        assert rayleigh_value(a1, unit_column(2, 2, 0)) == pytest.approx(2.0, abs=1e-12)

    def test_second_basis_vector(self, a1):
        assert rayleigh_value(a1, unit_column(2, 2, 1)) == pytest.approx(3.0, abs=1e-12)

    def test_identity_any_unit_vector(self):
        rng = np.random.default_rng(191)
        y = rng.standard_normal((3, 1, 2))
        y = y / np.linalg.norm(y)
        assert rayleigh_value(identity(3, 2), Tensor3(y)) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_non_unit(self, a1):
        with pytest.raises(PreconditionError, match="unit"):
            rayleigh_value(a1, Tensor3(np.ones((2, 1, 2))))

    def test_rejects_bad_shape(self, a1):
        with pytest.raises(ShapeError):
            rayleigh_value(a1, unit_column(3, 2, 0))


class TestSymmetrizedBounds:
    def test_example_rounded(self, a1):
        res = symmetrized_bounds(a1)
        assert res.mu_min == pytest.approx(0.44, abs=5e-3)
        assert res.mu_max == pytest.approx(4.56, abs=5e-3)

    def test_example_exact(self, a1):
        res = symmetrized_bounds(a1)
        assert res.mu_min == pytest.approx((5 - SQRT17) / 2, abs=1e-10)
        assert res.mu_max == pytest.approx((5 + SQRT17) / 2, abs=1e-10)
        # symmetric block-circulant matrix: tensor radius equals mu_max
        assert res.rho_symmetrized == pytest.approx(res.mu_max, abs=1e-10)
        assert res.rho_tensor == pytest.approx(res.mu_max, abs=1e-10)

    def test_every_real_eigenvalue_enclosed(self, a1):
        res = symmetrized_bounds(a1)
        assert len(res.eigen_reports) == 4
        assert res.satisfied
        values = sorted(r.value for r in res.eigen_reports)
        np.testing.assert_allclose(
            values, sorted([(5 - SQRT17) / 2, 2.0, 3.0, (5 + SQRT17) / 2]), atol=1e-8
        )

    def test_identity(self):
        res = symmetrized_bounds(identity(3, 2))
        assert res.mu_min == pytest.approx(1.0)
        assert res.mu_max == pytest.approx(1.0)
        assert res.satisfied

    def test_random_non_symmetric(self):
        rng = np.random.default_rng(193)
        for _ in range(20):
            t = random_tensor(rng, 3, 3, 3)
            assert symmetrized_bounds(t).satisfied

    @pytest.mark.parametrize("complex_kind", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
    def test_mu_is_the_dense_symmetrized_spectrum(self, p, complex_kind):
        """mu from the Fourier slices of (A + A^H)/2 against eigvalsh of the dense
        (bcirc(A) + bcirc(A)^H)/2."""
        rng = np.random.default_rng(197 + p)
        for n in (1, 3, 4):
            t = random_tensor(rng, n, n, p, complex_kind)
            mat = oracle_bcirc(list(t.slices()))
            mu = np.linalg.eigvalsh((mat + mat.conj().T) / 2.0)
            res = symmetrized_bounds(t)
            scale = np.abs(mu).max()
            got = [res.mu_min, res.mu_max, res.rho_symmetrized]
            np.testing.assert_allclose(got, [mu[0], mu[-1], scale], rtol=0, atol=1e-12 * scale)


class TestVnTraceBounds:
    def test_identity_pair(self):
        rep = vn_trace_bounds(identity(2, 2), identity(2, 2))
        assert rep.lower == pytest.approx(4.0)
        assert rep.value == pytest.approx(4.0)
        assert rep.upper == pytest.approx(4.0)
        assert rep.satisfied

    def test_example_squared(self, a2):
        rep = vn_trace_bounds(a2, a2)
        lam = np.array([4 + SQRT2, 4 - SQRT2, 2.0, 0.0])
        assert rep.value == pytest.approx(40.0, abs=1e-9)
        assert rep.upper == pytest.approx(float(lam @ lam), abs=1e-9)
        assert rep.lower == pytest.approx(float(lam @ lam[::-1]), abs=1e-9)
        assert rep.satisfied

    def test_random_pairs(self):
        rng = np.random.default_rng(197)
        for _ in range(25):
            n = int(rng.integers(1, 4))
            p = int(rng.integers(1, 4))
            rep = vn_trace_bounds(random_psd_tensor(rng, n, p), random_psd_tensor(rng, n, p))
            assert rep.satisfied

    def test_rejects_non_psd(self, a2):
        with pytest.raises(PreconditionError):
            vn_trace_bounds(a2, -1.0 * identity(2, 2))


class TestHermitianTraceBounds:
    def test_identity_and_negative(self):
        rep = hermitian_trace_bounds(identity(2, 2), -1.0 * identity(2, 2))
        assert rep.lower == pytest.approx(-4.0)
        assert rep.value == pytest.approx(-4.0)
        assert rep.upper == pytest.approx(-4.0)
        assert rep.satisfied

    def test_random_indefinite_pairs(self):
        rng = np.random.default_rng(199)
        for _ in range(25):
            n = int(rng.integers(1, 4))
            p = int(rng.integers(1, 4))
            a = random_hermitian(rng, n, p)
            b = random_hermitian(rng, n, p)
            assert hermitian_trace_bounds(a, b).satisfied

    def test_shift_identity_direct(self):
        rng = np.random.default_rng(211)
        for _ in range(10):
            a = random_hermitian(rng, 3, 2)
            b = random_hermitian(rng, 3, 2)
            lam_min = min(
                float(np.min(np.real(t_eigenvalues(a).values))),
                float(np.min(np.real(t_eigenvalues(b).values))),
            )
            alpha = 1.0 + abs(lam_min)
            e = identity(3, 2)
            lhs = trace(tprod_fft(a + alpha * e, b + alpha * e))
            rhs = (
                trace(tprod_fft(a, b))
                + alpha * (trace(a) + trace(b))
                + (3 * 2) * alpha**2
            )
            assert lhs == pytest.approx(rhs, rel=1e-9)

    @pytest.mark.parametrize("c", [1e8, 1e10, 1e12])
    def test_shift_identity_at_large_shift(self, c, tmp_path):
        """At alpha = 1 + c the expansion's terms, near c^2, cancel to a lhs near c,
        so the identity holds to the roundoff of the terms, not of lhs."""
        a, b = -c * identity(2, 1), c * identity(2, 1)
        rep = hermitian_trace_bounds(a, b)
        assert rep.value == pytest.approx(-2 * c * c, rel=1e-15) and rep.satisfied
        fa, fb = tmp_path / "a.json", tmp_path / "b.json"
        write_tensor(a, fa)
        write_tensor(b, fb)
        assert main(["bounds", "hermitian", str(fa), str(fb)]) == 0
        rng = np.random.default_rng(212)
        for _ in range(20):
            n, p = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            h1, h2 = random_hermitian(rng, n, p), random_hermitian(rng, n, p)
            assert hermitian_trace_bounds(c * h1 - 3 * c * identity(n, p), c * h2).satisfied

    def test_shift_identity_catches_a_wrong_slice_weight(self, monkeypatch):
        """The shifted trace with one slice counted once too often breaks the identity
        by about c^2 of terms near c^2, which the relative check still catches."""
        rng = np.random.default_rng(213)
        c = 1e8
        a = c * random_hermitian(rng, 3, 4) - 3 * c * identity(3, 4)
        b = c * random_hermitian(rng, 3, 4)
        calls = []

        def shifted_with_wrong_weight(*stacks, p):
            calls.append(p)
            per_slice = np.einsum("kij,kji->k", stacks[0], stacks[1]).real
            weights = _slice_weights(len(per_slice), p)
            weights[-1] += len(calls) == 2  # the second call is the shifted trace
            return float(per_slice @ weights)

        monkeypatch.setattr(bounds, "_stack_trace", shifted_with_wrong_weight)
        with pytest.raises(NumericError, match="shift identity violated"):
            hermitian_trace_bounds(a, b)
        assert len(calls) == 2

    def test_rejects_non_hermitian(self, a3, a2):
        with pytest.raises(PreconditionError):
            hermitian_trace_bounds(a3, a2)


class TestSandwichBounds:
    def test_identity_pair(self):
        rep = sandwich_bounds(identity(2, 2), identity(2, 2))
        assert rep.value == pytest.approx(4.0)
        assert rep.lower == pytest.approx(4.0)
        assert rep.upper == pytest.approx(16.0)
        assert rep.satisfied

    def test_example_with_identity(self, a2):
        rep = sandwich_bounds(a2, identity(2, 2))
        assert rep.value == pytest.approx(40.0, abs=1e-8)
        assert rep.lower == pytest.approx(25.0, abs=1e-8)
        assert rep.upper == pytest.approx(100.0, abs=1e-8)
        assert rep.satisfied

    def test_random_pairs(self):
        rng = np.random.default_rng(223)
        for _ in range(25):
            n = int(rng.integers(1, 4))
            p = int(rng.integers(1, 4))
            rep = sandwich_bounds(random_psd_tensor(rng, n, p), random_psd_tensor(rng, n, p))
            assert rep.satisfied

    def test_rejects_non_psd(self):
        with pytest.raises(PreconditionError):
            sandwich_bounds(-1.0 * identity(2, 2), identity(2, 2))


class TestExtremalRatioBounds:
    def test_example(self, a2, b2):
        rep = extremal_ratio_bounds(a2, b2)
        tr_b = trace(b2)
        assert tr_b == pytest.approx(4.0)
        assert rep.value * tr_b == pytest.approx(10.0, abs=1e-9)
        assert rep.lower * tr_b == pytest.approx(0.0, abs=1e-8)
        assert rep.upper * tr_b == pytest.approx(4 * (4 + SQRT2), abs=1e-6)
        assert rep.satisfied

    def test_identity_a(self):
        rng = np.random.default_rng(227)
        b = random_psd_tensor(rng, 3, 2)
        rep = extremal_ratio_bounds(identity(3, 2), b)
        assert rep.lower == pytest.approx(1.0)
        assert rep.upper == pytest.approx(1.0)
        assert rep.value == pytest.approx(1.0, abs=1e-9)

    def test_witness_achieves_extremes(self, a2):
        lam = t_eigenvalues(a2).values
        for which, target in (("max", float(np.max(lam))), ("min", float(np.min(lam)))):
            b = extremal_ratio_witness(a2, which)
            assert is_psd(b).ok
            ratio = trace(tprod_fft(a2, b)) / trace(b)
            assert ratio == pytest.approx(target, abs=1e-6)

    def test_witness_random_hermitian(self):
        rng = np.random.default_rng(229)
        for _ in range(10):
            a = random_hermitian(rng, 3, 3)
            lam = np.real(t_eigenvalues(a).values)
            for which, target in (("max", lam.max()), ("min", lam.min())):
                b = extremal_ratio_witness(a, which)
                ratio = trace(tprod_fft(a, b)) / trace(b)
                assert ratio == pytest.approx(float(target), abs=1e-6)

    def test_containment_random(self):
        rng = np.random.default_rng(233)
        a = random_hermitian(rng, 3, 2)
        for _ in range(50):
            b = random_psd_tensor(rng, 3, 2)
            assert extremal_ratio_bounds(a, b).satisfied

    def test_rejects_zero_trace(self, a2):
        with pytest.raises(DomainError, match="trace"):
            extremal_ratio_bounds(a2, Tensor3.zeros(2, 2, 2))


class TestSymmetricRelaxBounds:
    def test_identity_pair(self):
        rep = symmetric_relax_bounds(identity(2, 2), identity(2, 2))
        assert rep.lower == pytest.approx(4.0)
        assert rep.upper == pytest.approx(4.0)
        assert rep.value == pytest.approx(4.0)
        assert rep.satisfied

    def test_symmetrization_identity(self):
        rng = np.random.default_rng(239)
        for _ in range(10):
            a = random_tensor(rng, 3, 3, 2)  # generally non-symmetric
            b = random_hermitian(rng, 3, 2)  # symmetric, possibly indefinite
            rep = symmetric_relax_bounds(a, b)
            a_bar = (a + conj_transpose(a)) * 0.5
            assert trace(tprod_fft(a, b)) == pytest.approx(
                trace(tprod_fft(a_bar, b)), rel=1e-9, abs=1e-9
            )
            assert isinstance(rep.satisfied, bool)

    def test_recorded_outcomes_logged(self):
        # containment is recorded, not asserted: tally outcomes over a sweep
        rng = np.random.default_rng(241)
        outcomes = [
            symmetric_relax_bounds(
                random_tensor(rng, 2, 2, 2), random_hermitian(rng, 2, 2)
            ).satisfied
            for _ in range(50)
        ]
        print(f"relaxed-symmetric containment: {sum(outcomes)}/50 satisfied")
        assert len(outcomes) == 50

    def test_rejects_non_symmetric_b(self, a2, a3):
        with pytest.raises(PreconditionError):
            symmetric_relax_bounds(a2, a3)


class TestKyFanSum:
    def test_full_isometry_equals_trace(self):
        rng = np.random.default_rng(251)
        for _ in range(5):
            h = random_hermitian(rng, 4, 3)
            res = ky_fan_sum(h, 4, which="max")
            assert res.value == pytest.approx(trace(h), rel=1e-9, abs=1e-9)

    def test_identity_example(self):
        h = identity(3, 2)
        assert ky_fan_sum(h, 2, "max").value == pytest.approx(4.0)
        assert ky_fan_sum(h, 2, "min").value == pytest.approx(4.0)

    def test_example_top_one(self, a2):
        res = ky_fan_sum(a2, 1, "max")
        assert res.value == pytest.approx(6 + SQRT2, abs=1e-8)
        res_min = ky_fan_sum(a2, 1, "min")
        assert res_min.value == pytest.approx((4 - SQRT2) + 0.0, abs=1e-8)

    def test_optimizer_is_partial_isometry(self, a2):
        res = ky_fan_sum(a2, 1, "max")
        u = res.optimizer
        gram = tprod_fft(u, conj_transpose(u))
        assert frobenius_norm(gram - identity(1, 2)) <= 1e-9
        achieved = trace(tprod_fft(tprod_fft(u, a2), conj_transpose(u)))
        assert achieved == pytest.approx(res.value, abs=1e-8)

    def test_random_isometries_never_exceed(self):
        rng = np.random.default_rng(257)
        h = random_hermitian(rng, 3, 2)
        for k in (1, 2, 3):
            hi = ky_fan_sum(h, k, "max").value
            lo = ky_fan_sum(h, k, "min").value
            for _ in range(20):
                u = random_partial_isometry(rng, k, 3, 2)
                val = float(np.real(trace(tprod_fft(tprod_fft(u, h), conj_transpose(u)))))
                assert val <= hi + 1e-8
                assert val >= lo - 1e-8

    def test_monotone_in_k_for_psd(self):
        # top-k sums are monotone in k when no eigenvalue is negative
        rng = np.random.default_rng(263)
        h = random_psd_tensor(rng, 4, 2)
        maxima = [ky_fan_sum(h, k, "max").value for k in range(1, 5)]
        minima = [ky_fan_sum(h, k, "min").value for k in range(1, 5)]
        assert np.all(np.diff(maxima) >= -1e-10)
        assert np.all(np.diff(minima) >= -1e-10)  # adds non-negative values
        assert maxima[-1] == pytest.approx(trace(h), rel=1e-9)

    @pytest.mark.parametrize("c", [1e8, 1e10, 1e12])
    def test_attained_value_when_the_sum_cancels(self, c):
        """Slice 1 holds diag(c, -c, -2c) in a random orthonormal basis, so every Fourier
        slice does and the top-2 sum c - c cancels to roundoff of the eigenvalues' size c."""
        q, _ = np.linalg.qr(np.random.default_rng(264).standard_normal((3, 3)))
        data = np.zeros((3, 3, 4))
        data[:, :, 0] = (q * [c, -c, -2 * c]) @ q.T
        h = 0.5 * (Tensor3(data) + conj_transpose(Tensor3(data)))
        assert abs(ky_fan_sum(h, 2, "max").value) <= 1e-13 * c
        assert ky_fan_sum(h, 2, "min").value == pytest.approx(-12 * c, rel=1e-13)

    def test_k_out_of_range(self, a2):
        with pytest.raises(DomainError):
            ky_fan_sum(a2, 0)
        with pytest.raises(DomainError):
            ky_fan_sum(a2, 3)

    def test_rejects_non_hermitian(self, a3):
        with pytest.raises(PreconditionError):
            ky_fan_sum(a3, 1)
