import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tspectral import (
    DomainError,
    NumericError,
    PreconditionError,
    SingularityError,
    Tensor3,
    TSpectralError,
    conj_transpose,
    dist_bures_wasserstein,
    dist_frobenius,
    dist_log_euclidean,
    frobenius_norm,
    geodesic,
    geodesic_trace_profile,
    identity,
    is_hermitian,
    is_psd,
    random_psd,
    tprod_fft,
    trace,
    write_tensor,
)
from tspectral import spectral
from tspectral.cli import main
from tspectral.spectral import PD_RTOL, PSD_RTOL, _pd_certified, _stack_eig
from tspectral.transform import _to_stack
from conftest import (
    certificate_shift,
    every_slice,
    random_pd_tensor,
    random_psd_tensor,
    random_tensor,
)
from helpers_oracles import (
    bw_bcirc_mpmath,
    geodesic_bcirc_oracle,
    geodesic_traces_mpmath,
    matrix_bures_wasserstein,
    oracle_bcirc,
    random_spd_matrix,
)


class TestFrobeniusDistance:
    def test_self_distance_zero(self, a2):
        assert dist_frobenius(a2, a2) == 0.0

    def test_identity_to_zero(self):
        assert dist_frobenius(identity(2, 2), Tensor3.zeros(2, 2, 2)) == pytest.approx(2.0)

    def test_matches_elementwise_oracle(self, a3, b3):
        diff = a3.data - b3.data
        expected = math.sqrt(2) * np.linalg.norm(diff.ravel())
        assert dist_frobenius(a3, b3) == pytest.approx(expected, rel=1e-12)

    def test_slice1_convention_rescales(self, a3, b3):
        full = dist_frobenius(a3, b3)
        assert dist_frobenius(a3, b3, convention="slice1") == pytest.approx(
            full / math.sqrt(2), rel=1e-12
        )

    def test_metric_axioms_sampled(self):
        rng = np.random.default_rng(269)
        for _ in range(10):
            a = random_psd_tensor(rng, 2, 3)
            b = random_psd_tensor(rng, 2, 3)
            c = random_psd_tensor(rng, 2, 3)
            assert dist_frobenius(a, b) == pytest.approx(dist_frobenius(b, a), rel=1e-12)
            assert dist_frobenius(a, c) <= dist_frobenius(a, b) + dist_frobenius(b, c) + 1e-12

    def test_distance_of_huge_tensors_is_finite(self):
        r = random_tensor(np.random.default_rng(277), 3, 3, 4)
        assert math.isclose(
            dist_frobenius(1e200 * r, -1e200 * r), 2e200 * frobenius_norm(r), rel_tol=1e-15
        )


# |d(A, B) - d_exact| over u * sqrt(tr A + tr B), u the unit roundoff: the factors R_A, R_B
# (R R^H = A) carry LAPACK backward errors of a few n p u times ||R||_F = sqrt(tr A), with room.
NEAR_PAIR_ROUNDOFFS = 64


def _exact_hermitian_psd(rng, n, p, complex_kind):
    """G = M * M^H of a random M, then (G + G^H) / 2: Hermitian entry for entry."""
    m = random_tensor(rng, n, n, p, complex_kind)
    g = tprod_fft(m, conj_transpose(m))
    return (g + conj_transpose(g)) * 0.5


# d(S, S) over eps * sqrt(tr S) for a singular S: 0.42 was the worst of 20 rank-2 4 x 4 x 1024
# tensors, where the square roots of S's roundoff null eigenvalues gave up to 2.3e5.
SELF_DISTANCE_ROUNDOFFS = 4


class TestBuresWasserstein:
    def test_self_distance(self):
        rng = np.random.default_rng(271)
        a = random_psd_tensor(rng, 3, 2)
        assert dist_bures_wasserstein(a, a) <= 1e-6

    def test_scalar_closed_form(self):
        for c, d in ((2.0, 3.0), (0.25, 4.0), (1.0, 1.0), (0.0, 2.0)):
            n, p = 3, 4
            got = dist_bures_wasserstein(c * identity(n, p), d * identity(n, p))
            expected = abs(math.sqrt(c) - math.sqrt(d)) * math.sqrt(n * p)
            assert got == pytest.approx(expected, abs=1e-9)

    def test_p1_matches_matrix_oracle(self):
        rng = np.random.default_rng(277)
        for _ in range(10):
            x = random_spd_matrix(rng, 4)
            y = random_spd_matrix(rng, 4)
            got = dist_bures_wasserstein(Tensor3(x[:, :, None]), Tensor3(y[:, :, None]))
            assert got == pytest.approx(matrix_bures_wasserstein(x, y), abs=1e-9)

    def test_metric_axioms_sampled(self):
        rng = np.random.default_rng(281)
        for _ in range(20):
            n = int(rng.integers(1, 4))
            p = int(rng.integers(1, 4))
            a = random_psd_tensor(rng, n, p)
            b = random_psd_tensor(rng, n, p)
            c = random_psd_tensor(rng, n, p)
            dab = dist_bures_wasserstein(a, b)
            assert dab >= 0.0
            assert abs(dab - dist_bures_wasserstein(b, a)) <= 1e-8
            assert dist_bures_wasserstein(a, c) <= dab + dist_bures_wasserstein(b, c) + 1e-8

    def test_distinguishes_distinct(self):
        rng = np.random.default_rng(283)
        a = random_psd_tensor(rng, 3, 2)
        b = random_psd_tensor(rng, 3, 2)
        assert frobenius_norm(a - b) > 1e-3
        assert dist_bures_wasserstein(a, b) > 1e-6

    def test_slice1_convention(self):
        rng = np.random.default_rng(293)
        a = random_psd_tensor(rng, 2, 3)
        b = random_psd_tensor(rng, 2, 3)
        full = dist_bures_wasserstein(a, b)
        scaled = dist_bures_wasserstein(a, b, convention="slice1")
        assert scaled == pytest.approx(full / math.sqrt(3), rel=1e-10)

    def test_rejects_indefinite(self, a2):
        with pytest.raises(DomainError):
            dist_bures_wasserstein(a2, -1.0 * identity(2, 2))

    def test_rejects_non_hermitian(self, a3, b3):
        with pytest.raises(PreconditionError):
            dist_bures_wasserstein(a3, b3)

    def test_unknown_convention(self, a2, b2):
        with pytest.raises(ValueError):
            dist_bures_wasserstein(a2, b2, convention="other")

    @pytest.mark.parametrize("kind", ["real", "complex"])
    @pytest.mark.parametrize("n, p", [(2, 3), (3, 2), (2, 4)])
    @pytest.mark.parametrize("eps", [0.0, 1e-8, 1e-6, 1e-4])
    def test_near_pair_matches_mpmath(self, eps, n, p, kind):
        """d(A, A + eps E) keeps its digits as B nears A, against the trace formula
        on bcirc at 50 digits, which in float64 cancels to no correct digit."""
        pytest.importorskip("mpmath")
        rng = np.random.default_rng(379)
        a, e = (_exact_hermitian_psd(rng, n, p, kind == "complex") for _ in range(2))
        b = a + eps * e
        want = bw_bcirc_mpmath(a.data, b.data)
        unit = np.finfo(np.float64).eps / 2
        tol = NEAR_PAIR_ROUNDOFFS * unit * math.sqrt(np.real(trace(a) + trace(b)))
        assert abs(dist_bures_wasserstein(a, b) - want) <= tol

    def test_self_distance_at_large_scale(self):
        """The factors' roundoff grows with sqrt(tr cA); d(cA, cA) at c = 1e8
        stays at that roundoff."""
        c = 1e8
        for seed in range(50):
            a = c * random_psd(4, 8, seed)
            assert dist_bures_wasserstein(a, a) <= 1e-6 * math.sqrt(trace(a))

    def test_self_distance_of_a_singular_tensor(self):
        """A rank-2 4 x 4 x 1024 tensor S does not factor, so its root comes from eigh, whose
        null eigenvalues are set to 0: d(S, S) stays at roundoff, where their square roots,
        about sqrt(eps ||S||), would enter R_S."""
        for seed in range(20):
            m = Tensor3(np.random.default_rng(seed).standard_normal((4, 2, 1024)))
            s = tprod_fft(m, conj_transpose(m))
            s = 0.5 * (s + conj_transpose(s))
            tol = SELF_DISTANCE_ROUNDOFFS * np.finfo(float).eps * math.sqrt(trace(s))
            assert dist_bures_wasserstein(s, s) <= tol

    @pytest.mark.parametrize("name", ["A", "B"])
    def test_operand_beyond_the_psd_margin_raises_the_verdict_text(self, name, tmp_path, capsys):
        """An operand whose min eigenvalue is -1.01 PSD_RTOL lambda_max does not factor, and
        its eigenvalue verdict raises DomainError with the verdict's text; the CLI exits 2."""
        bad, good = every_slice(np.diag([1.0, 0.5, -1.01 * PSD_RTOL]), 3), random_psd(3, 3, 0)
        a, b = (bad, good) if name == "A" else (good, bad)
        text = f"dist_bures_wasserstein requires {name} PSD; min eigenvalue -1.010e-09"
        with pytest.raises(DomainError) as caught:
            dist_bures_wasserstein(a, b)
        assert str(caught.value) == text
        fa, fb = tmp_path / "a.json", tmp_path / "b.json"
        write_tensor(a, fa)
        write_tensor(b, fb)
        assert main(["dist", "--metric", "bw", str(fa), str(fb)]) == 2
        assert text in capsys.readouterr().err

    @pytest.mark.parametrize("c", [1e-12, 1e12])
    def test_scale_covariance(self, c):
        for seed in range(5):
            a, b = random_psd(4, 8, seed), random_psd(4, 8, 100 + seed)
            want = math.sqrt(c) * dist_bures_wasserstein(a, b)
            assert dist_bures_wasserstein(c * a, c * b) == pytest.approx(want, rel=1e-12)


class TestLogEuclidean:
    def test_self_distance(self):
        rng = np.random.default_rng(307)
        a = random_pd_tensor(rng, 3, 2)
        assert dist_log_euclidean(a, a) == 0.0

    def test_scalar_closed_form(self):
        for c, d in ((2.0, 3.0), (0.5, 8.0)):
            n, p = 2, 3
            got = dist_log_euclidean(c * identity(n, p), d * identity(n, p))
            expected = abs(math.log(c) - math.log(d)) * math.sqrt(n * p)
            assert got == pytest.approx(expected, abs=1e-9)

    def test_symmetry(self):
        rng = np.random.default_rng(311)
        a = random_pd_tensor(rng, 3, 3)
        b = random_pd_tensor(rng, 3, 3)
        assert dist_log_euclidean(a, b) == pytest.approx(dist_log_euclidean(b, a), rel=1e-12)

    def test_triangle_inequality_sampled(self):
        rng = np.random.default_rng(313)
        for _ in range(10):
            a = random_pd_tensor(rng, 2, 2)
            b = random_pd_tensor(rng, 2, 2)
            c = random_pd_tensor(rng, 2, 2)
            assert dist_log_euclidean(a, c) <= (
                dist_log_euclidean(a, b) + dist_log_euclidean(b, c) + 1e-8
            )

    def test_rejects_singular(self, a2):
        # a2 has a zero eigenvalue
        with pytest.raises(SingularityError):
            dist_log_euclidean(a2, identity(2, 2))


class TestGeodesic:
    def test_endpoints(self):
        rng = np.random.default_rng(317)
        a = random_pd_tensor(rng, 3, 2)
        b = random_psd_tensor(rng, 3, 2)
        g0 = geodesic(a, b, 0.0)
        g1 = geodesic(a, b, 1.0)
        assert frobenius_norm(g0 - a) / frobenius_norm(a) <= 1e-8
        assert frobenius_norm(g1 - b) / frobenius_norm(b) <= 1e-8

    def test_constant_when_equal(self):
        rng = np.random.default_rng(331)
        a = random_pd_tensor(rng, 2, 3)
        for t in (0.25, 0.5, 0.75):
            g = geodesic(a, a, t)
            assert frobenius_norm(g - a) / frobenius_norm(a) <= 1e-9

    def test_scalar_closed_form(self):
        c, d = 2.0, 5.0
        for t in (0.0, 0.3, 0.5, 1.0):
            g = geodesic(c * identity(2, 2), d * identity(2, 2), t)
            expected = c ** (1 - t) * d**t * identity(2, 2)
            assert g.allclose(expected, rtol=1e-9, atol=1e-9)

    def test_result_is_psd_hermitian(self):
        rng = np.random.default_rng(337)
        a = random_pd_tensor(rng, 3, 2)
        b = random_psd_tensor(rng, 3, 2)
        g = geodesic(a, b, 0.6)
        assert is_hermitian(g).ok
        assert is_psd(g).ok

    def test_parameter_domain(self):
        rng = np.random.default_rng(347)
        a = random_pd_tensor(rng, 2, 2)
        with pytest.raises(DomainError):
            geodesic(a, a, -0.1)
        with pytest.raises(DomainError):
            geodesic(a, a, 1.1)

    def test_singular_start_rejected_then_regularized(self, a2):
        b = identity(2, 2)
        with pytest.raises(SingularityError):
            geodesic(a2, b, 0.5)  # a2 has a zero eigenvalue
        g = geodesic(a2, b, 0.5, regularize=1e-6)
        assert is_psd(g).ok

    def test_midpoint_consistency_reported(self):
        # additivity along the path is recorded, not hard-asserted
        rng = np.random.default_rng(349)
        worst = 0.0
        for _ in range(5):
            a = random_pd_tensor(rng, 2, 2)
            b = random_pd_tensor(rng, 2, 2)
            mid = geodesic(a, b, 0.5)
            gap = abs(
                dist_bures_wasserstein(a, mid)
                + dist_bures_wasserstein(mid, b)
                - dist_bures_wasserstein(a, b)
            )
            worst = max(worst, gap)
        print(f"geodesic midpoint additivity gap (max over 5 pairs): {worst:.3e}")


class TestGeodesicProfile:
    def test_constant_profile(self):
        rng = np.random.default_rng(353)
        a = random_pd_tensor(rng, 2, 2)
        prof = geodesic_trace_profile(a, a, 7)
        np.testing.assert_allclose(prof.traces, prof.traces[0] * np.ones(7), rtol=1e-9)

    def test_endpoints_match_traces(self):
        rng = np.random.default_rng(359)
        a = random_pd_tensor(rng, 3, 2)
        b = random_pd_tensor(rng, 3, 2)
        prof = geodesic_trace_profile(a, b, 5)
        assert prof.ts[0] == 0.0 and prof.ts[-1] == 1.0
        assert prof.traces[0] == pytest.approx(trace(a), rel=1e-6)
        assert prof.traces[-1] == pytest.approx(trace(b), rel=1e-6)

    def test_scalar_log_linear(self):
        c, d = 2.0, 8.0
        n, p = 2, 2
        prof = geodesic_trace_profile(c * identity(n, p), d * identity(n, p), 9)
        expected = n * p * c ** (1 - prof.ts) * d**prof.ts
        np.testing.assert_allclose(prof.traces, expected, rtol=1e-9)
        # log of the trace is linear in t for commuting scalar tensors
        logs = np.log(prof.traces)
        np.testing.assert_allclose(np.diff(logs), np.diff(logs)[0], rtol=1e-9)

    def test_keep_tensors(self):
        rng = np.random.default_rng(367)
        a = random_pd_tensor(rng, 2, 2)
        prof = geodesic_trace_profile(a, a, 3, keep_tensors=True)
        assert prof.tensors is not None and len(prof.tensors) == 3
        assert geodesic_trace_profile(a, a, 3).tensors is None

    def test_sample_count_validated(self):
        rng = np.random.default_rng(373)
        a = random_pd_tensor(rng, 2, 2)
        with pytest.raises(DomainError):
            geodesic_trace_profile(a, a, 1)


def _slices(t):
    return [t.data[:, :, k] for k in range(t.p)]


def _psd_with_fourier_ranks(rng, n, p, complex_kind, ranks):
    """M * M^H where Fourier slice k of M keeps only its first ranks[k] columns.

    For real kind, ranks[k] must equal ranks[p - k] so that M stays real.
    """
    mhat = np.fft.fft(random_tensor(rng, n, n, p, complex_kind).data, axis=2)
    for k, r in enumerate(ranks):
        mhat[:, r:, k] = 0.0
    data = np.fft.ifft(np.einsum("ijk,ljk->ilk", mhat, mhat.conj()), axis=2)
    return Tensor3(data if complex_kind else data.real)


def _singular_ranks(n, p):
    """Fourier-slice ranks of a singular B: n - 1 (at least 1) on slice 0 and
    n // 2 on the others; at n = p = 1 that would be full rank, so B = 0."""
    ranks = [max(n - 1, 1) if k == 0 else n // 2 for k in range(p)]
    return [0] if ranks == [n] else ranks


def _geodesic_pair(seed, n, p, complex_kind, singular_b):
    rng = np.random.default_rng(seed)
    a = _psd_with_fourier_ranks(rng, n, p, complex_kind, [n] * p) + 0.5 * identity(n, p)
    if singular_b:
        return a, _psd_with_fourier_ranks(rng, n, p, complex_kind, _singular_ranks(n, p))
    b = _psd_with_fourier_ranks(rng, n, p, complex_kind, [n] * p) + 0.1 * identity(n, p)
    return a, b


GEODESIC_TS = (0.0, 0.1, 0.5, 0.9, 1.0)


@pytest.mark.parametrize("singular_b", [False, True], ids=["pd_b", "singular_b"])
@pytest.mark.parametrize("complex_kind", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("p", [1, 2, 5])
@pytest.mark.parametrize("n", [1, 3])
class TestGeodesicDenseOracle:
    def test_geodesic_matches_oracle(self, n, p, complex_kind, singular_b):
        a, b = _geodesic_pair(379, n, p, complex_kind, singular_b)
        for t in GEODESIC_TS:
            g = geodesic(a, b, t)
            want = geodesic_bcirc_oracle(_slices(a), _slices(b), t)
            err = np.linalg.norm(oracle_bcirc(_slices(g)) - want)
            assert err <= 1e-9 * np.linalg.norm(want), f"t={t}: |G - oracle| = {err:.3e}"
            if not complex_kind:
                assert g.kind == "real"

    def test_profile_matches_oracle(self, n, p, complex_kind, singular_b):
        a, b = _geodesic_pair(383, n, p, complex_kind, singular_b)
        prof = geodesic_trace_profile(a, b, 11)
        want = [
            np.trace(geodesic_bcirc_oracle(_slices(a), _slices(b), t)).real for t in prof.ts
        ]
        np.testing.assert_allclose(prof.traces, want, rtol=1e-9, atol=0.0)

    def test_kept_tensors_are_geodesic_points(self, n, p, complex_kind, singular_b):
        a, b = _geodesic_pair(389, n, p, complex_kind, singular_b)
        prof = geodesic_trace_profile(a, b, 4, keep_tensors=True)
        for t, tr, g in zip(prof.ts, prof.traces, prof.tensors):
            expected = geodesic(a, b, float(t))
            assert g.kind == expected.kind
            np.testing.assert_array_equal(g.data, expected.data)
            assert float(np.real(trace(g))) == pytest.approx(tr, rel=1e-12, abs=0.0)


def test_singular_b_profile_at_small_t():
    """With rank-deficient B, M = A^(-1/2) B A^(-1/2) has eigenvalues that are
    zero up to roundoff; raised to a small power t they must stay zero."""
    n, p = 8, 8
    rng = np.random.default_rng(397)
    a = _psd_with_fourier_ranks(rng, n, p, False, [n] * p) + 0.5 * identity(n, p)
    b = _psd_with_fourier_ranks(rng, n, p, False, [n // 2] * p)
    prof = geodesic_trace_profile(a, b, 11)
    assert prof.ts[1] == pytest.approx(0.1)
    want = np.trace(geodesic_bcirc_oracle(_slices(a), _slices(b), prof.ts[1])).real
    assert prof.traces[1] == pytest.approx(want, rel=1e-9)
    assert prof.traces[0] == pytest.approx(trace(a), rel=1e-10)
    assert prof.traces[-1] == pytest.approx(trace(b), rel=1e-10)
    for c in (1e-6, 1e6):
        scaled = geodesic_trace_profile(c * a, c * b, 11)
        np.testing.assert_allclose(scaled.traces, c * prof.traces, rtol=1e-10, atol=0.0)


@pytest.mark.parametrize("p", [1, 4])
@pytest.mark.parametrize("cond", [1e8, 1e10], ids=["cond1e8", "cond1e10"])
def test_null_space_at_ill_conditioned_a(cond, p):
    """A = Q diag(a) Q^T, B = Q diag(b) Q^T with a shared orthogonal Q, so
    tr G(t) = p * sum_{b_i > 0} a_i^(1-t) b_i^t exactly.  B is zero on A's
    three smallest eigenvalues: A^(-1/2) amplifies the roundoff there to
    about eps * lambda_max(B) / lambda_min(A), far above eps * lambda_max(M),
    and those eigenvalues of M must still count as B's null space."""
    n = 6
    a = np.logspace(0.0, -math.log10(cond), n)
    for seed in range(3):
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        b = np.concatenate([rng.uniform(0.5, 2.0, 3), np.zeros(3)])
        ta, tb = np.zeros((n, n, p)), np.zeros((n, n, p))
        ta[:, :, 0], tb[:, :, 0] = (q * a) @ q.T, (q * b) @ q.T  # every Fourier slice
        ta, tb = Tensor3(ta), Tensor3(tb)
        ta, tb = 0.5 * (ta + conj_transpose(ta)), 0.5 * (tb + conj_transpose(tb))
        prof = geodesic_trace_profile(ta, tb, 11)
        support = b > 0
        want = [p * np.sum(a[support] ** (1 - t) * b[support] ** t) for t in prof.ts[1:]]
        np.testing.assert_allclose(prof.traces[1:], want, rtol=1e-9, atol=0.0)


@pytest.mark.parametrize("p", [1, 3])
@pytest.mark.parametrize("rotated", [False, True], ids=["diagonal", "rotated"])
def test_small_b_eigenvalue_at_ill_conditioned_a_is_kept(rotated, p):
    """A = diag(1, 1e-10, 1) and positive definite B = diag(1, 1e-6, 1e-7),
    in a shared basis: M = diag(1, 1e4, 1e-7).  B's 1e-7 lies on an
    eigenvector of A with eigenvalue 1, where forming M is accurate, so it
    must not be taken for null space: tr G(0.1) / p is about 1.1995, not 1.
    In the rotated basis the eigensolves of A and M limit the accuracy to
    about 1e-7."""
    n = 3
    a = np.array([1.0, 1e-10, 1.0])
    b = np.array([1.0, 1e-6, 1e-7])
    q = np.eye(n)
    if rotated:
        q, _ = np.linalg.qr(np.random.default_rng(409).standard_normal((n, n)))
    ta, tb = np.zeros((n, n, p)), np.zeros((n, n, p))
    ta[:, :, 0], tb[:, :, 0] = (q * a) @ q.T, (q * b) @ q.T  # every Fourier slice
    ta, tb = Tensor3(ta), Tensor3(tb)
    ta, tb = 0.5 * (ta + conj_transpose(ta)), 0.5 * (tb + conj_transpose(tb))
    prof = geodesic_trace_profile(ta, tb, 11)
    want = [p * np.sum(a ** (1 - t) * b**t) for t in prof.ts]
    np.testing.assert_allclose(prof.traces, want, rtol=1e-6 if rotated else 1e-12, atol=0.0)


def _roundoff_negative_b_pair():
    """A = diag(1, 1e-6) and B = diag(1, -9e-10), 2 x 2 x 1: is_psd accepts B, and
    M = diag(1, -9e-4) has B's inertia, its negative eigenvalue on B's null position."""
    a, b = np.zeros((2, 2, 1)), np.zeros((2, 2, 1))
    a[:, :, 0], b[:, :, 0] = np.diag([1.0, 1e-6]), np.diag([1.0, -9e-10])
    return Tensor3(a), Tensor3(b)


def test_b_that_is_psd_accepts_has_a_geodesic():
    a, b = _roundoff_negative_b_pair()
    assert is_psd(b)
    prof = geodesic_trace_profile(a, b, 5)
    want = [np.trace(geodesic_bcirc_oracle(_slices(a), [np.diag([1.0, 0.0])], t)).real
            for t in prof.ts]
    np.testing.assert_allclose(prof.traces, want, rtol=1e-15, atol=0.0)
    np.testing.assert_allclose(prof.traces, [1.0 + 1e-6, 1.0, 1.0, 1.0, 1.0], rtol=1e-15, atol=0.0)


def test_cli_geodesic_of_b_that_is_psd_accepts(tmp_path, capsys):
    a, b = _roundoff_negative_b_pair()
    fa, fb, out = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "profile.csv"
    write_tensor(a, fa)
    write_tensor(b, fb)
    assert main(["verify", str(fb), "--checks", "hermitian,psd"]) == 0
    assert main(["geodesic", str(fa), str(fb), "--samples", "3", "-o", str(out)]) == 0
    assert "wrote 3 samples" in capsys.readouterr().out
    assert out.read_text(encoding="utf-8").splitlines()[-1] == "1,1"


# Traces of B's geodesic against its clamp's.  Roundoff of forming M = L^(-1) B L^(-H) grows like
# eps * cond(A), 2.2e-4 at cond(A) = 1e12 (6.0e-5 at worst over 2000 draws); B's margin eigenvalue,
# zeroed in M alone, would leave up to PSD_RTOL * cond(A) in G(1), O(1) from cond(A) = 1e9.
CLAMPED_B_RTOL = 1e-3


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(n=st.integers(2, 4), p=st.sampled_from([1, 2, 3]), complex_kind=st.booleans(),
       log_cond=st.floats(2.0, 12.0), log_tilt=st.floats(-6.0, 0.0),
       neg=st.floats(1e-3, 1.0), seed=st.integers(0, 2**32 - 1))
def test_every_b_that_is_psd_accepts_has_a_geodesic(n, p, complex_kind, log_cond, log_tilt,
                                                     neg, seed):
    """B has one eigenvalue in [-PSD_RTOL * lambda_max(B), -1e-3 * PSD_RTOL * lambda_max(B)],
    far from roundoff, on an eigenvector tilted by 10^log_tilt from A's smallest, where
    A^(-1/2) amplifies it most; its traces match the mpmath oracle's on B's clamp.  Every
    Fourier slice is the first one."""
    rng = np.random.default_rng(seed)

    def draw():
        return rng.standard_normal((n, n)) + (1j * rng.standard_normal((n, n)) if complex_kind
                                              else 0.0)

    qa, _ = np.linalg.qr(draw())
    qb, _ = np.linalg.qr(qa + 10.0**log_tilt * draw())
    la = np.logspace(0.0, -log_cond, n)
    lb = np.append(rng.uniform(0.5, 1.0, n - 1), 0.0)
    lb[-1] = -neg * PSD_RTOL * lb.max()
    ta, tb = (np.zeros((n, n, p), qa.dtype) for _ in range(2))
    ta[:, :, 0], tb[:, :, 0] = (qa * la) @ qa.conj().T, (qb * lb) @ qb.conj().T
    a, b = (0.5 * (t + conj_transpose(t)) for t in (Tensor3(ta), Tensor3(tb)))
    if not is_psd(b):
        return
    prof = geodesic_trace_profile(a, b, 5)
    assert np.all(np.isfinite(prof.traces))
    # B's negative eigenvalue is below -1e-12 of its largest, its others at least 0.5 of it
    want = geodesic_traces_mpmath(a.data, b.data, prof.ts, null_rtol=1e-8)
    np.testing.assert_allclose(prof.traces, want, rtol=CLAMPED_B_RTOL, atol=0.0)


def _profile_error_case(case, a2):
    """(A, B, keyword arguments) that make geodesic_trace_profile raise."""
    rng = np.random.default_rng(401)
    a = random_pd_tensor(rng, 2, 2)
    kwargs = {"num_samples": 5, "regularize": 0.0}
    if case == "singular A":
        return a2, identity(2, 2), kwargs  # a2 has a zero eigenvalue
    if case == "B not PSD":
        return a, -1.0 * identity(2, 2), kwargs
    if case == "negative regularize":
        return a, a, {**kwargs, "regularize": -1e-3}
    if case == "nan regularize":
        return a, a, {**kwargs, "regularize": math.nan}
    if case == "inf regularize":
        return a, a, {**kwargs, "regularize": math.inf}
    if case == "one sample":
        return a, a, {**kwargs, "num_samples": 1}
    if case == "non-Hermitian A":
        return random_tensor(rng, 2, 2, 2) + 3.0 * identity(2, 2), a, kwargs
    raise AssertionError(case)


@pytest.mark.parametrize(
    "case, error, fix",
    [
        ("singular A", SingularityError, {"regularize": 1e-6}),
        ("B not PSD", DomainError, None),
        ("negative regularize", DomainError, None),
        ("nan regularize", DomainError, None),
        ("inf regularize", DomainError, None),
        ("one sample", DomainError, None),
        ("non-Hermitian A", TSpectralError, None),
    ],
)
def test_profile_errors(case, error, fix, a2, tmp_path, capsys):
    a, b, kwargs = _profile_error_case(case, a2)
    with pytest.raises(error):
        geodesic_trace_profile(a, b, **kwargs)
    fa, fb, out = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "profile.csv"
    write_tensor(a, fa)
    write_tensor(b, fb)

    def cli(options):
        argv = ["geodesic", str(fa), str(fb), "--samples", str(options["num_samples"]),
                "--regularize", repr(options["regularize"]), "-o", str(out)]
        code = main(argv)
        capsys.readouterr()
        return code

    assert cli(kwargs) == 2
    if fix is not None:
        fixed = {**kwargs, **fix}
        prof = geodesic_trace_profile(a, b, **fixed)
        assert np.all(np.isfinite(prof.traces))
        assert cli(fixed) == 0


def test_a_that_does_not_factor_takes_its_root_from_eigh(monkeypatch, tmp_path, capsys):
    """With every Cholesky factorization failing, A's positive definiteness verdict and its
    root L = Q diag(sqrt(w)) come from one eigh: the profile matches the certified one to
    roundoff, and the CLI exits 0 with the same samples."""
    rng = np.random.default_rng(402)
    a, b = random_pd_tensor(rng, 3, 4), random_psd_tensor(rng, 3, 4)
    fa, fb, out = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "profile.csv"
    write_tensor(a, fa)
    write_tensor(b, fb)
    want = geodesic_trace_profile(a, b, 5).traces
    assert main(["geodesic", str(fa), str(fb), "--samples", "5", "-o", str(out)]) == 0
    want_csv = np.loadtxt(out, delimiter=",", skiprows=1)

    def failing(stack):
        raise np.linalg.LinAlgError("Matrix is not positive definite")

    monkeypatch.setattr(np.linalg, "cholesky", failing)
    np.testing.assert_allclose(geodesic_trace_profile(a, b, 5).traces, want, rtol=1e-12)
    out.unlink()
    assert main(["geodesic", str(fa), str(fb), "--samples", "5", "-o", str(out)]) == 0
    np.testing.assert_allclose(np.loadtxt(out, delimiter=",", skiprows=1), want_csv, rtol=1e-12)
    assert capsys.readouterr().err == ""


def test_overflowing_m_is_a_numeric_failure(tmp_path, capsys):
    """A = 1e-10 I passes the positive definiteness verdict and B = 1e300 I has a finite
    Fourier stack, but M = L^(-1) B L^(-H) = 1e310 I overflows: NumericError, CLI exit 1."""
    a, b = 1e-10 * identity(2, 1), 1e300 * identity(2, 1)
    with pytest.raises(NumericError, match=re.escape(
            "the result overflowed: L^(-1) B L^(-H) is not finite")):
        geodesic_trace_profile(a, b, 3)
    fa, fb, out = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "profile.csv"
    write_tensor(a, fa)
    write_tensor(b, fb)
    assert main(["geodesic", str(fa), str(fb), "--samples", "3", "-o", str(out)]) == 1
    assert "numeric failure: the result overflowed" in capsys.readouterr().err
    assert not out.exists()


# A's positive definiteness: a shifted Cholesky certificate decides it where it succeeds,
# the eigenvalue verdict everywhere else, with the verdict's text.
@pytest.mark.parametrize("lam_min", [PD_RTOL, 0.9 * PD_RTOL], ids=["at_rule", "below_rule"])
def test_a_at_or_below_the_pd_rule_raises_the_verdict_text(lam_min, tmp_path, capsys):
    """Every Fourier slice of A is diag(1, 0.5, lam_min), whose eigenvalues and Cholesky
    factorization are exact: lam_min <= PD_RTOL * lambda_max fails the rule."""
    a, b = every_slice(np.diag([1.0, 0.5, lam_min]), 3), random_psd(3, 3, 0)
    text = (f"geodesic requires A positive definite; min eigenvalue {lam_min:.3e} "
            "(pass regularize=eps to shift explicitly)")
    with pytest.raises(SingularityError) as caught:
        geodesic_trace_profile(a, b, 5)
    assert str(caught.value) == text
    fa, fb, out = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "profile.csv"
    write_tensor(a, fa)
    write_tensor(b, fb)
    assert main(["geodesic", str(fa), str(fb), "--samples", "5", "-o", str(out)]) == 2
    assert text in capsys.readouterr().err
    assert not out.exists()


def test_non_hermitian_a_is_refused_before_it_is_certified():
    """A's lower triangle is 2 I, which a Cholesky factorization (reading that triangle
    alone) would take as positive definite: the Hermitian check refuses A first."""
    a = every_slice(2.0 * np.eye(3) + np.triu(np.ones((3, 3)), 1), 2)
    text = (f"geodesic requires a Hermitian tensor A: residual {is_hermitian(a).residual:.3e} "
            "exceeds 1e-10 * ||A||_F")
    with pytest.raises(PreconditionError) as caught:
        geodesic(a, identity(3, 2), 0.5)
    assert str(caught.value) == text


def _hermitian_tensor(rng, n, p, complex_kind, lam_max, lam_min, last=None):
    """A tensor whose Fourier slice 0 has the spectrum lam_max ... lam_min (geometric), its
    smallest eigenvalue replaced by ``last`` if given, and whose other slices have spectra
    drawn in [lam_min, lam_max], in random bases; for a real tensor, slice p - k is the
    conjugate of slice k."""
    full = np.empty((p, n, n), complex)
    for k in range(p // 2 + 1 if not complex_kind else p):
        real = not complex_kind and k in (0, p - k)
        x = rng.standard_normal((n, n)) + (0.0 if real else 1j * rng.standard_normal((n, n)))
        q, _ = np.linalg.qr(x)
        lam = (np.geomspace(lam_max, lam_min, n) if k == 0
               else lam_max * (lam_min / lam_max) ** rng.uniform(0.0, 1.0, n))
        if k == 0 and last is not None:
            lam[-1] = last
        full[k] = 0.5 * ((q * lam) @ q.conj().T + ((q * lam) @ q.conj().T).conj().T)
        if not complex_kind:
            full[-k] = full[k].conj()
    data = np.moveaxis(np.fft.ifft(full, axis=0), 0, -1)
    return Tensor3(data if complex_kind else data.real)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 6), p=st.integers(1, 8), complex_kind=st.booleans(),
       log_ratio=st.floats(-14.0, 0.0), log_scale=st.floats(-150.0, 150.0),
       at_rule=st.none() | st.floats(-1e-3, 1e-3), seed=st.integers(0, 2**32 - 1))
def test_every_certified_a_passes_the_pd_verdict(n, p, complex_kind, log_ratio, log_scale,
                                                 at_rule, seed):
    """Wherever the certificate passes A's own Fourier stack, the eigvalsh verdict on that
    stack is positive definite; and where eigvalsh puts lambda_min above twice the
    certificate's shift, the certificate passes.  A's spectra span c to c * ratio, or with
    ``at_rule`` end at PD_RTOL * max(1, c) * (1 + at_rule), the rule's edge."""
    c = 10.0**log_scale
    ratio = 10.0**log_ratio if at_rule is None else min(
        1.0, PD_RTOL * max(1.0, c) * (1.0 + at_rule) / c)
    a = _hermitian_tensor(np.random.default_rng(seed), n, p, complex_kind, c, c * ratio)
    stack = _to_stack(a)
    w = _stack_eig(stack, p, a.kind, vectors=False)
    _, tau = certificate_shift(stack)
    certified = _pd_certified(stack)
    if certified:
        assert w._verdict(definite=True).ok
    if w._w.min() > 2.0 * tau:
        assert certified


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 6), p=st.integers(1, 8), complex_kind=st.booleans(),
       log_ratio=st.floats(-14.0, 0.0), log_scale=st.floats(-150.0, 150.0),
       end=st.sampled_from(["zero", "roundoff", "rule"]), k=st.integers(1, 64),
       at_rule=st.floats(-1e-3, 1e-3), seed=st.integers(0, 2**32 - 1))
def test_every_stack_that_factors_passes_the_psd_verdict(n, p, complex_kind, log_ratio,
                                                         log_scale, end, k, at_rule, seed):
    """Wherever np.linalg.cholesky factors a Hermitian Fourier stack, the eigvalsh PSD verdict
    on that stack passes, so a PSD root entry takes that success as the verdict.  Spectra span
    c to c * ratio, and slice 0's ends at 0, at -k n eps c (roundoff), or at
    -PSD_RTOL * max(1, c) * (1 + at_rule), the rule's edge."""
    c = 10.0**log_scale
    last = {"zero": 0.0, "roundoff": -k * n * np.finfo(float).eps * c,
            "rule": -PSD_RTOL * max(1.0, c) * (1.0 + at_rule)}[end]
    a = _hermitian_tensor(np.random.default_rng(seed), n, p, complex_kind, c,
                          c * 10.0**log_ratio, last)
    stack = _to_stack(a)
    try:
        np.linalg.cholesky(stack)
    except np.linalg.LinAlgError:
        return
    assert _stack_eig(stack, p, a.kind, vectors=False)._verdict().ok


# |d(A, B) - d_exact| over cond(A) * eps * sqrt(tr A + tr B): a factor's backward error
# eps ||A|| moves d by at most about eps ||A|| / sqrt(lambda_min(A)); 1.3 was the worst seen.
BW_ROOT_ROUNDOFFS = 16


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 4), p=st.integers(1, 4), kind=st.sampled_from(["real", "complex", "mixed"]),
       log_cond=st.floats(0.0, 8.0), log_gap=st.none() | st.floats(-8.0, -2.0),
       swap=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_cholesky_roots_match_mpmath_and_the_eigh_roots(n, p, kind, log_cond, log_gap, swap,
                                                        seed):
    """d(A, B) from the pair gate's roots (Cholesky factors where an operand factors) against
    the trace formula on bcirc at 50 digits, and against the same call with every root taken
    from eigh.  A has condition number 10^log_cond; B is a random
    Gram tensor E, or with ``log_gap`` the near pair A + 10^log_gap E; mixed pairs meet a
    real A with a complex E; ``swap`` passes them as (B, A)."""
    pytest.importorskip("mpmath")
    rng = np.random.default_rng(seed)
    cond = 10.0**log_cond
    a = _hermitian_tensor(rng, n, p, kind == "complex", 1.0, 1.0 / cond)
    e = _exact_hermitian_psd(rng, n, p, kind != "real")
    b = e if log_gap is None else a + 10.0**log_gap * e
    x, y = (b, a) if swap else (a, b)
    got = dist_bures_wasserstein(x, y)
    with mock.patch.object(spectral, "_cholesky_root", lambda t, stack, kind: None):
        eigh_roots = dist_bures_wasserstein(x, y)
    tol = BW_ROOT_ROUNDOFFS * cond * np.finfo(float).eps * math.sqrt(np.real(trace(a) + trace(b)))
    assert abs(got - bw_bcirc_mpmath(x.data, y.data)) <= tol
    assert abs(got - eigh_roots) <= tol
