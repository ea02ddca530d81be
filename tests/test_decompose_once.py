"""Each public call checks, transforms and decomposes each operand once.

The counts are taken by wrapping ``spectral.is_hermitian`` wherever the
package holds it, spectral's own ``_stack_eig``, the numpy eigensolvers, numpy's
Cholesky factorization and the forward and inverse FFTs, for the duration of one
public call.  Traces of
t-products are taken on the Fourier stacks that the operands' decompositions
hold, so the bounds run no forward FFT beyond one per operand and no inverse
FFT at all.  Nothing is
kept between calls: a tensor holds its data alone, so each call in a
sequence on the same tensors checks and decomposes each of its operands
again, once.
"""

import collections
import dataclasses
import inspect
import re

import numpy as np
import pytest

import tspectral
from tspectral import (
    DomainError,
    PreconditionError,
    SingularityError,
    Tensor3,
    dist_bures_wasserstein,
    dist_log_euclidean,
    extremal_ratio_witness,
    geodesic,
    geodesic_trace_profile,
    hermitian_eig,
    identity,
    is_psd,
    ky_fan_sum,
    psd_factor,
    random_psd,
    t_eigenvalues,
    t_function,
    write_tensor,
)
from tspectral import bounds, cli, geometry, spectral
from tspectral.cli import main
from conftest import certificate_shift, every_slice
from helpers_oracles import bw_bcirc_mpmath

_COUNTED = {
    np.linalg: ("eigh", "eigvalsh", "eig", "eigvals"),
    np.fft: ("rfft", "fft", "irfft", "ifft"),
}


@pytest.fixture
def calls(monkeypatch):
    """Counter of the calls made while the test runs, by function name;
    tests clear it once their inputs are built."""
    counter = collections.Counter()

    def counting(fn, name):
        def wrapper(*args, **kwargs):
            counter[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for module, names in _COUNTED.items():
        for name in names:
            monkeypatch.setattr(module, name, counting(getattr(module, name), name))
    check = spectral.is_hermitian
    for module in (tspectral, spectral, bounds, geometry, cli):
        if getattr(module, "is_hermitian", None) is check:
            monkeypatch.setattr(module, "is_hermitian", counting(check, "is_hermitian"))
    # the one Hermitian solver, as _decompose and t_eigenvalues reach it
    monkeypatch.setattr(spectral, "_stack_eig", counting(spectral._stack_eig, "_stack_eig"))
    # the certificate of the PD rule and the factor of a root entry, not eigensolves
    monkeypatch.setattr(np.linalg, "cholesky", counting(np.linalg.cholesky, "cholesky"))
    # an rfft half's data widened to all p slices
    monkeypatch.setattr(spectral, "_all_slices", counting(spectral._all_slices, "_all_slices"))
    return counter


def _eigensolves(counter):
    return sum(counter[name] for name in _COUNTED[np.linalg])


def _forward_transforms(counter):
    return counter["rfft"] + counter["fft"]


def test_ky_fan_sum(calls):
    """A real H is solved on its rfft half, and both extremes are sums over the
    solved slices: nothing is widened to all p slices."""
    h = random_psd(3, 5, 0)
    calls.clear()
    ky_fan_sum(h, 2)
    assert calls["is_hermitian"] == 1
    assert (calls["eigh"], _eigensolves(calls)) == (1, 1)
    assert calls["_all_slices"] == 0


@pytest.mark.parametrize("which", ["max", "min"])
def test_bounds_kyfan_reads_eigenvalues_only(calls, capsys, tmp_path, which):
    """``bounds kyfan`` prints one extreme: one Hermitian check and one eigvalsh,
    and no optimizer, so no inverse FFT."""
    f = tmp_path / "h.json"
    write_tensor(random_psd(3, 4, 2), f)
    calls.clear()
    assert main(["bounds", "kyfan", str(f), "--k", "2", "--which", which]) == 0
    assert capsys.readouterr().out.startswith(f"kyfan_{which}(k=2) = ")
    assert calls["is_hermitian"] == 1
    assert (calls["eigvalsh"], _eigensolves(calls)) == (1, 1)
    assert calls["irfft"] + calls["ifft"] == 0


def test_verify_all_checks(calls, capsys, tmp_path):
    f = tmp_path / "a.json"
    write_tensor(random_psd(3, 4, 1), f)
    calls.clear()
    assert main(["verify", str(f), "--checks", "hermitian,psd,pd"]) == 0
    assert capsys.readouterr().out.count("-> ok") == 3
    assert calls["is_hermitian"] == 1
    assert (calls["eigvalsh"], _eigensolves(calls)) == (1, 1)


@pytest.mark.parametrize("complex_b", [False, True], ids=["real", "mixed"])
def test_dist_log_euclidean(calls, complex_b):
    a = random_psd(3, 6, 2) + identity(3, 6)
    b = random_psd(3, 6, 3) + identity(3, 6)
    if complex_b:
        b = b * (1.0 + 0j)
    calls.clear()
    dist_log_euclidean(a, b)
    assert calls["is_hermitian"] == 2
    assert (calls["eigh"], _eigensolves(calls)) == (2, 2)
    assert calls["irfft"] + calls["ifft"] == 0


def test_geodesic_trace_profile(calls):
    """A's verdict is a shifted Cholesky certificate and its factor a Cholesky one:
    two Cholesky factorizations of A, eigvalsh of B alone, then one eigh of M."""
    a = random_psd(3, 5, 4) + identity(3, 5)
    b = random_psd(3, 5, 5)
    calls.clear()
    geodesic_trace_profile(a, b, 11)
    assert calls["is_hermitian"] == 2
    assert (calls["eigh"], calls["eigvalsh"], _eigensolves(calls)) == (1, 1, 2)
    assert calls["cholesky"] == 2
    assert _forward_transforms(calls) == 2


def _inside_the_margin(p):
    """A positive definite by the verdict, whose lambda_min lies midway between
    PD_RTOL * max(1, u) and the certificate's shift tau, in a rotated basis."""
    q, _ = np.linalg.qr(np.random.default_rng(33).standard_normal((3, 3)))
    u, tau = certificate_shift(np.diag([1.0, 0.5, 0.0])[None])
    a0 = (q * [1.0, 0.5, 0.5 * (spectral.PD_RTOL * u + tau)]) @ q.T
    return every_slice(0.5 * (a0 + a0.T), p)


def test_a_inside_the_certificate_margin_takes_the_eigenvalue_verdict(calls, monkeypatch):
    """PD_RTOL * max(1, u) < lambda_min < tau: A passes the PD rule but not the certificate,
    so one eigh of A gives its verdict and its root, and the profile is the eigenvalue
    route's, bit for bit: 2 eigh (A and M), B's eigvalsh and the failed certificate."""
    a, b = _inside_the_margin(4), random_psd(3, 4, 7)
    stack = spectral._to_stack(a)
    w = np.linalg.eigvalsh(stack)
    u, tau = certificate_shift(stack)
    assert spectral.PD_RTOL * max(1.0, w.max()) <= spectral.PD_RTOL * max(1.0, u) < w.min() < tau
    calls.clear()
    got = geodesic_trace_profile(a, b, 5, keep_tensors=True)
    assert (calls["eigh"], calls["eigvalsh"], calls["cholesky"]) == (2, 1, 1)
    monkeypatch.setattr(spectral, "_pd_certified", lambda stack: False)
    want = geodesic_trace_profile(a, b, 5, keep_tensors=True)
    assert got.traces.tobytes() == want.traces.tobytes()
    assert all(x.data.tobytes() == y.data.tobytes() for x, y in zip(got.tensors, want.tensors))


@pytest.mark.parametrize("inside_margin, want", [(False, (1, 1, 2)), (True, (2, 0, 1))],
                         ids=["certified", "inside_margin"])
def test_geodesic_of_a_with_itself(calls, inside_margin, want):
    """One object as A and B is checked and transformed once.  B's PSD verdict needs
    eigenvalues: a certified A leaves them to B's eigvalsh; an A inside the margin has
    its own from the eigh that gives its root, which B's verdict reuses.  (eigh, eigvalsh,
    cholesky) count M's eigh and A's certificate."""
    a = _inside_the_margin(4) if inside_margin else random_psd(3, 4, 4) + identity(3, 4)
    calls.clear()
    g = geodesic(a, a, 0.3)
    assert calls["is_hermitian"] == 1 and _forward_transforms(calls) == 1
    assert (calls["eigh"], calls["eigvalsh"], calls["cholesky"]) == want
    if not inside_margin:  # G(t) = A; at cond(A) = 1e12, M = I only to about 1e-4
        np.testing.assert_allclose(g.data, a.data, rtol=0, atol=1e-12 * np.abs(a.data).max())


def _recording_cholesky(monkeypatch):
    """The shapes of the stacks that np.linalg.cholesky is called on, as the calls run."""
    shapes, factor = [], np.linalg.cholesky

    def recording(stack):
        shapes.append(stack.shape)
        return factor(stack)

    monkeypatch.setattr(np.linalg, "cholesky", recording)
    return shapes


def test_real_a_is_certified_on_its_rfft_half(calls, monkeypatch):
    """A real A of a complex pair is certified and factored on its own rfft half, and its
    factor is widened to all p slices; the profile is that of A cast to complex."""
    a, b = random_psd(3, 5, 4) + identity(3, 5), random_psd(3, 5, 5) * (1.0 + 0j)
    shapes = _recording_cholesky(monkeypatch)
    calls.clear()
    got = geodesic_trace_profile(a, b, 5).traces
    assert shapes == [(3, 3, 3), (3, 3, 3)]
    assert (calls["eigh"], calls["eigvalsh"], _eigensolves(calls)) == (1, 1, 2)
    want = geodesic_trace_profile(a * (1.0 + 0j), b, 5).traces
    np.testing.assert_allclose(got, want, rtol=1e-12)


def test_real_operand_of_a_complex_bw_pair_is_factored_on_its_rfft_half(calls, monkeypatch):
    """d(A, B) for a real A and a complex B factors A on its 3 rfft slices and B on all 5,
    one Cholesky factorization each and no eigensolve; the distance is that of A cast to
    complex."""
    a, b = random_psd(3, 5, 4) + identity(3, 5), random_psd(3, 5, 5) * (1.0 + 0j)
    shapes = _recording_cholesky(monkeypatch)
    calls.clear()
    got = dist_bures_wasserstein(a, b)
    assert shapes == [(3, 3, 3), (5, 3, 3)]
    assert _eigensolves(calls) == 0
    assert got == pytest.approx(dist_bures_wasserstein(a * (1.0 + 0j), b), rel=1e-12)


def test_singular_b_takes_its_bw_root_from_eigh(calls):
    """B of rank 2 in 4 x 4 slices does not factor (one Cholesky attempt), so its root is
    Q diag(sqrt(w)) of one eigh, while A's is a Cholesky factor; d matches the trace formula
    on bcirc at 50 digits."""
    pytest.importorskip("mpmath")
    rng = np.random.default_rng(34)
    m = rng.standard_normal((4, 2, 6))
    a, b = random_psd(4, 6, 3) + identity(4, 6), tspectral.tprod_fft(
        Tensor3(m), tspectral.conj_transpose(Tensor3(m)))
    calls.clear()
    got = dist_bures_wasserstein(a, b)
    assert (calls["eigh"], _eigensolves(calls), calls["cholesky"]) == (1, 1, 2)
    # B as stored has null eigenvalues of roundoff, about eps tr B, whose square roots move the
    # exact d: the error is of sqrt(eps tr B) (0.33 the worst of 30 seeds)
    tol = 4.0 * np.sqrt(np.finfo(float).eps * tspectral.trace(b))
    assert abs(got - bw_bcirc_mpmath(a.data, b.data)) <= tol


@pytest.mark.parametrize("n, want", [(749, (0, 0, 1)), (750, (1, 1, 0))], ids=["749", "750"])
def test_cholesky_is_the_psd_verdict_up_to_n_749(calls, n, want):
    """A Cholesky factorization's success is the PSD verdict while PD_CERTIFICATE_MARGIN
    (n + 1)^2 eps, its backward error with eigvalsh's, is within PSD_RTOL: up to n = 749.
    A larger operand takes its root from eigh: (eigh, all eigensolves, cholesky)."""
    a = identity(n, 1) + Tensor3(np.diag(np.linspace(0.0, 1.0, n))[:, :, None])
    calls.clear()
    assert dist_bures_wasserstein(a, a) <= 1e-9
    assert (calls["eigh"], _eigensolves(calls), calls["cholesky"]) == want


def test_certified_a_that_does_not_factor_takes_its_root_from_eigh(calls, monkeypatch):
    """An A that the certificate passes but whose own Cholesky factorization fails takes
    the fallback of every root: one eigh gives its positive definiteness verdict and
    Q diag(sqrt(w)), bit for bit as for an A that fails the certificate."""
    a, b = random_psd(3, 4, 1) + identity(3, 4), random_psd(3, 4, 2)
    monkeypatch.setattr(spectral, "_pd_certified", lambda stack: False)
    want = geodesic_trace_profile(a, b, 5, keep_tensors=True)

    def failing(stack):
        raise np.linalg.LinAlgError("Matrix is not positive definite")

    monkeypatch.setattr(spectral, "_pd_certified", lambda stack: True)
    monkeypatch.setattr(np.linalg, "cholesky", failing)
    calls.clear()
    got = geodesic_trace_profile(a, b, 5, keep_tensors=True)
    assert (calls["eigh"], calls["eigvalsh"], _eigensolves(calls)) == (2, 1, 3)
    assert got.traces.tobytes() == want.traces.tobytes()
    assert all(x.data.tobytes() == y.data.tobytes() for x, y in zip(got.tensors, want.tensors))


@pytest.mark.parametrize("dist", [dist_bures_wasserstein, dist_log_euclidean])
def test_unknown_convention_is_refused_before_the_pair_gate(calls, dist):
    """An unknown trace convention raises ValueError, as dist_frobenius does, before any
    check or factorization: also on a pair that is not Hermitian."""
    good = random_psd(3, 4, 1) + identity(3, 4)
    bad = Tensor3(np.random.default_rng(21).standard_normal((3, 3, 4)))
    for a, b in ((bad, bad), (good, good), (good, good * 2.0)):
        calls.clear()
        with pytest.raises(ValueError, match="unknown trace convention 'other'"):
            dist(a, b, convention="other")
        assert (calls["is_hermitian"], _eigensolves(calls), calls["cholesky"]) == (0, 0, 0)


_TRACE_BOUNDS = [
    (name, kind)
    for name in (
        "vn_trace_bounds",
        "hermitian_trace_bounds",
        "sandwich_bounds",
        "extremal_ratio_bounds",
        "symmetric_relax_bounds",
    )
    for kind in ("real", "mixed")
    if (name, kind) != ("symmetric_relax_bounds", "mixed")  # defined for real tensors only
]


@pytest.mark.parametrize("name, kind", _TRACE_BOUNDS)
@pytest.mark.parametrize("p", [1, 4, 5])
def test_trace_bounds_run_no_inverse_fft(calls, name, kind, p):
    a = random_psd(3, p, 6)
    b = random_psd(3, p, 7) * (1.0 + 0j if kind == "mixed" else 1.0)
    calls.clear()
    assert getattr(bounds, name)(a, b).satisfied
    assert calls["is_hermitian"] == 2  # relax checks B and the data (A + A^T)/2
    assert _eigensolves(calls) == 2
    assert calls["irfft"] + calls["ifft"] == 0


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_ky_fan_sum_inverts_only_its_optimizer(calls, kind):
    h = random_psd(3, 5, 8) * (1.0 + 0j if kind == "complex" else 1.0)
    calls.clear()
    ky_fan_sum(h, 2, which="min")
    assert calls["irfft"] + calls["ifft"] == 1


@pytest.mark.parametrize("seed", range(4))
def test_concavity_trial_traces_without_inverse_fft(calls, seed):
    """tr sqrt(X) is a weighted sum over Fourier-slice eigenvalues: each of the
    three traces is one eigvalsh and no sqrt(X) tensor; the only inverse FFTs
    are those of the two random_psd draws.  A trial replayed alone (a group
    of one) runs each tensor's Hermitian check once."""
    assert cli.sweep_trial("concavity", seed, 0)
    assert calls["is_hermitian"] == 3
    assert (calls["eigvalsh"], _eigensolves(calls)) == (3, 3)
    assert calls["irfft"] + calls["ifft"] == 2


def test_concavity_group_is_decided_in_one_pass(calls):
    """A whole shape group costs what one trial does: three Hermitian checks,
    three eigvalsh and the two inverse FFTs of the random_psd draws."""
    draw, decide, _ = cli._SWEEPS["concavity"]
    draws = [draw(np.random.default_rng((0, trial))) for trial in range(60)]
    group = [arrays for key, arrays in draws if key == draws[0][0]]
    calls.clear()
    assert decide(*cli._stacked(group)).all() and len(group) > 3
    assert calls["is_hermitian"] == 3
    assert (calls["eigvalsh"], _eigensolves(calls)) == (3, 3)
    assert calls["irfft"] + calls["ifft"] == 2


@pytest.mark.parametrize("seed", range(4))
def test_kyfan_trial_decides_from_eigenvalues(calls, seed):
    """Both Ky Fan extremes are sums of H's eigenvalues: a trial replayed alone
    runs one Hermitian check and one eigvalsh, and builds no optimizer, so it
    runs no inverse FFT."""
    assert cli.sweep_trial("kyfan", seed, 0)
    assert calls["is_hermitian"] == 1
    assert (calls["eigvalsh"], _eigensolves(calls)) == (1, 1)
    assert calls["irfft"] + calls["ifft"] == 0


def test_kyfan_group_decides_from_eigenvalues(calls):
    """A whole shape group costs what one trial does: one Hermitian check, one
    eigvalsh and no inverse FFT, for five U on each trial."""
    draw, decide, _ = cli._SWEEPS["kyfan"]
    draws = [draw(np.random.default_rng((0, trial))) for trial in range(24)]
    group = [arrays for key, arrays in draws if key == draws[0][0]]
    calls.clear()
    assert decide(*cli._stacked(group)).all() and len(group) > 3
    assert calls["is_hermitian"] == 1
    assert (calls["eigvalsh"], _eigensolves(calls)) == (1, 1)
    assert calls["irfft"] + calls["ifft"] == 0


def _per_call(calls, *thunks):
    """(checks, eigh, eigvalsh, all eigensolves, cholesky) of each call, run one after
    another."""
    counts = []
    for thunk in thunks:
        calls.clear()
        thunk()
        counts.append((calls["is_hermitian"], calls["eigh"], calls["eigvalsh"],
                       _eigensolves(calls), calls["cholesky"]))
    return counts


def test_tensor_holds_its_data_alone():
    assert [f.name for f in dataclasses.fields(Tensor3)] == ["data"]


def test_dist_bures_wasserstein_in_sequence(calls):
    """d(A, B) and d(B, A) check and factor each operand once: the Cholesky factorization of
    a positive definite operand is its PSD verdict and its root, with no eigensolve;
    d(A, A) passes one object as both operands, so it does so for A once."""
    a = random_psd(3, 4, 9)
    b = random_psd(3, 4, 10)
    counts = _per_call(
        calls,
        lambda: dist_bures_wasserstein(a, b),
        lambda: dist_bures_wasserstein(b, a),
        lambda: dist_bures_wasserstein(a, a),
    )
    assert counts == [(2, 0, 0, 0, 2)] * 2 + [(1, 0, 0, 0, 1)]


def test_one_object_as_both_operands_is_decomposed_once(calls):
    """Every bound, distance and geodesic given one object as A and B checks and
    decomposes it once: the bounds need its eigenvalues, the BW distance its Cholesky
    factor, the log-Euclidean one its vectors, and the geodesic its certified
    Cholesky factor and its eigenvalues, then one eigh of M = L^(-1) A L^(-H)."""
    a = random_psd(3, 4, 19) + identity(3, 4)
    counts = _per_call(
        calls,
        lambda: bounds.vn_trace_bounds(a, a),
        lambda: bounds.hermitian_trace_bounds(a, a),
        lambda: bounds.sandwich_bounds(a, a),
        lambda: bounds.extremal_ratio_bounds(a, a),
        lambda: dist_bures_wasserstein(a, a),
        lambda: dist_log_euclidean(a, a),
        lambda: geometry.geodesic(a, a, 0.5),
    )
    assert counts == ([(1, 0, 1, 1, 0)] * 4
                      + [(1, 0, 0, 0, 1), (1, 1, 0, 1, 0), (1, 1, 1, 2, 2)])


def test_ky_fan_max_then_min(calls):
    h = cli._random_hermitian(3, 4, np.random.default_rng(11))
    counts = _per_call(
        calls, lambda: ky_fan_sum(h, 2, which="max"), lambda: ky_fan_sum(h, 2, which="min")
    )
    assert counts == [(1, 1, 0, 1, 0)] * 2


def test_values_then_vectors(calls):
    """Each call solves for what it needs: values for is_psd, vectors for the rest."""
    t = random_psd(3, 5, 12)
    counts = _per_call(
        calls, lambda: is_psd(t), lambda: t_function(t, "sqrt"), lambda: psd_factor(t)
    )
    assert counts == [(1, 0, 1, 1, 0), (1, 1, 0, 1, 0), (1, 1, 0, 1, 0)]


def test_t_eigenvalues_after_hermitian_eig(calls):
    h = cli._random_hermitian(3, 4, np.random.default_rng(13))
    counts = _per_call(calls, lambda: hermitian_eig(h), lambda: t_eigenvalues(h))
    assert counts == [(1, 1, 0, 1, 0), (1, 0, 1, 1, 0)]


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_t_eigenvalues_solves_hermitian_input_in_the_one_solver(calls, kind):
    """A Hermitian tensor's eigenvalues come from ``_stack_eig``, the solver that
    serves every other Hermitian operand; a general tensor's from ``eigvals``."""
    h = cli._random_hermitian(3, 5, np.random.default_rng(17))
    h = h * (1.0 + 0j if kind == "complex" else 1.0)
    calls.clear()
    t_eigenvalues(h)
    assert calls["_stack_eig"] == 1
    assert (calls["is_hermitian"], calls["eigvalsh"], _eigensolves(calls)) == (1, 1, 1)
    calls.clear()
    t_eigenvalues(Tensor3(np.random.default_rng(18).standard_normal((3, 3, 5))))
    assert (calls["_stack_eig"], calls["eigvals"], _eigensolves(calls)) == (0, 1, 1)


def test_failed_check_runs_in_each_call_and_names_its_op(calls):
    t = Tensor3(np.random.default_rng(14).standard_normal((3, 3, 4)))
    for op, call in (
        ("is_psd", lambda: is_psd(t)),
        ("t_function", lambda: t_function(t, "sqrt")),
        ("ky_fan_sum", lambda: ky_fan_sum(t, 1)),
        ("extremal_ratio_witness", lambda: extremal_ratio_witness(t)),
    ):
        calls.clear()
        with pytest.raises(PreconditionError, match=f"^{op} requires a Hermitian tensor"):
            call()
        assert calls["is_hermitian"] == 1
        assert _eigensolves(calls) == 0


# Every public function of two spectral operands -> (call, operands that must be PSD
# (or positive definite), the error of each failing one); symmetric_relax_bounds
# checks only B, its A being general.
_PAIRS = {
    "vn_trace_bounds": (bounds.vn_trace_bounds, {"A": PreconditionError, "B": PreconditionError}),
    "hermitian_trace_bounds": (bounds.hermitian_trace_bounds, {}),
    "sandwich_bounds": (bounds.sandwich_bounds, {"A": PreconditionError, "B": PreconditionError}),
    "extremal_ratio_bounds": (bounds.extremal_ratio_bounds, {"B": PreconditionError}),
    "symmetric_relax_bounds": (bounds.symmetric_relax_bounds, {}),
    "dist_bures_wasserstein": (dist_bures_wasserstein, {"A": DomainError, "B": DomainError}),
    "dist_log_euclidean": (dist_log_euclidean, {"A": SingularityError, "B": SingularityError}),
    "geodesic": (lambda a, b: geometry.geodesic(a, b, 0.5),
                 {"A": SingularityError, "B": DomainError}),
    "geodesic_trace_profile": (lambda a, b: geodesic_trace_profile(a, b, 5),
                               {"A": SingularityError, "B": DomainError}),
}


def test_pair_table_covers_every_two_operand_function():
    """Every public function whose first two parameters are ``a`` and ``b`` but
    dist_frobenius, which decomposes neither."""
    pairs = {
        name
        for module in (spectral, bounds, geometry)
        for name in module.__all__
        if inspect.isfunction(fn := getattr(module, name))
        and list(inspect.signature(fn).parameters)[:2] == ["a", "b"]
    }
    assert pairs - {"dist_frobenius"} == set(_PAIRS)


@pytest.mark.parametrize(
    "name, failing, failure",
    [
        (name, failing, failure)
        for name, (_, psd_errors) in _PAIRS.items()
        for failing in "AB"
        for failure in ("not Hermitian", "not PSD")
        if (failure, name, failing) != ("not Hermitian", "symmetric_relax_bounds", "A")
        and (failure == "not Hermitian" or failing in psd_errors)
    ],
)
def test_failed_pair_check_names_its_operand(name, failing, failure):
    """An operand that fails its Hermitian, PSD or positive definiteness check is
    named in the error, ``A`` or ``B``, and the other operand is not; the Hermitian
    residual is measured against the failing operand's norm."""
    call, psd_errors = _PAIRS[name]
    good = random_psd(3, 4, 20) + identity(3, 4)
    if failure == "not Hermitian":
        bad = Tensor3(np.random.default_rng(21).standard_normal((3, 3, 4)))
        error = PreconditionError
    else:
        bad, error = -1.0 * good, psd_errors[failing]
    a, b = (bad, good) if failing == "A" else (good, bad)
    with pytest.raises(error) as caught:
        call(a, b)
    message = str(caught.value)
    op = name.removesuffix("_trace_profile")
    assert message.startswith(op)
    assert set(re.findall(r"\b[AB]\b", message)) == {failing}
    if failure == "not Hermitian":
        assert f"requires a Hermitian tensor {failing}: " in message
        assert message.endswith(f"* ||{failing}||_F")
    else:  # the gate's wording; the geodesic adds its regularize hint after it
        need = "positive definite" if error is SingularityError else "PSD"
        assert message.startswith(f"{op} requires {failing} {need}; min eigenvalue ")
        hint = " (pass regularize=eps to shift explicitly)"
        assert message.endswith(hint) == (op == "geodesic" and failing == "A")


@pytest.mark.parametrize("name", [name for name, (_, errors) in _PAIRS.items() if "A" in errors])
def test_failed_requirement_on_a_comes_before_b_is_checked(calls, name):
    """A that is not PSD (nor positive definite) is reported although B is not even
    Hermitian: A is checked, decomposed and required before B is checked."""
    call, psd_errors = _PAIRS[name]
    a = -1.0 * (random_psd(3, 4, 20) + identity(3, 4))
    b = Tensor3(np.random.default_rng(21).standard_normal((3, 3, 4)))
    calls.clear()
    with pytest.raises(psd_errors["A"]) as caught:
        call(a, b)
    assert set(re.findall(r"\b[AB]\b", str(caught.value))) == {"A"}
    assert calls["is_hermitian"] == 1


@pytest.mark.parametrize("seed", range(4))
def test_bw_axioms_trial_decomposes_each_tensor_once(calls, seed):
    """Five distances over three positive definite tensors: three checks, no eigensolve,
    and one Cholesky factorization of each tensor, its PSD verdict and its root."""
    assert cli.sweep_trial("bw-metric-axioms", seed, 0)
    assert calls["is_hermitian"] == 3
    assert (calls["eigh"], _eigensolves(calls), calls["cholesky"]) == (0, 0, 3)


def test_bw_axioms_group_decomposes_each_tensor_once(calls):
    """A whole shape group costs what one trial does: three Hermitian checks, no
    eigensolve and three Cholesky factorizations, for five distances on each trial."""
    draw, decide, _ = cli._SWEEPS["bw-metric-axioms"]
    draws = [draw(np.random.default_rng((0, trial))) for trial in range(40)]
    group = [arrays for key, arrays in draws if key == draws[0][0]]
    calls.clear()
    assert decide(*cli._stacked(group)).all() and len(group) > 3
    assert calls["is_hermitian"] == 3
    assert (calls["eigh"], _eigensolves(calls), calls["cholesky"]) == (0, 0, 3)


@pytest.mark.parametrize("op, want", [("kyfan", (1, 1, 0)), ("bw-dist", (0, 0, 2))],
                         ids=["kyfan", "bw-dist"])
def test_bench_decomposes_on_every_call(calls, op, want):
    """Every timed call of ``bench --op kyfan|bw-dist`` runs its factorizations (eigh,
    all eigensolves, cholesky): a call on the tensors of the call before would reuse them."""
    run = cli._bench_callable(op, 8, 16, 0)
    counts = []
    for _ in range(3):
        calls.clear()
        run()
        counts.append((calls["eigh"], _eigensolves(calls), calls["cholesky"]))
    assert counts == [want] * 3


def _column(n, p):
    """An n x 1 x p tensor whose unfolding is a unit vector."""
    return Tensor3(identity(n, p).data[:, :1, :])


# Forward FFTs in one call on a real A and a B of the kind under test (complex in the
# mixed case), both positive definite: one per operand.  (A + A^H)/2 is a separate
# operand with its own transform, for symmetrized_bounds and symmetric_relax_bounds;
# the latter takes tr(A*B) from its stack, so A itself is never transformed.
_FORWARD_PER_CALL = {
    "t_eigenvalues": (lambda a, b: spectral.t_eigenvalues(b), 1),
    "hermitian_eig": (lambda a, b: spectral.hermitian_eig(b), 1),
    "t_svd": (lambda a, b: spectral.t_svd(b), 1),
    "t_function": (lambda a, b: spectral.t_function(b, "sqrt"), 1),
    "is_hermitian": (lambda a, b: spectral.is_hermitian(b), 0),
    "is_psd": (lambda a, b: spectral.is_psd(b), 1),
    "psd_factor": (lambda a, b: spectral.psd_factor(b), 1),
    "random_psd": (lambda a, b: spectral.random_psd(3, 4, 0), 1),
    "rayleigh_value": (lambda a, b: bounds.rayleigh_value(b, _column(3, 4)), 2),
    "symmetrized_bounds": (lambda a, b: bounds.symmetrized_bounds(b), 2),
    "vn_trace_bounds": (lambda a, b: bounds.vn_trace_bounds(a, b), 2),
    "hermitian_trace_bounds": (lambda a, b: bounds.hermitian_trace_bounds(a, b), 2),
    "sandwich_bounds": (lambda a, b: bounds.sandwich_bounds(a, b), 2),
    "extremal_ratio_bounds": (lambda a, b: bounds.extremal_ratio_bounds(a, b), 2),
    "extremal_ratio_witness": (lambda a, b: bounds.extremal_ratio_witness(b), 1),
    "symmetric_relax_bounds": (lambda a, b: bounds.symmetric_relax_bounds(a, b), 2),
    "ky_fan_sum": (lambda a, b: bounds.ky_fan_sum(b, 2), 1),
    "dist_frobenius": (lambda a, b: geometry.dist_frobenius(a, b), 0),
    "dist_bures_wasserstein": (lambda a, b: geometry.dist_bures_wasserstein(a, b), 2),
    "dist_log_euclidean": (lambda a, b: geometry.dist_log_euclidean(a, b), 2),
    "geodesic": (lambda a, b: geometry.geodesic(a, b, 0.5), 2),
    "geodesic_trace_profile": (lambda a, b: geometry.geodesic_trace_profile(a, b, 11), 2),
}


def test_forward_count_covers_every_public_function():
    public = {
        name
        for module in (spectral, bounds, geometry)
        for name in module.__all__
        if inspect.isfunction(getattr(module, name))
    }
    assert set(_FORWARD_PER_CALL) == public


@pytest.mark.parametrize(
    "name, kind",
    [
        (name, kind)
        for name in sorted(_FORWARD_PER_CALL)
        for kind in ("real", "mixed")
        if (name, kind) != ("symmetric_relax_bounds", "mixed")  # defined for real tensors only
    ],
)
def test_one_forward_transform_per_operand(calls, name, kind):
    a = random_psd(3, 4, 15) + identity(3, 4)
    b = (random_psd(3, 4, 16) + identity(3, 4)) * (1.0 + 0j if kind == "mixed" else 1.0)
    call, forward = _FORWARD_PER_CALL[name]
    calls.clear()
    call(a, b)
    assert _forward_transforms(calls) == forward


@pytest.mark.parametrize("prop, forward", [("kyfan", 1), ("vn-bounds", 4)])
def test_sweep_group_transforms_each_operand_once(calls, prop, forward):
    """A shape group transforms each of its batched operands once: the kyfan
    group H alone, the vn-bounds group the two Gaussian draws M1 and M2 (to
    form A = M1 * M1^T and B = M2 * M2^T) and then A and B."""
    draw, decide, _ = cli._SWEEPS[prop]
    draws = [draw(np.random.default_rng((0, trial))) for trial in range(100)]
    group = [arrays for key, arrays in draws if key == draws[0][0]]
    calls.clear()
    assert decide(*cli._stacked(group)).all() and len(group) > 3
    assert _forward_transforms(calls) == forward
