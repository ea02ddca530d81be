"""Each public call checks and decomposes each operand once.

The counts are taken by wrapping ``spectral.is_hermitian`` wherever the
package holds it, the numpy eigensolvers and the inverse FFTs, for the
duration of one public call.  Traces of t-products are taken on Fourier
stacks, so the bounds run no inverse FFT at all.  A tensor keeps its check
and its factors, so calls in sequence on the same tensors check and
decompose each tensor once in all.
"""

import collections

import numpy as np
import pytest

import tspectral
from tspectral import (
    PreconditionError,
    Tensor3,
    dist_bures_wasserstein,
    dist_log_euclidean,
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

_COUNTED = {
    np.linalg: ("eigh", "eigvalsh", "eig", "eigvals"),
    np.fft: ("irfft", "ifft"),
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
    # the rule behind is_hermitian, which a batch of tensors runs directly
    monkeypatch.setattr(spectral, "_hermitian_rule", counting(spectral._hermitian_rule, "rule"))
    return counter


def _eigensolves(counter):
    return sum(counter[name] for name in _COUNTED[np.linalg])


def test_ky_fan_sum(calls):
    h = random_psd(3, 5, 0)
    calls.clear()
    ky_fan_sum(h, 2)
    assert calls["is_hermitian"] == 1
    assert (calls["eigh"], _eigensolves(calls)) == (1, 1)


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
    a = random_psd(3, 5, 4) + identity(3, 5)
    b = random_psd(3, 5, 5)
    calls.clear()
    geodesic_trace_profile(a, b, 11)
    assert calls["is_hermitian"] == 2
    assert _eigensolves(calls) == 3


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
    assert calls["is_hermitian"] == 2
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
    of one) runs each tensor's Hermitian rule once."""
    assert cli.sweep_trial("concavity", seed, 0)
    assert calls["rule"] == 3
    assert (calls["eigvalsh"], _eigensolves(calls)) == (3, 3)
    assert calls["irfft"] + calls["ifft"] == 2


def test_concavity_group_is_decided_in_one_pass(calls):
    """A whole shape group costs what one trial does: three Hermitian rules,
    three eigvalsh and the two inverse FFTs of the random_psd draws."""
    draw, decide, _ = cli._SWEEPS["concavity"]
    draws = [draw(np.random.default_rng((0, trial))) for trial in range(60)]
    group = [arrays for key, arrays in draws if key == draws[0][0]]
    calls.clear()
    assert decide(*cli._stacked(group)).all() and len(group) > 3
    assert calls["rule"] == 3
    assert (calls["eigvalsh"], _eigensolves(calls)) == (3, 3)
    assert calls["irfft"] + calls["ifft"] == 2


def test_dist_bures_wasserstein_in_sequence(calls):
    a = random_psd(3, 4, 9)
    b = random_psd(3, 4, 10)
    calls.clear()
    dist_bures_wasserstein(a, b)
    dist_bures_wasserstein(b, a)
    dist_bures_wasserstein(a, a)
    assert calls["is_hermitian"] == 2
    assert (calls["eigh"], _eigensolves(calls)) == (2, 2)


def test_ky_fan_max_then_min(calls):
    h = cli._random_hermitian(3, 4, np.random.default_rng(11))
    calls.clear()
    ky_fan_sum(h, 2, which="max")
    ky_fan_sum(h, 2, which="min")
    assert calls["is_hermitian"] == 1
    assert (calls["eigh"], _eigensolves(calls)) == (1, 1)


def test_values_then_vectors(calls):
    """A values-only decomposition is replaced once vectors are asked for."""
    t = random_psd(3, 5, 12)
    calls.clear()
    assert is_psd(t)
    t_function(t, "sqrt")
    psd_factor(t)
    assert calls["is_hermitian"] == 1
    assert (calls["eigvalsh"], calls["eigh"], _eigensolves(calls)) == (1, 1, 2)


def test_t_eigenvalues_reads_kept_factors(calls):
    h = cli._random_hermitian(3, 4, np.random.default_rng(13))
    calls.clear()
    hermitian_eig(h)
    t_eigenvalues(h)
    assert calls["is_hermitian"] == 1
    assert (calls["eigh"], _eigensolves(calls)) == (1, 1)


def test_failed_check_is_kept_and_each_call_names_its_op(calls):
    t = Tensor3(np.random.default_rng(14).standard_normal((3, 3, 4)))
    calls.clear()
    for op, call in (
        ("is_psd", lambda: is_psd(t)),
        ("t_function", lambda: t_function(t, "sqrt")),
        ("ky_fan_sum", lambda: ky_fan_sum(t, 1)),
    ):
        with pytest.raises(PreconditionError, match=f"^{op} requires a Hermitian tensor"):
            call()
    assert calls["is_hermitian"] == 1
    assert _eigensolves(calls) == 0


@pytest.mark.parametrize("seed", range(4))
def test_bw_axioms_trial_decomposes_each_tensor_once(calls, seed):
    """Five distances over three tensors: three checks and three eigh."""
    assert cli._sweep_bw_axioms(np.random.default_rng((seed, 0)))
    assert calls["is_hermitian"] == 3
    assert (calls["eigh"], _eigensolves(calls)) == (3, 3)
