"""Each public call checks, transforms and decomposes each operand once.

The counts are taken by wrapping ``spectral.is_hermitian`` wherever the
package holds it, spectral's own ``_stack_eig``, the numpy eigensolvers and
the forward and inverse FFTs, for the duration of one public call.  Traces of
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

import numpy as np
import pytest

import tspectral
from tspectral import (
    PreconditionError,
    Tensor3,
    dist_bures_wasserstein,
    dist_log_euclidean,
    extremal_ratio_witness,
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
    return counter


def _eigensolves(counter):
    return sum(counter[name] for name in _COUNTED[np.linalg])


def _forward_transforms(counter):
    return counter["rfft"] + counter["fft"]


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
    """(checks, eigh, eigvalsh, all eigensolves) of each call, run one after another."""
    counts = []
    for thunk in thunks:
        calls.clear()
        thunk()
        counts.append(
            (calls["is_hermitian"], calls["eigh"], calls["eigvalsh"], _eigensolves(calls))
        )
    return counts


def test_tensor_holds_its_data_alone():
    assert [f.name for f in dataclasses.fields(Tensor3)] == ["data"]


def test_dist_bures_wasserstein_in_sequence(calls):
    """d(A, B) and d(B, A) check and decompose each operand once; d(A, A) passes
    one object as both operands, so it checks and decomposes A once."""
    a = random_psd(3, 4, 9)
    b = random_psd(3, 4, 10)
    counts = _per_call(
        calls,
        lambda: dist_bures_wasserstein(a, b),
        lambda: dist_bures_wasserstein(b, a),
        lambda: dist_bures_wasserstein(a, a),
    )
    assert counts == [(2, 2, 0, 2)] * 2 + [(1, 1, 0, 1)]


def test_ky_fan_max_then_min(calls):
    h = cli._random_hermitian(3, 4, np.random.default_rng(11))
    counts = _per_call(
        calls, lambda: ky_fan_sum(h, 2, which="max"), lambda: ky_fan_sum(h, 2, which="min")
    )
    assert counts == [(1, 1, 0, 1)] * 2


def test_values_then_vectors(calls):
    """Each call solves for what it needs: values for is_psd, vectors for the rest."""
    t = random_psd(3, 5, 12)
    counts = _per_call(
        calls, lambda: is_psd(t), lambda: t_function(t, "sqrt"), lambda: psd_factor(t)
    )
    assert counts == [(1, 0, 1, 1), (1, 1, 0, 1), (1, 1, 0, 1)]


def test_t_eigenvalues_after_hermitian_eig(calls):
    h = cli._random_hermitian(3, 4, np.random.default_rng(13))
    counts = _per_call(calls, lambda: hermitian_eig(h), lambda: t_eigenvalues(h))
    assert counts == [(1, 1, 0, 1), (1, 0, 1, 1)]


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


@pytest.mark.parametrize("seed", range(4))
def test_bw_axioms_trial_decomposes_each_tensor_once(calls, seed):
    """Five distances over three tensors: three checks and three eigh."""
    assert cli.sweep_trial("bw-metric-axioms", seed, 0)
    assert calls["is_hermitian"] == 3
    assert (calls["eigh"], _eigensolves(calls)) == (3, 3)


def test_bw_axioms_group_decomposes_each_tensor_once(calls):
    """A whole shape group costs what one trial does: three Hermitian checks and
    three eigh, for five distances on each trial."""
    draw, decide, _ = cli._SWEEPS["bw-metric-axioms"]
    draws = [draw(np.random.default_rng((0, trial))) for trial in range(40)]
    group = [arrays for key, arrays in draws if key == draws[0][0]]
    calls.clear()
    assert decide(*cli._stacked(group)).all() and len(group) > 3
    assert calls["is_hermitian"] == 3
    assert (calls["eigh"], _eigensolves(calls)) == (3, 3)


@pytest.mark.parametrize("op, eighs", [("kyfan", 1), ("bw-dist", 2)])
def test_bench_decomposes_on_every_call(calls, op, eighs):
    """Every timed call of ``bench --op kyfan|bw-dist`` runs its eigensolves:
    a call on the tensors of the call before would reuse their factors."""
    run = cli._bench_callable(op, 8, 16, 0)
    counts = []
    for _ in range(3):
        calls.clear()
        run()
        counts.append((calls["eigh"], _eigensolves(calls)))
    assert counts == [(eighs, eighs)] * 3


def _column(n, p):
    """An n x 1 x p tensor whose unfolding is a unit vector."""
    return Tensor3(identity(n, p).data[:, :1, :])


# Forward FFTs in one call on a real A and a B of the kind under test (complex in the
# mixed case), both positive definite: one per operand.  (A + A^H)/2 is a separate
# operand with its own transform, for symmetrized_bounds and symmetric_relax_bounds.
_FORWARD_PER_CALL = {
    "t_eigenvalues": (lambda a, b: spectral.t_eigenvalues(b), 1),
    "hermitian_eig": (lambda a, b: spectral.hermitian_eig(b), 1),
    "t_svd": (lambda a, b: spectral.t_svd(b), 1),
    "t_function": (lambda a, b: spectral.t_function(b, "sqrt"), 1),
    "is_hermitian": (lambda a, b: spectral.is_hermitian(b), 0),
    "is_psd": (lambda a, b: spectral.is_psd(b), 1),
    "psd_factor": (lambda a, b: spectral.psd_factor(b), 1),
    "random_psd": (lambda a, b: spectral.random_psd(3, 4, 0), 1),
    "rayleigh_value": (lambda a, b: bounds.rayleigh_value(b, _column(3, 4)), 0),
    "symmetrized_bounds": (lambda a, b: bounds.symmetrized_bounds(b), 2),
    "vn_trace_bounds": (lambda a, b: bounds.vn_trace_bounds(a, b), 2),
    "hermitian_trace_bounds": (lambda a, b: bounds.hermitian_trace_bounds(a, b), 2),
    "sandwich_bounds": (lambda a, b: bounds.sandwich_bounds(a, b), 2),
    "extremal_ratio_bounds": (lambda a, b: bounds.extremal_ratio_bounds(a, b), 2),
    "extremal_ratio_witness": (lambda a, b: bounds.extremal_ratio_witness(b), 1),
    "symmetric_relax_bounds": (lambda a, b: bounds.symmetric_relax_bounds(a, b), 3),
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
