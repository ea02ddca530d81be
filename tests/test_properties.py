"""Property tests: the batched Fourier-stack kernels against the dense oracles.

Every case draws n in 1..4, p in {1, 2, 3, 4, 5, 8} and real or complex
entries.  A real tensor is decomposed on its p // 2 + 1 independent Fourier
slices: for p = 1 and 2 those are all slices, odd p adds mirrored interior
slices, and even p >= 4 has interior slices plus a Nyquist slice that, like
DC, occurs once.  The oracles in ``helpers_oracles`` work on the dense
block-circulant matrix and never touch the library's FFT code.  The tensor
file round trip draws its own shapes and entries, and the file reader is
checked against a frozen copy of its exact per-entry gate.  The array-level shortcuts
(the Hermitian residual, the single copy into a tensor, ``random_psd`` on one
Fourier stack) are checked against the tensor-level forms they replace.
"""

import io
import json
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tspectral import (
    NumericError,
    ParseError,
    Tensor3,
    bcirc,
    conj_transpose,
    dist_bures_wasserstein,
    dist_log_euclidean,
    extremal_ratio_witness,
    frobenius_norm,
    geodesic,
    geodesic_trace_profile,
    hermitian_eig,
    identity,
    is_hermitian,
    random_psd,
    read_tensor,
    symmetric_relax_bounds,
    t_eigenvalues,
    t_function,
    t_svd,
    tprod_dense,
    tprod_fft,
    trace,
    write_tensor,
)
from tspectral import bounds
from tspectral.core import _conj_transpose_data, _norm
from tspectral.geometry import _bures_wasserstein, _checked
from tspectral.spectral import _decompose, _stack_eig
from tspectral.transform import _adjoint, _all_slices, _from_stack, _stack_trace, _to_stack
from helpers_oracles import (
    assert_multiset_close,
    bw_bcirc_oracle,
    geodesic_bcirc_oracle,
    oracle_bcirc,
    oracle_bcirc_gather,
    oracle_eigenvalues,
    reference_read_tensor,
)

# eigh and eigvalsh run different LAPACK drivers, whose eigenvalues differ by a few ulps.
EIGH_VALUES_RTOL = 1e-13
# A bound's fields against their dense twins, relative to max(1, |field|): the two routes
# sum the same N = n p terms in other orders and eigensolves (3.4e-15 worst in 3000 draws).
BOUND_TWIN_RTOL = 1e-12
# dist_log_euclidean against its dense twin, relative to max(1, d): the same logs of other
# eigensolves, summed in another order (8.2e-15 worst in 3000 draws).
LOG_EUCLIDEAN_TWIN_RTOL = 1e-12
# The witness's least dense eigenvalue, over max(1, its largest): a projector's zeros as a
# dense eigvalsh returns them, a few N eps from 0 (6.9e-16 worst in 3000 draws).
WITNESS_PSD_RTOL = 1e-12
# The witness's trace ratio against A's dense extreme eigenvalue, relative to max(1, |lambda|):
# a slice eigh against a dense eigvalsh of the same spectrum (2.5e-15 worst in 3000 draws).
WITNESS_RATIO_RTOL = 1e-12

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)

sizes = st.integers(1, 4)
tube_lengths = st.sampled_from([1, 2, 3, 4, 5, 8])
kinds = st.sampled_from(["real", "complex"])
seeds = st.integers(0, 2**32 - 1)


def _tensor(rng, m, n, p, kind):
    data = rng.standard_normal((m, n, p))
    if kind == "complex":
        data = data + 1j * rng.standard_normal((m, n, p))
    return Tensor3(data)


def _hermitian(rng, n, p, kind):
    m = _tensor(rng, n, n, p, kind)
    return (m + conj_transpose(m)) * 0.5


def _psd(rng, n, p, kind, shift=0.0, rank=None):
    """M * M^H + shift * I with M of n x rank x p, so every Fourier slice has rank <= rank."""
    m = _tensor(rng, n, n if rank is None else rank, p, kind)
    return tprod_fft(m, conj_transpose(m)) + shift * identity(n, p)


def _dense(t):
    return oracle_bcirc(list(t.slices()))


def _assert_kind(result, *operands):
    """Real operands give a real-kind result."""
    if all(t.kind == "real" for t in operands):
        assert result.kind == "real"


def _assert_dense_close(t, want, rtol=1e-9):
    err = np.linalg.norm(_dense(t) - want)
    assert err <= rtol * (1.0 + np.linalg.norm(want)), f"dense mismatch {err:.3e}"


@PROPERTY_SETTINGS
@given(sizes, sizes, st.sampled_from([1, 2, 3, 4, 5, 8, 31, 64]), kinds, seeds)
def test_bcirc_is_bit_equal_to_the_gather(m, n, p, kind, seed):
    """The one-copy sliding-window bcirc against the two-copy gather it replaced."""
    t = _tensor(np.random.default_rng(seed), m, n, p, kind)
    got, want = bcirc(t), oracle_bcirc_gather(t.data)
    assert (got.shape, got.dtype, got.flags.c_contiguous) == (want.shape, want.dtype, True)
    assert got.tobytes() == want.tobytes()
    assert not np.shares_memory(got, t.data)


@PROPERTY_SETTINGS
@given(sizes, sizes, sizes, tube_lengths, kinds, kinds, seeds)
def test_tprod_fft_matches_dense(m, n, l, p, kind_a, kind_b, seed):
    rng = np.random.default_rng(seed)
    a, b = _tensor(rng, m, n, p, kind_a), _tensor(rng, n, l, p, kind_b)
    fast, dense = tprod_fft(a, b), tprod_dense(a, b)
    assert fast.shape == (m, l, p)
    np.testing.assert_allclose(fast.data, dense.data, rtol=0.0, atol=1e-12 * (1 + n * p))
    assert fast.kind == ("real" if kind_a == kind_b == "real" else "complex")


@PROPERTY_SETTINGS
@given(sizes, sizes, tube_lengths, kinds, kinds, seeds)
def test_stack_trace_matches_dense_trace(m, n, p, kind_a, kind_b, seed):
    """The Fourier trace kernel against trace(tprod_dense(...)), for tr(A*B)
    with A of m x n and B of n x m, and for tr(A*B*A) with both n x n."""
    from tspectral.transform import _product_kind, _stack_trace, _to_stack

    def kernel(*factors):
        kind = _product_kind(*factors)
        got = _stack_trace(*(_to_stack(t, kind) for t in factors), p=p, kind=kind)
        assert isinstance(got, float if kind == "real" else complex)
        return got

    rng = np.random.default_rng(seed)
    a, b = _tensor(rng, m, n, p, kind_a), _tensor(rng, n, m, p, kind_b)
    want = trace(tprod_dense(a, b))
    assert abs(kernel(a, b) - want) <= 1e-12 * frobenius_norm(a) * frobenius_norm(b)
    a, b = _tensor(rng, n, n, p, kind_a), _tensor(rng, n, n, p, kind_b)
    want = trace(tprod_dense(tprod_dense(a, b), a))
    assert abs(kernel(a, b, a) - want) <= 1e-12 * frobenius_norm(a) ** 2 * frobenius_norm(b)


@PROPERTY_SETTINGS
@given(sizes, tube_lengths, kinds, st.booleans(), seeds)
def test_eigenvalues_match_bcirc(n, p, kind, hermitian, seed):
    rng = np.random.default_rng(seed)
    t = _hermitian(rng, n, p, kind) if hermitian else _tensor(rng, n, n, p, kind)
    spec = t_eigenvalues(t)
    assert len(spec) == n * p
    assert sorted(spec.provenance) == sorted(np.repeat(np.arange(1, p + 1), n))
    assert_multiset_close(spec.values, oracle_eigenvalues(list(t.slices())), 1e-9 * (1 + n * p))
    if hermitian:
        assert spec.is_real


@PROPERTY_SETTINGS
@given(sizes, tube_lengths, kinds, seeds)
def test_hermitian_eigenvalues_are_one_values_only_solve(n, p, kind, seed):
    """``t_eigenvalues`` of a Hermitian tensor is bit for bit the sorted values-only
    factors that the PSD checks read, and agrees with ``hermitian_eig`` to roundoff."""
    t = _hermitian(np.random.default_rng(seed), n, p, kind)
    got = t_eigenvalues(t).values
    values_only = _decompose(t, "is_psd", vectors=False).fourier_eigenvalues
    assert got.tobytes() == np.sort(values_only.ravel())[::-1].tobytes()
    with_vectors = np.sort(hermitian_eig(t).fourier_eigenvalues.ravel())[::-1]
    assert np.abs(got - with_vectors).max() <= EIGH_VALUES_RTOL * max(1.0, np.abs(got).max())


@PROPERTY_SETTINGS
@given(sizes, tube_lengths, kinds, seeds)
def test_hermitian_eig_reconstructs(n, p, kind, seed):
    rng = np.random.default_rng(seed)
    h = _hermitian(rng, n, p, kind)
    f = hermitian_eig(h)
    assert f.fourier_eigenvalues.shape == (n, p)
    assert np.all(np.diff(f.fourier_eigenvalues, axis=0) <= 0.0)
    assert_multiset_close(f.fourier_eigenvalues, np.linalg.eigvalsh(_dense(h)), 1e-9 * (1 + n))
    rebuilt = tprod_fft(tprod_fft(f.q, f.l), conj_transpose(f.q))
    _assert_dense_close(rebuilt, _dense(h))
    _assert_dense_close(tprod_fft(f.q, conj_transpose(f.q)), np.eye(n * p))
    _assert_kind(f.q, h)
    _assert_kind(f.l, h)


@PROPERTY_SETTINGS
@given(sizes, sizes, tube_lengths, kinds, seeds)
def test_t_svd_reconstructs(m, n, p, kind, seed):
    rng = np.random.default_rng(seed)
    t = _tensor(rng, m, n, p, kind)
    f = t_svd(t)
    assert (f.u.shape, f.s.shape, f.v.shape) == ((m, m, p), (m, n, p), (n, n, p))
    assert f.fourier_singular_values.shape == (min(m, n), p)
    want = np.linalg.svd(_dense(t), compute_uv=False)
    assert_multiset_close(f.fourier_singular_values, want, 1e-9 * (1 + n * p))
    _assert_dense_close(tprod_fft(tprod_fft(f.u, f.s), conj_transpose(f.v)), _dense(t))
    _assert_dense_close(tprod_fft(f.u, conj_transpose(f.u)), np.eye(m * p))
    _assert_dense_close(tprod_fft(f.v, conj_transpose(f.v)), np.eye(n * p))
    for factor in (f.u, f.s, f.v):
        _assert_kind(factor, t)


def _dense_function(mat, fn):
    w, v = np.linalg.eigh(mat)
    fw = {"sqrt": np.sqrt, "log": np.log, "inv_sqrt": lambda x: 1.0 / np.sqrt(x)}.get(
        fn, lambda x: x**0.3
    )(w)
    return (v * fw) @ v.conj().T


@PROPERTY_SETTINGS
@given(sizes, tube_lengths, kinds, st.sampled_from(["sqrt", "log", "inv_sqrt", "pow"]), seeds)
def test_t_function_matches_dense(n, p, kind, fn, seed):
    rng = np.random.default_rng(seed)
    a = _psd(rng, n, p, kind, shift=0.5)
    out = t_function(a, fn, exponent=0.3 if fn == "pow" else None)
    _assert_dense_close(out, _dense_function(_dense(a), fn))
    _assert_kind(out, a)


@PROPERTY_SETTINGS
@given(sizes, tube_lengths, kinds, kinds, seeds)
def test_bures_wasserstein_matches_oracle(n, p, kind_a, kind_b, seed):
    rng = np.random.default_rng(seed)
    a, b = _psd(rng, n, p, kind_a, shift=0.1), _psd(rng, n, p, kind_b, shift=0.1)
    want = bw_bcirc_oracle(list(a.slices()), list(b.slices()))
    scale = np.sqrt(np.trace(_dense(a)).real + np.trace(_dense(b)).real)
    assert abs(want.imag) <= 1e-9 * scale
    assert abs(dist_bures_wasserstein(a, b) - want.real) <= 1e-9 * scale


@PROPERTY_SETTINGS
@given(sizes, tube_lengths, kinds, kinds, st.booleans(), seeds)
def test_geodesic_traces_match_oracle(n, p, kind_a, kind_b, singular_b, seed):
    rng = np.random.default_rng(seed)
    a = _psd(rng, n, p, kind_a, shift=0.5)
    if not singular_b:
        b = _psd(rng, n, p, kind_b, shift=0.5)
    elif n > 1:
        b = _psd(rng, n, p, kind_b, rank=n - 1)
    else:
        b = 0.0 * _psd(rng, n, p, kind_b)
    prof = geodesic_trace_profile(a, b, 5)
    slices_a, slices_b = list(a.slices()), list(b.slices())
    want = [np.trace(geodesic_bcirc_oracle(slices_a, slices_b, t)).real for t in prof.ts]
    np.testing.assert_allclose(prof.traces, want, rtol=1e-9, atol=1e-12 * np.abs(want).max())
    _assert_kind(geodesic(a, b, 0.5), a, b)


def _general(rng, n, p, kind):
    return _tensor(rng, n, n, p, kind)


# The (A, B) draws of each two-operand bound, from (rng, n, p, kind).
_BOUND_OPERANDS = {
    "vn_trace_bounds": (_psd, _psd),
    "hermitian_trace_bounds": (_hermitian, _hermitian),
    "sandwich_bounds": (_psd, _psd),
    "extremal_ratio_bounds": (_hermitian, _psd),
    "symmetric_relax_bounds": (_general, _hermitian),
}


def _dense_bound(name, da, db):
    """(lower, value, upper) of a bound from dense eigvalsh(bcirc(.)) and bcirc traces."""
    lam_b = np.linalg.eigvalsh(db)[::-1]
    big_n, tr_a, tr_b = len(lam_b), np.trace(da).real, np.trace(db).real
    tr_ab = np.trace(da @ db).real
    if name == "symmetric_relax_bounds":
        lam_bar = np.linalg.eigvalsh((da + da.T) / 2)[::-1]
        lower, upper = (lam * tr_b - lam_b[-1] * (big_n * lam - tr_a)
                        for lam in (lam_bar[-1], lam_bar[0]))
        return lower, tr_ab, upper
    lam_a = np.linalg.eigvalsh(da)[::-1]
    if name == "sandwich_bounds":
        return lam_b[-1] * tr_a**2 / big_n, np.trace(da @ db @ da).real, lam_b[0] * tr_a**2
    if name == "extremal_ratio_bounds":
        return lam_a[-1], tr_ab / tr_b, lam_a[0]
    return lam_a @ lam_b[::-1], tr_ab, lam_a @ lam_b


@pytest.mark.parametrize("name", sorted(_BOUND_OPERANDS))
@PROPERTY_SETTINGS
@given(n=sizes, p=tube_lengths, kind_a=kinds, kind_b=kinds, seed=seeds)
def test_bound_fields_match_dense_twins(name, n, p, kind_a, kind_b, seed):
    """lower, value and upper of each two-operand bound against the dense route,
    on real, mixed and complex pairs (real only for the relaxed bound)."""
    if name == "symmetric_relax_bounds":
        kind_a = kind_b = "real"
    rng = np.random.default_rng(seed)
    draw_a, draw_b = _BOUND_OPERANDS[name]
    a, b = draw_a(rng, n, p, kind_a), draw_b(rng, n, p, kind_b)
    report = getattr(bounds, name)(a, b)
    want = _dense_bound(name, _dense(a), _dense(b))
    got = (report.lower, report.value, report.upper)
    scale = max(1.0, *map(abs, want))
    assert np.abs(np.subtract(got, want)).max() <= BOUND_TWIN_RTOL * scale, (got, want)


@PROPERTY_SETTINGS
@given(sizes, tube_lengths, kinds, kinds, seeds)
def test_log_euclidean_matches_dense_twin(n, p, kind_a, kind_b, seed):
    """||log bcirc(A) - log bcirc(B)||_F, each log through eigh of the dense bcirc."""
    rng = np.random.default_rng(seed)
    a, b = _psd(rng, n, p, kind_a, shift=0.5), _psd(rng, n, p, kind_b, shift=0.5)
    want = np.linalg.norm(_dense_function(_dense(a), "log") - _dense_function(_dense(b), "log"))
    got = dist_log_euclidean(a, b)
    assert abs(got - want) <= LOG_EUCLIDEAN_TWIN_RTOL * max(1.0, want), (got, want)


@PROPERTY_SETTINGS
@given(sizes, tube_lengths, kinds, st.sampled_from(["max", "min"]), seeds)
def test_extremal_ratio_witness_matches_dense_twin(n, p, kind, which, seed):
    """B is PSD by dense eigvalsh, and tr(bcirc(A) bcirc(B)) / tr(bcirc(B)) is
    the dense lambda_max or lambda_min of bcirc(A)."""
    a = _hermitian(np.random.default_rng(seed), n, p, kind)
    b = extremal_ratio_witness(a, which)
    _assert_kind(b, a)
    da, db = _dense(a), _dense(b)
    lam_b = np.linalg.eigvalsh(db)
    assert lam_b[0] >= -WITNESS_PSD_RTOL * max(1.0, lam_b[-1])
    lam_a = np.linalg.eigvalsh(da)
    want = lam_a[-1] if which == "max" else lam_a[0]
    ratio = np.trace(da @ db).real / np.trace(db).real
    assert abs(ratio - want) <= WITNESS_RATIO_RTOL * max(1.0, abs(want)), (ratio, want)


def _stack_shapes(call):
    """call() and the (solver, stack shape) of each eigh and eigvalsh it runs."""
    solves = []

    def recording(name):
        solver = getattr(np.linalg, name)

        def solve(stack, *args, **kwargs):
            solves.append((name, stack.shape))
            return solver(stack, *args, **kwargs)

        return solve

    with mock.patch.object(np.linalg, "eigh", recording("eigh")), \
            mock.patch.object(np.linalg, "eigvalsh", recording("eigvalsh")):
        return call(), solves


@PROPERTY_SETTINGS
@given(sizes, st.integers(1, 6), st.booleans(), seeds)
def test_mixed_kinds_match_the_complex_cast(n, p, singular_b, seed):
    """A real PD A meets a complex PSD B, in both orders: each geometry call
    gives, to roundoff, what it gives with A cast to complex, and A is still
    solved on its p // 2 + 1 rfft slices (B and M on all p)."""
    rng = np.random.default_rng(seed)
    a = _psd(rng, n, p, "real", shift=0.5)
    b = _psd(rng, n, p, "complex", rank=max(n - 1, 1)) if singular_b else \
        _psd(rng, n, p, "complex", shift=0.5)
    a_cast = Tensor3(a.data.astype(complex))
    half, full = ("eigh", (p // 2 + 1, n, n)), ("eigh", (p, n, n))
    a_values, b_values = ("eigvalsh", half[1]), ("eigvalsh", full[1])

    def profile(x, y):
        return geodesic_trace_profile(x, y, 5).traces

    def midpoint(x, y):
        return geodesic(x, y, 0.5).data

    cases = [  # (call, operands, solves on the mixed pair)
        (dist_bures_wasserstein, (a, b), [half, full]),
        (dist_bures_wasserstein, (b, a), [full, half]),
        (profile, (a, b), [half, b_values, full]),
        (midpoint, (a, b), [half, b_values, full]),
    ]
    if not singular_b:  # B is positive definite as well
        cases += [
            (dist_log_euclidean, (a, b), [half, full]),
            (dist_log_euclidean, (b, a), [full, half]),
            (profile, (b, a), [full, a_values, full]),
            (midpoint, (b, a), [full, a_values, full]),
        ]
    for call, (x, y), solves in cases:
        got, seen = _stack_shapes(lambda: call(x, y))
        assert seen == solves, call
        want = call(*(a_cast if t is a else t for t in (x, y)))
        scale = np.abs(want).max() + 1.0
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9 * scale, err_msg=str(call))


@pytest.mark.parametrize("p", [3, 4, 5, 8])
def test_half_stack_round_trip_and_weights(p):
    from tspectral.transform import _all_slices, _from_stack, _slice_weights, _to_stack

    rng = np.random.default_rng(p)
    t = _tensor(rng, 2, 3, p, "real")
    half = _to_stack(t)
    assert half.shape == (p // 2 + 1, 2, 3)
    full = np.moveaxis(np.fft.fft(t.data, axis=2), 2, 0)
    np.testing.assert_allclose(_all_slices(half, p), full, atol=1e-12)
    assert _slice_weights(len(half), p).sum() == p
    back = _from_stack(half, p, "real")
    assert back.kind == "real"
    np.testing.assert_allclose(back.data, t.data, atol=1e-12)


@pytest.mark.parametrize("p, edge", [(3, 0), (4, 0), (4, 2), (5, 0), (8, 4)])
def test_half_stack_edge_imaginary_part_is_not_dropped(p, edge):
    """irfft ignores the imaginary parts of the DC and Nyquist slices; a real
    inverse must refuse them rather than lose them, as one of all p slices does."""
    from tspectral.transform import _from_stack, _to_stack

    half = _to_stack(identity(2, p)).copy()
    half[edge, 0, 1] += 1e-3j
    with pytest.raises(NumericError, match="residue"):
        _from_stack(half, p, "real")
    full = np.concatenate([half, half[1 : p - len(half) + 1][::-1].conj()])
    with pytest.raises(NumericError, match="residue"):
        _from_stack(full, p, "real")
    half[edge, 0, 1] -= 1e-3j
    half[1, 0, 1] += 1e-3j  # an interior slice stands for a conjugate pair: no residue
    assert _from_stack(half, p, "real").kind == "real"


# -0.0, the smallest subnormal, a mid subnormal, the float range ends and
# integer-valued floats, beside hypothesis' own finite floats; then the
# writer's layout boundaries (1e-5, 1e-4 and 1e16 with their neighbours below),
# tokens that hold "0.0000" inside, and a band value behind a wide exponent
_EDGE_FLOATS = [-0.0, 5e-324, -2.5e-310, 1e308, -1e308, 1.7976931348623157e308, 3.0, -1e16,
                1e-5, -9.999999999999999e-06, 1e-4, -9.999999999999999e-05,
                1e16, 9999999999999998.0, 1e22, 10.00003, -100.00001, 6.103515625e-05]
file_entries = st.one_of(
    st.sampled_from(_EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False)
)


@st.composite
def file_tensors(draw):
    m, n, p = (draw(st.integers(1, 5)) for _ in range(3))
    factor = 2 if draw(kinds) == "complex" else 1
    size = factor * m * n * p
    entries = draw(st.lists(file_entries, min_size=size, max_size=size))
    data = np.array(entries, dtype=np.float64).reshape(m, n, p, factor)
    return Tensor3(data.view(np.complex128 if factor == 2 else np.float64)[..., 0])


def _per_element_encoding(t):
    """The reference encoding: float() of each element, streamed by json.dump."""
    flat = np.transpose(t.data, (2, 0, 1)).ravel()
    if t.kind == "complex":
        data = [[float(z.real), float(z.imag)] for z in flat]
    else:
        data = [float(x) for x in flat]
    buf = io.StringIO()
    json.dump({"dims": [t.m, t.n, t.p], "kind": t.kind, "data": data}, buf)
    buf.write("\n")
    return buf.getvalue().encode("utf-8")


@PROPERTY_SETTINGS
@given(file_tensors())
def test_tensor_file_round_trip_is_exact(t):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.json"
        write_tensor(t, path)
        assert path.read_bytes() == _per_element_encoding(t)
        back = read_tensor(path)
    assert (back.kind, back.shape) == (t.kind, t.shape)
    assert back.data.tobytes() == t.data.tobytes()


_FLOAT_MAX = 1.7976931348623157e308
# JSON number texts: shortest reprs of edge and random floats, integers (-0,
# beyond 2^64, up to the float range end) and decimals with more digits than a
# double holds, which both parsers must round the same way
number_texts = st.one_of(
    st.sampled_from(["-0", "-0.0", "1E5", "2.5e-324", "4.9e-324", "1e-400"]),
    st.sampled_from([*_EDGE_FLOATS, -_FLOAT_MAX, 2.0**64, -(2.0**63)]).map(repr),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-(2**70), 2**70).map(str),
    st.integers(-int(_FLOAT_MAX), int(_FLOAT_MAX)).map(str),
    st.builds(
        lambda sign, digits, exp: f"{sign}{digits[0]}.{digits[1:]}e{exp}",
        st.sampled_from(["", "-"]),
        st.integers(10**16, 10**24).map(str),
        st.integers(-340, 300),
    ),
)


def _json_reference(text):
    """The tensor data as the standard-library reader built it: json.loads of
    the text, float() of every number, slice-major order."""
    doc = json.loads(text)
    m, n, p = doc["dims"]
    if doc["kind"] == "complex":
        flat = np.array([complex(float(re), float(im)) for re, im in doc["data"]])
    else:
        flat = np.array([float(v) for v in doc["data"]])
    return np.ascontiguousarray(np.transpose(flat.reshape(p, m, n), (1, 2, 0)))


@PROPERTY_SETTINGS
@given(st.tuples(sizes, sizes, sizes), kinds, st.sampled_from(["", " ", "\n", "\r", "\r\n"]),
       st.data())
def test_tensor_file_reads_as_json_reads_it(dims, kind, sep, data):
    """Every valid file reads bit for bit as json.loads reads it, whatever
    spelling its numbers and line breaks take."""
    m, n, p = dims
    size = (2 if kind == "complex" else 1) * m * n * p
    texts = data.draw(st.lists(number_texts, min_size=size, max_size=size))
    if kind == "complex":
        texts = [f"[{re},{sep}{im}]" for re, im in zip(texts[::2], texts[1::2])]
    data_text = f",{sep}".join(texts)
    text = f'{{"dims": [{m}, {n}, {p}],{sep}"kind": "{kind}",{sep}"data": [{data_text}]}}'
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.json"
        path.write_bytes(text.encode("utf-8"))
        got = read_tensor(path)
    want = _json_reference(text)
    assert (got.kind, got.data.dtype) == (kind, want.dtype)
    assert got.data.tobytes() == want.tobytes()


# Integers at the int64, uint64 and float range edges, and beyond them
_EDGE_INTS = [0, -1, 2**53 + 1, 2**63 - 1, 2**63, -(2**63), -(2**63) - 1, 2**64 - 1, 2**64,
              2**64 + 1, -(2**64) - 1, 10**300, -(10**300), 10**400, -(10**400)]
doc_numbers = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-(2**70), 2**70),
    st.sampled_from(_EDGE_INTS),
)
# strings with and without the letters of true, false and null; "12" and
# {"a": 1, "b": 2} have length 2, like a [re, im] pair
doc_odd_values = st.one_of(
    st.booleans(),
    st.none(),
    st.sampled_from([float("nan"), float("inf"), -float("inf")]),
    st.sampled_from(["1.5", "12", "", "full", "null", "u", "abc", "0e1"]),
    st.text(max_size=3),
    st.lists(doc_numbers, max_size=3),
    st.dictionaries(st.sampled_from(["a", "b", "f"]), doc_numbers, max_size=2),
)


@st.composite
def tensor_documents(draw):
    """The text of a tensor file: mostly well-typed data with up to two
    entries spoiled, sometimes every number nested one level deeper, and
    sometimes an extra string field."""
    kind = draw(kinds)
    m, n, p = draw(sizes), draw(sizes), draw(sizes)
    # one integer beyond int64 sends the whole data to the exact gate, so most
    # documents draw from a range without them
    numbers = draw(st.sampled_from([
        st.floats(allow_nan=False, allow_infinity=False),
        st.integers(-(2**63), 2**63 - 1),
        doc_numbers,
    ]))
    pair = st.lists(numbers, min_size=2, max_size=2)
    data = draw(st.lists(numbers if kind == "real" else pair, min_size=m * n * p,
                         max_size=m * n * p))
    spoiled = st.one_of(
        st.sampled_from([True, False, None]),  # a lone false leaves no "u", true or null no "f"
        doc_odd_values,
        st.lists(st.one_of(doc_numbers, doc_odd_values), min_size=2, max_size=2),
        st.lists(doc_numbers, max_size=3),
        doc_numbers,
    )
    if draw(st.integers(0, 7)) == 0:  # every number one list deeper
        data = [[v] for v in data] if kind == "real" else [[[re], [im]] for re, im in data]
    for _ in range(draw(st.integers(0, 2))):
        data[draw(st.integers(0, len(data) - 1))] = draw(spoiled)
    doc = {"dims": [m, n, p], "kind": kind, "data": data}
    if draw(st.booleans()):
        doc["note"] = draw(st.one_of(st.sampled_from(["full", "sum", "ok", "x"]), st.text()))
    return json.dumps(doc)


@settings(PROPERTY_SETTINGS, max_examples=400)
@given(tensor_documents())
def test_tensor_file_reads_as_the_reference_reads_it(text):
    """Every document, well-typed or not, with or without the letters of
    true, false and null, gives the data or the ParseError text of the
    frozen exact-gate reader."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.json"
        path.write_text(text, encoding="utf-8")
        try:
            want = reference_read_tensor(path)
        except ParseError as exc:
            with pytest.raises(ParseError) as err:
                read_tensor(path)
            assert str(err.value) == str(exc)
            return
        got = read_tensor(path)
    assert got.data.dtype == want.dtype
    assert got.data.tobytes() == want.tobytes()


@PROPERTY_SETTINGS
@given(sizes, tube_lengths, kinds, st.booleans(), seeds)
def test_hermitian_residual_is_the_tensor_form(n, p, kind, hermitian, seed):
    rng = np.random.default_rng(seed)
    t = _hermitian(rng, n, p, kind) if hermitian else _tensor(rng, n, n, p, kind)
    assert is_hermitian(t).residual == frobenius_norm(t - conj_transpose(t))


def _source_array(rng, m, n, p, source):
    if source == "transposed":
        return rng.standard_normal((p, n, m)).transpose(2, 1, 0)
    if source == "int":
        return rng.integers(-9, 10, (m, n, p))
    if source == "float32":
        return rng.standard_normal((m, n, p)).astype(np.float32)
    return (rng.standard_normal((m, n, p)) + 1j * rng.standard_normal((m, n, p))).astype(
        np.complex64
    )


@PROPERTY_SETTINGS
@given(sizes, sizes, tube_lengths, st.sampled_from(["transposed", "int", "float32", "complex64"]),
       seeds)
def test_tensor_data_is_one_private_c_contiguous_copy(m, n, p, source, seed):
    v = _source_array(np.random.default_rng(seed), m, n, p, source)
    t = Tensor3(v)
    assert t.data.dtype == (np.complex128 if source == "complex64" else np.float64)
    assert t.data.flags.c_contiguous and not t.data.flags.writeable
    assert not np.shares_memory(t.data, v)
    assert np.array_equal(t.data, v)


@PROPERTY_SETTINGS
@given(sizes, tube_lengths, seeds)
def test_random_psd_is_m_times_m_transpose(n, p, seed):
    m = Tensor3(np.random.default_rng(seed).standard_normal((n, n, p)))
    want = tprod_dense(m, conj_transpose(m))
    got = random_psd(n, p, seed)
    assert got.kind == "real"
    assert frobenius_norm(got - want) <= 1e-12 * frobenius_norm(want)


@PROPERTY_SETTINGS
@given(st.integers(1, 4), sizes, st.sampled_from([1, 2, 3, 4, 5]), kinds, seeds)
def test_batch_kernels_equal_per_item_calls(batch, n, p, kind, seed):
    """Each private kernel on a stack of B items gives, item by item, what the
    B = 1 call gives; item 0 is scaled by 1e200 so the norm rescales it alone."""
    rng = np.random.default_rng(seed)
    items = [_psd(rng, n, p, kind) * (1e200 if i == 0 else 1.0) for i in range(batch)]
    others = [_tensor(rng, n, n, p, kind) for _ in range(batch)]
    data = np.stack([t.data for t in items])
    other = np.stack([t.data for t in others])
    eig_kind = "real" if kind == "real" else None

    stacks, other_stacks = _to_stack(data), _to_stack(other)
    for i in range(batch):
        assert np.array_equal(stacks[i], _to_stack(items[i]))
        assert np.array_equal(_conj_transpose_data(other)[i], _conj_transpose_data(others[i].data))
        assert np.array_equal(_adjoint(other_stacks)[i], _adjoint(other_stacks[i]))
        assert np.array_equal(_all_slices(other_stacks, p)[i], _all_slices(other_stacks[i], p))
        assert _norm(other, 1)[i] == pytest.approx(_norm(others[i].data), rel=1e-14)
        assert _norm(data, 1)[i] == pytest.approx(_norm(items[i].data), rel=1e-14)
    for out_kind in ({"real", None, "complex"} if kind == "real" else {None, "complex"}):
        inverse = _from_stack(stacks, p, out_kind)
        for i in range(batch):
            assert np.allclose(inverse[i], _from_stack(stacks[i], p, out_kind).data, rtol=1e-14, atol=0)
    traces = _stack_trace(other_stacks, stacks, p=p, kind=kind)
    batch_check = is_hermitian(data)
    factors = _stack_eig(stacks, p, eig_kind, vectors=False)
    psd = factors._verdict()
    for i in range(batch):
        one = _stack_eig(stacks[i], p, eig_kind, vectors=False)
        assert np.array_equal(factors.fourier_eigenvalues[i], one.fourier_eigenvalues)
        verdict = one._verdict()
        assert (psd.ok[i], psd.min_eigenvalue[i]) == (verdict.ok, verdict.min_eigenvalue)
        check = is_hermitian(items[i])
        assert batch_check.ok[i] == check.ok
        assert batch_check.residual[i] == pytest.approx(check.residual, rel=1e-12, abs=0)
        want = _stack_trace(other_stacks[i], stacks[i], p=p, kind=kind)
        assert traces[i] == pytest.approx(want, rel=1e-13, abs=1e-13 * abs(want) + 1e-300)

    # the batch-capable bounds and the Bures-Wasserstein kernel; the partners are
    # complex, so a real batch meets a complex one and goes on all p slices
    partners = [_psd(rng, n, p, "complex") for _ in range(batch)]
    partner = np.stack([t.data for t in partners])
    checked = [_checked(x, "dist_bures_wasserstein", name, kind="complex")
               for x, name in ((data, "A"), (partner, "B"))]
    dist = _bures_wasserstein(*checked)
    for i in range(batch):
        want = dist_bures_wasserstein(items[i], partners[i])
        assert dist[i] == pytest.approx(want, rel=1e-12, abs=1e-12)
    if kind == "real":
        relax = symmetric_relax_bounds(other, data)
        for i in range(batch):
            one = symmetric_relax_bounds(others[i], items[i])
            got = [relax.lower[i], relax.value[i], relax.upper[i]]
            want = [one.lower, one.value, one.upper]
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())
            assert relax.satisfied[i] == one.satisfied
