"""Brute-force reference implementations used as independent test oracles.

Everything here works on plain numpy arrays or lists of frontal slices and
deliberately avoids the library's fold/bcirc/FFT code paths, so agreement
between the two is meaningful.
"""

import io
import json
from itertools import chain

import numpy as np
import orjson
import scipy.linalg as sla
from scipy.optimize import linear_sum_assignment

from tspectral import ParseError


def assert_multiset_close(actual, desired, tol):
    """Match two complex multisets with an optimal assignment and require
    every matched pair to be within ``tol``.  Robust against ordering flips
    between conjugate pairs whose real parts tie only up to roundoff."""
    a = np.asarray(actual, dtype=complex).ravel()
    d = np.asarray(desired, dtype=complex).ravel()
    assert a.shape == d.shape, f"multiset sizes differ: {a.shape} vs {d.shape}"
    cost = np.abs(a[:, None] - d[None, :])
    rows, cols = linear_sum_assignment(cost)
    worst = cost[rows, cols].max() if len(rows) else 0.0
    assert worst <= tol, f"multiset mismatch: worst matched distance {worst:.3e} > {tol:.0e}"


def oracle_bcirc(slices):
    """Block-circulant matrix assembled block by block."""
    p = len(slices)
    m, n = slices[0].shape
    out = np.zeros((m * p, n * p), dtype=np.result_type(*slices))
    for i in range(p):
        for j in range(p):
            out[i * m : (i + 1) * m, j * n : (j + 1) * n] = slices[(i - j) % p]
    return out


def oracle_bcirc_gather(data):
    """Block-circulant matrix of tensor data by one fancy-index gather of the
    (m, n, p, p) blocks, block (i, j) = slice (i - j) mod p, then a C-order copy."""
    m, n, p = data.shape
    idx = (np.arange(p)[:, None] - np.arange(p)[None, :]) % p
    blocks = data[:, :, idx]
    return np.ascontiguousarray(np.transpose(blocks, (2, 0, 3, 1)).reshape(m * p, n * p))


def oracle_fourier_blocks(slices, tol=1e-10):
    """The p diagonal blocks of (F kron I) bcirc(A) (F kron I)^H, shape (p, m, n),
    with F the unitary DFT matrix built entry by entry; every off-diagonal
    block must vanish to ``tol`` relative to the largest entry."""
    p = len(slices)
    m, n = slices[0].shape
    j = np.arange(p)
    f = np.exp(-2j * np.pi * np.outer(j, j) / p) / np.sqrt(p)
    big = np.kron(f, np.eye(m)) @ oracle_bcirc(slices) @ np.kron(f, np.eye(n)).conj().T
    blocks = big.reshape(p, m, p, n).transpose(0, 2, 1, 3)  # blocks[k, l] is block (k, l)
    diag = blocks[j, j].copy()
    blocks[j, j] = 0.0
    assert np.abs(blocks).max() <= tol * (1.0 + np.abs(diag).max())
    return diag


def oracle_tprod_slices(a_slices, b_slices):
    """t-product as an explicit circular convolution of frontal slices."""
    p = len(a_slices)
    out = []
    for k in range(p):
        acc = np.zeros(
            (a_slices[0].shape[0], b_slices[0].shape[1]),
            dtype=np.result_type(a_slices[0], b_slices[0]),
        )
        for j in range(p):
            acc = acc + a_slices[j] @ b_slices[(k - j) % p]
        out.append(acc)
    return out


def oracle_rayleigh_value(a_slices, x_slices):
    """y^H ((M + M^H) / 2) y with M the block-circulant matrix of A, assembled block by
    block, and y the unfolding of the n x 1 x p tensor x: its slices stacked vertically."""
    mat = oracle_bcirc(a_slices)
    y = np.concatenate([np.ravel(s) for s in x_slices])
    return float(np.real(np.conj(y) @ ((mat + mat.conj().T) / 2.0) @ y))


def oracle_eigenvalues(slices):
    """Eigenvalues of the dense block-circulant matrix."""
    return np.linalg.eigvals(oracle_bcirc(slices))


def oracle_trace(slices):
    """Block-circulant trace: p times the first-slice trace."""
    return len(slices) * np.trace(slices[0])


def matrix_sqrt_psd(mat):
    """Hermitian square root with eigenvalues clamped at zero."""
    w, v = np.linalg.eigh(mat)
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T


def matrix_bures_wasserstein(x, y):
    """Classical matrix Bures-Wasserstein distance between PSD matrices."""
    s = matrix_sqrt_psd(x)
    cross = matrix_sqrt_psd(s @ y @ s)
    rad = np.trace(x).real + np.trace(y).real - 2.0 * np.trace(cross).real
    return float(np.sqrt(max(rad, 0.0)))


def bw_bcirc_oracle(a_slices, b_slices, convention="bcirc"):
    """Bures-Wasserstein evaluated literally on dense block-circulant
    matrices with the principal (possibly complex) matrix square root.

    Returns a complex number; for inputs where the formula is real the
    imaginary part is at roundoff level.
    """
    ba = oracle_bcirc(a_slices).astype(complex)
    bb = oracle_bcirc(b_slices).astype(complex)
    s = sla.sqrtm(ba)
    cross = sla.sqrtm(s @ bb @ s)
    rad = np.trace(ba) + np.trace(bb) - 2.0 * np.trace(cross)
    if convention == "slice1":
        rad = rad / len(a_slices)
    return complex(np.sqrt(rad))


def bw_bcirc_mpmath(a_data, b_data, dps=50):
    """Bures-Wasserstein distance of two tensors' data, evaluated literally on
    their dense block-circulant matrices in ``mpmath`` at ``dps`` digits:
    d^2 = tr A + tr B - 2 tr (S B S)^(1/2) with S = A^(1/2), each root from
    ``mpmath.eigh`` (complex Hermitian operands work too), eigenvalues clamped
    at 0.  The float64 entries convert exactly; the result is rounded to a float."""
    import mpmath

    def dense(data):
        return mpmath.matrix(oracle_bcirc([data[:, :, k] for k in range(data.shape[2])]).tolist())

    def root(x):
        w, q = mpmath.eigh((x + x.H) / 2)
        return q * mpmath.diag([mpmath.sqrt(max(v, 0)) for v in w]) * q.H

    def trace(x):
        return mpmath.re(mpmath.fsum(x[i, i] for i in range(x.rows)))

    with mpmath.workdps(dps):
        a, b = dense(a_data), dense(b_data)
        s = root(a)
        rad = trace(a) + trace(b) - 2 * trace(root(s * b * s))
        return float(mpmath.sqrt(max(rad, 0)))


def geodesic_bcirc_oracle(a_slices, b_slices, t, null_rtol=1e-10):
    """Dense A #_t B = S (S^-1 B S^-1)^t S, S = A^(1/2), on block-circulant
    matrices, with every factor from ``numpy.linalg.eigh``.

    Eigenvalues of the middle factor at or below ``null_rtol`` times its
    largest one are B's null space seen through roundoff and count as 0.
    """
    ba = oracle_bcirc(a_slices)
    bb = oracle_bcirc(b_slices)
    lam, v = np.linalg.eigh(ba)
    root = (v * np.sqrt(lam)) @ v.conj().T
    inv_root = (v / np.sqrt(lam)) @ v.conj().T
    mid = inv_root @ bb @ inv_root
    w, q = np.linalg.eigh(0.5 * (mid + mid.conj().T))
    w = np.where(np.abs(w) <= null_rtol * w.max(), 0.0, np.clip(w, 0.0, None))
    return root @ ((q * w**t) @ q.conj().T) @ root


def geodesic_traces_mpmath(a_data, b_data, ts, null_rtol, dps=40):
    """Traces of A #_t B = S (S^-1 C S^-1)^t S, S = A^(1/2), at each t in ``ts``, on the dense
    block-circulant matrices in ``mpmath`` at ``dps`` digits, where C is B's clamp: B's
    eigenvalues at most ``null_rtol`` times its largest one, negative ones included, are set to
    0.  The middle factor's eigenvalues at most 10^(-dps/2) times its largest are C's null space
    and count as 0, so its power at t = 0 is still the identity.  Every root is from
    ``mpmath.eigh``; the traces are rounded to floats."""
    import mpmath

    def dense(data):
        return mpmath.matrix(oracle_bcirc([data[:, :, k] for k in range(data.shape[2])]).tolist())

    def spectral(x, f):
        w, q = mpmath.eigh((x + x.H) / 2)
        return q * mpmath.diag([f(v, max(w)) for v in w]) * q.H

    with mpmath.workdps(dps):
        a, b = dense(a_data), dense(b_data)
        clamp = spectral(b, lambda v, top: 0 if v <= null_rtol * top else v)
        root = spectral(a, lambda v, top: mpmath.sqrt(v))
        inv_root = spectral(a, lambda v, top: 1 / mpmath.sqrt(v))
        w, q = mpmath.eigh(inv_root * clamp * inv_root)
        cols = root * q
        w = [0 if v <= mpmath.mpf(10) ** (-dps // 2) * max(w) else v for v in w]
        return np.array([
            float(mpmath.re(mpmath.fsum(w[i] ** mpmath.mpf(t) * mpmath.fsum(
                abs(cols[j, i]) ** 2 for j in range(cols.rows)) for i in range(len(w)))))
            for t in ts
        ])


def random_spd_matrix(rng, n):
    g = rng.standard_normal((n, n))
    return g @ g.T + 0.05 * np.eye(n)


def random_partial_isometry(rng, k, n, p):
    """A random k x n x p partial isometry U (U * U^H = I_k): on each Fourier
    slice the conjugate transpose of the orthonormalized n x k Gaussian matrix
    drawn as one (p, 2, n, k) array, real parts then imaginary ones."""
    from tspectral import Tensor3

    g = rng.standard_normal((p, 2, n, k))
    q, _ = np.linalg.qr(g[:, 0] + 1j * g[:, 1])
    return Tensor3(np.fft.ifft(q.conj(), axis=0).transpose(2, 1, 0))


# ---------------------------------------------------------------------------
# Frozen per-trial property sweeps: each trial draws from its own
# default_rng((seed, trial)) and decides alone through the single-tensor
# public calls, one trial after another.  ``tspectral sweep`` now decides
# whole shape groups at once; these loops are the oracle for its verdicts.
# ---------------------------------------------------------------------------


def _frozen_sweep_vn(rng):
    from tspectral import random_psd, vn_trace_bounds

    n = int(rng.integers(1, 5))
    p = int(rng.integers(1, 5))
    a = random_psd(n, p, rng)
    b = random_psd(n, p, rng)
    return vn_trace_bounds(a, b).satisfied


def _frozen_sweep_sandwich(rng):
    from tspectral import random_psd, sandwich_bounds

    n = int(rng.integers(1, 5))
    p = int(rng.integers(1, 4))
    a = random_psd(n, p, rng)
    b = random_psd(n, p, rng)
    return sandwich_bounds(a, b).satisfied


def _frozen_random_hermitian(n, p, rng):
    from tspectral import Tensor3, conj_transpose

    m = Tensor3(rng.standard_normal((n, n, p)))
    return (m + conj_transpose(m)) * 0.5


def _frozen_sweep_ratio(rng):
    from tspectral import extremal_ratio_bounds, random_psd

    n = int(rng.integers(1, 5))
    p = int(rng.integers(1, 4))
    a = _frozen_random_hermitian(n, p, rng)
    b = random_psd(n, p, rng)
    return extremal_ratio_bounds(a, b).satisfied


def _frozen_trace_sqrt(x):
    """tr sqrt(X) as the weighted sum of sqrt over its Fourier-slice eigenvalues."""
    from tspectral.spectral import _decompose
    from tspectral.transform import _slice_weights

    factors = _decompose(x, "t_function", vectors=False)
    factors._require("sqrt requires positive semidefinite input")
    roots = np.sqrt(np.clip(factors._w, 0.0, None)).sum(axis=1)
    return float(_slice_weights(len(roots), x.p) @ roots)


def _frozen_sweep_concavity(rng):
    from tspectral import random_psd

    n = int(rng.integers(1, 4))
    p = int(rng.integers(1, 4))
    x = random_psd(n, p, rng)
    y = random_psd(n, p, rng)
    a = float(rng.uniform(0.1, 0.9))
    mixed = _frozen_trace_sqrt(a * x + (1.0 - a) * y)
    split = a * _frozen_trace_sqrt(x) + (1.0 - a) * _frozen_trace_sqrt(y)
    return mixed - split > 1e-12


def _frozen_sweep_kyfan(rng):
    from tspectral import conj_transpose, ky_fan_sum, tprod_fft, trace

    n = int(rng.integers(2, 5))
    p = int(rng.integers(1, 4))
    h = _frozen_random_hermitian(n, p, rng)
    k = int(rng.integers(1, n + 1))
    hi = ky_fan_sum(h, k, which="max").value
    lo = ky_fan_sum(h, k, which="min").value
    hi += 1e-8 * max(1.0, abs(hi))
    lo -= 1e-8 * max(1.0, abs(lo))
    for _ in range(5):
        u = random_partial_isometry(rng, k, n, p)
        val = float(np.real(trace(tprod_fft(tprod_fft(u, h), conj_transpose(u)))))
        if val > hi or val < lo:
            return False
    return True


def _frozen_sweep_bw_axioms(rng):
    from tspectral import dist_bures_wasserstein, random_psd

    n = int(rng.integers(1, 4))
    p = int(rng.integers(1, 4))
    a = random_psd(n, p, rng)
    b = random_psd(n, p, rng)
    c = random_psd(n, p, rng)
    dab = dist_bures_wasserstein(a, b)
    if dab < 0 or abs(dab - dist_bures_wasserstein(b, a)) > 1e-8:
        return False
    if dist_bures_wasserstein(a, a) > 1e-8:
        return False
    dac = dist_bures_wasserstein(a, c)
    dbc = dist_bures_wasserstein(b, c)
    return dac <= dab + dbc + 1e-8


def _frozen_gaussian(n, p, rng):
    from tspectral import Tensor3

    return Tensor3(rng.standard_normal((n, n, p)))


def _frozen_sweep_relax(rng):
    from tspectral import symmetric_relax_bounds

    n = int(rng.integers(1, 4))
    p = int(rng.integers(1, 4))
    a = _frozen_gaussian(n, p, rng)
    b = _frozen_random_hermitian(n, p, rng)
    return symmetric_relax_bounds(a, b).satisfied


FROZEN_SWEEPS = {
    "vn-bounds": _frozen_sweep_vn,
    "sandwich": _frozen_sweep_sandwich,
    "ratio": _frozen_sweep_ratio,
    "kyfan": _frozen_sweep_kyfan,
    "concavity": _frozen_sweep_concavity,
    "bw-metric-axioms": _frozen_sweep_bw_axioms,
    "relax-bounds": _frozen_sweep_relax,
}


def frozen_sweep(prop, seed, trials):
    """Per-trial pass list of ``prop`` over trials 0..trials-1 of ``seed``."""
    fn = FROZEN_SWEEPS[prop]
    return [bool(fn(np.random.default_rng((seed, trial)))) for trial in range(trials)]


# ---------------------------------------------------------------------------
# Frozen tensor-file reader: orjson, then json on any error, then the exact
# per-entry type gate and its error messages, with no shortcut and no
# collector pause.  ``read_tensor`` must give the same data or the same
# ParseError text on every file.
# ---------------------------------------------------------------------------


_REFERENCE_NUMBER_TYPES = {int, float}


def reference_read_tensor(path) -> np.ndarray:
    """The tensor data (m, n, p) of a tensor file, or the ParseError it raises."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ParseError(f"{path}: cannot read tensor file: {exc}") from exc
    try:
        return _reference_from_doc(orjson.loads(raw), path)
    except (orjson.JSONDecodeError, ParseError):
        pass
    try:
        doc = json.loads(io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8").read())
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    except ValueError as exc:
        raise ParseError(f"{path}: cannot parse tensor file: {exc}") from exc
    return _reference_from_doc(doc, path)


def _reference_exact_flat(raw, kind):
    if kind == "real":
        ok = set(map(type, raw)) <= _REFERENCE_NUMBER_TYPES
    else:
        ok = (
            set(map(type, raw)) == {list}
            and set(map(len, raw)) == {2}
            and set(map(type, chain.from_iterable(raw))) <= _REFERENCE_NUMBER_TYPES
        )
    if not ok:
        return None
    try:
        if kind == "real":
            return np.array(raw, dtype=np.float64)
        return np.fromiter(chain.from_iterable(raw), np.float64, 2 * len(raw)).view(np.complex128)
    except OverflowError:
        return None


def _reference_bad_entry(raw, kind, path):
    what, verb = ("a real number", "is") if kind == "real" else ("a [re, im] pair", "holds")
    for i, v in enumerate(raw):
        numbers = [v] if kind == "real" else v if type(v) is list and len(v) == 2 else None
        if numbers is None or not set(map(type, numbers)) <= _REFERENCE_NUMBER_TYPES:
            return ParseError(f"{path}: data[{i}] is not {what}: {v!r}")
        try:
            list(map(float, numbers))
        except OverflowError:
            return ParseError(f"{path}: data[{i}] {verb} an integer beyond float range")
    raise AssertionError("no rejected entry")


def _reference_from_doc(doc, path):
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: top-level value must be an object")
    for key in ("dims", "kind", "data"):
        if key not in doc:
            raise ParseError(f"{path}: missing required field '{key}'")
    dims = doc["dims"]
    if (
        not isinstance(dims, list)
        or len(dims) != 3
        or not all(type(d) is int and d >= 1 for d in dims)
    ):
        raise ParseError(f"{path}: field 'dims' must be three integers >= 1, got {dims!r}")
    m, n, p = dims
    kind = doc["kind"]
    if kind not in ("real", "complex"):
        raise ParseError(f"{path}: field 'kind' must be 'real' or 'complex', got {kind!r}")
    raw = doc["data"]
    if not isinstance(raw, list) or len(raw) != m * n * p:
        got = len(raw) if isinstance(raw, list) else type(raw).__name__
        raise ParseError(
            f"{path}: field 'data' must hold exactly m*n*p = {m * n * p} entries, got {got}"
        )
    flat = _reference_exact_flat(raw, kind)
    if flat is None:
        raise _reference_bad_entry(raw, kind, path)
    if not np.all(np.isfinite(flat.view(np.float64) if kind == "complex" else flat)):
        bad = int(np.flatnonzero(~np.isfinite(flat))[0])
        raise ParseError(f"{path}: data[{bad}] is not finite")
    return np.ascontiguousarray(np.transpose(flat.reshape(p, m, n), (1, 2, 0)))
