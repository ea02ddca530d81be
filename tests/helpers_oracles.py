"""Brute-force reference implementations used as independent test oracles.

Everything here works on plain numpy arrays or lists of frontal slices and
deliberately avoids the library's fold/bcirc/FFT code paths, so agreement
between the two is meaningful.
"""

import numpy as np
import scipy.linalg as sla
from scipy.optimize import linear_sum_assignment


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


def random_spd_matrix(rng, n):
    g = rng.standard_normal((n, n))
    return g @ g.T + 0.05 * np.eye(n)


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


FROZEN_SWEEPS = {
    "vn-bounds": _frozen_sweep_vn,
    "sandwich": _frozen_sweep_sandwich,
    "ratio": _frozen_sweep_ratio,
    "concavity": _frozen_sweep_concavity,
}


def frozen_sweep(prop, seed, trials):
    """Per-trial pass list of ``prop`` over trials 0..trials-1 of ``seed``."""
    fn = FROZEN_SWEEPS[prop]
    return [bool(fn(np.random.default_rng((seed, trial)))) for trial in range(trials)]
