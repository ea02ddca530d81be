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
