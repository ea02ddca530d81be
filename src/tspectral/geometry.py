"""Trace-induced distances and geodesics on the PSD tensor cone.

Three metrics are provided: the Frobenius distance, the Bures-Wasserstein
distance

    d(A, B) = [ tr A + tr B - 2 tr (A^(1/2) * B * A^(1/2))^(1/2) ]^(1/2)

and the log-Euclidean distance ``||log A - log B||_F``, together with the
geodesic ``G(t) = A^(1/2) * (A^(-1/2) * B * A^(-1/2))^t * A^(1/2)``.

The geodesic is set up once per operand pair: one eigendecomposition of A
(Hermitian and positive-definiteness checks, A^(1/2) and A^(-1/2)), one PSD
check of B and one eigendecomposition of M = A^(-1/2) * B * A^(-1/2) =
Q * W * Q^H.  With X = A^(1/2) * Q, Fourier slice k of G(t) is
X_k diag(w_k^t) X_k^H, so a trace sample costs O(np):
tr G(t) = sum_k sum_i w_ik^t ||X_k e_i||^2.  Eigenvalues of M within
``n * eps * lambda_max(M)`` of zero are roundoff in B's null space and are
set to 0, so for singular B every G(t) with t > 0 has B's rank.

Trace conventions: traces default to the block-circulant convention.
Passing ``convention="slice1"`` rescales every trace by ``1/p`` (first
frontal-slice trace), which divides squared distances by ``p``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Tensor3, frobenius_norm, identity, trace
from .errors import DomainError, NumericError, ShapeError, SingularityError
from .spectral import _psd_eig, hermitian_eig, is_psd, pd_tolerance, psd_tolerance, t_function
from .spectral import t_eigenvalues  # noqa: F401  (perfbench's tracing check reads it here)
from .transform import _adjoint, _all_slices, _from_stack, _slice_weights, _to_stack

__all__ = [
    "GeodesicProfile",
    "dist_frobenius",
    "dist_bures_wasserstein",
    "dist_log_euclidean",
    "geodesic",
    "geodesic_trace_profile",
]

_CONVENTIONS = ("bcirc", "slice1")

# Floor for the Bures-Wasserstein radicand before declaring a numeric failure.
RADICAND_FLOOR = -1e-8

# Eigenvalues of A^(-1/2) B A^(-1/2) with |w| <= n * eps * lambda_max count as 0:
# numpy.linalg.matrix_rank's rule, the backward error of an n x n Hermitian eigensolve.
NULL_EIGENVALUE_RTOL = float(np.finfo(np.float64).eps)


def _convention_scale(convention: str, p: int) -> float:
    if convention not in _CONVENTIONS:
        raise ValueError(f"unknown trace convention {convention!r}; use one of {_CONVENTIONS}")
    return 1.0 / p if convention == "slice1" else 1.0


@dataclass(frozen=True)
class GeodesicProfile:
    """Sampled trace evolution along a geodesic."""

    ts: np.ndarray
    traces: np.ndarray
    tensors: tuple[Tensor3, ...] | None = None

    def __post_init__(self):
        ts = np.asarray(self.ts, dtype=np.float64).copy()
        tr = np.asarray(self.traces, dtype=np.float64).copy()
        if ts.ndim != 1 or ts.shape != tr.shape:
            raise ShapeError("ts and traces must be 1-D arrays of equal length")
        if len(ts) < 2 or ts[0] != 0.0 or ts[-1] != 1.0 or np.any(np.diff(ts) <= 0):
            raise DomainError("ts must increase strictly from 0 to 1")
        ts.setflags(write=False)
        tr.setflags(write=False)
        object.__setattr__(self, "ts", ts)
        object.__setattr__(self, "traces", tr)


def _require_same_shape(a: Tensor3, b: Tensor3, op: str) -> None:
    if a.shape != b.shape:
        raise ShapeError(f"{op} requires equal shapes, got {a.shape} vs {b.shape}")


def dist_frobenius(a: Tensor3, b: Tensor3, convention: str = "bcirc") -> float:
    """Frobenius distance ||A - B||_F under the chosen trace convention."""
    _require_same_shape(a, b, "dist_frobenius")
    return math.sqrt(_convention_scale(convention, a.p)) * frobenius_norm(a - b)


def dist_bures_wasserstein(a: Tensor3, b: Tensor3, convention: str = "bcirc") -> float:
    """Bures-Wasserstein distance between PSD tensors.

    The cross term tr((A^(1/2) * B * A^(1/2))^(1/2)) is evaluated as the
    nuclear norm of A^(1/2) * B^(1/2), slice-wise in the Fourier domain.
    The two forms agree exactly for PSD operands, but the nuclear-norm form
    never squares small eigenvalues, so near-singular inputs do not see the
    square root's infinite slope at zero amplify roundoff (this is what
    keeps d(A, A) at the 1e-7 level instead of 1e-5).  With A_k = Q W Q^H
    and B_k = R V R^H, A_k^(1/2) B_k^(1/2) has the singular values of
    W^(1/2) (Q^H R) V^(1/2), so one eigendecomposition per operand serves
    both its PSD check and its root.  A radicand below -1e-8 raises; one in
    [-1e-8, 0] clamps to zero.
    """
    _require_same_shape(a, b, "dist_bures_wasserstein")
    roots = []
    for t, name in ((a, "A"), (b, "B")):
        factors, chk = _psd_eig(t)
        if not chk.ok:
            raise DomainError(
                f"dist_bures_wasserstein requires {name} PSD; "
                f"min eigenvalue {chk.min_eigenvalue:.3e}"
            )
        w, q = factors._w, factors._q_stack
        if a.kind != b.kind:  # the real operand's rfft half, on all p slices
            w, q = _all_slices(w, t.p), _all_slices(q, t.p)
        roots.append((np.sqrt(np.clip(w, 0.0, None)), q))
    (root_wa, qa), (root_wb, qb) = roots
    core = root_wa[:, :, None] * (_adjoint(qa) @ qb) * root_wb[:, None, :]
    nuclear = np.linalg.svd(core, compute_uv=False).sum(axis=1)
    cross = float(_slice_weights(len(nuclear), a.p) @ nuclear)
    radicand = float(np.real(trace(a)) + np.real(trace(b))) - 2.0 * cross
    radicand *= _convention_scale(convention, a.p)
    if radicand < RADICAND_FLOOR:
        raise NumericError(
            f"Bures-Wasserstein radicand {radicand:.3e} below {RADICAND_FLOOR:.0e}"
        )
    return math.sqrt(max(radicand, 0.0))


def dist_log_euclidean(a: Tensor3, b: Tensor3, convention: str = "bcirc") -> float:
    """Log-Euclidean distance ||log A - log B||_F for positive definite tensors."""
    _require_same_shape(a, b, "dist_log_euclidean")
    scale = math.sqrt(_convention_scale(convention, a.p))
    return scale * frobenius_norm(t_function(a, "log") - t_function(b, "log"))


@dataclass(frozen=True)
class _GeodesicFactors:
    """A #_t B in the Fourier domain: slice k of G(t) is x[k] diag(w[k]^t) x[k]^H."""

    x: np.ndarray  # (p', n, n) stack: X_k = A_k^(1/2) Q_k, where M_k = Q_k diag(w_k) Q_k^H
    w: np.ndarray  # (p', n): eigenvalues of M_k, null space set to 0
    kind: str
    p: int

    def tensor(self, t: float) -> Tensor3:
        return _from_stack((self.x * self.w[:, None, :] ** t) @ _adjoint(self.x), self.p, self.kind)

    def traces(self, ts: np.ndarray) -> np.ndarray:
        col_norms = np.sum(np.abs(self.x) ** 2, axis=1)  # ||X_k e_i||^2, shape (p', n)
        col_norms *= _slice_weights(len(self.x), self.p)[:, None]
        return np.array([float(np.sum(self.w**t * col_norms)) for t in ts])


def _geodesic_factors(a: Tensor3, b: Tensor3, regularize: float) -> _GeodesicFactors:
    """Validate A and B and decompose A and M = A^(-1/2) B A^(-1/2), once each."""
    _require_same_shape(a, b, "geodesic")
    if regularize < 0.0:
        raise DomainError(f"regularize must be >= 0, got {regularize!r}")
    if regularize > 0.0:
        a = a + regularize * identity(a.n, a.p)
    eig_a = hermitian_eig(a)
    lam_min = float(eig_a.fourier_eigenvalues.min())
    lam_max = float(eig_a.fourier_eigenvalues.max())
    if lam_min <= pd_tolerance(lam_max):
        raise SingularityError(
            f"geodesic requires positive definite A; min eigenvalue {lam_min:.3e} "
            "(pass regularize=eps to shift explicitly)"
        )
    chk = is_psd(b)
    if not chk.ok:
        raise DomainError(f"geodesic requires B PSD; min eigenvalue {chk.min_eigenvalue:.3e}")
    kind = "real" if a.kind == b.kind == "real" else "complex"
    lam, q_a = eig_a._w, eig_a._q_stack
    if kind != a.kind:  # real A, complex B: A's rfft half on all p slices
        lam, q_a = _all_slices(lam, a.p), _all_slices(q_a, a.p)
    root = np.sqrt(lam)[:, None, :]
    inv_root_a = (q_a / root) @ _adjoint(q_a)
    mid = inv_root_a @ _to_stack(b, kind) @ inv_root_a
    w, q_m = np.linalg.eigh(0.5 * (mid + _adjoint(mid)))
    w_max = float(w.max())
    if w.min() < -psd_tolerance(w_max):
        raise DomainError(
            f"geodesic requires A^(-1/2) B A^(-1/2) PSD; min eigenvalue {w.min():.3e}"
        )
    w[np.abs(w) <= a.n * NULL_EIGENVALUE_RTOL * w_max] = 0.0
    np.clip(w, 0.0, None, out=w)
    x = (q_a * root) @ _adjoint(q_a) @ q_m
    return _GeodesicFactors(x, w, kind, a.p)


def geodesic(a: Tensor3, b: Tensor3, t: float, regularize: float = 0.0) -> Tensor3:
    """Point on the geodesic G(t) = A^(1/2) (A^(-1/2) B A^(-1/2))^t A^(1/2).

    ``a`` must be positive definite (its inverse square root appears in the
    formula); singular ``a`` raises rather than being silently shifted.
    Passing ``regularize=eps > 0`` explicitly adds ``eps * I`` to ``a``
    first.  ``b`` must be PSD and ``t`` must lie in [0, 1].
    """
    if not 0.0 <= t <= 1.0:
        raise DomainError(f"geodesic parameter must lie in [0, 1], got {t!r}")
    return _geodesic_factors(a, b, regularize).tensor(float(t))


def geodesic_trace_profile(
    a: Tensor3,
    b: Tensor3,
    num_samples: int,
    keep_tensors: bool = False,
    regularize: float = 0.0,
) -> GeodesicProfile:
    """Traces of the geodesic at ``num_samples`` uniform t in [0, 1].

    A and M = A^(-1/2) B A^(-1/2) are decomposed once; after that each
    sample costs O(np) (``keep_tensors=True`` adds one O(n^3 p) slice
    product and an inverse FFT per sample).  Eigenvalues of M within
    ``n * eps * lambda_max(M)`` of zero are set to 0, so for singular B
    every G(t) with t > 0 has B's rank; roundoff is not raised to the power t.
    Preconditions and errors are those of :func:`geodesic`.
    """
    if num_samples < 2:
        raise DomainError(f"num_samples must be >= 2, got {num_samples}")
    factors = _geodesic_factors(a, b, regularize)
    ts = np.linspace(0.0, 1.0, num_samples)
    tensors = tuple(factors.tensor(float(t)) for t in ts) if keep_tensors else None
    return GeodesicProfile(ts, factors.traces(ts), tensors)
