"""Trace-induced distances and geodesics on the PSD tensor cone.

Three metrics are provided: the Frobenius distance, the Bures-Wasserstein
distance

    d(A, B) = [ tr A + tr B - 2 tr (A^(1/2) * B * A^(1/2))^(1/2) ]^(1/2)

and the log-Euclidean distance ``||log A - log B||_F``, together with the
geodesic ``G(t) = A^(1/2) * (A^(-1/2) * B * A^(-1/2))^t * A^(1/2)``.

Hermitian, PSD and positive-definiteness decisions are made in
:mod:`tspectral.spectral`, whose :func:`~tspectral.spectral._decompose_pair` is the pair
rule: each operand is checked, decomposed and required PSD (or positive definite) once,
errors name ``A`` or ``B``, and log A and the factor R_A = Q W^(1/2) of A = Q W Q^H are
built from its factors as Fourier stacks.  The BW distance is the Procrustes sum of
squares min over unitary U of ||R_A - R_B U||_F^2, never the difference of traces above.
A real operand of a complex product is solved on its rfft half and handed over on all p
slices; every sum over slices is :func:`~tspectral.transform._slice_sum`.
The log-Euclidean distance never leaves the Fourier domain:
||T||_F^2 = sum_k ||T_k||_F^2 over the p Fourier slices.

The geodesic is set up once per operand pair, from any factor A = L * L^H:
G(t) = L * (L^(-1) * B * L^(-H))^t * L^H is the same tensor as the formula
above.  In the pair gate, each operand's Hermitian check is the residual of
:func:`~tspectral.spectral.is_hermitian`; A's positive-definiteness verdict is
a shifted Cholesky certificate, with A's eigenvalues only where it fails, and
B's eigenvalues give its PSD verdict.  One Cholesky factorization per Fourier
slice then gives L, and one eigendecomposition
M = L^(-1) * B * L^(-H) = Q * W * Q^H follows.  With X = L * Q, Fourier slice k
of G(t) is X_k diag(w_k^t) X_k^H, so a trace sample costs O(np):
tr G(t) = sum_k sum_i w_ik^t ||X_k e_i||^2.  M gets no verdict of its own:
B's PSD verdict and null space decide M's (see ``NULL_EIGENVALUE_RTOL``), so
every B that :func:`~tspectral.spectral.is_psd` accepts has a geodesic, to B's
clamp where B has an eigenvalue in the verdict's negative margin.

Trace conventions: traces default to the block-circulant convention.
Passing ``convention="slice1"`` rescales every trace by ``1/p`` (first
frontal-slice trace), which divides squared distances by ``p``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Tensor3, _require_same_shape, frobenius_norm, identity
from .errors import DomainError, NumericError, ShapeError, SingularityError
from .spectral import _decompose_pair, _stack_eig
from .spectral import t_eigenvalues  # noqa: F401  (perfbench's tracing check reads it here)
from .transform import _adjoint, _from_stack, _slice_sum

__all__ = [
    "GeodesicProfile",
    "dist_frobenius",
    "dist_bures_wasserstein",
    "dist_log_euclidean",
    "geodesic",
    "geodesic_trace_profile",
]

_CONVENTIONS = ("bcirc", "slice1")

# An eigenvalue of B at most n * eps * lambda_max(B) counts as 0 (numpy's matrix_rank rule).
# M = L^(-1) B L^(-H) is congruent to B, so by Sylvester's law of inertia each Fourier slice of
# M has B's inertia: B's PSD verdict is M's, and M's eigenvalue i (both spectra descending) is
# set to 0 where B's is null, so for singular B every G(t) with t > 0 has B's rank, also when A
# is ill-conditioned.  A slice where B has an eigenvalue below -n * eps * lambda_max(B), inside
# is_psd's margin, is clamped before M is formed: zeroing M's eigenvalue alone would leave that
# eigenvalue, amplified by up to cond(A), in G(1).  Any other negative eigenvalue of M is
# roundoff of forming it, about eps ||B|| / lambda_min(A), and is clamped at 0.
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


def dist_frobenius(a: Tensor3, b: Tensor3, convention: str = "bcirc") -> float:
    """Frobenius distance ||A - B||_F under the chosen trace convention."""
    _require_same_shape(a, b, "dist_frobenius")
    return math.sqrt(_convention_scale(convention, a.p)) * frobenius_norm(a - b)


def dist_bures_wasserstein(a: Tensor3, b: Tensor3, convention: str = "bcirc") -> float:
    """Bures-Wasserstein distance between PSD tensors.

    It is evaluated in its Procrustes form d(A, B) = min over unitary U of
    ||A^(1/2) - B^(1/2) * U||_F (Bhatia, Jain and Lim, Expo. Math. 37 (2019),
    Thm 1), slice-wise in the Fourier domain.  Any factors R_A R_A^H = A_k and
    R_B R_B^H = B_k serve in place of the roots; with A_k = Q W Q^H they are
    R_A = Q W^(1/2), so one eigendecomposition per operand serves both its PSD
    check and its factor.  With the SVD R_A^H R_B = X S Y^H the minimum is
    ||R_A X - R_B Y||_F, a sum of squares: it is never negative, and near
    pairs (B close to A) keep their digits, where tr A + tr B - 2 tr(...)^(1/2)
    cancels.  Under ``convention="slice1"`` d^2 is divided by p.
    """
    pair = _decompose_pair(a, b, "dist_bures_wasserstein", ("PSD", "PSD"))
    return float(_bures_wasserstein(*pair, _convention_scale(convention, a.p)))


def _bures_wasserstein(checked_a: tuple, checked_b: tuple, scale: float = 1.0):
    """d(A, B) of :func:`dist_bures_wasserstein`, per item for batches, from the
    :func:`_decompose_pair` (factors, clamped eigenvalues) of PSD A and B on the same slices."""
    (fa, wa), (fb, wb) = checked_a, checked_b
    root_a = fa._q_stack * np.sqrt(wa)[..., None, :]
    root_b = fb._q_stack * np.sqrt(wb)[..., None, :]
    x, _, yh = np.linalg.svd(_adjoint(root_a) @ root_b)
    sq_norms = np.sum(np.abs(root_a @ x - root_b @ _adjoint(yh)) ** 2, axis=(-2, -1))
    return np.sqrt(scale * _slice_sum(sq_norms, fa._p))


def dist_log_euclidean(a: Tensor3, b: Tensor3, convention: str = "bcirc") -> float:
    """Log-Euclidean distance ||log A - log B||_F for positive definite tensors.

    log A and log B stay Fourier stacks: ||T||_F^2 is the sum over the p
    Fourier slices of ||T_k||_F^2, so no inverse transform is needed.
    """
    pair = _decompose_pair(a, b, "dist_log_euclidean", ("positive definite", "positive definite"))
    log_a, log_b = (f._apply(np.log(w)) for f, w in pair)
    sq_norms = np.sum(np.abs(log_a - log_b) ** 2, axis=(1, 2))  # per Fourier slice
    sq_norm = float(_slice_sum(sq_norms, a.p))
    return math.sqrt(_convention_scale(convention, a.p) * sq_norm)


@dataclass(frozen=True)
class _GeodesicFactors:
    """A #_t B in the Fourier domain: slice k of G(t) is x[k] diag(w[k]^t) x[k]^H."""

    x: np.ndarray  # (p', n, n) stack: X_k = L_k Q_k; A_k = L_k L_k^H, M_k = Q_k diag(w_k) Q_k^H
    w: np.ndarray  # (p', n): eigenvalues of M_k, null space set to 0
    kind: str
    p: int

    def tensor(self, t: float) -> Tensor3:
        return _from_stack((self.x * self.w[:, None, :] ** t) @ _adjoint(self.x), self.p, self.kind)

    def traces(self, ts: np.ndarray) -> np.ndarray:
        col_norms = np.sum(np.abs(self.x) ** 2, axis=1)  # ||X_k e_i||^2, shape (p', n)
        return _slice_sum(np.sum(self.w ** ts[:, None, None] * col_norms, axis=-1), self.p)


def _geodesic_factors(a: Tensor3, b: Tensor3, regularize: float) -> _GeodesicFactors:
    """Validate A and B, factor A = L L^H and decompose M = L^(-1) B L^(-H), once each."""
    if not 0.0 <= regularize < math.inf:
        raise DomainError(f"regularize must be finite and >= 0, got {regularize!r}")
    if regularize > 0.0:
        a = a + regularize * identity(a.n, a.p)
    hint = "(pass regularize=eps to shift explicitly)"
    try:
        a_stack, (eig_b, _) = _decompose_pair(a, b, "geodesic", ("positive definite", "PSD"),
                                              vectors=False)
    except SingularityError as exc:  # A's requirement, the only definite one
        raise SingularityError(f"{exc} {hint}") from None
    try:
        chol = np.linalg.cholesky(a_stack)
    except np.linalg.LinAlgError as exc:  # roundoff beyond the PD verdict's margin
        raise SingularityError("geodesic requires A positive definite; "
                               f"its Cholesky factorization failed {hint}") from exc
    w_b, b_stack = eig_b._w, eig_b._stack
    tol = a.n * NULL_EIGENVALUE_RTOL * max(w_b.max(), 0.0)  # see NULL_EIGENVALUE_RTOL
    if (neg := (w_b < -tol).any(axis=-1)).any():  # B's clamp, on the slices that need it
        clamp = _stack_eig(b_stack[neg], a.p, eig_b._kind)
        b_stack = b_stack.copy()
        b_stack[neg] = clamp._apply(np.maximum(clamp._w, 0.0))
    inv_chol = np.linalg.inv(chol)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite M raises below
        mid = inv_chol @ b_stack @ _adjoint(inv_chol)
        eig_m = _stack_eig(0.5 * (mid + _adjoint(mid)), a.p, eig_b._kind)
    if not (np.isfinite(mid).all() and np.isfinite(eig_m._w).all()):
        raise NumericError("the result overflowed: L^(-1) B L^(-H) is not finite")
    w = np.where(w_b <= tol, 0.0, np.maximum(eig_m._w, 0.0))
    return _GeodesicFactors(chol @ eig_m._q_stack, w, eig_b._kind, a.p)


def geodesic(a: Tensor3, b: Tensor3, t: float, regularize: float = 0.0) -> Tensor3:
    """Point on the geodesic G(t) = A^(1/2) (A^(-1/2) B A^(-1/2))^t A^(1/2).

    It is computed as L (L^(-1) B L^(-H))^t L^H from the Cholesky factor
    A = L L^H of each Fourier slice, the same tensor.  ``a`` must be positive
    definite (its inverse appears in the formula); singular ``a`` raises
    rather than being silently shifted.
    Passing a finite ``regularize=eps > 0`` explicitly adds ``eps * I`` to ``a``
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

    Per Fourier slice, A is factored once as L L^H (after a shifted Cholesky
    that certifies it positive definite, or its eigenvalues where that fails)
    and M = L^(-1) B L^(-H) is decomposed once; after that each sample costs
    O(np) (``keep_tensors=True`` adds one O(n^3 p) slice product and an
    inverse FFT per sample).  M takes B's PSD verdict and
    null space (see ``NULL_EIGENVALUE_RTOL``): for singular B every G(t) with
    t > 0 has B's rank, and roundoff is not raised to the power t.
    Preconditions and errors are those of :func:`geodesic`.
    """
    if num_samples < 2:
        raise DomainError(f"num_samples must be >= 2, got {num_samples}")
    factors = _geodesic_factors(a, b, regularize)
    ts = np.linspace(0.0, 1.0, num_samples)
    tensors = tuple(factors.tensor(float(t)) for t in ts) if keep_tensors else None
    return GeodesicProfile(ts, factors.traces(ts), tensors)
