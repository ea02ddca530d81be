"""Trace-induced distances and geodesics on the PSD tensor cone.

Three metrics are provided: the Frobenius distance, the Bures-Wasserstein
distance

    d(A, B) = [ tr A + tr B - 2 tr (A^(1/2) * B * A^(1/2))^(1/2) ]^(1/2)

and the log-Euclidean distance ``||log A - log B||_F``, together with the
geodesic ``G(t) = A^(1/2) * (A^(-1/2) * B * A^(-1/2))^t * A^(1/2)``.

Hermitian, PSD and positive-definiteness decisions are made in
:mod:`tspectral.spectral`: each operand is checked and decomposed once, and
A^(1/2), A^(-1/2) and log A are built from its factors as Fourier stacks.
A real operand of a complex product is solved on its rfft half and handed
over on all p slices; every sum over slices is :func:`~tspectral.transform._slice_sum`.
The log-Euclidean distance never leaves the Fourier domain:
||T||_F^2 = sum_k ||T_k||_F^2 over the p Fourier slices.

The geodesic is set up once per operand pair: one eigendecomposition of A
(Hermitian and positive-definiteness checks, A^(1/2) and A^(-1/2)), one PSD
check of B, whose decomposed stack builds M = A^(-1/2) * B * A^(-1/2), and
one eigendecomposition M = Q * W * Q^H.  With X = A^(1/2) * Q, Fourier slice
k of G(t) is X_k diag(w_k^t) X_k^H, so a trace sample costs O(np):
tr G(t) = sum_k sum_i w_ik^t ||X_k e_i||^2.  By Sylvester's law of inertia
M_k has as many zero eigenvalues as B_k; B_k's are those at most
``n * eps * lambda_max(B)``, and that many of M_k's smallest are set to 0,
so for singular B every G(t) with t > 0 has B's rank, also when A is
ill-conditioned, and no eigenvalue of a positive definite B is dropped.

Trace conventions: traces default to the block-circulant convention.
Passing ``convention="slice1"`` rescales every trace by ``1/p`` (first
frontal-slice trace), which divides squared distances by ``p``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    Tensor3,
    _first_failure,
    _real_trace,
    _require_same_shape,
    frobenius_norm,
    identity,
)
from .errors import DomainError, NumericError, ShapeError
from .spectral import _decompose, _stack_eig
from .spectral import t_eigenvalues  # noqa: F401  (perfbench's tracing check reads it here)
from .transform import _adjoint, _from_stack, _product_kind, _slice_sum

__all__ = [
    "GeodesicProfile",
    "dist_frobenius",
    "dist_bures_wasserstein",
    "dist_log_euclidean",
    "geodesic",
    "geodesic_trace_profile",
]

_CONVENTIONS = ("bcirc", "slice1")

# A Bures-Wasserstein radicand below -RADICAND_RTOL * (tr A + tr B) raises; one between that
# floor and 0 clamps.  The radicand is >= 0 in exact arithmetic, so the floor is a sanity
# check, and 1e-10 is a chosen safety margin, about 4.5e5 * eps: d(A, A) on 50 random
# 4x4x8 PSD tensors scaled by 1e8 leaves radicands of at most ~1e-15 * (tr A + tr B).
RADICAND_RTOL = 1e-10

# An eigenvalue of B at most n * eps * lambda_max(B) counts as 0 (numpy's matrix_rank rule);
# M = A^(-1/2) B A^(-1/2) has as many zero eigenvalues as B on each Fourier slice.
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


def _checked(t, op: str, name: str, definite: bool = False, kind: str | None = None) -> tuple:
    """(factors, clamped eigenvalues, real trace) of an operand, or of a batch of them,
    checked (PSD, or positive definite) and decomposed once for a product of ``kind``."""
    factors = _decompose(t, op, kind=kind)
    need = "positive definite" if definite else "PSD"
    w = factors._require(f"{op} requires {name} {need}", definite=definite)
    return factors, w, _real_trace(t)


def _checked_pair(a: Tensor3, b: Tensor3, op: str, definite: bool = False) -> list[tuple]:
    """:func:`_checked` of A and B, on the slices of their product; one object
    passed as both is checked and decomposed once."""
    _require_same_shape(a, b, op)
    kind = _product_kind(a, b)
    checked_a = _checked(a, op, "A", definite, kind)
    return [checked_a, checked_a if b is a else _checked(b, op, "B", definite, kind)]


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
    both its PSD check and its root.  A radicand below ``-1e-10 * (tr A +
    tr B)`` (both traces under ``convention``) raises; one between that
    floor and 0 clamps to zero, so d(cA, cB) = sqrt(c) d(A, B) at any scale.
    """
    pair = _checked_pair(a, b, "dist_bures_wasserstein")
    return float(_bures_wasserstein(*pair, _convention_scale(convention, a.p)))


def _bures_wasserstein(checked_a: tuple, checked_b: tuple, scale: float = 1.0):
    """d(A, B) of :func:`dist_bures_wasserstein`, per item for batches, from the
    :func:`_checked` A and B on the same slices."""
    (fa, wa, tr_a), (fb, wb, tr_b) = checked_a, checked_b
    traces = tr_a + tr_b
    root_wa, root_wb = np.sqrt(wa), np.sqrt(wb)
    core = root_wa[..., :, None] * (_adjoint(fa._q_stack) @ fb._q_stack) * root_wb[..., None, :]
    nuclear = np.linalg.svd(core, compute_uv=False).sum(axis=-1)
    cross = _slice_sum(nuclear, fa._p)
    radicand = (traces - 2.0 * cross) * scale
    floor = -RADICAND_RTOL * traces * scale
    bad = _first_failure(~(radicand < floor))
    if bad is not None:
        radicand, floor = np.ravel(radicand)[bad], np.ravel(floor)[bad]
        raise NumericError(f"Bures-Wasserstein radicand {radicand:.3e} below {floor:.3e}")
    return np.sqrt(np.maximum(radicand, 0.0))


def dist_log_euclidean(a: Tensor3, b: Tensor3, convention: str = "bcirc") -> float:
    """Log-Euclidean distance ||log A - log B||_F for positive definite tensors.

    log A and log B stay Fourier stacks: ||T||_F^2 is the sum over the p
    Fourier slices of ||T_k||_F^2, so no inverse transform is needed.
    """
    pair = _checked_pair(a, b, "dist_log_euclidean", definite=True)
    log_a, log_b = (f._apply(np.log(w)) for f, w, _ in pair)
    sq_norms = np.sum(np.abs(log_a - log_b) ** 2, axis=(1, 2))  # per Fourier slice
    sq_norm = float(_slice_sum(sq_norms, a.p))
    return math.sqrt(_convention_scale(convention, a.p) * sq_norm)


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
        return np.array([_slice_sum(np.sum(self.w**t * col_norms, axis=-1), self.p) for t in ts])


def _geodesic_factors(a: Tensor3, b: Tensor3, regularize: float) -> _GeodesicFactors:
    """Validate A and B and decompose A and M = A^(-1/2) B A^(-1/2), once each."""
    _require_same_shape(a, b, "geodesic")
    if not 0.0 <= regularize < math.inf:
        raise DomainError(f"regularize must be finite and >= 0, got {regularize!r}")
    if regularize > 0.0:
        a = a + regularize * identity(a.n, a.p)
    kind = _product_kind(a, b)
    eig_a = _decompose(a, "geodesic", kind=kind)
    root = np.sqrt(eig_a._require(
        "geodesic requires positive definite A (pass regularize=eps to shift explicitly)",
        definite=True,
    ))
    eig_b = _decompose(b, "geodesic", vectors=False, kind=kind)
    eig_b._require("geodesic requires B PSD")
    inv_root_a = eig_a._apply(1.0 / root)
    mid = inv_root_a @ eig_b._stack @ inv_root_a
    eig_m = _stack_eig(0.5 * (mid + _adjoint(mid)), a.p, kind)
    w = eig_m._require("geodesic requires A^(-1/2) B A^(-1/2) PSD")
    w_b = eig_b._w  # B's eigenvalues on M's slices
    nulls = np.sum(w_b <= a.n * NULL_EIGENVALUE_RTOL * max(w_b.max(), 0.0), axis=1)
    w[np.arange(a.n) >= a.n - nulls[:, None]] = 0.0  # M's smallest, _w being descending
    return _GeodesicFactors(eig_a._apply(root) @ eig_m._q_stack, w, kind, a.p)


def geodesic(a: Tensor3, b: Tensor3, t: float, regularize: float = 0.0) -> Tensor3:
    """Point on the geodesic G(t) = A^(1/2) (A^(-1/2) B A^(-1/2))^t A^(1/2).

    ``a`` must be positive definite (its inverse square root appears in the
    formula); singular ``a`` raises rather than being silently shifted.
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

    A and M = A^(-1/2) B A^(-1/2) are decomposed once; after that each
    sample costs O(np) (``keep_tensors=True`` adds one O(n^3 p) slice
    product and an inverse FFT per sample).  On each Fourier slice, as many
    of M's smallest eigenvalues as B has eigenvalues at most
    ``n * eps * lambda_max(B)`` are set to 0, so for singular B every G(t)
    with t > 0 has B's rank; roundoff is not raised to the power t.
    Preconditions and errors are those of :func:`geodesic`.
    """
    if num_samples < 2:
        raise DomainError(f"num_samples must be >= 2, got {num_samples}")
    factors = _geodesic_factors(a, b, regularize)
    ts = np.linspace(0.0, 1.0, num_samples)
    tensors = tuple(factors.tensor(float(t)) for t in ts) if keep_tensors else None
    return GeodesicProfile(ts, factors.traces(ts), tensors)
