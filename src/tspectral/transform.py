"""Fourier-domain tensor representation and the two t-product paths.

The DFT along tubes block-diagonalizes the block-circulant matrix: with
``F`` the unitary ``p x p`` DFT matrix,

    bcirc(A) == (F kron I)^H @ blkdiag(fourier slices) @ (F kron I)

so slice-wise matrix algebra on the Fourier slices is equivalent to dense
algebra on ``bcirc``.  The forward transform itself is unnormalized
(``numpy.fft.fft``) and the inverse carries the ``1/p`` factor, which makes
the Fourier slices equal to the diagonal blocks above.  ``tprod_dense`` is the literal fold/bcirc/unfold
definition and serves as the reference oracle; ``tprod_fft`` is the fast
path.  Callers pick the path explicitly.

Every fast kernel works on the private Fourier stack, shape ``(p', m, n)``,
with one batched numpy call over all slices.  A real tensor's slice ``p - k``
is the conjugate of slice ``k``, so its stack holds the ``p' = p // 2 + 1``
slices of ``rfft`` (back through ``irfft``); a complex one all ``p`` of
``fft``.  Only the stack helpers below know about this symmetry.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .core import Tensor3, bcirc, fold, unfold
from .errors import NumericError, ShapeError

__all__ = [
    "SpectralSlices",
    "to_fourier",
    "from_fourier",
    "tprod_dense",
    "tprod_fft",
    "tprod",
]

# Imaginary residue allowed when coercing an inverse DFT back to real kind.
REAL_COERCION_RTOL = 1e-8


@dataclass(frozen=True)
class SpectralSlices:
    """The p complex Fourier slices of a tensor, stored as (n1, n2, p)."""

    slices: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.slices, dtype=np.complex128)
        if arr.ndim != 3:
            raise ShapeError(f"spectral data must be 3-dimensional, got {arr.shape}")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "slices", arr)

    @property
    def n1(self) -> int:
        return self.slices.shape[0]

    @property
    def n2(self) -> int:
        return self.slices.shape[1]

    @property
    def p(self) -> int:
        return self.slices.shape[2]

    def slice_matrix(self, k: int) -> np.ndarray:
        """Copy of the k-th Fourier slice, 1-based."""
        return self.slices[:, :, k - 1].copy()


def to_fourier(t: Tensor3) -> SpectralSlices:
    """Unnormalized DFT along tubes; slice k is a diagonal block of bcirc."""
    return SpectralSlices(np.fft.fft(t.data, axis=2))


def from_fourier(s: SpectralSlices, kind: str | None = None) -> Tensor3:
    """Inverse DFT along tubes (the inverse carries the 1/p factor).

    Parameters
    ----------
    s : SpectralSlices
    kind : {"real", "complex", None}
        ``"real"`` demands a real result and raises
        :class:`~tspectral.errors.NumericError` when the imaginary residue
        exceeds ``1e-8 * (1 + max|entry|)``.  ``None`` coerces to real only
        when the residue is below that same threshold.
    """
    return _from_stack(s.slices.transpose(2, 0, 1), s.p, kind)


def _to_stack(t: Tensor3, kind: str | None = None) -> np.ndarray:
    """Fourier stack of ``t``, shape (p', m, n): the rfft half when ``kind``
    (default ``t.kind``) is ``"real"``, all p slices otherwise."""
    if (kind or t.kind) == "real":
        return np.fft.rfft(t.data, axis=2).transpose(2, 0, 1)
    return np.fft.fft(t.data, axis=2).transpose(2, 0, 1)


def _from_stack(stack: np.ndarray, p: int, kind: str | None = None) -> Tensor3:
    """Inverse of :func:`_to_stack`, with the ``kind`` rules of :func:`from_fourier`.

    With ``kind="real"`` a stack of fewer than p slices is an rfft half.
    ``irfft`` drops the imaginary parts of its DC and (for even p) Nyquist
    slices; their sum over p is the imaginary residue the full inverse DFT
    would show, so that is what is checked.
    """
    if kind == "real" and len(stack) < p:
        edges = stack[:1] if p % 2 else stack[[0, p // 2]]
        resid = float(np.abs(edges.imag).sum(axis=0).max(initial=0.0)) / p
        data = np.fft.irfft(stack, n=p, axis=0)
    else:
        data = np.fft.ifft(stack, axis=0)
        resid = float(np.abs(data.imag).max(initial=0.0))
    scale = 1.0 + float(np.abs(data).max(initial=0.0))
    if kind != "complex" and resid <= REAL_COERCION_RTOL * scale:
        data = data.real
    elif kind == "real":
        raise NumericError(
            f"imaginary residue {resid:.3e} exceeds {REAL_COERCION_RTOL * scale:.3e}; "
            "spectral slices are not conjugate-symmetric"
        )
    return Tensor3(data.transpose(1, 2, 0))


def _all_slices(x: np.ndarray, p: int) -> np.ndarray:
    """Per-slice data of a stack (leading axis p') extended to all p slices:
    the slices an rfft half leaves out are conjugates of stacked ones."""
    return np.concatenate([x, x[1 : p - len(x) + 1][::-1].conj()])


def _slice_weights(stack_len: int, p: int) -> np.ndarray:
    """How often each stacked slice occurs among the p slices, for sums such
    as traces: twice for the interior slices of an rfft half, else once."""
    weights = np.ones(stack_len)
    if stack_len < p:
        weights[1 : (p + 1) // 2] = 2.0
    return weights


def _stack_trace(*stacks: np.ndarray, p: int, kind: str) -> float | complex:
    """Trace of the t-product of the tensors with these Fourier stacks, as
    sum_k w_k tr(S1_k ... Sr_k) (weights of :func:`_slice_weights`).  The
    last pair is contracted over both indices, so the full product is never
    formed.  A float for ``kind="real"``, else complex."""
    *head, last = stacks
    per_slice = np.einsum("kij,kji->k", reduce(np.matmul, head), last)
    weights = _slice_weights(len(last), p)
    if kind == "real":
        return float(weights @ per_slice.real)
    return complex(weights @ per_slice)


def _product_kind(*tensors: Tensor3) -> str:
    """Kind of a t-product: ``"real"`` when every factor is real."""
    return "real" if all(t.kind == "real" for t in tensors) else "complex"


def _adjoint(stack: np.ndarray) -> np.ndarray:
    """Conjugate transpose of every slice of a stack."""
    return stack.conj().swapaxes(-1, -2)


def _check_conformable(a: Tensor3, b: Tensor3) -> None:
    if a.n != b.m or a.p != b.p:
        raise ShapeError(
            f"t-product needs a.n == b.m and a.p == b.p, got {a.shape} * {b.shape}"
        )


def tprod_dense(a: Tensor3, b: Tensor3) -> Tensor3:
    """Reference t-product: fold(bcirc(a) @ unfold(b))."""
    _check_conformable(a, b)
    return fold(bcirc(a) @ unfold(b), a.p)


def tprod_fft(a: Tensor3, b: Tensor3) -> Tensor3:
    """Fast t-product via slice-wise products in the Fourier domain."""
    _check_conformable(a, b)
    kind = _product_kind(a, b)
    return _from_stack(_to_stack(a, kind) @ _to_stack(b, kind), a.p, kind)


def tprod(a: Tensor3, b: Tensor3, path: str = "fft") -> Tensor3:
    """Dispatch to :func:`tprod_fft` or :func:`tprod_dense` by name."""
    if path == "fft":
        return tprod_fft(a, b)
    if path == "dense":
        return tprod_dense(a, b)
    raise ValueError(f"unknown t-product path {path!r}; use 'dense' or 'fft'")
