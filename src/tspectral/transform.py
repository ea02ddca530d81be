"""The Fourier stack of a tensor and the two t-product paths.

The DFT along tubes block-diagonalizes the block-circulant matrix: with
``F`` the unitary ``p x p`` DFT matrix,

    bcirc(A) == (F kron I)^H @ blkdiag(fourier slices) @ (F kron I)

so slice-wise matrix algebra on the Fourier slices is equivalent to dense
algebra on ``bcirc``.  The forward transform itself is unnormalized
(``numpy.fft.fft``) and the inverse carries the ``1/p`` factor, which makes
the Fourier slices equal to the diagonal blocks above.  ``tprod_dense`` is
the literal fold/bcirc/unfold definition and serves as the reference
oracle; ``tprod_fft`` is the fast path.  Callers pick the path explicitly.

Every fast kernel works on the private Fourier stack, shape ``(p', m, n)``,
with one batched numpy call over all slices.  A real tensor's slice ``p - k``
is the conjugate of slice ``k``, so its stack holds the ``p' = p // 2 + 1``
slices of ``rfft``; a complex one all ``p`` of ``fft``.  One rule keeps the
layouts apart: real data enters by ``rfft``, reaches all p slices only through
:func:`_all_slices`, and a real result leaves only by ``irfft`` of an rfft half.
Every DFT of the package runs in :func:`_to_stack` or :func:`_from_stack`, each
of which raises ``NumericError`` on a transform that is not finite, and every
sum over all p slices in :func:`_slice_sum`.  Each call transforms each operand
once; the decomposition's stack feeds the trace kernel.  A kind is that of
a product, ``"real"`` exactly when every operand is real: it sets both the
slice layout and the kind of every tensor mapped back, and traces are real.
"""

from __future__ import annotations

from functools import reduce

import numpy as np

from .core import Tensor3, _data, _first_failure, bcirc, fold, unfold
from .errors import NumericError, ShapeError

__all__ = [
    "tprod_dense",
    "tprod_fft",
    "tprod",
]

# Imaginary residue allowed when coercing an inverse DFT back to real kind.
REAL_COERCION_RTOL = 1e-8


def _to_stack(t) -> np.ndarray:
    """Fourier stack of a tensor, shape (p', m, n), or of each item of a batch
    of data, shape (..., p', m, n): the rfft half of real data, all p slices of
    complex data.  A stack that is not finite, such as the sum of p entries near
    the float maximum, raises :class:`~tspectral.errors.NumericError`."""
    data = _data(t)
    stack = (np.fft.fft if data.dtype.kind == "c" else np.fft.rfft)(data, axis=-1)
    if not np.isfinite(stack).all():
        raise NumericError("an operand overflowed: its Fourier transform is not finite")
    return stack.transpose((*range(data.ndim - 3), -1, -3, -2))


def _from_stack(stack: np.ndarray, p: int, kind: str):
    """Inverse of :func:`_to_stack` (the inverse DFT carries the 1/p factor): a
    tensor, or for a batch its data, of ``kind``, the kind of the product it
    serves.  A ``"real"`` stack is an rfft half and leaves by ``irfft``, which
    drops the imaginary parts of the DC and (for even p) Nyquist slices: their
    sum over p is the imaginary residue the full inverse DFT would show, and an
    item's residue above ``REAL_COERCION_RTOL * (1 + max|entry|)`` raises
    :class:`~tspectral.errors.NumericError`.  A ``"complex"`` stack holds all p
    slices and leaves by ``ifft``.  A non-finite result raises for either kind.
    The first failing item raises; a slice count that does not fit ``kind`` raises ShapeError.
    """
    slices = p // 2 + 1 if kind == "real" else p
    if stack.shape[-3] != slices:
        raise ShapeError(f"a {kind} stack of p = {p} holds {slices} slices, got {stack.shape[-3]}")
    if kind == "real":
        edges = stack[..., :1, :, :] if p % 2 else stack[..., [0, p // 2], :, :]
        resid = np.abs(edges.imag).sum(axis=-3).max(axis=(-2, -1), initial=0.0) / p
        data = np.fft.irfft(stack, n=p, axis=-3)
    else:
        data, resid = np.fft.ifft(stack, axis=-3), 0.0
    scale = 1.0 + np.abs(data).max(axis=(-3, -2, -1), initial=0.0)  # over each item
    ok = (scale < np.inf) & (resid <= REAL_COERCION_RTOL * scale)  # scale >= 1 or nan
    bad = _first_failure(ok)
    if bad is not None:
        scale = np.ravel(scale)[bad]
        if not scale < np.inf:
            raise NumericError("the result overflowed: its inverse transform is not finite")
        raise NumericError(
            f"imaginary residue {np.ravel(resid)[bad]:.3e} exceeds "
            f"{REAL_COERCION_RTOL * scale:.3e}; spectral slices are not conjugate-symmetric"
        )
    data = data.transpose((*range(data.ndim - 3), -2, -1, -3))
    return Tensor3(data) if data.ndim == 3 else data


def _all_slices(x: np.ndarray, p: int, axis: int = -3) -> np.ndarray:
    """Per-slice data on slice axis ``axis`` (-2 for per-slice values) extended to
    all p slices: the slices an rfft half leaves out are conjugates of stacked ones."""
    mirrored = x[(..., slice(p - x.shape[axis], 0, -1)) + (slice(None),) * (-1 - axis)]
    return np.concatenate([x, mirrored.conj()], axis=axis)


def _slice_weights(stack_len: int, p: int) -> np.ndarray:
    """How often each stacked slice occurs among the p slices (an rfft half's interior twice)."""
    weights = np.ones(stack_len)
    if stack_len < p:
        weights[1 : (p + 1) // 2] = 2.0
    return weights


def _slice_sum(per_slice: np.ndarray, p: int):
    """Sum over all p slices of a quantity given per stacked slice on the last
    axis (..., p'), such as a trace: each slice weighted by how often it occurs."""
    return per_slice @ _slice_weights(per_slice.shape[-1], p)


def _stack_trace(*stacks: np.ndarray, p: int):
    """Real trace of the t-product of the tensors with these Fourier stacks (the
    real part, for complex ones): the :func:`_slice_sum` of Re tr(S1_k ... Sr_k),
    a float, or an array for batches.  The last pair is contracted over both
    indices, so the full product is never formed."""
    *head, last = stacks
    per_slice = np.einsum("...kij,...kji->...k", reduce(np.matmul, head), last)
    total = _slice_sum(per_slice.real, p)
    return total if total.ndim else total.item()


def _product_kind(*tensors) -> str:
    """Kind of a t-product: ``"real"`` exactly when every factor (or batch of data) is real."""
    return "complex" if any(_data(t).dtype.kind == "c" for t in tensors) else "real"


def _product_stacks(*tensors: Tensor3) -> list[np.ndarray]:
    """The Fourier stacks of a t-product's factors in the product's layout: a
    real factor of a complex product is widened to all p slices."""
    kind = _product_kind(*tensors)
    return [_to_stack(t) if t.kind == kind else _all_slices(_to_stack(t), t.p) for t in tensors]


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
    sa, sb = _product_stacks(a, b)
    return _from_stack(sa @ sb, a.p, _product_kind(a, b))


def tprod(a: Tensor3, b: Tensor3, path: str = "fft") -> Tensor3:
    """Dispatch to :func:`tprod_fft` or :func:`tprod_dense` by name."""
    if path == "fft":
        return tprod_fft(a, b)
    if path == "dense":
        return tprod_dense(a, b)
    raise ValueError(f"unknown t-product path {path!r}; use 'dense' or 'fft'")
