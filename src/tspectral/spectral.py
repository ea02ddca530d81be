"""Tensor eigenvalues, t-SVD, Hermitian tensor functions and PSD structure.

All spectral data of a tensor lives in its block-circulant matrix.  The
fast path never forms that matrix: each Fourier slice is a diagonal block
of it, so eigenvalues, singular values and Hermitian functions come from one
batched LAPACK call over the Fourier stack of :mod:`tspectral.transform` and
are mapped back with the inverse DFT.  The dense block-circulant route is
kept available as an oracle (``method="bcirc"``).

Every operation that needs a Hermitian, PSD or positive definite operand, here
and in :mod:`~tspectral.bounds` and :mod:`~tspectral.geometry`, goes through
one private entry, :func:`_decompose`: the Hermitian check, whose failure
raises an error naming the operation, then one batched ``eigh`` (or
``eigvalsh``) on the Fourier stack.  The returned :class:`EigFactors` keep that
stack for the callers' traces and give the PSD and PD verdicts, the only place
where ``PSD_RTOL`` and ``PD_RTOL`` meet a spectrum, and the stacks
Q diag(f(w)) Q^H that callers build from them.  The verdict-then-clamp rule
lives there too: ``EigFactors._require`` raises on a failed verdict, else
returns the eigenvalues clamped at 0, so no caller clips a spectrum of its own.

Each call checks, transforms and decomposes each of its operands once, and
keeps nothing: a :class:`~tspectral.core.Tensor3` carries its data alone, so
two calls on one tensor (say :func:`is_psd`, then :func:`t_function`) check
and decompose it in each call.  Every eigensolve of the package takes one of two
routes: :func:`_stack_eig`, the one Hermitian solver, which :func:`_decompose`
reaches for every Hermitian operand (:func:`t_eigenvalues` of a Hermitian tensor
included); and :func:`t_eigenvalues` itself, for a general tensor's Fourier stack
(``eigvals``) and the dense block-circulant oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .core import (
    Tensor3,
    _conj_transpose_data,
    _data,
    _first_failure,
    _norm,
    _require_square,
    bcirc,
    identity,
)
from .errors import DomainError, PreconditionError, ShapeError, SingularityError
from .transform import _adjoint, _all_slices, _from_stack, _product_kind, _to_stack

__all__ = [
    "Spectrum",
    "EigFactors",
    "TSvdFactors",
    "HermitianCheck",
    "PsdCheck",
    "t_eigenvalues",
    "hermitian_eig",
    "t_svd",
    "t_function",
    "is_hermitian",
    "is_psd",
    "psd_factor",
    "random_psd",
]

# ||A - A^H||_F over ||A||_F: roundoff leaves a Hermitian tensor built in floating
# point (an FFT round trip, a product M * M^H) near eps; any larger residue is structure.
HERMITIAN_RTOL = 1e-10

# Verdict thresholds on the min eigenvalue, relative to max(1, |lambda_max|), where roundoff
# leaves a zero eigenvalue within a few n eps.  PSD above -PSD_RTOL: a chosen margin over that;
PSD_RTOL = 1e-9
# PD above PD_RTOL: still over that roundoff, so a singular tensor is never taken as PD.
PD_RTOL = 1e-12


@dataclass(frozen=True)
class Spectrum:
    """Multiset of tensor eigenvalues (the block-circulant spectrum).

    ``values`` is sorted by descending real part, then descending imaginary
    part, ties broken by ascending slice index.  ``provenance`` holds the
    1-based Fourier-slice index each value came from; it is ``None`` for the
    dense block-circulant method, which cannot attribute values to slices.
    Strictly speaking only the real elements are tensor eigenvalues in the
    eigenpair sense, but the full block-circulant spectrum is exposed since
    every trace identity runs over all of it.
    """

    values: np.ndarray
    provenance: np.ndarray | None = None

    def __post_init__(self):
        vals = np.asarray(self.values).copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        if self.provenance is not None:
            prov = np.asarray(self.provenance, dtype=int).copy()
            if prov.shape != vals.shape:
                raise ShapeError("provenance must align with values")
            prov.setflags(write=False)
            object.__setattr__(self, "provenance", prov)

    def __len__(self) -> int:
        return len(self.values)

    @property
    def is_real(self) -> bool:
        return self.values.dtype.kind != "c"

    @property
    def max(self):
        return self.values[0]

    @property
    def min(self):
        return self.values[-1]

    @property
    def spectral_radius(self) -> float:
        return float(np.abs(self.values).max())


def _diagonal_stack(d: np.ndarray, m: int, n: int) -> np.ndarray:
    """Stack of m x n slices whose diagonals are the rows of ``d``."""
    out = np.zeros((len(d), m, n))
    k = d.shape[1]
    out[:, np.arange(k), np.arange(k)] = d
    return out


def _read_only(x: np.ndarray) -> np.ndarray:
    x.setflags(write=False)
    return x


@dataclass(frozen=True)
class EigFactors:
    """Unitary factorization A = Q * L * Q^H of a Hermitian tensor.

    ``L`` is f-diagonal; its Fourier-slice diagonals are the (real)
    eigenvalues.  The fields hold only the slices that were solved (an rfft
    half for a real operand); the read-only ``fourier_eigenvalues``, shape
    (n, p) and descending per slice, and the tensors ``q`` and ``l`` are
    built when first read.
    """

    _w: np.ndarray  # (..., p', n) eigenvalues of the stacked slices, descending per slice
    _q_stack: np.ndarray | None = field(repr=False)  # (..., p', n, n) stack of Q; None: values only
    _stack: np.ndarray = field(repr=False)  # (..., p', n, n) stack of A itself
    _p: int
    _kind: str | None  # kind passed to the inverse; "real": an rfft half

    @cached_property
    def fourier_eigenvalues(self) -> np.ndarray:
        return _read_only(_all_slices(self._w, self._p, axis=-2).swapaxes(-1, -2).copy())

    def _verdict(self, definite: bool = False) -> PsdCheck:
        """The :func:`is_psd` verdict, or with ``definite`` the positive
        definiteness one (min eigenvalue above ``PD_RTOL``, relative); for a batch,
        its fields are per-item arrays.  An rfft half has the min and max of all p slices."""
        item = (-2, -1) if self._w.ndim > 2 else None
        lam_min, lam_max = self._w.min(axis=item), self._w.max(axis=item)
        scale = np.maximum(1.0, np.abs(lam_max))
        ok = lam_min > PD_RTOL * scale if definite else lam_min >= -PSD_RTOL * scale
        return PsdCheck(ok, lam_min) if item else PsdCheck(bool(ok), float(lam_min))

    def _require(self, requirement: str, definite: bool = False, error=None) -> np.ndarray:
        """The checked eigenvalues ``_w``, clamped at 0: roundoff-negative ones that the
        PSD verdict accepts become 0 (a positive definite spectrum is already above).
        Raise ``error("<requirement>; min eigenvalue ...")`` for the first item whose
        verdict fails; ``error`` defaults to SingularityError (definite) or DomainError."""
        chk = self._verdict(definite)
        bad = _first_failure(chk.ok)
        if bad is not None:
            error = error or (SingularityError if definite else DomainError)
            raise error(f"{requirement}; min eigenvalue {np.ravel(chk.min_eigenvalue)[bad]:.3e}")
        return np.clip(self._w, 0.0, None)

    def _apply(self, fw: np.ndarray) -> np.ndarray:
        """The stack of Q_k diag(fw_k) Q_k^H, for ``fw`` shaped like ``_w``."""
        return (self._q_stack * fw[..., None, :]) @ _adjoint(self._q_stack)

    @cached_property
    def q(self) -> Tensor3:
        return _from_stack(self._q_stack, self._p, self._kind)

    @cached_property
    def l(self) -> Tensor3:
        n = self._w.shape[-1]
        return _from_stack(_diagonal_stack(self._w, n, n), self._p, self._kind)


@dataclass(frozen=True)
class TSvdFactors:
    """t-SVD triple A = U * S * V^H with f-diagonal non-negative S.

    The fields hold only the slices that were solved, as in :class:`EigFactors`;
    the read-only ``fourier_singular_values``, shape (min(m, n), p), and the
    tensors ``u``, ``s`` and ``v`` are built when first read.
    """

    _sv: np.ndarray  # (p', min(m, n)) singular values of the stacked slices, descending
    _u_stack: np.ndarray = field(repr=False)  # (p', m, m) Fourier stack of U
    _v_stack: np.ndarray = field(repr=False)  # (p', n, n) Fourier stack of V
    _p: int
    _kind: str | None

    @cached_property
    def fourier_singular_values(self) -> np.ndarray:
        return _read_only(_all_slices(self._sv, self._p, axis=-2).T.copy())

    @cached_property
    def u(self) -> Tensor3:
        return _from_stack(self._u_stack, self._p, self._kind)

    @cached_property
    def s(self) -> Tensor3:
        m, n = self._u_stack.shape[1], self._v_stack.shape[1]
        return _from_stack(_diagonal_stack(self._sv, m, n), self._p, self._kind)

    @cached_property
    def v(self) -> Tensor3:
        return _from_stack(self._v_stack, self._p, self._kind)


@dataclass(frozen=True)
class HermitianCheck:
    ok: bool
    residual: float

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class PsdCheck:
    ok: bool
    min_eigenvalue: float

    def __bool__(self) -> bool:
        return self.ok


def is_hermitian(t: Tensor3) -> HermitianCheck:
    """Check A == A^H: the residual ``||A - A^H||_F`` is at most
    ``1e-10 * ||A||_F``.  The rule is relative and both norms rescale where
    squaring the entries would overflow or underflow, so ``cA`` gets the
    verdict of ``A`` (|c| from 1e-300 to 1e+300 for entries near 1), and the
    zero tensor is Hermitian.  A batch of tensor data (..., n, n, p) gets
    per-item arrays in both fields."""
    _require_square(t, "hermitian check")
    data = _data(t)
    batch, root_p = data.ndim - 3, math.sqrt(data.shape[-1])
    resid = root_p * _norm(data - _conj_transpose_data(data), batch)
    return HermitianCheck(resid <= HERMITIAN_RTOL * (root_p * _norm(data, batch)), resid)


def _stack_eig(stack: np.ndarray, p: int, kind: str | None, vectors: bool = True) -> EigFactors:
    """Factors of a Hermitian Fourier stack (an rfft half when ``kind`` is
    ``"real"``) or a batch of them: one batched ``eigh``, or ``eigvalsh`` without ``vectors``."""
    if vectors:
        w, q = np.linalg.eigh(stack)
        q = _read_only(q[..., ::-1])  # read-only, like a tensor's data
    else:
        w, q = np.linalg.eigvalsh(stack), None
    return EigFactors(w[..., ::-1], q, stack, p, kind)


def _decompose(
    t, op: str, vectors: bool = True, check: HermitianCheck | None = None, kind: str | None = None
) -> EigFactors:
    """The one gate to a Hermitian operand's spectrum: :func:`is_hermitian` of a
    tensor, or of every item of a batch of tensor data (..., n, n, p), raising a
    :class:`PreconditionError` that names ``op``, then the factors of
    :func:`_stack_eig` on its Fourier stack, which they keep.  Each call runs both
    once; a caller that holds the operand's check passes it as ``check``.  ``kind``
    is the kind of the product the factors serve, as in
    :func:`~tspectral.transform._to_stack`: a real operand is solved on its rfft
    half, and for ``"complex"`` its factors, stack included, are put on all p slices."""
    check = is_hermitian(t) if check is None else check
    bad = _first_failure(check.ok)
    if bad is not None:
        raise PreconditionError(
            f"{op} requires a Hermitian tensor: residual "
            f"{np.ravel(check.residual)[bad]:.3e} exceeds {HERMITIAN_RTOL:.0e} * ||A||_F"
        )
    p, real = t.shape[-1], _product_kind(t) == "real"
    factors = _stack_eig(_to_stack(t), p, "real" if real else None, vectors)
    if real and kind == "complex":
        full = [x if x is None else _all_slices(x, p) for x in (factors._q_stack, factors._stack)]
        factors = EigFactors(_all_slices(factors._w, p, axis=-2), *full, p, None)
    return factors


def _sorted_spectrum(values: np.ndarray, provenance: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # descending real, then descending imag, ties by ascending slice index
    order = np.lexsort((provenance, -values.imag, -values.real))
    return values[order], provenance[order]


def t_eigenvalues(t: Tensor3, method: str = "fourier") -> Spectrum:
    """All eigenvalues of ``bcirc(A)``, with Fourier-slice provenance.

    ``method="fourier"`` unions the spectra of the p Fourier slices;
    ``method="bcirc"`` decomposes the dense block-circulant matrix instead
    and is the slow cross-check.  For Hermitian input the values are real.
    """
    _require_square(t, "t_eigenvalues")
    herm = is_hermitian(t)
    if method == "fourier":
        w = (_decompose(t, "t_eigenvalues", vectors=False, check=herm)._w if herm.ok
             else np.linalg.eigvals(_to_stack(t)))
        vals = _all_slices(w, t.p, axis=-2).ravel()
        prov = np.repeat(np.arange(1, t.p + 1), t.n)
        return Spectrum(*_sorted_spectrum(vals, prov))
    if method == "bcirc":
        vals = (np.linalg.eigvalsh if herm.ok else np.linalg.eigvals)(bcirc(t))
        return Spectrum(_sorted_spectrum(vals, np.zeros(len(vals), dtype=int))[0])
    raise ValueError(f"unknown eigenvalue method {method!r}; use 'fourier' or 'bcirc'")


def hermitian_eig(t: Tensor3) -> EigFactors:
    """Slice-wise unitary eigendecomposition of a Hermitian tensor.

    Eigenvalues are sorted descending within each Fourier slice.  Real
    input is decomposed on its independent Fourier slices, the rfft half
    of :mod:`tspectral.transform`, so the Q and L factors come back real.
    """
    return _decompose(t, "hermitian_eig")


def t_svd(t: Tensor3) -> TSvdFactors:
    """t-SVD via slice-wise singular value decompositions.

    Works for rectangular tensors; U is m x m x p, S is m x n x p with
    descending non-negative diagonal tubes in the Fourier domain, V is
    n x n x p.
    """
    u, sv, vh = np.linalg.svd(_to_stack(t))
    return TSvdFactors(sv, u, _adjoint(vh), t.p, "real" if t.kind == "real" else None)


_FUNCTION_TAGS = ("sqrt", "log", "inv_sqrt", "pow")


def t_function(t: Tensor3, fn: str, exponent: float | None = None) -> Tensor3:
    """Apply a scalar function to a Hermitian tensor through its eigenvalues.

    Supported tags: ``sqrt`` (PSD input; roundoff-negative eigenvalues in
    [-tol, 0] are clamped to zero), ``log`` and ``inv_sqrt`` (positive
    definite input), ``pow`` with a float ``exponent`` (PSD input, positive
    definite when ``exponent < 0``).  The result is Hermitian by
    construction and real-kind whenever the input is real.
    """
    if fn not in _FUNCTION_TAGS:
        raise ValueError(f"unknown function tag {fn!r}; expected one of {_FUNCTION_TAGS}")
    if fn == "pow":
        if exponent is None:
            raise ValueError("t_function(..., 'pow') requires an exponent")
    elif exponent is not None:
        raise ValueError(f"exponent is only meaningful for 'pow', not {fn!r}")

    factors = _decompose(t, "t_function")
    definite = fn in ("log", "inv_sqrt") or (fn == "pow" and exponent < 0)
    need = "positive definite" if definite else "positive semidefinite"
    w = factors._require(f"{fn} requires {need} input", definite=definite)

    if fn == "sqrt":
        fw = np.sqrt(w)
    elif fn == "log":
        fw = np.log(w)
    elif fn == "inv_sqrt":
        fw = 1.0 / np.sqrt(w)
    else:
        if exponent == 0:
            return identity(t.n, t.p)
        fw = np.power(w, float(exponent))
    return _from_stack(factors._apply(fw), t.p, factors._kind)


def is_psd(t: Tensor3) -> PsdCheck:
    """Positive semidefiniteness of a Hermitian tensor.

    True when the smallest block-circulant eigenvalue is at least
    ``-1e-9 * max(1, lambda_max)``.  Non-Hermitian input raises.
    """
    return _decompose(t, "is_psd", vectors=False)._verdict()


def psd_factor(t: Tensor3) -> Tensor3:
    """Factor a PSD tensor as A = M * M^H with M = Q * L^(1/2).

    The eigendecomposition doubles as the t-SVD here (U = V = Q, S = L), so
    the factor reproduces A exactly rather than only up to a unitary.
    """
    factors = _decompose(t, "psd_factor")
    root = np.sqrt(factors._require("psd_factor requires a PSD tensor"))
    return _from_stack(factors._q_stack * root[:, None, :], t.p, factors._kind)


def random_psd(n: int, p: int, seed: int | np.random.Generator) -> Tensor3:
    """Deterministic random PSD tensor M * M^T with M standard Gaussian.

    ``seed`` is anything ``numpy.random.default_rng`` accepts; a Generator
    is drawn from directly, so consecutive calls on it give new tensors.
    """
    if n < 1 or p < 1:
        raise ShapeError(f"random_psd requires n, p >= 1, got n={n}, p={p}")
    return _gram(np.random.default_rng(seed).standard_normal((n, n, p)))


def _gram(m: np.ndarray):
    """M * M^T on M's one Fourier stack: a tensor, or per item for a batch of data."""
    s = _to_stack(m)
    return _from_stack(s @ _adjoint(s), m.shape[-1], "real")
