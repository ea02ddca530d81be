"""Tensor eigenvalues, t-SVD, Hermitian tensor functions and PSD structure.

All spectral data of a tensor lives in its block-circulant matrix.  The
fast path never forms that matrix: each Fourier slice is a diagonal block
of it, so eigenvalues, singular values and Hermitian functions come from one
batched LAPACK call over the Fourier stack of :mod:`tspectral.transform` and
are mapped back with the inverse DFT.  The dense block-circulant route is
kept available as an oracle (``method="bcirc"``).

Every operation that needs a Hermitian, PSD or positive definite operand,
here and in :mod:`~tspectral.bounds` and :mod:`~tspectral.geometry`, goes
through one private entry, :func:`_decompose`: the Hermitian check, whose
failure raises an error naming the operation, then one batched ``eigh``
(or ``eigvalsh``) on the Fourier stack.  The returned :class:`EigFactors`
give the PSD and PD verdicts, the only place where :func:`psd_tolerance`
and :func:`pd_tolerance` meet a spectrum, and the stacks Q diag(f(w)) Q^H
that callers build from them.

A :class:`~tspectral.core.Tensor3` never changes, so its Hermitian check
and its eigendecomposition are functions of the tensor alone.  Both are
kept with the tensor in a per-tensor record (:class:`_Record`): the check
runs once in the tensor's life, and so does the eigensolve, ``eigvalsh``
while values suffice and ``eigh`` from the first call that needs vectors.
:func:`t_eigenvalues` reads the same record.  The PSD/PD verdicts are
taken on every call, and a failed Hermitian check raises on every call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .core import Tensor3, _conj_transpose_data, _first_failure, _norm, bcirc, identity
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


def psd_tolerance(lam_max):
    """Eigenvalue slack below zero still accepted as semidefinite (elementwise)."""
    return 1e-9 * np.maximum(1.0, np.abs(lam_max))


def pd_tolerance(lam_max):
    """Smallest eigenvalue still treated as strictly positive (elementwise)."""
    return 1e-12 * np.maximum(1.0, np.abs(lam_max))


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


@dataclass(frozen=True)
class EigFactors:
    """Unitary factorization A = Q * L * Q^H of a Hermitian tensor.

    ``L`` is f-diagonal; its Fourier-slice diagonals are the (real)
    eigenvalues, exposed as ``fourier_eigenvalues`` with shape (n, p) in
    descending order per slice.  The factors are held as the Fourier stack
    of Q; the tensors ``q`` and ``l`` are built when first read.
    """

    fourier_eigenvalues: np.ndarray
    _q_stack: np.ndarray | None = field(repr=False)  # (p', n, n) stack of Q; None: values only
    _kind: str | None = field(repr=False)  # kind passed to the inverse; "real": an rfft half

    def __post_init__(self):
        ev = np.asarray(self.fourier_eigenvalues, dtype=np.float64).copy()
        ev.setflags(write=False)
        object.__setattr__(self, "fourier_eigenvalues", ev)

    @property
    def _w(self) -> np.ndarray:
        """Eigenvalues of the stacked slices, shape (p', n)."""
        p = self.fourier_eigenvalues.shape[-1]
        stacked = p // 2 + 1 if self._kind == "real" else p
        return self.fourier_eigenvalues.swapaxes(-1, -2)[..., :stacked, :]

    def _verdict(self, definite: bool = False) -> PsdCheck:
        """The :func:`is_psd` verdict, or with ``definite`` the positive
        definiteness one (min eigenvalue above ``pd_tolerance``); for a batch,
        its fields are per-item arrays."""
        ev = self.fourier_eigenvalues
        item = (-2, -1) if ev.ndim > 2 else None
        lam_min, lam_max = ev.min(axis=item), ev.max(axis=item)
        ok = lam_min > pd_tolerance(lam_max) if definite else lam_min >= -psd_tolerance(lam_max)
        return PsdCheck(ok, lam_min) if item else PsdCheck(bool(ok), float(lam_min))

    def _require(self, requirement: str, definite: bool = False, error=None) -> None:
        """Raise ``error("<requirement>; min eigenvalue ...")`` for the first item whose
        verdict fails; ``error`` defaults to SingularityError (definite) or DomainError."""
        chk = self._verdict(definite)
        bad = _first_failure(chk.ok)
        if bad is not None:
            error = error or (SingularityError if definite else DomainError)
            raise error(f"{requirement}; min eigenvalue {np.ravel(chk.min_eigenvalue)[bad]:.3e}")

    def _apply(self, fw: np.ndarray) -> np.ndarray:
        """The stack of Q_k diag(fw_k) Q_k^H, for ``fw`` shaped like ``_w``."""
        return (self._q_stack * fw[..., None, :]) @ _adjoint(self._q_stack)

    def _on_all_slices(self) -> EigFactors:
        """The same factors with an rfft half extended to all p slices."""
        if self._kind != "real":
            return self
        p = self.fourier_eigenvalues.shape[1]
        return EigFactors(self.fourier_eigenvalues, _all_slices(self._q_stack, p), None)

    @cached_property
    def q(self) -> Tensor3:
        return _from_stack(self._q_stack, self.fourier_eigenvalues.shape[1], self._kind)

    @cached_property
    def l(self) -> Tensor3:
        n, p = self.fourier_eigenvalues.shape
        return _from_stack(_diagonal_stack(self._w, n, n), p, self._kind)


@dataclass(frozen=True)
class TSvdFactors:
    """t-SVD triple A = U * S * V^H with f-diagonal non-negative S.

    The factors are held as the Fourier stacks of U and V; the tensors
    ``u``, ``s`` and ``v`` are built when first read.
    """

    fourier_singular_values: np.ndarray
    _u_stack: np.ndarray = field(repr=False)  # (p', m, m) Fourier stack of U
    _v_stack: np.ndarray = field(repr=False)  # (p', n, n) Fourier stack of V
    _kind: str | None = field(repr=False)

    def __post_init__(self):
        sv = np.asarray(self.fourier_singular_values, dtype=np.float64).copy()
        sv.setflags(write=False)
        object.__setattr__(self, "fourier_singular_values", sv)

    @cached_property
    def u(self) -> Tensor3:
        return _from_stack(self._u_stack, self.fourier_singular_values.shape[1], self._kind)

    @cached_property
    def s(self) -> Tensor3:
        sv = self.fourier_singular_values
        m, n = self._u_stack.shape[1], self._v_stack.shape[1]
        stack = _diagonal_stack(sv.T[: len(self._u_stack)], m, n)
        return _from_stack(stack, sv.shape[1], self._kind)

    @cached_property
    def v(self) -> Tensor3:
        return _from_stack(self._v_stack, self.fourier_singular_values.shape[1], self._kind)


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
    zero tensor is Hermitian."""
    if t.m != t.n:
        raise ShapeError(f"hermitian check requires square slices, got {t.m}x{t.n}")
    return HermitianCheck(*_hermitian_rule(t.data))  # a bool and a float for one tensor


def _hermitian_rule(data: np.ndarray):
    """The :func:`is_hermitian` verdict and residual of tensor data, or of each
    item of a batch of it (..., n, n, p), on the data arrays alone."""
    batch, root_p = data.ndim - 3, math.sqrt(data.shape[-1])
    resid = root_p * _norm(data - _conj_transpose_data(data), batch)
    return resid <= HERMITIAN_RTOL * (root_p * _norm(data, batch)), resid


def _stack_eig(stack: np.ndarray, p: int, kind: str | None, vectors: bool = True) -> EigFactors:
    """Factors of a Hermitian Fourier stack (an rfft half when ``kind`` is
    ``"real"``) or a batch of them: one batched ``eigh``, or ``eigvalsh`` without ``vectors``."""
    if vectors:
        w, q = np.linalg.eigh(stack)
        q = q[..., ::-1]
        q.setflags(write=False)  # the factors may be kept and shared
    else:
        w, q = np.linalg.eigvalsh(stack), None
    return EigFactors(_all_slices(w[..., ::-1], p, axis=-2).swapaxes(-1, -2), q, kind)


class _Record:
    """What is known of one tensor, kept on it as ``Tensor3._spectral``: its
    Hermitian check and, once decomposed, its factors (values only until
    vectors are first asked for)."""

    __slots__ = ("hermitian", "factors")

    def __init__(self, hermitian: HermitianCheck):
        self.hermitian = hermitian
        self.factors: EigFactors | None = None


def _record(t: Tensor3) -> _Record:
    """The record of ``t``; the first call runs the tensor's one Hermitian check."""
    rec = t._spectral
    if rec is None:
        rec = _Record(is_hermitian(t))
        object.__setattr__(t, "_spectral", rec)
    return rec


def _decompose(t, op: str, vectors: bool = True) -> EigFactors:
    """The one gate to a Hermitian operand's spectrum: the tensor's Hermitian
    check, raising a :class:`PreconditionError` that names ``op``, then its
    factors from :func:`_stack_eig` on the Fourier stack of ``t``.

    Both are kept in the tensor's record, so each runs once per tensor: a
    later call reads them back, and only a first request for ``vectors``
    after a values-only decomposition solves again, replacing the entry.
    Callers must not write to the shared factors.  For a batch of tensor data
    (..., n, n, p) every item is checked and decomposed, and nothing is kept."""
    batch = not isinstance(t, Tensor3)
    rec = _Record(HermitianCheck(*_hermitian_rule(t))) if batch else _record(t)
    bad = _first_failure(rec.hermitian.ok)
    if bad is not None:
        raise PreconditionError(
            f"{op} requires a Hermitian tensor: residual "
            f"{np.ravel(rec.hermitian.residual)[bad]:.3e} exceeds {HERMITIAN_RTOL:.0e} * ||A||_F"
        )
    if rec.factors is None or (vectors and rec.factors._q_stack is None):
        kind = "real" if _product_kind(t) == "real" else None
        rec.factors = _stack_eig(_to_stack(t), t.shape[-1], kind, vectors)
    return rec.factors


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
    if t.m != t.n:
        raise ShapeError(f"eigenvalues require square slices, got {t.m}x{t.n}")
    hermitian = _record(t).hermitian.ok
    eig = np.linalg.eigvalsh if hermitian else np.linalg.eigvals
    if method == "fourier":
        if hermitian:  # the tensor's kept factors, shape (p, n) per slice
            vals = _decompose(t, "t_eigenvalues", vectors=False).fourier_eigenvalues.T.ravel()
        else:
            vals = _all_slices(eig(_to_stack(t)), t.p, axis=-2).ravel()
        prov = np.repeat(np.arange(1, t.p + 1), t.n)
        return Spectrum(*_sorted_spectrum(vals, prov))
    if method == "bcirc":
        vals = eig(bcirc(t))
        return Spectrum(_sorted_spectrum(vals, np.zeros(len(vals), dtype=int))[0])
    raise ValueError(f"unknown eigenvalue method {method!r}; use 'fourier' or 'bcirc'")


def hermitian_eig(t: Tensor3) -> EigFactors:
    """Slice-wise unitary eigendecomposition of a Hermitian tensor.

    Eigenvalues are sorted descending within each Fourier slice.  Real
    input is decomposed on its p // 2 + 1 independent Fourier slices, so
    the Q and L factors come back real.
    """
    return _decompose(t, "hermitian_eig")


def t_svd(t: Tensor3) -> TSvdFactors:
    """t-SVD via slice-wise singular value decompositions.

    Works for rectangular tensors; U is m x m x p, S is m x n x p with
    descending non-negative diagonal tubes in the Fourier domain, V is
    n x n x p.
    """
    u, sv, vh = np.linalg.svd(_to_stack(t))
    kind = "real" if t.kind == "real" else None
    return TSvdFactors(_all_slices(sv, t.p, axis=-2).T, u, _adjoint(vh), kind)


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
    if fn in ("log", "inv_sqrt") or (fn == "pow" and exponent < 0):
        factors._require(f"{fn} requires positive definite input", definite=True)
        w = factors._w
    else:
        factors._require(f"{fn} requires positive semidefinite input")
        w = np.clip(factors._w, 0.0, None)

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
    factors._require("psd_factor requires a PSD tensor")
    root = np.sqrt(np.clip(factors._w, 0.0, None))
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
