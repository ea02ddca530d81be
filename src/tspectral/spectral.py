"""Tensor eigenvalues, t-SVD, Hermitian tensor functions and PSD structure.

All spectral data of a tensor lives in its block-circulant matrix.  The
fast path never forms that matrix: each Fourier slice is a diagonal block
of it, so eigenvalues, singular values and Hermitian functions come from one
batched LAPACK call over the Fourier stack of :mod:`tspectral.transform` and
are mapped back with the inverse DFT.  The dense block-circulant route is
kept available as an oracle (``method="bcirc"``).

Every operation that needs a Hermitian, PSD or positive definite operand, here and in
:mod:`~tspectral.bounds` and :mod:`~tspectral.geometry`, goes through one of two private
entries.  :func:`_decompose` takes one operand: the Hermitian check, whose failure raises
an error naming the operation and the operand, then one batched ``eigh`` (or ``eigvalsh``)
on the Fourier stack.  :func:`_decompose_pair` takes the two of every bound, distance and
geodesic: equal shapes, then :func:`_decompose` of ``A`` and ``B`` in their product's kind,
once for one object passed as both, and each operand's PSD or PD requirement, A's before B
is checked.  The :class:`EigFactors` keep that stack for the callers' traces and give the
PSD and PD verdicts, the only place where ``PSD_RTOL`` and ``PD_RTOL`` meet a spectrum,
and the stacks Q diag(f(w)) Q^H that callers build from them.
A caller that needs an operand only through a factor R_k R_k^H = A_k (both operands of the
Bures-Wasserstein distance, the geodesic's A) asks the pair gate for its root entry.  For a
PSD requirement, R is one Cholesky factorization of the operand's own stack,
:func:`_cholesky_root`, whose success is also the PSD verdict (Cholesky's backward error puts
lambda_min within the verdict's margin).  For a positive definite one, the operand is first
offered to :func:`_pd_certified`, the certificate of the PD rule: a Cholesky factorization of
each slice shifted by ``PD_RTOL`` and a margin for the rounding of both routes
(``PD_CERTIFICATE_MARGIN``); where it succeeds, the eigenvalue verdict would pass, and R is
:func:`_cholesky_root`.  No eigensolve runs on either route.  Every other root, where the
factorization fails, is Q diag(sqrt(w)) of the ``eigh`` that gives the verdict, with its error,
and with the null eigenvalues of :func:`_null_tolerance` set to 0.  Every Cholesky
factorization of the package runs in those two functions.
The verdict-then-clamp rule lives there too: ``EigFactors._require`` raises on a failed
verdict, else returns the eigenvalues clamped at 0, so no caller clips a spectrum of its own
but the geodesic, whose M = L^(-1) B L^(-H) takes B's verdict and null space.

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
    _require_same_shape,
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
# tau over PD_RTOL * max(1, u), in (n + 1)^2 eps u: Cholesky's error takes 1, eigvalsh's the rest.
PD_CERTIFICATE_MARGIN = 8.0
# An eigenvalue at most n eps max(lambda_max, 0) counts as 0 (numpy's matrix_rank rule).
NULL_EIGENVALUE_RTOL = float(np.finfo(np.float64).eps)


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
    eigenvalues.  ``_kind`` is the kind of the product the factors serve,
    ``"real"`` or ``"complex"``: the fields hold the rfft half for ``"real"``,
    all p slices for ``"complex"``, and ``q`` and ``l`` are tensors of that
    kind.  The read-only ``fourier_eigenvalues``, shape (n, p) and descending
    per slice, and the tensors ``q`` and ``l`` are built when first read.
    """

    _w: np.ndarray  # (..., p', n) eigenvalues of the stacked slices, descending per slice
    _q_stack: np.ndarray | None = field(repr=False)  # (..., p', n, n) stack of Q; None: values only
    _stack: np.ndarray = field(repr=False)  # (..., p', n, n) stack of A itself
    _p: int
    _kind: str  # the product's kind: "real" (an rfft half) or "complex" (all p slices)

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

    The fields hold only the slices that were solved, and ``_kind`` is the
    operand's kind, which ``u``, ``s`` and ``v`` take, as in :class:`EigFactors`;
    the read-only ``fourier_singular_values``, shape (min(m, n), p), and the
    tensors ``u``, ``s`` and ``v`` are built when first read.
    """

    _sv: np.ndarray  # (p', min(m, n)) singular values of the stacked slices, descending
    _u_stack: np.ndarray = field(repr=False)  # (p', m, m) Fourier stack of U
    _v_stack: np.ndarray = field(repr=False)  # (p', n, n) Fourier stack of V
    _p: int
    _kind: str  # the operand's kind: "real" (an rfft half) or "complex" (all p slices)

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


def _stack_eig(stack: np.ndarray, p: int, kind: str, vectors: bool = True) -> EigFactors:
    """Factors of a Hermitian Fourier stack (an rfft half when ``kind`` is
    ``"real"``) or a batch of them: one batched ``eigh``, or ``eigvalsh`` without ``vectors``."""
    if vectors:
        w, q = np.linalg.eigh(stack)
        q = _read_only(q[..., ::-1])  # read-only, like a tensor's data
    else:
        w, q = np.linalg.eigvalsh(stack), None
    return EigFactors(w[..., ::-1], q, stack, p, kind)


def _pd_certified(stack: np.ndarray) -> bool:
    """Whether one batched Cholesky factorization of every A_k - tau I succeeds on this
    Hermitian Fourier stack (or batch of them), with u the largest slice Frobenius norm,
    at least every |lambda| of the stack, and tau = PD_RTOL * max(1, u) +
    PD_CERTIFICATE_MARGIN * (n + 1)^2 eps u.  Success puts every lambda above tau less
    Cholesky's backward error (Rump, BIT 46 (2006); Higham (2002), ch. 10), so the
    positive definiteness verdict that ``eigvalsh`` would give on the stack passes.
    False says nothing: the eigenvalues decide.  An overflowed u is never certified."""
    n = stack.shape[-1]
    with np.errstate(over="ignore"):
        u = float(np.linalg.norm(stack, axis=(-2, -1)).max())
    tau = PD_RTOL * max(1.0, u) + PD_CERTIFICATE_MARGIN * (n + 1) ** 2 * np.finfo(float).eps * u
    if not math.isfinite(tau):
        return False
    try:
        np.linalg.cholesky(stack - tau * np.eye(n))
    except np.linalg.LinAlgError:
        return False
    return True


def _null_tolerance(w: np.ndarray) -> np.ndarray:
    """n * NULL_EIGENVALUE_RTOL * max(lambda_max, 0) per item of eigenvalues w (..., p', n),
    shaped to broadcast against w: an eigenvalue at or below it counts as 0."""
    lam_max = w.max(axis=(-2, -1), keepdims=True)
    return w.shape[-1] * NULL_EIGENVALUE_RTOL * np.maximum(lam_max, 0.0)


def _hermitian_stack(t, op: str, check: HermitianCheck | None = None, name: str = "A"):
    """:func:`is_hermitian` of a tensor, or of every item of a batch of tensor data
    (..., n, n, p), raising a :class:`PreconditionError` that names ``op`` and the operand
    ``name``; then its own Fourier stack.  A caller that holds the check passes it as ``check``."""
    check = is_hermitian(t) if check is None else check
    bad = _first_failure(check.ok)
    if bad is not None:
        raise PreconditionError(
            f"{op} requires a Hermitian tensor {name}: residual "
            f"{np.ravel(check.residual)[bad]:.3e} exceeds {HERMITIAN_RTOL:.0e} * ||{name}||_F"
        )
    return _to_stack(t)


def _widens(t, kind: str | None) -> bool:
    """Whether operand ``t``, stacked on its rfft half, serves a product on all p slices."""
    return kind == "complex" and _product_kind(t) == "real"


def _solve(t, stack: np.ndarray, vectors: bool, kind: str | None) -> EigFactors:
    """The factors of :func:`_stack_eig` on ``stack``, operand ``t``'s own Fourier stack, in
    the product's ``kind``: for a real operand of a complex product they are put, stack
    included, on all p slices."""
    p = t.shape[-1]
    factors = _stack_eig(stack, p, _product_kind(t), vectors)
    if _widens(t, kind):
        full = [x if x is None else _all_slices(x, p) for x in (factors._q_stack, factors._stack)]
        factors = EigFactors(_all_slices(factors._w, p, axis=-2), *full, p, kind)
    return factors


def _decompose(t, op: str, vectors: bool = True, check: HermitianCheck | None = None,
               kind: str | None = None, name: str = "A") -> EigFactors:
    """The one gate to a Hermitian operand's spectrum: the check of :func:`_hermitian_stack`,
    then the factors of :func:`_stack_eig` on its Fourier stack, which they keep.  Each call
    runs both once.  ``kind`` is the kind of the product the factors serve (default the
    operand's own), which the factors take: a real operand is solved on its rfft half, and
    for ``"complex"`` its factors are put on all p slices."""
    return _solve(t, _hermitian_stack(t, op, check, name), vectors, kind)


def _cholesky_root(t, stack: np.ndarray, kind: str) -> np.ndarray | None:
    """One batched Cholesky factorization L_k L_k^H = A_k of operand ``t``'s own Fourier
    stack, in the product's ``kind``; None where a slice does not factor."""
    try:
        root = np.linalg.cholesky(stack)
    except np.linalg.LinAlgError:
        return None
    return _all_slices(root, t.shape[-1]) if _widens(t, kind) else root


def _decompose_pair(a, b, op: str, need=(None, None), vectors: bool = True, error=None,
                    roots: str = ""):
    """The one gate to a pair's spectra: equal shapes, then the entry of A, then of B (tensors
    or data batches), each checked and transformed once, also for one object as both.  An entry
    is (factors, w) of :func:`_decompose` in the pair's product kind: w is ``_w``, or where
    ``need`` is "PSD" or "positive definite", ``_require``'s, raising ``error``.

    An operand named in ``roots`` (with a requirement) gets a root entry instead: a stack R in
    the product's kind with R_k R_k^H = A_k on every slice.  R is :func:`_cholesky_root` of its
    own stack, with no eigensolve, where that factorization decides the requirement: for PSD
    its success is the verdict (for n <= 749, see below); for positive definite
    :func:`_pd_certified` passes first.  Every other root is Q diag(sqrt(w)) from the ``eigh``
    that gave the verdict, with the null eigenvalues of :func:`_null_tolerance` set to 0."""
    _require_same_shape(a, b, op)
    pair, kind = [], _product_kind(a, b)
    for t, name, required in zip((a, b), "AB", need):
        wants_root, definite = name in roots, required == "positive definite"
        if not pair or b is not a:
            stack, factors = _hermitian_stack(t, op, name=name), None
        elif (required, wants_root) == (need[0], "A" in roots):  # the same entry again
            pair.append(pair[0])
            continue
        # Cholesky's success on A puts lambda_min above -(n + 1)^2 eps lambda_max: with eigvalsh's
        # rounding, within PD_CERTIFICATE_MARGIN times that, the PSD verdict passes for n <= 749.
        if wants_root and (_pd_certified(stack) if definite else PD_CERTIFICATE_MARGIN
                           * (stack.shape[-1] + 1) ** 2 * np.finfo(float).eps <= PSD_RTOL):
            if (root := _cholesky_root(t, stack, kind)) is not None:
                pair.append(root)
                continue
        if factors is None:
            factors = _solve(t, stack, vectors or wants_root, kind)
        w = factors._w if required is None else factors._require(
            f"{op} requires {name} {required}", definite, error)
        if wants_root:
            w = np.where(w > _null_tolerance(w), w, 0.0)
        pair.append(factors._q_stack * np.sqrt(w)[..., None, :] if wants_root else (factors, w))
    return pair


def _descending(values: np.ndarray) -> np.ndarray:
    # descending real, then descending imag; lexsort is stable, so ties keep their order
    return np.lexsort((-values.imag, -values.real))


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
        vals = _all_slices(w, t.p, axis=-2).ravel()  # slice-major, so ties go by ascending slice
        order = _descending(vals)
        return Spectrum(vals[order], np.repeat(np.arange(1, t.p + 1), t.n)[order])
    if method == "bcirc":
        vals = (np.linalg.eigvalsh if herm.ok else np.linalg.eigvals)(bcirc(t))
        return Spectrum(vals[_descending(vals)])
    raise ValueError(f"unknown eigenvalue method {method!r}; use 'fourier' or 'bcirc'")


def hermitian_eig(t: Tensor3) -> EigFactors:
    """Slice-wise unitary eigendecomposition of a Hermitian tensor.

    Eigenvalues are sorted descending within each Fourier slice.  Real
    input is decomposed on its independent Fourier slices, the rfft half
    of :mod:`tspectral.transform`, so the Q and L factors come back real;
    those of complex input are complex.
    """
    return _decompose(t, "hermitian_eig")


def t_svd(t: Tensor3) -> TSvdFactors:
    """t-SVD via slice-wise singular value decompositions.

    Works for rectangular tensors; U is m x m x p, S is m x n x p with
    descending non-negative diagonal tubes in the Fourier domain, V is
    n x n x p.  All three have the kind of A.
    """
    u, sv, vh = np.linalg.svd(_to_stack(t))
    return TSvdFactors(sv, u, _adjoint(vh), t.p, t.kind)


_FUNCTION_TAGS = ("sqrt", "log", "inv_sqrt", "pow")


def t_function(t: Tensor3, fn: str, exponent: float | None = None) -> Tensor3:
    """Apply a scalar function to a Hermitian tensor through its eigenvalues.

    Supported tags: ``sqrt`` (PSD input; roundoff-negative eigenvalues in
    [-tol, 0] are clamped to zero), ``log`` and ``inv_sqrt`` (positive
    definite input), ``pow`` with a float ``exponent`` (PSD input, positive
    definite when ``exponent < 0``).  The result is Hermitian by
    construction and real-kind exactly when the input is real.
    """
    if fn not in _FUNCTION_TAGS:
        raise ValueError(f"unknown function tag {fn!r}; expected one of {_FUNCTION_TAGS}")
    if fn == "pow":
        if exponent is None:
            raise ValueError("t_function(..., 'pow') requires an exponent")
        if not math.isfinite(exponent):
            raise DomainError(f"pow requires a finite exponent, got {exponent!r}")
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
        if exponent == 0:  # exactly I, of the input's kind
            return identity(t.n, t.p) * (1.0 if t.kind == "real" else 1.0 + 0j)
        fw = np.power(w, float(exponent))
    return _from_stack(factors._apply(fw), t.p, factors._kind)


def is_psd(t: Tensor3) -> PsdCheck:
    """Positive semidefiniteness of a Hermitian tensor.

    True when the smallest block-circulant eigenvalue is at least
    ``-1e-9 * max(1, |lambda_max|)``.  Non-Hermitian input raises.
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
