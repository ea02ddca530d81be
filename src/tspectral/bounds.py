"""Executable trace/eigenvalue bounds and extremal trace sums.

Each bound is returned as a :class:`BoundReport` carrying the lower bound,
the witnessed quantity, the upper bound, both slacks and a ``satisfied``
flag.  Sums over eigenvalues always run over the full block-circulant
spectrum of length ``N = n * p``: with the block-circulant trace convention
that is exactly the regime in which the slice-wise majorization argument
aggregates, and it is what makes the identities below close numerically.

Traces of t-products, such as tr(A*B), tr(A*B*A) and tr(U*H*U^H), are weighted
sums over Fourier slices, sum_k w_k tr(A_k B_k ...), by the kernel
``transform._stack_trace`` on the stacks the operands' factors hold: no operand
is transformed twice, no product formed.

``vn_trace_bounds``, ``sandwich_bounds``, ``extremal_ratio_bounds`` and
``symmetric_relax_bounds`` also take two batches of tensor data (..., n, n, p)
and report all items at once: every field but a report's ``context`` is then
an array, and every check runs per item.  The pair rule of the two-operand
bounds is :func:`~tspectral.spectral._decompose_pair`, which also requires PSD each
operand a bound needs PSD; errors name the operand ``A`` or ``B``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    Tensor3,
    _data,
    _first_failure,
    _hermitian_part,
    _real_trace,
    _require_same_shape,
    _require_square,
)
from .errors import DomainError, NumericError, PreconditionError, ShapeError
from .spectral import EigFactors, _decompose, _decompose_pair, t_eigenvalues
from .transform import (_adjoint, _from_stack, _product_kind, _product_stacks, _slice_sum,
                        _stack_trace)

__all__ = [
    "BoundReport",
    "SymmetrizedBounds",
    "KyFanResult",
    "rayleigh_value",
    "symmetrized_bounds",
    "vn_trace_bounds",
    "hermitian_trace_bounds",
    "sandwich_bounds",
    "extremal_ratio_bounds",
    "extremal_ratio_witness",
    "symmetric_relax_bounds",
    "ky_fan_sum",
]

# Slack of lower <= value <= upper, relative to max(1, |value|): far above the ~N eps roundoff.
REPORT_RTOL = 1e-8

# An eigenvalue whose imaginary part is at most this share of the spectral
# radius (or of 1) is real up to the roundoff of a slice eigensolve.
HERMITIAN_IMAG_ATOL = 1e-9

# Self-checks, each far above the roundoff of what it compares (a few n eps, relative):
# tr((A+aI)*(B+aI)) against its expansion, both sums of N products, relative to the largest
# of the two sides' terms (they cancel; N a^2 >= N, as a >= 1);
SHIFT_IDENTITY_RTOL = 1e-9
# U*U^H = I_k for ky_fan_sum's optimizer, as orthonormal as LAPACK's eigenvectors;
ISOMETRY_RTOL = 1e-9
# tr(U*H*U^H) against the eigenvalue sum it attains, to the eigensolve's backward error,
# relative to the sum of the added eigenvalues' magnitudes, since the sum may cancel.
ATTAINED_RTOL = 1e-8

# |2-norm - 1| of rayleigh_value's unfold(x): a vector normalized in floating point is off by ~eps.
UNIT_NORM_ATOL = 1e-10


@dataclass(frozen=True)
class BoundReport:
    """One verified inequality instance: lower <= value <= upper."""

    lower: float
    value: float
    upper: float
    slack_lower: float
    slack_upper: float
    satisfied: bool
    context: str

    @classmethod
    def build(cls, lower: float, value: float, upper: float, context: str) -> "BoundReport":
        """The report of lower <= value <= upper, up to ``REPORT_RTOL * max(1, |value|)``;
        given arrays (a sweep's batch), every field but ``context`` is an array."""
        if not np.ndim(value):
            lower, value, upper = float(lower), float(value), float(upper)
        tol = REPORT_RTOL * np.maximum(1.0, np.abs(value))
        satisfied = (lower - tol <= value) & (value <= upper + tol)
        return cls(lower, value, upper, value - lower, upper - value,
                   satisfied if np.ndim(satisfied) else bool(satisfied), context)


@dataclass(frozen=True)
class SymmetrizedBounds:
    """Eigenvalue enclosure from the symmetrized block-circulant matrix."""

    mu_min: float
    mu_max: float
    rho_symmetrized: float
    rho_tensor: float
    eigen_reports: tuple[BoundReport, ...]
    radius_report: BoundReport

    @property
    def satisfied(self) -> bool:
        return self.radius_report.satisfied and all(r.satisfied for r in self.eigen_reports)


@dataclass(frozen=True)
class KyFanResult:
    value: float
    optimizer: Tensor3


def _spectra(a, b, op: str, need=(None, None)) -> list[tuple]:
    """(factors, full real spectrum descending, length n*p) of A and of B from
    :func:`_decompose_pair`, which raises :class:`PreconditionError` for an operand
    that ``need`` requires PSD and is not."""
    pair = _decompose_pair(a, b, op, need, vectors=False, error=PreconditionError)
    full = [(f, f.fourier_eigenvalues) for f, _ in pair]
    return [(f, np.sort(ev.reshape(ev.shape[:-2] + (-1,)), axis=-1)[..., ::-1]) for f, ev in full]


def rayleigh_value(a: Tensor3, x: Tensor3) -> float:
    """Quadratic form of the symmetrized block-circulant matrix.

    ``x`` must be an n x 1 x p tensor whose unfolding is a unit vector; the
    returned value is ``y^H M y`` with ``y = unfold(x)`` and
    ``M = (bcirc(a) + bcirc(a)^H) / 2``.  For a unit eigentensor this recovers
    the associated eigenvalue.  It is computed on the Fourier slices, as
    ``(1/p) sum_k Re(x_k^H A_k x_k)``, the trace of the t-product x^H * A * x over p.
    """
    _require_square(a, "rayleigh_value")
    if x.m != a.n or x.n != 1 or x.p != a.p:
        raise ShapeError(
            f"rayleigh_value needs x of shape ({a.n}, 1, {a.p}), got {x.shape}"
        )
    norm = float(np.linalg.norm(x.data))
    if abs(norm - 1.0) > UNIT_NORM_ATOL:
        raise PreconditionError(f"unfold(x) must be a unit vector; 2-norm is {norm!r}")
    sa, sx = _product_stacks(a, x)
    return _stack_trace(_adjoint(sx), sa, sx, p=a.p) / a.p


def symmetrized_bounds(a: Tensor3) -> SymmetrizedBounds:
    """Enclose every real tensor eigenvalue between the extreme eigenvalues
    of the symmetrized block-circulant matrix, and bound the spectral radius.

    Only the real block-circulant eigenvalues are tensor eigenvalues in the
    strict eigenpair sense (a real eigenvalue of a real matrix has a real
    eigenvector, which the Rayleigh argument requires), so both the
    per-eigenvalue reports and the tensor spectral radius run over the real
    part of the spectrum.  Complex block-circulant eigenvalues can lie
    outside the enclosure and are deliberately excluded.

    (bcirc(A) + bcirc(A)^H) / 2 is bcirc((A + A^H) / 2), so its extreme
    eigenvalues are those of the Fourier slices of (A + A^H) / 2, the slices
    on which :func:`rayleigh_value` evaluates its quadratic form.  Each agrees
    with its dense form to roundoff, so a slack that is 0 up to roundoff may
    carry either sign (the CLI prints it as ``0.0000`` or ``-0.0000``).
    """
    _require_square(a, "symmetrized_bounds")
    mu = _decompose(_hermitian_part(a.data), "symmetrized_bounds", vectors=False)._w
    mu_min, mu_max = float(mu.min()), float(mu.max())
    rho_sym = float(np.abs(mu).max())

    spec = t_eigenvalues(a)
    vals = np.asarray(spec.values, dtype=np.complex128)
    scale = float(np.abs(vals).max()) if len(vals) else 0.0
    real_vals = vals[np.abs(vals.imag) <= HERMITIAN_IMAG_ATOL * max(1.0, scale)].real
    rho_t = float(np.abs(real_vals).max()) if len(real_vals) else 0.0
    eigen_reports = tuple(
        BoundReport.build(mu_min, float(v), mu_max, "symmetrized-enclosure")
        for v in real_vals
    )
    radius_report = BoundReport.build(0.0, rho_t, rho_sym, "spectral-radius")
    return SymmetrizedBounds(mu_min, mu_max, rho_sym, rho_t, eigen_reports, radius_report)


def _vn_sums(lam_a: np.ndarray, lam_b: np.ndarray) -> tuple[float, float]:
    lower = np.einsum("...i,...i->...", lam_a, lam_b[..., ::-1])
    upper = np.einsum("...i,...i->...", lam_a, lam_b)
    return lower, upper


def vn_trace_bounds(a: Tensor3, b: Tensor3) -> BoundReport:
    """Trace-of-product bounds for PSD tensors.

    With both spectra sorted descending over all N = n*p values,

        sum_i lam_i(A) lam_{N-i+1}(B)  <=  tr(A*B)  <=  sum_i lam_i(A) lam_i(B).
    """
    (fa, lam_a), (fb, lam_b) = _spectra(a, b, "vn_trace_bounds", ("PSD", "PSD"))
    lower, upper = _vn_sums(lam_a, lam_b)
    value = _stack_trace(fa._stack, fb._stack, p=fa._p)
    return BoundReport.build(lower, value, upper, "trace-product-psd")


def hermitian_trace_bounds(a: Tensor3, b: Tensor3) -> BoundReport:
    """Trace-of-product bounds for Hermitian tensors (PSD not required).

    Same sums as :func:`vn_trace_bounds`.  The reduction to the PSD case
    shifts both operands by ``alpha * I``; the expansion

        tr((A+aI)*(B+aI)) = tr(A*B) + a (tr A + tr B) + N a^2

    is verified numerically here and raises on disagreement.
    """
    (fa, lam_a), (fb, lam_b) = _spectra(a, b, "hermitian_trace_bounds")
    value = _stack_trace(fa._stack, fb._stack, p=fa._p)
    lower, upper = _vn_sums(lam_a, lam_b)

    # shift-identity self-check at alpha = 1 + |most negative eigenvalue|;
    # the Fourier stack of alpha * I is alpha * I on every slice
    big_n = a.n * a.p
    alpha = 1.0 + max(0.0, -float(lam_a[-1]), -float(lam_b[-1]))
    shift = alpha * np.eye(a.n)
    lhs = _stack_trace(fa._stack + shift, fb._stack + shift, p=a.p)
    terms = (value, alpha * (_real_trace(a) + _real_trace(b)), big_n * alpha**2)
    rhs = sum(terms)
    if abs(lhs - rhs) > SHIFT_IDENTITY_RTOL * max(abs(x) for x in (lhs, *terms)):
        raise NumericError(
            f"shift identity violated: {lhs!r} vs {rhs!r} at alpha={alpha!r}"
        )
    return BoundReport.build(lower, value, upper, "trace-product-hermitian")


def sandwich_bounds(a: Tensor3, b: Tensor3) -> BoundReport:
    """Bounds on tr(A*B*A) for symmetric PSD tensors:

        lam_min(B) tr(A)^2 / N  <=  tr(A*B*A)  <=  lam_max(B) tr(A)^2.
    """
    (fa, _), (fb, lam_b) = _spectra(a, b, "sandwich_bounds", ("PSD", "PSD"))
    tr_a = _real_trace(a)
    big_n = lam_b.shape[-1]
    value = _stack_trace(fa._stack, fb._stack, fa._stack, p=fa._p)
    lower, upper = lam_b[..., -1] * tr_a**2 / big_n, lam_b[..., 0] * tr_a**2
    return BoundReport.build(lower, value, upper, "sandwich-psd")


def extremal_ratio_bounds(a: Tensor3, b: Tensor3) -> BoundReport:
    """Tightest constant bounds on tr(A*B) / tr(B) over PSD B.

    For Hermitian A the ratio always lies in [lam_min(A), lam_max(A)], and
    both endpoints are attained (see :func:`extremal_ratio_witness`).
    """
    (fa, lam_a), (fb, _) = _spectra(a, b, "extremal_ratio_bounds", (None, "PSD"))
    tr_b = _real_trace(b)
    bad = _first_failure(tr_b > 0.0)
    if bad is not None:
        tr_b = float(np.ravel(tr_b)[bad])
        raise DomainError(f"extremal_ratio_bounds requires trace(B) > 0, got {tr_b!r}")
    value = _stack_trace(fa._stack, fb._stack, p=fa._p) / tr_b
    return BoundReport.build(lam_a[..., -1], value, lam_a[..., 0], "extremal-ratio")


def extremal_ratio_witness(a: Tensor3, which: str = "max") -> Tensor3:
    """Construct a PSD tensor B achieving the extremal trace ratio for A.

    The witness concentrates a rank-one projector on the Fourier slice that
    carries the extreme eigenvalue of A (for real A the inverse transform
    puts its conjugate on the mirrored slice, so the witness stays real).
    By construction ``tr(A*B)/tr(B)`` equals the extreme eigenvalue.
    """
    if which not in ("max", "min"):
        raise ValueError(f"which must be 'max' or 'min', got {which!r}")
    factors = _decompose(a, "extremal_ratio_witness")
    w = factors._w.T  # (n, p'), descending per slice
    pick = np.argmax if which == "max" else np.argmin
    row, col = np.unravel_index(pick(w), w.shape)
    u = factors._q_stack[col, :, row : row + 1]
    bhat = np.zeros((w.shape[1], a.n, a.n), dtype=np.complex128)
    bhat[col] = u @ _adjoint(u)
    return _from_stack(bhat, a.p, factors._kind)


def symmetric_relax_bounds(a: Tensor3, b: Tensor3) -> BoundReport:
    """Recorded (not asserted) bounds on tr(A*B) for symmetric B and general
    real A, in terms of the symmetrized tensor (A + A^T)/2.

    The containment is empirical: the report's ``satisfied`` flag documents
    the outcome and callers are expected to aggregate rather than assert.
    """
    _require_same_shape(a, b, "symmetric_relax_bounds")
    if _product_kind(a, b) != "real":
        raise PreconditionError("symmetric_relax_bounds is defined for real tensors")
    _require_square(a, "symmetric_relax_bounds")  # before (A + A^T)/2 is formed
    (f_sym, lam_bar), (fb, lam_b) = _spectra(_hermitian_part(_data(a)), b, "symmetric_relax_bounds")
    big_n = lam_b.shape[-1]
    tr_a = _real_trace(a)
    tr_b = _real_trace(b)
    lam1, lam_n = lam_bar[..., 0], lam_bar[..., -1]
    lam_n_b = lam_b[..., -1]
    value = _stack_trace(f_sym._stack, fb._stack, p=fb._p)  # = tr(A*B), B being symmetric
    lower = lam_n * tr_b - lam_n_b * (big_n * lam_n - tr_a)
    upper = lam1 * tr_b - lam_n_b * (big_n * lam1 - tr_a)
    return BoundReport.build(lower, value, upper, "relaxed-symmetric")


def _ky_fan_factors(h: Tensor3, k: int, vectors: bool = True) -> EigFactors:
    """H's factors for its Ky Fan extremes over k x n x p partial isometries,
    once k is checked: the rule 1 <= k <= n comes before H's decomposition."""
    if not 1 <= k <= h.n:
        raise DomainError(f"k must satisfy 1 <= k <= {h.n}, got {k}")
    return _decompose(h, "ky_fan_sum", vectors=vectors)


def _ky_fan_values(factors: EigFactors, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The maximum and the minimum of tr(U*H*U^H) over k x n x p partial isometries U,
    from H's factors: the :func:`_slice_sum` of each solved slice's top-k and
    bottom-k eigenvalues, ``_w`` being descending per slice."""
    w, n = factors._w, factors._w.shape[-1]
    return tuple(_slice_sum(w[..., chosen].sum(axis=-1), factors._p)
                 for chosen in (slice(0, k), slice(n - k, n)))


def ky_fan_sum(h: Tensor3, k: int, which: str = "max") -> KyFanResult:
    """Extremal value of tr(U*H*U^H) over slice-wise partial isometries.

    For Hermitian H the maximum over k x n x p tensors U with U*U^H = I_k
    equals the sum over Fourier slices of each slice's top-k eigenvalues
    (bottom-k for ``which="min"``); for p = 1 this is the classical matrix
    statement.  The achieving U is assembled from the per-slice eigenvectors
    and is verified to be a partial isometry attaining the value.
    """
    if which not in ("max", "min"):
        raise ValueError(f"which must be 'max' or 'min', got {which!r}")
    factors = _ky_fan_factors(h, k)
    top, bottom = map(float, _ky_fan_values(factors, k))
    value, chosen = (top, slice(0, k)) if which == "max" else (bottom, slice(h.n - k, h.n))
    q = factors._q_stack[:, :, chosen]  # U's stack is Q^H, so U*U^H's is Q^H Q
    u = _from_stack(_adjoint(q), h.p, factors._kind)

    def norm(x):  # ||X||_F^2 = tr(X^H * X), on the Fourier stack of X
        return np.sqrt(_stack_trace(_adjoint(x), x, p=h.p))

    gram = _adjoint(q) @ q
    resid = norm(gram - np.eye(k))
    if resid > ISOMETRY_RTOL * (1.0 + norm(gram)):
        raise NumericError(f"constructed optimizer is not a partial isometry: {resid:.3e}")
    achieved = _stack_trace(_adjoint(q), factors._stack, q, p=h.p)
    added = _slice_sum(np.abs(factors._w[:, chosen]).sum(axis=-1), h.p)  # |terms| of value
    if abs(achieved - value) > ATTAINED_RTOL * max(1.0, added):
        raise NumericError(
            f"optimizer achieves {achieved!r} but extremal value is {value!r}"
        )
    return KyFanResult(value, u)
