"""Dense third-order tensors and the block-circulant operator algebra.

A :class:`Tensor3` is an immutable ``m x n x p`` array of real or complex
scalars.  Frontal slice ``k`` is the ``m x n`` matrix ``A[:, :, k]``; the
length-``p`` fibers along the last axis are the tubes.  The operators
``bcirc``, ``unfold`` and ``fold`` connect tensors to ordinary matrices, and
every spectral notion in this package is defined through ``bcirc``.

Trace convention
----------------
The tensor trace used throughout is ``trace(bcirc(A))``, which equals
``p * trace(A[:, :, 0])``.  Part of the literature instead uses the trace of
the first frontal slice alone; the two differ exactly by the factor ``p``.
Distance functions in :mod:`tspectral.geometry` accept a ``convention``
switch, everything else is pinned to the block-circulant trace.
"""

from __future__ import annotations

import io
import json
import math
import re
import sys
from dataclasses import dataclass, field
from itertools import chain

import numpy as np
import orjson

from .errors import DomainError, NumericError, ParseError, ShapeError

__all__ = [
    "Tensor3",
    "frontal_slice",
    "bcirc",
    "unfold",
    "fold",
    "conj_transpose",
    "identity",
    "trace",
    "frobenius_norm",
    "read_tensor",
    "write_tensor",
]

_REAL_KINDS = ("f", "i", "u")


def _as_tensor_data(data: np.ndarray) -> np.ndarray:
    arr = np.asarray(data)
    if arr.ndim != 3:
        raise ShapeError(f"tensor data must be 3-dimensional, got shape {arr.shape}")
    if min(arr.shape) < 1:
        raise ShapeError(f"all tensor dimensions must be >= 1, got {arr.shape}")
    if arr.dtype.kind in _REAL_KINDS:
        dtype = np.float64
    elif arr.dtype.kind == "c":
        dtype = np.complex128
    else:
        raise ShapeError(f"unsupported scalar dtype {arr.dtype}")
    arr = np.array(arr, dtype=dtype, order="C")  # one copy: cast, C order, unaliased
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Tensor3:
    """Immutable dense third-order tensor.

    Parameters
    ----------
    data : ndarray, shape (m, n, p)
        Frontal slice ``k`` is ``data[:, :, k]``.  Real input is stored as
        float64, complex input as complex128, in a private read-only
        C-contiguous copy.

    The stored data must never be written: :mod:`tspectral.spectral` keeps
    each tensor's Hermitian check and eigendecomposition with the tensor
    (``_spectral``) and reads them back on every later call.
    """

    data: np.ndarray
    _spectral: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "data", _as_tensor_data(self.data))

    @property
    def m(self) -> int:
        return self.data.shape[0]

    @property
    def n(self) -> int:
        return self.data.shape[1]

    @property
    def p(self) -> int:
        return self.data.shape[2]

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.data.shape

    @property
    def kind(self) -> str:
        """``"real"`` or ``"complex"``, from the storage dtype."""
        return "complex" if self.data.dtype.kind == "c" else "real"

    @classmethod
    def from_slices(cls, slices) -> "Tensor3":
        """Build a tensor from an iterable of equally shaped frontal slices."""
        mats = [np.asarray(s) for s in slices]
        if not mats:
            raise ShapeError("need at least one frontal slice")
        if any(m.ndim != 2 or m.shape != mats[0].shape for m in mats):
            raise ShapeError("all frontal slices must be 2-D with equal shape")
        return cls(np.stack(mats, axis=2))

    @classmethod
    def zeros(cls, m: int, n: int, p: int, kind: str = "real") -> "Tensor3":
        dtype = np.complex128 if kind == "complex" else np.float64
        return cls(np.zeros((m, n, p), dtype=dtype))

    def slices(self):
        """Iterate over copies of the frontal slices."""
        yield from np.moveaxis(self.data, 2, 0).copy()

    # Linear-space operators; these stay closed over Tensor3 so that bound
    # and geometry code can form combinations like a*X + (1-a)*Y.
    def __add__(self, other: "Tensor3") -> "Tensor3":
        self._check_same_shape(other)
        return Tensor3(self.data + other.data)

    def __sub__(self, other: "Tensor3") -> "Tensor3":
        self._check_same_shape(other)
        return Tensor3(self.data - other.data)

    def __mul__(self, scalar) -> "Tensor3":
        return Tensor3(self.data * scalar)

    __rmul__ = __mul__

    def __neg__(self) -> "Tensor3":
        return Tensor3(-self.data)

    def _check_same_shape(self, other: "Tensor3"):
        if self.shape != other.shape:
            raise ShapeError(f"shape mismatch: {self.shape} vs {other.shape}")

    def allclose(self, other: "Tensor3", rtol: float = 1e-12, atol: float = 1e-12) -> bool:
        return self.shape == other.shape and np.allclose(
            self.data, other.data, rtol=rtol, atol=atol
        )

    def __repr__(self) -> str:
        return f"Tensor3(m={self.m}, n={self.n}, p={self.p}, kind={self.kind})"


def _require_same_shape(a: Tensor3, b: Tensor3, op: str) -> None:
    if a.shape != b.shape:
        raise ShapeError(f"{op} requires equal shapes, got {a.shape} vs {b.shape}")


def frontal_slice(t: Tensor3, k: int) -> np.ndarray:
    """Return a copy of the k-th frontal slice, 1-based."""
    if not 1 <= k <= t.p:
        raise DomainError(f"slice index {k} out of range 1..{t.p}")
    return t.data[:, :, k - 1].copy()


def bcirc(t: Tensor3) -> np.ndarray:
    """Assemble the ``mp x np`` block-circulant matrix of a tensor.

    Block ``(i, j)`` holds frontal slice ``(i - j) mod p`` (0-based), so the
    first block column stacks the slices in order and each subsequent column
    is a downward rotation.
    """
    m, n, p = t.shape
    # The 2p - 1 slices (k - (p - 1)) mod p; reversed window i holds slices
    # (j - i) mod p.  The windows are a view, so the mp x np result is the only
    # full-size copy (a (m, n, p, p) gather would be a second).
    ext = t.data[:, :, (np.arange(2 * p - 1) - (p - 1)) % p]
    windows = np.lib.stride_tricks.sliding_window_view(ext, p, axis=2)[:, :, ::-1]
    return np.ascontiguousarray(np.transpose(windows, (3, 0, 2, 1)).reshape(m * p, n * p))


def unfold(t: Tensor3) -> np.ndarray:
    """Stack the frontal slices vertically into an ``mp x n`` matrix."""
    m, n, p = t.shape
    return np.transpose(t.data, (2, 0, 1)).reshape(p * m, n).copy()


def fold(mat: np.ndarray, p: int) -> Tensor3:
    """Inverse of :func:`unfold`; ``mat`` must have ``p`` equal row blocks."""
    mat = np.asarray(mat)
    if mat.ndim != 2:
        raise ShapeError(f"fold expects a matrix, got shape {mat.shape}")
    if p < 1 or mat.shape[0] % p != 0:
        raise ShapeError(f"row count {mat.shape[0]} is not divisible by p={p}")
    m = mat.shape[0] // p
    return Tensor3(np.transpose(mat.reshape(p, m, mat.shape[1]), (1, 2, 0)))


def conj_transpose(t: Tensor3) -> Tensor3:
    """Tensor conjugate transpose.

    Each frontal slice is conjugate-transposed and slices 2..p are reversed
    in order, which makes ``bcirc(conj_transpose(A)) == bcirc(A).conj().T``.
    For real tensors this is the tensor transpose.
    """
    return Tensor3(_conj_transpose_data(t.data))


def _conj_transpose_data(data: np.ndarray) -> np.ndarray:
    """The data of :func:`conj_transpose` for tensor data ``data`` (or a batch
    of it, shape (..., m, n, p)), as a new array."""
    p = data.shape[-1]
    out = data.swapaxes(-3, -2)[..., -np.arange(p) % p]
    return out.conj() if data.dtype.kind == "c" else out


def identity(n: int, p: int) -> Tensor3:
    """Neutral element of the t-product: first slice I_n, other slices zero."""
    if n < 1 or p < 1:
        raise ShapeError(f"identity requires n, p >= 1, got n={n}, p={p}")
    data = np.zeros((n, n, p))
    data[:, :, 0] = np.eye(n)
    return Tensor3(data)


def trace(t: Tensor3):
    """Tensor trace, ``trace(bcirc(A)) = p * trace(A[:, :, 0])``.

    Returns a float for real tensors and a complex scalar otherwise.
    """
    if t.m != t.n:
        raise ShapeError(f"trace requires square slices, got {t.m}x{t.n}")
    val = t.p * np.trace(t.data[:, :, 0])
    return float(val.real) if t.kind == "real" else complex(val)


def frobenius_norm(t: Tensor3) -> float:
    """Frobenius norm induced by the block-circulant trace.

    Equals ``sqrt(trace(A^H * A))`` and also ``sqrt(p)`` times the plain
    2-norm of the entries; the cheap elementwise form is used here and the
    equality with the trace form is covered by the test suite.  Entries whose
    squares would overflow or underflow are rescaled first (``_norm``).
    """
    return math.sqrt(t.p) * _norm(t.data)


# sqrt(smallest normal) / eps = 2^-459: above it, subnormal squares (each off by
# at most 2^-1075) move the sum of squares by under half an ulp for < 2^104 entries.
_NORM_SAFE_MIN = math.sqrt(sys.float_info.min) / sys.float_info.epsilon


def _norm(arr: np.ndarray, batch: int = 0):
    """2-norm of the entries of ``arr``; with ``batch`` leading axes, an array
    of one norm per item.  The plain norm squares the entries; only for an
    item where it comes out non-finite, or below ``_NORM_SAFE_MIN`` with an
    entry that is not zero, are they first divided by a power of two near the
    item's largest magnitude (an exact scaling)."""
    flat = arr.reshape(arr.shape[:batch] + (-1,))
    axis = -1 if batch else None
    with np.errstate(over="ignore"):  # the plain attempt: an overflow is redone below
        norm = np.linalg.norm(flat, axis=axis)
    ok = (_NORM_SAFE_MIN <= norm) & (norm < math.inf)
    if _first_failure(ok) is not None:
        redo = ~ok & (np.count_nonzero(flat, axis=axis) > 0)  # a zero item keeps its zero norm
        if _first_failure(~redo) is not None:
            big = np.abs(flat).max(axis=axis)
            redo &= big < math.inf  # an item with an inf or nan entry keeps the plain norm
            scale = np.ldexp(1.0, np.clip(np.frexp(big)[1], -1000, 1000))  # a normal float
            rescaled = np.linalg.norm(flat / np.expand_dims(scale, -1), axis=axis) * scale
            norm = np.where(redo, rescaled, norm)
    return norm if batch else float(norm)


def _first_failure(ok) -> int | None:
    """Flat index of the first item (C order) whose bool ``ok`` is false, else None."""
    if isinstance(ok, np.ndarray):
        return None if ok.all() else int(ok.argmin())
    return None if ok else 0


# ---------------------------------------------------------------------------
# Tensor file format
#
# JSON object {"dims": [m, n, p], "kind": "real"|"complex", "data": [...]}
# with the flat data array in slice-major, then row-major order.  Complex
# entries are [re, im] pairs.
# ---------------------------------------------------------------------------


_NUMBER_TYPES = {int, float}  # exact types: the parsers give bool for true/false


def _fast_flat(raw: list, kind: str) -> np.ndarray | None:
    """The flat data in one numpy call when every entry has the right shape
    and exact number types; ``None`` sends ``_tensor_from_doc`` to its
    per-entry loop, which names the first bad ``data[i]``."""
    if kind == "real":
        ok = set(map(type, raw)) <= _NUMBER_TYPES
    else:
        ok = (
            set(map(type, raw)) == {list}
            and set(map(len, raw)) == {2}
            and set(map(type, chain.from_iterable(raw))) <= _NUMBER_TYPES
        )
    if not ok:
        return None
    try:
        if kind == "real":
            return np.array(raw, dtype=np.float64)
        # one flat pass over the components; a nested np.array is 2-3x slower
        return np.fromiter(chain.from_iterable(raw), np.float64, 2 * len(raw)).view(np.complex128)
    except OverflowError:  # an integer beyond float range
        return None


# orjson prints the same shortest round-trip digits as float.__repr__ (Ryu and
# Gay's dtoa) in another layout: |x| in [1e-5, 1e-4) positionally (0.000015,
# repr 1.5e-05), and exponents with no "+" and no zero padding (1e16, 1e-7;
# repr 1e+16, 1e-07).  _BAND moves the first into orjson's own scientific
# layout (1.5e-5), then _EXPONENT rewrites every exponent into repr's.
# "0.0000" also occurs inside tokens (10.00003), so _BAND matches only at a
# token start, after "[", "," or a sign; its literal comes first so that re
# searches for it.
_BAND = re.compile(rb"0\.0000(?<=[\[,-]0\.0000)(\d)(\d*)")
_EXPONENT = re.compile(rb"e-?\d+")
_REPR_EXPONENT = {b"e%d" % k: b"e%+03d" % k for k in range(-324, 309)}


def _band_scientific(match: re.Match) -> bytes:
    return match[1] + (b"." + match[2] if match[2] else b"") + b"e-5"


def write_tensor(t: Tensor3, path) -> None:
    """Serialize a tensor losslessly to the JSON tensor format.

    The bytes are those of ``json.dumps(doc) + "\n"``: one ``orjson`` dump of
    the data, with its float layout rewritten into ``repr``'s.  A tensor with
    a non-finite entry raises ``NumericError`` before the file is opened.
    """
    flat = np.transpose(t.data, (2, 0, 1)).ravel()
    finite = np.isfinite(flat)
    if not finite.all():
        bad = int(np.flatnonzero(~finite)[0])
        raise NumericError(
            f"{path}: data[{bad}] is not finite; tensor files hold finite numbers only"
        )
    if t.kind == "complex":
        flat = flat.view(np.float64).reshape(-1, 2)  # [re, im] rows
    body = orjson.dumps(flat, option=orjson.OPT_SERIALIZE_NUMPY)
    # A double prints in [1e-5, 1e-4) exactly when it lies between the doubles
    # 1e-5 and 1e-4, so this skips the scan of most files.
    mag = np.abs(flat)
    if np.any((mag >= 1e-5) & (mag < 1e-4)):
        body = _BAND.sub(_band_scientific, body)
    if b"e" in body:
        body = _EXPONENT.sub(lambda match: _REPR_EXPONENT[match[0]], body)
    head = b'{"dims": [%d, %d, %d], "kind": "%s", "data": ' % (t.m, t.n, t.p, t.kind.encode())
    with open(path, "wb") as fh:
        fh.writelines((head, body.replace(b",", b", "), b"}\n"))  # no joined copy


def read_tensor(path) -> Tensor3:
    """Parse a tensor file, validating the schema and finiteness.

    The bytes are parsed with ``orjson``.  A file it rejects (NaN, Infinity,
    numbers beyond float range, a BOM, invalid UTF-8, lone surrogates), or
    whose document fails a check, is parsed again by ``json`` from the text
    that ``open(path, "r", encoding="utf-8")`` gives, so every error message
    names what the standard library finds there.
    """
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ParseError(f"{path}: cannot read tensor file: {exc}") from exc
    try:
        return _tensor_from_doc(orjson.loads(raw), path)
    except (orjson.JSONDecodeError, ParseError):
        pass
    try:
        # universal newlines, as a text-mode open reads: error line numbers count \r too
        doc = json.loads(io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8").read())
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    except ValueError as exc:  # invalid UTF-8, an integer longer than int_max_str_digits
        raise ParseError(f"{path}: cannot parse tensor file: {exc}") from exc
    return _tensor_from_doc(doc, path)


def _tensor_from_doc(doc, path) -> Tensor3:
    """The tensor a parsed JSON document describes; ``ParseError`` names the
    first field or ``data[i]`` entry that breaks the schema or is not finite."""
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: top-level value must be an object")
    for key in ("dims", "kind", "data"):
        if key not in doc:
            raise ParseError(f"{path}: missing required field '{key}'")

    dims = doc["dims"]
    if (
        not isinstance(dims, list)
        or len(dims) != 3
        or not all(type(d) is int and d >= 1 for d in dims)  # bool is not a dim
    ):
        raise ParseError(f"{path}: field 'dims' must be three integers >= 1, got {dims!r}")
    m, n, p = dims

    kind = doc["kind"]
    if kind not in ("real", "complex"):
        raise ParseError(f"{path}: field 'kind' must be 'real' or 'complex', got {kind!r}")

    raw = doc["data"]
    if not isinstance(raw, list) or len(raw) != m * n * p:
        got = len(raw) if isinstance(raw, list) else type(raw).__name__
        raise ParseError(
            f"{path}: field 'data' must hold exactly m*n*p = {m * n * p} entries, got {got}"
        )

    flat = _fast_flat(raw, kind)
    if flat is None and kind == "real":
        flat = np.empty(m * n * p, dtype=np.float64)
        for i, v in enumerate(raw):
            if not isinstance(v, (int, float)) or isinstance(v, bool):
                raise ParseError(f"{path}: data[{i}] is not a real number: {v!r}")
            try:
                flat[i] = v
            except OverflowError:
                raise ParseError(f"{path}: data[{i}] is an integer beyond float range") from None
    elif flat is None:
        flat = np.empty(m * n * p, dtype=np.complex128)
        for i, v in enumerate(raw):
            if (
                not isinstance(v, list)
                or len(v) != 2
                or not all(isinstance(c, (int, float)) and not isinstance(c, bool) for c in v)
            ):
                raise ParseError(f"{path}: data[{i}] is not a [re, im] pair: {v!r}")
            try:
                flat[i] = complex(v[0], v[1])
            except OverflowError:
                raise ParseError(f"{path}: data[{i}] holds an integer beyond float range") from None

    if not np.all(np.isfinite(flat.view(np.float64) if kind == "complex" else flat)):
        bad = int(np.flatnonzero(~np.isfinite(flat))[0])
        raise ParseError(f"{path}: data[{bad}] is not finite")

    return Tensor3(np.transpose(flat.reshape(p, m, n), (1, 2, 0)))
