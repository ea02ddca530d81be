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

import gc
import io
import json
import math
import re
import sys
from dataclasses import dataclass
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
    """

    data: np.ndarray

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
        _require_same_shape(self, other, "Tensor3 addition")
        return Tensor3(self.data + other.data)

    def __sub__(self, other: "Tensor3") -> "Tensor3":
        _require_same_shape(self, other, "Tensor3 subtraction")
        return Tensor3(self.data - other.data)

    def __mul__(self, scalar) -> "Tensor3":
        return Tensor3(self.data * scalar)

    __rmul__ = __mul__

    def __neg__(self) -> "Tensor3":
        return Tensor3(-self.data)

    def allclose(self, other: "Tensor3", rtol: float = 1e-12, atol: float = 1e-12) -> bool:
        return self.shape == other.shape and np.allclose(
            self.data, other.data, rtol=rtol, atol=atol
        )

    def __repr__(self) -> str:
        return f"Tensor3(m={self.m}, n={self.n}, p={self.p}, kind={self.kind})"


def _data(x) -> np.ndarray:
    """The data of a tensor; a batch of tensor data, shape (..., m, n, p), as is."""
    return x.data if isinstance(x, Tensor3) else x


def _require_same_shape(a: Tensor3, b: Tensor3, op: str) -> None:
    if a.shape != b.shape:
        raise ShapeError(f"{op} requires equal shapes, got {a.shape} vs {b.shape}")


def _require_square(t, op: str) -> None:
    """Square frontal slices, m == n, of a tensor or of the items of a batch of data."""
    m, n = _data(t).shape[-3:-1]
    if m != n:
        raise ShapeError(f"{op} requires square slices, got {m}x{n}")


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


def _hermitian_part(data: np.ndarray) -> np.ndarray:
    """(M + M^H) / 2 of tensor data, or of each item of a batch of it."""
    return (data + _conj_transpose_data(data)) * 0.5


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
    _require_square(t, "trace")
    val = t.p * np.trace(t.data[:, :, 0])
    return float(val.real) if t.kind == "real" else complex(val)


def _real_trace(t):
    """Real part of :func:`trace`; per item (an array) for a batch of data."""
    data = _data(t)
    tr = data.shape[-1] * np.trace(data[..., 0], axis1=-2, axis2=-1).real
    return tr if tr.ndim else float(tr)


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


def _vouched_flat(raw: list, kind: str) -> np.ndarray | None:
    """The flat data when numpy's dtype discovery finds only numbers in it;
    ``None`` when it finds anything else, and then :func:`_fast_flat` decides.

    Only for a document whose bytes hold no ``u`` and no ``f``: JSON spells
    true, false and null with one of them, so no entry is a bool or None.  A
    str, dict, nested list or integer beyond int64 then comes out as another
    dtype or shape, or raises, so a 1-D float64 or int64 array holds exactly
    the numbers the exact gate would take, each rounded as ``float`` rounds it.
    """
    try:
        if kind == "complex":
            if set(map(len, raw)) != {2}:
                return None
            raw = list(chain.from_iterable(raw))  # one flat list: a nested np.array is 2x slower
        flat = np.array(raw)
    except (TypeError, ValueError):  # len of a number; a ragged or too deep nesting
        return None
    if flat.ndim != 1 or flat.dtype not in (np.float64, np.int64):
        return None
    flat = flat.astype(np.float64, copy=False)
    return flat.view(np.complex128) if kind == "complex" else flat


def _fast_flat(raw: list, kind: str) -> np.ndarray | None:
    """The flat data in one numpy call when every entry has the right shape
    and exact number types; ``None`` when it has not, or holds an integer
    beyond float range, and then :func:`_bad_entry` names the entry."""
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


# A value's repr in an error message prints whole up to this length, which holds a few
# integers of hundreds of digits each; past it, its head and its length in characters.
_REPR_LIMIT = 4000


def _shown(value) -> str:
    """``repr(value)`` for an error message, bounded: cut past ``_REPR_LIMIT``
    characters, and a placeholder for a value nested too deeply to print."""
    try:
        text = repr(value)
    except RecursionError:
        return "<a value nested too deeply to print>"
    if len(text) <= _REPR_LIMIT:
        return text
    return f"{text[:_REPR_LIMIT]}... <{len(text)} characters>"


def _bad_entry(raw: list, kind: str, path) -> ParseError:
    """The error naming the first ``data[i]`` that :func:`_fast_flat` rejects:
    an entry of another type or shape, or one holding an integer beyond float range."""
    what, verb = ("a real number", "is") if kind == "real" else ("a [re, im] pair", "holds")
    for i, v in enumerate(raw):
        numbers = [v] if kind == "real" else v if type(v) is list and len(v) == 2 else None
        if numbers is None or not set(map(type, numbers)) <= _NUMBER_TYPES:
            return ParseError(f"{path}: data[{i}] is not {what}: {_shown(v)}")
        try:
            list(map(float, numbers))
        except OverflowError:
            return ParseError(f"{path}: data[{i}] {verb} an integer beyond float range")
    raise AssertionError("_bad_entry found no entry that _fast_flat rejects")


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
    names what the standard library finds there; where ``json`` fails on
    nesting that ``orjson`` parsed, the error is what ``orjson``'s document
    breaks.  A value shown in a message is cut to ``_REPR_LIMIT`` characters.

    Data in a file whose bytes hold no ``u`` and no ``f`` is converted by one
    numpy call when its dtype discovery finds only numbers
    (:func:`_vouched_flat`); all other data goes through the exact per-entry
    gate.  The cyclic garbage collector is off, process-wide, while the
    ``orjson`` document exists, and the caller's setting comes back after.
    """
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ParseError(f"{path}: cannot read tensor file: {exc}") from exc
    vouched = b"u" not in raw and b"f" not in raw  # no true, false or null: _vouched_flat
    # orjson's lists are new containers, which set off collections (full ones
    # too) that find nothing to free; the pause lasts until the document is dropped
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _tensor_from_doc(orjson.loads(raw), path, vouched)
    except orjson.JSONDecodeError:
        found = None
    except ParseError as exc:
        found = exc
    finally:
        if enabled:
            gc.enable()
    try:
        # universal newlines, as a text-mode open reads: error line numbers count \r too
        doc = json.loads(io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8").read())
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    except RecursionError as exc:  # nested deeper than json goes: orjson's finding, if any
        raise found or ParseError(f"{path}: cannot parse tensor file: {exc}") from exc
    except ValueError as exc:  # invalid UTF-8, an integer longer than int_max_str_digits
        raise ParseError(f"{path}: cannot parse tensor file: {exc}") from exc
    return _tensor_from_doc(doc, path, vouched)


def _tensor_from_doc(doc, path, vouched: bool) -> Tensor3:
    """The tensor a parsed JSON document describes; ``ParseError`` names the
    first field or ``data[i]`` entry that breaks the schema or is not finite.
    ``vouched``: the file's bytes hold no ``u`` and no ``f`` (:func:`_vouched_flat`)."""
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
        raise ParseError(f"{path}: field 'dims' must be three integers >= 1, got {_shown(dims)}")
    m, n, p = dims

    kind = doc["kind"]
    if kind not in ("real", "complex"):
        raise ParseError(f"{path}: field 'kind' must be 'real' or 'complex', got {_shown(kind)}")

    raw = doc["data"]
    if not isinstance(raw, list) or len(raw) != m * n * p:
        got = len(raw) if isinstance(raw, list) else type(raw).__name__
        raise ParseError(
            f"{path}: field 'data' must hold exactly m*n*p = {m * n * p} entries, got {got}"
        )

    flat = _vouched_flat(raw, kind) if vouched else None
    if flat is None:
        flat = _fast_flat(raw, kind)
    if flat is None:
        raise _bad_entry(raw, kind, path)

    if not np.all(np.isfinite(flat.view(np.float64) if kind == "complex" else flat)):
        bad = int(np.flatnonzero(~np.isfinite(flat))[0])
        raise ParseError(f"{path}: data[{bad}] is not finite")

    return Tensor3(np.transpose(flat.reshape(p, m, n), (1, 2, 0)))
