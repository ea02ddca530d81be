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
import struct
import sys
from dataclasses import dataclass
from itertools import chain

import numpy as np

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


def _flat(raw: list, kind: str, vouched: bool) -> np.ndarray | None:
    """The flat data, each number rounded as ``float`` rounds it; ``None`` when
    an entry has another type or shape, or holds an integer beyond float range,
    and then :func:`_bad_entry` names the entry.

    One converter, a ``struct.pack`` of the list with the ``d`` code, takes every
    list: it raises ``struct.error`` on a str, None, list or dict and on an integer
    beyond float range, but takes a bool as a number.  ``vouched``: the document's
    bytes hold no ``u`` and no ``f``, one of which JSON spells true, false and null
    with, so no entry is a bool.  All other data passes the exact type gate first.
    """
    try:
        if kind == "complex":
            if set(map(len, raw)) != {2}:  # len of a number raises TypeError
                return None
            raw = list(chain.from_iterable(raw))
        if not vouched and not set(map(type, raw)) <= _NUMBER_TYPES:
            return None
        flat = np.frombuffer(struct.pack(f"{len(raw)}d", *raw))
    except (TypeError, struct.error):
        return None
    return flat.view(np.complex128) if kind == "complex" else flat


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
    """The error naming the first ``data[i]`` that :func:`_flat` rejects:
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
    raise AssertionError("_bad_entry found no entry that _flat rejects")


# orjson prints the same shortest round-trip digits as float.__repr__ (Ryu and
# Gay's dtoa) in another layout: exponents with no "+" and no zero padding (1e16,
# 1e-7; repr 1e+16, 1e-07), which _EXPONENT rewrites into repr's, and |x| in
# [1e-5, 1e-4) positionally (0.000015, repr 1.5e-05).  A double prints in that
# band exactly when it lies between the doubles 1e-5 and 1e-4, so the writer
# finds those entries by magnitude and puts repr's token in place of each alone.
_EXPONENT = re.compile(rb"e-?\d+")
_REPR_EXPONENT = {b"e%d" % k: b"e%+03d" % k for k in range(-324, 309)}


def _band_in_repr(body: bytes, flat: np.ndarray) -> bytes:
    """``body``, orjson's dump of ``flat`` (floats, or [re, im] rows), with the token of
    each number in [1e-5, 1e-4) replaced by its ``repr``.  Number i of ``flat`` starts
    after the i-th comma (and the "[" of its row, if it opens one) and ends at the next
    comma (or the "]" that closes its row or the list)."""
    values = flat.ravel()
    mag = np.abs(values)
    band = np.flatnonzero((mag >= 1e-5) & (mag < 1e-4))
    if band.size == 0:
        return body
    rows = flat.ndim == 2
    commas = np.flatnonzero(np.frombuffer(body, np.uint8) == ord(","))
    starts = np.append(0, commas)[band] + 1 + (rows & (band % 2 == 0))
    ends = np.append(commas, len(body) - 1)[band] - (rows & (band % 2 == 1))
    tokens = [repr(x).encode() for x in values[band].tolist()]
    kept = [body[i:j] for i, j in zip([0, *ends.tolist()], [*starts.tolist(), len(body)])]
    pieces = [b""] * (len(kept) + len(tokens))
    pieces[::2], pieces[1::2] = kept, tokens
    return b"".join(pieces)


def write_tensor(t: Tensor3, path) -> None:
    """Serialize a tensor losslessly to the JSON tensor format.

    The bytes are those of ``json.dumps(doc) + "\n"``: one ``orjson`` dump of
    the data, with its float layout rewritten into ``repr``'s.  A tensor with
    a non-finite entry raises ``NumericError`` before the file is opened.
    """
    import orjson  # loaded by the first read or write, not by every import of the package

    flat = np.transpose(t.data, (2, 0, 1)).ravel()
    bad = _first_failure(np.isfinite(flat))
    if bad is not None:
        raise NumericError(f"{path}: data[{bad}] is not finite; "
                           "tensor files hold finite numbers only")
    if t.kind == "complex":
        flat = flat.view(np.float64).reshape(-1, 2)  # [re, im] rows
    body = orjson.dumps(flat, option=orjson.OPT_SERIALIZE_NUMPY)
    if b"e" in body:  # before the band's tokens go in, in repr's layout already
        body = _EXPONENT.sub(lambda match: _REPR_EXPONENT[match[0]], body)
    body = _band_in_repr(body, flat)
    head = b'{"dims": [%d, %d, %d], "kind": "%s", "data": ' % (t.m, t.n, t.p, t.kind.encode())
    with open(path, "wb") as fh:
        fh.writelines((head, body.replace(b",", b", "), b"}\n"))  # no joined copy


# orjson (3.8.3) recurses on the C stack with no depth limit: this many levels, about 150
# bytes each (55,000 nested objects overflow 8 MiB), fit in 32 KiB, the smallest stack
# threading gives a thread; a valid tensor document nests 2 or 3 deep.
_ORJSON_MAX_DEPTH = 64
# The bytes json.dumps and write_tensor put between the [re, im] pairs of a complex file.
_PAIR_SEPARATOR = int.from_bytes(b"], [", "little")


def _depth_bound(raw: bytes) -> int:
    """An upper bound on the nesting depth of the JSON text ``raw``, whatever its strings
    hold: the number of ``[`` and ``{`` bytes, less, when that is above
    ``_ORJSON_MAX_DEPTH``, the number of ``], [`` separators.  Each separator has one
    bracket that is not open at the deepest point: the ``]``'s partner if that point
    comes after the ``]``, else its own ``[``; no quote lies between the two, so both are
    inside one string or both outside every string.  A complex file bounds to 4; laid
    out with other separators (``],[`` or indented), one of over 61 pairs goes to ``json``.

    ``[`` and ``{`` differ in bit 0x20 alone, so one buffer, compared in place, counts
    both; the separators are counted on four ``<u4`` views of the bytes, one per offset."""
    marks = np.frombuffer(raw, np.uint8) | 0x20
    brackets = int(np.count_nonzero(np.equal(marks, 0x7B, out=marks.view(np.bool_))))
    if brackets <= _ORJSON_MAX_DEPTH:
        return brackets
    return brackets - sum(
        int(np.count_nonzero(np.frombuffer(raw, "<u4", (len(raw) - k) // 4, k) == _PAIR_SEPARATOR))
        for k in range(4)
    )


def read_tensor(path) -> Tensor3:
    """Parse a tensor file, validating the schema and finiteness.

    The bytes are parsed with ``orjson``.  A file it rejects (NaN, Infinity,
    numbers beyond float range, a BOM, invalid UTF-8, lone surrogates), or
    whose document fails a check, is parsed again by ``json`` from the text
    that ``open(path, "r", encoding="utf-8")`` gives, so every error message
    names what the standard library finds there.  A file whose nesting may
    exceed ``_ORJSON_MAX_DEPTH`` (:func:`_depth_bound`) goes to ``json`` alone,
    whose recursion limit gives a ``ParseError`` where ``orjson`` could overflow
    the stack; the bound is the same in every thread and under every stack limit.
    A value shown in a message is cut to ``_REPR_LIMIT`` characters.

    Every list is converted by one ``struct.pack`` (:func:`_flat`), which rejects a
    str, null, list, object or integer beyond float range but takes a bool.  Data in
    a file whose bytes hold no ``u`` and no ``f`` goes to it directly, other data
    after the exact per-entry type gate.  The cyclic garbage collector is off,
    process-wide, while the ``orjson`` document exists, and then set back.
    """
    import orjson  # see write_tensor

    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ParseError(f"{path}: cannot read tensor file: {exc}") from exc
    vouched = b"u" not in raw and b"f" not in raw  # no true, false or null: see _flat
    if _depth_bound(raw) <= _ORJSON_MAX_DEPTH:
        # orjson's lists are new containers, which set off collections (full ones
        # too) that find nothing to free; the pause lasts until the document is dropped
        enabled = gc.isenabled()
        gc.disable()
        try:
            return _tensor_from_doc(orjson.loads(raw), path, vouched)
        except (orjson.JSONDecodeError, ParseError):
            pass
        finally:
            if enabled:
                gc.enable()
    try:
        # universal newlines, as a text-mode open reads: error line numbers count \r too
        doc = json.loads(io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8").read())
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    except (RecursionError, ValueError) as exc:
        # nested deeper than json goes, invalid UTF-8, an integer longer than int_max_str_digits
        raise ParseError(f"{path}: cannot parse tensor file: {exc}") from exc
    return _tensor_from_doc(doc, path, vouched)


def _tensor_from_doc(doc, path, vouched: bool) -> Tensor3:
    """The tensor a parsed JSON document describes; ``ParseError`` names the
    first field or ``data[i]`` entry that breaks the schema or is not finite.
    ``vouched``: the file's bytes hold no ``u`` and no ``f`` (:func:`_flat`)."""
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

    flat = _flat(raw, kind, vouched)
    if flat is None:
        raise _bad_entry(raw, kind, path)

    if (bad := _first_failure(np.isfinite(flat))) is not None:
        raise ParseError(f"{path}: data[{bad}] is not finite")

    return Tensor3(np.transpose(flat.reshape(p, m, n), (1, 2, 0)))
