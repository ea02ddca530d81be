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

import json
import math
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .errors import DomainError, ParseError, ShapeError

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
    idx = (np.arange(p)[:, None] - np.arange(p)[None, :]) % p
    blocks = t.data[:, :, idx]  # (m, n, p_row, p_col)
    return np.ascontiguousarray(
        np.transpose(blocks, (2, 0, 3, 1)).reshape(m * p, n * p)
    )


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
    """The data of :func:`conj_transpose` for tensor data ``data``, as a new array."""
    out = data.transpose(1, 0, 2)[:, :, -np.arange(data.shape[2]) % data.shape[2]]
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
    equality with the trace form is covered by the test suite.
    """
    return math.sqrt(t.p) * float(np.linalg.norm(t.data.ravel()))


# ---------------------------------------------------------------------------
# Tensor file format
#
# JSON object {"dims": [m, n, p], "kind": "real"|"complex", "data": [...]}
# with the flat data array in slice-major, then row-major order.  Complex
# entries are [re, im] pairs.
# ---------------------------------------------------------------------------


_NUMBER_TYPES = {int, float}  # exact types: json.load gives bool for true/false


def _fast_flat(raw: list, kind: str) -> np.ndarray | None:
    """The flat data in one numpy call when every entry has the right shape
    and exact number types; ``None`` sends ``read_tensor`` to its per-entry
    loop, which names the first bad ``data[i]``."""
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


def write_tensor(t: Tensor3, path) -> None:
    """Serialize a tensor losslessly to the JSON tensor format."""
    flat = np.transpose(t.data, (2, 0, 1)).ravel()
    if t.kind == "complex":
        data = np.stack([flat.real, flat.imag], axis=1).tolist()
    else:
        data = flat.tolist()
    doc = {"dims": [t.m, t.n, t.p], "kind": t.kind, "data": data}
    # json.dumps runs CPython's C encoder; json.dump streams through the
    # pure-Python one.  The text is the same.
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc) + "\n")


def read_tensor(path) -> Tensor3:
    """Parse a tensor file, validating the schema and finiteness."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ParseError(f"{path}: cannot read tensor file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    except ValueError as exc:  # e.g. an integer longer than int_max_str_digits
        raise ParseError(f"{path}: cannot parse tensor file: {exc}") from exc

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
