"""Seeded input tensors and the JSON tensor format, in plain numpy.

Nothing here imports ``tspectral``: the benchmark's inputs and its reading of
outputs must not change when the library changes.  The file format is the
library's documented one: ``{"dims": [m, n, p], "kind": "real"|"complex",
"data": [...]}`` with the flat data in slice-major, then row-major order and
complex entries as ``[re, im]`` pairs.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np


def t_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """t-product of (m, n, p) and (n, l, p) arrays through slice products of the tube DFT."""
    chat = np.matmul(
        np.fft.fft(a, axis=2).transpose(2, 0, 1), np.fft.fft(b, axis=2).transpose(2, 0, 1)
    )
    return np.fft.ifft(chat, axis=0).transpose(1, 2, 0)


def conj_transpose(a: np.ndarray) -> np.ndarray:
    """Tensor conjugate transpose: transpose each slice, reverse slices 2..p."""
    order = np.r_[0, np.arange(a.shape[2] - 1, 0, -1)]
    return np.conj(a.transpose(1, 0, 2))[:, :, order]


def hermitian_part(x: np.ndarray) -> np.ndarray:
    """(X + X^H) / 2, which is Hermitian exactly in floating point."""
    return (x + conj_transpose(x)) * 0.5


def gaussian(rng: np.random.Generator, shape, complex_: bool = False) -> np.ndarray:
    x = rng.standard_normal(shape)
    return x + 1j * rng.standard_normal(shape) if complex_ else x


def psd(rng: np.random.Generator, n: int, p: int, rank: int | None = None,
        shift: float = 0.0, complex_: bool = False) -> np.ndarray:
    """M * M^H (+ shift * I) with M Gaussian n x rank x p.

    ``rank < n`` gives a singular PSD tensor; ``shift > 0`` a positive
    definite one whose block-circulant eigenvalues are all at least ``shift``.
    """
    m = gaussian(rng, (n, rank or n, p), complex_)
    a = t_product(m, conj_transpose(m))
    a[:, :, 0] += shift * np.eye(n)
    a = hermitian_part(a)
    return a if complex_ else a.real


def trace(a: np.ndarray) -> complex:
    """Block-circulant trace p * tr(A[:, :, 0])."""
    return a.shape[2] * np.trace(a[:, :, 0])


def encode(a: np.ndarray) -> bytes:
    """Serialize an (m, n, p) array to the tensor JSON format, losslessly."""
    flat = a.transpose(2, 0, 1).ravel()
    if np.iscomplexobj(a):
        kind, data = "complex", np.stack([flat.real, flat.imag], axis=1).tolist()
    else:
        kind, data = "real", flat.tolist()
    doc = {"dims": list(a.shape), "kind": kind, "data": data}
    return (json.dumps(doc) + "\n").encode()


def decode(raw: bytes) -> np.ndarray:
    """Parse the tensor JSON format back to an (m, n, p) array."""
    doc = json.loads(raw)
    m, n, p = doc["dims"]
    flat = np.asarray(doc["data"], dtype=np.float64)
    if doc["kind"] == "complex":
        flat = flat[:, 0] + 1j * flat[:, 1]
    return flat.reshape(p, m, n).transpose(1, 2, 0)


def sha256(raw: bytes) -> str:
    return hashlib.sha256(raw).hexdigest()
