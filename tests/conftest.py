import pathlib

import numpy as np
import pytest

from tspectral import Tensor3

FIXTURE_DIR = pathlib.Path(__file__).parent / "fixtures"


@pytest.fixture(scope="session")
def fixtures_dir():
    return FIXTURE_DIR


@pytest.fixture
def a1():
    # 2x2x2 example with symmetric block-circulant matrix
    return Tensor3.from_slices([[[2, 1], [1, 3]], [[0, 1], [1, 0]]])


@pytest.fixture
def a2():
    return Tensor3.from_slices([[[2, 1], [1, 3]], [[1, 0], [0, 2]]])


@pytest.fixture
def b2():
    return Tensor3.from_slices([[[1, 0], [0, 1]], [[0, 1], [1, 0]]])


# Golden distance fixtures: the published frontal slices interleave the
# columns of two symmetric matrices; swapping the column and tube axes
# recovers the symmetric-slice tensors the reference value was computed on.
A3_SLICES = [
    [[1.1097627, 1.19273255], [0.13179527, 0.11751666]],
    [[0.13179527, 0.11751666], [1.10897664, 1.10577898]],
]
B3_SLICES = [
    [[2.08473096, 2.11360891], [0.10834813, 0.09966327]],
    [[0.10834813, 0.09966327], [2.1783546, 2.01742586]],
]

# Published reference distance, kept with its published digits. It agrees
# with the formula on these inputs to 7 significant digits only.
BW_GOLDEN_VALUE = 0.7054867277404278

# d = sqrt(tr A + tr B - 2 tr (A^1/2 B A^1/2)^1/2) with A, B the dense
# block-circulant matrices of the column-tube-swapped fixtures, evaluated at
# 40 digits by mpmath on the printed decimals of a3.json/b3.json:
# 0.70548652389808728759... (pinned by the high-precision criterion-3 test).
# It sits 2.04e-7 below BW_GOLDEN_VALUE. Moving each of the 16 printed
# entries by up to half a unit in its last printed place moves d by at most
# 1.52e-7, so no input that prints as these fixtures gives the published
# value. The fixtures are np.random.seed(0) draws (for k = 0, 1:
# A_k = I + 0.1 (R + R^T), then B_k = 2I + 0.1 (R + R^T), each with its own
# R = np.random.rand(2, 2)); on those unrounded draws d = 0.70548653137194,
# still 1.96e-7 below the published value.
BW_REFERENCE_VALUE = 0.70548652389808729


@pytest.fixture
def a3():
    return Tensor3.from_slices(A3_SLICES)


@pytest.fixture
def b3():
    return Tensor3.from_slices(B3_SLICES)


def swap_column_tube_axes(t: Tensor3) -> Tensor3:
    return Tensor3(np.transpose(t.data, (0, 2, 1)))


@pytest.fixture
def a3_symmetric(a3):
    return swap_column_tube_axes(a3)


@pytest.fixture
def b3_symmetric(b3):
    return swap_column_tube_axes(b3)


def random_tensor(rng, m, n, p, complex_kind=False):
    data = rng.standard_normal((m, n, p))
    if complex_kind:
        data = data + 1j * rng.standard_normal((m, n, p))
    return Tensor3(data)


def random_hermitian(rng, n, p, complex_kind=False):
    from tspectral import conj_transpose

    m = random_tensor(rng, n, n, p, complex_kind)
    return (m + conj_transpose(m)) * 0.5


def random_psd_tensor(rng, n, p):
    from tspectral import conj_transpose, tprod_fft

    m = random_tensor(rng, n, n, p)
    return tprod_fft(m, conj_transpose(m))


def random_pd_tensor(rng, n, p, bump=0.5):
    from tspectral import identity

    return random_psd_tensor(rng, n, p) + bump * identity(n, p)


def every_slice(a0, p):
    """The n x n x p tensor whose first frontal slice is a0 and whose others are 0:
    each of its Fourier slices is a0."""
    data = np.zeros(a0.shape + (p,), a0.dtype)
    data[..., 0] = a0
    return Tensor3(data)


def certificate_shift(stack):
    """(u, tau) of spectral._pd_certified on a Fourier stack: u the largest slice Frobenius
    norm, tau = PD_RTOL * max(1, u) + PD_CERTIFICATE_MARGIN * (n + 1)^2 eps u."""
    from tspectral.spectral import PD_CERTIFICATE_MARGIN, PD_RTOL

    n, u = stack.shape[-1], float(np.linalg.norm(stack, axis=(-2, -1)).max())
    margin = PD_CERTIFICATE_MARGIN * (n + 1) ** 2 * np.finfo(float).eps * u
    return u, PD_RTOL * max(1.0, u) + margin
