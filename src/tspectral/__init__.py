"""tspectral: spectral analysis of third-order tensors under the t-product.

The package computes tensor eigenvalues, t-SVDs and Hermitian tensor
functions through the block-circulant / Fourier-slice correspondence,
verifies a family of trace-based eigenvalue bounds, and measures distances
(Frobenius, Bures-Wasserstein, log-Euclidean) and geodesics on the cone of
positive semidefinite tensors.  A CLI (``tspectral``) exposes the same
operations on JSON tensor files.
"""

from . import bounds, core, errors, geometry, spectral, transform
from .bounds import *
from .core import *
from .errors import *
from .geometry import *
from .spectral import *
from .transform import *

__version__ = "0.1.0"

__all__ = [
    *core.__all__,
    *transform.__all__,
    *spectral.__all__,
    *bounds.__all__,
    *geometry.__all__,
    *errors.__all__,
]
