"""tspectral: spectral analysis of third-order tensors under the t-product.

The package computes tensor eigenvalues, t-SVDs and Hermitian tensor
functions through the block-circulant / Fourier-slice correspondence,
verifies a family of trace-based eigenvalue bounds, and measures distances
(Frobenius, Bures-Wasserstein, log-Euclidean) and geodesics on the cone of
positive semidefinite tensors.  A CLI (``tspectral``) exposes the same
operations on JSON tensor files.
"""

from .core import (
    Tensor3,
    bcirc,
    conj_transpose,
    fold,
    frobenius_norm,
    frontal_slice,
    identity,
    read_tensor,
    trace,
    unfold,
    write_tensor,
)
from .errors import (
    DomainError,
    NumericError,
    ParseError,
    PreconditionError,
    ShapeError,
    SingularityError,
    TSpectralError,
)
from .transform import tprod, tprod_dense, tprod_fft
from .spectral import (
    EigFactors,
    HermitianCheck,
    PsdCheck,
    Spectrum,
    TSvdFactors,
    hermitian_eig,
    is_hermitian,
    is_psd,
    psd_factor,
    random_psd,
    t_eigenvalues,
    t_function,
    t_svd,
)
from .bounds import (
    BoundReport,
    KyFanResult,
    SymmetrizedBounds,
    extremal_ratio_bounds,
    extremal_ratio_witness,
    hermitian_trace_bounds,
    ky_fan_sum,
    rayleigh_value,
    sandwich_bounds,
    symmetric_relax_bounds,
    symmetrized_bounds,
    vn_trace_bounds,
)
from .geometry import (
    GeodesicProfile,
    dist_bures_wasserstein,
    dist_frobenius,
    dist_log_euclidean,
    geodesic,
    geodesic_trace_profile,
)

__version__ = "0.1.0"

__all__ = [
    "Tensor3",
    "bcirc",
    "unfold",
    "fold",
    "frontal_slice",
    "conj_transpose",
    "identity",
    "trace",
    "frobenius_norm",
    "read_tensor",
    "write_tensor",
    "tprod",
    "tprod_dense",
    "tprod_fft",
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
    "GeodesicProfile",
    "dist_frobenius",
    "dist_bures_wasserstein",
    "dist_log_euclidean",
    "geodesic",
    "geodesic_trace_profile",
    "TSpectralError",
    "ShapeError",
    "ParseError",
    "DomainError",
    "PreconditionError",
    "SingularityError",
    "NumericError",
]
