"""Rejections of the public entries, with their texts: the pair shape rule of every
bound, distance and geodesic, t-product conformability, and argument and file
checks that no other test reaches."""

import re

import numpy as np
import pytest

from tspectral import (
    ParseError,
    PreconditionError,
    ShapeError,
    Tensor3,
    dist_bures_wasserstein,
    dist_frobenius,
    dist_log_euclidean,
    extremal_ratio_bounds,
    extremal_ratio_witness,
    geodesic,
    geodesic_trace_profile,
    hermitian_trace_bounds,
    identity,
    ky_fan_sum,
    random_psd,
    read_tensor,
    sandwich_bounds,
    symmetric_relax_bounds,
    tprod,
    vn_trace_bounds,
)

# name -> call on (A, B); the error names the function, and geodesic_trace_profile
# raises as geodesic does
PAIR_CALLS = {
    "vn_trace_bounds": vn_trace_bounds,
    "hermitian_trace_bounds": hermitian_trace_bounds,
    "sandwich_bounds": sandwich_bounds,
    "extremal_ratio_bounds": extremal_ratio_bounds,
    "symmetric_relax_bounds": symmetric_relax_bounds,
    "dist_frobenius": dist_frobenius,
    "dist_bures_wasserstein": dist_bures_wasserstein,
    "dist_log_euclidean": dist_log_euclidean,
    "geodesic": lambda a, b: geodesic(a, b, 0.5),
    "geodesic, regularized": lambda a, b: geodesic(a, b, 0.5, regularize=0.1),
    "geodesic, as geodesic_trace_profile": lambda a, b: geodesic_trace_profile(a, b, 3),
    "Tensor3 addition": lambda a, b: a + b,
    "Tensor3 subtraction": lambda a, b: a - b,
}


@pytest.mark.parametrize("other", [(3, 2), (2, 4)], ids=["n differs", "p differs"])
@pytest.mark.parametrize("name", PAIR_CALLS)
def test_pair_of_unequal_shapes_raises_naming_the_function(name, other):
    """Positive definite operands that differ in shape alone."""
    a, b = identity(2, 2), identity(*other)
    text = f"{name.split(',')[0]} requires equal shapes, got {a.shape} vs {b.shape}"
    with pytest.raises(ShapeError, match=f"^{re.escape(text)}$"):
        PAIR_CALLS[name](a, b)


@pytest.mark.parametrize("path", ["fft", "dense"])
def test_tprod_conformability_text(path):
    a, b = Tensor3(np.zeros((2, 3, 4))), Tensor3(np.zeros((2, 3, 4)))
    text = "t-product needs a.n == b.m and a.p == b.p, got (2, 3, 4) * (2, 3, 4)"
    with pytest.raises(ShapeError, match=f"^{re.escape(text)}$"):
        tprod(a, b, path)


def test_symmetric_relax_bounds_rejects_a_complex_operand():
    a = random_psd(2, 3, 0)
    for pair in ((a, a * (1.0 + 0j)), (a * (1.0 + 0j), a)):
        with pytest.raises(PreconditionError, match="^symmetric_relax_bounds is defined for real tensors$"):
            symmetric_relax_bounds(*pair)


def test_unknown_extreme_is_a_value_error():
    h = random_psd(2, 3, 0)
    with pytest.raises(ValueError, match="^which must be 'max' or 'min', got 'mid'$"):
        ky_fan_sum(h, 1, "mid")
    with pytest.raises(ValueError, match="^which must be 'max' or 'min', got 'mid'$"):
        extremal_ratio_witness(h, "mid")


def test_top_level_list_is_a_parse_error(tmp_path):
    f = tmp_path / "list.json"
    f.write_text('[{"dims": [1, 1, 1], "kind": "real", "data": [1.0]}]')
    with pytest.raises(ParseError, match="top-level value must be an object$"):
        read_tensor(f)


def test_negation_and_repr():
    t = Tensor3(np.arange(24.0).reshape(2, 3, 4) * (1 - 2j))
    assert np.array_equal((-t).data, -t.data)
    assert (-t).kind == "complex"
    assert repr(t) == "Tensor3(m=2, n=3, p=4, kind=complex)"
    assert repr(identity(1, 2)) == "Tensor3(m=1, n=1, p=2, kind=real)"
