import json
import math

import numpy as np
import pytest

from tspectral import (
    DomainError,
    ParseError,
    ShapeError,
    Tensor3,
    bcirc,
    conj_transpose,
    fold,
    frobenius_norm,
    frontal_slice,
    identity,
    read_tensor,
    t_eigenvalues,
    tprod_dense,
    tprod_fft,
    trace,
    unfold,
    write_tensor,
)
from conftest import random_tensor
from helpers_oracles import oracle_bcirc


class TestTensor3:
    def test_shape_and_kind(self):
        t = Tensor3(np.zeros((2, 3, 4)))
        assert (t.m, t.n, t.p) == (2, 3, 4)
        assert t.kind == "real"
        assert Tensor3(np.zeros((1, 1, 1), dtype=complex)).kind == "complex"

    def test_invalid_shapes(self):
        with pytest.raises(ShapeError):
            Tensor3(np.zeros((2, 2)))
        with pytest.raises(ShapeError):
            Tensor3(np.zeros((2, 0, 2)))

    def test_data_is_immutable(self):
        t = Tensor3(np.ones((2, 2, 2)))
        with pytest.raises(ValueError):
            t.data[0, 0, 0] = 5.0

    def test_arithmetic(self):
        rng = np.random.default_rng(0)
        a = random_tensor(rng, 2, 2, 3)
        b = random_tensor(rng, 2, 2, 3)
        np.testing.assert_allclose((a + b).data, a.data + b.data)
        np.testing.assert_allclose((a - b).data, a.data - b.data)
        np.testing.assert_allclose((2.5 * a).data, 2.5 * a.data)


class TestFrontalSlice:
    def test_example_slices(self, a1, a2):
        np.testing.assert_array_equal(frontal_slice(a2, 1), [[2, 1], [1, 3]])
        np.testing.assert_array_equal(frontal_slice(a1, 2), [[0, 1], [1, 0]])

    def test_identity_second_slice_is_zero(self):
        np.testing.assert_array_equal(frontal_slice(identity(2, 2), 2), np.zeros((2, 2)))

    def test_out_of_range(self, a1):
        with pytest.raises(DomainError):
            frontal_slice(a1, 0)
        with pytest.raises(DomainError):
            frontal_slice(a1, 3)


class TestBcirc:
    def test_example_1(self, a1):
        np.testing.assert_array_equal(
            bcirc(a1),
            [[2, 1, 0, 1], [1, 3, 1, 0], [0, 1, 2, 1], [1, 0, 1, 3]],
        )

    def test_example_2(self, a2):
        np.testing.assert_array_equal(
            bcirc(a2),
            [[2, 1, 1, 0], [1, 3, 0, 2], [1, 0, 2, 1], [0, 2, 1, 3]],
        )

    def test_identity(self):
        np.testing.assert_array_equal(bcirc(identity(3, 4)), np.eye(12))

    def test_matches_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            t = random_tensor(rng, 3, 2, 4, complex_kind=True)
            np.testing.assert_allclose(bcirc(t), oracle_bcirc(list(t.slices())))

    def test_linearity(self):
        rng = np.random.default_rng(11)
        a = random_tensor(rng, 3, 3, 4)
        b = random_tensor(rng, 3, 3, 4)
        alpha, beta = rng.standard_normal(2)
        np.testing.assert_allclose(
            bcirc(alpha * a + beta * b), alpha * bcirc(a) + beta * bcirc(b), atol=1e-12
        )

    def test_commutes_with_conj_transpose(self):
        rng = np.random.default_rng(13)
        t = random_tensor(rng, 3, 4, 5, complex_kind=True)
        np.testing.assert_allclose(bcirc(conj_transpose(t)), bcirc(t).conj().T, atol=1e-14)


class TestUnfoldFold:
    def test_unfold_example(self, a2):
        np.testing.assert_array_equal(unfold(a2), [[2, 1], [1, 3], [1, 0], [0, 2]])

    def test_unfold_identity(self):
        np.testing.assert_array_equal(
            unfold(identity(2, 2)), [[1, 0], [0, 1], [0, 0], [0, 0]]
        )

    def test_round_trip(self, a1, a2):
        for t in (a1, a2):
            assert fold(unfold(t), t.p).allclose(t)
        rng = np.random.default_rng(3)
        for _ in range(5):
            t = random_tensor(rng, 4, 3, 5, complex_kind=True)
            assert fold(unfold(t), t.p).allclose(t)

    def test_fold_zero(self):
        assert fold(np.zeros((4, 2)), 2).allclose(Tensor3.zeros(2, 2, 2))

    def test_fold_rejects_bad_rows(self):
        with pytest.raises(ShapeError):
            fold(np.zeros((5, 2)), 2)

    def test_unfold_after_fold_is_identity_on_matrices(self):
        rng = np.random.default_rng(43)
        mat = rng.standard_normal((8, 3))
        np.testing.assert_array_equal(unfold(fold(mat, 4)), mat)


class TestConjTranspose:
    def test_symmetric_slices_p2(self, a2):
        # both slices symmetric and p=2, so the tensor equals its transpose
        t = conj_transpose(a2)
        np.testing.assert_array_equal(frontal_slice(t, 1), [[2, 1], [1, 3]])
        np.testing.assert_array_equal(frontal_slice(t, 2), [[1, 0], [0, 2]])

    def test_identity_fixed(self):
        assert conj_transpose(identity(3, 4)).allclose(identity(3, 4))

    def test_involution(self):
        rng = np.random.default_rng(5)
        t = random_tensor(rng, 3, 5, 4, complex_kind=True)
        assert conj_transpose(conj_transpose(t)).allclose(t)

    def test_rectangular_shape(self):
        t = Tensor3(np.zeros((2, 5, 3)))
        assert conj_transpose(t).shape == (5, 2, 3)


class TestIdentity:
    def test_neutral(self, a2):
        e = identity(2, 2)
        assert tprod_dense(e, a2).allclose(a2)
        assert tprod_dense(a2, e).allclose(a2)

    def test_trace(self):
        assert trace(identity(3, 2)) == 6.0

    def test_eigenvalues_all_one(self):
        spec = t_eigenvalues(identity(2, 3))
        np.testing.assert_allclose(spec.values, np.ones(6))


class TestTrace:
    def test_reference_traces(self, a2, b2):
        assert trace(b2) == 4.0
        assert trace(tprod_dense(a2, b2)) == pytest.approx(10.0, abs=1e-12)

    def test_equals_bcirc_trace(self):
        rng = np.random.default_rng(17)
        t = random_tensor(rng, 4, 4, 3, complex_kind=True)
        assert trace(t) == pytest.approx(complex(np.trace(bcirc(t))), rel=1e-13)

    def test_cyclic(self):
        rng = np.random.default_rng(19)
        for _ in range(5):
            a = random_tensor(rng, 3, 3, 4)
            b = random_tensor(rng, 3, 3, 4)
            tab = trace(tprod_fft(a, b))
            tba = trace(tprod_fft(b, a))
            assert tab == pytest.approx(tba, rel=1e-10)

    def test_non_square_raises(self):
        with pytest.raises(ShapeError):
            trace(Tensor3(np.zeros((2, 3, 2))))


class TestFrobeniusNorm:
    def test_zero_and_identity(self):
        assert frobenius_norm(Tensor3.zeros(3, 2, 4)) == 0.0
        assert frobenius_norm(identity(3, 4)) == pytest.approx(math.sqrt(12))

    def test_trace_route_agrees(self, a2):
        via_trace = math.sqrt(trace(tprod_dense(conj_transpose(a2), a2)))
        assert frobenius_norm(a2) == pytest.approx(via_trace, rel=1e-12)

    def test_trace_route_random(self):
        rng = np.random.default_rng(23)
        for _ in range(5):
            t = random_tensor(rng, 3, 4, 5)
            via_trace = math.sqrt(
                trace(tprod_fft(conj_transpose(t), t)).real
                if t.kind == "complex"
                else trace(tprod_fft(conj_transpose(t), t))
            )
            assert frobenius_norm(t) == pytest.approx(via_trace, rel=1e-10)


class TestDegenerateP1:
    """With a single slice every operator must reduce to plain matrix algebra."""

    def test_reductions(self):
        rng = np.random.default_rng(29)
        a_mat = rng.standard_normal((3, 3))
        b_mat = rng.standard_normal((3, 3))
        a = Tensor3(a_mat[:, :, None])
        b = Tensor3(b_mat[:, :, None])
        np.testing.assert_array_equal(bcirc(a), a_mat)
        np.testing.assert_array_equal(unfold(a), a_mat)
        np.testing.assert_array_equal(tprod_dense(a, b).data[:, :, 0], a_mat @ b_mat)
        np.testing.assert_allclose(tprod_fft(a, b).data[:, :, 0], a_mat @ b_mat, atol=1e-12)
        assert trace(a) == pytest.approx(np.trace(a_mat))
        np.testing.assert_array_equal(conj_transpose(a).data[:, :, 0], a_mat.T)
        assert frobenius_norm(a) == pytest.approx(np.linalg.norm(a_mat))


class TestTensorFiles:
    def test_round_trip_complex(self, tmp_path):
        rng = np.random.default_rng(31)
        t = random_tensor(rng, 3, 3, 4, complex_kind=True)
        path = tmp_path / "t.json"
        write_tensor(t, path)
        back = read_tensor(path)
        assert back.kind == "complex"
        np.testing.assert_array_equal(back.data, t.data)

    def test_round_trip_real(self, tmp_path):
        rng = np.random.default_rng(37)
        t = random_tensor(rng, 2, 5, 3)
        path = tmp_path / "t.json"
        write_tensor(t, path)
        np.testing.assert_array_equal(read_tensor(path).data, t.data)

    def test_fixture_matches_printed_decimals(self, fixtures_dir, a3):
        t = read_tensor(fixtures_dir / "a3.json")
        np.testing.assert_array_equal(t.data, a3.data)
        raw = json.loads((fixtures_dir / "a3.json").read_text())
        assert raw["data"][0] == 1.1097627
        assert raw["data"][1] == 1.19273255

    def test_length_mismatch(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"dims": [2, 2, 2], "kind": "real", "data": [1, 2, 3]}')
        with pytest.raises(ParseError, match="m\\*n\\*p"):
            read_tensor(path)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(ParseError, match="line"):
            read_tensor(path)

    def test_missing_field(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"dims": [1, 1, 1], "data": [0]}')
        with pytest.raises(ParseError, match="kind"):
            read_tensor(path)

    def test_bad_dims(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"dims": [2, 2], "kind": "real", "data": []}')
        with pytest.raises(ParseError, match="dims"):
            read_tensor(path)

    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_integer_entries_read_as_floats(self, tmp_path, kind):
        """JSON integers, also beyond 64 bits, read as float(v), like the loop."""
        ints = [0, -3, 2**64 + 1, -(10**300), int(1.7976931348623157e308)]
        entries = ints if kind == "real" else [[v, -v] for v in ints]
        path = tmp_path / "ints.json"
        path.write_text(json.dumps({"dims": [1, 1, 5], "kind": kind, "data": entries}))
        want = [float(v) if kind == "real" else complex(v, -v) for v in ints]
        assert read_tensor(path).data.ravel().tolist() == want

    def test_bool_dims(self, tmp_path):
        """true is not the integer 1 in dims, as it is not a number in data."""
        path = tmp_path / "bad.json"
        path.write_text('{"dims": [true, 1, 2], "kind": "real", "data": [1, 2]}')
        with pytest.raises(ParseError) as err:
            read_tensor(path)
        assert str(err.value) == (
            f"{path}: field 'dims' must be three integers >= 1, got [True, 1, 2]"
        )

    def test_non_finite_entry(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"dims": [1, 1, 1], "kind": "real", "data": [NaN]}')
        with pytest.raises(ParseError, match="finite"):
            read_tensor(path)

    def test_bad_complex_pair(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"dims": [1, 1, 1], "kind": "complex", "data": [1.0]}')
        with pytest.raises(ParseError, match="pair"):
            read_tensor(path)

    @pytest.mark.parametrize(
        "kind, entry",
        [("real", "1" + "0" * 400), ("complex", "[0.5, -1" + "0" * 400 + "]")],
        ids=["real", "complex"],
    )
    def test_integer_beyond_float_range(self, tmp_path, kind, entry):
        path = tmp_path / "bad.json"
        pad = "[0, 0]" if kind == "complex" else "0"
        path.write_text(f'{{"dims": [1, 1, 2], "kind": "{kind}", "data": [{pad}, {entry}]}}')
        with pytest.raises(ParseError, match=r"data\[1\].*float range"):
            read_tensor(path)

    @pytest.mark.parametrize(
        "kind, entry",
        [("real", "1" * 5001), ("complex", "[0.5, -" + "1" * 5001 + "]")],
        ids=["real", "complex"],
    )
    def test_integer_beyond_digit_limit(self, tmp_path, kind, entry):
        """json.load refuses integers longer than sys.get_int_max_str_digits()
        (4300 by default) with a plain ValueError; the ParseError names the file."""
        path = tmp_path / "long.json"
        path.write_text(f'{{"dims": [1, 1, 1], "kind": "{kind}", "data": [{entry}]}}')
        with pytest.raises(ParseError) as err:
            read_tensor(path)
        assert str(err.value).startswith(f"{path}: ")


# (kind, rejected entry as JSON text, the message after "data[i] ")
_REJECTED_ENTRIES = [
    ("real", "true", "is not a real number: True"),
    ("real", "false", "is not a real number: False"),
    ("real", '"1.5"', "is not a real number: '1.5'"),
    ("real", "null", "is not a real number: None"),
    ("real", "[1.5]", "is not a real number: [1.5]"),
    ("real", "1" + "0" * 400, "is an integer beyond float range"),
    ("real", "-1" + "0" * 400, "is an integer beyond float range"),
    ("real", "NaN", "is not finite"),
    ("real", "Infinity", "is not finite"),
    ("real", "-Infinity", "is not finite"),
    ("complex", "[true, 0]", "is not a [re, im] pair: [True, 0]"),
    ("complex", '[0, "1"]', "is not a [re, im] pair: [0, '1']"),
    ("complex", "null", "is not a [re, im] pair: None"),
    ("complex", "[null, 0]", "is not a [re, im] pair: [None, 0]"),
    ("complex", "[[1, 2], 0]", "is not a [re, im] pair: [[1, 2], 0]"),
    ("complex", "[0.5, 1" + "0" * 400 + "]", "holds an integer beyond float range"),
    ("complex", "[NaN, 0]", "is not finite"),
    ("complex", "[0, -Infinity]", "is not finite"),
    ("complex", "[1.5]", "is not a [re, im] pair: [1.5]"),
    ("complex", "[1, 2, 3]", "is not a [re, im] pair: [1, 2, 3]"),
    ("complex", "2.5", "is not a [re, im] pair: 2.5"),
]


@pytest.mark.parametrize("index", [0, 3, 6], ids=["first", "middle", "last"])
@pytest.mark.parametrize("kind, entry, message", _REJECTED_ENTRIES)
def test_rejected_entry_is_named_at_every_position(tmp_path, kind, entry, message, index):
    """One bad entry among valid ones, anywhere in the data, gives the exact
    message that names it: the fast path of the read hides no error."""
    data = ["[1.5, -2]" if kind == "complex" else "1.5"] * 7
    data[index] = entry
    path = tmp_path / "bad.json"
    path.write_text(f'{{"dims": [1, 1, 7], "kind": "{kind}", "data": [{", ".join(data)}]}}')
    with pytest.raises(ParseError) as err:
        read_tensor(path)
    assert str(err.value) == f"{path}: data[{index}] {message}"
