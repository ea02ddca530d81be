import gc
import json
import math

import numpy as np
import orjson
import pytest

from tspectral import (
    DomainError,
    NumericError,
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
from tspectral import core
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
    # length 2, so they pass the pair-length check; the converter rejects them
    ("complex", '"ab"', "is not a [re, im] pair: 'ab'"),
    ("complex", '{"a": 1, "b": 2}', "is not a [re, im] pair: {'a': 1, 'b': 2}"),
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


_HEAD = b'{"dims": [1, 1, 1], "kind": "real", "data": '
_NESTED = b"[" * 20_000 + b"1" + b"]" * 20_000  # past json's depth and core._ORJSON_MAX_DEPTH
_DEEP = b"[" * 100_000 + b"1" + b"]" * 100_000  # as _NESTED, five times deeper
_DEEP_MESSAGE = ("cannot parse tensor file: maximum recursion depth exceeded while decoding "
                 "a JSON array from a unicode string")
_LONG_ENTRY = repr(list(range(200_000)))
_LIMIT_KIND = "x" * (core._REPR_LIMIT - 2)  # its repr, quotes included, is _REPR_LIMIT long

# (id, file bytes or None for no file, the ParseError text after "<path>: "); json
# gives these texts, and a file orjson rejects, or whose orjson document fails a
# check, keeps them
_REJECTED_FILES = [
    ("nan", _HEAD + b"[NaN]}", "data[0] is not finite"),
    ("infinity", _HEAD + b"[Infinity]}", "data[0] is not finite"),
    ("-infinity", _HEAD + b"[-Infinity]}", "data[0] is not finite"),
    ("1e400", _HEAD + b"[1e400]}", "data[0] is not finite"),
    ("int-beyond-float", _HEAD + b"[-1" + b"0" * 400 + b"]}",
     "data[0] is an integer beyond float range"),
    ("int-4300-digits", _HEAD + b"[" + b"1" * 4300 + b"]}",
     "data[0] is an integer beyond float range"),
    # orjson reads 2**64 as a float, which is no dim; json reads the integer
    ("dims-2**64", b'{"dims": [18446744073709551616, 1, 1], "kind": "real", "data": [1]}',
     "field 'data' must hold exactly m*n*p = 18446744073709551616 entries, got 1"),
    ("bom", b"\xef\xbb\xbf" + _HEAD + b"[1]}",
     "invalid JSON at line 1: Unexpected UTF-8 BOM (decode using utf-8-sig)"),
    ("invalid-utf-8", _HEAD + b'[1], "note": "\xff"}',
     "cannot parse tensor file: 'utf-8' codec can't decode byte 0xff in position 58: "
     "invalid start byte"),
    ("lone-surrogate", b'{"dims": [1, 1, 1], "kind": "\\ud800", "data": [1]}',
     "field 'kind' must be 'real' or 'complex', got '\\ud800'"),
    # a text-mode read turns \r and \r\n into \n, so the error is on line 3 every time
    ("lf", b'{"dims": [1, 1, 1],\n"kind": "real",\n"data": [1,]}',
     "invalid JSON at line 3: Expecting value"),
    ("cr", b'{"dims": [1, 1, 1],\r"kind": "real",\r"data": [1,]}',
     "invalid JSON at line 3: Expecting value"),
    ("crlf", b'{"dims": [1, 1, 1],\r\n"kind": "real",\r\n"data": [1,]}',
     "invalid JSON at line 3: Expecting value"),
    ("duplicate-keys", _HEAD + b'[1], "dims": [2, 1, 1]}',
     "field 'data' must hold exactly m*n*p = 2 entries, got 1"),
    ("missing-file", None,
     "cannot read tensor file: [Errno 2] No such file or directory: '{path}'"),
    # nesting past core._ORJSON_MAX_DEPTH: json alone parses the file, and nesting past
    # its recursion limit is the error, on every stack
    ("entry-nested-20000", _HEAD + b"[" + _NESTED + b"]}", _DEEP_MESSAGE),
    ("pair-nested-20000", _HEAD.replace(b"real", b"complex") + b"[" + _NESTED + b"]}",
     _DEEP_MESSAGE),
    ("dims-nested-20000", b'{"dims": ' + _NESTED + b', "kind": "real", "data": [1]}',
     _DEEP_MESSAGE),
    ("note-nested-20000-orjson-rejects", _HEAD + b'[NaN], "note": ' + _NESTED + b"}",
     _DEEP_MESSAGE),
    ("entry-nested-100000", _HEAD + b"[" + _DEEP + b"]}", _DEEP_MESSAGE),
    ("dims-nested-100000", b'{"dims": ' + _DEEP + b', "kind": "real", "data": [1]}',
     _DEEP_MESSAGE),
    # a value whose repr is long is shown cut to _REPR_LIMIT
    ("entry-of-200000-numbers", _HEAD + b"[" + _LONG_ENTRY.encode() + b"]}",
     f"data[0] is not a real number: {_LONG_ENTRY[:core._REPR_LIMIT]}... "
     f"<{len(_LONG_ENTRY)} characters>"),
    ("kind-of-limit-length", _HEAD.replace(b"real", _LIMIT_KIND.encode()) + b"[1]}",
     f"field 'kind' must be 'real' or 'complex', got '{_LIMIT_KIND}'"),
    # vouched files (no "u" and no "f" byte) pass no type gate: the converter rejects these
    ("vouched-str", _HEAD + b'["1.5"]}', "data[0] is not a real number: '1.5'"),
    ("vouched-nested-list", _HEAD + b"[[1.5]]}", "data[0] is not a real number: [1.5]"),
    ("vouched-object", _HEAD + b"[{}]}", "data[0] is not a real number: {{}}"),  # str.format text
    ("vouched-10**400", _HEAD + b"[1" + b"0" * 400 + b"]}",
     "data[0] is an integer beyond float range"),
]


@pytest.mark.parametrize(
    "raw, message",
    [case[1:] for case in _REJECTED_FILES],
    ids=[case[0] for case in _REJECTED_FILES],
)
def test_rejected_file_gives_the_json_message(tmp_path, raw, message):
    path = tmp_path / "bad.json"
    if raw is not None:
        path.write_bytes(raw)
    with pytest.raises(ParseError) as err:
        read_tensor(path)
    assert str(err.value) == f"{path}: " + message.format(path=path)


@pytest.mark.parametrize("number", [10**20, 2**53 + 1, -(2**64) - 1])
def test_vouched_integer_rounds_as_float_does(tmp_path, number):
    path = tmp_path / "int.json"
    path.write_bytes(_HEAD + b"[%d]}" % number)
    assert read_tensor(path).data[0, 0, 0] == float(number)


def _recorded_parsers(monkeypatch) -> list[str]:
    """The names of the modules whose ``loads`` runs from now on, in call order."""
    calls = []
    for module in (orjson, json):
        def recorded(doc, loads=module.loads, name=module.__name__):
            calls.append(name)
            return loads(doc)

        monkeypatch.setattr(module, "loads", recorded)
    return calls


@pytest.mark.parametrize("extra, parsers", [(0, ["orjson"]), (1, ["json"])],
                         ids=["at-the-bound", "past-the-bound"])
def test_depth_bound_sends_a_deeper_file_to_json_alone(tmp_path, monkeypatch, extra, parsers):
    """A file with core._ORJSON_MAX_DEPTH "[" and "{" bytes, the document's three and a
    note nested in it, goes to orjson; one with a byte more goes to json alone; both
    read the same bits."""
    depth = core._ORJSON_MAX_DEPTH - 3 + extra
    note = b"[" * depth + b"1" + b"]" * depth
    path = tmp_path / "t.json"
    path.write_bytes(b'{"dims": [1, 1, 2], "kind": "real", "data": [1.5, -0.1], "note": '
                     + note + b"}")
    calls = _recorded_parsers(monkeypatch)
    assert read_tensor(path).data.tobytes() == np.array([1.5, -0.1]).tobytes()
    assert calls == parsers


def test_large_complex_file_goes_to_orjson(tmp_path, monkeypatch):
    """The "], [" separators between a complex file's pairs take them off the depth
    bound, so a 16x16x128 complex file (32,771 "[" and "{" bytes) goes to orjson, with
    the bits json reads."""
    t = random_tensor(np.random.default_rng(47), 16, 16, 128, complex_kind=True)
    path = tmp_path / "t.json"
    write_tensor(t, path)
    calls = _recorded_parsers(monkeypatch)
    assert read_tensor(path).data.tobytes() == t.data.tobytes()
    assert calls == ["orjson"]


@pytest.mark.parametrize(
    "text, bound",
    [
        (b"[" * 70 + b"]" * 70, 70),
        (b"[" + b"[1, 2], [3, 4], " * 40 + b"[5, 6]]", 2),  # 82 brackets, 80 separators
        (b'["' + b"], [" * 70 + b'"]', 1),  # separators in a string count too
        (b"[" * 40 + b"], [" * 40 + b"]" * 40, 40),  # as deep as it bounds
    ],
    ids=["no-separators", "pairs", "in-a-string", "partners-closed"],
)
def test_depth_bound_subtracts_the_separators_past_the_limit(text, bound):
    assert core._depth_bound(text) == bound


def test_shown_names_a_value_nested_too_deeply_to_print():
    """json stops at its recursion limit, so no document read reaches here this deep;
    the placeholder stands in case a value does."""
    value = [1.5]
    for _ in range(100_000):
        value = [value]
    assert core._shown(value) == "<a value nested too deeply to print>"


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
@pytest.mark.parametrize("text", [_HEAD + b"[1.5]}", _HEAD + b"[true]}", b"{nope"],
                         ids=["valid", "rejected-entry", "invalid-json"])
def test_read_restores_the_callers_gc_state(tmp_path, enabled, text):
    path = tmp_path / "t.json"
    path.write_bytes(text)
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        try:
            read_tensor(path)
        except ParseError:
            pass
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


@pytest.fixture
def exact_gate(monkeypatch):
    """The sets of entry types that reach the exact per-entry type gate of the
    reader, in call order: ``set(map(type, raw)) <= _NUMBER_TYPES`` runs the
    reflected ``>=`` of a set subclass first, so the spy sees every gate run."""
    seen = []

    class Gate(set):
        def __ge__(self, types):
            seen.append(types)
            return set.__ge__(self, types)

    monkeypatch.setattr(core, "_NUMBER_TYPES", Gate(core._NUMBER_TYPES))
    return seen


@pytest.mark.parametrize("complex_kind", [False, True], ids=["real", "complex"])
def test_written_files_skip_the_exact_gate(tmp_path, exact_gate, complex_kind):
    """Files from write_tensor hold no true, false or null, and numpy's dtype
    discovery vouches for their data."""
    t = random_tensor(np.random.default_rng(41), 3, 2, 5, complex_kind)
    path = tmp_path / "t.json"
    write_tensor(Tensor3(t.data * 1e300), path)
    assert read_tensor(path).data.tobytes() == (t.data * 1e300).tobytes()
    write_tensor(t, path)
    assert read_tensor(path).data.tobytes() == t.data.tobytes()
    assert exact_gate == []


@pytest.mark.parametrize("complex_kind", [False, True], ids=["real", "complex"])
def test_file_spelling_full_reads_through_the_exact_gate(tmp_path, exact_gate, complex_kind):
    """A "u" or an "f" anywhere in the bytes, here in an extra field, sends
    the data through the exact gate, which reads it bit for bit the same; it
    runs once, over the numbers (a complex file's pairs flattened first)."""
    t = random_tensor(np.random.default_rng(43), 2, 3, 4, complex_kind)
    path = tmp_path / "t.json"
    write_tensor(t, path)
    path.write_bytes(path.read_bytes()[:-2] + b', "note": "full"}\n')
    assert read_tensor(path).data.tobytes() == t.data.tobytes()
    assert exact_gate == [{float}]


@pytest.mark.parametrize("complex_kind", [False, True])
@pytest.mark.parametrize("c", [1e300, 1e-300, 1e170, 1e-170, 1e160, 1e-160])
def test_frobenius_norm_neither_overflows_nor_underflows(c, complex_kind):
    r = random_tensor(np.random.default_rng(181), 3, 3, 4, complex_kind)
    assert math.isclose(frobenius_norm(c * r), c * frobenius_norm(r), rel_tol=1e-15)


def _dumps_reference(t) -> bytes:
    """The tensor file as json.dumps writes it: nested Python lists of floats,
    each formatted by float.__repr__, and a final newline."""
    flat = np.transpose(t.data, (2, 0, 1)).ravel()
    if t.kind == "complex":
        data = np.stack([flat.real, flat.imag], axis=1).tolist()
    else:
        data = flat.tolist()
    doc = {"dims": [t.m, t.n, t.p], "kind": t.kind, "data": data}
    return (json.dumps(doc) + "\n").encode("utf-8")


def _layout_cases() -> np.ndarray:
    """Finite doubles across every layout rule of the two float formatters."""
    rng = np.random.default_rng(1212)
    patterns = rng.integers(0, 2**64, 201_000, dtype=np.uint64).view(np.float64)
    patterns = patterns[np.isfinite(patterns)][:200_000]  # about 0.05% are inf or NaN
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    with np.errstate(over="ignore"):
        decades = np.concatenate(
            [rng.standard_normal(64) * 10.0**e for e in range(-310, 309, 7)]
        )
    boundaries = np.array([1e-4, 1e-5, 1e16])
    edges = [1e22, 10.00003, 100.00001, 0.0, -0.0, 5e-324]
    values = np.concatenate([
        patterns,
        powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf),
        decades[np.isfinite(decades)],
        boundaries, np.nextafter(boundaries, 0.0), np.nextafter(boundaries, np.inf), edges,
    ])
    values = np.concatenate([values, -values])
    assert values.size >= 200_000 and np.isfinite(values).all()
    return values[: values.size // 4 * 4]  # real or complex, two rows


# write_tensor rewrites orjson's float layout into repr's.  If a future orjson
# changes its layout, these tests fail, instead of the tensor files changing.
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_written_bytes_equal_json_dumps(tmp_path, kind):
    values = _layout_cases()
    if kind == "complex":
        values = values.view(np.complex128)
    t = Tensor3(values.reshape(2, 1, -1))
    path = tmp_path / "t.json"
    write_tensor(t, path)
    assert path.read_bytes() == _dumps_reference(t)


# A band value after a token whose exponent rewrite lengthens the text: a
# rewrite that checks token starts at offsets taken before that is off by one.
@pytest.mark.parametrize("data", [[[[1e308, 6.103515625e-05]]], [[[1e308 + 6.103515625e-05j]]]])
def test_written_bytes_equal_json_dumps_after_an_exponent(tmp_path, data):
    t = Tensor3(np.array(data))
    path = tmp_path / "t.json"
    write_tensor(t, path)
    assert path.read_bytes() == _dumps_reference(t)


# Numbers in [1e-5, 1e-4), which orjson prints positionally and repr does not: the
# writer puts repr's token in place of each such number alone, wherever it stands.
_BAND_ROWS = {
    "first": [3e-5, 1.0, 2.5, -1.0],
    "after_comma": [1.0, 3e-5, 2.5, -1.0],
    "negative": [1.0, 2.5, -4.5e-5, -1.0],
    "last": [1.0, 2.5, -1.0, 9.999999999999999e-05],
    "adjacent": [1.0, 2e-5, -3e-5, 1.0],
    "all": [1e-5, -2e-5, 6.103515625e-05, -9.9e-5],
    "mid_token_zeros": [10.00003, 2e-5, -100.00001, 10.00003],
    "beside_exponents": [1e-7, 5e-5, 1e22, -5e-5],
}


@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize("row", _BAND_ROWS.values(), ids=_BAND_ROWS.keys())
def test_band_entries_take_repr_tokens(tmp_path, kind, row):
    """Each row as real entries, or as two [re, im] pairs, so that a band number is a
    pair's real part, its imaginary part, or both."""
    values = np.array(row * 2)
    if kind == "complex":
        values = values.view(np.complex128)
    t = Tensor3(values.reshape(1, 1, -1))
    path = tmp_path / "t.json"
    write_tensor(t, path)
    assert path.read_bytes() == _dumps_reference(t)


class TestNonFiniteWrite:
    """A tensor file holds finite numbers only: write_tensor refuses what
    read_tensor would reject, before the file is opened."""

    @pytest.mark.parametrize(
        "bad", [np.nan, np.inf, -np.inf, complex(1.0, np.inf), complex(np.nan, 0.0)]
    )
    def test_refused_and_no_file_created(self, tmp_path, bad):
        data = np.ones((2, 2, 2), dtype=type(bad))
        data[1, 0, 1] = bad  # slice-major position 1 * 4 + 1 * 2 + 0
        path = tmp_path / "t.json"
        with pytest.raises(NumericError) as err:
            write_tensor(Tensor3(data), path)
        assert str(err.value) == (
            f"{path}: data[6] is not finite; tensor files hold finite numbers only"
        )
        assert not path.exists()

    def test_existing_file_untouched(self, tmp_path):
        path = tmp_path / "t.json"
        write_tensor(identity(2, 3), path)
        before = path.read_bytes()
        with pytest.raises(NumericError, match=r"data\[0\] is not finite"):
            write_tensor(Tensor3(np.full((1, 1, 2), np.inf)), path)
        assert path.read_bytes() == before
        np.testing.assert_array_equal(read_tensor(path).data, identity(2, 3).data)
