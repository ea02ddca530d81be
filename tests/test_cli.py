import json
import subprocess
import sys
import warnings
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tspectral
from tspectral import (
    Tensor3,
    bounds,
    cli,
    dist_bures_wasserstein,
    dist_frobenius,
    dist_log_euclidean,
    frobenius_norm,
    identity,
    ky_fan_sum,
    read_tensor,
    t_eigenvalues,
    tprod,
    trace,
    write_tensor,
)
from tspectral.cli import _eig_line, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTprodCommand:
    def test_product_fixture(self, capsys, fixtures_dir, tmp_path):
        out = tmp_path / "c.json"
        code, stdout, _ = run(
            capsys, "tprod", str(fixtures_dir / "a2.json"), str(fixtures_dir / "b2.json"),
            "-o", str(out),
        )
        assert code == 0
        assert "trace = 10" in stdout
        got = read_tensor(out)
        expected = read_tensor(fixtures_dir / "c2.json")
        np.testing.assert_allclose(got.data, expected.data, atol=1e-12)

    def test_dense_and_fft_agree(self, capsys, fixtures_dir, tmp_path):
        outs = {}
        for path in ("dense", "fft"):
            out = tmp_path / f"c_{path}.json"
            code, _, _ = run(
                capsys, "tprod", str(fixtures_dir / "a2.json"),
                str(fixtures_dir / "b2.json"), "-o", str(out), "--path", path,
            )
            assert code == 0
            outs[path] = read_tensor(out)
        np.testing.assert_allclose(outs["dense"].data, outs["fft"].data, rtol=1e-10, atol=1e-10)

    def test_parse_error_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        code, _, err = run(capsys, "tprod", str(bad), str(bad), "-o", str(tmp_path / "o"))
        assert code == 2
        assert "error" in err

    def test_shape_error_exit_2(self, capsys, fixtures_dir, tmp_path):
        gen = tmp_path / "g.json"
        assert run(capsys, "gen", "random", "-n", "3", "-p", "2", "-o", str(gen))[0] == 0
        code, _, err = run(
            capsys, "tprod", str(fixtures_dir / "a2.json"), str(gen),
            "-o", str(tmp_path / "o.json"),
        )
        assert code == 2

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflowing_product_exits_1_and_writes_nothing(self, capsys, tmp_path):
        big = tmp_path / "big.json"
        write_tensor(Tensor3(np.full((1, 1, 4), 1e200)), big)
        out = tmp_path / "c.json"
        code, stdout, err = run(capsys, "tprod", str(big), str(big), "-o", str(out))
        assert (code, stdout) == (1, "")
        assert err == "numeric failure: the result overflowed: its inverse transform is not finite\n"
        assert not out.exists()

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("p", [1, 2])
    def test_overflowing_product_is_reported_as_overflow(self, capsys, tmp_path, p):
        """Fourier products beyond float range are reported as an overflow,
        not as slices that fail the conjugate symmetry of a real result."""
        big = tmp_path / "big.json"
        write_tensor(Tensor3(np.full((2, 2, p), 1e200)), big)
        out = tmp_path / "c.json"
        code, stdout, err = run(capsys, "tprod", str(big), str(big), "-o", str(out))
        assert (code, stdout) == (1, "")
        assert err == "numeric failure: the result overflowed: its inverse transform is not finite\n"
        assert not out.exists()

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflowing_product_leaves_existing_output(self, capsys, fixtures_dir, tmp_path):
        big = tmp_path / "big.json"
        write_tensor(Tensor3(np.full((1, 1, 1), 1e200)), big)
        out = tmp_path / "c.json"
        out.write_bytes((fixtures_dir / "a2.json").read_bytes())
        assert run(capsys, "tprod", str(big), str(big), "-o", str(out))[0] == 1
        assert out.read_bytes() == (fixtures_dir / "a2.json").read_bytes()


_FORWARD_OVERFLOW = "numeric failure: an operand overflowed: its Fourier transform is not finite\n"


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")  # the rfft
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")  # the rfft
@pytest.mark.parametrize(
    "argv",
    [
        ["eig", "{huge}"],
        ["verify", "{huge}", "--checks", "hermitian,psd,pd"],
        ["dist", "--metric", "bw", "{huge}", "{pd}"],
        ["bounds", "vn", "{pd}", "{huge}"],
        ["geodesic", "{huge}", "{pd}", "--t", "0.5", "-o", "{out}"],
    ],
    ids=lambda argv: argv[0],
)
def test_overflowing_forward_transform_exits_1(capsys, tmp_path, argv):
    """A finite, Hermitian file whose Fourier slices overflow (four entries of
    1e308 summed along each tube) is a numeric failure, not a nan spectrum or
    a failed PSD precondition."""
    files = {"huge": tmp_path / "huge.json", "pd": tmp_path / "pd.json", "out": tmp_path / "g.json"}
    write_tensor(Tensor3(np.full((2, 2, 4), 1e308)), files["huge"])
    write_tensor(identity(2, 4), files["pd"])
    code, stdout, err = run(capsys, *(arg.format(**files) for arg in argv))
    assert code == 1
    assert err.endswith(_FORWARD_OVERFLOW)
    assert "nan" not in stdout
    assert not files["out"].exists()


class TestEigCommand:
    def test_eigenvalue_fixture(self, capsys, fixtures_dir):
        code, stdout, _ = run(capsys, "eig", str(fixtures_dir / "a2.json"))
        assert code == 0
        assert stdout.splitlines()[0] == "5.4142 2.5858 2.0000 0.0000"

    def test_bcirc_method(self, capsys, fixtures_dir):
        code, stdout, _ = run(
            capsys, "eig", str(fixtures_dir / "a2.json"), "--method", "bcirc"
        )
        assert code == 0
        assert stdout.splitlines()[0] == "5.4142 2.5858 2.0000 0.0000"

    def test_json_report_is_stable(self, capsys, fixtures_dir):
        _, out1, _ = run(capsys, "eig", str(fixtures_dir / "a2.json"), "--json")
        _, out2, _ = run(capsys, "eig", str(fixtures_dir / "a2.json"), "--json")
        assert out1 == out2
        doc = json.loads(out1.splitlines()[1])
        assert doc["command"] == "eig"


class TestBoundsCommand:
    def test_vn_on_psd_fixtures(self, capsys, fixtures_dir):
        code, stdout, _ = run(
            capsys, "bounds", "vn", str(fixtures_dir / "a2.json"), str(fixtures_dir / "b2.json")
        )
        assert code == 0
        assert "ok" in stdout

    def test_ratio_example(self, capsys, fixtures_dir):
        code, stdout, _ = run(
            capsys, "bounds", "ratio", str(fixtures_dir / "a2.json"),
            str(fixtures_dir / "b2.json"),
        )
        assert code == 0

    def test_symmetrized(self, capsys, fixtures_dir):
        code, stdout, _ = run(capsys, "bounds", "symmetrized", str(fixtures_dir / "a1.json"))
        assert code == 0
        assert "mu_min = 0.4384" in stdout
        assert "mu_max = 4.5616" in stdout

    def test_kyfan(self, capsys, fixtures_dir):
        code, stdout, _ = run(
            capsys, "bounds", "kyfan", str(fixtures_dir / "a2.json"), "--k", "1"
        )
        assert code == 0
        assert stdout.startswith("kyfan_max(k=1) = 7.41421356")

    @pytest.mark.parametrize("k", ["0", "3"])
    @pytest.mark.parametrize("fixture", ["a2.json", "a3.json"])
    def test_kyfan_k_out_of_range_exit_2(self, capsys, fixtures_dir, fixture, k):
        """The rule 1 <= k <= n comes first, also for a tensor that is not Hermitian (a3)."""
        code, stdout, err = run(capsys, "bounds", "kyfan", str(fixtures_dir / fixture), "--k", k)
        assert (code, stdout) == (2, "")
        assert f"k must satisfy 1 <= k <= 2, got {k}" in err

    @pytest.mark.parametrize("second", ["b2.json", "missing.json"])
    @pytest.mark.parametrize("kind", ["symmetrized", "kyfan"])
    def test_one_operand_kind_rejects_second_file_exit_2(self, capsys, fixtures_dir, kind, second):
        code, stdout, err = run(
            capsys, "bounds", kind, str(fixtures_dir / "a2.json"), str(fixtures_dir / second)
        )
        assert (code, stdout) == (2, "")
        assert f"bounds {kind} takes one tensor file" in err

    @pytest.mark.parametrize("first", ["a2.json", "missing.json", "a3.json"])
    def test_missing_second_operand_exit_2(self, capsys, fixtures_dir, first):
        """The file count is checked before any file is read."""
        code, stdout, err = run(capsys, "bounds", "vn", str(fixtures_dir / first))
        assert (code, stdout) == (2, "")
        assert err == "error: bounds vn requires two tensor files\n"

    def test_precondition_violation_exit_2(self, capsys, fixtures_dir):
        code, _, err = run(
            capsys, "bounds", "vn", str(fixtures_dir / "a3.json"), str(fixtures_dir / "b3.json")
        )
        assert code == 2
        assert "Hermitian" in err or "PSD" in err


class TestDistCommand:
    def test_frobenius(self, capsys, fixtures_dir):
        code, stdout, _ = run(
            capsys, "dist", "--metric", "fro",
            str(fixtures_dir / "a3.json"), str(fixtures_dir / "b3.json"),
        )
        assert code == 0
        float(stdout.strip())  # parses as a number

    def test_bw_on_psd_pair(self, capsys, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        run(capsys, "gen", "psd", "-n", "3", "-p", "2", "--seed", "1", "-o", str(a))
        run(capsys, "gen", "psd", "-n", "3", "-p", "2", "--seed", "2", "-o", str(b))
        code, stdout, _ = run(capsys, "dist", "--metric", "bw", str(a), str(b))
        assert code == 0
        assert float(stdout.strip()) > 0

    def test_bw_convention_flag(self, capsys, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        run(capsys, "gen", "psd", "-n", "2", "-p", "2", "--seed", "3", "-o", str(a))
        run(capsys, "gen", "psd", "-n", "2", "-p", "2", "--seed", "4", "-o", str(b))
        _, full, _ = run(capsys, "dist", "--metric", "bw", str(a), str(b))
        _, scaled, _ = run(
            capsys, "--convention", "slice1", "dist", "--metric", "bw", str(a), str(b)
        )
        assert float(scaled.strip()) == pytest.approx(
            float(full.strip()) / np.sqrt(2), rel=1e-10
        )

    def test_bw_rejects_non_hermitian_fixture(self, capsys, fixtures_dir):
        # the published example slices are not Hermitian as stored
        code, _, err = run(
            capsys, "dist", "--metric", "bw",
            str(fixtures_dir / "a3.json"), str(fixtures_dir / "b3.json"),
        )
        assert code == 2
        assert "Hermitian" in err


class TestGeodesicCommand:
    def test_profile_csv(self, capsys, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        run(capsys, "gen", "psd", "-n", "2", "-p", "2", "--seed", "5", "-o", str(a))
        run(capsys, "gen", "psd", "-n", "2", "-p", "2", "--seed", "6", "-o", str(b))
        out = tmp_path / "profile.csv"
        code, _, _ = run(
            capsys, "geodesic", str(a), str(b), "--samples", "11",
            "-o", str(out), "--regularize", "1e-9",
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "t,trace"
        assert len(lines) == 12
        from tspectral import read_tensor as rt, trace

        first_t, first_trace = lines[1].split(",")
        assert float(first_t) == 0.0
        assert float(first_trace) == pytest.approx(trace(rt(a)), rel=1e-6)

    def test_single_point(self, capsys, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        run(capsys, "gen", "psd", "-n", "2", "-p", "2", "--seed", "7", "-o", str(a))
        run(capsys, "gen", "psd", "-n", "2", "-p", "2", "--seed", "8", "-o", str(b))
        out = tmp_path / "g.json"
        code, stdout, _ = run(
            capsys, "geodesic", str(a), str(b), "--t", "0.5",
            "-o", str(out), "--regularize", "1e-9",
        )
        assert code == 0
        assert read_tensor(out).shape == (2, 2, 2)

    def test_convention_scales_both_traces(self, capsys, tmp_path):
        """--convention slice1 divides the printed trace and every sampled one by
        p, as it divides tprod's; the geodesic tensor written is the same."""
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(capsys, "gen", "psd", "-n", "2", "-p", "4", "--seed", "0", "-o", str(a))
        run(capsys, "gen", "psd", "-n", "2", "-p", "4", "--seed", "1", "-o", str(b))
        got = {}
        for convention in ("bcirc", "slice1"):
            point, csv = tmp_path / f"{convention}.json", tmp_path / f"{convention}.csv"
            head = ["--convention", convention, "geodesic", str(a), str(b)]
            code, stdout, _ = run(capsys, *head, "--t", "0", "-o", str(point))
            assert code == 0 and stdout.startswith("trace = ")
            assert run(capsys, *head, "--samples", "3", "-o", str(csv))[0] == 0
            samples = [float(line.split(",")[1]) for line in csv.read_text().splitlines()[1:]]
            got[convention] = float(stdout[len("trace = "):]), samples, point.read_bytes()
        (trace_full, samples_full, g_full), (trace_1, samples_1, g_1) = got.values()
        assert trace_full == pytest.approx(trace(read_tensor(a)), rel=1e-12)
        assert trace_1 == trace_full / 4  # scaling by 1/4 is exact
        assert samples_1 == [x / 4 for x in samples_full] and len(samples_1) == 3
        assert g_1 == g_full


class TestGenVerify:
    def test_same_seed_byte_identical(self, capsys, tmp_path):
        f1 = tmp_path / "t1.json"
        f2 = tmp_path / "t2.json"
        run(capsys, "gen", "psd", "-n", "3", "-p", "2", "--seed", "42", "-o", str(f1))
        run(capsys, "gen", "psd", "-n", "3", "-p", "2", "--seed", "42", "-o", str(f2))
        assert f1.read_bytes() == f2.read_bytes()

    def test_psd_kind_verifies(self, capsys, tmp_path):
        f = tmp_path / "t.json"
        run(capsys, "gen", "psd", "-n", "3", "-p", "3", "--seed", "9", "-o", str(f))
        code, stdout, _ = run(capsys, "verify", str(f), "--checks", "hermitian,psd")
        assert code == 0
        assert stdout.count("ok") == 2

    def test_hermitian_kind_verifies(self, capsys, tmp_path):
        f = tmp_path / "h.json"
        run(capsys, "gen", "hermitian", "-n", "3", "-p", "2", "--seed", "11", "-o", str(f))
        code, stdout, _ = run(capsys, "verify", str(f), "--checks", "hermitian")
        assert code == 0

    def test_degenerate_dims(self, capsys, tmp_path):
        f = tmp_path / "t.json"
        code, _, _ = run(capsys, "gen", "psd", "-n", "1", "-p", "1", "--seed", "0", "-o", str(f))
        assert code == 0
        assert read_tensor(f).shape == (1, 1, 1)

    def test_verify_failure_exit_1(self, capsys, fixtures_dir):
        code, stdout, _ = run(
            capsys, "verify", str(fixtures_dir / "a3.json"), "--checks", "hermitian"
        )
        assert code == 1
        assert "FAIL" in stdout

    def test_seed_env_var(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("TSPECTRAL_SEED", "123")
        f1 = tmp_path / "e1.json"
        run(capsys, "gen", "psd", "-n", "2", "-p", "2", "-o", str(f1))
        f2 = tmp_path / "e2.json"
        run(capsys, "gen", "psd", "-n", "2", "-p", "2", "--seed", "123", "-o", str(f2))
        assert f1.read_bytes() == f2.read_bytes()


def _slice0_tensor(mat, p):
    """2 x 2 x p tensor whose first frontal slice is ``mat`` and the rest zero,
    so every Fourier slice equals ``mat`` and the spectrum is exact."""
    data = np.zeros((2, 2, p))
    data[:, :, 0] = mat
    return Tensor3(data)


_VERIFY_INPUTS = {
    "pd": _slice0_tensor(np.diag([2.0, 3.0]), 3),
    "singular_psd": _slice0_tensor(np.diag([1.0, 0.0]), 2),
    "indefinite": _slice0_tensor(np.diag([1.0, -1.0]), 2),
    "non_hermitian": _slice0_tensor([[1.0, 2.0], [0.0, 3.0]], 2),
}

_NOT_HERMITIAN = "is_psd requires a Hermitian tensor"
_UNKNOWN_CHECK = "error: unknown check 'bogus'; use hermitian, psd, pd\n"

# (input, --checks) -> (exit code, stdout, text required in stderr)
_VERIFY_TABLE = {
    ("pd", "hermitian,psd,pd"): (
        0,
        "hermitian: residual = 0 -> ok\npsd: min_eigenvalue = 2 -> ok\n"
        "pd: min_eigenvalue = 2 -> ok\n",
        "",
    ),
    ("pd", "pd,psd"): (0, "pd: min_eigenvalue = 2 -> ok\npsd: min_eigenvalue = 2 -> ok\n", ""),
    ("pd", "pd"): (0, "pd: min_eigenvalue = 2 -> ok\n", ""),
    ("singular_psd", "hermitian,psd,pd"): (
        1,
        "hermitian: residual = 0 -> ok\npsd: min_eigenvalue = 0 -> ok\n"
        "pd: min_eigenvalue = 0 -> FAIL\n",
        "",
    ),
    ("singular_psd", "pd,psd"): (
        1, "pd: min_eigenvalue = 0 -> FAIL\npsd: min_eigenvalue = 0 -> ok\n", ""
    ),
    ("singular_psd", "pd"): (1, "pd: min_eigenvalue = 0 -> FAIL\n", ""),
    ("indefinite", "hermitian,psd,pd"): (
        1,
        "hermitian: residual = 0 -> ok\npsd: min_eigenvalue = -1 -> FAIL\n"
        "pd: min_eigenvalue = -1 -> FAIL\n",
        "",
    ),
    ("indefinite", "pd,psd"): (
        1, "pd: min_eigenvalue = -1 -> FAIL\npsd: min_eigenvalue = -1 -> FAIL\n", ""
    ),
    ("indefinite", "pd"): (1, "pd: min_eigenvalue = -1 -> FAIL\n", ""),
    ("non_hermitian", "hermitian,psd,pd"): (
        2, "hermitian: residual = 4.0000000000000009 -> FAIL\n", _NOT_HERMITIAN
    ),
    ("non_hermitian", "pd,psd"): (2, "pd: min_eigenvalue = 1 -> FAIL\n", _NOT_HERMITIAN),
    ("non_hermitian", "psd"): (2, "", _NOT_HERMITIAN),
    ("non_hermitian", "pd"): (1, "pd: min_eigenvalue = 1 -> FAIL\n", ""),
    # an unknown check is a usage error before any file is read or check is run
    ("pd", "hermitian,bogus"): (2, "", _UNKNOWN_CHECK),
    ("pd", "psd,bogus"): (2, "", _UNKNOWN_CHECK),
    ("non_hermitian", "bogus,hermitian"): (2, "", _UNKNOWN_CHECK),
    ("missing", "hermitian,bogus"): (2, "", _UNKNOWN_CHECK),
}


@pytest.mark.parametrize("name, checks", sorted(_VERIFY_TABLE))
def test_verify_table(capsys, tmp_path, name, checks):
    """Exact stdout and exit code of ``verify`` for each kind of operand and
    each order of the spectral checks."""
    f = tmp_path / f"{name}.json"
    if name in _VERIFY_INPUTS:
        write_tensor(_VERIFY_INPUTS[name], f)
    want_code, want_out, want_err = _VERIFY_TABLE[name, checks]
    code, stdout, err = run(capsys, "verify", str(f), "--checks", checks)
    assert (code, stdout) == (want_code, want_out)
    assert want_err in err


@pytest.mark.parametrize("note", ["", ', "note": NaN'], ids=["entry", "document"])
def test_nesting_too_deep_exit_2(capsys, tmp_path, note):
    """An entry nested 20,000 deep is past the depth bound, so json alone parses the
    file, and its recursion limit is the parse error, whatever else the document holds."""
    f = tmp_path / "deep.json"
    deep = "[" * 20_000 + "1" + "]" * 20_000
    f.write_text(f'{{"dims": [1, 1, 1], "kind": "real", "data": [{deep}]{note}}}')
    code, stdout, err = run(capsys, "verify", str(f), "--checks", "hermitian")
    assert (code, stdout) == (2, "")
    assert err.startswith(f"error: {f}: cannot parse tensor file: maximum recursion depth "
                          "exceeded while decoding a JSON array")


_DEEP = 200_000  # deeper than orjson's recursion survives on an 8 MB stack, arrays or objects


@pytest.mark.parametrize(
    "text, container",
    [
        ('{"dims": [1, 1, 1], "kind": "real", "data": [' + "[" * _DEEP + "1" + "]" * _DEEP + "]}",
         "array"),
        ('{"a": ' * _DEEP + "1" + "}" * _DEEP, "object"),
    ],
    ids=["array", "object"],
)
def test_nesting_past_the_bracket_bound_exits_2(tmp_path, text, container):
    """A file nested deeper than orjson's stack allows is a parse error, not a
    crash; run in a child process, where a crash cannot take pytest down."""
    f = tmp_path / "deep.json"
    f.write_text(text)
    src = str(Path(tspectral.__file__).resolve().parents[1])
    code = f"import sys; sys.path.insert(0, {src!r}); from tspectral.cli import main; sys.exit(main())"
    out = subprocess.run([sys.executable, "-c", code, "eig", str(f)], capture_output=True, text=True)
    assert (out.returncode, out.stdout) == (2, "")
    assert out.stderr == (f"error: {f}: cannot parse tensor file: maximum recursion depth "
                          f"exceeded while decoding a JSON {container} from a unicode string\n")


# A valid file whose note nests 10,000 objects, which orjson parses on an 8 MiB stack
# and crashes on under 1 MiB.
_DEEP_NOTE = ('{"dims": [1, 1, 1], "kind": "real", "data": [1.5], "note": '
              + '{"a": ' * 10_000 + "1" + "}" * 10_000 + "}")


def test_small_stack_reads_the_deep_note_as_a_parse_error(tmp_path):
    """Under a 1 MiB stack the deep note, past the depth bound, goes to json alone
    and is a parse error, not a crash."""
    resource = pytest.importorskip("resource")
    f = tmp_path / "deep.json"
    f.write_text(_DEEP_NOTE)
    hard = resource.getrlimit(resource.RLIMIT_STACK)[1]

    def small_stack():
        resource.setrlimit(resource.RLIMIT_STACK, (1 << 20, hard))

    src = str(Path(tspectral.__file__).resolve().parents[1])
    code = f"import sys; sys.path.insert(0, {src!r}); from tspectral.cli import main; sys.exit(main())"
    out = subprocess.run([sys.executable, "-c", code, "eig", str(f)], capture_output=True,
                         text=True, preexec_fn=small_stack)
    assert (out.returncode, out.stdout) == (2, "")
    assert out.stderr == (f"error: {f}: cannot parse tensor file: maximum recursion depth "
                          "exceeded while decoding a JSON object from a unicode string\n")


def test_small_thread_stack_reads_the_deep_note_as_a_parse_error(tmp_path):
    """A thread that ``threading`` starts with a 1 MiB stack, below the process's limit,
    reads the deep note: it goes to json alone there too, and the read is a parse
    error, not a crash; run in a child process, where a crash cannot take pytest down."""
    f = tmp_path / "deep.json"
    f.write_text(_DEEP_NOTE)
    src = str(Path(tspectral.__file__).resolve().parents[1])
    code = (f"import sys, threading; sys.path.insert(0, {src!r}); from tspectral.cli import main\n"
            "threading.stack_size(1 << 20); codes = []\n"
            "t = threading.Thread(target=lambda: codes.append(main(sys.argv[1:])))\n"
            "t.start(); t.join(); sys.exit(codes[0])")
    out = subprocess.run([sys.executable, "-c", code, "eig", str(f)], capture_output=True, text=True)
    assert (out.returncode, out.stdout) == (2, "")
    assert out.stderr == (f"error: {f}: cannot parse tensor file: maximum recursion depth "
                          "exceeded while decoding a JSON object from a unicode string\n")


def test_thread_started_before_a_stack_size_reset_reads_the_deep_note(tmp_path):
    """A thread started with a 1 MiB stack reads the deep note after the main thread has
    set ``threading.stack_size`` back to 0: the reader's bound depends on no stack size,
    so the read is a parse error, not a crash; run in a child process, where a crash
    cannot take pytest down."""
    f = tmp_path / "deep.json"
    f.write_text(_DEEP_NOTE)
    src = str(Path(tspectral.__file__).resolve().parents[1])
    code = (f"import sys, threading; sys.path.insert(0, {src!r}); from tspectral.cli import main\n"
            "threading.stack_size(1 << 20); codes = []; reset = threading.Event()\n"
            "def read():\n    reset.wait(); codes.append(main(sys.argv[1:]))\n"
            "t = threading.Thread(target=read); t.start()\n"
            "threading.stack_size(0); reset.set(); t.join(); sys.exit(codes[0])")
    out = subprocess.run([sys.executable, "-c", code, "eig", str(f)], capture_output=True, text=True)
    assert (out.returncode, out.stdout) == (2, "")
    assert out.stderr == (f"error: {f}: cannot parse tensor file: maximum recursion depth "
                          "exceeded while decoding a JSON object from a unicode string\n")


def test_commands_without_files_do_not_load_orjson():
    """orjson is loaded by the first tensor read or write, so a sweep or a bench,
    which touch no file, never load it; run in a child process, whose modules are its own."""
    src = str(Path(tspectral.__file__).resolve().parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); from tspectral.cli import main; "
            "main(['sweep', 'vn-bounds', '--trials', '3']); "
            "main(['bench', '--op', 'geodesic', '--n-grid', '2', '--p-grid', '2', '--reps', '1']); "
            "print('orjson' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert (out.returncode, out.stdout.splitlines()[-1], out.stderr) == (0, "False", "")


@pytest.mark.parametrize(
    "kind, entry",
    [("real", "-1" + "0" * 400), ("complex", "[1" + "0" * 400 + ", 0]")],
    ids=["real", "complex"],
)
def test_integer_beyond_float_range_exit_2(capsys, tmp_path, kind, entry):
    f = tmp_path / "big.json"
    f.write_text(f'{{"dims": [1, 1, 1], "kind": "{kind}", "data": [{entry}]}}')
    code, stdout, err = run(capsys, "verify", str(f), "--checks", "hermitian")
    assert (code, stdout) == (2, "")
    assert "data[0]" in err and "float range" in err


def test_bool_dims_exit_2(capsys, tmp_path):
    f = tmp_path / "bool.json"
    f.write_text('{"dims": [true, 1, 2], "kind": "real", "data": [1, 2]}')
    code, stdout, err = run(capsys, "eig", str(f))
    assert (code, stdout) == (2, "")
    assert "field 'dims' must be three integers >= 1" in err


def test_integer_beyond_digit_limit_exit_2(capsys, tmp_path):
    f = tmp_path / "long.json"
    f.write_text('{"dims": [1, 1, 1], "kind": "real", "data": [' + "1" * 5001 + "]}")
    code, stdout, err = run(capsys, "verify", str(f), "--checks", "hermitian")
    assert (code, stdout) == (2, "")
    assert f"error: {f}: " in err


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "psd", "-n", "2", "-p", "3", "-o", "{out}"],
        ["tprod", "{a}", "{a}", "-o", "{out}"],
        ["geodesic", "{a}", "{a}", "--t", "0.5", "-o", "{out}"],
        ["geodesic", "{a}", "{a}", "--samples", "3", "-o", "{out}"],
        ["bench", "--op", "tprod-fft", "--n-grid", "2", "--p-grid", "2", "--reps", "1",
         "--csv", "{out}"],
    ],
    ids=["gen", "tprod", "geodesic-t", "geodesic-samples", "bench-csv"],
)
def test_unwritable_output_exit_2(capsys, tmp_path, argv):
    a = tmp_path / "a.json"
    write_tensor(identity(2, 3), a)
    out = tmp_path / "missing" / "x.json"
    code, stdout, err = run(capsys, *[arg.format(a=a, out=out) for arg in argv])
    assert (code, stdout) == (2, "")
    assert err == f"error: [Errno 2] No such file or directory: '{out}'\n"
    assert not out.parent.exists()


def test_other_os_errors_are_not_usage_errors(monkeypatch, tmp_path):
    """Only writing an output path maps OSError to exit 2; a closed stdout or any
    other I/O failure propagates."""
    a = tmp_path / "a.json"
    write_tensor(identity(2, 3), a)

    def closed_pipe(*args, **kwargs):
        raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(cli, "t_eigenvalues", closed_pipe)
    with pytest.raises(BrokenPipeError):
        main(["eig", str(a)])


class TestSweepCommand:
    def test_vn_bounds_all_pass(self, capsys):
        code, stdout, _ = run(capsys, "sweep", "vn-bounds", "--trials", "25", "--seed", "0")
        assert code == 0
        assert "25/25 pass" in stdout

    def test_concavity(self, capsys):
        code, stdout, _ = run(capsys, "sweep", "concavity", "--trials", "20", "--seed", "1")
        assert code == 0
        assert "20/20 pass" in stdout

    def test_relax_records_but_never_fails(self, capsys):
        code, stdout, _ = run(capsys, "sweep", "relax-bounds", "--trials", "30", "--seed", "2")
        assert code == 0
        assert "pass" in stdout

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_trials_below_one_exit_2(self, capsys, trials):
        code, stdout, err = run(capsys, "sweep", "vn-bounds", "--trials", trials)
        assert (code, stdout) == (2, "")
        assert f"--trials must be >= 1, got {trials}" in err

    def test_unknown_property_exit_2(self, capsys):
        code, _, err = run(capsys, "sweep", "nonsense", "--trials", "1")
        assert code == 2


# The sweep jobs of the benchmark's tiny-sweeps workload: each property at its
# trial count there, under the per-job seeds run_seed * 1_000_000 + job index.
# A job passes only with exit code 0 and "<prop>: T/T pass" as its output.
_BENCH_SWEEP_TRIALS = {"vn-bounds": 70, "kyfan": 24, "bw-metric-axioms": 14, "concavity": 60}


@pytest.mark.parametrize("run_seed", [1, 2, 101])
@pytest.mark.parametrize("prop", list(_BENCH_SWEEP_TRIALS))
def test_benchmark_sweeps_pass_every_trial(capsys, prop, run_seed):
    trials = _BENCH_SWEEP_TRIALS[prop]
    for index in range(4):
        seed = run_seed * 1_000_000 + index
        argv = ["sweep", prop, "--trials", str(trials), "--seed", str(seed)]
        code, stdout, err = run(capsys, *argv)
        assert (code, stdout, err) == (0, f"{prop}: {trials}/{trials} pass\n", ""), seed


class TestBenchCommand:
    def test_writes_csv_and_fits(self, capsys, tmp_path):
        out = tmp_path / "bench.csv"
        code, stdout, _ = run(
            capsys, "bench", "--op", "tprod-fft", "--n-grid", "4",
            "--p-grid", "4,8", "--reps", "2", "--csv", str(out),
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "op,n,p,median_seconds"
        assert len(lines) == 3
        assert "fitted p-exponent" in stdout

    @pytest.mark.parametrize("reps", ["0", "-2"])
    def test_reps_below_one_exit_2(self, capsys, recwarn, tmp_path, reps):
        out = tmp_path / "bench.csv"
        code, stdout, err = run(
            capsys, "bench", "--op", "tprod-fft", "--n-grid", "2",
            "--p-grid", "2,4", "--reps", reps, "--csv", str(out),
        )
        assert (code, stdout, err) == (2, "", f"error: --reps must be >= 1, got {reps}\n")
        assert not out.exists()
        assert len(recwarn) == 0

    @pytest.mark.parametrize("fails", [False, True], ids=["returns", "raises"])
    def test_times_with_one_blas_thread_and_restores_the_callers(self, monkeypatch, fails):
        threads = cli._openblas_threads()
        if threads is None:
            pytest.skip("numpy's bundled OpenBLAS is not reachable")
        get, put = threads
        seen = []

        def op():
            seen.append(get())
            if fails:
                raise ValueError("op failed")

        monkeypatch.setattr(cli, "_bench_callable", lambda *args: op)
        before = get()
        put(3)
        try:
            if fails:
                with pytest.raises(ValueError, match="op failed"):
                    cli.run_benchmark("tprod-fft", [2], [2], 1)
            else:
                rows = cli.run_benchmark("tprod-fft", [2], [2, 4], 1)
                assert [r.blas_threads for r in rows] == [1, 1]
            assert get() == 3
        finally:
            put(before)
        assert seen and set(seen) == {1}

    def test_times_unpinned_when_the_symbols_are_missing(self, capsys, monkeypatch):
        monkeypatch.setattr(cli.ctypes, "CDLL", lambda path: object())
        cli._openblas_threads.cache_clear()
        try:
            assert cli._openblas_threads() is None
            rows = cli.run_benchmark("tprod-fft", [2], [2, 4], 1)
            assert [(r.p, r.blas_threads) for r in rows] == [(2, None), (4, None)]
            assert all(r.median_seconds > 0 for r in rows)
            code, stdout, _ = run(capsys, "bench", "--op", "tprod-fft", "--n-grid", "2",
                                  "--p-grid", "2", "--reps", "1")
            assert (code, stdout.splitlines()[0]) == (0, "blas threads: not pinned")
        finally:
            cli._openblas_threads.cache_clear()

    @pytest.mark.parametrize("op", ["eig", "bw-dist", "kyfan", "geodesic"])
    def test_times_each_op_on_a_tiny_grid(self, op):
        rows = cli.run_benchmark(op, [2], [2, 3], 1)
        assert [(r.op, r.n, r.p) for r in rows] == [(op, 2, 2), (op, 2, 3)]
        assert all(r.median_seconds > 0 for r in rows)

    def test_fits_the_n_exponent_over_two_n_values(self, capsys):
        code, stdout, _ = run(capsys, "bench", "--op", "kyfan", "--n-grid", "2,4",
                              "--p-grid", "2", "--reps", "1")
        lines = stdout.splitlines()
        assert code == 0 and len(lines) == 4
        assert [line.split(":")[0] for line in lines[1:]] == [
            "kyfan n=2 p=2", "kyfan n=4 p=2", "fitted n-exponent"]

    def test_prints_the_thread_count(self, capsys):
        code, stdout, _ = run(capsys, "bench", "--op", "tprod-fft", "--n-grid", "2",
                              "--p-grid", "2", "--reps", "1")
        pinned = cli._openblas_threads() is not None
        assert (code, stdout.splitlines()[0]) == (0, f"blas threads: {1 if pinned else 'not pinned'}")


def _eig_line_per_value(vals):
    """Reference rule for ``eig``'s line, value by value: Python's ``round`` on
    each real and each imaginary part."""

    def fmt4(x: float, sign: str = "") -> str:
        return f"{round(float(x), 4) + 0.0:{sign}.4f}"

    if vals.dtype.kind != "c":
        return " ".join(fmt4(v) for v in vals)
    return " ".join(f"{fmt4(v.real)}{fmt4(v.imag, '+')}j" for v in vals)


_EIG_VALUE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-1e-3, 1e-3),
    st.integers(-(10**12), 10**12).map(lambda k: (k + 0.5) * 1e-4),  # near ties
    st.sampled_from([0.0, -0.0, 5e-5, -5e-5, 4.99999e-5, -4.99999e-5, 0.03125, 1e20, -1e20]),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_EIG_VALUE, _EIG_VALUE), min_size=1, max_size=12))
def test_eig_line_matches_per_value_rule(pairs):
    re, im = (np.array(part) for part in zip(*pairs))
    assert _eig_line(re) == _eig_line_per_value(re)
    z = re + 1j * im
    assert _eig_line(z) == _eig_line_per_value(z)


@pytest.mark.parametrize(
    "z, want",
    [
        # a real and an imaginary part round alike
        (5202897425.98865 + 5202897425.98865j, "5202897425.9887+5202897425.9887j"),
        # a huge imaginary part is formatted, not scaled by 1e4 into inf
        (1.0 + 1e305j, f"1.0000+{1e305:.4f}j"),
        (-0.0 - 0.00004j, "0.0000+0.0000j"),
    ],
    ids=["half-way", "huge-imaginary", "negative-zeros"],
)
def test_eig_line_complex_cases(z, want):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _eig_line(np.array([z])) == want


class TestParserOncePerProcess:
    """``main`` builds its parser once; every call must print and write what
    the same call prints and writes on a newly built parser."""

    @staticmethod
    def fresh(capsys, *argv):
        cli.build_parser.cache_clear()
        return run(capsys, *argv)

    @pytest.fixture
    def pair(self, tmp_path, capsys):
        files = []
        for seed in (3, 4):
            f = tmp_path / f"p{seed}.json"
            assert run(capsys, "gen", "psd", "-n", "3", "-p", "4", "--seed", str(seed),
                       "-o", str(f))[0] == 0
            files.append(str(f))
        return files

    def test_built_once_across_calls(self, capsys, fixtures_dir):
        cli.build_parser.cache_clear()
        for _ in range(3):
            assert run(capsys, "eig", str(fixtures_dir / "a2.json"))[0] == 0
        assert cli.build_parser.cache_info().misses == 1

    def test_json_flag_does_not_carry_over(self, capsys, fixtures_dir):
        a2 = str(fixtures_dir / "a2.json")
        first = self.fresh(capsys, "eig", a2, "--json")
        assert run(capsys, "eig", a2, "--json") == first
        second = run(capsys, "eig", a2)
        assert second == self.fresh(capsys, "eig", a2)
        assert second[1] == first[1].splitlines(keepends=True)[0]

    def test_exclusive_group_after_the_other_member(self, capsys, pair, tmp_path):
        point, profile = tmp_path / "g.json", tmp_path / "g.csv"
        want_point = self.fresh(capsys, "geodesic", *pair, "--t", "0.5", "-o", str(point))
        point_bytes = point.read_bytes()
        want_profile = self.fresh(capsys, "geodesic", *pair, "--samples", "3", "-o", str(profile))
        profile_bytes = profile.read_bytes()

        cli.build_parser.cache_clear()
        assert run(capsys, "geodesic", *pair, "--t", "0.5", "-o", str(point)) == want_point
        assert run(capsys, "geodesic", *pair, "--samples", "3", "-o", str(profile)) == want_profile
        assert (point.read_bytes(), profile.read_bytes()) == (point_bytes, profile_bytes)

    @pytest.mark.parametrize(
        "bad",
        [
            ("geodesic", "a", "b", "--t", "0.5", "--samples", "3", "-o", "x"),
            ("eig", "a", "--method", "nonsense"),
            ("nonsense",),
        ],
        ids=["exclusive", "choice", "command"],
    )
    def test_usage_error_then_valid_call(self, capsys, fixtures_dir, bad):
        a2 = str(fixtures_dir / "a2.json")
        want = self.fresh(capsys, "eig", a2, "--json")
        with pytest.raises(SystemExit) as exc:
            main(list(bad))
        assert exc.value.code == 2
        capsys.readouterr()
        assert run(capsys, "eig", a2, "--json") == want

    @pytest.mark.parametrize("argv", [(), ("geodesic",), ("sweep",)], ids=["top", "geodesic", "sweep"])
    def test_help_unchanged_after_jobs(self, capsys, fixtures_dir, monkeypatch, argv):
        monkeypatch.setenv("COLUMNS", "80")

        def help_text():
            with pytest.raises(SystemExit) as exc:
                main([*argv, "--help"])
            assert exc.value.code == 0
            return capsys.readouterr().out

        cli.build_parser.cache_clear()
        want = help_text()
        run(capsys, "eig", str(fixtures_dir / "a2.json"), "--json")
        assert help_text() == want


# ---------------------------------------------------------------------------
# --json: one run report per invocation, printed by main after the text
# ---------------------------------------------------------------------------


def _expected_report(argv, fx):
    """The ``command``, ``outputs``, ``bound_reports`` and ``timing`` keys of the
    report of ``argv``, computed from the library; ``timing`` is empty."""
    args = cli.build_parser().parse_args(argv)
    t = {name: read_tensor(getattr(args, name)) for name in ("a", "b") if getattr(args, name, None)}
    outputs, reports = {}, []
    if args.command == "tprod":
        c = tprod(t["a"], t["b"], path=args.path)
        scale = 1.0 / c.p if args.convention == "slice1" else 1.0
        tr = float(np.real(trace(c) * scale)) if c.m == c.n else None
        outputs = {"out": args.out, "trace": tr, "frobenius_norm": frobenius_norm(c)}
    elif args.command == "eig":
        vals = t_eigenvalues(t["a"], method=args.method).values
        outputs = {"eigenvalues": np.column_stack((vals.real, vals.imag)).tolist()}
    elif args.command == "dist":
        metric = {"fro": dist_frobenius, "bw": dist_bures_wasserstein,
                  "logeuclid": dist_log_euclidean}[args.metric]
        outputs = {"distance": metric(t["a"], t["b"], convention=args.convention)}
    elif args.kind == "kyfan":
        outputs = {"value": ky_fan_sum(t["a"], args.k, which=args.which).value}
    elif args.kind == "symmetrized":
        result = bounds.symmetrized_bounds(t["a"])
        reports = [*result.eigen_reports, result.radius_report]
    else:
        bound = {"vn": bounds.vn_trace_bounds, "hermitian": bounds.hermitian_trace_bounds,
                 "sandwich": bounds.sandwich_bounds, "ratio": bounds.extremal_ratio_bounds,
                 "relax": bounds.symmetric_relax_bounds}[args.kind]
        reports = [bound(t["a"], t["b"])]
    doc = {"command": args.command, "outputs": outputs,
           "bound_reports": [asdict(r) for r in reports], "timing": {}}
    return json.loads(json.dumps(doc))


_JSON_CASES = [
    ["tprod", "a2", "b2", "-o", "{out}"],
    ["--convention", "slice1", "tprod", "a2", "b2", "-o", "{out}", "--path", "dense"],
    ["tprod", "a3", "b3", "-o", "{out}"],
    *(["eig", a, "--method", m] for a in ("a1", "a2", "a3") for m in ("fourier", "bcirc")),
    ["bounds", "symmetrized", "a1"],
    ["bounds", "symmetrized", "a2"],
    *(["bounds", "kyfan", "a2", "--k", k, "--which", w] for k in ("1", "2") for w in ("max", "min")),
    *(["bounds", kind, "a1", "a2"] for kind in ("vn", "hermitian", "sandwich", "ratio", "relax")),
    ["bounds", "vn", "a2", "b2"],
    ["dist", "--metric", "fro", "a3", "b3"],
    ["--convention", "slice1", "dist", "--metric", "bw", "a1", "a2"],
    ["dist", "--metric", "logeuclid", "a1", "a1"],
]


@pytest.mark.parametrize("case", _JSON_CASES, ids=lambda case: "-".join(case).replace("{out}", ""))
def test_json_appends_one_report_line(capsys, fixtures_dir, tmp_path, case):
    """With --json, stdout is the text of the same call plus one JSON line whose
    ``inputs`` are the parsed options and whose other fields are what the
    library computes for them."""
    fx = {p.stem: str(p) for p in fixtures_dir.glob("*.json")}
    argv = [fx.get(arg, arg.format(out=tmp_path / "c.json")) for arg in case]
    code, text, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    code, stdout, err = run(capsys, *argv, "--json")
    assert (code, err) == (0, "")
    assert stdout.startswith(text)
    line = stdout[len(text):]
    assert line.endswith("\n") and line.count("\n") == 1
    doc = json.loads(line)
    assert sorted(doc) == ["bound_reports", "command", "inputs", "outputs", "timing"]
    parsed = vars(cli.build_parser().parse_args(argv))
    assert doc.pop("inputs") == {k: v for k, v in parsed.items() if k not in ("fn", "json", "command")}
    assert doc == _expected_report(argv, fx)


def test_tprod_report_is_deterministic(capsys, fixtures_dir, tmp_path):
    """Two tprod --json runs print the same report line: no wall-clock value is in it."""
    argv = ["tprod", str(fixtures_dir / "a3.json"), str(fixtures_dir / "b3.json"),
            "-o", str(tmp_path / "c.json"), "--json"]
    first, second = (run(capsys, *argv)[1].splitlines()[-1] for _ in range(2))
    assert first == second
    assert json.loads(first)["timing"] == {}


def test_tprod_report_records_the_convention(capsys, fixtures_dir, tmp_path):
    """--convention scales tprod's printed trace, so its report records it."""
    code, stdout, _ = run(
        capsys, "--convention", "slice1", "tprod", str(fixtures_dir / "a2.json"),
        str(fixtures_dir / "b2.json"), "-o", str(tmp_path / "c.json"), "--json",
    )
    trace_line, _, report_line = stdout.splitlines()
    doc = json.loads(report_line)
    assert (code, doc["inputs"]["convention"]) == (0, "slice1")
    assert doc["outputs"]["trace"] == float(trace_line.removeprefix("trace = "))


@pytest.mark.parametrize(
    "argv",
    [["bounds", "vn", "a2"], ["dist", "--metric", "bw", "a3", "b3"], ["eig", "missing"]],
    ids=["usage", "precondition", "missing-file"],
)
def test_json_prints_no_report_on_error(capsys, fixtures_dir, argv):
    argv = [str(fixtures_dir / f"{arg}.json") if arg in ("a2", "a3", "b3") else arg
            for arg in argv]
    assert run(capsys, *argv, "--json") == run(capsys, *argv)
    code, stdout, _ = run(capsys, *argv, "--json")
    assert (code, stdout) == (2, "")
