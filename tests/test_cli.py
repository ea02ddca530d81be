import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tspectral import Tensor3, cli, read_tensor, write_tensor
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

    @pytest.mark.parametrize("second", ["b2.json", "missing.json"])
    @pytest.mark.parametrize("kind", ["symmetrized", "kyfan"])
    def test_one_operand_kind_rejects_second_file_exit_2(self, capsys, fixtures_dir, kind, second):
        code, stdout, err = run(
            capsys, "bounds", kind, str(fixtures_dir / "a2.json"), str(fixtures_dir / second)
        )
        assert (code, stdout) == (2, "")
        assert f"bounds {kind} takes one tensor file" in err

    def test_missing_second_operand_exit_2(self, capsys, fixtures_dir):
        code, _, err = run(capsys, "bounds", "vn", str(fixtures_dir / "a2.json"))
        assert code == 2
        assert "two tensor files" in err

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
    ("non_hermitian", "pd"): (1, "pd: min_eigenvalue = 1 -> FAIL\n", ""),
}


@pytest.mark.parametrize("name, checks", sorted(_VERIFY_TABLE))
def test_verify_table(capsys, tmp_path, name, checks):
    """Exact stdout and exit code of ``verify`` for each kind of operand and
    each order of the spectral checks."""
    f = tmp_path / f"{name}.json"
    write_tensor(_VERIFY_INPUTS[name], f)
    want_code, want_out, want_err = _VERIFY_TABLE[name, checks]
    code, stdout, err = run(capsys, "verify", str(f), "--checks", checks)
    assert (code, stdout) == (want_code, want_out)
    assert want_err in err


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


def _eig_line_per_value(vals):
    """Reference rule for ``eig``'s line, value by value: Python's ``round`` on
    each real part, numpy's scalar ``round`` on each imaginary part."""

    def fmt4(x: float) -> str:
        return f"{round(float(x), 4) + 0.0:.4f}"

    if vals.dtype.kind != "c":
        return " ".join(fmt4(v) for v in vals)
    return " ".join(f"{fmt4(v.real)}{round(v.imag, 4) + 0.0:+.4f}j" for v in vals)


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
    with np.errstate(over="ignore"):  # numpy's round scales by 1e4, both rules alike
        assert _eig_line(z) == _eig_line_per_value(z)


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
