"""Smoke check of the benchmark: ``python3 -m pytest perfbench``.

Each workload runs one or two cycles of jobs, untraced and traced, and must
print every metric named in BENCHMARK.json with its unit.  The output check
must reject a deliberately perturbed output tensor.
"""

import json
import subprocess
import sys

import numpy as np
import pytest

import inputs
import run
import workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@pytest.fixture(scope="module")
def lib():
    return run.load_library()


def test_workloads_match_spec():
    assert sorted(WORKLOADS) == sorted(workloads.CYCLES)


@pytest.mark.parametrize("name", WORKLOADS)
def test_untraced_run_reports_end_to_end_metrics(name, capsys):
    res = run.measure(name, seed=11, seconds=0, trace=False, min_jobs=1, probes=1)
    result = res["result"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    spec = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == spec
    assert all(m["value"] > 0 for m in result["metrics"].values())

    run.report(name, 11, False, res)
    lines = capsys.readouterr().out.splitlines()
    assert json.loads(lines[-1]) == result
    for metric, unit in [*spec.items(), ("error_rate", "ratio")]:
        assert any(line.split()[:1] == [metric] and line.split()[2] == unit for line in lines)


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_run_reports_per_layer_metrics(name):
    res = run.measure(name, seed=11, seconds=0, trace=True, min_jobs=1)
    result = res["result"]
    assert result["correct"]
    spec = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == spec
    metrics = {k: m["value"] for k, m in result["metrics"].items()}
    assert metrics["cli.calls"] == 1.0
    assert sum(metrics[f"{lay}.share"] for lay in run.tracing.LAYERS) == pytest.approx(1.0)
    if name == "geodesic-profile":
        assert metrics["spectral.decompositions"] == 55
        assert metrics["geometry.geodesic_calls"] == 11
        assert metrics["transform.tprod_calls"] == 44


def test_each_job_is_scaled_by_the_references_around_it():
    ref = run.calibrate.REFERENCE_S
    records = [run.Record(i, "job", False, 0.1, 0.1) for i in range(4)]
    # references after 0 jobs, after 2 (twice, around a set-up probe) and after 4
    references = [(0, ref), (2, 3 * ref), (2, ref), (4, 2 * ref)]
    scales = [r.scale for r in run.scale_by_references(records, references)]
    assert scales == pytest.approx([0.5, 0.5, 2 / 3, 2 / 3])


def test_tracing_leaves_the_library_unwrapped(lib):
    tracer = run.tracing.Tracer(lib.__name__)
    original = lib.geometry.t_eigenvalues
    init = lib.core.Tensor3.__init__
    tracer.install()
    assert lib.geometry.t_eigenvalues.__wrapped__ is original
    assert lib.spectral.t_eigenvalues is lib.geometry.t_eigenvalues
    assert lib.cli.read_tensor.__wrapped__ is lib.core.read_tensor.__wrapped__
    assert lib.core.Tensor3.__init__.__wrapped__ is init
    tracer.uninstall()
    assert lib.geometry.t_eigenvalues is original
    assert lib.spectral.t_eigenvalues is original
    assert lib.core.Tensor3.__init__ is init


def test_check_rejects_perturbed_tprod_output(lib):
    wl = run.build(lib, "file-io", 5)
    job = wl.job(0)
    assert job.key.startswith("tprod")
    job.out.unlink(missing_ok=True)
    reply = run.run_job(lib.cli.main, wl.argv(0, 5))
    assert run.verdict(job, reply) is None

    good = inputs.decode(job.out.read_bytes())
    bad = good.copy()
    bad[3, 5, 7] += 1e-6 * np.abs(good).max()
    job.out.write_bytes(inputs.encode(bad))
    assert "differs from tprod_dense" in run.verdict(job, reply)


def test_check_rejects_wrong_eigenvalues(lib):
    wl = run.build(lib, "long-tubes", 5)
    job = wl.job(0)
    assert job.key == "eig h"
    reply = run.run_job(lib.cli.main, wl.argv(0, 5))
    assert run.verdict(job, reply) is None
    vals = reply["stdout"].split()
    vals[0] = f"{float(vals[0]) + 1.0:.4f}"
    wrong = {**reply, "stdout": " ".join(vals) + "\n"}
    assert "sum to" in run.verdict(job, wrong)


def test_inputs_are_seeded_and_built_without_the_library():
    code = (
        "import sys, json, pathlib; sys.path.insert(0, sys.argv[1]); import workloads; "
        "wl = workloads.build(sys.argv[2], 7, pathlib.Path(sys.argv[3]), oracle=None); "
        "assert not [m for m in sys.modules if m.startswith('tspectral')]; "
        "print(json.dumps(wl.input_hashes, sort_keys=True))"
    )
    for name in WORKLOADS:
        outs = [
            subprocess.run(
                [sys.executable, "-c", code, str(run.HERE), name, str(run.WORK / f"smoke{k}" / name)],
                capture_output=True, text=True, check=True,
            ).stdout
            for k in range(2)
        ]
        assert outs[0] == outs[1]
