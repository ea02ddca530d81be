#!/usr/bin/env python3
"""End-to-end benchmark of the tspectral CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload NAME --seed N --replay JOB_INDEX

Runs real ``tspectral`` commands through ``tspectral.cli.main(argv)`` in a
closed loop with one client: one job after another, one BLAS thread.  The
jobs run in a worker process of their own (``worker.py``), which this script
drives job by job, so that the worker's peak memory is the library's alone.
The library is imported from ``src/`` of the checkout that holds this
directory; without it the benchmark exits 2.  Inputs are generated from the
seed by the benchmark's own numpy code (see ``workloads.py``) into
``.perfbench_work/`` at the checkout root.

``--trace 0`` measures untraced and reports the end-to-end metrics.  Set-up
time is the median of several fresh interpreters, started between cycles,
each importing the library and running the workload's first job.  Every
end-to-end time is stated at a fixed machine speed: between jobs, off their
clocks, a helper process times a fixed reference that does not use the
library (``calibrate.py``), and each job's and probe's times are multiplied
by ``REFERENCE_S`` over the reference time around them.  The unscaled
figures are printed beside them and kept in the details file.  All of a
run's processes share one CPU, and the run lasts ``--seconds`` of wall time.
``--trace 1`` alternates untraced and traced cycles of the workload and
reports per-layer metrics from the traced ones (see ``tracing.py``), plus the
tracing overhead.  Every job's output is checked as soon as the job returns,
off its clock; a failed job is printed with its ``(workload, seed, job
index)``, which ``--replay`` runs again alone.  ``--seconds`` defaults to
``run_seconds`` of ``BENCHMARK.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread, set before numpy loads its BLAS; the set-up probes inherit
# it.  With one OpenBLAS thread per CPU on a 2-CPU machine, the idle BLAS
# thread spin-waits beside the job and the run-to-run spread of every timing
# grew from about 6% to 20-30% of the median.
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import NamedTuple  # noqa: E402

import numpy as np  # noqa: E402

import calibrate  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from worker import MissingLibrary, load_library, run_job  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
WORK = ROOT / ".perfbench_work"

# p90 is reported only with at least 10 samples beyond it.
MIN_JOBS = 100
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 120
# Seconds between two timings of the reference of calibrate.py.
REFERENCE_EVERY_S = 0.2


class Record(NamedTuple):
    index: int
    key: str
    traced: bool
    wall: float
    cpu: float
    scale: float = 1.0  # states the job's times at the reference machine speed


class Child:
    """A helper process driven over a pipe, one JSON line each way; killed on exit if still running."""

    def __init__(self, script: str, *args: str):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / script), *args],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT,
        )

    def ask(self, line: str) -> dict:
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()
        answer = self.proc.stdout.readline()
        if not answer:
            raise RuntimeError(f"{self.proc.args[1]} exited with code {self.proc.wait()}")
        return json.loads(answer)

    def end(self) -> str:
        """Send the empty line that ends the child; its last line of output, if any."""
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        last = self.proc.stdout.readline()
        self.proc.wait(timeout=PROBE_TIMEOUT_S)
        return last

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()


def verdict(job, reply: dict) -> str | None:
    """Why the job's output is wrong, or ``None``; reads the file the job wrote."""
    if reply["error"] is not None:
        return f"raised {reply['error']}"
    raw = job.out.read_bytes() if job.out is not None and job.out.exists() else None
    if job.out is not None and raw is None:
        reason = f"exit code {reply['rc']}, no output file"
    else:
        try:
            reason = job.check(reply["rc"], reply["stdout"], raw)
        except (ValueError, KeyError, IndexError, UnicodeDecodeError) as exc:
            reason = f"unreadable output: {type(exc).__name__}: {exc}"
    if reason is not None and reply["stderr"].strip():
        reason += f" [stderr: {reply['stderr'].strip()[:200]}]"
    return reason


def probe_setup(argv: list[str]) -> float:
    """Seconds for ``import tspectral`` plus ``argv`` in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), str(SRC), json.dumps(argv)],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed ({proc.returncode}): {proc.stderr.strip()}")
    return float(proc.stdout.split()[-2])


def p90(values) -> float:
    return statistics.quantiles(values, n=10)[8]


def end_to_end(records, setups, peak_rss_mb, scaled: bool = True) -> dict:
    """The end-to-end metrics; with ``scaled``, every time is multiplied by its scale."""
    wall = [r.wall * (r.scale if scaled else 1.0) for r in records]
    cpu = [r.cpu * (r.scale if scaled else 1.0) for r in records]
    setup = [t * (scale if scaled else 1.0) for t, scale in setups]
    return {
        "jobs_per_s": (len(wall) / sum(wall), "1/s"),
        "job_p50_ms": (statistics.median(wall) * 1e3, "ms"),
        "job_p90_ms": (p90(wall) * 1e3, "ms"),
        "cpu_ms_per_job": (sum(cpu) / len(cpu) * 1e3, "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def scale_by_references(records, references) -> list[Record]:
    """Give each job the scale ``REFERENCE_S / t``, with ``t`` the mean of
    the reference times taken just before and just after it.

    ``references`` holds ``(jobs done before it, seconds)``, in order, with
    one taken before the first job and one after the last.  The machine's
    speed here switches between states that last seconds, so each job is
    scaled by the speed at its own time rather than by a run-wide median,
    which a run split between two states would pin on either.
    """
    scaled, k = [], 0
    for r in records:
        while references[k + 1][0] <= r.index:
            k += 1
        mean = (references[k][1] + references[k + 1][1]) / 2
        scaled.append(r._replace(scale=calibrate.REFERENCE_S / mean))
    return scaled


def per_layer(records, summary: dict) -> dict:
    metrics = tracing.layer_metrics(summary)
    untraced = [r.wall * r.scale for r in records if not r.traced]
    traced = [r.wall * r.scale for r in records if r.traced]
    metrics["trace.overhead"] = (statistics.median(traced) / statistics.median(untraced) - 1, "ratio")
    return metrics


def job_medians(records) -> dict[str, float]:
    by_key = {}
    for r in records:
        by_key.setdefault(r.key, []).append(r.wall * 1e3)
    return {key: statistics.median(ms) for key, ms in by_key.items()}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_commit() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def machine(lib) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": NPROC,
        "cpu_affinity": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": git_commit(),
        "tspectral": lib.__version__,
    }


def build(lib, name: str, seed: int):
    from tspectral.core import Tensor3
    from tspectral.transform import tprod_dense

    def oracle(a, b):
        return tprod_dense(Tensor3(a), Tensor3(b)).data

    return workloads.build(name, seed, WORK / name, oracle)


def measure(name: str, seed: int, seconds: float, trace: bool,
            min_jobs: int = MIN_JOBS, probes: int = SETUP_PROBES) -> dict:
    """One benchmark run; returns the result line plus details."""
    lib = load_library()
    wl = build(lib, name, seed)
    probes = 0 if trace else probes
    records, failures, setups, references = [], [], [], []
    cycles = 0
    with (Child("worker.py", "--trace", str(int(trace)), "--spans", str(WORK / f"spans-{name}.csv")) as worker,
          Child("calibrate.py") as calibrator):

        def run(index: int, traced: bool) -> dict:
            return worker.ask(json.dumps({"job": index, "argv": wl.argv(index, seed), "traced": traced}))

        def reference() -> float:
            """Time the reference once (see calibrate.py); kept with the number of jobs done before it."""
            wall = calibrator.ask("run")["wall"]
            references.append((len(records), wall))
            return wall

        run(-1, False)  # warm-up; a failing job is reported by the loop
        start = last_reference = time.perf_counter()
        reference()
        while True:
            traced = trace and cycles % 2 == 1
            for _ in range(len(wl.cycle)):
                index = len(records)
                job = wl.job(index)
                if job.out is not None:
                    job.out.unlink(missing_ok=True)
                reply = run(index, traced)
                reason = verdict(job, reply)
                if reason is not None:
                    failures.append((index, reason))
                records.append(Record(index, job.key, traced, reply["wall"], reply["cpu"]))
                if time.perf_counter() - last_reference >= REFERENCE_EVERY_S:
                    reference()
                    last_reference = time.perf_counter()
            cycles += 1
            # The run lasts `seconds` of wall time, checks and probes included.
            # Set-up probes are spread over it, between cycles and off the
            # jobs' clocks, so that their median sees the machine as the jobs do.
            elapsed = time.perf_counter() - start
            if len(setups) < probes and elapsed >= len(setups) * seconds / probes:
                before = reference()
                probe = probe_setup(wl.argv(0, seed))
                setups.append((probe, 2 * calibrate.REFERENCE_S / (before + reference())))
            if (elapsed >= seconds and len(records) >= min_jobs and len(setups) == probes
                    and (not trace or cycles % 2 == 0)):
                break
        reference()
        end = json.loads(worker.end())
        calibrator.end()

    records = scale_by_references(records, references)
    unscaled = {}
    if trace:
        metrics = per_layer(records, end["trace"])
    else:
        metrics = end_to_end(records, setups, end["peak_rss_mb"])
        unscaled = {k: v for k, (v, _) in end_to_end(records, setups, end["peak_rss_mb"], False).items()}
    reference_times = [t for _, t in references]
    return {
        "result": {
            "correct": not failures,
            "attempted": len(records),
            "failed": len(failures),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        },
        "failures": failures,
        "reference_ms": statistics.median(reference_times) * 1e3,
        "references": [[after, t * 1e3] for after, t in references],
        "unscaled": unscaled,
        "untraced_jobs": sum(not r.traced for r in records),
        "job_p50_ms_by_key": job_medians(records),
        "samples": [[r.index, r.key, r.wall * 1e3, r.cpu * 1e3, r.traced, r.scale] for r in records],
        "setups": setups,
        "input_sha256": wl.input_hashes,
        "machine": machine(lib),
    }


def replay(name: str, seed: int, index: int) -> int:
    lib = load_library()
    wl = build(lib, name, seed)
    job = wl.job(index)
    if job.out is not None:
        job.out.unlink(missing_ok=True)
    reply = run_job(lib.cli.main, wl.argv(index, seed))
    reason = verdict(job, reply)
    print(f"job {index}: tspectral {' '.join(wl.argv(index, seed))}")
    print(f"exit code {reply['rc']}, {reply['wall'] * 1e3:.1f} ms")
    print(reply["stdout"][:2000], end="")
    print("ok" if reason is None else f"FAILED: {reason}")
    return 0 if reason is None else 1


def report(name: str, seed: int, trace: bool, res: dict) -> None:
    """Human-readable lines, the details file, then the result line."""
    result = res["result"]
    n = res["untraced_jobs"]
    if trace:
        print(f"perfbench {name} seed={seed} traced: {result['attempted'] - n} of "
              f"{result['attempted']} jobs traced")
    else:
        print(f"perfbench {name} seed={seed}: {n} jobs, {n - int(0.9 * n)} beyond p90")
    for key, m in result["metrics"].items():
        print(f"  {key:34s} {m['value']:14.6g} {m['unit']}")
    print(f"  {'error_rate':34s} {result['failed'] / result['attempted']:14.6g} ratio "
          f"({result['failed']}/{result['attempted']})")
    if res["unscaled"]:
        print(f"times are stated at a reference time of {calibrate.REFERENCE_S * 1e3:g} ms; "
              f"measured {res['reference_ms']:.3f} ms (median of {len(res['references'])}); unscaled: "
              + ", ".join(f"{k} {v:.6g}" for k, v in res["unscaled"].items()))
    for index, reason in res["failures"][:50]:
        print(f"FAILED ({name}, {seed}, {index}): {reason}", file=sys.stderr)
    if len(res["failures"]) > 50:
        print(f"... and {len(res['failures']) - 50} more failed jobs", file=sys.stderr)
    print("machine " + json.dumps(res["machine"]))
    inputs_digest = inputs.sha256(json.dumps(res["input_sha256"], sort_keys=True).encode())
    print(f"inputs sha256 {inputs_digest}")
    details = WORK / f"result-{name}-seed{seed}-trace{int(trace)}.json"
    details.write_text(json.dumps(res, indent=1, default=str) + "\n")
    print(json.dumps(result))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.CYCLES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--replay", type=int, metavar="JOB_INDEX",
                        help="run one job of the workload and check its output")
    args = parser.parse_args(argv)
    # Every process of a run (this one, the worker, the reference of
    # calibrate.py and the set-up probes) runs on one CPU: they never run at
    # the same time, and on a shared host two vCPUs drift in speed apart, so
    # the reference tracks the jobs' speed only on the jobs' own CPU.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    try:
        if args.replay is not None:
            return replay(args.workload, args.seed, args.replay)
        seconds = args.seconds
        if seconds is None:
            seconds = json.loads(SPEC.read_text())["run_seconds"]
        res = measure(args.workload, args.seed, seconds, bool(args.trace))
    except MissingLibrary as exc:
        print(f"perfbench: {exc}; run from the root of a tspectral checkout", file=sys.stderr)
        return 2
    report(args.workload, args.seed, bool(args.trace), res)
    return 0


if __name__ == "__main__":
    sys.exit(main())
