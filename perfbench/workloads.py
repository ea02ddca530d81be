"""The four benchmark workloads: their inputs, their jobs and the check of each job's output.

A workload is a cycle of CLI jobs over input files generated from the seed.
The run repeats whole cycles, so every run has the same job mix.  Where a
cycle mixes jobs of different cost, the multiplicities are chosen so that the
50th and 90th latency percentiles fall inside one cluster of jobs rather than
on the edge between two, where a few jobs more or less would move them.

Each check returns ``None`` when the output is correct and a reason string
otherwise.  Checks read only the outputs (exit code, standard output and the
file the job wrote) and the benchmark's own copy of the inputs.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import inputs

# fft t-product against the dense oracle: both are O(n p) sums of products,
# so roundoff stays many orders below this share of the largest entry.
TPROD_RTOL = 1e-9
# Printed scalars have 17 significant digits; this leaves room for the
# library and numpy summing in different orders.
SCALAR_RTOL = 1e-9
# `eig` prints each eigenvalue rounded to 4 decimals.
EIG_PRINT_ATOL = 0.5e-4
# G(0) = A and G(1) = B hold to roundoff times the condition number of A,
# which the inputs keep below 1e2.
GEODESIC_RTOL = 1e-8

Check = Callable[[int | None, str, bytes | None], str | None]


@dataclass
class Job:
    """One CLI invocation; ``out`` is the file it writes, if any."""

    key: str
    argv: list[str]
    check: Check
    out: Path | None = None
    vary_seed: bool = False  # append --seed <per-job seed> (sweeps)


@dataclass
class Workload:
    name: str
    cycle: list[Job]
    input_hashes: dict[str, str] = field(default_factory=dict)

    def argv(self, index: int, seed: int) -> list[str]:
        job = self.job(index)
        if job.vary_seed:
            return job.argv + ["--seed", str(seed * 1_000_000 + index)]
        return job.argv

    def job(self, index: int) -> Job:
        return self.cycle[index % len(self.cycle)]


def _rel_err(got: float, want: float) -> float:
    return abs(got - want) / max(1.0, abs(want))


def _parse_scalars(stdout: str) -> dict[str, float]:
    """``name = value`` lines of the output, as floats."""
    out = {}
    for line in stdout.splitlines():
        name, sep, value = line.partition(" = ")
        if sep:
            out[name.strip()] = float(value)
    return out


def _require_rc0(rc, stdout, out_bytes):
    return None if rc == 0 else f"exit code {rc}"


def _check_distance(want: float | None) -> Check:
    """Exit 0 and one finite non-negative number; equal to ``want`` if given."""

    def check(rc, stdout, out_bytes):
        if rc != 0:
            return f"exit code {rc}"
        d = float(stdout.split()[0])
        if not math.isfinite(d) or d < 0:
            return f"distance {d!r} is not a finite non-negative number"
        if want is not None and _rel_err(d, want) > SCALAR_RTOL:
            return f"distance {d!r}, numpy gives {want!r}"
        return None

    return check


def _check_tprod(a: np.ndarray, b: np.ndarray, oracle) -> Check:
    expected = []  # oracle result, computed once, by the first check

    def check(rc, stdout, out_bytes):
        if rc != 0:
            return f"exit code {rc}"
        if not expected:
            expected.append(oracle(a, b))
        want = expected[0]
        got = inputs.decode(out_bytes)
        if got.shape != want.shape:
            return f"output shape {got.shape}, expected {want.shape}"
        scale = max(1.0, float(np.abs(want).max()))
        err = float(np.abs(got - want).max())
        if not err <= TPROD_RTOL * scale:
            return f"output differs from tprod_dense by {err:.3e} (> {TPROD_RTOL:.0e} * {scale:.3e})"
        printed = _parse_scalars(stdout)
        tr = float(np.real(inputs.trace(want)))
        fro = math.sqrt(want.shape[2]) * float(np.linalg.norm(want.ravel()))
        if _rel_err(printed["trace"], tr) > SCALAR_RTOL:
            return f"printed trace {printed['trace']!r}, oracle gives {tr!r}"
        if _rel_err(printed["frobenius_norm"], fro) > SCALAR_RTOL:
            return f"printed frobenius_norm {printed['frobenius_norm']!r}, oracle gives {fro!r}"
        return None

    return check


def _check_eig(a: np.ndarray) -> Check:
    """The n*p printed eigenvalues sum to the tensor trace."""
    tr = inputs.trace(a)
    count = a.shape[1] * a.shape[2]

    def check(rc, stdout, out_bytes):
        if rc != 0:
            return f"exit code {rc}"
        vals = np.array([complex(tok) for tok in stdout.split()])
        if len(vals) != count:
            return f"{len(vals)} eigenvalues printed, expected {count}"
        tol = count * EIG_PRINT_ATOL + SCALAR_RTOL * float(np.abs(vals).sum())
        err = abs(complex(vals.sum()) - tr)
        if not err <= tol:
            return f"eigenvalues sum to {vals.sum()!r}, trace is {tr!r} (|diff| {err:.3e} > {tol:.3e})"
        return None

    return check


def _check_geodesic(a: np.ndarray, b: np.ndarray, samples: int) -> Check:
    tr_a = float(np.real(inputs.trace(a)))
    tr_b = float(np.real(inputs.trace(b)))
    tol = GEODESIC_RTOL * (abs(tr_a) + abs(tr_b))

    def check(rc, stdout, out_bytes):
        if rc != 0:
            return f"exit code {rc}"
        lines = out_bytes.decode().split()
        if lines[0] != "t,trace" or len(lines) != samples + 1:
            return f"profile has header {lines[0]!r} and {len(lines) - 1} rows, expected {samples}"
        rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
        if rows[0, 0] != 0.0 or rows[-1, 0] != 1.0:
            return f"profile runs from t={rows[0, 0]!r} to t={rows[-1, 0]!r}"
        if not np.all(np.isfinite(rows)):
            return "profile holds a non-finite value"
        if abs(rows[0, 1] - tr_a) > tol:
            return f"trace G(0) = {rows[0, 1]!r}, tr A = {tr_a!r}"
        if abs(rows[-1, 1] - tr_b) > tol:
            return f"trace G(1) = {rows[-1, 1]!r}, tr B = {tr_b!r}"
        return None

    return check


def _check_sweep(trials: int) -> Check:
    def check(rc, stdout, out_bytes):
        if rc != 0:
            return f"exit code {rc}: {stdout.strip()}"
        if not stdout.strip().endswith(f"{trials}/{trials} pass"):
            return f"unexpected sweep output {stdout.strip()!r}"
        return None

    return check


class _Files:
    """Writes generated tensors into the workload directory and hashes them."""

    def __init__(self, workdir: Path):
        self.dir = workdir
        self.hashes: dict[str, str] = {}
        workdir.mkdir(parents=True, exist_ok=True)

    def put(self, name: str, a: np.ndarray) -> str:
        raw = inputs.encode(a)
        path = self.dir / f"{name}.json"
        path.write_bytes(raw)
        self.hashes[path.name] = inputs.sha256(raw)
        return str(path)


def _file_io(rng, files: _Files, oracle) -> list[Job]:
    """tprod (2 reads, 1 write) and dist fro (2 reads) on 2 real 32x32x64
    pairs and 1 complex 16x16x64 pair.  dist runs on more pairs than tprod:
    sorted by cost the cycle is dist complex x2, dist real x4, tprod complex,
    tprod real x2, so p50 lands among the real dist jobs and p90 among the
    real tprod jobs."""
    tensors = {}
    for tag, n, cplx in (("r1", 32, False), ("r2", 32, False), ("c", 16, True)):
        for side in "ab":
            a = inputs.gaussian(rng, (n, n, 64), cplx)
            tensors[tag + side] = (a, files.put(tag + side, a))
    jobs = []
    for tag in ("r1", "r2", "c"):
        (a, fa), (b, fb) = tensors[tag + "a"], tensors[tag + "b"]
        out = files.dir / f"{tag}_prod.json"
        jobs.append(Job(f"tprod {tag}", ["tprod", fa, fb, "-o", str(out)],
                        _check_tprod(a, b, oracle), out=out))
    for x, y in (("r1a", "r1b"), ("r2a", "r2b"), ("r1a", "r2b"), ("r2a", "r1b"),
                 ("ca", "cb"), ("cb", "ca")):
        (a, fa), (b, fb) = tensors[x], tensors[y]
        want = math.sqrt(a.shape[2]) * float(np.linalg.norm((a - b).ravel()))
        jobs.append(Job(f"dist fro {x} {y}", ["dist", "--metric", "fro", fa, fb],
                        _check_distance(want)))
    return jobs


def _long_tubes(rng, files: _Files, oracle) -> list[Job]:
    """Spectral commands on 4x4x1024 tensors: real PD p1, p2, real singular
    PSD s, real indefinite Hermitian h, complex Hermitian c1, c2.  The cheap
    real jobs (eig, verify, kyfan, logeuclid) sit below the median, the
    complex eig/kyfan jobs hold it, and the bw and vn jobs make the top
    decile, where p90 reads them."""
    n, p = 4, 1024
    shift = 0.5 * p  # every Fourier-slice eigenvalue of p1, p2 is >= p/2: well conditioned
    t = {
        "p1": inputs.psd(rng, n, p, shift=shift),
        "p2": inputs.psd(rng, n, p, shift=shift),
        "s": inputs.psd(rng, n, p, rank=2),
        "h": inputs.hermitian_part(inputs.gaussian(rng, (n, n, p))),
        "c1": inputs.hermitian_part(inputs.gaussian(rng, (n, n, p), True)),
        "c2": inputs.hermitian_part(inputs.gaussian(rng, (n, n, p), True)),
    }
    f = {name: files.put(name, a) for name, a in t.items()}
    ok = _require_rc0
    pos = _check_distance(None)
    return [
        Job("eig h", ["eig", f["h"]], _check_eig(t["h"])),
        Job("verify p1", ["verify", f["p1"], "--checks", "hermitian,psd,pd"], ok),
        Job("kyfan h", ["bounds", "kyfan", f["h"], "--k", "2"], ok),
        Job("dist logeuclid p1 p2", ["dist", "--metric", "logeuclid", f["p1"], f["p2"]], pos),
        Job("eig c1", ["eig", f["c1"]], _check_eig(t["c1"])),
        Job("kyfan c1", ["bounds", "kyfan", f["c1"], "--k", "2"], ok),
        Job("eig c2", ["eig", f["c2"]], _check_eig(t["c2"])),
        Job("kyfan c2", ["bounds", "kyfan", f["c2"], "--k", "2"], ok),
        Job("vn p1 s", ["bounds", "vn", f["p1"], f["s"]], ok),
        Job("vn p2 s", ["bounds", "vn", f["p2"], f["s"]], ok),
        Job("dist bw p1 s", ["dist", "--metric", "bw", f["p1"], f["s"]], pos),
        Job("dist bw p2 s", ["dist", "--metric", "bw", f["p2"], f["s"]], pos),
        Job("dist bw p1 p2", ["dist", "--metric", "bw", f["p1"], f["p2"]], pos),
    ]


GEODESIC_SAMPLES = 11


def _geodesic_profile(rng, files: _Files, oracle) -> list[Job]:
    """geodesic --samples 11 on 3 pairs of a 16x16x32 PD A and a rank-8 PSD B."""
    n, p = 16, 32
    jobs = []
    for k in range(3):
        a = inputs.psd(rng, n, p, shift=0.5 * p)
        b = inputs.psd(rng, n, p, rank=n // 2)
        fa, fb = files.put(f"a{k}", a), files.put(f"b{k}", b)
        out = files.dir / f"profile{k}.csv"
        argv = ["geodesic", fa, fb, "--samples", str(GEODESIC_SAMPLES), "-o", str(out)]
        jobs.append(Job(f"geodesic {k}", argv, _check_geodesic(a, b, GEODESIC_SAMPLES), out=out))
    return jobs


# Trials per sweep job, set so that each job takes about the same time
# (60-70 ms on a 2-CPU Xeon), which keeps p50 and p90 off cluster edges.
SWEEP_TRIALS = {"vn-bounds": 70, "kyfan": 24, "bw-metric-axioms": 14, "concavity": 60}


def _tiny_sweeps(rng, files: _Files, oracle) -> list[Job]:
    """Property sweeps over random n <= 4, p <= 4 tensors; no file I/O.
    Every job gets its own sweep seed, derived from the run seed and the job index."""
    return [
        Job(f"sweep {prop}", ["sweep", prop, "--trials", str(trials)], _check_sweep(trials),
            vary_seed=True)
        for prop, trials in SWEEP_TRIALS.items()
    ]


# Workload name -> function that writes the workload's inputs and returns its job cycle.
CYCLES = {
    "file-io": _file_io,
    "long-tubes": _long_tubes,
    "geodesic-profile": _geodesic_profile,
    "tiny-sweeps": _tiny_sweeps,
}


def build(name: str, seed: int, workdir: Path, oracle) -> Workload:
    """Generate the inputs of workload ``name`` for ``seed`` into ``workdir``.

    ``oracle(a, b)`` returns the reference t-product of two arrays; it is
    called only by the checks.
    """
    rng = np.random.default_rng([seed, zlib.crc32(name.encode())])
    files = _Files(workdir)
    cycle = CYCLES[name](rng, files, oracle)
    return Workload(name, cycle, files.hashes)
