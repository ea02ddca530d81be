"""Machine-speed reference: fixed work that does not use the library.

    python3 calibrate.py

Reads one line per request from standard input, runs :func:`reference` once
and answers ``{"wall": seconds}``; an empty line ends it.  ``run.py`` asks it
between jobs, every ``REFERENCE_EVERY_S`` seconds, so that its timings sample
the machine at the same moments as the jobs do, on the same CPU.

On a shared host a CPU's speed switches, every few seconds, between states
up to 1.6 times apart, and every kind of work slows together: on a 2-CPU
Xeon VM the per-10-s means of a file-io job and of this reference moved with
a correlation of 0.97, and their ratio spread a quarter as much as the job's
time.  ``run.py`` therefore multiplies each job's times by ``REFERENCE_S /
t``, with ``t`` the mean of the reference times just before and after the
job, which states them at a fixed machine speed.  Over two sets of ten
28-s runs of each workload on that VM, the unscaled timings spread (IQR over
median) by 3.5-28.5%, the scaled ones by 1.1-11.6%.

The work mirrors the jobs' mix and imports only numpy and the standard
library, so no change to the library can change it: JSON encoding and
parsing of floats, tube FFTs, batched small eigendecompositions and
products, and a pure-Python loop.  The size of each part was chosen so that
the reference tracks both the JSON-bound file-io jobs and the
interpreter-bound tiny sweeps.
"""

from __future__ import annotations

import json
import sys
import time

import numpy as np

# The median reference time on a 2-CPU Intel Xeon VM (Python 3.11, numpy 2.4,
# OpenBLAS with one thread); scaled timings are stated at that speed.
REFERENCE_S = 0.035


def make_state():
    rng = np.random.default_rng(20240601)
    tubes = rng.standard_normal((16, 16, 512)) + 1j * rng.standard_normal((16, 16, 512))
    small = rng.standard_normal((1024, 4, 4))
    mid = rng.standard_normal((64, 16, 16))
    return {
        "floats": rng.standard_normal(15000).tolist(),
        "tubes": tubes,
        "small": small + small.transpose(0, 2, 1),
        "mid": mid + mid.transpose(0, 2, 1),
        "mats": rng.standard_normal((512, 32, 32)),
    }


def reference(state) -> float:
    doc = json.loads(json.dumps({"data": state["floats"]}))
    total = sum(doc["data"])
    f = np.fft.ifft(np.fft.fft(state["tubes"], axis=2), axis=2)
    w = np.linalg.eigvalsh(state["small"])
    _, v = np.linalg.eigh(state["mid"])
    m = state["mats"] @ state["mats"]
    counts = {}
    for i in range(20000):
        counts[i % 97] = counts.get(i % 97, 0) + i
    return (total + float(f.real.sum()) + float(w.sum()) + float(v.sum())
            + float(m.trace(axis1=1, axis2=2).sum()) + len(counts))


def main() -> int:
    state = make_state()
    reference(state)
    while sys.stdin.readline().strip():
        t0 = time.perf_counter()
        reference(state)
        wall = time.perf_counter() - t0
        sys.stdout.write(json.dumps({"wall": wall}) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
