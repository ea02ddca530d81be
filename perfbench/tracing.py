"""Spans around the library's layers, recorded from outside the library.

:class:`Tracer` wraps every function named in the ``__all__`` of the layer
modules (``core``, ``transform``, ``spectral``, ``bounds``, ``geometry``) at
every attribute of every loaded ``tspectral`` module that refers to it, for
example both ``tspectral.spectral.t_eigenvalues`` and
``tspectral.geometry.t_eigenvalues``, so that calls between layers and within
a layer are both seen.  The constructor of ``core.Tensor3``, which validates,
casts and copies its data, is wrapped as the span ``core.Tensor3``, so that
this fixed per-tensor cost is charged to ``core`` and not to the caller.
``install``/``uninstall`` swap the wrappers in and out; no source file
changes.  The benchmark itself opens one ``cli.main``
span per job, so the ``cli`` layer's self time is the job's time outside
every library call.

Spans are kept in memory as ``(id, name, start_ns, end_ns, parent, job,
error)`` and written out when the run ends.  A span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import hashlib
import importlib
import inspect
import math
import os
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "core", "transform", "spectral", "bounds", "geometry")
LIBRARY_LAYERS = LAYERS[1:]
DECOMPOSITIONS = ("spectral.t_eigenvalues", "spectral.hermitian_eig", "spectral.t_svd")
TPROD_KERNELS = ("transform.tprod_fft", "transform.tprod_dense")
FOURIER_TRANSFORMS = ("transform.to_fourier", "transform.from_fourier")
ROOT = "cli.main"
CONSTRUCTORS = ("core.Tensor3",)


def _first_arg(args, kwargs):
    return args[0] if args else next(iter(kwargs.values()))


def _operand_hash(args, kwargs, result):
    t = _first_arg(args, kwargs)
    h = hashlib.blake2b(repr((t.shape, t.data.dtype.str)).encode(), digest_size=16)
    h.update(t.data.tobytes())
    return h.digest()


def _tprod_flops(args, kwargs, result):
    """Computed flops of a t-product of m x n x p by n x l x p: p complex
    slice products (8 real flops per multiply-add) plus three tube FFTs of
    5 p log2 p flops each, over the m*n, n*l and m*l tubes."""
    a, b = args[0], args[1]
    m, n, p = a.shape
    l = b.shape[1]
    return 8 * m * n * l * p + 5 * p * math.log2(p) * (m * n + n * l + m * l)


def _read_bytes(args, kwargs, result):
    return os.path.getsize(_first_arg(args, kwargs))


def _write_bytes(args, kwargs, result):
    return os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])


# Per-span data recorded after the call returns, outside the span's clock.
_EXTRA = {
    **{name: _operand_hash for name in DECOMPOSITIONS},
    **{name: _tprod_flops for name in TPROD_KERNELS},
    "core.read_tensor": _read_bytes,
    "core.write_tensor": _write_bytes,
}


class Tracer:
    """In-memory span recorder for one benchmark run of package ``package``."""

    def __init__(self, package: str = "tspectral"):
        self.names: list[str] = [ROOT]
        self.spans: list[tuple] = []
        self.extra: dict[int, object] = {}
        self._stack = [-1]
        self._next_id = 0
        self._job = -1
        self._patches = []

        wrappers = {}
        for layer in LIBRARY_LAYERS:
            mod = importlib.import_module(f"{package}.{layer}")
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if inspect.isfunction(fn):
                    name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
                    wrappers[id(fn)] = (fn, self._wrap(fn, name))
                elif f"{layer}.{attr}" in CONSTRUCTORS:
                    init = fn.__init__
                    self._patches.append((fn, "__init__", init, self._wrap(init, f"{layer}.{attr}")))
        for modname, mod in list(sys.modules.items()):
            if modname != package and not modname.startswith(package + "."):
                continue
            for attr, value in vars(mod).items():
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((mod, attr, value, hit[1]))

    def install(self) -> None:
        for mod, attr, _, wrapper in self._patches:
            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original, _ in self._patches:
            setattr(mod, attr, original)

    def _wrap(self, fn, name: str):
        name_id = len(self.names)
        self.names.append(name)
        extra = _EXTRA.get(name)

        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1]
            self._stack.append(sid)
            failed = True
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                t1 = time.perf_counter_ns()
                self._stack.pop()
                self.spans.append((sid, name_id, t0, t1, parent, self._job, failed))
                if extra is not None and not failed:
                    self.extra[sid] = extra(args, kwargs, result)

        traced.__wrapped__ = fn
        return traced

    def run_job(self, job: int, fn, *args):
        """Call ``fn(*args)`` as job ``job`` under a root ``cli.main`` span."""
        self._job = job
        sid = self._next_id
        self._next_id += 1
        self._stack.append(sid)
        failed = True
        t0 = time.perf_counter_ns()
        try:
            result = fn(*args)
            failed = False
            return result
        finally:
            t1 = time.perf_counter_ns()
            self._stack.pop()
            self.spans.append((sid, 0, t0, t1, -1, job, failed))

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,name,start_ns,end_ns,parent,job,error\n")
            for sid, name_id, t0, t1, parent, job, failed in sorted(self.spans):
                fh.write(f"{sid},{self.names[name_id]},{t0},{t1},{parent},{job},{int(failed)}\n")

    def summary(self) -> dict:
        """Per-layer totals over all recorded jobs, and the job count."""
        child_ns = defaultdict(int)
        for sid, _, t0, t1, parent, _, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += t1 - t0
        layer = {name_id: name.split(".", 1)[0] for name_id, name in enumerate(self.names)}
        calls, self_ns, errors = defaultdict(int), defaultdict(int), defaultdict(int)
        by_name = defaultdict(int)
        jobs, job_ns = set(), 0
        read = [0, 0]  # bytes, ns
        write = [0, 0]
        tprod = [0, 0.0]  # ns, flops
        operands = defaultdict(set)  # job -> decomposed operand hashes
        names = self.names
        for sid, name_id, t0, t1, parent, job, failed in self.spans:
            dur = t1 - t0
            lay = layer[name_id]
            calls[lay] += 1
            self_ns[lay] += dur - child_ns[sid]
            errors[lay] += failed
            name = names[name_id]
            by_name[name] += 1
            if name == ROOT:
                jobs.add(job)
                job_ns += dur
            elif sid in self.extra:
                value = self.extra[sid]
                if name == "core.read_tensor":
                    read[0] += value
                    read[1] += dur
                elif name == "core.write_tensor":
                    write[0] += value
                    write[1] += dur
                elif name in TPROD_KERNELS:
                    tprod[0] += dur
                    tprod[1] += value
                else:
                    operands[job].add(value)
        return {
            "jobs": len(jobs),
            "job_ns": job_ns,
            "calls": dict(calls),
            "self_ns": dict(self_ns),
            "errors": dict(errors),
            "by_name": dict(by_name),
            "read_bytes": read[0],
            "read_ns": read[1],
            "write_bytes": write[0],
            "write_ns": write[1],
            "tprod_ns": tprod[0],
            "tprod_flops": tprod[1],
            "distinct_operands": sum(len(s) for s in operands.values()),
        }


def layer_metrics(s: dict) -> dict[str, tuple[float, str]]:
    """Per-job layer metrics from :meth:`Tracer.summary`, as name -> (value, unit)."""
    jobs = max(s["jobs"], 1)
    by_name = s["by_name"]

    def count(*names):
        return sum(by_name.get(n, 0) for n in names)

    def rate_mb(nbytes, ns):
        return nbytes / 1e6 / (ns / 1e9) if ns else 0.0

    out = {}
    for lay in LAYERS:
        out[f"{lay}.calls"] = (s["calls"].get(lay, 0) / jobs, "count")
        out[f"{lay}.self_ms"] = (s["self_ns"].get(lay, 0) / 1e6 / jobs, "ms")
        out[f"{lay}.share"] = (s["self_ns"].get(lay, 0) / s["job_ns"] if s["job_ns"] else 0.0, "ratio")
        out[f"{lay}.errors"] = (s["errors"].get(lay, 0) / jobs, "count")
    out["core.read_ms"] = (s["read_ns"] / 1e6 / jobs, "ms")
    out["core.write_ms"] = (s["write_ns"] / 1e6 / jobs, "ms")
    out["core.read_mb_per_s"] = (rate_mb(s["read_bytes"], s["read_ns"]), "MB/s")
    out["core.write_mb_per_s"] = (rate_mb(s["write_bytes"], s["write_ns"]), "MB/s")
    out["transform.tprod_calls"] = (count(*TPROD_KERNELS) / jobs, "count")
    out["transform.tprod_ms"] = (s["tprod_ns"] / 1e6 / jobs, "ms")
    out["transform.tprod_gflops"] = (
        s["tprod_flops"] / s["tprod_ns"] if s["tprod_ns"] else 0.0, "GFLOP/s")
    out["transform.fourier_round_trips"] = (count(*FOURIER_TRANSFORMS) / jobs, "count")
    decomps = count(*DECOMPOSITIONS)
    out["spectral.decompositions"] = (decomps / jobs, "count")
    out["spectral.decomp_per_operand"] = (
        decomps / s["distinct_operands"] if s["distinct_operands"] else 0.0, "ratio")
    out["spectral.hermitian_checks"] = (count("spectral.is_hermitian") / jobs, "count")
    out["spectral.t_function_calls"] = (count("spectral.t_function") / jobs, "count")
    out["geometry.geodesic_calls"] = (count("geometry.geodesic") / jobs, "count")
    return out
