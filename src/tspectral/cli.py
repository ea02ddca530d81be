"""Command-line interface: ``tspectral <command> [args] [--flags]``.

Commands operate on tensor files in the JSON schema of
:mod:`tspectral.core`.  Exit codes are a stable contract for scripting:
0 success, 1 property/verification failure, 2 usage or parse errors.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import functools
import json
import os
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .core import (
    Tensor3,
    _hermitian_part,
    frobenius_norm,
    identity,
    read_tensor,
    trace,
    write_tensor,
)
from .errors import NumericError, TSpectralError
from .bounds import (
    _ky_fan_factors,
    _ky_fan_values,
    extremal_ratio_bounds,
    hermitian_trace_bounds,
    ky_fan_sum,
    sandwich_bounds,
    symmetric_relax_bounds,
    symmetrized_bounds,
    vn_trace_bounds,
)
from .geometry import (
    _bures_wasserstein,
    _convention_scale,
    dist_bures_wasserstein,
    dist_frobenius,
    dist_log_euclidean,
    geodesic,
    geodesic_trace_profile,
)
from .spectral import (
    PsdCheck,
    _decompose,
    _decompose_pair,
    _gram,
    is_hermitian,
    random_psd,
    t_eigenvalues,
)
from .transform import _adjoint, _slice_sum, _stack_trace, tprod

SEED_ENV_VAR = "TSPECTRAL_SEED"

# tr(U*H*U^H) passes a Ky Fan extreme only by eigensolve and trace roundoff, ~n eps.
KYFAN_SWEEP_SLACK = 1e-8
# d(A, B) and d(B, A) run the same kernels on swapped operands, so they differ by roundoff.
BW_SYMMETRY_SLACK = 1e-8
# d(A, A) = 0 exactly; its sum of squares left at most 4.0e-15 over 3,000 sweep draws.
BW_SELF_DISTANCE_SLACK = 1e-8
# d(A, C) passes d(A, B) + d(B, C) only by the roundoff of the three distances.
BW_TRIANGLE_SLACK = 1e-8
# The concavity gap of a random pair must clear the ~1e-13 roundoff of its trace sums.
CONCAVITY_MARGIN = 1e-12


@dataclass
class RunReport:
    """Deterministic record of one CLI invocation; ``timing`` is kept empty for stage times.

    ``main`` fills ``command`` and ``inputs`` from the parsed options and a command
    adds what it computes.  An output may be a zero-argument callable: ``to_json``
    calls it, so a run without ``--json`` does no JSON-only work.
    """

    command: str
    inputs: dict = field(default_factory=dict)
    outputs: dict = field(default_factory=dict)
    bound_reports: list = field(default_factory=list)
    timing: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, default=lambda lazy: lazy())


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _print_report(rep) -> None:
    status = "ok" if rep.satisfied else "VIOLATED"
    print(
        f"{rep.context}: {rep.lower:.4f} <= {rep.value:.4f} <= {rep.upper:.4f} "
        f"[slack {rep.slack_lower:.4f}/{rep.slack_upper:.4f}] {status}"
    )


def _eig_line(vals: np.ndarray) -> str:
    """Eigenvalues to 4 decimals, space-separated, with no negative zero.

    Both parts are correctly rounded, as ``round(x, 4)`` rounds.  A real
    part "-0.0000" is printed "0.0000"; an imaginary part is printed with its
    sign, a zero as "+0.0000".
    """
    if vals.dtype.kind == "c":
        line = " ".join(map("{:.4f}{:+.4f}j".format, vals.real.tolist(), vals.imag.tolist()))
        line = line.replace("-0.0000j", "+0.0000j")
    else:
        line = " ".join(map("{:.4f}".format, vals.tolist()))
    return line.replace("-0.0000", "0.0000")


@contextlib.contextmanager
def _output():
    """An output path that cannot be written is a usage error (exit 2), not a traceback."""
    try:
        yield
    except OSError as exc:
        raise ValueError(str(exc)) from exc


def _default_seed() -> int:
    return int(os.environ.get(SEED_ENV_VAR, "0"))


def _random_hermitian(n: int, p: int, rng: np.random.Generator) -> Tensor3:
    return Tensor3(_hermitian_part(rng.standard_normal((n, n, p))))


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_tprod(args, report) -> int:
    a = read_tensor(args.a)
    b = read_tensor(args.b)
    c = tprod(a, b, path=args.path)
    with _output():
        write_tensor(c, args.out)
    scale = _convention_scale(args.convention, c.p)
    tr = float(np.real(trace(c) * scale)) if c.m == c.n else None
    if tr is not None:
        print(f"trace = {_fmt(tr)}")
    norm = frobenius_norm(c)
    print(f"frobenius_norm = {_fmt(norm)}")
    report.outputs.update(out=args.out, trace=tr, frobenius_norm=norm)
    return 0


def cmd_eig(args, report) -> int:
    vals = t_eigenvalues(read_tensor(args.a), method=args.method).values
    print(_eig_line(vals))
    report.outputs["eigenvalues"] = lambda: np.column_stack((vals.real, vals.imag)).tolist()
    return 0


_BOUNDS = {"vn": vn_trace_bounds, "hermitian": hermitian_trace_bounds, "sandwich": sandwich_bounds,
           "ratio": extremal_ratio_bounds, "relax": symmetric_relax_bounds}


def cmd_bounds(args, report) -> int:
    if args.kind in ("symmetrized", "kyfan") and args.b is not None:
        raise ValueError(f"bounds {args.kind} takes one tensor file, got a second: {args.b}")
    if args.kind in _BOUNDS and args.b is None:
        raise ValueError(f"bounds {args.kind} requires two tensor files")
    a = read_tensor(args.a)
    if args.kind == "kyfan":
        top, bottom = _ky_fan_values(_ky_fan_factors(a, args.k, vectors=False), args.k)
        value = float(top if args.which == "max" else bottom)
        print(f"kyfan_{args.which}(k={args.k}) = {_fmt(value)}")
        report.outputs["value"] = value
        return 0
    if args.kind == "symmetrized":
        result = symmetrized_bounds(a)
        print(f"mu_min = {result.mu_min:.4f}  mu_max = {result.mu_max:.4f}")
        print(
            f"rho_tensor = {result.rho_tensor:.4f}  "
            f"rho_symmetrized = {result.rho_symmetrized:.4f}"
        )
        reports = list(result.eigen_reports) + [result.radius_report]
    else:
        reports = [_BOUNDS[args.kind](a, read_tensor(args.b))]
    for rep in reports:
        _print_report(rep)
    report.bound_reports = reports
    return 1 if args.kind != "relax" and not all(r.satisfied for r in reports) else 0


_METRICS = {"fro": dist_frobenius, "bw": dist_bures_wasserstein, "logeuclid": dist_log_euclidean}


def cmd_dist(args, report) -> int:
    d = _METRICS[args.metric](read_tensor(args.a), read_tensor(args.b), convention=args.convention)
    print(_fmt(d))
    report.outputs["distance"] = d
    return 0


def cmd_geodesic(args, report) -> int:
    a = read_tensor(args.a)
    b = read_tensor(args.b)
    scale = _convention_scale(args.convention, a.p)
    if args.t is not None:
        g = geodesic(a, b, args.t, regularize=args.regularize)
        with _output():
            write_tensor(g, args.out)
        print(f"trace = {_fmt(float(np.real(trace(g) * scale)))}")
    else:
        profile = geodesic_trace_profile(a, b, args.samples, regularize=args.regularize)
        with _output(), open(args.out, "w", encoding="utf-8") as fh:
            fh.write("t,trace\n")
            for t, tr in zip(profile.ts, profile.traces * scale):
                fh.write(f"{t:.17g},{tr:.17g}\n")
        print(f"wrote {args.samples} samples to {args.out}")
    return 0


def cmd_gen(args, report) -> int:
    seed = args.seed if args.seed is not None else _default_seed()
    if args.kind == "psd":
        t = random_psd(args.n, args.p, seed)
    elif args.kind == "hermitian":
        t = _random_hermitian(args.n, args.p, np.random.default_rng(seed))
    else:
        t = Tensor3(np.random.default_rng(seed).standard_normal((args.n, args.n, args.p)))
    with _output():
        write_tensor(t, args.out)
    print(f"wrote {args.kind} tensor {t.m}x{t.n}x{t.p} (seed {seed}) to {args.out}")
    return 0


_CHECKS = ("hermitian", "psd", "pd")


def cmd_verify(args, report) -> int:
    checks = args.checks.split(",")
    unknown = [check for check in checks if check not in _CHECKS]
    if unknown:
        raise ValueError(f"unknown check {unknown[0]!r}; use {', '.join(_CHECKS)}")
    a = read_tensor(args.a)
    herm = is_hermitian(a)  # the one check; psd and pd share one values-only decomposition
    factors = None
    ok = True
    for check in checks:
        if check == "hermitian":
            res = herm
            print(f"hermitian: residual = {_fmt(res.residual)} -> {'ok' if res.ok else 'FAIL'}")
        else:  # psd or pd
            if check == "pd" and not herm.ok:  # not PD; report the least real eigenvalue part
                res = PsdCheck(False, float(t_eigenvalues(a).min.real))
            else:
                factors = factors or _decompose(a, "is_psd", vectors=False, check=herm)
                res = factors._verdict(definite=check == "pd")
            print(
                f"{check}: min_eigenvalue = {_fmt(res.min_eigenvalue)} -> "
                f"{'ok' if res.ok else 'FAIL'}"
            )
        ok &= res.ok
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# Property sweeps
# ---------------------------------------------------------------------------


def _gaussians(rng: np.random.Generator, n_end: int, p_end: int, count: int = 2):
    """n < n_end, p < p_end and ``count`` n x n x p Gaussian draws, each the one
    of a random_psd or _random_hermitian call."""
    n, p = int(rng.integers(1, n_end)), int(rng.integers(1, p_end))
    return (n, p), tuple(rng.standard_normal((count, n, n, p)))


def _bound_sweep(n_end: int, p_end: int, bound, first=_gram, second=_gram):
    """A bound's sweep: A = first(M1) and B = second(M2) from two Gaussian draws."""
    return (lambda rng: _gaussians(rng, n_end, p_end),
            lambda m_a, m_b: bound(first(m_a), second(m_b)).satisfied)


def _draw_kyfan(rng: np.random.Generator):
    """H's Gaussian draw, then the (p, 2, n, k) Gaussian draws, real parts then
    imaginary ones, of five random k x n x p partial isometries' Fourier stacks."""
    n, p = int(rng.integers(2, 5)), int(rng.integers(1, 4))
    m_h = rng.standard_normal((n, n, p))
    k = int(rng.integers(1, n + 1))
    return (n, p, k), (m_h, rng.standard_normal((5, p, 2, n, k)))


def _decide_kyfan(m_h: np.ndarray, g: np.ndarray) -> np.ndarray:
    """tr(U*H*U^H) lies between H's Ky Fan extremes, for H = (M + M^H)/2 and each of
    the five U whose Fourier slices are Q^H, Q orthonormalizing a (p, 2, n, k) draw.
    The extremes come from H's eigenvalues alone: no optimizer U is built."""
    h = _hermitian_part(m_h)
    k, p = g.shape[-1], m_h.shape[-1]
    factors = _decompose(h, "ky_fan_sum", vectors=False, kind="complex")  # U is complex
    hi, lo = _ky_fan_values(factors, k)
    hi = hi + KYFAN_SWEEP_SLACK * np.maximum(1.0, np.abs(hi))
    lo = lo - KYFAN_SWEEP_SLACK * np.maximum(1.0, np.abs(lo))
    q, _ = np.linalg.qr(g[..., 0, :, :] + 1j * g[..., 1, :, :])
    us = _adjoint(q)  # (..., 5, p, k, n)
    vals = _stack_trace(us, factors._stack[:, None], _adjoint(us), p=p)
    return ((vals <= hi[:, None]) & (vals >= lo[:, None])).all(axis=1)


def _draw_concavity(rng: np.random.Generator):
    key, (m_x, m_y) = _gaussians(rng, 4, 4)
    return key, (m_x, m_y, rng.uniform(0.1, 0.9))


def _decide_concavity(m_x: np.ndarray, m_y: np.ndarray, a: np.ndarray) -> np.ndarray:
    x, y = _gram(m_x), _gram(m_y)
    w = a[:, None, None, None]
    mixed = _trace_sqrt(w * x + (1.0 - w) * y)
    split = a * _trace_sqrt(x) + (1.0 - a) * _trace_sqrt(y)
    return mixed - split > CONCAVITY_MARGIN


def _trace_sqrt(x: np.ndarray) -> np.ndarray:
    """tr sqrt(X) per PSD item of a batch, without sqrt(X): the weighted sum of
    sqrt over its Fourier-slice eigenvalues, checked and clamped as in t_function."""
    factors = _decompose(x, "t_function", vectors=False)
    roots = np.sqrt(factors._require("sqrt requires positive semidefinite input")).sum(axis=-1)
    return _slice_sum(roots, x.shape[-1])


def _decide_bw_axioms(*gaussians: np.ndarray) -> np.ndarray:
    """d = dist_bures_wasserstein is a metric on A, B, C = M * M^T: d(A, B) >= 0 and
    symmetric, d(A, A) = 0 and d(A, C) <= d(A, B) + d(B, C).  A, B and C are checked
    and factored once each: A and B as d(A, B) checks them, C as d(C, C) does."""
    a, b, c = (_gram(m) for m in gaussians)
    need = ("PSD", "PSD")
    roots = [*_decompose_pair(a, b, "dist_bures_wasserstein", need, roots="AB"),
             _decompose_pair(c, c, "dist_bures_wasserstein", need, roots="AB")[0]]

    def dist(x: int, y: int) -> np.ndarray:
        return _bures_wasserstein(roots[x], roots[y], a.shape[-1])

    dab = dist(0, 1)
    return (
        (dab >= 0)
        & (np.abs(dab - dist(1, 0)) <= BW_SYMMETRY_SLACK)
        & (dist(0, 0) <= BW_SELF_DISTANCE_SLACK)
        & (dist(0, 2) <= dab + dist(1, 2) + BW_TRIANGLE_SLACK)
    )


# property -> (draw, decide, hard).  draw(rng) gives a trial's shape key and arrays;
# decide, the verdicts of trials with one key from their stacked arrays; a hard
# property fails the command when a trial fails.
_SWEEPS = {
    "vn-bounds": (*_bound_sweep(5, 5, vn_trace_bounds), True),
    "sandwich": (*_bound_sweep(5, 4, sandwich_bounds), True),
    "ratio": (*_bound_sweep(5, 4, extremal_ratio_bounds, _hermitian_part), True),
    "kyfan": (_draw_kyfan, _decide_kyfan, True),
    "concavity": (_draw_concavity, _decide_concavity, True),
    "bw-metric-axioms": (lambda rng: _gaussians(rng, 4, 4, 3), _decide_bw_axioms, True),
    "relax-bounds": (*_bound_sweep(4, 4, symmetric_relax_bounds, np.asarray, _hermitian_part),
                     False),
}


def _stacked(draws: list) -> list[np.ndarray]:
    return [np.stack(arrays) for arrays in zip(*draws)]


def _decide_all(decide, draws: list) -> np.ndarray:
    """One verdict per trial, one ``decide`` call per group of equal keys.  If a
    group raises, the trials are decided alone in order and the first error raised."""
    groups = {}
    for trial, (key, _) in enumerate(draws):
        groups.setdefault(key, []).append(trial)
    passed = np.empty(len(draws), dtype=bool)
    try:
        for trials in groups.values():
            passed[trials] = decide(*_stacked([draws[t][1] for t in trials]))
    except Exception:
        for _, arrays in draws:
            decide(*_stacked([arrays]))
        raise
    return passed


def sweep_trial(prop: str, seed: int, trial: int) -> bool:
    """Replay trial ``trial`` of ``tspectral sweep <prop> --seed <seed>`` as a group of one."""
    draw, decide, _ = _SWEEPS[prop]
    return bool(decide(*_stacked([draw(np.random.default_rng((seed, trial)))[1]]))[0])


def cmd_sweep(args, report) -> int:
    if args.property not in _SWEEPS:
        raise ValueError(
            f"unknown property {args.property!r}; choose from {sorted(_SWEEPS)}"
        )
    if args.trials < 1:
        raise ValueError(f"--trials must be >= 1, got {args.trials}")
    draw, decide, hard = _SWEEPS[args.property]
    seed = args.seed if args.seed is not None else _default_seed()
    draws = [draw(np.random.default_rng((seed, trial))) for trial in range(args.trials)]
    passed = _decide_all(decide, draws)
    for trial in np.flatnonzero(~passed):
        print(f"sweep {args.property}: seed {seed} trial {trial} failed", file=sys.stderr)
    print(f"{args.property}: {int(passed.sum())}/{args.trials} pass")
    if hard and not passed.all():
        return 1
    return 0


# ---------------------------------------------------------------------------
# Benchmark harness
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BenchRow:
    op: str
    n: int
    p: int
    median_seconds: float
    blas_threads: int | None  # None: timed with the caller's OpenBLAS threads, not pinned


def _bench_callable(op: str, n: int, p: int, seed: int):
    rng = np.random.default_rng((seed, n, p))
    if op in ("tprod-dense", "tprod-fft"):
        a = Tensor3(rng.standard_normal((n, n, p)))
        b = Tensor3(rng.standard_normal((n, n, p)))
        path = "dense" if op == "tprod-dense" else "fft"
        return lambda: tprod(a, b, path=path)
    if op == "eig":
        a = Tensor3(rng.standard_normal((n, n, p)))
        return lambda: t_eigenvalues(a, method="bcirc")
    if op == "bw-dist":
        a, b = random_psd(n, p, rng), random_psd(n, p, rng)
        return lambda: dist_bures_wasserstein(a, b)
    if op == "kyfan":
        h = _random_hermitian(n, p, rng)
        return lambda: ky_fan_sum(h, max(1, n // 2))
    if op == "geodesic":
        a, b = random_psd(n, p, rng) + identity(n, p), random_psd(n, p, rng)
        return lambda: geodesic_trace_profile(a, b, 11)
    raise ValueError(f"unknown benchmark op {op!r}")


@functools.cache
def _openblas_threads():
    """The thread-count getter and setter of numpy's bundled OpenBLAS, or None
    when that library or its symbols cannot be found."""
    for path in (Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas64_*.so"):
        try:
            lib = ctypes.CDLL(str(path))  # the copy numpy already loaded
            get, put = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        put.argtypes, put.restype = [ctypes.c_int], None
        return get, put
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Hold OpenBLAS at one thread and restore the caller's count on exit; yields
    the count held, or None when it cannot be set."""
    threads = _openblas_threads()
    if threads is None:
        yield None
        return
    get, put = threads
    old = get()
    put(1)
    try:
        yield 1
    finally:
        put(old)


def run_benchmark(op: str, n_grid, p_grid, reps: int, seed: int = 0) -> list[BenchRow]:
    """Median wall-clock seconds per call of ``op`` over a size grid.

    Sub-millisecond operations are batched inside each timed sample so the
    measurement is not dominated by timer and scheduler noise.  OpenBLAS is held
    at one thread: a fresh process with more can run a dense product at a flat
    ~8 ms per call for its first second, which flattens a fitted exponent.
    """
    if reps < 1:
        raise ValueError(f"--reps must be >= 1, got {reps}")
    rows = []
    with _one_blas_thread() as blas_threads:
        for n in n_grid:
            for p in p_grid:
                fn = _bench_callable(op, n, p, seed)
                fn()  # warm-up, excluded from timing
                t0 = time.perf_counter()
                fn()
                single = time.perf_counter() - t0
                batch = max(1, int(np.ceil(1e-3 / max(single, 1e-9))))
                times = []
                for _ in range(reps):
                    t0 = time.perf_counter()
                    for _ in range(batch):
                        fn()
                    times.append((time.perf_counter() - t0) / batch)
                rows.append(BenchRow(op, n, p, float(np.median(times)), blas_threads))
    return rows


def fit_exponents(rows) -> tuple[float | None, float | None]:
    """Least-squares exponents of runtime vs n and vs p on log-log axes.

    Fits log t = c + alpha log n + beta log p; an exponent is None when the
    corresponding dimension does not vary in the grid.
    """
    sizes = [np.array([getattr(r, dim) for r in rows], dtype=float) for dim in ("n", "p")]
    varies = [len(set(x)) > 1 for x in sizes]
    if not any(varies):
        return None, None
    design = np.column_stack([np.ones(len(rows))] + [np.log(x) for x, v in zip(sizes, varies) if v])
    ts = np.array([max(r.median_seconds, 1e-9) for r in rows])
    coef = iter(np.linalg.lstsq(design, np.log(ts), rcond=None)[0][1:])
    return tuple(float(next(coef)) if v else None for v in varies)


def cmd_bench(args, report) -> int:
    n_grid = [int(x) for x in args.n_grid.split(",")]
    p_grid = [int(x) for x in args.p_grid.split(",")]
    seed = args.seed if args.seed is not None else _default_seed()
    rows = run_benchmark(args.op, n_grid, p_grid, args.reps, seed)
    if args.csv:
        with _output(), open(args.csv, "w", encoding="utf-8") as fh:
            fh.write("op,n,p,median_seconds\n")
            for r in rows:
                fh.write(f"{r.op},{r.n},{r.p},{r.median_seconds:.9e}\n")
    print(f"blas threads: {rows[0].blas_threads or 'not pinned'}")
    for r in rows:
        print(f"{r.op} n={r.n} p={r.p}: {r.median_seconds:.3e} s")
    alpha, beta = fit_exponents(rows)
    if alpha is not None:
        print(f"fitted n-exponent: {alpha:.3f}")
    if beta is not None:
        print(f"fitted p-exponent: {beta:.3f}")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: each ``parse_args`` call
    returns a fresh namespace, so no state carries from one call to the next."""
    parser = argparse.ArgumentParser(
        prog="tspectral",
        description="Spectral analysis and trace geometry of third-order tensors",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument(
        "--convention",
        choices=("bcirc", "slice1"),
        default="bcirc",
        help="tensor trace convention used by trace-derived outputs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("tprod", help="t-product of two tensor files")
    sp.add_argument("a")
    sp.add_argument("b")
    sp.add_argument("-o", "--out", required=True)
    sp.add_argument("--path", choices=("dense", "fft"), default="fft")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(fn=cmd_tprod)

    sp = sub.add_parser("eig", help="tensor eigenvalues")
    sp.add_argument("a")
    sp.add_argument("--method", choices=("fourier", "bcirc"), default="fourier")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(fn=cmd_eig)

    sp = sub.add_parser("bounds", help="verify a trace/eigenvalue bound")
    sp.add_argument(
        "kind",
        choices=("symmetrized", "vn", "hermitian", "sandwich", "ratio", "relax", "kyfan"),
    )
    sp.add_argument("a")
    sp.add_argument("b", nargs="?")
    sp.add_argument("--k", type=int, default=1, help="subspace size for kyfan")
    sp.add_argument("--which", choices=("max", "min"), default="max")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(fn=cmd_bounds)

    sp = sub.add_parser("dist", help="distance between two tensors")
    sp.add_argument("--metric", choices=("fro", "bw", "logeuclid"), required=True)
    sp.add_argument("a")
    sp.add_argument("b")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(fn=cmd_dist)

    sp = sub.add_parser("geodesic", help="geodesic point or trace profile")
    sp.add_argument("a")
    sp.add_argument("b")
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--t", type=float)
    group.add_argument("--samples", type=int)
    sp.add_argument("-o", "--out", required=True)
    sp.add_argument("--regularize", type=float, default=0.0)
    sp.set_defaults(fn=cmd_geodesic)

    sp = sub.add_parser("gen", help="generate a deterministic tensor file")
    sp.add_argument("kind", choices=("psd", "hermitian", "random"))
    sp.add_argument("-n", type=int, required=True)
    sp.add_argument("-p", type=int, required=True)
    sp.add_argument("--seed", type=int, default=None,
                    help=f"default from ${SEED_ENV_VAR} or 0")
    sp.add_argument("-o", "--out", required=True)
    sp.set_defaults(fn=cmd_gen)

    sp = sub.add_parser("verify", help="check structural properties of a tensor file")
    sp.add_argument("a")
    sp.add_argument("--checks", default="hermitian,psd")
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("sweep", help="randomized property sweep")
    sp.add_argument("property", help=f"one of {sorted(_SWEEPS)}")
    sp.add_argument("--trials", type=int, default=100)
    sp.add_argument("--seed", type=int, default=None)
    sp.set_defaults(fn=cmd_sweep)

    sp = sub.add_parser("bench", help="runtime scaling benchmark")
    sp.add_argument("--op", required=True,
                    choices=("tprod-dense", "tprod-fft", "eig", "bw-dist", "kyfan", "geodesic"))
    sp.add_argument("--n-grid", default="8")
    sp.add_argument("--p-grid", default="8,16,32,64")
    sp.add_argument("--reps", type=int, default=5)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--csv", default=None)
    sp.set_defaults(fn=cmd_bench)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    inputs = {k: v for k, v in vars(args).items() if k not in ("fn", "json", "command")}
    report = RunReport(args.command, inputs)
    try:
        code = args.fn(args, report)
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 1
    except (TSpectralError, ValueError) as exc:  # usage, parse, precondition, output path
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if getattr(args, "json", False):
        print(report.to_json())
    return code


if __name__ == "__main__":
    sys.exit(main())
