"""Command-line interface: ``tspectral <command> [args] [--flags]``.

Commands operate on tensor files in the JSON schema of
:mod:`tspectral.core`.  Exit codes are a stable contract for scripting:
0 success, 1 property/verification failure, 2 usage or parse errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import __version__
from .core import (
    Tensor3,
    _conj_transpose_data,
    frobenius_norm,
    read_tensor,
    trace,
    write_tensor,
)
from .errors import NumericError, TSpectralError
from .bounds import (
    extremal_ratio_bounds,
    hermitian_trace_bounds,
    ky_fan_sum,
    sandwich_bounds,
    symmetric_relax_bounds,
    symmetrized_bounds,
    vn_trace_bounds,
)
from .geometry import (
    dist_bures_wasserstein,
    dist_frobenius,
    dist_log_euclidean,
    geodesic,
    geodesic_trace_profile,
)
from .spectral import (
    PsdCheck,
    _decompose,
    _gram,
    _record,
    random_psd,
    t_eigenvalues,
)
from .transform import _adjoint, _slice_weights, _stack_trace, _to_stack, tprod

SEED_ENV_VAR = "TSPECTRAL_SEED"

# tr(U*H*U^H) passes a Ky Fan extreme only by eigensolve and trace roundoff, ~n eps.
KYFAN_SWEEP_SLACK = 1e-8


@dataclass
class RunReport:
    """Deterministic record of one CLI invocation (timing aside)."""

    command: str
    inputs: dict = field(default_factory=dict)
    outputs: dict = field(default_factory=dict)
    bound_reports: list = field(default_factory=list)
    timing: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


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

    A real part is correctly rounded, as ``round(x, 4)`` rounds, and a token
    "-0.0000" is printed "0.0000".  An imaginary part is rounded as
    ``np.round(x, 4)`` rounds (it scales by 1e4) and printed with its sign,
    a zero as "+0.0000".
    """
    if vals.dtype.kind == "c":
        imag = (np.round(vals.imag, 4) + 0.0).tolist()
        line = " ".join(map("{:.4f}{:+.4f}j".format, vals.real.tolist(), imag))
    else:
        line = " ".join(map("{:.4f}".format, vals.tolist()))
    return line.replace("-0.0000", "0.0000")


def _default_seed() -> int:
    return int(os.environ.get(SEED_ENV_VAR, "0"))


def _random_hermitian(n: int, p: int, rng: np.random.Generator) -> Tensor3:
    return Tensor3(_hermitian_part(rng.standard_normal((n, n, p))))


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_tprod(args) -> int:
    a = read_tensor(args.a)
    b = read_tensor(args.b)
    t0 = time.perf_counter()
    c = tprod(a, b, path=args.path)
    elapsed = time.perf_counter() - t0
    write_tensor(c, args.out)
    scale = 1.0 / c.p if args.convention == "slice1" else 1.0
    tr = trace(c) * scale if c.m == c.n else None
    if tr is not None:
        print(f"trace = {_fmt(float(np.real(tr)))}")
    print(f"frobenius_norm = {_fmt(frobenius_norm(c))}")
    if args.json:
        rep = RunReport(
            command="tprod",
            inputs={"a": args.a, "b": args.b, "path": args.path},
            outputs={
                "out": args.out,
                "trace": None if tr is None else float(np.real(tr)),
                "frobenius_norm": frobenius_norm(c),
            },
            timing={"tprod_seconds": elapsed},
        )
        print(rep.to_json())
    return 0


def cmd_eig(args) -> int:
    a = read_tensor(args.a)
    spec = t_eigenvalues(a, method=args.method)
    vals = spec.values
    print(_eig_line(vals))
    if args.json:
        out = np.column_stack((vals.real, vals.imag)).tolist()
        rep = RunReport(
            command="eig",
            inputs={"a": args.a, "method": args.method},
            outputs={"eigenvalues": out},
        )
        print(rep.to_json())
    return 0


def cmd_bounds(args) -> int:
    if args.kind in ("symmetrized", "kyfan") and args.b is not None:
        raise ValueError(f"bounds {args.kind} takes one tensor file, got a second: {args.b}")
    a = read_tensor(args.a)
    reports = []
    hard = True
    if args.kind == "symmetrized":
        result = symmetrized_bounds(a)
        print(f"mu_min = {result.mu_min:.4f}  mu_max = {result.mu_max:.4f}")
        print(
            f"rho_tensor = {result.rho_tensor:.4f}  "
            f"rho_symmetrized = {result.rho_symmetrized:.4f}"
        )
        reports = list(result.eigen_reports) + [result.radius_report]
    elif args.kind == "kyfan":
        res = ky_fan_sum(a, args.k, which=args.which)
        print(f"kyfan_{args.which}(k={args.k}) = {_fmt(res.value)}")
        if args.json:
            rep = RunReport(
                command="bounds",
                inputs={"kind": "kyfan", "a": args.a, "k": args.k, "which": args.which},
                outputs={"value": res.value},
            )
            print(rep.to_json())
        return 0
    else:
        if args.b is None:
            raise ValueError(f"bounds {args.kind} requires two tensor files")
        b = read_tensor(args.b)
        fn = {
            "vn": vn_trace_bounds,
            "hermitian": hermitian_trace_bounds,
            "sandwich": sandwich_bounds,
            "ratio": extremal_ratio_bounds,
            "relax": symmetric_relax_bounds,
        }[args.kind]
        reports = [fn(a, b)]
        hard = args.kind != "relax"

    for rep in reports:
        _print_report(rep)
    if args.json:
        run = RunReport(
            command="bounds",
            inputs={"kind": args.kind, "a": args.a, "b": getattr(args, "b", None)},
            bound_reports=[asdict(r) for r in reports],
        )
        print(run.to_json())
    if hard and not all(r.satisfied for r in reports):
        return 1
    return 0


def cmd_dist(args) -> int:
    a = read_tensor(args.a)
    b = read_tensor(args.b)
    if args.metric == "fro":
        d = dist_frobenius(a, b, convention=args.convention)
    elif args.metric == "bw":
        d = dist_bures_wasserstein(a, b, convention=args.convention)
    else:
        d = dist_log_euclidean(a, b, convention=args.convention)
    print(_fmt(d))
    if args.json:
        rep = RunReport(
            command="dist",
            inputs={"metric": args.metric, "a": args.a, "b": args.b,
                    "convention": args.convention},
            outputs={"distance": d},
        )
        print(rep.to_json())
    return 0


def cmd_geodesic(args) -> int:
    a = read_tensor(args.a)
    b = read_tensor(args.b)
    if args.t is not None:
        g = geodesic(a, b, args.t, regularize=args.regularize)
        write_tensor(g, args.out)
        print(f"trace = {_fmt(float(np.real(trace(g))))}")
    else:
        profile = geodesic_trace_profile(a, b, args.samples, regularize=args.regularize)
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write("t,trace\n")
            for t, tr in zip(profile.ts, profile.traces):
                fh.write(f"{t:.17g},{tr:.17g}\n")
        print(f"wrote {args.samples} samples to {args.out}")
    return 0


def cmd_gen(args) -> int:
    seed = args.seed if args.seed is not None else _default_seed()
    if args.kind == "psd":
        t = random_psd(args.n, args.p, seed)
    elif args.kind == "hermitian":
        t = _random_hermitian(args.n, args.p, np.random.default_rng(seed))
    else:
        t = Tensor3(np.random.default_rng(seed).standard_normal((args.n, args.n, args.p)))
    write_tensor(t, args.out)
    print(f"wrote {args.kind} tensor {t.m}x{t.n}x{t.p} (seed {seed}) to {args.out}")
    return 0


def cmd_verify(args) -> int:
    a = read_tensor(args.a)
    checks = args.checks.split(",")
    herm = _record(a).hermitian  # the psd and pd checks share its one eigvalsh pass
    ok = True
    for check in checks:
        if check == "hermitian":
            res = herm
            print(f"hermitian: residual = {_fmt(res.residual)} -> {'ok' if res.ok else 'FAIL'}")
        elif check in ("psd", "pd"):
            if check == "pd" and not herm.ok:  # not PD; report the least real eigenvalue part
                res = PsdCheck(False, float(np.real(t_eigenvalues(a).values).min()))
            else:
                res = _decompose(a, "is_psd", vectors=False)._verdict(definite=check == "pd")
            print(
                f"{check}: min_eigenvalue = {_fmt(res.min_eigenvalue)} -> "
                f"{'ok' if res.ok else 'FAIL'}"
            )
        else:
            raise ValueError(f"unknown check {check!r}; use hermitian, psd, pd")
        ok &= res.ok
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# Property sweeps
# ---------------------------------------------------------------------------


def _gaussian_pair(rng: np.random.Generator, n_end: int, p_end: int):
    """n < n_end, p < p_end and the two n x n x p draws of random_psd or _random_hermitian."""
    n, p = int(rng.integers(1, n_end)), int(rng.integers(1, p_end))
    return (n, p), (rng.standard_normal((n, n, p)), rng.standard_normal((n, n, p)))


def _hermitian_part(m: np.ndarray) -> np.ndarray:
    """(M + M^H) / 2 of tensor data, or of each item of a batch of it."""
    return (m + _conj_transpose_data(m)) * 0.5


def _bound_sweep(n_end: int, p_end: int, bound, first=_gram):
    """A bound's sweep: A = first(M1) and B = M2 * M2^T from a Gaussian pair."""
    return (lambda rng: _gaussian_pair(rng, n_end, p_end),
            lambda m_a, m_b: bound(first(m_a), _gram(m_b)).satisfied)


def _sweep_kyfan(rng: np.random.Generator) -> bool:
    n = int(rng.integers(2, 5))
    p = int(rng.integers(1, 4))
    h = _random_hermitian(n, p, rng)
    k = int(rng.integers(1, n + 1))
    hi = ky_fan_sum(h, k, which="max").value
    lo = ky_fan_sum(h, k, which="min").value
    hi += KYFAN_SWEEP_SLACK * max(1.0, abs(hi))
    lo -= KYFAN_SWEEP_SLACK * max(1.0, abs(lo))
    hs = _to_stack(h, "complex")  # U is complex
    for _ in range(5):
        us = _random_partial_isometry(rng, k, n, p)
        val = float(np.real(_stack_trace(us, hs, _adjoint(us), p=p, kind="complex")))
        if val > hi or val < lo:
            return False
    return True


def _random_partial_isometry(rng: np.random.Generator, k: int, n: int, p: int) -> np.ndarray:
    """Fourier stack (p, k, n) of a random k x n x p partial isometry:
    slice-wise orthonormalized Gaussian rows."""
    g = rng.standard_normal((p, 2, n, k))  # per slice: real parts, then imaginary parts
    q, _ = np.linalg.qr(g[:, 0] + 1j * g[:, 1])
    return _adjoint(q)


def _draw_concavity(rng: np.random.Generator):
    key, (m_x, m_y) = _gaussian_pair(rng, 4, 4)
    return key, (m_x, m_y, rng.uniform(0.1, 0.9))


def _decide_concavity(m_x: np.ndarray, m_y: np.ndarray, a: np.ndarray) -> np.ndarray:
    x, y = _gram(m_x), _gram(m_y)
    w = a[:, None, None, None]
    mixed = _trace_sqrt(w * x + (1.0 - w) * y)
    split = a * _trace_sqrt(x) + (1.0 - a) * _trace_sqrt(y)
    return mixed - split > 1e-12


def _trace_sqrt(x: np.ndarray) -> np.ndarray:
    """tr sqrt(X) per PSD item of a batch, without sqrt(X): the weighted sum of
    sqrt over its Fourier-slice eigenvalues, checked and clamped as in t_function."""
    factors = _decompose(x, "t_function", vectors=False)
    factors._require("sqrt requires positive semidefinite input")
    roots = np.sqrt(np.clip(factors._w, 0.0, None)).sum(axis=-1)
    return roots @ _slice_weights(roots.shape[-1], x.shape[-1])


def _sweep_bw_axioms(rng: np.random.Generator) -> bool:
    n = int(rng.integers(1, 4))
    p = int(rng.integers(1, 4))
    a = random_psd(n, p, rng)
    b = random_psd(n, p, rng)
    c = random_psd(n, p, rng)
    dab = dist_bures_wasserstein(a, b)
    if dab < 0 or abs(dab - dist_bures_wasserstein(b, a)) > 1e-8:
        return False
    if dist_bures_wasserstein(a, a) > 1e-6:
        return False
    dac = dist_bures_wasserstein(a, c)
    dbc = dist_bures_wasserstein(b, c)
    return dac <= dab + dbc + 1e-8


def _sweep_relax(rng: np.random.Generator) -> bool:
    n = int(rng.integers(1, 4))
    p = int(rng.integers(1, 4))
    a = Tensor3(rng.standard_normal((n, n, p)))
    b = _random_hermitian(n, p, rng)
    return symmetric_relax_bounds(a, b).satisfied


def _per_trial(fn):
    """A sweep whose trial ``fn(rng)`` decides as it draws: its verdicts make one group."""
    return lambda rng: (None, (fn(rng),)), lambda verdicts: verdicts


# property -> (draw, decide, hard).  draw(rng) gives a trial's shape key and arrays;
# decide, the verdicts of trials with one key from their stacked arrays; a hard
# property fails the command when a trial fails.
_SWEEPS = {
    "vn-bounds": (*_bound_sweep(5, 5, vn_trace_bounds), True),
    "sandwich": (*_bound_sweep(5, 4, sandwich_bounds), True),
    "ratio": (*_bound_sweep(5, 4, extremal_ratio_bounds, _hermitian_part), True),
    "kyfan": (*_per_trial(_sweep_kyfan), True),
    "concavity": (_draw_concavity, _decide_concavity, True),
    "bw-metric-axioms": (*_per_trial(_sweep_bw_axioms), True),
    "relax-bounds": (*_per_trial(_sweep_relax), False),
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


def cmd_sweep(args) -> int:
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
        a = random_psd(n, p, rng)
        b = random_psd(n, p, rng)
        return lambda: dist_bures_wasserstein(a, b)
    if op == "kyfan":
        h = _random_hermitian(n, p, rng)
        return lambda: ky_fan_sum(h, max(1, n // 2))
    raise ValueError(f"unknown benchmark op {op!r}")


def run_benchmark(op: str, n_grid, p_grid, reps: int, seed: int = 0) -> list[BenchRow]:
    """Median wall-clock seconds per call of ``op`` over a size grid.

    Sub-millisecond operations are batched inside each timed sample so the
    measurement is not dominated by timer and scheduler noise.
    """
    rows = []
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
            rows.append(BenchRow(op, n, p, float(np.median(times))))
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


def cmd_bench(args) -> int:
    n_grid = [int(x) for x in args.n_grid.split(",")]
    p_grid = [int(x) for x in args.p_grid.split(",")]
    seed = args.seed if args.seed is not None else _default_seed()
    rows = run_benchmark(args.op, n_grid, p_grid, args.reps, seed)
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write("op,n,p,median_seconds\n")
            for r in rows:
                fh.write(f"{r.op},{r.n},{r.p},{r.median_seconds:.9e}\n")
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
    sp.add_argument("--op", choices=("tprod-dense", "tprod-fft", "eig", "bw-dist", "kyfan"),
                    required=True)
    sp.add_argument("--n-grid", default="8")
    sp.add_argument("--p-grid", default="8,16,32,64")
    sp.add_argument("--reps", type=int, default=5)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--csv", default=None)
    sp.set_defaults(fn=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 1
    except (TSpectralError, ValueError) as exc:  # usage, parse and precondition errors
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
