"""Runs the benchmark's CLI jobs in a process of their own.

    python3 worker.py --trace 0|1 --spans PATH

``run.py`` starts one worker per run and drives it over standard input and
output, one JSON line each way per job.  Inputs, oracles, output checks and
per-job records all stay in ``run.py``, so the worker's peak resident memory
is that of the interpreter, the library and the largest job alone, however
many jobs the run completes.

A request is ``{"job": i, "argv": [...], "traced": true|false}``; the answer is
what :func:`run_job` returns.  An empty line ends the run: the worker
answers ``{"peak_rss_mb": ..., "trace": ...}``, with the tracer's summary when
started with ``--trace 1`` (and the spans written to ``--spans``), and exits.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


class MissingLibrary(RuntimeError):
    pass


def load_library():
    """Import tspectral from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "tspectral" / "__init__.py").is_file():
        raise MissingLibrary(f"no tspectral sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import tspectral.cli

    if SRC.resolve() not in Path(tspectral.__file__).resolve().parents:
        raise MissingLibrary(f"tspectral was imported from {tspectral.__file__}, not {SRC}")
    return tspectral


def run_job(cli_main, argv: list[str], tracer=None, job: int = 0) -> dict:
    """Run one CLI job; its exit code, wall and CPU seconds and captured output."""
    call = cli_main if tracer is None else functools.partial(tracer.run_job, job, cli_main)
    out, err = io.StringIO(), io.StringIO()
    error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            rc = call(argv)
        except SystemExit as exc:  # argparse rejected the command line
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a crashing job is a failed job; the run goes on
            rc, error = None, f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        c1 = time.process_time()
    return {"rc": rc, "wall": t1 - t0, "cpu": c1 - c0,
            "stdout": out.getvalue(), "stderr": err.getvalue(), "error": error}


def serve(trace: bool, spans: Path, requests, replies) -> None:
    lib = load_library()
    tracer = None
    if trace:
        import tracing

        tracer = tracing.Tracer(lib.__name__)
    installed = False
    while line := requests.readline().strip():
        req = json.loads(line)
        if tracer is not None and req["traced"] != installed:
            (tracer.install if req["traced"] else tracer.uninstall)()
            installed = req["traced"]
        reply = run_job(lib.cli.main, req["argv"], tracer if installed else None, req["job"])
        replies.write(json.dumps(reply) + "\n")
        replies.flush()
    if installed:
        tracer.uninstall()
    end = {"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "trace": None}
    if tracer is not None:
        end["trace"] = tracer.summary()
        tracer.write(spans)
    replies.write(json.dumps(end) + "\n")
    replies.flush()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spans", type=Path, required=True)
    args = parser.parse_args()
    serve(bool(args.trace), args.spans, sys.stdin, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
