"""One workload in its own process: set up, run rounds for a fixed time, check.

Started by ``run.py`` with ``src`` on ``PYTHONPATH``; writes its result as
JSON to the ``--result`` file. Untraced rounds give the end-to-end numbers.
With ``--trace 1`` rounds alternate untraced and traced, so the per-layer
numbers and the tracing overhead come from the same process.
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()
import chpdispatch.cli  # noqa: E402  (the import is part of the measured set-up)

IMPORT_S = time.perf_counter() - _T_START

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

from tracing import Instrumented, Tracer, op_metrics  # noqa: E402
from workloads import WORKLOADS, Workload, expected_values  # noqa: E402

SETUP_REPEATS = 3
MIN_ROUNDS = 2


def environment() -> dict:
    """Versions, BLAS and CPU count that the numbers were measured with."""
    import numpy
    import scipy
    import yaml

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "pyyaml": yaml.__version__,
        "yaml_csafeloader": hasattr(yaml, "CSafeLoader"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, read from the library."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _dir_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(root, f)) for root, _, files in os.walk(path) for f in files
    )


def run_round(workload: Workload, ops, work_dir: str, expected: dict, run, tracer=None) -> dict:
    """Run one round of ops and check them; outputs go to fresh directories.

    Returns the per-op wall times, the failures per op label and the bytes
    the ops wrote. ``run`` is ``chpdispatch.cli.run`` (tests pass a fake).
    """
    outputs = {}
    for op in ops:
        out = os.path.join(work_dir, "out", op.label)
        shutil.rmtree(out, ignore_errors=True)
        os.makedirs(out)
        outputs[op.label] = out
    times, failures = {}, {op.label: [] for op in ops}
    with open(os.devnull, "w", encoding="utf-8") as devnull:
        for op in ops:
            argv = [*op.argv, "--out", outputs[op.label]]
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(devnull):
                    if tracer is None:
                        code = run(argv)
                    else:
                        span = tracer.open("cli.run", "cli")
                        try:
                            code = run(argv)
                        finally:
                            tracer.close(span)
            except Exception:  # an op that raises is a failed op, not a crashed benchmark
                traceback.print_exc()
                code = "exception"
            times[op.label] = time.perf_counter() - t0
            if code != 0:
                failures[op.label].append(f"exit code {code}")
    if any(failures.values()):
        # the checks compare the ops of a round, so none of them can pass
        for label, msgs in failures.items():
            if not msgs:
                msgs.append("not checked: another op of the round failed")
    else:
        try:
            for label, msgs in workload.check(outputs, expected).items():
                failures[label].extend(msgs)
        except (OSError, KeyError, ValueError, TypeError) as exc:
            for label in failures:
                failures[label].append(f"output check failed: {exc!r}")
    return {
        "times": times,
        "failures": {k: v for k, v in failures.items() if v},
        "bytes_written": sum(_dir_bytes(d) for d in outputs.values()),
    }


def measure(workload: Workload, seed: int, seconds: float, trace: bool, work_dir: str) -> dict:
    run = chpdispatch.cli.run
    expected = expected_values()
    input_dir = os.path.join(work_dir, "inputs")
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with open(os.devnull, "w", encoding="utf-8") as devnull, contextlib.redirect_stdout(devnull):
            workload.prepare(run, input_dir)
        ops = workload.ops(seed, input_dir)
        setup_times.append(time.perf_counter() - t0)

    rounds, traced = [], []
    start = time.perf_counter()
    while True:
        tracer = Tracer() if trace and len(rounds) % 2 == 1 else None
        if tracer is None:
            result = run_round(workload, ops, work_dir, expected, run)
        else:
            with Instrumented(tracer):
                result = run_round(workload, ops, work_dir, expected, run, tracer)
        result["traced"] = tracer is not None
        rounds.append(result)
        for label, msgs in result["failures"].items():
            print(f"round {len(rounds)} op {label} FAILED: {'; '.join(msgs)}", file=sys.stderr)
        if tracer is not None:
            op_s = sum(result["times"].values())
            traced.append(op_metrics(tracer.spans, op_s, result["bytes_written"]))
        elapsed = time.perf_counter() - start
        # start another round only if it is expected to end within the time,
        # but run two at least: a traced run needs an untraced and a traced
        # one, and the first round in a process pays page faults for memory
        # that later rounds reuse
        if elapsed + elapsed / len(rounds) > seconds * 1.1 and len(rounds) >= MIN_ROUNDS:
            break

    return {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "import_s": IMPORT_S,
        "setup_inputs_s": setup_times,
        "rounds": rounds,
        "traced": traced,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "environment": environment(),
    }


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--work-dir", required=True)
    p.add_argument("--result", required=True)
    args = p.parse_args(argv)
    result = measure(
        WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), args.work_dir
    )
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
