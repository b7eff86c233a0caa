"""chpdispatch benchmark: run one workload, print its metrics.

Usage, from the repository root:

    python3 bench/run.py --workload dispatch-t48 --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 1

Each workload runs in its own worker process (``bench/worker.py``) against
the sources in ``src/``. Human-readable lines go first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: with ``--trace 0`` the end-to-end metrics of
``BENCHMARK.json``, with ``--trace 1`` its per-layer metrics. Outputs, the
full result and the environment it was measured in are kept under
``.bench_work/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
IMPORT_PROBES = 5
WORKER_TIMEOUT_S = 170.0
# median wall time per op label, printed under these names
OP_METRIC = {"dispatch": "dispatch_s", "compare": "compare_s"}


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _import_probe(env: dict) -> float:
    """Import time of chpdispatch in a fresh interpreter."""
    code = (
        "import time; t = time.perf_counter(); import chpdispatch.cli; "
        "print(time.perf_counter() - t)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=ROOT, capture_output=True, text=True,
        timeout=60, check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    env = _env()
    work_dir = os.path.join(ROOT, ".bench_work", name)
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    probes = [_import_probe(env) for _ in range(IMPORT_PROBES)]
    result_path = os.path.join(work_dir, "result.json")
    subprocess.run(
        [
            sys.executable, os.path.join(BENCH_DIR, "worker.py"),
            "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--work-dir", work_dir, "--result", result_path,
        ],
        env=env, cwd=ROOT, stdout=sys.stderr, timeout=WORKER_TIMEOUT_S, check=True,
    )
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    result["import_probes_s"] = probes
    result["summary"] = summarize(result)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    return result


def summarize(result: dict) -> dict:
    """End-to-end and per-layer metrics from the worker's raw result."""
    untraced = [r for r in result["rounds"] if not r["traced"]]
    imports = [result["import_s"], *result["import_probes_s"]]
    attempted = sum(len(r["times"]) for r in result["rounds"])
    failed = sum(len(r["failures"]) for r in result["rounds"])
    per_op = {}
    for r in untraced:
        for label, t in r["times"].items():
            per_op.setdefault(label, []).append(t)
    e2e = {
        "round_s": statistics.median(sum(r["times"].values()) for r in untraced),
        "setup_s": statistics.median(imports) + statistics.median(result["setup_inputs_s"]),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    layer = {}
    if result["traced"]:
        for key in result["traced"][0]:
            layer[key] = statistics.median(m[key] for m in result["traced"])
        traced_op = statistics.median(sum(r["times"].values()) for r in result["rounds"] if r["traced"])
        # the first round pays page faults for memory that later rounds
        # reuse; all traced rounds come after it
        warm = untraced[1:] or untraced
        untraced_op = statistics.median(sum(r["times"].values()) for r in warm)
        layer["trace.untraced_op_s"] = untraced_op
        layer["trace.overhead_s"] = traced_op - untraced_op
    return {
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "per_op_s": {k: statistics.median(v) for k, v in per_op.items()},
        "end_to_end": e2e,
        "per_layer": layer,
    }


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description="chpdispatch benchmark")
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "chpdispatch", "cli.py")):
        print(f"error: no chpdispatch sources under {ROOT}/src", file=sys.stderr)
        return 2
    spec = _spec()
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    names = tuple(WORKLOADS) if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics = {}
    for name in names:
        t0 = time.perf_counter()
        result = run_workload(name, args.seed, args.seconds, args.trace)
        s = result["summary"]
        attempted += s["attempted"]
        failed += s["failed"]
        values = s["per_layer"] if args.trace else s["end_to_end"]
        print(f"== {name} seed {args.seed} trace {args.trace} ({time.perf_counter() - t0:.1f} s)")
        print("environment " + json.dumps(result["environment"], sort_keys=True))
        print(f"  ops attempted {s['attempted']}, failed {s['failed']}, error_rate {s['error_rate']:g}")
        for label, t in s["per_op_s"].items():
            print(f"  {OP_METRIC.get(label, f'tighten_{label}_s'):<34}{t:>14.6g} s")
        for m in wanted:
            print(f"  {m['name']:<34}{values[m['name']]:>14.6g} {m['unit']}")
        prefix = f"{name}/" if len(names) > 1 else ""
        for m in wanted:
            metrics[prefix + m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
