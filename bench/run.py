"""skewmon benchmark: one workload, timed end to end or traced per layer.

    python3 bench/run.py --workload growth --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; skewmon is imported from its ``src``.  Each
measurement runs in a fresh worker process (``worker.py``), one at a time,
so set-up time and peak memory belong to this workload alone and no cache
survives from one workload to the next.

``--trace 0`` reports the end-to-end metrics:

* ``run_s``: median wall seconds of one full pass (every scenario of the
  workload through ``run_scenario`` and ``dump_json``), over the passes that
  fit in ``--seconds``, each scaled to the reference machine speed of
  ``reference.py``;
* ``setup_s``: median over ``SETUP_PROBES`` fresh interpreters of the time to
  import skewmon and build every algebra the workload declares, each scaled
  the same way;
* ``peak_rss_mb``: peak resident memory of the measuring worker;
* ``pass_ratio``: operations (jobs) that met their exact expectation, over
  operations attempted -- one minus the failure ratio, which the result line
  also gives as ``failed`` and ``attempted``.

``--trace 1`` reports the per-layer metrics of ``tracing.METRICS`` from one
traced pass, after ``--seconds`` of untraced passes on the same input.

The last line of standard output is the JSON result.  Exit code 2 means the
benchmark could not run (no skewmon sources, a worker crashed or ran out of
time); a run whose outputs are wrong still exits 0, with ``correct`` false.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"

sys.path.insert(0, str(BENCH))
import workloads  # noqa: E402

SETUP_PROBES = 7
#: Hard limit for one invocation; a worker still running then is killed.
TIME_LIMIT_S = 170.0


class BenchError(Exception):
    """The benchmark could not produce a result."""


def run_worker(args, deadline):
    """Run one worker to completion and return its JSON result."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run([sys.executable, str(WORKER), *map(str, args)], cwd=ROOT,
                              stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args[0]} ran out of time") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {args[0]} failed with exit code {proc.returncode}")
    return json.loads(lines[-1])


def end_to_end(workload, seed, seconds, deadline):
    probes = [run_worker(["setup", workload, seed], deadline) for _ in range(SETUP_PROBES)]
    result = run_worker(["measure", workload, seed, seconds], deadline)
    times = result["times"]
    metrics = {
        "run_s": {"value": statistics.median(result["scaled"]), "unit": "s"},
        "setup_s": {"value": statistics.median(p["scaled_s"] for p in probes), "unit": "s"},
        "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        "pass_ratio": {"value": 1.0 - result["failed"] / result["attempted"], "unit": "ratio"},
    }
    print(f"{workload}: {len(times)} passes; unscaled pass seconds median "
          f"{statistics.median(times):.4f} min {min(times):.4f} max {max(times):.4f}; "
          f"unscaled setup seconds median "
          f"{statistics.median(p['setup_s'] for p in probes):.4f}")
    return result, metrics


def per_layer(workload, seed, seconds, deadline):
    result = run_worker(["trace", workload, seed, seconds], deadline)
    if result["skipped_boundaries"]:
        print(f"boundaries not found, their metrics are absent: "
              f"{result['skipped_boundaries']}")
    return result, result["per_layer"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S

    if not (ROOT / "src" / "skewmon" / "__init__.py").is_file():
        print(f"error: no skewmon sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    measure = per_layer if args.trace else end_to_end
    try:
        result, metrics = measure(args.workload, args.seed, args.seconds, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for problem in result["problems"]:
        print(f"FAILED {problem}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
