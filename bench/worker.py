"""One fresh process of the benchmark; ``run.py`` starts it, one at a time.

    python3 bench/worker.py setup   WORKLOAD SEED
    python3 bench/worker.py measure WORKLOAD SEED SECONDS
    python3 bench/worker.py trace   WORKLOAD SEED SECONDS

``setup`` times importing skewmon and building every algebra the workload
declares through the public constructors.  ``measure`` runs passes of the
workload through ``skewmon.cli.run_scenario`` until SECONDS are spent and
checks every report.  ``trace`` does the same on the input of pass 0, then
runs that input once more with spans at the layer boundaries.  Each mode
prints one JSON object as its last line.

Each mode also times the reference loop of ``reference.py`` next to what it
measures (three times after a set-up, twice before the first pass and after
every pass) and reports the times scaled to the reference machine speed.
"""

import hashlib
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / ".out"

import workloads  # noqa: E402  (the bench directory is the script directory)
from gate import Gate, strip_timings  # noqa: E402
from reference import at_reference_speed, reference_seconds  # noqa: E402


def import_skewmon():
    """Import skewmon from this checkout's ``src`` and nowhere else."""
    sys.path.insert(0, str(SRC))
    import skewmon

    if Path(skewmon.__file__).resolve().parent != SRC / "skewmon":
        raise ImportError(f"skewmon was imported from {skewmon.__file__}, not from {SRC}")
    return skewmon


def source_version():
    """Digest of the skewmon sources, so stored reports belong to one version."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "skewmon").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def build_algebra(skewmon, block):
    """Build one scenario ``algebra`` block through the public constructors."""
    kind = block["kind"]
    if kind in ("shift_algebra", "qshift_algebra"):
        build = skewmon.build_shift_algebra if kind == "shift_algebra" \
            else skewmon.build_qshift_algebra
        group = [tuple(x - 1 for x in perm) for perm in block.get("group", [])] or None
        return build(block["n"], block["m"], group_generators=group)
    if kind == "gt":
        return skewmon.gt_embedding(block["n"])
    if kind == "nilhecke":
        return skewmon.demazure_elements(block["n"])
    if kind == "gwa" and block.get("preset") == "witten-woronowicz":
        return skewmon.gwa_embed(skewmon.witten_woronowicz_spec())
    raise ValueError(f"no constructor for algebra block {block!r}")


def setup(workload, seed):
    blocks = []
    for scenario in workloads.scenarios(workload, seed):
        if scenario["algebra"] not in blocks:
            blocks.append(scenario["algebra"])
    t0 = time.perf_counter()
    skewmon = import_skewmon()
    for block in blocks:
        build_algebra(skewmon, block)
    setup_s = time.perf_counter() - t0
    references = [reference_seconds() for _ in range(3)]
    return {"setup_s": setup_s, "scaled_s": at_reference_speed(setup_s, references)}


def run_pass(skewmon, scenarios):
    """Run one pass; returns its wall seconds and (scenario, report, text, error).

    The entry points are looked up at call time, so a traced pass calls the
    wrapped ones.
    """
    inputs = [workloads.program_input(s) for s in scenarios]
    outputs = []
    t0 = time.perf_counter()
    for scenario, program_input in zip(scenarios, inputs):
        try:
            report = skewmon.cli.run_scenario(program_input)
            text = skewmon.reports.dump_json(strip_timings(report))
            outputs.append((scenario, report, text, None))
        except Exception:  # a raising job is a failed operation; the run goes on
            outputs.append((scenario, None, None, traceback.format_exc(limit=3)))
    return time.perf_counter() - t0, outputs


def measure(workload, seed, seconds, trace):
    skewmon = import_skewmon()
    import skewmon.cli

    version = source_version()
    store_path = OUT / "reports.json"
    gate = Gate(Gate.load(store_path, version))
    times, scaled = [], []
    before = [reference_seconds(), reference_seconds()]
    begin = time.perf_counter()
    while True:
        index = 0 if trace else len(times)
        elapsed, outputs = run_pass(skewmon, workloads.scenarios(workload, seed, index))
        after = [reference_seconds(), reference_seconds()]
        times.append(elapsed)
        scaled.append(at_reference_speed(elapsed, before + after))
        before = after
        for output in outputs:
            gate.check(*output)
        if time.perf_counter() - begin + statistics.median(times) > seconds:
            break
    result = {"times": times, "scaled": scaled,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}

    if trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install(skewmon)
        try:
            traced_s, outputs = run_pass(skewmon, workloads.scenarios(workload, seed, 0))
        finally:
            tracer.uninstall()
        after = [reference_seconds(), reference_seconds()]
        for output in outputs:
            gate.check(*output)
        overhead = at_reference_speed(traced_s, before + after) / statistics.median(scaled)
        result["per_layer"] = tracer.metrics(traced_s, overhead)
        result["skipped_boundaries"] = tracer.skipped
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{workload}.bin")

    gate.save(store_path, version)
    result.update(attempted=gate.attempted, failed=gate.failed, problems=gate.problems[:20])
    return result


def main(argv):
    mode, workload, seed = argv[0], argv[1], int(argv[2])
    if mode == "setup":
        result = setup(workload, seed)
    elif mode in ("measure", "trace"):
        result = measure(workload, seed, float(argv[3]), trace=mode == "trace")
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
