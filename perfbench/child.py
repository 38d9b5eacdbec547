"""One workload in its own process.

Sets up (imports, input generation, warm-up), runs requests in a closed
loop for the given number of seconds, checks every output, and prints one
JSON line of measurements for ``run.py``.  With ``--trace 1`` every second
request is traced, so the untraced ones give the overhead of tracing.

    python3 perfbench/child.py --workload path-fine --seed 1 --seconds 30 \\
        --trace 0 --spawned-at <time.monotonic() of the parent>
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import math
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
import traceback
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"

# percentiles a tail may be reported at, so that runs of different lengths
# report comparable figures
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9, 99.99)
TAIL_BEYOND = 10


def tail_percentile(samples) -> tuple[float, float] | None:
    """(p, value) for the highest percentile of ``TAIL_LADDER`` with at
    least ``TAIL_BEYOND`` samples beyond it, by the nearest-rank rule; None
    when there are too few samples for any."""
    xs = sorted(samples)
    n = len(xs)
    best = None
    for p in TAIL_LADDER:
        rank = math.ceil(Fraction(str(p)) * n / 100)
        if rank >= 1 and n - rank >= TAIL_BEYOND:
            best = (p, xs[rank - 1])
    return best


def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS bundled with numpy, if any."""
    import numpy as np
    pattern = os.path.join(os.path.dirname(np.__file__), os.pardir,
                           "numpy.libs", "*openblas*")
    for lib in glob.glob(pattern):
        cdll = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(cdll, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "blas_threads": blas_threads(),
            "blas_cap": os.environ.get("OPENBLAS_NUM_THREADS")}


def ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def run_requests(workload, seconds: float, tracer) -> list[dict]:
    """Closed loop for ``seconds``: a request starts only if one of median
    length would end in time, so that every run lasts about as long.  With
    a tracer, odd requests are traced and at least one of each kind runs."""
    records, walls = [], []
    start = time.perf_counter()
    while len(records) < (2 if tracer else 1) or (
            time.perf_counter() - start + statistics.median(walls) <= seconds):
        began = time.perf_counter()
        i = len(records)
        req = workload.next_request()
        traced = tracer is not None and i % 2 == 1
        out, failures = None, []
        if traced:
            tracer.install(i)
        try:
            out = workload.run(req)
        except Exception as exc:  # a failed request is counted, not fatal
            traceback.print_exc()
            failures = [f"request raised {type(exc).__name__}: {exc}"]
        finally:
            if traced:
                tracer.uninstall()
        if out is not None:
            try:
                failures = workload.check(req, out)
            except Exception as exc:  # a check that cannot run fails
                traceback.print_exc()
                failures = [f"check raised {type(exc).__name__}: {exc}"]
            # keep peak memory that of one request, not of the whole run
            out.output = None
        records.append({"index": i, "traced": traced, "out": out,
                        "failures": failures})
        walls.append(time.perf_counter() - began)
    return records


def end_to_end(done: list[dict]) -> dict:
    outs = [r["out"] for r in done]
    op = [o.op_s for o in outs]
    return {
        "op_s.p50": statistics.median(op),
        "values_per_s": ratio(sum(o.values for o in outs), sum(op)),
    }


def speedup(outs) -> float:
    """Median time of the parallel part at one worker over that at two."""
    return ratio(statistics.median(o.serial_s for o in outs),
                 statistics.median(o.parallel_s for o in outs))


def per_layer(done: list[dict], tracer, workload) -> tuple[dict, list[str]]:
    import tracer as tracing
    traced = [r for r in done if r["traced"]]
    plain = [r["out"] for r in done if not r["traced"]]
    values, notes = tracing.span_metrics(tracer, [r["index"] for r in traced])
    stage = {k: statistics.fmean(o.stages.get(k, 0.0) for o in plain)
             for k in ("coefficient", "parseval", "rate")}
    values.update({
        "validation.coefficient.wall_s": stage["coefficient"],
        "validation.parseval.wall_s": stage["parseval"],
        "validation.rate.wall_s": stage["rate"],
        "speedup.workers2": speedup(plain),
        "validation.coefficient.pool_speedup":
            speedup(plain) if workload.name == "campaigns" else 0.0,
        "process.cpu_util": ratio(sum(o.op_cpu_s for o in plain),
                                  sum(o.op_s for o in plain)),
        "trace.overhead": ratio(
            statistics.median(r["out"].op_s for r in traced),
            statistics.median(o.op_s for o in plain)) - 1.0,
    })
    return values, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() just before this process "
                             "was started")
    parser.add_argument("--setup-only", action="store_true",
                        help="exit after set-up, reporting only its time")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import fbmhaar
    if Path(fbmhaar.__file__).resolve().parent.parent != src.resolve():
        print(f"fbmhaar was imported from {fbmhaar.__file__}, not from {src}",
              file=sys.stderr)
        return 2
    import tracer as tracing
    import workloads

    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        workload = workloads.WORKLOADS[args.workload](args.seed, Path(tmp))
        workload.warm_up()
        setup_s = time.monotonic() - args.spawned_at
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        tracer = tracing.Tracer() if args.trace else None
        records = run_requests(workload, args.seconds, tracer)
        final_failures = workload.final_checks()
    # the only final check repeats the first request
    records[0]["failures"] += final_failures
    done = [r for r in records if r["out"] is not None]
    plain = [r for r in done if not r["traced"]]
    if not plain or (tracer is not None and len(plain) == len(done)):
        print("too few requests completed to measure", file=sys.stderr)
        return 1
    result = {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": len(records),
        "failed": sum(1 for r in records if r["failures"]),
        "failures": [f for r in records for f in r["failures"]][:20],
        "requests": [{"traced": r["traced"], "op_s": r["out"].op_s,
                      "serial_s": r["out"].serial_s,
                      "parallel_s": r["out"].parallel_s,
                      "stages": r["out"].stages} for r in done],
        "tail": tail_percentile(r["out"].op_s for r in plain),
        "end_to_end": end_to_end(plain),
        "env": environment(),
    }
    if tracer is not None:
        result["per_layer"], result["notes"] = per_layer(done, tracer, workload)
        trace_file = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps(tracer.dump()))
        result["trace_file"] = str(trace_file.relative_to(ROOT))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
