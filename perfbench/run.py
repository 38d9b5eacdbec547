"""fbmhaar benchmark: one workload per call, every metric by name.

    python3 perfbench/run.py --workload path-fine --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Each workload runs in its own process
(``child.py``), so that set-up time and peak memory belong to it alone.
With ``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics of
a traced run.  Set-up is repeated in fresh processes and its median is
reported.  Full results go to ``.perfbench_out/BENCH_*.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text()) \
    if (HERE.parent / "BENCHMARK.json").is_file() else None
WORKLOADS = ("path-fine", "ensemble-coarse", "campaigns")
MAX_WORKERS = 2          # the largest worker count any workload uses
EXTRA_SETUPS = 4         # set-up-only processes besides the measuring one
CHILD_TIMEOUT_S = 150.0


def child_env() -> dict:
    """Cap BLAS threads so that workers plus BLAS threads fit in nproc."""
    blas = str(max(1, (os.cpu_count() or 1) - MAX_WORKERS))
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = blas
    return env


def run_child(args, setup_only: bool, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    spawned_at = time.monotonic()
    proc = subprocess.run(cmd + ["--spawned-at", repr(spawned_at)],
                          cwd=ROOT, env=child_env(), capture_output=True,
                          text=True, timeout=max(1.0, deadline - spawned_at))
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if SPEC is None or not (ROOT / "src" / "fbmhaar" / "__init__.py").is_file():
        print(f"no fbmhaar checkout at {ROOT}", file=sys.stderr)
        return 2
    if not 1 <= args.seconds <= 60:
        parser.error("--seconds must lie in 1..60")

    deadline = time.monotonic() + CHILD_TIMEOUT_S
    try:
        setups = []
        if not args.trace:
            setups = [run_child(args, True, deadline)["setup_s"]
                      for _ in range(EXTRA_SETUPS)]
        result = run_child(args, False, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError,
            IndexError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    setups.append(result["setup_s"])

    if args.trace:
        kind, values = "per_layer", result["per_layer"]
    else:
        kind = "end_to_end"
        values = {**result["end_to_end"],
                  "setup_s": statistics.median(setups),
                  "peak_rss_mb": result["peak_rss_mb"]}
    units = {m["name"]: m["unit"] for m in SPEC[kind]}
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}

    env = result["env"]
    print(f"workload {args.workload}  seed {args.seed}  "
          f"{args.seconds} s  trace {args.trace}")
    print("env " + "  ".join(f"{k}={v}" for k, v in env.items()))
    for name, m in metrics.items():
        print(f"{name} = {m['value']} {m['unit']}")
    for note in result.get("notes", []):
        print(f"note: {note}")
    n_ops = sum(1 for r in result["requests"] if not r["traced"])
    tail = result["tail"]
    print(f"op_s.tail = " + (f"{tail[1]} s at p{tail[0]:g}" if tail else
                             "n/a (fewer than 10 samples beyond any "
                             "percentile)") + f", {n_ops} samples")
    error_rate = result["failed"] / result["attempted"]
    print(f"error_rate = {error_rate} ratio "
          f"({result['failed']} of {result['attempted']} requests failed)")
    if not args.trace:
        print(f"setup_s samples = {setups}")
    for failure in result["failures"]:
        print(f"FAILED: {failure}")

    OUT_DIR.mkdir(exist_ok=True)
    bench = OUT_DIR / (f"BENCH_{args.workload}_seed{args.seed}"
                       f"_trace{args.trace}.json")
    bench.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "env": env,
        kind: metrics, "op_s.tail": tail, "requests": result["requests"],
        "error_rate": error_rate, "setup_s_samples": setups,
        "attempted": result["attempted"], "failed": result["failed"],
        "failures": result["failures"], "notes": result.get("notes", []),
        "trace_file": result.get("trace_file"),
    }, indent=1) + "\n")

    print(json.dumps({"correct": result["failed"] == 0,
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
