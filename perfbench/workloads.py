"""The three benchmark workloads and the checks on their outputs.

Every workload is a closed loop from one process: the next request starts
when the previous one returns.  All inputs come from the workload seed.
Package functions are looked up through their modules at call time, so the
tracer's wrappers see every call the benchmark makes.

* ``path-fine``: one path on a fine grid through the CLI, at --workers 1
  and then 2.  Coefficient blocks dominate; the noise layer is under 1%.
* ``ensemble-coarse``: 2000 paths at 4 instants with ``generate_ensemble``
  at workers 1 and then 2, followed by the exact sampler.  Noise and the
  per-path contraction do the work; the coefficient table is tiny.
* ``campaigns``: acceptance criteria 1, 2, 3 and 6 at the parameters of
  ``tests/test_acceptance.py``.  Chunked coefficient blocks, GEMM
  contraction, the quadrature oracle and the process pool run only here.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import resource
import time
from pathlib import Path

import numpy as np

import fbmhaar.cli
import fbmhaar.coefficients
import fbmhaar.expansion
import fbmhaar.noise
import fbmhaar.oracle
import fbmhaar.validation

N_TERMS = 1023
REF_TOL = 1e-12
U64 = 2**64 - 1
EXPECTED_VERDICTS = Path(__file__).with_name("expected_verdicts.json")


def draw_hurst(rng: random.Random) -> float:
    """H in [0.05, 0.4] or [0.6, 0.95]: |H - 1/2| >= 0.1 keeps all three
    coefficient families live."""
    h = rng.uniform(0.05, 0.4)
    return h if rng.random() < 0.5 else 1.0 - h


def reference_values(times, hurst: float, n_terms: int, seed: int) -> list[float]:
    """Path values by the formula in ``fbmhaar.expansion``'s docstring:
    c_H times one ``math.fsum`` over the F1 and F2 rows against l1 and l2
    and the g row (n >= 1) against l3, scaled by -(H - 1/2)."""
    coefficients = fbmhaar.coefficients
    p = coefficients.HurstParams.from_hurst(hurst)
    ts = np.asarray(times, dtype=np.float64)
    kinds = coefficients.CoefficientKind
    f1 = coefficients.coeff_matrix(kinds.F1, ts, p, 0, n_terms)
    f2 = coefficients.coeff_matrix(kinds.F2, ts, p, 0, n_terms)
    g = coefficients.coeff_matrix(kinds.G, ts, p, 0, n_terms)
    b = fbmhaar.noise.draw_bundle(seed, n_terms)
    out = []
    for i in range(len(ts)):
        terms = [c * x for c, x in zip(f1[i].tolist(), b.l1.tolist())]
        terms += [c * x for c, x in zip(f2[i].tolist(), b.l2.tolist())]
        terms += [-p.h_minus_half * c * x
                  for c, x in zip(g[i, 1:].tolist(), b.l3[1:].tolist())]
        out.append(p.c_h * math.fsum(terms))
    return out


def reference_failures(label: str, times, got, want) -> list[str]:
    return [f"{label}: value at t={t!r} is {a!r}, reference {b!r}"
            for t, a, b in zip(times, got, want) if not abs(a - b) <= REF_TOL]


def cpu_seconds() -> float:
    """CPU time of this process and of its reaped children."""
    return sum(u.ru_utime + u.ru_stime
               for u in (resource.getrusage(resource.RUSAGE_SELF),
                         resource.getrusage(resource.RUSAGE_CHILDREN)))


class Timer:
    """Wall and CPU seconds of a block."""

    def __enter__(self):
        self.cpu0 = cpu_seconds()
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.wall = time.perf_counter() - self.t0
        self.cpu = cpu_seconds() - self.cpu0
        return False


class Outcome:
    """What one request measured and returned.

    ``op_s`` and ``op_cpu_s`` are the wall and CPU time of the operation;
    ``parallel_s`` and ``serial_s`` time the part that takes a worker count
    at two workers and at one; ``values`` counts the path values the
    operation produced; ``stages`` holds per-campaign walls; ``output``
    holds what the checks inspect.
    """

    def __init__(self):
        self.op_s = self.op_cpu_s = 0.0
        self.parallel_s = self.serial_s = 0.0
        self.values = 0
        self.stages: dict[str, float] = {}
        self.output: dict = {}


class PathFine:
    name = "path-fine"
    n_times = 1024
    n_samples = 8

    def __init__(self, seed: int, workdir: Path):
        self.rng = random.Random(seed)
        self.workdir = workdir

    def next_request(self) -> dict:
        rng = self.rng
        return {"hurst": draw_hurst(rng), "seed": rng.randrange(2**63),
                "samples": sorted(rng.sample(range(1, self.n_times + 1),
                                             self.n_samples))}

    def _argv(self, req, workers, n_times, n_terms, out):
        return ["generate", "--hurst", repr(req["hurst"]),
                "--levels", str(n_terms), "--seed", str(req["seed"]),
                "--times", str(n_times), "--spacing", "equispaced",
                "--workers", str(workers), "--out", str(out)]

    def warm_up(self) -> None:
        req = {"hurst": 0.3, "seed": 0}
        for workers in (1, 2):
            fbmhaar.cli.main(self._argv(req, workers, 8, 7,
                                        self.workdir / "warm.csv"))

    def run(self, req) -> Outcome:
        out = Outcome()
        files = [self.workdir / f"w{w}.csv" for w in (1, 2)]
        with Timer() as serial:
            codes = [fbmhaar.cli.main(self._argv(req, 1, self.n_times,
                                                 N_TERMS, files[0]))]
        with Timer() as op:
            codes.append(fbmhaar.cli.main(self._argv(req, 2, self.n_times,
                                                     N_TERMS, files[1])))
        out.op_s, out.op_cpu_s = op.wall, op.cpu
        out.serial_s, out.parallel_s = serial.wall, op.wall
        out.values = self.n_times + 1
        out.output["codes"] = codes
        return out

    def check(self, req, out: Outcome) -> list[str]:
        codes = out.output["codes"]
        if codes != [0, 0]:
            return [f"cli exit codes {codes}"]
        blobs = [(self.workdir / f"w{w}.csv").read_bytes() for w in (1, 2)]
        fails = []
        if blobs[0] != blobs[1]:
            fails.append("--workers 1 and --workers 2 files differ")
        rows = [line.split(",") for line in blobs[1].decode("ascii").splitlines()
                if line and not line.startswith("#")][1:]
        times = [float(t) for t, _ in rows]
        values = [float(v) for _, v in rows]
        if len(rows) != self.n_times + 1:
            return fails + [f"{len(rows)} rows, expected {self.n_times + 1}"]
        if times[0] != 0.0 or values[0] != 0.0:
            fails.append(f"first row {rows[0]} is not t = 0, value 0")
        idx = req["samples"]
        ts = [times[i] for i in idx]
        want = reference_values(ts, req["hurst"], N_TERMS, req["seed"])
        fails += reference_failures("path", ts, [values[i] for i in idx], want)
        return fails

    def final_checks(self) -> list[str]:
        return []


class EnsembleCoarse:
    name = "ensemble-coarse"
    times = (0.25, 0.5, 0.75, 1.0)
    n_paths = 2000
    n_samples = 4

    def __init__(self, seed: int, workdir: Path):
        self.rng = random.Random(seed)
        self.first = None

    def next_request(self) -> dict:
        rng = self.rng
        return {"hurst": draw_hurst(rng), "seed": rng.randrange(2**63),
                "samples": sorted(rng.sample(range(self.n_paths),
                                             self.n_samples))}

    def _config(self, req, workers, n_terms=N_TERMS, seed=None):
        return fbmhaar.expansion.GeneratorConfig(
            params=fbmhaar.coefficients.HurstParams.from_hurst(req["hurst"]),
            n_terms=n_terms, seed=req["seed"] if seed is None else seed,
            workers=workers)

    def warm_up(self) -> None:
        req = {"hurst": 0.3, "seed": 0}
        times = np.array(self.times)
        for workers in (1, 2):
            fbmhaar.expansion.generate_ensemble(
                times, self._config(req, workers, n_terms=15), 4)
        fbmhaar.oracle.cholesky_sample(times, req["hurst"], req["seed"], 4)

    def run(self, req) -> Outcome:
        out = Outcome()
        times = np.array(self.times)
        with Timer() as serial:
            serial_paths = fbmhaar.expansion.generate_ensemble(
                times, self._config(req, 1), self.n_paths)
        with Timer() as op:
            with Timer() as parallel:
                paths = fbmhaar.expansion.generate_ensemble(
                    times, self._config(req, 2), self.n_paths)
            exact = fbmhaar.oracle.cholesky_sample(
                times, req["hurst"], req["seed"], self.n_paths)
        out.output = {"serial": serial_paths, "paths": paths, "exact": exact}
        out.op_s, out.op_cpu_s = op.wall, op.cpu
        # the speedup compares the ensemble alone at one and two workers
        out.serial_s, out.parallel_s = serial.wall, parallel.wall
        out.values = 2 * self.n_paths * len(self.times)
        return out

    @staticmethod
    def _digest(samples) -> str:
        return hashlib.sha256(np.stack([s.values for s in samples])
                              .tobytes()).hexdigest()

    def check(self, req, out: Outcome) -> list[str]:
        fails = []
        times = np.array(self.times)
        serial, paths, exact = (out.output[k] for k in ("serial", "paths", "exact"))
        if len(paths) != self.n_paths or len(serial) != self.n_paths or any(
                not np.array_equal(a.values, b.values)
                for a, b in zip(serial, paths)):
            return ["workers 1 and workers 2 ensembles differ"]
        for i in req["samples"]:
            seed = (req["seed"] + i) & U64
            got = paths[i].values
            want = reference_values(times, req["hurst"], N_TERMS, seed)
            fails += reference_failures(f"path {i}", times, got.tolist(), want)
            single = fbmhaar.expansion.generate_path(
                times, self._config(req, 1, seed=seed))
            if not np.array_equal(single.values, got):
                fails.append(f"path {i} differs from generate_path for its seed")
        if len(exact) != self.n_paths or any(
                s.values.shape != times.shape or not np.all(np.isfinite(s.values))
                for s in exact):
            fails.append("exact sampler output has the wrong shape or "
                         "non-finite values")
        elif self.first is None:
            self.first = (req, self._digest(exact))
        return fails

    def final_checks(self) -> list[str]:
        if self.first is None:
            return []
        req, digest = self.first
        again = fbmhaar.oracle.cholesky_sample(
            np.array(self.times), req["hurst"], req["seed"], self.n_paths)
        if self._digest(again) != digest:
            return ["exact sampler does not reproduce the first request"]
        return []


H_GRID = (0.1, 0.25, 0.5, 0.75, 0.9)
T_GRID = (0.0, 0.137, 0.5, 1.0)
RATE_H = (0.3, 0.5, 0.7)
RATE_SEEDS = 32

# criterion -> (campaign function name, keyword arguments), as in
# tests/test_acceptance.py except that criterion 1 runs on two workers
CRITERIA = {
    "criterion-1": ("run_coefficient_campaign",
                    {"h_set": H_GRID, "t_set": T_GRID, "n_max": 255,
                     "tol": 1e-8, "workers": 2}),
    "criterion-2": ("run_parseval_campaign",
                    {"h_set": H_GRID, "t_set": T_GRID, "n_max": 2**14}),
    "criterion-3": ("run_parseval_campaign",
                    {"h_set": (0.3, 0.7), "t_set": (1.0,), "n_max": 2**14}),
    "criterion-6": ("run_rate_campaign",
                    {"h_set": RATE_H, "n_seeds": RATE_SEEDS, "seed0": 0}),
}
STAGES = {"criterion-1": "coefficient", "criterion-2": "parseval",
          "criterion-3": "parseval", "criterion-6": "rate"}


def run_criterion(criterion: str, **override):
    name, kwargs = CRITERIA[criterion]
    return getattr(fbmhaar.validation, name)(**{**kwargs, **override})


def verdicts(report) -> dict[str, bool]:
    return {r.name: bool(r.passed) for r in report.records}


class Campaigns:
    name = "campaigns"

    def __init__(self, seed: int, workdir: Path):
        self.rng = random.Random(seed)
        self.expected = json.loads(EXPECTED_VERDICTS.read_text())
        grid = fbmhaar.validation.default_sup_grid()
        ladder = fbmhaar.validation.DEFAULT_RATE_LADDER
        # path values of the rate campaign: every seed, instant and rung
        self.values = len(RATE_H) * RATE_SEEDS * grid.size * len(ladder)

    def next_request(self) -> dict:
        # criterion 1 always follows criterion 6: the process pool forks a
        # copy of this process, whose cost depends on what ran just before
        blocks = [["criterion-2"], ["criterion-3"],
                  ["criterion-6", "criterion-1"]]
        self.rng.shuffle(blocks)
        return {"order": [c for block in blocks for c in block]}

    def warm_up(self) -> None:
        validation = fbmhaar.validation
        validation.run_coefficient_campaign([0.3], [0.5], n_max=3)
        validation.run_parseval_campaign([0.3], [0.5], n_max=512)
        validation.run_rate_campaign([0.3], n_ladder=(32, 64, 128, 256, 512),
                                     time_grid=np.linspace(0.0, 1.0, 33),
                                     n_seeds=2)

    def run(self, req) -> Outcome:
        out = Outcome()
        reports = out.output
        with Timer() as op:
            for criterion in req["order"]:
                with Timer() as stage:
                    reports[criterion] = run_criterion(criterion)
                key = STAGES[criterion]
                out.stages[key] = out.stages.get(key, 0.0) + stage.wall
        out.op_s, out.op_cpu_s = op.wall, op.cpu
        with Timer() as serial:
            reports["criterion-1 at workers 1"] = run_criterion("criterion-1",
                                                                workers=1)
        # the speedup compares the coefficient campaign at 1 and 2 workers
        out.serial_s, out.parallel_s = serial.wall, out.stages["coefficient"]
        out.values = self.values
        return out

    def check(self, req, out: Outcome) -> list[str]:
        fails = []
        for label, report in out.output.items():
            want = self.expected[label.split(" ")[0]]
            got = verdicts(report)
            errors = [r.name for r in report.records if r.kind == "error"]
            if errors:
                fails.append(f"{label}: error records {errors}")
            if got != want:
                flipped = sorted(k for k in set(got) | set(want)
                                 if got.get(k) != want.get(k))
                fails.append(f"{label}: verdicts differ from the acceptance "
                             f"suite at {flipped}")
        return fails

    def final_checks(self) -> list[str]:
        return []


WORKLOADS = {w.name: w for w in (PathFine, EnsembleCoarse, Campaigns)}
