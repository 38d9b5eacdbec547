import json
import math
import re
import threading
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from fbmhaar import coefficients, expansion, oracle, validation
from fbmhaar.cli import main as cli_main
from fbmhaar.coefficients import (CoefficientKind, HurstParams,
                                  coeff_matrix, coeff_vector)
from fbmhaar.expansion import (GeneratorConfig, eval_w, generate_ensemble,
                               generate_path)
from fbmhaar.noise import draw_bundle
from fbmhaar.oracle import (OracleConvergenceError, cholesky_factor,
                            cholesky_sample, covariance_matrix,
                            quad_coefficient)
from fbmhaar.validation import (
    CheckRecord,
    ValidationReport,
    decay_measurement_grid,
    default_sup_grid,
    fit_loglog_slope,
    run_brownian_campaign,
    run_coefficient_campaign,
    run_covariance_campaign,
    run_parseval_campaign,
    run_rate_campaign,
)

P03 = HurstParams(0.3)


class TestRecordsAndReports:
    def test_band_record(self):
        r = CheckRecord.band("x", "claim", observed=1.05, target=1.0,
                             tolerance=0.1)
        assert r.passed
        assert not CheckRecord.band("x", "c", 1.2, 1.0, 0.1).passed

    def test_upper_record(self):
        assert CheckRecord.upper("x", "c", 0.5, 1.0).passed
        assert not CheckRecord.upper("x", "c", 2.0, 1.0).passed

    def test_every_record_carries_evidence(self):
        report = run_parseval_campaign([0.75], [0.5], n_max=2**10)
        for r in report.records:
            assert isinstance(r.observed, float)
            assert r.tolerance >= 0.0
            assert r.claim

    def test_serialization_roundtrip(self):
        report = ValidationReport(campaign="demo", parameters={"a": 1})
        report.records.append(CheckRecord.band("x", "c", 1.0, 1.0, 0.1))
        data = json.loads(report.to_json())
        assert data["campaign"] == "demo"
        assert data["passed"] is True
        assert len(data["records"]) == 1
        text = report.to_text()
        assert "overall: PASS" in text and "[PASS]" in text

    def test_failing_report_text(self):
        report = ValidationReport(campaign="demo", parameters={})
        report.records.append(CheckRecord.failure("x", "c", "broken"))
        assert not report.passed
        assert "overall: FAIL" in report.to_text()

    def test_info_record_text(self):
        report = ValidationReport(campaign="demo", parameters={})
        report.records.append(CheckRecord.info("x", "c", 2.5e-9, "flag"))
        assert report.passed
        assert "[PASS] x: observed=2.5e-09  [c]  (flag)" in report.to_text()


def strict_json(text):
    """``json.loads`` that rejects the non-standard NaN and Infinity."""
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    return json.loads(text, parse_constant=reject)


class TestStrictJson:
    def test_degenerate_rate_fit_writes_null(self):
        report = run_rate_campaign(
            [0.5], n_ladder=(32, 64, 128, 256, 512),
            time_grid=np.linspace(0.0, 1.0, 129), n_seeds=2)
        data = strict_json(report.to_json())
        (record,) = data["records"]
        assert record["kind"] == "error" and record["observed"] is None
        fit = data["parameters"]["fits"]["0.5"]
        assert fit["slope"] is None and fit["halfwidth"] is None
        assert fit["errors"][2:] == [0.0, 0.0]
        # serialization alone changes: the report keeps its NaN
        assert math.isnan(report.records[0].observed)

    def test_info_record_tolerance_writes_null(self):
        report = run_coefficient_campaign([0.5 + 1e-9], [0.5], n_max=7)
        records = strict_json(report.to_json())["records"]
        (info,) = [r for r in records if r["kind"] == "info"]
        assert info["tolerance"] is None
        assert math.isinf(report.records[-1].tolerance)


class TestRateFitHelpers:
    def test_fit_recovers_exact_power_law(self):
        n = [32, 64, 128, 256, 512]
        errors = [x ** -0.42 for x in n]
        slope, halfwidth = fit_loglog_slope(n, errors)
        assert slope == pytest.approx(-0.42, abs=1e-12)
        assert halfwidth < 1e-10


class TestCoefficientCampaign:
    def test_small_grid_passes(self):
        report = run_coefficient_campaign([0.5, 0.3], [0.0, 0.5], n_max=31)
        assert report.passed
        names = [r.name for r in report.records]
        assert "coeff/f2+g/H=0.5" in names  # exact-zero record at H = 1/2
        assert report.parameters["n_max"] == 31

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            run_coefficient_campaign([0.3], [], n_max=7)

    def test_determinism(self):
        a = run_coefficient_campaign([0.75], [0.137], n_max=15)
        b = run_coefficient_campaign([0.75], [0.137], n_max=15)
        assert [vars(r) for r in a.records] == [vars(r) for r in b.records]

    def test_near_half_conditioning_flag(self):
        report = run_coefficient_campaign([0.5 + 1e-9], [0.5], n_max=7)
        flagged = [r for r in report.records if "conditioning" in r.name]
        assert len(flagged) == 1 and flagged[0].passed

    def test_pool_bounded_by_cells(self, monkeypatch):
        # a fake pool that runs the cells in this process: no process starts
        sizes = []

        class FakePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, cells):
                return map(fn, cells)

        monkeypatch.setattr(validation, "ProcessPoolExecutor", FakePool)
        report = run_coefficient_campaign([0.3], [0.25, 0.5], n_max=3,
                                          workers=4096)
        assert sizes == [3]  # one task per (family, H) claim
        assert report.passed
        # one claim runs in this process, without a pool
        run_coefficient_campaign([0.5], [0.5], n_max=3, workers=4096)
        assert sizes == [3]

    @staticmethod
    def _fail_quadrature(monkeypatch, h):
        # quadrature at H = h fails to converge at t = 0.5, n = 3 alone;
        # threads stand in for processes, so the patch reaches every task
        real = validation.quad_coefficient

        def flaky(kind, t, p, n, *args, **kwargs):
            if p.h == h and t == 0.5 and n == 3:
                raise OracleConvergenceError(f"quad {kind.value}: forced")
            return real(kind, t, p, n, *args, **kwargs)

        monkeypatch.setattr(validation, "quad_coefficient", flaky)
        monkeypatch.setattr(validation, "ProcessPoolExecutor",
                            ThreadPoolExecutor)

    def test_convergence_failure_is_the_claims_only_record(self, monkeypatch,
                                                           capsys):
        self._fail_quadrature(monkeypatch, 0.3)
        report = run_coefficient_campaign([0.3], [0.137, 0.5], n_max=7)
        names = [f"coeff/{f}/H=0.3" for f in ("f1", "f2", "g")]
        assert [r.name for r in report.records] == names
        assert all(r.kind == "error" and not r.passed
                   for r in report.records)
        assert "forced" in report.records[0].note
        # the command exits 3 and names each failed claim once
        assert cli_main(["validate-coeffs", "--hurst", "0.3",
                         "--levels", "7"]) == 3
        failed = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("FAILED:")]
        assert [line.split()[1] for line in failed] == [f"{n}:" for n in names]

    def test_failure_keeps_its_claims_position(self, monkeypatch):
        # a repeated H is one claim, and sorts by H alone
        self._fail_quadrature(monkeypatch, 0.7)
        report = run_coefficient_campaign([0.7, 0.3, 0.7], [0.137, 0.5],
                                          n_max=7, workers=2)
        assert [r.name for r in report.records] == [
            f"coeff/{f}/H={h}" for f in ("f1", "f2", "g") for h in (0.3, 0.7)]
        assert [r.kind for r in report.records] == ["upper", "error"] * 3


class TestParsevalCampaign:
    def test_limit_records_fast_hurst(self):
        report = run_parseval_campaign([0.75], [0.0, 0.5, 1.0], n_max=2**12)
        assert report.passed
        limit_records = [r for r in report.records if "limit" in r.name]
        assert len(limit_records) == 2  # t = 0 skipped

    def test_ladder_headroom_guard(self):
        # the top rung 256 needs the tail at 512
        with pytest.raises(ValueError, match="n_max must be at least 512"):
            run_parseval_campaign([0.5], [1.0], n_max=511)
        # a non-finite time is a usage error, not a failing record
        with pytest.raises(ValueError, match="times must be finite"):
            run_parseval_campaign([0.3], [math.nan], n_max=512)

    def test_empty_h_set_rejected(self):
        with pytest.raises(ValueError, match="h_set and t_set must be "
                                             "nonempty"):
            run_parseval_campaign([], [0.5], n_max=512)

    def test_zero_reference_tail_is_a_failure_record(self):
        # at n_max = 2 * 256 the far-past reference tail of the last rung
        # is exactly zero: a failing record, with no division by zero
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = run_parseval_campaign([0.3], [0.5], n_max=512)
        record = next(r for r in report.records
                      if r.name == "tail-decay-g/H=0.3/N=256")
        assert record.kind == "error" and not record.passed
        assert "N=256" in record.note and "n_max=512" in record.note
        # the rungs below keep their exponents
        assert all(r.kind == "band" for r in report.records
                   if r.name.startswith("tail-decay-") and r is not record)

    def test_decay_grid_is_nondyadic(self):
        grid = decay_measurement_grid()
        assert np.all((grid > 0) & (grid < 1))
        scaled = grid * 1024
        assert not np.any(np.abs(scaled - np.round(scaled)) < 1e-9)


class TestCovarianceCampaign:
    def test_guard_rail_below_informative_size(self):
        report = run_covariance_campaign([0.5], [0.5, 1.0], n_paths=10,
                                         n_terms=63, seed=0)
        assert not report.passed
        assert any("band too wide" in r.note for r in report.records)

    def test_empty_inputs_rejected(self):
        for h_set, grid in (([], [0.5]), ([0.3], [])):
            with pytest.raises(ValueError, match="h_set and time_grid must "
                                                 "be nonempty"):
                run_covariance_campaign(h_set, grid, n_paths=2000,
                                        n_terms=15, seed=0)

    def test_small_informative_run(self):
        report = run_covariance_campaign([0.5], [0.5, 1.0], n_paths=2000,
                                         n_terms=255, seed=0, band=0.1)
        assert report.passed
        assert any("exact-sampler" in r.name for r in report.records)


@pytest.mark.parametrize("run", [
    lambda: run_covariance_campaign([0.3, 0.5], [0.5, 1.0], n_paths=2000,
                                    n_terms=15, seed=4),
    lambda: run_brownian_campaign(n_paths=1000, n_terms=63, seed=4),
], ids=["covariance", "brownian"])
def test_campaign_ensembles_on_every_cpu(run, monkeypatch):
    # their ensembles take one thread per CPU, and the report does not
    # depend on how many there are
    workers = []

    def recording(times, config, n_paths):
        workers.append(config.workers)
        return generate_ensemble(times, config, n_paths)

    monkeypatch.setattr(validation, "generate_ensemble", recording)
    reports = []
    for cpus in (1, 3):
        monkeypatch.setattr("fbmhaar.expansion.os.cpu_count", lambda: cpus)
        report = run().to_dict()
        report.pop("elapsed_seconds")
        reports.append(report)
    assert reports[0] == reports[1]
    assert workers and set(workers) == {0}


class TestRateCampaign:
    def test_ladder_validation(self):
        with pytest.raises(ValueError):
            run_rate_campaign([0.5], n_ladder=(32, 64, 128, 255, 512))
        with pytest.raises(ValueError):
            run_rate_campaign([0.5], n_ladder=(32, 64))

    def test_ladder_rungs_checked(self, monkeypatch):
        # (0,) * 5 doubles at every rung, so only the rung check catches it
        def no_noise(*args):
            raise AssertionError("noise drawn before the ladder was checked")

        monkeypatch.setattr(validation, "draw_bundle", no_noise)
        monkeypatch.setattr(validation, "_load_blocks", no_noise)
        with pytest.raises(ValueError, match=re.escape(
                "ladder rungs must be integers >= 1, got (0, 0, 0, 0, 0)")):
            run_rate_campaign([0.3], n_ladder=(0,) * 5,
                              time_grid=np.array([0.5]), n_seeds=2)

    def test_empty_h_set_rejected_before_noise(self, monkeypatch):
        def no_noise(*args):
            raise AssertionError("noise drawn for an empty campaign")

        monkeypatch.setattr(validation, "draw_bundle", no_noise)
        monkeypatch.setattr(validation, "_load_blocks", no_noise)
        with pytest.raises(ValueError, match="h_set must be nonempty"):
            run_rate_campaign([], n_ladder=(32, 64, 128, 256, 512),
                              time_grid=np.array([0.5]), n_seeds=2)

    def test_zero_sup_error_is_a_degenerate_fit_record(self):
        # at H = 1/2 the series is exact on this dyadic grid from rung 128
        # on, so two median sup-errors are exactly zero: no logarithm, no
        # warning, and a failing record instead of an exception
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            report = run_rate_campaign(
                [0.5], n_ladder=(32, 64, 128, 256, 512),
                time_grid=np.linspace(0.0, 1.0, 129), n_seeds=2)
        assert not report.passed
        (record,) = report.records
        assert record.name == "rate-slope/H=0.5"
        assert record.kind == "error"
        assert "degenerate fit" in record.note
        fit = report.parameters["fits"]["0.5"]
        assert fit["errors"][0] > fit["errors"][1] > 0.0
        assert fit["errors"][2:] == [0.0, 0.0]
        assert math.isnan(fit["slope"]) and math.isnan(fit["halfwidth"])

    def test_miniature_brownian_rate(self, monkeypatch):
        # machinery smoke test on a small ladder; the acceptance suite
        # runs the full-scale version
        grid = np.union1d(np.linspace(0.0, 1.0, 128), np.arange(129) / 128.0)
        monkeypatch.setattr(validation, "RATE_SLOPE_TOL", 0.35)
        report = run_rate_campaign([0.5], n_ladder=(32, 64, 128, 256, 512),
                                   time_grid=grid, n_seeds=8)
        assert report.passed
        assert report.parameters["slope_tol"] == 0.35
        fits = report.parameters["fits"]["0.5"]
        assert fits["n"] == [32, 64, 128, 256]  # reference rung excluded

    @pytest.mark.parametrize("grid, message", [
        (np.array([]), "need at least one time instant"),
        (np.array([0.5, math.nan]), "times must be finite"),
        (np.array([0.5, 1.5]), r"times must lie in \[0, 1\], got 1.5"),
    ])
    def test_grid_checked_before_noise(self, grid, message, monkeypatch):
        def no_noise(*args):
            raise AssertionError("noise drawn before the grid was checked")

        monkeypatch.setattr(validation, "draw_bundle", no_noise)
        monkeypatch.setattr(validation, "_load_blocks", no_noise)
        with pytest.raises(ValueError, match=message):
            run_rate_campaign([0.3], n_ladder=(32, 64, 128, 256, 512),
                              time_grid=grid, n_seeds=2)

    def test_seeds_wrap_modulo_2_64(self, monkeypatch):
        # the seed stride of generate_ensemble: 2**64 - 1 is followed by 0
        drawn = []
        draw = validation._load_blocks

        def recording(seeds, *args):
            drawn.extend(seeds)
            return draw(seeds, *args)

        monkeypatch.setattr(validation, "_load_blocks", recording)
        run_rate_campaign([0.3], n_ladder=(32, 64, 128, 256, 512),
                          time_grid=np.array([0.5]), n_seeds=2,
                          seed0=2**64 - 1)
        assert drawn == [2**64 - 1, 0]

    @pytest.mark.parametrize("seed0", [-1, 2**64, 1.5])
    def test_seed_checked_before_noise(self, seed0, monkeypatch):
        def no_noise(*args):
            raise AssertionError("noise drawn before the seed was checked")

        monkeypatch.setattr(validation, "draw_bundle", no_noise)
        monkeypatch.setattr(validation, "_load_blocks", no_noise)
        with pytest.raises(ValueError, match=re.escape(
                f"seed must be an unsigned 64-bit integer, got {seed0}")):
            run_rate_campaign([0.3], n_ladder=(32, 64, 128, 256, 512),
                              time_grid=np.array([0.5]), n_seeds=2,
                              seed0=seed0)

    def test_rung_sums_equal_path_kernel(self):
        # more instants than RATE_BLOCK, so that three blocks run, spaced
        # 1/(2 RATE_BLOCK + 1) apart: at dyadic instants the H = 1/2 series
        # is exact from a fine enough rung on; each rung's sup-error must
        # be that of the path truncated at that rung
        grid = np.linspace(0.0, 1.0, 2 * validation.RATE_BLOCK + 2)
        ladder = (32, 64, 128, 256, 512)
        seed0, n_seeds = 11, 3
        h_set = (0.3, 0.5, 0.7)
        report = run_rate_campaign(h_set, n_ladder=ladder, time_grid=grid,
                                   n_seeds=n_seeds, seed0=seed0)
        for h in h_set:
            paths = {n: np.array([
                generate_path(grid, GeneratorConfig(HurstParams(h), n,
                                                    seed0 + i)).values
                for i in range(n_seeds)]) for n in ladder}
            expected = [np.median(np.abs(paths[n] - paths[ladder[-1]])
                                  .max(axis=1)) for n in ladder[:-1]]
            errors = report.parameters["fits"][str(h)]["errors"]
            assert errors == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_report_independent_of_thread_count(self, monkeypatch):
        # three blocks of instants: one CPU runs them in the calling
        # thread, four CPUs on three pool threads; the reports must agree
        # exactly
        grid = np.linspace(0.0, 1.0, 2 * validation.RATE_BLOCK + 2)
        threads = []

        def traced(*args):
            threads.append(threading.current_thread())
            return coeff_matrix(*args)

        monkeypatch.setattr(validation, "coeff_matrix", traced)
        reports = {}
        for cpus in (1, 4):
            monkeypatch.setattr("fbmhaar.expansion.os.cpu_count",
                                lambda: cpus)
            threads.clear()
            report = run_rate_campaign(
                (0.3, 0.5), n_ladder=(32, 64, 128, 256, 512),
                time_grid=grid, n_seeds=3, seed0=5).to_dict()
            report.pop("elapsed_seconds")
            reports[cpus] = report
            on_main = {t is threading.main_thread() for t in threads}
            assert on_main == {cpus == 1}
        assert reports[1] == reports[4]

    def test_working_set_is_bounded(self, monkeypatch):
        # at the default ladder (8193 indices) the peak is about 10 MiB:
        # the loads and two threads' rows and node values of RATE_BLOCK
        # instants; no array spans the grid for every rung
        monkeypatch.setattr("fbmhaar.expansion.os.cpu_count", lambda: 2)
        draw_bundle(0, 0)  # scipy.special, imported on the first draw
        tracemalloc.start()
        try:
            run_rate_campaign([0.3], time_grid=np.linspace(0.0, 1.0, 129),
                              n_seeds=4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_default_sup_grid_shape(self):
        grid = default_sup_grid()
        assert grid[0] == 0.0 and grid[-1] == 1.0
        assert np.all(np.diff(grid) > 0)
        assert grid.size > 1024


class TestInputsCheckedUpFront:
    """A bad Hurst index after a good one, or a bad time, fails before any
    noise is drawn or any coefficient is built."""

    @pytest.fixture(autouse=True)
    def no_work(self, monkeypatch):
        def no_work(*args):
            raise AssertionError("work started before the inputs were checked")

        for module in (validation, expansion):
            monkeypatch.setattr(module, "draw_bundle", no_work)
            monkeypatch.setattr(module, "_load_blocks", no_work)
            monkeypatch.setattr(module, "coeff_matrix", no_work)
        monkeypatch.setattr(oracle, "stream_normals", no_work)
        monkeypatch.setattr(expansion, "_contract", no_work)
        for name in ("quad_coefficient", "generate_ensemble"):
            monkeypatch.setattr(validation, name, no_work)
        for kind in coefficients._BLOCKS:
            monkeypatch.setitem(coefficients._BLOCKS, kind, no_work)

    @pytest.mark.parametrize("times, shape", [
        ([[0.1, 0.2]], (1, 2)),
        (0.5, ()),
    ], ids=["2-D", "0-D"])
    @pytest.mark.parametrize("entry", [
        lambda ts: coeff_matrix(CoefficientKind.F1, ts, P03, 0, 3),
        lambda ts: generate_path(ts, GeneratorConfig(P03, 15, 0)),
        lambda ts: generate_ensemble(ts, GeneratorConfig(P03, 15, 0), 2),
        lambda ts: covariance_matrix(ts, 0.3),
        lambda ts: cholesky_factor(ts, 0.3),
        lambda ts: cholesky_sample(ts, 0.3, 0, 2),
        lambda ts: run_coefficient_campaign([0.3], ts, n_max=3),
        lambda ts: run_parseval_campaign([0.3], ts),
        lambda ts: run_covariance_campaign([0.3], ts, n_paths=2000,
                                           n_terms=15, seed=0),
        lambda ts: run_rate_campaign([0.3], n_ladder=(32, 64, 128, 256, 512),
                                     time_grid=ts, n_seeds=2),
    ], ids=["coeff_matrix", "generate_path", "generate_ensemble",
            "covariance_matrix", "cholesky_factor", "cholesky_sample",
            "coefficient", "parseval", "covariance", "rate"])
    def test_times_are_one_dimensional(self, entry, times, shape):
        # instants are a 1-D sequence: any other shape is a usage error
        # naming it, not a broadcast or index error deep in numpy
        with pytest.raises(ValueError, match=re.escape(
                f"times must be a 1-D sequence, got shape {shape}")):
            entry(times)

    @pytest.mark.parametrize("entry, name", [
        (lambda: eval_w([[0.5]], P03, 7, draw_bundle(0, 7)), "t"),
        (lambda: eval_w(None, P03, 7, draw_bundle(0, 7)), "t"),
        (lambda: eval_w("0.5", P03, 7, draw_bundle(0, 7)), "t"),
        (lambda: coeff_vector(CoefficientKind.F1, [0.5], P03, 3), "t"),
        (lambda: quad_coefficient(CoefficientKind.F1, np.array([0.5]), P03,
                                  3), "t"),
        (lambda: HurstParams(None), "h"),
        (lambda: HurstParams([0.3]), "h"),
        (lambda: HurstParams(np.array([0.3])), "h"),
        (lambda: HurstParams(True), "h"),
        (lambda: covariance_matrix([0.5, 1.0], None), "h"),
        (lambda: cholesky_sample([0.5, 1.0], [0.3], 0, 2), "h"),
        (lambda: run_rate_campaign([0.3, None], n_ladder=(32, 64, 128, 256,
                                                          512),
                                   time_grid=np.array([0.5]), n_seeds=2), "h"),
        (lambda: run_coefficient_campaign([0.3], [0.5], n_max=3, tol="x"),
         "tol"),
        (lambda: run_covariance_campaign([0.3], [0.5, 1.0], n_paths=2000,
                                         n_terms=15, seed=0, band="x"),
         "band"),
    ], ids=["t-2-D", "t-None", "t-str", "coeff_vector-t", "quad-t", "h-None",
            "h-list", "h-1-D", "h-bool", "covariance_matrix-h",
            "cholesky_sample-h", "rate-h", "coefficient-tol", "covariance-band"])
    def test_real_scalars(self, entry, name):
        # a time, Hurst index or tolerance is one real number: anything else
        # is a usage error naming it, not a TypeError from float() or from
        # numpy after the work has run
        with pytest.raises(ValueError, match=f"^{name} must be a real number"):
            entry()

    @pytest.mark.parametrize("bundle", [
        None, draw_bundle(0, 7).l1, vars(draw_bundle(0, 7))],
        ids=["None", "array", "dict"])
    def test_bundle(self, bundle):
        # a bundle is a NoiseBundle: anything else is a usage error naming
        # it, not an AttributeError on its fields
        with pytest.raises(ValueError, match="^bundle must be a NoiseBundle"):
            eval_w(0.5, P03, 3, bundle)

    @pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1e-8])
    @pytest.mark.parametrize("entry, name", [
        (lambda tol: run_coefficient_campaign([0.3], [0.5], n_max=3,
                                              tol=tol), "tol"),
        (lambda band: run_covariance_campaign([0.3], [0.5, 1.0],
                                              n_paths=2000, n_terms=15,
                                              seed=0, band=band), "band"),
    ], ids=["coefficient-tol", "covariance-band"])
    def test_tolerances_positive(self, entry, name, value):
        # a NaN bound fails every record and an infinite one passes it; a
        # zero or negative one leaves no room for any error
        with pytest.raises(ValueError, match=re.escape(
                f"{name} must be positive and finite, got {value}")):
            entry(value)

    @pytest.mark.parametrize("run", [
        lambda h_set: run_coefficient_campaign(h_set, [0.5], n_max=7),
        lambda h_set: run_parseval_campaign(h_set, [0.5, 1.0], n_max=512),
        lambda h_set: run_covariance_campaign(h_set, [0.5, 1.0], n_paths=2000,
                                              n_terms=63, seed=0),
        lambda h_set: run_rate_campaign(h_set, n_ladder=(32, 64, 128, 256,
                                                         512),
                                        time_grid=np.array([0.5]), n_seeds=2),
    ], ids=["coefficient", "parseval", "covariance", "rate"])
    def test_bad_hurst_after_a_good_one(self, run):
        with pytest.raises(ValueError,
                           match=re.escape("must lie in (0, 1), got 1.5")):
            run([0.3, 1.5])

    @pytest.mark.parametrize("times, message", [
        ([0.5, math.nan], "times must be finite"),
        ([0.5, 1.5], r"times must lie in \[0, 1\], got 1.5"),
        ([0.5, 0.25], "times must be strictly increasing"),
    ])
    def test_covariance_grid(self, times, message):
        # below MIN_INFORMATIVE_PATHS the guard record used to be written
        # for any grid, reading "4-SE band of nan" for a NaN time
        for n_paths in (100, 2000):
            with pytest.raises(ValueError, match=message):
                run_covariance_campaign([0.5], times, n_paths=n_paths,
                                        n_terms=63, seed=0)

    @pytest.mark.parametrize("seed, n_terms, message", [
        (-1, 15, "seed must be an unsigned 64-bit integer"),
        (0, 2**45, "level 45 exceeds"),
    ], ids=["seed", "level"])
    def test_covariance_generator_inputs(self, seed, n_terms, message):
        # below MIN_INFORMATIVE_PATHS only the guard record is written, and
        # no generator runs to check these inputs
        for n_paths in (100, 2000):
            with pytest.raises(ValueError, match=message):
                run_covariance_campaign([0.3], [0.5], n_paths=n_paths,
                                        n_terms=n_terms, seed=seed)

    @pytest.mark.parametrize("t_set, message", [
        ([0.5, -0.5], r"times must lie in \[0, 1\], got -0.5"),
        ([0.5, math.nan], "times must be finite"),
    ])
    def test_parseval_and_coefficient_times(self, t_set, message):
        with pytest.raises(ValueError, match=message):
            run_parseval_campaign([0.3], t_set, n_max=512)
        with pytest.raises(ValueError, match=message):
            run_coefficient_campaign([0.3], t_set, n_max=7)


class TestBrownianCampaign:
    def test_small_run_passes(self):
        report = run_brownian_campaign(n_paths=4000, n_terms=255, seed=0)
        assert report.passed
        levy = [r for r in report.records if "levy-ciesielski" in r.name][0]
        assert levy.observed <= 1e-12

    def test_path_floor(self):
        with pytest.raises(ValueError):
            run_brownian_campaign(n_paths=10)
