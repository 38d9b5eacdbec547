import json
import math
import warnings

import numpy as np
import pytest

from fbmhaar import validation
from fbmhaar.coefficients import HurstParams
from fbmhaar.expansion import GeneratorConfig, generate_path
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
        report = run_parseval_campaign([0.75], [0.5], n_max=2**10,
                                       ladder=(64,))
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
        assert sizes == [6]  # 3 kinds x 2 instants
        assert report.passed
        # one cell runs in this process, without a pool
        run_coefficient_campaign([0.5], [0.5], n_max=3, workers=4096)
        assert sizes == [6]


class TestParsevalCampaign:
    def test_limit_records_fast_hurst(self):
        report = run_parseval_campaign([0.75], [0.0, 0.5, 1.0], n_max=2**12,
                                       ladder=(64, 128))
        assert report.passed
        limit_records = [r for r in report.records if "limit" in r.name]
        assert len(limit_records) == 2  # t = 0 skipped

    def test_ladder_headroom_guard(self):
        with pytest.raises(ValueError):
            run_parseval_campaign([0.5], [1.0], n_max=128, ladder=(128,))
        # a non-finite time is a usage error, not a failing record
        with pytest.raises(ValueError, match="times must be finite"):
            run_parseval_campaign([0.3], [math.nan], n_max=512)

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

    def test_small_informative_run(self):
        report = run_covariance_campaign([0.5], [0.5, 1.0], n_paths=2000,
                                         n_terms=255, seed=0, band=0.1)
        assert report.passed
        assert any("exact-sampler" in r.name for r in report.records)


class TestRateCampaign:
    def test_ladder_validation(self):
        with pytest.raises(ValueError):
            run_rate_campaign([0.5], n_ladder=(32, 64, 128, 255, 512))
        with pytest.raises(ValueError):
            run_rate_campaign([0.5], n_ladder=(32, 64))

    def test_empty_h_set_rejected_before_noise(self, monkeypatch):
        def no_noise(*args):
            raise AssertionError("noise drawn for an empty campaign")

        monkeypatch.setattr(validation, "draw_bundle", no_noise)
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

    def test_miniature_brownian_rate(self):
        # machinery smoke test on a small ladder; the acceptance suite
        # runs the full-scale version
        grid = np.union1d(np.linspace(0.0, 1.0, 128), np.arange(129) / 128.0)
        report = run_rate_campaign([0.5], n_ladder=(32, 64, 128, 256, 512),
                                   time_grid=grid, n_seeds=8,
                                   slope_tol=0.35)
        assert report.passed
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
        with pytest.raises(ValueError, match=message):
            run_rate_campaign([0.3], n_ladder=(32, 64, 128, 256, 512),
                              time_grid=grid, n_seeds=2)

    def test_rung_sums_equal_path_kernel(self):
        # more instants than RATE_BLOCK, so that three blocks run, spaced
        # 1/129 apart: at dyadic instants the H = 1/2 series is exact from
        # a fine enough rung on; each rung's snapshot must be the path
        # truncated at that rung
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

    def test_default_sup_grid_shape(self):
        grid = default_sup_grid()
        assert grid[0] == 0.0 and grid[-1] == 1.0
        assert np.all(np.diff(grid) > 0)
        assert grid.size > 1024


class TestBrownianCampaign:
    def test_small_run_passes(self):
        report = run_brownian_campaign(n_paths=4000, n_terms=255, seed=0)
        assert report.passed
        levy = [r for r in report.records if "levy-ciesielski" in r.name][0]
        assert levy.observed <= 1e-12

    def test_path_floor(self):
        with pytest.raises(ValueError):
            run_brownian_campaign(n_paths=10)
