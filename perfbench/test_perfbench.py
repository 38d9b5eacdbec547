"""Self-tests of the benchmark: python3 -m pytest perfbench -q"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import child  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from fbmhaar import coefficients, expansion  # noqa: E402


# -- tail-percentile rule ----------------------------------------------------

@pytest.mark.parametrize("n, expected", [
    (0, None), (19, None), (20, (50.0, 10)), (39, (50.0, 20)),
    (40, (75.0, 30)), (100, (90.0, 90)), (199, (90.0, 180)),
    (200, (95.0, 190)), (1000, (99.0, 990)), (10000, (99.9, 9990)),
])
def test_tail_is_highest_ladder_percentile_with_ten_beyond(n, expected):
    samples = list(range(n, 0, -1))  # 1..n, unsorted
    got = child.tail_percentile(samples)
    assert got == expected
    if got is not None:
        assert sum(1 for x in samples if x > got[1]) >= 10


# -- self-time arithmetic ----------------------------------------------------

def _span(key, thread, start, end, parent=None, layer="layer"):
    s = tracing.Span(key, layer, thread, start, parent, 0)
    s.end = end
    return s


def test_self_times_on_nested_spans_across_two_threads():
    main, worker = 1, 2
    root = _span("root", main, 0.0, 10.0)
    c1 = _span("c1", main, 1.0, 4.0, root)
    grandchild = _span("g", main, 2.0, 3.0, c1)
    c2 = _span("c2", main, 5.0, 6.0, root)
    # opened on a worker thread while root was open: causal parent only
    w = _span("w", worker, 2.0, 7.0, root)
    w1 = _span("w1", worker, 3.0, 4.0, w)
    spans = [root, c1, grandchild, c2, w, w1]

    selfs = tracing.self_times(spans)
    assert [selfs[id(s)] for s in spans] == [6.0, 2.0, 1.0, 1.0, 4.0, 1.0]

    acc = tracing.request_accounts(spans, wall=12.0, root_thread=main)
    assert acc["untraced_s"] == 2.0
    assert acc["root_self_s"] + acc["untraced_s"] == acc["wall_s"]
    # the worker thread's self time comes on top of the request thread's
    assert acc["thread_s"] == 17.0


# -- tracer on the real package ----------------------------------------------

def test_tracer_wraps_every_binding_and_restores_it():
    blocks = dict(coefficients._BLOCKS)
    originals = (expansion.coeff_matrix, coefficients.dyadic_arrays)
    tr = tracing.Tracer()
    assert tr.missing == []
    tr.install(0)
    try:
        assert coefficients._BLOCKS != blocks
        assert expansion.coeff_matrix is not originals[0]
        config = expansion.GeneratorConfig(
            params=coefficients.HurstParams.from_hurst(0.3), n_terms=15,
            seed=3, workers=1)
        expansion.generate_path(np.linspace(0.0, 1.0, 5), config)
    finally:
        tr.uninstall()
    assert coefficients._BLOCKS == blocks
    assert (expansion.coeff_matrix, coefficients.dyadic_arrays) == originals

    values, notes = tracing.span_metrics(tr, [0])
    assert notes == []
    assert values["coefficients.entries"] == 3 * 5 * 16
    assert values["noise.variates"] == 3 * 16 + 1
    assert values["noise.calls"] == 1
    assert values["expansion.terms"] == 5 * (3 * 15 + 2)
    assert values["coefficients.block_mb"] == 5 * 16 * 8 / tracing.MB
    names = {s.key.split(":")[1] for s in tr.spans}
    assert {"generate_path", "coeff_matrix", "f1_block", "f2_block",
            "g_block", "dyadic_arrays", "draw_bundle",
            "stream_normals"} <= names


def test_missing_function_gives_null_metrics_with_a_note(monkeypatch):
    monkeypatch.delattr(sys.modules["fbmhaar.noise"], "stream_normals")
    tr = tracing.Tracer()
    assert tr.missing == ["fbmhaar.noise:stream_normals"]
    tr.install(0)
    tr.uninstall()
    values, notes = tracing.span_metrics(tr, [0])
    assert values["noise.variates"] is None
    assert values["haar.self_s"] == 0.0
    assert notes == [f"{m}: fbmhaar.noise:stream_normals no longer exists"
                     for m in ("noise.calls", "noise.variates",
                               "noise.self_s", "noise.share")]


# -- reference formula -------------------------------------------------------

@pytest.mark.parametrize("hurst", [0.3, 0.5, 0.7])
def test_reference_matches_generate_path(hurst):
    times = np.linspace(0.0, 1.0, 17)
    config = expansion.GeneratorConfig(
        params=coefficients.HurstParams.from_hurst(hurst), n_terms=63,
        seed=11, workers=1)
    got = expansion.generate_path(times, config).values
    want = workloads.reference_values(times, hurst, 63, 11)
    assert workloads.reference_failures("path", times, got, want) == []
    assert want[0] == 0.0


# -- expected campaign verdicts ----------------------------------------------

def test_expected_verdicts_are_those_of_the_acceptance_suite():
    expected = json.loads(workloads.EXPECTED_VERDICTS.read_text())
    assert set(expected) == set(workloads.CRITERIA)
    assert all(expected["criterion-1"].values())
    assert all(expected["criterion-3"].values())
    assert all(expected["criterion-6"].values())
    # criterion 2 reports FAIL: 5 of its 42 checks, the Parseval limits at
    # H = 0.1 and H = 0.25
    failing = sorted(k for k, ok in expected["criterion-2"].items() if not ok)
    assert len(expected["criterion-2"]) == 42
    assert failing == [f"parseval-limit/H={h}/t={t}"
                       for h, ts in ((0.1, (0.137, 0.5, 1.0)),
                                     (0.25, (0.137, 0.5)))
                       for t in ts]
