"""Every flag of the ``validate-*`` commands lands on its campaign
parameter, with the documented defaults."""

import pytest

from fbmhaar import validation
from fbmhaar.cli import main
from fbmhaar.validation import ValidationReport

COEFF_H = (0.1, 0.25, 0.5, 0.75, 0.9)
COEFF_T = (0.0, 0.137, 0.5, 1.0)
TRIPLE_H = (0.3, 0.5, 0.7)


@pytest.mark.parametrize("command, campaign, argv, expected", [
    ("validate-coeffs", "run_coefficient_campaign", (),
     {"h_set": COEFF_H, "t_set": COEFF_T, "n_max": 255, "workers": 0}),
    ("validate-coeffs", "run_coefficient_campaign",
     ("--hurst", "0.3", "--levels", "31", "--workers", "2"),
     {"h_set": [0.3], "t_set": COEFF_T, "n_max": 31, "workers": 2}),
    ("validate-parseval", "run_parseval_campaign", (),
     {"h_set": COEFF_H, "t_set": COEFF_T}),
    ("validate-parseval", "run_parseval_campaign", ("--hurst", "0.75"),
     {"h_set": [0.75], "t_set": COEFF_T}),
    ("validate-covariance", "run_covariance_campaign", (),
     {"h_set": TRIPLE_H, "time_grid": (0.25, 0.5, 0.75, 1.0),
      "n_paths": 20000, "n_terms": 1023, "seed": 0}),
    ("validate-covariance", "run_covariance_campaign",
     ("--hurst", "0.7", "--paths", "5000", "--levels", "63", "--seed", "4"),
     {"h_set": [0.7], "time_grid": (0.25, 0.5, 0.75, 1.0),
      "n_paths": 5000, "n_terms": 63, "seed": 4}),
    ("validate-rate", "run_rate_campaign", (),
     {"h_set": TRIPLE_H, "n_seeds": 32, "seed0": 0}),
    ("validate-rate", "run_rate_campaign",
     ("--hurst", "0.5", "--seeds", "8", "--seed", "3"),
     {"h_set": [0.5], "n_seeds": 8, "seed0": 3}),
    ("validate-brownian", "run_brownian_campaign", (),
     {"n_paths": 10000, "n_terms": 1023, "seed": 0}),
    ("validate-brownian", "run_brownian_campaign",
     ("--paths", "2000", "--levels", "255", "--seed", "5"),
     {"n_paths": 2000, "n_terms": 255, "seed": 5}),
])
def test_flags_land_on_campaign_parameters(command, campaign, argv, expected,
                                           monkeypatch, tmp_path):
    calls = []

    def recorder(*args, **kwargs):
        calls.append((args, kwargs))
        return ValidationReport(campaign="recorded", parameters={})

    monkeypatch.setattr(validation, campaign, recorder)
    assert main([command, *argv, "--out", str(tmp_path / "r.txt")]) == 0
    assert calls == [((), expected)]
