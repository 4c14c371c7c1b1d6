"""Scenario generators and study runners."""

import numpy as np
import pytest

from calibwalk.simulation import (
    SimulationScenario,
    family_risk_and_predictions,
    generate_dataset,
    pvalue_ecdf,
    run_null_study,
    run_power_study,
    run_scenario,
)


class TestScenarioValidation:
    def test_rejects_bad_fields(self):
        good = dict(family="null", n=10, replications=5, seed=0)
        SimulationScenario(**good)
        with pytest.raises(ValueError):
            SimulationScenario(**{**good, "family": "cauchy"})
        with pytest.raises(ValueError):
            SimulationScenario(**{**good, "n": 0})
        with pytest.raises(ValueError):
            SimulationScenario(**{**good, "replications": 0})
        with pytest.raises(ValueError):
            SimulationScenario(**{**good, "alpha": 1.0})
        with pytest.raises(ValueError):
            SimulationScenario(family="logit_linear", n=10, replications=5,
                               seed=0, b=0.0)
        with pytest.raises(ValueError, match="n=9 is smaller than groups=10"):
            SimulationScenario(family="logit_power", n=9, replications=5,
                               seed=0)


class TestGenerators:
    def test_identity_transform_logit_linear(self):
        scenario = SimulationScenario(family="logit_linear", n=100,
                                      replications=1, seed=0, a=0.0, b=1.0)
        x = np.linspace(-3, 3, 100)
        risk, predictions = family_risk_and_predictions(scenario, x)
        np.testing.assert_array_equal(risk, predictions)

    def test_identity_transform_logit_power(self):
        scenario = SimulationScenario(family="logit_power", n=100,
                                      replications=1, seed=0, a=0.0, b=1.0)
        x = np.linspace(-3, 3, 100)
        risk, predictions = family_risk_and_predictions(scenario, x)
        np.testing.assert_allclose(predictions, risk, atol=1e-15)

    def test_null_family_predicts_true_risk(self):
        scenario = SimulationScenario(family="null", n=50, replications=1,
                                      seed=0, beta0=-1.0)
        x = np.linspace(-2, 2, 50)
        risk, predictions = family_risk_and_predictions(scenario, x)
        assert risk is predictions

    def test_generate_is_deterministic(self):
        scenario = SimulationScenario(family="logit_power", n=200,
                                      replications=3, seed=42, a=0.1, b=2.0)
        d1 = generate_dataset(scenario, 2)
        d2 = generate_dataset(scenario, 2)
        np.testing.assert_array_equal(d1.predictions, d2.predictions)
        np.testing.assert_array_equal(d1.outcomes, d2.outcomes)

    def test_replicates_differ(self):
        scenario = SimulationScenario(family="null", n=100, replications=2,
                                      seed=42, beta0=0.0)
        d1 = generate_dataset(scenario, 0)
        d2 = generate_dataset(scenario, 1)
        assert not np.array_equal(d1.predictions, d2.predictions)

    def test_replicate_streams_do_not_depend_on_order(self):
        scenario = SimulationScenario(family="null", n=30, replications=5,
                                      seed=9, beta0=-1.0)
        forward = [generate_dataset(scenario, r).predictions
                   for r in range(5)]
        backward = [generate_dataset(scenario, r).predictions
                    for r in reversed(range(5))]
        for r in range(5):
            np.testing.assert_array_equal(forward[r], backward[4 - r])

    def test_mean_prediction_tracks_intercept(self):
        scenario = SimulationScenario(family="null", n=200_000,
                                      replications=1, seed=3, beta0=-1.0)
        data = generate_dataset(scenario, 0)
        assert float(data.predictions.mean()) == pytest.approx(0.303, abs=0.005)


class TestStudies:
    def test_null_study_is_reproducible(self):
        first = run_null_study([-1.0], [60], replications=40, seed=5)
        second = run_null_study([-1.0], [60], replications=40, seed=5)
        assert first == second
        np.testing.assert_array_equal(first[0].pvalues["bm"],
                                      second[0].pvalues["bm"])

    def test_degenerate_single_replication(self):
        summary = run_null_study([0.0], [20], replications=1, seed=1)[0]
        for name in ("bm", "bb"):
            assert len(summary.pvalues[name]) == 1
            assert summary.rejections[name] in (0.0, 1.0)

    def test_grid_shape_and_validation(self):
        summaries = run_null_study([-1.0, 0.0], [20, 30], replications=2,
                                   seed=0)
        assert len(summaries) == 4
        with pytest.raises(ValueError):
            run_null_study([], [100], replications=2, seed=0)
        with pytest.raises(ValueError):
            run_power_study("logit_linear", [0.0], [], [100],
                            replications=2, seed=0)
        with pytest.raises(ValueError):
            run_power_study("null", [0.0], [1.0], [100], replications=2,
                            seed=0)

    def test_standard_error_bound_at_2500(self):
        summary = run_null_study([-1.0], [50], replications=2500, seed=2)[0]
        assert all(se <= 0.01 for se in summary.standard_errors.values())

    def test_power_study_runs_all_tests(self):
        summary = run_power_study("logit_linear", [0.0], [1.0], [60],
                                  replications=5, seed=1)[0]
        assert set(summary.rejections) == {"lr", "hl", "bm", "bb"}
        assert summary.lr_failures >= 0

    def test_lr_failures_counted_as_nonrejection(self):
        # tiny samples make complete separation likely; 10 rows is the
        # least the Hosmer-Lemeshow comparator of a power cell needs
        scenario = SimulationScenario(family="logit_linear", n=10,
                                      replications=60, seed=3, a=0.0, b=1.0)
        summary = run_scenario(scenario)
        assert summary.lr_failures > 0
        failures = int(np.count_nonzero(summary.pvalues["lr"] == 1.0))
        assert failures >= summary.lr_failures


class TestPvalueEcdf:
    def test_point_mass(self):
        grid, values = pvalue_ecdf([0.5] * 10)
        assert values[grid < 0.5].max() == 0.0
        assert values[grid >= 0.5].min() == 1.0

    def test_two_point_sample(self):
        grid, values = pvalue_ecdf([0.25, 0.75])
        inside = (grid >= 0.25) & (grid < 0.75)
        np.testing.assert_array_equal(values[inside], 0.5)

    def test_grid_size(self):
        grid, values = pvalue_ecdf([0.1])
        assert grid.shape == values.shape == (512,)

    def test_uniform_sample_tracks_identity(self):
        rng = np.random.default_rng(12)
        grid, values = pvalue_ecdf(rng.random(100_000))
        assert np.max(np.abs(values - grid)) < 0.01

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            pvalue_ecdf([])
