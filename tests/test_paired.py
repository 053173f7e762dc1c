"""The paired benchmark comparison's statistics and verdict rules
(scripts/paired.py); the benchmark runs themselves are not exercised."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "paired.py"


@pytest.fixture(scope="module")
def paired():
    spec = importlib.util.spec_from_file_location("_paired", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


LOWER = {"better": "lower", "unit": "s", "bound": 0.25}
HIGHER = {"better": "higher", "unit": "1/s", "bound": 0.25}


class TestJudge:
    def test_specs_cover_benchmark_metrics(self, paired):
        specs = paired.load_metric_specs()
        assert specs["sweep_s"]["bound"] == 0.25
        assert "bound" not in specs["core.policy.moca.decide_us"]

    def test_clear_gain_is_claimable(self, paired):
        parent = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2]
        change = [v - 2.0 for v in parent]
        r = paired.judge(parent, change, LOWER)
        assert r["wins"] == 10
        assert r["claim_holds"]
        assert r["within_bound"]
        assert r["median_gain"] == pytest.approx(0.2, abs=0.01)

    def test_gain_inside_parent_spread_is_not_claimable(self, paired):
        parent = [8.0, 12.0] * 5
        change = [v - 0.5 for v in parent]
        r = paired.judge(parent, change, LOWER)
        assert r["wins"] == 10
        assert not r["claim_holds"]

    def test_fewer_than_ten_pairs_claim_nothing(self, paired):
        r = paired.judge([10.0] * 9, [5.0] * 9, LOWER)
        assert r["wins"] == 9
        assert not r["claim_holds"]

    def test_one_lost_pair_in_ten_still_claims(self, paired):
        parent = [10.0] * 10
        change = [8.0] * 9 + [10.5]
        assert paired.judge(parent, change, LOWER)["claim_holds"]
        change = [8.0] * 8 + [10.5, 10.5]
        assert not paired.judge(parent, change, LOWER)["claim_holds"]

    def test_regression_past_bound(self, paired):
        parent = [100.0, 101.0, 99.0]
        r = paired.judge(parent, [130.0, 131.0, 129.0], LOWER)
        assert r["within_bound"] is False
        r = paired.judge(parent, [120.0, 121.0, 119.0], LOWER)
        assert r["within_bound"] is True

    def test_spread_above_bound_is_unresolved(self, paired):
        parent = [60.0, 100.0, 140.0, 100.0, 60.0, 140.0]
        r = paired.judge(parent, list(parent), LOWER)
        assert r["within_bound"] and r["unresolved"]
        # Unless every run of the change beats every run of the parent.
        r = paired.judge(parent, [v / 3 for v in parent], LOWER)
        assert not r["unresolved"]
        r = paired.judge([100.0, 101.0], [100.5, 100.2], LOWER)
        assert not r["unresolved"]

    def test_higher_is_better_orientation(self, paired):
        r = paired.judge([100.0] * 4, [70.0] * 4, HIGHER)
        assert r["median_gain"] == pytest.approx(-0.3)
        assert r["within_bound"] is False
        r = paired.judge([100.0] * 4, [130.0] * 4, HIGHER)
        assert r["wins"] == 4 and r["median_gain"] > 0

    def test_per_layer_metric_has_no_bound(self, paired):
        r = paired.judge([1.0, 2.0], [3.0, 4.0], {"better": "lower",
                                                 "unit": "us"})
        assert r["within_bound"] is None
