"""Tests for repro.sim.qos (SLA target construction)."""

import pytest

from repro.config import DEFAULT_SOC
from repro.models.zoo import build_model, model_names
from repro.sim.qos import QosLevel, QosModel


class TestQosLevel:
    def test_multipliers_match_paper(self):
        assert QosLevel.HARD.multiplier == 0.8
        assert QosLevel.MEDIUM.multiplier == 1.0
        assert QosLevel.LIGHT.multiplier == 1.2

    def test_labels(self):
        assert QosLevel.HARD.value == "QoS-H"
        assert QosLevel.MEDIUM.value == "QoS-M"
        assert QosLevel.LIGHT.value == "QoS-L"


class TestQosModel:
    def test_target_ordering(self, mem):
        qos = QosModel(DEFAULT_SOC)
        net = build_model("resnet50")
        hard = qos.target(net, QosLevel.HARD, mem)
        medium = qos.target(net, QosLevel.MEDIUM, mem)
        light = qos.target(net, QosLevel.LIGHT, mem)
        assert hard < medium < light

    def test_target_scales_by_multiplier(self, mem):
        qos = QosModel(DEFAULT_SOC)
        net = build_model("kws")
        base = qos.baseline_target(net, mem)
        assert qos.target(net, QosLevel.HARD, mem) == pytest.approx(0.8 * base)
        assert qos.target(net, QosLevel.LIGHT, mem) == pytest.approx(1.2 * base)

    def test_baseline_uses_slack(self, mem):
        tight = QosModel(DEFAULT_SOC, slack_factor=1.0)
        loose = QosModel(DEFAULT_SOC, slack_factor=4.0)
        net = build_model("kws")
        assert loose.baseline_target(net, mem) == pytest.approx(
            4.0 * tight.baseline_target(net, mem)
        )

    def test_isolated_latency_defaults_to_full_soc(self, mem):
        qos = QosModel(DEFAULT_SOC)
        net = build_model("squeezenet")
        full = qos.isolated_latency(net, mem)
        two = qos.isolated_latency(net, mem, num_tiles=2)
        assert full < two

    @pytest.mark.parametrize("name", model_names())
    def test_targets_positive_for_all_models(self, mem, name):
        qos = QosModel(DEFAULT_SOC)
        assert qos.target(build_model(name), QosLevel.MEDIUM, mem) > 0

    def test_heavier_models_get_larger_targets(self, mem):
        qos = QosModel(DEFAULT_SOC)
        light = qos.baseline_target(build_model("yolo_lite"), mem)
        heavy = qos.baseline_target(build_model("yolov2"), mem)
        assert heavy > light

    def test_invalid_reference_tiles(self):
        with pytest.raises(ValueError):
            QosModel(DEFAULT_SOC, reference_tiles=0)

    def test_invalid_slack(self):
        with pytest.raises(ValueError):
            QosModel(DEFAULT_SOC, slack_factor=0.0)

    def test_from_cost_consistent(self, mem):
        from repro.core.latency import build_network_cost

        qos = QosModel(DEFAULT_SOC)
        net = build_model("kws")
        cost = build_network_cost(net, DEFAULT_SOC, mem)
        assert qos.isolated_latency_from_cost(cost, mem) == pytest.approx(
            qos.isolated_latency(net, mem)
        )


class TestRuntimeTablePath:
    """Isolated latencies are read off the network's runtime table,
    the one memo of Algorithm 1."""

    @pytest.mark.parametrize("name", model_names())
    def test_table_sum_equals_total_prediction(self, mem, name):
        from repro.core.latency import build_network_cost

        qos = QosModel(DEFAULT_SOC)
        cost = build_network_cost(build_model(name), DEFAULT_SOC, mem)
        for tiles in range(1, DEFAULT_SOC.num_tiles + 1):
            want = cost.total_prediction(
                tiles, mem.dram_bandwidth, mem.l2_bandwidth,
                DEFAULT_SOC.overlap_f,
            )
            got = qos.isolated_latency_from_cost(cost, mem, tiles)
            assert got.hex() == want.hex(), tiles

    @pytest.mark.parametrize("tiles", [0, -1, DEFAULT_SOC.num_tiles + 1])
    def test_out_of_range_tiles_refused(self, mem, tiles):
        qos = QosModel(DEFAULT_SOC)
        with pytest.raises(ValueError, match="num_tiles must be in"):
            qos.isolated_latency(build_model("kws"), mem, num_tiles=tiles)
