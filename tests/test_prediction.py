"""Tests for the runtime table's remaining-latency suffix columns
(Algorithm 2's ``remain_prediction``, read by MoCA and Planaria)."""

import pytest

from repro.config import DEFAULT_SOC
from repro.core.latency import build_network_cost
from repro.memory.hierarchy import MemoryHierarchy
from repro.models.zoo import build_model, model_names

SOC = DEFAULT_SOC
MEM = MemoryHierarchy.from_soc(SOC)
POINT = (MEM.dram_bandwidth, MEM.l2_bandwidth, SOC.overlap_f)


def _table(name):
    cost = build_network_cost(build_model(name), SOC, MEM)
    return cost, cost.runtime_table(*POINT, SOC.num_tiles)


@pytest.fixture()
def squeezenet():
    return _table("squeezenet")


class TestRemainingPrediction:
    def test_matches_direct_sum(self):
        """For every zoo network and tile count, the column is
        bit-identical to the right-to-left sum of
        ``BlockCost.predict`` from 0.0."""
        for name in model_names():
            cost, table = _table(name)
            assert len(table.remain_cols) == SOC.num_tiles
            for tiles in range(1, SOC.num_tiles + 1):
                want = [0.0]
                for block in reversed(cost.blocks):
                    want.append(want[-1] + block.predict(tiles, *POINT))
                want.reverse()
                assert table.remain_cols[tiles - 1] == want, (name, tiles)
                assert table.remain_cols[tiles - 1][-1] == 0.0

    def test_total_is_remaining_from_zero(self, squeezenet):
        cost, table = squeezenet
        assert table.remain_cols[1][0] == pytest.approx(
            cost.total_prediction(2, *POINT)
        )

    def test_end_is_zero(self, squeezenet):
        cost, table = squeezenet
        for col in table.remain_cols:
            assert len(col) == len(cost.blocks) + 1
            assert col[-1] == 0.0

    def test_monotone_decreasing(self, squeezenet):
        _, table = squeezenet
        values = table.remain_cols[1]
        assert values == sorted(values, reverse=True)

    def test_more_tiles_less_remaining(self, squeezenet):
        _, table = squeezenet
        assert table.remain_cols[7][0] <= table.remain_cols[0][0]
