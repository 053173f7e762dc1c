"""Tests for repro.core.scoreboard."""

import pytest

from repro.core.scoreboard import Scoreboard


class TestScoreboard:
    def test_empty(self):
        sb = Scoreboard()
        assert len(sb) == 0
        assert "a" not in sb

    def test_update_and_lookup(self):
        sb = Scoreboard()
        sb.publish("a", bw_rate=4.0, demand=6.0, score=2.0)
        assert "a" in sb
        assert sb.mem_bw("a") == 4.0
        assert sb.score("a") == 2.0
        assert sb.entry("a").demand == 6.0

    def test_update_overwrites(self):
        sb = Scoreboard()
        sb.publish("a", bw_rate=4.0, demand=4.0, score=2.0)
        sb.publish("a", bw_rate=1.0, demand=1.0, score=9.0)
        assert sb.mem_bw("a") == 1.0
        assert len(sb) == 1

    def test_remove(self):
        sb = Scoreboard()
        sb.publish("a", bw_rate=4.0, demand=4.0, score=2.0)
        sb.remove("a")
        assert "a" not in sb

    def test_remove_missing_is_noop(self):
        Scoreboard().remove("ghost")

    def test_entry_missing_raises(self):
        with pytest.raises(KeyError):
            Scoreboard().entry("ghost")

    def test_demands_and_scores_maps(self):
        sb = Scoreboard()
        sb.publish("a", bw_rate=2.0, demand=5.0, score=3.0)
        sb.publish("b", bw_rate=4.0, demand=4.0, score=0.5)
        assert sb.demands() == {"a": 5.0, "b": 4.0}
        assert sb.scores() == {"a": 3.0, "b": 0.5}

    def test_publication_order_survives_remove_and_republish(self):
        # Algorithm 2's co-runner sums walk the slots in publication
        # order: a re-publication keeps its slot, a removal closes the
        # gap, and publishing again after removal appends.
        sb = Scoreboard()
        for app, d in (("a", 1.0), ("b", 2.0), ("c", 3.0)):
            sb.publish(app, bw_rate=d, demand=d, score=d)
        sb.publish("a", bw_rate=9.0, demand=9.0, score=9.0)
        assert list(sb.demands().items()) == [
            ("a", 9.0), ("b", 2.0), ("c", 3.0),
        ]
        sb.remove("b")
        sb.publish("b", bw_rate=7.0, demand=8.0, score=6.0)
        assert list(sb.slot_of.items()) == [("a", 0), ("c", 1), ("b", 2)]
        assert sb.demand_list == [9.0, 3.0, 8.0]
        assert sb.score_list == [9.0, 3.0, 6.0]
        assert sb.rate_list == [9.0, 3.0, 7.0]
        assert sb.entry("c").bw_rate == 3.0

    def test_clear(self):
        sb = Scoreboard()
        sb.publish("a", bw_rate=2.0, demand=2.0, score=1.0)
        sb.clear()
        assert len(sb) == 0
        assert sb.demand_list == sb.score_list == sb.rate_list == []

    def test_negative_rate_raises(self):
        with pytest.raises(ValueError):
            Scoreboard().publish("a", bw_rate=-1.0, demand=0.0, score=0.0)

    def test_negative_demand_raises(self):
        with pytest.raises(ValueError):
            Scoreboard().publish("a", bw_rate=1.0, demand=-1.0, score=0.0)
