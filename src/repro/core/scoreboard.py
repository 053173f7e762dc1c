"""The MoCA runtime's scoreboard.

Section IV-A: *"MoCA uses a lightweight software look-up table for the
scoreboard that is used to manage the bandwidth usage of each
application"*.  Each entry tracks an application's current DRAM
bandwidth rate (``BW_rate``, bytes/cycle), its unthrottled demand and
its dynamic priority score; Algorithm 2 reads co-runners' entries when
deciding how to shed overflow bandwidth and writes its own entry back
(``UpdateScoreboard``) after each layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List


@dataclass(frozen=True, slots=True)
class ScoreboardEntry:
    """A snapshot of one application's published state.

    Attributes:
        bw_rate: Currently allocated DRAM bandwidth rate, bytes/cycle.
        demand: Unthrottled DRAM bandwidth demand, bytes/cycle.
        score: Dynamic priority score (Alg. 2 line 6).
    """

    bw_rate: float
    demand: float
    score: float


class Scoreboard:
    """Lookup table of per-application bandwidth usage and scores.

    The table is stored in publication order as parallel columns:
    slot ``i`` of :attr:`demand_list`, :attr:`score_list` and
    :attr:`rate_list` belongs to the application that
    :attr:`slot_of` maps to ``i``, and ``slot_of`` iterates in slot
    order.  An application keeps its slot when it re-publishes and
    goes to the end when it publishes again after :meth:`remove`.
    Every co-runner sum Algorithm 2 takes walks the slots in this
    order, so the floats do not depend on who reads the table.

    The columns are read-only for callers; write through
    :meth:`publish`.

    Attributes:
        slot_of: Application id -> slot index, in slot order.
        demand_list: Published unthrottled demands, bytes/cycle.
        score_list: Published dynamic scores.
        rate_list: Published allocated bandwidth rates, bytes/cycle.
    """

    def __init__(self) -> None:
        self.slot_of: Dict[str, int] = {}
        self.demand_list: List[float] = []
        self.score_list: List[float] = []
        self.rate_list: List[float] = []

    def __len__(self) -> int:
        return len(self.slot_of)

    def __contains__(self, app_id: str) -> bool:
        return app_id in self.slot_of

    def publish(
        self, app_id: str, bw_rate: float, demand: float, score: float
    ) -> None:
        """Publish an application's bandwidth state and dynamic score
        (Alg. 2 line 25): overwrite its slot, or append a new one."""
        if bw_rate < 0:
            raise ValueError("bw_rate must be non-negative")
        if demand < 0:
            raise ValueError("demand must be non-negative")
        i = self.slot_of.get(app_id)
        if i is None:
            self.slot_of[app_id] = len(self.demand_list)
            self.demand_list.append(demand)
            self.score_list.append(score)
            self.rate_list.append(bw_rate)
        else:
            self.demand_list[i] = demand
            self.score_list[i] = score
            self.rate_list[i] = bw_rate

    def remove(self, app_id: str) -> None:
        """Drop an application (it finished or was preempted); the
        slots after it move up one, keeping their order."""
        i = self.slot_of.pop(app_id, None)
        if i is None:
            return
        del self.demand_list[i]
        del self.score_list[i]
        del self.rate_list[i]
        for app, j in self.slot_of.items():
            if j > i:
                self.slot_of[app] = j - 1

    def entry(self, app_id: str) -> ScoreboardEntry:
        """Fetch a snapshot of one application's entry."""
        i = self.slot_of.get(app_id)
        if i is None:
            raise KeyError(f"no scoreboard entry for {app_id!r}")
        return ScoreboardEntry(
            bw_rate=self.rate_list[i],
            demand=self.demand_list[i],
            score=self.score_list[i],
        )

    def mem_bw(self, app_id: str) -> float:
        """``MEM_BW(App_j)`` — an app's published bandwidth rate."""
        return self.entry(app_id).bw_rate

    def score(self, app_id: str) -> float:
        """``score(App_j)`` — an app's published dynamic score."""
        return self.entry(app_id).score

    def demands(self) -> Dict[str, float]:
        """All published demands, keyed by app id, in slot order."""
        return dict(zip(self.slot_of, self.demand_list))

    def scores(self) -> Dict[str, float]:
        """All published dynamic scores, keyed by app id, in slot
        order."""
        return dict(zip(self.slot_of, self.score_list))

    def clear(self) -> None:
        """Drop every entry (simulation reset)."""
        self.slot_of.clear()
        self.demand_list.clear()
        self.score_list.clear()
        self.rate_list.clear()
