"""Deadline-blind policies and the timelines a sweep shares.

A policy declaring ``reads_deadlines = False`` must run the same
timeline whatever its tasks' SLA targets.  A serial sweep relies on
that: within one ``run_supervised`` call it simulates each such
timeline once (the *lead* cell) and builds every cell whose tasks
differ only in ``qos_target_cycles`` (a *follower*) from that run.
"""

import random
from dataclasses import fields, replace

import pytest

import repro.sanitizer as sanitizer
from repro.core.latency import track_cache_deltas
from repro.experiments import runner
from repro.experiments.faults import FaultPlan
from repro.experiments.parallel import ParallelRunner, Supervision
from repro.experiments.runner import default_policies, run_cell_detail
from repro.scenarios import get_scenario
from repro.sim.engine import SimResult, Simulator, run_simulation

from test_scenario_properties import generate_tasks, random_spec

#: Everything a run reports except the per-task SLA targets.
_COUNTERS = tuple(
    f.name for f in fields(SimResult)
    if f.name not in ("policy_name", "results", "trace")
)


def _timeline(soc, tasks, policy, mem):
    """A run's per-task schedule and its counters, SLA targets aside,
    and the process-global cache probes the run itself made."""
    policy.reset()
    sim = Simulator(soc, tasks, policy, mem=mem)
    with track_cache_deltas() as probes:
        result = sim.run()
    return (
        [replace(r, qos_target_cycles=1.0) for r in result.results],
        [getattr(result, name) for name in _COUNTERS],
    ), probes


def _scrambled(tasks, rng):
    return [
        replace(t, qos_target_cycles=t.qos_target_cycles
                * rng.uniform(0.05, 20.0))
        for t in tasks
    ]


class TestDeadlineDeclarations:
    def test_blind_policies_ignore_targets_and_the_others_do_not(
        self, soc
    ):
        policies = default_policies()
        blind = {
            name for name, factory in policies.items()
            if not factory().reads_deadlines
        }
        assert blind == {"static", "prema"}
        changed = set()
        for case in range(24):
            spec = random_spec(case)
            tasks, mem = generate_tasks(spec, spec.seeds[0])
            scrambled = _scrambled(tasks, random.Random(case))
            for name, factory in policies.items():
                (own, probes), (other, _) = (
                    _timeline(soc, t, factory(), mem)
                    for t in (tasks, scrambled)
                )
                if name in blind:
                    assert own == other, (case, name)
                    # A follower reports only its generation's cache
                    # probes, which is exact only if the run it skips
                    # would have made none.
                    assert not any(probes.values())
                elif own != other:
                    changed.add(name)
        # A wrong False on either deadline-reading policy would let a
        # sweep share timelines that differ.
        assert changed == set(policies) - blind


def _qos_variants(num_tasks=12, seeds=(1, 2)):
    return [
        replace(get_scenario(f"ref-a-qos-{q}"),
                num_tasks=num_tasks, seeds=seeds)
        for q in "hml"
    ]


@pytest.fixture()
def simulations(monkeypatch):
    """Count the engine runs cells make.  The sanitizer is pinned off:
    under ``REPRO_CHECK=1`` it re-simulates every follower, which would
    count as runs the sweep itself does not make."""
    monkeypatch.setattr(sanitizer, "enabled", False)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[2].name)
        return run_simulation(*args, **kwargs)

    monkeypatch.setattr(runner, "run_simulation", counting)
    return calls


def _without_host_fields(cells):
    return [replace(c, seconds=0.0, worker_pid=0) for c in cells]


#: Engine runs of one serial sweep over :func:`_qos_variants`: every
#: MoCA and Planaria cell (3 QoS levels x 2 seeds each), one Static
#: and one Prema run per seed.
_LEADS = 2 * 3 * 2 + 2 * 2


class TestSharedTimelines:
    def test_serial_sweep_matches_the_reference_cell_for_cell(
        self, serial_reference, reference_cells, simulations
    ):
        specs = _qos_variants()
        # One pass first, so the cache counters below are all warm.
        ParallelRunner(workers=1).run_supervised(specs)
        expected = reference_cells(specs)
        del simulations[:]
        acc = ParallelRunner(workers=1).run_supervised(specs)
        assert len(simulations) == _LEADS
        assert simulations.count("static") == simulations.count("prema") == 2
        assert _without_host_fields(acc.cells()) == expected
        assert acc.matrix() == serial_reference(specs)

    def test_each_call_simulates_its_own_leads(self, simulations):
        specs = _qos_variants()
        runner_ = ParallelRunner(workers=1)
        first = runner_.run_supervised(specs)
        assert len(simulations) == _LEADS
        second = runner_.run_supervised(specs)
        assert len(simulations) == 2 * _LEADS
        assert first.matrix() == second.matrix()

    def test_failed_lead_leaves_followers_correct(
        self, reference_cells, simulations
    ):
        specs = _qos_variants()
        expected = {c.index: c.summary for c in reference_cells(specs)}
        del simulations[:]
        # Cells 0 and 2 are ref-a-qos-h's Prema and Static cells on
        # seed 1: the leads of their groups.
        acc = ParallelRunner(workers=1).run_supervised(
            specs,
            supervision=Supervision(
                max_retries=0,
                fault_plan=FaultPlan.parse(
                    "transient:cells=0,2:attempts=all"
                ),
            ),
        )
        assert sorted(f.index for f in acc.failures()) == [0, 2]
        cells = acc.cells()
        assert len(cells) == len(expected) - 2
        assert all(c.summary == expected[c.index] for c in cells)
        # The QoS-M cells took over as leads: no extra runs.
        assert len(simulations) == _LEADS


class TestSanitizedFollowers:
    def _lead_and_follower(self, soc):
        h, m, _ = _qos_variants(seeds=(1,))
        factory = default_policies()["static"]
        store = {}
        run_cell_detail(h, "static", factory, 1, soc, timelines=store)
        assert len(store) == 1
        return m, factory, store

    def test_checked_follower_matches(self, soc, monkeypatch):
        monkeypatch.setattr(sanitizer, "enabled", True)
        m, factory, store = self._lead_and_follower(soc)
        summary, shared = run_cell_detail(m, "static", factory, 1, soc,
                                          timelines=store)
        fresh_summary, fresh = run_cell_detail(m, "static", factory, 1, soc)
        assert summary == fresh_summary
        assert shared.results == fresh.results
        assert all(
            getattr(shared, f.name) == getattr(fresh, f.name)
            for f in fields(SimResult) if f.name != "trace"
        )

    def test_divergent_lead_caught(self, soc, monkeypatch):
        monkeypatch.setattr(sanitizer, "enabled", True)
        m, factory, store = self._lead_and_follower(soc)
        (key, (tasks, lead)), = store.items()
        store[key] = (tasks, replace(lead, events=lead.events + 1))
        with pytest.raises(sanitizer.SanitizerError, match="'events'"):
            run_cell_detail(m, "static", factory, 1, soc, timelines=store)
