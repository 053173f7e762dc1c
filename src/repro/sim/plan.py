"""Declarative allocation plans and the controller that applies them.

MoCA's core claim is that a lightweight runtime can repartition
compute and memory at *regulated* decision points.  Policies never
mutate engine state; this module is the seam between them:

- :class:`AllocationPlan` is a frozen, diffable value object — *what*
  the policy wants (admissions, per-job tile counts, bandwidth caps,
  preemptions, extra stalls).  It generalises
  :class:`repro.core.runtime.RuntimeDecision` from a single
  application's throttle configuration to a whole-SoC decision.
- :class:`AllocationController` is the engine-side applicator: it
  diffs a plan against live simulator state, applies the differences
  atomically in a canonical order, charges compute/memory
  reconfiguration costs *centrally* (saturating within one
  simulation instant), and bumps the
  allocation epoch **once per applied plan** instead of once per
  mutation.
- :class:`DecisionCadence` makes the decision *schedule* explicit and
  configurable: every event (the default), block boundaries only, or
  a fixed cycle interval.

Policies implement :meth:`repro.sim.policy.Policy.decide` and never
touch engine state; the engine consults the cadence, collects the
plan, and hands it to the controller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    List,
    Optional,
    Tuple,
)

import repro.sanitizer as sanitizer
from repro.sim.job import JobPhase
from repro.sim.trace import TraceEvent

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Simulator
    from repro.sim.job import Job


def _simulation_error(message: str) -> Exception:
    """A :class:`~repro.sim.engine.SimulationError` (imported lazily:
    the engine imports this module)."""
    from repro.sim.engine import SimulationError

    return SimulationError(message)


#: Recognised decision-cadence modes (see :class:`DecisionCadence`).
CADENCE_MODES = ("every-event", "block-boundary", "interval")


@dataclass(frozen=True)
class DecisionCadence:
    """When the engine consults its policy for a new plan.

    Attributes:
        mode: One of :data:`CADENCE_MODES`:

            - ``"every-event"`` — consult at every simulation event
              (dispatch, block completion, stall expiry).  The
              default; pinned by the golden suite.
            - ``"block-boundary"`` — consult only when a layer block
              retired (or a job finished) since the last decision,
              the paper's "regulated interval": reconfiguration
              happens at checkpoints, and events that cannot change
              the decision inputs reuse the allocation-epoch cache.
            - ``"interval"`` — consult at most once per ``interval``
              cycles (evaluated at event granularity; the engine
              never fabricates events just to make a decision).

        interval: Regulation period in cycles; required (positive)
            for ``"interval"`` mode, meaningless otherwise.

    Whatever the mode, the engine always consults the policy while
    **nothing is running** — a cadence that could sit on a non-empty
    ready queue forever would deadlock admission, not regulate it.
    """

    mode: str = "every-event"
    interval: Optional[float] = None

    def __post_init__(self) -> None:
        if self.mode not in CADENCE_MODES:
            raise ValueError(
                f"unknown cadence mode {self.mode!r}; "
                f"choose from {', '.join(CADENCE_MODES)}"
            )
        if self.mode == "interval":
            # not (x > 0) also rejects NaN; isfinite rejects inf —
            # either would silently disable decisions while jobs run.
            if (
                self.interval is None
                or not (self.interval > 0)
                or not math.isfinite(self.interval)
            ):
                raise ValueError(
                    "interval cadence needs a positive, finite "
                    "interval (cycles)"
                )
        elif self.interval is not None:
            raise ValueError(
                f"cadence mode {self.mode!r} takes no interval"
            )

    @classmethod
    def parse(cls, text: str) -> "DecisionCadence":
        """Build a cadence from its CLI spelling.

        ``"every-event"`` / ``"block-boundary"`` name the modes
        directly; ``"interval:CYCLES"`` (e.g. ``interval:5e6``)
        carries the period inline.
        """
        text = text.strip()
        if text.startswith("interval:"):
            raw = text[len("interval:"):]
            try:
                return cls(mode="interval", interval=float(raw))
            except ValueError as exc:
                raise ValueError(
                    f"bad interval cadence {text!r}: {exc}"
                ) from None
        if text == "interval":
            raise ValueError(
                "interval cadence needs a period: use interval:CYCLES "
                "(e.g. interval:5e6)"
            )
        return cls(mode=text)

    @property
    def key(self) -> str:
        """Canonical string form (round-trips through :meth:`parse`).

        The interval is rendered with ``repr`` — exact for any float,
        where ``%g`` would corrupt intervals beyond 6 significant
        digits on the way back through :meth:`parse`.
        """
        if self.mode == "interval":
            return f"interval:{self.interval!r}"
        return self.mode


#: The default cadence: decide at every simulation event.
EVERY_EVENT = DecisionCadence()


def _pairs(
    value: Iterable, what: str
) -> Tuple[Tuple, ...]:
    """Normalise a plan field to a tuple of (job_id, value) pairs."""
    out = []
    for item in value:
        pair = item if type(item) is tuple else tuple(item)
        if len(pair) != 2 or not isinstance(pair[0], str):
            raise ValueError(
                f"{what} entries must be (job_id, value) pairs, "
                f"got {item!r}"
            )
        out.append(pair)
    return tuple(out)


def _check_unique(ids: List[str], what: str) -> None:
    if len(set(ids)) != len(ids):
        dup = sorted({i for i in ids if ids.count(i) > 1})
        raise ValueError(f"duplicate job(s) in plan {what}: {dup}")


@dataclass(frozen=True)
class AllocationPlan:
    """One policy decision: the allocation changes to apply, as data.

    Every field is a *partial overlay* — a job absent from a field
    means "no opinion, leave it alone".  All fields are tuples of
    primitives, so plans are hashable, picklable and diffable
    (two plans compare equal iff they request the same changes).
    This generalises :class:`repro.core.runtime.RuntimeDecision` —
    one application's throttle configuration — to the whole SoC:
    admissions, compute repartitions, memory throttles and
    preemptions in a single atomic unit.

    Attributes:
        preemptions: Job ids to return to the ready queue.
        admissions: ``((job_id, tiles), ...)`` READY jobs to start,
            applied in order (order matters: it fixes the engine's
            running-list order and therefore arbiter iteration).
        tiles: ``((job_id, tiles), ...)`` target tile counts for
            running jobs.  Entries equal to the live count are
            no-ops and charge nothing.
        bw_caps: ``((job_id, cap), ...)`` target memory-throttle
            caps (bytes/cycle; ``None`` lifts the throttle).
            Entries equal to the live cap are no-ops.
        stalls: ``((job_id, cycles), ...)`` extra stalls to charge
            (e.g. PREMA's checkpoint/restore overhead on a
            preemptive switch); extension semantics, like
            :meth:`~repro.sim.engine.Simulator.stall_job`.

    A job may be both preempted and re-admitted in one plan (it is
    returned to the ready queue, then started again — the paper's
    checkpoint-and-restart at a different allocation).  A job may be
    admitted and re-tiled in one plan (the retile applies after the
    admission and charges the migration stall).  A job may not appear
    twice within one field.
    """

    preemptions: Tuple[str, ...] = ()
    admissions: Tuple[Tuple[str, int], ...] = ()
    tiles: Tuple[Tuple[str, int], ...] = ()
    bw_caps: Tuple[Tuple[str, Optional[float]], ...] = ()
    stalls: Tuple[Tuple[str, float], ...] = ()

    # Not a dataclass field (unannotated): equality/repr/pickling of
    # plans is unaffected.  Instances built through :meth:`trusted`
    # shadow it with True.
    _trusted = False

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "preemptions", tuple(self.preemptions)
        )
        for name in ("admissions", "tiles", "bw_caps", "stalls"):
            object.__setattr__(
                self, name, _pairs(getattr(self, name), name)
            )
        for jid in self.preemptions:
            if not isinstance(jid, str):
                raise ValueError(
                    f"preemptions entries must be job ids, got {jid!r}"
                )
        _check_unique(list(self.preemptions), "preemptions")
        for name in ("admissions", "tiles", "bw_caps", "stalls"):
            _check_unique(
                [jid for jid, _ in getattr(self, name)], name
            )
        preempted = set(self.preemptions)
        retiled = {jid for jid, _ in self.tiles}
        conflict = sorted(preempted & retiled)
        if conflict:
            raise ValueError(
                f"plan both preempts and re-tiles {conflict}; a "
                f"preempted job holds no tiles — re-admit it instead"
            )

    @classmethod
    def trusted(
        cls,
        preemptions: Tuple[str, ...] = (),
        admissions: Tuple[Tuple[str, int], ...] = (),
        tiles: Tuple[Tuple[str, int], ...] = (),
        bw_caps: Tuple[Tuple[str, Optional[float]], ...] = (),
        stalls: Tuple[Tuple[str, float], ...] = (),
    ) -> "AllocationPlan":
        """Build a plan skipping field validation (the hot path).

        Policies construct a plan at every decision point, and the
        public constructor's normalisation — per-pair tuple coercion,
        uniqueness checks, the preempt/retile conflict scan — was
        ~10% of the engine's event loop.  Policies that build their
        plans from live simulator state already satisfy those
        invariants by construction, so the internal seam pays the
        validation cost only at the API boundary (plans arriving from
        outside code go through ``AllocationPlan(...)`` unchanged).

        Callers MUST pass tuples of tuples in the already-normalised
        shape; the only coercion performed is the outer ``tuple()``
        (free for tuple inputs).  The
        :class:`AllocationController` resolves trusted plans with
        direct job-table indexing (an unknown id still fails cleanly)
        and skips the finished-job re-check, which trusted callers
        guarantee by only planning over live ``sim.ready`` /
        ``sim.running`` jobs.
        """
        plan = object.__new__(cls)
        st = object.__setattr__
        st(plan, "preemptions", tuple(preemptions))
        st(plan, "admissions", tuple(admissions))
        st(plan, "tiles", tuple(tiles))
        st(plan, "bw_caps", tuple(bw_caps))
        st(plan, "stalls", tuple(stalls))
        st(plan, "_trusted", True)
        return plan

    @property
    def is_empty(self) -> bool:
        """Whether the plan requests nothing at all."""
        return not (
            self.preemptions or self.admissions or self.tiles
            or self.bw_caps or self.stalls
        )

    def job_ids(self) -> Tuple[str, ...]:
        """Every job the plan references, deduplicated, sorted."""
        ids = set(self.preemptions)
        for field in (self.admissions, self.tiles, self.bw_caps,
                      self.stalls):
            ids.update(jid for jid, _ in field)
        return tuple(sorted(ids))


#: The no-op plan (shared instance; plans are immutable).
EMPTY_PLAN = AllocationPlan()


class AllocationController:
    """Applies :class:`AllocationPlan`\\ s to a simulator atomically.

    The controller is the *only* component that turns plans into
    engine mutations.  For each plan it:

    1. resolves every referenced job id against the live job table —
       unknown or finished jobs raise a clean
       :class:`~repro.sim.engine.SimulationError`;
    2. diffs each entry against live state — entries restating the
       current allocation are no-ops and charge nothing;
    3. applies the differences in a canonical order (preemptions →
       tile shrinks → admissions → remaining retiles → bandwidth
       caps → extra stalls), so shrinks and preemptions free tiles
       before admissions and grows consume them;
    4. charges reconfiguration costs centrally — the compute
       migration stall per applied tile change on a running job, the
       DMA issue-rate update per applied cap change — instead of
       inside each engine primitive.  Charges saturate within one
       simulation instant (a stall ends at ``now + cycles`` however
       often it is charged), so coincident-event re-decisions cannot
       double-charge ``COMPUTE_RECONFIG_CYCLES``;
    5. bumps the allocation epoch **once** for the whole plan — an
       applied plan invalidates the engine's epoch solve exactly once,
       an empty or all-no-op plan not at all.

    Caps-only plans — the regulation steady state — take
    :meth:`apply_caps`, which fused policy hooks also call directly.

    Attributes:
        sim: The simulator this controller mutates.
        plans_applied: Plans that performed at least one mutation.
        plans_noop: Plans that performed none (empty or all no-op).
        actions_applied: Total mutations performed across all plans.
    """

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self.plans_applied = 0
        self.plans_noop = 0
        self.actions_applied = 0
        # The policy's reconfiguration costs, captured once (they are
        # class-level constants; the per-application attribute chain
        # through sim.policy was measurable on the cap hot path).
        self._compute_stall = sim.policy.compute_reconfig_cycles
        self._memory_stall = sim.policy.memory_reconfig_cycles

    # ------------------------------------------------------------------

    def _sanitize_trusted(self, plan: AllocationPlan) -> None:
        """Re-run, under ``REPRO_CHECK=1``, exactly the validation a
        trusted plan was allowed to skip: rebuild it through the
        public constructor (field normalisation, uniqueness, the
        preempt/retile conflict scan) and resolve it through the
        validated :meth:`_resolve` (unknown *and* finished jobs).
        A failure is a broken proof obligation at the PR 7 trust
        boundary — a bug in the calling policy, not user input."""
        try:
            AllocationPlan(
                preemptions=plan.preemptions,
                admissions=plan.admissions,
                tiles=plan.tiles,
                bw_caps=plan.bw_caps,
                stalls=plan.stalls,
            )
            self._resolve(plan)
        except Exception as exc:
            from repro.sim.engine import SimulationError

            if not isinstance(exc, (ValueError, SimulationError)):
                raise
            raise sanitizer.SanitizerError(
                f"trusted plan failed the validation it skipped: "
                f"{exc}"
            ) from exc

    def _resolve(self, plan: AllocationPlan) -> Dict[str, "Job"]:
        """Map the plan's job ids to live jobs, or fail cleanly."""
        from repro.sim.engine import SimulationError

        sim_jobs = self.sim.jobs
        jobs: Dict[str, "Job"] = {}
        for jid in plan.preemptions:
            jobs[jid] = sim_jobs.get(jid)
        for pairs in (plan.admissions, plan.tiles, plan.bw_caps,
                      plan.stalls):
            for jid, _ in pairs:
                jobs[jid] = sim_jobs.get(jid)
        for jid, job in jobs.items():
            if job is None:
                raise SimulationError(
                    f"plan references unknown job {jid!r}"
                )
            if job.phase is JobPhase.FINISHED:
                raise SimulationError(
                    f"plan references finished job {jid!r}"
                )
        return jobs

    def _resolve_trusted(self, plan: AllocationPlan) -> Dict[str, "Job"]:
        """Resolve a trusted plan by direct job-table indexing.

        Trusted plans were built from live simulator state, so ids
        resolve and phases are valid by construction; an unknown id
        (a policy bug) still surfaces as a clean SimulationError
        rather than a KeyError, but the per-id ``.get`` probe and
        finished-phase re-check of :meth:`_resolve` are skipped.
        """
        sim_jobs = self.sim.jobs
        jobs: Dict[str, "Job"] = {}
        try:
            for jid in plan.preemptions:
                jobs[jid] = sim_jobs[jid]
            for pairs in (plan.admissions, plan.tiles, plan.bw_caps,
                          plan.stalls):
                for jid, _ in pairs:
                    jobs[jid] = sim_jobs[jid]
        except KeyError as exc:
            from repro.sim.engine import SimulationError

            raise SimulationError(
                f"trusted plan references unknown job {exc.args[0]!r}"
            ) from None
        return jobs

    def apply(self, plan: Optional[AllocationPlan]) -> int:
        """Diff ``plan`` against live state and apply it atomically.

        Args:
            plan: The policy's decision (``None`` is treated as the
                empty plan).

        Returns:
            The number of mutations actually performed (0 for a
            no-op plan).

        Raises:
            SimulationError: On plans referencing unknown/finished
                jobs or requesting invalid transitions (the engine
                primitives' own validation, surfaced unchanged).
        """
        if plan is None or plan is EMPTY_PLAN:
            self.plans_noop += 1
            return 0
        if plan._trusted and sanitizer.enabled:
            self._sanitize_trusted(plan)
        if (
            not plan.admissions and not plan.tiles
            and not plan.preemptions and not plan.stalls
        ):
            if not plan._trusted:
                self._resolve(plan)
            return self.apply_caps(plan.bw_caps)
        if plan._trusted:
            jobs = self._resolve_trusted(plan)
        else:
            jobs = self._resolve(plan)
        sim = self.sim
        admitted = {jid for jid, _ in plan.admissions}
        # Classify retiles against pre-plan state: entries on jobs
        # being admitted in this same plan necessarily apply *after*
        # their admission; shrinks on already-running jobs apply
        # first so the freed tiles fund admissions and grows.
        shrinks = [
            (jid, tiles) for jid, tiles in plan.tiles
            if jid not in admitted and tiles < jobs[jid].tiles
        ]
        late_retiles = [
            (jid, tiles) for jid, tiles in plan.tiles
            if jid in admitted or tiles >= jobs[jid].tiles
        ]
        applied = 0
        sim._begin_allocation_batch()
        try:
            for jid in plan.preemptions:
                sim.preempt(jobs[jid])
                applied += 1
            for jid, tiles in shrinks:
                applied += self._retile(jobs[jid], tiles)
            for jid, tiles in plan.admissions:
                sim.start_job(jobs[jid], tiles)
                applied += 1
            for jid, tiles in late_retiles:
                applied += self._retile(jobs[jid], tiles)
            for jid, cap in plan.bw_caps:
                applied += self._recap(jobs[jid], cap)
            for jid, cycles in plan.stalls:
                if cycles > 0:
                    sim.stall_job(jobs[jid], cycles)
                    applied += 1
        finally:
            sim._end_allocation_batch()
        if applied:
            self.plans_applied += 1
        else:
            self.plans_noop += 1
        self.actions_applied += applied
        return applied

    def apply_caps(
        self, bw_caps: Tuple[Tuple[str, Optional[float]], ...]
    ) -> int:
        """Apply a caps-only overlay in place, counted as one plan.

        ``bw_caps`` is ``((job_id, cap), ...)`` over live jobs, as in
        :attr:`AllocationPlan.bw_caps`.  Each entry keeps
        :meth:`~repro.sim.engine.Simulator.set_bw_cap`'s checks (the
        job is RUNNING, a cap is positive) and its tolerance no-op
        filter; each changed cap charges the memory-reconfiguration
        stall centrally, and the allocation epoch moves once if
        anything changed.

        Returns:
            The number of caps actually changed.
        """
        if not bw_caps:
            self.plans_noop += 1
            return 0
        sim = self.sim
        now = sim.now
        sim_jobs = sim.jobs
        mem_stall = self._memory_stall
        trace = sim.trace
        running = JobPhase.RUNNING
        applied = 0
        for jid, cap in bw_caps:
            try:
                job = sim_jobs[jid]
            except KeyError:
                raise _simulation_error(
                    f"trusted plan references unknown job {jid!r}"
                ) from None
            if job.phase is not running:
                raise _simulation_error(f"{jid} is not running")
            if cap is not None and cap <= 0:
                raise _simulation_error("bandwidth cap must be positive")
            old = job.bw_cap
            if old == cap or (
                old is not None and cap is not None
                and abs(old - cap) < 1e-9
            ):
                continue
            job.bw_cap = cap
            job.bw_reconfigs += 1
            applied += 1
            if trace.enabled:
                trace.log(
                    now, TraceEvent.BW_RECONFIG, jid,
                    f"cap={'none' if cap is None else f'{cap:.2f}B/cyc'}",
                )
            # Simulator.stall_job inlined (mem_stall is a non-negative
            # class constant).
            if mem_stall:
                su = job.stall_until
                base = su if su > now else now
                new_until = now + mem_stall
                if new_until > base:
                    job.stall_cycles += new_until - base
                    job.stall_until = new_until
        if applied:
            sim._bump_epoch()
            self.plans_applied += 1
            self.actions_applied += applied
        else:
            self.plans_noop += 1
        return applied

    # ------------------------------------------------------------------

    def _retile(self, job: "Job", tiles: int) -> int:
        """Apply one tile-count target and charge the migration stall
        centrally.  The engine primitive is the single source of
        no-op detection (it returns whether it mutated)."""
        sim = self.sim
        if not sim.set_tiles(job, tiles):
            return 0
        sim.stall_job(job, self._compute_stall)
        return 1

    def _recap(self, job: "Job", cap: Optional[float]) -> int:
        """Apply one bandwidth-cap target and charge the DMA
        issue-rate update centrally."""
        sim = self.sim
        if not sim.set_bw_cap(job, cap):
            return 0
        sim.stall_job(job, self._memory_stall)
        return 1
