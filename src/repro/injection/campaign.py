"""The SFI campaign engine, generic over the two abstraction levels.

A campaign follows the paper's two-step industrial flow (SS III-A):

1. **Golden simulation**: one fault-free run, recording the pinout trace,
   the program output and periodic drained checkpoints (captured and
   LRU-bounded by :class:`repro.injection.checkpoint_cache
   .CheckpointCache`; plus, for the RTL acceleration, the golden L1D
   access log).
2. **Faulty simulations**: for each sampled fault the nearest retained
   checkpoint is restored (warm start; ``warm_start=False`` replays the
   whole prefix, bit-identically), execution advances to the injection
   instant, one bit is flipped, and the run continues until the
   post-injection window expires (the paper's 20 kcycles, scaled -- see
   ``SCALED_WINDOW``), or, in "no timer" / software-observation modes,
   to program end -- or until the early-stop comparator proves the
   machine re-converged with the golden state at a checkpoint boundary.

With a :class:`repro.injection.store.CampaignStore`, completed faults
persist durably and an interrupted campaign resumes by fault index.

Classification follows SS IV-A: any deviation at the configured
observation point makes a run Unsafe.

Step 2 is embarrassingly parallel: every faulty run starts from a
shared, read-only golden payload.  The per-fault execution therefore
lives in the picklable :class:`FaultRunner`, which the serial loop and
the process-pool backend (:mod:`repro.injection.executor`) both drive;
``CampaignConfig(jobs=N)`` selects the backend.  The parallel path
merges records in fault-sample order, so for a fixed seed its
``CampaignResult`` is identical to the serial one (see DESIGN.md).
"""

import bisect
import time

from repro.errors import CampaignInterrupted
from repro.injection import faults as fault_mod
from repro.injection.checkpoint_cache import CheckpointCache
from repro.injection.classify import (
    FaultClass,
    FaultRecord,
    Incident,
    classify_outcome,
)
from repro.injection.distributions import make_distribution, make_rng
from repro.injection.observation import hardware_state_digest
from repro.injection.sampling import (
    achieved_error_margin,
    fault_population,
    leveugle_sample_size,
    wilson_interval,
)
# RunStatus lives in the level-generic backend layer; campaign.py keeps
# this re-export for callers that historically imported it from here.
from repro.sim.base import RunStatus

#: The paper terminates each faulty run 20 kcycles after injection.  Our
#: workloads are scaled down ~500x relative to MiBench-on-A9 (DESIGN.md),
#: so the equivalent window keeping the window/run-length ratio in the
#: paper's range is ~2 kcycles.
SCALED_WINDOW = 2000


class CampaignConfig:
    """Knobs of one campaign (defaults follow the paper's setup)."""

    def __init__(self, samples=100, window=SCALED_WINDOW,
                 observation="pinout", distribution="normal", seed=2017,
                 checkpoint_interval=None, checkpoint_bound=None,
                 warm_start=True, early_stop=True, prune_mode="dead",
                 accelerate=False, accelerate_lead=32, hang_factor=3.0,
                 error_margin=0.02, confidence=0.99, jobs=1,
                 batch_size=None, start_method=None, batch_lanes=1,
                 retries=None, batch_timeout=None, chaos=None):
        from repro.injection import supervisor
        from repro.prune import PRUNE_MODES

        if observation not in ("pinout", "software", "arch"):
            raise ValueError(f"unknown observation point {observation!r}")
        if prune_mode not in PRUNE_MODES:
            raise ValueError(
                f"unknown prune mode {prune_mode!r} (choose from "
                f"{PRUNE_MODES})"
            )
        if observation == "arch" and window is not None:
            raise ValueError(
                "the arch (HVF) observation point compares end-of-run "
                "state; use window=None"
            )
        if samples is None or isinstance(samples, bool) \
                or not isinstance(samples, int) or samples < 0:
            raise ValueError(
                f"samples must be a non-negative integer, got {samples!r}"
            )
        if jobs is not None and (isinstance(jobs, bool)
                                 or not isinstance(jobs, int) or jobs < 1):
            raise ValueError(f"jobs must be >= 1 or None (auto), got {jobs!r}")
        if batch_size is not None and (isinstance(batch_size, bool)
                                       or not isinstance(batch_size, int)
                                       or batch_size < 1):
            raise ValueError(f"batch_size must be >= 1, got {batch_size!r}")
        if batch_lanes is None or batch_lanes < 1:
            raise ValueError(f"batch_lanes must be >= 1, got {batch_lanes}")
        if checkpoint_bound is not None and checkpoint_bound < 1:
            raise ValueError(
                f"checkpoint_bound must be >= 1 or None, got "
                f"{checkpoint_bound}"
            )
        if retries is not None and (isinstance(retries, bool)
                                    or not isinstance(retries, int)
                                    or retries < 1):
            raise ValueError(
                f"retries must be >= 1 or None (default), got {retries!r}"
            )
        if batch_timeout is not None and not (
                isinstance(batch_timeout, (int, float))
                and not isinstance(batch_timeout, bool)
                and batch_timeout > 0):
            raise ValueError(
                f"batch_timeout must be a positive number of seconds or "
                f"None (derived), got {batch_timeout!r}"
            )
        if start_method is not None:
            # Validate eagerly (raises ExecutionError, a ValueError,
            # with a did-you-mean hint) -- a typo should fail at config
            # time, not as a traceback out of the first worker spawn.
            supervisor.resolve_start_method(start_method)
        self.samples = samples
        self.window = window
        self.observation = observation
        self.distribution = distribution
        self.seed = seed
        self.checkpoint_interval = checkpoint_interval
        #: Max golden checkpoints resident in memory (``None`` =
        #: unbounded); see :class:`CheckpointCache`.
        self.checkpoint_bound = checkpoint_bound
        #: Warm-start: restore the nearest golden checkpoint at or
        #: before each injection instant.  ``False`` is the cold-start
        #: baseline (replay the whole prefix from the base checkpoint);
        #: both produce bit-identical records for a fixed seed.
        self.warm_start = warm_start
        #: Terminate a faulty run as Masked as soon as its full state
        #: digest re-converges with the golden digest at a checkpoint
        #: boundary.  Applied only on backends whose ``DRAIN_FREE``
        #: protocol flag makes the comparison exact, so the
        #: classification sequence never changes -- only wall clock.
        self.early_stop = early_stop
        #: Fault pruning: ``"off"`` simulates every sampled fault;
        #: ``"dead"`` (default) classifies faults whose bit is
        #: overwritten before its next read -- or never read again -- as
        #: Masked without simulation, from the golden lifetime trace
        #: (:mod:`repro.prune`; exact: the per-fault classes match
        #: ``"off"`` fault for fault); ``"group"`` additionally
        #: collapses faults sharing a live interval onto one
        #: representative injected just before the consuming read
        #: (approximate windows; opt-in); ``"static"`` proves the same
        #: dead-interval verdicts from dataflow analysis of the program
        #: text plus the golden retired-PC stream, with no access trace
        #: captured at all (:mod:`repro.staticcheck`; arch and rtl
        #: tiers -- tiers without a static model simulate every fault).
        self.prune_mode = prune_mode
        self.accelerate = accelerate
        self.accelerate_lead = accelerate_lead
        self.hang_factor = hang_factor
        self.error_margin = error_margin
        self.confidence = confidence
        #: Worker processes for the faulty-run phase.  ``1`` keeps the
        #: exact serial path; ``None`` means one per CPU.
        self.jobs = jobs
        #: Faults per work item handed to a worker (``None`` = auto).
        self.batch_size = batch_size
        #: ``multiprocessing`` start method (``None`` = best available).
        self.start_method = start_method
        #: Vectorized lane count for the faulty phase (``repro.batch``):
        #: ``N > 1`` executes N same-segment faulty runs as one numpy
        #: pass on backends whose ``BATCHABLE`` flag allows it (the
        #: rtl tier).  Execution-only: records are bit-identical to
        #: the scalar path, so it stays out of :meth:`identity`.
        self.batch_lanes = batch_lanes
        #: Failed executions one fault may spend (worker crash, hung
        #: batch, in-run exception) before it is quarantined as an
        #: :class:`~repro.injection.classify.Incident`.  ``None`` =
        #: the supervisor default (2).  Execution-only.
        self.retries = retries
        #: Wall-clock budget (seconds) for one worker batch; an
        #: overrunning batch's worker is killed and the batch retried.
        #: ``None`` derives a budget from the golden run's wall cost x
        #: ``hang_factor``.  Execution-only.
        self.batch_timeout = batch_timeout
        #: Deterministic execution-failure injection (test hook): a
        #: chaos spec string / :class:`~repro.injection.supervisor
        #: .ChaosSpec` making workers segfault, hang or raise at chosen
        #: fault indices.  ``None`` also consults ``REPRO_CHAOS`` at
        #: run time.  Execution-only: classifications are unaffected,
        #: so it stays out of :meth:`identity`.
        self.chaos = supervisor.ChaosSpec.parse(chaos)

    def identity(self):
        """The result-affecting configuration, as a plain dict.

        This is what a campaign store's manifest records and what resume
        validates against: two campaigns with equal identities (plus
        equal workload/level/structure) produce identical fault samples
        and classification sequences (class, detail, sim_cycles), so
        their stores are interchangeable.  Execution-only knobs (jobs,
        batch_size, start_method, checkpoint_bound, batch_lanes,
        retries, batch_timeout, chaos) are excluded --
        classifications are proven independent of them.  Per-session
        *accounting* fields of a record (``wall_seconds``,
        ``replay_cycles``) are outside the identity contract: they
        describe how a session executed (pool timing, which checkpoint
        an LRU-bounded cache restored from), not what it concluded.
        """
        return {
            "samples": self.samples,
            "window": self.window,
            "observation": self.observation,
            "distribution": self.distribution,
            "seed": self.seed,
            "checkpoint_interval": self.checkpoint_interval,
            "warm_start": self.warm_start,
            "early_stop": self.early_stop,
            "prune_mode": self.prune_mode,
            "accelerate": self.accelerate,
            "accelerate_lead": self.accelerate_lead,
            "hang_factor": self.hang_factor,
        }

    def resolved_jobs(self, samples=None):
        """The effective worker count: ``None`` becomes the CPU count,
        and a campaign never uses more workers than faults."""
        if self.jobs is None:
            from repro.injection import executor

            jobs = executor.default_jobs()
        else:
            jobs = self.jobs
        if samples is not None:
            jobs = max(min(jobs, samples), 1)
        return jobs

    def describe(self):
        """One line identifying the campaign (shared knob table:
        :mod:`repro.scenario.knobs`, so this header and the study/
        scenario headers can never drift apart)."""
        from repro.scenario.knobs import describe_knobs

        return describe_knobs(f"{self.samples} faults", {
            "window": self.window,
            "observation": self.observation,
            "distribution": self.distribution,
            "warm_start": self.warm_start,
            "prune": self.prune_mode,
            "parallel": (self.jobs, self.batch_size, self.start_method),
            "lanes": self.batch_lanes,
            "retries": self.retries,
            "batch_timeout": self.batch_timeout,
            "chaos": self.chaos,
        })


class CampaignResult:
    """Counts, records and statistics of one campaign."""

    def __init__(self, workload, level, structure, config):
        self.workload = workload
        self.level = level
        self.structure = structure
        self.config = config
        self.records = []
        self.golden_cycles = 0
        self.golden_insts = 0
        self.golden_seconds = 0.0
        self.total_seconds = 0.0
        self.population = 0
        #: Worker processes the faulty-run phase actually used.
        self.jobs = 1
        #: Records loaded from a campaign store instead of simulated.
        self.resumed = 0
        #: Wall seconds those resumed records cost *their* session --
        #: excluded from this run's serial estimate, so a resumed
        #: campaign's speedup reflects only work actually done here.
        self.resumed_seconds = 0.0
        #: Global cycles the lane engine stepped in-process (``0`` on
        #: the scalar path).  The hardware-independent denominator of
        #: the batch-speedup bench: N lanes sharing one global step
        #: make this ~``simulated_cycles / N`` for well-packed groups.
        self.batch_cycles = 0
        #: High-water mark of private copy-on-write page bytes the lane
        #: store materialized in-process (``0`` on the scalar path).
        #: Sub-linear in lane count by design: lanes share the golden
        #: image and pay only for pages they actually diverge on.
        self.batch_lane_peak_bytes = 0
        #: Quarantined faults (:class:`~repro.injection.classify
        #: .Incident`): sampled but never classified -- they spent
        #: their retry budget killing, stalling or crashing their runs.
        #: Excluded from every statistic (``n`` counts records only);
        #: a non-empty list makes the campaign :attr:`degraded`.
        self.incidents = []
        #: Fault executions the supervisor re-dispatched after a worker
        #: crash, deadline kill or in-run exception.  ``0`` on an
        #: undisturbed campaign.
        self.retried_count = 0

    def add(self, record):
        self.records.append(record)

    @property
    def degraded(self):
        """True when the campaign completed but quarantined faults."""
        return bool(self.incidents)

    @property
    def n(self):
        return len(self.records)

    def count(self, fclass):
        return sum(1 for r in self.records if r.fclass is fclass)

    @property
    def pruned_count(self):
        """Faults classified from the lifetime trace, no simulation."""
        return sum(1 for r in self.records if r.pruned)

    @property
    def simulated_count(self):
        """Faults whose classification cost a simulation run."""
        return sum(1 for r in self.records if r.simulated)

    @property
    def unsafe_count(self):
        return sum(1 for r in self.records if r.fclass.unsafe)

    @property
    def unsafeness(self):
        """The paper's vulnerability metric: unsafe runs / injections."""
        return self.unsafe_count / self.n if self.n else 0.0

    def confidence_interval(self, confidence=0.95):
        return wilson_interval(self.unsafe_count, self.n, confidence)

    @property
    def seconds_per_run(self):
        if not self.records:
            return 0.0
        return sum(r.wall_seconds for r in self.records) / self.n

    @property
    def simulated_cycles(self):
        """Cycles the faulty phase re-simulated: pre-injection replay
        plus post-injection tail, summed over all runs.  Deterministic
        for a fixed seed at ``jobs=1``, so warm/cold benches compare
        this ratio rather than wall-clock noise; at ``jobs=N`` the
        replay part depends on which faults share a worker (the golden
        cursor, see :meth:`FaultRunner.run_one`)."""
        return sum(r.replay_cycles + r.sim_cycles for r in self.records)

    @property
    def estimated_serial_seconds(self):
        """Wall clock a one-process run *of this session's work* would
        have spent: the golden run plus every faulty run actually
        simulated here, back to back.  Resumed records' wall seconds
        belong to the session that produced them and are excluded."""
        return (self.golden_seconds
                + sum(r.wall_seconds for r in self.records)
                - self.resumed_seconds)

    @property
    def speedup(self):
        """Wall-clock speedup over the estimated serial execution of
        this session's work (``1.0`` when nothing was simulated, e.g.
        a fully resumed campaign)."""
        if self.total_seconds <= 0.0 or self.estimated_serial_seconds <= 0.0:
            return 1.0
        return self.estimated_serial_seconds / self.total_seconds

    def recommended_samples(self):
        """Leveugle-exact sample size for the configured margins
        (``0`` for a golden-only result, which has no population)."""
        if not self.population:
            return 0
        return leveugle_sample_size(
            self.population, self.config.error_margin,
            self.config.confidence,
        )

    def achieved_margin(self):
        if not self.population:
            return 0.0
        return achieved_error_margin(self.population, self.n,
                                     self.config.confidence)

    def summary(self):
        low, high = self.confidence_interval()
        return {
            "workload": self.workload,
            "level": self.level,
            "structure": self.structure,
            "n": self.n,
            "unsafeness": self.unsafeness,
            "ci95": (low, high),
            "masked": self.count(FaultClass.MASKED),
            "sdc": self.count(FaultClass.SDC),
            "due": self.count(FaultClass.DUE),
            "hang": self.count(FaultClass.HANG),
            "mismatch": self.count(FaultClass.MISMATCH),
            "latent": self.count(FaultClass.LATENT),
            "golden_cycles": self.golden_cycles,
            "s_per_run": self.seconds_per_run,
            "jobs": self.jobs,
            "pruned": self.pruned_count,
            "simulated": self.simulated_count,
            "resumed": self.resumed,
            "incidents": len(self.incidents),
            "retried": self.retried_count,
            "total_s": self.total_seconds,
            "speedup": self.speedup,
            "population": self.population,
            "recommended_samples": self.recommended_samples(),
            "achieved_margin": self.achieved_margin(),
        }

    def __repr__(self):
        return (
            f"CampaignResult({self.workload}/{self.level}/{self.structure}:"
            f" {self.unsafe_count}/{self.n} unsafe"
            f" = {100 * self.unsafeness:.1f}%)"
        )


class SharedGolden:
    """One captured golden run, shareable across campaigns.

    Scenario grids routinely run several campaigns against the same
    (level, workload) machine -- a prune-mode sweep, or the ``pinout``
    and ``pinout-notimer`` series of one figure.  The golden trajectory
    those campaigns capture is identical whenever every knob that
    shapes the capture agrees (see :meth:`Campaign.golden_key`), so
    :meth:`Campaign.run` can adopt a pooled instance instead of
    re-simulating it.  ``seconds`` records what the original capture
    cost; an adopting campaign's own ``golden_seconds`` stays ``0.0``
    (it did not pay the capture), keeping its serial estimate and
    speedup honest for the work done in its session.
    """

    __slots__ = ("sim", "golden", "cycles", "insts", "seconds")

    def __init__(self, sim, golden, cycles, insts, seconds):
        self.sim = sim
        self.golden = golden
        self.cycles = cycles
        self.insts = insts
        self.seconds = seconds


class FaultRunner:
    """Executes and classifies single faulty runs against a golden payload.

    One instance holds everything step 2 of the flow needs -- the
    campaign config, the golden run's trace/checkpoints and the hang
    deadline -- plus a per-process golden cursor (see :meth:`run_one`)
    and nothing else, so it pickles once per worker process of the
    parallel executor; the cursor is never pickled.  The serial path
    drives the very same object, which is what makes ``jobs=N``
    bit-identical to ``jobs=1`` for a fixed seed.
    """

    def __init__(self, config, golden, hang_deadline):
        self.config = config
        self.golden = golden
        self.hang_deadline = hang_deadline
        #: Golden cursor: ``(target boundary, stop cycle, checkpoint)``
        #: of the last pre-injection instant reached, or ``None``.
        self._cursor = None
        #: Global lane-engine cycles this runner actually stepped --
        #: the batched analogue of per-record replay+sim cycles,
        #: accumulated by :meth:`run_many` for the speedup bench.
        self.batch_cycles = 0
        #: Peak private COW page bytes across lane-engine runs -- the
        #: memory half of the bench (dense per-lane copies would be
        #: ``lanes x footprint``; the paged store stays well under).
        self.batch_lane_peak_bytes = 0

    def run_many(self, sim, specs, progress=None, on_batch=None):
        """Execute ``specs`` in the order given, vectorized when
        possible.

        With ``batch_lanes > 1`` on a ``BATCHABLE`` backend (the rtl
        tier) the specs are handed to the lane engine
        (:mod:`repro.batch`), which executes same-segment groups of up
        to ``batch_lanes`` faulty runs as one numpy pass; otherwise (or
        for a single fault) this is exactly :func:`run_serial`.
        Records are bit-identical either way -- the cross-lane
        equivalence suite pins that.
        """
        cfg = self.config
        if (cfg.batch_lanes > 1 and type(sim).BATCHABLE
                and len(specs) > 1):
            from repro.batch import RTLLaneEngine

            engine = RTLLaneEngine(self, sim, cfg.batch_lanes)
            records = engine.run(specs)
            self.batch_cycles += engine.batch_cycles
            self.batch_lane_peak_bytes = max(
                self.batch_lane_peak_bytes, engine.peak_lane_bytes)
            for i, record in enumerate(records):
                if on_batch is not None:
                    on_batch(i, [record])
                if progress is not None:
                    progress(i + 1, len(specs), record)
            return records
        return run_serial(sim, self, specs, progress, on_batch=on_batch)

    def __getstate__(self):
        state = dict(self.__dict__)
        state["_cursor"] = None
        return state

    def drop_cursor(self):
        """Release the golden cursor (its checkpoint and RAM image)."""
        self._cursor = None

    def run_one(self, sim, fault):
        """Seek, advance, inject, finish, classify: one FaultRecord.

        The seek restores the nearest retained golden checkpoint at or
        before the injection instant (``warm_start``) or the base
        checkpoint (cold start) and replays the drain-punctuated golden
        trajectory in between, so the pre-injection state -- and hence
        the classification -- is identical either way.

        Warm-started runs on ``DRAIN_FREE`` backends also keep a golden
        cursor: an exact checkpoint of the last pre-injection instant
        reached.  A later fault in the same checkpoint segment, at or
        after the cursor's stop cycle, restores the cursor instead and
        replays only the difference -- with no drain inside a segment,
        ``run(stop=c1)`` then ``run(stop=c2)`` visits exactly the states
        ``run(stop=c2)`` does.  Faults dispatched in cycle order thus
        replay each segment's golden prefix about once.
        """
        cfg = self.config
        run_start = time.perf_counter()
        cache = self.golden["cache"]
        target = cache.boundary_at_or_before(fault.cycle)
        cursor = self._cursor
        if (cursor is not None and cursor[0] == target
                and fault.cycle >= cursor[1]):
            sim.restore(cursor[2])
            trace_base = cache.trace_base(fault.cycle)
            restore_cycle = sim.cycle
        else:
            trace_base, restore_cycle = cache.seek(
                sim, fault.cycle, warm=cfg.warm_start,
                max_cycles=self.hang_deadline,
            )
        status = sim.run(stop_cycle=fault.cycle,
                         max_cycles=self.hang_deadline)
        if status is not RunStatus.STOPPED:
            # The restored run ended before the injection instant (drain
            # jitter near program end): the fault lands in dead time and
            # cannot corrupt anything.
            return FaultRecord(
                fault, FaultClass.MASKED, "after program end",
                sim_cycles=0,
                wall_seconds=time.perf_counter() - run_start,
                replay_cycles=sim.cycle - restore_cycle,
            )
        replay_cycles = sim.cycle - restore_cycle
        if cfg.warm_start and type(sim).DRAIN_FREE:
            # One reusable RAM image per runner, not one per fault;
            # unset the cursor while its image is being overwritten.
            image = (cursor[2]["ram"] if cursor is not None
                     else bytearray(sim.ram.size))
            self._cursor = None
            self._cursor = (target, fault.cycle,
                            sim.checkpoint(ram_into=image))
        sim.inject(fault.structure, fault.bit)
        status, converged = self._finish(sim, fault)
        if converged:
            fclass, detail = FaultClass.MASKED, "re-converged with golden"
        elif status is RunStatus.FAULT:
            fclass, detail = FaultClass.DUE, str(sim.fault)
        elif status is RunStatus.TIMEOUT:
            fclass, detail = FaultClass.HANG, "watchdog expired"
        else:
            fclass, detail = classify_outcome(
                cfg.observation, status, sim.output,
                lambda: hardware_state_digest(sim),
                lambda: [t.key() for t in sim.pinout[trace_base:]],
                self.golden, trace_base)
        return FaultRecord(
            fault, fclass, detail,
            sim_cycles=sim.cycle - fault.cycle,
            wall_seconds=time.perf_counter() - run_start,
            replay_cycles=replay_cycles,
        )

    def _finish(self, sim, fault):
        """Run the post-injection tail.  Returns ``(status, converged)``.

        With ``early_stop`` on a ``DRAIN_FREE`` backend the tail pauses
        at every golden checkpoint boundary and compares full state
        digests: equality proves the faulty machine is bit-identical to
        the golden one (state, memory, output and pinout history), so
        its future is the golden future and the run is Masked -- the
        classification an exhaustive tail run would also reach.  On
        pipelined backends golden digests are post-drain states a free
        run never re-enters, so the comparison is skipped rather than
        approximated.
        """
        cfg = self.config
        end = None if cfg.window is None else fault.cycle + cfg.window
        cache = self.golden["cache"]
        if (cfg.early_stop and type(sim).DRAIN_FREE
                and cache.collect_digests):
            first = bisect.bisect_right(cache.cycles, fault.cycle)
            for k in range(first, cache.count):
                boundary = cache.cycles[k]
                if end is not None and boundary >= end:
                    break
                status = sim.run(stop_cycle=boundary,
                                 max_cycles=self.hang_deadline)
                if status is not RunStatus.STOPPED:
                    return status, False
                if sim.state_digest() == cache.digests[k]:
                    return status, True
        if end is not None:
            return sim.run(stop_cycle=end,
                           max_cycles=self.hang_deadline), False
        return sim.run(max_cycles=self.hang_deadline), False


def run_serial(sim, runner, specs, progress=None, on_batch=None):
    """The one serial faulty-run loop.

    Used by the ``jobs=1`` path and by the executor when a shard
    degenerates to a single batch, so there is exactly one copy of the
    restore/inject/classify iteration order.  ``on_batch(start,
    records)`` -- the campaign-store append hook, sharing the parallel
    executor's signature -- fires exactly once per fault as it
    completes, with a one-record batch.
    """
    records = []
    for i, fault in enumerate(specs):
        record = runner.run_one(sim, fault)
        records.append(record)
        if on_batch is not None:
            on_batch(i, [record])
        if progress is not None:
            progress(i + 1, len(specs), record)
    return records


def _assert_static_verdict(trace, fault, detail, events_at_stop_executed):
    """Sanitizer check: a static verdict must agree with the dynamic
    lifetime trace (``REPRO_STATIC_XCHECK=1``).

    Static verdicts are whole-run claims about the golden trajectory
    (the retired-PC stream is architectural and drain-invariant), so
    the check is horizon-free on every tier:

    * *overwritten* -- the first golden event on the cell at/after the
      injection instant must exist and be a write;
    * *never read again* -- there must be no post-injection event at
      all, or the first one must be a write (a statically-silent bit
      may still be dynamically overwritten: silence is the weaker
      claim only about reads);
    * *unreachable* -- the cell must be untouched across the whole run.

    A violation means the dataflow model claimed a dead interval the
    machine actually read -- a soundness bug, raised immediately.
    """
    from repro.staticcheck import (
        STATIC_OVERWRITE_DETAIL,
        STATIC_SILENT_DETAIL,
        STATIC_UNREACHABLE_DETAIL,
        StaticCrossCheckError,
    )

    if not trace.traces(fault.structure):
        return
    cell = trace.cell_of(fault.structure, fault.bit)
    if detail == STATIC_UNREACHABLE_DETAIL:
        if trace.reachable(fault.structure, cell):
            raise StaticCrossCheckError(
                f"static analysis called {fault.structure}[{cell}] "
                f"unreachable but the golden run touched it"
            )
        return
    threshold = fault.cycle + (1 if events_at_stop_executed else 0)
    event = trace.next_event(fault.structure, cell, threshold)
    if detail == STATIC_OVERWRITE_DETAIL:
        ok = event is not None and event[1]
    elif detail == STATIC_SILENT_DETAIL:
        ok = event is None or event[1]
    else:
        raise StaticCrossCheckError(
            f"unknown static verdict detail: {detail!r}"
        )
    if not ok:
        raise StaticCrossCheckError(
            f"static analysis pruned {fault!r} ({detail}) but the "
            f"golden run's first post-injection event on "
            f"{fault.structure}[{cell}] is a read at cycle {event[0]}"
        )


class Campaign:
    """One SFI campaign against one structure of one simulator."""

    def __init__(self, sim_factory, structure, config=None, workload="?",
                 level="?"):
        self.sim_factory = sim_factory
        self.structure = structure
        self.config = config or CampaignConfig()
        self.workload = workload
        self.level = level

    # ------------------------------------------------------------------

    def _capture_shape(self):
        """What the golden phase must instrument: ``(access, pc)``.

        ``access`` -- capture the per-cell lifetime trace (the dynamic
        pruner's input); ``pc`` -- capture the retired-PC stream (the
        static pruner's anchor).  ``prune_mode="static"`` needs only the
        PC stream; the sanitizer (``REPRO_STATIC_XCHECK=1``) forces both
        on so every static verdict can be checked against the dynamic
        trace -- extra captures never change classification provenance.
        """
        from repro.staticcheck import (
            static_prune_available,
            static_xcheck_enabled,
        )

        mode = self.config.prune_mode
        xcheck = static_xcheck_enabled() and mode != "off"
        pc = ((mode == "static" or xcheck)
              and static_prune_available(self.level))
        # The sanitizer only adds the access trace where a static
        # engine exists to be checked -- on tiers without one (the
        # renamed uarch register file) the shape is exactly the
        # unsanitized shape, so the env var can never alter what the
        # partitioner sees.
        access = mode in ("dead", "group") or (xcheck and pc)
        return access, pc

    def _golden_phase(self, sim, result):
        """Fault-free run with periodic drained checkpoints.

        Checkpoint capture and retention live in
        :class:`CheckpointCache` (configurable stride, LRU-bounded
        resident set); this phase owns listener setup and the
        clean-exit contract.
        """
        cfg = self.config
        started = time.perf_counter()
        access_log = []
        attach_access_log = None
        if cfg.accelerate and self.structure.startswith("l1d."):
            def attach_access_log(target):
                target.dcache.access_listener = (
                    lambda cycle, index, way, write, addr:
                    access_log.append((cycle, index, way, write, addr))
                )
            attach_access_log(sim)
        capture_access, capture_pc = self._capture_shape()
        if capture_access:
            # No per-checkpoint trace snapshots: the capture loop
            # round-trips the same machine at the same instant, where
            # the live trace already holds the right prefix -- only the
            # final sealed trace feeds the pruner.
            sim.enable_access_trace(snapshot_in_checkpoints=False)
        if capture_pc:
            sim.enable_pc_trace()
        cache = CheckpointCache(
            stride=cfg.checkpoint_interval,
            max_resident=cfg.checkpoint_bound,
            # Digests feed only the early-stop comparator, which fires
            # only on drain-free backends -- skip the capture cost
            # elsewhere.
            collect_digests=(cfg.early_stop
                             and type(sim).DRAIN_FREE),
        )
        status = cache.capture_golden(sim, on_restore=attach_access_log)
        # The golden trajectory is complete: freeze the lifetime trace
        # and the access log before anything else touches this simulator
        # (the serial faulty path reuses it), and keep only the final
        # trace -- per-boundary prefixes would bloat the executor
        # payload for nothing.
        sim.seal_access_trace()
        sim.seal_pc_trace()
        cache.drop_access_traces()
        if attach_access_log is not None:
            sim.dcache.access_listener = None
        if not sim.exited:
            raise RuntimeError(
                f"golden run did not exit cleanly: {status}, {sim.fault}"
            )
        result.golden_cycles = sim.cycle
        result.golden_insts = sim.icount
        result.golden_seconds = time.perf_counter() - started
        golden = {
            "output": sim.output,
            "pinout_keys": [t.key() for t in sim.pinout],
            "end_cycle": sim.cycle,
            "cache": cache,
            "access_log": access_log,
            "trace": sim.access_trace() if capture_access else None,
            "pc_trace": sim.pc_trace() if capture_pc else None,
        }
        if cfg.observation == "arch":
            golden["hw_state"] = hardware_state_digest(sim)
        return golden

    def _draw_specs(self, bit_count, end_cycle):
        """Redraw the campaign's fault samples -- a pure function of
        the config identity plus the golden run's (bits, end_cycle),
        which is what makes store resume deterministic."""
        cfg = self.config
        rng = make_rng(cfg.seed)
        distribution = make_distribution(
            cfg.distribution, 1, max(end_cycle - 1, 1)
        )
        return fault_mod.sample_faults(
            rng, self.structure, bit_count, distribution, cfg.samples
        )

    def _sample(self, sim, golden, result):
        cfg = self.config
        bit_count = sim.fault_targets()[self.structure]
        result.population = fault_population(bit_count,
                                             golden["end_cycle"])
        golden["bits"] = bit_count
        specs = self._draw_specs(bit_count, golden["end_cycle"])
        if cfg.accelerate and self.structure == "l1d.data":
            index = {}
            for cycle, set_i, way, _, _ in golden["access_log"]:
                index.setdefault((set_i, way), []).append(cycle)
            specs = [
                self._accelerate_with_index(sim, fault, index)
                for fault in specs
            ]
        return specs

    def _accelerate_with_index(self, sim, fault, index):
        cfg = sim.dcache.config
        set_i, way, _, _ = fault_mod.decode_cache_data_bit(fault.bit, cfg)
        cycles = index.get((set_i, way))
        if not cycles:
            return fault
        pos = bisect.bisect_right(cycles, fault.cycle)
        if pos >= len(cycles):
            return fault
        new_cycle = max(fault.cycle,
                        cycles[pos] - self.config.accelerate_lead)
        return fault_mod.FaultSpec(fault.structure, fault.bit, new_cycle,
                                   original_cycle=fault.cycle)

    def _prune_partition(self, sim, golden, specs):
        """Consult the fault pruner (:mod:`repro.prune`) over ``specs``.

        Returns ``(pruned_records, effective_specs, member_of)``:

        * ``pruned_records`` -- fault index -> :class:`FaultRecord`
          classified from the golden lifetime trace, no simulation;
        * ``effective_specs`` -- the spec list with equivalence-group
          representatives moved to the latest stop cycle before their
          consuming read (``group`` mode; identical to ``specs``
          otherwise -- ``original_cycle`` is preserved either way);
        * ``member_of`` -- non-representative group member index ->
          its representative's index; the member inherits the
          representative's classification after the faulty phase.
        """
        cfg = self.config
        pruned_records = {}
        member_of = {}
        if cfg.prune_mode == "off":
            return pruned_records, specs, member_of
        events_at_stop = type(sim).TRACE_EVENTS_AT_STOP_EXECUTED
        pruner = None
        if golden.get("trace") is not None:
            from repro.prune import FaultPruner

            cache = golden["cache"]
            pruner = FaultPruner(
                golden["trace"],
                events_at_stop,
                cfg.observation,
                # Pipelined backends: golden events are provably the
                # faulty machine's events only within the injection's
                # checkpoint segment (see repro.prune.pruner).
                # Drain-free backends share the whole trajectory.
                segments=(None if type(sim).DRAIN_FREE
                          else (cache.cycles, cache.stops)),
            )
        static = None
        if golden.get("pc_trace") is not None:
            from repro.staticcheck import StaticPruner

            static = StaticPruner(
                sim.program, self.level, cfg.observation,
                golden["pc_trace"], events_at_stop,
            )
        if cfg.prune_mode == "static" and static is None:
            # No static engine at this tier: every fault simulates.
            # (The dynamic trace, were one ever present, checks static
            # verdicts -- it never substitutes for them.)
            return pruned_records, specs, member_of
        if pruner is None and static is None:
            return pruned_records, specs, member_of
        xcheck = pruner is not None and static is not None
        effective = list(specs)
        groups = {}
        for i, fault in enumerate(specs):
            if static is not None:
                static_verdict = static.classify(fault)
                if static_verdict is not None and xcheck:
                    _assert_static_verdict(golden["trace"], fault,
                                           static_verdict[1],
                                           events_at_stop)
                if cfg.prune_mode == "static":
                    # Static mode classifies from static evidence only;
                    # the dynamic trace (when the sanitizer forced its
                    # capture) never decides, it only checks.
                    if static_verdict is not None:
                        fclass, detail = static_verdict
                        pruned_records[i] = FaultRecord(
                            fault, fclass, detail, pruned="static"
                        )
                    continue
            verdict = pruner.classify(fault)
            if verdict is not None:
                fclass, detail = verdict
                pruned_records[i] = FaultRecord(fault, fclass, detail,
                                                pruned="dead")
                continue
            if cfg.prune_mode != "group":
                continue
            interval = pruner.group_interval(fault)
            if interval is None:
                continue
            rep = groups.get(interval.key)
            if rep is None:
                # First sampled fault of this live interval becomes the
                # representative, injected right before the read that
                # consumes the corruption (the MeRLiN move).
                groups[interval.key] = i
                rep_cycle = pruner.representative_cycle(interval)
                if rep_cycle > fault.cycle:
                    effective[i] = fault_mod.FaultSpec(
                        fault.structure, fault.bit, rep_cycle,
                        original_cycle=fault.original_cycle,
                    )
            else:
                member_of[i] = rep
        return pruned_records, effective, member_of

    def identity(self):
        """What a campaign store records and resume validates: the
        target plus every result-affecting config knob."""
        return {
            "workload": self.workload,
            "level": self.level,
            "structure": self.structure,
            "config": self.config.identity(),
        }

    def golden_key(self):
        """Pool key under which this campaign's golden run is shareable.

        Two campaigns may adopt the same :class:`SharedGolden` exactly
        when every knob that shapes the golden capture agrees: the
        machine itself (level, workload -- the pool owner must also
        guarantee one toolchain policy per pool), whether the arch
        (HVF) observation point captures the end-of-run hardware
        digest, which golden instrumentation the pruning mode and the
        static sanitizer demand (the :meth:`_capture_shape` pair --
        lifetime trace, retired-PC stream), the checkpoint
        stride/bound, whether boundary
        digests are collected for the early-stop comparator, and --
        when the inject-near-consumption acceleration is live -- the
        structure whose access log is captured.  Sampling knobs
        (samples, seed, window, distribution) never touch the golden
        trajectory and stay out of the key.
        """
        cfg = self.config
        accelerated = cfg.accelerate and self.structure.startswith("l1d.")
        return (
            self.level, self.workload,
            cfg.observation == "arch",
            self._capture_shape(),
            cfg.checkpoint_interval, cfg.checkpoint_bound,
            cfg.early_stop,
            (self.structure, cfg.accelerate_lead) if accelerated
            else None,
        )

    def run(self, progress=None, store=None, resume=False,
            golden_pool=None):
        """Execute the campaign.  Returns a :class:`CampaignResult`.

        The golden phase and fault sampling always run in this process;
        the faulty runs execute serially (``jobs=1``, the default) or on
        a process pool (:mod:`repro.injection.executor`).  Both backends
        run faults in injection-cycle order and produce records in
        fault-sample order.

        With a :class:`~repro.injection.store.CampaignStore` every
        completed fault is appended durably; with ``resume=True`` faults
        already on disk are loaded instead of re-run (the merged record
        sequence is bit-identical to an uninterrupted campaign, because
        the sample list is a pure function of the stored identity).
        ``progress`` then counts only the faults actually simulated this
        session.  A fully completed store resumes without building a
        simulator at all.

        ``golden_pool`` (a plain dict the caller owns, keyed by
        :meth:`golden_key`) lets campaigns of one scenario grid share
        golden captures: on a hit the whole golden phase is skipped and
        the pooled simulator/payload adopted; on a miss this campaign's
        capture is published for the cells after it.  Classifications
        are unaffected -- the key covers every capture-shaping knob,
        and warm-start ``seek`` restores bit-identical pre-injection
        states from any checkpoint-cache residency pattern.

        Failure model (see DESIGN.md, "Failure model & recovery
        semantics"): a fault that keeps killing, stalling or crashing
        its runs is quarantined as an :class:`~repro.injection.classify
        .Incident` after ``retries`` failed executions -- the campaign
        then completes *degraded* (``result.incidents`` non-empty)
        while every other fault classifies bit-identically.  The first
        SIGINT/SIGTERM drains in-flight work, flushes the store and
        raises :class:`~repro.errors.CampaignInterrupted` (resumable);
        a second signal hard-kills.
        """
        from repro.injection import supervisor

        cfg = self.config
        result = CampaignResult(self.workload, self.level, self.structure,
                                cfg)
        total_start = time.perf_counter()
        stored = {}
        stored_incidents = {}
        if store is not None:
            stored = store.begin(self.identity(), resume=resume)
            stored_incidents = store.incidents()
        chaos = supervisor.resolve_chaos(cfg.chaos)
        retries = cfg.retries or supervisor.DEFAULT_RETRIES
        try:
            with supervisor.GracefulShutdown() as shutdown:
                if store is not None and self._resume_complete(
                        result, stored, stored_incidents, store):
                    result.total_seconds = (time.perf_counter()
                                            - total_start)
                    return result
                shared = None
                if golden_pool is not None:
                    shared = golden_pool.get(self.golden_key())
                if shared is None:
                    sim = self.sim_factory()
                    golden = self._golden_phase(sim, result)
                    if golden_pool is not None:
                        golden_pool[self.golden_key()] = SharedGolden(
                            sim, golden, result.golden_cycles,
                            result.golden_insts, result.golden_seconds)
                else:
                    sim, golden = shared.sim, shared.golden
                    result.golden_cycles = shared.cycles
                    result.golden_insts = shared.insts
                    # This session spent nothing capturing the golden
                    # run -- the original capture's cost stays with the
                    # campaign that paid it, so the serial estimate (and
                    # hence speedup, ~1.0 at jobs=1) reflects only work
                    # actually done here, exactly like resumed records.
                    result.golden_seconds = 0.0
                specs = self._sample(sim, golden, result)
                if store is not None:
                    store.set_golden(result.golden_cycles,
                                     result.golden_insts,
                                     golden["end_cycle"],
                                     result.population,
                                     golden["bits"],
                                     trace=golden.get("trace"))
                self._check_stored_faults(stored, specs)
                self._check_stored_faults(stored_incidents, specs)
                pruned_records, eff_specs, member_of = \
                    self._prune_partition(sim, golden, specs)
                if store is not None:
                    for i in sorted(pruned_records):
                        if i not in stored and i not in stored_incidents:
                            store.append(i, pruned_records[i])
                remaining = [
                    (i, eff_specs[i]) for i in range(len(specs))
                    if i not in stored and i not in pruned_records
                    and i not in member_of and i not in stored_incidents
                ]
                # Dispatch in injection-cycle order so the golden cursor
                # (FaultRunner.run_one) replays each checkpoint segment
                # about once; records still merge by index.
                remaining.sort(key=lambda item: (item[1].cycle, item[0]))
                result.resumed = len(stored)
                result.resumed_seconds = sum(
                    stored[i].wall_seconds for i in range(len(specs))
                    if i in stored
                )
                on_record = None
                if store is not None:
                    def on_record(index, record):
                        store.append(index, record)

                def on_incident(incident):
                    if store is not None:
                        store.append_incident(incident)
                hang_deadline = int(
                    golden["end_cycle"] * cfg.hang_factor
                    + (cfg.window or 0) + 20_000
                )
                # Per-fault wall budget feeding derived batch deadlines:
                # a faulty run costs at most ~a golden run's wall time
                # scaled by the watchdog factor; the supervisor applies
                # a generous floor on top (adopted goldens report 0.0s
                # here and fall straight to the floor).
                fault_timeout_hint = (
                    result.golden_seconds * cfg.hang_factor * 4
                )
                # Only what the faulty phase reads travels to workers --
                # the access log (and hw_state outside arch mode) stays
                # local.  The checkpoint cache ships whole, so workers
                # share the same (bounded) restart points and boundary
                # digests.
                runner_golden = {
                    key: golden[key]
                    for key in ("cache", "pinout_keys", "output")
                }
                if cfg.observation == "arch":
                    runner_golden["hw_state"] = golden["hw_state"]
                runner = FaultRunner(cfg, runner_golden, hang_deadline)
                jobs = cfg.resolved_jobs(len(remaining))
                stop = shutdown.requested
                if jobs > 1:
                    from repro.injection import executor

                    (records_map, incidents, requeued, _,
                     jobs) = executor.run_parallel(
                        self.sim_factory, runner, remaining, jobs=jobs,
                        batch_size=cfg.batch_size,
                        start_method=cfg.start_method,
                        progress=progress, fallback_sim=sim,
                        on_record=on_record, on_incident=on_incident,
                        stop=stop, retries=retries,
                        batch_timeout=cfg.batch_timeout,
                        fault_timeout_hint=fault_timeout_hint,
                        chaos=chaos,
                    )
                else:
                    records_map, incidents, requeued, _ = \
                        supervisor.run_in_process(
                            sim, runner, remaining, retries=retries,
                            chaos=chaos, progress=progress,
                            on_record=on_record, on_incident=on_incident,
                            stop=stop,
                        )
                    jobs = 1
                runner.drop_cursor()
                result.jobs = jobs
                result.retried_count = requeued
                result.batch_cycles = runner.batch_cycles
                result.batch_lane_peak_bytes = runner.batch_lane_peak_bytes
                # Merge by fault index: pruned classifications and
                # stored records fill the gaps around the simulated
                # ones; every index appears exactly once, in
                # fault-sample order (the store stays authoritative for
                # anything it already holds).
                merged = dict(pruned_records)
                merged.update(records_map)
                merged.update(stored)
                all_incidents = dict(stored_incidents)
                for incident in incidents:
                    all_incidents[incident.index] = incident
                # Group members inherit their representative's verdict
                # (the representative is in ``merged``: simulated this
                # session or loaded from the store) -- unless the
                # representative was quarantined, in which case the
                # member has no verdict to inherit and is quarantined
                # with it.
                for m in sorted(member_of):
                    if m in merged or m in all_incidents:
                        continue  # resumed from the store
                    rep = member_of[m]
                    if rep in all_incidents:
                        member = Incident(
                            m, specs[m], "exception",
                            f"equivalence-group representative #{rep} "
                            f"was quarantined", attempts=0)
                        all_incidents[m] = member
                        on_incident(member)
                        continue
                    rep_record = merged[rep]
                    member = FaultRecord(specs[m], rep_record.fclass,
                                         rep_record.detail,
                                         pruned="group")
                    merged[m] = member
                    if store is not None:
                        store.append(m, member)
                resolved = set(merged) | set(all_incidents)
                if len(resolved) < len(specs):
                    # A drain request stopped the faulty phase early.
                    # Everything completed so far is flushed (the store
                    # appends per record), so the store resumes exactly
                    # where this run stopped.
                    raise CampaignInterrupted(
                        len(resolved), len(specs),
                        signame=shutdown.signame or "signal",
                        stored=store is not None,
                    )
                for i in range(len(specs)):
                    if i in all_incidents:
                        result.incidents.append(all_incidents[i])
                    else:
                        result.add(merged[i])
                result.total_seconds = time.perf_counter() - total_start
                return result
        finally:
            if store is not None:
                store.close()

    @staticmethod
    def _check_stored_faults(stored, specs):
        """Cross-check stored records against the redrawn sample list.

        The manifest identity covers every config knob, but a code
        change to the sampling itself would redraw different faults
        under an identical identity -- and the index merge would then
        silently mix two incompatible sample lists.  Records (and
        quarantined incidents) carry their fault, so verify it matches
        the spec at the same index (on ``original_cycle``, which is
        invariant under the inject-near-consumption acceleration).
        """
        from repro.injection.store import StoreMismatchError

        for i, record in stored.items():
            if i >= len(specs):
                raise StoreMismatchError(
                    f"stored record #{i} is beyond the {len(specs)} "
                    f"redrawn fault samples"
                )
            spec, fault = specs[i], record.fault
            if (fault.structure, fault.bit, fault.original_cycle) != (
                    spec.structure, spec.bit, spec.original_cycle):
                raise StoreMismatchError(
                    f"stored record #{i} was injected as {fault!r} but "
                    f"the redrawn sample is {spec!r}; the store predates "
                    f"a sampling change -- delete it and re-run"
                )

    def _resume_complete(self, result, stored, stored_incidents, store):
        """Fast path: every fault is on disk (classified record *or*
        quarantined incident) and the golden summary is recorded --
        rebuild the result without simulating anything.  The stored
        faults are still cross-checked against a redraw of the sample
        list (cheap: the manifest carries the golden run's bit count
        and end cycle), so a store predating a sampling change fails
        loudly here too.  Quarantined faults stay quarantined: a
        resume never re-runs a poison fault, which is what makes
        resuming a degraded campaign a no-op."""
        samples = self.config.samples
        if not all(i in stored or i in stored_incidents
                   for i in range(samples)):
            return False
        golden_info = store.golden_info()
        if golden_info is None or "bits" not in golden_info:
            return False
        redrawn = self._draw_specs(golden_info["bits"],
                                   golden_info["end_cycle"])
        self._check_stored_faults(stored, redrawn)
        self._check_stored_faults(stored_incidents, redrawn)
        result.golden_cycles = golden_info["cycles"]
        result.golden_insts = golden_info["insts"]
        result.population = golden_info["population"]
        for i in range(samples):
            if i in stored_incidents:
                result.incidents.append(stored_incidents[i])
            else:
                result.add(stored[i])
        result.resumed = len(result.records)
        result.resumed_seconds = sum(r.wall_seconds
                                     for r in result.records)
        return True
