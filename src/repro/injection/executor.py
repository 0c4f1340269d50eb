"""Parallel faulty-run execution: sharding and the supervised pool.

A campaign's step 2 (the faulty simulations) is embarrassingly
parallel: every run restores a golden checkpoint, injects one bit and
compares against read-only golden data.  This module shards the sampled
faults, in the campaign's injection-cycle dispatch order, into
contiguous batches and fans them out over the supervised worker set of
:mod:`repro.injection.supervisor`:

* the golden payload (trace keys, output, checkpoints) and the
  simulator factory are **serialized once** and shipped to each worker
  at spawn -- workers never recompute the golden run;
* each worker builds one simulator and reuses it across all its
  batches, exactly like the serial loop reuses one simulator across
  faults (``restore`` rebuilds the machine, so no state leaks between
  runs);
* batches complete in any order, but records are merged back by fault
  index, so the resulting sequence -- classes, details, cycle counts --
  is identical to what ``jobs=1`` produces for the same seed.  Only the
  ``wall_seconds`` timings differ;
* unlike the fire-and-forget pool this replaced, worker death, hung
  batches and poison faults are survivable: the supervisor respawns,
  re-shards with backoff, bisects repeated failures down to the
  offending fault and quarantines it as an
  :class:`~repro.injection.classify.Incident` (see DESIGN.md, "Failure
  model & recovery semantics").

The worker start method defaults to ``fork`` on Linux (cheapest: the
~100s-of-kB payload still transfers explicitly, but the interpreter
and imports come for free) and to ``spawn`` elsewhere.  Both are
supported; ``REPRO_MP_START`` or ``CampaignConfig(start_method=...)``
override the choice.
"""

import math
import os

from repro.injection import supervisor
from repro.injection.supervisor import (  # noqa: F401  (re-exports)
    DEFAULT_RETRIES,
    resolve_start_method,
)


def default_jobs():
    """The ``jobs=None`` resolution: one worker per *available* CPU.

    CPU affinity masks (taskset, container cpusets) make
    ``os.cpu_count()`` an overcount; honouring them avoids spawning
    dozens of workers pinned to one core.
    """
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) or 1
    return os.cpu_count() or 1


def shard(specs, jobs, batch_size=None):
    """Split ``specs`` into contiguous ``(start_index, faults)`` batches.

    The default batch size aims at ~4 batches per worker so a slow batch
    (hangs cost ``hang_factor`` times a normal run) cannot straggle the
    whole pool, without paying per-fault IPC overhead.  Smaller batches
    also shrink the blast radius of a worker crash: only the dead
    worker's batch is re-sharded and retried.
    """
    if batch_size is None:
        batch_size = max(1, math.ceil(len(specs) / (jobs * 4)))
    return [
        (start, specs[start:start + batch_size])
        for start in range(0, len(specs), batch_size)
    ]


def run_parallel(sim_factory, runner, items, jobs, batch_size=None,
                 start_method=None, progress=None, fallback_sim=None,
                 on_record=None, on_incident=None, stop=None,
                 retries=DEFAULT_RETRIES, batch_timeout=None,
                 fault_timeout_hint=None, chaos=None):
    """Execute ``items`` (``(fault_index, spec)`` pairs) on up to
    ``jobs`` supervised workers.

    Returns ``(records, incidents, requeued, drained, jobs_used)``:

    * ``records`` -- fault index -> :class:`~repro.injection.classify
      .FaultRecord` for every fault that classified (deterministic:
      bit-identical to the serial loop for a fixed seed, whatever
      crashes or retries happened along the way);
    * ``incidents`` -- quarantined faults (:class:`~repro.injection
      .classify.Incident`), each after ``retries`` failed executions;
    * ``requeued`` -- fault executions re-dispatched after a crash,
      deadline kill or exception;
    * ``drained`` -- True when ``stop()`` requested a graceful drain;
    * ``jobs_used`` -- may be lower than requested when there are fewer
      batches than workers (``1`` means everything ran in-process).

    ``progress(done, total, record)`` fires as each batch lands;
    ``done`` counts each fault exactly once regardless of batch
    boundaries or retries (a quarantined fault counts as done with
    ``record=None``).  ``on_record(index, record)`` is the
    campaign-store append hook -- called exactly once per classified
    fault, in completion order.  ``fallback_sim``, if given, serves the
    degenerate single-batch case instead of building a fresh simulator.
    """
    specs = [spec for _, spec in items]
    batches = shard(specs, jobs, batch_size)
    jobs = min(jobs, len(batches))
    if jobs <= 1:
        # Degenerate shard (e.g. one batch): stay in-process -- no
        # context, no queues, no payload pickling.
        sim = fallback_sim if fallback_sim is not None else sim_factory()
        records, incidents, requeued, drained = supervisor.run_in_process(
            sim, runner, items, retries=retries, chaos=chaos,
            progress=progress, on_record=on_record,
            on_incident=on_incident, stop=stop,
        )
        return records, incidents, requeued, drained, 1
    entry_batches = []
    offset = 0
    for _, faults in batches:
        entry_batches.append([
            (items[offset + k][0], spec, 0)
            for k, spec in enumerate(faults)
        ])
        offset += len(faults)
    pool = supervisor.WorkerSupervisor(
        sim_factory, runner, jobs, start_method=start_method,
        retries=retries, batch_timeout=batch_timeout,
        fault_timeout_hint=fault_timeout_hint, chaos=chaos,
    )
    records, incidents, requeued, drained = pool.run(
        entry_batches, progress=progress, on_record=on_record,
        on_incident=on_incident, stop=stop,
    )
    # Lane-engine accounting flows back from the workers (the old pool
    # dropped it for jobs>1).
    runner.batch_cycles += pool.batch_cycles
    runner.batch_lane_peak_bytes = max(runner.batch_lane_peak_bytes,
                                       pool.batch_lane_peak_bytes)
    return records, incidents, requeued, drained, jobs
