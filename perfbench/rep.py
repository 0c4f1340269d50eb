"""One repetition of a benchmark workload, in a fresh process.

Usage (``run.py`` starts it; it is not meant to be run by hand)::

    python3 perfbench/rep.py WORKLOAD FAULT_SEED STORE_DIR [--trace] [--setup-only]

It imports ``repro`` from the checkout's ``src``, builds every
front-end the grid needs and prints ``ready`` -- the parent times set-up
as process start to that line.  Then it runs the campaign grid (plus,
on ``arch-screen``, a resume pass over the same store) and prints one
JSON line: phase time, peak RSS, every cell's per-fault record keys
and unsafeness, and with ``--trace`` the per-layer figures.
"""

import json
import pathlib
import resource
import sys
import time

import workloads

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def record_keys(result):
    """The bit-identity projection of a campaign's records: (bit,
    cycle, class, detail, sim_cycles), as ``benchmarks/conftest.py``
    defines it."""
    return [[r.fault.bit, r.fault.cycle, r.fclass.value, r.detail,
             r.sim_cycles] for r in result.records]


def cell_summary(cell, result):
    low, high = result.confidence_interval()
    return {
        "key": cell.store_name(),
        "level": cell.level, "workload": cell.workload,
        "mode": cell.mode,
        "records": record_keys(result),
        "incidents": len(result.incidents),
        "unsafeness": result.unsafeness, "ci": [low, high],
    }


def resume_check(first, second):
    """Faults the resume pass re-ran, and records it changed."""
    rerun = changed = 0
    for (_, a), (_, b) in zip(first, second):
        rerun += b.n - b.resumed
        changed += sum(1 for x, y in zip(record_keys(a), record_keys(b))
                       if x != y) + abs(a.n - b.n)
    return rerun, changed


def record_figures(results):
    """Worker-safe per-layer figures taken from the records."""
    import harness

    records = [r for result in results for r in result.records]
    simulated = [r for r in records if r.simulated]
    walls = [r.wall_seconds * 1000 for r in simulated]
    tail = harness.tail_percentile(walls)
    figures = {
        "fault.simulated": len(simulated),
        "fault.p50_ms": harness.nearest_rank(walls, 50) if walls else 0.0,
        "fault.tail_ms": 0.0, "fault.tail_pct": 0,
        "fault.tail_beyond": 0, "fault.tail_cycles": 0,
        "seek.replay_cycles": sum(r.replay_cycles for r in records),
        "prune.ratio": (len(records) - len(simulated)) / len(records),
    }
    if tail is not None:
        pct, value, beyond = tail
        figures.update({
            "fault.tail_ms": value, "fault.tail_pct": pct,
            "fault.tail_beyond": beyond,
            "fault.tail_cycles": harness.nearest_rank(
                [r.sim_cycles for r in simulated], pct)})
    return figures


def main(argv):
    name, fault_seed, store = argv[0], int(argv[1]), argv[2]
    tracer = None
    if "--trace" in argv:
        # Imported only when tracing: the benchmark's own modules stay
        # out of the untraced repetitions' measured memory.
        import tracing

        tracer = tracing.install()
    from repro.scenario.runner import ScenarioRunner
    from repro.scenario.spec import ScenarioSpec

    spec = ScenarioSpec.from_mapping(workloads.mapping(name, fault_seed,
                                                       store))
    cells = spec.cells()
    runner = ScenarioRunner(spec)
    for cell in cells:
        # Build the front-ends now, so set-up ends here and the
        # campaign phase holds only campaign work.
        runner._frontend(cell.level, cell.workload)
    print("ready", flush=True)
    if "--setup-only" in argv:
        return

    started = time.perf_counter()
    items = list(runner.run(cells))
    out = {}
    if name == "arch-screen":
        resume_started = time.perf_counter()
        data = workloads.mapping(name, fault_seed, store)
        data["execution"]["resume"] = True
        again = ScenarioSpec.from_mapping(data)
        second = ScenarioRunner(again)
        # Same process, same programs: reuse the built front-ends so
        # the pass times store reads, not program assembly.
        second._frontends = runner._frontends
        resumed = list(second.run(again.cells()))
        out["resume_s"] = time.perf_counter() - resume_started
    out["phase_s"] = time.perf_counter() - started
    out["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if name == "arch-screen":
        out["resume_rerun"], out["resume_changed"] = resume_check(
            items, resumed)
        out["store_bytes"] = sum(p.stat().st_size for p in
                                 pathlib.Path(store).rglob("*")
                                 if p.is_file())
    out["faults"] = sum(result.config.samples for _, result in items)
    out["cells"] = [cell_summary(cell, result) for cell, result in items]
    if tracer is not None:
        layers = tracing.layer_metrics(tracer.spans)
        layers.update(record_figures([result for _, result in items]))
        layers["store.resume_s"] = out.get("resume_s", 0.0)
        layers["store.bytes"] = out.get("store_bytes", 0)
        out["layers"] = layers
    print(json.dumps(out), flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
