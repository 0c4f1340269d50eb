"""Command-line entry point: ``repro-study``.

The primary command runs a declarative scenario (see DESIGN.md's
"scenario layer" section for the spec reference)::

    repro-study run scenario.toml [--set key=value] [--csv out.csv]
    repro-study run fig1 --set faults.samples=100   # built-in preset
    repro-study list                                 # valid spec values

The paper's artifacts are committed preset scenarios
(``src/repro/scenario/presets/*.toml``); the historical subcommands are
thin loaders over them and stay bit-identical to the pre-scenario code
paths::

    repro-study table1
    repro-study table2 [--workloads sha,fft] [--no-trace]
    repro-study fig1|fig2|fig3 [--samples N] [--workloads ...] [--jobs N]
    repro-study headline [--samples N] [--jobs N]
    repro-study golden <workload> [--level arch|uarch|rtl]
    repro-study store <dir> [<dir> ...] [--export jsonl]
    repro-study staticcheck [<workload>] [--all]

``--level`` choices come from the backend registry
(``repro.sim.registry``): the architectural emulator (``arch``), the
microarchitectural model (``uarch``) and the RT-level model (``rtl``).

Campaign-running subcommands (``run``, ``fig1``..``fig3``,
``headline``) accept ``--jobs`` to fan the faulty runs of each campaign
out over a process pool (default: one worker per CPU; ``--jobs 1``
forces the serial path), ``--prune {off,dead,group,static}`` to control
fault pruning -- lifetime-aware from the golden access trace
(``dead``/``group``) or capture-free from static dataflow analysis of
the program text (``static``, :mod:`repro.staticcheck`; arch and rtl
tiers) -- plus ``--store DIR``
to persist every completed fault to an on-disk campaign store and
``--resume`` to continue an interrupted run without repeating finished
faults.  ``--lanes N`` additionally vectorizes the faulty runs of
rtl-tier campaigns (``repro.batch``; the only lane-batchable tier): N
runs execute as one numpy pass with bit-identical per-fault classes.
Results are independent of the worker count, of the lane count and of
interruption/resume, and per-fault classes are independent of ``dead`` pruning -- see DESIGN.md.

Campaigns run supervised: a crashed or hung worker is respawned and its
batch retried; a fault that keeps killing workers is quarantined after
``--retries`` attempts (recorded in the store's ``incidents.jsonl``)
and the campaign completes *degraded* instead of dying.  The first
SIGINT/SIGTERM drains in-flight faults and flushes the store so
``--resume`` continues exactly where the run stopped (exit status 130);
a second signal hard-kills.  See DESIGN.md's "Failure model & recovery
semantics".
"""

import argparse
import sys

#: Shared text for the --jobs flag (also referenced from README.md).
JOBS_HELP = (
    "worker processes per campaign's faulty-run phase "
    "(default: one per CPU; 1 = serial, deterministic baseline; "
    "results are identical for any value)"
)

STORE_HELP = (
    "root directory for on-disk campaign stores (one subdirectory per "
    "series: manifest + append-only records, flushed per fault; fresh "
    "stores use the compact binary format -- see --store-format)"
)

STORE_FORMAT_HELP = (
    "record format for fresh stores: 'binary' (default; bitpacked "
    "records.bin + strings.dat, mmap-queried) or 'jsonl' (one JSON "
    "object per fault, human-greppable).  Existing stores keep their "
    "format; `repro-study store <dir> --export jsonl` converts"
)

RESUME_HELP = (
    "load faults already completed in --store instead of re-running "
    "them; the merged result is bit-identical to an uninterrupted run"
)

LANES_HELP = (
    "vectorized fault lanes per campaign (repro.batch): N > 1 executes "
    "N faulty runs of the rtl tier as one numpy pass; per-fault "
    "classes are bit-identical to the scalar path.  Only rtl is "
    "lane-batchable: rejected for scenarios targeting arch or uarch"
)

RETRIES_HELP = (
    "failed-batch attempts per fault before quarantine (default: 2): a "
    "fault whose batch crashes, hangs past its deadline or raises this "
    "many times is recorded as an incident in the store's "
    "incidents.jsonl sidecar and the campaign completes degraded; "
    "every other fault's class is unaffected"
)

PRUNE_HELP = (
    "fault pruning: 'dead' (default) classifies faults whose bit is "
    "overwritten before its next read as Masked without simulating "
    "them (repro.prune, golden access trace) -- per-fault classes are "
    "identical to 'off', only cheaper; 'group' additionally collapses "
    "faults sharing a live interval onto one representative "
    "(approximate windows, opt-in); 'static' proves the same "
    "dead-interval verdicts from dataflow analysis of the program "
    "text alone (repro.staticcheck, no access trace captured; arch "
    "and rtl tiers -- elsewhere every fault simulates)"
)

PRUNE_CHOICES = ("off", "dead", "group", "static")

_EPILOGS = {
    "run": """\
Runs a scenario file (TOML/JSON) or a built-in preset by name.  The
scenario declares targets (levels x workloads x structures x modes),
the fault budget, execution knobs and optional sweep axes; `--set`
overrides any spec key from the command line.  Output: each cell's
summary table (plus the preset's figure/headline rendering when the
scenario carries a [present] block); `--csv` exports the ResultSet.

examples:
  repro-study run fig1 --set faults.samples=100
  repro-study run sweep.toml --set sweep.prune=off,dead --csv out.csv
  repro-study run sweep-smoke --set execution.store=runs/smoke""",
    "list": """\
Discovery for scenario authors: every value a spec can target --
registered abstraction levels, their observation modes and injectable
structures, workloads, sweepable axes and built-in presets.""",
    "table1": """\
Renders Table I: the Cortex-A9 configuration used at both abstraction
levels (pipeline geometry, cache organisation, predictor).  Static --
runs no simulation.""",
    "table2": """\
Renders Table II: simulation throughput per framework (RT level with
signal tracing vs microarchitecture level), the paper's 198.6x-style
comparison.  Runs one golden simulation per workload and level.

examples:
  repro-study table2 --workloads sha,fft
  repro-study table2 --no-trace     # untraced RTL throughput""",
    "fig1": """\
Regenerates Figure 1: register-file unsafeness at the core-pinout
observation point, 20 kcycle (scaled) window -- GeFIN vs RTL vs
GeFIN-no-timer.  Loads the committed preset scenario
src/repro/scenario/presets/fig1.toml.

examples:
  repro-study fig1 --samples 100 --jobs 4
  REPRO_SFI_SAMPLES=200 repro-study fig1 --workloads sha""",
    "fig2": """\
Regenerates Figure 2: L1 data-cache unsafeness at the core pinout,
windowed; the RTL series uses the paper's inject-near-consumption
acceleration (SS IV-B).  Preset: presets/fig2.toml.""",
    "fig3": """\
Regenerates Figure 3: L1D AVF with the software observation point
(program-output comparison, run to completion) on the short workloads
the paper's RTL flow can afford.  Preset: presets/fig3.toml.""",
    "headline": """\
Reproduces the abstract's headline numbers: the cross-level unsafeness
deltas for the register file (from Fig. 1) and the L1D (from Fig. 3),
plus a wall-clock accounting of the campaign executor (speedup vs the
estimated serial time when --jobs > 1).  Preset: presets/headline.toml.""",
    "golden": """\
One fault-free run of a workload; prints cycles, instructions, cache
and predictor statistics and the program output.  Useful to sanity-check
a workload/toolchain/simulator combination before a campaign.  The
arch level (the emulator tier) is the cheapest pre-run path: no
pipeline or cache model, cycle counts are an instruction-count proxy.

examples:
  repro-study golden sha --level rtl
  repro-study golden sha --level arch""",
    "store": """\
Summarizes one or more on-disk campaign stores (written by campaign
subcommands with --store): per-store completion, class tallies and the
recorded provenance.  Reads manifests and intact records only -- a
store whose campaign was killed mid-fault is still summarized.  Binary
stores (format 2, the default) are tallied straight off the mmap;
JSONL stores (format 1) are parsed.  `--export jsonl` prints one
store's records as JSONL on stdout -- the debug view of a binary store.

examples:
  repro-study fig1 --samples 100 --store runs/fig1 --jobs 4
  repro-study store runs/fig1/*
  repro-study store runs/fig1/uarch-sha-regfile-pinout --export jsonl""",
    "staticcheck": """\
Lints workload binaries with the static dataflow engine
(repro.staticcheck): registers read before any path defines them,
blocks unreachable from the entry point, and stores no path ever
reads.  Known-intentional findings (the calling-convention prologue
pushes) are waived inline and marked; anything unwaived fails the
command (exit 1), which makes it a CI gate over the workload registry.
Static -- assembles each workload, runs no simulation.

examples:
  repro-study staticcheck --all
  repro-study staticcheck stringsearch""",
}


def _positive_jobs(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive worker count, got {value}"
        )
    return value


def _positive_retries(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive attempt count, got {value}"
        )
    return value


def _parse_workloads(text):
    from repro.workloads.registry import WORKLOAD_NAMES

    if not text:
        return WORKLOAD_NAMES
    names = tuple(name.strip() for name in text.split(",") if name.strip())
    unknown = [n for n in names if n not in WORKLOAD_NAMES]
    if unknown:
        raise SystemExit(f"unknown workloads: {unknown}")
    return names


# ----------------------------------------------------------------------
# scenario plumbing
# ----------------------------------------------------------------------

def _resolve_scenario(ref):
    """A scenario argument: a file path (has a suffix or a separator)
    or a preset name."""
    import pathlib

    from repro.scenario.presets import preset_path

    path = pathlib.Path(ref)
    if path.suffix or "/" in ref or path.exists():
        return path
    return preset_path(ref)


def _progress_cell(done, total, cell, _result):
    print(f"  [{done}/{total}] {cell.label()} done", file=sys.stderr)


def _run_scenario(spec):
    """Print the run header, execute the grid, return the ResultSet."""
    from repro.scenario.runner import ScenarioRunner

    print(f"# {spec.describe()}", file=sys.stderr)
    resultset = ScenarioRunner(spec, progress=_progress_cell).run()
    _warn_degraded(resultset)
    return resultset


def _warn_degraded(resultset):
    """One stderr line per degraded campaign: quarantined faults are
    excluded from the statistics, which the tables alone don't shout."""
    for cell, result in resultset:
        if getattr(result, "degraded", False):
            print(f"# DEGRADED {cell.label()}: "
                  f"{len(result.incidents)} fault(s) quarantined "
                  f"(see incidents.jsonl in the cell's store)",
                  file=sys.stderr)


def _render_headline(spec, resultset):
    """The headline preset's rendering: one cross-level comparison
    table per [present.comparisons] entry, then the wall-clock
    accounting over every campaign in [present.series] order --
    the historical `headline` output, reproduced from the ResultSet."""
    from repro.analysis.compare import CrossLevelComparison
    from repro.analysis.report import render_table, speedup_table

    for comp in spec.present.get("comparisons", []):
        comparison = CrossLevelComparison(comp["structure"],
                                          comp.get("mode", ""))
        gefin = resultset.where(**comp["gefin"])
        rtl = resultset.where(**comp["rtl"])
        for cell, gefin_result in gefin:
            rtl_result = rtl.where(workload=cell.workload).one()
            comparison.add_results(gefin_result, rtl_result)
        print(render_table(
            ("workload", "GeFIN", "RTL", "delta (pp)", "delta (rel)"),
            comparison.rows(),
            title=f"Cross-level delta: {comp['name']}",
        ))
        print()
    campaigns = [
        result
        for series in spec.present.get("series", [])
        for _, result in resultset.where(**{
            axis: series[axis]
            for axis in ("level", "mode", "structure") if axis in series
        })
    ]
    print(speedup_table(
        campaigns,
        title=f"Campaign wall clock (jobs={spec.jobs or 'auto'})",
    ))


def _render_table2(spec):
    """The table2 preset renders through the dedicated throughput
    measurement (paired traced-RTL vs GeFIN golden runs), not the
    campaign grid."""
    from repro.core.tables import render_table2, table2_rows

    rows, average = table2_rows(
        spec.workloads, rtl_traced=spec.present.get("rtl_traced", True))
    print(render_table2(rows, average))


def _render_scenario(spec, resultset):
    """Dispatch on the spec's [present] block; always end with the
    per-cell table for sweeps/plain scenarios."""
    kind = spec.present.get("kind")
    if kind == "figure":
        from repro.core.figures import chart_from_resultset

        print(chart_from_resultset(resultset, spec.present))
    elif kind == "headline":
        _render_headline(spec, resultset)
    else:
        print(resultset.table(
            title=spec.title or f"Scenario: {spec.name}"))


def _run_flag_overrides(args):
    """The run subcommand's convenience flags as --set pairs (applied
    before --set, so an explicit --set wins)."""
    overrides = []
    if args.jobs is not None:
        overrides.append(f"execution.jobs={args.jobs}")
    if args.lanes is not None:
        overrides.append(f"execution.lanes={args.lanes}")
    if args.prune is not None:
        overrides.append(f"execution.prune={args.prune}")
    if args.retries is not None:
        overrides.append(f"execution.retries={args.retries}")
    if args.store is not None:
        # pre-split tuple: the path must reach the spec verbatim, not
        # through TOML-scalar coercion (see parse_overrides)
        overrides.append((("execution", "store"), args.store))
    if getattr(args, "store_format", None) is not None:
        overrides.append(f"execution.store_format={args.store_format}")
    if args.resume:
        overrides.append("execution.resume=true")
    return overrides


def _cmd_run(args):
    from repro.scenario.spec import load_scenario

    path = _resolve_scenario(args.scenario)
    spec = load_scenario(
        path, overrides=_run_flag_overrides(args) + (args.set or []))
    if spec.present.get("kind") == "table2":
        if args.csv:
            raise SystemExit(
                "repro-study: --csv is not supported for table2-kind "
                "scenarios (throughput is measured outside the "
                "campaign grid)")
        print("# table2 scenario: paired golden throughput runs; "
              "faults/execution knobs do not apply", file=sys.stderr)
        _render_table2(spec)
        return
    resultset = _run_scenario(spec)
    _render_scenario(spec, resultset)
    if args.csv:
        import pathlib

        out = pathlib.Path(args.csv)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(resultset.to_csv())
        print(f"# wrote {len(resultset)} cells to {out}",
              file=sys.stderr)


def _legacy_overrides(args):
    """Map the historical figure-subcommand flags onto --set pairs."""
    overrides = [f"execution.jobs={args.jobs}",
                 f"execution.prune={args.prune}",
                 f"faults.seed={args.seed}"]
    if args.lanes is not None and args.lanes != 1:
        overrides.append(f"execution.lanes={args.lanes}")
    if getattr(args, "retries", None) is not None:
        overrides.append(f"execution.retries={args.retries}")
    if args.workloads:
        overrides.append("targets.workloads="
                         + ",".join(_parse_workloads(args.workloads)))
    if args.samples is not None:
        overrides.append(f"faults.samples={args.samples}")
    if args.store:
        overrides.append((("execution", "store"), args.store))
        if getattr(args, "store_format", None) is not None:
            overrides.append(
                f"execution.store_format={args.store_format}")
        if args.resume:
            overrides.append("execution.resume=true")
    return overrides


def _load_legacy_preset(name, args):
    from repro.scenario.presets import load_preset

    if args.resume and not args.store:
        raise SystemExit("--resume requires --store")
    return load_preset(name, overrides=_legacy_overrides(args))


# ----------------------------------------------------------------------
# subcommand handlers
# ----------------------------------------------------------------------

def _cmd_list(_args):
    from repro.scenario.presets import preset_names, preset_path
    from repro.scenario.spec import SWEEP_AXES, load_mapping
    from repro.sim import registry
    from repro.staticcheck import static_prune_available
    from repro.workloads.registry import (
        WORKLOAD_DESCRIPTIONS,
        WORKLOAD_NAMES,
    )

    print("abstraction levels (targets.levels / sweep.level):")
    for spec in registry.levels():
        sim_class = spec.simulator_class()
        batchable = getattr(sim_class, "BATCHABLE", False)
        tag = "  [lane-batchable]" if batchable else ""
        if static_prune_available(spec.name):
            tag += "  [static-prunable]"
        print(f"  {spec.name:<14} {spec.description}{tag}")
        modes = sorted(spec.frontend_class().MODES)
        structures = sorted(sim_class.INJECTABLE)
        print(f"  {'':<14} modes: {', '.join(modes)}")
        print(f"  {'':<14} structures: {', '.join(structures)}")
    print()
    print("workloads (targets.workloads, or \"all\"):")
    for name in WORKLOAD_NAMES:
        print(f"  {name:<14} {WORKLOAD_DESCRIPTIONS[name]}")
    print()
    print("presets (repro-study run <name>):")
    for name in preset_names():
        meta = load_mapping(preset_path(name)).get("scenario", {})
        print(f"  {name:<14} {meta.get('title', '')}")
    print()
    print(f"sweep axes ([sweep]): {', '.join(SWEEP_AXES)}")


def _cmd_table1(_args):
    from repro.core.tables import render_table1

    print(render_table1())


def _cmd_table2(args):
    from repro.scenario.presets import load_preset

    overrides = []
    if args.workloads:
        overrides.append("targets.workloads="
                         + ",".join(_parse_workloads(args.workloads)))
    if args.no_trace:
        overrides.append("present.rtl_traced=false")
    _render_table2(load_preset("table2", overrides=overrides))


def _cmd_fig(args, which):
    from repro.core.figures import chart_from_resultset

    spec = _load_legacy_preset(f"fig{which}", args)
    resultset = _run_scenario(spec)
    print(chart_from_resultset(resultset, spec.present))


def _cmd_headline(args):
    spec = _load_legacy_preset("headline", args)
    resultset = _run_scenario(spec)
    _render_headline(spec, resultset)


def _cmd_store(args):
    if args.export:
        from repro.injection.store import CampaignStore

        if len(args.stores) != 1:
            raise SystemExit(
                "repro-study: --export takes exactly one store "
                "directory")
        store = CampaignStore(args.stores[0])
        store.manifest()  # fail early on a non-store path
        for line in store.export_jsonl():
            print(line)
        return
    from repro.analysis.report import store_table

    print(store_table(args.stores, title="Campaign stores"))


def _cmd_staticcheck(args):
    from repro.staticcheck import lint_workload
    from repro.workloads.registry import WORKLOAD_NAMES

    if args.workload is None and not args.all:
        raise SystemExit(
            "repro-study: staticcheck needs a workload name or --all")
    names = WORKLOAD_NAMES if args.all else (args.workload,)
    unwaived = 0
    for name in names:
        findings = lint_workload(name)
        shown = findings if args.waived else \
            [f for f in findings if not f.waived]
        tally = (f"{len(findings)} finding(s), "
                 f"{sum(1 for f in findings if f.waived)} waived")
        print(f"{name}: {tally}" if findings else f"{name}: clean")
        for finding in shown:
            tag = " [waived]" if finding.waived else ""
            print(f"  {finding.addr:#06x} {finding.kind} "
                  f"{finding.subject}: {finding.message}{tag}")
        unwaived += sum(1 for f in findings if not f.waived)
    if unwaived:
        raise SystemExit(
            f"repro-study: {unwaived} unwaived finding(s)")


def _cmd_golden(args):
    from repro.sim import registry

    front = registry.create_frontend(args.level, args.workload)
    sim = front.golden_run()
    stats = sim.stats()
    print(f"workload      : {args.workload} ({args.level})")
    print(f"status        : exited={sim.exited} code={sim.exit_code}")
    print(f"cycles        : {stats['cycles']}")
    print(f"instructions  : {stats['instructions']} (IPC "
          f"{stats['ipc']:.2f})")
    print(f"L1D miss/hit  : {stats['l1d_misses']}/{stats['l1d_hits']}")
    print(f"mispredicts   : {stats['mispredicts']}")
    print(f"output        : {sim.output!r}")


def _add_parser(sub, name, help_text):
    return sub.add_parser(
        name,
        help=help_text,
        description=help_text,
        epilog=_EPILOGS[name],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )


def main(argv=None):
    from repro import __version__

    parser = argparse.ArgumentParser(
        prog="repro-study",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version",
                        version=f"repro-study {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = _add_parser(sub, "run",
                        "run a declarative scenario file or preset")
    p_run.add_argument("scenario",
                       help="scenario file (.toml/.json) or preset name "
                            "(see `repro-study list`)")
    p_run.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a spec key (dotted path), e.g. "
                            "--set faults.samples=100 "
                            "--set sweep.prune=off,dead")
    p_run.add_argument("--csv", default=None, metavar="PATH",
                       help="write the ResultSet summary CSV "
                            "(one row per cell) to PATH")
    p_run.add_argument("--jobs", type=_positive_jobs, default=None,
                       help=JOBS_HELP + " (default: the spec's "
                            "execution.jobs)")
    p_run.add_argument("--lanes", type=_positive_jobs, default=None,
                       help=LANES_HELP + " (default: the spec's "
                            "execution.lanes)")
    p_run.add_argument("--prune", choices=PRUNE_CHOICES,
                       default=None, help=PRUNE_HELP)
    p_run.add_argument("--retries", type=_positive_retries, default=None,
                       help=RETRIES_HELP)
    p_run.add_argument("--store", default=None, help=STORE_HELP)
    p_run.add_argument("--store-format", choices=("binary", "jsonl"),
                       default=None, help=STORE_FORMAT_HELP)
    p_run.add_argument("--resume", action="store_true", help=RESUME_HELP)
    _add_parser(sub, "list",
                "valid scenario spec values (levels, workloads, ...)")
    _add_parser(sub, "table1", "Table I: simulated CPU configuration")
    p_table2 = _add_parser(
        sub, "table2", "Table II: per-framework simulation throughput")
    p_table2.add_argument("--workloads", default="",
                          help="comma-separated workload subset "
                               "(default: all)")
    p_table2.add_argument("--no-trace", action="store_true",
                          help="disable RTL signal tracing (faster, "
                               "less NCSIM-like)")
    fig_help = {
        "fig1": "Figure 1: register-file unsafeness, pinout OP",
        "fig2": "Figure 2: L1D unsafeness, pinout OP",
        "fig3": "Figure 3: L1D AVF, software OP",
        "headline": "the abstract's cross-level deltas + wall clock",
    }
    from repro.injection.executor import default_jobs

    for name in ("fig1", "fig2", "fig3", "headline"):
        p = _add_parser(sub, name, fig_help[name])
        p.add_argument("--workloads", default="",
                       help="comma-separated workload subset "
                            "(default: all)")
        p.add_argument("--samples", "--faults", type=int, default=None,
                       help="faults per (workload, structure, mode) "
                            "series (default: REPRO_SFI_SAMPLES or 40)")
        p.add_argument("--seed", type=int, default=2017,
                       help="campaign RNG seed (default: 2017)")
        p.add_argument("--jobs", type=_positive_jobs,
                       default=default_jobs(), help=JOBS_HELP)
        p.add_argument("--lanes", type=_positive_jobs, default=None,
                       help=LANES_HELP)
        p.add_argument("--prune", choices=PRUNE_CHOICES,
                       default="dead", help=PRUNE_HELP)
        p.add_argument("--retries", type=_positive_retries, default=None,
                       help=RETRIES_HELP)
        p.add_argument("--store", default=None, help=STORE_HELP)
        p.add_argument("--store-format", choices=("binary", "jsonl"),
                       default=None, help=STORE_FORMAT_HELP)
        p.add_argument("--resume", action="store_true", help=RESUME_HELP)
    p_store = _add_parser(sub, "store",
                          "summarize on-disk campaign stores")
    p_store.add_argument("stores", nargs="+",
                         help="store directories (manifest + binary or "
                              "JSONL records)")
    p_store.add_argument("--export", choices=("jsonl",), default=None,
                         help="print one store's records as JSONL on "
                              "stdout (debug export; exactly one "
                              "store directory)")
    from repro.sim.registry import level_names

    p_golden = _add_parser(sub, "golden",
                           "one fault-free run of a workload")
    p_golden.add_argument("workload", help="workload name (see README.md)")
    p_golden.add_argument("--level", choices=level_names(),
                          default="uarch",
                          help="abstraction level to simulate at "
                               "(default: uarch)")
    p_static = _add_parser(sub, "staticcheck",
                           "lint workload binaries with the static "
                           "dataflow engine")
    p_static.add_argument("workload", nargs="?", default=None,
                          help="workload name (see `repro-study list`)")
    p_static.add_argument("--all", action="store_true",
                          help="lint every registered workload")
    p_static.add_argument("--waived", action="store_true",
                          help="also print findings covered by the "
                               "inline waiver list")
    args = parser.parse_args(argv)
    from repro.errors import CampaignInterrupted, ExecutionError
    from repro.injection.store import StoreError
    from repro.scenario.spec import ScenarioError

    try:
        if args.command == "run":
            _cmd_run(args)
        elif args.command == "list":
            _cmd_list(args)
        elif args.command == "table1":
            _cmd_table1(args)
        elif args.command == "table2":
            _cmd_table2(args)
        elif args.command == "fig1":
            _cmd_fig(args, 1)
        elif args.command == "fig2":
            _cmd_fig(args, 2)
        elif args.command == "fig3":
            _cmd_fig(args, 3)
        elif args.command == "headline":
            _cmd_headline(args)
        elif args.command == "golden":
            _cmd_golden(args)
        elif args.command == "store":
            _cmd_store(args)
        elif args.command == "staticcheck":
            _cmd_staticcheck(args)
    except (StoreError, ScenarioError, ExecutionError) as exc:
        # Spec, store and execution-knob problems (bad field, unknown
        # preset, refusal to overwrite completed records, identity
        # mismatch, misspelled start method) are user-facing
        # conditions, not tracebacks.
        raise SystemExit(f"repro-study: {exc}")
    except CampaignInterrupted as exc:
        # Graceful shutdown: the store (if any) was flushed and is
        # resumable.  128 + SIGINT, the conventional interrupt status.
        print(f"repro-study: interrupted -- {exc}", file=sys.stderr)
        return 130
    return 0


if __name__ == "__main__":
    sys.exit(main())
