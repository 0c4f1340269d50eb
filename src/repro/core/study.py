"""Cross-level study orchestration (compatibility layer).

Since the scenario redesign, the supported experiment surface is
:mod:`repro.scenario`: declare a :class:`~repro.scenario.spec
.ScenarioSpec` (TOML/JSON or Python), run it through
:class:`~repro.scenario.runner.ScenarioRunner`, query the returned
:class:`~repro.scenario.resultset.ResultSet`.  The classes here keep
the historical Python API alive as thin shims over that machinery:

* :class:`StudyConfig` validates its knobs by building a
  :class:`ScenarioSpec` (exposed as :attr:`StudyConfig.spec`) and
  derives its run header from the shared knob table;
* :class:`CrossLevelStudy` dispatches every figure's campaigns through
  one persistent :class:`ScenarioRunner`, which also gives the legacy
  path golden-capture sharing and per-cell result caching for free.

Figure results keep their historical ``{series: {workload:
CampaignResult}}`` shape, bit-identical to the pre-scenario code path.
"""

import os
import pathlib

from repro.analysis.compare import CrossLevelComparison
from repro.injection.campaign import SCALED_WINDOW
from repro.sim import registry as sim_registry
from repro.workloads.registry import WORKLOAD_NAMES

#: The paper analyses only the shorter benchmarks with the RTL SOP flow
#: (Fig. 3) because full RTL runs of the long ones are infeasible.
FIG3_WORKLOADS = ("caes", "stringsearch", "susan_corners", "susan_edges",
                  "susan_smooth")


def default_samples():
    """Sample count per (workload, structure, mode) series.

    The Leveugle-exact size is ~4000 (reported in every result); the
    default here is wall-clock bounded and overridable with
    ``REPRO_SFI_SAMPLES``.
    """
    return int(os.environ.get("REPRO_SFI_SAMPLES", "40"))


class StudyConfig:
    """Configuration of one full cross-level study.

    A compatibility shim: the knobs live on, but validation and the
    run header are delegated to the scenario layer (:attr:`spec`).
    """

    def __init__(self, workloads=WORKLOAD_NAMES, samples=None, seed=2017,
                 window=SCALED_WINDOW, distribution="normal",
                 same_binaries=False, jobs=1, batch_size=None, lanes=1,
                 store=None, resume=False, prune="dead"):
        self.workloads = tuple(workloads)
        self.samples = samples if samples is not None else default_samples()
        self.seed = seed
        self.window = window
        self.distribution = distribution
        #: Ablation A3: force both levels onto one toolchain's binary.
        self.same_binaries = same_binaries
        #: Worker processes per campaign's faulty-run phase (``1`` =
        #: serial, ``None`` = one per CPU); see repro.injection.executor.
        self.jobs = jobs
        self.batch_size = batch_size
        #: Vectorized lane count for the faulty phase (``repro.batch``;
        #: effective on the batchable level only -- rtl).
        self.lanes = lanes
        #: Root directory for per-campaign stores (``None`` = volatile).
        #: Each (level, workload, structure, mode) series gets its own
        #: subdirectory; see repro.injection.store.
        self.store = store
        #: Load already-completed faults from the store instead of
        #: re-running them.
        self.resume = resume
        #: Lifetime-aware fault pruning mode for every campaign
        #: (``off``/``dead``/``group``; see :mod:`repro.prune`).
        self.prune = prune
        self._spec = None

    @property
    def spec(self):
        """The equivalent :class:`~repro.scenario.spec.ScenarioSpec`
        (built lazily; validation errors surface here with the
        offending field named)."""
        if self._spec is None:
            from repro.scenario.spec import ScenarioSpec

            self._spec = ScenarioSpec(
                name="study",
                workloads=self.workloads,
                samples=self.samples,
                seed=self.seed,
                window="to-end" if self.window is None else self.window,
                distribution=self.distribution,
                jobs=self.jobs,
                batch_size=self.batch_size,
                lanes=self.lanes,
                prune=self.prune,
                store=None if self.store is None else str(self.store),
                # ``resume`` without a store is a no-op at the campaign
                # layer; the scenario schema treats it as an authoring
                # error, so only carry it when it can take effect.
                resume=self.resume and self.store is not None,
                same_binaries=self.same_binaries,
            )
        return self._spec

    def describe(self):
        """One line identifying the run (printed by ``repro-study``),
        from the same knob table every other run header uses."""
        from repro.scenario.knobs import describe_knobs

        head = (f"{len(self.workloads)} workloads x {self.samples} "
                f"faults")
        return describe_knobs(head, {
            "window": self.window,
            "distribution": self.distribution,
            "seed": self.seed,
            "prune": self.prune,
            "parallel": (self.jobs, self.batch_size, None),
            "lanes": self.lanes,
            "store": self.store,
            "resume": self.resume and self.store is not None,
        })

    def campaign_store(self, level, workload, structure, mode):
        """The per-series store directory, or None when not persisting
        (the scenario layer's naming is the single source)."""
        if self.store is None:
            return None
        name = self.spec.cell(level, workload, structure, mode).store_name()
        return pathlib.Path(self.store) / name

    def frontend(self, level, workload):
        """The campaign front-end for any registered level.

        With ``same_binaries`` (ablation A3) every level is forced onto
        the microarchitectural flow's toolchain.
        """
        toolchain = None
        if self.same_binaries:
            toolchain = sim_registry.get("uarch").default_toolchain
        return sim_registry.create_frontend(level, workload,
                                            toolchain=toolchain)

    def gefin(self, workload):
        return self.frontend("uarch", workload)

    def safety_verifier(self, workload):
        return self.frontend("rtl", workload)


class CrossLevelStudy:
    """Runs the paper's experiment matrix and caches per-series results.

    Every campaign dispatches through one persistent
    :class:`~repro.scenario.runner.ScenarioRunner`, so repeated figure
    calls recall cached cell results and campaigns sharing a golden
    trajectory (the ``pinout``/``pinout-notimer`` series of one
    workload) capture it once.
    """

    def __init__(self, config=None):
        from repro.scenario.runner import ScenarioRunner

        self.config = config or StudyConfig()
        self._runner = ScenarioRunner(self.config.spec)
        self._pool_workload = None

    # ------------------------------------------------------------------

    def _campaign(self, level, workload, structure, mode):
        # Every figure iterates workload-major, so pooled goldens from
        # other workloads can be released at each workload boundary --
        # the pool never holds more than one workload's captures.
        if workload != self._pool_workload:
            self._runner.release_goldens(keep_workload=workload)
            self._pool_workload = workload
        cell = self.config.spec.cell(level, workload, structure, mode)
        return self._runner.run_cell(cell)

    # ------------------------------------------------------------------
    # Figure 1: register-file unsafeness, pinout OP, windowed
    # ------------------------------------------------------------------

    def figure1(self, progress=None):
        """Returns ``{series: {workload: CampaignResult}}`` for Fig. 1."""
        series = {"GeFIN": {}, "RTL": {}, "GeFIN-no timer": {}}
        for workload in self.config.workloads:
            series["GeFIN"][workload] = self._campaign(
                "uarch", workload, "regfile", "pinout")
            series["RTL"][workload] = self._campaign(
                "rtl", workload, "regfile", "pinout")
            series["GeFIN-no timer"][workload] = self._campaign(
                "uarch", workload, "regfile", "pinout-notimer")
            if progress:
                progress("fig1", workload)
        return series

    # ------------------------------------------------------------------
    # Figure 2: L1D unsafeness, pinout OP, windowed (+ RTL acceleration)
    # ------------------------------------------------------------------

    def figure2(self, progress=None):
        series = {"GeFIN": {}, "RTL": {}, "GeFIN-no timer": {}}
        for workload in self.config.workloads:
            series["GeFIN"][workload] = self._campaign(
                "uarch", workload, "l1d.data", "pinout")
            series["RTL"][workload] = self._campaign(
                "rtl", workload, "l1d.data", "pinout")
            series["GeFIN-no timer"][workload] = self._campaign(
                "uarch", workload, "l1d.data", "pinout-notimer")
            if progress:
                progress("fig2", workload)
        return series

    # ------------------------------------------------------------------
    # Figure 3: L1D AVF with the software observation point
    # ------------------------------------------------------------------

    def figure3(self, workloads=FIG3_WORKLOADS, progress=None):
        series = {"GeFIN": {}, "RTL": {}}
        for workload in workloads:
            series["GeFIN"][workload] = self._campaign(
                "uarch", workload, "l1d.data", "avf")
            series["RTL"][workload] = self._campaign(
                "rtl", workload, "l1d.data", "sop")
            if progress:
                progress("fig3", workload)
        return series

    # ------------------------------------------------------------------
    # Headline deltas (SS V)
    # ------------------------------------------------------------------

    def headline(self, fig1=None, fig3=None):
        """The abstract's numbers: RF delta from Fig. 1, L1D delta from
        Fig. 3 (the paper's SS V references exactly those figures)."""
        fig1 = fig1 or self.figure1()
        fig3 = fig3 or self.figure3()
        rf = CrossLevelComparison("regfile", "pinout")
        for workload in self.config.workloads:
            rf.add_results(fig1["GeFIN"][workload], fig1["RTL"][workload])
        l1d = CrossLevelComparison("l1d.data", "avf")
        for workload in fig3["GeFIN"]:
            l1d.add_results(fig3["GeFIN"][workload],
                            fig3["RTL"][workload])
        return {"regfile": rf, "l1d": l1d}
