"""The benchmark's three campaign grids, built in code.

Each grid is a plain scenario mapping handed to
``ScenarioSpec.from_mapping``.  The presets under
``src/repro/scenario/presets`` are deliberately not loaded, so an edit
to a preset cannot silently change a workload.  Every grid sets its
fault budget explicitly.

Input sets: ``PRIMARY_SEED`` is the fault seed every benchmark run uses
by default; ``HELD_OUT_SEED`` is a second fault seed with its own
committed reference, for re-checking a claimed gain on faults not seen
while the change was written.  See ``input_seed``.
"""

PRIMARY_SEED = 2017
HELD_OUT_SEED = 4099
REFERENCE_SEEDS = (PRIMARY_SEED, HELD_OUT_SEED)

#: Faults per cell.  Sized so one fresh-process repetition takes a few
#: seconds on a 2-CPU host and a run fits several repetitions.
BUDGETS = {
    "regfile-xlevel": 16,
    "l1d-pinout": 16,
    "arch-screen": 300,
}

NAMES = tuple(BUDGETS)


def input_seed(seed):
    """The fault seed a benchmark ``--seed`` selects.

    ``--seed 4099`` runs the held-out input set; every other seed runs
    the primary set.  Fresh fault samples are not drawn per seed: on
    ``regfile-xlevel`` a sample that fits in one repetition moves
    faults_per_s by 20-30% from seed to seed (per-fault cost is
    heavy-tailed), more than any bound the benchmark could hold, and
    only committed input sets can be checked against a committed
    reference.
    """
    return HELD_OUT_SEED if seed == HELD_OUT_SEED else PRIMARY_SEED


def mapping(name, fault_seed, store):
    """The scenario mapping of workload ``name`` at ``fault_seed``;
    ``store`` is the campaign store directory, used by arch-screen."""
    faults = {"samples": BUDGETS[name], "seed": fault_seed}
    if name == "regfile-xlevel":
        # Fig. 1 traffic: about two thirds of the faults are
        # dead-pruned, uarch tails that run to program end take most of
        # the time, and the golden pool serves 6 cells from 4 captures.
        return {
            "scenario": {"name": name},
            "targets": {"workloads": ["sha", "stringsearch"],
                        "structures": ["regfile"]},
            "grid": [{"levels": ["uarch"],
                      "modes": ["pinout", "pinout-notimer"]},
                     {"levels": ["rtl"], "modes": ["pinout"]}],
            "faults": faults,
            "execution": {"jobs": 1, "prune": "dead"},
        }
    if name == "l1d-pinout":
        # Fig. 2, windowed: nothing prunes, every fault seeks and
        # simulates (rtl with inject-near-consumption on by default),
        # and the time splits between the uarch and rtl cores.
        return {
            "scenario": {"name": name},
            "targets": {"levels": ["uarch", "rtl"],
                        "workloads": ["sha", "stringsearch"],
                        "structures": ["l1d.data"],
                        "modes": ["pinout"]},
            "faults": faults,
            "execution": {"jobs": 1, "prune": "dead"},
        }
    if name == "arch-screen":
        # The early-design pre-screen: the only workload for the ISA
        # interpreter, static pruning and the store.  Faults are cheap,
        # so store appends show.  jobs=1: on a 2-CPU shared host a
        # 2-worker pool's speed-up swings with the neighbours' load, and
        # faults_per_s spread 20-24% between runs of the same code.
        return {
            "scenario": {"name": name},
            "targets": {"levels": ["arch"],
                        "workloads": ["sha", "stringsearch", "qsort",
                                      "fft"],
                        "structures": ["regfile"],
                        "modes": ["pinout"]},
            "faults": faults,
            "execution": {"jobs": 1, "prune": "static", "store": store},
        }
    raise KeyError(name)
