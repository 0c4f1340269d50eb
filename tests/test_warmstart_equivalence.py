"""The cross-tier warm-start equivalence matrix.

The campaign engine promises that its acceleration machinery is pure
wall-clock optimisation: for a fixed seed, the per-fault record sequence
is bit-identical across

* **warm vs cold start** -- restoring the nearest golden checkpoint vs
  replaying the whole drain-punctuated prefix from the base checkpoint;
* **jobs=1 vs jobs=N** -- the serial loop vs the process-pool executor;
* **bounded vs unbounded checkpoint cache** -- LRU eviction only moves
  the restore point, never the reached state.

This suite pins that promise on **every registered backend** (the
paper's three tiers: arch, uarch, rtl), which is the cross-tier
equivalence matrix the acceptance criteria name.  Identity is asserted
on everything a record carries except wall clock: fault identity,
class, detail and simulated cycles.
"""

import pytest

from repro.injection.campaign import Campaign, CampaignConfig
from repro.sim import registry
from support import record_keys

WORKLOAD = "stringsearch"
SAMPLES = 6
SEED = 13
WINDOW = 800

ALL_LEVELS = registry.level_names()


def run_campaign(factory, level, **config_kwargs):
    config = CampaignConfig(samples=SAMPLES, window=WINDOW, seed=SEED,
                            **config_kwargs)
    campaign = Campaign(factory, "regfile", config,
                        workload=WORKLOAD, level=level)
    return campaign.run()


@pytest.fixture(scope="module", params=ALL_LEVELS)
def level_reference(request):
    """Per level: the factory plus the warm, serial reference records."""
    level = request.param
    factory = registry.create_frontend(level, WORKLOAD).sim_factory
    reference = run_campaign(factory, level)
    assert reference.n == SAMPLES
    return level, factory, record_keys(reference)


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("warm", [True, False],
                         ids=["warm", "cold"])
def test_equivalence_matrix(level_reference, jobs, warm):
    """backend x {jobs=1,2} x {warm,cold} == the serial warm reference."""
    level, factory, reference = level_reference
    result = run_campaign(factory, level, warm_start=warm, jobs=jobs)
    assert record_keys(result) == reference, (
        f"{level}: warm={warm} jobs={jobs} diverged from the serial "
        f"warm reference"
    )


def test_bounded_cache_matches_unbounded(level_reference):
    """LRU eviction moves restore points, never classifications."""
    level, factory, reference = level_reference
    bounded = run_campaign(factory, level, checkpoint_bound=2)
    assert record_keys(bounded) == reference, level


def test_warm_start_replays_less(level_reference):
    """The acceleration is real: warm replays strictly fewer cycles
    than cold (the faulty phases being bit-identical otherwise).

    On drain-free tiers the golden cursor goes further: faults run in
    injection-cycle order, so each checkpoint segment's golden prefix
    is replayed once, up to its latest injection instant."""
    level, factory, _ = level_reference
    warm = run_campaign(factory, level)
    cold = run_campaign(factory, level, warm_start=False)
    warm_replay = sum(r.replay_cycles for r in warm.records)
    cold_replay = sum(r.replay_cycles for r in cold.records)
    assert warm_replay < cold_replay, level
    assert warm.simulated_cycles < cold.simulated_cycles, level
    if not registry.simulator_class(level).DRAIN_FREE:
        return
    pool = {}
    config = CampaignConfig(samples=40, window=WINDOW, seed=SEED,
                            prune_mode="off")
    shared = Campaign(factory, "regfile", config, workload=WORKLOAD,
                      level=level).run(golden_pool=pool)
    (golden,) = pool.values()
    cache = golden.golden["cache"]
    latest = {}
    for r in shared.records:
        k = cache.boundary_at_or_before(r.fault.cycle)
        latest[k] = max(latest.get(k, 0), r.fault.cycle)
    assert len(latest) < shared.n, "no two faults share a segment"
    assert sum(r.replay_cycles for r in shared.records) == sum(
        cycle - cache.cycles[k] for k, cycle in latest.items()), level


def test_early_stop_preserves_classifications():
    """Early-stop (DRAIN_FREE tiers) terminates masked runs at the
    first re-convergent boundary without changing any classification,
    in every observation mode that runs to program end."""
    factory = registry.create_frontend("arch", WORKLOAD).sim_factory
    for observation in ("software", "arch"):
        results = {}
        for early in (True, False):
            config = CampaignConfig(samples=10, window=None,
                                    observation=observation, seed=7,
                                    early_stop=early)
            results[early] = Campaign(factory, "regfile", config,
                                      workload=WORKLOAD,
                                      level="arch").run()
        classes = [r.fclass for r in results[True].records]
        assert classes == [r.fclass for r in results[False].records]
        assert (results[True].simulated_cycles
                < results[False].simulated_cycles), observation
        converged = [r for r in results[True].records
                     if r.detail == "re-converged with golden"]
        assert converged, "early stop never fired on a masked run"
        assert all(r.fclass.safe for r in converged)
