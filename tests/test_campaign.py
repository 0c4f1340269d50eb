"""Campaign engine: classification, determinism, both levels."""

import pytest

from repro.injection.campaign import Campaign, CampaignConfig
from repro.injection.classify import (
    FaultClass,
    classify_outcome,
    compare_traces,
)
from repro.isa import assemble
from repro.isa.toolchain import Toolchain
from repro.rtl import RTLConfig, RTLSim
from repro.uarch import CortexA9Config, MicroArchSim, RunStatus

#: A small but non-trivial workload: fills and folds a buffer, prints a
#: checksum.  Fast enough for many campaign runs inside the unit tests.
TINY_SRC = """
    .text
_start:
    ldr  r1, =buffer
    movw r2, #0
    movw r3, #64
fill:
    mul  r4, r2, r2
    str  r4, [r1, r2, lsl #2]
    add  r2, r2, #1
    cmp  r2, r3
    blt  fill
    movw r0, #0
    movw r2, #0
fold:
    ldr  r4, [r1, r2, lsl #2]
    movw r5, #31
    mul  r0, r0, r5
    add  r0, r0, r4
    add  r2, r2, #1
    cmp  r2, r3
    blt  fold
    svc  #3
    movw r0, #10
    svc  #1
    movw r0, #0
    svc  #0
    .pool
    .data
buffer: .space 256
"""


@pytest.fixture(scope="module")
def tiny_program():
    return assemble(TINY_SRC, name="tiny", toolchain=Toolchain("gnu"))


def uarch_factory(program):
    config = CortexA9Config(dcache_size=1024, icache_size=1024)
    return lambda: MicroArchSim(program, config)


def rtl_factory(program):
    config = RTLConfig(trace_signals=False, dcache_size=1024,
                       icache_size=1024)
    return lambda: RTLSim(program, config)


# ----------------------------------------------------------------------
# compare_traces
# ----------------------------------------------------------------------

def test_compare_traces_prefix_semantics():
    golden = ["a", "b", "c"]
    assert compare_traces(golden, ["a", "b"])
    assert compare_traces(golden, ["a", "b", "c"])
    assert not compare_traces(golden, ["a", "x"])
    assert not compare_traces(golden, ["a", "b", "c", "d"])
    assert compare_traces(golden, [])


# ----------------------------------------------------------------------
# classify_outcome
# ----------------------------------------------------------------------

EXITED, STOPPED = RunStatus.EXITED, RunStatus.STOPPED
GOLDEN = {
    "output": b"42\n",
    "hw_state": ("regs", 0xC0FFEE),
    "pinout_keys": [("wb", 0, b"a"), ("wb", 4, b"b"), ("rd", 8, b"")],
}
#: Pinout rows compare the golden keys from this index on.
TRACE_BASE = 1
TAIL = GOLDEN["pinout_keys"][TRACE_BASE:]

#: (observation, status, output, hw_state, faulty pinout keys from
#: TRACE_BASE on, expected class, expected detail).  ``None`` marks an
#: input the branch must not evaluate.
CLASSIFY_CASES = [
    ("software", EXITED, b"42\n", None, None, FaultClass.MASKED, ""),
    ("software", EXITED, b"43\n", None, None, FaultClass.SDC,
     "program output differs"),
    ("software", EXITED, b"42", None, None, FaultClass.SDC,
     "program output differs"),
    ("software", STOPPED, b"4", None, None, FaultClass.MASKED,
     "window expired, prefix clean"),
    ("software", STOPPED, b"", None, None, FaultClass.MASKED,
     "window expired, prefix clean"),
    ("software", STOPPED, b"5", None, None, FaultClass.SDC,
     "output prefix differs"),
    ("arch", EXITED, b"42\n", ("regs", 0xC0FFEE), None,
     FaultClass.MASKED, ""),
    ("arch", EXITED, b"42\n", ("regs", 0xBAD), None, FaultClass.LATENT,
     "hardware state differs"),
    ("arch", EXITED, b"0\n", None, None, FaultClass.SDC,
     "program output differs"),
    ("arch", STOPPED, b"42\n", ("regs", 0xC0FFEE), None,
     FaultClass.MASKED, ""),
    ("arch", STOPPED, b"42\n", ("regs", 0xBAD), None, FaultClass.LATENT,
     "hardware state differs"),
    ("arch", STOPPED, b"4", None, None, FaultClass.SDC,
     "program output differs"),
    ("pinout", EXITED, b"0\n", None, TAIL, FaultClass.MASKED, ""),
    ("pinout", EXITED, b"42\n", None, TAIL[:1], FaultClass.MISMATCH,
     "pinout trace deviates"),
    ("pinout", EXITED, b"42\n", None, [("wb", 4, b"x"), TAIL[1]],
     FaultClass.MISMATCH, "pinout trace deviates"),
    ("pinout", STOPPED, b"", None, TAIL[:1], FaultClass.MASKED, ""),
    ("pinout", STOPPED, b"", None, [], FaultClass.MASKED, ""),
    ("pinout", STOPPED, b"", None, [("wb", 4, b"x")],
     FaultClass.MISMATCH, "pinout trace deviates"),
    ("pinout", STOPPED, b"", None, TAIL + [("wb", 12, b"c")],
     FaultClass.MISMATCH, "pinout trace deviates"),
]


def _thunk(value):
    def get():
        assert value is not None, "branch evaluated an input it ignores"
        return value
    return get


def test_classify_outcome_branches():
    """Every observation x status branch of the one classifier, pinned
    directly rather than through whole campaigns; the hardware-state
    and pinout thunks are evaluated only by the branch that needs
    them."""
    for (observation, status, output, hw_state, pinout, fclass,
         detail) in CLASSIFY_CASES:
        got = classify_outcome(observation, status, output,
                               _thunk(hw_state), _thunk(pinout), GOLDEN,
                               TRACE_BASE)
        assert got == (fclass, detail), (observation, status, output)


def test_fault_class_safety_mapping():
    assert FaultClass.MASKED.safe
    for cls in (FaultClass.SDC, FaultClass.DUE, FaultClass.HANG,
                FaultClass.MISMATCH):
        assert cls.unsafe


# ----------------------------------------------------------------------
# campaign end-to-end
# ----------------------------------------------------------------------

def test_campaign_runs_and_counts(tiny_program):
    config = CampaignConfig(samples=12, window=1500, seed=1)
    campaign = Campaign(uarch_factory(tiny_program), "regfile", config,
                        workload="tiny", level="uarch")
    result = campaign.run()
    assert result.n == 12
    assert result.count(FaultClass.MASKED) + result.unsafe_count == 12
    assert 0.0 <= result.unsafeness <= 1.0
    assert result.golden_cycles > 0
    assert result.population > 0


def test_campaign_deterministic_per_seed(tiny_program):
    def run(seed):
        config = CampaignConfig(samples=10, window=1500, seed=seed)
        campaign = Campaign(uarch_factory(tiny_program), "regfile",
                            config, workload="tiny", level="uarch")
        result = campaign.run()
        return [(r.fault.bit, r.fault.cycle, r.fclass) for r in
                result.records]

    assert run(5) == run(5)
    assert run(5) != run(6)


def test_campaign_software_observation(tiny_program):
    config = CampaignConfig(samples=10, window=None,
                            observation="software", seed=2)
    campaign = Campaign(uarch_factory(tiny_program), "l1d.data", config,
                        workload="tiny", level="uarch")
    result = campaign.run()
    assert result.n == 10
    assert result.count(FaultClass.MISMATCH) == 0  # SOP never says pinout


def test_campaign_on_rtl_level(tiny_program):
    config = CampaignConfig(samples=8, window=1500, seed=3)
    campaign = Campaign(rtl_factory(tiny_program), "regfile", config,
                        workload="tiny", level="rtl")
    result = campaign.run()
    assert result.n == 8


def test_campaign_acceleration_moves_faults(tiny_program):
    config = CampaignConfig(samples=20, window=800, seed=4,
                            accelerate=True)
    campaign = Campaign(rtl_factory(tiny_program), "l1d.data", config,
                        workload="tiny", level="rtl")
    result = campaign.run()
    assert any(r.fault.accelerated for r in result.records)


def test_acceleration_increases_window_observability(tiny_program):
    def unsafeness(accelerate):
        config = CampaignConfig(samples=40, window=400, seed=11,
                                accelerate=accelerate)
        campaign = Campaign(rtl_factory(tiny_program), "l1d.data",
                            config, workload="tiny", level="rtl")
        return campaign.run().unsafeness

    assert unsafeness(True) >= unsafeness(False)


def test_progress_callback_invoked(tiny_program):
    # prune_mode="off" so every sampled fault is simulated: progress
    # counts only simulated faults (pruned ones are classified before
    # the faulty phase starts; see tests/test_prune.py).
    seen = []
    config = CampaignConfig(samples=5, window=500, seed=5,
                            prune_mode="off")
    campaign = Campaign(uarch_factory(tiny_program), "regfile", config,
                        workload="tiny", level="uarch")
    campaign.run(progress=lambda i, n, record: seen.append((i, n)))
    assert seen[-1] == (5, 5)


def test_summary_fields(tiny_program):
    config = CampaignConfig(samples=6, window=500, seed=6)
    campaign = Campaign(uarch_factory(tiny_program), "regfile", config,
                        workload="tiny", level="uarch")
    summary = campaign.run().summary()
    for key in ("workload", "level", "structure", "n", "unsafeness",
                "ci95", "recommended_samples", "achieved_margin",
                "s_per_run"):
        assert key in summary
    assert summary["recommended_samples"] > 1000  # Leveugle-exact scale


def test_invalid_observation_rejected():
    with pytest.raises(ValueError):
        CampaignConfig(observation="telepathy")


def test_config_describe():
    text = CampaignConfig(samples=7, window=None).describe()
    assert "7" in text and "to-end" in text
