"""repro.batch: the vectorized batch-fault lane engine (rtl tier).

``CampaignConfig(batch_lanes=N)`` on the rtl tier makes
:class:`~repro.injection.campaign.FaultRunner` hand same-segment fault
groups to :class:`RTLLaneEngine`, which executes the N faulty runs as
lane arrays over the in-order pipeline with drop-to-scalar divergence
fallback (:mod:`repro.batch.rtl`) instead of N scalar replays.  Lane
RAM views share a copy-on-write paged store (:mod:`repro.batch.memory`),
so per-lane memory scales with divergent pages, not footprint.  The
records are bit-identical to the scalar path
(``tests/test_batch_rtl_equivalence.py``); only the simulated work
shrinks.  The rtl tier is the only lane-batchable one.  See DESIGN.md,
"Lane engine".
"""

from repro.batch.memory import LanePagedMemory
from repro.batch.rtl import RTLLaneEngine

__all__ = ["LanePagedMemory", "RTLLaneEngine"]
