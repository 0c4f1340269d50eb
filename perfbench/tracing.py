"""Outside-in span recorder for the traced repetitions.

``install()`` replaces the public entry points of each ``repro`` layer
with wrappers that record ``perf_counter`` spans (name, start, end,
enclosing span, a few counts).  Nothing inside ``src/`` is edited: the
wrappers are installed from the benchmark's own files, in the
repetition's process only, and the untraced repetitions never call it.
Every workload runs at ``jobs=1``, so every span is recorded in that
process; fault percentiles and replay cycles come from the records'
own ``wall_seconds``, ``sim_cycles`` and ``replay_cycles`` fields.
"""

import functools
import time

import harness

#: Spans that give a ``SimulatorBase.run`` span its context label.
CONTEXTS = ("golden", "seek", "fault")
TIERS = ("uarch", "rtl", "arch")


class Tracer:
    """In-memory span list plus the stack of open spans."""

    def __init__(self):
        #: ``[name, start, end, parent, data]`` per span, in start order.
        self.spans = []
        self._stack = []

    def wrap(self, owner, attr, name, before=None, after=None):
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``before(args)`` runs before the call; ``after(args, result,
        early)`` gets its value and returns the span's data.
        """
        original = getattr(owner, attr)
        spans, stack = self.spans, self._stack

        @functools.wraps(original)
        def traced(*args, **kwargs):
            early = before(args) if before is not None else None
            span = [name, time.perf_counter(), 0.0,
                    stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if after is not None:
                span[4] = after(args, result, early)
            return result

        setattr(owner, attr, traced)


def install():
    """Wrap every layer's public call; returns the :class:`Tracer`."""
    from repro.injection.campaign import FaultRunner
    from repro.injection.checkpoint_cache import CheckpointCache
    from repro.injection.store import CampaignStore
    from repro.prune import FaultPruner
    from repro.sim import registry
    from repro.sim.base import SimulatorBase
    from repro.staticcheck import StaticPruner

    tier_of = {registry.simulator_class(level): level
               for level in registry.level_names()}
    tracer = Tracer()
    tracer.wrap(registry, "create_frontend", "frontend")
    tracer.wrap(CheckpointCache, "capture_golden", "golden",
                after=lambda args, result, early: args[1].cycle)
    tracer.wrap(CheckpointCache, "seek", "seek")
    tracer.wrap(SimulatorBase, "run", "run",
                before=lambda args: args[0].cycle,
                after=lambda args, result, early:
                (tier_of[type(args[0])], args[0].cycle - early))
    tracer.wrap(SimulatorBase, "restore", "restore")
    tracer.wrap(SimulatorBase, "checkpoint", "checkpoint")
    tracer.wrap(SimulatorBase, "state_digest", "digest")
    tracer.wrap(FaultRunner, "run_one", "fault")
    tracer.wrap(FaultPruner, "classify", "prune.dead")
    tracer.wrap(StaticPruner, "classify", "prune.static")
    tracer.wrap(CampaignStore, "append", "store.append")
    return tracer


def context(spans, index):
    """``golden``/``seek``/``fault`` -- the nearest enclosing span of
    one of those kinds -- or ``other``."""
    parent = spans[index][3]
    while parent >= 0:
        if spans[parent][0] in CONTEXTS:
            return spans[parent][0]
        parent = spans[parent][3]
    return "other"


def layer_metrics(spans):
    """Per-layer figures from one traced repetition's spans.

    Times are self times (span minus its children), except
    ``golden.capture_s`` and ``seek.s``, which are the
    layer's whole span; their children are broken out by context
    (``<tier>.run.<context>_s``) and by state operation (``sim.*``).
    """
    own = harness.self_times([(s[1], s[2], s[3]) for s in spans])
    m = {key: 0.0 for key in (
        "frontend.build_s", "golden.capture_s", "golden.self_s",
        "seek.s", "seek.self_s",
        "sim.restore_s", "sim.checkpoint_s", "sim.digest_s",
        "fault.self_s", "prune.dead_s", "prune.static_s",
        "store.append_s")}
    for tier in TIERS:
        m[f"{tier}.run_s"] = 0.0
        for ctx in CONTEXTS:
            m[f"{tier}.run.{ctx}_s"] = 0.0
    cycles = {tier: 0 for tier in TIERS}
    m.update({"golden.captures": 0, "golden.cycles": 0,
              "store.appends": 0})
    simple = {"frontend": "frontend.build_s",
              "restore": "sim.restore_s",
              "checkpoint": "sim.checkpoint_s",
              "digest": "sim.digest_s", "fault": "fault.self_s",
              "prune.dead": "prune.dead_s",
              "prune.static": "prune.static_s"}
    for i, (name, start, end, _, data) in enumerate(spans):
        if name in simple:
            m[simple[name]] += own[i]
        elif name == "golden":
            m["golden.capture_s"] += end - start
            m["golden.self_s"] += own[i]
            m["golden.captures"] += 1
            m["golden.cycles"] += data
        elif name == "seek":
            m["seek.s"] += end - start
            m["seek.self_s"] += own[i]
        elif name == "run":
            tier, advanced = data
            m[f"{tier}.run_s"] += own[i]
            ctx = context(spans, i)
            if ctx != "other":
                m[f"{tier}.run.{ctx}_s"] += own[i]
            cycles[tier] += advanced
        elif name == "store.append":
            m["store.append_s"] += own[i]
            m["store.appends"] += 1
    for tier in TIERS:
        run_s = m[f"{tier}.run_s"]
        m[f"{tier}.cycles_per_s"] = cycles[tier] / run_s if run_s else 0.0
    return m
