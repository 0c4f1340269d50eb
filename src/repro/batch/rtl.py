"""The rtl-tier lane engine: N faulty pipeline runs in one pass.

The RT-level model is a cycle-accurate in-order pipeline, so its faulty
runs cannot be replayed as a pure architectural lockstep -- fetch,
issue, bypass, cache FSMs and the branch predictor all carry timing
state.  What *can* be shared is the control trajectory: a register-file
or CPSR fault leaves the pipeline's control stream (fetched PCs, issue
grouping, cache line traffic, stall and redirect schedule) on the
golden path until the flipped bit reaches a control-deciding value -- a
condition code, a branch/PC target, a memory address, a syscall
operand.  Those runs dominate the campaign.

So the engine adopts the simulator's live mid-flight core as a
**lane core**: same pipeline latches, caches, predictor and fetch
stream, but the register file, CPSR and every in-flight data value
become ``(N+1,)`` lane arrays over :mod:`repro.isa.valu` kernels (lane
``N`` is the fault-free **reference** whose scalars drive the real
caches).  Lane RAM views share one copy-on-write
:class:`~repro.batch.memory.LanePagedMemory` seeded from the coherent
flat image (RAM overlaid with dirty D-cache lines, exactly the
``observation.memory_digest`` view).

Every control-deciding value is **enforced**: the lane values are
compared against the reference and any injected lane that disagrees is
dropped from the vector on the spot -- its private pages are freed and
it reruns on the untouched scalar path (:meth:`FaultRunner.run_one`),
which also owns every DUE outcome (a machine fault *is* control
divergence).  Surviving lanes therefore share the reference control
stream cycle for cycle, which is what makes their pinout traces,
syscall outputs and hardware state exactly what their scalar runs
would produce; ``tests/test_batch_rtl_equivalence.py`` pins the
records bit-identical across the matrix.

Groups are formed per golden checkpoint segment
(:meth:`CheckpointCache.boundary_at_or_before`): the RT-level seek is
drain-punctuated, so only faults sharing a segment see the same
pre-injection pipeline state as their scalar seeks.  Cache-array
faults (``l1d.*``/``l1i.*``) mutate the shared cache model itself and
always take the scalar path.
"""

import time

import numpy as np

from repro.batch.memory import LanePagedMemory
from repro.errors import SimFault
from repro.injection.classify import (
    FaultClass,
    FaultRecord,
    classify_outcome,
)
from repro.isa import valu
from repro.isa.flags import Flags
from repro.isa.instructions import (
    COMPARE_OPS,
    Cond,
    DP_IMM_OPS,
    DP_REG_FORM,
    DP_REG_OPS,
    LOAD_OPS,
    MEM_SIZE,
    Op,
    STORE_OPS,
    UNARY_OPS,
)
from repro.isa.syscalls import SyscallEmulator, SyscallError
from repro.rtl.core import RTLCore, _PC
from repro.sim.base import RunStatus

MASK32 = 0xFFFFFFFF

#: Memory forms whose offset is the immediate (register forms shift rm).
_IMM_MEM_OPS = (Op.LDR, Op.STR, Op.LDRB, Op.STRB, Op.LDRH, Op.STRH)

#: Structures the vector path can hold as lane arrays.  Cache-array
#: faults mutate the shared timing model and stay scalar.
_VECTOR_STRUCTURES = ("regfile", "cpsr")


class RTLLaneEngine:
    """Drive a :class:`FaultRunner`'s rtl faults through lane groups.

    ``run()`` returns records positionally aligned with ``specs`` and
    bit-identical to the scalar :meth:`FaultRunner.run_one` sequence.
    """

    def __init__(self, runner, sim, lanes):
        self.runner = runner
        self.sim = sim
        self.lanes = max(int(lanes), 1)
        #: Global cycles actually stepped (shared pre-injection replay
        #: + shared tail per group, plus scalar-path replay+sim), the
        #: deterministic batch-cost metric.
        self.batch_cycles = 0
        #: High-water copy-on-write page bytes over any one group.
        self.peak_lane_bytes = 0

    def run(self, specs):
        records = [None] * len(specs)
        vector = [i for i, s in enumerate(specs)
                  if s.structure in _VECTOR_STRUCTURES]
        vector.sort(key=lambda i: (specs[i].cycle, i))
        cache = self.runner.golden["cache"]
        groups = []
        for i in vector:
            boundary = cache.boundary_at_or_before(specs[i].cycle)
            if (groups and groups[-1][0] == boundary
                    and len(groups[-1][1]) < self.lanes):
                groups[-1][1].append(i)
            else:
                groups.append((boundary, [i]))
        for _, chunk in groups:
            group = _RTLLaneGroup(self, [(i, specs[i]) for i in chunk])
            for index, record in group.run():
                records[index] = record
        for i, spec in enumerate(specs):
            if records[i] is None:
                records[i] = self.run_scalar(spec)
        return records

    def run_scalar(self, fault):
        """The untouched per-fault path (cache-array faults and lanes
        dropped on control divergence)."""
        record = self.runner.run_one(self.sim, fault)
        self.batch_cycles += record.replay_cycles + record.sim_cycles
        return record


class _RTLLaneGroup:
    """One same-segment group: N fault lanes + the reference lane."""

    def __init__(self, engine, items):
        self.engine = engine
        self.items = items  # [(original sample index, FaultSpec)]
        runner = engine.runner
        self.config = runner.config
        self.golden = runner.golden
        self.cache = runner.golden["cache"]
        self.deadline = runner.hang_deadline

    # -- group driver --------------------------------------------------

    def run(self):
        cfg = self.config
        sim = self.engine.sim
        wall_start = time.perf_counter()
        min_cycle = min(fault.cycle for _, fault in self.items)
        _, self.restore_cycle = self.cache.seek(
            sim, min_cycle, warm=cfg.warm_start, max_cycles=self.deadline)
        status = sim.run(stop_cycle=min_cycle, max_cycles=self.deadline)
        if status is not RunStatus.STOPPED:
            # The golden run ends before the earliest injection instant;
            # every lane of the group lands in dead time.
            self.engine.batch_cycles += sim.cycle - self.restore_cycle
            wall = (time.perf_counter() - wall_start) / len(self.items)
            return [
                (index, FaultRecord(
                    fault, FaultClass.MASKED, "after program end",
                    sim_cycles=0, wall_seconds=wall,
                    replay_cycles=sim.cycle - self.restore_cycle))
                for index, fault in self.items
            ]
        self._adopt(sim)
        core = self.core
        self._attach(sim)
        try:
            self._events()
            while self.vector_pending:
                core.tick()
                assert core.fault is None, (
                    f"reference control path latched {core.fault}")
                self._events()
        finally:
            self._detach(sim)
        self.engine.batch_cycles += core.cycle - self.restore_cycle
        self.engine.peak_lane_bytes = max(self.engine.peak_lane_bytes,
                                          self.store.peak_bytes)
        wall = (time.perf_counter() - wall_start) / len(self.items)
        out = []
        for k, (index, fault) in enumerate(self.items):
            if self.records[k] is None:
                # Dropped on control divergence: the scalar rerun owns
                # the record (run_one sets its own wall seconds).
                out.append((index, self.engine.run_scalar(fault)))
                continue
            fclass, detail, sim_cycles, replay = self.records[k]
            out.append((index, FaultRecord(
                fault, fclass, detail, sim_cycles=sim_cycles,
                wall_seconds=wall, replay_cycles=replay)))
        return out

    def _adopt(self, sim):
        """Take over the live mid-flight core as a lane core.

        The lane core shares the caches, predictor, fetch stream and
        in-flight latches of the scalar core object; only the register
        file, CPSR and RAM view become per-lane.  ``sim.core`` is left
        untouched -- the next ``seek()`` restores a fresh scalar core.
        """
        count = len(self.items)
        self.width = count + 1
        self.ref = count
        self.faults = [fault for _, fault in self.items]
        self.vector_pending = set(range(count))
        #: Injected lanes, i.e. the ones divergence enforcement watches.
        self.checked = set()
        self.injected = [False] * count
        self.replay = [0] * count
        self.records = [None] * count
        self.ends = [
            None if self.config.window is None
            else fault.cycle + self.config.window
            for fault in self.faults
        ]
        # The coherent flat image: RAM overlaid with valid+dirty D-cache
        # lines -- exactly the view observation.memory_digest hashes.
        image = bytearray(sim.ram.data)
        dcache = sim.dcache
        geom = dcache.config
        for index in range(geom.sets):
            for way in range(geom.ways):
                if dcache.valid[index, way] and dcache.dirty[index, way]:
                    base = dcache._line_base(index, way)
                    image[base:base + geom.line_size] = (
                        dcache.data[index, way].tobytes())
        self.store = LanePagedMemory(image, self.width, self.ref)
        snap = sim.core.syscalls.snapshot()
        self.emus = []
        for _ in range(count):
            emu = SyscallEmulator()
            emu.restore(snap)
            self.emus.append(emu)
        #: Golden pinout prefix at the group start (shared; each lane
        #: appends only its own post-start transactions).
        self.prefix_keys = [t.key() for t in sim.pinout]
        self.keys = [[] for _ in range(count)]
        core = sim.core
        lane = _LaneCore.__new__(_LaneCore)
        lane.__dict__.update(core.__dict__)
        lane.group = self
        lane.width = self.width
        lane.ref = self.ref
        lane.trace = None  # per-tick signal sampling is scalar-only
        lane.rf = _LaneRegFile(core.rf, self.width)
        flags = Flags.unpack(core.rf.cpsr)
        lane.ln = np.full(self.width, flags.n, dtype=bool)
        lane.lz = np.full(self.width, flags.z, dtype=bool)
        lane.lc = np.full(self.width, flags.c, dtype=bool)
        lane.lv = np.full(self.width, flags.v, dtype=bool)
        self.core = lane

    # -- bus-beat fan-out ----------------------------------------------

    def _attach(self, sim):
        self._dbeat = sim.dcache._beat_listener
        self._ibeat = sim.icache._beat_listener
        sim.dcache._beat_listener = self._wrap(self._dbeat)
        sim.icache._beat_listener = self._wrap(self._ibeat)

    def _detach(self, sim):
        sim.dcache._beat_listener = self._dbeat
        sim.icache._beat_listener = self._ibeat

    def _wrap(self, real):
        """Fan one reference bus beat out to every live lane trace.

        Control (and hence line traffic) is shared, so each lane sees
        the same beat at the same address; only write-back payloads
        carry lane bytes, read through the copy-on-write store."""
        def beat(kind, addr, data, cycle):
            real(kind, addr, data, cycle)
            if not self.vector_pending:
                return
            if kind == "wb":
                n = len(data)
                assert self.store.view_bytes(self.ref, addr, n) == \
                    bytes(data), "reference lane memory out of sync"
                for k in sorted(self.vector_pending):
                    self.keys[k].append(
                        ("wb", addr, self.store.view_bytes(k, addr, n)))
            else:
                key = (kind, addr, b"")
                for k in sorted(self.vector_pending):
                    self.keys[k].append(key)
        return beat

    # -- lane memory ops (called from the lane core's EX2) -------------

    def load(self, addr, size, ref_value):
        """Per-lane view of one D-cache load the reference resolved to
        ``ref_value`` (lanes without a private page share it)."""
        store = self.store
        assert store.read(self.ref, addr, size) == ref_value, \
            "reference lane memory out of sync"
        out = np.full(self.width, ref_value, dtype=np.uint32)
        p = addr >> store._shift
        for k in self.vector_pending:
            if p in store.lane_pages[k]:
                out[k] = store.read(k, addr, size)
        return out

    def store_write(self, addr, size, values):
        """One store instant over every live lane plus the reference
        (the reference write keeps the shared overlay coherent with the
        real cache the scalar access just updated)."""
        mask = (1 << (8 * size)) - 1
        writers = sorted(self.vector_pending)
        writers.append(self.ref)
        if isinstance(values, np.ndarray):
            vals = [int(values[k]) & mask for k in writers]
        else:
            vals = [int(values) & mask] * len(writers)
        self.store.write(writers, [addr] * len(writers), size, vals)

    # -- divergence enforcement ----------------------------------------

    def enforce(self, values):
        """Compare a control-deciding lane value against the reference;
        drop any injected lane that disagrees.  Returns the reference
        scalar (the value the shared control path proceeds with)."""
        arr = np.asarray(values)
        if arr.ndim == 0:
            return int(arr)
        ref_value = int(arr[self.ref])
        for k in list(self.checked):
            if int(arr[k]) != ref_value:
                self._drop(k)
        return ref_value

    def _drop(self, k):
        """Lane ``k`` left the reference control path: free its pages
        and leave its record to the scalar rerun."""
        self.vector_pending.discard(k)
        self.checked.discard(k)
        self.store.release(k)

    # -- the campaign event pass ---------------------------------------

    def _events(self):
        """Per-lane replica of the scalar run loop's check order at one
        cycle instant: exited -> window end -> watchdog (machine faults
        never reach the vector path -- they require an enforced
        divergence first, which drops the lane)."""
        core = self.core
        cyc = core.cycle
        for k in sorted(self.vector_pending):
            fault = self.faults[k]
            if not self.injected[k]:
                if core.exited:
                    self._retire(k, FaultClass.MASKED,
                                 "after program end", sim_cycles=0,
                                 replay=cyc - self.restore_cycle)
                    continue
                if cyc < fault.cycle:
                    continue
                self._inject(k)
            if core.exited:
                fclass, detail = self._outcome(k, RunStatus.EXITED)
                self._retire(k, fclass, detail)
                continue
            end = self.ends[k]
            if end is not None and cyc >= end:
                fclass, detail = self._outcome(k, RunStatus.STOPPED)
                self._retire(k, fclass, detail)
                continue
            if cyc >= self.deadline:
                self._retire(k, FaultClass.HANG, "watchdog expired")

    def _inject(self, k):
        fault = self.faults[k]
        core = self.core
        self.injected[k] = True
        self.replay[k] = core.cycle - self.restore_cycle
        if fault.structure == "cpsr":
            pack = self._lane_flag_pack(k) ^ (1 << fault.bit)
            flags = Flags.unpack(pack)
            core.ln[k] = flags.n
            core.lz[k] = flags.z
            core.lc[k] = flags.c
            core.lv[k] = flags.v
        else:  # regfile (banked/spare entries included)
            reg, bit = divmod(fault.bit, 32)
            core.rf.lregs[k, reg] ^= np.uint32(1 << bit)
        self.checked.add(k)

    def _retire(self, k, fclass, detail, sim_cycles=None, replay=None):
        if sim_cycles is None:
            sim_cycles = self.core.cycle - self.faults[k].cycle
        if replay is None:
            replay = self.replay[k]
        self.records[k] = (fclass, detail, sim_cycles, replay)
        self.vector_pending.discard(k)
        self.checked.discard(k)
        self.store.release(k)

    # -- per-lane observation ------------------------------------------

    def _lane_flag_pack(self, k):
        core = self.core
        return ((int(core.ln[k]) << 3) | (int(core.lz[k]) << 2)
                | (int(core.lc[k]) << 1) | int(core.lv[k]))

    def _hw_state(self, k):
        """Mirror of ``observation.hardware_state_digest`` for a lane:
        the architectural registers plus the CRC of the coherent memory
        image (the composed lane view *is* RAM + dirty lines)."""
        core = self.core
        regs = tuple(int(x) for x in core.rf.lregs[k, :15])
        return (regs, self._lane_flag_pack(k)), self.store.crc(k)

    def _outcome(self, k, status):
        """:func:`classify_outcome` over lane ``k``'s output, hardware
        state and pinout (DUE and HANG are handled at the event-pass
        call sites)."""
        trace_base = self.cache.trace_base(self.faults[k].cycle)
        return classify_outcome(
            self.config.observation, status, bytes(self.emus[k].output),
            lambda: self._hw_state(k),
            lambda: (self.prefix_keys + self.keys[k])[trace_base:],
            self.golden, trace_base)


class _LaneRegFile:
    """``(width, entries)`` lane view of the register-file macro.

    ``read`` returns a fresh column copy: issued operands are latched
    values and must not alias a later lane injection.  The CPSR lives
    as the lane core's flag arrays; the scalar ``flags()`` API is
    unreachable by construction."""

    def __init__(self, rf, width):
        self.entries = rf.entries
        self.width = width
        self.lregs = np.tile(rf.regs, (width, 1))
        self.listener = None
        self.flag_listener = None

    def read(self, index):
        return self.lregs[:, index].copy()

    def write(self, index, value):
        self.lregs[:, index] = valu.u32(value)

    def flags(self):
        raise AssertionError("lane core must use its flag arrays")

    def set_flags(self, flags):
        raise AssertionError("lane core must use its flag arrays")


class _LaneCore(RTLCore):
    """The adopted pipeline with lane-array data paths.

    Never constructed -- :meth:`_RTLLaneGroup._adopt` builds it with
    ``__new__`` and copies the live scalar core's ``__dict__`` so all
    in-flight latches, cache/predictor references and FSM state carry
    over mid-cycle.  Control stages (fetch, decode, issue, WB, redirect
    and stall logic) are inherited verbatim; only the value-carrying
    stages are overridden to compute per-lane and to enforce
    control-deciding values against the reference lane."""

    def _vec(self, value):
        if isinstance(value, np.ndarray):
            return value
        return np.full(self.width, int(value) & MASK32, dtype=np.uint32)

    def _enforce(self, values):
        return self.group.enforce(values)

    def _ref_scalar(self, value):
        if isinstance(value, np.ndarray):
            return int(value[self.ref])
        return int(value)

    # -- EX1 -----------------------------------------------------------

    def _execute_ex1(self, uop):
        inst = uop.inst
        op = inst.op
        if inst.cond != Cond.AL:
            passed = valu.cond_passed(inst.cond, self.ln, self.lz,
                                      self.lc, self.lv)
            uop.cond_pass = bool(self._enforce(passed))
        else:
            uop.cond_pass = True
        if not uop.cond_pass:
            for arch in uop.dests:
                uop.results[arch] = uop.old_values[arch]
            if op == Op.B and inst.cond != Cond.AL:
                self.predictor.update(uop.pc, taken=False)
            return

        if op in DP_REG_OPS or op in DP_IMM_OPS:
            self._exec_dp(uop, None)
        elif op == Op.MOVW:
            uop.results[inst.rd] = inst.imm & 0xFFFF
        elif op == Op.MOVT:
            old = self._vec(uop.operands[inst.rd])
            uop.results[inst.rd] = (
                (old & np.uint32(0xFFFF))
                | np.uint32((inst.imm & 0xFFFF) << 16))
        elif op in (Op.MUL, Op.MLA):
            uop.results[inst.rd] = valu.multiply(
                op, self._vec(uop.operands[inst.rn]),
                self._vec(uop.operands[inst.rm]),
                self._vec(uop.operands.get(inst.ra, 0)))
        elif op in MEM_SIZE:
            self._agen(uop, None)
        elif op == Op.LDM:
            base = self._enforce(self._vec(uop.operands[inst.rn]))
            uop.operands[inst.rn] = base  # the EX2 walk is scalar
            if base % 4:
                raise SimFault("align-fault", "ldm", addr=base)
            count = bin(inst.reglist).count("1")
            if base + 4 * count > self.ram.size:
                raise SimFault("mem-fault", "ldm beyond RAM", addr=base)
            if inst.writeback and not (inst.reglist & (1 << inst.rn)):
                uop.results[inst.rn] = (base + 4 * count) & MASK32
        elif op == Op.STM:
            base = self._enforce(self._vec(uop.operands[inst.rn]))
            count = bin(inst.reglist).count("1")
            addr = (base - 4 * count) & MASK32
            if addr % 4:
                raise SimFault("align-fault", "stm", addr=addr)
            if addr + 4 * count > self.ram.size:
                raise SimFault("mem-fault", "stm beyond RAM", addr=addr)
            ops = []
            for i in range(16):
                if inst.reglist & (1 << i):
                    ops.append((addr, 4, self._vec(uop.operands[i])))
                    addr += 4
            uop.store_pending = ops
            if inst.writeback:
                uop.results[inst.rn] = (base - 4 * count) & MASK32
        elif op == Op.B:
            uop.actual_next = (uop.pc + inst.imm) & 0xFFFFFFFC
            if inst.cond != Cond.AL:
                self.predictor.update(uop.pc, taken=True)
        elif op == Op.BL:
            uop.results[14] = (uop.pc + 4) & MASK32
            uop.actual_next = (uop.pc + inst.imm) & 0xFFFFFFFC
        elif op == Op.BX:
            uop.actual_next = self._enforce(
                self._vec(uop.operands[inst.rm]) & np.uint32(0xFFFFFFFC))
        elif op in (Op.SVC, Op.NOP, Op.HLT):
            pass
        else:  # pragma: no cover - decode is exhaustive
            raise SimFault("undefined-inst", repr(op), addr=uop.pc)

    def _exec_dp(self, uop, flags):
        inst = uop.inst
        c_in = self.lc
        v_in = self.lv
        if inst.op in DP_IMM_OPS:
            op2 = np.full(self.width, inst.imm & MASK32, dtype=np.uint32)
            shifter_carry = c_in
        else:
            value = self._vec(uop.operands[inst.rm])
            if inst.shift_reg is not None:
                amount = (self._vec(uop.operands[inst.shift_reg])
                          & np.uint32(0xFF))
            else:
                amount = inst.shift_amount
            op2, shifter_carry = valu.barrel_shift(
                value, inst.shift_kind, amount, c_in)
        op = DP_REG_FORM.get(inst.op, inst.op)
        if op in UNARY_OPS:
            rn_value = np.zeros(self.width, dtype=np.uint32)
        else:
            rn_value = self._vec(uop.operands[inst.rn])
        result, n, z, c, v = valu.dp_compute(op, rn_value, op2, c_in,
                                             v_in, shifter_carry)
        if inst.s or op in COMPARE_OPS:
            # Fresh writable copies: dp_compute may hand back broadcast
            # views, and injection writes flag elements in place.
            self.ln = np.array(n, dtype=bool)
            self.lz = np.array(z, dtype=bool)
            self.lc = np.array(c, dtype=bool)
            self.lv = np.array(v, dtype=bool)
        if op not in COMPARE_OPS:
            if inst.rd == _PC:
                uop.actual_next = self._enforce(
                    result & np.uint32(0xFFFFFFFC))
            else:
                uop.results[inst.rd] = result

    def _agen(self, uop, flags):
        inst = uop.inst
        size = MEM_SIZE[inst.op]
        base = self._vec(uop.operands[inst.rn]).astype(np.int64)
        if inst.op in _IMM_MEM_OPS:
            offset = np.full(self.width, inst.imm, dtype=np.int64)
        else:
            shifted, _ = valu.barrel_shift(
                self._vec(uop.operands[inst.rm]), inst.shift_kind,
                inst.shift_amount, self.lc)
            offset = shifted.astype(np.int64)
        addr_vec = (base + offset) & MASK32 if inst.pre else base
        addr = self._enforce(addr_vec)
        if addr % size:
            raise SimFault("align-fault", f"{size}-byte access",
                           addr=addr)
        if addr + size > self.ram.size:
            raise SimFault("mem-fault", "access beyond RAM", addr=addr)
        if inst.op in STORE_OPS:
            uop.store_pending = [(addr, size,
                                  self._vec(uop.operands[inst.rd]))]
        else:
            uop.store_pending = [(addr, size, 0)]
        if inst.writeback or not inst.pre:
            if not (inst.op in LOAD_OPS and inst.rn == inst.rd):
                uop.results[inst.rn] = (
                    (base + offset) & MASK32).astype(np.uint32)

    # -- EX2 -----------------------------------------------------------

    def _stage_ex2(self):
        for uop in self.ex2:
            try:
                self._execute_ex2(uop)
            except SimFault as exc:
                self.fault = exc.with_traceback(None)
                return
            if self.exited:
                return
        self.ex2 = []
        if self.mul_uop is not None:
            self.mul_remaining -= 1
            if self.mul_remaining <= 0:
                uop = self.mul_uop
                self.wb.append(uop)
                if self.mul_sets_flags and uop.cond_pass:
                    result = self._vec(uop.results.get(uop.inst.rd, 0))
                    self.ln = (result & np.uint32(0x80000000)) != 0
                    self.lz = result == 0
                self.mul_uop = None
                self.mul_sets_flags = False

    def _exec_mem_ex2(self, uop):
        inst = uop.inst
        op = inst.op
        group = self.group
        if op == Op.LDM:
            addr = uop.operands[inst.rn]  # scalarized at EX1
            for i in range(16):
                if inst.reglist & (1 << i):
                    value, _ = self.dcache.access(addr, 4, write=False,
                                                  cycle=self.cycle)
                    self._charge_dcache()
                    lane_values = group.load(addr, 4, value)
                    if i == _PC:
                        target = self._enforce(
                            lane_values & np.uint32(0xFFFFFFFC))
                        self._deep_redirect(uop, target)
                    else:
                        uop.results[i] = lane_values
                    addr += 4
            return
        if op == Op.STM:
            for addr, size, value in uop.store_pending:
                self.dcache.access(addr, size, write=True,
                                   value=self._ref_scalar(value),
                                   cycle=self.cycle)
                self._charge_dcache()
                group.store_write(addr, size, value)
            return
        size = MEM_SIZE[op]
        if op in LOAD_OPS:
            addr = uop.store_pending[0][0]  # agen result from EX1
            value, _ = self.dcache.access(addr, size, write=False,
                                          cycle=self.cycle)
            self._charge_dcache()
            lane_values = group.load(addr, size, value)
            if inst.rd == _PC:
                target = self._enforce(
                    lane_values & np.uint32(0xFFFFFFFC))
                self._deep_redirect(uop, target)
            else:
                uop.results[inst.rd] = lane_values
        else:
            addr, size_, value = uop.store_pending[0]
            self.dcache.access(addr, size_, write=True,
                               value=self._ref_scalar(value),
                               cycle=self.cycle)
            self._charge_dcache()
            group.store_write(addr, size_, value)

    def _exec_svc(self, uop):
        group = self.group
        # Syscall operands decide kernel control flow (and the memory
        # the handler walks): enforce them, then drive the reference
        # emulator through the real D-cache for timing and beats.
        operands = {i: self._enforce(self._vec(uop.operands[i]))
                    for i in sorted(uop.operands)}

        def read_reg(index):
            return operands.get(index, 0)

        def read_byte(addr):
            value, _ = self.dcache.access(addr, 1, write=False,
                                          cycle=self.cycle)
            self._charge_dcache()
            return value

        try:
            result = self.syscalls.handle(uop.inst.imm, read_reg,
                                          read_byte)
        except SyscallError as exc:
            raise SimFault("syscall-error", str(exc),
                           addr=uop.pc) from exc
        results = np.full(self.width, result & MASK32, dtype=np.uint32)
        for k in sorted(group.vector_pending):
            def lane_read_byte(addr, _k=k):
                return group.store.read_byte(_k, addr)
            try:
                lane_result = group.emus[k].handle(
                    uop.inst.imm, read_reg, lane_read_byte)
            except (SyscallError, SimFault):
                # A lane-only syscall failure is control divergence the
                # enforced operands could not see (corrupted buffer
                # bytes): drop to the scalar path.
                group._drop(k)
                continue
            results[k] = np.uint32(lane_result & MASK32)
        uop.results[0] = results
        if self.syscalls.exited:
            self.exited = True
