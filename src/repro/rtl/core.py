"""Dual-issue, 8-stage, in-order RT-level pipeline.

Stage layout (A9-like depth)::

    F1 F2 (fetch buffer)  D1 D2 (decode queue)  RR (issue/regread)
    EX1 (shift/ALU/branch-resolve/agen)  EX2 (cache access, SVC)  WB

All architectural storage is bit-accurate (:mod:`repro.rtl.arrays`,
:mod:`repro.rtl.cache_rtl`); pipeline latches are explicit per-stage lists
so each uop's values are visible cycle-by-cycle state.  Operands are read
at issue through a bypass network over the EX2/MUL/WB latches; hazards
resolve by stalling -- no rename, no speculation past an unresolved
PC-load.  Branches resolve in EX1; a blocking D-cache miss freezes the
whole core clock for the burst duration.

Shares :mod:`repro.isa.alu` with the microarchitectural model, making the
paper's SS II-B premise (logic is functionally identical across levels)
literal.
"""

from repro.errors import SimFault
from repro.isa import alu
from repro.isa.flags import cond_passed
from repro.isa.instructions import (
    COMPARE_OPS,
    Cond,
    DP_IMM_OPS,
    DP_REG_FORM,
    DP_REG_OPS,
    Inst,
    LOAD_OPS,
    MEM_SIZE,
    Op,
    STORE_OPS,
    UNARY_OPS,
)
from repro.isa.syscalls import SyscallEmulator, SyscallError

_PC = 15
_STALL = object()  # sentinel: operand not yet available
_BAD_FETCH = Inst(Op.HLT, text="<bad-fetch>")


class Uop:
    """One in-flight instruction in the RT-level pipeline."""

    __slots__ = (
        "inst", "pc", "predicted_next", "dests", "operands", "old_values",
        "results", "cond_pass", "store_pending", "is_mem", "is_branch",
        "actual_next", "bad_fetch",
    )

    def __init__(self, inst, pc, predicted_next):
        self.inst = inst
        self.pc = pc
        self.predicted_next = predicted_next
        self.dests = tuple(a for a in inst.dst_regs() if a != _PC)
        self.operands = {}
        self.old_values = {}
        self.results = {}
        self.cond_pass = True
        self.store_pending = []
        self.actual_next = None
        self.bad_fetch = False
        op = inst.op
        self.is_mem = op in MEM_SIZE or op in (Op.LDM, Op.STM)
        self.is_branch = (
            op in (Op.B, Op.BL, Op.BX) or _PC in inst.dst_regs()
        )

    def next_pc(self):
        return self.actual_next if self.actual_next is not None \
            else self.pc + 4

    def __repr__(self):
        return f"<Uop {self.pc:#06x} {self.inst!r}>"


class RTLCore:
    """The pipeline proper; wrapped by :class:`repro.rtl.simulator.RTLSim`."""

    def __init__(self, config, program, ram, icache, dcache, predictor, rf):
        self.cfg = config
        self.program = program
        self.ram = ram
        self.icache = icache
        self.dcache = dcache
        self.predictor = predictor
        self.rf = rf
        self.syscalls = SyscallEmulator()

        self.cycle = 0
        self.icount = 0
        self.pc = program.entry
        self.fetch_buffer = []   # F1/F2 output, cap 4
        self.decode_q = []       # D1/D2 output, cap 4
        self.ex1 = []            # issued this cycle (<= 2)
        self.ex2 = []            # EX1 output, heading to EX2
        self.wb = []             # EX2 output, heading to WB
        self.mul_uop = None
        self.mul_remaining = 0
        self.mul_sets_flags = False
        self.stall_until = 0         # global freeze (blocking D-cache)
        self.fetch_stall_until = 0   # F-stage freeze (I-cache refill)
        self.current_line = None
        self.redirect_target = None
        self.redirect_cycle = 0
        self.rr_blocked = False
        self.draining = False
        self.exited = False
        self.fault = None
        self.mispredicts = 0
        self.retired_next_pc = program.entry
        self.last_retire_cycle = 0
        self.trace = None  # optional SignalTrace, attached by RTLSim
        #: Optional hook called as ``(cycle, pc)`` per retired uop, in
        #: retirement order (the static pruner's golden capture).
        self.retire_listener = None

    # ==================================================================
    # clock
    # ==================================================================

    def tick(self):
        self.cycle += 1
        if self.cycle < self.stall_until:
            if self.trace is not None:
                self.trace.sample(self)
            return  # blocking-miss freeze: no latch moves this cycle
        self.rr_blocked = False
        self._stage_wb()
        self._stage_ex2()
        if self.exited:
            # Retire the exit SVC and any same-cycle elders precisely, so
            # the retired-instruction count matches the architectural one.
            self._stage_wb()
            return
        if self.fault is not None:
            return
        self._stage_ex1()
        if self.fault is not None:
            return
        self._stage_issue()
        self._stage_decode()
        self._stage_fetch()
        if self.cycle - self.last_retire_cycle > 50_000:
            self.fault = SimFault("halt-trap", "pipeline deadlock",
                                  addr=self.pc)
        if self.trace is not None:
            self.trace.sample(self)

    # ------------------------------------------------------------------
    # WB
    # ------------------------------------------------------------------

    def _stage_wb(self):
        for uop in self.wb:
            for arch, value in uop.results.items():
                self.rf.write(arch, value)
            self.icount += 1
            self.retired_next_pc = uop.next_pc()
            self.last_retire_cycle = self.cycle
            if self.retire_listener is not None:
                self.retire_listener(self.cycle, uop.pc)
        self.wb = []

    # ------------------------------------------------------------------
    # EX2: memory access, SVC, faults, deep redirects
    # ------------------------------------------------------------------

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
                    result = uop.results.get(uop.inst.rd, 0)
                    flags = self.rf.flags()
                    flags.n = bool(result & 0x80000000)
                    flags.z = result == 0
                    self.rf.set_flags(flags)
                self.mul_uop = None
                self.mul_sets_flags = False

    def _execute_ex2(self, uop):
        inst = uop.inst
        op = inst.op
        if not uop.cond_pass:
            self.wb.append(uop)
            return
        if op == Op.HLT:
            detail = "fetch outside text" if uop.bad_fetch \
                else "executed HLT/pool word"
            kind = "mem-fault" if uop.bad_fetch else "halt-trap"
            raise SimFault(kind, detail, addr=uop.pc)
        if op == Op.SVC:
            self._exec_svc(uop)
            self.wb.append(uop)
            return
        if uop.is_mem:
            self._exec_mem_ex2(uop)
        self.wb.append(uop)

    def _exec_svc(self, uop):
        def read_reg(index):
            return uop.operands.get(index, 0)

        def read_byte(addr):
            value, _ = self.dcache.access(addr, 1, write=False,
                                          cycle=self.cycle)
            self._charge_dcache()
            return value

        try:
            result = self.syscalls.handle(uop.inst.imm, read_reg, read_byte)
        except SyscallError as exc:
            raise SimFault("syscall-error", str(exc), addr=uop.pc) from exc
        uop.results[0] = result
        if self.syscalls.exited:
            self.exited = True

    def _charge_dcache(self):
        if self.dcache.stall_cycles:
            self.stall_until = max(
                self.stall_until, self.cycle + self.dcache.stall_cycles
            )

    def _exec_mem_ex2(self, uop):
        inst = uop.inst
        op = inst.op
        if op == Op.LDM:
            base = uop.operands[inst.rn]
            addr = base
            for i in range(16):
                if inst.reglist & (1 << i):
                    value, _ = self.dcache.access(addr, 4, write=False,
                                                  cycle=self.cycle)
                    self._charge_dcache()
                    if i == _PC:
                        self._deep_redirect(uop, value & 0xFFFFFFFC)
                    else:
                        uop.results[i] = value
                    addr += 4
            return
        if op == Op.STM:
            for addr, size, value in uop.store_pending:
                self.dcache.access(addr, size, write=True, value=value,
                                   cycle=self.cycle)
                self._charge_dcache()
            return
        size = MEM_SIZE[op]
        if op in LOAD_OPS:
            addr = uop.store_pending[0][0]  # agen result from EX1
            value, _ = self.dcache.access(addr, size, write=False,
                                          cycle=self.cycle)
            self._charge_dcache()
            if inst.rd == _PC:
                self._deep_redirect(uop, value & 0xFFFFFFFC)
            else:
                uop.results[inst.rd] = value
        else:
            addr, _, value = uop.store_pending[0]
            self.dcache.access(addr, size, write=True, value=value,
                               cycle=self.cycle)
            self._charge_dcache()

    def _deep_redirect(self, uop, target):
        """A PC load resolved at EX2: kill everything younger."""
        self.mispredicts += 1
        uop.actual_next = target
        self.fetch_buffer = []
        self.decode_q = []
        self.ex1 = []
        self.rr_blocked = True
        self.redirect_target = target
        self.redirect_cycle = self.cycle + self.cfg.mispredict_penalty + 1
        self.current_line = None

    # ------------------------------------------------------------------
    # EX1: ALU / shifter / branch resolution / address generation
    # ------------------------------------------------------------------

    def _stage_ex1(self):
        for uop in self.ex1:
            try:
                self._execute_ex1(uop)
            except SimFault as exc:
                self.fault = exc.with_traceback(None)
                self.ex1 = []
                return
            if uop.inst.op in (Op.MUL, Op.MLA) and uop.cond_pass:
                self.mul_uop = uop
                self.mul_remaining = self.cfg.mul_latency - 1
                self.mul_sets_flags = uop.inst.s
            else:
                self.ex2.append(uop)
            if uop.is_branch and uop.next_pc() != uop.predicted_next:
                # Branches never share an issue slot, so nothing younger
                # is in EX1; flush the front of the machine and redirect.
                self.mispredicts += 1
                self.fetch_buffer = []
                self.decode_q = []
                self.rr_blocked = True
                self.redirect_target = uop.next_pc()
                self.redirect_cycle = self.cycle + self.cfg.mispredict_penalty
                self.current_line = None
        self.ex1 = []

    def _execute_ex1(self, uop):
        inst = uop.inst
        op = inst.op
        flags = self.rf.flags()
        uop.cond_pass = cond_passed(inst.cond, flags)
        if not uop.cond_pass:
            for arch in uop.dests:
                uop.results[arch] = uop.old_values[arch]
            if op == Op.B and inst.cond != Cond.AL:
                self.predictor.update(uop.pc, taken=False)
            return

        if op in DP_REG_OPS or op in DP_IMM_OPS:
            self._exec_dp(uop, flags)
        elif op == Op.MOVW:
            uop.results[inst.rd] = inst.imm & 0xFFFF
        elif op == Op.MOVT:
            old = uop.operands[inst.rd]
            uop.results[inst.rd] = (
                (old & 0xFFFF) | ((inst.imm & 0xFFFF) << 16)
            )
        elif op in (Op.MUL, Op.MLA):
            uop.results[inst.rd] = alu.multiply(
                op, uop.operands[inst.rn], uop.operands[inst.rm],
                uop.operands.get(inst.ra, 0),
            )
        elif op in MEM_SIZE:
            self._agen(uop, flags)
        elif op == Op.LDM:
            base = uop.operands[inst.rn]
            if base % 4:
                raise SimFault("align-fault", "ldm", addr=base)
            count = bin(inst.reglist).count("1")
            if base + 4 * count > self.ram.size:
                raise SimFault("mem-fault", "ldm beyond RAM", addr=base)
            if inst.writeback and not (inst.reglist & (1 << inst.rn)):
                uop.results[inst.rn] = (base + 4 * count) & 0xFFFFFFFF
        elif op == Op.STM:
            base = uop.operands[inst.rn]
            count = bin(inst.reglist).count("1")
            addr = (base - 4 * count) & 0xFFFFFFFF
            if addr % 4:
                raise SimFault("align-fault", "stm", addr=addr)
            if addr + 4 * count > self.ram.size:
                raise SimFault("mem-fault", "stm beyond RAM", addr=addr)
            ops = []
            for i in range(16):
                if inst.reglist & (1 << i):
                    ops.append((addr, 4, uop.operands[i]))
                    addr += 4
            uop.store_pending = ops
            if inst.writeback:
                uop.results[inst.rn] = (base - 4 * count) & 0xFFFFFFFF
        elif op == Op.B:
            uop.actual_next = (uop.pc + inst.imm) & 0xFFFFFFFC
            if inst.cond != Cond.AL:
                self.predictor.update(uop.pc, taken=True)
        elif op == Op.BL:
            uop.results[14] = (uop.pc + 4) & 0xFFFFFFFF
            uop.actual_next = (uop.pc + inst.imm) & 0xFFFFFFFC
        elif op == Op.BX:
            uop.actual_next = uop.operands[inst.rm] & 0xFFFFFFFC
        elif op in (Op.SVC, Op.NOP, Op.HLT):
            pass
        else:  # pragma: no cover - decode is exhaustive
            raise SimFault("undefined-inst", repr(op), addr=uop.pc)

    def _exec_dp(self, uop, flags):
        inst = uop.inst
        if inst.op in DP_IMM_OPS:
            op2, shifter_carry = inst.imm & 0xFFFFFFFF, flags.c
        else:
            value = uop.operands[inst.rm]
            if inst.shift_reg is not None:
                amount = uop.operands[inst.shift_reg] & 0xFF
            else:
                amount = inst.shift_amount
            op2, shifter_carry = alu.barrel_shift(
                value, inst.shift_kind, amount, flags.c
            )
        op = DP_REG_FORM.get(inst.op, inst.op)
        rn_value = 0 if op in UNARY_OPS else uop.operands[inst.rn]
        result, new_flags = alu.dp_compute(op, rn_value, op2, flags,
                                           shifter_carry)
        if inst.s or op in COMPARE_OPS:
            self.rf.set_flags(new_flags)
        if op not in COMPARE_OPS:
            if inst.rd == _PC:
                uop.actual_next = result & 0xFFFFFFFC
            else:
                uop.results[inst.rd] = result

    def _agen(self, uop, flags):
        inst = uop.inst
        size = MEM_SIZE[inst.op]
        base = uop.operands[inst.rn]
        if inst.op in (Op.LDR, Op.STR, Op.LDRB, Op.STRB, Op.LDRH, Op.STRH):
            offset = inst.imm
        else:
            offset, _ = alu.barrel_shift(
                uop.operands[inst.rm], inst.shift_kind, inst.shift_amount,
                flags.c,
            )
        addr = (base + offset) & 0xFFFFFFFF if inst.pre else base
        if addr % size:
            raise SimFault("align-fault", f"{size}-byte access", addr=addr)
        if addr + size > self.ram.size:
            raise SimFault("mem-fault", "access beyond RAM", addr=addr)
        if inst.op in STORE_OPS:
            uop.store_pending = [(addr, size, uop.operands[inst.rd])]
        else:
            uop.store_pending = [(addr, size, 0)]
        if inst.writeback or not inst.pre:
            if not (inst.op in LOAD_OPS and inst.rn == inst.rd):
                uop.results[inst.rn] = (base + offset) & 0xFFFFFFFF

    # ------------------------------------------------------------------
    # RR: issue + operand read (bypass network)
    # ------------------------------------------------------------------

    def _bypass_read(self, arch, pc):
        """Read one operand through the bypass network.

        Returns the value, or the ``_STALL`` sentinel when the youngest
        in-flight writer has not produced it yet.
        """
        if arch == _PC:
            return (pc + 8) & 0xFFFFFFFF
        for uop in reversed(self.ex2):
            if arch in uop.dests:
                return uop.results.get(arch, _STALL)
        if self.mul_uop is not None and arch in self.mul_uop.dests:
            return _STALL
        for uop in reversed(self.wb):
            if arch in uop.dests:
                return uop.results.get(arch, _STALL)
        return self.rf.read(arch)

    def _try_read_operands(self, uop):
        """Collect source operands (and old dest values for conditional
        instructions).  Returns False when the uop must stall."""
        inst = uop.inst
        operands = {}
        for arch in set(inst.src_regs()):
            value = self._bypass_read(arch, uop.pc)
            if value is _STALL:
                return False
            operands[arch] = value
        old_values = {}
        if inst.cond != Cond.AL:
            for arch in uop.dests:
                value = self._bypass_read(arch, uop.pc)
                if value is _STALL:
                    return False
                old_values[arch] = value
        uop.operands = operands
        uop.old_values = old_values
        return True

    def _can_issue_second(self, first, second):
        """Dual-issue pairing rules: the younger slot takes only a simple
        data-processing op with no dependency on (or conflict with) the
        older slot."""
        inst = second.inst
        op = inst.op
        if first.is_branch or first.inst.op in (Op.SVC, Op.HLT) \
                or first.is_mem:
            return False
        if op not in DP_REG_OPS and op not in DP_IMM_OPS and \
                op not in (Op.MOVW, Op.MOVT, Op.NOP):
            return False
        if second.is_branch or second.bad_fetch:
            return False
        first_dests = set(first.dests)
        reads = set(a for a in inst.src_regs() if a != _PC)
        if inst.cond != Cond.AL:
            reads |= set(second.dests)
        if reads & first_dests:
            return False
        if set(second.dests) & first_dests:
            return False
        if (inst.cond != Cond.AL or inst.reads_flags()) \
                and first.inst.writes_flags():
            # Same-cycle flag forwarding exists (EX1 is processed in slot
            # order) but the RT design does not pair flag-setter with
            # flag-reader.
            return False
        return True

    def _stage_issue(self):
        if self.rr_blocked:
            return
        issued = []
        while self.decode_q and len(issued) < self.cfg.issue_width:
            uop = self.decode_q[0]
            inst = uop.inst
            if issued and not self._can_issue_second(issued[0], uop):
                break
            if inst.op in (Op.MUL, Op.MLA) and self.mul_uop is not None:
                break
            if self.mul_uop is not None and self.mul_sets_flags and (
                    inst.cond != Cond.AL or inst.reads_flags()
                    or inst.writes_flags()):
                break
            if self.mul_uop is not None and \
                    set(uop.dests) & set(self.mul_uop.dests):
                break  # WAW with the in-flight multiply
            if not self._try_read_operands(uop):
                break
            self.decode_q.pop(0)
            issued.append(uop)
            self.ex1.append(uop)
            if uop.is_branch or inst.op in (Op.SVC, Op.HLT) or uop.is_mem:
                break  # these issue without a younger partner

    # ------------------------------------------------------------------
    # D: decode (one cycle through the decode queue)
    # ------------------------------------------------------------------

    def _stage_decode(self):
        moved = 0
        while self.fetch_buffer and len(self.decode_q) < 4 and moved < 2:
            self.decode_q.append(self.fetch_buffer.pop(0))
            moved += 1

    # ------------------------------------------------------------------
    # F: fetch with prediction and the I-cache FSM
    # ------------------------------------------------------------------

    def _stage_fetch(self):
        if self.redirect_target is not None:
            if self.cycle < self.redirect_cycle:
                return
            self.pc = self.redirect_target
            self.redirect_target = None
        if self.draining or self.exited:
            return
        if self.fetch_stall_until > self.cycle:
            return
        fetched = 0
        while fetched < 2 and len(self.fetch_buffer) < 4:
            inst = self.program.inst_at(self.pc)
            if inst is None:
                # Possibly a wrong-path runaway: deliver a bad-fetch uop
                # that faults only if it is architecturally reached.
                uop = Uop(_BAD_FETCH, self.pc, self.pc + 4)
                uop.bad_fetch = True
                self.fetch_buffer.append(uop)
                return
            line = self.pc & ~(self.cfg.line_size - 1)
            if line != self.current_line:
                self.current_line = line
                _, way = self.icache.probe(line)
                self.icache.access(line, 4, write=False, cycle=self.cycle)
                if way is None:
                    self.fetch_stall_until = (
                        self.cycle + self.icache.stall_cycles
                    )
                    return
            predicted = self._predict_next(inst, self.pc)
            uop = Uop(inst, self.pc, predicted)
            self.fetch_buffer.append(uop)
            self.pc = predicted
            fetched += 1

    def _predict_next(self, inst, pc):
        op = inst.op
        if op == Op.B:
            if inst.cond == Cond.AL or self.predictor.predict_taken(pc):
                return (pc + inst.imm) & 0xFFFFFFFC
            return pc + 4
        if op == Op.BL:
            self.predictor.push_return(pc + 4)
            return (pc + inst.imm) & 0xFFFFFFFC
        if op == Op.BX:
            target = self.predictor.pop_return()
            return target & 0xFFFFFFFC if target is not None else pc + 4
        return pc + 4

    # ------------------------------------------------------------------

    def quiesced(self):
        return (
            not self.fetch_buffer and not self.decode_q and not self.ex1
            and not self.ex2 and not self.wb and self.mul_uop is None
            and self.cycle >= self.stall_until
        )
