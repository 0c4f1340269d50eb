"""The out-of-order core model (fetch to commit).

An execute-at-execute model in the gem5 style: operand values are read
from the physical register file when an instruction issues, results are
written back into it, and loads/stores move real bytes through the L1
data cache.  Faults injected into the PRF or cache arrays therefore
propagate with full microarchitectural fidelity (renaming, forwarding,
speculation and write-back behaviour all apply).
"""

from repro.errors import SimFault
from repro.isa import alu
from repro.isa.flags import Flags, cond_passed
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

_PC = 15


class InFlight:
    """One in-flight instruction (IQ + ROB record)."""

    __slots__ = (
        "seq", "inst", "pc", "predicted_next", "phys_of", "srcs",
        "src_flag", "dests", "flag_dest", "is_load", "is_store",
        "is_syscall", "store_ops", "load_ready_cycle", "result_next_pc",
        "completed", "issued", "complete_at", "fault", "addr_resolved",
        "decode_ready",
    )

    def __init__(self, seq, inst, pc, predicted_next, decode_ready):
        self.seq = seq
        self.inst = inst
        self.pc = pc
        self.predicted_next = predicted_next
        self.decode_ready = decode_ready
        self.phys_of = {}
        self.srcs = ()
        self.src_flag = None
        self.dests = []
        self.flag_dest = None
        self.is_load = inst.op in LOAD_OPS or inst.op == Op.LDM
        self.is_store = inst.op in STORE_OPS or inst.op == Op.STM
        self.is_syscall = inst.op == Op.SVC
        self.store_ops = []
        self.load_ready_cycle = 0
        self.result_next_pc = None
        self.completed = False
        self.issued = False
        self.complete_at = 0
        self.fault = None
        self.addr_resolved = not self.is_store

    def __repr__(self):
        return f"<InFlight #{self.seq} {self.inst!r}>"


class OoOCore:
    """Cycle-level out-of-order core.  Driven by
    :class:`repro.uarch.simulator.MicroArchSim`."""

    def __init__(self, config, program, ram, icache, dcache, predictor,
                 prf, rat, flag_file, flag_rat):
        self.cfg = config
        self.program = program
        self.ram = ram
        self.icache = icache
        self.dcache = dcache
        self.predictor = predictor
        self.prf = prf
        self.rat = rat
        self.flag_file = flag_file
        self.flag_rat = flag_rat
        self.syscalls = SyscallEmulator()

        self.cycle = 0
        self.icount = 0
        self.seq = 0
        self.pc = program.entry
        self.committed_next_pc = program.entry
        self.fetch_queue = []      # decoded, waiting for rename
        self.rob = []              # in-flight, program order
        self.iq = []               # subset of rob waiting/ready to issue
        self.wb_queue = []         # executed, waiting for a WB slot
        self.fetch_stall_until = 0
        self.mem_busy_until = 0
        self.current_line = None
        self.redirect_target = None
        self.redirect_cycle = 0
        self.draining = False
        self.exited = False
        self.fault = None
        self.last_commit_cycle = 0
        self.mispredicts = 0

    # ==================================================================
    # per-cycle pipeline (evaluated back to front)
    # ==================================================================

    def tick(self):
        self.cycle += 1
        self._commit()
        if self.exited or self.fault is not None:
            return
        self._writeback()
        self._issue_execute()
        self._rename_dispatch()
        self._fetch()

    # ------------------------------------------------------------------
    # commit
    # ------------------------------------------------------------------

    def _commit(self):
        budget = self.cfg.commit_width
        while budget and self.rob:
            rec = self.rob[0]
            if not rec.completed:
                if self.cycle - self.last_commit_cycle > 50_000:
                    self.fault = SimFault(
                        "halt-trap", "pipeline deadlock", addr=rec.pc
                    )
                    return
                break
            if rec.fault is not None:
                self.fault = rec.fault
                return
            if rec.is_store and rec.store_ops:
                if self.mem_busy_until > self.cycle:
                    break
                missed = False
                for addr, size, value in rec.store_ops:
                    try:
                        _, hit = self.dcache.access(
                            addr, size, write=True, value=value,
                            cycle=self.cycle,
                        )
                    except SimFault as exc:
                        self.fault = exc.with_traceback(None)
                        return
                    missed = missed or not hit
                if missed:
                    self.mem_busy_until = self.cycle + self.cfg.miss_latency
            if rec.is_syscall:
                if not self._commit_syscall(rec):
                    return
            for arch, new, old in rec.dests:
                self.rat.commit(arch, new, old)
            if rec.flag_dest is not None:
                self.flag_rat.commit(0, *rec.flag_dest)
            self.committed_next_pc = (
                rec.result_next_pc
                if rec.result_next_pc is not None else rec.pc + 4
            )
            self.icount += 1
            self.last_commit_cycle = self.cycle
            self.rob.pop(0)
            budget -= 1
            if self.exited:
                return

    def _commit_syscall(self, rec):
        """Execute an SVC at the head of the ROB.  Returns False on fault."""

        def read_reg(index):
            return self.prf.read(self.rat.committed[index])

        def read_byte(addr):
            value, _ = self.dcache.access(addr, 1, write=False,
                                          cycle=self.cycle)
            return value

        try:
            result = self.syscalls.handle(rec.inst.imm, read_reg, read_byte)
        except (SyscallError, SimFault) as exc:
            self.fault = (
                exc if isinstance(exc, SimFault)
                else SimFault("syscall-error", str(exc), addr=rec.pc)
            )
            return False
        if rec.dests:
            # SVC's r0 result becomes visible only now.
            arch, new, _ = rec.dests[0]
            self.prf.write(new, result)
            self.prf.ready[new] = True
        if self.syscalls.exited:
            self.exited = True
        return True

    # ------------------------------------------------------------------
    # writeback
    # ------------------------------------------------------------------

    def _writeback(self):
        if not self.wb_queue:
            return
        self.wb_queue.sort(key=lambda r: (r.complete_at, r.seq))
        budget = self.cfg.writeback_width
        remaining = []
        for rec in self.wb_queue:
            if rec.complete_at > self.cycle or budget == 0:
                remaining.append(rec)
                continue
            budget -= 1
            if not rec.is_syscall:
                for _, new, _ in rec.dests:
                    self.prf.ready[new] = True
                if rec.flag_dest is not None:
                    self.flag_file.ready[rec.flag_dest[0]] = True
            rec.completed = True
        self.wb_queue = remaining

    # ------------------------------------------------------------------
    # issue + execute
    # ------------------------------------------------------------------

    def _operands_ready(self, rec):
        prf_ready = self.prf.ready
        for phys in rec.srcs:
            if not prf_ready[phys]:
                return False
        if rec.src_flag is not None and not self.flag_file.ready[
                rec.src_flag]:
            return False
        return True

    def _older_stores_resolved(self, rec):
        for other in self.rob:
            if other.seq >= rec.seq:
                return True
            if other.is_store and not other.addr_resolved:
                return False
        return True

    def _issue_execute(self):
        alu_free = self.cfg.alu_units
        mul_free = self.cfg.mul_units
        budget = self.cfg.execute_width
        issued = []
        for rec in self.iq:
            if budget == 0:
                break
            if not self._operands_ready(rec):
                continue
            op = rec.inst.op
            if op in (Op.MUL, Op.MLA):
                if mul_free == 0:
                    continue
            elif rec.is_load:
                if self.mem_busy_until > self.cycle:
                    continue
                if not self._older_stores_resolved(rec):
                    continue
            else:
                if alu_free == 0:
                    continue
            # Execute now.
            try:
                latency = self._execute(rec)
            except SimFault as exc:
                rec.fault = exc.with_traceback(None)
                latency = 1
            if op in (Op.MUL, Op.MLA):
                mul_free -= 1
            elif not rec.is_load:
                alu_free -= 1
            budget -= 1
            rec.issued = True
            rec.complete_at = self.cycle + latency
            self.wb_queue.append(rec)
            issued.append(rec)
            if rec.result_next_pc is not None and \
                    rec.result_next_pc != rec.predicted_next:
                self._mispredict(rec)
                break
        if issued:
            issued_set = set(id(r) for r in issued)
            self.iq = [r for r in self.iq if id(r) not in issued_set]

    def _mispredict(self, rec):
        """Squash everything younger than ``rec`` and redirect fetch."""
        self.mispredicts += 1
        keep = []
        squashed = []
        for other in self.rob:
            (keep if other.seq <= rec.seq else squashed).append(other)
        for other in reversed(squashed):
            for arch, new, old in reversed(other.dests):
                self.rat.squash(arch, new, old)
            if other.flag_dest is not None:
                self.flag_rat.squash(0, *other.flag_dest)
        self.rob = keep
        dead = set(id(r) for r in squashed)
        self.iq = [r for r in self.iq if id(r) not in dead]
        self.wb_queue = [r for r in self.wb_queue if id(r) not in dead]
        self.fetch_queue = []
        self.redirect_target = rec.result_next_pc
        self.redirect_cycle = self.cycle + self.cfg.mispredict_penalty
        self.current_line = None

    # -- operand access ------------------------------------------------

    def _read_operand(self, rec, arch):
        if arch == _PC:
            return (rec.pc + 8) & 0xFFFFFFFF
        return self.prf.read(rec.phys_of[arch])

    def _read_flags(self, rec):
        if rec.src_flag is None:
            return Flags()
        return Flags.unpack(self.flag_file.read(rec.src_flag))

    def _write_dest(self, rec, arch, value):
        for darch, new, _ in rec.dests:
            if darch == arch:
                self.prf.write(new, value)
                return
        raise AssertionError(f"no dest {arch} in {rec!r}")

    def _copy_old_dests(self, rec):
        """Condition failed: preserve old values through the new mappings."""
        for _, new, old in rec.dests:
            self.prf.write(new, self.prf.read(old))
        if rec.flag_dest is not None:
            new, old = rec.flag_dest
            self.flag_file.write(new, self.flag_file.read(old))

    # -- memory helpers --------------------------------------------------

    def _mem_read(self, rec, addr, size):
        """Read through the cache, then forward from older queued stores."""
        if addr % size:
            raise SimFault("align-fault", f"{size}-byte load", addr=addr)
        value, hit = self.dcache.access(addr, size, write=False,
                                        cycle=self.cycle)
        blob = bytearray(value.to_bytes(size, "little"))
        for other in self.rob:
            if other.seq >= rec.seq:
                break
            if not other.is_store:
                continue
            for saddr, ssize, svalue in other.store_ops:
                if saddr + ssize <= addr or addr + size <= saddr:
                    continue
                sbytes = (svalue & ((1 << (8 * ssize)) - 1)).to_bytes(
                    ssize, "little"
                )
                for i in range(ssize):
                    pos = saddr + i - addr
                    if 0 <= pos < size:
                        blob[pos] = sbytes[i]
        return int.from_bytes(blob, "little"), hit

    # -- the execute dispatch -------------------------------------------

    def _execute(self, rec):
        """Compute the record's result.  Returns the completion latency."""
        inst = rec.inst
        op = inst.op
        cfg = self.cfg
        flags = self._read_flags(rec)
        if inst.cond != Cond.AL and not cond_passed(inst.cond, flags):
            self._copy_old_dests(rec)
            if op in (Op.B, Op.BL, Op.BX) or _PC in inst.dst_regs():
                rec.result_next_pc = rec.pc + 4
            if op == Op.B or (op == Op.BL and inst.cond != Cond.AL):
                self.predictor.update(rec.pc, taken=False)
            rec.addr_resolved = True
            return cfg.alu_latency

        if op in DP_REG_OPS or op in DP_IMM_OPS:
            return self._exec_dp(rec, flags)
        if op == Op.MOVW:
            return self._finish_alu(rec, inst.rd, inst.imm & 0xFFFF)
        if op == Op.MOVT:
            old = self._read_operand(rec, inst.rd)
            value = (old & 0xFFFF) | ((inst.imm & 0xFFFF) << 16)
            return self._finish_alu(rec, inst.rd, value)
        if op in (Op.MUL, Op.MLA):
            result = alu.multiply(
                op,
                self._read_operand(rec, inst.rn),
                self._read_operand(rec, inst.rm),
                self._read_operand(rec, inst.ra) if op == Op.MLA else 0,
            )
            if inst.s:
                new_flags = Flags(
                    n=bool(result & 0x80000000), z=result == 0,
                    c=flags.c, v=flags.v,
                )
                self._set_flags(rec, new_flags)
            self._write_dest(rec, inst.rd, result)
            return cfg.mul_latency
        if op in MEM_SIZE:
            return self._exec_mem(rec, flags)
        if op == Op.LDM:
            return self._exec_ldm(rec)
        if op == Op.STM:
            return self._exec_stm(rec)
        if op == Op.B:
            rec.result_next_pc = (rec.pc + inst.imm) & 0xFFFFFFFC
            if inst.cond != Cond.AL:
                self.predictor.update(rec.pc, taken=True)
            return cfg.alu_latency
        if op == Op.BL:
            self._write_dest(rec, 14, rec.pc + 4)
            rec.result_next_pc = (rec.pc + inst.imm) & 0xFFFFFFFC
            return cfg.alu_latency
        if op == Op.BX:
            rec.result_next_pc = self._read_operand(rec, inst.rm) \
                & 0xFFFFFFFC
            return cfg.alu_latency
        if op in (Op.SVC, Op.NOP):
            return cfg.alu_latency
        if op == Op.HLT:
            raise SimFault("halt-trap", "executed HLT/pool word",
                           addr=rec.pc)
        raise SimFault("undefined-inst", repr(op), addr=rec.pc)

    def _set_flags(self, rec, new_flags):
        if rec.flag_dest is not None:
            self.flag_file.write(rec.flag_dest[0], new_flags.pack())

    def _finish_alu(self, rec, arch, value):
        self._write_dest(rec, arch, value)
        if arch == _PC:  # pragma: no cover - PC dests are filtered earlier
            rec.result_next_pc = value & 0xFFFFFFFC
        return self.cfg.alu_latency

    def _operand2(self, rec, flags):
        inst = rec.inst
        if inst.op in DP_IMM_OPS:
            return inst.imm & 0xFFFFFFFF, flags.c
        value = self._read_operand(rec, inst.rm)
        if inst.shift_reg is not None:
            amount = self._read_operand(rec, inst.shift_reg) & 0xFF
        else:
            amount = inst.shift_amount
        return alu.barrel_shift(value, inst.shift_kind, amount, flags.c)

    def _exec_dp(self, rec, flags):
        inst = rec.inst
        op2, shifter_carry = self._operand2(rec, flags)
        op = DP_REG_FORM.get(inst.op, inst.op)
        rn_value = (
            0 if op in UNARY_OPS else self._read_operand(rec, inst.rn)
        )
        result, new_flags = alu.dp_compute(op, rn_value, op2, flags,
                                           shifter_carry)
        if inst.s or op in COMPARE_OPS:
            self._set_flags(rec, new_flags)
        if op not in COMPARE_OPS:
            if inst.rd == _PC:
                rec.result_next_pc = result & 0xFFFFFFFC
            else:
                self._write_dest(rec, inst.rd, result)
        return self.cfg.alu_latency

    def _exec_mem(self, rec, flags):
        inst = rec.inst
        size = MEM_SIZE[inst.op]
        base = self._read_operand(rec, inst.rn)
        if inst.op in (Op.LDR, Op.STR, Op.LDRB, Op.STRB, Op.LDRH, Op.STRH):
            offset = inst.imm
        else:
            value = self._read_operand(rec, inst.rm)
            offset, _ = alu.barrel_shift(
                value, inst.shift_kind, inst.shift_amount, flags.c
            )
        addr = (base + offset) & 0xFFFFFFFF if inst.pre else base
        writeback_value = (base + offset) & 0xFFFFFFFF
        latency = self.cfg.alu_latency
        if rec.is_load:
            value, hit = self._mem_read(rec, addr, size)
            if inst.rd == _PC:
                rec.result_next_pc = value & 0xFFFFFFFC
            else:
                self._write_dest(rec, inst.rd, value)
            latency = self.cfg.load_hit_latency
            if not hit:
                latency += self.cfg.miss_latency
                self.mem_busy_until = self.cycle + self.cfg.miss_latency
        else:
            if addr % size:
                raise SimFault("align-fault", f"{size}-byte store",
                               addr=addr)
            if addr + size > self.ram.size:
                raise SimFault("mem-fault", "store beyond RAM", addr=addr)
            data = self._read_operand(rec, inst.rd)
            rec.store_ops = [(addr, size, data)]
            rec.addr_resolved = True
            latency = self.cfg.store_latency
        if inst.writeback or not inst.pre:
            if not (rec.is_load and inst.rn == inst.rd):
                self._write_dest(rec, inst.rn, writeback_value)
        return latency

    def _exec_ldm(self, rec):
        inst = rec.inst
        base = self._read_operand(rec, inst.rn)
        addr = base
        count = 0
        any_miss = False
        for i in range(16):
            if inst.reglist & (1 << i):
                value, hit = self._mem_read(rec, addr, 4)
                any_miss = any_miss or not hit
                if i == _PC:
                    rec.result_next_pc = value & 0xFFFFFFFC
                else:
                    self._write_dest(rec, i, value)
                addr += 4
                count += 1
        if inst.writeback and not (inst.reglist & (1 << inst.rn)):
            self._write_dest(rec, inst.rn, base + 4 * count)
        latency = self.cfg.load_hit_latency + count - 1
        if any_miss:
            latency += self.cfg.miss_latency
            self.mem_busy_until = self.cycle + self.cfg.miss_latency
        return latency

    def _exec_stm(self, rec):
        inst = rec.inst
        base = self._read_operand(rec, inst.rn)
        count = bin(inst.reglist).count("1")
        addr = (base - 4 * count) & 0xFFFFFFFF
        start = addr
        ops = []
        for i in range(16):
            if inst.reglist & (1 << i):
                if addr % 4:
                    raise SimFault("align-fault", "stm", addr=addr)
                if addr + 4 > self.ram.size:
                    raise SimFault("mem-fault", "stm beyond RAM", addr=addr)
                ops.append((addr, 4, self._read_operand(rec, i)))
                addr += 4
        rec.store_ops = ops
        rec.addr_resolved = True
        if inst.writeback:
            self._write_dest(rec, inst.rn, start)
        return self.cfg.store_latency + count - 1

    # ------------------------------------------------------------------
    # rename / dispatch
    # ------------------------------------------------------------------

    def _rename_dispatch(self):
        budget = self.cfg.fetch_width
        while budget and self.fetch_queue:
            rec = self.fetch_queue[0]
            if rec.decode_ready > self.cycle:
                break
            if len(self.rob) >= self.cfg.rob_entries:
                break
            if len(self.iq) >= self.cfg.iq_entries:
                break
            inst = rec.inst
            dsts = [a for a in inst.dst_regs() if a != _PC]
            need_flags = inst.writes_flags()
            if self.rat.available() < len(dsts):
                break
            if need_flags and self.flag_rat.available() < 1:
                break
            self.fetch_queue.pop(0)
            if rec.fault is not None:
                # Bad-fetch record: goes straight to the ROB, already
                # "completed", and faults when it reaches the head.
                self.rob.append(rec)
                budget -= 1
                continue
            src_arches = set(a for a in inst.src_regs() if a != _PC)
            rec.phys_of = {a: self.rat.lookup(a) for a in src_arches}
            srcs = list(rec.phys_of.values())
            if inst.cond != Cond.AL or inst.reads_flags() \
                    or inst.writes_flags():
                rec.src_flag = self.flag_rat.lookup(0)
            for arch in dsts:
                new, old = self.rat.allocate(arch)
                rec.dests.append((arch, new, old))
                if inst.cond != Cond.AL:
                    srcs.append(old)
            if need_flags:
                rec.flag_dest = self.flag_rat.allocate(0)
            rec.srcs = tuple(srcs)
            self.rob.append(rec)
            self.iq.append(rec)
            budget -= 1

    # ------------------------------------------------------------------
    # fetch
    # ------------------------------------------------------------------

    def _fetch(self):
        if self.redirect_target is not None:
            if self.cycle < self.redirect_cycle:
                return
            self.pc = self.redirect_target
            self.redirect_target = None
        if self.draining or self.exited:
            return
        if self.fetch_stall_until > self.cycle:
            return
        budget = self.cfg.fetch_width
        while budget and len(self.fetch_queue) < self.cfg.decode_buffer:
            inst = self.program.inst_at(self.pc)
            line = self.pc & ~(self.cfg.line_size - 1)
            if line != self.current_line:
                self.current_line = line
                if line + 4 <= self.ram.size:
                    _, hit = self.icache.access(line, 4, write=False,
                                                cycle=self.cycle)
                    if not hit:
                        self.fetch_stall_until = (
                            self.cycle + self.cfg.miss_latency
                        )
                        return
            self.seq += 1
            if inst is None:
                # Fetch ran off the text segment: deliver a faulting record.
                bad = InFlight(
                    self.seq,
                    _FAULT_INST,
                    self.pc,
                    self.pc + 4,
                    self.cycle + 2,
                )
                bad.fault = SimFault("mem-fault", "fetch outside text",
                                     addr=self.pc)
                bad.completed = True
                self.fetch_queue.append(bad)
                return
            predicted = self._predict_next(inst, self.pc)
            rec = InFlight(self.seq, inst, self.pc, predicted,
                           self.cycle + 2)
            self.fetch_queue.append(rec)
            self.pc = predicted
            budget -= 1

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
    # drain support (for checkpoints)
    # ------------------------------------------------------------------

    def quiesced(self):
        return (
            not self.rob and not self.fetch_queue and not self.wb_queue
        )


#: Placeholder instruction attached to bad-fetch records.
_FAULT_INST = None


def _make_fault_inst():
    from repro.isa.instructions import Inst

    global _FAULT_INST
    _FAULT_INST = Inst(Op.HLT, text="<bad-fetch>")


_make_fault_inst()
