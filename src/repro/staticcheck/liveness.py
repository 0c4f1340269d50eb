"""Backward register/flag dataflow over a :class:`~repro.staticcheck.cfg.CFG`.

Two analyses run over a 20-bit mask domain -- bits 0..15 are registers
r0..r15, bits 16..19 are the NZCV flags in CPSR trace-cell order
(bit 16 = V, 17 = C, 18 = Z, 19 = N, matching
``repro.isa.interp._COND_FLAG_READS`` and the per-bit ``cpsr`` cells the
dynamic trace records):

* **may-live** (least fixpoint, masks grow from empty):
  ``live_in = use | (live_out & ~kill)``, ``live_out = OR of successor
  live_in``.  A bit *clear* in ``live_in[pc]`` means no path from
  ``pc`` ever reads the cell again before (possibly) writing it.
* **must-write-before-read** (greatest fixpoint, masks shrink from
  full): ``must_in = ~use & (kill | must_out)``, ``must_out = AND of
  successor must_in``, terminal ``must_out = 0``.  A bit *set* in
  ``must_in[pc]`` means every path from ``pc`` writes the cell before
  reading it.  The greatest-fixpoint seed is sound for the pruner's
  use: verdicts are only ever consulted at PCs on the golden run's
  retired path, which terminates, and along a terminating path the
  claim follows by induction from the path's end.

Def/use sets come from a per-tier :class:`DefUseModel` built on the same
:meth:`~repro.isa.instructions.Inst.src_regs` /
:meth:`~repro.isa.instructions.Inst.dst_regs` metadata the simulators
(and ``repro.isa.valu``) dispatch on, so the static view and the
executed view stay in lockstep.  Model soundness contract, for **both**
analyses: ``use`` must cover every access the machine *may* perform at
a dynamic instance of the instruction (including accesses the dynamic
trace does not record, e.g. wrong-path register reads at the RT level),
and ``kill`` may contain only writes that *certainly* happen and land
in the trace as plain writes (hence conditional instructions kill
nothing, and flags whose dynamic write is preceded by a same-stamp read
are never killed).
"""

from __future__ import annotations

from repro.isa.instructions import (
    Cond,
    DP_IMM_OPS,
    DP_REG_OPS,
    Inst,
    LOAD_OPS,
    Op,
)
from repro.isa.interp import _COND_FLAG_READS as COND_FLAG_READS
from repro.isa.syscalls import SYS_EXIT
from repro.staticcheck.cfg import ANY_NODE, CFG

#: First mask bit of the flag block (bit 16 + cpsr trace-cell index).
FLAG_SHIFT = 16
#: All four NZCV flag bits in mask position.
ALL_FLAGS = 0b1111 << FLAG_SHIFT
#: All sixteen register bits.
ALL_REGS = (1 << 16) - 1
#: The full analysis domain.
FULL_MASK = ALL_REGS | ALL_FLAGS

#: Register-offset memory ops: their address path runs the barrel
#: shifter, which may consult the carry flag (RRX) -- a read the arch
#: interpreter performs without firing its flag listener.
_MEM_REG_OFFSET_OPS = frozenset(
    {Op.LDRR, Op.STRR, Op.LDRBR, Op.STRBR, Op.LDRHR, Op.STRHR}
)


def reg_bit(reg: int) -> int:
    """Mask bit of architectural register ``reg``."""
    return 1 << reg


def flag_bit(cell: int) -> int:
    """Mask bit of CPSR trace cell ``cell`` (0=V, 1=C, 2=Z, 3=N)."""
    return 1 << (FLAG_SHIFT + cell)


def _src_mask(inst: Inst) -> int:
    mask = 0
    for reg in inst.src_regs():
        mask |= 1 << reg
    return mask


def _dst_mask(inst: Inst) -> int:
    mask = 0
    for reg in inst.dst_regs():
        mask |= 1 << reg
    return mask


class DefUseModel:
    """Per-tier def/use extraction (see the module docstring contract)."""

    def use(self, inst: Inst) -> int:
        raise NotImplementedError

    def kill(self, inst: Inst) -> int:
        raise NotImplementedError


class ArchDefUse(DefUseModel):
    """The architectural interpreter's access behavior.

    Mirrors ``repro.isa.interp.Interpreter`` event for event: the
    conditional-guard flag read fires before the condition is
    evaluated; every data-processing operand2 evaluation consults the
    carry flag; a flag-*writing* data-processing op reads C and V while
    computing the new flags, so only N and Z are certain
    read-free overwrites (``MULS``/``MLAS`` write exactly N and Z).
    Conditional instructions kill nothing -- the guard may fail.
    """

    def use(self, inst: Inst) -> int:
        mask = _src_mask(inst)
        if inst.cond != Cond.AL:
            mask |= int(COND_FLAG_READS[inst.cond]) << FLAG_SHIFT
        op = inst.op
        if op in DP_REG_OPS or op in DP_IMM_OPS:
            carry_volatile = 0b0010
            if inst.writes_flags():
                carry_volatile |= 0b0011
            mask |= carry_volatile << FLAG_SHIFT
        elif op in _MEM_REG_OFFSET_OPS:
            mask |= 0b0010 << FLAG_SHIFT
        return mask & ~reg_bit(15)

    def kill(self, inst: Inst) -> int:
        if inst.cond != Cond.AL:
            return 0
        mask = _dst_mask(inst)
        op = inst.op
        if inst.writes_flags() and (
            op in DP_REG_OPS or op in DP_IMM_OPS or op in (Op.MUL, Op.MLA)
        ):
            # N and Z only: the dynamic trace records the C/V reads of
            # the flag computation at the same stamp as the writes, and
            # reads sort first -- C/V are consumed, not killed.
            mask |= 0b1100 << FLAG_SHIFT
        return mask & ~reg_bit(15)


class RTLDefUse(DefUseModel):
    """The in-order RT-level pipeline's access behavior.

    Beyond the architectural reads, the pipeline touches the register
    file in ways the retired instruction stream does not show:

    * condition-failed uops still read their destinations at register
      read and write the old values back at writeback, so conditional
      instructions *use* their destinations;
    * every in-flight uop reads the NZCV flops at EX1 -- including
      wrong-path uops -- so flags are permanently live and never
      killed (no static flag verdicts at this tier);
    * the only sources of wrong-path register-file reads are the
      issue window behind an EX2 deep redirect (a load into the PC or
      an ``LDM`` including it) and the stragglers issued while an
      exit-``SVC`` drains; those instructions conservatively use every
      register, which dissolves any dead claim spanning them.  (Reads
      behind EX1-resolved branches never happen: branches issue alone
      and the mispredict flush blocks the same tick's issue stage.)

    r15 is neither used nor killed: the pipeline serves PC reads from
    the fetch address and strips PC destinations from writeback, so
    register-file cell 15 is never accessed and stays statically dead.
    """

    def use(self, inst: Inst) -> int:
        mask = _src_mask(inst) | ALL_FLAGS
        if inst.cond != Cond.AL:
            mask |= _dst_mask(inst)
        op = inst.op
        deep_redirect = (
            (op in LOAD_OPS and inst.rd == 15)
            or (op == Op.LDM and bool(inst.reglist & (1 << 15)))
        )
        if deep_redirect or (op == Op.SVC and inst.imm == SYS_EXIT):
            mask |= ALL_REGS
        return mask & ~reg_bit(15)

    def kill(self, inst: Inst) -> int:
        if inst.cond != Cond.AL:
            return 0
        return _dst_mask(inst) & ~reg_bit(15)


class Dataflow:
    """Fixpoint solutions of both analyses over one CFG + model."""

    def __init__(self, cfg: CFG, model: DefUseModel) -> None:
        self.cfg = cfg
        self.model = model
        self.use: dict[int, int] = {}
        self.kill: dict[int, int] = {}
        for addr in cfg.code_addrs:
            inst = cfg.insts[addr]
            self.use[addr] = model.use(inst)
            self.kill[addr] = model.kill(inst)
        for addr in cfg.pool_addrs:
            self.use[addr] = 0
            self.kill[addr] = 0
        self.live_in: dict[int, int] = {}
        self.must_in: dict[int, int] = {}
        self._solve()

    def _solve(self) -> None:
        cfg = self.cfg
        addrs = sorted(cfg.succs)
        # Backward flow: sweeping in descending address order reaches a
        # fixpoint in few passes on mostly-forward code.
        order = list(reversed(addrs))
        code = cfg.code_addrs
        live = {addr: 0 for addr in addrs}
        must = {addr: FULL_MASK for addr in addrs}
        use, kill = self.use, self.kill
        changed = True
        while changed:
            changed = False
            # live_in / must_in of the ANY pseudo-node: join over every
            # instruction an indirect transfer could land on.
            any_live = 0
            any_must = FULL_MASK
            for addr in code:
                any_live |= live[addr]
                any_must &= must[addr]
            for addr in order:
                succs = cfg.succs[addr]
                if succs:
                    live_out = 0
                    must_out = FULL_MASK
                    for succ in succs:
                        if succ == ANY_NODE:
                            live_out |= any_live
                            must_out &= any_must
                        else:
                            live_out |= live[succ]
                            must_out &= must[succ]
                else:
                    live_out = 0
                    must_out = 0
                new_live = use[addr] | (live_out & ~kill[addr])
                new_must = ~use[addr] & (kill[addr] | must_out) & FULL_MASK
                if new_live != live[addr] or new_must != must[addr]:
                    live[addr] = new_live
                    must[addr] = new_must
                    changed = True
        self.live_in = live
        self.must_in = must

    # ------------------------------------------------------------------

    def live_out(self, addr: int) -> int:
        """May-live mask just after ``addr`` (successor join)."""
        live_out = 0
        any_live = 0
        for succ in self.cfg.succs[addr]:
            if succ == ANY_NODE:
                if not any_live:
                    for code_addr in self.cfg.code_addrs:
                        any_live |= self.live_in[code_addr]
                live_out |= any_live
            else:
                live_out |= self.live_in[succ]
        return live_out

    def __repr__(self) -> str:
        return f"Dataflow({self.cfg!r}, {type(self.model).__name__})"
