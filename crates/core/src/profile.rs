//! Per-iteration profiling: what the Data Collection stage extracts from
//! the committed instruction stream.

use dsa_cpu::{Machine, TraceEvent};
use dsa_isa::{AluOp, Instr, Operand, Reg};

/// One data-memory access stream observation: the `occ`-th access by the
/// instruction at `pc` within one iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamInfo {
    /// PC of the load/store instruction.
    pub pc: u32,
    /// Occurrence index within the iteration (for instructions executed
    /// more than once, e.g. inside a called function).
    pub occ: u8,
    /// Whether this is a store.
    pub is_write: bool,
    /// Access width in bytes.
    pub bytes: u8,
    /// The address observed this iteration.
    pub addr: u32,
}

/// The closing compare of an iteration, with operand *values* (the
/// hardware reads the register file; the trace-level model reads the
/// machine state).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CmpObs {
    /// PC of the compare.
    pub pc: u32,
    /// Left operand value.
    pub lhs: i64,
    /// Right operand value.
    pub rhs: i64,
    /// Whether the right operand was an immediate (static range) or a
    /// register (dynamic range).
    pub rhs_is_imm: bool,
}

/// Classified operation profile of one loop iteration.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BodyProfile {
    /// Sequential loads per iteration.
    pub loads: u32,
    /// Sequential stores per iteration.
    pub stores: u32,
    /// Vectorizable non-multiply value operations.
    pub vec_alu: u32,
    /// Vectorizable multiplies.
    pub vec_mul: u32,
    /// Vectorizable right shifts.
    pub vec_shift: u32,
    /// Loop overhead that disappears in vector code (index/pointer
    /// updates, compares, branches, invariant moves).
    pub droppable: u32,
    /// Operations the NEON engine cannot perform (indirect addressing,
    /// unsupported ALU forms).
    pub nonvec: u32,
    /// Element width in bytes; `None` when accesses have mixed widths.
    pub elem_bytes: Option<u8>,
    /// Whether the value operations are floating point.
    pub float: bool,
}

impl BodyProfile {
    /// Total vectorizable value operations.
    pub fn vec_ops(&self) -> u32 {
        self.vec_alu + self.vec_mul + self.vec_shift
    }

    /// Whether the body can be expressed as NEON work.
    pub fn is_vectorizable(&self) -> bool {
        self.nonvec == 0 && self.elem_bytes.is_some() && self.stores + self.loads > 0
    }
}

/// Everything the DSA learned from one loop iteration.
#[derive(Debug, Clone)]
pub struct IterationProfile {
    /// Ordered access observations.
    pub accesses: Vec<StreamInfo>,
    /// The last compare before the closing branch.
    pub closing_cmp: Option<CmpObs>,
    /// Hash of the conditional-branch path taken inside the body
    /// (identifies which condition executed).
    pub path: u64,
    /// Number of in-body conditional branches observed.
    pub cond_branches: u32,
    /// PCs executed inside the loop range, ascending.
    pub pcs: Vec<u32>,
    /// Classified operation profile.
    pub body: BodyProfile,
    /// Whether the body called a function.
    pub has_call: bool,
    /// PC range of called code outside the loop body, if any.
    pub callee_range: Option<(u32, u32)>,
    /// PC of a conditional forward branch leaving the loop (sentinel
    /// stop-check), if one exists.
    pub exit_check_pc: Option<u32>,
    /// PCs of non-droppable instructions (value operations, indirect
    /// accesses) — used by the nest-fusion check to verify the outer
    /// body is pure loop overhead.
    pub value_op_pcs: Vec<u32>,
    /// PCs of the in-body conditional branches counted in
    /// [`IterationProfile::cond_branches`].
    pub cond_branch_pcs: Vec<u32>,
    /// Committed instructions in the iteration.
    pub n_events: u32,
}

impl IterationProfile {
    /// Finds the observation matching `(pc, occ)`.
    pub fn find(&self, pc: u32, occ: u8) -> Option<&StreamInfo> {
        self.accesses.iter().find(|s| s.pc == pc && s.occ == occ)
    }

    /// The class of body this iteration suggests.
    pub fn body_class(&self) -> BodyClass {
        if self.cond_branches > 0 {
            BodyClass::Conditional
        } else if self.has_call {
            BodyClass::Function
        } else {
            BodyClass::Straight
        }
    }
}

/// Coarse body shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BodyClass {
    /// Straight-line body.
    Straight,
    /// Contains conditional code.
    Conditional,
    /// Contains a function call.
    Function,
}

/// Records one iteration of the loop `[lo..=hi]` from commit events.
///
/// One recorder can serve every iteration of every loop: [`reset`] and
/// [`clear`] empty it and keep its buffers, so recording allocates only
/// while the buffers grow to the largest iteration seen. Per-commit lookups
/// avoid hashing: occurrences are counted per PC in a short list (an
/// iteration has few distinct access PCs), visited body PCs live in a
/// bitset over the loop range and address registers in a 16-bit mask.
///
/// [`reset`]: IterationRecorder::reset
/// [`clear`]: IterationRecorder::clear
#[derive(Debug)]
pub struct IterationRecorder {
    lo: u32,
    hi: u32,
    accesses: Vec<StreamInfo>,
    /// `(pc, occurrences so far)` for every PC that accessed memory.
    occ: Vec<(u32, u8)>,
    instrs: Vec<(u32, Instr)>,
    /// Base registers of scalar memory accesses, one bit per register.
    base_regs: u16,
    last_cmp: Option<(CmpObs, Option<Reg>)>,
    path: u64,
    cond_branches: u32,
    cond_branch_pcs: Vec<u32>,
    /// Register moves observed (`rd <- rm`), for the transitive
    /// address-register closure.
    movs: Vec<(Reg, Reg)>,
    /// Bit `pc - lo` is set when body PC `pc` executed.
    pcs: Vec<u64>,
    has_call: bool,
    callee_range: Option<(u32, u32)>,
    exit_check_pc: Option<u32>,
    n_events: u32,
}

fn reg_bit(r: Reg) -> u16 {
    1u16 << r.index()
}

impl IterationRecorder {
    /// Creates a recorder for the loop body `[lo..=hi]`.
    pub fn new(lo: u32, hi: u32) -> IterationRecorder {
        IterationRecorder {
            lo,
            hi,
            accesses: Vec::new(),
            occ: Vec::new(),
            instrs: Vec::new(),
            base_regs: 0,
            last_cmp: None,
            path: 0,
            cond_branches: 0,
            cond_branch_pcs: Vec::new(),
            movs: Vec::new(),
            pcs: Vec::new(),
            has_call: false,
            callee_range: None,
            exit_check_pc: None,
            n_events: 0,
        }
    }

    /// Starts over on the loop body `[lo..=hi]`, keeping the buffers.
    pub fn reset(&mut self, lo: u32, hi: u32) {
        self.lo = lo;
        self.hi = hi;
        self.clear();
    }

    /// Forgets the recorded iteration, keeping the buffers for the next.
    pub fn clear(&mut self) {
        self.accesses.clear();
        self.occ.clear();
        self.instrs.clear();
        self.base_regs = 0;
        self.last_cmp = None;
        self.path = 0;
        self.cond_branches = 0;
        self.cond_branch_pcs.clear();
        self.movs.clear();
        self.pcs.iter_mut().for_each(|w| *w = 0);
        self.has_call = false;
        self.callee_range = None;
        self.exit_check_pc = None;
        self.n_events = 0;
    }

    fn in_range(&self, pc: u32) -> bool {
        (self.lo..=self.hi).contains(&pc)
    }

    /// Feeds one committed event (the closing backward branch itself
    /// should *not* be fed; it delimits iterations).
    pub fn record(&mut self, ev: &TraceEvent, machine: &Machine) {
        self.n_events += 1;
        if self.in_range(ev.pc) {
            let bit = (ev.pc - self.lo) as usize;
            if bit / 64 >= self.pcs.len() {
                self.pcs.resize(bit / 64 + 1, 0);
            }
            self.pcs[bit / 64] |= 1 << (bit % 64);
        } else if let Some((lo, hi)) = &mut self.callee_range {
            *lo = (*lo).min(ev.pc);
            *hi = (*hi).max(ev.pc);
        } else {
            self.callee_range = Some((ev.pc, ev.pc));
        }
        self.instrs.push((ev.pc, ev.instr));

        if let Some(acc) = ev.read.or(ev.write) {
            let occ = match self.occ.iter_mut().find(|(pc, _)| *pc == ev.pc) {
                Some((_, n)) => n,
                None => {
                    self.occ.push((ev.pc, 0));
                    let last = self.occ.len() - 1;
                    &mut self.occ[last].1
                }
            };
            self.accesses.push(StreamInfo {
                pc: ev.pc,
                occ: *occ,
                is_write: ev.write.is_some(),
                bytes: acc.bytes,
                addr: acc.addr,
            });
            *occ = occ.wrapping_add(1);
            match ev.instr {
                Instr::Ldr { rn, .. }
                | Instr::Str { rn, .. }
                | Instr::LdrReg { rn, .. }
                | Instr::StrReg { rn, .. } => self.base_regs |= reg_bit(rn),
                _ => {}
            }
        }

        match ev.instr {
            Instr::Mov { rd, rm } => self.movs.push((rd, rm)),
            Instr::Cmp { rn, src2 } => {
                let lhs = machine.reg(rn) as i32 as i64;
                let (rhs, rhs_is_imm) = match src2 {
                    Operand::Reg(rm) => (machine.reg(rm) as i32 as i64, false),
                    Operand::Imm(v) => (v as i64, true),
                };
                self.last_cmp =
                    Some((CmpObs { pc: ev.pc, lhs, rhs, rhs_is_imm }, Some(rn)));
            }
            Instr::Bl { .. } => self.has_call = true,
            Instr::B { cond, .. } if cond != dsa_isa::Cond::Al => {
                if let Some(b) = ev.branch {
                    if self.in_range(ev.pc) && !self.in_range(b.target) {
                        // Conditional branch leaving the loop: the
                        // sentinel stop check (or a guarded early exit).
                        self.exit_check_pc = Some(ev.pc);
                    } else if b.target > ev.pc {
                        // In-body conditional control flow: both the
                        // direction and the branch PC identify the arm.
                        self.cond_branches += 1;
                        self.cond_branch_pcs.push(ev.pc);
                        self.path = self
                            .path
                            .wrapping_mul(0x0000_0100_0000_01b3)
                            .wrapping_add(((ev.pc as u64) << 1) | b.taken as u64);
                    }
                }
            }
            _ => {}
        }
    }

    /// The recorded iteration's conditional path hash (see
    /// [`IterationProfile::path`]) — with [`IterationRecorder::find`],
    /// all a conditional execution window reads, without the operation
    /// classification of [`IterationRecorder::finish`].
    pub fn path(&self) -> u64 {
        self.path
    }

    /// The recorded iteration's access observations, in order.
    pub fn accesses(&self) -> &[StreamInfo] {
        &self.accesses
    }

    /// Finds the recorded observation matching `(pc, occ)`.
    pub fn find(&self, pc: u32, occ: u8) -> Option<&StreamInfo> {
        self.accesses.iter().find(|s| s.pc == pc && s.occ == occ)
    }

    /// Classifies the recorded iteration's operations into a profile.
    pub fn finish(&self, index_reg: Option<Reg>) -> IterationProfile {
        let mut body = BodyProfile::default();
        for s in &self.accesses {
            if s.is_write {
                body.stores += 1;
            } else {
                body.loads += 1;
            }
        }
        // One width for every access, or none (inconsistent member
        // lengths, Table 1 line 9).
        body.elem_bytes = match self.accesses.split_first() {
            Some((first, rest)) if rest.iter().all(|s| s.bytes == first.bytes) => {
                Some(first.bytes)
            }
            _ => None,
        };

        let overhead_regs: u16 = {
            let mut set = self.base_regs;
            if let Some(r) = index_reg {
                set |= reg_bit(r);
            }
            if let Some((_, Some(r))) = self.last_cmp {
                set |= reg_bit(r);
            }
            // Transitive closure over moves: a register copied into an
            // address register is itself address arithmetic (e.g. an
            // outer loop's row pointer feeding the inner loop's base).
            loop {
                let before = set;
                for &(rd, rm) in &self.movs {
                    if set & reg_bit(rd) != 0 {
                        set |= reg_bit(rm);
                    }
                }
                if set == before {
                    break;
                }
            }
            set
        };

        let mut value_op_pcs = Vec::new();
        for (pc, instr) in &self.instrs {
            match instr {
                Instr::Alu { op, rd, .. } => {
                    if overhead_regs & reg_bit(*rd) != 0 {
                        body.droppable += 1;
                        continue;
                    }
                    value_op_pcs.push(*pc);
                    match op {
                        AluOp::Add | AluOp::Sub | AluOp::Rsb | AluOp::And | AluOp::Orr
                        | AluOp::Eor => body.vec_alu += 1,
                        AluOp::Mul => body.vec_mul += 1,
                        AluOp::FAdd | AluOp::FSub => {
                            body.vec_alu += 1;
                            body.float = true;
                        }
                        AluOp::FMul => {
                            body.vec_mul += 1;
                            body.float = true;
                        }
                        AluOp::Lsr | AluOp::Asr => body.vec_shift += 1,
                        AluOp::Lsl => body.nonvec += 1,
                    }
                }
                Instr::LdrReg { .. } | Instr::StrReg { .. } => {
                    value_op_pcs.push(*pc);
                    body.nonvec += 1;
                }
                Instr::Ldr { .. } | Instr::Str { .. } => {} // counted as streams
                Instr::MovImm { .. }
                | Instr::MovTop { .. }
                | Instr::Mov { .. }
                | Instr::Cmp { .. }
                | Instr::B { .. }
                | Instr::Bl { .. }
                | Instr::BxLr
                | Instr::Nop => body.droppable += 1,
                Instr::Halt => body.nonvec += 1,
                // Vector instructions in the watched stream mean the code
                // is already vectorized; the DSA leaves it alone.
                _ => body.nonvec += 1,
            }
        }

        let pcs = self
            .pcs
            .iter()
            .enumerate()
            .flat_map(|(w, &bits)| {
                (0..64).filter(move |b| bits >> b & 1 != 0).map(move |b| (w * 64 + b) as u32)
            })
            .map(|off| self.lo + off)
            .collect();

        IterationProfile {
            accesses: self.accesses.clone(),
            closing_cmp: self.last_cmp.map(|(c, _)| c),
            path: self.path,
            cond_branches: self.cond_branches,
            pcs,
            body,
            has_call: self.has_call,
            callee_range: self.callee_range,
            exit_check_pc: self.exit_check_pc,
            value_op_pcs,
            cond_branch_pcs: self.cond_branch_pcs.clone(),
            n_events: self.n_events,
        }
    }

    /// The register compared by the most recent compare (the induction
    /// candidate), if any.
    pub fn last_cmp_reg(&self) -> Option<Reg> {
        self.last_cmp.and_then(|(_, r)| r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsa_cpu::{BranchOutcome, MemAccess};
    use dsa_isa::{AddrMode, Cond, MemSize};

    fn machine() -> Machine {
        Machine::new()
    }

    fn ld(pc: u32, rd: Reg, rn: Reg, addr: u32) -> TraceEvent {
        let mut ev = TraceEvent::simple(
            pc,
            Instr::Ldr { rd, rn, mode: AddrMode::Offset(0), size: MemSize::W },
        );
        ev.read = Some(MemAccess { addr, bytes: 4 });
        ev
    }

    fn st(pc: u32, rs: Reg, rn: Reg, addr: u32) -> TraceEvent {
        let mut ev = TraceEvent::simple(
            pc,
            Instr::Str { rs, rn, mode: AddrMode::Offset(0), size: MemSize::W },
        );
        ev.write = Some(MemAccess { addr, bytes: 4 });
        ev
    }

    fn alu(pc: u32, op: AluOp, rd: Reg) -> TraceEvent {
        TraceEvent::simple(pc, Instr::Alu { op, rd, rn: Reg::R6, src2: Operand::Reg(Reg::R7) })
    }

    #[test]
    fn straight_line_map_iteration() {
        let m = machine();
        let mut r = IterationRecorder::new(10, 20);
        r.record(&ld(10, Reg::R6, Reg::R2, 0x100), &m);
        r.record(&ld(11, Reg::R7, Reg::R3, 0x200), &m);
        r.record(&alu(12, AluOp::Add, Reg::R6), &m);
        r.record(&st(13, Reg::R6, Reg::R4, 0x300), &m);
        r.record(&alu(14, AluOp::Add, Reg::R2), &m); // pointer update
        r.record(&alu(15, AluOp::Add, Reg::R0), &m); // index update (cmp reg)
        r.record(
            &TraceEvent::simple(16, Instr::Cmp { rn: Reg::R0, src2: Operand::Imm(40) }),
            &m,
        );
        let p = r.finish(Some(Reg::R0));
        assert_eq!(p.body.loads, 2);
        assert_eq!(p.body.stores, 1);
        assert_eq!(p.body.vec_alu, 1, "one real add");
        assert_eq!(p.body.droppable, 3, "two pointer/index adds + cmp");
        assert_eq!(p.body.nonvec, 0);
        assert!(p.body.is_vectorizable());
        assert_eq!(p.body.elem_bytes, Some(4));
        assert_eq!(p.body_class(), BodyClass::Straight);
        let cmp = p.closing_cmp.expect("cmp recorded");
        assert!(cmp.rhs_is_imm);
        assert_eq!(cmp.rhs, 40);
    }

    #[test]
    fn conditional_path_hash_differs_by_direction() {
        let m = machine();
        let b = |taken: bool| {
            let mut ev = TraceEvent::simple(12, Instr::B { cond: Cond::Ge, offset: 3 });
            ev.branch = Some(BranchOutcome { target: 15, taken });
            ev
        };
        let mut r1 = IterationRecorder::new(10, 20);
        r1.record(&b(true), &m);
        let mut r2 = IterationRecorder::new(10, 20);
        r2.record(&b(false), &m);
        let p1 = r1.finish(None);
        let p2 = r2.finish(None);
        assert_ne!(p1.path, p2.path);
        assert_eq!(p1.cond_branches, 1);
        assert_eq!(p1.body_class(), BodyClass::Conditional);
    }

    #[test]
    fn sentinel_exit_branch_detected() {
        let m = machine();
        let mut r = IterationRecorder::new(10, 20);
        let mut ev = TraceEvent::simple(11, Instr::B { cond: Cond::Eq, offset: 30 });
        ev.branch = Some(BranchOutcome { target: 41, taken: false });
        r.record(&ev, &m);
        let p = r.finish(None);
        assert_eq!(p.exit_check_pc, Some(11));
        // A not-taken exit branch is not conditional body code.
        assert_eq!(p.cond_branches, 0, "exit check is not an arm");
    }

    #[test]
    fn mixed_widths_rejected() {
        let m = machine();
        let mut r = IterationRecorder::new(0, 10);
        r.record(&ld(0, Reg::R6, Reg::R2, 0x100), &m);
        let mut byte_ld = TraceEvent::simple(
            1,
            Instr::Ldr { rd: Reg::R7, rn: Reg::R3, mode: AddrMode::Offset(0), size: MemSize::B },
        );
        byte_ld.read = Some(MemAccess { addr: 0x200, bytes: 1 });
        r.record(&byte_ld, &m);
        let p = r.finish(None);
        assert_eq!(p.body.elem_bytes, None);
        assert!(!p.body.is_vectorizable());
    }

    #[test]
    fn function_call_and_callee_range() {
        let m = machine();
        let mut r = IterationRecorder::new(10, 20);
        let mut bl = TraceEvent::simple(12, Instr::Bl { offset: 100 });
        bl.branch = Some(BranchOutcome { target: 112, taken: true });
        r.record(&bl, &m);
        r.record(&alu(112, AluOp::Mul, Reg::R8), &m);
        let mut ret = TraceEvent::simple(113, Instr::BxLr);
        ret.branch = Some(BranchOutcome { target: 13, taken: true });
        r.record(&ret, &m);
        let p = r.finish(None);
        assert!(p.has_call);
        assert_eq!(p.callee_range, Some((112, 113)));
        assert_eq!(p.body.vec_mul, 1);
        assert_eq!(p.body_class(), BodyClass::Function);
    }

    #[test]
    fn occurrence_numbering_for_repeated_pcs() {
        let m = machine();
        let mut r = IterationRecorder::new(0, 10);
        r.record(&ld(3, Reg::R6, Reg::R2, 0x100), &m);
        r.record(&ld(3, Reg::R6, Reg::R2, 0x104), &m);
        let p = r.finish(None);
        assert_eq!(p.find(3, 0).map(|s| s.addr), Some(0x100));
        assert_eq!(p.find(3, 1).map(|s| s.addr), Some(0x104));
        assert!(p.find(3, 2).is_none());
    }
}
