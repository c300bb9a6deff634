//! The per-procedure constraint generator (Appendix A).

use std::collections::{BTreeMap, BTreeSet, HashMap};

use retypd_core::fxhash::FxHashMap;
use retypd_core::{
    AddSubConstraint, AddSubKind, BaseVar, CallTarget, Callsite, ConstraintSet, DerivedVar,
    Label, Loc, Procedure, Symbol,
};
use retypd_mir::cfg::Cfg;
use retypd_mir::isa::{BinOp, Inst, Operand, Reg};
use retypd_mir::program::{CallKind, Function, Program as MirProgram};
use retypd_mir::reaching::{uses_of, DefSite, Location, ReachingDefs};
use retypd_mir::stack::{FrameInfo, Loc32};

use crate::stdlib::{standard_externals, ExternalModel};

/// Recovered interface of a procedure: the "locators" of Appendix A.4.
#[derive(Clone, Debug, Default)]
pub struct FuncSummary {
    /// Formal-in locations.
    pub ins: Vec<Loc>,
    /// True if the procedure returns a value in `eax`.
    pub has_out: bool,
}

/// Generates a whole-program constraint system with the standard external
/// models.
pub fn generate(mir: &MirProgram) -> retypd_core::Program {
    generate_with_externals(mir, &standard_externals())
}

/// Generates a whole-program constraint system with the given external
/// models.
pub fn generate_with_externals(
    mir: &MirProgram,
    externals: &BTreeMap<Symbol, ExternalModel>,
) -> retypd_core::Program {
    // Phase 1: analyses and interface recovery for every function.
    let mut analyses = Vec::with_capacity(mir.funcs.len());
    let mut summaries = Vec::with_capacity(mir.funcs.len());
    for f in &mir.funcs {
        let cfg = Cfg::build(f);
        let frame = FrameInfo::compute(f, &cfg);
        let rd = ReachingDefs::compute(f, &cfg, &frame);
        let summary = recover_interface(f, &frame, &rd);
        analyses.push((cfg, frame, rd));
        summaries.push(summary);
    }
    // Phase 2: constraint emission, with the register-name table interned
    // once for the whole generation.
    let regs: FxHashMap<Symbol, Reg> = Reg::ALL
        .iter()
        .map(|&r| (Symbol::intern(r.name()), r))
        .collect();
    let mut program = retypd_core::Program::new();
    for (idx, f) in mir.funcs.iter().enumerate() {
        let (_, frame, rd) = &analyses[idx];
        let gen = FuncGen::new(f, frame, rd, &summaries, externals, mir, &regs);
        program.add_proc(gen.run(&summaries[idx]));
    }
    for (name, model) in externals {
        program.externals.insert(*name, model.scheme.clone());
    }
    program
}

/// Recovers formal-in locations and output presence from the analyses.
pub fn recover_interface(f: &Function, frame: &FrameInfo, rd: &ReachingDefs) -> FuncSummary {
    let mut stack_ins: BTreeSet<u32> = BTreeSet::new();
    let mut reg_ins: BTreeSet<Reg> = BTreeSet::new();
    let mut has_out = false;
    for (i, inst) in f.insts.iter().enumerate() {
        for u in uses_of(f, frame, i) {
            match u {
                Location::Slot(Loc32(s)) if s >= 4 => {
                    if rd.entry_reaches(i, u) {
                        stack_ins.insert((s - 4) as u32);
                    }
                }
                Location::Reg(r) if r != Reg::Esp && r != Reg::Ebp => {
                    if !rd.entry_reaches(i, u) {
                        continue;
                    }
                    // The save/restore prologue pattern for callee-saved
                    // registers is not a parameter; a bare `push ecx` (slot
                    // reservation, §2.5) deliberately remains one.
                    let is_push = matches!(inst, Inst::Push(_));
                    let callee_saved = matches!(r, Reg::Ebx | Reg::Esi | Reg::Edi);
                    if is_push && callee_saved {
                        continue;
                    }
                    if matches!(inst, Inst::Ret) {
                        continue; // eax-at-ret is the output, not an input
                    }
                    reg_ins.insert(r);
                }
                _ => {}
            }
        }
        if matches!(inst, Inst::Ret) {
            let defs = rd.reaching(i, Location::Reg(Reg::Eax));
            if defs.iter().any(|d| matches!(d, DefSite::Inst(_))) {
                has_out = true;
            }
        }
    }
    let mut ins: Vec<Loc> = stack_ins.into_iter().map(Loc::Stack).collect();
    ins.extend(reg_ins.into_iter().map(|r| Loc::reg(r.name())));
    FuncSummary { ins, has_out }
}

struct FuncGen<'a> {
    f: &'a Function,
    frame: &'a FrameInfo,
    rd: &'a ReachingDefs,
    summaries: &'a [FuncSummary],
    externals: &'a BTreeMap<Symbol, ExternalModel>,
    mir: &'a MirProgram,
    /// Interned register-name table (built once per generation).
    regs: &'a FxHashMap<Symbol, Reg>,
    cs: ConstraintSet,
    callsites: Vec<Callsite>,
    /// Slots whose address is taken: typed flow-insensitively.
    escaped: BTreeSet<i32>,
    /// Formal locations, for naming entry definitions.
    formal_slots: BTreeMap<i32, Loc>,
    formal_regs: BTreeMap<Reg, Loc>,
    /// Constant-offset aliases: `var ↦ (root, byte offset)` from pointer
    /// arithmetic with statically known offsets (the `.+n` tracking of
    /// Appendix A.2, folded into the abstract domain).
    alias: HashMap<BaseVar, (DerivedVar, i32)>,
    fresh: usize,
}

impl<'a> FuncGen<'a> {
    fn new(
        f: &'a Function,
        frame: &'a FrameInfo,
        rd: &'a ReachingDefs,
        summaries: &'a [FuncSummary],
        externals: &'a BTreeMap<Symbol, ExternalModel>,
        mir: &'a MirProgram,
        regs: &'a FxHashMap<Symbol, Reg>,
    ) -> FuncGen<'a> {
        FuncGen {
            f,
            frame,
            rd,
            summaries,
            externals,
            mir,
            regs,
            cs: ConstraintSet::new(),
            callsites: Vec::new(),
            escaped: BTreeSet::new(),
            formal_slots: BTreeMap::new(),
            formal_regs: BTreeMap::new(),
            alias: HashMap::new(),
            fresh: 0,
        }
    }

    fn run(mut self, summary: &FuncSummary) -> Procedure {
        for loc in &summary.ins {
            match loc {
                Loc::Stack(k) => {
                    self.formal_slots.insert(*k as i32 + 4, *loc);
                }
                Loc::Reg(r) => {
                    if let Some(&reg) = self.regs.get(r) {
                        self.formal_regs.insert(reg, *loc);
                    }
                }
            }
        }
        // Escaped-slot discovery.
        for (i, inst) in self.f.insts.iter().enumerate() {
            if let Inst::Lea { addr, .. } = inst {
                if let Some(Loc32(s)) = self.frame.resolve(i, addr) {
                    self.escaped.insert(s);
                }
            }
        }
        for i in 0..self.f.insts.len() {
            self.emit(i, summary);
        }
        Procedure {
            name: Symbol::intern(&self.f.name),
            constraints: self.cs,
            callsites: self.callsites,
        }
    }

    fn fresh_var(&mut self, hint: &str) -> BaseVar {
        self.fresh += 1;
        BaseVar::var(&format!("{}::{hint}_{}", self.f.name, self.fresh))
    }

    fn proc_var(&self) -> BaseVar {
        BaseVar::var(&self.f.name)
    }

    fn loc_name(loc: Location) -> String {
        match loc {
            Location::Reg(r) => r.name().to_owned(),
            Location::Slot(Loc32(s)) if s >= 0 => format!("sp{s}"),
            Location::Slot(Loc32(s)) => format!("sm{}", -s),
        }
    }

    /// The variable holding `loc` as defined at `site`.
    fn def_var(&self, loc: Location, site: DefSite) -> DerivedVar {
        // Escaped slots are flow-insensitive.
        if let Location::Slot(Loc32(s)) = loc {
            if self.escaped.contains(&s) {
                if let Some(formal) = self.formal_slots.get(&s) {
                    return DerivedVar::new(self.proc_var()).push(Label::In(*formal));
                }
                return DerivedVar::var(&format!(
                    "{}::stack{}",
                    self.f.name,
                    Self::loc_name(loc)
                ));
            }
        }
        match site {
            DefSite::Entry => {
                match loc {
                    Location::Slot(Loc32(s)) => {
                        if let Some(formal) = self.formal_slots.get(&s) {
                            return DerivedVar::new(self.proc_var()).push(Label::In(*formal));
                        }
                    }
                    Location::Reg(r) => {
                        if let Some(formal) = self.formal_regs.get(&r) {
                            return DerivedVar::new(self.proc_var()).push(Label::In(*formal));
                        }
                    }
                }
                DerivedVar::var(&format!("{}::{}_in", self.f.name, Self::loc_name(loc)))
            }
            DefSite::Inst(i) => {
                DerivedVar::var(&format!("{}::{}_{}", self.f.name, Self::loc_name(loc), i))
            }
        }
    }

    /// The variable for a *use* of `loc` at instruction `i`; joins multiple
    /// reaching definitions through a fresh variable (Example A.2).
    fn read(&mut self, i: usize, loc: Location) -> DerivedVar {
        if let Location::Slot(Loc32(s)) = loc {
            if self.escaped.contains(&s) {
                return self.def_var(loc, DefSite::Entry);
            }
        }
        let defs = self.rd.reaching(i, loc);
        match defs.len() {
            0 => DerivedVar::new(self.fresh_var(&format!("u{}", Self::loc_name(loc)))),
            1 => self.def_var(loc, defs[0]),
            _ => {
                let t = DerivedVar::new(
                    self.fresh_var(&format!("j{}_{}", Self::loc_name(loc), i)),
                );
                for d in defs {
                    let dv = self.def_var(loc, d);
                    self.cs.add_sub(dv, t.clone());
                }
                t
            }
        }
    }

    /// Resolves pointer-arithmetic aliases: the root variable and folded
    /// byte offset of `v`.
    fn resolve_alias(&self, v: &DerivedVar) -> (DerivedVar, i32) {
        if v.is_empty() {
            if let Some((root, off)) = self.alias.get(&v.base()) {
                return (root.clone(), *off);
            }
        }
        (v.clone(), 0)
    }

    fn read_operand(&mut self, i: usize, op: &Operand) -> Option<DerivedVar> {
        match op {
            Operand::Reg(r) => Some(self.read(i, Location::Reg(*r))),
            Operand::Imm(_) => None, // semi-syntactic constants stay untyped
        }
    }

    fn emit(&mut self, i: usize, summary: &FuncSummary) {
        let inst = self.f.insts[i].clone();
        match inst {
            Inst::Mov { dst, src } => {
                if let Some(rv) = self.read_operand(i, &src) {
                    let dv = self.def_var(Location::Reg(dst), DefSite::Inst(i));
                    // Propagate pointer-offset aliases through copies.
                    let (root, off) = self.resolve_alias(&rv);
                    self.alias.insert(dv.base(), (root, off));
                    self.cs.add_sub(rv, dv);
                }
            }
            Inst::Load { dst, addr, size } => {
                let dv = self.def_var(Location::Reg(dst), DefSite::Inst(i));
                match self.frame.resolve(i, &addr) {
                    Some(Loc32(s)) => {
                        let rv = self.read(i, Location::Slot(Loc32(s)));
                        self.cs.add_sub(rv, dv);
                    }
                    None => {
                        if addr.base == Reg::Esp || addr.base == Reg::Ebp {
                            return; // unknown frame offset: no constraint
                        }
                        let p = self.read(i, Location::Reg(addr.base));
                        let (root, off) = self.resolve_alias(&p);
                        let field = root
                            .push(Label::Load)
                            .push(Label::sigma(8 * size as u16, off + addr.disp));
                        self.cs.add_sub(field, dv);
                    }
                }
            }
            Inst::Store { addr, src, size } => {
                let rv = self.read_operand(i, &src);
                match self.frame.resolve(i, &addr) {
                    Some(Loc32(s)) => {
                        if let Some(rv) = rv {
                            let dv =
                                self.def_var(Location::Slot(Loc32(s)), DefSite::Inst(i));
                            self.cs.add_sub(rv, dv);
                        }
                    }
                    None => {
                        if addr.base == Reg::Esp || addr.base == Reg::Ebp {
                            return;
                        }
                        let p = self.read(i, Location::Reg(addr.base));
                        let (root, off) = self.resolve_alias(&p);
                        let field = root
                            .push(Label::Store)
                            .push(Label::sigma(8 * size as u16, off + addr.disp));
                        if let Some(rv) = rv {
                            self.cs.add_sub(rv, field);
                        } else {
                            // Storing a constant still writes the field.
                            self.cs.add_var_decl(field);
                        }
                    }
                }
            }
            Inst::Lea { dst, addr } => {
                let dv = self.def_var(Location::Reg(dst), DefSite::Inst(i));
                match self.frame.resolve(i, &addr) {
                    Some(Loc32(s)) => {
                        // Address of a local: dst is a pointer to the
                        // (flow-insensitive) slot variable.
                        let slot = self.def_var(Location::Slot(Loc32(s)), DefSite::Entry);
                        self.cs.add_sub(
                            slot.clone(),
                            dv.clone().push(Label::Load).push(Label::sigma(32, 0)),
                        );
                        self.cs
                            .add_sub(dv.push(Label::Store).push(Label::sigma(32, 0)), slot);
                    }
                    None => {
                        // Address of a field: offset alias of the base.
                        let p = self.read(i, Location::Reg(addr.base));
                        let (root, off) = self.resolve_alias(&p);
                        self.alias.insert(dv.base(), (root, off + addr.disp));
                    }
                }
            }
            Inst::Push(src) => {
                if let Some(Loc32(s)) = self.frame.push_slot(i) {
                    if let Some(rv) = self.read_operand(i, &src) {
                        let dv = self.def_var(Location::Slot(Loc32(s)), DefSite::Inst(i));
                        let (root, off) = self.resolve_alias(&rv);
                        self.alias.insert(dv.base(), (root, off));
                        self.cs.add_sub(rv, dv);
                    }
                }
            }
            Inst::Pop(dst) => {
                if dst == Reg::Esp || dst == Reg::Ebp {
                    return;
                }
                if let Some(slot) = self.frame.pop_slot(i) {
                    let rv = self.read(i, Location::Slot(slot));
                    let dv = self.def_var(Location::Reg(dst), DefSite::Inst(i));
                    self.cs.add_sub(rv, dv);
                }
            }
            Inst::Bin { op, dst, src } => {
                if dst == Reg::Esp || dst == Reg::Ebp {
                    return; // stack adjustment, handled by FrameInfo
                }
                self.emit_bin(i, op, dst, &src);
            }
            Inst::Cmp { .. } | Inst::Test { .. } => {
                // Flag-only: constraints discarded (§A.5.2).
            }
            Inst::Call(kind) => self.emit_call(i, &kind),
            Inst::Ret => {
                if summary.has_out {
                    let rv = self.read(i, Location::Reg(Reg::Eax));
                    let out = DerivedVar::new(self.proc_var())
                        .push(Label::Out(Loc::reg("eax")));
                    self.cs.add_sub(rv, out);
                }
            }
            Inst::Jmp(_) | Inst::Jcc { .. } | Inst::Nop => {}
        }
    }

    fn emit_bin(&mut self, i: usize, op: BinOp, dst: Reg, src: &Operand) {
        let dv = self.def_var(Location::Reg(dst), DefSite::Inst(i));
        match (op, src) {
            // xor r, r: a semi-syntactic zero (§2.1) — no constraints.
            (BinOp::Xor, Operand::Reg(s)) if *s == dst => {}
            // Alignment masks and tag bits preserve the value's type
            // (bit-stealing, §2.6 / A.5.2).
            (BinOp::And, Operand::Imm(k)) if is_alignment_mask(*k) => {
                let rv = self.read(i, Location::Reg(dst));
                let (root, off) = self.resolve_alias(&rv);
                self.alias.insert(dv.base(), (root, off));
                self.cs.add_sub(rv, dv);
            }
            (BinOp::Or, Operand::Imm(k)) if (1..=3).contains(k) => {
                let rv = self.read(i, Location::Reg(dst));
                let (root, off) = self.resolve_alias(&rv);
                self.alias.insert(dv.base(), (root, off));
                self.cs.add_sub(rv, dv);
            }
            // Constant add/sub: fold the offset (the `.+n` tracking of
            // A.2) and classify via an additive constraint whose second
            // operand is a known integer.
            (BinOp::Add | BinOp::Sub, Operand::Imm(k)) => {
                let rv = self.read(i, Location::Reg(dst));
                let (root, off) = self.resolve_alias(&rv);
                let delta = if op == BinOp::Add { *k as i32 } else { -(*k as i32) };
                self.alias.insert(dv.base(), (root, off + delta));
                let int_const = DerivedVar::constant("int32");
                self.cs.add_addsub(AddSubConstraint {
                    kind: if op == BinOp::Add {
                        AddSubKind::Add
                    } else {
                        AddSubKind::Sub
                    },
                    x: rv,
                    y: int_const,
                    z: dv,
                });
            }
            (BinOp::Add | BinOp::Sub, Operand::Reg(s)) => {
                let rx = self.read(i, Location::Reg(dst));
                let ry = self.read(i, Location::Reg(*s));
                self.cs.add_addsub(AddSubConstraint {
                    kind: if op == BinOp::Add {
                        AddSubKind::Add
                    } else {
                        AddSubKind::Sub
                    },
                    x: rx,
                    y: ry,
                    z: dv,
                });
            }
            // Remaining bit manipulation: integral results (A.5.2).
            _ => {
                self.cs.add_sub(dv, DerivedVar::constant("int32"));
            }
        }
    }

    fn emit_call(&mut self, i: usize, kind: &CallKind) {
        let (callee_name, model_ins, has_out, target) = match kind {
            CallKind::Direct(id) => {
                let callee = &self.mir.funcs[id.0];
                let s = &self.summaries[id.0];
                (
                    callee.name.clone(),
                    s.ins.clone(),
                    s.has_out,
                    CallTarget::Internal(id.0),
                )
            }
            CallKind::External(name) => {
                let sym = Symbol::intern(name);
                match self.externals.get(&sym) {
                    Some(m) => (name.clone(), m.ins.clone(), m.has_out, CallTarget::External(sym)),
                    None => return, // unknown external: no constraints
                }
            }
        };
        let tag = format!("{}_{i}", self.f.name);
        let callee_var = BaseVar::var(&format!("{callee_name}@{tag}"));
        let esp = self.frame.esp_delta[i];
        for loc in &model_ins {
            let formal = DerivedVar::new(callee_var).push(Label::In(*loc));
            match loc {
                Loc::Stack(k) => {
                    let Some(d) = esp else { continue };
                    let slot = Loc32(d + *k as i32);
                    let rv = self.read(i, Location::Slot(slot));
                    self.cs.add_sub(rv, formal);
                }
                Loc::Reg(r) => {
                    if let Some(&reg) = self.regs.get(r) {
                        let rv = self.read(i, Location::Reg(reg));
                        self.cs.add_sub(rv, formal);
                    }
                }
            }
        }
        if has_out {
            let out = DerivedVar::new(callee_var).push(Label::Out(Loc::reg("eax")));
            let dv = self.def_var(Location::Reg(Reg::Eax), DefSite::Inst(i));
            self.cs.add_sub(out, dv);
        }
        self.callsites.push(Callsite { callee: target, tag });
    }
}

/// True for `and` masks that clear a few low bits (pointer alignment).
fn is_alignment_mask(k: i64) -> bool {
    let k = k as i32;
    matches!(k, -2 | -4 | -8 | -16)
}

#[cfg(test)]
mod tests {
    use super::*;
    use retypd_core::{Lattice, Solver};
    use retypd_mir::isa::{Cond, Mem};

    /// Builds the Figure 2 `close_last` listing.
    ///
    /// ```text
    /// close_last:
    ///   mov edx, [esp+4]        ; list
    /// loc_8048402 (3):
    ///   mov eax, [edx]          ; list->next
    ///   test eax, eax
    ///   jnz loc_8048400 (2)     ; edx := eax; loop
    ///   mov eax, [edx+4]        ; list->handle
    ///   mov [esp+4], eax        ; stack-slot reuse!
    ///   call close              ; tail call (modeled as call+ret)
    ///   ret
    /// ```
    fn close_last() -> MirProgram {
        let mut p = MirProgram::new();
        p.add(Function::new(
            "close_last",
            vec![
                // 0: mov edx, [esp+4]
                Inst::Load {
                    dst: Reg::Edx,
                    addr: Mem::new(Reg::Esp, 4),
                    size: 4,
                },
                // 1: jmp 3
                Inst::Jmp(3),
                // 2: mov edx, eax
                Inst::Mov {
                    dst: Reg::Edx,
                    src: Operand::Reg(Reg::Eax),
                },
                // 3: mov eax, [edx]
                Inst::Load {
                    dst: Reg::Eax,
                    addr: Mem::new(Reg::Edx, 0),
                    size: 4,
                },
                // 4: test eax, eax
                Inst::Test {
                    a: Reg::Eax,
                    b: Reg::Eax,
                },
                // 5: jnz 2
                Inst::Jcc {
                    cond: Cond::Ne,
                    target: 2,
                },
                // 6: mov eax, [edx+4]
                Inst::Load {
                    dst: Reg::Eax,
                    addr: Mem::new(Reg::Edx, 4),
                    size: 4,
                },
                // 7: mov [esp+4], eax  (reuses the argument slot)
                Inst::Store {
                    addr: Mem::new(Reg::Esp, 4),
                    src: Operand::Reg(Reg::Eax),
                    size: 4,
                },
                // 8: push eax (argument to close)
                Inst::Push(Operand::Reg(Reg::Eax)),
                // 9: call close
                Inst::Call(CallKind::External("close".into())),
                // 10: add esp, 4
                Inst::Bin {
                    op: BinOp::Add,
                    dst: Reg::Esp,
                    src: Operand::Imm(4),
                },
                // 11: ret
                Inst::Ret,
            ],
        ));
        p
    }

    #[test]
    fn close_last_interface() {
        let mir = close_last();
        let prog = generate(&mir);
        let proc = &prog.procs[0];
        assert_eq!(proc.name.as_str(), "close_last");
        assert_eq!(proc.callsites.len(), 1);
        let printed = proc.constraints.to_string();
        // The argument is read through in_stack0 and dereferenced.
        assert!(printed.contains("close_last.in_stack0"), "{printed}");
        assert!(printed.contains("load.σ32@0"), "{printed}");
        assert!(printed.contains("load.σ32@4"), "{printed}");
        // The handle flows to close's first argument.
        assert!(printed.contains("close@close_last_9.in_stack0"), "{printed}");
    }

    #[test]
    fn close_last_end_to_end_types() {
        let mir = close_last();
        let prog = generate(&mir);
        let lattice = Lattice::c_types();
        let result = Solver::new(&lattice).infer(&prog);
        let r = &result.procs[&Symbol::intern("close_last")];
        let sk = r.sketch.as_ref().expect("sketch");
        let w = |s: &str| {
            retypd_core::parse::parse_derived_var(&format!("x.{s}"))
                .unwrap()
                .path()
                .to_vec()
        };
        // Recursive list structure: next pointer at offset 0.
        assert!(
            sk.contains_word(&w("in_stack0.load.σ32@0.load.σ32@0")),
            "sketch:\n{}",
            sk.render(&lattice)
        );
        // The handle field reaches #FileDescriptor.
        let handle = sk
            .walk(&w("in_stack0.load.σ32@4"))
            .expect("handle field");
        let (_, upper) = sk.interval(handle);
        assert_eq!(lattice.name(upper), "#FileDescriptor");
        // Return type is tagged #SuccessZ.
        let out = sk.walk(&w("out_eax")).expect("output");
        let (low, _) = sk.interval(out);
        assert!(
            lattice.leq(lattice.element("#SuccessZ").unwrap(), low)
                || low == lattice.element("#SuccessZ").unwrap(),
            "lower bound {}",
            lattice.name(low)
        );
    }

    #[test]
    fn malloc_callsites_stay_polymorphic() {
        // f() { int* p = malloc(4); *p int-used; char** q = malloc(4); }
        let mut mir = MirProgram::new();
        mir.add(Function::new(
            "f",
            vec![
                // 0: push 4; 1: call malloc; 2: add esp,4
                Inst::Push(Operand::Imm(4)),
                Inst::Call(CallKind::External("malloc".into())),
                Inst::Bin {
                    op: BinOp::Add,
                    dst: Reg::Esp,
                    src: Operand::Imm(4),
                },
                // 3: mov [eax], 7 (int store)
                Inst::Store {
                    addr: Mem::new(Reg::Eax, 0),
                    src: Operand::Imm(7),
                    size: 4,
                },
                // 4: mov ebx, eax (keep first pointer)
                Inst::Mov {
                    dst: Reg::Ebx,
                    src: Operand::Reg(Reg::Eax),
                },
                // 5: push 4; 6: call malloc; 7: add esp,4
                Inst::Push(Operand::Imm(4)),
                Inst::Call(CallKind::External("malloc".into())),
                Inst::Bin {
                    op: BinOp::Add,
                    dst: Reg::Esp,
                    src: Operand::Imm(4),
                },
                // 8: mov ecx, [eax] ; load through second pointer
                Inst::Load {
                    dst: Reg::Ecx,
                    addr: Mem::new(Reg::Eax, 0),
                    size: 4,
                },
                // 9: mov edx, [ecx+8] ; second pointee is itself a pointer
                Inst::Load {
                    dst: Reg::Edx,
                    addr: Mem::new(Reg::Ecx, 8),
                    size: 4,
                },
                Inst::Ret,
            ],
        ));
        let prog = generate(&mir);
        let proc = &prog.procs[0];
        assert_eq!(proc.callsites.len(), 2);
        assert_ne!(proc.callsites[0].tag, proc.callsites[1].tag);
        // Solve: the two malloc returns must not share a pointee shape.
        let lattice = Lattice::c_types();
        let result = Solver::new(&lattice).infer(&prog);
        assert!(result.procs.contains_key(&Symbol::intern("f")));
    }

    #[test]
    fn stack_slot_reuse_no_cross_talk() {
        // Slot [esp-4] first holds an int-ish value, later a pointer; the
        // reaching-defs naming must keep the two lives apart.
        let mut mir = MirProgram::new();
        mir.add(Function::new(
            "g",
            vec![
                // 0: sub esp, 4
                Inst::Bin {
                    op: BinOp::Sub,
                    dst: Reg::Esp,
                    src: Operand::Imm(4),
                },
                // 1: mov [esp], eax   (first life)
                Inst::Store {
                    addr: Mem::new(Reg::Esp, 0),
                    src: Operand::Reg(Reg::Eax),
                    size: 4,
                },
                // 2: mov ebx, [esp]
                Inst::Load {
                    dst: Reg::Ebx,
                    addr: Mem::new(Reg::Esp, 0),
                    size: 4,
                },
                // 3: mov [esp], ecx   (second life, unrelated)
                Inst::Store {
                    addr: Mem::new(Reg::Esp, 0),
                    src: Operand::Reg(Reg::Ecx),
                    size: 4,
                },
                // 4: mov edx, [esp]
                Inst::Load {
                    dst: Reg::Edx,
                    addr: Mem::new(Reg::Esp, 0),
                    size: 4,
                },
                // 5: add esp,4 ; 6: ret
                Inst::Bin {
                    op: BinOp::Add,
                    dst: Reg::Esp,
                    src: Operand::Imm(4),
                },
                Inst::Ret,
            ],
        ));
        let prog = generate(&mir);
        let printed = prog.procs[0].constraints.to_string();
        // Two distinct slot variables appear (suffix _1 and _3 defs).
        assert!(printed.contains("sm4_1"), "{printed}");
        assert!(printed.contains("sm4_3"), "{printed}");
    }

    #[test]
    fn push_ecx_false_positive_param_is_tolerated() {
        // §2.5: `push ecx` reserves a slot; ecx is (deliberately) seen as a
        // register parameter, which a subtyping system tolerates.
        let mut mir = MirProgram::new();
        mir.add(Function::new(
            "h",
            vec![
                Inst::Push(Operand::Reg(Reg::Ecx)),
                Inst::Bin {
                    op: BinOp::Add,
                    dst: Reg::Esp,
                    src: Operand::Imm(4),
                },
                Inst::Ret,
            ],
        ));
        let f = &mir.funcs[0];
        let cfg = Cfg::build(f);
        let frame = FrameInfo::compute(f, &cfg);
        let rd = ReachingDefs::compute(f, &cfg, &frame);
        let s = recover_interface(f, &frame, &rd);
        assert!(s.ins.iter().any(|l| matches!(l, Loc::Reg(r) if r.as_str() == "ecx")));
    }

    #[test]
    fn callee_saved_prologue_is_not_a_param() {
        let mut mir = MirProgram::new();
        mir.add(Function::new(
            "k",
            vec![
                Inst::Push(Operand::Reg(Reg::Ebx)),
                Inst::Mov {
                    dst: Reg::Ebx,
                    src: Operand::Imm(1),
                },
                Inst::Pop(Reg::Ebx),
                Inst::Ret,
            ],
        ));
        let f = &mir.funcs[0];
        let cfg = Cfg::build(f);
        let frame = FrameInfo::compute(f, &cfg);
        let rd = ReachingDefs::compute(f, &cfg, &frame);
        let s = recover_interface(f, &frame, &rd);
        assert!(s.ins.is_empty(), "{:?}", s.ins);
    }

    #[test]
    fn field_offsets_fold_through_lea() {
        // lea ebx, [eax+8]; mov ecx, [ebx+4] ⇒ eax.load.σ32@12.
        let mut mir = MirProgram::new();
        mir.add(Function::new(
            "m",
            vec![
                Inst::Lea {
                    dst: Reg::Ebx,
                    addr: Mem::new(Reg::Eax, 8),
                },
                Inst::Load {
                    dst: Reg::Ecx,
                    addr: Mem::new(Reg::Ebx, 4),
                    size: 4,
                },
                Inst::Ret,
            ],
        ));
        let prog = generate(&mir);
        let printed = prog.procs[0].constraints.to_string();
        assert!(printed.contains("load.σ32@12"), "{printed}");
    }
}
