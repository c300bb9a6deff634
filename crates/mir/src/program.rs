//! Programs and procedures.

use std::collections::BTreeMap;
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::isa::Inst;

/// Index of a function within a [`Program`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub struct FuncId(pub usize);

/// Target of a call instruction.
#[derive(Clone, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum CallKind {
    /// Direct call to a function in the same program.
    Direct(FuncId),
    /// Call to an external (named) function, e.g. `malloc`.
    External(String),
}

impl fmt::Display for CallKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CallKind::Direct(id) => write!(f, "f{}", id.0),
            CallKind::External(n) => f.write_str(n),
        }
    }
}

/// One procedure: a name and a flat instruction list (branch targets are
/// instruction indices).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Function {
    /// Symbol name.
    pub name: String,
    /// Instruction list.
    pub insts: Vec<Inst>,
}

impl Function {
    /// Creates a function.
    pub fn new(name: impl Into<String>, insts: Vec<Inst>) -> Function {
        Function {
            name: name.into(),
            insts,
        }
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// True if the function has no instructions.
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// All direct callees.
    pub fn callees(&self) -> Vec<FuncId> {
        self.insts
            .iter()
            .filter_map(|i| match i {
                Inst::Call(CallKind::Direct(id)) => Some(*id),
                _ => None,
            })
            .collect()
    }
}

impl fmt::Display for Function {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}:", self.name)?;
        for (i, inst) in self.insts.iter().enumerate() {
            writeln!(f, "  L{i}: {inst}")?;
        }
        Ok(())
    }
}

/// A whole program: functions plus named global variables (address → name).
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct Program {
    /// All functions; [`FuncId`] indexes into this.
    pub funcs: Vec<Function>,
    /// Named global data addresses (used by the constraint generator's
    /// minimal points-to tracking for the data section).
    pub globals: BTreeMap<u32, String>,
}

impl Program {
    /// Creates an empty program.
    pub fn new() -> Program {
        Program::default()
    }

    /// Adds a function, returning its id.
    pub fn add(&mut self, f: Function) -> FuncId {
        self.funcs.push(f);
        FuncId(self.funcs.len() - 1)
    }

    /// Total instruction count (the paper's program-size measure).
    pub fn instruction_count(&self) -> usize {
        self.funcs.iter().map(|f| f.len()).sum()
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for func in &self.funcs {
            writeln!(f, "{func}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{Operand, Reg};

    #[test]
    fn program_roundtrip() {
        let mut p = Program::new();
        let id = p.add(Function::new(
            "main",
            vec![
                Inst::Mov {
                    dst: Reg::Eax,
                    src: Operand::Imm(0),
                },
                Inst::Ret,
            ],
        ));
        assert_eq!(id, FuncId(0));
        assert_eq!(p.instruction_count(), 2);
        let text = p.to_string();
        assert!(text.contains("mov eax, 0x0"));
    }

    #[test]
    fn callees_listed() {
        let mut p = Program::new();
        let callee = p.add(Function::new("leaf", vec![Inst::Ret]));
        let caller = Function::new(
            "main",
            vec![
                Inst::Call(CallKind::Direct(callee)),
                Inst::Call(CallKind::External("malloc".into())),
                Inst::Ret,
            ],
        );
        assert_eq!(caller.callees(), vec![callee]);
        p.add(caller);
    }
}
