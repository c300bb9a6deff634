//! Modules as text: the one form a module arrives in, the byte streams
//! every cache key hashes, and the call structure the scheduler reads.
//!
//! Retypd's input is one constraint set per procedure plus the externals'
//! schemes (§3, Appendix F). A [`TextModule`] holds exactly that, as text:
//! each procedure's name, constraint text and callsites (callees by
//! *name*), each external's scheme parts, and each global's display form.
//! It is the shape `retypd-serve` carries on the wire (re-exported there
//! as `WireModule`), and [`TextModule::from_job`] is the one renderer of a
//! parsed program into it, which [`crate::AnalysisDriver::solve_in`] uses
//! too.
//!
//! The scheme cache is keyed by the text as it arrived
//! ([`crate::fingerprint::scc_fingerprint_parts`],
//! [`crate::fingerprint::scheme_fp_parts`]), so a solve whose every SCC
//! hits never needs the parsed constraints. [`ModuleText`] therefore pairs
//! a module with its checked *structure* — procedure names, resolved
//! callsites, globals and external subjects — and
//! [`crate::AnalysisDriver::solve_text`] parses the constraint text only at
//! a solve's first miss.

use std::collections::{BTreeMap, BTreeSet};

use retypd_core::parse::{parse_constraint_set, parse_derived_var};
use retypd_core::solver::{CallTarget, Callsite, Procedure};
use retypd_core::{ConstraintSet, Program, Symbol, TypeScheme};

use crate::fingerprint::{global_text, scheme_fp_parts, Fnv64};
use crate::ModuleJob;

/// A module in text form: a named program in canonical constraint text.
#[derive(Clone, Debug)]
pub struct TextModule {
    /// Module name (reporting only; excluded from the fingerprint).
    pub name: String,
    /// Procedures in program order.
    pub procs: Vec<TextProc>,
    /// External-function schemes.
    pub externals: Vec<TextScheme>,
    /// Global variables (never renamed during instantiation), in display
    /// form (`g`, `$g`).
    pub globals: Vec<String>,
}

/// One procedure in text form.
#[derive(Clone, Debug)]
pub struct TextProc {
    /// Procedure name.
    pub name: String,
    /// Canonical constraint text (`ConstraintSet` display form).
    pub constraints: String,
    /// Callsites in body order.
    pub callsites: Vec<TextCallsite>,
}

/// One callsite in text form. Internal callees are referenced by *name*
/// (indices are an in-memory detail).
#[derive(Clone, Debug)]
pub struct TextCallsite {
    /// True if the callee is an external function.
    pub external: bool,
    /// Callee name.
    pub callee: String,
    /// Instantiation tag.
    pub tag: String,
}

/// A type scheme in text form (`TypeScheme` decomposed into its
/// constructor arguments, so reconstruction is exact): the parts
/// [`crate::fingerprint::scheme_fp_parts`] hashes.
#[derive(Clone, Debug)]
pub struct TextScheme {
    /// The name this scheme is registered under.
    pub name: String,
    /// The scheme's subject variable.
    pub subject: String,
    /// Quantified internal variable names (ascending in canonical text).
    pub existentials: Vec<String>,
    /// Canonical constraint text.
    pub constraints: String,
}

impl TextModule {
    /// Renders a [`ModuleJob`] into its canonical text: the text the wire
    /// carries for it and [`crate::fingerprint::scc_fingerprint`] renders.
    /// Every constraint set renders into one reused buffer and is copied
    /// out at its final length.
    pub fn from_job(job: &ModuleJob) -> TextModule {
        TextModule::render(job.name.clone(), &job.program)
    }

    /// [`TextModule::from_job`] over a program and a module name.
    pub(crate) fn render(name: String, program: &Program) -> TextModule {
        let mut buf = String::new();
        let mut text = |cs: &ConstraintSet| {
            buf.clear();
            let _ = std::fmt::Write::write_fmt(&mut buf, format_args!("{cs}"));
            buf.as_str().to_owned()
        };
        TextModule {
            name,
            procs: program
                .procs
                .iter()
                .map(|p| TextProc {
                    name: p.name.as_str().to_owned(),
                    constraints: text(&p.constraints),
                    callsites: p
                        .callsites
                        .iter()
                        .map(|cs| TextCallsite {
                            external: matches!(cs.callee, CallTarget::External(_)),
                            callee: cs.callee_name(program).as_str().to_owned(),
                            tag: cs.tag.clone(),
                        })
                        .collect(),
                })
                .collect(),
            externals: program
                .externals
                .iter()
                .map(|(name, s)| TextScheme {
                    name: name.as_str().to_owned(),
                    subject: s.subject().to_string(),
                    existentials: s
                        .existentials()
                        .iter()
                        .map(|x| x.as_str().to_owned())
                        .collect(),
                    constraints: text(s.constraints()),
                })
                .collect(),
            globals: program
                .globals
                .iter()
                .map(|&g| global_text(g).into_owned())
                .collect(),
        }
    }

    /// Reconstructs the [`ModuleJob`] this text describes: the structure,
    /// then the constraint text. The result is solver-identical to the job
    /// that produced it: constraint text, `VAR` declarations, and additive
    /// constraints all round-trip.
    ///
    /// # Errors
    ///
    /// Fails as [`TextModule::structure`] does, then on the first
    /// procedure or external constraint text that does not parse.
    pub fn to_job(&self) -> Result<ModuleJob, String> {
        Ok(ModuleJob {
            name: self.name.clone(),
            program: self.parse_onto(self.structure()?)?,
        })
    }

    /// The module beside its checked [`TextModule::structure`]: what
    /// [`crate::AnalysisDriver::solve_text`] solves. Nothing is parsed but
    /// names and nothing is copied.
    ///
    /// # Errors
    ///
    /// Fails as [`TextModule::structure`] does.
    pub fn into_text(self) -> Result<ModuleText, String> {
        let structure = self.structure()?;
        Ok(ModuleText {
            module: self,
            structure,
        })
    }

    /// The structural half of [`TextModule::to_job`]: procedure names with
    /// their callsites resolved, external subjects and existentials, and
    /// globals, every constraint set left empty. Serve checks this before
    /// admitting a module, and the gateway before forwarding a
    /// single-frame batch.
    ///
    /// # Errors
    ///
    /// Fails on a callsite referencing an unknown procedure, an external
    /// subject or a global that does not parse or carries labels.
    pub fn structure(&self) -> Result<Program, String> {
        let mut program = Program::new();
        // Procedure indices are positional, so resolve names first.
        let index_of: BTreeMap<&str, usize> = self
            .procs
            .iter()
            .enumerate()
            .map(|(i, p)| (p.name.as_str(), i))
            .collect();
        for p in &self.procs {
            let callsites =
                p.callsites
                    .iter()
                    .map(|cs| {
                        let callee = if cs.external {
                            CallTarget::External(Symbol::intern(&cs.callee))
                        } else {
                            CallTarget::Internal(*index_of.get(cs.callee.as_str()).ok_or_else(
                                || format!("{}: unknown callee {}", p.name, cs.callee),
                            )?)
                        };
                        Ok(Callsite {
                            callee,
                            tag: cs.tag.clone(),
                        })
                    })
                    .collect::<Result<Vec<_>, String>>()?;
            program.add_proc(Procedure {
                name: Symbol::intern(&p.name),
                constraints: ConstraintSet::new(),
                callsites,
            });
        }
        for e in &self.externals {
            let subject = parse_derived_var(&e.subject)
                .map_err(|err| format!("external {}: {err}", e.name))?;
            if !subject.path().is_empty() {
                return Err(format!("external {}: subject has labels", e.name));
            }
            let existentials: BTreeSet<Symbol> =
                e.existentials.iter().map(|x| Symbol::intern(x)).collect();
            program.externals.insert(
                Symbol::intern(&e.name),
                TypeScheme::new(subject.base(), existentials, ConstraintSet::new()),
            );
        }
        for g in &self.globals {
            let dv = parse_derived_var(g).map_err(|e| format!("global {g}: {e}"))?;
            if !dv.path().is_empty() {
                return Err(format!("global {g} has labels"));
            }
            program.globals.insert(dv.base());
        }
        Ok(program)
    }

    /// The module's content fingerprint, hashed from its strings as they
    /// are: nothing is parsed, interned or re-rendered. It covers the
    /// globals' text, each external's name and [`scheme_fp_parts`] over
    /// its subject, existentials and constraint text, and each procedure's
    /// name, constraint text and callsites, in order; the module name is
    /// not hashed. [`crate::fingerprint::program_fp`] is this over a
    /// program's rendering, so
    /// `TextModule::from_job(&job).fingerprint() == job.fingerprint()`.
    ///
    /// Text in any other rendering (reordered constraints, say)
    /// reconstructs to an equal job yet fingerprints differently, so it
    /// may route to another backend or shard than the canonical text:
    /// routing by text can cost warm affinity, never an answer. A module
    /// whose text does not parse still fingerprints; whoever solves it
    /// refuses it.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv64::new("program");
        h.write_u64(self.globals.len() as u64);
        for g in &self.globals {
            h.write_str(g);
        }
        h.write_u64(self.externals.len() as u64);
        for e in &self.externals {
            let existentials = e.existentials.iter().map(String::as_str);
            h.write_str(&e.name);
            h.write_u64(scheme_fp_parts(&e.subject, existentials, &e.constraints));
        }
        h.write_u64(self.procs.len() as u64);
        for p in &self.procs {
            h.write_str(&p.name);
            h.write_wide(p.constraints.as_bytes());
            h.write_u64(p.callsites.len() as u64);
            for cs in &p.callsites {
                h.write_str(&cs.tag);
                h.write_str(if cs.external { "external" } else { "internal" });
                h.write_str(&cs.callee);
            }
        }
        h.finish()
    }

    /// Parses the procedure and external constraint text onto
    /// `structure` (this module's [`TextModule::structure`]), whose
    /// constraint sets it replaces.
    ///
    /// # Errors
    ///
    /// The first text that does not parse, named by its procedure or
    /// external.
    pub(crate) fn parse_onto(&self, mut structure: Program) -> Result<Program, String> {
        for (proc, text) in structure.procs.iter_mut().zip(&self.procs) {
            proc.constraints = parse_constraint_set(&text.constraints)
                .map_err(|e| format!("procedure {}: {e}", proc.name))?;
        }
        for e in &self.externals {
            let constraints = parse_constraint_set(&e.constraints)
                .map_err(|err| format!("external {}: {err}", e.name))?;
            let name = Symbol::intern(&e.name);
            let shell = &structure.externals[&name];
            let scheme =
                TypeScheme::new(shell.subject(), shell.existentials().clone(), constraints);
            structure.externals.insert(name, scheme);
        }
        Ok(structure)
    }
}

/// A [`TextModule`] whose structure has been checked, beside that
/// structure: a [`Program`] whose procedures carry their names and
/// resolved callsites but empty constraint sets, whose globals are parsed,
/// and whose externals carry their subjects and existentials but empty
/// constraint sets. Built only by [`TextModule::into_text`], so the two
/// always agree.
#[derive(Clone, Debug)]
pub struct ModuleText {
    module: TextModule,
    structure: Program,
}

impl ModuleText {
    /// Module name (reporting only).
    pub fn name(&self) -> &str {
        &self.module.name
    }

    /// The module's text as it arrived.
    pub fn module(&self) -> &TextModule {
        &self.module
    }

    /// The call structure.
    pub fn structure(&self) -> &Program {
        &self.structure
    }
}
