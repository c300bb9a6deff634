//! Modules as text: the byte streams every cache key hashes, beside the
//! call structure the scheduler reads.
//!
//! A module arrives (over the wire, say) as text: each procedure's
//! constraint text, each external's scheme parts, each global's display
//! form. The scheme cache is keyed by exactly that text
//! ([`crate::fingerprint::scc_fingerprint_parts`],
//! [`crate::fingerprint::scheme_fp_parts`]), so a solve whose every SCC
//! hits never needs the parsed constraints. [`ModuleText`] therefore keeps
//! the text as it arrived and a *structure* — procedure names, resolved
//! callsites, globals and external subjects — and
//! [`crate::AnalysisDriver::solve_text`] parses the constraint text only
//! at a solve's first miss.

use retypd_core::parse::parse_constraint_set;
use retypd_core::{ConstraintSet, Program, Symbol, TypeScheme};

use crate::fingerprint::global_text;
use crate::ModuleJob;

/// One external function's scheme as text: the parts
/// [`crate::fingerprint::scheme_fp_parts`] hashes.
#[derive(Clone, Debug)]
pub struct ExternalText {
    /// The name the scheme is registered under.
    pub name: Symbol,
    /// The scheme's subject in display form.
    pub subject: String,
    /// Quantified variable names (ascending in canonical text).
    pub existentials: Vec<String>,
    /// Constraint text.
    pub constraints: String,
}

/// A program's text: every part a cache key hashes apart from names and
/// callsites, which the program's structure holds.
#[derive(Clone, Debug, Default)]
pub struct ProgramText {
    /// Each procedure's constraint text, in program order.
    pub procs: Vec<String>,
    /// Each external's scheme text.
    pub externals: Vec<ExternalText>,
    /// Each global's display form (`g`, `$g`).
    pub globals: Vec<String>,
}

impl ProgramText {
    /// The canonical text of a parsed program: what the wire carries for
    /// it, and what [`crate::fingerprint::scc_fingerprint`] renders. Each
    /// constraint set renders into one reused buffer and is copied out at
    /// its final length.
    pub fn render(program: &Program) -> ProgramText {
        let mut buf = String::new();
        let mut text = |cs: &ConstraintSet| {
            buf.clear();
            let _ = std::fmt::Write::write_fmt(&mut buf, format_args!("{cs}"));
            buf.as_str().to_owned()
        };
        ProgramText {
            procs: program.procs.iter().map(|p| text(&p.constraints)).collect(),
            externals: program
                .externals
                .iter()
                .map(|(&name, s)| ExternalText {
                    name,
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

    /// Parses the procedure and external constraint text onto
    /// `structure`, whose constraint sets it replaces.
    ///
    /// # Errors
    ///
    /// The first text that does not parse, named by its procedure or
    /// external.
    pub(crate) fn parse_onto(&self, mut structure: Program) -> Result<Program, String> {
        for (proc, text) in structure.procs.iter_mut().zip(&self.procs) {
            proc.constraints =
                parse_constraint_set(text).map_err(|e| format!("procedure {}: {e}", proc.name))?;
        }
        for e in &self.externals {
            let constraints = parse_constraint_set(&e.constraints)
                .map_err(|err| format!("external {}: {err}", e.name))?;
            let shell = &structure.externals[&e.name];
            let scheme =
                TypeScheme::new(shell.subject(), shell.existentials().clone(), constraints);
            structure.externals.insert(e.name, scheme);
        }
        Ok(structure)
    }
}

/// A module as text: its name, its structure and its [`ProgramText`].
///
/// The structure is a [`Program`] whose procedures carry their names and
/// resolved callsites but empty constraint sets, whose globals are
/// parsed, and whose externals carry their subjects and existentials but
/// empty constraint sets. It is all the scheduler and the cache keys read
/// besides the text.
#[derive(Clone, Debug)]
pub struct ModuleText {
    name: String,
    structure: Program,
    text: ProgramText,
}

impl ModuleText {
    /// Pairs a structure with its text.
    ///
    /// # Panics
    ///
    /// When the text does not hold one constraint text per procedure, or
    /// names an external the structure lacks: both come from one source,
    /// so a mismatch is the caller's bug.
    pub fn new(name: String, structure: Program, text: ProgramText) -> ModuleText {
        assert_eq!(
            structure.procs.len(),
            text.procs.len(),
            "module {name:?}: one constraint text per procedure"
        );
        assert!(
            text.externals
                .iter()
                .all(|e| structure.externals.contains_key(&e.name)),
            "module {name:?}: every external's text has a structure"
        );
        ModuleText {
            name,
            structure,
            text,
        }
    }

    /// Module name (reporting only).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The call structure.
    pub fn structure(&self) -> &Program {
        &self.structure
    }

    /// The text as it arrived.
    pub fn text(&self) -> &ProgramText {
        &self.text
    }

    /// Parses the whole module into a [`ModuleJob`].
    ///
    /// # Errors
    ///
    /// The first procedure or external constraint text that does not
    /// parse.
    pub fn into_job(self) -> Result<ModuleJob, String> {
        Ok(ModuleJob {
            program: self.text.parse_onto(self.structure)?,
            name: self.name,
        })
    }
}
