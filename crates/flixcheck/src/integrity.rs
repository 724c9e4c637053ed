//! Deep integrity auditing for index and storage structures.
//!
//! Every index structure in the workspace (PPO, HOPI, APEX, the FliX meta
//! documents, and the page store) implements [`IntegrityCheck`]: a full
//! self-audit of the structure's invariants, returning either a report of
//! what was checked or a list of concrete violations. The checks are meant
//! to be cheap enough to run in tests and behind `repro --check`, and
//! precise enough that a corrupted structure (a swapped interval bound, a
//! dropped 2-hop entry, a damaged page header) is pinpointed rather than
//! surfacing later as a wrong query result.

use std::error::Error;
use std::fmt;

/// A structure that can audit its own invariants.
pub trait IntegrityCheck {
    /// Verifies every documented invariant of the structure.
    ///
    /// Returns a report of the checks performed, or an error carrying
    /// one entry per violated invariant.
    fn integrity_check(&self) -> Result<IntegrityReport, IntegrityError>;
}

/// One violated invariant, with enough detail to locate the corruption.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntegrityViolation {
    /// Short name of the invariant that failed.
    pub invariant: String,
    /// What was observed, with the offending ids/offsets.
    pub detail: String,
}

impl fmt::Display for IntegrityViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.invariant, self.detail)
    }
}

/// Successful audit summary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntegrityReport {
    /// Name of the audited structure (e.g. `"PpoIndex"`).
    pub structure: String,
    /// Number of invariants verified.
    pub invariants_checked: usize,
}

impl fmt::Display for IntegrityReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} invariants hold",
            self.structure, self.invariants_checked
        )
    }
}

/// Failed audit: one or more invariants do not hold.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntegrityError {
    /// Name of the audited structure.
    pub structure: String,
    /// Every violated invariant found (the audit does not stop early).
    pub violations: Vec<IntegrityViolation>,
}

impl fmt::Display for IntegrityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} integrity violation(s)",
            self.structure,
            self.violations.len()
        )?;
        for v in &self.violations {
            write!(f, "\n  - {v}")?;
        }
        Ok(())
    }
}

impl Error for IntegrityError {}

/// Incremental builder for an audit: register checks, then [`finish`].
///
/// [`finish`]: IntegrityChecker::finish
///
/// ```
/// use flixcheck::IntegrityChecker;
/// let mut audit = IntegrityChecker::new("Demo");
/// audit.check("lengths agree", 2 == 2, || "unreachable".to_string());
/// assert!(audit.finish().is_ok());
/// ```
#[derive(Debug)]
pub struct IntegrityChecker {
    structure: String,
    checked: usize,
    violations: Vec<IntegrityViolation>,
}

impl IntegrityChecker {
    /// Starts an audit of the named structure.
    pub fn new(structure: &str) -> Self {
        Self {
            structure: structure.to_string(),
            checked: 0,
            violations: Vec::new(),
        }
    }

    /// Records one invariant check; `detail` is only evaluated on failure.
    pub fn check(&mut self, invariant: &str, holds: bool, detail: impl FnOnce() -> String) {
        self.checked += 1;
        if !holds {
            self.violations.push(IntegrityViolation {
                invariant: invariant.to_string(),
                detail: detail(),
            });
        }
    }

    /// Records a violation directly (for checks with multiple findings).
    pub fn violation(&mut self, invariant: &str, detail: String) {
        self.violations.push(IntegrityViolation {
            invariant: invariant.to_string(),
            detail,
        });
    }

    /// Number of violations recorded so far.
    pub fn violation_count(&self) -> usize {
        self.violations.len()
    }

    /// Completes the audit.
    pub fn finish(self) -> Result<IntegrityReport, IntegrityError> {
        if self.violations.is_empty() {
            Ok(IntegrityReport {
                structure: self.structure,
                invariants_checked: self.checked,
            })
        } else {
            Err(IntegrityError {
                structure: self.structure,
                violations: self.violations,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_audit_reports_checked_count() {
        let mut audit = IntegrityChecker::new("X");
        audit.check("a", true, || unreachable!());
        audit.check("b", true, || unreachable!());
        let report = audit.finish().expect("clean");
        assert_eq!(report.invariants_checked, 2);
        assert_eq!(report.to_string(), "X: 2 invariants hold");
    }

    #[test]
    fn failed_audit_collects_all_violations() {
        let mut audit = IntegrityChecker::new("X");
        audit.check("a", false, || "first".to_string());
        audit.check("b", true, || unreachable!());
        audit.violation("c", "second".to_string());
        let err = audit.finish().expect_err("violations present");
        assert_eq!(err.violations.len(), 2);
        let text = err.to_string();
        assert!(text.contains("a: first"));
        assert!(text.contains("c: second"));
    }

    #[test]
    fn detail_closure_lazy() {
        let mut audit = IntegrityChecker::new("X");
        audit.check("ok", true, || panic!("must not evaluate"));
        assert!(audit.finish().is_ok());
    }
}
