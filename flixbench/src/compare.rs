//! `flixbench compare <a.json> <b.json>`: for every (workload, end-to-end
//! metric) pair, is `b` no worse than `a` by more than the metric's bound?

use crate::catalog::{Better, Metric, END_TO_END};
use crate::report::ParsedRun;

/// Counts that come from single-threaded phases and must repeat exactly
/// between two runs of the same commit on the same inputs.
pub const EXACT: [&str; 8] = [
    "index_mb",
    "stored_mb",
    "pee.pops_per_query",
    "pee.rows_per_result",
    "pagestore.pages_written",
    "pagestore.syncs",
    "pagestore.wal_bytes_per_commit",
    "pagestore.pages_replayed",
];

/// The verdict on one (workload, metric) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// No worse than the baseline by more than the bound.
    Ok,
    /// Worse than the baseline by more than the bound.
    Regressed,
    /// A side's own rounds disagree by more than the bound: the run cannot
    /// resolve a difference of that size, so nothing is claimed.
    Unresolved,
}

impl Verdict {
    /// Lower-case name, as printed.
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// By what share of the baseline `new` is worse (negative: better).
pub fn worsening(m: &Metric, base: f64, new: f64) -> f64 {
    if base == 0.0 {
        return if new == 0.0 { 0.0 } else { f64::INFINITY };
    }
    match m.better {
        Better::Lower => (new - base) / base,
        Better::Higher => (base - new) / base,
    }
}

/// Judges `new` against `base`; each is `(value, spread over rounds)`.
pub fn judge(m: &Metric, base: (f64, f64), new: (f64, f64)) -> Verdict {
    if base.1 > m.bound || new.1 > m.bound {
        Verdict::Unresolved
    } else if worsening(m, base.0, new.0) > m.bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// Compares two result files; returns the report and whether anything
/// regressed (or an input fingerprint or exact count differs).
pub fn compare(a: &[ParsedRun], b: &[ParsedRun]) -> (String, bool) {
    let mut out = String::new();
    let mut bad = false;
    for base in a {
        let Some(new) = b
            .iter()
            .find(|r| r.workload == base.workload && r.pass == base.pass)
        else {
            out.push_str(&format!(
                "{:<10} {:<9} missing from the second file\n",
                base.workload, base.pass
            ));
            bad = true;
            continue;
        };
        let same_inputs = base.params == new.params;
        if same_inputs && base.fingerprint != new.fingerprint {
            out.push_str(&format!(
                "{:<10} inputs changed:\n   {}\n   {}\n",
                base.workload, base.fingerprint, new.fingerprint
            ));
            bad = true;
        }
        if !(base.correct && new.correct) {
            out.push_str(&format!(
                "{:<10} {:<9} has wrong answers\n",
                base.workload, base.pass
            ));
            bad = true;
        }
        if base.pass == "untraced" {
            for m in &END_TO_END {
                let (Some(&x), Some(&y)) = (base.metrics.get(m.name), new.metrics.get(m.name))
                else {
                    continue;
                };
                let verdict = judge(m, x, y);
                bad |= verdict == Verdict::Regressed;
                out.push_str(&format!(
                    "{:<10} {:<14} {:>14.4} -> {:>14.4} {:<4} {:>+7.2}% (bound {:>4.1}%, spreads {:>5.2}% {:>5.2}%) {}\n",
                    base.workload,
                    m.name,
                    x.0,
                    y.0,
                    m.unit,
                    worsening(m, x.0, y.0) * 100.0,
                    m.bound * 100.0,
                    x.1 * 100.0,
                    y.1 * 100.0,
                    verdict.name()
                ));
            }
        }
        if same_inputs {
            for name in EXACT {
                let (Some(x), Some(y)) = (base.metrics.get(name), new.metrics.get(name)) else {
                    continue;
                };
                if x.0 != y.0 {
                    out.push_str(&format!(
                        "{:<10} {:<30} {} -> {} must repeat exactly\n",
                        base.workload, name, x.0, y.0
                    ));
                    bad = true;
                }
            }
        }
    }
    (out, bad)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn metric(name: &str) -> &'static Metric {
        END_TO_END
            .iter()
            .find(|m| m.name == name)
            .expect("catalogued")
    }

    #[test]
    fn direction_decides_what_worse_means() {
        let qps = metric("queries_per_s");
        let setup = metric("setup_s");
        assert!((worsening(qps, 1000.0, 900.0) - 0.10).abs() < 1e-12);
        assert!((worsening(qps, 1000.0, 1100.0) + 0.10).abs() < 1e-12);
        assert!((worsening(setup, 100.0, 110.0) - 0.10).abs() < 1e-12);
        assert_eq!(worsening(setup, 0.0, 0.0), 0.0);
    }

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let qps = metric("queries_per_s");
        let b = qps.bound;
        let tight = b / 4.0;
        assert_eq!(
            judge(qps, (1000.0, tight), (1000.0 * (1.0 - b / 2.0), tight)),
            Verdict::Ok
        );
        assert_eq!(judge(qps, (1000.0, tight), (2000.0, tight)), Verdict::Ok);
        assert_eq!(
            judge(qps, (1000.0, tight), (1000.0 * (1.0 - 2.0 * b), tight)),
            Verdict::Regressed
        );
        // A side whose own rounds disagree by more than the bound cannot
        // resolve a difference of that size.
        assert_eq!(
            judge(qps, (1000.0, 2.0 * b), (1000.0 * (1.0 - 2.0 * b), tight)),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(qps, (1000.0, tight), (1000.0, 2.0 * b)),
            Verdict::Unresolved
        );
    }

    fn run(pass: &str, fingerprint: &str, metrics: &[(&str, f64)]) -> ParsedRun {
        ParsedRun {
            workload: "linkchase".into(),
            pass: pass.into(),
            params: (2004, 2004, 1.0),
            fingerprint: fingerprint.into(),
            correct: true,
            metrics: metrics
                .iter()
                .map(|&(n, v)| (n.to_string(), (v, 0.0)))
                .collect::<BTreeMap<_, _>>(),
        }
    }

    #[test]
    fn compare_flags_regressions_input_changes_and_moved_counts() {
        let a = [
            run(
                "untraced",
                "f",
                &[("queries_per_s", 1000.0), ("index_mb", 5.2)],
            ),
            run("traced", "f", &[("pee.pops_per_query", 88.0)]),
        ];
        let (text, bad) = compare(&a, &a);
        assert!(!bad, "{text}");
        assert!(text.contains("queries_per_s") && text.contains(" ok"));

        let slower = [run(
            "untraced",
            "f",
            &[("queries_per_s", 500.0), ("index_mb", 5.2)],
        )];
        let (text, bad) = compare(&a[..1], &slower);
        assert!(bad && text.contains("regressed"), "{text}");

        let other_inputs = [run("untraced", "g", &[("queries_per_s", 1000.0)])];
        let (text, bad) = compare(&a[..1], &other_inputs);
        assert!(bad && text.contains("inputs changed"), "{text}");

        let moved = [run("traced", "f", &[("pee.pops_per_query", 89.0)])];
        let (text, bad) = compare(&a[1..], &moved);
        assert!(bad && text.contains("must repeat exactly"), "{text}");

        let (text, bad) = compare(&a, &a[..1]);
        assert!(bad && text.contains("missing"), "{text}");
    }
}
