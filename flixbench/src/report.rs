//! What a run reports: the contract line the driver reads, the richer
//! result document `compare` reads, and the table a person reads.

use crate::catalog::{Metric, END_TO_END, PER_LAYER, WORKLOADS};
use crate::json::{self, Value};
use crate::prepare::Opts;
use crate::stats::Summary;
use flixobs::registry::json_escape;
use std::collections::BTreeMap;

/// `"traced"` / `"untraced"`: how result documents and files name a pass.
pub fn pass_name(traced: bool) -> &'static str {
    if traced {
        "traced"
    } else {
        "untraced"
    }
}

/// The outcome of one `(workload, pass)` process.
#[derive(Debug, Clone)]
pub struct RunDoc {
    /// Workload name.
    pub workload: &'static str,
    /// Traced pass (per-layer metrics) or end-to-end pass.
    pub traced: bool,
    /// `--seed`, `--corpus-seed`, corpus scale, `--seconds` as run.
    pub params: (u64, u64, f64, f64),
    /// Requests in flight in a closed loop, and the host's core count.
    pub window_nproc: (usize, usize),
    /// Rendered input fingerprint.
    pub fingerprint: String,
    /// Operations issued, warm-up included.
    pub attempted: u64,
    /// Operations that failed, were refused, timed out or answered wrongly,
    /// plus expected answers the oracle rejected.
    pub failed: u64,
    /// Measured values by catalogue name.
    pub metrics: BTreeMap<&'static str, Summary>,
    /// Free-form remarks (sample counts, what was skipped).
    pub notes: Vec<String>,
}

impl RunDoc {
    /// An empty document for `opts`.
    pub fn new(opts: &Opts, window: usize, nproc: usize, fingerprint: String) -> Self {
        Self {
            workload: opts.workload.name(),
            traced: opts.trace,
            params: (opts.seed, opts.corpus_seed, opts.scale(), opts.seconds),
            window_nproc: (window, nproc),
            fingerprint,
            attempted: 0,
            failed: 0,
            metrics: BTreeMap::new(),
            notes: Vec::new(),
        }
    }

    /// Records a value.
    pub fn set(&mut self, name: &'static str, value: Summary) {
        self.metrics.insert(name, value);
    }

    /// Records values measured once.
    pub fn set_all(&mut self, values: impl IntoIterator<Item = (&'static str, f64)>) {
        for (name, value) in values {
            self.set(name, Summary::once(value));
        }
    }

    /// The catalogue this pass reports against.
    pub fn catalogue(&self) -> &'static [Metric] {
        if self.traced {
            &PER_LAYER
        } else {
            &END_TO_END
        }
    }

    /// Whether every answer was right.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// Catalogue rows with their values. A per-layer metric the workload
    /// did not measure is a layer it bypasses and reads 0; a missing
    /// end-to-end metric, or a value that is not a finite number, is a bug
    /// in the benchmark and an error.
    fn rows(&self) -> Result<Vec<(&'static Metric, Summary)>, String> {
        self.catalogue()
            .iter()
            .map(|m| {
                let v = match self.metrics.get(m.name) {
                    Some(v) => *v,
                    None if self.traced => Summary::once(0.0),
                    None => return Err(format!("end-to-end metric {} was not measured", m.name)),
                };
                if v.value.is_finite() && v.spread.is_finite() {
                    Ok((m, v))
                } else {
                    Err(format!("metric {} is not a finite number", m.name))
                }
            })
            .collect()
    }

    /// The last line of standard output: exactly the keys `correct`,
    /// `attempted`, `failed` and `metrics`, values with all their digits.
    pub fn contract_line(&self) -> Result<String, String> {
        let metrics: Vec<String> = self
            .rows()?
            .iter()
            .map(|(m, v)| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, v.value, m.unit
                )
            })
            .collect();
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        ))
    }

    /// The result document: the contract line's content plus parameters,
    /// fingerprint, per-round spreads and notes.
    pub fn document(&self) -> Result<String, String> {
        let metrics: Vec<String> = self
            .rows()?
            .iter()
            .map(|(m, v)| {
                format!(
                    "    \"{}\": {{\"value\": {}, \"unit\": \"{}\", \"spread\": {}}}",
                    m.name, v.value, m.unit, v.spread
                )
            })
            .collect();
        let notes: Vec<String> = self
            .notes
            .iter()
            .map(|n| format!("\"{}\"", json_escape(n)))
            .collect();
        Ok(format!(
            "{{\"workload\": \"{}\", \"pass\": \"{}\", \"seed\": {}, \"corpus_seed\": {}, \
             \"scale\": {}, \"seconds\": {}, \"window\": {}, \"nproc\": {},\n  \
             \"fingerprint\": \"{}\",\n  \"correct\": {}, \"attempted\": {}, \"failed\": {},\n  \
             \"metrics\": {{\n{}\n  }},\n  \"notes\": [{}]}}",
            self.workload,
            pass_name(self.traced),
            self.params.0,
            self.params.1,
            self.params.2,
            self.params.3,
            self.window_nproc.0,
            self.window_nproc.1,
            json_escape(&self.fingerprint),
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(",\n"),
            notes.join(", ")
        ))
    }

    /// Every metric by name and unit, with its spread over the rounds.
    pub fn table(&self) -> Result<String, String> {
        let why = WORKLOADS
            .iter()
            .find(|(name, _)| *name == self.workload)
            .map_or("", |(_, why)| why);
        let mut out = format!(
            "== {} ({} pass) seed {} corpus {} scale {} seconds {} window {} nproc {}\n   why: {why}\n   inputs: {}\n",
            self.workload,
            if self.traced { "traced" } else { "end-to-end" },
            self.params.0,
            self.params.1,
            self.params.2,
            self.params.3,
            self.window_nproc.0,
            self.window_nproc.1,
            self.fingerprint
        );
        for (m, v) in self.rows()? {
            out.push_str(&format!(
                "   {:<34} {:>16.4} {:<6} ({} is better) spread {:>6.2}%\n",
                m.name,
                v.value,
                m.unit,
                m.better.name(),
                v.spread * 100.0
            ));
        }
        out.push_str(&format!(
            "   attempted {} failed {} failed_frac {}\n",
            self.attempted,
            self.failed,
            self.failed as f64 / self.attempted.max(1) as f64
        ));
        for n in &self.notes {
            out.push_str(&format!("   note: {n}\n"));
        }
        Ok(out)
    }
}

/// One `(workload, pass)` entry of a result file, as `compare` needs it.
#[derive(Debug, Clone)]
pub struct ParsedRun {
    /// Workload name.
    pub workload: String,
    /// `"untraced"` or `"traced"`.
    pub pass: String,
    /// `--seed` / `--corpus-seed` / corpus scale of the run.
    pub params: (u64, u64, f64),
    /// Rendered fingerprint.
    pub fingerprint: String,
    /// Whether every answer was right.
    pub correct: bool,
    /// `name → (value, spread)`.
    pub metrics: BTreeMap<String, (f64, f64)>,
}

/// Reads a result file: `{"runs": [document, ...]}`.
pub fn parse_result_file(text: &str) -> Result<Vec<ParsedRun>, String> {
    let doc = json::parse(text)?;
    let runs = doc
        .get("runs")
        .and_then(Value::as_array)
        .ok_or("result file has no \"runs\" array")?;
    runs.iter()
        .map(|run| {
            let text = |key: &str| -> Result<String, String> {
                run.get(key)
                    .and_then(Value::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| format!("run lacks \"{key}\""))
            };
            let number = |key: &str| -> Result<f64, String> {
                run.get(key)
                    .and_then(Value::as_f64)
                    .ok_or_else(|| format!("run lacks \"{key}\""))
            };
            let metrics = run
                .get("metrics")
                .and_then(Value::as_object)
                .ok_or("run lacks \"metrics\"")?
                .iter()
                .map(|(name, m)| {
                    let field = |key: &str| m.get(key).and_then(Value::as_f64).unwrap_or(0.0);
                    (name.clone(), (field("value"), field("spread")))
                })
                .collect();
            Ok(ParsedRun {
                workload: text("workload")?,
                pass: text("pass")?,
                params: (
                    number("seed")? as u64,
                    number("corpus_seed")? as u64,
                    number("scale")?,
                ),
                fingerprint: text("fingerprint")?,
                correct: run.get("correct") == Some(&Value::Bool(true)),
                metrics,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prepare::Workload;

    fn doc(traced: bool) -> RunDoc {
        let opts = Opts {
            workload: Workload::Linkchase,
            seed: 7,
            corpus_seed: 2004,
            seconds: 10.0,
            trace: traced,
            smoke: false,
        };
        RunDoc::new(&opts, 2, 2, "docs=1 \"quoted\"".into())
    }

    #[test]
    fn contract_line_has_exactly_the_catalogued_metrics() {
        let mut d = doc(false);
        assert!(
            d.contract_line().is_err(),
            "missing end-to-end metrics are a bug"
        );
        for (i, m) in END_TO_END.iter().enumerate() {
            d.set(m.name, Summary::once(1.5 + i as f64));
        }
        d.attempted = 10;
        let line = d.contract_line().expect("complete");
        assert!(!line.contains('\n'));
        let v = json::parse(&line).expect("parses");
        let keys: Vec<&String> = v.as_object().expect("object").keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        let metrics = v
            .get("metrics")
            .and_then(Value::as_object)
            .expect("metrics");
        assert_eq!(metrics.len(), END_TO_END.len());
        assert_eq!(
            metrics["setup_s"].get("unit").and_then(Value::as_str),
            Some("s")
        );
        assert_eq!(
            metrics["setup_s"].get("value").and_then(Value::as_f64),
            Some(1.5)
        );
    }

    #[test]
    fn bypassed_layers_read_zero_and_documents_round_trip() {
        let mut d = doc(true);
        d.set(
            "pee.pops_per_query",
            Summary {
                value: 88.7,
                spread: 0.01,
            },
        );
        d.notes.push("a \"note\"".into());
        d.attempted = 3;
        d.failed = 1;
        let file = format!("{{\"runs\": [{}]}}", d.document().expect("document"));
        let runs = parse_result_file(&file).expect("parses");
        assert_eq!(runs.len(), 1);
        let r = &runs[0];
        assert_eq!(
            (r.workload.as_str(), r.pass.as_str()),
            ("linkchase", "traced")
        );
        assert_eq!(r.params, (7, 2004, 1.0));
        assert_eq!(r.fingerprint, "docs=1 \"quoted\"");
        assert!(!r.correct);
        assert_eq!(r.metrics.len(), PER_LAYER.len());
        assert_eq!(r.metrics["pee.pops_per_query"], (88.7, 0.01));
        assert_eq!(r.metrics["serve.shed"], (0.0, 0.0));
        d.set("obs.trace_overhead_frac", Summary::once(f64::NAN));
        assert!(d.contract_line().is_err(), "NaN must not reach the driver");
    }
}
