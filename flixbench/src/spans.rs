//! The benchmark's own span recorder for the traced pass.
//!
//! Spans are recorded from outside the program, around the calls into each
//! layer: `{name, start_ns, end_ns, parent, request}` in a preallocated
//! buffer, written out once when the run ends. A layer's self time is its
//! span minus the part of that interval its child spans cover.

use flixobs::Stopwatch;
use std::collections::BTreeMap;

/// No parent: a root (client) span.
pub const ROOT: u32 = u32::MAX;

/// One recorded interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer name.
    pub name: &'static str,
    /// Start, nanoseconds on the recorder's clock.
    pub start_ns: u64,
    /// End, nanoseconds on the recorder's clock.
    pub end_ns: u64,
    /// Index of the span that caused this one, or [`ROOT`].
    pub parent: u32,
    /// Request the span belongs to (spans of one request share it).
    pub request: u32,
}

/// Per-layer totals over all recorded spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTotal {
    /// Spans recorded under the name.
    pub count: u64,
    /// Sum of their durations.
    pub total_ns: u64,
    /// Sum of their self times.
    pub self_ns: u64,
}

/// Fixed-capacity in-memory span buffer with its own clock.
pub struct Recorder {
    clock: Stopwatch,
    spans: Vec<Span>,
    capacity: usize,
    dropped: u64,
}

impl Recorder {
    /// A recorder holding at most `capacity` spans; later ones are counted
    /// as dropped, never reallocated for.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            clock: Stopwatch::start(),
            spans: Vec::with_capacity(capacity),
            capacity,
            dropped: 0,
        }
    }

    /// The recorder's clock, for callers that stamp spans themselves.
    pub fn clock(&self) -> &Stopwatch {
        &self.clock
    }

    /// Nanoseconds since the recorder was created.
    pub fn now(&self) -> u64 {
        u64::try_from(self.clock.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a span; returns its index for use as a `parent`, or
    /// [`ROOT`] when the buffer is full (children then attach to nothing,
    /// and are dropped with it).
    pub fn push(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: u32,
        request: u32,
    ) -> u32 {
        if self.spans.len() >= self.capacity {
            self.dropped += 1;
            return ROOT;
        }
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: end_ns.max(start_ns),
            parent,
            request,
        });
        (self.spans.len() - 1) as u32
    }

    /// Moves the end of span `idx` to `end_ns` — for a root opened before
    /// its children were known.
    pub fn close(&mut self, idx: u32, end_ns: u64) {
        if let Some(s) = self.spans.get_mut(idx as usize) {
            s.end_ns = end_ns.max(s.start_ns);
        }
    }

    /// Whether `spans` more spans fit. A request that does not fit whole
    /// is not recorded at all; its spans are counted as dropped here.
    pub fn reserve(&mut self, spans: usize) -> bool {
        let fits = self.spans.len() + spans <= self.capacity;
        if !fits {
            self.dropped += spans as u64;
        }
        fits
    }

    /// Self time of every span: its duration minus the union of its
    /// children's intervals, clipped to the span.
    pub fn self_times(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        let mut kids: Vec<u32> = (0..self.spans.len() as u32)
            .filter(|&i| self.spans[i as usize].parent != ROOT)
            .collect();
        kids.sort_unstable_by_key(|&i| {
            let s = &self.spans[i as usize];
            (s.parent, s.start_ns)
        });
        // Sweep each parent's children in start order, merging overlaps.
        let mut covered_to = 0u64;
        let mut current = ROOT;
        for i in kids {
            let child = self.spans[i as usize];
            let Some(parent) = self.spans.get(child.parent as usize) else {
                continue;
            };
            if child.parent != current {
                current = child.parent;
                covered_to = parent.start_ns;
            }
            let from = child.start_ns.clamp(covered_to, parent.end_ns);
            let to = child.end_ns.clamp(from, parent.end_ns);
            own[child.parent as usize] = own[child.parent as usize].saturating_sub(to - from);
            covered_to = covered_to.max(to);
        }
        own
    }

    /// Count, total and self time per layer name.
    pub fn by_layer(&self) -> BTreeMap<&'static str, LayerTotal> {
        let own = self.self_times();
        let mut out: BTreeMap<&'static str, LayerTotal> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(own) {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += s.end_ns - s.start_ns;
            t.self_ns += self_ns;
        }
        out
    }

    /// Share of the root spans' time that no leaf span accounts for: the
    /// self time of every span that has children, over the root total.
    pub fn unattributed_frac(&self) -> f64 {
        let own = self.self_times();
        let mut has_child = vec![false; self.spans.len()];
        for s in &self.spans {
            if let Some(flag) = has_child.get_mut(s.parent as usize) {
                *flag = true;
            }
        }
        let root_ns: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == ROOT)
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        let container_self: u64 = own
            .iter()
            .zip(&has_child)
            .filter(|(_, &c)| c)
            .map(|(ns, _)| ns)
            .sum();
        if root_ns == 0 {
            0.0
        } else {
            container_self as f64 / root_ns as f64
        }
    }

    /// The trace document: per-layer totals, then at most `max_spans` raw
    /// spans (the rest are only counted).
    pub fn to_json(&self, max_spans: usize) -> String {
        let mut out = String::from("{\"layers\": {");
        for (i, (name, t)) in self.by_layer().iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "\"{name}\": {{\"count\": {}, \"total_ns\": {}, \"self_ns\": {}}}",
                t.count, t.total_ns, t.self_ns
            ));
        }
        let written = self.spans.len().min(max_spans);
        out.push_str(&format!(
            "}},\n\"recorded\": {}, \"written\": {written}, \"dropped\": {},\n\"spans\": [\n",
            self.spans.len(),
            self.dropped
        ));
        for (i, s) in self.spans[..written].iter().enumerate() {
            let parent = if s.parent == ROOT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            out.push_str(&format!(
                "{{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"request\": {}}}{}\n",
                s.name,
                s.start_ns,
                s.end_ns,
                s.request,
                if i + 1 < written { "," } else { "" }
            ));
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut r = Recorder::with_capacity(16);
        let client = r.push("client", 0, 100, ROOT, 1);
        let pee = r.push("pee", 10, 90, client, 1);
        r.push("queue_pop", 10, 30, pee, 1);
        r.push("block_fetch", 25, 50, pee, 1); // overlaps queue_pop by 5
        r.push("link_expand", 60, 95, pee, 1); // runs past its parent by 5
        let own = r.self_times();
        assert_eq!(own[client as usize], 20); // 100 − 80
        assert_eq!(own[pee as usize], 80 - 40 - 30); // [10,50) ∪ [60,90)
        assert_eq!(own[2], 20);
        assert_eq!(own[3], 25);
        assert_eq!(own[4], 35);
        let layers = r.by_layer();
        assert_eq!(layers["pee"].total_ns, 80);
        assert_eq!(layers["pee"].self_ns, 10);
        // Containers: client (20) + pee (10) over the 100 ns root.
        assert!((r.unattributed_frac() - 0.30).abs() < 1e-12);
    }

    #[test]
    fn children_of_different_parents_do_not_mix() {
        let mut r = Recorder::with_capacity(16);
        let a = r.push("client", 0, 10, ROOT, 1);
        let b = r.push("client", 100, 120, ROOT, 2);
        r.push("leaf", 105, 115, b, 2);
        r.push("leaf", 2, 4, a, 1);
        let own = r.self_times();
        assert_eq!(own[a as usize], 8);
        assert_eq!(own[b as usize], 10);
    }

    #[test]
    fn full_buffer_counts_drops_and_serialises() {
        let mut r = Recorder::with_capacity(2);
        assert!(r.reserve(2));
        let a = r.push("client", 0, 5, ROOT, 7);
        r.push("leaf", 1, 2, a, 7);
        assert_eq!(r.push("leaf", 3, 4, a, 7), ROOT);
        assert_eq!(r.dropped, 1);
        assert!(!r.reserve(3));
        assert_eq!(r.dropped, 4);
        assert_eq!(r.spans.len(), 2);
        let doc = crate::json::parse(&r.to_json(1)).expect("trace parses");
        assert_eq!(doc.get("written").and_then(|v| v.as_f64()), Some(1.0));
        assert_eq!(doc.get("dropped").and_then(|v| v.as_f64()), Some(4.0));
        let spans = doc.get("spans").and_then(|v| v.as_array()).expect("spans");
        assert_eq!(spans.len(), 1);
        assert_eq!(
            spans[0].get("name").and_then(|v| v.as_str()),
            Some("client")
        );
        assert_eq!(spans[0].get("parent"), Some(&crate::json::Value::Null));
    }
}
