//! In-memory spans around the calls the benchmark makes into each layer.
//!
//! A span records a name, its start and end, the span that caused it and the
//! id of the decision or submission it belongs to.  Spans stay in memory
//! while the run measures and are written out once it ends.  Every span is
//! opened and closed on one thread and a child always closes before its
//! parent, so the children of a span never overlap: a span's self time is
//! its duration minus the sum of its children's durations.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Decision or submission the span belongs to.
    pub id: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Layer call the span covers, e.g. `parametric.min_stretch`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn seconds(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 * 1e-9
    }
}

/// The span recorder of one traced run.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span and returns its index, to close it or parent others.
    pub fn open(&mut self, id: u64, parent: Option<usize>, name: &'static str) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    /// Closes span `index`.
    pub fn close(&mut self, index: usize) {
        self.spans[index].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &mut self,
        id: u64,
        parent: Option<usize>,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        let index = self.open(id, parent, name);
        let out = f();
        self.close(index);
        out
    }

    /// Durations in seconds of the spans named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::seconds)
            .collect()
    }

    /// Total self time in seconds per span name.
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns.saturating_sub(span.start_ns);
            }
        }
        let mut totals = BTreeMap::new();
        for (span, covered) in self.spans.iter().zip(child_ns) {
            let own = span
                .end_ns
                .saturating_sub(span.start_ns)
                .saturating_sub(covered);
            *totals.entry(span.name).or_insert(0.0) += own as f64 * 1e-9;
        }
        totals
    }

    /// Writes the spans as tab-separated `index parent id name start_ns
    /// end_ns` lines (`-` for no parent).
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "index\tparent\tid\tname\tstart_ns\tend_ns")?;
        for (index, span) in self.spans.iter().enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{index}\t{parent}\t{}\t{}\t{}\t{}",
                span.id, span.name, span.start_ns, span.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut tracer = Tracer::new();
        tracer.spans = vec![
            Span {
                id: 0,
                parent: None,
                name: "decision",
                start_ns: 0,
                end_ns: 100,
            },
            Span {
                id: 0,
                parent: Some(0),
                name: "probe",
                start_ns: 10,
                end_ns: 40,
            },
            Span {
                id: 0,
                parent: Some(0),
                name: "probe",
                start_ns: 50,
                end_ns: 70,
            },
        ];
        let totals = tracer.self_seconds();
        assert!((totals["decision"] - 50e-9).abs() < 1e-15);
        assert!((totals["probe"] - 50e-9).abs() < 1e-15);
        assert_eq!(tracer.durations("probe").len(), 2);
    }
}
