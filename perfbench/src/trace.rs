//! In-memory spans for the traced run: workload → setup / solve → port
//! call, each with its layer, so a layer's self time is its spans'
//! duration minus the part their children cover.

use std::borrow::Cow;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;

/// The layer a span's self time is attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// The benchmark's own loop and correctness checks: the root span,
    /// whose self time is the "unattributed" remainder.
    Bench,
    /// `Problem::from_config` and `make_port`.
    Setup,
    /// `driver::drive` outside port calls: the solver loop, eigenvalue
    /// estimation and checkpoint guards.
    Solver,
    /// One `TeaLeafPort` trait call: arithmetic, port abstraction, pool
    /// dispatch and simdev charging together.
    Ports,
    /// A distributed solve: tiles, halo exchange and mpisim transport.
    Distributed,
}

impl Layer {
    pub const ALL: [Layer; 5] = [
        Layer::Bench,
        Layer::Setup,
        Layer::Solver,
        Layer::Ports,
        Layer::Distributed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Bench => "bench",
            Layer::Setup => "setup",
            Layer::Solver => "solver",
            Layer::Ports => "ports",
            Layer::Distributed => "distributed",
        }
    }
}

#[derive(Debug, Clone)]
pub struct Span {
    pub parent: Option<usize>,
    pub layer: Layer,
    pub name: Cow<'static, str>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Counters measured at the span's boundary (pool and clock deltas,
    /// iterations, transport counts).
    pub attrs: Vec<(&'static str, f64)>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Spans kept in memory and written out when the run ends.
#[derive(Debug, Default)]
pub struct Trace {
    pub spans: Vec<Span>,
}

impl Trace {
    /// Append a span and return its id.
    pub fn push(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Check that every span lies inside its parent and that siblings do
    /// not overlap; returns every violation found.
    pub fn validate(&self) -> Vec<String> {
        let mut errors = Vec::new();
        let mut last_child_end: Vec<u64> = self.spans.iter().map(|s| s.start_ns).collect();
        for (id, span) in self.spans.iter().enumerate() {
            if span.end_ns < span.start_ns {
                errors.push(format!("span {id} ({}) ends before it starts", span.name));
            }
            let Some(p) = span.parent else { continue };
            let parent = &self.spans[p];
            if span.start_ns < parent.start_ns || span.end_ns > parent.end_ns {
                errors.push(format!("span {id} ({}) escapes its parent {p}", span.name));
            }
            if span.start_ns < last_child_end[p] {
                errors.push(format!("span {id} ({}) overlaps a sibling", span.name));
            }
            last_child_end[p] = span.end_ns;
        }
        errors
    }

    /// Self time per span: duration minus the children's durations.
    pub fn self_ns(&self) -> Vec<i128> {
        let mut own: Vec<i128> = self.spans.iter().map(|s| s.duration_ns() as i128).collect();
        for span in &self.spans {
            if let Some(p) = span.parent {
                own[p] -= span.duration_ns() as i128;
            }
        }
        own
    }

    /// Self seconds summed per layer, in [`Layer::ALL`] order.
    pub fn layer_self_s(&self) -> [f64; 5] {
        let mut out = [0.0; 5];
        for (span, own) in self.spans.iter().zip(self.self_ns()) {
            let slot = Layer::ALL
                .iter()
                .position(|&l| l == span.layer)
                .expect("known layer");
            out[slot] += own as f64 * 1e-9;
        }
        out
    }

    /// Write one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let mut line = String::new();
        for ((id, span), own) in self.spans.iter().enumerate().zip(self.self_ns()) {
            line.clear();
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                line,
                "{{\"id\":{id},\"parent\":{parent},\"layer\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{own}",
                span.layer.name(),
                span.name,
                span.start_ns,
                span.end_ns
            );
            for (key, value) in &span.attrs {
                let _ = write!(line, ",\"{key}\":{value}");
            }
            line.push_str("}\n");
            out.write_all(line.as_bytes())?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<usize>, layer: Layer, start_ns: u64, end_ns: u64) -> Span {
        Span {
            parent,
            layer,
            name: Cow::Borrowed("s"),
            start_ns,
            end_ns,
            attrs: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_children_and_layers_sum_to_root() {
        let mut t = Trace::default();
        let root = t.push(span(None, Layer::Bench, 0, 100));
        let solve = t.push(span(Some(root), Layer::Solver, 10, 90));
        t.push(span(Some(solve), Layer::Ports, 20, 40));
        t.push(span(Some(solve), Layer::Ports, 50, 60));
        assert!(t.validate().is_empty());
        assert_eq!(t.self_ns(), vec![20, 50, 20, 10]);
        let layers = t.layer_self_s();
        let total: f64 = layers.iter().sum();
        assert!((total - 100e-9).abs() < 1e-15);
    }

    #[test]
    fn escaping_and_overlapping_spans_are_reported() {
        let mut t = Trace::default();
        let root = t.push(span(None, Layer::Bench, 0, 100));
        t.push(span(Some(root), Layer::Setup, 10, 50));
        t.push(span(Some(root), Layer::Setup, 40, 120));
        let errors = t.validate();
        assert_eq!(errors.len(), 2, "{errors:?}");
    }
}
