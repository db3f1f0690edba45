//! Spans recorded by the benchmark around its calls into each layer.
//!
//! Spans live in memory while a run measures and are written as JSON
//! lines when it ends. Nothing is traced inside the program itself:
//! every span brackets a public call made from these files.

use std::collections::{BTreeMap, BTreeSet};
use std::io::Write;
use std::time::Instant;

use crate::report::Report;

pub type SpanId = usize;

struct Span {
    name: &'static str,
    /// The request, chase pass or decision the span belongs to.
    unit: u64,
    parent: Option<SpanId>,
    start_ns: u64,
    end_ns: u64,
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

/// The `self_us.<layer>` metric a span's self time is summed into.
/// Span names start with their layer; roots (`bench.*`) are the
/// benchmark's own glue.
fn self_metric(span: &str) -> &'static str {
    const LAYERS: [(&str, &str); 7] = [
        ("cli.", "self_us.cli"),
        ("model.", "self_us.model"),
        ("engine.session.", "self_us.engine.session"),
        ("engine.sched.", "self_us.engine.sched"),
        ("engine.phase.", "self_us.engine.phase"),
        ("rewrite.", "self_us.rewrite"),
        ("core.", "self_us.core"),
    ];
    LAYERS
        .into_iter()
        .find(|(prefix, _)| span.starts_with(prefix))
        .map_or("self_us.bench", |(_, metric)| metric)
}

impl Tracer {
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished span; parents are recorded before children.
    pub fn span(
        &mut self,
        name: &'static str,
        unit: u64,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            unit,
            parent,
            start_ns,
            end_ns,
        });
        self.spans.len() - 1
    }

    /// Opens a span now; [`Tracer::close`] sets its end.
    pub fn open(&mut self, name: &'static str, unit: u64, parent: Option<SpanId>) -> SpanId {
        let now = Instant::now();
        self.span(name, unit, parent, now, now)
    }

    pub fn close(&mut self, id: SpanId) {
        self.close_at(id, Instant::now());
    }

    pub fn close_at(&mut self, id: SpanId, end: Instant) {
        self.spans[id].end_ns = self.ns(end);
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        unit: u64,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, unit, parent);
        let out = f();
        self.close(id);
        out
    }

    /// Mean self time per layer, in µs, keyed by its `self_us.<layer>`
    /// metric: each span's duration minus the part of it its children
    /// cover, summed per unit and averaged over the units (requests,
    /// passes, decisions) that called the layer.
    fn self_us_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        let mut totals: BTreeMap<&'static str, (f64, BTreeSet<u64>)> = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(children.iter_mut()) {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for &(a, b) in kids.iter() {
                let (a, b) = (a.clamp(reach, s.end_ns), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            let own = s.end_ns.saturating_sub(s.start_ns).saturating_sub(covered);
            let entry = totals.entry(self_metric(s.name)).or_default();
            entry.0 += own as f64 / 1e3;
            entry.1.insert(s.unit);
        }
        totals
            .into_iter()
            .map(|(metric, (us, units))| (metric, us / units.len() as f64))
            .collect()
    }

    /// Sets the `self_us.*` metrics and the span count.
    pub fn report(&self, report: &mut Report) {
        for (metric, us) in self.self_us_by_layer() {
            report.set(metric, us);
        }
        report.set("trace.spans", self.spans.len() as f64);
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"unit\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.unit, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}
