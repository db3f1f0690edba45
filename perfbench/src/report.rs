//! The metric catalogue and the result line.
//!
//! Every workload reports every end-to-end metric (`--trace 0`) and
//! every per-layer metric (`--trace 1`); a layer a workload never calls
//! reads 0 there. `run.py` checks these names against `BENCHMARK.json`.

use std::collections::BTreeMap;

use nuchase_engine::ChaseStats;

use crate::util::ratio;

/// End-to-end metrics: `(name, unit)`. Their meaning per workload is
/// tabled in the README.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("rate_per_s", "1/s"),
    ("latency_ms", "ms"),
];

/// Per-layer metrics from the traced run: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    // cli: the `nuchase serve` facade, seen from its client
    ("cli.serve.hold_us.p50", "us"),
    ("cli.serve.hold_us.p99", "us"),
    ("cli.serve.errors", "count"),
    // load generator honesty and the per-rate ladder
    ("gen.late_p99_us", "us"),
    ("gen.backlog.low", "count"),
    ("gen.backlog.mid", "count"),
    ("gen.backlog.high", "count"),
    ("gen.backlog.over", "count"),
    ("serve.low.sent", "count"),
    ("serve.low.ok", "count"),
    ("serve.low.failed", "count"),
    ("serve.low.p50_ms", "ms"),
    ("serve.low.p99_ms", "ms"),
    ("serve.mid.sent", "count"),
    ("serve.mid.ok", "count"),
    ("serve.mid.failed", "count"),
    ("serve.mid.p50_ms", "ms"),
    ("serve.mid.p99_ms", "ms"),
    ("serve.high.sent", "count"),
    ("serve.high.ok", "count"),
    ("serve.high.failed", "count"),
    ("serve.high.p50_ms", "ms"),
    ("serve.high.p99_ms", "ms"),
    ("serve.over.sent", "count"),
    ("serve.over.ok", "count"),
    ("serve.over.failed", "count"),
    ("serve.over.p50_ms", "ms"),
    ("serve.over.p99_ms", "ms"),
    // model: parser, instance and tables
    ("model.parse_us", "us"),
    ("model.instance_build_us", "us"),
    ("model.parse_s", "s"),
    ("model.result_bytes", "bytes"),
    // engine.session: prepared program, engine, session and job API
    ("engine.compile_us", "us"),
    ("engine.build_us", "us"),
    ("engine.session_us", "us"),
    ("engine.submit_us", "us"),
    ("engine.finish_us", "us"),
    // engine.sched: the shared job scheduler
    ("engine.sched.wait_us.p50", "us"),
    ("engine.sched.wait_us.p99", "us"),
    ("engine.sched.exec_us.p50", "us"),
    ("engine.sched.exec_us.p99", "us"),
    ("engine.sched.busy_frac", "fraction"),
    ("engine.sched.busy_frac_replay", "fraction"),
    ("engine.sched.occupancy_max", "fraction"),
    ("engine.sched.occupancy_mean", "fraction"),
    // engine.phase: ChaseStats per unit of work
    ("engine.enumerate_s", "s"),
    ("engine.probe_s", "s"),
    ("engine.emit_s", "s"),
    ("engine.dedup_s", "s"),
    ("engine.resolve_s", "s"),
    ("engine.pool_s", "s"),
    ("engine.commit_s", "s"),
    ("engine.rounds", "count"),
    ("engine.fused_rounds", "count"),
    ("engine.batched_rounds", "count"),
    ("engine.nulls_created", "count"),
    ("engine.triggers_considered", "count"),
    ("engine.triggers_fired", "count"),
    ("engine.fire_ratio", "fraction"),
    ("engine.unaccounted_frac", "fraction"),
    // rewrite: linearize and simplify
    ("rewrite.linearize_ms", "ms"),
    ("rewrite.simplify_ms", "ms"),
    ("rewrite.lin_tgds", "count"),
    ("rewrite.lin_atoms", "count"),
    // core: dependency graph and weak acyclicity
    ("core.depgraph_us", "us"),
    ("core.wa_us", "us"),
    // self time per layer, per unit of work, from the spans
    ("self_us.cli", "us"),
    ("self_us.model", "us"),
    ("self_us.engine.session", "us"),
    ("self_us.engine.sched", "us"),
    ("self_us.engine.phase", "us"),
    ("self_us.rewrite", "us"),
    ("self_us.core", "us"),
    ("self_us.bench", "us"),
    // the workload's raw p50 and tail (see the README), untreated
    ("e2e.p50_ms", "ms"),
    ("e2e.tail_ms", "ms"),
    // the tracing itself
    ("trace.spans", "count"),
    ("trace.overhead_frac", "fraction"),
];

/// What one run measured and whether its outputs were right.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Failed output checks; any entry makes the run incorrect.
    pub problems: Vec<String>,
    values: BTreeMap<&'static str, f64>,
}

fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(unit_of(name).is_some(), "metric {name} is not catalogued");
        self.values
            .insert(name, if value.is_finite() { value } else { 0.0 });
    }

    /// Records a failed output check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        const LISTED: usize = 20;
        if ok {
            return;
        }
        match self.problems.len() {
            n if n < LISTED => self.problems.push(what()),
            LISTED => self
                .problems
                .push("(further failed checks not listed)".into()),
            _ => {}
        }
    }

    /// The `model.result_bytes` and `engine.*` phase metrics: each
    /// `ChaseStats` field summed over `stats` and divided by `units`.
    pub fn set_chase_stats(&mut self, stats: &[&ChaseStats], units: usize) {
        type Field = fn(&ChaseStats) -> f64;
        let per_unit = |f: Field| stats.iter().map(|s| f(s)).sum::<f64>() / units.max(1) as f64;
        let fields: [(&'static str, Field); 13] = [
            ("model.result_bytes", |s| {
                (s.peak_instance_bytes + s.peak_null_bytes) as f64
            }),
            ("engine.enumerate_s", |s| s.enumerate_secs),
            ("engine.probe_s", |s| s.probe_secs),
            ("engine.emit_s", |s| s.emit_secs),
            ("engine.dedup_s", |s| s.dedup_secs),
            ("engine.resolve_s", |s| s.resolve_secs),
            ("engine.pool_s", |s| s.pool_secs),
            ("engine.commit_s", |s| s.commit_secs),
            ("engine.rounds", |s| s.rounds as f64),
            ("engine.fused_rounds", |s| s.fused_rounds as f64),
            ("engine.batched_rounds", |s| s.batched_rounds as f64),
            ("engine.nulls_created", |s| s.nulls_created as f64),
            ("engine.triggers_considered", |s| {
                s.triggers_considered as f64
            }),
        ];
        for (name, f) in fields {
            self.set(name, per_unit(f));
        }
        let fired = per_unit(|s| s.triggers_fired as f64);
        self.set("engine.triggers_fired", fired);
        self.set(
            "engine.fire_ratio",
            ratio(fired, per_unit(|s| s.triggers_considered as f64)),
        );
        // The phase timers partition the wall: enumerate + dedup + apply
        // (resolve + commit) + pool.
        let wall = per_unit(|s| s.wall_secs);
        let phases = per_unit(|s| s.enumerate_secs + s.dedup_secs + s.apply_secs + s.pool_secs);
        self.set("engine.unaccounted_frac", ratio(wall - phases, wall));
    }

    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// Prints one `name value unit` line per metric of the chosen list,
    /// then the JSON result as the last line of standard output.
    pub fn print(&self, traced: bool) {
        let list = if traced { PER_LAYER } else { END_TO_END };
        for p in &self.problems {
            println!("CHECK FAILED: {p}");
        }
        let mut json = String::new();
        for (i, (name, unit)) in list.iter().enumerate() {
            let value = self.values.get(name).copied().unwrap_or(0.0);
            assert!(
                traced || self.values.contains_key(name),
                "end-to-end metric {name} was not measured"
            );
            println!("{name:<32} {value:>16.6} {unit}");
            if i > 0 {
                json.push_str(", ");
            }
            json.push_str(&format!(
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
            self.correct(),
            self.attempted,
            self.failed
        );
    }
}
