//! `chase_wide` and `chase_deep`: whole materializations through the
//! prepared-program API, from program text to a finished `ChaseResult`
//! (`parse_program` → `PreparedProgram::compile` → `Engine::session` →
//! `run` → `finish`), at `threads = nproc`.
//!
//! A *pass* chases every program of the workload once. The seed
//! relabels constants and shuffles fact order; the shapes, and so the
//! result sizes, stay fixed. Each chase takes ~3–20 ms, so a run times
//! thousands of them and their [`best`] finds the host's fast phase.

use std::time::{Duration, Instant};

use nuchase_engine::{ChaseBudget, ChaseStats, ChaseVariant, Engine, PreparedProgram};
use nuchase_model::{parse_program, Program};

use crate::report::Report;
use crate::trace::Tracer;
use crate::util::{best, mean, median, nproc, peak_rss_mb, quantile, Rng};
use crate::Args;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 11;

struct Input {
    name: &'static str,
    text: String,
    budget: usize,
}

/// Joins facts in a seeded order after the rules.
fn program_text(rules: &str, mut facts: Vec<String>, rng: &mut Rng) -> String {
    rng.shuffle(&mut facts);
    let mut text = String::from(rules);
    for f in facts {
        text.push_str(&f);
        text.push('\n');
    }
    text
}

/// Seeded names for `n` constants: a permutation of `prefix0..prefixN`.
fn names(prefix: &str, n: usize, rng: &mut Rng) -> Vec<String> {
    let mut ids: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut ids);
    ids.into_iter().map(|i| format!("{prefix}{i}")).collect()
}

/// Transitive closure of a 180-edge chain (16 290 atoms in ~9 rounds)
/// and a star join of 4 hubs × 18 leaves (11 664 answers in two rounds
/// of 5 832): the batch enumerate, dedup and pooled resolve regime. Four
/// rounds of a pass pass the batch path's 4 096-atom delta floor.
fn wide_inputs(rng: &mut Rng) -> Vec<Input> {
    let n = 180;
    let node = names("n", n + 1, rng);
    let edges = (0..n)
        .map(|i| format!("e({}, {}).", node[i], node[i + 1]))
        .collect();
    let tc = program_text("e(X, Y), e(Y, Z) -> e(X, Z).\n", edges, rng);

    let (chains, waves, fanout, advance) = (2, 2, 18, 18);
    let leaves = (waves - 1) * advance + fanout;
    let (a, b, c) = (
        names("a", leaves, rng),
        names("b", leaves, rng),
        names("c", leaves, rng),
    );
    let mut facts = Vec::new();
    for ch in 0..chains {
        for w in 0..waves {
            let h = format!("h{ch}x{w}");
            for i in w * advance..w * advance + fanout {
                facts.push(format!("e0({h}, {}).", a[i]));
                facts.push(format!("e1({h}, {}).", b[i]));
                facts.push(format!("e2({h}, {}).", c[i]));
            }
            if w == 0 {
                facts.push(format!("hub({h})."));
            }
            if w + 1 < waves {
                facts.push(format!("hnext({h}, h{ch}x{}).", w + 1));
            }
        }
    }
    let star = program_text(
        "hub(X), hnext(X, Y) -> hub(Y).\n\
         hub(H), e0(H, A), e1(H, B), e2(H, C) -> q(A, B, C).\n",
        facts,
        rng,
    );
    vec![
        Input {
            name: "transitive_closure_180",
            text: tc,
            budget: 200_000,
        },
        Input {
            name: "star_join_4x18",
            text: star,
            budget: 200_000,
        },
    ]
}

/// A successor chain stopped by its atom budget and the Prop 4.5 depth
/// family: 15 000 rounds of one trigger each per pass, so the per-round
/// cost, the fused path, null interning and arena appends dominate.
fn deep_inputs(rng: &mut Rng) -> Vec<Input> {
    let chain_atoms = 10_000;
    let start = names("s", 2, rng);
    let chain = format!("r(X, Y) -> r(Y, Z).\nr({}, {}).\n", start[0], start[1]);

    let n = 5_000;
    let a = names("a", n, rng);
    let mut facts = vec![format!("p({}, b, b).", a[0])];
    facts.extend((0..n - 1).map(|i| format!("r({}, {}).", a[i], a[i + 1])));
    let depth = program_text("r(X, Y), p(X, Z, V) -> p(Y, W, Z).\n", facts, rng);
    vec![
        Input {
            name: "successor_chain_10k",
            text: chain,
            budget: chain_atoms,
        },
        Input {
            name: "depth_family_5k",
            text: depth,
            budget: 10_000_000,
        },
    ]
}

struct Ready {
    program: Program,
    prepared: PreparedProgram,
    engine: Engine,
}

fn engine(budget: usize, threads: usize) -> Engine {
    Engine::builder()
        .variant(ChaseVariant::SemiOblivious)
        .budget(ChaseBudget::atoms(budget))
        .threads(threads)
        .build()
}

/// Parse, compile and build for every input: the workload's set-up.
/// Returns the ready programs and the three phase times.
fn set_up(inputs: &[Input]) -> Result<(Vec<Ready>, [Duration; 3]), String> {
    let mut times = [Duration::ZERO; 3];
    let mut ready = Vec::new();
    for input in inputs {
        let t0 = Instant::now();
        let program =
            parse_program(&input.text).map_err(|e| format!("{}: parse: {e}", input.name))?;
        let t1 = Instant::now();
        let prepared = PreparedProgram::compile(program.tgds.clone());
        let t2 = Instant::now();
        let engine = engine(input.budget, nproc());
        let t3 = Instant::now();
        times[0] += t1 - t0;
        times[1] += t2 - t1;
        times[2] += t3 - t2;
        ready.push(Ready {
            program,
            prepared,
            engine,
        });
    }
    Ok((ready, times))
}

/// What one chase produced, compared against the sequential reference.
#[derive(PartialEq, Debug)]
struct Shape {
    atoms: usize,
    nulls: usize,
    rounds: usize,
    outcome: &'static str,
}

fn shape(r: &nuchase_engine::ChaseResult) -> Shape {
    Shape {
        atoms: r.instance.len(),
        nulls: r.stats.nulls_created,
        rounds: r.stats.rounds,
        outcome: r.outcome.name(),
    }
}

struct Pass {
    traced: bool,
    /// `run` + `finish` wall per program.
    walls: Vec<f64>,
    derived: Vec<usize>,
    shapes: Vec<Shape>,
    stats: Vec<ChaseStats>,
    session_s: f64,
    finish_s: f64,
}

/// Chases every program once. With a tracer, each call gets a span
/// under one `bench.pass` root.
fn pass(ready: &[Ready], unit: u64, mut tracer: Option<&mut Tracer>) -> Pass {
    let root = tracer.as_mut().map(|t| t.open("bench.pass", unit, None));
    let mut p = Pass {
        traced: tracer.is_some(),
        walls: Vec::new(),
        derived: Vec::new(),
        shapes: Vec::new(),
        stats: Vec::new(),
        session_s: 0.0,
        finish_s: 0.0,
    };
    for r in ready {
        let t0 = Instant::now();
        let mut session = r.engine.session(&r.prepared, &r.program.database);
        let t1 = Instant::now();
        session.run();
        let t2 = Instant::now();
        let result = session.finish();
        let t3 = Instant::now();
        if let Some(t) = tracer.as_mut() {
            t.span("engine.session.open", unit, root, t0, t1);
            t.span("engine.phase.run", unit, root, t1, t2);
            t.span("engine.session.finish", unit, root, t2, t3);
        }
        p.walls.push((t3 - t1).as_secs_f64());
        p.session_s += (t1 - t0).as_secs_f64();
        p.finish_s += (t3 - t2).as_secs_f64();
        p.derived.push(result.stats.atoms_created);
        p.shapes.push(shape(&result));
        p.stats.push(result.stats);
    }
    if let (Some(t), Some(root)) = (tracer, root) {
        t.close(root);
    }
    p
}

/// Passes until `seconds` have elapsed (at least three). With a tracer,
/// every second pass is traced, so traced and untraced passes share the
/// machine's conditions and their difference is the tracing overhead.
fn passes(ready: &[Ready], seconds: f64, mut tracer: Option<&mut Tracer>) -> Vec<Pass> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < 3 || start.elapsed().as_secs_f64() < seconds {
        let traced = out.len() % 2 == 1;
        let t = tracer.as_deref_mut().filter(|_| traced);
        out.push(pass(ready, out.len() as u64, t));
    }
    out
}

pub fn run(args: &Args) -> Result<Report, String> {
    let mut rng = Rng::new(args.seed, 1);
    let inputs = if args.workload == "chase_wide" {
        wide_inputs(&mut rng)
    } else {
        deep_inputs(&mut rng)
    };
    let mut report = Report::default();

    let mut setups = Vec::new();
    let mut phase_times: [Vec<f64>; 3] = Default::default();
    let mut ready = Vec::new();
    for _ in 0..SETUP_REPS {
        drop(ready);
        let t = Instant::now();
        let (r, times) = set_up(&inputs)?;
        setups.push(t.elapsed().as_secs_f64());
        for (v, d) in phase_times.iter_mut().zip(times) {
            v.push(d.as_secs_f64());
        }
        ready = r;
    }

    // One untimed pass lets lazily started workers and caches settle.
    pass(&ready, u64::MAX, None);
    let mut tracer = Tracer::new(Instant::now());
    let all = passes(
        &ready,
        args.seconds,
        Some(&mut tracer).filter(|_| args.traced),
    );
    let (traced, plain): (Vec<Pass>, Vec<Pass>) = all.into_iter().partition(|p| p.traced);
    let peak_rss = peak_rss_mb("self").map_err(|e| e.to_string())?;

    // The sequential reference, outside the timed region.
    let reference: Vec<Shape> = inputs
        .iter()
        .zip(&ready)
        .map(|(input, r)| shape(&engine(input.budget, 0).chase(&r.prepared, &r.program.database)))
        .collect();
    for (i, p) in plain.iter().chain(&traced).enumerate() {
        report.attempted += inputs.len() as u64;
        for ((input, got), want) in inputs.iter().zip(&p.shapes).zip(&reference) {
            let failed = got.outcome == "failed";
            report.failed += failed as u64;
            report.check(got == want && !failed, || {
                format!(
                    "{} pass {i}: {got:?}, sequential reference {want:?}",
                    input.name
                )
            });
        }
    }

    let best_s = best_pass_s(&plain);
    let derived: usize = plain[0].derived.iter().sum();
    report.set("setup_s", median(&setups));
    report.set("peak_rss_mb", peak_rss);
    report.set("rate_per_s", derived as f64 / best_s);
    report.set("latency_ms", best_s * 1e3);
    println!(
        "{}: {} passes of [{}], threads {}, {derived} derived atoms per pass",
        args.workload,
        plain.len(),
        inputs.iter().map(|i| i.name).collect::<Vec<_>>().join(", "),
        nproc(),
    );
    for (k, input) in inputs.iter().enumerate() {
        let ms: Vec<f64> = plain.iter().map(|p| p.walls[k] * 1e3).collect();
        println!(
            "  {:<24} best {:>8.2} ms  p50 {:>8.2} ms  p90 {:>8.2} ms",
            input.name,
            best(&ms),
            median(&ms),
            quantile(&ms, 0.9)
        );
    }

    if args.traced {
        report_layers(&mut report, &traced, &tracer, &phase_times);
        let walls: Vec<f64> = plain.iter().map(|p| p.walls.iter().sum()).collect();
        report.set("e2e.p50_ms", median(&walls) * 1e3);
        report.set("e2e.tail_ms", quantile(&walls, 0.9) * 1e3);
        report.set("trace.overhead_frac", best_pass_s(&traced) / best_s - 1.0);
        tracer
            .write_jsonl(&args.trace_path())
            .map_err(|e| e.to_string())?;
    }
    Ok(report)
}

/// A pass's wall at the host's fast phase: per program, the [`best`] of
/// its `run` + `finish` walls over the passes, summed over the programs.
fn best_pass_s(passes: &[Pass]) -> f64 {
    (0..passes[0].walls.len())
        .map(|k| {
            let walls: Vec<f64> = passes.iter().map(|p| p.walls[k]).collect();
            best(&walls)
        })
        .sum()
}

/// Per-layer metrics of the traced passes, each a mean per pass.
fn report_layers(report: &mut Report, traced: &[Pass], tracer: &Tracer, setup: &[Vec<f64>; 3]) {
    report.set("model.parse_s", median(&setup[0]));
    report.set("engine.compile_us", median(&setup[1]) * 1e6);
    report.set("engine.build_us", median(&setup[2]) * 1e6);
    report.set(
        "engine.session_us",
        mean(&traced.iter().map(|p| p.session_s * 1e6).collect::<Vec<_>>()),
    );
    report.set(
        "engine.finish_us",
        mean(&traced.iter().map(|p| p.finish_s * 1e6).collect::<Vec<_>>()),
    );
    let stats: Vec<&ChaseStats> = traced.iter().flat_map(|p| &p.stats).collect();
    report.set_chase_stats(&stats, traced.len());
    tracer.report(report);
}
