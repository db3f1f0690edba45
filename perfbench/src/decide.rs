//! `decide_guarded`: the paper's own problem in its data-complexity
//! regime. A handful of fixed guarded Σ, each decided with
//! `nuchase::decide` over seeded databases of 125–1000 facts, closed
//! loop, one thread. Every database of a run is decided once per round,
//! so each decision is timed ~55 times over the run.
//!
//! The Σ are fixed generator seeds, picked so that every one classifies
//! as guarded (not linear, so `decide` takes the linearize + simplify
//! path of Thm 8.3) and the verdicts are mixed: seeds 0 and 2 terminate
//! on every database tried, 7 and 15 diverge.

use std::time::Instant;

use nuchase::depgraph::DepGraph;
use nuchase::weak_acyclicity::is_weakly_acyclic_with;
use nuchase_model::{parse_program, Atom, DisplayWith, Instance, PredId, Program, SymbolTable};
use nuchase_model::{Term, TgdClass};

use crate::report::Report;
use crate::trace::Tracer;
use crate::util::{best, geomean, mean, median, peak_rss_mb, quantile, ratio, Rng};
use crate::Args;

const SIGMA_SEEDS: [u64; 4] = [0, 2, 7, 15];
/// Database sizes, log-spaced over 125–1000 facts: small enough that a
/// round over all cases takes ~0.5 s and each case is timed ~55 times
/// in a run, so its [`best`] finds the host's fast phase.
const SIZES: [usize; 8] = [125, 168, 227, 305, 411, 553, 744, 1000];
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 51;
/// Untraced decisions of each case per run, at the least.
const MIN_ROUNDS: usize = 3;
/// Reference chases stop at this many atoms per database fact. Every
/// terminating chase of these Σ stays under 3 atoms per fact.
const REFERENCE_ATOMS_PER_FACT: usize = 100;

/// The Σ as program text: the random guarded generator's output at each
/// fixed seed, printed in the parser's syntax.
fn sigma_texts() -> Vec<String> {
    SIGMA_SEEDS
        .iter()
        .map(|&seed| {
            let p = nuchase_gen::random_program(&nuchase_gen::RandomConfig {
                preds: 6,
                rules: 6,
                class: TgdClass::Guarded,
                facts: 0,
                seed,
                ..Default::default()
            });
            p.tgds.display(&p.symbols).to_string()
        })
        .collect()
}

/// Parses every Σ and checks its class: the workload's set-up.
fn set_up(texts: &[String]) -> Result<Vec<Program>, String> {
    texts
        .iter()
        .zip(SIGMA_SEEDS)
        .map(|(text, seed)| {
            let p = parse_program(text).map_err(|e| format!("Σ seed {seed}: {e}"))?;
            match p.tgds.classify() {
                TgdClass::Guarded => Ok(p),
                class => Err(format!(
                    "Σ seed {seed} classifies as {class:?}, not guarded"
                )),
            }
        })
        .collect()
}

/// A seeded database of exactly `facts` facts over Σ's schema, with
/// `facts / 2` constants; returns it with the symbol table it extends.
fn database(sigma: &Program, facts: usize, rng: &mut Rng) -> (Instance, SymbolTable) {
    let mut symbols = sigma.symbols.clone();
    let preds: Vec<(PredId, usize)> = (0..symbols.pred_count() as u32)
        .map(|i| (PredId(i), symbols.arity(PredId(i))))
        .collect();
    let consts: Vec<Term> = (0..facts / 2 + 2)
        .map(|i| Term::Const(symbols.constant(&format!("k{i}"))))
        .collect();
    let mut db = Instance::new();
    while db.len() < facts {
        let (p, arity) = preds[rng.below(preds.len())];
        let args: Vec<Term> = (0..arity)
            .map(|_| consts[rng.below(consts.len())])
            .collect();
        db.insert(Atom::new(p, args));
    }
    (db, symbols)
}

/// One decision problem: which Σ, and a database of `facts` facts over
/// its schema with the symbol table it extends.
struct Case {
    sigma: usize,
    facts: usize,
    db: Instance,
    symbols: SymbolTable,
}

/// The run's cases: every (Σ, size) pair, with a database drawn from
/// the seed.
fn cases(sigmas: &[Program], seed: u64) -> Vec<Case> {
    let mut out = Vec::new();
    for (sigma, program) in sigmas.iter().enumerate() {
        for facts in SIZES {
            let mut rng = Rng::new(seed, 1_000 + out.len() as u64);
            let (db, symbols) = database(program, facts, &mut rng);
            out.push(Case {
                sigma,
                facts,
                db,
                symbols,
            });
        }
    }
    out
}

struct Decision {
    /// The index of the case decided.
    case: usize,
    traced: bool,
    ms: f64,
    verdict: Result<bool, String>,
    /// Traced only: linearize, simplify (ms), depgraph, wa (µs), and the
    /// linearized program's rule and fact counts.
    layers: Option<[f64; 6]>,
}

/// Decides case `c` through `nuchase::decide`.
fn decide_plain(sigmas: &[Program], cases: &[Case], c: usize) -> Decision {
    let case = &cases[c];
    let mut symbols = case.symbols.clone();
    let t = Instant::now();
    let verdict = nuchase::decide(&case.db, &sigmas[case.sigma].tgds, &mut symbols);
    let ms = t.elapsed().as_secs_f64() * 1e3;
    Decision {
        case: c,
        traced: false,
        ms,
        verdict: verdict.map_err(|e| e.to_string()),
        layers: None,
    }
}

/// Decides through the same public steps `decide` takes for guarded Σ
/// (Thm 8.3: linearize, simplify, then weak acyclicity), one span each.
fn decide_traced(
    sigmas: &[Program],
    cases: &[Case],
    c: usize,
    unit: u64,
    tracer: &mut Tracer,
) -> Decision {
    let case = &cases[c];
    let (db, mut symbols) = (&case.db, case.symbols.clone());
    let tgds = &sigmas[case.sigma].tgds;
    let t = Instant::now();
    let root = tracer.open("bench.decide", unit, None);
    let verdict = (|| {
        let t0 = Instant::now();
        let lin = tracer.time("rewrite.linearize", unit, Some(root), || {
            tgds.check_class(TgdClass::Guarded)
                .map_err(|e| e.to_string())?;
            nuchase_rewrite::linearize(db, tgds, &mut symbols).map_err(|e| e.to_string())
        })?;
        let t1 = Instant::now();
        let s = tracer.time("rewrite.simplify", unit, Some(root), || {
            nuchase_rewrite::simplify(&lin.database, &lin.tgds, &mut symbols)
                .map_err(|e| e.to_string())
        })?;
        let t2 = Instant::now();
        let graph = tracer.time("core.depgraph", unit, Some(root), || DepGraph::new(&s.tgds));
        let t3 = Instant::now();
        let wa = tracer.time("core.wa", unit, Some(root), || {
            is_weakly_acyclic_with(&s.database, &graph)
        });
        let t4 = Instant::now();
        let layers = [
            (t1 - t0).as_secs_f64() * 1e3,
            (t2 - t1).as_secs_f64() * 1e3,
            (t3 - t2).as_secs_f64() * 1e6,
            (t4 - t3).as_secs_f64() * 1e6,
            lin.tgds.len() as f64,
            lin.database.len() as f64,
        ];
        Ok((wa, layers))
    })();
    tracer.close(root);
    let ms = t.elapsed().as_secs_f64() * 1e3;
    Decision {
        case: c,
        traced: true,
        ms,
        layers: verdict.as_ref().ok().map(|(_, l)| *l),
        verdict: verdict.map(|(v, _)| v),
    }
}

/// Whole rounds over every case, each in a seeded order, until
/// `seconds` have elapsed (at least [`MIN_ROUNDS`] untraced). With
/// `interleave`, every second round is traced, so traced and untraced
/// decisions share the machine's conditions and their difference is the
/// tracing overhead.
fn rounds(
    cases: usize,
    seconds: f64,
    interleave: bool,
    rng: &mut Rng,
    mut decide: impl FnMut(usize, bool) -> Decision,
) -> Vec<Decision> {
    let start = Instant::now();
    let mut out = Vec::new();
    let mut round = 0;
    let plain_rounds = |r: usize| if interleave { r.div_ceil(2) } else { r };
    while plain_rounds(round) < MIN_ROUNDS || start.elapsed().as_secs_f64() < seconds {
        let traced = interleave && round % 2 == 1;
        let mut order: Vec<usize> = (0..cases).collect();
        rng.shuffle(&mut order);
        for c in order {
            out.push(decide(c, traced));
        }
        round += 1;
    }
    out
}

/// Per case, the [`best`] of its decision times over the run.
fn best_ms(decisions: &[&Decision], cases: usize) -> Vec<f64> {
    let mut by_case = vec![Vec::new(); cases];
    for d in decisions {
        by_case[d.case].push(d.ms);
    }
    by_case.iter().map(|ms| best(ms)).collect()
}

pub fn run(args: &Args) -> Result<Report, String> {
    let texts = sigma_texts();
    let mut setups = Vec::new();
    let mut sigmas = Vec::new();
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        sigmas = set_up(&texts)?;
        setups.push(t.elapsed().as_secs_f64());
    }
    let cases = cases(&sigmas, args.seed);
    let mut rng = Rng::new(args.seed, 2);
    let mut tracer = Tracer::new(Instant::now());
    let mut unit = 0;
    let all = rounds(
        cases.len(),
        args.seconds,
        args.traced,
        &mut rng,
        |c, traced| {
            unit += 1;
            if traced {
                decide_traced(&sigmas, &cases, c, unit, &mut tracer)
            } else {
                decide_plain(&sigmas, &cases, c)
            }
        },
    );
    let (traced, plain): (Vec<&Decision>, Vec<&Decision>) = all.iter().partition(|d| d.traced);
    let peak_rss = peak_rss_mb("self").map_err(|e| e.to_string())?;

    let mut report = Report::default();
    for d in &all {
        report.attempted += 1;
        if let Err(e) = &d.verdict {
            report.failed += 1;
            report.check(false, || format!("case {}: {e}", d.case));
        }
    }
    // Every decision of a case must agree with its first.
    for d in &all {
        let first = all.iter().find(|e| e.case == d.case).expect("d itself");
        report.check(d.verdict == first.verdict, || {
            format!(
                "case {}: verdicts {:?} and {:?} on the same input",
                d.case, first.verdict, d.verdict
            )
        });
    }
    // Ground truth on a sample, outside the timed region: per Σ, the two
    // smallest databases, chased to a budget far above any terminating
    // chase of these Σ (the e08 criterion).
    for sigma in 0..SIGMA_SEEDS.len() {
        let mut sample: Vec<usize> = (0..cases.len())
            .filter(|&c| cases[c].sigma == sigma)
            .collect();
        sample.sort_by_key(|&c| cases[c].facts);
        for c in sample.into_iter().take(2) {
            let case = &cases[c];
            let verdict = &all
                .iter()
                .find(|d| d.case == c)
                .expect("every case decided")
                .verdict;
            let budget = REFERENCE_ATOMS_PER_FACT * case.facts;
            let r = nuchase_engine::semi_oblivious_chase(&case.db, &sigmas[sigma].tgds, budget);
            report.check(*verdict == Ok(r.terminated()), || {
                format!(
                    "Σ seed {} on {} facts: decide says {verdict:?}, the chase to {budget} atoms {}",
                    SIGMA_SEEDS[sigma],
                    case.facts,
                    if r.terminated() {
                        "terminated"
                    } else {
                        "did not terminate"
                    }
                )
            });
        }
    }

    let best = best_ms(&plain, cases.len());
    report.set("setup_s", median(&setups));
    report.set("peak_rss_mb", peak_rss);
    report.set(
        "rate_per_s",
        ratio(best.len() as f64, best.iter().sum::<f64>() / 1e3),
    );
    // The geometric mean: a typical decision over sizes spread 8×, which
    // averages every case's timing where a median would rest on one.
    report.set("latency_ms", geomean(&best));
    println!(
        "decide_guarded: {} decisions of {} cases ({} Σ × {} sizes), {} terminating",
        plain.len(),
        cases.len(),
        SIGMA_SEEDS.len(),
        SIZES.len(),
        plain.iter().filter(|d| d.verdict == Ok(true)).count()
    );
    for facts in SIZES {
        let by_size: Vec<f64> = (0..cases.len())
            .filter(|&c| cases[c].facts == facts)
            .map(|c| best[c])
            .collect();
        println!(
            "  {facts:>5} facts: best {:>8.2} ms (median over the {} Σ)",
            median(&by_size),
            by_size.len()
        );
    }

    if args.traced {
        let layers: Vec<[f64; 6]> = traced.iter().filter_map(|d| d.layers).collect();
        let col = |i: usize| layers.iter().map(|l| l[i]).collect::<Vec<f64>>();
        report.set("rewrite.linearize_ms", median(&col(0)));
        report.set("rewrite.simplify_ms", median(&col(1)));
        report.set("core.depgraph_us", median(&col(2)));
        report.set("core.wa_us", median(&col(3)));
        report.set("rewrite.lin_tgds", mean(&col(4)));
        report.set("rewrite.lin_atoms", mean(&col(5)));
        tracer.report(&mut report);
        let ms: Vec<f64> = plain.iter().map(|d| d.ms).collect();
        report.set("e2e.p50_ms", median(&ms));
        report.set("e2e.tail_ms", quantile(&ms, 0.9));
        let traced_best = best_ms(&traced, cases.len());
        report.set(
            "trace.overhead_frac",
            ratio(geomean(&traced_best), geomean(&best)) - 1.0,
        );
        tracer
            .write_jsonl(&args.trace_path())
            .map_err(|e| e.to_string())?;
    }
    Ok(report)
}
