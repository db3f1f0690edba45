//! `serve_open`: a live `nuchase serve <obda Σ> --socket` process under
//! open-loop load on one unix-socket connection.
//!
//! One sender thread writes requests at seeded Poisson arrival times
//! over a ladder of fixed offered rates; one receiver thread reads the
//! responses. Latency runs from each request's *scheduled* send time to
//! its response line, so a stalled server or a late generator cannot
//! hide queueing. Requests carry inline tenant facts in the shape of the
//! `BENCH_serve` mix: 7 of 8 tenants small, 1 of 8 twenty times larger.

use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use nuchase_engine::{ChaseBudget, ChaseStats, ChaseVariant, Engine, PreparedProgram};
use nuchase_model::{parse_database, parse_program};

use crate::report::Report;
use crate::trace::Tracer;
use crate::util::{mean, median, nproc, peak_rss_mb, quantile, ratio, Rng};
use crate::Args;

/// The OBDA company ontology of `nuchase_gen::scenarios::obda_ontology`
/// (nine simple linear rules), as the program file `serve` loads.
const ONTOLOGY: &str = "\
manager(X) -> employee(X).
worksfor(X, Y) -> employee(X).
worksfor(X, Y) -> dept(Y).
manages(X, Y) -> dept(Y).
assignedto(X, Y) -> employee(X).
assignedto(X, Y) -> project(Y).
employee(X) -> worksfor(X, Y).
dept(Y) -> manages(X, Y).
project(X) -> assignedto(Y, X).
";

const TENANTS: usize = 512;
const SMALL_FACTS: usize = 6;
const LARGE_FACTS: usize = 120;
/// The limit on a step's p99 latency for its rate to count as served:
/// above the ~92 ms p99 the response hold costs at the `low` rate, well
/// below the latencies of a growing backlog.
const LATENCY_LIMIT_MS: f64 = 150.0;
/// Server start-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// The atom budget `serve` runs with by default.
const SERVE_ATOMS: usize = 1_000_000;

/// One offered rate of the ladder, held for `share` of the run in all.
struct Step {
    name: &'static str,
    rate: f64,
    share: f64,
}

/// From mostly idle to past capacity. On the 2-core machine the ladder
/// was set on, capacity was 4500–5000 requests/s: `high` sits well
/// below it, so the host's slow phases do not push it over, and `over`
/// exceeds it, so its backlog grows. At `low` the gaps between
/// arrivals (median 13.9 ms) are long against a chase, so the response
/// hold, not the host's speed, sets the latency.
/// The steps below capacity run in [`CYCLES`] rounds of `low`, `mid`,
/// `high`; `over` runs once, last.
const STEPS: [Step; 4] = [
    Step {
        name: "low",
        rate: 50.0,
        share: 0.4,
    },
    Step {
        name: "mid",
        rate: 1_000.0,
        share: 0.15,
    },
    Step {
        name: "high",
        rate: 2_500.0,
        share: 0.33,
    },
    Step {
        name: "over",
        rate: 7_000.0,
        share: 0.12,
    },
];
const HIGH: usize = 2;
/// Rounds of the steps below capacity. A step's latency percentiles and
/// backlog are the median over its rounds, so a stall of the shared
/// machine during one round does not move them.
const CYCLES: usize = 4;

/// One tenant's facts on one line, in the request syntax.
fn tenant_payloads(rng: &mut Rng) -> Vec<String> {
    let mut large: Vec<bool> = (0..TENANTS).map(|t| t % 8 == 7).collect();
    rng.shuffle(&mut large);
    large
        .iter()
        .enumerate()
        .map(|(t, &large)| {
            let facts = if large { LARGE_FACTS } else { SMALL_FACTS };
            let depts = facts / 4 + 1;
            let mut line = String::new();
            for i in 0..facts {
                let _ = write!(
                    line,
                    "employee(t{t}e{i}). worksfor(t{t}e{i}, t{t}d{}). ",
                    i % depts
                );
                if i % 3 == 0 {
                    let _ = write!(line, "assignedto(t{t}e{i}, t{t}p{}). ", i % 2);
                }
            }
            line.trim_end().to_string()
        })
        .collect()
}

/// A request due at `due_ns` after the load starts, in window `window`.
struct Planned {
    due_ns: u64,
    tenant: usize,
    window: usize,
}

/// One stretch of the ladder at one step's rate, `[start_ns, end_ns)`.
struct Window {
    step: usize,
    start_ns: u64,
    end_ns: u64,
}

/// Arrival offsets of one window: exponential gaps at `rate`, drawn by
/// stratified inverse-CDF sampling in a seeded order, so every window's
/// gaps follow the exponential law closely and the latency quantiles it
/// yields do not hinge on a few lucky draws.
fn arrivals(rate: f64, seconds: f64, rng: &mut Rng) -> Vec<f64> {
    let n = (rate * seconds).round().max(1.0) as usize;
    let mut u: Vec<f64> = (0..n).map(|i| (i as f64 + rng.unit()) / n as f64).collect();
    rng.shuffle(&mut u);
    let mut t = 0.0;
    u.into_iter()
        .map(|u| {
            t += -(1.0 - u).ln() / rate;
            t
        })
        .collect()
}

/// The whole ladder: every request and every window.
fn plan_ladder(seconds: f64, rng: &mut Rng) -> (Vec<Planned>, Vec<Window>) {
    let order = (0..CYCLES)
        .flat_map(|_| 0..HIGH + 1)
        .chain(HIGH + 1..STEPS.len());
    let mut plan = Vec::new();
    let mut windows: Vec<Window> = Vec::new();
    let mut start = 0.0;
    for step in order {
        let rounds = if step <= HIGH { CYCLES } else { 1 };
        let offsets = arrivals(
            STEPS[step].rate,
            seconds * STEPS[step].share / rounds as f64,
            rng,
        );
        let end = start + offsets.last().copied().unwrap_or(0.0);
        for off in offsets {
            plan.push(Planned {
                due_ns: ((start + off) * 1e9) as u64,
                tenant: rng.below(TENANTS),
                window: windows.len(),
            });
        }
        windows.push(Window {
            step,
            start_ns: (start * 1e9) as u64,
            end_ns: (end * 1e9) as u64,
        });
        start = end;
    }
    (plan, windows)
}

/// A child `nuchase serve`, killed and reaped when dropped.
struct Server {
    child: Child,
    socket: PathBuf,
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.socket);
    }
}

/// Spawns a server and connects to it; returns the connection and the
/// time from spawning until the socket accepted.
fn start_server(
    nuchase: &Path,
    program: &Path,
    socket: &Path,
    log: &Path,
) -> Result<(Server, UnixStream, f64), String> {
    let log = std::fs::File::create(log).map_err(|e| format!("{}: {e}", log.display()))?;
    let t = Instant::now();
    let child = Command::new(nuchase)
        .arg("serve")
        .arg(program)
        .args(["--threads", &nproc().to_string(), "--socket"])
        .arg(socket)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(log)
        .spawn()
        .map_err(|e| format!("spawning {}: {e}", nuchase.display()))?;
    let mut server = Server {
        child,
        socket: socket.to_path_buf(),
    };
    loop {
        if let Ok(stream) = UnixStream::connect(socket) {
            return Ok((server, stream, t.elapsed().as_secs_f64()));
        }
        if let Ok(Some(status)) = server.child.try_wait() {
            return Err(format!("nuchase serve exited before accepting: {status}"));
        }
        if t.elapsed() > Duration::from_secs(30) {
            return Err("nuchase serve did not accept within 30 s".into());
        }
        std::thread::sleep(Duration::from_micros(50));
    }
}

/// Sends every tenant's request once, as one pipelined burst, on the
/// connection `start_server` opened; checks the answers against the solo
/// chases and returns the server's peak RSS (MiB) once all are answered.
/// The burst also warms the server's allocator before the ladder.
fn warm(
    stream: UnixStream,
    payloads: &[String],
    reference: &[Counts],
    server_pid: u32,
    report: &mut Report,
) -> Result<f64, String> {
    let timeout = Some(Duration::from_secs(60));
    stream
        .set_read_timeout(timeout)
        .map_err(|e| e.to_string())?;
    let reader = stream.try_clone().map_err(|e| e.to_string())?;
    let mut burst = Vec::new();
    for (i, payload) in payloads.iter().enumerate() {
        let _ = writeln!(burst, "{i} {payload}");
    }
    let (responses, summary, error) = std::thread::scope(|s| {
        let receiver = s.spawn(move || receive(reader, Instant::now()));
        let sent = (&stream).write_all(&burst);
        let _ = stream.shutdown(std::net::Shutdown::Write);
        let received = receiver.join();
        sent.map_err(|e| format!("sending the warm-up burst: {e}"))?;
        received.map_err(|_| "the receiver thread panicked".to_string())
    })?;
    report.attempted += payloads.len() as u64;
    report.check(error.is_none(), || format!("warm-up: {error:?}"));
    report.check(responses.len() == payloads.len(), || {
        format!(
            "warm-up: {} requests sent, {} responses",
            payloads.len(),
            responses.len()
        )
    });
    for (i, r) in responses.iter().enumerate() {
        let failed = r.counts.is_none();
        report.failed += failed as u64;
        report.check(
            r.id == Some(i) && r.counts == reference.get(i).copied(),
            || {
                format!(
                    "warm-up response {i}: request {:?}, {:?}; solo chase {:?}",
                    r.id,
                    r.counts,
                    reference.get(i)
                )
            },
        );
    }
    let want = format!("served {} ok {} error 0", payloads.len(), payloads.len());
    report.check(summary.as_deref() == Some(want.as_str()), || {
        format!("warm-up summary {summary:?}, expected {want:?}")
    });
    peak_rss_mb(&server_pid.to_string()).map_err(|e| e.to_string())
}

/// Counts a response reports, compared against a solo chase.
#[derive(Clone, Copy, PartialEq, Debug)]
struct Counts {
    atoms: usize,
    derived: usize,
    nulls: usize,
}

struct Response {
    id: Option<usize>,
    recv_ns: u64,
    /// `None` for an `error` response.
    counts: Option<Counts>,
    wall_us: f64,
    wait_us: f64,
}

fn parse_response(line: &str, recv_ns: u64) -> Response {
    let mut words = line.split_whitespace();
    let id = words.next().and_then(|w| w.parse().ok());
    let ok = words.next() == Some("ok");
    let field = |key: &str| -> Option<f64> {
        line.split_whitespace()
            .find_map(|w| w.strip_prefix(key)?.strip_prefix('='))
            .and_then(|v| v.parse().ok())
    };
    let counts = match (ok, field("atoms"), field("derived"), field("nulls")) {
        (true, Some(a), Some(d), Some(n)) => Some(Counts {
            atoms: a as usize,
            derived: d as usize,
            nulls: n as usize,
        }),
        _ => None,
    };
    Response {
        id,
        recv_ns,
        counts,
        wall_us: field("wall_us").unwrap_or(0.0),
        wait_us: field("wait_us").unwrap_or(0.0),
    }
}

/// What one ladder over one connection observed.
struct Ladder {
    /// Write start and end per sent request, ns after the load started.
    sent_ns: Vec<(u64, u64)>,
    responses: Vec<Response>,
    summary: Option<String>,
    errors: Vec<String>,
    /// When the load started; every `_ns` field counts from here.
    t0: Instant,
}

fn receive(stream: UnixStream, t0: Instant) -> (Vec<Response>, Option<String>, Option<String>) {
    let mut reader = BufReader::with_capacity(1 << 16, stream);
    let mut responses = Vec::new();
    let mut summary = None;
    let mut line = String::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) => return (responses, summary, None),
            Ok(_) => {
                let now = Instant::now().saturating_duration_since(t0).as_nanos() as u64;
                if line.starts_with("served ") {
                    summary = Some(line.trim().to_string());
                } else {
                    responses.push(parse_response(&line, now));
                }
            }
            Err(e) => return (responses, summary, Some(format!("reading responses: {e}"))),
        }
    }
}

/// Sends the plan over `stream` on schedule while a second thread reads
/// the responses, then closes the write side and waits for the rest.
fn drive(stream: UnixStream, plan: &[Planned], payloads: &[String]) -> Result<Ladder, String> {
    let timeout = Some(Duration::from_secs(60));
    stream
        .set_read_timeout(timeout)
        .map_err(|e| e.to_string())?;
    stream
        .set_write_timeout(timeout)
        .map_err(|e| e.to_string())?;
    let reader = stream.try_clone().map_err(|e| e.to_string())?;
    let t0 = Instant::now() + Duration::from_millis(20);
    std::thread::scope(|s| {
        let receiver = s.spawn(move || receive(reader, t0));
        let mut sent_ns = Vec::with_capacity(plan.len());
        let mut errors = Vec::new();
        let mut buf = Vec::new();
        for (i, p) in plan.iter().enumerate() {
            let due = t0 + Duration::from_nanos(p.due_ns);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let start = Instant::now();
            buf.clear();
            let _ = writeln!(buf, "{i} {}", payloads[p.tenant]);
            if let Err(e) = (&stream).write_all(&buf) {
                errors.push(format!("sending request {i}: {e}"));
                break;
            }
            let ns = |t: Instant| t.saturating_duration_since(t0).as_nanos() as u64;
            sent_ns.push((ns(start), ns(Instant::now())));
        }
        let _ = stream.shutdown(std::net::Shutdown::Write);
        let (responses, summary, error) = receiver
            .join()
            .map_err(|_| "the receiver thread panicked".to_string())?;
        errors.extend(error);
        Ok(Ladder {
            sent_ns,
            responses,
            summary,
            errors,
            t0,
        })
    })
}

/// Per-step figures of one ladder.
#[derive(Default)]
struct StepStats {
    sent: usize,
    ok: usize,
    failed: usize,
    /// Median over the step's windows of each window's p50 and p99.
    p50_ms: f64,
    p99_ms: f64,
    /// Median over the step's windows of the requests still unanswered
    /// when the window ended.
    backlog: f64,
    /// Median over the step's windows of the answers within the latency
    /// limit per second.
    goodput: f64,
    passes: bool,
    hold_us: Vec<f64>,
    wait_us: Vec<f64>,
    exec_us: Vec<f64>,
    busy_frac: f64,
}

/// Checks every response and splits the ladder into its steps.
fn analyse(
    ladder: &Ladder,
    plan: &[Planned],
    windows: &[Window],
    reference: &[Counts],
    report: &mut Report,
) -> Vec<StepStats> {
    for e in &ladder.errors {
        report.check(false, || e.clone());
    }
    // Exactly one response per sent request, in request order.
    let n = ladder.sent_ns.len();
    report.check(ladder.responses.len() == n, || {
        format!("{n} requests sent, {} responses", ladder.responses.len())
    });
    let mut by_id: Vec<Option<&Response>> = vec![None; plan.len()];
    for (pos, r) in ladder.responses.iter().enumerate() {
        report.check(r.id == Some(pos), || {
            format!("response {pos} answers request {:?}: out of order", r.id)
        });
        if let Some(slot) = r.id.and_then(|id| by_id.get_mut(id)) {
            report.check(slot.is_none(), || {
                format!("request {:?} answered twice", r.id)
            });
            *slot = Some(r);
        }
    }
    let oks = ladder
        .responses
        .iter()
        .filter(|r| r.counts.is_some())
        .count();
    let want = format!("served {n} ok {oks} error {}", ladder.responses.len() - oks);
    report.check(ladder.summary.as_deref() == Some(want.as_str()), || {
        format!("summary {:?}, expected {want:?}", ladder.summary)
    });

    let mut steps: Vec<StepStats> = STEPS.iter().map(|_| StepStats::default()).collect();
    let mut per_window: Vec<[Vec<f64>; 4]> = STEPS.iter().map(|_| Default::default()).collect();
    let mut step_secs = vec![0.0; STEPS.len()];
    for (w, window) in windows.iter().enumerate() {
        let st = &mut steps[window.step];
        let mut latency_ms = Vec::new();
        let (mut backlog, mut on_time) = (0usize, 0usize);
        for (i, p) in plan.iter().enumerate().filter(|(_, p)| p.window == w) {
            report.attempted += 1;
            st.sent += (i < n) as usize;
            let resp = by_id[i];
            if resp.is_none_or(|r| r.recv_ns > window.end_ns) {
                backlog += 1;
            }
            let Some((r, counts)) = resp.and_then(|r| Some((r, r.counts?))) else {
                st.failed += 1;
                report.failed += 1;
                continue;
            };
            st.ok += 1;
            report.check(counts == reference[p.tenant], || {
                format!(
                    "request {i}: served {counts:?}, solo chase {:?}",
                    reference[p.tenant]
                )
            });
            let latency_ns = r.recv_ns.saturating_sub(p.due_ns);
            let ms = latency_ns as f64 / 1e6;
            on_time += (ms <= LATENCY_LIMIT_MS) as usize;
            latency_ms.push(ms);
            st.hold_us
                .push(latency_ns as f64 / 1e3 - r.wall_us - r.wait_us);
            st.wait_us.push(r.wait_us);
            st.exec_us.push(r.wall_us);
        }
        let secs = (window.end_ns - window.start_ns) as f64 / 1e9;
        step_secs[window.step] += secs;
        let [p50, p99, backlogs, goodput] = &mut per_window[window.step];
        p50.push(median(&latency_ms));
        p99.push(quantile(&latency_ms, 0.99));
        backlogs.push(backlog as f64);
        goodput.push(ratio(on_time as f64, secs));
    }
    let lanes = nproc() as f64;
    for (k, st) in steps.iter_mut().enumerate() {
        let [p50, p99, backlogs, goodput] = &per_window[k];
        st.p50_ms = median(p50);
        st.p99_ms = median(p99);
        st.backlog = median(backlogs);
        st.goodput = median(goodput);
        st.busy_frac = ratio(st.exec_us.iter().sum::<f64>() / 1e6, step_secs[k] * lanes);
        let max_backlog = (STEPS[k].rate * LATENCY_LIMIT_MS / 1e3).max(1.0);
        st.passes = st.failed == 0 && st.p99_ms <= LATENCY_LIMIT_MS && st.backlog <= max_backlog;
    }
    steps
}

/// Solo in-process chases of every tenant: the reference each response
/// is checked against.
fn solo_reference(payloads: &[String]) -> Result<Vec<Counts>, String> {
    let mut program = parse_program(ONTOLOGY).map_err(|e| e.to_string())?;
    let prepared = PreparedProgram::compile(program.tgds.clone());
    let engine = serve_engine(0);
    payloads
        .iter()
        .map(|payload| {
            let extra = parse_database(payload, &mut program.symbols).map_err(|e| e.to_string())?;
            let mut db = program.database.clone();
            for atom in extra.iter() {
                db.insert_terms(atom.pred, atom.args);
            }
            let r = engine.chase(&prepared, &db);
            Ok(Counts {
                atoms: r.instance.len(),
                derived: r.stats.atoms_created,
                nulls: r.stats.nulls_created,
            })
        })
        .collect()
}

/// An engine configured as `nuchase serve` configures its own.
fn serve_engine(threads: usize) -> Engine {
    Engine::builder()
        .variant(ChaseVariant::SemiOblivious)
        .budget(ChaseBudget::atoms(SERVE_ATOMS))
        .threads(threads)
        .build()
}

pub fn run(args: &Args) -> Result<Report, String> {
    let nuchase = args
        .nuchase
        .as_deref()
        .ok_or("serve_open needs --nuchase <path to the nuchase binary>")?;
    let mut rng = Rng::new(args.seed, 3);
    let payloads = tenant_payloads(&mut rng);
    let reference = solo_reference(&payloads)?;
    let program_path = args.out.join("obda.dlp");
    std::fs::write(&program_path, ONTOLOGY).map_err(|e| e.to_string())?;
    let socket = args.out.join(format!("serve-{}.sock", std::process::id()));
    if socket.as_os_str().len() > 100 {
        return Err(format!("socket path {} is too long", socket.display()));
    }
    let log = args.out.join("serve.log");

    let mut report = Report::default();
    let mut setups = Vec::new();
    let mut rss = Vec::new();
    let mut live = None;
    for _ in 0..SETUP_REPS {
        drop(live.take());
        let (server, stream, secs) = start_server(nuchase, &program_path, &socket, &log)?;
        setups.push(secs);
        rss.push(warm(
            stream,
            &payloads,
            &reference,
            server.child.id(),
            &mut report,
        )?);
        live = Some(server);
    }
    let server = live.expect("SETUP_REPS > 0");
    let stream = UnixStream::connect(&socket).map_err(|e| format!("reconnecting: {e}"))?;

    // A traced run gives 60% of its time to the socket ladder, 40% to
    // the in-process replay.
    let ladder_seconds = if args.traced {
        args.seconds * 0.6
    } else {
        args.seconds
    };
    let (plan, windows) = plan_ladder(ladder_seconds, &mut rng);
    let mut tracer = Tracer::new(Instant::now());
    let ladder = drive(stream, &plan, &payloads)?;
    drop(server);
    let steps = analyse(&ladder, &plan, &windows, &reference, &mut report);
    let goodput = steps
        .iter()
        .filter(|s| s.passes)
        .map(|s| s.goodput)
        .fold(0.0, f64::max);
    report.set("setup_s", median(&setups));
    // The smallest of the servers' peaks: how far a burst piles up in a
    // server depends on how the host shares its cores between the
    // server's reader and its workers at that moment, which swings the
    // peaks of identical servers by half and more.
    report.set(
        "peak_rss_mb",
        rss.iter().copied().fold(f64::INFINITY, f64::min),
    );
    report.set("rate_per_s", goodput);
    // Latency is read at `low`, where a response waits for the next
    // arrival (the response hold, see the README) and the wait is long
    // against a chase. At `mid` and `high` it is quantized by the hold (a
    // job that finishes just after the next arrival waits for one more),
    // so the CPU other tenants of a shared 2-core machine take moves the
    // p50 by half and the p99 several-fold; those are reported per layer
    // as `serve.<step>.p50_ms` and `.p99_ms`.
    report.set("latency_ms", steps[0].p50_ms);
    report.set("e2e.p50_ms", steps[0].p50_ms);
    report.set("e2e.tail_ms", steps[0].p99_ms);
    println!(
        "servers: {SETUP_REPS} starts, peak RSS after the warm-up burst {} MiB",
        rss.iter()
            .map(|r| format!("{r:.2}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    for (step, st) in STEPS.iter().zip(&steps) {
        println!(
            "step {:<4} {:>6.0}/s: sent {:>6} ok {:>6} failed {:>3}  p50 {:>8.3} ms  p99 {:>8.3} ms  \
             backlog {:>5}  goodput {:>8.1}/s  {}",
            step.name,
            step.rate,
            st.sent,
            st.ok,
            st.failed,
            st.p50_ms,
            st.p99_ms,
            st.backlog,
            st.goodput,
            if st.passes { "meets the limit" } else { "misses the limit" }
        );
    }

    if args.traced {
        report_ladder_layers(&mut report, &ladder, &plan, &windows, &steps);
        ladder_spans(&mut tracer, &ladder, &plan, &windows);
        let replayed = replay(
            &payloads,
            &reference,
            args.seconds * 0.4,
            &mut rng,
            (&mut tracer, plan.len() as u64),
            &mut report,
        )?;
        report_replay_layers(&mut report, &replayed);
        tracer.report(&mut report);
        // Even requests were traced, odd ones not.
        let latency = &replayed.latency_us;
        let traced: Vec<f64> = latency.iter().step_by(2).copied().collect();
        let plain: Vec<f64> = latency.iter().skip(1).step_by(2).copied().collect();
        report.set(
            "trace.overhead_frac",
            ratio(median(&traced), median(&plain)) - 1.0,
        );
        tracer
            .write_jsonl(&args.trace_path())
            .map_err(|e| e.to_string())?;
    }
    Ok(report)
}

/// Spans of the socket ladder below capacity, built from the timestamps
/// it took anyway: per request, a `cli.serve.request` root from the due
/// time to the response line, and under it the client's own `bench.send`
/// (due time to the end of the write, so generator lateness is not
/// booked to the server).
fn ladder_spans(tracer: &mut Tracer, ladder: &Ladder, plan: &[Planned], windows: &[Window]) {
    let at = |ns: u64| ladder.t0 + Duration::from_nanos(ns);
    for r in &ladder.responses {
        let Some(i) =
            r.id.filter(|&i| i < ladder.sent_ns.len() && windows[plan[i].window].step <= HIGH)
        else {
            continue;
        };
        let (due, unit) = (at(plan[i].due_ns), i as u64);
        let root = tracer.span("cli.serve.request", unit, None, due, at(r.recv_ns));
        tracer.span("bench.send", unit, Some(root), due, at(ladder.sent_ns[i].1));
    }
}

/// Per-layer figures the socket ladder yields: generator honesty, the
/// per-rate table, the `cli` hold and the scheduler's per-job gauges.
fn report_ladder_layers(
    report: &mut Report,
    ladder: &Ladder,
    plan: &[Planned],
    windows: &[Window],
    steps: &[StepStats],
) {
    const PER_STEP: [[&str; 6]; 4] = [
        [
            "gen.backlog.low",
            "serve.low.sent",
            "serve.low.ok",
            "serve.low.failed",
            "serve.low.p50_ms",
            "serve.low.p99_ms",
        ],
        [
            "gen.backlog.mid",
            "serve.mid.sent",
            "serve.mid.ok",
            "serve.mid.failed",
            "serve.mid.p50_ms",
            "serve.mid.p99_ms",
        ],
        [
            "gen.backlog.high",
            "serve.high.sent",
            "serve.high.ok",
            "serve.high.failed",
            "serve.high.p50_ms",
            "serve.high.p99_ms",
        ],
        [
            "gen.backlog.over",
            "serve.over.sent",
            "serve.over.ok",
            "serve.over.failed",
            "serve.over.p50_ms",
            "serve.over.p99_ms",
        ],
    ];
    for (names, st) in PER_STEP.iter().zip(steps) {
        report.set(names[0], st.backlog);
        report.set(names[1], st.sent as f64);
        report.set(names[2], st.ok as f64);
        report.set(names[3], st.failed as f64);
        report.set(names[4], st.p50_ms);
        report.set(names[5], st.p99_ms);
    }
    // Past capacity the server stops reading and the socket pushes back
    // on the sender by design; lateness is judged below capacity.
    let late_us: Vec<f64> = ladder
        .sent_ns
        .iter()
        .zip(plan)
        .filter(|(_, p)| windows[p.window].step <= HIGH)
        .map(|(&(s, _), p)| s.saturating_sub(p.due_ns) as f64 / 1e3)
        .collect();
    report.set("gen.late_p99_us", quantile(&late_us, 0.99));
    let high = &steps[HIGH];
    report.set("cli.serve.hold_us.p50", median(&high.hold_us));
    report.set("cli.serve.hold_us.p99", quantile(&high.hold_us, 0.99));
    report.set(
        "cli.serve.errors",
        ladder
            .responses
            .iter()
            .filter(|r| r.counts.is_none())
            .count() as f64,
    );
    report.set("engine.sched.wait_us.p50", median(&high.wait_us));
    report.set("engine.sched.wait_us.p99", quantile(&high.wait_us, 0.99));
    report.set("engine.sched.exec_us.p50", median(&high.exec_us));
    report.set("engine.sched.exec_us.p99", quantile(&high.exec_us, 0.99));
    report.set("engine.sched.busy_frac", high.busy_frac);
}

/// The in-process replay: the same request stream at the `high` rate,
/// through the calls `serve` makes per request, timed one by one.
struct Replay {
    latency_us: Vec<f64>,
    parse_us: Vec<f64>,
    build_us: Vec<f64>,
    submit_us: Vec<f64>,
    stats: Vec<ChaseStats>,
    busy_frac: f64,
    compile_us: f64,
    engine_build_us: f64,
    program_parse_s: f64,
}

/// Replays `seconds` of open-loop requests at the `high` rate into an
/// in-process engine: `parse_database`, the `Instance` clone and
/// inserts, `Engine::submit_owned`, then a collector thread waits for
/// each job in submission order. Every even request is traced: each call
/// gets a span under one `bench.request` root, with span units counting
/// from `first_unit`. Odd requests take only the timestamps every
/// request takes, so the two halves differ by the tracing alone.
fn replay(
    payloads: &[String],
    reference: &[Counts],
    seconds: f64,
    rng: &mut Rng,
    (tracer, first_unit): (&mut Tracer, u64),
    report: &mut Report,
) -> Result<Replay, String> {
    let t = Instant::now();
    let mut program = parse_program(ONTOLOGY).map_err(|e| e.to_string())?;
    let t1 = Instant::now();
    let prepared = PreparedProgram::compile(program.tgds.clone());
    let t2 = Instant::now();
    let engine = serve_engine(nproc());
    let t3 = Instant::now();
    let offsets = arrivals(STEPS[HIGH].rate, seconds, rng);
    let tenants: Vec<usize> = offsets.iter().map(|_| rng.below(TENANTS)).collect();
    let mut out = Replay {
        latency_us: Vec::new(),
        parse_us: Vec::new(),
        build_us: Vec::new(),
        submit_us: Vec::new(),
        stats: Vec::new(),
        busy_frac: 0.0,
        compile_us: (t2 - t1).as_secs_f64() * 1e6,
        engine_build_us: (t3 - t2).as_secs_f64() * 1e6,
        program_parse_s: (t1 - t).as_secs_f64(),
    };
    let t0 = Instant::now() + Duration::from_millis(20);
    let (tx, rx) = mpsc::channel();
    let mut submitted = Vec::with_capacity(offsets.len());
    let done = std::thread::scope(|s| -> Result<Vec<_>, String> {
        let collector = s.spawn(move || {
            rx.into_iter()
                .map(|(i, handle): (usize, nuchase_engine::JobHandle)| {
                    let result = handle.wait();
                    (i, Instant::now(), result)
                })
                .collect::<Vec<_>>()
        });
        for (i, (&off, &tenant)) in offsets.iter().zip(&tenants).enumerate() {
            let due = t0 + Duration::from_secs_f64(off);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let (unit, traced) = (first_unit + i as u64, i % 2 == 0);
            let root = traced.then(|| tracer.open("bench.request", unit, None));
            let a = Instant::now();
            let extra = parse_database(&payloads[tenant], &mut program.symbols);
            let b = Instant::now();
            let extra = extra.map_err(|e| e.to_string())?;
            let mut db = program.database.clone();
            for atom in extra.iter() {
                db.insert_terms(atom.pred, atom.args);
            }
            let c = Instant::now();
            let handle = engine.submit_owned(&prepared, db);
            let d = Instant::now();
            if traced {
                tracer.span("model.parse", unit, root, a, b);
                tracer.span("model.instance_build", unit, root, b, c);
                tracer.span("engine.session.submit", unit, root, c, d);
            }
            out.parse_us.push((b - a).as_secs_f64() * 1e6);
            out.build_us.push((c - b).as_secs_f64() * 1e6);
            out.submit_us.push((d - c).as_secs_f64() * 1e6);
            submitted.push((due, d, root));
            tx.send((i, handle))
                .map_err(|_| "the collector thread stopped".to_string())?;
        }
        drop(tx);
        collector
            .join()
            .map_err(|_| "the collector thread panicked".to_string())
    })?;
    let elapsed = done
        .last()
        .map_or(0.0, |(_, at, _)| (*at - t0).as_secs_f64());
    for (i, at, result) in done {
        let (due, submitted_at, root) = submitted[i];
        if let Some(root) = root {
            tracer.span(
                "engine.sched.job",
                first_unit + i as u64,
                Some(root),
                submitted_at,
                at,
            );
            tracer.close_at(root, at);
        }
        report.attempted += 1;
        let got = Counts {
            atoms: result.instance.len(),
            derived: result.stats.atoms_created,
            nulls: result.stats.nulls_created,
        };
        let failed = result.outcome.name() == "failed";
        report.failed += failed as u64;
        report.check(got == reference[tenants[i]] && !failed, || {
            format!(
                "replayed request {i}: {got:?}, solo chase {:?}",
                reference[tenants[i]]
            )
        });
        out.latency_us.push((at - due).as_secs_f64() * 1e6);
        out.stats.push(result.stats);
    }
    let exec: f64 = out.stats.iter().map(|s| s.wall_secs).sum();
    out.busy_frac = ratio(exec, elapsed * nproc() as f64);
    Ok(out)
}

/// Per-layer figures of the replay, each per request.
fn report_replay_layers(report: &mut Report, r: &Replay) {
    report.set("model.parse_us", median(&r.parse_us));
    report.set("model.instance_build_us", median(&r.build_us));
    report.set("model.parse_s", r.program_parse_s);
    report.set("engine.compile_us", r.compile_us);
    report.set("engine.build_us", r.engine_build_us);
    report.set("engine.submit_us", median(&r.submit_us));
    report.set("engine.sched.busy_frac_replay", r.busy_frac);
    let occupancy: Vec<f64> = r.stats.iter().map(|s| s.sched_occupancy).collect();
    report.set(
        "engine.sched.occupancy_max",
        occupancy.iter().copied().fold(0.0, f64::max),
    );
    report.set("engine.sched.occupancy_mean", mean(&occupancy));
    let stats: Vec<&ChaseStats> = r.stats.iter().collect();
    report.set_chase_stats(&stats, stats.len());
}
