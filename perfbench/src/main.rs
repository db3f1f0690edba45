//! The nuchase benchmark: one command, four workloads.
//!
//! ```text
//! perfbench --workload <serve_open|chase_wide|chase_deep|decide_guarded>
//!           --seed <n> --seconds <s> --trace <0|1>
//!           --nuchase <path to the nuchase binary> --out <scratch dir>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` runs the
//! traced measurement and reports the per-layer metrics. Either way the
//! outputs are checked, the last line of standard output is the JSON
//! result, and the exit code is nonzero when any check failed. See
//! `README.md` for the workloads and metrics.

mod chase;
mod decide;
mod report;
mod serve;
mod trace;
mod util;

use std::path::PathBuf;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// The `nuchase` binary the serve workload drives.
    pub nuchase: Option<PathBuf>,
    /// A directory for sockets, program files and trace dumps.
    pub out: PathBuf,
}

impl Args {
    /// Where a traced run writes its spans; each traced run of a
    /// workload replaces the last one's file.
    pub fn trace_path(&self) -> PathBuf {
        self.out.join(format!("trace-{}.jsonl", self.workload))
    }
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Option<&str> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
    };
    let required = |flag: &str| value(flag).ok_or_else(|| format!("{flag} is required"));
    let seconds: f64 = required("--seconds")?
        .parse()
        .map_err(|_| "--seconds: expected a number".to_string())?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    Ok(Args {
        workload: required("--workload")?.to_string(),
        seed: required("--seed")?
            .parse()
            .map_err(|_| "--seed: expected an unsigned integer".to_string())?,
        seconds,
        traced: match value("--trace").unwrap_or("0") {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace: expected 0 or 1, got {other}")),
        },
        nuchase: value("--nuchase").map(PathBuf::from),
        out: PathBuf::from(required("--out")?),
    })
}

fn main() {
    // The program under test sees only the generated inputs: no tuning
    // knob inherited from the caller's environment.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("NUCHASE_") {
            std::env::remove_var(key);
        }
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("perfbench: cannot create {}: {e}", args.out.display());
        std::process::exit(2);
    }
    let result = match args.workload.as_str() {
        "serve_open" => serve::run(&args),
        "chase_wide" | "chase_deep" => chase::run(&args),
        "decide_guarded" => decide::run(&args),
        other => Err(format!("unknown workload {other}")),
    };
    let mut report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    report.check(report.attempted > 0, || "no operation was attempted".into());
    report.print(args.traced);
    if !report.correct() {
        std::process::exit(1);
    }
}
