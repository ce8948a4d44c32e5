//! End-to-end benchmark of the bpmax workspace.
//!
//! ```text
//! cargo run --release --manifest-path e2e_bench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. Workloads: `solve-large`,
//! `batch-journaled`, `scan-sharded`, `serve-mixed` (see NOTES.md). With
//! `--trace 0` the last line of standard output is a JSON object with the
//! end-to-end metrics; with `--trace 1` it carries the per-layer metrics,
//! and the spans are written under `.bench_work/traces/`. Every output is
//! checked; failures are counted in `failed`. Progress notes go to
//! standard error. Scratch files live under `.bench_work/` and are
//! removed when the run ends.

mod inputs;
mod layers;
mod procfs;
mod report;
mod scan;
mod schedule;
mod serve;
mod solve;
mod stats;
mod trace;
mod workload;

use std::cell::Cell;
use std::path::PathBuf;
use std::process::ExitCode;

use scan::{BatchJournaled, ScanSharded};
use serve::ServeMixed;
use solve::SolveLarge;
use workload::{run_untraced, Ctx, Outcome};

pub const WORKLOADS: [&str; 4] = [
    "solve-large",
    "batch-journaled",
    "scan-sharded",
    "serve-mixed",
];

/// Scratch space, relative to the repository root the benchmark runs from.
const WORK_DIR: &str = ".bench_work";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let value = |flag: &str| -> Result<&str, String> {
        let at = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(at + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = value("--workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".to_string());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn measure(args: &Args, ctx: &Ctx) -> Result<Outcome, String> {
    if args.trace {
        return layers::run_traced(&args.workload, ctx, &PathBuf::from(WORK_DIR).join("traces"));
    }
    match args.workload.as_str() {
        "solve-large" => run_untraced::<SolveLarge>(ctx),
        "batch-journaled" => run_untraced::<BatchJournaled>(ctx),
        "scan-sharded" => run_untraced::<ScanSharded>(ctx),
        _ => run_untraced::<ServeMixed>(ctx),
    }
}

fn run(argv: &[String]) -> Result<String, String> {
    let args = parse_args(argv)?;
    let rel_work = PathBuf::from(WORK_DIR).join(format!("run-{}", std::process::id()));
    let cwd = std::env::current_dir().map_err(|e| format!("working directory: {e}"))?;
    let work = cwd.join(&rel_work);
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        work: work.clone(),
        rel_work,
        threads: nproc.min(2),
        ids: Cell::new(0),
    };
    eprintln!(
        "e2e-bench: {} seed {} for {} s, trace {}, nproc {nproc}, engine threads {}",
        args.workload, args.seed, args.seconds, args.trace, ctx.threads
    );
    let outcome = measure(&args, &ctx);
    let cleaned = std::fs::remove_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()));
    let out = outcome?;
    cleaned?;
    report::result_line(out.failed == 0, out.attempted, out.failed, &out.metrics)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    // A coordinator worker (scan-sharded re-invokes this binary): rebuild
    // the windows from the seed and work the ledger.
    if let Some(env) = bpmax::coordinator::worker_env() {
        let seed = argv
            .iter()
            .position(|a| a == "--seed")
            .and_then(|at| argv.get(at + 1)?.parse().ok());
        let Some(seed) = seed else {
            eprintln!("e2e-bench worker: missing --seed");
            return ExitCode::from(2);
        };
        return match scan::run_worker(seed, &env) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("e2e-bench worker: {e}");
                ExitCode::from(1)
            }
        };
    }
    match run(&argv) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("e2e-bench: {e}");
            ExitCode::from(1)
        }
    }
}
