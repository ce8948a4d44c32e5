//! The shape every workload shares, and the two ways a run drives one:
//! untraced (end-to-end metrics) and traced (per-layer metrics).

use std::cell::Cell;
use std::path::PathBuf;
use std::time::Instant;

use crate::procfs;
use crate::report::Metric;
use crate::stats::{self, median};
use crate::trace::Tracer;

/// What a run knows before it builds anything.
pub struct Ctx {
    pub seed: u64,
    /// Seconds the timed loop measures for.
    pub seconds: f64,
    /// This run's private scratch directory (absolute, inside the checkout).
    pub work: PathBuf,
    /// The same directory relative to the working directory (short enough
    /// for Unix socket paths).
    pub rel_work: PathBuf,
    /// Engine threads: min(2, nproc).
    pub threads: usize,
    /// Source of run-unique names.
    pub ids: Cell<u64>,
}

impl Ctx {
    /// A number no earlier call in this run returned.
    pub fn next_id(&self) -> u64 {
        let id = self.ids.get();
        self.ids.set(id + 1);
        id
    }

    /// A fresh subdirectory of the run's scratch directory.
    pub fn fresh_dir(&self, name: &str) -> Result<PathBuf, String> {
        let dir = self.work.join(name);
        if dir.exists() {
            std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(dir)
    }
}

/// One timed repetition: an interact, a scan, or a round of requests.
pub struct Rep {
    pub seconds: f64,
    /// Operations it completed (1, the window count, or the request count).
    pub ops: u64,
    /// Useful max-plus FLOPs the engine performed.
    pub flops: u64,
    /// Operations whose output failed its check.
    pub failed: u64,
    /// Per-operation latencies, when the repetition has more than one op
    /// and each op has its own latency (serve requests).
    pub latencies: Vec<f64>,
}

pub trait Workload: Sized {
    const NAME: &'static str;
    /// Set-ups timed per untraced run; `setup_s` is their median.
    const SETUP_REPS: usize;
    /// Whether a traced run of another workload warms this one before its
    /// single probe repetition.
    const PROBE_WARM: bool;

    /// Build the program's state and, when `warm`, run one untimed warm-up
    /// op. This is what `setup_s` times.
    fn setup(ctx: &Ctx, warm: bool) -> Result<Self, String>;
    /// Reference results the output checks compare against (never part of
    /// `setup_s` or of a timed repetition).
    fn reference(&mut self, _tr: &Tracer) -> Result<(), String> {
        Ok(())
    }
    /// One timed repetition, with spans around each layer call.
    fn rep(&mut self, tr: &Tracer, op: u64) -> Result<Rep, String>;
    /// Side measurements of this workload's layers, for a traced run.
    fn layers(&mut self, _tr: &Tracer) -> Result<(), String> {
        Ok(())
    }
    /// Checks that need the whole run; returns the ops that failed them.
    fn check(&mut self) -> Result<u64, String> {
        Ok(0)
    }
    /// Stop everything the state started and remove its files.
    fn close(self) -> Result<(), String> {
        Ok(())
    }
}

/// The result line's counts plus its metrics.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

/// Repeat `rep` for about `budget` seconds (at least three repetitions,
/// so every median has a middle): a repetition starts only when the
/// median so far predicts it ends within the budget.
fn timed_loop<W: Workload>(
    w: &mut W,
    tr: &Tracer,
    budget: f64,
    first_op: u64,
) -> Result<Vec<Rep>, String> {
    let start = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    loop {
        reps.push(w.rep(tr, first_op + reps.len() as u64)?);
        let typical = median(&reps.iter().map(|r| r.seconds).collect::<Vec<_>>());
        if reps.len() >= 3 && start.elapsed().as_secs_f64() + typical > budget {
            return Ok(reps);
        }
    }
}

fn seconds(reps: &[Rep]) -> Vec<f64> {
    reps.iter().map(|r| r.seconds).collect()
}

/// The untraced run: time `SETUP_REPS` set-ups, then measure.
pub fn run_untraced<W: Workload>(ctx: &Ctx) -> Result<Outcome, String> {
    let mut setup_times = Vec::new();
    let mut kept = None;
    for _ in 0..W::SETUP_REPS {
        if let Some(old) = kept.take() {
            W::close(old)?;
        }
        let t = Instant::now();
        kept = Some(W::setup(ctx, true)?);
        setup_times.push(t.elapsed().as_secs_f64());
    }
    let mut w = kept.expect("SETUP_REPS >= 1");
    w.reference(&Tracer::new(false))?;
    let reps = timed_loop(&mut w, &Tracer::new(false), ctx.seconds, 0)?;
    let late_failed = w.check()?;
    w.close()?;

    let secs = seconds(&reps);
    let ops_per_rep = reps[0].ops;
    assert!(
        reps.iter().all(|r| r.ops == ops_per_rep),
        "every repetition of {} does the same work",
        W::NAME
    );
    let per_op: Vec<f64> = reps
        .iter()
        .flat_map(|r| r.latencies.iter().copied())
        .collect();
    let latencies = if per_op.is_empty() {
        secs.clone()
    } else {
        per_op
    };
    let p50 = median(&latencies);
    let tail = match stats::tail(&latencies) {
        Some(t) => {
            eprintln!(
                "{}: latency p50 {p50:.6} s, p{} {:.6} s (n={})",
                W::NAME,
                t.percentile,
                t.value,
                t.n
            );
            t.value
        }
        None => {
            eprintln!(
                "{}: latency p50 {p50:.6} s (n={}); no percentile has 10 samples \
                 beyond it, so latency_tail_s repeats the p50",
                W::NAME,
                latencies.len()
            );
            p50
        }
    };
    let gflops = median(
        &reps
            .iter()
            .map(|r| r.flops as f64 / r.seconds / 1e9)
            .collect::<Vec<_>>(),
    );
    let attempted: u64 = reps.iter().map(|r| r.ops).sum();
    let failed = reps.iter().map(|r| r.failed).sum::<u64>() + late_failed;
    let list = |xs: &[f64]| {
        xs.iter()
            .map(|x| format!("{x:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    eprintln!(
        "{}: {} repetitions of {ops_per_rep} ops, median {:.6} s\n  repetitions [{}]\n  set-ups [{}]",
        W::NAME,
        reps.len(),
        median(&secs),
        list(&secs),
        list(&setup_times)
    );
    Ok(Outcome {
        attempted,
        failed,
        metrics: vec![
            Metric::new("setup_s", median(&setup_times), "s"),
            Metric::new(
                "ops_per_s",
                stats::median_throughput(ops_per_rep as f64, &secs),
                "1/s",
            ),
            Metric::new("latency_p50_s", p50, "s"),
            Metric::new("latency_tail_s", tail, "s"),
            Metric::new("gflops", gflops, "GFLOP/s"),
            Metric::new("peak_rss_mib", procfs::peak_rss_mib(), "MiB"),
        ],
    })
}

/// Counts a traced run accumulates across every workload it drives.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    fn add(&mut self, reps: &[Rep], late_failed: u64) {
        self.attempted += reps.iter().map(|r| r.ops).sum::<u64>();
        self.failed += reps.iter().map(|r| r.failed).sum::<u64>() + late_failed;
    }
}

/// The traced run's own workload: untraced and traced repetitions
/// alternate for the budget, so host-speed phases hit both alike (their
/// median ratio is `trace.overhead`); then its side measurements. Returns
/// the untraced median repetition time.
pub fn trace_own<W: Workload>(ctx: &Ctx, tr: &Tracer, tally: &mut Tally) -> Result<f64, String> {
    let mut w = W::setup(ctx, true)?;
    w.reference(tr)?;
    let off = Tracer::new(false);
    let start = Instant::now();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    loop {
        plain.push(w.rep(&off, plain.len() as u64)?);
        traced.push(w.rep(tr, 1_000_000 + traced.len() as u64)?);
        let pair = median(&seconds(&plain)) + median(&seconds(&traced));
        if plain.len() >= 3 && start.elapsed().as_secs_f64() + pair > ctx.seconds {
            break;
        }
    }
    let untraced_s = median(&seconds(&plain));
    tr.count("trace.overhead", median(&seconds(&traced)) / untraced_s);
    w.layers(tr)?;
    let late = w.check()?;
    w.close()?;
    tally.add(&plain, 0);
    tally.add(&traced, late);
    Ok(untraced_s)
}

/// Another workload in a traced run: one traced repetition plus its side
/// measurements, so every layer is measured in every traced run.
pub fn probe<W: Workload>(
    ctx: &Ctx,
    tr: &Tracer,
    tally: &mut Tally,
    op: u64,
) -> Result<(), String> {
    let mut w = W::setup(ctx, W::PROBE_WARM)?;
    w.reference(tr)?;
    let rep = w.rep(tr, op)?;
    w.layers(tr)?;
    let late = w.check()?;
    w.close()?;
    tally.add(std::slice::from_ref(&rep), late);
    Ok(())
}
