//! The two scan workloads: every 16-nt window of the seeded target
//! against the seeded 12-nt query, 1200 problems of 12 × 16.
//!
//! batch-journaled runs the `scan --batch --checkpoint-dir` path
//! (`BatchEngine::solve_all_checkpointed`); scan-sharded runs the
//! `scan --batch --workers 2` path (`coordinator::run`, with this binary
//! re-invoked as the worker). One op is one window; one repetition is one
//! whole scan.

use std::path::{Path, PathBuf};
use std::time::Instant;

use bpmax::checkpoint::{self, CheckpointSink, JournalRecord, RunManifest};
use bpmax::coordinator::{self, CoordinatorOptions, WorkerCommand, WorkerEnv};
use bpmax::{BatchEngine, BatchOptions, BatchReport, BpMaxProblem, Outcome};

use crate::inputs;
use crate::procfs;
use crate::trace::Tracer;
use crate::workload::{Ctx, Rep, Workload};

/// Score bits per window from a plain `solve_all` of the same windows.
fn plain_reference(
    problems: &[BpMaxProblem],
    threads: usize,
    tr: &Tracer,
) -> Result<Vec<u32>, String> {
    let engine =
        BatchEngine::new(BatchOptions::new().threads(threads)).map_err(|e| e.to_string())?;
    let report = tr
        .span("batch.solve", 0, || engine.solve_all(problems))
        .map_err(|e| format!("plain scan: {e}"))?;
    tr.count("batch.coarse_fraction", report.coarse_fraction());
    if let Some(bad) = report.items.iter().find(|i| i.outcome != Outcome::Ok) {
        return Err(format!(
            "plain scan: window {} ended {}",
            bad.index, bad.outcome
        ));
    }
    Ok(report.items.iter().map(|i| i.score.to_bits()).collect())
}

/// Windows whose scanned result is not bit-identical to the reference:
/// wrong position, wrong score bits or an unscored outcome.
fn mismatches(report: &BatchReport, reference: &[u32]) -> u64 {
    if report.items.len() != reference.len() {
        return reference.len() as u64;
    }
    report
        .items
        .iter()
        .zip(reference)
        .enumerate()
        .filter(|(k, (item, &want))| {
            item.index != *k || item.outcome != Outcome::Ok || item.score.to_bits() != want
        })
        .count() as u64
}

fn remove(dir: &Path) -> Result<(), String> {
    std::fs::remove_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))
}

fn count_files(dir: &Path) -> u64 {
    std::fs::read_dir(dir).map_or(0, |entries| {
        entries
            .flatten()
            .map(|e| match e.file_type() {
                Ok(t) if t.is_dir() => count_files(&e.path()),
                _ => 1,
            })
            .sum()
    })
}

fn flops(problems: &[BpMaxProblem]) -> u64 {
    problems.iter().map(BpMaxProblem::flops).sum()
}

// ---------------------------------------------------------------------------
// batch-journaled
// ---------------------------------------------------------------------------

pub struct BatchJournaled {
    ctx_threads: usize,
    work: PathBuf,
    problems: Vec<BpMaxProblem>,
    engine: BatchEngine,
    reference: Vec<u32>,
}

impl BatchJournaled {
    fn scan(&self, dir: &Path) -> Result<BatchReport, String> {
        self.engine
            .solve_all_checkpointed(&self.problems, dir)
            .map_err(|e| format!("checkpointed scan: {e}"))
    }

    fn fresh_dir(&self, name: &str) -> Result<PathBuf, String> {
        let dir = self.work.join(name);
        if dir.exists() {
            remove(&dir)?;
        }
        Ok(dir)
    }

    /// Windows the journal does not replay exactly: a missing, duplicated
    /// or differing record for any window of `report`.
    fn replay_mismatches(report: &BatchReport, dir: &Path) -> u64 {
        let Ok((_, records, _)) = checkpoint::load(dir) else {
            return report.items.len() as u64;
        };
        let mut seen = vec![0_u32; report.items.len()];
        let mut bad = 0;
        for rec in &records {
            match report.items.get(rec.index as usize) {
                Some(item) if item.score.to_bits() == rec.score.to_bits() => {
                    seen[rec.index as usize] += 1;
                }
                _ => bad += 1,
            }
        }
        bad + seen.iter().filter(|&&n| n != 1).count() as u64
    }
}

impl Workload for BatchJournaled {
    const NAME: &'static str = "batch-journaled";
    const SETUP_REPS: usize = 3;
    const PROBE_WARM: bool = true;

    fn setup(ctx: &Ctx, warm: bool) -> Result<Self, String> {
        let problems = inputs::scan_problems(ctx.seed);
        let engine = BatchEngine::new(BatchOptions::new().threads(ctx.threads))
            .map_err(|e| e.to_string())?;
        let w = BatchJournaled {
            ctx_threads: ctx.threads,
            work: ctx.work.clone(),
            problems,
            engine,
            reference: Vec::new(),
        };
        if warm {
            let dir = w.fresh_dir("journal-warm")?;
            w.scan(&dir)?;
            remove(&dir)?;
        }
        Ok(w)
    }

    fn reference(&mut self, tr: &Tracer) -> Result<(), String> {
        self.reference = plain_reference(&self.problems, self.ctx_threads, tr)?;
        Ok(())
    }

    fn rep(&mut self, tr: &Tracer, op: u64) -> Result<Rep, String> {
        let dir = self.fresh_dir(&format!("journal-{op}"))?;
        let io0 = procfs::io();
        let pool0 = self.engine.pool_stats();
        let t = Instant::now();
        let report = tr.span("checkpoint.scan", op, || self.scan(&dir))?;
        let seconds = t.elapsed().as_secs_f64();
        let io = procfs::io().since(&io0);
        tr.count("checkpoint.write_bytes", io.write_bytes as f64);
        tr.count("checkpoint.write_calls", io.write_calls as f64);
        tr.count(
            "batch.pool_allocs",
            self.engine.pool_stats().allocated_since(&pool0) as f64,
        );
        let failed = mismatches(&report, &self.reference)
            .max(Self::replay_mismatches(&report, &dir))
            .min(self.problems.len() as u64);
        remove(&dir)?;
        Ok(Rep {
            seconds,
            ops: self.problems.len() as u64,
            flops: flops(&self.problems),
            failed,
            latencies: Vec::new(),
        })
    }

    /// Time `CheckpointSink::record` per record over a scan-sized journal.
    fn layers(&mut self, tr: &Tracer) -> Result<(), String> {
        let dir = self.fresh_dir("records")?;
        let manifest = RunManifest {
            options_hash: self.engine.options().fingerprint(),
            seed: 0,
            problem_ids: self.problems.iter().map(checkpoint::problem_id).collect(),
        };
        let sink = CheckpointSink::create(&dir, &manifest).map_err(|e| e.to_string())?;
        for (i, &bits) in self.reference.iter().enumerate() {
            let rec = JournalRecord {
                index: i as u64,
                outcome: Outcome::Ok,
                score: f32::from_bits(bits),
                seconds: 0.0,
                coarse: true,
            };
            tr.span("checkpoint.record", i as u64, || sink.record(&rec));
        }
        if let Some(e) = sink.take_error() {
            return Err(format!("record sweep: {e}"));
        }
        remove(&dir)
    }
}

// ---------------------------------------------------------------------------
// scan-sharded
// ---------------------------------------------------------------------------

/// Worker processes, each with one engine thread.
pub const SHARD_WORKERS: usize = 2;

/// Batch options shared by the coordinator and every worker (the ledger
/// manifest pins their fingerprint).
fn shard_opts() -> BatchOptions {
    BatchOptions::new().threads(1)
}

/// The worker side: rebuild the same windows from the seed and work the
/// ledger until it settles.
pub fn run_worker(seed: u64, env: &WorkerEnv) -> Result<(), String> {
    let problems = inputs::scan_problems(seed);
    coordinator::run_worker(&problems, shard_opts(), env).map_err(|e| e.to_string())
}

pub struct ScanSharded {
    ctx_threads: usize,
    work: PathBuf,
    problems: Vec<BpMaxProblem>,
    opts: BatchOptions,
    copts: CoordinatorOptions,
    cmd: WorkerCommand,
    reference: Vec<u32>,
}

impl ScanSharded {
    fn scan(&self, dir: &Path) -> Result<coordinator::CoordinatorReport, String> {
        coordinator::run(&self.problems, &self.opts, &self.copts, &self.cmd, dir)
            .map_err(|e| format!("coordinated scan: {e}"))
    }
}

impl Workload for ScanSharded {
    const NAME: &'static str = "scan-sharded";
    const SETUP_REPS: usize = 3;
    const PROBE_WARM: bool = false;

    fn setup(ctx: &Ctx, warm: bool) -> Result<Self, String> {
        let program = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let w = ScanSharded {
            ctx_threads: ctx.threads,
            work: ctx.work.clone(),
            problems: inputs::scan_problems(ctx.seed),
            opts: shard_opts(),
            copts: CoordinatorOptions::new().workers(SHARD_WORKERS),
            cmd: WorkerCommand {
                program,
                args: vec!["--seed".into(), ctx.seed.to_string()],
            },
            reference: Vec::new(),
        };
        if warm {
            let dir = w.work.join("ledger-warm");
            w.scan(&dir)?;
            remove(&dir)?;
        }
        Ok(w)
    }

    fn reference(&mut self, tr: &Tracer) -> Result<(), String> {
        self.reference = plain_reference(&self.problems, self.ctx_threads, tr)?;
        Ok(())
    }

    fn rep(&mut self, tr: &Tracer, op: u64) -> Result<Rep, String> {
        let dir = self.work.join(format!("ledger-{op}"));
        let cpu0 = procfs::children_cpu_s();
        let t = Instant::now();
        let cr = tr.span("coordinator.run", op, || self.scan(&dir))?;
        let seconds = t.elapsed().as_secs_f64();
        if tr.on() {
            tr.count("coordinator.worker_cpu_s", procfs::children_cpu_s() - cpu0);
            let busy: f64 = cr.report.items.iter().map(|i| i.seconds).sum();
            tr.count(
                "coordinator.overhead_share",
                1.0 - busy / (cr.workers as f64 * seconds),
            );
            tr.count("coordinator.ledger_files", count_files(&dir) as f64);
            tr.count("coordinator.respawns", cr.respawns.len() as f64);
            tr.count("coordinator.stolen", cr.stolen as f64);
            tr.span("coordinator.merge", op, || {
                coordinator::merge(&self.problems, &self.opts, &dir)
            })
            .map_err(|e| format!("merge re-run: {e}"))?;
        }
        let clean = cr.respawns.is_empty() && cr.stolen == 0 && cr.poisoned == 0;
        if !clean {
            eprintln!(
                "scan-sharded op {op}: {} respawns, {} stolen, {} poisoned",
                cr.respawns.len(),
                cr.stolen,
                cr.poisoned
            );
        }
        let ops = self.problems.len() as u64;
        let failed = if clean {
            mismatches(&cr.report, &self.reference)
        } else {
            ops
        };
        remove(&dir)?;
        Ok(Rep {
            seconds,
            ops,
            flops: flops(&self.problems),
            failed,
            latencies: Vec::new(),
        })
    }
}
