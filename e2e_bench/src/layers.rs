//! The traced run: the chosen workload untraced then traced (for
//! `trace.overhead`), one traced repetition of every other workload, and
//! the per-layer metrics read off the spans and counters.

use std::path::Path;

use crate::report::Metric;
use crate::scan::{BatchJournaled, ScanSharded};
use crate::serve::ServeMixed;
use crate::solve::SolveLarge;
use crate::stats::median;
use crate::trace::Tracer;
use crate::workload::{probe, trace_own, Ctx, Outcome, Tally};
use crate::WORKLOADS;

pub fn run_traced(workload: &str, ctx: &Ctx, traces: &Path) -> Result<Outcome, String> {
    let tr = Tracer::new(true);
    let mut tally = Tally::default();
    let untraced_op = match workload {
        "solve-large" => trace_own::<SolveLarge>(ctx, &tr, &mut tally)?,
        "batch-journaled" => trace_own::<BatchJournaled>(ctx, &tr, &mut tally)?,
        "scan-sharded" => trace_own::<ScanSharded>(ctx, &tr, &mut tally)?,
        "serve-mixed" => trace_own::<ServeMixed>(ctx, &tr, &mut tally)?,
        other => return Err(format!("unknown workload {other:?}")),
    };
    for (k, &other) in WORKLOADS.iter().enumerate() {
        let op = 2_000_000 + k as u64;
        match other {
            _ if other == workload => {}
            "solve-large" => probe::<SolveLarge>(ctx, &tr, &mut tally, op)?,
            "batch-journaled" => probe::<BatchJournaled>(ctx, &tr, &mut tally, op)?,
            "scan-sharded" => probe::<ScanSharded>(ctx, &tr, &mut tally, op)?,
            _ => probe::<ServeMixed>(ctx, &tr, &mut tally, op)?,
        }
    }

    // the solve-large decomposition against the whole op
    let whole = if workload == "solve-large" {
        untraced_op
    } else {
        median(&tr.durations("op.solve-large"))
    };
    let parts: f64 = ["rna.fold", "engine.solve", "traceback.traceback"]
        .iter()
        .map(|n| median(&tr.durations(n)))
        .sum();
    eprintln!(
        "solve-large decomposition: rna.fold {:.6} + engine.solve {:.6} + \
         traceback.traceback {:.6} = {parts:.6} s vs {} op {whole:.6} s ({:.1}%)",
        median(&tr.durations("rna.fold")),
        median(&tr.durations("engine.solve")),
        median(&tr.durations("traceback.traceback")),
        if workload == "solve-large" {
            "untraced"
        } else {
            "traced"
        },
        100.0 * parts / whole
    );

    std::fs::create_dir_all(traces).map_err(|e| e.to_string())?;
    let dump = traces.join(format!("{workload}-seed{}.jsonl", ctx.seed));
    tr.dump(&dump)
        .map_err(|e| format!("{}: {e}", dump.display()))?;
    eprintln!("spans written to {}", dump.display());

    Ok(Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: per_layer(&tr, &tally)?,
    })
}

/// Every per-layer metric, from the spans and counters of a traced run.
fn per_layer(tr: &Tracer, tally: &Tally) -> Result<Vec<Metric>, String> {
    let need = |xs: Vec<f64>, name: &str| -> Result<Vec<f64>, String> {
        if xs.is_empty() {
            Err(format!("the traced run measured no {name}"))
        } else {
            Ok(xs)
        }
    };
    let span = |name: &str| -> Result<f64, String> { Ok(median(&need(tr.durations(name), name)?)) };
    let count = |name: &str| -> Result<f64, String> { Ok(median(&need(tr.counts(name), name)?)) };

    let solve_s = span("engine.solve")?;
    let engine_gflops = count("engine.flops")? / solve_s / 1e9;
    let plain_scan_s = span("batch.solve")?;
    let records = need(tr.durations("checkpoint.record"), "checkpoint.record")?;
    let tenth = (records.len() / 10).max(1);
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
    let growth = mean(&records[records.len() - tenth..]) / mean(&records[..tenth]);

    Ok(vec![
        Metric::new("rna.fold_s", span("rna.fold")?, "s"),
        Metric::new("engine.solve_s", solve_s, "s"),
        Metric::new("engine.gflops", engine_gflops, "GFLOP/s"),
        Metric::new(
            "engine.kernel_efficiency",
            engine_gflops / count("kernel.axpy4_gflops")?,
            "ratio",
        ),
        Metric::new("traceback.traceback_s", span("traceback.traceback")?, "s"),
        Metric::new("batch.solve_s", plain_scan_s, "s"),
        Metric::new(
            "batch.coarse_fraction",
            count("batch.coarse_fraction")?,
            "ratio",
        ),
        Metric::new("batch.pool_allocs", count("batch.pool_allocs")?, "count"),
        Metric::new(
            "checkpoint.journal_s",
            span("checkpoint.scan")? - plain_scan_s,
            "s",
        ),
        Metric::new("checkpoint.record_s", median(&records), "s"),
        Metric::new("checkpoint.record_growth", growth, "ratio"),
        Metric::new(
            "checkpoint.write_bytes",
            count("checkpoint.write_bytes")?,
            "bytes",
        ),
        Metric::new(
            "checkpoint.write_calls",
            count("checkpoint.write_calls")?,
            "count",
        ),
        Metric::new("coordinator.run_s", span("coordinator.run")?, "s"),
        Metric::new("coordinator.merge_s", span("coordinator.merge")?, "s"),
        Metric::new(
            "coordinator.worker_cpu_s",
            count("coordinator.worker_cpu_s")?,
            "s",
        ),
        Metric::new(
            "coordinator.overhead_share",
            count("coordinator.overhead_share")?,
            "ratio",
        ),
        Metric::new(
            "coordinator.ledger_files",
            count("coordinator.ledger_files")?,
            "count",
        ),
        Metric::new(
            "coordinator.respawns",
            count("coordinator.respawns")?,
            "count",
        ),
        Metric::new("coordinator.stolen", count("coordinator.stolen")?, "count"),
        Metric::new("serve.rtt_hit_s", span("serve.rtt_hit")?, "s"),
        Metric::new("serve.rtt_miss_s", span("serve.rtt_miss")?, "s"),
        Metric::new("serve.handle_hit_s", span("serve.handle_hit")?, "s"),
        Metric::new("serve.handle_miss_s", span("serve.handle_miss")?, "s"),
        Metric::new("serve.codec_s", span("serve.codec")?, "s"),
        Metric::new("serve.cache_hits", count("serve.cache_hits")?, "count"),
        Metric::new("serve.solves", count("serve.solves")?, "count"),
        Metric::new("serve.shed", count("serve.shed")?, "count"),
        Metric::new("serve.rejects", count("serve.rejects")?, "count"),
        Metric::new("serve.pool_allocs", count("serve.pool_allocs")?, "count"),
        Metric::new("trace.overhead", count("trace.overhead")?, "ratio"),
        Metric::new(
            "failed_frac",
            tally.failed as f64 / tally.attempted.max(1) as f64,
            "ratio",
        ),
    ])
}
