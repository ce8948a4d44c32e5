//! solve-large: a closed loop with one caller; one op is one interact of
//! the seeded 32 × 96 pair — fold both strands, solve, trace back.

use std::hint::black_box;
use std::time::Instant;

use bpmax::{Algorithm, BpMaxProblem, SolveOptions};
use rna::RnaSeq;

use crate::inputs;
use crate::stats::median;
use crate::trace::Tracer;
use crate::workload::{Ctx, Rep, Workload};

pub struct SolveLarge {
    s1: RnaSeq,
    s2: RnaSeq,
    opts: SolveOptions,
    /// Score bits of the pair solved once with `Algorithm::Permuted`.
    reference: Option<u32>,
}

/// The checked result of one interact.
struct Interact {
    score: f32,
    rescored: Option<f32>,
    flops: u64,
}

impl SolveLarge {
    fn interact(&self, tr: &Tracer, op: u64) -> Result<Interact, String> {
        let problem = tr.span("rna.fold", op, || {
            BpMaxProblem::new(self.s1.clone(), self.s2.clone(), inputs::model())
        });
        let solution = tr
            .span("engine.solve", op, || problem.solve_opts(&self.opts))
            .map_err(|e| format!("solve-large: {e}"))?;
        let structure = tr.span("traceback.traceback", op, || solution.traceback());
        let score = solution.score();
        // the structure must be valid and re-score to the DP's optimum
        let rescored = structure
            .validate(self.s1.len(), self.s2.len())
            .ok()
            .map(|()| structure.score(&self.s1, &self.s2, problem.model()));
        Ok(Interact {
            score,
            rescored,
            flops: problem.flops(),
        })
    }
}

impl Workload for SolveLarge {
    const NAME: &'static str = "solve-large";
    const SETUP_REPS: usize = 3;
    const PROBE_WARM: bool = false;

    fn setup(ctx: &Ctx, warm: bool) -> Result<Self, String> {
        let (s1, s2) = inputs::solve_pair(ctx.seed);
        let w = SolveLarge {
            s1,
            s2,
            opts: SolveOptions::new().threads(ctx.threads),
            reference: None,
        };
        if warm {
            black_box(w.interact(&Tracer::new(false), 0)?.score);
        }
        Ok(w)
    }

    fn reference(&mut self, _tr: &Tracer) -> Result<(), String> {
        let problem = BpMaxProblem::new(self.s1.clone(), self.s2.clone(), inputs::model());
        let score = problem
            .solve_opts(&SolveOptions::new().algorithm(Algorithm::Permuted))
            .map_err(|e| format!("solve-large reference: {e}"))?
            .score();
        self.reference = Some(score.to_bits());
        Ok(())
    }

    fn rep(&mut self, tr: &Tracer, op: u64) -> Result<Rep, String> {
        let t = Instant::now();
        let out = tr.span("op.solve-large", op, || self.interact(tr, op))?;
        let seconds = t.elapsed().as_secs_f64();
        tr.count("engine.flops", out.flops as f64);
        let ok = Some(out.score.to_bits()) == self.reference
            && out.rescored.map(f32::to_bits) == Some(out.score.to_bits());
        if !ok {
            eprintln!(
                "solve-large op {op}: score {} (rescored {:?}) vs reference {:?}",
                out.score,
                out.rescored,
                self.reference.map(f32::from_bits)
            );
        }
        Ok(Rep {
            seconds,
            ops: 1,
            flops: out.flops,
            failed: u64::from(!ok),
            latencies: Vec::new(),
        })
    }

    fn layers(&mut self, tr: &Tracer) -> Result<(), String> {
        tr.count("kernel.axpy4_gflops", axpy4_streaming_gflops());
        Ok(())
    }
}

/// Streaming rate of the register-blocked max-plus kernel
/// `tropical::simd::mp_axpy4` over L1-resident rows, in GFLOP/s (8 FLOPs
/// per element per call); the median of five timed batches.
pub fn axpy4_streaming_gflops() -> f64 {
    const LEN: usize = 512;
    const CALLS: usize = 20_000;
    let row = |k: usize| -> Vec<f32> { (0..LEN).map(|i| ((i * 7 + k) % 13) as f32).collect() };
    let (x0, x1, x2, x3) = (row(0), row(1), row(2), row(3));
    let mut y = vec![0.0_f32; LEN];
    let mut rates = Vec::new();
    for batch in 0..6 {
        let t = Instant::now();
        for c in 0..CALLS {
            let a = black_box([c as f32 * 1e-3, 0.5, -0.25, 1.0]);
            tropical::simd::mp_axpy4(a, [&x0, &x1, &x2, &x3], black_box(&mut y));
        }
        let s = t.elapsed().as_secs_f64();
        if batch > 0 {
            // the first batch warms caches and clocks
            rates.push((8 * LEN * CALLS) as f64 / s / 1e9);
        }
    }
    black_box(&y);
    median(&rates)
}
