//! Seeded inputs. Every workload draws its sequences from the run seed
//! through its own stream, so the same seed always gives the same inputs
//! and sizes never depend on the seed (only contents do).

use bpmax::BpMaxProblem;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rna::{RnaSeq, ScoringModel};

/// Stream tags keep the workloads' draws independent of one another.
pub const STREAM_SOLVE: u64 = 1;
pub const STREAM_SCAN: u64 = 2;
pub const STREAM_SERVE: u64 = 3;

pub fn rng(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed.wrapping_mul(0x2545_f491_4f6c_dd1d) ^ (stream << 56))
}

pub fn model() -> ScoringModel {
    ScoringModel::bpmax_default()
}

/// solve-large: one 32 × 96 pair.
pub const SOLVE_M: usize = 32;
pub const SOLVE_N: usize = 96;

pub fn solve_pair(seed: u64) -> (RnaSeq, RnaSeq) {
    let mut r = rng(seed, STREAM_SOLVE);
    (
        RnaSeq::random(&mut r, SOLVE_M),
        RnaSeq::random(&mut r, SOLVE_N),
    )
}

/// The scans: a 12-nt query against every 16-nt window of a target long
/// enough for 1200 full windows.
pub const QUERY_NT: usize = 12;
pub const WINDOW_NT: usize = 16;
pub const WINDOWS: usize = 1200;

pub fn scan_problems(seed: u64) -> Vec<BpMaxProblem> {
    let mut r = rng(seed, STREAM_SCAN);
    let query = RnaSeq::random(&mut r, QUERY_NT);
    let target = RnaSeq::random(&mut r, WINDOWS + WINDOW_NT - 1);
    (0..WINDOWS)
        .map(|s| BpMaxProblem::new(query.clone(), target.slice(s, s + WINDOW_NT), model()))
        .collect()
}
