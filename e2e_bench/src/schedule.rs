//! serve-mixed's request schedule. Each client works through blocks of
//! four requests: one asks for a fresh pair (12–32 nt per strand, never
//! asked before by either client) and three repeat a pair that same
//! client already had answered, so they are cache hits. Where the fresh
//! request sits in its block is drawn from the seed.

use std::collections::HashSet;

use rand::rngs::StdRng;
use rand::Rng;
use rna::RnaSeq;

use crate::inputs;

pub const CLIENTS: usize = 2;
/// Strand lengths of fresh pairs.
pub const MIN_NT: usize = 12;
pub const MAX_NT: usize = 32;
/// Requests per block, of which one is fresh.
pub const BLOCK: usize = 4;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Req {
    /// First request for problem `i` anywhere in the run: a cache miss.
    Fresh(usize),
    /// Problem `i` again, already answered to this client: a cache hit.
    Repeat(usize),
}

impl Req {
    pub fn problem(self) -> usize {
        match self {
            Req::Fresh(i) | Req::Repeat(i) => i,
        }
    }

    pub fn is_hit(self) -> bool {
        matches!(self, Req::Repeat(_))
    }
}

pub struct Schedule {
    rng: StdRng,
    /// Every pair the schedule has handed out, indexed by `Req` values.
    pub problems: Vec<(RnaSeq, RnaSeq)>,
    seen: HashSet<(RnaSeq, RnaSeq)>,
    /// Problems each client has asked for so far.
    asked: [Vec<usize>; CLIENTS],
}

impl Schedule {
    pub fn new(seed: u64) -> Schedule {
        Schedule {
            rng: inputs::rng(seed, inputs::STREAM_SERVE),
            problems: Vec::new(),
            seen: HashSet::new(),
            asked: Default::default(),
        }
    }

    /// A pair no client has asked for yet, with strands of `m` and `n` nt.
    fn fresh(&mut self, client: usize, m: usize, n: usize) -> usize {
        loop {
            let pair = (
                RnaSeq::random(&mut self.rng, m),
                RnaSeq::random(&mut self.rng, n),
            );
            if self.seen.insert(pair.clone()) {
                self.problems.push(pair);
                let i = self.problems.len() - 1;
                self.asked[client].push(i);
                return i;
            }
        }
    }

    /// The warm-up request of each client: a fresh pair of the largest
    /// size, so set-up time does not depend on drawn sizes.
    pub fn warmup(&mut self) -> [usize; CLIENTS] {
        std::array::from_fn(|c| self.fresh(c, MAX_NT, MAX_NT))
    }

    /// The next `blocks` blocks of every client. Needs `warmup` first, so
    /// every client has an answered problem to repeat.
    pub fn round(&mut self, blocks: usize) -> [Vec<Req>; CLIENTS] {
        std::array::from_fn(|c| {
            assert!(!self.asked[c].is_empty(), "warm up before the first round");
            let mut reqs = Vec::with_capacity(blocks * BLOCK);
            for _ in 0..blocks {
                let at = self.rng.gen_range(0..BLOCK);
                for k in 0..BLOCK {
                    if k == at {
                        let m = self.rng.gen_range(MIN_NT..=MAX_NT);
                        let n = self.rng.gen_range(MIN_NT..=MAX_NT);
                        reqs.push(Req::Fresh(self.fresh(c, m, n)));
                    } else {
                        let pick = self.rng.gen_range(0..self.asked[c].len());
                        reqs.push(Req::Repeat(self.asked[c][pick]));
                    }
                }
            }
            reqs
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(seed: u64, rounds: usize) -> (Schedule, Vec<[Vec<Req>; CLIENTS]>) {
        let mut s = Schedule::new(seed);
        s.warmup();
        let rounds = (0..rounds).map(|_| s.round(25)).collect();
        (s, rounds)
    }

    #[test]
    fn exactly_three_in_four_requests_are_hits() {
        let (_, rounds) = plan(7, 4);
        for round in &rounds {
            for reqs in round {
                assert_eq!(reqs.len(), 100);
                for block in reqs.chunks(BLOCK) {
                    assert_eq!(block.iter().filter(|r| r.is_hit()).count(), 3);
                }
            }
        }
    }

    #[test]
    fn misses_are_disjoint_between_clients_and_never_repeat() {
        let (s, rounds) = plan(11, 4);
        let mut fresh: [HashSet<usize>; CLIENTS] = Default::default();
        for round in &rounds {
            for (c, reqs) in round.iter().enumerate() {
                for r in reqs {
                    if let Req::Fresh(i) = *r {
                        assert!(fresh.iter().all(|f| !f.contains(&i)), "{i} fresh twice");
                        fresh[c].insert(i);
                    }
                }
            }
        }
        // distinct indices are distinct contents, too
        let contents: HashSet<_> = fresh.iter().flatten().map(|&i| &s.problems[i]).collect();
        assert_eq!(contents.len(), fresh[0].len() + fresh[1].len());
        for &i in fresh.iter().flatten() {
            let (a, b) = &s.problems[i];
            assert!((MIN_NT..=MAX_NT).contains(&a.len()) && (MIN_NT..=MAX_NT).contains(&b.len()));
        }
    }

    #[test]
    fn hits_repeat_only_what_the_same_client_asked_before() {
        let mut s = Schedule::new(3);
        let warm = s.warmup();
        let rounds: Vec<_> = (0..3).map(|_| s.round(10)).collect();
        for c in 0..CLIENTS {
            let mut asked = vec![warm[c]];
            for reqs in rounds.iter().map(|r| &r[c]) {
                for r in reqs {
                    match *r {
                        Req::Fresh(i) => asked.push(i),
                        Req::Repeat(i) => assert!(asked.contains(&i), "client {c} repeats {i}"),
                    }
                }
            }
        }
    }

    #[test]
    fn the_same_seed_gives_the_same_schedule() {
        let (a, ra) = plan(42, 3);
        let (b, rb) = plan(42, 3);
        assert_eq!(ra, rb);
        assert_eq!(a.problems, b.problems);
        let (c, rc) = plan(43, 3);
        assert!(ra != rc || a.problems != c.problems);
    }
}
