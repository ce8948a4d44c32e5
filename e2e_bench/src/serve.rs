//! serve-mixed: an in-process `Server` on a Unix socket (one engine
//! thread, on-disk cache in the run's scratch directory) driven by two
//! closed-loop `Client`s following the seeded schedule. One op is one
//! request; one repetition is one round of the schedule on both clients.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bpmax::serve::{decode_request, decode_response, encode_request, encode_response};
use bpmax::{
    Algorithm, BpMaxError, BpMaxProblem, Client, Request, Response, Server, ServerConfig,
    ServerStats, SolveOptions, SolveRequest,
};

use crate::inputs;
use crate::schedule::{Req, Schedule, CLIENTS};
use crate::trace::Tracer;
use crate::workload::{Ctx, Rep, Workload};

/// Blocks of four requests per client per round.
const BLOCKS_PER_ROUND: usize = 32;

pub struct ServeMixed {
    threads: usize,
    cache_dir: PathBuf,
    socket: PathBuf,
    server: Arc<Server>,
    daemon: JoinHandle<Result<(), BpMaxError>>,
    clients: Vec<Client>,
    schedule: Schedule,
    seed: u64,
    /// (problem, score bits) of every `Solved` answer, checked at the end.
    answers: Vec<(usize, u32)>,
}

fn request(schedule: &Schedule, i: usize) -> SolveRequest {
    let (s1, s2) = &schedule.problems[i];
    SolveRequest::new(s1.clone(), s2.clone(), inputs::model())
}

/// One answered request as a client saw it.
struct Exchange {
    req: Req,
    start: Instant,
    end: Instant,
    reply: Result<Response, BpMaxError>,
}

/// Each client sends its list in order, waiting for every reply.
fn drive(clients: &mut [Client], schedule: &Schedule, plan: &[Vec<Req>]) -> Vec<Exchange> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(plan)
            .map(|(client, reqs)| {
                let solves: Vec<(Req, SolveRequest)> = reqs
                    .iter()
                    .map(|&r| (r, request(schedule, r.problem())))
                    .collect();
                scope.spawn(move || {
                    solves
                        .iter()
                        .map(|(req, sr)| {
                            let start = Instant::now();
                            let reply = client.solve(sr);
                            Exchange {
                                req: *req,
                                start,
                                end: Instant::now(),
                                reply,
                            }
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread does not panic"))
            .collect()
    })
}

impl ServeMixed {
    fn stats(&mut self) -> Result<ServerStats, String> {
        self.clients[0].stats().map_err(|e| format!("stats: {e}"))
    }

    /// Record each `Solved` answer; count every other reply as failed.
    fn absorb(&mut self, exchanges: &[Exchange]) -> u64 {
        let mut failed = 0;
        for x in exchanges {
            match &x.reply {
                Ok(Response::Solved { score, .. }) => {
                    self.answers.push((x.req.problem(), score.to_bits()));
                }
                other => {
                    eprintln!("serve-mixed: {:?} answered {other:?}", x.req);
                    failed += 1;
                }
            }
        }
        failed
    }
}

impl Workload for ServeMixed {
    const NAME: &'static str = "serve-mixed";
    const SETUP_REPS: usize = 5;
    const PROBE_WARM: bool = true;

    fn setup(ctx: &Ctx, _warm: bool) -> Result<Self, String> {
        let tag = format!("serve-{}", ctx.next_id());
        let cache_dir = ctx.fresh_dir(&tag)?;
        // a relative socket path keeps it under the 108-byte limit
        // however deep the checkout sits
        let socket = ctx.rel_work.join(format!("{tag}.sock"));
        let server = Arc::new(
            Server::new(ServerConfig {
                socket: socket.clone(),
                threads: Some(1),
                cache_dir: Some(cache_dir.clone()),
                ..ServerConfig::default()
            })
            .map_err(|e| format!("server: {e}"))?,
        );
        let runner = Arc::clone(&server);
        let daemon = std::thread::spawn(move || runner.run());
        let deadline = Instant::now() + Duration::from_secs(10);
        let first = loop {
            match Client::connect(&socket) {
                Ok(c) => break c,
                Err(e) if Instant::now() > deadline || daemon.is_finished() => {
                    return Err(format!("server never listened: {e}"));
                }
                Err(_) => std::thread::sleep(Duration::from_millis(1)),
            }
        };
        let mut clients = vec![first];
        for _ in 1..CLIENTS {
            clients.push(Client::connect(&socket).map_err(|e| e.to_string())?);
        }
        let mut w = ServeMixed {
            threads: ctx.threads,
            cache_dir,
            socket,
            server,
            daemon,
            clients,
            schedule: Schedule::new(ctx.seed),
            seed: ctx.seed,
            answers: Vec::new(),
        };
        // The warm-up pair is never skipped: any repeat of the first
        // round may pick it, so it must have been answered.
        let warm_plan: Vec<Vec<Req>> = w
            .schedule
            .warmup()
            .iter()
            .map(|&i| vec![Req::Fresh(i)])
            .collect();
        let exchanges = drive(&mut w.clients, &w.schedule, &warm_plan);
        if w.absorb(&exchanges) > 0 {
            return Err("serve-mixed warm-up failed".to_string());
        }
        Ok(w)
    }

    fn rep(&mut self, tr: &Tracer, op: u64) -> Result<Rep, String> {
        let plan = self.schedule.round(BLOCKS_PER_ROUND);
        let hits = plan.iter().flatten().filter(|r| r.is_hit()).count() as u64;
        let flops: u64 = plan
            .iter()
            .flatten()
            .filter(|r| !r.is_hit())
            .map(|r| {
                let (s1, s2) = &self.schedule.problems[r.problem()];
                BpMaxProblem::new(s1.clone(), s2.clone(), inputs::model()).flops()
            })
            .sum();
        let before = self.stats()?;
        let t = Instant::now();
        let exchanges = tr.span("op.serve-mixed", op, || {
            drive(&mut self.clients, &self.schedule, &plan)
        });
        let seconds = t.elapsed().as_secs_f64();
        let after = self.stats()?;
        for x in &exchanges {
            let name = if x.req.is_hit() {
                "serve.rtt_hit"
            } else {
                "serve.rtt_miss"
            };
            tr.record(name, op, x.start, x.end);
        }
        let latencies = exchanges
            .iter()
            .map(|x| (x.end - x.start).as_secs_f64())
            .collect();
        let ops = exchanges.len() as u64;
        let mut failed = self.absorb(&exchanges);

        let delta = |f: fn(&ServerStats) -> u64| f(&after) - f(&before);
        let cache_hits = delta(|s| s.cache_hits);
        let (shed, rejects) = (delta(|s| s.shed), delta(|s| s.rejects));
        tr.count("serve.cache_hits", cache_hits as f64);
        tr.count("serve.solves", delta(|s| s.solves) as f64);
        tr.count("serve.shed", shed as f64);
        tr.count("serve.rejects", rejects as f64);
        tr.count(
            "serve.pool_allocs",
            (after.pool.allocated - before.pool.allocated) as f64,
        );
        if cache_hits != hits || shed > 0 || rejects > 0 {
            eprintln!(
                "serve-mixed round {op}: {cache_hits} cache hits for {hits} planned, \
                 {shed} shed, {rejects} rejected"
            );
            failed += cache_hits.abs_diff(hits).max(shed + rejects).max(1);
        }
        Ok(Rep {
            seconds,
            ops,
            flops,
            failed: failed.min(ops),
            latencies,
        })
    }

    /// `Server::handle` on a second server that never runs, over the same
    /// schedule, and the wire codec on the messages it produces.
    fn layers(&mut self, tr: &Tracer) -> Result<(), String> {
        let dir = PathBuf::from(format!("{}-handle", self.cache_dir.display()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
        let server = Server::new(ServerConfig {
            socket: self.socket.with_extension("unused"),
            threads: Some(1),
            cache_dir: Some(dir.clone()),
            ..ServerConfig::default()
        })
        .map_err(|e| format!("handle server: {e}"))?;
        let mut schedule = Schedule::new(self.seed);
        let warm = schedule.warmup();
        let round = schedule.round(BLOCKS_PER_ROUND);
        let plan = warm
            .iter()
            .map(|&i| Req::Fresh(i))
            .chain(round.into_iter().flatten());
        for (k, req) in plan.enumerate() {
            let msg = Request::Solve(request(&schedule, req.problem()));
            let name = if req.is_hit() {
                "serve.handle_hit"
            } else {
                "serve.handle_miss"
            };
            let resp = tr.span(name, k as u64, || server.handle(&msg));
            match resp {
                Response::Solved { cache_hit, .. } if cache_hit == req.is_hit() => {}
                other => return Err(format!("handle {req:?}: {other:?}")),
            }
            let start = Instant::now();
            let req_bytes = encode_request(&msg);
            let decoded = decode_request(&req_bytes).map_err(|e| e.to_string())?;
            let resp_bytes = encode_response(&resp);
            let back = decode_response(&resp_bytes).map_err(|e| e.to_string())?;
            tr.record("serve.codec", k as u64, start, Instant::now());
            if decoded != msg || back != resp {
                return Err(format!("codec round trip changed {req:?}"));
            }
        }
        std::fs::remove_dir_all(&dir).map_err(|e| e.to_string())
    }

    /// Every `Solved` score must bit-equal the pair solved in-process with
    /// `Algorithm::Permuted`.
    fn check(&mut self) -> Result<u64, String> {
        let mut wanted: Vec<usize> = self.answers.iter().map(|&(i, _)| i).collect();
        wanted.sort_unstable();
        wanted.dedup();
        let schedule = &self.schedule;
        let chunk = wanted.len().div_ceil(self.threads.max(1)).max(1);
        let reference: HashMap<usize, u32> = std::thread::scope(|scope| {
            let handles: Vec<_> = wanted
                .chunks(chunk)
                .map(|part| {
                    scope.spawn(move || {
                        part.iter()
                            .map(|&i| {
                                let (s1, s2) = &schedule.problems[i];
                                let p = BpMaxProblem::new(s1.clone(), s2.clone(), inputs::model());
                                let opts = SolveOptions::new().algorithm(Algorithm::Permuted);
                                let bits = p
                                    .solve_opts(&opts)
                                    .map_or(u32::MAX, |s| s.score().to_bits());
                                (i, bits)
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("reference thread does not panic"))
                .collect()
        });
        Ok(self
            .answers
            .iter()
            .filter(|(i, bits)| reference.get(i) != Some(bits))
            .count() as u64)
    }

    fn close(mut self) -> Result<(), String> {
        let stopped = self.clients[0]
            .shutdown()
            .map_err(|e| format!("shutdown: {e}"));
        if stopped.is_err() {
            // the wire shutdown never arrived: drain directly, or the
            // join below would wait forever
            self.server.begin_drain();
        }
        drop(self.clients);
        let ran = self
            .daemon
            .join()
            .map_err(|_| "server thread panicked".to_string())?;
        stopped?;
        ran.map_err(|e| format!("server: {e}"))?;
        drop(self.server);
        let _ = std::fs::remove_file(&self.socket);
        std::fs::remove_dir_all(&self.cache_dir).map_err(|e| e.to_string())
    }
}
