//! Layer probes: small fixed programs that isolate one
//! layer's host cost, run by a traced run next to its workload.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use clmpi::{ClMpi, ReduceOp, SystemConfig};
use minimpi::{run_world_faulty_mode, FaultPlan, Process};
use simtime::{ExecMode, SimClock, Trace};

use crate::mix::submit_and_wait;
use crate::workloads::{ricc_scaled, NANO_RANKS, NANO_SECTIONS};

/// Actors in the token ring and ranks in the barrier loop.
pub const PROBE_RANKS: usize = 256;

/// simtime: a token ring of `PROBE_RANKS` actors on a bare clock. Each holder
/// spends 1 ns of virtual time, passes the token and notifies; the next
/// holder's `wait_until` observes it. Returns the host latency of every
/// handoff, µs.
pub fn handoff_ring(core: ExecMode, laps: usize) -> Vec<f64> {
    struct Token {
        turn: usize,
        passed_at: Instant,
    }
    let clock = SimClock::with_mode(core);
    let token = Arc::new(Mutex::new(Token {
        turn: 0,
        passed_at: Instant::now(),
    }));
    let handoffs = laps * PROBE_RANKS;
    // Register every actor before any thread starts (the clock's rule).
    let actors: Vec<_> = (0..PROBE_RANKS)
        .map(|i| clock.register(format!("ring{i}")))
        .collect();
    let threads: Vec<_> = actors
        .into_iter()
        .enumerate()
        .map(|(me, actor)| {
            let (clock, token) = (clock.clone(), token.clone());
            std::thread::Builder::new()
                .name(format!("ring{me}"))
                .spawn(move || {
                    let mut lat = Vec::with_capacity(laps);
                    for turn in (me..handoffs).step_by(PROBE_RANKS) {
                        let passed_at = actor.wait_until(|| {
                            let t = token.lock().expect("ring token");
                            (t.turn == turn).then_some(t.passed_at)
                        });
                        if turn > 0 {
                            lat.push(passed_at.elapsed().as_secs_f64() * 1e6);
                        }
                        actor.advance_ns(1);
                        *token.lock().expect("ring token") = Token {
                            turn: turn + 1,
                            passed_at: Instant::now(),
                        };
                        clock.notify();
                    }
                    lat
                })
                .expect("spawn ring actor")
        })
        .collect();
    threads
        .into_iter()
        .flat_map(|t| t.join().expect("ring actor"))
        .collect()
}

/// minimpi: `iters` barriers across `PROBE_RANKS` ranks; rank 0's host time per
/// barrier, µs.
pub fn barrier_loop(core: ExecMode, iters: usize) -> Vec<f64> {
    let res = run_world_faulty_mode(
        ricc_scaled(PROBE_RANKS).cluster,
        PROBE_RANKS,
        FaultPlan::none(),
        core,
        move |p: Process| {
            let mut lat = Vec::with_capacity(iters);
            for _ in 0..iters {
                let t = Instant::now();
                p.comm.barrier(&p.actor);
                lat.push(t.elapsed().as_secs_f64() * 1e6);
            }
            lat
        },
    );
    res.outputs.into_iter().next().expect("rank 0")
}

/// minimpi: launch and tear down a world whose ranks do nothing; host
/// seconds.
pub fn launch_noop(sys: &SystemConfig, ranks: usize, core: ExecMode) -> f64 {
    let t = Instant::now();
    run_world_faulty_mode(
        sys.cluster.clone(),
        ranks,
        FaultPlan::none(),
        core,
        |_p: Process| (),
    );
    t.elapsed().as_secs_f64()
}

/// What the broadcast probe measured.
pub struct Bcast {
    /// Slowest rank's host time from submitting the broadcast to its
    /// completion, ms.
    pub host_ms: f64,
    pub trace: Trace,
    pub errors: Vec<String>,
}

/// Elements of the allreduce that follows the broadcast (1 MiB of f64),
/// so the probe's trace holds reduce stages too.
const PROBE_ALLREDUCE: usize = 128 << 10;

/// clmpi: one `enqueue_bcast_buffer` of the nanopowder coefficient
/// matrix (K=2048, 16.8 MB) from rank 0 to `NANO_RANKS` RICC ranks,
/// followed by one allreduce. Every rank checks what it received.
pub fn bcast(core: ExecMode) -> Bcast {
    let size = NANO_SECTIONS * NANO_SECTIONS * 4;
    let pattern = |i: usize| (i.wrapping_mul(2_654_435_761) >> 13) as u8;
    let res = run_world_faulty_mode(
        SystemConfig::ricc().cluster,
        NANO_RANKS,
        FaultPlan::none(),
        core,
        move |p: Process| {
            let me = p.rank();
            let rt = ClMpi::new(&p, SystemConfig::ricc());
            let q = rt.context().create_queue(0, format!("r{me}"));
            let buf = rt.context().create_buffer(size);
            if me == 0 {
                let bytes: Vec<u8> = (0..size).map(pattern).collect();
                buf.store(0, &bytes).expect("fits");
            }
            let mut errors = Vec::new();
            p.comm.barrier(&p.actor);
            let t = Instant::now();
            submit_and_wait(&mut errors, "bcast", &p.actor, || {
                rt.enqueue_bcast_buffer(&q, &buf, 0, size, 0, 7, &[], &p.actor)
            });
            let host_ms = t.elapsed().as_secs_f64() * 1e3;
            if !buf.read(|d| {
                d.as_slice()
                    .iter()
                    .enumerate()
                    .all(|(i, &b)| b == pattern(i))
            }) {
                errors.push("broadcast payload differs".into());
            }
            let mine = vec![(me + 1) as f64; PROBE_ALLREDUCE];
            let abuf = rt.context().create_buffer(PROBE_ALLREDUCE * 8);
            abuf.store(0, minimpi::datatype::f64_as_bytes(&mine))
                .expect("fits");
            submit_and_wait(&mut errors, "allreduce", &p.actor, || {
                rt.enqueue_allreduce_buffer(
                    &q,
                    &abuf,
                    0,
                    PROBE_ALLREDUCE,
                    ReduceOp::Sum,
                    8,
                    &[],
                    &p.actor,
                )
            });
            let want = (NANO_RANKS * (NANO_RANKS + 1) / 2) as f64;
            if !abuf.read(|d| d.as_f64().iter().all(|&v| v == want)) {
                errors.push("allreduce result differs".into());
            }
            rt.shutdown(&p.actor);
            let errors: Vec<String> = errors.into_iter().map(|e| format!("r{me}: {e}")).collect();
            (host_ms, errors)
        },
    );
    Bcast {
        host_ms: res.outputs.iter().map(|o| o.0).fold(0.0, f64::max),
        errors: res.outputs.into_iter().flat_map(|o| o.1).collect(),
        trace: res.trace,
    }
}
