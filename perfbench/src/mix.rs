//! `transfer-mix`: a seeded closed loop of clMPI transfers on the CXL pod
//! preset (8 ranks, two pods of four) with 1% data-plane chunk drops.
//!
//! The op mix is fixed per block and only its order, sizes, pairings and
//! payload bytes come from the seed, so two seeds cost about the same.
//! Every rank submits its next op only after its previous op completed,
//! and every received payload, window slot and reduced vector is
//! compared against data regenerated from the seed.

use std::sync::Arc;

use clmpi::{ClMpi, PackMode, ReduceOp, SystemConfig};
use minimpi::datatype::f64_as_bytes;
use minimpi::{DerivedType, Process};
use simtime::XorShift64;

use crate::tracer::{self, Stamp};

pub const RANKS: usize = 8;
const POD: usize = 4;

/// Op-mix blocks per run; each block is [`BLOCK`] rounds.
const BLOCKS: usize = 8;
/// Two-sided sizes straddle the preset's 1 MiB pipeline threshold.
const SMALL: (usize, usize) = (4 << 10, 256 << 10);
const LARGE: (usize, usize) = (1 << 20, 2 << 20);
/// Vector datatype: `count` 1 KiB blocks at a 2 KiB stride.
const VEC_BLOCK: usize = 1 << 10;
const VEC_STRIDE: usize = 2 << 10;
const VEC_COUNT: (usize, usize) = (16, 65);
/// Each origin owns one slot of every window, so puts never overlap.
const PUT_SLOT: usize = 64 << 10;
const PUT_BYTES: (usize, usize) = (1 << 10, PUT_SLOT + 1);
const AR_COUNT: (usize, usize) = (64, 513);

const P2P_BUF: usize = LARGE.1;
const VEC_EXTENT: usize = (VEC_COUNT.1 - 1) * VEC_STRIDE;

/// The round kinds of one block, before the seed shuffles them.
const BLOCK: [Kind; 16] = [
    Kind::Small,
    Kind::Small,
    Kind::Small,
    Kind::Small,
    Kind::Large,
    Kind::Large,
    Kind::Large,
    Kind::Large,
    Kind::Vector(PackMode::HostPack),
    Kind::Vector(PackMode::DevicePack),
    Kind::Vector(PackMode::PipelinedPack),
    Kind::PutIntraPod,
    Kind::PutIntraPod,
    Kind::PutCrossPod,
    Kind::PutCrossPod,
    Kind::Allreduce,
];

#[derive(Clone, Copy)]
enum Kind {
    Small,
    Large,
    Vector(PackMode),
    PutIntraPod,
    PutCrossPod,
    Allreduce,
}

/// One round: every rank takes part in exactly one operation.
pub enum Round {
    /// `peer[r]` is `r`'s partner; `sends[r]` whether `r` is the sender.
    P2p {
        peer: [usize; RANKS],
        sends: [bool; RANKS],
        bytes: [usize; RANKS],
    },
    Vector {
        peer: [usize; RANKS],
        sends: [bool; RANKS],
        count: [usize; RANKS],
        mode: PackMode,
    },
    /// Each rank puts `bytes[r]` into `target[r]`'s window, then fences.
    Put {
        target: [usize; RANKS],
        bytes: [usize; RANKS],
    },
    Allreduce {
        count: usize,
    },
}

pub struct Schedule {
    pub seed: u64,
    pub rounds: Vec<Round>,
}

fn matching(rng: &mut XorShift64) -> ([usize; RANKS], [bool; RANKS]) {
    let mut perm: [usize; RANKS] = std::array::from_fn(|i| i);
    shuffle(&mut perm, rng);
    let (mut peer, mut sends) = ([0; RANKS], [false; RANKS]);
    for pair in perm.chunks(2) {
        peer[pair[0]] = pair[1];
        peer[pair[1]] = pair[0];
        sends[pair[0]] = true;
    }
    (peer, sends)
}

fn shuffle<T>(v: &mut [T], rng: &mut XorShift64) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.gen_range_usize(0, i + 1));
    }
}

/// Draw one size per matched pair (both partners see the same).
fn pair_sizes(
    peer: &[usize; RANKS],
    range: (usize, usize),
    rng: &mut XorShift64,
) -> [usize; RANKS] {
    let mut out = [0; RANKS];
    for r in 0..RANKS {
        if out[r] == 0 {
            let n = rng.gen_range_usize(range.0, range.1);
            out[r] = n;
            out[peer[r]] = n;
        }
    }
    out
}

impl Schedule {
    pub fn new(seed: u64) -> Schedule {
        let mut rng = XorShift64::new(seed ^ 0x7472_616e_7366_6572);
        let mut kinds: Vec<Kind> = (0..BLOCKS).flat_map(|_| BLOCK).collect();
        shuffle(&mut kinds, &mut rng);
        let rounds = kinds
            .into_iter()
            .map(|kind| match kind {
                Kind::Small | Kind::Large => {
                    let (peer, sends) = matching(&mut rng);
                    let range = if matches!(kind, Kind::Small) {
                        SMALL
                    } else {
                        LARGE
                    };
                    let bytes = pair_sizes(&peer, range, &mut rng);
                    Round::P2p { peer, sends, bytes }
                }
                Kind::Vector(mode) => {
                    let (peer, sends) = matching(&mut rng);
                    let count = pair_sizes(&peer, VEC_COUNT, &mut rng);
                    Round::Vector {
                        peer,
                        sends,
                        count,
                        mode,
                    }
                }
                Kind::PutIntraPod | Kind::PutCrossPod => {
                    let shift = rng.gen_range_usize(1, POD);
                    let cross = matches!(kind, Kind::PutCrossPod);
                    let target = std::array::from_fn(|r| {
                        let pod = if cross {
                            (r / POD + 1) % (RANKS / POD)
                        } else {
                            r / POD
                        };
                        pod * POD + (r % POD + shift) % POD
                    });
                    let bytes =
                        std::array::from_fn(|_| rng.gen_range_usize(PUT_BYTES.0, PUT_BYTES.1));
                    Round::Put { target, bytes }
                }
                Kind::Allreduce => Round::Allreduce {
                    count: rng.gen_range_usize(AR_COUNT.0, AR_COUNT.1),
                },
            })
            .collect();
        Schedule { seed, rounds }
    }

    /// Payload bytes `src` contributes to round `round`.
    fn payload(&self, round: usize, src: usize, len: usize) -> Vec<u8> {
        let mut rng =
            XorShift64::new(self.seed ^ ((round as u64) << 16) ^ ((src as u64) << 8) ^ 0xb17e);
        let mut out = Vec::with_capacity(len + 8);
        while out.len() < len {
            out.extend_from_slice(&rng.next_u64().to_le_bytes());
        }
        out.truncate(len);
        out
    }

    /// `src`'s integer-valued allreduce contribution (sums are exact in
    /// any order).
    fn contribution(&self, round: usize, src: usize, count: usize) -> Vec<f64> {
        let mut rng =
            XorShift64::new(self.seed ^ ((round as u64) << 16) ^ ((src as u64) << 8) ^ 0xa11);
        (0..count)
            .map(|_| rng.gen_range_u64(0, 1 << 20) as f64)
            .collect()
    }
}

fn vector(count: usize) -> minimpi::CommittedType {
    DerivedType::Vector {
        count,
        blocklen: VEC_BLOCK,
        stride: VEC_STRIDE,
        extent: count * VEC_STRIDE,
    }
    .commit()
    .expect("vector type commits")
}

pub fn sys() -> SystemConfig {
    SystemConfig::cxl_pod()
}

/// Device buffer sizes one rank allocates (shared with the set-up
/// measurement, which allocates the same).
pub fn buffer_sizes() -> [usize; 4] {
    [
        P2P_BUF.max(VEC_EXTENT),
        P2P_BUF.max(VEC_EXTENT),
        RANKS * PUT_SLOT,
        AR_COUNT.1 * 8,
    ]
}

/// What one rank reports: when its last op completed, and every mismatch
/// or transfer error it saw.
pub struct RankOut {
    pub end_ns: u64,
    pub errors: Vec<String>,
}

/// Submit an op, wait for it, and time both calls when tracing is on.
pub fn submit_and_wait(
    errors: &mut Vec<String>,
    what: &str,
    actor: &simtime::Actor,
    enqueue: impl FnOnce() -> minicl::ClResult<minicl::Event>,
) {
    let s = Stamp::now();
    let ev = enqueue();
    s.record("minicl", "enqueue");
    match ev.and_then(|e| e.wait_result(actor)) {
        Ok(()) => s.record("minicl", "wait"),
        Err(e) => errors.push(format!("{what}: {e}")),
    }
}

pub fn rank_body(p: Process, sched: Arc<Schedule>) -> RankOut {
    let me = p.rank();
    let actor = &p.actor;
    let rt = tracer::timed("clmpi", "ClMpi::new", || ClMpi::new(&p, sys()));
    let ctx = rt.context().clone();
    let q = ctx.create_queue(0, format!("r{me}"));
    let [sb, rb, wb, ab] = buffer_sizes();
    let (sbuf, rbuf, wbuf, abuf) = (
        ctx.create_buffer(sb),
        ctx.create_buffer(rb),
        ctx.create_buffer(wb),
        ctx.create_buffer(ab),
    );
    let win = tracer::timed("clmpi", "expose_buffer_as_window", || {
        rt.expose_buffer_as_window(&wbuf, wb, actor)
    })
    .expect("expose window");
    let mut errors = Vec::new();
    tracer::timed("minimpi", "barrier", || p.comm.barrier(actor));
    for (i, round) in sched.rounds.iter().enumerate() {
        let tag = i as i32;
        match round {
            Round::P2p { peer, sends, bytes } => {
                let (peer, n) = (peer[me], bytes[me]);
                if sends[me] {
                    sbuf.store(0, &sched.payload(i, me, n)).expect("fits");
                    submit_and_wait(&mut errors, "send", actor, || {
                        rt.enqueue_send_buffer(&q, &sbuf, false, 0, n, peer, tag, &[], actor)
                    });
                } else {
                    submit_and_wait(&mut errors, "recv", actor, || {
                        rt.enqueue_recv_buffer(&q, &rbuf, false, 0, n, peer, tag, &[], actor)
                    });
                    if rbuf.load(0, n).expect("fits") != sched.payload(i, peer, n) {
                        errors.push(format!("round {i}: recv of {n} B from r{peer} differs"));
                    }
                }
            }
            Round::Vector {
                peer,
                sends,
                count,
                mode,
            } => {
                let (peer, ty) = (peer[me], vector(count[me]));
                if sends[me] {
                    sbuf.store(0, &sched.payload(i, me, ty.extent()))
                        .expect("fits");
                    submit_and_wait(&mut errors, "send-vector", actor, || {
                        rt.enqueue_send_datatype(
                            &q,
                            &sbuf,
                            false,
                            0,
                            &ty,
                            *mode,
                            peer,
                            tag,
                            &[],
                            actor,
                        )
                    });
                } else {
                    submit_and_wait(&mut errors, "recv-vector", actor, || {
                        rt.enqueue_recv_datatype(
                            &q,
                            &rbuf,
                            false,
                            0,
                            &ty,
                            *mode,
                            peer,
                            tag,
                            &[],
                            actor,
                        )
                    });
                    let got = ty.pack(&rbuf.load(0, ty.extent()).expect("fits"));
                    if got != ty.pack(&sched.payload(i, peer, ty.extent())) {
                        errors.push(format!("round {i}: vector from r{peer} differs"));
                    }
                }
            }
            Round::Put { target, bytes } => {
                let n = bytes[me];
                wbuf.store(me * PUT_SLOT, &sched.payload(i, me, n))
                    .expect("fits");
                let s = Stamp::now();
                let put = rt.enqueue_put_buffer(
                    &q,
                    &win,
                    false,
                    me * PUT_SLOT,
                    me * PUT_SLOT,
                    n,
                    target[me],
                    &[],
                    actor,
                );
                s.record("minicl", "enqueue");
                let f = Stamp::now();
                let fence = put.and_then(|e| rt.enqueue_win_fence(&win, false, &[e], actor));
                f.record("minicl", "enqueue");
                match fence.and_then(|e| e.wait_result(actor)) {
                    Ok(()) => s.record("minicl", "wait"),
                    Err(e) => errors.push(format!("put+fence: {e}")),
                }
                let seg = win.win().read_local();
                for o in (0..RANKS).filter(|&o| target[o] == me) {
                    let slot = &seg[o * PUT_SLOT..o * PUT_SLOT + bytes[o]];
                    if slot != sched.payload(i, o, bytes[o]) {
                        errors.push(format!("round {i}: window slot of r{o} differs"));
                    }
                }
            }
            Round::Allreduce { count } => {
                let mine = sched.contribution(i, me, *count);
                abuf.store(0, f64_as_bytes(&mine)).expect("fits");
                submit_and_wait(&mut errors, "allreduce", actor, || {
                    rt.enqueue_allreduce_buffer(
                        &q,
                        &abuf,
                        0,
                        *count,
                        ReduceOp::Sum,
                        tag,
                        &[],
                        actor,
                    )
                });
                let mut want = vec![0.0f64; *count];
                for r in 0..RANKS {
                    for (w, v) in want.iter_mut().zip(sched.contribution(i, r, *count)) {
                        *w += v;
                    }
                }
                let got = abuf.load(0, count * 8).expect("fits");
                if got != f64_as_bytes(&want) {
                    errors.push(format!("round {i}: allreduce of {count} differs"));
                }
            }
        }
    }
    let end_ns = actor.now_ns();
    tracer::timed("clmpi", "shutdown", || rt.shutdown(actor));
    RankOut { end_ns, errors }
}
