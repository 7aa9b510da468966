//! Zero-copy witnesses for the wire path. A payload handed to the fabric
//! reaches the receiver as the sender's own allocation: a plain
//! `isend_raw`, every chunk of a clMPI send, and a chunk retransmitted
//! after a planned drop all arrive at the address the sender built, and
//! once delivered the receiver holds the only reference. A 16-rank ring
//! broadcast, whose every hop forwards the received allocation, still
//! delivers identical bytes to every rank under 1% data-plane drops.
//! Every scenario runs in both exec cores.

use clmpi::{
    data_plane_faults, ClMpi, CollAlgo, RetryPolicy, SystemConfig, TransferStrategy, CLMPI_TAG_BASE,
};
use minicl::{ClError, ClResult};
use minimpi::{run_world_faulty_mode, Datatype, FaultPlan, Payload, Process, Tag};
use simtime::{ExecMode, SimNs, XorShift64};

const MODES: [ExecMode; 2] = [ExecMode::Threads, ExecMode::Events];
const TAG: Tag = 9;

fn pattern(len: usize, seed: u64) -> Vec<u8> {
    let mut rng = XorShift64::new(seed);
    (0..len).map(|_| rng.next_u64() as u8).collect()
}

fn cluster() -> simnet::ClusterSpec {
    SystemConfig::ricc().cluster
}

#[test]
fn isend_raw_delivers_the_senders_allocation() {
    for mode in MODES {
        let res = run_world_faulty_mode(cluster(), 2, FaultPlan::none(), mode, |p: Process| {
            if p.rank() == 0 {
                let payload = Payload::from(pattern(4096, 1));
                let now = p.actor.now_ns();
                let req = p.comm.isend_raw(
                    &p.actor,
                    1,
                    TAG,
                    Datatype::Bytes,
                    payload.clone(),
                    now,
                    None,
                );
                let _ = req.wait(&p.actor);
                payload
            } else {
                p.comm.recv(&p.actor, Some(0), Some(TAG)).data
            }
        });
        assert_eq!(res.outputs.len(), 2, "{mode:?}");
        let (sent, got) = (&res.outputs[0], &res.outputs[1]);
        assert!(Payload::ptr_eq(sent, got), "{mode:?}: receiver got a copy");
        assert_eq!(got, sent, "{mode:?}");
    }
}

/// What rank 0 of a clMPI host send reports: the address its payload
/// was built at and the retransmissions the engine issued.
struct SendSide {
    addr: usize,
    retries: u64,
}

/// Rank 0 sends `size` bytes with `strategy` through `isend_cl`, giving
/// the engine its only handle on the payload; rank 1 receives the wire
/// chunks with plain matched receives. Every link is down for the first
/// 100 µs of virtual time, so the first injection is dropped and
/// retransmitted after the policy's backoff.
fn send_through_a_planned_drop(
    size: usize,
    strategy: TransferStrategy,
    mode: ExecMode,
) -> (ClResult<SendSide>, Vec<Payload>) {
    const DOWN_NS: SimNs = 100_000;
    let plan = data_plane_faults(FaultPlan::none().with_down_window(0, DOWN_NS));
    let res = run_world_faulty_mode(cluster(), 2, plan, mode, move |p: Process| {
        if p.rank() == 0 {
            let rt = ClMpi::new(&p, SystemConfig::ricc());
            let stats = rt.enable_stats();
            rt.set_retry_policy(RetryPolicy::default());
            rt.set_forced_strategy(Some(strategy));
            let payload = Payload::from(pattern(size, 7));
            let addr = payload.as_ptr() as usize;
            let sent = rt.isend_cl(&p.actor, 1, TAG, payload).wait_result(&p.actor);
            rt.shutdown(&p.actor);
            let side = sent.map(|()| SendSide {
                addr,
                retries: stats.faults().retries,
            });
            (Some(side), Vec::new())
        } else {
            let mut chunks = Vec::new();
            let mut got = 0;
            while got < size {
                let r = p.comm.recv(&p.actor, Some(0), Some(CLMPI_TAG_BASE + TAG));
                got += r.data.len();
                chunks.push(r.data);
            }
            (None, chunks)
        }
    });
    let mut outputs = res.outputs.into_iter();
    let side = outputs.next().and_then(|(side, _)| side);
    let chunks = outputs.next().map(|(_, c)| c).unwrap_or_default();
    let side = side.unwrap_or_else(|| Err(ClError::InvalidValue("rank 0 reported nothing".into())));
    (side, chunks)
}

#[test]
fn a_retransmitted_chunk_is_the_same_allocation() -> ClResult<()> {
    const SIZE: usize = 64 << 10;
    for mode in MODES {
        let (side, chunks) = send_through_a_planned_drop(SIZE, TransferStrategy::Pinned, mode);
        let side = side?;
        assert!(side.retries >= 1, "{mode:?}: the planned drop never fired");
        assert_eq!(chunks.len(), 1, "{mode:?}: pinned sends one chunk");
        let got = &chunks[0];
        assert_eq!(
            got.as_ptr() as usize,
            side.addr,
            "{mode:?}: retransmit copied"
        );
        assert_eq!(*got, pattern(SIZE, 7), "{mode:?}");
        // Delivered: neither the sender's machine nor the inbox kept a
        // handle, so taking the bytes back out is free.
        let (ptr, owned) = (got.as_ptr(), got.clone());
        drop(chunks);
        let bytes = owned.into_vec();
        assert_eq!(bytes.as_ptr(), ptr, "{mode:?}: a stale handle survived");
    }
    Ok(())
}

#[test]
fn every_pipelined_chunk_is_a_slice_of_the_senders_allocation() -> ClResult<()> {
    const SIZE: usize = 64 << 10;
    const BLOCK: usize = 16 << 10;
    for mode in MODES {
        let strategy = TransferStrategy::Pipelined(BLOCK);
        let (side, chunks) = send_through_a_planned_drop(SIZE, strategy, mode);
        let side = side?;
        assert!(side.retries >= 1, "{mode:?}: the planned drop never fired");
        assert_eq!(chunks.len(), SIZE / BLOCK, "{mode:?}");
        let mut off = 0;
        for c in &chunks {
            assert_eq!(
                c.as_ptr() as usize,
                side.addr + off,
                "{mode:?}: chunk copied"
            );
            off += c.len();
        }
        let joined: Vec<u8> = chunks.iter().flat_map(|c| c.iter().copied()).collect();
        assert_eq!(joined, pattern(SIZE, 7), "{mode:?}");
    }
    Ok(())
}

/// Every rank's broadcast region after a 16-rank ring broadcast of `SIZE`
/// bytes from rank 0 under 1% seeded data-plane drops, plus the number of
/// drops the fabric injected.
fn lossy_ring_bcast(seed: u64, mode: ExecMode) -> (Vec<ClResult<Vec<u8>>>, u64) {
    const RANKS: usize = 16;
    const SIZE: usize = 256 << 10;
    const CHUNK: usize = 16 << 10;
    let plan = data_plane_faults(FaultPlan::drops(seed, 0.01));
    let res = run_world_faulty_mode(cluster(), RANKS, plan, mode, move |p: Process| {
        let rt = ClMpi::new(&p, SystemConfig::ricc());
        let q = rt.context().create_queue(0, format!("r{}", p.rank()));
        let buf = rt.context().create_buffer(SIZE);
        if p.rank() == 0 {
            buf.store(0, &pattern(SIZE, seed))?;
        }
        let e = rt.enqueue_bcast_buffer_as(
            &q,
            &buf,
            0,
            SIZE,
            0,
            TAG,
            CollAlgo::Ring,
            CHUNK,
            &[],
            &p.actor,
        )?;
        e.wait(&p.actor);
        rt.shutdown(&p.actor);
        match e.error_code() {
            None => buf.load(0, SIZE),
            Some(code) => Err(ClError::InvalidValue(format!("bcast failed: {code}"))),
        }
    });
    (res.outputs, res.fault_counts.dropped())
}

#[test]
fn forwarded_ring_bcast_delivers_identical_bytes_under_drops() {
    for mode in MODES {
        let mut drops = 0;
        for seed in [3, 11, 29, 47] {
            let (outputs, dropped) = lossy_ring_bcast(seed, mode);
            drops += dropped;
            let want = pattern(256 << 10, seed);
            for (rank, got) in outputs.into_iter().enumerate() {
                assert_eq!(got, Ok(want.clone()), "{mode:?} seed {seed} rank {rank}");
            }
        }
        assert!(drops > 0, "{mode:?}: no seed dropped a chunk");
    }
}
