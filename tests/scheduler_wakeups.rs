//! Tier-1 smoke for the scheduler's keyed wake-ups.
//!
//! A small seeded transfer mix (two-sided sends across the pipeline
//! threshold, put+fence epochs, an allreduce) on the CXL pod preset with
//! 1% data-plane drops runs under both exec cores. The cores must agree
//! byte for byte on the `ObsSummary` fingerprint and the makespan, and
//! neither run — nor a Himeno M clMPI run — may wake a waiter through the
//! unkeyed fallback: every wait in the stack is keyed.

use clmpi_repro::clmpi::{data_plane_faults, ClMpi, ObsSummary, ReduceOp, SystemConfig};
use clmpi_repro::himeno::{run_himeno_with_faults_mode, GridSize, HimenoConfig, Variant};
use clmpi_repro::minimpi::datatype::f64_as_bytes;
use clmpi_repro::minimpi::{run_world_faulty_mode, FaultPlan, Process, WorldResult};
use clmpi_repro::simtime::{ExecMode, XorShift64};

const RANKS: usize = 8;
const ROUNDS: usize = 6;
const SLOT: usize = 16 << 10;
const MAX_P2P: usize = (1 << 20) + (256 << 10);

fn payload(seed: u64, round: usize, rank: usize, len: usize) -> Vec<u8> {
    let mut rng = XorShift64::new(seed ^ (((round * RANKS + rank) as u64 + 1) << 8));
    (0..len).map(|_| rng.next_u64() as u8).collect()
}

/// The per-round plan every rank derives from the seed: a partner
/// permutation pairing ranks (`2k` ↔ `2k+1` after a seeded rotation) and
/// one size per pair, straddling the preset's 1 MiB pipeline threshold.
fn round_plan(seed: u64, round: usize) -> (Vec<usize>, Vec<usize>) {
    let mut rng = XorShift64::new(seed.wrapping_mul(31) + round as u64);
    let shift = rng.gen_range_usize(0, RANKS);
    let mut peer = vec![0; RANKS];
    let mut bytes = vec![0; RANKS];
    for k in 0..RANKS / 2 {
        let (a, b) = ((2 * k + shift) % RANKS, (2 * k + 1 + shift) % RANKS);
        peer[a] = b;
        peer[b] = a;
        let n = if rng.gen_range_usize(0, 2) == 0 {
            rng.gen_range_usize(4 << 10, 128 << 10)
        } else {
            rng.gen_range_usize(1 << 20, MAX_P2P)
        };
        bytes[a] = n;
        bytes[b] = n;
    }
    (peer, bytes)
}

fn transfer_mix(mode: ExecMode, seed: u64) -> WorldResult<()> {
    let sys = SystemConfig::cxl_pod();
    let plan = data_plane_faults(FaultPlan::drops(seed, 0.01));
    run_world_faulty_mode(sys.cluster.clone(), RANKS, plan, mode, move |p: Process| {
        let me = p.rank();
        let actor = &p.actor;
        let rt = ClMpi::new(&p, SystemConfig::cxl_pod());
        let q = rt.context().create_queue(0, format!("r{me}"));
        let buf = rt.context().create_buffer(MAX_P2P);
        let wbuf = rt.context().create_buffer(RANKS * SLOT);
        let abuf = rt.context().create_buffer(64 * 8);
        let win = rt
            .expose_buffer_as_window(&wbuf, RANKS * SLOT, actor)
            .expect("expose window");
        p.comm.barrier(actor);
        for round in 0..ROUNDS {
            let tag = round as i32;
            let (peer, bytes) = round_plan(seed, round);
            let (peer, n) = (peer[me], bytes[me]);
            // Two-sided: the lower rank of each pair sends.
            if me < peer {
                buf.store(0, &payload(seed, round, me, n)).expect("fits");
                rt.enqueue_send_buffer(&q, &buf, false, 0, n, peer, tag, &[], actor)
                    .and_then(|e| e.wait_result(actor))
                    .expect("send");
            } else {
                rt.enqueue_recv_buffer(&q, &buf, false, 0, n, peer, tag, &[], actor)
                    .and_then(|e| e.wait_result(actor))
                    .expect("recv");
                let got = buf.load(0, n).expect("fits");
                assert_eq!(got, payload(seed, round, peer, n), "round {round} r{me}");
            }
            // One-sided: put into the partner's window slot, then fence.
            let len = SLOT / (round + 1);
            wbuf.store(me * SLOT, &payload(seed, round, me, len))
                .expect("fits");
            rt.enqueue_put_buffer(&q, &win, false, me * SLOT, me * SLOT, len, peer, &[], actor)
                .and_then(|e| rt.enqueue_win_fence(&win, false, &[e], actor))
                .and_then(|e| e.wait_result(actor))
                .expect("put+fence");
            let seg = win.win().read_local();
            assert_eq!(
                &seg[peer * SLOT..peer * SLOT + len],
                &payload(seed, round, peer, len)[..],
                "window slot of r{peer}"
            );
        }
        let mine: Vec<f64> = (0..64).map(|i| (me * 64 + i) as f64).collect();
        abuf.store(0, f64_as_bytes(&mine)).expect("fits");
        rt.enqueue_allreduce_buffer(&q, &abuf, 0, 64, ReduceOp::Sum, 99, &[], actor)
            .and_then(|e| e.wait_result(actor))
            .expect("allreduce");
        let want: Vec<f64> = (0..64)
            .map(|i| (0..RANKS).map(|r| (r * 64 + i) as f64).sum())
            .collect();
        assert_eq!(abuf.load(0, 64 * 8).expect("fits"), f64_as_bytes(&want));
        rt.shutdown(actor);
    })
}

#[test]
fn transfer_mix_is_identical_in_both_cores_and_fully_keyed() {
    let seed = 7;
    let threads = transfer_mix(ExecMode::Threads, seed);
    let events = transfer_mix(ExecMode::Events, seed);
    let (ht, he) = (
        ObsSummary::from_trace(&threads.trace).hash(),
        ObsSummary::from_trace(&events.trace).hash(),
    );
    assert_eq!(ht, he, "ObsSummary fingerprints diverge between the cores");
    assert_eq!(threads.elapsed_ns, events.elapsed_ns, "makespans diverge");
    assert_eq!(threads.events, events.events, "machine transitions diverge");
    assert!(
        threads.fault_counts.dropped() > 0,
        "the 1% plan never fired"
    );
    for (core, r) in [("threads", &threads), ("events", &events)] {
        assert!(r.keyed_wakes > 0, "{core}: no keyed wake-ups recorded");
        assert_eq!(r.fallback_wakes, 0, "{core}: a wait relied on the fallback");
    }
}

#[test]
fn himeno_m_clmpi_wakes_only_through_keys() {
    let cfg = HimenoConfig {
        size: GridSize::M,
        iters: 2,
        sys: SystemConfig::cichlid(),
        nodes: 4,
        strategy: None,
        halo: Default::default(),
    };
    let r = run_himeno_with_faults_mode(Variant::ClMpi, cfg, FaultPlan::none(), ExecMode::Threads);
    assert!(r.keyed_wakes > 0);
    assert_eq!(r.fallback_wakes, 0, "a Himeno wait relied on the fallback");
}
