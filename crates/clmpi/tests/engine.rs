//! Integration tests for the progress engine: event-DAG ordering across
//! CL events and MPI requests, failure poisoning through the DAG, and
//! determinism of virtual-time outcomes across repeated lossy runs.

use clmpi::{data_plane_faults, ClMpi, RetryPolicy, SystemConfig, TransferStrategy};
use minicl::{CL_MPI_TRANSFER_ERROR, EXEC_STATUS_ERROR_FOR_EVENTS_IN_WAIT_LIST};
use minimpi::{run_world_faulty, run_world_sized, FaultPlan, Process};
use simtime::XorShift64;

fn pattern(len: usize, seed: u64) -> Vec<u8> {
    let mut rng = XorShift64::new(seed);
    (0..len).map(|_| rng.next_u64() as u8).collect()
}

/// A diamond DAG mixing both dependency kinds the engine multiplexes:
///
/// ```text
///        rank 0                      rank 1
///   kernel K ──┬─► send #1 ─────► recv #1 ──┬─► kernel J
///              └─► send #2 ─────► recv #2 ──┤
///   plain MPI isend #7 ─► event_from_request ┘
/// ```
///
/// Kernel J must start only after both device transfers landed *and* the
/// wrapped plain-MPI request completed; all three legs progress on one
/// engine per rank with no host blocking.
#[test]
fn diamond_dag_orders_cl_events_and_mpi_requests() {
    const SIZE: usize = 1 << 20;
    let cluster = SystemConfig::cichlid().cluster.clone();
    let res = run_world_sized(cluster, 2, move |p: Process| {
        let rt = ClMpi::new(&p, SystemConfig::cichlid());
        let q = rt.context().create_queue(0, format!("r{}", p.rank()));
        let buf = rt.context().create_buffer(2 * SIZE);
        if p.rank() == 0 {
            buf.store(0, &pattern(SIZE, 1)).unwrap();
            buf.store(SIZE, &pattern(SIZE, 2)).unwrap();
            // Top of the diamond: a kernel "producing" both halves.
            let ek = q.enqueue_kernel("produce", 2_000_000, &[], || {});
            let wait = [ek];
            let e1 = rt
                .enqueue_send_buffer(&q, &buf, false, 0, SIZE, 1, 1, &wait, &p.actor)
                .unwrap();
            let e2 = rt
                .enqueue_send_buffer(&q, &buf, false, SIZE, SIZE, 1, 2, &wait, &p.actor)
                .unwrap();
            // Third leg: a plain (non-clMPI) message the receiver wraps
            // into an event.
            p.comm.send(&p.actor, 1, 7, &pattern(64, 3));
            e1.wait(&p.actor);
            e2.wait(&p.actor);
            let produced_at = wait[0].completion_time().expect("kernel completed");
            assert!(
                e1.completion_time().expect("send 1 completed") > produced_at
                    && e2.completion_time().expect("send 2 completed") > produced_at,
                "sends must start only after the producing kernel"
            );
            rt.shutdown(&p.actor);
            (true, 0)
        } else {
            let e1 = rt
                .enqueue_recv_buffer(&q, &buf, false, 0, SIZE, 0, 1, &[], &p.actor)
                .unwrap();
            let e2 = rt
                .enqueue_recv_buffer(&q, &buf, false, SIZE, SIZE, 0, 2, &[], &p.actor)
                .unwrap();
            let req = p.comm.irecv(&p.actor, Some(0), Some(7));
            let (em, outcome) = rt.event_from_request(req);
            // Bottom of the diamond: a kernel gated on all three legs.
            let ej = q.enqueue_kernel(
                "consume",
                1_000_000,
                &[e1.clone(), e2.clone(), em.clone()],
                || {},
            );
            ej.wait(&p.actor);
            for (e, name) in [(&e1, "recv 1"), (&e2, "recv 2"), (&em, "mpi request")] {
                assert!(!e.is_failed(), "{name} must complete");
                assert!(
                    ej.completion_time().expect("kernel completed")
                        >= e.completion_time().unwrap_or_else(|| panic!("{name}")),
                    "consuming kernel must run after {name}"
                );
            }
            assert_eq!(buf.load(0, SIZE).unwrap(), pattern(SIZE, 1));
            assert_eq!(buf.load(SIZE, SIZE).unwrap(), pattern(SIZE, 2));
            let payload = outcome.take().expect("wrapped receive carries payload");
            assert_eq!(payload.data, pattern(64, 3));
            rt.shutdown(&p.actor);
            (true, payload.data.len())
        }
    });
    assert!(res.outputs.iter().all(|&(ok, _)| ok));
    assert_eq!(res.outputs[1].1, 64);
}

/// A transfer that fails permanently (retry budget exhausted on a
/// black-hole fabric) must poison every command gated on its event:
/// the failed transfer reports `CL_MPI_TRANSFER_ERROR`, its dependents
/// `CL_EXEC_STATUS_ERROR_FOR_EVENTS_IN_WAIT_LIST` — transitively.
#[test]
fn permanent_failure_poisons_dependent_commands() {
    let plan = data_plane_faults(FaultPlan::drops(11, 1.0));
    let cluster = SystemConfig::ricc().cluster.clone();
    let res = run_world_faulty(cluster, 2, plan, move |p: Process| {
        let rt = ClMpi::new(&p, SystemConfig::ricc());
        rt.set_retry_policy(RetryPolicy {
            max_attempts: 2,
            chunk_timeout_ns: 50_000_000,
            ..RetryPolicy::default()
        });
        let q = rt.context().create_queue(0, format!("r{}", p.rank()));
        let buf = rt.context().create_buffer(1 << 16);
        let codes = if p.rank() == 0 {
            rt.set_forced_strategy(Some(TransferStrategy::Pinned));
            let e1 = rt
                .enqueue_send_buffer(&q, &buf, false, 0, 1 << 16, 1, 1, &[], &p.actor)
                .unwrap();
            let e2 = rt
                .enqueue_send_buffer(
                    &q,
                    &buf,
                    false,
                    0,
                    1 << 16,
                    1,
                    2,
                    std::slice::from_ref(&e1),
                    &p.actor,
                )
                .unwrap();
            let e3 = rt
                .enqueue_send_buffer(
                    &q,
                    &buf,
                    false,
                    0,
                    1 << 16,
                    1,
                    3,
                    std::slice::from_ref(&e2),
                    &p.actor,
                )
                .unwrap();
            e3.wait(&p.actor);
            (e1.error_code(), e2.error_code(), e3.error_code())
        } else {
            (None, None, None)
        };
        rt.shutdown(&p.actor);
        codes
    });
    let (c1, c2, c3) = res.outputs[0];
    assert_eq!(c1, Some(CL_MPI_TRANSFER_ERROR), "root failure is -1100");
    assert_eq!(
        c2,
        Some(EXEC_STATUS_ERROR_FOR_EVENTS_IN_WAIT_LIST),
        "direct dependent is poisoned with -14"
    );
    assert_eq!(
        c3,
        Some(EXEC_STATUS_ERROR_FOR_EVENTS_IN_WAIT_LIST),
        "poisoning propagates transitively"
    );
}

/// The determinism claim of the engine design: virtual-time outcomes
/// (final elapsed time, payload integrity, retry-shaped completion
/// times) depend only on the seeded fault plan, never on host-thread
/// interleaving. Sixteen seeds, each run twice; both runs must agree
/// exactly.
#[test]
fn lossy_runs_are_deterministic_across_reruns() {
    const SIZE: usize = 1 << 18;
    let run = |seed: u64| {
        let plan = data_plane_faults(FaultPlan::drops(seed, 0.05));
        let cluster = SystemConfig::ricc().cluster.clone();
        let res = run_world_faulty(cluster, 2, plan, move |p: Process| {
            let rt = ClMpi::new(&p, SystemConfig::ricc());
            rt.set_forced_strategy(Some(TransferStrategy::Pipelined(1 << 16)));
            let q = rt.context().create_queue(0, format!("r{}", p.rank()));
            let buf = rt.context().create_buffer(SIZE);
            let digest = if p.rank() == 0 {
                buf.store(0, &pattern(SIZE, seed ^ 0xabc)).unwrap();
                let e = rt
                    .enqueue_send_buffer(&q, &buf, false, 0, SIZE, 1, 1, &[], &p.actor)
                    .unwrap();
                // A host-side leg races the device-side one on the same
                // engine.
                let hreq = rt.isend_cl(&p.actor, 1, 2, pattern(1 << 12, seed));
                e.wait(&p.actor);
                hreq.wait(&p.actor);
                e.completion_time().unwrap_or(0)
            } else {
                let e = rt
                    .enqueue_recv_buffer(&q, &buf, false, 0, SIZE, 0, 1, &[], &p.actor)
                    .unwrap();
                let hreq = rt.irecv_cl(&p.actor, 0, 2, 1 << 12);
                e.wait(&p.actor);
                hreq.event.wait(&p.actor);
                let body = buf.load(0, SIZE).unwrap();
                let host = hreq.data.read(|h| h.as_slice().to_vec());
                assert_eq!(body, pattern(SIZE, seed ^ 0xabc));
                assert_eq!(host, pattern(1 << 12, seed));
                e.completion_time().unwrap_or(0)
            };
            rt.shutdown(&p.actor);
            digest
        });
        (
            res.elapsed_ns,
            res.outputs.clone(),
            res.fault_counts.dropped(),
        )
    };
    for seed in 0..16u64 {
        let a = run(seed);
        let b = run(seed);
        assert_eq!(
            a, b,
            "seed {seed}: two runs of the same world must agree exactly"
        );
    }
}
