//! The receive-abort ladder, pinned per machine. Every patient receive —
//! `enqueue_recv_buffer`, `irecv_cl`, a non-root `enqueue_bcast_buffer`
//! and `enqueue_allreduce_buffer` — must give up the same way when its
//! source can never deliver: at once when the source is dead (a ULFM
//! process failure with one `op.failure` span), and exactly one chunk
//! patience after posting when the source is alive but silent (a plain
//! transfer failure). Both exec cores, and the engine drains either way.

use clmpi::{ClMpi, ReduceOp, RetryPolicy, SystemConfig, TransferStrategy, CL_MPI_TRANSFER_ERROR};
use minicl::ClResult;
use minimpi::{run_world_faulty_mode, FaultPlan, Process};
use simtime::{ExecMode, SimNs};

const SIZE: usize = 64 << 10;
const TAG: i32 = 7;
const PATIENCE: SimNs = 3_000_000;
/// A source death scheduled far past every run: it arms the fault plan
/// (so receives apply their patience) without killing anyone in time.
const NEVER: SimNs = 1 << 50;

#[derive(Clone, Copy, Debug)]
enum Op {
    Recv,
    IrecvCl,
    BcastLeaf,
    Allreduce,
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum Case {
    DeadSource,
    SilentSource,
}

#[derive(Debug, PartialEq)]
struct Outcome {
    code: Option<i32>,
    /// Virtual time from posting the receive to the event settling.
    waited: SimNs,
    proc_failures: u64,
    failures: u64,
    failure_spans: usize,
    active_after_shutdown: usize,
}

/// Rank 1 receives from rank 0, which is dead from t=0 or alive and
/// silent, and reports how its event settled.
fn run(op: Op, case: Case, mode: ExecMode) -> Option<ClResult<Outcome>> {
    let plan = match case {
        Case::DeadSource => FaultPlan::none().with_node_down(0, 0),
        Case::SilentSource => FaultPlan::none().with_node_down(0, NEVER),
    };
    let cluster = SystemConfig::ricc().cluster.clone();
    let res = run_world_faulty_mode(cluster, 2, plan, mode, move |p: Process| {
        // The source never sends.
        (p.rank() == 1).then(|| receive(&p, op))
    });
    res.outputs.into_iter().flatten().next()
}

fn receive(p: &Process, op: Op) -> ClResult<Outcome> {
    let rt = ClMpi::new(p, SystemConfig::ricc());
    let stats = rt.enable_stats();
    rt.set_retry_policy(RetryPolicy {
        chunk_timeout_ns: PATIENCE,
        ..RetryPolicy::default()
    });
    rt.set_forced_strategy(Some(TransferStrategy::Pinned));
    let q = rt.context().create_queue(0, "r1");
    let buf = rt.context().create_buffer(SIZE);
    let pcie = rt.config().device.pcie;
    let t0 = p.actor.now_ns();
    // The instant each machine posts its first matched receive: after the
    // pinned staging setup, and for the allreduce after the d2h load of
    // the local contribution too.
    let (event, posted) = match op {
        Op::Recv => (
            rt.enqueue_recv_buffer(&q, &buf, false, 0, SIZE, 0, TAG, &[], &p.actor)?,
            t0 + pcie.pin_setup_ns,
        ),
        Op::IrecvCl => (rt.irecv_cl(&p.actor, 0, TAG, SIZE).event, t0),
        Op::BcastLeaf => (
            rt.enqueue_bcast_buffer(&q, &buf, 0, SIZE, 0, TAG, &[], &p.actor)?,
            t0 + pcie.pin_setup_ns,
        ),
        Op::Allreduce => (
            rt.enqueue_allreduce_buffer(&q, &buf, 0, SIZE / 8, ReduceOp::Sum, TAG, &[], &p.actor)?,
            t0 + pcie.pin_setup_ns + pcie.staged_ns(SIZE, true),
        ),
    };
    event.wait(&p.actor);
    let settled = p.actor.now_ns();
    rt.shutdown(&p.actor);
    let faults = stats.faults();
    let failure_spans = p
        .comm
        .world()
        .trace()
        .ops()
        .iter()
        .filter(|o| o.rank == 1 && o.cat == "op.failure")
        .count();
    Ok(Outcome {
        code: event.error_code(),
        waited: settled - posted,
        proc_failures: faults.proc_failures,
        failures: faults.failures,
        failure_spans,
        active_after_shutdown: rt.engine().active(),
    })
}

#[test]
fn every_patient_receive_aborts_the_same_way_in_both_cores() {
    let ops = [Op::Recv, Op::IrecvCl, Op::BcastLeaf, Op::Allreduce];
    for mode in [ExecMode::Threads, ExecMode::Events] {
        for op in ops {
            for case in [Case::DeadSource, Case::SilentSource] {
                let dead = case == Case::DeadSource;
                let want = Outcome {
                    code: Some(CL_MPI_TRANSFER_ERROR),
                    // A dead source aborts at the posting instant; a
                    // silent one waits out exactly one chunk patience.
                    waited: if dead { 0 } else { PATIENCE },
                    // A process failure counts as a failure too.
                    proc_failures: u64::from(dead),
                    failures: 1,
                    failure_spans: usize::from(dead),
                    active_after_shutdown: 0,
                };
                assert_eq!(
                    run(op, case, mode),
                    Some(Ok(want)),
                    "{op:?} / {case:?} / {mode:?}"
                );
            }
        }
    }
}
