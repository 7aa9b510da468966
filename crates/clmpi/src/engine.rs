//! The per-rank progress engine: one long-lived runtime actor that drives
//! every in-flight clMPI operation as an explicit state machine.
//!
//! ### Why an engine (paper §V-A, revisited)
//!
//! The paper's runtime executes communication commands on an internal
//! thread so the host thread is never blocked. Earlier revisions of this
//! reproduction spawned one short-lived runtime thread per command; this
//! module replaces them with the paper's actual architecture: a single
//! per-rank progress thread that multiplexes **all** outstanding work —
//! chunked transfers, MPI request wrappers, collective fan-outs, file
//! I/O, and retry/backoff timers — as cooperative state machines.
//!
//! ### Execution model
//!
//! Each operation implements [`EngineOp`]: a `step` function that runs at
//! the engine's current virtual instant and returns a [`Step`] verdict.
//! The engine actor evaluates all registered machines to a fixpoint at
//! one frozen instant, then blocks until either a clock notification
//! (event completed, message matched, new submission) or one of the
//! future instants the machines asked to be woken at (retry backoff
//! expiry, injection end, staging completion) — scheduled as thread-less
//! clock alarms, never as a parked thread.
//!
//! **The engine never blocks inside a machine.** A machine that needs a
//! future instant *parks* with a wake hint; a machine that needs another
//! actor's progress parks without one and relies on the keyed notify of
//! the monitors it read (event statuses, request slots, rank state). This is what the repo's CI lint enforces: this file must
//! contain no blocking wait, no blocking receive, and no virtual-time
//! sleep — the only places the data plane may touch virtual time are
//! reservation timelines and alarms.
//!
//! ### Determinism
//!
//! Submissions are handled at the submitting actor's *current* virtual
//! instant: `submit` notifies the engine's own monitor, and the clock
//! cannot advance until every woken actor — the engine included — has
//! re-evaluated its predicate. Within one engine, machines step in FIFO submission order,
//! which makes same-instant resource reservations deterministic per rank
//! (the previous one-thread-per-command design raced them).

use std::collections::VecDeque;
use std::sync::Arc;

use minicl::{
    Buffer, ClError, ClResult, Device, Event, HostBuffer, UserEvent, WaitListStatus,
    CL_MPI_TRANSFER_ERROR, EXEC_STATUS_ERROR_FOR_EVENTS_IN_WAIT_LIST,
};
use minimpi::{
    CommittedType, Datatype, DropReason, MpiError, Payload, Rank, RecvResult, ReduceOp, Request,
    RmaHandle, RmaPoll, RmaRoute, Tag, Win, RMA_PATIENCE_NS,
};
use simtime::plock::Mutex;
use simtime::{
    Actor, Completion, CompletionState, MachineHandle, MachineStep, Monitor, OpSpan, SimActor,
    SimClock, SimNs,
};

use crate::adaptive::PeerKey;
use crate::obs::ChildIds;
use crate::retry::RetryPolicy;
use crate::runtime::Inner;
use crate::strategy::{PackMode, ResolvedStrategy, TransferStrategy};

/// A derived-datatype lowering attached to a transfer machine: the
/// committed type map plus the pack canonicalization mode (the TEMPI
/// axis). When present, `offset`/`size` on the op describe the *region
/// base* and the *packed wire size*; the type map routes bytes between
/// the strided device region and the contiguous wire chunks.
pub(crate) struct Lowering {
    pub ty: CommittedType,
    pub mode: PackMode,
}

impl Lowering {
    /// Cost of gathering/scattering the packed range `[lo, hi)` across
    /// PCIe segment-by-segment (the host-pack baseline): every type-map
    /// segment pays the full staged latency, which is exactly why real
    /// MPI implementations lose to device-side packing on strided types.
    fn host_staged_ns(&self, pcie: &minicl::PcieModel, lo: usize, hi: usize) -> SimNs {
        self.ty
            .segments_for_packed_range(lo, hi)
            .iter()
            .map(|&(_, len)| pcie.staged_ns(len, true))
            .sum()
    }
}

// ----------------------------------------------------------------------
// Engine core
// ----------------------------------------------------------------------

/// Verdict of one [`EngineOp::step`] call at the engine's current instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// The machine changed state and wants to be stepped again at the
    /// same instant (e.g. it finished one phase and the next phase can
    /// start immediately).
    Progressed,
    /// Nothing to do right now. `Some(t)` asks for a wake-up at the
    /// strictly-future instant `t` (a retry backoff expiry, an injection
    /// end); `None` means "wake me on any cross-actor notification"
    /// (an event completing, a message matching). A machine that could
    /// settle at the current instant must progress instead of parking.
    Park(Option<SimNs>),
    /// The operation finished (its event settled, its result landed);
    /// the engine unregisters it.
    Done,
}

/// An in-flight operation driven by the engine. Implementations are
/// state machines: `step` runs at a frozen virtual instant, must never
/// block, and reports how the engine should treat the machine next.
pub trait EngineOp: Send {
    /// Diagnostic label (mirrors the thread names of the old
    /// one-thread-per-command design).
    fn label(&self) -> &str;

    /// Advance the machine as far as possible at virtual instant `now`.
    /// `actor` is the engine's own clock actor: machines may use it to
    /// post non-blocking MPI calls, but must never park it.
    fn step(&mut self, now: SimNs, actor: &Actor) -> Step;
}

#[derive(Default)]
struct EngineShared {
    /// Newly submitted machines, drained by the worker at the
    /// submission instant.
    incoming: Vec<Box<dyn EngineOp>>,
    /// Machines submitted but not yet finished (incoming + registered).
    active: usize,
    /// Once set, the worker exits as soon as every machine finishes.
    shutdown: bool,
}

/// The per-rank progress engine. Owns one scheduled machine
/// (`EngineCore`) that steps every registered [`EngineOp`] to
/// completion — on a dedicated thread in thread mode, on its shard's
/// worker in event mode.
pub struct Engine {
    shared: Arc<Monitor<EngineShared>>,
    handle: Mutex<Option<MachineHandle>>,
}

impl Engine {
    /// Start an engine on `clock`. The calling thread must be a running
    /// clock actor (the registration rule): the machine's executing actor
    /// is registered here, before any thread spawns. `hint` places the
    /// machine in event mode (the runtime passes the MPI rank).
    pub fn start(clock: &SimClock, label: String, hint: u64) -> Engine {
        let shared = Arc::new(Monitor::new(clock.clone(), EngineShared::default()));
        let core = EngineCore {
            shared: shared.clone(),
            ops: Vec::new(),
        };
        let handle = clock.spawn_machine(hint, label, Box::new(core));
        Engine {
            shared,
            handle: Mutex::new(Some(handle)),
        }
    }

    /// Register a machine. It is first stepped at the caller's current
    /// virtual instant — the clock cannot advance past the submission
    /// before the engine has seen it.
    pub fn submit(&self, op: Box<dyn EngineOp>) {
        self.shared.with(|s| {
            assert!(!s.shutdown, "clMPI engine already shut down");
            s.active += 1;
            s.incoming.push(op);
        });
    }

    /// Block `actor` (in virtual time) until every submitted machine has
    /// finished.
    pub fn wait_idle(&self, actor: &Actor) {
        self.shared
            // checker-allow(non-blocking-engine): host-side control-plane
            // API (shutdown quiescence); it blocks the *calling* actor,
            // never the engine worker thread.
            .wait_labeled(actor, "clmpi shutdown", |s| (s.active == 0).then_some(()));
    }

    /// Number of machines submitted but not yet finished.
    pub fn active(&self) -> usize {
        self.shared.peek(|s| s.active)
    }

    /// True when called from the thread executing the engine's machine
    /// (used by drop paths that must not block the scheduler).
    pub(crate) fn on_worker_thread(&self) -> bool {
        self.handle
            .lock()
            .as_ref()
            .is_some_and(|h| h.on_worker_thread())
    }
}

impl Drop for Engine {
    /// Ask the machine to exit once its ops drain, and reap it. Callers
    /// must drain first ([`Engine::wait_idle`]) unless dropping from the
    /// machine's own executor — joining an engine that still owes
    /// virtual-time progress would stall the clock.
    fn drop(&mut self) {
        if std::thread::panicking() {
            return; // clock is poisoned; the machine dies on its own
        }
        self.shared.with(|s| s.shutdown = true);
        // Take the handle out before reaping: an `if let` scrutinee would
        // keep the MutexGuard alive across the join, deadlocking any
        // `on_worker_thread` call from the machine being joined.
        let h = self.handle.lock().take();
        if let Some(h) = h {
            h.reap();
        }
    }
}

/// The engine loop as a resumable machine. Every poll happens at a frozen
/// virtual instant (the executor is runnable while stepping); between
/// polls the executor is a blocked actor whose scheduled alarms are
/// eligible to drive the clock. Identical code serves both execution
/// modes, which is what makes their virtual timings indistinguishable.
struct EngineCore {
    shared: Arc<Monitor<EngineShared>>,
    ops: Vec<Box<dyn EngineOp>>,
}

impl SimActor for EngineCore {
    fn wait_label(&self) -> &'static str {
        "clmpi engine"
    }

    fn poll(&mut self, now: SimNs, actor: &Actor) -> MachineStep {
        if let Some(mut newly) = self.shared.try_now(|s| {
            if s.incoming.is_empty() {
                None
            } else {
                Some(std::mem::take(&mut s.incoming))
            }
        }) {
            self.ops.append(&mut newly);
        }
        // Count only actual op-state transitions (progress and
        // completions): idle re-polls of parked ops are free, so the
        // count is a deterministic property of the scenario, not of the
        // host's wake-up pattern.
        let mut transitions: u64 = 0;
        // The wake hint reported upward: the earliest future instant any
        // op asked for *in the final, progress-free pass* (earlier passes
        // recompute it — a parked op re-reports its hint every pass).
        let mut hint: Option<SimNs> = None;
        let mut made_progress = true;
        while made_progress {
            made_progress = false;
            hint = None;
            let mut i = 0;
            while i < self.ops.len() {
                match self.ops[i].step(now, actor) {
                    Step::Progressed => {
                        transitions += 1;
                        made_progress = true;
                        i += 1;
                    }
                    Step::Park(h) => {
                        if let Some(t) = h {
                            debug_assert!(t > now, "machines must progress, not park, when due");
                            if t > now {
                                hint = Some(hint.map_or(t, |c: SimNs| c.min(t)));
                            }
                        }
                        i += 1;
                    }
                    Step::Done => {
                        let op = self.ops.remove(i);
                        // Decrement while the op is still alive: dropping
                        // it may release the last handle on the runtime,
                        // whose drop path reads this counter.
                        self.shared.with(|s| s.active -= 1);
                        drop(op);
                        transitions += 1;
                        made_progress = true;
                    }
                }
            }
        }
        if transitions > 0 {
            actor.clock().count_events(transitions);
        }
        if self.ops.is_empty() && self.shared.peek(|s| s.shutdown && s.incoming.is_empty()) {
            MachineStep::Done
        } else {
            MachineStep::Pending(hint)
        }
    }
}

// ----------------------------------------------------------------------
// Shared building blocks
// ----------------------------------------------------------------------

/// Poll a wait list the way the old runtime threads waited on it, but
/// without blocking: `Ok(false)` until *every* event settles, then the
/// first failure in list order as the poisoning error, or `Ok(true)`.
pub(crate) fn deps_ready(wait: &[Event]) -> ClResult<bool> {
    match Event::poll_wait_list(wait) {
        WaitListStatus::Pending => Ok(false),
        WaitListStatus::Ready => Ok(true),
        WaitListStatus::Failed { code, label } => Err(ClError::EventFailed { code, label }),
    }
}

/// Like [`deps_ready`] but ignoring failures — the file commands
/// historically only ordered on settlement, not success.
pub(crate) fn deps_settled(wait: &[Event]) -> bool {
    !matches!(Event::poll_wait_list(wait), WaitListStatus::Pending)
}

/// A top-level operation envelope: category, name, payload size and
/// transfer endpoints. Recorded on the rank's `host` track from submit to
/// settlement; exporters pair these spans into causal send→recv links.
pub(crate) struct Envelope {
    pub cat: &'static str,
    pub name: String,
    pub bytes: u64,
    pub peer: Option<Rank>,
    pub tag: Option<Tag>,
}

/// Record an operation envelope with the op's stable id and outcome.
pub(crate) fn record_envelope(
    inner: &Inner,
    ids: &ChildIds,
    env: Envelope,
    start: SimNs,
    end: SimNs,
    ok: bool,
) {
    let rank = inner.comm.rank();
    inner.trace.record_op(OpSpan {
        id: ids.op(),
        parent: None,
        rank: rank as u32,
        track: format!("r{rank}.host"),
        name: env.name,
        cat: env.cat.into(),
        start,
        end: end.max(start),
        bytes: env.bytes,
        ok,
        peer: env.peer.map(|p| p as u32),
        tag: env.tag,
    });
}

/// Record a child span (a chunk, retry, drop, or staging hop) under its
/// operation's id block, on the rank's `net` or `dev` track.
#[allow(clippy::too_many_arguments)]
pub(crate) fn record_child(
    inner: &Inner,
    ids: &mut ChildIds,
    track_kind: &str,
    name: String,
    cat: &str,
    start: SimNs,
    end: SimNs,
    bytes: u64,
    ok: bool,
) {
    let rank = inner.comm.rank();
    inner.trace.record_op(OpSpan {
        id: ids.child(),
        parent: Some(ids.op()),
        rank: rank as u32,
        track: format!("r{rank}.{track_kind}"),
        name,
        cat: cat.into(),
        start,
        end: end.max(start),
        bytes,
        ok,
        peer: None,
        tag: None,
    });
}

/// Count an operation's permanent failure. A dead peer (`Some(rank)`) is
/// a ULFM `MPI_ERR_PROC_FAILED`-class process failure: it is counted as
/// such and recorded as an `op.failure` span at the instant the op
/// observed it, summarized into the recovery counters of
/// [`crate::obs::ObsSummary`] separately from the ordinary op counters.
pub(crate) fn note_abort(inner: &Inner, ids: &mut ChildIds, dead: Option<Rank>, at: SimNs) {
    if let Some(stats) = inner.stats.lock().as_ref() {
        match dead {
            Some(_) => stats.note_proc_failure(),
            None => stats.note_failure(),
        }
    }
    if let Some(peer) = dead {
        let name = format!("proc-failure r{peer}");
        record_child(inner, ids, "host", name, "op.failure", at, at, 0, false);
    }
}

/// One stage a transfer chunk passes through, named as the traces name it.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Stage {
    /// On-device pack kernel (device-pack lowering).
    Pack,
    /// Device → host staging hop.
    D2h,
    /// Host → device staging hop.
    H2d,
    /// On-device unpack kernel (device-unpack lowering).
    Unpack,
    /// The wire hop to a peer.
    Net(Rank),
    /// The mapped path's fused map + wire stream to a peer.
    MapSend(Rank),
}

impl Stage {
    /// (track, span name, category) of the stage's child span.
    fn parts(self) -> (&'static str, String, &'static str) {
        match self {
            Stage::Pack => ("dev", "pack".into(), "stage.pack"),
            Stage::D2h => ("dev", "d2h".into(), "stage.d2h"),
            Stage::H2d => ("dev", "h2d".into(), "stage.h2d"),
            Stage::Unpack => ("dev", "unpack".into(), "stage.unpack"),
            Stage::Net(peer) => ("net", format!("net→{peer}"), "chunk"),
            Stage::MapSend(peer) => ("net", format!("map+send→{peer}"), "chunk"),
        }
    }

    /// Record the stage as a child span of the op.
    pub(crate) fn child(
        self,
        inner: &Inner,
        ids: &mut ChildIds,
        start: SimNs,
        end: SimNs,
        bytes: u64,
    ) {
        let (track, name, cat) = self.parts();
        record_child(inner, ids, track, name, cat, start, end, bytes, true);
    }

    /// Record the stage on the rank's `comm` lane (the Fig. 4 timeline)
    /// and as a child span of the op, in that order: the one place the
    /// point-to-point machines emit their per-chunk stage spans.
    pub(crate) fn record(
        self,
        inner: &Inner,
        ids: &mut ChildIds,
        start: SimNs,
        end: SimNs,
        bytes: u64,
    ) {
        let lane = format!("r{}.comm", inner.comm.rank());
        inner.trace.record(lane, self.parts().1, start, end);
        self.child(inner, ids, start, end, bytes);
    }
}

/// What a traced machine reports when it settles: its envelope, and the
/// (sent, received) payload bytes the obs counters credit on success.
pub(crate) struct Report<'a> {
    pub inner: &'a Inner,
    pub ids: &'a ChildIds,
    pub submit_ns: SimNs,
    pub envelope: Envelope,
    pub moved: (u64, u64),
}

/// [`settle_op`]'s `slot` argument for machines nobody blocks on.
pub(crate) const NO_SLOT: Option<(&Monitor<()>, ())> = None;

/// The one settlement path of every engine machine, in this order: fill
/// the blocked caller's result slot, record the `op.*` envelope (`report`;
/// the untraced file commands have none), count the settlement, then
/// settle the event through the one status mapping — success completes
/// it, a poisoned wait list fails it with −14, and any other error with
/// `CL_MPI_TRANSFER_ERROR`. Returns the machine's final verdict.
pub(crate) fn settle_op<T>(
    slot: Option<(&Monitor<T>, T)>,
    report: Option<Report<'_>>,
    ue: Option<&UserEvent>,
    outcome: ClResult<()>,
    at: SimNs,
) -> Step {
    if let Some((slot, value)) = slot {
        slot.with(|s| *s = value);
    }
    let ok = outcome.is_ok();
    if let Some(r) = report {
        record_envelope(r.inner, r.ids, r.envelope, r.submit_ns, at, ok);
        let (sent, received) = if ok { r.moved } else { (0, 0) };
        r.inner.note_settled(ok, sent, received);
    }
    if let Some(ue) = ue {
        let settled = match outcome {
            Ok(()) => ue.set_complete(at),
            Err(ClError::EventFailed { .. }) => {
                ue.set_failed(at, EXEC_STATUS_ERROR_FOR_EVENTS_IN_WAIT_LIST)
            }
            Err(_) => ue.set_failed(at, CL_MPI_TRANSFER_ERROR),
        };
        settled.expect("an engine machine settles its event once");
    }
    Step::Done
}

/// True for an outcome that says something about the transfer strategy
/// that ran: a transfer-level failure retires a probed candidate in the
/// tuners, a poisoned wait list does not.
pub(crate) fn strategy_failed(outcome: &ClResult<()>) -> bool {
    matches!(outcome, Err(e) if !matches!(e, ClError::EventFailed { .. }))
}

/// One wire chunk injected reliably: on sender-observed loss (the
/// fabric's link-layer NACK model) the machine enters a virtual-time
/// backoff and retransmits when the engine wakes it, up to the policy's
/// attempt budget. Feeds the degradation latch and the fault counters.
/// This replaces the old eager retry loop: the backoff is now a real
/// engine-scheduled timer instead of a pre-dated reservation.
///
/// The chunk's [`Payload`] is shared, never copied: every injection —
/// the first and each retransmit — hands the fabric the same
/// allocation, and the machine drops its handle once the chunk is
/// delivered (or has failed), so the receiver ends up holding the only
/// reference.
pub(crate) struct ReliableChunkSend {
    dst: Rank,
    wire_tag: Tag,
    /// Payload length in bytes (the payload itself lives in the state
    /// until delivery).
    len: usize,
    duration: Option<SimNs>,
    policy: RetryPolicy,
    attempt: u32,
    /// Set when the drop was caused by a dead endpoint: retransmission
    /// can never succeed, so the machine fails without burning retries.
    peer_dead: bool,
    state: ChunkState,
}

enum ChunkState {
    /// Ready to inject `bytes`, no earlier than `earliest`.
    Ready { bytes: Payload, earliest: SimNs },
    /// Posted to the fabric's deferred-send arbiter; polling the request
    /// until the grant decides the injection's fate. `bytes` is kept for
    /// a retransmit.
    Injecting {
        bytes: Payload,
        req: Request,
        earliest: SimNs,
    },
    /// Last injection was dropped; retransmit `bytes` at `resume_at`.
    Backoff { bytes: Payload, resume_at: SimNs },
    /// Injection succeeded; the wire is busy until `done_at`.
    Sent { done_at: SimNs },
    /// Retry budget exhausted; the failure settles at `at` (the end of
    /// the last burned injection, as the old path charged it).
    Failed { at: SimNs },
}

/// Verdict of one [`ReliableChunkSend::step`].
pub(crate) enum ChunkStep {
    /// State changed; step again at the same instant.
    Progressed,
    /// Waiting for a future instant (backoff expiry or failure charge).
    Park(SimNs),
    /// Delivered; injection ended at the given instant.
    Sent(SimNs),
    /// Permanently failed at the given instant.
    Failed(SimNs),
}

impl ReliableChunkSend {
    /// Snapshot the runtime's current retry policy (per chunk, as the
    /// old path read it per call) and arm the first injection.
    pub(crate) fn new(
        inner: &Inner,
        dst: Rank,
        wire_tag: Tag,
        bytes: Payload,
        earliest: SimNs,
        duration: Option<SimNs>,
    ) -> Self {
        ReliableChunkSend {
            dst,
            wire_tag,
            len: bytes.len(),
            duration,
            policy: *inner.retry.lock(),
            attempt: 0,
            peer_dead: false,
            state: ChunkState::Ready { bytes, earliest },
        }
    }

    /// Payload size of this chunk in bytes.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The error the old path returned on budget exhaustion; a dead-peer
    /// failure is classified as an `MPI_ERR_PROC_FAILED`-class error
    /// instead.
    pub(crate) fn exhaustion_error(&self) -> ClError {
        if self.peer_dead {
            return ClError::TransferFailed(format!(
                "{}: chunk on tag {} undeliverable",
                MpiError::ProcFailed { rank: self.dst },
                self.wire_tag
            ));
        }
        ClError::TransferFailed(format!(
            "chunk to rank {} lost {} time(s) on tag {}; retry budget exhausted",
            self.dst, self.policy.max_attempts, self.wire_tag
        ))
    }

    pub(crate) fn step(
        &mut self,
        inner: &Inner,
        ids: &mut ChildIds,
        now: SimNs,
        actor: &Actor,
    ) -> ChunkStep {
        let placeholder = ChunkState::Failed { at: 0 };
        let (state, step) = match std::mem::replace(&mut self.state, placeholder) {
            ChunkState::Ready { bytes, earliest } => {
                self.attempt += 1;
                let req = inner.comm.isend_raw(
                    actor,
                    self.dst,
                    self.wire_tag,
                    Datatype::ClMem,
                    bytes.clone(),
                    earliest,
                    self.duration,
                );
                let state = ChunkState::Injecting {
                    bytes,
                    req,
                    earliest,
                };
                (state, ChunkStep::Progressed)
            }
            ChunkState::Injecting {
                bytes,
                req,
                earliest,
            } => match req.known_completion() {
                // The clock has not granted the injection yet. The
                // arbiter clamps a stale `earliest` up to the posting
                // instant and grants one tick later (its strict
                // `earliest < now` test), so the park hint is that
                // strictly future instant; the send's outcome monitor
                // wakes this machine there too.
                None => {
                    let park = ChunkStep::Park(now.max(earliest) + 1);
                    let state = ChunkState::Injecting {
                        bytes,
                        req,
                        earliest,
                    };
                    (state, park)
                }
                Some(done) => {
                    let drop = req.drop_reason();
                    let state = self.settle_injection(inner, ids, bytes, earliest, done, drop);
                    (state, ChunkStep::Progressed)
                }
            },
            ChunkState::Backoff { bytes, resume_at } if now >= resume_at => {
                let state = ChunkState::Ready {
                    bytes,
                    earliest: resume_at,
                };
                (state, ChunkStep::Progressed)
            }
            s @ ChunkState::Backoff { resume_at, .. } => (s, ChunkStep::Park(resume_at)),
            s @ ChunkState::Sent { done_at } => (s, ChunkStep::Sent(done_at)),
            s @ ChunkState::Failed { at } if now >= at => (s, ChunkStep::Failed(at)),
            // Charge the time actually spent trying before the failure
            // becomes observable (the old path slept to the last
            // injection's end before erroring).
            s @ ChunkState::Failed { at } => (s, ChunkStep::Park(at)),
        };
        self.state = state;
        step
    }

    /// The injection's grant arrived: run the fate logic the eager path
    /// used to run inline — delivery, dead-peer fast-fail, degradation
    /// latch, retry budget — and return the next state. `drop` is `None`
    /// for a delivered injection; `bytes` is kept only for a retransmit.
    fn settle_injection(
        &mut self,
        inner: &Inner,
        ids: &mut ChildIds,
        bytes: Payload,
        earliest: SimNs,
        done: SimNs,
        drop: Option<DropReason>,
    ) -> ChunkState {
        let Some(reason) = drop else {
            inner.fault_state.lock().consecutive_drops = 0;
            return ChunkState::Sent { done_at: done };
        };
        // The chunk burned link time but never reached the peer.
        if let Some(stats) = inner.stats.lock().as_ref() {
            stats.note_drop(reason);
        }
        record_child(
            inner,
            ids,
            "net",
            format!("drop#{}→r{}", self.attempt, self.dst),
            "drop",
            earliest,
            done,
            self.len as u64,
            false,
        );
        if reason == DropReason::NodeDown {
            // Dead endpoint: no retransmission can ever succeed.
            // Fail the transfer now — this is what keeps
            // machines from hanging out a full retry budget per
            // chunk after a rank failure.
            note_abort(inner, ids, Some(self.dst), done);
            self.peer_dead = true;
            return ChunkState::Failed { at: done };
        }
        let newly_degraded = {
            let mut fs = inner.fault_state.lock();
            fs.consecutive_drops += 1;
            if !fs.degraded && fs.consecutive_drops >= self.policy.degrade_after {
                fs.degraded = true;
                true
            } else {
                false
            }
        };
        let fault_lane = format!("r{}.fault", inner.comm.rank());
        if newly_degraded {
            if let Some(stats) = inner.stats.lock().as_ref() {
                stats.note_degraded();
            }
            inner
                .trace
                .record(fault_lane.as_str(), "degrade pipelined→pinned", done, done);
            record_child(
                inner,
                ids,
                "net",
                "degrade pipelined→pinned".into(),
                "degrade",
                done,
                done,
                0,
                false,
            );
        }
        if self.attempt == self.policy.max_attempts {
            note_abort(inner, ids, None, done);
            return ChunkState::Failed { at: done };
        }
        let backoff = self.policy.backoff_ns(self.attempt);
        inner.trace.record(
            fault_lane.as_str(),
            format!("retry#{}→r{}", self.attempt, self.dst),
            done,
            done.saturating_add(backoff),
        );
        if let Some(stats) = inner.stats.lock().as_ref() {
            stats.note_retry();
        }
        record_child(
            inner,
            ids,
            "net",
            format!("retry#{}→r{}", self.attempt, self.dst),
            "retry",
            done,
            done.saturating_add(backoff),
            self.len as u64,
            true,
        );
        ChunkState::Backoff {
            bytes,
            resume_at: done.saturating_add(backoff),
        }
    }
}

/// One wire chunk received patiently: the posted matched receive plus,
/// under a fault plan, the per-chunk patience read from the retry policy
/// when it was posted (never armed on a perfect fabric, which keeps the
/// zero-fault path waiting indefinitely, like a blocking receive). The
/// receive-side pair of [`ReliableChunkSend`], and the one place the
/// receive-abort ladder runs.
pub(crate) struct ReliableChunkRecv {
    /// `None` once the ladder abandoned the receive.
    req: Option<Request>,
    tag: Tag,
    /// (expiry instant, patience).
    deadline: Option<(SimNs, SimNs)>,
}

/// Verdict of one [`ReliableChunkRecv::step`].
pub(crate) enum RecvStep {
    /// The chunk arrived.
    Arrived(RecvResult),
    /// Nothing to do yet; the wake hint.
    Park(Option<SimNs>),
    /// The receive was abandoned at the current instant: cancelled,
    /// counted, and (for a dead peer) recorded as an `op.failure` span.
    Failed(ClError),
}

impl ReliableChunkRecv {
    /// Post the matched receive at `now`; `src: None` matches any source.
    pub(crate) fn post(
        inner: &Inner,
        actor: &Actor,
        src: Option<Rank>,
        tag: Tag,
        now: SimNs,
    ) -> Self {
        let deadline = inner.comm.world().has_faults().then(|| {
            let patience = inner.retry.lock().chunk_timeout_ns;
            (now + patience, patience)
        });
        ReliableChunkRecv {
            req: Some(inner.comm.irecv(actor, src, Some(tag))),
            tag,
            deadline,
        }
    }

    /// Withdraw the receive so the matcher does not hand a later message
    /// to a machine that gave up.
    pub(crate) fn cancel(&mut self) {
        if let Some(req) = self.req.take() {
            req.cancel();
        }
    }

    /// Run the receive-abort ladder at `now`, in order:
    /// 1. the chunk arrived → its payload;
    /// 2. matched and in flight → park until the committed arrival, even
    ///    past the deadline (retrying a message the fabric already
    ///    delivered would duplicate it);
    /// 3. an `upstream` process is dead and nothing is in flight → no
    ///    chunk can ever match: abort now instead of waiting out the
    ///    patience (ULFM lets a failed peer fail pending communication);
    /// 4. the patience expired → give up;
    /// 5. otherwise park until the deadline or the next scheduled death of
    ///    an upstream rank, so a kill is noticed the instant it happens.
    ///
    /// `noun` names the receive in the error text; it is passed the dead
    /// rank on a process failure.
    pub(crate) fn step(
        &mut self,
        inner: &Inner,
        ids: &mut ChildIds,
        actor: &Actor,
        now: SimNs,
        upstream: &[Rank],
        noun: impl Fn(Option<Rank>) -> String,
    ) -> RecvStep {
        let Some(req) = self.req.as_mut() else {
            return RecvStep::Park(None);
        };
        if let Some(r) = req.test(actor).flatten() {
            return RecvStep::Arrived(r);
        }
        if let Some(at) = req.known_completion() {
            return RecvStep::Park(Some(at.max(now + 1)));
        }
        if let Some(&dead) = upstream.iter().find(|&&r| inner.peer_failed(r, now)) {
            self.cancel();
            note_abort(inner, ids, Some(dead), now);
            let e = MpiError::ProcFailed { rank: dead };
            let what = format!("{} (tag {}): {e}", noun(Some(dead)), self.tag);
            return RecvStep::Failed(ClError::TransferFailed(what));
        }
        match self.deadline {
            Some((at, patience)) if now >= at => {
                self.cancel();
                note_abort(inner, ids, None, now);
                let e = MpiError::Timeout {
                    waited_ns: patience,
                };
                let what = format!("{} (tag {}) gave up: {e}", noun(None), self.tag);
                RecvStep::Failed(ClError::TransferFailed(what))
            }
            deadline => {
                RecvStep::Park(inner.park_until_failure(upstream, now, deadline.map(|d| d.0)))
            }
        }
    }
}

// ----------------------------------------------------------------------
// Device-buffer transfer machines (enqueue_send/recv_buffer, gpu-aware)
// ----------------------------------------------------------------------

/// Where a machine reports its final result when a caller is blocked on
/// it (the gpu-aware comparator paths). The event carries the same
/// outcome for event-ordered callers.
pub(crate) type ResultSlot = Arc<Monitor<Option<ClResult<()>>>>;

/// `clEnqueueSendBuffer` as a state machine: wait list → chunked
/// device→host staging and reliable network injection → completion at
/// the last injection's end.
pub(crate) struct SendOp {
    inner: Arc<Inner>,
    device: Device,
    buf: Buffer,
    offset: usize,
    size: usize,
    dst: Rank,
    user_tag: Tag,
    wire_tag: Tag,
    strategy: TransferStrategy,
    /// Derived-datatype lowering: `Some` routes every chunk through the
    /// type map (and, for the device modes, through a pack kernel).
    lowering: Option<Lowering>,
    wait: Vec<Event>,
    ue: UserEvent,
    result: Option<ResultSlot>,
    label: String,
    ids: ChildIds,
    submit_ns: SimNs,
    state: SendState,
    /// Transfer start: the instant the wait list was satisfied.
    t0: SimNs,
    /// The strategy's chunk plan and the index of the next chunk to arm.
    chunks: Vec<(usize, usize)>,
    next_chunk: usize,
    /// The in-flight chunk and the stage spans to record once it lands.
    current: Option<(ReliableChunkSend, ChunkTrace)>,
    /// End of the last delivered injection.
    done_at: SimNs,
}

#[derive(Clone, Copy)]
enum SendState {
    WaitDeps,
    /// Chunks flow d2h then onto the wire, one reliable injection at a
    /// time. With a device-pack lowering each chunk first runs a pack
    /// kernel reserved on the compute timeline; the reservations are
    /// backdated, so chunk k's pack overlaps chunk k−1's wire time
    /// without the machine ever blocking.
    Transfer,
    Finish {
        done_at: SimNs,
    },
}

/// The stages a chunk crossed before the wire, and its wire stage from
/// `wire_from` to the delivered injection's end.
struct ChunkTrace {
    staged: Vec<(Stage, SimNs, SimNs)>,
    wire: Stage,
    wire_from: SimNs,
}

impl ChunkTrace {
    fn record(self, inner: &Inner, ids: &mut ChildIds, done: SimNs, bytes: u64) {
        for (stage, start, end) in self.staged {
            stage.record(inner, ids, start, end, bytes);
        }
        self.wire.record(inner, ids, self.wire_from, done, bytes);
    }
}

impl SendOp {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        inner: Arc<Inner>,
        device: Device,
        buf: Buffer,
        offset: usize,
        size: usize,
        dst: Rank,
        user_tag: Tag,
        wire_tag: Tag,
        strategy: TransferStrategy,
        lowering: Option<Lowering>,
        wait: Vec<Event>,
        ue: UserEvent,
        result: Option<ResultSlot>,
        ids: ChildIds,
        submit_ns: SimNs,
    ) -> Self {
        let label = format!("clmpi-send-r{}-t{user_tag}", inner.comm.rank());
        SendOp {
            inner,
            device,
            buf,
            offset,
            size,
            dst,
            user_tag,
            wire_tag,
            strategy,
            lowering,
            wait,
            ue,
            result,
            label,
            ids,
            submit_ns,
            state: SendState::WaitDeps,
            t0: 0,
            chunks: Vec::new(),
            next_chunk: 0,
            current: None,
            done_at: 0,
        }
    }

    /// Gather the packed range `[lo, hi)` of the lowered type out of the
    /// device buffer (the simulated pack kernel's data movement; timing
    /// is charged separately on the relevant resource timeline): one
    /// buffer lock and one allocation per chunk, however many type-map
    /// segments it spans. The region was range-checked at enqueue.
    fn gather_packed(&self, ty: &CommittedType, lo: usize, hi: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(hi - lo);
        self.buf.read(|b| {
            let region = &b.as_slice()[self.offset..];
            for (soff, slen) in ty.segments_for_packed_range(lo, hi) {
                out.extend_from_slice(&region[soff..soff + slen]);
            }
        });
        out
    }

    /// Stage the next chunk and arm its reliable injection. The mapped
    /// path maps the whole region once and the NIC streams straight
    /// through PCIe, fused with the injection. The staged paths move one
    /// chunk d2h (pinned staging) and inject from the host copy, so a
    /// retransmit never repeats the staging (or any pack kernel).
    fn arm(&mut self) -> (ReliableChunkSend, ChunkTrace) {
        let pcie = self.device.spec().pcie;
        let t0 = self.t0;
        if self.strategy == TransferStrategy::Mapped {
            let bytes = self
                .buf
                .load(self.offset, self.size)
                .expect("range checked at enqueue");
            let stream = (self.size as f64 * 1e9 / pcie.mapped_bps).round() as SimNs;
            let fused = self
                .inner
                .cfg
                .cluster
                .link
                .injection_ns(self.size)
                .max(stream);
            self.next_chunk = self.chunks.len(); // single fused transfer
            let earliest = t0 + pcie.map_setup_ns;
            let send = ReliableChunkSend::new(
                &self.inner,
                self.dst,
                self.wire_tag,
                bytes.into(),
                earliest,
                Some(fused),
            );
            let trace = ChunkTrace {
                staged: Vec::new(),
                wire: Stage::MapSend(self.dst),
                wire_from: t0,
            };
            return (send, trace);
        }
        let (coff, clen) = self.chunks[self.next_chunk];
        let earliest = if self.next_chunk == 0 {
            t0 + pcie.pin_setup_ns
        } else {
            t0
        };
        self.next_chunk += 1;
        let d2h = self.device.d2h_link();
        let (bytes, staged) = match &self.lowering {
            None => {
                let bytes = self
                    .buf
                    .load(self.offset + coff, clen)
                    .expect("range checked at enqueue");
                let hop = d2h.reserve_duration(pcie.staged_ns(clen, true), earliest);
                (bytes, vec![(Stage::D2h, hop.start, hop.end)])
            }
            Some(l) if l.mode == PackMode::HostPack => {
                // Host-pack baseline: the type map is gathered segment-by-
                // segment across PCIe — every segment pays the staged
                // latency.
                let cost = l.host_staged_ns(&pcie, coff, coff + clen);
                let bytes = self.gather_packed(&l.ty, coff, coff + clen);
                let hop = d2h.reserve_duration(cost, earliest);
                (bytes, vec![(Stage::D2h, hop.start, hop.end)])
            }
            Some(l) => {
                // PackStage: an on-device pack kernel canonicalizes this
                // chunk's type-map slice into contiguous staging memory
                // (reads strided + writes packed = 2× the bytes through
                // device memory), then a single d2h hop moves the packed
                // bytes.
                let kernel = self.device.spec().membound_kernel_ns(2 * clen);
                let pack = self.device.pack_link().reserve_duration(kernel, earliest);
                let bytes = self.gather_packed(&l.ty, coff, coff + clen);
                let hop = d2h.reserve_duration(pcie.staged_ns(clen, true), pack.end);
                let stages = vec![
                    (Stage::Pack, pack.start, pack.end),
                    (Stage::D2h, hop.start, hop.end),
                ];
                (bytes, stages)
            }
        };
        let wire_from = staged.last().map_or(t0, |s| s.2);
        let bytes = bytes.into();
        let send =
            ReliableChunkSend::new(&self.inner, self.dst, self.wire_tag, bytes, wire_from, None);
        let trace = ChunkTrace {
            staged,
            wire: Stage::Net(self.dst),
            wire_from,
        };
        (send, trace)
    }

    /// Every chunk delivered: feed the measurement back and finish at the
    /// last injection's end.
    fn transferred(&mut self, done_at: SimNs) {
        let elapsed = done_at.saturating_sub(self.t0);
        if let Some(stats) = self.inner.stats.lock().as_ref() {
            stats.record("send", &self.strategy.name(), self.size, elapsed);
        }
        if let Some(sel) = self.inner.adaptive.lock().as_ref() {
            sel.observe(self.size, self.strategy, elapsed);
        }
        self.state = SendState::Finish { done_at };
    }

    fn settle(&mut self, outcome: ClResult<()>, at: SimNs) -> Step {
        // A transfer-level failure is a completed (failed) probe: report
        // it so the adaptive tuner retires the strategy instead of
        // starving on it.
        if strategy_failed(&outcome) {
            if let Some(sel) = self.inner.adaptive.lock().as_ref() {
                sel.observe_failure(self.size, self.strategy);
            }
        }
        let report = Report {
            inner: &self.inner,
            ids: &self.ids,
            submit_ns: self.submit_ns,
            envelope: Envelope {
                cat: "op.send",
                name: format!("send→{}#{}", self.dst, self.user_tag),
                bytes: self.size as u64,
                peer: Some(self.dst),
                tag: Some(self.wire_tag),
            },
            moved: (self.size as u64, 0),
        };
        let slot = self.result.as_deref().map(|s| (s, Some(outcome.clone())));
        settle_op(slot, Some(report), Some(&self.ue), outcome, at)
    }
}

impl EngineOp for SendOp {
    fn label(&self) -> &str {
        &self.label
    }

    fn step(&mut self, now: SimNs, actor: &Actor) -> Step {
        loop {
            match self.state {
                SendState::WaitDeps => match deps_ready(&self.wait) {
                    Ok(false) => return Step::Park(None),
                    // A failed dependency poisons this command, as the
                    // queue executor does for ordinary commands.
                    Err(e) => return self.settle(Err(e), now),
                    Ok(true) => {
                        self.t0 = now;
                        self.chunks = ResolvedStrategy::plan(self.strategy, self.size).chunks;
                        if self.chunks.is_empty() && self.strategy != TransferStrategy::Mapped {
                            // Zero-byte staged send: nothing to inject.
                            self.transferred(now);
                        } else {
                            self.state = SendState::Transfer;
                        }
                    }
                },
                SendState::Transfer => {
                    let (mut chunk, trace) = match self.current.take() {
                        Some(c) => c,
                        None => self.arm(),
                    };
                    match chunk.step(&self.inner, &mut self.ids, now, actor) {
                        ChunkStep::Progressed => self.current = Some((chunk, trace)),
                        ChunkStep::Park(t) => {
                            self.current = Some((chunk, trace));
                            return Step::Park(Some(t));
                        }
                        ChunkStep::Failed(at) => {
                            return self.settle(Err(chunk.exhaustion_error()), at)
                        }
                        ChunkStep::Sent(done) => {
                            trace.record(&self.inner, &mut self.ids, done, chunk.len() as u64);
                            self.done_at = done;
                            // Arm the next chunk at this instant, if any.
                            if self.next_chunk == self.chunks.len() {
                                self.transferred(done);
                            }
                        }
                    }
                }
                SendState::Finish { done_at } => {
                    if now >= done_at {
                        return self.settle(Ok(()), done_at);
                    }
                    return Step::Park(Some(done_at));
                }
            }
        }
    }
}

/// `clEnqueueRecvBuffer` as a state machine: wait list → staging setup →
/// per-chunk patient matched receive → host→device staging → completion
/// with the data in device memory.
pub(crate) struct RecvOp {
    inner: Arc<Inner>,
    device: Device,
    buf: Buffer,
    offset: usize,
    size: usize,
    src: Rank,
    user_tag: Tag,
    wire_tag: Tag,
    strategy: TransferStrategy,
    /// Derived-datatype lowering: `Some` scatters every arrived chunk
    /// through the type map (and, for the device modes, through an
    /// unpack kernel first).
    lowering: Option<Lowering>,
    wait: Vec<Event>,
    ue: UserEvent,
    result: Option<ResultSlot>,
    label: String,
    ids: ChildIds,
    submit_ns: SimNs,
    received: usize,
    recv_t0: SimNs,
    state: RecvState,
}

enum RecvState {
    WaitDeps,
    /// One-time staging setup cost, paid up front (it overlaps the wait
    /// for the first chunk, which it precedes).
    Setup {
        resume_at: SimNs,
    },
    AwaitChunk(ReliableChunkRecv),
    /// Staged path: the chunk is crossing one staging hop until `end` —
    /// PCIe (`H2d`), then, under a device-unpack lowering, an unpack
    /// kernel (`Unpack`, reserved on the compute timeline so it
    /// serializes with the app's own kernels).
    Stage {
        stage: Stage,
        data: Payload,
        start: SimNs,
        end: SimNs,
    },
    /// Mapped path: the post-transfer unmap cost.
    Unmap {
        resume_at: SimNs,
    },
    Done,
}

impl RecvOp {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        inner: Arc<Inner>,
        device: Device,
        buf: Buffer,
        offset: usize,
        size: usize,
        src: Rank,
        user_tag: Tag,
        wire_tag: Tag,
        strategy: TransferStrategy,
        lowering: Option<Lowering>,
        wait: Vec<Event>,
        ue: UserEvent,
        result: Option<ResultSlot>,
        ids: ChildIds,
        submit_ns: SimNs,
    ) -> Self {
        let label = format!("clmpi-recv-r{}-t{user_tag}", inner.comm.rank());
        RecvOp {
            inner,
            device,
            buf,
            offset,
            size,
            src,
            user_tag,
            wire_tag,
            strategy,
            lowering,
            wait,
            ue,
            result,
            label,
            ids,
            submit_ns,
            received: 0,
            recv_t0: 0,
            state: RecvState::WaitDeps,
        }
    }

    /// Scatter an arrived packed chunk (packed offset `lo`) into the
    /// strided destination region through the type map, under one buffer
    /// lock. The region was range-checked at enqueue.
    fn scatter_packed(&self, ty: &CommittedType, lo: usize, data: &[u8]) {
        self.buf.write(|b| {
            let region = &mut b.as_mut_slice()[self.offset..];
            let mut pos = 0usize;
            for (soff, slen) in ty.segments_for_packed_range(lo, lo + data.len()) {
                region[soff..soff + slen].copy_from_slice(&data[pos..pos + slen]);
                pos += slen;
            }
        });
    }

    fn settle(&mut self, outcome: ClResult<()>, at: SimNs) -> Step {
        // As on the send side: a transfer failure (receiver timeout,
        // overflow) retires the probed strategy.
        if strategy_failed(&outcome) {
            if let Some(sel) = self.inner.adaptive.lock().as_ref() {
                sel.observe_failure(self.size, self.strategy);
            }
        }
        let report = Report {
            inner: &self.inner,
            ids: &self.ids,
            submit_ns: self.submit_ns,
            envelope: Envelope {
                cat: "op.recv",
                name: format!("recv←{}#{}", self.src, self.user_tag),
                bytes: self.size as u64,
                peer: Some(self.src),
                tag: Some(self.wire_tag),
            },
            moved: (0, self.size as u64),
        };
        let slot = self.result.as_deref().map(|s| (s, Some(outcome.clone())));
        settle_op(slot, Some(report), Some(&self.ue), outcome, at)
    }

    /// Store a fully arrived-and-staged chunk, then either post the next
    /// receive (with the retry policy's patience, read per chunk) or
    /// finish the command.
    fn chunk_done(&mut self, len: usize, now: SimNs, actor: &Actor) -> Option<Step> {
        self.received += len;
        if self.received < self.size {
            let recv =
                ReliableChunkRecv::post(&self.inner, actor, Some(self.src), self.wire_tag, now);
            self.state = RecvState::AwaitChunk(recv);
            return None;
        }
        if self.strategy == TransferStrategy::Mapped {
            // Unmap after the MPI transfer completes (map → MPI → unmap,
            // the paper's mapped implementation).
            let pcie = self.device.spec().pcie;
            self.state = RecvState::Unmap {
                resume_at: now + pcie.map_setup_ns,
            };
            return None;
        }
        Some(self.finish(now))
    }

    fn finish(&mut self, now: SimNs) -> Step {
        let elapsed = now.saturating_sub(self.recv_t0);
        if let Some(stats) = self.inner.stats.lock().as_ref() {
            stats.record("recv", &self.strategy.name(), self.size, elapsed);
        }
        if let Some(sel) = self.inner.adaptive.lock().as_ref() {
            sel.observe(self.size, self.strategy, elapsed);
        }
        self.settle(Ok(()), now)
    }
}

impl EngineOp for RecvOp {
    fn label(&self) -> &str {
        &self.label
    }

    fn step(&mut self, now: SimNs, actor: &Actor) -> Step {
        loop {
            match &mut self.state {
                RecvState::WaitDeps => match deps_ready(&self.wait) {
                    Ok(false) => return Step::Park(None),
                    Err(e) => return self.settle(Err(e), now),
                    Ok(true) => {
                        self.recv_t0 = now;
                        let pcie = self.device.spec().pcie;
                        let setup = match self.strategy {
                            TransferStrategy::Mapped => pcie.map_setup_ns,
                            _ => pcie.pin_setup_ns,
                        };
                        self.state = RecvState::Setup {
                            resume_at: now + setup,
                        };
                    }
                },
                RecvState::Setup { resume_at } => {
                    let resume_at = *resume_at;
                    if now < resume_at {
                        return Step::Park(Some(resume_at));
                    }
                    // `chunk_done(0)` posts the first receive, or — for a
                    // zero-byte transfer — goes straight to completion.
                    if let Some(step) = self.chunk_done(0, now, actor) {
                        return step;
                    }
                }
                RecvState::AwaitChunk(recv) => {
                    let src = self.src;
                    let noun = |_| format!("receive from rank {src}");
                    let r = match recv.step(&self.inner, &mut self.ids, actor, now, &[src], noun) {
                        RecvStep::Arrived(r) => r,
                        RecvStep::Park(t) => return Step::Park(t),
                        RecvStep::Failed(e) => return self.settle(Err(e), now),
                    };
                    let len = r.data.len();
                    if self.received + len > self.size {
                        return self.settle(
                            Err(ClError::TransferFailed(format!(
                                "clMPI transfer overflow: got {} bytes into a {}-byte receive",
                                self.received + len,
                                self.size
                            ))),
                            now,
                        );
                    }
                    if self.strategy == TransferStrategy::Mapped {
                        // Zero-copy: the NIC already wrote through PCIe
                        // during the sender-fused stream; the data is
                        // usable at arrival.
                        self.buf
                            .store(self.offset + self.received, &r.data)
                            .expect("range checked at enqueue");
                        if let Some(step) = self.chunk_done(len, now, actor) {
                            return step;
                        }
                        continue;
                    }
                    // Host-unpack baseline: the chunk's type-map segments
                    // are scattered one by one across PCIe, each paying
                    // the staged latency. Every other path moves the
                    // packed bytes in one hop.
                    let pcie = self.device.spec().pcie;
                    let cost = match &self.lowering {
                        Some(l) if l.mode == PackMode::HostPack => {
                            l.host_staged_ns(&pcie, self.received, self.received + len)
                        }
                        _ => pcie.staged_ns(len, true),
                    };
                    let h2d = self.device.h2d_link().reserve_duration(cost, now);
                    self.state = RecvState::Stage {
                        stage: Stage::H2d,
                        data: r.data,
                        start: h2d.start,
                        end: h2d.end,
                    };
                }
                RecvState::Stage { end, .. } if now < *end => return Step::Park(Some(*end)),
                RecvState::Stage { .. } => {
                    let state = std::mem::replace(&mut self.state, RecvState::Done);
                    let RecvState::Stage {
                        stage,
                        data,
                        start,
                        end,
                    } = state
                    else {
                        unreachable!("matched above")
                    };
                    stage.record(&self.inner, &mut self.ids, start, end, data.len() as u64);
                    match (&self.lowering, stage) {
                        (None, _) => self
                            .buf
                            .store(self.offset + self.received, &data)
                            .expect("range checked at enqueue"),
                        (Some(l), Stage::H2d) if l.mode != PackMode::HostPack => {
                            // UnpackStage: the packed chunk landed in
                            // device staging memory; an unpack kernel (2×
                            // the bytes through device memory) scatters it
                            // through the type map.
                            let kernel = self.device.spec().membound_kernel_ns(2 * data.len());
                            let unpack = self.device.pack_link().reserve_duration(kernel, end);
                            self.state = RecvState::Stage {
                                stage: Stage::Unpack,
                                data,
                                start: unpack.start,
                                end: unpack.end,
                            };
                            continue;
                        }
                        // Host-pack: the host scattered segment-by-segment
                        // during the h2d hop; device-unpack: the kernel
                        // just ran.
                        (Some(l), _) => self.scatter_packed(&l.ty, self.received, &data),
                    }
                    if let Some(step) = self.chunk_done(data.len(), now, actor) {
                        return step;
                    }
                }
                RecvState::Unmap { resume_at } => {
                    let resume_at = *resume_at;
                    if now < resume_at {
                        return Step::Park(Some(resume_at));
                    }
                    return self.finish(now);
                }
                RecvState::Done => return Step::Done,
            }
        }
    }
}

// ----------------------------------------------------------------------
// Host-buffer MPI_CL_MEM machines (isend_cl / irecv_cl) and
// clCreateEventFromMPIRequest
// ----------------------------------------------------------------------

/// Where [`HostSendOp`] reports its outcome: the last injection's end
/// instant on success, the exhaustion error on permanent failure.
pub(crate) type SendSlot = Arc<Monitor<Option<ClResult<SimNs>>>>;

/// `MPI_Isend` on `MPI_CL_MEM` (`isend_cl`): the payload chunks are
/// injected reliably from the submission instant. In a zero-fault run
/// every chunk is accepted in the first burst and the machine retires
/// immediately — an un-awaited request never delays shutdown, exactly as
/// before. Under faults, retries continue on engine timers after the
/// caller has resumed.
pub(crate) struct HostSendOp {
    inner: Arc<Inner>,
    dst: Rank,
    wire_tag: Tag,
    /// Per-chunk payload and duration override, prepared on the caller;
    /// each chunk is popped when armed, so a delivered chunk's bytes
    /// are no longer held here.
    chunks: VecDeque<(Payload, Option<SimNs>)>,
    current: Option<ReliableChunkSend>,
    done_at: SimNs,
    t0: Option<SimNs>,
    /// Handshake: flipped after the machine's first pass so the caller
    /// resumes only once the initial injection burst is on the wire
    /// (keeping the fabric reservation order of the old inline path).
    issued: Arc<Monitor<bool>>,
    issued_done: bool,
    slot: SendSlot,
    label: String,
    ids: ChildIds,
    submit_ns: SimNs,
    total_bytes: u64,
}

impl HostSendOp {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        inner: Arc<Inner>,
        dst: Rank,
        wire_tag: Tag,
        chunks: VecDeque<(Payload, Option<SimNs>)>,
        issued: Arc<Monitor<bool>>,
        slot: SendSlot,
        ids: ChildIds,
        submit_ns: SimNs,
    ) -> Self {
        let label = format!("clmpi-isend-r{}", inner.comm.rank());
        let total_bytes = chunks.iter().map(|(b, _)| b.len() as u64).sum();
        HostSendOp {
            inner,
            dst,
            wire_tag,
            chunks,
            current: None,
            done_at: 0,
            t0: None,
            issued,
            issued_done: false,
            slot,
            label,
            ids,
            submit_ns,
            total_bytes,
        }
    }

    /// Publish the last injection's end instant (or the exhaustion error)
    /// to the request; the envelope ends no earlier than the submission.
    fn settle(&mut self, result: ClResult<SimNs>, at: SimNs) -> Step {
        let report = Report {
            inner: &self.inner,
            ids: &self.ids,
            submit_ns: self.submit_ns,
            envelope: Envelope {
                cat: "op.isend",
                name: format!("isend→{}", self.dst),
                bytes: self.total_bytes,
                peer: Some(self.dst),
                tag: Some(self.wire_tag),
            },
            moved: (self.total_bytes, 0),
        };
        let outcome = result.clone().map(|_| ());
        settle_op(
            Some((&*self.slot, Some(result))),
            Some(report),
            None,
            outcome,
            at,
        )
    }

    fn drive(&mut self, now: SimNs, actor: &Actor) -> Step {
        let t0 = *self.t0.get_or_insert(now);
        loop {
            let next = match self.current.take() {
                Some(chunk) => Some(chunk),
                None => self.chunks.pop_front().map(|(bytes, duration)| {
                    ReliableChunkSend::new(
                        &self.inner,
                        self.dst,
                        self.wire_tag,
                        bytes,
                        t0,
                        duration,
                    )
                }),
            };
            let Some(mut chunk) = next else {
                let done_at = self.done_at;
                return self.settle(Ok(done_at), done_at.max(self.submit_ns));
            };
            match chunk.step(&self.inner, &mut self.ids, now, actor) {
                ChunkStep::Progressed => self.current = Some(chunk),
                ChunkStep::Park(at) => {
                    self.current = Some(chunk);
                    return Step::Park(Some(at));
                }
                ChunkStep::Sent(done) => {
                    Stage::Net(self.dst).child(
                        &self.inner,
                        &mut self.ids,
                        t0,
                        done,
                        chunk.len() as u64,
                    );
                    self.done_at = self.done_at.max(done);
                }
                ChunkStep::Failed(at) => return self.settle(Err(chunk.exhaustion_error()), at),
            }
        }
    }
}

impl EngineOp for HostSendOp {
    fn label(&self) -> &str {
        &self.label
    }

    fn step(&mut self, now: SimNs, actor: &Actor) -> Step {
        let verdict = self.drive(now, actor);
        if !self.issued_done {
            self.issued_done = true;
            self.issued.with(|i| *i = true);
        }
        verdict
    }
}

/// `MPI_Irecv` into `MPI_CL_MEM` (`irecv_cl`): patient matched receives
/// are posted back-to-back into the pinned host landing buffer; the
/// returned event completes when the full payload has arrived.
pub(crate) struct IrecvClOp {
    inner: Arc<Inner>,
    src: Rank,
    wire_tag: Tag,
    size: usize,
    host: HostBuffer,
    received: usize,
    ue: UserEvent,
    label: String,
    ids: ChildIds,
    submit_ns: SimNs,
    /// The posted receive of the next chunk (`None` before the first).
    recv: Option<ReliableChunkRecv>,
}

impl IrecvClOp {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        inner: Arc<Inner>,
        src: Rank,
        wire_tag: Tag,
        size: usize,
        host: HostBuffer,
        ue: UserEvent,
        ids: ChildIds,
        submit_ns: SimNs,
    ) -> Self {
        let label = format!("clmpi-irecv-r{}", inner.comm.rank());
        IrecvClOp {
            inner,
            src,
            wire_tag,
            size,
            host,
            received: 0,
            ue,
            label,
            ids,
            submit_ns,
            recv: None,
        }
    }

    fn settle(&mut self, outcome: ClResult<()>, at: SimNs) -> Step {
        let report = Report {
            inner: &self.inner,
            ids: &self.ids,
            submit_ns: self.submit_ns,
            envelope: Envelope {
                cat: "op.irecv",
                name: format!("irecv←{}", self.src),
                bytes: self.size as u64,
                peer: Some(self.src),
                tag: Some(self.wire_tag),
            },
            moved: (0, self.size as u64),
        };
        settle_op(NO_SLOT, Some(report), Some(&self.ue), outcome, at)
    }
}

impl EngineOp for IrecvClOp {
    fn label(&self) -> &str {
        &self.label
    }

    fn step(&mut self, now: SimNs, actor: &Actor) -> Step {
        loop {
            if self.received == self.size {
                // Everything landed (at once for a zero-byte receive).
                return self.settle(Ok(()), now);
            }
            let (src, tag) = (self.src, self.wire_tag);
            let recv = self.recv.get_or_insert_with(|| {
                ReliableChunkRecv::post(&self.inner, actor, Some(src), tag, now)
            });
            let noun = |_| format!("irecv from rank {src}");
            let r = match recv.step(&self.inner, &mut self.ids, actor, now, &[src], noun) {
                RecvStep::Arrived(r) => r,
                RecvStep::Park(t) => return Step::Park(t),
                RecvStep::Failed(e) => return self.settle(Err(e), now),
            };
            self.recv = None;
            let (at, len) = (self.received, r.data.len());
            if at + len > self.size {
                let e = format!(
                    "irecv overflow: got {} bytes into a {}-byte receive",
                    at + len,
                    self.size
                );
                return self.settle(Err(ClError::TransferFailed(e)), now);
            }
            self.host
                .write(|h| h.as_mut_slice()[at..at + len].copy_from_slice(&r.data));
            self.received += len;
        }
    }
}

/// `clCreateEventFromMPIRequest`: adapts a plain MPI request into an
/// event. The machine polls the request's completion signal and, once it
/// settles, publishes the payload (if any) and completes the event at
/// the settlement instant.
pub(crate) struct EventFromRequestOp {
    inner: Arc<Inner>,
    req: Request,
    ue: UserEvent,
    slot: Arc<Monitor<Option<RecvResult>>>,
    label: String,
    ids: ChildIds,
    submit_ns: SimNs,
}

impl EventFromRequestOp {
    pub(crate) fn new(
        inner: Arc<Inner>,
        req: Request,
        ue: UserEvent,
        slot: Arc<Monitor<Option<RecvResult>>>,
        ids: ChildIds,
        submit_ns: SimNs,
    ) -> Self {
        let label = format!("clmpi-event-from-request-r{}", inner.comm.rank());
        EventFromRequestOp {
            inner,
            req,
            ue,
            slot,
            label,
            ids,
            submit_ns,
        }
    }
}

impl EngineOp for EventFromRequestOp {
    fn label(&self) -> &str {
        &self.label
    }

    fn step(&mut self, now: SimNs, actor: &Actor) -> Step {
        if let CompletionState::Pending = self.req.poll(now) {
            return Step::Park(self.req.wake_hint(now).filter(|&t| t > now));
        }
        // Settled: a receive yields its payload, a send nothing.
        let result = self.req.test(actor).flatten();
        let bytes = result.as_ref().map_or(0, |r| r.data.len() as u64);
        let report = Report {
            inner: &self.inner,
            ids: &self.ids,
            submit_ns: self.submit_ns,
            envelope: Envelope {
                cat: "op.request",
                name: "mpi-request".into(),
                bytes,
                peer: None,
                tag: None,
            },
            moved: (0, bytes),
        };
        settle_op(
            Some((&*self.slot, result)),
            Some(report),
            Some(&self.ue),
            Ok(()),
            now,
        )
    }
}

// ----------------------------------------------------------------------
// One-sided window machines (MPI_CL_MEM exposed as MPI_Win)
// ----------------------------------------------------------------------
//
// These machines drive `minimpi`'s non-blocking RMA handles from the
// engine. A handle's grant lands when the clock passes the reservation's
// earliest instant, and its slot monitor wakes the machine. A machine
// with a pending flight also parks with an explicit time hint: before
// the first grant the wire-claim earliest is known exactly; after a
// retransmit has been re-posted, the claim instant is arbiter-internal,
// so the machine falls back to a fixed virtual polling quantum.

/// Virtual polling cadence for an RMA flight whose next wake instant is
/// unknowable from outside the arbiter (post-retransmit).
const RMA_POLL_QUANTUM_NS: SimNs = 100_000;

/// One in-flight one-sided op plus the bookkeeping needed to park
/// precisely and to convert retransmit deltas into drop/retry spans.
struct RmaFlight {
    handle: RmaHandle,
    /// Wire-claim earliest of the initial post: the park target before
    /// the first grant (one tick later the arbiter's strict `earliest <
    /// now` test admits it).
    earliest: SimNs,
    /// Attempts already converted into drop/retry child spans.
    attempts_seen: u32,
    done_at: Option<SimNs>,
}

impl RmaFlight {
    fn new(handle: RmaHandle, earliest: SimNs) -> Self {
        RmaFlight {
            handle,
            earliest,
            attempts_seen: 0,
            done_at: None,
        }
    }

    /// Convert retransmits since the last step into drop + retry child
    /// spans and fault counters — the one-sided analogue of
    /// [`ReliableChunkSend`]'s accounting. The handle does not retain
    /// per-attempt wire times or reasons (a `NodeDown` drop is terminal,
    /// never a retry, so retried drops are counted as random loss), and
    /// the spans are instantaneous at the observing instant.
    fn note_attempts(&mut self, inner: &Inner, ids: &mut ChildIds, now: SimNs) {
        let target = self.handle.target();
        while self.attempts_seen < self.handle.attempts() {
            self.attempts_seen += 1;
            if let Some(stats) = inner.stats.lock().as_ref() {
                stats.note_drop(DropReason::Random);
                stats.note_retry();
            }
            record_child(
                inner,
                ids,
                "net",
                format!("rma-drop#{}→r{target}", self.attempts_seen),
                "drop",
                now,
                now,
                self.handle.len() as u64,
                false,
            );
            record_child(
                inner,
                ids,
                "net",
                format!("rma-retry#{}→r{target}", self.attempts_seen),
                "retry",
                now,
                now,
                self.handle.len() as u64,
                true,
            );
        }
    }
}

/// Collective verdict of one polling pass over a machine's flights.
enum FlightsVerdict {
    /// Every flight delivered; `at` is the last arrival instant.
    Done { at: SimNs },
    /// Some flight failed terminally (first failure in issue order).
    Failed { err: MpiError, at: SimNs },
    /// Still in flight; `wake` is the earliest useful re-poll instant
    /// (strictly future).
    Pending { wake: SimNs },
}

/// Drive every unfinished flight once at `now`.
fn poll_flights(
    inner: &Inner,
    ids: &mut ChildIds,
    flights: &mut [RmaFlight],
    now: SimNs,
) -> FlightsVerdict {
    let mut done_at = 0;
    let mut wake: Option<SimNs> = None;
    let mut failed: Option<(MpiError, SimNs)> = None;
    for f in flights.iter_mut() {
        if let Some(at) = f.done_at {
            done_at = done_at.max(at);
            continue;
        }
        let verdict = f.handle.poll();
        f.note_attempts(inner, ids, now);
        match verdict {
            RmaPoll::Done { at } => {
                f.done_at = Some(at);
                done_at = done_at.max(at);
            }
            RmaPoll::Failed { err, at } => {
                if failed.is_none() {
                    failed = Some((err, at));
                }
            }
            RmaPoll::Pending => {
                let next = if f.handle.attempts() == 0 {
                    now.max(f.earliest) + 1
                } else {
                    now + RMA_POLL_QUANTUM_NS
                };
                wake = Some(wake.map_or(next, |w: SimNs| w.min(next)));
            }
        }
    }
    if let Some((err, at)) = failed {
        FlightsVerdict::Failed {
            err,
            at: at.max(now),
        }
    } else if let Some(wake) = wake {
        FlightsVerdict::Pending { wake }
    } else {
        FlightsVerdict::Done { at: done_at }
    }
}

/// Terminal-failure accounting shared by the one-sided machines: a dead
/// target is a ULFM-class process failure, anything else a transfer
/// failure. Returns the error the op settles with.
fn rma_failure(
    inner: &Inner,
    ids: &mut ChildIds,
    what: String,
    err: MpiError,
    target: Rank,
    at: SimNs,
) -> ClError {
    let dead = matches!(err, MpiError::ProcFailed { .. }).then_some(target);
    note_abort(inner, ids, dead, at);
    ClError::TransferFailed(format!("{what}: {err}"))
}

/// States shared by the put machine (accumulate has an extra staging
/// phase and its own enum).
enum PutState {
    WaitDeps,
    Transfer { t0: SimNs, flights: Vec<RmaFlight> },
    Finish { done_at: SimNs },
}

/// `clEnqueuePutBuffer`: one-sided write of a device-buffer range into a
/// peer rank's exposed window — wait list → per-chunk d2h staging +
/// routed wire flights → completion at the last flight's arrival.
///
/// The resolved strategy picks the *wire lowering*, which is what the
/// per-(peer, size) tuner sweeps:
///
/// * `Rma` — stage once, then the fabric's class-routed one-sided
///   transport carries it (loopback, CXL pool port, or NIC).
/// * `Pinned` — stage once, force the NIC path (two-sided emulation).
/// * `Pipelined(b)` — per-chunk staging on the forced NIC path; chunk
///   k's wire time overlaps chunk k+1's staging, as on the send path.
/// * `Mapped` — no staging: one fused stream of duration
///   max(injection, PCIe mapped stream) forced onto the NIC path.
pub(crate) struct PutOp {
    inner: Arc<Inner>,
    device: Device,
    win: Win,
    buf: Buffer,
    offset: usize,
    win_offset: usize,
    size: usize,
    target: Rank,
    strategy: TransferStrategy,
    wait: Vec<Event>,
    ue: UserEvent,
    label: String,
    ids: ChildIds,
    submit_ns: SimNs,
    state: PutState,
}

impl PutOp {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        inner: Arc<Inner>,
        device: Device,
        win: Win,
        buf: Buffer,
        offset: usize,
        win_offset: usize,
        size: usize,
        target: Rank,
        strategy: TransferStrategy,
        wait: Vec<Event>,
        ue: UserEvent,
        ids: ChildIds,
        submit_ns: SimNs,
    ) -> Self {
        let label = format!("clmpi-put-r{}-to-{}", inner.comm.rank(), target);
        PutOp {
            inner,
            device,
            win,
            buf,
            offset,
            win_offset,
            size,
            target,
            strategy,
            wait,
            ue,
            label,
            ids,
            submit_ns,
            state: PutState::WaitDeps,
        }
    }

    /// Stage and post every chunk of the put according to the strategy
    /// lowering. All reservations are made at `t0`; overlap between
    /// staging and wire time falls out of the resource timelines.
    fn arm(&mut self, t0: SimNs) -> ClResult<Vec<RmaFlight>> {
        let pcie = self.device.spec().pcie;
        let plan = ResolvedStrategy::plan(self.strategy, self.size);
        let mut flights = Vec::with_capacity(plan.chunks.len());
        let mut first = true;
        for &(coff, clen) in &plan.chunks {
            let (wire_earliest, route) = match self.strategy {
                TransferStrategy::Mapped => {
                    let stream = (clen as f64 * 1e9 / pcie.mapped_bps).round() as SimNs;
                    let fused = self.inner.cfg.cluster.link.injection_ns(clen).max(stream);
                    (t0 + pcie.map_setup_ns, RmaRoute::NicDuration(fused))
                }
                TransferStrategy::Rma
                | TransferStrategy::Pinned
                | TransferStrategy::Pipelined(_) => {
                    let earliest = if first { t0 + pcie.pin_setup_ns } else { t0 };
                    let d2h = self
                        .device
                        .d2h_link()
                        .reserve_duration(pcie.staged_ns(clen, true), earliest);
                    Stage::D2h.child(&self.inner, &mut self.ids, d2h.start, d2h.end, clen as u64);
                    let route = if self.strategy == TransferStrategy::Rma {
                        RmaRoute::Auto
                    } else {
                        RmaRoute::Nic
                    };
                    (d2h.end, route)
                }
                TransferStrategy::Auto => unreachable!("strategy resolved before dispatch"),
            };
            first = false;
            let bytes = self
                .buf
                .load(self.offset + coff, clen)
                .expect("range checked at enqueue");
            let h = self
                .win
                .put_routed(
                    self.target,
                    self.win_offset + coff,
                    &bytes,
                    route,
                    wire_earliest,
                )
                .map_err(|e| {
                    ClError::TransferFailed(format!("put to rank {}: {e}", self.target))
                })?;
            flights.push(RmaFlight::new(h, wire_earliest));
        }
        Ok(flights)
    }

    fn settle(&mut self, outcome: ClResult<()>, at: SimNs) -> Step {
        // A transfer-level failure retires the probed lowering for this
        // (peer, size) class.
        if strategy_failed(&outcome) {
            if let Some(sel) = self.inner.rma_adaptive.lock().as_ref() {
                sel.observe_failure(PeerKey(self.target, self.size), self.strategy);
            }
        }
        let envelope = Envelope {
            cat: "op.put",
            name: format!("put→{}@{}", self.target, self.win_offset),
            bytes: self.size as u64,
            peer: Some(self.target),
            tag: None,
        };
        let report = Report {
            inner: &self.inner,
            ids: &self.ids,
            submit_ns: self.submit_ns,
            envelope,
            moved: (self.size as u64, 0),
        };
        settle_op(NO_SLOT, Some(report), Some(&self.ue), outcome, at)
    }
}

impl EngineOp for PutOp {
    fn label(&self) -> &str {
        &self.label
    }

    fn step(&mut self, now: SimNs, _actor: &Actor) -> Step {
        loop {
            match &mut self.state {
                PutState::WaitDeps => match deps_ready(&self.wait) {
                    Ok(false) => return Step::Park(None),
                    Err(e) => return self.settle(Err(e), now),
                    Ok(true) => match self.arm(now) {
                        Ok(flights) => self.state = PutState::Transfer { t0: now, flights },
                        Err(e) => return self.settle(Err(e), now),
                    },
                },
                PutState::Transfer { t0, flights } => {
                    let t0 = *t0;
                    let verdict = poll_flights(&self.inner, &mut self.ids, flights, now);
                    match verdict {
                        FlightsVerdict::Pending { wake } => return Step::Park(Some(wake)),
                        FlightsVerdict::Failed { err, at } => {
                            let what = format!("put to rank {}", self.target);
                            let e =
                                rma_failure(&self.inner, &mut self.ids, what, err, self.target, at);
                            return self.settle(Err(e), at);
                        }
                        FlightsVerdict::Done { at } => {
                            let done_at = at.max(t0);
                            if let Some(stats) = self.inner.stats.lock().as_ref() {
                                stats.record(
                                    "put",
                                    &self.strategy.name(),
                                    self.size,
                                    done_at.saturating_sub(t0),
                                );
                            }
                            if let Some(sel) = self.inner.rma_adaptive.lock().as_ref() {
                                sel.observe(
                                    PeerKey(self.target, self.size),
                                    self.strategy,
                                    done_at.saturating_sub(t0),
                                );
                            }
                            self.state = PutState::Finish { done_at };
                        }
                    }
                }
                PutState::Finish { done_at } => {
                    let done_at = *done_at;
                    if now >= done_at {
                        return self.settle(Ok(()), done_at);
                    }
                    return Step::Park(Some(done_at));
                }
            }
        }
    }
}

enum GetState {
    WaitDeps,
    Transfer {
        t0: SimNs,
        flight: RmaFlight,
    },
    Stage {
        t0: SimNs,
        data: Vec<u8>,
        end: SimNs,
    },
}

/// `clEnqueueGetBuffer`: one-sided read from a peer rank's window into a
/// device buffer — wait list → class-routed wire flight → h2d staging →
/// completion with the data in device memory. The window's staging
/// memory is registered at `Win_create`, so the landing pays the staged
/// copy but no per-transfer pin setup.
pub(crate) struct GetOp {
    inner: Arc<Inner>,
    device: Device,
    win: Win,
    buf: Buffer,
    offset: usize,
    win_offset: usize,
    size: usize,
    target: Rank,
    wait: Vec<Event>,
    ue: UserEvent,
    label: String,
    ids: ChildIds,
    submit_ns: SimNs,
    state: GetState,
}

impl GetOp {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        inner: Arc<Inner>,
        device: Device,
        win: Win,
        buf: Buffer,
        offset: usize,
        win_offset: usize,
        size: usize,
        target: Rank,
        wait: Vec<Event>,
        ue: UserEvent,
        ids: ChildIds,
        submit_ns: SimNs,
    ) -> Self {
        let label = format!("clmpi-get-r{}-from-{}", inner.comm.rank(), target);
        GetOp {
            inner,
            device,
            win,
            buf,
            offset,
            win_offset,
            size,
            target,
            wait,
            ue,
            label,
            ids,
            submit_ns,
            state: GetState::WaitDeps,
        }
    }

    fn settle(&mut self, outcome: ClResult<()>, at: SimNs) -> Step {
        let envelope = Envelope {
            cat: "op.get",
            name: format!("get←{}@{}", self.target, self.win_offset),
            bytes: self.size as u64,
            peer: Some(self.target),
            tag: None,
        };
        let report = Report {
            inner: &self.inner,
            ids: &self.ids,
            submit_ns: self.submit_ns,
            envelope,
            moved: (0, self.size as u64),
        };
        settle_op(NO_SLOT, Some(report), Some(&self.ue), outcome, at)
    }
}

impl EngineOp for GetOp {
    fn label(&self) -> &str {
        &self.label
    }

    fn step(&mut self, now: SimNs, _actor: &Actor) -> Step {
        loop {
            match &mut self.state {
                GetState::WaitDeps => match deps_ready(&self.wait) {
                    Ok(false) => return Step::Park(None),
                    Err(e) => return self.settle(Err(e), now),
                    Ok(true) => match self.win.get(self.target, self.win_offset, self.size) {
                        Ok(h) => {
                            self.state = GetState::Transfer {
                                t0: now,
                                flight: RmaFlight::new(h, now),
                            };
                        }
                        Err(e) => {
                            return self.settle(
                                Err(ClError::TransferFailed(format!(
                                    "get from rank {}: {e}",
                                    self.target
                                ))),
                                now,
                            );
                        }
                    },
                },
                GetState::Transfer { t0, flight } => {
                    let t0 = *t0;
                    let verdict = poll_flights(
                        &self.inner,
                        &mut self.ids,
                        std::slice::from_mut(flight),
                        now,
                    );
                    match verdict {
                        FlightsVerdict::Pending { wake } => return Step::Park(Some(wake)),
                        FlightsVerdict::Failed { err, at } => {
                            let what = format!("get from rank {}", self.target);
                            let e =
                                rma_failure(&self.inner, &mut self.ids, what, err, self.target, at);
                            return self.settle(Err(e), at);
                        }
                        FlightsVerdict::Done { at } => {
                            let data = flight
                                .handle
                                .take_data()
                                .expect("settled get yields its payload");
                            let pcie = self.device.spec().pcie;
                            let h2d = self
                                .device
                                .h2d_link()
                                .reserve_duration(pcie.staged_ns(data.len(), true), at.max(t0));
                            Stage::H2d.child(
                                &self.inner,
                                &mut self.ids,
                                h2d.start,
                                h2d.end,
                                data.len() as u64,
                            );
                            self.state = GetState::Stage {
                                t0,
                                data,
                                end: h2d.end,
                            };
                        }
                    }
                }
                GetState::Stage { t0, data, end } => {
                    let (t0, end) = (*t0, *end);
                    if now < end {
                        return Step::Park(Some(end));
                    }
                    self.buf
                        .store(self.offset, data)
                        .expect("range checked at enqueue");
                    if let Some(stats) = self.inner.stats.lock().as_ref() {
                        stats.record("get", "rma", self.size, end.saturating_sub(t0));
                    }
                    return self.settle(Ok(()), end);
                }
            }
        }
    }
}

enum AccState {
    WaitDeps,
    Stage { t0: SimNs, end: SimNs },
    Transfer { t0: SimNs, flight: RmaFlight },
    Finish { done_at: SimNs },
}

/// `clEnqueueAccumulateBuffer`: one-sided read-modify-write of f64s from
/// a device buffer into a peer rank's window — wait list → d2h staging →
/// class-routed wire flight applied in the arbiter's canonical grant
/// order → completion. The operand must leave the device before the op
/// can be posted (the fold reads the payload at grant time), so staging
/// and wire time serialize here, unlike the put path.
pub(crate) struct AccumulateOp {
    inner: Arc<Inner>,
    device: Device,
    win: Win,
    buf: Buffer,
    offset: usize,
    win_offset: usize,
    size: usize,
    target: Rank,
    op: ReduceOp,
    wait: Vec<Event>,
    ue: UserEvent,
    label: String,
    ids: ChildIds,
    submit_ns: SimNs,
    state: AccState,
}

impl AccumulateOp {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        inner: Arc<Inner>,
        device: Device,
        win: Win,
        buf: Buffer,
        offset: usize,
        win_offset: usize,
        size: usize,
        target: Rank,
        op: ReduceOp,
        wait: Vec<Event>,
        ue: UserEvent,
        ids: ChildIds,
        submit_ns: SimNs,
    ) -> Self {
        let label = format!("clmpi-acc-r{}-to-{}", inner.comm.rank(), target);
        AccumulateOp {
            inner,
            device,
            win,
            buf,
            offset,
            win_offset,
            size,
            target,
            op,
            wait,
            ue,
            label,
            ids,
            submit_ns,
            state: AccState::WaitDeps,
        }
    }

    fn settle(&mut self, outcome: ClResult<()>, at: SimNs) -> Step {
        let envelope = Envelope {
            cat: "op.acc",
            name: format!("acc→{}@{}", self.target, self.win_offset),
            bytes: self.size as u64,
            peer: Some(self.target),
            tag: None,
        };
        let report = Report {
            inner: &self.inner,
            ids: &self.ids,
            submit_ns: self.submit_ns,
            envelope,
            moved: (self.size as u64, 0),
        };
        settle_op(NO_SLOT, Some(report), Some(&self.ue), outcome, at)
    }
}

impl EngineOp for AccumulateOp {
    fn label(&self) -> &str {
        &self.label
    }

    fn step(&mut self, now: SimNs, _actor: &Actor) -> Step {
        loop {
            match &mut self.state {
                AccState::WaitDeps => match deps_ready(&self.wait) {
                    Ok(false) => return Step::Park(None),
                    Err(e) => return self.settle(Err(e), now),
                    Ok(true) => {
                        let pcie = self.device.spec().pcie;
                        let d2h = self.device.d2h_link().reserve_duration(
                            pcie.staged_ns(self.size, true),
                            now + pcie.pin_setup_ns,
                        );
                        Stage::D2h.child(
                            &self.inner,
                            &mut self.ids,
                            d2h.start,
                            d2h.end,
                            self.size as u64,
                        );
                        self.state = AccState::Stage {
                            t0: now,
                            end: d2h.end,
                        };
                    }
                },
                AccState::Stage { t0, end } => {
                    let (t0, end) = (*t0, *end);
                    if now < end {
                        return Step::Park(Some(end));
                    }
                    let bytes = self
                        .buf
                        .load(self.offset, self.size)
                        .expect("range checked at enqueue");
                    match self
                        .win
                        .accumulate(self.target, self.win_offset, &bytes, self.op)
                    {
                        Ok(h) => {
                            self.state = AccState::Transfer {
                                t0,
                                flight: RmaFlight::new(h, now),
                            };
                        }
                        Err(e) => {
                            return self.settle(
                                Err(ClError::TransferFailed(format!(
                                    "accumulate to rank {}: {e}",
                                    self.target
                                ))),
                                now,
                            );
                        }
                    }
                }
                AccState::Transfer { t0, flight } => {
                    let t0 = *t0;
                    let verdict = poll_flights(
                        &self.inner,
                        &mut self.ids,
                        std::slice::from_mut(flight),
                        now,
                    );
                    match verdict {
                        FlightsVerdict::Pending { wake } => return Step::Park(Some(wake)),
                        FlightsVerdict::Failed { err, at } => {
                            let what = format!("accumulate to rank {}", self.target);
                            let e =
                                rma_failure(&self.inner, &mut self.ids, what, err, self.target, at);
                            return self.settle(Err(e), at);
                        }
                        FlightsVerdict::Done { at } => {
                            let done_at = at.max(t0);
                            if let Some(stats) = self.inner.stats.lock().as_ref() {
                                stats.record("acc", "rma", self.size, done_at.saturating_sub(t0));
                            }
                            self.state = AccState::Finish { done_at };
                        }
                    }
                }
                AccState::Finish { done_at } => {
                    let done_at = *done_at;
                    if now >= done_at {
                        return self.settle(Ok(()), done_at);
                    }
                    return Step::Park(Some(done_at));
                }
            }
        }
    }
}

enum FenceState {
    WaitDeps,
    Drain,
    Await {
        start: SimNs,
        gen: u64,
        op_err: Option<MpiError>,
        deadline: Option<SimNs>,
    },
}

/// `clEnqueueWinFence`: close the window's current access epoch and open
/// the next — drain this rank's pending one-sided ops, mark the fence
/// arrival, then await every rank's matching arrival. Mirrors the
/// blocking [`Win::fence`] exactly: op failures latched during the epoch
/// take precedence over synchronization failures, and a patience expiry
/// under a fault plan is classified against the laggards.
///
/// Parking: the drain phase polls at the fixed quantum (the pending
/// handles' own machines park precisely; this is the backstop), and the
/// await phase parks on notification — a peer's fence arrival is a
/// control-block write that notifies — plus the patience deadline when a
/// fault plan is armed.
pub(crate) struct WinFenceOp {
    inner: Arc<Inner>,
    win: Win,
    wait: Vec<Event>,
    ue: UserEvent,
    label: String,
    ids: ChildIds,
    submit_ns: SimNs,
    state: FenceState,
}

impl WinFenceOp {
    pub(crate) fn new(
        inner: Arc<Inner>,
        win: Win,
        wait: Vec<Event>,
        ue: UserEvent,
        ids: ChildIds,
        submit_ns: SimNs,
    ) -> Self {
        let label = format!("clmpi-win-fence-r{}", inner.comm.rank());
        WinFenceOp {
            inner,
            win,
            wait,
            ue,
            label,
            ids,
            submit_ns,
            state: FenceState::WaitDeps,
        }
    }

    fn settle(&mut self, outcome: ClResult<()>, at: SimNs) -> Step {
        let envelope = Envelope {
            cat: "op.fence",
            name: "win-fence".into(),
            bytes: 0,
            peer: None,
            tag: None,
        };
        let report = Report {
            inner: &self.inner,
            ids: &self.ids,
            submit_ns: self.submit_ns,
            envelope,
            moved: (0, 0),
        };
        settle_op(NO_SLOT, Some(report), Some(&self.ue), outcome, at)
    }

    fn settle_epoch(&mut self, err: MpiError, at: SimNs) -> Step {
        let dead = match err {
            MpiError::ProcFailed { rank } => Some(rank),
            _ => None,
        };
        note_abort(&self.inner, &mut self.ids, dead, at);
        self.settle(
            Err(ClError::TransferFailed(format!("rma epoch: {err}"))),
            at,
        )
    }
}

impl EngineOp for WinFenceOp {
    fn label(&self) -> &str {
        &self.label
    }

    fn step(&mut self, now: SimNs, _actor: &Actor) -> Step {
        loop {
            match &mut self.state {
                FenceState::WaitDeps => match deps_ready(&self.wait) {
                    Ok(false) => return Step::Park(None),
                    Err(e) => return self.settle(Err(e), now),
                    Ok(true) => self.state = FenceState::Drain,
                },
                FenceState::Drain => {
                    if !self.win.poll_pending() {
                        return Step::Park(Some(now + RMA_POLL_QUANTUM_NS));
                    }
                    let op_err = self.win.take_epoch_err();
                    let gen = self.win.fence_enter(now);
                    let deadline = self
                        .win
                        .comm()
                        .world()
                        .has_faults()
                        .then(|| now + RMA_PATIENCE_NS);
                    self.state = FenceState::Await {
                        start: now,
                        gen,
                        op_err,
                        deadline,
                    };
                }
                FenceState::Await {
                    start,
                    gen,
                    op_err,
                    deadline,
                } => {
                    let (start, gen, deadline) = (*start, *gen, *deadline);
                    if self.win.fence_ready(gen) {
                        // Epoch op failures outrank a clean sync (the
                        // blocking fence's `op_err.map_or(sync, Err)`).
                        return match op_err.take() {
                            None => self.settle(Ok(()), now),
                            Some(e) => self.settle_epoch(e, now),
                        };
                    }
                    match deadline {
                        Some(d) if now >= d => {
                            let laggards = self.win.fence_laggards(gen);
                            let sync = self.win.classify_stall(&laggards, now, now - start);
                            let err = op_err.take().unwrap_or(sync);
                            return self.settle_epoch(err, now);
                        }
                        Some(d) => return Step::Park(Some(d)),
                        None => return Step::Park(None),
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simtime::SimClock;

    /// A machine that parks until a fixed instant, then records when the
    /// engine retired it.
    struct TimerOp {
        fire_at: SimNs,
        fired: Arc<Monitor<Option<SimNs>>>,
    }

    impl EngineOp for TimerOp {
        fn label(&self) -> &str {
            "timer"
        }

        fn step(&mut self, now: SimNs, _actor: &Actor) -> Step {
            if now < self.fire_at {
                return Step::Park(Some(self.fire_at));
            }
            self.fired.with(|f| *f = Some(now));
            Step::Done
        }
    }

    #[test]
    fn engine_fires_timers_at_their_virtual_instant() {
        let clock = SimClock::new();
        // Register the caller first: the engine worker must never be the
        // only actor (the deadlock detector would trip at start-up).
        let actor = clock.register("caller");
        let engine = Engine::start(&clock, "test-engine".into(), 0);
        let fired = Arc::new(Monitor::new(clock.clone(), None));
        engine.submit(Box::new(TimerOp {
            fire_at: 5_000,
            fired: fired.clone(),
        }));
        engine.wait_idle(&actor);
        assert_eq!(fired.peek(|f| *f), Some(5_000));
        assert_eq!(actor.now_ns(), 5_000);
    }

    #[test]
    fn engine_orders_independent_timers_without_blocking_each_other() {
        let clock = SimClock::new();
        // Register the caller first: the engine worker must never be the
        // only actor (the deadlock detector would trip at start-up).
        let actor = clock.register("caller");
        let engine = Engine::start(&clock, "test-engine".into(), 0);
        let order = Arc::new(Monitor::new(clock.clone(), Vec::<SimNs>::new()));
        struct LoggingTimer {
            fire_at: SimNs,
            order: Arc<Monitor<Vec<SimNs>>>,
        }
        impl EngineOp for LoggingTimer {
            fn label(&self) -> &str {
                "logging-timer"
            }
            fn step(&mut self, now: SimNs, _actor: &Actor) -> Step {
                if now < self.fire_at {
                    return Step::Park(Some(self.fire_at));
                }
                self.order.with(|o| o.push(now));
                Step::Done
            }
        }
        // Submit out of order; the engine must retire them in virtual
        // order because each parks on its own alarm.
        for &at in &[20_000u64, 12_000, 16_000] {
            engine.submit(Box::new(LoggingTimer {
                fire_at: at,
                order: order.clone(),
            }));
        }
        engine.wait_idle(&actor);
        assert_eq!(order.peek(|o| o.clone()), vec![12_000, 16_000, 20_000]);
        assert_eq!(actor.now_ns(), 20_000);
    }

    #[test]
    #[should_panic(expected = "already shut down")]
    fn submitting_after_shutdown_panics() {
        let clock = SimClock::new();
        // Register the caller first: the engine worker must never be the
        // only actor (the deadlock detector would trip at start-up).
        let actor = clock.register("caller");
        let engine = Engine::start(&clock, "test-engine".into(), 0);
        engine.wait_idle(&actor);
        engine.shared.with(|s| s.shutdown = true);
        let fired = Arc::new(Monitor::new(clock.clone(), None));
        engine.submit(Box::new(TimerOp { fire_at: 1, fired }));
    }
}
