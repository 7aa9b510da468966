//! Pipelined device-buffer collectives (paper §IV-C / §VI, extended).
//!
//! The paper deliberately ships no collective commands — blocking MPI
//! collectives need no OpenCL-side synchronization — but notes that once
//! non-blocking collectives exist, "it will be effective to further
//! extend OpenCL to use its event management mechanism for the
//! synchronization". This module builds that extension the way a modern
//! comms stack would:
//!
//! * [`ClMpi::enqueue_bcast_buffer`] — broadcast a device buffer region
//!   from a root rank to every rank's device. Three algorithms
//!   ([`CollAlgo`]): a **flat** fan-out (the historical prototype,
//!   serialized on the root's NIC), a **binomial tree**, and a
//!   **pipelined ring** in which every non-root rank store-and-forwards
//!   each chunk as it arrives — chunk *k* goes back on the wire while
//!   chunk *k+1* is still in flight, so the broadcast streams instead of
//!   scaling with the root's out-degree.
//! * [`ClMpi::enqueue_allreduce_buffer`] /
//!   [`ClMpi::enqueue_reduce_buffer`] — ring reduce-scatter followed by
//!   ring allgather (allreduce) or a segment gather to the root
//!   (reduce), over `f64` elements with [`minimpi::ReduceOp`]
//!   Sum/Min/Max.
//!
//! All commands return ordinary events, so kernels chain on them exactly
//! like the point-to-point commands; wait-list failures poison the
//! collective event with −14, transfer failures with
//! `CL_MPI_TRANSFER_ERROR` (−1100), like every other machine.
//!
//! ### Wire protocol
//!
//! Only the **root** decides the broadcast algorithm and chunk size
//! (through the per-collective [`crate::adaptive::CollectiveSelector`]
//! or a static heuristic). Every broadcast wire message is
//! `[1-byte algorithm id] ++ payload-chunk`; a non-root rank posts a
//! wildcard-source receive, reads the header of the first chunk to learn
//! the topology (and its parent from the message source), then forwards
//! the verbatim message to its derived children. The ring reduction is
//! fixed-topology, so only the sender-local chunk size is tuned —
//! receivers drain by expected byte count, relying on minimpi's
//! per-`(source, tag)` FIFO delivery, so ranks with divergent chunk
//! choices still interoperate.
//!
//! Collective traffic lives in its own tag region above the
//! point-to-point data plane (see [`crate::CLMPI_COLL_TAG_BASE`]), so
//! `data_plane_faults` plans exercise it and user/control tags never
//! collide with it.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use minicl::{Buffer, ClError, ClResult, CommandQueue, Device, Event, UserEvent};
use minimpi::{Payload, Rank, ReduceOp, Tag};
use simtime::plock::Mutex;
use simtime::{Actor, SimNs};

use crate::adaptive::{CollKey, CollectiveSelector};
use crate::engine::{
    deps_ready, record_child, settle_op, strategy_failed, ChunkStep, EngineOp, Envelope, RecvStep,
    ReliableChunkRecv, ReliableChunkSend, Report, Stage, Step, NO_SLOT,
};
use crate::obs::ChildIds;
use crate::runtime::{ClMpi, Inner};
use crate::strategy::chunk_layout;
use crate::system::SystemConfig;

/// Host-side fold rate charged for reduction arithmetic (bytes/s). The
/// reduction itself is a host loop in this simulation; the charge keeps
/// the `reduce` child spans visible on the dev track without dominating
/// the wire time.
pub(crate) const REDUCE_BPS: f64 = 8e9;

/// A broadcast algorithm choice (the collective analogue of
/// [`crate::TransferStrategy`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollAlgo {
    /// Root sends the full payload to every rank, serialized on the
    /// root's NIC. Optimal at world ≤ 2, pathological beyond.
    Flat,
    /// Binomial tree: interior ranks re-forward each chunk to their
    /// subtree as it arrives; latency grows with ⌈log₂ n⌉.
    Tree,
    /// Pipelined ring (chain): each rank forwards chunk *k* to its
    /// successor while chunk *k+1* is still inbound; bandwidth-optimal
    /// for large payloads.
    Ring,
}

impl CollAlgo {
    /// Short display name.
    pub fn name(&self) -> &'static str {
        match self {
            CollAlgo::Flat => "flat",
            CollAlgo::Tree => "tree",
            CollAlgo::Ring => "ring",
        }
    }

    /// The wire header byte identifying this algorithm.
    pub(crate) fn id(&self) -> u8 {
        match self {
            CollAlgo::Flat => 1,
            CollAlgo::Tree => 2,
            CollAlgo::Ring => 3,
        }
    }

    pub(crate) fn from_id(id: u8) -> Option<CollAlgo> {
        match id {
            1 => Some(CollAlgo::Flat),
            2 => Some(CollAlgo::Tree),
            3 => Some(CollAlgo::Ring),
            _ => None,
        }
    }
}

/// One point in the collective tuning space: an algorithm plus the
/// pipeline chunk size it moves the payload in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CollTuning {
    /// The dissemination topology.
    pub algo: CollAlgo,
    /// Wire chunk size in bytes (≥ 1).
    pub chunk: usize,
}

/// The static per-(size, world) broadcast policy used when no
/// [`crate::adaptive::CollectiveSelector`] is attached: trivial worlds
/// fan out flat, latency-bound payloads climb the tree, bandwidth-bound
/// payloads stream around the ring.
pub(crate) fn default_bcast_tuning(cfg: &SystemConfig, size: usize, world: usize) -> CollTuning {
    let algo = if world <= 2 {
        CollAlgo::Flat
    } else if size < (1 << 20) {
        CollAlgo::Tree
    } else {
        CollAlgo::Ring
    };
    // A ring only pipelines when each link sees several chunks: with m
    // chunks the last rank finishes after m + n − 2 injections, so m must
    // dominate n. Cap the chunk so m ≈ 4(n − 1) while keeping chunks
    // large enough (≥ 64 KiB) that per-chunk overheads stay negligible.
    let chunk = match algo {
        CollAlgo::Ring => (size / (4 * (world - 1)))
            .clamp(64 << 10, cfg.default_pipeline_block)
            .min(size.max(1)),
        _ => cfg.default_pipeline_block,
    };
    CollTuning { algo, chunk }
}

/// Children of `me` in the dissemination topology rooted at `root` over
/// `n` ranks. The union over all ranks is a spanning tree: every
/// non-root rank has exactly one parent.
pub(crate) fn bcast_children(algo: CollAlgo, root: Rank, n: usize, me: Rank) -> Vec<Rank> {
    match algo {
        CollAlgo::Flat => {
            if me == root {
                (0..n).filter(|&r| r != root).collect()
            } else {
                Vec::new()
            }
        }
        CollAlgo::Tree => {
            // Virtual ranks rotate the root to 0 (the reference binomial
            // construction minimpi's host bcast uses): vrank v's children
            // are v|mask for each mask below v's lowest set bit.
            let v = (me + n - root) % n;
            let top = if v == 0 {
                n.next_power_of_two()
            } else {
                v & v.wrapping_neg()
            };
            let mut out = Vec::new();
            let mut mask = top >> 1;
            while mask >= 1 {
                let child = v | mask;
                if child < n {
                    out.push((child + root) % n);
                }
                mask >>= 1;
            }
            out
        }
        CollAlgo::Ring => {
            let next = (me + 1) % n;
            if n > 1 && next != root {
                vec![next]
            } else {
                Vec::new()
            }
        }
    }
}

/// Element-wise `(offset, len)` of each of the `n` ring segments of a
/// `count`-element vector: near-equal splits, the remainder spread over
/// the leading segments (segments may be empty when `count < n`).
pub(crate) fn seg_bounds(count: usize, n: usize) -> Vec<(usize, usize)> {
    let base = count / n;
    let rem = count % n;
    let mut out = Vec::with_capacity(n);
    let mut off = 0;
    for j in 0..n {
        let len = base + usize::from(j < rem);
        out.push((off, len));
        off += len;
    }
    out
}

/// The little-endian wire image of `vals`.
fn le_bytes(vals: &[f64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(vals.len() * 8);
    for v in vals {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

fn merge_hint(a: Option<SimNs>, b: Option<SimNs>) -> Option<SimNs> {
    match (a, b) {
        (Some(x), Some(y)) => Some(x.min(y)),
        (x, None) => x,
        (None, y) => y,
    }
}

/// Measurement feedback at a collective's settlement. When the tuner
/// chose this run (`tuner`), a success is fed back as its probe and a
/// transfer failure retires the tuning (a poisoned wait list says nothing
/// about it); a success is also recorded in the stats.
fn coll_feedback(
    inner: &Inner,
    tuner: Option<&Mutex<Option<Arc<CollectiveSelector>>>>,
    what: &str,
    key: CollKey,
    tuning: CollTuning,
    outcome: &ClResult<()>,
    elapsed: SimNs,
) {
    if let Some(tuner) = tuner {
        if let Some(sel) = tuner.lock().as_ref() {
            if outcome.is_ok() {
                sel.observe(key, tuning, elapsed);
            } else if strategy_failed(outcome) {
                sel.observe_failure(key, tuning);
            }
        }
    }
    if outcome.is_ok() {
        if let Some(stats) = inner.stats.lock().as_ref() {
            stats.record(what, tuning.algo.name(), key.0, elapsed);
        }
    }
}

// ----------------------------------------------------------------------
// Serial reliable-send queue (the store-and-forward engine primitive)
// ----------------------------------------------------------------------

struct QueuedSend {
    send: ReliableChunkSend,
    /// Span start for the recorded child (the instant the injection was
    /// armed / allowed to begin).
    start: SimNs,
    name: String,
    cat: &'static str,
}

/// A FIFO of [`ReliableChunkSend`]s driven head-first: on a perfect
/// fabric every queued injection resolves in the same engine pass (the
/// fate of an `isend_raw` is known at injection), so serial stepping
/// equals the old burst; under faults the head's backoff timer
/// serializes the retries deterministically.
struct SendQueue {
    q: VecDeque<QueuedSend>,
    /// Latest injection end among completed sends.
    done_at: SimNs,
}

impl SendQueue {
    fn new() -> Self {
        SendQueue {
            q: VecDeque::new(),
            done_at: 0,
        }
    }

    fn push(&mut self, send: ReliableChunkSend, start: SimNs, name: String, cat: &'static str) {
        self.q.push_back(QueuedSend {
            send,
            start,
            name,
            cat,
        });
    }

    fn is_empty(&self) -> bool {
        self.q.is_empty()
    }

    /// Step the head injection as far as possible at `now`. `Ok(None)`:
    /// queue drained (all injections delivered; the last ends at
    /// `done_at`). `Ok(Some(t))`: head is waiting until `t`. `Err`: head
    /// exhausted its retry budget at the carried instant.
    fn drive(
        &mut self,
        inner: &Inner,
        ids: &mut ChildIds,
        now: SimNs,
        actor: &Actor,
    ) -> Result<Option<SimNs>, (SimNs, ClError)> {
        while let Some(head) = self.q.front_mut() {
            match head.send.step(inner, ids, now, actor) {
                ChunkStep::Progressed => continue,
                ChunkStep::Park(t) => return Ok(Some(t)),
                ChunkStep::Sent(done) => {
                    record_child(
                        inner,
                        ids,
                        "net",
                        std::mem::take(&mut head.name),
                        head.cat,
                        head.start,
                        done,
                        head.send.len() as u64,
                        true,
                    );
                    self.done_at = self.done_at.max(done);
                    self.q.pop_front();
                }
                ChunkStep::Failed(at) => {
                    let e = head.send.exhaustion_error();
                    self.q.clear();
                    return Err((at, e));
                }
            }
        }
        Ok(None)
    }
}

// ----------------------------------------------------------------------
// Public API
// ----------------------------------------------------------------------

impl ClMpi {
    /// Broadcast `size` bytes at `offset` of `buf` from `root`'s device
    /// to the same region of every rank's `buf`. Non-blocking: returns
    /// an event that completes when this rank's part is done (root: all
    /// injections and forwards delivered; others: data in device memory
    /// and forwarded downstream). Gated on `wait_list`; a failed
    /// dependency poisons the event with −14. Every rank must call this
    /// collectively with the same `size` and `tag`.
    ///
    /// The algorithm and chunk size are the **root's** choice — through
    /// the attached [`ClMpi::set_bcast_adaptive`] selector, else the
    /// static per-(size, world) heuristic; receivers learn the topology
    /// from the wire.
    #[allow(clippy::too_many_arguments)]
    pub fn enqueue_bcast_buffer(
        &self,
        queue: &CommandQueue,
        buf: &Buffer,
        offset: usize,
        size: usize,
        root: Rank,
        tag: Tag,
        wait_list: &[Event],
        actor: &Actor,
    ) -> ClResult<Event> {
        let n = self.comm().size();
        let tuning = if self.rank() == root {
            if let Some(sel) = self.inner.coll_bcast.lock().as_ref() {
                sel.choose(CollKey(size, n))
            } else {
                default_bcast_tuning(&self.inner.cfg, size, n)
            }
        } else {
            // Receivers take the topology from the wire header.
            default_bcast_tuning(&self.inner.cfg, size, n)
        };
        let report = self.inner.coll_bcast.lock().is_some();
        self.submit_bcast(
            queue, buf, offset, size, root, tag, tuning, report, wait_list, actor,
        )
    }

    /// [`ClMpi::enqueue_bcast_buffer`] with an explicit algorithm and
    /// chunk size (benchmarks and the differential test suite). Never
    /// reports to the selector. The `algo`/`chunk` arguments only matter
    /// on the root; other ranks still learn the topology from the wire.
    #[allow(clippy::too_many_arguments)]
    pub fn enqueue_bcast_buffer_as(
        &self,
        queue: &CommandQueue,
        buf: &Buffer,
        offset: usize,
        size: usize,
        root: Rank,
        tag: Tag,
        algo: CollAlgo,
        chunk: usize,
        wait_list: &[Event],
        actor: &Actor,
    ) -> ClResult<Event> {
        if chunk == 0 {
            return Err(ClError::InvalidValue("collective chunk must be ≥ 1".into()));
        }
        self.submit_bcast(
            queue,
            buf,
            offset,
            size,
            root,
            tag,
            CollTuning { algo, chunk },
            false,
            wait_list,
            actor,
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn submit_bcast(
        &self,
        queue: &CommandQueue,
        buf: &Buffer,
        offset: usize,
        size: usize,
        root: Rank,
        tag: Tag,
        tuning: CollTuning,
        report: bool,
        wait_list: &[Event],
        actor: &Actor,
    ) -> ClResult<Event> {
        let _ = actor;
        buf.check_range(offset, size)?;
        if root >= self.comm().size() {
            return Err(ClError::InvalidValue(format!("root {root} out of range")));
        }
        let wire_tag = crate::checked_coll_tag(crate::COLL_SPACE_BCAST, tag)?;
        let me = self.rank();
        let ue = self
            .context()
            .create_user_event(format!("bcast@{root}#{tag}"));
        let event = ue.event();
        let ids = self.inner.new_op();
        let submit_ns = self.inner.clock.now_ns();
        if me == root {
            self.inner.engine.submit(Box::new(BcastRootOp {
                inner: self.inner.clone(),
                device: queue.device().clone(),
                buf: buf.clone(),
                offset,
                size,
                wire_tag,
                user_tag: tag,
                tuning,
                report,
                wait: wait_list.to_vec(),
                ue,
                label: format!("clmpi-bcast-root-r{me}-t{tag}"),
                ids,
                submit_ns,
                t0: 0,
                queue: SendQueue::new(),
                state: RootState::WaitDeps,
            }));
        } else {
            self.inner.engine.submit(Box::new(BcastRecvOp {
                inner: self.inner.clone(),
                device: queue.device().clone(),
                buf: buf.clone(),
                offset,
                size,
                root,
                wire_tag,
                user_tag: tag,
                wait: wait_list.to_vec(),
                ue,
                label: format!("clmpi-bcast-recv-r{me}-t{tag}"),
                ids,
                submit_ns,
                t0: 0,
                algo: None,
                parent: None,
                children: Vec::new(),
                received: 0,
                chunk_idx: 0,
                last_h2d_end: 0,
                queue: SendQueue::new(),
                state: RecvBcastState::WaitDeps,
            }));
        }
        Ok(event)
    }

    /// All-reduce `count` `f64` elements at byte `offset` of `buf` under
    /// `op` across every rank: ring reduce-scatter followed by ring
    /// allgather. Every rank's region is overwritten with the reduced
    /// vector; the returned event completes when this rank's result is
    /// in device memory and its last injection delivered. Collective:
    /// every rank must call with the same `count`, `op` and `tag`.
    #[allow(clippy::too_many_arguments)]
    pub fn enqueue_allreduce_buffer(
        &self,
        queue: &CommandQueue,
        buf: &Buffer,
        offset: usize,
        count: usize,
        op: ReduceOp,
        tag: Tag,
        wait_list: &[Event],
        actor: &Actor,
    ) -> ClResult<Event> {
        let n = self.comm().size();
        let size = count
            .checked_mul(8)
            .ok_or_else(|| ClError::InvalidValue(format!("allreduce count {count} overflows")))?;
        let (chunk, report) = if let Some(sel) = self.inner.coll_allreduce.lock().as_ref() {
            (sel.choose(CollKey(size, n)).chunk, true)
        } else {
            (self.inner.cfg.default_pipeline_block, false)
        };
        self.submit_ring_reduce(
            queue,
            buf,
            offset,
            count,
            op,
            RingKind::Allreduce,
            tag,
            chunk,
            report,
            wait_list,
            actor,
        )
    }

    /// [`ClMpi::enqueue_allreduce_buffer`] with an explicit chunk size;
    /// never reports to the selector.
    #[allow(clippy::too_many_arguments)]
    pub fn enqueue_allreduce_buffer_as(
        &self,
        queue: &CommandQueue,
        buf: &Buffer,
        offset: usize,
        count: usize,
        op: ReduceOp,
        tag: Tag,
        chunk: usize,
        wait_list: &[Event],
        actor: &Actor,
    ) -> ClResult<Event> {
        if chunk == 0 {
            return Err(ClError::InvalidValue("collective chunk must be ≥ 1".into()));
        }
        self.submit_ring_reduce(
            queue,
            buf,
            offset,
            count,
            op,
            RingKind::Allreduce,
            tag,
            chunk,
            false,
            wait_list,
            actor,
        )
    }

    /// Reduce `count` `f64` elements at byte `offset` of `buf` under
    /// `op` onto `root`: ring reduce-scatter, then each rank sends its
    /// owned reduced segment to the root. Only the **root's** buffer
    /// region is overwritten (MPI_Reduce semantics); other ranks' events
    /// complete when their segment is delivered.
    #[allow(clippy::too_many_arguments)]
    pub fn enqueue_reduce_buffer(
        &self,
        queue: &CommandQueue,
        buf: &Buffer,
        offset: usize,
        count: usize,
        op: ReduceOp,
        root: Rank,
        tag: Tag,
        wait_list: &[Event],
        actor: &Actor,
    ) -> ClResult<Event> {
        if root >= self.comm().size() {
            return Err(ClError::InvalidValue(format!("root {root} out of range")));
        }
        self.submit_ring_reduce(
            queue,
            buf,
            offset,
            count,
            op,
            RingKind::ReduceToRoot(root),
            tag,
            self.inner.cfg.default_pipeline_block,
            false,
            wait_list,
            actor,
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn submit_ring_reduce(
        &self,
        queue: &CommandQueue,
        buf: &Buffer,
        offset: usize,
        count: usize,
        op: ReduceOp,
        kind: RingKind,
        tag: Tag,
        chunk: usize,
        report: bool,
        wait_list: &[Event],
        actor: &Actor,
    ) -> ClResult<Event> {
        let _ = actor;
        let size = count
            .checked_mul(8)
            .ok_or_else(|| ClError::InvalidValue(format!("reduce count {count} overflows")))?;
        buf.check_range(offset, size)?;
        let space = match kind {
            RingKind::Allreduce => crate::COLL_SPACE_ALLREDUCE,
            RingKind::ReduceToRoot(_) => crate::COLL_SPACE_REDUCE,
        };
        let wire_tag = crate::checked_coll_tag(space, tag)?;
        let me = self.rank();
        let (what, peer) = match kind {
            RingKind::Allreduce => ("allreduce".to_string(), String::new()),
            RingKind::ReduceToRoot(root) => ("reduce".to_string(), format!("@{root}")),
        };
        let ue = self
            .context()
            .create_user_event(format!("{what}{peer}#{tag}"));
        let event = ue.event();
        let ids = self.inner.new_op();
        self.inner.engine.submit(Box::new(RingReduceOp {
            inner: self.inner.clone(),
            device: queue.device().clone(),
            buf: buf.clone(),
            offset,
            count,
            op,
            kind,
            wire_tag,
            user_tag: tag,
            chunk: chunk.max(1),
            report,
            wait: wait_list.to_vec(),
            ue,
            label: format!("clmpi-{what}-r{me}-t{tag}"),
            ids,
            submit_ns: self.inner.clock.now_ns(),
            t0: 0,
            host: Vec::new(),
            queue: SendQueue::new(),
            state: RingState::WaitDeps,
        }));
        Ok(event)
    }
}

// ----------------------------------------------------------------------
// Broadcast: root machine
// ----------------------------------------------------------------------

/// The root side of a broadcast: wait list → per-chunk d2h staging →
/// reliable injections to each direct child (pipelined: chunk *k*'s
/// sends are armed as soon as its staging reservation lands) →
/// completion at the last delivered injection.
struct BcastRootOp {
    inner: Arc<Inner>,
    device: Device,
    buf: Buffer,
    offset: usize,
    size: usize,
    wire_tag: Tag,
    user_tag: Tag,
    tuning: CollTuning,
    report: bool,
    wait: Vec<Event>,
    ue: UserEvent,
    label: String,
    ids: ChildIds,
    submit_ns: SimNs,
    t0: SimNs,
    queue: SendQueue,
    state: RootState,
}

enum RootState {
    WaitDeps,
    Drive,
    Finish { done_at: SimNs },
}

impl BcastRootOp {
    fn settle(&mut self, outcome: ClResult<()>, at: SimNs) -> Step {
        let key = CollKey(self.size, self.inner.comm.size());
        let tuner = self.report.then_some(&self.inner.coll_bcast);
        let elapsed = at.saturating_sub(self.t0);
        coll_feedback(
            &self.inner,
            tuner,
            "bcast",
            key,
            self.tuning,
            &outcome,
            elapsed,
        );
        let envelope = Envelope {
            cat: "op.bcast",
            name: format!("bcast@{}#{}", self.inner.comm.rank(), self.user_tag),
            bytes: self.size as u64,
            peer: None,
            tag: Some(self.wire_tag),
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

impl EngineOp for BcastRootOp {
    fn label(&self) -> &str {
        &self.label
    }

    fn step(&mut self, now: SimNs, actor: &Actor) -> Step {
        loop {
            match &self.state {
                RootState::WaitDeps => match deps_ready(&self.wait) {
                    Ok(false) => return Step::Park(None),
                    Err(e) => return self.settle(Err(e), now),
                    Ok(true) => {
                        self.t0 = now;
                        let n = self.inner.comm.size();
                        let me = self.inner.comm.rank();
                        let children = bcast_children(self.tuning.algo, me, n, me);
                        if children.is_empty() {
                            // World of one: nothing on the wire.
                            self.state = RootState::Finish { done_at: now };
                            continue;
                        }
                        let pcie = self.device.spec().pcie;
                        let mut first = true;
                        for (k, &(coff, clen)) in chunk_layout(self.size, self.tuning.chunk.max(1))
                            .iter()
                            .enumerate()
                        {
                            let send_from = if clen == 0 {
                                now
                            } else {
                                let earliest = if first { now + pcie.pin_setup_ns } else { now };
                                first = false;
                                let d2h = self
                                    .device
                                    .d2h_link()
                                    .reserve_duration(pcie.staged_ns(clen, true), earliest);
                                Stage::D2h.child(
                                    &self.inner,
                                    &mut self.ids,
                                    d2h.start,
                                    d2h.end,
                                    clen as u64,
                                );
                                d2h.end
                            };
                            // The wire chunk is the algorithm header plus
                            // the staged bytes, read once out of device
                            // memory and shared by every child's send.
                            let mut msg = Vec::with_capacity(clen + 1);
                            msg.push(self.tuning.algo.id());
                            let at = self.offset + coff;
                            self.buf
                                .read(|b| msg.extend_from_slice(&b.as_slice()[at..at + clen]));
                            let msg = Payload::from(msg);
                            for &c in &children {
                                self.queue.push(
                                    ReliableChunkSend::new(
                                        &self.inner,
                                        c,
                                        self.wire_tag,
                                        msg.clone(),
                                        send_from,
                                        None,
                                    ),
                                    send_from,
                                    format!("bcast[{k}]→r{c}"),
                                    "chunk",
                                );
                            }
                        }
                        self.state = RootState::Drive;
                    }
                },
                RootState::Drive => {
                    match self.queue.drive(&self.inner, &mut self.ids, now, actor) {
                        Err((at, e)) => return self.settle(Err(e), at.max(now)),
                        Ok(Some(t)) => return Step::Park(Some(t)),
                        Ok(None) => {
                            self.state = RootState::Finish {
                                done_at: self.queue.done_at.max(now),
                            };
                        }
                    }
                }
                RootState::Finish { done_at } => {
                    let d = *done_at;
                    if now < d {
                        return Step::Park(Some(d));
                    }
                    return self.settle(Ok(()), d);
                }
            }
        }
    }
}

// ----------------------------------------------------------------------
// Broadcast: non-root store-and-forward machine
// ----------------------------------------------------------------------

/// A non-root broadcast participant: posts a wildcard-source receive,
/// learns the topology from the first chunk's header, then for every
/// arriving chunk simultaneously stages it to the device **and**
/// re-forwards the verbatim wire message to its derived children — the
/// store-and-forward pipeline that lets chunk *k* travel downstream
/// while chunk *k+1* is still inbound.
struct BcastRecvOp {
    inner: Arc<Inner>,
    device: Device,
    buf: Buffer,
    offset: usize,
    size: usize,
    root: Rank,
    wire_tag: Tag,
    user_tag: Tag,
    wait: Vec<Event>,
    ue: UserEvent,
    label: String,
    ids: ChildIds,
    submit_ns: SimNs,
    t0: SimNs,
    algo: Option<CollAlgo>,
    parent: Option<Rank>,
    children: Vec<Rank>,
    received: usize,
    chunk_idx: usize,
    last_h2d_end: SimNs,
    queue: SendQueue,
    state: RecvBcastState,
}

enum RecvBcastState {
    WaitDeps,
    Setup {
        resume_at: SimNs,
    },
    AwaitChunk(ReliableChunkRecv),
    /// Payload complete; flush the remaining forwards.
    Drain,
    Finish {
        done_at: SimNs,
    },
}

impl BcastRecvOp {
    fn settle(&mut self, outcome: ClResult<()>, at: SimNs) -> Step {
        let envelope = Envelope {
            cat: "op.bcast",
            name: format!("bcast@{}#{}", self.root, self.user_tag),
            bytes: self.size as u64,
            peer: Some(self.root),
            tag: Some(self.wire_tag),
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

    /// Post the receive for the next wire chunk. The first post is
    /// wildcard-source (the parent is unknown until the header arrives);
    /// later posts pin the learned parent.
    fn post_chunk(&mut self, now: SimNs, actor: &Actor) {
        let recv = ReliableChunkRecv::post(&self.inner, actor, self.parent, self.wire_tag, now);
        self.state = RecvBcastState::AwaitChunk(recv);
    }
}

impl EngineOp for BcastRecvOp {
    fn label(&self) -> &str {
        &self.label
    }

    fn step(&mut self, now: SimNs, actor: &Actor) -> Step {
        loop {
            match &mut self.state {
                RecvBcastState::WaitDeps => match deps_ready(&self.wait) {
                    Ok(false) => return Step::Park(None),
                    Err(e) => return self.settle(Err(e), now),
                    Ok(true) => {
                        self.t0 = now;
                        let pcie = self.device.spec().pcie;
                        self.state = RecvBcastState::Setup {
                            resume_at: now + pcie.pin_setup_ns,
                        };
                    }
                },
                RecvBcastState::Setup { resume_at } => {
                    let r = *resume_at;
                    if now < r {
                        return Step::Park(Some(r));
                    }
                    self.post_chunk(now, actor);
                }
                RecvBcastState::AwaitChunk(recv) => {
                    // Forwards first: a forward failure poisons the whole
                    // collective on this rank.
                    let fwd_hint = match self.queue.drive(&self.inner, &mut self.ids, now, actor) {
                        Ok(h) => h,
                        Err((at, e)) => {
                            recv.cancel();
                            return self.settle(Err(e), at.max(now));
                        }
                    };
                    // The upstream process is the learned parent, or the
                    // root before the first chunk reveals one.
                    let parent = self.parent;
                    let upstream = parent.unwrap_or(self.root);
                    let noun = |dead: Option<Rank>| match (dead, parent) {
                        (Some(r), _) => format!("broadcast chunk from rank {r}"),
                        (None, Some(p)) => format!("broadcast chunk from {p}"),
                        (None, None) => "broadcast chunk from any".into(),
                    };
                    let r = match recv.step(
                        &self.inner,
                        &mut self.ids,
                        actor,
                        now,
                        &[upstream],
                        noun,
                    ) {
                        RecvStep::Arrived(r) => r,
                        RecvStep::Park(t) => return Step::Park(merge_hint(fwd_hint, t)),
                        RecvStep::Failed(e) => return self.settle(Err(e), now),
                    };
                    let msg = r.data;
                    if msg.is_empty() {
                        return self.settle(
                            Err(ClError::TransferFailed(
                                "broadcast chunk missing its algorithm header".into(),
                            )),
                            now,
                        );
                    }
                    if let Some(algo) = self.algo {
                        if algo.id() != msg[0] {
                            return self.settle(
                                Err(ClError::TransferFailed(format!(
                                    "broadcast algorithm id changed mid-stream ({} → {})",
                                    algo.id(),
                                    msg[0]
                                ))),
                                now,
                            );
                        }
                    } else {
                        let Some(algo) = CollAlgo::from_id(msg[0]) else {
                            return self.settle(
                                Err(ClError::TransferFailed(format!(
                                    "unknown broadcast algorithm id {}",
                                    msg[0]
                                ))),
                                now,
                            );
                        };
                        self.algo = Some(algo);
                        self.parent = Some(r.status.source);
                        self.children = bcast_children(
                            algo,
                            self.root,
                            self.inner.comm.size(),
                            self.inner.comm.rank(),
                        );
                    }
                    let payload_len = msg.len() - 1;
                    if self.received + payload_len > self.size {
                        return self.settle(
                            Err(ClError::TransferFailed(format!(
                                "broadcast overflow: got {} bytes into a {}-byte region",
                                self.received + payload_len,
                                self.size
                            ))),
                            now,
                        );
                    }
                    if payload_len > 0 {
                        self.buf
                            .store(self.offset + self.received, &msg[1..])
                            .expect("range checked at enqueue");
                        let pcie = self.device.spec().pcie;
                        let h2d = self
                            .device
                            .h2d_link()
                            .reserve_duration(pcie.staged_ns(payload_len, true), now);
                        Stage::H2d.child(
                            &self.inner,
                            &mut self.ids,
                            h2d.start,
                            h2d.end,
                            payload_len as u64,
                        );
                        self.last_h2d_end = self.last_h2d_end.max(h2d.end);
                    }
                    // Store-and-forward: re-inject the verbatim wire
                    // message (header included, the received allocation
                    // itself) to every child now — while later chunks
                    // are still inbound.
                    for i in 0..self.children.len() {
                        let c = self.children[i];
                        self.queue.push(
                            ReliableChunkSend::new(
                                &self.inner,
                                c,
                                self.wire_tag,
                                msg.clone(),
                                now,
                                None,
                            ),
                            now,
                            format!("fwd[{}]→r{c}", self.chunk_idx),
                            "forward",
                        );
                    }
                    self.chunk_idx += 1;
                    self.received += payload_len;
                    if self.received >= self.size {
                        self.state = RecvBcastState::Drain;
                    } else {
                        self.post_chunk(now, actor);
                    }
                }
                RecvBcastState::Drain => {
                    match self.queue.drive(&self.inner, &mut self.ids, now, actor) {
                        Err((at, e)) => return self.settle(Err(e), at.max(now)),
                        Ok(Some(t)) => return Step::Park(Some(t)),
                        Ok(None) => {
                            self.state = RecvBcastState::Finish {
                                done_at: self.last_h2d_end.max(self.queue.done_at).max(now),
                            };
                        }
                    }
                }
                RecvBcastState::Finish { done_at } => {
                    let d = *done_at;
                    if now < d {
                        return Step::Park(Some(d));
                    }
                    return self.settle(Ok(()), d);
                }
            }
        }
    }
}

// ----------------------------------------------------------------------
// Ring reduction machine (allreduce and reduce-to-root)
// ----------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RingKind {
    Allreduce,
    ReduceToRoot(Rank),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RingPhase {
    ReduceScatter,
    Allgather,
}

/// The in-progress receive of one ring segment (possibly several wire
/// chunks; the receiver drains by byte count).
struct SegRecv {
    recv: ReliableChunkRecv,
    seg: usize,
    got: usize,
    data: Vec<u8>,
}

enum SegVerdict {
    /// Segment complete (fold charged); effective completion instant.
    Complete(SimNs),
    /// Still waiting; wake hint.
    Pending(Option<SimNs>),
    /// Receive failed permanently at the current instant.
    Fail(ClError),
}

/// Root-side state of the reduce-to-root segment gather: every other
/// rank streams its owned reduced segment; chunks are written straight
/// into a byte image of the full region.
struct GatherState {
    recv: ReliableChunkRecv,
    /// Bytes received so far per source (chunk offset within its
    /// segment).
    per_src: BTreeMap<Rank, usize>,
    got: usize,
    expect: usize,
    image: Vec<u8>,
}

/// `enqueue_allreduce_buffer` / `enqueue_reduce_buffer` as one machine:
/// d2h load → n−1 reduce-scatter rounds (send segment `(me−k) mod n` to
/// the successor, receive and fold segment `(me−k−1) mod n` from the
/// predecessor) → either n−1 allgather rounds + h2d store (allreduce)
/// or a segment gather to the root (reduce). Rounds are synchronous:
/// round *k+1*'s sends are armed no earlier than round *k*'s
/// completion, which is what makes the folded data available to
/// forward (a conservative but deterministic pipeline).
struct RingReduceOp {
    inner: Arc<Inner>,
    device: Device,
    buf: Buffer,
    offset: usize,
    count: usize,
    op: ReduceOp,
    kind: RingKind,
    wire_tag: Tag,
    user_tag: Tag,
    chunk: usize,
    report: bool,
    wait: Vec<Event>,
    ue: UserEvent,
    label: String,
    ids: ChildIds,
    submit_ns: SimNs,
    t0: SimNs,
    host: Vec<f64>,
    queue: SendQueue,
    state: RingState,
}

enum RingState {
    WaitDeps,
    /// The d2h load of the local contribution is crossing PCIe.
    Load {
        end: SimNs,
    },
    Round {
        phase: RingPhase,
        idx: usize,
        start: SimNs,
        recv: Option<SegRecv>,
        recv_done: Option<SimNs>,
    },
    /// Non-root reduce: the owned segment is streaming to the root.
    GatherSend,
    /// Root reduce: collecting every other rank's owned segment.
    GatherRoot {
        gs: Box<GatherState>,
    },
    /// The final h2d store is crossing PCIe.
    Store {
        end: SimNs,
    },
    Finish {
        done_at: SimNs,
    },
}

impl RingReduceOp {
    fn size(&self) -> usize {
        self.count * 8
    }

    fn prev(&self) -> Rank {
        let n = self.inner.comm.size();
        (self.inner.comm.rank() + n - 1) % n
    }

    fn settle(&mut self, outcome: ClResult<()>, at: SimNs) -> Step {
        let size = self.size() as u64;
        let me = self.inner.comm.rank();
        let (cat, name, peer, what, moved) = match self.kind {
            RingKind::Allreduce => (
                "op.allreduce",
                format!("allreduce#{}", self.user_tag),
                None,
                "allreduce",
                (size, size),
            ),
            RingKind::ReduceToRoot(root) => (
                "op.reduce",
                format!("reduce@{root}#{}", self.user_tag),
                Some(root),
                "reduce",
                if me == root { (0, size) } else { (size, 0) },
            ),
        };
        let key = CollKey(self.size(), self.inner.comm.size());
        let tuning = CollTuning {
            algo: CollAlgo::Ring,
            chunk: self.chunk,
        };
        let tuner = self.report.then_some(&self.inner.coll_allreduce);
        let elapsed = at.saturating_sub(self.t0);
        coll_feedback(&self.inner, tuner, what, key, tuning, &outcome, elapsed);
        let envelope = Envelope {
            cat,
            name,
            bytes: size,
            peer,
            tag: Some(self.wire_tag),
        };
        let report = Report {
            inner: &self.inner,
            ids: &self.ids,
            submit_ns: self.submit_ns,
            envelope,
            moved,
        };
        settle_op(NO_SLOT, Some(report), Some(&self.ue), outcome, at)
    }

    /// Arm round `idx` of `phase` starting at `start`: queue the send
    /// segment's chunks and post the receive for the inbound segment.
    fn begin_round(&mut self, phase: RingPhase, idx: usize, start: SimNs, actor: &Actor) {
        let n = self.inner.comm.size();
        let me = self.inner.comm.rank();
        let next = (me + 1) % n;
        let segs = seg_bounds(self.count, n);
        let (send_seg, recv_seg) = match phase {
            RingPhase::ReduceScatter => ((me + n - idx) % n, (me + 2 * n - idx - 1) % n),
            RingPhase::Allgather => ((me + n + 1 - idx) % n, (me + n - idx) % n),
        };
        let tagn = match phase {
            RingPhase::ReduceScatter => "rs",
            RingPhase::Allgather => "ag",
        };
        let (soff_el, slen_el) = segs[send_seg];
        if slen_el > 0 {
            let sdata = Payload::from(le_bytes(&self.host[soff_el..soff_el + slen_el]));
            for (k, &(coff, clen)) in chunk_layout(sdata.len(), self.chunk).iter().enumerate() {
                self.queue.push(
                    ReliableChunkSend::new(
                        &self.inner,
                        next,
                        self.wire_tag,
                        sdata.slice(coff..coff + clen),
                        start,
                        None,
                    ),
                    start,
                    format!("{tagn}[{idx}][{k}]→r{next}"),
                    "chunk",
                );
            }
        }
        let (_, rlen_el) = segs[recv_seg];
        let (recv, recv_done) = if rlen_el > 0 {
            let recv = ReliableChunkRecv::post(
                &self.inner,
                actor,
                Some(self.prev()),
                self.wire_tag,
                start,
            );
            (
                Some(SegRecv {
                    recv,
                    seg: recv_seg,
                    got: 0,
                    data: vec![0u8; rlen_el * 8],
                }),
                None,
            )
        } else {
            (None, Some(start))
        };
        self.state = RingState::Round {
            phase,
            idx,
            start,
            recv,
            recv_done,
        };
    }

    /// Drain as many wire chunks of the inbound segment as are ready at
    /// `now`; fold (reduce-scatter) or copy (allgather) when complete.
    fn drive_seg_recv(
        &mut self,
        sr: &mut SegRecv,
        phase: RingPhase,
        now: SimNs,
        actor: &Actor,
    ) -> SegVerdict {
        let prev = self.prev();
        loop {
            let noun = |_| format!("ring segment from rank {prev}");
            let r = match sr
                .recv
                .step(&self.inner, &mut self.ids, actor, now, &[prev], noun)
            {
                RecvStep::Arrived(r) => r,
                // The predecessor dead and nothing in flight: the ring is
                // broken, no segment chunk can ever arrive.
                RecvStep::Failed(e) => return SegVerdict::Fail(e),
                RecvStep::Park(t) => return SegVerdict::Pending(t),
            };
            if sr.got + r.data.len() > sr.data.len() {
                return SegVerdict::Fail(ClError::TransferFailed(format!(
                    "ring segment overflow: got {} bytes into a {}-byte segment",
                    sr.got + r.data.len(),
                    sr.data.len()
                )));
            }
            sr.data[sr.got..sr.got + r.data.len()].copy_from_slice(&r.data);
            sr.got += r.data.len();
            if sr.got == sr.data.len() {
                let n = self.inner.comm.size();
                let (off_el, len_el) = seg_bounds(self.count, n)[sr.seg];
                let vals: Vec<f64> = sr
                    .data
                    .chunks_exact(8)
                    .map(|b| f64::from_le_bytes(b.try_into().expect("8-byte chunks")))
                    .collect();
                return match phase {
                    RingPhase::ReduceScatter => {
                        self.op.fold(&mut self.host[off_el..off_el + len_el], &vals);
                        let fold_ns = (sr.got as f64 * 1e9 / REDUCE_BPS).round() as SimNs;
                        record_child(
                            &self.inner,
                            &mut self.ids,
                            "dev",
                            format!("reduce[{}]", sr.seg),
                            "reduce",
                            now,
                            now + fold_ns,
                            sr.got as u64,
                            true,
                        );
                        SegVerdict::Complete(now + fold_ns)
                    }
                    RingPhase::Allgather => {
                        self.host[off_el..off_el + len_el].copy_from_slice(&vals);
                        SegVerdict::Complete(now)
                    }
                };
            }
            // More wire chunks of this segment to come.
            sr.recv = ReliableChunkRecv::post(&self.inner, actor, Some(prev), self.wire_tag, now);
        }
    }

    /// The round is fully done (sends delivered, segment folded); move
    /// to the next round or the terminal phase.
    fn advance_round(&mut self, phase: RingPhase, idx: usize, at: SimNs, actor: &Actor) {
        let n = self.inner.comm.size();
        let me = self.inner.comm.rank();
        match phase {
            RingPhase::ReduceScatter if idx + 1 < n - 1 => {
                self.begin_round(RingPhase::ReduceScatter, idx + 1, at, actor);
            }
            RingPhase::ReduceScatter => {
                // Reduce-scatter done: this rank owns the fully reduced
                // segment (me+1) mod n.
                match self.kind {
                    RingKind::Allreduce => self.begin_round(RingPhase::Allgather, 0, at, actor),
                    RingKind::ReduceToRoot(root) if me == root => self.begin_gather_root(at, actor),
                    RingKind::ReduceToRoot(root) => {
                        let segs = seg_bounds(self.count, n);
                        let own = (me + 1) % n;
                        let (ooff, olen) = segs[own];
                        if olen > 0 {
                            let bytes = Payload::from(le_bytes(&self.host[ooff..ooff + olen]));
                            for (k, &(coff, clen)) in
                                chunk_layout(bytes.len(), self.chunk).iter().enumerate()
                            {
                                self.queue.push(
                                    ReliableChunkSend::new(
                                        &self.inner,
                                        root,
                                        self.wire_tag,
                                        bytes.slice(coff..coff + clen),
                                        at,
                                        None,
                                    ),
                                    at,
                                    format!("gather[{k}]→r{root}"),
                                    "chunk",
                                );
                            }
                        }
                        self.state = RingState::GatherSend;
                    }
                }
            }
            RingPhase::Allgather if idx + 1 < n - 1 => {
                self.begin_round(RingPhase::Allgather, idx + 1, at, actor);
            }
            RingPhase::Allgather => {
                let bytes = le_bytes(&self.host);
                self.begin_store(bytes, at);
            }
        }
    }

    /// Root side of reduce-to-root: collect every other rank's owned
    /// segment into a byte image of the region.
    fn begin_gather_root(&mut self, at: SimNs, actor: &Actor) {
        let n = self.inner.comm.size();
        let me = self.inner.comm.rank();
        let segs = seg_bounds(self.count, n);
        let own = (me + 1) % n;
        let expect = (self.count - segs[own].1) * 8;
        if expect == 0 {
            // Degenerate split: every foreign segment is empty.
            let bytes = le_bytes(&self.host);
            self.begin_store(bytes, at);
            return;
        }
        let image = le_bytes(&self.host);
        let recv = ReliableChunkRecv::post(&self.inner, actor, None, self.wire_tag, at);
        self.state = RingState::GatherRoot {
            gs: Box::new(GatherState {
                recv,
                per_src: BTreeMap::new(),
                got: 0,
                expect,
                image,
            }),
        };
    }

    /// Write the final region bytes to the device: buffer store plus one
    /// h2d staging reservation.
    fn begin_store(&mut self, bytes: Vec<u8>, at: SimNs) {
        self.buf
            .store(self.offset, &bytes)
            .expect("range checked at enqueue");
        let pcie = self.device.spec().pcie;
        let h2d = self
            .device
            .h2d_link()
            .reserve_duration(pcie.staged_ns(bytes.len(), true), at);
        Stage::H2d.child(
            &self.inner,
            &mut self.ids,
            h2d.start,
            h2d.end,
            bytes.len() as u64,
        );
        self.state = RingState::Store { end: h2d.end };
    }
}

impl EngineOp for RingReduceOp {
    fn label(&self) -> &str {
        &self.label
    }

    fn step(&mut self, now: SimNs, actor: &Actor) -> Step {
        loop {
            match &mut self.state {
                RingState::WaitDeps => match deps_ready(&self.wait) {
                    Ok(false) => return Step::Park(None),
                    Err(e) => return self.settle(Err(e), now),
                    Ok(true) => {
                        self.t0 = now;
                        let n = self.inner.comm.size();
                        if n == 1 || self.count == 0 {
                            // Identity reduction: the local contribution
                            // is already the result, in place.
                            self.state = RingState::Finish { done_at: now };
                            continue;
                        }
                        let bytes = self
                            .buf
                            .load(self.offset, self.size())
                            .expect("range checked at enqueue");
                        self.host = bytes
                            .chunks_exact(8)
                            .map(|b| f64::from_le_bytes(b.try_into().expect("8-byte chunks")))
                            .collect();
                        let sz = self.size() as u64;
                        let pcie = self.device.spec().pcie;
                        let d2h = self.device.d2h_link().reserve_duration(
                            pcie.staged_ns(self.size(), true),
                            now + pcie.pin_setup_ns,
                        );
                        Stage::D2h.child(&self.inner, &mut self.ids, d2h.start, d2h.end, sz);
                        self.state = RingState::Load { end: d2h.end };
                    }
                },
                RingState::Load { end } => {
                    let e = *end;
                    if now < e {
                        return Step::Park(Some(e));
                    }
                    self.begin_round(RingPhase::ReduceScatter, 0, e.max(now), actor);
                }
                RingState::Round {
                    phase,
                    idx,
                    start,
                    recv,
                    recv_done,
                } => {
                    let (phase, idx, start) = (*phase, *idx, *start);
                    // Take the pending receive out of the state so the
                    // fold can borrow host/op/ids freely.
                    let mut pending = recv.take();
                    let mut recv_done = *recv_done;
                    let send_hint = match self.queue.drive(&self.inner, &mut self.ids, now, actor) {
                        Ok(h) => h,
                        Err((at, e)) => {
                            if let Some(sr) = &mut pending {
                                sr.recv.cancel();
                            }
                            return self.settle(Err(e), at.max(now));
                        }
                    };
                    let mut recv_hint = None;
                    if let Some(mut sr) = pending.take() {
                        match self.drive_seg_recv(&mut sr, phase, now, actor) {
                            SegVerdict::Complete(at) => recv_done = Some(at),
                            SegVerdict::Pending(hint) => {
                                recv_hint = hint;
                                pending = Some(sr);
                            }
                            SegVerdict::Fail(e) => return self.settle(Err(e), now),
                        }
                    }
                    if let RingState::Round {
                        recv,
                        recv_done: rd,
                        ..
                    } = &mut self.state
                    {
                        *recv = pending;
                        *rd = recv_done;
                    }
                    if self.queue.is_empty() {
                        if let Some(rd) = recv_done {
                            let round_end = rd.max(self.queue.done_at).max(start);
                            if now < round_end {
                                return Step::Park(Some(round_end));
                            }
                            self.advance_round(phase, idx, round_end.max(now), actor);
                            continue;
                        }
                    }
                    return Step::Park(merge_hint(send_hint, recv_hint));
                }
                RingState::GatherSend => {
                    match self.queue.drive(&self.inner, &mut self.ids, now, actor) {
                        Err((at, e)) => return self.settle(Err(e), at.max(now)),
                        Ok(Some(t)) => return Step::Park(Some(t)),
                        Ok(None) => {
                            // MPI_Reduce semantics: a non-root buffer is
                            // left untouched — no device store.
                            self.state = RingState::Finish {
                                done_at: self.queue.done_at.max(now),
                            };
                        }
                    }
                }
                RingState::GatherRoot { gs } => {
                    // The contributors whose segment is still incomplete:
                    // a dead one can never finish the gather.
                    let n = self.inner.comm.size();
                    let me = self.inner.comm.rank();
                    let segs = seg_bounds(self.count, n);
                    let missing: Vec<Rank> = (0..n)
                        .filter(|&r| {
                            let len = segs[(r + 1) % n].1 * 8;
                            r != me && len > 0 && gs.per_src.get(&r).copied().unwrap_or(0) < len
                        })
                        .collect();
                    let noun = |_| "reduce gather".to_string();
                    let r =
                        match gs
                            .recv
                            .step(&self.inner, &mut self.ids, actor, now, &missing, noun)
                        {
                            RecvStep::Arrived(r) => r,
                            RecvStep::Park(t) => return Step::Park(t),
                            RecvStep::Failed(e) => return self.settle(Err(e), now),
                        };
                    let src = r.status.source;
                    let (off_el, len_el) = segs[(src + 1) % n];
                    let within = gs.per_src.entry(src).or_insert(0);
                    if *within + r.data.len() > len_el * 8 {
                        let got = *within + r.data.len();
                        return self.settle(
                            Err(ClError::TransferFailed(format!(
                                "reduce gather overflow from rank {src}: {got} bytes \
                                 into a {}-byte segment",
                                len_el * 8
                            ))),
                            now,
                        );
                    }
                    let base = off_el * 8 + *within;
                    gs.image[base..base + r.data.len()].copy_from_slice(&r.data);
                    *within += r.data.len();
                    gs.got += r.data.len();
                    if gs.got == gs.expect {
                        let fold_ns = (gs.expect as f64 * 1e9 / REDUCE_BPS).round() as SimNs;
                        let bytes = std::mem::take(&mut gs.image);
                        record_child(
                            &self.inner,
                            &mut self.ids,
                            "dev",
                            "reduce[gather]".into(),
                            "reduce",
                            now,
                            now + fold_ns,
                            bytes.len() as u64,
                            true,
                        );
                        self.begin_store(bytes, now + fold_ns);
                        continue;
                    }
                    gs.recv = ReliableChunkRecv::post(&self.inner, actor, None, self.wire_tag, now);
                }
                RingState::Store { end } => {
                    let e = *end;
                    if now < e {
                        return Step::Park(Some(e));
                    }
                    self.state = RingState::Finish {
                        done_at: e.max(self.queue.done_at),
                    };
                }
                RingState::Finish { done_at } => {
                    let d = *done_at;
                    if now < d {
                        return Step::Park(Some(d));
                    }
                    return self.settle(Ok(()), d);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Walk the topology from the root; every rank must be reached
    /// exactly once (spanning tree over the world).
    fn assert_spanning(algo: CollAlgo, root: Rank, n: usize) {
        let mut seen = vec![false; n];
        let mut queue = vec![root];
        seen[root] = true;
        while let Some(r) = queue.pop() {
            for c in bcast_children(algo, root, n, r) {
                assert!(c < n, "{algo:?} n={n} root={root}: child {c} out of range");
                assert!(
                    !seen[c],
                    "{algo:?} n={n} root={root}: rank {c} has two parents"
                );
                seen[c] = true;
                queue.push(c);
            }
        }
        assert!(
            seen.iter().all(|&s| s),
            "{algo:?} n={n} root={root}: not all ranks reached: {seen:?}"
        );
    }

    #[test]
    fn every_topology_spans_every_world_and_root() {
        for n in [1, 2, 3, 5, 8, 13] {
            for root in 0..n {
                for algo in [CollAlgo::Flat, CollAlgo::Tree, CollAlgo::Ring] {
                    assert_spanning(algo, root, n);
                }
            }
        }
    }

    #[test]
    fn binomial_children_match_hand_check_for_five_ranks() {
        // n=5, root=0: 0→{4,2,1}, 2→{3}, leaves elsewhere.
        assert_eq!(bcast_children(CollAlgo::Tree, 0, 5, 0), vec![4, 2, 1]);
        assert_eq!(bcast_children(CollAlgo::Tree, 0, 5, 2), vec![3]);
        assert!(bcast_children(CollAlgo::Tree, 0, 5, 1).is_empty());
        assert!(bcast_children(CollAlgo::Tree, 0, 5, 3).is_empty());
        assert!(bcast_children(CollAlgo::Tree, 0, 5, 4).is_empty());
    }

    #[test]
    fn ring_chain_stops_before_the_root() {
        assert_eq!(bcast_children(CollAlgo::Ring, 2, 4, 2), vec![3]);
        assert_eq!(bcast_children(CollAlgo::Ring, 2, 4, 3), vec![0]);
        assert_eq!(bcast_children(CollAlgo::Ring, 2, 4, 0), vec![1]);
        assert!(bcast_children(CollAlgo::Ring, 2, 4, 1).is_empty());
        assert!(bcast_children(CollAlgo::Ring, 0, 1, 0).is_empty());
    }

    #[test]
    fn seg_bounds_cover_exactly_with_leading_remainder() {
        assert_eq!(seg_bounds(10, 3), vec![(0, 4), (4, 3), (7, 3)]);
        assert_eq!(seg_bounds(2, 4), vec![(0, 1), (1, 1), (2, 0), (2, 0)]);
        for (count, n) in [(0, 3), (1, 13), (1023, 5), (4096, 8)] {
            let segs = seg_bounds(count, n);
            assert_eq!(segs.len(), n);
            let total: usize = segs.iter().map(|s| s.1).sum();
            assert_eq!(total, count);
            let mut off = 0;
            for &(o, l) in &segs {
                assert_eq!(o, off);
                off += l;
            }
        }
    }

    #[test]
    fn algo_ids_round_trip() {
        for algo in [CollAlgo::Flat, CollAlgo::Tree, CollAlgo::Ring] {
            assert_eq!(CollAlgo::from_id(algo.id()), Some(algo));
        }
        assert_eq!(CollAlgo::from_id(0), None);
        assert_eq!(CollAlgo::from_id(99), None);
    }

    #[test]
    fn default_tuning_picks_flat_tree_ring_by_shape() {
        let cfg = SystemConfig::ricc();
        assert_eq!(default_bcast_tuning(&cfg, 64 << 20, 2).algo, CollAlgo::Flat);
        assert_eq!(default_bcast_tuning(&cfg, 4 << 10, 8).algo, CollAlgo::Tree);
        assert_eq!(default_bcast_tuning(&cfg, 42 << 20, 8).algo, CollAlgo::Ring);
        // The ring chunk shrinks with world size so every link streams
        // several chunks — a single-chunk ring is a serial relay.
        let t = default_bcast_tuning(&cfg, 2 << 20, 4);
        assert_eq!(t.algo, CollAlgo::Ring);
        assert!(
            t.chunk * 4 <= 2 << 20,
            "ring chunk {} must pipeline a 2 MiB payload",
            t.chunk
        );
        assert!(t.chunk >= 64 << 10);
    }
}
