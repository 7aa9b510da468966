//! The virtual clock, actor registration, and keyed wake-ups.
//!
//! See the crate docs for the model. Implementation notes:
//!
//! * One `Mutex<ClockState>` holds the advancement bookkeeping, so the
//!   advancement invariant stays auditable in one place. Wake-ups are
//!   *keyed*: worlds of hundreds of rank threads cannot afford to wake
//!   every blocked actor on every cross-actor state change.
//! * Every [`crate::Monitor`] (and so every channel, barrier, mailbox and
//!   request slot) owns a [`WaitKey`]. While an actor evaluates its
//!   [`Actor::wait_until`] predicate, each key the predicate reads is
//!   recorded in a per-thread read set, and the actor blocks on exactly
//!   that set. A mutation notifies the monitor's key, which wakes only
//!   the waiters holding it. Every actor also owns a key that is always in its read set,
//!   so a timer it arms for itself ([`SimClock::schedule_alarm_for`] with
//!   [`Actor::key`]) wakes it alone.
//! * Alarms carry a target: a key, a deferred [`Arbiter`], or nobody in
//!   particular. An arbiter's grants run when its alarm fires, before any
//!   actor resumes at that instant, so every job due at an instant is
//!   granted at that instant whichever waiters a key happens to wake.
//! * [`SimClock::notify`] and [`SimClock::schedule_alarm`] stay as the
//!   unkeyed fallback: they wake every blocked actor. Waiters whose
//!   predicate read no key sleep on one shared condvar, so the fallback
//!   costs one broadcast; keyed waiters and sleepers park on their own
//!   condvars and are signalled one by one.
//! * `runnable` counts actors executing user code. When it reaches zero
//!   together with `pending_wakes` (sleepers released, not yet resumed)
//!   and `recheck_pending` (waiters woken, not yet re-evaluated), the
//!   decrementing thread advances the clock to the earliest pending
//!   target. Conservative advance stays exact because the clock moves
//!   only when no woken waiter is still pending: every waiter whose
//!   inputs changed at an instant re-evaluates at that instant.
//! * Lost-wakeup freedom: a waiter snapshots the generation `gen` before
//!   evaluating. Every notification bumps `gen` and stamps the notified
//!   key with it; a waiter about to block re-evaluates instead if a key
//!   of its read set, or the fallback, was stamped after its snapshot.
//! * Debug builds audit every instant: before the clock leaves it, each
//!   blocked waiter not already woken re-evaluates once. An audit
//!   evaluation that succeeds or notifies a key reveals a missed wake-up
//!   and panics with the wait label and the instant.

use crate::plock::{Condvar, Mutex, MutexGuard};
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::Duration;

use crate::sched::{self, ExecMode, MachineHandle, SchedPool, ShardState, SimActor};
use crate::SimNs;

/// What an actor is doing right now; shown in deadlock diagnostics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ActorStatus {
    /// Executing user code (counts towards `runnable`).
    Running,
    /// Sleeping in [`Actor::advance`] until the given virtual instant.
    Sleeping(SimNs),
    /// Blocked in [`Actor::wait_until`] on the described predicate.
    Blocked(&'static str),
}

/// A wake-up source: the identity of a piece of cross-actor state.
///
/// Reading the state inside a wait predicate records the key in the
/// predicate's read set; changing it notifies the key. [`crate::Monitor`]
/// does both for every access, so code built on the [`crate::sync`]
/// primitives never handles keys except to aim an alarm
/// ([`SimClock::schedule_alarm_for`] with [`crate::Monitor::key`] or
/// [`Actor::key`]). Cloning yields the same key.
#[derive(Clone)]
pub struct WaitKey(Arc<KeyCell>);

#[derive(Default)]
struct KeyCell {
    /// Clock generation of the latest notification through this key.
    stamped: AtomicU64,
    /// The actor whose own key this is: it is the only waiter ever
    /// holding it, so it is woken directly instead of through the
    /// clock's waiter index.
    owner: Option<u64>,
}

impl WaitKey {
    /// A fresh key, distinct from every other.
    pub(crate) fn new() -> Self {
        WaitKey(Arc::new(KeyCell::default()))
    }

    fn owned_by(actor: u64) -> Self {
        WaitKey(Arc::new(KeyCell {
            stamped: AtomicU64::new(0),
            owner: Some(actor),
        }))
    }

    fn id(&self) -> usize {
        Arc::as_ptr(&self.0) as usize
    }

    /// Add this key to the read set of the wait predicate the current
    /// thread is evaluating (a no-op outside predicate evaluation).
    pub(crate) fn record(&self) {
        READ_SET.with(|r| {
            if let Some(set) = r.borrow_mut().as_mut() {
                set.push(self.clone());
            }
        });
    }
}

thread_local! {
    /// Keys read by the predicate this thread is evaluating, if any.
    static READ_SET: RefCell<Option<Vec<WaitKey>>> = const { RefCell::new(None) };
    /// Notifications issued by this thread (the debug audit's witness).
    #[cfg(debug_assertions)]
    static NOTIFIED: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Run `f` with reads recorded into `keys` (restored even if `f` panics).
fn recording<R>(keys: &mut Vec<WaitKey>, f: impl FnOnce() -> R) -> R {
    struct Restore<'a> {
        keys: &'a mut Vec<WaitKey>,
        prev: Option<Vec<WaitKey>>,
    }
    impl Drop for Restore<'_> {
        fn drop(&mut self) {
            if let Some(set) = READ_SET.with(|r| r.replace(self.prev.take())) {
                *self.keys = set;
            }
        }
    }
    let prev = READ_SET.with(|r| r.replace(Some(std::mem::take(keys))));
    let _restore = Restore { keys, prev };
    f()
}

fn count_notify() {
    #[cfg(debug_assertions)]
    NOTIFIED.with(|n| n.set(n.get() + 1));
}

/// A deferred arbiter driven by the clock. [`SimClock::schedule_grant`]
/// arms an alarm; when it fires, the clock calls [`Arbiter::grant`] with
/// the alarm instant before any actor resumes there.
pub trait Arbiter: Send + Sync {
    /// Grant every job due strictly before `now`. Must not block; may
    /// mutate monitors, notify keys and schedule alarms.
    fn grant(&self, now: SimNs);
}

/// Whom an alarm wakes when it fires.
enum AlarmTarget {
    /// Every blocked actor (the unkeyed fallback).
    All,
    /// The waiters holding this key.
    Key(WaitKey),
    /// An arbiter's due grants. Weak: arbiters hold monitors, which hold
    /// the clock, so a strong reference from a stale alarm would leak
    /// both.
    Grant(Weak<dyn Arbiter>),
}

struct ActorInfo {
    label: String,
    status: ActorStatus,
    /// The actor's own condvar (keyed waits and sleeps).
    cv: Arc<Condvar>,
    /// Set by whoever releases the actor from a sleep or a blocked wait.
    woken: bool,
    /// Blocked on the shared condvar: the predicate read no key but the
    /// actor's own.
    shared_cv: bool,
    /// This release is an audit re-evaluation (debug builds).
    audit: bool,
}

impl ActorInfo {
    /// Release a blocked, not yet woken waiter. Returns whether it waits
    /// on the shared condvar (`None`: nothing to release).
    fn release(&mut self, audit: bool) -> Option<bool> {
        if self.woken || !matches!(self.status, ActorStatus::Blocked(_)) {
            return None;
        }
        self.woken = true;
        self.audit = audit;
        if !self.shared_cv {
            self.cv.notify_one();
        }
        Some(self.shared_cv)
    }
}

#[derive(Default)]
struct ClockState {
    now: SimNs,
    /// `ClockInner::gen` of the latest unkeyed (wake-everyone)
    /// notification.
    fallback_gen: u64,
    /// Actors currently executing user code.
    runnable: usize,
    /// Sleepers the clock has released that have not yet resumed.
    pending_wakes: usize,
    /// Blocked waiters that have been woken but have not yet been
    /// scheduled to re-evaluate their predicates. While nonzero the clock
    /// must not advance and a deadlock must not be declared.
    recheck_pending: usize,
    /// Actors blocked in `wait_until`.
    blocked: usize,
    /// Set while the clock runs arbiter grants with its lock released.
    granting: bool,
    /// Notifications issued by those grants, held back until the whole
    /// grant pass is done (`held_all`: an unkeyed one).
    held: Vec<WaitKey>,
    held_all: bool,
    /// (wake_time, unique_seq, actor) per sleeping actor.
    sleepers: BinaryHeap<Reverse<(SimNs, u64, u64)>>,
    /// Thread-less wake-up targets by instant (e.g. "a message becomes
    /// visible at t").
    alarms: BTreeMap<SimNs, Vec<AlarmTarget>>,
    /// Blocked actors by the id of each key in their read sets.
    waiters: BTreeMap<usize, Vec<u64>>,
    /// Waiter releases through a key, and through the fallback.
    keyed_wakes: u64,
    fallback_wakes: u64,
    /// The instant whose blocked waiters were last audited.
    #[cfg(debug_assertions)]
    audited_at: Option<SimNs>,
    next_seq: u64,
    next_actor: u64,
    /// Registered actors by id. A `BTreeMap` so that any iteration (the
    /// deadlock report) is in deterministic id order by construction.
    actors: BTreeMap<u64, ActorInfo>,
    /// Set when a registered actor panics or a deadlock is detected, so
    /// every other actor unblocks and fails fast instead of hanging.
    poisoned: bool,
}

struct ClockInner {
    state: Mutex<ClockState>,
    /// Bumped (under `state`) by every notification, keyed or not. Read
    /// without the lock as a waiter's pre-evaluation snapshot.
    gen: AtomicU64,
    /// Shared condvar of waiters that read no key.
    cv: Condvar,
    /// How spawned machines execute ([`SimClock::spawn_machine`]).
    mode: ExecMode,
    /// Event-mode shard pool (empty queues in thread mode).
    pool: SchedPool,
    /// Machine state transitions observed by the scheduler cores, for the
    /// simulator self-throughput metric (events/sec). Deterministic for a
    /// fixed scenario: only actual transitions count, never idle re-polls.
    events: AtomicU64,
}

impl ClockInner {
    /// Advance the notification generation (under the state lock, so
    /// stamps and `fallback_gen` are totally ordered with it).
    fn bump_gen(&self) -> u64 {
        self.gen.fetch_add(1, Ordering::AcqRel) + 1
    }

    /// Wake the waiters holding `key`.
    fn notify_key_locked(&self, st: &mut ClockState, key: &WaitKey) {
        let gen = self.bump_gen();
        key.0.stamped.store(gen, Ordering::Relaxed);
        if st.granting {
            st.held.push(key.clone());
            return;
        }
        // Every listed waiter is blocked: those not yet woken are woken
        // now, the rest are about to deregister. So the entry goes.
        let ids = match key.0.owner {
            Some(id) => vec![id],
            None => match st.waiters.remove(&key.id()) {
                Some(ids) => ids,
                None => return,
            },
        };
        let mut broadcast = false;
        for id in ids {
            if let Some(shared) = st.actors.get_mut(&id).and_then(|a| a.release(false)) {
                broadcast |= shared;
                st.recheck_pending += 1;
                st.keyed_wakes += 1;
            }
        }
        if broadcast {
            self.cv.notify_all();
        }
    }

    /// Release every blocked waiter not already woken; returns how many.
    fn release_all(&self, st: &mut ClockState, audit: bool) -> usize {
        let mut n = 0;
        let mut broadcast = false;
        for a in st.actors.values_mut() {
            if let Some(shared) = a.release(audit) {
                broadcast |= shared;
                n += 1;
            }
        }
        st.recheck_pending += n;
        if broadcast {
            self.cv.notify_all();
        }
        n
    }

    /// The unkeyed fallback: every blocked actor re-evaluates.
    fn notify_all_locked(&self, st: &mut ClockState) {
        st.fallback_gen = self.bump_gen();
        if st.granting {
            st.held_all = true;
            return;
        }
        let n = self.release_all(st, false);
        st.fallback_wakes += n as u64;
    }

    /// Poison the clock and wake every actor so it fails fast.
    fn poison(&self, st: &mut ClockState) {
        st.poisoned = true;
        self.bump_gen();
        self.cv.notify_all();
        for a in st.actors.values() {
            a.cv.notify_all();
        }
    }

    /// Advance the clock if every actor is quiescent. Must be called by any
    /// path that decrements `runnable` (possibly) to zero. May release the
    /// lock while arbiter grants run.
    fn maybe_advance(&self, st: &mut MutexGuard<'_, ClockState>) {
        // Loop: an alarm may fire at an instant where no sleeper is due and
        // no waiter listens (e.g. a message arrives while its receiver is
        // off sleeping past it); the clock must then keep advancing to the
        // next target, because no other thread will re-drive it.
        loop {
            if st.runnable > 0 || st.pending_wakes > 0 || st.recheck_pending > 0 || st.granting {
                return;
            }
            #[cfg(debug_assertions)]
            if st.blocked > 0 && st.audited_at != Some(st.now) {
                st.audited_at = Some(st.now);
                if self.release_all(st, true) > 0 {
                    return; // audit evaluations re-drive the advance
                }
            }
            let next_sleep = st.sleepers.peek().map(|Reverse((t, _, _))| *t);
            // Alarms exist to re-check blocked predicate waiters. With
            // nobody blocked they must not *drive* the advance — a stale
            // alarm (e.g. a recv timeout satisfied early) would otherwise
            // drag the clock forward after the run's real work ended. They
            // stay queued: a sleeper may still wake and block on a
            // predicate whose wake-up is one of these alarms.
            let next_alarm = if st.blocked > 0 {
                st.alarms.keys().next().copied()
            } else {
                None
            };
            let target = match (next_sleep, next_alarm) {
                (Some(a), Some(b)) => a.min(b),
                (Some(a), None) => a,
                (None, Some(b)) => b,
                (None, None) => {
                    if st.blocked > 0 {
                        let report = self.render_actors(st);
                        self.poison(st);
                        panic!(
                            "simtime: deadlock — all {} blocked actor(s) wait on predicates and \
                             no sleeper or alarm can advance the clock past t={}:\n{report}",
                            st.blocked, st.now
                        );
                    }
                    return; // all actors exited; nothing to do
                }
            };
            debug_assert!(target >= st.now, "clock would move backwards");
            st.now = target;
            let mut grants: Vec<Arc<dyn Arbiter>> = Vec::new();
            let mut keys = Vec::new();
            let mut everyone = false;
            while let Some(e) = st.alarms.first_entry() {
                if *e.key() > target {
                    break;
                }
                for t in e.remove() {
                    match t {
                        AlarmTarget::All => everyone = true,
                        AlarmTarget::Key(k) => keys.push(k),
                        AlarmTarget::Grant(g) => grants.extend(g.upgrade()),
                    }
                }
            }
            // Grants first, as one atomic pass: nobody resumes at
            // `target` before every job due there is granted, and the
            // wake-ups the grants cause are held until the pass ends, so
            // no waiter ever observes half a grant batch (which waiter
            // sees which grant first would otherwise be a host race).
            if !grants.is_empty() {
                st.granting = true;
                st.unlocked(|| {
                    for g in &grants {
                        g.grant(target);
                    }
                });
                st.granting = false;
                keys.append(&mut st.held);
                everyone |= std::mem::take(&mut st.held_all);
            }
            while matches!(st.sleepers.peek(), Some(Reverse((t, _, _))) if *t <= target) {
                let Some(Reverse((_, _, id))) = st.sleepers.pop() else {
                    break;
                };
                if let Some(a) = st.actors.get_mut(&id) {
                    a.woken = true;
                    a.cv.notify_one();
                    st.pending_wakes += 1;
                }
            }
            for k in &keys {
                self.notify_key_locked(st, k);
            }
            if everyone {
                self.notify_all_locked(st);
            }
            // Woken threads (or the grant-woken ones still running) will
            // drive further progress; otherwise nobody was listening.
        }
    }

    fn render_actors(&self, st: &ClockState) -> String {
        let mut lines: Vec<String> = st
            .actors
            .values()
            .map(|a| format!("  {:<24} {:?}", a.label, a.status))
            .collect();
        lines.sort();
        if self.mode == ExecMode::Events {
            // Per-shard view: which machines each worker holds and the
            // earliest wake hint it has armed. `try_lock` because this
            // runs under the clock lock; at deadlock time every worker is
            // parked outside its shard lock, so contention means a bug
            // elsewhere and is reported rather than deadlocking the
            // reporter.
            for (i, shard) in self.pool.shards.iter().enumerate() {
                let Some(s) = shard.try_lock() else {
                    lines.push(format!("  shard {i}: <locked — worker mid-pass?>"));
                    continue;
                };
                if s.resident.is_empty() && s.incoming.is_empty() && !s.running {
                    continue;
                }
                let labels: Vec<&str> = s
                    .resident
                    .iter()
                    .chain(s.incoming.iter())
                    .map(|m| m.label.as_str())
                    .collect();
                let earliest = s
                    .resident
                    .iter()
                    .chain(s.incoming.iter())
                    .flat_map(|m| m.alarms.iter().copied())
                    .min();
                lines.push(format!(
                    "  shard {i}: {} resident + {} queued machine(s) [{}], earliest alarm {}",
                    s.resident.len(),
                    s.incoming.len(),
                    labels.join(", "),
                    match earliest {
                        Some(t) => format!("t={t}"),
                        None => "none".into(),
                    },
                ));
            }
        }
        lines.join("\n")
    }
}

/// A shared virtual clock. Cheap to clone (it is an `Arc` internally).
#[derive(Clone)]
pub struct SimClock {
    inner: Arc<ClockInner>,
}

impl Default for SimClock {
    fn default() -> Self {
        Self::new()
    }
}

impl SimClock {
    /// Create a new clock at virtual time zero with no registered actors.
    /// The execution mode for spawned machines comes from `SIM_EXEC_MODE`
    /// ([`ExecMode::from_env`]); use [`SimClock::with_mode`] to pin it.
    pub fn new() -> Self {
        Self::with_mode(ExecMode::from_env())
    }

    /// Create a new clock with an explicit machine execution mode.
    pub fn with_mode(mode: ExecMode) -> Self {
        SimClock {
            inner: Arc::new(ClockInner {
                state: Mutex::new(ClockState::default()),
                gen: AtomicU64::new(0),
                cv: Condvar::new(),
                mode,
                pool: SchedPool::new(sched::shard_count_from_env()),
                events: AtomicU64::new(0),
            }),
        }
    }

    /// How spawned machines execute on this clock.
    pub fn exec_mode(&self) -> ExecMode {
        self.inner.mode
    }

    /// Add `n` to the machine-transition counter (scheduler cores only).
    pub fn count_events(&self, n: u64) {
        self.inner.events.fetch_add(n, Ordering::Relaxed);
    }

    /// Machine state transitions observed so far (simulator
    /// self-throughput metric; deterministic for a fixed scenario).
    pub fn events(&self) -> u64 {
        self.inner.events.load(Ordering::Relaxed)
    }

    /// Blocked waiters released through a key (a keyed notification or
    /// a keyed alarm) so far.
    pub fn keyed_wakes(&self) -> u64 {
        self.inner.state.lock().keyed_wakes
    }

    /// Blocked waiters released through the unkeyed fallback
    /// ([`SimClock::notify`], [`SimClock::schedule_alarm`]) so far. Zero
    /// means no wait in the run depended on a wake-everyone path.
    pub fn fallback_wakes(&self) -> u64 {
        self.inner.state.lock().fallback_wakes
    }

    /// Access one event-mode shard (shard workers and diagnostics).
    pub(crate) fn shard(&self, i: usize) -> &Mutex<ShardState> {
        &self.inner.pool.shards[i]
    }

    /// The key a shard worker's pass reads and a spawn into it notifies.
    pub(crate) fn shard_key(&self, i: usize) -> &WaitKey {
        &self.inner.pool.keys[i]
    }

    /// Block (in real time) until the event-mode scheduler is fully
    /// quiescent: every shard's machine queues are empty and its worker
    /// has retired. A no-op in thread mode, where machines are joined by
    /// their owners' drop paths.
    ///
    /// Shard workers process machine shutdowns *asynchronously* after the
    /// spawning actors have exited: a queue's `Shutdown` transition and an
    /// engine's trailing drain — including their [`SimClock::count_events`]
    /// contributions and any final alarm-driven advance — may run after
    /// the owners dropped their handles. A reader that wants the complete
    /// [`SimClock::events`] total or the final [`SimClock::now_ns`] must
    /// quiesce first. Acquiring each shard lock orders the workers' last
    /// counted pass before the caller's subsequent reads.
    ///
    /// Preconditions: every spawned machine has been asked to shut down
    /// (its owner dropped), and the caller holds no registered actor —
    /// retiring machines may still need the clock to advance (trailing
    /// device reservations), which a runnable caller would stall.
    pub fn quiesce_machines(&self) {
        if self.exec_mode() != ExecMode::Events {
            return;
        }
        loop {
            let drained = self.inner.pool.shards.iter().all(|s| {
                let st = s.lock();
                st.resident.is_empty() && st.incoming.is_empty() && !st.running
            });
            if drained {
                return;
            }
            // Workers retire on their own (shutdown notifications are
            // already in flight, and blocked workers still drive the
            // clock through their scheduled alarms); the wait is a few
            // final shard passes, so yielding the OS slice is enough.
            std::thread::yield_now();
        }
    }

    /// Spawn a resumable machine according to this clock's [`ExecMode`].
    ///
    /// The caller must be a running clock actor (the registration
    /// ordering rule): the machine's executing actor — its own thread's
    /// in thread mode, its shard worker's in event mode — is registered
    /// here, before any thread spawns. The machine's first poll happens
    /// at the caller's current virtual instant.
    ///
    /// `hint` selects the event-mode shard (`hint % shards`); it must be
    /// a host-independent value (a rank, a label hash) so machine
    /// placement is reproducible. Machines must never spawn further
    /// machines from inside `poll` — the executing shard holds its own
    /// lock across the pass.
    pub fn spawn_machine(
        &self,
        hint: u64,
        label: impl Into<String>,
        body: Box<dyn SimActor>,
    ) -> MachineHandle {
        let label = label.into();
        match self.exec_mode() {
            ExecMode::Threads => {
                let actor = self.register(label.clone());
                let handle = std::thread::Builder::new()
                    .name(label)
                    .spawn(move || sched::run_on_thread(actor, body))
                    .expect("spawn machine thread");
                MachineHandle::thread(handle)
            }
            ExecMode::Events => {
                let shards = self.inner.pool.shards.len();
                let shard = (hint % shards as u64) as usize;
                let needs_worker = {
                    let mut st = self.shard(shard).lock();
                    st.incoming.push(sched::Slot::new(label, body));
                    !std::mem::replace(&mut st.running, true)
                };
                if needs_worker {
                    let actor = self.register(format!("sched:shard{shard}"));
                    let clock = self.clone();
                    std::thread::Builder::new()
                        .name(format!("sim-shard{shard}"))
                        .spawn(move || sched::shard_worker(actor, clock, shard))
                        .expect("spawn shard worker");
                }
                // An already-parked worker re-polls only on notification.
                self.notify_key(self.shard_key(shard));
                MachineHandle::event()
            }
        }
    }

    /// Register a new actor. The returned handle **must** live on exactly
    /// one thread at a time.
    ///
    /// **Registration ordering rule:** an actor must be registered while at
    /// least one already-registered actor (or the registering thread, if it
    /// holds an actor) is still runnable — in practice: register *all*
    /// top-level actors before spawning any of their threads, and have
    /// running actors register their children before starting them.
    /// Otherwise the clock may advance before the newcomer is accounted
    /// for.
    pub fn register(&self, label: impl Into<String>) -> Actor {
        let mut st = self.inner.state.lock();
        let id = st.next_actor;
        st.next_actor += 1;
        st.runnable += 1;
        st.actors.insert(
            id,
            ActorInfo {
                label: label.into(),
                status: ActorStatus::Running,
                cv: Arc::new(Condvar::new()),
                woken: false,
                shared_cv: false,
                audit: false,
            },
        );
        Actor {
            clock: self.clone(),
            id,
            key: WaitKey::owned_by(id),
        }
    }

    /// Current virtual time in nanoseconds.
    pub fn now_ns(&self) -> SimNs {
        self.inner.state.lock().now
    }

    /// The unkeyed fallback: every blocked actor re-evaluates its
    /// predicate. State kept in a [`crate::Monitor`] needs no call at
    /// all: its mutations wake only its readers.
    pub fn notify(&self) {
        count_notify();
        let mut st = self.inner.state.lock();
        self.inner.notify_all_locked(&mut st);
    }

    /// Announce that the state behind `key` changed: the blocked actors
    /// whose predicates read it re-evaluate. Called by every
    /// [`crate::Monitor`] mutation.
    pub(crate) fn notify_key(&self, key: &WaitKey) {
        count_notify();
        let mut st = self.inner.state.lock();
        self.inner.notify_key_locked(&mut st, key);
    }

    /// Unkeyed thread-less wake-up: at virtual time `at`, every blocked
    /// actor re-evaluates. If `at` is not in the future this is just
    /// [`SimClock::notify`]. Prefer [`SimClock::schedule_alarm_for`].
    pub fn schedule_alarm(&self, at: SimNs) {
        let mut st = self.inner.state.lock();
        if at <= st.now {
            count_notify();
            self.inner.notify_all_locked(&mut st);
        } else {
            st.alarms.entry(at).or_default().push(AlarmTarget::All);
        }
    }

    /// Schedule a thread-less wake-up for the readers of `key`: at virtual
    /// time `at` they re-evaluate. Use this when an *event in the future*
    /// (e.g. a message arrival) may unblock a waiter, but no thread will
    /// be sleeping until then; pass [`Actor::key`] for a timer that only
    /// the arming actor waits on. If `at` is not in the future the key's
    /// readers are woken at once.
    pub fn schedule_alarm_for(&self, at: SimNs, key: &WaitKey) {
        let mut st = self.inner.state.lock();
        if at <= st.now {
            count_notify();
            self.inner.notify_key_locked(&mut st, key);
            return;
        }
        let targets = st.alarms.entry(at).or_default();
        let dup = targets
            .iter()
            .any(|t| matches!(t, AlarmTarget::Key(k) if k.id() == key.id()));
        if !dup {
            targets.push(AlarmTarget::Key(key.clone()));
        }
    }

    /// Have the clock call `arbiter.grant(at)` once virtual time reaches
    /// `at`, before any actor resumes at that instant. The alarm drives
    /// the clock like any other while some actor is blocked; when the
    /// clock jumps past `at` instead, the grant runs at the instant it
    /// lands on. An `at` not in the future grants at once.
    pub fn schedule_grant(&self, at: SimNs, arbiter: Arc<dyn Arbiter>) {
        let mut st = self.inner.state.lock();
        if at <= st.now {
            let now = st.now;
            drop(st);
            arbiter.grant(now);
            return;
        }
        let arbiter = Arc::downgrade(&arbiter);
        let targets = st.alarms.entry(at).or_default();
        let dup = targets
            .iter()
            .any(|t| matches!(t, AlarmTarget::Grant(g) if Weak::ptr_eq(g, &arbiter)));
        if !dup {
            targets.push(AlarmTarget::Grant(arbiter));
        }
    }

    /// Number of currently registered actors (diagnostics / tests).
    pub fn actor_count(&self) -> usize {
        self.inner.state.lock().actors.len()
    }

    /// True once the clock has been poisoned by a panicking actor or a
    /// detected deadlock.
    pub fn is_poisoned(&self) -> bool {
        self.inner.state.lock().poisoned
    }

    fn check_poison(st: &ClockState) {
        if st.poisoned {
            panic!("simtime: clock poisoned by a panicking actor or detected deadlock");
        }
    }
}

/// A participant in virtual time. Obtain via [`SimClock::register`].
///
/// Dropping an `Actor` deregisters it; if the owning thread is panicking,
/// the clock is poisoned so every other actor fails fast.
pub struct Actor {
    clock: SimClock,
    id: u64,
    key: WaitKey,
}

impl Actor {
    /// The clock this actor is registered with.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// This actor's own wake-up key. It is in the read set of every
    /// predicate the actor waits on, so an alarm scheduled for it
    /// ([`SimClock::schedule_alarm_for`]) wakes this actor alone.
    pub fn key(&self) -> &WaitKey {
        &self.key
    }

    /// Current virtual time in nanoseconds.
    pub fn now_ns(&self) -> SimNs {
        self.clock.now_ns()
    }

    /// Spend `d` of virtual time (simulated computation or I/O).
    pub fn advance(&self, d: Duration) {
        self.advance_ns(crate::dur_ns(d));
    }

    /// Spend `ns` virtual nanoseconds.
    pub fn advance_ns(&self, ns: SimNs) {
        if ns == 0 {
            return;
        }
        let inner = &self.clock.inner;
        let mut st = inner.state.lock();
        SimClock::check_poison(&st);
        let wake = st.now + ns;
        let seq = st.next_seq;
        st.next_seq += 1;
        st.sleepers.push(Reverse((wake, seq, self.id)));
        st.runnable -= 1;
        let cv = self.info(&mut st).map(|a| {
            a.status = ActorStatus::Sleeping(wake);
            a.cv.clone()
        });
        inner.maybe_advance(&mut st);
        while !st.poisoned && !self.info(&mut st).is_some_and(|a| a.woken) {
            if let Some(cv) = &cv {
                cv.wait(&mut st);
            }
        }
        // Our sleeper entry may or may not have been consumed if poisoned;
        // the run is aborting anyway.
        SimClock::check_poison(&st);
        st.pending_wakes -= 1;
        st.runnable += 1;
        if let Some(a) = self.info(&mut st) {
            a.woken = false;
            a.status = ActorStatus::Running;
        }
    }

    fn info<'a>(&self, st: &'a mut ClockState) -> Option<&'a mut ActorInfo> {
        st.actors.get_mut(&self.id)
    }

    /// Advance to absolute virtual time `t` (no-op if already past it).
    pub fn advance_until(&self, t: SimNs) {
        let now = self.now_ns();
        if t > now {
            self.advance_ns(t - now);
        }
    }

    /// Block until `pred` returns `Some`, re-evaluating whenever a monitor
    /// the predicate read changes ([`crate::sync`]), on the fallback
    /// [`SimClock::notify`], and when an alarm for one of the keys it read
    /// (or for [`Actor::key`]) fires. The predicate is
    /// evaluated **without** the clock lock held, so it may freely take
    /// other locks.
    pub fn wait_until<T>(&self, pred: impl FnMut() -> Option<T>) -> T {
        self.wait_until_labeled("<predicate>", pred)
    }

    /// [`Actor::wait_until`] with a label shown in deadlock diagnostics.
    pub fn wait_until_labeled<T>(
        &self,
        label: &'static str,
        mut pred: impl FnMut() -> Option<T>,
    ) -> T {
        let inner = &self.clock.inner;
        let mut keys: Vec<WaitKey> = Vec::new();
        let mut audit = false;
        loop {
            // No lock needed: a change the predicate misses is notified
            // after this load, so its stamp exceeds the snapshot.
            let gen = inner.gen.load(Ordering::Acquire);
            keys.clear();
            keys.push(self.key.clone());
            #[cfg(debug_assertions)]
            let notified = NOTIFIED.with(|n| n.get());
            let out = recording(&mut keys, &mut pred);
            #[cfg(debug_assertions)]
            if audit && (out.is_some() || NOTIFIED.with(|n| n.get()) != notified) {
                panic!(
                    "simtime: missed wake-up — `{label}` progressed at t={} although none \
                     of the keys it read was notified",
                    self.now_ns()
                );
            }
            if let Some(v) = out {
                return v;
            }
            keys.sort_unstable_by_key(WaitKey::id);
            keys.dedup_by_key(|k| k.id());
            let mut st = inner.state.lock();
            SimClock::check_poison(&st);
            if st.fallback_gen > gen
                || keys
                    .iter()
                    .any(|k| k.0.stamped.load(Ordering::Relaxed) > gen)
            {
                audit = false;
                continue; // something we read changed while we evaluated
            }
            // Only our own key: nobody can target us but our own alarms
            // and the fallback, whose broadcast the shared condvar serves.
            let shared = keys.len() == 1;
            for k in keys.iter().filter(|k| k.0.owner.is_none()) {
                st.waiters.entry(k.id()).or_default().push(self.id);
            }
            st.runnable -= 1;
            st.blocked += 1;
            let cv = self.info(&mut st).map(|a| {
                a.status = ActorStatus::Blocked(label);
                a.shared_cv = shared;
                a.cv.clone()
            });
            inner.maybe_advance(&mut st);
            while !st.poisoned && !self.info(&mut st).is_some_and(|a| a.woken) {
                match &cv {
                    Some(cv) if !shared => cv.wait(&mut st),
                    _ => inner.cv.wait(&mut st),
                }
            }
            for k in keys.iter().filter(|k| k.0.owner.is_none()) {
                if let Some(ids) = st.waiters.get_mut(&k.id()) {
                    ids.retain(|&a| a != self.id);
                    if ids.is_empty() {
                        st.waiters.remove(&k.id());
                    }
                }
            }
            let woken = self.info(&mut st).is_some_and(|a| {
                audit = a.audit;
                a.audit = false;
                a.status = ActorStatus::Running;
                std::mem::replace(&mut a.woken, false)
            });
            if woken {
                st.recheck_pending -= 1;
            }
            st.blocked -= 1;
            st.runnable += 1;
            SimClock::check_poison(&st);
        }
    }
}

impl Drop for Actor {
    fn drop(&mut self) {
        let inner = &self.clock.inner;
        let mut st = inner.state.lock();
        // An actor normally drops while Running; during a panic unwind it
        // may drop while Blocked (or Sleeping, whose counter lives in the
        // sleeper heap / pending_wakes and no longer matters once
        // poisoned). Adjust the counter its status actually holds.
        if let Some(info) = st.actors.remove(&self.id) {
            match info.status {
                ActorStatus::Running => st.runnable -= 1,
                ActorStatus::Blocked(_) => {
                    st.blocked -= 1;
                    if info.woken {
                        st.recheck_pending -= 1;
                    }
                }
                ActorStatus::Sleeping(_) => {}
            }
        }
        if std::thread::panicking() {
            inner.poison(&mut st);
        } else if !st.poisoned {
            inner.maybe_advance(&mut st);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn clock_starts_at_zero() {
        let c = SimClock::new();
        assert_eq!(c.now_ns(), 0);
        assert_eq!(c.actor_count(), 0);
    }

    #[test]
    fn single_actor_advance_moves_clock_exactly() {
        let c = SimClock::new();
        let a = c.register("a");
        a.advance_ns(1234);
        assert_eq!(a.now_ns(), 1234);
        a.advance_ns(1);
        assert_eq!(c.now_ns(), 1235);
    }

    #[test]
    fn advance_zero_is_noop() {
        let c = SimClock::new();
        let a = c.register("a");
        a.advance_ns(0);
        assert_eq!(c.now_ns(), 0);
    }

    #[test]
    fn advance_until_is_absolute_and_idempotent() {
        let c = SimClock::new();
        let a = c.register("a");
        a.advance_until(500);
        assert_eq!(a.now_ns(), 500);
        a.advance_until(100); // already past: no-op
        assert_eq!(a.now_ns(), 500);
    }

    #[test]
    fn parallel_advances_overlap_to_max() {
        let c = SimClock::new();
        let durations = [300u64, 700, 500];
        // Register every actor before spawning any thread (see `register`).
        let actors: Vec<_> = (0..durations.len())
            .map(|i| c.register(format!("w{i}")))
            .collect();
        let handles: Vec<_> = actors
            .into_iter()
            .zip(durations)
            .map(|(actor, d)| {
                thread::spawn(move || {
                    actor.advance_ns(d);
                    actor.now_ns()
                })
            })
            .collect();
        let ends: Vec<u64> = handles
            .into_iter()
            .map(|h| h.join().expect("worker thread panicked"))
            .collect();
        assert_eq!(ends, vec![300, 700, 500]);
        assert_eq!(c.now_ns(), 700);
    }

    #[test]
    fn serialized_advances_sum() {
        let c = SimClock::new();
        let a = c.register("a");
        for _ in 0..10 {
            a.advance_ns(10);
        }
        assert_eq!(c.now_ns(), 100);
    }

    #[test]
    fn wait_until_sees_notification() {
        let c = SimClock::new();
        let flag = Arc::new(Mutex::new(false));
        let a = c.register("waiter");
        let b = c.register("setter");
        let f2 = flag.clone();
        let setter = thread::spawn(move || {
            b.advance_ns(1000);
            *f2.lock() = true;
            b.clock().notify();
        });
        let f3 = flag.clone();
        a.wait_until(move || if *f3.lock() { Some(()) } else { None });
        assert_eq!(a.now_ns(), 1000);
        setter.join().expect("worker thread panicked");
    }

    #[test]
    fn alarm_unblocks_predicate_waiter() {
        let c = SimClock::new();
        let a = c.register("waiter");
        c.schedule_alarm(5_000);
        let clock = c.clone();
        // Predicate: "has the clock reached 5000?" — only an alarm can get
        // it there, since no thread sleeps.
        a.wait_until(move || (clock.now_ns() >= 5_000).then_some(()));
        assert_eq!(c.now_ns(), 5_000);
    }

    #[test]
    fn stale_alarm_does_not_drag_final_time() {
        // An alarm scheduled for a wake-up that turned out unnecessary
        // (e.g. a timeout satisfied early) must not push virtual time
        // forward once every actor has finished its work — keyed or not.
        let c = SimClock::new();
        let a = c.register("worker");
        c.schedule_alarm(1_000_000_000);
        c.schedule_alarm_for(2_000_000_000, &WaitKey::new());
        a.advance_ns(500);
        drop(a);
        assert_eq!(c.now_ns(), 500);
    }

    #[test]
    fn keyed_alarm_without_listener_lets_the_clock_advance() {
        // A keyed alarm fires at 100 while the only blocked actor waits on
        // another key: nobody listens, so the clock must go on to the
        // sleeper at 500 by itself — which then unblocks the waiter.
        let c = SimClock::new();
        let m = Arc::new(crate::Monitor::new(c.clone(), false));
        let waiter = c.register("waiter");
        let setter = c.register("setter");
        c.schedule_alarm_for(100, &WaitKey::new());
        let m2 = m.clone();
        let t = thread::spawn(move || {
            setter.advance_ns(500);
            m2.with(|f| *f = true);
        });
        m.wait(&waiter, |f| f.then_some(()));
        assert_eq!(waiter.now_ns(), 500);
        assert!(t.join().is_ok(), "worker thread panicked");
        assert_eq!(c.fallback_wakes(), 0);
    }

    #[test]
    fn unrelated_key_does_not_wake_a_keyed_waiter() {
        let c = SimClock::new();
        let mine = Arc::new(crate::Monitor::new(c.clone(), 0u32));
        let other = Arc::new(crate::Monitor::new(c.clone(), 0u32));
        let waiter = c.register("waiter");
        let writer = c.register("writer");
        let (m, o) = (mine.clone(), other.clone());
        let t = thread::spawn(move || {
            // Step past t=0 first, so the waiter is parked before any
            // write happens.
            writer.advance_ns(10);
            for _ in 0..5 {
                o.with(|v| *v += 1);
            }
            writer.advance_ns(10);
            m.with(|v| *v = 7);
        });
        let got = mine.wait(&waiter, |v| (*v != 0).then_some(*v));
        assert_eq!((got, waiter.now_ns()), (7, 20));
        assert!(t.join().is_ok(), "worker thread panicked");
        // Exactly one release: the write to `mine`. The five writes to
        // `other` reached no waiter.
        assert_eq!(c.keyed_wakes(), 1);
        assert_eq!(c.fallback_wakes(), 0);
    }

    #[test]
    fn notify_between_evaluation_and_blocking_is_not_lost() {
        // The write lands after the waiter's predicate read the monitor
        // but before the waiter blocks. It must re-evaluate instead of
        // sleeping through the change (a lost wake-up would deadlock:
        // nothing else ever notifies).
        let c = SimClock::new();
        let m = Arc::new(crate::Monitor::new(c.clone(), None::<u32>));
        let a = c.register("waiter");
        let (go_tx, go_rx) = std::sync::mpsc::channel::<()>();
        let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
        let m2 = m.clone();
        let writer = thread::spawn(move || {
            assert!(go_rx.recv().is_ok(), "waiter signals");
            m2.with(|v| *v = Some(5));
            assert!(done_tx.send(()).is_ok(), "waiter listens");
        });
        let mut first = true;
        let got = a.wait_until(|| {
            let v = m.peek(|v| *v);
            if std::mem::take(&mut first) {
                assert!(go_tx.send(()).is_ok(), "writer listens");
                assert!(done_rx.recv().is_ok(), "writer signals");
            }
            v
        });
        assert_eq!(got, 5);
        assert!(writer.join().is_ok(), "writer thread panicked");
    }

    #[test]
    fn keyless_predicate_wakes_on_the_fallback_notify() {
        // The token-ring pattern: state behind a raw lock (no wait key),
        // announced with the unkeyed `notify`.
        let c = SimClock::new();
        let turn = Arc::new(Mutex::new(0usize));
        let n = 4;
        let actors: Vec<_> = (0..n).map(|i| c.register(format!("ring{i}"))).collect();
        let h: Vec<_> = actors
            .into_iter()
            .enumerate()
            .map(|(me, a)| {
                let turn = turn.clone();
                thread::spawn(move || {
                    for lap in 0..3 {
                        let mine = lap * n + me;
                        a.wait_until(|| (*turn.lock() == mine).then_some(()));
                        a.advance_ns(1);
                        *turn.lock() = mine + 1;
                        a.clock().notify();
                    }
                })
            })
            .collect();
        for t in h {
            assert!(t.join().is_ok(), "ring actor panicked");
        }
        assert_eq!(c.now_ns(), 12);
        assert!(c.fallback_wakes() > 0);
    }

    #[test]
    fn grants_run_at_the_alarm_instant_before_anyone_resumes() {
        struct Counter {
            slot: crate::Monitor<Option<SimNs>>,
        }
        impl Arbiter for Counter {
            fn grant(&self, now: SimNs) {
                self.slot.with(|s| *s = Some(now));
            }
        }
        let c = SimClock::new();
        let g = Arc::new(Counter {
            slot: crate::Monitor::new(c.clone(), None),
        });
        let a = c.register("poster");
        c.schedule_grant(41, g.clone());
        // A sleeper due at the grant instant already sees the grant.
        a.advance_ns(41);
        assert_eq!(g.slot.peek(|s| *s), Some(41));
        // A blocked reader of the arbiter's state is woken by it.
        c.schedule_grant(90, g.clone());
        let at = g.slot.wait(&a, |s| s.filter(|&t| t == 90));
        assert_eq!((at, a.now_ns()), (90, 90));
    }

    #[test]
    fn two_sleepers_same_instant_both_wake() {
        let c = SimClock::new();
        let actors: Vec<_> = (0..2).map(|i| c.register(format!("s{i}"))).collect();
        let h: Vec<_> = actors
            .into_iter()
            .map(|a| {
                thread::spawn(move || {
                    a.advance_ns(42);
                    a.advance_ns(8);
                    a.now_ns()
                })
            })
            .collect();
        for t in h {
            assert_eq!(t.join().expect("worker thread panicked"), 50);
        }
        assert_eq!(c.now_ns(), 50);
    }

    #[test]
    fn message_passing_has_no_premature_advance() {
        // A sends at t=10 to B who is blocked; B must observe at t=10, not
        // after A's later sleep to t=100.
        let c = SimClock::new();
        let mailbox: Arc<Mutex<Option<u64>>> = Arc::new(Mutex::new(None));
        let a = c.register("sender");
        let b = c.register("receiver");
        let m1 = mailbox.clone();
        let sender = thread::spawn(move || {
            a.advance_ns(10);
            *m1.lock() = Some(a.now_ns());
            a.clock().notify();
            a.advance_ns(90);
        });
        let m2 = mailbox.clone();
        let got = b.wait_until(move || m2.lock().take());
        assert_eq!(got, 10);
        assert_eq!(b.now_ns(), 10); // B observed the message at send time
                                    // Deregister before joining: the sender still owes 90 ns of virtual
                                    // time, and a join while holding a runnable actor would stall the
                                    // clock (os-level wait the clock cannot see).
        drop(b);
        sender.join().expect("worker thread panicked");
        assert_eq!(c.now_ns(), 100);
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn deadlock_is_detected() {
        let c = SimClock::new();
        let a = c.register("stuck");
        a.wait_until(|| None::<()>);
    }

    #[test]
    fn drop_deregisters_and_lets_clock_advance() {
        let c = SimClock::new();
        let a = c.register("a");
        let b = c.register("b");
        let t = thread::spawn(move || {
            drop(b); // b leaves; a must be able to advance alone
        });
        t.join().expect("worker thread panicked");
        a.advance_ns(7);
        assert_eq!(c.now_ns(), 7);
        assert_eq!(c.actor_count(), 1);
    }

    #[test]
    fn panicking_actor_poisons_clock() {
        let c = SimClock::new();
        let a = c.register("panicker");
        let t = thread::spawn(move || {
            let _a = a;
            panic!("boom");
        });
        assert!(t.join().is_err());
        assert!(c.is_poisoned());
    }

    #[test]
    fn gen_based_wait_has_no_lost_wakeup() {
        // Hammer the notify/wait path: 100 tokens passed one at a time.
        let c = SimClock::new();
        let slot: Arc<Mutex<Option<u32>>> = Arc::new(Mutex::new(None));
        let a = c.register("producer");
        let b = c.register("consumer");
        let s1 = slot.clone();
        let prod = thread::spawn(move || {
            for i in 0..100u32 {
                a.advance_ns(1);
                a.wait_until(|| s1.lock().is_none().then_some(()));
                *s1.lock() = Some(i);
                a.clock().notify();
            }
        });
        let s2 = slot.clone();
        let cons = thread::spawn(move || {
            let mut got = Vec::new();
            for _ in 0..100 {
                let v = b.wait_until(|| s2.lock().take());
                b.clock().notify(); // slot freed
                got.push(v);
            }
            got
        });
        prod.join().expect("worker thread panicked");
        let got = cons.join().expect("worker thread panicked");
        assert_eq!(got, (0..100).collect::<Vec<_>>());
        assert_eq!(c.now_ns(), 100);
    }
}
