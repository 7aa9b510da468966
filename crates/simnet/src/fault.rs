//! Deterministic link-fault injection in virtual time.
//!
//! A [`FaultPlan`] describes the failure behaviour of a link: a seeded
//! message-drop probability, bounded latency jitter, and link-down
//! windows. A [`FaultInjector`] attached to a link turns the plan into
//! per-message [`FaultOutcome`]s.
//!
//! **Determinism.** The fate of a message is a pure function of
//! `(plan seed, link salt, src, dst, tag, k)` where `k` counts messages of
//! that flow: the k-th send of a flow always meets the same fate under the
//! same plan, regardless of thread scheduling. Runs with equal seeds are
//! therefore exactly replayable — drops, jitter and retries land at the
//! same virtual instants every time.
//!
//! **Loss visibility.** Reservations are bookkeeping, so the sending side
//! learns a message's fate at injection time (think of it as a link-layer
//! NACK); higher layers (the clMPI `RetryPolicy`) use that to model
//! retransmission without an explicit ack protocol. Dropped messages still
//! consume sender-side injection time, like real lost packets.
//!
//! **Node kills.** Beyond per-message link faults, a plan can schedule
//! whole-node failures ([`FaultPlan::with_node_down`], permanent, and
//! [`FaultPlan::with_node_down_window`], transient). Every message to
//! *or* from a dead node resolves deterministically as
//! [`DropReason::NodeDown`] — including control-plane tags a
//! `tag_floor` would otherwise shield, because a dead process answers
//! on no channel. Higher layers (minimpi's ULFM-style surface) classify
//! the resulting timeouts as process failures.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::NodeId;
use simtime::plock::Mutex;
use simtime::{SimNs, XorShift64};

/// Failure behaviour of a link, in virtual time. [`FaultPlan::none`] is
/// the default everywhere and is guaranteed to leave timing and delivery
/// bit-identical to a build without fault injection.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed of the deterministic fault stream.
    pub seed: u64,
    /// Probability that a message is silently dropped, in `[0, 1]`.
    pub drop_probability: f64,
    /// Maximum extra one-way latency (uniform in `[0, jitter_ns]`) added
    /// per delivered message.
    pub jitter_ns: SimNs,
    /// Half-open `[from, until)` virtual-time windows during which the
    /// link is down: every message injected inside one is dropped.
    pub down_windows: Vec<(SimNs, SimNs)>,
    /// If set, only messages with `tag >= tag_floor` are subject to
    /// faults. Lets a plan target the bulk-data plane (e.g. clMPI transfer
    /// tags) while control traffic (barriers, reductions) stays reliable,
    /// mirroring a transport with protected control channels. Node-down
    /// schedules ignore the floor: a dead process answers on no channel.
    pub tag_floor: Option<i32>,
    /// Half-open `[from, until)` windows during which a whole node is
    /// dead: every message to or from it is dropped, regardless of
    /// `tag_floor`. Permanent kills use `until = SimNs::MAX`.
    pub node_down: Vec<NodeDownWindow>,
}

/// One scheduled node failure: node `node` is dead during `[from, until)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeDownWindow {
    /// The node being killed.
    pub node: NodeId,
    /// Virtual instant the node dies.
    pub from: SimNs,
    /// Virtual instant the node comes back (`SimNs::MAX` = never).
    pub until: SimNs,
}

/// Rejected [`FaultPlan`] construction input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultPlanError {
    /// A `[from, until)` window with `until <= from` selects nothing.
    EmptyWindow { from: SimNs, until: SimNs },
}

impl std::fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultPlanError::EmptyWindow { from, until } => {
                write!(f, "empty fault window {from}..{until}")
            }
        }
    }
}

impl std::error::Error for FaultPlanError {}

impl FaultPlan {
    /// The perfect fabric: nothing dropped, no jitter, never down.
    pub fn none() -> Self {
        FaultPlan {
            seed: 0,
            drop_probability: 0.0,
            jitter_ns: 0,
            down_windows: Vec::new(),
            tag_floor: None,
            node_down: Vec::new(),
        }
    }

    /// A plan that drops each message with probability `p`, seeded.
    pub fn drops(seed: u64, p: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p),
            "drop probability {p} outside [0,1]"
        );
        FaultPlan {
            seed,
            drop_probability: p,
            ..Self::none()
        }
    }

    /// Add uniform `[0, jitter_ns]` latency jitter per delivered message.
    pub fn with_jitter(mut self, jitter_ns: SimNs) -> Self {
        self.jitter_ns = jitter_ns;
        self
    }

    /// Add a `[from, until)` link-down window. An empty window
    /// (`until <= from`) selects no instant and is a documented no-op —
    /// library construction never aborts the process; use
    /// [`FaultPlan::try_down_window`] to surface the mistake instead.
    pub fn with_down_window(mut self, from: SimNs, until: SimNs) -> Self {
        if until > from {
            self.down_windows.push((from, until));
        }
        self
    }

    /// [`FaultPlan::with_down_window`] that rejects an empty window with
    /// a [`FaultPlanError`] instead of silently ignoring it.
    pub fn try_down_window(self, from: SimNs, until: SimNs) -> Result<Self, FaultPlanError> {
        if until <= from {
            return Err(FaultPlanError::EmptyWindow { from, until });
        }
        Ok(self.with_down_window(from, until))
    }

    /// Kill `node` permanently at virtual instant `at_ns`: from then on
    /// every message to or from it is dropped with
    /// [`DropReason::NodeDown`], regardless of any `tag_floor`.
    pub fn with_node_down(mut self, node: NodeId, at_ns: SimNs) -> Self {
        self.node_down.push(NodeDownWindow {
            node,
            from: at_ns,
            until: SimNs::MAX,
        });
        self
    }

    /// Kill `node` for the `[from, until)` window only (a transient
    /// process failure: crash-and-restart). An empty window is a
    /// documented no-op, like [`FaultPlan::with_down_window`]; use
    /// [`FaultPlan::try_node_down_window`] to reject it.
    pub fn with_node_down_window(mut self, node: NodeId, from: SimNs, until: SimNs) -> Self {
        if until > from {
            self.node_down.push(NodeDownWindow { node, from, until });
        }
        self
    }

    /// [`FaultPlan::with_node_down_window`] that rejects an empty window
    /// with a [`FaultPlanError`].
    pub fn try_node_down_window(
        self,
        node: NodeId,
        from: SimNs,
        until: SimNs,
    ) -> Result<Self, FaultPlanError> {
        if until <= from {
            return Err(FaultPlanError::EmptyWindow { from, until });
        }
        Ok(self.with_node_down_window(node, from, until))
    }

    /// Restrict faults to messages with `tag >= floor`.
    pub fn with_tag_floor(mut self, floor: i32) -> Self {
        self.tag_floor = Some(floor);
        self
    }

    /// True if this plan can never perturb anything.
    pub fn is_none(&self) -> bool {
        self.drop_probability == 0.0
            && self.jitter_ns == 0
            && self.down_windows.is_empty()
            && self.node_down.is_empty()
    }

    /// Whether messages with `tag` fall under this plan.
    pub fn applies_to_tag(&self, tag: i32) -> bool {
        self.tag_floor.is_none_or(|floor| tag >= floor)
    }

    fn down_at(&self, t: SimNs) -> bool {
        self.down_windows.iter().any(|&(a, b)| t >= a && t < b)
    }

    /// True if `node` is scheduled dead at virtual instant `t`.
    pub fn node_down_at(&self, node: NodeId, t: SimNs) -> bool {
        self.node_down
            .iter()
            .any(|w| w.node == node && t >= w.from && t < w.until)
    }

    /// True if `node` is scheduled dead at any instant of `[from, until)`
    /// (crash-consistency checks: does a kill interrupt this interval?).
    pub fn node_down_in(&self, node: NodeId, from: SimNs, until: SimNs) -> bool {
        self.node_down
            .iter()
            .any(|w| w.node == node && w.from < until && from < w.until)
    }

    /// The first instant strictly after `t` at which `node` goes down, if
    /// any: the wake-up a waiter deciding on [`FaultPlan::node_down_at`]
    /// must park on to notice the kill when it happens.
    pub fn next_node_down(&self, node: NodeId, t: SimNs) -> Option<SimNs> {
        self.node_down
            .iter()
            .filter(|w| w.node == node && w.from > t)
            .map(|w| w.from)
            .min()
    }

    /// The earliest scheduled death of `node`, if any (`from` of its
    /// first window in time order).
    pub fn node_down_since(&self, node: NodeId) -> Option<SimNs> {
        self.node_down
            .iter()
            .filter(|w| w.node == node)
            .map(|w| w.from)
            .min()
    }
}

/// Why a message was dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// The seeded Bernoulli draw came up lossy.
    Random,
    /// The injection start fell inside a link-down window.
    LinkDown,
    /// The source or destination node was dead at injection start.
    NodeDown,
}

/// The fate the injector assigned to one message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultOutcome {
    /// Delivered, with this much extra one-way latency (0 without jitter).
    Deliver { extra_latency_ns: SimNs },
    /// Never arrives. Sender-side link time is still consumed.
    Drop(DropReason),
}

impl FaultOutcome {
    /// True for either drop reason.
    pub fn is_drop(&self) -> bool {
        matches!(self, FaultOutcome::Drop(_))
    }
}

/// Aggregate fault counters, readable at any time (e.g. for stats
/// reports or assertions that retries actually happened).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounts {
    /// Messages delivered (possibly jittered).
    pub delivered: u64,
    /// Messages dropped by the Bernoulli draw.
    pub dropped_random: u64,
    /// Messages dropped by a link-down window.
    pub dropped_down: u64,
    /// Messages dropped because an endpoint node was dead.
    pub dropped_node: u64,
    /// Total extra latency injected, ns.
    pub jitter_ns_total: u64,
}

impl FaultCounts {
    /// Total dropped messages, all reasons.
    pub fn dropped(&self) -> u64 {
        self.dropped_random + self.dropped_down + self.dropped_node
    }
}

/// Per-link fault decision engine. See the module docs for the
/// determinism contract.
pub struct FaultInjector {
    plan: FaultPlan,
    salt: u64,
    /// Per-(src, dst, tag) message counters: the flow position `k` feeds
    /// the pure decision function (the drop decision is pure in
    /// (plan, salt, key, k), so storage order can never reach an outcome).
    flows: Mutex<BTreeMap<(NodeId, NodeId, i32), u64>>,
    delivered: AtomicU64,
    dropped_random: AtomicU64,
    dropped_down: AtomicU64,
    dropped_node: AtomicU64,
    jitter_total: AtomicU64,
}

impl FaultInjector {
    /// Injector for `plan`; `salt` decorrelates injectors sharing a plan
    /// (e.g. one per node), typically the link index.
    pub fn new(plan: FaultPlan, salt: u64) -> Self {
        FaultInjector {
            plan,
            salt,
            flows: Mutex::new(BTreeMap::new()),
            delivered: AtomicU64::new(0),
            dropped_random: AtomicU64::new(0),
            dropped_down: AtomicU64::new(0),
            dropped_node: AtomicU64::new(0),
            jitter_total: AtomicU64::new(0),
        }
    }

    /// The plan driving this injector.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Decide the fate of the next message of flow `(src, dst, tag)` whose
    /// injection starts at `start`.
    pub fn decide(&self, src: NodeId, dst: NodeId, tag: i32, start: SimNs) -> FaultOutcome {
        if self.plan.is_none() {
            return FaultOutcome::Deliver {
                extra_latency_ns: 0,
            };
        }
        // Node death trumps everything, including the tag floor: a dead
        // process answers on no channel.
        if self.plan.node_down_at(src, start) || self.plan.node_down_at(dst, start) {
            self.dropped_node.fetch_add(1, Ordering::Relaxed);
            return FaultOutcome::Drop(DropReason::NodeDown);
        }
        if !self.plan.applies_to_tag(tag) {
            return FaultOutcome::Deliver {
                extra_latency_ns: 0,
            };
        }
        if self.plan.down_at(start) {
            self.dropped_down.fetch_add(1, Ordering::Relaxed);
            return FaultOutcome::Drop(DropReason::LinkDown);
        }
        let k = {
            let mut flows = self.flows.lock();
            let c = flows.entry((src, dst, tag)).or_insert(0);
            let k = *c;
            *c += 1;
            k
        };
        // Pure per-message stream: seed ⊕ salt ⊕ flow identity ⊕ position.
        let key = (src as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add((dst as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F))
            .wrapping_add((tag as i64 as u64).wrapping_mul(0x1656_67B1_9E37_79F9))
            .wrapping_add(k);
        let mut rng = XorShift64::new(self.plan.seed ^ self.salt.rotate_left(32) ^ key);
        if rng.gen_bool(self.plan.drop_probability) {
            self.dropped_random.fetch_add(1, Ordering::Relaxed);
            return FaultOutcome::Drop(DropReason::Random);
        }
        let extra = if self.plan.jitter_ns > 0 {
            rng.gen_range_u64(0, self.plan.jitter_ns + 1)
        } else {
            0
        };
        self.delivered.fetch_add(1, Ordering::Relaxed);
        self.jitter_total.fetch_add(extra, Ordering::Relaxed);
        FaultOutcome::Deliver {
            extra_latency_ns: extra,
        }
    }

    /// Snapshot the counters.
    pub fn counts(&self) -> FaultCounts {
        FaultCounts {
            delivered: self.delivered.load(Ordering::Relaxed),
            dropped_random: self.dropped_random.load(Ordering::Relaxed),
            dropped_down: self.dropped_down.load(Ordering::Relaxed),
            dropped_node: self.dropped_node.load(Ordering::Relaxed),
            jitter_ns_total: self.jitter_total.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_plan_never_perturbs() {
        let inj = FaultInjector::new(FaultPlan::none(), 0);
        for k in 0..1000 {
            assert_eq!(
                inj.decide(0, 1, k, k as u64 * 10),
                FaultOutcome::Deliver {
                    extra_latency_ns: 0
                }
            );
        }
        assert_eq!(inj.counts(), FaultCounts::default());
    }

    #[test]
    fn same_seed_same_fates() {
        let run = || {
            let inj = FaultInjector::new(FaultPlan::drops(42, 0.3).with_jitter(5_000), 7);
            (0..200)
                .map(|k| inj.decide(0, 1, 9, k * 100))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn fate_is_per_flow_position_not_call_order() {
        // Interleaving two flows differently must not change either flow's
        // fate sequence.
        let fates = |interleave: bool| {
            let inj = FaultInjector::new(FaultPlan::drops(3, 0.5), 0);
            let mut a = Vec::new();
            let mut b = Vec::new();
            if interleave {
                for _ in 0..50 {
                    a.push(inj.decide(0, 1, 1, 0));
                    b.push(inj.decide(0, 2, 1, 0));
                }
            } else {
                for _ in 0..50 {
                    b.push(inj.decide(0, 2, 1, 0));
                }
                for _ in 0..50 {
                    a.push(inj.decide(0, 1, 1, 0));
                }
            }
            (a, b)
        };
        assert_eq!(fates(true), fates(false));
    }

    #[test]
    fn drop_rate_tracks_probability() {
        let inj = FaultInjector::new(FaultPlan::drops(11, 0.01), 0);
        for k in 0..100_000u64 {
            inj.decide(0, 1, (k % 97) as i32, k);
        }
        let c = inj.counts();
        assert!(
            (500..1500).contains(&c.dropped_random),
            "1% of 100k ≈ 1000, got {}",
            c.dropped_random
        );
        assert_eq!(c.delivered + c.dropped(), 100_000);
    }

    #[test]
    fn down_window_drops_everything_inside() {
        let plan = FaultPlan::none().with_down_window(1_000, 2_000);
        let inj = FaultInjector::new(plan, 0);
        assert!(!inj.decide(0, 1, 0, 999).is_drop());
        assert_eq!(
            inj.decide(0, 1, 0, 1_000),
            FaultOutcome::Drop(DropReason::LinkDown)
        );
        assert_eq!(
            inj.decide(0, 1, 0, 1_999),
            FaultOutcome::Drop(DropReason::LinkDown)
        );
        assert!(!inj.decide(0, 1, 0, 2_000).is_drop());
        assert_eq!(inj.counts().dropped_down, 2);
    }

    #[test]
    fn jitter_is_bounded_and_counted() {
        let inj = FaultInjector::new(FaultPlan::none().with_jitter(500), 0);
        let mut total = 0;
        for k in 0..1000 {
            match inj.decide(0, 1, 0, k) {
                FaultOutcome::Deliver { extra_latency_ns } => {
                    assert!(extra_latency_ns <= 500);
                    total += extra_latency_ns;
                }
                FaultOutcome::Drop(_) => unreachable!("no drops configured"),
            }
        }
        assert!(total > 0, "jitter actually injected");
        assert_eq!(inj.counts().jitter_ns_total, total);
    }

    #[test]
    fn empty_down_window_is_a_no_op_not_a_panic() {
        let plan = FaultPlan::none().with_down_window(5_000, 5_000);
        assert!(plan.is_none(), "empty window must select nothing");
        let plan = FaultPlan::none().with_down_window(9, 3);
        assert!(plan.is_none(), "inverted window must select nothing");
        assert_eq!(
            FaultPlan::none().try_down_window(5_000, 5_000),
            Err(FaultPlanError::EmptyWindow {
                from: 5_000,
                until: 5_000
            })
        );
        assert!(FaultPlan::none().try_down_window(1, 2).is_ok());
    }

    #[test]
    fn permanent_node_kill_drops_both_directions_forever() {
        let plan = FaultPlan::none().with_node_down(1, 10_000);
        let inj = FaultInjector::new(plan.clone(), 0);
        assert!(!inj.decide(0, 1, 0, 9_999).is_drop(), "alive before kill");
        assert_eq!(
            inj.decide(0, 1, 0, 10_000),
            FaultOutcome::Drop(DropReason::NodeDown),
            "messages to the dead node drop"
        );
        assert_eq!(
            inj.decide(1, 2, 0, u64::MAX - 1),
            FaultOutcome::Drop(DropReason::NodeDown),
            "messages from the dead node drop, permanently"
        );
        assert!(!inj.decide(0, 2, 0, 20_000).is_drop(), "bystanders fine");
        assert_eq!(inj.counts().dropped_node, 2);
        assert!(plan.node_down_at(1, 10_000));
        assert!(!plan.node_down_at(1, 9_999));
        assert_eq!(plan.node_down_since(1), Some(10_000));
        assert_eq!(plan.node_down_since(0), None);
    }

    #[test]
    fn transient_node_kill_recovers_after_the_window() {
        let plan = FaultPlan::none().with_node_down_window(2, 1_000, 2_000);
        let inj = FaultInjector::new(plan.clone(), 0);
        assert!(!inj.decide(2, 0, 0, 999).is_drop());
        assert!(inj.decide(2, 0, 0, 1_500).is_drop());
        assert!(!inj.decide(2, 0, 0, 2_000).is_drop(), "restarted node");
        assert!(plan.node_down_in(2, 0, 1_001), "overlaps the window");
        assert!(!plan.node_down_in(2, 0, 1_000), "half-open: ends before");
        assert!(!plan.node_down_in(2, 2_000, 9_000), "after restart");
        // Empty transient windows are the same documented no-op.
        assert!(FaultPlan::none().with_node_down_window(0, 7, 7).is_none());
        assert!(FaultPlan::none().try_node_down_window(0, 7, 7).is_err());
    }

    #[test]
    fn node_kill_ignores_the_tag_floor() {
        let plan = FaultPlan::none()
            .with_tag_floor(1 << 22)
            .with_node_down(1, 0);
        let inj = FaultInjector::new(plan, 0);
        assert!(
            inj.decide(0, 1, 7, 0).is_drop(),
            "control-plane tag still drops to a dead node"
        );
    }

    #[test]
    fn tag_floor_shields_control_traffic() {
        let plan = FaultPlan::drops(5, 1.0).with_tag_floor(1 << 22);
        let inj = FaultInjector::new(plan, 0);
        assert!(!inj.decide(0, 1, 7, 0).is_drop(), "control tag immune");
        assert!(inj.decide(0, 1, 1 << 22, 0).is_drop(), "data tag faulted");
    }
}
