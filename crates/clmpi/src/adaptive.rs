//! Measurement-based strategy selection.
//!
//! §V-B: "An automatic selection mechanism of the data transfer
//! implementations can be adopted behind the interfaces." The static
//! policy in [`crate::SystemConfig`] encodes the paper's per-system
//! choice; this module goes one step further: an online tuner that
//! *probes* each candidate strategy for a message-size class and then
//! sticks with the fastest — so applications inherit the best path on
//! systems no preset exists for, without any code change (the paper's
//! performance-portability argument, §IV advantage 1).

use std::collections::BTreeMap;

use simtime::plock::Mutex;
use simtime::SimNs;

use crate::collective::{CollAlgo, CollTuning};
use crate::strategy::TransferStrategy;
use crate::system::SystemConfig;

/// Size classes: transfers are bucketed by power-of-two message size, so
/// measurements for 1 MiB transfers don't steer 64 MiB ones.
fn size_class(size: usize) -> u32 {
    (usize::BITS - size.max(1).leading_zeros()).max(1)
}

/// What a [`Tuner`] keys its measurements on. Every key maps to a class;
/// keys of one class share one probe rotation and one winner.
pub trait TuneKey: Copy {
    /// The bucket measurements are kept per.
    type Class: Ord + Copy;
    /// This key's bucket.
    fn class(self) -> Self::Class;
}

/// A two-sided transfer, keyed by its size in bytes (bucketed by power
/// of two).
impl TuneKey for usize {
    type Class = u32;
    fn class(self) -> u32 {
        size_class(self)
    }
}

/// A one-sided transfer, keyed by **(peer rank, size in bytes)**: the win
/// of the RMA path depends on whether the peer shares a CXL pool, so each
/// peer tunes independently.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PeerKey(pub usize, pub usize);

impl TuneKey for PeerKey {
    type Class = (usize, u32);
    fn class(self) -> (usize, u32) {
        (self.0, size_class(self.1))
    }
}

/// A collective, keyed by **(size in bytes, world size)**: a tree that
/// wins at 4 ranks may lose at 13, so world sizes tune independently.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CollKey(pub usize, pub usize);

impl TuneKey for CollKey {
    type Class = (u32, usize);
    fn class(self) -> (u32, usize) {
        (size_class(self.0), self.1)
    }
}

/// A point a [`Tuner`] can probe.
pub trait Candidate: Copy + PartialEq {
    /// Panic if the tuner cannot run this candidate.
    fn check(&self);
}

impl Candidate for TransferStrategy {
    fn check(&self) {
        assert!(
            *self != TransferStrategy::Auto,
            "candidates must be concrete"
        );
    }
}

impl Candidate for CollTuning {
    fn check(&self) {
        assert!(self.chunk > 0, "candidate chunks must be ≥ 1");
    }
}

struct ClassState<C> {
    /// Candidates not yet probed for this class.
    pending: Vec<C>,
    /// (candidate, observed ns) of finished probes.
    observed: Vec<(C, SimNs)>,
    /// Candidates whose probe failed permanently (retired from rotation).
    failed: Vec<C>,
    /// Chosen winner once probing is done.
    winner: Option<C>,
}

/// An online per-class tuner: the one probe / observe / retire-on-failure
/// / all-fail-fallback implementation behind every selector.
///
/// `choose(key)` returns the candidate to use now; `observe(key,
/// candidate, ns)` feeds back the measured duration. During the probe
/// phase each candidate runs once (in rotation); afterwards the fastest
/// is locked in for that class.
pub struct Tuner<K: TuneKey, C> {
    candidates: Vec<C>,
    classes: Mutex<BTreeMap<K::Class, ClassState<C>>>,
}

/// The two-sided transfer tuner, keyed by size class.
pub type AdaptiveSelector = Tuner<usize, TransferStrategy>;

/// The one-sided tuner over the wire route of a window put, keyed by
/// [`PeerKey`]. A co-located peer's 1 MiB class locks `Rma` (the pool
/// port at 28 GB/s dwarfs the NIC); a cross-pod peer's class locks a
/// NIC-side strategy.
pub type PeerSelector = Tuner<PeerKey, TransferStrategy>;

/// The collective tuner over [`CollTuning`] (algorithm × pipeline chunk)
/// candidates, keyed by [`CollKey`].
pub type CollectiveSelector = Tuner<CollKey, CollTuning>;

impl<K: TuneKey, C: Candidate> Tuner<K, C> {
    /// Tuner over an explicit candidate set; the first candidate is the
    /// all-fail fallback.
    pub fn with_candidates(candidates: Vec<C>) -> Self {
        assert!(!candidates.is_empty(), "need at least one candidate");
        candidates.iter().for_each(C::check);
        Tuner {
            candidates,
            classes: Mutex::new(BTreeMap::new()),
        }
    }

    /// The candidate to use for `key`.
    pub fn choose(&self, key: K) -> C {
        let mut st = self.classes.lock();
        let cs = st.entry(key.class()).or_insert_with(|| ClassState {
            pending: self.candidates.clone(),
            observed: Vec::new(),
            failed: Vec::new(),
            winner: None,
        });
        if let Some(w) = cs.winner {
            return w;
        }
        // Probe phase: hand out the next unprobed candidate (it stays in
        // `pending` until its observation arrives, so concurrent chooses
        // of the same class re-probe rather than starve).
        cs.pending.first().copied().unwrap_or(self.candidates[0])
    }

    /// Feed back a measured duration.
    pub fn observe(&self, key: K, candidate: C, dur_ns: SimNs) {
        self.retire(key, candidate, Some(dur_ns));
    }

    /// Feed back a permanent probe failure (retry budget exhausted,
    /// receiver timeout, dead peer). The candidate is retired from the
    /// class's probe rotation — without this, a failed probe never
    /// reaches [`Tuner::observe`], so it stays pending forever and
    /// `choose` re-hands the failing candidate indefinitely (probe
    /// starvation). If *every* candidate fails, the class falls back to
    /// the first candidate as its winner so callers still get a
    /// deterministic answer instead of an endless probe loop.
    pub fn observe_failure(&self, key: K, candidate: C) {
        self.retire(key, candidate, None);
    }

    /// Take `candidate` out of its class's rotation, measured or failed;
    /// lock the winner once the rotation is empty. Unsolicited
    /// candidates and feedback after the lock are ignored.
    fn retire(&self, key: K, candidate: C, measured: Option<SimNs>) {
        let mut st = self.classes.lock();
        let Some(cs) = st.get_mut(&key.class()) else {
            return;
        };
        if cs.winner.is_some() {
            return;
        }
        if let Some(pos) = cs.pending.iter().position(|&c| c == candidate) {
            cs.pending.remove(pos);
            match measured {
                Some(ns) => cs.observed.push((candidate, ns)),
                None => cs.failed.push(candidate),
            }
        }
        if cs.pending.is_empty() {
            let fastest = cs.observed.iter().min_by_key(|(_, ns)| *ns).map(|o| o.0);
            cs.winner = Some(fastest.unwrap_or(self.candidates[0]));
        }
    }

    /// Candidates retired by [`Tuner::observe_failure`] for `key`'s class
    /// (diagnostics and tests).
    pub fn failures_for(&self, key: K) -> Vec<C> {
        self.classes
            .lock()
            .get(&key.class())
            .map(|c| c.failed.clone())
            .unwrap_or_default()
    }

    /// The locked-in winner for `key`'s class, if probing finished.
    pub fn winner_for(&self, key: K) -> Option<C> {
        self.classes.lock().get(&key.class()).and_then(|c| c.winner)
    }
}

impl AdaptiveSelector {
    /// Tuner over the standard candidate set for `sys`: pinned, mapped,
    /// and pipelined with the system's default block.
    pub fn for_system(sys: &SystemConfig) -> Self {
        Self::with_candidates(vec![
            TransferStrategy::Pinned,
            TransferStrategy::Mapped,
            TransferStrategy::Pipelined(sys.default_pipeline_block),
        ])
    }
}

impl PeerSelector {
    /// Tuner over the standard one-sided candidate set for `sys`: the
    /// class-routed RMA path plus the three NIC-side emulations.
    pub fn for_system(sys: &SystemConfig) -> Self {
        Self::with_candidates(vec![
            TransferStrategy::Rma,
            TransferStrategy::Pinned,
            TransferStrategy::Mapped,
            TransferStrategy::Pipelined(sys.default_pipeline_block),
        ])
    }
}

impl CollectiveSelector {
    /// Broadcast tuner over the standard candidate set for `sys`: flat,
    /// binomial tree, and pipelined ring, all at the system's default
    /// pipeline block.
    pub fn bcast_for_system(sys: &SystemConfig) -> Self {
        let chunk = sys.default_pipeline_block;
        Self::with_candidates(
            [CollAlgo::Flat, CollAlgo::Tree, CollAlgo::Ring]
                .map(|algo| CollTuning { algo, chunk })
                .to_vec(),
        )
    }

    /// Allreduce tuner for `sys`: the topology is a fixed ring, so the
    /// candidates only vary the pipeline chunk.
    pub fn allreduce_for_system(sys: &SystemConfig) -> Self {
        let b = sys.default_pipeline_block;
        Self::with_candidates(
            [b, (b / 4).max(4 << 10), b * 4]
                .map(|chunk| CollTuning {
                    algo: CollAlgo::Ring,
                    chunk,
                })
                .to_vec(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fmt::Debug;

    #[test]
    fn size_classes_separate_magnitudes() {
        assert_eq!(size_class(1024), size_class(1500));
        assert_ne!(size_class(1 << 20), size_class(64 << 20));
        assert_eq!(
            size_class(0),
            size_class(1),
            "degenerate sizes share a class"
        );
    }

    /// One key shape under test: two keys in different classes and two
    /// candidates in rotation order.
    struct Shape<K, C> {
        key: K,
        other: K,
        a: C,
        b: C,
    }

    /// The whole tuner contract, run once per key shape.
    fn contract<K: TuneKey + Debug, C: Candidate + Debug>(s: Shape<K, C>) {
        let two = || Tuner::<K, C>::with_candidates(vec![s.a, s.b]);
        let one = || Tuner::<K, C>::with_candidates(vec![s.a]);
        let key = s.key;
        let ctx = format!("{key:?}");

        // Probes each candidate once, then locks the faster one.
        let sel = two();
        let s1 = sel.choose(key);
        assert_eq!(s1, s.a, "{ctx}");
        sel.observe(key, s1, 500);
        let s2 = sel.choose(key);
        assert_eq!(s2, s.b, "{ctx}");
        sel.observe(key, s2, 300);
        assert_eq!(sel.winner_for(key), Some(s.b), "{ctx}: faster locked");
        for _ in 0..5 {
            assert_eq!(sel.choose(key), s.b, "{ctx}");
        }

        // Classes tune independently.
        let sel = two();
        sel.observe(key, sel.choose(key), 100);
        sel.observe(key, sel.choose(key), 50);
        sel.observe(s.other, sel.choose(s.other), 10);
        sel.observe(s.other, sel.choose(s.other), 20);
        assert_eq!(sel.winner_for(key), Some(s.b), "{ctx}");
        assert_eq!(sel.winner_for(s.other), Some(s.a), "{:?}", s.other);

        // Observations of a never-offered candidate are ignored.
        let sel = one();
        sel.observe(key, s.b, 1);
        assert_eq!(sel.winner_for(key), None, "{ctx}");

        // A failed probe is retired instead of starving the rotation.
        // Before the fix a failure never reached the tuner, so `choose`
        // handed out the failing candidate forever.
        let sel = two();
        let s1 = sel.choose(key);
        assert_eq!(s1, s.a, "{ctx}");
        sel.observe_failure(key, s1);
        assert_eq!(sel.failures_for(key), vec![s.a], "{ctx}");
        let s2 = sel.choose(key);
        assert_eq!(s2, s.b, "{ctx}: rotation moved on");
        sel.observe(key, s2, 300);
        // The surviving candidate wins; the failed one is never chosen.
        assert_eq!(sel.winner_for(key), Some(s.b), "{ctx}");
        assert_eq!(sel.choose(key), s.b, "{ctx}");

        // Every candidate failing locks the primary rather than looping.
        let sel = two();
        sel.observe_failure(key, sel.choose(key));
        sel.observe_failure(key, sel.choose(key));
        assert_eq!(sel.winner_for(key), Some(s.a), "{ctx}");
        assert_eq!(sel.choose(key), s.a, "{ctx}");

        // Feedback after the lock is ignored.
        let sel = one();
        sel.observe(key, sel.choose(key), 100);
        assert_eq!(sel.winner_for(key), Some(s.a), "{ctx}");
        sel.observe_failure(key, s.a);
        assert_eq!(sel.winner_for(key), Some(s.a), "{ctx}");
    }

    #[test]
    fn every_key_shape_honours_the_tuner_contract() {
        // Transfers: size classes tune independently (mapped wins the
        // small class, pinned the large one).
        contract(Shape {
            key: 4usize << 10,
            other: 32 << 20,
            a: TransferStrategy::Pinned,
            b: TransferStrategy::Mapped,
        });
        // One-sided: peers of one size class tune independently (a
        // NIC-side strategy wins for cross-pod peer 7, the RMA path for
        // co-located peer 1).
        contract(Shape {
            key: PeerKey(7, 1 << 20),
            other: PeerKey(1, 1 << 20),
            a: TransferStrategy::Rma,
            b: TransferStrategy::Pinned,
        });
        // Collectives: world sizes of one size class tune independently.
        let tuning = |algo| CollTuning { algo, chunk: 4096 };
        contract(Shape {
            key: CollKey(1 << 20, 4),
            other: CollKey(1 << 20, 13),
            a: tuning(CollAlgo::Tree),
            b: tuning(CollAlgo::Ring),
        });
    }

    #[test]
    #[should_panic(expected = "concrete")]
    fn auto_candidate_rejected() {
        AdaptiveSelector::with_candidates(vec![TransferStrategy::Auto]);
    }

    #[test]
    #[should_panic(expected = "chunks must be ≥ 1")]
    fn zero_chunk_candidate_rejected() {
        CollectiveSelector::with_candidates(vec![CollTuning {
            algo: CollAlgo::Ring,
            chunk: 0,
        }]);
    }
}
