//! The deferred-grant queue behind every shared timeline (fabric links,
//! storage devices).

use std::sync::Arc;

use crate::clock::{Arbiter, SimClock};
use crate::plock::Mutex;
use crate::SimNs;

/// Jobs posted against a shared timeline and granted later in a
/// canonical order.
///
/// Several actors may claim one timeline at the same virtual instant;
/// granting them in real call order would leak host scheduling into
/// virtual time. A posted job instead waits until the clock has *passed*
/// its start instant. The owning [`Arbiter`] then takes every due job in
/// `(earliest, key, seq)` order — `key` is the owner's canonical
/// tiebreak, `seq` the posting order — and reserves it, backdated to
/// `earliest`. The timeline is exactly what an eager reservation in the
/// canonical order would have produced, minus the race.
pub struct GrantQueue<K, J> {
    jobs: Mutex<QueueState<K, J>>,
}

struct QueueState<K, J> {
    pending: Vec<Pending<K, J>>,
    next_seq: u64,
}

struct Pending<K, J> {
    earliest: SimNs,
    key: K,
    /// Posting order, the final tie-break. Within one OS thread it is
    /// program order; across threads it only decides between jobs of the
    /// same key at the same instant, where either order yields the same
    /// timeline.
    seq: u64,
    job: J,
}

impl<K: Ord, J> Default for GrantQueue<K, J> {
    fn default() -> Self {
        GrantQueue {
            jobs: Mutex::new(QueueState {
                pending: Vec::new(),
                next_seq: 0,
            }),
        }
    }
}

impl<K: Ord, J> GrantQueue<K, J> {
    /// Post `job`, which may start no earlier than `earliest`, and have
    /// the clock run `arbiter`'s grant just past that instant — before any
    /// actor resumes there, even if every actor is parked waiting on this
    /// very job. `earliest` is clamped up to the present: a poster is
    /// runnable, so the clock cannot advance during this call, and every
    /// job later posted carries `earliest >= now >=` any instant already
    /// granted. That is what freezes each grant batch before it is sorted.
    pub fn post(
        &self,
        clock: &SimClock,
        arbiter: Arc<dyn Arbiter>,
        earliest: SimNs,
        key: K,
        job: J,
    ) {
        let earliest = earliest.max(clock.now_ns());
        {
            let mut q = self.jobs.lock();
            let seq = q.next_seq;
            q.next_seq += 1;
            q.pending.push(Pending {
                earliest,
                key,
                seq,
                job,
            });
        }
        clock.schedule_grant(earliest + 1, arbiter);
    }

    /// Run `reserve(earliest, key, job)` for every job due strictly before
    /// `now`, in `(earliest, key, seq)` order. The jobs run under the
    /// queue lock, so a racing grant cannot interleave its reservations —
    /// and whatever the jobs publish (the fabric's message sequence
    /// numbers) follows the grant order too. Idempotent and callable from
    /// any thread.
    pub fn grant(&self, now: SimNs, mut reserve: impl FnMut(SimNs, K, J)) {
        let mut q = self.jobs.lock();
        if !q.pending.iter().any(|j| j.earliest < now) {
            return;
        }
        let mut due = Vec::new();
        let mut i = 0;
        while i < q.pending.len() {
            if q.pending[i].earliest < now {
                due.push(q.pending.swap_remove(i));
            } else {
                i += 1;
            }
        }
        due.sort_by(|a, b| (a.earliest, &a.key, a.seq).cmp(&(b.earliest, &b.key, b.seq)));
        for j in due {
            reserve(j.earliest, j.key, j.job);
        }
    }

    /// Number of posted-but-ungranted jobs (diagnostics).
    pub fn pending(&self) -> usize {
        self.jobs.lock().pending.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An arbiter that records the grant order of its jobs.
    #[derive(Default)]
    struct Log {
        queue: GrantQueue<u32, &'static str>,
        granted: Mutex<Vec<(SimNs, &'static str)>>,
    }

    impl Arbiter for Log {
        fn grant(&self, now: SimNs) {
            self.queue
                .grant(now, |at, _, job| self.granted.lock().push((at, job)));
        }
    }

    #[test]
    fn due_jobs_are_granted_in_canonical_order_past_their_instant() {
        let clock = SimClock::new();
        let log = Arc::new(Log::default());
        let post = |at, key, job| log.queue.post(&clock, log.clone(), at, key, job);
        post(20, 0, "late");
        post(10, 2, "key2");
        post(10, 1, "key1-first");
        post(10, 1, "key1-second");
        assert_eq!(log.queue.pending(), 4);
        // Nothing is due at its own instant, only strictly after it.
        log.grant(10);
        assert!(log.granted.lock().is_empty());
        log.grant(11);
        assert_eq!(
            *log.granted.lock(),
            vec![(10, "key1-first"), (10, "key1-second"), (10, "key2")]
        );
        log.grant(SimNs::MAX);
        assert_eq!(log.granted.lock().last(), Some(&(20, "late")));
        assert_eq!(log.queue.pending(), 0);
    }
}
