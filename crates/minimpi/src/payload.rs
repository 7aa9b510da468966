//! Wire payloads: immutable, reference-counted byte strings.
//!
//! A [`Payload`] is one heap allocation plus a byte range into it.
//! Cloning bumps a reference count and slicing narrows the range, so a
//! message can be retransmitted, fanned out to several receivers,
//! forwarded verbatim or cut into wire chunks without its bytes being
//! copied. The simulator charges host copies in virtual time only where
//! the modeled system makes them (PCIe staging, device stores); sharing
//! the bytes everywhere else keeps the simulator's own memory traffic to
//! those charged copies.

use std::fmt;
use std::ops::{Bound, Deref, RangeBounds};
use std::sync::Arc;

/// An immutable, cheaply cloned, sliceable byte string.
///
/// Ownership: whoever builds the bytes (a staging read out of device
/// memory, or the one copy a `&[u8]` API makes at its edge) moves them
/// into a `Payload` once. From then on every holder — a send request
/// awaiting its retransmit, the receiver's inbox, a forwarder — shares
/// that allocation; the last handle dropped frees it.
#[derive(Clone)]
pub struct Payload {
    bytes: Arc<Vec<u8>>,
    start: usize,
    end: usize,
}

impl Payload {
    /// The sub-range `range` of this payload (indices relative to it),
    /// sharing the same allocation. Panics if the range is out of bounds.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Payload {
        let lo = match range.start_bound() {
            Bound::Included(&s) => s,
            Bound::Excluded(&s) => s + 1,
            Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            Bound::Included(&e) => e + 1,
            Bound::Excluded(&e) => e,
            Bound::Unbounded => self.len(),
        };
        assert!(
            lo <= hi && hi <= self.len(),
            "payload slice {lo}..{hi} out of range for {} bytes",
            self.len()
        );
        Payload {
            bytes: self.bytes.clone(),
            start: self.start + lo,
            end: self.start + hi,
        }
    }

    /// True when `a` and `b` share one allocation (whatever their
    /// ranges): the bytes were moved, not copied, between them.
    pub fn ptr_eq(a: &Payload, b: &Payload) -> bool {
        Arc::ptr_eq(&a.bytes, &b.bytes)
    }

    /// The bytes as an owned vector: free when this is the only handle
    /// on the whole allocation, one copy otherwise.
    pub fn into_vec(self) -> Vec<u8> {
        if self.start == 0 && self.end == self.bytes.len() {
            match Arc::try_unwrap(self.bytes) {
                Ok(v) => v,
                Err(shared) => shared.to_vec(),
            }
        } else {
            self.to_vec()
        }
    }
}

impl Deref for Payload {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.bytes[self.start..self.end]
    }
}

impl From<Vec<u8>> for Payload {
    /// Takes ownership of the vector's allocation; no bytes are copied.
    fn from(v: Vec<u8>) -> Self {
        let end = v.len();
        Payload {
            bytes: Arc::new(v),
            start: 0,
            end,
        }
    }
}

impl From<&[u8]> for Payload {
    /// Copies the slice (the one copy a borrowed-bytes API makes).
    fn from(s: &[u8]) -> Self {
        Payload::from(s.to_vec())
    }
}

impl From<&Vec<u8>> for Payload {
    /// Copies the vector's bytes, like `From<&[u8]>`.
    fn from(v: &Vec<u8>) -> Self {
        Payload::from(v.as_slice())
    }
}

impl fmt::Debug for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

impl PartialEq for Payload {
    fn eq(&self, other: &Payload) -> bool {
        **self == **other
    }
}

impl Eq for Payload {}

impl PartialEq<Vec<u8>> for Payload {
    fn eq(&self, other: &Vec<u8>) -> bool {
        **self == **other
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_moves_the_allocation() {
        let v = vec![1u8, 2, 3, 4];
        let ptr = v.as_ptr();
        let p = Payload::from(v);
        assert_eq!(p.as_ptr(), ptr);
        assert_eq!(p, vec![1, 2, 3, 4]);
    }

    #[test]
    fn clones_and_slices_share_one_allocation() {
        let p = Payload::from(vec![0u8, 1, 2, 3, 4, 5, 6, 7]);
        let q = p.clone();
        let s = p.slice(2..5);
        let t = s.slice(1..);
        assert!(Payload::ptr_eq(&p, &q) && Payload::ptr_eq(&p, &s) && Payload::ptr_eq(&s, &t));
        assert_eq!(&*s, &[2, 3, 4]);
        assert_eq!(&*t, &[3, 4]);
        assert_eq!(p.slice(..=1), vec![0, 1]);
        assert!(p.slice(8..).is_empty());
        assert!(!Payload::ptr_eq(&p, &Payload::from(&*p)));
    }

    #[test]
    fn into_vec_is_free_only_for_a_sole_whole_handle() {
        let v = vec![9u8; 16];
        let ptr = v.as_ptr();
        let p = Payload::from(v);
        let shared = p.clone();
        let copied = shared.into_vec();
        assert_ne!(copied.as_ptr(), ptr);
        assert_eq!(p.slice(4..8).into_vec(), vec![9; 4]);
        let sole = p.into_vec();
        assert_eq!(sole.as_ptr(), ptr);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn slice_past_the_end_panics() {
        let _ = Payload::from(vec![0u8; 4]).slice(2..6);
    }
}
