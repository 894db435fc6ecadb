//! An immutable, cheaply cloneable byte buffer.
//!
//! [`Bytes`] is what every payload in the workspace is carried in: an
//! `Arc<Vec<u8>>` plus the range of it this handle views. Cloning and
//! [`Bytes::slice`] share the allocation, so handing a payload to another
//! rank, or stripping a frame header off it, moves a pointer and not the
//! bytes. Writers build a plain `Vec<u8>` and convert it once with
//! `Bytes::from`; [`Bytes::try_into_vec`] gives that `Vec` back to a buffer
//! pool when nothing else still views it.

use std::hash::{Hash, Hasher};
use std::ops::{Bound, Deref, Range, RangeBounds};
use std::sync::Arc;

/// A reference-counted view of a byte buffer. Equality and hashing are by
/// content, like a `[u8]`.
///
/// # Examples
///
/// ```
/// use cgx_tensor::Bytes;
/// let frame = Bytes::from(vec![0xC6, 0x01, 7, 8, 9]);
/// let body = frame.slice(2..);
/// assert_eq!(&body[..], &[7, 8, 9]);
/// assert_eq!(body.as_ptr(), frame[2..].as_ptr()); // same allocation
/// ```
#[derive(Clone, Default)]
pub struct Bytes {
    data: Arc<Vec<u8>>,
    range: Range<usize>,
}

impl Bytes {
    /// A buffer holding a copy of `bytes`.
    pub fn copy_from_slice(bytes: &[u8]) -> Self {
        Self::from(bytes.to_vec())
    }

    /// A view of `range` within this one, sharing the allocation.
    ///
    /// # Panics
    ///
    /// Panics if `range` is decreasing or ends past [`len`](#method.len),
    /// like slicing a `[u8]`.
    #[must_use]
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Self {
        let start = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len(),
        };
        assert!(
            start <= end && end <= self.len(),
            "range {start}..{end} out of bounds for Bytes of length {}",
            self.len()
        );
        Bytes {
            data: Arc::clone(&self.data),
            range: self.range.start + start..self.range.start + end,
        }
    }

    /// Gives the underlying `Vec` back when this is the only handle to it
    /// and views all of it (a buffer pool then reuses its capacity).
    ///
    /// # Errors
    ///
    /// Hands `self` back unchanged when a clone or a slice still shares the
    /// allocation, or when this handle is itself a strict slice.
    pub fn try_into_vec(self) -> Result<Vec<u8>, Bytes> {
        if self.range != (0..self.data.len()) {
            return Err(self);
        }
        let range = self.range;
        Arc::try_unwrap(self.data).map_err(|data| Bytes { data, range })
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(vec: Vec<u8>) -> Self {
        Bytes {
            range: 0..vec.len(),
            data: Arc::new(vec),
        }
    }
}

impl Deref for Bytes {
    type Target = [u8];
    #[inline]
    fn deref(&self) -> &[u8] {
        &self.data[self.range.clone()]
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(&**self, f)
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for Bytes {}

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (**self).hash(state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn slices_share_the_allocation_and_compose() {
        let whole = Bytes::from((0u8..32).collect::<Vec<_>>());
        let mid = whole.slice(4..20);
        assert_eq!(mid.as_ptr(), whole[4..].as_ptr());
        assert_eq!(mid.len(), 16);
        let inner = mid.slice(2..=5);
        assert_eq!(inner.as_ptr(), whole[6..].as_ptr());
        assert_eq!(&inner[..], &[6, 7, 8, 9]);
        assert_eq!(&mid.slice(..3)[..], &[4, 5, 6]);
        assert!(mid.slice(16..).is_empty());
        assert_eq!(whole.clone().as_ptr(), whole.as_ptr());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn slice_past_the_end_panics_like_a_slice() {
        let _ = Bytes::from(vec![1, 2, 3]).slice(1..2).slice(0..2);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn decreasing_slice_panics_like_a_slice() {
        #[allow(clippy::reversed_empty_ranges)]
        let _ = Bytes::from(vec![1, 2, 3]).slice(2..1);
    }

    #[test]
    fn the_vec_comes_back_only_to_a_unique_whole_handle() {
        let bytes = Bytes::from(vec![1, 2, 3]);
        let clone = bytes.clone();
        let bytes = bytes.try_into_vec().expect_err("a clone is alive");
        drop(clone);
        let tail = bytes.slice(1..);
        let bytes = bytes.try_into_vec().expect_err("a slice is alive");
        assert_eq!(&bytes[..], &[1, 2, 3], "handed back unchanged");
        drop(bytes);
        let tail = tail.try_into_vec().expect_err("unique, but a strict slice");
        assert_eq!(&tail[..], &[2, 3]);

        let mut vec = Vec::with_capacity(64);
        vec.extend_from_slice(&[1, 2, 3]);
        let ptr = vec.as_ptr();
        let first = Bytes::from(vec);
        let whole = first.slice(..);
        drop(first);
        let back = whole.try_into_vec().expect("unique and whole");
        assert_eq!(
            (back.as_ptr(), back.capacity(), &back[..]),
            (ptr, 64, &[1u8, 2, 3][..])
        );
    }

    #[test]
    fn equality_and_hash_are_by_content() {
        let a = Bytes::from(vec![9, 1, 2, 3]).slice(1..);
        let b = Bytes::copy_from_slice(&[1, 2, 3]);
        assert_eq!(a, b);
        assert_ne!(a, Bytes::copy_from_slice(&[1, 2]));
        assert_eq!(Bytes::default(), Bytes::from(vec![7]).slice(1..));
        let set: HashSet<Bytes> = [a, b].into_iter().collect();
        assert_eq!(set.len(), 1);
        assert_eq!(format!("{:?}", Bytes::from(vec![1, 2])), "[1, 2]");
    }
}
