//! Minimal stand-in for the `bytes` crate, used only for offline local
//! verification. API-compatible with the subset cgx uses.

use std::sync::Arc;

pub trait BufMut {
    fn put_u64_le(&mut self, v: u64);
    fn put_u32_le(&mut self, v: u32);
    fn put_u16_le(&mut self, v: u16);
    fn put_slice(&mut self, s: &[u8]);
}

#[derive(Debug, Default)]
pub struct BytesMut {
    vec: Vec<u8>,
}

impl BytesMut {
    pub fn new() -> Self {
        BytesMut { vec: Vec::new() }
    }

    pub fn with_capacity(cap: usize) -> Self {
        BytesMut {
            vec: Vec::with_capacity(cap),
        }
    }

    pub fn len(&self) -> usize {
        self.vec.len()
    }

    pub fn is_empty(&self) -> bool {
        self.vec.is_empty()
    }

    pub fn capacity(&self) -> usize {
        self.vec.capacity()
    }

    pub fn clear(&mut self) {
        self.vec.clear();
    }

    pub fn reserve(&mut self, additional: usize) {
        self.vec.reserve(additional);
    }

    pub fn truncate(&mut self, len: usize) {
        self.vec.truncate(len);
    }

    pub fn resize(&mut self, new_len: usize, value: u8) {
        self.vec.resize(new_len, value);
    }

    pub fn extend_from_slice(&mut self, s: &[u8]) {
        self.vec.extend_from_slice(s);
    }

    pub fn put_u8(&mut self, v: u8) {
        self.vec.push(v);
    }

    pub fn freeze(self) -> Bytes {
        Bytes {
            data: Arc::new(self.vec),
        }
    }
}

impl BufMut for BytesMut {
    fn put_u64_le(&mut self, v: u64) {
        self.vec.extend_from_slice(&v.to_le_bytes());
    }

    fn put_u32_le(&mut self, v: u32) {
        self.vec.extend_from_slice(&v.to_le_bytes());
    }

    fn put_u16_le(&mut self, v: u16) {
        self.vec.extend_from_slice(&v.to_le_bytes());
    }

    fn put_slice(&mut self, s: &[u8]) {
        self.vec.extend_from_slice(s);
    }
}

impl std::ops::Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.vec
    }
}

impl std::ops::DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.vec
    }
}

impl PartialEq for BytesMut {
    fn eq(&self, other: &Self) -> bool {
        self.vec == other.vec
    }
}
impl Eq for BytesMut {}

#[derive(Debug, Clone)]
pub struct Bytes {
    data: Arc<Vec<u8>>,
}

impl Bytes {
    pub fn new() -> Self {
        Bytes {
            data: Arc::new(Vec::new()),
        }
    }

    pub fn from_static(s: &'static [u8]) -> Self {
        Bytes {
            data: Arc::new(s.to_vec()),
        }
    }

    pub fn copy_from_slice(s: &[u8]) -> Self {
        Bytes {
            data: Arc::new(s.to_vec()),
        }
    }

    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    pub fn slice(&self, range: impl std::ops::RangeBounds<usize>) -> Bytes {
        use std::ops::Bound;
        let start = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.data.len(),
        };
        Bytes {
            data: Arc::new(self.data[start..end].to_vec()),
        }
    }

    pub fn try_into_mut(self) -> Result<BytesMut, Bytes> {
        match Arc::try_unwrap(self.data) {
            Ok(vec) => Ok(BytesMut { vec }),
            Err(data) => Err(Bytes { data }),
        }
    }
}

impl Default for Bytes {
    fn default() -> Self {
        Bytes::new()
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(vec: Vec<u8>) -> Self {
        Bytes {
            data: Arc::new(vec),
        }
    }
}

impl From<BytesMut> for Bytes {
    fn from(b: BytesMut) -> Self {
        b.freeze()
    }
}

impl std::ops::Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        &self.data
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.data == other.data
    }
}
impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.data.as_slice() == other
    }
}

impl std::hash::Hash for Bytes {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.data.hash(state);
    }
}
