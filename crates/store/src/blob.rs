//! The one byte-string type of the store's map and write buffer.
//!
//! Every key and record the engine writes is short: `dagt ‖ agent` is 8
//! bytes, `dhst ‖ step ‖ agent` 12, a record 8–12, a counter 8. A
//! [`Blob`] holds such a string inline, in the room a shared [`Bytes`]
//! handle takes, so writing, overwriting, walking and evicting it
//! allocate nothing and comparing two keys follows no pointer. Longer
//! strings stay shared `Bytes`, so a large value is still stored and
//! read back without a copy.

use std::borrow::Borrow;
use std::fmt;
use std::hash::{Hash, Hasher};

use bytes::Bytes;

/// The longest key or value a [`Blob`] holds inline.
pub(crate) const INLINE: usize = 22;

/// A key or value of the store: inline up to [`INLINE`] bytes, a shared
/// [`Bytes`] above. Which one a string is depends only on its length, so
/// equality, order and hash are those of the bytes.
#[derive(Clone)]
pub(crate) enum Blob {
    Inline { len: u8, bytes: [u8; INLINE] },
    Shared(Bytes),
}

impl Blob {
    /// Copies `data`: inline when it is short, else into new shared
    /// storage.
    #[inline]
    pub(crate) fn copy_from_slice(data: &[u8]) -> Blob {
        if data.len() > INLINE {
            return Blob::Shared(Bytes::copy_from_slice(data));
        }
        let mut bytes = [0u8; INLINE];
        bytes[..data.len()].copy_from_slice(data);
        Blob::Inline {
            len: data.len() as u8,
            bytes,
        }
    }

    /// Takes `data`, or copies it inline (dropping the handle) when it is
    /// short.
    #[inline]
    pub(crate) fn from_bytes(data: Bytes) -> Blob {
        if data.len() > INLINE {
            Blob::Shared(data)
        } else {
            Blob::copy_from_slice(&data)
        }
    }

    /// Shares `data`, or copies it inline when it is short.
    #[inline]
    pub(crate) fn from_shared(data: &Bytes) -> Blob {
        if data.len() > INLINE {
            Blob::Shared(data.clone())
        } else {
            Blob::copy_from_slice(data)
        }
    }

    #[inline]
    pub(crate) fn as_slice(&self) -> &[u8] {
        match self {
            Blob::Inline { len, bytes } => &bytes[..usize::from(*len)],
            Blob::Shared(data) => data,
        }
    }

    /// The bytes as a [`Bytes`]: a refcount bump when shared, a copy
    /// when inline.
    pub(crate) fn to_bytes(&self) -> Bytes {
        match self {
            Blob::Inline { .. } => Bytes::copy_from_slice(self.as_slice()),
            Blob::Shared(data) => data.clone(),
        }
    }
}

impl PartialEq for Blob {
    #[inline]
    fn eq(&self, other: &Blob) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Blob {}

/// Hashes exactly as the slice does, which is what lets the map be probed
/// with a `&[u8]`.
impl Hash for Blob {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl Borrow<[u8]> for Blob {
    #[inline]
    fn borrow(&self) -> &[u8] {
        self.as_slice()
    }
}

impl fmt::Debug for Blob {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.as_slice().fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::{key_hash, KeyHasher};
    use std::hash::{BuildHasher, BuildHasherDefault};

    /// Lengths on both sides of the inline limit.
    const LENGTHS: [usize; 6] = [0, 1, INLINE - 1, INLINE, INLINE + 1, 64];

    #[test]
    fn inline_costs_no_more_room_than_a_shared_handle() {
        assert_eq!(std::mem::size_of::<Blob>(), std::mem::size_of::<Bytes>());
    }

    #[test]
    fn short_strings_are_inline_and_long_ones_shared() {
        for len in LENGTHS {
            let data: Vec<u8> = (0..len as u8).collect();
            let shared = Bytes::from(data.clone());
            for blob in [
                Blob::copy_from_slice(&data),
                Blob::from_bytes(shared.clone()),
                Blob::from_shared(&shared),
            ] {
                assert_eq!(blob.as_slice(), &data[..], "length {len}");
                assert_eq!(matches!(blob, Blob::Inline { .. }), len <= INLINE);
                assert_eq!(blob.to_bytes(), shared);
            }
        }
    }

    /// The map is probed with `&[u8]` and filled with `Blob`s, so a key
    /// must hash the same either way, inline or shared.
    #[test]
    fn the_map_hash_of_a_key_is_the_hash_of_its_slice() {
        let map_hash = BuildHasherDefault::<KeyHasher>::default();
        for len in LENGTHS {
            let key: Vec<u8> = (0..len).map(|i| (i * 37 + 5) as u8).collect();
            let shared = Blob::Shared(Bytes::from(key.clone()));
            assert_eq!(
                map_hash.hash_one(Blob::copy_from_slice(&key)),
                key_hash(&key)
            );
            assert_eq!(map_hash.hash_one(&shared), key_hash(&key), "length {len}");
        }
    }
}
