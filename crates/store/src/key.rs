//! Interned store keys.
//!
//! A [`Key`] is a byte string built **once** and kept: a fixed-width
//! binary encoding (`tag ‖ id`) in a refcounted [`Bytes`], cheap to clone
//! and to hand to [`crate::Txn::set_key`] / [`crate::Txn::incr_key`]
//! (the counter bump takes one). Interning is not what keeps a commit free
//! of allocations: the store holds every key of at most 22 bytes inline,
//! so a key built on the stack and written through
//! [`crate::Txn::set_slice`] allocates nothing either — which is how the
//! dependency-graph records are written.

use std::fmt;

use bytes::Bytes;

/// An interned, cheaply-cloneable store key.
///
/// Construct once, then reuse: [`Key::clone`] never copies the underlying
/// bytes, and a batch stores a short key inline and shares a long one.
///
/// # Example
///
/// ```
/// use aim_store::{Db, Key};
///
/// # fn main() -> Result<(), aim_store::StoreError> {
/// let db = Db::new();
/// let key = Key::tagged_u32(*b"agnt", 7);
/// assert_eq!(key.as_ref(), b"agnt\x00\x00\x00\x07");
/// db.transaction(|txn| {
///     txn.set_key(&key, vec![1, 2, 3]);
///     Ok(())
/// })?;
/// assert_eq!(db.get(&key).as_deref(), Some(&[1u8, 2, 3][..]));
/// # Ok(())
/// # }
/// ```
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Key(Bytes);

impl Key {
    /// Interns an arbitrary byte string as a key.
    pub fn new(bytes: impl Into<Bytes>) -> Self {
        Key(bytes.into())
    }

    /// Builds the fixed-width (8-byte) binary key `tag ‖ id_be`: a 4-byte
    /// namespace tag followed by the big-endian id. Keys of the same tag
    /// sort by id.
    pub fn tagged_u32(tag: [u8; 4], id: u32) -> Self {
        let mut raw = [0u8; 8];
        raw[..4].copy_from_slice(&tag);
        raw[4..].copy_from_slice(&id.to_be_bytes());
        Key(Bytes::copy_from_slice(&raw))
    }

    /// Builds the fixed-width (12-byte) binary key `tag ‖ a_be ‖ b_be`: a
    /// 4-byte namespace tag followed by two big-endian ids. Keys of one
    /// tag sort by `a` first, then `b` — the layout of the dependency
    /// graph's per-step history records (`a` = step, `b` = agent), which
    /// makes an ordered prefix walk visit steps oldest-first.
    pub fn tagged_u32_pair(tag: [u8; 4], a: u32, b: u32) -> Self {
        let mut raw = [0u8; 12];
        raw[..4].copy_from_slice(&tag);
        raw[4..8].copy_from_slice(&a.to_be_bytes());
        raw[8..].copy_from_slice(&b.to_be_bytes());
        Key(Bytes::copy_from_slice(&raw))
    }

    /// The interned bytes (shared, not copied).
    pub fn bytes(&self) -> &Bytes {
        &self.0
    }
}

impl AsRef<[u8]> for Key {
    fn as_ref(&self) -> &[u8] {
        self.0.as_ref()
    }
}

impl fmt::Debug for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Key(")?;
        for &b in self.0.as_ref() {
            if (b' '..=b'~').contains(&b) {
                write!(f, "{}", b as char)?;
            } else {
                write!(f, "\\x{b:02x}")?;
            }
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tagged_layout_and_order() {
        let a = Key::tagged_u32(*b"dagt", 1);
        let b = Key::tagged_u32(*b"dagt", 256);
        assert_eq!(a.as_ref().len(), 8);
        assert_eq!(&a.as_ref()[..4], b"dagt");
        assert!(a < b, "keys of one tag must sort by id");
    }

    #[test]
    fn tagged_pair_layout_and_order() {
        let k = Key::tagged_u32_pair(*b"dhst", 2, 3);
        assert_eq!(k.as_ref().len(), 12);
        assert_eq!(&k.as_ref()[..4], b"dhst");
        // Sorts by the first id, then the second.
        let later_step = Key::tagged_u32_pair(*b"dhst", 3, 0);
        let later_agent = Key::tagged_u32_pair(*b"dhst", 2, 4);
        assert!(k < later_agent && later_agent < later_step);
    }

    #[test]
    fn clone_shares_storage() {
        let a = Key::new(vec![1u8; 64]);
        let b = a.clone();
        assert_eq!(a.as_ref().as_ptr(), b.as_ref().as_ptr());
    }

    #[test]
    fn debug_renders_mixed_bytes() {
        let k = Key::tagged_u32(*b"dagt", 0x41);
        assert_eq!(format!("{k:?}"), "Key(dagt\\x00\\x00\\x00A)");
    }
}
