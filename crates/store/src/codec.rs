//! Minimal big-endian encode/decode helpers for structured store values.
//!
//! Values in [`crate::Db`] are raw bytes. The engine stores small fixed
//! records (agent step + coordinates, edge lists); these helpers keep that
//! encoding in one place and give decode failures a typed error instead of
//! a panic.
//!
//! All integers are big-endian so that encoded keys also sort numerically,
//! which makes `scan_prefix` output meaningfully ordered.
//!
//! # Example
//!
//! ```
//! use aim_store::codec;
//! use bytes::{Bytes, BytesMut};
//!
//! let mut buf = BytesMut::new();
//! codec::put_u32(&mut buf, 17);
//! codec::put_i32(&mut buf, -4);
//! codec::put_str(&mut buf, "cafe");
//!
//! let mut rd = Bytes::from(buf.freeze());
//! assert_eq!(codec::get_u32(&mut rd).unwrap(), 17);
//! assert_eq!(codec::get_i32(&mut rd).unwrap(), -4);
//! assert_eq!(codec::get_str(&mut rd).unwrap(), "cafe");
//! ```

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::error::StoreError;

/// Refuses a read of `n` bytes for `what` from a buffer that holds fewer.
pub(crate) fn need(buf: &Bytes, n: usize, what: &str) -> Result<(), StoreError> {
    if buf.remaining() < n {
        return Err(StoreError::Codec(format!(
            "truncated: need {n} bytes for {what}, have {}",
            buf.remaining()
        )));
    }
    Ok(())
}

/// Appends a `u32` (big-endian).
pub fn put_u32(buf: &mut BytesMut, v: u32) {
    buf.put_u32(v);
}

/// Reads a `u32`.
///
/// # Errors
///
/// Returns [`StoreError::Codec`] if fewer than 4 bytes remain.
pub fn get_u32(buf: &mut Bytes) -> Result<u32, StoreError> {
    need(buf, 4, "u32")?;
    Ok(buf.get_u32())
}

/// Appends a `u64` (big-endian).
pub fn put_u64(buf: &mut BytesMut, v: u64) {
    buf.put_u64(v);
}

/// Reads a `u64`.
///
/// # Errors
///
/// Returns [`StoreError::Codec`] if fewer than 8 bytes remain.
pub fn get_u64(buf: &mut Bytes) -> Result<u64, StoreError> {
    need(buf, 8, "u64")?;
    Ok(buf.get_u64())
}

/// Appends an `i32` (big-endian, two's complement).
pub fn put_i32(buf: &mut BytesMut, v: i32) {
    buf.put_i32(v);
}

/// Reads an `i32`.
///
/// # Errors
///
/// Returns [`StoreError::Codec`] if fewer than 4 bytes remain.
pub fn get_i32(buf: &mut Bytes) -> Result<i32, StoreError> {
    need(buf, 4, "i32")?;
    Ok(buf.get_i32())
}

/// Reads an `i64`.
///
/// # Errors
///
/// Returns [`StoreError::Codec`] if fewer than 8 bytes remain.
pub fn get_i64(buf: &mut Bytes) -> Result<i64, StoreError> {
    need(buf, 8, "i64")?;
    Ok(buf.get_i64())
}

/// Decodes a whole value as one big-endian `i64` (the on-disk shape of
/// counters written by [`crate::Txn::set_i64`], [`crate::Db::set_i64`],
/// and [`crate::Db::incr`]).
///
/// This is the single authority for the "integer value" encoding; the
/// transaction and database layers both delegate here so the two can
/// never drift.
///
/// # Errors
///
/// Returns [`StoreError::Codec`] if the value is not exactly 8 bytes.
pub fn i64_value(value: &[u8]) -> Result<i64, StoreError> {
    let raw: [u8; 8] = value.try_into().map_err(|_| {
        StoreError::Codec(format!(
            "expected 8-byte integer value, got {}",
            value.len()
        ))
    })?;
    Ok(i64::from_be_bytes(raw))
}

/// Encodes an `i64` as the 8-byte big-endian value [`i64_value`] reads.
pub fn i64_bytes(value: i64) -> [u8; 8] {
    value.to_be_bytes()
}

/// Appends a UTF-8 string with a `u32` length prefix.
pub fn put_str(buf: &mut BytesMut, s: &str) {
    buf.put_u32(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

/// Reads a length-prefixed UTF-8 string.
///
/// # Errors
///
/// Returns [`StoreError::Codec`] on truncation or invalid UTF-8.
pub fn get_str(buf: &mut Bytes) -> Result<String, StoreError> {
    let len = get_u32(buf)? as usize;
    need(buf, len, "string body")?;
    let raw = buf.split_to(len);
    String::from_utf8(raw.to_vec())
        .map_err(|e| StoreError::Codec(format!("invalid utf-8 string: {e}")))
}

/// Appends a list of `u32` values with a `u32` count prefix.
pub fn put_u32_list(buf: &mut BytesMut, vs: &[u32]) {
    buf.put_u32(vs.len() as u32);
    for v in vs {
        buf.put_u32(*v);
    }
}

/// Reads a count-prefixed list of `u32` values.
///
/// # Errors
///
/// Returns [`StoreError::Codec`] on truncation.
pub fn get_u32_list(buf: &mut Bytes) -> Result<Vec<u32>, StoreError> {
    let n = get_u32(buf)? as usize;
    need(buf, n.saturating_mul(4), "u32 list body")?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(buf.get_u32());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_primitives() {
        let mut buf = BytesMut::new();
        put_u32(&mut buf, u32::MAX);
        put_u64(&mut buf, u64::MAX - 1);
        put_i32(&mut buf, i32::MIN);
        buf.put_i64(-42);
        put_str(&mut buf, "héllo");
        put_u32_list(&mut buf, &[1, 2, 3]);
        let mut rd = Bytes::from(buf.freeze());
        assert_eq!(get_u32(&mut rd).unwrap(), u32::MAX);
        assert_eq!(get_u64(&mut rd).unwrap(), u64::MAX - 1);
        assert_eq!(get_i32(&mut rd).unwrap(), i32::MIN);
        assert_eq!(get_i64(&mut rd).unwrap(), -42);
        assert_eq!(get_str(&mut rd).unwrap(), "héllo");
        assert_eq!(get_u32_list(&mut rd).unwrap(), vec![1, 2, 3]);
        assert_eq!(rd.remaining(), 0);
    }

    #[test]
    fn truncated_reads_error() {
        let mut rd = Bytes::from_static(&[0, 0]);
        assert!(matches!(get_u32(&mut rd), Err(StoreError::Codec(_))));
        let mut rd = Bytes::from_static(&[0, 0, 0, 5, b'a']);
        assert!(matches!(get_str(&mut rd), Err(StoreError::Codec(_))));
    }

    #[test]
    fn invalid_utf8_errors() {
        let mut buf = BytesMut::new();
        buf.put_u32(2);
        buf.put_slice(&[0xff, 0xfe]);
        let mut rd = Bytes::from(buf.freeze());
        assert!(matches!(get_str(&mut rd), Err(StoreError::Codec(_))));
    }

    #[test]
    fn empty_list_and_string() {
        let mut buf = BytesMut::new();
        put_str(&mut buf, "");
        put_u32_list(&mut buf, &[]);
        let mut rd = Bytes::from(buf.freeze());
        assert_eq!(get_str(&mut rd).unwrap(), "");
        assert!(get_u32_list(&mut rd).unwrap().is_empty());
    }

    #[test]
    fn huge_list_count_is_rejected_not_oom() {
        // A corrupt count prefix must error out instead of allocating.
        let mut buf = BytesMut::new();
        buf.put_u32(u32::MAX);
        let mut rd = Bytes::from(buf.freeze());
        assert!(matches!(get_u32_list(&mut rd), Err(StoreError::Codec(_))));
    }
}
