//! Write-ahead-log record codec.
//!
//! A WAL file is an 8-byte header (`b"ACWL"` + format version) followed by
//! length-prefixed records:
//!
//! ```text
//! | len: u32 | crc: u32 | payload: len bytes |
//! ```
//!
//! `crc` is the CRC32 of the length prefix plus the payload, so neither a
//! corrupted length nor a corrupted body can slip through. Each record is
//! encoded into the store's one reusable buffer, straight from the caller's
//! slice, and appended with a **single** write call; a crash therefore tears
//! at most the final record, and `replay` stops cleanly at the first
//! record whose length, checksum, or payload is invalid — everything before
//! that point is the legal prefix that recovery replays. An op borrows its
//! vector in both directions: from the caller's slice when logged, from one
//! reusable row buffer when replayed.
//!
//! Record payloads start with a one-byte op tag. Structural ops (freeze,
//! merge, compact) are logged alongside inserts and deletes because segment
//! boundaries affect approximate search answers: replaying the full op
//! sequence is what makes recovery *bit-identical*, not merely
//! set-equivalent.

use std::io;

use acorn_hnsw::checksum::Crc32;

/// WAL file header: magic plus format version 1.
pub(crate) const WAL_HEADER: [u8; 8] = *b"ACWL\x01\x00\x00\x00";

const OP_INSERT: u8 = 1;
const OP_DELETE: u8 = 2;
const OP_FREEZE: u8 = 3;
const OP_MERGE: u8 = 4;
const OP_COMPACT_ALL: u8 = 5;

/// One logged mutation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WalOp<'a> {
    /// An inserted vector and the global id the writer assigned it.
    Insert {
        /// The global id the insert returned (checked against the replayed
        /// index so a WAL can never be applied to the wrong snapshot).
        gid: u64,
        /// The inserted vector.
        vector: &'a [f32],
    },
    /// A tombstone for `gid`.
    Delete {
        /// The deleted global id.
        gid: u64,
    },
    /// The active segment was sealed ([`SegmentedAcornIndex::freeze`]).
    ///
    /// [`SegmentedAcornIndex::freeze`]: crate::SegmentedAcornIndex::freeze
    Freeze,
    /// A policy-driven merge pass ran ([`SegmentedAcornIndex::merge`]).
    ///
    /// [`SegmentedAcornIndex::merge`]: crate::SegmentedAcornIndex::merge
    Merge,
    /// A full compaction ran ([`SegmentedAcornIndex::compact_all`]).
    ///
    /// [`SegmentedAcornIndex::compact_all`]: crate::SegmentedAcornIndex::compact_all
    CompactAll,
}

/// The CRC a record carries: its length prefix, then its payload.
fn record_crc(len: &[u8], payload: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(len);
    crc.update(payload);
    crc.finish()
}

/// Replace the contents of `buf` with `op` as one complete record (length
/// prefix, checksum, payload), ready to be appended with a single write.
pub(crate) fn encode(buf: &mut Vec<u8>, op: WalOp<'_>) {
    buf.clear();
    // Length and checksum are known once the payload is in place.
    buf.extend_from_slice(&[0; 8]);
    match op {
        WalOp::Insert { gid, vector } => {
            buf.push(OP_INSERT);
            buf.extend_from_slice(&gid.to_le_bytes());
            buf.reserve(vector.len() * 4);
            for v in vector {
                buf.extend_from_slice(&v.to_le_bytes());
            }
        }
        WalOp::Delete { gid } => {
            buf.push(OP_DELETE);
            buf.extend_from_slice(&gid.to_le_bytes());
        }
        WalOp::Freeze => buf.push(OP_FREEZE),
        WalOp::Merge => buf.push(OP_MERGE),
        WalOp::CompactAll => buf.push(OP_COMPACT_ALL),
    }
    let len = ((buf.len() - 8) as u32).to_le_bytes();
    let crc = record_crc(&len, &buf[8..]);
    buf[..4].copy_from_slice(&len);
    buf[4..8].copy_from_slice(&crc.to_le_bytes());
}

/// Replay the valid prefix of a WAL file: hand each op to `apply` as it
/// is decoded.
///
/// Returns the number of ops applied and the byte length of the valid
/// region (header included), or the first error `apply` returned. A
/// missing/corrupt header yields `(0, 0)`; a torn or corrupt record stops
/// the scan at the last good record. `dim` bounds insert payloads so a
/// corrupt length can never drive a large allocation; every insert is
/// decoded into the same `dim`-float buffer.
pub(crate) fn replay(
    buf: &[u8],
    dim: usize,
    mut apply: impl FnMut(WalOp<'_>) -> io::Result<()>,
) -> io::Result<(u64, usize)> {
    if buf.len() < WAL_HEADER.len() || buf[..WAL_HEADER.len()] != WAL_HEADER {
        return Ok((0, 0));
    }
    let max_payload = 1 + 8 + dim.saturating_mul(4);
    let mut row = Vec::with_capacity(dim);
    let mut ops = 0;
    let mut pos = WAL_HEADER.len();
    while let Some(rest) = buf.get(pos + 8..) {
        let len = u32::from_le_bytes(buf[pos..pos + 4].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(buf[pos + 4..pos + 8].try_into().unwrap());
        if len == 0 || len > max_payload || rest.len() < len {
            break;
        }
        let payload = &rest[..len];
        if record_crc(&buf[pos..pos + 4], payload) != crc {
            break;
        }
        let Some(op) = decode_payload(payload, dim, &mut row) else { break };
        apply(op)?;
        ops += 1;
        pos += 8 + len;
    }
    Ok((ops, pos))
}

fn decode_payload<'a>(payload: &[u8], dim: usize, row: &'a mut Vec<f32>) -> Option<WalOp<'a>> {
    match *payload.first()? {
        OP_INSERT => {
            if payload.len() != 1 + 8 + dim * 4 {
                return None;
            }
            let gid = u64::from_le_bytes(payload[1..9].try_into().unwrap());
            row.clear();
            row.extend(
                payload[9..].chunks_exact(4).map(|c| f32::from_le_bytes(c.try_into().unwrap())),
            );
            Some(WalOp::Insert { gid, vector: row })
        }
        OP_DELETE if payload.len() == 9 => {
            Some(WalOp::Delete { gid: u64::from_le_bytes(payload[1..9].try_into().unwrap()) })
        }
        OP_FREEZE if payload.len() == 1 => Some(WalOp::Freeze),
        OP_MERGE if payload.len() == 1 => Some(WalOp::Merge),
        OP_COMPACT_ALL if payload.len() == 1 => Some(WalOp::CompactAll),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_rows(dim: usize) -> [Vec<f32>; 2] {
        [(0..dim).map(|i| i as f32).collect(), vec![0.5; dim]]
    }

    fn sample_ops(rows: &[Vec<f32>; 2]) -> Vec<WalOp<'_>> {
        vec![
            WalOp::Insert { gid: 0, vector: &rows[0] },
            WalOp::Insert { gid: 1, vector: &rows[1] },
            WalOp::Delete { gid: 0 },
            WalOp::Freeze,
            WalOp::Merge,
            WalOp::CompactAll,
        ]
    }

    fn file_with(ops: &[WalOp]) -> Vec<u8> {
        let mut buf = WAL_HEADER.to_vec();
        // One buffer across records, as the store reuses its own: a long
        // record followed by a short one must leave nothing behind.
        let mut rec = Vec::new();
        for &op in ops {
            encode(&mut rec, op);
            buf.extend_from_slice(&rec);
        }
        buf
    }

    /// Replay `buf`, holding the `i`-th decoded op to `ops[i]`: what comes
    /// back is a prefix of `ops`. Returns its length and the valid bytes.
    fn replay_prefix(buf: &[u8], dim: usize, ops: &[WalOp], what: &str) -> (usize, usize) {
        let mut got = 0;
        let (n, valid) = replay(buf, dim, |op| {
            assert_eq!(Some(&op), ops.get(got), "{what}: op {got}");
            got += 1;
            Ok(())
        })
        .unwrap();
        assert_eq!(n as usize, got);
        (got, valid)
    }

    #[test]
    fn roundtrip_all_op_kinds() {
        let dim = 3;
        let rows = sample_rows(dim);
        let ops = sample_ops(&rows);
        let buf = file_with(&ops);
        let (got, valid) = replay_prefix(&buf, dim, &ops, "clean file");
        assert_eq!(got, ops.len());
        assert_eq!(valid, buf.len());
    }

    #[test]
    fn torn_tail_yields_the_prefix() {
        let dim = 3;
        let rows = sample_rows(dim);
        let ops = sample_ops(&rows);
        let buf = file_with(&ops);
        // Cut the file at every possible byte length; replay must never
        // panic and must always yield a prefix of the op list.
        for cut in 0..buf.len() {
            let (_, valid) = replay_prefix(&buf[..cut], dim, &ops, &format!("cut at {cut}"));
            assert!(valid <= cut);
        }
    }

    #[test]
    fn corrupt_record_stops_the_scan_cleanly() {
        let dim = 2;
        let rows = sample_rows(dim);
        let ops = sample_ops(&rows);
        let clean = file_with(&ops);
        // Flip every bit of every byte: the replay must never panic, and
        // never yield more ops than were logged.
        let mut buf = clean.clone();
        for i in 0..buf.len() {
            for bit in 0..8 {
                buf[i] ^= 1 << bit;
                let (got, _) = replay(&buf, dim, |_| Ok(())).unwrap();
                assert!(got as usize <= ops.len());
                buf[i] ^= 1 << bit;
            }
        }
    }

    #[test]
    fn corrupt_length_cannot_drive_a_large_allocation() {
        let dim = 4;
        let mut buf = WAL_HEADER.to_vec();
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        buf.extend_from_slice(&[0u8; 4]);
        buf.extend_from_slice(&[7u8; 64]);
        let (ops, valid) = replay(&buf, dim, |_| Ok(())).unwrap();
        assert_eq!(ops, 0);
        assert_eq!(valid, WAL_HEADER.len());
    }

    #[test]
    fn an_error_from_apply_stops_the_replay() {
        let dim = 3;
        let rows = sample_rows(dim);
        let buf = file_with(&sample_ops(&rows));
        let mut seen = 0;
        let err = replay(&buf, dim, |_| {
            seen += 1;
            if seen == 3 {
                Err(io::Error::other("refused"))
            } else {
                Ok(())
            }
        })
        .unwrap_err();
        assert_eq!((seen, err.to_string().as_str()), (3, "refused"));
    }
}
