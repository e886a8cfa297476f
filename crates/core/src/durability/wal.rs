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
//! at most the final record, and the parser stops cleanly at the first
//! record whose length, checksum, or payload is invalid — everything before
//! that point is the legal prefix that recovery replays.
//!
//! Record payloads start with a one-byte op tag. Structural ops (freeze,
//! merge, compact) are logged alongside inserts and deletes because segment
//! boundaries affect approximate search answers: replaying the full op
//! sequence is what makes recovery *bit-identical*, not merely
//! set-equivalent.

use acorn_hnsw::checksum::Crc32;

/// WAL file header: magic plus format version 1.
pub(crate) const WAL_HEADER: [u8; 8] = *b"ACWL\x01\x00\x00\x00";

const OP_INSERT: u8 = 1;
const OP_DELETE: u8 = 2;
const OP_FREEZE: u8 = 3;
const OP_MERGE: u8 = 4;
const OP_COMPACT_ALL: u8 = 5;

/// One logged mutation.
#[derive(Debug, Clone, PartialEq)]
pub enum WalOp {
    /// An inserted vector and the global id the writer assigned it.
    Insert {
        /// The global id the insert returned (checked against the replayed
        /// index so a WAL can never be applied to the wrong snapshot).
        gid: u64,
        /// The inserted vector.
        vector: Vec<f32>,
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

/// A mutation about to be logged: [`WalOp`] with the vector borrowed from
/// the caller, so encoding a record copies the row once — into the record.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Record<'a> {
    Insert { gid: u64, vector: &'a [f32] },
    Delete { gid: u64 },
    Freeze,
    Merge,
    CompactAll,
}

/// The CRC a record carries: its length prefix, then its payload.
fn record_crc(len: &[u8], payload: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(len);
    crc.update(payload);
    crc.finish()
}

/// Replace the contents of `buf` with `rec` as one complete record (length
/// prefix, checksum, payload), ready to be appended with a single write.
pub(crate) fn encode(buf: &mut Vec<u8>, rec: Record<'_>) {
    buf.clear();
    // Length and checksum are known once the payload is in place.
    buf.extend_from_slice(&[0; 8]);
    match rec {
        Record::Insert { gid, vector } => {
            buf.push(OP_INSERT);
            buf.extend_from_slice(&gid.to_le_bytes());
            buf.reserve(vector.len() * 4);
            for v in vector {
                buf.extend_from_slice(&v.to_le_bytes());
            }
        }
        Record::Delete { gid } => {
            buf.push(OP_DELETE);
            buf.extend_from_slice(&gid.to_le_bytes());
        }
        Record::Freeze => buf.push(OP_FREEZE),
        Record::Merge => buf.push(OP_MERGE),
        Record::CompactAll => buf.push(OP_COMPACT_ALL),
    }
    let len = ((buf.len() - 8) as u32).to_le_bytes();
    let crc = record_crc(&len, &buf[8..]);
    buf[..4].copy_from_slice(&len);
    buf[4..8].copy_from_slice(&crc.to_le_bytes());
}

/// Decode the valid prefix of a WAL file.
///
/// Returns the decoded ops and the byte length of the valid region
/// (header included). A missing/corrupt header yields `(vec![], 0)`; a
/// torn or corrupt record stops the scan at the last good record. `dim`
/// bounds insert payloads so a corrupt length can never drive a large
/// allocation.
pub(crate) fn parse(buf: &[u8], dim: usize) -> (Vec<WalOp>, usize) {
    if buf.len() < WAL_HEADER.len() || buf[..WAL_HEADER.len()] != WAL_HEADER {
        return (Vec::new(), 0);
    }
    let max_payload = 1 + 8 + dim.saturating_mul(4);
    let mut ops = Vec::new();
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
        let Some(op) = decode_payload(payload, dim) else { break };
        ops.push(op);
        pos += 8 + len;
    }
    (ops, pos)
}

fn decode_payload(payload: &[u8], dim: usize) -> Option<WalOp> {
    match *payload.first()? {
        OP_INSERT => {
            if payload.len() != 1 + 8 + dim * 4 {
                return None;
            }
            let gid = u64::from_le_bytes(payload[1..9].try_into().unwrap());
            let vector = payload[9..]
                .chunks_exact(4)
                .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
                .collect();
            Some(WalOp::Insert { gid, vector })
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

    fn sample_ops(dim: usize) -> Vec<WalOp> {
        vec![
            WalOp::Insert { gid: 0, vector: (0..dim).map(|i| i as f32).collect() },
            WalOp::Insert { gid: 1, vector: vec![0.5; dim] },
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
        for op in ops {
            let borrowed = match op {
                WalOp::Insert { gid, vector } => Record::Insert { gid: *gid, vector },
                WalOp::Delete { gid } => Record::Delete { gid: *gid },
                WalOp::Freeze => Record::Freeze,
                WalOp::Merge => Record::Merge,
                WalOp::CompactAll => Record::CompactAll,
            };
            encode(&mut rec, borrowed);
            buf.extend_from_slice(&rec);
        }
        buf
    }

    #[test]
    fn roundtrip_all_op_kinds() {
        let dim = 3;
        let ops = sample_ops(dim);
        let buf = file_with(&ops);
        let (got, valid) = parse(&buf, dim);
        assert_eq!(got, ops);
        assert_eq!(valid, buf.len());
    }

    #[test]
    fn torn_tail_yields_the_prefix() {
        let dim = 3;
        let ops = sample_ops(dim);
        let buf = file_with(&ops);
        // Cut the file at every possible byte length; parse must never
        // panic and must always return a prefix of the op list.
        for cut in 0..buf.len() {
            let (got, valid) = parse(&buf[..cut], dim);
            assert!(valid <= cut);
            assert_eq!(got[..], ops[..got.len()], "cut at {cut}");
        }
    }

    #[test]
    fn corrupt_record_stops_the_scan_cleanly() {
        let dim = 2;
        let ops = sample_ops(dim);
        let clean = file_with(&ops);
        // Flip every bit of every byte: the parse must never panic, and the
        // decoded ops must always be a prefix of the original sequence.
        let mut buf = clean.clone();
        for i in 0..buf.len() {
            for bit in 0..8 {
                buf[i] ^= 1 << bit;
                let (got, _) = parse(&buf, dim);
                assert!(got.len() <= ops.len());
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
        let (ops, valid) = parse(&buf, dim);
        assert!(ops.is_empty());
        assert_eq!(valid, WAL_HEADER.len());
    }
}
