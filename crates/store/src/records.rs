//! CRC-framed append-only record format — the wire format of the job
//! journal and any other log the store keeps.
//!
//! Each record is framed as
//!
//! ```text
//! [len: u32 LE] [crc32(payload): u32 LE] [payload: len bytes]
//! ```
//!
//! and appended to the file. The reader walks frames from the front and
//! stops at the first invalid one, returning every record before it plus a
//! [`Tail`] classification:
//!
//! * [`Tail::Clean`] — the file ends exactly on a frame boundary.
//! * [`Tail::Torn`] — the trailing frame is incomplete (fewer bytes than
//!   its header promises, or a partial header). This is the *expected*
//!   result of a crash mid-append and is not an error: append-only logs
//!   have prefix semantics, and a torn tail is simply the record that never
//!   committed.
//! * [`Tail::Corrupt`] — a full-length frame whose payload fails its CRC,
//!   or a length field too large to be real. Bit rot, not a crash; callers
//!   should quarantine the file rather than silently truncate it.
//!
//! Because every reader stops at the first bad frame, the observable
//! content of a journal is always a *prefix* of the records appended — the
//! property the recovery proptest pins.

use crate::codec::{ByteReader, ByteWriter};
use crate::crc::crc32;

/// Hard sanity bound on a single record (16 MiB). A length field above
/// this is treated as corruption rather than attempting a huge allocation.
pub(crate) const MAX_RECORD_LEN: u32 = 16 << 20;

/// How the record stream ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tail {
    /// Ended exactly on a frame boundary.
    Clean,
    /// Trailing bytes form an incomplete frame — a crash mid-append.
    Torn,
    /// A complete frame failed its CRC (or declared an absurd length) —
    /// bit rot or foreign bytes, not a torn append.
    Corrupt,
}

/// Frame `payload` into `[len][crc][payload]` bytes ready to append.
pub fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = ByteWriter::with_capacity(8 + payload.len());
    out.u32(payload.len() as u32);
    out.u32(crc32(payload));
    out.bytes(payload);
    out.into_bytes()
}

/// `read_all_framed` without the valid-prefix length.
#[cfg(test)]
pub(crate) fn read_all(bytes: &[u8]) -> (Vec<Vec<u8>>, Tail) {
    let (records, tail, _) = read_all_framed(bytes);
    (records, tail)
}

/// Decode a record stream: every valid record up to the first bad frame,
/// how the stream ended, and the byte length of the valid prefix —
/// everything past it is the torn or corrupt tail. A writer resuming an
/// interrupted log MUST truncate to this length first: appending committed
/// records after garbage makes them unreachable to every future reader.
pub fn read_all_framed(bytes: &[u8]) -> (Vec<Vec<u8>>, Tail, usize) {
    let mut records = Vec::new();
    let mut r = ByteReader::new(bytes);
    while !r.done() {
        let at = r.pos();
        let (Some(len), Some(crc)) = (r.u32(), r.u32()) else {
            return (records, Tail::Torn, at);
        };
        if len > MAX_RECORD_LEN {
            return (records, Tail::Corrupt, at);
        }
        let Some(payload) = r.take(len as usize) else {
            return (records, Tail::Torn, at);
        };
        if crc32(payload) != crc {
            return (records, Tail::Corrupt, at);
        }
        records.push(payload.to_vec());
    }
    (records, Tail::Clean, r.pos())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn journal(payloads: &[&[u8]]) -> Vec<u8> {
        let mut bytes = Vec::new();
        for p in payloads {
            bytes.extend_from_slice(&frame(p));
        }
        bytes
    }

    #[test]
    fn roundtrip_clean() {
        let bytes = journal(&[b"alpha", b"", b"gamma-longer-record"]);
        let (records, tail) = read_all(&bytes);
        assert_eq!(tail, Tail::Clean);
        assert_eq!(records, vec![b"alpha".to_vec(), vec![], b"gamma-longer-record".to_vec()]);
    }

    #[test]
    fn every_truncation_point_yields_a_prefix() {
        let payloads: Vec<Vec<u8>> = (0..5u8).map(|i| vec![i; 3 + i as usize * 7]).collect();
        let refs: Vec<&[u8]> = payloads.iter().map(|p| p.as_slice()).collect();
        let bytes = journal(&refs);
        for cut in 0..bytes.len() {
            let (records, tail) = read_all(&bytes[..cut]);
            assert!(records.len() <= payloads.len());
            assert_eq!(
                records,
                payloads[..records.len()].to_vec(),
                "cut at {cut} must yield an exact record prefix"
            );
            if cut == 0 {
                assert_eq!(tail, Tail::Clean);
            } else {
                // Any non-boundary cut is Torn; boundary cuts are Clean.
                let boundary = payloads[..records.len()]
                    .iter()
                    .map(|p| 8 + p.len())
                    .sum::<usize>()
                    == cut;
                assert_eq!(tail, if boundary { Tail::Clean } else { Tail::Torn });
            }
        }
    }

    #[test]
    fn bit_rot_is_corrupt_not_torn() {
        let bytes = journal(&[b"first", b"second", b"third"]);
        // Flip one payload bit of the middle record.
        let mut rotted = bytes.clone();
        let mid_payload_at = (8 + 5) + 8; // after first frame, past second header
        rotted[mid_payload_at] ^= 0x10;
        let (records, tail) = read_all(&rotted);
        assert_eq!(tail, Tail::Corrupt);
        assert_eq!(records, vec![b"first".to_vec()], "stops before the rot");
    }

    #[test]
    fn absurd_length_is_corrupt() {
        let mut bytes = journal(&[b"ok"]);
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 64]);
        let (records, tail) = read_all(&bytes);
        assert_eq!(records.len(), 1);
        assert_eq!(tail, Tail::Corrupt);
    }

    proptest! {
        /// Whatever one flipped bit, cut or junk tail does to a stream, the
        /// reader returns a prefix of the records framed, says how many
        /// bytes they span, and calls the tail clean only when nothing is
        /// left over.
        #[test]
        fn a_damaged_stream_reads_as_a_prefix_of_its_records(
            payloads in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..41), 0..9),
            damage in 0u8..3,
            at in any::<u64>(),
            bit in 0u8..8,
            junk in prop::collection::vec(any::<u8>(), 1..17),
        ) {
            let mut bytes: Vec<u8> = payloads.iter().flat_map(|p| frame(p)).collect();
            let len = bytes.len() as u64;
            match damage {
                0 if len > 0 => bytes[(at % len) as usize] ^= 1 << bit,
                1 => bytes.truncate((at % (len + 1)) as usize),
                _ => bytes.extend_from_slice(&junk),
            }
            let (records, tail, valid_len) = read_all_framed(&bytes);
            let k = records.len();
            prop_assert!(
                k <= payloads.len() && records[..] == payloads[..k],
                "{k} records are not a prefix of the {} framed",
                payloads.len()
            );
            let framed: usize = payloads[..k].iter().map(|p| 8 + p.len()).sum();
            prop_assert_eq!(valid_len, framed);
            prop_assert!(valid_len <= bytes.len());
            prop_assert_eq!(tail == Tail::Clean, valid_len == bytes.len());
        }
    }
}
