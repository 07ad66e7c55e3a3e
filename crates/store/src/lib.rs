//! mako-store — the crash-consistent storage layer under the serving
//! stack.
//!
//! Everything the server persists (the write-ahead job journal, cached
//! screening artifacts) and the SCF's checkpoint saves flow through the
//! [`Vfs`] trait, with two backends:
//!
//! * [`RealVfs`] — `std::fs`, with the fsync-then-rename discipline in
//!   [`write_durable`] for atomic replacement.
//! * [`FaultVfs`] — a deterministic, seeded in-memory filesystem that
//!   injects crash points at every mutating operation, short writes,
//!   ENOSPC, and bit rot on read. Because every fault is a pure function
//!   of `(seed, op index)`, the durability bench can *sweep the crash
//!   point across every syscall of a serve* and replay any failure
//!   bit-for-bit.
//!
//! Every persisted format is written and parsed through the one bounded
//! little-endian [`ByteWriter`]/[`ByteReader`] pair in [`codec`]. On top of
//! the trait sit the CRC-framed append-only [`records`] format
//! (journals tolerate torn tails, detect bit rot) and the keyed
//! [`ArtifactStore`] (validate-on-read, quarantine-on-corruption).
//!
//! The crash-consistency contract, pinned by `tests/tests/durability.rs`
//! (a fixed crash-point sweep plus sampled points), is: after a crash at
//! *any* injected point, recovery reconstructs the serve and every
//! completed job's numerics are bitwise identical to an uninterrupted run.
//! See DESIGN.md §16.
#![deny(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod artifact;
pub mod codec;
pub mod crc;
pub mod fault;
pub mod records;
pub mod vfs;

pub use artifact::{ArtifactFault, ArtifactStore};
pub use codec::{ByteReader, ByteWriter};
pub use crc::crc32;
pub use fault::{mix, FaultProfile, FaultVfs};
pub use records::{frame, read_all_framed, Tail};
pub use vfs::{tmp_path, write_durable, RealVfs, Vfs, VfsError};
