//! Delta-compressed trace storage for replay.
//!
//! A materialized [`TraceEvent`](crate::TraceEvent) costs 16 bytes; the
//! traces a sweep replays are loop-nest walks. Their address deltas are
//! not merely small — they are nearly **periodic**: a loop body touching
//! several arrays in turn (`A[i][k]`, `B[k][j]`, `C[i][j]`, …) emits the
//! same short cycle of inter-array jumps every iteration, each jump
//! drifting by a constant as row offsets advance. Each block therefore
//! picks a period `K` (1–8, by census) and predicts every delta by
//! linear extrapolation within its phase — `2·d[i−K] − d[i−2K]`, exact
//! for both constant and linearly drifting periodic deltas; only the
//! prediction **residual** is stored — a head byte carrying the store/width-repeat flags plus the
//! low bits of the zigzag residual, with LEB128 continuation bytes for
//! the rare misprediction (and a width varint only when the width
//! changes). Steady-state loop traffic lands at **one byte per event**
//! even when the raw deltas span kilobytes, a 10–16× smaller resident
//! footprint for the sweep's dominant allocations, and the
//! residual-is-zero fast path keeps the decode cost inside the replay
//! loop near the memory-bandwidth floor.
//!
//! The stream is cut into independent blocks of [`BLOCK_EVENTS`] events
//! (the delta predictor resets at each block boundary), so replay decodes
//! one block at a time into a small reusable scratch buffer and feeds it
//! to a [`ReplayBank`](crate::ReplayBank). Bank state persists across
//! `feed` calls, so block-by-block replay is bit-identical to scanning
//! the raw slice (see the bank's chunk-invariance contract).
//!
//! No sweep uses this module: an exhaustive sweep scans each trace once,
//! so it replays the raw arena. The module stays for perfbench's traced
//! recomposition, which measures its encode and decode layers.
//!
//! # Example
//!
//! ```
//! use memsim::{CompressedTrace, TraceEvent};
//!
//! let raw: Vec<TraceEvent> = (0..10_000).map(|i| TraceEvent::read(i * 4, 4)).collect();
//! let z = CompressedTrace::encode(&raw);
//! assert_eq!(z.len(), raw.len());
//! assert!(z.compressed_bytes() * 4 < z.raw_bytes());
//! assert_eq!(z.decode(), raw);
//! ```

use crate::sim::TraceEvent;

/// Events per independently decodable block. Sized so the decode scratch
/// (`BLOCK_EVENTS × 16 B = 128 KiB`) stays cache-resident while a bank
/// consumes it, while amortizing each lane's per-block probe-state
/// rebuild over as many events as possible.
pub const BLOCK_EVENTS: usize = 8192;

/// A delta/varint-encoded immutable trace, decodable block by block.
#[derive(Clone, Debug)]
pub struct CompressedTrace {
    /// The encoded byte stream, blocks back to back.
    bytes: Vec<u8>,
    /// Byte offset of each block in [`bytes`](Self::bytes).
    block_starts: Vec<usize>,
    /// Total event count (the last block may be short).
    len: usize,
}

/// `(delta << 1) ^ (delta >> 63)` — small magnitudes of either sign
/// become small unsigned varints.
#[inline]
fn zigzag(delta: i64) -> u64 {
    ((delta << 1) ^ (delta >> 63)) as u64
}

#[inline]
fn unzigzag(coded: u64) -> i64 {
    ((coded >> 1) as i64) ^ -((coded & 1) as i64)
}

#[inline]
fn push_varint(bytes: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        bytes.push((v as u8) | 0x80);
        v >>= 7;
    }
    bytes.push(v as u8);
}

#[inline]
fn read_varint(bytes: &[u8], pos: &mut usize) -> u64 {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let b = bytes[*pos];
        *pos += 1;
        v |= u64::from(b & 0x7f) << shift;
        if b < 0x80 {
            return v;
        }
        shift += 7;
    }
}

/// Head-byte layout: bit 0 = store, bit 1 = width repeats the previous
/// event's width (no width varint follows), bits 2–6 = low five bits of
/// the zigzag delta residual, bit 7 = residual continuation (LEB128
/// bytes follow with the remaining bits, 7 per byte).
const CTRL_WRITE: u8 = 1;
const CTRL_SAME_SIZE: u8 = 2;
const CTRL_DELTA_SHIFT: u32 = 2;
const CTRL_DELTA_MASK: u64 = 0x1f;
const CTRL_MORE: u8 = 0x80;

/// Largest delta-predictor period a block header may select. Sized to
/// cover not just one loop body's array cycle but a whole inner tile row
/// (tile width × arrays touched per iteration), whose delta sequence
/// repeats verbatim across tile rows.
const MAX_PERIOD: usize = 48;

/// Picks the predictor period for one block: the `K` (1..=[`MAX_PERIOD`])
/// under which linear extrapolation within each phase
/// (`2·d[i−K] − d[i−2K]`) predicts the most deltas exactly. Returns 0 —
/// predict nothing, store raw deltas — when even the best period explains
/// under half the block, so an aperiodic block can never encode worse
/// than plain delta coding.
fn census_period(deltas: &[i64]) -> usize {
    let mut best = (0usize, 0usize);
    for k in 1..=MAX_PERIOD.min(deltas.len() / 2) {
        let matches = (2 * k..deltas.len())
            .filter(|&i| {
                deltas[i]
                    == deltas[i - k]
                        .wrapping_mul(2)
                        .wrapping_sub(deltas[i - 2 * k])
            })
            .count();
        if matches > best.1 {
            best = (k, matches);
        }
    }
    if best.1 * 2 >= deltas.len() {
        best.0
    } else {
        0
    }
}

/// Per-phase linear-extrapolation predictor state: the last two deltas of
/// each of the `K` phases, updated in lockstep by encoder and decoder.
#[derive(Clone, Copy)]
struct Predictor {
    last: [i64; MAX_PERIOD],
    prior: [i64; MAX_PERIOD],
    slot: usize,
    period: usize,
}

impl Predictor {
    #[inline]
    fn new(period: usize) -> Self {
        Predictor {
            last: [0; MAX_PERIOD],
            prior: [0; MAX_PERIOD],
            slot: 0,
            period,
        }
    }

    /// This phase's extrapolated next delta.
    #[inline]
    fn predict(&self) -> i64 {
        self.last[self.slot]
            .wrapping_mul(2)
            .wrapping_sub(self.prior[self.slot])
    }

    /// Records the delta that actually occurred and advances the phase.
    #[inline]
    fn commit(&mut self, delta: i64) {
        self.prior[self.slot] = self.last[self.slot];
        self.last[self.slot] = delta;
        self.slot += 1;
        if self.slot == self.period {
            self.slot = 0;
        }
    }
}

impl CompressedTrace {
    /// Encodes a raw slice. The input is not retained.
    pub fn encode(events: &[TraceEvent]) -> Self {
        let mut bytes = Vec::with_capacity(events.len() * 2);
        let mut block_starts = Vec::with_capacity(events.len() / BLOCK_EVENTS + 1);
        let mut deltas: Vec<i64> = Vec::with_capacity(BLOCK_EVENTS.min(events.len()));
        for block in events.chunks(BLOCK_EVENTS) {
            block_starts.push(bytes.len());
            // The predictor resets per block so blocks decode independently;
            // size 0 is invalid in a TraceEvent, forcing the first event of
            // every block to carry its width explicitly.
            deltas.clear();
            let mut prev_addr = 0u64;
            for e in block {
                deltas.push(e.addr.wrapping_sub(prev_addr) as i64);
                prev_addr = e.addr;
            }
            let period = census_period(&deltas);
            bytes.push(period as u8);
            let mut predictor = Predictor::new(period);
            let mut prev_size = 0u32;
            for (e, &delta) in block.iter().zip(&deltas) {
                let residual = if period == 0 {
                    delta
                } else {
                    let r = delta.wrapping_sub(predictor.predict());
                    predictor.commit(delta);
                    r
                };
                let same_size = e.size == prev_size;
                let z = zigzag(residual);
                let mut head = (u8::from(e.is_write) * CTRL_WRITE)
                    | (u8::from(same_size) * CTRL_SAME_SIZE)
                    | (((z & CTRL_DELTA_MASK) as u8) << CTRL_DELTA_SHIFT);
                let rest = z >> 5;
                if rest != 0 {
                    head |= CTRL_MORE;
                }
                bytes.push(head);
                if rest != 0 {
                    push_varint(&mut bytes, rest);
                }
                if !same_size {
                    push_varint(&mut bytes, u64::from(e.size));
                }
                prev_size = e.size;
            }
        }
        bytes.shrink_to_fit();
        CompressedTrace {
            bytes,
            block_starts,
            len: events.len(),
        }
    }

    /// Total event count.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the trace holds no events.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Resident size of the encoded form in bytes (stream + block table).
    pub fn compressed_bytes(&self) -> usize {
        self.bytes.len() + self.block_starts.len() * std::mem::size_of::<usize>()
    }

    /// Size the raw `Vec<TraceEvent>` form would occupy.
    pub fn raw_bytes(&self) -> usize {
        self.len * std::mem::size_of::<TraceEvent>()
    }

    /// Streams the trace through `consume`, one decoded block at a time
    /// (at most [`BLOCK_EVENTS`] events per call), reusing one scratch
    /// buffer for every block.
    pub fn replay(&self, mut consume: impl FnMut(&[TraceEvent])) {
        let mut scratch: Vec<TraceEvent> = Vec::with_capacity(BLOCK_EVENTS.min(self.len));
        let mut remaining = self.len;
        for (b, &start) in self.block_starts.iter().enumerate() {
            let count = remaining.min(BLOCK_EVENTS);
            let end = self
                .block_starts
                .get(b + 1)
                .copied()
                .unwrap_or(self.bytes.len());
            scratch.clear();
            let bytes = &self.bytes[start..end];
            let period = bytes[0] as usize;
            let mut pos = 1usize;
            let mut predictor = Predictor::new(period);
            let mut prev_addr = 0u64;
            let mut prev_size = 0u32;
            for _ in 0..count {
                let head = bytes[pos];
                pos += 1;
                // Fast path: store/width flags and the whole residual live
                // in the head byte — one load, no varint loop — and on
                // steady-state loop traffic the residual is zero.
                let mut z = (u64::from(head) >> CTRL_DELTA_SHIFT) & CTRL_DELTA_MASK;
                if head & CTRL_MORE != 0 {
                    z |= read_varint(bytes, &mut pos) << 5;
                }
                let delta = if period == 0 {
                    unzigzag(z)
                } else {
                    let d = predictor.predict().wrapping_add(unzigzag(z));
                    predictor.commit(d);
                    d
                };
                let addr = prev_addr.wrapping_add(delta as u64);
                let size = if head & CTRL_SAME_SIZE != 0 {
                    prev_size
                } else {
                    read_varint(bytes, &mut pos) as u32
                };
                scratch.push(TraceEvent {
                    addr,
                    size,
                    is_write: head & CTRL_WRITE != 0,
                });
                prev_addr = addr;
                prev_size = size;
            }
            debug_assert_eq!(pos, end - start, "block decoded to its recorded end");
            remaining -= count;
            consume(&scratch);
        }
        debug_assert_eq!(remaining, 0);
    }

    /// Decodes the whole trace into one vector (tests and small traces;
    /// replay paths should stream with [`replay`](Self::replay)).
    pub fn decode(&self) -> Vec<TraceEvent> {
        let mut out = Vec::with_capacity(self.len);
        self.replay(|block| out.extend_from_slice(block));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mixed_trace(n: u64) -> Vec<TraceEvent> {
        (0..n)
            .map(|i| {
                let addr = (i * 12) % 4096 + (i % 7) * 1000;
                if i % 5 == 0 {
                    TraceEvent::write(addr, if i % 3 == 0 { 8 } else { 4 })
                } else {
                    TraceEvent::read(addr, 4)
                }
            })
            .collect()
    }

    #[test]
    fn roundtrip_is_exact() {
        for n in [0u64, 1, 2, 4095, 4096, 4097, 10_000] {
            let raw = mixed_trace(n);
            let z = CompressedTrace::encode(&raw);
            assert_eq!(z.len(), raw.len());
            assert_eq!(z.decode(), raw, "n = {n}");
        }
    }

    #[test]
    fn replay_blocks_cover_the_stream_in_order() {
        let raw = mixed_trace(9000);
        let z = CompressedTrace::encode(&raw);
        let mut seen = Vec::new();
        let mut calls = 0;
        z.replay(|block| {
            assert!(block.len() <= BLOCK_EVENTS);
            seen.extend_from_slice(block);
            calls += 1;
        });
        assert_eq!(seen, raw);
        assert_eq!(calls, raw.len().div_ceil(BLOCK_EVENTS));
    }

    #[test]
    fn strided_reads_compress_well() {
        let raw: Vec<TraceEvent> = (0..100_000u64)
            .map(|i| TraceEvent::read(i * 4, 4))
            .collect();
        let z = CompressedTrace::encode(&raw);
        // Constant stride + constant width: control byte + 1-byte delta.
        assert!(
            z.compressed_bytes() * 4 < z.raw_bytes(),
            "{} vs {}",
            z.compressed_bytes(),
            z.raw_bytes()
        );
    }

    #[test]
    fn large_deltas_and_widths_survive() {
        let raw = vec![
            TraceEvent::read(u64::MAX - 3, 4),
            TraceEvent::read(0, 1),
            TraceEvent::write(1 << 40, 1024),
            TraceEvent::read(3, 4),
        ];
        let z = CompressedTrace::encode(&raw);
        assert_eq!(z.decode(), raw);
    }

    #[test]
    fn empty_trace_is_empty() {
        let z = CompressedTrace::encode(&[]);
        assert!(z.is_empty());
        assert_eq!(z.decode(), Vec::new());
        let mut called = false;
        z.replay(|_| called = true);
        assert!(!called);
    }
}
