//! Trace-once storage shared across simulations.
//!
//! Design-space sweeps evaluate many cache configurations against the same
//! access trace. Regenerating the trace for every `(T, L, S, B)` point is
//! the dominant redundant cost of a sweep: all associativities over one
//! layout/tiling see byte-identical event streams. A [`TraceArena`]
//! materializes each distinct trace exactly once into one flat
//! `Vec<TraceEvent>` and hands out `&[TraceEvent]` slices, so simulators
//! replay a shared immutable buffer instead of re-walking the loop nest.
//!
//! Parallel builders count each trace first, then
//! [`TraceArena::fill_in_place`] hands every worker a disjoint slice of
//! one buffer allocated once, so no trace is copied. The finished arena is
//! immutable and can be shared by reference across scoped threads.
//!
//! # Example
//!
//! ```
//! use memsim::{CacheConfig, Simulator, TraceArena, TraceEvent};
//!
//! let mut arena = TraceArena::new();
//! arena.insert("stream", (0..8).map(|i| TraceEvent::read(i * 4, 4)).collect());
//! arena.insert("stride", (0..8).map(|i| TraceEvent::read(i * 64, 4)).collect());
//! let cfg = CacheConfig::new(64, 16, 1)?;
//! let stream = Simulator::simulate_slice(cfg, arena.get(&"stream").unwrap());
//! let stride = Simulator::simulate_slice(cfg, arena.get(&"stride").unwrap());
//! assert!(stream.stats.read_misses() < stride.stats.read_misses());
//! assert_eq!(arena.events().len(), 16);
//! # Ok::<(), memsim::ConfigError>(())
//! ```

use crate::sim::TraceEvent;
use std::collections::HashMap;
use std::hash::Hash;
use std::ops::Range;

/// A flat, immutable store of trace events addressed by key.
///
/// `K` identifies one logical trace — sweeps typically key by the
/// parameters the trace depends on (e.g. `(cache size, line size, tiling)`).
#[derive(Clone, Debug)]
pub struct TraceArena<K> {
    events: Vec<TraceEvent>,
    spans: HashMap<K, Range<usize>>,
}

impl<K: Eq + Hash> TraceArena<K> {
    /// An empty arena.
    pub fn new() -> Self {
        TraceArena {
            events: Vec::new(),
            spans: HashMap::new(),
        }
    }

    /// Builds an arena whose traces are written in place, with no
    /// per-trace buffers to copy from: `lens` gives each key's event
    /// count, in buffer order, and `fill` receives one disjoint mutable
    /// slice per key, in the same order, and must write every event.
    /// Returns the arena and `fill`'s result.
    ///
    /// # Panics
    ///
    /// Panics if a key repeats.
    pub fn fill_in_place<R>(
        lens: impl IntoIterator<Item = (K, usize)>,
        fill: impl FnOnce(Vec<&mut [TraceEvent]>) -> R,
    ) -> (Self, R) {
        let mut spans = HashMap::new();
        let mut lens_in_order = Vec::new();
        let mut total = 0;
        for (key, n) in lens {
            let fresh = spans.insert(key, total..total + n).is_none();
            assert!(fresh, "duplicate trace key in an in-place arena");
            lens_in_order.push(n);
            total += n;
        }
        let mut events = vec![TraceEvent::read(0, 0); total];
        let mut slices = Vec::with_capacity(lens_in_order.len());
        let mut rest = events.as_mut_slice();
        for n in lens_in_order {
            let (head, tail) = rest.split_at_mut(n);
            slices.push(head);
            rest = tail;
        }
        let out = fill(slices);
        (TraceArena { events, spans }, out)
    }

    /// Appends one keyed trace; returns `false` (and drops the trace) if
    /// the key is already present.
    pub fn insert(&mut self, key: K, trace: Vec<TraceEvent>) -> bool {
        if self.spans.contains_key(&key) {
            return false;
        }
        let start = self.events.len();
        self.events.extend_from_slice(&trace);
        self.spans.insert(key, start..self.events.len());
        true
    }

    /// Generates and stores the trace for `key` unless already present,
    /// then returns its slice. Serial-use convenience; parallel builders
    /// should use [`fill_in_place`](Self::fill_in_place).
    pub fn intern_with(
        &mut self,
        key: K,
        generate: impl FnOnce() -> Vec<TraceEvent>,
    ) -> &[TraceEvent] {
        let span = match self.spans.entry(key) {
            std::collections::hash_map::Entry::Occupied(e) => e.get().clone(),
            std::collections::hash_map::Entry::Vacant(e) => {
                let trace = generate();
                let start = self.events.len();
                self.events.extend_from_slice(&trace);
                e.insert(start..self.events.len()).clone()
            }
        };
        &self.events[span]
    }

    /// The stored trace for `key`, if any.
    pub fn get<Q>(&self, key: &Q) -> Option<&[TraceEvent]>
    where
        K: std::borrow::Borrow<Q>,
        Q: Eq + Hash + ?Sized,
    {
        self.spans.get(key).map(|span| &self.events[span.clone()])
    }

    /// Number of distinct traces stored.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether the arena holds no traces.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// The whole flat event buffer (all traces back to back).
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }
}

impl<K: Eq + Hash> Default for TraceArena<K> {
    fn default() -> Self {
        TraceArena::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reads(addrs: &[u64]) -> Vec<TraceEvent> {
        addrs.iter().map(|&a| TraceEvent::read(a, 4)).collect()
    }

    #[test]
    fn spans_map_back_to_their_traces() {
        let mut arena = TraceArena::new();
        for (key, trace) in [
            (1u32, reads(&[0, 4, 8])),
            (2, reads(&[100])),
            (3, Vec::new()),
        ] {
            assert!(arena.insert(key, trace));
        }
        assert_eq!(arena.len(), 3);
        assert_eq!(arena.get(&1).unwrap().len(), 3);
        assert_eq!(arena.get(&2).unwrap()[0].addr, 100);
        assert_eq!(arena.get(&3).unwrap(), &[]);
        assert!(arena.get(&4).is_none());
        assert_eq!(arena.events().len(), 4);
    }

    #[test]
    fn fill_in_place_matches_insert() {
        let traces = vec![
            (1u32, reads(&[0, 4, 8])),
            (2, Vec::new()),
            (3, reads(&[100])),
        ];
        let (arena, filled) =
            TraceArena::fill_in_place(traces.iter().map(|(k, t)| (*k, t.len())), |slices| {
                for (slice, (_, t)) in slices.into_iter().zip(&traces) {
                    slice.copy_from_slice(t);
                }
                3
            });
        let mut inserted = TraceArena::new();
        for (k, t) in &traces {
            inserted.insert(*k, t.clone());
        }
        assert_eq!(filled, 3);
        assert_eq!(arena.events(), inserted.events());
        for (k, t) in &traces {
            assert_eq!(arena.get(k).unwrap(), t.as_slice());
        }
    }

    #[test]
    fn first_insert_wins() {
        let mut arena = TraceArena::new();
        assert!(arena.insert("k", reads(&[1])));
        assert!(!arena.insert("k", reads(&[2, 3])));
        assert_eq!(arena.get("k").unwrap().len(), 1);
        assert_eq!(arena.events().len(), 1);
    }

    #[test]
    fn intern_with_generates_once() {
        let mut arena = TraceArena::new();
        let mut calls = 0;
        for _ in 0..3 {
            let slice = arena.intern_with(7u64, || {
                calls += 1;
                reads(&[0, 8])
            });
            assert_eq!(slice.len(), 2);
        }
        assert_eq!(calls, 1);
        assert_eq!(arena.events().len(), 2);
    }

    #[test]
    fn empty_arena_behaves() {
        let arena: TraceArena<u8> = TraceArena::default();
        assert!(arena.is_empty());
        assert_eq!(arena.events().len(), 0);
    }
}
