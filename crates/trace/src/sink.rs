//! The trace sink: interned names, monotonic counters, fixed-bucket
//! histograms and a simulated-time event log.
//!
//! A [`TraceSink`] is the single registration point for everything the
//! tracing plane records. Names (spans, tracks, counters, histograms) are
//! interned once into stable integer ids — the id is the index of the
//! first registration, so identical recording sequences always produce
//! identical id assignments — and every metric map is a `BTreeMap` keyed
//! by id, so iteration order is the registration order, never a hash
//! order. Timestamps are *simulated* time (engine `elapsed_cycles`, or
//! the cluster control-plane cursor); the sink never consults a
//! wall-clock.
//!
//! Disabled sinks are near-zero-cost: every recording method starts with
//! a branch on [`TraceSink::is_enabled`] and returns immediately without
//! interning, allocating or touching any map. The `substrate_baseline`
//! bench pins this (`trace_overhead` section, gated by
//! `substrate_baseline --check`).

use std::collections::BTreeMap;

/// Number of power-of-two buckets in a [`Histogram`]. Bucket `i` counts
/// values `v` with `floor(log2(v)) == i` (bucket 0 also counts `v == 0`);
/// the last bucket absorbs everything at or above `2^(HIST_BUCKETS - 1)`.
pub const HIST_BUCKETS: usize = 17;

/// Whether a component records into its trace sink.
///
/// This is the switch carried by configuration structs (it is `Copy` so it
/// can ride inside `ClusterConfig`). The default is [`TraceConfig::Off`]:
/// tracing is strictly opt-in and the disabled path is bench-gated to be
/// free.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraceConfig {
    /// No recording; every sink method is an early-return branch.
    #[default]
    Off,
    /// Record spans, instants, counters and histograms.
    On,
}

impl TraceConfig {
    /// `true` when tracing is enabled.
    pub fn is_on(self) -> bool {
        matches!(self, TraceConfig::On)
    }
}

/// A fixed-bucket power-of-two histogram (see [`HIST_BUCKETS`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Histogram {
    /// Per-bucket observation counts.
    pub buckets: [u64; HIST_BUCKETS],
    /// Total number of observations.
    pub count: u64,
    /// Saturating sum of all observed values.
    pub total: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; HIST_BUCKETS],
            count: 0,
            total: 0,
        }
    }
}

impl Histogram {
    /// Records one observation.
    pub fn record(&mut self, value: u64) {
        self.buckets[bucket_index(value)] += 1;
        self.count += 1;
        self.total = self.total.saturating_add(value);
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine += *theirs;
        }
        self.count += other.count;
        self.total = self.total.saturating_add(other.total);
    }
}

/// The bucket a value falls into: `floor(log2(value))`, clamped to the
/// last bucket (zero maps to bucket 0).
pub fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        ((63 - value.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
    }
}

/// One recorded trace event: a span (with a duration) or an instant.
///
/// `track` and `name` are interned ids resolvable via
/// [`TraceSink::name`]. `ts` is simulated time in the recording
/// component's domain (engine cycles, or the cluster control cursor) —
/// never wall-clock.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Interned id of the track (Perfetto thread) the event belongs to.
    pub track: u32,
    /// Interned id of the event name.
    pub name: u32,
    /// Start timestamp in the recording component's simulated-time domain.
    pub ts: u64,
    /// `Some(duration)` for a span, `None` for an instant.
    pub dur: Option<u64>,
    /// Free-form single-line argument (empty when absent). Used for
    /// causality keys like `req=7`.
    pub arg: String,
}

/// The deterministic registration point for spans, counters and
/// histograms (see the module docs).
#[derive(Debug, Clone, Default)]
pub struct TraceSink {
    enabled: bool,
    /// Interned names; the id of a name is its index here.
    names: Vec<String>,
    /// Reverse lookup for interning.
    ids: BTreeMap<String, u32>,
    /// Monotonic counters, keyed by interned id (iteration = registration
    /// order).
    counters: BTreeMap<u32, u64>,
    /// Fixed-bucket histograms, keyed by interned id.
    histograms: BTreeMap<u32, Histogram>,
    /// Spans and instants in record order.
    events: Vec<Event>,
}

impl TraceSink {
    /// A sink in the given initial state.
    pub fn new(config: TraceConfig) -> Self {
        TraceSink {
            enabled: config.is_on(),
            ..TraceSink::default()
        }
    }

    /// `true` when this sink records (the hot-path branch).
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Turns recording on.
    pub fn enable(&mut self) {
        self.enabled = true;
    }

    /// Interns a name, returning its stable id. Names must not contain
    /// whitespace (they are single tokens of text format v1).
    pub fn intern(&mut self, name: &str) -> u32 {
        debug_assert!(
            !name.chars().any(char::is_whitespace),
            "trace names must be whitespace-free: {name:?}"
        );
        if let Some(&id) = self.ids.get(name) {
            return id;
        }
        let id = self.names.len() as u32;
        self.names.push(name.to_string());
        self.ids.insert(name.to_string(), id);
        id
    }

    /// The name behind an interned id (panics on a foreign id; ids are
    /// only ever produced by this sink's [`TraceSink::intern`]).
    pub fn name(&self, id: u32) -> &str {
        &self.names[id as usize]
    }

    /// Adds to a monotonic counter. No-op when disabled.
    #[inline]
    pub fn counter_add(&mut self, name: &str, delta: u64) {
        if !self.enabled {
            return;
        }
        let id = self.intern(name);
        *self.counters.entry(id).or_insert(0) += delta;
    }

    /// Raises a counter to `value` if it is currently lower (monotonic
    /// set, used to mirror externally-accumulated ledgers). No-op when
    /// disabled.
    #[inline]
    pub fn counter_set_max(&mut self, name: &str, value: u64) {
        if !self.enabled {
            return;
        }
        let id = self.intern(name);
        let slot = self.counters.entry(id).or_insert(0);
        *slot = (*slot).max(value);
    }

    /// The current value of a counter (0 when absent or disabled).
    pub fn counter_value(&self, name: &str) -> u64 {
        self.ids
            .get(name)
            .and_then(|id| self.counters.get(id))
            .copied()
            .unwrap_or(0)
    }

    /// Sums every counter whose name ends with `suffix` (e.g.
    /// `.engine.cycles` over all cell prefixes).
    pub fn sum_counters_with_suffix(&self, suffix: &str) -> u64 {
        self.counters
            .iter()
            .filter(|(id, _)| self.names[**id as usize].ends_with(suffix))
            .map(|(_, v)| *v)
            .sum()
    }

    /// Records one observation into a histogram. No-op when disabled.
    #[inline]
    pub fn hist_record(&mut self, name: &str, value: u64) {
        if !self.enabled {
            return;
        }
        let id = self.intern(name);
        self.histograms.entry(id).or_default().record(value);
    }

    /// Records a span. No-op when disabled.
    #[inline]
    pub fn span(&mut self, track: &str, name: &str, ts: u64, dur: u64) {
        if !self.enabled {
            return;
        }
        self.push_event(track, name, ts, Some(dur), String::new());
    }

    /// Records a span with an argument. No-op when disabled.
    #[inline]
    pub fn span_with(&mut self, track: &str, name: &str, ts: u64, dur: u64, arg: String) {
        if !self.enabled {
            return;
        }
        self.push_event(track, name, ts, Some(dur), arg);
    }

    /// Records an instant. No-op when disabled.
    #[inline]
    pub fn instant(&mut self, track: &str, name: &str, ts: u64) {
        if !self.enabled {
            return;
        }
        self.push_event(track, name, ts, None, String::new());
    }

    /// Records an instant with an argument. No-op when disabled.
    #[inline]
    pub fn instant_with(&mut self, track: &str, name: &str, ts: u64, arg: String) {
        if !self.enabled {
            return;
        }
        self.push_event(track, name, ts, None, arg);
    }

    fn push_event(&mut self, track: &str, name: &str, ts: u64, dur: Option<u64>, arg: String) {
        debug_assert!(!arg.contains('\n'), "trace args must be single-line");
        let track = self.intern(track);
        let name = self.intern(name);
        self.events.push(Event {
            track,
            name,
            ts,
            dur,
            arg,
        });
    }

    /// The recorded events, in record order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Counters as `(name, value)` in id (registration) order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters
            .iter()
            .map(|(id, v)| (self.names[*id as usize].as_str(), *v))
    }

    /// Histograms as `(name, histogram)` in id (registration) order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms
            .iter()
            .map(|(id, h)| (self.names[*id as usize].as_str(), h))
    }

    /// Takes everything recorded so far, leaving this sink enabled but
    /// empty of data (interned names are kept so ids stay stable).
    ///
    /// The per-cell engine sinks are drained once per epoch and absorbed
    /// into the cluster sink — always in cell-id order, after every cell
    /// has finished its epoch, so serial and cell-parallel runs merge
    /// identically.
    pub fn drain(&mut self) -> TraceSink {
        TraceSink {
            enabled: self.enabled,
            names: self.names.clone(),
            ids: self.ids.clone(),
            counters: std::mem::take(&mut self.counters),
            histograms: std::mem::take(&mut self.histograms),
            events: std::mem::take(&mut self.events),
        }
    }

    /// Merges another sink's data into this one, prefixing every track,
    /// counter and histogram name with `prefix` (e.g. `cell0.`). Event
    /// *names* keep their original spelling so profile rollups aggregate
    /// across cells; tracks are prefixed so Perfetto shows one lane per
    /// cell. No-op when disabled.
    pub fn absorb(&mut self, other: &TraceSink, prefix: &str) {
        if !self.enabled {
            return;
        }
        for event in &other.events {
            let track = format!("{prefix}{}", other.name(event.track));
            let track = self.intern(&track);
            let name = self.intern(other.name(event.name));
            self.events.push(Event {
                track,
                name,
                ts: event.ts,
                dur: event.dur,
                arg: event.arg.clone(),
            });
        }
        for (name, value) in other.counters() {
            let id = self.intern(&format!("{prefix}{name}"));
            *self.counters.entry(id).or_insert(0) += value;
        }
        for (name, hist) in other.histograms() {
            let id = self.intern(&format!("{prefix}{name}"));
            self.histograms.entry(id).or_default().merge(hist);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_sink_records_nothing() {
        let mut sink = TraceSink::new(TraceConfig::Off);
        sink.counter_add("a", 1);
        sink.hist_record("h", 7);
        sink.span("t", "s", 0, 10);
        sink.instant("t", "i", 5);
        assert!(!sink.is_enabled());
        assert!(sink.events().is_empty());
        assert_eq!(sink.counters().count(), 0);
        assert_eq!(sink.histograms().count(), 0);
        assert_eq!(sink.counter_value("a"), 0);
    }

    #[test]
    fn ids_are_stable_and_iteration_is_registration_ordered() {
        let mut sink = TraceSink::new(TraceConfig::On);
        sink.counter_add("zeta", 1);
        sink.counter_add("alpha", 2);
        sink.counter_add("zeta", 3);
        let names: Vec<_> = sink.counters().map(|(n, v)| (n.to_string(), v)).collect();
        assert_eq!(
            names,
            vec![("zeta".to_string(), 4), ("alpha".to_string(), 2)]
        );
        assert_eq!(sink.intern("zeta"), sink.intern("zeta"));
    }

    #[test]
    fn histogram_buckets_are_power_of_two() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 1);
        assert_eq!(bucket_index(1024), 10);
        assert_eq!(bucket_index(u64::MAX), HIST_BUCKETS - 1);
        let mut h = Histogram::default();
        h.record(0);
        h.record(5);
        assert_eq!(h.count, 2);
        assert_eq!(h.total, 5);
        assert_eq!(h.buckets[0], 1);
        assert_eq!(h.buckets[2], 1);
    }

    #[test]
    fn drain_resets_data_but_keeps_names() {
        let mut sink = TraceSink::new(TraceConfig::On);
        sink.counter_add("c", 2);
        sink.span("t", "s", 1, 2);
        let drained = sink.drain();
        assert_eq!(drained.counter_value("c"), 2);
        assert_eq!(drained.events().len(), 1);
        assert!(sink.events().is_empty());
        assert_eq!(sink.counter_value("c"), 0);
        // Ids survive the drain.
        assert_eq!(sink.intern("c"), drained.ids["c"]);
    }

    #[test]
    fn absorb_prefixes_tracks_and_metrics() {
        let mut cell = TraceSink::new(TraceConfig::On);
        cell.span("engine", "engine.run_slots", 0, 9);
        cell.counter_add("engine.cycles", 9);
        cell.hist_record("engine.batch_cycles", 9);
        let mut cluster = TraceSink::new(TraceConfig::On);
        cluster.absorb(&cell.drain(), "cell0.");
        cluster.absorb(&cell.drain(), "cell0.");
        let event = &cluster.events()[0];
        assert_eq!(cluster.name(event.track), "cell0.engine");
        assert_eq!(cluster.name(event.name), "engine.run_slots");
        assert_eq!(cluster.counter_value("cell0.engine.cycles"), 9);
        assert_eq!(cluster.sum_counters_with_suffix("engine.cycles"), 9);
    }
}
