//! Host-time spans recorded around the benchmark's own calls into the
//! program's public API.
//!
//! Each span has a name, a start, an end and the span that caused it
//! (a session, or the step a probe call re-measures). Spans stay in memory
//! and are written out once, when the run ends. A span's self time is its
//! duration minus the part of its interval that its child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// The host clock. Every timing of the benchmark reads it here.
pub fn now() -> Instant {
    // kyoto-lint: allow(wall-clock): the benchmark measures host time; no simulated result reads it
    Instant::now()
}

/// Index of a recorded span.
pub type SpanId = usize;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    parent: Option<SpanId>,
    start: Duration,
    end: Duration,
}

/// What [`Spans::open`] returns while not recording.
const NOT_RECORDED: SpanId = SpanId::MAX;

/// The in-memory span store of one run.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    recording: bool,
}

impl Spans {
    /// An empty, recording store whose clock starts now.
    pub fn new() -> Self {
        Spans {
            origin: now(),
            spans: Vec::new(),
            recording: true,
        }
    }

    /// Turns recording on or off. While off, nothing is stored, so an
    /// untraced session keeps no per-step bookkeeping in memory.
    pub fn set_recording(&mut self, on: bool) {
        self.recording = on;
    }

    /// Opens a span; close it with [`Spans::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>) -> SpanId {
        if !self.recording {
            return NOT_RECORDED;
        }
        let now = self.origin.elapsed();
        self.spans.push(Span {
            name,
            parent,
            start: now,
            end: now,
        });
        self.spans.len() - 1
    }

    /// Closes a span.
    pub fn close(&mut self, id: SpanId) {
        if id != NOT_RECORDED {
            self.spans[id].end = self.origin.elapsed();
        }
    }

    /// Times `call` as one span and returns its result with the duration,
    /// which is measured whether or not the span is recorded.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        call: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let id = self.open(name, parent);
        let start = now();
        let out = call();
        let took = start.elapsed();
        self.close(id);
        (out, took)
    }

    /// Self time of every span: its duration minus the union of its
    /// children's intervals clipped to its own.
    fn self_times(&self) -> Vec<Duration> {
        let mut children: Vec<Vec<(Duration, Duration)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children[parent].push((span.start, span.end));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(span, mut intervals)| {
                intervals.sort();
                let mut covered = Duration::ZERO;
                let mut cursor = span.start;
                for (start, end) in intervals {
                    let start = start.max(cursor);
                    let end = end.min(span.end);
                    if end > start {
                        covered += end - start;
                        cursor = end;
                    }
                }
                (span.end - span.start).saturating_sub(covered)
            })
            .collect()
    }

    /// Per-name rollup: `(name, spans, total self time)`, heaviest first.
    pub fn rollup(&self) -> Vec<(&'static str, usize, Duration)> {
        let mut by_name: BTreeMap<&'static str, (usize, Duration)> = BTreeMap::new();
        for (span, self_time) in self.spans.iter().zip(self.self_times()) {
            let entry = by_name.entry(span.name).or_default();
            entry.0 += 1;
            entry.1 += self_time;
        }
        let mut rows: Vec<_> = by_name
            .into_iter()
            .map(|(name, (count, total))| (name, count, total))
            .collect();
        rows.sort_by(|a, b| b.2.cmp(&a.2).then(a.0.cmp(b.0)));
        rows
    }

    /// Every span as tab-separated text: id, parent, name, start, end and
    /// self time, all times in nanoseconds since the run started.
    pub fn render_tsv(&self) -> String {
        let mut out = String::from("id\tparent\tname\tstart_ns\tend_ns\tself_ns\n");
        for (id, (span, self_time)) in self.spans.iter().zip(self.self_times()).enumerate() {
            let parent = span.parent.map_or("-".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{id}\t{parent}\t{}\t{}\t{}\t{}",
                span.name,
                span.start.as_nanos(),
                span.end.as_nanos(),
                self_time.as_nanos()
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<SpanId>, start: u64, end: u64) -> Span {
        Span {
            name,
            parent,
            start: Duration::from_nanos(start),
            end: Duration::from_nanos(end),
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = Spans {
            origin: now(),
            spans: vec![
                span("session", None, 0, 100),
                span("step", Some(0), 10, 40),
                span("probe", Some(0), 30, 50), // overlaps the step by 10
                span("probe", Some(0), 90, 120), // runs past the parent's end
            ],
            recording: true,
        };
        let self_times: Vec<u64> = spans
            .self_times()
            .iter()
            .map(|d| d.as_nanos() as u64)
            .collect();
        assert_eq!(self_times, vec![100 - 40 - 10, 30, 20, 30]);
        let rollup = spans.rollup();
        assert_eq!(rollup[0], ("probe", 2, Duration::from_nanos(50)));
        assert!(spans.render_tsv().contains("1\t0\tstep\t10\t40\t30\n"));
    }

    #[test]
    fn nothing_is_stored_while_not_recording() {
        let mut spans = Spans::new();
        spans.set_recording(false);
        let session = spans.open("session", None);
        let (value, _) = spans.time("step", Some(session), || 7);
        spans.close(session);
        assert_eq!(value, 7);
        assert!(spans.spans.is_empty());
        spans.set_recording(true);
        let session = spans.open("session", None);
        spans.time("step", Some(session), || ());
        spans.close(session);
        assert_eq!(spans.rollup().len(), 2);
    }
}
