//! Allocation-free-when-disabled span recording with wall-clock timing.
//!
//! The simulator's logical time is rounds; its *cost* is wall-clock. The
//! [`Recorder`] bridges the two: every span carries both the simulation
//! round it belongs to and the real nanoseconds it took, so a Chrome-trace
//! export shows where the engine actually spends its time — initialization
//! collections dwarfing validation counters, ARQ storms stretching a wave.
//! The network records at wave granularity — rounds, protocol phases and
//! convergecast/broadcast waves — so a run records O(waves) spans, never
//! one per send.
//!
//! Disabled (the default) the recorder is inert: [`Recorder::start`]
//! returns a null token without reading the clock and every record call is
//! a single branch — no allocation, no `Instant::now`, nothing that could
//! perturb a benchmarked hot path.

use std::time::Instant;

/// One recorded span: `start_ns .. start_ns + dur_ns`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpanEvent {
    /// Static label ("round", "convergecast", a phase name, …).
    pub name: &'static str,
    /// Simulation round the span happened in.
    pub round: u32,
    /// Nanoseconds since the recorder was enabled.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

/// A timestamp token from [`Recorder::start`]; `None` means the recorder
/// was disabled when the span began, so its end is dropped too.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanStart(Option<Instant>);

/// The span recorder. One per network; disabled by default.
#[derive(Debug, Clone)]
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    events: Vec<SpanEvent>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            enabled: false,
            epoch: Instant::now(),
            events: Vec::new(),
        }
    }
}

impl Recorder {
    /// Turns recording on or off. Enabling resets the epoch (timestamps
    /// count from here) and clears previously recorded events.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
        self.epoch = Instant::now();
        self.events.clear();
    }

    /// Whether events are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Begins a span. Free (no clock read) when disabled.
    #[inline]
    pub fn start(&self) -> SpanStart {
        if self.enabled {
            SpanStart(Some(Instant::now()))
        } else {
            SpanStart(None)
        }
    }

    /// Ends a span begun with [`Recorder::start`]. A span whose start was
    /// taken while disabled is silently dropped, so toggling mid-flight
    /// never records half-timed garbage.
    #[inline]
    pub fn end(&mut self, name: &'static str, round: u32, start: SpanStart) {
        let (Some(begin), true) = (start.0, self.enabled) else {
            return;
        };
        let start_ns = begin.saturating_duration_since(self.epoch).as_nanos() as u64;
        let dur_ns = begin.elapsed().as_nanos() as u64;
        self.events.push(SpanEvent {
            name,
            round,
            start_ns,
            dur_ns,
        });
    }

    /// All recorded spans, in the order they ended.
    pub fn events(&self) -> &[SpanEvent] {
        &self.events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut rec = Recorder::default();
        let t = rec.start();
        rec.end("x", 0, t);
        assert!(rec.events().is_empty());
        assert!(!rec.is_enabled());
    }

    #[test]
    fn enabled_recorder_times_spans() {
        let mut rec = Recorder::default();
        rec.set_enabled(true);
        let t = rec.start();
        std::hint::black_box((0..1000).sum::<u64>());
        rec.end("work", 7, t);
        assert_eq!(rec.events().len(), 1);
        let span = rec.events()[0];
        assert_eq!(span.name, "work");
        assert_eq!(span.round, 7);
    }

    #[test]
    fn span_started_while_disabled_is_dropped() {
        let mut rec = Recorder::default();
        let t = rec.start(); // disabled: null token
        rec.set_enabled(true);
        rec.end("late", 0, t);
        assert!(rec.events().is_empty());
    }

    #[test]
    fn re_enabling_clears_history() {
        let mut rec = Recorder::default();
        rec.set_enabled(true);
        let t = rec.start();
        rec.end("a", 0, t);
        rec.set_enabled(true);
        assert!(rec.events().is_empty());
    }
}
