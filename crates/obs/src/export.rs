//! Exporters: Chrome-trace/Perfetto JSON for spans, Prometheus-style text
//! for metrics and histograms.
//!
//! Both formats are deliberately boring — they open in tools people
//! already have. A `--events out.trace.json` drops straight into
//! `chrome://tracing` or <https://ui.perfetto.dev> as one `engine` track
//! of round, phase and wave spans; a `--metrics-out metrics.prom` greps and
//! plots like any node-exporter scrape.

use crate::hist::LogHistogram;
use crate::span::SpanEvent;
use std::fmt::Write as _;

/// Escapes a Prometheus label *value* per the text exposition format:
/// backslash, double quote and newline become `\\`, `\"` and `\n`. Apply
/// to any value that is not a known-safe literal (protocol names, query
/// parameters, anything user-influenced).
pub fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

/// Serializes recorded spans as a Chrome-trace (`chrome://tracing`,
/// Perfetto) JSON document.
///
/// A non-empty trace opens with one `thread_name` metadata record naming
/// tid 0 `engine`, so the viewer shows a label instead of a bare tid; every
/// span then becomes a `ph:"X"` complete event on that track carrying the
/// simulation round in `args`. Timestamps are microseconds (the format's
/// unit) with sub-µs precision kept as decimals.
pub fn chrome_trace(events: &[SpanEvent]) -> String {
    let us = |ns: u64| -> String {
        // Emit exact µs with up to three decimals, avoiding float rounding.
        let whole = ns / 1_000;
        let frac = ns % 1_000;
        if frac == 0 {
            format!("{whole}")
        } else {
            format!("{whole}.{frac:03}")
        }
    };
    let mut out = String::from("{\"traceEvents\":[");
    if !events.is_empty() {
        out.push_str(r#"{"ph":"M","name":"thread_name","pid":1,"tid":0,"args":{"name":"engine"}}"#);
    }
    for e in events {
        let _ = write!(
            out,
            r#",{{"ph":"X","name":"{}","pid":1,"tid":0,"ts":{},"dur":{},"args":{{"round":{}}}}}"#,
            e.name,
            us(e.start_ns),
            us(e.dur_ns),
            e.round
        );
    }
    out.push_str("]}");
    out
}

/// Incremental builder for a Prometheus text-exposition dump.
///
/// `# HELP` / `# TYPE` headers are emitted once per metric name (the first
/// time it appears), so several label sets of the same metric — one per
/// protocol, say — group under a single header as the format requires.
#[derive(Debug, Default)]
pub struct PromDump {
    out: String,
    seen: Vec<String>,
}

impl PromDump {
    /// Empty dump.
    pub fn new() -> Self {
        PromDump::default()
    }

    fn header(&mut self, name: &str, kind: &str, help: &str) {
        if self.seen.iter().any(|s| s == name) {
            return;
        }
        self.seen.push(name.to_string());
        let _ = writeln!(self.out, "# HELP {name} {help}");
        let _ = writeln!(self.out, "# TYPE {name} {kind}");
    }

    fn labelled(name: &str, labels: &str, suffix: &str, extra: Option<&str>) -> String {
        let mut inner = String::new();
        if !labels.is_empty() {
            inner.push_str(labels);
        }
        if let Some(e) = extra {
            if !inner.is_empty() {
                inner.push(',');
            }
            inner.push_str(e);
        }
        if inner.is_empty() {
            format!("{name}{suffix}")
        } else {
            format!("{name}{suffix}{{{inner}}}")
        }
    }

    /// Appends one gauge sample. `labels` is the raw label body, e.g.
    /// `protocol="cqp"` (empty for none).
    pub fn gauge(&mut self, name: &str, labels: &str, help: &str, value: f64) {
        self.header(name, "gauge", help);
        let series = PromDump::labelled(name, labels, "", None);
        let _ = writeln!(self.out, "{series} {value}");
    }

    /// Appends one counter sample.
    pub fn counter(&mut self, name: &str, labels: &str, help: &str, value: u64) {
        self.header(name, "counter", help);
        let series = PromDump::labelled(name, labels, "", None);
        let _ = writeln!(self.out, "{series} {value}");
    }

    /// Appends a [`LogHistogram`] in Prometheus histogram exposition:
    /// cumulative `_bucket{le="…"}` lines at each non-empty bucket's upper
    /// bound, a `+Inf` bucket, then `_sum` and `_count`.
    pub fn histogram(&mut self, name: &str, labels: &str, help: &str, hist: &LogHistogram) {
        self.header(name, "histogram", help);
        let mut cumulative = 0u64;
        for i in 0..LogHistogram::BUCKETS {
            let c = hist.bucket_count(i);
            if c == 0 {
                continue;
            }
            cumulative += c;
            let (_, hi) = LogHistogram::bucket_range(i);
            let le = if hi == u64::MAX {
                "+Inf".to_string()
            } else {
                hi.to_string()
            };
            let series =
                PromDump::labelled(name, labels, "_bucket", Some(&format!(r#"le="{le}""#)));
            let _ = writeln!(self.out, "{series} {cumulative}");
        }
        let inf = PromDump::labelled(name, labels, "_bucket", Some(r#"le="+Inf""#));
        let _ = writeln!(self.out, "{inf} {}", hist.count());
        let sum = PromDump::labelled(name, labels, "_sum", None);
        let _ = writeln!(self.out, "{sum} {}", hist.sum());
        let count = PromDump::labelled(name, labels, "_count", None);
        let _ = writeln!(self.out, "{count} {}", hist.count());
    }

    /// The accumulated text dump.
    pub fn finish(self) -> String {
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::Recorder;

    #[test]
    fn chrome_trace_emits_one_engine_track_of_spans() {
        let mut rec = Recorder::default();
        rec.set_enabled(true);
        let t = rec.start();
        rec.end("validation", 2, t);
        let t = rec.start();
        rec.end("round", 2, t);
        let json = chrome_trace(rec.events());
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with("]}"));
        assert!(json
            .contains(r#""ph":"M","name":"thread_name","pid":1,"tid":0,"args":{"name":"engine"}"#));
        assert_eq!(json.matches("thread_name").count(), 1);
        assert!(json.contains(r#""ph":"X","name":"validation""#));
        assert!(json.contains(r#""args":{"round":2}"#));
    }

    #[test]
    fn chrome_trace_of_nothing_is_still_a_document() {
        assert_eq!(chrome_trace(&[]), "{\"traceEvents\":[]}");
    }

    #[test]
    fn prom_dump_groups_headers_once_per_name() {
        let mut dump = PromDump::new();
        dump.gauge("wsn_energy_joules", r#"protocol="cqp""#, "energy", 1.5);
        dump.gauge("wsn_energy_joules", r#"protocol="naive""#, "energy", 4.0);
        let text = dump.finish();
        assert_eq!(text.matches("# HELP wsn_energy_joules").count(), 1);
        assert_eq!(text.matches("# TYPE wsn_energy_joules gauge").count(), 1);
        assert!(text.contains(r#"wsn_energy_joules{protocol="cqp"} 1.5"#));
        assert!(text.contains(r#"wsn_energy_joules{protocol="naive"} 4"#));
    }

    #[test]
    fn prom_histogram_is_cumulative_with_inf_sum_count() {
        let mut h = LogHistogram::default();
        for v in [3, 3, 100] {
            h.record(v);
        }
        let mut dump = PromDump::new();
        dump.histogram("wsn_msg_bits", r#"node="0""#, "frame sizes", &h);
        let text = dump.finish();
        assert!(text.contains(r#"wsn_msg_bits_bucket{node="0",le="3"} 2"#));
        assert!(text.contains(r#"wsn_msg_bits_bucket{node="0",le="127"} 3"#));
        assert!(text.contains(r#"wsn_msg_bits_bucket{node="0",le="+Inf"} 3"#));
        assert!(text.contains(r#"wsn_msg_bits_sum{node="0"} 106"#));
        assert!(text.contains(r#"wsn_msg_bits_count{node="0"} 3"#));
    }

    /// One parsed exposition series line: name, `(label, value)` pairs
    /// with escapes undone, and the sample.
    type Series = (String, Vec<(String, String)>, f64);

    /// Minimal exposition-format parser for the round-trip test.
    fn parse_series(text: &str) -> Vec<Series> {
        let mut out = Vec::new();
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let (series, sample) = line.rsplit_once(' ').expect("sample");
            let (name, labels) = match series.split_once('{') {
                None => (series.to_string(), Vec::new()),
                Some((name, rest)) => {
                    let body = rest.strip_suffix('}').expect("closing brace");
                    let mut labels = Vec::new();
                    let mut chars = body.chars().peekable();
                    while chars.peek().is_some() {
                        let mut key = String::new();
                        for c in chars.by_ref() {
                            if c == '=' {
                                break;
                            }
                            key.push(c);
                        }
                        assert_eq!(chars.next(), Some('"'));
                        let mut value = String::new();
                        loop {
                            match chars.next().expect("unterminated value") {
                                '\\' => match chars.next().expect("escape") {
                                    'n' => value.push('\n'),
                                    c => value.push(c),
                                },
                                '"' => break,
                                c => value.push(c),
                            }
                        }
                        if chars.peek() == Some(&',') {
                            chars.next();
                        }
                        labels.push((key, value));
                    }
                    (name.to_string(), labels)
                }
            };
            out.push((name, labels, sample.parse::<f64>().expect("float sample")));
        }
        out
    }

    #[test]
    fn hostile_label_values_round_trip_through_the_exposition_format() {
        let hostile = "IQ\"v2\\beta\nline2";
        let mut dump = PromDump::new();
        dump.gauge(
            "wsn_query_staleness_rounds",
            &format!(r#"slot="3",algorithm="{}""#, escape_label(hostile)),
            "staleness",
            2.0,
        );
        let text = dump.finish();
        // The physical series line must stay a single line...
        let series_lines: Vec<&str> = text.lines().filter(|l| !l.starts_with('#')).collect();
        assert_eq!(series_lines.len(), 1);
        // ...and parsing must recover the original value exactly.
        let parsed = parse_series(&text);
        assert_eq!(parsed.len(), 1);
        let (name, labels, value) = &parsed[0];
        assert_eq!(name, "wsn_query_staleness_rounds");
        assert_eq!(value, &2.0);
        assert_eq!(labels[0], ("slot".to_string(), "3".to_string()));
        assert_eq!(labels[1].0, "algorithm");
        assert_eq!(labels[1].1, hostile);
    }

    #[test]
    fn per_query_label_sets_share_one_type_header() {
        let mut dump = PromDump::new();
        for slot in 0..4 {
            dump.gauge(
                "wsn_query_lane_joules",
                &format!(r#"slot="{slot}""#),
                "lane energy",
                slot as f64,
            );
            dump.counter(
                "wsn_query_answers_total",
                &format!(r#"slot="{slot}""#),
                "answers",
                slot,
            );
        }
        let text = dump.finish();
        assert_eq!(
            text.matches("# TYPE wsn_query_lane_joules gauge").count(),
            1
        );
        assert_eq!(
            text.matches("# TYPE wsn_query_answers_total counter")
                .count(),
            1
        );
        assert_eq!(text.matches("# HELP wsn_query_lane_joules").count(), 1);
        assert_eq!(parse_series(&text).len(), 8, "all eight samples kept");
    }

    #[test]
    fn escape_label_handles_the_three_specials() {
        assert_eq!(escape_label("plain"), "plain");
        assert_eq!(escape_label(r#"a"b"#), r#"a\"b"#);
        assert_eq!(escape_label(r"a\b"), r"a\\b");
        assert_eq!(escape_label("a\nb"), r"a\nb");
    }

    #[test]
    fn unlabelled_series_have_no_braces() {
        let mut dump = PromDump::new();
        dump.counter("wsn_rounds_total", "", "rounds", 42);
        let text = dump.finish();
        assert!(text.contains("wsn_rounds_total 42"));
        assert!(!text.contains("wsn_rounds_total{"));
    }
}
