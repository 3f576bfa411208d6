//! In-memory spans around the calls the benchmark makes into each layer.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::stats::self_time;

const NO_PARENT: u32 = u32::MAX;

/// One timed call: which layer and function, the span that caused it,
/// the unit it belongs to, and its interval in ns since the trace began.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub layer: &'static str,
    pub name: &'static str,
    pub parent: u32,
    pub unit: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans; nesting follows the order of `begin`/`end` calls.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    unit: u32,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            unit: 0,
        }
    }
}

impl Tracer {
    /// Nanoseconds since the trace began.
    pub fn elapsed_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Tags the spans that follow with unit id `unit`.
    pub fn set_unit(&mut self, unit: u32) {
        self.unit = unit;
    }

    /// Opens a span as a child of the innermost open one.
    pub fn begin(&mut self, layer: &'static str, name: &'static str) {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            layer,
            name,
            parent: self.open.last().copied().unwrap_or(NO_PARENT),
            unit: self.unit,
            start_ns: self.elapsed_ns(),
            end_ns: 0,
        });
        self.open.push(id);
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        let id = self.open.pop().expect("end without a matching begin");
        self.spans[id as usize].end_ns = self.elapsed_ns();
    }

    /// Closes every span opened beyond depth `depth` (after a panic).
    pub fn unwind_to(&mut self, depth: usize) {
        while self.open.len() > depth {
            self.end();
        }
    }

    /// Open-span depth, for [`Tracer::unwind_to`].
    pub fn depth(&self) -> usize {
        self.open.len()
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, layer: &'static str, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.begin(layer, name);
        let out = f();
        self.end();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, indexed like [`Tracer::spans`].
    pub fn self_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                children[s.parent as usize].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(&mut children)
            .map(|(s, c)| self_time(s.start_ns, s.end_ns, c))
            .collect()
    }

    /// Summed duration of the spans no other span caused.
    pub fn top_level_ns(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent == NO_PARENT)
            .map(Span::ns)
            .sum()
    }

    /// Durations in seconds of the spans matching `layer` (and `name`).
    pub fn durations_s(&self, layer: &str, name: Option<&str>) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.layer == layer && name.is_none_or(|n| s.name == n))
            .map(|s| s.ns() as f64 * 1e-9)
            .collect()
    }

    /// Writes every span as CSV: `id,parent,unit,layer,name,start_ns,end_ns`
    /// (`parent` empty for top-level spans).
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id,parent,unit,layer,name,start_ns,end_ns")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                String::new()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{id},{parent},{},{},{},{},{}",
                s.unit, s.layer, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut tr = Tracer::default();
        tr.set_unit(7);
        tr.begin("unit", "pass");
        let x = tr.span("protocol", "HBC", || {
            std::thread::sleep(std::time::Duration::from_millis(2));
            5
        });
        tr.end();
        assert_eq!(x, 5);
        let spans = tr.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, 0);
        assert_eq!(spans[1].unit, 7);
        let own = tr.self_ns();
        assert_eq!(own[0] + own[1], spans[0].ns());
        assert!(own[1] >= 2_000_000);
        assert_eq!(tr.top_level_ns(), spans[0].ns());
        assert_eq!(tr.durations_s("protocol", Some("HBC")).len(), 1);
    }

    #[test]
    fn unwinding_closes_spans_left_open_by_a_panic() {
        let mut tr = Tracer::default();
        let depth = tr.depth();
        tr.begin("unit", "pass");
        tr.begin("protocol", "IQ");
        tr.unwind_to(depth);
        assert_eq!(tr.depth(), 0);
        assert!(tr.spans().iter().all(|s| s.end_ns >= s.start_ns));
    }
}
