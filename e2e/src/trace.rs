//! In-memory spans for the traced run.
//!
//! Spans are recorded from the benchmark's side of each crate boundary —
//! around every call into `hc-core` and around each layer replay — kept
//! in memory, and written out as JSON lines when the run ends. A span's
//! self time is its duration minus the part its children cover. With
//! tracing off every method is a branch on one bool.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::json::Json;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name (`core.step_wave`, `chain.execute`, …).
    pub name: &'static str,
    /// Nanoseconds from the tracer's origin to the span's start.
    pub start_ns: u64,
    /// Nanoseconds the span lasted.
    pub dur_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<u32>,
    /// Injection round the span belongs to.
    pub round: u32,
    /// Wave the span belongs to.
    pub wave: u32,
    /// Calls the span stands for: `1`, or the number of per-message calls
    /// an aggregate span sums.
    pub calls: u32,
}

/// Handle returned by [`Tracer::enter`] and consumed by [`Tracer::exit`].
#[derive(Debug, Clone, Copy)]
#[must_use = "a span that is never exited keeps its zero duration"]
pub struct SpanId(Option<u32>);

/// Span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    /// Round stamped on new spans.
    pub round: u32,
    /// Wave stamped on new spans.
    pub wave: u32,
}

impl Tracer {
    /// A tracer that records (`enabled`) or ignores everything.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            round: 0,
            wave: 0,
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Nanoseconds since the tracer's origin.
    pub fn clock_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: self.clock_ns(),
            dur_ns: 0,
            parent: self.stack.last().copied(),
            round: self.round,
            wave: self.wave,
            calls: 1,
        });
        self.stack.push(id);
        SpanId(Some(id))
    }

    /// Closes a span (and any span still open inside it).
    pub fn exit(&mut self, id: SpanId) {
        let Some(id) = id.0 else { return };
        let end = self.clock_ns();
        while let Some(open) = self.stack.pop() {
            let span = &mut self.spans[open as usize];
            span.dur_ns = end.saturating_sub(span.start_ns);
            if open == id {
                break;
            }
        }
    }

    /// Records a closed span standing for `calls` short calls that
    /// together took `dur_ns`, as a child of the innermost open span.
    /// Per-message calls are summed this way instead of recording a
    /// million spans.
    pub fn aggregate(&mut self, name: &'static str, start_ns: u64, dur_ns: u64, calls: u32) {
        if !self.enabled || calls == 0 {
            return;
        }
        self.spans.push(Span {
            name,
            start_ns,
            dur_ns,
            parent: self.stack.last().copied(),
            round: self.round,
            wave: self.wave,
            calls,
        });
    }

    /// Total seconds of every span called `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns)
            .sum::<u64>() as f64
            / 1e9
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span: duration minus the children's durations.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.dur_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p as usize] = own[p as usize].saturating_sub(s.dur_ns);
            }
        }
        own
    }

    /// Writes one JSON object per span to `path`.
    ///
    /// # Errors
    ///
    /// Returns the I/O error, with the path, if the file cannot be
    /// written.
    pub fn write_jsonl(&self, path: &Path, workload: &str) -> Result<(), String> {
        let fail = |e: std::io::Error| format!("{}: {e}", path.display());
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(fail)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path).map_err(fail)?);
        let own = self.self_ns();
        for (id, (s, self_ns)) in self.spans.iter().zip(own).enumerate() {
            let line = Json::obj([
                ("id", Json::Num(id as f64)),
                ("name", Json::Str(s.name.to_owned())),
                ("workload", Json::Str(workload.to_owned())),
                ("round", Json::Num(f64::from(s.round))),
                ("wave", Json::Num(f64::from(s.wave))),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::Num(f64::from(p))),
                ),
                ("start_us", Json::Num(s.start_ns as f64 / 1e3)),
                ("end_us", Json::Num((s.start_ns + s.dur_ns) as f64 / 1e3)),
                ("self_us", Json::Num(self_ns as f64 / 1e3)),
                ("calls", Json::Num(f64::from(s.calls))),
            ]);
            writeln!(out, "{}", line.render()).map_err(fail)?;
        }
        out.flush().map_err(fail)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let a = t.enter("core.step_wave");
        t.aggregate("core.submit", 0, 10, 3);
        t.exit(a);
        assert!(t.spans().is_empty());
        assert_eq!(t.total_s("core.step_wave"), 0.0);
    }

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut t = Tracer::new(true);
        t.round = 3;
        t.wave = 7;
        let outer = t.enter("wave");
        let inner = t.enter("core.step_wave");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.exit(inner);
        t.aggregate("core.submit", t.clock_ns(), 500, 4);
        t.exit(outer);

        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!((spans[1].round, spans[1].wave), (3, 7));
        assert_eq!(spans[2].calls, 4);
        assert!(spans[0].dur_ns >= spans[1].dur_ns);

        let own = t.self_ns();
        assert_eq!(own[0], spans[0].dur_ns - spans[1].dur_ns - 500);
        assert_eq!(own[1], spans[1].dur_ns);
        assert!(t.total_s("core.step_wave") >= 0.002);
    }

    #[test]
    fn exiting_an_outer_span_closes_the_inner_ones() {
        let mut t = Tracer::new(true);
        let outer = t.enter("a");
        let _inner = t.enter("b");
        t.exit(outer);
        assert!(t.spans().iter().all(|s| s.dur_ns > 0 || s.start_ns > 0));
        let again = t.enter("c");
        t.exit(again);
        assert_eq!(t.spans()[2].parent, None);
    }
}
