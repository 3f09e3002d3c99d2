//! In-memory span recorder for the traced run.
//!
//! Spans are recorded around each call the benchmark makes into a
//! layer: name, start, end, parent span and, for `serve-mixed`, the
//! client session they belong to. They stay in memory and are written
//! out once, when the run ends. An untraced recorder records nothing.

use fvl_obs::Json;
use std::io::{self, Write};
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// One finished span. Times are nanoseconds since the recorder started.
#[derive(Clone, Debug)]
pub struct Span {
    /// Unique id, in order of opening.
    pub id: u64,
    /// The enclosing span, if any.
    pub parent: Option<u64>,
    /// Layer call, e.g. `exp.fig10` or `serve.sim`.
    pub name: String,
    /// Client session the span belongs to (`serve-mixed` only).
    pub session: Option<u64>,
    /// Start, ns since the recorder's origin.
    pub start_ns: u64,
    /// End, ns since the recorder's origin.
    pub end_ns: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Collects spans when enabled; every method is a no-op otherwise.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    state: Mutex<(u64, Vec<Span>)>,
}

/// An open span; closed by [`Tracer::close`].
#[derive(Debug)]
#[must_use = "an open span records nothing until it is closed"]
pub struct Open {
    id: u64,
    parent: Option<u64>,
    name: String,
    session: Option<u64>,
    start_ns: u64,
}

impl Open {
    /// This span's id, to pass as the parent of nested spans.
    pub fn id(&self) -> Option<u64> {
        (self.id != 0).then_some(self.id)
    }
}

impl Tracer {
    /// A recorder that records only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            state: Mutex::new((0, Vec::new())),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span named `name` under `parent`.
    pub fn open(&self, name: &str, parent: Option<u64>, session: Option<u64>) -> Open {
        if !self.enabled {
            return Open {
                id: 0,
                parent: None,
                name: String::new(),
                session: None,
                start_ns: 0,
            };
        }
        let id = {
            let mut state = self.state.lock().expect("span log lock poisoned");
            state.0 += 1;
            state.0
        };
        Open {
            id,
            parent,
            name: name.to_string(),
            session,
            start_ns: self.now_ns(),
        }
    }

    /// Closes `open`, recording it.
    pub fn close(&self, open: Open) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        let span = Span {
            id: open.id,
            parent: open.parent,
            name: open.name,
            session: open.session,
            start_ns: open.start_ns,
            end_ns,
        };
        self.state
            .lock()
            .expect("span log lock poisoned")
            .1
            .push(span);
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&self, name: &str, parent: Option<u64>, f: impl FnOnce() -> R) -> R {
        let open = self.open(name, parent, None);
        let out = f();
        self.close(open);
        out
    }

    /// Every span recorded so far, in order of closing.
    pub fn spans(&self) -> Vec<Span> {
        self.state.lock().expect("span log lock poisoned").1.clone()
    }

    /// Writes the recorded spans as JSON lines, one object per span.
    ///
    /// # Errors
    ///
    /// Propagates file creation and write errors.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        let opt = |v: Option<u64>| v.map_or(Json::Null, Json::U64);
        for s in self.spans() {
            let span = Json::object([
                ("id", Json::U64(s.id)),
                ("parent", opt(s.parent)),
                ("name", Json::from(s.name)),
                ("session", opt(s.session)),
                ("start_ns", Json::U64(s.start_ns)),
                ("end_ns", Json::U64(s.end_ns)),
            ]);
            writeln!(out, "{}", span.render())?;
        }
        out.flush()
    }
}

/// Sum of the durations, in seconds, of the spans named `name`.
pub fn total_secs(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::secs)
        .sum()
}

/// Durations, in seconds, of the spans named `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::secs)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        t.span("x", None, || ());
        assert!(t.spans().is_empty());
    }

    #[test]
    fn nested_spans_keep_their_parent() {
        let t = Tracer::new(true);
        let outer = t.open("outer", None, Some(7));
        t.span("inner", outer.id(), || ());
        let outer_id = outer.id();
        t.close(outer);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "inner");
        assert_eq!(spans[0].parent, outer_id);
        assert_eq!(spans[1].session, Some(7));
        assert!(spans[1].start_ns <= spans[0].start_ns && spans[0].end_ns <= spans[1].end_ns);
    }
}
