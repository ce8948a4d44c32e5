//! In-memory spans around the benchmark's own calls into each layer.
//!
//! A span has a name, start and end (seconds since the tracer began), the
//! span that caused it, and the id of the benchmark operation it belongs
//! to. Spans are kept in memory and written out once, when the run ends.
//! A tracer that is off records nothing, so untraced runs pay one branch
//! per boundary.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub id: usize,
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start_s: f64,
    pub end_s: f64,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        self.end_s - self.start_s
    }
}

#[derive(Default)]
struct State {
    spans: Vec<Span>,
    /// Ids of the spans currently open on the benchmark's main thread.
    open: Vec<usize>,
    counters: BTreeMap<&'static str, Vec<f64>>,
}

pub struct Tracer {
    on: bool,
    origin: Instant,
    state: Mutex<State>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            state: Mutex::new(State::default()),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    fn state(&self) -> std::sync::MutexGuard<'_, State> {
        self.state
            .lock()
            .expect("tracer lock: no span code panics while holding it")
    }

    /// Run `f` inside a span named `name`, nested under the innermost
    /// span open on this thread of control.
    pub fn span<T>(&self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start = self.origin.elapsed().as_secs_f64();
        let id = {
            let mut st = self.state();
            let id = st.spans.len();
            let parent = st.open.last().copied();
            st.spans.push(Span {
                id,
                name,
                op,
                parent,
                start_s: start,
                end_s: start,
            });
            st.open.push(id);
            id
        };
        let out = f();
        let end = self.origin.elapsed().as_secs_f64();
        let mut st = self.state();
        st.open.pop();
        st.spans[id].end_s = end;
        out
    }

    /// Record a span measured elsewhere (e.g. on a client thread), under
    /// the innermost open span.
    pub fn record(&self, name: &'static str, op: u64, start: Instant, end: Instant) {
        if !self.on {
            return;
        }
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_secs_f64();
        let mut st = self.state();
        let id = st.spans.len();
        let parent = st.open.last().copied();
        st.spans.push(Span {
            id,
            name,
            op,
            parent,
            start_s: at(start),
            end_s: at(end),
        });
    }

    /// Add one observation of a counter measured at a layer boundary.
    pub fn count(&self, name: &'static str, value: f64) {
        if self.on {
            self.state().counters.entry(name).or_default().push(value);
        }
    }

    /// Durations of every span named `name`, in the order they opened.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.state()
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::seconds)
            .collect()
    }

    /// Every observation of counter `name`.
    pub fn counts(&self, name: &str) -> Vec<f64> {
        self.state().counters.get(name).cloned().unwrap_or_default()
    }

    /// Write every span as one JSON object per line.
    pub fn dump(&self, path: &Path) -> std::io::Result<()> {
        let st = self.state();
        let mut out = String::new();
        for s in &st.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\
                 \"start_s\":{},\"end_s\":{}}}",
                s.id, s.name, s.op, s.start_s, s.end_s
            );
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_under_the_open_span() {
        let t = Tracer::new(true);
        t.span("outer", 7, || {
            t.span("inner", 7, || ());
            t.record("side", 7, Instant::now(), Instant::now());
        });
        t.span("next", 8, || ());
        let st = t.state();
        let names: Vec<_> = st.spans.iter().map(|s| (s.name, s.parent, s.op)).collect();
        assert_eq!(
            names,
            [
                ("outer", None, 7),
                ("inner", Some(0), 7),
                ("side", Some(0), 7),
                ("next", None, 8)
            ]
        );
        assert!(st.spans.iter().all(|s| s.end_s >= s.start_s));
    }

    #[test]
    fn a_tracer_that_is_off_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("x", 0, || 5), 5);
        t.count("c", 1.0);
        assert!(t.durations("x").is_empty() && t.counts("c").is_empty());
    }
}
