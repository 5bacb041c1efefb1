//! In-memory spans around the benchmark's calls into each layer, written
//! out as Chrome trace-event JSON when the run ends.
//!
//! A disabled [`Tracer`] records nothing and never reads the clock, so the
//! untraced measurement pays one branch per call site.

use chg_serve::json::Json;
use std::time::Instant;

/// One finished layer call.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified name, e.g. `oag.build` or `chgraph.execute.gla`.
    pub name: &'static str,
    /// Shared by every span of one request or cell.
    pub id: u64,
    /// Index of the enclosing span in the same tracer, if any.
    pub parent: Option<usize>,
    /// Thread lane in the exported trace (client index for serve).
    pub lane: u64,
    /// Start and end, in nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// See `start_ns`.
    pub end_ns: u64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Handle of an open span (`None` when tracing is off).
#[derive(Clone, Copy)]
pub struct Open(Option<usize>);

impl Open {
    /// The parent of a top-level span.
    pub const ROOT: Open = Open(None);
}

/// A per-thread span recorder.
pub struct Tracer {
    epoch: Option<Instant>,
    lane: u64,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Self {
        Tracer { epoch: None, lane: 0, spans: Vec::new() }
    }

    /// A recording tracer; every tracer of one run shares `epoch`.
    pub fn on(epoch: Instant, lane: u64) -> Self {
        Tracer { epoch: Some(epoch), lane, spans: Vec::new() }
    }

    /// A tracer on a new lane that records when `self` does, on the same
    /// epoch.
    pub fn fork(&self, lane: u64) -> Self {
        Tracer { epoch: self.epoch, lane, spans: Vec::new() }
    }

    /// Opens a span named `name` for request or cell `id`.
    pub fn begin(&mut self, name: &'static str, id: u64, parent: Open) -> Open {
        let Some(epoch) = self.epoch else { return Open(None) };
        let now = epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            id,
            parent: parent.0,
            lane: self.lane,
            start_ns: now,
            end_ns: now,
        });
        Open(Some(self.spans.len() - 1))
    }

    /// Closes `span`.
    pub fn end(&mut self, span: Open) {
        if let (Some(epoch), Some(i)) = (self.epoch, span.0) {
            self.spans[i].end_ns = epoch.elapsed().as_nanos() as u64;
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        id: u64,
        parent: Open,
        f: impl FnOnce() -> T,
    ) -> T {
        let open = self.begin(name, id, parent);
        let out = f();
        self.end(open);
        out
    }

    /// Moves another tracer's spans into this one, rebasing parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Milliseconds spent in spans named `name`.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.spans.iter().filter(|s| s.name == name).map(Span::ms).sum()
    }

    /// The spans as a Chrome trace-event array ("X" complete events,
    /// microsecond timestamps), openable in `chrome://tracing` or Perfetto.
    pub fn chrome_json(&self) -> Json {
        let us = |ns: u64| Json::F64(ns as f64 / 1e3);
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::obj(vec![
                        ("name", Json::Str(s.name.to_string())),
                        ("cat", Json::Str(layer_of(s.name).to_string())),
                        ("ph", Json::Str("X".into())),
                        ("ts", us(s.start_ns)),
                        ("dur", us(s.end_ns - s.start_ns)),
                        ("pid", Json::U64(1)),
                        ("tid", Json::U64(s.lane)),
                        (
                            "args",
                            Json::obj(vec![
                                ("id", Json::U64(s.id)),
                                ("parent", s.parent.map_or(Json::Null, |p| Json::U64(p as u64))),
                            ]),
                        ),
                    ])
                })
                .collect(),
        )
    }
}

/// The layer a span name belongs to: its first dotted component.
fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::off();
        let v = t.span("oag.build", 1, Open(None), || 7);
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn spans_nest_and_export() {
        let mut t = Tracer::on(Instant::now(), 0);
        let root = t.begin("cold_run", 3, Open(None));
        t.span("oag.build", 3, root, || ());
        t.end(root);
        let mut other = t.fork(1);
        let r = other.begin("serve.rtt", 9, Open(None));
        other.span("serve.codec", 9, r, || ());
        other.end(r);
        t.absorb(other);
        let s = t.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[3].parent, Some(2));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        let text = t.chrome_json().encode();
        let parsed = chg_serve::json::parse(&text).expect("valid JSON");
        let events = parsed.as_arr().expect("a plain array");
        assert_eq!(events.len(), 4);
        assert_eq!(events[1].get("cat").and_then(Json::as_str), Some("oag"));
        assert_eq!(events[3].get("tid").and_then(Json::as_u64), Some(1));
    }
}
