//! In-memory span recorder for the traced run. Spans are recorded in
//! the benchmark's own code, around its calls into a layer's public
//! functions; they are kept in memory and written out (Chrome
//! trace-event format) only when the run ends.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;

#[derive(Debug, Clone)]
pub struct Span {
    /// `<layer>.<call>`, e.g. `core.runtime.tick`; the layer is the
    /// library module the call enters.
    pub name: &'static str,
    /// Nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same recorder.
    pub parent: Option<usize>,
    /// The operation the span belongs to.
    pub op: u64,
}

impl Span {
    pub fn dur_us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// One caller thread's spans. A disabled recorder runs the closure and
/// records nothing, which is what the untraced run uses.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    /// Chrome-trace thread id (the caller number).
    tid: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(enabled: bool, epoch: Instant, tid: u32) -> Self {
        Recorder {
            enabled,
            epoch,
            tid,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn off() -> Self {
        Recorder::new(false, Instant::now(), 0)
    }

    /// Run `f` inside a span; the span nests under whichever span of
    /// this recorder is open.
    pub fn span<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        let parent = self.open.last().copied();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent,
            op,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    /// The caller thread this recorder belongs to.
    pub fn tid(&self) -> u32 {
        self.tid
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (µs) of every span with this name, in recording order.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_us)
            .collect()
    }

    /// Per span name, the durations and the self times (duration minus
    /// what the span's direct children cover), µs.
    pub fn by_name(&self) -> BTreeMap<&'static str, (Vec<f64>, Vec<f64>)> {
        let mut child_us = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_us[p] += s.dur_us();
            }
        }
        let mut out: BTreeMap<&'static str, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
        for (s, covered) in self.spans.iter().zip(child_us) {
            let entry = out.entry(s.name).or_default();
            entry.0.push(s.dur_us());
            entry.1.push((s.dur_us() - covered).max(0.0));
        }
        out
    }

    fn events(&self) -> impl Iterator<Item = Json> + '_ {
        self.spans.iter().enumerate().map(|(i, s)| {
            let layer = s.name.rsplit_once('.').map_or(s.name, |(layer, _)| layer);
            Json::obj([
                ("name", Json::str(s.name)),
                ("cat", Json::str(layer)),
                ("ph", Json::str("X")),
                ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                ("dur", Json::Num(s.dur_us())),
                ("pid", Json::Num(1.0)),
                ("tid", Json::Num(f64::from(self.tid))),
                (
                    "args",
                    Json::obj([
                        ("span", Json::Num(i as f64)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                        ("op", Json::Num(s.op as f64)),
                    ]),
                ),
            ])
        })
    }
}

/// The recorders of one run as a Chrome trace-event document
/// (`chrome://tracing`, Perfetto).
pub fn chrome_trace(recorders: &[Recorder]) -> Json {
    Json::obj([
        ("displayTimeUnit", Json::str("ns")),
        (
            "traceEvents",
            Json::Arr(recorders.iter().flat_map(Recorder::events).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut r = Recorder::new(true, Instant::now(), 3);
        r.span("bench.op", 7, |r| {
            r.span("core.runtime.ingest", 7, |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            r.span("core.runtime.tick", 7, |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let spans = r.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.op == 7 && s.end_ns >= s.start_ns));
        let by_name = r.by_name();
        let (op_dur, op_self) = &by_name["bench.op"];
        assert!(op_dur[0] >= 4000.0);
        assert!(op_self[0] < op_dur[0] - 3900.0, "children are subtracted");
        assert_eq!(r.durations_us("core.runtime.tick").len(), 1);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut r = Recorder::off();
        assert_eq!(r.span("bench.op", 0, |_| 5), 5);
        assert!(r.spans().is_empty());
    }

    #[test]
    fn chrome_trace_names_layer_and_parent() {
        let mut r = Recorder::new(true, Instant::now(), 1);
        r.span("bench.op", 0, |r| r.span("core.runtime.tick", 0, |_| ()));
        let doc = chrome_trace(&[r]);
        let events = doc.get("traceEvents").unwrap().as_arr();
        assert_eq!(events.len(), 2);
        assert_eq!(
            events[1].get("cat").and_then(Json::as_str),
            Some("core.runtime")
        );
        assert_eq!(
            events[1]
                .get("args")
                .and_then(|a| a.get("parent"))
                .and_then(Json::as_f64),
            Some(0.0)
        );
    }
}
