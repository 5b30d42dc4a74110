//! Spans recorded around the calls into each layer, kept in memory and
//! written to `benchmark/out/trace_<workload>.json` when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Marks a span without a parent or a request.
pub const NONE: u64 = u64::MAX;

/// One timed interval. `parent` is the index of the span that caused it
/// in the owning [`Trace`]; spans of one request share `request_id`.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `client.wait` or `probe.net.wire`.
    pub name: String,
    /// Start, ns on the trace clock.
    pub start_ns: u64,
    /// End, ns.
    pub end_ns: u64,
    /// Index of the parent span, or [`NONE`].
    pub parent: u64,
    /// Request the span belongs to, or [`NONE`].
    pub request_id: u64,
}

/// The in-memory span store of one traced run.
#[derive(Debug)]
pub struct Trace {
    t0: Instant,
    /// Every span recorded so far; a span's id is its index.
    pub spans: Vec<Span>,
}

impl Trace {
    /// An empty trace whose clock starts now.
    pub fn new() -> Trace {
        Trace {
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the trace began.
    pub fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// `at` on the trace clock, ns (0 for instants before the trace).
    pub fn ns_of(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.t0).as_nanos() as u64
    }

    /// Records a span and returns its id.
    pub fn push(
        &mut self,
        name: &str,
        start_ns: u64,
        end_ns: u64,
        parent: u64,
        request_id: u64,
    ) -> u64 {
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: end_ns.max(start_ns),
            parent,
            request_id,
        });
        (self.spans.len() - 1) as u64
    }

    /// Runs `f` inside a span named `name` under `parent`.
    pub fn time<R>(&mut self, name: &str, parent: u64, f: impl FnOnce(&mut Trace, u64) -> R) -> R {
        let start = self.now_ns();
        let id = self.push(name, start, start, parent, NONE);
        let r = f(self, id);
        self.spans[id as usize].end_ns = self.now_ns();
        r
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != NONE {
            let p = &spans[s.parent as usize];
            // Only the part of a child inside its parent can cover it.
            let (a, b) = (s.start_ns.max(p.start_ns), s.end_ns.min(p.end_ns));
            if a < b {
                children[s.parent as usize].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for &(a, b) in kids.iter() {
                if b > reach {
                    covered += b - a.max(reach);
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// Total self time per span name, ns.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<String, u64> {
    let mut by_name = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *by_name.entry(s.name.clone()).or_insert(0) += t;
    }
    by_name
}

/// Appends `s` as a JSON string literal.
pub fn json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("write to string"),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// The trace file: `header` is a ready JSON object body (without
/// braces) describing the run; `self_time_ns` sums self time by name.
pub fn to_json(header: &str, spans: &[Span]) -> String {
    let mut out = String::with_capacity(64 + spans.len() * 96);
    out.push('{');
    out.push_str(header);
    out.push_str(",\"self_time_ns\":{");
    for (i, (name, ns)) in self_time_by_name(spans).iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json_str(&mut out, name);
        write!(out, ":{ns}").expect("write to string");
    }
    out.push_str("},\"spans\":[\n");
    let opt = |v: u64| {
        if v == NONE {
            "null".to_string()
        } else {
            v.to_string()
        }
    };
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str("{\"id\":");
        write!(out, "{i},\"name\":").expect("write to string");
        json_str(&mut out, &s.name);
        write!(
            out,
            ",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request_id\":{}}}",
            s.start_ns,
            s.end_ns,
            opt(s.parent),
            opt(s.request_id)
        )
        .expect("write to string");
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: u64, end: u64, parent: u64) -> Span {
        Span {
            name: name.into(),
            start_ns: start,
            end_ns: end,
            parent,
            request_id: 7,
        }
    }

    #[test]
    fn self_time_subtracts_child_coverage_once() {
        // request [0,100]
        //   encode [0,10]   write [10,30]
        //   wait [30,90] with queue [35,50], service [45,80] (overlap)
        //   decode [90,100]
        let spans = vec![
            span("request", 0, 100, NONE),
            span("encode", 0, 10, 0),
            span("write", 10, 30, 0),
            span("wait", 30, 90, 0),
            span("queue", 35, 50, 3),
            span("service", 45, 80, 3),
            span("decode", 90, 100, 0),
            // A child leaking past its parent covers only the inside.
            span("late", 95, 120, 6),
        ];
        let st = self_times(&spans);
        assert_eq!(st[0], 0, "children tile the request");
        assert_eq!(st[3], 60 - 45, "union of [35,50] and [45,80] is 45");
        assert_eq!(st[6], 5, "only [95,100] of the leaking child counts");
        assert_eq!(st[7], 25);
        let by = self_time_by_name(&spans);
        assert_eq!(by["wait"], 15);
        assert_eq!(by.values().sum::<u64>(), st.iter().sum::<u64>());
    }

    #[test]
    fn trace_file_parses_and_keeps_every_span() {
        let spans = vec![span("a \"quoted\" name", 1, 5, NONE), span("b", 2, 3, 0)];
        let text = to_json("\"workload\":\"w\"", &spans);
        let v = bm_telemetry::json::parse(&text).expect("valid JSON");
        assert_eq!(v.get("workload").and_then(|w| w.as_str()), Some("w"));
        let arr = v.get("spans").and_then(|s| s.as_arr()).expect("spans");
        assert_eq!(arr.len(), 2);
        assert_eq!(
            arr[0].get("name").and_then(|n| n.as_str()),
            Some("a \"quoted\" name")
        );
        assert_eq!(arr[0].get("parent"), Some(&bm_telemetry::json::Value::Null));
        assert_eq!(arr[1].get("parent").and_then(|p| p.as_u64()), Some(0));
        let st = v.get("self_time_ns").expect("self times");
        assert_eq!(st.get("b").and_then(|b| b.as_u64()), Some(1));
    }

    #[test]
    fn timed_spans_nest() {
        let mut t = Trace::new();
        t.time("outer", NONE, |t, outer| {
            t.time("inner", outer, |_, _| std::hint::black_box(1 + 1));
        });
        assert_eq!(t.spans[1].parent, 0);
        assert!(t.spans[0].start_ns <= t.spans[1].start_ns);
        assert!(t.spans[1].end_ns <= t.spans[0].end_ns);
    }
}
