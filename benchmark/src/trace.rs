//! Harness spans: recorded in memory around the calls into each layer,
//! written out as a Chrome trace (`chrome://tracing`, Perfetto) when the
//! run ends.

use crate::json::{obj, Json};

/// One timed interval on one rank. `parent` names the enclosing span
/// (empty at the top); spans of one step share `step`.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub rank: usize,
    pub start_ns: u64,
    pub dur_ns: u64,
    pub step: Option<u64>,
    pub parent: &'static str,
}

impl Span {
    pub fn new(
        name: &'static str,
        rank: usize,
        start_ns: u64,
        dur_ns: u64,
        step: Option<u64>,
        parent: &'static str,
    ) -> Self {
        Span {
            name,
            rank,
            start_ns,
            dur_ns,
            step,
            parent,
        }
    }
}

/// The spans as complete (`"ph": "X"`) trace events; one thread per rank.
pub fn chrome_trace(workload: &str, spans: &[Span]) -> Json {
    let events = spans
        .iter()
        .map(|s| {
            let mut args = vec![("parent".to_string(), Json::from(s.parent))];
            if let Some(step) = s.step {
                args.push(("step".to_string(), step.into()));
            }
            obj([
                ("name", s.name.into()),
                ("cat", "harness".into()),
                ("ph", "X".into()),
                ("ts", (s.start_ns as f64 / 1e3).into()),
                ("dur", (s.dur_ns as f64 / 1e3).into()),
                ("pid", 0usize.into()),
                ("tid", s.rank.into()),
                ("args", Json::Obj(args)),
            ])
        })
        .collect();
    obj([
        ("displayTimeUnit", "ms".into()),
        ("otherData", obj([("workload", workload.into())])),
        ("traceEvents", Json::Arr(events)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step_spans() -> Vec<Span> {
        vec![
            Span::new("step", 0, 0, 1000, Some(0), ""),
            Span::new("submit", 0, 0, 300, Some(0), "step"),
            Span::new("wait", 0, 300, 600, Some(0), "step"),
            Span::new("step", 0, 1000, 2000, Some(1), ""),
            Span::new("submit", 0, 1000, 500, Some(1), "step"),
            Span::new("wait", 0, 1500, 1300, Some(1), "step"),
            Span::new("step", 1, 0, 5000, Some(0), ""),
        ]
    }

    #[test]
    fn chrome_trace_is_loadable_json_with_one_event_per_span() {
        let spans = step_spans();
        let text = chrome_trace("w", &spans).compact();
        let doc = crate::json::parse(&text).expect("trace parses");
        let events = doc
            .get("traceEvents")
            .and_then(Json::as_array)
            .expect("events");
        assert_eq!(events.len(), spans.len());
        let wait = &events[2];
        assert_eq!(wait.get("ph").and_then(Json::as_str), Some("X"));
        assert_eq!(wait.get("ts").and_then(Json::as_f64), Some(0.3));
        assert_eq!(wait.get("dur").and_then(Json::as_f64), Some(0.6));
        assert_eq!(
            wait.get("args")
                .and_then(|a| a.get("parent"))
                .and_then(Json::as_str),
            Some("step")
        );
        assert_eq!(
            wait.get("args")
                .and_then(|a| a.get("step"))
                .and_then(Json::as_f64),
            Some(0.0)
        );
    }
}
