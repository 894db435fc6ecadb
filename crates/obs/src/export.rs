//! Exporter: Chrome `trace_event` JSON, hand-rolled (this crate stays
//! zero-dependency).

use std::fmt::Write as _;

use crate::events::{meta_epoch, meta_op, meta_phase, meta_segment, Event, SpanKind};

/// Quote + escape `s` as a JSON string (returned value includes the quotes).
pub(crate) fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Format a float with enough precision for trace timestamps without
/// scientific notation.
pub(crate) fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.3}")
    } else {
        "0".to_string()
    }
}

/// Render per-rank event streams as Chrome `trace_event` JSON (the format
/// `chrome://tracing` / Perfetto load directly). One process, one thread
/// per rank; durations use the `"X"` (complete) phase with microsecond
/// timestamps.
pub fn chrome_trace_json(ranks: &[(usize, Vec<Event>)]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    for (rank, events) in ranks {
        if !out.ends_with('[') {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{rank},\
             \"args\":{{\"name\":{}}}}}",
            json_string(&format!("rank {rank}"))
        );
        for e in events {
            let ts = e.start_ns as f64 / 1000.0;
            let dur = e.dur_ns() as f64 / 1000.0;
            let name = json_string(e.kind.name());
            let args = format!(
                "{{\"op\":{},\"segment\":{},\"phase\":{},\"epoch\":{},\"extra\":{}}}",
                meta_op(e.meta),
                meta_segment(e.meta),
                meta_phase(e.meta),
                meta_epoch(e.meta),
                e.extra
            );
            match e.kind {
                SpanKind::Submit | SpanKind::Complete | SpanKind::Wire => {
                    let _ = write!(
                        out,
                        ",{{\"name\":{name},\"ph\":\"i\",\"s\":\"t\",\"pid\":0,\"tid\":{rank},\
                         \"ts\":{},\"args\":{args}}}",
                        json_f64(ts)
                    );
                }
                _ => {
                    let _ = write!(
                        out,
                        ",{{\"name\":{name},\"ph\":\"X\",\"pid\":0,\"tid\":{rank},\
                         \"ts\":{},\"dur\":{},\"args\":{args}}}",
                        json_f64(ts),
                        json_f64(dur)
                    );
                }
            }
        }
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::pack_meta;

    fn ev(kind: SpanKind, op: u32, start: u64, end: u64, extra: u64) -> Event {
        Event {
            kind,
            meta: pack_meta(op, 0, 0, 0),
            start_ns: start,
            end_ns: end,
            extra,
        }
    }

    #[test]
    fn chrome_trace_is_valid_shape() {
        let events = vec![
            ev(SpanKind::Compress, 1, 0, 1500, 0),
            ev(SpanKind::Wire, 1, 2000, 2000, 64),
        ];
        let json = chrome_trace_json(&[(0, events)]);
        assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
        assert!(json.contains("\"traceEvents\""), "{json}");
        assert!(json.contains("\"ph\":\"X\""), "{json}");
        assert!(json.contains("\"ph\":\"i\""), "{json}");
        assert!(json.contains("\"dur\":1.500"), "{json}");
        // Balanced braces/brackets as a cheap well-formedness check.
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn json_string_escapes() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
    }
}
