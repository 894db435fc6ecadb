#![warn(missing_docs)]
//! Shared helpers for the experiment binaries.
//!
//! Each binary under `src/bin/` regenerates one table or figure of the CGX
//! paper from closed forms and the simulator, or (`chaos_net_report`,
//! `sim_sweep`) drives a behaviour end to end and
//! asserts it; this crate provides the common table formatting so their
//! output reads like the paper's artifacts. Nothing here times a training
//! step: wall-clock numbers come from `benchmark/` (`BENCHMARK.json`). See
//! `DESIGN.md` for the experiment index and `EXPERIMENTS.md` for
//! paper-vs-measured results.

use std::fmt::Write as _;

/// Renders an ASCII table with a title, headers, and rows.
///
/// # Examples
///
/// ```
/// let t = cgx_bench::render_table(
///     "demo",
///     &["name", "value"],
///     &[vec!["a".into(), "1".into()]],
/// );
/// assert!(t.contains("| a"));
/// assert!(t.contains("demo"));
/// ```
pub fn render_table(title: &str, headers: &[&str], rows: &[Vec<String>]) -> String {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), cols, "row width mismatch in table '{title}'");
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::new();
    let _ = writeln!(out, "== {title} ==");
    let line = |widths: &[usize]| {
        let mut s = String::from("+");
        for w in widths {
            s.push_str(&"-".repeat(w + 2));
            s.push('+');
        }
        s
    };
    let _ = writeln!(out, "{}", line(&widths));
    let mut header = String::from("|");
    for (h, w) in headers.iter().zip(&widths) {
        let _ = write!(header, " {h:<w$} |");
    }
    let _ = writeln!(out, "{header}");
    let _ = writeln!(out, "{}", line(&widths));
    for row in rows {
        let mut r = String::from("|");
        for (cell, w) in row.iter().zip(&widths) {
            let _ = write!(r, " {cell:<w$} |");
        }
        let _ = writeln!(out, "{r}");
    }
    let _ = writeln!(out, "{}", line(&widths));
    out
}

/// Formats a throughput value compactly (`1.23k`, `45.6k`, `789`).
pub fn fmt_items(v: f64) -> String {
    if v >= 100_000.0 {
        format!("{:.0}k", v / 1000.0)
    } else if v >= 10_000.0 {
        format!("{:.1}k", v / 1000.0)
    } else if v >= 1000.0 {
        format!("{:.2}k", v / 1000.0)
    } else {
        format!("{v:.0}")
    }
}

/// Formats seconds as milliseconds with 1 decimal.
pub fn fmt_ms(seconds: f64) -> String {
    format!("{:.1} ms", seconds * 1000.0)
}

/// Formats a 0..1 fraction as a percentage.
pub fn fmt_pct(frac: f64) -> String {
    format!("{:.0}%", frac * 100.0)
}

/// Prints a free-form note line under a table.
pub fn note(text: &str) {
    println!("   note: {text}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment_pads_cells() {
        let t = render_table(
            "t",
            &["a", "long-header"],
            &[
                vec!["xxxxxx".into(), "1".into()],
                vec!["y".into(), "2".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        // All body lines have identical width.
        let widths: Vec<usize> = lines[1..].iter().map(|l| l.len()).collect();
        assert!(widths.windows(2).all(|w| w[0] == w[1]), "{t}");
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn ragged_rows_panic() {
        render_table("t", &["a", "b"], &[vec!["1".into()]]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_items(850.0), "850");
        assert_eq!(fmt_items(2900.0), "2.90k");
        assert_eq!(fmt_items(38_700.0), "38.7k");
        assert_eq!(fmt_items(260_000.0), "260k");
        assert_eq!(fmt_ms(0.0376), "37.6 ms");
        assert_eq!(fmt_pct(0.895), "90%");
    }
}
