//! Order statistics for step times. The steps a timing metric is taken
//! over — the calm ones, see `calm` — are cut in time order into
//! [`WINDOWS`] equal windows, and the metric is the median over the
//! windows of the window's own value. The windows are what the suite
//! pools over its rounds and what a run's `detail` line shows, so that a
//! reader sees how far the parts of one run disagree.

pub const WINDOWS: usize = 20;

/// The `q`-quantile (`0 ≤ q ≤ 1`) by linear interpolation between order
/// statistics.
///
/// # Panics
///
/// Panics on an empty slice or a non-finite value: both mean the harness
/// measured nothing, which must not become a number.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("non-finite sample"));
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, frac) = (pos.floor() as usize, pos.fract());
    match sorted.get(lo + 1) {
        Some(hi) => sorted[lo] + (hi - sorted[lo]) * frac,
        None => sorted[lo],
    }
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "mean of no samples");
    values.iter().sum::<f64>() / values.len() as f64
}

/// A metric as reported: its value, how far the windows (or repeats) it
/// was picked from disagree (inter-quartile range), and how many samples
/// stand behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub value: f64,
    pub iqr: f64,
    pub samples: usize,
}

impl Summary {
    /// A count or a single measurement: no dispersion to report.
    pub fn exact(value: f64) -> Self {
        Summary {
            value,
            iqr: 0.0,
            samples: 1,
        }
    }

    /// Median and inter-quartile range of repeated measurements.
    pub fn of(values: &[f64]) -> Self {
        Summary {
            value: median(values),
            iqr: quantile(values, 0.75) - quantile(values, 0.25),
            samples: values.len(),
        }
    }
}

/// Cuts `samples` into [`WINDOWS`] consecutive windows of equal length
/// (a remainder shorter than a window is dropped from the end) and applies
/// `stat` to each.
///
/// # Panics
///
/// Panics with fewer samples than windows.
pub fn windows(samples: &[f64], stat: impl Fn(&[f64]) -> f64) -> Vec<f64> {
    let len = samples.len() / WINDOWS;
    assert!(
        len > 0,
        "{} samples cannot fill {WINDOWS} windows",
        samples.len()
    );
    samples.chunks_exact(len).take(WINDOWS).map(stat).collect()
}

/// The window values behind the two step-time metrics, from per-step wall
/// times in milliseconds: `(median step time, steps per second)` of each
/// window. A window's rate is its step count over the sum of its step
/// times (the harness's own bookkeeping between two steps is not the
/// program's time). The metric is the median of these values over one
/// run's windows or, in the suite, over the windows of every round pooled.
pub fn step_windows(step_ms: &[f64]) -> (Vec<f64>, Vec<f64>) {
    (
        windows(step_ms, median),
        windows(step_ms, |w| w.len() as f64 * 1e3 / w.iter().sum::<f64>()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.25), 1.75);
        assert_eq!(quantile(&[7.0], 0.95), 7.0);
        let hundred: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(quantile(&hundred, 0.95), 96.0);
    }

    #[test]
    #[should_panic(expected = "no samples")]
    fn empty_input_is_refused() {
        quantile(&[], 0.5);
    }

    #[test]
    fn summary_reports_iqr_and_count() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!((s.value, s.iqr, s.samples), (3.0, 2.0, 5));
        assert_eq!(Summary::exact(9.0).iqr, 0.0);
    }

    /// `(p50, rate)` as a run reports them.
    fn step_metrics(step_ms: &[f64]) -> (Summary, Summary) {
        let (p50, rate) = step_windows(step_ms);
        let steps = step_ms.len() / WINDOWS * WINDOWS;
        (
            Summary {
                samples: steps,
                ..Summary::of(&p50)
            },
            Summary {
                samples: steps,
                ..Summary::of(&rate)
            },
        )
    }

    #[test]
    fn step_metrics_are_medians_over_windows() {
        // 200 steps of 2 ms; a hiccup makes 6 of the 20 windows run 2.5x
        // slower, and one step in every window takes 9 ms.
        let mut steps = vec![2.0; 200];
        for w in (0..20).filter(|w| w % 10 >= 7) {
            steps[w * 10..(w + 1) * 10].fill(5.0);
        }
        for w in 0..20 {
            steps[w * 10] = 9.0;
        }
        let (p50, rate) = step_metrics(&steps);
        assert_eq!(p50.value, 2.0);
        // A window's rate counts its slow step: 10 steps in 27 ms.
        assert_eq!(rate.value, 10.0 * 1e3 / 27.0);
        assert_eq!(p50.samples, 200);
        assert_eq!(p50.iqr, 3.0);
        assert!(mean(&steps) > 3.0);
    }

    #[test]
    fn windows_drop_only_a_short_remainder() {
        let steps: Vec<f64> = (0..207).map(f64::from).collect();
        let starts = windows(&steps, |w| w[0]);
        assert_eq!(starts.len(), WINDOWS);
        // window starts 0,10,...,190 -> median 95
        assert_eq!(median(&starts), 95.0);
    }

    #[test]
    #[should_panic(expected = "cannot fill")]
    fn too_few_steps_for_windows_is_refused() {
        windows(&[1.0; 19], median);
    }
}
