//! Telling the program's time from the host's.
//!
//! The reference host gives the benchmark two virtual CPUs of a shared
//! machine, and two things about that machine move a step's time while
//! the program stays the same:
//!
//! * **A neighbour on the sibling hardware thread.** While one runs, code
//!   that keeps many execution ports busy — the quantiser, the reduction
//!   kernels — runs 1.6–1.8x slower, for seconds to minutes at a time, on
//!   one virtual CPU or on both; a dependent chain of adds does not
//!   notice. A ten-second run can lie wholly inside such a spell, so no
//!   quantile over the run's steps or windows is steady (the lower
//!   quartile over 20 windows spread by 8 % and by 25 % in two sets of ten
//!   runs of the same code).
//! * **The core's clock**, by every sign: calm bursts come at a few levels
//!   some 5 % apart (64.7, 70.9, 73.3 µs), as a clock would move while the
//!   machine's other cores wake and sleep, and a step's time moves in
//!   proportion (`resnet_shm_q4`: 2.43, 2.63, 2.72 ms at those levels):
//!   ten runs half an hour apart differ by 10 %.
//!
//! The harness therefore carries a witness: a [`Probe`] of its own, a
//! fixed burst of wide, independent arithmetic on 16 KiB that every rank
//! thread runs between two steps. Undisturbed, a burst takes the same
//! number of cycles every time, so its wall time reads the clock level;
//! with a neighbour on the sibling it takes 1.2–1.6x as long.
//!
//! * A step counts as **calm** when the bursts before and after it, on
//!   every rank, took at most [`LIMIT`] times the fastest level the
//!   process has seen ([`level`]) — wide enough for every clock level,
//!   too narrow for a neighbour. The timing metrics are taken over the
//!   calm steps only.
//! * A calm step's wall time is **scaled to the reference burst**: times
//!   [`REFERENCE_BURST_NS`] over the mean of the bursts around it, i.e.
//!   what the step would have taken had the clock stood at the level
//!   where a burst takes 70 µs. On the reference host that is the middle
//!   of the levels seen (64.7, 70.9, 73.3 µs); on another host it is a
//!   fixed yardstick, the same for every commit measured there. A run's
//!   `detail` line keeps the unscaled median beside it.
//!
//! The burst is the harness's code, so a change to the program cannot
//! move the witness.

use crate::stats::{mean, median, quantile};
use std::hint::black_box;
use std::time::Instant;

const LANES: usize = 4;
const FLOATS: usize = 4096;
const PASSES: usize = 8;

/// A burst is calm when it took at most this multiple of [`level`]: the
/// clock levels of the reference host span 1.18, the mildest neighbour
/// seen adds 15 % to the level it meets.
pub const LIMIT: f64 = 1.25;
/// The burst time every wall time is scaled to, ns.
pub const REFERENCE_BURST_NS: f64 = 70_000.0;
/// The share of a phase's steps that is used when fewer are calm: the
/// least disturbed ones, so that a run inside a long busy spell still
/// reads as close to the calm time as it can.
pub const FLOOR_SHARE: f64 = 0.05;

/// The reference burst and its state, one per rank thread.
pub struct Probe {
    buf: Box<[f32; FLOATS]>,
    state: [u64; LANES],
    /// Wall time of every burst so far, ns.
    pub bursts: Vec<u64>,
}

impl Default for Probe {
    fn default() -> Self {
        Probe {
            buf: Box::new([1.0; FLOATS]),
            state: [1, 2, 3, 4],
            bursts: Vec::new(),
        }
    }
}

impl Probe {
    /// Runs one burst — four independent lanes of xorshift, scale, round
    /// and pack over the buffer, [`PASSES`] times untimed and [`PASSES`]
    /// times timed (about 80 µs each) — and records how long the timed
    /// half took. The untimed half is there because the first 50 µs after
    /// a step read the step, not the host: buffer and code are out of the
    /// core's caches, and a rank that parked at the step's end finds its
    /// core still waking (the first of three bursts in a row after a
    /// training step took up to 1.7x the other two, which agreed).
    pub fn burst(&mut self) {
        let mut acc = 0;
        for _ in 0..PASSES {
            acc ^= self.pass();
        }
        let start = Instant::now();
        for _ in 0..PASSES {
            acc ^= self.pass();
        }
        black_box(acc);
        self.bursts.push(start.elapsed().as_nanos() as u64);
    }

    #[inline(never)]
    fn pass(&mut self) -> u32 {
        let mut acc = [0u32; LANES];
        for chunk in self.buf.chunks_exact_mut(LANES) {
            for lane in 0..LANES {
                let mut x = self.state[lane];
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                self.state[lane] = x;
                let u = (x >> 40) as f32 * (1.0 / 16_777_216.0);
                let q = ((chunk[lane] * 7.5 + u) as i32).clamp(0, 15) as u32;
                acc[lane] = (acc[lane] << 4 | q) ^ (acc[lane] >> 28);
                chunk[lane] = chunk[lane] * 0.999 + 0.001;
            }
        }
        acc.iter().fold(0, |a, b| a ^ b)
    }
}

/// The fastest burst time of this process, ns: the first percentile of
/// every burst of every rank thread (the minimum itself may be a burst the
/// clock cut short). A neighbour leaves gaps even in its busiest seconds,
/// so one burst in a hundred is nearly always calm; when none is, the run
/// lay wholly inside a spell and reads slow — see `calm_share` in a run's
/// detail line.
pub fn level<'a>(bursts: impl IntoIterator<Item = &'a u64>) -> f64 {
    let all: Vec<f64> = bursts.into_iter().map(|b| *b as f64).collect();
    quantile(&all, 0.01)
}

/// What the bursts around a step say about it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Around {
    /// How disturbed the step was: the slowest of the bursts before and
    /// after it on any rank, over the process's `level`.
    pub score: f64,
    /// What scales the step's wall time to the reference burst:
    /// [`REFERENCE_BURST_NS`] over the mean of those bursts.
    pub scale: f64,
}

impl Around {
    pub fn calm(&self) -> bool {
        self.score <= LIMIT
    }
}

/// [`Around`] every step. `bursts[rank][i]` ran before that rank's step
/// `i`, and one more after its last step.
pub fn around(bursts: &[&[u64]], level: f64) -> Vec<Around> {
    let steps = bursts.iter().map(|b| b.len()).min().unwrap_or(0);
    (0..steps.saturating_sub(1))
        .map(|i| {
            let near: Vec<f64> = bursts
                .iter()
                .flat_map(|b| [b[i] as f64, b[i + 1] as f64])
                .collect();
            Around {
                score: near.iter().fold(0.0, |a: f64, b| a.max(*b)) / level,
                scale: REFERENCE_BURST_NS / mean(&near),
            }
        })
        .collect()
}

/// The steps the timing metrics are taken over, in time order: the calm
/// ones, or the least disturbed [`FLOOR_SHARE`] (at least `least`, as far
/// as there are that many) when fewer are calm.
pub fn select(steps: &[Around], least: usize) -> Vec<usize> {
    let calm: Vec<usize> = (0..steps.len()).filter(|&i| steps[i].calm()).collect();
    let floor = ((steps.len() as f64 * FLOOR_SHARE).ceil() as usize)
        .max(least)
        .min(steps.len());
    if calm.len() >= floor {
        return calm;
    }
    let mut by_score: Vec<usize> = (0..steps.len()).collect();
    let score = |i: &usize| steps[*i].score;
    by_score.sort_by(|a, b| score(a).partial_cmp(&score(b)).expect("finite score"));
    by_score.truncate(floor);
    by_score.sort_unstable();
    by_score
}

/// The share of `steps` that is calm.
pub fn share(steps: &[Around]) -> f64 {
    steps.iter().filter(|s| s.calm()).count() as f64 / steps.len().max(1) as f64
}

/// A set-up as its warm-up steps saw the host: the median of their
/// scores and of their scales.
pub fn setup_around(warmup: &[Around]) -> Around {
    if warmup.is_empty() {
        return Around {
            score: 1.0,
            scale: 1.0,
        };
    }
    let pick = |f: fn(&Around) -> f64| median(&warmup.iter().map(f).collect::<Vec<_>>());
    Around {
        score: pick(|a| a.score),
        scale: pick(|a| a.scale),
    }
}

/// The set-up times behind `setup_s`, scaled: of `(seconds, around)` per
/// set-up, the calm ones, or the three least disturbed when fewer are.
pub fn calm_setups(setups: &[(f64, Around)]) -> Vec<f64> {
    let mut by_score = setups.to_vec();
    by_score.sort_by(|a, b| a.1.score.partial_cmp(&b.1.score).expect("finite score"));
    let calm = by_score.iter().filter(|s| s.1.calm()).count();
    by_score.truncate(calm.max(3));
    by_score.into_iter().map(|(s, a)| s * a.scale).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(score: f64) -> Around {
        Around { score, scale: 1.0 }
    }

    #[test]
    fn a_probe_records_every_burst() {
        let mut p = Probe::default();
        p.burst();
        p.burst();
        assert_eq!(p.bursts.len(), 2);
        assert!(p.bursts.iter().all(|b| *b > 0));
    }

    #[test]
    fn the_level_is_the_fast_end_not_the_shortest_burst() {
        let mut bursts = vec![100u64; 150];
        bursts.extend([160; 249]);
        bursts.push(60); // a burst the clock cut short
        assert_eq!(level(&bursts), 100.0);
    }

    #[test]
    fn a_step_is_as_disturbed_as_the_worst_burst_around_it() {
        let rank0 = [70_000, 70_000, 105_000, 70_000];
        let rank1 = [70_000, 84_000, 70_000, 70_000];
        let steps = around(&[&rank0, &rank1], 70_000.0);
        let scores: Vec<f64> = steps.iter().map(|a| a.score).collect();
        assert_eq!(scores, vec![1.2, 1.5, 1.5]);
        // Scaled by the mean of the four bursts around it.
        assert_eq!(steps[0].scale, 70_000.0 / 73_500.0);
        assert!(around(&[&rank0[..1]], 70_000.0).is_empty());
        // A slower clock level alone: calm, and scaled back.
        let slow_clock = around(&[&[77_000, 77_000]], 70_000.0);
        assert!(slow_clock[0].calm());
        assert_eq!(slow_clock[0].scale, 70.0 / 77.0);
    }

    #[test]
    fn calm_steps_are_selected_in_time_order() {
        let steps = [1.0, 1.5, 1.02, 1.7, 1.25, 1.3].map(at);
        assert_eq!(select(&steps, 2), vec![0, 2, 4]);
        assert_eq!(share(&steps), 0.5);
    }

    #[test]
    fn a_busy_phase_falls_back_to_its_least_disturbed_steps() {
        let mut steps = vec![at(1.6); 100];
        steps[40] = at(1.3);
        steps[7] = at(1.4);
        steps[90] = at(1.0);
        // One calm step is under the floor of five: the five least
        // disturbed (ties go to the earlier step), in time order.
        assert_eq!(select(&steps, 0), vec![0, 1, 7, 40, 90]);
        assert_eq!(select(&steps, 200).len(), 100);
    }

    #[test]
    fn setups_are_the_calm_ones_or_the_three_calmest_and_are_scaled() {
        let a = |score, scale| Around { score, scale };
        let setups = [
            (0.5, a(1.6, 1.0)),
            (0.2, a(1.0, 1.0)),
            (0.22, a(1.1, 0.9)),
            (0.4, a(1.4, 1.0)),
            (0.3, a(1.2, 1.0)),
        ];
        assert_eq!(calm_setups(&setups), vec![0.2, 0.22 * 0.9, 0.3]);
        let busy = [
            (0.5, at(1.6)),
            (0.3, at(1.3)),
            (0.4, at(1.4)),
            (0.45, at(1.5)),
        ];
        assert_eq!(calm_setups(&busy), vec![0.3, 0.4, 0.45]);
        assert_eq!(setup_around(&[]), at(1.0));
        assert_eq!(
            setup_around(&[a(1.0, 0.9), a(1.4, 1.1), a(1.2, 1.0)]),
            a(1.2, 1.0)
        );
    }
}
