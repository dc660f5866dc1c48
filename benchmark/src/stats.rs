//! Estimators: percentiles, the quiet-tenth summary, quartile spread.
//!
//! Every gated timing is taken over the *quietest tenth* of the measured
//! phase. The units are cut, in completion order, into [`WINDOWS`] windows of
//! (almost) equal count; the windows are ranked by their rate (work done over
//! wall time); the units of the fastest [`QUIET_SHARE`] of them are pooled;
//! and the median, the 95th percentile and the rate of that pool are
//! reported. The units are deterministic work, so a neighbour on the machine
//! can only push a window's rate down, never up: as long as a tenth of the run
//! goes undisturbed the reported values are the program's own, while a change
//! to the program moves every window and therefore the pool. `README.md` has
//! the measurements that chose this over a pooled percentile, the median over
//! ten blocks and the best of ten blocks, and says what it cannot see.

/// Windows the measured phase is cut into: about 50 ms each in a 20-second
/// run, short enough for many to fall between a noisy neighbour's bursts.
pub const WINDOWS: usize = 400;

/// Share of the windows, fastest first, whose units are pooled.
pub const QUIET_SHARE: f64 = 0.10;

/// Nearest-rank percentile (`p` in `[0, 1]`) of an ascending slice: the
/// smallest element with at least `p·n` elements at or below it.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (p.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    values
}

/// Nearest-rank percentile of an unordered sample; 0 when it is empty (a
/// layer that did no work reports 0).
pub fn percentile_or_zero(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        percentile_sorted(&sorted(values.to_vec()), p)
    }
}

/// Median with the two middle elements averaged for even counts.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values.to_vec());
    assert!(!v.is_empty(), "median of an empty sample");
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Half-open index ranges cutting `n` units into `blocks` contiguous blocks
/// whose sizes differ by at most one (the first `n % blocks` get the extra
/// unit). Fewer than `blocks` units give one block per unit.
pub fn block_ranges(n: usize, blocks: usize) -> Vec<(usize, usize)> {
    let blocks = blocks.min(n).max(1);
    let (base, extra) = (n / blocks, n % blocks);
    let mut out = Vec::with_capacity(blocks);
    let mut start = 0;
    for b in 0..blocks {
        let len = base + usize::from(b < extra);
        out.push((start, start + len));
        start += len;
    }
    out
}

/// One measured unit: when it ended (ns since the phase started) and how
/// long it took. Units are logged in completion order.
#[derive(Debug, Clone, Copy)]
pub struct Unit {
    pub end_ns: u64,
    pub dur_ns: u64,
}

/// The quiet-tenth summary of one measured phase.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    /// Units measured.
    pub n: usize,
    /// Units in the pool the three values below are taken over.
    pub quiet_n: usize,
    /// Median unit time of the pool, ms.
    pub p50_ms: f64,
    /// 95th-percentile unit time of the pool, ms.
    pub p95_ms: f64,
    /// Work done in the pooled windows over their wall time, 1/s. A window's
    /// wall time runs from the end of the previous window's last unit (the
    /// phase start for the first) to the end of its own last unit.
    pub throughput_per_s: f64,
    /// 95th-percentile unit time of every unit, quiet or not, ms.
    pub p95_all_ms: f64,
}

/// Summarises a phase; `work_per_unit` is samples per training step or 1 per
/// request. A window holds at least two units, so a phase of few long units
/// is cut into fewer windows.
pub fn summarize(units: &[Unit], work_per_unit: f64) -> Summary {
    assert!(!units.is_empty(), "no measured units");
    struct Window {
        lo: usize,
        hi: usize,
        wall_ns: u64,
    }
    let rate = |w: &Window| (w.hi - w.lo) as f64 / w.wall_ns as f64;
    let mut prev_end = 0u64;
    let mut windows: Vec<Window> = block_ranges(units.len(), WINDOWS.min(units.len() / 2))
        .into_iter()
        .map(|(lo, hi)| {
            let end = units[hi - 1].end_ns;
            let wall_ns = end.saturating_sub(prev_end).max(1);
            prev_end = end;
            Window { lo, hi, wall_ns }
        })
        .collect();
    windows.sort_by(|a, b| rate(b).partial_cmp(&rate(a)).expect("finite rates"));
    windows.truncate(((windows.len() as f64 * QUIET_SHARE).round() as usize).max(1));
    let ms = |u: &Unit| u.dur_ns as f64 / 1e6;
    let pool = sorted(
        windows
            .iter()
            .flat_map(|w| units[w.lo..w.hi].iter().map(ms))
            .collect(),
    );
    let wall_s = windows.iter().map(|w| w.wall_ns).sum::<u64>() as f64 / 1e9;
    let all = sorted(units.iter().map(ms).collect());
    Summary {
        n: units.len(),
        quiet_n: pool.len(),
        p50_ms: percentile_sorted(&pool, 0.50),
        p95_ms: percentile_sorted(&pool, 0.95),
        throughput_per_s: pool.len() as f64 * work_per_unit / wall_s,
        p95_all_ms: percentile_sorted(&all, 0.95),
    }
}

/// First quartile, median and third quartile by the exclusive method of
/// Python's `statistics.quantiles(values, n=4)`, which the acceptance rule
/// for this benchmark is written in.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let v = sorted(values.to_vec());
    assert!(v.len() >= 2, "quartiles need two samples");
    let n = v.len();
    let q = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (q(1), q(2), q(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 0.50), 10.0);
        assert_eq!(percentile_sorted(&v, 0.95), 19.0);
        assert_eq!(percentile_sorted(&v, 1.0), 20.0);
        assert_eq!(percentile_sorted(&v, 0.0), 1.0);
        assert_eq!(percentile_sorted(&[7.0], 0.95), 7.0);
        assert_eq!(percentile_or_zero(&[3.0, 1.0, 2.0], 0.5), 2.0);
        assert_eq!(percentile_or_zero(&[], 0.95), 0.0);
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn blocks_cover_every_unit_once_when_n_is_not_divisible() {
        let r = block_ranges(23, 10);
        assert_eq!(r.len(), 10);
        assert_eq!(r[0], (0, 3));
        assert_eq!(r[2], (6, 9));
        assert_eq!(r[3], (9, 11));
        assert_eq!(r[9], (21, 23));
        assert!(r.windows(2).all(|w| w[0].1 == w[1].0));
        assert_eq!(block_ranges(4, 10), vec![(0, 1), (1, 2), (2, 3), (3, 4)]);
        assert_eq!(
            block_ranges(30, 10)
                .iter()
                .filter(|(a, b)| b - a == 3)
                .count(),
            10
        );
    }

    fn back_to_back(durs_ms: &[f64]) -> Vec<Unit> {
        let mut end = 0u64;
        durs_ms
            .iter()
            .map(|d| {
                let dur_ns = (d * 1e6) as u64;
                end += dur_ns;
                Unit {
                    end_ns: end,
                    dur_ns,
                }
            })
            .collect()
    }

    #[test]
    fn interference_that_spares_a_tenth_of_the_run_cannot_move_the_summary() {
        // 4000 units of 2 ms in 400 windows of 10; the first 85 % of the
        // windows each hold a unit stalled to 12 ms.
        let mut durs = vec![2.0; 4000];
        for w in 0..340 {
            durs[w * 10 + w % 10] = 12.0;
        }
        let s = summarize(&back_to_back(&durs), 4.0);
        assert_eq!((s.n, s.quiet_n), (4000, 400));
        assert_eq!(s.p50_ms, 2.0);
        assert_eq!(s.p95_ms, 2.0);
        // 4 samples per 2 ms unit.
        assert!((s.throughput_per_s - 2000.0).abs() < 1e-6);
        // Every unit counted, a stall in 8.5 % of them shows.
        assert_eq!(s.p95_all_ms, 12.0);
    }

    #[test]
    fn a_slower_program_moves_every_window_and_so_the_summary() {
        let quick = summarize(&back_to_back(&[2.0; 1000]), 1.0);
        let slow = summarize(&back_to_back(&[2.2; 1000]), 1.0);
        assert!((slow.p50_ms / quick.p50_ms - 1.1).abs() < 1e-9);
        assert!((slow.p95_ms / quick.p95_ms - 1.1).abs() < 1e-9);
        assert!((quick.throughput_per_s / slow.throughput_per_s - 1.1).abs() < 1e-6);
    }

    #[test]
    fn a_tail_the_program_itself_has_stays_in_the_summary() {
        // Every tenth unit is slow by the program's own doing, so every
        // window of 25 holds two or three of them and none is quieter.
        let durs: Vec<f64> = (0..10_000)
            .map(|i| if i % 10 == 0 { 5.0 } else { 2.0 })
            .collect();
        let s = summarize(&back_to_back(&durs), 1.0);
        assert_eq!(s.p50_ms, 2.0);
        assert_eq!(s.p95_ms, 5.0);
    }

    #[test]
    fn few_long_units_make_fewer_windows_of_at_least_two() {
        let durs: Vec<f64> = (0..37).map(|i| 40.0 + (i % 4) as f64).collect();
        let s = summarize(&back_to_back(&durs), 16.0);
        // 18 windows of two or three units; the fastest two are pooled.
        assert_eq!(s.n, 37);
        assert!((4..=6).contains(&s.quiet_n), "{}", s.quiet_n);
        assert!(s.p50_ms >= 40.0 && s.p95_ms <= 43.0 && s.p95_ms >= s.p50_ms);
        assert!(s.throughput_per_s > 0.0);
        let one = summarize(&back_to_back(&[3.0]), 1.0);
        assert_eq!((one.n, one.quiet_n, one.p50_ms), (1, 1, 3.0));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q2, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12);
        assert!((q2 - 5.5).abs() < 1e-12);
        assert!((q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        let (q1, q2, q3) = quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]);
        assert!((q1 - 1.0).abs() < 1e-12);
        assert!((q2 - 3.0).abs() < 1e-12);
        assert!((q3 - 4.5).abs() < 1e-12);
    }
}
