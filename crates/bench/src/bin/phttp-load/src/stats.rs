//! Exact percentiles over raw samples, and the median over windows.
//!
//! `phttp_simcore::Histogram` is not reused: its buckets are powers of
//! two (its quantiles read 51.2 / 102.4 / 204.8 ms in
//! `BENCH_misslatency.json`), so it cannot show a 10 % change. Raw
//! nanosecond samples, sorted, can; a 2 s window of the fastest
//! workload is 50 000 of them. (Nanoseconds, not whole microseconds: a
//! 64 µs median would otherwise read "64" run after run.)

/// A latency sample standing for a batch that failed: it sorts after
/// every real sample, so a failure counts as missing every percentile.
pub const FAILED_SAMPLE: u64 = u64::MAX;

/// The `q`-quantile (`0 < q <= 1`) of `sorted` by the nearest-rank rule:
/// the smallest sample with at least `q·n` samples at or below it.
/// Returns `None` for an empty slice.
pub fn percentile_sorted(sorted: &[u64], q: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Sorts `samples` in place and returns its `q`-quantile.
pub fn percentile(samples: &mut [u64], q: f64) -> Option<u64> {
    samples.sort_unstable();
    percentile_sorted(samples, q)
}

/// The median of `values` (mean of the two middle values for an even
/// count). Returns `None` for an empty slice or one holding a NaN.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|v| v.is_nan()) {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN excluded above"));
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// What one measurement window of the closed loop saw.
#[derive(Debug, Clone, Default)]
pub struct Window {
    /// Verified responses completed in the window.
    pub responses: u64,
    /// Verified body bytes completed in the window.
    pub body_bytes: u64,
    /// One sample per batch completed in the window, nanoseconds
    /// ([`FAILED_SAMPLE`] for a failed batch).
    pub batch_ns: Vec<u64>,
}

impl Window {
    /// Folds another generator thread's view of the same window in.
    pub fn merge(&mut self, other: Window) {
        self.responses += other.responses;
        self.body_bytes += other.body_bytes;
        self.batch_ns.extend(other.batch_ns);
    }
}

/// The four window-median figures of a closed phase.
#[derive(Debug, Clone, Copy)]
pub struct WindowMedians {
    /// Median over windows of verified responses per second.
    pub goodput_rps: f64,
    /// Median over windows of verified body MiB per second.
    pub payload_mib_s: f64,
    /// Median over windows of the window's p50 batch time, µs.
    pub batch_p50_us: f64,
    /// Median over windows of the window's p99 batch time, µs.
    pub batch_p99_us: f64,
    /// Fewest batches any window held (the sample count behind the
    /// percentiles).
    pub min_batches: usize,
}

/// Reduces the windows of a closed phase, each `window_s` seconds long.
/// The host drifts over minutes and hiccups over milliseconds; single
/// 2 s windows of one run ranged 50k–108k req/s where their median held
/// within 7 %. Returns `None` if any window is empty.
pub fn window_medians(windows: &mut [Window], window_s: f64) -> Option<WindowMedians> {
    let mut rps = Vec::new();
    let mut mib = Vec::new();
    let mut p50 = Vec::new();
    let mut p99 = Vec::new();
    let mut min_batches = usize::MAX;
    for w in windows.iter_mut() {
        rps.push(w.responses as f64 / window_s);
        mib.push(w.body_bytes as f64 / (1024.0 * 1024.0) / window_s);
        w.batch_ns.sort_unstable();
        p50.push(percentile_sorted(&w.batch_ns, 0.50)? as f64 / 1000.0);
        p99.push(percentile_sorted(&w.batch_ns, 0.99)? as f64 / 1000.0);
        min_batches = min_batches.min(w.batch_ns.len());
    }
    Some(WindowMedians {
        goodput_rps: median(&rps)?,
        payload_mib_s: median(&mib)?,
        batch_p50_us: median(&p50)?,
        batch_p99_us: median(&p99)?,
        min_batches,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let mut s: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(percentile(&mut s, 0.50), Some(50));
        assert_eq!(percentile(&mut s, 0.99), Some(99));
        assert_eq!(percentile(&mut s, 1.0), Some(100));
        assert_eq!(percentile(&mut s, 0.001), Some(1));
        assert_eq!(percentile(&mut [7], 0.99), Some(7));
        assert_eq!(percentile(&mut [], 0.5), None);
        // Ten samples: p99 is the largest, p50 the fifth.
        let mut t = [10, 20, 30, 40, 50, 60, 70, 80, 90, 1000];
        assert_eq!(percentile(&mut t, 0.5), Some(50));
        assert_eq!(percentile(&mut t, 0.99), Some(1000));
    }

    #[test]
    fn a_failed_batch_is_the_worst_sample() {
        let mut s = vec![5, FAILED_SAMPLE, 3];
        assert_eq!(percentile(&mut s, 1.0), Some(FAILED_SAMPLE));
        assert_eq!(percentile(&mut s, 0.5), Some(5));
    }

    #[test]
    fn median_odd_even_and_nan() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[1.0, f64::NAN]), None);
    }

    #[test]
    fn window_medians_ignore_one_bad_window() {
        let win = |responses: u64, us: u64| Window {
            responses,
            body_bytes: responses * 1024 * 1024,
            batch_ns: vec![us * 1000; 4],
        };
        // Two steady windows and one in which the host stalled.
        let mut ws = vec![win(200, 60), win(20, 900), win(220, 64)];
        let m = window_medians(&mut ws, 2.0).expect("non-empty windows");
        assert_eq!(m.goodput_rps, 100.0);
        assert_eq!(m.payload_mib_s, 100.0);
        assert_eq!(m.batch_p50_us, 64.0);
        assert_eq!(m.batch_p99_us, 64.0);
        assert_eq!(m.min_batches, 4);
        ws.push(Window::default());
        assert!(window_medians(&mut ws, 2.0).is_none());
    }

    #[test]
    fn windows_merge_across_threads() {
        let mut a = Window {
            responses: 4,
            body_bytes: 10,
            batch_ns: vec![1],
        };
        a.merge(Window {
            responses: 8,
            body_bytes: 5,
            batch_ns: vec![2, 3],
        });
        assert_eq!((a.responses, a.body_bytes, a.batch_ns.len()), (12, 15, 3));
    }
}
