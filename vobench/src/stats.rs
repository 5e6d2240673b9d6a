//! Order statistics for latency samples.

/// Samples that must lie strictly beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Median of `values` (mean of the two middle values for an even
/// count); `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// Highest percentile a tail is reported at: beyond it, the rarest
/// samples of a run are scheduler and disk stalls of the host, which
/// change from run to run more than any bound.
pub const TAIL_MAX_PERCENTILE: f64 = 95.0;

/// A tail latency: the highest nearest-rank percentile, up to
/// [`TAIL_MAX_PERCENTILE`], that still has [`TAIL_MIN_BEYOND`] samples
/// beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, in percent (e.g. `83.3` for rank 50 of 60).
    pub percentile: f64,
    /// The sample at that rank.
    pub value: f64,
    /// Samples strictly beyond the reported rank.
    pub beyond: usize,
}

/// The tail rule: with `n` samples, report the nearest-rank percentile
/// `p = min(100 (n - 10) / n, 95)` — the sample at rank `ceil(p n / 100)`
/// of the ascending order — so at least ten samples lie beyond it.
/// `None` with fewer than 11 samples, where no percentile qualifies.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let sorted = sorted(values);
    let n = sorted.len();
    if n <= TAIL_MIN_BEYOND {
        return None;
    }
    let highest = n - TAIL_MIN_BEYOND;
    let percentile = (100.0 * highest as f64 / n as f64).min(TAIL_MAX_PERCENTILE);
    let rank = ((percentile / 100.0 * n as f64).ceil() as usize).clamp(1, highest);
    Some(Tail { percentile, value: sorted[rank - 1], beyond: n - rank })
}

/// Consecutive equal-count slices a run's samples are cut into.
pub const SLICES: usize = 10;

/// Median over [`SLICES`] consecutive equal-count slices of each
/// slice's mean (samples in arrival order; a remainder shorter than a
/// slice is dropped). One stall — a compaction, a scheduler hiccup —
/// moves one slice, not the result. `None` with fewer samples than
/// slices.
pub fn median_of_slice_means(values: &[f64]) -> Option<f64> {
    let k = values.len() / SLICES;
    if k == 0 {
        return None;
    }
    let means: Vec<f64> = values.chunks_exact(k).take(SLICES).map(mean).collect();
    median(&means)
}

/// Median over [`SLICES`] consecutive equal-count slices of the
/// slice's completion rate (operations per second), given each
/// operation's completion time in seconds since the timed phase
/// began. `None` with fewer operations than slices.
pub fn median_slice_rate(done_at: &[f64]) -> Option<f64> {
    let times = sorted(done_at);
    let k = times.len() / SLICES;
    if k == 0 {
        return None;
    }
    let mut start = 0.0;
    let mut rates = Vec::with_capacity(SLICES);
    for slice in times.chunks_exact(k).take(SLICES) {
        let end = slice[k - 1];
        rates.push(k as f64 / (end - start));
        start = end;
    }
    median(&rates)
}

/// The tail of a run: the median over [`SLICES`] consecutive
/// equal-count slices of each slice's [`tail`] when every slice is
/// large enough to reach [`TAIL_MAX_PERCENTILE`] with ten samples
/// beyond it (200 samples), so one burst of host noise moves one slice,
/// not the result; otherwise [`tail`] of the whole run.
pub fn sliced_tail(values: &[f64]) -> Option<Tail> {
    let full = (TAIL_MIN_BEYOND as f64 * 100.0 / (100.0 - TAIL_MAX_PERCENTILE)).ceil() as usize;
    let k = values.len() / SLICES;
    if k < full {
        return tail(values);
    }
    let tails: Vec<Tail> = values.chunks_exact(k).take(SLICES).filter_map(tail).collect();
    let value = median(&tails.iter().map(|t| t.value).collect::<Vec<_>>())?;
    Some(Tail { value, ..tails[0] })
}

/// Arithmetic mean; 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// One time slice of a timed phase: operations completed in
/// `(start, end]`, seconds since the phase began, the process's CPU
/// seconds and the share of host CPU time the hypervisor stole
/// meanwhile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimeSlice {
    /// Start of the slice (exclusive).
    pub start: f64,
    /// End of the slice (inclusive).
    pub end: f64,
    /// CPU seconds the process ran during the slice.
    pub cpu_secs: f64,
    /// Share of host CPU time stolen during the slice.
    pub steal: f64,
}

impl TimeSlice {
    fn holds(&self, t: f64) -> bool {
        self.start < t && t <= self.end
    }
}

/// Median over the calmer half of the time slices — the `ceil(n / 2)`
/// with the least steal, earlier ones first on ties — of each slice's
/// mean latency. Time the hypervisor takes from the guest in the other
/// slices does not enter, and a burst of host slowness moves only the
/// slices it covers; waiting the program itself adds shows in every
/// slice. `latencies[i]` is the operation completed at `done_at[i]`;
/// slices without one are skipped. `None` when no kept slice has one.
pub fn calm_slice_latency(latencies: &[f64], done_at: &[f64], slices: &[TimeSlice]) -> Option<f64> {
    let mut calm: Vec<&TimeSlice> = slices.iter().collect();
    calm.sort_by(|a, b| a.steal.total_cmp(&b.steal));
    calm.truncate(slices.len().div_ceil(2));
    let means: Vec<f64> = calm
        .iter()
        .filter_map(|s| {
            let inside: Vec<f64> = latencies
                .iter()
                .zip(done_at)
                .filter(|(_, &t)| s.holds(t))
                .map(|(&latency, _)| latency)
                .collect();
            (!inside.is_empty()).then(|| mean(&inside))
        })
        .collect();
    median(&means)
}

/// Median over the time slices of the process's CPU milliseconds per
/// operation completed in the slice (`done_at`, seconds since the phase
/// began); slices without a completion are skipped. `None` when every
/// slice is.
pub fn median_cpu_ms_per_op(done_at: &[f64], slices: &[TimeSlice]) -> Option<f64> {
    let per_op: Vec<f64> = slices
        .iter()
        .filter_map(|s| {
            let ops = done_at.iter().filter(|&&t| s.holds(t)).count();
            (ops > 0).then(|| s.cpu_secs * 1e3 / ops as f64)
        })
        .collect();
    median(&per_op)
}
