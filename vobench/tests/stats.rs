//! The benchmark's order statistics, above all the tail rule.

use gridvo_vobench::stats::{
    calm_slice_latency, median, median_cpu_ms_per_op, median_of_slice_means, median_slice_rate,
    sliced_tail, tail, TimeSlice, SLICES, TAIL_MAX_PERCENTILE, TAIL_MIN_BEYOND,
};

fn ramp(n: usize) -> Vec<f64> {
    (1..=n).map(|i| i as f64).collect()
}

#[test]
fn tail_needs_eleven_samples() {
    for n in 0..=TAIL_MIN_BEYOND {
        assert_eq!(tail(&ramp(n)), None, "{n} samples leave no percentile with 10 beyond");
    }
    let t = tail(&ramp(11)).expect("11 samples qualify");
    assert_eq!(t.value, 1.0);
    assert_eq!(t.beyond, 10);
}

#[test]
fn tail_always_leaves_at_least_ten_samples_beyond() {
    for n in 11..3000 {
        let values = ramp(n);
        let t = tail(&values).expect("n > 10");
        let beyond = values.iter().filter(|&&v| v > t.value).count();
        assert_eq!(beyond, t.beyond, "n = {n}");
        assert!(beyond >= TAIL_MIN_BEYOND, "n = {n}: only {beyond} beyond");
        assert!(t.percentile <= TAIL_MAX_PERCENTILE + 1e-9, "n = {n}: p{}", t.percentile);
    }
}

#[test]
fn tail_is_the_highest_qualifying_percentile() {
    // 60 samples: rank 50 (p83.3) is the last with ten beyond.
    let t = tail(&ramp(60)).unwrap();
    assert_eq!((t.value, t.beyond), (50.0, 10));
    assert!((t.percentile - 100.0 * 50.0 / 60.0).abs() < 1e-9);
    // 1000 samples: capped at p95, fifty beyond.
    let t = tail(&ramp(1000)).unwrap();
    assert_eq!((t.value, t.beyond, t.percentile), (950.0, 50, 95.0));
}

#[test]
fn tail_ignores_arrival_order() {
    let mut values = ramp(200);
    values.reverse();
    assert_eq!(tail(&values), tail(&ramp(200)));
}

#[test]
fn median_of_even_and_odd_counts() {
    assert_eq!(median(&[]), None);
    assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
}

#[test]
fn one_stalled_slice_does_not_move_the_slice_median() {
    let mut values = vec![1.0; 100];
    for v in &mut values[20..30] {
        *v = 50.0; // one slice of ten hit by a stall
    }
    assert_eq!(median_of_slice_means(&values), Some(1.0));
    assert_eq!(median_of_slice_means(&values[..SLICES - 1]), None);
}

#[test]
fn slice_rate_of_evenly_spaced_completions() {
    // 1000 operations, one every millisecond: 1000 per second.
    let done: Vec<f64> = (1..=1000).map(|i| i as f64 / 1000.0).collect();
    let rate = median_slice_rate(&done).unwrap();
    assert!((rate - 1000.0).abs() < 1e-6, "{rate}");
    assert_eq!(median_slice_rate(&done[..SLICES - 1]), None);
}

#[test]
fn sliced_tail_falls_back_to_the_whole_run_when_slices_are_small() {
    for n in [60, 1999] {
        let small = ramp(n);
        assert_eq!(sliced_tail(&small), tail(&small), "{n} samples: slices under 200");
    }
    // Large runs: the median of per-slice tails, so one slow slice
    // does not set it.
    let mut values = vec![1.0; 2000];
    for v in &mut values[0..200] {
        *v = 100.0;
    }
    assert_eq!(sliced_tail(&values).unwrap().value, 1.0);
}

fn slices(steal: &[f64]) -> Vec<TimeSlice> {
    steal
        .iter()
        .enumerate()
        .map(|(i, &steal)| TimeSlice { start: i as f64, end: i as f64 + 1.0, cpu_secs: 0.0, steal })
        .collect()
}

#[test]
fn calm_slice_latency_leaves_out_the_slices_with_most_steal() {
    // Four 1-s slices; the hypervisor stole time in the second and the
    // fourth, and the operations completed there took longer.
    let done_at = [0.5, 1.5, 2.5, 3.5, 1.0, 3.0];
    let latencies = [1.0, 9.0, 3.0, 7.0, 8.0, 5.0];
    // Kept: slices 0 (done at 0.5 and 1.0, its end being inclusive,
    // mean 4.5) and 2 (2.5 and 3.0, mean 4).
    let four = slices(&[0.0, 0.3, 0.0, 0.1]);
    assert_eq!(calm_slice_latency(&latencies, &done_at, &four), Some(4.25));
    // With no steal at all, earlier slices win ties, and two of three
    // are kept: means 4.5 and 9.
    let three = slices(&[0.0, 0.0, 0.0]);
    assert_eq!(calm_slice_latency(&latencies, &done_at, &three), Some(6.75));
    assert_eq!(calm_slice_latency(&latencies, &done_at, &[]), None);
}

#[test]
fn cpu_per_op_is_the_median_over_slices_that_completed_something() {
    let mut three = slices(&[0.0, 0.0, 0.0]);
    for (slice, cpu) in three.iter_mut().zip([0.002, 0.004, 0.003]) {
        slice.cpu_secs = cpu;
    }
    // Two operations in the first slice, one in the second, none in
    // the third: 1 ms and 4 ms per operation.
    let per_op = median_cpu_ms_per_op(&[0.2, 0.7, 1.5], &three).unwrap();
    assert!((per_op - 2.5).abs() < 1e-12, "{per_op}");
    assert_eq!(median_cpu_ms_per_op(&[], &three), None);
}
