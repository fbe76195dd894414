//! Small timing helpers shared by the `repro` binary and the Criterion
//! benches.

use std::time::{Duration, Instant};

/// Median of a set of duration samples (empty ⇒ zero).
pub fn median(mut samples: Vec<Duration>) -> Duration {
    if samples.is_empty() {
        return Duration::ZERO;
    }
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// Median wall time of `samples` calls of `f` (at least one), and the
/// last call's result. Each result is dropped only after its clock stops.
pub fn median_time<T>(samples: usize, mut f: impl FnMut() -> T) -> (Duration, T) {
    let mut time = || {
        let start = Instant::now();
        let out = std::hint::black_box(f());
        (start.elapsed(), out)
    };
    let (first, mut last) = time();
    let mut times = vec![first];
    for _ in 1..samples {
        let (t, out) = time();
        times.push(t);
        last = out;
    }
    (median(times), last)
}

/// Ratio of two durations as a speedup factor (`base / other`).
/// Returns `f64::INFINITY` when `other` is zero.
pub fn speedup(base: Duration, other: Duration) -> f64 {
    let o = other.as_secs_f64();
    if o == 0.0 {
        f64::INFINITY
    } else {
        base.as_secs_f64() / o
    }
}

/// Formats a duration in adaptive units for table output.
pub fn fmt_duration(d: Duration) -> String {
    let s = d.as_secs_f64();
    if s >= 1.0 {
        format!("{s:.3} s")
    } else if s >= 1e-3 {
        format!("{:.3} ms", s * 1e3)
    } else {
        format!("{:.1} µs", s * 1e6)
    }
}

/// Formats a byte count in adaptive units.
pub fn fmt_bytes(b: usize) -> String {
    if b >= 1 << 20 {
        format!("{:.2} MiB", b as f64 / (1 << 20) as f64)
    } else if b >= 1 << 10 {
        format!("{:.1} KiB", b as f64 / (1 << 10) as f64)
    } else {
        format!("{b} B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_picks_the_middle_sample() {
        let d = |ms| Duration::from_millis(ms);
        assert_eq!(median(vec![d(5), d(1), d(9)]), d(5));
        assert_eq!(median(vec![d(4), d(2)]), d(4));
        assert_eq!(median(vec![]), Duration::ZERO);
    }

    #[test]
    fn median_time_calls_at_least_once_and_returns_the_last_result() {
        let mut calls = 0;
        assert_eq!(
            median_time(3, || {
                calls += 1;
                calls
            })
            .1,
            3
        );
        assert_eq!(
            median_time(0, || {
                calls += 1;
                calls
            })
            .1,
            4
        );
    }

    #[test]
    fn speedup_is_base_over_other() {
        let s = speedup(Duration::from_millis(100), Duration::from_millis(25));
        assert!((s - 4.0).abs() < 1e-9);
        assert!(speedup(Duration::from_millis(1), Duration::ZERO).is_infinite());
    }

    #[test]
    fn formatters_choose_sane_units() {
        assert!(fmt_duration(Duration::from_secs(2)).ends_with(" s"));
        assert!(fmt_duration(Duration::from_millis(5)).ends_with(" ms"));
        assert!(fmt_duration(Duration::from_micros(7)).ends_with(" µs"));
        assert!(fmt_bytes(3).ends_with(" B"));
        assert!(fmt_bytes(2048).ends_with(" KiB"));
        assert!(fmt_bytes(3 << 20).ends_with(" MiB"));
    }
}
