//! Order statistics, the Fig. 6 hypervolume and process memory.

/// Median of `v` (mean of the two middle values for an even count);
/// 0 for an empty slice.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Quartiles as Python's `statistics.quantiles(v, n=4)` computes them
/// (the default "exclusive" method). Needs at least two values.
pub fn quartiles(v: &[f64]) -> (f64, f64, f64) {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n < 2 {
        let x = s.first().copied().unwrap_or(0.0);
        return (x, x, x);
    }
    let q = |i: usize| {
        // m = n + 1; j = i*m // 4; delta = i*m - j*4
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

/// The tail latency the benchmark reports: with at least 40 samples, the
/// value that exactly ten samples exceed (the 11th largest), returned
/// with its 1-based rank in ascending order; with fewer, the median and
/// rank 0 (too few samples for a tail).
pub fn tail(v: &[f64]) -> (f64, usize) {
    if v.len() < 40 {
        return (median(v), 0);
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = s.len() - 10;
    (s[rank - 1], rank)
}

/// Hypervolume (area) dominated by `points` on two minimised axes
/// (slices, runtime µs), bounded by `reference`. Points beyond the
/// reference on either axis contribute nothing.
pub fn hypervolume(points: &[(f64, f64)], reference: (f64, f64)) -> f64 {
    let mut pts: Vec<(f64, f64)> = points
        .iter()
        .copied()
        .filter(|&(x, y)| x < reference.0 && y < reference.1)
        .collect();
    pts.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1)));
    // Sweep left to right, keeping the best runtime seen so far: each
    // improving point adds a slab from its x to the reference.
    let mut area = 0.0;
    let mut best_y = reference.1;
    for (i, &(x, y)) in pts.iter().enumerate() {
        if y < best_y {
            best_y = y;
        }
        let next_x = pts.get(i + 1).map_or(reference.0, |p| p.0);
        area += (next_x - x) * (reference.1 - best_y);
    }
    area
}

/// Peak resident set size of this process in MB (`VmHWM` from
/// `/proc/self/status`); 0 where that file is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 1.0, 3.0, 2.0]), (1.25, 2.5, 3.75));
    }

    #[test]
    fn tail_is_the_eleventh_largest() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v), (90.0, 90));
        assert_eq!(tail(&v[..20]), (10.5, 0));
    }

    #[test]
    fn hypervolume_of_a_staircase() {
        let r = (10.0, 10.0);
        assert_eq!(hypervolume(&[(2.0, 5.0)], r), 8.0 * 5.0);
        // A dominated point adds nothing.
        assert_eq!(hypervolume(&[(2.0, 5.0), (3.0, 6.0)], r), 40.0);
        // Two non-dominated points: 1x5 slab plus 8x... = (2..4)*5 + (4..10)*8
        assert_eq!(hypervolume(&[(2.0, 5.0), (4.0, 2.0)], r), 10.0 + 48.0);
        assert_eq!(hypervolume(&[(12.0, 1.0)], r), 0.0);
    }
}
