//! Sample statistics shared by the workloads, the result files and
//! `nsbench compare`.

/// Median of `values` (mean of the two middle samples for an even count).
/// NaN for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile (`p` in percent) of an ascending-sorted slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Lower quartile (nearest rank) of `values`; NaN for an empty slice.
///
/// What `setup_s` and the driver's `op_ms` report over the repetitions of
/// one run. The shared host only ever adds time to a sample, for spells of
/// seconds at a time, so the lower quartile of samples spread over the whole
/// run stays put while up to three quarters of them are disturbed; their
/// median moves as soon as half are.
pub fn lower_quartile(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 25.0)
}

/// The percentiles a tail may be reported at, ascending, in per mille
/// (whole numbers, so "ten samples beyond" is an exact comparison).
const TAIL_LADDER: [usize; 6] = [500, 750, 900, 950, 990, 999];

/// The highest percentile of the ladder that still has at least ten of
/// `n` samples beyond it; the median when even p75 does not (n < 40).
pub fn tail_percentile(n: usize) -> f64 {
    let per_mille = TAIL_LADDER
        .iter()
        .copied()
        .filter(|p| n * (1000 - p) >= 10 * 1000)
        .fold(TAIL_LADDER[0], usize::max);
    per_mille as f64 / 10.0
}

/// Percentile over *offered* operations: `answered` holds the latencies
/// of the operations that completed, and each of the `offered -
/// answered.len()` operations that were rejected or dropped is a miss
/// ranked above every answer, reported as `miss_value` (the phase's wall
/// time: no answer can have taken longer).
pub fn offered_percentile(answered: &mut [f64], offered: usize, p: f64, miss_value: f64) -> f64 {
    answered.sort_by(f64::total_cmp);
    let offered = offered.max(answered.len());
    if offered == 0 {
        return f64::NAN;
    }
    let rank = (((p / 100.0) * offered as f64).ceil() as usize).clamp(1, offered);
    answered.get(rank - 1).copied().unwrap_or(miss_value)
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` computes
/// them (the "exclusive" method), so a spread printed here is the spread
/// the driver will compute. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mut out = [0.0; 3];
    for (i, q) in out.iter_mut().enumerate() {
        let pos = (i + 1) * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        *q = v[j - 1] + (v[j] - v[j - 1]) * delta;
    }
    Some(out)
}

/// Inter-quartile distance as a share of the median.
pub fn iqr_share(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(tail_percentile(42), 75.0); // 10.5 beyond p75, 4.2 beyond p90
        assert_eq!(tail_percentile(39), 50.0); // 9.75 beyond p75
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(1_000), 99.0);
        assert_eq!(tail_percentile(10_000), 99.9);
        assert_eq!(tail_percentile(5), 50.0);
    }

    #[test]
    fn offered_percentiles_rank_rejects_as_misses() {
        // 90 answers of 1..=90 ms out of 100 offered: ten misses sit above.
        let answers: Vec<f64> = (1..=90).map(f64::from).collect();
        let mut a = answers.clone();
        assert_eq!(offered_percentile(&mut a, 100, 50.0, 1e6), 50.0);
        assert_eq!(offered_percentile(&mut a, 100, 90.0, 1e6), 90.0);
        assert_eq!(offered_percentile(&mut a, 100, 91.0, 1e6), 1e6);
        assert_eq!(offered_percentile(&mut a, 100, 99.0, 1e6), 1e6);
        // With nothing rejected the same rank is an answer.
        let mut b = answers;
        assert_eq!(offered_percentile(&mut b, 90, 99.0, 1e6), 90.0);
    }

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 99.9), 100.0);
        assert_eq!(lower_quartile(&v), 25.0);
        // Three disturbed samples of five leave it where it was.
        assert_eq!(lower_quartile(&[9.0, 1.0, 9.5, 1.1, 9.9]), 1.1);
        assert_eq!(lower_quartile(&[3.0, 1.0, 2.0]), 1.0);
        assert!(lower_quartile(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(iqr_share(&v), Some(1.0));
        assert_eq!(quartiles(&[1.0]), None);
    }
}
