//! Summary statistics: means and 95% confidence intervals.
//!
//! The paper reports "the average and the 95% confidence intervals from
//! 100 independent experiments" for every data point; this module
//! provides exactly that aggregation.

/// Mean and 95% confidence half-width of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample mean.
    pub mean: f64,
    /// Half-width of the 95% confidence interval (normal approximation,
    /// `1.96 · s/√n`; the paper's 100-run samples are comfortably in CLT
    /// territory).
    pub ci95: f64,
    /// Sample size.
    pub n: usize,
}

impl Summary {
    /// Lower bound of the 95% confidence interval.
    pub fn lo(&self) -> f64 {
        self.mean - self.ci95
    }

    /// Upper bound of the 95% confidence interval.
    pub fn hi(&self) -> f64 {
        self.mean + self.ci95
    }
}

/// Summarises a sample.
///
/// # Panics
///
/// Panics if `samples` is empty.
pub fn summarize(samples: &[f64]) -> Summary {
    assert!(!samples.is_empty(), "cannot summarise an empty sample");
    let n = samples.len();
    let mean = samples.iter().sum::<f64>() / n as f64;
    if n == 1 {
        return Summary { mean, ci95: 0.0, n };
    }
    let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64;
    let se = (var / n as f64).sqrt();
    Summary {
        mean,
        ci95: 1.96 * se,
        n,
    }
}

/// Summarises a matrix of per-run trajectories column-wise: `runs[r][i]`
/// is run `r`'s value at index `i`. All runs must have equal length.
///
/// # Panics
///
/// Panics if `runs` is empty or trajectory lengths differ.
pub fn summarize_trajectories(runs: &[Vec<f64>]) -> Vec<Summary> {
    assert!(!runs.is_empty(), "no trajectories to summarise");
    let len = runs[0].len();
    assert!(
        runs.iter().all(|r| r.len() == len),
        "trajectory lengths differ"
    );
    (0..len)
        .map(|i| {
            let col: Vec<f64> = runs.iter().map(|r| r[i]).collect();
            summarize(&col)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_sample() {
        let s = summarize(&[5.0]);
        assert_eq!(s.mean, 5.0);
        assert_eq!(s.ci95, 0.0);
        assert_eq!(s.n, 1);
        assert_eq!(s.lo(), 5.0);
        assert_eq!(s.hi(), 5.0);
    }

    #[test]
    fn known_values() {
        // Sample {1,2,3,4,5}: mean 3, s^2 = 2.5, se = sqrt(0.5).
        let s = summarize(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert!((s.mean - 3.0).abs() < 1e-12);
        let expect = 1.96 * (2.5f64 / 5.0).sqrt();
        assert!((s.ci95 - expect).abs() < 1e-12);
        assert!(s.lo() < 3.0 && s.hi() > 3.0);
    }

    #[test]
    fn constant_sample_has_zero_width() {
        let s = summarize(&[7.0; 50]);
        assert_eq!(s.mean, 7.0);
        assert_eq!(s.ci95, 0.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_sample_panics() {
        summarize(&[]);
    }

    #[test]
    fn trajectories_columnwise() {
        let runs = vec![vec![1.0, 10.0], vec![3.0, 10.0]];
        let cols = summarize_trajectories(&runs);
        assert_eq!(cols.len(), 2);
        assert!((cols[0].mean - 2.0).abs() < 1e-12);
        assert!((cols[1].mean - 10.0).abs() < 1e-12);
        assert_eq!(cols[1].ci95, 0.0);
    }

    #[test]
    #[should_panic(expected = "lengths differ")]
    fn ragged_trajectories_panic() {
        summarize_trajectories(&[vec![1.0], vec![1.0, 2.0]]);
    }

    #[test]
    fn ci_shrinks_with_sample_size() {
        let small: Vec<f64> = (0..10).map(|i| (i % 2) as f64).collect();
        let large: Vec<f64> = (0..1000).map(|i| (i % 2) as f64).collect();
        assert!(summarize(&large).ci95 < summarize(&small).ci95);
    }
}
