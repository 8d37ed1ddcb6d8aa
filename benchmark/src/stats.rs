//! Order statistics over a handful of repetitions.

/// The median (mean of the two middle values for an even count); 0 for
/// an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// A metric over its repetitions: what every output row carries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        Summary {
            median: median(values),
            min: values.iter().copied().fold(f64::INFINITY, f64::min),
            max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            n: values.len(),
        }
    }

    /// A single observation.
    pub fn one(v: f64) -> Summary {
        Summary::of(&[v])
    }

    /// `(max - min) / median`: the run's own spread, compared with a
    /// metric's bound to decide whether a difference can be resolved.
    pub fn spread(&self) -> f64 {
        if self.n < 2 || self.median == 0.0 {
            0.0
        } else {
            (self.max - self.min) / self.median.abs()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn summary_and_spread() {
        let s = Summary::of(&[100.0, 90.0, 110.0, 105.0, 95.0]);
        assert_eq!((s.median, s.min, s.max, s.n), (100.0, 90.0, 110.0, 5));
        assert!((s.spread() - 0.2).abs() < 1e-12);
        assert_eq!(Summary::one(5.0).spread(), 0.0);
        assert_eq!(Summary::of(&[0.0, 0.0]).spread(), 0.0);
    }
}
