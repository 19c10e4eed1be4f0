//! Order statistics over timing samples.

/// Median of `values` (mean of the two middle values for even counts);
/// 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// First and third quartiles by the "exclusive" method Python's
/// `statistics.quantiles(values, n=4)` uses, extrapolation at tiny
/// counts included; `(v, v)` for one value.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let s = sorted(values);
    let n = s.len();
    if n < 2 {
        let v = s.first().copied().unwrap_or(0.0);
        return (v, v);
    }
    let at = |q: f64| {
        let pos = q * (n + 1) as f64;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * frac
    };
    (at(0.25), at(0.75))
}

/// Interquartile range as a share of the median — the spread a
/// calibration reports beside its median.
pub fn spread(values: &[f64]) -> f64 {
    let m = median(values);
    let (q1, q3) = quartiles(values);
    if m > 0.0 {
        (q3 - q1) / m
    } else {
        0.0
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 2.25));
    }
}
