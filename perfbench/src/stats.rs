//! Order statistics and correlation over measured samples.

pub fn median_f64(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The per-round figure three rounds in four meet: the lower quartile of a
/// rate (higher is better), the upper quartile of a time (lower is better).
///
/// A round's speed depends on what the host's other tenants run on the
/// same cores: episodes of faster rounds come and go between runs, while
/// the slower level holds. This quartile tracks that level; a median moved
/// about twice as much from run to run.
pub fn sustained(xs: &[f64], higher_is_better: bool) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let q = if higher_is_better { 0.25 } else { 0.75 };
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// The `q`-quantile (nearest rank) of `xs`, which this reorders.
pub fn quantile(xs: &mut [u64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let rank = ((q * xs.len() as f64).ceil() as usize).clamp(1, xs.len());
    *xs.select_nth_unstable(rank - 1).1 as f64
}

/// Pearson correlation coefficient of paired samples.
pub fn pearson(xs: &[f64], ys: &[f64]) -> f64 {
    let n = xs.len().min(ys.len()) as f64;
    if n < 2.0 {
        return f64::NAN;
    }
    let (mx, my) = (xs.iter().sum::<f64>() / n, ys.iter().sum::<f64>() / n);
    let (mut sxy, mut sxx, mut syy) = (0.0, 0.0, 0.0);
    for (x, y) in xs.iter().zip(ys) {
        sxy += (x - mx) * (y - my);
        sxx += (x - mx) * (x - mx);
        syy += (y - my) * (y - my);
    }
    sxy / (sxx * syy).sqrt()
}
