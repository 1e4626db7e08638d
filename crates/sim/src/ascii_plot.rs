//! Terminal plotting for the examples and `paper_figures`: the CSVs and
//! the claims table are the source of truth; these charts make runs
//! legible at a glance.

/// Render several aligned series as a multi-line chart with one symbol
/// per series ('*', 'o', '+', 'x', ...).
pub fn multi_chart(title: &str, series: &[(&str, &[f64])], width: usize, height: usize) -> String {
    assert!(width >= 2 && height >= 2);
    const SYMBOLS: [char; 6] = ['*', 'o', '+', 'x', '#', '@'];
    let all: Vec<Vec<f64>> = series.iter().map(|(_, s)| resample(s, width)).collect();
    let flat: Vec<f64> = all.iter().flatten().copied().collect();
    if flat.is_empty() {
        return format!("{title}\n  (no data)\n");
    }
    let (lo, hi) = bounds(&flat);
    let span = (hi - lo).max(1e-12);
    let mut grid = vec![vec![' '; width]; height];
    for (si, cols) in all.iter().enumerate() {
        let sym = SYMBOLS[si % SYMBOLS.len()];
        for (x, &v) in cols.iter().enumerate() {
            let yf = (v - lo) / span;
            let y = ((1.0 - yf) * (height - 1) as f64).round() as usize;
            let cell = &mut grid[y.min(height - 1)][x];
            // Later series overwrite — fine for visual triage.
            *cell = sym;
        }
    }
    let mut out = String::new();
    out.push_str(title);
    out.push_str("   [");
    for (si, (name, _)) in series.iter().enumerate() {
        if si > 0 {
            out.push_str(", ");
        }
        out.push(SYMBOLS[si % SYMBOLS.len()]);
        out.push('=');
        out.push_str(name);
    }
    out.push_str("]\n");
    for (r, row) in grid.iter().enumerate() {
        let label = if r == 0 {
            format!("{hi:>9.2} ")
        } else if r == height - 1 {
            format!("{lo:>9.2} ")
        } else {
            " ".repeat(10)
        };
        out.push_str(&label);
        out.push('|');
        out.extend(row.iter());
        out.push('\n');
    }
    out.push_str(&" ".repeat(10));
    out.push('+');
    out.push_str(&"-".repeat(width));
    out.push('\n');
    out
}

fn resample(series: &[f64], width: usize) -> Vec<f64> {
    if series.len() <= width {
        return series.to_vec();
    }
    let chunk = series.len() as f64 / width as f64;
    (0..width)
        .map(|i| {
            let a = (i as f64 * chunk) as usize;
            let b = (((i + 1) as f64 * chunk) as usize)
                .min(series.len())
                .max(a + 1);
            series[a..b].iter().sum::<f64>() / (b - a) as f64
        })
        .collect()
}

fn bounds(v: &[f64]) -> (f64, f64) {
    let lo = v.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if (hi - lo).abs() < 1e-12 {
        (lo - 0.5, hi + 0.5)
    } else {
        (lo, hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chart_has_expected_shape() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64 * 0.1).sin()).collect();
        let chart = multi_chart("sine", &[("s", &data)], 40, 8);
        let lines: Vec<&str> = chart.lines().collect();
        assert_eq!(lines[0], "sine   [*=s]");
        assert_eq!(lines.len(), 1 + 8 + 1);
        // Axis labels present.
        assert!(lines[1].contains("1.00"));
        assert!(chart.contains('*'));
    }

    #[test]
    fn multi_chart_lists_legend() {
        let a: Vec<f64> = vec![1.0; 50];
        let b: Vec<f64> = vec![2.0; 50];
        let chart = multi_chart("two", &[("up", &a), ("down", &b)], 30, 6);
        assert!(chart.contains("*=up"));
        assert!(chart.contains("o=down"));
        assert!(chart.contains('o') && chart.contains('*'));
    }

    #[test]
    fn resample_averages() {
        let data: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let r = resample(&data, 5);
        assert_eq!(r, vec![0.5, 2.5, 4.5, 6.5, 8.5]);
        // Short series pass through.
        assert_eq!(resample(&[1.0, 2.0], 5), vec![1.0, 2.0]);
    }

    #[test]
    fn constant_series_does_not_divide_by_zero() {
        let chart = multi_chart("flat", &[("s", &[3.0; 20])], 10, 4);
        assert!(chart.contains('*'));
    }

    #[test]
    fn empty_series_is_graceful() {
        assert!(multi_chart("none", &[("s", &[])], 10, 4).contains("no data"));
    }
}
