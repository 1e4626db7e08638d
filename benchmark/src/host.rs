//! Host measurements: peak memory, and the calibration that converts wall
//! time on a shared, noisy host into time on the quiet reference host.
//!
//! On the 2-vCPU reference VM, co-tenants slow every instruction stream
//! by up to ~40% for stretches of seconds; thread CPU time rises with wall
//! time, so neither clock filters it out. A fixed arithmetic kernel timed
//! right before and after each measured chunk slows by the same factor
//! (rep-to-rep spread of the ratio ≈4% against ≈20% for raw wall time).
//! The kernel lives in the benchmark, not in the simulator, so no change
//! to the simulator can speed it up.
//!
//! Only single-thread stretches are calibrated. With both vCPUs busy, the
//! host at times runs them on one core for minutes; two-thread probes of
//! the kernel over- or under-corrected that by up to 10–20%, so the timed
//! reps run on one worker and pool speedups are reported uncalibrated.

use std::hint::black_box;
use std::time::Instant;

/// The calibration sample's duration on the quiet reference host (2-vCPU
/// Xeon VM at 2.1 GHz, `target-cpu=native`), about its tenth percentile
/// over a few thousand samples. A slowdown of 1.0 means "as fast as that".
pub const CAL_NOMINAL_S: f64 = 0.7e-3;

/// Matrix size of the kernel: 72 KB of matrix, resident in L2 like a
/// rack's hot state.
const N: usize = 96;
const ITERS: usize = 150;

/// One timed run of the kernel: power iteration on a fixed 96×96 matrix.
fn kernel() -> f64 {
    let a: Vec<f64> = (0..N * N)
        .map(|i| ((i * 7919) % 1000) as f64 * 1e-3)
        .collect();
    let mut x: Vec<f64> = (0..N).map(|i| i as f64 * 1e-2).collect();
    let mut y = vec![0.0; N];
    let t = Instant::now();
    for _ in 0..ITERS {
        let a = black_box(&a);
        for (r, yr) in y.iter_mut().enumerate() {
            let row = &a[r * N..(r + 1) * N];
            *yr = row.iter().zip(&x).map(|(p, q)| p * q).sum::<f64>();
        }
        let norm = y.iter().sum::<f64>().max(1e-9);
        for (xi, yi) in x.iter_mut().zip(&y) {
            *xi = yi / norm;
        }
    }
    black_box(&x);
    t.elapsed().as_secs_f64()
}

/// The host's current slowdown against the reference: the median of three
/// kernel runs (dropping a run hit by an interrupt) over
/// [`CAL_NOMINAL_S`].
pub fn slowdown() -> f64 {
    let mut t = [kernel(), kernel(), kernel()];
    t.sort_by(f64::total_cmp);
    t[1] / CAL_NOMINAL_S
}

/// Wall time of one measured stretch and its equivalent on the quiet
/// reference host (wall time divided by the mean slowdown sampled just
/// before and just after it).
#[derive(Debug, Clone, Copy, Default)]
pub struct Span {
    pub wall_s: f64,
    pub nominal_s: f64,
}

/// Time `f` on the calling thread, calibrating before and after. `before`
/// is the slowdown sampled right before `f` (callers chaining measured
/// stretches pass the previous stretch's `after`); returns the result,
/// the span, and the slowdown sampled after `f`.
pub fn measure<T>(before: f64, f: impl FnOnce() -> T) -> (T, Span, f64) {
    let t = Instant::now();
    let out = f();
    let wall_s = t.elapsed().as_secs_f64();
    let after = slowdown();
    let span = Span {
        wall_s,
        nominal_s: wall_s / ((before + after) / 2.0),
    };
    (out, span, after)
}

/// Peak resident set of this process (`VmHWM`), MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".into())
}
