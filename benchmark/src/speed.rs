//! Host-speed adjustment of timings of CPU work.
//!
//! The 2-vCPU containers this benchmark runs in change speed under it:
//! a fixed loop's time swings by up to 1.6× within seconds as other
//! tenants load the machine, and whole 30-second runs land in the fast
//! or the slow regime. Raw wall times of the checker then spread by
//! 15–25 % between runs of the same code, wider than any useful bound.
//! The checker and a fixed calibration kernel slow down together, so
//! each timing of CPU work is multiplied by [`REFERENCE_US`] ÷ the
//! kernel's current time: the result is the time the work takes on a
//! host where the kernel takes [`REFERENCE_US`] (about this container's
//! slow regime). Raw times are printed to standard error beside the
//! adjusted ones. Latencies that wait on the network or on another
//! process (`serve-mixed`) are not adjusted.

use std::collections::VecDeque;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The kernel's time on the reference host, in microseconds.
pub const REFERENCE_US: f64 = 200.0;
/// Kernel runs the current speed is the median of.
const WINDOW: usize = 5;

/// A fixed piece of work shaped like the checker's inner loop (mixing,
/// small vector copies and set inserts), timed. It calls nothing from
/// the repository, so no change to the program moves it.
pub fn kernel() -> Duration {
    let t0 = Instant::now();
    let mut set = std::collections::HashSet::with_capacity(64);
    let mut window: Vec<u64> = Vec::new();
    let mut acc = 0u64;
    for i in 0..3000u64 {
        let mut z = black_box(i).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        window.push(z);
        if window.len() > 24 {
            window = window[12..].to_vec();
        }
        set.insert(z % 4096);
        acc = acc.wrapping_add(z);
    }
    black_box((acc, set.len(), window.len()));
    t0.elapsed()
}

fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// The host's current speed, from the last few kernel runs.
#[derive(Default)]
pub struct Speed {
    recent: VecDeque<f64>,
    factors: Vec<f64>,
}

impl Speed {
    /// Runs the kernel and returns the factor that adjusts a timing taken
    /// now to the reference host: [`REFERENCE_US`] ÷ the median of the
    /// last [`WINDOW`] kernel times.
    pub fn sample(&mut self) -> f64 {
        if self.recent.len() == WINDOW {
            self.recent.pop_front();
        }
        self.recent.push_back(kernel().as_secs_f64() * 1e6);
        let factor = REFERENCE_US / median(&mut self.recent.iter().copied().collect::<Vec<_>>());
        self.factors.push(factor);
        factor
    }

    /// The run's median factor (1 when never sampled).
    pub fn median_factor(&self) -> f64 {
        if self.factors.is_empty() {
            return 1.0;
        }
        median(&mut self.factors.clone())
    }
}
