//! The host's speed, from a fixed reference kernel of the benchmark's
//! own.
//!
//! The CPU speed of a shared virtual machine moves by tens of percent
//! for minutes at a time (clock changes, and neighbours contending for
//! the vector units and caches), so a CPU-bound pass can run 1.4–1.8×
//! faster in one run than in the next for no reason in the program. The
//! benchmark times a small vectorised integer FIR on the shard's CPU
//! between its saturated passes and scales the CPU-bound metrics to a
//! host on which that kernel takes [`REFERENCE_NS`]. The kernel is the
//! benchmark's own code: a change to the program under test does not
//! change it. Of the kernels tried on the reference host (a scalar
//! multiply chain, an L2 pointer chase, independent loads from an 8 MiB
//! table, and this FIR), the FIR's time followed the shard's speed from
//! run to run most closely: the lane kernels are vectorised integer
//! filters too.

use std::hint::black_box;
use std::time::Instant;

use crate::host;

/// Time of the reference kernel on the scale the CPU-bound metrics
/// report in, ns: about its time on the reference host (2 vCPUs of a
/// Xeon under KVM) in its fast stretches.
pub const REFERENCE_NS: f64 = 300_000.0;

/// Calls of the kernel per measurement.
const CALLS: usize = 15;

/// A 16-tap integer FIR over an L1-sized buffer, which the compiler
/// vectorises: the vector units, as the lane kernels use them.
fn fir(signal: &[i32]) -> u64 {
    const TAPS: [i32; 16] = [
        3, -7, 12, 25, -31, 44, 58, 61, 61, 58, 44, -31, 25, 12, -7, 3,
    ];
    let mut acc = 0u64;
    for _ in 0..20 {
        for w in signal.windows(TAPS.len()) {
            let y: i32 = w.iter().zip(TAPS).map(|(&s, t)| s.wrapping_mul(t)).sum();
            acc = acc.wrapping_add(y as u64);
        }
        black_box(&acc);
    }
    acc
}

/// Times of [`CALLS`] calls of the reference kernel, ns, on a thread
/// pinned to `cpus` (wherever the scheduler puts it when pinning is not
/// possible).
#[must_use]
pub fn measure(cpus: &[usize]) -> Vec<f64> {
    let cpus = cpus.to_vec();
    std::thread::spawn(move || {
        host::pin_current(&cpus);
        let signal: Vec<i32> = (0..4096).map(|i| (i * 7919 % 2048) - 1024).collect();
        (0..CALLS)
            .map(|_| {
                let t = Instant::now();
                black_box(fir(&signal));
                t.elapsed().as_secs_f64() * 1e9
            })
            .collect()
    })
    .join()
    .unwrap_or_default()
}

/// The kernel's typical time over a run's calls, ns: the mean of the
/// middle 80 %. A mean, not a median: the host switches between a fast
/// and a slow speed every few tenths of a second, so the median jumps
/// between the two when a run spends about half its time in each, while
/// the mean follows the share of time spent slow, as the program's own
/// times do.
#[must_use]
pub fn typical_ns(mut calls: Vec<f64>) -> f64 {
    calls.sort_by(f64::total_cmp);
    let cut = calls.len() / 10;
    let middle = &calls[cut..calls.len() - cut];
    middle.iter().sum::<f64>() / middle.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn typical_time_follows_the_share_of_slow_calls() {
        // Two speeds, 300 and 500, plus an outlier at each end that the
        // trim drops: the median would read 300 or 500 by a single call,
        // the typical time reads the mix.
        let calls = |slow: usize| {
            let mut v = vec![1.0, 1e9];
            v.extend(std::iter::repeat_n(300.0, 18 - slow));
            v.extend(std::iter::repeat_n(500.0, slow));
            typical_ns(v)
        };
        assert!((calls(9) - 400.0).abs() < 20.0, "{}", calls(9));
        assert!(calls(8) < calls(9) && calls(9) < calls(10));
        assert!((calls(10) - calls(8)) < 50.0);
    }

    #[test]
    fn the_kernel_runs_on_the_allowed_cpus() {
        let times = measure(&host::allowed_cpus());
        assert_eq!(times.len(), CALLS);
        assert!(times.iter().all(|&t| t > 0.0));
    }
}
