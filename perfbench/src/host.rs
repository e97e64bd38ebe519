//! What the benchmark learns about the machine and its own process from
//! the OS: core count, toolchain, peak memory and per-thread CPU time.

use std::fs;
use std::process::Command;
use std::sync::OnceLock;

/// Cores the process may run on.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// `rustc --version` of the toolchain on `PATH` (the one Cargo built the
/// benchmark with), or `"unknown"`.
#[must_use]
pub fn rustc_version() -> String {
    Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// Peak resident set size (`VmHWM`) in MiB.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// CPU time in ns a task has run, from its `schedstat`.
fn schedstat_ns(path: &str) -> Option<u64> {
    fs::read_to_string(path)
        .ok()?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// CPU time in ns of the calling thread.
#[must_use]
pub fn thread_cpu_ns() -> u64 {
    schedstat_ns("/proc/thread-self/schedstat").unwrap_or(0)
}

/// Summed CPU time in ns of the live threads whose name starts with
/// `prefix` (thread names are truncated to 15 bytes by the kernel).
#[must_use]
pub fn threads_cpu_ns(prefix: &str) -> u64 {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return 0;
    };
    let mut total = 0;
    for task in tasks.flatten() {
        let dir = task.path();
        let comm = fs::read_to_string(dir.join("comm")).unwrap_or_default();
        if comm.trim_end().starts_with(prefix) {
            total += schedstat_ns(&dir.join("schedstat").to_string_lossy()).unwrap_or(0);
        }
    }
    total
}

/// Words of the kernel's CPU mask the benchmark passes (1024 CPUs).
const MASK_WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// CPUs the calling thread may run on, ascending; empty when unknown.
#[must_use]
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the size passed.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..MASK_WORDS * 64)
        .filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
        .collect()
}

/// Restricts the calling thread (and the threads it spawns from now on)
/// to `cpus`. Returns whether the kernel accepted it; an empty list
/// changes nothing.
pub fn pin_current(cpus: &[usize]) -> bool {
    let mut mask = [0u64; MASK_WORDS];
    for &c in cpus.iter().filter(|&&c| c < MASK_WORDS * 64) {
        mask[c / 64] |= 1 << (c % 64);
    }
    if mask == [0; MASK_WORDS] {
        return false;
    }
    // SAFETY: `mask` is a readable buffer of exactly the size passed.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

/// CPUs of the generator thread and of the shard threads.
#[derive(Debug, Clone)]
pub struct Placement {
    /// The generator's CPU.
    pub generator: Vec<usize>,
    /// The shards' CPUs.
    pub shards: Vec<usize>,
}

/// The generator on the first allowed CPU and the shards on the others
/// (everything on the one CPU when there is only one), decided once from
/// the CPUs the process may use at the first call.
#[must_use]
pub fn placement() -> Placement {
    static PLACEMENT: OnceLock<Placement> = OnceLock::new();
    PLACEMENT.get_or_init(decide_placement).clone()
}

fn decide_placement() -> Placement {
    let cpus = allowed_cpus();
    if cpus.len() < 2 {
        return Placement {
            generator: cpus.clone(),
            shards: cpus,
        };
    }
    Placement {
        generator: cpus[..1].to_vec(),
        shards: cpus[1..].to_vec(),
    }
}
