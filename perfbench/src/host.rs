//! Facts about the host and the build that a reader needs to compare two
//! runs: figures from different hosts, loads or builds are not comparable.

use std::process::Command;

/// The process's peak resident memory in MB (`VmHWM`), if readable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The three load averages, or "unknown".
pub fn loadavg() -> String {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .map(|s| s.split_whitespace().take(3).collect::<Vec<_>>().join(" "))
        .unwrap_or_else(|| "unknown".into())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn rustc_version() -> String {
    Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Keeps `git` (run by `bench_meta_json`) from searching above the
/// current directory, so a checkout that is not a repository reports an
/// unknown revision rather than that of an enclosing one. Call before any
/// thread starts.
pub fn confine_git() {
    if let Some(parent) = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(|p| p.to_path_buf()))
    {
        std::env::set_var("GIT_CEILING_DIRECTORIES", parent);
    }
}

/// Keeps a string safe to embed in the JSON line.
fn clean(s: &str) -> String {
    s.chars()
        .filter(|c| !matches!(c, '"' | '\\') && !c.is_control())
        .collect()
}

/// One JSON object: the seed, git revision (with its dirty flag) and
/// profile from `oftm_bench::bench_meta_json`, plus the host facts.
pub fn meta_json(
    seed: u64,
    workload: &str,
    seconds: u64,
    trace: bool,
    load_before: &str,
    load_after: &str,
) -> String {
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    #[cfg(target_os = "linux")]
    let nproc = cpus().len();
    #[cfg(not(target_os = "linux"))]
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{{}, \"workload\": \"{workload}\", \"seconds\": {seconds}, \"trace\": {trace}, \
         \"host\": {{\"nproc\": {nproc}, \"loadavg_before\": \"{}\", \"loadavg_after\": \"{}\", \
         \"cpu\": \"{}\", \"rustc\": \"{}\"}}}}",
        oftm_bench::bench_meta_json(seed, profile),
        clean(load_before),
        clean(load_after),
        clean(&cpu_model()),
        clean(&rustc_version()),
    )
}

/// CPU affinity of the calling thread, through the C library that `std`
/// already links (Linux only; elsewhere pinning is skipped).
#[cfg(target_os = "linux")]
mod affinity {
    /// Mask words: room for 1024 CPUs.
    const WORDS: usize = 16;

    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }

    /// The CPUs the calling thread may run on, ascending.
    pub fn allowed() -> Vec<usize> {
        let mut mask = [0u64; WORDS];
        // SAFETY: `mask` is a writable buffer of exactly the size passed;
        // pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
        if rc != 0 {
            return Vec::new();
        }
        (0..WORDS * 64)
            .filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
            .collect()
    }

    pub fn pin(cpu: usize) {
        let mut mask = [0u64; WORDS];
        mask[cpu / 64] |= 1 << (cpu % 64);
        // SAFETY: `mask` is a readable buffer of exactly the size passed;
        // pid 0 names the calling thread. A failure leaves the thread
        // unpinned, which only costs steadiness.
        let _ = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    }
}

/// The CPUs this process may use, read once, before the first thread is
/// pinned (so also the `nproc` the run reports).
#[cfg(target_os = "linux")]
fn cpus() -> &'static [usize] {
    static CPUS: std::sync::OnceLock<Vec<usize>> = std::sync::OnceLock::new();
    CPUS.get_or_init(affinity::allowed)
}

/// Pins the calling thread to the first CPU this process may use, so
/// that the client runs where the run's set-up warmed the caches instead
/// of wherever the scheduler puts it.
pub fn pin_current_thread() {
    #[cfg(target_os = "linux")]
    if let Some(&cpu) = cpus().first() {
        affinity::pin(cpu);
    }
}
