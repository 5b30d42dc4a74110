//! Host fingerprint and `/proc` readers (CPU time, peak RSS).

use std::fs;

/// Kernel clock ticks per second for the `utime`/`stime` fields of
/// `/proc/<pid>/stat` (`USER_HZ`, fixed at 100 on Linux).
const USER_HZ: u64 = 100;

/// What the numbers of a run depend on besides the code.
#[derive(Debug, Clone, PartialEq)]
pub struct HostInfo {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// Whether `/proc/cpuinfo` lists `avx2` (selects the gemm kernel).
    pub avx2: bool,
    /// Whether `/proc/cpuinfo` lists `avx512f`.
    pub avx512f: bool,
    /// Commit of the checkout, or `unknown` outside a git repository.
    pub git_commit: String,
}

impl HostInfo {
    /// Reads the fingerprint of this host and checkout.
    pub fn read() -> HostInfo {
        let flags = fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("flags"))
                    .map(str::to_string)
            })
            .unwrap_or_default();
        let has = |f: &str| flags.split_whitespace().any(|w| w == f);
        HostInfo {
            nproc: nproc(),
            avx2: has("avx2"),
            avx512f: has("avx512f"),
            git_commit: git_commit(),
        }
    }
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The checked-out commit, read from `.git` without running git (the
/// driver's checkout is not a repository, so this is often `unknown`).
fn git_commit() -> String {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let head = match fs::read_to_string(root.join(".git/HEAD")) {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => fs::read_to_string(root.join(".git").join(r))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        None => head,
    }
}

/// CPU time consumed so far by the task whose `/proc` directory is
/// `dir`: the scheduler's run-time counter (`schedstat`, ns) where the
/// kernel keeps one, else `utime + stime` of `stat` (10 ms ticks).
fn task_cpu_ns(dir: &str) -> Option<u64> {
    if let Ok(s) = fs::read_to_string(format!("{dir}/schedstat")) {
        if let Some(ns) = s.split_whitespace().next().and_then(|f| f.parse().ok()) {
            return Some(ns);
        }
    }
    let stat = fs::read_to_string(format!("{dir}/stat")).ok()?;
    // Fields after the parenthesised command name, which may itself
    // contain spaces: utime and stime are the 12th and 13th of them.
    let rest = stat.rsplit_once(')')?.1;
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) * (1_000_000_000 / USER_HZ))
}

/// CPU time of the calling thread, ns.
pub fn thread_cpu_ns() -> u64 {
    task_cpu_ns("/proc/thread-self").expect("read /proc/thread-self CPU time")
}

/// Summed CPU time of every live thread of this process, ns.
///
/// Load-generator threads are scoped to a phase: a caller that takes
/// this before spawning them and after joining them gets a difference
/// that holds the server's threads (and the idle main thread) only.
pub fn live_threads_cpu_ns() -> u64 {
    fs::read_dir("/proc/self/task")
        .expect("list /proc/self/task")
        .filter_map(|e| {
            // A thread may exit between the listing and the read.
            task_cpu_ns(e.ok()?.path().to_str()?)
        })
        .sum()
}

/// Peak resident set size of this process so far (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}
