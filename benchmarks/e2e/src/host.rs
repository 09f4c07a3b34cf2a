//! The host record every result carries, and the process-level gauges
//! (`/proc/self`) the memory and CPU metrics are read from.

/// Cores the scheduler will give this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `rustc --version` of the compiler that built this binary (captured
/// by `build.rs`).
pub fn rustc_version() -> &'static str {
    env!("BENCH_RUSTC_VERSION")
}

fn status_kb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    parse_status_kb(&status, field).unwrap_or(0.0)
}

fn parse_status_kb(status: &str, field: &str) -> Option<f64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()
}

/// Peak resident set of this process so far, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM") / 1024.0
}

/// Current resident set of this process, KB (`VmRSS`).
pub fn rss_kb() -> f64 {
    status_kb("VmRSS")
}

/// CPU seconds (user + system, every thread, exited ones included) this
/// process has used, from `/proc/self/stat` in `USER_HZ` ticks. Linux
/// fixes `USER_HZ` at 100 on every architecture it supports.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    parse_stat_ticks(&stat).unwrap_or(0) as f64 / 100.0
}

fn parse_stat_ticks(stat: &str) -> Option<u64> {
    // Field 2 (comm) may contain spaces; fields are counted after its
    // closing parenthesis. utime and stime are fields 14 and 15.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// A `cpu_set_t`: one bit per core, 1 024 of them.
#[cfg(target_os = "linux")]
type CpuSet = [u64; 16];

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
}

/// Pins the calling thread — and every thread it spawns from now on —
/// to one of the cores it may run on (the highest-numbered: core 0
/// tends to take the interrupts). Returns the core, or `None` where the
/// thread could not be pinned, in which case nothing changed.
///
/// The standard library has no operation for this; the two C library
/// calls are the only foreign calls in the benchmark.
#[cfg(target_os = "linux")]
pub fn pin_to_one_core() -> Option<usize> {
    let mut allowed: CpuSet = [0; 16];
    // SAFETY: `allowed` is a live, writable `cpu_set_t` of exactly the
    // size passed; pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut allowed) } != 0 {
        return None;
    }
    let core = (0..allowed.len() * 64)
        .rev()
        .find(|c| allowed[c / 64] >> (c % 64) & 1 == 1)?;
    let mut one: CpuSet = [0; 16];
    one[core / 64] = 1 << (core % 64);
    // SAFETY: `one` is a live `cpu_set_t` of exactly the size passed,
    // and it names a core the kernel just reported as allowed.
    (unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &one) } == 0).then_some(core)
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_core() -> Option<usize> {
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_proc_status_and_stat() {
        let status = "Name:\tx\nVmHWM:\t   5124 kB\nVmRSS:\t 4096 kB\n";
        assert_eq!(parse_status_kb(status, "VmHWM"), Some(5124.0));
        assert_eq!(parse_status_kb(status, "VmRSS"), Some(4096.0));
        assert_eq!(parse_status_kb(status, "VmSwap"), None);
        let stat = "42 (a b) c) S 1 42 42 0 -1 4194304 100 0 0 0 17 5 0 0 20 0 3 0 100 1 1";
        assert_eq!(parse_stat_ticks(stat), Some(22));
    }

    #[test]
    fn pinning_leaves_one_allowed_core_and_children_inherit_it() {
        // On its own thread: the pin would otherwise outlive the test.
        std::thread::spawn(|| {
            let core = pin_to_one_core().expect("a Linux thread can pin itself");
            let status = || std::fs::read_to_string("/proc/thread-self/status").unwrap();
            let allowed = |status: String| {
                status
                    .lines()
                    .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
                    .map(|l| l.trim().to_string())
            };
            assert_eq!(allowed(status()), Some(core.to_string()));
            let child = std::thread::spawn(move || allowed(status()))
                .join()
                .unwrap();
            assert_eq!(child, Some(core.to_string()));
        })
        .join()
        .unwrap();
    }

    #[test]
    fn gauges_read_this_process() {
        assert!(peak_rss_mb() > 0.0);
        assert!(rss_kb() > 0.0);
        assert!(nproc() >= 1);
        assert!(rustc_version().starts_with("rustc") || rustc_version() == "unknown");
    }
}
