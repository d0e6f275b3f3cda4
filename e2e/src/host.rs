//! The three things the benchmark asks of the operating system: one CPU,
//! a per-thread CPU clock, and the peak resident set.

use std::io;

// glibc's `cpu_set_t` is 1024 bits.
const CPU_SET_WORDS: usize = 16;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// Pins the process (this thread and every thread it later spawns) to the
/// lowest-numbered CPU it is allowed on, and returns that CPU.
///
/// Host rows are one-CPU costs: on a two-core shared sandbox a second
/// runnable thread lands on whichever core the neighbours left free, and
/// the threaded executor then costs 3–4× more wall time for no more work.
///
/// # Errors
///
/// Returns the OS error of the affinity calls.
pub fn pin_to_one_cpu() -> io::Result<usize> {
    let mut mask = [0u64; CPU_SET_WORDS];
    let bytes = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a writable buffer of `bytes` bytes, which is what
    // `sched_getaffinity` fills; pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, bytes, mask.as_mut_ptr()) } != 0 {
        return Err(io::Error::last_os_error());
    }
    let cpu = mask
        .iter()
        .enumerate()
        .find(|(_, w)| **w != 0)
        .map(|(i, w)| i * 64 + w.trailing_zeros() as usize)
        .ok_or_else(|| io::Error::other("empty affinity mask"))?;
    let mut one = [0u64; CPU_SET_WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of `bytes` bytes holding a valid
    // CPU set; pid 0 names the calling thread.
    if unsafe { sched_setaffinity(0, bytes, one.as_ptr()) } != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(cpu)
}

/// CPU time consumed by the calling thread, in nanoseconds.
///
/// On one pinned CPU the wall-clock spans of concurrently runnable
/// threads overlap; their CPU times do not, so the threaded workload's
/// layer shares are taken on this clock.
pub fn thread_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a writable `timespec`; the clock id is a constant
    // every Linux kernel supports, so the call cannot fail.
    unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Peak resident set size of the process (`VmHWM`), in MiB.
///
/// # Errors
///
/// Returns an error when `/proc/self/status` cannot be read or has no
/// `VmHWM` line.
pub fn peak_rss_mib() -> io::Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| io::Error::other("no VmHWM line in /proc/self/status"))
}
