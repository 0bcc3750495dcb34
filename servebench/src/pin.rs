//! CPU affinity, through the C library's `sched_getaffinity` and
//! `sched_setaffinity` (std exposes neither).
//!
//! Each connection's client thread and its server handler thread share
//! one CPU. On the 2-vCPU KVM guest the benchmark was tuned on, a
//! loopback round trip between threads on different vCPUs costs two
//! cross-vCPU wakeups, whose price varied by ±20% from one process to
//! the next; on one CPU it is two same-core context switches.

use std::os::raw::c_int;
use std::sync::OnceLock;

/// `cpu_set_t` as glibc lays it out: 1024 bits.
const MASK_WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: c_int, cpusetsize: usize, mask: *mut u64) -> c_int;
    fn sched_setaffinity(pid: c_int, cpusetsize: usize, mask: *const u64) -> c_int;
}

/// The CPUs thread `tid` (0: the calling thread) may run on,
/// ascending; `None` if the kernel will not say.
pub fn affinity(tid: i32) -> Option<Vec<usize>> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the size passed; an
    // unknown `tid` makes the call fail with ESRCH, nothing worse.
    let rc = unsafe { sched_getaffinity(tid, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    (rc == 0).then(|| {
        (0..MASK_WORDS * 64).filter(|&cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1).collect()
    })
}

/// The CPUs the process could run on when this was first called —
/// before any thread was pinned — ascending; empty if unknown.
fn allowed() -> &'static [usize] {
    static ALLOWED: OnceLock<Vec<usize>> = OnceLock::new();
    ALLOWED.get_or_init(|| affinity(0).unwrap_or_default())
}

/// The CPU connection `conn` runs on.
pub fn cpu_for(conn: usize) -> Option<usize> {
    let cpus = allowed();
    (!cpus.is_empty()).then(|| cpus[conn % cpus.len()])
}

/// Pin thread `tid` (0: the calling thread) to connection `conn`'s CPU;
/// a no-op where the process's CPUs are unknown.
pub fn pin_for(tid: i32, conn: usize) -> Result<(), String> {
    cpu_for(conn).map_or(Ok(()), |cpu| pin(tid, cpu))
}

/// Restrict thread `tid` (0: the calling thread) to `cpu`, and read
/// the restriction back; an error names what did not take.
fn pin(tid: i32, cpu: usize) -> Result<(), String> {
    if cpu >= MASK_WORDS * 64 {
        return Err(format!("CPU {cpu} is past the affinity mask"));
    }
    let mut mask = [0u64; MASK_WORDS];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a readable buffer of exactly the size passed; an
    // unknown `tid` makes the call fail with ESRCH, nothing worse.
    let rc = unsafe { sched_setaffinity(tid, std::mem::size_of_val(&mask), mask.as_ptr()) };
    match affinity(tid) {
        Some(cpus) if rc == 0 && cpus == [cpu] => Ok(()),
        got => Err(format!("thread {tid}: pinning to CPU {cpu} left it on {got:?}")),
    }
}

/// Thread ids of this process, from `/proc/self/task`.
pub fn threads() -> Vec<i32> {
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else { return Vec::new() };
    dir.filter_map(|e| e.ok()?.file_name().to_str()?.parse().ok()).collect()
}
