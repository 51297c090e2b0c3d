//! Host access: timer slack, nanosecond `ppoll`, CPU clocks, and the
//! `/proc` counters the noise record and memory metric read.
//!
//! std already links libc, so `extern "C"` declarations of the few calls
//! needed resolve at link time with no new dependency (the serve crate's
//! `sys.rs` does the same). Linux only, like the servers it measures.

use std::io;
use std::os::raw::{c_int, c_long, c_ulong};

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

/// `struct pollfd`.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct PollFd {
    /// The descriptor.
    pub fd: c_int,
    /// Requested events.
    pub events: i16,
    /// Returned events.
    pub revents: i16,
}

/// Readable.
pub const POLLIN: i16 = 0x1;
/// Writable.
pub const POLLOUT: i16 = 0x4;
/// Error.
pub const POLLERR: i16 = 0x8;
/// Hung up.
pub const POLLHUP: i16 = 0x10;

const PR_SET_TIMERSLACK: c_int = 29;
const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
const CLOCK_THREAD_CPUTIME_ID: c_int = 3;
const RUSAGE_SELF: c_int = 0;
/// `struct rusage` is two `timeval`s and fourteen `long`s; `ru_nivcsw` is
/// the last word.
const RUSAGE_WORDS: usize = 18;

extern "C" {
    fn prctl(option: c_int, ...) -> c_int;
    fn ppoll(
        fds: *mut PollFd,
        nfds: c_ulong,
        timeout: *const Timespec,
        sigmask: *const std::ffi::c_void,
    ) -> c_int;
    fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
    fn getrusage(who: c_int, usage: *mut c_long) -> c_int;
}

/// Set the calling thread's timer slack, so timed waits wake within
/// `ns` of their deadline instead of the default 50 µs.
pub fn set_timer_slack_ns(ns: u64) -> io::Result<()> {
    // SAFETY: PR_SET_TIMERSLACK takes one unsigned long by value and
    // touches no memory of ours.
    let rc = unsafe { prctl(PR_SET_TIMERSLACK, ns as c_ulong) };
    if rc == 0 {
        Ok(())
    } else {
        Err(io::Error::last_os_error())
    }
}

/// Wait until a descriptor in `fds` is ready or `timeout_ns` passes
/// (`None` waits indefinitely). Returns the number of ready descriptors;
/// an interrupted wait returns 0.
pub fn poll_ns(fds: &mut [PollFd], timeout_ns: Option<u64>) -> io::Result<usize> {
    let ts = timeout_ns.map(|ns| Timespec {
        tv_sec: (ns / 1_000_000_000) as c_long,
        tv_nsec: (ns % 1_000_000_000) as c_long,
    });
    let ts_ptr = ts
        .as_ref()
        .map_or(std::ptr::null(), |t| t as *const Timespec);
    // SAFETY: `fds` is a live, exclusively borrowed array of `fds.len()`
    // pollfd structs; `ts_ptr` is null or points at `ts`, which outlives
    // the call; a null sigmask leaves the signal mask unchanged.
    let rc = unsafe {
        ppoll(
            fds.as_mut_ptr(),
            fds.len() as c_ulong,
            ts_ptr,
            std::ptr::null(),
        )
    };
    if rc >= 0 {
        return Ok(rc as usize);
    }
    let err = io::Error::last_os_error();
    if err.kind() == io::ErrorKind::Interrupted {
        Ok(0)
    } else {
        Err(err)
    }
}

fn clock_ns(clock: c_int) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the call's duration.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "CPU-time clocks exist on every supported Linux");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU time consumed by the calling thread.
pub fn thread_cpu_ns() -> u64 {
    clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

/// CPU time consumed by every thread of this process.
pub fn process_cpu_ns() -> u64 {
    clock_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// Nonvoluntary context switches summed over every thread of this
/// process (preemptions: the scheduler took the CPU away).
pub fn nonvoluntary_switches() -> u64 {
    let mut usage = [0 as c_long; RUSAGE_WORDS];
    // SAFETY: `usage` is a writable buffer of exactly sizeof(struct rusage)
    // on 64-bit Linux.
    let rc = unsafe { getrusage(RUSAGE_SELF, usage.as_mut_ptr()) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
    usage[RUSAGE_WORDS - 1] as u64
}

/// Aggregate CPU ticks from `/proc/stat`: `(steal, total)`.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let line = stat.lines().next().unwrap_or("");
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|f| f.parse().ok())
        .collect();
    let steal = fields.get(7).copied().unwrap_or(0);
    (steal, fields.iter().sum())
}

/// A field of `/proc/self/status` in its native unit (kB for memory).
fn status_field(name: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(name))
        .and_then(|rest| rest.trim_start_matches(':').split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

/// Peak resident set size (`VmHWM`) in MiB since start or the last
/// [`reset_peak_rss`].
pub fn peak_rss_mb() -> f64 {
    status_field("VmHWM").unwrap_or(0) as f64 / 1024.0
}

/// Current resident set size (`VmRSS`) in MiB.
pub fn rss_mb() -> f64 {
    status_field("VmRSS").unwrap_or(0) as f64 / 1024.0
}

/// Reset `VmHWM` to the current RSS (writing `5` to `clear_refs`), so a
/// later [`peak_rss_mb`] covers only what follows.
pub fn reset_peak_rss() -> io::Result<()> {
    std::fs::write("/proc/self/clear_refs", b"5")
}

/// Return freed heap memory to the OS (glibc's `malloc_trim`), so the
/// resident set after dropping the harness's set-up buffers holds only
/// live data.
pub fn trim_heap() {
    #[cfg(target_env = "gnu")]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> c_int;
        }
        // SAFETY: malloc_trim only walks and shrinks the allocator's own
        // free lists; it never touches live allocations.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// Online CPUs.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Host noise over an interval: steal share of all CPU ticks and this
/// process's nonvoluntary context switches.
#[derive(Debug, Clone, Copy)]
pub struct HostNoise {
    steal: u64,
    total: u64,
    switches: u64,
}

impl HostNoise {
    /// Start an interval.
    pub fn start() -> Self {
        let (steal, total) = cpu_ticks();
        Self {
            steal,
            total,
            switches: nonvoluntary_switches(),
        }
    }

    /// `(steal_pct, nonvoluntary_switches)` since [`HostNoise::start`].
    pub fn finish(&self) -> (f64, u64) {
        let (steal, total) = cpu_ticks();
        let dt = total.saturating_sub(self.total).max(1);
        (
            100.0 * steal.saturating_sub(self.steal) as f64 / dt as f64,
            nonvoluntary_switches().saturating_sub(self.switches),
        )
    }
}
