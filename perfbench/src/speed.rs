//! Host speed: how fast this host runs a fixed kernel of the benchmark's
//! own right now, so that CPU timings can be divided by it.
//!
//! This VM's vCPUs change speed. Within half an hour the same `lookup`
//! set-up took 0.18 s and then 0.35 s of CPU, and the server's CPU per
//! request, a DPMHBP fit and a fixed sort kernel all slowed by about 2×
//! together; inside a slow spell the speed also swings by ±20% from one
//! second to the next. CPU clocks exclude the time the hypervisor steals
//! but count these slower cycles. So the benchmark times the kernel
//! beside every CPU figure (before and after each set-up cycle, and every
//! [`PROBE_EVERY`] through a measured phase on a [`Probe`] thread) and
//! divides the figure by the speed it read. The kernel runs only the
//! benchmark's code, so no change to the program can move it: a program
//! that does twice the work still reads twice the CPU.

use crate::rng::Rng;
use crate::sys::thread_cpu_ns;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Entries of the kernel's table: 128 KiB, small enough that sampling
/// through a measured phase adds nothing to its peak resident set.
const TABLE: usize = 1 << 14;
/// Fill-sort-fold passes per sample.
const PASSES: u64 = 16;
/// CPU time of one sample at the reference speed, about this 2-vCPU KVM
/// guest on a Xeon at its faster times.
const REF_NS: f64 = 3.6e6;
/// Interval between a probe's samples.
pub const PROBE_EVERY: Duration = Duration::from_millis(250);

/// One sample on the calling thread: [`PASSES`] times, fill a table from
/// a SplitMix64 stream, sort it and fold it through FNV. Returns the
/// speed (the kernel's CPU time over [`REF_NS`]: 2.0 means the host runs
/// it 2× slower than the reference) and the CPU nanoseconds it took.
pub fn sample() -> (f64, u64) {
    let mut table = vec![0u64; TABLE];
    // Fault the table in before timing, so whether the allocator hands
    // out fresh pages or reused ones cannot move the sample.
    table.fill(1);
    std::hint::black_box(&mut table);
    let t0 = thread_cpu_ns();
    let mut fold = 0xCBF2_9CE4_8422_2325u64;
    for pass in 0..PASSES {
        let mut rng = Rng::stream(0, 1000 + pass);
        table.iter_mut().for_each(|v| *v = rng.next_u64());
        table.sort_unstable();
        fold = table
            .iter()
            .fold(fold, |h, v| (h ^ v).wrapping_mul(0x0000_0100_0000_01B3));
    }
    std::hint::black_box(fold);
    let ns = thread_cpu_ns() - t0;
    (ns as f64 / REF_NS, ns)
}

/// The host speed right now.
pub fn host_speed() -> f64 {
    sample().0
}

/// Samples the host speed on a thread of its own while a measured phase
/// runs. Its CPU time, which the process CPU clock also counts, is kept
/// so the phase's figures can leave it out.
#[derive(Debug)]
pub struct Probe {
    stop: Arc<AtomicBool>,
    cpu_ns: Arc<AtomicU64>,
    thread: JoinHandle<Vec<f64>>,
}

impl Probe {
    /// Start sampling; the first sample comes one [`PROBE_EVERY`] later.
    pub fn start() -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let cpu_ns = Arc::new(AtomicU64::new(0));
        let thread = {
            let (stop, cpu_ns) = (Arc::clone(&stop), Arc::clone(&cpu_ns));
            std::thread::spawn(move || {
                let mut speeds = Vec::new();
                loop {
                    std::thread::park_timeout(PROBE_EVERY);
                    if stop.load(Ordering::Acquire) {
                        return speeds;
                    }
                    let (speed, ns) = sample();
                    speeds.push(speed);
                    cpu_ns.fetch_add(ns, Ordering::AcqRel);
                }
            })
        };
        Self {
            stop,
            cpu_ns,
            thread,
        }
    }

    /// CPU nanoseconds the probe's samples have taken so far.
    pub fn cpu_ns(&self) -> u64 {
        self.cpu_ns.load(Ordering::Acquire)
    }

    /// Stop sampling. Returns the mean speed over the phase (the mean, not
    /// the median: the program's CPU adds up over every part of the phase,
    /// slow and fast alike), the sample count, and the probe's CPU
    /// nanoseconds. A phase too short for a sample gets one at its end.
    pub fn finish(self) -> (f64, usize, u64) {
        self.stop.store(true, Ordering::Release);
        self.thread.thread().unpark();
        let mut speeds = self.thread.join().expect("speed probe panicked");
        let cpu_ns = self.cpu_ns.load(Ordering::Acquire);
        if speeds.is_empty() {
            speeds.push(host_speed());
        }
        let mean = speeds.iter().sum::<f64>() / speeds.len() as f64;
        (mean, speeds.len(), cpu_ns)
    }
}
