//! Minimal deterministic task pool.
//!
//! The build environment is offline, so there is no rayon; this crate
//! hand-rolls the one primitive the workspace needs: run `n` independent
//! tasks indexed `0..n` and collect their results **in index order**,
//! spreading the work over a fixed number of OS threads.
//!
//! # Determinism contract
//!
//! The pool never makes scheduling visible to the tasks. Work is split into
//! static contiguous chunks (no work stealing, no shared queues), each task
//! sees only its index, and results land in a pre-allocated slot vector, so
//! for any **pure** task function the output `Vec` is byte-identical at any
//! thread count. Randomised callers keep the guarantee by deriving a
//! per-index seed (`pipefail_stats::rng::derive_seed`) from a master seed —
//! never by sharing an RNG across tasks.
//!
//! Thread count comes from `TaskPool::new` or the `PIPEFAIL_THREADS`
//! environment variable (`from_env`); `0`/unset/unparsable means "use the
//! machine's available parallelism". `threads == 1` short-circuits to a
//! plain serial loop on the calling thread, which is also the fallback if
//! thread spawning is unavailable.

use std::num::NonZeroUsize;

/// A fixed-width pool that fans indexed tasks over scoped threads.
///
/// Cheap to construct (no threads live between calls — each [`run`] spawns
/// scoped workers and joins them before returning), so callers can freely
/// create one per call site or thread a copy through configuration structs.
///
/// [`run`]: TaskPool::run
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskPool {
    threads: usize,
}

/// Environment variable read by [`TaskPool::from_env`].
pub const THREADS_ENV: &str = "PIPEFAIL_THREADS";

fn available() -> usize {
    std::thread::available_parallelism().map_or(1, NonZeroUsize::get)
}

impl Default for TaskPool {
    /// Auto-sized pool (`available_parallelism`).
    fn default() -> Self {
        Self::new(0)
    }
}

impl TaskPool {
    /// Pool with exactly `threads` workers; `0` means auto
    /// (`available_parallelism`, min 1).
    pub fn new(threads: usize) -> Self {
        let threads = if threads == 0 { available() } else { threads };
        Self { threads }
    }

    /// Serial pool: every task runs on the calling thread, in index order.
    pub fn serial() -> Self {
        Self { threads: 1 }
    }

    /// Pool sized from `PIPEFAIL_THREADS`. Unset, empty, `0`, or unparsable
    /// values mean auto; anything else is the exact worker count.
    pub fn from_env() -> Self {
        let threads = std::env::var(THREADS_ENV)
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .unwrap_or(0);
        Self::new(threads)
    }

    /// The worker count this pool fans out to.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Run `task(i)` for every `i in 0..n` and return the results in index
    /// order. `task` must be pure in `i` for the determinism contract to
    /// hold (same inputs → same output regardless of thread count).
    ///
    /// Panics in a task are propagated to the caller after all workers have
    /// been joined (scoped threads re-raise the first worker panic).
    pub fn run<T, F>(&self, n: usize, task: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let workers = self.threads.min(n.max(1));
        if workers <= 1 || n <= 1 {
            return (0..n).map(task).collect();
        }

        let mut slots: Vec<Option<T>> = Vec::with_capacity(n);
        slots.resize_with(n, || None);
        // Static contiguous partitioning: worker t owns slots
        // [t*chunk, (t+1)*chunk). No queue, no stealing — the assignment of
        // index to worker is a pure function of (n, workers), and the output
        // position is a pure function of the index alone.
        let chunk = n.div_ceil(workers);
        let task = &task;
        std::thread::scope(|scope| {
            for (t, slot_chunk) in slots.chunks_mut(chunk).enumerate() {
                scope.spawn(move || {
                    for (i, slot) in slot_chunk.iter_mut().enumerate() {
                        *slot = Some(task(t * chunk + i));
                    }
                });
            }
        });
        slots
            .into_iter()
            .map(|s| s.expect("scope joined: every slot filled"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn serial_matches_map() {
        let pool = TaskPool::serial();
        let got = pool.run(10, |i| i * i);
        let want: Vec<usize> = (0..10).map(|i| i * i).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn results_identical_across_thread_counts() {
        // A "work"-like task: value depends only on the index.
        let f = |i: usize| {
            let mut acc = i as u64;
            for k in 0..100 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k);
            }
            acc
        };
        let baseline = TaskPool::new(1).run(97, f);
        for threads in [2, 3, 4, 7, 16] {
            assert_eq!(
                TaskPool::new(threads).run(97, f),
                baseline,
                "thread count {threads} changed results"
            );
        }
    }

    #[test]
    fn every_index_runs_exactly_once() {
        let hits = AtomicUsize::new(0);
        let out = TaskPool::new(4).run(33, |i| {
            hits.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(hits.load(Ordering::Relaxed), 33);
        assert_eq!(out, (0..33).collect::<Vec<_>>());
    }

    #[test]
    fn zero_and_tiny_n() {
        let pool = TaskPool::new(8);
        assert_eq!(pool.run(0, |i| i), Vec::<usize>::new());
        assert_eq!(pool.run(1, |i| i + 41), vec![41]);
        // More workers than tasks must not spawn empty chunks that panic.
        assert_eq!(pool.run(3, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn auto_sizing_is_at_least_one() {
        assert!(TaskPool::new(0).threads() >= 1);
        assert!(TaskPool::default().threads() >= 1);
    }

    #[test]
    fn task_panic_propagates() {
        let caught = std::panic::catch_unwind(|| {
            TaskPool::new(4).run(8, |i| {
                assert_ne!(i, 5, "boom");
                i
            })
        });
        assert!(caught.is_err());
    }

    #[test]
    fn from_env_parses_thread_count() {
        // Env mutation: run the combinations in one test to avoid races
        // between parallel test threads over the same variable.
        let old = std::env::var(THREADS_ENV).ok();
        std::env::set_var(THREADS_ENV, "3");
        assert_eq!(TaskPool::from_env().threads(), 3);
        std::env::set_var(THREADS_ENV, "0");
        assert!(TaskPool::from_env().threads() >= 1);
        std::env::set_var(THREADS_ENV, "not-a-number");
        assert!(TaskPool::from_env().threads() >= 1);
        std::env::remove_var(THREADS_ENV);
        assert!(TaskPool::from_env().threads() >= 1);
        if let Some(v) = old {
            std::env::set_var(THREADS_ENV, v);
        }
    }
}
