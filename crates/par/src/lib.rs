#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # tc-par — deterministic scoped parallelism
//!
//! The corner super-explosion (paper §2.3) makes signoff cost
//! multiplicative in scenarios, yet every scenario and Monte Carlo
//! sample is independent of its siblings. This crate is the
//! workspace's one way to exploit that: a std-only scoped thread pool
//! whose primitives are *deterministic by construction* —
//!
//! * work is claimed through an atomic cursor (cheap dynamic load
//!   balancing), but **results are merged in item-index order, never
//!   completion order**;
//! * the item → work mapping never depends on the worker count, so a
//!   run at `TC_PAR_THREADS=8` is bit-identical to `TC_PAR_THREADS=1`
//!   (the sequential reference path);
//! * worker panics propagate to the submitting thread after the scope
//!   joins.
//!
//! Observability: each pool scope tallies `par.tasks` (items executed)
//! and `par.steal_idle_ms` (summed worker idle time), and workers
//! inherit the submitting thread's open span path so `tc_obs` spans
//! opened inside tasks keep nesting under the caller's tree. When the
//! flight recorder is armed ([`tc_obs::enable_trace`]), every claimed
//! item emits a `par.task` begin/end pair into the per-thread trace
//! ring, so a Chrome-trace export shows exactly how work interleaved
//! across workers — at a cost of one relaxed atomic load when tracing
//! is off.
//!
//! # Examples
//!
//! ```
//! use tc_par::Pool;
//!
//! let xs = [1u64, 2, 3, 4];
//! let doubled = Pool::new(4).scope_map(&xs, |_, &x| x * 2);
//! assert_eq!(doubled, vec![2, 4, 6, 8]); // index order, always
//! ```

use std::num::NonZeroUsize;
use std::panic;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;
use std::time::{Duration, Instant};

/// Environment variable overriding the default worker count
/// ([`Pool::from_env`]). Unset or unparsable values fall back to
/// [`std::thread::available_parallelism`].
pub const THREADS_ENV: &str = "TC_PAR_THREADS";

/// A scoped thread pool configuration.
///
/// `Pool` is a plain value (no threads are kept alive between calls):
/// each [`scope_map`](Pool::scope_map) call spawns scoped workers,
/// drains the items, joins, and returns. This keeps the type `Copy`,
/// the borrows simple (workers may borrow the caller's stack), and the
/// determinism contract auditable: there is no hidden queue whose drain
/// order could leak into results.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Pool {
    workers: usize,
}

impl Pool {
    /// A pool with an explicit worker count (clamped to at least 1).
    /// Tests and benches use this to pin thread counts without touching
    /// the process environment.
    pub fn new(workers: usize) -> Self {
        Pool {
            workers: workers.max(1),
        }
    }

    /// The single-worker pool: every primitive runs inline on the
    /// calling thread — the sequential reference path parallel runs
    /// must be bit-identical to.
    pub fn sequential() -> Self {
        Pool::new(1)
    }

    /// Worker count from `TC_PAR_THREADS`, defaulting to the host's
    /// available parallelism.
    pub fn from_env() -> Self {
        let from_var = std::env::var(THREADS_ENV)
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n > 0);
        let workers = from_var.unwrap_or_else(|| {
            thread::available_parallelism()
                .map(NonZeroUsize::get)
                .unwrap_or(1)
        });
        Pool::new(workers)
    }

    /// The configured worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Maps `f` over `items` on the pool, returning results in item
    /// order: `out[i] == f(i, &items[i])` regardless of the worker
    /// count or claim interleaving.
    ///
    /// Items are claimed one at a time through an atomic cursor, so
    /// expensive items load-balance dynamically. With one effective
    /// worker (or one item) the map runs inline on the calling thread.
    ///
    /// # Panics
    ///
    /// Re-raises the first worker panic after all workers have joined.
    pub fn scope_map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let n = items.len();
        if self.workers.min(n) <= 1 {
            return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
        }
        let per_worker = self.run_workers(n, |cursor| {
            let mut local = Vec::new();
            loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let _task = tc_obs::trace_scope("par.task");
                local.push((i, f(i, &items[i])));
            }
            local
        });
        merge_indexed(n, per_worker)
    }

    /// Spawns `self.workers` scoped workers, each running `body` with
    /// the shared claim cursor, and returns their outputs (per worker,
    /// join order). Records the `par.tasks` / `par.steal_idle_ms`
    /// counters for the scope.
    fn run_workers<R, B>(&self, n: usize, body: B) -> Vec<R>
    where
        R: Send,
        B: Fn(&AtomicUsize) -> R + Sync,
    {
        let workers = self.workers.min(n);
        let cursor = AtomicUsize::new(0);
        let parent = tc_obs::current_span_path();
        let scope_start = Instant::now();
        let mut busy = Vec::with_capacity(workers);
        let outputs: Vec<R> = thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let cursor = &cursor;
                    let body = &body;
                    let parent = parent.as_deref();
                    spawn_worker(s, w, move || {
                        let _ctx = tc_obs::span_parent(parent);
                        let start = Instant::now();
                        let out = body(cursor);
                        (out, start.elapsed())
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    let (out, elapsed) = join_worker(h);
                    busy.push(elapsed);
                    out
                })
                .collect()
        });
        record_scope(n, workers, scope_start.elapsed(), &busy);
        outputs
    }
}

impl Default for Pool {
    fn default() -> Self {
        Pool::from_env()
    }
}

/// Spawns scoped worker `w` under the name `tc-par-<w>`, so flight-
/// recorder traces (and debuggers) show a stable lane per worker
/// instead of anonymous thread ids.
fn spawn_worker<'scope, 'env, R: Send + 'scope>(
    s: &'scope thread::Scope<'scope, 'env>,
    w: usize,
    body: impl FnOnce() -> R + Send + 'scope,
) -> thread::ScopedJoinHandle<'scope, R> {
    thread::Builder::new()
        .name(format!("tc-par-{w}"))
        .spawn_scoped(s, body)
        .expect("spawn tc-par worker")
}

/// Joins one worker, re-raising its panic on the calling thread.
fn join_worker<R>(handle: thread::ScopedJoinHandle<'_, R>) -> R {
    match handle.join() {
        Ok(r) => r,
        Err(payload) => panic::resume_unwind(payload),
    }
}

/// Flattens per-worker `(index, result)` batches into index order.
fn merge_indexed<R>(n: usize, per_worker: Vec<Vec<(usize, R)>>) -> Vec<R> {
    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    for batch in per_worker {
        for (i, r) in batch {
            debug_assert!(slots[i].is_none(), "index {i} produced twice");
            slots[i] = Some(r);
        }
    }
    slots
        .into_iter()
        .map(|s| s.expect("every index claimed exactly once"))
        .collect()
}

/// Tallies one pool scope: items executed and summed worker idle time
/// (scope wall clock minus each worker's busy time — the price of load
/// imbalance and spawn/join overhead).
fn record_scope(tasks: usize, workers: usize, wall: Duration, busy: &[Duration]) {
    tc_obs::counter("par.tasks").add(tasks as u64);
    let idle_ms: u64 = (0..workers)
        .map(|w| {
            wall.saturating_sub(busy.get(w).copied().unwrap_or_default())
                .as_millis() as u64
        })
        .sum();
    tc_obs::counter("par.steal_idle_ms").add(idle_ms);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn scope_map_returns_index_order_at_any_worker_count() {
        let items: Vec<u64> = (0..257).collect();
        let expect: Vec<u64> = items.iter().map(|&x| x * 3 + 1).collect();
        for workers in [1, 2, 3, 8, 64] {
            let got = Pool::new(workers).scope_map(&items, |_, &x| x * 3 + 1);
            assert_eq!(got, expect, "workers = {workers}");
        }
    }

    #[test]
    fn scope_map_passes_matching_indices() {
        let items = vec!["a", "b", "c", "d", "e"];
        let got = Pool::new(4).scope_map(&items, |i, &s| format!("{i}{s}"));
        assert_eq!(got, vec!["0a", "1b", "2c", "3d", "4e"]);
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let items: Vec<u32> = Vec::new();
        assert!(Pool::new(8).scope_map(&items, |_, &x| x).is_empty());
    }

    #[test]
    fn every_item_claimed_exactly_once_under_contention() {
        let counts: Vec<AtomicU64> = (0..500).map(|_| AtomicU64::new(0)).collect();
        Pool::new(8).scope_map(&counts, |_, c| {
            c.fetch_add(1, Ordering::Relaxed);
        });
        for c in &counts {
            assert_eq!(c.load(Ordering::Relaxed), 1);
        }
    }

    #[test]
    fn worker_panic_propagates() {
        let items: Vec<usize> = (0..64).collect();
        let result = panic::catch_unwind(|| {
            Pool::new(4).scope_map(&items, |i, _| {
                assert!(i != 17, "boom");
            });
        });
        assert!(result.is_err());
    }

    #[test]
    fn from_env_reads_the_knob() {
        // Only observe the variable; never set it (tests share the
        // process environment).
        let pool = Pool::from_env();
        match std::env::var(THREADS_ENV) {
            Ok(v) => {
                if let Ok(n) = v.trim().parse::<usize>() {
                    if n > 0 {
                        assert_eq!(pool.workers(), n);
                    }
                }
            }
            Err(_) => assert!(pool.workers() >= 1),
        }
    }

    #[test]
    fn pool_scopes_record_task_and_idle_counters() {
        tc_obs::enable();
        let before = tc_obs::snapshot().counter("par.tasks");
        let items: Vec<u32> = (0..100).collect();
        Pool::new(4).scope_map(&items, |_, &x| x + 1);
        let after = tc_obs::snapshot().counter("par.tasks");
        assert!(after >= before + 100, "before {before} after {after}");
    }

    #[test]
    fn workers_inherit_the_submitters_span_path() {
        tc_obs::enable();
        let items: Vec<u32> = (0..32).collect();
        {
            let _outer = tc_obs::span("t_par.outer");
            Pool::new(4).scope_map(&items, |_, _| {
                let _inner = tc_obs::span("t_par.task");
            });
        }
        let snap = tc_obs::snapshot();
        let nested = snap.span("t_par.outer/t_par.task").expect("nested path");
        assert_eq!(nested.count, 32);
        assert!(snap.span("t_par.task").is_none(), "no orphan root span");
    }
}
