//! The one scoped worker pool.
//!
//! Both parallel layers of the reproduction — the experiment battery
//! (`run_all --jobs N`) and the fleet engine's Phase B span arena
//! (`run_with_jobs(N)`) — hand out the indices `0..n` to workers and
//! fold each result on the calling thread as it lands. Callers keep
//! their output independent of the worker count by making `work(i)` a
//! pure function of `i` and the fold either order-free (a sum of
//! integers) or order-restoring (a battery-order prefix flush).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// Run `work(i)` for every `i in 0..n` on up to `workers` scoped
/// threads, calling `land(i, result)` on the calling thread once per
/// index, in completion order.
///
/// With `workers <= 1` (or at most one index) everything runs inline on
/// the calling thread in index order: no thread is spawned, so a serial
/// caller pays for no thread stack and no second allocator arena.
///
/// # Panics
///
/// Propagates a panic from `work` once every worker has stopped.
pub fn run<T: Send>(
    n: usize,
    workers: usize,
    work: impl Fn(usize) -> T + Sync,
    mut land: impl FnMut(usize, T),
) {
    let workers = workers.min(n);
    if workers <= 1 {
        for i in 0..n {
            land(i, work(i));
        }
        return;
    }
    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, T)>();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let tx = tx.clone();
            let (next, work) = (&next, &work);
            scope.spawn(move || loop {
                // Relaxed: the cursor publishes no data; each result
                // reaches the caller through the channel.
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n || tx.send((i, work(i))).is_err() {
                    break;
                }
            });
        }
        drop(tx);
        for (i, result) in rx {
            land(i, result);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_index_lands_exactly_once() {
        for n in [0, 1, 7] {
            for workers in [1, 2, 4, 16] {
                let mut landed = vec![0u32; n];
                run(
                    n,
                    workers,
                    |i| i * 10,
                    |i, v| {
                        assert_eq!(v, i * 10, "n={n} workers={workers}");
                        landed[i] += 1;
                    },
                );
                assert!(
                    landed.iter().all(|&k| k == 1),
                    "n={n} workers={workers}: {landed:?}"
                );
            }
        }
    }

    #[test]
    fn one_worker_runs_inline_in_index_order() {
        let caller = std::thread::current().id();
        let mut order = Vec::new();
        run(
            5,
            1,
            |i| (i, std::thread::current().id()),
            |i, (v, id)| {
                assert_eq!(id, caller, "work ran off the calling thread");
                order.push((i, v));
            },
        );
        assert_eq!(order, [(0, 0), (1, 1), (2, 2), (3, 3), (4, 4)]);
    }

    #[test]
    #[should_panic]
    fn worker_panics_propagate() {
        run(4, 2, |i| assert!(i != 2, "boom"), |_, ()| {});
    }
}
