//! Fork-join executor for particle-parallel work (paper Fig. 6).
//!
//! The paper's cloud acceleration spins up a thread pool of `N`
//! threads and hands each a slice of `M/N` particles. We implement the
//! same fork-join structure with `std::thread::scope`: safe borrowing
//! of the particle array, disjoint `&mut` chunks, no `'static` bounds.
//!
//! **The caller participates.** A run at degree `N` spawns `N − 1`
//! scoped workers and the calling thread works alongside them, so a
//! 2-thread run keeps two cores busy rather than one core busy and
//! one waiting. Degree 1 runs inline and pays no dispatch cost
//! (mirroring the platform timing model in `lgv-sim`).
//!
//! **Chunks are claimed dynamically.** The items are cut into up to
//! 16 chunks per thread of the requested degree (one item per chunk
//! below that; degree 1 is one chunk); every participant claims the
//! next unclaimed chunk from one shared queue until none remain. A
//! participant that drew cheap items claims more of them, so one slow
//! particle no longer idles the rest of a static half. The caller
//! always claims chunk 0 first. Chunk boundaries depend only on the
//! item count and the requested degree, never on which participant
//! ran a chunk or on the host, and results come back one per chunk,
//! in chunk order.
//!
//! **Reductions stay exact.** Which participant runs which chunk is
//! up to the OS scheduler, but a chunk's items, and so its result, are
//! not. Callers fold the per-chunk results in chunk order, and the
//! ones in this workspace fold with order-free operations: sums of
//! integers, or of integer multiples of a cycle constant far below
//! 2⁵³, and maxima. So their outputs are also the same at every
//! degree, which the SLAM and DWA golden tests pin.
//!
//! **Host threads.** [`host_parallelism`] is the host's
//! `available_parallelism`, read once per process. Callers that map a
//! modelled thread count onto host threads cap it there, so a 12-thread
//! cloud tier modelled on a 2-core host spawns one worker, not eleven.
//!
//! The executor is also the profiler's fork-join seam: when wall-clock
//! profiling is collecting (`lgv_trace::prof`), the caller's chunks
//! record under its current scope directly, and each worker's scope
//! tree is harvested once, after its last chunk, and grafted under the
//! same scope in worker order. Parallel kernels are thus attributed to
//! the call path that forked them. The caller's wait for the workers
//! at the join is the `pool/wait` scope, present only when a worker
//! was spawned: its self time is the imbalance of the run.

use lgv_trace::prof;
use std::sync::{Mutex, OnceLock};

/// Chunks cut per thread of the requested degree (at most one item
/// per chunk below that). Enough that dynamic claiming evens out
/// uneven items, few enough that a claim stays a small fraction of a
/// chunk's work.
const CHUNKS_PER_THREAD: usize = 16;

/// The host's parallelism (`std::thread::available_parallelism`, or 1
/// when it cannot be read), read once per process.
pub fn host_parallelism() -> usize {
    static HOST: OnceLock<usize> = OnceLock::new();
    *HOST.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// A fork-join executor with a fixed parallelism degree.
#[derive(Debug, Clone)]
pub struct ParallelExecutor {
    threads: usize,
}

impl ParallelExecutor {
    /// Executor of degree `threads` (≥ 1): the caller plus
    /// `threads − 1` workers.
    pub fn new(threads: usize) -> Self {
        ParallelExecutor {
            threads: threads.max(1),
        }
    }

    /// Configured parallelism degree.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Items per chunk when [`run_chunks`](Self::run_chunks) splits
    /// `len` items: all of them at degree 1, else `len` cut into at
    /// most [`CHUNKS_PER_THREAD`] × degree chunks. Every chunk but the
    /// last has exactly this length.
    fn chunk_len(&self, len: usize) -> usize {
        if self.threads == 1 {
            len.max(1)
        } else {
            len.div_ceil(self.threads * CHUNKS_PER_THREAD).max(1)
        }
    }

    /// Apply `f` to every chunk of `items` (see the
    /// [module docs](self)), the chunks shared out
    /// dynamically between the caller and the workers. Returns one
    /// result per chunk (e.g. per-chunk work tallies) in chunk order.
    ///
    /// A panic in any participant re-panics here once every
    /// participant has stopped.
    pub fn run_chunks<T, R, F>(&self, items: &mut [T], f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(&mut [T]) -> R + Sync,
    {
        let len = self.chunk_len(items.len());
        let count = items.len().div_ceil(len);
        let workers = self.threads.min(count).saturating_sub(1);
        if workers == 0 {
            return items.chunks_mut(len).map(f).collect();
        }

        // The unclaimed chunks, in order: a claim takes the next one.
        let queue = Mutex::new(items.chunks_mut(len).enumerate());
        let claim = || queue.lock().expect("a claim cannot panic").next();
        // Run `first`, then keep claiming until no chunk is left;
        // returns (chunk index, result) pairs.
        let drain = |first| {
            let mut done = Vec::new();
            let mut next = first;
            while let Some((i, chunk)) = next {
                done.push((i, f(chunk)));
                next = claim();
            }
            done
        };

        let first = claim();
        let mut shares = Vec::with_capacity(workers + 1);
        let mut trees = Vec::with_capacity(workers);
        let mut panic = None;
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| scope.spawn(|| (drain(claim()), prof::take_thread())))
                .collect();
            // A panic in the caller's share unwinds out of this
            // closure; the scope joins every worker before passing it on.
            shares.push(drain(first));
            let _wait = prof::scope("pool/wait");
            for handle in handles {
                match handle.join() {
                    Ok((share, tree)) => {
                        shares.push(share);
                        trees.push(tree);
                    }
                    Err(payload) => {
                        panic.get_or_insert(payload);
                    }
                }
            }
        });
        if let Some(payload) = panic {
            std::panic::resume_unwind(payload);
        }
        // Graft each worker's profile once, in worker order, under the
        // caller's current scope (no-op for empty trees).
        for tree in &trees {
            prof::absorb(tree);
        }

        let mut results: Vec<(usize, R)> = shares.into_iter().flatten().collect();
        results.sort_unstable_by_key(|&(i, _)| i);
        results.into_iter().map(|(_, r)| r).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::Duration;

    #[test]
    fn single_thread_runs_inline() {
        let ex = ParallelExecutor::new(1);
        let mut v = vec![1, 2, 3];
        let caller = std::thread::current().id();
        let r = ex.run_chunks(&mut v, |c| {
            assert_eq!(std::thread::current().id(), caller);
            c.iter().sum::<i32>()
        });
        assert_eq!(r, vec![6]);
    }

    #[test]
    fn chunks_cover_all_items_once() {
        let ex = ParallelExecutor::new(4);
        let mut v: Vec<u64> = (0..1000).collect();
        let partials = ex.run_chunks(&mut v, |c| c.iter().sum::<u64>());
        assert_eq!(partials.iter().sum::<u64>(), 1000 * 999 / 2);
        // 1000 items at degree 4: at most 64 chunks, so chunks of 16.
        assert_eq!(ex.chunk_len(1000), 16);
        assert_eq!(partials.len(), 1000usize.div_ceil(16));
    }

    #[test]
    fn chunk_boundaries_depend_only_on_count_and_degree() {
        // Degrees above the host's parallelism cut the same chunks as
        // the rule says, run after run, and the results come back in
        // chunk order even when a slow chunk 0 finishes last.
        for threads in [1, 2, 3, host_parallelism() + 5] {
            let ex = ParallelExecutor::new(threads);
            for n in [1usize, 7, 30, 990] {
                let expected: Vec<(usize, usize)> = (0..n)
                    .step_by(ex.chunk_len(n))
                    .map(|s| (s, ex.chunk_len(n).min(n - s)))
                    .collect();
                for _ in 0..3 {
                    let mut v: Vec<usize> = (0..n).collect();
                    let got = ex.run_chunks(&mut v, |c| {
                        if c[0] == 0 {
                            std::thread::sleep(Duration::from_millis(2));
                        }
                        (c[0], c.len())
                    });
                    assert_eq!(got, expected, "threads {threads}, n {n}");
                }
            }
        }
        // One item per chunk for SLAM's 30 particles at degree 2.
        assert_eq!(ParallelExecutor::new(2).chunk_len(30), 1);
    }

    #[test]
    fn mutations_are_applied_to_every_item_once() {
        for threads in [1, 2, 3, 8] {
            let ex = ParallelExecutor::new(threads);
            let mut v: Vec<u32> = vec![0; 517];
            ex.run_chunks(&mut v, |c| {
                for x in c.iter_mut() {
                    *x += 1;
                }
            });
            assert!(v.iter().all(|&x| x == 1), "threads {threads}");
        }
    }

    /// Per-item results of `f`, concatenated in chunk order.
    fn map<T: Send, R: Send>(
        ex: &ParallelExecutor,
        items: &mut [T],
        f: impl Fn(&T) -> R + Sync,
    ) -> Vec<R> {
        ex.run_chunks(items, |c| c.iter().map(&f).collect::<Vec<R>>())
            .into_iter()
            .flatten()
            .collect()
    }

    #[test]
    fn map_preserves_order() {
        let ex = ParallelExecutor::new(4);
        let mut v: Vec<u32> = (0..57).collect();
        let out = map(&ex, &mut v, |x| *x * 10);
        assert_eq!(out, (0..57).map(|x| x * 10).collect::<Vec<_>>());
    }

    #[test]
    fn more_threads_than_items_is_fine() {
        let ex = ParallelExecutor::new(16);
        let mut v = vec![5u8, 6];
        let r = map(&ex, &mut v, |x| *x + 1);
        assert_eq!(r, vec![6, 7]);
        let mut one = vec![9u8];
        assert_eq!(ex.run_chunks(&mut one, |c| c.len()), vec![1]);
    }

    /// Two one-item chunks at degree 2: the caller runs chunk 0 and
    /// holds it until chunk 1 has started, so a worker runs chunk 1.
    /// `on_caller`/`on_worker` run at the end of each share; returns
    /// whether the run panicked.
    fn two_participants(on_caller: impl Fn() + Sync, on_worker: impl Fn() + Sync) -> bool {
        let started = AtomicBool::new(false);
        let ex = ParallelExecutor::new(2);
        let mut v = [0u8, 1];
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            ex.run_chunks(&mut v, |c| {
                if c[0] == 0 {
                    while !started.load(Ordering::SeqCst) {
                        std::thread::yield_now();
                    }
                    on_caller();
                } else {
                    started.store(true, Ordering::SeqCst);
                    on_worker();
                }
            })
        }))
        .is_err()
    }

    #[test]
    fn caller_panic_waits_for_every_worker() {
        let worker_done = AtomicBool::new(false);
        let panicked = two_participants(
            || panic!("caller's share fails"),
            || {
                std::thread::sleep(Duration::from_millis(50));
                worker_done.store(true, Ordering::SeqCst);
            },
        );
        assert!(panicked);
        assert!(worker_done.load(Ordering::SeqCst), "re-panicked early");
    }

    #[test]
    fn worker_panic_waits_for_the_caller() {
        let caller_done = AtomicBool::new(false);
        let panicked = two_participants(
            || {
                std::thread::sleep(Duration::from_millis(50));
                caller_done.store(true, Ordering::SeqCst);
            },
            || panic!("worker's share fails"),
        );
        assert!(panicked);
        assert!(caller_done.load(Ordering::SeqCst), "re-panicked early");
    }

    #[test]
    fn empty_input_is_noop() {
        let ex = ParallelExecutor::new(4);
        let mut v: Vec<u8> = vec![];
        let r = ex.run_chunks(&mut v, |c| c.len());
        assert!(r.is_empty());
    }

    #[test]
    fn worker_profiles_merge_under_caller_scope() {
        // Only meaningful when the profiler is compiled in (workspace
        // builds get it via lgv-bench's default features).
        if !prof::is_available() {
            return;
        }
        let _ = prof::take_thread();
        prof::set_enabled(true);
        let ex = ParallelExecutor::new(4);
        let mut v: Vec<u64> = (0..64).collect();
        {
            let _job = prof::scope("job");
            ex.run_chunks(&mut v, |c| {
                let _k = prof::scope("kernel");
                c.iter().sum::<u64>()
            });
        }
        prof::set_enabled(false);
        let tree = prof::take_thread();
        // Expect job -> kernel with one kernel visit per chunk,
        // regardless of which participant ran which chunk, and the
        // caller's wait at the join beside it.
        let job = tree.children_sorted(0)[0];
        assert_eq!(tree.nodes()[job].name, "job");
        let named = |name: &str| {
            tree.nodes()[job]
                .children
                .iter()
                .copied()
                .find(|&c| tree.nodes()[c].name == name)
                .unwrap_or_else(|| panic!("no {name} under job"))
        };
        let kernel = named("kernel");
        assert_eq!(tree.path(kernel), "job;kernel");
        assert_eq!(tree.nodes()[kernel].count, 64, "one visit per chunk");
        assert_eq!(tree.nodes()[named("pool/wait")].count, 1);
    }

    #[test]
    fn parallel_equals_serial_result() {
        let serial = ParallelExecutor::new(1);
        let parallel = ParallelExecutor::new(8);
        let mut a: Vec<f64> = (0..500).map(|i| i as f64 * 0.1).collect();
        let mut b = a.clone();
        let ra = map(&serial, &mut a, |x| x.sin());
        let rb = map(&parallel, &mut b, |x| x.sin());
        assert_eq!(ra, rb);
    }

    #[test]
    fn a_zero_degree_executor_runs_on_one_thread() {
        let pool = ParallelExecutor::new(0);
        assert_eq!(pool.threads(), 1);
        assert!(host_parallelism() >= 1);
        let mut items = vec![1u32, 2, 3];
        let out = pool.run_chunks(&mut items, |chunk| chunk.iter().sum::<u32>());
        assert_eq!(out, vec![6]);
    }
}
