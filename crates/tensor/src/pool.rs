//! A persistent compute pool for data-parallel kernels.
//!
//! The original hot path spawned fresh scoped threads for every large
//! matmul; thread creation costs tens of microseconds — the very launch
//! overhead the paper's batching argument (§2.2, Figure 3) says must not
//! dominate a cell step. This pool keeps a fixed set of worker threads
//! parked on channels instead, so handing a kernel to the pool costs one
//! channel send per worker plus an atomic per chunk.
//!
//! The design is deliberately work-stealing-free: a job is a closure over
//! `chunks` independent index ranges, workers (and the calling thread,
//! which always participates) claim chunk indices from a shared atomic
//! counter until none remain. Chunk claiming is dynamic but the *result*
//! is deterministic — chunks write disjoint outputs, so scheduling order
//! cannot affect a single bit of the output (see the pool determinism
//! tests in `tests/proptests.rs`).
//!
//! One process-wide pool is shared via [`ComputePool::global`]
//! (`OnceLock`), sized to the machine; explicit [`ComputePool::new`]
//! instances exist for tests that compare 1-thread vs N-thread execution.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

/// One parallel job: a lifetime-erased chunk closure plus completion
/// tracking. Workers claim chunk indices from `next` until exhausted.
struct Job {
    /// Pointer to the caller's closure. Only dereferenced for claimed
    /// in-range chunks, all of which finish before [`ComputePool::run`]
    /// returns — so the pointee outlives every dereference.
    work: *const (dyn Fn(usize) + Sync),
    next: AtomicUsize,
    chunks: usize,
    /// Chunks not yet finished; guarded so the caller can sleep on `done`.
    remaining: Mutex<usize>,
    done: Condvar,
}

// SAFETY: `work` points at a `Sync` closure that the submitting thread
// keeps alive until every chunk has executed (enforced by the blocking
// wait in `ComputePool::run`); all other fields are Sync.
unsafe impl Send for Job {}
// SAFETY: as for `Send`: the closure behind `work` is `Sync`, and the
// remaining fields are atomics and a mutex-guarded count.
unsafe impl Sync for Job {}

impl Job {
    /// Claims and runs chunks until none remain, signalling completion.
    fn work_until_drained(&self) {
        // SAFETY: see the struct-level invariant on `work`.
        let work = unsafe { &*self.work };
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.chunks {
                return;
            }
            work(i);
            let mut rem = self.remaining.lock().expect("pool lock poisoned");
            *rem -= 1;
            if *rem == 0 {
                self.done.notify_all();
            }
        }
    }
}

/// A fixed set of persistent worker threads executing chunked jobs.
///
/// A pool of `n` threads spawns `n - 1` workers; the thread calling
/// [`ComputePool::run`] is always the `n`-th participant, so a 1-thread
/// pool is purely serial and spawns nothing.
pub struct ComputePool {
    senders: Vec<Sender<Arc<Job>>>,
    handles: Vec<JoinHandle<()>>,
}

impl ComputePool {
    /// Creates a pool with `threads` participants (≥ 1).
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn new(threads: usize) -> Self {
        assert!(threads >= 1, "a compute pool needs at least one thread");
        let mut senders = Vec::with_capacity(threads - 1);
        let mut handles = Vec::with_capacity(threads - 1);
        for i in 0..threads - 1 {
            let (tx, rx) = channel::<Arc<Job>>();
            senders.push(tx);
            let handle = std::thread::Builder::new()
                .name(format!("bm-compute-{i}"))
                .spawn(move || {
                    while let Ok(job) = rx.recv() {
                        job.work_until_drained();
                    }
                })
                .expect("spawn compute worker");
            handles.push(handle);
        }
        ComputePool { senders, handles }
    }

    /// Number of threads that participate in a job (workers + caller).
    pub fn threads(&self) -> usize {
        self.senders.len() + 1
    }

    /// The process-wide shared pool, created on first use and sized to
    /// the machine (capped at 16 threads, like the old scoped-thread
    /// path).
    pub fn global() -> &'static ComputePool {
        static POOL: OnceLock<ComputePool> = OnceLock::new();
        POOL.get_or_init(|| {
            let n = std::thread::available_parallelism()
                .map(|c| c.get())
                .unwrap_or(1)
                .min(16);
            ComputePool::new(n)
        })
    }

    /// Runs `work(0..chunks)` across the pool, blocking until every chunk
    /// has finished. Chunks must write disjoint data; under that
    /// contract results are bitwise independent of scheduling.
    pub fn run(&self, chunks: usize, work: &(dyn Fn(usize) + Sync)) {
        if chunks == 0 {
            return;
        }
        if self.senders.is_empty() || chunks == 1 {
            for i in 0..chunks {
                work(i);
            }
            return;
        }
        // SAFETY: the job (and thus the erased pointer) is only
        // dereferenced before `remaining` hits zero, and this function
        // does not return until it does — `work` outlives all uses.
        let work: *const (dyn Fn(usize) + Sync) =
            unsafe { std::mem::transmute::<&(dyn Fn(usize) + Sync), _>(work) };
        let job = Arc::new(Job {
            work,
            next: AtomicUsize::new(0),
            chunks,
            remaining: Mutex::new(chunks),
            done: Condvar::new(),
        });
        // Wake only as many workers as there are chunks beyond the caller.
        for tx in self.senders.iter().take(chunks - 1) {
            let _ = tx.send(Arc::clone(&job));
        }
        job.work_until_drained();
        let mut rem = job.remaining.lock().expect("pool lock poisoned");
        while *rem > 0 {
            rem = job.done.wait(rem).expect("pool lock poisoned");
        }
    }
}

impl Drop for ComputePool {
    fn drop(&mut self) {
        // Closing the channels makes workers exit their recv loops.
        self.senders.clear();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl std::fmt::Debug for ComputePool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ComputePool")
            .field("threads", &self.threads())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn serial_pool_runs_all_chunks_inline() {
        let pool = ComputePool::new(1);
        assert_eq!(pool.threads(), 1);
        let hits = AtomicU64::new(0);
        pool.run(7, &|i| {
            hits.fetch_add(1 << i, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 0b111_1111);
    }

    #[test]
    fn parallel_pool_runs_each_chunk_exactly_once() {
        let pool = ComputePool::new(4);
        assert_eq!(pool.threads(), 4);
        let counts: Vec<AtomicU64> = (0..64).map(|_| AtomicU64::new(0)).collect();
        for _ in 0..50 {
            pool.run(64, &|i| {
                counts[i].fetch_add(1, Ordering::Relaxed);
            });
        }
        for c in &counts {
            assert_eq!(c.load(Ordering::Relaxed), 50);
        }
    }

    #[test]
    fn zero_chunks_is_a_noop() {
        let pool = ComputePool::new(2);
        pool.run(0, &|_| panic!("no chunk should run"));
    }

    #[test]
    fn global_pool_is_shared() {
        let a = ComputePool::global() as *const ComputePool;
        let b = ComputePool::global() as *const ComputePool;
        assert_eq!(a, b);
        assert!(ComputePool::global().threads() >= 1);
    }
}
