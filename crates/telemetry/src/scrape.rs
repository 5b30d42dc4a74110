//! A periodic snapshot scraper thread.
//!
//! [`Scraper::start`] spawns a background thread that snapshots a
//! [`Telemetry`] registry every `period`, keeps the most recent
//! snapshot for [`Scraper::latest`], and optionally hands each one to a
//! callback (to print live stats lines during a load run, say).
//! [`Scraper::start_with`] scrapes any snapshot source — a
//! runtime's per-shard rollup, say — the same way. [`Scraper::stop`]
//! joins the thread and returns one final, fresh snapshot so callers
//! always end with a complete view.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use crate::registry::Telemetry;
use crate::snapshot::Snapshot;

/// Handle to a running scraper thread.
pub struct Scraper {
    stop: Arc<AtomicBool>,
    latest: Arc<Mutex<Option<Snapshot>>>,
    handle: Option<thread::JoinHandle<()>>,
    source: Arc<dyn Fn() -> Snapshot + Send + Sync>,
}

impl std::fmt::Debug for Scraper {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scraper").finish_non_exhaustive()
    }
}

impl Scraper {
    /// Starts a scraper that snapshots `tel` every `period`.
    pub fn start(tel: Arc<Telemetry>, period: Duration) -> Scraper {
        Scraper::start_with(move || tel.snapshot(), period, |_| {})
    }

    /// Starts a scraper that takes a snapshot from `source` every
    /// `period` and passes each one to `observer`.
    pub fn start_with<S, F>(source: S, period: Duration, mut observer: F) -> Scraper
    where
        S: Fn() -> Snapshot + Send + Sync + 'static,
        F: FnMut(&Snapshot) + Send + 'static,
    {
        let source: Arc<dyn Fn() -> Snapshot + Send + Sync> = Arc::new(source);
        let stop = Arc::new(AtomicBool::new(false));
        let latest = Arc::new(Mutex::new(None));
        let handle = {
            let source = Arc::clone(&source);
            let stop = Arc::clone(&stop);
            let latest = Arc::clone(&latest);
            thread::Builder::new()
                .name("bm-telemetry-scraper".into())
                .spawn(move || {
                    while !stop.load(Ordering::Acquire) {
                        // Sleep in short slices so stop() returns
                        // promptly even with a long scrape period.
                        let deadline = Instant::now() + period;
                        while Instant::now() < deadline {
                            if stop.load(Ordering::Acquire) {
                                return;
                            }
                            let left = deadline.saturating_duration_since(Instant::now());
                            thread::sleep(left.min(Duration::from_millis(5)));
                        }
                        let snap = source();
                        observer(&snap);
                        *latest.lock().expect("scraper snapshot lock poisoned") = Some(snap);
                    }
                })
                .expect("spawn scraper thread")
        };
        Scraper {
            stop,
            latest,
            handle: Some(handle),
            source,
        }
    }

    /// The most recent periodic snapshot, if one has been taken yet.
    pub fn latest(&self) -> Option<Snapshot> {
        self.latest
            .lock()
            .expect("scraper snapshot lock poisoned")
            .clone()
    }

    /// Stops the thread, joins it, and returns a final fresh snapshot.
    pub fn stop(mut self) -> Snapshot {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
        (self.source)()
    }
}

impl Drop for Scraper {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn scraper_observes_and_final_snapshot_is_fresh() {
        let tel = Telemetry::new();
        let c = tel.counter("ticks");
        let seen = Arc::new(AtomicUsize::new(0));
        let seen2 = Arc::clone(&seen);
        let source = Arc::clone(&tel);
        let scraper = Scraper::start_with(
            move || source.snapshot(),
            Duration::from_millis(5),
            move |_| {
                seen2.fetch_add(1, Ordering::Relaxed);
            },
        );
        c.add(7);
        // Wait for at least one periodic scrape.
        let t0 = Instant::now();
        while seen.load(Ordering::Relaxed) == 0 && t0.elapsed() < Duration::from_secs(5) {
            thread::sleep(Duration::from_millis(2));
        }
        assert!(seen.load(Ordering::Relaxed) >= 1, "scraper never ticked");
        c.add(1);
        let last = scraper.stop();
        // The final snapshot is taken after join, so it must see both adds.
        assert_eq!(last.counter_sum("ticks"), 8);
    }

    #[test]
    fn stop_is_prompt_with_long_period() {
        let tel = Telemetry::new();
        let scraper = Scraper::start(tel, Duration::from_secs(3600));
        let t0 = Instant::now();
        let _ = scraper.stop();
        assert!(t0.elapsed() < Duration::from_secs(2), "stop was not prompt");
    }
}
