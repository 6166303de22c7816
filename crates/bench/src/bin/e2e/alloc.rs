//! Counting global allocator: allocations, live bytes and peak live
//! bytes, behind a switch so that only the one designated repetition of a
//! workload pays for (and is described by) the counters. Timed
//! repetitions run with the switch off and take the plain `System` path
//! plus one relaxed load.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// The allocator installed by `main.rs`.
pub struct Counting;

// Statistics only: none of these publishes other data, so `Relaxed`.
static ON: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

fn grew(by: u64) {
    let live = LIVE.fetch_add(by, Ordering::Relaxed) + by;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrank(by: u64) {
    // Blocks allocated while the switch was off are freed uncounted-for:
    // saturate instead of wrapping below zero.
    let _ = LIVE.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| Some(v.saturating_sub(by)));
}

// SAFETY: every method forwards to `System` with the caller's layout and
// pointer unchanged; the counters never touch the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ON.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            grew(layout.size() as u64);
        }
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if ON.load(Ordering::Relaxed) {
            shrank(layout.size() as u64);
        }
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ON.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            shrank(layout.size() as u64);
            grew(new_size as u64);
        }
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// A reading of the counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Allocation calls (`alloc` + `realloc`) since the session began.
    pub allocs: u64,
    /// Highest live byte count since the session began.
    pub peak_bytes: u64,
}

/// Exclusive use of the counters: counting is on from [`start`] until
/// the session is dropped. (Exclusive because `cargo test` runs tests on
/// parallel threads and the switch is process-wide.)
pub struct Session(#[allow(dead_code)] MutexGuard<'static, ()>);

/// Zeroes the counters and switches counting on.
pub fn start() -> Session {
    static OWNER: Mutex<()> = Mutex::new(());
    // A panicking holder leaves the counters merely stale, never invalid.
    let guard = OWNER.lock().unwrap_or_else(PoisonError::into_inner);
    ALLOCS.store(0, Ordering::Relaxed);
    LIVE.store(0, Ordering::Relaxed);
    PEAK.store(0, Ordering::Relaxed);
    ON.store(true, Ordering::Relaxed);
    Session(guard)
}

impl Drop for Session {
    fn drop(&mut self) {
        ON.store(false, Ordering::Relaxed);
    }
}

/// Whether a session is open.
pub fn counting() -> bool {
    ON.load(Ordering::Relaxed)
}

/// Reads the counters (meaningful while a session is open).
pub fn read() -> Snapshot {
    Snapshot { allocs: ALLOCS.load(Ordering::Relaxed), peak_bytes: PEAK.load(Ordering::Relaxed) }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_only_while_a_session_is_open() {
        let session = start();
        let block: Vec<u8> = Vec::with_capacity(1 << 20);
        let during = read();
        drop(block);
        drop(session);
        // Other test threads may allocate too: lower bounds only.
        assert!(during.allocs >= 1);
        assert!(during.peak_bytes >= 1 << 20, "peak {}", during.peak_bytes);
        let after = read();
        let unseen: Vec<u8> = Vec::with_capacity(1 << 22);
        drop(unseen);
        assert!(read().peak_bytes < (1 << 22) || read() == after, "counted with no session open");
    }
}
