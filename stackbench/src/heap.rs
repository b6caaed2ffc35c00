//! Heap high-water mark: the most bytes the process held at once through the
//! global allocator, counted by a thin wrapper over the system allocator.
//!
//! `VmHWM` is not steady enough to gate on: it also counts memory glibc keeps
//! in per-thread arenas after a free, and how much that is depends on which
//! arena each short-lived MC³ chain thread happens to get. On `resend-codon`,
//! whose eigen cache frees and allocates 30 KB matrices all the time, it
//! swung by a quarter from run to run; the bytes actually held do not.
//!
//! Counting costs every allocation a shared atomic add, which on the
//! allocation-heavy workloads slowed evaluations by a few percent, so it
//! [`stop`]s when the timed window starts: the peak covers set-up and the
//! warm-up, whose MC³ segments hold what the window's segments hold.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::Relaxed};

// Only statistics: `Relaxed` publishes nothing else.
/// Whether allocations are still counted.
static COUNTING: AtomicBool = AtomicBool::new(true);
/// Bytes held now, while counting.
static HELD: AtomicUsize = AtomicUsize::new(0);
/// Most bytes held at any moment while counting.
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// The system allocator, counting the bytes it hands out.
struct Counting;

fn grow(bytes: usize) {
    if !COUNTING.load(Relaxed) {
        return;
    }
    let held = HELD.fetch_add(bytes, Relaxed) + bytes;
    // Most allocations do not set a new peak; reading first keeps them from
    // writing a cache line that every chain thread shares.
    if held > PEAK.load(Relaxed) {
        PEAK.fetch_max(held, Relaxed);
    }
}

fn shrink(bytes: usize) {
    if COUNTING.load(Relaxed) {
        HELD.fetch_sub(bytes, Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are atomics and never
// allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller guarantees `layout` has non-zero size.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` came from this allocator (so
        // from `System`) with `layout`.
        unsafe { System.dealloc(ptr, layout) };
        shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller guarantees `ptr` came from this allocator with
        // `layout` and that `new_size` is valid for its alignment.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            if new_size >= layout.size() {
                grow(new_size - layout.size());
            } else {
                shrink(layout.size() - new_size);
            }
        }
        new
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Stop counting for the rest of the process; the peak so far stays.
pub fn stop() {
    COUNTING.store(false, Relaxed);
}

/// The most bytes held at once between process start and [`stop`], in MB.
pub fn peak_mb() -> f64 {
    PEAK.load(Relaxed) as f64 / (1024.0 * 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_covers_a_live_allocation() {
        let block = vec![1u8; 8 << 20];
        assert!(peak_mb() >= 8.0);
        drop(block);
        assert!(peak_mb() >= 8.0, "the peak survives the free");
    }
}
