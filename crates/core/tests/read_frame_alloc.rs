//! A frame header that lies about its payload length must not make
//! `wire::read_frame` allocate the claimed length: the reader grows its
//! buffer only as payload bytes arrive, so a peer that claims
//! `MAX_PAYLOAD` and then sends ten bytes costs well under a megabyte.
//!
//! A counting global allocator tracks live bytes and their peak. The file
//! holds a single test so no other test's allocations land inside the
//! measured window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering::Relaxed};

use beagle_core::wire::{self, FrameType, WireError, HEADER_LEN, MAGIC, MAX_PAYLOAD, VERSION};

struct Counting;

static ARMED: AtomicBool = AtomicBool::new(false);
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

fn book(delta: i64) {
    if ARMED.load(Relaxed) {
        let live = LIVE.fetch_add(delta, Relaxed) + delta;
        PEAK.fetch_max(live, Relaxed);
    }
}

// SAFETY: forwards to the system allocator unchanged; only counts.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        book(layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        book(layout.size() as i64);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        book(-(layout.size() as i64));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        book(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn lying_header_allocates_only_what_arrives() {
    let mut stream = Vec::with_capacity(HEADER_LEN + 10);
    stream.extend_from_slice(&MAGIC);
    stream.push(VERSION);
    stream.push(FrameType::Submit as u8);
    stream.extend_from_slice(&7u64.to_le_bytes());
    stream.extend_from_slice(&MAX_PAYLOAD.to_le_bytes());
    stream.extend_from_slice(&[0xAB; 10]);

    ARMED.store(true, Relaxed);
    let result = wire::read_frame(&mut stream.as_slice());
    ARMED.store(false, Relaxed);

    assert_eq!(
        result.unwrap_err(),
        WireError::Truncated {
            needed: MAX_PAYLOAD as usize,
            got: 10,
        }
    );
    let peak = PEAK.load(Relaxed);
    assert!(
        peak < 1 << 20,
        "a header claiming {MAX_PAYLOAD} bytes followed by 10 must not pin \
         memory; peak live allocation was {peak} bytes"
    );
}
