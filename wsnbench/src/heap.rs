//! The process's global allocator: the system allocator, counting live
//! heap bytes and their peak, so that each unit's peak heap can be read
//! (the kernel's `VmHWM` only ever grows, so it reports the largest unit
//! a run happened to meet, not the typical one).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

struct Counting;

// Relaxed suffices: the counters publish no other data.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    // A plain load first: most allocations set no new peak, and skipping
    // the read-modify-write keeps the counting cheap.
    if live > PEAK.load(Relaxed) {
        PEAK.fetch_max(live, Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters only observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` contract is passed on unchanged.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` and `layout` come from this allocator, as the
        // caller guarantees, and this allocator is `System`.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`, with the caller's `new_size` contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Relaxed);
            }
        }
        p
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The largest live heap, in bytes, since the previous call; the peak
/// then restarts from the current live size.
pub fn take_peak() -> usize {
    let live = LIVE.load(Relaxed);
    PEAK.swap(live, Relaxed).max(live)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_counts_a_block_grown_by_realloc() {
        // Other tests allocate and take peaks concurrently, so only a
        // block that is still live gives a bound that always holds.
        let mut block: Vec<u8> = Vec::new();
        for _ in 0..(64 << 20) / 4096 {
            block.extend_from_slice(&[1; 4096]);
        }
        assert!(take_peak() >= 64 << 20);
        drop(std::hint::black_box(block));
    }
}
