//! The `perf` binary: the command line in `perf::cli`, plus the counting
//! allocator — the benchmark's only `unsafe`, kept here so the library
//! stays `forbid(unsafe_code)`.

use std::alloc::{GlobalAlloc, Layout, System};

use perf::harness::alloc_note;

/// Counts every allocation request, then forwards to the system
/// allocator unchanged.
struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s own `GlobalAlloc` contract carries over; `alloc_note` only
// updates atomics and never allocates, so it cannot re-enter.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        alloc_note(layout.size());
        // SAFETY: `layout` is the caller's, passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System` for this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        alloc_note(new_size);
        // SAFETY: `ptr` was returned by `System` for this `layout`, and
        // `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(perf::cli::main(&args));
}
