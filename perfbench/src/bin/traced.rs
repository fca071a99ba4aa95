//! The traced run: per-layer spans and exact counts. Its counting global
//! allocator is linked into this binary only, so the untraced run pays
//! nothing for it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use tippers_perfbench::drive::Checks;
use tippers_perfbench::fixture::Fixture;
use tippers_perfbench::stats::obj;
use tippers_perfbench::{report, trace, Args};

/// Counts allocations (including reallocations) and defers to `System`.
struct Counting;

/// A statistic only: it publishes no other data, so `Relaxed` suffices.
static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the requirements of `GlobalAlloc`; counting touches no memory
// the allocator hands out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's guarantees for `alloc` pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's guarantees for `alloc_zeroed` pass through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` was allocated by this allocator, which is `System`
        // underneath, with `layout`; the caller guarantees the rest.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench-traced: {e}");
            std::process::exit(2);
        }
    };
    let mut fx = Fixture::setup(args.workload, args.seed);
    let mut checks = Checks::default();
    let spans = args.spans.as_deref().map(std::path::Path::new);
    let (metrics, totals) = trace::run(&mut fx, args.seconds, allocs, spans, &mut checks);
    report(&fx, &metrics, &totals, &checks, obj([]));
    if checks.failed {
        std::process::exit(1);
    }
}
