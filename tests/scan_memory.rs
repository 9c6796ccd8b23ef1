//! A scan chunk costs its points' angles and result slots, nothing more.
//!
//! This binary installs a counting global allocator and holds one test
//! only, so nothing else allocates while it measures. It scans 16384
//! lazily generated p = 1 points as one chunk on a serial runner and
//! asserts that the heap's peak during the scan, above what was live
//! before it, stays under 40 bytes per point: a point's two angles (16
//! bytes) and its result slot (16 bytes) fit, a chunk of whole
//! `SweepPoint`s (48 bytes each plus two heap vectors) does not. State
//! buffers are left out by a warm-up scan that fills the runner's buffer
//! recycler first.
//!
//! Run it with `cargo test --release --test scan_memory`.

use qokit::prelude::*;
use qokit::terms::labs::labs_terms;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator, counting live requested bytes and their peak.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::SeqCst) + bytes;
    PEAK.fetch_max(live, Ordering::SeqCst);
}

fn shrank(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::SeqCst);
}

// SAFETY: every call is forwarded to `System` with the caller's own
// arguments; the counters only observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            // Counted as a copy: both blocks live at the peak.
            grew(new_size);
            shrank(layout.size());
        }
        new
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

const POINTS: usize = 16384;
const BYTES_PER_POINT: usize = 40;

/// Counts observations without allocating.
#[derive(Default)]
struct Count(u64);

impl EnergySink for Count {
    fn observe(&mut self, _index: u64, _energy: f64) {
        self.0 += 1;
    }
}

#[test]
fn one_chunk_holds_under_40_bytes_per_point() {
    let runner = SweepRunner::with_options(
        FurSimulator::new(&labs_terms(6)),
        SweepOptions {
            exec: ExecPolicy::serial(),
            nested: SweepNesting::PointsParallel,
        },
    );
    // A 128 x 128 grid, row-major: runs of 128 points share γ₁.
    let grid =
        || (0..POINTS).map(|i| SweepPoint::p1(0.01 * (i / 128) as f64, 0.01 * (i % 128) as f64));
    // Warm-up: the recycler keeps the state buffers a scan checks out.
    runner
        .scan_into(grid().take(256), POINTS, &mut Count::default())
        .unwrap();

    let mut seen = Count::default();
    let before = LIVE.load(Ordering::SeqCst);
    PEAK.store(before, Ordering::SeqCst);
    let scanned = runner.scan_into(grid(), POINTS, &mut seen);
    let held = PEAK.load(Ordering::SeqCst) - before;

    println!("a {POINTS}-point chunk held {held} bytes");
    assert_eq!(scanned, Ok(POINTS as u64));
    assert_eq!(seen.0, POINTS as u64);
    assert!(
        held < BYTES_PER_POINT * POINTS,
        "a {POINTS}-point chunk held {held} bytes ({:.1} per point)",
        held as f64 / POINTS as f64
    );
}
