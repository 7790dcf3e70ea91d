//! Work budgets that do not drift: the allocation count of a steady
//! resident tick, pinned as a ceiling per query shape. A counting
//! global allocator — in this test binary only — counts `alloc` and
//! `realloc` calls. The count depends on the code and the seeded input,
//! not on the machine, so it catches per-tick work that timing on a
//! noisy box cannot resolve. A lone handle ticks on the calling thread,
//! so the count is the same at every `PARADISE_THREADS`.
//!
//! `PARADISE_THREADS=1 cargo test --test work_budget -- --nocapture`
//! prints the counts. A change that lowers one lowers its ceiling too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use paradise::prelude::*;

/// The system allocator, counting the calls that allocate.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to the system allocator,
// which upholds the `GlobalAlloc` contract; the counter is a statistic
// that publishes no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's guarantees for `layout` are passed on.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` was allocated by `System` with `layout`, and the
        // caller's guarantees for `new_size` are passed on.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

const PAPER_ORIGINAL: &str = "SELECT regr_intercept(y, x) OVER (PARTITION BY z ORDER BY t) \
                              FROM (SELECT x, y, z, t FROM stream)";

/// (query, ceiling on the median allocations per steady tick): the
/// flat projection (rewritten to the grouped aggregation, 3 stages) and
/// the paper query (4 stages). Each ceiling is the measured median plus
/// 5 %.
const SHAPES: &[(&str, u64)] = &[("SELECT x, y, z, t FROM stream", 826), (PAPER_ORIGINAL, 929)];

fn stream(seed: u64, steps: usize) -> Frame {
    let config = SmartRoomConfig { persons: 10, switch_probability: 0.003, ..Default::default() };
    SmartRoomSim::with_config(seed, config).ubisense_positions(steps)
}

/// Allocations inside each of 30 steady ticks of `sql` under the
/// Figure 4 policy: a 100k-row window that is never trimmed, then
/// 500-row batches.
fn allocations_per_tick(sql: &str) -> Vec<u64> {
    let mut rt = Runtime::new(ProcessingChain::apartment())
        .with_policy("ActionFilter", figure4_policy().modules.remove(0))
        .with_retention(10_000_000);
    rt.install_source("motion-sensor", "stream", stream(1, 10_000)).unwrap();
    rt.register("ActionFilter", &parse_query(sql).unwrap()).unwrap();
    rt.tick().unwrap();
    (0..30)
        .map(|i| {
            rt.ingest("motion-sensor", "stream", stream(100 + i, 50)).unwrap();
            let before = ALLOCATIONS.load(Ordering::Relaxed);
            let ticked = rt.tick();
            let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
            ticked.unwrap();
            allocations
        })
        .collect()
}

/// One test, so no other test of this binary allocates while a tick is
/// counted.
#[test]
fn steady_ticks_stay_within_their_allocation_ceilings() {
    for &(sql, ceiling) in SHAPES {
        let mut counts = allocations_per_tick(sql);
        counts.sort_unstable();
        let median = counts[counts.len() / 2];
        println!(
            "work budget: {sql:?}: median {median} allocations per steady tick \
             (min {}, max {}, ceiling {ceiling})",
            counts[0],
            counts[counts.len() - 1],
        );
        assert!(median <= ceiling, "{sql:?}: {median} allocations per tick, ceiling {ceiling}");
    }
}
