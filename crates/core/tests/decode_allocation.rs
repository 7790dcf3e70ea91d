//! A decoder allocates what its input can hold, not what its length
//! prefixes promise. A counting global allocator — in this test binary
//! only — sums the bytes every `alloc` and `realloc` call asks for, and
//! each test decodes a small hostile payload and bounds that sum.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use paradise_core::storage::codec::{dec_frame, enc_schema, Dec, Enc};
use paradise_engine::Schema;

/// The system allocator, summing the bytes requested.
struct Counting;

static BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to the system allocator,
// which upholds the `GlobalAlloc` contract; the counter is a statistic
// that publishes no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller's guarantees for `layout` are passed on.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        // SAFETY: `ptr` was allocated by `System` with `layout`, and the
        // caller's guarantees for `new_size` are passed on.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// `f`'s result and the bytes requested inside it.
fn allocated<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = BYTES.load(Ordering::Relaxed);
    let result = f();
    (result, BYTES.load(Ordering::Relaxed) - before)
}

#[test]
fn a_zero_column_frame_decodes_without_row_buffers() {
    // no columns and 2^24 rows: an 8-byte body that a wire `Apply`, a
    // log record or a snapshot table can each carry
    let rows = 1usize << 24;
    let mut e = Enc::new();
    enc_schema(&mut e, &Schema::default());
    e.u32(rows as u32);
    let body = e.into_bytes();
    assert_eq!(body.len(), 8);

    let (frame, bytes) = allocated(|| dec_frame(&mut Dec::new(&body)).expect("decodes"));
    assert_eq!(frame.len(), rows, "the decoded frame keeps its cardinality");
    assert!(bytes < 64 << 10, "decoding 8 bytes requested {bytes} bytes");
}
