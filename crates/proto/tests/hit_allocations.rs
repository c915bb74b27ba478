//! The per-request work of a cache hit allocates nothing: parsing a
//! pipelined batch through the borrowing view, resolving each URI and
//! taking each response head from the store are counted by a global
//! allocator and must read zero once the parser's buffer has grown to
//! its working size, and so must a node's cache hit. A miss's body
//! generation allocates exactly once.
//!
//! The allocator is process-wide, but each thread keeps its own count,
//! so the tests here cannot see each other's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use std::sync::Arc;

use phttp_core::NodeId;
use phttp_http::{RequestParser, Version};
use phttp_proto::{ContentStore, DiskEmu, NodeState};
use phttp_trace::TargetId;

struct Counting;

thread_local! {
    /// This thread's allocations while it counts (`None`: not counting).
    static COUNT: Cell<Option<usize>> = const { Cell::new(None) };
}

fn note_allocation() {
    let _ = COUNT.try_with(|c| c.set(c.get().map(|n| n + 1)));
}

// SAFETY: every method forwards to `System` with the caller's own
// arguments, so `System`'s guarantees are this allocator's; the
// counting beside it touches only a const-initialised thread-local,
// which does not allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        // SAFETY: forwarded unchanged (see the impl's comment).
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        // SAFETY: forwarded unchanged (see the impl's comment).
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        // SAFETY: forwarded unchanged (see the impl's comment).
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged (see the impl's comment).
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocations_in(f: impl FnOnce()) -> usize {
    COUNT.with(|c| c.set(Some(0)));
    f();
    COUNT.with(Cell::take).expect("counting was on")
}

#[test]
fn parsing_a_pipelined_batch_and_taking_its_heads_allocates_nothing() {
    let store = ContentStore::from_sizes(vec![512, 4096, 8192, 100]);
    let batch = b"GET /t/0 HTTP/1.1\r\nHost: h\r\n\r\n\
                  GET /t/3 HTTP/1.1\r\n\r\n\
                  GET /t/2 HTTP/1.1\r\nConnection: keep-alive\r\n\r\n\
                  GET /t/1 HTTP/1.1\r\n\r\n";
    let mut parser = RequestParser::new();
    let mut heads = Vec::with_capacity(4);
    let serve_batch = |parser: &mut RequestParser, heads: &mut Vec<_>| {
        parser.feed(batch);
        while let Some(target) = parser
            .next_with(|h| store.lookup(h.uri).expect("a corpus target"))
            .expect("the batch parses")
        {
            heads.push(store.ok_head(target, Version::Http11));
        }
        assert_eq!(heads.len(), 4);
        heads.clear();
    };
    // Warm-up: the parser's buffer grows until it compacts in place.
    for _ in 0..1000 {
        serve_batch(&mut parser, &mut heads);
    }
    let n = allocations_in(|| {
        for _ in 0..100 {
            serve_batch(&mut parser, &mut heads);
        }
    });
    assert_eq!(n, 0, "100 batches of 4 hits allocated {n} times");
    // The counter is live: an owned parse allocates.
    let owned = allocations_in(|| {
        parser.feed(batch);
        assert!(parser.next().expect("parses").is_some());
    });
    assert!(owned > 0, "the counting allocator saw nothing");
}

/// A node's cache hit — the demand count its admission gate keeps, the
/// probe, the body handle and the counters — allocates nothing, across
/// the counters' halvings too. The lock-order checker records every
/// acquisition on the heap, so a checked build cannot show it.
#[test]
#[cfg_attr(
    feature = "lockcheck",
    ignore = "the lock-order checker allocates on every lock acquisition"
)]
fn a_node_cache_hit_allocates_nothing() {
    let store = Arc::new(ContentStore::from_sizes(vec![512; 64]));
    let node = NodeState::new(NodeId(0), 1 << 20, DiskEmu::default(), store, Vec::new());
    for t in 0..64 {
        let target = TargetId(t);
        assert!(node.begin_serve_body(target).is_none());
        node.finish_disk_read(target, node.disk_read_time(target));
    }
    // 64 entries halve every 640 serves: 10 000 hits cross 15 halvings.
    let n = allocations_in(|| {
        for i in 0..10_000u32 {
            let body = node.begin_serve_body(TargetId(i % 64));
            assert!(body.is_some(), "a cached target hits");
        }
    });
    assert_eq!(n, 0, "10 000 node cache hits allocated {n} times");
    assert_eq!(node.stats.snapshot().hits, 10_000);
}

/// A generated body is collected straight into its shared buffer: one
/// allocation, with no staging `Vec` copied into a second one.
#[test]
fn generating_a_body_allocates_once() {
    let sizes = vec![100, 8 * 1024, 2 * 1024 * 1024];
    let store = ContentStore::from_sizes(sizes.clone());
    for (t, size) in sizes.into_iter().enumerate() {
        let target = TargetId(t as u32);
        let mut body = bytes::Bytes::new();
        let n = allocations_in(|| body = store.body(target));
        assert_eq!(n, 1, "a {size} B body took {n} allocations");
        assert_eq!(body.len() as u64, size);
        assert!(store.verify(target, &body), "a {size} B body is corrupt");
    }
}
