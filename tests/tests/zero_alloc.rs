//! The warm packet path allocates nothing, in counts — no wall clock.
//!
//! [`Switch::inject_buf`] is the zero-allocation entry point: once the
//! switch's scratch buffers have grown to size, a traversal on the compiled
//! engine touches no heap. This binary installs a counting global allocator
//! (the shape of `crates/perf`'s `CountingAlloc`, counted per thread so
//! libtest's other threads cannot add to a test's count), warms each switch
//! with one pass over its packets, and asserts that eight more passes
//! allocate nothing: on the one-table sweep pipelets (exact, LPM, ternary
//! and the ACL decision tree) and on the Fig. 9 chain (merged parser,
//! `Hash`, header add/remove, recirculation, firewall deny).

use dejavu_asic::{PortId, Switch};
use dejavu_integration::{chain_packet, fig9_testbed, sweep_testbed, SweepKey, IN_PORT};
use dejavu_nf::load_balancer::{five_tuple_of, session_entry_for, SESSION_TABLE};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Heap allocations (reallocations included) made by this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // A thread past its TLS teardown has no counter left and no test to
    // report to; its allocations are not counted.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

/// [`System`] plus a per-thread allocation counter.
struct CountingAlloc;

// SAFETY: every method forwards to `System` with its arguments unchanged,
// so `System`'s guarantees carry over; the only addition is bumping a
// const-initialised thread-local `Cell`, which itself never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract for
        // `layout`, which is exactly `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // this `layout` (caller's contract).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: as for `dealloc`; `new_size` is the caller's to vouch for.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// Heap allocations per packet over eight passes of `packets` through
/// `sw` on `port`, after one warm-up pass.
fn allocs_per_packet(sw: &mut Switch, packets: &[Vec<u8>], port: PortId) -> f64 {
    const PASSES: usize = 8;
    let mut buf = Vec::with_capacity(2048);
    let mut pass = |sw: &mut Switch| {
        for p in packets {
            buf.clear();
            buf.extend_from_slice(p);
            sw.inject_buf(&mut buf, port).expect("packet walks");
        }
    };
    pass(sw);
    let before = ALLOCS.with(Cell::get);
    for _ in 0..PASSES {
        pass(sw);
    }
    let allocs = ALLOCS.with(Cell::get) - before;
    allocs as f64 / (PASSES * packets.len()) as f64
}

#[test]
fn sweep_pipelets_allocate_nothing_per_packet() {
    for (key, sizes) in [
        (SweepKey::Exact, &[1, 100, 10_000][..]),
        (SweepKey::Lpm, &[1, 100, 10_000]),
        (SweepKey::Ternary, &[1, 100, 10_000]),
        (SweepKey::Acl, &[10_000]),
    ] {
        for &n in sizes {
            let (mut sw, packets) = sweep_testbed(key, n);
            let a = allocs_per_packet(&mut sw, &packets, IN_PORT);
            assert_eq!(a, 0.0, "{key:?}, {n} entries: allocations per packet");
        }
    }
}

#[test]
fn fig9_chain_allocates_nothing_per_packet() {
    // The §5 prototype with path 1's LB session installed; one packet per
    // Fig. 2 path, then a path-1 packet the firewall denies.
    let (mut sw, dep) = fig9_testbed();
    let path1 = chain_packet(1, 0xc633_6450, 80);
    let tuple = five_tuple_of(&path1).expect("path-1 packet has a five-tuple");
    dep.install(
        &mut sw,
        "lb",
        SESSION_TABLE,
        session_entry_for(&tuple, 0x0a63_0001),
    )
    .expect("LB session installs");
    let packets = [
        path1,
        chain_packet(2, 0xc633_6450, 80),
        chain_packet(3, 0xc633_6450, 80),
        chain_packet(1, 0xc633_6450, 22),
    ];
    let a = allocs_per_packet(&mut sw, &packets, IN_PORT);
    assert_eq!(a, 0.0, "fig9 chain: allocations per packet");
}
