//! The charge path allocates nothing per packet event.
//!
//! A counting global allocator (per-thread counter, so the tests of this
//! binary do not see each other) wraps transfers through the charge sink
//! (`DeliveryPort`, and `Network::unicast` on top of it): a lossless one
//! must not touch the heap at all, however many fragments a message has,
//! and neither may a lossy one once each link it uses has been drawn on.

use sensjoin_field::{Area, Placement};
use sensjoin_sim::{ArqPolicy, Channel, Network, NetworkBuilder};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: defers every operation to `System` unchanged; the only addition
// is a thread-local counter bump, which neither allocates (const-initialized
// `Cell`, no destructor) nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations (and reallocations) `f` performs on this thread.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

fn net() -> Network {
    let area = Area::new(250.0, 250.0);
    let pos = Placement::UniformRandom { n: 80 }.generate(area, 5);
    NetworkBuilder::new().build(pos, area).unwrap()
}

/// Message sizes from one fragment to a 21-fragment train.
const SIZES: [usize; 5] = [1, 30, 48, 49, 1000];

#[test]
fn direct_sink_charges_without_allocating() {
    let mut net = net();
    let base = net.base();
    let kids = net.routing().children(base).to_vec();
    let phase = net.intern_phase("1-collection");
    // Warm: the phase is interned, nothing else is lazily built.
    net.unicast(kids[0], base, 30, "1-collection");

    let packets_before = net.stats().total_tx_packets();
    let n = allocations(|| {
        let (_, mut port) = net.delivery_port();
        for _ in 0..100 {
            for bytes in SIZES {
                let d = port.unicast_delivery(kids[0], base, bytes, phase);
                assert!(d.complete);
            }
        }
    });
    let packets = net.stats().total_tx_packets() - packets_before;
    assert!(packets >= 100 * 25, "{packets} packets charged");
    assert_eq!(n, 0, "{n} allocations over {packets} unicast packets");

    // The string-labelled entry point resolves the label per message — a
    // scan of the handful of interned labels — and allocates nothing either.
    let n = allocations(|| {
        for bytes in SIZES {
            net.unicast(kids[0], base, bytes, "1-collection");
        }
    });
    assert_eq!(n, 0);

    // A broadcast returns a per-receiver report (one vector per message);
    // charging its packets adds nothing to that, whatever their number.
    let one = allocations(|| {
        net.broadcast(base, &kids, 30, "1-collection");
    });
    let many = allocations(|| {
        net.broadcast(base, &kids, 1000, "1-collection");
    });
    assert_eq!(one, 1, "the delivery report");
    assert_eq!(many, one, "21 fragments allocate what 1 does");
}

#[test]
fn lossy_unicast_charges_without_allocating() {
    for arq in [ArqPolicy::None, ArqPolicy::ack(16)] {
        let mut net = net();
        net.set_channel(Some(Channel::bernoulli(0.3, 17)));
        net.set_arq(arq);
        let base = net.base();
        let kids = net.routing().children(base).to_vec();
        let phase = net.intern_phase("1-collection");
        // Warm: every link is drawn on once in both directions (an ACK
        // travels back), so each link's stream exists.
        for &kid in &kids {
            net.unicast(kid, base, 30, "1-collection");
            net.unicast(base, kid, 30, "1-collection");
        }

        let packets_before = net.stats().total_tx_packets();
        let lost_before = net.stats().total_lost_packets();
        let n = allocations(|| {
            let (_, mut port) = net.delivery_port();
            for _ in 0..20 {
                for bytes in SIZES {
                    for &kid in &kids {
                        port.unicast_delivery(kid, base, bytes, phase);
                        port.unicast_delivery(base, kid, bytes, phase);
                    }
                }
            }
        });
        let packets = net.stats().total_tx_packets() - packets_before;
        assert!(packets >= 20 * 25 * 2, "{packets} packets under {arq:?}");
        if arq == ArqPolicy::None {
            let lost = net.stats().total_lost_packets() - lost_before;
            assert!(lost > 0, "30 % loss dropped nothing");
        }
        assert_eq!(
            n, 0,
            "{n} allocations over {packets} lossy unicast packets under {arq:?}"
        );
    }
}
