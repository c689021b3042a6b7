//! An epoch's heap traffic: the per-node query table is a fixed number of
//! allocations whatever the network size, a one-shot execution allocates a
//! small constant per node, and metering what each query of a group would
//! have paid alone allocates nothing per forwarded tuple.
//!
//! A counting global allocator (the one of `alloc_light_join.rs`) wraps the
//! calls.

use sensjoin_core::{
    ExternalData, JoinMethod, JoinSpace, NodeTable, QueryGroup, Representation, SensJoin,
    SensJoinConfig, SensorNetwork, SensorNetworkBuilder,
};
use sensjoin_field::{Area, Placement, Position};
use sensjoin_query::parse;
use sensjoin_relation::AttrType;
use sensjoin_sim::BaseChoice;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

struct Counting;

// A statistic: publishes no other data.
static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: defers every operation to `System` unchanged; the only addition
// is an atomic counter bump, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The tests of this binary share the counter: each holds this from its
/// first allocation to its last. (A poisoned lock only means the other test
/// failed; the `()` inside cannot be left inconsistent.)
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// Heap allocations (and reallocations) `f` makes.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.load(Ordering::Relaxed);
    let out = f();
    (ALLOCS.load(Ordering::Relaxed) - before, out)
}

/// `n` nodes at the paper's density.
fn snet(n: usize) -> SensorNetwork {
    SensorNetworkBuilder::new()
        .area(Area::for_constant_density(n))
        .placement(Placement::UniformRandom { n })
        .seed(11)
        .build()
        .unwrap()
}

const SQL: &str = "SELECT A.hum, B.hum FROM Sensors A, Sensors B \
                   WHERE A.temp - B.temp > 11.0 AND A.hum > 10 ONCE";

#[test]
fn the_table_is_a_fixed_number_of_allocations() {
    let _guard = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    for repr in [Representation::Quadtree, Representation::Raw] {
        let build = |n: usize| {
            let snet = snet(n);
            let cq = snet.compile(&parse(SQL).unwrap()).unwrap();
            let space = JoinSpace::build(&cq, &snet, &SensJoinConfig::default());
            let (allocs, table) = allocations(|| NodeTable::build(&snet, &cq, &space, repr));
            assert_eq!(table.tuples().count(), n);
            allocs
        };
        let (small, large) = (build(500), build(5000));
        assert_eq!(small, large, "{repr:?}");
        assert!(small <= 16, "{repr:?}: {small} allocations");
    }
}

/// The parent commit (a heap record per node with two vectors, a name set
/// and a per-relation value vector; a fresh inbox, handoff and structure
/// vector per hop) measured 11.2 allocations per added node here; this
/// change measures 2.5.
#[test]
fn a_one_shot_allocates_a_small_constant_per_node() {
    let _guard = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let execute = |n: usize| {
        let mut snet = snet(n);
        let cq = snet.compile(&parse(SQL).unwrap()).unwrap();
        let (allocs, out) = allocations(|| SensJoin::default().execute(&mut snet, &cq).unwrap());
        assert!(out.complete);
        eprintln!(
            "n={n} rows={} contributors={} allocs={allocs}",
            out.result.len(),
            out.contributors.len()
        );
        allocs
    };
    let (small, large) = (execute(500), execute(5000));
    let per_node = (large - small) as f64 / 4500.0;
    eprintln!("{per_node:.2} per node");
    assert!(per_node < 3.0, "{per_node:.2} allocations per added node");
}

/// A line of 300 nodes, every one in every query: with Treecut unbounded a
/// node forwards the complete tuples of everything behind it.
fn line(base: BaseChoice) -> SensorNetwork {
    let positions: Vec<Position> = (0..300)
        .map(|i| Position::new(1.0 + 40.0 * i as f64, 1.0))
        .collect();
    let rows = (0..300).map(|i| vec![20.0 + (i % 17) as f64]).collect();
    SensorNetworkBuilder::new()
        .area(Area::new(12_002.0, 2.0))
        .data(ExternalData {
            positions,
            attrs: vec![("temp".to_owned(), AttrType::Celsius)],
            rows,
        })
        .base(base)
        .build()
        .unwrap()
}

#[test]
fn solo_metering_allocates_nothing_per_forwarded_tuple() {
    let _guard = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    // The same nodes, messages and join input either way; what moves with
    // the base station is how far the tuples are forwarded.
    let epoch = |base: BaseChoice| {
        let mut snet = line(base);
        let mut group = QueryGroup::new(SensJoinConfig {
            dmax: usize::MAX / 2,
            ..SensJoinConfig::default()
        });
        for q in 0..64 {
            let sql = format!(
                "SELECT A.temp, B.temp FROM Sensors A, Sensors B \
                 WHERE A.temp - B.temp > {}.5 ONCE",
                100 + q
            );
            group.register(&snet, snet.compile(&parse(&sql).unwrap()).unwrap(), 1);
        }
        let (allocs, report) = allocations(|| group.execute_epoch(&mut snet).unwrap());
        assert_eq!(report.plans, 64);
        // Every forwarded 2-byte tuple is metered for each of the 64 queries.
        let forwarded = report.solo_equivalent[0].collection_bytes / 2;
        for cost in &report.solo_equivalent {
            assert_eq!(cost.collection_bytes, 2 * forwarded);
        }
        (allocs, forwarded)
    };
    let (end, end_forwarded) = epoch(BaseChoice::NearestCorner);
    let (middle, middle_forwarded) = epoch(BaseChoice::NearestCenter);
    assert_eq!((end_forwarded, middle_forwarded), (44_850, 22_500));
    // A longer arm grows its handoff vector a few more times, no more.
    assert!(
        end.abs_diff(middle) <= 32,
        "{end} vs {middle} allocations for {end_forwarded} vs {middle_forwarded} forwarded tuples"
    );
}
