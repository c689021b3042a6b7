//! An epoch's heap traffic: the per-node query table is a fixed number of
//! allocations whatever the network size, a one-shot execution allocates a
//! small constant per node, metering what each query of a group would have
//! paid alone allocates nothing per forwarded tuple, and a group epoch's
//! exact joins allocate nothing per result row.
//!
//! A counting global allocator (`counting/mod.rs`, shared with
//! `alloc_light_join.rs`) wraps the calls.

use sensjoin_core::{
    ExternalData, JoinMethod, JoinSpace, NodeTable, QueryGroup, Representation, SensJoin,
    SensJoinConfig, SensorNetwork, SensorNetworkBuilder,
};
use sensjoin_field::{Area, Placement, Position};
use sensjoin_query::parse;
use sensjoin_relation::{AttrType, NodeId};
use sensjoin_sim::BaseChoice;

mod counting;
use counting::{allocations, serial};

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
    let _guard = serial();
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

/// The base station's join input is one batch per relation, reserved once
/// from the shipped origins: no allocation per tuple.
#[test]
fn the_join_input_allocates_per_relation_not_per_tuple() {
    let _guard = serial();
    let input = |n: usize| {
        let snet = snet(n);
        let cq = snet.compile(&parse(SQL).unwrap()).unwrap();
        let space = JoinSpace::build(&cq, &snet, &SensJoinConfig::default());
        let table = NodeTable::build(&snet, &cq, &space, Representation::Quadtree);
        let shipped: Vec<NodeId> = table.tuples().map(|(v, _)| v).collect();
        let (allocs, batches) =
            allocations(|| table.tuples_per_rel(&snet, shipped.iter().copied()));
        assert_eq!(batches.len(), 2);
        assert!(batches.iter().all(|batch| batch.len() == n));
        allocs
    };
    let (small, large) = (input(500), input(5000));
    assert_eq!(small, large);
    // The outer vector, and per relation its origins and values.
    assert!(small <= 1 + 2 * 2, "{small} allocations");
}

/// The parent commit (a heap record per node with two vectors, a name set
/// and a per-relation value vector; a fresh inbox, handoff and structure
/// vector per hop) measured 11.2 allocations per added node here; this
/// change measures 2.5.
#[test]
fn a_one_shot_allocates_a_small_constant_per_node() {
    let _guard = serial();
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

/// A line of `n` nodes, every one in every query: with Treecut unbounded a
/// node forwards the complete tuples of everything behind it. Node `i`
/// reads `20 + i mod 17` °C.
fn line(n: usize, base: BaseChoice) -> SensorNetwork {
    let positions: Vec<Position> = (0..n)
        .map(|i| Position::new(1.0 + 40.0 * i as f64, 1.0))
        .collect();
    let rows = (0..n).map(|i| vec![20.0 + (i % 17) as f64]).collect();
    SensorNetworkBuilder::new()
        .area(Area::new(2.0 + 40.0 * n as f64, 2.0))
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
    let _guard = serial();
    // The same nodes, messages and join input either way; what moves with
    // the base station is how far the tuples are forwarded.
    let epoch = |base: BaseChoice| {
        let mut snet = line(300, base);
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

/// Rows are written into one flat buffer per plan, reserved once from the
/// counted candidates: two group epochs over the same line, the same
/// shipped tuples and the same contributors, whose four row plans answer
/// 17× as many rows at the wide band as at the narrow one, allocate within a
/// small constant of each other. (With a vector per row the difference was
/// the 150 k extra rows themselves.)
#[test]
fn a_group_epoch_allocates_nothing_per_result_row() {
    let _guard = serial();
    let epoch = |band: f64| {
        // Every tuple reaches the base through Treecut, whatever the band.
        let mut snet = line(200, BaseChoice::NearestCorner);
        let mut group = QueryGroup::new(SensJoinConfig {
            dmax: usize::MAX / 2,
            ..SensJoinConfig::default()
        });
        for select in ["A.temp, B.temp", "A.temp", "B.temp", "B.temp, A.temp"] {
            let sql = format!(
                "SELECT {select} FROM Sensors A, Sensors B WHERE |A.temp - B.temp| < {band} ONCE"
            );
            group.register(&snet, snet.compile(&parse(&sql).unwrap()).unwrap(), 1);
        }
        let (allocs, report) = allocations(|| group.execute_epoch(&mut snet).unwrap());
        assert_eq!(report.plans, 4);
        for out in &report.outcomes {
            // Every node joins itself: the contributor sets do not move.
            assert_eq!(out.contributors.len(), 200);
        }
        let rows: usize = report.outcomes.iter().map(|o| o.result.len()).sum();
        (allocs, rows)
    };
    let (narrow, narrow_rows) = epoch(0.5);
    let (wide, wide_rows) = epoch(16.5);
    eprintln!("{narrow} vs {wide} allocations for {narrow_rows} vs {wide_rows} rows");
    // 13 temperatures are read by 12 nodes, 4 by 11: 2 356 pairs read the
    // same one, and all 40 000 lie within 16.
    assert_eq!((narrow_rows, wide_rows), (4 * 2_356, 4 * 40_000));
    assert!(
        wide.abs_diff(narrow) <= 16,
        "{narrow} vs {wide} allocations for {narrow_rows} vs {wide_rows} rows"
    );
}
