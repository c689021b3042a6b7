//! Round-equivalence of the delta wire, end to end: an exact (ε = 0)
//! continuous query driven through N drifting snapshots must return, every
//! round, exactly what a fresh execution computes on that round's data —
//! the network-level counterpart of the population tests beside
//! [`sensjoin::core::FilterEngine`] in `sensjoin-core`'s `continuous`
//! module. Counted cell deltas up, filter deltas down and ε-suppressed
//! finals must keep every node's view and the base station's population in
//! step, so any divergence from fresh execution shows up here as a wrong
//! result or contributor set.

use proptest::prelude::*;
use sensjoin::core::ContinuousSensJoin;
use sensjoin::prelude::*;

fn build(seed: u64, n: usize) -> SensorNetwork {
    SensorNetworkBuilder::new()
        .area(Area::new(400.0, 400.0))
        .placement(Placement::UniformRandom { n })
        .seed(seed)
        .build()
        .unwrap()
}

/// Query templates across predicate classes: band, abs-band (window and
/// two-run shapes), equi-on-quantized, general, and a 3-way join whose last
/// level intersects two indexes.
fn sql(template: usize, c: f64) -> String {
    match template % 6 {
        0 => format!(
            "SELECT A.hum, B.hum FROM Sensors A, Sensors B \
             WHERE A.temp - B.temp > {c} SAMPLE PERIOD 30"
        ),
        1 => format!(
            "SELECT A.hum, B.hum FROM Sensors A, Sensors B \
             WHERE |A.temp - B.temp| < {} SAMPLE PERIOD 30",
            c * 0.1
        ),
        2 => format!(
            "SELECT A.temp, B.temp FROM Sensors A, Sensors B \
             WHERE |A.temp - B.temp| >= {c} SAMPLE PERIOD 30"
        ),
        3 => format!(
            "SELECT A.x, B.x FROM Sensors A, Sensors B \
             WHERE distance(A.x, A.y, B.x, B.y) < {} SAMPLE PERIOD 30",
            c * 15.0
        ),
        4 => format!(
            "SELECT A.temp, B.temp, C.temp FROM Sensors A, Sensors B, Sensors C \
             WHERE |A.temp - C.temp| < {} AND B.hum = C.hum SAMPLE PERIOD 30",
            c * 0.2
        ),
        _ => format!(
            "SELECT A.temp, B.temp, C.temp FROM Sensors A, Sensors B, Sensors C \
             WHERE |A.temp - B.temp| < {} AND B.temp - C.temp > {c} \
             SAMPLE PERIOD 30",
            c * 0.2
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// N drifting rounds at ε = 0: the delta-maintained filter and cached
    /// join state reproduce the fresh per-round execution bit for bit
    /// (same rows, same contributors), for every predicate class.
    #[test]
    fn incremental_rounds_equal_fresh_execution(
        seed in 0u64..1000,
        n in 60usize..110,
        template in 0usize..6,
        c in 2.0f64..5.0,
        resample_seeds in prop::collection::vec(0u64..10_000, 3..6),
    ) {
        let mut snet = build(seed, n);
        let cq = snet.compile(&parse(&sql(template, c)).unwrap()).unwrap();
        let mut cont = ContinuousSensJoin::new();
        for (round, rs) in resample_seeds.iter().enumerate() {
            snet.resample(&presets::indoor_climate(), *rs);
            let fresh = ExternalJoin.execute(&mut snet, &cq).unwrap();
            let out = cont.execute_round(&mut snet, &cq).unwrap();
            prop_assert!(
                fresh.result.same_result(&out.result),
                "template {template} round {round}: fresh {} rows vs incremental {}",
                fresh.result.len(),
                out.result.len()
            );
            prop_assert_eq!(
                &fresh.contributors,
                &out.contributors,
                "template {} round {}",
                template,
                round
            );
        }
    }
}

/// Alternating growth and shrinkage — population cells appear, move and
/// vanish across rounds (uncorrelated snapshots), stressing index removal
/// paths and the component-satisfiability flag rather than slow drift.
#[test]
fn churning_population_stays_exact() {
    let mut snet = build(21, 90);
    let cq = snet
        .compile(
            &parse(
                "SELECT A.hum, B.hum FROM Sensors A, Sensors B \
                 WHERE |A.temp - B.temp| < 0.5 SAMPLE PERIOD 10",
            )
            .unwrap(),
        )
        .unwrap();
    let mut cont = ContinuousSensJoin::new();
    for round in 0..6u64 {
        let fields = if round % 2 == 0 {
            presets::indoor_climate()
        } else {
            presets::uncorrelated()
        };
        snet.resample(&fields, 300 + round);
        let fresh = ExternalJoin.execute(&mut snet, &cq).unwrap();
        let out = cont.execute_round(&mut snet, &cq).unwrap();
        assert!(
            fresh.result.same_result(&out.result),
            "round {round}: {} vs {} rows",
            fresh.result.len(),
            out.result.len()
        );
        assert_eq!(fresh.contributors, out.contributors, "round {round}");
    }
}
