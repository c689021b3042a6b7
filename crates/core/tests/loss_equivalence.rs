//! Bit-identity of query results under per-packet loss.
//!
//! The reliability subsystem's contract: as long as the hop-by-hop ARQ
//! budget absorbs every loss, a lossy execution produces *exactly* the
//! result of a lossless one — same rows, bitwise — for any loss rate and
//! both channel models. The extra cost is visible only in the retransmit /
//! ack counters and energy, never in the answer.

use proptest::prelude::*;
use sensjoin_core::{
    ContinuousSensJoin, ExternalJoin, JoinMethod, JoinResult, QueryGroup, SensJoin, SensJoinConfig,
    SensorNetwork, SensorNetworkBuilder, PHASE_COLLECTION, PHASE_FILTER,
};
use sensjoin_field::{presets, Area, Placement};
use sensjoin_query::parse;
use sensjoin_sim::{ArqPolicy, Channel};

/// The paper's Q1: the minimal distance between two points with a
/// temperature difference over a threshold, here one every seed's field
/// spans.
const Q1: &str = "SELECT MIN(distance(A.x, A.y, B.x, B.y)) FROM Sensors A, Sensors B \
                  WHERE A.temp - B.temp > 1.0 ONCE";

/// An equality join: each node pairs with itself at least.
const EQUI: &str = "SELECT A.hum, B.temp FROM Sensors A, Sensors B WHERE A.temp = B.temp ONCE";

/// The observed temperature span of `s`'s readings (`attr_bounds` widens
/// it by 5 % on each side).
fn temp_span(s: &SensorNetwork) -> f64 {
    let (lo, hi) = s.attr_bounds("temp").expect("a temp attribute");
    (hi - lo) / 1.1
}

/// The smallest temperature span of the fields a continuous test of `seed`
/// draws on `s` over `rounds` rounds.
fn min_span(s: &SensorNetwork, seed: u64, rounds: u64) -> f64 {
    let mut probe = s.clone();
    let mut span = temp_span(&probe);
    for round in 1..rounds {
        probe.resample(&presets::indoor_climate(), seed.wrapping_add(round));
        span = span.min(temp_span(&probe));
    }
    span
}

/// The band join, its threshold half of `span`: readings that span as much
/// answer the pair of their extremes at least.
fn band(span: f64) -> String {
    format!(
        "SELECT A.hum, B.hum FROM Sensors A, Sensors B WHERE A.temp - B.temp > {:.3} ONCE",
        span / 2.0
    )
}

/// The band join over readings that span `span`, [`Q1`] and [`EQUI`].
fn queries(span: f64) -> [String; 3] {
    [band(span), Q1.to_owned(), EQUI.to_owned()]
}

/// Whether a result holds a row or a non-empty aggregate: the premise that
/// makes a bit-identity check of it say something.
fn answers_something(result: &JoinResult) -> bool {
    match result {
        JoinResult::Rows(rows) => !rows.is_empty(),
        JoinResult::Aggregate(values) => values.iter().any(Option::is_some),
    }
}

/// The continuous form of a `ONCE` query.
fn continuous(sql: &str) -> String {
    sql.replace("ONCE", "SAMPLE PERIOD 30")
}

fn snet(n: usize, seed: u64) -> SensorNetwork {
    SensorNetworkBuilder::new()
        .area(Area::new(300.0, 300.0))
        .placement(Placement::UniformRandom { n })
        .seed(seed)
        .build()
        .unwrap()
}

/// A retry budget no test-scale loss rate survives.
const AMPLE: ArqPolicy = ArqPolicy::AckRetransmit { max_retries: 64 };

/// Strategy: loss rate up to 0.2, Bernoulli or bursty Gilbert-Elliott.
fn channel_strategy() -> impl Strategy<Value = (f64, Option<f64>, u64)> {
    (
        0.0..=0.2f64,
        prop_oneof![Just(None), (2.0..6.0f64).prop_map(Some)],
        0..u64::MAX,
    )
}

fn make_channel(p: f64, burst: Option<f64>, seed: u64) -> Channel {
    match burst {
        Some(b) => Channel::gilbert_elliott(p, b, seed),
        None => Channel::bernoulli(p, seed),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// One-shot SENS-Join and external join: lossy == lossless, bitwise.
    #[test]
    fn one_shot_bit_identity(
        seed in 1..64u64,
        (p, burst, chseed) in channel_strategy(),
        ack in any::<bool>(),
    ) {
        for sql in queries(temp_span(&snet(90, seed))) {
            let mut s = snet(90, seed);
            let cq = s.compile(&parse(&sql).unwrap()).unwrap();
            let reference = SensJoin::default().execute(&mut s, &cq).unwrap();
            let ext_reference = ExternalJoin.execute(&mut s, &cq).unwrap();
            prop_assert!(answers_something(&reference.result), "{} answers nothing", sql);

            s.net_mut().set_channel(Some(make_channel(p, burst, chseed)));
            s.net_mut().set_arq(if ack {
                AMPLE
            } else {
                ArqPolicy::SummaryRepair { max_rounds: 64 }
            });

            let lossy = SensJoin::default().execute(&mut s, &cq).unwrap();
            prop_assert!(lossy.complete, "{}", sql);
            prop_assert!(lossy.result.same_result(&reference.result), "{}", sql);

            let lossy_ext = ExternalJoin.execute(&mut s, &cq).unwrap();
            prop_assert!(lossy_ext.complete, "{}", sql);
            prop_assert!(lossy_ext.result.same_result(&ext_reference.result), "{}", sql);
            // The external join's messages are untagged: its first-attempt
            // traffic is exactly the lossless traffic, whatever the loss rate.
            prop_assert_eq!(
                lossy_ext.stats.total_tx_bytes(),
                ext_reference.stats.total_tx_bytes()
            );

            // tx counters are first-attempt-only: they may not depend on
            // *which* packets the channel happened to eat.
            s.net_mut()
                .set_channel(Some(make_channel(p, burst, chseed.wrapping_add(1))));
            let reseeded = SensJoin::default().execute(&mut s, &cq).unwrap();
            prop_assert_eq!(
                reseeded.stats.total_tx_bytes(),
                lossy.stats.total_tx_bytes()
            );
        }
    }

    /// Continuous rounds with data drift: every round's result matches the
    /// lossless executor's, and the incremental state never desyncs.
    #[test]
    fn continuous_bit_identity(
        seed in 1..32u64,
        (p, burst, chseed) in channel_strategy(),
    ) {
        for once in queries(min_span(&snet(70, seed), seed, 4)) {
            let sql = continuous(&once);
            let mut clean = snet(70, seed);
            let mut lossy = snet(70, seed);
            lossy.net_mut().set_channel(Some(make_channel(p, burst, chseed)));
            lossy.net_mut().set_arq(AMPLE);
            let cq_clean = clean.compile(&parse(&sql).unwrap()).unwrap();
            let cq_lossy = lossy.compile(&parse(&sql).unwrap()).unwrap();
            let mut cont_clean = ContinuousSensJoin::new();
            let mut cont_lossy = ContinuousSensJoin::new();
            let specs = presets::indoor_climate();
            for round in 0..4u64 {
                if round > 0 {
                    clean.resample(&specs, seed.wrapping_add(round));
                    lossy.resample(&specs, seed.wrapping_add(round));
                }
                let a = cont_clean.execute_round(&mut clean, &cq_clean).unwrap();
                let b = cont_lossy.execute_round(&mut lossy, &cq_lossy).unwrap();
                let answers = answers_something(&a.result);
                prop_assert!(answers, "{}: round {} answers nothing", sql, round);
                prop_assert!(b.complete, "{}: round {} incomplete", sql, round);
                let same = a.result.same_result(&b.result);
                prop_assert!(same, "{}: round {} diverged", sql, round);
            }
        }
    }

    /// Multi-query epochs: per-query results match solo lossless runs.
    #[test]
    fn multi_query_bit_identity(
        seed in 1..32u64,
        (p, burst, chseed) in channel_strategy(),
    ) {
        let mut clean = snet(70, seed);
        let mut lossy = snet(70, seed);
        lossy.net_mut().set_channel(Some(make_channel(p, burst, chseed)));
        lossy.net_mut().set_arq(AMPLE);
        let sqls = [
            "SELECT A.hum FROM Sensors A, Sensors B \
             WHERE A.temp - B.temp > 2.0 SAMPLE PERIOD 30",
            "SELECT B.hum FROM Sensors A, Sensors B \
             WHERE A.temp - B.temp > 4.0 SAMPLE PERIOD 30",
        ];
        let mut group_clean = QueryGroup::new(SensJoinConfig::default());
        let mut group_lossy = QueryGroup::new(SensJoinConfig::default());
        for sql in sqls {
            let q = parse(sql).unwrap();
            let cqc = clean.compile(&q).unwrap();
            let cql = lossy.compile(&q).unwrap();
            group_clean.register(&clean, cqc, 1);
            group_lossy.register(&lossy, cql, 1);
        }
        for epoch in 0..3u64 {
            let a = group_clean.execute_epoch(&mut clean).unwrap();
            let b = group_lossy.execute_epoch(&mut lossy).unwrap();
            prop_assert!(b.complete, "epoch {} incomplete", epoch);
            prop_assert_eq!(a.outcomes.len(), b.outcomes.len());
            for (oa, ob) in a.outcomes.iter().zip(&b.outcomes) {
                prop_assert!(oa.result.same_result(&ob.result), "epoch {} diverged", epoch);
            }
            let specs = presets::indoor_climate();
            clean.resample(&specs, seed.wrapping_add(epoch));
            lossy.resample(&specs, seed.wrapping_add(epoch));
        }
    }
}

/// Starvation check: with loss confined to the collection and filter phases
/// and NO reliability at all, the conservative fallbacks (pass-through on
/// damage) still deliver the exact result — only the final phase actually
/// needs its data to arrive.
#[test]
fn conservative_fallback_is_exact_without_arq() {
    let mut exercised = false;
    for seed in 1..12u64 {
        let mut s = snet(80, seed);
        let cq = s.compile(&parse(&band(temp_span(&s))).unwrap()).unwrap();
        let reference = SensJoin::default().execute(&mut s, &cq).unwrap();
        let channel = Channel::bernoulli(0.15, seed.wrapping_mul(31))
            .scope_to_phases([PHASE_COLLECTION, PHASE_FILTER]);
        s.net_mut().set_channel(Some(channel));
        s.net_mut().set_arq(ArqPolicy::None);
        let lossy = SensJoin::default().execute(&mut s, &cq).unwrap();
        assert!(lossy.complete, "final phase was clean by construction");
        assert!(
            lossy.result.same_result(&reference.result),
            "seed {seed}: conservative fallback dropped a real result"
        );
        exercised |= lossy.stats.total_lost_packets() > 0;
    }
    assert!(exercised, "no packet was ever lost — test is vacuous");
}

/// The same starvation check for a k = 3 epoch: a query group degrades per
/// subtree exactly as a one-shot does, so loss confined to the collection
/// and filter phases with no reliability at all still leaves every query's
/// result exact and the epoch `complete` — no retry needed.
#[test]
fn group_conservative_fallback_is_exact_without_arq() {
    let sqls = [
        "SELECT A.hum FROM Sensors A, Sensors B \
         WHERE A.temp - B.temp > 2.0 SAMPLE PERIOD 30",
        "SELECT B.hum FROM Sensors A, Sensors B \
         WHERE A.temp - B.temp > 4.0 SAMPLE PERIOD 30",
        "SELECT A.temp FROM Sensors A, Sensors B \
         WHERE |A.hum - B.hum| < 1.0 AND A.temp - B.temp > 1.0 SAMPLE PERIOD 30",
    ];
    let epoch = |s: &mut SensorNetwork| {
        let mut group = QueryGroup::new(SensJoinConfig::default());
        for sql in sqls {
            let cq = s.compile(&parse(sql).unwrap()).unwrap();
            group.register(s, cq, 1);
        }
        group.execute_epoch(s).unwrap()
    };
    let mut exercised = false;
    for seed in 1..12u64 {
        let mut s = snet(80, seed);
        let reference = epoch(&mut s);
        let channel = Channel::bernoulli(0.15, seed.wrapping_mul(31))
            .scope_to_phases([PHASE_COLLECTION, PHASE_FILTER]);
        s.net_mut().set_channel(Some(channel));
        s.net_mut().set_arq(ArqPolicy::None);
        let lossy = epoch(&mut s);
        // Hence one attempt: the retry loop fires on `!complete` alone.
        assert!(lossy.complete, "final phase was clean by construction");
        assert_eq!(lossy.outcomes.len(), sqls.len());
        for (a, b) in reference.outcomes.iter().zip(&lossy.outcomes) {
            assert!(
                a.result.same_result(&b.result),
                "seed {seed}, {:?}: conservative fallback dropped a real result",
                a.id
            );
        }
        exercised |= lossy.stats.total_lost_packets() > 0;
    }
    assert!(exercised, "no packet was ever lost — test is vacuous");
}

/// A zero-loss channel (with ARQ armed) reproduces the lossless byte counts
/// exactly: reliability must be free when the channel is clean.
#[test]
fn zero_loss_is_byte_identical() {
    let mut s = snet(100, 5);
    let cq = s.compile(&parse(&band(temp_span(&s))).unwrap()).unwrap();
    let reference = SensJoin::default().execute(&mut s, &cq).unwrap();
    s.net_mut().set_channel(Some(Channel::bernoulli(0.0, 3)));
    s.net_mut().set_arq(AMPLE);
    let zero = SensJoin::default().execute(&mut s, &cq).unwrap();
    assert!(zero.complete);
    assert!(zero.result.same_result(&reference.result));
    assert_eq!(
        zero.stats.total_tx_bytes(),
        reference.stats.total_tx_bytes()
    );
    assert_eq!(
        zero.stats.total_tx_packets(),
        reference.stats.total_tx_packets()
    );
    assert_eq!(zero.stats.total_overhead_bytes(), 0);
    assert_eq!(zero.stats.total_retx_packets(), 0);
    assert_eq!(zero.stats.total_ack_packets(), 0);
    assert_eq!(zero.latency_us, reference.latency_us);
}
