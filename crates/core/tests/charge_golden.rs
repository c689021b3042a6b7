//! What the protocols charge, pinned.
//!
//! The in-network phases size their messages with the quadtree size kernel
//! and charge them through interned phase ids and an allocation-free
//! lossless path. None of that may move a single byte, packet, microjoule
//! or microsecond: the values below were printed by the commit *before*
//! those changes (which serialized every message to measure it and charged
//! through a string-keyed map) and every later commit must reproduce them,
//! on any number of host threads.
//!
//! To re-pin after a deliberate protocol change, run with
//! `CHARGE_GOLDEN_PRINT=1 cargo test -p sensjoin-core --test charge_golden
//! -- --nocapture` and paste the printed blocks.

use sensjoin_core::persist::{get_net_snapshot, put_net_snapshot, Reader, Writer};
use sensjoin_core::{
    ContinuousSensJoin, JoinMethod, QueryGroup, SensJoin, SensJoinConfig, SensorNetwork,
    SensorNetworkBuilder,
};
use sensjoin_field::{presets, Area, Placement};
use sensjoin_query::parse;
use sensjoin_relation::NodeId;
use sensjoin_sim::{
    ArqPolicy, BaseChoice, Channel, ChurnAction, ChurnTimeline, LossModel, NetSnapshot,
    NetworkStats,
};
use std::fmt::Write;

const Q3: &str = "SELECT A.hum, B.hum FROM Sensors A, Sensors B \
                  WHERE |A.temp - B.temp| < 0.3 AND distance(A.x, A.y, B.x, B.y) > 100 ONCE";
const BAND_1D: &str = "SELECT A.hum, B.hum FROM Sensors A, Sensors B \
                       WHERE A.temp - B.temp > 3.0 ONCE";
const BAND_1D_CONT: &str = "SELECT A.hum, B.hum FROM Sensors A, Sensors B \
                            WHERE A.temp - B.temp > 3.0 SAMPLE PERIOD 30";
const GROUP: [&str; 4] = [
    "SELECT A.hum FROM Sensors A, Sensors B WHERE A.temp - B.temp > 2.0 SAMPLE PERIOD 30",
    "SELECT B.hum FROM Sensors A, Sensors B WHERE A.temp - B.temp > 4.0 SAMPLE PERIOD 30",
    "SELECT A.hum, B.hum FROM Sensors A, Sensors B WHERE |A.temp - B.temp| < 0.2 \
     SAMPLE PERIOD 30",
    "SELECT A.temp FROM Sensors A, Sensors B \
     WHERE |A.hum - B.hum| < 1.0 AND A.temp - B.temp > 1.0 SAMPLE PERIOD 30",
];

/// A fixed 300-node deployment with a corner base station (a deep tree, so
/// relays, Treecut and Selective Filter Forwarding all have work).
fn snet() -> SensorNetwork {
    SensorNetworkBuilder::new()
        .area(Area::new(520.0, 520.0))
        .placement(Placement::UniformRandom { n: 300 })
        .base(BaseChoice::NearestCorner)
        .seed(20090331)
        .build()
        .unwrap()
}

/// One line per charged phase — `tx_bytes`, `tx_packets`, the reliability
/// counters and the exact bits of the energy sum — then both latencies.
fn ledger(out: &mut String, what: &str, stats: &NetworkStats, pipelined: u64, slotted: u64) {
    writeln!(out, "{what}").unwrap();
    for (phase, s) in stats.phases() {
        writeln!(
            out,
            "  {phase}: tx {}B/{}p rx {}B/{}p retx {}B/{}p ack {}B/{}p lost {} energy {:#018x}",
            s.tx_bytes,
            s.tx_packets,
            s.rx_bytes,
            s.rx_packets,
            s.retx_bytes,
            s.retx_packets,
            s.ack_bytes,
            s.ack_packets,
            s.lost_packets,
            s.energy_uj.to_bits()
        )
        .unwrap();
    }
    writeln!(
        out,
        "  total energy {:#018x} latency {pipelined} slotted {slotted}",
        stats.total_energy_uj().to_bits()
    )
    .unwrap();
}

fn one_shot(sql: &str) -> String {
    one_shot_on(snet(), sql)
}

fn one_shot_on(mut s: SensorNetwork, sql: &str) -> String {
    let cq = s.compile(&parse(sql).unwrap()).unwrap();
    let o = SensJoin::default().execute(&mut s, &cq).unwrap();
    assert!(o.complete);
    let mut out = String::new();
    ledger(
        &mut out,
        &format!("one-shot, {} rows", o.result.len()),
        &o.stats,
        o.latency_us,
        o.latency_slotted_us,
    );
    out
}

/// The one-shot protocol over the same channel as `continuous_lossy`: every
/// filter message carries its one-byte tag and every Treecut handoff is
/// backed up, and retransmissions and ACKs are charged.
fn one_shot_lossy() -> String {
    let mut s = snet();
    s.net_mut().set_channel(Some(Channel::bernoulli(0.05, 77)));
    s.net_mut().set_arq(ArqPolicy::ack(16));
    one_shot_on(s, BAND_1D)
}

/// The one-shot protocol under a fixed churn schedule that reaches every
/// reconciliation path: a node gone before the start (so the start
/// population is not everyone), a Treecut proxy crashing after collection
/// (proxy re-election restores its rows at their origins), a relay with a
/// large subtree crashing after dissemination (the re-homed subtree ships in
/// pass-through), and the proxy rebooting at that same boundary (it
/// re-contributes its own reading). The base projects the result onto the
/// survivors and reports `complete = false`.
fn one_shot_churned() -> String {
    let mut s = snet();
    let base = s.base();
    let (early, proxy, relay) = {
        let tree = s.net().routing();
        let nodes = || (0..s.len() as u32).map(NodeId).filter(|&v| v != base);
        let leaf = |v: NodeId| tree.children(v).is_empty();
        // Q3 ships 8-byte tuples and `D_max` is 30: a node whose children
        // are three or more leaves cannot Treecut and proxies their tuples.
        let proxy = nodes()
            .find(|&v| tree.children(v).len() >= 3 && tree.children(v).iter().all(|&c| leaf(c)))
            .expect("a proxy of leaves");
        let relay = nodes()
            .find(|&v| tree.descendants(v) >= 12 && tree.parent(v) != Some(base))
            .expect("a deep relay");
        let early = nodes()
            .find(|&v| leaf(v) && tree.parent(v) != Some(proxy))
            .expect("a leaf");
        (early, proxy, relay)
    };
    let timeline = ChurnTimeline::new()
        .at_boundary(0, early, ChurnAction::Crash)
        .at_boundary(1, proxy, ChurnAction::Crash)
        .at_boundary(2, relay, ChurnAction::Crash)
        .at_boundary(2, proxy, ChurnAction::Revive);
    s.net_mut().set_churn(Some(timeline));
    let cq = s.compile(&parse(Q3).unwrap()).unwrap();
    let o = SensJoin::default().execute(&mut s, &cq).unwrap();
    let mut out = String::new();
    ledger(
        &mut out,
        &format!(
            "one-shot, {} rows, complete {} churned {}",
            o.result.len(),
            o.complete,
            o.churned
        ),
        &o.stats,
        o.latency_us,
        o.latency_slotted_us,
    );
    out
}

fn continuous_lossy() -> String {
    let mut s = snet();
    s.net_mut().set_channel(Some(Channel::bernoulli(0.05, 77)));
    s.net_mut().set_arq(ArqPolicy::ack(16));
    let cq = s.compile(&parse(BAND_1D_CONT).unwrap()).unwrap();
    let mut cont = ContinuousSensJoin::new();
    let specs = presets::indoor_climate();
    let mut out = String::new();
    for round in 0..3u64 {
        if round > 0 {
            s.resample(&specs, 1000 + round);
        }
        let o = cont.execute_round(&mut s, &cq).unwrap();
        assert!(o.complete);
        ledger(
            &mut out,
            &format!("round {round}, {} rows", o.result.len()),
            &o.stats,
            o.latency_us,
            o.latency_slotted_us,
        );
    }
    out
}

fn group_epoch() -> String {
    group_epoch_of(1)
}

/// `GROUP`'s four queries, each registered `copies` times (round-robin):
/// the copies subscribe to their query's one plan, so the wire carries
/// k = 4 however many tenants there are.
fn group_epoch_of(copies: usize) -> String {
    let mut s = snet();
    let mut group = QueryGroup::new(SensJoinConfig::default());
    for sql in GROUP.iter().cycle().take(GROUP.len() * copies) {
        let cq = s.compile(&parse(sql).unwrap()).unwrap();
        group.register(&s, cq, 1);
    }
    let r = group.execute_epoch(&mut s).unwrap();
    assert!(r.complete);
    assert_eq!(r.plans, GROUP.len());
    let mut out = String::new();
    ledger(
        &mut out,
        "k = 4 epoch",
        &r.stats,
        r.latency_us,
        r.latency_slotted_us,
    );
    for c in &r.solo_equivalent {
        writeln!(
            out,
            "  solo {:?}: collection {} filter {} final {}",
            c.id, c.collection_bytes, c.filter_bytes, c.final_bytes
        )
        .unwrap();
    }
    out
}

/// The checkpoint image of a network's mutable state: its length and FNV-1a
/// hash. Phases are charged in an order that is not label order (`repair`
/// first, then `3-…` before `1-…`); the per-phase table is written in label
/// order regardless, so a checkpoint written before the table became a dense
/// interned array still restores, and one written now is byte-identical to
/// it.
fn snapshot_image() -> String {
    let mut s = snet();
    let base = s.base();
    let kids = s.net().routing().children(base).to_vec();
    let victim = *kids
        .iter()
        .min_by_key(|&&c| s.net().routing().descendants(c))
        .unwrap();
    let kid = *kids.iter().find(|&&c| c != victim).unwrap();
    s.net_mut().fail_node(victim);
    s.net_mut().unicast(kid, base, 70, "3-final-result");
    s.net_mut()
        .broadcast(base, &[kid], 130, "2-filter-dissemination");
    s.net_mut()
        .unicast(kid, base, 9, "1-join-attribute-collection");
    s.net_mut().revive_node(victim);
    image_line(&s, |_| String::new())
}

/// The checkpoint image of a lossy network: Bernoulli loss under `ack(8)`
/// with one link's model overridden, and traffic up and down several links
/// (ACKs draw on the reverse links). It pins the per-link channel states —
/// their `(from, to)` order and their generator words — which the
/// channel-free image above does not hold.
fn lossy_snapshot_image() -> String {
    let mut s = snet();
    let base = s.base();
    let tree = s.net().routing().clone();
    let kids = tree.children(base).to_vec();
    let mut channel = Channel::bernoulli(0.3, 41);
    channel.set_link_model(kids[0], base, LossModel::Bernoulli { p: 0.6 });
    s.net_mut().set_channel(Some(channel));
    s.net_mut().set_arq(ArqPolicy::ack(8));
    for &kid in &kids {
        for &grandkid in tree.children(kid) {
            s.net_mut()
                .unicast(grandkid, kid, 60, "1-join-attribute-collection");
        }
        s.net_mut().unicast(kid, base, 70, "3-final-result");
        s.net_mut().unicast(base, kid, 40, "2-filter-dissemination");
    }
    s.net_mut()
        .broadcast(base, &kids, 130, "2-filter-dissemination");
    image_line(&s, |back| {
        let links = back.channel_states.as_ref().map_or(0, Vec::len);
        format!(", {links} link states")
    })
}

/// The length and FNV-1a hash of `s`'s network image, its phase labels and
/// whatever `extra` reads off the decoded snapshot.
fn image_line(s: &SensorNetwork, extra: impl Fn(&NetSnapshot) -> String) -> String {
    let mut w = Writer::new();
    put_net_snapshot(&mut w, &s.net().export_state());
    let bytes = w.into_bytes();
    // It decodes, and what it decodes to encodes to itself.
    let back = get_net_snapshot(&mut Reader::new(&bytes)).unwrap();
    let mut again = Writer::new();
    put_net_snapshot(&mut again, &back);
    assert_eq!(again.into_bytes(), bytes);
    let labels: Vec<&str> = back.stats.phases().map(|(l, _)| l).collect();
    let hash = bytes.iter().fold(0xcbf29ce484222325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100000001b3)
    });
    format!(
        "{} bytes, fnv1a {hash:#018x}, phases {labels:?}{}\n",
        bytes.len(),
        extra(&back)
    )
}

/// Runs `scenario` and holds it to `golden`.
fn pinned(name: &str, scenario: impl Fn() -> String, golden: &str) {
    let got = scenario();
    if std::env::var_os("CHARGE_GOLDEN_PRINT").is_some() {
        println!("---- {name}\n{got}----");
        return;
    }
    assert_eq!(got, golden, "{name}");
}

#[test]
fn sensjoin_q3_charges_are_pinned() {
    pinned("q3", || one_shot(Q3), GOLDEN_Q3);
}

#[test]
fn sensjoin_band_1d_charges_are_pinned() {
    pinned("band-1d", || one_shot(BAND_1D), GOLDEN_BAND_1D);
}

#[test]
fn one_shot_lossy_charges_are_pinned() {
    pinned("one-shot-lossy", one_shot_lossy, GOLDEN_ONE_SHOT_LOSSY);
}

#[test]
fn one_shot_churned_charges_are_pinned() {
    pinned(
        "one-shot-churned",
        one_shot_churned,
        GOLDEN_ONE_SHOT_CHURNED,
    );
}

#[test]
fn continuous_lossy_rounds_charges_are_pinned() {
    pinned("continuous", continuous_lossy, GOLDEN_CONTINUOUS);
}

#[test]
fn query_group_epoch_charges_are_pinned() {
    pinned("group", group_epoch, GOLDEN_GROUP);
}

/// Twelve tenants over `GROUP`'s four queries charge `GOLDEN_GROUP`'s ledger
/// byte for byte; only the per-tenant solo lines multiply.
#[test]
fn query_group_duplicates_charge_the_distinct_ledger() {
    let ledger_len = GOLDEN_GROUP.find("  solo ").unwrap();
    let golden = format!("{}{GOLDEN_GROUP_DUP_SOLO}", &GOLDEN_GROUP[..ledger_len]);
    pinned("group_dup", || group_epoch_of(3), &golden);
}

#[test]
fn snapshot_bytes_are_pinned() {
    pinned("snapshot", snapshot_image, GOLDEN_SNAPSHOT);
}

#[test]
fn lossy_snapshot_bytes_are_pinned() {
    pinned(
        "lossy-snapshot",
        lossy_snapshot_image,
        GOLDEN_LOSSY_SNAPSHOT,
    );
}

const GOLDEN_SNAPSHOT: &str = r#"2487 bytes, fnv1a 0x61521d654162ff30, phases ["1-join-attribute-collection", "2-filter-dissemination", "3-final-result", "repair"]
"#;
const GOLDEN_LOSSY_SNAPSHOT: &str = r#"3571 bytes, fnv1a 0xd2da5f91b6a3ea8d, phases ["1-join-attribute-collection", "2-filter-dissemination", "3-final-result"], 18 link states
"#;
const GOLDEN_Q3: &str = r"one-shot, 5498 rows
  1-join-attribute-collection: tx 9659B/409p rx 9659B/409p retx 0B/0p ack 0B/0p lost 0 energy 0x4110576b3333332a
  2-filter-dissemination: tx 7421B/188p rx 10806B/266p retx 0B/0p ack 0B/0p lost 0 energy 0x4103b290ccccccdb
  3-final-result: tx 25280B/561p rx 25280B/561p retx 0B/0p ack 0B/0p lost 0 energy 0x41190ee6666665fb
  total energy 0x41299fcd00000013 latency 805360 slotted 825936
";
const GOLDEN_BAND_1D: &str = r"one-shot, 10113 rows
  1-join-attribute-collection: tx 2107B/298p rx 2107B/298p retx 0B/0p ack 0B/0p lost 0 energy 0x4105a57000000003
  2-filter-dissemination: tx 682B/59p rx 830B/68p retx 0B/0p ack 0B/0p lost 0 energy 0x40e2ef9ccccccccd
  3-final-result: tx 12428B/289p rx 12428B/289p retx 0B/0p ack 0B/0p lost 0 energy 0x41098e59999999a0
  total energy 0x4119f7d866666664 latency 355600 slotted 367824
";
const GOLDEN_ONE_SHOT_LOSSY: &str = r"one-shot, 10113 rows
  1-join-attribute-collection: tx 2107B/298p rx 2107B/298p retx 179B/33p ack 634B/317p lost 0 energy 0x4116980f999999a3
  2-filter-dissemination: tx 741B/59p rx 898B/68p retx 182B/11p ack 142B/71p lost 0 energy 0x40f4699999999995
  3-final-result: tx 12428B/289p rx 12428B/289p retx 1440B/32p ack 606B/303p lost 0 energy 0x4118401666666639
  total energy 0x4129f9463333331c latency 488112 slotted 575392
";
const GOLDEN_ONE_SHOT_CHURNED: &str = r"one-shot, 5402 rows, complete false churned true
  1-join-attribute-collection: tx 9633B/408p rx 9633B/408p retx 0B/0p ack 0B/0p lost 0 energy 0x41104d0e6666665d
  2-filter-dissemination: tx 7397B/187p rx 10774B/265p retx 0B/0p ack 0B/0p lost 0 energy 0x41039d9733333342
  3-final-result: tx 25152B/561p rx 25152B/561p retx 0B/0p ack 0B/0p lost 0 energy 0x411907b3333332c8
  repair: tx 0B/0p rx 0B/0p retx 0B/0p ack 640B/80p lost 0 energy 0x40f4b2ae66666674
  total energy 0x412c281c6666667c latency 798800 slotted 821264
";
const GOLDEN_CONTINUOUS: &str = r"round 0, 10113 rows
  1-delta-collection: tx 5845B/365p rx 5845B/365p retx 817B/47p ack 786B/393p lost 0 energy 0x411cc4e8cccccc7d
  2-filter-delta: tx 1088B/120p rx 2905B/298p retx 195B/28p ack 624B/312p lost 0 energy 0x411316a133333345
  3-final-delta: tx 13844B/519p rx 13844B/519p retx 1440B/58p ack 1100B/550p lost 0 energy 0x4124dab3cccccc73
  total energy 0x4136643c66666667 latency 625456 slotted 731856
round 1, 7640 rows
  1-delta-collection: tx 10901B/451p rx 10901B/451p retx 1464B/55p ack 960B/480p lost 0 energy 0x41221a9499999978
  2-filter-delta: tx 1634B/120p rx 4498B/298p retx 351B/25p ack 612B/306p lost 0 energy 0x41131610ccccccf1
  3-final-delta: tx 13844B/519p rx 13844B/519p retx 1520B/55p ack 1110B/555p lost 0 energy 0x4124f29b66666607
  total energy 0x41384c1c33333333 latency 761392 slotted 839072
round 2, 6832 rows
  1-delta-collection: tx 11094B/459p rx 11094B/459p retx 623B/37p ack 954B/477p lost 0 energy 0x4121f9c133333317
  2-filter-delta: tx 1117B/120p rx 3075B/298p retx 303B/29p ack 634B/317p lost 0 energy 0x411350326666668b
  3-final-delta: tx 13050B/504p rx 13050B/504p retx 1630B/57p ack 1078B/539p lost 0 energy 0x4124560f99999947
  total energy 0x4137fbf4fffffffd latency 693200 slotted 811392
";
const GOLDEN_GROUP: &str = r"k = 4 epoch
  1-join-attribute-collection: tx 4664B/333p rx 4664B/333p retx 0B/0p ack 0B/0p lost 0 energy 0x4109341999999999
  2-filter-dissemination: tx 4107B/115p rx 5098B/142p retx 0B/0p ack 0B/0p lost 0 energy 0x40f5d8e666666670
  3-final-result: tx 15535B/357p rx 15535B/357p retx 0B/0p ack 0B/0p lost 0 energy 0x410fa64999999996
  total energy 0x4120f1b599999997 latency 505456 slotted 518928
  solo QueryId(0): collection 2107 filter 687 final 12428
  solo QueryId(1): collection 2107 filter 497 final 9284
  solo QueryId(2): collection 2107 filter 629 final 12428
  solo QueryId(3): collection 3532 filter 2324 final 12228
";
const GOLDEN_GROUP_DUP_SOLO: &str = r"  solo QueryId(0): collection 2107 filter 687 final 12428
  solo QueryId(1): collection 2107 filter 497 final 9284
  solo QueryId(2): collection 2107 filter 629 final 12428
  solo QueryId(3): collection 3532 filter 2324 final 12228
  solo QueryId(4): collection 2107 filter 687 final 12428
  solo QueryId(5): collection 2107 filter 497 final 9284
  solo QueryId(6): collection 2107 filter 629 final 12428
  solo QueryId(7): collection 3532 filter 2324 final 12228
  solo QueryId(8): collection 2107 filter 687 final 12428
  solo QueryId(9): collection 2107 filter 497 final 9284
  solo QueryId(10): collection 2107 filter 629 final 12428
  solo QueryId(11): collection 3532 filter 2324 final 12228
";
