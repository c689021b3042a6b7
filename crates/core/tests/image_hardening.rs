//! The continuous executor's checkpoint (its own image, then the network's)
//! on damaged bytes: whatever restores is an executor that runs on its
//! network, the rest is a `CodecError` or a `NetworkError` — never a panic at
//! restore, and never one later from a table that indexes past another.
//! Same sweep as `crates/serve/tests/restore_hardening.rs`; the `stream`
//! image's is in `crates/cli/src/commands.rs`.

use sensjoin_core::persist::{self, Reader, Writer};
use sensjoin_core::{ContinuousSensJoin, ProtocolError, SensorNetwork, SensorNetworkBuilder};
use sensjoin_field::{presets, Area, Placement};
use sensjoin_query::{parse, CompiledQuery};
use sensjoin_relation::NodeId;
use sensjoin_sim::{ArqPolicy, BatteryBank, Channel, ChurnAction, ChurnTimeline};

const SQL: &str = "SELECT A.hum, B.hum FROM Sensors A, Sensors B \
                   WHERE A.temp - B.temp > 0.1 SAMPLE PERIOD 30";

/// Between the warm round's debits of the sweep's busiest relays and of the
/// rest.
const BATTERY_UJ: f64 = 4000.0;

fn plain_network(n: usize) -> (SensorNetwork, CompiledQuery) {
    let snet = SensorNetworkBuilder::new()
        .area(Area::new(120.0, 120.0))
        .placement(Placement::UniformRandom { n })
        .fields(presets::indoor_climate())
        .seed(5)
        .build()
        .unwrap();
    let cq = snet.compile(&parse(SQL).unwrap()).unwrap();
    (snet, cq)
}

/// A network with every optional part of a `NetSnapshot` switched on: lossy
/// channel under ARQ, a churn schedule, a battery bank and (once
/// [`checkpoint`] has run) a trace.
fn faulty_network(n: usize) -> (SensorNetwork, CompiledQuery) {
    let (mut snet, cq) = plain_network(n);
    let base = snet.base();
    let net = snet.net_mut();
    net.set_channel(Some(Channel::bernoulli(0.05, 7)));
    net.set_arq(ArqPolicy::AckRetransmit { max_retries: 8 });
    // Churn due far in the future (sampled) and at the two boundaries after
    // the checkpoint; batteries small enough that the warm round exhausts
    // some, so the image has first-crossings not yet applied.
    let victim = NodeId(if base.0 == 0 { 1 } else { 0 });
    let churn = ChurnTimeline::sample(n, base, 60e6, 30e6, 200_000_000, 13)
        .at_boundary(1, victim, ChurnAction::Crash)
        .at_boundary(2, victim, ChurnAction::Revive);
    net.set_churn(Some(churn));
    net.set_battery(Some(BatteryBank::uniform(n, base, BATTERY_UJ)));
    (snet, cq)
}

/// The checkpoint a driver writes after a round: the executor's image, then
/// the network's. Tracing starts here, so the trace is the checkpoint row
/// alone and the sweep stays small.
/// Returns the bytes and how many of them are the executor's.
fn checkpoint(cont: &ContinuousSensJoin, snet: &mut SensorNetwork) -> (Vec<u8>, usize) {
    snet.net_mut().set_tracing(true);
    snet.net_mut().note_checkpoint("continuous");
    let mut w = Writer::new();
    cont.encode_state(&mut w);
    let executor_bytes = w.len();
    persist::put_net_snapshot(&mut w, &snet.net().export_state());
    (w.into_bytes(), executor_bytes)
}

/// Restores `bytes` the way a resuming process does: a fresh executor and a
/// network rebuilt from its recipe (`fresh`, cloned). `None` is a structured
/// refusal.
fn restore(
    bytes: &[u8],
    fresh: &SensorNetwork,
    cq: &CompiledQuery,
) -> Option<(ContinuousSensJoin, SensorNetwork)> {
    let mut cont = ContinuousSensJoin::new();
    let mut r = Reader::new(bytes);
    cont.restore_state(&mut r, cq).ok()?;
    let snap = persist::get_net_snapshot(&mut r).ok()?;
    r.expect_end().ok()?;
    let mut snet = fresh.clone();
    snet.net_mut().restore_state(&snap).ok()?;
    Some((cont, snet))
}

/// Sweeps the checkpoint of a warm executor and its network over the bytes
/// of one half — the executor's image or the network's: cut at every length,
/// and every byte overwritten by `00`, `01`, `40` and `FF`, it either fails
/// structurally or restores to an executor that runs two rounds, the first
/// on readings that moved since the checkpoint, the second on none.
fn sweep(half: Half) {
    let (built, cq) = faulty_network(10);
    let mut snet = built.clone();
    let mut cont = ContinuousSensJoin::new();
    let warm = cont.execute_round(&mut snet, &cq).unwrap();
    assert!(!warm.result.is_empty(), "the image holds no shipped tuple");
    let (full, executor_bytes) = checkpoint(&cont, &mut snet);
    let battery = snet.net().export_state().battery.unwrap();
    assert!(!battery.pending.is_empty(), "no first-crossing is pending");
    let mut fresh = built;
    fresh.resample(&presets::indoor_climate(), 70);
    assert!(restore(&full, &fresh, &cq).is_some());
    let range = match half {
        Half::Executor => 0..executor_bytes,
        Half::Network => executor_bytes..full.len(),
    };

    for cut in range.clone() {
        assert!(
            restore(&full[..cut], &fresh, &cq).is_none(),
            "cut at {cut} of {}",
            full.len()
        );
    }

    let mut restored = 0;
    for at in range {
        for byte in [0x00, 0x01, 0x40, 0xFF] {
            if full[at] == byte {
                continue;
            }
            let mut bytes = full.clone();
            bytes[at] = byte;
            let Some((mut cont, mut snet)) = restore(&bytes, &fresh, &cq) else {
                continue;
            };
            restored += 1;
            for round in 0..2 {
                // An executor image that does not fit the network is the one
                // structured failure a round may report.
                match cont.execute_round(&mut snet, &cq) {
                    Ok(_) | Err(ProtocolError::ForeignCheckpoint) => {}
                    Err(e) => panic!("byte {at} = {byte:#04x}, round {round}: {e}"),
                }
            }
        }
    }
    assert!(restored > 0, "the sweep never reached a round");
}

enum Half {
    Executor,
    Network,
}

#[test]
fn continuous_image_never_panics() {
    sweep(Half::Executor);
}

#[test]
fn network_image_never_panics() {
    sweep(Half::Network);
}

/// An executor restored from another deployment's checkpoint fails its next
/// round with a structured error instead of indexing past its tables.
#[test]
fn executor_on_the_wrong_network_is_a_structured_error() {
    let (mut small, cq) = plain_network(14);
    let mut cont = ContinuousSensJoin::new();
    cont.execute_round(&mut small, &cq).unwrap();
    let mut w = Writer::new();
    cont.encode_state(&mut w);
    let bytes = w.into_bytes();
    for n in [9, 20] {
        let (mut other, cq) = plain_network(n);
        let mut resumed = ContinuousSensJoin::new();
        resumed
            .restore_state(&mut Reader::new(&bytes), &cq)
            .unwrap();
        assert_eq!(
            resumed.execute_round(&mut other, &cq).err(),
            Some(ProtocolError::ForeignCheckpoint),
            "{n} nodes"
        );
    }
}

/// The image holds inputs only: its size per node is pinned, so a derived
/// structure (per-node subtree counts were 61 % of the version-5 image, the
/// stream's live tuples 37 % of the version-6 one) cannot creep back in
/// unnoticed.
#[test]
fn image_bytes_per_node_are_pinned() {
    const N: usize = 300;
    let (mut snet, cq) = plain_network(N);
    let mut cont = ContinuousSensJoin::new();
    for round in 0..3 {
        snet.resample(&presets::indoor_climate(), 70 + round);
        cont.execute_round(&mut snet, &cq).unwrap();
    }
    let mut w = Writer::new();
    cont.encode_state(&mut w);
    // 213.0 when pinned: a baseline cell and filter view and the master
    // values of each of the 300 (all matching) nodes.
    let per_node = w.len() as f64 / N as f64;
    assert!(
        (205.5..220.5).contains(&per_node),
        "{per_node:.1} executor-image bytes per node"
    );
}
