//! The continuous executor's checkpoint (its own image, then the network's)
//! on damaged bytes: whatever restores is an executor that runs on its
//! network, the rest is a `CodecError` or a `NetworkError` — never a panic at
//! restore, and never one later from a table that indexes past another.
//! Same sweep as `crates/serve/tests/restore_hardening.rs`; the `stream`
//! image's is in `crates/cli/src/commands.rs`.

use sensjoin_core::persist::{self, CodecError, Persist, Reader, Writer};
use sensjoin_core::{ContinuousSensJoin, ProtocolError, SensorNetwork, SensorNetworkBuilder};
use sensjoin_field::{presets, Area, Placement};
use sensjoin_quadtree::{Point, RelFlags, TreeShape};
use sensjoin_query::{parse, CompiledQuery};
use sensjoin_relation::NodeId;
use sensjoin_sim::{ArqPolicy, BatteryBank, Channel, ChurnAction, ChurnTimeline, DeltaBatchStats};

mod counting;
use counting::{allocations, largest_allocation, serial};

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

/// The image holds inputs only, in packed columns: its size per node is
/// pinned, so a derived structure (per-node subtree counts were 61 % of the
/// version-5 image, the stream's live tuples 37 % of the version-6 one) or
/// an element-by-element table (213.0 bytes a node in version 8) cannot
/// creep back in unnoticed.
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
    // 67.0 when pinned: per node two presence bits, a packed baseline cell,
    // a view length and the view's packed points, and the master values
    // of each of the 300 (all matching) nodes as raw bits.
    let per_node = w.len() as f64 / N as f64;
    assert!(
        (64.5..69.5).contains(&per_node),
        "{per_node:.1} executor-image bytes per node"
    );
}

/// The space's dimension ranges as an image holds them.
type Dims = Vec<(String, f64, f64, f64)>;

/// A warm executor image taken apart into its v9 columns, to be put back
/// together with one of them broken.
struct Columns {
    /// The accounting and the warm flag, before the space.
    lead: Vec<u8>,
    dims: Dims,
    shape: TreeShape,
    nodes: usize,
    cell_bitmap: Vec<u8>,
    cells: Vec<Point>,
    /// The values' bitmap, width and rows, as written.
    values: Vec<u8>,
    view_lens: Vec<u32>,
    view_points: Vec<Point>,
    rounds: u64,
}

impl Columns {
    fn parse(image: &[u8], cq: &CompiledQuery) -> Self {
        let mut r = Reader::new(image);
        DeltaBatchStats::get(&mut r).unwrap();
        r.get_u64().unwrap();
        assert!(r.get_bool().unwrap(), "a warm image");
        let lead = image[..image.len() - r.remaining()].to_vec();
        let dims: Dims = Persist::get(&mut r).unwrap();
        let shape = persist::join_space_from_parts(cq, dims.clone())
            .unwrap()
            .shape()
            .clone();
        let nodes = r.get_usize().unwrap();
        let cell_bitmap = r.get_bitmap(nodes).unwrap().to_vec();
        let marked = cell_bitmap.iter().map(|b| b.count_ones() as usize).sum();
        let mut cells = Vec::new();
        persist::get_points(&mut r, &shape, marked, &mut cells).unwrap();
        let at = image.len() - r.remaining();
        let shipped: usize = r
            .get_bitmap(nodes)
            .unwrap()
            .iter()
            .map(|b| b.count_ones() as usize)
            .sum();
        let width = r.get_usize().unwrap();
        r.get_f64s(shipped * width).unwrap();
        let values = image[at..image.len() - r.remaining()].to_vec();
        assert_eq!(r.get_usize().unwrap(), nodes);
        let lens = r.get_raw(4 * nodes).unwrap().chunks(4);
        let view_lens: Vec<u32> = lens
            .map(|b| u32::from_le_bytes(b.try_into().unwrap()))
            .collect();
        let total = view_lens.iter().sum::<u32>() as usize;
        let mut view_points = Vec::new();
        persist::get_points(&mut r, &shape, total, &mut view_points).unwrap();
        let rounds = r.get_u64().unwrap();
        r.expect_end().unwrap();
        Columns {
            lead,
            dims,
            shape,
            nodes,
            cell_bitmap,
            cells,
            values,
            view_lens,
            view_points,
            rounds,
        }
    }

    fn image(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_raw(&self.lead);
        self.dims.put(&mut w);
        w.put_usize(self.nodes);
        w.put_raw(&self.cell_bitmap);
        persist::put_points(&mut w, &self.shape, self.cells.len(), &self.cells);
        w.put_raw(&self.values);
        w.put_fixed(self.view_lens.iter(), |len| len.to_le_bytes());
        let points = &self.view_points;
        persist::put_points(&mut w, &self.shape, points.len(), points);
        w.put_u64(self.rounds);
        w.into_bytes()
    }

    /// The image with `edit` applied to its columns.
    fn edited(&self, edit: impl FnOnce(&mut Columns)) -> Vec<u8> {
        let mut broken = Columns {
            lead: self.lead.clone(),
            dims: self.dims.clone(),
            shape: self.shape.clone(),
            cell_bitmap: self.cell_bitmap.clone(),
            cells: self.cells.clone(),
            values: self.values.clone(),
            view_lens: self.view_lens.clone(),
            view_points: self.view_points.clone(),
            ..*self
        };
        edit(&mut broken);
        broken.image()
    }

    /// The first view of two points or more: its node and where its points
    /// start.
    fn long_view(&self) -> (usize, usize) {
        let mut start = 0;
        for (v, &len) in self.view_lens.iter().enumerate() {
            if len >= 2 {
                return (v, start);
            }
            start += len as usize;
        }
        panic!("no view holds two points");
    }
}

/// The executor restored from `image` alone, or why not.
fn restore_executor(image: &[u8], cq: &CompiledQuery) -> Result<(), CodecError> {
    let mut r = Reader::new(image);
    ContinuousSensJoin::new().restore_state(&mut r, cq)?;
    r.expect_end()
}

/// v9's columns with one of them broken — a bitmap cut short, a view
/// longer than its bytes, a cell written under a wider space than the image
/// states (the one way a z at or above `2^z_bits` can reach the decoder:
/// the packed width comes from the stated space), flags naming no relation,
/// a view out of order or repeating a cell — are each refused with the
/// error that names them, and none allocates more at once than restoring
/// the intact image does.
#[test]
fn v9_columns_refuse_what_they_cannot_hold() {
    let _guard = serial();
    let (mut snet, cq) = plain_network(10);
    let mut cont = ContinuousSensJoin::new();
    cont.execute_round(&mut snet, &cq).unwrap();
    let mut w = Writer::new();
    cont.encode_state(&mut w);
    let image = w.into_bytes();
    let cols = Columns::parse(&image, &cq);
    assert_eq!(cols.image(), image, "the columns put back together");
    let (honest, restored) = largest_allocation(|| restore_executor(&image, &cq));
    restored.unwrap();

    let length = CodecError::Invariant("packed column of another length");
    let no_relation = CodecError::Invariant("cell of no relation");
    let unsorted = CodecError::Invariant("view not strictly sorted");
    let bitmap_at = cols.lead.len() + cols.dims.to_bytes().len() + 8;
    let (long, start) = cols.long_view();
    let narrower = {
        let mut dims = cols.dims.clone();
        dims.iter_mut().for_each(|d| d.3 *= 2.0);
        let space = persist::join_space_from_parts(&cq, dims.clone()).unwrap();
        assert_eq!(space.shape().z_bits() + 1, cols.shape.z_bits());
        dims
    };
    let cases: Vec<(&str, Vec<u8>, CodecError)> = vec![
        (
            "bitmap cut short",
            image[..bitmap_at + 1].to_vec(),
            CodecError::Truncated,
        ),
        (
            "a view eight points past its bytes",
            cols.edited(|c| c.view_lens[long] += 8),
            length,
        ),
        (
            "views of u32::MAX points",
            cols.edited(|c| {
                let total: u32 = c.view_lens.iter().sum();
                c.view_lens[long] += u32::MAX - total;
            }),
            length,
        ),
        (
            "views past u32::MAX points",
            cols.edited(|c| c.view_lens[long] = u32::MAX),
            CodecError::Oversize,
        ),
        (
            "cells one z-bit too wide",
            cols.edited(|c| c.dims = narrower),
            length,
        ),
        (
            "a cell of no relation",
            cols.edited(|c| c.cells[0].flags = RelFlags(0)),
            no_relation,
        ),
        (
            "a view point of no relation",
            cols.edited(|c| c.view_points[start].flags = RelFlags(0)),
            no_relation,
        ),
        (
            "a view out of order",
            cols.edited(|c| c.view_points.swap(start, start + 1)),
            unsorted,
        ),
        (
            "a view repeating a cell",
            cols.edited(|c| c.view_points[start + 1].z = c.view_points[start].z),
            unsorted,
        ),
    ];
    for (what, bytes, want) in cases {
        let (largest, got) = largest_allocation(|| restore_executor(&bytes, &cq));
        assert_eq!(got, Err(want), "{what}");
        assert!(largest <= honest, "{what}: a {largest}-byte allocation");
    }
    // A node count no bitmap behind it can back allocates nothing for it.
    let mut huge = image[..bitmap_at - 8].to_vec();
    huge.extend_from_slice(&(1u64 << 40).to_le_bytes());
    huge.extend_from_slice(&image[bitmap_at..]);
    let (allocs, got) = allocations(|| restore_executor(&huge, &cq));
    assert_eq!(got, Err(CodecError::Truncated));
    let (intact, _) = allocations(|| restore_executor(&image[..bitmap_at], &cq));
    assert_eq!(allocs, intact, "{allocs} allocations for 2^40 nodes");
}
