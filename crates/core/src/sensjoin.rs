//! The SENS-Join protocol (paper §IV).

use crate::config::{Representation, SensJoinConfig};
use crate::engine::{exact_join, prejoin_filter, JoinSpace};
use crate::outcome::{JoinOutcome, ProtocolError};
use crate::repr::{collect_node_data, project_to_schema, FullRec, JoinAttrMsg, NodeData, SizedSet};
use crate::snetwork::SensorNetwork;
use crate::wave::{down_wave, up_wave, DownArrival};
use crate::JoinMethod;
use sensjoin_quadtree::PointSet;
use sensjoin_query::CompiledQuery;
use sensjoin_relation::NodeId;
use sensjoin_sim::{ChurnOutcome, Network};

/// Phase labels used in statistics (Fig. 15's cost breakdown).
pub const PHASE_COLLECTION: &str = "1-join-attribute-collection";
/// Filter-dissemination phase label.
pub const PHASE_FILTER: &str = "2-filter-dissemination";
/// Final-result phase label.
pub const PHASE_FINAL: &str = "3-final-result";

/// The SENS-Join method: pre-computation (join-attribute collection +
/// filter dissemination) followed by the final result computation.
///
/// All protocol parameters live in [`SensJoinConfig`]; the default is the
/// paper's configuration (`D_max` = 30 B, 500 B filter memory, quadtree
/// representation, Selective Filter Forwarding on).
#[derive(Debug, Clone, Default)]
pub struct SensJoin {
    /// Protocol parameters.
    pub config: SensJoinConfig,
}

impl SensJoin {
    /// A SENS-Join instance with explicit configuration.
    pub fn with_config(config: SensJoinConfig) -> Self {
        Self { config }
    }

    /// The Fig. 16 variant: no compact representation, raw join-attribute
    /// tuples during the pre-computation.
    pub fn no_quadtree() -> Self {
        Self::with_config(SensJoinConfig {
            representation: Representation::Raw,
            ..SensJoinConfig::default()
        })
    }
}

/// Message of the Join-Attribute-Collection phase: a node forwards either
/// complete tuples (below the Treecut threshold) or a join-attribute
/// structure (paper §IV-B: "Due to Treecut, a node either sends complete
/// tuples or join-attribute tuples").
enum UpMsg {
    Full { tuples: Vec<FullRec>, bytes: usize },
    Attrs(JoinAttrMsg),
}

/// Final-phase message: complete tuples of filtered nodes.
struct Batch {
    tuples: Vec<FullRec>,
    bytes: usize,
}

/// Filter-dissemination message. On a lossless network only the `Filter`
/// variant occurs and it costs exactly the filter's wire size; on a lossy
/// network every filter message carries a one-byte tag so that a
/// conservative `PassThrough` order (ship everything, prune nothing) can be
/// disseminated after collection-phase damage.
#[derive(Clone)]
enum FilterMsg {
    /// The (possibly subtree-pruned) join filter.
    Filter(SizedSet),
    /// Conservative fallback: treat every tuple as potentially joining.
    PassThrough,
}

/// Per-node protocol state surviving between phases.
#[derive(Default)]
struct NodeState {
    /// Whether the node stays awake after the collection phase (Treecut
    /// nodes exit the query, Fig. 2 line 18).
    active: bool,
    /// Complete tuples stored on behalf of cut descendants (proxy role).
    proxy: Vec<FullRec>,
    /// The node's own tuple (if it contributes).
    own: Option<FullRec>,
    /// Treecut handoff retained while the lossy channel can still eat the
    /// message: `(own, proxied)` as handed to the parent. Restored into
    /// `own`/`proxy` if the handoff is reported damaged, so the data
    /// survives at exactly one place.
    kept: Option<(Option<FullRec>, Vec<FullRec>)>,
    /// Conservative mode: the node lost protocol state to the channel
    /// (collection handoff or filter copy) and must ship every tuple in the
    /// final phase rather than risk dropping a real result.
    passthrough: bool,
    /// Join-attribute tuples of the subtree, memorized during collection for
    /// Selective Filter Forwarding (`None` if over the memory cap).
    subtree_atts: Option<PointSet>,
    /// The filter as received during dissemination (`None` = pruned away:
    /// nothing in this subtree joins).
    received_filter: Option<PointSet>,
}

/// Reconciles per-node protocol state with the liveness changes of one churn
/// boundary, keeping the surviving population's data exactly once in the
/// network:
///
/// * **Crashed** nodes lose all state. Rows they proxied for *live* origins
///   are re-elected back to those origins (the origin still stores its own
///   reading, so this recovery is radio-free); rows *originating* at a dead
///   node are dropped at every live holder (the death notification the
///   network charges under the repair phase). A crashed node's treecut
///   backup (`kept`) duplicates a handoff that already succeeded — its
///   content lives on at the proxy and must not be restored.
/// * **Revived** nodes reboot with no protocol state. A revived node that
///   participated at query start re-contributes its reading (every other
///   copy was dropped when it died), conservatively in pass-through mode.
/// * **Reattached** nodes hang below ancestors whose memorized subtree
///   synopses do not cover them, so Selective Filter Forwarding could
///   wrongly prune them — any reattached node holding data ships it
///   unconditionally (pass-through).
///
/// Finally the participant set is re-closed towards the root so the final
/// up-wave stays well-formed (re-activated relays hold no data and forward
/// only).
fn reconcile_churn(
    states: &mut [NodeState],
    out: &ChurnOutcome,
    net: &Network,
    data: &[NodeData],
    p0: &[bool],
) {
    let alive = net.alive_mask();
    // A crash wipes the node's copies everywhere even if the node revived
    // at this very boundary: liveness alone is not enough to keep a row —
    // its origin must also not have crashed just now (the revival arm below
    // re-contributes the reading exactly once).
    let mut crashed_now = vec![false; states.len()];
    for &d in &out.crashed {
        crashed_now[d.0 as usize] = true;
    }
    let survives = |r: &FullRec| {
        let o = r.origin.0 as usize;
        alive[o] && !crashed_now[o]
    };
    let mut restore: Vec<FullRec> = Vec::new();
    for &d in &out.crashed {
        let lost = std::mem::take(&mut states[d.0 as usize]);
        restore.extend(lost.proxy);
    }
    if !out.crashed.is_empty() {
        for st in states.iter_mut() {
            st.proxy.retain(&survives);
            if let Some((_, kept_proxy)) = &mut st.kept {
                kept_proxy.retain(&survives);
            }
        }
    }
    for rec in restore {
        let o = rec.origin.0 as usize;
        if !survives(&rec) {
            continue; // the origin died too: the row is genuinely lost
        }
        let st = &mut states[o];
        if st.own.is_none() {
            st.own = Some(rec);
        }
        st.active = true;
        st.passthrough = true;
    }
    for &v in &out.revived {
        let st = &mut states[v.0 as usize];
        *st = NodeState::default();
        if !alive[v.0 as usize] {
            continue; // revived then crashed again at the same boundary
        }
        if p0[v.0 as usize] {
            if let Some(rec) = data[v.0 as usize].rec.clone() {
                st.own = Some(rec);
                st.active = true;
                st.passthrough = true;
            }
        }
    }
    for &v in &out.reattached {
        let st = &mut states[v.0 as usize];
        if st.active || st.own.is_some() || !st.proxy.is_empty() {
            st.active = true;
            st.passthrough = true;
        }
    }
    // Root closure over the repaired tree.
    let routing = net.routing();
    for i in 0..states.len() {
        if !states[i].active {
            continue;
        }
        let mut u = NodeId(i as u32);
        if routing.depth(u).is_none() {
            continue; // orphaned: not part of any wave until reattached
        }
        while let Some(p) = routing.parent(u) {
            if states[p.0 as usize].active {
                break;
            }
            states[p.0 as usize].active = true;
            u = p;
        }
    }
}

impl JoinMethod for SensJoin {
    fn name(&self) -> &'static str {
        match self.config.representation {
            Representation::Quadtree => "sens-join",
            Representation::Raw => "sens-join/no-quad",
            Representation::Zlib => "sens-join/zlib",
            Representation::Bzip2 => "sens-join/bzip2",
        }
    }

    fn execute(
        &self,
        snet: &mut SensorNetwork,
        query: &CompiledQuery,
    ) -> Result<JoinOutcome, ProtocolError> {
        snet.net_mut().reset_stats();
        let cfg = &self.config;
        let space = JoinSpace::build(query, snet, cfg);
        let data = collect_node_data(snet, query, &space);
        let base = snet.base();
        let n = snet.len();
        let mut states: Vec<NodeState> = (0..n).map(|_| NodeState::default()).collect();
        let repr = cfg.representation;

        // ---- Churn boundary 0 (pre-start) ----
        // Nodes that leave before the query starts simply never participate;
        // nothing needs reconciling. `p0` is the participated-at-start set —
        // the population the completeness guarantee is measured against.
        let has_churn = snet.net().has_churn();
        let mut churned = false;
        if has_churn {
            snet.net_mut().apply_churn(0);
        }
        let p0: Vec<bool> = (0..n as u32)
            .map(|i| {
                let v = NodeId(i);
                snet.net().is_alive(v) && snet.net().routing().depth(v).is_some()
            })
            .collect();

        // ---- Phase 1: Join-Attribute-Collection (Fig. 2) ----
        let lossy = snet.net().lossy();
        let shape = space.shape().clone();
        let (base_msg, rep1) = up_wave(
            snet.net_mut(),
            &|_| true,
            |v, received: Vec<UpMsg>| {
                let mut fulls: Vec<FullRec> = Vec::new();
                let mut full_bytes = 0usize;
                let mut attr_msgs: Vec<JoinAttrMsg> = Vec::new();
                for msg in received {
                    match msg {
                        UpMsg::Full { mut tuples, bytes } => {
                            full_bytes += bytes;
                            fulls.append(&mut tuples);
                        }
                        UpMsg::Attrs(ja) => attr_msgs.push(ja),
                    }
                }
                let own = data[v.0 as usize].rec.clone();
                let own_bytes = own.as_ref().map_or(0, |r| r.bytes);
                let treecut = v != base
                    && cfg.dmax > 0
                    && attr_msgs.is_empty()
                    && full_bytes + own_bytes <= cfg.dmax;
                let st = &mut states[v.0 as usize];
                if treecut {
                    // Hand the complete tuples to the parent and exit the
                    // query (Fig. 2 lines 14-18). Over a lossy channel the
                    // node keeps a copy of the handoff until the phase
                    // ends: if the message is reported damaged the node
                    // re-enters the query as the tuples' proxy (otherwise
                    // the data would exist nowhere).
                    if lossy {
                        st.kept = Some((own.clone(), fulls.clone()));
                    }
                    if let Some(rec) = own {
                        fulls.push(rec);
                    }
                    st.active = false;
                    UpMsg::Full {
                        tuples: fulls,
                        bytes: full_bytes + own_bytes,
                    }
                } else {
                    st.active = true;
                    // Merge received structures (Fig. 2 line 10). A lone
                    // structure is taken as it is, with the size its
                    // sender already computed.
                    let mut ja = if attr_msgs.len() == 1 {
                        attr_msgs.pop().expect("one message")
                    } else {
                        let mut ja = JoinAttrMsg::new();
                        for m in &attr_msgs {
                            ja.merge(m);
                        }
                        ja
                    };
                    // Memorize the subtree's join-attribute tuples for
                    // Selective Filter Forwarding — the *received* ones
                    // only (Fig. 2 line 21); own and proxied tuples are
                    // checked directly against the incoming filter later.
                    // The stored form is always the compact quadtree
                    // (only the §VI-B collection experiment varies the
                    // wire representation). The base station is powered
                    // and ignores the memory cap.
                    if cfg.selective_forwarding
                        && (v == base || ja.set.wire_size(&shape) <= cfg.filter_memory_limit)
                    {
                        st.subtree_atts = Some(PointSet::clone(&ja.set));
                    }
                    // Act as proxy for received complete tuples (line 20)
                    // and fold their join-attribute projections in
                    // (line 22).
                    for rec in &fulls {
                        ja.insert(rec.z, rec.flags, &rec.coords);
                    }
                    st.proxy = fulls;
                    if let Some(rec) = own {
                        ja.insert(rec.z, rec.flags, &rec.coords);
                        st.own = Some(rec);
                    }
                    UpMsg::Attrs(ja)
                }
            },
            |m| match m {
                UpMsg::Full { bytes, .. } => *bytes,
                UpMsg::Attrs(ja) => ja.wire_size(repr, &shape),
            },
            PHASE_COLLECTION,
        );

        // ---- Collection-damage fallback ----
        // A node whose collection message was permanently lost re-enters
        // the query in pass-through mode (its handoff is restored if it had
        // treecut), and its ancestor chain is re-activated so the
        // participant set stays root-closed. Because the base's view of the
        // join attributes is now incomplete, *any* filter it computed could
        // wrongly prune other subtrees — the dissemination phase therefore
        // degrades to an explicit conservative PassThrough order for
        // everyone (results stay exact; only the filter savings are lost).
        let collection_damaged = !rep1.damaged.is_empty();
        if collection_damaged {
            let routing = snet.net().routing().clone();
            for &v in &rep1.damaged {
                let st = &mut states[v.0 as usize];
                st.active = true;
                st.passthrough = true;
                if let Some((own, proxy)) = st.kept.take() {
                    st.own = own;
                    st.proxy = proxy;
                }
                let mut u = v;
                while let Some(p) = routing.parent(u) {
                    if states[p.0 as usize].active {
                        break;
                    }
                    // Re-activated relays only forward; their own data went
                    // up in their (intact) handoff and must not ship twice.
                    states[p.0 as usize].active = true;
                    u = p;
                }
            }
        }

        // ---- Churn boundary 1 (after collection) ----
        // A node dying here takes its proxied rows down with it: proxy
        // re-election restores each row at its (surviving) origin, dead
        // origins' rows are dropped everywhere, and the subtree the repair
        // machinery re-homed switches to pass-through (stale synopses above
        // it could otherwise prune soundly-joining rows).
        if has_churn {
            let out = snet.net_mut().apply_churn(rep1.timing.pipelined);
            churned |= !out.crashed.is_empty() || !out.revived.is_empty();
            if !out.is_empty() {
                reconcile_churn(&mut states, &out, snet.net(), &data, &p0);
            }
        }

        // ---- Base station: conservative pre-join (step 1a) ----
        let points = match base_msg {
            UpMsg::Attrs(ja) => ja.set.into_set(),
            UpMsg::Full { .. } => unreachable!("base never applies Treecut"),
        };
        let filter = SizedSet::new(prejoin_filter(query, &space, &points));

        // ---- Phase 2: Filter-Dissemination (Fig. 3) ----
        let active: Vec<bool> = states.iter().map(|s| s.active).collect();
        let participates = move |v: NodeId| active[v.0 as usize];
        let selective = cfg.selective_forwarding;
        // On a lossy network every filter message carries a one-byte tag to
        // distinguish a real filter from a PassThrough order; lossless runs
        // stay byte-identical to the pre-channel protocol.
        let tag = usize::from(lossy);
        let rep2 = down_wave(
            snet.net_mut(),
            &participates,
            |v, arrival: DownArrival<'_, FilterMsg>| {
                let st = &mut states[v.0 as usize];
                let incoming: Option<&SizedSet> = match arrival {
                    DownArrival::Origin => {
                        if collection_damaged {
                            None // base orders global pass-through
                        } else {
                            Some(&filter)
                        }
                    }
                    DownArrival::Intact(FilterMsg::Filter(f)) => {
                        st.received_filter = Some(PointSet::clone(f));
                        Some(f)
                    }
                    // An explicit PassThrough order, or a filter copy the
                    // channel ate: either way the node must not prune and
                    // must ship everything (missing filter = pass-through,
                    // never drop a real result).
                    DownArrival::Intact(FilterMsg::PassThrough) | DownArrival::Damaged => None,
                };
                let Some(incoming) = incoming else {
                    st.passthrough = true;
                    return Some(FilterMsg::PassThrough);
                };
                if !selective {
                    // Ablation: flood the unpruned filter everywhere.
                    return Some(FilterMsg::Filter(incoming.clone()));
                }
                match &st.subtree_atts {
                    Some(atts) => {
                        let pruned = incoming.intersect(atts);
                        (!pruned.is_empty()).then(|| FilterMsg::Filter(SizedSet::new(pruned)))
                    }
                    // Over the memory cap: cannot prune, forward as-is.
                    None => Some(FilterMsg::Filter(incoming.clone())),
                }
            },
            // The filter always travels in the compact quadtree form; the
            // representation knob only varies the collection step (§VI-B).
            |m| match m {
                FilterMsg::Filter(set) => tag + set.wire_size(&shape),
                FilterMsg::PassThrough => 1,
            },
            PHASE_FILTER,
        );
        debug_assert!(lossy || rep2.is_lossless());

        // ---- Churn boundary 2 (after filter dissemination) ----
        // The stale filter stays sound: it was computed over a superset of
        // the surviving population, and a superset filter never prunes a row
        // that still joins. Only re-homed nodes must ignore it.
        if has_churn {
            let out = snet.net_mut().apply_churn(rep2.timing.pipelined);
            churned |= !out.crashed.is_empty() || !out.revived.is_empty();
            if !out.is_empty() {
                reconcile_churn(&mut states, &out, snet.net(), &data, &p0);
            }
        }

        // ---- Phase 3: Final-Result-Computation (§IV-D) ----
        let active2: Vec<bool> = states.iter().map(|s| s.active).collect();
        let participates3 = move |v: NodeId| active2[v.0 as usize];
        let (final_batch, rep3) = up_wave(
            snet.net_mut(),
            &participates3,
            |v, received: Vec<Batch>| {
                let mut tuples = Vec::new();
                let mut bytes = 0usize;
                for mut b in received {
                    bytes += b.bytes;
                    tuples.append(&mut b.tuples);
                }
                let st = &states[v.0 as usize];
                if v == base {
                    // Base-held tuples (own + proxied) are already at their
                    // destination; attach them free of charge.
                    for rec in st.own.iter().chain(&st.proxy) {
                        tuples.push(rec.clone());
                    }
                } else if st.passthrough {
                    // Conservative fallback: ship everything.
                    for rec in st.own.iter().chain(&st.proxy) {
                        bytes += rec.bytes;
                        tuples.push(rec.clone());
                    }
                } else if let Some(f) = &st.received_filter {
                    for rec in st.own.iter().chain(&st.proxy) {
                        if f.contains_matching(rec.z, rec.flags) {
                            bytes += rec.bytes;
                            tuples.push(rec.clone());
                        }
                    }
                }
                Batch { tuples, bytes }
            },
            |b| b.bytes,
            PHASE_FINAL,
        );

        // ---- Liveness sweep (base side) ----
        // Rows can reach the base from origins that fell out of the
        // contributing set mid-execution (e.g. a proxy shipped a row whose
        // origin is now orphaned). The base knows the final liveness picture
        // and projects the result onto the surviving population: origins
        // that participated at start, are alive at end, and are attached at
        // end.
        let mut final_batch = final_batch;
        if has_churn {
            let net = snet.net();
            final_batch.tuples.retain(|rec| {
                net.is_alive(rec.origin)
                    && net.routing().depth(rec.origin).is_some()
                    && p0[rec.origin.0 as usize]
            });
        }

        // ---- Exact join over the filtered complete tuples ----
        let master = snet.master_schema().clone();
        let tuples_per_rel: Vec<Vec<(NodeId, Vec<f64>)>> = (0..query.num_relations())
            .map(|r| {
                let flag = space.flag(r);
                final_batch
                    .tuples
                    .iter()
                    .filter(|rec| rec.flags.intersects(flag))
                    .map(|rec| {
                        (
                            rec.origin,
                            project_to_schema(&master, query.schema(r), &rec.values),
                        )
                    })
                    .collect()
            })
            .collect();
        let computation = exact_join(query, &tuples_per_rel);
        // Honesty: `complete` additionally requires that every node that
        // participated at query start survived to the end — a mid-execution
        // death means the answer is exact only over the survivors
        // (liveness-projected exactness), not over the start population.
        let mut complete = rep3.damaged.is_empty();
        if has_churn {
            let net = snet.net();
            // Absent subtrees in the final wave are exactly the dead or
            // detached participants — no live attached node is skipped.
            debug_assert!(rep3
                .absent
                .iter()
                .all(|&v| !net.is_alive(v) || net.routing().depth(v).is_none()));
            complete &= (0..n as u32).map(NodeId).all(|v| {
                !p0[v.0 as usize] || (net.is_alive(v) && net.routing().depth(v).is_some())
            });
        }
        Ok(JoinOutcome {
            result: computation.result,
            stats: snet.net().stats().clone(),
            latency_us: rep1.timing.then(rep2.timing).then(rep3.timing).pipelined,
            latency_slotted_us: rep1.timing.then(rep2.timing).then(rep3.timing).slotted,
            contributors: computation.contributors,
            complete,
            churned,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snetwork::SensorNetworkBuilder;
    use crate::ExternalJoin;
    use sensjoin_field::{Area, Placement};
    use sensjoin_query::parse;

    fn snet(n: usize, seed: u64) -> SensorNetwork {
        SensorNetworkBuilder::new()
            .area(Area::new(350.0, 350.0))
            .placement(Placement::UniformRandom { n })
            .seed(seed)
            .build()
            .unwrap()
    }

    fn compiled(s: &SensorNetwork, sql: &str) -> CompiledQuery {
        s.compile(&parse(sql).unwrap()).unwrap()
    }

    #[test]
    fn result_identical_to_external_join() {
        for seed in [1, 2, 3] {
            let mut s = snet(90, seed);
            let cq = compiled(
                &s,
                "SELECT A.hum, B.hum FROM Sensors A, Sensors B \
                 WHERE |A.temp - B.temp| < 0.1 ONCE",
            );
            let ext = ExternalJoin.execute(&mut s, &cq).unwrap();
            let sj = SensJoin::default().execute(&mut s, &cq).unwrap();
            assert!(
                ext.result.same_result(&sj.result),
                "seed {seed}: {} vs {} rows",
                ext.result.len(),
                sj.result.len()
            );
            assert_eq!(ext.contributors, sj.contributors);
        }
    }

    #[test]
    fn selective_query_saves_transmissions() {
        // Savings need a tree deep enough for packet aggregation to matter
        // (the paper uses 1500 nodes; 400 over a wider area with a corner
        // base station suffices here).
        let mut s = SensorNetworkBuilder::new()
            .area(Area::new(600.0, 600.0))
            .placement(Placement::UniformRandom { n: 400 })
            .base(sensjoin_sim::BaseChoice::NearestCorner)
            .seed(7)
            .build()
            .unwrap();
        let fam = crate::workload::RangeQueryFamily::ratio_33();
        let cal = fam.calibrate(&s, 0.05);
        let cq = compiled(&s, &cal.sql);
        let ext = ExternalJoin.execute(&mut s, &cq).unwrap();
        let sj = SensJoin::default().execute(&mut s, &cq).unwrap();
        assert!(
            sj.stats.total_tx_packets() < ext.stats.total_tx_packets(),
            "sens {} !< ext {}",
            sj.stats.total_tx_packets(),
            ext.stats.total_tx_packets()
        );
    }

    #[test]
    fn phases_are_labeled() {
        let mut s = snet(100, 5);
        let cq = compiled(
            &s,
            "SELECT A.hum, B.hum FROM Sensors A, Sensors B \
             WHERE |A.temp - B.temp| < 0.05 ONCE",
        );
        let sj = SensJoin::default().execute(&mut s, &cq).unwrap();
        let p1 = sj.stats.phase(PHASE_COLLECTION).tx_packets;
        let p2 = sj.stats.phase(PHASE_FILTER).tx_packets;
        let p3 = sj.stats.phase(PHASE_FINAL).tx_packets;
        assert!(p1 > 0);
        assert_eq!(p1 + p2 + p3, sj.stats.total_tx_packets());
    }

    #[test]
    fn no_quadtree_variant_is_larger_but_correct() {
        let mut s = snet(120, 11);
        let cq = compiled(
            &s,
            "SELECT A.hum, B.hum FROM Sensors A, Sensors B \
             WHERE |A.temp - B.temp| < 0.05 ONCE",
        );
        let quad = SensJoin::default().execute(&mut s, &cq).unwrap();
        let raw = SensJoin::no_quadtree().execute(&mut s, &cq).unwrap();
        assert!(quad.result.same_result(&raw.result));
        let quad_p1 = quad.stats.phase(PHASE_COLLECTION).tx_bytes;
        let raw_p1 = raw.stats.phase(PHASE_COLLECTION).tx_bytes;
        assert!(quad_p1 < raw_p1, "quadtree {quad_p1} !< raw {raw_p1}");
    }

    #[test]
    fn treecut_disabled_still_correct() {
        let mut s = snet(80, 13);
        let cq = compiled(
            &s,
            "SELECT A.hum, B.hum FROM Sensors A, Sensors B \
             WHERE |A.temp - B.temp| < 0.1 ONCE",
        );
        let ext = ExternalJoin.execute(&mut s, &cq).unwrap();
        let nocut = SensJoin::with_config(SensJoinConfig {
            dmax: 0,
            ..Default::default()
        })
        .execute(&mut s, &cq)
        .unwrap();
        assert!(ext.result.same_result(&nocut.result));
    }

    #[test]
    fn selective_forwarding_disabled_still_correct_but_costlier() {
        let mut s = snet(130, 17);
        let cq = compiled(
            &s,
            "SELECT A.hum, B.hum FROM Sensors A, Sensors B \
             WHERE |A.temp - B.temp| < 0.01 AND distance(A.x, A.y, B.x, B.y) > 200 ONCE",
        );
        let on = SensJoin::default().execute(&mut s, &cq).unwrap();
        let off = SensJoin::with_config(SensJoinConfig {
            selective_forwarding: false,
            ..Default::default()
        })
        .execute(&mut s, &cq)
        .unwrap();
        assert!(on.result.same_result(&off.result));
        let on_f = on.stats.phase(PHASE_FILTER).tx_packets;
        let off_f = off.stats.phase(PHASE_FILTER).tx_packets;
        assert!(on_f <= off_f, "selective {on_f} > flooded {off_f}");
    }

    #[test]
    fn aggregate_query_identical() {
        let mut s = snet(70, 23);
        let cq = compiled(
            &s,
            "SELECT MIN(distance(A.x, A.y, B.x, B.y)) FROM Sensors A, Sensors B \
             WHERE A.temp - B.temp > 2.0 ONCE",
        );
        let ext = ExternalJoin.execute(&mut s, &cq).unwrap();
        let sj = SensJoin::default().execute(&mut s, &cq).unwrap();
        assert!(ext.result.same_result(&sj.result));
    }

    #[test]
    fn empty_result_sends_no_final_tuples() {
        let mut s = snet(90, 29);
        let cq = compiled(
            &s,
            "SELECT A.temp, B.temp FROM Sensors A, Sensors B \
             WHERE A.temp - B.temp > 1000 ONCE",
        );
        let sj = SensJoin::default().execute(&mut s, &cq).unwrap();
        assert!(sj.result.is_empty());
        assert_eq!(sj.stats.phase(PHASE_FINAL).tx_bytes, 0);
        // Filter dissemination is pruned at the root: nothing joins.
        assert_eq!(sj.stats.phase(PHASE_FILTER).tx_packets, 0);
    }

    #[test]
    fn latency_within_twice_external() {
        // §VII: "the response time of SENS-Join is upper bounded by at most
        // twice the duration of the external join".
        let mut s = snet(150, 31);
        let cq = compiled(
            &s,
            "SELECT A.hum, B.hum FROM Sensors A, Sensors B \
             WHERE |A.temp - B.temp| < 0.1 ONCE",
        );
        let ext = ExternalJoin.execute(&mut s, &cq).unwrap();
        let sj = SensJoin::default().execute(&mut s, &cq).unwrap();
        assert!(
            sj.latency_us <= 2 * ext.latency_us + 10_000,
            "sens {} vs ext {}",
            sj.latency_us,
            ext.latency_us
        );
    }
}
