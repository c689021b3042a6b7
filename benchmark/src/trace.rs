//! Span recorder for the traced pass.
//!
//! Spans are opened and closed from the benchmark's own files, around calls
//! into a layer's public functions; nothing inside the library is
//! instrumented. A span is named `<layer>.<function>`, belongs to one op,
//! and remembers the span that was open when it started. Spans stay in
//! memory until [`Tracer::to_json`] is written at exit. A disabled tracer
//! reads no clock, so the untraced pass pays nothing for it.

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Index of the op (shared by every span of one op).
    pub op: u32,
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Work done inside the span, in the unit its layer counts (rows,
    /// points, bytes, decisions); 0 where the call reports none.
    pub work: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer a span belongs to: its name up to the last dot.
    pub fn layer(&self) -> &'static str {
        self.name.rsplit_once('.').map_or(self.name, |(l, _)| l)
    }
}

/// Token for an open span; pass it back to [`Tracer::exit`].
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<u32>);

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    op: u32,
    stack: Vec<u32>,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            op: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Starts the next op: spans entered from here on carry its index.
    pub fn next_op(&mut self) {
        debug_assert!(self.stack.is_empty(), "op boundary inside an open span");
        self.op += 1;
    }

    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len() as u32;
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.stack.last().copied(),
            start_ns: now,
            end_ns: now,
            work: 0,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    pub fn exit(&mut self, open: Open, work: u64) {
        let Some(id) = open.0 else { return };
        let now = self.epoch.elapsed().as_nanos() as u64;
        assert_eq!(self.stack.pop(), Some(id), "spans close innermost first");
        let span = &mut self.spans[id as usize];
        span.end_ns = now;
        span.work = work;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    Json::obj([
                        ("id", Json::Num(id as f64)),
                        ("name", Json::from(s.name)),
                        ("op", Json::Num(s.op as f64)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                        ("start_ns", Json::Num(s.start_ns as f64)),
                        ("end_ns", Json::Num(s.end_ns as f64)),
                        ("work", Json::Num(s.work as f64)),
                    ])
                })
                .collect(),
        )
    }
}

/// Self time of every span: its duration minus the part its direct
/// children cover. Children never overlap (one thread opens and closes
/// them in order), so the covered part is the sum of their durations.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p as usize] -= s.duration_ns();
        }
    }
    own
}

/// Total self time per layer, in ns.
pub fn layer_self_ns(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times_ns(spans)) {
        *out.entry(s.layer()).or_insert(0) += own;
    }
    out
}

/// Total duration and count of the spans called `name`.
pub fn total_ns(spans: &[Span], name: &str) -> (u64, u64) {
    spans
        .iter()
        .filter(|s| s.name == name)
        .fold((0, 0), |(ns, n), s| (ns + s.duration_ns(), n + 1))
}

/// Share of root-span time that no child span covers.
pub fn unattributed_share(spans: &[Span]) -> f64 {
    let own = self_times_ns(spans);
    let (mut covered, mut bare) = (0u64, 0u64);
    for (s, own) in spans.iter().zip(own) {
        if s.parent.is_none() {
            covered += s.duration_ns();
            bare += own;
        }
    }
    if covered == 0 {
        0.0
    } else {
        bare as f64 / covered as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            op: 1,
            parent,
            start_ns,
            end_ns,
            work: 0,
        }
    }

    /// op [0,100] { query.parse [0,10], core.sensjoin.execute [10,95]
    /// { core.engine.exact_join [50,90] } }
    fn tree() -> Vec<Span> {
        vec![
            span("bench.op", None, 0, 100),
            span("query.parse", Some(0), 0, 10),
            span("core.sensjoin.execute", Some(0), 10, 95),
            span("core.engine.exact_join", Some(2), 50, 90),
        ]
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        assert_eq!(self_times_ns(&tree()), vec![5, 10, 45, 40]);
    }

    #[test]
    fn layers_sum_self_times_and_cover_the_root() {
        let layers = layer_self_ns(&tree());
        assert_eq!(layers["bench"], 5);
        assert_eq!(layers["query"], 10);
        assert_eq!(layers["core.sensjoin"], 45);
        assert_eq!(layers["core.engine"], 40);
        assert_eq!(layers.values().sum::<u64>(), 100);
        assert_eq!(unattributed_share(&tree()), 0.05);
        assert_eq!(total_ns(&tree(), "query.parse"), (10, 1));
    }

    #[test]
    fn recorder_nests_and_a_disabled_one_records_nothing() {
        let mut t = Tracer::new(true);
        t.next_op();
        let op = t.enter("bench.op");
        let child = t.enter("query.parse");
        t.exit(child, 7);
        t.exit(op, 0);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[1].work, 7);
        assert_eq!(t.spans()[1].op, 1);
        assert!(t.spans()[0].duration_ns() >= t.spans()[1].duration_ns());

        let mut off = Tracer::new(false);
        let op = off.enter("bench.op");
        off.exit(op, 0);
        assert!(off.spans().is_empty());
    }
}
