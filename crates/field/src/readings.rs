//! Per-attribute reading generation with cross-attribute correlation.

use crate::{CosineField, Position};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::OnceLock;

/// Specification of one generated sensor attribute.
#[derive(Debug, Clone)]
pub struct FieldSpec {
    /// Attribute name (matched by schema builders).
    pub name: String,
    /// Field mean.
    pub mean: f64,
    /// Field standard deviation (spatial variation).
    pub amplitude: f64,
    /// Spatial correlation length in meters.
    pub correlation_length: f64,
    /// Standard deviation of white per-node measurement noise.
    pub noise: f64,
    /// Optional linear coupling to an *earlier* spec: `(index, coefficient)`.
    /// The attribute becomes `coefficient * value[index] + own field + noise`,
    /// e.g. humidity anti-correlated with temperature.
    pub cross: Option<(usize, f64)>,
}

impl FieldSpec {
    /// A plain (uncoupled) attribute.
    pub fn simple(
        name: impl Into<String>,
        mean: f64,
        amplitude: f64,
        correlation_length: f64,
        noise: f64,
    ) -> Self {
        Self {
            name: name.into(),
            mean,
            amplitude,
            correlation_length,
            noise,
            cross: None,
        }
    }

    /// Couples this attribute linearly to spec `index`.
    pub fn coupled_to(mut self, index: usize, coefficient: f64) -> Self {
        self.cross = Some((index, coefficient));
        self
    }
}

/// Cosines below which a sampler fills its wave sums inline: every spec's
/// on a fresh sampler, only the changed specs' on a reused one (a draw that
/// changes none evaluates no cosine). A cosine costs some 17 ns and a
/// spawned worker some tens of µs, and the callers with many small networks
/// — a serve tick's 250-node deployments, 64 k cosines each on a miss —
/// already run on one thread per deployment: fanning out pays from a couple
/// of milliseconds of sampling.
const PAR_MIN_COSINES: usize = 1 << 17;

/// Generates one reading per node and spec: `readings[node][spec]`.
///
/// Each spec gets an independent field seeded from `seed` and its index, so
/// regenerating with the same arguments is exactly reproducible — on any
/// number of threads: only the smooth field component, independent per
/// (node, spec), is sampled in parallel. This is one draw of a fresh
/// [`FieldSampler`].
///
/// # Panics
/// Panics if a `cross` reference points at itself or a later spec.
pub fn generate_readings(positions: &[Position], specs: &[FieldSpec], seed: u64) -> Vec<Vec<f64>> {
    generate_readings_with(positions, specs, seed, chunks_for)
}

/// The chunks a fill of `cosines` cosines runs in.
fn chunks_for(cosines: usize) -> usize {
    if cosines < PAR_MIN_COSINES {
        1
    } else {
        host_threads()
    }
}

/// The threads the host grants this process, read once: asking again
/// re-reads the cgroup files, some 20 µs a call. A `taskset -c 0` run sets
/// its affinity before the first call, so it samples on one thread.
fn host_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| std::thread::available_parallelism().map_or(1, |p| p.get()))
}

/// [`generate_readings`] sampling the fields in at most `chunks` chunks of
/// positions, one thread each.
#[cfg(test)]
fn generate_readings_in(
    positions: &[Position],
    specs: &[FieldSpec],
    seed: u64,
    chunks: usize,
) -> Vec<Vec<f64>> {
    generate_readings_with(positions, specs, seed, |_| chunks)
}

/// [`generate_readings`] filling its sums in `chunks(cosines)` chunks.
fn generate_readings_with(
    positions: &[Position],
    specs: &[FieldSpec],
    seed: u64,
    chunks: impl Fn(usize) -> usize,
) -> Vec<Vec<f64>> {
    let mut rows = Vec::with_capacity(positions.len());
    let mut sampler = FieldSampler::new(positions.to_vec());
    sampler.draw_with(specs, seed, chunks, |_, row| rows.push(row.to_vec()));
    rows
}

/// A deployment's reading generator: the node positions and, per spec, the
/// field and its wave sums ([`CosineField`]'s cosines, one per node) of the
/// last draw, plus the last noise stream's Box–Muller draws once its seed
/// repeats.
///
/// Spec `i`'s sums depend on the positions, its correlation length and its
/// field seed `seed ^ (i + 1)` only, so they are kept under that key. A
/// draw evaluates cosines for the specs whose key changed — a new seed, a
/// new correlation length, a spec added — and none for the others; mean,
/// amplitude, the cross coupling and the noise scale are applied on every
/// draw.
///
/// The noise stream depends on the seed and on which specs draw from it
/// (`noise > 0`) only. A draw that repeats the previous draw's stream keeps
/// each Box–Muller draw's radius and cosine, and the draws after it that
/// repeat it again evaluate no logarithm, root or cosine: a one-shot
/// sampler, or one given a new seed every draw, keeps nothing. The readings
/// are bit for bit those of [`generate_readings`] with the same arguments.
#[derive(Debug, Clone)]
pub struct FieldSampler {
    positions: Vec<Position>,
    bases: Vec<Basis>,
    noise: NoiseMemo,
    /// The row handed to `emit`, reused across draws.
    row: Vec<f64>,
}

/// One spec's field, its wave sums (one per position) and the key they were
/// drawn for: `(correlation length bits, field seed)`.
#[derive(Debug, Clone)]
struct Basis {
    key: (u64, u64),
    field: CosineField,
    sums: Vec<f64>,
}

/// The last draw's noise stream and, once a draw repeats it, its draws.
#[derive(Debug, Clone, Default)]
struct NoiseMemo {
    /// The stream's seed, `None` before the first draw.
    seed: Option<u64>,
    /// Per spec, whether it drew from the stream (`noise > 0`).
    noisy: Vec<bool>,
    /// `(√(−2 ln u₁), cos u₂)` of each draw in stream order, kept apart so
    /// that `noise * r * c` rounds as a fresh draw's does. Empty until the
    /// stream repeats.
    draws: Vec<(f64, f64)>,
}

impl NoiseMemo {
    /// Records the stream of `specs` at `seed`. Returns whether it repeats
    /// the last one; a new stream drops the kept draws.
    fn repeats(&mut self, specs: &[FieldSpec], seed: u64) -> bool {
        let noisy = |s: &FieldSpec| s.noise > 0.0;
        if self.seed == Some(seed)
            && self.noisy.len() == specs.len()
            && self.noisy.iter().zip(specs).all(|(&on, s)| on == noisy(s))
        {
            return true;
        }
        self.seed = Some(seed);
        self.noisy.clear();
        self.noisy.extend(specs.iter().map(noisy));
        self.draws.clear();
        false
    }
}

impl FieldSampler {
    /// A sampler for nodes at `positions`: node `i` is at `positions[i]`.
    pub fn new(positions: Vec<Position>) -> Self {
        Self {
            positions,
            bases: Vec::new(),
            noise: NoiseMemo::default(),
            row: Vec::new(),
        }
    }

    /// Draws one reading per node and spec and hands each node's row to
    /// `emit(node, row)`, in node order: `row[i]` is spec `i`'s reading.
    ///
    /// # Panics
    /// Panics if a `cross` reference points at itself or a later spec.
    pub fn draw(&mut self, specs: &[FieldSpec], seed: u64, emit: impl FnMut(usize, &[f64])) {
        self.draw_with(specs, seed, chunks_for, emit);
    }

    /// [`Self::draw`] filling the stale sums in `chunks(cosines)` chunks.
    fn draw_with(
        &mut self,
        specs: &[FieldSpec],
        seed: u64,
        chunks: impl Fn(usize) -> usize,
        mut emit: impl FnMut(usize, &[f64]),
    ) {
        for (i, s) in specs.iter().enumerate() {
            if let Some((j, _)) = s.cross {
                assert!(
                    j < i,
                    "spec {i} ({}) must couple to an earlier spec, got {j}",
                    s.name
                );
            }
        }
        let n = self.positions.len();
        self.bases.truncate(specs.len());
        // Every new field is built before any basis changes, so a spec that
        // panics leaves each kept basis matching its key.
        let mut fresh = Vec::new();
        for (i, s) in specs.iter().enumerate() {
            let key = (s.correlation_length.to_bits(), seed ^ (i as u64 + 1));
            match self.bases.get_mut(i) {
                Some(basis) if basis.key == key => basis.field.set_moments(s.mean, s.amplitude),
                _ => {
                    let field = CosineField::new(s.mean, s.amplitude, s.correlation_length, key.1);
                    fresh.push((i, key, field));
                }
            }
        }
        if !fresh.is_empty() {
            let cosines = n * fresh.len() * CosineField::K;
            let stale: Vec<usize> = fresh.iter().map(|&(i, ..)| i).collect();
            for (i, key, field) in fresh {
                match self.bases.get_mut(i) {
                    Some(basis) => (basis.key, basis.field) = (key, field),
                    None => self.bases.push(Basis {
                        key,
                        field,
                        sums: vec![0.0; n],
                    }),
                }
            }
            let stale = (self.bases.iter_mut().enumerate())
                .filter(|(i, _)| stale.contains(i))
                .map(|(_, b)| (b.sums.as_mut_slice(), &b.field))
                .collect();
            fill_sums(&self.positions, stale, chunks(cosines));
        }
        // The cross term reads the finished value of an earlier spec and the
        // noise draws come from one stream: serial, in node then spec order.
        // A repeated stream replays its kept draws, or keeps them if it had
        // none yet.
        let repeats = self.noise.repeats(specs, seed);
        let replay = repeats && !self.noise.draws.is_empty();
        let keep = repeats && !replay;
        let Self {
            bases, noise, row, ..
        } = self;
        let mut noise_rng = SmallRng::seed_from_u64(seed.wrapping_mul(0x2545F4914F6CDD1D));
        let mut next = 0;
        // Kept draws land in the memo only once the stream is complete: an
        // `emit` that panics leaves it empty, never short.
        let mut kept = Vec::new();
        row.clear();
        row.resize(specs.len(), 0.0);
        for node in 0..n {
            for (i, (spec, basis)) in specs.iter().zip(bases.iter()).enumerate() {
                let mut v = basis.field.at(basis.sums[node]);
                if let Some((j, coeff)) = spec.cross {
                    v += coeff * (row[j] - specs[j].mean);
                }
                if spec.noise > 0.0 {
                    let (r, c) = if replay {
                        next += 1;
                        noise.draws[next - 1]
                    } else {
                        let draw = box_muller(&mut noise_rng);
                        if keep {
                            kept.push(draw);
                        }
                        draw
                    };
                    v += spec.noise * r * c;
                }
                row[i] = v;
            }
            emit(node, row);
        }
        if keep {
            noise.draws = kept;
        }
    }
}

/// One Box–Muller draw of white noise: its radius `√(−2 ln u₁)` and cosine
/// `cos u₂`, whose product with the noise scale is a normal sample.
fn box_muller(rng: &mut SmallRng) -> (f64, f64) {
    #[cfg(test)]
    tests::DRAWS.with(|n| n.set(n.get() + 1));
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..std::f64::consts::TAU);
    ((-2.0 * u1.ln()).sqrt(), u2.cos())
}

/// Writes each stale spec's wave sums at `positions`, in at most `chunks`
/// chunks of positions, one thread each. The calling thread takes the first
/// chunk, so one chunk spawns nothing.
fn fill_sums(positions: &[Position], stale: Vec<(&mut [f64], &CosineField)>, chunks: usize) {
    let per_chunk = positions.len().div_ceil(chunks.max(1)).max(1);
    // Per chunk of positions, its slice of every stale spec's sums.
    let mut parts: Vec<Vec<(&mut [f64], &CosineField)>> =
        positions.chunks(per_chunk).map(|_| Vec::new()).collect();
    for (sums, field) in stale {
        for (part, sums) in parts.iter_mut().zip(sums.chunks_mut(per_chunk)) {
            part.push((sums, field));
        }
    }
    let fill = |part: Vec<(&mut [f64], &CosineField)>, at: &[Position]| {
        for (sums, field) in part {
            for (s, &p) in sums.iter_mut().zip(at) {
                *s = field.wave_sum(p);
            }
        }
    };
    std::thread::scope(|scope| {
        let mut parts = parts.into_iter().zip(positions.chunks(per_chunk));
        let first = parts.next();
        for (part, at) in parts {
            scope.spawn(move || fill(part, at));
        }
        if let Some((part, at)) = first {
            fill(part, at);
        }
    });
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::field::tests::COSINES;
    use std::cell::Cell;

    thread_local! {
        /// Box–Muller draws [`box_muller`] evaluated on this thread.
        pub(crate) static DRAWS: Cell<usize> = const { Cell::new(0) };
    }

    fn positions(n: usize) -> Vec<Position> {
        let mut rng = SmallRng::seed_from_u64(5);
        (0..n)
            .map(|_| Position::new(rng.gen_range(0.0..1000.0), rng.gen_range(0.0..1000.0)))
            .collect()
    }

    #[test]
    fn shape_and_determinism() {
        let pos = positions(100);
        let specs = vec![
            FieldSpec::simple("temp", 21.0, 2.0, 200.0, 0.05),
            FieldSpec::simple("hum", 40.0, 5.0, 300.0, 0.2).coupled_to(0, -1.5),
        ];
        let a = generate_readings(&pos, &specs, 1);
        let b = generate_readings(&pos, &specs, 1);
        assert_eq!(a, b);
        assert_eq!(a.len(), 100);
        assert!(a.iter().all(|row| row.len() == 2));
    }

    /// Chunked sampling is the serial loop bit for bit: coupled specs, a
    /// zero-noise spec, and fewer positions than chunks.
    #[test]
    fn chunk_count_does_not_change_a_reading() {
        let specs = vec![
            FieldSpec::simple("temp", 21.0, 2.0, 200.0, 0.05),
            FieldSpec::simple("hum", 40.0, 5.0, 300.0, 0.2).coupled_to(0, -1.5),
            FieldSpec::simple("pres", 1013.0, 1.5, 600.0, 0.0).coupled_to(1, 0.3),
        ];
        for n in [0, 1, 3, 97] {
            let pos = positions(n);
            // The pre-chunking generator, one position and one spec at a time.
            let field = |(i, s): (usize, &FieldSpec)| {
                CosineField::new(
                    s.mean,
                    s.amplitude,
                    s.correlation_length,
                    11 ^ (i as u64 + 1),
                )
            };
            let fields: Vec<CosineField> = specs.iter().enumerate().map(field).collect();
            let mut rng = SmallRng::seed_from_u64(11u64.wrapping_mul(0x2545F4914F6CDD1D));
            let serial: Vec<Vec<f64>> = pos
                .iter()
                .map(|&p| {
                    let mut row = Vec::new();
                    for (i, spec) in specs.iter().enumerate() {
                        let mut v = fields[i].sample(p);
                        if let Some((j, coeff)) = spec.cross {
                            v += coeff * (row[j] - specs[j].mean);
                        }
                        if spec.noise > 0.0 {
                            let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
                            let u2: f64 = rng.gen_range(0.0..std::f64::consts::TAU);
                            v += spec.noise * (-2.0 * u1.ln()).sqrt() * u2.cos();
                        }
                        row.push(v);
                    }
                    row
                })
                .collect();
            let bits = |rows: &[Vec<f64>]| -> Vec<Vec<u64>> {
                let row = |r: &Vec<f64>| r.iter().map(|v| v.to_bits()).collect();
                rows.iter().map(row).collect()
            };
            for chunks in 1..=7 {
                let chunked = generate_readings_in(&pos, &specs, 11, chunks);
                assert_eq!(
                    bits(&chunked),
                    bits(&serial),
                    "{n} positions, {chunks} chunks"
                );
            }
            assert_eq!(bits(&generate_readings(&pos, &specs, 11)), bits(&serial));
        }
    }

    /// A reused sampler draws what a fresh generator draws, bit for bit, at
    /// 1 and 7 chunks, and evaluates cosines only for the specs whose key
    /// changed: hits, a new seed, a new correlation length on one spec, a
    /// spec appended and removed, and back to the first seed.
    #[test]
    fn a_reused_sampler_recomputes_only_changed_specs() {
        let base = vec![
            FieldSpec::simple("temp", 21.0, 2.0, 200.0, 0.05),
            FieldSpec::simple("hum", 40.0, 5.0, 300.0, 0.2).coupled_to(0, -1.5),
            FieldSpec::simple("pres", 1013.0, 1.5, 600.0, 0.0).coupled_to(1, 0.3),
        ];
        let rescaled: Vec<FieldSpec> = base
            .iter()
            .map(|s| FieldSpec {
                mean: s.mean + 1.0,
                amplitude: s.amplitude * 1.5,
                noise: s.noise * 1.25 + 0.01,
                cross: s.cross.map(|(j, c)| (j, c * 0.5)),
                ..s.clone()
            })
            .collect();
        let mut stretched = base.clone();
        stretched[1].correlation_length = 450.0;
        let mut appended = stretched.clone();
        appended.push(FieldSpec::simple("light", 300.0, 80.0, 150.0, 4.0).coupled_to(0, 2.0));
        // (specs, seed, cosines per position of the draw, in waves)
        let steps: [(&[FieldSpec], u64, usize); 8] = [
            (&base, 11, 3),
            (&rescaled, 11, 0),
            (&base, 11, 0),
            (&base, 12, 3),
            (&stretched, 12, 1),
            (&appended, 12, 1),
            (&stretched, 12, 0),
            (&base, 11, 3),
        ];
        let bits = |rows: &[Vec<f64>]| -> Vec<Vec<u64>> {
            let row = |r: &Vec<f64>| r.iter().map(|v| v.to_bits()).collect();
            rows.iter().map(row).collect()
        };
        let pos = positions(97);
        let (n, k) = (pos.len(), CosineField::K);
        for chunks in [1, 7] {
            let mut sampler = FieldSampler::new(pos.clone());
            for (step, &(specs, seed, changed)) in steps.iter().enumerate() {
                let fresh = generate_readings(&pos, specs, seed);
                let mut drawn = Vec::new();
                COSINES.take();
                sampler.draw_with(specs, seed, |_| chunks, |_, row| drawn.push(row.to_vec()));
                assert_eq!(bits(&drawn), bits(&fresh), "step {step}, {chunks} chunks");
                // The counter is per thread: one chunk is all of the work.
                if chunks == 1 {
                    assert_eq!(COSINES.take(), n * k * changed, "step {step}");
                }
            }
        }
    }

    /// A sampler keeps its noise stream's draws from the draw that repeats
    /// the stream, and replays them on the draws after it, bit for bit:
    /// rescaled noise, means and amplitudes replay; a new seed, or a spec
    /// whose noise becomes 0, draws afresh.
    #[test]
    fn a_repeated_noise_stream_is_drawn_once() {
        let base = vec![
            FieldSpec::simple("temp", 21.0, 2.0, 200.0, 0.05),
            FieldSpec::simple("hum", 40.0, 5.0, 300.0, 0.2).coupled_to(0, -1.5),
            FieldSpec::simple("pres", 1013.0, 1.5, 600.0, 0.0).coupled_to(1, 0.3),
        ];
        let scaled = |by: f64| -> Vec<FieldSpec> {
            let scale = |s: &FieldSpec| FieldSpec {
                mean: s.mean + by,
                amplitude: s.amplitude * by,
                noise: s.noise * by,
                ..s.clone()
            };
            base.iter().map(scale).collect()
        };
        let mut quiet = base.clone();
        quiet[1].noise = 0.0;
        // (specs, seed, Box–Muller draws per position of the draw)
        let steps: [(&[FieldSpec], u64, usize); 9] = [
            (&base, 11, 2),
            (&scaled(1.25), 11, 2),
            (&scaled(1.5), 11, 0),
            (&base, 11, 0),
            (&base, 12, 2),
            (&base, 12, 2),
            (&base, 12, 0),
            (&quiet, 12, 1),
            (&base, 12, 2),
        ];
        let bits = |rows: &[Vec<f64>]| -> Vec<Vec<u64>> {
            let row = |r: &Vec<f64>| r.iter().map(|v| v.to_bits()).collect();
            rows.iter().map(row).collect()
        };
        let pos = positions(97);
        let mut sampler = FieldSampler::new(pos.clone());
        for (step, &(specs, seed, draws)) in steps.iter().enumerate() {
            let fresh = generate_readings(&pos, specs, seed);
            let mut drawn = Vec::new();
            DRAWS.take();
            sampler.draw(specs, seed, |_, row| drawn.push(row.to_vec()));
            assert_eq!(DRAWS.take(), pos.len() * draws, "step {step}");
            assert_eq!(bits(&drawn), bits(&fresh), "step {step}");
        }
    }

    /// A draw that panics leaves nothing stale behind. On a bad spec, every
    /// kept basis still matches its key, so a later draw of the field the
    /// panicking one asked for recomputes it; in `emit`, while keeping the
    /// noise draws, the memo stays empty rather than short.
    #[test]
    fn a_panicking_draw_leaves_no_stale_state() {
        let pos = positions(20);
        let temp = |corr| FieldSpec::simple("temp", 21.0, 2.0, corr, 0.05);
        let mut bad = FieldSpec::simple("hum", 40.0, 5.0, 300.0, 0.2);
        bad.amplitude = -1.0;
        let good = FieldSpec::simple("hum", 40.0, 5.0, 300.0, 0.2);
        let mut sampler = FieldSampler::new(pos.clone());
        let panics = |sampler: &mut FieldSampler, specs: &[FieldSpec], emit_at| {
            let draw = std::panic::AssertUnwindSafe(|| {
                sampler.draw(specs, 1, |node, _| assert_ne!(node, emit_at))
            });
            assert!(std::panic::catch_unwind(draw).is_err());
        };
        sampler.draw(&[temp(200.0)], 1, |_, _| {});
        panics(&mut sampler, &[temp(450.0), bad], usize::MAX);
        let specs = [temp(450.0), good];
        let check = |sampler: &mut FieldSampler| {
            let mut drawn = Vec::new();
            sampler.draw(&specs, 1, |_, row| drawn.push(row.to_vec()));
            assert_eq!(drawn, generate_readings(&pos, &specs, 1));
        };
        check(&mut sampler);
        // A repeat whose `emit` panics midway, then a repeat and a replay.
        panics(&mut sampler, &specs, 5);
        check(&mut sampler);
        check(&mut sampler);
    }

    #[test]
    fn coupling_induces_correlation() {
        let pos = positions(2000);
        let specs = vec![
            FieldSpec::simple("temp", 21.0, 2.0, 200.0, 0.0),
            FieldSpec::simple("hum", 40.0, 1.0, 300.0, 0.0).coupled_to(0, -2.0),
        ];
        let rows = generate_readings(&pos, &specs, 3);
        let mt = rows.iter().map(|r| r[0]).sum::<f64>() / rows.len() as f64;
        let mh = rows.iter().map(|r| r[1]).sum::<f64>() / rows.len() as f64;
        let cov: f64 =
            rows.iter().map(|r| (r[0] - mt) * (r[1] - mh)).sum::<f64>() / rows.len() as f64;
        assert!(cov < -1.0, "expected strong anti-correlation, cov {cov}");
    }

    #[test]
    fn noise_breaks_exact_equality() {
        let pos = vec![Position::new(10.0, 10.0), Position::new(10.0, 10.0)];
        let specs = vec![FieldSpec::simple("temp", 0.0, 1.0, 100.0, 0.5)];
        let rows = generate_readings(&pos, &specs, 9);
        assert_ne!(rows[0][0], rows[1][0]);
    }

    #[test]
    #[should_panic(expected = "earlier spec")]
    fn forward_coupling_rejected() {
        generate_readings(
            &positions(1),
            &[FieldSpec::simple("a", 0.0, 1.0, 100.0, 0.0).coupled_to(0, 1.0)],
            1,
        );
    }
}
