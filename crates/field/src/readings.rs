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

/// Cosines below which [`generate_readings`] samples inline. A cosine costs
/// some 17 ns and a spawned worker some tens of µs, and the callers with
/// many small networks — a serve tick's 250-node deployments, 64 k cosines
/// each — already run on one thread per deployment: fanning out pays from a
/// couple of milliseconds of sampling.
const PAR_MIN_COSINES: usize = 1 << 17;

/// Generates one reading per node and spec: `readings[node][spec]`.
///
/// Each spec gets an independent field seeded from `seed` and its index, so
/// regenerating with the same arguments is exactly reproducible — on any
/// number of threads: only the smooth field component, independent per
/// (node, spec), is sampled in parallel.
///
/// # Panics
/// Panics if a `cross` reference points at itself or a later spec.
pub fn generate_readings(positions: &[Position], specs: &[FieldSpec], seed: u64) -> Vec<Vec<f64>> {
    let chunks = match positions.len() * specs.len() * CosineField::K {
        cosines if cosines < PAR_MIN_COSINES => 1,
        _ => host_threads(),
    };
    generate_readings_in(positions, specs, seed, chunks)
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
fn generate_readings_in(
    positions: &[Position],
    specs: &[FieldSpec],
    seed: u64,
    chunks: usize,
) -> Vec<Vec<f64>> {
    for (i, s) in specs.iter().enumerate() {
        if let Some((j, _)) = s.cross {
            assert!(
                j < i,
                "spec {i} ({}) must couple to an earlier spec, got {j}",
                s.name
            );
        }
    }
    let fields: Vec<CosineField> = specs
        .iter()
        .enumerate()
        .map(|(i, s)| {
            CosineField::new(
                s.mean,
                s.amplitude,
                s.correlation_length,
                seed ^ (i as u64 + 1),
            )
        })
        .collect();
    // Same allocations as a serial fill: one row per position, written in
    // place. The calling thread takes the first chunk, so one chunk spawns
    // nothing.
    let mut rows: Vec<Vec<f64>> = positions.iter().map(|_| vec![0.0; specs.len()]).collect();
    let fill = |rows: &mut [Vec<f64>], at: &[Position]| {
        for (row, &p) in rows.iter_mut().zip(at) {
            for (v, field) in row.iter_mut().zip(&fields) {
                *v = field.sample(p);
            }
        }
    };
    let per_chunk = positions.len().div_ceil(chunks.max(1)).max(1);
    std::thread::scope(|scope| {
        let mut parts = rows.chunks_mut(per_chunk).zip(positions.chunks(per_chunk));
        let first = parts.next();
        for (rows, at) in parts {
            scope.spawn(|| fill(rows, at));
        }
        if let Some((rows, at)) = first {
            fill(rows, at);
        }
    });
    // The cross term reads the finished value of an earlier spec and the
    // noise draws come from one stream: serial, in node then spec order.
    let mut noise_rng = SmallRng::seed_from_u64(seed.wrapping_mul(0x2545F4914F6CDD1D));
    for row in &mut rows {
        for (i, spec) in specs.iter().enumerate() {
            let mut v = row[i];
            if let Some((j, coeff)) = spec.cross {
                v += coeff * (row[j] - specs[j].mean);
            }
            if spec.noise > 0.0 {
                // Box-Muller white noise.
                let u1: f64 = noise_rng.gen_range(f64::EPSILON..1.0);
                let u2: f64 = noise_rng.gen_range(0.0..std::f64::consts::TAU);
                v += spec.noise * (-2.0 * u1.ln()).sqrt() * u2.cos();
            }
            row[i] = v;
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

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
