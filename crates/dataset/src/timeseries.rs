//! Synthetic time-series database.
//!
//! The paper's second dataset is the time-series database of Vlachos et al.
//! (SIGKDD 2003): *"various real datasets were used as seeds for generating
//! a large number of time-series that are variations of the original
//! sequences. Multiple copies of every real sequence were constructed by
//! incorporating small variations in the original patterns as well as
//! additions of random compression and decompression in time"* (Section 9).
//!
//! We reproduce that expansion recipe. Because the real seed sequences are
//! not redistributable, the seed library here consists of structured
//! generators with very different temporal signatures (sine mixtures, random
//! walks, cylinder–bell–funnel patterns, AR(2) processes, chirps). Each
//! database sequence is a seed rendered with small pattern variation, random
//! time compression/decompression, amplitude scaling and additive noise, then
//! mean-normalized per dimension exactly as the paper describes.

use qse_distance::dtw::TimeSeries;
use rand::Rng;
use std::f64::consts::PI;

/// Configuration of the synthetic time-series generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimeSeriesGeneratorConfig {
    /// Nominal sequence length before random time compression/decompression.
    /// The paper's sequences average ~500 points; the default here is shorter
    /// to keep the `O(len · band)` cDTW affordable at reproduction scale.
    pub base_length: usize,
    /// Dimensionality of each sample (the paper's sequences are
    /// multi-dimensional).
    pub dimensions: usize,
    /// Number of distinct seed patterns in the library.
    pub seed_patterns: usize,
    /// Standard deviation of additive Gaussian noise.
    pub noise: f64,
    /// Maximum relative change of the overall duration due to random time
    /// compression/decompression (0.2 = ±20%).
    pub max_time_warp: f64,
    /// Maximum relative amplitude scaling (0.2 = ±20%).
    pub max_amplitude_scale: f64,
    /// Whether to mean-normalize each dimension, as the paper does.
    pub mean_normalize: bool,
}

impl Default for TimeSeriesGeneratorConfig {
    fn default() -> Self {
        Self {
            base_length: 96,
            dimensions: 2,
            seed_patterns: 16,
            noise: 0.05,
            max_time_warp: 0.2,
            max_amplitude_scale: 0.25,
            mean_normalize: true,
        }
    }
}

/// Families of seed patterns; each seed instance fixes random parameters of
/// one family.
#[derive(Debug, Clone)]
enum SeedPattern {
    /// Sum of a few sinusoids with fixed frequencies/phases per dimension.
    SineMixture {
        freqs: Vec<Vec<f64>>,
        phases: Vec<Vec<f64>>,
        amps: Vec<Vec<f64>>,
    },
    /// A smoothed random walk (fixed increments replayed each render).
    RandomWalk { increments: Vec<Vec<f64>> },
    /// Cylinder–bell–funnel style events (plateau / ramp up / ramp down).
    CylinderBellFunnel {
        kind: u8,
        start: f64,
        duration: f64,
        amplitude: f64,
    },
    /// Second-order autoregressive process with fixed innovations.
    Ar2 {
        a1: f64,
        a2: f64,
        innovations: Vec<Vec<f64>>,
    },
    /// Linear chirp (frequency sweeps over time).
    Chirp { f0: f64, f1: f64, amp: f64 },
}

/// A seed: one pattern instance plus an identifier.
#[derive(Debug, Clone)]
pub struct Seed {
    /// Index of the seed in the library; doubles as a "class" label.
    pub id: usize,
    pattern: SeedPattern,
}

impl Seed {
    /// Render the ideal (noise-free) value of this seed at normalized time
    /// `t ∈ [0, 1]`, for the requested dimensionality.
    fn value_at(&self, t: f64, dims: usize) -> Vec<f64> {
        match &self.pattern {
            SeedPattern::SineMixture {
                freqs,
                phases,
                amps,
            } => (0..dims)
                .map(|d| {
                    freqs[d]
                        .iter()
                        .zip(&phases[d])
                        .zip(&amps[d])
                        .map(|((f, p), a)| a * (2.0 * PI * f * t + p).sin())
                        .sum()
                })
                .collect(),
            SeedPattern::RandomWalk { increments } => (0..dims)
                .map(|d| {
                    let steps = increments[d].len();
                    let upto = ((t * steps as f64) as usize).min(steps);
                    increments[d][..upto].iter().sum()
                })
                .collect(),
            SeedPattern::CylinderBellFunnel {
                kind,
                start,
                duration,
                amplitude,
            } => {
                let in_event = t >= *start && t <= start + duration;
                let base = if in_event {
                    let local = (t - start) / duration;
                    match kind % 3 {
                        0 => *amplitude,                // cylinder
                        1 => amplitude * local,         // bell (ramp up)
                        _ => amplitude * (1.0 - local), // funnel (ramp down)
                    }
                } else {
                    0.0
                };
                (0..dims).map(|d| base * (1.0 + 0.25 * d as f64)).collect()
            }
            SeedPattern::Ar2 {
                a1,
                a2,
                innovations,
            } => (0..dims)
                .map(|d| {
                    let steps = innovations[d].len();
                    let upto = ((t * steps as f64) as usize).min(steps);
                    let mut prev1 = 0.0;
                    let mut prev2 = 0.0;
                    for e in &innovations[d][..upto] {
                        let x = a1 * prev1 + a2 * prev2 + e;
                        prev2 = prev1;
                        prev1 = x;
                    }
                    prev1
                })
                .collect(),
            SeedPattern::Chirp { f0, f1, amp } => (0..dims)
                .map(|d| {
                    let f = f0 + (f1 - f0) * t;
                    amp * (2.0 * PI * f * t + d as f64 * 0.5).sin()
                })
                .collect(),
        }
    }
}

/// Generator of synthetic time series following the paper's expansion recipe.
#[derive(Debug, Clone)]
pub struct TimeSeriesGenerator {
    config: TimeSeriesGeneratorConfig,
    seeds: Vec<Seed>,
}

impl TimeSeriesGenerator {
    /// Build a generator with a freshly sampled seed library.
    ///
    /// # Panics
    /// Panics if the configuration is degenerate (zero length, dimensions or
    /// seed patterns).
    pub fn new<R: Rng>(config: TimeSeriesGeneratorConfig, rng: &mut R) -> Self {
        assert!(config.base_length >= 8, "base_length must be at least 8");
        assert!(config.dimensions >= 1, "dimensions must be at least 1");
        assert!(config.seed_patterns >= 1, "need at least one seed pattern");
        let seeds = (0..config.seed_patterns)
            .map(|id| Seed {
                id,
                pattern: random_pattern(id, config.dimensions, config.base_length, rng),
            })
            .collect();
        Self { config, seeds }
    }

    /// Generator with the default configuration.
    pub fn with_default_config<R: Rng>(rng: &mut R) -> Self {
        Self::new(TimeSeriesGeneratorConfig::default(), rng)
    }

    /// The generator configuration.
    pub fn config(&self) -> &TimeSeriesGeneratorConfig {
        &self.config
    }

    /// The seed library.
    pub fn seeds(&self) -> &[Seed] {
        &self.seeds
    }

    /// Render one variation of seed `seed_id`.
    ///
    /// The variation applies (in order): random overall time
    /// compression/decompression, a smooth local time warp, amplitude
    /// scaling, additive Gaussian noise, and optional per-dimension mean
    /// normalization.
    ///
    /// # Panics
    /// Panics if `seed_id` is out of range.
    pub fn variation<R: Rng>(&self, seed_id: usize, rng: &mut R) -> TimeSeries {
        assert!(seed_id < self.seeds.len(), "seed_id {seed_id} out of range");
        let cfg = &self.config;
        let seed = &self.seeds[seed_id];

        // Random global compression / decompression of the duration.
        let warp = 1.0 + rng.gen_range(-cfg.max_time_warp..=cfg.max_time_warp);
        let length = ((cfg.base_length as f64) * warp).round().max(8.0) as usize;
        // Smooth local warp: time runs faster/slower along the sequence.
        let local_amp = rng.gen_range(0.0..cfg.max_time_warp);
        let local_phase = rng.gen_range(0.0..(2.0 * PI));
        let amp_scale = 1.0 + rng.gen_range(-cfg.max_amplitude_scale..=cfg.max_amplitude_scale);

        let mut values = Vec::with_capacity(length);
        for i in 0..length {
            let t = i as f64 / (length - 1) as f64;
            // Local compression/decompression: perturb the time axis with a
            // smooth periodic displacement, keeping it within [0, 1].
            let t_warped =
                (t + local_amp * 0.2 * (2.0 * PI * t + local_phase).sin()).clamp(0.0, 1.0);
            let mut v = seed.value_at(t_warped, cfg.dimensions);
            for x in &mut v {
                *x = *x * amp_scale + gaussian(rng) * cfg.noise;
            }
            values.push(v);
        }
        let series = TimeSeries::new(values);
        if cfg.mean_normalize {
            series.mean_normalized()
        } else {
            series
        }
    }

    /// Generate a database of `count` sequences by cycling through the seed
    /// library, returning each sequence together with the id of the seed it
    /// was grown from.
    pub fn generate<R: Rng>(&self, count: usize, rng: &mut R) -> Vec<(TimeSeries, usize)> {
        (0..count)
            .map(|i| {
                let seed_id = i % self.seeds.len();
                (self.variation(seed_id, rng), seed_id)
            })
            .collect()
    }

    /// Generate a database of `count` sequences, discarding the seed labels.
    pub fn generate_unlabeled<R: Rng>(&self, count: usize, rng: &mut R) -> Vec<TimeSeries> {
        self.generate(count, rng)
            .into_iter()
            .map(|(s, _)| s)
            .collect()
    }
}

fn random_pattern<R: Rng>(id: usize, dims: usize, base_length: usize, rng: &mut R) -> SeedPattern {
    match id % 5 {
        0 => {
            let mk =
                |rng: &mut R| -> Vec<f64> { (0..3).map(|_| rng.gen_range(0.5..6.0)).collect() };
            SeedPattern::SineMixture {
                freqs: (0..dims).map(|_| mk(rng)).collect(),
                phases: (0..dims)
                    .map(|_| (0..3).map(|_| rng.gen_range(0.0..(2.0 * PI))).collect())
                    .collect(),
                amps: (0..dims)
                    .map(|_| (0..3).map(|_| rng.gen_range(0.2..1.0)).collect())
                    .collect(),
            }
        }
        1 => SeedPattern::RandomWalk {
            increments: (0..dims)
                .map(|_| (0..base_length).map(|_| gaussian(rng) * 0.15).collect())
                .collect(),
        },
        2 => SeedPattern::CylinderBellFunnel {
            kind: rng.gen_range(0..3),
            start: rng.gen_range(0.1..0.4),
            duration: rng.gen_range(0.2..0.5),
            amplitude: rng.gen_range(0.8..2.0),
        },
        3 => SeedPattern::Ar2 {
            a1: rng.gen_range(0.3..0.7),
            a2: rng.gen_range(-0.4..0.2),
            innovations: (0..dims)
                .map(|_| (0..base_length).map(|_| gaussian(rng) * 0.3).collect())
                .collect(),
        },
        _ => SeedPattern::Chirp {
            f0: rng.gen_range(0.5..2.0),
            f1: rng.gen_range(3.0..8.0),
            amp: rng.gen_range(0.5..1.5),
        },
    }
}

fn gaussian<R: Rng>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use qse_distance::{ConstrainedDtw, DistanceMeasure};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn generator(seed: u64) -> TimeSeriesGenerator {
        TimeSeriesGenerator::with_default_config(&mut StdRng::seed_from_u64(seed))
    }

    #[test]
    fn variations_have_expected_shape() {
        let g = generator(1);
        let mut rng = StdRng::seed_from_u64(2);
        let s = g.variation(0, &mut rng);
        assert_eq!(s.dim(), g.config().dimensions);
        let base = g.config().base_length as f64;
        let warp = g.config().max_time_warp;
        assert!((s.len() as f64) >= base * (1.0 - warp) - 1.0);
        assert!((s.len() as f64) <= base * (1.0 + warp) + 1.0);
    }

    #[test]
    fn mean_normalization_is_applied() {
        let g = generator(3);
        let mut rng = StdRng::seed_from_u64(4);
        let s = g.variation(1, &mut rng);
        for d in 0..s.dim() {
            let mean: f64 = s.samples().map(|v| v[d]).sum::<f64>() / s.len() as f64;
            assert!(mean.abs() < 1e-9, "dimension {d} mean {mean}");
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let g = generator(5);
        let a = g.generate(12, &mut StdRng::seed_from_u64(10));
        let b = g.generate(12, &mut StdRng::seed_from_u64(10));
        assert_eq!(a, b);
    }

    #[test]
    fn labels_cycle_over_seed_library() {
        let g = generator(6);
        let mut rng = StdRng::seed_from_u64(11);
        let db = g.generate(32, &mut rng);
        assert_eq!(db[0].1, 0);
        assert_eq!(db[1].1, 1);
        assert_eq!(db[16].1, 0);
    }

    #[test]
    fn same_seed_variations_are_closer_under_dtw_than_different_seeds() {
        // The cluster structure the retrieval experiments rely on.
        let g = generator(7);
        let mut rng = StdRng::seed_from_u64(13);
        let dtw = ConstrainedDtw::paper();
        let mut intra = Vec::new();
        let mut inter = Vec::new();
        let per_seed = 3;
        let seeds = 4;
        let samples: Vec<Vec<TimeSeries>> = (0..seeds)
            .map(|sid| (0..per_seed).map(|_| g.variation(sid, &mut rng)).collect())
            .collect();
        for (si, group) in samples.iter().enumerate() {
            for i in 0..group.len() {
                for j in (i + 1)..group.len() {
                    intra.push(dtw.distance(&group[i], &group[j]));
                }
                for other in samples.iter().skip(si + 1) {
                    inter.push(dtw.distance(&group[i], &other[0]));
                }
            }
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(
            mean(&intra) < mean(&inter),
            "intra {} should be below inter {}",
            mean(&intra),
            mean(&inter)
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_unknown_seed_id() {
        let g = generator(8);
        let _ = g.variation(10_000, &mut StdRng::seed_from_u64(0));
    }

    #[test]
    #[should_panic(expected = "at least 8")]
    fn rejects_degenerate_length() {
        let cfg = TimeSeriesGeneratorConfig {
            base_length: 2,
            ..Default::default()
        };
        let _ = TimeSeriesGenerator::new(cfg, &mut StdRng::seed_from_u64(0));
    }
}
