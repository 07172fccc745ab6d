//! Latency models for the fabric.
//!
//! Each simulated host is assigned a [`LatencyModel`]; the fabric samples a
//! round-trip time per request and advances the virtual clock by it. The
//! heavy-tail model is what produces the "timed out due to slow redirect
//! links" population the paper reports for 26% of invite links.

use crate::clock::SimDuration;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// How long a host takes to answer.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum LatencyModel {
    /// Always exactly this long.
    Fixed {
        /// Constant round-trip time in ms.
        ms: u64,
    },
    /// Uniformly distributed in `[lo_ms, hi_ms]`.
    Uniform {
        /// Lower bound (ms).
        lo_ms: u64,
        /// Upper bound (ms), inclusive.
        hi_ms: u64,
    },
    /// Mostly `base_ms` with jitter, but a `tail_prob` chance of a response
    /// `tail_factor`× slower — the classic long-tail web server.
    HeavyTail {
        /// Typical response time (ms).
        base_ms: u64,
        /// Probability in `[0,1]` of hitting the slow tail.
        tail_prob: f64,
        /// Multiplier applied on tail hits.
        tail_factor: u64,
    },
}

impl LatencyModel {
    /// A sensible default for a healthy site: 40–120 ms.
    pub fn healthy() -> LatencyModel {
        LatencyModel::Uniform {
            lo_ms: 40,
            hi_ms: 120,
        }
    }

    /// A slow, flaky host: 300 ms base with a 15% chance of 20× tail —
    /// guaranteed to trip a multi-second client timeout occasionally.
    pub fn flaky() -> LatencyModel {
        LatencyModel::HeavyTail {
            base_ms: 300,
            tail_prob: 0.15,
            tail_factor: 20,
        }
    }

    /// Sample one round-trip time.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> SimDuration {
        let ms = match *self {
            LatencyModel::Fixed { ms } => ms,
            LatencyModel::Uniform { lo_ms, hi_ms } => {
                if lo_ms >= hi_ms {
                    lo_ms
                } else {
                    rng.gen_range(lo_ms..=hi_ms)
                }
            }
            LatencyModel::HeavyTail {
                base_ms,
                tail_prob,
                tail_factor,
            } => {
                let jittered = base_ms + rng.gen_range(0..=base_ms / 4 + 1);
                if rng.gen_bool(tail_prob.clamp(0.0, 1.0)) {
                    jittered.saturating_mul(tail_factor.max(1))
                } else {
                    jittered
                }
            }
        };
        SimDuration::from_millis(ms)
    }
}

impl Default for LatencyModel {
    fn default() -> Self {
        LatencyModel::healthy()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn fixed_is_fixed() {
        let mut rng = StdRng::seed_from_u64(1);
        let m = LatencyModel::Fixed { ms: 77 };
        for _ in 0..10 {
            assert_eq!(m.sample(&mut rng).as_millis(), 77);
        }
    }

    #[test]
    fn uniform_stays_in_bounds() {
        let mut rng = StdRng::seed_from_u64(2);
        let m = LatencyModel::Uniform {
            lo_ms: 10,
            hi_ms: 20,
        };
        for _ in 0..200 {
            let s = m.sample(&mut rng).as_millis();
            assert!((10..=20).contains(&s), "sample {s} out of bounds");
        }
    }

    #[test]
    fn uniform_degenerate_bounds() {
        let mut rng = StdRng::seed_from_u64(3);
        let m = LatencyModel::Uniform {
            lo_ms: 50,
            hi_ms: 50,
        };
        assert_eq!(m.sample(&mut rng).as_millis(), 50);
        // inverted bounds fall back to lo rather than panicking
        let m = LatencyModel::Uniform {
            lo_ms: 60,
            hi_ms: 10,
        };
        assert_eq!(m.sample(&mut rng).as_millis(), 60);
    }

    #[test]
    fn heavy_tail_produces_tail_events() {
        let mut rng = StdRng::seed_from_u64(4);
        let m = LatencyModel::HeavyTail {
            base_ms: 100,
            tail_prob: 0.5,
            tail_factor: 50,
        };
        let samples: Vec<u64> = (0..100).map(|_| m.sample(&mut rng).as_millis()).collect();
        let slow = samples.iter().filter(|&&s| s >= 100 * 50).count();
        let fast = samples.iter().filter(|&&s| s < 200).count();
        assert!(slow > 20, "expected tail hits, got {slow}");
        assert!(fast > 20, "expected fast responses, got {fast}");
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let m = LatencyModel::healthy();
        let a: Vec<u64> = {
            let mut rng = StdRng::seed_from_u64(9);
            (0..20).map(|_| m.sample(&mut rng).as_millis()).collect()
        };
        let b: Vec<u64> = {
            let mut rng = StdRng::seed_from_u64(9);
            (0..20).map(|_| m.sample(&mut rng).as_millis()).collect()
        };
        assert_eq!(a, b);
    }
}
