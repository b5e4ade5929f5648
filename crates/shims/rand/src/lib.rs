#![deny(missing_docs)]

//! Offline shim for the subset of the `rand` crate API this workspace
//! uses (`SmallRng`, `SeedableRng::seed_from_u64`, `Rng::gen_range`,
//! `Rng::gen_bool`).
//!
//! The build container has no crates.io access, so this in-tree package
//! stands in for the real crate. The generator is **not** the upstream
//! `SmallRng` algorithm — it is xoshiro256**, which is deterministic,
//! seedable, and statistically strong enough for synthetic dataset
//! generation. Every consumer in this repo treats the stream as an
//! opaque seeded source, never as a bit-compatible reproduction of
//! upstream `rand`.

use std::ops::Range;

/// Seedable random number generators (upstream: `rand::SeedableRng`).
pub trait SeedableRng: Sized {
    /// Creates a generator from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Types that can be drawn uniformly from a half-open range (upstream:
/// `rand::distributions::uniform::SampleUniform`).
pub trait SampleUniform: Sized {
    /// Draws one uniform value in `[lo, hi)`.
    fn sample_uniform<G: RngCore + ?Sized>(lo: Self, hi: Self, rng: &mut G) -> Self;
}

/// Ranges that can be sampled uniformly (upstream: `rand::distributions`).
///
/// The single blanket impl over `Range<T>` mirrors upstream so that type
/// inference can flow from the result type back into range literals
/// (e.g. `hub + rng.gen_range(0..64)` infers `usize`).
pub trait SampleRange<T> {
    /// Draws one uniform value from the range.
    fn sample_from<G: RngCore + ?Sized>(self, rng: &mut G) -> T;
}

impl<T: SampleUniform + PartialOrd> SampleRange<T> for Range<T> {
    fn sample_from<G: RngCore + ?Sized>(self, rng: &mut G) -> T {
        assert!(self.start < self.end, "empty sample range");
        T::sample_uniform(self.start, self.end, rng)
    }
}

/// The raw 64-bit generator interface (upstream: `rand::RngCore`).
pub trait RngCore {
    /// Next raw 64-bit value.
    fn next_u64(&mut self) -> u64;
}

/// User-facing sampling helpers (upstream: `rand::Rng`).
pub trait Rng: RngCore {
    /// Uniform value in `range` (half-open).
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T
    where
        Self: Sized,
    {
        range.sample_from(self)
    }

    /// `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        // 53-bit uniform in [0, 1).
        ((self.next_u64() >> 11) as f64) * (1.0 / (1u64 << 53) as f64) < p
    }
}

impl<T: RngCore> Rng for T {}

macro_rules! uniform_unsigned {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_uniform<G: RngCore + ?Sized>(lo: Self, hi: Self, rng: &mut G) -> Self {
                // Modulo bias is negligible for the spans used here and
                // irrelevant for synthetic data generation.
                let span = (hi - lo) as u64;
                lo + (rng.next_u64() % span) as $t
            }
        }
    )*};
}
uniform_unsigned!(usize, u64, u32, u16, u8);

macro_rules! uniform_signed {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_uniform<G: RngCore + ?Sized>(lo: Self, hi: Self, rng: &mut G) -> Self {
                let span = (hi as i64 - lo as i64) as u64;
                (lo as i64 + (rng.next_u64() % span) as i64) as $t
            }
        }
    )*};
}
uniform_signed!(i64, i32, i16, i8, isize);

macro_rules! uniform_float {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_uniform<G: RngCore + ?Sized>(lo: Self, hi: Self, rng: &mut G) -> Self {
                let unit = ((rng.next_u64() >> 11) as f64) * (1.0 / (1u64 << 53) as f64);
                lo + (hi - lo) * unit as $t
            }
        }
    )*};
}
uniform_float!(f32, f64);

/// Namespaced generators (upstream: `rand::rngs`).
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// A small, fast, seedable generator (xoshiro256**).
    #[derive(Debug, Clone)]
    pub struct SmallRng {
        s: [u64; 4],
    }

    impl SeedableRng for SmallRng {
        fn seed_from_u64(seed: u64) -> Self {
            // SplitMix64 expansion, the standard xoshiro seeding recipe.
            let mut x = seed;
            let mut next = || {
                x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            SmallRng {
                s: [next(), next(), next(), next()],
            }
        }
    }

    impl RngCore for SmallRng {
        fn next_u64(&mut self) -> u64 {
            let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::SmallRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_per_seed() {
        let mut a = SmallRng::seed_from_u64(7);
        let mut b = SmallRng::seed_from_u64(7);
        for _ in 0..64 {
            assert_eq!(a.gen_range(0usize..1000), b.gen_range(0usize..1000));
        }
        let mut c = SmallRng::seed_from_u64(8);
        let same: usize = (0..64)
            .filter(|_| a.gen_range(0u64..1 << 40) == c.gen_range(0u64..1 << 40))
            .count();
        assert!(same < 4, "different seeds should diverge");
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..1000 {
            let v = rng.gen_range(10usize..20);
            assert!((10..20).contains(&v));
            let f = rng.gen_range(0.25f32..1.0);
            assert!((0.25..1.0).contains(&f));
            let d = rng.gen_range(-2.0f64..3.0);
            assert!((-2.0..3.0).contains(&d));
        }
    }

    #[test]
    fn gen_bool_matches_probability_roughly() {
        let mut rng = SmallRng::seed_from_u64(11);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.25)).count();
        assert!((2000..3000).contains(&hits), "hits {hits}");
    }
}
