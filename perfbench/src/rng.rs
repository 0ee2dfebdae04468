//! The benchmark's seeded generator: every input a run makes comes from
//! here, so the same `--seed` gives the same operations.

/// SplitMix64 — small, fast, and good enough to draw workload inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, separated per `stream` so that workloads
    /// drawing different things from one seed do not share a sequence.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        // Multiply-shift: unbiased enough for input generation.
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + self.below((hi - lo + 1) as u64) as i64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// An exponential draw with mean `mean` — Poisson inter-arrival gaps.
    pub fn exp(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.unit()).ln()
    }
}

/// Draws indices `0..n` in seeded shuffled rounds: every index appears
/// once per round, so a run's mix is exact whatever the seed and only the
/// order varies.
#[derive(Debug, Clone)]
pub struct Rounds {
    rng: Rng,
    order: Vec<usize>,
    next: usize,
}

impl Rounds {
    /// Rounds over `0..n` drawn from `rng`.
    pub fn new(n: usize, rng: Rng) -> Rounds {
        Rounds {
            rng,
            order: (0..n).collect(),
            next: n,
        }
    }

    /// The next index.
    pub fn next_index(&mut self) -> usize {
        if self.next == self.order.len() {
            for i in (1..self.order.len()).rev() {
                let j = self.rng.below(i as u64 + 1) as usize;
                self.order.swap(i, j);
            }
            self.next = 0;
        }
        self.next += 1;
        self.order[self.next - 1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let a: Vec<u64> = (0..8)
            .map({
                let mut r = Rng::new(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..8)
            .map({
                let mut r = Rng::new(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        assert_eq!(a, b);
        let mut other = Rng::new(7, 2);
        assert_ne!(a[0], other.next_u64());
    }

    #[test]
    fn rounds_cover_every_index_once_per_round() {
        let mut r = Rounds::new(11, Rng::new(3, 0));
        for _ in 0..5 {
            let mut round: Vec<usize> = (0..11).map(|_| r.next_index()).collect();
            round.sort_unstable();
            assert_eq!(round, (0..11).collect::<Vec<_>>());
        }
    }
}
