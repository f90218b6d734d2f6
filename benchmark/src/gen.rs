//! Seeded input generators. `--seed` reaches the program under test
//! only through what these produce.

use mvcloud::QueryEvent;

/// SplitMix64: small, seedable, good enough for workload shaping.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }

    /// Uniform in [0, 1).
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n ≥ 1`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// A derived seed for sub-stream `lane` of workload seed `seed`, so
/// generators never share a stream.
pub fn lane_seed(seed: u64, lane: u64) -> u64 {
    Rng::new(seed ^ lane.wrapping_mul(0xa076_1d64_78bd_642f)).next_u64()
}

/// Zipf(s) over ranks `0..n` by inverse-CDF lookup.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, exponent: f64) -> Zipf {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for rank in 1..=n {
            acc += (rank as f64).powf(-exponent);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.next_f64();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// The `serve_stream` traffic source: Zipf(1.1) ranks over the `m`
/// workload query names, with the hot set (which names the low ranks
/// land on) rotating on a fixed schedule — every `ROTATE_EVERY` ticks
/// the rank→name mapping shifts by `m / ROTATE_STEPS` names, so the
/// observed frequency mix keeps drifting and the service keeps
/// re-solving. Event ids are strictly increasing, so every generated
/// event lies above the service's high-water mark exactly once.
#[derive(Debug, Clone)]
pub struct EventStream {
    zipf: Zipf,
    rng: Rng,
    names: Vec<String>,
    next_id: u64,
}

/// Ticks between hot-set rotations.
pub const ROTATE_EVERY: usize = 25;
/// The hot set visits this many positions before it wraps.
pub const ROTATE_STEPS: usize = 16;

impl EventStream {
    pub fn new(names: Vec<String>, seed: u64) -> EventStream {
        EventStream {
            zipf: Zipf::new(names.len(), 1.1),
            rng: Rng::new(seed),
            names,
            next_id: 1,
        }
    }

    /// Where rank 0 lands at `tick`.
    pub fn hot_offset(&self, tick: usize) -> usize {
        let m = self.names.len();
        (tick / ROTATE_EVERY % ROTATE_STEPS) * (m / ROTATE_STEPS)
    }

    /// The next `count` events, stamped `timestamp`, drawn from the hot
    /// set in force at `tick`.
    pub fn events(&mut self, tick: usize, timestamp: u64, count: usize) -> Vec<QueryEvent> {
        let m = self.names.len();
        let offset = self.hot_offset(tick);
        (0..count)
            .map(|_| {
                let rank = self.zipf.sample(&mut self.rng);
                let query_id = self.next_id;
                self.next_id += 1;
                QueryEvent {
                    timestamp,
                    query_id,
                    query: self.names[(rank + offset) % m].clone(),
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(m: usize) -> Vec<String> {
        (0..m).map(|i| format!("Q{i}")).collect()
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let z = Zipf::new(1_000, 1.1);
        let mut rng = Rng::new(3);
        let mut head = 0;
        for _ in 0..10_000 {
            let r = z.sample(&mut rng);
            assert!(r < 1_000);
            if r < 10 {
                head += 1;
            }
        }
        // Ranks 0..10 of Zipf(1.1) over 1 000 carry ≈ 46 % of the mass.
        assert!((3_500..6_000).contains(&head), "head draws: {head}");
    }

    #[test]
    fn stream_is_deterministic_per_seed_and_ids_increase() {
        let draw = |seed| {
            let mut s = EventStream::new(names(64), seed);
            let mut all = s.events(0, 1, 40);
            all.extend(s.events(ROTATE_EVERY, 2, 40));
            all
        };
        let a = draw(11);
        assert_eq!(a, draw(11));
        assert_ne!(a, draw(12));
        assert!(a.windows(2).all(|w| w[0].query_id < w[1].query_id));
    }

    #[test]
    fn hot_set_rotates_on_schedule_and_wraps() {
        let s = EventStream::new(names(160), 1);
        assert_eq!(s.hot_offset(0), 0);
        assert_eq!(s.hot_offset(ROTATE_EVERY - 1), 0);
        assert_eq!(s.hot_offset(ROTATE_EVERY), 10);
        assert_eq!(s.hot_offset(ROTATE_EVERY * ROTATE_STEPS), 0);
    }

    #[test]
    fn lanes_differ() {
        assert_ne!(lane_seed(5, 1), lane_seed(5, 2));
        assert_eq!(lane_seed(5, 1), lane_seed(5, 1));
    }
}
