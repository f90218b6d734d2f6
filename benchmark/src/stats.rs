//! Order statistics, the percentile rule, and the output digest.

/// Whether a sample of `n` supports percentile `p`: a percentile is
/// reported only when at least ten samples lie beyond it.
pub fn supports(n: usize, p: f64) -> bool {
    n as f64 * (1.0 - p) >= 10.0 - 1e-9
}

/// Nearest-rank percentile of an ascending slice (`p` in (0, 1]).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// [`percentile`] where the sample [`supports`] it, else 0.
pub fn supported_percentile(sorted: &[f64], p: f64) -> f64 {
    if supports(sorted.len(), p) {
        percentile(sorted, p)
    } else {
        0.0
    }
}

/// Ascending copy of `values` (which must hold no NaN).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    v
}

/// Median with the even-count midpoint (Python's `statistics.median`).
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method) — the spread rule the benchmark
/// driver applies, so `compare` judges runs the way the driver does.
/// Fewer than two values have no spread: both quartiles are the value.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let cut = |i: usize| -> f64 {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// FNV-1a, 64 bit: the `output_digest` fold. Two runs of one commit at
/// one seed must print the same digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
        self.bytes(&[0xff]);
    }

    pub fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    /// Hashes the bit pattern, so "equal" means bit-identical.
    pub fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert!(!supports(19, 0.5) && supports(20, 0.5));
        assert!(!supports(99, 0.9) && supports(100, 0.9));
        assert!(supports(120, 0.9) && !supports(120, 0.99));
        assert!(!supports(999, 0.99) && supports(1_000, 0.99));
        assert!(supports(10_000, 0.999));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.9), 7.0);
        assert_eq!(supported_percentile(&v, 0.9), 90.0);
        assert_eq!(supported_percentile(&v[..99], 0.9), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0));
    }

    #[test]
    fn digest_separates_strings_and_is_stable() {
        let mut a = Fnv::default();
        a.str("ab");
        a.str("c");
        let mut b = Fnv::default();
        b.str("a");
        b.str("bc");
        assert_ne!(a, b);
        let mut c = Fnv::default();
        c.str("ab");
        c.str("c");
        assert_eq!(a, c);
        let mut z = Fnv::default();
        z.f64(0.0);
        let mut nz = Fnv::default();
        nz.f64(-0.0);
        assert_ne!(z, nz, "bit-identity, not numeric equality");
    }
}
