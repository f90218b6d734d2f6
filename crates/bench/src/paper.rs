//! The paper's published reference values, for paper-vs-measured reporting.

/// Table 6 (MV1): `(queries, budget $, IP rate)`.
pub const TABLE6: [(usize, f64, f64); 3] = [(3, 0.8, 0.25), (5, 1.2, 0.36), (10, 2.4, 0.60)];

/// Table 7 (MV2): `(queries, time limit h, IC rate)`.
pub const TABLE7: [(usize, f64, f64); 3] = [(3, 0.57, 0.75), (5, 0.99, 0.72), (10, 2.24, 0.75)];

/// Table 8 (MV3): `(queries, rate at α=0.3, rate at α=0.7)`.
pub const TABLE8: [(usize, f64, f64); 3] = [(3, 0.55, 0.32), (5, 0.50, 0.35), (10, 0.68, 0.45)];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_tables_are_consistent() {
        // Rates are fractions in (0, 1); budgets/limits positive.
        for (q, b, r) in TABLE6 {
            assert!(q > 0 && b > 0.0 && (0.0..1.0).contains(&r));
        }
        for (q, t, r) in TABLE7 {
            assert!(q > 0 && t > 0.0 && (0.0..1.0).contains(&r));
        }
        for (_, a, b) in TABLE8 {
            assert!((0.0..1.0).contains(&a) && (0.0..1.0).contains(&b));
        }
    }
}
