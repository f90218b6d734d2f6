//! Analysis domains: a base table, its dimensional lattice, and a workload.
//!
//! Two ready-made domains ship with the reproduction: the paper's
//! supply-chain sales dataset ([`sales_domain`]) and the future-work
//! SSB-like dataset ([`ssb_domain`]). Both are plain data — the advisor
//! works on any [`Domain`] whose lattice prefix-encodes the base table's
//! hierarchy columns.

use mv_engine::{datagen, ssb, SalesConfig, SsbConfig, Table};
use mv_lattice::{Cuboid, Dimension, Lattice, LatticeQuery, LatticeWorkload, Level};

use crate::AdvisorError;

/// A self-contained analysis domain.
#[derive(Debug, Clone)]
pub struct Domain {
    /// Human-readable domain name.
    pub name: String,
    /// The denormalized fact table.
    pub base: Table,
    /// The dimensional lattice over the fact table's hierarchy columns.
    pub lattice: Lattice,
    /// The measure column aggregated by every workload query.
    pub measure: String,
    /// The workload, as lattice-level queries.
    pub workload: LatticeWorkload,
}

impl Domain {
    /// Validates internal consistency (measure exists, workload fits the
    /// lattice, every lattice column exists in the base table).
    pub(crate) fn validate(&self) -> Result<(), AdvisorError> {
        if self.base.schema().index_of(&self.measure).is_err() {
            return Err(AdvisorError::MissingMeasure {
                column: self.measure.clone(),
            });
        }
        for q in &self.workload.queries {
            self.lattice.check(&q.cuboid)?;
        }
        for c in self.lattice.all_cuboids() {
            for col in self.lattice.key_columns(&c) {
                self.base
                    .schema()
                    .index_of(&col)
                    .map_err(AdvisorError::from)?;
            }
        }
        if self.workload.is_empty() {
            return Err(AdvisorError::EmptyWorkload);
        }
        Ok(())
    }
}

/// The paper's running-example domain: `rows` of generated sales, the
/// 16-cuboid time×geography lattice, and the first `n_queries` of the
/// paper's 10-query workload, each run `frequency` times per period.
pub fn sales_domain(rows: usize, n_queries: usize, frequency: f64, seed: u64) -> Domain {
    let cfg = SalesConfig {
        rows,
        seed,
        ..SalesConfig::default()
    };
    let base = datagen::generate_sales(&cfg);
    let lattice = Lattice::paper_running_example();
    let mut workload = mv_lattice::paper_workload(&lattice).prefix(n_queries);
    for q in &mut workload.queries {
        q.frequency = frequency;
    }
    Domain {
        name: "sales".to_string(),
        base,
        lattice,
        measure: "profit".to_string(),
        workload,
    }
}

/// The SSB-like domain (the paper's future-work benchmark): three
/// dimensions (date, customer geography, part taxonomy) and the 13-query
/// flight workload.
pub fn ssb_domain(rows: usize, frequency: f64, seed: u64) -> Domain {
    let base = ssb::generate_lineorder(&SsbConfig { rows, seed });
    let date = Dimension::new(
        "date",
        vec![
            Dimension::all_level(),
            Level::new("year", &["d_year"], 7),
            Level::new("month", &["d_year", "d_month"], 7 * 12),
            Level::new("day", &["d_year", "d_month", "d_day"], 7 * 365),
        ],
    )
    .expect("ssb date dimension is valid");
    let customer = Dimension::new(
        "customer",
        vec![
            Dimension::all_level(),
            Level::new("region", &["c_region"], 5),
            Level::new("nation", &["c_region", "c_nation"], 15),
            Level::new("city", &["c_region", "c_nation", "c_city"], 60),
        ],
    )
    .expect("ssb customer dimension is valid");
    let part = Dimension::new(
        "part",
        vec![
            Dimension::all_level(),
            Level::new("mfgr", &["p_mfgr"], 3),
            Level::new("category", &["p_mfgr", "p_category"], 12),
            Level::new("brand", &["p_mfgr", "p_category", "p_brand"], 96),
        ],
    )
    .expect("ssb part dimension is valid");
    let lattice = Lattice::new(vec![date, customer, part]).expect("non-empty");

    // Map the 13 SSB flight queries onto lattice cuboids by their group-by
    // column sets.
    let queries: Vec<LatticeQuery> = ssb::ssb_queries()
        .iter()
        .map(|q| {
            let cuboid: Cuboid = lattice
                .cuboid_for_columns(&q.group_by)
                .expect("ssb queries align with the ssb lattice");
            LatticeQuery {
                name: q.name.clone(),
                cuboid,
                frequency,
            }
        })
        .collect();
    let workload =
        LatticeWorkload::new(&lattice, queries).expect("ssb workload fits the ssb lattice");
    Domain {
        name: "ssb".to_string(),
        base,
        lattice,
        measure: "revenue".to_string(),
        workload,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sales_domain_validates() {
        let d = sales_domain(500, 5, 1.0, 42);
        d.validate().unwrap();
        assert_eq!(d.workload.len(), 5);
        assert_eq!(d.lattice.num_cuboids(), 16);
        assert_eq!(d.base.num_rows(), 500);
    }

    #[test]
    fn ssb_domain_validates() {
        let d = ssb_domain(400, 2.0, 7);
        d.validate().unwrap();
        assert_eq!(d.workload.len(), 13);
        assert_eq!(d.lattice.num_cuboids(), 64);
        assert!(d.workload.queries.iter().all(|q| q.frequency == 2.0));
    }

    #[test]
    fn bad_measure_detected() {
        let mut d = sales_domain(100, 3, 1.0, 1);
        d.measure = "revenue".to_string();
        assert!(matches!(
            d.validate(),
            Err(AdvisorError::MissingMeasure { .. })
        ));
    }

    #[test]
    fn empty_workload_detected() {
        let mut d = sales_domain(100, 3, 1.0, 1);
        d.workload = d.workload.prefix(0);
        assert_eq!(d.validate(), Err(AdvisorError::EmptyWorkload));
    }
}
