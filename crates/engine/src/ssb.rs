//! A scaled-down, Star-Schema-Benchmark-flavoured dataset and workload.
//!
//! The paper's future work proposes validating on "a full-fledged database
//! or data warehouse benchmark, such as TPC-E or the Star Schema Benchmark".
//! This module provides an SSB-like denormalized `lineorder` fact table with
//! three dimension hierarchies (date, customer geography, part taxonomy) and
//! a 13-query roll-up workload mirroring SSB's four query flights — enough
//! to exercise the advisor on a second, differently-shaped schema.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::datagen::days_in_month;
use crate::{AggQuery, AggSpec, DataType, Field, Schema, Table, Value};

/// Generator configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SsbConfig {
    /// Number of lineorder rows.
    pub rows: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SsbConfig {
    fn default() -> Self {
        SsbConfig {
            rows: 20_000,
            seed: 7,
        }
    }
}

const REGIONS: [&str; 5] = ["AMERICA", "ASIA", "EUROPE", "AFRICA", "MIDDLE EAST"];
const NATIONS_PER_REGION: usize = 3;
const CITIES_PER_NATION: usize = 4;
const MFGRS: [&str; 3] = ["MFGR#1", "MFGR#2", "MFGR#3"];
const CATEGORIES_PER_MFGR: usize = 4;
const BRANDS_PER_CATEGORY: usize = 8;

/// The denormalized lineorder schema. Hierarchies, as column prefixes:
/// * date: `(d_year)`, `(d_year, d_month)`, `(d_year, d_month, d_day)`;
/// * customer: `(c_region)`, `(c_region, c_nation)`,
///   `(c_region, c_nation, c_city)`;
/// * part: `(p_mfgr)`, `(p_mfgr, p_category)`,
///   `(p_mfgr, p_category, p_brand)`.
pub(crate) fn lineorder_schema() -> Schema {
    Schema::new(vec![
        Field::new("d_year", DataType::Int),
        Field::new("d_month", DataType::Int),
        Field::new("d_day", DataType::Int),
        Field::new("c_region", DataType::Str),
        Field::new("c_nation", DataType::Str),
        Field::new("c_city", DataType::Str),
        Field::new("p_mfgr", DataType::Str),
        Field::new("p_category", DataType::Str),
        Field::new("p_brand", DataType::Str),
        Field::new("revenue", DataType::Int),
        Field::new("discount", DataType::Int),
    ])
    .expect("lineorder schema is valid")
}

/// Generates the lineorder fact table (SSB dates span 1992–1998).
pub fn generate_lineorder(cfg: &SsbConfig) -> Table {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut table = Table::empty(lineorder_schema());
    for _ in 0..cfg.rows {
        let year = rng.random_range(1992..=1998i64);
        let month = rng.random_range(1..=12i64);
        let day = rng.random_range(1..=days_in_month(year, month));

        let region_idx = rng.random_range(0..REGIONS.len());
        let region = REGIONS[region_idx];
        let nation_idx = rng.random_range(0..NATIONS_PER_REGION);
        let nation = format!("{}-N{}", region, nation_idx);
        let city = format!("{}-C{}", nation, rng.random_range(0..CITIES_PER_NATION));

        let mfgr_idx = rng.random_range(0..MFGRS.len());
        let mfgr = MFGRS[mfgr_idx];
        let cat_idx = rng.random_range(0..CATEGORIES_PER_MFGR);
        let category = format!("{}#{}", mfgr, cat_idx);
        let brand = format!("{}-B{}", category, rng.random_range(0..BRANDS_PER_CATEGORY));

        let revenue = rng.random_range(100..=1_000_000i64);
        let discount = rng.random_range(0..=10i64);

        table
            .push_row(&[
                Value::Int(year),
                Value::Int(month),
                Value::Int(day),
                Value::from(region),
                Value::from(nation),
                Value::from(city),
                Value::from(mfgr),
                Value::from(category),
                Value::from(brand),
                Value::Int(revenue),
                Value::Int(discount),
            ])
            .expect("generated row matches schema");
    }
    table
}

/// A 13-query roll-up workload approximating SSB's four flights:
/// revenue totals at varying date × customer × part granularities.
pub fn ssb_queries() -> Vec<AggQuery> {
    let rev = || vec![AggSpec::sum("revenue")];
    vec![
        // Flight 1: date-only roll-ups.
        AggQuery::new("ssb-1.1", &["d_year"], rev()),
        AggQuery::new("ssb-1.2", &["d_year", "d_month"], rev()),
        AggQuery::new("ssb-1.3", &["d_year", "d_month", "d_day"], rev()),
        // Flight 2: part × date.
        AggQuery::new("ssb-2.1", &["d_year", "p_mfgr"], rev()),
        AggQuery::new("ssb-2.2", &["d_year", "p_mfgr", "p_category"], rev()),
        AggQuery::new(
            "ssb-2.3",
            &["d_year", "p_mfgr", "p_category", "p_brand"],
            rev(),
        ),
        // Flight 3: customer × date.
        AggQuery::new("ssb-3.1", &["d_year", "c_region"], rev()),
        AggQuery::new("ssb-3.2", &["d_year", "c_region", "c_nation"], rev()),
        AggQuery::new(
            "ssb-3.3",
            &["d_year", "c_region", "c_nation", "c_city"],
            rev(),
        ),
        AggQuery::new(
            "ssb-3.4",
            &["d_year", "d_month", "c_region", "c_nation"],
            rev(),
        ),
        // Flight 4: customer × part × date ("profit drill-down").
        AggQuery::new("ssb-4.1", &["d_year", "c_region", "p_mfgr"], rev()),
        AggQuery::new(
            "ssb-4.2",
            &["d_year", "c_region", "p_mfgr", "p_category"],
            rev(),
        ),
        AggQuery::new("ssb-4.3", &["c_region", "p_mfgr"], rev()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_sized() {
        let cfg = SsbConfig {
            rows: 1_000,
            seed: 7,
        };
        let a = generate_lineorder(&cfg);
        let b = generate_lineorder(&cfg);
        assert_eq!(a.num_rows(), 1_000);
        assert_eq!(a.to_rows(), b.to_rows());
    }

    #[test]
    fn hierarchies_nest() {
        let t = generate_lineorder(&SsbConfig { rows: 500, seed: 1 });
        for row in 0..t.num_rows() {
            let r = t.row(row);
            let region = r[3].to_string();
            let nation = r[4].to_string();
            let city = r[5].to_string();
            assert!(nation.starts_with(&region), "{nation} under {region}");
            assert!(city.starts_with(&nation), "{city} under {nation}");
            let mfgr = r[6].to_string();
            let category = r[7].to_string();
            let brand = r[8].to_string();
            assert!(category.starts_with(&mfgr));
            assert!(brand.starts_with(&category));
        }
    }

    #[test]
    fn all_queries_execute() {
        let t = generate_lineorder(&SsbConfig {
            rows: 2_000,
            seed: 3,
        });
        for q in ssb_queries() {
            let (out, stats) = q.execute(&t).unwrap();
            assert!(out.num_rows() > 0, "{} returned no rows", q.name);
            assert_eq!(stats.rows_scanned, 2_000);
        }
    }

    #[test]
    fn thirteen_queries_like_ssb() {
        assert_eq!(ssb_queries().len(), 13);
        let names: Vec<String> = ssb_queries().into_iter().map(|q| q.name).collect();
        let mut unique = names.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), names.len());
    }
}
