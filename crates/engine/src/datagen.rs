//! Synthetic dataset generators.
//!
//! [`generate_sales`] reproduces the paper's running-example dataset
//! (Section 2.1, Table 1): an international supply chain's sales with a
//! time hierarchy (day < month < year) and an administrative-geography
//! hierarchy (department < region < country), 2000–2010. The paper's real
//! dataset is 500 GB (10 GB in its experiments); generation is seeded and
//! row-count-parameterised, and experiments declare a
//! [`crate::SimScale`] mapping the in-memory size to the simulated size.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::{DataType, Field, Schema, Table, TableBuilder, Value};

/// One country with its regions and departments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Country {
    /// Country name.
    pub name: &'static str,
    /// `(region, departments)` pairs.
    pub regions: &'static [(&'static str, &'static [&'static str])],
}

/// The administrative-geography catalog used by the generator: six
/// countries, 2–3 regions each, 2–4 departments per region — the same
/// shape as the paper's France ⊃ Auvergne ⊃ Puy-de-Dôme example.
pub(crate) fn geography() -> Vec<Country> {
    vec![
        Country {
            name: "France",
            regions: &[
                (
                    "Auvergne",
                    &["Puy-de-Dome", "Allier", "Cantal", "Haute-Loire"],
                ),
                ("Ile-de-France", &["Paris", "Yvelines", "Essonne"]),
                ("Bretagne", &["Finistere", "Morbihan"]),
            ],
        },
        Country {
            name: "Italy",
            regions: &[
                ("Campania", &["Naples", "Salerno", "Caserta"]),
                ("Lombardia", &["Milan", "Bergamo"]),
            ],
        },
        Country {
            name: "Spain",
            regions: &[
                ("Andalucia", &["Sevilla", "Granada", "Cordoba"]),
                ("Catalunya", &["Barcelona", "Girona"]),
            ],
        },
        Country {
            name: "Germany",
            regions: &[
                ("Bayern", &["Munich", "Nurnberg"]),
                ("Hessen", &["Frankfurt", "Kassel"]),
                ("Sachsen", &["Dresden", "Leipzig"]),
            ],
        },
        Country {
            name: "Portugal",
            regions: &[
                ("Norte", &["Porto", "Braga"]),
                ("Alentejo", &["Evora", "Beja"]),
            ],
        },
        Country {
            name: "Belgium",
            regions: &[
                ("Wallonie", &["Liege", "Namur"]),
                ("Vlaanderen", &["Antwerpen", "Gent"]),
            ],
        },
    ]
}

/// Days in `month` of `year` (Gregorian).
pub(crate) fn days_in_month(year: i64, month: i64) -> i64 {
    match month {
        1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
        4 | 6 | 9 | 11 => 30,
        2 => {
            if (year % 4 == 0 && year % 100 != 0) || year % 400 == 0 {
                29
            } else {
                28
            }
        }
        _ => panic!("invalid month {month}"),
    }
}

/// The sale years, inclusive: the paper's dataset spans 2000–2010.
const SALE_YEARS: std::ops::RangeInclusive<i64> = 2000..=2010;

/// Generator configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SalesConfig {
    /// Number of fact rows to generate.
    pub rows: usize,
    /// RNG seed; equal configs generate identical tables.
    pub seed: u64,
    /// Geometric skew across countries: 0 = uniform; larger values
    /// concentrate sales in the first countries (realistic workloads are
    /// skewed, which matters for view sizes).
    pub skew: f64,
}

impl Default for SalesConfig {
    fn default() -> Self {
        SalesConfig {
            rows: 10_000,
            seed: 42,
            skew: 0.3,
        }
    }
}

impl SalesConfig {
    /// Convenience: `rows` rows with the default shape.
    pub fn with_rows(rows: usize) -> Self {
        SalesConfig {
            rows,
            ..SalesConfig::default()
        }
    }
}

/// The sales fact-table schema (Table 1 of the paper, denormalized):
/// `year, month, day, country, region, department, profit`.
///
/// `month` is the month-of-year (1–12) and `day` the day-of-month, exactly
/// as Table 1 prints them; hierarchy levels are expressed as column
/// *prefixes*: the month level is `(year, month)`, the day level
/// `(year, month, day)`, and likewise `(country, region, department)`.
pub fn sales_schema() -> Schema {
    Schema::new(vec![
        Field::new("year", DataType::Int),
        Field::new("month", DataType::Int),
        Field::new("day", DataType::Int),
        Field::new("country", DataType::Str),
        Field::new("region", DataType::Str),
        Field::new("department", DataType::Str),
        Field::new("profit", DataType::Int),
    ])
    .expect("sales schema is valid")
}

/// Generates the sales fact table.
pub fn generate_sales(cfg: &SalesConfig) -> Table {
    let geo = geography();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut table = Table::empty(sales_schema());

    // Pre-compute geometric country weights.
    let weights: Vec<f64> = (0..geo.len())
        .map(|i| (-(cfg.skew) * i as f64).exp())
        .collect();
    let total_weight: f64 = weights.iter().sum();

    for _ in 0..cfg.rows {
        let year = rng.random_range(SALE_YEARS);
        let month = rng.random_range(1..=12i64);
        let day = rng.random_range(1..=days_in_month(year, month));

        let mut pick = rng.random_range(0.0..total_weight);
        let mut ci = 0;
        for (i, w) in weights.iter().enumerate() {
            if pick < *w {
                ci = i;
                break;
            }
            pick -= w;
        }
        push_sale(&mut table, &mut rng, [year, month, day], &geo[ci]);
    }
    table
}

/// Appends one sale on `date` (`[year, month, day]`) in `country`,
/// drawing its region, department and profit in that order.
fn push_sale(table: &mut Table, rng: &mut StdRng, date: [i64; 3], country: &Country) {
    let (region, departments) = country.regions[rng.random_range(0..country.regions.len())];
    let department = departments[rng.random_range(0..departments.len())];
    let profit = rng.random_range(1_000..=60_000i64);
    let [year, month, day] = date;
    table
        .push_row(&[
            Value::Int(year),
            Value::Int(month),
            Value::Int(day),
            Value::from(country.name),
            Value::from(region),
            Value::from(department),
            Value::Int(profit),
        ])
        .expect("generated row matches schema");
}

/// Generates an insert *delta* batch: `rows` new sales landing in
/// `(year, month)` — the paper's nightly-maintenance scenario where new
/// data arrives continuously.
pub fn generate_delta(cfg: &SalesConfig, rows: usize, year: i64, month: i64) -> Table {
    let geo = geography();
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x5eed_de17a);
    let mut table = Table::empty(sales_schema());
    for _ in 0..rows {
        let day = rng.random_range(1..=days_in_month(year, month));
        let country = &geo[rng.random_range(0..geo.len())];
        push_sale(&mut table, &mut rng, [year, month, day], country);
    }
    table
}

/// The exact four rows of the paper's Table 1 (profits are printed there in
/// European thousands notation: `$35.000` = 35 000).
pub fn paper_excerpt() -> Table {
    TableBuilder::new(&[
        ("year", DataType::Int),
        ("month", DataType::Int),
        ("day", DataType::Int),
        ("country", DataType::Str),
        ("region", DataType::Str),
        ("department", DataType::Str),
        ("profit", DataType::Int),
    ])
    .expect("excerpt schema is valid")
    .row(&[
        2000.into(),
        12.into(),
        31.into(),
        "France".into(),
        "Auvergne".into(),
        "Puy-de-Dome".into(),
        35_000.into(),
    ])
    .expect("row matches schema")
    .row(&[
        2000.into(),
        1.into(),
        1.into(),
        "France".into(),
        "Auvergne".into(),
        "Puy-de-Dome".into(),
        40_000.into(),
    ])
    .expect("row matches schema")
    .row(&[
        2000.into(),
        12.into(),
        31.into(),
        "Italy".into(),
        "Campania".into(),
        "Naples".into(),
        23_000.into(),
    ])
    .expect("row matches schema")
    .row(&[
        1999.into(),
        1.into(),
        1.into(),
        "Italy".into(),
        "Campania".into(),
        "Naples".into(),
        50_000.into(),
    ])
    .expect("row matches schema")
    .build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_equal_seeds() {
        let cfg = SalesConfig::with_rows(500);
        let a = generate_sales(&cfg);
        let b = generate_sales(&cfg);
        assert_eq!(a.to_rows(), b.to_rows());
        let c = generate_sales(&SalesConfig { seed: 43, ..cfg });
        assert_ne!(a.to_rows(), c.to_rows());
    }

    #[test]
    fn values_in_domain() {
        let cfg = SalesConfig::with_rows(2_000);
        let t = generate_sales(&cfg);
        assert_eq!(t.num_rows(), 2_000);
        let years = t.column_by_name("year").unwrap().as_int().unwrap();
        assert!(years.iter().all(|y| (2000..=2010).contains(y)));
        let months = t.column_by_name("month").unwrap().as_int().unwrap();
        assert!(months.iter().all(|m| (1..=12).contains(m)));
        let days = t.column_by_name("day").unwrap().as_int().unwrap();
        assert!(days.iter().all(|d| (1..=31).contains(d)));
        let profits = t.column_by_name("profit").unwrap().as_int().unwrap();
        assert!(profits.iter().all(|p| (1_000..=60_000).contains(p)));
    }

    #[test]
    fn geography_is_consistent() {
        let t = generate_sales(&SalesConfig::with_rows(3_000));
        let geo = geography();
        for row in 0..t.num_rows().min(300) {
            let r = t.row(row);
            let country = r[3].to_string();
            let region = r[4].to_string();
            let dept = r[5].to_string();
            let c = geo
                .iter()
                .find(|c| c.name == country)
                .expect("known country");
            let (_, depts) = c
                .regions
                .iter()
                .find(|(r2, _)| *r2 == region)
                .expect("region belongs to country");
            assert!(depts.contains(&dept.as_str()), "{dept} in {region}");
        }
    }

    #[test]
    fn skew_concentrates_first_country() {
        let skewed = generate_sales(&SalesConfig {
            rows: 5_000,
            skew: 1.5,
            ..SalesConfig::default()
        });
        let (codes, dict) = skewed.column_by_name("country").unwrap().as_str().unwrap();
        let france = dict.lookup("France").unwrap();
        let france_share =
            codes.iter().filter(|&&c| c == france).count() as f64 / codes.len() as f64;
        assert!(france_share > 0.5, "share was {france_share}");
    }

    #[test]
    fn leap_years() {
        assert_eq!(days_in_month(2000, 2), 29); // divisible by 400
        assert_eq!(days_in_month(1900, 2), 28); // divisible by 100 only
        assert_eq!(days_in_month(2004, 2), 29);
        assert_eq!(days_in_month(2001, 2), 28);
        assert_eq!(days_in_month(2001, 12), 31);
        assert_eq!(days_in_month(2001, 4), 30);
    }

    #[test]
    fn excerpt_matches_table1() {
        let t = paper_excerpt();
        assert_eq!(t.num_rows(), 4);
        assert_eq!(
            t.row(0),
            vec![
                Value::Int(2000),
                Value::Int(12),
                Value::Int(31),
                "France".into(),
                "Auvergne".into(),
                "Puy-de-Dome".into(),
                Value::Int(35_000)
            ]
        );
        assert_eq!(t.row(3)[6], Value::Int(50_000));
    }

    #[test]
    fn delta_lands_in_requested_month() {
        let cfg = SalesConfig::default();
        let d = generate_delta(&cfg, 100, 2011, 1);
        assert_eq!(d.num_rows(), 100);
        let years = d.column_by_name("year").unwrap().as_int().unwrap();
        assert!(years.iter().all(|&y| y == 2011));
        let months = d.column_by_name("month").unwrap().as_int().unwrap();
        assert!(months.iter().all(|&m| m == 1));
    }
}
