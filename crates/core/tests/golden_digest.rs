//! Golden pin: the engine's metered outputs, as the cost models see them.
//!
//! The advisor's measurement pipeline materializes, refreshes and queries
//! every candidate in `mv-engine` and turns the metered work into
//! `QueryCharge`/`ViewCharge`s. Engine work that changes *how* a group-by
//! runs must not change *what* it meters or stores, down to the bit: an
//! FNV-1a digest over the `f64` bits of every charge field (incl. the
//! per-query answer times) and over every candidate's stored view table
//! (schema, codes, dictionaries, row order) is held to values recorded
//! before the columnar kernel replaced the row-at-a-time aggregation.

use mvcloud::engine::{Column, Table};
use mvcloud::{sales_domain, ssb_domain, Advisor, AdvisorConfig, Domain, SizingMode};

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    fn table(&mut self, t: &Table) {
        self.u64(t.num_rows() as u64);
        for (c, field) in t.schema().fields().iter().enumerate() {
            let col = t.column(c);
            self.str(&field.name);
            match col {
                Column::Int(v) => {
                    self.u64(0);
                    v.iter().for_each(|&x| self.u64(x as u64));
                }
                Column::Str { codes, dict } => {
                    self.u64(1);
                    codes.iter().for_each(|&c| self.u64(c as u64));
                    self.u64(dict.len() as u64);
                    dict.iter().for_each(|(_, s)| self.str(s));
                }
            }
        }
        self.u64(t.heap_bytes());
    }

    fn advisor(&mut self, advisor: &Advisor) {
        let problem = advisor.problem();
        for q in &problem.model().context().workload {
            self.str(&q.name);
            self.f64(q.result_size.value());
            self.f64(q.base_time.value());
            self.f64(q.frequency);
        }
        assert_eq!(problem.candidates().len(), advisor.candidates().len());
        for (charge, measured) in problem.candidates().iter().zip(advisor.candidates()) {
            assert_eq!(charge, &measured.charge);
            self.str(&charge.name);
            self.f64(charge.size.value());
            self.f64(charge.materialization.value());
            self.f64(charge.maintenance.value());
            self.u64(charge.profile.workload_len() as u64);
            for (i, t) in charge.profile.entries() {
                self.u64(i as u64);
                self.f64(t.value());
            }
            self.u64(charge.placement as u64);
            // The rows the candidate's plan builds from the base table,
            // and the plan's `build_stats`, which are that build's.
            let built = measured.view.materialize(&advisor.domain().base).unwrap();
            self.table(built.data());
            let build = measured.view.build_stats();
            assert_eq!(build, built.build_stats());
            for v in [
                build.rows_scanned,
                build.bytes_scanned,
                build.rows_out,
                build.bytes_out,
                build.groups,
            ] {
                self.u64(v);
            }
        }
    }
}

fn configs() -> Vec<(String, Domain, AdvisorConfig)> {
    let mut out = Vec::new();
    for (dname, domain) in [
        ("sales", sales_domain(1000, 3, 1.0, 42)),
        ("ssb", ssb_domain(500, 1.0, 42)),
    ] {
        for sizing in [SizingMode::MeasuredScaled, SizingMode::Extrapolated] {
            for delta in [0.0, 0.02] {
                out.push((
                    format!("{dname}/{sizing:?}/{delta}"),
                    domain.clone(),
                    AdvisorConfig {
                        sizing,
                        maintenance_delta_fraction: delta,
                        ..AdvisorConfig::default()
                    },
                ));
            }
        }
    }
    out
}

/// `(config, Advisor::build digest)`, recorded at the commit before the
/// engine's group-by kernel was rewritten.
const GOLDEN: [(&str, u64); 8] = [
    ("sales/MeasuredScaled/0", 0x2695163097a76621),
    ("sales/MeasuredScaled/0.02", 0xfd664abf0f3fa172),
    ("sales/Extrapolated/0", 0x4936d23d7cc49bde),
    ("sales/Extrapolated/0.02", 0xb4cae9a594cfdc74),
    ("ssb/MeasuredScaled/0", 0x1be2d9343ff8326f),
    ("ssb/MeasuredScaled/0.02", 0x3e78c2bbaba1473c),
    ("ssb/Extrapolated/0", 0xd3483f655a46a024),
    ("ssb/Extrapolated/0.02", 0xa9f834df39da4037),
];

#[test]
fn advisor_measurements_match_the_recorded_digests() {
    let mut got = Vec::new();
    for (name, domain, config) in configs() {
        let mut build = Fnv::new();
        build.advisor(&Advisor::build(domain, config).expect("build"));
        got.push((name, build.0));
    }
    let rendered: Vec<String> = got
        .iter()
        .map(|(n, b)| format!("    (\"{n}\", {b:#018x}),"))
        .collect();
    let expected: Vec<(String, u64)> = GOLDEN.iter().map(|&(n, b)| (n.to_string(), b)).collect();
    assert_eq!(got, expected, "measured:\n{}", rendered.join("\n"));
}
