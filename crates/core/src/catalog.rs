//! The persistent candidate catalog (`mv-catalog`): measured charges on
//! disk, behind a stream high-water mark.
//!
//! Measuring a candidate is the expensive step of the pipeline — every
//! [`crate::Advisor::build`] materializes each cuboid in the engine and
//! meters build/size/maintenance plus per-query answer times. A
//! resident advisor ([`crate::service::AdvisorService`]) must survive a
//! restart *without* paying that again, so the measured state spills to
//! disk here: the workload's [`QueryCharge`]s, every candidate's
//! [`ViewCharge`] (sparse answer profile included), the stream counts
//! accumulated so far, and the `(timestamp, query_id)` high-water mark
//! the ingest loop replays behind.
//!
//! Two properties carry the service's correctness argument:
//!
//! * **Bit-identical reload.** Charges are serialized through
//!   [`crate::json`]'s `Num` variant, whose `{}` float rendering is
//!   shortest-roundtrip, so `load(spill(c)) == c` exactly — a reloaded
//!   catalog rebuilds the *same* [`mv_select::SelectionProblem`] and
//!   therefore the same resident plan and report (asserted in
//!   `tests/service.rs`).
//! * **Atomic spill.** [`CandidateCatalog::spill`] writes through
//!   [`crate::json::write_atomic`] (temp file + rename), so a crash
//!   mid-spill leaves the previous durable catalog intact and the HWM
//!   never advances past durably-written state (crash-recovery test in
//!   `tests/service.rs`).
//!
//! Engine-side [`mv_engine::MaterializedView`]s are deliberately *not*
//! persisted: the catalog restores the costing problem, not the data
//! plane — re-materializing a chosen selection stays an explicit,
//! priced step.

use std::path::Path;

use mv_cost::{QueryCharge, ViewCharge};
use mv_pricing::Placement;
use mv_units::{Gb, Hours};

use crate::json::{write_atomic, Json};
use crate::AdvisorError;

/// Catalog file schema version (bumped on incompatible layout change).
pub(crate) const CATALOG_VERSION: u64 = 1;

/// The ingest stream position: the last event folded into the
/// catalog's counts. Once a catalog has folded an event, every event at
/// or below its mark is a replay; a fresh catalog's `(0, 0)` is no
/// event's position, so the event `(0, 0)` is new to it. Ordered
/// lexicographically by `(timestamp, query_id)`, matching a stream that
/// is timestamp-ordered with the event id as tiebreaker.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub struct HighWaterMark {
    /// Event timestamp (opaque monotone clock; seconds, ticks — the
    /// catalog only compares).
    pub timestamp: u64,
    /// Event id within the timestamp (unique per event).
    pub query_id: u64,
}

/// The durable advisor state: measured workload + candidate charges,
/// stream counts, and the high-water mark they are current to.
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateCatalog {
    workload: Vec<QueryCharge>,
    counts: Vec<u64>,
    candidates: Vec<ViewCharge>,
    hwm: HighWaterMark,
}

impl CandidateCatalog {
    /// A fresh catalog over measured charges: zero counts, zero HWM, no
    /// event folded.
    pub fn new(workload: Vec<QueryCharge>, candidates: Vec<ViewCharge>) -> CandidateCatalog {
        let counts = vec![0; workload.len()];
        CandidateCatalog {
            workload,
            counts,
            candidates,
            hwm: HighWaterMark::default(),
        }
    }

    /// The measured workload charges (frequencies as originally built).
    pub fn workload(&self) -> &[QueryCharge] {
        &self.workload
    }

    /// Stream events observed per workload query (aligned with
    /// [`CandidateCatalog::workload`]), cumulative since the catalog was
    /// created.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Every measured candidate's cost-model attributes, in problem
    /// candidate order.
    pub fn candidates(&self) -> &[ViewCharge] {
        &self.candidates
    }

    /// The stream position the counts are current to.
    pub fn hwm(&self) -> HighWaterMark {
        self.hwm
    }

    /// Whether the event at `mark` is already folded into the counts:
    /// at or below the high-water mark, once an event has been folded.
    /// An event is folded only by counting it, so a catalog whose counts
    /// are all zero (`total`, their sum, is zero) has folded none, and
    /// its mark — `(0, 0)` from [`CandidateCatalog::new`] — is no
    /// event's position: the event `(0, 0)` is new to it.
    pub(crate) fn replays(&self, mark: HighWaterMark, total: u64) -> bool {
        total > 0 && mark <= self.hwm
    }

    /// Folds one accepted event for workload query `query` at `mark`.
    pub(crate) fn fold(&mut self, query: usize, mark: HighWaterMark) {
        self.counts[query] += 1;
        self.hwm = mark;
    }

    /// Serializes the catalog. All floats go through [`Json::Num`]
    /// (shortest-roundtrip — see the module docs).
    pub fn to_json(&self) -> Json {
        let workload = Json::Arr(
            self.workload
                .iter()
                .map(|q| {
                    Json::obj(vec![
                        ("name", Json::str(q.name.clone())),
                        ("result_size_gb", Json::Num(q.result_size.value())),
                        ("base_time_hours", Json::Num(q.base_time.value())),
                        ("frequency", Json::Num(q.frequency)),
                    ])
                })
                .collect(),
        );
        let candidates = Json::Arr(
            self.candidates
                .iter()
                .map(|c| {
                    let answers = Json::Arr(
                        c.profile
                            .query_ids()
                            .iter()
                            .zip(c.profile.times())
                            .map(|(&q, t)| {
                                Json::Arr(vec![Json::UInt(q as u64), Json::Num(t.value())])
                            })
                            .collect(),
                    );
                    Json::obj(vec![
                        ("name", Json::str(c.name.clone())),
                        ("size_gb", Json::Num(c.size.value())),
                        (
                            "materialization_hours",
                            Json::Num(c.materialization.value()),
                        ),
                        ("maintenance_hours", Json::Num(c.maintenance.value())),
                        ("answers", answers),
                        (
                            "placement",
                            Json::str(match c.placement {
                                Placement::Reserved => "reserved",
                                Placement::Spot => "spot",
                            }),
                        ),
                    ])
                })
                .collect(),
        );
        Json::obj(vec![
            ("version", Json::UInt(CATALOG_VERSION)),
            (
                "hwm",
                Json::obj(vec![
                    ("timestamp", Json::UInt(self.hwm.timestamp)),
                    ("query_id", Json::UInt(self.hwm.query_id)),
                ]),
            ),
            ("workload", workload),
            (
                "counts",
                Json::Arr(self.counts.iter().map(|&c| Json::UInt(c)).collect()),
            ),
            ("candidates", candidates),
        ])
    }

    /// Decodes a catalog document (inverse of [`CandidateCatalog::to_json`]).
    pub(crate) fn from_json(doc: &Json) -> Result<CandidateCatalog, String> {
        let version = doc
            .get("version")
            .and_then(Json::as_u64)
            .ok_or("missing version")?;
        if version != CATALOG_VERSION {
            return Err(format!(
                "unsupported catalog version {version} (expected {CATALOG_VERSION})"
            ));
        }
        let hwm_doc = doc.get("hwm").ok_or("missing hwm")?;
        let hwm = HighWaterMark {
            timestamp: hwm_doc
                .get("timestamp")
                .and_then(Json::as_u64)
                .ok_or("hwm.timestamp")?,
            query_id: hwm_doc
                .get("query_id")
                .and_then(Json::as_u64)
                .ok_or("hwm.query_id")?,
        };
        let workload: Vec<QueryCharge> = doc
            .get("workload")
            .and_then(Json::as_array)
            .ok_or("missing workload")?
            .iter()
            .enumerate()
            .map(|(i, q)| {
                Ok(QueryCharge {
                    name: q
                        .get("name")
                        .and_then(Json::as_str)
                        .ok_or(format!("workload[{i}].name"))?
                        .to_string(),
                    result_size: size_field(q, "result_size_gb", i)?,
                    base_time: hours_field(q, "base_time_hours", i)?,
                    frequency: frequency_field(q, "frequency", i)?,
                })
            })
            .collect::<Result<_, String>>()?;
        let counts: Vec<u64> = doc
            .get("counts")
            .and_then(Json::as_array)
            .ok_or("missing counts")?
            .iter()
            .enumerate()
            .map(|(i, c)| c.as_u64().ok_or(format!("counts[{i}]")))
            .collect::<Result<_, String>>()?;
        // A service keeps the counts' sum as a `u64`.
        let total = counts
            .iter()
            .try_fold(0u64, |sum, &c| sum.checked_add(c))
            .ok_or("counts sum past u64")?;
        // Only folding an event moves the mark, and folding counts it: a
        // mark past `(0, 0)` over zero counts would turn every replay
        // below it into a new event that moves the mark back.
        if total == 0 && hwm != HighWaterMark::default() {
            return Err("hwm past (0, 0) with no event counted".to_string());
        }
        let candidates: Vec<ViewCharge> = doc
            .get("candidates")
            .and_then(Json::as_array)
            .ok_or("missing candidates")?
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let name = c
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or(format!("candidates[{i}].name"))?;
                let mut charge = ViewCharge::new(
                    name,
                    size_field(c, "size_gb", i)?,
                    hours_field(c, "materialization_hours", i)?,
                    hours_field(c, "maintenance_hours", i)?,
                    workload.len(),
                );
                for (j, pair) in c
                    .get("answers")
                    .and_then(Json::as_array)
                    .ok_or(format!("candidates[{i}].answers"))?
                    .iter()
                    .enumerate()
                {
                    let entry = pair
                        .as_array()
                        .filter(|p| p.len() == 2)
                        .ok_or(format!("candidates[{i}].answers[{j}]"))?;
                    let q = entry[0]
                        .as_u64()
                        .filter(|&q| (q as usize) < workload.len())
                        .ok_or(format!("candidates[{i}].answers[{j}] query index"))?;
                    let t = entry[1]
                        .as_f64()
                        .filter(|t| t.is_finite() && *t >= 0.0)
                        .ok_or(format!("candidates[{i}].answers[{j}] time"))?;
                    charge = charge.answers(q as usize, Hours::new(t));
                }
                let placement = match c.get("placement").and_then(Json::as_str) {
                    Some("reserved") => Placement::Reserved,
                    Some("spot") => Placement::Spot,
                    other => return Err(format!("candidates[{i}].placement: {other:?}")),
                };
                Ok(charge.placed(placement))
            })
            .collect::<Result<_, String>>()?;
        let catalog = CandidateCatalog {
            workload,
            counts,
            candidates,
            hwm,
        };
        catalog.misalignment().map_or(Ok(catalog), Err)
    }

    /// What keeps the catalog from describing one selection problem:
    /// `counts`, or a candidate's answer profile, of another length than
    /// the workload. `None` when they align. [`CandidateCatalog::new`]
    /// takes any candidates, so a catalog built by hand is checked as a
    /// decoded one is.
    pub(crate) fn misalignment(&self) -> Option<String> {
        let queries = self.workload.len();
        if self.counts.len() != queries {
            return Some(format!(
                "counts length {} does not match workload length {queries}",
                self.counts.len(),
            ));
        }
        let candidate = self
            .candidates
            .iter()
            .find(|c| c.profile.workload_len() != queries)?;
        Some(format!(
            "candidate {} has {} query times for a {queries}-query workload",
            candidate.name,
            candidate.profile.workload_len(),
        ))
    }

    /// Durably writes the catalog to `path` (atomic temp-file + rename:
    /// a reader never observes a partial catalog, and a crash mid-spill
    /// leaves the previous durable state in place).
    pub fn spill(&self, path: &Path) -> Result<(), AdvisorError> {
        mv_obs::span!("catalog/spill");
        let mut doc = self.to_json().render_pretty();
        doc.push('\n');
        write_atomic(path, &doc).map_err(|e| AdvisorError::CatalogIo {
            path: path.display().to_string(),
            message: e.to_string(),
        })?;
        mv_obs::inc(mv_obs::Counter::CatalogSpills);
        Ok(())
    }

    /// Reloads a catalog spilled by [`CandidateCatalog::spill`].
    pub fn load(path: &Path) -> Result<CandidateCatalog, AdvisorError> {
        mv_obs::span!("catalog/reload");
        let raw = std::fs::read_to_string(path).map_err(|e| AdvisorError::CatalogIo {
            path: path.display().to_string(),
            message: e.to_string(),
        })?;
        let corrupt = |message: String| AdvisorError::CatalogCorrupt {
            path: path.display().to_string(),
            message,
        };
        let doc = Json::parse(&raw).map_err(corrupt)?;
        let catalog = CandidateCatalog::from_json(&doc).map_err(corrupt)?;
        mv_obs::inc(mv_obs::Counter::CatalogReloads);
        Ok(catalog)
    }
}

/// Reads object field `key` as a finite f64 (the parser already rejects
/// non-finite literals; this guards hand-edited documents too).
fn finite_field(obj: &Json, key: &str, index: usize) -> Result<f64, String> {
    obj.get(key)
        .and_then(Json::as_f64)
        .filter(|v| v.is_finite())
        .ok_or(format!("[{index}].{key}: missing or non-finite"))
}

/// The largest quantity a catalog stores: a size (GB), a duration
/// (hours) or a frequency. Metered values sit many orders of magnitude
/// below it; the bound keeps every bill the cost model forms from them
/// inside `Money`'s range, which a damaged digit or exponent (a size of
/// `1e85` GB) would otherwise overflow in a sum.
const MAX_QUANTITY: f64 = 1e12;

/// Reads a quantity field: non-negative (`Gb::new` and `Hours::new`
/// panic on negative input, and a negative frequency would price a
/// negative result volume — a corrupt file must be an error instead) and
/// at most [`MAX_QUANTITY`].
fn quantity_field(obj: &Json, key: &str, index: usize, what: &str) -> Result<f64, String> {
    let v = finite_field(obj, key, index)?;
    if v < 0.0 {
        return Err(format!("[{index}].{key}: negative {what} {v}"));
    }
    if v > MAX_QUANTITY {
        return Err(format!(
            "[{index}].{key}: {what} {v:e} above {MAX_QUANTITY:e}"
        ));
    }
    Ok(v)
}

fn size_field(obj: &Json, key: &str, index: usize) -> Result<Gb, String> {
    quantity_field(obj, key, index, "size").map(Gb::new)
}

fn frequency_field(obj: &Json, key: &str, index: usize) -> Result<f64, String> {
    quantity_field(obj, key, index, "frequency")
}

fn hours_field(obj: &Json, key: &str, index: usize) -> Result<Hours, String> {
    quantity_field(obj, key, index, "duration").map(Hours::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_catalog() -> CandidateCatalog {
        let workload = vec![
            QueryCharge {
                name: "q0".to_string(),
                result_size: Gb::new(0.125),
                base_time: Hours::new(1.0 / 3.0),
                frequency: 2.0,
            },
            QueryCharge {
                name: "q1".to_string(),
                result_size: Gb::new(2.5e-4),
                base_time: Hours::new(0.618_033_988_749_894_9),
                frequency: 1.0,
            },
        ];
        let candidates = vec![
            ViewCharge::new(
                "month×country",
                Gb::new(0.1),
                Hours::new(0.2),
                Hours::new(0.01),
                2,
            )
            .answers(0, Hours::new(0.05))
            .answers(1, Hours::new(0.125)),
            ViewCharge::new("month", Gb::new(0.02), Hours::new(0.15), Hours::ZERO, 2)
                .answers(1, Hours::new(1e-3))
                .placed(Placement::Spot),
        ];
        let mut catalog = CandidateCatalog::new(workload, candidates);
        catalog.counts = vec![3, 8];
        catalog.hwm = HighWaterMark {
            timestamp: 1_700_000_000,
            query_id: 41,
        };
        catalog
    }

    #[test]
    fn json_round_trip_is_bit_identical() {
        let catalog = sample_catalog();
        let rendered = catalog.to_json().render_pretty();
        let back = CandidateCatalog::from_json(&Json::parse(&rendered).unwrap()).unwrap();
        // PartialEq on f64-carrying charges IS bit-level here: every
        // float in the sample is finite, and `{}` rendering is
        // shortest-roundtrip.
        assert_eq!(back, catalog);
        // And the re-render is byte-identical, the stronger invariant.
        assert_eq!(back.to_json().render_pretty(), rendered);
    }

    #[test]
    fn spill_and_load_round_trip_through_disk() {
        let dir = std::env::temp_dir().join(format!("mvcloud-catalog-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("catalog.json");
        let catalog = sample_catalog();
        catalog.spill(&path).unwrap();
        assert_eq!(CandidateCatalog::load(&path).unwrap(), catalog);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_and_missing_files_are_typed_errors() {
        let dir = std::env::temp_dir().join(format!("mvcloud-catalog-bad-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let missing = dir.join("nope.json");
        assert!(matches!(
            CandidateCatalog::load(&missing),
            Err(AdvisorError::CatalogIo { .. })
        ));
        // A truncated document — what a non-atomic writer would leave —
        // must fail loudly, not load as an empty catalog.
        let truncated = dir.join("truncated.json");
        let full = sample_catalog().to_json().render_pretty();
        std::fs::write(&truncated, &full[..full.len() / 2]).unwrap();
        assert!(matches!(
            CandidateCatalog::load(&truncated),
            Err(AdvisorError::CatalogCorrupt { .. })
        ));
        // Wrong version: typed error, not a silent best-effort read.
        let versioned = dir.join("versioned.json");
        std::fs::write(
            &versioned,
            full.replacen("\"version\":1", "\"version\":99", 1),
        )
        .unwrap();
        assert!(matches!(
            CandidateCatalog::load(&versioned),
            Err(AdvisorError::CatalogCorrupt { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn negative_and_misaligned_fields_are_rejected() {
        let catalog = sample_catalog();
        let good = catalog.to_json().render_pretty();
        let negative = good.replacen("\"size_gb\":0.1", "\"size_gb\":-0.1", 1);
        assert!(CandidateCatalog::from_json(&Json::parse(&negative).unwrap()).is_err());
        let misaligned = good.replacen("\"counts\":[\n    3,\n    8\n  ]", "\"counts\":[3]", 1);
        let doc = Json::parse(&misaligned).unwrap();
        assert!(CandidateCatalog::from_json(&doc).is_err());
        let negative = negative_frequency(&good);
        let err = CandidateCatalog::from_json(&Json::parse(&negative).unwrap()).unwrap_err();
        assert!(err.contains("negative frequency"), "{err}");
        // Magnitudes no bill or running total can hold.
        let huge = good.replacen("\"size_gb\":0.1", "\"size_gb\":1e85", 1);
        let err = CandidateCatalog::from_json(&Json::parse(&huge).unwrap()).unwrap_err();
        assert!(err.contains("size 1e85 above 1e12"), "{err}");
        let counts = format!("\"counts\":[{},8]", u64::MAX);
        let past = good.replacen("\"counts\":[\n    3,\n    8\n  ]", &counts, 1);
        let err = CandidateCatalog::from_json(&Json::parse(&past).unwrap()).unwrap_err();
        assert!(err.contains("counts sum past u64"), "{err}");
        // Counts that name no event under a mark that names one.
        let zeroed = good.replacen("\"counts\":[\n    3,\n    8\n  ]", "\"counts\":[0,0]", 1);
        let err = CandidateCatalog::from_json(&Json::parse(&zeroed).unwrap()).unwrap_err();
        assert!(err.contains("no event counted"), "{err}");
    }

    #[test]
    fn a_hand_built_misaligned_catalog_is_a_typed_error_not_a_panic() {
        let service = |catalog: CandidateCatalog| {
            crate::AdvisorService::from_catalog(
                catalog,
                crate::AdvisorConfig::default(),
                crate::ServiceConfig::new(mv_select::Scenario::tradeoff_normalized(0.5)),
            )
            .map(drop)
        };
        assert_eq!(service(sample_catalog()), Ok(()));
        // Counts shorter than the workload (with and without traffic),
        // longer, and a candidate priced for a three-query workload.
        let mut short = sample_catalog();
        short.counts = vec![3];
        let mut silent = sample_catalog();
        silent.counts = Vec::new();
        let mut long = sample_catalog();
        long.counts = vec![3, 8, 1];
        let mut wide = sample_catalog();
        wide.candidates[1] =
            ViewCharge::new("month", Gb::new(0.02), Hours::new(0.15), Hours::ZERO, 3);
        for (what, catalog) in [
            ("short", short),
            ("silent", silent),
            ("long", long),
            ("wide", wide),
        ] {
            let misaligned = catalog.misalignment().expect(what);
            assert_eq!(
                service(catalog.clone()),
                Err(AdvisorError::CatalogMisaligned {
                    message: misaligned
                }),
                "{what}"
            );
            // The same counts, spilled and decoded, are a corrupt file; a
            // profile is decoded at the file's workload length.
            let decoded = CandidateCatalog::from_json(&catalog.to_json());
            assert_eq!(decoded.is_err(), what != "wide", "{what}");
        }
    }

    /// `rendered` with its first query's frequency negated.
    fn negative_frequency(rendered: &str) -> String {
        let negative = rendered.replacen("\"frequency\":2", "\"frequency\":-1", 1);
        assert_ne!(negative, rendered, "the frequency field moved");
        negative
    }

    #[test]
    fn a_negative_frequency_fails_open_instead_of_panicking() {
        let dir = std::env::temp_dir().join(format!("mvcloud-catalog-freq-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("catalog.json");
        let rendered = sample_catalog().to_json().render_pretty();
        std::fs::write(&path, negative_frequency(&rendered)).unwrap();
        let opened = crate::AdvisorService::open(
            &path,
            crate::AdvisorConfig::default(),
            crate::ServiceConfig::new(mv_select::Scenario::tradeoff_normalized(0.5)),
        );
        assert!(matches!(opened, Err(AdvisorError::CatalogCorrupt { .. })));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn hwm_orders_lexicographically() {
        let a = HighWaterMark {
            timestamp: 5,
            query_id: 9,
        };
        let b = HighWaterMark {
            timestamp: 6,
            query_id: 0,
        };
        let c = HighWaterMark {
            timestamp: 6,
            query_id: 1,
        };
        assert!(a < b && b < c);
    }
}
