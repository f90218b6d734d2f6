//! Quantity types shared by every crate in the workspace.
//!
//! The paper's cost models multiply three kinds of quantities:
//!
//! * **money** — cloud prices, e.g. `$0.12` per instance-hour;
//! * **data sizes** — gigabytes stored or transferred;
//! * **durations** — compute hours and storage months.
//!
//! Monetary values use a fixed-point representation ([`Money`], an integer
//! count of micro-dollars) so that every figure printed in the paper is
//! exactly representable and golden tests compare bit-for-bit. Sizes and
//! durations are `f64` newtypes ([`Gb`], [`Hours`], [`Months`]) with the
//! rounding rule applied exactly once, at the money boundary (see
//! [`Money::scale`]).
//!
//! ```
//! use mv_units::{Gb, Hours, Money};
//!
//! // Example 2 of the paper: 50 h on two small instances at $0.12/h.
//! let hourly = Money::from_dollars_str("0.12").unwrap();
//! let cost = hourly.scale(Hours::new(50.0).value()) * 2i64;
//! assert_eq!(cost, Money::from_dollars_str("12.00").unwrap());
//! assert_eq!(cost.to_string(), "$12.00");
//!
//! // Example 1: (10 - 1) GB of outbound transfer at $0.12/GB.
//! let billed = Gb::new(10.0) - Gb::new(1.0);
//! assert_eq!(hourly.scale(billed.value()).to_string(), "$1.08");
//! ```

mod money;
mod size;
mod time;

pub use money::{Money, MoneyParseError};
pub use size::{Gb, GB_PER_TB};
pub use time::{Hours, Months};

/// Largest admissible per-epoch capacity-interruption probability —
/// the shared clamp of the market layer (`mv-market`, which quotes
/// interruption hazards) and the charging layer (`mv-cost`'s
/// `InterruptionRisk`, which prices them). One constant so the two
/// sides can never clamp at different ceilings; it lives here because
/// `mv-units` is their only common dependency. At `p = 0.99` a build
/// is already expected to run 100×, so nothing meaningful is lost by
/// the cap.
pub const MAX_INTERRUPTION: f64 = 0.99;
