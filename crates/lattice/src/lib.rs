//! The data-cube lattice substrate.
//!
//! The paper's candidate materialized views are roll-up cuboids of a
//! dimensional lattice (its running example: time × administrative
//! geography). This crate provides the lattice itself — dimensions,
//! cuboids, the derivability partial order — plus size estimation
//! (Cardenas' formula) and the candidate-generation methods the paper
//! defers to prior work for.
//!
//! ```
//! use mv_lattice::{candidates, Lattice, SizeEstimator};
//!
//! let lattice = Lattice::paper_running_example();
//! assert_eq!(lattice.num_cuboids(), 16);
//!
//! let workload = mv_lattice::paper_workload(&lattice);
//! let est = SizeEstimator::new(1_000_000);
//! let picks = candidates::hru_greedy(&lattice, &est, &workload, 4);
//! assert!(picks.len() <= 4);
//! ```

pub mod candidates;
mod cuboid;
mod error;
mod estimate;
mod evolution;
mod hierarchy;
#[allow(clippy::module_inception)]
mod lattice;
pub mod scale;
mod workload;

pub use cuboid::Cuboid;
pub use error::LatticeError;
pub use estimate::{cardenas, SizeEstimator};
pub use evolution::{EvolutionKind, WorkloadEvolution};
pub use hierarchy::{Dimension, Level};
pub use lattice::Lattice;
pub use scale::ScaleShape;
pub use workload::{paper_workload, LatticeQuery, LatticeWorkload, LoweredQuery};
