//! # vo-penguin — the PENGUIN system facade
//!
//! A batteries-included front end over the whole stack (paper §3: "a first
//! prototype of our view-object model has been implemented in the PENGUIN
//! system"):
//!
//! - [`system::Penguin`] owns the structural schema, the database, and a
//!   registry of view objects with their dialog-chosen translators;
//! - [`session::Session`] pins snapshot-isolated MVCC read sessions:
//!   concurrent readers never block the writer, and batches prepared on
//!   a session commit at the head under first-committer-wins. The head
//!   and every session read through one implementation and one kind of
//!   epoch-checked plan cache;
//! - [`voql`] is a small declarative query/update language on view objects
//!   (`GET omega WHERE level = 'graduate' AND COUNT(STUDENT) < 5`);
//! - [`fixtures`] provides the paper's university database (Figure 1) and
//!   a hospital domain matching the paper's medical-informatics context;
//! - [`generator`] produces scaled and synthetic workloads for the
//!   experiment harness.

pub mod catalog;
pub mod fixtures;
pub mod generator;
mod read;
pub mod session;
pub mod system;
pub mod voql;

pub use catalog::SavedSystem;
pub use fixtures::{hospital_database, hospital_schema, seed_hospital};
pub use generator::{
    seed_ownership_chain, seed_university_scaled, synthetic_schema, university_scaled, SchemaShape,
};
pub use session::Session;
pub use system::{Penguin, PenguinOptions, PlanCacheStats, RegisteredObject, WatchId, SYSTEM_FILE};
pub use vo_exec::{available_parallelism, Parallelism};
pub use vo_store::{
    CheckpointPolicy, CompactionPolicy, CompactionReport, RecoveryReport, StoreOptions, SyncPolicy,
};
pub use voql::{parse as parse_voql, run as run_voql, VoqlOutcome, VoqlStatement};
