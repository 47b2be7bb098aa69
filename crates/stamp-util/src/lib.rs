//! # stamp-util — shared infrastructure for the STAMP-rs suite
//!
//! Provides what the original suite's `lib/` and shell drivers provided:
//!
//! * [`prng::Mt19937`] — the MT19937 generator of STAMP's `random.c`, so
//!   every generated input is a deterministic function of its Table IV
//!   seed;
//! * [`params`] / [`variants`] — structured parameters for the eight
//!   applications and the registry of the 30 recommended configurations
//!   (Table IV of the paper);
//! * [`flags`] / [`driver`] — one declarative flag table per binary
//!   (accepting the original `-v32`-style arguments), and the one
//!   reader of the shared TM flags and `TM_*` variables;
//! * [`report`] — common result types shared by the application `run`
//!   entry points and the bench harness.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod driver;
pub mod flags;
pub mod params;
pub mod prng;
pub mod report;
pub mod variants;

pub use driver::app_main;
pub use flags::{Flag, Flags};
pub use params::{
    AppArgs, AppKind, AppParams, BayesParams, GenomeParams, IntruderParams, KmeansParams,
    LabyrinthParams, Ssca2Params, VacationParams, YadaParams,
};
pub use prng::Mt19937;
pub use report::AppReport;
pub use variants::{all_variants, sim_variants, variant, Variant};
