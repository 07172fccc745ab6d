//! # synth — the calibrated synthetic chatbot ecosystem
//!
//! The paper measured a live population (20,915 top.gg listings). Offline,
//! we *plant* that population instead: every distribution the paper reports
//! becomes a generation parameter, and the measurement pipeline must
//! recover it through the same noisy channels the authors faced (invalid
//! invite links, dead websites, profile-only GitHub links, captchas).
//!
//! Because the ecosystem carries **ground truth** ([`truth`]), this
//! reproduction can do something the paper could not: score each analyzer's
//! precision/recall against what was actually planted.
//!
//! * [`config`] — calibration constants, all traceable to §4.2 numbers;
//! * [`developers`] — the Table 1 developer→bot allocation;
//! * [`permissions`] — Figure 3 permission sampling;
//! * [`build`] — assembly: platform, listing site, websites, GitHub,
//!   redirectors, the lot (the randomness lives in the internal plan
//!   phase; mounting is draw-free);
//! * [`drift`] — longitudinal epochs: seeded per-bot mutations on top of
//!   the frozen snapshot, for incremental re-audit experiments;
//! * [`arrivals`] — seeded adversarial fleet arrival plans (flooding,
//!   preemption pokes, just-missable deadlines) for daemon stress tests;
//! * [`truth`] — per-bot ground-truth labels.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod arrivals;
pub mod build;
pub mod config;
pub mod developers;
pub mod drift;
pub mod permissions;
mod plan;
pub mod truth;

pub use arrivals::{adversarial_arrivals, Arrival, ArrivalConfig};
pub use build::{build_ecosystem, world_lineage, Ecosystem};
pub use config::EcosystemConfig;
pub use drift::{build_ecosystem_at, DriftConfig, DriftEvent, DriftKind, EpochDrift};
pub use truth::{BotTruth, GithubClass, GroundTruth, InviteClass, PolicyClass};
