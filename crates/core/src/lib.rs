//! # chatbot-audit — the paper's contribution: an automated security &
//! privacy assessment pipeline for messaging-platform chatbots
//!
//! Figure 1 of the paper shows the pipeline this crate implements:
//!
//! ```text
//!   listings ──► Data Collection ──► Traceability Analysis ─┐
//!                     │                                      ├──► Risk Report
//!                     ├────────────► Code Analysis ──────────┤
//!                     └────────────► Dynamic Analysis ───────┘
//!                                     (honeypot)
//! ```
//!
//! * [`audit`] — the [`Audit::builder`] facade: one typed entry point over
//!   the crawl/analysis/honeypot/store configuration, returning results
//!   behind the unified [`AuditError`];
//! * [`daemon`] — the always-on fleet layer: [`FleetDaemon`] runs many
//!   tenants' audits as a long-lived loop on the virtual clock, with
//!   deficit-round-robin fairness, typed deadline expiry, and
//!   cooperative preemption of batch audits between durable writes;
//!   it re-audits drifted worlds incrementally and emits
//!   [`DeltaReport`]s;
//! * [`service`] — the fleet's job vocabulary: [`AuditJob`] in,
//!   [`JobOutcome`] out, and the per-platform [`platform_breakdown`];
//! * [`pipeline`] — stage orchestration over a mounted world (the `synth`
//!   ecosystem or any compatible set of services);
//! * [`stats`] — the aggregations behind every table and figure in §4.2;
//! * [`report`] — per-bot risk findings and paper-style table rendering;
//! * [`validate`] — something the paper could not do: score each analyzer
//!   against the planted ground truth.
//!
//! Every stage reports through the `obs` crate: pass an [`obs::Obs`] via
//! [`AuditBuilder::obs`] (or [`pipeline::AuditPipeline::with_obs`]) to
//! capture deterministic span traces and registry metrics.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod audit;
pub mod daemon;
pub mod delta;
pub mod error;
pub mod leastpriv;
pub mod pipeline;
pub mod report;
pub mod resume;
pub mod service;
pub mod stats;
pub mod validate;

pub use audit::{Audit, AuditBuilder};
pub use daemon::{
    AbandonedAudit, FleetDaemon, FleetDaemonConfig, JobHandle, ShutdownMode, ShutdownReport,
};
pub use delta::{DeltaReport, PermissionChange, TraceabilityTransition};
pub use error::{AuditError, ErrorKind};
pub use leastpriv::{least_privilege_summary, privilege_gaps, LeastPrivilegeSummary, PrivilegeGap};
pub use pipeline::{
    AuditConfig, AuditPipeline, AuditReport, AuditedBot, CodeFinding, LinkResolution,
};
pub use report::{
    exposure_by_flag, render_figure3, render_markdown_dossier, render_table1, render_table2,
    render_table3, risk_report, CanonicalBot, CanonicalCampaign, CanonicalDetection,
    CanonicalReport, RiskFlag, RiskReport,
};
pub use resume::{
    run_fingerprint, ResumableOutcome, StoreConfig, CRAWL_UNIT_SIZE, K_COMPLETE, K_CRAWL_UNIT,
    K_HONEYPOT, K_LISTING,
};
pub use service::{platform_breakdown, AuditJob, JobOutcome, PlatformBreakdown};
pub use stats::{
    figure3_distribution, permission_rate_by_tag, table1_histogram, table2_traceability,
    table3_code_analysis, Figure3Row, Table1Row, Table2Summary, Table3Summary,
};
pub use validate::{validate_against_truth, AnalyzerScore, ValidationReport};

/// Platform identity, re-exported so facade users name substrates without
/// depending on the `platform` crate directly.
pub use platform::PlatformKind;

/// The longitudinal oplog vocabulary, re-exported so fleet callers can
/// consume [`FleetDaemon::history`]/[`FleetDaemon::trends`] results
/// without depending on the `oplog` crate directly.
pub use oplog::{
    fleet_drift_curves, BotFlips, CompactionOutcome, CreepEntry, DriftPoint, EpochRecord,
    EpochTrend, PermissionCreep, PlatformDrift, TrendQuery,
};
