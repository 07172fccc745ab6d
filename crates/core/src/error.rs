//! The unified error surface for the audit facade.
//!
//! The pipeline crosses four crates that each grew their own error enum —
//! [`PlatformError`] (discord-sim), [`NetError`] (netsim), [`StoreError`]
//! (store), [`LocateError`] (htmlsim). Code driving a whole audit should
//! not have to name all four: everything converges on [`AuditError`] via
//! `From`, and callers that only need to branch coarsely (retry? resume?
//! give up?) match on the stable [`AuditError::kind`] instead of the
//! carried payloads.

use discord_sim::PlatformError;
use htmlsim::LocateError;
use netsim::NetError;
use std::fmt;
use store::StoreError;

/// Any failure an audit run can surface, from any layer.
///
/// Every constituent error converts in with `?` / `From`; the original
/// payload is preserved in the variant. [`Self::kind`] gives a stable,
/// payload-free discriminant for coarse handling and logging.
#[derive(Debug)]
#[non_exhaustive]
pub enum AuditError {
    /// The builder rejected its inputs before anything ran.
    Config {
        /// What was wrong.
        reason: String,
    },
    /// The simulated platform refused an action (permissions, hierarchy,
    /// missing entity, ...).
    Platform(PlatformError),
    /// The network fabric failed a request (timeout, DNS, rate limit, ...).
    Net(NetError),
    /// The crash-safe store's backend failed.
    Store(StoreError),
    /// An HTML locator failed during extraction.
    Locate(LocateError),
    /// The armed kill switch fired mid-run (the simulated crash). Every
    /// write made before the crash is durable and will be reused.
    Interrupted {
        /// Durable writes (journal and analysis pack frames) made before
        /// the simulated crash.
        frames_written: u64,
    },
    /// The fleet scheduler refused the submission (queue full or tenant
    /// over its rate). Deterministic: the same submission sequence at the
    /// same virtual times is refused identically on every run.
    Saturated(sched::Rejection),
    /// The job was still queued when its deadline passed, so the daemon
    /// dropped it without running it. Deterministic: expiry is decided on
    /// the virtual clock at tick boundaries, never by wall time.
    Expired {
        /// The virtual-clock deadline that passed, in milliseconds.
        deadline_ms: u64,
        /// How far past the deadline the expiring tick ran, in
        /// milliseconds.
        late_by_ms: u64,
    },
}

/// Payload-free discriminant of an [`AuditError`], stable across releases.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum ErrorKind {
    /// Invalid builder configuration.
    Config,
    /// Platform (discord-sim) refusal.
    Platform,
    /// Network fabric failure.
    Net,
    /// Storage backend failure.
    Store,
    /// HTML locator failure.
    Locate,
    /// Simulated crash: resume to continue.
    Interrupted,
    /// Scheduler admission control refused the job.
    Saturated,
    /// The job's deadline passed while it was still queued.
    Expired,
}

impl ErrorKind {
    /// The pinned wire/log name of this kind. These strings are a stable
    /// contract (tests pin every one): `"config"`, `"platform"`, `"net"`,
    /// `"store"`, `"locate"`, `"interrupted"`, `"saturated"`,
    /// `"expired"`. New variants
    /// may appear (the enum is `#[non_exhaustive]`) but existing names
    /// never change.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorKind::Config => "config",
            ErrorKind::Platform => "platform",
            ErrorKind::Net => "net",
            ErrorKind::Store => "store",
            ErrorKind::Locate => "locate",
            ErrorKind::Interrupted => "interrupted",
            ErrorKind::Saturated => "saturated",
            ErrorKind::Expired => "expired",
        }
    }
}

impl fmt::Display for ErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl AuditError {
    /// The stable discriminant for coarse matching.
    pub fn kind(&self) -> ErrorKind {
        match self {
            AuditError::Config { .. } => ErrorKind::Config,
            AuditError::Platform(_) => ErrorKind::Platform,
            AuditError::Net(_) => ErrorKind::Net,
            AuditError::Store(_) => ErrorKind::Store,
            AuditError::Locate(_) => ErrorKind::Locate,
            AuditError::Interrupted { .. } => ErrorKind::Interrupted,
            AuditError::Saturated(_) => ErrorKind::Saturated,
            AuditError::Expired { .. } => ErrorKind::Expired,
        }
    }

    /// Shorthand for a [`AuditError::Config`] with a formatted reason.
    pub(crate) fn config(reason: impl Into<String>) -> AuditError {
        AuditError::Config {
            reason: reason.into(),
        }
    }
}

impl fmt::Display for AuditError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuditError::Config { reason } => write!(f, "invalid audit configuration: {reason}"),
            AuditError::Platform(e) => write!(f, "platform error: {e}"),
            AuditError::Net(e) => write!(f, "network error: {e}"),
            AuditError::Store(e) => write!(f, "store error: {e}"),
            AuditError::Locate(e) => write!(f, "locator error: {e}"),
            AuditError::Interrupted { frames_written } => {
                write!(f, "run interrupted after {frames_written} durable frames")
            }
            AuditError::Saturated(r) => write!(f, "scheduler saturated: {r}"),
            AuditError::Expired {
                deadline_ms,
                late_by_ms,
            } => write!(
                f,
                "deadline {deadline_ms} ms expired in queue ({late_by_ms} ms late)"
            ),
        }
    }
}

impl std::error::Error for AuditError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AuditError::Platform(e) => Some(e),
            AuditError::Net(e) => Some(e),
            AuditError::Store(e) => Some(e),
            AuditError::Locate(e) => Some(e),
            AuditError::Saturated(e) => Some(e),
            AuditError::Config { .. }
            | AuditError::Interrupted { .. }
            | AuditError::Expired { .. } => None,
        }
    }
}

impl From<sched::Rejection> for AuditError {
    fn from(e: sched::Rejection) -> AuditError {
        match e {
            sched::Rejection::DeadlineExpired {
                deadline_ms,
                late_by_ms,
            } => AuditError::Expired {
                deadline_ms,
                late_by_ms,
            },
            other => AuditError::Saturated(other),
        }
    }
}

impl From<sched::SpecError> for AuditError {
    fn from(e: sched::SpecError) -> AuditError {
        AuditError::config(e.to_string())
    }
}

impl From<PlatformError> for AuditError {
    fn from(e: PlatformError) -> AuditError {
        AuditError::Platform(e)
    }
}

impl From<NetError> for AuditError {
    fn from(e: NetError) -> AuditError {
        AuditError::Net(e)
    }
}

impl From<StoreError> for AuditError {
    fn from(e: StoreError) -> AuditError {
        AuditError::Store(e)
    }
}

impl From<LocateError> for AuditError {
    fn from(e: LocateError) -> AuditError {
        AuditError::Locate(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_source_error_converts_and_keeps_its_kind() {
        let cases: Vec<(AuditError, ErrorKind)> = vec![
            (AuditError::config("bad"), ErrorKind::Config),
            (PlatformError::NotAMember.into(), ErrorKind::Platform),
            (
                NetError::DnsFailure { host: "x".into() }.into(),
                ErrorKind::Net,
            ),
            (StoreError::Interrupted.into(), ErrorKind::Store),
            (
                LocateError::InvalidLocator { reason: "y".into() }.into(),
                ErrorKind::Locate,
            ),
            (
                sched::Rejection::QueueFull { capacity: 4 }.into(),
                ErrorKind::Saturated,
            ),
            (
                sched::Rejection::DeadlineExpired {
                    deadline_ms: 100,
                    late_by_ms: 7,
                }
                .into(),
                ErrorKind::Expired,
            ),
            (
                sched::SpecError::ZeroWeight { tenant: "t".into() }.into(),
                ErrorKind::Config,
            ),
        ];
        for (err, kind) in cases {
            assert_eq!(err.kind(), kind, "{err}");
        }
    }

    #[test]
    fn expired_rejections_become_typed_expired_errors() {
        let err: AuditError = sched::Rejection::DeadlineExpired {
            deadline_ms: 400,
            late_by_ms: 50,
        }
        .into();
        match &err {
            AuditError::Expired {
                deadline_ms,
                late_by_ms,
            } => {
                assert_eq!(*deadline_ms, 400);
                assert_eq!(*late_by_ms, 50);
            }
            other => panic!("wrong variant: {other}"),
        }
        assert_eq!(err.kind().as_str(), "expired");
        assert_eq!(
            err.to_string(),
            "deadline 400 ms expired in queue (50 ms late)"
        );
    }

    #[test]
    fn display_is_prefixed_by_layer() {
        assert!(AuditError::config("no bots")
            .to_string()
            .contains("invalid audit configuration"));
        let net: AuditError = NetError::DnsFailure { host: "h".into() }.into();
        assert!(net.to_string().starts_with("network error:"));
    }
}
