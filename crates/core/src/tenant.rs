//! Tenancy vocabulary for the multi-job Rocpanda service.
//!
//! A *tenant* is one admitted job (one GENx instance, one post-processing
//! pipeline, …) sharing the long-running I/O service with others. Every
//! quota ledger entry, drain queue, and read-cache partition is keyed by a
//! [`TenantId`]; admission and drain scheduling weight tenants by
//! [`Priority`]; and every admission/quota/drain failure is reported as a
//! structured [`ServiceError`] so callers can tell "quota exceeded" from
//! "fabric fault" without string matching.

use std::fmt;

use crate::error::RocError;

/// Identifier of one admitted job within a [`ServiceError`] / quota ledger.
///
/// `TenantId(0)` is the *solo* tenant: the identity of everything written
/// outside a Rocpanda service session (Rochdf / T-Rochdf output, files the
/// store's ledger finds under no bound prefix). Solo-tenant files keep
/// unprefixed path names; a service assigns its jobs ids from 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TenantId(pub u32);

impl TenantId {
    /// The compatibility tenant used by single-job sessions.
    pub const SOLO: TenantId = TenantId(0);

    /// True when this is the compatibility solo tenant.
    pub(crate) fn is_solo(self) -> bool {
        self.0 == 0
    }

    /// Path prefix namespacing this tenant's files inside the shared store.
    ///
    /// The solo tenant keeps the legacy unprefixed namespace; every other
    /// tenant gets a `t{id:04}/` directory.
    pub fn path_prefix(self) -> String {
        if self.is_solo() {
            String::new()
        } else {
            format!("t{:04}/", self.0)
        }
    }
}

impl fmt::Display for TenantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{:04}", self.0)
    }
}

/// Drain-scheduling weight class for a tenant.
///
/// The serve loop runs deficit round-robin over per-tenant drain queues;
/// a tenant's quantum per round is proportional to `weight()`, so a
/// `High`-priority tenant drains three bytes for every one byte a `Low`
/// tenant drains under contention — but no tenant ever starves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Priority {
    /// Background / best-effort jobs.
    Low,
    /// The default class; equal-priority tenants share drain bandwidth fairly.
    #[default]
    Normal,
    /// Latency-sensitive jobs (e.g. a coupled solver waiting on snapshots).
    High,
}

impl Priority {
    /// Deficit-round-robin weight: quantum multiplier per serve round.
    pub fn weight(self) -> u32 {
        match self {
            Priority::Low => 1,
            Priority::Normal => 2,
            Priority::High => 6,
        }
    }
}

impl fmt::Display for Priority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Priority::Low => write!(f, "low"),
            Priority::Normal => write!(f, "normal"),
            Priority::High => write!(f, "high"),
        }
    }
}

/// What went wrong, independent of which tenant it happened to.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceErrorKind {
    /// A write would push the tenant over its byte quota.
    ///
    /// Deterministic: the same sequence of charges produces the same
    /// rejection point, so tests can assert the exact failing write.
    QuotaExceeded {
        /// The tenant's configured ceiling in bytes.
        limit: u64,
        /// Bytes charged to the tenant when the write was attempted.
        used: u64,
        /// Size of the rejected charge.
        requested: u64,
    },
    /// Admission rejected: a job spec named ranks outside the fabric, ranks
    /// already claimed by another tenant, or an otherwise malformed layout.
    AdmissionSpec(String),
    /// A server-side drain failed for this tenant (surfaced on `sync`).
    Drain(String),
    /// The session is gone (service shut down, job already finalized).
    SessionClosed(String),
}

impl fmt::Display for ServiceErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceErrorKind::QuotaExceeded {
                limit,
                used,
                requested,
            } => write!(
                f,
                "quota exceeded: {requested} B requested with {used}/{limit} B used"
            ),
            ServiceErrorKind::AdmissionSpec(s) => write!(f, "admission rejected: {s}"),
            ServiceErrorKind::Drain(s) => write!(f, "drain failed: {s}"),
            ServiceErrorKind::SessionClosed(s) => write!(f, "session closed: {s}"),
        }
    }
}

/// A structured service failure: which tenant, and what kind.
///
/// Replaces the ad-hoc string-payload `RocError::Storage`/`Config`/`Comm`
/// surfaces that admission, quota, and drain paths grew piecemeal — callers
/// match on [`ServiceErrorKind`] instead of substring-probing messages.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceError {
    /// The tenant the failure is attributed to.
    pub tenant: TenantId,
    /// What went wrong.
    pub kind: ServiceErrorKind,
}

impl ServiceError {
    /// Construct and immediately wrap into [`RocError::Service`].
    pub fn err(tenant: TenantId, kind: ServiceErrorKind) -> RocError {
        RocError::Service(ServiceError { tenant, kind })
    }
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.tenant, self.kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solo_tenant_has_legacy_namespace() {
        assert!(TenantId::SOLO.is_solo());
        assert_eq!(TenantId::SOLO.path_prefix(), "");
        assert_eq!(TenantId(3).path_prefix(), "t0003/");
        assert!(!TenantId(3).is_solo());
    }

    #[test]
    fn priority_weights_are_strictly_ordered() {
        assert!(Priority::Low.weight() < Priority::Normal.weight());
        assert!(Priority::Normal.weight() < Priority::High.weight());
        assert_eq!(Priority::default(), Priority::Normal);
    }

    #[test]
    fn service_error_display_names_tenant_and_kind() {
        let e = ServiceError {
            tenant: TenantId(7),
            kind: ServiceErrorKind::QuotaExceeded {
                limit: 100,
                used: 90,
                requested: 20,
            },
        };
        let s = e.to_string();
        assert!(s.contains("t0007"), "{s}");
        assert!(s.contains("quota exceeded"), "{s}");
        assert!(s.contains("20 B requested"), "{s}");
    }

    #[test]
    fn err_helper_wraps_into_roc_error() {
        let e = ServiceError::err(
            TenantId(1),
            ServiceErrorKind::AdmissionSpec("overlapping ranks".into()),
        );
        match e {
            RocError::Service(se) => {
                assert_eq!(se.tenant, TenantId(1));
                assert!(matches!(se.kind, ServiceErrorKind::AdmissionSpec(_)));
            }
            other => panic!("expected Service, got {other:?}"),
        }
    }
}
