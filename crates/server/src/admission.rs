//! Admission control: per-tenant quotas, queue-depth caps, and the
//! three-state load-shedding machine.
//!
//! The server refuses to build an unbounded backlog. Pressure is measured
//! by the ready-queue depth and mapped onto an explicit state machine:
//!
//! ```text
//!            depth < soft_cap         soft_cap ≤ depth < hard_cap      depth ≥ hard_cap
//!          ┌───────────────┐         ┌──────────────────┐            ┌──────────────┐
//!          │    Normal     │ ──────▶ │     Degraded     │ ─────────▶ │   Shedding   │
//!          │ admit all     │ ◀────── │ shed best-effort │ ◀───────── │ shed batch + │
//!          │ classes       │         │ downgrade batch  │            │ best-effort  │
//!          └───────────────┘         └──────────────────┘            └──────────────┘
//! ```
//!
//! * **Normal** — every class admitted (quota permitting).
//! * **Degraded** — best-effort jobs are rejected with
//!   [`RejectReason::LoadShed`]; batch jobs are still admitted but
//!   *downgraded* to the short preemption quantum, so they yield more often
//!   and the interactive tier sees less head-of-line blocking.
//! * **Shedding** — batch and best-effort are rejected
//!   ([`RejectReason::QueueFull`]); only interactive work gets in.
//!
//! The interactive tier is **never** shed by depth — only its tenant quota
//! bounds it. Per-tenant quotas cap jobs in flight (queued + running) per
//! tenant and apply to every class, so one tenant cannot monopolize even
//! the interactive tier.

use crate::job::{JobSpec, PriorityClass, RejectReason};
use std::collections::BTreeMap;

/// Admission-control configuration.
#[derive(Debug, Clone)]
pub struct AdmissionConfig {
    /// Ready-queue depth at which the server degrades (sheds best-effort,
    /// downgrades batch to the short quantum).
    pub queue_soft_cap: usize,
    /// Ready-queue depth at which batch is rejected too.
    pub queue_hard_cap: usize,
    /// In-flight jobs (queued + running) allowed per tenant unless
    /// overridden.
    pub default_tenant_quota: usize,
    /// Per-tenant quota overrides.
    pub tenant_quotas: Vec<(String, usize)>,
}

impl Default for AdmissionConfig {
    fn default() -> AdmissionConfig {
        AdmissionConfig {
            queue_soft_cap: 8,
            queue_hard_cap: 16,
            default_tenant_quota: 4,
            tenant_quotas: Vec::new(),
        }
    }
}

/// The load-shedding state (see the module docs for the machine).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AdmissionState {
    /// Every class admitted.
    Normal,
    /// Best-effort shed; batch downgraded to the short quantum.
    Degraded,
    /// Batch and best-effort shed; interactive only.
    Shedding,
}

impl AdmissionState {
    /// Stable lowercase label (trace fields, bench JSON).
    pub(crate) fn label(self) -> &'static str {
        match self {
            AdmissionState::Normal => "normal",
            AdmissionState::Degraded => "degraded",
            AdmissionState::Shedding => "shedding",
        }
    }
}

/// What admission granted: whether the job was downgraded to the short
/// (degraded) preemption quantum.
#[derive(Debug, Clone, Copy)]
pub(crate) struct AdmissionTicket {
    /// Batch job admitted under pressure: use the degraded quantum.
    pub(crate) degraded: bool,
}

/// The admission controller: quota ledger plus the shedding state machine.
/// Deterministic by construction — tenant accounting lives in a `BTreeMap`
/// and every decision is a pure function of (config, ledger, queue depth).
pub(crate) struct AdmissionController {
    cfg: AdmissionConfig,
    state: AdmissionState,
    in_flight: BTreeMap<String, usize>,
}

impl AdmissionController {
    pub(crate) fn new(cfg: AdmissionConfig) -> AdmissionController {
        AdmissionController {
            cfg,
            state: AdmissionState::Normal,
            in_flight: BTreeMap::new(),
        }
    }

    /// Current shedding state.
    pub(crate) fn state(&self) -> AdmissionState {
        self.state
    }

    fn quota_for(&self, tenant: &str) -> usize {
        self.cfg
            .tenant_quotas
            .iter()
            .find(|(t, _)| t == tenant)
            .map(|(_, q)| *q)
            .unwrap_or(self.cfg.default_tenant_quota)
    }

    /// Re-derive the shedding state from the queue depth; returns the
    /// previous state when a transition happened (for tracing).
    pub(crate) fn evaluate(&mut self, depth: usize) -> Option<AdmissionState> {
        let next = if depth >= self.cfg.queue_hard_cap {
            AdmissionState::Shedding
        } else if depth >= self.cfg.queue_soft_cap {
            AdmissionState::Degraded
        } else {
            AdmissionState::Normal
        };
        let prev = self.state;
        self.state = next;
        (prev != next).then_some(prev)
    }

    /// Admit or reject one arriving job against the current depth.
    pub(crate) fn admit(
        &mut self,
        spec: &JobSpec,
        depth: usize,
    ) -> Result<AdmissionTicket, RejectReason> {
        self.evaluate(depth);
        let quota = self.quota_for(&spec.tenant);
        let used = self.in_flight.get(&spec.tenant).copied().unwrap_or(0);
        if used >= quota {
            return Err(RejectReason::TenantQuotaExceeded {
                tenant: spec.tenant.clone(),
                limit: quota,
            });
        }
        let degraded = match (spec.class, self.state) {
            // Interactive is never depth-shed.
            (PriorityClass::Interactive, _) => false,
            (PriorityClass::Batch, AdmissionState::Normal) => false,
            (PriorityClass::Batch, AdmissionState::Degraded) => true,
            (PriorityClass::Batch, AdmissionState::Shedding) => {
                return Err(RejectReason::QueueFull {
                    depth,
                    cap: self.cfg.queue_hard_cap,
                });
            }
            (PriorityClass::BestEffort, AdmissionState::Normal) => false,
            (PriorityClass::BestEffort, _) => {
                return Err(RejectReason::LoadShed { class: spec.class });
            }
        };
        *self.in_flight.entry(spec.tenant.clone()).or_insert(0) += 1;
        Ok(AdmissionTicket { degraded })
    }

    /// Re-occupy a tenant slot for an admission replayed from the journal.
    /// The decision was already made, logged, and billed before the crash;
    /// recovery must not re-run the gauntlet (the queue may look different
    /// now, and a replayed admit that suddenly rejected would lose a job).
    pub(crate) fn occupy(&mut self, tenant: &str) {
        *self.in_flight.entry(tenant.to_string()).or_insert(0) += 1;
    }

    /// Release one in-flight slot when a job reaches a terminal outcome.
    pub(crate) fn release(&mut self, tenant: &str) {
        if let Some(n) = self.in_flight.get_mut(tenant) {
            *n = n.saturating_sub(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mako_chem::builders;

    fn spec(tenant: &str, class: PriorityClass) -> JobSpec {
        JobSpec::new(tenant, class, builders::water())
    }

    fn ctl() -> AdmissionController {
        AdmissionController::new(AdmissionConfig {
            queue_soft_cap: 2,
            queue_hard_cap: 4,
            default_tenant_quota: 2,
            tenant_quotas: vec![("whale".to_string(), 5)],
        })
    }

    #[test]
    fn tenant_quota_binds_across_classes() {
        let mut c = ctl();
        assert!(c.admit(&spec("a", PriorityClass::Interactive), 0).is_ok());
        assert!(c.admit(&spec("a", PriorityClass::Batch), 0).is_ok());
        // Third in-flight job for tenant "a" — rejected regardless of class.
        match c.admit(&spec("a", PriorityClass::Interactive), 0) {
            Err(RejectReason::TenantQuotaExceeded { tenant, limit }) => {
                assert_eq!(tenant, "a");
                assert_eq!(limit, 2);
            }
            other => panic!("expected quota rejection, got {other:?}"),
        }
        // Another tenant is unaffected; the override tenant has more room.
        assert!(c.admit(&spec("b", PriorityClass::Batch), 0).is_ok());
        for _ in 0..5 {
            assert!(c
                .admit(&spec("whale", PriorityClass::Interactive), 0)
                .is_ok());
        }
        assert!(c
            .admit(&spec("whale", PriorityClass::Interactive), 0)
            .is_err());
        // Releasing frees the slot.
        c.release("a");
        assert!(c.admit(&spec("a", PriorityClass::Batch), 0).is_ok());
    }

    #[test]
    fn state_machine_follows_depth() {
        let mut c = ctl();
        assert_eq!(c.state(), AdmissionState::Normal);
        assert_eq!(c.evaluate(2), Some(AdmissionState::Normal));
        assert_eq!(c.state(), AdmissionState::Degraded);
        assert_eq!(c.evaluate(4), Some(AdmissionState::Degraded));
        assert_eq!(c.state(), AdmissionState::Shedding);
        // No transition → None.
        assert_eq!(c.evaluate(5), None);
        assert_eq!(c.evaluate(0), Some(AdmissionState::Shedding));
        assert_eq!(c.state(), AdmissionState::Normal);
    }

    #[test]
    fn shedding_ladder_degrades_gracefully() {
        let mut c = ctl();
        // Normal: everything admitted, nothing degraded.
        let t = c.admit(&spec("a", PriorityClass::Batch), 0).expect("admit");
        assert!(!t.degraded);
        assert!(c.admit(&spec("b", PriorityClass::BestEffort), 1).is_ok());

        // Degraded: best-effort shed, batch admitted but downgraded.
        match c.admit(&spec("c", PriorityClass::BestEffort), 2) {
            Err(RejectReason::LoadShed { class }) => {
                assert_eq!(class, PriorityClass::BestEffort)
            }
            other => panic!("expected load-shed, got {other:?}"),
        }
        let t = c.admit(&spec("c", PriorityClass::Batch), 3).expect("admit");
        assert!(t.degraded, "batch under pressure runs the short quantum");

        // Shedding: batch rejected too; interactive still admitted.
        match c.admit(&spec("d", PriorityClass::Batch), 4) {
            Err(RejectReason::QueueFull { depth, cap }) => {
                assert_eq!((depth, cap), (4, 4))
            }
            other => panic!("expected queue-full, got {other:?}"),
        }
        assert!(
            c.admit(&spec("d", PriorityClass::Interactive), 100).is_ok(),
            "interactive is never depth-shed"
        );
    }
}
