//! Admission control: who gets a session, and how much work each
//! tenant may buy.
//!
//! Two independent limits, both answered with an explicit typed reject
//! frame rather than a dropped connection:
//!
//! * **Concurrency** — a global concurrent-session cap and a
//!   per-tenant cap, answered with [`ErrorCode::Busy`]. Sessions are
//!   counted from a successful hello to connection teardown (an RAII
//!   [`SessionPermit`] guarantees release on every exit path,
//!   including panics in the session thread).
//! * **Budget** — a per-tenant *reference* budget, answered with
//!   [`ErrorCode::OverBudget`]. Every job charges the references the
//!   engine actually simulated for it (the same counter the local
//!   CLI's throughput line reports), so the cost of a job is bounded
//!   up front by the session's reference cap (`smoke=1` or the
//!   daemon's `force_max_refs`), at which every capture stops its
//!   workload, and accounted exactly afterwards. The budget is cumulative across a
//!   tenant's sessions for the daemon's lifetime.
//!
//! [`ErrorCode::Busy`]: fvl_mem::frame::ErrorCode::Busy
//! [`ErrorCode::OverBudget`]: fvl_mem::frame::ErrorCode::OverBudget

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Why a hello (or a job) was refused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Refusal {
    /// The daemon or the tenant is at its concurrent-session cap.
    Busy,
    /// The tenant's reference budget is exhausted.
    OverBudget,
}

#[derive(Default)]
struct TenantState {
    active_sessions: usize,
    refs_charged: u64,
}

struct AdmissionState {
    active_total: usize,
    tenants: HashMap<String, TenantState>,
}

/// Shared admission-control state (one per daemon).
pub struct Admission {
    max_sessions: usize,
    max_sessions_per_tenant: usize,
    tenant_budget_refs: Option<u64>,
    state: Mutex<AdmissionState>,
}

impl std::fmt::Debug for Admission {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Admission")
            .field("max_sessions", &self.max_sessions)
            .field("max_sessions_per_tenant", &self.max_sessions_per_tenant)
            .field("tenant_budget_refs", &self.tenant_budget_refs)
            .finish()
    }
}

impl Admission {
    /// New admission state with the given caps. `tenant_budget_refs`
    /// of `None` means unmetered.
    pub fn new(
        max_sessions: usize,
        max_sessions_per_tenant: usize,
        tenant_budget_refs: Option<u64>,
    ) -> Self {
        Admission {
            max_sessions,
            max_sessions_per_tenant,
            tenant_budget_refs,
            state: Mutex::new(AdmissionState {
                active_total: 0,
                tenants: HashMap::new(),
            }),
        }
    }

    /// Tries to admit a session for `tenant`. On success the returned
    /// permit holds the slot until dropped.
    ///
    /// # Errors
    ///
    /// [`Refusal::Busy`] at either session cap; [`Refusal::OverBudget`]
    /// when the tenant's budget is already spent (a session that could
    /// never run a job is refused up front).
    pub fn admit(self: &Arc<Self>, tenant: &str) -> Result<SessionPermit, Refusal> {
        let mut state = self.state.lock().unwrap();
        if state.active_total >= self.max_sessions {
            return Err(Refusal::Busy);
        }
        let entry = state.tenants.entry(tenant.to_string()).or_default();
        if entry.active_sessions >= self.max_sessions_per_tenant {
            return Err(Refusal::Busy);
        }
        if let Some(budget) = self.tenant_budget_refs {
            if entry.refs_charged >= budget {
                return Err(Refusal::OverBudget);
            }
        }
        entry.active_sessions += 1;
        state.active_total += 1;
        Ok(SessionPermit {
            admission: Arc::clone(self),
            tenant: tenant.to_string(),
        })
    }

    /// Charges `refs` simulated references to `tenant`, reporting
    /// whether the tenant may start *another* job afterwards. Charging
    /// is never refused retroactively — the job already ran under its
    /// session's reference cap — the budget gates the next admission.
    pub fn charge(&self, tenant: &str, refs: u64) -> Result<(), Refusal> {
        let mut state = self.state.lock().unwrap();
        let entry = state.tenants.entry(tenant.to_string()).or_default();
        entry.refs_charged = entry.refs_charged.saturating_add(refs);
        match self.tenant_budget_refs {
            Some(budget) if entry.refs_charged >= budget => Err(Refusal::OverBudget),
            _ => Ok(()),
        }
    }

    /// Whether `tenant` may start a job right now.
    pub fn may_run(&self, tenant: &str) -> Result<(), Refusal> {
        let state = self.state.lock().unwrap();
        match (self.tenant_budget_refs, state.tenants.get(tenant)) {
            (Some(budget), Some(entry)) if entry.refs_charged >= budget => Err(Refusal::OverBudget),
            _ => Ok(()),
        }
    }

    /// Remaining reference budget for `tenant` (`u64::MAX` when
    /// unmetered) — reported in the welcome frame.
    pub fn remaining_budget(&self, tenant: &str) -> u64 {
        let state = self.state.lock().unwrap();
        match self.tenant_budget_refs {
            None => u64::MAX,
            Some(budget) => {
                let used = state
                    .tenants
                    .get(tenant)
                    .map(|t| t.refs_charged)
                    .unwrap_or(0);
                budget.saturating_sub(used)
            }
        }
    }

    /// Currently active sessions (all tenants).
    pub fn active_sessions(&self) -> usize {
        self.state.lock().unwrap().active_total
    }

    fn release(&self, tenant: &str) {
        let mut state = self.state.lock().unwrap();
        state.active_total = state.active_total.saturating_sub(1);
        if let Some(entry) = state.tenants.get_mut(tenant) {
            entry.active_sessions = entry.active_sessions.saturating_sub(1);
        }
    }
}

/// RAII session slot: releases the concurrency counters on drop.
#[derive(Debug)]
pub struct SessionPermit {
    admission: Arc<Admission>,
    tenant: String,
}

impl SessionPermit {
    /// The tenant this permit belongs to.
    pub fn tenant(&self) -> &str {
        &self.tenant
    }
}

impl Drop for SessionPermit {
    fn drop(&mut self) {
        self.admission.release(&self.tenant);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_cap_refuses_with_busy() {
        let adm = Arc::new(Admission::new(2, 2, None));
        let a = adm.admit("a").unwrap();
        let _b = adm.admit("b").unwrap();
        assert_eq!(adm.admit("c").unwrap_err(), Refusal::Busy);
        drop(a);
        assert!(adm.admit("c").is_ok());
    }

    #[test]
    fn per_tenant_cap_is_independent() {
        let adm = Arc::new(Admission::new(10, 1, None));
        let _a = adm.admit("t").unwrap();
        assert_eq!(adm.admit("t").unwrap_err(), Refusal::Busy);
        assert!(adm.admit("other").is_ok());
    }

    #[test]
    fn budget_exhaustion_refuses_jobs_then_sessions() {
        let adm = Arc::new(Admission::new(10, 10, Some(1000)));
        let permit = adm.admit("t").unwrap();
        assert!(adm.may_run("t").is_ok());
        assert_eq!(adm.charge("t", 600), Ok(()));
        assert_eq!(adm.charge("t", 600), Err(Refusal::OverBudget));
        assert_eq!(adm.may_run("t").unwrap_err(), Refusal::OverBudget);
        drop(permit);
        assert_eq!(adm.admit("t").unwrap_err(), Refusal::OverBudget);
        // Other tenants are unaffected.
        assert!(adm.admit("fresh").is_ok());
    }

    #[test]
    fn permits_release_on_drop_even_for_unknown_release_order() {
        let adm = Arc::new(Admission::new(3, 3, None));
        let p1 = adm.admit("t").unwrap();
        let p2 = adm.admit("t").unwrap();
        assert_eq!(adm.active_sessions(), 2);
        drop(p1);
        drop(p2);
        assert_eq!(adm.active_sessions(), 0);
    }

    #[test]
    fn remaining_budget_reports_headroom() {
        let adm = Arc::new(Admission::new(4, 4, Some(5000)));
        assert_eq!(adm.remaining_budget("t"), 5000);
        adm.charge("t", 1500).unwrap();
        assert_eq!(adm.remaining_budget("t"), 3500);
        let unmetered = Arc::new(Admission::new(4, 4, None));
        assert_eq!(unmetered.remaining_budget("t"), u64::MAX);
    }
}
