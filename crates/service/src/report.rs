//! Per-layer accounting of one assembled stack, snapshotted from its
//! [`StackHandles`].
//!
//! [`ServiceReport`] used to live in `predtop-core` next to the search
//! engine, but every consumer of the stack wants the same snapshot —
//! the CLI summary, the search outcome, and the wire protocol's `Stats`
//! reply — so it now lives here, beside the handles it reads, and
//! exposes its installed layers uniformly through the [`Ledger`] trait
//! via [`ServiceReport::ledgers`].

use crate::batched::BatchStats;
use crate::builder::StackHandles;
use crate::deadline::DeadlineStats;
use crate::fallback::FallbackStats;
use crate::fault::FaultStats;
use crate::instrument::ServiceMetrics;
use crate::ledger::Ledger;
use crate::memoize::CacheStats;
use crate::persist::PersistStats;
use crate::retry::RetryStats;
use predtop_parallel::InternStats;

/// Accounting of what the service stack did during one search, built
/// from the stack's [`StackHandles`]. Every field mirrors one optional
/// middleware layer.
#[derive(Debug, Clone, Default)]
pub struct ServiceReport {
    /// Hit/miss counters of the `Memoize` layer, if installed.
    pub cache: Option<CacheStats>,
    /// Lookup/distinct counters of the structural interner the
    /// `Memoize` layer keys on, if installed. `distinct` is the number
    /// of genuinely different sub-problems the search contained;
    /// `lookups − distinct` is the structural sharing the cache exploits.
    pub interner: Option<InternStats>,
    /// Dispatch counters of the `Batched` layer, if installed: how many
    /// batches fanned out vs. ran inline, and how many pool tasks (one
    /// per dispatched query) they handed out.
    pub batch: Option<BatchStats>,
    /// Query/batch/error counters and deterministic latency accounting
    /// of the `Instrumented` layer, if installed.
    pub metrics: Option<ServiceMetrics>,
    /// Primary/secondary attribution of the `Fallback` layer, if
    /// installed.
    pub fallback: Option<FallbackStats>,
    /// Injection counters of the `FaultInject` layer, if installed.
    pub fault: Option<FaultStats>,
    /// Attempt accounting of the `Retry` layer, if installed.
    pub retry: Option<RetryStats>,
    /// Overrun counters of the `Deadline` layer, if installed.
    pub deadline: Option<DeadlineStats>,
    /// Disk hit/miss/write accounting of the `Persist` layer, if
    /// installed: how much of the memoize tier's miss traffic the
    /// on-disk store absorbed, and what was written behind for the next
    /// run.
    pub persist: Option<PersistStats>,
}

impl ServiceReport {
    /// Snapshot every installed layer's counters.
    pub fn from_handles(h: &StackHandles) -> ServiceReport {
        ServiceReport {
            cache: h.cache.as_ref().map(|c| c.stats()),
            interner: h.interner.as_ref().map(|i| i.stats()),
            batch: h.batch.as_ref().map(|b| b.stats()),
            metrics: h.metrics.as_ref().map(|m| m.metrics()),
            fallback: h.fallback.as_ref().map(|f| f.stats()),
            fault: h.fault.as_ref().map(|f| f.stats()),
            retry: h.retry.as_ref().map(|r| r.stats()),
            deadline: h.deadline.as_ref().map(|d| d.stats()),
            persist: h.persist.as_ref().map(|p| p.stats()),
        }
    }

    /// True when at least one observable layer was installed.
    pub fn any_installed(&self) -> bool {
        self.cache.is_some()
            || self.interner.is_some()
            || self.batch.is_some()
            || self.metrics.is_some()
            || self.fallback.is_some()
            || self.fault.is_some()
            || self.retry.is_some()
            || self.deadline.is_some()
            || self.persist.is_some()
    }

    /// Every installed ledger as its shared render surface, in the
    /// report's canonical display order (cache, interner, persist,
    /// dispatch, service metrics, fallback, fault, retry, deadline). The
    /// CLI prints `summary()` of each; the wire `Stats`
    /// reply ships `fields()` of each.
    pub fn ledgers(&self) -> Vec<&dyn Ledger> {
        let mut out: Vec<&dyn Ledger> = Vec::new();
        if let Some(c) = &self.cache {
            out.push(c);
        }
        if let Some(i) = &self.interner {
            out.push(i);
        }
        if let Some(p) = &self.persist {
            out.push(p);
        }
        if let Some(b) = &self.batch {
            out.push(b);
        }
        if let Some(m) = &self.metrics {
            out.push(m);
        }
        if let Some(f) = &self.fallback {
            out.push(f);
        }
        if let Some(f) = &self.fault {
            out.push(f);
        }
        if let Some(r) = &self.retry {
            out.push(r);
        }
        if let Some(d) = &self.deadline {
            out.push(d);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_report_has_no_ledgers() {
        let r = ServiceReport::default();
        assert!(!r.any_installed());
        assert!(r.ledgers().is_empty());
    }

    #[test]
    fn installed_layers_surface_in_order() {
        let r = ServiceReport {
            cache: Some(CacheStats { hits: 1, misses: 2 }),
            persist: Some(PersistStats::default()),
            deadline: Some(DeadlineStats::default()),
            ..ServiceReport::default()
        };
        assert!(r.any_installed());
        let names: Vec<&str> = r.ledgers().iter().map(|l| l.ledger_name()).collect();
        assert_eq!(names, vec!["memoize", "store", "deadline"]);
    }
}
