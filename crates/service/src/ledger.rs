//! One shared render surface for every stack ledger.
//!
//! Before this module, the per-layer counter snapshots ([`CacheStats`],
//! [`crate::PersistStats`], breaker/retry stats, ...) were
//! rendered three separate times: hand-rolled `println!`s in the CLI
//! text summary, hand-rolled JSON fragments for `--format json`, and —
//! with the wire protocol — a third encoding for the `Stats` reply.
//! [`Ledger`] collapses those into one place: every snapshot type
//! exposes
//!
//! * a stable [`ledger_name`](Ledger::ledger_name) (the prefix of its
//!   text line and the name of its wire snapshot),
//! * its [`fields`](Ledger::fields) as typed key/value pairs (counts,
//!   seconds, short text), each flagged for whether it belongs in the
//!   CLI's *flat* JSON object, and
//! * its canonical one-line [`summary`](Ledger::summary) — the exact
//!   text the CLI has always printed, now produced here and nowhere
//!   else.
//!
//! The CLI prints `summary()` lines and splices
//! [`flat_json_fields`] into its JSON object; the wire protocol ships
//! `fields()` verbatim inside the `Stats` reply. All three views are
//! projections of the same data, so they can never drift apart again.

use crate::batched::BatchStats;
use crate::breaker::BreakerStats;
use crate::deadline::DeadlineStats;
use crate::fallback::FallbackStats;
use crate::fault::FaultStats;
use crate::instrument::ServiceMetrics;
use crate::memoize::CacheStats;
use crate::persist::PersistStats;
use crate::retry::RetryStats;
use predtop_parallel::InternStats;

/// One typed ledger value.
#[derive(Debug, Clone, PartialEq)]
pub enum LedgerValue {
    /// An event count (hits, misses, retries, ...).
    Count(u64),
    /// An accumulated duration in seconds (exact bits matter: the wire
    /// codec ships the IEEE-754 pattern).
    Seconds(f64),
    /// A short state label (e.g. a breaker's `"closed"`).
    Text(String),
}

/// One named field of a ledger snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct LedgerField {
    /// Stable machine-readable key (`"cache_hits"`, `"retries"`, ...).
    pub key: &'static str,
    /// The value at snapshot time.
    pub value: LedgerValue,
    /// Whether this field belongs in the CLI's flat `--format json`
    /// object. The flat schema predates this trait and is pinned by the
    /// CLI tests, so it stays a curated subset; the wire `Stats` reply
    /// ships every field regardless.
    pub in_flat_json: bool,
}

impl LedgerField {
    fn count(key: &'static str, v: usize, in_flat_json: bool) -> LedgerField {
        LedgerField {
            key,
            value: LedgerValue::Count(v as u64),
            in_flat_json,
        }
    }

    fn seconds(key: &'static str, v: f64) -> LedgerField {
        LedgerField {
            key,
            value: LedgerValue::Seconds(v),
            in_flat_json: false,
        }
    }

    fn text(key: &'static str, v: String) -> LedgerField {
        LedgerField {
            key,
            value: LedgerValue::Text(v),
            in_flat_json: false,
        }
    }
}

/// The shared render surface of one stack ledger — see the module docs.
pub trait Ledger {
    /// Stable short name of this ledger (`"memoize"`, `"store"`, ...).
    fn ledger_name(&self) -> &'static str;

    /// Every field of the snapshot, in canonical order.
    fn fields(&self) -> Vec<LedgerField>;

    /// The canonical one-line text rendering — exactly what the CLI
    /// prints for this ledger.
    fn summary(&self) -> String;
}

/// The flat-JSON fragment of one ledger: every field flagged
/// `in_flat_json`, rendered as `,"key":value` pairs (leading commas
/// included) ready to splice into the CLI's single-object output.
pub fn flat_json_fields(ledger: &dyn Ledger) -> String {
    let mut out = String::new();
    for f in ledger.fields() {
        if !f.in_flat_json {
            continue;
        }
        match &f.value {
            LedgerValue::Count(n) => out.push_str(&format!(",\"{}\":{}", f.key, n)),
            LedgerValue::Seconds(x) => out.push_str(&format!(",\"{}\":{}", f.key, x)),
            LedgerValue::Text(s) => out.push_str(&format!(",\"{}\":\"{}\"", f.key, s)),
        }
    }
    out
}

impl Ledger for CacheStats {
    fn ledger_name(&self) -> &'static str {
        "memoize"
    }

    fn fields(&self) -> Vec<LedgerField> {
        vec![
            LedgerField::count("cache_hits", self.hits, true),
            LedgerField::count("cache_misses", self.misses, true),
        ]
    }

    fn summary(&self) -> String {
        format!(
            "memoize: {} hits / {} misses ({:.1}% hit rate)",
            self.hits,
            self.misses,
            self.hit_rate() * 100.0
        )
    }
}

impl Ledger for InternStats {
    fn ledger_name(&self) -> &'static str {
        "structural"
    }

    fn fields(&self) -> Vec<LedgerField> {
        vec![
            LedgerField::count("distinct_structures", self.distinct, true),
            LedgerField::count("structural_lookups", self.lookups, false),
        ]
    }

    fn summary(&self) -> String {
        format!(
            "structural keys: {} distinct structures over {} lookups ({:.1}% reuse)",
            self.distinct,
            self.lookups,
            self.reuse_rate() * 100.0
        )
    }
}

impl Ledger for PersistStats {
    fn ledger_name(&self) -> &'static str {
        "store"
    }

    fn fields(&self) -> Vec<LedgerField> {
        vec![
            LedgerField::count("store_disk_hits", self.disk_hits, true),
            LedgerField::count("store_disk_misses", self.disk_misses, true),
            LedgerField::count("store_writes", self.writes, true),
            LedgerField::count("store_write_errors", self.write_errors, false),
            LedgerField::count("store_corrupt_recovered", self.corrupt_recovered, false),
        ]
    }

    fn summary(&self) -> String {
        let mut line = format!(
            "store: {} disk hits / {} disk misses ({:.1}% served from disk), {} written",
            self.disk_hits,
            self.disk_misses,
            self.disk_served_rate() * 100.0,
            self.writes
        );
        if self.corrupt_recovered > 0 {
            line.push_str(&format!(", {} corrupt recovered", self.corrupt_recovered));
        }
        if self.write_errors > 0 {
            line.push_str(&format!(", {} write errors", self.write_errors));
        }
        line
    }
}

impl Ledger for BatchStats {
    fn ledger_name(&self) -> &'static str {
        "dispatch"
    }

    fn fields(&self) -> Vec<LedgerField> {
        vec![
            LedgerField::count("batches", self.batches, false),
            LedgerField::count("dispatched", self.dispatched, false),
            LedgerField::count("inline", self.inline, false),
            LedgerField::count("chunks", self.chunks, false),
        ]
    }

    fn summary(&self) -> String {
        format!(
            "dispatch: {} batches ({} fanned out, {} inline), {} pool tasks",
            self.batches, self.dispatched, self.inline, self.chunks
        )
    }
}

impl Ledger for ServiceMetrics {
    fn ledger_name(&self) -> &'static str {
        "service"
    }

    fn fields(&self) -> Vec<LedgerField> {
        vec![
            LedgerField::count("queries", self.queries, false),
            LedgerField::count("batches", self.batches, false),
            LedgerField::count("errors", self.errors, false),
            LedgerField::seconds("served_seconds", self.served_seconds),
        ]
    }

    fn summary(&self) -> String {
        format!(
            "service: {} queries in {} batches ({} errors), {:.3} served seconds",
            self.queries, self.batches, self.errors, self.served_seconds
        )
    }
}

impl Ledger for FallbackStats {
    fn ledger_name(&self) -> &'static str {
        "fallback"
    }

    fn fields(&self) -> Vec<LedgerField> {
        vec![
            LedgerField::count("primary_served", self.primary_served, false),
            LedgerField::count("fallback_served", self.fallback_served, false),
        ]
    }

    fn summary(&self) -> String {
        format!(
            "fallback: {} primary / {} fallback served",
            self.primary_served, self.fallback_served
        )
    }
}

impl Ledger for FaultStats {
    fn ledger_name(&self) -> &'static str {
        "faults"
    }

    fn fields(&self) -> Vec<LedgerField> {
        vec![
            LedgerField::count("injected_faults", self.injected_errors, true),
            LedgerField::count("fault_passed", self.passed, false),
        ]
    }

    fn summary(&self) -> String {
        format!(
            "faults: {} injected, {} passed",
            self.injected_errors, self.passed
        )
    }
}

impl Ledger for RetryStats {
    fn ledger_name(&self) -> &'static str {
        "retry"
    }

    fn fields(&self) -> Vec<LedgerField> {
        vec![
            LedgerField::count("retries", self.retries, true),
            LedgerField::count("recovered", self.recovered, true),
            LedgerField::count("retry_exhausted", self.exhausted, false),
            LedgerField::count("retry_permanent_failures", self.permanent_failures, false),
            LedgerField::seconds("backoff_seconds", self.backoff_seconds),
        ]
    }

    fn summary(&self) -> String {
        format!(
            "retry: {} re-attempts, {} recovered, {} exhausted, \
             {:.3} s backoff (accounted)",
            self.retries, self.recovered, self.exhausted, self.backoff_seconds
        )
    }
}

impl Ledger for DeadlineStats {
    fn ledger_name(&self) -> &'static str {
        "deadline"
    }

    fn fields(&self) -> Vec<LedgerField> {
        vec![
            LedgerField::count("deadline_overruns", self.query_overruns, true),
            LedgerField::count("deadline_served", self.served, false),
        ]
    }

    fn summary(&self) -> String {
        format!(
            "deadline: {} overruns / {} served",
            self.query_overruns, self.served
        )
    }
}

impl Ledger for BreakerStats {
    fn ledger_name(&self) -> &'static str {
        "breaker"
    }

    fn fields(&self) -> Vec<LedgerField> {
        vec![
            LedgerField::text("breaker_state", self.state.to_string()),
            LedgerField::count("breaker_opened", self.opened, false),
            LedgerField::count("breaker_half_opened", self.half_opened, false),
            LedgerField::count("breaker_closed", self.closed, false),
            LedgerField::count("breaker_rejected", self.rejected, false),
        ]
    }

    fn summary(&self) -> String {
        format!(
            "breaker: {}, {} opened, {} rejected",
            self.state, self.opened, self.rejected
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summaries_render_the_pinned_cli_lines() {
        let cache = CacheStats { hits: 6, misses: 6 };
        assert_eq!(
            cache.summary(),
            "memoize: 6 hits / 6 misses (50.0% hit rate)"
        );

        let persist = PersistStats {
            disk_hits: 3,
            disk_misses: 1,
            writes: 1,
            write_errors: 0,
            corrupt_recovered: 0,
        };
        assert_eq!(
            persist.summary(),
            "store: 3 disk hits / 1 disk misses (75.0% served from disk), 1 written"
        );
        let damaged = PersistStats {
            corrupt_recovered: 2,
            write_errors: 1,
            ..persist
        };
        assert!(damaged
            .summary()
            .ends_with(", 2 corrupt recovered, 1 write errors"));

        let deadline = DeadlineStats {
            query_overruns: 3,
            served: 9,
        };
        assert_eq!(deadline.summary(), "deadline: 3 overruns / 9 served");
    }

    #[test]
    fn flat_json_is_the_curated_subset() {
        let cache = CacheStats { hits: 2, misses: 3 };
        assert_eq!(
            flat_json_fields(&cache),
            ",\"cache_hits\":2,\"cache_misses\":3"
        );

        let interner = InternStats {
            lookups: 10,
            distinct: 4,
        };
        // lookups is wire-only; the flat object has always carried the
        // distinct count alone
        assert_eq!(flat_json_fields(&interner), ",\"distinct_structures\":4");

        let persist = PersistStats {
            disk_hits: 1,
            disk_misses: 2,
            writes: 2,
            write_errors: 5,
            corrupt_recovered: 5,
        };
        assert_eq!(
            flat_json_fields(&persist),
            ",\"store_disk_hits\":1,\"store_disk_misses\":2,\"store_writes\":2"
        );

        let retry = RetryStats {
            retries: 7,
            recovered: 6,
            exhausted: 1,
            permanent_failures: 0,
            backoff_seconds: 1.25,
        };
        assert_eq!(flat_json_fields(&retry), ",\"retries\":7,\"recovered\":6");

        // breaker fields are wire/text-only
        let breaker = BreakerStats::default();
        assert_eq!(flat_json_fields(&breaker), "");
    }

    #[test]
    fn every_ledger_names_itself_and_reports_fields() {
        let ledgers: Vec<Box<dyn Ledger>> = vec![
            Box::new(CacheStats::default()),
            Box::new(InternStats {
                lookups: 0,
                distinct: 0,
            }),
            Box::new(PersistStats::default()),
            Box::new(BatchStats::default()),
            Box::new(ServiceMetrics::default()),
            Box::new(FallbackStats::default()),
            Box::new(FaultStats::default()),
            Box::new(RetryStats::default()),
            Box::new(DeadlineStats::default()),
            Box::new(BreakerStats::default()),
        ];
        let mut names = Vec::new();
        for l in &ledgers {
            assert!(!l.fields().is_empty(), "{} has no fields", l.ledger_name());
            assert!(
                l.summary().starts_with(l.ledger_name())
                    || l.ledger_name() == "memoize"
                    || l.ledger_name() == "structural",
                "{} summary does not lead with its name: {}",
                l.ledger_name(),
                l.summary()
            );
            names.push(l.ledger_name());
        }
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "ledger names must be unique");
    }
}
