//! The content-addressed result cache.
//!
//! Keys come from [`crate::key::RunSpec::cache_key`]; values are the
//! completed job outcomes (report text plus the bench row). The cache
//! is unbounded by design: outcomes are a few kilobytes of text, and a
//! server's working set is the experiment matrix — finite and small.
//! Hit/miss counters live here so the server's `STATS` reply can prove
//! dedup claims ("N identical submissions simulated once") directly
//! from the cache's own accounting.

use capstan_bench::gate::BenchEntry;
use std::collections::HashMap;
use std::sync::Arc;

/// A completed job: what the cache stores and clients receive.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct JobOutcome {
    /// The bench-record row (name includes the record-group suffix).
    pub(crate) row: BenchEntry,
    /// The experiment's exact report text — byte-identical to a direct
    /// `experiments` invocation's stdout for this experiment.
    pub(crate) report: String,
}

/// Content-addressed map from cache key to completed outcome, with
/// hit/miss accounting.
#[derive(Debug, Default)]
pub(crate) struct ResultCache {
    map: HashMap<u64, Arc<JobOutcome>>,
    hits: u64,
    misses: u64,
}

impl ResultCache {
    /// Looks up a completed outcome, counting a hit when present.
    /// Absence is *not* counted here — a missing key may coalesce onto
    /// an in-flight job rather than start a new one; the server calls
    /// [`record_miss`](Self::record_miss) only when it actually
    /// enqueues fresh work.
    pub(crate) fn lookup(&mut self, key: u64) -> Option<Arc<JobOutcome>> {
        let found = self.map.get(&key).cloned();
        if found.is_some() {
            self.hits += 1;
        }
        found
    }

    /// Counts one miss: a request that no cached or in-flight job could
    /// serve, i.e. work actually reaching a core.
    pub(crate) fn record_miss(&mut self) {
        self.misses += 1;
    }

    /// Stores a completed outcome.
    pub(crate) fn insert(&mut self, key: u64, outcome: Arc<JobOutcome>) {
        self.map.insert(key, outcome);
    }

    /// Cache hits so far.
    pub(crate) fn hits(&self) -> u64 {
        self.hits
    }

    /// Recorded misses so far.
    pub(crate) fn misses(&self) -> u64 {
        self.misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(name: &str) -> Arc<JobOutcome> {
        Arc::new(JobOutcome {
            row: BenchEntry {
                name: name.to_string(),
                wall_seconds: 0.5,
                simulated_cycles: 42,
                cycles_per_second: 84.0,
            },
            report: format!("{name} report\n"),
        })
    }

    #[test]
    fn lookup_counts_hits_but_not_absences() {
        let mut cache = ResultCache::default();
        assert!(cache.lookup(7).is_none());
        assert_eq!((cache.hits(), cache.misses()), (0, 0));
        cache.record_miss();
        cache.insert(7, outcome("fig4"));
        assert_eq!(cache.lookup(7).unwrap().row.simulated_cycles, 42);
        assert!(cache.lookup(8).is_none());
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
    }
}
