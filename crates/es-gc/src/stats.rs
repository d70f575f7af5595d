//! Collection statistics, used by the E4 experiment ("garbage collection
//! takes roughly 4% of the running time of the shell").

use std::time::Duration;

/// Counters accumulated by a [`crate::Heap`] over its lifetime.
///
/// The interesting derived quantity for experiment E4 is
/// [`GcStats::pause_fraction`]: the share of total elapsed time spent
/// inside the collector.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GcStats {
    /// Number of completed collections.
    pub collections: u64,
    /// Total objects allocated since heap creation.
    pub allocated: u64,
    /// Total objects copied by all collections (live at collection time).
    pub copied: u64,
    /// Total text bytes (string contents and binding names) copied by
    /// all collections: the part of a collection's cost that scales
    /// with live bytes rather than live objects.
    pub bytes_copied: u64,
    /// Objects live after the most recent collection.
    pub live_after_last: u64,
    /// Allocations that happened while collection was disabled.
    pub disabled_allocs: u64,
    /// Extra chunks grabbed because an allocation arrived while the
    /// collector was disabled and the space was exhausted (the paper's
    /// "a new chunk of memory is grabbed so that allocation can
    /// continue").
    pub chunks_grabbed: u64,
    /// Collections after which the live objects alone filled the
    /// space, so the collection threshold doubled for the collections
    /// to come. Nothing is redone: the young space grows as it fills.
    pub grows: u64,
    /// Collections forced by [`crate::Heap::enforce_budget`] — the
    /// resource governor collects before declaring a heap limit
    /// breached, so only *live* objects count against the budget.
    pub budget_collections: u64,
    /// Wall-clock time spent inside the collector.
    pub pause_total: Duration,
    /// Longest single collection pause.
    pub pause_max: Duration,
}

impl GcStats {
    /// Returns the fraction of `elapsed` spent in collection pauses.
    ///
    /// # Examples
    ///
    /// ```
    /// use es_gc::GcStats;
    /// use std::time::Duration;
    ///
    /// let mut s = GcStats::default();
    /// s.pause_total = Duration::from_millis(40);
    /// assert!((s.pause_fraction(Duration::from_secs(1)) - 0.04).abs() < 1e-9);
    /// ```
    pub fn pause_fraction(&self, elapsed: Duration) -> f64 {
        if elapsed.is_zero() {
            return 0.0;
        }
        self.pause_total.as_secs_f64() / elapsed.as_secs_f64()
    }

    /// Average number of objects copied per collection, or 0.0 if no
    /// collection has run.
    pub fn avg_copied(&self) -> f64 {
        if self.collections == 0 {
            0.0
        } else {
            self.copied as f64 / self.collections as f64
        }
    }

    /// Fraction of all allocated objects that were still live at some
    /// collection (a proxy for the paper's observation that "between
    /// two separate commands little memory is preserved").
    pub fn survival_rate(&self) -> f64 {
        if self.allocated == 0 {
            0.0
        } else {
            self.copied as f64 / self.allocated as f64
        }
    }
}
