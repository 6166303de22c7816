//! Counters and histograms for experiment measurement.
//!
//! Nodes record observations through [`crate::Outbox`]; harnesses read them
//! back through [`MetricsRegistry`] and render tables for EXPERIMENTS.md.

use crate::hash::FnvHashMap;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::OnceLock;

/// A set of recorded samples with percentile queries.
///
/// Quantile queries sort the samples once into a cached view that is
/// invalidated by [`record`](Histogram::record)/[`merge`](Histogram::merge);
/// harnesses that poll [`summary`](Histogram::summary) per slice pay the
/// sort only when new samples arrived, not per call. (The seed version
/// cloned and re-sorted the full sample vector on every call — quadratic
/// under per-slice polling.)
///
/// # Example
///
/// ```
/// use gloss_sim::Histogram;
/// let mut h = Histogram::new();
/// for v in [1.0, 2.0, 3.0, 4.0] {
///     h.record(v);
/// }
/// assert_eq!(h.summary().count, 4);
/// assert!((h.summary().mean - 2.5).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    samples: Vec<f64>,
    /// Memoised ascending sample view + summary, cleared by the `&mut`
    /// mutation paths (so queries stay `&self`).
    cache: OnceLock<(Vec<f64>, Summary)>,
}

/// Summary statistics of a [`Histogram`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean (0 when empty).
    pub mean: f64,
    /// Minimum (0 when empty).
    pub min: f64,
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Maximum (0 when empty).
    pub max: f64,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one sample. Non-finite values are ignored.
    pub fn record(&mut self, value: f64) {
        if value.is_finite() {
            self.samples.push(value);
            self.cache.take();
        }
    }

    /// Number of samples recorded.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The raw samples, in insertion order.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Merges another histogram's samples into this one.
    pub fn merge(&mut self, other: &Histogram) {
        if !other.samples.is_empty() {
            self.samples.extend_from_slice(&other.samples);
            self.cache.take();
        }
    }

    /// The ascending sample view + summary, (re)built if samples arrived
    /// since the last query.
    fn cached(&self) -> &(Vec<f64>, Summary) {
        self.cache.get_or_init(|| {
            let mut sorted = self.samples.clone();
            sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
            let count = sorted.len();
            let mean = sorted.iter().sum::<f64>() / count as f64;
            let at = |q: f64| sorted[((q * (count - 1) as f64).round() as usize).min(count - 1)];
            let summary = Summary {
                count,
                mean,
                min: sorted[0],
                p50: at(0.5),
                p90: at(0.9),
                p99: at(0.99),
                max: sorted[count - 1],
            };
            (sorted, summary)
        })
    }

    /// The value at quantile `q` in `[0, 1]` (nearest-rank).
    #[cfg(test)]
    pub(crate) fn quantile(&self, q: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let (sorted, _) = self.cached();
        let rank = ((q.clamp(0.0, 1.0)) * (sorted.len() - 1) as f64).round() as usize;
        sorted[rank]
    }

    /// Computes summary statistics.
    ///
    /// All statistics (including the mean, summed over the ascending
    /// view) are functions of the sample *multiset*, so summaries are
    /// identical regardless of recording order or of the order in which
    /// histograms are combined with [`merge`](Self::merge).
    pub fn summary(&self) -> Summary {
        if self.samples.is_empty() {
            return Summary::default();
        }
        self.cached().1
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.3} p50={:.3} p90={:.3} p99={:.3} max={:.3}",
            self.count, self.mean, self.p50, self.p90, self.p99, self.max
        )
    }
}

/// A counter's slot in its [`MetricsRegistry`]: adding through it is an
/// array add, with no name lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(usize);

/// Named counters and histograms for one simulation run.
///
/// Every counter lives in one slot table: a name's slot is found by
/// hashing it once, and a [`CounterId`] is that slot, so a counter added
/// through its handle and by name is the same cell.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    /// Each counter's slot in `values`, by name.
    slots: FnvHashMap<String, CounterId>,
    /// Counter values, by slot.
    values: Vec<f64>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// The named counter's handle, creating the counter at zero.
    /// Registration is idempotent per name, and a value counted by name
    /// before it stays.
    pub fn register_counter(&mut self, name: &str) -> CounterId {
        if let Some(&id) = self.slots.get(name) {
            return id;
        }
        let id = CounterId(self.values.len());
        self.values.push(0.0);
        self.slots.insert(name.to_string(), id);
        id
    }

    /// Adds `by` to the counter behind `id`.
    pub fn add(&mut self, id: CounterId, by: f64) {
        self.values[id.0] += by;
    }

    /// Adds `by` to the named counter (creating it at zero).
    pub fn inc(&mut self, name: &str, by: f64) {
        let id = self.register_counter(name);
        self.add(id, by);
    }

    /// Reads a counter; missing counters read as zero.
    pub fn counter(&self, name: &str) -> f64 {
        self.slots.get(name).map_or(0.0, |id| self.values[id.0])
    }

    /// Records a sample in the named histogram (creating it if needed).
    pub fn observe(&mut self, name: &str, value: f64) {
        if let Some(h) = self.histograms.get_mut(name) {
            h.record(value);
        } else {
            self.histograms.entry(name.to_string()).or_default().record(value);
        }
    }

    /// The named histogram, if any samples were recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Summary of the named histogram (default summary when absent).
    pub fn summary(&self, name: &str) -> Summary {
        self.histograms.get(name).map(|h| h.summary()).unwrap_or_default()
    }

    /// All counter names, sorted.
    pub fn counter_names(&self) -> impl Iterator<Item = &str> {
        let mut names: Vec<&str> = self.slots.keys().map(String::as_str).collect();
        names.sort_unstable();
        names.into_iter()
    }

    /// Merges another registry into this one.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for name in other.counter_names() {
            self.inc(name, other.counter(name));
        }
        for (k, h) in &other.histograms {
            self.histograms.entry(k.clone()).or_default().merge(h);
        }
    }

    /// Renders all metrics as an aligned text table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for name in self.counter_names() {
            out.push_str(&format!("{name:<40} {}\n", self.counter(name)));
        }
        for (name, h) in &self.histograms {
            out.push_str(&format!("{name:<40} {}\n", h.summary()));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_summary_is_zero() {
        let h = Histogram::new();
        let s = h.summary();
        assert_eq!(s.count, 0);
        assert_eq!(s.mean, 0.0);
        assert_eq!(h.quantile(0.5), 0.0);
    }

    #[test]
    fn percentiles_on_known_data() {
        let mut h = Histogram::new();
        for v in 1..=100 {
            h.record(v as f64);
        }
        let s = h.summary();
        assert_eq!(s.count, 100);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 100.0);
        assert!((s.p50 - 51.0).abs() <= 1.0, "p50 {}", s.p50);
        assert!((s.p90 - 90.0).abs() <= 1.0, "p90 {}", s.p90);
        assert!((s.p99 - 99.0).abs() <= 1.0, "p99 {}", s.p99);
    }

    #[test]
    fn non_finite_samples_ignored() {
        let mut h = Histogram::new();
        h.record(f64::NAN);
        h.record(f64::INFINITY);
        h.record(1.0);
        assert_eq!(h.len(), 1);
    }

    #[test]
    fn repeated_summaries_are_identical_and_track_invalidation() {
        let mut h = Histogram::new();
        for v in [5.0, 1.0, 9.0, 3.0, 7.0] {
            h.record(v);
        }
        // Polling without new samples returns the exact same summary
        // (served from the cached sorted view).
        let first = h.summary();
        for _ in 0..100 {
            assert_eq!(h.summary(), first);
            assert_eq!(h.quantile(0.5), first.p50);
        }
        // Interleaved records invalidate the cache: every summary must
        // match a freshly-built histogram over the same samples.
        for v in [2.0, 8.0, 0.5, 4.0] {
            h.record(v);
            let mut fresh = Histogram::new();
            for &s in h.samples() {
                fresh.record(s);
            }
            assert_eq!(h.summary(), fresh.summary());
            assert_eq!(h.quantile(0.9), fresh.quantile(0.9));
        }
        // Merge invalidates too.
        let mut other = Histogram::new();
        other.record(100.0);
        h.merge(&other);
        assert_eq!(h.summary().max, 100.0);
    }

    #[test]
    fn summary_is_recording_order_independent() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let vals = [0.1, 2.7, 1e-3, 55.0, 3.3, 0.2, 8.8];
        for &v in &vals {
            a.record(v);
        }
        for &v in vals.iter().rev() {
            b.record(v);
        }
        assert_eq!(a.summary(), b.summary());
    }

    #[test]
    fn merge_combines_samples() {
        let mut a = Histogram::new();
        a.record(1.0);
        let mut b = Histogram::new();
        b.record(3.0);
        a.merge(&b);
        assert_eq!(a.len(), 2);
        assert!((a.summary().mean - 2.0).abs() < 1e-9);
    }

    #[test]
    fn registry_counters() {
        let mut r = MetricsRegistry::new();
        r.inc("x", 2.0);
        r.inc("x", 3.0);
        assert_eq!(r.counter("x"), 5.0);
        assert_eq!(r.counter("missing"), 0.0);
    }

    #[test]
    fn registered_counters_share_the_namespace() {
        let mut r = MetricsRegistry::new();
        // Values accumulated before registration carry over.
        r.inc("hot", 2.0);
        let id = r.register_counter("hot");
        r.add(id, 3.0);
        // And the slow path keeps hitting the same cell afterwards.
        r.inc("hot", 1.0);
        assert_eq!(r.counter("hot"), 6.0);
        // Registration is idempotent, and the name has one slot.
        assert_eq!(r.register_counter("hot"), id);
        r.inc("cold", 1.0);
        assert_eq!(r.values.len(), 2);
        assert_eq!(r.counter_names().collect::<Vec<_>>(), ["cold", "hot"]);
        assert!(r.render().contains("hot"));
    }

    #[test]
    fn registry_merge() {
        let mut a = MetricsRegistry::new();
        a.inc("c", 1.0);
        a.observe("h", 1.0);
        let mut b = MetricsRegistry::new();
        b.inc("c", 2.0);
        b.observe("h", 3.0);
        a.merge(&b);
        assert_eq!(a.counter("c"), 3.0);
        assert_eq!(a.summary("h").count, 2);
    }

    #[test]
    fn render_contains_names() {
        let mut r = MetricsRegistry::new();
        r.inc("alpha", 1.0);
        r.observe("beta", 2.0);
        let s = r.render();
        assert!(s.contains("alpha"));
        assert!(s.contains("beta"));
    }
}
