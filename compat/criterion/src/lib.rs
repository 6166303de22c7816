//! Offline stand-in for the `criterion` crate.
//!
//! Benches written against the real criterion API (`criterion_group!`,
//! `criterion_main!`, `Criterion::bench_function`, `Bencher::iter`,
//! `iter_batched`) compile and run against this harness. Instead of
//! criterion's statistical machinery it times a calibrated batch of
//! iterations with `Instant` and prints one mean-per-iteration line per
//! benchmark — enough to compare hot paths between commits.
//!
//! Extras over plain printing:
//!
//! - positional CLI arguments (after `cargo bench ... --`) are substring
//!   filters: only matching benchmarks run;
//! - `GLOSS_BENCH_SMOKE=1` clamps measurement to a few milliseconds per
//!   benchmark so CI can *execute* every bench without paying for
//!   stable numbers.

use std::fmt;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// How `iter_batched` amortises setup; accepted and ignored beyond
/// batching granularity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    SmallInput,
    LargeInput,
    PerIteration,
}

/// Identifier for parameterised benchmarks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    pub fn new(function_name: impl Into<String>, parameter: impl fmt::Display) -> Self {
        BenchmarkId { id: format!("{}/{}", function_name.into(), parameter) }
    }

    pub fn from_parameter(parameter: impl fmt::Display) -> Self {
        BenchmarkId { id: parameter.to_string() }
    }
}

impl fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.id)
    }
}

/// The per-benchmark measurement driver handed to the bench closure.
pub struct Bencher<'a> {
    measurement_time: Duration,
    warm_up_time: Duration,
    elapsed: Duration,
    iterations: u64,
    _criterion: &'a (),
}

impl Bencher<'_> {
    /// Times repeated calls of `routine`.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        // Warm-up: run untimed until the warm-up budget is spent.
        let warm_start = Instant::now();
        while warm_start.elapsed() < self.warm_up_time {
            black_box(routine());
        }
        let start = Instant::now();
        let mut iterations = 0u64;
        while start.elapsed() < self.measurement_time {
            black_box(routine());
            iterations += 1;
        }
        self.elapsed = start.elapsed();
        self.iterations = iterations.max(1);
    }

    /// Times `routine` over inputs produced by `setup`, excluding setup
    /// cost from the measurement.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        let warm_start = Instant::now();
        while warm_start.elapsed() < self.warm_up_time {
            let input = setup();
            black_box(routine(input));
        }
        let mut measured = Duration::ZERO;
        let mut iterations = 0u64;
        while measured < self.measurement_time {
            let input = setup();
            let start = Instant::now();
            black_box(routine(input));
            measured += start.elapsed();
            iterations += 1;
        }
        self.elapsed = measured;
        self.iterations = iterations.max(1);
    }
}

/// Entry point mirroring `criterion::Criterion`.
pub struct Criterion {
    measurement_time: Duration,
    warm_up_time: Duration,
    sample_size: usize,
    /// Substring filters from the CLI; empty means run everything.
    filters: Vec<String>,
    /// Clamp budgets so benches only prove they execute.
    smoke: bool,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            measurement_time: Duration::from_millis(200),
            warm_up_time: Duration::from_millis(20),
            sample_size: 10,
            filters: Vec::new(),
            smoke: std::env::var("GLOSS_BENCH_SMOKE").is_ok_and(|v| v != "0"),
        }
    }
}

impl Criterion {
    /// Adopts positional CLI arguments as benchmark name filters
    /// (mirroring real criterion's `configure_from_args`). Called by
    /// `criterion_main!`-driven groups — NOT by `default()`, so
    /// constructing a `Criterion` inside a test binary never picks up
    /// libtest's filter arguments. Flag-style arguments (`-…`) are
    /// ignored; a value following a flag is treated as a filter, so
    /// prefer `cargo bench -- <substring>` without extra flags.
    pub fn configure_from_args(mut self) -> Self {
        self.filters = std::env::args().skip(1).filter(|a| !a.starts_with('-')).collect();
        self
    }

    pub fn sample_size(mut self, n: usize) -> Self {
        self.sample_size = n.max(1);
        self
    }

    pub fn measurement_time(mut self, t: Duration) -> Self {
        self.measurement_time = t;
        self
    }

    pub fn warm_up_time(mut self, t: Duration) -> Self {
        self.warm_up_time = t;
        self
    }

    /// Runs one benchmark and prints its mean time per iteration.
    pub fn bench_function<F>(&mut self, name: &str, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher<'_>),
    {
        if !self.filters.is_empty() && !self.filters.iter().any(|flt| name.contains(flt.as_str())) {
            return self;
        }
        // Spread the measurement budget over the configured samples so a
        // `measurement_time` tuned for real criterion keeps total runtime
        // in the same ballpark here.
        let per_sample = self.measurement_time / self.sample_size as u32;
        let (measurement_time, warm_up_time) = if self.smoke {
            (Duration::from_millis(2), Duration::ZERO)
        } else {
            (
                per_sample.max(Duration::from_millis(5)),
                self.warm_up_time.min(Duration::from_millis(50)),
            )
        };
        let unit = ();
        let mut bencher = Bencher {
            measurement_time,
            warm_up_time,
            elapsed: Duration::ZERO,
            iterations: 0,
            _criterion: &unit,
        };
        f(&mut bencher);
        if bencher.iterations == 0 {
            println!("{name:<40} (no measurement: bencher closure never called iter)");
            return self;
        }
        let nanos = bencher.elapsed.as_nanos() as f64 / bencher.iterations as f64;
        println!(
            "{name:<40} {:>12} / iter ({} iterations)",
            format_nanos(nanos),
            bencher.iterations
        );
        self
    }

    pub fn bench_with_input<F, I: ?Sized>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher<'_>, &I),
    {
        let name = id.to_string();
        self.bench_function(&name, |b| f(b, input))
    }

    /// Compatibility no-op (criterion finalises reports here).
    pub fn final_summary(&mut self) {}
}

fn format_nanos(nanos: f64) -> String {
    if nanos < 1_000.0 {
        format!("{nanos:.1} ns")
    } else if nanos < 1_000_000.0 {
        format!("{:.2} µs", nanos / 1_000.0)
    } else if nanos < 1_000_000_000.0 {
        format!("{:.2} ms", nanos / 1_000_000.0)
    } else {
        format!("{:.2} s", nanos / 1_000_000_000.0)
    }
}

/// Declares a group of benchmark functions, mirroring criterion's macro.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion: $crate::Criterion = $config;
            criterion = criterion.configure_from_args();
            $(
                $target(&mut criterion);
            )+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group!(
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        );
    };
}

/// Declares the bench binary's `main`, mirroring criterion's macro.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $(
                $group();
            )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_measures_something() {
        let mut c = Criterion::default()
            .sample_size(2)
            .measurement_time(Duration::from_millis(10))
            .warm_up_time(Duration::from_millis(1));
        let mut total = 0u64;
        c.bench_function("spin", |b| {
            b.iter(|| {
                total = total.wrapping_add(1);
                total
            })
        });
        assert!(total > 0);
    }

    #[test]
    fn iter_batched_excludes_setup() {
        let mut c = Criterion::default()
            .sample_size(2)
            .measurement_time(Duration::from_millis(10))
            .warm_up_time(Duration::from_millis(1));
        c.bench_function("batched", |b| {
            b.iter_batched(|| vec![1u8; 64], |v| v.len(), BatchSize::SmallInput)
        });
    }

    #[test]
    fn format_scales() {
        assert!(format_nanos(12.3).ends_with("ns"));
        assert!(format_nanos(12_300.0).ends_with("µs"));
        assert!(format_nanos(12_300_000.0).ends_with("ms"));
    }
}
