//! `e2e`: the end-to-end benchmark of the active architecture —
//! sensor → broker → matchlet → knowledge → UI — on four workloads, with
//! per-layer attribution. See `README.md` beside this file for the metric
//! catalogue and how to read the output.
//!
//! ```text
//! e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>   one driver run (JSON last)
//! e2e [--seed <n>] [--trace 1] [--spans <dir>]                   all four workloads, tables
//! e2e --smoke                                                    all four at 1/20 scale, schema check
//! e2e selfcheck [--seed <n>]                                     run twice, hold the bounds
//! e2e manifest                                                   print BENCHMARK.json
//! e2e catalog                                                    print the README's metric tables
//! ```

mod alloc;
mod catalog;
mod control;
mod drive;
mod estimate;
mod measure;
mod oracle;
mod replay;
mod trace;
mod workload;

use catalog::{Clock, Metric, END_TO_END, PER_LAYER, RUN_SECONDS};
use measure::Outcome;
use std::path::PathBuf;
use std::process::ExitCode;
use workload::{Size, Workload};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Why the benchmark refuses to report: the program's outputs diverged
/// from the reference, or a run was not reproducible.
#[derive(Debug)]
pub struct Failure(pub String);

#[derive(Debug)]
struct Args {
    command: Option<String>,
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: Option<PathBuf>,
    smoke: bool,
}

fn parse_args(argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        command: None,
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: false,
        spans: None,
        smoke: false,
    };
    let mut argv = argv.peekable();
    if argv.peek().is_some_and(|a| !a.starts_with("--")) {
        args.command = argv.next();
    }
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload = Some(
                    Workload::from_name(&name)
                        .ok_or_else(|| format!("unknown workload `{name}`"))?,
                );
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=600.0).contains(&args.seconds) {
                    return Err("--seconds must be within 0..=600".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--spans" => args.spans = Some(PathBuf::from(value()?)),
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn json_number(v: f64) -> String {
    // Display prints the shortest digits that round-trip, never an
    // exponent; a non-finite value has no JSON form.
    assert!(v.is_finite(), "metric value {v} is not a number");
    format!("{v}")
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name).map_or("", |m| m.unit)
}

/// The driver's result line.
fn result_json(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|(name, v)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                json_number(*v),
                unit_of(name)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct,
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}

fn clock_str(c: Clock) -> &'static str {
    match c {
        Clock::Sim => "sim",
        Clock::Host => "host",
        Clock::Exact => "exact",
    }
}

fn print_table(workload: Workload, seed: u64, defs: &[Metric], o: &Outcome) {
    println!(
        "## {} seed {seed}: sim_digest {:016x}, {} attempted, {} failed, {} timed repetitions",
        workload.name(),
        o.sim_digest,
        o.attempted,
        o.failed,
        o.reps
    );
    for (m, (name, value)) in defs.iter().zip(&o.metrics) {
        let note = o.notes.get(name).map_or(String::new(), |n| format!("  ({n})"));
        println!("{name:<28} {value:>16.4} {:<6} {:<5}{note}", m.unit, clock_str(m.clock));
    }
    for line in &o.diverged {
        println!("DIVERGED {line}");
    }
}

/// Checks that an outcome carries every catalogued metric, in order,
/// finite — and, end to end, never zero.
fn check_schema(defs: &[Metric], o: &Outcome, nonzero: bool) -> Result<(), Failure> {
    if o.metrics.len() != defs.len() {
        return Err(Failure(format!(
            "{} metrics reported, {} catalogued",
            o.metrics.len(),
            defs.len()
        )));
    }
    for (m, (name, value)) in defs.iter().zip(&o.metrics) {
        if m.name != *name {
            return Err(Failure(format!("metric `{name}` reported where `{}` belongs", m.name)));
        }
        if !value.is_finite() || (nonzero && *value == 0.0) {
            return Err(Failure(format!("metric `{name}` reads {value}")));
        }
    }
    Ok(())
}

/// How one workload is to be measured.
#[derive(Debug, Clone, Copy)]
struct Job<'a> {
    size: Size,
    seed: u64,
    seconds: f64,
    min_reps: usize,
    traced: bool,
    spans: Option<&'a std::path::Path>,
}

fn measure(workload: Workload, job: Job<'_>) -> Result<Outcome, Failure> {
    // `job.seconds` covers everything from here on: generating the
    // inputs and the reference too, not only the timed repetitions.
    let started = std::time::Instant::now();
    drive::pin_fact_source_width();
    let plan = workload::plan(workload, job.size, job.seed);
    let expected = oracle::expected(&plan);
    if job.traced {
        let o = measure::per_layer(&plan, &expected, started, job.seconds, job.spans)?;
        check_schema(PER_LAYER, &o, false)?;
        Ok(o)
    } else {
        let o = measure::end_to_end(&plan, &expected, started, job.seconds, job.min_reps)?;
        check_schema(END_TO_END, &o, true)?;
        Ok(o)
    }
}

fn fail_if_incorrect(workload: Workload, o: &Outcome) -> Result<(), Failure> {
    if o.correct {
        return Ok(());
    }
    Err(Failure(format!(
        "{}: {} of {} operations failed; first divergences: {:?}",
        workload.name(),
        o.failed,
        o.attempted,
        o.diverged
    )))
}

/// One workload at `size`, untraced then traced, each checked for the
/// full metric schema and against the reference.
fn smoke_one(w: Workload, size: Size, seed: u64, quiet: bool) -> Result<(), Failure> {
    for traced in [false, true] {
        let min_reps = if size == Size::Tiny { 1 } else { 2 };
        let job = Job { size, seed, seconds: 0.0, min_reps, traced, spans: None };
        let o = measure(w, job)?;
        if !quiet {
            print_table(w, seed, if traced { PER_LAYER } else { END_TO_END }, &o);
        }
        fail_if_incorrect(w, &o)?;
    }
    Ok(())
}

/// Runs the whole end-to-end benchmark twice, back to back, and holds
/// every metric of every workload to its bound: simulated and exact
/// numbers must be bit-equal, host numbers within the bound.
fn selfcheck(seed: u64, seconds: f64) -> Result<(), Failure> {
    let job = Job { size: Size::Full, seed, seconds, min_reps: 3, traced: false, spans: None };
    let mut runs: Vec<Vec<Outcome>> = Vec::new();
    for _ in 0..2 {
        let mut outcomes = Vec::new();
        for w in Workload::ALL {
            let o = measure(w, job)?;
            fail_if_incorrect(w, &o)?;
            outcomes.push(o);
        }
        runs.push(outcomes);
    }
    let mut disagreements = Vec::new();
    println!(
        "{:<20} {:<18} {:>16} {:>16} {:>9} {:>7}",
        "workload", "metric", "first", "second", "moved", "bound"
    );
    for (k, w) in Workload::ALL.iter().enumerate() {
        let (a, b) = (&runs[0][k], &runs[1][k]);
        if a.sim_digest != b.sim_digest {
            disagreements.push(format!(
                "{}: sim_digest {:016x} vs {:016x}",
                w.name(),
                a.sim_digest,
                b.sim_digest
            ));
        }
        for (m, ((_, x), (_, y))) in END_TO_END.iter().zip(a.metrics.iter().zip(&b.metrics)) {
            let moved = (y - x).abs() / x.abs();
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            let ok =
                if m.clock == Clock::Host { moved <= bound } else { x.to_bits() == y.to_bits() };
            println!(
                "{:<20} {:<18} {x:>16.4} {y:>16.4} {:>8.2}% {:>6.1}%{}",
                w.name(),
                m.name,
                moved * 100.0,
                bound * 100.0,
                if ok { "" } else { "  DISAGREES" }
            );
            if !ok {
                disagreements.push(format!("{} {}: {x} vs {y}", w.name(), m.name));
            }
        }
    }
    if disagreements.is_empty() {
        Ok(())
    } else {
        Err(Failure(format!("two runs of the same code disagree: {disagreements:?}")))
    }
}

fn run(args: Args) -> Result<(), Failure> {
    match args.command.as_deref() {
        Some("manifest") => {
            catalog::validate(&Workload::ALL, END_TO_END, PER_LAYER).map_err(Failure)?;
            print!("{}", catalog::manifest_json());
            return Ok(());
        }
        Some("catalog") => {
            print!("{}", catalog::markdown());
            return Ok(());
        }
        Some("selfcheck") => return selfcheck(args.seed, args.seconds),
        Some(other) => return Err(Failure(format!("unknown command `{other}`"))),
        None => {}
    }
    if args.smoke {
        return Workload::ALL
            .into_iter()
            .try_for_each(|w| smoke_one(w, Size::Smoke, args.seed, false));
    }
    let spans = args.spans.as_deref();
    let job = Job {
        size: Size::Full,
        seed: args.seed,
        seconds: args.seconds,
        min_reps: 3,
        traced: args.trace,
        spans,
    };
    match args.workload {
        // One driver run: the result line is the last line of stdout.
        Some(w) => {
            let o = measure(w, job)?;
            print_table(w, args.seed, if args.trace { PER_LAYER } else { END_TO_END }, &o);
            println!("{}", result_json(&o));
            fail_if_incorrect(w, &o)
        }
        None => {
            for w in Workload::ALL {
                let o = measure(w, Job { traced: false, ..job })?;
                print_table(w, args.seed, END_TO_END, &o);
                fail_if_incorrect(w, &o)?;
                if args.trace || spans.is_some() {
                    let o = measure(w, Job { traced: true, ..job })?;
                    print_table(w, args.seed, PER_LAYER, &o);
                    fail_if_incorrect(w, &o)?;
                }
            }
            Ok(())
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("e2e: {e}");
            return ExitCode::from(2);
        }
    };
    match run(args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(Failure(why)) => {
            eprintln!("e2e: FAILED: {why}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The whole benchmark, in process, at 1/40 scale: both passes, the
    /// reference check, the digest checks and the full metric schema.
    /// Keeps the benchmark compiling and honest under `cargo test`. One
    /// test per workload, so that they run side by side.
    fn tiny(w: Workload) {
        if let Err(Failure(why)) = smoke_one(w, Size::Tiny, 1, true) {
            panic!("{why}");
        }
    }

    #[test]
    fn tiny_city_steady_matches_the_reference_and_emits_the_schema() {
        tiny(Workload::CitySteady);
    }

    #[test]
    fn tiny_context_churn_matches_the_reference_and_emits_the_schema() {
        tiny(Workload::ContextChurn);
    }

    #[test]
    fn tiny_subscriber_fanout_matches_the_reference_and_emits_the_schema() {
        tiny(Workload::SubscriberFanout);
    }

    #[test]
    fn tiny_degraded_recovery_matches_the_reference_and_emits_the_schema() {
        tiny(Workload::DegradedRecovery);
    }

    #[test]
    fn arguments_parse_as_the_driver_sends_them() {
        let argv = "--workload city_steady --seed 7 --seconds 15 --trace 1";
        let a = parse_args(argv.split(' ').map(String::from)).unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Some(Workload::CitySteady), 7, 15.0, true)
        );
        let a = parse_args(["selfcheck", "--seed", "2"].map(String::from).into_iter()).unwrap();
        assert_eq!((a.command.as_deref(), a.seed), (Some("selfcheck"), 2));
        assert!(parse_args(["--workload", "nope"].map(String::from).into_iter()).is_err());
        assert!(parse_args(["--trace", "yes"].map(String::from).into_iter()).is_err());
        assert!(parse_args(["--seed"].map(String::from).into_iter()).is_err());
    }

    #[test]
    fn result_line_has_exactly_the_drivers_keys() {
        let o = Outcome {
            correct: true,
            attempted: 1000,
            failed: 0,
            sim_digest: 0,
            metrics: vec![("setup_s", 0.8127), ("events_per_s", 30000.5)],
            notes: Default::default(),
            diverged: Vec::new(),
            reps: 3,
        };
        assert_eq!(
            result_json(&o),
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}, \"events_per_s\": {\"value\": 30000.5, \"unit\": \"1/s\"}}}"
        );
    }
}
