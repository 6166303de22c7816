//! CI smokes and determinism digests: one seeded scenario per subcommand.
//!
//! The five digest scenarios fold everything they observe into one
//! FNV-1a digest (`gloss_sim::FnvHasher`), and `smoke digests` must print
//! the lines checked in at `crates/bench/smoke.expected`; this binary's
//! own test and CI both compare them. A behaviour change is declared by
//! editing that file.
//! `partition` and `index` assert invariants only.
//!
//! Wall time goes to stderr so stdout is diff-stable across runs. Exits
//! 2 with the usage text on a bad command line, nonzero (a panic) on any
//! violated invariant.

mod scenarios;

/// A scenario's parameters (`rounds` is `kbdelta`'s alone).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Args {
    pub nodes: usize,
    pub seed: u64,
    pub rounds: i64,
}

/// Name, the flags it takes (any other is a usage error), defaults, and
/// the body, which returns the scenario's stdout line.
type Scenario = (&'static str, &'static [&'static str], Args, fn(Args) -> String);

const SIZED: &[&str] = &["--nodes", "--seed"];

/// `digests` runs the first five at their defaults.
const SCENARIOS: [Scenario; 7] = [
    ("chatter", SIZED, Args { nodes: 192, seed: 4242, rounds: 0 }, scenarios::chatter),
    ("overlay", SIZED, Args { nodes: 192, seed: 4242, rounds: 0 }, scenarios::overlay),
    // Smaller default: tracing is on and every route is digested.
    ("faults", SIZED, Args { nodes: 96, seed: 4242, rounds: 0 }, scenarios::faults),
    (
        "kbdelta",
        &["--nodes", "--seed", "--rounds"],
        Args { nodes: 8, seed: 2718, rounds: 6 },
        scenarios::kbdelta,
    ),
    ("repair", SIZED, Args { nodes: 48, seed: 1903, rounds: 0 }, scenarios::repair),
    ("partition", SIZED, Args { nodes: 512, seed: 4747, rounds: 0 }, scenarios::partition),
    ("index", &[], Args { nodes: 0, seed: 0, rounds: 0 }, scenarios::index),
];

const USAGE: &str = "\
usage: smoke <subcommand> [--nodes N] [--seed S] [--rounds K]
  subcommands: chatter overlay faults kbdelta repair partition index
  digests = the first five at their defaults: crates/bench/smoke.expected
  --rounds is kbdelta's alone; index takes no flag
";

/// The runs a command line asks for, or why it asks for none.
fn parse(argv: &[String]) -> Result<Vec<(&'static Scenario, Args)>, String> {
    let (name, flags) = argv.split_first().ok_or("missing subcommand")?;
    if name == "digests" {
        return match flags.first() {
            None => Ok(SCENARIOS[..5].iter().map(|s| (s, s.2)).collect()),
            Some(flag) => Err(format!("`digests` takes no `{flag}`")),
        };
    }
    let scenario = SCENARIOS
        .iter()
        .find(|(n, ..)| n == name)
        .ok_or_else(|| format!("unknown subcommand `{name}`"))?;
    let &(_, taken, mut args, _) = scenario;
    let mut flags = flags.iter();
    while let Some(flag) = flags.next() {
        if !taken.contains(&flag.as_str()) {
            return Err(format!("`{name}` takes no `{flag}`"));
        }
        let value = flags.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        let bad = |_| format!("`{flag} {value}`: not a number");
        match flag.as_str() {
            "--nodes" => args.nodes = value.parse().map_err(bad)?,
            "--seed" => args.seed = value.parse().map_err(bad)?,
            _ => args.rounds = value.parse().map_err(bad)?,
        }
    }
    Ok(vec![(scenario, args)])
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let runs = parse(&argv).unwrap_or_else(|why| {
        eprint!("{why}\n{USAGE}");
        std::process::exit(2);
    });
    for (&(.., run), args) in runs {
        let start = std::time::Instant::now();
        println!("{}", run(args));
        eprintln!("wall={:.3}s", start.elapsed().as_secs_f64());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parsed(line: &str) -> Result<Vec<(&'static str, Args)>, String> {
        let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse(&argv).map(|runs| runs.into_iter().map(|(s, args)| (s.0, args)).collect())
    }

    /// The tier-1 pin on every digest: a change that moves one must edit
    /// `crates/bench/smoke.expected` in the same commit.
    #[test]
    fn digests_match_the_golden_file() {
        let runs = parse(&["digests".to_string()]).unwrap();
        let got: String = runs.iter().map(|&(&(.., run), args)| run(args) + "\n").collect();
        assert_eq!(got, include_str!("../../../smoke.expected"));
    }

    #[test]
    fn command_lines_parse_or_are_usage_errors() {
        for (name, _, defaults, _) in SCENARIOS {
            assert_eq!(parsed(name), Ok(vec![(name, defaults)]));
            assert!(USAGE.contains(name));
        }
        assert_eq!(
            parsed("overlay --nodes 1024 --seed 7"),
            Ok(vec![("overlay", Args { nodes: 1024, seed: 7, rounds: 0 })])
        );
        assert_eq!(
            parsed("kbdelta --rounds 2 --nodes 5"),
            Ok(vec![("kbdelta", Args { nodes: 5, seed: 2718, rounds: 2 })])
        );
        for line in [
            "",
            "determinism",
            "--overlay",
            "chatter --overlay",
            "chatter faults",
            "chatter --rounds 2",
            "index --nodes 8",
            "digests --nodes 8",
            "repair --nodes",
            "repair --seed x",
            "partition --nodes -1",
        ] {
            assert!(parsed(line).is_err(), "`{line}` should be rejected");
        }
    }
}
