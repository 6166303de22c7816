//! `gloss-lint` — run the deploy-time static analysis over matchlet
//! source files without deploying anything.
//!
//! ```text
//! gloss-lint [--deny-warnings] FILE.matchlet [FILE.matchlet ...]
//! ```
//!
//! Exit status: 0 when every file is clean (or warning-only without
//! `--deny-warnings`), 1 when any file has error-level findings (or any
//! findings under `--deny-warnings`), 2 on usage or I/O problems.

use std::process::ExitCode;

fn main() -> ExitCode {
    let mut deny_warnings = false;
    let mut files: Vec<String> = Vec::new();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--deny-warnings" => deny_warnings = true,
            "--help" | "-h" => {
                println!("usage: gloss-lint [--deny-warnings] FILE.matchlet ...");
                return ExitCode::SUCCESS;
            }
            _ if arg.starts_with('-') => {
                eprintln!("gloss-lint: unknown flag `{arg}`");
                return ExitCode::from(2);
            }
            _ => files.push(arg),
        }
    }
    if files.is_empty() {
        eprintln!("usage: gloss-lint [--deny-warnings] FILE.matchlet ...");
        return ExitCode::from(2);
    }

    let (mut errors, mut warnings, mut io_failed) = (0usize, 0usize, false);
    for path in &files {
        let src = match std::fs::read_to_string(path) {
            Ok(src) => src,
            Err(e) => {
                eprintln!("gloss-lint: {path}: {e}");
                io_failed = true;
                continue;
            }
        };
        match gloss_matchlet::parse_rules(&src) {
            Err(parse_err) => {
                // Parse failures print with their source snippet.
                eprintln!("{path}: parse error: {parse_err}");
                errors += 1;
            }
            Ok(rules) => {
                let report = gloss_analysis::analyze_rules(&rules);
                for d in &report.diagnostics {
                    println!("{path}: {d}");
                }
                errors += report.error_count();
                warnings += report.warning_count();
            }
        }
    }

    eprintln!("gloss-lint: {} file(s), {errors} error(s), {warnings} warning(s)", files.len());
    if io_failed {
        ExitCode::from(2)
    } else if errors > 0 || (deny_warnings && warnings > 0) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
