//! `stamp_lint` — static access-discipline lint over the application
//! crates (see [`bench::lint`] for the rules).
//!
//! ```text
//! cargo run -p bench --bin stamp_lint            # lint the eight app crates
//! cargo run -p bench --bin stamp_lint -- PATH..  # lint specific files/dirs
//! ```
//!
//! Exits 1 if any finding is reported, 2 on an unreadable path or a
//! flag other than `--help`.

use std::path::PathBuf;
use std::process::ExitCode;

use bench::lint::{run_lint, APP_CRATES};

const USAGE: &str = "usage: stamp_lint [PATH...]
  lint the given .rs files and directories (default: the eight app crates)
  exit 0 clean, 1 findings, 2 unreadable path or bad flag
  --help                     print this help and exit";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    if let Some(flag) = args.iter().find(|a| a.starts_with('-')) {
        eprintln!("stamp_lint: unknown flag {flag} (see --help)");
        return ExitCode::from(2);
    }
    let roots: Vec<PathBuf> = if args.is_empty() {
        // Default: the eight app crates, resolved relative to the
        // workspace root (parent of this crate's manifest).
        let ws = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
        APP_CRATES.iter().map(|c| ws.join(c).join("src")).collect()
    } else {
        args.iter().map(PathBuf::from).collect()
    };

    let findings = match run_lint(&roots) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("stamp_lint: {e}");
            return ExitCode::from(2);
        }
    };
    for f in &findings {
        println!("{f}");
    }
    if findings.is_empty() {
        println!("stamp_lint: clean");
        ExitCode::SUCCESS
    } else {
        println!("stamp_lint: {} finding(s)", findings.len());
        ExitCode::FAILURE
    }
}
