//! Tier-2 check of paper-scale results: rerun `figure1 --scale 1` for
//! the two `-r1048576` vacation variants and compare their blocks with
//! `results/figure1.txt` line for line.
//!
//! `scripts/reproduce.sh` writes that file with the cargo banner above
//! the first block and the shell's `time` trailer below the last, so
//! the comparison takes each variant's block (its header line through
//! the next blank line) from both texts and ignores everything else.
//!
//! Run with `cargo test --release -p bench --test figure1_scale1 --
//! --ignored` (about a minute: each of the 62 runs populates 4 × 1 M
//! records).

use std::process::Command;

/// The lines of `variant`'s block: from `"<variant> (sequential: …"`
/// up to (not including) the next blank line.
fn block<'a>(text: &'a str, variant: &str) -> Option<Vec<&'a str>> {
    let header = format!("{variant} (");
    let mut lines = text.lines().skip_while(|l| !l.starts_with(&header));
    let first = lines.next()?;
    Some(
        std::iter::once(first)
            .chain(lines.take_while(|l| !l.trim().is_empty()))
            .collect(),
    )
}

#[test]
fn block_skips_banner_and_trailer() {
    let text = "   Compiling bench\n     Running `figure1`\nFIGURE 1\n\n\
                a+ (sequential: 5 cycles)\nrow 1\nrow 2\n\n\
                b (sequential: 6 cycles)\nrow 3\n\nreal\t1m0s\n";
    assert_eq!(
        block(text, "a+"),
        Some(vec!["a+ (sequential: 5 cycles)", "row 1", "row 2"])
    );
    assert_eq!(
        block(text, "b"),
        Some(vec!["b (sequential: 6 cycles)", "row 3"])
    );
    assert_eq!(block(text, "a"), None);
}

#[test]
#[ignore = "tier 2: paper-scale vacation runs, about a minute in release"]
fn vacation_plus_rows_match_results_figure1() {
    let variants = ["vacation-high+", "vacation-low+"];
    let committed = std::fs::read_to_string(bench::artifact::path("figure1.txt"))
        .expect("read results/figure1.txt");
    let out = Command::new(env!("CARGO_BIN_EXE_figure1"))
        .args(["--scale", "1", "--variants", &variants.join(",")])
        .output()
        .expect("run figure1");
    assert!(out.status.success(), "figure1 failed: {out:?}");
    let fresh = String::from_utf8(out.stdout).expect("utf-8 output");
    for v in variants {
        let want = block(&committed, v).unwrap_or_else(|| panic!("{v} missing from the file"));
        let got = block(&fresh, v).unwrap_or_else(|| panic!("{v} missing from the output"));
        assert_eq!(got, want, "{v} rows differ from results/figure1.txt");
    }
}
