//! Guard: outside `txn/`, the engine reads what a TM design is from its
//! `SystemProps` row and never names which design it is, so a new design
//! is one protocol module, one row and one arm per dispatch match, with
//! no edit to the sanitizer, runtime, fault layer or contention manager.
//!
//! The scan covers non-test code: each file's lines before its first
//! `#[cfg(test)]`, skipping comments. A variant path (`SystemKind::LazyStm`),
//! a glob (`SystemKind::*`) or a brace import of `SystemKind` is a leak,
//! except inside the items of `config.rs` that define or spell the names.

use std::fs;
use std::path::{Path, PathBuf};

/// The items of `config.rs` that may name variants: the enum itself,
/// its list, its label and parser, and the sequential-baseline
/// constructor.
const ALLOWED_ITEMS: [&str; 5] = [
    "pub enum SystemKind",
    "pub const ALL_TM",
    "pub fn label",
    "pub fn parse",
    "pub fn sequential",
];

/// Net bracket depth change of one line of code.
fn depth_change(code: &str) -> i32 {
    code.chars()
        .map(|c| match c {
            '{' | '[' | '(' => 1,
            '}' | ']' | ')' => -1,
            _ => 0,
        })
        .sum()
}

/// Whether `code` names a variant of `SystemKind`, rather than an
/// associated item (`SystemKind::ALL_TM`, `SystemKind::parse`).
fn names_a_variant(code: &str) -> bool {
    code.match_indices("SystemKind::").any(|(i, m)| {
        let rest = &code[i + m.len()..];
        let ident: String = rest
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
            .collect();
        rest.starts_with(['*', '{'])
            || (ident.starts_with(|c: char| c.is_ascii_uppercase())
                && ident.contains(|c: char| c.is_ascii_lowercase()))
    })
}

/// The leaks in one file's source, as `line: code`, and the allowed
/// items found in it.
fn scan(text: &str, allowed: &[&str]) -> (Vec<String>, Vec<String>) {
    let (mut leaks, mut found) = (Vec::new(), Vec::new());
    // Bracket depth inside the allowed item being skipped, if any.
    let mut inside: Option<i32> = None;
    for (n, line) in text.lines().enumerate() {
        let code = line.trim_start();
        if code == "#[cfg(test)]" {
            break;
        }
        if code.starts_with("//") {
            continue;
        }
        if inside.is_none() {
            if let Some(item) = allowed.iter().find(|item| code.starts_with(**item)) {
                found.push(item.to_string());
                inside = Some(0);
            }
        }
        if let Some(depth) = inside {
            let depth = depth + depth_change(code);
            inside = (depth > 0).then_some(depth);
            continue;
        }
        if names_a_variant(code) {
            leaks.push(format!("{}: {code}", n + 1));
        }
    }
    (leaks, found)
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).expect("source directory is readable") {
        let path = entry.expect("directory entry is readable").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn no_system_is_named_outside_txn() {
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    let mut files = Vec::new();
    rust_files(&src, &mut files);
    files.sort();
    let mut leaks = Vec::new();
    let mut found = Vec::new();
    for path in &files {
        let rel = path.strip_prefix(&src).expect("under src");
        if rel.starts_with("txn") {
            continue;
        }
        let text = fs::read_to_string(path).expect("source file is readable");
        let allowed: &[&str] = if rel == Path::new("config.rs") {
            &ALLOWED_ITEMS
        } else {
            &[]
        };
        let (file_leaks, file_found) = scan(&text, allowed);
        leaks.extend(file_leaks.iter().map(|l| format!("{}:{l}", rel.display())));
        found.extend(file_found);
    }
    assert!(files.len() > 10, "found only {} source files", files.len());
    assert_eq!(
        found, ALLOWED_ITEMS,
        "the allowed items moved or were renamed"
    );
    assert!(
        leaks.is_empty(),
        "non-test code outside txn/ names a TM system; read its SystemProps row instead:\n{}",
        leaks.join("\n")
    );
}

#[test]
fn the_scan_sees_leaks_and_skips_allowed_items() {
    let text = "\
pub fn label(self) -> &'static str {
    match self {
        SystemKind::Sequential => \"Sequential\",
    }
}
// SystemKind::LazyStm in a comment
let p = SystemKind::ALL_TM[0].props();
if config.system == SystemKind::EagerHtm {}
use crate::config::SystemKind::*;
#[cfg(test)]
let cfg = TmConfig::new(SystemKind::LazyStm, 2);
";
    let (leaks, found) = scan(text, &["pub fn label"]);
    assert_eq!(found, ["pub fn label"]);
    assert_eq!(
        leaks,
        [
            "8: if config.system == SystemKind::EagerHtm {}",
            "9: use crate::config::SystemKind::*;"
        ]
    );
}
