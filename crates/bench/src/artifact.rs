//! The checked-in artifacts under `results/`: one path, one byte
//! comparison against a re-run's rendering, one writer.
//!
//! Every pinned artifact (`results/golden/*.json`, `results/table4.json`,
//! `results/chaos.txt`, `results/BENCH_chaos.json`) is rendered in
//! memory by its harness and then either compared with [`check`] or
//! written with [`write()`]. Paths resolve relative to this crate, so
//! tests work from any working directory.

use std::path::{Path, PathBuf};

/// `results/<name>` at the repository root.
pub fn path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../results")
        .join(name)
}

/// Byte-compare `rendered` with the committed `results/<name>`.
///
/// # Errors
///
/// Returns the read error for a missing file, or the first line where
/// the two differ; both name `regenerate_hint`, the command that
/// rewrites the file after an intentional engine change.
pub fn check(name: &str, rendered: &str, regenerate_hint: &str) -> Result<(), String> {
    let path = path(name);
    let want = std::fs::read_to_string(&path).map_err(|e| {
        format!(
            "{}: {e} (regenerate with {regenerate_hint})",
            path.display()
        )
    })?;
    if want == rendered {
        return Ok(());
    }
    Err(format!(
        "results/{name} diverged from a re-run ({})\n\
         If the engine change is intentional, regenerate with:\n\
         {regenerate_hint}",
        first_difference(&want, rendered)
    ))
}

/// Write (overwrite) `results/<name>`, creating its directory; returns
/// the path written.
pub fn write(name: &str, rendered: &str) -> PathBuf {
    let path = path(name);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("creating {}: {e}", dir.display()));
    }
    std::fs::write(&path, rendered).unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
    path
}

/// Where a re-run's rendering `got` first departs from the checked-in
/// artifact `want`: the first differing line of each, numbered from 1,
/// or a note that one ends before the other.
fn first_difference(want: &str, got: &str) -> String {
    want.lines()
        .zip(got.lines())
        .enumerate()
        .find(|(_, (w, g))| w != g)
        .map(|(i, (w, g))| format!("line {}:\n  artifact: {w}\n  now:      {g}", i + 1))
        .unwrap_or_else(|| "files differ in length".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_names_the_first_differing_line_and_the_hint() {
        let name = "golden/genome.json";
        let want = std::fs::read_to_string(path(name)).expect("committed golden");
        assert_eq!(check(name, &want, "hint"), Ok(()));
        let mut lines: Vec<&str> = want.lines().collect();
        lines[1] = "changed";
        let err = check(name, &lines.join("\n"), "the hint").unwrap_err();
        assert!(
            err.contains("line 2:") && err.contains("now:      changed"),
            "{err}"
        );
        assert!(err.ends_with("the hint"), "{err}");
        let err = check("no-such-file", "", "the hint").unwrap_err();
        assert!(err.contains("regenerate with the hint"), "{err}");
    }

    #[test]
    fn first_difference_reports_a_length_mismatch() {
        assert_eq!(first_difference("a\nb", "a"), "files differ in length");
    }
}
