//! Minimal machine-readable output for the bench binaries.
//!
//! The harness binaries accept `--json <path>` and append their
//! measurements as an array of flat JSON objects (conventionally
//! `results/BENCH_<binary>.json`), giving future sessions a diffable
//! bench trajectory without taking a serialization dependency: the
//! writer below emits the small subset of JSON the rows need (strings,
//! integers, finite floats, booleans).

use std::io::Write;
use std::path::Path;

/// One flat measurement row: ordered `(key, value)` pairs.
#[derive(Debug, Clone, Default)]
pub struct Row {
    fields: Vec<(String, String)>,
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

impl Row {
    /// An empty row.
    pub fn new() -> Row {
        Row::default()
    }

    /// Add a string field.
    pub fn str(mut self, key: &str, value: &str) -> Row {
        self.fields
            .push((key.to_string(), format!("\"{}\"", escape(value))));
        self
    }

    /// Add an unsigned-integer field.
    pub fn u64(mut self, key: &str, value: u64) -> Row {
        self.fields.push((key.to_string(), value.to_string()));
        self
    }

    /// Add a float field (non-finite values become `null`).
    pub fn f64(mut self, key: &str, value: f64) -> Row {
        let rendered = if value.is_finite() {
            format!("{value:.6}")
        } else {
            "null".to_string()
        };
        self.fields.push((key.to_string(), rendered));
        self
    }

    /// Add a boolean field.
    pub fn bool(mut self, key: &str, value: bool) -> Row {
        self.fields.push((key.to_string(), value.to_string()));
        self
    }

    /// Render as one JSON object.
    pub fn render(&self) -> String {
        let body: Vec<String> = self
            .fields
            .iter()
            .map(|(k, v)| format!("\"{}\": {v}", escape(k)))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// Collects rows and writes them as a JSON array, one object per line.
#[derive(Debug, Default)]
pub struct JsonSink {
    rows: Vec<String>,
}

impl JsonSink {
    /// An empty sink.
    pub fn new() -> JsonSink {
        JsonSink::default()
    }

    /// Append a measurement row.
    pub fn push(&mut self, row: Row) {
        self.rows.push(row.render());
    }

    /// Number of rows collected.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether no rows were collected.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render the whole array.
    pub fn render(&self) -> String {
        if self.rows.is_empty() {
            return "[]\n".to_string();
        }
        let mut out = String::from("[\n");
        for (i, r) in self.rows.iter().enumerate() {
            out.push_str("  ");
            out.push_str(r);
            if i + 1 < self.rows.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("]\n");
        out
    }

    /// Write the array to `path` (`-` prints it to stdout), creating
    /// parent directories, and report the row count on stderr.
    ///
    /// # Panics
    ///
    /// Panics on I/O errors (harness binaries have no recovery path).
    pub fn write(&self, path: &Path) {
        if path == Path::new("-") {
            print!("{}", self.render());
            return;
        }
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)
                    .unwrap_or_else(|e| panic!("creating {}: {e}", parent.display()));
            }
        }
        let mut f = std::fs::File::create(path)
            .unwrap_or_else(|e| panic!("creating {}: {e}", path.display()));
        f.write_all(self.render().as_bytes())
            .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
        eprintln!("wrote {} rows to {}", self.len(), path.display());
    }
}

/// A row pre-populated with the fields every harness measurement
/// shares: app/variant identity, system, thread count, simulated
/// cycles, abort behavior, and the verification verdict.
pub fn report_row(variant: &str, rep: &stamp_util::AppReport) -> Row {
    Row::new()
        .str("variant", variant)
        .str("system", rep.run.system.label())
        .u64("threads", rep.run.threads as u64)
        .u64("sim_cycles", rep.run.sim_cycles)
        .u64("commits", rep.run.stats.commits)
        .u64("aborts", rep.run.stats.aborts)
        .f64("retries_per_txn", rep.run.stats.retries_per_txn())
        .u64("backoff_cycles", rep.run.stats.backoff_cycles)
        .u64("serialized_commits", rep.run.stats.serialized_commits)
        .bool("verified", rep.verified)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_renders_all_types() {
        let r = Row::new()
            .str("name", "vacation-high")
            .u64("cycles", 123)
            .f64("speedup", 1.5)
            .bool("ok", true)
            .f64("bad", f64::NAN);
        assert_eq!(
            r.render(),
            "{\"name\": \"vacation-high\", \"cycles\": 123, \
             \"speedup\": 1.500000, \"ok\": true, \"bad\": null}"
        );
    }

    #[test]
    fn strings_escaped() {
        let r = Row::new().str("k", "a\"b\\c\nd");
        assert_eq!(r.render(), "{\"k\": \"a\\\"b\\\\c\\nd\"}");
    }

    #[test]
    fn sink_renders_valid_array() {
        let mut s = JsonSink::new();
        assert!(s.is_empty());
        assert_eq!(s.render(), "[]\n");
        s.push(Row::new().u64("a", 1));
        s.push(Row::new().u64("a", 2));
        assert_eq!(s.len(), 2);
        assert_eq!(s.render(), "[\n  {\"a\": 1},\n  {\"a\": 2}\n]\n");
    }

    #[test]
    fn sink_writes_file() {
        let path = std::env::temp_dir().join("stamp_json_sink_test.json");
        let mut s = JsonSink::new();
        s.push(Row::new().str("x", "y"));
        s.write(&path);
        let back = std::fs::read_to_string(&path).unwrap();
        assert!(back.contains("\"x\": \"y\""));
        std::fs::remove_file(&path).ok();
    }
}
