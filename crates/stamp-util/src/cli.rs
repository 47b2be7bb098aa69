//! A tiny argument parser for the application binaries, accepting both
//! STAMP-style attached flags (`-v32`, `-t0.05`) and spaced flags
//! (`-v 32`, `--threads 4`).

use std::collections::HashMap;
use std::ops::RangeInclusive;

/// Parsed command-line flags.
#[derive(Debug, Clone, Default)]
pub struct Args {
    flags: HashMap<String, String>,
    positional: Vec<String>,
}

impl Args {
    /// Parse an iterator of arguments (excluding the program name).
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Args {
        let mut flags = HashMap::new();
        let mut positional = Vec::new();
        let mut iter = args.into_iter().peekable();
        while let Some(arg) = iter.next() {
            if let Some(rest) = arg.strip_prefix("--") {
                if let Some((k, v)) = rest.split_once('=') {
                    flags.insert(k.to_string(), v.to_string());
                } else if iter
                    .peek()
                    .map(|n| !n.starts_with('-') || n.parse::<f64>().is_ok())
                    .unwrap_or(false)
                {
                    let v = iter.next().unwrap();
                    flags.insert(rest.to_string(), v);
                } else {
                    flags.insert(rest.to_string(), "true".to_string());
                }
            } else if let Some(rest) = arg.strip_prefix('-') {
                if rest.is_empty() {
                    positional.push(arg);
                    continue;
                }
                let (key, attached) = rest.split_at(1);
                if !attached.is_empty() {
                    // STAMP style: -v32
                    flags.insert(key.to_string(), attached.to_string());
                } else if iter
                    .peek()
                    .map(|n| !n.starts_with('-') || n.parse::<f64>().is_ok())
                    .unwrap_or(false)
                {
                    let v = iter.next().unwrap();
                    flags.insert(key.to_string(), v);
                } else {
                    flags.insert(key.to_string(), "true".to_string());
                }
            } else {
                positional.push(arg);
            }
        }
        Args { flags, positional }
    }

    /// Parse the process arguments.
    pub fn from_env() -> Args {
        Args::parse(std::env::args().skip(1))
    }

    /// Raw flag value.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.flags.get(key).map(String::as_str)
    }

    /// Integer flag with a default (the default is not range-checked).
    /// A value that is not an integer in `range` is an error naming the
    /// flag and the accepted range.
    pub fn get_u64_in(
        &self,
        key: &str,
        default: u64,
        range: RangeInclusive<u64>,
    ) -> Result<u64, String> {
        let Some(v) = self.get(key) else {
            return Ok(default);
        };
        match v.parse() {
            Ok(n) if range.contains(&n) => Ok(n),
            _ => {
                let dashes = if key.len() == 1 { "-" } else { "--" };
                Err(format!(
                    "flag {dashes}{key} expects an integer in {}..={}, got {v:?}",
                    range.start(),
                    range.end()
                ))
            }
        }
    }

    /// Integer flag with a default; panics on a malformed value.
    pub fn get_u64(&self, key: &str, default: u64) -> u64 {
        self.get_u64_in(key, default, 0..=u64::MAX)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// `u32` flag with a default; panics on a malformed value or one
    /// above `u32::MAX`.
    pub fn get_u32(&self, key: &str, default: u32) -> u32 {
        self.get_u64_in(key, default.into(), 0..=u32::MAX.into())
            .unwrap_or_else(|e| panic!("{e}")) as u32
    }

    /// Float flag with a default.
    pub fn get_f64(&self, key: &str, default: f64) -> f64 {
        self.get(key)
            .map(|v| {
                v.parse()
                    .unwrap_or_else(|_| panic!("flag -{key} expects a number, got {v:?}"))
            })
            .unwrap_or(default)
    }

    /// String flag with a default.
    pub fn get_str<'a>(&'a self, key: &str, default: &'a str) -> &'a str {
        self.get(key).unwrap_or(default)
    }

    /// Boolean flag (present = true).
    pub fn get_bool(&self, key: &str) -> bool {
        self.get(key).is_some_and(|v| v != "false")
    }

    /// Positional arguments.
    pub fn positional(&self) -> &[String] {
        &self.positional
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn stamp_attached_flags() {
        let a = parse("-v32 -r1024 -t0.05");
        assert_eq!(a.get_u32("v", 0), 32);
        assert_eq!(a.get_u64("r", 0), 1024);
        assert_eq!(a.get_f64("t", 0.0), 0.05);
    }

    #[test]
    fn spaced_and_long_flags() {
        let a = parse("--threads 8 --system lazy-stm -n 42 --verbose");
        assert_eq!(a.get_u32("threads", 1), 8);
        assert_eq!(a.get_str("system", ""), "lazy-stm");
        assert_eq!(a.get_u32("n", 0), 42);
        assert!(a.get_bool("verbose"));
        assert!(!a.get_bool("quiet"));
    }

    #[test]
    fn negative_number_values() {
        let a = parse("--offset -3");
        assert_eq!(a.get_f64("offset", 0.0), -3.0);
    }

    #[test]
    fn defaults_apply() {
        let a = parse("");
        assert_eq!(a.get_u32("x", 7), 7);
        assert_eq!(a.get_str("s", "dflt"), "dflt");
    }

    #[test]
    fn positionals_collected() {
        let a = parse("-a1 input.file other");
        assert_eq!(a.positional(), ["input.file", "other"]);
    }

    #[test]
    #[should_panic(expected = "flag -v expects an integer in 0..=4294967295, got \"4294967328\"")]
    fn u32_flag_rejects_values_above_u32_max() {
        // 2^32 + 32 must not wrap to 32.
        parse("-v 4294967328").get_u32("v", 0);
    }

    #[test]
    fn equals_long_flag() {
        let a = parse("--scale=4");
        assert_eq!(a.get_u32("scale", 1), 4);
    }
}
