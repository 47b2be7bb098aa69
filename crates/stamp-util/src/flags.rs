//! One declarative flag table per binary.
//!
//! A [`Flag`] row holds a name (`-g` for one-letter names, `--threads`
//! otherwise), optionally the environment variable that sets it when
//! the flag is absent, the value it takes with its default, and a
//! one-line help. [`Table::parse`] checks every value up front, so the
//! [`Flags`] getters only hand out values that already parsed, and
//! `--help` is generated from the same rows. Values may be attached
//! STAMP-style (`-v32`, `-t0.05`), spaced (`-v 32`, `--threads 4`) or
//! given as `--name=value`.

use std::any::{type_name, Any};
use std::collections::HashMap;
use std::fmt::{self, Display};
use std::ops::{Bound, RangeBounds};
use std::str::FromStr;

type Parse = Box<dyn Fn(&str) -> Result<Box<dyn Any>, String>>;

/// One row of a flag table.
pub struct Flag {
    name: &'static str,
    env: Option<&'static str>,
    /// How the value reads in `--help`; `None` marks a switch.
    hint: Option<String>,
    default: Option<String>,
    help: &'static str,
    parse: Parse,
}

impl fmt::Debug for Flag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.flag())
    }
}

impl Flag {
    /// A row whose value `parse` turns into a `T` (its error says what
    /// it expected); `hint` shows the value's shape in `--help`.
    pub fn value<T: 'static>(
        name: &'static str,
        hint: &str,
        default: Option<&str>,
        help: &'static str,
        parse: impl Fn(&str) -> Result<T, String> + 'static,
    ) -> Flag {
        Flag {
            name,
            env: None,
            hint: Some(hint.to_string()),
            default: default.map(str::to_string),
            help,
            parse: Box::new(move |s| parse(s).map(|v| Box::new(v) as Box<dyn Any>)),
        }
    }

    /// A number of type `T` in `range` (`1..=32`, `1..`), `default`
    /// when absent.
    pub fn range<T, R>(name: &'static str, default: T, range: R, help: &'static str) -> Flag
    where
        T: FromStr + PartialOrd + Display + 'static,
        R: RangeBounds<T> + 'static,
    {
        let bound = |b: Bound<&T>, pre: &str| match b {
            Bound::Included(v) => format!("{pre}{v}"),
            _ => String::new(),
        };
        let bounds = format!(
            "{}..{}",
            bound(range.start_bound(), ""),
            bound(range.end_bound(), "=")
        );
        let hint = format!("<{bounds}>");
        Flag::value(name, &hint, Some(&default.to_string()), help, move |s| {
            s.parse()
                .ok()
                .filter(|v| range.contains(v))
                .ok_or_else(|| format!("expected a {} in {bounds}", type_name::<T>()))
        })
    }

    /// Any number of type `T`, `default` when absent.
    pub fn num<T: FromStr + Display + 'static>(
        name: &'static str,
        default: T,
        help: &'static str,
    ) -> Flag {
        let hint = format!("<{}>", type_name::<T>());
        Flag::value(name, &hint, Some(&default.to_string()), help, |s| {
            s.parse::<T>()
                .map_err(|_| format!("expected a {}", type_name::<T>()))
        })
    }

    /// A row taking one of the names `accepts` lists (`word|line`),
    /// which `parse` maps to a `T`.
    pub fn choice<T: 'static>(
        name: &'static str,
        accepts: &str,
        default: Option<&str>,
        help: &'static str,
        parse: fn(&str) -> Option<T>,
    ) -> Flag {
        let expected = format!("expected {accepts}");
        Flag::value(name, &format!("<{accepts}>"), default, help, move |s| {
            parse(s).ok_or_else(|| expected.clone())
        })
    }

    /// A switch: the bare flag turns it on; its environment variable
    /// takes `1`/`true` or `0`/`false`.
    pub fn switch(name: &'static str, help: &'static str) -> Flag {
        Flag {
            hint: None,
            ..Flag::value(name, "", None, help, |s| match s {
                "1" | "true" => Ok(true),
                "0" | "false" => Ok(false),
                _ => Err("expected 1|0|true|false".to_string()),
            })
        }
    }

    /// The same row, also set by environment variable `var` when the
    /// flag is absent (an empty value counts as unset).
    pub fn env(mut self, var: &'static str) -> Flag {
        self.env = Some(var);
        self
    }

    /// The row's name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The flag as typed: `-g` or `--threads`.
    pub fn flag(&self) -> String {
        let dashes = if self.name.chars().count() == 1 {
            "-"
        } else {
            "--"
        };
        format!("{dashes}{}", self.name)
    }

    /// The row given `value`, as [`Table::parse`] reads it back:
    /// attached to a one-letter flag (`-v32`), spaced after a long one
    /// (`--points 2048`).
    ///
    /// # Panics
    ///
    /// If the row is a switch.
    pub fn render(&self, value: &str) -> String {
        assert!(self.takes_value(), "{} takes no value", self.flag());
        let sep = if self.name.chars().count() == 1 {
            ""
        } else {
            " "
        };
        format!("{}{sep}{value}", self.flag())
    }

    /// The environment variable that sets the row, if any.
    pub fn var(&self) -> Option<&'static str> {
        self.env
    }

    /// Whether the row takes a value (is not a switch).
    pub fn takes_value(&self) -> bool {
        self.hint.is_some()
    }

    fn read(&self, v: &str, source: &str) -> Result<Box<dyn Any>, String> {
        (self.parse)(v).map_err(|e| format!("invalid value {v:?} for {source}: {e}"))
    }
}

/// What stops a parse before anything runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Stop {
    /// `--help` was given: the generated help text.
    Help(String),
    /// An unknown flag, a missing or bad value: one line naming it.
    Bad(String),
}

/// A binary's flag table.
#[derive(Debug)]
pub struct Table {
    bin: &'static str,
    rows: Vec<Flag>,
}

impl Table {
    /// The table of binary `bin`.
    ///
    /// # Panics
    ///
    /// On two rows with one name, or a row named `help` or `h`.
    pub fn new(bin: &'static str, rows: Vec<Flag>) -> Table {
        for (i, r) in rows.iter().enumerate() {
            let taken =
                ["help", "h"].contains(&r.name) || rows[..i].iter().any(|o| o.name == r.name);
            assert!(!taken, "{bin}: {} is taken", r.flag());
        }
        Table { bin, rows }
    }

    /// The rows, in declaration order.
    pub fn rows(&self) -> &[Flag] {
        &self.rows
    }

    /// The generated `--help` text: one line per row.
    pub fn help(&self) -> String {
        let mut out = format!("usage: {} [flags]\n", self.bin);
        for r in &self.rows {
            let head = format!("{} {}", r.flag(), r.hint.as_deref().unwrap_or(""));
            out.push_str(&format!("  {head:<26} {}", r.help));
            if let Some(d) = &r.default {
                out.push_str(&format!(" (default {d})"));
            }
            if let Some(var) = r.env {
                out.push_str(&format!(" [env {var}]"));
            }
            out.push('\n');
        }
        out.push_str(&format!("  {:<26} print this help and exit\n", "--help"));
        out
    }

    /// Parse `args` (without the program name). A row absent from
    /// `args` takes its environment variable's value from `env`, else
    /// its default. Every value is checked here.
    ///
    /// # Errors
    ///
    /// [`Stop::Help`] on `--help`, [`Stop::Bad`] on the first unknown
    /// flag, missing value, stray argument or bad value.
    pub fn parse<I>(&self, args: I, env: impl Fn(&str) -> Option<String>) -> Result<Flags, Stop>
    where
        I: IntoIterator<Item = String>,
    {
        let mut given: HashMap<&str, (String, String)> = HashMap::new();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            if arg == "--help" || arg == "-h" {
                return Err(Stop::Help(self.help()));
            }
            let (flag, attached) = match arg.strip_prefix("--") {
                Some(long) => match long.split_once('=') {
                    Some((name, v)) => (format!("--{name}"), Some(v.to_string())),
                    None => (arg.clone(), None),
                },
                None if arg.len() > 1 && arg.starts_with('-') => {
                    let (flag, v) =
                        arg.split_at(1 + arg[1..].chars().next().map_or(0, char::len_utf8));
                    (flag.to_string(), (!v.is_empty()).then(|| v.to_string()))
                }
                None => return Err(Stop::Bad(format!("unexpected argument {arg:?}"))),
            };
            let row = self
                .rows
                .iter()
                .find(|r| r.flag() == flag)
                .ok_or_else(|| Stop::Bad(format!("unknown flag {flag} (see --help)")))?;
            let value = match (row.takes_value(), attached) {
                (false, None) => "1".to_string(),
                (false, Some(_)) => return Err(Stop::Bad(format!("{flag} takes no value"))),
                (true, Some(v)) => v,
                (true, None) => args
                    .next()
                    .ok_or_else(|| Stop::Bad(format!("{flag} needs a value")))?,
            };
            given.insert(row.name, (value, flag));
        }
        let mut values = HashMap::new();
        for r in &self.rows {
            let from_env = |var: &str| Some((env(var).filter(|v| !v.is_empty())?, var.to_string()));
            let raw = (given.remove(r.name))
                .or_else(|| r.env.and_then(from_env))
                .or_else(|| Some((r.default.clone()?, r.flag())));
            let value = raw.map(|(v, source)| r.read(&v, &source)).transpose();
            values.insert(r.name, value.map_err(Stop::Bad)?);
        }
        Ok(Flags { values })
    }
}

/// The checked values of one parse: every row of the table, set from
/// the command line, its environment variable or its default.
#[derive(Debug)]
pub struct Flags {
    values: HashMap<&'static str, Option<Box<dyn Any>>>,
}

impl Flags {
    /// Row `name`'s value, or `None` if it is unset with no default or
    /// the table has no such row.
    ///
    /// # Panics
    ///
    /// If the row holds a value of another type than `T`.
    pub fn opt<T: 'static>(&self, name: &str) -> Option<&T> {
        let v = self.values.get(name)?.as_ref()?;
        let wrong = || panic!("flag {name:?} does not hold a {}", type_name::<T>());
        Some(v.downcast_ref().unwrap_or_else(wrong))
    }

    /// Row `name`'s value.
    ///
    /// # Panics
    ///
    /// If the table has no such row, it is unset with no default, or it
    /// holds another type than `T`.
    pub fn val<T: Clone + 'static>(&self, name: &str) -> T {
        let v = self.opt::<T>(name);
        v.unwrap_or_else(|| panic!("no row {name:?}, or it is unset"))
            .clone()
    }

    /// Whether switch `name` is on.
    pub fn on(&self, name: &str) -> bool {
        self.opt(name).copied().unwrap_or(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> Table {
        Table::new(
            "demo",
            vec![
                Flag::num("v", 32u32, "variables"),
                Flag::num("t", 0.05f64, "threshold"),
                Flag::range("threads", 4usize, 1..=32, "threads").env("DEMO_THREADS"),
                Flag::switch("verbose", "talk").env("DEMO_VERBOSE"),
                Flag::value("name", "<s>", None, "a name", |s| Ok(s.to_string())),
            ],
        )
    }

    fn parse_env(s: &str, env: &[(&str, &str)]) -> Result<Flags, Stop> {
        let env: HashMap<String, String> = env
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        table().parse(s.split_whitespace().map(String::from), |k| {
            env.get(k).cloned()
        })
    }

    fn parse(s: &str) -> Result<Flags, Stop> {
        parse_env(s, &[])
    }

    fn bad(s: &str) -> String {
        match parse(s) {
            Err(Stop::Bad(e)) => e,
            other => panic!("{s:?} parsed: {other:?}"),
        }
    }

    #[test]
    fn attached_spaced_and_equals_forms() {
        for args in ["-v64 -t0.5 --threads 8", "-v 64 -t 0.5 --threads=8"] {
            let f = parse(args).unwrap();
            assert_eq!(f.val::<u32>("v"), 64);
            assert_eq!(f.val::<f64>("t"), 0.5);
            assert_eq!(f.val::<usize>("threads"), 8);
        }
        let f = parse("-t -3 --name -x --verbose").unwrap();
        assert_eq!(f.val::<f64>("t"), -3.0);
        assert_eq!(f.val::<String>("name"), "-x");
        assert!(f.on("verbose"));
    }

    #[test]
    fn defaults_apply_and_unset_rows_are_none() {
        let f = parse("").unwrap();
        assert_eq!(f.val::<u32>("v"), 32);
        assert_eq!(f.val::<usize>("threads"), 4);
        assert!(!f.on("verbose"));
        assert_eq!(f.opt::<String>("name"), None);
        assert_eq!(f.opt::<u32>("not-a-row"), None);
    }

    #[test]
    fn flag_beats_env_and_env_beats_default() {
        let env = [("DEMO_THREADS", "16"), ("DEMO_VERBOSE", "1")];
        let f = parse_env("", &env).unwrap();
        assert_eq!(f.val::<usize>("threads"), 16);
        assert!(f.on("verbose"));
        let f = parse_env("--threads 2", &env).unwrap();
        assert_eq!(f.val::<usize>("threads"), 2);
        let f = parse_env("", &[("DEMO_THREADS", "")]).unwrap();
        assert_eq!(f.val::<usize>("threads"), 4, "empty env counts as unset");
    }

    #[test]
    fn bad_input_is_one_line_naming_the_flag() {
        assert_eq!(bad("--bogus 3"), "unknown flag --bogus (see --help)");
        assert_eq!(bad("-x16"), "unknown flag -x (see --help)");
        assert_eq!(bad("--v 3"), "unknown flag --v (see --help)");
        assert_eq!(bad("stray"), "unexpected argument \"stray\"");
        assert_eq!(bad("--threads"), "--threads needs a value");
        assert_eq!(bad("--verbose=1"), "--verbose takes no value");
        assert_eq!(
            bad("--threads 33"),
            "invalid value \"33\" for --threads: expected a usize in 1..=32"
        );
        assert_eq!(
            bad("-v 4294967328"),
            "invalid value \"4294967328\" for -v: expected a u32"
        );
        assert_eq!(bad("-tabc"), "invalid value \"abc\" for -t: expected a f64");
        match parse_env("", &[("DEMO_VERBOSE", "yes")]) {
            Err(Stop::Bad(e)) => assert_eq!(
                e,
                "invalid value \"yes\" for DEMO_VERBOSE: expected 1|0|true|false"
            ),
            other => panic!("{other:?}"),
        }
        for e in [bad("--threads x"), bad("--bogus")] {
            assert!(!e.contains('\n'), "{e}");
        }
    }

    #[test]
    fn help_lists_every_row() {
        let Err(Stop::Help(help)) = parse("-v abc --help") else {
            panic!("--help must stop the parse before any value is read")
        };
        for r in table().rows() {
            assert!(help.contains(&r.flag()), "{help}");
        }
        assert!(help.contains("(default 4) [env DEMO_THREADS]"), "{help}");
    }

    #[test]
    #[should_panic(expected = "demo: --threads is taken")]
    fn duplicate_names_are_rejected() {
        Table::new(
            "demo",
            vec![
                Flag::range("threads", 4usize, 1..=32, "a"),
                Flag::num("threads", 1u64, "b"),
            ],
        );
    }
}
