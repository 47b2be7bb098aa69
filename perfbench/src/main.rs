//! Host-cost benchmark of the STAMP simulator.
//!
//! ```text
//! perfbench --workload <solo-1t|contended-16t|observed-2t> --seed <n>
//!           --seconds <n> --trace <0|1> [--spans <file>]
//! perfbench --pin <seed,seed,...>
//! ```
//!
//! A single process in a closed loop: it runs one simulation at a time
//! and starts the next when the previous one returns, pass after pass
//! over the workload's runs, until `--seconds` have elapsed. `--seed` is
//! the scheduler seed (`TmConfig::sched_seed`); app inputs stay the
//! Table IV parameters. Every run is checked (see [`workload::Checker`]).
//!
//! With `--trace 0` the end-to-end metrics are reported as medians over
//! passes. With `--trace 1` passes alternate between traced (spans and
//! per-call `getrusage`) and untraced, the layer probes run afterwards,
//! and the per-layer metrics are reported. The last stdout line is one
//! JSON object: `correct`, `attempted`, `failed`, `metrics`.
//!
//! `--pin` prints the fingerprint file (`expected/fingerprints.tsv`) for
//! the given scheduler seeds.

mod probes;
mod rusage;
mod spans;
mod workload;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use tm::{SystemKind, DEFAULT_SCHED_SEED};

use rusage::Usage;
use spans::Trace;
use workload::{
    fp_line, system_key, Cell, Checker, Expected, Outcome, Workload, FP_HEADER, OBSERVED_2T,
    SOLO_1T, WORKLOADS,
};

/// The sequential baseline followed by the six TM systems: the systems
/// of the barrier probe.
const SEQ_AND_TM: [SystemKind; 7] = [
    SystemKind::Sequential,
    SystemKind::EagerHtm,
    SystemKind::LazyHtm,
    SystemKind::EagerHybrid,
    SystemKind::LazyHybrid,
    SystemKind::EagerStm,
    SystemKind::LazyStm,
];

/// A reported number.
#[derive(Debug, Clone, PartialEq)]
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// The end-to-end metrics, in report order.
#[cfg(test)]
const END_TO_END: [(&str, &str); 5] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("sim_mcycles_per_s", "Mcycles/s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metric names, in report order, for a barrier probe over
/// `setup_variants`.
#[cfg(test)]
fn per_layer_names(setup_variants: &[&str]) -> Vec<String> {
    let mut names: Vec<String> = [
        "sched.vcsw",
        "sched.ivcsw",
        "sched.sys_s",
        "sched.vcsw_per_commit",
        "sched.advance_ns.t1",
        "sched.handoff_ns.t2",
        "sched.handoff_ns.t16",
        "runtime.phase_s",
        "runtime.spawn_join_us.t16",
        "txn.attempts",
        "txn.commits",
        "txn.commit_ratio",
        "cm.backoff_cycles",
        "txn.host_ns_per_attempt",
    ]
    .map(String::from)
    .to_vec();
    for sys in SystemKind::ALL_TM {
        names.push(format!("txn.barrier_s.{}", system_key(sys)));
    }
    names.extend(["verify.finalize_s", "verify.edges", "observer.overhead_s"].map(String::from));
    for v in setup_variants {
        names.push(format!("setup_s.{v}"));
    }
    names.push("trace.overhead_ratio".into());
    names
}

/// One pass over a workload's runs.
#[derive(Debug, Default)]
struct Pass {
    /// Host wall time of the pass.
    wall: Duration,
    /// Process counters over the whole pass.
    usage: Usage,
    /// Σ of the per-call counter deltas (traced passes only).
    calls: Usage,
    runs: Vec<(Cell, Outcome)>,
}

impl Pass {
    fn sum(&self, f: impl Fn(&Cell, &Outcome) -> f64) -> f64 {
        self.runs.iter().map(|(c, o)| f(c, o)).sum()
    }

    fn secs(&self, f: impl Fn(&Outcome) -> Duration) -> f64 {
        self.sum(|_, o| f(o).as_secs_f64())
    }

    fn count(&self, f: impl Fn(&workload::Fingerprint) -> u64) -> f64 {
        self.sum(|_, o| o.fingerprint.as_ref().map_or(0, &f) as f64)
    }

    fn setup_s(&self) -> f64 {
        self.secs(Outcome::setup)
    }

    fn phase_s(&self) -> f64 {
        self.secs(|o| o.phase)
    }

    fn phase_on(&self, system: SystemKind) -> f64 {
        self.sum(|c, o| {
            if c.system == system {
                o.phase.as_secs_f64()
            } else {
                0.0
            }
        })
    }

    fn mcycles_per_s(&self) -> f64 {
        self.sum(|_, o| o.cycles_total as f64) / self.phase_s().max(1e-9) / 1e6
    }
}

/// Runs passes and probes, checking and counting every run.
struct Bench {
    seed: u64,
    checker: Checker,
    attempted: u64,
    failed: u64,
    trace: Trace,
}

impl Bench {
    fn new(seed: u64, expected: Expected) -> Bench {
        Bench {
            seed,
            checker: Checker::new(expected),
            attempted: 0,
            failed: 0,
            trace: Trace::default(),
        }
    }

    /// One pass over `w`. A traced pass records a span and the
    /// `getrusage` delta around every run call.
    fn pass(&mut self, w: &Workload, traced: bool) -> Pass {
        let cells = w.cells();
        let usage0 = Usage::now();
        let start = Instant::now();
        if traced {
            self.trace.enter(format!("pass:{}", w.name));
        }
        let mut pass = Pass::default();
        for cell in cells {
            let before = traced.then(|| {
                let name = format!("run:{}/{}", cell.variant.name, system_key(cell.system));
                self.trace.enter(name);
                Usage::now()
            });
            let out = self.checker.run(&cell, self.seed);
            if let Some(before) = before {
                let d = Usage::now().since(&before);
                pass.calls.sys_s += d.sys_s;
                pass.calls.vcsw += d.vcsw;
                pass.calls.ivcsw += d.ivcsw;
                let fp = out.fingerprint.unwrap_or_default();
                self.trace.exit(vec![
                    ("phase_ns", out.phase.as_nanos() as u64),
                    ("attempts", fp.attempts),
                    ("commits", fp.commits),
                    ("vcsw", d.vcsw),
                    ("ivcsw", d.ivcsw),
                ]);
            }
            self.attempted += 1;
            if let Some(why) = &out.failure {
                self.failed += 1;
                eprintln!(
                    "FAILED {} on {} threads={} seed={}: {why}",
                    cell.variant.name,
                    system_key(cell.system),
                    cell.threads,
                    self.seed
                );
            }
            pass.runs.push((cell, out));
        }
        if traced {
            self.trace.exit(Vec::new());
        }
        pass.wall = start.elapsed();
        pass.usage = Usage::now().since(&usage0);
        pass
    }

    /// Time `f` `reps` times under a probe span; the median result.
    fn probe(&mut self, name: &str, reps: usize, mut f: impl FnMut() -> f64) -> f64 {
        self.trace.enter(format!("probe:{name}"));
        let values: Vec<f64> = (0..reps).map(|_| f()).collect();
        self.trace.exit(Vec::new());
        median(&values)
    }
}

/// Sizes of the traced run's layer probes.
#[derive(Debug, Clone, Copy)]
struct Probes {
    /// The workload whose per-system phase differences give
    /// `txn.barrier_s.*` and whose setup gives `setup_s.*`.
    barrier: Workload,
    /// The workload run with observers on and off.
    observed: Workload,
    /// Repetitions of the barrier probe.
    barrier_reps: usize,
    /// Repetitions of the observer on/off pair.
    observer_reps: usize,
    /// Repetitions of each scheduler / runtime micro-probe.
    micro_reps: usize,
    advance_steps: u64,
    handoff_steps_t2: u64,
    handoff_steps_t16: u64,
}

const PROBES: Probes = Probes {
    barrier: SOLO_1T,
    observed: OBSERVED_2T,
    barrier_reps: 3,
    observer_reps: 2,
    micro_reps: 5,
    advance_steps: 200_000,
    handoff_steps_t2: 20_000,
    handoff_steps_t16: 1_000,
};

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of nothing");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn median_of(passes: &[Pass], f: impl Fn(&Pass) -> f64) -> f64 {
    median(&passes.iter().map(f).collect::<Vec<_>>())
}

/// Passes over `w` while another pass still fits in `seconds` (judged
/// by the longest pass so far). Traced runs alternate traced and
/// untraced passes and make at least one of each. Returns (traced,
/// untraced).
fn measure(bench: &mut Bench, w: &Workload, seconds: f64, traced: bool) -> (Vec<Pass>, Vec<Pass>) {
    let start = Instant::now();
    let (mut on, mut off) = (Vec::new(), Vec::new());
    let mut longest = 0.0f64;
    loop {
        let trace_this = traced && on.len() <= off.len();
        let pass = bench.pass(w, trace_this);
        longest = longest.max(pass.wall.as_secs_f64());
        if trace_this {
            on.push(pass);
        } else {
            off.push(pass);
        }
        let both = !traced || !on.is_empty() && !off.is_empty();
        if both && start.elapsed().as_secs_f64() + longest > seconds {
            return (on, off);
        }
    }
}

fn end_to_end_metrics(passes: &[Pass]) -> Vec<Metric> {
    vec![
        metric("wall_s", median_of(passes, |p| p.wall.as_secs_f64()), "s"),
        metric("setup_s", median_of(passes, Pass::setup_s), "s"),
        metric(
            "sim_mcycles_per_s",
            median_of(passes, Pass::mcycles_per_s),
            "Mcycles/s",
        ),
        metric("cpu_s", median_of(passes, |p| p.usage.cpu_s()), "s"),
        metric("peak_rss_mb", Usage::now().maxrss_kb as f64 / 1024.0, "MB"),
    ]
}

fn layer_metrics(bench: &mut Bench, traced: &[Pass], untraced: &[Pass], p: &Probes) -> Vec<Metric> {
    let mut m = Vec::new();
    let first = &traced[0];
    let attempts = first.count(|f| f.attempts);
    let commits = first.count(|f| f.commits);
    let vcsw = median_of(traced, |p| p.calls.vcsw as f64);
    let phase = median_of(traced, Pass::phase_s);
    m.push(metric("sched.vcsw", vcsw, "count"));
    m.push(metric(
        "sched.ivcsw",
        median_of(traced, |p| p.calls.ivcsw as f64),
        "count",
    ));
    m.push(metric(
        "sched.sys_s",
        median_of(traced, |p| p.calls.sys_s),
        "s",
    ));
    m.push(metric(
        "sched.vcsw_per_commit",
        vcsw / commits.max(1.0),
        "count/commit",
    ));

    let adv = bench.probe("sched.advance.t1", p.micro_reps, || {
        probes::sched_advance_ns_t1(p.advance_steps)
    });
    m.push(metric("sched.advance_ns.t1", adv, "ns"));
    for (threads, steps) in [(2, p.handoff_steps_t2), (16, p.handoff_steps_t16)] {
        let ns = bench.probe(&format!("sched.handoff.t{threads}"), p.micro_reps, || {
            probes::sched_handoff_ns(threads, steps)
        });
        m.push(metric(format!("sched.handoff_ns.t{threads}"), ns, "ns"));
    }

    m.push(metric("runtime.phase_s", phase, "s"));
    let spawn = bench.probe("runtime.spawn_join.t16", 10 * p.micro_reps, || {
        probes::spawn_join_us(16)
    });
    m.push(metric("runtime.spawn_join_us.t16", spawn, "us"));

    m.push(metric("txn.attempts", attempts, "count"));
    m.push(metric("txn.commits", commits, "count"));
    m.push(metric(
        "txn.commit_ratio",
        commits / attempts.max(1.0),
        "ratio",
    ));
    m.push(metric(
        "cm.backoff_cycles",
        first.count(|f| f.backoff_cycles),
        "cycles",
    ));
    m.push(metric(
        "txn.host_ns_per_attempt",
        phase * 1e9 / attempts.max(1.0),
        "ns",
    ));

    let barrier_w = p.barrier.on_systems(&SEQ_AND_TM);
    let barrier: Vec<Pass> = (0..p.barrier_reps)
        .map(|_| bench.pass(&barrier_w, true))
        .collect();
    for sys in SystemKind::ALL_TM {
        let s = median_of(&barrier, |b| {
            b.phase_on(sys) - b.phase_on(SystemKind::Sequential)
        });
        m.push(metric(format!("txn.barrier_s.{}", system_key(sys)), s, "s"));
    }

    let mut on = Vec::new();
    let mut off = Vec::new();
    for _ in 0..p.observer_reps {
        on.push(bench.pass(&p.observed.with_observers(true), true));
        off.push(bench.pass(&p.observed.with_observers(false), true));
    }
    m.push(metric(
        "verify.finalize_s",
        median_of(&on, |p| p.secs(|o| o.finalize)),
        "s",
    ));
    m.push(metric(
        "verify.edges",
        on[0].sum(|_, o| o.edges as f64),
        "count",
    ));
    let overhead = median_of(&on, Pass::phase_s) - median_of(&off, Pass::phase_s);
    m.push(metric("observer.overhead_s", overhead, "s"));

    for v in p.barrier.variants {
        let s = median_of(&barrier, |b| {
            b.sum(|c, o| {
                if c.variant.name == *v && c.system != SystemKind::Sequential {
                    o.setup().as_secs_f64()
                } else {
                    0.0
                }
            })
        });
        m.push(metric(format!("setup_s.{v}"), s, "s"));
    }

    let wall = |ps: &[Pass]| median_of(ps, |p| p.wall.as_secs_f64());
    m.push(metric(
        "trace.overhead_ratio",
        wall(traced) / wall(untraced),
        "ratio",
    ));
    m
}

/// The result line: `correct`, `attempted`, `failed` and `metrics`.
fn result_json(bench: &Bench, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        bench.failed == 0,
        bench.attempted,
        bench.failed
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    out
}

#[derive(Debug)]
struct Opts {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: Option<PathBuf>,
}

enum Mode {
    Run(Opts),
    Pin(Vec<u64>),
}

fn parse_args(args: &[String]) -> Result<Mode, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SCHED_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut spans = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::by_name(&name).ok_or_else(|| {
                    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {name:?} (expected one of {names:?})")
                })?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace wants 0 or 1, got {other:?}")),
                }
            }
            "--spans" => spans = Some(PathBuf::from(value()?)),
            "--pin" => {
                let seeds = value()?
                    .split(',')
                    .map(|s| {
                        s.trim()
                            .parse::<u64>()
                            .map_err(|e| format!("--pin {s:?}: {e}"))
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                return Ok(Mode::Pin(seeds));
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Mode::Run(Opts {
        workload,
        seed,
        seconds,
        trace,
        spans,
    }))
}

/// Print the fingerprint file for `seeds`: every workload's runs plus
/// the sequential baseline of the barrier probe.
fn pin(seeds: &[u64]) -> Result<(), String> {
    let mut sets: Vec<Workload> = WORKLOADS.to_vec();
    sets.push(SOLO_1T.on_systems(&SEQ_AND_TM[..1]));
    let mut done = std::collections::HashSet::new();
    println!("{FP_HEADER}");
    for w in &sets {
        for &seed in seeds {
            let mut checker = Checker::default();
            for cell in w.cells() {
                let key = cell.key(seed);
                if !done.insert(key.clone()) {
                    continue;
                }
                let out = checker.run(&cell, seed);
                if let Some(why) = out.failure {
                    return Err(format!("{} on {:?}: {why}", cell.variant.name, cell.system));
                }
                let fp = out
                    .fingerprint
                    .expect("a run without failure has a fingerprint");
                println!("{}", fp_line(&key, &fp));
            }
        }
    }
    Ok(())
}

fn run(opts: &Opts) -> Result<String, String> {
    let mut bench = Bench::new(opts.seed, Expected::pinned());
    let w = &opts.workload;
    let (traced, untraced) = measure(&mut bench, w, opts.seconds, opts.trace);
    let metrics = if opts.trace {
        bench.trace.enter(format!("probes:{}", w.name));
        let m = layer_metrics(&mut bench, &traced, &untraced, &PROBES);
        bench.trace.exit(Vec::new());
        m
    } else {
        end_to_end_metrics(&untraced)
    };
    if let Some(path) = &opts.spans {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::write(path, bench.trace.to_jsonl())
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    let passes = traced.len() + untraced.len();
    println!(
        "workload {} seed {} passes {passes} runs {} failed {}",
        w.name, opts.seed, bench.attempted, bench.failed
    );
    let walls: Vec<String> = traced
        .iter()
        .chain(&untraced)
        .map(|p| format!("{:.3}", p.wall.as_secs_f64()))
        .collect();
    println!("pass wall_s: {}", walls.join(" "));
    for m in &metrics {
        println!("{:<28} {:>14.6} {}", m.name, m.value, m.unit);
    }
    Ok(result_json(&bench, &metrics))
}

fn main() -> ExitCode {
    // The engine reads TM_* variables in `TmConfig::new`; any of them
    // would silently change what is measured.
    if let Some((k, _)) = std::env::vars().find(|(k, _)| k.starts_with("TM_")) {
        eprintln!("perfbench: unset {k}: the benchmark measures the default engine configuration");
        return ExitCode::from(2);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match parse_args(&args) {
        Ok(Mode::Pin(seeds)) => pin(&seeds).map(|()| None),
        Ok(Mode::Run(opts)) => run(&opts).map(Some),
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(Some(line)) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Ok(None) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workload::Fingerprint;

    const TINY: Workload = Workload {
        name: "tiny",
        variants: &["genome", "kmeans-high"],
        systems: &[SystemKind::LazyStm, SystemKind::EagerHtm],
        threads: 2,
        scale: 64,
        observers: true,
    };

    const TINY_PROBES: Probes = Probes {
        barrier: Workload {
            threads: 1,
            observers: false,
            ..TINY
        },
        observed: TINY,
        barrier_reps: 1,
        observer_reps: 1,
        micro_reps: 1,
        advance_steps: 1000,
        handoff_steps_t2: 100,
        handoff_steps_t16: 10,
    };

    fn fingerprints(pass: &Pass) -> Vec<Option<Fingerprint>> {
        pass.runs.iter().map(|(_, o)| o.fingerprint).collect()
    }

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn traced_and_untraced_passes_agree() {
        let mut bench = Bench::new(3, Expected::default());
        let traced = bench.pass(&TINY, true);
        let untraced = bench.pass(&TINY, false);
        assert_eq!(bench.failed, 0);
        assert_eq!(fingerprints(&traced), fingerprints(&untraced));
        assert!(traced.calls.vcsw + traced.calls.ivcsw > 0);
        // One pass span plus one span per run, all closed.
        assert_eq!(bench.trace.spans().len(), 1 + TINY.cells().len());
        assert!(bench.trace.spans().iter().all(|s| s.end_ns >= s.start_ns));
    }

    #[test]
    fn every_metric_name_is_well_formed_and_declared() {
        let mut bench = Bench::new(3, Expected::default());
        let (on, off) = measure(&mut bench, &TINY, 0.0, true);
        let layer = layer_metrics(&mut bench, &on, &off, &TINY_PROBES);
        let e2e = end_to_end_metrics(&off);
        assert_eq!(bench.failed, 0);

        let got: Vec<&str> = layer.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(got, per_layer_names(TINY_PROBES.barrier.variants));
        let got: Vec<&str> = e2e.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(got, END_TO_END.map(|(n, _)| n));
        for m in layer.iter().chain(&e2e) {
            assert!(valid_name(&m.name), "{}", m.name);
            assert!(m.value.is_finite(), "{} = {}", m.name, m.value);
        }

        // BENCHMARK.json declares exactly these names and units.
        let spec =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json next to the benchmark directory");
        for m in layer.iter().chain(&e2e) {
            let entry = format!("\"name\": \"{}\", \"unit\": \"{}\"", m.name, m.unit);
            assert!(spec.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let declared = per_layer_names(PROBES.barrier.variants);
        for name in declared
            .iter()
            .map(String::as_str)
            .chain(END_TO_END.map(|(n, _)| n))
        {
            assert!(valid_name(name), "{name}");
            assert!(
                spec.contains(&format!("\"name\": \"{name}\", \"unit\": ")),
                "{name}"
            );
        }
        assert_eq!(
            spec.matches("\"better\"").count(),
            declared.len() + END_TO_END.len()
        );
        for w in WORKLOADS {
            assert!(valid_name(w.name));
            assert!(spec.contains(&format!("\"name\": \"{}\"", w.name)));
        }
        let line = result_json(&bench, &e2e);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": "));
    }

    #[test]
    fn args_are_strict() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let Ok(Mode::Run(o)) =
            parse_args(&args("--workload solo-1t --seed 4 --seconds 2 --trace 1"))
        else {
            panic!("valid arguments rejected");
        };
        assert_eq!(
            (o.workload.name, o.seed, o.seconds, o.trace),
            ("solo-1t", 4, 2.0, true)
        );
        assert!(parse_args(&args("--workload nope")).is_err());
        assert!(parse_args(&args("--workload solo-1t --trace 2")).is_err());
        assert!(parse_args(&args("--workload solo-1t --bogus 1")).is_err());
        assert!(parse_args(&args("--seed 1")).is_err());
    }
}
