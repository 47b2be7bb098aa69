//! Regenerates Table I: the benchmark-suite comparison (descriptive —
//! the paper's qualitative survey of related work, §II), with STAMP's
//! row checked against this reproduction's actual properties.

fn main() {
    bench::cli::parse("table1");
    println!("TABLE I: Benchmark suites used to evaluate TM systems");
    println!("{:-<66}", "");
    println!(
        "{:<22} {:<14} {:<8} Portability",
        "Benchmark", "Breadth", "Depth"
    );
    println!("{:-<66}", "");
    let rows = [
        ("SPLASH-2 [41]", "yes (12)", "no", "partial"),
        ("NPB OpenMP [22]", "yes (7)", "no", "partial"),
        ("SPEComp [38]", "yes (11)", "no", "partial"),
        ("BioParallel [21]", "partial (5)", "no", "partial"),
        ("MineBench [30]", "partial (15)", "no", "partial"),
        ("PARSEC [4]", "yes (12)", "no", "partial"),
        ("RSTMv3 [27, 35]", "no (6)", "yes", "yes"),
        ("STMbench7 [14]", "no (1)", "yes", "yes"),
        ("Perfumo et al. [31]", "yes (9)", "yes", "no"),
        ("STAMP", "yes (8)", "yes", "yes"),
    ];
    for (name, breadth, depth, portability) in rows {
        println!("{name:<22} {breadth:<14} {depth:<8} {portability}");
    }
    println!();
    // The STAMP row, verified against this reproduction:
    let apps = stamp_util::params::AppKind::ALL.len();
    let variants = stamp_util::all_variants().len();
    let systems = tm::SystemKind::ALL_TM.len();
    println!(
        "this reproduction: breadth = {apps} applications / {variants} variants, \
         portability = {systems} TM systems (HTM, STM, hybrid)"
    );
}
