//! Ablation: hybrid signature size (Table V uses 2048 bits).
//!
//! Smaller signatures alias more line addresses, so the hybrids suffer
//! more false conflicts — the same mechanism that hurts the eager HTM
//! when it overflows into its Bloom filter.

use bench::checked_run;
use stamp_util::driver::tm_config;
use tm::SystemKind;

fn main() {
    let f = bench::cli::parse("ablation_sigsize");
    let scale = f.val("scale");
    let threads = f.val("threads");
    let variants = bench::cli::variants(&f);
    let sizes = [256usize, 512, 1024, 2048, 8192];
    println!("ABLATION: hybrid signature size ({threads} threads, scale 1/{scale})");
    print!("{:<15} {:<13}", "variant", "system");
    for s in sizes {
        print!("{:>16}", format!("{s}b cyc/ret"));
    }
    println!();
    for v in &variants {
        for sys in [SystemKind::LazyHybrid, SystemKind::EagerHybrid] {
            print!("{:<15} {:<13}", v.name, sys.label());
            for s in sizes {
                let rep = checked_run(v, scale, tm_config(&f, sys, threads).signature_bits(s));
                print!(
                    "{:>16}",
                    format!(
                        "{}/{:.2}",
                        rep.run.sim_cycles,
                        rep.run.stats.retries_per_txn()
                    )
                );
            }
            println!();
        }
    }
}
