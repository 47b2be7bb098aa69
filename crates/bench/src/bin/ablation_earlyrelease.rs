//! Ablation: early release in labyrinth (§III-B5, §V-B5).
//!
//! With early release, the HTMs drop each grid point from the
//! transactional read set right after the privatizing copy, so only the
//! routed path conflicts. Without it, every transaction reads the whole
//! grid: guaranteed capacity overflow (lazy HTM serializes; eager HTM
//! floods its Bloom filter with false conflicts).

use stamp_util::driver::tm_config;
use stamp_util::LabyrinthParams;
use tm::SystemKind;

fn main() {
    let f = bench::cli::parse("ablation_earlyrelease");
    let threads = f.val("threads");
    let params = LabyrinthParams {
        x: f.val("x"),
        y: f.val("y"),
        z: f.val("z"),
        paths: f.val("n"),
        seed: f.val("seed"),
    };
    let input = labyrinth::generate(&params);
    println!(
        "ABLATION: labyrinth early release on/off ({}x{}x{}, {} paths, {threads} threads)",
        params.x, params.y, params.z, params.paths
    );
    println!(
        "{:<11} {:>16} {:>10} {:>8} | {:>16} {:>10} {:>8}",
        "system", "cycles(ER on)", "retries", "routed", "cycles(ER off)", "retries", "routed"
    );
    for sys in [SystemKind::LazyHtm, SystemKind::EagerHtm] {
        let (r_on, rep_on) = labyrinth::route_tm_with(&input, tm_config(&f, sys, threads), true);
        let (r_off, rep_off) = labyrinth::route_tm_with(&input, tm_config(&f, sys, threads), false);
        assert!(labyrinth::verify(&input, &r_on), "invalid (on) under {sys}");
        assert!(
            labyrinth::verify(&input, &r_off),
            "invalid (off) under {sys}"
        );
        println!(
            "{:<11} {:>16} {:>10.2} {:>8} | {:>16} {:>10.2} {:>8}",
            sys.label(),
            rep_on.sim_cycles,
            rep_on.stats.retries_per_txn(),
            r_on.num_routed(),
            rep_off.sim_cycles,
            rep_off.stats.retries_per_txn(),
            r_off.num_routed()
        );
    }
}
