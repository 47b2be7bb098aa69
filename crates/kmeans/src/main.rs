//! kmeans binary: `kmeans -m15 -n15 -t0.05 --points 2048 --dims 16
//! --centers 16 --system lazy-stm --threads 4`

use stamp_util::{tm_config_from_args, Args, KmeansParams};

fn main() {
    let args = Args::from_env();
    let cfg = tm_config_from_args(&args).unwrap_or_else(|e| {
        eprintln!("kmeans: {e}");
        std::process::exit(2)
    });
    let params = KmeansParams {
        min_clusters: args.get_u32("m", 15),
        max_clusters: args.get_u32("n", 15),
        threshold: args.get_f64("t", 0.05),
        points: args.get_u32("points", 2048),
        dims: args.get_u32("dims", 16),
        centers: args.get_u32("centers", 16),
        seed: args.get_u32("s", 7),
    };
    let report = kmeans::run(&params, cfg);
    println!("{report}");
    if !report.verified {
        std::process::exit(1);
    }
}
