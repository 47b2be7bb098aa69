//! ssca2 binary: `ssca2 -s13 -i1.0 -u1.0 -l3 -p3 --system lazy-htm
//! --threads 8`

use stamp_util::{tm_config_from_args, Args, Ssca2Params};

fn main() {
    let args = Args::from_env();
    let cfg = tm_config_from_args(&args).unwrap_or_else(|e| {
        eprintln!("ssca2: {e}");
        std::process::exit(2)
    });
    let params = Ssca2Params {
        scale: args.get_u32("s", 13),
        prob_interclique: args.get_f64("i", 1.0),
        prob_unidirectional: args.get_f64("u", 1.0),
        max_path_length: args.get_u32("l", 3),
        max_parallel_edges: args.get_u32("p", 3),
        seed: args.get_u32("seed", 3),
    };
    let report = ssca2::run(&params, cfg);
    println!("{report}");
    if !report.verified {
        std::process::exit(1);
    }
}
