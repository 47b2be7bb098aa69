//! yada binary: `yada -a20 --points 640 --system lazy-stm --threads 4`
//! (`--points` stands in for the paper's mesh files; 633.2 ≈ 640).

use stamp_util::{tm_config_from_args, Args, YadaParams};

fn main() {
    let args = Args::from_env();
    let cfg = tm_config_from_args(&args).unwrap_or_else(|e| {
        eprintln!("yada: {e}");
        std::process::exit(2)
    });
    let params = YadaParams {
        min_angle: args.get_f64("a", 20.0),
        init_points: args.get_u32("points", 640),
        seed: args.get_u32("seed", 9),
    };
    let report = yada::run(&params, cfg);
    println!("{report}");
    if !report.verified {
        std::process::exit(1);
    }
}
