//! intruder binary: `intruder -a10 -l4 -n2048 -s1 --system eager-htm
//! --threads 8`

use stamp_util::{tm_config_from_args, Args, IntruderParams};

fn main() {
    let args = Args::from_env();
    let params = IntruderParams {
        attack_percent: args.get_u32("a", 10),
        max_packets_per_flow: args.get_u32("l", 4),
        num_flows: args.get_u32("n", 2048),
        seed: args.get_u32("s", 1),
    };
    let cfg = tm_config_from_args(&args).unwrap_or_else(|e| {
        eprintln!("intruder: {e}");
        std::process::exit(2)
    });
    let report = intruder::run(&params, cfg);
    println!("{report}");
    if !report.verified {
        std::process::exit(1);
    }
}
