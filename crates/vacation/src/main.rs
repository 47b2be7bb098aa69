//! vacation binary: `vacation -n4 -q60 -u90 -r16384 -t4096 --system
//! lazy-stm --threads 4`

use stamp_util::{tm_config_from_args, Args, VacationParams};

fn main() {
    let args = Args::from_env();
    let params = VacationParams {
        items_per_session: args.get_u32("n", 4),
        query_percent: args.get_u32("q", 60),
        user_percent: args.get_u32("u", 90),
        records: args.get_u32("r", 16384),
        sessions: args.get_u32("t", 4096),
        seed: args.get_u32("seed", 1),
    };
    let cfg = tm_config_from_args(&args).unwrap_or_else(|e| {
        eprintln!("vacation: {e}");
        std::process::exit(2)
    });
    let report = vacation::run(&params, cfg);
    println!("{report}");
    if !report.verified {
        std::process::exit(1);
    }
}
