//! bayes binary: `bayes -v32 -r1024 -n2 -p20 -i2 -e2 --system lazy-stm
//! --threads 4`

use stamp_util::{tm_config_from_args, Args, BayesParams};

fn main() {
    let args = Args::from_env();
    let cfg = tm_config_from_args(&args).unwrap_or_else(|e| {
        eprintln!("bayes: {e}");
        std::process::exit(2)
    });
    let params = BayesParams {
        vars: args.get_u32("v", 32),
        records: args.get_u32("r", 1024),
        num_parent: args.get_u32("n", 2),
        percent_parent: args.get_u32("p", 20),
        insert_penalty: args.get_u32("i", 2),
        max_num_edge_learned: args.get_u32("e", 2),
        seed: args.get_u32("s", 1),
        adtree: !args.get_bool("scan-backend"),
    };
    let report = bayes::run(&params, cfg);
    println!("{report}");
    if !report.verified {
        std::process::exit(1);
    }
}
