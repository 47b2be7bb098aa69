//! genome binary: `genome -g256 -s16 -n16384 --system lazy-stm
//! --threads 4`

use stamp_util::{tm_config_from_args, Args, GenomeParams};

fn main() {
    let args = Args::from_env();
    let cfg = tm_config_from_args(&args).unwrap_or_else(|e| {
        eprintln!("genome: {e}");
        std::process::exit(2)
    });
    let params = GenomeParams {
        gene_length: args.get_u64("g", 256),
        segment_length: args.get_u64("s", 16),
        num_segments: args.get_u64("n", 16384),
        seed: args.get_u32("seed", 0),
    };
    let report = genome::run(&params, cfg);
    println!("{report}");
    if !report.verified {
        std::process::exit(1);
    }
}
