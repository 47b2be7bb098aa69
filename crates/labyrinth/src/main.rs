//! labyrinth binary: `labyrinth -x32 -y32 -z3 -n96 --system lazy-htm
//! --threads 4`

use stamp_util::{tm_config_from_args, Args, LabyrinthParams};

fn main() {
    let args = Args::from_env();
    let params = LabyrinthParams {
        x: args.get_u32("x", 32),
        y: args.get_u32("y", 32),
        z: args.get_u32("z", 3),
        paths: args.get_u32("n", 96),
        seed: args.get_u32("seed", 5),
    };
    let cfg = tm_config_from_args(&args).unwrap_or_else(|e| {
        eprintln!("labyrinth: {e}");
        std::process::exit(2)
    });
    let report = labyrinth::run(&params, cfg);
    println!("{report}");
    if !report.verified {
        std::process::exit(1);
    }
}
