//! labyrinth binary: `labyrinth -x32 -y32 -z3 -n96 --system lazy-htm
//! --threads 4`

fn main() {
    stamp_util::app_main(labyrinth::run)
}
