//! genome binary: `genome -g256 -s16 -n16384 --system lazy-stm
//! --threads 4`

fn main() {
    stamp_util::app_main(genome::run)
}
