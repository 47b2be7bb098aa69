//! vacation binary: `vacation -n4 -q60 -u90 -r16384 -t4096 --system
//! lazy-stm --threads 4`

fn main() {
    stamp_util::app_main(vacation::run)
}
