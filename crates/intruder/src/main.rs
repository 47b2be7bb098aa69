//! intruder binary: `intruder -a10 -l4 -n2048 -s1 --system eager-htm
//! --threads 8`

fn main() {
    stamp_util::app_main(intruder::run)
}
