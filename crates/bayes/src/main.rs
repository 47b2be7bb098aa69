//! bayes binary: `bayes -v32 -r1024 -n2 -p20 -i2 -e2 --system lazy-stm
//! --threads 4`

fn main() {
    stamp_util::app_main(bayes::run)
}
