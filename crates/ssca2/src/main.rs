//! ssca2 binary: `ssca2 -s13 -i1.0 -u1.0 -l3 -p3 --system lazy-htm
//! --threads 8`

fn main() {
    stamp_util::app_main(ssca2::run)
}
