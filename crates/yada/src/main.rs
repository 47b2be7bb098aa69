//! yada binary: `yada -a20 --points 640 --system lazy-stm --threads 4`
//! (`--points` stands in for the paper's mesh files; 633.2 ≈ 640).

fn main() {
    stamp_util::app_main(yada::run)
}
