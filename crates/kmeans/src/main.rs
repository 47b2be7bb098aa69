//! kmeans binary: `kmeans -m15 -n15 -t0.05 --points 2048 --dims 16
//! --centers 16 --system lazy-stm --threads 4`

fn main() {
    stamp_util::app_main(kmeans::run)
}
