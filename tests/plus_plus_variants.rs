//! The `++` (large-input) variants of Table IV: the registry's
//! parameters are exact, and every `++` variant runs and verifies when
//! scaled down (the full sizes are multi-hour runs by design; the
//! harness accepts them via `--variants ... --scale 1`).

use bench::checked_run;
use stamp::tm::{SystemKind, TmConfig};
use stamp::util::{all_variants, AppParams};

#[test]
fn every_plus_plus_variant_runs_scaled() {
    let pp: Vec<_> = all_variants()
        .into_iter()
        .filter(|v| v.name.ends_with("++"))
        .collect();
    assert_eq!(pp.len(), 10, "ten ++ variants in Table IV");
    for v in pp {
        // Scale hard: these inputs are up to 2^20 nodes / 16M segments.
        checked_run(&v, 512, TmConfig::new(SystemKind::LazyHtm, 4));
    }
}

/// The `++` parameters themselves match Table IV exactly.
#[test]
fn plus_plus_parameters_match_table_iv() {
    use stamp::util::variant;
    match variant("genome++").unwrap().params {
        AppParams::Genome(p) => {
            assert_eq!(p.gene_length, 16384);
            assert_eq!(p.segment_length, 64);
            assert_eq!(p.num_segments, 16_777_216);
        }
        _ => panic!(),
    }
    match variant("ssca2++").unwrap().params {
        AppParams::Ssca2(p) => assert_eq!(p.scale, 20),
        _ => panic!(),
    }
    match variant("vacation-high++").unwrap().params {
        AppParams::Vacation(p) => {
            assert_eq!(p.records, 1_048_576);
            assert_eq!(p.sessions, 4_194_304);
        }
        _ => panic!(),
    }
    match variant("labyrinth++").unwrap().params {
        AppParams::Labyrinth(p) => {
            assert_eq!((p.x, p.y, p.z, p.paths), (512, 512, 7, 512));
        }
        _ => panic!(),
    }
    match variant("yada++").unwrap().params {
        AppParams::Yada(p) => {
            assert_eq!(p.init_points, 1_000_000);
            assert_eq!(p.min_angle, 15.0);
        }
        _ => panic!(),
    }
}
