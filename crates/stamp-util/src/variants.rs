//! The 30 recommended configurations of Table IV.
//!
//! `-low`/`-high` suffixes select contention levels (kmeans, vacation);
//! `+` and `++` select larger inputs. The 20 non-`++` variants are the
//! simulation-sized ones the paper uses for Table VI and Figure 1.

use crate::params::*;

/// One row of Table IV: a named application configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Variant {
    /// Variant name, e.g. `kmeans-high+`.
    pub name: &'static str,
    /// The original command-line arguments, verbatim from Table IV.
    pub args: &'static str,
    /// Structured parameters.
    pub params: AppParams,
}

impl Variant {
    /// Whether this is a simulation-sized variant (no `++` suffix) —
    /// the ones used in the paper's evaluation runs.
    pub fn sim_sized(&self) -> bool {
        !self.name.ends_with("++")
    }

    /// The application this variant drives.
    pub fn app(&self) -> AppKind {
        self.params.app()
    }

    /// A workload scaled down by an integer divisor, for quick harness
    /// runs on small machines. `scale == 1` returns the variant
    /// unchanged. Scaling shrinks the dominant workload dimension while
    /// preserving the contention-determining parameters.
    pub fn scaled(&self, scale: u32) -> AppParams {
        assert!(scale >= 1);
        let div = |v: u32| (v / scale).max(1);
        let div64 = |v: u64| (v / scale as u64).max(1);
        match self.params {
            AppParams::Bayes(p) => AppParams::Bayes(BayesParams {
                records: div(p.records).max(64),
                ..p
            }),
            AppParams::Genome(p) => AppParams::Genome(GenomeParams {
                gene_length: div64(p.gene_length).max(64),
                num_segments: div64(p.num_segments).max(256),
                ..p
            }),
            AppParams::Intruder(p) => AppParams::Intruder(IntruderParams {
                num_flows: div(p.num_flows).max(64),
                ..p
            }),
            AppParams::Kmeans(p) => AppParams::Kmeans(KmeansParams {
                points: div(p.points).max(256),
                ..p
            }),
            AppParams::Labyrinth(p) => AppParams::Labyrinth(LabyrinthParams {
                paths: div(p.paths).max(8),
                ..p
            }),
            AppParams::Ssca2(p) => AppParams::Ssca2(Ssca2Params {
                scale: p.scale.saturating_sub(scale.ilog2()).max(8),
                ..p
            }),
            AppParams::Vacation(p) => AppParams::Vacation(VacationParams {
                sessions: div(p.sessions).max(256),
                records: div(p.records).max(1024),
                ..p
            }),
            AppParams::Yada(p) => AppParams::Yada(YadaParams {
                init_points: div(p.init_points).max(64),
                ..p
            }),
        }
    }
}

/// All 30 variants of Table IV, in table order.
pub fn all_variants() -> Vec<Variant> {
    let bayes = |records, num_parent, percent_parent, max_e, seed| BayesParams {
        vars: 32,
        records,
        num_parent,
        percent_parent,
        insert_penalty: 2,
        max_num_edge_learned: max_e,
        seed,
        adtree: true,
    };
    let kmeans = |clusters, threshold, points, dims| KmeansParams {
        min_clusters: clusters,
        max_clusters: clusters,
        threshold,
        points,
        dims,
        centers: 16,
        seed: 7,
    };
    let vacation = |n, q, u, r, t| VacationParams {
        items_per_session: n,
        query_percent: q,
        user_percent: u,
        records: r,
        sessions: t,
        seed: 1,
    };
    vec![
        Variant {
            name: "bayes",
            args: "-v32 -r1024 -n2 -p20 -i2 -e2",
            params: AppParams::Bayes(bayes(1024, 2, 20, 2, 1)),
        },
        Variant {
            name: "bayes+",
            args: "-v32 -r4096 -n2 -p20 -i2 -e2",
            params: AppParams::Bayes(bayes(4096, 2, 20, 2, 1)),
        },
        Variant {
            name: "bayes++",
            args: "-v32 -r4096 -n10 -p40 -i2 -e8 -s1",
            params: AppParams::Bayes(bayes(4096, 10, 40, 8, 1)),
        },
        Variant {
            name: "genome",
            args: "-g256 -s16 -n16384",
            params: AppParams::Genome(GenomeParams {
                gene_length: 256,
                segment_length: 16,
                num_segments: 16384,
                seed: 0,
            }),
        },
        Variant {
            name: "genome+",
            args: "-g512 -s32 -n32768",
            params: AppParams::Genome(GenomeParams {
                gene_length: 512,
                segment_length: 32,
                num_segments: 32768,
                seed: 0,
            }),
        },
        Variant {
            name: "genome++",
            args: "-g16384 -s64 -n16777216",
            params: AppParams::Genome(GenomeParams {
                gene_length: 16384,
                segment_length: 64,
                num_segments: 16_777_216,
                seed: 0,
            }),
        },
        Variant {
            name: "intruder",
            args: "-a10 -l4 -n2048 -s1",
            params: AppParams::Intruder(IntruderParams {
                attack_percent: 10,
                max_packets_per_flow: 4,
                num_flows: 2048,
                seed: 1,
            }),
        },
        Variant {
            name: "intruder+",
            args: "-a10 -l16 -n4096 -s1",
            params: AppParams::Intruder(IntruderParams {
                attack_percent: 10,
                max_packets_per_flow: 16,
                num_flows: 4096,
                seed: 1,
            }),
        },
        Variant {
            name: "intruder++",
            args: "-a10 -l128 -n262144 -s1",
            params: AppParams::Intruder(IntruderParams {
                attack_percent: 10,
                max_packets_per_flow: 128,
                num_flows: 262_144,
                seed: 1,
            }),
        },
        Variant {
            name: "kmeans-high",
            args: "-m15 -n15 -t0.05 -i random-n2048-d16-c16",
            params: AppParams::Kmeans(kmeans(15, 0.05, 2048, 16)),
        },
        Variant {
            name: "kmeans-high+",
            args: "-m15 -n15 -t0.05 -i random-n16384-d24-c16",
            params: AppParams::Kmeans(kmeans(15, 0.05, 16384, 24)),
        },
        Variant {
            name: "kmeans-high++",
            args: "-m15 -n15 -t0.00001 -i random-n65536-d32-c16",
            params: AppParams::Kmeans(kmeans(15, 0.00001, 65536, 32)),
        },
        Variant {
            name: "kmeans-low",
            args: "-m40 -n40 -t0.05 -i random-n2048-d16-c16",
            params: AppParams::Kmeans(kmeans(40, 0.05, 2048, 16)),
        },
        Variant {
            name: "kmeans-low+",
            args: "-m40 -n40 -t0.05 -i random-n16384-d24-c16",
            params: AppParams::Kmeans(kmeans(40, 0.05, 16384, 24)),
        },
        Variant {
            name: "kmeans-low++",
            args: "-m40 -n40 -t0.00001 -i random-n65536-d32-c16",
            params: AppParams::Kmeans(kmeans(40, 0.00001, 65536, 32)),
        },
        Variant {
            name: "labyrinth",
            args: "-i random-x32-y32-z3-n96",
            params: AppParams::Labyrinth(LabyrinthParams {
                x: 32,
                y: 32,
                z: 3,
                paths: 96,
                seed: 5,
            }),
        },
        Variant {
            name: "labyrinth+",
            args: "-i random-x48-y48-z3-n64",
            params: AppParams::Labyrinth(LabyrinthParams {
                x: 48,
                y: 48,
                z: 3,
                paths: 64,
                seed: 5,
            }),
        },
        Variant {
            name: "labyrinth++",
            args: "-i random-x512-y512-z7-n512",
            params: AppParams::Labyrinth(LabyrinthParams {
                x: 512,
                y: 512,
                z: 7,
                paths: 512,
                seed: 5,
            }),
        },
        Variant {
            name: "ssca2",
            args: "-s13 -i1.0 -u1.0 -l3 -p3",
            params: AppParams::Ssca2(Ssca2Params {
                scale: 13,
                prob_interclique: 1.0,
                prob_unidirectional: 1.0,
                max_path_length: 3,
                max_parallel_edges: 3,
                seed: 3,
            }),
        },
        Variant {
            name: "ssca2+",
            args: "-s14 -i1.0 -u1.0 -l9 -p9",
            params: AppParams::Ssca2(Ssca2Params {
                scale: 14,
                prob_interclique: 1.0,
                prob_unidirectional: 1.0,
                max_path_length: 9,
                max_parallel_edges: 9,
                seed: 3,
            }),
        },
        Variant {
            name: "ssca2++",
            args: "-s20 -i1.0 -u1.0 -l3 -p3",
            params: AppParams::Ssca2(Ssca2Params {
                scale: 20,
                prob_interclique: 1.0,
                prob_unidirectional: 1.0,
                max_path_length: 3,
                max_parallel_edges: 3,
                seed: 3,
            }),
        },
        Variant {
            name: "vacation-high",
            args: "-n4 -q60 -u90 -r16384 -t4096",
            params: AppParams::Vacation(vacation(4, 60, 90, 16384, 4096)),
        },
        Variant {
            name: "vacation-high+",
            args: "-n4 -q60 -u90 -r1048576 -t4096",
            params: AppParams::Vacation(vacation(4, 60, 90, 1_048_576, 4096)),
        },
        Variant {
            name: "vacation-high++",
            args: "-n4 -q60 -u90 -r1048576 -t4194304",
            params: AppParams::Vacation(vacation(4, 60, 90, 1_048_576, 4_194_304)),
        },
        Variant {
            name: "vacation-low",
            args: "-n2 -q90 -u98 -r16384 -t4096",
            params: AppParams::Vacation(vacation(2, 90, 98, 16384, 4096)),
        },
        Variant {
            name: "vacation-low+",
            args: "-n2 -q90 -u98 -r1048576 -t4096",
            params: AppParams::Vacation(vacation(2, 90, 98, 1_048_576, 4096)),
        },
        Variant {
            name: "vacation-low++",
            args: "-n2 -q90 -u98 -r1048576 -t4194304",
            params: AppParams::Vacation(vacation(2, 90, 98, 1_048_576, 4_194_304)),
        },
        Variant {
            name: "yada",
            args: "-a20 -i 633.2",
            params: AppParams::Yada(YadaParams {
                min_angle: 20.0,
                init_points: 640,
                seed: 9,
            }),
        },
        Variant {
            name: "yada+",
            args: "-a10 -i ttimeu10000.2",
            params: AppParams::Yada(YadaParams {
                min_angle: 10.0,
                init_points: 10_000,
                seed: 9,
            }),
        },
        Variant {
            name: "yada++",
            args: "-a15 -i ttimeu1000000.2",
            params: AppParams::Yada(YadaParams {
                min_angle: 15.0,
                init_points: 1_000_000,
                seed: 9,
            }),
        },
    ]
}

/// The 20 simulation-sized variants (Table VI / Figure 1).
pub fn sim_variants() -> Vec<Variant> {
    all_variants()
        .into_iter()
        .filter(Variant::sim_sized)
        .collect()
}

/// Look a variant up by name.
pub fn variant(name: &str) -> Option<Variant> {
    all_variants().into_iter().find(|v| v.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thirty_variants_twenty_sim_sized() {
        assert_eq!(all_variants().len(), 30);
        assert_eq!(sim_variants().len(), 20);
    }

    #[test]
    fn names_unique() {
        let vs = all_variants();
        let mut names: Vec<_> = vs.iter().map(|v| v.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 30);
    }

    #[test]
    fn lookup_by_name() {
        let v = variant("kmeans-low+").unwrap();
        match v.params {
            AppParams::Kmeans(p) => {
                assert_eq!(p.min_clusters, 40);
                assert_eq!(p.points, 16384);
                assert_eq!(p.dims, 24);
            }
            _ => panic!("wrong app"),
        }
        assert!(variant("nonesuch").is_none());
    }

    #[test]
    fn every_app_has_three_or_six_variants() {
        use std::collections::HashMap;
        let mut counts: HashMap<AppKind, usize> = HashMap::new();
        for v in all_variants() {
            *counts.entry(v.app()).or_default() += 1;
        }
        assert_eq!(counts[&AppKind::Kmeans], 6);
        assert_eq!(counts[&AppKind::Vacation], 6);
        for app in [
            AppKind::Bayes,
            AppKind::Genome,
            AppKind::Intruder,
            AppKind::Labyrinth,
            AppKind::Ssca2,
            AppKind::Yada,
        ] {
            assert_eq!(counts[&app], 3, "{app}");
        }
    }

    #[test]
    fn scaling_preserves_contention_knobs() {
        let v = variant("vacation-high").unwrap();
        let AppParams::Vacation(p) = v.scaled(4) else {
            panic!()
        };
        assert_eq!(p.sessions, 1024);
        assert_eq!(p.user_percent, 90);
        assert_eq!(p.query_percent, 60);
        let AppParams::Vacation(orig) = v.scaled(1) else {
            panic!()
        };
        assert_eq!(orig.sessions, 4096);
    }

    /// The typed parameters agree with the paper's arguments wherever
    /// those name no input file, read by the app binary's own rows.
    #[test]
    fn params_match_the_papers_args() {
        use crate::flags::Table;
        let mut checked = 0;
        for v in all_variants().iter().filter(|v| !v.args.contains("-i ")) {
            let args = v.args.split_whitespace().map(String::from);
            let table = Table::new(v.app().name(), v.app().rows());
            let f = table.parse(args, |_| None).unwrap();
            let parsed = match v.params {
                AppParams::Bayes(_) => AppParams::Bayes(AppArgs::from_flags(&f)),
                AppParams::Genome(_) => AppParams::Genome(AppArgs::from_flags(&f)),
                AppParams::Intruder(_) => AppParams::Intruder(AppArgs::from_flags(&f)),
                AppParams::Ssca2(_) => AppParams::Ssca2(AppArgs::from_flags(&f)),
                AppParams::Vacation(_) => AppParams::Vacation(AppArgs::from_flags(&f)),
                _ => panic!("{}: no input file in {:?}", v.name, v.args),
            };
            assert_eq!(parsed, v.params, "{}", v.name);
            checked += 1;
        }
        assert_eq!(checked, 18);
    }

    #[test]
    fn plus_plus_suffix_detected() {
        assert!(variant("bayes").unwrap().sim_sized());
        assert!(!variant("bayes++").unwrap().sim_sized());
        assert!(variant("kmeans-high+").unwrap().sim_sized());
    }
}
