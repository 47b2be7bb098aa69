//! Per-application parameter structs mirroring the command-line flags of
//! the original suite (Table IV of the paper); each struct is declared
//! with its app binary's own flag rows ([`AppArgs`]).

use crate::flags::{Flag, Flags};

/// Declares an app's parameter struct and its binary's own flag rows
/// together: each field is one row (flag, default), and the field's
/// doc line is the row's `--help` text.
macro_rules! app_params {
    ($(#[$meta:meta])* $ty:ident for $app:ident {
        $(#[doc = $help:literal] $field:ident: $fty:ty = $flag:literal, $default:expr;)*
    }) => {
        $(#[$meta])*
        pub struct $ty {
            $(#[doc = $help] pub $field: $fty,)*
        }

        impl AppArgs for $ty {
            const APP: AppKind = AppKind::$app;

            fn rows() -> Vec<Flag> {
                vec![$(Flag::num::<$fty>($flag, $default, $help.trim())),*]
            }

            fn from_flags(f: &Flags) -> Self {
                $ty { $($field: f.val($flag)),* }
            }
        }
    };
}

/// Parameters an app binary fills from its flag rows.
pub trait AppArgs: Sized {
    /// The application.
    const APP: AppKind;
    /// The binary's own rows, with the CLI's defaults.
    fn rows() -> Vec<Flag>;
    /// The parameters the already-checked `f` describes.
    fn from_flags(f: &Flags) -> Self;
}

app_params! {
    /// bayes: learn the structure of a Bayesian network (on average
    /// `n × p%` parents per variable in the generated ground truth).
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    BayesParams for Bayes {
        /// Number of variables.
        vars: u32 = "v", 32;
        /// Number of observed records.
        records: u32 = "r", 1024;
        /// Parents per variable in the generated ground-truth net.
        num_parent: u32 = "n", 2;
        /// Percent chance of each candidate parent.
        percent_parent: u32 = "p", 20;
        /// Edge-insertion penalty.
        insert_penalty: u32 = "i", 2;
        /// Maximum edges learned per variable.
        max_num_edge_learned: u32 = "e", 2;
        /// PRNG seed.
        seed: u32 = "s", 1;
        /// Score with the ADtree (false: scan the records, the ablation's denser read sets).
        adtree: bool = "adtree", true;
    }
}

app_params! {
    /// genome: reconstruct a gene from segments.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    GenomeParams for Genome {
        /// Gene length in nucleotides.
        gene_length: u64 = "g", 256;
        /// Segment length.
        segment_length: u64 = "s", 16;
        /// Number of segments sampled.
        num_segments: u64 = "n", 16384;
        /// PRNG seed.
        seed: u32 = "seed", 0;
    }
}

app_params! {
    /// intruder: signature-based network intrusion detection.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    IntruderParams for Intruder {
        /// Percentage of flows carrying an attack.
        attack_percent: u32 = "a", 10;
        /// Maximum packets per flow.
        max_packets_per_flow: u32 = "l", 4;
        /// Number of traffic flows.
        num_flows: u32 = "n", 2048;
        /// PRNG seed.
        seed: u32 = "s", 1;
    }
}

app_params! {
    /// kmeans: K-means clustering of the generated input
    /// `random-n<points>-d<dims>-c<centers>`.
    #[derive(Debug, Clone, Copy, PartialEq)]
    KmeansParams for Kmeans {
        /// Minimum number of clusters tried.
        min_clusters: u32 = "m", 15;
        /// Maximum number of clusters tried.
        max_clusters: u32 = "n", 15;
        /// Convergence threshold.
        threshold: f64 = "t", 0.05;
        /// Number of input points.
        points: u32 = "points", 2048;
        /// Dimensions per point.
        dims: u32 = "dims", 16;
        /// Number of generating centers.
        centers: u32 = "centers", 16;
        /// PRNG seed for input generation.
        seed: u32 = "s", 7;
    }
}

app_params! {
    /// labyrinth: Lee's maze routing on the input maze
    /// `random-x<x>-y<y>-z<z>-n<paths>`.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    LabyrinthParams for Labyrinth {
        /// Maze width.
        x: u32 = "x", 32;
        /// Maze height.
        y: u32 = "y", 32;
        /// Maze depth.
        z: u32 = "z", 3;
        /// Number of paths to route.
        paths: u32 = "n", 96;
        /// PRNG seed for endpoint generation.
        seed: u32 = "seed", 5;
    }
}

app_params! {
    /// ssca2: kernel 1 of the SSCA2 graph benchmark.
    #[derive(Debug, Clone, Copy, PartialEq)]
    Ssca2Params for Ssca2 {
        /// log2 of the number of nodes.
        scale: u32 = "s", 13;
        /// Probability of inter-clique edges.
        prob_interclique: f64 = "i", 1.0;
        /// Probability of unidirectional edges.
        prob_unidirectional: f64 = "u", 1.0;
        /// Maximum path length between cliques.
        max_path_length: u32 = "l", 3;
        /// Maximum number of parallel edges.
        max_parallel_edges: u32 = "p", 3;
        /// PRNG seed.
        seed: u32 = "seed", 3;
    }
}

app_params! {
    /// vacation: travel-reservation OLTP.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    VacationParams for Vacation {
        /// Max items touched per session.
        items_per_session: u32 = "n", 4;
        /// Percent of records eligible per query.
        query_percent: u32 = "q", 60;
        /// Percent of sessions that reserve or cancel (the rest create or destroy).
        user_percent: u32 = "u", 90;
        /// Records of each reservation item.
        records: u32 = "r", 16384;
        /// Total client sessions.
        sessions: u32 = "t", 4096;
        /// PRNG seed.
        seed: u32 = "seed", 1;
    }
}

app_params! {
    /// yada: Ruppert's Delaunay refinement. The paper's `633.2` input
    /// mesh has 1264 elements, about 640 points.
    #[derive(Debug, Clone, Copy, PartialEq)]
    YadaParams for Yada {
        /// Minimum triangle angle in degrees.
        min_angle: f64 = "a", 20.0;
        /// Approximate number of vertices in the generated input mesh.
        init_points: u32 = "points", 640;
        /// PRNG seed for mesh generation.
        seed: u32 = "seed", 9;
    }
}

/// The eight applications.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AppKind {
    /// Bayesian-network structure learning.
    Bayes,
    /// Gene-sequence assembly.
    Genome,
    /// Network intrusion detection.
    Intruder,
    /// K-means clustering.
    Kmeans,
    /// Maze routing.
    Labyrinth,
    /// SSCA2 kernel 1 graph construction.
    Ssca2,
    /// Travel-reservation OLTP.
    Vacation,
    /// Delaunay mesh refinement.
    Yada,
}

impl AppKind {
    /// All eight apps in the paper's order.
    pub const ALL: [AppKind; 8] = [
        AppKind::Bayes,
        AppKind::Genome,
        AppKind::Intruder,
        AppKind::Kmeans,
        AppKind::Labyrinth,
        AppKind::Ssca2,
        AppKind::Vacation,
        AppKind::Yada,
    ];

    /// Lower-case application name.
    pub fn name(self) -> &'static str {
        match self {
            AppKind::Bayes => "bayes",
            AppKind::Genome => "genome",
            AppKind::Intruder => "intruder",
            AppKind::Kmeans => "kmeans",
            AppKind::Labyrinth => "labyrinth",
            AppKind::Ssca2 => "ssca2",
            AppKind::Vacation => "vacation",
            AppKind::Yada => "yada",
        }
    }

    /// The paper's application domain (Table II).
    pub fn domain(self) -> &'static str {
        match self {
            AppKind::Bayes => "machine learning",
            AppKind::Genome => "bioinformatics",
            AppKind::Intruder => "security",
            AppKind::Kmeans => "data mining",
            AppKind::Labyrinth => "engineering",
            AppKind::Ssca2 => "scientific",
            AppKind::Vacation => "online transaction processing",
            AppKind::Yada => "scientific",
        }
    }

    /// The paper's one-line description (Table II).
    pub fn description(self) -> &'static str {
        match self {
            AppKind::Bayes => "Learns structure of a Bayesian network",
            AppKind::Genome => "Performs gene sequencing",
            AppKind::Intruder => "Detects network intrusions",
            AppKind::Kmeans => "Implements K-means clustering",
            AppKind::Labyrinth => "Routes paths in maze",
            AppKind::Ssca2 => "Creates efficient graph representation",
            AppKind::Vacation => "Emulates travel reservation system",
            AppKind::Yada => "Refines a Delaunay mesh",
        }
    }

    /// The app binary's own flag rows ([`AppArgs::rows`]).
    pub fn rows(self) -> Vec<Flag> {
        match self {
            AppKind::Bayes => BayesParams::rows(),
            AppKind::Genome => GenomeParams::rows(),
            AppKind::Intruder => IntruderParams::rows(),
            AppKind::Kmeans => KmeansParams::rows(),
            AppKind::Labyrinth => LabyrinthParams::rows(),
            AppKind::Ssca2 => Ssca2Params::rows(),
            AppKind::Vacation => VacationParams::rows(),
            AppKind::Yada => YadaParams::rows(),
        }
    }
}

impl std::fmt::Display for AppKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Parameters for any of the eight applications.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AppParams {
    /// bayes parameters.
    Bayes(BayesParams),
    /// genome parameters.
    Genome(GenomeParams),
    /// intruder parameters.
    Intruder(IntruderParams),
    /// kmeans parameters.
    Kmeans(KmeansParams),
    /// labyrinth parameters.
    Labyrinth(LabyrinthParams),
    /// ssca2 parameters.
    Ssca2(Ssca2Params),
    /// vacation parameters.
    Vacation(VacationParams),
    /// yada parameters.
    Yada(YadaParams),
}

impl AppParams {
    /// Which application these parameters belong to.
    pub fn app(&self) -> AppKind {
        match self {
            AppParams::Bayes(_) => AppKind::Bayes,
            AppParams::Genome(_) => AppKind::Genome,
            AppParams::Intruder(_) => AppKind::Intruder,
            AppParams::Kmeans(_) => AppKind::Kmeans,
            AppParams::Labyrinth(_) => AppKind::Labyrinth,
            AppParams::Ssca2(_) => AppKind::Ssca2,
            AppParams::Vacation(_) => AppKind::Vacation,
            AppParams::Yada(_) => AppKind::Yada,
        }
    }
}
