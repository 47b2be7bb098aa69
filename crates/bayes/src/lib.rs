//! # bayes — Bayesian-network structure learning (STAMP application 1)
//!
//! Learns the dependency structure of a Bayesian network over binary
//! variables from observed records via hill climbing (§III-B1 of the
//! paper, after Chickering et al.). Candidate edges are scored with a
//! local log-likelihood score; a transaction protects the *calculation
//! and insertion* of each new dependency, because the result depends on
//! the current extent of the subgraph containing the variable (parent
//! sets and the acyclicity check both read the shared network).
//!
//! **Adtree substitution.** The original uses an ADtree (Moore & Lee)
//! for sufficient statistics. With at most 32 binary variables (all
//! Table IV configurations use `-v32`), a record packs exactly into one
//! 64-bit heap word, and any count query is a masked scan over the
//! record array. The scan preserves what matters to the TM evaluation:
//! score calculations inside transactions read hundreds of cache lines
//! (Table VI reports a 452-line read set), while the *explicit* STM
//! read barriers stay few because the record array is immutable and its
//! reads are elided following the paper's manual barrier optimization —
//! the HTMs still track them implicitly, which is exactly the asymmetry
//! behind the paper's bayes result (§V-B1).
//!
//! Transactional profile (Table III): long transactions, large
//! read/write sets, high time in transactions, high contention.

#![warn(missing_docs)]

pub mod adtree;

use stamp_util::{AppReport, BayesParams, Mt19937};
use tm::txn::TxResult;
use tm::{TArray, TmConfig, TmRuntime, Txn};
use tm_ds::{SetupMem, TmList, TmPQueue};

/// Maximum supported variables (one record per 64-bit word).
pub const MAX_VARS: u32 = 32;

/// A generated learning problem.
#[derive(Debug, Clone)]
pub struct Input {
    /// Number of binary variables.
    pub vars: u32,
    /// Observed records, bit `i` = value of variable `i`.
    pub records: Vec<u64>,
    /// Ground-truth edges `(parent, child)` used by the generator.
    pub true_edges: Vec<(u32, u32)>,
}

/// Generate a random ground-truth network and sample `records` from it
/// by ancestral sampling, as STAMP's `data.c` does. Each variable gets
/// `num_parent` candidate parents, each kept with probability
/// `percent_parent`% (so `n × p` parents on average, per Table IV).
pub fn generate(p: &BayesParams) -> Input {
    assert!(p.vars <= MAX_VARS, "at most {MAX_VARS} variables supported");
    let mut rng = Mt19937::new(p.seed);
    let v = p.vars;
    // Parents always precede children in variable order (acyclic by
    // construction).
    let mut parents: Vec<Vec<u32>> = vec![Vec::new(); v as usize];
    let mut true_edges = Vec::new();
    for child in 1..v {
        for _ in 0..p.num_parent {
            if rng.below(100) < p.percent_parent as u64 {
                let parent = rng.below(child as u64) as u32;
                if !parents[child as usize].contains(&parent) {
                    parents[child as usize].push(parent);
                    true_edges.push((parent, child));
                }
            }
        }
    }
    // Random conditional probability tables: for each parent config, a
    // probability of the child being 1. Strong dependencies (close to
    // 0/1) make the structure learnable.
    let cpts: Vec<Vec<f64>> = (0..v)
        .map(|child| {
            let n_cfg = 1usize << parents[child as usize].len();
            (0..n_cfg)
                .map(|_| if rng.below(2) == 0 { 0.1 } else { 0.9 })
                .collect()
        })
        .collect();
    let mut records = Vec::with_capacity(p.records as usize);
    for _ in 0..p.records {
        let mut rec = 0u64;
        for child in 0..v {
            let mut cfg = 0usize;
            for (k, &par) in parents[child as usize].iter().enumerate() {
                if rec >> par & 1 == 1 {
                    cfg |= 1 << k;
                }
            }
            let prob = cpts[child as usize][cfg];
            if rng.next_f64() < prob {
                rec |= 1 << child;
            }
        }
        records.push(rec);
    }
    Input {
        vars: v,
        records,
        true_edges,
    }
}

/// A learned network: parent sets per variable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Network {
    /// `parents[v]` = sorted parent ids of `v`.
    pub parents: Vec<Vec<u32>>,
}

impl Network {
    /// Check acyclicity.
    pub fn is_acyclic(&self) -> bool {
        let n = self.parents.len();
        // Kahn's algorithm over child edges.
        let mut indeg = vec![0usize; n];
        for (child, ps) in self.parents.iter().enumerate() {
            indeg[child] = ps.len();
        }
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (child, ps) in self.parents.iter().enumerate() {
            for &p in ps {
                children[p as usize].push(child);
            }
        }
        let mut queue: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut seen = 0;
        while let Some(u) = queue.pop() {
            seen += 1;
            for &c in &children[u] {
                indeg[c] -= 1;
                if indeg[c] == 0 {
                    queue.push(c);
                }
            }
        }
        seen == n
    }

    /// All edges `(parent, child)`, sorted.
    pub fn edges(&self) -> Vec<(u32, u32)> {
        let mut out = Vec::new();
        for (child, ps) in self.parents.iter().enumerate() {
            for &p in ps {
                out.push((p, child as u32));
            }
        }
        out.sort_unstable();
        out
    }
}

/// Local log-likelihood of variable `child` given `parents`, computed
/// by one scan over the records.
fn local_score(records: &[u64], child: u32, parents: &[u32]) -> f64 {
    let k = parents.len();
    let n_cfg = 1usize << k;
    let mut counts = vec![[0u64; 2]; n_cfg];
    for &rec in records {
        let mut cfg = 0usize;
        for (i, &p) in parents.iter().enumerate() {
            if rec >> p & 1 == 1 {
                cfg |= 1 << i;
            }
        }
        counts[cfg][(rec >> child & 1) as usize] += 1;
    }
    log_likelihood(&counts)
}

fn log_likelihood(counts: &[[u64; 2]]) -> f64 {
    let mut ll = 0.0;
    for c in counts {
        let total = c[0] + c[1];
        if total == 0 {
            continue;
        }
        for &n in c {
            if n > 0 {
                ll += n as f64 * ((n as f64 / total as f64).ln());
            }
        }
    }
    ll
}

/// Edge-insertion penalty (a BIC-style complexity term scaled by the
/// Table IV `-i` flag).
fn penalty(p: &BayesParams) -> f64 {
    p.insert_penalty as f64 * (p.records as f64).ln() / 2.0
}

/// Sequential reference learner: greedy hill climbing, one variable
/// task at a time, identical scoring to the parallel version.
pub fn learn_seq(input: &Input, p: &BayesParams) -> Network {
    let v = input.vars;
    let mut parents: Vec<Vec<u32>> = vec![Vec::new(); v as usize];
    let pen = penalty(p);
    // children map for cycle checks
    let creates_cycle = |parents: &Vec<Vec<u32>>, from: u32, to: u32| {
        // inserting from -> to creates a cycle iff to can reach from via
        // existing child edges, i.e. from is an ancestor query reversed:
        // BFS from `to` through children.
        let mut children: Vec<Vec<u32>> = vec![Vec::new(); v as usize];
        for (child, ps) in parents.iter().enumerate() {
            for &pp in ps {
                children[pp as usize].push(child as u32);
            }
        }
        let mut stack = vec![to];
        let mut seen = vec![false; v as usize];
        seen[to as usize] = true;
        while let Some(u) = stack.pop() {
            if u == from {
                return true;
            }
            for &c in &children[u as usize] {
                if !seen[c as usize] {
                    seen[c as usize] = true;
                    stack.push(c);
                }
            }
        }
        false
    };
    let mut made_progress = true;
    while made_progress {
        made_progress = false;
        for to in 0..v {
            if parents[to as usize].len() >= p.max_num_edge_learned as usize {
                continue;
            }
            let base = local_score(&input.records, to, &parents[to as usize]);
            let mut best: Option<(f64, u32)> = None;
            for from in 0..v {
                if from == to || parents[to as usize].contains(&from) {
                    continue;
                }
                let mut trial = parents[to as usize].clone();
                trial.push(from);
                let gain = local_score(&input.records, to, &trial) - base;
                if gain > pen && best.is_none_or(|(g, _)| gain > g) {
                    best = Some((gain, from));
                }
            }
            if let Some((_, from)) = best {
                if !creates_cycle(&parents, from, to) {
                    parents[to as usize].push(from);
                    parents[to as usize].sort_unstable();
                    made_progress = true;
                }
            }
        }
    }
    Network { parents }
}

/// Total network score: sum of local scores minus the per-edge penalty.
pub fn network_score(input: &Input, net: &Network, p: &BayesParams) -> f64 {
    let mut score = 0.0;
    for child in 0..input.vars {
        score += local_score(&input.records, child, &net.parents[child as usize]);
        score -= penalty(p) * net.parents[child as usize].len() as f64;
    }
    score
}

// ----- transactional learner ---------------------------------------------

/// Shared network state in the heap: per-variable parent and child
/// lists plus a parent-count array.
struct NetState {
    parent_lists: Vec<TmList>,
    child_lists: Vec<TmList>,
    parent_count: TArray<u64>,
}

/// Compute the local score of `child` with `parents` inside a
/// transaction by querying the ADtree (one count per parent
/// configuration and child value). On the HTMs the pointer-chasing
/// reads are implicit barriers tracked in hardware — the source of
/// bayes' large read sets; on the STMs/hybrids they are elided (the
/// tree is immutable), matching the paper's barrier counts.
fn tm_local_score(
    txn: &mut Txn<'_>,
    tree: &adtree::AdTree,
    implicit: bool,
    child: u32,
    parents: &[u32],
) -> TxResult<f64> {
    let k = parents.len();
    let n_cfg = 1usize << k;
    let mut counts = vec![[0u64; 2]; n_cfg];
    // Conditions must be sorted by variable; keep parents sorted and
    // merge the child in order.
    let mut sorted: Vec<u32> = parents.to_vec();
    sorted.sort_unstable();
    for (cfg, row) in counts.iter_mut().enumerate() {
        for x in 0..2u64 {
            let mut conds: Vec<(u32, u64)> = Vec::with_capacity(k + 1);
            for &p in &sorted {
                // Map the sorted position back to the cfg bit of the
                // original parent order.
                let orig = parents.iter().position(|&q| q == p).expect("member");
                conds.push((p, (cfg >> orig & 1) as u64));
            }
            let insert_at = conds.partition_point(|&(a, _)| a < child);
            conds.insert(insert_at, (child, x));
            let n = if implicit {
                tree.count(txn, &conds)?
            } else {
                let mut pm = tm_ds::PrivateMem::new(txn);
                tree.count(&mut pm, &conds)?
            };
            row[x as usize] = n;
        }
    }
    Ok(log_likelihood(&counts))
}

/// Scan-based transactional scorer (the repository's original
/// substitution before the ADtree was implemented; kept as a selectable
/// backend because its dense sequential read sets model a *different*
/// point in the design space — see the bayes backend ablation).
fn tm_local_score_scan(
    txn: &mut Txn<'_>,
    records: &TArray<u64>,
    implicit: bool,
    child: u32,
    parents: &[u32],
) -> TxResult<f64> {
    let n_cfg = 1usize << parents.len();
    let mut counts = vec![[0u64; 2]; n_cfg];
    for i in 0..records.len() {
        let rec = if implicit {
            txn.read_idx(records, i)?
        } else {
            txn.load_private(records.base().offset(i))
        };
        let mut cfg = 0usize;
        for (k, &p) in parents.iter().enumerate() {
            if rec >> p & 1 == 1 {
                cfg |= 1 << k;
            }
        }
        counts[cfg][(rec >> child & 1) as usize] += 1;
        txn.work(4 + parents.len() as u64);
    }
    Ok(log_likelihood(&counts))
}

/// Read a variable's parent set transactionally.
fn tm_parents(txn: &mut Txn<'_>, net: &NetState, var: u32) -> TxResult<Vec<u32>> {
    let list = &net.parent_lists[var as usize];
    let mut out = Vec::new();
    let mut node = list.first(txn)?;
    while !node.is_null() {
        out.push(list.key(txn, node)? as u32);
        node = list.next(txn, node)?;
    }
    Ok(out)
}

/// Transactional cycle check: would inserting `from -> to` create a
/// cycle? BFS from `to` through the shared child lists.
fn tm_creates_cycle(
    txn: &mut Txn<'_>,
    net: &NetState,
    from: u32,
    to: u32,
    v: u32,
) -> TxResult<bool> {
    let mut seen = vec![false; v as usize];
    let mut stack = vec![to];
    seen[to as usize] = true;
    while let Some(u) = stack.pop() {
        if u == from {
            return Ok(true);
        }
        let list = &net.child_lists[u as usize];
        let mut node = list.first(txn)?;
        while !node.is_null() {
            let c = list.key(txn, node)? as u32;
            if (c as usize) < seen.len() && !seen[c as usize] {
                seen[c as usize] = true;
                stack.push(c);
            }
            node = list.next(txn, node)?;
        }
        txn.work(4);
    }
    Ok(false)
}

/// Priority-queue task encoding: higher gain pops first.
fn encode_task(gain: f64, to: u32) -> u64 {
    // Map gain (non-negative in practice) to a descending key: larger
    // gains produce smaller keys, so the min-heap pops them first.
    let q = (gain.max(0.0) * 1024.0).min(4.0e15) as u64; // < 2^52
    (((1u64 << 53) - q) << 8) | to as u64
}

fn decode_task(word: u64) -> u32 {
    (word & 0xFF) as u32
}

/// Run the transactional parallel learner.
pub fn learn_tm(input: &Input, p: &BayesParams, cfg: TmConfig) -> (Network, tm::RunReport) {
    let rt = TmRuntime::new(cfg);
    let heap = rt.heap();
    let v = input.vars;
    let implicit = rt.config().system.props().implicit_barriers;
    // The adtree (Moore & Lee) provides the sufficient statistics, as in
    // the original benchmark; it is built once at setup and immutable.
    // The scan backend keeps the raw record array instead.
    let tree = {
        let mut m = SetupMem::new(heap);
        adtree::AdTree::build(&mut m, &input.records, v, 16).expect("setup")
    };
    let records: TArray<u64> = heap.alloc_array(input.records.len() as u64, 0u64);
    for (i, &r) in input.records.iter().enumerate() {
        heap.store_elem(&records, i as u64, r);
    }
    let use_adtree = p.adtree;
    let (net, tasks) = {
        let mut m = SetupMem::new(heap);
        let net = NetState {
            parent_lists: (0..v)
                .map(|_| TmList::create(&mut m).expect("setup"))
                .collect(),
            child_lists: (0..v)
                .map(|_| TmList::create(&mut m).expect("setup"))
                .collect(),
            // One counter per cache line (concurrently written).
            parent_count: heap.alloc_array(v as u64 * 4, 0u64),
        };
        let tasks = TmPQueue::create(&mut m, v as u64 * 2).expect("setup");
        // Seed one task per variable.
        for to in 0..v {
            tasks
                .push(&mut m, encode_task(f64::MAX, to))
                .expect("setup");
        }
        (net, tasks)
    };
    let pen = penalty(p);
    let max_edges = p.max_num_edge_learned as u64;

    let report = rt.run(|ctx| {
        while let Some(word) = ctx.atomic(|txn| tasks.pop(txn)) {
            let to = decode_task(word);
            // One transaction: recompute the best parent for `to` under
            // the *current* subgraph and insert it (the paper's
            // "calculation and addition of a new dependency").
            let inserted_gain = ctx.atomic(|txn| {
                if txn.read_idx(&net.parent_count, to as u64 * 4)? >= max_edges {
                    return Ok(None);
                }
                let parents = tm_parents(txn, &net, to)?;
                let base = if use_adtree {
                    tm_local_score(txn, &tree, implicit, to, &parents)?
                } else {
                    tm_local_score_scan(txn, &records, implicit, to, &parents)?
                };
                let mut best: Option<(f64, u32)> = None;
                for from in 0..v {
                    if from == to || parents.contains(&from) {
                        continue;
                    }
                    let mut trial = parents.clone();
                    trial.push(from);
                    let gain = if use_adtree {
                        tm_local_score(txn, &tree, implicit, to, &trial)? - base
                    } else {
                        tm_local_score_scan(txn, &records, implicit, to, &trial)? - base
                    };
                    if gain > pen && best.is_none_or(|(g, _)| gain > g) {
                        best = Some((gain, from));
                    }
                }
                let Some((gain, from)) = best else {
                    return Ok(None);
                };
                if tm_creates_cycle(txn, &net, from, to, v)? {
                    return Ok(None);
                }
                net.parent_lists[to as usize].insert(txn, from as u64, 0)?;
                net.child_lists[from as usize].insert(txn, to as u64, 0)?;
                let cnt = txn.read_idx(&net.parent_count, to as u64 * 4)?;
                txn.write_idx(&net.parent_count, to as u64 * 4, cnt + 1)?;
                Ok(Some(gain))
            });
            // If we learned an edge, the variable may benefit from
            // another: requeue it.
            if let Some(gain) = inserted_gain {
                ctx.atomic(|txn| tasks.push(txn, encode_task(gain, to)));
            }
        }
    });

    // Decode the learned network.
    let mut m = SetupMem::new(heap);
    let parents: Vec<Vec<u32>> = (0..v)
        .map(|var| {
            net.parent_lists[var as usize]
                .to_vec(&mut m)
                .expect("setup")
                .into_iter()
                .map(|(k, _)| k as u32)
                .collect()
        })
        .collect();
    (Network { parents }, report)
}

/// Structural verification: the learned network is acyclic, respects
/// the per-variable edge budget, and scores at least as well as the
/// empty network (every accepted insertion had positive penalized
/// gain).
pub fn verify(input: &Input, p: &BayesParams, net: &Network) -> bool {
    if net.parents.len() != input.vars as usize {
        return false;
    }
    if !net.is_acyclic() {
        return false;
    }
    if net
        .parents
        .iter()
        .any(|ps| ps.len() > p.max_num_edge_learned as usize)
    {
        return false;
    }
    let empty = Network {
        parents: vec![Vec::new(); input.vars as usize],
    };
    network_score(input, net, p) >= network_score(input, &empty, p)
}

/// Run one bayes configuration end to end.
pub fn run(params: &BayesParams, cfg: TmConfig) -> AppReport {
    let input = generate(params);
    let (net, report) = learn_tm(&input, params, cfg);
    let verified = verify(&input, params, &net);
    AppReport::new(
        "bayes",
        format!(
            "v={} r={} edges={}",
            params.vars,
            params.records,
            net.edges().len()
        ),
        report,
        verified,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm::SystemKind;

    fn small_params() -> BayesParams {
        BayesParams {
            vars: 12,
            records: 256,
            num_parent: 2,
            percent_parent: 30,
            insert_penalty: 2,
            max_num_edge_learned: 2,
            seed: 1,
            adtree: true,
        }
    }

    #[test]
    fn scan_backend_learns_too() {
        let mut p = small_params();
        p.adtree = false;
        let rep = run(&p, TmConfig::new(SystemKind::LazyHtm, 4));
        assert!(rep.verified);
        // Both backends must accept the same structural score (they
        // compute identical counts): learn with each and verify both.
        let p2 = small_params();
        let rep2 = run(&p2, TmConfig::new(SystemKind::LazyHtm, 4));
        assert!(rep2.verified);
    }

    #[test]
    fn generator_is_deterministic_and_acyclic() {
        let p = small_params();
        let a = generate(&p);
        let b = generate(&p);
        assert_eq!(a.records, b.records);
        assert_eq!(a.true_edges, b.true_edges);
        assert_eq!(a.records.len(), 256);
        // Ground-truth edges go from lower to higher variable index.
        for &(parent, child) in &a.true_edges {
            assert!(parent < child);
        }
    }

    #[test]
    fn score_prefers_true_parents() {
        let input = generate(&small_params());
        // Find a variable with a ground-truth parent; its local score
        // with the true parent must beat the empty parent set.
        let Some(&(parent, child)) = input.true_edges.first() else {
            panic!("generator produced no edges");
        };
        let with = local_score(&input.records, child, &[parent]);
        let without = local_score(&input.records, child, &[]);
        assert!(with > without, "{with} vs {without}");
    }

    #[test]
    fn sequential_learner_finds_structure() {
        let p = small_params();
        let input = generate(&p);
        let net = learn_seq(&input, &p);
        assert!(verify(&input, &p, &net));
        assert!(!net.edges().is_empty(), "learned nothing");
        // Learned edges should overlap the ground truth (direction may
        // flip in equivalence classes, so compare undirected).
        let truth: std::collections::HashSet<(u32, u32)> = input
            .true_edges
            .iter()
            .map(|&(a, b)| (a.min(b), a.max(b)))
            .collect();
        let learned_hits = net
            .edges()
            .iter()
            .filter(|&&(a, b)| truth.contains(&(a.min(b), a.max(b))))
            .count();
        assert!(learned_hits > 0, "no overlap with ground truth");
    }

    #[test]
    fn parallel_learner_valid_on_key_systems() {
        let p = small_params();
        let input = generate(&p);
        for sys in [
            SystemKind::LazyStm,
            SystemKind::EagerStm,
            SystemKind::LazyHtm,
            SystemKind::EagerHtm,
            SystemKind::LazyHybrid,
            SystemKind::EagerHybrid,
        ] {
            let (net, report) = learn_tm(&input, &p, TmConfig::new(sys, 4));
            assert!(verify(&input, &p, &net), "invalid network under {sys}");
            assert!(!net.edges().is_empty(), "learned nothing under {sys}");
            assert!(report.stats.commits >= p.vars as u64);
        }
    }

    #[test]
    fn run_entry_point_and_profile() {
        let rep = run(&small_params(), TmConfig::new(SystemKind::LazyHtm, 2));
        assert!(rep.verified);
        // Table III/VI: bayes spends most time in long transactions
        // with large read sets.
        assert!(rep.run.stats.time_in_txn() > 0.5);
        assert!(rep.run.stats.p90_read_lines() > 16);
    }

    #[test]
    fn sequential_system_runs() {
        let rep = run(&small_params(), TmConfig::sequential());
        assert!(rep.verified);
    }
}
