//! # labyrinth — maze routing with Lee's algorithm (STAMP application 5)
//!
//! Routes point-to-point paths through a three-dimensional grid
//! (§III-B5 of the paper, after the LEE-TM-p-ws variant of Watson et
//! al.). Each thread grabs a (start, end) pair and, inside **one**
//! transaction:
//!
//! 1. copies the global grid into a private buffer (the privatization
//!    optimization) — on the HTMs via transactional reads that are then
//!    **early-released**; on the STMs/hybrids via unbarriered reads,
//!    which is why those systems don't need early release at all;
//! 2. runs a breadth-first Lee expansion and backtrace on the private
//!    copy;
//! 3. revalidates by transactionally re-reading every grid point of the
//!    found path and aborts (restart with a fresh copy) if any became
//!    occupied, otherwise writes the path to the global grid.
//!
//! Every grid point is padded to a full 32-byte cache line, as the paper
//! requires for early-release correctness at line granularity.
//!
//! Transactional profile (Table III): very long transactions, very
//! large read/write sets, ~100% of time in transactions, high
//! contention.

#![warn(missing_docs)]

use stamp_util::{AppReport, LabyrinthParams, Mt19937};
use tm::{TArray, TmConfig, TmRuntime, WORDS_PER_LINE};
use tm_ds::{SetupMem, TmQueue};

/// A routing problem: grid dimensions and endpoint pairs.
#[derive(Debug, Clone)]
pub struct Input {
    /// Grid width.
    pub x: u64,
    /// Grid height.
    pub y: u64,
    /// Grid depth.
    pub z: u64,
    /// Endpoint pairs `(src, dst)` as flattened cell indices.
    pub pairs: Vec<(u64, u64)>,
}

impl Input {
    /// Number of grid cells.
    pub fn cells(&self) -> u64 {
        self.x * self.y * self.z
    }

    /// Neighbors of a cell (6-connectivity).
    fn neighbors(&self, idx: u64, out: &mut Vec<u64>) {
        out.clear();
        let (x, y) = (self.x, self.y);
        let xx = idx % x;
        let yy = (idx / x) % y;
        let zz = idx / (x * y);
        if xx > 0 {
            out.push(idx - 1);
        }
        if xx + 1 < x {
            out.push(idx + 1);
        }
        if yy > 0 {
            out.push(idx - x);
        }
        if yy + 1 < y {
            out.push(idx + x);
        }
        if zz > 0 {
            out.push(idx - x * y);
        }
        if zz + 1 < self.z {
            out.push(idx + x * y);
        }
    }
}

/// Generate the `random-x<X>-y<Y>-z<Z>-n<N>` input: `paths` endpoint
/// pairs with all endpoints distinct.
pub fn generate(p: &LabyrinthParams) -> Input {
    let mut rng = Mt19937::new(p.seed);
    let input = Input {
        x: p.x as u64,
        y: p.y as u64,
        z: p.z as u64,
        pairs: Vec::new(),
    };
    let cells = input.cells();
    let want = (p.paths as u64).min(cells / 4);
    let mut used = std::collections::HashSet::new();
    let mut pairs = Vec::new();
    while (pairs.len() as u64) < want {
        let a = rng.below(cells);
        let b = rng.below(cells);
        if a != b && used.insert(a) && {
            if used.insert(b) {
                true
            } else {
                used.remove(&a);
                false
            }
        } {
            pairs.push((a, b));
        }
    }
    Input { pairs, ..input }
}

/// Outcome of routing one input.
#[derive(Debug, Clone)]
pub struct Routing {
    /// `marker[cell]`: 0 = empty, otherwise pair id + 1.
    pub grid: Vec<u64>,
    /// Whether each pair was successfully routed.
    pub routed: Vec<bool>,
}

impl Routing {
    /// Number of successfully routed pairs.
    pub fn num_routed(&self) -> usize {
        self.routed.iter().filter(|&&r| r).count()
    }
}

/// Lee expansion + backtrace on a private grid snapshot. Cells with
/// nonzero markers (other than the pair's own endpoints) are obstacles.
/// Returns the path (src..=dst) or `None` if unreachable. `budget`
/// charges simulated work per visited cell.
fn route_on_copy(
    input: &Input,
    snapshot: &[u64],
    src: u64,
    dst: u64,
    mut budget: impl FnMut(u64),
) -> Option<Vec<u64>> {
    const UNSET: u32 = u32::MAX;
    let mut dist = vec![UNSET; snapshot.len()];
    let mut frontier = vec![src];
    let mut nbuf = Vec::with_capacity(6);
    dist[src as usize] = 0;
    let mut d = 0u32;
    while !frontier.is_empty() && dist[dst as usize] == UNSET {
        let mut next = Vec::new();
        for &c in &frontier {
            input.neighbors(c, &mut nbuf);
            budget(18 + 5 * nbuf.len() as u64);
            for &nb in &nbuf {
                if dist[nb as usize] == UNSET && (snapshot[nb as usize] == 0 || nb == dst) {
                    dist[nb as usize] = d + 1;
                    next.push(nb);
                }
            }
        }
        frontier = next;
        d += 1;
    }
    if dist[dst as usize] == UNSET {
        return None;
    }
    // Backtrace.
    let mut path = vec![dst];
    let mut cur = dst;
    while cur != src {
        input.neighbors(cur, &mut nbuf);
        budget(20);
        let prev = *nbuf
            .iter()
            .find(|&&nb| dist[nb as usize] != UNSET && dist[nb as usize] + 1 == dist[cur as usize])
            .expect("BFS backtrace always finds a predecessor");
        path.push(prev);
        cur = prev;
    }
    path.reverse();
    Some(path)
}

/// Sequential reference router (same algorithm, pairs in order). As in
/// the original maze description, every pair's endpoints are marked in
/// the grid up front so no route can pass through them.
pub fn route_seq(input: &Input) -> Routing {
    let mut grid = vec![0u64; input.cells() as usize];
    for (pid, &(src, dst)) in input.pairs.iter().enumerate() {
        grid[src as usize] = pid as u64 + 1;
        grid[dst as usize] = pid as u64 + 1;
    }
    let mut routed = vec![false; input.pairs.len()];
    for (pid, &(src, dst)) in input.pairs.iter().enumerate() {
        if let Some(path) = route_on_copy(input, &grid, src, dst, |_| {}) {
            for &c in &path {
                grid[c as usize] = pid as u64 + 1;
            }
            routed[pid] = true;
        }
    }
    Routing { grid, routed }
}

/// Run the transactional parallel router (early release enabled on the
/// HTMs, as the paper's default build).
pub fn route_tm(input: &Input, cfg: TmConfig) -> (Routing, tm::RunReport) {
    route_tm_with(input, cfg, true)
}

/// Run the router with explicit control over early release (the paper
/// notes its use "can be disabled when compiling this benchmark" —
/// the `ablation_earlyrelease` harness measures the difference).
pub fn route_tm_with(
    input: &Input,
    cfg: TmConfig,
    use_early_release: bool,
) -> (Routing, tm::RunReport) {
    let rt = TmRuntime::new(cfg);
    let heap = rt.heap();
    let cells = input.cells();
    // One line-padded word per grid point (§III-B5: padding makes early
    // release safe at line granularity).
    let grid_base = heap.alloc_words_line_padded(cells * WORDS_PER_LINE);
    let cell_addr = |c: u64| grid_base.offset(c * WORDS_PER_LINE);
    // Pre-mark every pair's endpoints (part of the maze description).
    for (pid, &(src, dst)) in input.pairs.iter().enumerate() {
        heap.raw_store(cell_addr(src), pid as u64 + 1);
        heap.raw_store(cell_addr(dst), pid as u64 + 1);
    }
    let routed_arr: TArray<u64> = heap.alloc_array(input.pairs.len() as u64, 0u64);
    let work_queue = {
        let mut m = SetupMem::new(heap);
        let q = TmQueue::create(&mut m).expect("setup");
        for pid in 0..input.pairs.len() as u64 {
            q.push_back(&mut m, pid).expect("setup");
        }
        q
    };
    let implicit = cfg_implicit(&rt);

    let report = rt.run(|ctx| {
        let mut snapshot = vec![0u64; cells as usize];
        while let Some(pid) = ctx.atomic(|txn| work_queue.pop_front(txn)) {
            let (src, dst) = input.pairs[pid as usize];
            let marker = pid + 1;
            let success = ctx.atomic(|txn| {
                // 1. Privatize the grid.
                for c in 0..cells {
                    let addr = cell_addr(c);
                    snapshot[c as usize] = if implicit {
                        // HTM: implicit barriers; release each point
                        // right after reading (§III-B5).
                        let v = txn.read_word(addr)?;
                        if use_early_release {
                            // The one sanctioned early-release site
                            // (§III-B5): the path is revalidated with
                            // full barriers before being written.
                            // lint:allow(early-release)
                            txn.early_release(addr);
                        }
                        v
                    } else {
                        // STM/hybrid: no read barriers on the copy.
                        txn.load_private(addr)
                    };
                }
                // 2. Route on the private copy.
                let path = {
                    // Charge BFS work to the transaction.
                    let mut cost = 0u64;
                    let path = route_on_copy(input, &snapshot, src, dst, |w| cost += w);
                    txn.work(cost);
                    path
                };
                let Some(path) = path else {
                    return Ok(false); // permanently unreachable: commit failure
                };
                // 3. Revalidate and add: re-read every path point
                // transactionally; abort on any conflict. Endpoints
                // legitimately carry our own marker already.
                for &c in &path {
                    let v = txn.read_word(cell_addr(c))?;
                    let own_endpoint = (c == src || c == dst) && v == marker;
                    if v != 0 && !own_endpoint {
                        return tm::txn::abort();
                    }
                }
                for &c in &path {
                    txn.write_word(cell_addr(c), marker)?;
                }
                Ok(true)
            });
            if success {
                ctx.atomic(|txn| txn.write_idx(&routed_arr, pid, 1));
            }
        }
    });

    let grid: Vec<u64> = (0..cells).map(|c| heap.raw_load(cell_addr(c))).collect();
    let routed: Vec<bool> = (0..input.pairs.len() as u64)
        .map(|i| heap.load_elem(&routed_arr, i) != 0)
        .collect();
    (Routing { grid, routed }, report)
}

fn cfg_implicit(rt: &TmRuntime) -> bool {
    rt.config().system.props().implicit_barriers
}

/// Validate a routing: every routed pair's marked cells form a connected
/// path containing both endpoints; no cell is marked by an unrouted or
/// unknown pair; paths are disjoint by construction of the markers.
pub fn verify(input: &Input, routing: &Routing) -> bool {
    if routing.grid.len() != input.cells() as usize {
        return false;
    }
    // No stray markers: a cell may carry pair p's marker only if p was
    // routed, or if the cell is one of p's (pre-marked) endpoints.
    for (c, &m) in routing.grid.iter().enumerate() {
        if m != 0 {
            let pid = (m - 1) as usize;
            if pid >= input.pairs.len() {
                return false;
            }
            let (src, dst) = input.pairs[pid];
            let is_endpoint = c as u64 == src || c as u64 == dst;
            if !routing.routed[pid] && !is_endpoint {
                return false;
            }
        }
    }
    // Each routed path is connected and contains its endpoints.
    for (pid, &(src, dst)) in input.pairs.iter().enumerate() {
        if !routing.routed[pid] {
            continue;
        }
        let marker = pid as u64 + 1;
        if routing.grid[src as usize] != marker || routing.grid[dst as usize] != marker {
            return false;
        }
        // BFS within marked cells from src must reach dst and cover all
        // marked cells of this pair.
        let total_marked = routing.grid.iter().filter(|&&m| m == marker).count();
        let mut seen = std::collections::HashSet::new();
        let mut stack = vec![src];
        let mut nbuf = Vec::new();
        seen.insert(src);
        while let Some(c) = stack.pop() {
            input.neighbors(c, &mut nbuf);
            for &nb in &nbuf {
                if routing.grid[nb as usize] == marker && seen.insert(nb) {
                    stack.push(nb);
                }
            }
        }
        if !seen.contains(&dst) || seen.len() != total_marked {
            return false;
        }
    }
    true
}

/// Run one labyrinth configuration end to end.
pub fn run(params: &LabyrinthParams, cfg: TmConfig) -> AppReport {
    let input = generate(params);
    let (routing, report) = route_tm(&input, cfg);
    let verified = verify(&input, &routing);
    AppReport::new(
        "labyrinth",
        format!(
            "{}x{}x{} n={} routed={}/{}",
            params.x,
            params.y,
            params.z,
            params.paths,
            routing.num_routed(),
            input.pairs.len()
        ),
        report,
        verified,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm::SystemKind;

    fn small_params() -> LabyrinthParams {
        LabyrinthParams {
            x: 16,
            y: 16,
            z: 2,
            paths: 16,
            seed: 5,
        }
    }

    #[test]
    fn generator_produces_distinct_endpoints() {
        let input = generate(&small_params());
        assert_eq!(input.pairs.len(), 16);
        let mut endpoints = std::collections::HashSet::new();
        for &(a, b) in &input.pairs {
            assert!(endpoints.insert(a), "duplicate endpoint {a}");
            assert!(endpoints.insert(b), "duplicate endpoint {b}");
            assert!(a < input.cells() && b < input.cells());
        }
    }

    #[test]
    fn sequential_routing_is_valid() {
        let input = generate(&small_params());
        let routing = route_seq(&input);
        assert!(verify(&input, &routing));
        assert!(
            routing.num_routed() >= input.pairs.len() / 2,
            "{} routed",
            routing.num_routed()
        );
    }

    #[test]
    fn bfs_finds_shortest_on_empty_grid() {
        let input = Input {
            x: 8,
            y: 8,
            z: 1,
            pairs: vec![],
        };
        let snapshot = vec![0u64; 64];
        let path = route_on_copy(&input, &snapshot, 0, 63, |_| {}).unwrap();
        assert_eq!(path.len(), 15); // Manhattan distance 14 + 1
        assert_eq!(path[0], 0);
        assert_eq!(*path.last().unwrap(), 63);
    }

    #[test]
    fn blocked_route_returns_none() {
        let input = Input {
            x: 3,
            y: 3,
            z: 1,
            pairs: vec![],
        };
        // Wall down the middle column.
        let mut snapshot = vec![0u64; 9];
        snapshot[1] = 9;
        snapshot[4] = 9;
        snapshot[7] = 9;
        assert!(route_on_copy(&input, &snapshot, 0, 2, |_| {}).is_none());
    }

    #[test]
    fn parallel_routing_valid_on_all_systems() {
        let input = generate(&small_params());
        for sys in SystemKind::ALL_TM {
            let (routing, report) = route_tm(&input, TmConfig::new(sys, 4));
            assert!(verify(&input, &routing), "invalid routing under {sys}");
            assert!(routing.num_routed() >= 1, "nothing routed under {sys}");
            assert!(report.stats.commits as usize >= input.pairs.len());
        }
    }

    #[test]
    fn run_entry_point_and_profile() {
        let rep = run(&small_params(), TmConfig::new(SystemKind::LazyStm, 2));
        assert!(rep.verified);
        // Table VI: virtually all of labyrinth's time is transactional.
        assert!(
            rep.run.stats.time_in_txn() > 0.8,
            "time in txn = {}",
            rep.run.stats.time_in_txn()
        );
    }

    #[test]
    fn sequential_system_runs() {
        let rep = run(&small_params(), TmConfig::sequential());
        assert!(rep.verified);
    }
}
