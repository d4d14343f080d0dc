//! `step_into` microbench: the cache-conscious SoA/bitset hot path vs a
//! faithful emulation of the seed implementation, small and large
//! frontiers, plus a *saturated* arm —
//! steps taken after the frontier closed, when the border is every
//! reachable node and a step re-emits the whole component (where a cold
//! query spends most of its steps). Such a border is dense, so every
//! saturated step runs in the gather direction; the arm counts them.
//!
//! Run with `cargo bench --bench propagation` (the bench carries its own
//! `main`; `BENCH_SMOKE=1` shrinks the corpus and rep counts for CI's
//! smoke tier). Writes `BENCH_propagation.json` via `s3-bench`'s
//! `JsonReport` when `BENCH_JSON_DIR` is set.
//!
//! # Baseline
//!
//! Absolute timings don't transfer between machines, so the regression
//! gate does not compare against stored numbers. Instead [`Legacy`]
//! re-implements the seed's hot path against the public graph API —
//! `Vec<bool>` visited flags, per-edge `out_edges` iterator calls, a
//! `(target, Δmass)` tuple buffer merged after emission — and both engines
//! run in the same process on the same corpus. The gate asserts the new path is not
//! slower than the legacy path it replaced (with a small noise margin),
//! and the recorded speedups are before/after numbers by construction.
//! A bitwise cross-check of every node's proximity guards the emulation's
//! faithfulness: both engines must produce identical floats, so they are
//! necessarily doing the same arithmetic in the same order. Since the
//! engine stopped sorting its border, refreshing `prox≤n` eagerly and
//! walking the forest per tree, the emulation — which still does all
//! three — is also the independent witness that the engine's floats are
//! the seed's.

use s3_bench::{JsonReport, Table};
use s3_core::UserId;
use s3_datasets::{twitter, Scale};
use s3_doc::TreeId;
use s3_graph::{NodeId, NodeKind, Propagation, SocialGraph};
use std::time::{Duration, Instant};

/// `BENCH_SMOKE=1` (or `--smoke`) shrinks the run to CI-smoke size.
fn smoke_mode() -> bool {
    std::env::var_os("BENCH_SMOKE").is_some_and(|v| v != "0")
        || std::env::args().any(|a| a == "--smoke")
}

/// Faithful re-implementation of the seed propagation hot path (the
/// pre-SoA layout), kept only as the bench baseline. Emission buffers
/// `(target, Δmass)` tuples and merges them afterwards. Operation order
/// matches the seed exactly, which the bitwise cross-check in `main`
/// verifies.
struct Legacy<'g> {
    graph: &'g SocialGraph,
    gamma: f64,
    c_gamma: f64,
    gamma_pow: f64,
    x: Vec<f64>,
    frontier: Vec<u32>,
    acc: Vec<f64>,
    acc_nb: Vec<f64>,
    border_mass: f64,
    visited: Vec<bool>,
    touched: Vec<u32>,
    touched_trees: Vec<TreeId>,
    tree_touched: Vec<bool>,
    x_next: Vec<f64>,
    emit_buf: Vec<(u32, f64)>,
    frontier_next: Vec<u32>,
    unit_trees: Vec<TreeId>,
    unit_singles: Vec<u32>,
    scratch: LegacyScratch,
}

#[derive(Default)]
struct LegacyScratch {
    rho: Vec<f64>,
    anc: Vec<f64>,
    sub: Vec<f64>,
    trees: Vec<TreeId>,
}

#[derive(Clone, Copy)]
enum LegacyUnit {
    Tree(TreeId),
    Single(u32),
}

impl<'g> Legacy<'g> {
    fn new(graph: &'g SocialGraph, gamma: f64, seeker: NodeId) -> Self {
        let n = graph.num_nodes();
        let mut p = Legacy {
            graph,
            gamma,
            c_gamma: (gamma - 1.0) / gamma,
            gamma_pow: 1.0,
            x: vec![0.0; n],
            frontier: Vec::new(),
            acc: vec![0.0; n],
            acc_nb: vec![0.0; n],
            border_mass: 1.0,
            visited: vec![false; n],
            touched: Vec::new(),
            touched_trees: Vec::new(),
            tree_touched: vec![false; graph.forest().num_trees()],
            x_next: vec![0.0; n],
            emit_buf: Vec::new(),
            frontier_next: Vec::new(),
            unit_trees: Vec::new(),
            unit_singles: Vec::new(),
            scratch: LegacyScratch::default(),
        };
        p.x[seeker.index()] = 1.0;
        p.visited[seeker.index()] = true;
        p.acc[seeker.index()] = p.c_gamma;
        p.frontier.push(seeker.0);
        p.touched.push(seeker.0);
        let frontier = std::mem::take(&mut p.frontier);
        p.refresh_acc_nb(&frontier);
        p.frontier = frontier;
        p
    }

    fn reset(&mut self, seeker: NodeId) {
        for &v in &self.touched {
            let v = v as usize;
            self.x[v] = 0.0;
            self.acc[v] = 0.0;
            self.acc_nb[v] = 0.0;
            self.visited[v] = false;
        }
        self.touched.clear();
        for &tree in &self.touched_trees {
            let range = self.graph.tree_node_range(tree).expect("journaled tree");
            self.acc_nb[range].fill(0.0);
            self.tree_touched[tree.index()] = false;
        }
        self.touched_trees.clear();
        self.frontier.clear();
        self.gamma_pow = 1.0;
        self.border_mass = 1.0;
        self.x[seeker.index()] = 1.0;
        self.visited[seeker.index()] = true;
        self.acc[seeker.index()] = self.c_gamma;
        self.frontier.push(seeker.0);
        self.touched.push(seeker.0);
        let frontier = std::mem::take(&mut self.frontier);
        self.refresh_acc_nb(&frontier);
        self.frontier = frontier;
    }

    fn prox_leq(&self, node: NodeId) -> f64 {
        self.acc_nb[node.index()]
    }

    fn collect_units(&mut self) -> usize {
        self.unit_trees.clear();
        self.unit_singles.clear();
        for &v in &self.frontier {
            match self.graph.kind(NodeId(v)) {
                NodeKind::User(_) | NodeKind::Tag(_) => self.unit_singles.push(v),
                NodeKind::Frag(f) => self.unit_trees.push(self.graph.forest().tree_of(f)),
            }
        }
        self.unit_trees.sort_unstable();
        self.unit_trees.dedup();
        self.unit_trees.len() + self.unit_singles.len()
    }

    fn emit_unit(&self, unit: LegacyUnit, scratch: &mut LegacyScratch, out: &mut Vec<(u32, f64)>) {
        match unit {
            LegacyUnit::Single(v) => {
                let node = NodeId(v);
                let w = self.graph.neighborhood_weight(node);
                if w <= 0.0 {
                    return;
                }
                let rho = self.x[v as usize] / w;
                for (target, _, ew) in self.graph.out_edges(node) {
                    out.push((target.0, rho * ew));
                }
            }
            LegacyUnit::Tree(tree) => {
                let range = self.graph.tree_node_range(tree).expect("active tree");
                let forest = self.graph.forest();
                let doc_range = forest.tree_range(tree);
                let len = range.len();
                let base = range.start;
                let first_doc = doc_range.start;
                let rho = &mut scratch.rho;
                rho.clear();
                rho.resize(len, 0.0);
                for (i, r) in rho.iter_mut().enumerate() {
                    let node = base + i;
                    let w = self.graph.neighborhood_weight(NodeId(node as u32));
                    if w > 0.0 {
                        *r = self.x[node] / w;
                    }
                }
                let anc = &mut scratch.anc;
                anc.clear();
                anc.resize(len, 0.0);
                let sub = &mut scratch.sub;
                sub.clear();
                sub.extend_from_slice(rho);
                for i in 0..len {
                    let doc = s3_doc::DocNodeId((first_doc + i) as u32);
                    if let Some(p) = forest.parent(doc) {
                        let pi = p.index() - first_doc;
                        anc[i] = anc[pi] + rho[pi];
                    }
                }
                for i in (0..len).rev() {
                    let doc = s3_doc::DocNodeId((first_doc + i) as u32);
                    if let Some(p) = forest.parent(doc) {
                        let pi = p.index() - first_doc;
                        sub[pi] += sub[i];
                    }
                }
                for i in 0..len {
                    let emit = anc[i] + sub[i];
                    if emit <= 0.0 {
                        continue;
                    }
                    let node = NodeId((base + i) as u32);
                    for (target, _, ew) in self.graph.out_edges(node) {
                        out.push((target.0, emit * ew));
                    }
                }
            }
        }
    }

    fn merge(&mut self, batch: &[(u32, f64)]) {
        for &(target, dm) in batch {
            if self.x_next[target as usize] == 0.0 && dm > 0.0 {
                self.frontier_next.push(target);
            }
            self.x_next[target as usize] += dm;
        }
    }

    fn step(&mut self) -> Vec<NodeId> {
        self.collect_units();
        let mut buf = std::mem::take(&mut self.emit_buf);
        let mut scratch = std::mem::take(&mut self.scratch);
        buf.clear();
        for &tree in &self.unit_trees {
            self.emit_unit(LegacyUnit::Tree(tree), &mut scratch, &mut buf);
        }
        for &v in &self.unit_singles {
            self.emit_unit(LegacyUnit::Single(v), &mut scratch, &mut buf);
        }
        self.merge(&buf);
        self.emit_buf = buf;
        self.scratch = scratch;
        // The seed's `step()` wrapper allocated the newly-visited list
        // afresh every call; that per-step allocation is part of the
        // baseline cost, so the emulation reproduces it.
        let mut newly = Vec::new();
        self.advance(&mut newly);
        newly
    }

    fn advance(&mut self, newly: &mut Vec<NodeId>) {
        self.frontier_next.sort_unstable();
        self.frontier_next.dedup();
        for &v in &self.frontier {
            self.x[v as usize] = 0.0;
        }
        std::mem::swap(&mut self.x, &mut self.x_next);
        std::mem::swap(&mut self.frontier, &mut self.frontier_next);
        self.frontier_next.clear();
        self.gamma_pow *= self.gamma;
        let factor = self.c_gamma / self.gamma_pow;
        self.border_mass = 0.0;
        let frontier = std::mem::take(&mut self.frontier);
        for &v in &frontier {
            let m = self.x[v as usize];
            self.border_mass += m;
            self.acc[v as usize] += m * factor;
            if !self.visited[v as usize] {
                self.visited[v as usize] = true;
                self.touched.push(v);
                newly.push(NodeId(v));
            }
        }
        self.refresh_acc_nb(&frontier);
        self.frontier = frontier;
    }

    fn refresh_acc_nb(&mut self, touched: &[u32]) {
        let mut scratch = std::mem::take(&mut self.scratch);
        let trees = &mut scratch.trees;
        trees.clear();
        for &v in touched {
            match self.graph.kind(NodeId(v)) {
                NodeKind::User(_) | NodeKind::Tag(_) => {
                    self.acc_nb[v as usize] = self.acc[v as usize];
                }
                NodeKind::Frag(f) => trees.push(self.graph.forest().tree_of(f)),
            }
        }
        trees.sort_unstable();
        trees.dedup();
        for &tree in trees.iter() {
            if !self.tree_touched[tree.index()] {
                self.tree_touched[tree.index()] = true;
                self.touched_trees.push(tree);
            }
            let range = self.graph.tree_node_range(tree).expect("registered");
            let forest = self.graph.forest();
            let first_doc = forest.tree_range(tree).start;
            let base = range.start;
            let len = range.len();
            let anc = &mut scratch.anc;
            anc.clear();
            anc.resize(len, 0.0);
            let sub = &mut scratch.sub;
            sub.clear();
            sub.extend((0..len).map(|i| self.acc[base + i]));
            for i in 0..len {
                let doc = s3_doc::DocNodeId((first_doc + i) as u32);
                if let Some(p) = forest.parent(doc) {
                    let pi = p.index() - first_doc;
                    anc[i] = anc[pi] + self.acc[base + pi];
                }
            }
            for i in (0..len).rev() {
                let doc = s3_doc::DocNodeId((first_doc + i) as u32);
                if let Some(p) = forest.parent(doc) {
                    let pi = p.index() - first_doc;
                    sub[pi] += sub[i];
                }
            }
            for i in 0..len {
                self.acc_nb[base + i] = anc[i] + sub[i];
            }
        }
        self.scratch = scratch;
    }
}

const GAMMA: f64 = 1.5;

/// One timed trajectory: reset, run `steps` steps, recording per-step
/// durations into `per_step` (accumulated across reps).
fn run_new(
    p: &mut Propagation<'_>,
    seeker: NodeId,
    newly: &mut Vec<NodeId>,
    steps: usize,
    per_step: &mut [Duration],
) {
    p.reset(seeker);
    for slot in per_step.iter_mut().take(steps) {
        let t = Instant::now();
        p.step_into(1, false, newly);
        *slot += t.elapsed();
    }
}

fn run_legacy(p: &mut Legacy<'_>, seeker: NodeId, steps: usize, per_step: &mut [Duration]) {
    p.reset(seeker);
    for slot in per_step.iter_mut().take(steps) {
        let t = Instant::now();
        p.step();
        *slot += t.elapsed();
    }
}

fn micros(d: Duration, reps: usize) -> f64 {
    d.as_secs_f64() * 1e6 / reps as f64
}

fn main() {
    let smoke = smoke_mode();
    let scale = if smoke { Scale::Tiny } else { Scale::Small };
    let mut cfg = twitter::TwitterConfig::scaled(scale);
    if smoke {
        cfg.users = 120;
        cfg.tweets = 700;
        println!("[smoke mode: tiny corpus, reduced reps — gate still active]\n");
    }
    let ds = twitter::generate(&cfg);
    let inst = &ds.instance;
    let graph = inst.graph();
    let seeker = inst.user_node(UserId(0));
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let steps = 8usize;
    let reps = if smoke { 5 } else { 12 };

    println!(
        "propagation step_into: SoA/bitset hot path vs seed emulation\n\
         graph: {} nodes, {} edges, {} cores detected, {} steps x {} reps\n",
        graph.num_nodes(),
        graph.num_edges(),
        cores,
        steps,
        reps,
    );

    // ---- Faithfulness cross-check: both engines, same floats, bitwise. --
    let mut p = Propagation::new(graph, GAMMA, seeker);
    let mut legacy = Legacy::new(graph, GAMMA, seeker);
    let mut newly = Vec::new();
    for s in 0..steps {
        p.step_into(1, false, &mut newly);
        legacy.step();
        for i in 0..graph.num_nodes() {
            let node = NodeId(i as u32);
            assert_eq!(
                p.prox_leq(node).to_bits(),
                legacy.prox_leq(node).to_bits(),
                "step {s}: node {i} diverged — the legacy emulation \
                 (or the new layout) is not faithful to the seed semantics"
            );
        }
    }
    println!("cross-check: new and legacy engines bitwise identical over {steps} steps\n");

    // ---- Unit counts per step (from the legacy engine's frontier). -----
    let mut units_per_step = vec![0usize; steps];
    legacy.reset(seeker);
    for u in units_per_step.iter_mut() {
        *u = legacy.collect_units();
        legacy.step();
    }

    // ---- Timed sweeps. -------------------------------------------------
    // `reps` passes per round, best (minimum) per-step time across rounds:
    // the minimum is robust against scheduler noise on shared CI hosts,
    // and the two engines are interleaved within each round so a noisy
    // stretch degrades both equally.
    let rounds = if smoke { 4 } else { 8 };
    let mut seq_new = vec![Duration::MAX; steps];
    let mut seq_old = vec![Duration::MAX; steps];
    // Warm-up passes (page in buffers) before timing.
    run_new(&mut p, seeker, &mut newly, steps, &mut vec![Duration::ZERO; steps]);
    run_legacy(&mut legacy, seeker, steps, &mut vec![Duration::ZERO; steps]);
    for _ in 0..rounds {
        let mut r_seq_new = vec![Duration::ZERO; steps];
        let mut r_seq_old = vec![Duration::ZERO; steps];
        for _ in 0..reps {
            run_new(&mut p, seeker, &mut newly, steps, &mut r_seq_new);
            run_legacy(&mut legacy, seeker, steps, &mut r_seq_old);
        }
        for s in 0..steps {
            seq_new[s] = seq_new[s].min(r_seq_new[s]);
            seq_old[s] = seq_old[s].min(r_seq_old[s]);
        }
    }

    let mut table = Table::new(&["step", "units", "seq new", "seq legacy", "speedup"]);
    for s in 0..steps {
        table.row(vec![
            s.to_string(),
            units_per_step[s].to_string(),
            format!("{:.2}µs", micros(seq_new[s], reps)),
            format!("{:.2}µs", micros(seq_old[s], reps)),
            format!("{:.2}x", seq_old[s].as_secs_f64() / seq_new[s].as_secs_f64().max(1e-12)),
        ]);
    }
    print!("{}", table.render());

    // ---- Saturated arm: steps taken after the frontier closed. ---------
    // Both engines walk to closure in lockstep, then each round times a
    // further run of steps per engine (best round kept, as above); the
    // proximities must still agree bit for bit afterwards.
    let sat_steps = if smoke { 8 } else { 12 };
    p.reset(seeker);
    legacy.reset(seeker);
    let mut lead_steps = 0usize;
    while !p.frontier_closed() && lead_steps < 64 {
        p.step_into(1, false, &mut newly);
        legacy.step();
        lead_steps += 1;
    }
    assert!(p.frontier_closed(), "frontier still open after {lead_steps} steps");
    let sat_units = legacy.collect_units();
    let gathered_before = p.gathered_steps();
    let (mut sat_new, mut sat_old) = (Duration::MAX, Duration::MAX);
    for _ in 0..rounds {
        let t = Instant::now();
        for _ in 0..sat_steps {
            p.step_into(1, false, &mut newly);
        }
        sat_new = sat_new.min(t.elapsed());
        let t = Instant::now();
        for _ in 0..sat_steps {
            legacy.step();
        }
        sat_old = sat_old.min(t.elapsed());
    }
    for i in 0..graph.num_nodes() {
        let node = NodeId(i as u32);
        assert_eq!(
            p.prox_leq(node).to_bits(),
            legacy.prox_leq(node).to_bits(),
            "saturated arm: node {i} diverged"
        );
    }
    // A closed border is dense, so every saturated step gathers.
    let sat_gathered = (p.gathered_steps() - gathered_before) as usize;
    assert_eq!(sat_gathered, rounds * sat_steps, "saturated steps that gathered");
    let sat_ratio = sat_new.as_secs_f64() / sat_old.as_secs_f64().max(1e-12);
    println!(
        "\nsaturated (closed after {lead_steps} steps, {sat_units} units, \
         {sat_gathered} steps gathered): \
         {:.2}µs/step (legacy {:.2}µs/step, new/legacy = {sat_ratio:.3})",
        micros(sat_new, sat_steps),
        micros(sat_old, sat_steps),
    );

    let total = |v: &[Duration]| v.iter().sum::<Duration>();
    let seq_new_t = total(&seq_new);
    let seq_old_t = total(&seq_old);
    let seq_speedup = seq_old_t.as_secs_f64() / seq_new_t.as_secs_f64().max(1e-12);

    // Small vs large frontier split: the first two steps vs the rest.
    let small = 2.min(steps);
    let sum_range = |v: &[Duration], r: std::ops::Range<usize>| -> Duration { v[r].iter().sum() };
    let seq_new_small = sum_range(&seq_new, 0..small);
    let seq_new_large = sum_range(&seq_new, small..steps);

    println!(
        "\ntotals: seq {:.1}µs (legacy {:.1}µs, {:.2}x)",
        micros(seq_new_t, reps),
        micros(seq_old_t, reps),
        seq_speedup,
    );

    let mut report = JsonReport::new("propagation");
    report
        .str("scale", if smoke { "smoke" } else { "small" })
        .int("cores", cores as u64)
        .int("nodes", graph.num_nodes() as u64)
        .int("edges", graph.num_edges() as u64)
        .int("steps", steps as u64)
        .int("reps", reps as u64)
        .int("rounds", rounds as u64)
        .num("seq.new_us", micros(seq_new_t, reps))
        .num("seq.legacy_us", micros(seq_old_t, reps))
        .num("seq.speedup", seq_speedup)
        .num("small_frontier.seq_new_us", micros(seq_new_small, reps))
        .num("large_frontier.seq_new_us", micros(seq_new_large, reps))
        .int("saturated.lead_steps", lead_steps as u64)
        .int("saturated.units", sat_units as u64)
        .int("saturated.gathered_steps", sat_gathered as u64)
        .num("saturated.us_per_step", micros(sat_new, sat_steps))
        .num("saturated.legacy_us_per_step", micros(sat_old, sat_steps))
        .num("saturated.new_over_legacy", sat_ratio);

    // ---- Regression gate: new must not be slower than the seed path, ---
    // on the growing trajectory or once saturated. 10% noise margin; the
    // measured speedup is expected well above it.
    let gate_ratio = seq_new_t.as_secs_f64() / seq_old_t.as_secs_f64().max(1e-12);
    let gate_ok = gate_ratio <= 1.10 && sat_ratio <= 1.10;
    report.num("gate.new_over_legacy", gate_ratio).int("gate.passed", gate_ok as u64);
    report.write_and_announce();

    assert!(
        gate_ok,
        "regression gate: new sequential path is {gate_ratio:.2}x the legacy \
         baseline, {sat_ratio:.2}x once saturated (both must be <= 1.10x)"
    );
    println!("gate: ok (new/legacy = {gate_ratio:.3}, saturated {sat_ratio:.3})");
}
