//! Proximity propagation: the paper's `borderProx` iteration (§5.2),
//! computing the concrete social proximity of §3.4 exactly.
//!
//! # Semantics
//!
//! The concrete proximity (Definition 3.3 instantiated in §3.4) is
//!
//! ```text
//! prox(u, b) = Cγ · Σ_{p ∈ u⇝b} prox→(p) / γ^|p|,    Cγ = (γ−1)/γ
//! ```
//!
//! where `u⇝b` ranges over *all* social paths — chains of network edges in
//! which consecutive edges meet inside a vertical neighborhood — and
//! `prox→(p)` is the product of the *normalized* edge weights along `p`
//! (§2.5: each edge's weight is divided by `W(neigh(n))`, the total weight
//! leaving the vertical neighborhood of the node `n` the path arrived at).
//!
//! # Algorithm
//!
//! Let `x_j(v)` be the total normalized-weight mass of paths of length `j`
//! from the seeker that end **exactly at** node `v`. One step maps
//! `x_j → x_{j+1}`:
//!
//! 1. emission density `ρ(n) = x_j(n) / W(neigh(n))` for every border node;
//! 2. per tree, `emit(m) = Σ_{n : m ∈ neigh(n)} ρ(n)`, computed with an
//!    ancestor prefix pass plus a subtree suffix pass (O(tree));
//! 3. for every network edge `e: m → t`, `x_{j+1}(t) += emit(m) · w(e)`.
//!
//! Step 3 runs in one of two directions, chosen per step from the border
//! alone (`|border| · 4 ≥ |nodes|` gathers, see `GATHER_DENSITY`):
//!
//! * **push** (a sparse border): each active unit — a tree with a border
//!   node, or a border user/tag — scatters `emit(m) · w(e)` along its
//!   out-edges, so the step costs the border's edges;
//! * **gather** (a dense border, most of a cold query's steps): one pass
//!   writes `emit(m)` of every node, then every node, in ascending id,
//!   sums `emit(m) · w(e)` over its in-edges and joins the border iff the
//!   sum is positive. It sweeps the whole graph, but with no kind lookup,
//!   no tree sort, no mask and sequential writes.
//!
//! The accumulated proximity to a node is then
//! `prox≤n(u, b) = Σ_{v ∈ neigh(b) ∪ {b}} acc(v)` with
//! `acc(v) = Cγ Σ_{j≤n} x_j(v)/γ^j`. A step maintains `acc` at the border
//! nodes only; the neighborhood sum is taken when [`Propagation::prox_leq`]
//! is asked for a node (the search asks at a few dozen candidate sources
//! per step, while a border covers every reachable tree).
//!
//! # Attenuation bound
//!
//! Normalized out-weights of a neighborhood sum to exactly 1 (0 at sinks),
//! so the border mass `M_j = Σ_v x_j(v)` never increases, giving
//! `prox − prox≤n ≤ M_n / γ^{n+1}` ([`Propagation::bound_beyond`]) — the
//! paper's `B>n_prox`, which tends to 0 and drives S3k's stop condition.
//!
//! # Hot-path layout and reduction order
//!
//! The per-node fields a step touches together — `x`, `x_next`, `acc`,
//! the visited flags and the next border's membership mask — live in one
//! `NodeBuffers` struct-of-arrays block with a single shared length
//! discipline, and the boolean flags are word-packed [`crate::BitSet`]s:
//! 64 flags per word instead of one per byte. Both directions read the
//! graph's CSR ranges as contiguous slices — out-edges
//! ([`SocialGraph::out_edge_slices`]) for a push, in-edges
//! ([`SocialGraph::in_edge_slices`]) for a gather — so the multiply-adds
//! run in tight bounds-check-free loops. The ρ/ancestor/subtree passes
//! read the tree shape from one flat per-node parent array
//! ([`SocialGraph::frag_parents`]), no walk through the forest: a push
//! runs them per active tree on the tree's contiguous slice, a gather
//! runs them once over the whole node range, ascending then descending
//! (parents precede their fragments), with the same additions in the
//! same order.
//!
//! Neither direction sorts its new border. A push marks a target in the
//! mask on its first positive contribution and reads the border back by
//! scanning the mask's set bits; a gather visits the nodes in id order
//! and appends each positive sum. Both come out ascending. A gather uses
//! `x_next` as its emission scratch and writes the new border over `x`,
//! so it needs no buffer of its own; after either direction `x_next` and
//! the mask are empty again, and the next step may take the other.
//!
//! The floating-point **reduction order is fixed** and part of the API
//! contract (engine parity asserts byte-identical results). Sources are
//! ranked in **emission order**:
//!
//! * registered trees ascending by tree id, each tree's nodes ascending;
//! * then users and tags ascending by node id;
//! * within a source, out-edges in CSR (insertion) order.
//!
//! A push emits its units in that order and adds each contribution into
//! `x_next[target]` **at emission time** — exactly the order the seed
//! implementation produced by buffering `(target, Δmass)` pairs and
//! merging them sequentially. A gather adds a node's in-edges left to
//! right, and the reverse CSR stores them in that same order, so every
//! `x_{j+1}(t)` is the same left-to-right sum starting from `+0.0`. The
//! gather also adds the terms a push skips — sources off the border's
//! trees, or with `emit(m) = 0` — but each of those is `0 · w = +0.0`, and
//! adding `+0.0` to a non-negative sum leaves its bits unchanged (`+0.0 +
//! +0.0 = +0.0`; `a + 0.0 = a` for any `a > 0`). A sum is positive iff some
//! term was, so the two borders agree too.
//!
//! The `reduction_order_is_emission_order` test pins this down for both
//! directions, and `either_direction_equals_the_eager_oracle` draws each
//! step's direction at random.
//!
//! # Reuse across queries
//!
//! A `Propagation` owns O(|graph|) buffers. Building them per query is the
//! dominant allocation cost of a search, so the serving layer reuses one
//! `Propagation` per worker: [`Propagation::reset`] rewinds to a fresh
//! seeker without reallocating, and [`Propagation::step_into`] appends the
//! newly-reached nodes to a caller-owned buffer. Steady-state stepping
//! performs **zero heap allocations** (`crates/graph/tests/alloc.rs`
//! enforces this with a counting allocator). A step runs on the caller's
//! thread: queries are parallel one level up, across batch workers and
//! shards.
//!
//! **Sparse reset** keeps the per-query fixed cost proportional to the
//! search extent rather than the graph: every write to the
//! `x`/`acc`/`visited` buffers is journaled (visited nodes in first-visit
//! order; `x_next` and the mask are empty between steps), so
//! [`Propagation::reset`] clears only the entries a search actually
//! touched: O(touched), not O(|graph|). [`Propagation::detach`] /
//! [`Propagation::attach`] move the buffers through a graph-independent
//! [`PropagationState`], so a caller can keep them between queries (the
//! search keeps them in its scratch) without borrowing the graph.

use crate::bitset::BitSet;
use crate::graph::{SocialGraph, NO_PARENT};
use crate::node::{NodeId, NodeKind};
use s3_doc::TreeId;

/// Incremental all-paths proximity evaluation from one seeker: a graph
/// borrow over a [`PropagationState`] (the buffers detach via
/// [`Propagation::detach`] / [`Propagation::attach`]).
#[derive(Debug)]
pub struct Propagation<'g> {
    graph: &'g SocialGraph,
    s: PropagationState,
}

/// The per-node hot fields of a propagation, kept as one struct-of-arrays
/// block with a single shared length (`x.len() == x_next.len() ==
/// acc.len() == visited.len() == next.len()`, the graph's node count).
/// `step_into` streams these together, so co-sizing them keeps the resize
/// discipline in one place and the working set contiguous per field.
#[derive(Debug, Default)]
struct NodeBuffers {
    /// Border mass `x_n(v)` per node.
    x: Vec<f64>,
    /// Scratch: next border mass.
    x_next: Vec<f64>,
    /// `Cγ Σ_{j≤n} x_j(v)/γ^j` per node.
    acc: Vec<f64>,
    /// Has the node ever carried border mass? Word-packed.
    visited: BitSet,
    /// Scratch: the nodes with `x_next > 0`, i.e. the border being
    /// assembled for the next step. Empty between steps.
    next: BitSet,
}

impl NodeBuffers {
    /// The shared length (number of nodes the buffers are sized for).
    fn len(&self) -> usize {
        self.x.len()
    }

    /// Size every buffer for `n` nodes and clear all content (the cold
    /// attach path; reuses capacity).
    fn reset_for(&mut self, n: usize) {
        for buf in [&mut self.x, &mut self.x_next, &mut self.acc] {
            buf.clear();
            buf.resize(n, 0.0);
        }
        for flags in [&mut self.visited, &mut self.next] {
            flags.clear_all();
            flags.resize(n);
        }
    }
}

/// The graph-independent buffers of a [`Propagation`], detached so a
/// caller can keep them without borrowing the graph.
///
/// A default state is empty; [`Propagation::attach`] sizes it for the
/// graph on first use. A detached state remembers which graph and γ it
/// was built for, so `attach` can tell a same-graph state (buffers and
/// step preserved, or a sparse reset on another seeker) from a stale one
/// (buffers recycled, propagation reseeded).
#[derive(Debug, Default)]
pub struct PropagationState {
    /// Identity of the graph the buffers are sized and filled for (the
    /// graph's address; 0 = never attached).
    graph_tag: usize,
    gamma: f64,
    c_gamma: f64,
    /// `γ^n`, maintained by one multiply per step (no `powi` on the
    /// per-candidate bound path).
    gamma_pow: f64,
    /// Number of explore steps done so far (`n`).
    step: u32,
    /// How many of those steps gathered.
    gathered: u32,
    /// The node the propagation was seeded from.
    seeker: NodeId,
    /// The per-node SoA block (`x`, `x_next`, `acc`, `visited`, `next`).
    nodes: NodeBuffers,
    /// Nodes with `x > 0`, ascending.
    frontier: Vec<u32>,
    /// `M_n`: total border mass.
    border_mass: f64,
    /// Did some step produce no newly-visited node? Absorbing: the visited
    /// set can never grow again afterwards.
    frontier_closed: bool,
    /// Journal of visited nodes in first-visit order: the seeker, then
    /// every step's newly-visited list. Exactly the nodes with `x`, `acc`
    /// or `visited` writes — what [`Propagation::reset`] must clear.
    touched: Vec<u32>,
    /// Scratch: active trees of the current frontier, deduplicated.
    unit_trees: Vec<TreeId>,
    /// Scratch: active user/tag nodes of the current frontier.
    unit_singles: Vec<u32>,
    /// Scratch: per-tree ρ/ancestor/subtree passes.
    tree_scratch: Vec<f64>,
    /// Scratch of [`Propagation::prox_leq`]: the open `(node, partial
    /// sum)` chain of its ancestor and subtree passes, O(tree depth).
    chain: Vec<(u32, f64)>,
    /// Backing buffer for the [`Propagation::step`] convenience wrappers,
    /// reused across calls.
    newly_buf: Vec<NodeId>,
}

impl PropagationState {
    /// An empty state: the first [`Propagation::attach`] allocates.
    pub fn new() -> Self {
        PropagationState::default()
    }

    /// Number of explore steps the detached propagation had performed.
    pub fn step(&self) -> u32 {
        self.step
    }

    /// The seeker the detached propagation is warm for (meaningful only
    /// after at least one attach).
    pub fn seeker(&self) -> NodeId {
        self.seeker
    }

    /// Does this state hold a warm propagation for `graph` at damping
    /// `gamma` (i.e. would [`Propagation::attach`] preserve it)?
    pub fn warm_for(&self, graph: &SocialGraph, gamma: f64) -> bool {
        self.graph_tag == graph_tag(graph)
            && self.gamma == gamma
            && self.nodes.len() == graph.num_nodes()
    }
}

/// The identity tag stored in a detached state: the graph's address.
/// Address reuse after a graph is dropped could collide with a graph of
/// the same size; a caller that re-attaches across graphs therefore
/// rewinds to step 0 ([`Propagation::reset`]), which is exact on any graph
/// the buffers fit.
fn graph_tag(graph: &SocialGraph) -> usize {
    std::ptr::from_ref(graph) as usize
}

/// A step gathers once `|border| · GATHER_DENSITY ≥ |nodes|`, and pushes
/// below that. A gather sweeps the whole graph at a near-flat cost, a push
/// costs the border's edges; they cross at a border of 15–30 % of the
/// nodes. Best of five times per step of each direction at the same
/// borders (16 seekers × 22 steps, two runs, 2-vCPU Xeon at 2.1 GHz):
///
/// | border / nodes | `docs-8k` push | gather | `social-1k` push | gather |
/// |---|---|---|---|---|
/// | 0.10–0.125 | 377–406 µs | 547–551 µs | 41 µs | 53–54 µs |
/// | 0.125–0.20 | — | — | 43–50 µs | 51–53 µs |
/// | 0.20–0.30 | 673–726 µs | 528–562 µs | — | — |
/// | 0.30–0.50 | 766–843 µs | 469–484 µs | 73 µs | 46–47 µs |
///
/// (`docs-8k`: 29,741 nodes, 97,448 edges; `social-1k`: 2,271 nodes,
/// 13,946 edges.) A whole query is fastest with the switch at 1/4 to 1/6
/// of the nodes on both corpora: 8.9–9.2 ms against 14.2–15.6 ms pushing
/// throughout on `docs-8k`, 0.76 ms against 1.27–1.30 ms on `social-1k`;
/// 1/8 costs 0–0.5 % more, 1/16 2 %.
const GATHER_DENSITY: usize = 4;

/// Emission density `ρ(n) = x(n) / W(neigh(n))`; `0` at sinks and off the
/// border, where `0/w` would be `+0.0` anyway.
#[inline]
fn density(x: f64, w: f64) -> f64 {
    if x != 0.0 && w > 0.0 {
        x / w
    } else {
        0.0
    }
}

/// Emit `scale · w(e)` along every out edge of `node`, in CSR order,
/// adding each product into `x_next` at emission time — so per-target
/// addition order is emission order — and marking a target in `next` on
/// its first positive mass. The zipped CSR slices keep the loop
/// bounds-check-free.
#[inline]
fn emit_node(graph: &SocialGraph, node: usize, scale: f64, x_next: &mut [f64], next: &mut BitSet) {
    if scale > 0.0 {
        let (targets, weights) = graph.out_edge_slices(NodeId(node as u32));
        for (&t, &w) in targets.iter().zip(weights) {
            let dm = scale * w;
            let slot = &mut x_next[t.index()];
            if *slot == 0.0 && dm > 0.0 {
                next.set(t.index());
            }
            *slot += dm;
        }
    }
}

/// Emit one active document tree's contributions into `x_next`/`next`:
/// the ancestor-prefix + subtree-suffix aggregated emission. Reads only
/// `graph` and the current border `x`.
fn emit_tree(
    graph: &SocialGraph,
    x: &[f64],
    tree: TreeId,
    scratch: &mut Vec<f64>,
    x_next: &mut [f64],
    next: &mut BitSet,
) {
    let weights = graph.neighborhood_weights();
    let base = graph.tree_root_node(tree).expect("active tree registered").index();
    // The tree is its root plus the run of parented nodes after it;
    // `parents[i]` belongs to node `base + 1 + i`.
    let parents = &graph.frag_parents()[base + 1..];
    let parents = &parents[..parents.iter().take_while(|&&p| p != NO_PARENT).count()];
    if parents.is_empty() {
        // emit = anc + sub = 0.0 + ρ, which is ρ.
        return emit_node(graph, base, density(x[base], weights[base]), x_next, next);
    }
    let len = 1 + parents.len();
    if scratch.len() < 3 * len {
        scratch.resize(3 * len, 0.0);
    }
    let (rho, rest) = scratch.split_at_mut(len);
    let (anc, rest) = rest.split_at_mut(len);
    let sub = &mut rest[..len];
    let nodes = base..base + len;
    for ((r, &xi), &w) in rho.iter_mut().zip(&x[nodes.clone()]).zip(&weights[nodes]) {
        *r = density(xi, w);
    }
    // emit(m) = Σ_{n : m ∈ neigh(n)} ρ(n)
    //         = (strict-ancestor ρ sum) + (subtree ρ sum incl self).
    anc[0] = 0.0;
    for (i, &p) in parents.iter().enumerate() {
        let pi = p as usize - base;
        anc[i + 1] = anc[pi] + rho[pi];
    }
    sub.copy_from_slice(rho);
    for (i, &p) in parents.iter().enumerate().rev() {
        sub[p as usize - base] += sub[i + 1];
    }
    for i in 0..len {
        emit_node(graph, base + i, anc[i] + sub[i], x_next, next);
    }
}

/// Write `emit(m)` of **every** node into `emit` (the gather's first
/// pass): [`emit_tree`]'s additions in its order, but as two flat passes
/// over the node range instead of a loop per tree. A fragment's parent
/// precedes it (pre-order); users, tags and roots have none.
///
/// * Ascending, `emit[v]` takes `ρ(v)` and `x[v]` takes `anc(v) + ρ(v)`,
///   which is `anc` of each of `v`'s fragments.
/// * Descending, each node adds its finished subtree sum into its
///   parent's — siblings in descending id, as in [`emit_tree`] — then
///   adds its own `anc`, read off its parent's `x` (`+0.0` without a
///   parent, which leaves `ρ`).
///
/// `x` is clobbered; the gather overwrites it with the new border next.
/// A node off the border's trees gets `+0.0`, the value a push step
/// never scatters.
fn emission_everywhere(graph: &SocialGraph, x: &mut [f64], emit: &mut [f64]) {
    let (weights, parents) = (graph.neighborhood_weights(), graph.frag_parents());
    for v in 0..emit.len() {
        let rho = density(x[v], weights[v]);
        let anc = match parents[v] {
            NO_PARENT => 0.0,
            p => x[p as usize],
        };
        emit[v] = rho;
        x[v] = anc + rho;
    }
    for v in (0..emit.len()).rev() {
        let anc = match parents[v] {
            NO_PARENT => 0.0,
            p => {
                emit[p as usize] += emit[v];
                x[p as usize]
            }
        };
        emit[v] += anc;
    }
}

impl<'g> Propagation<'g> {
    /// Start a propagation from `seeker` with damping `gamma > 1`.
    pub fn new(graph: &'g SocialGraph, gamma: f64, seeker: NodeId) -> Self {
        Propagation::attach(graph, gamma, seeker, PropagationState::new())
    }

    /// Bind a detached [`PropagationState`] back to a graph. A state warm
    /// for `(graph, gamma)` keeps its buffers and step count: if its
    /// seeker equals `seeker` the propagation continues where it was
    /// detached; otherwise it is [`Self::reset`] (sparse, O(touched)).
    /// Any other state — fresh, or from a different graph or damping —
    /// has its buffers recycled and the propagation is seeded from
    /// scratch.
    pub fn attach(
        graph: &'g SocialGraph,
        gamma: f64,
        seeker: NodeId,
        state: PropagationState,
    ) -> Self {
        assert!(gamma > 1.0, "the proximity series requires γ > 1");
        let warm = state.warm_for(graph, gamma);
        let mut engine = Propagation { graph, s: state };
        if warm {
            if engine.s.seeker != seeker {
                engine.reset(seeker);
            }
        } else {
            // Stale or fresh state: size every per-node buffer for this
            // graph (reusing capacity where the buffers are large enough)
            // and start cold.
            engine.s.gamma = gamma;
            engine.s.c_gamma = (gamma - 1.0) / gamma;
            let s = &mut engine.s;
            s.nodes.reset_for(graph.num_nodes());
            s.frontier.clear();
            s.touched.clear();
            engine.rewind(seeker);
        }
        engine
    }

    /// Detach the buffers; [`Self::attach`] restores them.
    pub fn detach(self) -> PropagationState {
        let mut state = self.s;
        state.graph_tag = graph_tag(self.graph);
        state
    }

    /// Rewind to step 0 from a (possibly different) seeker, clearing only
    /// the journaled entries: O(touched nodes), not O(|graph|), and no
    /// allocation regardless of the previous search's extent. Equivalent
    /// to `Propagation::new(graph, gamma, seeker)`.
    pub fn reset(&mut self, seeker: NodeId) {
        // `x_next` and the `next` mask are empty between steps (a push
        // zeroes the old border before swapping and clears the mask once
        // read; a gather overwrites `x` whole and zeroes its emission
        // scratch), so only x/acc/visited at visited nodes hold residue.
        let nodes = &mut self.s.nodes;
        for &v in &self.s.touched {
            let v = v as usize;
            nodes.x[v] = 0.0;
            nodes.acc[v] = 0.0;
            nodes.visited.clear(v);
        }
        self.s.touched.clear();
        self.s.frontier.clear();
        self.rewind(seeker);
    }

    /// Reinstall the step-0 invariants and seed `seeker` (shared by
    /// [`Self::reset`] and the cold [`Self::attach`] path; callers have
    /// already cleared the per-node buffers and journals).
    fn rewind(&mut self, seeker: NodeId) {
        self.s.step = 0;
        self.s.gathered = 0;
        self.s.gamma_pow = 1.0;
        self.s.border_mass = 1.0;
        self.s.frontier_closed = false;
        self.s.seeker = seeker;
        self.seed(seeker);
    }

    /// Install the seeker's initial mass (the empty path, prox→ = 1).
    fn seed(&mut self, seeker: NodeId) {
        self.s.nodes.x[seeker.index()] = 1.0;
        self.s.nodes.visited.set(seeker.index());
        self.s.nodes.acc[seeker.index()] = self.s.c_gamma;
        self.s.frontier.push(seeker.0);
        self.s.touched.push(seeker.0);
    }

    /// The damping factor γ.
    pub fn gamma(&self) -> f64 {
        self.s.gamma
    }

    /// The graph this propagation's buffers are sized for.
    pub fn graph(&self) -> &'g SocialGraph {
        self.graph
    }

    /// Number of steps performed.
    pub fn iteration(&self) -> u32 {
        self.s.step
    }

    /// The node this propagation was seeded from.
    pub fn seeker(&self) -> NodeId {
        self.s.seeker
    }

    /// `M_n`, the current total border mass.
    pub fn border_mass(&self) -> f64 {
        self.s.border_mass
    }

    /// Has this node ever carried border mass?
    pub fn visited(&self, node: NodeId) -> bool {
        self.s.nodes.visited.get(node.index())
    }

    /// Every visited node in first-visit order: the seeker, then each
    /// step's newly-visited list in turn — exactly the sequence a search
    /// driver fed to discovery while this propagation advanced.
    pub fn visited_journal(&self) -> impl ExactSizeIterator<Item = NodeId> + '_ {
        self.s.touched.iter().map(|&v| NodeId(v))
    }

    /// Number of nodes the propagation has written to (the cost driver of
    /// [`Self::reset`]).
    pub fn touched_count(&self) -> usize {
        self.s.touched.len()
    }

    /// Has some step produced no newly-visited node? Once true the
    /// visited set can never grow again (closure is absorbing), so the
    /// search's undiscovered-document threshold collapses to 0.
    pub fn frontier_closed(&self) -> bool {
        self.s.frontier_closed
    }

    /// `prox≤n(seeker, node)`: proximity over the paths explored so far,
    /// `Σ acc` over the node's vertical neighborhood — the root-to-parent
    /// chain plus the node's own subtree — summed on demand, in time
    /// linear in that neighborhood and without allocating once the scratch
    /// has reached the tree's depth (hence `&mut self`).
    ///
    /// The additions and their order are those of one pass over the whole
    /// tree: ancestors fold from the root down (`anc(v) = anc(p) +
    /// acc(p)`), and in the subtree every node hands its finished sum to
    /// its parent, highest id first (`sub(p) += sub(v)`).
    pub fn prox_leq(&mut self, node: NodeId) -> f64 {
        let (acc, parents) = (&self.s.nodes.acc, self.graph.frag_parents());
        let chain = &mut self.s.chain;
        let v = node.index();
        // Pre-order: the subtree is `v` plus the run of nodes after it
        // whose parent is `v` or later.
        let below = parents[v + 1..].iter().take_while(|&&p| p != NO_PARENT && p as usize >= v);
        let end = v + 1 + below.count();
        if parents[v] == NO_PARENT && end == v + 1 {
            return acc[v]; // user, tag or one-node tree: 0.0 + acc(v)
        }

        chain.clear();
        let mut up = parents[v];
        while up != NO_PARENT {
            chain.push((up, 0.0));
            up = parents[up as usize];
        }
        let anc = chain.iter().rev().fold(0.0, |sum, &(a, _)| sum + acc[a as usize]);

        // `chain` now holds, innermost last, the nodes from `v` down to
        // the scan position that already received a child's sum; a node
        // the scan reaches is on top, or is a leaf.
        chain.clear();
        let finished = |chain: &mut Vec<(u32, f64)>, k: usize| match chain.last() {
            Some(&(open, partial)) if open as usize == k => {
                chain.pop();
                partial
            }
            _ => acc[k],
        };
        for k in (v + 1..end).rev() {
            let sub = finished(chain, k);
            let p = parents[k];
            match chain.last_mut() {
                Some((open, partial)) if *open == p => *partial += sub,
                _ => chain.push((p, acc[p as usize] + sub)),
            }
        }
        anc + finished(chain, v)
    }

    /// `B>n`: a bound on `prox − prox≤n` valid for **every** node
    /// simultaneously (DESIGN.md §3.2): `M_n / γ^{n+1}`. `γ^n` is carried
    /// incrementally (one multiply per [`Self::step_into`]), so evaluating
    /// the bound per candidate costs one divide, not a `powi`.
    pub fn bound_beyond(&self) -> f64 {
        self.s.border_mass / (self.s.gamma_pow * self.s.gamma)
    }

    /// Run one explore step (Algorithm 3's `ExploreStep`, in `borderProx`
    /// form). Returns the nodes that received border mass for the first
    /// time, in a state-owned buffer reused across calls (copy it out with
    /// `.to_vec()` to hold it across the next mutating call).
    pub fn step(&mut self) -> &[NodeId] {
        let mut newly = std::mem::take(&mut self.s.newly_buf);
        self.step_into(1, false, &mut newly);
        self.s.newly_buf = newly;
        &self.s.newly_buf
    }

    /// Allocation-free step: `newly` is cleared, then filled with the nodes
    /// that received border mass for the first time, in ascending id
    /// order (the order the next border is assembled in).
    ///
    /// A sparse border pushes; a dense one (`GATHER_DENSITY`) gathers.
    /// Both directions produce the same floats bit for bit (module docs).
    ///
    /// The two leading arguments are ignored: every step runs on the
    /// caller's thread. They stay in the signature only so that existing
    /// callers, the `s3bench` probe among them, keep compiling; they are
    /// dropped together with those callers.
    pub fn step_into(&mut self, _threads: usize, _force_parallel: bool, newly: &mut Vec<NodeId>) {
        if self.s.frontier.len() * GATHER_DENSITY >= self.graph.num_nodes() {
            self.gather_step(newly);
        } else {
            self.push_step(newly);
        }
    }

    /// Number of steps since the seeker was seeded that ran in the gather
    /// direction (at most [`Self::iteration`]).
    pub fn gathered_steps(&self) -> u32 {
        self.s.gathered
    }

    /// The push direction: each active unit scatters its emission along
    /// its out-edges, so the step costs the border's edges.
    fn push_step(&mut self, newly: &mut Vec<NodeId>) {
        newly.clear();
        self.collect_units();
        // Split-borrow the state: emission reads `x` and the unit lists
        // while scattering into `x_next`/`next`.
        let s = &mut self.s;
        let NodeBuffers { x, x_next, next, .. } = &mut s.nodes;
        for &tree in &s.unit_trees {
            emit_tree(self.graph, x, tree, &mut s.tree_scratch, x_next, next);
        }
        let weights = self.graph.neighborhood_weights();
        for &v in &s.unit_singles {
            let v = v as usize;
            emit_node(self.graph, v, density(x[v], weights[v]), x_next, next);
        }
        // Swap in the new border; clear the old one.
        for &v in &s.frontier {
            x[v as usize] = 0.0;
        }
        std::mem::swap(x, x_next);
        s.frontier.clear();
        s.frontier.extend(next.ones().map(|v| v as u32));
        next.clear_all();
        self.advance(newly);
    }

    /// The gather direction: `x_next` takes every node's emission, then
    /// every node, ascending, sums `emit(source) · w` over its in-edges
    /// (emission order) into `x`, which the old border no longer needs.
    fn gather_step(&mut self, newly: &mut Vec<NodeId>) {
        newly.clear();
        let s = &mut self.s;
        let NodeBuffers { x, x_next, .. } = &mut s.nodes;
        emission_everywhere(self.graph, x, x_next);
        s.frontier.clear();
        let (offsets, sources, weights) = self.graph.in_edges_csr();
        for (t, (slot, range)) in x.iter_mut().zip(offsets.windows(2)).enumerate() {
            let edges = range[0] as usize..range[1] as usize;
            let mut sum = 0.0;
            for (&src, &w) in sources[edges.clone()].iter().zip(&weights[edges]) {
                sum += x_next[src.index()] * w;
            }
            *slot = sum;
            if sum > 0.0 {
                s.frontier.push(t as u32);
            }
        }
        x_next.fill(0.0);
        s.gathered += 1;
        self.advance(newly);
    }

    /// Fill `unit_trees`/`unit_singles` with this step's emission units.
    fn collect_units(&mut self) {
        self.s.unit_trees.clear();
        self.s.unit_singles.clear();
        for &v in &self.s.frontier {
            match self.graph.kind(NodeId(v)) {
                NodeKind::User(_) | NodeKind::Tag(_) => self.s.unit_singles.push(v),
                NodeKind::Frag(f) => self.s.unit_trees.push(self.graph.forest().tree_of(f)),
            }
        }
        self.s.unit_trees.sort_unstable();
        self.s.unit_trees.dedup();
    }

    /// With the new border in `x` and `frontier`: advance the iteration
    /// counter, update `acc` and the visited set; push first-time nodes
    /// to `newly`.
    fn advance(&mut self, newly: &mut Vec<NodeId>) {
        let s = &mut self.s;
        s.step += 1;
        s.gamma_pow *= s.gamma;

        // Accumulate Cγ·x_n(v)/γ^n.
        let factor = s.c_gamma / s.gamma_pow;
        s.border_mass = 0.0;
        for &v in &s.frontier {
            let m = s.nodes.x[v as usize];
            s.border_mass += m;
            s.nodes.acc[v as usize] += m * factor;
            if s.nodes.visited.insert(v as usize) {
                s.touched.push(v);
                newly.push(NodeId(v));
            }
        }
        s.frontier_closed |= newly.is_empty();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edge::EdgeKind;
    use crate::graph::GraphBuilder;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use s3_doc::{DocBuilder, DocNodeId, Forest};

    /// The step as it was before it was made to cost its edges, kept as
    /// the oracle of `every_step_equals_the_eager_oracle`: the next border
    /// is a pushed list, sorted; the tree passes walk `forest.parent()`;
    /// and `acc_nb` — `prox≤n` of every node — is recomputed over every
    /// touched tree on every step.
    struct Eager<'g> {
        graph: &'g SocialGraph,
        gamma: f64,
        c_gamma: f64,
        gamma_pow: f64,
        x: Vec<f64>,
        x_next: Vec<f64>,
        acc: Vec<f64>,
        acc_nb: Vec<f64>,
        visited: Vec<bool>,
        frontier: Vec<u32>,
        frontier_next: Vec<u32>,
        border_mass: f64,
    }

    impl<'g> Eager<'g> {
        fn new(graph: &'g SocialGraph, gamma: f64, seeker: NodeId) -> Self {
            let n = graph.num_nodes();
            let mut e = Eager {
                graph,
                gamma,
                c_gamma: (gamma - 1.0) / gamma,
                gamma_pow: 1.0,
                x: vec![0.0; n],
                x_next: vec![0.0; n],
                acc: vec![0.0; n],
                acc_nb: vec![0.0; n],
                visited: vec![false; n],
                frontier: vec![seeker.0],
                frontier_next: Vec::new(),
                border_mass: 1.0,
            };
            e.x[seeker.index()] = 1.0;
            e.visited[seeker.index()] = true;
            e.acc[seeker.index()] = e.c_gamma;
            e.refresh_acc_nb();
            e
        }

        /// The frontier's fragment trees, ascending, and its users/tags.
        fn units(&self) -> (Vec<TreeId>, Vec<u32>) {
            let (mut trees, mut singles) = (Vec::new(), Vec::new());
            for &v in &self.frontier {
                match self.graph.kind(NodeId(v)) {
                    NodeKind::User(_) | NodeKind::Tag(_) => singles.push(v),
                    NodeKind::Frag(f) => trees.push(self.graph.forest().tree_of(f)),
                }
            }
            trees.sort_unstable();
            trees.dedup();
            (trees, singles)
        }

        /// `anc[i] + sub[i]` of `value` over one tree, by walking the
        /// forest: ancestors ascending, subtrees descending.
        fn neighborhood_sums(&self, tree: TreeId, value: &[f64]) -> Vec<f64> {
            let forest = self.graph.forest();
            let first_doc = forest.tree_range(tree).start;
            let len = value.len();
            let parent = |i: usize| {
                forest.parent(DocNodeId((first_doc + i) as u32)).map(|p| p.index() - first_doc)
            };
            let mut anc = vec![0.0; len];
            let mut sub = value.to_vec();
            for i in 0..len {
                if let Some(pi) = parent(i) {
                    anc[i] = anc[pi] + value[pi];
                }
            }
            for i in (0..len).rev() {
                if let Some(pi) = parent(i) {
                    sub[pi] += sub[i];
                }
            }
            (0..len).map(|i| anc[i] + sub[i]).collect()
        }

        fn emit(&mut self, node: usize, scale: f64) {
            for (target, _, w) in self.graph.out_edges(NodeId(node as u32)) {
                let slot = &mut self.x_next[target.index()];
                if *slot == 0.0 && scale * w > 0.0 {
                    self.frontier_next.push(target.0);
                }
                *slot += scale * w;
            }
        }

        fn step(&mut self) -> Vec<NodeId> {
            let graph = self.graph;
            let (trees, singles) = self.units();
            for tree in trees {
                let range = graph.tree_node_range(tree).expect("registered");
                let rho: Vec<f64> = range
                    .clone()
                    .map(|node| {
                        let w = graph.neighborhood_weight(NodeId(node as u32));
                        if w > 0.0 {
                            self.x[node] / w
                        } else {
                            0.0
                        }
                    })
                    .collect();
                for (node, emit) in range.zip(self.neighborhood_sums(tree, &rho)) {
                    if emit > 0.0 {
                        self.emit(node, emit);
                    }
                }
            }
            for v in singles {
                let w = graph.neighborhood_weight(NodeId(v));
                if w > 0.0 {
                    self.emit(v as usize, self.x[v as usize] / w);
                }
            }

            self.frontier_next.sort_unstable();
            self.frontier_next.dedup();
            for &v in &self.frontier {
                self.x[v as usize] = 0.0;
            }
            std::mem::swap(&mut self.x, &mut self.x_next);
            self.frontier = std::mem::take(&mut self.frontier_next);
            self.gamma_pow *= self.gamma;
            let factor = self.c_gamma / self.gamma_pow;
            self.border_mass = 0.0;
            let mut newly = Vec::new();
            for &v in &self.frontier {
                let m = self.x[v as usize];
                self.border_mass += m;
                self.acc[v as usize] += m * factor;
                if !std::mem::replace(&mut self.visited[v as usize], true) {
                    newly.push(NodeId(v));
                }
            }
            self.refresh_acc_nb();
            newly
        }

        /// Recompute `acc_nb` wherever the frontier can have changed it.
        fn refresh_acc_nb(&mut self) {
            let (trees, singles) = self.units();
            for v in singles {
                self.acc_nb[v as usize] = self.acc[v as usize];
            }
            for tree in trees {
                let range = self.graph.tree_node_range(tree).expect("registered");
                let sums = self.neighborhood_sums(tree, &self.acc[range.clone()]);
                self.acc_nb[range].copy_from_slice(&sums);
            }
        }
    }

    /// A forest of `trees` random documents (depth ≤ 4, fan-out ≤ 4, one
    /// in four a single node) among users and tags — more than 128 nodes
    /// in all — registered in a shuffled order so node order and tree
    /// order disagree. Edges leave
    /// and reach inner fragments as well as roots; users nobody follows
    /// back, unposted documents and fragments without edges are sinks.
    fn random_forest_graph(seed: u64, trees: usize) -> (SocialGraph, Vec<NodeId>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut forest = Forest::new();
        let mut docs = Vec::new();
        for d in 0..trees {
            let mut b = DocBuilder::new(format!("doc{d}"));
            let extra = if rng.gen_bool(0.25) { 0 } else { rng.gen_range(1..12usize) };
            // Nodes that may still take a child: (node, depth, children).
            let mut open = vec![(b.root(), 0usize, 0usize)];
            for _ in 0..extra {
                if open.is_empty() {
                    break;
                }
                let slot = rng.gen_range(0..open.len());
                let (parent, depth, _) = open[slot];
                let child = b.child(parent, "sec");
                open[slot].2 += 1;
                if open[slot].2 == 4 {
                    open.swap_remove(slot);
                }
                if depth + 1 < 4 {
                    open.push((child, depth + 1, 0));
                }
            }
            docs.push(forest.add_document(b));
        }
        for i in (1..docs.len()).rev() {
            docs.swap(i, rng.gen_range(0..=i));
        }

        let mut g = GraphBuilder::new(forest);
        let (mut users, mut tags, mut frags, mut roots) = (vec![], vec![], vec![], vec![]);
        for &t in &docs {
            for _ in 0..rng.gen_range(0..3usize) {
                users.push(g.add_user());
            }
            if rng.gen_bool(0.4) {
                tags.push(g.add_tag());
            }
            let root = g.register_tree(t);
            roots.push(root);
            frags.extend((0..g.forest().tree_len(t)).map(|i| NodeId(root.0 + i as u32)));
        }
        // At least one user, and enough nodes for a three-word mask.
        while users.is_empty() || g.num_nodes() <= 128 {
            users.push(g.add_user());
        }
        let pick = |rng: &mut StdRng, from: &[NodeId]| from[rng.gen_range(0..from.len())];
        for _ in 0..2 * users.len() {
            let (a, b) = (pick(&mut rng, &users), pick(&mut rng, &users));
            if a != b {
                g.add_edge(a, b, EdgeKind::Social, rng.gen_range(0.1..=1.0));
            }
        }
        for &root in &roots {
            if rng.gen_bool(0.8) {
                g.add_edge(root, pick(&mut rng, &users), EdgeKind::PostedBy, 1.0);
            }
        }
        for _ in 0..trees {
            let (a, b) = (pick(&mut rng, &frags), pick(&mut rng, &frags));
            if a != b {
                g.add_edge(a, b, EdgeKind::CommentsOn, rng.gen_range(0.1..=1.0));
            }
        }
        for &tag in &tags {
            g.add_edge(tag, pick(&mut rng, &frags), EdgeKind::HasSubject, 1.0);
            g.add_edge(tag, pick(&mut rng, &users), EdgeKind::HasAuthor, 1.0);
        }
        (g.build(), users)
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

        /// After every step the propagation equals the eager oracle **bit
        /// for bit**: border, border mass, `newly`, and on-demand
        /// `prox_leq` at every node against the oracle's `acc_nb`. The
        /// border and `newly` ascend strictly, across the mask's word
        /// boundaries.
        #[test]
        fn every_step_equals_the_eager_oracle(seed in 0u64..100_000) {
            let (graph, users) = random_forest_graph(seed, 24 + (seed % 8) as usize);
            prop_assert!(graph.num_nodes() > 128);
            let mut rng = StdRng::seed_from_u64(seed ^ 0x0DD5);
            let gamma = [1.2, 1.5, 2.0][rng.gen_range(0..3usize)];
            let seeker = users[rng.gen_range(0..users.len())];

            let mut oracle = Eager::new(&graph, gamma, seeker);
            let mut p = Propagation::new(&graph, gamma, seeker);
            for step in 0..=14 {
                if step > 0 {
                    let expected = oracle.step();
                    prop_assert_eq!(p.step(), &expected[..]);
                    prop_assert!(expected.windows(2).all(|w| w[0] < w[1]));
                }
                prop_assert_eq!(&p.s.frontier, &oracle.frontier);
                prop_assert!(p.s.frontier.windows(2).all(|w| w[0] < w[1]));
                prop_assert_eq!(p.border_mass().to_bits(), oracle.border_mass.to_bits());
                for node in graph.nodes() {
                    let i = node.index();
                    prop_assert_eq!(p.s.nodes.x[i].to_bits(), oracle.x[i].to_bits());
                    prop_assert_eq!(
                        p.prox_leq(node).to_bits(),
                        oracle.acc_nb[i].to_bits(),
                        "step {}: prox≤n({:?}) = {} vs eager {}",
                        step, node, p.prox_leq(node), oracle.acc_nb[i]
                    );
                }
            }
        }
    }

    /// One step in the direction the test names, whatever the border.
    fn step_forced(p: &mut Propagation<'_>, gather: bool) -> Vec<NodeId> {
        let mut newly = Vec::new();
        if gather {
            p.gather_step(&mut newly);
        } else {
            p.push_step(&mut newly);
        }
        newly
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

        /// Push and gather are one function: with each step's direction
        /// drawn at random, the propagation still equals the eager oracle
        /// bit for bit — border, border mass, `newly` and `prox_leq` at
        /// every node — and leaves `x_next` and the mask empty after
        /// either direction, so the next step may take the other.
        #[test]
        fn either_direction_equals_the_eager_oracle(seed in 0u64..100_000) {
            let (graph, users) = random_forest_graph(seed, 24 + (seed % 8) as usize);
            let mut rng = StdRng::seed_from_u64(seed ^ 0xD1EC);
            let gamma = [1.2, 1.5, 2.0][rng.gen_range(0..3usize)];
            let seeker = users[rng.gen_range(0..users.len())];

            let mut oracle = Eager::new(&graph, gamma, seeker);
            let mut p = Propagation::new(&graph, gamma, seeker);
            let mut gathered = 0;
            for step in 1..=14 {
                let gather = rng.gen_bool(0.5);
                gathered += u32::from(gather);
                let expected = oracle.step();
                prop_assert_eq!(step_forced(&mut p, gather), expected);
                prop_assert_eq!(p.gathered_steps(), gathered);
                prop_assert_eq!(&p.s.frontier, &oracle.frontier);
                prop_assert_eq!(p.border_mass().to_bits(), oracle.border_mass.to_bits());
                prop_assert!(p.s.nodes.x_next.iter().all(|&v| v.to_bits() == 0));
                prop_assert_eq!(p.s.nodes.next.ones().count(), 0);
                for node in graph.nodes() {
                    let i = node.index();
                    prop_assert_eq!(p.s.nodes.x[i].to_bits(), oracle.x[i].to_bits());
                    prop_assert_eq!(
                        p.prox_leq(node).to_bits(),
                        oracle.acc_nb[i].to_bits(),
                        "step {} (gather {}): prox≤n({:?})", step, gather, node
                    );
                }
            }
        }
    }

    /// A border on both sides of the mask's first word boundaries comes
    /// back in id order: the seeker follows users 62..=66 and 127..=129.
    #[test]
    fn border_ascends_across_word_boundaries() {
        let mut g = GraphBuilder::new(Forest::new());
        let users: Vec<NodeId> = (0..130).map(|_| g.add_user()).collect();
        let followed = [128u32, 64, 62, 129, 63, 127, 66, 65];
        for &u in &followed {
            g.add_edge(users[0], users[u as usize], EdgeKind::Social, 0.5);
        }
        let graph = g.build();
        let mut p = Propagation::new(&graph, 1.5, users[0]);
        let mut sorted = followed.to_vec();
        sorted.sort_unstable();
        assert_eq!(p.step(), sorted.iter().map(|&u| NodeId(u)).collect::<Vec<_>>());
        assert_eq!(p.s.frontier, sorted);
    }

    /// Two users and a single-node document: u0 —posted— d, u0 —social→ u1.
    fn small() -> (SocialGraph, NodeId, NodeId, NodeId) {
        let mut forest = Forest::new();
        let t = forest.add_document(DocBuilder::new("doc"));
        let mut g = GraphBuilder::new(forest);
        let u0 = g.add_user();
        let u1 = g.add_user();
        let d = g.register_tree(t);
        g.add_edge(d, u0, EdgeKind::PostedBy, 1.0);
        g.add_edge(u0, u1, EdgeKind::Social, 0.3);
        (g.build(), u0, u1, d)
    }

    #[test]
    fn example_3_1_first_step_proximity() {
        // Paper Example 3.1: prox≤1(u0, URI0) = (1/(1+0.3)) / γ · Cγ under
        // our Cγ-normalized series.
        let (g, u0, _u1, d) = small();
        let gamma = 2.0;
        let mut p = Propagation::new(&g, gamma, u0);
        p.step();
        let c_gamma = (gamma - 1.0) / gamma;
        let expected = c_gamma * (1.0 / 1.3) / gamma;
        assert!((p.prox_leq(d) - expected).abs() < 1e-12, "{} vs {expected}", p.prox_leq(d));
    }

    #[test]
    fn empty_path_gives_self_proximity() {
        let (g, u0, u1, _) = small();
        let mut p = Propagation::new(&g, 2.0, u0);
        assert!((p.prox_leq(u0) - 0.5).abs() < 1e-12); // Cγ = 1/2
        assert_eq!(p.prox_leq(u1), 0.0);
    }

    #[test]
    fn border_mass_never_increases() {
        let (g, u0, _, _) = small();
        let mut p = Propagation::new(&g, 1.5, u0);
        let mut last = p.border_mass();
        for _ in 0..6 {
            p.step();
            assert!(p.border_mass() <= last + 1e-12);
            last = p.border_mass();
        }
    }

    #[test]
    fn prox_is_monotone_and_bounded() {
        let (g, u0, u1, d) = small();
        let mut p = Propagation::new(&g, 1.5, u0);
        let mut prev = [p.prox_leq(u1), p.prox_leq(d)];
        for _ in 0..10 {
            p.step();
            let cur = [p.prox_leq(u1), p.prox_leq(d)];
            for (a, b) in prev.iter().zip(cur.iter()) {
                assert!(b + 1e-12 >= *a, "prox must be non-decreasing");
                assert!(*b <= 1.0 + 1e-12);
            }
            prev = cur;
        }
    }

    #[test]
    fn bound_beyond_shrinks_to_zero() {
        let (g, u0, _, _) = small();
        let mut p = Propagation::new(&g, 1.5, u0);
        let mut prev = p.bound_beyond();
        for _ in 0..20 {
            p.step();
            assert!(p.bound_beyond() <= prev + 1e-12);
            prev = p.bound_beyond();
        }
        assert!(prev < 1e-3);
    }

    #[test]
    fn newly_visited_reported_once() {
        let (g, u0, u1, d) = small();
        let mut p = Propagation::new(&g, 2.0, u0);
        let first = p.step().to_vec();
        // u0's out edges: postedBy⁻ to d and social to u1.
        assert_eq!(first, vec![u1, d]);
        let second = p.step();
        // Mass flows back to u0 (already visited): nothing new.
        assert!(second.is_empty());
        assert!(p.visited(u0) && p.visited(u1) && p.visited(d));
    }

    #[test]
    fn reset_matches_fresh_propagation() {
        let (g, u0, u1, d) = small();
        // Drive one propagation far from u0, then reset it to u1.
        let mut reused = Propagation::new(&g, 1.5, u0);
        for _ in 0..8 {
            reused.step();
        }
        reused.reset(u1);
        let mut fresh = Propagation::new(&g, 1.5, u1);
        for node in [u0, u1, d] {
            assert_eq!(reused.prox_leq(node), fresh.prox_leq(node));
            assert_eq!(reused.visited(node), fresh.visited(node));
        }
        for _ in 0..6 {
            let a = reused.step();
            let b = fresh.step();
            assert_eq!(a, b);
            for node in [u0, u1, d] {
                assert_eq!(reused.prox_leq(node), fresh.prox_leq(node));
            }
            assert_eq!(reused.border_mass(), fresh.border_mass());
            assert_eq!(reused.bound_beyond(), fresh.bound_beyond());
        }
    }

    #[test]
    fn journal_is_first_visit_order() {
        let (g, u0, u1, d) = small();
        let mut p = Propagation::new(&g, 2.0, u0);
        assert_eq!(p.visited_journal().collect::<Vec<_>>(), vec![u0]);
        let newly = p.step().to_vec();
        assert_eq!(
            p.visited_journal().collect::<Vec<_>>(),
            std::iter::once(u0).chain(newly).collect::<Vec<_>>()
        );
        let before = p.touched_count();
        p.step(); // no new nodes
        assert_eq!(p.touched_count(), before);
        assert_eq!(p.visited_journal().len(), 3);
        assert!([u0, u1, d].iter().all(|&n| p.visited(n)));
    }

    #[test]
    fn frontier_closure_is_absorbing() {
        let (g, u0, _, _) = small();
        let mut p = Propagation::new(&g, 1.5, u0);
        assert!(!p.frontier_closed());
        let mut closed_at = None;
        for i in 0..10 {
            let newly_empty = p.step().is_empty();
            if p.frontier_closed() {
                closed_at.get_or_insert(i);
                assert!(newly_empty || closed_at != Some(i));
            } else {
                assert!(closed_at.is_none(), "closure must be absorbing");
            }
        }
        assert!(closed_at.is_some(), "a 3-node graph closes within 10 steps");
        p.reset(u0);
        assert!(!p.frontier_closed(), "reset reopens the frontier");
    }

    #[test]
    fn incremental_gamma_power_matches_powi() {
        let (g, u0, _, _) = small();
        for gamma in [1.1, 1.5, 2.0, 3.7] {
            let mut p = Propagation::new(&g, gamma, u0);
            for _ in 0..40 {
                p.step();
                let n = p.iteration() as i32;
                let direct = p.border_mass() / gamma.powi(n + 1);
                let rel = if direct == 0.0 {
                    p.bound_beyond().abs()
                } else {
                    ((p.bound_beyond() - direct) / direct).abs()
                };
                assert!(rel < 1e-12, "γ={gamma} n={n}: {} vs {direct}", p.bound_beyond());
            }
        }
    }

    #[test]
    fn detach_attach_preserves_a_warm_same_seeker_propagation() {
        let (g, u0, u1, d) = small();
        let mut warm = Propagation::new(&g, 1.5, u0);
        let mut cold = Propagation::new(&g, 1.5, u0);
        for _ in 0..3 {
            warm.step();
            cold.step();
        }
        let state = warm.detach();
        assert_eq!(state.step(), 3);
        assert_eq!(state.seeker(), u0);
        assert!(state.warm_for(&g, 1.5));
        assert!(!state.warm_for(&g, 2.0), "γ mismatch must not resume");
        let mut warm = Propagation::attach(&g, 1.5, u0, state);
        assert_eq!(warm.iteration(), 3, "same seeker: state preserved");
        for _ in 0..4 {
            let a = warm.step().to_vec();
            let b = cold.step();
            assert_eq!(a, b);
        }
        for node in [u0, u1, d] {
            assert_eq!(warm.prox_leq(node), cold.prox_leq(node));
        }
        assert_eq!(warm.bound_beyond(), cold.bound_beyond());
    }

    #[test]
    fn attach_with_other_seeker_or_gamma_starts_cold() {
        let (g, u0, u1, d) = small();
        let mut p = Propagation::new(&g, 1.5, u0);
        for _ in 0..5 {
            p.step();
        }
        // Same γ, different seeker: sparse reset inside attach.
        let mut p = Propagation::attach(&g, 1.5, u1, p.detach());
        let mut fresh = Propagation::new(&g, 1.5, u1);
        assert_eq!(p.iteration(), 0);
        for node in [u0, u1, d] {
            assert_eq!(p.prox_leq(node), fresh.prox_leq(node));
            assert_eq!(p.visited(node), fresh.visited(node));
        }
        // Different γ: buffers recycled, reseeded.
        let mut p = Propagation::attach(&g, 2.0, u0, p.detach());
        let mut fresh = Propagation::new(&g, 2.0, u0);
        assert_eq!(p.iteration(), 0);
        assert_eq!(p.bound_beyond(), fresh.bound_beyond());
        for node in [u0, u1, d] {
            assert_eq!(p.prox_leq(node), fresh.prox_leq(node));
        }
    }

    #[test]
    fn step_into_reuses_caller_buffer() {
        let (g, u0, u1, d) = small();
        let mut p = Propagation::new(&g, 2.0, u0);
        let mut newly = Vec::new();
        p.step_into(1, false, &mut newly);
        assert_eq!(newly, vec![u1, d]);
        let cap = newly.capacity();
        p.step_into(1, false, &mut newly);
        assert!(newly.is_empty());
        assert_eq!(newly.capacity(), cap, "buffer must be reused, not reallocated");
    }

    #[test]
    fn step_wrappers_reuse_the_state_buffer() {
        let (g, u0, _, _) = small();
        let mut p = Propagation::new(&g, 2.0, u0);
        let first_ptr = p.step().as_ptr();
        // Later steps return the same backing buffer (capacity ≥ 2 after
        // the first step, and nothing ever outgrows it on this graph).
        assert_eq!(p.step().as_ptr(), first_ptr);
    }

    /// Pins the documented reduction order: per-target accumulation in
    /// `x_next` happens in emission order (trees ascending, then singles
    /// in frontier order; CSR edge order within a unit). A node fed by
    /// three sources with weights that expose rounding must equal the
    /// explicit left-to-right sum, **bit for bit** — this is the contract
    /// engine parity relies on, so any layout change that reorders the
    /// additions fails here before it fails a parity suite.
    #[test]
    fn reduction_order_is_emission_order() {
        // u0 —w[i]→ u{i+1} —v[i]→ t: three two-hop chains meeting at t.
        let w = [0.1, 0.2, 0.3];
        let v = [0.7, 0.11, 0.13];
        let forest = Forest::new();
        let mut gb = GraphBuilder::new(forest);
        let u0 = gb.add_user();
        let mids = [gb.add_user(), gb.add_user(), gb.add_user()];
        let t = gb.add_user();
        for i in 0..3 {
            gb.add_edge(u0, mids[i], EdgeKind::Social, w[i]);
        }
        for i in 0..3 {
            gb.add_edge(mids[i], t, EdgeKind::Social, v[i]);
        }
        let g = gb.build();

        let gamma = 1.7;
        let mut p = Propagation::new(&g, gamma, u0);
        p.step();
        p.step();

        // Re-derive prox≤2(t) with the exact documented operation order:
        // normalization sums in CSR order, ρ·w per edge, per-target adds
        // in frontier (= ascending id) order, Cγ/γ² via the incremental
        // power.
        let c_gamma = (gamma - 1.0) / gamma;
        let w0: f64 = w.iter().sum(); // u0's CSR slice is w[0], w[1], w[2]
        let mut sum_t = 0.0;
        for i in 0..3 {
            let x1 = (1.0 / w0) * w[i];
            // mids[i]'s only out edge is v[i] (social edges have no
            // inverse), so its neighborhood weight is v[i] alone.
            let wi: f64 = [v[i]].iter().sum();
            sum_t += (x1 / wi) * v[i];
        }
        let gamma_pow = (1.0 * gamma) * gamma;
        let expected = sum_t * (c_gamma / gamma_pow);
        assert_eq!(
            p.prox_leq(t).to_bits(),
            expected.to_bits(),
            "sequential reduction order must match the documented emission order"
        );

        // The gather arm: one target fed by two one-node trees registered
        // out of `TreeId` order, and by a user. The gather must add in
        // emission order — tree 0, tree 1, then the user — not in the
        // order of the sources' node ids (user, tree 1, tree 0).
        let mut forest = Forest::new();
        let trees =
            [forest.add_document(DocBuilder::new("a")), forest.add_document(DocBuilder::new("b"))];
        let mut gb = GraphBuilder::new(forest);
        let (u0, mid, t) = (gb.add_user(), gb.add_user(), gb.add_user());
        let root1 = gb.register_tree(trees[1]);
        let root0 = gb.register_tree(trees[0]);
        assert!(mid < root1 && root1 < root0, "node order disagrees with tree order");
        let (r, w, s) = ([0.3, 0.7], [0.1, 0.1, 0.3], 0.35);
        // u0 reaches both roots through postedBy⁻ and `mid` socially; each
        // feeds t.
        gb.add_edge(root0, u0, EdgeKind::PostedBy, r[0]);
        gb.add_edge(root1, u0, EdgeKind::PostedBy, r[1]);
        gb.add_edge(u0, mid, EdgeKind::Social, s);
        gb.add_edge(root0, t, EdgeKind::PostedBy, w[0]);
        gb.add_edge(root1, t, EdgeKind::PostedBy, w[1]);
        gb.add_edge(mid, t, EdgeKind::Social, w[2]);
        let g = gb.build();

        // x₁ of each source, then ρ = x₁ / W(neigh) (a root's neighborhood
        // is its one-node tree: the edges back to u0 and on to t).
        let w_u0: f64 = [r[0], r[1], s].iter().sum();
        let x1 = [(1.0 / w_u0) * r[0], (1.0 / w_u0) * r[1], (1.0 / w_u0) * s];
        let rho = [x1[0] / (r[0] + w[0]), x1[1] / (r[1] + w[1]), x1[2] / w[2]];
        let terms = [rho[0] * w[0], rho[1] * w[1], rho[2] * w[2]];
        let x2 = (0.0 + terms[0] + terms[1]) + terms[2];
        let by_node_id = (0.0 + terms[2] + terms[1]) + terms[0];
        assert_ne!(x2.to_bits(), by_node_id.to_bits(), "the weights expose the order");
        for gather in [false, true] {
            let mut p = Propagation::new(&g, gamma, u0);
            step_forced(&mut p, gather);
            step_forced(&mut p, gather);
            assert_eq!(p.s.nodes.x[t.index()].to_bits(), x2.to_bits(), "gather {gather}");
        }
    }
}
