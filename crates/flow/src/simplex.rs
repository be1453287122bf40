//! A network-simplex backend for the minimum-cost solve.
//!
//! The backend loads its arc arrays straight from the
//! [`TransportInstance`] — no residual network is built — and returns the
//! shipment read off its own flow.
//!
//! The primal-dual kernel of [`crate::mincost`] is at its constant-factor
//! floor: every phase scans the whole edge set, and on the tie-rich
//! transportation networks of the scheduler most phases move little flow.
//! The network simplex walks the *vertices* of the flow polytope instead:
//! it maintains a spanning-tree basis, prices the nonbasic arcs against the
//! tree's node potentials, and pivots along the unique tree cycle of an
//! eligible arc.  On product-form transportation costs (the System-(2)
//! objective) the admissible structure is exactly what a spanning-tree basis
//! captures, so pivots are few and each one touches only a tree path.
//!
//! Implementation notes:
//!
//! * **Arc layout.**  Nodes are the instance's sources, then its bins,
//!   then a super-source and a super-sink; arcs are one per source of
//!   positive demand, one per bin of positive capacity, then one per route
//!   capped at its source's demand (the order a residual network of the
//!   instance lists its edges in), followed by the artificial arcs below.
//! * **Maximum flow via a big-cost return arc.**  The instance's demand is
//!   shipped as a min-cost *max*-flow, obtained by adding a
//!   `sink → source` arc of cost `-BIG` (with `BIG` dominating any simple
//!   path cost) and solving a zero-supply min-cost circulation, so flow
//!   maximisation and cost minimisation happen in one pivot sequence.
//! * **Strongly feasible basis.**  The initial basis is the star of
//!   artificial root arcs (every node pointing at an artificial root), which
//!   is strongly feasible; the leaving-arc rule breaks ratio-test ties the
//!   standard way (last blocking arc against the cycle orientation), which
//!   preserves strong feasibility and rules out cycling on degenerate
//!   pivots.
//! * **Block pricing.**  The entering arc is the most negative reduced cost
//!   in the first block (of `≈√m` arcs) containing any eligible arc, with a
//!   per-solve rolling start position — the standard compromise between
//!   Dantzig pricing and round-robin.  The start position resets at every
//!   solve so a solve is a pure function of its instance and start basis.
//!   A block is `[pos, pos + block)` modulo the arc count, scanned as at
//!   most two contiguous index ranges (two only when it wraps past the last
//!   arc), so the walk takes no division per arc.  Tree arcs are not
//!   branched on first: their state sign is zero, so phase 1's
//!   eligibility filter drops them with every other ineligible arc, and
//!   only the few arcs that pass it (in phase 2, primary ties too) are
//!   checked for being basic or capacity-less.
//! * **Tree.**  The spanning tree is kept as `parent`/`pred`/`depth`
//!   arrays plus sibling-linked child lists (`first_child`,
//!   `next_sibling`, `prev_sibling`).  A pivot re-hangs the tree path
//!   between the entering and the leaving arc by unlinking and relinking
//!   each node in O(1), then refreshes the re-hung subtree's depths and
//!   potentials in a preorder walk over the links, without a stack; the
//!   warm re-priming walks the whole tree the same way.  The order of
//!   siblings carries no meaning: every depth and potential is computed
//!   from the node's parent, whatever order the walk visits siblings in.
//! * **Same pivots whatever the loop's constant factors.**  The block
//!   sequence, the eligibility and comparison expressions of the pricing,
//!   the ratio-test tie-break, the bound-snap, leaf-elimination and repair
//!   orders, and the potentials — each recomputed from its parent's, never
//!   shifted by a pivot's reduced cost, which would round differently —
//!   fix the pivot path, the vertex reached and the bytes emitted.  A
//!   speed-up of these loops must keep every one of them: no
//!   delta-shifted potentials, and no reordering of the scan or of the
//!   ratio test.  The per-arc `% m` walk the block ranges replaced is kept
//!   as a unit-test oracle of [`NetworkSimplexBackend`]'s pricing, and
//!   `priced_arcs()` counts the arcs priced, which the reference-stream
//!   pin in `stretch-core`'s `backend_diff` test fixes exactly.
//! * **Deterministic optimum (lexicographic tie-break).**  The System-(2)
//!   costs are massively tied — a job's work costs the same in a given
//!   interval on *every* site hosting its databank — so the optimal face
//!   has many vertices and the one a pivot sequence lands on depends on the
//!   start basis.  To make warm-started and cold solves agree **bit for
//!   bit**, every arc carries a secondary integer cost (a pseudo-random
//!   function of its endpoints' stable keys when the instance carries
//!   them, of its index otherwise; exact in `f64`), pricing compares reduced
//!   costs lexicographically (phase 2 of [`NetworkSimplexBackend`]'s pivot
//!   loop), and the solve only stops at the unique lexicographic optimum.
//!   Keying the tie-break by stable identities also makes that optimum
//!   *stable across events*: the basis a warm start resumes from (below)
//!   sits at the previous event's optimum, most of which the next event's
//!   optimum keeps, so the phase-2 face walk stays short.  The emitted
//!   flows are then *canonicalised*: re-derived from the vertex itself,
//!   not from the pivot history, so any two pivot paths reaching the
//!   optimum produce identical bytes.
//! * **Warm starts.**  Two start paths.  After every keyed solve the
//!   backend remembers the basis its pivot loop stopped at — the optimal
//!   vertex's own tree and bound arcs, degenerate real tree arcs included,
//!   artificial root arcs dropped — not the canonical basis the output is
//!   re-derived from, whose completion hangs every free-forest component
//!   off an artificial root arc for the next solve to pivot back out.  So
//!   the memory depends on the pivot path; the output does not, wherever
//!   warm≡cold holds.  When the instance carries stable keys
//!   ([`TransportInstance::set_stable_keys`]) and the backend holds such a
//!   basis, the solve starts from it **remapped** onto the new network
//!   ([`crate::remap::BasisRemap`]; the cross-*event* case of the on-line
//!   schedulers: jobs complete, intervals move, most of the network
//!   persists): surviving arcs keep their basis state, departed arcs are
//!   pruned, new arcs enter nonbasic, and a bounded union–find repair pass
//!   restores a spanning tree.  The remapped basis is then re-primed for
//!   the new data: nonbasic flows snap to their bounds, tree flows are
//!   recomputed by conservation (leaf elimination, with a bounded big-M
//!   repair hanging any misfit on artificial arcs) and potentials are
//!   rebuilt.  Otherwise — no keys, no remembered basis, or a remap the
//!   re-priming rejects — the solve starts **cold** from the crash basis
//!   of artificial root arcs, so correctness never depends on the warm
//!   start.  A repeated solve of one network is just a remap whose keys
//!   all survive.
//! * **Numerical safety net.**  All comparisons use scale-aware epsilons; if
//!   the pivot budget is ever exhausted (pathological numerics), the backend
//!   hands the instance to the primal-dual reference backend, so a
//!   degraded instance costs time, not correctness.

use crate::backend::{MinCostBackend, PrimalDualBackend};
use crate::remap::{repair_spanning_tree, BasisRemap};
use crate::transport::{flow_target, ships_demand, TransportInstance, TransportSolution};
use crate::workspace::FlowWorkspace;
use crate::FLOW_EPS;

/// Stable key of the super-source: it denotes the same node in every
/// instance, whatever its shape.
const KEY_SUPER_SOURCE: u64 = u64::MAX - 1;

/// Stable key of the super-sink; see [`KEY_SUPER_SOURCE`].
const KEY_SUPER_SINK: u64 = u64::MAX - 2;

/// Nonbasic arc at its lower bound (zero flow).
pub const STATE_LOWER: i8 = 1;
/// Basic arc (in the spanning tree).
pub const STATE_TREE: i8 = 0;
/// Nonbasic arc at its upper bound (flow = capacity).
pub const STATE_UPPER: i8 = -1;

/// No node: the parent of the root, the end of a child list.
const NONE: usize = usize::MAX;

/// One splitmix64 finalisation round.
fn mix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Secondary (tie-break) cost of arc `a` when no stable keys are known: a
/// pseudo-random 30-bit integer derived from the arc index.
///
/// Integer-valued and bounded by 2³⁰, so sums of up to ~2²³ of them along
/// tree paths stay exact in `f64` (far beyond any realistic node count);
/// pseudo-random, so alternating sums along cycles are nonzero with
/// overwhelming probability — which is what makes the lexicographic
/// optimum unique and the solve start-basis-independent.  The width
/// matters: the System-(2) tie structure yields on the order of
/// `jobs² · sites² · intervals` primary-tied 4-cycles per instance, so a
/// 20-bit channel would be expected to hit a zero alternating sum at paper
/// scale; at 30 bits the expected count stays far below one.  (A
/// monotone-in-index ramp would shorten the phase-2 face walk a little,
/// but its alternating sums cancel on short cycles, which loses uniqueness
/// — and with it the warm/cold bit-identity.)
fn tie_cost(a: usize) -> f64 {
    (mix64(a as u64) >> 34) as f64
}

/// Secondary cost of an arc identified by its endpoints' **stable keys**,
/// `mix64(mix64(key_from) ^ key_to.rotate_left(32)) >> 34`, from the
/// endpoints' [`KeyHalves`] (each node's key mixed once, not once per arc).
///
/// Same uniqueness properties as [`tie_cost`], with one decisive extra:
/// the value is *stable across events*.  The lexicographically optimal
/// vertex of one event then restricts to almost the optimal vertex of the
/// next, so a warm start remapped from the previous optimum's basis begins
/// phase 2 already at — or a few pivots from — its target, while an
/// index-keyed tie-break would re-randomise the target at every event and
/// send warm starts on a long face walk.
fn keyed_tie_cost(from: KeyHalves, to: KeyHalves) -> f64 {
    (mix64(from.mixed ^ to.rotated) >> 34) as f64
}

/// The two per-node halves of [`keyed_tie_cost`].
#[derive(Clone, Copy)]
struct KeyHalves {
    /// `mix64(key)`, the half of an arc's *tail*.
    mixed: u64,
    /// `key.rotate_left(32)`, the half of an arc's *head*.
    rotated: u64,
}

impl KeyHalves {
    fn of(key: u64) -> Self {
        KeyHalves {
            mixed: mix64(key),
            rotated: key.rotate_left(32),
        }
    }
}

/// Which side of the entering arc's cycle a blocking arc was found on.
#[derive(Clone, Copy, PartialEq)]
enum Side {
    /// The path from the node the augmentation *leaves* the tree towards.
    First,
    /// The path from the node the augmentation *enters* the tree from.
    Second,
}

/// Min-cost max-flow by network simplex; see the module docs.
///
/// Hold one per solver and feed it every instance: scratch memory — and the
/// spanning-tree basis, *remapped* onto the next instance when both carry
/// stable keys — is reused across solves.
pub struct NetworkSimplexBackend {
    // --- arc arrays (real arcs, then the return arc, then root arcs) ---
    from: Vec<usize>,
    to: Vec<usize>,
    cap: Vec<f64>,
    cost: Vec<f64>,
    /// Secondary integer costs of the lexicographic tie-break.
    cost2: Vec<f64>,
    flow: Vec<f64>,
    state: Vec<i8>,
    /// Largest finite capacity of the arcs loaded so far (kept by
    /// [`Self::push_arc`]; `eps_flow` scales with it).
    max_cap: f64,
    /// Largest |cost| of the arcs loaded so far (kept by
    /// [`Self::push_arc`]; `BIG` and `eps_cost` scale with it).
    max_cost: f64,
    // --- spanning tree (see the module docs, *Tree*) ---
    parent: Vec<usize>,
    pred: Vec<usize>,
    depth: Vec<usize>,
    first_child: Vec<usize>,
    next_sibling: Vec<usize>,
    prev_sibling: Vec<usize>,
    pi: Vec<f64>,
    /// Secondary potentials (exact integers, paired with `cost2`).
    pi2: Vec<f64>,
    // --- warm-start bookkeeping ---
    /// Node count (excluding the artificial root) of the loaded instance.
    num_nodes: usize,
    /// Index of the loaded instance's first route arc.
    first_route: usize,
    /// `false` disables the cross-solve basis remap (the "cold" reference
    /// configuration of the warm/cold differential tests).
    warm_start: bool,
    /// Stable node keys of the loaded instance (sources, bins, super-source,
    /// super-sink); empty when the instance is unkeyed.
    keys: Vec<u64>,
    /// Cross-event basis memory (keyed by the node keys of the solve it
    /// recorded).
    remap: BasisRemap,
    // --- scratch ---
    remap_states: Vec<i8>,
    state_backup: Vec<i8>,
    flow_backup: Vec<f64>,
    uf: Vec<usize>,
    key_halves: Vec<KeyHalves>,
    /// Tree adjacency in CSR form: node `u`'s `(neighbour, arc)` entries
    /// are `tree_adj[tree_adj_start[u]..tree_adj_start[u + 1]]`.
    tree_adj_start: Vec<usize>,
    tree_adj: Vec<(usize, usize)>,
    visited: Vec<bool>,
    depth_count: Vec<usize>,
    elim_order: Vec<usize>,
    dfs_stack: Vec<usize>,
    excess: Vec<f64>,
    /// Rolling start position of the pricing block (reset per solve).
    block_pos: usize,
    /// Pivot budget blow-ups so far (each one fell back to the reference
    /// kernel); exposed for tests and diagnostics.
    fallbacks: usize,
    /// Solves that started from the remapped basis; diagnostic.
    remapped_solves: usize,
    /// Solves whose remap the re-priming rejected (each then crashed a
    /// fresh basis); diagnostic.
    rejected_remaps: usize,
    /// `pivot` calls so far, primary phase then lexicographic phase;
    /// diagnostic.
    pivots: [usize; 2],
    /// Arcs priced by `find_entering` so far; diagnostic.
    priced: usize,
}

impl Default for NetworkSimplexBackend {
    fn default() -> Self {
        Self::new()
    }
}

impl NetworkSimplexBackend {
    /// Creates a backend with empty scratch (grows on first use) and the
    /// remapped warm start enabled.
    pub fn new() -> Self {
        Self::with_warm_start(true)
    }

    /// Creates a backend with cross-solve basis reuse switched on or off.
    ///
    /// With `false`, every solve crashes a fresh basis, and an instance's
    /// stable keys only seed its tie-break — the "cold" reference the
    /// warm/cold bit-identity contract is pinned against.
    pub fn with_warm_start(warm_start: bool) -> Self {
        NetworkSimplexBackend {
            from: Vec::new(),
            to: Vec::new(),
            cap: Vec::new(),
            cost: Vec::new(),
            cost2: Vec::new(),
            flow: Vec::new(),
            state: Vec::new(),
            max_cap: 0.0,
            max_cost: 0.0,
            parent: Vec::new(),
            pred: Vec::new(),
            depth: Vec::new(),
            first_child: Vec::new(),
            next_sibling: Vec::new(),
            prev_sibling: Vec::new(),
            pi: Vec::new(),
            pi2: Vec::new(),
            num_nodes: 0,
            first_route: 0,
            warm_start,
            keys: Vec::new(),
            remap: BasisRemap::default(),
            remap_states: Vec::new(),
            state_backup: Vec::new(),
            flow_backup: Vec::new(),
            uf: Vec::new(),
            key_halves: Vec::new(),
            tree_adj_start: Vec::new(),
            tree_adj: Vec::new(),
            visited: Vec::new(),
            depth_count: Vec::new(),
            elim_order: Vec::new(),
            dfs_stack: Vec::new(),
            excess: Vec::new(),
            block_pos: 0,
            fallbacks: 0,
            remapped_solves: 0,
            rejected_remaps: 0,
            pivots: [0; 2],
            priced: 0,
        }
    }

    /// How often the pivot budget blew up and the solve fell back to the
    /// primal-dual reference kernel (diagnostic; should stay at zero).
    pub fn fallback_count(&self) -> usize {
        self.fallbacks
    }

    /// How many solves started from a remapped (cross-event) basis; every
    /// other solve started cold.  Diagnostic for tests and benches.
    pub fn remap_count(&self) -> usize {
        self.remapped_solves
    }

    /// How many solves had a remembered basis to remap but found the remap
    /// rejected by the re-priming, and so crashed a fresh basis.
    /// Diagnostic: `remap_count()` counts only the accepted remaps.
    pub fn rejected_remap_count(&self) -> usize {
        self.rejected_remaps
    }

    /// Cumulative pivots, `(primary, lexicographic)`: one per basis
    /// exchange or bound flip, split by the phase of the pivot loop that
    /// made it (the primary-only phase, then the lexicographic face walk
    /// of the module docs).  Diagnostic for tests and benches.
    pub fn pivot_counts(&self) -> (usize, usize) {
        (self.pivots[0], self.pivots[1])
    }

    /// Cumulative arcs the pricing evaluated: every arc position a block
    /// scan visited, basic arcs included, over all solves.  A pure count,
    /// fixed by the block sequence, so a rewrite of the pricing loop that
    /// prices a different set of arcs shows here.  Diagnostic for tests
    /// and benches.
    pub fn priced_arcs(&self) -> usize {
        self.priced
    }

    /// Loads `instance` into the arc arrays (see the module docs for the
    /// layout) and its stable keys, if any, into the node keys.  Returns
    /// whether the instance is keyed, and the scale-aware comparison
    /// tolerances `(eps_flow, eps_cost)` of the loaded arcs:
    /// `1e-9 · (1 + max finite capacity)` and `1e-11 · (1 + max |cost|)`,
    /// both maxima over every arc, artificial ones included, taken as the
    /// arcs are pushed.
    fn load(&mut self, instance: &TransportInstance) -> (bool, f64, f64) {
        let ns = instance.num_sources();
        let nb = instance.num_bins();
        let n = ns + nb + 2;
        let (source, sink) = (ns + nb, ns + nb + 1);

        self.from.clear();
        self.to.clear();
        self.cap.clear();
        self.cost.clear();
        self.max_cap = 0.0;
        self.max_cost = 0.0;
        let mut source_out = 0.0f64;
        for j in 0..ns {
            let d = instance.demand(j);
            if d > 0.0 {
                self.push_arc(source, j, d, 0.0);
                source_out += d;
            }
        }
        for b in 0..nb {
            let c = instance.capacity(b);
            if c > 0.0 {
                self.push_arc(ns + b, sink, c, 0.0);
            }
        }
        self.first_route = self.from.len();
        for &(j, b, cost) in instance.routes() {
            // A route never carries more than its source's demand.
            self.push_arc(j, ns + b, instance.demand(j), cost);
        }
        let num_arcs = self.from.len() + 1 + 2 * n;

        // `BIG` must dominate the cost of any simple path so that the return
        // arc (a) makes every augmenting s→t path a negative cycle and
        // (b) is never worth reducing once the flow is maximum.  Only real
        // arcs are loaded so far, so `max_cost` is their largest |cost|.
        let big = (self.max_cost + 1.0) * (n as f64 + 2.0);

        // Return arc sink → source.
        self.push_arc(sink, source, source_out, -big);

        // Artificial root arcs, one pair per node: `v → root` (the crash
        // basis star) and `root → v`.  Both cost `+BIG`, so no optimal
        // solution ever uses them (any root cycle pays ≥ +BIG even against
        // the return arc); mid-solve they serve two purposes — the up arcs
        // are the crash basis, and the warm-start repair pass hangs the
        // *misfit* of a remapped basis on whichever orientation the local
        // imbalance needs, for the pivots to drain.
        let root = n;
        for v in 0..n {
            self.push_arc(v, root, f64::INFINITY, big);
        }
        for v in 0..n {
            self.push_arc(root, v, f64::INFINITY, big);
        }
        // Secondary costs: keyed by stable identities when the instance
        // carries them (event-stable canonical vertex — see
        // [`keyed_tie_cost`]), by arc index otherwise.  Note the keys are
        // used here even by a `warm_start = false` backend: they describe
        // *this* instance, not cross-solve state, and warm and cold solves
        // of one instance must price the same tie-break to land on the same
        // optimum.
        self.keys.clear();
        if let Some((source_keys, bin_keys)) = instance.stable_keys() {
            self.keys.extend_from_slice(source_keys);
            self.keys.extend_from_slice(bin_keys);
            self.keys.extend([KEY_SUPER_SOURCE, KEY_SUPER_SINK]);
        }
        let keyed = !self.keys.is_empty();
        self.cost2.clear();
        if keyed {
            // The artificial root (node `n`) is keyed `u64::MAX`.
            self.key_halves.clear();
            self.key_halves.extend(
                self.keys
                    .iter()
                    .chain([&u64::MAX])
                    .map(|&k| KeyHalves::of(k)),
            );
            let halves = &self.key_halves;
            self.cost2.extend(
                self.from
                    .iter()
                    .zip(&self.to)
                    .map(|(&u, &v)| keyed_tie_cost(halves[u], halves[v])),
            );
        } else {
            self.cost2.extend((0..num_arcs).map(tie_cost));
        }

        debug_assert_eq!(self.from.len(), num_arcs);
        self.flow.resize(num_arcs, 0.0);
        self.num_nodes = n;
        let eps_flow = 1e-9 * (1.0 + self.max_cap);
        let eps_cost = 1e-11 * (1.0 + self.max_cost);
        (keyed, eps_flow, eps_cost)
    }

    /// Appends the arc `from → to` to the arc arrays and folds its
    /// capacity (if finite) and |cost| into the running maxima.
    fn push_arc(&mut self, from: usize, to: usize, cap: f64, cost: f64) {
        self.from.push(from);
        self.to.push(to);
        self.cap.push(cap);
        self.cost.push(cost);
        if cap.is_finite() {
            self.max_cap = self.max_cap.max(cap);
        }
        self.max_cost = self.max_cost.max(cost.abs());
    }

    /// Installs the crash basis: every real arc nonbasic at its lower bound,
    /// the artificial star as the tree.
    fn crash_basis(&mut self) {
        let n = self.num_nodes;
        let root = n;
        let num_arcs = self.from.len();
        let m_real = num_arcs - 1 - 2 * n;
        self.state.clear();
        self.state.resize(num_arcs, STATE_LOWER);
        self.flow.iter_mut().for_each(|f| *f = 0.0);
        self.parent.clear();
        self.parent.resize(n + 1, usize::MAX);
        self.pred.clear();
        self.pred.resize(n + 1, usize::MAX);
        self.depth.clear();
        self.depth.resize(n + 1, 0);
        self.pi.clear();
        self.pi.resize(n + 1, 0.0);
        self.pi2.clear();
        self.pi2.resize(n + 1, 0.0);
        // The star: the root's child list is 0, 1, …, n − 1 (n ≥ 2: the
        // super-source and super-sink are always there).
        self.first_child.clear();
        self.first_child.resize(n + 1, NONE);
        self.first_child[root] = 0;
        self.next_sibling.clear();
        self.next_sibling.extend((1..n).chain([NONE, NONE]));
        self.prev_sibling.clear();
        self.prev_sibling
            .extend([NONE].into_iter().chain(0..n - 1).chain([NONE]));
        for v in 0..n {
            let arc = m_real + 1 + v;
            self.state[arc] = STATE_TREE;
            self.parent[v] = root;
            self.pred[v] = arc;
            self.depth[v] = 1;
            // rc(v→root) = cost + pi[v] - pi[root] = 0 (both channels).
            self.pi[v] = -self.cost[arc];
            self.pi2[v] = -self.cost2[arc];
        }
    }

    /// Rebuilds the tree arrays (`parent`/`pred`/`depth` and the child
    /// lists) from the arcs currently marked [`STATE_TREE`], by a
    /// deterministic depth-first walk from the artificial root over a CSR
    /// adjacency of the marked arcs (each node's arcs in index order).
    /// Returns `false` when the marked arcs do not span all nodes.
    fn rebuild_tree_from_states(&mut self) -> bool {
        let n = self.num_nodes;
        let root = n;
        // Degrees land at `start[u + 2]`; the prefix sum turns
        // `start[u + 1]` into the start of `u`'s range, and the fill then
        // advances it to the end of `u`'s range, which is `u + 1`'s start.
        let start = &mut self.tree_adj_start;
        start.clear();
        start.resize(n + 3, 0);
        for (a, &s) in self.state.iter().enumerate() {
            if s == STATE_TREE {
                start[self.from[a] + 2] += 1;
                start[self.to[a] + 2] += 1;
            }
        }
        for u in 2..n + 3 {
            start[u] += start[u - 1];
        }
        self.tree_adj.clear();
        self.tree_adj.resize(start[n + 2], (NONE, NONE));
        for (a, &s) in self.state.iter().enumerate() {
            if s == STATE_TREE {
                let (u, v) = (self.from[a], self.to[a]);
                self.tree_adj[start[u + 1]] = (v, a);
                start[u + 1] += 1;
                self.tree_adj[start[v + 1]] = (u, a);
                start[v + 1] += 1;
            }
        }
        self.parent.clear();
        self.parent.resize(n + 1, NONE);
        self.pred.clear();
        self.pred.resize(n + 1, NONE);
        self.depth.clear();
        self.depth.resize(n + 1, 0);
        for links in [
            &mut self.first_child,
            &mut self.next_sibling,
            &mut self.prev_sibling,
        ] {
            links.clear();
            links.resize(n + 1, NONE);
        }
        self.visited.clear();
        self.visited.resize(n + 1, false);
        self.visited[root] = true;
        self.dfs_stack.clear();
        self.dfs_stack.push(root);
        let mut reached = 1usize;
        while let Some(u) = self.dfs_stack.pop() {
            for i in self.tree_adj_start[u]..self.tree_adj_start[u + 1] {
                let (v, arc) = self.tree_adj[i];
                if self.visited[v] {
                    continue;
                }
                self.visited[v] = true;
                self.link(u, v);
                self.pred[v] = arc;
                self.depth[v] = self.depth[u] + 1;
                self.dfs_stack.push(v);
                reached += 1;
            }
        }
        reached == n + 1
    }

    /// Hangs `v` under `p`: sets its parent and makes it the head of `p`'s
    /// child list.  `v` must not be in any child list.
    fn link(&mut self, p: usize, v: usize) {
        let head = self.first_child[p];
        self.prev_sibling[v] = NONE;
        self.next_sibling[v] = head;
        if head != NONE {
            self.prev_sibling[head] = v;
        }
        self.first_child[p] = v;
        self.parent[v] = p;
    }

    /// Takes `v` out of its parent's child list, in O(1); its parent
    /// pointer is left for the caller to overwrite.
    fn unlink(&mut self, v: usize) {
        let (prev, next) = (self.prev_sibling[v], self.next_sibling[v]);
        if prev == NONE {
            self.first_child[self.parent[v]] = next;
        } else {
            self.next_sibling[prev] = next;
        }
        if next != NONE {
            self.prev_sibling[next] = prev;
        }
    }

    /// The node after `u` in a preorder walk of the subtree rooted at
    /// `top`, or [`NONE`] once the walk is done: `u`'s first child, else
    /// the next sibling of the nearest of `u` and its ancestors below `top`
    /// that has one.  Walks the links alone, without a stack.
    fn preorder_next(&self, mut u: usize, top: usize) -> usize {
        let child = self.first_child[u];
        if child != NONE {
            return child;
        }
        while u != top {
            let next = self.next_sibling[u];
            if next != NONE {
                return next;
            }
            u = self.parent[u];
        }
        NONE
    }

    /// Recomputes `u`'s depth and potentials (both channels) from its
    /// parent's, through its tree arc (reduced cost zero).
    fn hang(&mut self, u: usize) {
        let p = self.parent[u];
        let arc = self.pred[u];
        self.depth[u] = self.depth[p] + 1;
        if self.from[arc] == u {
            // rc = cost + pi[u] - pi[p] = 0
            self.pi[u] = self.pi[p] - self.cost[arc];
            self.pi2[u] = self.pi2[p] - self.cost2[arc];
        } else {
            self.pi[u] = self.pi[p] + self.cost[arc];
            self.pi2[u] = self.pi2[p] + self.cost2[arc];
        }
    }

    /// Recomputes the depths and potentials of the subtree rooted at
    /// `top` (not `top` itself), parents before children.
    fn hang_below(&mut self, top: usize) {
        let mut u = self.preorder_next(top, top);
        while u != NONE {
            self.hang(u);
            u = self.preorder_next(u, top);
        }
    }

    /// Maps the remembered cross-event basis onto the freshly loaded arc
    /// arrays (see [`BasisRemap`]) and rebuilds the tree.  Returns `false`
    /// when the repaired arc set fails to span (caller crashes fresh).
    fn apply_remap(&mut self) -> bool {
        let mut states = std::mem::take(&mut self.remap_states);
        let up_base = self.from.len() - 2 * self.num_nodes;
        self.remap.plan(
            &self.keys,
            &self.from,
            &self.to,
            self.num_nodes,
            up_base,
            &mut states,
        );
        self.state.clear();
        self.state.extend_from_slice(&states);
        self.remap_states = states;
        self.rebuild_tree_from_states()
    }

    /// Re-primes the current basis (tree arrays + states) for the loaded
    /// capacities/costs: nonbasic flows snap to their bounds, tree flows are
    /// recomputed by conservation, and potentials are rebuilt from the tree.
    /// Returns `false` when the basis is infeasible under the new data
    /// (caller then crashes fresh).
    ///
    /// With `repair` on — the remapped warm start — an out-of-bounds tree flow
    /// does **not** reject the basis: the violating arc is clamped to the
    /// bound it broke (and demoted there), the node is re-hung on the
    /// artificial root arc of the orientation its leftover imbalance needs,
    /// and that artificial carries the misfit at `+BIG` cost for the pivot
    /// loop to drain.  This is the bounded Phase-1 replacement: across
    /// events most of the old flow pattern still fits, so only the misfit —
    /// not the whole flow — costs pivots.  With `repair` off (the canonical
    /// extraction of an optimal vertex, where violations would mean broken
    /// numerics) the strict reject is kept.
    ///
    /// The leaf-elimination order is canonical — decreasing depth, ties by
    /// node index — so the flows this pass derives are a pure function of
    /// (basis, capacities): this is what makes the canonicalised output of
    /// [`Self::canonicalize`] byte-reproducible across pivot histories.
    fn warm_basis(&mut self, eps_flow: f64, repair: bool) -> bool {
        let n = self.num_nodes;
        let root = n;
        let num_arcs = self.from.len();
        let m_real = num_arcs - 1 - 2 * n;
        let up_base = m_real + 1;
        let down_base = up_base + n;
        // Bound-snapping pass; tree arcs are handled below.
        self.excess.clear();
        self.excess.resize(n + 1, 0.0);
        for a in 0..num_arcs {
            match self.state[a] {
                STATE_LOWER => self.flow[a] = 0.0,
                STATE_UPPER => {
                    if !self.cap[a].is_finite() {
                        return false;
                    }
                    self.flow[a] = self.cap[a];
                }
                _ => continue,
            }
            if self.flow[a] != 0.0 {
                self.excess[self.to[a]] += self.flow[a];
                self.excess[self.from[a]] -= self.flow[a];
            }
        }
        // Leaf elimination in canonical order: the tree arc of each node
        // absorbs the node's residual imbalance.
        self.sort_by_decreasing_depth();
        for i in 0..self.elim_order.len() {
            let v = self.elim_order[i];
            let arc = self.pred[v];
            if arc == usize::MAX {
                return false;
            }
            let up = self.parent[v];
            // `excess[v]` must be cancelled by the tree arc's flow.
            let f_req = if self.from[arc] == v {
                // v → parent: flow f contributes -f at v.
                self.excess[v]
            } else {
                // parent → v: flow f contributes +f at v.
                -self.excess[v]
            };
            if f_req < -eps_flow || f_req > self.cap[arc] + eps_flow {
                if !repair {
                    return false;
                }
                // The old tree arc can't carry what conservation demands:
                // pin it at the bound it broke, hand the leftover to an
                // artificial, and re-hang `v` directly under the root.
                let f_clamp = f_req.clamp(0.0, self.cap[arc]);
                self.state[arc] = if f_clamp == 0.0 {
                    STATE_LOWER
                } else {
                    STATE_UPPER
                };
                self.flow[arc] = f_clamp;
                // Leftover at `v` (after the clamped arc's contribution):
                // positive must flow v → root, negative root → v.
                let leftover = if self.from[arc] == v {
                    self.excess[v] - f_clamp
                } else {
                    self.excess[v] + f_clamp
                };
                let art = if leftover >= 0.0 {
                    up_base + v
                } else {
                    down_base + v
                };
                self.state[art] = STATE_TREE;
                self.flow[art] = leftover.abs();
                self.unlink(v);
                self.link(root, v);
                self.pred[v] = art;
                // The clamped flow still reaches the old parent; the
                // artificial's flow cancels at the root by construction.
                if self.from[arc] == v {
                    self.excess[up] += f_clamp;
                } else {
                    self.excess[up] -= f_clamp;
                }
                // Either orientation delivers `leftover` to the root's
                // balance: `v → root` receives it, `root → v` sends its
                // negation.
                self.excess[root] += leftover;
                continue;
            }
            let f = f_req.clamp(0.0, self.cap[arc]);
            self.flow[arc] = f;
            if self.from[arc] == v {
                self.excess[up] += f;
            } else {
                self.excess[up] -= f;
            }
        }
        if self.excess[root].abs() > eps_flow.max(1e-6) {
            return false;
        }
        // Depths (stale below any re-hung node) and potentials (costs may
        // have changed) from the tree, in one preorder walk.
        self.pi.resize(n + 1, 0.0);
        self.pi2.resize(n + 1, 0.0);
        self.depth[root] = 0;
        self.pi[root] = 0.0;
        self.pi2[root] = 0.0;
        self.hang_below(root);
        true
    }

    /// Fills `elim_order` with the real nodes by decreasing depth, ties by
    /// increasing index: the order a sort on `(Reverse(depth), node)`
    /// gives, by one counting pass over the depths.
    fn sort_by_decreasing_depth(&mut self) {
        let n = self.num_nodes;
        let depth = &self.depth[..n];
        let max_depth = depth.iter().copied().max().unwrap_or(0);
        let slot = &mut self.depth_count;
        slot.clear();
        slot.resize(max_depth + 1, 0);
        for &d in depth {
            slot[d] += 1;
        }
        // Each depth's first slot, the deepest nodes first.
        let mut next = 0;
        for count in slot.iter_mut().rev() {
            (*count, next) = (next, next + *count);
        }
        self.elim_order.clear();
        self.elim_order.resize(n, 0);
        for (v, &d) in depth.iter().enumerate() {
            self.elim_order[slot[d]] = v;
            slot[d] += 1;
        }
    }

    /// Block pricing: the most violating reduced cost in the first block
    /// containing any eligible arc.  With `lex` off (phase 1, the bulk of
    /// the solve) only the primary channel is priced, exactly as a plain
    /// network simplex would.  With `lex` on (phase 2) an arc is also
    /// eligible when its primary reduced cost is a tie (within `eps_cost`)
    /// and the secondary integer channel strictly improves, and candidates
    /// compare lexicographically — this is what walks the tied optimal face
    /// to its unique vertex.  The secondary channel is only computed for
    /// arcs that survive the primary filter, so phase 2's extra cost is
    /// proportional to the tie structure, not to the arc count.  Returns the
    /// entering arc and the push direction (+1: along the arc, -1: against
    /// it).
    ///
    /// The block starting at `pos` is `[pos, pos + block)` modulo the arc
    /// count: one contiguous range, or two when it wraps past the last
    /// arc, priced in that order — the arc order of a per-arc
    /// `pos = (pos + 1) % m` walk, without its division.
    fn find_entering(&mut self, eps_cost: f64, lex: bool) -> Option<(usize, i8)> {
        let m = self.from.len();
        if m == 0 {
            return None;
        }
        let block = ((m as f64).sqrt() as usize).max(16);
        let mut best: Option<(usize, f64, f64)> = None;
        let mut pos = self.block_pos % m;
        let mut scanned = 0;
        while scanned < m {
            let chunk = block.min(m - scanned);
            let end = pos + chunk;
            if end <= m {
                self.price_range(pos..end, eps_cost, lex, &mut best);
                pos = if end == m { 0 } else { end };
            } else {
                self.price_range(pos..m, eps_cost, lex, &mut best);
                self.price_range(0..end - m, eps_cost, lex, &mut best);
                pos = end - m;
            }
            scanned += chunk;
            if best.is_some() {
                break;
            }
        }
        self.priced += scanned;
        self.block_pos = pos;
        // The push direction equals the state sign: from the lower bound the
        // flow increases along the arc, from the upper bound it decreases.
        best.map(|(a, _, _)| (a, self.state[a]))
    }

    /// Prices the arcs of `range` in index order into `best`, the
    /// candidate of [`Self::find_entering`] as `(arc, v1, v2)`.
    #[inline(always)]
    fn price_range(
        &self,
        range: std::ops::Range<usize>,
        eps_cost: f64,
        lex: bool,
        best: &mut Option<(usize, f64, f64)>,
    ) {
        let lo = range.start;
        let arcs = self.state[range.clone()]
            .iter()
            .zip(&self.cost[range.clone()])
            .zip(self.from[range.clone()].iter().zip(&self.to[range]));
        for (i, ((&s, &cost), (&u, &v))) in arcs.enumerate() {
            let rc = cost + self.pi[u] - self.pi[v];
            // An arc at lower bound is eligible when rc < -eps, one at
            // upper bound when rc > eps: uniformly, -state·rc > eps.  A
            // tree arc's state is zero, so its v1 is zero: phase 1 drops it
            // here without a branch of its own, and phase 2, where it
            // passes as a primary tie, drops it at the basic check below,
            // which only the few arcs passing this filter reach.
            let v1 = -(s as f64) * rc;
            let eligible_primary = v1 > eps_cost;
            if !eligible_primary && (!lex || v1 <= -eps_cost) {
                continue;
            }
            let a = lo + i;
            if s == STATE_TREE || self.cap[a] <= 0.0 {
                continue;
            }
            // The secondary channel is only computed for arcs that
            // survived the primary filter — in phase 1 that is a handful
            // per block, so steering *candidate selection* by it (which
            // nudges phase 1 towards the canonical vertex and keeps the
            // phase-2 walk short) costs almost nothing.  On a primary tie
            // (|v1| ≤ eps, phase 2 only) it also decides eligibility:
            // integer arithmetic, a true violation is ≥ 1.
            let v2 = -(s as f64) * (self.cost2[a] + self.pi2[u] - self.pi2[v]);
            if !eligible_primary && v2 <= 0.5 {
                continue;
            }
            let better = match *best {
                None => true,
                Some((_, b1, b2)) => v1 > b1 + eps_cost || (v1 > b1 - eps_cost && v2 > b2),
            };
            if better {
                *best = Some((a, v1, v2));
            }
        }
    }

    /// Lowest common ancestor of `a` and `b` under the current tree.
    fn join(&self, mut a: usize, mut b: usize) -> usize {
        while self.depth[a] > self.depth[b] {
            a = self.parent[a];
        }
        while self.depth[b] > self.depth[a] {
            b = self.parent[b];
        }
        while a != b {
            a = self.parent[a];
            b = self.parent[b];
        }
        a
    }

    /// Residual capacity of the tree arc above `x` when pushing *towards*
    /// the root (`up == true`) or away from it.
    fn tree_residual(&self, x: usize, up: bool) -> f64 {
        let arc = self.pred[x];
        let along = (self.from[arc] == x) == up;
        if along {
            self.cap[arc] - self.flow[arc]
        } else {
            self.flow[arc]
        }
    }

    /// One pivot on entering arc `e` pushed in direction `dir`.
    fn pivot(&mut self, e: usize, dir: i8) {
        // Push direction along the cycle: first --e--> second, then back
        // through the tree second → join → first.
        let (first, second) = if dir > 0 {
            (self.from[e], self.to[e])
        } else {
            (self.to[e], self.from[e])
        };
        let join = self.join(first, second);

        // Ratio test.  The entering arc's own residual:
        let mut delta = if dir > 0 {
            self.cap[e] - self.flow[e]
        } else {
            self.flow[e]
        };
        let mut leaving: Option<(usize, Side)> = None;
        // First-side path (join → … → first): augmentation runs *down*
        // (away from the root), i.e. against the upward walk.
        let mut x = first;
        while x != join {
            let r = self.tree_residual(x, false);
            if r < delta {
                delta = r;
                leaving = Some((x, Side::First));
            }
            x = self.parent[x];
        }
        // Second-side path (second → … → join): augmentation runs *up*.
        // `<=` (not `<`) implements the strongly-feasible tie-break.
        let mut x = second;
        while x != join {
            let r = self.tree_residual(x, true);
            if r <= delta {
                delta = r;
                leaving = Some((x, Side::Second));
            }
            x = self.parent[x];
        }

        // Augment.
        if delta > 0.0 {
            self.flow[e] += (dir as f64) * delta;
            let mut x = first;
            while x != join {
                let arc = self.pred[x];
                if self.from[arc] == x {
                    self.flow[arc] -= delta; // down-push against v→parent
                } else {
                    self.flow[arc] += delta;
                }
                x = self.parent[x];
            }
            let mut x = second;
            while x != join {
                let arc = self.pred[x];
                if self.from[arc] == x {
                    self.flow[arc] += delta; // up-push along v→parent
                } else {
                    self.flow[arc] -= delta;
                }
                x = self.parent[x];
            }
        }

        let Some((x_out, side)) = leaving else {
            // The entering arc itself hit its opposite bound: bound flip.
            self.state[e] = -dir;
            self.flow[e] = self.flow[e].clamp(0.0, self.cap[e]);
            return;
        };

        // Basis exchange: `pred[x_out]` leaves (at whichever bound it hit),
        // `e` enters.  The subtree detached at `x_out` contains `first` when
        // the blocking arc was on the first side, `second` otherwise; it is
        // re-hung from the entering arc.
        let out_arc = self.pred[x_out];
        let at_upper = (self.cap[out_arc] - self.flow[out_arc]).abs() <= self.flow[out_arc].abs();
        self.state[out_arc] = if at_upper { STATE_UPPER } else { STATE_LOWER };
        self.flow[out_arc] = if at_upper { self.cap[out_arc] } else { 0.0 };
        self.state[e] = STATE_TREE;

        let (z, w) = match side {
            Side::First => (first, second),
            Side::Second => (second, first),
        };

        // Reverse the parent pointers on the path z → x_out, attaching z
        // under w via the entering arc: each path node in turn leaves its
        // old parent's child list (the next path node's, but for x_out's)
        // and hangs under the node before it, through that node's old arc.
        let mut x = z;
        let mut new_parent = w;
        let mut new_pred = e;
        loop {
            let (old_parent, old_pred) = (self.parent[x], self.pred[x]);
            self.unlink(x);
            self.link(new_parent, x);
            self.pred[x] = new_pred;
            if x == x_out {
                break;
            }
            (x, new_parent, new_pred) = (old_parent, x, old_pred);
        }

        // Depths and potentials of the re-hung subtree (and only it).
        self.hang(z);
        self.hang_below(z);
    }

    /// Runs the pivot loop to lexicographic optimality: phase 1 prices the
    /// primary channel only until no primary violation remains, then phase 2
    /// (primary *and* secondary) walks the tied optimal face to its unique
    /// vertex.  Phase 2's entering rule subsumes phase 1's, so any primary
    /// violation resurfacing within phase 2 (they stay within `eps` of
    /// optimal — face pivots move potentials by at most the tie tolerance)
    /// is still picked up; splitting merely keeps the secondary pricing off
    /// the hot part of the solve.  Returns `false` when the pivot budget
    /// blows up (caller falls back to the reference kernel).
    ///
    /// `price` picks the entering arc: [`Self::find_entering`], which the
    /// unit tests wrap to check it against the per-arc oracle at every call.
    fn optimize<P>(&mut self, eps_cost: f64, price: &mut P) -> bool
    where
        P: FnMut(&mut Self, f64, bool) -> Option<(usize, i8)>,
    {
        let m = self.from.len();
        let budget = 200 * m + 2_000;
        let mut spent = 0usize;
        for lex in [false, true] {
            loop {
                if spent >= budget {
                    return false;
                }
                spent += 1;
                match price(self, eps_cost, lex) {
                    Some((e, dir)) => {
                        self.pivot(e, dir);
                        self.pivots[usize::from(lex)] += 1;
                        #[cfg(feature = "invariant-audit")]
                        self.audit_basis("pivot");
                    }
                    None => break,
                }
            }
        }
        true
    }

    /// Canonicalises the optimal solution so the emitted bytes depend only
    /// on the *vertex* the pivot loop reached, not on the pivot history:
    ///
    /// 1. every arc is re-classified from its flow (at lower bound / at
    ///    upper bound / strictly between — the *free* arcs, which form a
    ///    forest at any vertex);
    /// 2. the free forest is completed into a canonical spanning tree (arc
    ///    index order, artificial arcs last) by the same union–find repair
    ///    as the cross-event remap;
    /// 3. flows and potentials are re-derived from that canonical basis by
    ///    [`Self::warm_basis`]'s deterministic conservation pass.
    ///
    /// Two pivot paths reaching the same optimum — a warm-started and a cold
    /// solve, say — thereby produce bit-identical flows.  If re-derivation
    /// fails (pathological numerics), the incremental result is restored:
    /// canonicalisation is a determinism device, never a correctness risk.
    fn canonicalize(&mut self, eps_flow: f64) {
        self.state_backup.clone_from(&self.state);
        self.flow_backup.clone_from(&self.flow);
        for a in 0..self.from.len() {
            let f = self.flow[a];
            let c = self.cap[a];
            self.state[a] = if f <= eps_flow {
                STATE_LOWER
            } else if c.is_finite() && f >= c - eps_flow {
                STATE_UPPER
            } else {
                STATE_TREE
            };
        }
        // Fast path: when the classification reproduces the final basis
        // exactly, the vertex is nondegenerate there — its basis is unique,
        // hence already start-independent — and only the flows need the
        // canonical re-derivation (on the tree arrays optimize() left
        // behind, which are still valid).
        let rebuilt = if self.state == self.state_backup {
            true
        } else {
            let up_base = self.from.len() - 2 * self.num_nodes;
            repair_spanning_tree(
                &mut self.uf,
                &self.from,
                &self.to,
                self.num_nodes,
                up_base,
                &mut self.state,
            );
            self.rebuild_tree_from_states()
        };
        if !rebuilt || !self.warm_basis(eps_flow, false) {
            // Restore the incremental (correct, merely path-dependent)
            // solution and its actual basis.
            self.state.clone_from(&self.state_backup);
            self.flow.clone_from(&self.flow_backup);
            let _ = self.rebuild_tree_from_states();
        }
    }

    /// Full well-formedness audit of the current spanning-tree basis
    /// (feature `invariant-audit`): exactly `n` tree arcs spanning the
    /// `n + 1` nodes, consistent `parent`/`pred`/`depth` arrays, child
    /// lists holding every node but the root exactly once, in its parent's
    /// list, with back links that match, a preorder walk over the links
    /// from the root reaching all `n + 1` nodes once each, every nonbasic
    /// arc at the bound its state claims, tree flows within bounds, and
    /// zero reduced cost on tree arcs in both lexicographic channels.
    /// Tolerances are looser than the pivot tolerances so the audit can
    /// never fire on benign rounding — only on a structurally broken
    /// basis, which would silently break the bit-identity contract.
    #[cfg(feature = "invariant-audit")]
    fn audit_basis(&self, context: &str) {
        use crate::audit::fail;
        let n = self.num_nodes;
        let root = n;
        let m = self.from.len();
        let max_cap = self
            .cap
            .iter()
            .filter(|c| c.is_finite())
            .fold(0.0f64, |a, &c| a.max(c));
        let eps_flow = 1e-6 * (1.0 + max_cap);
        let max_cost = self.cost.iter().fold(0.0f64, |a, &c| a.max(c.abs()));
        let max_pi = self.pi.iter().fold(0.0f64, |a, &p| a.max(p.abs()));
        let eps_rc = 1e-7 * (1.0 + max_cost + max_pi);

        let tree_arcs = self.state.iter().filter(|&&s| s == STATE_TREE).count();
        if tree_arcs != n {
            fail(
                "simplex-basis",
                &format!("{context}: {tree_arcs} tree arcs for {n} real nodes (want {n})"),
            );
        }
        for v in 0..n {
            let p = self.parent[v];
            let a = self.pred[v];
            if p == usize::MAX || a == usize::MAX || a >= m {
                fail(
                    "simplex-basis",
                    &format!("{context}: node {v} has no tree attachment"),
                );
            }
            if self.state[a] != STATE_TREE {
                fail(
                    "simplex-basis",
                    &format!("{context}: pred arc {a} of node {v} is not in the tree"),
                );
            }
            let (af, at) = (self.from[a], self.to[a]);
            if !((af == v && at == p) || (af == p && at == v)) {
                fail(
                    "simplex-basis",
                    &format!("{context}: pred arc {a} ({af}->{at}) does not join {v} to {p}"),
                );
            }
            if self.depth[v] != self.depth[p] + 1 {
                fail(
                    "simplex-basis",
                    &format!(
                        "{context}: depth[{v}] = {} but depth[parent {p}] = {}",
                        self.depth[v], self.depth[p]
                    ),
                );
            }
            let rc = self.cost[a] + self.pi[af] - self.pi[at];
            if rc.abs() > eps_rc {
                fail(
                    "simplex-basis",
                    &format!("{context}: tree arc {a} has reduced cost {rc:+.3e}"),
                );
            }
            // The secondary channel is exact integer arithmetic in f64, so
            // a fixed absolute tolerance suffices.
            let rc2 = self.cost2[a] + self.pi2[af] - self.pi2[at];
            if rc2.abs() > 1e-6 {
                fail(
                    "simplex-basis",
                    &format!("{context}: tree arc {a} has secondary reduced cost {rc2:+.3e}"),
                );
            }
        }
        if self.depth[root] != 0 {
            fail(
                "simplex-basis",
                &format!("{context}: root depth is {}", self.depth[root]),
            );
        }
        // Child lists.  The parent/depth checks above rule out parent
        // cycles, so the preorder walk below terminates.
        let mut listed = vec![0usize; n + 1];
        for u in 0..=n {
            let (mut prev, mut c) = (NONE, self.first_child[u]);
            while c != NONE {
                if c > n || listed[c] > n {
                    fail(
                        "simplex-basis",
                        &format!("{context}: child list of {u} is malformed at {c}"),
                    );
                }
                if self.parent[c] != u || self.prev_sibling[c] != prev {
                    fail(
                        "simplex-basis",
                        &format!(
                            "{context}: node {c} in the child list of {u} has parent {} and back link {}",
                            self.parent[c], self.prev_sibling[c]
                        ),
                    );
                }
                listed[c] += 1;
                (prev, c) = (c, self.next_sibling[c]);
            }
        }
        for (v, &times) in listed.iter().enumerate() {
            if times != usize::from(v != root) {
                fail(
                    "simplex-basis",
                    &format!("{context}: node {v} sits in {times} child lists"),
                );
            }
        }
        let mut reached = vec![false; n + 1];
        let mut u = root;
        while u != NONE {
            if reached[u] {
                fail(
                    "simplex-basis",
                    &format!("{context}: the preorder walk reaches node {u} twice"),
                );
            }
            reached[u] = true;
            u = self.preorder_next(u, root);
        }
        if let Some(v) = reached.iter().position(|&r| !r) {
            fail(
                "simplex-basis",
                &format!("{context}: the preorder walk from the root misses node {v}"),
            );
        }
        for a in 0..m {
            let f = self.flow[a];
            let c = self.cap[a];
            let bad = match self.state[a] {
                STATE_LOWER => f.abs() > eps_flow,
                STATE_UPPER => !c.is_finite() || (f - c).abs() > eps_flow,
                _ => f < -eps_flow || (c.is_finite() && f > c + eps_flow),
            };
            if bad {
                fail(
                    "simplex-basis",
                    &format!(
                        "{context}: arc {a} (state {}) carries {f:.6e} of capacity {c:.6e}",
                        self.state[a]
                    ),
                );
            }
        }
    }

    /// The shipment of the optimal flow: one allocation per route, and the
    /// objective summed in route order (bit-reproducible).  `None` when the
    /// flow falls short of `demand` (see [`crate::acceptance_tolerance`]).
    fn shipment(&self, instance: &TransportInstance, demand: f64) -> Option<TransportSolution> {
        let routes = instance.routes();
        // The return arc carries the value shipped.
        let shipped = self.flow[self.first_route + routes.len()];
        if !ships_demand(shipped, demand) {
            return None;
        }
        let mut allocations = Vec::new();
        let mut cost = 0.0;
        for (a, &(j, b, _)) in (self.first_route..).zip(routes) {
            let f = self.flow[a].clamp(0.0, self.cap[a]);
            if f <= FLOW_EPS {
                continue;
            }
            cost += f * self.cost[a];
            // `cap − (cap − f)`, not `f`: the amount a residual network
            // holding `f` on the arc reports, which is what this backend
            // returned while it solved on one.  The two differ in the last
            // bits, and those bits decide completion times downstream, so
            // reading `f` itself would move the default path's schedules.
            let amount = self.cap[a] - (self.cap[a] - f);
            if amount > FLOW_EPS {
                allocations.push((j, b, amount));
            }
        }
        Some(TransportSolution {
            allocations,
            cost,
            shipped,
        })
    }
}

impl MinCostBackend for NetworkSimplexBackend {
    fn name(&self) -> &'static str {
        "simplex"
    }

    fn solve(
        &mut self,
        instance: &TransportInstance,
        workspace: &mut FlowWorkspace,
    ) -> Option<TransportSolution> {
        self.solve_priced(instance, workspace, &mut Self::find_entering)
    }
}

impl NetworkSimplexBackend {
    /// [`MinCostBackend::solve`], with `price` picking the entering arcs
    /// (see [`Self::optimize`]).
    fn solve_priced<P>(
        &mut self,
        instance: &TransportInstance,
        workspace: &mut FlowWorkspace,
        price: &mut P,
    ) -> Option<TransportSolution>
    where
        P: FnMut(&mut Self, f64, bool) -> Option<(usize, i8)>,
    {
        let demand = instance.total_demand();
        if flow_target(demand) <= 0.0 {
            // Nothing to ship: the remembered basis stays for the next
            // instance.
            return Some(TransportSolution {
                allocations: Vec::new(),
                cost: 0.0,
                shipped: 0.0,
            });
        }
        let (keyed, eps_flow, eps_cost) = self.load(instance);

        let remapping = self.warm_start && keyed && self.remap.is_valid();
        let warmed = remapping && self.apply_remap() && self.warm_basis(eps_flow, true);
        if warmed {
            // Counted only once the re-priming accepted the basis: a
            // rejected remap runs cold and must not show up in the
            // diagnostic the vacuity guards assert on.
            self.remapped_solves += 1;
        } else {
            if remapping {
                self.rejected_remaps += 1;
            }
            self.crash_basis();
        }
        #[cfg(feature = "invariant-audit")]
        self.audit_basis(if warmed { "warm-start" } else { "crash-basis" });

        // Pivot to the unique lexicographic optimum and canonicalise: the
        // same tail whatever basis the solve started from, which is what
        // makes warm-started and cold solves bit-identical.
        self.block_pos = 0; // stateless pricing: per-solve determinism
        if !self.optimize(eps_cost, price) {
            // Pathological numerics: certified fallback to the reference
            // backend.  The basis memory is dropped — the reference
            // solution is not a basis this backend could resume.
            self.fallbacks += 1;
            self.remap.invalidate();
            return PrimalDualBackend.solve(instance, workspace);
        }
        // Remembered before `canonicalize` re-completes the basis with
        // artificial root arcs, which the remap drops and the next solve
        // would have to pivot back out (module docs, *Warm starts*).
        if keyed && self.warm_start {
            self.remap
                .remember(&self.keys, &self.from, &self.to, &self.state);
        } else {
            // Cross-solve memory disabled, or this instance's nodes carry
            // no stable identity to key a cross-event remap by.
            self.remap.invalidate();
        }
        self.canonicalize(eps_flow);
        #[cfg(feature = "invariant-audit")]
        self.audit_basis("canonicalize");
        self.shipment(instance, demand)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-6 * (1.0 + a.abs().max(b.abs()))
    }

    /// A transportation instance from explicit demands, capacities and
    /// `(source, bin, cost)` routes.
    fn transport(
        demands: &[f64],
        caps: &[f64],
        routes: &[(usize, usize, f64)],
    ) -> TransportInstance {
        let mut t = TransportInstance::new(demands.len(), caps.len());
        for (j, &d) in demands.iter().enumerate() {
            t.set_demand(j, d);
        }
        for (b, &c) in caps.iter().enumerate() {
            t.set_capacity(b, c);
        }
        for &(j, b, cost) in routes {
            t.add_route(j, b, cost);
        }
        t
    }

    /// [`transport`] keyed with `source_keys` and `bin_keys`.
    fn keyed_transport(
        demands: &[f64],
        caps: &[f64],
        routes: &[(usize, usize, f64)],
        source_keys: &[u64],
        bin_keys: &[u64],
    ) -> TransportInstance {
        let mut t = transport(demands, caps, routes);
        t.set_stable_keys(source_keys.iter().copied(), bin_keys.iter().copied());
        t
    }

    /// Solves `t` on a fresh simplex and on the primal-dual reference and
    /// requires them to agree on feasibility, shipped value and cost; a
    /// feasible simplex shipment must also respect every demand and
    /// capacity.  Returns whether the instance was feasible.
    fn assert_backends_agree(t: &TransportInstance) -> bool {
        let mut ws = FlowWorkspace::new();
        let reference = PrimalDualBackend.solve(t, &mut ws);
        let mut ns = NetworkSimplexBackend::new();
        let r = ns.solve(t, &mut ws);
        assert_eq!(ns.fallback_count(), 0, "simplex fell back");
        let (r, reference) = match (r, reference) {
            (Some(r), Some(reference)) => (r, reference),
            (None, None) => return false,
            (r, reference) => panic!(
                "feasibility diverged: simplex {:?} vs reference {:?}",
                r.map(|s| s.cost),
                reference.map(|s| s.cost)
            ),
        };
        assert!(
            close(r.shipped, reference.shipped),
            "shipped {} vs reference {}",
            r.shipped,
            reference.shipped
        );
        assert!(
            close(r.cost, reference.cost),
            "cost {} vs reference {}",
            r.cost,
            reference.cost
        );
        for j in 0..t.num_sources() {
            assert!(r.shipped_from(j) <= t.demand(j) + 1e-9);
        }
        for b in 0..t.num_bins() {
            assert!(r.received_by(b) <= t.capacity(b) + 1e-9);
        }
        true
    }

    #[test]
    fn agrees_on_two_parallel_routes() {
        assert!(assert_backends_agree(&transport(
            &[2.0],
            &[1.0, 1.0],
            &[(0, 0, 1.0), (0, 1, 5.0)],
        )));
    }

    #[test]
    fn agrees_on_fractional_split() {
        assert!(assert_backends_agree(&transport(
            &[1.0],
            &[0.4, 10.0],
            &[(0, 0, 1.0), (0, 1, 2.0)],
        )));
    }

    #[test]
    fn agrees_when_negative_costs_are_present() {
        assert!(assert_backends_agree(&transport(
            &[2.0],
            &[1.0, 1.0],
            &[(0, 0, -2.0), (0, 1, 4.0)],
        )));
    }

    #[test]
    fn empty_network_ships_nothing() {
        // An instance with nothing to ship is a no-op: it ships nothing
        // and leaves the remembered basis for the next keyed instance.
        let mut ws = FlowWorkspace::new();
        let mut ns = NetworkSimplexBackend::new();
        let keyed = || keyed_transport(&[1.0], &[1.0], &[(0, 0, 1.0)], &[5], &[9]);
        ns.solve(&keyed(), &mut ws).expect("feasible");
        let empty = ns
            .solve(&transport(&[0.0], &[1.0], &[(0, 0, 1.0)]), &mut ws)
            .expect("nothing to ship is feasible");
        assert!(empty.allocations.is_empty());
        assert!(close(empty.shipped, 0.0) && close(empty.cost, 0.0));
        ns.solve(&keyed(), &mut ws).expect("feasible");
        assert_eq!(ns.remap_count(), 1, "the empty solve dropped the basis");
    }

    #[test]
    fn agrees_on_random_transportation_networks() {
        // Deterministic pseudo-random bipartite instances (mixed congruential
        // stream), shaped like the scheduler's; some draws are infeasible,
        // and both backends must then return `None`.
        let mut seed = 0x9E37_79B9u64;
        let mut next = move || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((seed >> 33) as f64) / (1u64 << 31) as f64
        };
        let mut feasible = 0;
        let cases = 40;
        for case in 0..cases {
            let jobs = 1 + case % 5;
            let bins = 1 + (case / 2) % 6;
            let mut demands = Vec::new();
            let mut caps = Vec::new();
            let mut routes = Vec::new();
            for _ in 0..jobs {
                demands.push(0.25 + 4.0 * next());
            }
            for _ in 0..bins {
                caps.push(0.25 + 5.0 * next());
            }
            for j in 0..jobs {
                for b in 0..bins {
                    if next() < 0.7 {
                        routes.push((j, b, 5.0 * next()));
                    }
                }
            }
            if assert_backends_agree(&transport(&demands, &caps, &routes)) {
                feasible += 1;
            }
        }
        assert!(
            0 < feasible && feasible < cases,
            "{feasible} of {cases} draws feasible: both verdicts must be covered"
        );
    }

    /// Solves `t` on `warm` and on a fresh cold backend and requires
    /// bit-identical shipments.  Both solves read the instance's keys:
    /// they seed the tie-break, not any cross-solve state.
    fn assert_warm_solve_matches_cold(warm: &mut NetworkSimplexBackend, t: &TransportInstance) {
        let r_warm = warm.solve(t, &mut FlowWorkspace::new());
        let mut cold = NetworkSimplexBackend::with_warm_start(false);
        let r_cold = cold.solve(t, &mut FlowWorkspace::new());
        let (r_warm, r_cold) = (r_warm.expect("feasible"), r_cold.expect("feasible"));
        assert_eq!(r_warm.shipped.to_bits(), r_cold.shipped.to_bits());
        assert_eq!(r_warm.cost.to_bits(), r_cold.cost.to_bits());
        assert_eq!(r_warm.allocations.len(), r_cold.allocations.len());
        for (w, c) in r_warm.allocations.iter().zip(&r_cold.allocations) {
            assert_eq!((w.0, w.1), (c.0, c.1));
            assert_eq!(
                w.2.to_bits(),
                c.2.to_bits(),
                "route {}→{} diverged between warm and cold",
                w.0,
                w.1
            );
        }
    }

    #[test]
    fn warm_start_matches_cold_solves_across_capacity_and_cost_moves() {
        // Same keyed topology, shifting capacities/costs: every solve after
        // the first starts from the remapped basis of the one before (the
        // last repeats the third exactly) and must match a cold solve bit
        // for bit.
        let instance = |scale: f64, cost: f64| {
            keyed_transport(
                &[2.0 * scale, 3.0 * scale],
                &[4.0 * scale, 1.0 * scale],
                &[(0, 0, cost), (1, 0, 2.0 * cost), (1, 1, 3.0 * cost)],
                &[1, 2],
                &[3, 4],
            )
        };
        let moves = [(1.0, 1.0), (0.5, 3.0), (2.0, 0.25), (2.0, 0.25)];
        let mut shared = NetworkSimplexBackend::new();
        for (scale, cost) in moves {
            assert_warm_solve_matches_cold(&mut shared, &instance(scale, cost));
        }
        assert_eq!(
            shared.remap_count(),
            moves.len() - 1,
            "every later solve must start from the remapped basis"
        );
        assert_eq!(shared.fallback_count(), 0);
    }

    #[test]
    fn topology_change_invalidates_the_warm_basis() {
        // An instance without stable keys cannot be matched to the
        // remembered basis: it starts cold (and must stay right) and drops
        // the memory, so the keyed solve after it starts cold too.  Only a
        // keyed solve following a keyed one remaps.
        let chain = || keyed_transport(&[1.0], &[1.0], &[(0, 0, 1.0)], &[10], &[20]);
        let diamond = transport(&[2.0], &[1.0, 2.0], &[(0, 0, 1.0), (0, 1, 3.0)]);
        let mut ns = NetworkSimplexBackend::new();
        let mut ws = FlowWorkspace::new();
        let r1 = ns.solve(&chain(), &mut ws).expect("feasible");
        assert!(close(r1.shipped, 1.0));
        assert_eq!(ns.remap_count(), 0, "the first solve starts cold");

        let r2 = ns.solve(&diamond, &mut ws).expect("feasible");
        let reference = PrimalDualBackend
            .solve(&diamond, &mut ws)
            .expect("feasible");
        assert!(close(r2.shipped, reference.shipped));
        assert!(close(r2.cost, reference.cost));
        assert_eq!(ns.remap_count(), 0, "an unkeyed instance starts cold");

        let r3 = ns.solve(&chain(), &mut ws).expect("feasible");
        assert_eq!(ns.remap_count(), 0, "the unkeyed solve dropped the basis");

        let r4 = ns.solve(&chain(), &mut ws).expect("feasible");
        assert_eq!(
            ns.remap_count(),
            1,
            "a keyed solve after a keyed one remaps"
        );
        assert_eq!(r4.shipped.to_bits(), r3.shipped.to_bits());
        assert_eq!(r4.cost.to_bits(), r3.cost.to_bits());
    }

    #[test]
    fn remapped_solves_take_the_warm_tier_and_stay_bit_identical_to_cold() {
        // Event 1: jobs {10, 11} over bins {b0, b1}.  Event 2: job 10
        // completed, job 12 arrived — different topology, overlapping keys.
        // The shared backend must take the remap tier on event 2 and agree
        // *bitwise* with a fresh cold backend.
        let bins = [1 << 32, (1 << 32) | 1];
        let event1 = keyed_transport(
            &[2.0, 3.0],
            &[2.5, 4.0],
            &[(0, 0, 1.0), (0, 1, 2.0), (1, 0, 1.5), (1, 1, 0.5)],
            &[10, 11],
            &bins,
        );
        // One fewer route than event 1: the arc list differs, and only the
        // keys carry the basis over.
        let event2 = keyed_transport(
            &[3.0, 1.0],
            &[2.5, 4.0],
            &[(0, 0, 1.5), (0, 1, 0.5), (1, 1, 2.0)],
            &[11, 12],
            &bins,
        );

        let mut shared = NetworkSimplexBackend::new();
        shared.solve(&event1, &mut FlowWorkspace::new());
        assert_eq!(shared.remap_count(), 0);

        assert_warm_solve_matches_cold(&mut shared, &event2);
        assert_eq!(shared.remap_count(), 1, "event 2 must take the remap tier");
        assert_eq!(shared.fallback_count(), 0);
    }

    #[test]
    fn cost_ties_resolve_identically_from_any_start_basis() {
        // Two bins at *identical* cost (the System-(2) same-interval,
        // different-site tie): a warm-started solve arriving with the flow
        // on one bin and a cold solve crashing fresh must still pick the
        // same optimum, because the lexicographic tie-break makes it unique.
        let demands = [2.0];
        let caps = [2.0, 2.0];
        let bins = [1 << 32, (1 << 32) | 1];

        let mut shared = NetworkSimplexBackend::new();
        // Prime the shared backend with an instance whose optimum sits on
        // bin 1 only (bin 0 inadmissible), then re-solve the tied instance
        // warm.
        let primer = keyed_transport(&demands, &caps, &[(0, 1, 1.0)], &[7], &bins);
        shared.solve(&primer, &mut FlowWorkspace::new());

        let tied = keyed_transport(&demands, &caps, &[(0, 0, 1.0), (0, 1, 1.0)], &[7], &bins);
        assert_warm_solve_matches_cold(&mut shared, &tied);
        assert_eq!(shared.remap_count(), 1);
    }

    /// The pricing walk the block ranges of
    /// [`NetworkSimplexBackend::find_entering`] replaced: one arc per step,
    /// `pos = (pos + 1) % m`.  Kept as its oracle; counts nothing.
    fn find_entering_by_modulo(
        ns: &mut NetworkSimplexBackend,
        eps_cost: f64,
        lex: bool,
    ) -> Option<(usize, i8)> {
        let m = ns.from.len();
        if m == 0 {
            return None;
        }
        let block = ((m as f64).sqrt() as usize).max(16);
        let mut best: Option<(usize, f64, f64)> = None;
        let mut pos = ns.block_pos % m;
        let mut scanned = 0;
        while scanned < m {
            let chunk = block.min(m - scanned);
            for _ in 0..chunk {
                let a = pos;
                pos = (pos + 1) % m;
                scanned += 1;
                let s = ns.state[a];
                if s == STATE_TREE || ns.cap[a] <= 0.0 {
                    continue;
                }
                let rc = ns.cost[a] + ns.pi[ns.from[a]] - ns.pi[ns.to[a]];
                let v1 = -(s as f64) * rc;
                let eligible_primary = v1 > eps_cost;
                if !eligible_primary && (!lex || v1 <= -eps_cost) {
                    continue;
                }
                let v2 = -(s as f64) * (ns.cost2[a] + ns.pi2[ns.from[a]] - ns.pi2[ns.to[a]]);
                if !eligible_primary && v2 <= 0.5 {
                    continue;
                }
                let better = match best {
                    None => true,
                    Some((_, b1, b2)) => v1 > b1 + eps_cost || (v1 > b1 - eps_cost && v2 > b2),
                };
                if better {
                    best = Some((a, v1, v2));
                }
            }
            if best.is_some() {
                break;
            }
        }
        ns.block_pos = pos;
        best.map(|(a, _, _)| (a, ns.state[a]))
    }

    #[test]
    fn block_ranges_price_exactly_as_the_per_arc_modulo_walk() {
        // A warm backend fed a stream of keyed transport instances shaped
        // like System (2)'s: jobs arrive and complete (keys persist while
        // they are pending), bins are (site, interval) pairs, and a job's
        // cost per unit is tied across the sites of one interval.  At every
        // pricing call of every solve, in both phases, the block-range loop
        // must pick the oracle's arc and direction and leave the oracle's
        // rolling start.
        let mut seed = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((seed >> 33) as f64) / (1u64 << 31) as f64
        };
        let mut ns = NetworkSimplexBackend::new();
        let mut ws = FlowWorkspace::new();
        let mut pending: Vec<(u64, f64)> = Vec::new();
        let mut next_job = 0u64;
        // Pricing calls per phase; of them, those whose first block wraps
        // past the last arc (a rolling start within one block of the end)
        // on an arc count that is not a multiple of the block size.
        let mut calls = [0usize; 2];
        let mut wrapping_starts = [0usize; 2];
        let mut price = |ns: &mut NetworkSimplexBackend, eps_cost: f64, lex: bool| {
            let (m, start) = (ns.from.len(), ns.block_pos);
            let block = ((m as f64).sqrt() as usize).max(16);
            let expected = find_entering_by_modulo(ns, eps_cost, lex);
            let expected_pos = ns.block_pos;
            ns.block_pos = start;
            let got = ns.find_entering(eps_cost, lex);
            assert_eq!(
                (got, ns.block_pos),
                (expected, expected_pos),
                "pricing diverged from the oracle (m = {m}, start = {start}, lex = {lex})"
            );
            calls[usize::from(lex)] += 1;
            if m % block != 0 && m - start % m < block.min(m) {
                wrapping_starts[usize::from(lex)] += 1;
            }
            got
        };
        let events = 60;
        for event in 0..events {
            // Complete a few jobs, admit a few, then re-draw the work left.
            pending.retain(|_| next() < 0.8);
            let arrivals = 1 + (next() * 4.0) as usize;
            for _ in 0..arrivals {
                pending.push((next_job, 0.5 + 3.0 * next()));
                next_job += 1;
            }
            let sites = 2 + event % 4;
            let intervals = 2 + (event * 7) % 9;
            let jobs = pending.len();
            let demands: Vec<f64> = pending.iter().map(|&(_, w)| w * next()).collect();
            let caps: Vec<f64> = (0..sites * intervals).map(|_| 0.5 + 2.0 * next()).collect();
            let mut routes = Vec::new();
            for (j, &(_, weight)) in pending.iter().enumerate() {
                let window = 1 + (next() * intervals as f64) as usize;
                for s in 0..sites {
                    if next() < 0.3 {
                        continue; // site s does not host job j's databank
                    }
                    for i in 0..window.min(intervals) {
                        routes.push((j, s * intervals + i, (i as f64 + 0.5) / weight));
                    }
                }
            }
            let source_keys: Vec<u64> = pending.iter().map(|&(id, _)| id).collect();
            let bin_keys: Vec<u64> = (0..sites * intervals)
                .map(|b| (((b / intervals) as u64) << 32) | (b % intervals) as u64)
                .collect();
            let t = keyed_transport(&demands, &caps, &routes, &source_keys, &bin_keys);
            assert_eq!(t.num_sources(), jobs);
            let _ = ns.solve_priced(&t, &mut ws, &mut price);
        }
        assert!(
            calls[0] > 0 && calls[1] > 0,
            "both phases must be priced, got {calls:?}"
        );
        assert!(
            wrapping_starts[0] > 0 && wrapping_starts[1] > 0,
            "both phases must price a block wrapping past the last arc, got {wrapping_starts:?}"
        );
        assert!(
            ns.remap_count() > events / 2,
            "the stream must run warm, got {} remaps",
            ns.remap_count()
        );
        assert_eq!(ns.fallback_count(), 0);
    }

    #[test]
    fn disabled_warm_start_never_reuses_state() {
        let mut ns = NetworkSimplexBackend::with_warm_start(false);
        let mut ws = FlowWorkspace::new();
        // Keyed, yet never remapped: the keys only seed the tie-break.
        let t = keyed_transport(&[2.0], &[2.0], &[(0, 0, 1.0)], &[1], &[2]);
        let r1 = ns.solve(&t, &mut ws).expect("feasible");
        let r2 = ns.solve(&t, &mut ws).expect("feasible");
        assert_eq!(ns.remap_count(), 0, "reuse disabled");
        assert_eq!(r1.shipped.to_bits(), r2.shipped.to_bits());
        assert_eq!(r1.cost.to_bits(), r2.cost.to_bits());
    }
}
