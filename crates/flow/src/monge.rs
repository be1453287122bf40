//! A Monge/greedy product-form backend for the minimum-cost solve.
//!
//! The System-(2) transportation instances have a very particular cost
//! structure: the cost of routing a unit of job `j`'s work into bin `b`
//! (a `(site, interval)` slot) is `midpoint(interval) / size(j)` — a
//! **product form** `a_j · v_b` with `a_j = 1/size(j)` and `v_b` the interval
//! midpoint.  Product-form cost matrices are *Monge arrays*: sorting jobs by
//! decreasing `a_j` and bins by increasing `v_b` gives
//! `c[j][b] + c[j'][b'] ≤ c[j][b'] + c[j'][b]` for `j < j'`, `b < b'`
//! (the quadrangle inequality, since
//! `(a_j − a_{j'})(v_b − v_{b'}) ≤ 0` under opposite sort orders), and on a
//! Monge array the classical north-west-corner greedy — walk the sorted
//! jobs, give each the cheapest remaining capacity — reaches an optimal
//! vertex with **zero simplex pivoting** (Hoffman's greedy/Monge theorem;
//! the same structural shortcut switch-flow scheduling and total-stretch
//! minimization exploit to beat general LP machinery).
//!
//! [`MongeBackend`] packages that shortcut as a third [`MinCostBackend`]:
//!
//! 1. a **structural detector** certifies the instance: bipartite
//!    transportation shape (source → jobs → bins → sink, zero-cost supply
//!    and drain arcs), strictly positive product-form route costs
//!    (`c[j][b] = a_j · v_b`, verified to relative tolerance by ratio
//!    propagation over the route graph), and **per-job interval-contiguous
//!    bins** — each job's admissible bins cover a gap-free run of the
//!    distinct-`v` ladder, which is exactly the System-(2) shape (a job may
//!    use every interval between its release and its deadline, on every
//!    site hosting its databank; equal-midpoint bins on different sites
//!    share one rung of the ladder);
//! 2. a **greedy allocation kernel** solves certified instances in
//!    near-linear time — two sorts and one linear allocation sweep, no
//!    pivoting: jobs in decreasing `a_j` each fill their admissible bins in
//!    increasing `v_b`.  When heterogeneous databank hosting or
//!    deadline-tight ladders strand demand behind bins a job cannot reach,
//!    an augmenting-path repair reshuffles earlier jobs (cost-neutral
//!    within a rung; towards the cheapest reachable rung otherwise) so the
//!    sweep still ships everything shippable;
//! 3. the greedy vertex then **seeds** the embedded network simplex
//!    ([`NetworkSimplexBackend`]'s seeded entry point), whose shared solve
//!    tail verifies optimality (a single pricing sweep finds no violation
//!    when the greedy was right), walks the tied optimal face to the unique
//!    lexicographic vertex, and canonicalises — so a `monge` solve is
//!    **bit-identical** to a `simplex` solve of the same instance *by
//!    construction*: both run the identical start-basis-independent tail,
//!    only the start vertex differs.  The greedy replaces the phase-1 pivot
//!    sequence; it can never change the answer.
//!
//! Uncertified instances (and certified ones whose demand is unshippable —
//! the greedy then declines rather than emit a partial seed) fall through
//! **transparently** to the plain network simplex, warm-start tiers and
//! all, so the backend is always safe to select.
//!
//! **The seed serves cold starts only.**  Every solve leaves the embedded
//! simplex its canonical basis, remembered under the caller's stable node
//! keys ([`crate::remap::BasisRemap`]).  When such a basis is pending for
//! the next instance — warm start on, a basis remembered, and a
//! [`MinCostBackend::warm_hint`] for this network's node count — the solve
//! goes straight to the simplex's own warm path, skipping the detector,
//! the greedy and the seeded tail: consecutive on-line events differ by a
//! handful of jobs, so the remapped basis starts a few pivots from the new
//! optimum, while the greedy vertex pays for the detector and the sweep
//! and still leaves the tail its phase-1 and face-walk pivots.  A warm
//! `monge` solve then runs exactly the code of a warm `simplex` solve; a
//! cold one starts from the greedy vertex instead, and on a few pool-scale
//! on-line runs the two reach different completions (see
//! [`MongeBackend::with_warm_start`]).
//! The greedy seeds a solver's first event, every solve of a
//! [`MongeBackend::with_warm_start`]`(false)` backend or without stable
//! keys, and the solve after a pivot-budget fallback dropped the memory.
//!
//! The [`MongeBackend::certified_count`] /
//! [`MongeBackend::uncertified_count`] /
//! [`MongeBackend::greedy_declined_count`] /
//! [`MongeBackend::remap_count`] diagnostics let tests prove which path a
//! solve took.  A warm solve whose remembered basis the simplex rejects
//! (it then crashes fresh), or whose arc list repeats the previous solve's
//! exactly (the simplex's in-place tier), counts in none of them.

use crate::backend::MinCostBackend;
use crate::graph::FlowNetwork;
use crate::mincost::MinCostResult;
use crate::simplex::NetworkSimplexBackend;
use crate::workspace::FlowWorkspace;
use crate::FLOW_EPS;

/// Relative tolerance of the product-form ratio check and of the
/// distinct-`v` ladder grouping.
///
/// The System-(2) costs are computed as `midpoint / size`, so the
/// propagated ratios agree to a few ulp; `1e-9` is far above numerical
/// noise yet far below any structural violation.
const RATIO_RTOL: f64 = 1e-9;

/// Node has no role yet.
const ROLE_NONE: i8 = 0;
/// Node is a job (demand side).
const ROLE_JOB: i8 = 1;
/// Node is a bin (capacity side).
const ROLE_BIN: i8 = 2;

/// One job → bin route of the extracted transportation view.
#[derive(Clone, Copy, Debug)]
struct Route {
    /// Real arc index in the flow network (forward-edge order).
    arc: usize,
    /// Job node.
    job: usize,
    /// Bin node.
    bin: usize,
    /// Unit cost (strictly positive on certified instances).
    cost: f64,
    /// Arc capacity.
    cap: f64,
}

/// Min-cost max-flow by Monge/greedy allocation with a seeded-simplex
/// verification tail; see the module docs.
///
/// Hold one per solver and feed it every instance, exactly like the
/// simplex: the embedded [`NetworkSimplexBackend`] keeps its scratch and
/// cross-event basis memory alive across solves (every solve refreshes the
/// memory with its canonical basis, and the next warm solve starts from
/// it).
pub struct MongeBackend {
    /// The embedded simplex: runs the verification tail of certified solves
    /// and the whole of uncertified and warm ones.
    simplex: NetworkSimplexBackend,
    // --- diagnostics ---
    certified_solves: usize,
    uncertified_solves: usize,
    greedy_declined: usize,
    // --- detector / greedy scratch (reused across solves) ---
    role: Vec<i8>,
    supply_edge: Vec<usize>,
    drain_edge: Vec<usize>,
    demand: Vec<f64>,
    capacity: Vec<f64>,
    value: Vec<f64>,
    assigned: Vec<bool>,
    rank: Vec<usize>,
    adj_start: Vec<usize>,
    adj_cursor: Vec<usize>,
    adj_items: Vec<(usize, f64)>,
    queue: Vec<usize>,
    bins: Vec<usize>,
    routes: Vec<Route>,
    span: Vec<(usize, usize)>,
    order: Vec<usize>,
    seed: Vec<f64>,
    total_demand: f64,
    // --- augmenting-repair scratch ---
    by_bin: Vec<usize>,
    bin_span: Vec<(usize, usize)>,
    by_bin_valid: bool,
    bfs_parent: Vec<(usize, usize)>,
    bfs_queue: Vec<usize>,
}

impl Default for MongeBackend {
    fn default() -> Self {
        Self::new()
    }
}

impl MongeBackend {
    /// Creates a backend with empty scratch (grows on first use) and every
    /// warm-start tier of the embedded simplex enabled.
    pub fn new() -> Self {
        Self::with_warm_start(true)
    }

    /// Creates a backend selecting whether the embedded simplex may keep
    /// solver state across solves (see
    /// [`NetworkSimplexBackend::with_warm_start`]).  With `true`, a solve
    /// that finds a remembered basis for its instance starts from it and
    /// skips the detector and the greedy; with `false`, every solve is
    /// certified afresh and seeded by the greedy (the "cold" reference of
    /// the warm/cold tests).  The two start from different bases, so they
    /// agree bit for bit only where the start-basis independence of the
    /// canonical tail holds: the differential suites pin it at tens of
    /// jobs, but on a few pool-scale on-line runs warm and cold `monge`
    /// reach different completions (ARCHITECTURE.md, *The determinism
    /// contract*).
    pub fn with_warm_start(warm_start: bool) -> Self {
        MongeBackend {
            simplex: NetworkSimplexBackend::with_warm_start(warm_start),
            certified_solves: 0,
            uncertified_solves: 0,
            greedy_declined: 0,
            role: Vec::new(),
            supply_edge: Vec::new(),
            drain_edge: Vec::new(),
            demand: Vec::new(),
            capacity: Vec::new(),
            value: Vec::new(),
            assigned: Vec::new(),
            rank: Vec::new(),
            adj_start: Vec::new(),
            adj_cursor: Vec::new(),
            adj_items: Vec::new(),
            queue: Vec::new(),
            bins: Vec::new(),
            routes: Vec::new(),
            span: Vec::new(),
            order: Vec::new(),
            seed: Vec::new(),
            total_demand: 0.0,
            by_bin: Vec::new(),
            bin_span: Vec::new(),
            by_bin_valid: false,
            bfs_parent: Vec::new(),
            bfs_queue: Vec::new(),
        }
    }

    /// Cold-start solves that were certified product-form/Monge and took
    /// the greedy seeded path (diagnostic; the differential tests assert
    /// on it).
    pub fn certified_count(&self) -> usize {
        self.certified_solves
    }

    /// Cold-start solves the detector declined (or the greedy declined —
    /// see [`Self::greedy_declined_count`]), routed through the plain
    /// simplex.
    pub fn uncertified_count(&self) -> usize {
        self.uncertified_solves
    }

    /// Solves that started from the embedded simplex's remapped
    /// cross-event basis, skipping the detector and the greedy (delegates
    /// to [`NetworkSimplexBackend::remap_count`]).
    pub fn remap_count(&self) -> usize {
        self.simplex.remap_count()
    }

    /// Certified-structure solves where the greedy sweep stranded demand
    /// and handed the instance to the fallback anyway (a subset of
    /// [`Self::uncertified_count`]).
    pub fn greedy_declined_count(&self) -> usize {
        self.greedy_declined
    }

    /// Pivot-budget blow-ups of the embedded simplex (delegates to
    /// [`NetworkSimplexBackend::fallback_count`]; should stay at zero).
    pub fn pivot_fallback_count(&self) -> usize {
        self.simplex.fallback_count()
    }

    /// Extracts the transportation view of `network` and certifies the
    /// Monge structure (see the module docs); `false` means the instance
    /// must take the fallback path.  Fills the detector scratch: roles,
    /// demands/capacities, product-form factors (`value`), the distinct-`v`
    /// ladder ranks, the routes sorted by `(job, rank, bin)` with per-job
    /// spans, and the greedy job order.
    fn certify(&mut self, network: &FlowNetwork, source: usize, sink: usize) -> bool {
        let n = network.num_nodes();
        let m = network.num_edges();
        self.role.clear();
        self.role.resize(n, ROLE_NONE);
        self.supply_edge.clear();
        self.supply_edge.resize(n, usize::MAX);
        self.drain_edge.clear();
        self.drain_edge.resize(n, usize::MAX);
        self.demand.clear();
        self.demand.resize(n, 0.0);
        self.capacity.clear();
        self.capacity.resize(n, 0.0);
        self.routes.clear();

        // 1. Transportation shape: every arc is a supply arc (source → job,
        //    zero cost), a drain arc (bin → sink, zero cost) or a route
        //    (job → bin, positive cost); no node plays two roles.
        for a in 0..m {
            let fwd = network.edge(2 * a);
            let u = network.edge((2 * a) ^ 1).to;
            let v = fwd.to;
            if u == source {
                if v == source || v == sink || fwd.cost != 0.0 {
                    return false;
                }
                if self.role[v] == ROLE_BIN || self.supply_edge[v] != usize::MAX {
                    return false;
                }
                self.role[v] = ROLE_JOB;
                self.supply_edge[v] = a;
                self.demand[v] = fwd.cap;
            } else if v == sink {
                if u == sink || fwd.cost != 0.0 {
                    return false;
                }
                if self.role[u] == ROLE_JOB || self.drain_edge[u] != usize::MAX {
                    return false;
                }
                self.role[u] = ROLE_BIN;
                self.drain_edge[u] = a;
                self.capacity[u] = fwd.cap;
            } else if v == source || u == sink || u == v {
                return false;
            } else {
                if !(fwd.cost.is_finite() && fwd.cost > 0.0) {
                    return false;
                }
                if self.role[u] == ROLE_BIN || self.role[v] == ROLE_JOB {
                    return false;
                }
                self.role[u] = ROLE_JOB;
                self.role[v] = ROLE_BIN;
                self.routes.push(Route {
                    arc: a,
                    job: u,
                    bin: v,
                    cost: fwd.cost,
                    cap: fwd.cap,
                });
            }
        }
        self.total_demand = self.demand.iter().sum();

        // 2. Product form: propagate `a_j` / `v_b` factors over the route
        //    graph (BFS per connected component, deterministic index order),
        //    then verify every route against its factors.  The adjacency is
        //    CSR over three reused flat vectors — this runs once per
        //    scheduling event, so allocation-free steady state matters.
        self.adj_start.clear();
        self.adj_start.resize(n + 1, 0);
        for r in &self.routes {
            self.adj_start[r.job + 1] += 1;
            self.adj_start[r.bin + 1] += 1;
        }
        for i in 0..n {
            self.adj_start[i + 1] += self.adj_start[i];
        }
        self.adj_cursor.clear();
        self.adj_cursor.extend_from_slice(&self.adj_start[..n]);
        self.adj_items.clear();
        self.adj_items.resize(2 * self.routes.len(), (0, 0.0));
        for r in &self.routes {
            self.adj_items[self.adj_cursor[r.job]] = (r.bin, r.cost);
            self.adj_cursor[r.job] += 1;
            self.adj_items[self.adj_cursor[r.bin]] = (r.job, r.cost);
            self.adj_cursor[r.bin] += 1;
        }
        self.value.clear();
        self.value.resize(n, 0.0);
        self.assigned.clear();
        self.assigned.resize(n, false);
        self.queue.clear();
        for start in 0..n {
            if self.assigned[start] || self.adj_start[start] == self.adj_start[start + 1] {
                continue;
            }
            self.assigned[start] = true;
            self.value[start] = 1.0;
            self.queue.push(start);
            while let Some(x) = self.queue.pop() {
                for i in self.adj_start[x]..self.adj_start[x + 1] {
                    let (y, cost) = self.adj_items[i];
                    if self.assigned[y] {
                        continue;
                    }
                    let val = cost / self.value[x];
                    if !(val.is_finite() && val > 0.0) {
                        return false;
                    }
                    self.assigned[y] = true;
                    self.value[y] = val;
                    self.queue.push(y);
                }
            }
        }
        for r in &self.routes {
            let predicted = self.value[r.job] * self.value[r.bin];
            if (r.cost - predicted).abs() > RATIO_RTOL * r.cost {
                return false;
            }
        }

        // 3. The distinct-`v` ladder: bins sorted by their factor, grouped
        //    to relative tolerance (equal-midpoint bins on different sites
        //    share one rung), rung index stored per bin.
        self.bins.clear();
        self.bins
            .extend((0..n).filter(|&v| self.role[v] == ROLE_BIN && self.assigned[v]));
        {
            let value = &self.value;
            self.bins
                .sort_unstable_by(|&a, &b| value[a].total_cmp(&value[b]).then(a.cmp(&b)));
        }
        self.rank.clear();
        self.rank.resize(n, 0);
        let mut rung = 0usize;
        let mut prev = f64::NAN;
        for &b in &self.bins {
            let v = self.value[b];
            if !prev.is_nan() && v - prev > RATIO_RTOL * v.max(prev) {
                rung += 1;
            }
            self.rank[b] = rung;
            prev = v;
        }

        // 4. Per-job contiguity: routes sorted by (job, rung, bin); each
        //    job's rung sequence must be gap-free.  The sort doubles as the
        //    greedy's cheapest-first allocation order, and the same pass
        //    records each job's route span.
        {
            let rank = &self.rank;
            self.routes.sort_unstable_by(|r1, r2| {
                (r1.job, rank[r1.bin], r1.bin, r1.arc).cmp(&(r2.job, rank[r2.bin], r2.bin, r2.arc))
            });
        }
        self.span.clear();
        self.span.resize(n, (0, 0));
        let mut k = 0;
        while k < self.routes.len() {
            let job = self.routes[k].job;
            let begin = k;
            let mut prev_rank = self.rank[self.routes[k].bin];
            k += 1;
            while k < self.routes.len() && self.routes[k].job == job {
                let rk = self.rank[self.routes[k].bin];
                if rk > prev_rank + 1 {
                    return false; // a hole in the job's interval ladder
                }
                prev_rank = rk;
                k += 1;
            }
            self.span[job] = (begin, k);
        }

        // 5. Greedy job order: decreasing `a_j` (the most expensive-per-unit
        //    jobs claim the cheapest rungs first), ties by node index.
        self.order.clear();
        self.order
            .extend((0..n).filter(|&v| self.role[v] == ROLE_JOB));
        {
            let value = &self.value;
            self.order
                .sort_unstable_by(|&a, &b| value[b].total_cmp(&value[a]).then(a.cmp(&b)));
        }
        true
    }

    /// The north-west-corner greedy sweep over the certified structure:
    /// jobs in decreasing `a_j` fill their admissible bins in increasing
    /// `v_b`, consuming `self.capacity` in place and accumulating the
    /// result into `self.seed` (one flow per real arc).
    ///
    /// When a job exhausts its reachable bins while free capacity survives
    /// elsewhere (heterogeneous databank hosting within a rung, or a
    /// deadline-tight ladder whose prefix earlier jobs consumed), the
    /// augmenting [`Self::repair`] reshuffles earlier jobs to free
    /// reachable capacity.  Returns `false` when demand is stranded even so
    /// — then no assignment ships every demand and the fallback's max-flow
    /// semantics take over.
    fn greedy(&mut self, num_edges: usize) -> bool {
        self.seed.clear();
        self.seed.resize(num_edges, 0.0);
        self.by_bin_valid = false;
        let eps = FLOW_EPS.max(self.total_demand * 1e-12);
        for oi in 0..self.order.len() {
            let j = self.order[oi];
            let mut rem = self.demand[j];
            if rem <= 0.0 {
                continue;
            }
            let (begin, end) = self.span[j];
            for k in begin..end {
                if rem <= 0.0 {
                    break;
                }
                let r = self.routes[k];
                let amt = rem.min(self.capacity[r.bin]).min(r.cap - self.seed[r.arc]);
                if amt > 0.0 {
                    self.seed[r.arc] += amt;
                    self.seed[self.drain_edge[r.bin]] += amt;
                    self.capacity[r.bin] -= amt;
                    rem -= amt;
                }
            }
            if rem > eps {
                self.repair(begin, end, eps, &mut rem);
            }
            if rem > eps {
                return false;
            }
            self.seed[self.supply_edge[j]] = self.demand[j] - rem;
        }
        true
    }

    /// Sorts route indices by bin (`by_bin`) with per-bin spans
    /// (`bin_span`), the occupant lookup of [`Self::repair`].  Built lazily:
    /// most solves never strand, and then never pay for the index.
    fn build_bin_index(&mut self) {
        if self.by_bin_valid {
            return;
        }
        self.by_bin.clear();
        self.by_bin.extend(0..self.routes.len());
        {
            let routes = &self.routes;
            self.by_bin.sort_unstable_by_key(|&ri| (routes[ri].bin, ri));
        }
        self.bin_span.clear();
        self.bin_span.resize(self.capacity.len(), (0, 0));
        let mut k = 0;
        while k < self.by_bin.len() {
            let bin = self.routes[self.by_bin[k]].bin;
            let begin = k;
            while k < self.by_bin.len() && self.routes[self.by_bin[k]].bin == bin {
                k += 1;
            }
            self.bin_span[bin] = (begin, k);
        }
        self.by_bin_valid = true;
    }

    /// Augmenting-path repair for a stranded job (routes
    /// `routes[jr_begin..jr_end]`, its span slice): BFS over alternating
    /// `bin → (occupying job) → bin` moves — an occupant may shift work to
    /// *any* bin of its own ladder — until a bin with free capacity is
    /// reached, then shift along the path and place the stranded demand at
    /// its head.  Repeats until the demand is placed or no augmenting path
    /// remains (then the instance cannot ship every demand at all, and the
    /// fallback's max-flow semantics take over).
    ///
    /// Two flavours of move do the work: **within-rung** shifts (same
    /// interval, different site) are cost-neutral — every bin of a rung
    /// prices identically — and fix pure site-reachability strands;
    /// **cross-rung** shifts displace an earlier job towards dearer rungs,
    /// which some job must occupy anyway once a deadline-tight job needs
    /// the prefix (the System-(2) ladders are deadline-nested).  Both BFS
    /// frontiers expand in ladder order, so displaced work lands on the
    /// cheapest reachable rung first.  The seed stays near-optimal, not
    /// provably optimal — by contract that costs the seeded simplex a few
    /// phase-1 pivots and can never change the answer.
    fn repair(&mut self, jr_begin: usize, jr_end: usize, eps: f64, rem: &mut f64) {
        self.build_bin_index();
        // One augmentation per iteration; each one saturates a route, fills
        // a bin or finishes the demand, so the count is bounded.
        let max_augments = 2 * self.routes.len() + 2;
        for _ in 0..max_augments {
            if *rem <= eps {
                return;
            }
            // BFS from the stranded job's bins towards free capacity.
            self.bfs_parent.clear();
            self.bfs_parent
                .resize(self.capacity.len(), (usize::MAX, usize::MAX));
            self.bfs_queue.clear();
            let mut target = usize::MAX;
            'seedbins: for k in jr_begin..jr_end {
                let r = self.routes[k];
                if r.cap - self.seed[r.arc] <= 0.0 {
                    continue; // the job's own route is saturated
                }
                if self.bfs_parent[r.bin].1 != usize::MAX {
                    continue;
                }
                self.bfs_parent[r.bin] = (usize::MAX, k);
                if self.capacity[r.bin] > 0.0 {
                    target = r.bin; // direct free capacity (route-cap strand)
                    break 'seedbins;
                }
                self.bfs_queue.push(r.bin);
            }
            let mut head = 0;
            'bfs: while target == usize::MAX && head < self.bfs_queue.len() {
                let b = self.bfs_queue[head];
                head += 1;
                let (ob, oe) = self.bin_span[b];
                for i in ob..oe {
                    let out = self.routes[self.by_bin[i]];
                    if self.seed[out.arc] <= 0.0 {
                        continue; // nothing to move out of `b` via this route
                    }
                    let (kb, ke) = self.span[out.job];
                    for rj in kb..ke {
                        let inr = self.routes[rj];
                        if self.bfs_parent[inr.bin].1 != usize::MAX
                            || inr.cap - self.seed[inr.arc] <= 0.0
                        {
                            continue;
                        }
                        self.bfs_parent[inr.bin] = (self.by_bin[i], rj);
                        if self.capacity[inr.bin] > 0.0 {
                            target = inr.bin;
                            break 'bfs;
                        }
                        self.bfs_queue.push(inr.bin);
                    }
                }
            }
            if target == usize::MAX {
                return; // no augmenting path: demand cannot be shipped
            }
            // Bottleneck pass.
            let mut x = rem.min(self.capacity[target]);
            let mut b = target;
            loop {
                let (route_out, route_in) = self.bfs_parent[b];
                let inr = self.routes[route_in];
                x = x.min(inr.cap - self.seed[inr.arc]);
                if route_out == usize::MAX {
                    break; // reached the stranded job's own route
                }
                x = x.min(self.seed[self.routes[route_out].arc]);
                b = self.routes[route_out].bin;
            }
            if x <= 0.0 {
                return; // numerically empty path: treat as stranded
            }
            // Apply pass: shift occupants along the path, place the
            // stranded demand at the head, land the net inflow on `target`.
            self.capacity[target] -= x;
            self.seed[self.drain_edge[target]] += x;
            let mut b = target;
            loop {
                let (route_out, route_in) = self.bfs_parent[b];
                self.seed[self.routes[route_in].arc] += x;
                if route_out == usize::MAX {
                    break;
                }
                self.seed[self.routes[route_out].arc] -= x;
                b = self.routes[route_out].bin;
            }
            *rem -= x;
        }
    }

    /// Monge-certification post-conditions of an accepted greedy seed
    /// (feature `invariant-audit`): every route flow within its capacity,
    /// every job's demand shipped exactly (routes, supply edge and drain
    /// edges all consistent), no bin oversubscribed.  A seed violating any
    /// of these could still solve correctly — the seeded simplex verifies —
    /// but it would break the zero-pivot contract the certification is
    /// supposed to guarantee, so the audit makes it loud.
    #[cfg(feature = "invariant-audit")]
    fn audit_seed(&self) {
        use crate::audit::fail;
        let eps = 1e-6 * (1.0 + self.total_demand);
        let mut total = 0.0;
        let mut drained = vec![0.0f64; self.capacity.len()];
        for (j, &(begin, end)) in self.span.iter().enumerate() {
            let mut shipped = 0.0;
            for k in begin..end {
                let r = self.routes[k];
                let f = self.seed[r.arc];
                if !(-eps..=r.cap + eps).contains(&f) {
                    fail(
                        "monge-seed",
                        &format!(
                            "route {k} (job {j} -> bin {}) carries {f:.6e} of capacity {:.6e}",
                            r.bin, r.cap
                        ),
                    );
                }
                shipped += f;
                drained[r.bin] += f;
            }
            if (shipped - self.demand[j]).abs() > eps {
                fail(
                    "monge-seed",
                    &format!(
                        "job {j} ships {shipped:.6e} of demand {:.6e}",
                        self.demand[j]
                    ),
                );
            }
            if self.supply_edge[j] != usize::MAX
                && (self.seed[self.supply_edge[j]] - shipped).abs() > eps
            {
                fail(
                    "monge-seed",
                    &format!(
                        "job {j} supply edge carries {:.6e} but routes ship {shipped:.6e}",
                        self.seed[self.supply_edge[j]]
                    ),
                );
            }
            total += shipped;
        }
        for (b, &d) in drained.iter().enumerate() {
            if self.drain_edge[b] == usize::MAX {
                continue;
            }
            if d > 0.0 && (self.seed[self.drain_edge[b]] - d).abs() > eps {
                fail(
                    "monge-seed",
                    &format!(
                        "bin {b} drain edge carries {:.6e} but routes deliver {d:.6e}",
                        self.seed[self.drain_edge[b]]
                    ),
                );
            }
            if self.capacity[b] < -eps {
                fail(
                    "monge-seed",
                    &format!("bin {b} oversubscribed by {:.6e}", -self.capacity[b]),
                );
            }
        }
        if (total - self.total_demand).abs() > eps {
            fail(
                "monge-seed",
                &format!(
                    "seed ships {total:.6e} of total demand {:.6e}",
                    self.total_demand
                ),
            );
        }
    }
}

impl MinCostBackend for MongeBackend {
    fn name(&self) -> &'static str {
        "monge"
    }

    fn warm_hint(&mut self, node_keys: &[u64]) {
        // Forwarded wholesale: the keys seed the embedded simplex's
        // lexicographic tie-break (which certified and fallback solves
        // share — the bit-identity contract) and its cross-event basis
        // memory.
        self.simplex.warm_hint(node_keys);
    }

    fn solve_up_to(
        &mut self,
        network: &mut FlowNetwork,
        source: usize,
        sink: usize,
        target: f64,
        workspace: &mut FlowWorkspace,
    ) -> MinCostResult {
        // A remembered cross-event basis starts closer to the optimum than
        // the greedy vertex: the warm solve is then exactly a warm simplex
        // solve, and the seed serves only cold starts.
        if target > 0.0 && !self.simplex.holds_remap_basis(network.num_nodes()) {
            if self.certify(network, source, sink) {
                if self.greedy(network.num_edges()) {
                    #[cfg(feature = "invariant-audit")]
                    self.audit_seed();
                    self.certified_solves += 1;
                    return self
                        .simplex
                        .solve_up_to_seeded(network, source, sink, target, workspace, &self.seed);
                }
                self.greedy_declined += 1;
            }
            self.uncertified_solves += 1;
        }
        self.simplex
            .solve_up_to(network, source, sink, target, workspace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a jobs × bins transportation network (transport.rs layout:
    /// jobs, bins, then source and sink) with explicit route costs.
    fn transport_network(
        demands: &[f64],
        caps: &[f64],
        routes: &[(usize, usize, f64)],
    ) -> (FlowNetwork, usize, usize) {
        let (nj, nb) = (demands.len(), caps.len());
        let s = nj + nb;
        let t = s + 1;
        let mut g = FlowNetwork::new(nj + nb + 2);
        for (j, &d) in demands.iter().enumerate() {
            if d > 0.0 {
                g.add_edge(s, j, d, 0.0);
            }
        }
        for (b, &c) in caps.iter().enumerate() {
            if c > 0.0 {
                g.add_edge(nj + b, t, c, 0.0);
            }
        }
        for &(j, b, cost) in routes {
            g.add_edge(j, nj + b, demands[j], cost);
        }
        (g, s, t)
    }

    /// Solves the same instance on `monge` and on a cold `simplex` and
    /// asserts bit-identical flows, returning the monge backend for
    /// counter assertions.
    fn assert_bitwise_matches_simplex(
        demands: &[f64],
        caps: &[f64],
        routes: &[(usize, usize, f64)],
    ) -> MongeBackend {
        let mut monge = MongeBackend::new();
        let (mut g_m, s, t) = transport_network(demands, caps, routes);
        let r_m = monge.solve_up_to(&mut g_m, s, t, f64::INFINITY, &mut FlowWorkspace::new());
        let mut simplex = NetworkSimplexBackend::new();
        let (mut g_s, s, t) = transport_network(demands, caps, routes);
        let r_s = simplex.solve_up_to(&mut g_s, s, t, f64::INFINITY, &mut FlowWorkspace::new());
        assert_eq!(r_m.flow.to_bits(), r_s.flow.to_bits(), "flow diverged");
        assert_eq!(r_m.cost.to_bits(), r_s.cost.to_bits(), "cost diverged");
        for a in 0..g_m.num_edges() {
            assert_eq!(
                g_m.flow_on(2 * a).to_bits(),
                g_s.flow_on(2 * a).to_bits(),
                "edge {a} flow diverged between monge and simplex"
            );
        }
        monge
    }

    #[test]
    fn product_form_instances_take_the_greedy_path_and_match_simplex_bitwise() {
        // Product costs a_j * v_b with a = [2, 1], v = [1, 3]: certified.
        let monge = assert_bitwise_matches_simplex(
            &[2.0, 3.0],
            &[2.5, 4.0],
            &[(0, 0, 2.0), (0, 1, 6.0), (1, 0, 1.0), (1, 1, 3.0)],
        );
        assert_eq!(monge.certified_count(), 1);
        assert_eq!(monge.uncertified_count(), 0);
        assert_eq!(monge.pivot_fallback_count(), 0);
    }

    #[test]
    fn non_product_costs_route_through_the_fallback_and_still_match() {
        // c[0][1] breaks the product form (6.0 would be product).
        let monge = assert_bitwise_matches_simplex(
            &[2.0, 3.0],
            &[2.5, 4.0],
            &[(0, 0, 2.0), (0, 1, 5.0), (1, 0, 1.0), (1, 1, 3.0)],
        );
        assert_eq!(monge.certified_count(), 0);
        assert_eq!(monge.uncertified_count(), 1);
        assert_eq!(monge.greedy_declined_count(), 0);
    }

    #[test]
    fn interval_holes_are_uncertified() {
        // Job 0 reaches rungs {0, 2} of the three-rung ladder but not rung
        // 1: contiguity fails, fallback fires, results still agree.
        let monge = assert_bitwise_matches_simplex(
            &[2.0, 1.0],
            &[2.0, 2.0, 2.0],
            &[
                (0, 0, 1.0),
                (0, 2, 4.0),
                (1, 0, 0.5),
                (1, 1, 1.0),
                (1, 2, 2.0),
            ],
        );
        assert_eq!(monge.certified_count(), 0);
        assert_eq!(monge.uncertified_count(), 1);
    }

    #[test]
    fn stranded_demand_is_recovered_by_the_augmenting_repair() {
        // Product form (a = [2, 1], v = [1, 2]) and contiguous, but job 1
        // only reaches the cheap bin, which the greedy hands to job 0 first.
        // The sweep strands job 1; the augmenting repair moves job 0 to the
        // dear bin (which some job must occupy anyway), job 1 takes the
        // cheap one, and the solve stays on the certified path.
        let monge = assert_bitwise_matches_simplex(
            &[1.0, 1.0],
            &[1.0, 1.0],
            &[(0, 0, 2.0), (0, 1, 4.0), (1, 0, 1.0)],
        );
        assert_eq!(monge.certified_count(), 1);
        assert_eq!(monge.greedy_declined_count(), 0);
        assert_eq!(monge.uncertified_count(), 0);
    }

    #[test]
    fn infeasible_instances_fall_back_and_ship_the_maximum() {
        // Total capacity below demand: the greedy strands demand, the
        // fallback ships the max flow like any other backend.
        let mut monge = MongeBackend::new();
        let (mut g, s, t) = transport_network(&[2.0, 2.0], &[1.0], &[(0, 0, 2.0), (1, 0, 1.0)]);
        let r = monge.solve_up_to(&mut g, s, t, f64::INFINITY, &mut FlowWorkspace::new());
        assert!((r.flow - 1.0).abs() < 1e-9);
        assert_eq!(monge.greedy_declined_count(), 1);
    }

    #[test]
    fn zero_target_ships_nothing_without_classifying() {
        let mut monge = MongeBackend::new();
        let (mut g, s, t) = transport_network(&[1.0], &[1.0], &[(0, 0, 1.0)]);
        let r = monge.solve_up_to(&mut g, s, t, 0.0, &mut FlowWorkspace::new());
        assert_eq!(r.flow, 0.0);
        assert_eq!(monge.certified_count() + monge.uncertified_count(), 0);
    }

    #[test]
    fn greedy_prefers_cheap_rungs_for_expensive_jobs() {
        // a = [4, 1] (job 0 is 4× as expensive per unit), v = [1, 10]:
        // the optimum gives job 0 the entire cheap bin.  The greedy must
        // find it alone — certified, zero pivot fallbacks.
        let mut monge = MongeBackend::new();
        let (mut g, s, t) = transport_network(
            &[2.0, 2.0],
            &[2.0, 3.0],
            &[(0, 0, 4.0), (0, 1, 40.0), (1, 0, 1.0), (1, 1, 10.0)],
        );
        let r = monge.solve_up_to(&mut g, s, t, f64::INFINITY, &mut FlowWorkspace::new());
        assert_eq!(monge.certified_count(), 1);
        assert!((r.flow - 4.0).abs() < 1e-9);
        // job 0 fully on bin 0 (cost 4·2), job 1 fully on bin 1 (cost 10·2).
        assert!((r.cost - 28.0).abs() < 1e-9);
        let route_base = g.num_edges() - 4;
        assert!((g.flow_on(2 * route_base) - 2.0).abs() < 1e-9);
        assert!((g.flow_on(2 * (route_base + 3)) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn shared_backend_stays_bit_identical_across_events() {
        // Two product-form events of different shapes through one shared
        // backend versus fresh cold backends: bitwise identical.  The
        // shared backend seeds the first event from the greedy and starts
        // the second from the remapped basis; every cold backend certifies
        // its event.
        type Event<'a> = (&'a [f64], &'a [f64], &'a [(usize, usize, f64)]);
        let events: [Event; 2] = [
            (
                &[2.0, 3.0],
                &[2.5, 4.0],
                &[(0, 0, 2.0), (0, 1, 6.0), (1, 0, 1.0), (1, 1, 3.0)],
            ),
            (
                &[3.0, 1.0],
                &[2.5, 4.0],
                &[(0, 0, 1.0), (0, 1, 3.0), (1, 1, 1.5)],
            ),
        ];
        let keys: [&[u64]; 2] = [
            &[10, 11, 1 << 32, (1 << 32) | 1, u64::MAX - 1, u64::MAX - 2],
            &[11, 12, 1 << 32, (1 << 32) | 1, u64::MAX - 1, u64::MAX - 2],
        ];
        let mut shared = MongeBackend::new();
        let mut ws = FlowWorkspace::new();
        for (e, (demands, caps, routes)) in events.iter().enumerate() {
            let (mut g_w, s, t) = transport_network(demands, caps, routes);
            shared.warm_hint(keys[e]);
            shared.solve_up_to(&mut g_w, s, t, f64::INFINITY, &mut ws);
            let mut cold = MongeBackend::with_warm_start(false);
            cold.warm_hint(keys[e]);
            let (mut g_c, s, t) = transport_network(demands, caps, routes);
            cold.solve_up_to(&mut g_c, s, t, f64::INFINITY, &mut FlowWorkspace::new());
            assert_eq!(cold.certified_count(), 1, "event {e}: detector verdict");
            for a in 0..g_w.num_edges() {
                assert_eq!(
                    g_w.flow_on(2 * a).to_bits(),
                    g_c.flow_on(2 * a).to_bits(),
                    "event {e}, edge {a}: shared/warm diverged from cold"
                );
            }
        }
        assert_eq!(shared.certified_count(), 1);
        assert_eq!(shared.remap_count(), 1);
        assert_eq!(shared.uncertified_count(), 0);
        assert_eq!(shared.pivot_fallback_count(), 0);
    }
}
