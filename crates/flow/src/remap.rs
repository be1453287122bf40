//! Cross-event basis memory for the network simplex.
//!
//! A basis indexed by arc position can only be reused when two consecutive
//! instances have *identical* arc lists — the repeated-solve case, not the
//! scheduler's.  Across arrival and completion events the System-(2)
//! network changes shape: completed jobs drop their arcs, new jobs add
//! theirs, and the `(site, interval)` bin set stretches or shrinks with the
//! epochal structure.  Yet most of the network
//! *persists*: Srivastav–Trystram-style online re-optimisation exploits
//! exactly this — consecutive instances differ by a handful of jobs.
//!
//! A [`BasisRemap`] carries the previous solve's basis across such a shape
//! change: the basis the simplex's pivot loop stopped at, an optimal
//! vertex's own tree and bound arcs, not the canonical basis its output is
//! re-derived from (that one hangs every free-forest component off an
//! artificial root arc, which the remap drops, so the next solve would
//! re-hang those nodes off the root at ±BIG potentials and pivot the
//! artificial arcs back out).  The
//! memory therefore depends on the pivot path that reached the optimum,
//! while the output does not wherever warm and cold solves agree.
//! Identity is established by **stable node keys**, which the
//! transportation instance carries
//! ([`crate::TransportInstance::set_stable_keys`]; the scheduling layer
//! keys jobs by their instance-wide job id and bins by `(site, interval
//! position)`, both stable across events).  Each basic/nonbasic arc state
//! is remembered under the key pair of its endpoints, and remapping onto
//! the next network is pure bookkeeping:
//!
//! 1. arcs whose endpoint keys **persist** keep their basis state;
//! 2. **departed** arcs vanish with their nodes — nothing to do;
//! 3. **new** arcs enter nonbasic at their lower bound;
//! 4. the surviving tree arcs are *repaired* into a spanning tree: a
//!    union–find pass keeps every surviving tree arc that connects two
//!    components (demoting the rest to their lower bound), then hangs every
//!    still-disconnected node off the artificial root — a bounded
//!    `O(m α(n))` repair instead of a cold crash-basis Phase 1.
//!
//! This is the one warm start of [`crate::simplex::NetworkSimplexBackend`]:
//! a repeated solve of one network is a remap whose keys all survive.  The
//! remapped basis is then re-primed (bound snap, conservation re-solve,
//! fresh potentials); if the old basis is infeasible under the new
//! capacities the solver falls back to a crash basis, so **correctness
//! never depends on the remap** — it only decides how many pivots the
//! solve needs.

use crate::fasthash::FastMap;

/// Reserved stable key of the artificial root node (never supplied by
/// callers, nor used for the super-source and super-sink, which the simplex
/// keys with reserved values of its own).
const KEY_ROOT: u64 = u64::MAX;

/// Remembered spanning-tree basis of a previous solve, keyed by stable node
/// identities, plus the machinery to map it onto a structurally different
/// network.
///
/// Owned by a [`crate::simplex::NetworkSimplexBackend`]; one remap per
/// backend, refreshed after every solve of a keyed instance with the basis
/// its pivot loop stopped at.  The struct
/// itself is allocation-reusing: the key map is cleared and refilled, never
/// rebuilt.
///
/// ```
/// use stretch_flow::{BasisRemap, STATE_LOWER, STATE_TREE};
///
/// let mut remap = BasisRemap::default();
/// // Event 1: two nodes (keys 10, 20), the real arc 0→1 basic, plus the
/// // two artificial arcs towards the root (node 2).
/// remap.remember(
///     &[10, 20],
///     &[0, 0, 1],
///     &[1, 2, 2],
///     &[STATE_TREE, STATE_TREE, STATE_LOWER],
/// );
/// // Event 2: node 20 departed, node 30 arrived.  The arc 10→30 is new, so
/// // it enters at its lower bound; the repair pass re-hangs node 1 (key 30)
/// // off the artificial root to restore a spanning tree.
/// let mut states = Vec::new();
/// remap.plan(&[10, 30], &[0, 0, 1], &[1, 2, 2], 2, 1, &mut states);
/// assert_eq!(states[0], STATE_LOWER); // 10→30 is a new arc
/// assert_eq!(states[2], STATE_TREE); // node 30 hung off the root
/// ```
#[derive(Debug, Default)]
pub struct BasisRemap {
    /// Arc state of the remembered basis under the endpoint key pair.
    ///
    /// Only **non-default** states are stored: an arc missing from the map
    /// is at its lower bound (the overwhelming majority on transportation
    /// optima), and artificial root arcs are omitted entirely — the repair
    /// pass re-hangs disconnected nodes off the root regardless, so
    /// remembering root arcs buys nothing.  This keeps the map at O(tree +
    /// saturated arcs) instead of O(arcs), which matters: the remap runs
    /// once per scheduling event.
    states: FastMap<(u64, u64), i8>,
    /// `true` when a basis has been remembered and not invalidated.
    valid: bool,
    /// Union–find scratch of the tree-repair pass.
    uf: Vec<usize>,
}

impl BasisRemap {
    /// `true` when a previous basis is available for remapping.
    pub fn is_valid(&self) -> bool {
        self.valid
    }

    /// Drops the remembered basis (e.g. after a solve that carried no stable
    /// keys, whose basis therefore cannot be keyed).
    pub fn invalidate(&mut self) {
        self.valid = false;
        self.states.clear();
    }

    /// Remembers the basis of a completed solve: `keys[v]` is the stable key
    /// of node `v`, and `states[a]` the basis state of the arc
    /// `from[a] → to[a]`.  Arc endpoints equal to `keys.len()` denote the
    /// artificial root (which has no caller-supplied key).
    ///
    /// Lower-bound arcs and artificial root arcs are not stored (see the
    /// `states` field docs); a root arc that was basic simply leaves its
    /// node to be re-hung by the repair pass of [`Self::plan`].
    pub fn remember(&mut self, keys: &[u64], from: &[usize], to: &[usize], states: &[i8]) {
        self.states.clear();
        let n = keys.len();
        let key_of = |v: usize| if v < n { keys[v] } else { KEY_ROOT };
        for a in 0..from.len() {
            if states[a] == crate::simplex::STATE_LOWER || to[a] == n || from[a] == n {
                continue;
            }
            self.states
                .insert((key_of(from[a]), key_of(to[a])), states[a]);
        }
        self.valid = true;
    }

    /// Maps the remembered basis onto a new network, writing one state per
    /// arc into `states`: persisting arcs keep their remembered state, new
    /// arcs enter at their lower bound, and the surviving tree arcs are
    /// repaired into a spanning tree over the `n + 1` nodes (artificial root
    /// included) — see the module docs for the exact rules.
    ///
    /// `states` is cleared and refilled; the caller still has to rebuild the
    /// tree arrays and re-prime flows/potentials (and fall back to a crash
    /// basis if the re-priming finds the remapped basis infeasible).
    pub fn plan(
        &mut self,
        keys: &[u64],
        from: &[usize],
        to: &[usize],
        n: usize,
        up_base: usize,
        states: &mut Vec<i8>,
    ) {
        debug_assert!(self.valid, "plan() without a remembered basis");
        debug_assert_eq!(keys.len(), n);
        let key_of = |v: usize| if v < n { keys[v] } else { KEY_ROOT };
        states.clear();
        states.extend((0..from.len()).map(|a| {
            if from[a] == n || to[a] == n {
                // Artificial arcs are never remembered; the repair pass
                // promotes them as needed.
                return crate::simplex::STATE_LOWER;
            }
            *self
                .states
                .get(&(key_of(from[a]), key_of(to[a])))
                .unwrap_or(&crate::simplex::STATE_LOWER)
        }));
        repair_spanning_tree(&mut self.uf, from, to, n, up_base, states);
    }
}

/// Repairs a candidate tree-arc set into a spanning tree over nodes
/// `0..=n` (node `n` is the artificial root): surviving tree arcs are kept
/// in arc order whenever they connect two components and demoted to their
/// lower bound otherwise, then every node still disconnected from the root
/// is hung off its artificial up arc.
///
/// `up_base` is the index of the first artificial `v → root` arc (node
/// order), following the simplex backend's arc layout.
pub(crate) fn repair_spanning_tree(
    uf: &mut Vec<usize>,
    from: &[usize],
    to: &[usize],
    n: usize,
    up_base: usize,
    states: &mut [i8],
) {
    uf.clear();
    uf.extend(0..=n);
    fn find(uf: &mut [usize], mut x: usize) -> usize {
        while uf[x] != x {
            uf[x] = uf[uf[x]]; // path halving
            x = uf[x];
        }
        x
    }
    let num_arcs = from.len();
    for a in 0..num_arcs {
        if states[a] != crate::simplex::STATE_TREE {
            continue;
        }
        let (ra, rb) = (find(uf, from[a]), find(uf, to[a]));
        if ra == rb {
            states[a] = crate::simplex::STATE_LOWER;
        } else {
            uf[ra] = rb;
        }
    }
    for v in 0..n {
        let (rv, rr) = (find(uf, v), find(uf, n));
        if rv != rr {
            let arc = up_base + v;
            debug_assert_eq!((from[arc], to[arc]), (v, n), "root-arc layout");
            states[arc] = crate::simplex::STATE_TREE;
            uf[rv] = rr;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simplex::{STATE_LOWER, STATE_TREE, STATE_UPPER};

    #[test]
    fn persisting_arcs_keep_their_state_and_new_arcs_enter_nonbasic() {
        let mut remap = BasisRemap::default();
        // Previous solve: nodes keyed 100, 200, root arcs at the tail.
        // Arcs: 0→1 (tree), 0→root, 1→root (tree).
        remap.remember(
            &[100, 200],
            &[0, 0, 1],
            &[1, 2, 2],
            &[STATE_TREE, STATE_LOWER, STATE_TREE],
        );
        // New solve: node 200 survives as index 0, new node 300 at index 1.
        // Arcs: 0→1 (new), 0→root, 1→root (the root is node 2).
        let mut states = Vec::new();
        remap.plan(&[200, 300], &[0, 0, 1], &[1, 2, 2], 2, 1, &mut states);
        assert_eq!(states[0], STATE_LOWER, "new arc enters at lower bound");
        assert_eq!(states[1], STATE_TREE, "200→root survived as a tree arc");
        assert_eq!(states[2], STATE_TREE, "disconnected node hung off root");
    }

    #[test]
    fn cycle_forming_survivors_are_demoted() {
        let mut uf = Vec::new();
        // Triangle 0-1-2 all marked tree + root arcs: the third triangle arc
        // closes a cycle and must be demoted; the component then connects to
        // the root through one artificial arc.
        let from = [0, 1, 2, 0, 1, 2];
        let to = [1, 2, 0, 3, 3, 3];
        let mut states = [
            STATE_TREE,
            STATE_TREE,
            STATE_TREE,
            STATE_LOWER,
            STATE_LOWER,
            STATE_LOWER,
        ];
        repair_spanning_tree(&mut uf, &from, &to, 3, 3, &mut states);
        assert_eq!(states[2], STATE_LOWER, "cycle-closing arc demoted");
        let tree_count = states.iter().filter(|&&s| s == STATE_TREE).count();
        assert_eq!(tree_count, 3, "spanning tree over 4 nodes has 3 arcs");
    }

    #[test]
    fn upper_bound_states_survive_the_remap() {
        // Nodes keyed 7 and 8; arcs: 0→1 at its upper bound, then the two
        // artificial arcs (root is node 2), both basic.
        let mut remap = BasisRemap::default();
        remap.remember(
            &[7, 8],
            &[0, 0, 1],
            &[1, 2, 2],
            &[STATE_UPPER, STATE_TREE, STATE_TREE],
        );
        let mut states = Vec::new();
        remap.plan(&[7, 8], &[0, 0, 1], &[1, 2, 2], 2, 1, &mut states);
        assert_eq!(states[0], STATE_UPPER);
        assert_eq!(states[1], STATE_TREE);
        assert_eq!(states[2], STATE_TREE);
    }

    #[test]
    fn invalidation_forgets_the_basis() {
        let mut remap = BasisRemap::default();
        remap.remember(&[1], &[0], &[1], &[STATE_TREE]);
        assert!(remap.is_valid());
        remap.invalidate();
        assert!(!remap.is_valid());
    }
}
