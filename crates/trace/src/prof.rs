//! Scoped wall-clock profiling: the host-time complement to the
//! virtual-time event layer.
//!
//! Where [`crate::Tracer`] answers "what did the *simulation* do,
//! when", this module answers "where did the *host CPU* go" — which is
//! what the `make fig13 fast` kernel work is judged against. The
//! design goals, in order:
//!
//! 1. **Zero cost when compiled out.** Without the `prof` cargo
//!    feature every function here is an empty inline stub and a
//!    [`scope`] guard is a zero-sized type; instrumented hot loops
//!    compile to exactly the code they had before.
//! 2. **Near-zero cost when runtime-disabled.** With the feature on
//!    but [`set_enabled`]`(false)` (the default), a [`scope`] call is
//!    one relaxed atomic load.
//! 3. **Low overhead when on.** One thread-local lookup, a linear
//!    child scan over a handful of siblings, and two `Instant::now()`
//!    calls per scope. Scopes are meant for *kernels* (a full lidar
//!    sweep, one particle's scan match), not per-beam inner loops.
//!
//! ## Model
//!
//! Each thread owns a call-path tree: entering `scope("slam/raycast")`
//! finds-or-creates the child of the current node named
//! `slam/raycast`, making call paths like
//! `fig13;mission/cycle;slam/scan_match;slam/particle_score` the unit
//! of attribution. Guards are RAII: dropping the guard pops the stack
//! and folds the elapsed wall time into the node (count, total,
//! min/max). *Self* time is derived, not stored: a node's total minus
//! its children's totals.
//!
//! Worker threads spawned by the `ParallelExecutor` harvest their
//! local trees with [`take_thread`] and the fork-join caller grafts
//! them under its own current scope with [`absorb`] — so a parallel
//! scan match is attributed to the call path that forked it, and the
//! merged tree's *shape* is deterministic (values are wall-clock and
//! are not).
//!
//! ## Naming convention
//!
//! `subsystem/kernel`, lowercase, `_`-separated words: `sim/raycast`,
//! `slam/scan_match`, `net/switcher`, `net/channel_tick`, `fleet/round`,
//! `mission/cycle`. Scenario roots use the bare scenario name
//! (`fig13`). Semicolons are reserved (folded-stack separator) and are
//! replaced with `_` on export.
//!
//! See `docs/OBSERVABILITY.md` § "Wall-clock profiling" for the JSON
//! schema built on top of this module and the flamegraph workflow.

use std::fmt::Write as _;

/// A portable, mergeable call-path profile: what [`take_thread`]
/// returns and what exports/reports consume. Plain data — available
/// with or without the `prof` feature, so report tooling always
/// compiles.
///
/// Node 0 is a synthetic root (empty name, no timing); real scopes
/// hang beneath it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileTree {
    nodes: Vec<ProfNode>,
}

/// One call-path node of a [`ProfileTree`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfNode {
    /// Scope name (one path segment, e.g. `slam/scan_match`).
    pub name: String,
    /// Parent index (0 for top-level scopes; the root points at itself).
    pub parent: usize,
    /// Child indices, in first-seen order.
    pub children: Vec<usize>,
    /// Number of times the scope was entered.
    pub count: u64,
    /// Total wall time spent inside, nanoseconds (includes children).
    pub total_ns: u64,
    /// Shortest single visit, nanoseconds.
    pub min_ns: u64,
    /// Longest single visit, nanoseconds.
    pub max_ns: u64,
}

impl Default for ProfileTree {
    fn default() -> Self {
        ProfileTree::new()
    }
}

impl ProfileTree {
    /// An empty tree (just the synthetic root).
    pub fn new() -> Self {
        ProfileTree {
            nodes: vec![ProfNode {
                name: String::new(),
                parent: 0,
                children: Vec::new(),
                count: 0,
                total_ns: 0,
                min_ns: 0,
                max_ns: 0,
            }],
        }
    }

    /// All nodes, root first. Index into this with the ids returned by
    /// [`ProfileTree::children_sorted`] and [`ProfNode::children`].
    pub fn nodes(&self) -> &[ProfNode] {
        &self.nodes
    }

    /// Whether the tree holds any real scope.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() == 1
    }

    /// `node`'s children sorted by name — the canonical (deterministic)
    /// visiting order for exports and reports.
    pub fn children_sorted(&self, node: usize) -> Vec<usize> {
        let mut c = self.nodes[node].children.clone();
        c.sort_by(|&a, &b| self.nodes[a].name.cmp(&self.nodes[b].name));
        c
    }

    /// Wall time spent in `node` itself, excluding child scopes
    /// (saturating: clock jitter can make children sum past the
    /// parent by a few nanoseconds).
    pub fn self_ns(&self, node: usize) -> u64 {
        let children: u64 = self.nodes[node]
            .children
            .iter()
            .map(|&c| self.nodes[c].total_ns)
            .sum();
        self.nodes[node].total_ns.saturating_sub(children)
    }

    /// Summed total time of the top-level scopes — the profiled share
    /// of whatever wall-clock interval the tree covers.
    pub fn profiled_ns(&self) -> u64 {
        self.nodes[0]
            .children
            .iter()
            .map(|&c| self.nodes[c].total_ns)
            .sum()
    }

    /// Find-or-create the child of `parent` named `name`.
    fn child(&mut self, parent: usize, name: &str) -> usize {
        if let Some(&c) = self.nodes[parent]
            .children
            .iter()
            .find(|&&c| self.nodes[c].name == name)
        {
            return c;
        }
        let idx = self.nodes.len();
        self.nodes.push(ProfNode {
            name: name.to_string(),
            parent,
            children: Vec::new(),
            count: 0,
            total_ns: 0,
            min_ns: 0,
            max_ns: 0,
        });
        self.nodes[parent].children.push(idx);
        idx
    }

    fn fold_visit(&mut self, node: usize, count: u64, total_ns: u64, min_ns: u64, max_ns: u64) {
        let n = &mut self.nodes[node];
        if n.count == 0 {
            n.min_ns = min_ns;
            n.max_ns = max_ns;
        } else {
            n.min_ns = n.min_ns.min(min_ns);
            n.max_ns = n.max_ns.max(max_ns);
        }
        n.count += count;
        n.total_ns += total_ns;
    }

    /// Merge `other` into `self`: same-path nodes combine their stats
    /// (counts/totals add, min/max widen), new paths are created. The
    /// resulting *shape* depends only on the set of paths, not on the
    /// merge order — the cross-worker determinism the suite relies on.
    pub fn merge(&mut self, other: &ProfileTree) {
        self.graft(0, other, 0);
    }

    /// Merge `other`'s top-level scopes as children of `at` — how a
    /// fork-join caller adopts its workers' trees under the scope that
    /// spawned them.
    pub fn merge_at(&mut self, at: usize, other: &ProfileTree) {
        assert!(at < self.nodes.len(), "merge_at: node out of range");
        self.graft(at, other, 0);
    }

    fn graft(&mut self, dst: usize, src_tree: &ProfileTree, src: usize) {
        for &sc in &src_tree.nodes[src].children {
            let s = &src_tree.nodes[sc];
            let dc = self.child(dst, &s.name);
            self.fold_visit(dc, s.count, s.total_ns, s.min_ns, s.max_ns);
            self.graft(dc, src_tree, sc);
        }
    }

    /// The `;`-joined call path of `node` (empty for the root).
    pub fn path(&self, node: usize) -> String {
        let mut segs: Vec<&str> = Vec::new();
        let mut n = node;
        while n != 0 {
            segs.push(&self.nodes[n].name);
            n = self.nodes[n].parent;
        }
        segs.reverse();
        segs.join(";")
    }

    /// Visit every node below `under` (0, the root, for the whole
    /// tree) depth-first in canonical (name-sorted) order, yielding
    /// `(node, depth)` — depth 1 for `under`'s children.
    pub fn walk(&self, under: usize) -> Vec<(usize, usize)> {
        let mut out = Vec::with_capacity(self.nodes.len() - 1);
        let mut stack: Vec<(usize, usize)> = self
            .children_sorted(under)
            .into_iter()
            .rev()
            .map(|c| (c, 1))
            .collect();
        while let Some((n, d)) = stack.pop() {
            out.push((n, d));
            for c in self.children_sorted(n).into_iter().rev() {
                stack.push((c, d + 1));
            }
        }
        out
    }

    /// Folded-stack export (flamegraph-compatible): one
    /// `seg;seg;seg <self_ns>` line per node, in canonical order.
    /// Every node is emitted, including zero-self interior nodes, so
    /// [`ProfileTree::from_folded`] round-trips the full shape. Pipe
    /// through `flamegraph.pl` to render (self time in ns plays the
    /// role of sample counts).
    pub fn to_folded(&self) -> String {
        let mut out = String::new();
        for (n, _) in self.walk(0) {
            let path = self.path(n).replace(' ', "_");
            let _ = writeln!(out, "{} {}", path, self.self_ns(n));
        }
        out
    }

    /// Parse a folded-stack dump back into a tree. Totals are
    /// reconstructed bottom-up (a node's total = its self value + its
    /// children's totals); counts are unknown in the format and read
    /// back as 1 per mentioned path. `to_folded ∘ from_folded` is the
    /// identity on folded text (up to count/min/max, which folded does
    /// not carry).
    pub fn from_folded(text: &str) -> Result<ProfileTree, String> {
        let mut tree = ProfileTree::new();
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let (path, value) = line
                .rsplit_once(' ')
                .ok_or_else(|| format!("line {}: no value field", i + 1))?;
            let self_ns: u64 = value
                .parse()
                .map_err(|_| format!("line {}: bad value {value:?}", i + 1))?;
            let mut node = 0usize;
            for seg in path.split(';') {
                if seg.is_empty() {
                    return Err(format!("line {}: empty path segment", i + 1));
                }
                node = tree.child(node, seg);
            }
            tree.nodes[node].count = 1;
            // Stash self time in total_ns; promoted to true totals below.
            tree.nodes[node].total_ns += self_ns;
        }
        // Bottom-up: children were always created after their parent,
        // so a reverse index walk sees every child before its parent.
        for n in (1..tree.nodes.len()).rev() {
            let total = tree.nodes[n].total_ns;
            tree.nodes[n].min_ns = total;
            tree.nodes[n].max_ns = total;
            let p = tree.nodes[n].parent;
            if p != 0 {
                tree.nodes[p].total_ns += total;
            }
        }
        Ok(tree)
    }
}

#[cfg(feature = "prof")]
mod imp {
    use super::ProfileTree;
    use std::cell::RefCell;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::Instant;

    static ENABLED: AtomicBool = AtomicBool::new(false);

    struct ThreadProfiler {
        tree: ProfileTree,
        /// Open scopes: (node index, entry instant).
        stack: Vec<(usize, Instant)>,
    }

    thread_local! {
        static PROFILER: RefCell<ThreadProfiler> = RefCell::new(ThreadProfiler {
            tree: ProfileTree::new(),
            stack: Vec::new(),
        });
    }

    /// Turn collection on/off process-wide (off at startup). Existing
    /// open scopes keep their entry decision: a guard records iff
    /// profiling was enabled when it was created.
    pub fn set_enabled(on: bool) {
        ENABLED.store(on, Ordering::Relaxed);
    }

    /// Whether collection is currently on.
    pub fn is_enabled() -> bool {
        ENABLED.load(Ordering::Relaxed)
    }

    /// Whether the profiler is compiled in at all (`prof` feature).
    pub fn is_available() -> bool {
        true
    }

    /// RAII wall-clock scope. Created by [`scope`]; records on drop.
    #[must_use = "a profiling scope measures until dropped"]
    pub struct ScopeGuard {
        /// Whether this guard actually pushed a frame (profiling was
        /// enabled at entry) — drop must pop exactly what entry pushed
        /// even if the enable flag flips mid-scope.
        active: bool,
    }

    /// Enter the scope `name` as a child of the thread's current
    /// scope. No-op (one atomic load) when disabled.
    pub fn scope(name: &'static str) -> ScopeGuard {
        if !is_enabled() {
            return ScopeGuard { active: false };
        }
        PROFILER.with(|p| {
            let mut p = p.borrow_mut();
            let parent = p.stack.last().map_or(0, |&(n, _)| n);
            let node = p.tree.child(parent, name);
            p.stack.push((node, Instant::now()));
        });
        ScopeGuard { active: true }
    }

    impl Drop for ScopeGuard {
        fn drop(&mut self) {
            if !self.active {
                return;
            }
            PROFILER.with(|p| {
                let mut p = p.borrow_mut();
                if let Some((node, entered)) = p.stack.pop() {
                    let dt = entered.elapsed().as_nanos() as u64;
                    p.tree.fold_visit(node, 1, dt, dt, dt);
                }
            });
        }
    }

    /// Drain this thread's profile, leaving it empty. Open scopes (the
    /// guards still alive on the stack) survive the drain and will
    /// record into the fresh tree — but for well-attributed results,
    /// harvest at points where this thread has no open scopes.
    pub fn take_thread() -> ProfileTree {
        PROFILER.with(|p| {
            let mut p = p.borrow_mut();
            let tree = std::mem::take(&mut p.tree);
            // Re-anchor surviving open scopes at the fresh root: their
            // nodes belong to the drained tree.
            for frame in p.stack.iter_mut() {
                frame.0 = 0;
            }
            let n = p.stack.len();
            let mut stack_path: Vec<usize> = Vec::with_capacity(n);
            for i in 0..n {
                let parent = stack_path.last().copied().unwrap_or(0);
                // The drained tree no longer names these frames; open
                // frames re-enter as anonymous "(open)" nodes so their
                // residual time is not silently lost.
                let node = p.tree.child(parent, "(open)");
                stack_path.push(node);
                p.stack[i].0 = node;
            }
            tree
        })
    }

    /// Graft `tree`'s top-level scopes under this thread's current
    /// scope — the fork-join caller's side of worker harvesting.
    pub fn absorb(tree: &ProfileTree) {
        if tree.is_empty() || !is_enabled() {
            return;
        }
        PROFILER.with(|p| {
            let mut p = p.borrow_mut();
            let at = p.stack.last().map_or(0, |&(n, _)| n);
            p.tree.merge_at(at, tree);
        });
    }
}

#[cfg(not(feature = "prof"))]
mod imp {
    use super::ProfileTree;

    /// No-op: the profiler is compiled out (`prof` feature off).
    #[inline(always)]
    pub fn set_enabled(_on: bool) {}

    /// Always `false` without the `prof` feature.
    #[inline(always)]
    pub fn is_enabled() -> bool {
        false
    }

    /// Whether the profiler is compiled in at all (`prof` feature).
    #[inline(always)]
    pub fn is_available() -> bool {
        false
    }

    /// Zero-sized stand-in for the RAII scope guard.
    #[must_use = "a profiling scope measures until dropped"]
    pub struct ScopeGuard;

    /// No-op: compiles to nothing.
    #[inline(always)]
    pub fn scope(_name: &'static str) -> ScopeGuard {
        ScopeGuard
    }

    /// Always returns an empty tree without the `prof` feature.
    #[inline(always)]
    pub fn take_thread() -> ProfileTree {
        ProfileTree::new()
    }

    /// No-op: compiles to nothing.
    #[inline(always)]
    pub fn absorb(_tree: &ProfileTree) {}
}

pub use imp::{absorb, is_available, is_enabled, scope, set_enabled, take_thread, ScopeGuard};

#[cfg(test)]
mod tests {
    use super::*;

    /// Build a tree by hand: paths with (count, total).
    fn tree_of(paths: &[(&str, u64, u64)]) -> ProfileTree {
        let mut t = ProfileTree::new();
        for &(path, count, total) in paths {
            let mut node = 0;
            for seg in path.split(';') {
                node = t.child(node, seg);
            }
            t.fold_visit(node, count, total, total, total);
        }
        t
    }

    #[test]
    fn self_time_subtracts_children() {
        let t = tree_of(&[("a", 1, 100), ("a;b", 2, 30), ("a;c", 1, 50)]);
        let a = t.nodes()[0].children[0];
        assert_eq!(t.nodes()[a].total_ns, 100);
        assert_eq!(t.self_ns(a), 20);
        assert_eq!(t.profiled_ns(), 100);
        // A leaf's self time is its total.
        let b = t.nodes()[a].children[0];
        assert_eq!(t.self_ns(b), 30);
    }

    #[test]
    fn self_time_saturates_on_jitter() {
        // Children can sum past the parent by clock jitter.
        let t = tree_of(&[("a", 1, 100), ("a;b", 1, 120)]);
        let a = t.nodes()[0].children[0];
        assert_eq!(t.self_ns(a), 0);
    }

    #[test]
    fn merge_is_shape_deterministic_regardless_of_order() {
        let w1 = tree_of(&[("score", 3, 300), ("score;raycast", 3, 120)]);
        let w2 = tree_of(&[("integrate", 2, 80), ("score", 1, 90)]);
        let w3 = tree_of(&[("score;raycast", 5, 500)]);

        let mut ab = ProfileTree::new();
        ab.merge(&w1);
        ab.merge(&w2);
        ab.merge(&w3);
        let mut ba = ProfileTree::new();
        ba.merge(&w3);
        ba.merge(&w2);
        ba.merge(&w1);

        // Canonical folded output is identical either way (values too:
        // they are sums, and sums commute).
        assert_eq!(ab.to_folded(), ba.to_folded());
        // And the aggregates add up.
        let score = ab.children_sorted(0)[1];
        assert_eq!(ab.nodes()[score].name, "score");
        assert_eq!(ab.nodes()[score].count, 4);
        assert_eq!(ab.nodes()[score].total_ns, 390);
        let raycast = ab.nodes()[score].children[0];
        assert_eq!(ab.nodes()[raycast].count, 8);
        assert_eq!(ab.nodes()[raycast].total_ns, 620);
    }

    #[test]
    fn merge_at_grafts_under_the_given_node() {
        let mut t = tree_of(&[("job", 1, 1000)]);
        let job = t.nodes()[0].children[0];
        let worker = tree_of(&[("score", 4, 400)]);
        t.merge_at(job, &worker);
        assert_eq!(t.path(t.nodes()[job].children[0]), "job;score");
        assert_eq!(t.self_ns(job), 600);
    }

    #[test]
    fn min_max_widen_on_merge() {
        let mut t = tree_of(&[("a", 1, 10)]);
        t.merge(&tree_of(&[("a", 1, 50)]));
        let a = t.nodes()[0].children[0];
        assert_eq!(t.nodes()[a].min_ns, 10);
        assert_eq!(t.nodes()[a].max_ns, 50);
        assert_eq!(t.nodes()[a].count, 2);
    }

    #[test]
    fn folded_round_trips() {
        let t = tree_of(&[
            ("fig13", 1, 1000),
            ("fig13;mission/cycle", 10, 900),
            ("fig13;mission/cycle;slam/scan_match", 10, 600),
            ("fig13;mission/cycle;sim/raycast", 10, 200),
            ("aaa_first", 2, 5),
        ]);
        let folded = t.to_folded();
        let parsed = ProfileTree::from_folded(&folded).expect("parses");
        assert_eq!(parsed.to_folded(), folded, "folded text is a fixed point");
        // Totals are reconstructed bottom-up.
        let fig13 = parsed
            .children_sorted(0)
            .into_iter()
            .find(|&n| parsed.nodes()[n].name == "fig13")
            .unwrap();
        assert_eq!(parsed.nodes()[fig13].total_ns, 1000);
    }

    #[test]
    fn folded_output_is_name_sorted_and_counts_self() {
        let t = tree_of(&[("b", 1, 10), ("a", 1, 20), ("a;z", 1, 5)]);
        let folded = t.to_folded();
        let lines: Vec<&str> = folded.lines().collect();
        assert_eq!(lines, vec!["a 15", "a;z 5", "b 10"]);
    }

    #[test]
    fn from_folded_rejects_garbage() {
        assert!(ProfileTree::from_folded("no_value_here").is_err());
        assert!(ProfileTree::from_folded("a;;b 10").is_err());
        assert!(ProfileTree::from_folded("a notanumber").is_err());
        assert!(ProfileTree::from_folded("").unwrap().is_empty());
    }

    #[test]
    fn walk_is_depth_first_canonical() {
        let t = tree_of(&[("b", 1, 1), ("a", 1, 2), ("a;y", 1, 1), ("a;x", 1, 1)]);
        let names: Vec<(String, usize)> = t
            .walk(0)
            .into_iter()
            .map(|(n, d)| (t.nodes()[n].name.clone(), d))
            .collect();
        assert_eq!(
            names,
            vec![
                ("a".to_string(), 1),
                ("x".to_string(), 2),
                ("y".to_string(), 2),
                ("b".to_string(), 1),
            ]
        );
    }

    // Live-collection tests only exist when the profiler is compiled
    // in; `cargo test --workspace` enables it via lgv-bench's default
    // features.
    #[cfg(feature = "prof")]
    mod live {
        use super::super::*;

        /// Serialize live-profiler tests: they share the process-wide
        /// enable flag and the test harness runs threads in parallel.
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

        fn with_profiler<R>(f: impl FnOnce() -> R) -> R {
            let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
            let _ = take_thread();
            set_enabled(true);
            let r = f();
            set_enabled(false);
            let _ = take_thread();
            r
        }

        #[test]
        fn scopes_nest_and_account_self_vs_total() {
            let tree = with_profiler(|| {
                {
                    let _a = scope("a");
                    std::hint::black_box((0..1000).sum::<u64>());
                    {
                        let _b = scope("b");
                        std::hint::black_box((0..1000).sum::<u64>());
                    }
                    {
                        let _b = scope("b");
                    }
                    let _c = scope("c");
                }
                take_thread()
            });
            let a = tree.children_sorted(0)[0];
            assert_eq!(tree.nodes()[a].name, "a");
            assert_eq!(tree.nodes()[a].count, 1);
            let kids = tree.children_sorted(a);
            assert_eq!(kids.len(), 2, "b and c under a");
            let b = kids[0];
            assert_eq!(tree.nodes()[b].name, "b");
            assert_eq!(tree.nodes()[b].count, 2, "same-name scopes aggregate");
            assert!(tree.nodes()[b].min_ns <= tree.nodes()[b].max_ns);
            // total(a) >= total(b) + total(c); self = the difference.
            let c = kids[1];
            let child_total = tree.nodes()[b].total_ns + tree.nodes()[c].total_ns;
            assert!(tree.nodes()[a].total_ns >= child_total);
            assert_eq!(
                tree.self_ns(a),
                tree.nodes()[a].total_ns - child_total,
                "self is total minus children"
            );
        }

        #[test]
        fn disabled_collection_records_nothing() {
            let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
            let _ = take_thread();
            set_enabled(false);
            {
                let _s = scope("ghost");
            }
            assert!(take_thread().is_empty());
        }

        #[test]
        fn absorb_attaches_under_current_scope() {
            let tree = with_profiler(|| {
                let worker = {
                    let _s = scope("kernel");
                    drop(_s);
                    take_thread()
                };
                {
                    let _job = scope("job");
                    absorb(&worker);
                }
                take_thread()
            });
            let job = tree.children_sorted(0)[0];
            assert_eq!(tree.nodes()[job].name, "job");
            let kernel = tree.nodes()[job].children[0];
            assert_eq!(tree.path(kernel), "job;kernel");
            assert_eq!(tree.nodes()[kernel].count, 1);
        }

        #[test]
        fn worker_threads_have_independent_trees() {
            let (a, b) = with_profiler(|| {
                let h = std::thread::spawn(|| {
                    let _s = scope("worker_only");
                    drop(_s);
                    take_thread()
                });
                {
                    let _s = scope("main_only");
                }
                (take_thread(), h.join().unwrap())
            });
            assert_eq!(a.nodes()[a.children_sorted(0)[0]].name, "main_only");
            assert_eq!(b.nodes()[b.children_sorted(0)[0]].name, "worker_only");
        }
    }
}
