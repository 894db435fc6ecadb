//! Discrete-event network simulation of collective operations.
//!
//! The analytic α-β formulas in [`crate::collective`] are closed forms;
//! this module cross-validates them with a first-principles discrete-event
//! simulation: every chunk transfer is an explicit operation with data
//! dependencies, scheduled onto per-GPU egress/ingress lanes of finite
//! bandwidth. The DES captures effects the closed forms average away —
//! head-of-line blocking, dependency stalls between reduction phases,
//! lane contention — and the test suite asserts the two models agree
//! within a small factor (they do, which is the justification for using
//! the cheap closed forms in the step simulator).
//!
//! # Engine design (the million-sweep core)
//!
//! The sweep driver evaluates tens of thousands of (model × world ×
//! scheme × bits × topology) cells per run, so the hot loop is built for
//! throughput:
//!
//! * **Integer-nanosecond time.** Event times are `u64` nanoseconds, so
//!   scheduling is branch-cheap integer math with no `partial_cmp`
//!   panics and bit-reproducible results across hosts. All time
//!   arithmetic saturates at `u64::MAX` rather than overflowing.
//! * **Calendar-queue event wheel.** Pending completions live in a
//!   power-of-two ring of time buckets (`Wheel`); push is O(1), pop
//!   scans one bucket (sized so the expected occupancy is a handful of
//!   events) — O(1) amortized vs `O(log n)` heap churn. Far-future
//!   events park in an overflow list drained once per lap.
//! * **Arena op graphs.** [`OpGraph`] stores ops column-wise with CSR
//!   dependency edges — no per-op `Vec` allocations — and is reused
//!   across builds via [`OpGraph::clear`]. Dependencies may only point
//!   at earlier ops, so graphs are acyclic by construction.
//! * **Per-lane FIFO.** Each rank owns one egress and one ingress lane
//!   (`free_at` timestamps); ops claim lanes in deterministic schedule
//!   order (completion time, then op index), which is exactly a FIFO
//!   queue per lane without materializing one.
//! * **Heterogeneous fabric.** [`Fabric`] carries per-rank egress and
//!   ingress bandwidth, per-rank release offsets (compute stragglers),
//!   a node map with shared per-node uplink/downlink lanes and a
//!   separate inter-node α, and seeded multiplicative jitter.
//!
//! The previous `f64`-time `BinaryHeap` core is kept verbatim in a
//! test-only `legacy` module as a validation oracle: the pinned-seed
//! corpus test proves the new core produces *identical* makespans, and an
//! ignored release test holds the wheel to 10x its events/sec.

/// Errors surfaced by the DES public API.
///
/// Every malformed input that used to `panic!`/`expect` in the old core
/// (non-finite times, bad ranks, self-sends, dangling deps, cycles) is
/// reported through this enum instead; no panic is reachable from safe
/// inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimError {
    /// A fabric parameter is structurally invalid (zero ranks,
    /// non-positive bandwidth, jitter amplitude outside `[0, 1)`, ...).
    InvalidFabric(&'static str),
    /// A floating-point input was NaN/infinite or negative where a
    /// finite non-negative value is required.
    NonFinite(&'static str),
    /// An op references a rank outside the fabric.
    BadRank {
        /// Offending op index.
        op: usize,
        /// The out-of-range rank.
        rank: usize,
        /// Fabric size.
        ranks: usize,
    },
    /// A dependency index does not point at an earlier op.
    DepOutOfRange {
        /// Offending op index (`usize::MAX` when raised at push time,
        /// i.e. for the op currently being appended).
        op: usize,
        /// The offending dependency index.
        dep: usize,
    },
    /// The graph was mutated after (or never) [`OpGraph::seal`]ed.
    Unsealed,
    /// Not every op completed — a dependency cycle (impossible for
    /// graphs built through [`OpGraph::push`], which only accepts
    /// backward edges; kept as a defensive check).
    Cycle {
        /// Ops that did complete.
        completed: usize,
        /// Total ops in the graph.
        total: usize,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::InvalidFabric(what) => write!(f, "invalid fabric: {what}"),
            SimError::NonFinite(what) => write!(f, "non-finite or negative input: {what}"),
            SimError::BadRank { op, rank, ranks } => {
                write!(f, "op {op}: rank {rank} out of range (fabric has {ranks})")
            }
            SimError::DepOutOfRange { op, dep } => {
                write!(
                    f,
                    "op {op}: dependency {dep} does not point at an earlier op"
                )
            }
            SimError::Unsealed => write!(f, "op graph must be sealed before running"),
            SimError::Cycle { completed, total } => {
                write!(
                    f,
                    "dependency cycle: only {completed}/{total} ops completed"
                )
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Converts seconds to integer nanoseconds, rejecting NaN/∞/negatives.
fn sec_to_ns(seconds: f64, what: &'static str) -> Result<u64, SimError> {
    if !seconds.is_finite() || seconds < 0.0 {
        return Err(SimError::NonFinite(what));
    }
    Ok(f64_to_ns(seconds * 1e9))
}

/// Saturating f64→u64 nanosecond conversion (round to nearest).
#[inline]
fn f64_to_ns(ns: f64) -> u64 {
    if ns.is_nan() || ns <= 0.0 {
        0
    } else if ns >= u64::MAX as f64 {
        u64::MAX
    } else {
        ns.round() as u64
    }
}

// ---------------------------------------------------------------------------
// Op graph: flat columnar arena with CSR dependency edges.
// ---------------------------------------------------------------------------

/// A dependency graph of simulation operations, stored column-wise.
///
/// Three op kinds share one encoding:
///
/// * **transfer** (`src != dst`): moves `frac * ref_bytes` bytes (plus a
///   fixed `fixed_ns` floor) from `src`'s egress lane to `dst`'s ingress
///   lane; pays α in flight.
/// * **compute** (`src == dst`, `fixed_ns > 0`): occupies both of the
///   rank's lanes for `fixed_ns`; no α.
/// * **join** (`src == dst`, `frac == 0`, `fixed_ns == 0`): a zero-cost
///   aggregation point that completes the instant its last dependency
///   does — it exists so an op fanning in from `k` producers costs one
///   edge per producer once, not `k` edges per consumer (the dense
///   phase-2 encoding of a 512-rank scatter-reduce-allgather needs 133M
///   edges; with joins it needs 524k).
///
/// Dependencies are validated at push time and may only reference
/// earlier ops, making every graph acyclic by construction. Call
/// [`OpGraph::seal`] after the last push (builders do this for you);
/// [`run`] refuses unsealed graphs.
#[derive(Debug, Clone, Default)]
pub struct OpGraph {
    srcs: Vec<u32>,
    dsts: Vec<u32>,
    fracs: Vec<f32>,
    fixed: Vec<u32>,
    dep_off: Vec<u32>,
    deps: Vec<u32>,
    // Reverse CSR (who depends on me), built by `seal`.
    rdep_off: Vec<u32>,
    rdeps: Vec<u32>,
    indegree: Vec<u32>,
    sealed: bool,
    max_rank: u32,
    frac_sum: f64,
    fixed_sum: u64,
}

impl OpGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        let mut g = OpGraph::default();
        g.dep_off.push(0);
        g
    }

    /// Creates an empty graph with capacity for `ops` operations and
    /// `edges` dependency edges.
    pub fn with_capacity(ops: usize, edges: usize) -> Self {
        let mut g = OpGraph {
            srcs: Vec::with_capacity(ops),
            dsts: Vec::with_capacity(ops),
            fracs: Vec::with_capacity(ops),
            fixed: Vec::with_capacity(ops),
            dep_off: Vec::with_capacity(ops + 1),
            deps: Vec::with_capacity(edges),
            ..OpGraph::default()
        };
        g.dep_off.push(0);
        g
    }

    /// Number of ops.
    pub fn len(&self) -> usize {
        self.srcs.len()
    }

    /// True when no ops have been pushed.
    pub fn is_empty(&self) -> bool {
        self.srcs.is_empty()
    }

    /// Resets to empty, keeping every allocation for reuse.
    pub fn clear(&mut self) {
        self.srcs.clear();
        self.dsts.clear();
        self.fracs.clear();
        self.fixed.clear();
        self.dep_off.clear();
        self.dep_off.push(0);
        self.deps.clear();
        self.rdep_off.clear();
        self.rdeps.clear();
        self.indegree.clear();
        self.sealed = false;
        self.max_rank = 0;
        self.frac_sum = 0.0;
        self.fixed_sum = 0;
    }

    /// Appends an op; the workhorse behind the typed push helpers.
    ///
    /// `frac` is the payload as a fraction of the `ref_bytes` passed to
    /// [`run`] (so one sealed graph prices any payload size);
    /// `fixed_ns` is an unconditional duration floor. Returns the new
    /// op's index. Dependencies must point at already-pushed ops.
    pub fn push(
        &mut self,
        src: usize,
        dst: usize,
        frac: f64,
        fixed_ns: u32,
        deps: &[u32],
    ) -> Result<u32, SimError> {
        let op = self.srcs.len();
        if src > u32::MAX as usize || dst > u32::MAX as usize {
            return Err(SimError::BadRank {
                op,
                rank: src.max(dst),
                ranks: u32::MAX as usize,
            });
        }
        if !frac.is_finite() || frac < 0.0 {
            return Err(SimError::NonFinite("op frac"));
        }
        for &d in deps {
            if d as usize >= op {
                return Err(SimError::DepOutOfRange {
                    op: usize::MAX,
                    dep: d as usize,
                });
            }
        }
        self.srcs.push(src as u32);
        self.dsts.push(dst as u32);
        self.fracs.push(frac as f32);
        self.fixed.push(fixed_ns);
        self.deps.extend_from_slice(deps);
        self.dep_off.push(self.deps.len() as u32);
        self.max_rank = self.max_rank.max(src as u32).max(dst as u32);
        self.frac_sum += frac;
        self.fixed_sum = self.fixed_sum.saturating_add(fixed_ns as u64);
        self.sealed = false;
        Ok(op as u32)
    }

    /// Appends a point-to-point transfer of `frac * ref_bytes` bytes.
    pub fn push_transfer(
        &mut self,
        src: usize,
        dst: usize,
        frac: f64,
        deps: &[u32],
    ) -> Result<u32, SimError> {
        if src == dst {
            return Err(SimError::BadRank {
                op: self.srcs.len(),
                rank: src,
                ranks: src, // self-send: reported as the degenerate rank
            });
        }
        self.push(src, dst, frac, 0, deps)
    }

    /// Appends a zero-cost join on `rank` (completes with its last dep).
    pub(crate) fn push_join(&mut self, rank: usize, deps: &[u32]) -> Result<u32, SimError> {
        self.push(rank, rank, 0.0, 0, deps)
    }

    /// Appends a compute occupancy of `fixed_ns` on `rank`'s lanes.
    pub fn push_compute(
        &mut self,
        rank: usize,
        fixed_ns: u32,
        deps: &[u32],
    ) -> Result<u32, SimError> {
        self.push(rank, rank, 0.0, fixed_ns, deps)
    }

    /// Builds the reverse dependency CSR and indegrees; must be called
    /// after the last push and before [`run`].
    pub fn seal(&mut self) {
        let n = self.len();
        self.indegree.clear();
        self.indegree.resize(n, 0);
        self.rdep_off.clear();
        self.rdep_off.resize(n + 1, 0);
        for i in 0..n {
            let (a, b) = (self.dep_off[i] as usize, self.dep_off[i + 1] as usize);
            self.indegree[i] = (b - a) as u32;
            for &d in &self.deps[a..b] {
                self.rdep_off[d as usize + 1] += 1;
            }
        }
        for i in 0..n {
            self.rdep_off[i + 1] += self.rdep_off[i];
        }
        self.rdeps.clear();
        self.rdeps.resize(self.deps.len(), 0);
        // Fill per-dep cursor; iterating ops in order keeps each rdep
        // list ascending, which the scheduler relies on for determinism.
        let mut cursor: Vec<u32> = self.rdep_off[..n].to_vec();
        for i in 0..n {
            let (a, b) = (self.dep_off[i] as usize, self.dep_off[i + 1] as usize);
            for &d in &self.deps[a..b] {
                let c = &mut cursor[d as usize];
                self.rdeps[*c as usize] = i as u32;
                *c += 1;
            }
        }
        self.sealed = true;
    }

    #[inline]
    fn rdeps_of(&self, op: usize) -> &[u32] {
        &self.rdeps[self.rdep_off[op] as usize..self.rdep_off[op + 1] as usize]
    }
}

// ---------------------------------------------------------------------------
// Fabric: heterogeneous bandwidth, nodes, stragglers, jitter.
// ---------------------------------------------------------------------------

/// The simulated fabric: per-rank lane bandwidths, per-rank release
/// offsets, an optional node map with shared inter-node lanes, and
/// seeded jitter.
///
/// Build one with [`Fabric::uniform`] and specialize it with the
/// setters; [`run`] validates the whole fabric and returns
/// [`SimError`] on anything malformed (no panics).
#[derive(Debug, Clone)]
pub struct Fabric {
    egress_bw: Vec<f64>,
    ingress_bw: Vec<f64>,
    release_ns: Vec<u64>,
    node_of: Vec<u32>,
    n_nodes: usize,
    inter_bw: f64,
    alpha_ns: u64,
    inter_alpha_ns: u64,
    jitter_seed: u64,
    jitter_amp: f64,
}

impl Fabric {
    /// A flat single-node fabric: `ranks` ranks, every lane `lane_bw`
    /// bytes/s, per-transfer latency `alpha` seconds.
    pub fn uniform(ranks: usize, lane_bw: f64, alpha: f64) -> Result<Self, SimError> {
        if ranks == 0 {
            return Err(SimError::InvalidFabric("need at least one rank"));
        }
        if !lane_bw.is_finite() || lane_bw <= 0.0 {
            return Err(SimError::InvalidFabric("lane bandwidth must be positive"));
        }
        let alpha_ns = sec_to_ns(alpha, "alpha")?;
        Ok(Fabric {
            egress_bw: vec![lane_bw; ranks],
            ingress_bw: vec![lane_bw; ranks],
            release_ns: vec![0; ranks],
            node_of: Vec::new(),
            n_nodes: 1,
            inter_bw: lane_bw,
            alpha_ns,
            inter_alpha_ns: alpha_ns,
            jitter_seed: 0,
            jitter_amp: 0.0,
        })
    }

    /// Number of ranks.
    pub fn ranks(&self) -> usize {
        self.egress_bw.len()
    }

    /// Scales one rank's lanes by `factor` (straggler modelling).
    pub fn scale_rank_bandwidth(&mut self, rank: usize, factor: f64) -> Result<(), SimError> {
        let ranks = self.ranks();
        if rank >= ranks {
            return Err(SimError::BadRank { op: 0, rank, ranks });
        }
        self.egress_bw[rank] *= factor;
        self.ingress_bw[rank] *= factor;
        Ok(())
    }

    /// Delays every op touching `rank`'s lanes until `seconds` — a
    /// compute straggler that releases its gradient late.
    pub fn set_release(&mut self, rank: usize, seconds: f64) -> Result<(), SimError> {
        let ranks = self.ranks();
        if rank >= ranks {
            return Err(SimError::BadRank { op: 0, rank, ranks });
        }
        self.release_ns[rank] = sec_to_ns(seconds, "release")?;
        Ok(())
    }

    /// Groups ranks into nodes of `gpus_per_node` consecutive ranks.
    /// Cross-node transfers are capped at `inter_bw` bytes/s, pay
    /// `inter_alpha` seconds instead of the intra α, and serialize on
    /// their node's shared uplink (source side) and downlink
    /// (destination side) — which is what makes hierarchical schemes
    /// beat flat ones on slow interconnects.
    pub(crate) fn set_nodes(
        &mut self,
        gpus_per_node: usize,
        inter_bw: f64,
        inter_alpha: f64,
    ) -> Result<(), SimError> {
        if gpus_per_node == 0 {
            return Err(SimError::InvalidFabric("gpus_per_node must be positive"));
        }
        if !inter_bw.is_finite() || inter_bw <= 0.0 {
            return Err(SimError::InvalidFabric("inter bandwidth must be positive"));
        }
        let ranks = self.ranks();
        self.node_of = (0..ranks).map(|r| (r / gpus_per_node) as u32).collect();
        self.n_nodes = ranks.div_ceil(gpus_per_node);
        self.inter_bw = inter_bw;
        self.inter_alpha_ns = sec_to_ns(inter_alpha, "inter_alpha")?;
        Ok(())
    }

    /// Seeded multiplicative jitter: every op's duration is scaled by a
    /// deterministic pseudo-random factor in `[1-amp, 1+amp]`.
    /// `amp` must lie in `[0, 1)`.
    pub fn set_jitter(&mut self, seed: u64, amp: f64) -> Result<(), SimError> {
        if !amp.is_finite() || !(0.0..1.0).contains(&amp) {
            return Err(SimError::InvalidFabric(
                "jitter amplitude must be in [0, 1)",
            ));
        }
        self.jitter_seed = seed;
        self.jitter_amp = amp;
        Ok(())
    }

    /// Node id of `rank` (0 when the fabric is single-node).
    #[inline]
    fn node(&self, rank: usize) -> u32 {
        if self.node_of.is_empty() {
            0
        } else {
            self.node_of[rank]
        }
    }

    fn validate(&self) -> Result<(), SimError> {
        if self.ranks() == 0 {
            return Err(SimError::InvalidFabric("need at least one rank"));
        }
        for bw in self.egress_bw.iter().chain(self.ingress_bw.iter()) {
            if !bw.is_finite() || *bw <= 0.0 {
                return Err(SimError::InvalidFabric("lane bandwidth must be positive"));
            }
        }
        if !self.inter_bw.is_finite() || self.inter_bw <= 0.0 {
            return Err(SimError::InvalidFabric("inter bandwidth must be positive"));
        }
        if !self.jitter_amp.is_finite() || !(0.0..1.0).contains(&self.jitter_amp) {
            return Err(SimError::InvalidFabric(
                "jitter amplitude must be in [0, 1)",
            ));
        }
        Ok(())
    }
}

/// splitmix64 — the one-instruction-class PRNG behind deterministic
/// per-op jitter.
#[inline]
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

/// Deterministic per-op jitter multiplier in `[1-amp, 1+amp]`.
#[inline]
fn jitter_mult(seed: u64, op: u32, amp: f64) -> f64 {
    let u = splitmix64(seed ^ (op as u64).wrapping_mul(0x2545F4914F6CDD1D));
    let unit = (u >> 11) as f64 / (1u64 << 53) as f64; // [0, 1)
    1.0 + amp * (2.0 * unit - 1.0)
}

// ---------------------------------------------------------------------------
// Calendar-queue event wheel.
// ---------------------------------------------------------------------------

/// Bucketed event wheel: a power-of-two ring of time buckets of fixed
/// `width` ns. `push` appends to the bucket `t / width` maps to (or the
/// overflow list when `t` is beyond one full lap); `pop_min` scans the
/// current bucket for the least `(time, op)` pair, advancing the wheel
/// through empty buckets and draining overflow once per lap. With width
/// matched to the mean event gap, both operations are O(1) amortized.
///
/// Ordering invariant: pushed times never precede the last popped time
/// (completions are scheduled at or after "now"), so an event always
/// lands in the current or a future window and global `(time, op)`
/// order is preserved.
#[derive(Debug, Default)]
struct Wheel {
    buckets: Vec<Vec<(u64, u32)>>,
    mask: usize,
    width: u64,
    cur: usize,
    cur_start: u64,
    len: usize,
    in_buckets: usize,
    overflow: Vec<(u64, u32)>,
}

impl Wheel {
    fn reset(&mut self, nbuckets: usize, width: u64) {
        debug_assert!(nbuckets.is_power_of_two());
        if self.buckets.len() != nbuckets {
            self.buckets.resize_with(nbuckets, Vec::new);
        }
        if self.len != 0 {
            // Only reachable when a prior run aborted mid-flight.
            for b in &mut self.buckets {
                b.clear();
            }
        }
        self.mask = nbuckets - 1;
        self.width = width.max(1);
        self.cur = 0;
        self.cur_start = 0;
        self.len = 0;
        self.in_buckets = 0;
        self.overflow.clear();
    }

    #[inline]
    fn span(&self) -> u64 {
        self.width.saturating_mul(self.buckets.len() as u64)
    }

    #[inline]
    fn push(&mut self, t: u64, op: u32) {
        debug_assert!(t >= self.cur_start, "event pushed into the past");
        self.len += 1;
        if t < self.cur_start.saturating_add(self.span()) {
            let idx = ((t / self.width) as usize) & self.mask;
            self.buckets[idx].push((t, op));
            self.in_buckets += 1;
        } else {
            self.overflow.push((t, op));
        }
    }

    /// Moves every overflow event now within one lap into its bucket.
    fn drain_overflow(&mut self) {
        let limit = self.cur_start.saturating_add(self.span());
        let mut i = 0;
        while i < self.overflow.len() {
            if self.overflow[i].0 < limit {
                let (t, op) = self.overflow.swap_remove(i);
                let idx = ((t / self.width) as usize) & self.mask;
                self.buckets[idx].push((t, op));
                self.in_buckets += 1;
            } else {
                i += 1;
            }
        }
    }

    fn pop_min(&mut self) -> Option<(u64, u32)> {
        if self.len == 0 {
            return None;
        }
        loop {
            if self.in_buckets == 0 {
                // Everything pending is far-future: jump straight to the
                // earliest overflow event's window instead of spinning
                // through empty buckets.
                let min_t = self.overflow.iter().map(|e| e.0).min().expect("len > 0");
                let slot = min_t / self.width;
                self.cur_start = slot * self.width;
                self.cur = (slot as usize) & self.mask;
                self.drain_overflow();
                continue;
            }
            let window_end = self.cur_start.saturating_add(self.width);
            let bucket = &mut self.buckets[self.cur];
            let mut best: Option<usize> = None;
            for (k, &(t, op)) in bucket.iter().enumerate() {
                if t < window_end
                    && best.is_none_or(|b| {
                        let (bt, bop) = bucket[b];
                        (t, op) < (bt, bop)
                    })
                {
                    best = Some(k);
                }
            }
            if let Some(k) = best {
                let ev = bucket.swap_remove(k);
                self.len -= 1;
                self.in_buckets -= 1;
                return Some(ev);
            }
            self.cur = (self.cur + 1) & self.mask;
            self.cur_start = window_end;
            if self.cur == 0 {
                self.drain_overflow();
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Run state and the event loop.
// ---------------------------------------------------------------------------

/// Reusable run-state buffers; allocate once, pass to every [`run`]
/// call in a sweep loop.
#[derive(Debug, Default)]
pub struct DesScratch {
    remaining: Vec<u32>,
    egress_free: Vec<u64>,
    ingress_free: Vec<u64>,
    uplink_free: Vec<u64>,
    downlink_free: Vec<u64>,
    wheel: Wheel,
}

impl DesScratch {
    /// Creates empty scratch; buffers grow on first use and are reused.
    pub fn new() -> Self {
        DesScratch::default()
    }
}

/// What a [`run`] produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunStats {
    /// Completion time of the last op, integer nanoseconds.
    pub makespan_ns: u64,
    /// Events processed (one completion per op).
    pub events: u64,
}

impl RunStats {
    /// Makespan in seconds.
    pub(crate) fn makespan_seconds(&self) -> f64 {
        self.makespan_ns as f64 / 1e9
    }
}

/// Executes `graph` on `fabric` with payloads priced against
/// `ref_bytes`; returns the makespan and event count.
///
/// Scheduling semantics (identical to the legacy heap core): an op is
/// scheduled the instant its last dependency completes; it claims its
/// lanes (source egress, destination ingress, plus the node uplink /
/// downlink pair when crossing nodes) at `start = max(ready, lane
/// frees)`, holds them for the
/// op duration, and completes α later (α rides in flight — it does not
/// serialize lanes). Completions are processed in `(time, op index)`
/// order; dependents of one completion are scheduled in index order.
/// Time saturates at `u64::MAX` instead of overflowing.
pub fn run(
    graph: &OpGraph,
    fabric: &Fabric,
    ref_bytes: f64,
    scratch: &mut DesScratch,
) -> Result<RunStats, SimError> {
    run_inner(graph, fabric, ref_bytes, scratch, None)
}

fn run_inner(
    graph: &OpGraph,
    fabric: &Fabric,
    ref_bytes: f64,
    scratch: &mut DesScratch,
    mut times: Option<&mut Vec<u64>>,
) -> Result<RunStats, SimError> {
    fabric.validate()?;
    if !graph.sealed {
        return Err(SimError::Unsealed);
    }
    if !ref_bytes.is_finite() || ref_bytes < 0.0 {
        return Err(SimError::NonFinite("ref_bytes"));
    }
    let n = graph.len();
    let ranks = fabric.ranks();
    if n > 0 && graph.max_rank as usize >= ranks {
        let bad = graph.max_rank as usize;
        let op = (0..n)
            .find(|&i| graph.srcs[i] as usize == bad || graph.dsts[i] as usize == bad)
            .unwrap_or(0);
        return Err(SimError::BadRank {
            op,
            rank: bad,
            ranks,
        });
    }
    if let Some(t) = times.as_deref_mut() {
        t.clear();
        t.resize(n, 0);
    }
    if n == 0 {
        return Ok(RunStats {
            makespan_ns: 0,
            events: 0,
        });
    }

    // --- reset scratch -----------------------------------------------------
    scratch.remaining.clear();
    scratch.remaining.extend_from_slice(&graph.indegree);
    scratch.egress_free.clear();
    scratch.egress_free.extend_from_slice(&fabric.release_ns);
    scratch.ingress_free.clear();
    scratch.ingress_free.extend_from_slice(&fabric.release_ns);
    scratch.uplink_free.clear();
    scratch.uplink_free.resize(fabric.n_nodes, 0);
    scratch.downlink_free.clear();
    scratch.downlink_free.resize(fabric.n_nodes, 0);

    // Wheel width ≈ estimated makespan / op count (the mean event gap);
    // one lap of the wheel covers ~2x the estimate so mis-estimates
    // only cost overflow drains, never correctness. The estimate uses
    // the *bottleneck* per-rank bandwidth: on a multi-node fabric most
    // chunks cross the shared uplinks — underestimating the makespan by
    // orders of magnitude
    // would make the wheel lap (and rescan its overflow list) that many
    // times.
    let avg_bw = fabric.egress_bw.iter().sum::<f64>() / ranks as f64;
    let eff_bw = if fabric.n_nodes > 1 {
        avg_bw.min(fabric.inter_bw * fabric.n_nodes as f64 / ranks as f64)
    } else {
        avg_bw
    };
    let est_ns = graph.frac_sum * ref_bytes / (eff_bw * ranks as f64) * 1e9
        + graph.fixed_sum as f64 / ranks as f64
        + fabric.alpha_ns as f64
        + fabric.inter_alpha_ns as f64;
    let nbuckets = (n / 4).next_power_of_two().clamp(16, 65_536);
    let width = f64_to_ns(2.0 * est_ns / nbuckets as f64).max(1);
    scratch.wheel.reset(nbuckets, width);

    let mut completed: usize = 0;
    let mut makespan: u64 = 0;

    macro_rules! schedule {
        ($op:expr, $ready:expr) => {{
            let op = $op as usize;
            let ready: u64 = $ready;
            let src = graph.srcs[op] as usize;
            let dst = graph.dsts[op] as usize;
            let frac = graph.fracs[op] as f64;
            let fixed = graph.fixed[op] as u64;
            if src == dst && frac == 0.0 && fixed == 0 {
                // Join: completes the instant it is ready.
                scratch.wheel.push(ready, op as u32);
            } else if src == dst {
                // Compute: occupies the rank's lanes for
                // `fixed` ns; no α.
                let dur = if fabric.jitter_amp > 0.0 {
                    f64_to_ns(
                        fixed as f64
                            * jitter_mult(fabric.jitter_seed, op as u32, fabric.jitter_amp),
                    )
                } else {
                    fixed
                };
                let start = ready
                    .max(scratch.egress_free[src])
                    .max(scratch.ingress_free[src]);
                let busy = start.saturating_add(dur);
                scratch.egress_free[src] = busy;
                scratch.ingress_free[src] = busy;
                scratch.wheel.push(busy, op as u32);
            } else {
                let bytes = frac * ref_bytes;
                let src_node = fabric.node(src);
                let dst_node = fabric.node(dst);
                let cross = src_node != dst_node;
                let mut rate = fabric.egress_bw[src].min(fabric.ingress_bw[dst]);
                if cross {
                    rate = rate.min(fabric.inter_bw);
                }
                let jit = if fabric.jitter_amp > 0.0 {
                    jitter_mult(fabric.jitter_seed, op as u32, fabric.jitter_amp)
                } else {
                    1.0
                };
                let lane_ns = f64_to_ns(bytes / rate * 1e9 * jit).saturating_add(fixed);
                let mut start = ready
                    .max(scratch.egress_free[src])
                    .max(scratch.ingress_free[dst]);
                if cross {
                    start = start
                        .max(scratch.uplink_free[src_node as usize])
                        .max(scratch.downlink_free[dst_node as usize]);
                }
                let lane_busy = start.saturating_add(lane_ns);
                scratch.egress_free[src] = lane_busy;
                scratch.ingress_free[dst] = lane_busy;
                if cross {
                    scratch.uplink_free[src_node as usize] = lane_busy;
                    scratch.downlink_free[dst_node as usize] = lane_busy;
                }
                let end = lane_busy;
                let alpha = if cross {
                    fabric.inter_alpha_ns
                } else {
                    fabric.alpha_ns
                };
                scratch.wheel.push(end.saturating_add(alpha), op as u32);
            }
        }};
    }

    // Roots are ready at t=0, scheduled in index order (exactly the
    // legacy core's sorted initial ready list).
    for i in 0..n {
        if scratch.remaining[i] == 0 {
            schedule!(i as u32, 0);
        }
    }
    while let Some((t, op)) = scratch.wheel.pop_min() {
        if let Some(out) = times.as_deref_mut() {
            out[op as usize] = t;
        }
        makespan = makespan.max(t);
        completed += 1;
        // rdep lists are ascending, so dependents of one completion are
        // scheduled in index order — the legacy core's sorted ready set.
        for &d in graph.rdeps_of(op as usize) {
            let r = &mut scratch.remaining[d as usize];
            *r -= 1;
            if *r == 0 {
                schedule!(d, t);
            }
        }
    }
    if completed != n {
        return Err(SimError::Cycle {
            completed,
            total: n,
        });
    }
    Ok(RunStats {
        makespan_ns: makespan,
        events: n as u64,
    })
}

// ---------------------------------------------------------------------------
// Streaming graph builders (reuse a caller-provided graph; no per-op Vecs).
// ---------------------------------------------------------------------------

fn check_ranks(ranks: usize) -> Result<(), SimError> {
    if ranks == 0 {
        return Err(SimError::InvalidFabric("need at least one rank"));
    }
    Ok(())
}

/// Index of the phase-1 SRA op `src → dst` (src-major push order).
#[inline]
fn sra_p1(ranks: usize, src: usize, dst: usize) -> u32 {
    (src * (ranks - 1) + if dst < src { dst } else { dst - 1 }) as u32
}

/// Builds a scatter-reduce-allgather allreduce of `ref_bytes` wire
/// bytes into `g` (cleared first, sealed after): every rank scatters
/// `1/n` chunks, a join per destination aggregates its inbox, and the
/// allgather fans back out from the join. `2n(n-1)` transfers, `n`
/// joins, `O(n²)` edges — the dense encoding's `O(n³)` edge blow-up is
/// what made 512-rank sweeps impossible.
pub fn build_sra(g: &mut OpGraph, ranks: usize) -> Result<(), SimError> {
    check_ranks(ranks)?;
    g.clear();
    let n = ranks;
    if n == 1 {
        g.seal();
        return Ok(());
    }
    let frac = 1.0 / n as f64;
    for i in 0..n {
        for j in 0..n {
            if j != i {
                g.push_transfer(i, j, frac, &[])?;
            }
        }
    }
    let mut deps: Vec<u32> = Vec::with_capacity(n - 1);
    let join0 = (n * (n - 1)) as u32;
    for j in 0..n {
        deps.clear();
        for i in 0..n {
            if i != j {
                deps.push(sra_p1(n, i, j));
            }
        }
        g.push_join(j, &deps)?;
    }
    for j in 0..n {
        for k in 0..n {
            if k != j {
                g.push_transfer(j, k, frac, &[join0 + j as u32])?;
            }
        }
    }
    g.seal();
    Ok(())
}

/// Builds a chunked ring allreduce into `g`: `2(n-1)` rounds, each rank
/// forwarding a `1/n` chunk to its right neighbour, gated on its
/// previous-round receive. Identical structure to the legacy builder.
pub fn build_ring(g: &mut OpGraph, ranks: usize) -> Result<(), SimError> {
    check_ranks(ranks)?;
    g.clear();
    let n = ranks;
    if n == 1 {
        g.seal();
        return Ok(());
    }
    let frac = 1.0 / n as f64;
    for s in 0..2 * (n - 1) {
        for i in 0..n {
            // Rank i's round-(s-1) receive is the op sent by its left
            // neighbour in round s-1 (round-major, src-order push).
            if s == 0 {
                g.push_transfer(i, (i + 1) % n, frac, &[])?;
            } else {
                let dep = ((s - 1) * n + (i + n - 1) % n) as u32;
                g.push_transfer(i, (i + 1) % n, frac, &[dep])?;
            }
        }
    }
    g.seal();
    Ok(())
}

/// Builds a binomial-tree allreduce (reduce to rank 0, then broadcast)
/// into `g`: `2⌈log₂n⌉` levels of full-payload (`frac = 1`) hops, each
/// hop gated on both endpoints' previous activity.
pub fn build_tree(g: &mut OpGraph, ranks: usize) -> Result<(), SimError> {
    check_ranks(ranks)?;
    g.clear();
    let n = ranks;
    if n == 1 {
        g.seal();
        return Ok(());
    }
    let mut last: Vec<Option<u32>> = vec![None; n];
    let mut deps: Vec<u32> = Vec::with_capacity(2);
    let hop = |g: &mut OpGraph,
               last: &mut Vec<Option<u32>>,
               deps: &mut Vec<u32>,
               src: usize,
               dst: usize|
     -> Result<(), SimError> {
        deps.clear();
        if let Some(p) = last[src] {
            deps.push(p);
        }
        if let Some(p) = last[dst] {
            if deps.first() != Some(&p) {
                deps.push(p);
            }
        }
        let op = g.push_transfer(src, dst, 1.0, deps)?;
        last[src] = Some(op);
        last[dst] = Some(op);
        Ok(())
    };
    let mut d = 1;
    while d < n {
        let mut r = 0;
        while r + d < n {
            hop(g, &mut last, &mut deps, r + d, r)?; // reduce: child → parent
            r += 2 * d;
        }
        d *= 2;
    }
    while d >= 1 {
        let mut r = 0;
        while r + d < n {
            hop(g, &mut last, &mut deps, r, r + d)?; // broadcast: parent → child
            r += 2 * d;
        }
        d /= 2;
    }
    g.seal();
    Ok(())
}

/// Builds the node-aware hierarchical reduction of
/// `cgx_collectives::hierarchy` into `g`: members stage
/// raw gradients (`frac = 1`) to their node leader, leaders run a
/// scatter-reduce-allgather among themselves with per-chunk
/// `inter_frac / nodes` payload (`inter_frac` is the compressed-wire
/// fraction of `ref_bytes`, e.g. `1/7.5` for 4-bit QSGD), and leaders
/// broadcast the raw result back. With `Fabric::set_nodes` in place
/// the leader phase automatically rides the shared inter-node lanes.
pub fn build_hierarchical(
    g: &mut OpGraph,
    nodes: usize,
    per_node: usize,
    inter_frac: f64,
) -> Result<(), SimError> {
    check_ranks(nodes)?;
    check_ranks(per_node)?;
    if !inter_frac.is_finite() || inter_frac < 0.0 {
        return Err(SimError::NonFinite("inter_frac"));
    }
    g.clear();
    let world = nodes * per_node;
    if world == 1 {
        g.seal();
        return Ok(());
    }
    let leader = |m: usize| m * per_node;
    // Stage 1: members push raw gradients to their leader.
    for m in 0..nodes {
        for k in 1..per_node {
            g.push_transfer(leader(m) + k, leader(m), 1.0, &[])?;
        }
    }
    // Per-leader join over its members (index formula: m-major push).
    let s1 = |m: usize, k: usize| (m * (per_node - 1) + (k - 1)) as u32;
    let stage1_join = (nodes * (per_node - 1)) as u32;
    let mut deps: Vec<u32> = Vec::with_capacity(nodes.max(per_node));
    for m in 0..nodes {
        deps.clear();
        for k in 1..per_node {
            deps.push(s1(m, k));
        }
        g.push_join(leader(m), &deps)?;
    }
    // Stage 2: compressed SRA among leaders.
    let done_join_of: u32;
    if nodes > 1 {
        let frac = inter_frac / nodes as f64;
        let p1_base = stage1_join + nodes as u32;
        for a in 0..nodes {
            for b in 0..nodes {
                if b != a {
                    g.push_transfer(leader(a), leader(b), frac, &[stage1_join + a as u32])?;
                }
            }
        }
        // Per-leader join over its SRA inbox, then allgather, then a
        // final per-leader join marking "result complete".
        let p1 = |a: usize, b: usize| p1_base + sra_p1(nodes, a, b);
        let sra_join = p1_base + (nodes * (nodes - 1)) as u32;
        for b in 0..nodes {
            deps.clear();
            for a in 0..nodes {
                if a != b {
                    deps.push(p1(a, b));
                }
            }
            g.push_join(leader(b), &deps)?;
        }
        let p2_base = sra_join + nodes as u32;
        for a in 0..nodes {
            for b in 0..nodes {
                if b != a {
                    g.push_transfer(leader(a), leader(b), frac, &[sra_join + a as u32])?;
                }
            }
        }
        let p2 = |a: usize, b: usize| p2_base + sra_p1(nodes, a, b);
        done_join_of = p2_base + (nodes * (nodes - 1)) as u32;
        for b in 0..nodes {
            deps.clear();
            deps.push(sra_join + b as u32); // own reduced chunk
            for a in 0..nodes {
                if a != b {
                    deps.push(p2(a, b));
                }
            }
            g.push_join(leader(b), &deps)?;
        }
    } else {
        done_join_of = stage1_join;
    }
    // Stage 3: leaders broadcast the raw result to their members.
    for m in 0..nodes {
        for k in 1..per_node {
            g.push_transfer(leader(m), leader(m) + k, 1.0, &[done_join_of + m as u32])?;
        }
    }
    g.seal();
    Ok(())
}

// ---------------------------------------------------------------------------
// Compatibility façade.
// ---------------------------------------------------------------------------

/// Reusable graph + scratch bundle for sweep loops over the graph
/// builders and [`run`]; one per sweep thread avoids all per-call
/// allocation.
#[derive(Debug, Default)]
pub struct SimWorkspace {
    /// The op graph the next build fills (reused across builds).
    pub graph: OpGraph,
    /// Run-state buffers (reused across runs).
    pub scratch: DesScratch,
}

impl SimWorkspace {
    /// Creates an empty workspace.
    pub fn new() -> Self {
        SimWorkspace::default()
    }
}

/// The simulated network: `n` ranks, each with one egress and one
/// ingress lane of the given bandwidth, plus a per-transfer latency α.
///
/// Convenience façade over [`Fabric`] + the graph builders + [`run`];
/// use those directly for heterogeneous fabrics or sweep loops.
#[derive(Debug, Clone, Copy)]
pub struct NetworkDes {
    /// Number of ranks.
    pub ranks: usize,
    /// Per-lane bandwidth, bytes/s.
    pub(crate) lane_bw: f64,
    /// Per-transfer latency, seconds.
    pub alpha: f64,
}

impl NetworkDes {
    /// Creates a network.
    ///
    /// # Panics
    ///
    /// Panics on zero ranks or non-positive bandwidth (programmer
    /// error); runtime-sourced parameters flow through
    /// [`Fabric::uniform`], which returns [`SimError`] instead.
    pub fn new(ranks: usize, lane_bw: f64, alpha: f64) -> Self {
        assert!(ranks > 0, "need at least one rank");
        assert!(lane_bw > 0.0, "bandwidth must be positive");
        assert!(alpha >= 0.0, "alpha must be non-negative");
        NetworkDes {
            ranks,
            lane_bw,
            alpha,
        }
    }

    fn fabric(&self) -> Result<Fabric, SimError> {
        Fabric::uniform(self.ranks, self.lane_bw, self.alpha)
    }

    /// The makespan in seconds of the graph `build` makes for this
    /// network's ranks, moving `total_bytes` (wire).
    fn simulate(
        &self,
        build: fn(&mut OpGraph, usize) -> Result<(), SimError>,
        total_bytes: f64,
    ) -> Result<f64, SimError> {
        let mut g = OpGraph::new();
        build(&mut g, self.ranks)?;
        let stats = run(&g, &self.fabric()?, total_bytes, &mut DesScratch::new())?;
        Ok(stats.makespan_seconds())
    }

    /// Simulates a scatter-reduce-allgather allreduce of `total_bytes`
    /// (wire); returns the makespan in seconds.
    pub fn sra_allreduce(&self, total_bytes: f64) -> Result<f64, SimError> {
        self.simulate(build_sra, total_bytes)
    }

    /// Simulates a chunked ring allreduce of `total_bytes` (wire);
    /// returns the makespan in seconds.
    pub fn ring_allreduce(&self, total_bytes: f64) -> Result<f64, SimError> {
        self.simulate(build_ring, total_bytes)
    }
}

/// The pre-rewrite `f64`-time `BinaryHeap` DES core, preserved verbatim
/// as a validation oracle and performance baseline. The pinned-seed
/// corpus test proves the wheel core reproduces its makespans exactly;
/// `wheel_outruns_legacy_tenfold_at_512_ranks` measures the speedup.
#[cfg(test)]
#[allow(dead_code)] // kept verbatim: no test calls its two allreduce wrappers
mod legacy {
    use std::cmp::Ordering;
    use std::collections::BinaryHeap;

    /// One point-to-point transfer operation in the dependency graph.
    #[derive(Debug, Clone)]
    pub struct SendOp {
        /// Source rank (occupies its egress lane).
        pub src: usize,
        /// Destination rank (occupies its ingress lane).
        pub dst: usize,
        /// Payload bytes.
        pub bytes: f64,
        /// Indices of operations that must complete before this one may start.
        pub deps: Vec<usize>,
    }

    impl SendOp {
        /// Creates a transfer with no dependencies.
        pub fn new(src: usize, dst: usize, bytes: f64) -> Self {
            SendOp {
                src,
                dst,
                bytes,
                deps: Vec::new(),
            }
        }

        /// Adds dependencies.
        pub fn after(mut self, deps: impl IntoIterator<Item = usize>) -> Self {
            self.deps.extend(deps);
            self
        }
    }

    /// The simulated network: `n` ranks, each with one egress and one ingress
    /// lane of the given bandwidth, plus a per-transfer latency α.
    #[derive(Debug, Clone, Copy)]
    pub struct NetworkDes {
        /// Number of ranks.
        pub ranks: usize,
        /// Per-lane bandwidth, bytes/s.
        pub lane_bw: f64,
        /// Per-transfer latency, seconds.
        pub alpha: f64,
    }

    #[derive(Debug, PartialEq)]
    struct Completion {
        time: f64,
        op: usize,
    }

    impl Eq for Completion {}

    impl Ord for Completion {
        fn cmp(&self, other: &Self) -> Ordering {
            // Min-heap on time (ties by op index for determinism).
            other
                .time
                .partial_cmp(&self.time)
                .expect("finite times")
                .then(other.op.cmp(&self.op))
        }
    }

    impl PartialOrd for Completion {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }

    /// Builds the legacy dense scatter-reduce-allgather op list:
    /// phase 2 depends on every phase-1 op addressed to its source —
    /// `O(n³)` dependency edges.
    pub fn sra_ops(ranks: usize, chunk: f64) -> Vec<SendOp> {
        let n = ranks;
        let mut ops = Vec::new();
        let mut phase1_of_dst: Vec<Vec<usize>> = vec![Vec::new(); n];
        for i in 0..n {
            for (j, inbox) in phase1_of_dst.iter_mut().enumerate() {
                if j == i {
                    continue;
                }
                inbox.push(ops.len());
                ops.push(SendOp::new(i, j, chunk));
            }
        }
        for (j, inbox) in phase1_of_dst.iter().enumerate() {
            for k in 0..n {
                if k == j {
                    continue;
                }
                ops.push(SendOp::new(j, k, chunk).after(inbox.iter().copied()));
            }
        }
        ops
    }

    /// Builds the legacy chunked-ring op list.
    pub fn ring_ops(ranks: usize, chunk: f64) -> Vec<SendOp> {
        let n = ranks;
        let mut ops: Vec<SendOp> = Vec::new();
        let mut prev_recv_op: Vec<Option<usize>> = vec![None; n];
        for _s in 0..2 * (n - 1) {
            let mut this_round: Vec<Option<usize>> = vec![None; n];
            for (i, prev) in prev_recv_op.iter().enumerate() {
                let right = (i + 1) % n;
                let mut op = SendOp::new(i, right, chunk);
                if let Some(p) = prev {
                    op = op.after([*p]);
                }
                this_round[right] = Some(ops.len());
                ops.push(op);
            }
            prev_recv_op = this_round;
        }
        ops
    }

    impl NetworkDes {
        /// Creates a network.
        pub fn new(ranks: usize, lane_bw: f64, alpha: f64) -> Self {
            assert!(ranks > 0, "need at least one rank");
            assert!(lane_bw > 0.0, "bandwidth must be positive");
            assert!(alpha >= 0.0, "alpha must be non-negative");
            NetworkDes {
                ranks,
                lane_bw,
                alpha,
            }
        }

        /// Executes the operation graph; returns per-op completion times and
        /// the makespan.
        pub fn run(&self, ops: &[SendOp]) -> (Vec<f64>, f64) {
            for (i, op) in ops.iter().enumerate() {
                assert!(
                    op.src < self.ranks && op.dst < self.ranks,
                    "op {i}: bad rank"
                );
                assert!(op.src != op.dst, "op {i}: self-send");
            }
            let n_ops = ops.len();
            let mut remaining_deps: Vec<usize> = ops.iter().map(|o| o.deps.len()).collect();
            let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); n_ops];
            for (i, op) in ops.iter().enumerate() {
                for &d in &op.deps {
                    assert!(d < n_ops, "op {i}: dependency {d} out of range");
                    dependents[d].push(i);
                }
            }
            let mut egress_free = vec![0.0f64; self.ranks];
            let mut ingress_free = vec![0.0f64; self.ranks];
            let mut ready_at = vec![f64::INFINITY; n_ops];
            let mut done_at = vec![f64::NEG_INFINITY; n_ops];
            let mut scheduled = vec![false; n_ops];
            let mut ready: Vec<usize> = Vec::new();
            for (i, r) in remaining_deps.iter().enumerate() {
                if *r == 0 {
                    ready_at[i] = 0.0;
                    ready.push(i);
                }
            }
            let mut heap: BinaryHeap<Completion> = BinaryHeap::new();
            let mut completed = 0usize;
            let mut makespan = 0.0f64;
            loop {
                ready.sort_unstable();
                for &i in &ready {
                    if scheduled[i] {
                        continue;
                    }
                    let op = &ops[i];
                    let start = ready_at[i]
                        .max(egress_free[op.src])
                        .max(ingress_free[op.dst]);
                    // Bandwidth occupies the lanes; latency rides in flight.
                    let lane_busy_until = start + op.bytes / self.lane_bw;
                    let end = lane_busy_until + self.alpha;
                    egress_free[op.src] = lane_busy_until;
                    ingress_free[op.dst] = lane_busy_until;
                    scheduled[i] = true;
                    heap.push(Completion { time: end, op: i });
                }
                ready.clear();
                let Some(Completion { time, op }) = heap.pop() else {
                    break;
                };
                done_at[op] = time;
                makespan = makespan.max(time);
                completed += 1;
                for &d in &dependents[op] {
                    remaining_deps[d] -= 1;
                    if remaining_deps[d] == 0 {
                        ready_at[d] = time;
                        ready.push(d);
                    }
                }
            }
            assert_eq!(completed, n_ops, "dependency cycle: not all ops ran");
            (done_at, makespan)
        }

        /// Dense scatter-reduce-allgather allreduce makespan.
        pub fn sra_allreduce(&self, total_bytes: f64) -> f64 {
            if self.ranks == 1 {
                return 0.0;
            }
            let ops = sra_ops(self.ranks, total_bytes / self.ranks as f64);
            self.run(&ops).1
        }

        /// Chunked ring allreduce makespan.
        pub fn ring_allreduce(&self, total_bytes: f64) -> f64 {
            if self.ranks == 1 {
                return 0.0;
            }
            let ops = ring_ops(self.ranks, total_bytes / self.ranks as f64);
            self.run(&ops).1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collective::{allreduce_time, CommCost, ReductionScheme};
    use std::time::Instant;

    fn uniform(ranks: usize, bw: f64, alpha: f64) -> Fabric {
        Fabric::uniform(ranks, bw, alpha).expect("fabric")
    }

    /// Runs a hand-built graph, returning (per-op times, makespan).
    fn run_graph(g: &OpGraph, f: &Fabric, ref_bytes: f64) -> (Vec<u64>, u64) {
        let mut times = Vec::new();
        let stats =
            run_inner(g, f, ref_bytes, &mut DesScratch::new(), Some(&mut times)).expect("run");
        (times, stats.makespan_ns)
    }

    #[test]
    fn single_transfer_takes_alpha_plus_bytes_over_bw() {
        let mut g = OpGraph::new();
        g.push_transfer(0, 1, 1.0, &[]).unwrap();
        g.seal();
        let (done, makespan) = run_graph(&g, &uniform(2, 1e9, 10e-6), 1e6);
        // 1 MB over 1 GB/s = 1 ms, plus 10 µs of α.
        assert_eq!(done[0], 1_000_000 + 10_000);
        assert_eq!(makespan, done[0]);
    }

    #[test]
    fn same_source_transfers_serialize() {
        let mut g = OpGraph::new();
        g.push_transfer(0, 1, 1.0, &[]).unwrap();
        g.push_transfer(0, 2, 1.0, &[]).unwrap();
        g.seal();
        let (done, _) = run_graph(&g, &uniform(3, 1e9, 0.0), 1e6);
        assert_eq!(done[0], 1_000_000);
        assert_eq!(done[1], 2_000_000, "egress lane must serialize");
    }

    #[test]
    fn different_lanes_run_concurrently() {
        let mut g = OpGraph::new();
        g.push_transfer(0, 1, 1.0, &[]).unwrap();
        g.push_transfer(2, 3, 1.0, &[]).unwrap();
        g.seal();
        let (done, makespan) = run_graph(&g, &uniform(4, 1e9, 0.0), 1e6);
        assert_eq!(done, vec![1_000_000, 1_000_000]);
        assert_eq!(makespan, 1_000_000);
    }

    #[test]
    fn dependencies_are_respected() {
        let mut g = OpGraph::new();
        g.push_transfer(0, 1, 1.0, &[]).unwrap();
        g.push_transfer(2, 3, 1.0, &[0]).unwrap(); // waits despite free lanes
        g.seal();
        let (done, _) = run_graph(&g, &uniform(4, 1e9, 0.0), 1e6);
        assert!(done[1] >= done[0] + 1_000_000);
    }

    #[test]
    fn joins_are_free_and_instant() {
        let mut g = OpGraph::new();
        g.push_transfer(0, 1, 1.0, &[]).unwrap();
        let j = g.push_join(1, &[0]).unwrap();
        g.push_transfer(1, 2, 1.0, &[j]).unwrap();
        g.seal();
        let (done, _) = run_graph(&g, &uniform(3, 1e9, 0.0), 1e6);
        assert_eq!(done[1], done[0], "join completes with its last dep");
        assert_eq!(done[2], done[0] + 1_000_000);
    }

    #[test]
    fn errors_not_panics_on_malformed_inputs() {
        let mut g = OpGraph::new();
        assert!(matches!(
            g.push_transfer(1, 1, 1.0, &[]),
            Err(SimError::BadRank { .. })
        ));
        assert!(matches!(
            g.push_transfer(0, 1, 1.0, &[5]),
            Err(SimError::DepOutOfRange { .. })
        ));
        assert!(matches!(
            g.push_transfer(0, 1, f64::NAN, &[]),
            Err(SimError::NonFinite(_))
        ));
        g.push_transfer(0, 7, 1.0, &[]).unwrap();
        let mut scratch = DesScratch::new();
        // Unsealed graph.
        assert_eq!(
            run(&g, &uniform(8, 1e9, 0.0), 1.0, &mut scratch).unwrap_err(),
            SimError::Unsealed
        );
        g.seal();
        // Rank 7 does not fit a 4-rank fabric.
        assert!(matches!(
            run(&g, &uniform(4, 1e9, 0.0), 1.0, &mut scratch),
            Err(SimError::BadRank {
                rank: 7,
                ranks: 4,
                ..
            })
        ));
        // Non-finite payload.
        assert_eq!(
            run(&g, &uniform(8, 1e9, 0.0), f64::INFINITY, &mut scratch).unwrap_err(),
            SimError::NonFinite("ref_bytes")
        );
        // Malformed fabrics are Err, not panic.
        assert!(Fabric::uniform(0, 1e9, 0.0).is_err());
        assert!(Fabric::uniform(2, f64::NAN, 0.0).is_err());
        assert!(Fabric::uniform(2, 1e9, -1.0).is_err());
        let mut f = uniform(2, 1e9, 0.0);
        assert!(f.set_jitter(1, 1.5).is_err());
        assert!(f.set_nodes(0, 1e9, 0.0).is_err());
        // A NaN smuggled into the public fields surfaces as Err at run.
        let net = NetworkDes {
            ranks: 2,
            lane_bw: f64::NAN,
            alpha: 0.0,
        };
        assert!(net.sra_allreduce(1e6).is_err());
    }

    #[test]
    fn des_sra_matches_analytic_within_factor_two() {
        for n in [2usize, 4, 8] {
            for bytes in [1e6, 100e6] {
                let bw = 2e9;
                let net = NetworkDes::new(n, bw, 10e-6);
                let des = net.sra_allreduce(bytes).unwrap();
                let analytic = allreduce_time(
                    ReductionScheme::ScatterReduceAllgather,
                    n,
                    bytes as usize,
                    CommCost::new(bw, 10e-6),
                );
                let ratio = des / analytic;
                assert!(
                    (0.5..2.0).contains(&ratio),
                    "n={n} bytes={bytes}: DES {des:.4} vs analytic {analytic:.4}"
                );
            }
        }
    }

    #[test]
    fn des_ring_matches_analytic_within_factor_two() {
        for n in [2usize, 4, 8] {
            let bw = 2e9;
            let bytes = 50e6;
            let net = NetworkDes::new(n, bw, 10e-6);
            let des = net.ring_allreduce(bytes).unwrap();
            let analytic = allreduce_time(
                ReductionScheme::Ring,
                n,
                bytes as usize,
                CommCost::new(bw, 10e-6),
            );
            let ratio = des / analytic;
            assert!(
                (0.5..2.0).contains(&ratio),
                "n={n}: DES {des:.4} vs analytic {analytic:.4}"
            );
        }
    }

    #[test]
    fn des_times_scale_linearly_in_bytes() {
        let net = NetworkDes::new(8, 1e9, 0.0);
        let t1 = net.sra_allreduce(10e6).unwrap();
        let t2 = net.sra_allreduce(20e6).unwrap();
        assert!((t2 / t1 - 2.0).abs() < 0.05, "{t1} vs {t2}");
    }

    #[test]
    fn ring_latency_grows_with_ranks_sra_does_not() {
        // The latency-term difference that makes SRA win (Figure 10): at
        // tiny payloads, ring pays 2(n-1) alphas on the critical path.
        let alpha = 1e-3;
        let tiny = 8.0 * 64.0; // 64 bytes/rank
        let sra8 = NetworkDes::new(8, 1e9, alpha).sra_allreduce(tiny).unwrap();
        let ring8 = NetworkDes::new(8, 1e9, alpha).ring_allreduce(tiny).unwrap();
        assert!(
            ring8 > 1.5 * sra8,
            "ring {ring8:.4} should pay far more latency than SRA {sra8:.4}"
        );
    }

    #[test]
    fn single_rank_is_free() {
        let net = NetworkDes::new(1, 1e9, 1e-3);
        assert_eq!(net.sra_allreduce(1e9).unwrap(), 0.0);
        assert_eq!(net.ring_allreduce(1e9).unwrap(), 0.0);
        let mut g = OpGraph::new();
        build_tree(&mut g, 1).unwrap();
        let fabric = Fabric::uniform(1, 1e9, 1e-3).unwrap();
        let stats = run(&g, &fabric, 1e9, &mut DesScratch::new()).unwrap();
        assert_eq!(stats.makespan_seconds(), 0.0);
    }

    /// Dense (join-free) SRA with frac payloads, mirroring the legacy
    /// builder's op order — the quadratic-edge encoding build_sra's
    /// joins replace.
    fn dense_sra_frac(g: &mut OpGraph, n: usize) {
        g.clear();
        let frac = 1.0 / n as f64;
        let mut deps: Vec<u32> = Vec::new();
        for i in 0..n {
            for j in 0..n {
                if j != i {
                    g.push_transfer(i, j, frac, &[]).unwrap();
                }
            }
        }
        for j in 0..n {
            deps.clear();
            for i in 0..n {
                if i != j {
                    deps.push(sra_p1(n, i, j));
                }
            }
            for k in 0..n {
                if k != j {
                    g.push_transfer(j, k, frac, &deps).unwrap();
                }
            }
        }
        g.seal();
    }

    #[test]
    fn join_sra_matches_dense_sra_on_uniform_fabrics() {
        let mut sparse = OpGraph::new();
        let mut dense = OpGraph::new();
        for n in [2usize, 4, 8, 16] {
            for bytes in [4096.0, 1e6, 100e6] {
                build_sra(&mut sparse, n).unwrap();
                dense_sra_frac(&mut dense, n);
                let f = uniform(n, 2e9, 10e-6);
                let a = run_graph(&sparse, &f, bytes).1;
                let b = run_graph(&dense, &f, bytes).1;
                assert_eq!(a, b, "n={n} bytes={bytes}");
            }
        }
    }

    // --- pinned-seed equivalence corpus vs the legacy heap core ----------
    //
    // Durations are fed as exact integers (legacy: bytes at bw=1.0, so
    // its f64 arithmetic is exact integer addition in "nanosecond"
    // units; new core: the fixed_ns field), making makespans comparable
    // bit-for-bit, not just approximately.

    fn corpus_dag(seed: u64, ranks: usize, n_ops: usize) -> Vec<legacy::SendOp> {
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9E3779B97F4A7C15);
            splitmix64(state)
        };
        let mut ops = Vec::with_capacity(n_ops);
        for i in 0..n_ops {
            let src = (next() % ranks as u64) as usize;
            let mut dst = (next() % (ranks as u64 - 1)) as usize;
            if dst >= src {
                dst += 1;
            }
            let dur = 1 + next() % 1_000_000;
            let mut op = legacy::SendOp::new(src, dst, dur as f64);
            if i > 0 {
                for _ in 0..next() % 4 {
                    let d = (next() % i as u64) as usize;
                    if !op.deps.contains(&d) {
                        op.deps.push(d);
                    }
                }
            }
            ops.push(op);
        }
        ops
    }

    fn graph_from_legacy(ops: &[legacy::SendOp]) -> OpGraph {
        let mut g = OpGraph::with_capacity(ops.len(), ops.len());
        let mut deps: Vec<u32> = Vec::new();
        for op in ops {
            deps.clear();
            deps.extend(op.deps.iter().map(|&d| d as u32));
            g.push(op.src, op.dst, 0.0, op.bytes as u32, &deps).unwrap();
        }
        g.seal();
        g
    }

    fn assert_identical(ops: &[legacy::SendOp], ranks: usize, alpha_units: u64, label: &str) {
        let old = legacy::NetworkDes::new(ranks, 1.0, alpha_units as f64);
        let (old_times, old_makespan) = old.run(ops);
        let g = graph_from_legacy(ops);
        let f = uniform(ranks, 1.0, alpha_units as f64 * 1e-9);
        let (new_times, new_makespan) = run_graph(&g, &f, 0.0);
        assert_eq!(old_makespan as u64, new_makespan, "{label}: makespan");
        for (i, (o, n)) in old_times.iter().zip(&new_times).enumerate() {
            assert_eq!(*o as u64, *n, "{label}: op {i} completion");
        }
    }

    #[test]
    fn wheel_matches_legacy_on_pinned_corpus() {
        // Random DAGs across seeds, rank counts, and α values.
        for &seed in &[1u64, 7, 42, 1234, 0xC6C] {
            for &ranks in &[2usize, 3, 5, 8, 16] {
                for &alpha in &[0u64, 500, 123_456] {
                    let ops =
                        corpus_dag(seed.wrapping_mul(31).wrapping_add(ranks as u64), ranks, 200);
                    assert_identical(
                        &ops,
                        ranks,
                        alpha,
                        &format!("dag s{seed} n{ranks} a{alpha}"),
                    );
                }
            }
        }
        // The legacy collective builders themselves (dense SRA, ring).
        for &ranks in &[2usize, 3, 5, 8] {
            let chunk = 777_000.0;
            assert_identical(
                &legacy::sra_ops(ranks, chunk),
                ranks,
                500,
                &format!("sra n{ranks}"),
            );
            assert_identical(
                &legacy::ring_ops(ranks, chunk),
                ranks,
                500,
                &format!("ring n{ranks}"),
            );
        }
    }

    /// The dense 512-rank SRA graph on both cores: the makespans agree
    /// within 1e-4 (integer-ns rounding accumulated over ~1000-deep
    /// chains; bit-exact equivalence is the corpus test's), and the wheel
    /// runs at least 10x the legacy core's events/s, both timed in this
    /// process. Ignored: a debug build takes minutes, so it runs with
    /// `cargo test --release -p cgx-simnet --lib -- --ignored`.
    #[test]
    #[ignore]
    fn wheel_outruns_legacy_tenfold_at_512_ranks() {
        let ranks = 512;
        let bytes = 100e6;
        let (bw, alpha) = (1e9, 5e-6);
        let mut ws = SimWorkspace::new();
        build_sra(&mut ws.graph, ranks).unwrap();
        let fabric = Fabric::uniform(ranks, bw, alpha).unwrap();
        // Warm the allocator and caches once, then time a run.
        run(&ws.graph, &fabric, bytes, &mut ws.scratch).unwrap();
        let t0 = Instant::now();
        let stats = run(&ws.graph, &fabric, bytes, &mut ws.scratch).unwrap();
        let wheel_eps = stats.events as f64 / t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let ops = legacy::sra_ops(ranks, bytes / ranks as f64);
        let (_, legacy_makespan) = legacy::NetworkDes::new(ranks, bw, alpha).run(&ops);
        let legacy_eps = ops.len() as f64 / t1.elapsed().as_secs_f64();
        assert!(
            (legacy_makespan - stats.makespan_seconds()).abs() <= 1e-4 * legacy_makespan,
            "cores disagree: legacy {legacy_makespan} vs wheel {}",
            stats.makespan_seconds()
        );
        let speedup = wheel_eps / legacy_eps;
        println!(
            "512-rank SRA: wheel {:.2}M ev/s vs legacy {:.3}M ev/s = {speedup:.1}x",
            wheel_eps / 1e6,
            legacy_eps / 1e6
        );
        assert!(
            speedup >= 10.0,
            "wheel must be >=10x the legacy core, got {speedup:.1}x"
        );
    }

    // --- heterogeneity ----------------------------------------------------

    #[test]
    fn stragglers_delay_and_slow_lanes() {
        let mut g = OpGraph::new();
        g.push_transfer(0, 1, 1.0, &[]).unwrap();
        g.seal();
        let mut f = uniform(2, 1e9, 0.0);
        f.set_release(0, 1e-3).unwrap();
        let (_, m) = run_graph(&g, &f, 1e6);
        assert_eq!(m, 2_000_000, "release offset shifts the transfer");
        let mut f = uniform(2, 1e9, 0.0);
        f.scale_rank_bandwidth(0, 0.5).unwrap();
        let (_, m) = run_graph(&g, &f, 1e6);
        assert_eq!(m, 2_000_000, "halved egress bandwidth doubles the time");
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        let mut g = OpGraph::new();
        build_sra(&mut g, 8).unwrap();
        let mut f = uniform(8, 1e9, 10e-6);
        f.set_jitter(7, 0.2).unwrap();
        let a = run_graph(&g, &f, 1e7).1;
        let b = run_graph(&g, &f, 1e7).1;
        assert_eq!(a, b, "same seed, same makespan");
        let clean = run_graph(&g, &uniform(8, 1e9, 10e-6), 1e7).1;
        assert!(a as f64 >= clean as f64 * 0.8 && a as f64 <= clean as f64 * 1.2);
        f.set_jitter(8, 0.2).unwrap();
        let c = run_graph(&g, &f, 1e7).1;
        assert_ne!(a, c, "different seed perturbs the schedule");
    }

    #[test]
    fn hierarchical_beats_flat_on_slow_interconnects() {
        // 4 nodes x 4 GPUs, fast intra (10 GB/s) but slow inter
        // (0.5 GB/s) — the genesis-cluster regime where the paper's
        // hierarchical scheme wins.
        let mut f = uniform(16, 10e9, 10e-6);
        f.set_nodes(4, 0.5e9, 1e-4).unwrap();
        let mut flat = OpGraph::new();
        build_sra(&mut flat, 16).unwrap();
        let mut hier = OpGraph::new();
        build_hierarchical(&mut hier, 4, 4, 1.0 / 7.5).unwrap();
        let t_flat = run_graph(&flat, &f, 100e6).1;
        let t_hier = run_graph(&hier, &f, 100e6).1;
        assert!(
            t_hier * 2 < t_flat,
            "hier {t_hier}ns should be <2x flat {t_flat}ns"
        );
        // And on a single fast node, flat SRA wins (hier pays raw staging).
        let f1 = uniform(16, 10e9, 10e-6);
        let t_flat1 = run_graph(&flat, &f1, 100e6).1;
        let t_hier1 = run_graph(&hier, &f1, 100e6).1;
        assert!(t_flat1 < t_hier1);
    }

    #[test]
    fn wheel_overflow_and_jump_paths_are_exact() {
        // Three chained 1 ns ops with a huge in-flight α: completions
        // land far beyond one wheel lap, exercising overflow + jump.
        let mut g = OpGraph::new();
        g.push(0, 1, 0.0, 1, &[]).unwrap();
        g.push(0, 1, 0.0, 1, &[0]).unwrap();
        g.push(0, 1, 0.0, 1, &[1]).unwrap();
        g.seal();
        let f = uniform(2, 1e9, 0.1); // α = 1e8 ns
        let (done, makespan) = run_graph(&g, &f, 0.0);
        assert_eq!(done[0], 100_000_001);
        assert_eq!(done[1], 200_000_002);
        assert_eq!(done[2], 300_000_003);
        assert_eq!(makespan, 300_000_003);
    }

    #[test]
    fn empty_and_trivial_graphs() {
        let mut g = OpGraph::new();
        g.seal();
        let stats = run(&g, &uniform(1, 1e9, 0.0), 1e9, &mut DesScratch::new()).unwrap();
        assert_eq!(stats.makespan_ns, 0);
        assert_eq!(stats.events, 0);
        build_sra(&mut g, 1).unwrap();
        assert!(g.is_empty() && g.sealed);
    }
}
