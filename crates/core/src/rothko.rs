//! The **Rothko** algorithm (Algorithm 1 of the paper): a heuristic, anytime
//! procedure for computing quasi-stable colorings.
//!
//! Computing a *maximal* q-stable coloring is NP-hard (Theorem 12), so Rothko
//! instead refines greedily: starting from the single-color partition it
//! repeatedly finds the *witness* — the pair of colors `(P_i, P_j)` with the
//! largest (optionally size-weighted) degree error — and splits the offending
//! color at the mean of its degrees towards the witness target. The process
//! stops when a target number of colors or a target maximum error is reached.
//!
//! The algorithm is *anytime*: interrupting it at any point yields a valid
//! coloring, and the longer it runs the smaller the error. [`RothkoRun`]
//! exposes the per-step interface used by the responsiveness experiment
//! (Table 6) and by interactive applications.
//!
//! Each run drives the incremental refinement engine
//! ([`IncrementalDegrees`]): the degree matrices and witness candidates are
//! built once and then *updated* after every split by touching only the
//! edges incident to the moved nodes, so a step costs `O(touched)` instead
//! of the `O(m + k²)` a from-scratch recomputation would (the seed's
//! original behaviour, still available via [`Rothko::run_reference`] for
//! equivalence tests and benchmarks).
//!
//! Witness selection scans candidates grouped by split color (the engine's
//! cache rows) rather than the interleaved pair order earlier revisions
//! used; on exact weighted ties the chosen witness can therefore differ
//! from those revisions, while all behavioral guarantees (error targets,
//! color budgets, one-color-per-step) are unchanged. The incremental and
//! reference paths share the selection code operation-for-operation, so
//! they remain bit-identical to each other.
//!
//! # Batched witness rounds
//!
//! [`RothkoConfig::batch`] sets the number of witness splits per
//! *synchronization round* (`B`). Each round refreshes the witness cache
//! once, picks the top `B` candidates — at most one per split color, which
//! is what makes the batch non-conflicting: distinct parents, so no split
//! in the round invalidates another's membership — applies them in rank
//! order, and only then synchronizes again, cutting synchronization points
//! (and witness refreshes) from `O(steps)` to `O(steps / B)`.
//!
//! Semantics versus the paper's greedy order: with `B = 1` the refinement
//! is *exactly* the greedy algorithm (pinned bit-identical to the serial
//! engine, witness sequence included). With `B > 1`, candidates ranked 2
//! to B were scored before the round's earlier splits landed, so they may
//! differ from what a strict re-ranking would have chosen; split
//! thresholds still read the *live* accumulator state (a candidate made
//! degenerate mid-round is skipped, not applied blindly), the error target
//! is only consulted between rounds (a round may overshoot it by up to
//! `B − 1` splits), and color budgets and iteration caps always truncate
//! the round (checkpoints land exactly). Batched checkpoint ladders are
//! budget-schedule-dependent; see [`RothkoRun::run_to_budget`].
//!
//! Consumers that mirror each split incrementally use
//! [`RothkoRun::step_with`] (or [`crate::sweep::ColoringSweep`]): the
//! callback fires *inside* the round after every split, with the partition
//! exactly one split ahead — the same lockstep contract as before, so
//! multi-split rounds need no consumer changes. [`RothkoConfig::threads`]
//! has no semantic effect at all; it only shards the engine's update
//! phases (see [`crate::q_error`]).
//!
//! # Budget sweeps
//!
//! [`RothkoRun::run_to_budget`] advances a run until the coloring has a
//! given number of colors and *keeps the run resumable*: calling it again
//! with a larger budget continues the same monotone refinement, so a sweep
//! over budgets `b_1 < b_2 < … < b_B` costs one run to `b_B` instead of `B`
//! independent runs. Because the greedy refinement is deterministic and
//! stopping conditions are only consulted between splits, the partition at
//! an intermediate budget is identical to the partition a fresh run with
//! `max_colors = b_i` would produce. [`RothkoRun::last_event`] exposes the
//! [`SplitEvent`] of the most recent split so downstream incremental
//! consumers (the reduced-graph delta, the LP reduction delta) can patch
//! their state in lockstep; [`crate::sweep::ColoringSweep`] packages this
//! into a checkpointing driver.
//!
//! # Dynamic graphs, bidirectionally
//!
//! A run also survives *graph* updates: [`RothkoRun::apply_edge_batch`]
//! takes a batch of edge insert/delete/reweight events (from
//! `qsc_graph::delta::GraphDelta`) together with the compacted post-batch
//! graph, and [`RothkoRun::apply_node_batch`] additionally absorbs node
//! insertions and removals (isolated-node inserts grow the engine's
//! accumulators, removals compact the node axis through the compaction's
//! `NodeRemap`). Both patch the engine in `O(touched)` and re-open the
//! run so [`RothkoRun::maintain`] can re-establish the configured (q, k)
//! invariant — *from both sides*: splitting where the batch pushed the
//! error above the target, and, with [`RothkoConfig::coarsen`], merging
//! color pairs whose provable post-merge q-error bound fits well inside
//! it (a hysteresis band at half the target keeps churn from thrashing
//! freshly merged colors), so long-lived maintained runs shrink `k` back
//! when churn lowers the error instead of only ever refining. Because the
//! patched engine state equals a freshly built engine on the compacted
//! graph (exactly so for exactly-representable weights), the maintenance
//! splits *and merges* are bit-identical to what a fresh run *started
//! from the same coloring* would do; pipebench's `stream-edges` and
//! `stream-nodes` workloads time that maintenance under sustained edge
//! and node churn. [`RothkoRun::maintain_with`] delivers every operation
//! as a [`PartitionEvent`] in lockstep for downstream incremental
//! consumers.

use crate::kernels;
use crate::parallel::default_threads;
use crate::partition::{ColorId, Partition, PartitionEvent, SplitEvent};
use crate::q_error::{
    pick_merge_scratch, pick_witnesses_scratch, q_error_report, DegreeMatrices, EngineSnapshot,
    IncrementalDegrees, WitnessCandidate,
};
use crate::storage::StorageMode;
use qsc_graph::delta::{EdgeEvent, NodeRemap};
use qsc_graph::{Graph, NodeId};

/// The graph a [`RothkoRun`] refines: borrowed at start, owned after the
/// first [`RothkoRun::apply_edge_batch`] swapped in a compacted successor
/// (the caller's original graph no longer describes the refined state).
enum GraphStore<'g> {
    Borrowed(&'g Graph),
    Owned(Box<Graph>),
}

impl GraphStore<'_> {
    #[inline]
    fn get(&self) -> &Graph {
        match self {
            GraphStore::Borrowed(g) => g,
            GraphStore::Owned(g) => g,
        }
    }
}

/// How to pick the split threshold inside the witness color.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SplitMean {
    /// Split at the arithmetic mean of the degrees (the paper's default).
    #[default]
    Arithmetic,
    /// Split at the geometric mean of the positive degrees. The paper notes
    /// this yields more balanced splits on scale-free graphs, where the
    /// arithmetic mean is dragged far above the median degree.
    Geometric,
}

/// Configuration of the Rothko algorithm.
#[derive(Clone, Debug)]
pub struct RothkoConfig {
    /// Stop when the coloring reaches this many colors (the paper's `n`).
    pub max_colors: usize,
    /// Stop when the maximum q-error drops to this value or below (the
    /// paper's `ε`).
    pub target_error: f64,
    /// Weight exponent for the *source* color size in the witness choice
    /// (the paper's `α`).
    pub alpha: f64,
    /// Weight exponent for the *target* color size in the witness choice
    /// (the paper's `β`).
    pub beta: f64,
    /// Split-threshold rule.
    pub split_mean: SplitMean,
    /// Optional initial coloring to refine (defaults to one color).
    pub initial: Option<Partition>,
    /// Hard cap on the number of refinement steps (safety valve; `None`
    /// means "until one of the stopping conditions is met").
    pub max_iterations: Option<usize>,
    /// Worker threads for the incremental engine's sharded split/refresh
    /// phases. `None` reads the `QSC_THREADS` environment variable
    /// (defaulting to 1); results are bit-identical for every value.
    pub threads: Option<usize>,
    /// Witness splits per synchronization round (the batch size `B`). Each
    /// round refreshes the witness cache once, picks the top `B` candidates
    /// with *distinct* split colors, applies all of them, and only then
    /// synchronizes again — cutting synchronization points from `O(steps)`
    /// to `O(steps / B)`. `B = 1` is exactly the paper's greedy order;
    /// larger batches may pick splits the strict greedy order would have
    /// re-ranked mid-round (see the module docs). Must be at least 1.
    pub batch: usize,
    /// Allow [`RothkoRun::maintain`] to *coarsen*: when the maintained
    /// error sits at or below `target_error`, greedily merge the color pair
    /// with the smallest post-merge q-error bound while that bound stays
    /// within the target (see [`IncrementalDegrees::merge_candidates`]), so
    /// long-lived maintained runs shrink `k` back when churn lowers the
    /// error instead of only ever refining. Off by default — one-shot runs
    /// and budget sweeps are monotone refinements.
    pub coarsen: bool,
    /// Accumulator storage for the incremental engine (see
    /// [`StorageMode`]): dense `n × k` matrices, tiered sparse rows, or the
    /// default `Auto` density heuristic (dense until the projected dense
    /// footprint crosses the [`crate::storage::AUTO_DENSE_BYTES`] wall on a
    /// sufficiently sparse graph). Every mode produces bit-identical
    /// colorings, witness sequences and error values — the knob trades
    /// resident bytes against the dense rows' streaming scans.
    pub storage: StorageMode,
}

impl Default for RothkoConfig {
    fn default() -> Self {
        RothkoConfig {
            max_colors: usize::MAX,
            target_error: 0.0,
            alpha: 0.0,
            beta: 0.0,
            split_mean: SplitMean::Arithmetic,
            initial: None,
            max_iterations: None,
            threads: None,
            batch: 1,
            coarsen: false,
            storage: StorageMode::Auto,
        }
    }
}

impl RothkoConfig {
    /// Stop at `max_colors` colors (no error target).
    pub fn with_max_colors(max_colors: usize) -> Self {
        RothkoConfig {
            max_colors,
            ..Default::default()
        }
    }

    /// Refine until the maximum q-error is at most `q` (no color cap).
    pub fn with_target_error(q: f64) -> Self {
        RothkoConfig {
            target_error: q,
            ..Default::default()
        }
    }

    /// The weighting the paper uses for max-flow problems: `α = β = 0`
    /// (only the total capacity between colors matters, not their sizes).
    pub fn for_max_flow(max_colors: usize) -> Self {
        RothkoConfig {
            max_colors,
            alpha: 0.0,
            beta: 0.0,
            ..Default::default()
        }
    }

    /// The weighting the paper uses for linear programs: `α = 1, β = 0`
    /// (prioritize splitting colors that cover many rows).
    pub fn for_linear_program(max_colors: usize) -> Self {
        RothkoConfig {
            max_colors,
            alpha: 1.0,
            beta: 0.0,
            ..Default::default()
        }
    }

    /// The weighting the paper uses for betweenness centrality: `α = β = 1`
    /// (the number of paths depends on both color sizes).
    pub fn for_centrality(max_colors: usize) -> Self {
        RothkoConfig {
            max_colors,
            alpha: 1.0,
            beta: 1.0,
            split_mean: SplitMean::Geometric,
            ..Default::default()
        }
    }

    /// Builder-style setter for the split rule.
    pub fn split_mean(mut self, mean: SplitMean) -> Self {
        self.split_mean = mean;
        self
    }

    /// Builder-style setter for the error target.
    pub fn target_error(mut self, q: f64) -> Self {
        self.target_error = q;
        self
    }

    /// Builder-style setter for the witness weights.
    pub fn weights(mut self, alpha: f64, beta: f64) -> Self {
        self.alpha = alpha;
        self.beta = beta;
        self
    }

    /// Builder-style setter for the initial partition.
    pub fn initial(mut self, p: Partition) -> Self {
        self.initial = Some(p);
        self
    }

    /// Builder-style setter for the engine worker-thread count.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads.max(1));
        self
    }

    /// Builder-style setter for the witness batch size `B` (clamped to at
    /// least 1).
    pub fn batch(mut self, batch: usize) -> Self {
        self.batch = batch.max(1);
        self
    }

    /// Builder-style setter for bidirectional maintenance (see
    /// [`Self::coarsen`] — the field).
    pub fn coarsen(mut self, coarsen: bool) -> Self {
        self.coarsen = coarsen;
        self
    }

    /// Builder-style setter for the engine's accumulator storage mode (see
    /// [`Self::storage`] — the field). `Auto` by default.
    pub fn storage(mut self, storage: StorageMode) -> Self {
        self.storage = storage;
        self
    }
}

/// One round of *node* churn for [`RothkoRun::apply_node_batch`]: the batch
/// a `qsc_graph::delta::GraphDelta` produced between two compactions, plus
/// the color assignments for the inserted nodes. The application order is
/// fixed: inserts grow the id space first, the edge events (which may
/// reference both fresh and soon-to-be-removed nodes, and always contain
/// the removals' incident-edge deletes) apply over the grown pre-compaction
/// id space, and the removals + renumbering land last.
#[derive(Clone, Debug)]
pub struct NodeChurnBatch {
    /// Colors for the nodes appended in order (node `old_n + i` joins
    /// `inserted_colors[i]`).
    pub inserted_colors: Vec<ColorId>,
    /// The edge events of the batch, in mutation order, over the grown
    /// pre-compaction id space (from `GraphDelta::drain_events`).
    pub edge_events: Vec<EdgeEvent>,
    /// The removed nodes (pre-compaction ids; their colors are read from
    /// the partition before the renumbering).
    pub removed: Vec<NodeId>,
    /// The renumbering the graph compaction produced
    /// (`GraphDelta::compact_renumber`).
    pub remap: NodeRemap,
}

/// The result of a Rothko run: a coloring plus its quality metrics.
#[derive(Clone, Debug)]
pub struct Coloring {
    /// The computed partition.
    pub partition: Partition,
    /// The maximum q-error of the partition (smallest `q` such that it is
    /// `q`-stable).
    pub max_q_error: f64,
    /// Mean q-error over color pairs with edges.
    pub mean_q_error: f64,
    /// Number of split steps performed.
    pub iterations: usize,
}

impl Coloring {
    /// Compression ratio `n : k`.
    pub fn compression_ratio(&self) -> f64 {
        if self.partition.num_colors() == 0 {
            return 1.0;
        }
        self.partition.num_nodes() as f64 / self.partition.num_colors() as f64
    }
}

/// A [`RothkoRun`]'s complete resumable state, captured by
/// [`RothkoRun::snapshot`] and restored by [`RothkoRun::from_snapshot`] —
/// what the persistence layer writes into a checkpoint alongside the
/// graph and config.
///
/// Holds the partition (member order included — split scans walk members
/// in stored order, so order is semantic), the engine state, and the
/// run's progress counters. The last-round diagnostics
/// ([`RothkoRun::last_round_events`] / witnesses) and the degree scratch
/// are *not* captured: they never influence future steps, and a restored
/// run reports an empty last round until it performs one.
#[derive(Clone, Debug)]
pub struct RunSnapshot {
    /// The coloring, with exact member order.
    pub partition: Partition,
    /// Engine state (`None` for from-scratch reference runs).
    pub engine: Option<EngineSnapshot>,
    /// Split count so far.
    pub iterations: usize,
    /// Coarsening-merge count so far.
    pub merges: usize,
    /// Max q-error observed at the start of the last step.
    pub last_max_error: f64,
    /// Whether the run has reached a stopping condition.
    pub done: bool,
}

/// The Rothko quasi-stable coloring algorithm.
#[derive(Clone, Debug, Default)]
pub struct Rothko {
    config: RothkoConfig,
}

impl Rothko {
    /// Create a runner with the given configuration.
    pub fn new(config: RothkoConfig) -> Self {
        Rothko { config }
    }

    /// Run the algorithm to completion on `g`.
    pub fn run(&self, g: &Graph) -> Coloring {
        self.start(g).run_to_completion()
    }

    /// Start an anytime run on `g`; call [`RothkoRun::step`] to advance.
    pub fn start<'g>(&self, g: &'g Graph) -> RothkoRun<'g> {
        RothkoRun::new(g, self.config.clone(), false)
    }

    /// Run to completion recomputing [`DegreeMatrices`] from the graph on
    /// every step (the seed's original `O(k·m + k³)` behaviour — no engine
    /// is built at all). Witness selection mirrors the incremental path
    /// operation-for-operation, so for graphs with exactly representable
    /// weights the result is bit-identical to [`Self::run`]; used by
    /// equivalence tests and the incremental-vs-scratch benchmark.
    pub fn run_reference(&self, g: &Graph) -> Coloring {
        self.start_reference(g).run_to_completion()
    }

    /// Start a from-scratch (non-incremental) run; see
    /// [`Self::run_reference`].
    pub fn start_reference<'g>(&self, g: &'g Graph) -> RothkoRun<'g> {
        RothkoRun::new(g, self.config.clone(), true)
    }
}

/// An in-progress, resumable Rothko run.
pub struct RothkoRun<'g> {
    graph: GraphStore<'g>,
    config: RothkoConfig,
    partition: Partition,
    /// The incremental engine (`None` in from-scratch reference mode,
    /// which recomputes [`DegreeMatrices`] from the graph each round — the
    /// seed's original per-step cost model).
    engine: Option<IncrementalDegrees>,
    /// Dense per-node degree scratch reused across steps by
    /// [`Self::split_at_mean`] (no per-step allocation).
    deg_scratch: Vec<f64>,
    iterations: usize,
    /// Merges performed by coarsening maintenance (separate from the split
    /// count in `iterations`).
    merges: usize,
    last_max_error: f64,
    /// The splits of the most recent synchronization round, in application
    /// order (each event's `moved_nodes` vector is moved here, not cloned,
    /// so keeping them costs nothing on the hot path), plus the witnesses
    /// that caused them.
    round_events: Vec<SplitEvent>,
    round_witnesses: Vec<WitnessCandidate>,
    done: bool,
}

impl<'g> RothkoRun<'g> {
    fn new(graph: &'g Graph, config: RothkoConfig, from_scratch: bool) -> Self {
        let n = graph.num_nodes();
        assert!(config.batch >= 1, "batch size must be at least 1");
        let partition = match &config.initial {
            Some(p) => {
                assert_eq!(p.num_nodes(), n, "initial partition size mismatch");
                p.clone()
            }
            None => Partition::unit(n),
        };
        let engine = if from_scratch {
            None
        } else {
            let threads = config.threads.unwrap_or_else(default_threads);
            // The color budget doubles as the density hint for `Auto`
            // storage resolution (capped inside `new_with_storage`).
            let mut engine = IncrementalDegrees::new_with_storage(
                graph,
                &partition,
                threads,
                config.storage,
                config.max_colors,
            );
            // A modest finite color budget is a capacity hint: allocate
            // the accumulator rows and summary matrices once instead of
            // regrowing them several times mid-run. Large or unbounded
            // budgets keep the default geometric growth — the run may
            // stop far short of them (error target met, refinement
            // exhausted), and pre-reserving n × budget accumulators up
            // front would turn that early stop into a memory cliff.
            const RESERVE_BUDGET_LIMIT: usize = 4096;
            if config.max_colors <= RESERVE_BUDGET_LIMIT {
                engine.reserve_colors(config.max_colors);
            }
            Some(engine)
        };
        let done = n == 0;
        RothkoRun {
            graph: GraphStore::Borrowed(graph),
            config,
            partition,
            engine,
            deg_scratch: vec![0.0; n],
            iterations: 0,
            merges: 0,
            last_max_error: f64::INFINITY,
            round_events: Vec::new(),
            round_witnesses: Vec::new(),
            done,
        }
    }

    /// The current coloring.
    pub fn partition(&self) -> &Partition {
        &self.partition
    }

    /// The run's incremental engine (`None` in from-scratch reference
    /// mode) — read-only access for instrumentation such as the
    /// [`IncrementalDegrees::resident_bytes`] accounting.
    pub fn engine(&self) -> Option<&IncrementalDegrees> {
        self.engine.as_ref()
    }

    /// Maximum q-error observed at the start of the last step (∞ before the
    /// first step).
    pub fn current_error(&self) -> f64 {
        self.last_max_error
    }

    /// Number of splits performed so far.
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// Number of coarsening merges performed so far (only ever non-zero
    /// for maintained runs with [`RothkoConfig::coarsen`]).
    pub fn merges(&self) -> usize {
        self.merges
    }

    /// Whether the run has reached a stopping condition.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// The graph this run refines (the compacted post-batch graph after
    /// an [`Self::apply_edge_batch`]).
    pub fn graph(&self) -> &Graph {
        self.graph.get()
    }

    /// The configuration this run was started with (the persistence layer
    /// serializes it next to the run state so a restore can rebuild the
    /// run without out-of-band knowledge).
    pub fn config(&self) -> &RothkoConfig {
        &self.config
    }

    /// Capture the run's complete resumable state; see [`RunSnapshot`].
    #[must_use]
    pub fn snapshot(&self) -> RunSnapshot {
        RunSnapshot {
            partition: self.partition.clone(),
            engine: self.engine.as_ref().map(IncrementalDegrees::snapshot),
            iterations: self.iterations,
            merges: self.merges,
            last_max_error: self.last_max_error,
            done: self.done,
        }
    }

    /// Rebuild a run from a snapshot plus the graph and config it was
    /// captured with, bit-identical in all future behaviour to the run
    /// that produced it (same splits, witnesses, q-error bits, and
    /// maintenance events — the determinism contract). The engine folds
    /// its pair summaries from the snapshot's accumulators and partition
    /// (see [`IncrementalDegrees::from_snapshot`]).
    ///
    /// The graph is taken by value (a restore owns its graph; there is no
    /// borrowed original), so the returned run is `'static`. The engine's
    /// thread pool is rebuilt from `config.threads` exactly as
    /// [`Rothko::start`] would, including the capacity pre-reservation
    /// for modest color budgets — restored engines have the same stride
    /// as freshly built ones.
    ///
    /// # Panics
    /// If the snapshot's dimensions disagree with the graph (the
    /// persistence layer validates untrusted bytes before constructing a
    /// snapshot; this is a backstop against programmer error).
    #[must_use]
    pub fn from_snapshot(
        graph: Graph,
        config: RothkoConfig,
        snap: &RunSnapshot,
    ) -> RothkoRun<'static> {
        let n = graph.num_nodes();
        assert!(config.batch >= 1, "batch size must be at least 1");
        assert_eq!(
            snap.partition.num_nodes(),
            n,
            "snapshot partition does not match graph"
        );
        let engine = snap.engine.as_ref().map(|e| {
            assert_eq!(e.n, n, "snapshot engine does not match graph");
            assert_eq!(
                e.k,
                snap.partition.num_colors(),
                "snapshot engine does not match partition"
            );
            let threads = config.threads.unwrap_or_else(default_threads);
            let mut engine = IncrementalDegrees::from_snapshot(e, &snap.partition, threads);
            const RESERVE_BUDGET_LIMIT: usize = 4096;
            if config.max_colors <= RESERVE_BUDGET_LIMIT {
                engine.reserve_colors(config.max_colors);
            }
            engine
        });
        RothkoRun {
            graph: GraphStore::Owned(Box::new(graph)),
            config,
            partition: snap.partition.clone(),
            engine,
            deg_scratch: vec![0.0; n],
            iterations: snap.iterations,
            merges: snap.merges,
            last_max_error: snap.last_max_error,
            round_events: Vec::new(),
            round_witnesses: Vec::new(),
            done: snap.done,
        }
    }

    /// The [`SplitEvent`] of the most recent successful split, or `None`
    /// before the first split. Incremental consumers that only ever run
    /// with `batch = 1` read this after every step; batched consumers use
    /// [`Self::last_round_events`] or the lockstep callback of
    /// [`Self::step_with`] instead.
    pub fn last_event(&self) -> Option<&SplitEvent> {
        self.round_events.last()
    }

    /// All splits of the most recent synchronization round that performed
    /// any, in application order (at most `batch` of them).
    pub fn last_round_events(&self) -> &[SplitEvent] {
        &self.round_events
    }

    /// The witnesses that caused the most recent round's splits, parallel
    /// to [`Self::last_round_events`].
    pub fn last_round_witnesses(&self) -> &[WitnessCandidate] {
        &self.round_witnesses
    }

    /// Perform one synchronization round: up to `batch` witness splits
    /// against one shared witness refresh. Returns `true` if at least one
    /// split was performed, `false` if the run is finished (stopping
    /// condition reached or no further split possible). With the default
    /// `batch = 1` this is exactly one greedy refinement step.
    pub fn step(&mut self) -> bool {
        self.round_bounded(self.config.max_colors, |_, _| {})
    }

    /// Like [`Self::step`], but invokes `on_split(partition, event)` after
    /// every split inside the round — the partition is the state
    /// immediately *after* that split, exactly one split ahead of the
    /// visitor's state, which is the lockstep contract incremental
    /// consumers ([`crate::reduced::ReducedDelta`] and its siblings)
    /// require even when a round performs several splits.
    pub fn step_with<F>(&mut self, on_split: F) -> bool
    where
        F: FnMut(&Partition, &SplitEvent),
    {
        self.round_bounded(self.config.max_colors, on_split)
    }

    /// One synchronization round bounded by `budget` colors (for sweeps):
    /// like [`Self::step_with`], but the round never takes the coloring
    /// past `budget`, so intermediate checkpoints land exactly. Reaching
    /// an intermediate budget returns `false` without marking the run
    /// done.
    pub fn step_toward<F>(&mut self, budget: usize, on_split: F) -> bool
    where
        F: FnMut(&Partition, &SplitEvent),
    {
        self.round_bounded(budget.min(self.config.max_colors), on_split)
    }

    /// Advance the run until the coloring has at least `budget` colors (or a
    /// terminal stopping condition is hit first). Unlike reaching the
    /// configured `max_colors`, an intermediate budget is a *checkpoint*:
    /// the run stays resumable and a later call with a larger budget
    /// continues the same refinement. Returns `true` when the budget was
    /// reached, `false` when the run stopped short (error target met, no
    /// splittable color left, or the configured caps were hit).
    ///
    /// With `batch > 1` the rounds are truncated at every requested budget,
    /// so the refinement depends on the budget schedule (a batched run
    /// checkpointed at `b` then resumed need not equal a batched run driven
    /// straight past `b`); `batch = 1` checkpoints are schedule-independent
    /// exactly as before.
    pub fn run_to_budget(&mut self, budget: usize) -> bool {
        let bounded = budget.min(self.config.max_colors);
        while self.round_bounded(bounded, |_, _| {}) {}
        // Report against the *requested* budget: a request beyond the
        // configured cap (or past exhaustion) is honestly "not reached", so
        // `while run.run_to_budget(k + 1)` ladders terminate.
        self.partition.num_colors() >= budget
    }

    /// Apply a batch of edge events to the running refinement — the
    /// dynamic-graph maintenance entry point. The engine's accumulators,
    /// pair summaries and witness rows are patched in
    /// `O(events + touched entries)` (no graph traversal; see
    /// [`IncrementalDegrees::apply_edge_batch`]), the run's graph is
    /// swapped for `compacted` — the post-batch graph, e.g. from
    /// `qsc_graph::delta::GraphDelta::compact` — which the run owns from
    /// now on, and the run is re-opened: the batch may have pushed the
    /// maximum error back above the configured target.
    ///
    /// Call [`Self::maintain`] (or drive [`Self::step`] /
    /// [`Self::run_to_budget`] yourself) afterwards to re-establish the
    /// configured (q, k) invariant; only colors whose error the batch
    /// actually disturbed are re-split, because witness selection reads
    /// the patched error state. The node set and directedness must not
    /// change. Debug builds cross-check the patched engine against
    /// [`DegreeMatrices`] rebuilt from `compacted`.
    pub fn apply_edge_batch(&mut self, compacted: Graph, events: &[EdgeEvent]) {
        self.apply_edge_batches(&[events], compacted);
    }

    /// Apply a *run* of consecutive edge batches that share one
    /// compaction. Each batch's events go through the engine as its own
    /// [`Self::apply_edge_batch`]-equivalent step — the engine folds each
    /// batch separately, so the accumulator arithmetic (and therefore
    /// every restored f64 bit) matches a writer that applied the batches
    /// one call at a time. `compacted` must be the graph after *all* of
    /// them; it is swapped in once at the end. The WAL replay path leans
    /// on this to rebuild the CSR once per run of logged edge batches
    /// instead of once per batch — the graph is only read at maintenance
    /// boundaries, never between event applications.
    pub fn apply_edge_batches(&mut self, batches: &[&[EdgeEvent]], compacted: Graph) {
        assert_eq!(
            compacted.num_nodes(),
            self.partition.num_nodes(),
            "maintenance cannot change the node set"
        );
        assert_eq!(
            compacted.is_directed(),
            self.graph.get().is_directed(),
            "maintenance cannot change directedness"
        );
        if let Some(engine) = &mut self.engine {
            for events in batches {
                engine.apply_edge_batch(&self.partition, events);
            }
        }
        // Reference mode recomputes its matrices from the graph each
        // round, so swapping the graph is all it needs.
        self.graph = GraphStore::Owned(Box::new(compacted));
        self.done = self.partition.num_nodes() == 0;
        #[cfg(debug_assertions)]
        if let Some(engine) = &self.engine {
            debug_assert_eq!(
                engine.verify_against(self.graph.get(), &self.partition),
                Ok(()),
                "edge batch diverged from the compacted graph"
            );
        }
    }

    /// Apply a batch of *node* churn to the running refinement: inserts
    /// grow the partition and the engine's accumulators (fresh isolated
    /// nodes), the batch's edge events patch the engine over the grown
    /// pre-compaction id space (exactly as [`Self::apply_edge_batch`]
    /// does), and the removals + renumbering compact the node axis — all
    /// in `O(events + touched)` plus the `O(n)` axis compaction, no graph
    /// traversal. `compacted` is the post-batch graph from
    /// `GraphDelta::compact_renumber` (owned by the run from now on), and
    /// the run re-opens so [`Self::maintain`] can re-establish the (q, k)
    /// invariant — splitting where the churn raised the error, merging
    /// (with [`RothkoConfig::coarsen`]) where it lowered it.
    ///
    /// Removals must not empty a color (pick victims from colors with at
    /// least two members, or merge the color away first); directedness
    /// cannot change.
    pub fn apply_node_batch(&mut self, compacted: Graph, batch: &NodeChurnBatch) {
        assert_eq!(
            compacted.num_nodes(),
            batch.remap.new_len(),
            "compacted graph does not match the remap"
        );
        assert_eq!(
            compacted.is_directed(),
            self.graph.get().is_directed(),
            "maintenance cannot change directedness"
        );
        let first = self.partition.num_nodes() as NodeId;
        for &c in &batch.inserted_colors {
            self.partition.insert_node(c);
        }
        if let Some(engine) = &mut self.engine {
            engine.apply_node_inserts(&self.partition, first, &batch.inserted_colors);
            engine.apply_edge_batch(&self.partition, &batch.edge_events);
        }
        let removed_colors: Vec<ColorId> = batch
            .removed
            .iter()
            .map(|&v| self.partition.color_of(v))
            .collect();
        self.partition.apply_node_remap(&batch.remap);
        if let Some(engine) = &mut self.engine {
            engine.apply_node_removals(&self.partition, &batch.remap, &removed_colors);
        }
        self.deg_scratch.resize(self.partition.num_nodes(), 0.0);
        self.graph = GraphStore::Owned(Box::new(compacted));
        self.done = self.partition.num_nodes() == 0;
        #[cfg(debug_assertions)]
        if let Some(engine) = &self.engine {
            debug_assert_eq!(
                engine.verify_against(self.graph.get(), &self.partition),
                Ok(()),
                "node batch diverged from the compacted graph"
            );
        }
    }

    /// Re-establish the configured (q, k) invariant after
    /// [`Self::apply_edge_batch`] / [`Self::apply_node_batch`]: run
    /// synchronization rounds until the error target is met, the color
    /// budget or iteration cap is exhausted, or no further split is
    /// possible — then, with [`RothkoConfig::coarsen`], greedily merge
    /// color pairs whose post-merge bound stays within the target, so the
    /// invariant is kept from *both* sides. Returns the number of
    /// operations performed (splits plus merges; zero when the batch left
    /// every error within target and no merge fits).
    pub fn maintain(&mut self) -> usize {
        let before = self.iterations + self.merges;
        while self.step() {}
        if self.config.coarsen {
            self.coarsen_within_target(&mut |_, _| {});
        }
        (self.iterations + self.merges) - before
    }

    /// Like [`Self::maintain`], but delivers every operation to `on_event`
    /// as a [`PartitionEvent`] in lockstep (the partition argument is the
    /// state immediately after the event), so incremental consumers
    /// ([`crate::reduced::ReducedDelta`] and its siblings) can mirror
    /// bidirectional maintenance the same way they mirror sweep splits.
    pub fn maintain_with<F>(&mut self, mut on_event: F) -> usize
    where
        F: FnMut(&Partition, &PartitionEvent),
    {
        let before = self.iterations + self.merges;
        while self.step_with(|p, ev| on_event(p, &PartitionEvent::Split(ev.clone()))) {}
        if self.config.coarsen {
            self.coarsen_within_target(&mut on_event);
        }
        (self.iterations + self.merges) - before
    }

    /// Coarsening: while the current error sits within the target and some
    /// pair's post-merge bound stays inside the *hysteresis band*
    /// (`target · COARSEN_HYSTERESIS`), merge it. The band keeps freshly
    /// merged colors from immediately re-splitting on the next churn round
    /// — merged entries sit at half the target, so a batch has headroom
    /// before the invariant is violated; with `target == 0` only
    /// provably-exact (bound-zero) merges apply.
    ///
    /// Incremental engines run *batched validated rounds*: one
    /// [`IncrementalDegrees::merge_candidates`] scan (pruned to the pairs
    /// that can pass; see its cost notes) produces the ascending candidate
    /// list, and each candidate is re-validated in `O(k)` against the live
    /// state before applying (its stale bound may undershoot after earlier
    /// merges in the round), so a round of `M` merges costs one scan plus
    /// `O(M·k)` instead of `M` scans. Every applied merge's *current* bound is within the band, so
    /// the (q, k) invariant provably survives; each merge shrinks `k` and
    /// rounds repeat only while they merged something, so the loop
    /// terminates. Rounds are pure functions of the engine state, so
    /// maintained and fresh-from-checkpoint runs coarsen identically.
    /// Reference (engine-less) runs keep the strict greedy order —
    /// recomputing matrices per merge already dominates there.
    fn coarsen_within_target<F>(&mut self, on_event: &mut F) -> usize
    where
        F: FnMut(&Partition, &PartitionEvent),
    {
        /// Fraction of the error target a post-merge bound must stay
        /// within for the merge to apply (see the method docs).
        const COARSEN_HYSTERESIS: f64 = 0.5;
        let target = self.config.target_error;
        if self.partition.num_colors() < 2 || self.exact_max_error() > target {
            return 0;
        }
        let band = target * COARSEN_HYSTERESIS;
        let mut count = 0usize;
        if self.engine.is_none() {
            // Reference mode: strict greedy, one scratch pick per merge.
            while self.partition.num_colors() >= 2 {
                let m = DegreeMatrices::compute(self.graph.get(), &self.partition);
                let Some(c) = pick_merge_scratch(&m, band) else {
                    break;
                };
                let event = self.partition.merge_colors(c.winner, c.loser);
                self.merges += 1;
                count += 1;
                on_event(&self.partition, &PartitionEvent::Merge(event));
            }
            return count;
        }
        loop {
            let k = self.partition.num_colors();
            if k < 2 {
                break;
            }
            // Refresh before the scan: the candidate prefilter reads the
            // cached row errors, which the previous round's merges dirtied.
            let beta = self.config.beta;
            let engine = self.engine.as_mut().expect("engine mode");
            engine.refresh(&self.partition, beta);
            let candidates = engine.merge_candidates(band);
            if candidates.is_empty() {
                break;
            }
            // Track color movement across the round's merges: `cur_of`
            // maps a round-start color to the slot its (possibly merged)
            // class lives in now. Every merge rewrites the whole map —
            // colors at the loser slot move to the winner (including ones
            // merged there earlier this round: the mapping must be
            // transitive) and colors at the relabeled ex-last slot move to
            // the freed one. `O(k)` per merge, dwarfed by the merge itself.
            let mut cur_of: Vec<u32> = (0..k as u32).collect();
            let mut merged_this_round = 0usize;
            for c in candidates {
                let ca = cur_of[c.winner as usize];
                let cb = cur_of[c.loser as usize];
                if ca == cb {
                    continue; // already merged together this round
                }
                let (w, l) = (ca.min(cb), ca.max(cb));
                let engine = self.engine.as_mut().expect("engine mode");
                if engine.merge_bound_pair(w, l, band) > band {
                    continue; // stale candidate; the next round re-scans
                }
                let last = (self.partition.num_colors() - 1) as u32;
                let event = self.partition.merge_colors(w, l);
                self.engine.as_mut().expect("engine mode").apply_merge(
                    self.graph.get(),
                    &self.partition,
                    &event,
                );
                for slot in cur_of.iter_mut() {
                    if *slot == l {
                        *slot = w;
                    } else if *slot == last {
                        *slot = l;
                    }
                }
                self.merges += 1;
                count += 1;
                merged_this_round += 1;
                on_event(&self.partition, &PartitionEvent::Merge(event));
            }
            if merged_this_round == 0 {
                break;
            }
        }
        count
    }

    /// One synchronization round bounded by `max_colors` (which is at most
    /// the configured budget): refresh the witness state once, take the top
    /// candidates (at most `batch`, clamped by every remaining cap), apply
    /// them in order, notify `on_split` after each. Reaching an
    /// intermediate bound returns `false` without marking the run done, so
    /// budget sweeps can resume; terminal conditions (node count, the
    /// run's own configured budget, iteration cap, error target,
    /// unsplittable coloring) set `done`.
    fn round_bounded<F>(&mut self, max_colors: usize, mut on_split: F) -> bool
    where
        F: FnMut(&Partition, &SplitEvent),
    {
        if self.done {
            return false;
        }
        let k = self.partition.num_colors();
        let n = self.graph.get().num_nodes();
        if k >= n {
            self.done = true;
            return false;
        }
        if k >= max_colors {
            if k >= self.config.max_colors {
                self.done = true;
            }
            return false;
        }
        let mut room = self.config.batch.min(max_colors - k).min(n - k);
        if let Some(max_iter) = self.config.max_iterations {
            if self.iterations >= max_iter {
                self.done = true;
                return false;
            }
            room = room.min(max_iter - self.iterations);
        }

        let witnesses = match &mut self.engine {
            Some(engine) => {
                engine.refresh(&self.partition, self.config.beta);
                self.last_max_error = engine.max_error();
                if self.last_max_error <= self.config.target_error {
                    Vec::new()
                } else if room == 1 {
                    // The batch = 1 hot path keeps the allocation-free
                    // O(k) top-1 scan (identical selection and
                    // tie-breaking to the sorted top-B path).
                    engine
                        .pick_witness(&self.partition, self.config.alpha)
                        .into_iter()
                        .collect()
                } else {
                    engine.pick_witnesses(&self.partition, self.config.alpha, room)
                }
            }
            None => {
                // Reference mode: the seed's original per-round behaviour —
                // recompute the degree matrices from the graph, then run
                // the same row-ordered witness selection over them.
                let m = DegreeMatrices::compute(self.graph.get(), &self.partition);
                self.last_max_error = m.max_error();
                if self.last_max_error <= self.config.target_error {
                    Vec::new()
                } else {
                    pick_witnesses_scratch(
                        &m,
                        &self.partition,
                        self.config.alpha,
                        self.config.beta,
                        room,
                    )
                }
            }
        };
        if self.last_max_error <= self.config.target_error {
            self.done = true;
            return false;
        }
        if witnesses.is_empty() {
            // No splittable pair (all remaining error is inside singleton
            // colors, which cannot happen, or the graph is already stable).
            self.done = true;
            return false;
        }

        let mut any = false;
        for witness in witnesses {
            // Candidates beyond the first were ranked before this round's
            // earlier splits; their degrees are re-read from the live
            // engine state, so a candidate made degenerate mid-round is
            // skipped rather than applied blindly.
            self.fill_witness_degrees(&witness);
            if let Some(event) = self.split_at_mean(&witness) {
                if !any {
                    // Only a round that actually splits replaces the
                    // recorded round — `last_event` keeps pointing at the
                    // most recent successful split even if a later,
                    // fully-degenerate round ends the run.
                    self.round_events.clear();
                    self.round_witnesses.clear();
                }
                any = true;
                self.iterations += 1;
                self.round_witnesses.push(witness);
                self.round_events.push(event);
                let event = self.round_events.last().expect("just pushed");
                on_split(&self.partition, event);
            }
        }
        if !any {
            // Could not split any candidate (degenerate); stop rather than
            // loop forever.
            self.done = true;
            return false;
        }
        true
    }

    /// Run until a stopping condition is reached and return the coloring.
    pub fn run_to_completion(mut self) -> Coloring {
        while self.step() {}
        self.finish()
    }

    /// The exact maximum q-error of the *current* partition. In incremental
    /// mode this refreshes the engine's dirty witness rows (`O(dirty · k)`,
    /// no graph traversal); in reference mode it recomputes
    /// [`DegreeMatrices`] from the graph. Unlike [`Self::current_error`]
    /// (the error observed at the start of the last step) this reflects the
    /// partition after the last split, matching what
    /// [`crate::q_error::max_q_error`] would report up to floating-point
    /// associativity (exactly, for integer-valued weights).
    pub fn exact_max_error(&mut self) -> f64 {
        match &mut self.engine {
            Some(engine) => {
                engine.refresh(&self.partition, self.config.beta);
                engine.max_error()
            }
            None => DegreeMatrices::compute(self.graph.get(), &self.partition).max_error(),
        }
    }

    /// Stop now and package the current coloring with exact quality metrics.
    pub fn finish(self) -> Coloring {
        // Incremental mode reads the report straight off the engine's pair
        // summaries (`O(k²)`, same scan order and fold as the from-graph
        // recomputation — exactly equal on integer weights); reference mode
        // rebuilds the matrices from the graph.
        let report = match &self.engine {
            Some(engine) => engine.q_report(),
            None => q_error_report(self.graph.get(), &self.partition),
        };
        Coloring {
            partition: self.partition,
            max_q_error: report.max_q,
            mean_q_error: report.mean_q,
            iterations: self.iterations,
        }
    }

    /// Split the witness color at the configured mean of its members'
    /// degrees towards/from the other color. Falls back to the other mean
    /// and then the mid-range if the preferred threshold would produce an
    /// empty side. On success the split event is pushed into the
    /// incremental engine.
    ///
    /// The degrees are read straight from the engine's accumulators (no
    /// graph traversal) into a dense per-node scratch buffer reused across
    /// steps, so this allocates nothing on the hot path.
    /// Fill `deg_scratch` with each member's degree towards/from the
    /// witness target: read straight from the engine's accumulators in
    /// incremental mode (no graph traversal), or aggregated from the edges
    /// in reference mode (the seed's behaviour). Either way the dense
    /// per-node buffer is reused across steps, so nothing allocates.
    fn fill_witness_degrees(&mut self, w: &WitnessCandidate) {
        let members = self.partition.members(w.split_color);
        match &self.engine {
            Some(engine) => {
                for &v in members {
                    self.deg_scratch[v as usize] = if w.outgoing {
                        engine.out_degree_of(v, w.other_color)
                    } else {
                        engine.in_degree_of(v, w.other_color)
                    };
                }
            }
            None => {
                for &v in members {
                    let mut d = 0.0;
                    if w.outgoing {
                        for (t, weight) in self.graph.get().out_edges(v) {
                            if self.partition.color_of(t) == w.other_color {
                                d += weight;
                            }
                        }
                    } else {
                        for (s, weight) in self.graph.get().in_edges(v) {
                            if self.partition.color_of(s) == w.other_color {
                                d += weight;
                            }
                        }
                    }
                    self.deg_scratch[v as usize] = d;
                }
            }
        }
    }

    /// Split the witness color at the configured mean of the degrees
    /// prepared by [`Self::fill_witness_degrees`]. Falls back to the other
    /// mean and then the mid-range if the preferred threshold would produce
    /// an empty side. On success the split event has been pushed into the
    /// incremental engine (when one is attached) and is returned to the
    /// caller; `None` means the color was degenerate.
    fn split_at_mean(&mut self, w: &WitnessCandidate) -> Option<SplitEvent> {
        let members = self.partition.members(w.split_color);
        let len = members.len();
        debug_assert!(len >= 2, "witness picked a singleton color");
        // Sum + min/max in one vectorized gather pass. The kernel reduces
        // the sum through the canonical blocked tree (this is where the
        // engine's determinism pins were re-baselined when the canonical
        // order switched from the sequential fold).
        let stats = kernels::gather_stats(members, &self.deg_scratch);
        let (sum, min, max) = (stats.sum, stats.min, stats.max);
        if min == max {
            // Degenerate: every member has the same degree towards the
            // witness target, so no threshold can separate them. Report the
            // color as unsplittable without trying (and allocating for)
            // the three fallback thresholds.
            return None;
        }
        let arithmetic = sum / len as f64;
        let mid = (min + max) / 2.0;
        // The geometric mean needs a `ln` per positive member — by far the
        // most expensive part of the old eager scan — so it is computed
        // lazily, only when a threshold order actually reaches it. The
        // thresholds are unchanged; only when the work happens moved.
        let mut geometric: Option<f64> = None;
        let mut geometric_of = |run: &Self| {
            *geometric.get_or_insert_with(|| {
                let members = run.partition.members(w.split_color);
                let (log_sum, positive) = kernels::gather_log_stats(members, &run.deg_scratch);
                if positive == 0 {
                    arithmetic
                } else {
                    (log_sum / positive as f64).exp()
                }
            })
        };
        let order: [SplitMean; 2] = match self.config.split_mean {
            SplitMean::Arithmetic => [SplitMean::Arithmetic, SplitMean::Geometric],
            SplitMean::Geometric => [SplitMean::Geometric, SplitMean::Arithmetic],
        };
        for pick in order.into_iter().map(Some).chain([None]) {
            let threshold = match pick {
                Some(SplitMean::Arithmetic) => arithmetic,
                Some(SplitMean::Geometric) => geometric_of(self),
                None => mid,
            };
            let scratch = &self.deg_scratch;
            if let Some(event) = self
                .partition
                .split_color(w.split_color, |v| scratch[v as usize] > threshold)
            {
                if let Some(engine) = &mut self.engine {
                    engine.apply_split(self.graph.get(), &self.partition, &event);
                }
                return Some(event);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::q_error::max_q_error;
    use crate::stable::stable_coloring;
    use qsc_graph::{generators, GraphBuilder};

    #[test]
    fn karate_six_colors_matches_paper_scale() {
        // Fig. 1b: 6 colors suffice for q = 3 on the karate club.
        let g = generators::karate_club();
        let coloring = Rothko::new(RothkoConfig::with_max_colors(6)).run(&g);
        assert_eq!(coloring.partition.num_colors(), 6);
        assert!(coloring.partition.validate());
        // The heuristic should reach a single-digit q at 6 colors.
        assert!(
            coloring.max_q_error <= 6.0,
            "q error too large: {}",
            coloring.max_q_error
        );
        assert_eq!(coloring.max_q_error, max_q_error(&g, &coloring.partition));
    }

    #[test]
    fn karate_leaders_get_own_color_eventually() {
        // With enough colors the high-degree leaders (nodes 0 and 33) are
        // separated from the low-degree members.
        let g = generators::karate_club();
        let coloring = Rothko::new(RothkoConfig::with_max_colors(6)).run(&g);
        let p = &coloring.partition;
        let leader_color = p.color_of(0);
        let size = p.size(leader_color);
        assert!(size <= 6, "leader color unexpectedly large: {size}");
    }

    #[test]
    fn target_error_is_respected() {
        let g = generators::barabasi_albert(300, 3, 11);
        let coloring = Rothko::new(RothkoConfig::with_target_error(4.0)).run(&g);
        assert!(
            coloring.max_q_error <= 4.0,
            "expected q <= 4, got {}",
            coloring.max_q_error
        );
        assert!(coloring.partition.num_colors() < 300);
    }

    #[test]
    fn zero_error_target_reaches_stability() {
        // Running with target error 0 must produce a stable coloring (same
        // number of colors as classical color refinement or finer).
        let g = generators::karate_club();
        let coloring = Rothko::new(RothkoConfig::with_target_error(0.0)).run(&g);
        assert_eq!(coloring.max_q_error, 0.0);
        let stable = stable_coloring(&g);
        // Rothko's greedy splits cannot be coarser than the coarsest stable
        // coloring.
        assert!(coloring.partition.num_colors() >= stable.num_colors());
    }

    #[test]
    fn colored_regular_recovers_blueprint() {
        // The Fig. 2 graph has a perfect stable coloring with `groups`
        // colors; Rothko with that color budget should find a near-zero
        // error.
        let g = generators::colored_regular(10, 10, 4, 3, 5);
        let coloring = Rothko::new(RothkoConfig::with_max_colors(10)).run(&g);
        assert!(coloring.partition.num_colors() <= 10);
        assert!(
            coloring.max_q_error <= 3.0,
            "error {} too large for a block-regular graph",
            coloring.max_q_error
        );
    }

    #[test]
    fn anytime_interface_progresses() {
        let g = generators::barabasi_albert(200, 3, 3);
        let rothko = Rothko::new(RothkoConfig::with_max_colors(20));
        let mut run = rothko.start(&g);
        let mut colors_seen = vec![run.partition().num_colors()];
        while run.step() {
            colors_seen.push(run.partition().num_colors());
            assert!(run.partition().validate());
        }
        assert!(run.is_done());
        // Every step adds exactly one color.
        for w in colors_seen.windows(2) {
            assert_eq!(w[1], w[0] + 1);
        }
        let final_coloring = run.finish();
        assert_eq!(final_coloring.partition.num_colors(), 20);
        assert_eq!(final_coloring.iterations, 19);
    }

    #[test]
    fn fig6_two_maximal_colorings_graph() {
        // Fig. 6: top rows of n, n+1, n+2 nodes each pointing from a distinct
        // bottom node. With q = 1 the bottom nodes {1,2,3} cannot all share a
        // color but a 2/1 split is enough.
        let n = 5usize;
        let total = 3 + (n) + (n + 1) + (n + 2);
        let mut b = GraphBuilder::new_directed(total);
        let mut next = 3u32;
        for (bottom, count) in [(0u32, n), (1u32, n + 1), (2u32, n + 2)] {
            for _ in 0..count {
                b.add_edge(bottom, next, 1.0);
                next += 1;
            }
        }
        let g = b.build();
        let coloring = Rothko::new(RothkoConfig::with_target_error(1.0)).run(&g);
        assert!(coloring.max_q_error <= 1.0);
        // Bottom nodes must be split into exactly two colors ({1,2},{3} or
        // {1},{2,3}); top nodes can all share one color.
        let bottom_colors: std::collections::HashSet<u32> = [0, 1, 2]
            .iter()
            .map(|&v| coloring.partition.color_of(v))
            .collect();
        assert_eq!(bottom_colors.len(), 2);
    }

    #[test]
    fn geometric_split_balances_scale_free() {
        let g = generators::barabasi_albert(500, 3, 17);
        let arith =
            Rothko::new(RothkoConfig::with_max_colors(8).split_mean(SplitMean::Arithmetic)).run(&g);
        let geo =
            Rothko::new(RothkoConfig::with_max_colors(8).split_mean(SplitMean::Geometric)).run(&g);
        // Both are valid 8-color colorings.
        assert_eq!(arith.partition.num_colors(), 8);
        assert_eq!(geo.partition.num_colors(), 8);
        // The geometric split should produce a more balanced partition: its
        // largest color should not be larger than the arithmetic one's by
        // more than a small factor (typically it is much smaller).
        let max_arith = arith.partition.sizes().into_iter().max().unwrap();
        let max_geo = geo.partition.sizes().into_iter().max().unwrap();
        assert!(
            max_geo <= max_arith + 50,
            "geometric {max_geo} vs arithmetic {max_arith}"
        );
    }

    #[test]
    fn run_to_budget_checkpoints_are_resumable() {
        let g = generators::barabasi_albert(200, 3, 3);
        let rothko = Rothko::new(RothkoConfig::with_max_colors(20));
        let mut run = rothko.start(&g);
        // Intermediate budgets are checkpoints, not terminal stops.
        assert!(run.run_to_budget(7));
        assert_eq!(run.partition().num_colors(), 7);
        assert!(!run.is_done());
        assert!(run.run_to_budget(13));
        assert_eq!(run.partition().num_colors(), 13);
        // A checkpointed run equals a fresh run at the same budget.
        let fresh = Rothko::new(RothkoConfig::with_max_colors(13)).run(&g);
        assert!(run.partition().same_as(&fresh.partition));
        // The configured cap is terminal, and requests beyond it report
        // "not reached" so +1 ladders terminate.
        assert!(run.run_to_budget(20));
        assert!(run.is_done());
        assert!(!run.run_to_budget(21));
        assert_eq!(run.partition().num_colors(), 20);
    }

    #[test]
    fn run_to_budget_ladder_terminates_at_cap() {
        let g = generators::karate_club();
        let rothko = Rothko::new(RothkoConfig::with_max_colors(6));
        let mut run = rothko.start(&g);
        let mut checkpoints = 0;
        while run.run_to_budget(run.partition().num_colors() + 1) {
            checkpoints += 1;
            assert!(checkpoints <= 34, "ladder failed to terminate");
        }
        assert_eq!(run.partition().num_colors(), 6);
        assert_eq!(checkpoints, 5);
    }

    #[test]
    fn last_event_reflects_each_split() {
        let g = generators::karate_club();
        let rothko = Rothko::new(RothkoConfig::with_max_colors(8));
        let mut run = rothko.start(&g);
        assert!(run.last_event().is_none());
        let mut expected_child = 1u32;
        while run.step() {
            let event = run.last_event().expect("split recorded");
            assert_eq!(event.child, expected_child);
            assert_eq!(
                run.partition().members(event.child),
                event.moved_nodes.as_slice()
            );
            expected_child += 1;
        }
    }

    #[test]
    fn respects_initial_partition() {
        let g = generators::karate_club();
        let init = Partition::from_assignment(
            &(0..34)
                .map(|v| if v == 0 { 0 } else { 1 })
                .collect::<Vec<_>>(),
        );
        let config = RothkoConfig::with_max_colors(5).initial(init.clone());
        let coloring = Rothko::new(config).run(&g);
        assert!(coloring.partition.is_refinement_of(&init));
        assert_eq!(coloring.partition.num_colors(), 5);
    }

    #[test]
    fn empty_and_tiny_graphs() {
        let empty = qsc_graph::Graph::empty(0, false);
        let c = Rothko::new(RothkoConfig::with_max_colors(5)).run(&empty);
        assert_eq!(c.partition.num_colors(), 0);

        let single = qsc_graph::Graph::empty(1, false);
        let c = Rothko::new(RothkoConfig::with_max_colors(5)).run(&single);
        assert_eq!(c.partition.num_colors(), 1);
        assert_eq!(c.max_q_error, 0.0);
    }

    #[test]
    fn max_iterations_caps_work() {
        let g = generators::barabasi_albert(300, 3, 23);
        let config = RothkoConfig {
            max_colors: usize::MAX,
            target_error: 0.0,
            max_iterations: Some(5),
            ..Default::default()
        };
        let c = Rothko::new(config).run(&g);
        assert_eq!(c.iterations, 5);
        assert_eq!(c.partition.num_colors(), 6);
    }

    #[test]
    fn directed_graph_witnesses_both_directions() {
        // A directed graph where the only error is in the incoming
        // direction: two sinks with different in-degrees.
        let mut b = GraphBuilder::new_directed(6);
        // Sources 0..3 all point to sink 4; source 3 also points to sink 5.
        b.add_edge(0, 4, 1.0);
        b.add_edge(1, 4, 1.0);
        b.add_edge(2, 4, 1.0);
        b.add_edge(3, 4, 1.0);
        b.add_edge(3, 5, 1.0);
        let g = b.build();
        let c = Rothko::new(RothkoConfig::with_target_error(0.0)).run(&g);
        assert_eq!(c.max_q_error, 0.0);
        // Sinks 4 and 5 must end in different colors (different in-degrees),
        // and source 3 must differ from sources 0-2 (different out-degree).
        assert_ne!(c.partition.color_of(4), c.partition.color_of(5));
        assert_ne!(c.partition.color_of(3), c.partition.color_of(0));
        assert_eq!(c.partition.color_of(0), c.partition.color_of(1));
    }
}
