//! The live graph pipeline the round-based workloads drive: a
//! `GraphDelta` overlay, the Rothko run and its engine, the lockstep
//! `ReducedDelta`, the patched reduced instance, a max-flow answer between
//! two fixed terminals, and the store (WAL + checkpoints).
//!
//! The answer is a cold push-relabel solve of the reduced instance.
//! `WarmFlowSolver` returns sub-maximal flows once churn lowers reduced
//! capacities (seen here as 1346 against a cold 1347 on the same
//! network), so a round-based workload using it would report failures.
//!
//! Every call into a library layer is wrapped in a [`span`] named after
//! that layer; whatever a round does outside those spans is the harness's
//! own time.

use std::path::{Path, PathBuf};

use qsc_core::partition::PartitionEvent;
use qsc_core::reduced::{PatchedReducedGraph, ReducedDelta};
use qsc_core::rothko::{NodeChurnBatch, Rothko, RothkoConfig, RothkoRun};
use qsc_core::Partition;
use qsc_flow::{push_relabel, FlowNetwork};
use qsc_graph::delta::EdgeEvent;
use qsc_graph::{io, Graph, GraphDelta, NodeId};
use qsc_persist::{
    encode_checkpoint, CheckpointData, CheckpointStats, Layout, MappedStore, Store, StoreOptions,
    CHECKPOINT_FILE,
};

use crate::inputs::{hub_terminals, pinned_partition};
use crate::outcome::ensure;
use crate::trace::span;

/// The reduced-capacity weighting of the flow reduction: self-loops carry
/// no s-t flow.
pub type Capacity = fn(usize, usize, f64, usize, usize) -> f64;

pub fn capacity(i: usize, j: usize, sum: f64, _: usize, _: usize) -> f64 {
    if i == j {
        0.0
    } else {
        sum.max(0.0)
    }
}

/// What a graph workload's stack is configured with.
#[derive(Clone, Debug)]
pub struct StackConfig {
    pub max_colors: usize,
    pub target_error: f64,
    pub coarsen: bool,
    pub threads: usize,
}

/// What one churn round did.
pub struct Round {
    /// Edge events plus node inserts and removals absorbed.
    pub events: usize,
    pub splits: usize,
    pub merges: usize,
    /// Node rows the compaction rewrote.
    pub rows: usize,
    /// The batch's edge events.
    pub edge_events: Vec<EdgeEvent>,
    /// Node ids removed (node rounds only).
    pub removed: Vec<NodeId>,
}

impl Round {
    /// Distinct node rows the batch changed (both endpoints: the graphs
    /// here are undirected, so every event touches two rows). Computed
    /// after the round, off its clock.
    pub fn touched_rows(&self) -> usize {
        let mut rows: Vec<NodeId> = self
            .edge_events
            .iter()
            .flat_map(|e| [e.source, e.target])
            .collect();
        rows.sort_unstable();
        rows.dedup();
        rows.len()
    }
}

/// Everything a sampled round keeps for its output checks.
pub struct Evidence {
    pub pre_maintain: Partition,
    pub emitted: Graph,
}

pub struct Stack {
    pub delta: GraphDelta,
    pub run: RothkoRun<'static>,
    pub reduced: ReducedDelta,
    emitter: PatchedReducedGraph<Capacity>,
    store: Store,
    dir: PathBuf,
    layout: Layout,
    s: NodeId,
    t: NodeId,
    /// The latest max-flow answer.
    pub answer: f64,
    /// Arcs of the latest emitted reduced instance.
    pub arcs: usize,
    /// Relabels summed over every flow solve.
    pub flow_iterations: usize,
    /// Events logged since the last checkpoint.
    pub logged_events: usize,
}

fn store_options(layout: Layout) -> StoreOptions {
    StoreOptions {
        layout,
        ..StoreOptions::default()
    }
}

fn persist_err(what: &str) -> impl Fn(qsc_persist::PersistError) -> String + '_ {
    move |e| format!("{what}: {e}")
}

impl Stack {
    /// The set-up path: edge-list file → CSR → refinement → first emission
    /// and answer → store created and first checkpoint written.
    pub fn build(
        edge_list: &Path,
        dir: &Path,
        cfg: &StackConfig,
    ) -> Result<(Stack, CheckpointStats), String> {
        let g = span("graph.ingest", || io::read_edge_list_file(edge_list, false))
            .map_err(|e| format!("read edge list: {e}"))?;
        let (s, t) = hub_terminals(&g);
        let config = RothkoConfig {
            max_colors: cfg.max_colors,
            target_error: cfg.target_error,
            coarsen: cfg.coarsen,
            threads: Some(cfg.threads),
            initial: Some(pinned_partition(g.num_nodes(), s, t)),
            ..Default::default()
        };
        // The run borrows its start graph for its whole life; each process
        // builds one stack, so the graph is leaked rather than threaded
        // through a lifetime.
        let graph: &'static Graph = Box::leak(Box::new(g));
        let run = span("core.refine", || {
            let mut run = Rothko::new(config).start(graph);
            run.maintain();
            run
        });
        let mut reduced = span("reduced.emit", || ReducedDelta::new(graph, run.partition()));
        let emitter = span("reduced.emit", || {
            PatchedReducedGraph::new(&mut reduced, capacity as Capacity)
        });
        let delta = span("graph.mutate", || GraphDelta::new(graph.clone()));
        let store = span("persist.wal_append", || {
            Store::create(dir, store_options(Layout::Packed))
        })
        .map_err(persist_err("create store"))?;
        let mut stack = Stack {
            delta,
            run,
            reduced,
            emitter,
            store,
            dir: dir.to_path_buf(),
            layout: Layout::Packed,
            s,
            t,
            answer: 0.0,
            arcs: 0,
            flow_iterations: 0,
            logged_events: 0,
        };
        stack.answer(false)?;
        let stats = stack.checkpoint()?;
        Ok((stack, stats))
    }

    pub fn threads(&self) -> usize {
        self.run.config().threads.unwrap_or(1)
    }

    /// Patch the emitted reduced instance and answer the max-flow query on
    /// it. With `keep`, returns a copy of the emitted instance.
    pub fn answer(&mut self, keep: bool) -> Result<Option<Graph>, String> {
        let net = span("reduced.emit", || {
            self.emitter.sync(&mut self.reduced);
            self.emitter.to_graph()
        });
        let p = self.run.partition();
        let (cs, ct) = (p.color_of(self.s), p.color_of(self.t));
        if cs == ct || p.size(cs) != 1 || p.size(ct) != 1 {
            return Err("a terminal lost its singleton color".into());
        }
        self.arcs = net.num_arcs();
        let kept = keep.then(|| net.clone());
        let network = FlowNetwork::new(net, cs, ct);
        let result = span("flow.solve", || push_relabel::max_flow(&network));
        self.answer = result.value;
        self.flow_iterations += result.iterations;
        Ok(kept)
    }

    /// Log the maintenance call, maintain with the reduced instance in
    /// lockstep, and sync the WAL. Returns (splits, merges).
    fn maintain(&mut self) -> Result<(usize, usize), String> {
        span("persist.wal_append", || self.store.log_maintain()).map_err(persist_err("log"))?;
        let merges_before = self.run.merges();
        let base = self.delta.base();
        let reduced = &mut self.reduced;
        let ops = span("core.maintain", || {
            self.run.maintain_with(|p, ev| {
                span("reduced.apply", || match ev {
                    PartitionEvent::Split(s) => reduced.apply_split(base, p, s),
                    PartitionEvent::Merge(m) => reduced.apply_merge(m),
                    PartitionEvent::NodeInsert { .. } | PartitionEvent::NodeRemove { .. } => {}
                })
            })
        });
        let merges = self.run.merges() - merges_before;
        span("persist.wal_sync", || self.store.sync()).map_err(persist_err("sync"))?;
        Ok((ops - merges, merges))
    }

    /// One edge-churn round: mutate, log, compact, apply, maintain, sync,
    /// emit, answer.
    pub fn edge_round(
        &mut self,
        deletes: &[(NodeId, NodeId)],
        inserts: &[(NodeId, NodeId)],
        keep: bool,
    ) -> Result<(Round, Option<Evidence>), String> {
        let delta = &mut self.delta;
        let events: Vec<EdgeEvent> = span("graph.mutate", || {
            for &(u, v) in deletes {
                delta
                    .delete_edge(u, v)
                    .map_err(|e| format!("delete {u}-{v}: {e}"))?;
            }
            for &(u, v) in inserts {
                delta
                    .insert_edge(u, v, 1.0)
                    .map_err(|e| format!("insert {u}-{v}: {e}"))?;
            }
            Ok::<_, String>(delta.drain_events())
        })?;
        span("persist.wal_append", || self.store.log_edge_batch(&events))
            .map_err(persist_err("log"))?;
        self.logged_events += events.len();
        let rows = self.delta.num_nodes();
        let compacted = span("graph.compact", || self.delta.compact());
        span("core.apply", || {
            self.run.apply_edge_batch(compacted, &events)
        });
        span("reduced.apply", || {
            self.reduced.apply_edge_batch(self.run.partition(), &events)
        });
        let pre_maintain = keep.then(|| self.run.partition().clone());
        let (splits, merges) = self.maintain()?;
        let emitted = self.answer(keep)?;
        let round = Round {
            events: events.len(),
            splits,
            merges,
            rows,
            edge_events: events,
            removed: Vec::new(),
        };
        Ok((
            round,
            pre_maintain
                .zip(emitted)
                .map(|(pre_maintain, emitted)| Evidence {
                    pre_maintain,
                    emitted,
                }),
        ))
    }

    /// One node-churn round: insert nodes wired to `wiring` (one slice of
    /// original-node targets per new node), remove those of `due` whose
    /// color keeps a member, then the same pipeline as an edge round. The
    /// reduced instance mirrors the batch in order: inserts, edges,
    /// removals.
    pub fn node_round(
        &mut self,
        wiring: &[&[NodeId]],
        due: &[NodeId],
        keep: bool,
    ) -> Result<(Round, Option<Evidence>), String> {
        let delta = &mut self.delta;
        let p = self.run.partition();
        let (inserted_colors, edge_events, removed) = span("graph.mutate", || {
            let mut sizes = p.sizes();
            let mut colors = Vec::with_capacity(wiring.len());
            for targets in wiring {
                let v = delta.insert_node();
                let mut color = None;
                for &t in *targets {
                    if !delta.has_edge(v, t) {
                        delta
                            .insert_edge(v, t, 1.0)
                            .map_err(|e| format!("wire {v}-{t}: {e}"))?;
                        color.get_or_insert(p.color_of(t));
                    }
                }
                let c = color.unwrap_or(0);
                sizes[c as usize] += 1;
                colors.push(c);
            }
            let mut removed = Vec::with_capacity(due.len());
            for &v in due {
                let c = p.color_of(v) as usize;
                if sizes[c] >= 2 {
                    delta
                        .remove_node(v)
                        .map_err(|e| format!("remove {v}: {e}"))?;
                    sizes[c] -= 1;
                    removed.push(v);
                }
            }
            let events = delta.drain_events();
            delta.drain_node_events();
            Ok::<_, String>((colors, events, removed))
        })?;
        let rows = self.delta.num_nodes();
        let (compacted, remap) = span("graph.compact", || self.delta.compact_renumber());
        let batch = NodeChurnBatch {
            inserted_colors,
            edge_events,
            removed,
            remap,
        };
        span("persist.wal_append", || self.store.log_node_batch(&batch))
            .map_err(persist_err("log"))?;
        let events = batch.edge_events.len() + batch.inserted_colors.len() + batch.removed.len();
        self.logged_events += events;
        // The reduced instance speaks the grown, pre-renumbering id space,
        // so it mirrors the batch against a grown copy of the partition.
        let mut grown = self.run.partition().clone();
        for &c in &batch.inserted_colors {
            grown.insert_node(c);
        }
        span("reduced.apply", || {
            for &c in &batch.inserted_colors {
                self.reduced.apply_node_insert(c);
            }
            self.reduced.apply_edge_batch(&grown, &batch.edge_events);
            for &v in &batch.removed {
                self.reduced.apply_node_removal(grown.color_of(v));
            }
        });
        span("core.apply", || {
            self.run.apply_node_batch(compacted, &batch)
        });
        let pre_maintain = keep.then(|| self.run.partition().clone());
        let (splits, merges) = self.maintain()?;
        let emitted = self.answer(keep)?;
        let round = Round {
            events,
            splits,
            merges,
            rows,
            edge_events: batch.edge_events,
            removed: batch.removed,
        };
        Ok((
            round,
            pre_maintain
                .zip(emitted)
                .map(|(pre_maintain, emitted)| Evidence {
                    pre_maintain,
                    emitted,
                }),
        ))
    }

    /// The output checks of a sampled round: the reduced instance equals a
    /// from-scratch quotient, the patched emission equals a dense
    /// re-emission, and a fresh run resumed from the pre-maintenance
    /// coloring reaches the same coloring.
    pub fn check(&self, evidence: Evidence) -> Result<(), String> {
        let graph = self.delta.base();
        self.reduced
            .verify_against(graph, self.run.partition())
            .map_err(|e| format!("reduced instance diverged: {e}"))?;
        let dense = self.reduced.reduced_graph_with(capacity);
        ensure(dense.arcs().eq(evidence.emitted.arcs()), || {
            "patched emission differs from a dense re-emission".into()
        })?;
        let mut config = self.run.config().clone();
        config.initial = Some(evidence.pre_maintain);
        let mut fresh = Rothko::new(config).start(graph);
        fresh.maintain();
        ensure(
            fresh.partition().assignment() == self.run.partition().assignment(),
            || "maintained coloring differs from a fresh resumed run".into(),
        )
    }

    /// The exact max-flow between the terminals on the full current graph.
    pub fn exact_answer(&self) -> f64 {
        let net = FlowNetwork::new(self.delta.base().clone(), self.s, self.t);
        push_relabel::max_flow(&net).value
    }

    /// Make the store write its next checkpoints in `layout` (it is
    /// reopened when the layout changes).
    pub fn set_layout(&mut self, layout: Layout) -> Result<(), String> {
        if layout != self.layout {
            self.store.sync().map_err(persist_err("sync"))?;
            self.store = Store::open_at(&self.dir, self.store.last_seq(), store_options(layout))
                .map_err(persist_err("reopen store"))?;
            self.layout = layout;
        }
        Ok(())
    }

    /// Write a checkpoint in the store's current layout.
    pub fn checkpoint(&mut self) -> Result<CheckpointStats, String> {
        let stats = span("persist.checkpoint", || {
            self.store.checkpoint(&self.run, Some(&self.reduced))
        })
        .map_err(persist_err("checkpoint"))?;
        self.logged_events = 0;
        Ok(stats)
    }

    /// Bytes in the store directory: the checkpoint plus live WAL segments.
    pub fn disk_bytes(&self) -> Result<(u64, u64), String> {
        let mut ckpt = 0;
        let mut wal = 0;
        for entry in std::fs::read_dir(&self.dir).map_err(|e| format!("read store dir: {e}"))? {
            let entry = entry.map_err(|e| format!("read store dir: {e}"))?;
            let len = entry.metadata().map_err(|e| format!("stat: {e}"))?.len();
            if entry.file_name() == CHECKPOINT_FILE {
                ckpt += len;
            } else if entry.path().extension().is_some_and(|x| x == "seg") {
                wal += len;
            }
        }
        Ok((ckpt, wal))
    }

    /// Open the mapped checkpoint and read the complete coloring — the
    /// first query a mapped restart answers — and check its length.
    pub fn mapped_first_query(&self) -> Result<(), String> {
        let store = span("persist.mapped_open", || MappedStore::open_dir(&self.dir))
            .map_err(persist_err("mapped open"))?;
        let coloring = span("persist.mapped_coloring", || store.coloring())
            .map_err(persist_err("mapped coloring"))?;
        let n = self.run.partition().num_nodes();
        ensure(coloring.len() == n, || {
            format!("mapped coloring has {} nodes, live run {n}", coloring.len())
        })
    }

    /// Recover the store into a new stack and answer the first query on
    /// it. Returns the stack and the number of WAL records replayed.
    pub fn recover(&self) -> Result<(Stack, usize), String> {
        let rec = span("persist.recover", || {
            Store::recover(&self.dir, Some(self.threads()))
        })
        .map_err(persist_err("recover"))?;
        let mut reduced = rec
            .reduced
            .ok_or("checkpoint carried no reduced instance")?;
        let emitter = span("reduced.emit", || {
            PatchedReducedGraph::new(&mut reduced, capacity as Capacity)
        });
        let store = Store::open_at(&self.dir, rec.last_seq, store_options(self.layout))
            .map_err(persist_err("reopen store"))?;
        let mut stack = Stack {
            // Placeholder overlay until the first answer is out; the
            // recovered graph is cloned into it right after.
            delta: GraphDelta::new(Graph::empty(0, false)),
            run: rec.run,
            reduced,
            emitter,
            store,
            dir: self.dir.clone(),
            layout: self.layout,
            s: self.s,
            t: self.t,
            answer: 0.0,
            arcs: 0,
            flow_iterations: 0,
            logged_events: self.logged_events,
        };
        stack.answer(false)?;
        Ok((stack, rec.replayed))
    }

    /// Give a recovered stack its mutation overlay (outside the recovery
    /// stall: the first answer does not need it).
    pub fn attach_overlay(&mut self) {
        self.delta = span("graph.mutate", || GraphDelta::new(self.run.graph().clone()));
    }

    /// Canonical bytes of the stack's logical state, for comparing a
    /// recovered stack with the live one.
    pub fn state_bytes(&self) -> Vec<u8> {
        let mut config = self.run.config().clone();
        config.initial = None;
        config.threads = None;
        let mut reduced = self.reduced.snapshot();
        reduced.dirty.clear();
        let data = CheckpointData {
            graph: self.run.graph().clone(),
            config,
            run: self.run.snapshot(),
            reduced: Some(reduced),
            wal_seq: 0,
        };
        encode_checkpoint(&data).0
    }
}
