//! The `sweep` workload: the paper's anytime tradeoff (Figs. 7/8). One
//! refinement per instance, from one color, checkpointed at a ladder of
//! color budgets; at each budget the reduced instance is patched and
//! solved warm. The only workload that runs the LP layer, and the only one
//! with no churn and no persistence.

use qsc_core::reduced::{PatchedReducedGraph, ReducedDelta};
use qsc_core::rothko::RothkoConfig;
use qsc_core::sweep::ColoringSweep;
use qsc_core::Partition;
use qsc_flow::reduce::{approximate_max_flow, pinned_initial, relative_error, FlowApproxConfig};
use qsc_flow::{push_relabel, FlowNetwork, WarmFlowSolver};
use qsc_graph::{io, Graph};
use qsc_lp::reduce::coloring_graph;
use qsc_lp::simplex::{self, SimplexBasis, SimplexConfig};
use qsc_lp::sweep::PatchedReducedLp;
use qsc_lp::{
    reduce_with_rothko, LpColoringConfig, LpProblem, LpReductionVariant, LpStatus, ReducedLpDelta,
};

use crate::outcome::{ensure, timed_round, timed_setup, Ctx, Outcome};
use crate::pipeline::{capacity, Capacity};
use crate::trace::{median, span};

/// The offline stand-ins of the paper's four LPs.
const LP_INSTANCES: [&str; 4] = ["qap15", "nug08-3rd", "supportcase10", "ex10"];
/// The grid flow network's width and height.
pub const GRID: (usize, usize) = (300, 300);
/// The color-budget ladder every instance climbs.
const BUDGETS: &[usize] = &[5, 10, 20, 40, 60, 80, 100, 150, 200, 300];
/// Budgets at which the first ladder's answers are checked against the
/// cold pipeline.
const CHECK_BUDGETS: &[usize] = &[20, 200];
const VARIANT: LpReductionVariant = LpReductionVariant::SqrtNormalized;
/// Rounds (ladder steps) the p90 latency needs.
const MIN_ROUNDS: usize = 100;

struct LpInstance {
    name: &'static str,
    problem: LpProblem,
    graph: Graph,
    initial: Partition,
}

pub struct Instances {
    lps: Vec<LpInstance>,
    network: FlowNetwork,
}

fn load(ctx: &Ctx) -> Result<Instances, String> {
    let lps = LP_INSTANCES
        .iter()
        .map(|&name| {
            span("lp.ingest", || {
                let problem = qsc_datasets::load_lp(name, qsc_datasets::Scale::Full)
                    .map_err(|e| format!("load {name}: {e}"))?;
                let (graph, initial) = coloring_graph(&problem);
                Ok(LpInstance {
                    name,
                    problem,
                    graph,
                    initial,
                })
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let file = std::fs::File::open(&ctx.input).map_err(|e| format!("open grid: {e}"))?;
    let parsed = span("graph.ingest", || io::read_dimacs_max_flow(file))
        .map_err(|e| format!("read grid: {e}"))?;
    let network = FlowNetwork::new(parsed.graph, parsed.source, parsed.sink);
    Ok(Instances { lps, network })
}

/// One ladder step's result.
struct Step {
    splits: usize,
    colors: usize,
    value: f64,
    pivots: usize,
    warm_used: bool,
    arcs: usize,
}

struct LpLadder<'a> {
    inst: &'a LpInstance,
    sweep: ColoringSweep<'a>,
    delta: ReducedLpDelta<'a>,
    emitter: PatchedReducedLp,
    basis: Option<SimplexBasis>,
    config: SimplexConfig,
    splits: usize,
}

impl<'a> LpLadder<'a> {
    fn new(inst: &'a LpInstance) -> Self {
        let paper = LpColoringConfig::with_max_colors(usize::MAX);
        let config = RothkoConfig {
            alpha: paper.alpha,
            beta: paper.beta,
            split_mean: paper.split_mean,
            initial: Some(inst.initial.clone()),
            threads: Some(1),
            ..Default::default()
        };
        let sweep = span("core.sweep", || ColoringSweep::new(&inst.graph, config));
        let mut delta = span("lp.emit", || ReducedLpDelta::new(&inst.problem));
        let emitter = span("lp.emit", || PatchedReducedLp::new(&mut delta, VARIANT));
        LpLadder {
            inst,
            sweep,
            delta,
            emitter,
            basis: None,
            config: SimplexConfig::default(),
            splits: 0,
        }
    }

    fn step(&mut self, budget: usize) -> Result<Step, String> {
        let (sweep, delta) = (&mut self.sweep, &mut self.delta);
        let checkpoint = span("core.sweep", || {
            sweep.advance_to(budget.max(4), |_, ev| {
                span("lp.apply", || delta.apply_split(ev))
            })
        });
        let problem = span("lp.emit", || {
            self.emitter.sync(&mut self.delta);
            self.emitter.to_problem(&self.inst.problem.name)
        });
        let warm = span("lp.solve", || {
            simplex::solve_warm(&problem, &self.config, self.basis.as_ref())
        });
        if warm.solution.status != LpStatus::Optimal {
            return Err(format!(
                "{} at budget {budget}: {:?} after {} pivots",
                self.inst.name, warm.solution.status, warm.solution.iterations
            ));
        }
        self.basis = warm.basis;
        let splits = checkpoint.iterations - self.splits;
        self.splits = checkpoint.iterations;
        Ok(Step {
            splits,
            colors: checkpoint.colors,
            value: warm.solution.objective,
            pivots: warm.solution.iterations,
            warm_used: warm.warm_used,
            arcs: 0,
        })
    }

    /// The cold pipeline at `budget`: a fresh coloring, a from-scratch
    /// reduction and a cold simplex solve.
    fn cold(&self, budget: usize) -> Result<f64, String> {
        let reduced = reduce_with_rothko(
            &self.inst.problem,
            &LpColoringConfig::with_max_colors(budget),
            VARIANT,
        );
        let solution = simplex::solve(&reduced.problem);
        if solution.status != LpStatus::Optimal {
            return Err(format!("cold solve {:?}", solution.status));
        }
        Ok(solution.objective)
    }
}

struct FlowLadder<'a> {
    network: &'a FlowNetwork,
    sweep: ColoringSweep<'a>,
    delta: ReducedDelta,
    emitter: PatchedReducedGraph<Capacity>,
    solver: WarmFlowSolver,
    terminals: (u32, u32),
    splits: usize,
}

impl<'a> FlowLadder<'a> {
    fn new(network: &'a FlowNetwork) -> Self {
        let initial = pinned_initial(network);
        let terminals = (
            initial.color_of(network.source),
            initial.color_of(network.sink),
        );
        let config = RothkoConfig {
            initial: Some(initial),
            threads: Some(1),
            ..Default::default()
        };
        let sweep = span("core.sweep", || ColoringSweep::new(&network.graph, config));
        let mut delta = span("reduced.emit", || {
            ReducedDelta::new(&network.graph, sweep.partition())
        });
        let emitter = span("reduced.emit", || {
            PatchedReducedGraph::new(&mut delta, capacity as Capacity)
        });
        FlowLadder {
            network,
            sweep,
            delta,
            emitter,
            solver: WarmFlowSolver::new(),
            terminals,
            splits: 0,
        }
    }

    fn step(&mut self, budget: usize) -> Result<Step, String> {
        let graph = &self.network.graph;
        let (sweep, delta) = (&mut self.sweep, &mut self.delta);
        let checkpoint = span("core.sweep", || {
            sweep.advance_to(budget.max(3), |p, ev| {
                span("reduced.apply", || delta.apply_split(graph, p, ev))
            })
        });
        let reduced = span("reduced.emit", || {
            self.emitter.sync(&mut self.delta);
            self.emitter.to_graph()
        });
        let arcs = reduced.num_arcs();
        let (s, t) = self.terminals;
        let result = span("flow.solve", || {
            self.solver.solve(&FlowNetwork::new(reduced, s, t))
        });
        if result.value.is_nan() || result.value <= 0.0 {
            return Err(format!(
                "grid at budget {budget}: flow value {}",
                result.value
            ));
        }
        let splits = checkpoint.iterations - self.splits;
        self.splits = checkpoint.iterations;
        Ok(Step {
            splits,
            colors: checkpoint.colors,
            value: result.value,
            pivots: result.iterations,
            warm_used: false,
            arcs,
        })
    }
}

enum Ladder<'a> {
    Lp(Box<LpLadder<'a>>),
    Flow(Box<FlowLadder<'a>>),
}

impl Ladder<'_> {
    fn step(&mut self, budget: usize) -> Result<Step, String> {
        match self {
            Ladder::Lp(l) => l.step(budget),
            Ladder::Flow(f) => f.step(budget),
        }
    }

    /// The cold answer at `budget`, and whether it must equal the warm
    /// one bit for bit (quarter-integer flow capacities) or within 1e-9.
    fn cold(&self, budget: usize) -> Result<(f64, bool), String> {
        match self {
            Ladder::Lp(l) => Ok((l.cold(budget)?, false)),
            Ladder::Flow(f) => {
                let cold =
                    approximate_max_flow(f.network, &FlowApproxConfig::with_max_colors(budget));
                Ok((cold.value, true))
            }
        }
    }
}

impl Instances {
    fn count(&self) -> usize {
        self.lps.len() + 1
    }

    /// A fresh ladder (one color) for instance `i`: the LPs, then the grid.
    fn ladder(&self, i: usize) -> Ladder<'_> {
        match self.lps.get(i) {
            Some(lp) => Ladder::Lp(Box::new(LpLadder::new(lp))),
            None => Ladder::Flow(Box::new(FlowLadder::new(&self.network))),
        }
    }
}

fn compare(warm: f64, cold: f64, exact_bits: bool) -> Result<(), String> {
    let ok = if exact_bits {
        warm.to_bits() == cold.to_bits()
    } else {
        (warm - cold).abs() <= 1e-9 * (1.0 + cold.abs())
    };
    ensure(ok, || format!("warm {warm} vs cold {cold}"))
}

/// Set-up: instances loaded, every instance's first budget answered.
pub fn setup(ctx: &Ctx, out: &mut Outcome) -> Option<Instances> {
    let (loaded, secs) = timed_setup(ctx, || {
        let inst = load(ctx)?;
        for i in 0..inst.count() {
            inst.ladder(i).step(BUDGETS[0])?;
        }
        Ok::<_, String>(inst)
    });
    out.setup_s = secs;
    out.op("setup", loaded)
}

pub fn sweep(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let Some(inst) = setup(ctx, &mut out) else {
        return out;
    };
    let mut top = vec![0.0f64; inst.count()];
    let mut ladder_s = Vec::new();
    let (mut lp_steps, mut warm_steps) = (0usize, 0usize);
    let mut ladder_no = 0usize;
    'ladders: while !out.measured(ctx.seconds, MIN_ROUNDS) {
        // Steps differ by budget, so a traced run traces whole ladders
        // (every other one) to compare like with like.
        let traced = ctx.traced_round(ladder_no);
        let mut ladder_time = 0.0;
        for (i, top) in top.iter_mut().enumerate() {
            let mut ladder: Option<Ladder> = None;
            for &budget in BUDGETS {
                // A ladder's first step includes building it: climbing from
                // one color is part of the sweep.
                let (result, ms) = timed_round(traced, || {
                    ladder.get_or_insert_with(|| inst.ladder(i)).step(budget)
                });
                let Some(step) = out.op("sweep point", result) else {
                    break 'ladders;
                };
                out.count_round(traced, ms, step.splits);
                ladder_time += ms * 1e-3;
                out.add("core.splits", step.splits as f64);
                match ladder.as_ref() {
                    Some(Ladder::Lp(_)) => {
                        lp_steps += 1;
                        warm_steps += usize::from(step.warm_used);
                        out.add("lp.pivots", step.pivots as f64);
                    }
                    _ => {
                        out.add("flow.iterations", step.pivots as f64);
                        out.set("reduced.arcs", step.arcs as f64);
                        out.set("colors", step.colors as f64);
                    }
                }
                *top = step.value;
                if ladder_no == 0 && CHECK_BUDGETS.contains(&budget) {
                    let l = ladder.as_ref().expect("ladder built by its first step");
                    let checked = l
                        .cold(budget)
                        .and_then(|(cold, bits)| compare(step.value, cold, bits));
                    out.check("warm vs cold", checked);
                }
            }
        }
        ladder_s.push(ladder_time);
        ladder_no += 1;
    }
    if !ladder_s.is_empty() {
        out.set("sweep_s", median(&ladder_s));
    }
    if lp_steps > 0 {
        out.set("lp.warm_used_frac", warm_steps as f64 / lp_steps as f64);
    }
    // Untimed: the paper's error against exact answers on the full
    // instances, as a geometric mean over instances at the top budget.
    if ladder_no > 0 {
        let mut exact: Vec<f64> = inst
            .lps
            .iter()
            .map(|lp| simplex::solve(&lp.problem).objective)
            .collect();
        exact.push(push_relabel::max_flow(&inst.network).value);
        let log_sum: f64 = exact
            .iter()
            .zip(&top)
            .map(|(&e, &a)| relative_error(e, a).ln())
            .sum();
        out.set("answer_rel_error", (log_sum / exact.len() as f64).exp());
    }
    out
}
