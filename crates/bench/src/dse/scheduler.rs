//! The DSE scheduler: climbs the fidelity ladder, prunes dominated
//! configurations between rungs, and journals every cell for resume.
//!
//! Per rung, the scheduler simulates each still-interesting
//! configuration over every spec's *frozen* full-budget trace through
//! an [`acic_trace::Truncated`] prefix view (one trace set for the
//! whole sweep: a spec freezes the first time a rung computes a cell
//! over it, and later rungs and threads share that trace), pools the
//! per-spec confidence intervals into objective coordinates, and runs
//! one interval-dominance prune round ([`super::frontier`]). Pruned
//! configurations never climb further; configurations whose
//! coordinates have *settled* (every CI half-width under the target
//! precision) skip the remaining **intermediate** rungs. The final
//! rung always re-simulates every survivor: reported results are
//! full-fidelity by construction, which is what lets `tests/dse.rs`
//! pin the surviving frontier's ranking against an exhaustive
//! full-detail reference.
//!
//! Every finished cell is journaled under its
//! [`crate::cell::dse_cell_key`] as soon as it completes, so
//! a killed sweep resumes with zero recomputed finished cells; the
//! prune/settle decisions are pure functions of the reports, so a
//! resumed sweep reproduces the identical frontier.

use super::frontier::{objective_coords, pareto_frontier, settled, Interval};
use super::ladder::Ladder;
use super::space::DseSpace;
use crate::cell::{Cell, Exec};
use crate::result_store::ResultStore;
use crate::runner::{bench_threads, execute, Batch, TraceSet, DEFAULT_INSTRUCTIONS};
use crate::supervise::SuperviseCtx;
use acic_sim::{SampleSchedule, SimReport};
use std::sync::Arc;
use std::time::Duration;

/// Knobs for one DSE sweep.
#[derive(Clone)]
pub struct DseOptions {
    /// The fidelity ladder (its last rung fixes the full per-cell
    /// budget).
    pub ladder: Ladder,
    /// Relative CI half-width under which a configuration counts as
    /// settled (skips intermediate rungs).
    pub precision: f64,
    /// Absolute floor for the settling test's midpoint scale.
    pub eps: f64,
    /// Journal finished cells here and replay them on resume.
    pub store: Option<Arc<ResultStore>>,
    /// Per-cell deadline, as on [`crate::Runner::cell_timeout`]: hard
    /// per cell attempt when supervised; in process, a cell past it
    /// (its spec's freeze included) ends the run. Defaults to none.
    pub cell_timeout: Option<Duration>,
    /// Cell pool slots (defaults to `ACIC_BENCH_THREADS`).
    pub threads: usize,
    /// Process supervision, as on [`crate::Runner::supervise`]: a
    /// supervised parent runs every to-be-computed rung cell in its
    /// pool slot's `--run-cell` worker (hard timeouts, fixed-budget
    /// retries, crash reports). Defaults to `None` (in-process).
    pub supervise: Option<Arc<SuperviseCtx>>,
}

impl Default for DseOptions {
    fn default() -> Self {
        DseOptions {
            ladder: Ladder::new(DEFAULT_INSTRUCTIONS, 3, SampleSchedule::default_sampled()),
            precision: 0.02,
            eps: 1e-3,
            store: None,
            cell_timeout: None,
            threads: bench_threads(),
            supervise: None,
        }
    }
}

/// What one rung of the sweep did.
#[derive(Clone, Debug)]
pub struct RungStats {
    /// Rung index.
    pub rung: usize,
    /// Prefix budget simulated.
    pub budget: u64,
    /// Configurations simulated (alive, and either unsettled or at
    /// the final rung).
    pub active: usize,
    /// Cells served from the result store.
    pub replayed: u64,
    /// Cells simulated this run.
    pub computed: u64,
    /// Configurations newly pruned after this rung.
    pub pruned: usize,
    /// Configurations newly settled after this rung.
    pub settled: usize,
    /// Configurations still alive after this rung's prune round.
    pub alive_after: usize,
}

/// Full provenance for one configuration across the sweep.
#[derive(Clone, Debug)]
pub struct ConfigOutcome {
    /// The configuration's display label.
    pub label: String,
    /// Whether it was protected from pruning.
    pub protected: bool,
    /// Whether it survived to the end.
    pub alive: bool,
    /// Rung after which it was pruned.
    pub pruned_at: Option<usize>,
    /// Label of the configuration that dominated it.
    pub pruned_by: Option<String>,
    /// Rung after which its CIs settled.
    pub settled_at: Option<usize>,
    /// Highest rung it actually simulated (None if it never ran —
    /// only possible when the sweep failed).
    pub refined_to: Option<usize>,
    /// Per-spec reports from its highest rung (spec order of the
    /// space).
    pub reports: Vec<SimReport>,
}

/// The result of a completed sweep.
#[derive(Clone, Debug)]
pub struct DseRun {
    /// Space name (provenance).
    pub space: String,
    /// Per-rung accounting.
    pub rungs: Vec<RungStats>,
    /// Per-configuration provenance, space order.
    pub outcomes: Vec<ConfigOutcome>,
    /// Total cells replayed from the store.
    pub replayed: u64,
    /// Total cells simulated.
    pub computed: u64,
}

impl DseRun {
    /// Indices of surviving configurations.
    pub fn survivors(&self) -> Vec<usize> {
        (0..self.outcomes.len())
            .filter(|&i| self.outcomes[i].alive)
            .collect()
    }

    /// Survivor indices on the *strict* Pareto frontier of the final
    /// full-fidelity midpoints (the frontier the exhaustive reference
    /// is compared against). Protected configurations are kept even
    /// when dominated — they are the reporting baseline.
    pub fn final_frontier(&self) -> Vec<usize> {
        let survivors = self.survivors();
        let points: Vec<Vec<f64>> = survivors
            .iter()
            .map(|&i| midpoints(&self.outcomes[i].reports))
            .collect();
        let on = pareto_frontier(&points);
        survivors
            .into_iter()
            .zip(on)
            .filter(|&(i, keep)| keep || self.outcomes[i].protected)
            .map(|(i, _)| i)
            .collect()
    }

    /// The JSON-lines report: a header line with the sweep's shape,
    /// then one line per configuration with its full provenance
    /// (pruned-at, refined-to, final intervals).
    pub fn jsonl(&self) -> String {
        let mut out = String::new();
        let budgets: Vec<String> = self.rungs.iter().map(|r| r.budget.to_string()).collect();
        out.push_str(&format!(
            "{{\"schema\":\"acic-dse/v1\",\"space\":\"{}\",\"rung_budgets\":[{}],\"replayed\":{},\"computed\":{}}}\n",
            self.space,
            budgets.join(","),
            self.replayed,
            self.computed
        ));
        let baseline = self
            .outcomes
            .iter()
            .find(|o| o.protected && !o.reports.is_empty());
        for o in &self.outcomes {
            let objectives: Vec<String> = o
                .reports
                .iter()
                .enumerate()
                .map(|(j, r)| {
                    let reduction = baseline
                        .and_then(|b| b.reports.get(j))
                        .map(|b| mid(b.mpki_interval()))
                        .filter(|&bm| bm > 0.0)
                        .map(|bm| (bm - mid(r.mpki_interval())) / bm);
                    format!(
                        "{{\"app\":\"{}\",\"ipc\":{},\"mpki\":{},\"mpki_reduction_vs_baseline\":{}}}",
                        r.app,
                        interval_json(r.ipc_interval()),
                        interval_json(r.mpki_interval()),
                        reduction.map_or("null".into(), fmt_num)
                    )
                })
                .collect();
            out.push_str(&format!(
                "{{\"label\":\"{}\",\"protected\":{},\"alive\":{},\"pruned_at\":{},\"pruned_by\":{},\"settled_at\":{},\"refined_to\":{},\"objectives\":[{}]}}\n",
                o.label,
                o.protected,
                o.alive,
                opt_num(o.pruned_at),
                o.pruned_by
                    .as_ref()
                    .map_or("null".to_string(), |l| format!("\"{l}\"")),
                opt_num(o.settled_at),
                opt_num(o.refined_to),
                objectives.join(",")
            ));
        }
        out
    }
}

fn mid((lo, hi): Interval) -> f64 {
    (lo + hi) / 2.0
}

/// The final-rung maximize-objective midpoints of one configuration
/// (IPC and negated MPKI per spec) — the exact points the exhaustive
/// reference ranks on.
pub fn midpoints(reports: &[SimReport]) -> Vec<f64> {
    let mut out = Vec::with_capacity(reports.len() * 2);
    for r in reports {
        out.push(mid(r.ipc_interval()));
        out.push(-mid(r.mpki_interval()));
    }
    out
}

fn fmt_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn opt_num(v: Option<usize>) -> String {
    v.map_or("null".into(), |n| n.to_string())
}

fn interval_json((lo, hi): Interval) -> String {
    format!("[{},{}]", fmt_num(lo), fmt_num(hi))
}

/// Runs the sweep.
///
/// # Errors
///
/// Returns a message listing every failed cell of the first rung that
/// had one — panics, failed supervised children, and freeze failures,
/// which fail each cell over the spec that would not freeze
/// ([`crate::runner::CellError::Freeze`]). Cells that completed before
/// the failure are already journaled, so a rerun resumes rather than
/// restarts.
pub fn run_dse(space: &DseSpace, opts: &DseOptions) -> Result<DseRun, String> {
    opts.ladder.validate();
    let n_cfg = space.configs.len();
    let n_spec = space.specs.len();
    if n_cfg == 0 || n_spec == 0 {
        return Err("empty design space".into());
    }
    let full_budget = opts.ladder.full_budget();
    // One trace set for the whole ladder: a spec freezes at full
    // budget the first time a rung has a cell to compute over it, and
    // every later rung replays a prefix of the same trace.
    let traces = TraceSet::new(&space.specs, full_budget);

    let protected = space.protected();
    let mut alive = vec![true; n_cfg];
    let mut pruned_at: Vec<Option<usize>> = vec![None; n_cfg];
    let mut pruned_by: Vec<Option<String>> = vec![None; n_cfg];
    let mut settled_at: Vec<Option<usize>> = vec![None; n_cfg];
    let mut refined_to: Vec<Option<usize>> = vec![None; n_cfg];
    let mut reports: Vec<Option<Vec<SimReport>>> = vec![None; n_cfg];
    let mut rung_stats: Vec<RungStats> = Vec::with_capacity(opts.ladder.rungs.len());
    let last_rung = opts.ladder.rungs.len() - 1;

    for (r, rung) in opts.ladder.rungs.iter().enumerate() {
        let active: Vec<usize> = (0..n_cfg)
            .filter(|&i| alive[i] && (r == last_rung || settled_at[i].is_none()))
            .collect();
        let coords: Vec<(usize, usize)> = active
            .iter()
            .flat_map(|&c| (0..n_spec).map(move |a| (c, a)))
            .collect();
        let exec = Exec::Rung {
            rung: r as u32,
            prefix: rung.budget,
        };
        let cells: Vec<Cell> = coords
            .iter()
            .map(|&(c, a)| Cell {
                spec: space.specs[a].clone(),
                config: space.configs[c].cfg.with_schedule(rung.schedule),
                budget: full_budget,
                exec,
            })
            .collect();
        let labels: Vec<String> = coords
            .iter()
            .map(|&(c, a)| {
                format!(
                    "rung {r}: config '{}' x spec '{}'",
                    space.configs[c].label,
                    space.specs[a].label()
                )
            })
            .collect();
        let run = execute(Batch {
            cells,
            coords: coords.clone(),
            labels: labels.clone(),
            traces: &traces,
            threads: opts.threads,
            store: opts.store.as_ref(),
            supervise: opts.supervise.as_deref(),
            cell_timeout: opts.cell_timeout,
        });

        let mut failures: Vec<String> = Vec::new();
        let mut rung_reports: Vec<Vec<SimReport>> = vec![Vec::new(); n_cfg];
        for ((slot, &(c, _)), label) in run.slots.into_iter().zip(&coords).zip(&labels) {
            match slot {
                Ok(rep) => rung_reports[c].push(rep),
                Err(e) => failures.push(format!("{label}: {e}")),
            }
        }
        if !failures.is_empty() {
            if let Some(dir) = &run.crash_dir {
                failures.push(format!("crash reports: {}", dir.display()));
            }
            return Err(failures.join("\n"));
        }
        for &c in &active {
            debug_assert_eq!(rung_reports[c].len(), n_spec, "cells arrive in spec order");
            refined_to[c] = Some(r);
            reports[c] = Some(std::mem::take(&mut rung_reports[c]));
        }

        // Prune against everything alive, including settled configs:
        // their (tight) estimates still retire weaker rivals.
        let round = super::frontier::prune_round(&reports, &mut alive, &protected);
        // Interval coordinates are what the settle test inspects.
        let coords: Vec<Option<Vec<Interval>>> = reports
            .iter()
            .map(|o| o.as_ref().map(|reps| objective_coords(reps)))
            .collect();
        let mut pruned = 0usize;
        for (i, by) in round.into_iter().enumerate() {
            if let Some(a) = by {
                pruned_at[i] = Some(r);
                pruned_by[i] = Some(space.configs[a].label.clone());
                pruned += 1;
            }
        }
        let mut newly_settled = 0usize;
        for i in 0..n_cfg {
            if alive[i] && settled_at[i].is_none() {
                if let Some(cs) = coords[i].as_ref() {
                    if settled(cs, opts.precision, opts.eps) {
                        settled_at[i] = Some(r);
                        newly_settled += 1;
                    }
                }
            }
        }
        rung_stats.push(RungStats {
            rung: r,
            budget: rung.budget,
            active: active.len(),
            replayed: run.replayed,
            computed: run.computed,
            pruned,
            settled: newly_settled,
            alive_after: alive.iter().filter(|&&a| a).count(),
        });
    }

    let outcomes = (0..n_cfg)
        .map(|i| ConfigOutcome {
            label: space.configs[i].label.clone(),
            protected: protected[i],
            alive: alive[i],
            pruned_at: pruned_at[i],
            pruned_by: pruned_by[i].clone(),
            settled_at: settled_at[i],
            refined_to: refined_to[i],
            reports: reports[i].clone().unwrap_or_default(),
        })
        .collect();
    Ok(DseRun {
        space: space.name.clone(),
        rungs: rung_stats.clone(),
        outcomes,
        replayed: rung_stats.iter().map(|s| s.replayed).sum(),
        computed: rung_stats.iter().map(|s| s.computed).sum(),
    })
}

#[cfg(test)]
mod tests {
    use super::super::space::smoke_space;
    use super::*;
    use crate::result_store::ResultStore;

    fn opts(ladder: Ladder) -> DseOptions {
        DseOptions {
            ladder,
            precision: 0.02,
            eps: 1e-3,
            store: None,
            cell_timeout: None,
            threads: 2,
            supervise: None,
        }
    }

    #[test]
    fn smoke_sweep_completes_with_full_provenance() {
        let space = smoke_space();
        let run = run_dse(&space, &opts(Ladder::new(120_000, 2, SampleSchedule::Full)))
            .expect("sweep completes");
        assert_eq!(run.outcomes.len(), 4);
        assert_eq!(run.rungs.len(), 2);
        assert!(run.outcomes[0].alive, "protected baseline survives");
        for o in &run.outcomes {
            if o.alive {
                assert_eq!(o.reports.len(), space.specs.len());
                assert!(o.pruned_at.is_none() && o.pruned_by.is_none());
            } else {
                assert!(o.pruned_at.is_some() && o.pruned_by.is_some());
                assert!(o.refined_to.is_some(), "pruned configs ran before dying");
            }
        }
        // Survivors carry final-rung (full budget) results.
        for &i in &run.survivors() {
            assert_eq!(run.outcomes[i].refined_to, Some(1));
        }
        assert!(!run.final_frontier().is_empty());
        let report = run.jsonl();
        assert!(report.starts_with("{\"schema\":\"acic-dse/v1\""));
        assert_eq!(report.lines().count(), 1 + run.outcomes.len());
        assert!(
            !report.contains("inf") && !report.contains("NaN"),
            "strict JSON"
        );
    }

    #[test]
    fn store_backed_sweep_replays_instead_of_recomputing() {
        let dir = std::env::temp_dir().join(format!("acic-dse-sched-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let space = smoke_space();
        let ladder = Ladder::new(120_000, 2, SampleSchedule::Full);
        let mut o = opts(ladder.clone());
        let reference = run_dse(&space, &o).expect("reference");

        o.store = Some(Arc::new(ResultStore::open(&dir).unwrap()));
        let first = run_dse(&space, &o).expect("first store run");
        assert_eq!(first.replayed, 0);
        assert!(first.computed > 0);

        o.store = Some(Arc::new(ResultStore::open(&dir).unwrap()));
        let second = run_dse(&space, &o).expect("resumed run");
        assert_eq!(second.computed, 0, "everything replays");
        assert_eq!(second.replayed, first.computed);
        for (a, b) in reference.outcomes.iter().zip(&second.outcomes) {
            assert_eq!(a.alive, b.alive);
            assert_eq!(a.pruned_at, b.pruned_at);
            assert_eq!(
                format!("{:?}", a.reports),
                format!("{:?}", b.reports),
                "replayed reports bit-identical"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
