//! `sampled-dse`: a three-rung DSE sweep up to 20M instructions under
//! `SampleSchedule::default_sampled()`, journaled to a fresh result
//! store. Its space is the benchmark's own: LRU, SRRIP and ACIC x sets
//! {16, 64} x ways {4, 8} x CSHR entries {64, 256} over web-search,
//! data-serving and tpc-c.

use crate::layers::{
    common_layer_metrics, count_diffs, fingerprints, keep_going, measure_setup, median,
    parallel_map, prep, seeded, traced_cell, wall_metric, Prep, WORKERS,
};
use crate::output::{metric, Outcome};
use crate::spans::Tracer;
use crate::{fresh_dir, Args};
use acic_bench::dse::{parse_space, run_dse, DseOptions, DseRun, DseSpace, Ladder};
use acic_bench::result_store::{dse_cell_key, ResultStore};
use acic_bench::{trace_store, WorkloadSpec};
use acic_sim::{Engine, IcacheOrg, SampleSchedule, SimConfig, SimReport};
use acic_trace::{PackedTrace, Truncated};
use std::sync::Arc;
use std::time::Instant;

/// Full per-cell budget (the last rung's).
const BUDGET: u64 = 20_000_000;
const RUNGS: usize = 3;

/// The sweep's space, in the `--dse-space` file format.
const SPACE: &str = r#"{"name": "perfbench-sampled-dse",
 "apps": ["web-search", "data-serving", "tpc-c"],
 "orgs": ["lru", "srrip", "acic"],
 "sets": [16, 64], "ways": [4, 8], "cshr_entries": [64, 256]}"#;

/// The `tests/sampled_sim.rs` accuracy contract, pinned on the paper
/// profiles.
const MAX_IPC_ERR_PCT: f64 = 2.0;

/// Workload-specific metrics (printed, not in the JSON line).
pub const METRICS: &[&str] = &[
    "sampled_ipc_err_pct",
    "sim.sampled_ns_per_instr",
    "sim.sampled_vs_full",
    "sim.detailed_frac",
    "sim.warm_frac",
    "sim.ff_frac",
    "sim.window_vs_serial",
    "bench.store_put_ms",
    "bench.store_puts",
    "bench.store_replay_s",
    "bench.dse_cells_computed",
    "bench.dse_cells_pruned",
    "bench.dse_rung_s.0",
    "bench.dse_rung_s.1",
    "bench.dse_rung_s.2",
];

fn space(seed: u64) -> DseSpace {
    let mut space = parse_space(SPACE).expect("the built-in space parses");
    for spec in &mut space.specs {
        if let WorkloadSpec::Single(p) = spec {
            *p = seeded(p.clone(), seed);
        }
    }
    space
}

fn ladder() -> Ladder {
    Ladder::new(BUDGET, RUNGS, SampleSchedule::default_sampled())
}

/// One sweep as a user runs it, into a fresh store (the store keys
/// omit the profile seed, so a reused store could replay another
/// seed's cells).
fn sweep(space: &DseSpace) -> Result<DseRun, String> {
    let dir = fresh_dir("dse");
    let store = ResultStore::open(&dir).map_err(|e| e.to_string())?;
    let opts = DseOptions {
        ladder: ladder(),
        store: Some(Arc::new(store)),
        cell_timeout: None,
        threads: WORKERS,
        supervise: None,
        ..DseOptions::default()
    };
    let run = run_dse(space, &opts);
    let _ = std::fs::remove_dir_all(&dir);
    run
}

/// Trace instructions covered by the cells a sweep computed.
fn covered(run: &DseRun) -> f64 {
    run.rungs
        .iter()
        .map(|r| r.computed as f64 * r.budget as f64)
        .sum()
}

fn default_acic() -> SimConfig {
    SimConfig::default().with_org(IcacheOrg::acic_default())
}

/// Whether config `c` simulated rung `r` (the scheduler's rule: alive
/// at the rung, and unsettled unless it is the last).
fn active(run: &DseRun, c: usize, r: usize) -> bool {
    let o = &run.outcomes[c];
    o.pruned_at.is_none_or(|p| r <= p) && (r == RUNGS - 1 || o.settled_at.is_none_or(|s| r <= s))
}

/// The sweep's final-rung report of default ACIC on web-search, or
/// (when the pruner retired it) the same cell run directly.
fn final_rung_default(space: &DseSpace, run: &DseRun, trace: &PackedTrace) -> (SimReport, bool) {
    let c = space
        .configs
        .iter()
        .position(|c| c.cfg.icache_org == IcacheOrg::acic_default())
        .expect("the space holds the Table I ACIC geometry");
    match run.outcomes[c].refined_to {
        Some(r) if r == RUNGS - 1 => (run.outcomes[c].reports[0].clone(), true),
        _ => (
            Engine::run(
                &default_acic().with_schedule(SampleSchedule::default_sampled()),
                trace,
            ),
            false,
        ),
    }
}

/// Reports the sampled IPC error against the full-detail reference.
/// The 2% contract gates the paper profiles (seed 0) only: on held-out
/// seeds the default schedule is known to miss it (3.3% at seed 2), so
/// there the error is reported, not failed.
fn ipc_error(
    out: &mut Outcome,
    sampled: &SimReport,
    full: &SimReport,
    from_sweep: bool,
    seed: u64,
) {
    let err = (sampled.ipc() - full.ipc()).abs() / full.ipc() * 100.0;
    let source = if from_sweep {
        "the sweep's final rung"
    } else {
        "a direct run (the sweep pruned default ACIC)"
    };
    out.push(metric("sampled_ipc_err_pct", err, "%").note(format!(
        "simulated; default ACIC x web-search, {source} vs full detail (IPC {:.4} vs {:.4}); \
         bound {MAX_IPC_ERR_PCT}% (seed 0 here: 0.33%)",
        sampled.ipc(),
        full.ipc()
    )));
    if err > MAX_IPC_ERR_PCT {
        let why = format!("sampled IPC error {err:.3}% exceeds {MAX_IPC_ERR_PCT}%");
        if seed == 0 {
            out.fail(1, why);
        } else {
            out.notes
                .push(format!("{why} (held-out seed; gated on seed 0 only)"));
        }
    }
}

fn describe(run: &DseRun) -> String {
    let rungs: Vec<String> = run
        .rungs
        .iter()
        .map(|r| {
            format!(
                "rung {} ({} instrs): {} computed, {} pruned, {} settled",
                r.rung, r.budget, r.computed, r.pruned, r.settled
            )
        })
        .collect();
    format!("{} cells computed; {}", run.computed, rungs.join("; "))
}

pub fn run(args: &Args) -> Outcome {
    let space = space(args.seed);
    let mut out = Outcome::default();
    // The full-detail reference: once per invocation, outside every
    // timed run.
    let t = Instant::now();
    let trace = trace_store::freeze(&space.specs[0], BUDGET).expect("in-memory freeze");
    let full = Engine::run(&default_acic(), trace.as_ref());
    out.attempted += 1;
    out.notes.push(format!(
        "full-detail reference (default ACIC x {}) took {:.2} s, untimed",
        space.specs[0].label(),
        t.elapsed().as_secs_f64()
    ));
    if args.trace {
        return traced(out, &space, &full, args.seed);
    }
    measure_setup(&mut out, &space.specs, BUDGET);

    let start = Instant::now();
    let mut walls = Vec::new();
    let mut first: Option<(DseRun, String)> = None;
    while keep_going(start, walls.len(), args.seconds) {
        let t = Instant::now();
        let result = sweep(&space);
        walls.push(t.elapsed().as_secs_f64());
        match result {
            Err(e) => {
                out.attempted += 1;
                out.fail(e.lines().count() as u64, e);
                break;
            }
            Ok(run) => {
                out.attempted += run.computed + run.replayed;
                let print = format!("{:?}", run.outcomes);
                match &first {
                    None => first = Some((run, print)),
                    Some((_, p)) if *p != print => out.fail(
                        run.computed,
                        format!("pass {}: sweep outcomes differ from pass 1", walls.len()),
                    ),
                    Some(_) => {}
                }
            }
        }
    }
    let wall = median(&walls);
    out.push(wall_metric(&walls, "sweeps"));
    let covered = first.as_ref().map_or(f64::NAN, |(run, _)| covered(run));
    out.push(metric("sim_mips", covered / wall / 1e6, "Minstr/s"));
    if let Some((run, _)) = first {
        out.notes.push(describe(&run));
        let (sampled, from_sweep) = final_rung_default(&space, &run, &trace);
        ipc_error(&mut out, &sampled, &full, from_sweep, args.seed);
    }
    out
}

/// The traced run: an untraced sweep for reference, then every cell
/// the sweep computed re-run directly per rung, the reference cell's
/// layer calls, sampled vs windowed execution, and journal puts and
/// replay against a fresh store.
fn traced(mut out: Outcome, space: &DseSpace, full: &SimReport, seed: u64) -> Outcome {
    let run = match sweep(space) {
        Ok(run) => run,
        Err(e) => {
            out.fail(e.lines().count() as u64, e);
            return out;
        }
    };
    out.attempted += run.computed;
    let ladder = ladder();
    let n_spec = space.specs.len();
    let tracer = Tracer::new();
    let (parts, _) = tracer.span("bench.traced_dse", None, |root| {
        let preps: Vec<Prep> =
            parallel_map(n_spec, |s| prep(&tracer, root, &space.specs[s], BUDGET));
        // The reference cell's contents and pipeline layers, plus the
        // protected LRU baseline's contents, on the web-search trace.
        let mut cells = vec![traced_cell(&tracer, root, &default_acic(), &preps[0], true)];
        cells.push(traced_cell(
            &tracer,
            root,
            &SimConfig::default(),
            &preps[0],
            false,
        ));
        let sampled_cfg = default_acic().with_schedule(SampleSchedule::default_sampled());
        let (sampled, serial_s) = tracer.span("sim.sampled", Some(root), |_| {
            Engine::run(&sampled_cfg, preps[0].trace.as_ref())
        });
        let (_, windowed_s) = tracer.span("sim.windowed", Some(root), |_| {
            Engine::run_windowed(&sampled_cfg, preps[0].trace.as_ref(), WORKERS)
        });
        // Every cell the sweep computed, rung by rung.
        let mut rungs = Vec::new();
        for (r, rung) in ladder.rungs.iter().enumerate() {
            let jobs: Vec<(usize, usize)> = (0..space.configs.len())
                .filter(|&c| active(&run, c, r))
                .flat_map(|c| (0..n_spec).map(move |a| (c, a)))
                .collect();
            let (done, _) = tracer.span(&format!("bench.dse_rung.{r}"), Some(root), |id| {
                parallel_map(jobs.len(), |k| {
                    let (c, a) = jobs[k];
                    let cfg = space.configs[c].cfg.with_schedule(rung.schedule);
                    let prefix = Truncated::new(preps[a].trace.as_ref(), rung.budget);
                    tracer.span("sim.sampled", Some(id), |_| Engine::run(&cfg, &prefix))
                })
            });
            rungs.push((jobs, done));
        }
        (preps, cells, sampled, serial_s, windowed_s, rungs)
    });
    let (preps, cells, sampled, serial_s, windowed_s, rungs) = parts;
    out.attempted += 1;
    if cells[0].report.as_ref().map(|r| format!("{r:?}")) != Some(format!("{full:?}")) {
        out.fail(
            1,
            "the traced full-detail reference differs from the untraced one",
        );
    }

    // Bit identity: each config's highest-rung reports against the
    // untraced sweep's.
    let computed: usize = rungs.iter().map(|(jobs, _)| jobs.len()).sum();
    out.attempted += computed as u64;
    if computed as u64 != run.computed {
        out.fail(
            computed.abs_diff(run.computed as usize) as u64,
            format!(
                "re-ran {computed} cells, the sweep computed {}",
                run.computed
            ),
        );
    }
    for (c, outcome) in run.outcomes.iter().enumerate() {
        let Some(r) = outcome.refined_to else {
            continue;
        };
        let (jobs, done) = &rungs[r];
        let mine: Vec<&SimReport> = jobs
            .iter()
            .zip(done)
            .filter(|((jc, _), _)| *jc == c)
            .map(|(_, (report, _))| report)
            .collect();
        let diff = count_diffs(&fingerprints(&outcome.reports), &fingerprints(mine));
        if diff > 0 {
            out.fail(
                diff,
                format!(
                    "{}: traced rung-{r} reports differ from the sweep",
                    outcome.label
                ),
            );
        }
    }

    common_layer_metrics(&mut out, &preps, &cells);
    let (final_jobs, final_done) = &rungs[RUNGS - 1];
    let final_s: f64 = final_done.iter().map(|(_, s)| s).sum();
    out.push(
        metric(
            "sim.sampled_ns_per_instr",
            final_s * 1e9 / (final_jobs.len() as f64 * BUDGET as f64),
            "ns",
        )
        .note(format!("{} final-rung cells", final_jobs.len())),
    );
    let full_s = cells[0]
        .engine_s
        .expect("the reference cell ran the engine");
    out.push(
        metric("sim.sampled_vs_full", full_s / serial_s, "x")
            .note("full-detail over sampled time, default ACIC x web-search"),
    );
    let stats: Vec<_> = final_done.iter().filter_map(|(r, _)| r.sampled).collect();
    let part = |f: fn(&acic_sim::SampledStats) -> u64| stats.iter().map(f).sum::<u64>() as f64;
    let all =
        part(|s| s.detailed_instructions + s.warmup_instructions + s.fastforward_instructions);
    out.push(metric(
        "sim.detailed_frac",
        part(|s| s.detailed_instructions) / all,
        "frac",
    ));
    out.push(metric(
        "sim.warm_frac",
        part(|s| s.warmup_instructions) / all,
        "frac",
    ));
    out.push(metric(
        "sim.ff_frac",
        part(|s| s.fastforward_instructions) / all,
        "frac",
    ));
    out.push(
        metric("sim.window_vs_serial", serial_s / windowed_s, "x").note(format!(
            "Engine::run_windowed with {WORKERS} workers against serial"
        )),
    );
    let (from_sweep_report, from_sweep) = final_rung_default(space, &run, &preps[0].trace);
    if from_sweep && format!("{from_sweep_report:?}") != format!("{sampled:?}") {
        out.fail(
            1,
            "the traced sampled reference differs from the sweep's final rung",
        );
    }
    ipc_error(&mut out, &sampled, full, from_sweep, seed);

    store_metrics(&mut out, &tracer, space, &rungs);
    out.push(metric(
        "bench.dse_cells_computed",
        run.computed as f64,
        "count",
    ));
    let pruned: usize = run
        .outcomes
        .iter()
        .filter_map(|o| o.pruned_at)
        .map(|p| (RUNGS - 1 - p) * n_spec)
        .sum();
    out.push(
        metric("bench.dse_cells_pruned", pruned as f64, "count")
            .note("cells skipped because their config was pruned"),
    );
    for (r, (_, done)) in rungs.iter().enumerate() {
        let secs: f64 = done.iter().map(|(_, s)| s).sum();
        out.push(
            metric(&format!("bench.dse_rung_s.{r}"), secs, "s")
                .note(format!("{} cells, summed cell time", done.len())),
        );
    }
    out.notes.push(describe(&run));
    out.spans = tracer.spans();
    out
}

type RungCells = (Vec<(usize, usize)>, Vec<(SimReport, f64)>);

/// Journals every re-run cell into a fresh store (one span per put),
/// then reopens the store and reads every cell back.
fn store_metrics(out: &mut Outcome, tracer: &Tracer, space: &DseSpace, rungs: &[RungCells]) {
    let dir = fresh_dir("dse-journal");
    let store = ResultStore::open(&dir).expect("open a fresh result store");
    let ladder = ladder();
    let mut keys = Vec::new();
    let mut put_s = 0.0;
    for (r, (jobs, done)) in rungs.iter().enumerate() {
        let schedule = ladder.rungs[r].schedule;
        for (&(c, a), (report, _)) in jobs.iter().zip(done) {
            let cfg = space.configs[c].cfg.with_schedule(schedule);
            let key = dse_cell_key(&space.specs[a], BUDGET, &cfg, r as u32);
            let (res, s) = tracer.span("bench.store_put", None, |_| {
                store.put_rung(&key, r as u32, report)
            });
            if let Err(e) = res {
                out.fail(1, format!("journal put failed: {e}"));
            }
            put_s += s;
            keys.push((key, format!("{report:?}")));
        }
    }
    drop(store);
    let (missing, replay_s) = tracer.span("bench.store_replay", None, |_| {
        let store = ResultStore::open(&dir).expect("reopen the result store");
        keys.iter()
            .filter(|(k, print)| store.get(k).is_none_or(|r| format!("{r:?}") != *print))
            .count()
    });
    if missing > 0 {
        out.fail(
            missing as u64,
            format!("{missing} journaled cells did not replay bit-identically"),
        );
    }
    out.push(metric(
        "bench.store_put_ms",
        put_s * 1e3 / keys.len().max(1) as f64,
        "ms",
    ));
    out.push(metric("bench.store_puts", keys.len() as f64, "count"));
    out.push(
        metric("bench.store_replay_s", replay_s, "s").note("open the journal and get every cell"),
    );
    let _ = std::fs::remove_dir_all(&dir);
}
