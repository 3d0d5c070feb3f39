//! `fig-grid`: the Figure 10 grid (LRU plus `IcacheOrg::figure10_set()`
//! over the ten datacenter applications) and the multi-tenant grid
//! (LRU-flush / LRU / ACIC x {2, 4} tenants x {10k, 50k} quanta), both
//! at 1M instructions, full detail, FDP, through `Runner` in process
//! with no store and no supervisor.

use crate::layers::{
    common_layer_metrics, contents_ns_per_access, count_diffs, fingerprints, keep_going,
    measure_setup, median, parallel_map, prep, seeded, traced_cell, wall_metric, Prep, WORKERS,
};
use crate::output::{metric, Outcome};
use crate::spans::Tracer;
use crate::Args;
use acic_bench::runner::{GridError, Runner};
use acic_bench::WorkloadSpec;
use acic_sim::{IcacheOrg, SimConfig, SimReport};
use acic_types::stats::{gmean, mean};
use acic_workloads::AppProfile;
use std::time::Instant;

/// Instructions per cell.
const BUDGET: u64 = 1_000_000;

/// Workload-specific metrics (printed, not in the JSON line).
pub const METRICS: &[&str] = &[
    "acic_speedup_gmean",
    "acic_opt_gap_closed",
    "acic_mpki_reduction",
    "trace.oracle_s",
    "cache.ns_per_access.srrip",
    "cache.ns_per_access.ship",
    "cache.ns_per_access.harmony",
    "cache.ns_per_access.ghrp",
    "cache.ns_per_access.dsb",
    "cache.ns_per_access.obm",
    "cache.ns_per_access.vvc",
    "cache.ns_per_access.vc3k",
    "cache.ns_per_access.opt",
    "cache.ns_per_access.lru_flush",
    "core.ns_per_access.ifilter",
    "bench.grid_overhead_s",
];

/// Organizations whose contents cost the traced run reports on top of
/// the common LRU and ACIC ones.
const EXTRA_ORGS: [&str; 10] = [
    "srrip",
    "ship",
    "harmony",
    "ghrp",
    "dsb",
    "obm",
    "vvc",
    "vc3k",
    "opt",
    "lru_flush",
];

/// Reports per grid, in `configs x specs` order.
type Reports = Vec<Vec<Vec<SimReport>>>;

struct Grid {
    configs: Vec<SimConfig>,
    specs: Vec<WorkloadSpec>,
}

impl Grid {
    fn cells(&self) -> usize {
        self.configs.len() * self.specs.len()
    }
}

/// Grid 0 is Figure 10's (row 0 the LRU baseline), grid 1 the
/// multi-tenant scenario's.
fn grids(seed: u64) -> Vec<Grid> {
    let apps: Vec<AppProfile> = AppProfile::datacenter_suite()
        .into_iter()
        .map(|p| seeded(p, seed))
        .collect();
    let base = SimConfig::default();
    let mut fig10 = vec![base.clone()];
    fig10.extend(
        IcacheOrg::figure10_set()
            .into_iter()
            .map(|o| base.with_org(o)),
    );
    let mut tenant_specs = Vec::new();
    for tenants in [2usize, 4] {
        for quantum in [10_000u64, 50_000] {
            tenant_specs.push(WorkloadSpec::MultiTenant {
                profiles: apps[..tenants].to_vec(),
                quantum,
            });
        }
    }
    vec![
        Grid {
            configs: fig10,
            specs: WorkloadSpec::singles(&apps),
        },
        Grid {
            configs: [
                IcacheOrg::LruFlush,
                IcacheOrg::Lru,
                IcacheOrg::acic_default(),
            ]
            .map(|o| base.with_org(o))
            .to_vec(),
            specs: tenant_specs,
        },
    ]
}

/// One run as a user runs it: every grid through `Runner`, each
/// freezing its own specs.
fn run_grids(grids: &[Grid]) -> Result<Reports, GridError> {
    let runner = Runner {
        instructions: BUDGET,
        baseline: SimConfig::default(),
        store: None,
        cell_timeout: None,
        window_threads: 0,
        supervise: None,
    };
    grids
        .iter()
        .map(|g| runner.try_run_grid(&g.configs, &g.specs).map(|r| r.grid))
        .collect()
}

fn flat(reports: &Reports) -> impl Iterator<Item = &SimReport> {
    reports.iter().flatten().flatten()
}

pub fn run(args: &Args) -> Outcome {
    let grids = grids(args.seed);
    if args.trace {
        return traced(&grids);
    }
    let mut out = Outcome::default();
    let cells: usize = grids.iter().map(Grid::cells).sum();
    let specs: Vec<WorkloadSpec> = grids.iter().flat_map(|g| g.specs.clone()).collect();
    measure_setup(&mut out, &specs, BUDGET);

    let start = Instant::now();
    let mut walls = Vec::new();
    let mut first: Option<(Reports, Vec<String>)> = None;
    while keep_going(start, walls.len(), args.seconds) {
        let t = Instant::now();
        let result = run_grids(&grids);
        walls.push(t.elapsed().as_secs_f64());
        out.attempted += cells as u64;
        match result {
            Err(e) => {
                out.fail(e.failures.len() as u64, e.to_string());
                break;
            }
            Ok(reports) => match &first {
                None => {
                    let prints = fingerprints(flat(&reports));
                    first = Some((reports, prints));
                }
                Some((_, prints)) => {
                    let diff = count_diffs(prints, &fingerprints(flat(&reports)));
                    if diff > 0 {
                        out.fail(
                            diff,
                            format!("pass {}: {diff} reports differ from pass 1", walls.len()),
                        );
                    }
                }
            },
        }
    }
    let wall = median(&walls);
    out.push(wall_metric(&walls, &format!("passes of {cells} cells")));
    out.push(metric(
        "sim_mips",
        cells as f64 * BUDGET as f64 / wall / 1e6,
        "Minstr/s",
    ));
    if let Some((reports, _)) = first {
        simulated(&mut out, &grids, &reports, args.seed);
    }
    out
}

/// Checks the window invariant and reports the simulated Figure 10/11
/// summaries next to the paper's values.
///
/// Every org must measure the same instruction window per app, or its
/// speedup compares different work (`SimReport::speedup_over` panics).
/// On the paper profiles (seed 0) a broken window fails its cells. On
/// held-out seeds the model is known to break it now and then (ROADMAP
/// item 1: window bounds follow the retired count), so there it is
/// reported and the app is left out of the summaries instead.
fn simulated(out: &mut Outcome, grids: &[Grid], reports: &Reports, seed: u64) {
    let mut intact = vec![true; grids[0].specs.len()];
    for (g, (grid, rows)) in grids.iter().zip(reports).enumerate() {
        for (a, spec) in grid.specs.iter().enumerate() {
            let want = rows[0][a].measured_instructions;
            let bad = rows
                .iter()
                .filter(|r| r[a].measured_instructions != want)
                .count();
            if bad == 0 {
                continue;
            }
            let why = format!(
                "{}: {bad} orgs measured a different window than {}",
                spec.label(),
                rows[0][a].org
            );
            if seed == 0 {
                out.fail(bad as u64, why);
            } else {
                out.notes
                    .push(format!("{why} (held-out seed; left out of the summaries)"));
            }
            if g == 0 {
                intact[a] = false;
            }
        }
    }
    if out.failed > 0 {
        return;
    }
    let fig10 = &reports[0];
    let row = |org: IcacheOrg| {
        let c = grids[0]
            .configs
            .iter()
            .position(|cfg| cfg.icache_org == org)
            .expect("org in the Figure 10 set");
        &fig10[c]
    };
    let lru = &fig10[0];
    let pairs = |org: IcacheOrg| {
        row(org)
            .iter()
            .zip(lru)
            .zip(&intact)
            .filter(|(_, &ok)| ok)
            .map(|(pair, _)| pair)
            .collect::<Vec<_>>()
    };
    let gmean_speedup = |org: IcacheOrg| {
        let sp: Vec<f64> = pairs(org).iter().map(|(r, b)| r.speedup_over(b)).collect();
        gmean(&sp).unwrap_or(f64::NAN)
    };
    let acic_gmean = gmean_speedup(IcacheOrg::acic_default());
    let opt_gmean = gmean_speedup(IcacheOrg::Opt);
    let mpki: Vec<f64> = pairs(IcacheOrg::acic_default())
        .iter()
        .map(|(r, b)| r.mpki_reduction_over(b))
        .collect();
    let apps = format!("{} of {} apps", mpki.len(), intact.len());
    out.push(metric("acic_speedup_gmean", acic_gmean, "x").note(format!(
        "simulated, {apps}; paper 1.0223 (seed 0 here: 1.0005)"
    )));
    out.push(
        metric(
            "acic_opt_gap_closed",
            (acic_gmean - 1.0) / (opt_gmean - 1.0),
            "frac",
        )
        .note(format!(
            "simulated; OPT gmean {opt_gmean:.4}; paper: over half (seed 0 here: 0.177)"
        )),
    );
    out.push(
        metric(
            "acic_mpki_reduction",
            mean(&mpki).unwrap_or(f64::NAN),
            "frac",
        )
        .note(
            "simulated; mean L1i MPKI reduction over LRU; paper value not recorded here \
             (seed 0 here: 0.0306)",
        ),
    );
}

/// The traced run: the same cells through direct calls into each
/// layer (freeze, decode, `BlockRuns`, oracle, `run_functional`,
/// `Engine::run`), checked against an untraced `Runner` run.
fn traced(grids: &[Grid]) -> Outcome {
    let mut out = Outcome::default();
    let cells: usize = grids.iter().map(Grid::cells).sum();
    let t = Instant::now();
    let untraced = run_grids(grids);
    let runner_wall = t.elapsed().as_secs_f64();
    out.attempted += cells as u64;

    let specs: Vec<&WorkloadSpec> = grids.iter().flat_map(|g| &g.specs).collect();
    let singles = grids[0].specs.len();
    // (grid, config, global spec index), in the order `run_grids` flattens.
    let mut jobs = Vec::with_capacity(cells);
    let mut offset = 0;
    for (g, grid) in grids.iter().enumerate() {
        for c in 0..grid.configs.len() {
            jobs.extend((0..grid.specs.len()).map(|a| (g, c, offset + a)));
        }
        offset += grid.specs.len();
    }
    let tracer = Tracer::new();
    let ((preps, samples, probes), _) = tracer.span("bench.traced_grid", None, |root| {
        let preps: Vec<Prep> = parallel_map(specs.len(), |s| prep(&tracer, root, specs[s], BUDGET));
        let samples = parallel_map(jobs.len(), |k| {
            let (g, c, s) = jobs[k];
            traced_cell(&tracer, root, &grids[g].configs[c], &preps[s], true)
        });
        // The always-insert i-Filter is not a Figure 10 org; its
        // contents cost is probed functionally on the single-app traces.
        let ifilter = SimConfig::default().with_org(IcacheOrg::IFilterAlways);
        let probes = parallel_map(singles, |s| {
            traced_cell(&tracer, root, &ifilter, &preps[s], false)
        });
        (preps, samples, probes)
    });
    out.attempted += cells as u64;

    let traced_prints = fingerprints(samples.iter().filter_map(|c| c.report.as_ref()));
    match &untraced {
        Ok(reports) => {
            let diff = count_diffs(&fingerprints(flat(reports)), &traced_prints);
            if diff > 0 {
                out.fail(
                    diff,
                    format!("{diff} traced reports differ from the untraced run"),
                );
            }
        }
        Err(e) => out.fail(e.failures.len() as u64, e.to_string()),
    }

    let mut all = samples;
    all.extend(probes);
    common_layer_metrics(&mut out, &preps, &all);
    let oracles: Vec<f64> = all.iter().filter_map(|c| c.oracle_s).collect();
    out.push(
        metric("trace.oracle_s", oracles.iter().sum(), "s").note(format!(
            "{} ReuseOracle builds, one per OPT or OPT-bypass cell",
            oracles.len()
        )),
    );
    for org in EXTRA_ORGS {
        let name = format!("cache.ns_per_access.{org}");
        match contents_ns_per_access(&all, org) {
            Some(ns) => out.push(metric(&name, ns, "ns")),
            None => out.fail(1, format!("{name}: no {org} cell ran")),
        }
    }
    if let Some(ns) = contents_ns_per_access(&all, "ifilter") {
        out.push(metric("core.ns_per_access.ifilter", ns, "ns"));
    }
    let freeze_s: f64 = preps.iter().map(|p| p.freeze_s).sum();
    let engine_s: f64 = all.iter().filter_map(|c| c.engine_s).sum();
    out.push(
        metric(
            "bench.grid_overhead_s",
            runner_wall - (freeze_s + engine_s) / WORKERS as f64,
            "s",
        )
        .note(format!(
            "Runner wall {runner_wall:.3} s minus traced freeze and cell time over {WORKERS} workers"
        )),
    );
    out.spans = tracer.spans();
    out
}
