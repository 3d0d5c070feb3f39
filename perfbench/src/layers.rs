//! Shared measurement plumbing: seeded profiles, set-up timing, the
//! pass loop, and the traced calls into each layer that every
//! workload's traced run makes.

use crate::output::{metric, Metric, Outcome};
use crate::spans::{SpanId, Tracer};
use acic_bench::runner::try_freeze_specs;
use acic_bench::{trace_store, WorkloadSpec};
use acic_sim::{run_functional, Engine, IcacheOrg, SimConfig, SimReport};
use acic_trace::{BlockRuns, PackedTrace, ReuseOracle, TraceSource};
use acic_workloads::AppProfile;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Worker threads (or concurrent children) any workload may use.
pub const WORKERS: usize = 2;

/// Every workload runs at least this many timed passes.
pub const MIN_PASSES: usize = 2;

/// Set-up is timed this many times per invocation; `setup_s` is the
/// median.
pub const SETUP_REPS: usize = 5;

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce5_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// `profile` with its generator reseeded by the benchmark seed; seed 0
/// keeps the paper profile. Only the seed changes, so the application's
/// shape (footprint, fan-out, skew) stays the paper's.
pub fn seeded(mut profile: AppProfile, seed: u64) -> AppProfile {
    if seed != 0 {
        profile.seed = splitmix64(profile.seed ^ splitmix64(seed));
    }
    profile
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `wall_s`: the median pass, every pass listed in the note.
pub fn wall_metric(walls: &[f64], passes: &str) -> Metric {
    let each: Vec<String> = walls.iter().map(|w| format!("{w:.3}")).collect();
    metric("wall_s", median(walls), "s").note(format!(
        "median of {} {passes}: {} s",
        walls.len(),
        each.join(", ")
    ))
}

/// Whether the pass loop runs another pass.
pub fn keep_going(start: Instant, passes: usize, seconds: u64) -> bool {
    passes < MIN_PASSES || start.elapsed().as_secs_f64() < seconds as f64
}

/// Times the workload's set-up on its own: freezing every spec through
/// the runner's freeze path (`WorkloadSpec::materialize` behind the
/// trace store), [`SETUP_REPS`] times. Pushes `setup_s`, the median.
pub fn measure_setup(out: &mut Outcome, specs: &[WorkloadSpec], budget: u64) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        let frozen = try_freeze_specs(specs, budget);
        times.push(start.elapsed().as_secs_f64());
        if let Some(e) = frozen.iter().find_map(|r| r.as_ref().err()) {
            out.fail(1, format!("set-up freeze failed: {e}"));
        }
    }
    out.push(metric("setup_s", median(&times), "s").note(format!(
        "median of {SETUP_REPS} freezes of {} specs x {budget} instructions",
        specs.len()
    )));
}

/// Parallel map over `0..n` on [`WORKERS`] threads, results in index
/// order. A panic in `f` propagates.
pub fn parallel_map<T: Send>(n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let next = AtomicUsize::new(0);
    let mut done: Vec<(usize, T)> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..WORKERS.min(n))
            .map(|_| {
                s.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            return mine;
                        }
                        mine.push((i, f(i)));
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("traced worker panicked"))
            .collect()
    });
    done.sort_by_key(|(i, _)| *i);
    done.into_iter().map(|(_, v)| v).collect()
}

/// Debug rendering per report: `SimReport` has no `PartialEq`, and its
/// `Debug` output prints every float with round-trip precision, so
/// equal strings mean bit-identical reports.
pub fn fingerprints<'a>(reports: impl IntoIterator<Item = &'a SimReport>) -> Vec<String> {
    reports.into_iter().map(|r| format!("{r:?}")).collect()
}

/// Cells whose fingerprints differ (a length mismatch counts the
/// missing cells).
pub fn count_diffs(a: &[String], b: &[String]) -> u64 {
    let differing = a.iter().zip(b).filter(|(x, y)| x != y).count();
    (differing + a.len().abs_diff(b.len())) as u64
}

/// One frozen spec and the trace-layer passes over it.
pub struct Prep {
    /// The frozen trace.
    pub trace: Arc<PackedTrace>,
    /// Seconds in `trace_store::freeze`.
    pub freeze_s: f64,
    /// Seconds for one full `PackedTrace::iter` decode pass.
    pub decode_s: f64,
    /// Seconds for one `BlockRuns` pass.
    pub runs_s: f64,
}

/// Freezes `spec` and times the trace layer's passes over it, each in
/// its own span under `parent`.
pub fn prep(tracer: &Tracer, parent: SpanId, spec: &WorkloadSpec, budget: u64) -> Prep {
    let (trace, freeze_s) = tracer.span("workloads.freeze", Some(parent), |_| {
        trace_store::freeze(spec, budget).unwrap_or_else(|e| panic!("freeze: {e}"))
    });
    let (_, decode_s) = tracer.span("trace.decode", Some(parent), |_| {
        let sum = trace.iter().fold(0u64, |h, i| h.wrapping_add(i.pc().raw()));
        std::hint::black_box(sum)
    });
    let (_, runs_s) = tracer.span("trace.runs", Some(parent), |_| {
        std::hint::black_box(BlockRuns::new(trace.iter()).count())
    });
    Prep {
        trace,
        freeze_s,
        decode_s,
        runs_s,
    }
}

/// Metric-name key of an organization (`cache.ns_per_access.<key>`).
/// ACIC variants other than the Table I default are `acic_variant`.
pub fn org_key(org: &IcacheOrg) -> &'static str {
    match org {
        IcacheOrg::Lru => "lru",
        IcacheOrg::LruFlush => "lru_flush",
        IcacheOrg::Srrip => "srrip",
        IcacheOrg::Ship => "ship",
        IcacheOrg::Harmony => "harmony",
        IcacheOrg::Ghrp => "ghrp",
        IcacheOrg::Dsb => "dsb",
        IcacheOrg::Obm => "obm",
        IcacheOrg::Vvc => "vvc",
        IcacheOrg::Vc3k => "vc3k",
        IcacheOrg::Larger36k => "larger36k",
        IcacheOrg::Opt => "opt",
        IcacheOrg::OptBypass => "opt_bypass",
        IcacheOrg::IFilterAlways => "ifilter",
        IcacheOrg::AccessCount => "access_count",
        IcacheOrg::Acic(_) if *org == IcacheOrg::acic_default() => "acic",
        IcacheOrg::Acic(_) => "acic_variant",
    }
}

/// Layer whose code an organization's contents model lives in.
fn contents_layer(org: &IcacheOrg) -> &'static str {
    match org {
        IcacheOrg::Acic(_) | IcacheOrg::IFilterAlways | IcacheOrg::AccessCount => "core",
        _ => "cache",
    }
}

/// One cell of a traced run.
pub struct CellSample {
    /// [`org_key`] of the cell's organization.
    pub org: &'static str,
    /// Seconds for a `BlockRuns` pass over the cell's trace, taken on
    /// the same worker just before `run_functional`.
    pub runs_s: f64,
    /// Seconds to build the reuse oracle `run_functional` builds first,
    /// for organizations that need one.
    pub oracle_s: Option<f64>,
    /// Seconds in `run_functional`.
    pub functional_s: f64,
    /// Block accesses `run_functional` made.
    pub accesses: u64,
    /// Seconds in `Engine::run`, when the cell ran the engine.
    pub engine_s: Option<f64>,
    /// The engine's report, when the cell ran the engine.
    pub report: Option<SimReport>,
}

/// Runs one cell's calls into the contents layer (`run_functional`)
/// and, when `engine` is set, the timing simulator (`Engine::run`),
/// each in its own span under a `bench.cell` span.
pub fn traced_cell(
    tracer: &Tracer,
    parent: SpanId,
    cfg: &SimConfig,
    prep: &Prep,
    engine: bool,
) -> CellSample {
    let org = &cfg.icache_org;
    let key = org_key(org);
    let (sample, _) = tracer.span("bench.cell", Some(parent), |cell| {
        // The passes `run_functional` makes besides the contents model,
        // timed just before it on the same worker so the subtraction in
        // `contents_ns_per_access` compares like with like.
        let (_, runs_s) = tracer.span("trace.runs", Some(cell), |_| {
            std::hint::black_box(BlockRuns::new(prep.trace.iter()).count())
        });
        let oracle_s = org.needs_oracle().then(|| {
            tracer
                .span("trace.oracle", Some(cell), |_| {
                    let seq: Vec<_> = BlockRuns::new(prep.trace.iter())
                        .map(|r| r.oracle_key())
                        .collect();
                    std::hint::black_box(ReuseOracle::from_sequence(&seq).len())
                })
                .1
        });
        let name = format!("{}.functional.{key}", contents_layer(org));
        let (functional, functional_s) = tracer.span(&name, Some(cell), |_| {
            run_functional(org, prep.trace.as_ref())
        });
        let run = engine.then(|| {
            tracer.span("sim.engine", Some(cell), |_| {
                Engine::run(cfg, prep.trace.as_ref())
            })
        });
        CellSample {
            org: key,
            runs_s,
            oracle_s,
            functional_s,
            accesses: functional.accesses,
            engine_s: run.as_ref().map(|r| r.1),
            report: run.map(|r| r.0),
        }
    });
    sample
}

/// Contents-model cost per block access for organization `org`:
/// `run_functional` time minus the `BlockRuns` pass (and, for oracle
/// organizations, the oracle build) over the same trace. Negative when
/// the contents model costs less than the timing noise of the passes
/// subtracted.
pub fn contents_ns_per_access(cells: &[CellSample], org: &str) -> Option<f64> {
    let (secs, accesses) =
        cells
            .iter()
            .filter(|c| c.org == org)
            .fold((0.0, 0u64), |(secs, accesses), c| {
                let contents = c.functional_s - c.runs_s - c.oracle_s.unwrap_or(0.0);
                (secs + contents, accesses + c.accesses)
            });
    (accesses > 0).then(|| secs * 1e9 / accesses as f64)
}

fn ratio(num: f64, den: f64) -> f64 {
    num / den.max(f64::MIN_POSITIVE)
}

/// The per-layer metrics every workload's traced run reports, from its
/// preps and cells. Fails the run when a layer was never exercised.
pub fn common_layer_metrics(out: &mut Outcome, preps: &[Prep], cells: &[CellSample]) {
    let instrs: f64 = preps.iter().map(|p| p.trace.len() as f64).sum();
    let sum = |f: fn(&Prep) -> f64| preps.iter().map(f).sum::<f64>();
    let bytes: f64 = preps
        .iter()
        .map(|p| p.trace.bytes_per_instr() * p.trace.len() as f64)
        .sum();
    out.push(
        metric("workloads.freeze_s", sum(|p| p.freeze_s), "s")
            .note(format!("{} specs, {instrs:.0} instructions", preps.len())),
    );
    out.push(metric(
        "workloads.gen_mips",
        ratio(instrs, sum(|p| p.freeze_s)) / 1e6,
        "Minstr/s",
    ));
    out.push(metric(
        "trace.decode_mips",
        ratio(instrs, sum(|p| p.decode_s)) / 1e6,
        "Minstr/s",
    ));
    out.push(metric(
        "trace.runs_mips",
        ratio(instrs, sum(|p| p.runs_s)) / 1e6,
        "Minstr/s",
    ));
    out.push(metric(
        "trace.bytes_per_instr",
        ratio(bytes, instrs),
        "B/instr",
    ));
    for (name, org) in [
        ("cache.ns_per_access.lru", "lru"),
        ("core.ns_per_access.acic", "acic"),
    ] {
        match contents_ns_per_access(cells, org) {
            Some(ns) => out.push(metric(name, ns, "ns")),
            None => out.fail(1, format!("{name}: the traced run ran no {org} cell")),
        }
    }

    let full: Vec<(&SimReport, f64, f64)> = cells
        .iter()
        .filter_map(|c| Some((c.report.as_ref()?, c.engine_s?, c.functional_s)))
        .filter(|(r, _, _)| r.sampled.is_none())
        .collect();
    let acic: Vec<&SimReport> = cells
        .iter()
        .filter(|c| c.org == "acic")
        .filter_map(|c| c.report.as_ref())
        .collect();
    if full.is_empty() || acic.is_empty() {
        out.fail(1, "the traced run ran no full-detail (ACIC) engine cell");
        return;
    }
    let total = |f: fn(&SimReport) -> u64, rs: &[&SimReport]| -> f64 {
        rs.iter().map(|r| f(r) as f64).sum()
    };
    let (admitted, decisions) = (
        total(|r| r.acic.map_or(0, |a| a.admitted), &acic),
        total(|r| r.acic.map_or(0, |a| a.decisions), &acic),
    );
    let (inserted, unresolved) = (
        total(|r| r.cshr.map_or(0, |c| c.inserted), &acic),
        total(|r| r.cshr.map_or(0, |c| c.evicted_unresolved), &acic),
    );
    let acic_instrs = total(|r| r.total_instructions, &acic);
    out.push(metric(
        "core.admit_rate",
        ratio(admitted, decisions),
        "frac",
    ));
    out.push(metric(
        "core.cshr_inserts_pki",
        ratio(inserted * 1000.0, acic_instrs),
        "1/kinstr",
    ));
    out.push(metric(
        "core.cshr_evicted_unresolved_frac",
        ratio(unresolved, inserted),
        "frac",
    ));

    let engine_s: f64 = full.iter().map(|f| f.1).sum();
    let pipeline_s: f64 = full.iter().map(|f| f.1 - f.2).sum();
    let reports: Vec<&SimReport> = full.iter().map(|f| f.0).collect();
    let instrs = total(|r| r.total_instructions, &reports);
    let measured = total(|r| r.measured_instructions, &reports);
    out.push(
        metric("sim.full_ns_per_instr", ratio(engine_s * 1e9, instrs), "ns")
            .note(format!("{} full-detail cells", reports.len())),
    );
    out.push(
        metric("sim.pipeline_self_s", pipeline_s, "s").note("Engine::run minus run_functional"),
    );
    out.push(metric(
        "sim.pipeline_share",
        ratio(pipeline_s, engine_s),
        "frac",
    ));
    let pki = |f: fn(&SimReport) -> u64| ratio(total(f, &reports) * 1000.0, instrs);
    out.push(
        metric(
            "sim.cpi",
            ratio(total(|r| r.measured_cycles, &reports), measured),
            "cycles/instr",
        )
        .note("simulated"),
    );
    out.push(
        metric(
            "sim.l1i_mpki",
            ratio(total(|r| r.l1i.demand_misses, &reports) * 1000.0, measured),
            "1/kinstr",
        )
        .note("simulated"),
    );
    out.push(
        metric(
            "sim.mispredicts_pki",
            pki(|r| r.branch.mispredicts),
            "1/kinstr",
        )
        .note("simulated"),
    );
    out.push(
        metric(
            "sim.prefetch_issued_pki",
            pki(|r| r.prefetch.issued),
            "1/kinstr",
        )
        .note("simulated"),
    );
    out.push(metric("sim.dram_pki", pki(|r| r.dram_accesses), "1/kinstr").note("simulated"));
}
