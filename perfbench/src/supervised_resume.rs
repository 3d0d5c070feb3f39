//! `supervised-resume`: `experiments --only fig17_ablation --supervise
//! --results <fresh dir>` with two concurrent children, then the
//! identical command again. The first pass computes every cell in its
//! own child process and journals it; the second replays them all.
//! This workload runs the shipped figure, so it ignores the seed.

use crate::layers::{
    common_layer_metrics, fingerprints, keep_going, measure_setup, median, parallel_map, prep,
    traced_cell, wall_metric, Prep, WORKERS,
};
use crate::output::{metric, Outcome};
use crate::spans::Tracer;
use crate::{fresh_dir, Args};
use acic_bench::result_store::{cell_key, ResultStore};
use acic_bench::WorkloadSpec;
use acic_core::{AcicConfig, PredictorKind};
use acic_sim::{IcacheOrg, SimConfig};
use acic_workloads::AppProfile;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

/// Instructions per cell (the figure's default budget).
const BUDGET: u64 = 1_000_000;

/// Workload-specific metrics (printed, not in the JSON line).
pub const METRICS: &[&str] = &[
    "bench.store_put_ms",
    "bench.store_puts",
    "bench.store_replay_s",
    "bench.supervise_overhead_s",
    "bench.supervise_vs_in_process",
];

/// The figure's cells: the LRU baseline plus its five ACIC designs
/// (default, no i-Filter, i-Filter only, global-history and bimodal
/// predictors), each over the ten datacenter applications.
fn configs() -> Vec<SimConfig> {
    let d = AcicConfig::default();
    let designs = [
        d,
        AcicConfig {
            filter_entries: 0,
            ..d
        },
        AcicConfig {
            predictor: PredictorKind::AlwaysAdmit,
            ..d
        },
        AcicConfig {
            predictor: PredictorKind::GlobalHistory,
            ..d
        },
        AcicConfig {
            predictor: PredictorKind::Bimodal,
            ..d
        },
    ];
    let base = SimConfig::default();
    let mut configs = vec![base.clone()];
    configs.extend(designs.map(|c| base.with_org(IcacheOrg::Acic(c))));
    configs
}

fn specs() -> Vec<WorkloadSpec> {
    WorkloadSpec::singles(&AppProfile::datacenter_suite())
}

/// One `experiments` invocation.
struct Pass {
    stdout: Vec<u8>,
    ok: bool,
    replayed: u64,
    computed: u64,
    wall_s: f64,
    stderr_tail: String,
}

/// The `experiments` binary built beside this one.
fn experiments() -> PathBuf {
    let exe = std::env::current_exe().expect("own executable path");
    exe.with_file_name("experiments")
}

/// Runs the figure once: supervised against `results` when given,
/// in process otherwise. Waits for the process (and so for every
/// child it supervises) to exit.
fn pass(results: Option<&Path>) -> Pass {
    let mut cmd = Command::new(experiments());
    cmd.args(["--only", "fig17_ablation"])
        .env("ACIC_BENCH_THREADS", WORKERS.to_string());
    if let Some(dir) = results {
        cmd.arg("--supervise").arg("--results").arg(dir);
    }
    let start = Instant::now();
    let output = cmd.output();
    let wall_s = start.elapsed().as_secs_f64();
    let output = match output {
        Ok(o) => o,
        Err(e) => {
            return Pass {
                stdout: Vec::new(),
                ok: false,
                replayed: 0,
                computed: 0,
                wall_s,
                stderr_tail: format!("could not run {}: {e}", experiments().display()),
            }
        }
    };
    let stderr = String::from_utf8_lossy(&output.stderr);
    // "[results: <r> replayed, <c> computed]"
    let counts = stderr.lines().find_map(|l| {
        let rest = l.strip_prefix("[results: ")?.strip_suffix(" computed]")?;
        let (r, c) = rest.split_once(" replayed, ")?;
        Some((r.parse().ok()?, c.parse().ok()?))
    });
    let (replayed, computed) = counts.unwrap_or((0, configs().len() as u64 * 10));
    Pass {
        stdout: output.stdout,
        ok: output.status.success(),
        replayed,
        computed,
        wall_s,
        stderr_tail: stderr.lines().rev().take(5).collect::<Vec<_>>().join(" | "),
    }
}

/// Checks one supervised pass against the in-process reference output
/// and the cell counts it must show.
fn check(out: &mut Outcome, what: &str, p: &Pass, reference: &[u8], computed: u64, cells: u64) {
    out.attempted += cells;
    if !p.ok {
        out.fail(cells, format!("{what} pass failed: {}", p.stderr_tail));
        return;
    }
    if p.stdout != reference {
        out.fail(
            cells,
            format!("{what} pass stdout differs from the in-process run"),
        );
    }
    if p.computed != computed || p.replayed + p.computed != cells {
        out.fail(
            p.computed.abs_diff(computed).max(1),
            format!(
                "{what} pass: {} replayed, {} computed; expected {computed} computed of {cells}",
                p.replayed, p.computed
            ),
        );
    }
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    out.notes.push(format!(
        "seed {} ignored: supervised-resume runs the shipped fig17_ablation on the paper profiles",
        args.seed
    ));
    let cells = (configs().len() * specs().len()) as u64;
    // One in-process run of the same figure per invocation: the
    // reference output and the supervision baseline.
    let reference = pass(None);
    out.attempted += cells;
    if !reference.ok {
        out.fail(
            cells,
            format!("in-process run failed: {}", reference.stderr_tail),
        );
        return out;
    }
    out.notes.push(format!(
        "in-process reference run took {:.2} s, untimed",
        reference.wall_s
    ));
    if args.trace {
        return traced(out, &reference);
    }
    measure_setup(&mut out, &specs(), BUDGET);

    let start = Instant::now();
    let mut walls = Vec::new();
    while keep_going(start, walls.len(), args.seconds) {
        let dir = fresh_dir("supervise");
        let cold = pass(Some(&dir));
        let resume = pass(Some(&dir));
        let _ = std::fs::remove_dir_all(&dir);
        walls.push(cold.wall_s + resume.wall_s);
        check(&mut out, "cold", &cold, &reference.stdout, cells, cells);
        check(&mut out, "resume", &resume, &reference.stdout, 0, cells);
    }
    let wall = median(&walls);
    out.push(wall_metric(&walls, "cold+resume pairs"));
    out.push(metric(
        "sim_mips",
        cells as f64 * BUDGET as f64 / wall / 1e6,
        "Minstr/s",
    ));
    out
}

/// The traced run: spans around the in-process, cold and resumed
/// passes, the figure's cells through direct layer calls, and the
/// journal read back and checked against them.
fn traced(mut out: Outcome, reference: &Pass) -> Outcome {
    let configs = configs();
    let specs = specs();
    let cells = (configs.len() * specs.len()) as u64;
    let dir = fresh_dir("supervise");
    let tracer = Tracer::new();
    let (parts, _) = tracer.span("bench.traced_supervise", None, |root| {
        let (in_process, _) = tracer.span("bench.in_process", Some(root), |_| pass(None));
        let (cold, _) = tracer.span("bench.supervise_cold", Some(root), |_| pass(Some(&dir)));
        let (resume, _) = tracer.span("bench.supervise_resume", Some(root), |_| pass(Some(&dir)));
        let preps: Vec<Prep> =
            parallel_map(specs.len(), |s| prep(&tracer, root, &specs[s], BUDGET));
        let samples = parallel_map(configs.len() * specs.len(), |k| {
            let (c, s) = (k / specs.len(), k % specs.len());
            traced_cell(&tracer, root, &configs[c], &preps[s], true)
        });
        (in_process, cold, resume, preps, samples)
    });
    let (in_process, cold, resume, preps, samples) = parts;
    out.attempted += cells;
    check(
        &mut out,
        "in-process",
        &in_process,
        &reference.stdout,
        cells,
        cells,
    );
    check(&mut out, "cold", &cold, &reference.stdout, cells, cells);
    check(&mut out, "resume", &resume, &reference.stdout, 0, cells);

    // The cold pass's journal must hold exactly what the direct calls
    // computed.
    let keys: Vec<String> = (0..samples.len())
        .map(|k| cell_key(&specs[k % specs.len()], BUDGET, &configs[k / specs.len()]))
        .collect();
    let direct = fingerprints(samples.iter().filter_map(|c| c.report.as_ref()));
    let (journaled, replay_s) = tracer.span("bench.store_replay", None, |_| {
        ResultStore::open(&dir).map(|store| {
            keys.iter()
                .map(|k| store.get(k).map(|r| format!("{r:?}")))
                .collect::<Vec<_>>()
        })
    });
    match journaled {
        Ok(journaled) => {
            let diff = journaled
                .iter()
                .zip(&direct)
                .filter(|(j, d)| j.as_ref() != Some(*d))
                .count();
            if diff > 0 {
                out.fail(
                    diff as u64,
                    format!("{diff} journaled cells differ from the traced run"),
                );
            }
        }
        Err(e) => out.fail(cells, format!("cannot reopen the journal: {e}")),
    }
    let _ = std::fs::remove_dir_all(&dir);

    let put_dir = fresh_dir("supervise-puts");
    let store = ResultStore::open(&put_dir).expect("open a fresh result store");
    let mut put_s = 0.0;
    for (key, cell) in keys.iter().zip(&samples) {
        let report = cell.report.as_ref().expect("traced cells ran the engine");
        let (res, s) = tracer.span("bench.store_put", None, |_| store.put(key, report));
        if let Err(e) = res {
            out.fail(1, format!("journal put failed: {e}"));
        }
        put_s += s;
    }
    let _ = std::fs::remove_dir_all(&put_dir);

    common_layer_metrics(&mut out, &preps, &samples);
    out.push(metric(
        "bench.store_put_ms",
        put_s * 1e3 / keys.len() as f64,
        "ms",
    ));
    out.push(metric("bench.store_puts", keys.len() as f64, "count"));
    out.push(
        metric("bench.store_replay_s", replay_s, "s")
            .note("open the cold pass's journal and get every cell"),
    );
    out.push(
        metric(
            "bench.supervise_overhead_s",
            cold.wall_s - in_process.wall_s,
            "s",
        )
        .note(format!(
            "cold supervised {:.3} s vs in-process {:.3} s; resume {:.3} s",
            cold.wall_s, in_process.wall_s, resume.wall_s
        )),
    );
    out.push(
        metric(
            "bench.supervise_vs_in_process",
            in_process.wall_s / cold.wall_s,
            "x",
        )
        .note("in-process wall over supervised cold wall (1 = no supervision cost)"),
    );
    out.spans = tracer.spans();
    out
}
