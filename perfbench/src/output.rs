//! Metric names, the run record, and the report every invocation
//! prints: one human-readable line per metric, then the JSON result as
//! the last line of standard output.

use crate::spans::{self, Span};
use crate::Args;
use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

/// End-to-end metrics, printed with `--trace 0` on every workload.
/// `peak_rss_mb` is measured by `run.py`, which waits for this process
/// and reads its resource usage (children included).
pub const END_TO_END: [&str; 3] = ["setup_s", "wall_s", "peak_rss_mb"];

/// End-to-end metrics every workload prints but the JSON line leaves
/// out: on `sampled-dse` the instructions a sweep covers move with the
/// seed's pruning outcome, so `sim_mips` spreads past any bound, and on
/// the other workloads it is `wall_s` inverted.
pub const PRINTED_END_TO_END: [&str; 1] = ["sim_mips"];

/// The end-to-end metric the wrapper adds after this process exits.
pub const MEASURED_BY_WRAPPER: &str = "peak_rss_mb";

/// Per-layer metrics every workload's traced run reports, printed with
/// `--trace 1`. Workload-specific layer metrics are printed beside
/// them but stay out of the JSON line, which must hold the same names
/// on every workload.
pub const PER_LAYER: [&str; 20] = [
    "workloads.freeze_s",
    "workloads.gen_mips",
    "trace.decode_mips",
    "trace.runs_mips",
    "trace.bytes_per_instr",
    "cache.ns_per_access.lru",
    "core.ns_per_access.acic",
    "core.admit_rate",
    "core.cshr_inserts_pki",
    "core.cshr_evicted_unresolved_frac",
    "sim.full_ns_per_instr",
    "sim.pipeline_self_s",
    "sim.pipeline_share",
    "sim.cpi",
    "sim.l1i_mpki",
    "sim.mispredicts_pki",
    "sim.prefetch_issued_pki",
    "sim.dram_pki",
    "bench.tracing_overhead_pct",
    "calibration.spin_ops_per_s",
];

/// Whether `name` is a valid metric name: `[A-Za-z0-9_.-]+`.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// Whether `name` is a listed metric: declared in `BENCHMARK.json` or
/// in a workload's own list.
fn known(name: &str) -> bool {
    valid_name(name)
        && END_TO_END
            .iter()
            .chain(&PRINTED_END_TO_END)
            .chain(&PER_LAYER)
            .chain(crate::fig_grid::METRICS)
            .chain(crate::sampled_dse::METRICS)
            .chain(crate::supervised_resume::METRICS)
            .any(|&n| n == name)
}

/// One measured value.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name (see README.md).
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Unit, e.g. `s` or `Minstr/s`.
    pub unit: &'static str,
    /// Context printed after the value (paper value, sample count).
    pub note: String,
}

/// A metric without a note.
pub fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
        note: String::new(),
    }
}

impl Metric {
    /// Attaches a note.
    pub fn note(mut self, note: impl Into<String>) -> Metric {
        self.note = note.into();
        self
    }
}

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    /// Cells attempted, over every pass and reference run.
    pub attempted: u64,
    /// Cells that failed or produced a wrong result.
    pub failed: u64,
    /// Why cells failed.
    pub failures: Vec<String>,
    /// Every metric, declared and workload-specific, in print order.
    pub metrics: Vec<Metric>,
    /// Lines printed before the metrics.
    pub notes: Vec<String>,
    /// The traced run's spans (empty with `--trace 0`).
    pub spans: Vec<Span>,
}

impl Outcome {
    /// Records a metric.
    pub fn push(&mut self, m: Metric) {
        self.metrics.push(m);
    }

    /// Counts `cells` failed or wrong cells.
    pub fn fail(&mut self, cells: u64, why: impl Into<String>) {
        self.failed += cells.max(1);
        self.failures.push(why.into());
    }
}

/// Host facts recorded with every invocation.
pub struct RunRecord {
    /// Available parallelism.
    pub nproc: usize,
    /// Commit of the measured tree, when the checkout has git metadata.
    pub commit: String,
    /// Fixed-work spin calibration: how fast this host ran a fixed
    /// dependent integer loop during this invocation.
    pub spin_ops_per_s: f64,
}

impl RunRecord {
    /// Probes the host.
    pub fn capture() -> RunRecord {
        RunRecord {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            commit: git_commit(Path::new(".")).unwrap_or_else(|| "unknown".into()),
            spin_ops_per_s: spin_ops_per_s(),
        }
    }

    fn json(&self, args: &Args) -> String {
        format!(
            "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{},\"workers\":{},\"commit\":\"{}\",\"spin_ops_per_s\":{}}}",
            args.workload.name(),
            args.seed,
            args.seconds,
            u8::from(args.trace),
            self.nproc,
            crate::layers::WORKERS,
            self.commit,
            self.spin_ops_per_s
        )
    }
}

/// Reads `HEAD` from the checkout's `.git` directory, following one
/// symbolic ref (loose or packed).
fn git_commit(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(hash) = std::fs::read_to_string(git.join(reference)) {
        return Some(hash.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|h| h.trim().to_string()))
}

/// Operations per second of a fixed dependent multiply-rotate chain,
/// median of three timings.
fn spin_ops_per_s() -> f64 {
    const OPS: u64 = 20_000_000;
    let mut rates: Vec<f64> = (0..3)
        .map(|_| {
            let start = Instant::now();
            let mut x = std::hint::black_box(0x9e37_79b9_7f4a_7c15u64);
            for i in 0..OPS {
                x = (x.rotate_left(5) ^ i).wrapping_mul(0x5851_f42d_4c95_7f2d);
            }
            std::hint::black_box(x);
            OPS as f64 / start.elapsed().as_secs_f64()
        })
        .collect();
    rates.sort_by(f64::total_cmp);
    rates[1]
}

/// Human-readable value: ratios and small values keep four decimals.
fn display(v: f64) -> String {
    if v.abs() >= 1e4 {
        format!("{v:.1}")
    } else {
        format!("{v:.4}")
    }
}

/// JSON number with every digit; non-finite values cannot be encoded.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// Prints the report, writes the run file under `.bench_out/`, and
/// returns the exit code: non-zero when any cell failed or was wrong.
pub fn finish(args: &Args, record: &RunRecord, mut out: Outcome) -> ExitCode {
    let traced = !out.spans.is_empty();
    if traced {
        let spans = &out.spans;
        let traced_s: f64 = spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.end_ns.saturating_sub(s.start_ns) as f64 * 1e-9)
            .sum();
        let overhead = spans.len() as f64 * spans::cost_per_span() / traced_s.max(1e-9) * 100.0;
        out.push(
            metric("bench.tracing_overhead_pct", overhead, "%")
                .note(format!("{} spans over {traced_s:.2} s traced", spans.len())),
        );
    }
    if args.trace {
        out.push(metric(
            "calibration.spin_ops_per_s",
            record.spin_ops_per_s,
            "ops/s",
        ));
    }
    let declared: Vec<&str> = if args.trace {
        PER_LAYER.to_vec()
    } else {
        END_TO_END
            .iter()
            .copied()
            .filter(|&n| n != MEASURED_BY_WRAPPER)
            .collect()
    };
    for m in &out.metrics {
        assert!(
            known(&m.name),
            "metric {} is not listed (see README.md)",
            m.name
        );
        if !m.value.is_finite() {
            out.failures
                .push(format!("{} is not a finite number", m.name));
            out.failed += 1;
        }
    }

    println!(
        "perfbench {} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("run-record {}", record.json(args));
    for n in &out.notes {
        println!("note: {n}");
    }
    for m in &out.metrics {
        println!(
            "{:<40} {:>16} {:<12} {}",
            m.name,
            display(m.value),
            m.unit,
            m.note
        );
    }
    let fail_rate = out.failed as f64 / out.attempted.max(1) as f64;
    println!(
        "{:<40} {:>16} {:<12} {} of {} cells failed or wrong",
        "cell_fail_rate",
        display(fail_rate),
        "frac",
        out.failed,
        out.attempted
    );
    for f in &out.failures {
        println!("FAIL: {}", f.replace('\n', "\n      "));
    }
    if traced {
        print_self_times(&out.spans);
    }
    write_run_file(args, record, &out, fail_rate);

    let mut metrics = String::new();
    for name in &declared {
        let m = out
            .metrics
            .iter()
            .find(|m| m.name == *name)
            .unwrap_or_else(|| panic!("workload did not measure declared metric {name}"));
        if !metrics.is_empty() {
            metrics.push(',');
        }
        let _ = write!(
            metrics,
            "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
            m.name,
            json_num(m.value),
            m.unit
        );
    }
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
        out.failed == 0,
        out.attempted.max(1),
        out.failed
    );
    if out.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn print_self_times(spans: &[Span]) {
    println!("self time by span (traced run):");
    let mut rows: Vec<_> = spans::totals_by_name(spans).into_iter().collect();
    rows.sort_by(|a, b| b.1.self_s.total_cmp(&a.1.self_s));
    for (name, t) in rows {
        println!(
            "  {:<36} {:>6} spans {:>10.4} s total {:>10.4} s self",
            name, t.count, t.total_s, t.self_s
        );
    }
    let layers = spans::self_by_layer(spans);
    let all: f64 = layers.values().sum();
    println!("self time by layer:");
    for (layer, s) in layers {
        println!(
            "  {:<12} {:>10.4} s {:>7.2}%",
            layer,
            s,
            s / all.max(1e-12) * 100.0
        );
    }
}

/// Writes the run record, every metric and the spans to
/// `.bench_out/<workload>-seed<n>-trace<t>.json`.
fn write_run_file(args: &Args, record: &RunRecord, out: &Outcome, fail_rate: f64) {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            )
        })
        .collect();
    let failures: Vec<String> = out
        .failures
        .iter()
        .map(|f| format!("{:?}", f.replace('"', "'")))
        .collect();
    let body = format!(
        "{{\"record\":{},\"cell_fail_rate\":{},\"attempted\":{},\"failed\":{},\"failures\":[{}],\"metrics\":{{{}}},\"spans\":{}}}\n",
        record.json(args),
        json_num(fail_rate),
        out.attempted,
        out.failed,
        failures.join(","),
        metrics.join(","),
        spans::to_json(&out.spans)
    );
    let path = crate::out_dir().join(format!(
        "{}-seed{}-trace{}.json",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) = std::fs::write(&path, body) {
        eprintln!("perfbench: could not write {}: {e}", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_well_formed_and_unique() {
        // Workloads may share a workload-specific name (both store
        // workloads report `bench.store_*`), but no list repeats a name
        // and none reuses a name every workload reports.
        let common: Vec<&str> = END_TO_END
            .iter()
            .chain(&PRINTED_END_TO_END)
            .chain(&PER_LAYER)
            .copied()
            .collect();
        let lists: [&[&str]; 4] = [
            &common,
            crate::fig_grid::METRICS,
            crate::sampled_dse::METRICS,
            crate::supervised_resume::METRICS,
        ];
        for (i, list) in lists.iter().enumerate() {
            let mut names = list.to_vec();
            for n in &names {
                assert!(valid_name(n), "bad metric name {n:?}");
                assert!(i == 0 || !common.contains(n), "{n} is already common");
            }
            names.sort_unstable();
            names.dedup();
            assert_eq!(names.len(), list.len(), "a metric list repeats a name");
        }
        assert!(!valid_name("sim mips") && !valid_name("") && !valid_name("a/b"));
    }

    #[test]
    fn declared_metrics_match_benchmark_json() {
        use acic_bench::json::Json;
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<String> {
            match doc.get(key) {
                Some(Json::Arr(items)) => items
                    .iter()
                    .map(|m| m.get("name").and_then(Json::str_val).unwrap().to_string())
                    .collect(),
                _ => panic!("BENCHMARK.json lacks {key}"),
            }
        };
        assert_eq!(names("end_to_end"), END_TO_END);
        assert_eq!(names("per_layer"), PER_LAYER);
    }

    #[test]
    fn json_numbers_keep_every_digit() {
        assert_eq!(json_num(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(json_num(f64::NAN), "null");
        assert_eq!(display(1.23456), "1.2346");
    }
}
