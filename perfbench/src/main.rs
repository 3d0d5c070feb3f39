//! Production-path benchmark driver: frozen `PackedTrace` replay into
//! `Engine`, end to end and layer by layer. See `perfbench/README.md`
//! for the workloads and metrics.
//!
//! Run it through the wrapper, which builds this package and the
//! `experiments` binary first:
//!
//! ```text
//! python3 perfbench/run.py --workload fig-grid --seed 1 --seconds 20 --trace 0
//! ```

mod fig_grid;
mod layers;
mod output;
mod sampled_dse;
mod spans;
mod supervised_resume;

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <fig-grid|sampled-dse|supervised-resume> \
                     --seed <n> --seconds <n> --trace <0|1>";

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Figure 10 grid plus the multi-tenant grid through `Runner`.
    FigGrid,
    /// A three-rung sampled DSE sweep journaled to a fresh store.
    SampledDse,
    /// `experiments --only fig17_ablation --supervise`, cold then resumed.
    SupervisedResume,
}

impl Workload {
    const ALL: [Workload; 3] = [
        Workload::FigGrid,
        Workload::SampledDse,
        Workload::SupervisedResume,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FigGrid => "fig-grid",
            Workload::SampledDse => "sampled-dse",
            Workload::SupervisedResume => "supervised-resume",
        }
    }
}

/// Parsed command line.
pub struct Args {
    /// Which workload to run.
    pub workload: Workload,
    /// Reseeds the workload's application profiles; 0 keeps the
    /// paper profiles.
    pub seed: u64,
    /// Measure for at least this long (and at least two passes).
    pub seconds: u64,
    /// Run the traced pass (per-layer metrics) instead of the untraced
    /// end-to-end measurement.
    pub trace: bool,
}

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = argv.next() {
            let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let number = || {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("{flag} takes a whole number, got {value:?}"))
            };
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::ALL
                            .into_iter()
                            .find(|w| w.name() == value)
                            .ok_or_else(|| format!("unknown workload {value:?}"))?,
                    )
                }
                "--seed" => seed = Some(number()?),
                "--seconds" => seconds = Some(number()?),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                    })
                }
                _ => return Err(format!("unknown argument {flag:?}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.unwrap_or(0),
            seconds: seconds.unwrap_or(10),
            trace: trace.unwrap_or(false),
        })
    }
}

/// Run files and scratch stores live under `.bench_out/` in the
/// directory the benchmark runs from (the checkout root).
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from(".bench_out");
    std::fs::create_dir_all(&dir).expect("create .bench_out");
    dir
}

/// A fresh, empty scratch directory for one result store.
pub fn fresh_dir(tag: &str) -> PathBuf {
    let dir = out_dir()
        .join("work")
        .join(format!("{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch store directory");
    dir
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // All load comes from this process: at most two grid workers, DSE
    // workers or concurrent supervised children.
    std::env::set_var("ACIC_BENCH_THREADS", layers::WORKERS.to_string());
    let record = output::RunRecord::capture();
    let outcome = match args.workload {
        Workload::FigGrid => fig_grid::run(&args),
        Workload::SampledDse => sampled_dse::run(&args),
        Workload::SupervisedResume => supervised_resume::run(&args),
    };
    let _ = std::fs::remove_dir_all(out_dir().join("work"));
    output::finish(&args, &record, outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        Args::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = parse(&[
            "--workload",
            "sampled-dse",
            "--seed",
            "7",
            "--seconds",
            "20",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload, Workload::SampledDse);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 20, true));
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--workload", "fig-grid", "--trace", "2"]).is_err());
        assert!(parse(&["--seed", "1"]).is_err(), "workload is required");
        assert!(parse(&["--workload"]).is_err());
    }
}
