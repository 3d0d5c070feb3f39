//! Window-parallel smoke check.
//!
//! [`window_smoke`] is the CI tripwire (`experiments --window-smoke`):
//! it runs one small sampled cell through `Engine::run_windowed` at
//! one worker and at two, and fails loudly unless the reports are
//! bit-identical — the determinism contract `tests/window_parallel.rs`
//! pins at full width, exercised here in seconds on every push.

use acic_sim::{Engine, IcacheOrg, SampleSchedule, SimConfig, SimReport};
use acic_trace::VecTrace;
use acic_workloads::{AppProfile, SyntheticWorkload};

/// Bit-identity over the whole report: `SimReport` carries `f64`s, so
/// equality of the shortest-round-trip `Debug` rendering *is*
/// bit-level equality of every counter and estimator.
fn identical(a: &SimReport, b: &SimReport) -> bool {
    format!("{a:?}") == format!("{b:?}")
}

/// The CI smoke check behind `experiments --window-smoke`: one small
/// sampled cell, `--window-threads 2` equality vs the one-worker run.
///
/// # Errors
///
/// Returns a description of the first divergence when the two-worker
/// report is not bit-identical to the one-worker report (the
/// determinism contract), or when the cell unexpectedly failed to
/// sample.
pub fn window_smoke() -> Result<String, String> {
    let trace = VecTrace::from_source(&SyntheticWorkload::with_instructions(
        AppProfile::web_search(),
        400_000,
    ));
    let cfg = SimConfig::default()
        .with_org(IcacheOrg::acic_default())
        .with_schedule(SampleSchedule::Periodic {
            period: 100_000,
            warmup_len: 30_000,
            detailed_len: 10_000,
        });
    let one = Engine::run_windowed(&cfg, &trace, 1);
    let s = one
        .sampled
        .ok_or("window smoke cell degenerated to a full run; it must sample")?;
    let two = Engine::run_windowed(&cfg, &trace, 2);
    if !identical(&one, &two) {
        return Err(format!(
            "window-parallel divergence: 2 workers disagree with 1 \
             (ipc {} vs {}, cycles {} vs {})",
            two.ipc(),
            one.ipc(),
            two.total_cycles,
            one.total_cycles
        ));
    }
    Ok(format!(
        "window smoke: 2-worker run bit-identical to 1-worker over {} windows \
         ({} instructions, ipc {:.4})",
        s.windows,
        one.total_instructions,
        one.ipc()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_passes_on_a_real_cell() {
        let report = window_smoke().expect("bit-identical");
        assert!(report.contains("bit-identical"), "{report}");
    }
}
