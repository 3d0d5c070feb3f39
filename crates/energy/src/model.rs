//! Analytic chip-energy model (McPAT/CACTI-flavored; synthetic
//! constants at a notional 22 nm, 4 GHz).
//!
//! Energy = leakage power x execution time + per-event dynamic
//! energies, summed over core activity, cache accesses, DRAM traffic,
//! and ACIC's extra structures (i-Filter, HRT, PT, CSHR). Constants
//! are *synthetic but proportioned like CACTI outputs* (bigger arrays
//! cost more per access and leak more); only relative deltas between
//! two configurations are meaningful.

use acic_sim::SimReport;

/// Per-event energies in picojoules and leakage in watts.
#[derive(Clone, Debug, PartialEq)]
pub struct EnergyModel {
    /// Core dynamic energy per retired instruction (pJ).
    pub core_per_instr_pj: f64,
    /// L1 (i or d) access energy (pJ).
    pub l1_access_pj: f64,
    /// L2 access energy (pJ).
    pub l2_access_pj: f64,
    /// L3 access energy (pJ).
    pub l3_access_pj: f64,
    /// DRAM access energy (pJ).
    pub dram_access_pj: f64,
    /// i-Filter access energy (pJ) — tiny fully-associative buffer.
    pub ifilter_access_pj: f64,
    /// Predictor (HRT+PT) event energy (pJ).
    pub predictor_event_pj: f64,
    /// CSHR search/insert energy (pJ).
    pub cshr_event_pj: f64,
    /// Chip leakage power (W).
    pub chip_leakage_w: f64,
    /// Extra leakage of ACIC's 2.67 KB of state (W).
    pub acic_leakage_w: f64,
    /// Clock frequency (Hz) to convert cycles to seconds.
    pub frequency_hz: f64,
}

impl Default for EnergyModel {
    fn default() -> Self {
        EnergyModel {
            core_per_instr_pj: 120.0,
            l1_access_pj: 12.0,
            l2_access_pj: 45.0,
            l3_access_pj: 110.0,
            dram_access_pj: 4000.0,
            ifilter_access_pj: 1.6,
            predictor_event_pj: 0.5,
            cshr_event_pj: 0.9,
            chip_leakage_w: 1.9,
            acic_leakage_w: 0.0006,
            frequency_hz: 4.0e9,
        }
    }
}

/// Energy breakdown of one simulation run.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ChipEnergy {
    /// Dynamic energy (J).
    pub dynamic_j: f64,
    /// Leakage energy (J).
    pub leakage_j: f64,
}

impl ChipEnergy {
    /// Total chip energy (J).
    pub fn total_j(&self) -> f64 {
        self.dynamic_j + self.leakage_j
    }
}

impl EnergyModel {
    /// Evaluates a simulation report.
    ///
    /// The `is_acic` flag adds the i-Filter/predictor/CSHR activity
    /// and leakage for the ACIC organization.
    pub fn evaluate(&self, report: &SimReport) -> ChipEnergy {
        let time_s = report.total_cycles as f64 / self.frequency_hz;
        let is_acic = report.acic.is_some();

        let l1i_accesses = report.l1i.demand_accesses + report.l1i.prefetch_accesses;
        let l1d_accesses = report.l1d.demand_accesses;
        let l2_accesses = report.l2.demand_accesses;
        let l3_accesses = report.l3.demand_accesses;

        let mut dynamic_pj = report.total_instructions as f64 * self.core_per_instr_pj
            + (l1i_accesses + l1d_accesses) as f64 * self.l1_access_pj
            + l2_accesses as f64 * self.l2_access_pj
            + l3_accesses as f64 * self.l3_access_pj
            + report.dram_accesses as f64 * self.dram_access_pj;

        let mut leakage_w = self.chip_leakage_w;
        if is_acic {
            // Every demand access probes the i-Filter and searches the
            // CSHR; every decision touches HRT/PT.
            dynamic_pj +=
                report.l1i.demand_accesses as f64 * (self.ifilter_access_pj + self.cshr_event_pj);
            if let Some(acic) = &report.acic {
                dynamic_pj += (acic.decisions * 2) as f64 * self.predictor_event_pj;
            }
            leakage_w += self.acic_leakage_w;
        }

        ChipEnergy {
            dynamic_j: dynamic_pj * 1e-12,
            leakage_j: leakage_w * time_s,
        }
    }

    /// Relative chip-energy change of `candidate` vs `baseline`
    /// (negative = candidate saves energy).
    pub fn relative_delta(&self, candidate: &SimReport, baseline: &SimReport) -> f64 {
        let c = self.evaluate(candidate).total_j();
        let b = self.evaluate(baseline).total_j();
        (c - b) / b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acic_sim::{Engine, IcacheOrg, PrefetcherKind, SimConfig};
    use acic_workloads::{AppProfile, SyntheticWorkload};

    #[test]
    fn energy_is_positive_and_dominated_by_leakage_plus_core() {
        let wl = SyntheticWorkload::with_instructions(AppProfile::sibench(), 50_000);
        let r = Engine::run(&SimConfig::default(), &wl);
        let e = EnergyModel::default().evaluate(&r);
        assert!(e.dynamic_j > 0.0 && e.leakage_j > 0.0);
    }

    #[test]
    fn faster_run_uses_less_leakage() {
        let wl = SyntheticWorkload::with_instructions(AppProfile::media_streaming(), 200_000);
        let cfg = SimConfig {
            prefetcher: PrefetcherKind::None,
            ..SimConfig::default()
        };
        let base = Engine::run(&cfg, &wl);
        let opt = Engine::run(&cfg.with_org(IcacheOrg::Opt), &wl);
        let m = EnergyModel::default();
        assert!(
            m.evaluate(&opt).leakage_j <= m.evaluate(&base).leakage_j,
            "OPT should not run longer than LRU"
        );
    }

    #[test]
    fn relative_delta_is_zero_against_self() {
        let wl = SyntheticWorkload::with_instructions(AppProfile::sibench(), 20_000);
        let r = Engine::run(&SimConfig::default(), &wl);
        let m = EnergyModel::default();
        assert_eq!(m.relative_delta(&r, &r), 0.0);
    }
}
