//! One function per paper figure/table; each takes the run's
//! [`Runner`] (budget, store, supervision) and returns the formatted
//! text `experiments` prints for it.
//!
//! A figure only builds grids: [`Runner::run_grid`] is its one path
//! to the engine, so every simulated cell is journaled, supervised and
//! watchdog-covered alike.

use crate::runner::{markdown_table, short_name, Runner, WorkloadSpec};
use crate::trace_store::freeze;
use acic_core::acic::{ACCURACY_BOUNDS, INSERT_DELTA_LABELS};
use acic_core::{AcicConfig, PredictorKind, UpdateMode};
use acic_energy::{storage_table_rows, EnergyModel};
use acic_sim::{IcacheOrg, PrefetcherKind, SampleSchedule, SimConfig, SimReport};
use acic_trace::{BlockRuns, MarkovChain, ReuseBucket, StackDistanceAnalyzer, TraceSource};
use acic_types::stats::{gmean, mean};
use acic_workloads::AppProfile;

fn dc_apps() -> Vec<AppProfile> {
    AppProfile::datacenter_suite()
}

/// What an org row reports per app against the baseline, and the
/// summary column that closes it.
#[derive(Clone, Copy)]
enum Metric {
    /// Speedup, closed by the gmean.
    Speedup,
    /// L1i MPKI reduction as a fraction, closed by the mean.
    MpkiReduction,
}

/// One row per org: its [`Metric`] on each app, then the summary.
fn fmt_org_rows(
    orgs: &[IcacheOrg],
    baseline: &[SimReport],
    rows: &[Vec<SimReport>],
    metric: Metric,
) -> String {
    type Value = fn(&SimReport, &SimReport) -> f64;
    type Summary = fn(&[f64]) -> Option<f64>;
    let (value, summary, summary_label): (Value, Summary, _) = match metric {
        Metric::Speedup => (SimReport::speedup_over, gmean, "gmean"),
        Metric::MpkiReduction => (SimReport::mpki_reduction_over, mean, "avg"),
    };
    let mut header = vec!["config".to_string()];
    header.extend(baseline.iter().map(|r| short_name(&r.app)));
    header.push(summary_label.to_string());
    let mut out_rows = Vec::new();
    for (org, row) in orgs.iter().zip(rows) {
        let vals: Vec<f64> = row.iter().zip(baseline).map(|(r, b)| value(r, b)).collect();
        let mut cells = vec![org.label().to_string()];
        cells.extend(vals.iter().map(|v| format!("{v:.4}")));
        cells.push(format!("{:.4}", summary(&vals).unwrap_or(0.0)));
        out_rows.push(cells);
    }
    markdown_table(&header, &out_rows)
}

/// Runs each labelled organization against the runner's baseline over
/// the datacenter suite: one row per label, each app's L1i MPKI
/// reduction in percent, then their mean.
fn mpki_reduction_table(runner: &Runner, first: &str, variants: &[(&str, IcacheOrg)]) -> String {
    let orgs: Vec<IcacheOrg> = variants.iter().map(|(_, o)| o.clone()).collect();
    let (baseline, rows) = runner.run_orgs(&orgs, &dc_apps());
    let mut header = vec![first.to_string()];
    header.extend(baseline.iter().map(|r| short_name(&r.app)));
    header.push("avg".into());
    let mut out_rows = Vec::new();
    for ((label, _), row) in variants.iter().zip(&rows) {
        let vals: Vec<f64> = row
            .iter()
            .zip(&baseline)
            .map(|(r, b)| r.mpki_reduction_over(b))
            .collect();
        let mut cells = vec![label.to_string()];
        cells.extend(vals.iter().map(|v| format!("{:.2}%", v * 100.0)));
        cells.push(format!("{:.2}%", mean(&vals).unwrap_or(0.0) * 100.0));
        out_rows.push(cells);
    }
    markdown_table(&header, &out_rows)
}

/// Runs each labelled ACIC variant against the runner's baseline over
/// the datacenter suite: one row per label with its gmean speedup.
fn gmean_speedup_table(runner: &Runner, first: &str, variants: &[(&str, AcicConfig)]) -> String {
    let orgs: Vec<IcacheOrg> = variants.iter().map(|(_, c)| IcacheOrg::Acic(*c)).collect();
    let (baseline, rows) = runner.run_orgs(&orgs, &dc_apps());
    let out_rows: Vec<Vec<String>> = variants
        .iter()
        .zip(&rows)
        .map(|((label, _), row)| {
            let sp: Vec<f64> = row
                .iter()
                .zip(&baseline)
                .map(|(r, b)| r.speedup_over(b))
                .collect();
            vec![
                label.to_string(),
                format!("{:.4}", gmean(&sp).unwrap_or(0.0)),
            ]
        })
        .collect();
    markdown_table(&[first.into(), "gmean speedup".into()], &out_rows)
}

/// Figure 1a: reuse-distance distribution per application.
pub fn fig01a_reuse_hist(runner: &Runner) -> String {
    let n = runner.instructions;
    let mut rows = Vec::new();
    for p in dc_apps() {
        let Ok(wl) = freeze(&WorkloadSpec::Single(p), n);
        let blocks: Vec<_> = wl.iter().map(|i| i.pc().block()).collect();
        let h = StackDistanceAnalyzer::histogram(&blocks);
        let f = h.fractions();
        let mut cells = vec![wl.name().to_string()];
        cells.extend(
            ReuseBucket::ALL
                .iter()
                .map(|&b| format!("{:.3}%", f[b as usize] * 100.0)),
        );
        rows.push(cells);
    }
    let mut header = vec!["application".to_string()];
    header.extend(ReuseBucket::ALL.iter().map(|b| b.label().to_string()));
    format!(
        "Figure 1a — reuse-distance distribution ({} instructions/app)\n{}",
        runner.instructions,
        markdown_table(&header, &rows)
    )
}

/// Figure 1b: Markov chain of reuse-distance buckets in media
/// streaming.
pub fn fig01b_markov(runner: &Runner) -> String {
    let Ok(wl) = freeze(
        &WorkloadSpec::Single(AppProfile::media_streaming()),
        runner.instructions,
    );
    let seq: Vec<_> = BlockRuns::new(wl.iter()).map(|r| r.block).collect();
    let chain = MarkovChain::from_sequence(&seq);
    let mut header = vec!["from \\ to".to_string()];
    header.extend(ReuseBucket::ALL.iter().map(|b| b.label().to_string()));
    let mut rows = Vec::new();
    for from in ReuseBucket::ALL {
        let mut cells = vec![from.label().to_string()];
        for to in ReuseBucket::ALL {
            cells.push(format!("{:.3}", chain.transition_probability(from, to)));
        }
        rows.push(cells);
    }
    format!(
        "Figure 1b — Markov chain of reuse-distance ranges, media streaming\n{}",
        markdown_table(&header, &rows)
    )
}

/// Figure 3a: always-insert i-Filter, access-count bypass and OPT
/// replacement speedups over the LRU+FDP baseline.
pub fn fig03a_ifilter_gap(runner: &Runner) -> String {
    let orgs = [
        IcacheOrg::IFilterAlways,
        IcacheOrg::AccessCount,
        IcacheOrg::Opt,
    ];
    let apps = dc_apps();
    let (baseline, rows) = runner.run_orgs(&orgs, &apps);
    format!(
        "Figure 3a — speedup over LRU+FDP baseline\n{}",
        fmt_org_rows(&orgs, &baseline, &rows, Metric::Speedup)
    )
}

/// Figure 3b: (incoming - outgoing) forward reuse distance at
/// i-Filter-to-i-cache insertions, media streaming.
pub fn fig03b_insert_delta(runner: &Runner) -> String {
    let cfg = SimConfig {
        attach_oracle: true,
        icache_org: IcacheOrg::Acic(AcicConfig {
            predictor: PredictorKind::AlwaysAdmit,
            ..AcicConfig::default()
        }),
        ..SimConfig::default()
    };
    let spec = WorkloadSpec::Single(AppProfile::media_streaming());
    let acic = runner.run_grid(&[cfg], &[spec])[0][0]
        .acic
        .expect("ACIC stats");
    let total: u64 = acic.insert_delta.iter().sum();
    let mut rows = Vec::new();
    for (label, count) in INSERT_DELTA_LABELS.iter().zip(acic.insert_delta.iter()) {
        rows.push(vec![
            label.to_string(),
            format!("{:.2}%", *count as f64 / total.max(1) as f64 * 100.0),
        ]);
    }
    let wrong: u64 = acic.insert_delta[6..].iter().sum();
    format!(
        "Figure 3b — insertion reuse-distance delta, media streaming\n{}\nincoming block arrives later than outgoing in {:.2}% of insertions (paper: 38.38%)\n",
        markdown_table(&["delta bucket".into(), "fraction".into()], &rows),
        wrong as f64 / total.max(1) as f64 * 100.0
    )
}

/// Figure 6: CSHR comparison-lifetime distribution, data caching.
pub fn fig06_cshr_lifetime(runner: &Runner) -> String {
    let cfg = SimConfig {
        unbounded_cshr: true,
        icache_org: IcacheOrg::acic_default(),
        ..SimConfig::default()
    };
    let spec = WorkloadSpec::Single(AppProfile::data_caching());
    let f = runner.run_grid(&[cfg], &[spec])[0][0]
        .cshr_lifetimes
        .expect("unbounded CSHR enabled");
    let labels = ["0", "50", "100", "150", "200", "250", "300", "350", "InF"];
    let rows: Vec<Vec<String>> = labels
        .iter()
        .zip(f.iter())
        .map(|(l, v)| vec![l.to_string(), format!("{:.2}%", v * 100.0)])
        .collect();
    // Buckets are 50 entries wide; the first six cover < 300
    // concurrent entries — the closest bucket boundary to the paper's
    // 256-entry CSHR.
    let within_256: f64 = f[..6].iter().sum();
    format!(
        "Figure 6 — comparisons by concurrent CSHR entries needed, data caching\n{}\n~{:.0}% of comparisons resolve within ~256 entries (paper: ~70%)\n",
        markdown_table(&["entries needed".into(), "fraction".into()], &rows),
        within_256 * 100.0
    )
}

/// Figures 10: speedup of every compared scheme over LRU+FDP.
pub fn fig10_speedup(runner: &Runner) -> String {
    let orgs = IcacheOrg::figure10_set();
    let apps = dc_apps();
    let (baseline, rows) = runner.run_orgs(&orgs, &apps);
    format!(
        "Figure 10 — speedup over LRU baseline with fetch-directed prefetching\n{}",
        fmt_org_rows(&orgs, &baseline, &rows, Metric::Speedup)
    )
}

/// Figure 11: L1i MPKI reduction of every compared scheme.
pub fn fig11_mpki(runner: &Runner) -> String {
    let orgs = IcacheOrg::figure10_set();
    let apps = dc_apps();
    let (baseline, rows) = runner.run_orgs(&orgs, &apps);
    format!(
        "Figure 11 — L1i MPKI reduction over LRU baseline with FDP\n{}",
        fmt_org_rows(&orgs, &baseline, &rows, Metric::MpkiReduction)
    )
}

/// Figure 12a: ACIC bypass accuracy by reuse-distance range.
pub fn fig12a_accuracy(runner: &Runner) -> String {
    let runner = Runner {
        baseline: SimConfig {
            attach_oracle: true,
            ..runner.baseline.clone()
        },
        ..runner.clone()
    };
    let apps = dc_apps();
    let grid = runner.run_grid(
        &[runner.baseline.with_org(IcacheOrg::acic_default())],
        &WorkloadSpec::singles(&apps),
    );
    let mut sums = vec![(0.0, 0u64); ACCURACY_BOUNDS.len()];
    for r in &grid[0] {
        let acic = r.acic.expect("ACIC stats");
        for (i, ratio) in acic.accuracy.iter().enumerate() {
            if ratio.denominator() > 0 {
                sums[i].0 += ratio.fraction();
                sums[i].1 += 1;
            }
        }
    }
    let rows: Vec<Vec<String>> = ACCURACY_BOUNDS
        .iter()
        .zip(sums.iter())
        .map(|(b, (acc, n))| {
            let label = if *b == u64::MAX {
                "[0,InF)".to_string()
            } else {
                format!("[0,{b})")
            };
            vec![
                label,
                format!("{:.2}%", if *n > 0 { acc / *n as f64 * 100.0 } else { 0.0 }),
            ]
        })
        .collect();
    format!(
        "Figure 12a — average ACIC bypass accuracy by reuse-distance range\n{}",
        markdown_table(&["range".into(), "accuracy".into()], &rows)
    )
}

/// Figure 12b: MPKI reduction of random-60% bypass vs ACIC.
pub fn fig12b_random(runner: &Runner) -> String {
    let random = IcacheOrg::Acic(AcicConfig {
        predictor: PredictorKind::Random {
            seed: 0xf12b,
            num: 3,
            denom: 5,
        },
        ..AcicConfig::default()
    });
    let table = mpki_reduction_table(
        runner,
        "config",
        &[
            ("Random bypass (60%)", random),
            ("ACIC", IcacheOrg::acic_default()),
        ],
    );
    format!("Figure 12b — MPKI reduction: random bypass vs ACIC over FDP baseline\n{table}")
}

/// Figure 13: percentage of i-Filter victims admitted per app.
pub fn fig13_admit_rate(runner: &Runner) -> String {
    let grid = runner.run_grid(
        &[runner.baseline.with_org(IcacheOrg::acic_default())],
        &WorkloadSpec::singles(&dc_apps()),
    );
    let rows: Vec<Vec<String>> = grid[0]
        .iter()
        .map(|r| {
            vec![
                r.app.clone(),
                format!(
                    "{:.1}%",
                    r.acic.expect("ACIC stats").admit_fraction() * 100.0
                ),
            ]
        })
        .collect();
    format!(
        "Figure 13 — i-Filter victims inserted into the i-cache\n{}",
        markdown_table(&["application".into(), "admitted".into()], &rows)
    )
}

/// Figure 14: parallel (2-cycle) vs instant predictor updates.
pub fn fig14_update_latency(runner: &Runner) -> String {
    let parallel = IcacheOrg::Acic(AcicConfig::default());
    let instant = IcacheOrg::Acic(AcicConfig {
        update_mode: UpdateMode::Instant,
        ..AcicConfig::default()
    });
    let table = mpki_reduction_table(
        runner,
        "scheme",
        &[("parallel update", parallel), ("instant update", instant)],
    );
    format!("Figure 14 — MPKI reduction: 2-cycle (parallel) vs instant predictor update\n{table}")
}

/// Figure 15: sensitivity of ACIC's gmean speedup to its parameters.
pub fn fig15_sensitivity(runner: &Runner) -> String {
    let d = AcicConfig::default();
    let variants: Vec<(&str, AcicConfig)> = vec![
        ("default", d),
        (
            "2k HRT entries",
            AcicConfig {
                hrt_entries: 2048,
                ..d
            },
        ),
        (
            "512 HRT entries",
            AcicConfig {
                hrt_entries: 512,
                ..d
            },
        ),
        (
            "8-bit history",
            AcicConfig {
                history_bits: 8,
                ..d
            },
        ),
        (
            "10-bit history",
            AcicConfig {
                history_bits: 10,
                ..d
            },
        ),
        (
            "2-bit counter",
            AcicConfig {
                pt_counter_bits: 2,
                ..d
            },
        ),
        (
            "8-bit counter",
            AcicConfig {
                pt_counter_bits: 8,
                ..d
            },
        ),
        (
            "8-slot i-Filter",
            AcicConfig {
                filter_entries: 8,
                ..d
            },
        ),
        (
            "32-slot i-Filter",
            AcicConfig {
                filter_entries: 32,
                ..d
            },
        ),
        (
            "7-bit CSHR tag",
            AcicConfig {
                cshr_tag_bits: 7,
                ..d
            },
        ),
        (
            "15-bit CSHR tag",
            AcicConfig {
                cshr_tag_bits: 15,
                ..d
            },
        ),
    ];
    format!(
        "Figure 15 — ACIC sensitivity (gmean speedup over LRU+FDP). Note: the paper's\n27-bit CSHR tag point is capped at 15 bits here (tags are folded hashes).\n{}",
        gmean_speedup_table(runner, "configuration", &variants)
    )
}

/// Figure 16: ACIC speedup over the FDP baseline *with* an i-Filter.
pub fn fig16_over_ifilter(runner: &Runner) -> String {
    let apps = dc_apps();
    let configs = vec![
        runner.baseline.with_org(IcacheOrg::IFilterAlways),
        runner.baseline.with_org(IcacheOrg::acic_default()),
    ];
    let grid = runner.run_grid(&configs, &WorkloadSpec::singles(&apps));
    let rows: Vec<Vec<String>> = grid[1]
        .iter()
        .zip(&grid[0])
        .map(|(acic, filt)| vec![acic.app.clone(), format!("{:.4}", acic.speedup_over(filt))])
        .collect();
    let sp: Vec<f64> = grid[1]
        .iter()
        .zip(&grid[0])
        .map(|(a, f)| a.speedup_over(f))
        .collect();
    format!(
        "Figure 16 — ACIC speedup over FDP baseline equipped with i-Filter (gmean {:.4})\n{}",
        gmean(&sp).unwrap_or(0.0),
        markdown_table(&["application".into(), "speedup".into()], &rows)
    )
}

/// Figure 17: ACIC ablations (no filter / filter only / global
/// history / bimodal).
pub fn fig17_ablation(runner: &Runner) -> String {
    let d = AcicConfig::default();
    let variants: Vec<(&str, AcicConfig)> = vec![
        ("default", d),
        (
            "no i-Filter",
            AcicConfig {
                filter_entries: 0,
                ..d
            },
        ),
        (
            "i-Filter only",
            AcicConfig {
                predictor: PredictorKind::AlwaysAdmit,
                ..d
            },
        ),
        (
            "global-history predictor",
            AcicConfig {
                predictor: PredictorKind::GlobalHistory,
                ..d
            },
        ),
        (
            "bimodal predictor",
            AcicConfig {
                predictor: PredictorKind::Bimodal,
                ..d
            },
        ),
    ];
    format!(
        "Figure 17 — gmean speedup of ACIC with simpler designs over FDP baseline\n{}",
        gmean_speedup_table(runner, "design", &variants)
    )
}

fn spec_comparison(
    runner: &Runner,
    prefetcher: PrefetcherKind,
    apps: &[AppProfile],
    title: &str,
) -> String {
    let runner = runner.with_prefetcher(prefetcher);
    let orgs = [
        IcacheOrg::Ghrp,
        IcacheOrg::Larger36k,
        IcacheOrg::acic_default(),
        IcacheOrg::Opt,
    ];
    let (baseline, rows) = runner.run_orgs(&orgs, apps);
    let speedups = fmt_org_rows(&orgs, &baseline, &rows, Metric::Speedup);
    let mpki = fmt_org_rows(&orgs, &baseline, &rows, Metric::MpkiReduction);
    format!("{title}\nSpeedup:\n{speedups}\nMPKI reduction (fractions):\n{mpki}")
}

/// Figures 18 & 19: the SPEC2017 study.
pub fn fig18_19_spec(runner: &Runner) -> String {
    spec_comparison(
        runner,
        PrefetcherKind::Fdp,
        &AppProfile::spec_suite(),
        "Figures 18/19 — SPEC2017 subset over FDP baseline (GHRP, 36KB L1i, ACIC, OPT)",
    )
}

/// Figures 20 & 21: the entangling-prefetcher study.
pub fn fig20_21_entangling(runner: &Runner) -> String {
    spec_comparison(
        runner,
        PrefetcherKind::Entangling,
        &dc_apps(),
        "Figures 20/21 — datacenter suite over entangling-prefetcher baseline",
    )
}

/// Table I: ACIC storage breakdown.
pub fn table1_storage(_runner: &Runner) -> String {
    let cfg = AcicConfig::default();
    let rows = vec![
        vec![
            "i-Filter".to_string(),
            format!(
                "{} bits ({:.3} KB)",
                cfg.filter_bits(),
                cfg.filter_bits() as f64 / 8192.0
            ),
        ],
        vec![
            "HRT".to_string(),
            format!(
                "{} bits ({:.3} KB)",
                cfg.hrt_bits(),
                cfg.hrt_bits() as f64 / 8192.0
            ),
        ],
        vec![
            "PT".to_string(),
            format!("{} bits ({} B)", cfg.pt_bits(), cfg.pt_bits() / 8),
        ],
        vec![
            "PT entry update queue".to_string(),
            format!(
                "{} bits ({} B)",
                cfg.pt_queue_bits(),
                cfg.pt_queue_bits() / 8
            ),
        ],
        vec![
            "CSHR".to_string(),
            format!(
                "{} bits ({:.4} KB)",
                cfg.cshr_bits(),
                cfg.cshr_bits() as f64 / 8192.0
            ),
        ],
        vec!["Total".to_string(), format!("{:.2} KB", cfg.storage_kib())],
    ];
    format!(
        "Table I — storage overhead of ACIC for a 32KB, 8-way i-cache\n{}",
        markdown_table(&["component".into(), "size".into()], &rows)
    )
}

/// Table II: simulated core parameters.
pub fn table2_config(_runner: &Runner) -> String {
    let c = SimConfig::default();
    let rows = vec![
        vec![
            "Fetch width".into(),
            format!("{}-wide, {}-entry FTQ", c.fetch_width, c.ftq_entries),
        ],
        vec![
            "Decode".into(),
            format!(
                "{}-wide, {}-entry queue",
                c.decode_width, c.decode_queue_entries
            ),
        ],
        vec![
            "ROB".into(),
            format!("{} entries, retire {}/cycle", c.rob_entries, c.retire_width),
        ],
        vec!["BTB".into(), "8192-entry, 4-way".into()],
        vec![
            "Branch predictor".into(),
            "TAGE (4 tagged tables) + ITTAGE-lite indirect".into(),
        ],
        vec![
            "L1 I-cache".into(),
            format!(
                "32KB, 8-way, {} MSHRs, {}-cycle",
                c.l1i_mshrs, c.l1i_hit_latency
            ),
        ],
        vec![
            "L1 D-cache".into(),
            format!("48KB, {} MSHRs, {}-cycle", c.l1d_mshrs, c.l1d_hit_latency),
        ],
        vec!["L2".into(), format!("512KB, 8-way, {}-cycle", c.l2_latency)],
        vec!["L3".into(), format!("2MB, 16-way, {}-cycle", c.l3_latency)],
        vec![
            "DRAM".into(),
            format!("{}-cycle, {}-cycle channel gap", c.dram_latency, c.dram_gap),
        ],
    ];
    format!(
        "Table II — simulated system parameters\n{}",
        markdown_table(&["parameter".into(), "value".into()], &rows)
    )
}

/// Table III: baseline (LRU + FDP) L1i MPKI per application.
pub fn table3_mpki(runner: &Runner) -> String {
    let grid = runner.run_grid(
        std::slice::from_ref(&runner.baseline),
        &WorkloadSpec::singles(&dc_apps()),
    );
    let rows: Vec<Vec<String>> = grid[0]
        .iter()
        .map(|r| vec![r.app.clone(), format!("{:.2}", r.l1i_mpki())])
        .collect();
    format!(
        "Table III — baseline L1i MPKI (LRU + FDP, {} instructions/app)\n{}",
        runner.instructions,
        markdown_table(&["application".into(), "MPKI".into()], &rows)
    )
}

/// Table IV: storage overhead of every compared scheme.
pub fn table4_schemes(_runner: &Runner) -> String {
    let rows: Vec<Vec<String>> = storage_table_rows()
        .into_iter()
        .map(|s| {
            vec![
                s.name.to_string(),
                s.strategy.to_string(),
                format!("{:.2} KB", s.kib),
            ]
        })
        .collect();
    format!(
        "Table IV — storage overhead of the compared schemes\n{}",
        markdown_table(
            &["scheme".into(), "strategy".into(), "storage".into()],
            &rows
        )
    )
}

/// §III-D: chip-energy delta of ACIC vs the baseline.
pub fn energy_summary(runner: &Runner) -> String {
    let apps = dc_apps();
    let (baseline, rows) = runner.run_orgs(&[IcacheOrg::acic_default()], &apps);
    let model = EnergyModel::default();
    let mut out_rows = Vec::new();
    let mut deltas = Vec::new();
    for (acic, base) in rows[0].iter().zip(&baseline) {
        let d = model.relative_delta(acic, base);
        deltas.push(d);
        out_rows.push(vec![acic.app.clone(), format!("{:+.3}%", d * 100.0)]);
    }
    out_rows.push(vec![
        "average".into(),
        format!("{:+.3}%", mean(&deltas).unwrap_or(0.0) * 100.0),
    ]);
    format!(
        "§III-D — chip energy delta of ACIC vs LRU+FDP (negative = savings; paper: -0.63%)\n{}",
        markdown_table(&["application".into(), "energy delta".into()], &out_rows)
    )
}

/// Multi-tenant context-switch scenario: organizations x tenant
/// counts x switch quanta.
///
/// Three organizations frame the value of address-space identity:
/// `LRU flush` (no ASID bits — a switch guts the cache), `LRU`
/// (ASID-tagged tags, contents survive switches), and `ACIC`
/// (ASID-tagged i-Filter + admission predictor). Each scenario cell
/// interleaves heterogeneous datacenter profiles at the same virtual
/// addresses, so only the ASID keeps tenants apart.
pub fn multi_tenant(runner: &Runner) -> String {
    let orgs = [
        IcacheOrg::LruFlush,
        IcacheOrg::Lru,
        IcacheOrg::acic_default(),
    ];
    let configs: Vec<SimConfig> = orgs
        .iter()
        .map(|o| runner.baseline.with_org(o.clone()))
        .collect();
    let mut specs = Vec::new();
    for &tenants in &[2usize, 4] {
        for &quantum in &[10_000u64, 50_000] {
            specs.push(WorkloadSpec::MultiTenant {
                profiles: dc_apps().into_iter().take(tenants).collect(),
                quantum,
            });
        }
    }
    let grid = runner.run_grid(&configs, &specs);
    let mut header = vec!["config".to_string()];
    header.extend(specs.iter().map(|s| s.label()));
    let mut rows = Vec::new();
    for (org, row) in orgs.iter().zip(&grid) {
        let mut cells = vec![org.label().to_string()];
        cells.extend(
            row.iter()
                .map(|r| format!("{:.3} mpki / {:.3} ipc", r.l1i_mpki(), r.ipc())),
        );
        rows.push(cells);
    }
    // Context-switch counts are a property of the scenario, not the
    // organization; report them from the first config's row.
    let mut switch_cells = vec!["switches".to_string()];
    switch_cells.extend(grid[0].iter().map(|r| r.context_switches.to_string()));
    rows.push(switch_cells);
    format!(
        "Multi-tenant scenario — L1i MPKI / IPC by organization, tenant count and switch quantum\n\
         (LRU flush = no-ASID baseline; LRU and ACIC are ASID-tagged)\n{}",
        markdown_table(&header, &rows)
    )
}

/// Sampling-error sweep: MPKI/IPC error of the sampled engine versus
/// full detail, and the share of instructions it simulated in detail,
/// over period × detailed-window size, for LRU and ACIC on single- and
/// multi-tenant workloads. Every column is deterministic, so the table
/// is byte-identical run to run. All 20 cells (2 orgs × full detail
/// plus 4 schedules, over 2 workloads) run as one grid.
///
/// Periods scale with the instruction budget (`total/8`, `total/4`)
/// so the sweep stays meaningful at any `ACIC_EXP_INSTRUCTIONS`;
/// warmup is a quarter period (the rest of the gap is
/// convergence-gated fast-forward). The documented default schedule's
/// full-scale accuracy is pinned by
/// `tests/sampled_sim.rs::default_sampled_schedule_hits_10x_within_2pct`.
pub fn sampling_error(runner: &Runner) -> String {
    let n = runner.instructions;
    let orgs = [IcacheOrg::Lru, IcacheOrg::acic_default()];
    let specs = [
        WorkloadSpec::Single(AppProfile::web_search()),
        WorkloadSpec::MultiTenant {
            profiles: vec![AppProfile::web_search(), AppProfile::tpc_c()],
            quantum: 20_000,
        },
    ];
    // Clamp so tiny budgets still produce a valid schedule: the
    // detailed window never exceeds half the period, warmup fills at
    // most the remainder.
    let sizes: Vec<(u64, u64)> = [(n / 8).max(4), (n / 4).max(4)]
        .into_iter()
        .flat_map(|period| {
            [20u64, 10].map(|div| (period, (period / div).max(1_000).min(period / 2)))
        })
        .collect();
    // Per org: its full-detail reference, then one sampled config per
    // (period, detailed window).
    let mut configs = Vec::new();
    for org in &orgs {
        let full = SimConfig::default().with_org(org.clone());
        let sampled: Vec<SimConfig> = sizes
            .iter()
            .map(|&(period, detailed_len)| {
                full.with_schedule(SampleSchedule::Periodic {
                    period,
                    warmup_len: (period / 4).min(period - detailed_len),
                    detailed_len,
                })
            })
            .collect();
        configs.push(full);
        configs.extend(sampled);
    }
    let grid = runner.run_grid(&configs, &specs);

    let header: Vec<String> = [
        "config", "workload", "period", "detailed", "windows", "ipc err", "mpki err", "detail %",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let mut rows = Vec::new();
    for (a, spec) in specs.iter().enumerate() {
        for (org, block) in orgs.iter().zip(grid.chunks(sizes.len() + 1)) {
            let full = &block[0][a];
            for (&(period, detailed_len), row) in sizes.iter().zip(&block[1..]) {
                let sampled = &row[a];
                let ipc_err = if full.ipc() > 0.0 {
                    (sampled.ipc() - full.ipc()).abs() / full.ipc() * 100.0
                } else {
                    0.0
                };
                let mpki_err = if full.l1i_mpki() > 0.0 {
                    (sampled.l1i_mpki() - full.l1i_mpki()).abs() / full.l1i_mpki() * 100.0
                } else {
                    0.0
                };
                // A schedule that degenerated to full detail
                // simulated every instruction in detail.
                let (windows, detailed) = sampled
                    .sampled
                    .map_or((0, sampled.total_instructions), |s| {
                        (s.windows, s.detailed_instructions)
                    });
                let detail_pct = detailed as f64 / sampled.total_instructions.max(1) as f64 * 100.0;
                rows.push(vec![
                    org.label().to_string(),
                    spec.label(),
                    format!("{}k", period / 1000),
                    format!("{}k", detailed_len / 1000),
                    windows.to_string(),
                    format!("{ipc_err:.2}%"),
                    format!("{mpki_err:.2}%"),
                    format!("{detail_pct:.1}%"),
                ]);
            }
        }
    }
    format!(
        "Sampling error — sampled engine vs full detail ({} instructions/cell)\n\
         (periods scale with the budget; warmup = period/4, remainder adaptive fast-forward)\n{}",
        n,
        markdown_table(&header, &rows)
    )
}
