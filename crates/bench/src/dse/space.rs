//! Design-space declarations: which configurations and workloads a
//! DSE sweep explores.
//!
//! A space is a list of [`DseConfig`]s (each a full [`SimConfig`]
//! with a display label) crossed with a list of workload specs. Spaces
//! come from three places: the built-in spaces below (the smoke space
//! for CI, the pinned space the correctness test sweeps exhaustively,
//! and the ~290-config cache-geometry space behind the committed
//! baseline numbers), or a small JSON file (`experiments --dse-space
//! <file>`) declaring axes that are crossed into ACIC configurations:
//!
//! ```json
//! {
//!   "name": "geometry",
//!   "apps": ["sibench", "x264", "gcc"],
//!   "orgs": ["lru", "srrip", "acic"],
//!   "sets": [16, 32, 64],
//!   "ways": [4, 8],
//!   "cshr_entries": [64, 256],
//!   "history_bits": [2, 4],
//!   "filter_entries": [16],
//!   "hrt_entries": [1024]
//! }
//! ```
//!
//! `lru`/`srrip` are single fixed configurations (LRU doubles as the
//! protected baseline — it is never pruned, so every sweep retains
//! the reference that MPKI reductions are reported against); `acic`
//! expands to the cross product of the axes. Omitted axes default to
//! the paper's Table I values. Axis values are validated against the
//! same constraints `AcicConfig::validate` enforces, so a bad space
//! file fails at parse time with a message instead of panicking a
//! worker thread mid-sweep.

use crate::json::Json;
use acic_cache::CacheGeometry;
use acic_core::AcicConfig;
use acic_sim::{IcacheOrg, SimConfig};
use acic_workloads::{AppProfile, WorkloadSpec};

/// One point of the design space: a labelled simulator configuration.
#[derive(Clone, Debug)]
pub struct DseConfig {
    /// Display label (stable across runs; used in reports and
    /// provenance).
    pub label: String,
    /// The full simulator configuration (schedule is overwritten per
    /// rung by the scheduler).
    pub cfg: SimConfig,
    /// Protected configs are never pruned — the baseline every
    /// objective is reported against must survive to the last rung.
    pub protected: bool,
}

/// A declared design space: configurations × workload specs.
#[derive(Clone, Debug)]
pub struct DseSpace {
    /// Space name (report provenance).
    pub name: String,
    /// Workload specs every configuration is evaluated on.
    pub specs: Vec<WorkloadSpec>,
    /// The configurations to explore.
    pub configs: Vec<DseConfig>,
}

impl DseSpace {
    /// Total cell count (configs × specs) at one rung.
    pub fn cells(&self) -> usize {
        self.configs.len() * self.specs.len()
    }

    /// Indices of protected configurations.
    pub fn protected(&self) -> Vec<bool> {
        self.configs.iter().map(|c| c.protected).collect()
    }
}

/// Builds a validated ACIC configuration from axis values, defaulting
/// every unlisted knob to Table I.
///
/// # Errors
///
/// Returns a message naming the offending axis value instead of
/// panicking (space files are user input).
pub fn acic_point(
    sets: usize,
    ways: usize,
    cshr_entries: usize,
    history_bits: u32,
    filter_entries: usize,
    hrt_entries: usize,
) -> Result<AcicConfig, String> {
    if !sets.is_power_of_two() {
        return Err(format!("sets must be a power of two, got {sets}"));
    }
    if ways == 0 {
        return Err("ways must be positive".into());
    }
    if !(1..=16).contains(&history_bits) {
        return Err(format!(
            "history_bits must be in 1..=16, got {history_bits}"
        ));
    }
    if !hrt_entries.is_power_of_two() {
        return Err(format!(
            "hrt_entries must be a power of two, got {hrt_entries}"
        ));
    }
    let base = AcicConfig::default();
    if cshr_entries == 0 || !cshr_entries.is_multiple_of(base.cshr_sets) {
        return Err(format!(
            "cshr_entries must divide into {} sets, got {cshr_entries}",
            base.cshr_sets
        ));
    }
    let cfg = AcicConfig {
        icache: CacheGeometry::from_sets_ways(sets, ways),
        filter_entries,
        hrt_entries,
        history_bits,
        cshr_entries,
        ..base
    };
    cfg.validate();
    Ok(cfg)
}

fn acic_label(cfg: &AcicConfig) -> String {
    format!(
        "acic-s{}w{}-c{}-h{}-f{}-t{}",
        cfg.icache.sets(),
        cfg.icache.ways(),
        cfg.cshr_entries,
        cfg.history_bits,
        cfg.filter_entries,
        cfg.hrt_entries
    )
}

fn org_config(base: &SimConfig, org: IcacheOrg) -> SimConfig {
    base.with_org(org)
}

/// The axes an `acic` org expands over (cross product).
#[derive(Clone, Debug)]
pub struct AcicAxes {
    /// i-cache set counts.
    pub sets: Vec<usize>,
    /// i-cache associativities.
    pub ways: Vec<usize>,
    /// CSHR entry counts.
    pub cshr_entries: Vec<usize>,
    /// History register widths.
    pub history_bits: Vec<u32>,
    /// i-Filter sizes.
    pub filter_entries: Vec<usize>,
    /// HRT sizes.
    pub hrt_entries: Vec<usize>,
}

impl Default for AcicAxes {
    fn default() -> Self {
        let d = AcicConfig::default();
        AcicAxes {
            sets: vec![d.icache.sets()],
            ways: vec![d.icache.ways()],
            cshr_entries: vec![d.cshr_entries],
            history_bits: vec![d.history_bits],
            filter_entries: vec![d.filter_entries],
            hrt_entries: vec![d.hrt_entries],
        }
    }
}

impl AcicAxes {
    /// Expands the cross product into labelled configurations.
    ///
    /// # Errors
    ///
    /// Returns the first axis-validation failure.
    pub fn expand(&self, base: &SimConfig) -> Result<Vec<DseConfig>, String> {
        let mut out = Vec::new();
        for &sets in &self.sets {
            for &ways in &self.ways {
                for &cshr in &self.cshr_entries {
                    for &hist in &self.history_bits {
                        for &filt in &self.filter_entries {
                            for &hrt in &self.hrt_entries {
                                let acic = acic_point(sets, ways, cshr, hist, filt, hrt)?;
                                out.push(DseConfig {
                                    label: acic_label(&acic),
                                    cfg: org_config(base, IcacheOrg::Acic(acic)),
                                    protected: false,
                                });
                            }
                        }
                    }
                }
            }
        }
        Ok(out)
    }
}

/// Resolves an application name to its profile, tolerating `_` for
/// `-` (space files are hand-written).
pub fn app_by_name(name: &str) -> Result<AppProfile, String> {
    AppProfile::by_name(name)
        .or_else(|| AppProfile::by_name(&name.replace('_', "-")))
        .ok_or_else(|| format!("unknown application '{name}'"))
}

fn usize_axis(doc: &Json, key: &str, default: Vec<usize>) -> Result<Vec<usize>, String> {
    match doc.get(key) {
        None => Ok(default),
        Some(Json::Arr(items)) => items
            .iter()
            .map(|v| {
                v.num()
                    .filter(|n| n.fract() == 0.0 && *n >= 0.0)
                    .map(|n| n as usize)
                    .ok_or_else(|| format!("axis '{key}' holds a non-integer"))
            })
            .collect(),
        Some(_) => Err(format!("axis '{key}' must be an array of integers")),
    }
}

/// Parses a space file (see the module docs for the format).
///
/// # Errors
///
/// Returns a message naming the malformed field.
pub fn parse_space(text: &str) -> Result<DseSpace, String> {
    let doc = Json::parse(text)?;
    let name = doc
        .get("name")
        .and_then(Json::str_val)
        .unwrap_or("unnamed")
        .to_string();
    let apps = match doc.get("apps") {
        Some(Json::Arr(items)) => items
            .iter()
            .map(|v| {
                v.str_val()
                    .ok_or_else(|| "apps must be strings".to_string())
                    .and_then(app_by_name)
            })
            .collect::<Result<Vec<_>, _>>()?,
        _ => return Err("space file needs an 'apps' array".into()),
    };
    if apps.is_empty() {
        return Err("space file lists no apps".into());
    }
    let orgs: Vec<String> = match doc.get("orgs") {
        None => vec!["lru".into(), "acic".into()],
        Some(Json::Arr(items)) => items
            .iter()
            .map(|v| {
                v.str_val()
                    .map(str::to_string)
                    .ok_or_else(|| "orgs must be strings".to_string())
            })
            .collect::<Result<Vec<_>, _>>()?,
        Some(_) => return Err("'orgs' must be an array of strings".into()),
    };
    let defaults = AcicAxes::default();
    let axes = AcicAxes {
        sets: usize_axis(&doc, "sets", defaults.sets)?,
        ways: usize_axis(&doc, "ways", defaults.ways)?,
        cshr_entries: usize_axis(&doc, "cshr_entries", defaults.cshr_entries)?,
        history_bits: usize_axis(&doc, "history_bits", vec![4])?
            .into_iter()
            .map(|b| b as u32)
            .collect(),
        filter_entries: usize_axis(&doc, "filter_entries", defaults.filter_entries)?,
        hrt_entries: usize_axis(&doc, "hrt_entries", defaults.hrt_entries)?,
    };
    let base = SimConfig::default();
    let mut configs = Vec::new();
    for org in &orgs {
        match org.as_str() {
            "lru" => configs.push(DseConfig {
                label: "lru".into(),
                cfg: org_config(&base, IcacheOrg::Lru),
                protected: true,
            }),
            "srrip" => configs.push(DseConfig {
                label: "srrip".into(),
                cfg: org_config(&base, IcacheOrg::Srrip),
                protected: false,
            }),
            "acic" => configs.extend(axes.expand(&base)?),
            other => return Err(format!("unknown org '{other}' (use lru, srrip, acic)")),
        }
    }
    if configs.is_empty() {
        return Err("space expands to zero configurations".into());
    }
    Ok(DseSpace {
        name,
        specs: WorkloadSpec::singles(&apps),
        configs,
    })
}

/// The CI smoke space: one app, four configurations — small enough
/// for `--dse --smoke` to finish in seconds, rich enough to exercise
/// protection, pruning, and the ladder.
pub fn smoke_space() -> DseSpace {
    let base = SimConfig::default();
    let acic = acic_point(64, 8, 256, 4, 16, 1024).expect("valid point");
    let tiny = acic_point(16, 4, 64, 2, 8, 512).expect("valid point");
    DseSpace {
        name: "smoke".into(),
        specs: WorkloadSpec::singles(&[AppProfile::sibench()]),
        configs: vec![
            DseConfig {
                label: "lru".into(),
                cfg: base.clone(),
                protected: true,
            },
            DseConfig {
                label: "srrip".into(),
                cfg: org_config(&base, IcacheOrg::Srrip),
                protected: false,
            },
            DseConfig {
                label: acic_label(&acic),
                cfg: org_config(&base, IcacheOrg::Acic(acic)),
                protected: false,
            },
            DseConfig {
                label: acic_label(&tiny),
                cfg: org_config(&base, IcacheOrg::Acic(tiny)),
                protected: false,
            },
        ],
    }
}

/// The pinned space `tests/dse.rs` sweeps exhaustively at full
/// detail: six configurations spanning LRU, SRRIP, and four ACIC
/// points (the paper's geometry, a capacity-starved one, and two
/// predictor ablations) over two applications — 12 cells, small
/// enough to brute-force, diverse enough that the true Pareto
/// frontier is non-trivial.
pub fn pinned_space() -> DseSpace {
    let base = SimConfig::default();
    let mut configs = vec![
        DseConfig {
            label: "lru".into(),
            cfg: base.clone(),
            protected: true,
        },
        DseConfig {
            label: "srrip".into(),
            cfg: org_config(&base, IcacheOrg::Srrip),
            protected: false,
        },
    ];
    for (sets, ways, cshr, hist, filt, hrt) in [
        (64, 8, 256, 4, 16, 1024), // Table I geometry
        (16, 4, 64, 2, 8, 512),    // capacity-starved
        (64, 8, 256, 2, 16, 1024), // short histories
        (64, 8, 64, 4, 16, 512),   // small CSHR + HRT
    ] {
        let acic = acic_point(sets, ways, cshr, hist, filt, hrt).expect("valid point");
        configs.push(DseConfig {
            label: acic_label(&acic),
            cfg: org_config(&base, IcacheOrg::Acic(acic)),
            protected: false,
        });
    }
    DseSpace {
        name: "pinned".into(),
        specs: WorkloadSpec::singles(&[AppProfile::sibench(), AppProfile::x264()]),
        configs,
    }
}

/// The cache-geometry sweep behind the committed baseline numbers:
/// LRU + SRRIP + a 288-point ACIC cross product over three
/// applications — 870 cells per rung, the "~1000-cell grid" of the
/// scenario this PR exists to make affordable.
///
/// The workloads are three large-footprint datacenter applications
/// (the paper's target domain), *not* the SPEC subset: a geometry
/// sweep is only prunable on workloads the swept geometries actually
/// move. A tight-loop app like x264 reports the same IPC/MPKI for
/// every configuration, and one indistinguishable coordinate is
/// enough to block strict interval dominance for the whole space —
/// an early version of this space included x264 and pruned nothing.
pub fn geometry_space() -> DseSpace {
    let base = SimConfig::default();
    // Weight the cross product toward the *geometry* axes (sets ×
    // ways span 1KiB..192KiB) and keep the predictor axes narrow:
    // predictor-knob variants at the same geometry behave nearly
    // identically, forming tie cliques that nothing can prune, while
    // capacity differences separate quickly under paired differencing.
    let axes = AcicAxes {
        sets: vec![8, 16, 32, 64, 128, 256],
        ways: vec![2, 4, 8, 12],
        cshr_entries: vec![64, 256],
        history_bits: vec![2, 4, 8],
        filter_entries: vec![16],
        hrt_entries: vec![512, 1024],
    };
    let mut configs = vec![
        DseConfig {
            label: "lru".into(),
            cfg: base.clone(),
            protected: true,
        },
        DseConfig {
            label: "srrip".into(),
            cfg: org_config(&base, IcacheOrg::Srrip),
            protected: false,
        },
    ];
    configs.extend(axes.expand(&base).expect("static axes are valid"));
    DseSpace {
        name: "geometry".into(),
        specs: WorkloadSpec::singles(&[
            AppProfile::web_search(),
            AppProfile::tpc_c(),
            AppProfile::media_streaming(),
        ]),
        configs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn built_in_spaces_have_documented_shapes() {
        let smoke = smoke_space();
        assert_eq!(smoke.cells(), 4);
        assert!(smoke.configs[0].protected, "lru is the protected baseline");

        let pinned = pinned_space();
        assert_eq!(pinned.configs.len(), 6);
        assert_eq!(pinned.cells(), 12);

        let geometry = geometry_space();
        // 6 sets × 4 ways × 2 cshr × 3 history × 1 filter × 2 hrt.
        assert_eq!(geometry.configs.len(), 2 + 6 * 4 * 2 * 3 * 2);
        assert_eq!(geometry.cells(), 290 * 3);
        // Labels are unique — they key report provenance.
        for space in [&smoke, &pinned, &geometry] {
            let mut labels: Vec<&str> = space.configs.iter().map(|c| c.label.as_str()).collect();
            let before = labels.len();
            labels.sort_unstable();
            labels.dedup();
            assert_eq!(labels.len(), before, "{} labels unique", space.name);
        }
    }

    #[test]
    fn space_files_parse_and_cross_axes() {
        let space = parse_space(
            r#"{
  "name": "mini",
  "apps": ["sibench", "x264"],
  "orgs": ["lru", "srrip", "acic"],
  "sets": [16, 64],
  "ways": [4],
  "history_bits": [2, 4]
}"#,
        )
        .expect("parses");
        assert_eq!(space.name, "mini");
        assert_eq!(space.specs.len(), 2);
        // lru + srrip + 2 sets × 1 way × 2 history = 6 configs.
        assert_eq!(space.configs.len(), 6);
        assert!(space.configs[0].protected);
        assert!(space
            .configs
            .iter()
            .any(|c| c.label == "acic-s64w4-c256-h2-f16-t1024"));
    }

    #[test]
    fn bad_space_files_fail_with_messages() {
        assert!(parse_space("{}").unwrap_err().contains("apps"));
        assert!(parse_space(r#"{"apps": ["nosuch"]}"#)
            .unwrap_err()
            .contains("unknown application"));
        assert!(parse_space(r#"{"apps": ["sibench"], "orgs": ["opt"]}"#)
            .unwrap_err()
            .contains("unknown org"));
        assert!(parse_space(r#"{"apps": ["sibench"], "sets": [15]}"#)
            .unwrap_err()
            .contains("power of two"));
        assert!(
            parse_space(r#"{"apps": ["sibench"], "cshr_entries": [60]}"#)
                .unwrap_err()
                .contains("divide")
        );
    }

    #[test]
    fn app_names_tolerate_underscores() {
        assert_eq!(app_by_name("tpc_c").unwrap().name, "tpc-c");
        assert_eq!(
            app_by_name("media_streaming").unwrap().name,
            "media-streaming"
        );
        assert!(app_by_name("sibench").is_ok());
        assert!(app_by_name("missing").is_err());
    }
}
