//! One unit of work: a [`Cell`], and the one canonical encoding of
//! everything the harness hands between processes or to disk.
//!
//! A cell is everything that decides a report: the workload spec, the
//! simulator configuration, the budget its spec freezes at, and how
//! it runs ([`Exec`]). Figure grids and the DSE ladder hand cells to
//! the one executor (`runner::execute`), which runs each through
//! [`Cell::run`], in process or in a supervised child.
//!
//! **Encoding.** One codec, the crate-private `Canon` trait, writes
//! cells, the [`SimReport`]s the result journal stores
//! (`crate::result_store`) and the message a supervised parent sends
//! its child (`crate::supervise`). It writes compact JSON: integers
//! as decimal strings (the workspace JSON reader models numbers as
//! `f64`, which is lossy above 2^53), `f64`s in their shortest
//! round-trip form (non-finite values as the strings
//! `"NaN"`/`"inf"`/`"-inf"`), absent optional blocks as `null`, and
//! structs as objects with one member per field in declaration order.
//! Decoding is bit-exact, and decode then encode reproduces the bytes.
//! Structs are written by destructuring without `..` and read by
//! struct literals, and enum tags by exhaustive matches, so a new field
//! or variant does not compile until it is encoded. No other module
//! knows these conventions: the journal and the supervisor call only
//! `enc`/`dec`.
//!
//! **Keys.** A cell's journal key ([`cell_key`], [`windowed_cell_key`],
//! [`dse_cell_key`]) is the spec's readable `store_key` prefix, then
//! `-c` and the FNV-1a 64 hash of [`MODEL_VERSION`] and the encoding
//! of the cell's identity (spec, config, budget), then the mode's
//! suffix: none when serial, `-w` when windowed, `-r<rung>` on the
//! DSE ladder. Two specs that share a name but not their parameters
//! get different keys, and bumping [`MODEL_VERSION`] retires every
//! journaled cell at once.

use crate::json::Json;
use acic_cache::{CacheGeometry, CacheStats};
use acic_core::{AcicConfig, AcicStats, CshrStats, PredictorKind, UpdateMode};
use acic_sim::branch::btb::BtbStats;
use acic_sim::branch::tage::TageStats;
use acic_sim::{
    BranchStats, BranchSwitchMode, Engine, IcacheOrg, PrefetchStats, PrefetcherKind,
    SampleSchedule, SampledStats, SimConfig, SimReport,
};
use acic_trace::{PackedTrace, Truncated};
use acic_types::hash::{fnv1a, FNV_OFFSET};
use acic_types::stats::Ratio;
use acic_workloads::{AppProfile, WorkloadSpec};
use std::path::PathBuf;

/// Stamped into every cell key. Bump it when a model change moves
/// reports without changing any encoded field, so journals written
/// before the change stop replaying.
pub const MODEL_VERSION: &str = "acic-model/1";

/// How a cell runs over its spec's frozen trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Exec {
    /// The serial engine over the whole trace ([`Engine::run`]).
    Serial,
    /// The window-parallel engine with this many workers
    /// ([`Engine::run_windowed`]); reports do not depend on the count.
    Windowed {
        /// Window workers.
        threads: usize,
    },
    /// DSE rung `rung`: the serial engine over the first `prefix`
    /// instructions of the full-budget trace.
    Rung {
        /// Rung index on the ladder.
        rung: u32,
        /// Prefix length simulated.
        prefix: u64,
    },
}

/// One unit of work: what runs, under which configuration, over which
/// frozen budget, and how.
#[derive(Clone, Debug, PartialEq)]
pub struct Cell {
    /// The workload.
    pub spec: WorkloadSpec,
    /// The simulator configuration.
    pub config: SimConfig,
    /// The instruction budget the spec freezes at (a DSE rung's full
    /// budget, not its prefix).
    pub budget: u64,
    /// How the cell runs.
    pub exec: Exec,
}

impl Cell {
    /// Simulates the cell over `trace`, its spec frozen at its budget.
    pub fn run(&self, trace: &PackedTrace) -> SimReport {
        match self.exec {
            Exec::Serial => Engine::run(&self.config, trace),
            Exec::Windowed { threads } => Engine::run_windowed(&self.config, trace, threads),
            Exec::Rung { prefix, .. } => Engine::run(&self.config, &Truncated::new(trace, prefix)),
        }
    }

    /// The journal key (module docs).
    pub fn key(&self) -> String {
        let (spec, budget, cfg) = (&self.spec, self.budget, &self.config);
        match self.exec {
            Exec::Serial => cell_key(spec, budget, cfg),
            Exec::Windowed { .. } => windowed_cell_key(spec, budget, cfg),
            Exec::Rung { rung, .. } => dse_cell_key(spec, budget, cfg, rung),
        }
    }

    /// The DSE rung the cell journals under; `None` off the ladder.
    pub fn rung(&self) -> Option<u32> {
        match self.exec {
            Exec::Rung { rung, .. } => Some(rung),
            _ => None,
        }
    }

    /// The canonical encoding (module docs).
    pub fn encode(&self) -> String {
        self.enc()
    }

    /// Decodes [`Cell::encode`]'s output.
    ///
    /// # Errors
    ///
    /// Names the first missing, ill-typed or out-of-range field.
    pub fn decode(doc: &Json) -> Result<Cell, String> {
        Cell::dec(Some(doc), "cell")
    }
}

/// The journal key of one serial cell: `store_key`, then `-c` and the
/// identity hash (module docs).
pub fn cell_key(spec: &WorkloadSpec, instructions: u64, cfg: &SimConfig) -> String {
    versioned_key(MODEL_VERSION, spec, instructions, cfg)
}

fn versioned_key(version: &str, spec: &WorkloadSpec, budget: u64, cfg: &SimConfig) -> String {
    let identity = Cell {
        spec: spec.clone(),
        config: cfg.clone(),
        budget,
        exec: Exec::Serial,
    };
    let h = fnv1a(fnv1a(FNV_OFFSET, version.as_bytes()), &[0]);
    let h = fnv1a(h, identity.encode().as_bytes());
    format!("{}-c{h:016x}", spec.store_key(budget))
}

/// [`cell_key`] for cells simulated through the window-parallel
/// engine (`Engine::run_windowed`): the serial key plus a `-w` mode
/// suffix, because windowed execution runs a *different* sampling
/// structure (independent mirror-replayed windows) than the serial
/// adaptive engine, so the two modes must never share a journal
/// entry.
///
/// The worker count is deliberately **not** part of the key: the
/// windowed report is bit-identical for every worker count (pinned by
/// `tests/window_parallel.rs`), so a journal written with four
/// workers per cell replays correctly with two.
pub fn windowed_cell_key(spec: &WorkloadSpec, instructions: u64, cfg: &SimConfig) -> String {
    format!("{}-w", cell_key(spec, instructions, cfg))
}

/// [`cell_key`] for one rung of the DSE fidelity ladder: the serial
/// key at the **full** per-cell budget plus an `-r<rung>` suffix.
///
/// The full budget (not the rung's truncated budget) is deliberate:
/// a rung simulates a *prefix view* of the one frozen full-budget
/// trace (`acic_trace::Truncated`), which for multi-tenant specs is
/// **not** the same stream a fresh generation at the smaller budget
/// would produce (`split_budget` depends on the total). Keying rungs
/// by `cell_key(spec, rung_budget, cfg)` would let a ladder cell
/// masquerade as — or replay — a genuine small-budget freeze; the
/// rung suffix on the full-budget key makes the fidelity explicit
/// and collision-free across rungs, the serial grid, and the `-w`
/// windowed mode.
pub fn dse_cell_key(
    spec: &WorkloadSpec,
    full_instructions: u64,
    cfg: &SimConfig,
    rung: u32,
) -> String {
    format!("{}-r{rung}", cell_key(spec, full_instructions, cfg))
}

/// A value with one canonical JSON encoding (module docs); `what`
/// names the field in decode errors.
pub(crate) trait Canon: Sized {
    fn enc(&self) -> String;
    fn dec(j: Option<&Json>, what: &str) -> Result<Self, String>;
}

/// `s` as a JSON string literal.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn s_str(j: Option<&Json>, what: &str) -> Result<String, String> {
    j.and_then(Json::str_val)
        .map(String::from)
        .ok_or_else(|| format!("{what}: expected string"))
}

/// Integers, as decimal strings.
macro_rules! canon_int {
    ($($t:ty),*) => {$(
        impl Canon for $t {
            fn enc(&self) -> String {
                format!("\"{self}\"")
            }
            fn dec(j: Option<&Json>, what: &str) -> Result<Self, String> {
                let v: u64 = j
                    .and_then(Json::str_val)
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| format!("{what}: expected u64 string"))?;
                <$t>::try_from(v).map_err(|_| format!("{what}: out of range"))
            }
        }
    )*};
}

canon_int!(u64, usize, u32);

/// Shortest round-trip form; non-finite values as strings.
impl Canon for f64 {
    fn enc(&self) -> String {
        if self.is_nan() {
            "\"NaN\"".into()
        } else if *self == f64::INFINITY {
            "\"inf\"".into()
        } else if *self == f64::NEG_INFINITY {
            "\"-inf\"".into()
        } else {
            format!("{self:?}")
        }
    }
    fn dec(j: Option<&Json>, what: &str) -> Result<Self, String> {
        match j {
            Some(Json::Num(n)) => Ok(*n),
            Some(Json::Str(s)) => match s.as_str() {
                "NaN" => Ok(f64::NAN),
                "inf" => Ok(f64::INFINITY),
                "-inf" => Ok(f64::NEG_INFINITY),
                _ => Err(format!("{what}: bad f64 string {s:?}")),
            },
            _ => Err(format!("{what}: expected f64")),
        }
    }
}

impl Canon for bool {
    fn enc(&self) -> String {
        self.to_string()
    }
    fn dec(j: Option<&Json>, what: &str) -> Result<Self, String> {
        match j {
            Some(Json::Bool(b)) => Ok(*b),
            _ => Err(format!("{what}: expected bool")),
        }
    }
}

impl Canon for String {
    fn enc(&self) -> String {
        esc(self)
    }
    fn dec(j: Option<&Json>, what: &str) -> Result<Self, String> {
        s_str(j, what)
    }
}

/// Paths, as strings (non-UTF-8 names lossily).
impl Canon for PathBuf {
    fn enc(&self) -> String {
        esc(&self.to_string_lossy())
    }
    fn dec(j: Option<&Json>, what: &str) -> Result<Self, String> {
        s_str(j, what).map(PathBuf::from)
    }
}

/// `null` when absent; the member itself must be present.
impl<T: Canon> Canon for Option<T> {
    fn enc(&self) -> String {
        self.as_ref().map_or_else(|| "null".into(), Canon::enc)
    }
    fn dec(j: Option<&Json>, what: &str) -> Result<Self, String> {
        match j {
            None => Err(format!("missing {what}")),
            Some(Json::Null) => Ok(None),
            j => T::dec(j, what).map(Some),
        }
    }
}

fn enc_items<T: Canon>(items: &[T]) -> String {
    let items: Vec<String> = items.iter().map(Canon::enc).collect();
    format!("[{}]", items.join(","))
}

impl<T: Canon> Canon for Vec<T> {
    fn enc(&self) -> String {
        enc_items(self)
    }
    fn dec(j: Option<&Json>, what: &str) -> Result<Self, String> {
        match j {
            Some(Json::Arr(items)) => items.iter().map(|i| T::dec(Some(i), what)).collect(),
            _ => Err(format!("{what}: expected array")),
        }
    }
}

/// Arrays, as JSON arrays of exactly `N` items.
impl<T: Canon, const N: usize> Canon for [T; N] {
    fn enc(&self) -> String {
        enc_items(self)
    }
    fn dec(j: Option<&Json>, what: &str) -> Result<Self, String> {
        Vec::<T>::dec(j, what)?
            .try_into()
            .map_err(|v: Vec<T>| format!("{what}: expected {N} items, got {}", v.len()))
    }
}

impl<T: Canon> Canon for (T, T) {
    fn enc(&self) -> String {
        format!("[{},{}]", self.0.enc(), self.1.enc())
    }
    fn dec(j: Option<&Json>, what: &str) -> Result<Self, String> {
        let [a, b] = <[T; 2]>::dec(j, what)?;
        Ok((a, b))
    }
}

/// `[numerator, denominator]`.
impl Canon for Ratio {
    fn enc(&self) -> String {
        [self.numerator(), self.denominator()].enc()
    }
    fn dec(j: Option<&Json>, what: &str) -> Result<Self, String> {
        let [num, den] = <[u64; 2]>::dec(j, what)?;
        Ok(Ratio::from_parts(num, den))
    }
}

/// Structs, as objects with one member per field in declaration order.
macro_rules! canon_struct {
    ($t:ident { $($f:ident),* $(,)? }) => {
        impl $crate::cell::Canon for $t {
            fn enc(&self) -> String {
                let $t { $($f),* } = self;
                let members = [$(format!(
                    "\"{}\":{}",
                    stringify!($f),
                    $crate::cell::Canon::enc($f)
                )),*];
                format!("{{{}}}", members.join(","))
            }
            fn dec(j: Option<&$crate::json::Json>, what: &str) -> Result<Self, String> {
                let j = j.ok_or_else(|| format!("missing {what}"))?;
                Ok($t { $($f: $crate::cell::Canon::dec(j.get(stringify!($f)), stringify!($f))?),* })
            }
        }
    };
}

pub(crate) use canon_struct;

canon_struct!(Cell {
    spec,
    config,
    budget,
    exec
});

canon_struct!(AppProfile {
    name,
    seed,
    hot_fns,
    warm_fns,
    cold_fns,
    hot_segments,
    warm_segments,
    cold_segments,
    segment_instrs,
    fanout,
    request_types,
    type_skew,
    warm_skew,
    hot_call_prob,
    cold_visit_prob,
    loop_fn_prob,
    loop_taken_prob,
    branch_noise,
    load_frac,
    store_frac,
    long_alu_frac,
    heap_blocks,
    heap_skew,
});

canon_struct!(SimConfig {
    fetch_width,
    ftq_entries,
    decode_queue_entries,
    decode_width,
    rob_entries,
    retire_width,
    redirect_penalty,
    btb_miss_penalty,
    l1i_hit_latency,
    l1d_hit_latency,
    l2_latency,
    l3_latency,
    dram_latency,
    dram_gap,
    l1i_mshrs,
    l1d_mshrs,
    prefetch_width,
    prefetcher,
    branch_switch,
    icache_org,
    warmup_fraction,
    attach_oracle,
    unbounded_cshr,
    schedule,
});

canon_struct!(AcicConfig {
    icache,
    filter_entries,
    hrt_entries,
    history_bits,
    pt_counter_bits,
    pt_queue_slots,
    cshr_entries,
    cshr_sets,
    cshr_tag_bits,
    predictor,
    update_mode,
});

canon_struct!(SimReport {
    app,
    org,
    total_instructions,
    total_cycles,
    measured_instructions,
    measured_cycles,
    l1i,
    l1d,
    l2,
    l3,
    dram_accesses,
    branch,
    prefetch,
    context_switches,
    acic,
    cshr,
    cshr_lifetimes,
    sampled,
    window_ipc,
    window_mpki,
});

canon_struct!(CacheStats {
    demand_accesses,
    demand_misses,
    prefetch_accesses,
    prefetch_misses,
    demand_fills,
    prefetch_fills,
    evictions,
    bypasses,
    flushed_lines,
});

canon_struct!(BranchStats {
    mispredicts,
    tage,
    btb
});

canon_struct!(TageStats {
    predictions,
    mispredictions
});

canon_struct!(BtbStats {
    lookups,
    misses,
    wrong_target
});

canon_struct!(PrefetchStats { issued, filtered });

canon_struct!(AcicStats {
    decisions,
    admitted,
    bypassed,
    free_admissions,
    accuracy,
    oracle_admits,
    insert_delta,
});

canon_struct!(CshrStats {
    inserted,
    victim_first,
    contender_first,
    evicted_unresolved,
});

canon_struct!(SampledStats {
    windows,
    detailed_instructions,
    warmup_instructions,
    fastforward_instructions,
    ipc_mean,
    ipc_ci95,
    mpki_mean,
    mpki_ci95,
    est_total_cycles,
    est_total_misses,
});

/// Fieldless enums, as string tags.
macro_rules! canon_tags {
    ($t:ident { $($v:ident => $tag:literal),* $(,)? }) => {
        impl Canon for $t {
            fn enc(&self) -> String {
                esc(match self { $($t::$v => $tag),* })
            }
            fn dec(j: Option<&Json>, what: &str) -> Result<Self, String> {
                match s_str(j, what)?.as_str() {
                    $($tag => Ok($t::$v),)*
                    other => Err(format!("{what}: unknown {other:?}")),
                }
            }
        }
    };
}

canon_tags!(PrefetcherKind {
    None => "none",
    Fdp => "fdp",
    Entangling => "entangling",
});

canon_tags!(BranchSwitchMode {
    Flush => "flush",
    Tag => "tag",
});

canon_tags!(UpdateMode {
    Instant => "instant",
    Pipelined => "pipelined",
});

/// An enum with one data-carrying variant: the tag `single` names
/// wraps its data as `{"single": data}`; every other variant is the
/// string tag its `tag` gives, read back by search over `units`.
fn dec_tagged<T: Clone>(
    j: Option<&Json>,
    what: &str,
    single: &str,
    data: impl FnOnce(Option<&Json>) -> Result<T, String>,
    units: &[T],
    tag: impl Fn(&T) -> &'static str,
) -> Result<T, String> {
    if let Some(inner @ Json::Obj(_)) = j {
        return data(inner.get(single));
    }
    let s = s_str(j, what)?;
    units
        .iter()
        .find(|u| tag(u) == s)
        .cloned()
        .ok_or_else(|| format!("{what}: unknown {s:?}"))
}

/// Every data-free organization; ACIC carries its configuration.
const UNIT_ORGS: [IcacheOrg; 15] = [
    IcacheOrg::Lru,
    IcacheOrg::LruFlush,
    IcacheOrg::Srrip,
    IcacheOrg::Ship,
    IcacheOrg::Harmony,
    IcacheOrg::Ghrp,
    IcacheOrg::Dsb,
    IcacheOrg::Obm,
    IcacheOrg::Vvc,
    IcacheOrg::Vc3k,
    IcacheOrg::Larger36k,
    IcacheOrg::Opt,
    IcacheOrg::OptBypass,
    IcacheOrg::IFilterAlways,
    IcacheOrg::AccessCount,
];

/// Organizations are tagged by their unique legend label.
impl Canon for IcacheOrg {
    fn enc(&self) -> String {
        match self {
            IcacheOrg::Acic(cfg) => format!("{{\"acic\":{}}}", cfg.enc()),
            org => esc(org.label()),
        }
    }
    fn dec(j: Option<&Json>, what: &str) -> Result<Self, String> {
        let acic = |c: Option<&Json>| AcicConfig::dec(c, "acic").map(IcacheOrg::Acic);
        dec_tagged(j, what, "acic", acic, &UNIT_ORGS, IcacheOrg::label)
    }
}

const UNIT_PREDICTORS: [PredictorKind; 5] = [
    PredictorKind::TwoLevel,
    PredictorKind::GlobalHistory,
    PredictorKind::Bimodal,
    PredictorKind::AlwaysAdmit,
    PredictorKind::NeverAdmit,
];

fn predictor_tag(p: &PredictorKind) -> &'static str {
    match p {
        PredictorKind::TwoLevel => "two_level",
        PredictorKind::GlobalHistory => "global_history",
        PredictorKind::Bimodal => "bimodal",
        PredictorKind::Random { .. } => "random",
        PredictorKind::AlwaysAdmit => "always_admit",
        PredictorKind::NeverAdmit => "never_admit",
    }
}

impl Canon for PredictorKind {
    fn enc(&self) -> String {
        match self {
            PredictorKind::Random { seed, num, denom } => {
                format!("{{\"random\":{}}}", vec![*seed, *num, *denom].enc())
            }
            p => esc(predictor_tag(p)),
        }
    }
    fn dec(j: Option<&Json>, what: &str) -> Result<Self, String> {
        let random = |r: Option<&Json>| match Vec::<u64>::dec(r, "random")?.as_slice() {
            &[seed, num, denom] => Ok(PredictorKind::Random { seed, num, denom }),
            _ => Err("random: expected [seed, num, denom]".to_string()),
        };
        dec_tagged(j, what, "random", random, &UNIT_PREDICTORS, predictor_tag)
    }
}

impl Canon for SampleSchedule {
    fn enc(&self) -> String {
        match self {
            SampleSchedule::Full => esc("full"),
            SampleSchedule::Periodic {
                period,
                warmup_len,
                detailed_len,
            } => format!(
                "{{\"periodic\":{}}}",
                vec![*period, *warmup_len, *detailed_len].enc()
            ),
        }
    }
    fn dec(j: Option<&Json>, what: &str) -> Result<Self, String> {
        let periodic = |p: Option<&Json>| match Vec::<u64>::dec(p, "periodic")?.as_slice() {
            &[period, warmup_len, detailed_len] => Ok(SampleSchedule::Periodic {
                period,
                warmup_len,
                detailed_len,
            }),
            _ => Err("periodic: expected [period, warmup, detailed]".to_string()),
        };
        dec_tagged(
            j,
            what,
            "periodic",
            periodic,
            &[SampleSchedule::Full],
            |_| "full",
        )
    }
}

/// `[sets, ways]`.
impl Canon for CacheGeometry {
    fn enc(&self) -> String {
        (self.sets(), self.ways()).enc()
    }
    fn dec(j: Option<&Json>, what: &str) -> Result<Self, String> {
        match <(usize, usize)>::dec(j, what)? {
            (sets, ways) if sets.is_power_of_two() && ways > 0 => {
                Ok(CacheGeometry::from_sets_ways(sets, ways))
            }
            (sets, ways) => Err(format!("{what}: invalid geometry {sets} x {ways}")),
        }
    }
}

/// `{"single":profile}` or `{"tenants":[profile…],"quantum":q}`.
impl Canon for WorkloadSpec {
    fn enc(&self) -> String {
        match self {
            WorkloadSpec::Single(p) => format!("{{\"single\":{}}}", p.enc()),
            WorkloadSpec::MultiTenant { profiles, quantum } => format!(
                "{{\"tenants\":{},\"quantum\":{}}}",
                profiles.enc(),
                quantum.enc()
            ),
        }
    }
    fn dec(j: Option<&Json>, what: &str) -> Result<Self, String> {
        let j = j.ok_or_else(|| format!("missing {what}"))?;
        match j.get("single") {
            Some(p) => Ok(WorkloadSpec::Single(AppProfile::dec(Some(p), "single")?)),
            None => Ok(WorkloadSpec::MultiTenant {
                profiles: Vec::dec(j.get("tenants"), "tenants")?,
                quantum: u64::dec(j.get("quantum"), "quantum")?,
            }),
        }
    }
}

/// `"serial"`, `{"windowed":n}` or `{"rung":r,"prefix":p}`.
impl Canon for Exec {
    fn enc(&self) -> String {
        match self {
            Exec::Serial => esc("serial"),
            Exec::Windowed { threads } => format!("{{\"windowed\":{}}}", threads.enc()),
            Exec::Rung { rung, prefix } => {
                format!("{{\"rung\":{},\"prefix\":{}}}", rung.enc(), prefix.enc())
            }
        }
    }
    fn dec(j: Option<&Json>, what: &str) -> Result<Self, String> {
        match j {
            Some(Json::Str(s)) if s == "serial" => Ok(Exec::Serial),
            Some(e) if e.get("windowed").is_some() => Ok(Exec::Windowed {
                threads: usize::dec(e.get("windowed"), "windowed")?,
            }),
            Some(e) if e.get("rung").is_some() => Ok(Exec::Rung {
                rung: u32::dec(e.get("rung"), "rung")?,
                prefix: u64::dec(e.get("prefix"), "prefix")?,
            }),
            _ => Err(format!("{what}: expected \"serial\", windowed or rung")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(cell: &Cell) {
        let text = cell.encode();
        let back = Cell::decode(&Json::parse(&text).expect("valid JSON")).expect("decodes");
        assert_eq!(&back, cell, "decode inverts encode");
        assert_eq!(
            back.encode(),
            text,
            "encode -> decode -> encode is the identity"
        );
    }

    fn cell(spec: WorkloadSpec, config: SimConfig, exec: Exec) -> Cell {
        Cell {
            spec,
            config,
            budget: 1_000_000,
            exec,
        }
    }

    fn web_search() -> WorkloadSpec {
        WorkloadSpec::Single(AppProfile::web_search())
    }

    #[test]
    fn every_org_predictor_update_mode_and_schedule_round_trips() {
        const PREFETCHERS: [PrefetcherKind; 3] = [
            PrefetcherKind::None,
            PrefetcherKind::Fdp,
            PrefetcherKind::Entangling,
        ];
        const BRANCH_SWITCHES: [BranchSwitchMode; 2] =
            [BranchSwitchMode::Flush, BranchSwitchMode::Tag];
        const UPDATE_MODES: [UpdateMode; 2] = [UpdateMode::Instant, UpdateMode::Pipelined];
        let acic = AcicConfig::default();
        let mut orgs: Vec<IcacheOrg> = UNIT_ORGS.to_vec();
        for predictor in UNIT_PREDICTORS.into_iter().chain([PredictorKind::Random {
            seed: u64::MAX,
            num: 3,
            denom: 5,
        }]) {
            for update_mode in UPDATE_MODES {
                orgs.push(IcacheOrg::Acic(AcicConfig {
                    predictor,
                    update_mode,
                    ..acic
                }));
            }
        }
        orgs.push(IcacheOrg::Acic(AcicConfig {
            icache: CacheGeometry::l1i_36k(),
            filter_entries: 0,
            ..acic
        }));
        let schedules = [SampleSchedule::Full, SampleSchedule::default_sampled()];
        for org in &orgs {
            for schedule in schedules {
                let config = SimConfig {
                    schedule,
                    ..SimConfig::default().with_org(org.clone())
                };
                round_trip(&cell(web_search(), config, Exec::Serial));
            }
        }
        for prefetcher in PREFETCHERS {
            for branch_switch in BRANCH_SWITCHES {
                let config = SimConfig {
                    prefetcher,
                    branch_switch,
                    warmup_fraction: 0.1 + 0.2,
                    attach_oracle: true,
                    unbounded_cshr: true,
                    ..SimConfig::default()
                };
                round_trip(&cell(web_search(), config, Exec::Serial));
            }
        }
    }

    #[test]
    fn multi_tenant_specs_and_every_exec_mode_round_trip() {
        let spec = WorkloadSpec::MultiTenant {
            profiles: vec![
                AppProfile::web_search(),
                AppProfile::tpc_c(),
                AppProfile::sibench(),
                AppProfile {
                    name: "odd \"name\"\n".into(),
                    type_skew: f64::NAN,
                    heap_skew: -0.0,
                    ..AppProfile::x264()
                },
            ],
            quantum: 25_000,
        };
        for exec in [
            Exec::Serial,
            Exec::Windowed { threads: 4 },
            Exec::Rung {
                rung: 2,
                prefix: 62_500,
            },
        ] {
            let c = cell(spec.clone(), SimConfig::default(), exec);
            let text = c.encode();
            let back = Cell::decode(&Json::parse(&text).unwrap()).unwrap();
            // NaN != NaN, so compare the encodings.
            assert_eq!(back.encode(), text, "{exec:?}");
            assert_eq!(back.exec, exec);
        }
    }

    #[test]
    fn same_name_different_parameters_get_different_keys() {
        let base = AppProfile::web_search();
        let tweaked = AppProfile {
            hot_fns: base.hot_fns + 1,
            ..base.clone()
        };
        let cfg = SimConfig::default();
        let a = cell_key(&WorkloadSpec::Single(base), 1_000, &cfg);
        let b = cell_key(&WorkloadSpec::Single(tweaked), 1_000, &cfg);
        assert_ne!(a, b, "profile parameters are part of the key");
        assert!(a.starts_with("web-search-1000-c") && b.starts_with("web-search-1000-c"));
    }

    #[test]
    fn a_model_version_bump_changes_every_key() {
        let (spec, cfg) = (web_search(), SimConfig::default());
        assert_eq!(
            versioned_key(MODEL_VERSION, &spec, 1_000, &cfg),
            cell_key(&spec, 1_000, &cfg)
        );
        assert_ne!(
            versioned_key("acic-model/0", &spec, 1_000, &cfg),
            cell_key(&spec, 1_000, &cfg)
        );
    }

    #[test]
    fn cell_keys_follow_the_exec_mode() {
        let (spec, cfg) = (web_search(), SimConfig::default());
        let base = cell_key(&spec, 20_000, &cfg);
        let mut c = Cell {
            spec: spec.clone(),
            config: cfg.clone(),
            budget: 20_000,
            exec: Exec::Serial,
        };
        assert_eq!((c.key(), c.rung()), (base.clone(), None));
        c.exec = Exec::Windowed { threads: 3 };
        assert_eq!(c.key(), format!("{base}-w"));
        c.exec = Exec::Rung {
            rung: 1,
            prefix: 1_250,
        };
        assert_eq!((c.key(), c.rung()), (format!("{base}-r1"), Some(1)));
    }

    #[test]
    fn malformed_cells_are_named_errors() {
        let text = cell(web_search(), SimConfig::default(), Exec::Serial).encode();
        for (from, to, what) in [
            ("\"serial\"", "\"sideways\"", "exec"),
            ("\"LRU\"", "\"MRU\"", "icache_org"),
            ("\"fdp\"", "\"psychic\"", "prefetcher"),
            (
                "\"fetch_width\":\"6\"",
                "\"fetch_width\":\"99999999999\"",
                "fetch_width",
            ),
        ] {
            let bad = text.replacen(from, to, 1);
            assert_ne!(bad, text, "fixture must contain {from}");
            let err = Cell::decode(&Json::parse(&bad).unwrap()).unwrap_err();
            assert!(err.contains(what), "{what}: {err}");
        }
    }
}
