//! Resumable on-disk store for finished experiment cells.
//!
//! `experiments --results <dir>` persists every computed
//! [`SimReport`] into a checksummed JSON-lines journal
//! (`results.jsonl`) keyed by [`cell_key`] — the spec's readable
//! store key (which embeds the instruction budget) plus a hash of the
//! cell's canonical encoding and [`crate::cell::MODEL_VERSION`], so
//! every profile parameter and every [`acic_sim::SimConfig`] field is
//! part of the identity ([`crate::cell`]). A repeated or interrupted
//! sweep replays finished cells from disk and simulates only the
//! rest; the DSE driver sits on this store.
//!
//! **Journal format** (`acic-results/v3`). Line 1 is the schema
//! header `{"schema":"acic-results/v3"}`; every further line is one
//! cell: `{"key":K,"rung":G,"crc":C,"report":R}` where `G` is the
//! cell's fidelity rung on the DSE ladder (`null` for plain grid
//! cells, a decimal-string rung index for [`dse_cell_key`] cells) and
//! `C` is the FNV-1a 64 hash (16 hex digits) of `K`, a zero byte, the
//! serialized `G`, a zero byte, and the serialized `R`. v3 changed
//! the keys, not the line: v2 keys hashed the config's `Debug` text
//! and left profile parameters out. Older journals (v1 without the
//! rung field, v2 with the old keys) are rejected by the schema
//! header — loudly, never misread as v3.
//! Reports serialize every `u64` as a decimal *string* (the workspace
//! JSON reader models numbers as `f64`, which is lossy above 2^53)
//! and every `f64` through its shortest round-trip form (non-finite
//! values as the strings `"NaN"`/`"inf"`/`"-inf"`), so decoding is
//! bit-exact — pinned by the round-trip tests below.
//!
//! **Failure model.** The journal is rewritten whole through
//! [`crate::fault::write_atomic`] (sibling tmp + fsync + rename +
//! directory fsync) on every [`ResultStore::put`], so a crash leaves
//! either the previous journal or the new one, never a tear at the
//! final path. Reading drops any line that fails to parse or
//! checksum — loudly, on stderr — and the affected cells simply
//! recompute (deterministically, so resume can lose wall-clock but
//! never correctness). A failed journal write keeps the entry in
//! memory, warns, and self-heals on the next successful put. The
//! fault-injection proptests (`tests/fault_injection.rs`) pin the
//! store invariant: loud failure or bit-identical success, never
//! silent corruption, and a resumed sweep never loses or
//! double-counts a completed cell.
//!
//! **Single writer under `--supervise`.** The shared journal has
//! exactly one writer: the parent. A `--run-cell` child opens no
//! store; it prints its one cell as a journal line on stdout, and the
//! parent checks that line's CRC and key and re-puts the report into
//! the shared journal itself — so concurrent cell completion cannot
//! race the whole-file atomic rewrite, and the journal bytes stay
//! independent of completion order (the `BTreeMap` rewrite sorts by
//! key).

use crate::json::Json;
use acic_cache::CacheStats;
use acic_core::{AcicStats, CshrStats};
use acic_sim::branch::btb::BtbStats;
use acic_sim::branch::tage::TageStats;
use acic_sim::{BranchStats, PrefetchStats, SampledStats, SimReport};
use acic_types::hash::{fnv1a, FNV_OFFSET};
use acic_types::stats::Ratio;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

pub use crate::cell::{cell_key, dse_cell_key, windowed_cell_key};

/// Journal schema tag; bump on any encoding change so an old journal
/// is rejected loudly instead of decoded wrong. v2 added the
/// fidelity-rung field (and folded it into the line CRC); v3 keys
/// cells by the hash of their canonical encoding.
pub const SCHEMA: &str = "acic-results/v3";

const JOURNAL_NAME: &str = "results.jsonl";

/// Why a result store could not be opened. Once open, the store
/// never fails a sweep: read problems degrade to recomputation and
/// write problems degrade to in-memory retention, both with stderr
/// warnings.
#[derive(Debug)]
pub enum ResultStoreError {
    /// Creating the store directory or reading the journal failed.
    Io {
        /// Path involved.
        path: PathBuf,
        /// Underlying filesystem error.
        source: std::io::Error,
    },
    /// The journal's schema header is missing or names a different
    /// version — refusing to guess at an incompatible encoding.
    Schema {
        /// Journal path.
        path: PathBuf,
        /// What the header actually said.
        found: String,
    },
}

impl std::fmt::Display for ResultStoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResultStoreError::Io { path, source } => {
                write!(f, "--results: {}: {source}", path.display())
            }
            ResultStoreError::Schema { path, found } => write!(
                f,
                "--results: {}: journal schema {found:?} is not {SCHEMA:?}; \
                 refusing to reuse an incompatible journal",
                path.display()
            ),
        }
    }
}

impl std::error::Error for ResultStoreError {}

/// One journal entry: the report plus the fidelity rung it was
/// computed at (`None` for plain grid cells).
#[derive(Clone, Debug)]
pub(crate) struct Entry {
    pub(crate) rung: Option<u32>,
    pub(crate) report: SimReport,
}

/// The resumable cell store: an in-memory map mirrored to the
/// on-disk journal on every insert.
#[derive(Debug)]
pub struct ResultStore {
    journal: PathBuf,
    entries: Mutex<BTreeMap<String, Entry>>,
}

impl ResultStore {
    /// Opens (or creates) the store under `dir`, loading every intact
    /// journal entry. Corrupt or torn lines are dropped with a
    /// warning — their cells recompute.
    ///
    /// # Errors
    ///
    /// Fails when the directory cannot be created, the journal cannot
    /// be read (existing but unreadable), or the journal belongs to a
    /// different schema version.
    pub fn open(dir: &Path) -> Result<ResultStore, ResultStoreError> {
        std::fs::create_dir_all(dir).map_err(|source| ResultStoreError::Io {
            path: dir.to_path_buf(),
            source,
        })?;
        let journal = dir.join(JOURNAL_NAME);
        let mut entries = BTreeMap::new();
        if journal.exists() {
            let bytes = crate::fault::read(&journal).map_err(|source| ResultStoreError::Io {
                path: journal.clone(),
                source,
            })?;
            let text = String::from_utf8_lossy(&bytes);
            let mut lines = text.lines().enumerate();
            match lines.next() {
                None => {} // empty journal: treat as fresh
                Some((_, header)) => {
                    let found = Json::parse(header)
                        .ok()
                        .and_then(|h| h.get("schema").and_then(Json::str_val).map(String::from))
                        .unwrap_or_else(|| header.chars().take(64).collect());
                    if found != SCHEMA {
                        return Err(ResultStoreError::Schema {
                            path: journal,
                            found,
                        });
                    }
                }
            }
            for (lineno, line) in lines {
                if line.trim().is_empty() {
                    continue;
                }
                match decode_entry(line) {
                    Ok((key, entry)) => {
                        entries.insert(key, entry);
                    }
                    Err(e) => eprintln!(
                        "[results: dropping corrupt journal line {} ({e}); \
                         the cell will recompute]",
                        lineno + 1
                    ),
                }
            }
        }
        Ok(ResultStore {
            journal,
            entries: Mutex::new(entries),
        })
    }

    /// The journal path (diagnostics and tests).
    pub fn journal_path(&self) -> &Path {
        &self.journal
    }

    /// Finished cells currently known (on disk or retained in
    /// memory after a failed write).
    pub fn len(&self) -> usize {
        self.entries.lock().unwrap().len()
    }

    /// Whether no finished cells are known.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The stored report for a cell, if that cell already finished.
    pub fn get(&self, key: &str) -> Option<SimReport> {
        self.entries
            .lock()
            .unwrap()
            .get(key)
            .map(|e| e.report.clone())
    }

    /// The stored report plus its fidelity rung (`None` for plain
    /// grid cells), if that cell already finished.
    pub fn get_with_rung(&self, key: &str) -> Option<(Option<u32>, SimReport)> {
        self.entries
            .lock()
            .unwrap()
            .get(key)
            .map(|e| (e.rung, e.report.clone()))
    }

    /// Records a finished cell and rewrites the journal atomically.
    /// On a write failure the entry is kept in memory (the warning is
    /// the caller's to print — the sweep itself must go on) and the
    /// next successful put persists it too.
    ///
    /// # Errors
    ///
    /// Propagates the journal write failure.
    pub fn put(&self, key: &str, report: &SimReport) -> std::io::Result<()> {
        self.put_entry(key, None, report)
    }

    /// [`ResultStore::put`] for a DSE-ladder cell, stamping the
    /// fidelity rung the report was computed at. The rung rides in
    /// the journal line (CRC-covered) so a resumed sweep knows not
    /// just *that* a cell finished but *at which fidelity*.
    ///
    /// # Errors
    ///
    /// Propagates the journal write failure.
    pub fn put_rung(&self, key: &str, rung: u32, report: &SimReport) -> std::io::Result<()> {
        self.put_entry(key, Some(rung), report)
    }

    fn put_entry(&self, key: &str, rung: Option<u32>, report: &SimReport) -> std::io::Result<()> {
        let mut entries = self.entries.lock().unwrap();
        entries.insert(
            key.to_string(),
            Entry {
                rung,
                report: report.clone(),
            },
        );
        let mut out = String::new();
        out.push_str("{\"schema\":\"");
        out.push_str(SCHEMA);
        out.push_str("\"}\n");
        for (k, e) in entries.iter() {
            out.push_str(&encode_entry(k, e.rung, &e.report));
            out.push('\n');
        }
        crate::fault::write_atomic(&self.journal, out.as_bytes())
    }
}

fn rung_json(rung: Option<u32>) -> String {
    match rung {
        None => "null".into(),
        Some(r) => format!("\"{r}\""),
    }
}

fn line_crc(key: &str, rung: &str, report_json: &str) -> u64 {
    let h = fnv1a(FNV_OFFSET, key.as_bytes());
    let h = fnv1a(h, &[0]);
    let h = fnv1a(h, rung.as_bytes());
    let h = fnv1a(h, &[0]);
    fnv1a(h, report_json.as_bytes())
}

pub(crate) fn encode_entry(key: &str, rung: Option<u32>, report: &SimReport) -> String {
    let r = report_to_json(report);
    let g = rung_json(rung);
    format!(
        "{{\"key\":{},\"rung\":{g},\"crc\":\"{:016x}\",\"report\":{r}}}",
        esc(key),
        line_crc(key, &g, &r)
    )
}

pub(crate) fn decode_entry(line: &str) -> Result<(String, Entry), String> {
    // The CRC is computed over the serialized report substring, so
    // re-extract it verbatim rather than re-encoding the parse.
    let doc = Json::parse(line).map_err(|e| format!("bad JSON: {e}"))?;
    let key = doc
        .get("key")
        .and_then(Json::str_val)
        .ok_or("missing key")?;
    let rung = match doc.get("rung") {
        None => return Err("missing rung".into()),
        Some(Json::Null) => None,
        Some(Json::Str(s)) => Some(s.parse::<u32>().map_err(|e| format!("bad rung: {e}"))?),
        Some(_) => return Err("rung: expected null or string".into()),
    };
    let crc = doc
        .get("crc")
        .and_then(Json::str_val)
        .ok_or("missing crc")?;
    let crc = u64::from_str_radix(crc, 16).map_err(|e| format!("bad crc: {e}"))?;
    let marker = "\"report\":";
    let at = line.find(marker).ok_or("missing report")?;
    let report_json = line[at + marker.len()..]
        .trim_end()
        .strip_suffix('}')
        .ok_or("unterminated entry")?;
    if line_crc(key, &rung_json(rung), report_json) != crc {
        return Err("checksum mismatch".into());
    }
    let report = report_from_json(doc.get("report").ok_or("missing report")?)?;
    Ok((key.to_string(), Entry { rung, report }))
}

// ---- SimReport <-> JSON (bit-exact, see the module docs) ----

pub(crate) fn esc(s: &str) -> String {
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

pub(crate) fn ju(v: u64) -> String {
    format!("\"{v}\"")
}

pub(crate) fn jf(v: f64) -> String {
    if v.is_nan() {
        "\"NaN\"".into()
    } else if v == f64::INFINITY {
        "\"inf\"".into()
    } else if v == f64::NEG_INFINITY {
        "\"-inf\"".into()
    } else {
        format!("{v:?}")
    }
}

fn jcache(c: &CacheStats) -> String {
    format!(
        "[{},{},{},{},{},{},{},{},{}]",
        ju(c.demand_accesses),
        ju(c.demand_misses),
        ju(c.prefetch_accesses),
        ju(c.prefetch_misses),
        ju(c.demand_fills),
        ju(c.prefetch_fills),
        ju(c.evictions),
        ju(c.bypasses),
        ju(c.flushed_lines),
    )
}

fn jratio(r: &Ratio) -> String {
    format!("[{},{}]", ju(r.numerator()), ju(r.denominator()))
}

/// Serializes a report for the journal (compact single line).
pub fn report_to_json(r: &SimReport) -> String {
    let mut out = String::with_capacity(512);
    out.push('{');
    out.push_str(&format!("\"app\":{},", esc(&r.app)));
    out.push_str(&format!("\"org\":{},", esc(&r.org)));
    out.push_str(&format!("\"ti\":{},", ju(r.total_instructions)));
    out.push_str(&format!("\"tc\":{},", ju(r.total_cycles)));
    out.push_str(&format!("\"mi\":{},", ju(r.measured_instructions)));
    out.push_str(&format!("\"mc\":{},", ju(r.measured_cycles)));
    out.push_str(&format!("\"l1i\":{},", jcache(&r.l1i)));
    out.push_str(&format!("\"l1d\":{},", jcache(&r.l1d)));
    out.push_str(&format!("\"l2\":{},", jcache(&r.l2)));
    out.push_str(&format!("\"l3\":{},", jcache(&r.l3)));
    out.push_str(&format!("\"dram\":{},", ju(r.dram_accesses)));
    out.push_str(&format!(
        "\"br\":[{},{},{},{},{},{}],",
        ju(r.branch.mispredicts),
        ju(r.branch.tage.predictions),
        ju(r.branch.tage.mispredictions),
        ju(r.branch.btb.lookups),
        ju(r.branch.btb.misses),
        ju(r.branch.btb.wrong_target),
    ));
    out.push_str(&format!(
        "\"pf\":[{},{}],",
        ju(r.prefetch.issued),
        ju(r.prefetch.filtered)
    ));
    out.push_str(&format!("\"cs\":{},", ju(r.context_switches)));
    match &r.acic {
        None => out.push_str("\"acic\":null,"),
        Some(a) => {
            let acc: Vec<String> = a.accuracy.iter().map(jratio).collect();
            let deltas: Vec<String> = a.insert_delta.iter().map(|&d| ju(d)).collect();
            out.push_str(&format!(
                "\"acic\":{{\"d\":{},\"a\":{},\"b\":{},\"f\":{},\"acc\":[{}],\"oa\":{},\"id\":[{}]}},",
                ju(a.decisions),
                ju(a.admitted),
                ju(a.bypassed),
                ju(a.free_admissions),
                acc.join(","),
                jratio(&a.oracle_admits),
                deltas.join(","),
            ));
        }
    }
    match &r.cshr {
        None => out.push_str("\"cshr\":null,"),
        Some(c) => out.push_str(&format!(
            "\"cshr\":[{},{},{},{}],",
            ju(c.inserted),
            ju(c.victim_first),
            ju(c.contender_first),
            ju(c.evicted_unresolved),
        )),
    }
    match &r.cshr_lifetimes {
        None => out.push_str("\"life\":null,"),
        Some(l) => {
            let vals: Vec<String> = l.iter().map(|&v| jf(v)).collect();
            out.push_str(&format!("\"life\":[{}],", vals.join(",")));
        }
    }
    match &r.sampled {
        None => out.push_str("\"sampled\":null,"),
        Some(s) => out.push_str(&format!(
            "\"sampled\":[{},{},{},{},{},{},{},{},{},{}],",
            ju(s.windows),
            ju(s.detailed_instructions),
            ju(s.warmup_instructions),
            ju(s.fastforward_instructions),
            jf(s.ipc_mean),
            jf(s.ipc_ci95),
            jf(s.mpki_mean),
            jf(s.mpki_ci95),
            jf(s.est_total_cycles),
            jf(s.est_total_misses),
        )),
    }
    let wi: Vec<String> = r.window_ipc.iter().map(|&v| jf(v)).collect();
    let wm: Vec<String> = r.window_mpki.iter().map(|&v| jf(v)).collect();
    out.push_str(&format!("\"wins\":[[{}],[{}]]", wi.join(","), wm.join(",")));
    out.push('}');
    out
}

pub(crate) fn s_str(j: Option<&Json>, what: &str) -> Result<String, String> {
    j.and_then(Json::str_val)
        .map(String::from)
        .ok_or_else(|| format!("{what}: expected string"))
}

pub(crate) fn s_u64(j: Option<&Json>, what: &str) -> Result<u64, String> {
    j.and_then(Json::str_val)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("{what}: expected u64 string"))
}

pub(crate) fn s_f64(j: Option<&Json>, what: &str) -> Result<f64, String> {
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

pub(crate) fn s_arr<'a>(j: Option<&'a Json>, len: usize, what: &str) -> Result<&'a [Json], String> {
    match j {
        Some(Json::Arr(items)) if items.len() == len => Ok(items),
        Some(Json::Arr(items)) => Err(format!("{what}: expected {len} items, got {}", items.len())),
        _ => Err(format!("{what}: expected array")),
    }
}

fn s_cache(j: Option<&Json>, what: &str) -> Result<CacheStats, String> {
    let a = s_arr(j, 9, what)?;
    let g = |i: usize| s_u64(Some(&a[i]), what);
    Ok(CacheStats {
        demand_accesses: g(0)?,
        demand_misses: g(1)?,
        prefetch_accesses: g(2)?,
        prefetch_misses: g(3)?,
        demand_fills: g(4)?,
        prefetch_fills: g(5)?,
        evictions: g(6)?,
        bypasses: g(7)?,
        flushed_lines: g(8)?,
    })
}

fn s_ratio(j: Option<&Json>, what: &str) -> Result<Ratio, String> {
    let a = s_arr(j, 2, what)?;
    Ok(Ratio::from_parts(
        s_u64(Some(&a[0]), what)?,
        s_u64(Some(&a[1]), what)?,
    ))
}

/// Decodes a report serialized by [`report_to_json`].
///
/// # Errors
///
/// Describes the first missing or ill-typed field.
pub fn report_from_json(doc: &Json) -> Result<SimReport, String> {
    let br = s_arr(doc.get("br"), 6, "br")?;
    let pf = s_arr(doc.get("pf"), 2, "pf")?;
    let acic = match doc.get("acic") {
        None => return Err("missing acic".into()),
        Some(Json::Null) => None,
        Some(a) => {
            let acc_items = s_arr(
                a.get("acc"),
                acic_core::acic::ACCURACY_BOUNDS.len(),
                "acic.acc",
            )?;
            let mut accuracy = [Ratio::default(); acic_core::acic::ACCURACY_BOUNDS.len()];
            for (slot, item) in accuracy.iter_mut().zip(acc_items) {
                *slot = s_ratio(Some(item), "acic.acc")?;
            }
            let delta_items = s_arr(a.get("id"), 11, "acic.id")?;
            let mut insert_delta = [0u64; 11];
            for (slot, item) in insert_delta.iter_mut().zip(delta_items) {
                *slot = s_u64(Some(item), "acic.id")?;
            }
            Some(AcicStats {
                decisions: s_u64(a.get("d"), "acic.d")?,
                admitted: s_u64(a.get("a"), "acic.a")?,
                bypassed: s_u64(a.get("b"), "acic.b")?,
                free_admissions: s_u64(a.get("f"), "acic.f")?,
                accuracy,
                oracle_admits: s_ratio(a.get("oa"), "acic.oa")?,
                insert_delta,
            })
        }
    };
    let cshr = match doc.get("cshr") {
        None => return Err("missing cshr".into()),
        Some(Json::Null) => None,
        Some(c) => {
            let a = s_arr(Some(c), 4, "cshr")?;
            Some(CshrStats {
                inserted: s_u64(Some(&a[0]), "cshr")?,
                victim_first: s_u64(Some(&a[1]), "cshr")?,
                contender_first: s_u64(Some(&a[2]), "cshr")?,
                evicted_unresolved: s_u64(Some(&a[3]), "cshr")?,
            })
        }
    };
    let cshr_lifetimes = match doc.get("life") {
        None => return Err("missing life".into()),
        Some(Json::Null) => None,
        Some(l) => {
            let a = s_arr(Some(l), acic_core::cshr::LIFETIME_BUCKETS, "life")?;
            let mut out = [0.0; acic_core::cshr::LIFETIME_BUCKETS];
            for (slot, item) in out.iter_mut().zip(a) {
                *slot = s_f64(Some(item), "life")?;
            }
            Some(out)
        }
    };
    let sampled = match doc.get("sampled") {
        None => return Err("missing sampled".into()),
        Some(Json::Null) => None,
        Some(s) => {
            let a = s_arr(Some(s), 10, "sampled")?;
            Some(SampledStats {
                windows: s_u64(Some(&a[0]), "sampled")?,
                detailed_instructions: s_u64(Some(&a[1]), "sampled")?,
                warmup_instructions: s_u64(Some(&a[2]), "sampled")?,
                fastforward_instructions: s_u64(Some(&a[3]), "sampled")?,
                ipc_mean: s_f64(Some(&a[4]), "sampled")?,
                ipc_ci95: s_f64(Some(&a[5]), "sampled")?,
                mpki_mean: s_f64(Some(&a[6]), "sampled")?,
                mpki_ci95: s_f64(Some(&a[7]), "sampled")?,
                est_total_cycles: s_f64(Some(&a[8]), "sampled")?,
                est_total_misses: s_f64(Some(&a[9]), "sampled")?,
            })
        }
    };
    let wins = match doc.get("wins") {
        None => return Err("missing wins".into()),
        Some(Json::Arr(a)) if a.len() == 2 => {
            let mut out: Vec<Vec<f64>> = Vec::with_capacity(2);
            for part in a {
                match part {
                    Json::Arr(vals) => out.push(
                        vals.iter()
                            .map(|v| s_f64(Some(v), "wins"))
                            .collect::<Result<Vec<f64>, _>>()?,
                    ),
                    _ => return Err("wins: expected two float arrays".into()),
                }
            }
            out
        }
        Some(_) => return Err("wins: expected two float arrays".into()),
    };
    let mut wins = wins.into_iter();
    Ok(SimReport {
        app: s_str(doc.get("app"), "app")?,
        org: s_str(doc.get("org"), "org")?,
        total_instructions: s_u64(doc.get("ti"), "ti")?,
        total_cycles: s_u64(doc.get("tc"), "tc")?,
        measured_instructions: s_u64(doc.get("mi"), "mi")?,
        measured_cycles: s_u64(doc.get("mc"), "mc")?,
        l1i: s_cache(doc.get("l1i"), "l1i")?,
        l1d: s_cache(doc.get("l1d"), "l1d")?,
        l2: s_cache(doc.get("l2"), "l2")?,
        l3: s_cache(doc.get("l3"), "l3")?,
        dram_accesses: s_u64(doc.get("dram"), "dram")?,
        branch: BranchStats {
            mispredicts: s_u64(Some(&br[0]), "br")?,
            tage: TageStats {
                predictions: s_u64(Some(&br[1]), "br")?,
                mispredictions: s_u64(Some(&br[2]), "br")?,
            },
            btb: BtbStats {
                lookups: s_u64(Some(&br[3]), "br")?,
                misses: s_u64(Some(&br[4]), "br")?,
                wrong_target: s_u64(Some(&br[5]), "br")?,
            },
        },
        prefetch: PrefetchStats {
            issued: s_u64(Some(&pf[0]), "pf")?,
            filtered: s_u64(Some(&pf[1]), "pf")?,
        },
        context_switches: s_u64(doc.get("cs"), "cs")?,
        acic,
        cshr,
        cshr_lifetimes,
        sampled,
        window_ipc: wins.next().expect("wins has two arrays"),
        window_mpki: wins.next().expect("wins has two arrays"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use acic_sim::{Engine, IcacheOrg, SimConfig};
    use acic_workloads::{AppProfile, WorkloadSpec};

    fn tdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("acic-results-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn sample_report(org: IcacheOrg) -> SimReport {
        let spec = WorkloadSpec::Single(AppProfile::web_search());
        let cfg = SimConfig {
            attach_oracle: true,
            ..SimConfig::default()
        }
        .with_org(org);
        Engine::run(&cfg, &spec.generator(4_000))
    }

    #[test]
    fn key_crc_and_backoff_hashes_are_pinned() {
        // Journal-line CRCs and supervised backoff jitter hash through
        // FNV-1a and SplitMix64; one pinned value each catches a drift
        // in either function. The cell key pins the identity hash.
        let key = "web-search-1000000-c90ddcff030ce1183";
        let crc = line_crc(key, "null", "{\"app\":\"web-search\"}");
        let delay = crate::supervise::policy::RetryPolicy::default().backoff(key, 2);
        assert_eq!(crc, 0x8f6d_fab2_1292_9971);
        assert_eq!(delay, std::time::Duration::from_nanos(400_400_000));
        let spec = WorkloadSpec::Single(AppProfile::web_search());
        assert_eq!(
            cell_key(&spec, 1_000_000, &SimConfig::default()),
            "web-search-1000000-c78afab55889cbd6a"
        );
    }

    #[test]
    fn report_json_round_trip_is_bit_exact() {
        // An ACIC run exercises every optional block except sampled.
        for report in [
            sample_report(IcacheOrg::acic_default()),
            sample_report(IcacheOrg::Lru),
        ] {
            let json = report_to_json(&report);
            let back = report_from_json(&Json::parse(&json).unwrap()).unwrap();
            assert_eq!(format!("{report:?}"), format!("{back:?}"));
        }
    }

    #[test]
    fn report_json_handles_extreme_values() {
        let report = SimReport {
            app: "weird \"name\"\n".into(),
            org: "x\\y".into(),
            total_instructions: u64::MAX,
            total_cycles: (1 << 53) + 1, // above f64's exact-integer range
            sampled: Some(SampledStats {
                windows: 3,
                ipc_mean: f64::NAN,
                ipc_ci95: f64::INFINITY,
                mpki_mean: f64::NEG_INFINITY,
                mpki_ci95: 0.1 + 0.2, // not exactly 0.3
                ..SampledStats::default()
            }),
            cshr_lifetimes: Some([0.125; acic_core::cshr::LIFETIME_BUCKETS]),
            ..SimReport::default()
        };
        let json = report_to_json(&report);
        let back = report_from_json(&Json::parse(&json).unwrap()).unwrap();
        assert_eq!(format!("{report:?}"), format!("{back:?}"));
        assert_eq!(back.total_cycles, (1 << 53) + 1, "u64 exactness above 2^53");
    }

    #[test]
    fn store_round_trips_entries_across_reopen() {
        let dir = tdir("reopen");
        let report = sample_report(IcacheOrg::acic_default());
        let store = ResultStore::open(&dir).unwrap();
        assert!(store.is_empty());
        store.put("cell-a", &report).unwrap();
        store.put("cell-b", &report).unwrap();
        drop(store);
        let store = ResultStore::open(&dir).unwrap();
        assert_eq!(store.len(), 2);
        let back = store.get("cell-a").expect("persisted");
        assert_eq!(format!("{back:?}"), format!("{report:?}"));
        assert!(store.get("cell-missing").is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_lines_are_dropped_not_decoded() {
        let dir = tdir("corrupt");
        let report = sample_report(IcacheOrg::Lru);
        let store = ResultStore::open(&dir).unwrap();
        store.put("good", &report).unwrap();
        store.put("flipped", &report).unwrap();
        drop(store);
        // Flip one digit inside the *flipped* entry's report payload:
        // its CRC must now reject the line.
        let journal = dir.join(JOURNAL_NAME);
        let text = std::fs::read_to_string(&journal).unwrap();
        let target = text
            .lines()
            .find(|l| l.contains("\"flipped\""))
            .unwrap()
            .to_string();
        let tampered = {
            let at = target.find("\"report\":").unwrap() + 20;
            let mut bytes = target.clone().into_bytes();
            let digit = (at..bytes.len())
                .find(|&i| bytes[i].is_ascii_digit())
                .unwrap();
            bytes[digit] = if bytes[digit] == b'9' { b'8' } else { b'9' };
            String::from_utf8(bytes).unwrap()
        };
        std::fs::write(&journal, text.replace(&target, &tampered)).unwrap();
        let store = ResultStore::open(&dir).unwrap();
        assert!(store.get("flipped").is_none(), "tampered line dropped");
        assert!(store.get("good").is_some(), "healthy line survives");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wrong_schema_is_a_typed_error() {
        let dir = tdir("schema");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(JOURNAL_NAME), "{\"schema\":\"acic-results/v0\"}\n").unwrap();
        let err = ResultStore::open(&dir).expect_err("schema mismatch");
        assert!(matches!(err, ResultStoreError::Schema { .. }));
        assert!(err.to_string().contains("acic-results/v0"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn older_journals_are_rejected_loudly_not_misread() {
        // A well-formed v1 journal has entries in the old three-field
        // shape (no rung, two-part CRC); a v2 line has the v3 shape
        // but a key from the retired `Debug`-hash scheme. The only
        // acceptable outcome is the typed Schema error — decoding
        // either under v3 rules would at best drop lines silently and
        // at worst replay a stale or aliased cell.
        let report = sample_report(IcacheOrg::Lru);
        let r = report_to_json(&report);
        let v1_crc = {
            let h = fnv1a(FNV_OFFSET, b"cell-a");
            let h = fnv1a(h, &[0]);
            fnv1a(h, r.as_bytes())
        };
        let v1_line = format!("{{\"key\":\"cell-a\",\"crc\":\"{v1_crc:016x}\",\"report\":{r}}}");
        let v2_line = encode_entry("cell-a", None, &report);
        for (schema, line) in [("acic-results/v1", v1_line), ("acic-results/v2", v2_line)] {
            let dir = tdir(&schema.replace('/', "-"));
            std::fs::create_dir_all(&dir).unwrap();
            std::fs::write(
                dir.join(JOURNAL_NAME),
                format!("{{\"schema\":\"{schema}\"}}\n{line}\n"),
            )
            .unwrap();
            let err = ResultStore::open(&dir).expect_err("an old journal must not open as v3");
            assert!(matches!(err, ResultStoreError::Schema { .. }), "{schema}");
            assert!(err.to_string().contains(schema), "{err}");
            assert!(err.to_string().contains("refusing"), "{err}");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn rung_round_trips_and_is_crc_covered() {
        let dir = tdir("rung");
        let report = sample_report(IcacheOrg::Lru);
        let store = ResultStore::open(&dir).unwrap();
        store.put("plain", &report).unwrap();
        store.put_rung("laddered", 2, &report).unwrap();
        drop(store);
        let store = ResultStore::open(&dir).unwrap();
        assert_eq!(store.get_with_rung("plain").unwrap().0, None);
        assert_eq!(store.get_with_rung("laddered").unwrap().0, Some(2));
        drop(store);
        // Tampering with the rung alone must fail the CRC: fidelity
        // provenance is integrity-protected, not advisory.
        let journal = dir.join(JOURNAL_NAME);
        let text = std::fs::read_to_string(&journal).unwrap();
        let tampered = text.replace("\"rung\":\"2\"", "\"rung\":\"1\"");
        assert_ne!(text, tampered, "fixture must contain the rung field");
        std::fs::write(&journal, tampered).unwrap();
        let store = ResultStore::open(&dir).unwrap();
        assert!(store.get("laddered").is_none(), "tampered rung dropped");
        assert!(store.get("plain").is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dse_cell_keys_separate_rungs_modes_and_the_base_key() {
        let spec = WorkloadSpec::Single(AppProfile::web_search());
        let cfg = SimConfig::default();
        let base = cell_key(&spec, 20_000, &cfg);
        let r0 = dse_cell_key(&spec, 20_000, &cfg, 0);
        let r1 = dse_cell_key(&spec, 20_000, &cfg, 1);
        assert_eq!(r0, format!("{base}-r0"));
        assert_ne!(r0, r1);
        assert_ne!(r0, base);
        assert_ne!(r0, windowed_cell_key(&spec, 20_000, &cfg));
        // Rung keys embed the FULL budget: a rung never collides with
        // a genuine small-budget cell.
        assert_ne!(r0, dse_cell_key(&spec, 1_250, &cfg, 0));
    }

    #[test]
    fn cell_keys_separate_configs_and_budgets() {
        let spec = WorkloadSpec::Single(AppProfile::web_search());
        let lru = SimConfig::default();
        let acic = SimConfig::default().with_org(IcacheOrg::acic_default());
        let a = cell_key(&spec, 1_000, &lru);
        let b = cell_key(&spec, 1_000, &acic);
        let c = cell_key(&spec, 2_000, &lru);
        assert_ne!(a, b, "config hash separates organizations");
        assert_ne!(a, c, "store key separates budgets");
        assert_eq!(a, cell_key(&spec, 1_000, &SimConfig::default()));
    }

    #[test]
    fn windowed_cell_keys_separate_the_mode_but_not_the_worker_count() {
        let spec = WorkloadSpec::Single(AppProfile::web_search());
        let cfg = SimConfig::default();
        let serial = cell_key(&spec, 1_000, &cfg);
        let windowed = windowed_cell_key(&spec, 1_000, &cfg);
        assert_ne!(serial, windowed, "modes never share a journal entry");
        assert_eq!(windowed, format!("{serial}-w"));
        // No worker-count parameter exists: the same key serves every
        // `Runner::window_threads` value, because the windowed report is
        // bit-identical across worker counts.
    }
}
