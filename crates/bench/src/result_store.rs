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
//! **Journal format** (`acic-results/v4`). Line 1 is the schema
//! header `{"schema":"acic-results/v4"}`; every further line is one
//! cell: `{"key":K,"rung":G,"crc":C,"report":R}` where `G` is the
//! cell's fidelity rung on the DSE ladder (`null` for plain grid
//! cells, a decimal-string rung index for [`dse_cell_key`] cells), `R`
//! is the report in the canonical encoding of [`crate::cell`] (one
//! named member per [`SimReport`] field, bit-exact: integers as
//! decimal strings, `f64`s in shortest round-trip form) and `C` is
//! the FNV-1a 64 hash (16 hex digits) of `K`, a zero byte, the
//! serialized `G`, a zero byte, and the serialized `R`. v4 replaced
//! v3's positional report arrays with those named members; v3 changed
//! the keys, not the line: v2 keys hashed the config's `Debug` text
//! and left profile parameters out. Older journals (v1 without the
//! rung field, v2 with the old keys, v3 with positional reports) are
//! rejected by the schema header — loudly, never misread as v4.
//!
//! **Failure model.** The journal is rewritten whole through
//! [`crate::fault::write_atomic`] (sibling tmp + fsync + rename +
//! directory fsync) on every [`ResultStore::put`], so a crash leaves
//! either the previous journal or the new one, never a tear at the
//! final path. The store keeps every entry's line as read or written,
//! so a put encodes only its own report. Reading drops any line that fails to parse or
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

use crate::cell::Canon;
use crate::json::Json;
use acic_sim::SimReport;
use acic_types::hash::{fnv1a, FNV_OFFSET};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

pub use crate::cell::{cell_key, dse_cell_key, windowed_cell_key};

/// Journal schema tag; bump on any encoding change so an old journal
/// is rejected loudly instead of decoded wrong. v2 added the
/// fidelity-rung field (and folded it into the line CRC); v3 keys
/// cells by the hash of their canonical encoding; v4 writes reports
/// in that encoding too.
pub const SCHEMA: &str = "acic-results/v4";

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
    /// The entry's journal line, kept so that rewriting the journal
    /// concatenates lines instead of re-encoding every report.
    line: String,
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
        let line = encode_entry(key, rung, report);
        let mut entries = self.entries.lock().unwrap();
        entries.insert(
            key.to_string(),
            Entry {
                rung,
                report: report.clone(),
                line,
            },
        );
        let mut out = String::new();
        out.push_str("{\"schema\":\"");
        out.push_str(SCHEMA);
        out.push_str("\"}\n");
        for e in entries.values() {
            out.push_str(&e.line);
            out.push('\n');
        }
        crate::fault::write_atomic(&self.journal, out.as_bytes())
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
    let (r, g) = (report.enc(), rung.enc());
    format!(
        "{{\"key\":{},\"rung\":{g},\"crc\":\"{:016x}\",\"report\":{r}}}",
        key.to_string().enc(),
        line_crc(key, &g, &r)
    )
}

pub(crate) fn decode_entry(line: &str) -> Result<(String, Entry), String> {
    // The CRC is computed over the serialized report substring, so
    // re-extract it verbatim rather than re-encoding the parse.
    let doc = Json::parse(line).map_err(|e| format!("bad JSON: {e}"))?;
    let key = String::dec(doc.get("key"), "key")?;
    let rung = Option::<u32>::dec(doc.get("rung"), "rung")?;
    let crc = String::dec(doc.get("crc"), "crc")?;
    let crc = u64::from_str_radix(&crc, 16).map_err(|e| format!("bad crc: {e}"))?;
    let marker = "\"report\":";
    let at = line.find(marker).ok_or("missing report")?;
    let report_json = line[at + marker.len()..]
        .trim_end()
        .strip_suffix('}')
        .ok_or("unterminated entry")?;
    if line_crc(&key, &rung.enc(), report_json) != crc {
        return Err("checksum mismatch".into());
    }
    let report = SimReport::dec(doc.get("report"), "report")?;
    let line = line.trim_end().to_string();
    Ok((key, Entry { rung, report, line }))
}

/// Serializes a report in its canonical encoding ([`crate::cell`]).
pub fn report_to_json(r: &SimReport) -> String {
    r.enc()
}

/// Decodes a report serialized by [`report_to_json`].
///
/// # Errors
///
/// Names the first missing or ill-typed field.
pub fn report_from_json(doc: &Json) -> Result<SimReport, String> {
    SimReport::dec(Some(doc), "report")
}

#[cfg(test)]
mod tests {
    use super::*;
    use acic_sim::{Engine, IcacheOrg, SampleSchedule, SampledStats, SimConfig};
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
    fn key_and_crc_hashes_are_pinned() {
        // Journal-line CRCs hash through FNV-1a; one pinned value
        // catches a drift in it. The cell key pins the identity hash.
        let key = "web-search-1000000-c90ddcff030ce1183";
        let crc = line_crc(key, "null", "{\"app\":\"web-search\"}");
        assert_eq!(crc, 0x8f6d_fab2_1292_9971);
        let spec = WorkloadSpec::Single(AppProfile::web_search());
        assert_eq!(
            cell_key(&spec, 1_000_000, &SimConfig::default()),
            "web-search-1000000-c78afab55889cbd6a"
        );
    }

    #[test]
    fn report_json_round_trip_is_bit_exact() {
        // An ACIC run exercises the acic and cshr blocks; a sampled
        // ACIC run with the unbounded CSHR adds the sampled block, the
        // lifetime histogram and both window vectors.
        let sampled = {
            let cfg = SimConfig {
                unbounded_cshr: true,
                schedule: SampleSchedule::Periodic {
                    period: 4_000,
                    warmup_len: 1_000,
                    detailed_len: 500,
                },
                ..SimConfig::default().with_org(IcacheOrg::acic_default())
            };
            let spec = WorkloadSpec::Single(AppProfile::web_search());
            Engine::run(&cfg, &spec.generator(20_000))
        };
        assert!(sampled.sampled.is_some() && sampled.cshr_lifetimes.is_some());
        assert!(sampled.window_ipc.len() > 1 && sampled.window_mpki.len() > 1);
        for report in [
            sample_report(IcacheOrg::acic_default()),
            sample_report(IcacheOrg::Lru),
            sampled,
        ] {
            let json = report_to_json(&report);
            let back = report_from_json(&Json::parse(&json).unwrap()).unwrap();
            assert_eq!(format!("{report:?}"), format!("{back:?}"));
            assert_eq!(
                report_to_json(&back),
                json,
                "decode then encode is the identity"
            );
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

        // A report missing a member fails decoding by name even when
        // its line checksums.
        let r = report_to_json(&report);
        let (from, to) = (r.find("\"l1i\":").unwrap(), r.find("\"l1d\":").unwrap());
        let r = format!("{}{}", &r[..from], &r[to..]);
        let crc = line_crc("no-l1i", "null", &r);
        let line =
            format!("{{\"key\":\"no-l1i\",\"rung\":null,\"crc\":\"{crc:016x}\",\"report\":{r}}}");
        let err = decode_entry(&line).unwrap_err();
        assert!(err.contains("l1i"), "{err}");
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

    /// A line from a v3 journal: reports as positional arrays.
    const V3_LINE: &str = r#"{"key":"data-caching-2000-cd90032d08f1ad5df","rung":null,"crc":"d674f2aaeda30a33","report":{"app":"data-caching","org":"LRU","ti":"2000","tc":"14078","mi":"1800","mc":"11692","l1i":["173","60","0","0","61","16","0","0","0"],"l1d":["554","202","0","0","202","0","0","0","0"],"l2":["305","290","0","0","290","0","0","0","0"],"l3":["290","290","0","0","290","0","0","0","0"],"dram":"290","br":["33","87","24","46","33","1"],"pf":["59","32327"],"cs":"0","acic":null,"cshr":null,"life":null,"sampled":null,"wins":[[],[]]}}"#;

    #[test]
    fn older_journals_are_rejected_loudly_not_misread() {
        // A well-formed v1 journal has entries in the old three-field
        // shape (no rung, two-part CRC); a v2 line has the v4 shape
        // but a key from the retired `Debug`-hash scheme; a v3 line
        // checksums but holds a positional report. The only
        // acceptable outcome is the typed Schema error — decoding any
        // of them under v4 rules would at best drop lines silently and
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
        assert!(
            decode_entry(V3_LINE).is_err(),
            "a v3 report is not a v4 report"
        );
        for (schema, line) in [
            ("acic-results/v1", v1_line),
            ("acic-results/v2", v2_line),
            ("acic-results/v3", V3_LINE.to_string()),
        ] {
            let dir = tdir(&schema.replace('/', "-"));
            std::fs::create_dir_all(&dir).unwrap();
            std::fs::write(
                dir.join(JOURNAL_NAME),
                format!("{{\"schema\":\"{schema}\"}}\n{line}\n"),
            )
            .unwrap();
            let err = ResultStore::open(&dir).expect_err("an old journal must not open as v4");
            assert!(matches!(err, ResultStoreError::Schema { .. }), "{schema}");
            assert!(err.to_string().contains(schema), "{err}");
            assert!(err.to_string().contains(SCHEMA), "{err}");
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
