//! Fault-injection properties for the one on-disk store, the result
//! journal.
//!
//! The store-layer invariant under injected IO faults
//! ([`acic_bench::fault`]) is: **loud failure or bit-identical
//! success, never silent corruption** — a read that parses yields
//! exactly the bytes that were written, or the caller sees a per-cell
//! miss that recomputes.
//! A second family of properties pins the resume guarantee: under the
//! crash model (EIO / ENOSPC / torn rename — atomic rename honored),
//! every acknowledged `put` survives reopen, and a torn journal
//! recovers into a rerun with no lost and no double-counted cell.

use acic_bench::fault::{self, Fault, FaultPlan};
use acic_bench::result_store::ResultStore;
use acic_sim::{Engine, IcacheOrg, SimConfig, SimReport};
use acic_workloads::{AppProfile, WorkloadSpec};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// A fresh scratch directory per property case (cases run in one
/// process; a shared dir would alias journals across cases).
fn scratch(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let d = std::env::temp_dir().join(format!(
        "acic-faultprop-{}-{tag}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// A few distinct finished-cell reports (distinct budgets and
/// configs), simulated once for every case.
fn reports() -> &'static Vec<SimReport> {
    static REPORTS: OnceLock<Vec<SimReport>> = OnceLock::new();
    REPORTS.get_or_init(|| {
        let acic = SimConfig::default().with_org(IcacheOrg::acic_default());
        let base = SimConfig::default();
        [
            (AppProfile::sibench(), &base, 1_500u64),
            (AppProfile::sibench(), &acic, 1_500),
            (AppProfile::web_search(), &base, 1_500),
            (AppProfile::web_search(), &acic, 2_500),
        ]
        .into_iter()
        .map(|(app, cfg, n)| Engine::run(cfg, &WorkloadSpec::Single(app).generator(n)))
        .collect()
    })
}

fn key(i: usize) -> String {
    format!("cell-{i}")
}

fn same_report(a: &SimReport, b: &SimReport) -> bool {
    format!("{a:?}") == format!("{b:?}")
}

proptest! {
    /// Crash model (atomic rename honored): every `put` that returned
    /// `Ok` is present and bit-identical after reopening the store,
    /// no matter which puts failed around it.
    #[test]
    fn acknowledged_puts_survive_crash_faults(seed in any::<u64>()) {
        // Derive a crash-only script (never TruncateTmp/BitFlip*: those
        // model non-atomic or silently-corrupting storage, where
        // durability of *previous* writes is exactly what's lost).
        let crash = [
            None,
            Some(Fault::WriteEio),
            Some(Fault::WriteEnospc),
            Some(Fault::TornRename),
        ];
        let script: Vec<Option<Fault>> = (0..reports().len() as u64)
            .map(|op| crash[(seed.rotate_left(7 * op as u32) % 4) as usize])
            .collect();
        let dir = scratch("crash");
        let store = ResultStore::open(&dir).unwrap();
        let mut acked = Vec::new();
        fault::with_faults(FaultPlan::script(script), || {
            for (i, r) in reports().iter().enumerate() {
                if store.put(&key(i), r).is_ok() {
                    acked.push(i);
                }
            }
        });
        let reopened = ResultStore::open(&dir).unwrap();
        for &i in &acked {
            let got = reopened.get(&key(i));
            prop_assert!(got.is_some(), "acknowledged put '{}' lost on reopen", key(i));
            prop_assert!(
                same_report(&got.unwrap(), &reports()[i]),
                "acknowledged put '{}' came back different",
                key(i)
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Reopening a healthy journal under an arbitrary fault plan:
    /// either the open fails loudly, or every cell it reports is
    /// bit-identical to what was stored — a faulted line degrades to
    /// a miss (recompute), never to a different report.
    #[test]
    fn reopen_under_faults_never_silently_corrupts(seed in any::<u64>(), density in 0u8..=80u8) {
        let dir = scratch("reopen");
        let store = ResultStore::open(&dir).unwrap();
        for (i, r) in reports().iter().enumerate() {
            store.put(&key(i), r).unwrap();
        }
        let (reopened, _) = fault::with_faults(FaultPlan::seeded(seed, density), || {
            ResultStore::open(&dir)
        });
        if let Ok(s) = reopened {
            for (i, r) in reports().iter().enumerate() {
                if let Some(got) = s.get(&key(i)) {
                    prop_assert!(
                        same_report(&got, r),
                        "cell '{}' decoded to a different report under seed {seed}",
                        key(i)
                    );
                }
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A journal torn at an arbitrary byte offset recovers into a
    /// rerun with no loss and no double-count: surviving entries are
    /// bit-identical, re-putting the missing cells restores exactly
    /// one journal line per cell.
    #[test]
    fn torn_journal_recovers_without_loss_or_double_count(cut_pct in 0u8..=100u8) {
        let n = reports().len();
        let dir = scratch("torn");
        let store = ResultStore::open(&dir).unwrap();
        for (i, r) in reports().iter().enumerate() {
            store.put(&key(i), r).unwrap();
        }
        let journal = store.journal_path().to_path_buf();
        let full = std::fs::read(&journal).unwrap();
        let keep = full.len() * cut_pct as usize / 100;
        std::fs::write(&journal, &full[..keep]).unwrap();
        match ResultStore::open(&dir) {
            // The tear ate into the schema header: loud, typed failure.
            Err(e) => prop_assert!(e.to_string().contains(&journal.display().to_string())),
            Ok(s) => {
                prop_assert!(s.len() <= n);
                // Rerun: recompute (here: re-put) exactly the missing cells.
                for (i, r) in reports().iter().enumerate() {
                    match s.get(&key(i)) {
                        Some(got) => prop_assert!(same_report(&got, r)),
                        None => s.put(&key(i), r).unwrap(),
                    }
                }
                prop_assert_eq!(s.len(), n, "every cell present after the rerun");
                let text = std::fs::read_to_string(&journal).unwrap();
                let lines = text.lines().filter(|l| !l.trim().is_empty()).count();
                prop_assert_eq!(lines, n + 1, "one line per cell plus the header");
                for (i, r) in reports().iter().enumerate() {
                    let got = ResultStore::open(&dir).unwrap().get(&key(i));
                    prop_assert!(got.is_some_and(|g| same_report(&g, r)));
                }
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
