//! Property tests pinning the packed trace format: `VecTrace` ↔
//! `PackedTrace` round-trips bit for bit (including ASID switch
//! boundaries), and index-jump `skip` is equivalent to walking. Two
//! golden tables pin every shipped workload spec shape: one the
//! decoded instruction stream (independent of the packed format), one
//! the frozen bytes (`PackedTrace::checksum`).

use acic_repro::trace::{
    BlockRun, BlockRuns, BranchClass, GroupedRuns, Instr, InstrKind, PackedTrace, TraceSource,
    VecTrace, SKIP_STRIDE,
};
use acic_repro::types::hash::{fnv1a, FNV_OFFSET};
use acic_repro::types::{Addr, Asid};
use acic_repro::workloads::{AppProfile, WorkloadSpec};
use proptest::prelude::*;

/// The next run of `runs` with the instructions its sink received.
fn next_run<I: Iterator<Item = Instr>>(
    runs: &mut GroupedRuns<I>,
) -> Option<(BlockRun, Vec<Instr>)> {
    let mut instrs = Vec::new();
    let run = runs.next_run_with(|i| instrs.push(i))?;
    Some((run, instrs))
}

/// Builds a plausible instruction stream from raw fuzz words: mostly
/// sequential PCs with branch redirects, loads/stores with mixed
/// locality, and ASID switches at fuzz-chosen points.
fn stream_from_words(words: &[u64], switch_mask: u64) -> Vec<Instr> {
    let mut pc = 0x40_0000u64;
    let mut asid = Asid::HOST;
    let mut out = Vec::with_capacity(words.len());
    for (k, &w) in words.iter().enumerate() {
        if switch_mask != 0 && k as u64 % switch_mask == switch_mask - 1 {
            asid = Asid::new((w % 5) as u16);
        }
        let instr = match w % 10 {
            0 | 1 => Instr::load(Addr::new(pc), Addr::new((w >> 8) % (1 << 34))),
            2 => Instr::store(Addr::new(pc), Addr::new((w >> 8) % (1 << 34))),
            3 => Instr::long_alu(Addr::new(pc)),
            4 | 5 => {
                let class = match (w >> 16) % 5 {
                    0 => BranchClass::Conditional,
                    1 => BranchClass::Direct,
                    2 => BranchClass::Call,
                    3 => BranchClass::Return,
                    _ => BranchClass::Indirect,
                };
                Instr::branch(
                    Addr::new(pc),
                    Addr::new((w >> 20) % (1 << 30)),
                    w & 4 != 0,
                    class,
                )
            }
            _ => Instr::alu(Addr::new(pc)),
        };
        pc = instr.next_pc().raw();
        out.push(instr.with_asid(asid));
    }
    out
}

proptest! {
    #[test]
    fn vec_and_packed_traces_are_interchangeable(
        words in proptest::collection::vec(any::<u64>(), 0..600),
        switch_mask in 0u64..40,
    ) {
        let instrs = stream_from_words(&words, switch_mask);
        let vec_trace = VecTrace::with_name(instrs.clone(), "prop");
        let packed = PackedTrace::from_source(&vec_trace);
        prop_assert_eq!(packed.len(), instrs.len() as u64);
        prop_assert_eq!(packed.len_hint(), vec_trace.len_hint());
        // Identical Instr streams, including every ASID boundary.
        let decoded: Vec<Instr> = packed.iter().collect();
        prop_assert_eq!(&decoded, &instrs);
        // And therefore identical run grouping (the unit every cache
        // model consumes) — ASID changes split runs in both.
        let a: Vec<_> = BlockRuns::new(vec_trace.iter()).collect();
        let b: Vec<_> = BlockRuns::new(packed.iter()).collect();
        prop_assert_eq!(a, b);
        // Closing the loop: re-materializing the packed stream into a
        // VecTrace reproduces the original.
        let back: VecTrace = packed.iter().collect();
        prop_assert_eq!(back.iter().collect::<Vec<_>>(), instrs);
    }

    #[test]
    fn skip_then_iter_matches_the_walked_generator_path(
        words in proptest::collection::vec(any::<u64>(), 1..400),
        reps in 1usize..40,
        skip_to in any::<u64>(),
    ) {
        // Tile the fuzz stream so skips regularly cross index-stride
        // boundaries.
        let tile = stream_from_words(&words, 7);
        let instrs: Vec<Instr> = std::iter::repeat_with(|| tile.clone())
            .take(reps)
            .flatten()
            .collect();
        let packed = PackedTrace::from_instrs("skip-prop", instrs.clone());
        let n = skip_to % (instrs.len() as u64 + 10);
        // Index-jump path...
        let mut fast = packed.iter();
        let skipped = PackedTrace::skip(&mut fast, n);
        prop_assert_eq!(skipped, n.min(instrs.len() as u64));
        // ...must land exactly where the element-by-element walk does.
        let walked: Vec<Instr> = instrs.iter().copied().skip(n as usize).collect();
        prop_assert_eq!(fast.collect::<Vec<_>>(), walked);
    }

    #[test]
    fn grouped_runs_skip_hand_off_is_boundary_exact(
        words in proptest::collection::vec(any::<u64>(), 40..400),
        consume in 0u64..40,
        gap in 0u64..6000,
    ) {
        // The engine's fast-forward path: consume some runs, skip a
        // gap through GroupedRuns, resume grouping. The resumed run
        // boundaries must match a plain walk over the same stream.
        let instrs = stream_from_words(&words, 11);
        let tiled: Vec<Instr> = std::iter::repeat_with(|| instrs.clone())
            .take(30)
            .flatten()
            .collect();
        let packed = PackedTrace::from_instrs("ff-prop", tiled.clone());

        let mut runs = GroupedRuns::new(packed.iter());
        let mut consumed = 0u64;
        for _ in 0..consume {
            match runs.next_run_with(|_| {}) {
                Some(r) => consumed += r.len as u64,
                None => break,
            }
        }
        let dropped = runs.skip_instrs_with(gap, PackedTrace::skip);
        prop_assert!(dropped <= gap);
        let resumed = next_run(&mut runs);

        let mut slow = GroupedRuns::new(tiled.iter().copied());
        let mut slow_consumed = 0u64;
        while slow_consumed < consumed {
            slow_consumed += slow.next_run_with(|_| {}).expect("same stream").len as u64;
        }
        let slow_dropped = slow.skip_instrs_with(gap, acic_repro::trace::skip_instrs);
        prop_assert_eq!(dropped, slow_dropped);
        prop_assert_eq!(resumed, next_run(&mut slow));
    }
}

#[test]
fn skip_strides_are_exercised() {
    // Belt and braces for the property above: make sure the tiled
    // streams actually cross SKIP_STRIDE so the index-jump path runs.
    let tile = stream_from_words(&[1, 12, 23, 34, 45, 56, 67, 78, 89, 90], 3);
    let instrs: Vec<Instr> = std::iter::repeat_with(|| tile.clone())
        .take(2 * SKIP_STRIDE as usize / tile.len() + 2)
        .flatten()
        .collect();
    assert!(instrs.len() as u64 > 2 * SKIP_STRIDE);
    let packed = PackedTrace::from_instrs("stride", instrs.clone());
    let mut it = packed.iter();
    assert_eq!(PackedTrace::skip(&mut it, SKIP_STRIDE + 3), SKIP_STRIDE + 3);
    assert_eq!(it.next(), Some(instrs[SKIP_STRIDE as usize + 3]));
}

/// Budget of every spec in [`FROZEN_GOLDEN`] and
/// [`FROZEN_STREAM_GOLDEN`].
const FROZEN_BUDGET: u64 = 100_000;

/// `PackedTrace::checksum` of each spec's frozen trace at
/// [`FROZEN_BUDGET`], keyed by `store_key`. Regenerate with
/// `cargo run --release --example golden_capture` only when a change
/// to the generator or to the packed format is deliberate.
const FROZEN_GOLDEN: [(&str, u64); 15] = [
    ("media-streaming-100000", 0x67d4013102659de8),
    ("data-caching-100000", 0xe7e2c2e242ef5ab6),
    ("data-serving-100000", 0x25c1b5a51ad9ed3e),
    ("web-serving-100000", 0xca14bb4a25cf9e34),
    ("web-search-100000", 0x82856400d385db29),
    ("tpc-c-100000", 0xa39d27d9fae3cf83),
    ("wikipedia-100000", 0x82b94800dd450b52),
    ("sibench-100000", 0x5862134a6089ca86),
    ("finagle-http-100000", 0x91b399cf0016074c),
    ("neo4j-analytics-100000", 0xeb8dc6cd1cc42d97),
    ("perlbench-100000", 0x6a1d80e130912c76),
    (
        "mt2q10000-media-streaming_data-caching-100000",
        0x1c770b34217d8403,
    ),
    (
        "mt2q50000-media-streaming_data-caching-100000",
        0x0d1f79dae366f727,
    ),
    (
        "mt4q10000-media-streaming_data-caching_data-serving_web-serving-100000",
        0xac7a4b2ff9dda9db,
    ),
    (
        "mt4q50000-media-streaming_data-caching_data-serving_web-serving-100000",
        0xd97190800759243e,
    ),
];

/// [`stream_digest`] of each spec's frozen trace at
/// [`FROZEN_BUDGET`], keyed by `store_key`. It hashes the decoded
/// `Instr` fields, not the packed bytes, so a change to the packed
/// format alone must leave it as it is. Regenerate with
/// `cargo run --release --example golden_capture` only when a change
/// to the generator is deliberate.
const FROZEN_STREAM_GOLDEN: [(&str, u64); 15] = [
    ("media-streaming-100000", 0xc5a01dbe42855fb3),
    ("data-caching-100000", 0x5db0816c7b67c8bc),
    ("data-serving-100000", 0x19286de9f885b393),
    ("web-serving-100000", 0xf1335d45181eddf9),
    ("web-search-100000", 0xc3a053418d1f8331),
    ("tpc-c-100000", 0xcbd732b91971a805),
    ("wikipedia-100000", 0x166f21bc1af7c8cc),
    ("sibench-100000", 0xe6583973393fd966),
    ("finagle-http-100000", 0xa827f6cf1b6f8a55),
    ("neo4j-analytics-100000", 0x65843a809d1c15b2),
    ("perlbench-100000", 0x5b5c664509bec400),
    (
        "mt2q10000-media-streaming_data-caching-100000",
        0x4afdc030531a8fcf,
    ),
    (
        "mt2q50000-media-streaming_data-caching-100000",
        0xa75d4f46bc5a2003,
    ),
    (
        "mt4q10000-media-streaming_data-caching_data-serving_web-serving-100000",
        0x5a67c7801efab33f,
    ),
    (
        "mt4q50000-media-streaming_data-caching_data-serving_web-serving-100000",
        0x9c12f3b652d6d1a7,
    ),
];

/// FNV-1a over every decoded instruction of `trace`: PC, ASID, kind,
/// and the kind's operands, each at a fixed width.
fn stream_digest(trace: &PackedTrace) -> u64 {
    trace.iter().fold(FNV_OFFSET, |h, i| {
        let (kind, operand, extra) = match i.kind {
            InstrKind::Alu => (0u8, 0, 0u8),
            InstrKind::LongAlu => (1, 0, 0),
            InstrKind::Load { addr } => (2, addr.raw(), 0),
            InstrKind::Store { addr } => (3, addr.raw(), 0),
            InstrKind::Branch {
                target,
                taken,
                class,
            } => (4, target.raw(), u8::from(taken) | (class as u8) << 1),
        };
        let mut rec = [0u8; 20];
        rec[..8].copy_from_slice(&i.pc().raw().to_le_bytes());
        rec[8..10].copy_from_slice(&i.asid().raw().to_le_bytes());
        rec[10] = kind;
        rec[11..19].copy_from_slice(&operand.to_le_bytes());
        rec[19] = extra;
        fnv1a(h, &rec)
    })
}

/// The ten datacenter apps, one SPEC app, and the 2- and 4-tenant
/// mixes at 10k and 50k quanta (the fig-grid benchmark's shapes).
fn frozen_specs() -> Vec<WorkloadSpec> {
    let apps = AppProfile::datacenter_suite();
    let mut specs = WorkloadSpec::singles(&apps);
    specs.push(WorkloadSpec::Single(AppProfile::spec_suite()[0].clone()));
    for tenants in [2usize, 4] {
        for quantum in [10_000u64, 50_000] {
            specs.push(WorkloadSpec::MultiTenant {
                profiles: apps[..tenants].to_vec(),
                quantum,
            });
        }
    }
    specs
}

#[test]
fn frozen_bytes_of_every_spec_shape_are_pinned() {
    let specs = frozen_specs();
    assert_eq!(specs.len(), FROZEN_GOLDEN.len());
    for (spec, (key, golden)) in specs.iter().zip(FROZEN_GOLDEN) {
        assert_eq!(spec.store_key(FROZEN_BUDGET), key);
        let sum = spec.materialize(FROZEN_BUDGET).checksum();
        assert_eq!(sum, golden, "{key}: frozen bytes changed");
    }
}

#[test]
fn decoded_stream_of_every_spec_shape_is_pinned() {
    let specs = frozen_specs();
    assert_eq!(specs.len(), FROZEN_STREAM_GOLDEN.len());
    for (spec, (key, golden)) in specs.iter().zip(FROZEN_STREAM_GOLDEN) {
        assert_eq!(spec.store_key(FROZEN_BUDGET), key);
        let digest = stream_digest(&spec.materialize(FROZEN_BUDGET));
        assert_eq!(digest, golden, "{key}: decoded instructions changed");
    }
}

#[test]
fn every_spec_shape_packs_within_its_byte_budget() {
    // Short ALU runs folded into the next record's header and a data
    // base kept per region pack the shipped shapes at 1.13-1.20
    // B/instr; 1.25 leaves ~4% over the largest (neo4j-analytics,
    // 1.198), so losing either rule (1.33 or more) fails here.
    for spec in frozen_specs() {
        let trace = spec.materialize(FROZEN_BUDGET);
        let bpi = trace.bytes_per_instr();
        assert!(
            bpi <= 1.25,
            "{}: {bpi:.3} B/instr over the 1.25 budget",
            spec.store_key(FROZEN_BUDGET)
        );
    }
}
