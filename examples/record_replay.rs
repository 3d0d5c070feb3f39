//! Record/replay: freeze a workload into a packed `.acictrace`
//! container, replay it from disk, and confirm the replayed run is
//! bit-identical to the generator-backed run.
//!
//! No harness path reads or writes a container: `experiments` freezes
//! each workload in memory, in process or in each `--supervise`
//! worker. The container is the frozen trace's durable form: a
//! versioned (v2), checksummed copy of the same packed arena that
//! either replays bit for bit or is rejected at load.
//!
//! Run: `cargo run --release --example record_replay`

use acic_sim::{Engine, IcacheOrg, SimConfig};
use acic_trace::{PackedTrace, TraceSource};
use acic_workloads::{AppProfile, WorkloadSpec};

fn main() {
    let instructions = 500_000u64;

    // 1. Freeze a 2-tenant interleave once. The packed form keeps the
    //    full instruction stream — ASID switch boundaries included —
    //    at about 1.5 bytes per 24-byte `Instr` record.
    let spec = WorkloadSpec::MultiTenant {
        profiles: vec![AppProfile::web_search(), AppProfile::tpc_c()],
        quantum: 20_000,
    };
    let frozen = spec.materialize(instructions);
    println!(
        "frozen '{}': {} instructions, {:.2} B/instr ({} KiB packed vs {} KiB as Instr records)",
        frozen.name(),
        frozen.len(),
        frozen.bytes_per_instr(),
        frozen.payload_bytes() / 1024,
        frozen.len() * 24 / 1024,
    );

    // 2. Record it as a versioned, checksummed container.
    let path = std::env::temp_dir().join("record_replay_demo.acictrace");
    frozen.write_to(&path).expect("write container");
    println!("recorded to {}", path.display());

    // 3. Replay from disk. A corrupt or truncated container would be
    //    rejected here instead of silently skewing results.
    let replayed = PackedTrace::read_from(&path).expect("container validates");
    assert_eq!(replayed, frozen);

    // 4. Same simulation, two sources: the live generator and the
    //    replayed container. The reports must match bit for bit —
    //    replay carries the workload name, so even the seeded
    //    components initialize identically.
    let cfg = SimConfig::default().with_org(IcacheOrg::acic_default());
    let from_generator = Engine::run(&cfg, &spec.generator(instructions));
    let from_replay = Engine::run(&cfg, &replayed);
    assert_eq!(format!("{from_generator:?}"), format!("{from_replay:?}"));
    println!(
        "replay bit-identical: {} cycles, IPC {:.3}, L1i MPKI {:.2}, {} context switches",
        from_replay.total_cycles,
        from_replay.ipc(),
        from_replay.l1i_mpki(),
        from_replay.context_switches,
    );

    std::fs::remove_file(&path).ok();
}
