//! Sharded-vs-serial bit-equivalence of the intra-run shard lanes.
//!
//! The sharding contract (DESIGN.md §14): `SimConfig::shards` — and the
//! `CARREFOUR_SHARDS` override — only changes how many OS threads compute
//! an epoch, never what they compute. These tests pin the contract at its
//! strongest reading:
//!
//! * every **golden cell** produces a byte-identical [`engine::TraceDigest`]
//!   and an equal [`SimResult`] at shard counts 1, 2, 3, and 8;
//! * random shapes, seeds, policies, and **nonzero fault plans** (with the
//!   attribution ledger ON, so per-bucket cycle conservation is compared
//!   too) are bit-identical at every shard count;
//! * `ckpt-v1` snapshots are **byte-identical** across shard counts, and
//!   resume across a shard-merged epoch boundary in *both* directions —
//!   serial snapshot → sharded resume and sharded snapshot → serial
//!   resume.
//!
//! Robustness counters and trace digests ride along in `SimResult` /
//! `TraceDigest` equality; `assert_eq!` on `SimResult` covers the
//! attribution ledger because `AttributionLedger` derives `PartialEq`.

use carrefour_bench::{golden, PolicyKind};
use engine::{
    Checkpoint, DigestSink, FaultConfig, Hooks, NumaPolicy, Run, SimConfig, SimResult, Simulation,
    TraceDigest,
};
use numa_topology::MachineSpec;
use proptest::prelude::*;
use std::sync::Mutex;
use workloads::{AccessPattern, RegionSpec, WorkloadSpec};

const BASE: u64 = 64 << 30;

/// Runs to the boundary that begins `epoch` and snapshots there; `None`
/// when the run completes first.
fn checkpoint_at(
    machine: &MachineSpec,
    spec: &WorkloadSpec,
    config: &SimConfig,
    policy: &mut dyn NumaPolicy,
    epoch: u32,
) -> Option<Checkpoint> {
    let mut run = Run::start(machine, spec, config, policy, Hooks::default());
    run.step_to(epoch).then(|| run.checkpoint())
}

/// Resumes `ckpt` under a fresh `policy` and runs it to completion.
fn resume(
    machine: &MachineSpec,
    spec: &WorkloadSpec,
    config: &SimConfig,
    policy: &mut dyn NumaPolicy,
    ckpt: &Checkpoint,
) -> SimResult {
    Run::resume(machine, spec, config, policy, Hooks::default(), ckpt, true).finish()
}

/// The shard counts the acceptance bar names: serial, even split, uneven
/// split (3 lanes over 4 node groups), and over-subscribed (8 > any
/// machine's group count, so it clamps).
const SHARD_COUNTS: [u32; 4] = [1, 2, 3, 8];

/// Serializes the test that sets `CARREFOUR_SHARDS` (the engine reads it
/// per run; cargo runs tests in this binary on threads).
static ENV_LOCK: Mutex<()> = Mutex::new(());

/// A small multi-threaded workload, the same shape the fast-path and
/// checkpoint suites use.
fn small_spec(name: &str, mib: u64, pattern: AccessPattern) -> WorkloadSpec {
    let machine = MachineSpec::test_machine();
    WorkloadSpec {
        name: name.to_string(),
        threads: machine.total_cores(),
        regions: vec![RegionSpec {
            base: BASE,
            bytes: mib << 20,
            share: 1.0,
            pattern,
            alloc_skew: 0.0,
            loader_headers: 0.0,
            rw_shared: true,
            read_only: false,
        }],
        ops_per_round: 300,
        compute_rounds: 8,
        think_cycles_per_op: 10,
        write_fraction: 0.4,
        phases: Vec::new(),
        mlp: 1,
    }
}

/// Runs one cell traced and returns `(result, digest)`.
fn run_traced(
    machine: &MachineSpec,
    spec: &WorkloadSpec,
    config: &SimConfig,
    policy: &mut dyn NumaPolicy,
) -> (SimResult, TraceDigest) {
    let mut sink = DigestSink::new();
    let result = Simulation::run_traced(machine, spec, config, policy, &mut sink);
    (result, sink.into_digest())
}

/// Runs the cell serially, then at every shard count in [`SHARD_COUNTS`],
/// asserting full `SimResult` and `TraceDigest` equality each time.
/// Returns the serial result for scenario assertions.
fn assert_shard_equivalent(
    machine: &MachineSpec,
    spec: &WorkloadSpec,
    config: &SimConfig,
    mut make_policy: impl FnMut() -> Box<dyn NumaPolicy>,
) -> SimResult {
    let mut serial = config.clone();
    serial.shards = 1;
    let (want, want_digest) = run_traced(machine, spec, &serial, make_policy().as_mut());
    for shards in SHARD_COUNTS {
        let mut c = config.clone();
        c.shards = shards;
        let (got, got_digest) = run_traced(machine, spec, &c, make_policy().as_mut());
        assert_eq!(
            got, want,
            "SimResult diverged at shards={shards} ({}/{})",
            want.workload, want.policy
        );
        assert!(
            want_digest.diff(&got_digest).is_none(),
            "trace digest diverged at shards={shards}: {}",
            want_digest.diff(&got_digest).unwrap_or_default()
        );
    }
    want
}

/// Every golden cell — the exact digests that gate CI — is bit-identical
/// at every shard count, trace digest included. This is the tentpole's
/// acceptance bar: "all ten golden digests byte-identical at any shard
/// count".
#[test]
fn golden_cells_are_bit_identical_at_every_shard_count() {
    std::env::set_var("CARREFOUR_QUIET", "1");
    let machine = MachineSpec::machine_a();
    let jobs = carrefour_bench::runner::resolve_jobs(None);
    carrefour_bench::runner::par_map(jobs, golden::GOLDEN_CELLS.len(), |i| {
        let cell = golden::GOLDEN_CELLS[i];
        let config = SimConfig::for_machine(&machine, cell.kind.initial_thp());
        let spec = cell.bench.spec(&machine);
        let want = golden::digest_cell(&machine, cell);
        for shards in SHARD_COUNTS {
            let mut c = config.clone();
            c.shards = shards;
            let (_, mut got) = run_traced(&machine, &spec, &c, cell.kind.make().as_mut());
            got.policy = cell.kind.label().to_string();
            got.runtime_cycles = want.runtime_cycles;
            assert!(
                want.diff(&got).is_none(),
                "golden {} diverged at shards={shards}: {}",
                cell.stem(),
                want.diff(&got).unwrap_or_default()
            );
        }
    });
}

/// The `CARREFOUR_SHARDS` environment variable overrides the config field
/// and produces the same bit-identical results.
#[test]
fn env_override_is_bit_identical_and_wins_over_config() {
    let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let machine = MachineSpec::test_machine();
    let spec = small_spec("shards-env", 4, AccessPattern::SharedUniform);
    let config = SimConfig::for_machine(&machine, PolicyKind::CarrefourLp.initial_thp());
    let want = Simulation::run(
        &machine,
        &spec,
        &config,
        PolicyKind::CarrefourLp.make().as_mut(),
    );
    // Env says 2 lanes even though the config says serial.
    let mut c = config.clone();
    c.shards = 1;
    std::env::set_var("CARREFOUR_SHARDS", "2");
    let got = Simulation::run(&machine, &spec, &c, PolicyKind::CarrefourLp.make().as_mut());
    std::env::remove_var("CARREFOUR_SHARDS");
    assert_eq!(got, want, "CARREFOUR_SHARDS=2 diverged from serial");
}

/// Snapshots are part of the contract: a `ckpt-v1` checkpoint taken at
/// the same epoch is **byte-identical** at every shard count (the merged
/// state *is* the serial state, not merely equivalent), and it resumes
/// across a shard-merged boundary in both directions — serial snapshot
/// into a sharded tail and sharded snapshot into a serial tail.
#[test]
fn checkpoints_are_byte_identical_and_resume_across_shard_counts() {
    let machine = MachineSpec::test_machine();
    let spec = small_spec("shards-ckpt", 4, AccessPattern::SharedUniform);
    let mut config = SimConfig::for_machine(&machine, PolicyKind::CarrefourLp.initial_thp());
    config.attribution = true;
    let mk = || PolicyKind::CarrefourLp.make();

    let mut serial = config.clone();
    serial.shards = 1;
    let full = Simulation::run(&machine, &spec, &serial, mk().as_mut());
    let n = full.epochs.len() as u32;
    assert!(
        n >= 3,
        "workload too short to bracket a boundary: {n} epochs"
    );

    for epoch in [1, n / 2, n - 1] {
        let ckpt_serial =
            checkpoint_at(&machine, &spec, &serial, mk().as_mut(), epoch).expect("serial snapshot");
        for shards in SHARD_COUNTS {
            let mut c = config.clone();
            c.shards = shards;
            // Byte identity of the snapshot itself.
            let ckpt_sharded =
                checkpoint_at(&machine, &spec, &c, mk().as_mut(), epoch).expect("sharded snapshot");
            assert_eq!(
                ckpt_serial.to_bytes(),
                ckpt_sharded.to_bytes(),
                "snapshot bytes diverged at epoch {epoch}, shards={shards}"
            );
            // Serial snapshot → sharded tail.
            let resumed = resume(&machine, &spec, &c, mk().as_mut(), &ckpt_serial);
            assert_eq!(
                resumed, full,
                "sharded resume of serial snapshot diverged at epoch {epoch}, shards={shards}"
            );
            // Sharded snapshot → serial tail.
            let resumed = resume(&machine, &spec, &serial, mk().as_mut(), &ckpt_sharded);
            assert_eq!(
                resumed, full,
                "serial resume of sharded snapshot diverged at epoch {epoch}, shards={shards}"
            );
        }
    }
}

proptest! {
    /// Random workload shapes, seeds, policies, and **nonzero fault
    /// plans**, with the attribution ledger ON: bit-identical `SimResult`
    /// (ledger, robustness counters, per-epoch records) and trace digest
    /// at every shard count. Fault injection is the adversarial case for
    /// the shardability gate: vetoes and pins perturb boundary actions,
    /// and the gate must still only shard epochs whose rounds are
    /// fault-free.
    #[test]
    fn sharded_is_bit_identical_under_faults(
        mib in 2u64..5,
        seed in 0u64..=u64::MAX,
        fault_seed in 1u64..u64::MAX,
        rate in 0.05f64..0.5,
        pattern in [AccessPattern::PrivateSlices, AccessPattern::SharedUniform].as_slice(),
        kind in [
            PolicyKind::Linux4k,
            PolicyKind::LinuxThp,
            PolicyKind::CarrefourLp,
            PolicyKind::Mitosis,
            PolicyKind::NumaPte,
        ].as_slice(),
    ) {
        let machine = MachineSpec::test_machine();
        let spec = small_spec("shards-prop", mib, pattern);
        let mut config = SimConfig::for_machine(&machine, kind.initial_thp());
        config.seed = seed;
        config.attribution = true;
        config.faults = FaultConfig::uniform(fault_seed, rate);
        let r = assert_shard_equivalent(&machine, &spec, &config, || kind.make());
        prop_assert!(r.attribution.is_some(), "ledger must be on for this proptest");
    }
}
