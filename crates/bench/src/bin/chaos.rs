//! Chaos sweep: deterministic fault injection × policies.
//!
//! Sweeps the uniform *operational* fault rate (THP-allocation failure,
//! `-EBUSY` page pins, IBS sample loss) across the policy matrix and
//! reports each policy's slowdown relative to its own fault-free run.
//! Three properties are checked and printed as PASS/WARN lines:
//!
//! * **graceful degradation** — Carrefour-LP's slowdown grows with the
//!   fault rate but stays bounded, and it never falls behind default
//!   Linux-4K by more than the paper's overhead envelope (Section 4.2
//!   reports at most ~4 % policy overhead; the check allows 5 %);
//! * **monotonicity** — more faults never help;
//! * **the retry machinery is the reason** — the retry-free ablation
//!   (`carrefour-lp-noretry`) loses strictly more of its placement
//!   benefit at high fault rates than full Carrefour-LP.
//!
//! A separate mini-sweep then isolates sample *corruption* (node
//! misattribution, [`FaultRates::corruption`]): unlike operational
//! faults — which are visible, retryable, and degrade gracefully —
//! corrupted samples silently steer irreversible split+scatter
//! decisions, and even sub-percent rates cost real performance. The
//! section is reported as a finding, not a PASS/WARN gate.
//!
//! All cells go through the shared [`runner`]: the whole grid is
//! submitted up front, fans out across `--jobs` workers with live
//! progress, and comes back in deterministic submission order.
//!
//! `chaos --checkpoint` runs a different sweep: for every injected fault
//! class it snapshots the simulation at a sample of epoch boundaries
//! (faults fire in essentially every epoch under these plans) and asserts
//! that resuming each `ckpt-v1` snapshot reproduces the uninterrupted
//! result exactly, printing one PASS/FAIL verdict row per fault class and
//! exiting nonzero on any divergence.
//!
//! [`FaultRates::corruption`]: engine::FaultRates::corruption

use carrefour_bench::runner::{self, par_map, CellSpec, Progress, Workload};
use carrefour_bench::{save_json, Cell, PolicyKind};
use engine::{FaultConfig, Hooks, Run, SimConfig, SimResult, Simulation};
use numa_topology::MachineSpec;
use workloads::Benchmark;

/// Injected fault probabilities (0.0 first: each policy's own baseline).
const RATES: [f64; 5] = [0.0, 0.05, 0.1, 0.2, 0.4];

/// Sample-corruption (node misattribution) probabilities for the
/// sensitivity mini-sweep. Deliberately tiny: the finding is that even
/// these hurt.
const CORRUPTION_RATES: [f64; 3] = [0.005, 0.02, 0.05];

/// Paper overhead envelope: Carrefour-LP may cost this fraction over
/// default Linux before the run is flagged.
const ENVELOPE: f64 = 0.05;

/// Fault-plan RNG seed, fixed so the sweep is reproducible.
const FAULT_SEED: u64 = 20140619;

/// The sweep's policy matrix: short display name × policy kind.
const POLICIES: [(&str, PolicyKind); 4] = [
    ("linux-4k", PolicyKind::Linux4k),
    ("linux-thp", PolicyKind::LinuxThp),
    ("carrefour-lp", PolicyKind::CarrefourLp),
    ("carrefour-lp-noretry", PolicyKind::CarrefourLpNoRetry),
];

/// One grid cell: the policy's short name at an operational fault rate.
fn grid_spec(
    machine: &MachineSpec,
    bench: Benchmark,
    name: &str,
    kind: PolicyKind,
    rate: f64,
) -> CellSpec {
    CellSpec {
        machine: machine.clone(),
        workload: Workload::Bench(bench),
        kind,
        seed: None,
        faults: Some(FaultConfig::uniform(FAULT_SEED, rate)),
        label: Some(format!("{name}@{rate}")),
        lp_params: None,
        family: None,
    }
}

/// Runtime of (policy, rate) from the result grid.
fn runtime(results: &[(String, f64, SimResult)], policy: &str, rate: f64) -> u64 {
    results
        .iter()
        .find(|(p, r, _)| p == policy && *r == rate)
        .map(|(_, _, res)| res.runtime_cycles)
        .unwrap_or_else(|| panic!("missing run {policy}@{rate}"))
}

/// One `--checkpoint` verification case: a fault class at one rate.
struct CkptCase {
    bench: Benchmark,
    label: String,
    faults: FaultConfig,
}

/// The verdict of one case: which epochs were checked and which diverged.
struct CkptVerdict {
    n_epochs: u32,
    checked: Vec<u32>,
    diverged: Vec<u32>,
}

/// Runs one fault-injected cell uninterrupted, then snapshots at a
/// deterministic sample of epoch boundaries (both edges, the early epochs
/// where THP-allocation fallbacks cluster, and the middle) and asserts
/// that resuming each checkpoint reproduces the uninterrupted
/// [`SimResult`] exactly. Under the uniform and corruption fault plans
/// faults fire in essentially every epoch, so the sampled boundaries are
/// injected-fault epochs; the precisely-aimed adversarial epochs (the
/// exact veto round, mid-backoff, a tripped breaker) are covered by the
/// `checkpoint_resume` proptests in `crates/bench/tests/`.
fn verify_case(machine: &MachineSpec, case: &CkptCase) -> CkptVerdict {
    let kind = PolicyKind::CarrefourLp;
    let mut config = SimConfig::for_machine(machine, kind.initial_thp());
    config.attribution = carrefour_bench::attrib_enabled();
    config.faults = case.faults;
    let spec = case.bench.spec(machine);
    let mut policy = kind.make();
    let full = Simulation::run(machine, &spec, &config, policy.as_mut());
    let n = full.epochs.len() as u32;

    let mut checked: Vec<u32> = vec![0, 1, 2, n / 2, n.saturating_sub(1), n];
    checked.sort_unstable();
    checked.dedup();
    checked.retain(|&e| e <= n);
    let mut diverged = Vec::new();
    for &epoch in &checked {
        let mut p1 = kind.make();
        let mut prefix = Run::start(machine, &spec, &config, p1.as_mut(), Hooks::default());
        if !prefix.step_to(epoch) {
            diverged.push(epoch);
            continue;
        }
        let ckpt = prefix.checkpoint();
        let mut p2 = kind.make();
        let hooks = Hooks::default();
        let resumed =
            Run::resume(machine, &spec, &config, p2.as_mut(), hooks, &ckpt, true).finish();
        if resumed != full {
            diverged.push(epoch);
        }
    }
    CkptVerdict {
        n_epochs: n,
        checked,
        diverged,
    }
}

/// `chaos --checkpoint`: resume-equivalence verification under every
/// injected fault class, one verdict row per (benchmark, class, rate).
/// Exits nonzero if any resume diverges.
fn checkpoint_mode() {
    let machine = MachineSpec::machine_a();
    let mut cases: Vec<CkptCase> = Vec::new();
    // Every fault class on UA.B: each operational rate plus each
    // corruption rate. CG.D spot-checks both classes at one rate so a
    // second workload shape is covered without doubling the sweep.
    for &r in RATES.iter().filter(|&&r| r > 0.0) {
        cases.push(CkptCase {
            bench: Benchmark::UaB,
            label: format!("operational@{r}"),
            faults: FaultConfig::uniform(FAULT_SEED, r),
        });
    }
    for &r in &CORRUPTION_RATES {
        cases.push(CkptCase {
            bench: Benchmark::UaB,
            label: format!("corruption@{r}"),
            faults: FaultConfig::corruption(FAULT_SEED, r),
        });
    }
    cases.push(CkptCase {
        bench: Benchmark::CgD,
        label: "operational@0.2".to_string(),
        faults: FaultConfig::uniform(FAULT_SEED, 0.2),
    });
    cases.push(CkptCase {
        bench: Benchmark::CgD,
        label: "corruption@0.02".to_string(),
        faults: FaultConfig::corruption(FAULT_SEED, 0.02),
    });

    println!(
        "== Checkpoint/resume equivalence under injected faults ({}) ==",
        machine.name()
    );
    let jobs = runner::default_jobs();
    let verdicts = par_map(jobs, cases.len(), |i| verify_case(&machine, &cases[i]));

    println!(
        "{:<8} {:<18} {:>7} {:>16}  verdict",
        "bench", "fault class", "epochs", "checked"
    );
    let mut failures = 0usize;
    for (case, v) in cases.iter().zip(&verdicts) {
        let verdict = if v.diverged.is_empty() {
            "PASS resume-equivalent".to_string()
        } else {
            failures += 1;
            format!("FAIL diverged at epochs {:?}", v.diverged)
        };
        println!(
            "{:<8} {:<18} {:>7} {:>16}  {}",
            case.bench.name(),
            case.label,
            v.n_epochs,
            format!("{} boundaries", v.checked.len()),
            verdict
        );
    }
    if failures > 0 {
        eprintln!("chaos --checkpoint: {failures} fault class(es) are NOT resume-equivalent");
        std::process::exit(1);
    }
    println!("all {} fault classes resume-equivalent", cases.len());
}

fn main() {
    if std::env::args().any(|a| a == "--checkpoint") {
        checkpoint_mode();
        return;
    }
    let machine = MachineSpec::machine_a();
    let benches = [Benchmark::UaB, Benchmark::CgD];
    let jobs = runner::default_jobs();
    let mut all_cells: Vec<Cell> = Vec::new();
    let mut warnings = 0u32;

    // Submit the full grid — operational sweep plus corruption mini-sweep
    // for every benchmark — as one batch so the pool stays saturated.
    let mut specs: Vec<CellSpec> = Vec::new();
    for &bench in &benches {
        for &(name, kind) in &POLICIES {
            for &r in &RATES {
                specs.push(grid_spec(&machine, bench, name, kind, r));
            }
        }
        for &r in &CORRUPTION_RATES {
            specs.push(CellSpec {
                machine: machine.clone(),
                workload: Workload::Bench(bench),
                kind: PolicyKind::CarrefourLp,
                seed: None,
                faults: Some(FaultConfig::corruption(FAULT_SEED, r)),
                label: Some(format!("carrefour-lp@corruption-{r}")),
                lp_params: None,
                family: None,
            });
        }
    }
    let progress = Progress::new("chaos", specs.len());
    let cells = runner::run_cells(&specs, jobs, &progress);
    progress.finish();

    let grid_len = POLICIES.len() * RATES.len();
    let per_bench = grid_len + CORRUPTION_RATES.len();
    for (bi, &bench) in benches.iter().enumerate() {
        let block = &cells[bi * per_bench..(bi + 1) * per_bench];
        println!(
            "== Chaos sweep ({}, {}) : slowdown vs own fault-free run ==",
            machine.name(),
            bench.name()
        );

        let mut results: Vec<(String, f64, SimResult)> = Vec::with_capacity(grid_len);
        for (pi, &(name, _)) in POLICIES.iter().enumerate() {
            for (ri, &r) in RATES.iter().enumerate() {
                let cell = &block[pi * RATES.len() + ri];
                results.push((name.to_string(), r, cell.result.clone()));
            }
        }

        print!("{:<22}", "policy");
        for &r in &RATES {
            print!(" {:>9}", format!("rate {r}"));
        }
        println!();
        for &(p, _) in &POLICIES {
            let base = runtime(&results, p, 0.0) as f64;
            print!("{p:<22}");
            for &r in &RATES {
                let slow = runtime(&results, p, r) as f64 / base;
                print!(" {slow:>9.3}");
            }
            println!();
        }

        // Robustness accounting of the highest-rate Carrefour-LP run.
        let top = RATES[RATES.len() - 1];
        let worst = &results
            .iter()
            .find(|(p, r, _)| p == "carrefour-lp" && *r == top)
            .unwrap_or_else(|| panic!("missing carrefour-lp@{top} in the results grid"))
            .2;
        let rb = &worst.robustness;
        println!(
            "carrefour-lp @ rate {top}: {} failed migrations, {} failed splits, \
             {} fallback allocs, {} busy rejections, {} dropped samples, \
             {} misattributed, {} retries",
            rb.failed_migrations,
            rb.failed_splits,
            rb.fallback_allocs,
            rb.busy_rejections,
            rb.dropped_samples,
            rb.misattributed_samples,
            rb.retries,
        );

        // Cross-policy view: everything relative to fault-free Linux-4K
        // (which is fault-immune by construction — it allocates no huge
        // pages, issues no actions, and reads no samples).
        let linux4k_base = runtime(&results, "linux-4k", 0.0) as f64;
        print!("{:<22}", "vs linux-4k");
        for &r in &RATES {
            let lp = runtime(&results, "carrefour-lp", r) as f64;
            print!(" {:>9.3}", lp / linux4k_base);
        }
        println!();

        // Property 1: never harmful — at every rate, Carrefour-LP stays
        // within the overhead envelope of the *worse* of the two
        // do-nothing baselines at the same rate. Degrading to baseline
        // performance under heavy faults is graceful; falling beyond both
        // static configurations would mean the policy itself is the
        // problem (the paper's Section 4.2 overhead concern).
        for &r in &RATES {
            let lp = runtime(&results, "carrefour-lp", r) as f64;
            let floor =
                runtime(&results, "linux-4k", r).max(runtime(&results, "linux-thp", r)) as f64;
            let ratio = lp / floor;
            if ratio <= 1.0 + ENVELOPE {
                println!("PASS bounded @ rate {r}: lp/worst-baseline = {ratio:.3}");
            } else {
                warnings += 1;
                println!("WARN bounded @ rate {r}: lp/worst-baseline = {ratio:.3}");
            }
        }

        // Property 2: monotonic-ish — Carrefour-LP's slowdown never drops
        // as the rate rises (beyond noise): more faults can only cost.
        let base = runtime(&results, "carrefour-lp", 0.0) as f64;
        let slowdowns: Vec<f64> = RATES
            .iter()
            .map(|&r| runtime(&results, "carrefour-lp", r) as f64 / base)
            .collect();
        let tolerance = 0.02;
        let monotonic = slowdowns.windows(2).all(|w| w[1] >= w[0] - tolerance);
        if monotonic {
            println!("PASS monotonic: slowdowns {slowdowns:?}");
        } else {
            warnings += 1;
            println!("WARN monotonic: slowdowns {slowdowns:?}");
        }

        // Property 3: the retry-free ablation loses more of the placement
        // benefit at the highest fault rate than full Carrefour-LP does
        // (within a small tolerance: on benchmarks whose lost actions were
        // marginal, retrying them is allowed to be cycle-neutral).
        let lp_top = runtime(&results, "carrefour-lp", top) as f64;
        let noretry_top = runtime(&results, "carrefour-lp-noretry", top) as f64;
        if noretry_top >= lp_top * 0.97 {
            println!(
                "PASS retries pay off @ rate {top}: noretry/lp = {:.3}",
                noretry_top / lp_top
            );
        } else {
            warnings += 1;
            println!(
                "WARN retries pay off @ rate {top}: noretry/lp = {:.3}",
                noretry_top / lp_top
            );
        }

        // Sample-corruption sensitivity: misattribution only, everything
        // else fault-free. No PASS/WARN gate — the point *is* the
        // fragility: a corrupted sample on a genuinely private hot page
        // makes it look shared, and the resulting split+scatter is
        // irreversible, so even sub-percent corruption costs performance
        // that no amount of retrying wins back.
        let lp_base = runtime(&results, "carrefour-lp", 0.0) as f64;
        for (ci, &r) in CORRUPTION_RATES.iter().enumerate() {
            let res = &block[grid_len + ci].result;
            println!(
                "FINDING corruption @ rate {r}: slowdown {:.3} \
                 ({} misattributed samples)",
                res.runtime_cycles as f64 / lp_base,
                res.robustness.misattributed_samples,
            );
        }

        all_cells.extend(block.iter().cloned());
        println!();
    }

    // The JSON rows carry the full RobustnessStats per run.
    save_json("chaos_machine-a", &all_cells);
    println!(
        "{} runs written to results/chaos_machine-a.json ({} warnings)",
        all_cells.len(),
        warnings
    );
}
