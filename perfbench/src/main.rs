//! `perfbench`: the simulator's same-host benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process runs one workload (see `cells.rs` for the four). It clears
//! the environment knobs that would change how the simulator executes,
//! resolves every cell once untimed (the warm-up, which also yields the
//! reference results), then for `--seconds` seconds resolves the whole
//! cell set again and again, sampling the set-up of every cell's inputs
//! between repetitions. Every resolved result passes the correctness gate
//! in `gate.rs`. The end-to-end metrics (`--trace 0`):
//! * `sim_mops_per_cpu_s`: simulated ops of every cell resolved in the
//!   repetitions (cloned and forked cells in full) over the process CPU
//!   seconds the repetitions took;
//! * `wall_s`: wall time of the repetitions per resolution of the cell
//!   set. Both are totals over the whole window rather than medians or
//!   minima of repetitions: the host's speed drifts over seconds to
//!   minutes, and a total weighs every moment of the window alike where
//!   a median jumps with the majority of repetitions and a minimum with
//!   one quiet moment. The line before the result lists each unit's
//!   per-repetition wall and CPU seconds, to show where a run drifted;
//! * `setup_s`: median time to build every cell's inputs once;
//! * `peak_heap_mb`: peak live heap while measuring.
//!
//! `--trace 1` is a separate, traced run that prints the per-layer
//! metrics (`trace.rs`). The last line of standard output is the result
//! object; the line before it records the host, the source, every pinned
//! knob and the per-repetition figures.

mod alloc;
mod calib;
mod cells;
mod cpu;
mod gate;
mod stats;
mod trace;

use cells::{Resolved, Unit, Workload};
use gate::Gate;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

#[global_allocator]
static HEAP: alloc::Counting = alloc::Counting;

/// Environment variables that change how (not what) the simulator and
/// its runner execute. They are removed before any thread starts.
const PINNED_ENV: [&str; 5] = [
    "CARREFOUR_SHARDS",
    "CARREFOUR_NO_FASTPATH",
    "CARREFOUR_ATTRIB",
    "CARREFOUR_FORK_CACHE_MB",
    "CARREFOUR_JOBS",
];

/// Seconds of set-up sampling before the first timed repetition and
/// after each one.
const SETUP_BATCH_SECS: f64 = 0.1;
/// Set-up samples in the first batch, at least.
const SETUP_MIN_REPS: usize = 25;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value:?}: expected {what}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("a number of seconds in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Removes every [`PINNED_ENV`] variable; returns the ones that were set.
/// Runs first thing in `main`, while the process has one thread.
fn pin_env() -> Vec<String> {
    PINNED_ENV
        .iter()
        .filter(|k| std::env::var_os(k).is_some())
        .map(|k| {
            std::env::remove_var(k);
            k.to_string()
        })
        .collect()
}

/// A metric as printed: name, value, unit.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.to_string(),
            value,
            unit,
        }
    }
}

/// Minimal JSON string escaping.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite number as JSON (non-finite values become 0 with a warning:
/// a ratio over nothing counted).
pub fn json_num(name: &str, v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        eprintln!("perfbench: metric {name} is {v}; reporting 0");
        "0".to_string()
    }
}

/// A JSON list of numbers, four decimals each.
pub fn json_list(v: &[f64]) -> String {
    let items: Vec<String> = v.iter().map(|x| format!("{x:.4}")).collect();
    format!("[{}]", items.join(","))
}

/// Runs `f`, turning a panic into its message.
pub fn caught<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|e| {
        e.downcast_ref::<String>()
            .cloned()
            .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "non-string panic".into())
    })
}

/// Resolves one unit, turning a panic into an error message.
pub fn resolve_caught(unit: &Unit) -> Result<Resolved, String> {
    caught(|| unit.resolve())
}

/// The warm-up: resolves every unit once, untimed, and stores the
/// reference results. A unit whose cells run sharded is first resolved
/// at one shard; that run is the reference the sharded one must equal.
pub fn warm_up(w: &Workload, gate: &mut Gate) {
    for (i, unit) in w.units.iter().enumerate() {
        if unit.cells().iter().any(|c| c.shards > 1) {
            let reference = resolve_caught(&unit.at_shards(1));
            if gate.check(w, i, &reference) {
                let r = reference.expect("a passing check has results");
                gate.set_reference(i, &r.results);
            }
            let sharded = resolve_caught(unit);
            gate.check(w, i, &sharded);
        } else {
            let outcome = resolve_caught(unit);
            if gate.check(w, i, &outcome) {
                let r = outcome.expect("a passing check has results");
                gate.set_reference(i, &r.results);
            }
        }
    }
}

/// Set-up timings: every cell's inputs built once per sample. Samples
/// are taken in short batches spread over the measuring window, so their
/// median reflects the whole window rather than one moment of the host.
#[derive(Default)]
pub struct SetupSamples(Vec<f64>);

impl SetupSamples {
    /// Samples for at least `secs` seconds and `min_reps` repetitions.
    pub fn batch(&mut self, w: &Workload, secs: f64, min_reps: usize) {
        let t0 = Instant::now();
        let mut reps = 0;
        while reps < min_reps || t0.elapsed().as_secs_f64() < secs {
            let t = Instant::now();
            for c in w.cells() {
                c.set_up();
            }
            self.0.push(t.elapsed().as_secs_f64());
            reps += 1;
        }
    }
}

/// One timed resolution: of one unit, or summed over the whole cell set.
pub struct Rep {
    pub wall: f64,
    pub cpu: f64,
    pub ops: u64,
}

/// Resolves every unit once, timing each unit's wall and process CPU
/// time; results are checked after the clocks stop. Returns the set's
/// totals and the per-unit figures.
pub fn timed_rep(w: &Workload, gate: &mut Gate) -> (Rep, Vec<Rep>, Vec<Result<Resolved, String>>) {
    let mut units = Vec::with_capacity(w.units.len());
    let mut outcomes = Vec::with_capacity(w.units.len());
    for unit in &w.units {
        let t = Instant::now();
        let c = cpu::process_secs();
        let outcome = resolve_caught(unit);
        let cpu = cpu::process_secs() - c;
        let wall = t.elapsed().as_secs_f64();
        units.push(Rep { wall, cpu, ops: 0 });
        outcomes.push(outcome);
    }
    for (i, o) in outcomes.iter().enumerate() {
        gate.check(w, i, o);
        if let Ok(r) = o {
            units[i].ops = r.results.iter().map(|r| r.lifetime.total_ops).sum::<u64>();
        }
    }
    let total = Rep {
        wall: units.iter().map(|u| u.wall).sum(),
        cpu: units.iter().map(|u| u.cpu).sum(),
        ops: units.iter().map(|u| u.ops).sum(),
    };
    (total, units, outcomes)
}

/// Whether another repetition of typical length `rep_secs` still fits in
/// `budget` seconds after `elapsed`. At least one always runs.
pub fn another_fits(done: usize, elapsed: f64, rep_secs: &[f64], budget: f64) -> bool {
    done == 0 || elapsed + stats::median(rep_secs) <= budget
}

/// The untraced run: the end-to-end metrics.
fn run_untraced(
    w: &Workload,
    args: &Args,
    gate: &mut Gate,
    info: &mut Vec<(String, String)>,
) -> Vec<Metric> {
    let calib_before = calib::mem_ns();
    warm_up(w, gate);

    alloc::reset_peak();
    let mut setup = SetupSamples::default();
    let mut reps: Vec<Rep> = Vec::new();
    let mut unit_reps: Vec<Vec<Rep>> = Vec::new();
    let mut rounds: Vec<f64> = Vec::new();
    let mut families = Vec::new();
    let t0 = Instant::now();
    setup.batch(w, SETUP_BATCH_SECS, SETUP_MIN_REPS);
    while another_fits(
        reps.len(),
        t0.elapsed().as_secs_f64(),
        &rounds,
        args.seconds,
    ) {
        let round = Instant::now();
        let (rep, per_unit, outcomes) = timed_rep(w, gate);
        unit_reps.push(per_unit);
        if reps.is_empty() {
            for s in outcomes.iter().flatten().filter_map(|r| r.family) {
                families.push(format!(
                    "{{\"cells\": {}, \"forks\": {}, \"full_matches\": {}, \"scratch\": {}}}",
                    s.cells, s.forks, s.full_matches, s.scratch
                ));
            }
        }
        reps.push(rep);
        setup.batch(w, SETUP_BATCH_SECS, 1);
        rounds.push(round.elapsed().as_secs_f64());
    }
    let peak = alloc::peak_bytes();
    let calib_after = calib::mem_ns();

    let walls: Vec<f64> = reps.iter().map(|r| r.wall).collect();
    let mops: Vec<f64> = reps
        .iter()
        .map(|r| stats::mops_per_cpu_s(r.ops, r.cpu))
        .collect();
    info.push(("reps".into(), reps.len().to_string()));
    info.push(("families".into(), format!("[{}]", families.join(","))));
    info.push(("setup_reps".into(), setup.0.len().to_string()));
    info.push(("rep_wall_s".into(), json_list(&walls)));
    let units: Vec<String> = (0..w.units.len())
        .map(|u| {
            let wall: Vec<f64> = unit_reps.iter().map(|r| r[u].wall).collect();
            let cpu: Vec<f64> = unit_reps.iter().map(|r| r[u].cpu).collect();
            format!(
                "{{\"wall_s\": {}, \"cpu_s\": {}, \"ops\": {}}}",
                json_list(&wall),
                json_list(&cpu),
                unit_reps[0][u].ops
            )
        })
        .collect();
    info.push(("units".into(), format!("[{}]", units.join(","))));
    info.push(("rep_mops_per_cpu_s".into(), json_list(&mops)));
    info.push((
        "rep_wall_s_median".into(),
        format!("{:.4}", stats::median(&walls)),
    ));
    if let Some((p, v)) = stats::tail_percentile(&walls) {
        info.push((
            "wall_s_tail".into(),
            format!(
                "{{\"percentile\": {p:.2}, \"s\": {v:.4}, \"samples\": {}}}",
                walls.len()
            ),
        ));
    }
    info.push((
        "host.calib_mem_ns".into(),
        format!("[{calib_before:.3},{calib_after:.3}]"),
    ));
    vec![
        Metric::new(
            "sim_mops_per_cpu_s",
            stats::mops_per_cpu_s(
                reps.iter().map(|r| r.ops).sum(),
                reps.iter().map(|r| r.cpu).sum(),
            ),
            "Mops/cpu-s",
        ),
        Metric::new(
            "wall_s",
            walls.iter().sum::<f64>() / walls.len() as f64,
            "s",
        ),
        Metric::new("setup_s", stats::median(&setup.0), "s"),
        Metric::new("peak_heap_mb", peak as f64 / 1e6, "MB"),
    ]
}

/// The repository commit, read from `.git` when the checkout has one.
fn commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(id) = std::fs::read_to_string(format!(".git/{reference}")) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// FNV-1a over every Rust source file under `crates/` and `perfbench/src`
/// (paths sorted): identifies the code measured when there is no commit.
fn source_fnv() -> String {
    fn walk(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else if p.extension().is_some_and(|x| x == "rs") {
                out.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(std::path::Path::new("crates"), &mut files);
    walk(std::path::Path::new("perfbench/src"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        let bytes = std::fs::read(f).unwrap_or_default();
        for b in f.to_string_lossy().bytes().chain(bytes) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

fn main() {
    // Pin the environment before anything can start a thread.
    let cleared = pin_env();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                cells::NAMES.join("|")
            );
            std::process::exit(2);
        }
    };
    // Auto-sharded runs (the fork tree's) take lanes from this pool; an
    // empty pool keeps them at one shard.
    engine::lanes::configure(0);
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let lanes = 2.min(nproc) as u32;
    let Some(w) = cells::workload(&args.workload, args.seed, lanes) else {
        eprintln!(
            "perfbench: unknown workload {:?}; expected one of {}",
            args.workload,
            cells::NAMES.join(", ")
        );
        std::process::exit(2);
    };

    let mut gate = Gate::new(&w);
    let mut info: Vec<(String, String)> = vec![
        ("workload".into(), json_str(w.name)),
        ("seed".into(), args.seed.to_string()),
        ("seconds".into(), json_num("seconds", args.seconds)),
        ("trace".into(), args.trace.to_string()),
        ("nproc".into(), nproc.to_string()),
        ("commit".into(), json_str(&commit())),
        ("source_fnv".into(), json_str(&source_fnv())),
        ("shards".into(), w.max_shards().to_string()),
        ("lane_pool".into(), "0".into()),
        ("fastpath".into(), "true".into()),
        ("attribution".into(), args.trace.to_string()),
        (
            "fork_cache_mb".into(),
            carrefour_bench::forktree::DEFAULT_CACHE_MB.to_string(),
        ),
        (
            "cleared_env".into(),
            format!(
                "[{}]",
                cleared
                    .iter()
                    .map(|k| json_str(k))
                    .collect::<Vec<_>>()
                    .join(",")
            ),
        ),
    ];
    let metrics = if args.trace {
        trace::run(&w, args.seconds, args.seed, lanes, &mut gate, &mut info)
    } else {
        run_untraced(&w, &args, &mut gate, &mut info)
    };
    info.push((
        "failures".into(),
        format!(
            "[{}]",
            gate.failures
                .iter()
                .map(|f| json_str(f))
                .collect::<Vec<_>>()
                .join(",")
        ),
    ));

    let info_body: Vec<String> = info
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    println!("{{\"perfbench\": {{{}}}}}", info_body.join(", "));
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(&m.name, m.value),
                json_str(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        gate.failed == 0 && gate.attempted > 0,
        gate.attempted,
        gate.failed,
        body.join(", ")
    );
}
