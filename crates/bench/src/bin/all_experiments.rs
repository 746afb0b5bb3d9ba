//! Runs every figure/table experiment in one process on the shared runner.
//!
//! All experiments' cells are collected up front, **deduplicated** across
//! experiments (many figures share their Linux-4K baselines; the simulator
//! is deterministic, so one run serves them all), executed on the worker
//! pool (`--jobs N` / `CARREFOUR_JOBS` / host cores), and then rendered in
//! the traditional per-experiment order. Per-cell and total wall-clock go
//! to `results/BENCH_runner.json` — the repo's performance trajectory file
//! (schema in DESIGN.md §10).

use carrefour_bench::report::{self, Delta, RunnerReport};
use carrefour_bench::runner::{self, CellOutcome, Progress, TimedCell};
use carrefour_bench::{attrib, experiments, journal, logx};
use std::collections::HashMap;

/// The journal suite name: one journal serves the whole binary, whatever
/// `--only` subset is running (cell keys are globally unique).
const SUITE: &str = "all";

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let resume = args.iter().any(|a| a == "--resume");
    // `--only a,b,c` runs just the named experiments (the CI
    // kill-and-resume smoke keeps its interrupted suite small this way).
    let only: Option<Vec<String>> = flag_value(&args, "--only").map(|v| {
        v.split(',')
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .collect()
    });
    let compare = flag_value(&args, "--compare");
    let attrib_on = std::env::args().any(|a| a == "--attrib") || carrefour_bench::attrib_enabled();
    if attrib_on {
        // The runner reads this per cell; setting it here lets `--attrib`
        // and `CARREFOUR_ATTRIB=1` behave identically.
        std::env::set_var("CARREFOUR_ATTRIB", "1");
    }
    let jobs = runner::default_jobs();
    let host_cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let mut exps = experiments::all();
    if let Some(names) = &only {
        let known: Vec<&str> = exps.iter().map(|e| e.name).collect();
        for n in names {
            assert!(
                known.contains(&n.as_str()),
                "--only: unknown experiment {n:?}; known: {known:?}"
            );
        }
        exps.retain(|e| names.iter().any(|n| n == e.name));
    }

    // Dedup identical cells across experiments: equal keys mean equal
    // simulation inputs, and determinism means equal results.
    let mut unique = Vec::new();
    let mut key_to_slot: HashMap<String, usize> = HashMap::new();
    let mut exp_slots: Vec<Vec<usize>> = Vec::with_capacity(exps.len());
    for e in &exps {
        let mut slots = Vec::with_capacity(e.specs.len());
        for spec in &e.specs {
            let slot = *key_to_slot.entry(spec.key()).or_insert_with(|| {
                unique.push(spec.clone());
                unique.len() - 1
            });
            slots.push(slot);
        }
        exp_slots.push(slots);
    }
    let submitted: usize = exps.iter().map(|e| e.specs.len()).sum();
    logx::info(&format!(
        "[all] {} experiments, {} cells ({} unique), {} jobs on {} cores",
        exps.len(),
        submitted,
        unique.len(),
        jobs,
        host_cores
    ));

    // The crash journal. A fresh run starts it over; `--resume` keeps it
    // and pre-fills every cell the previous (killed or failed) run already
    // completed — determinism makes the spliced results indistinguishable
    // from an uninterrupted run.
    if !resume {
        let _ = std::fs::remove_file(journal::journal_path(SUITE));
    }
    let jnl = match journal::Journal::open_append(SUITE) {
        Ok(j) => Some(j),
        Err(e) => {
            logx::warn(&format!(
                "running without a crash journal: cannot open {}: {e}",
                journal::journal_path(SUITE).display()
            ));
            None
        }
    };
    let keys: Vec<String> = unique.iter().map(|s| s.key()).collect();
    let (mut journaled, stale) = if resume {
        journal::load_counted(SUITE)
    } else {
        (HashMap::new(), 0)
    };
    let mut filled: Vec<Option<TimedCell>> = keys
        .iter()
        .enumerate()
        .map(|(i, k)| {
            journaled.remove(k).map(|j| TimedCell {
                cell: j.cell,
                wall_secs: j.wall_secs,
                // The journal stores results, not scheduler metadata;
                // the estimate is a pure function of the spec, so
                // recomputing it here keeps restored rows honest. Spans
                // are honest zeros: the work happened in a dead process.
                estimated_ops: unique[i].estimated_ops(),
                spans: runner::CellSpans::journal_restored(),
            })
        })
        .collect();
    if resume {
        let restored = filled.iter().filter(|s| s.is_some()).count();
        logx::info(&format!(
            "[all] resume: {restored} of {} cells restored from {}",
            unique.len(),
            journal::journal_path(SUITE).display()
        ));
        if stale > 0 {
            // Later-line-wins fired: an interrupted append or a retried
            // cell left earlier lines for the same key behind.
            logx::info(&format!(
                "[all] resume: skipped {stale} stale duplicate journal line(s) (later line wins)"
            ));
        }
    }

    let todo: Vec<usize> = (0..unique.len()).filter(|&i| filled[i].is_none()).collect();
    let todo_specs: Vec<runner::CellSpec> = todo.iter().map(|&i| unique[i].clone()).collect();
    let progress = Progress::new("all", todo_specs.len());
    let outcomes = runner::run_cells_outcomes(&todo_specs, jobs, &progress, |i, t| {
        if let Some(j) = &jnl {
            j.record_ok(&todo_specs[i].key(), t);
        }
    });
    let total_wall_secs = progress.finish();

    let mut failed: Vec<(String, String)> = Vec::new();
    for (oi, outcome) in outcomes.into_iter().enumerate() {
        let slot = todo[oi];
        match outcome {
            CellOutcome::Ok(t) => filled[slot] = Some(t),
            CellOutcome::TimedOut { secs, result } => {
                logx::warn(&format!(
                    "[all] cell {} finished past the soft deadline ({secs:.1}s)",
                    unique[slot].describe_with_family()
                ));
                filled[slot] = Some(result);
            }
            CellOutcome::Panicked { msg } => {
                if let Some(j) = &jnl {
                    j.record_panicked(&keys[slot], &msg);
                }
                failed.push((unique[slot].describe(), msg));
            }
        }
    }

    for (e, slots) in exps.iter().zip(&exp_slots) {
        println!("################ {} ################", e.name);
        let cells: Option<Vec<_>> = slots
            .iter()
            .map(|&i| filled[i].as_ref().map(|t| t.cell.clone()))
            .collect();
        match cells {
            Some(cells) => (e.render)(&cells),
            None => {
                let n = slots.iter().filter(|&&i| filled[i].is_none()).count();
                println!("SKIPPED: {n} cell(s) failed; see stderr.");
            }
        }
    }

    if !failed.is_empty() {
        logx::warn(&format!("[all] {} cell(s) FAILED:", failed.len()));
        for (what, msg) in &failed {
            logx::warn(&format!("[all]   {what}: {msg}"));
        }
        logx::warn("[all] rerun with --resume to retry only the failed cells");
        std::process::exit(1);
    }

    let timed: Vec<TimedCell> = filled
        .into_iter()
        .map(|s| s.expect("no failures, so every slot is filled"))
        .collect();

    let runner_file =
        RunnerReport::from_run(&exps, &exp_slots, &timed, jobs, host_cores, total_wall_secs);
    match std::fs::create_dir_all("results")
        .and_then(|()| std::fs::write("results/BENCH_runner.json", runner_file.to_json()))
    {
        Ok(()) => logx::info("[all] wrote results/BENCH_runner.json"),
        Err(e) => logx::warn(&format!("could not write results/BENCH_runner.json: {e}")),
    }

    if attrib_on {
        // Bucket totals of every unique cell, one attrib-v1 file. The
        // ledger is checked for conservation per cell: a runner that
        // shipped a non-conserving breakdown would poison every
        // downstream diagnosis.
        let cells: Vec<_> = timed.iter().map(|t| t.cell.clone()).collect();
        for c in &cells {
            let ledger = c.result.attribution.as_ref().unwrap_or_else(|| {
                panic!(
                    "--attrib was on but {}/{} has no ledger \
                     (a journal written without --attrib cannot resume an --attrib run)",
                    c.benchmark, c.policy
                )
            });
            assert!(
                ledger.conserves(c.result.runtime_cycles),
                "{}/{}: attribution does not conserve",
                c.benchmark,
                c.policy
            );
        }
        match std::fs::create_dir_all("results")
            .and_then(|()| std::fs::write("results/ATTRIB_all.json", attrib::baseline_json(&cells)))
        {
            Ok(()) => logx::info(&format!(
                "[all] wrote results/ATTRIB_all.json ({} cells)",
                cells.len()
            )),
            Err(e) => logx::warn(&format!("could not write results/ATTRIB_all.json: {e}")),
        }
    }

    if let Some(path) = compare {
        compare_against_baseline(&path, &runner_file);
    }
}

/// The value of `--flag <v>` / `--flag=<v>`, if given.
fn flag_value(args: &[String], flag: &str) -> Option<String> {
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == flag {
            return it.next().cloned();
        }
        if let Some(v) = a.strip_prefix(flag).and_then(|r| r.strip_prefix('=')) {
            return Some(v.to_string());
        }
    }
    None
}

/// Compares this run's per-experiment wall-clock against a committed
/// baseline (`results/BENCH_baseline.json`, any `bench-runner-v*`
/// schema) and prints a speedup/regression table to stderr.
///
/// Regressions ([`Delta::regressed`]) are reported as warnings (GitHub
/// `::warning::` annotations in CI) but never change the exit code:
/// wall-clock on shared runners is noisy, and a hard gate on it would
/// flake.
fn compare_against_baseline(path: &str, now: &RunnerReport) {
    let Some(base) = std::fs::read_to_string(path)
        .ok()
        .and_then(|text| report::parse_runner_json(&text))
    else {
        logx::info(&format!(
            "[all] --compare: cannot read {path}; skipping comparison"
        ));
        return;
    };
    logx::info(&format!("[all] comparison against {path}:"));
    let mut regressions = 0usize;
    for d in report::experiment_deltas(now, &base) {
        regressions += usize::from(d.regressed());
        let note = if d.regressed() {
            "  <-- REGRESSION"
        } else {
            ""
        };
        logx::info(&format!(
            "[all]   {:<12} {:>8.3}s -> {:>8.3}s  ({:.2}x){note}",
            d.name,
            d.before,
            d.now,
            d.ratio()
        ));
    }
    if let Some(d) = Delta::new("TOTAL", base.total_wall_secs, now.total_wall_secs) {
        regressions += usize::from(d.regressed());
        logx::info(&format!(
            "[all]   {:<12} {:>8.3}s -> {:>8.3}s  ({:.2}x)",
            d.name,
            d.before,
            d.now,
            d.ratio()
        ));
    }
    if regressions > 0 {
        println!(
            "::warning::all_experiments is >25% slower than {path} in {regressions} row(s); \
             see the comparison table in the job log"
        );
    }
}
