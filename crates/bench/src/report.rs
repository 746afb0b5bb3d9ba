//! The self-contained HTML suite report (`report` binary).
//!
//! Assembles everything the flight recorder and the runner leave behind —
//! per-epoch metric time-series from [`engine::recorder`], span profiling
//! from `results/BENCH_runner.json`, the attribution
//! file, the crash journal, and the committed baseline — into **one**
//! HTML file with no external assets: styles are inline, charts are
//! hand-rolled inline SVG (the build is dependency-free, DESIGN.md §16).
//!
//! The report's time-series come from a fresh recorded run of the eleven
//! golden cells ([`crate::golden::GOLDEN_CELLS`]): the simulator is
//! deterministic, so re-running them here costs seconds and guarantees
//! the charts describe exactly the commit being reported on, not a stale
//! results file. Each cell's full series is also written out as
//! `results/metrics_<stem>.jsonl` (schema `metrics-v1`) for ad-hoc
//! grep/jq analysis next to the golden trace digests.
//!
//! The span section carries a self-check: per worker, busy (simulate +
//! merge) plus idle must re-compose the suite wall-clock to within 5 % —
//! the acceptance bound for the runner's span accounting. A failing
//! check renders loudly in the report and warns on stderr.
//!
//! This module also owns the `BENCH_runner.json` format ([`RunnerReport`],
//! schema [`RUNNER_SCHEMA`]) and the one regression rule ([`Delta`]) that
//! both the report and `all_experiments --compare` apply.

use crate::experiments::Experiment;
use crate::golden::GOLDEN_CELLS;
use crate::runner::TimedCell;
use codec::esc;
use codec::json::{bool_field, f64_field, str_field, u64_field};
use engine::{
    Hooks, JsonlMetricsRecorder, MetricsRow, Run, SimConfig, TeeMetricsRecorder, VecMetricsRecorder,
};
use numa_topology::MachineSpec;
use std::path::Path;

/// One golden cell's recorded time-series.
pub struct CellSeries {
    /// Filename stem (`ua_b__carrefour_lp`), shared with the goldens.
    pub stem: String,
    /// Human title ("ua.B / carrefour-lp").
    pub title: String,
    /// One row per epoch boundary, in epoch order.
    pub rows: Vec<MetricsRow>,
    /// The run's total wall cycles (the paper's runtime axis).
    pub runtime_cycles: u64,
}

/// Runs every golden cell with the metrics recorder on (attribution
/// enabled so the per-epoch ledger deltas are populated) and writes each
/// series to `<dir>/metrics_<stem>.jsonl`. Returns the in-memory series
/// in [`GOLDEN_CELLS`] order. File-write failures warn and keep going:
/// the HTML report can still be built from memory.
pub fn record_golden_cells(dir: &Path) -> Vec<CellSeries> {
    if let Err(e) = std::fs::create_dir_all(dir) {
        crate::logx::warn(&format!("could not create {}: {e}", dir.display()));
    }
    let machine = MachineSpec::machine_a();
    let jobs = crate::runner::resolve_jobs(None);
    crate::runner::par_map(jobs, GOLDEN_CELLS.len(), |i| {
        let cell = GOLDEN_CELLS[i];
        let mut config = SimConfig::for_machine(&machine, cell.kind.initial_thp());
        // Attribution is purely observational (DESIGN.md §11), so turning
        // it on here cannot change the run the charts describe.
        config.attribution = true;
        let spec = cell.bench.spec(&machine);
        let mut policy = cell.kind.make();
        let mut vec_rec = VecMetricsRecorder::new();
        let mut jsonl = JsonlMetricsRecorder::new(Vec::new());
        let result = {
            let mut tee = TeeMetricsRecorder::new(&mut vec_rec, &mut jsonl);
            let hooks = Hooks {
                trace: None,
                observer: Some(&mut tee),
            };
            Run::start(&machine, &spec, &config, policy.as_mut(), hooks).finish()
        };
        let stem = cell.stem();
        if let Some(e) = jsonl.error() {
            crate::logx::warn(&format!("metrics serialization failed for {stem}: {e}"));
        }
        let path = dir.join(format!("metrics_{stem}.jsonl"));
        if let Err(e) = std::fs::write(&path, jsonl.into_inner()) {
            crate::logx::warn(&format!("could not write {}: {e}", path.display()));
        }
        CellSeries {
            stem,
            title: format!("{} / {}", cell.bench.name(), cell.kind.label()),
            rows: vec_rec.rows,
            runtime_cycles: result.runtime_cycles,
        }
    })
}

/// The `BENCH_runner.json` schema tag this module writes. The parser
/// reads every `bench-runner-v*` file; v6 dropped v4/v5's always-zero
/// `epochs_reused` and empty `families` (DESIGN.md §10).
pub const RUNNER_SCHEMA: &str = "bench-runner-v6";

/// A `BENCH_runner.json` file: the suite's per-experiment and per-cell
/// wall-clock plus the v5 span rollup. [`RunnerReport::from_run`] builds
/// it, [`RunnerReport::to_json`] writes it and [`parse_runner_json`]
/// reads it back; no other code knows the format.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunnerReport {
    /// Schema tag ([`RUNNER_SCHEMA`] when written by this build).
    pub schema: String,
    /// `CARREFOUR_SHARDS` at run time (`auto` when unset).
    pub shards: String,
    /// Worker threads.
    pub jobs: usize,
    /// Host cores the run saw.
    pub host_cores: usize,
    /// Suite wall-clock seconds.
    pub total_wall_secs: f64,
    /// Epochs simulated across every unique cell.
    pub epochs_simulated: u64,
    /// Span totals over the cells this process ran.
    pub spans: SpanRollup,
    /// One row per experiment, in run order.
    pub experiments: Vec<RunnerExperimentRow>,
    /// One row per unique cell.
    pub cells: Vec<RunnerCellRow>,
}

/// Span totals over a suite's live (not journal-restored) cells.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SpanRollup {
    /// Cells run by this process.
    pub live_cells: usize,
    /// Summed queue wait.
    pub queue_wait_total_secs: f64,
    /// Summed simulate time.
    pub simulate_total_secs: f64,
    /// Summed merge time.
    pub merge_total_secs: f64,
    /// Distinct workers that ran a cell.
    pub workers_used: usize,
    /// Fewest free shard lanes seen at any cell start or finish.
    pub lanes_free_min: usize,
    /// Most free shard lanes seen at any cell start or finish.
    pub lanes_free_max: usize,
}

/// One experiment row of a `BENCH_runner.json` file.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunnerExperimentRow {
    /// Experiment name (`fig1`, `figPT`, ...).
    pub name: String,
    /// Cells the experiment submitted.
    pub cells: usize,
    /// Of those, cells an earlier experiment owns (deduped).
    pub reused_cells: usize,
    /// Seconds of the unique cells this experiment owns.
    pub wall_secs: f64,
}

/// One per-cell row of a `BENCH_runner.json` file. Span fields are zero
/// when absent (a pre-v5 baseline parses with empty spans).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunnerCellRow {
    /// Machine name.
    pub machine: String,
    /// Benchmark label.
    pub benchmark: String,
    /// Policy label.
    pub policy: String,
    /// Simulate seconds (the span's simulate phase).
    pub wall_secs: f64,
    /// The scheduler's a-priori cost estimate.
    pub estimated_ops: u64,
    /// Operations the cell actually simulated.
    pub actual_ops: u64,
    /// Seconds between suite start and worker pickup.
    pub queue_wait_secs: f64,
    /// Seconds in the post-simulate merge/journal/progress step.
    pub merge_secs: f64,
    /// Worker lane (first-pickup numbering).
    pub worker: usize,
    /// Free shard lanes when the cell started.
    pub lanes_free_start: usize,
    /// True when the row was restored from the crash journal.
    pub from_journal: bool,
}

impl RunnerReport {
    /// The report of a finished suite. `exp_slots[i]` lists the indices
    /// into `timed` of experiment `i`'s cells; each unique cell's seconds
    /// go to the first experiment that submitted it, so per-experiment
    /// seconds sum to the cell total.
    pub fn from_run(
        exps: &[Experiment],
        exp_slots: &[Vec<usize>],
        timed: &[TimedCell],
        jobs: usize,
        host_cores: usize,
        total_wall_secs: f64,
    ) -> RunnerReport {
        // Span sums cover only cells run by *this* process: journal-
        // restored rows carry zero spans, so a resumed suite's rollup
        // stays honest about where its own wall-clock went.
        let live: Vec<&TimedCell> = timed.iter().filter(|t| !t.spans.from_journal).collect();
        let lanes_free = live
            .iter()
            .flat_map(|t| [t.spans.lanes_free_start, t.spans.lanes_free_done]);
        let spans = SpanRollup {
            live_cells: live.len(),
            queue_wait_total_secs: live.iter().map(|t| t.spans.queue_wait_secs).sum(),
            simulate_total_secs: live.iter().map(|t| t.spans.simulate_secs).sum(),
            merge_total_secs: live.iter().map(|t| t.spans.merge_secs).sum(),
            workers_used: live
                .iter()
                .map(|t| t.spans.worker)
                .collect::<std::collections::HashSet<_>>()
                .len(),
            lanes_free_min: lanes_free.clone().min().unwrap_or(0),
            lanes_free_max: lanes_free.max().unwrap_or(0),
        };
        let owner = owners(exp_slots, timed.len());
        let experiments = exps
            .iter()
            .zip(exp_slots)
            .enumerate()
            .map(|(i, (e, slots))| RunnerExperimentRow {
                name: e.name.to_string(),
                cells: slots.len(),
                reused_cells: slots.iter().filter(|&&s| owner[s] != i).count(),
                wall_secs: owned_secs(&owner, timed, i),
            })
            .collect();
        let cells = timed
            .iter()
            .map(|t| RunnerCellRow {
                machine: t.cell.machine.clone(),
                benchmark: t.cell.benchmark.clone(),
                policy: t.cell.policy.clone(),
                wall_secs: t.wall_secs,
                estimated_ops: t.estimated_ops,
                actual_ops: t.cell.result.lifetime.total_ops,
                queue_wait_secs: t.spans.queue_wait_secs,
                merge_secs: t.spans.merge_secs,
                worker: t.spans.worker,
                lanes_free_start: t.spans.lanes_free_start,
                from_journal: t.spans.from_journal,
            })
            .collect();
        RunnerReport {
            schema: RUNNER_SCHEMA.to_string(),
            shards: std::env::var("CARREFOUR_SHARDS").unwrap_or_else(|_| "auto".into()),
            jobs,
            host_cores,
            total_wall_secs,
            epochs_simulated: timed
                .iter()
                .map(|t| t.cell.result.epochs.len() as u64)
                .sum(),
            spans,
            experiments,
            cells,
        }
    }

    /// The file text: one field or row per line, seconds to the
    /// millisecond (schema in DESIGN.md §10 and §16).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"schema\": \"{}\",\n", esc(&self.schema)));
        out.push_str(&format!("  \"shards\": \"{}\",\n", esc(&self.shards)));
        out.push_str(&format!("  \"jobs\": {},\n", self.jobs));
        out.push_str(&format!("  \"host_cores\": {},\n", self.host_cores));
        out.push_str(&format!(
            "  \"total_wall_secs\": {:.3},\n",
            self.total_wall_secs
        ));
        out.push_str(&format!("  \"unique_cells\": {},\n", self.cells.len()));
        let submitted: usize = self.experiments.iter().map(|e| e.cells).sum();
        out.push_str(&format!("  \"submitted_cells\": {submitted},\n"));
        out.push_str(&format!(
            "  \"epochs_simulated\": {},\n",
            self.epochs_simulated
        ));
        let s = &self.spans;
        out.push_str(&format!(
            "  \"spans\": {{\"live_cells\": {}, \"queue_wait_total_secs\": {:.3}, \
             \"simulate_total_secs\": {:.3}, \"merge_total_secs\": {:.3}, \
             \"workers_used\": {}, \"lanes_free_min\": {}, \"lanes_free_max\": {}}},\n",
            s.live_cells,
            s.queue_wait_total_secs,
            s.simulate_total_secs,
            s.merge_total_secs,
            s.workers_used,
            s.lanes_free_min,
            s.lanes_free_max,
        ));
        out.push_str("  \"experiments\": [\n");
        for (i, e) in self.experiments.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"cells\": {}, \"reused_cells\": {}, \"wall_secs\": {:.3}}}{}\n",
                esc(&e.name),
                e.cells,
                e.reused_cells,
                e.wall_secs,
                if i + 1 < self.experiments.len() { "," } else { "" }
            ));
        }
        out.push_str("  ],\n");
        out.push_str("  \"cells\": [\n");
        for (i, c) in self.cells.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"machine\": \"{}\", \"benchmark\": \"{}\", \"policy\": \"{}\", \"wall_secs\": {:.3}, \"estimated_ops\": {}, \"actual_ops\": {}, \"queue_wait_secs\": {:.3}, \"merge_secs\": {:.3}, \"worker\": {}, \"lanes_free_start\": {}, \"from_journal\": {}}}{}\n",
                esc(&c.machine),
                esc(&c.benchmark),
                esc(&c.policy),
                c.wall_secs,
                c.estimated_ops,
                c.actual_ops,
                c.queue_wait_secs,
                c.merge_secs,
                c.worker,
                c.lanes_free_start,
                c.from_journal,
                if i + 1 < self.cells.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// First-submitter attribution: `owner[slot]` is the index of the first
/// experiment that submitted the unique cell in `slot`.
fn owners(exp_slots: &[Vec<usize>], n_cells: usize) -> Vec<usize> {
    let mut owner = vec![usize::MAX; n_cells];
    for (ei, slots) in exp_slots.iter().enumerate() {
        for &s in slots {
            if owner[s] == usize::MAX {
                owner[s] = ei;
            }
        }
    }
    owner
}

/// Wall-clock seconds of the unique cells owned by experiment `i`.
/// Exactly `0.0` (positive zero) when it owns none: f64's empty-sum
/// identity is `-0.0`, which would otherwise print as `-0.000`.
fn owned_secs(owner: &[usize], timed: &[TimedCell], i: usize) -> f64 {
    let s: f64 = owner
        .iter()
        .zip(timed)
        .filter(|(&o, _)| o == i)
        .map(|(_, t)| t.wall_secs)
        .sum();
    if s <= 0.0 {
        0.0
    } else {
        s
    }
}

/// Parses a `BENCH_runner.json` (any `bench-runner-v*` schema; fields a
/// schema lacks stay zero, and fields it no longer writes are ignored).
/// `None` when the text has no schema tag at all — a truncated or
/// foreign file.
pub fn parse_runner_json(text: &str) -> Option<RunnerReport> {
    // Scalars sit before the arrays; each array row is one line.
    let head = text.split("\"experiments\": [").next().unwrap_or(text);
    let num = |key: &str| u64_field(head, key).unwrap_or(0);
    let secs = |key: &str| f64_field(head, key).unwrap_or(0.0);
    let rows = |key: &str| {
        let open = format!("\"{key}\": [");
        text.lines()
            .skip_while(move |l| !l.contains(&open))
            .skip(1)
            .take_while(|l| !l.trim_start().starts_with(']'))
    };
    Some(RunnerReport {
        schema: str_field(head, "schema")?,
        shards: str_field(head, "shards").unwrap_or_default(),
        jobs: num("jobs") as usize,
        host_cores: num("host_cores") as usize,
        total_wall_secs: secs("total_wall_secs"),
        epochs_simulated: num("epochs_simulated"),
        spans: SpanRollup {
            live_cells: num("live_cells") as usize,
            queue_wait_total_secs: secs("queue_wait_total_secs"),
            simulate_total_secs: secs("simulate_total_secs"),
            merge_total_secs: secs("merge_total_secs"),
            workers_used: num("workers_used") as usize,
            lanes_free_min: num("lanes_free_min") as usize,
            lanes_free_max: num("lanes_free_max") as usize,
        },
        experiments: rows("experiments")
            .filter_map(|l| {
                Some(RunnerExperimentRow {
                    name: str_field(l, "name")?,
                    cells: u64_field(l, "cells").unwrap_or(0) as usize,
                    reused_cells: u64_field(l, "reused_cells").unwrap_or(0) as usize,
                    wall_secs: f64_field(l, "wall_secs")?,
                })
            })
            .collect(),
        cells: rows("cells")
            .filter_map(|l| {
                let num = |key: &str| u64_field(l, key).unwrap_or(0);
                let secs = |key: &str| f64_field(l, key).unwrap_or(0.0);
                Some(RunnerCellRow {
                    machine: str_field(l, "machine")?,
                    benchmark: str_field(l, "benchmark")?,
                    policy: str_field(l, "policy")?,
                    wall_secs: secs("wall_secs"),
                    estimated_ops: num("estimated_ops"),
                    actual_ops: num("actual_ops"),
                    queue_wait_secs: secs("queue_wait_secs"),
                    merge_secs: secs("merge_secs"),
                    worker: num("worker") as usize,
                    lanes_free_start: num("lanes_free_start") as usize,
                    from_journal: bool_field(l, "from_journal").unwrap_or(false),
                })
            })
            .collect(),
    })
}

/// One experiment's wall-clock against a baseline. The ">25 % slower"
/// rule lives here, so `all_experiments --compare` and the report's
/// regression table flag the same rows. Wall-clock on shared runners is
/// noisy: both render it as a soft warning, never a failure.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Delta<'a> {
    /// Experiment name (or `TOTAL`).
    pub name: &'a str,
    /// Baseline seconds.
    pub before: f64,
    /// This run's seconds.
    pub now: f64,
}

impl<'a> Delta<'a> {
    /// `None` when either side owns no seconds: a fully deduped
    /// experiment has no meaningful ratio.
    pub fn new(name: &'a str, before: f64, now: f64) -> Option<Delta<'a>> {
        (before > 0.0 && now > 0.0).then_some(Delta { name, before, now })
    }

    /// Speedup of this run over the baseline (`before / now`).
    pub fn ratio(&self) -> f64 {
        self.before / self.now
    }

    /// Whether this run is more than 25 % slower than the baseline.
    pub fn regressed(&self) -> bool {
        self.now > self.before * 1.25
    }
}

/// The per-experiment deltas of `now` against `base`, in `now`'s order.
/// Experiments missing from the baseline or owning no seconds on either
/// side are skipped.
pub fn experiment_deltas<'a>(now: &'a RunnerReport, base: &RunnerReport) -> Vec<Delta<'a>> {
    now.experiments
        .iter()
        .filter_map(|e| {
            let before = base.experiments.iter().find(|b| b.name == e.name)?;
            Delta::new(&e.name, before.wall_secs, e.wall_secs)
        })
        .collect()
}

/// One worker lane's share of the suite wall-clock.
#[derive(Clone, Debug)]
pub struct WorkerLane {
    /// Worker id (first-pickup numbering).
    pub worker: usize,
    /// Seconds spent simulating + merging on this lane.
    pub busy_secs: f64,
    /// `total - busy`, clamped at zero.
    pub idle_secs: f64,
    /// Indices into [`RunnerReport::cells`] run on this lane.
    pub cells: Vec<usize>,
}

/// The runner span decomposition: every worker lane's busy + idle split
/// of the suite wall-clock, journal-restored rows excluded (their work
/// happened in a dead process).
#[derive(Clone, Debug, Default)]
pub struct SpanBreakdown {
    /// Suite wall-clock seconds.
    pub total_wall_secs: f64,
    /// One lane per worker that picked up at least one cell.
    pub lanes: Vec<WorkerLane>,
    /// Sum of queue-wait across live cells (scheduling pressure).
    pub queue_wait_total_secs: f64,
}

impl SpanBreakdown {
    /// Builds the decomposition from a parsed runner file.
    pub fn from_runner(r: &RunnerReport) -> SpanBreakdown {
        let mut lanes: Vec<WorkerLane> = Vec::new();
        let mut queue_wait_total_secs = 0.0;
        for (i, c) in r.cells.iter().enumerate() {
            if c.from_journal {
                continue;
            }
            queue_wait_total_secs += c.queue_wait_secs;
            let lane = match lanes.iter_mut().find(|l| l.worker == c.worker) {
                Some(l) => l,
                None => {
                    lanes.push(WorkerLane {
                        worker: c.worker,
                        busy_secs: 0.0,
                        idle_secs: 0.0,
                        cells: Vec::new(),
                    });
                    lanes.last_mut().expect("just pushed")
                }
            };
            lane.busy_secs += c.wall_secs + c.merge_secs;
            lane.cells.push(i);
        }
        lanes.sort_by_key(|l| l.worker);
        for l in &mut lanes {
            l.idle_secs = (r.total_wall_secs - l.busy_secs).max(0.0);
        }
        SpanBreakdown {
            total_wall_secs: r.total_wall_secs,
            lanes,
            queue_wait_total_secs,
        }
    }

    /// The worst lane's relative error when its busy + idle split is
    /// summed back against the suite wall-clock. Zero by construction
    /// unless a lane's busy time *exceeds* the suite wall — which is
    /// exactly the accounting bug the 5 % acceptance bound exists to
    /// catch (spans double-counted, or anchored to the wrong clock).
    pub fn worst_error_fraction(&self) -> f64 {
        if self.total_wall_secs <= 0.0 {
            return if self.lanes.iter().any(|l| l.busy_secs > 0.0) {
                1.0
            } else {
                0.0
            };
        }
        self.lanes
            .iter()
            .map(|l| ((l.busy_secs + l.idle_secs) - self.total_wall_secs).abs())
            .fold(0.0_f64, f64::max)
            / self.total_wall_secs
    }

    /// Whether the decomposition re-composes the wall-clock within 5 %.
    pub fn within_bound(&self) -> bool {
        self.worst_error_fraction() <= 0.05
    }
}

/// Escapes text for HTML body and attribute positions.
fn hesc(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
        .replace('"', "&quot;")
}

/// An inline SVG sparkline of `values` in sample order. Non-finite
/// values are dropped; an empty or constant series draws a flat midline
/// rather than dividing by zero.
pub fn sparkline(values: &[f64], w: u32, h: u32, stroke: &str) -> String {
    let vals: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
    let (w_f, h_f) = (w as f64, h as f64);
    let pad = 2.0;
    let points = if vals.len() < 2 {
        format!(
            "{pad:.1},{:.1} {:.1},{:.1}",
            h_f / 2.0,
            w_f - pad,
            h_f / 2.0
        )
    } else {
        let min = vals.iter().copied().fold(f64::INFINITY, f64::min);
        let max = vals.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let span = if max > min { max - min } else { 1.0 };
        let dx = (w_f - 2.0 * pad) / (vals.len() - 1) as f64;
        vals.iter()
            .enumerate()
            .map(|(i, v)| {
                let x = pad + dx * i as f64;
                let y = if max > min {
                    pad + (h_f - 2.0 * pad) * (1.0 - (v - min) / span)
                } else {
                    h_f / 2.0
                };
                format!("{x:.1},{y:.1}")
            })
            .collect::<Vec<_>>()
            .join(" ")
    };
    format!(
        "<svg class=\"spark\" width=\"{w}\" height=\"{h}\" viewBox=\"0 0 {w} {h}\" \
         xmlns=\"http://www.w3.org/2000/svg\"><polyline points=\"{points}\" fill=\"none\" \
         stroke=\"{stroke}\" stroke-width=\"1.2\"/></svg>"
    )
}

/// Deterministic fill color for a benchmark label (timeline rects).
fn color_for(label: &str) -> &'static str {
    const PALETTE: [&str; 8] = [
        "#4e79a7", "#f28e2b", "#59a14f", "#e15759", "#76b7b2", "#edc948", "#b07aa1", "#9c755f",
    ];
    let h: usize = label
        .bytes()
        .fold(0usize, |a, b| a.wrapping_mul(31) + b as usize);
    PALETTE[h % PALETTE.len()]
}

/// An inline SVG timeline: one horizontal lane per worker, one rect per
/// live cell from its pickup time (`queue_wait_secs`) for its simulate +
/// merge duration, colored by benchmark, with a hover `<title>`.
pub fn worker_timeline(bd: &SpanBreakdown, cells: &[RunnerCellRow], w: u32) -> String {
    let row_h = 16;
    let h = (bd.lanes.len() as u32) * row_h + 4;
    let total = if bd.total_wall_secs > 0.0 {
        bd.total_wall_secs
    } else {
        1.0
    };
    let mut rects = String::new();
    for (li, lane) in bd.lanes.iter().enumerate() {
        let y = li as u32 * row_h + 2;
        for &ci in &lane.cells {
            let c = &cells[ci];
            let x = c.queue_wait_secs / total * (w as f64 - 40.0) + 38.0;
            let width = ((c.wall_secs + c.merge_secs) / total * (w as f64 - 40.0)).max(1.0);
            rects.push_str(&format!(
                "<rect x=\"{x:.1}\" y=\"{y}\" width=\"{width:.1}\" height=\"{}\" fill=\"{}\">\
                 <title>{} / {} — wait {:.3}s, sim {:.3}s, merge {:.3}s</title></rect>",
                row_h - 4,
                color_for(&c.benchmark),
                hesc(&c.benchmark),
                hesc(&c.policy),
                c.queue_wait_secs,
                c.wall_secs,
                c.merge_secs,
            ));
        }
        rects.push_str(&format!(
            "<text x=\"2\" y=\"{}\" font-size=\"10\" fill=\"#555\">w{}</text>",
            y + row_h - 7,
            lane.worker
        ));
    }
    format!(
        "<svg width=\"{w}\" height=\"{h}\" viewBox=\"0 0 {w} {h}\" \
         xmlns=\"http://www.w3.org/2000/svg\">{rects}</svg>"
    )
}

/// Formats the metric block of one series: label, min→max range, last
/// value, and the sparkline.
fn metric_block(label: &str, values: &[f64], stroke: &str) -> String {
    let finite: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
    let (min, max, last) = if finite.is_empty() {
        (0.0, 0.0, 0.0)
    } else {
        (
            finite.iter().copied().fold(f64::INFINITY, f64::min),
            finite.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            *finite.last().expect("non-empty"),
        )
    };
    format!(
        "<div class=\"metric\"><span class=\"mname\">{}</span>{}\
         <span class=\"mrange\">{min:.3} … {max:.3} (last {last:.3})</span></div>",
        hesc(label),
        sparkline(values, 220, 36, stroke),
    )
}

/// Assembles the full self-contained HTML document.
///
/// `journal` is the crash journal's `(ok, failed)` line counts
/// ([`crate::journal::outcome_counts`]) when one exists; `attrib_present` notes whether
/// `results/ATTRIB_all.json` was found.
pub fn html_report(
    series: &[CellSeries],
    runner: Option<&RunnerReport>,
    baseline: Option<&RunnerReport>,
    attrib_present: bool,
    journal: Option<(usize, usize)>,
) -> String {
    let mut out = String::with_capacity(64 * 1024);
    out.push_str(
        "<!DOCTYPE html>\n<html lang=\"en\"><head><meta charset=\"utf-8\">\
         <title>Carrefour-LP flight recorder report</title><style>\
         body{font-family:system-ui,sans-serif;margin:2em auto;max-width:72em;color:#222}\
         h1,h2,h3{color:#123}table{border-collapse:collapse;margin:.5em 0}\
         td,th{border:1px solid #ccc;padding:.2em .6em;font-size:.9em;text-align:right}\
         th{background:#f2f5f8}td.l,th.l{text-align:left}\
         .metric{display:inline-block;margin:.3em 1em .3em 0;vertical-align:top}\
         .mname{display:block;font-size:.8em;color:#555}\
         .mrange{display:block;font-size:.7em;color:#888}\
         .spark{background:#fafcfe;border:1px solid #e5e9ee}\
         .pass{color:#186218;font-weight:bold}.fail{color:#a11;font-weight:bold}\
         .cell{border-top:1px solid #ddd;padding:.6em 0}\
         .note{color:#666;font-size:.85em}\
         </style></head><body>\n<h1>Carrefour-LP flight recorder report</h1>\n",
    );
    out.push_str(&format!(
        "<p class=\"note\">Recorded {} golden cells (schema metrics-v1); runner file: {}; \
         baseline: {}; attribution file: {}.</p>\n",
        series.len(),
        runner.map_or("absent".into(), |r| hesc(&r.schema)),
        baseline.map_or("absent".into(), |r| hesc(&r.schema)),
        if attrib_present { "present" } else { "absent" },
    ));
    if let Some((ok, bad)) = journal {
        out.push_str(&format!(
            "<p class=\"note\">Crash journal: {ok} ok line(s), {bad} failure line(s).</p>\n"
        ));
    }

    // §1 Paper metrics summary — the figures' end-state numbers per cell.
    out.push_str(
        "<h2>Paper metrics (end of run)</h2>\n<table><tr>\
         <th class=\"l\">cell</th><th>runtime (Gcycles)</th><th>final LAR</th>\
         <th>mean imbalance %</th><th>migrations</th><th>splits</th>\
         <th>PAMUP %</th><th>hot pages</th><th>PSP %</th></tr>\n",
    );
    for s in series {
        let mean_imb = if s.rows.is_empty() {
            0.0
        } else {
            s.rows.iter().map(|r| r.imbalance).sum::<f64>() / s.rows.len() as f64
        };
        let migr: u64 = s.rows.iter().map(|r| r.migrations).sum();
        let splits: u64 = s.rows.iter().map(|r| r.splits).sum();
        let last = s.rows.last();
        let pages = last.and_then(|r| r.pages);
        out.push_str(&format!(
            "<tr><td class=\"l\">{}</td><td>{:.3}</td><td>{:.3}</td><td>{:.1}</td>\
             <td>{migr}</td><td>{splits}</td><td>{}</td><td>{}</td><td>{}</td></tr>\n",
            hesc(&s.title),
            s.runtime_cycles as f64 / 1e9,
            last.map_or(0.0, |r| r.lar),
            mean_imb,
            pages.map_or("—".into(), |p| format!("{:.1}", p.pamup)),
            pages.map_or("—".into(), |p| p.nhp.to_string()),
            pages.map_or("—".into(), |p| format!("{:.1}", p.psp)),
        ));
    }
    out.push_str("</table>\n");

    // §2 Per-cell time-series.
    out.push_str("<h2>Per-epoch time-series (golden cells)</h2>\n");
    for s in series {
        out.push_str(&format!(
            "<div class=\"cell\"><h3>{}</h3>\n",
            hesc(&s.title)
        ));
        let f = |g: fn(&MetricsRow) -> f64| s.rows.iter().map(g).collect::<Vec<f64>>();
        out.push_str(&metric_block("imbalance %", &f(|r| r.imbalance), "#e15759"));
        out.push_str(&metric_block("LAR", &f(|r| r.lar), "#4e79a7"));
        out.push_str(&metric_block(
            "TLB hit rate",
            &f(|r| r.tlb_hit_rate),
            "#59a14f",
        ));
        out.push_str(&metric_block(
            "walk-cache hit rate",
            &f(|r| r.walk_cache_hit_rate),
            "#76b7b2",
        ));
        out.push_str(&metric_block(
            "epoch cycles",
            &f(|r| r.epoch_cycles as f64),
            "#b07aa1",
        ));
        out.push_str(&metric_block(
            "walk-miss fraction",
            &f(|r| r.walk_miss_fraction),
            "#f28e2b",
        ));
        if s.rows.iter().any(|r| r.pages.is_some()) {
            let g = |h: fn(&engine::PageSnapshot) -> f64| {
                s.rows
                    .iter()
                    .map(|r| r.pages.as_ref().map_or(f64::NAN, h))
                    .collect::<Vec<f64>>()
            };
            out.push_str(&metric_block("PAMUP %", &g(|p| p.pamup), "#edc948"));
            out.push_str(&metric_block("PSP %", &g(|p| p.psp), "#9c755f"));
        }
        if s.rows.iter().any(|r| r.policy.is_some()) {
            let depth: Vec<f64> = s
                .rows
                .iter()
                .map(|r| r.policy.map_or(f64::NAN, |p| p.retry_queue_depth as f64))
                .collect();
            out.push_str(&metric_block("retry queue depth", &depth, "#a11"));
            let trips = s
                .rows
                .last()
                .and_then(|r| r.policy)
                .map_or((0, 0), |p| (p.split_breaker_trips, p.move_breaker_trips));
            out.push_str(&format!(
                "<p class=\"note\">breaker trips at end of run: split {}, move {}</p>",
                trips.0, trips.1
            ));
        }
        if s.rows.iter().any(|r| r.attrib.is_some()) {
            let policy_cycles: Vec<f64> = s
                .rows
                .iter()
                .map(|r| {
                    r.attrib.as_ref().map_or(f64::NAN, |b| {
                        (b.policy_migration + b.policy_split + b.policy_replication) as f64
                    })
                })
                .collect();
            out.push_str(&metric_block("policy cycles/epoch", &policy_cycles, "#555"));
        }
        out.push_str("</div>\n");
    }

    // §3 Runner span breakdown.
    out.push_str("<h2>Runner span breakdown</h2>\n");
    match runner {
        None => out.push_str(
            "<p class=\"note\">No results/BENCH_runner.json found — run \
             <code>all_experiments</code> first for the span section.</p>\n",
        ),
        Some(r) => {
            let bd = SpanBreakdown::from_runner(r);
            let busy: f64 = bd.lanes.iter().map(|l| l.busy_secs).sum();
            out.push_str(&format!(
                "<p>Suite wall-clock <b>{:.3}s</b> across {} worker lane(s); busy \
                 {busy:.3}s, queue-wait total {:.3}s.</p>\n",
                bd.total_wall_secs,
                bd.lanes.len(),
                bd.queue_wait_total_secs,
            ));
            out.push_str(&worker_timeline(&bd, &r.cells, 900));
            out.push_str(
                "<table><tr><th>worker</th><th>busy s</th><th>idle s</th>\
                 <th>cells</th><th>busy+idle vs wall</th></tr>\n",
            );
            for l in &bd.lanes {
                let err = if bd.total_wall_secs > 0.0 {
                    ((l.busy_secs + l.idle_secs) - bd.total_wall_secs).abs() / bd.total_wall_secs
                } else {
                    0.0
                };
                out.push_str(&format!(
                    "<tr><td>w{}</td><td>{:.3}</td><td>{:.3}</td><td>{}</td>\
                     <td>{:.1}%</td></tr>\n",
                    l.worker,
                    l.busy_secs,
                    l.idle_secs,
                    l.cells.len(),
                    err * 100.0
                ));
            }
            out.push_str("</table>\n");
            let (class, verdict) = if bd.within_bound() {
                ("pass", "PASS")
            } else {
                ("fail", "FAIL")
            };
            out.push_str(&format!(
                "<p>Span self-check (every lane re-composes the wall-clock within 5%): \
                 <span class=\"{class}\">{verdict}</span> — worst lane error {:.2}%.</p>\n",
                bd.worst_error_fraction() * 100.0
            ));
        }
    }

    // §4 Regression deltas vs the committed baseline.
    out.push_str("<h2>Regression deltas vs baseline</h2>\n");
    match (runner, baseline) {
        (Some(now), Some(base)) => {
            out.push_str(
                "<table><tr><th class=\"l\">experiment</th><th>baseline s</th>\
                 <th>now s</th><th>ratio</th><th class=\"l\"></th></tr>\n",
            );
            for d in experiment_deltas(now, base) {
                let flag = if d.regressed() {
                    "<span class=\"fail\">REGRESSION</span>"
                } else {
                    ""
                };
                out.push_str(&format!(
                    "<tr><td class=\"l\">{}</td><td>{:.3}</td><td>{:.3}</td>\
                     <td>{:.2}x</td><td class=\"l\">{flag}</td></tr>\n",
                    hesc(d.name),
                    d.before,
                    d.now,
                    d.ratio(),
                ));
            }
            out.push_str("</table>\n");
            out.push_str(&format!(
                "<p class=\"note\">Totals: baseline {:.3}s → now {:.3}s. Wall-clock \
                 comparisons on shared runners are noisy — these are the same soft \
                 gates <code>--compare</code> prints.</p>\n",
                base.total_wall_secs, now.total_wall_secs,
            ));
        }
        _ => out.push_str(
            "<p class=\"note\">Baseline comparison needs both results/BENCH_runner.json \
             and results/BENCH_baseline.json.</p>\n",
        ),
    }

    out.push_str("</body></html>\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparkline_handles_degenerate_series() {
        for vals in [&[][..], &[1.0][..], &[2.0, 2.0, 2.0][..], &[f64::NAN][..]] {
            let svg = sparkline(vals, 100, 20, "#000");
            assert!(svg.starts_with("<svg"), "{svg}");
            assert!(!svg.contains("NaN"), "{svg}");
        }
        let svg = sparkline(&[0.0, 1.0, 0.5], 100, 20, "#000");
        assert!(svg.contains("polyline"));
    }

    fn synthetic_v5() -> String {
        concat!(
            "{\n",
            "  \"schema\": \"bench-runner-v5\",\n",
            "  \"total_wall_secs\": 10.000,\n",
            "  \"epochs_reused\": 7,\n",
            "  \"experiments\": [\n",
            "    {\"name\": \"fig2\", \"cells\": 4, \"reused_cells\": 0, \"wall_secs\": 6.000},\n",
            "    {\"name\": \"fig3\", \"cells\": 2, \"reused_cells\": 2, \"wall_secs\": 0.000}\n",
            "  ],\n",
            "  \"cells\": [\n",
            "    {\"machine\": \"machine-a\", \"benchmark\": \"ua.B\", \"policy\": \"linux-4k\", \"wall_secs\": 6.000, \"estimated_ops\": 5, \"actual_ops\": 5, \"queue_wait_secs\": 0.100, \"merge_secs\": 0.010, \"worker\": 0, \"lanes_free_start\": 2, \"from_journal\": false},\n",
            "    {\"machine\": \"machine-a\", \"benchmark\": \"cg.D\", \"policy\": \"carrefour-lp\", \"wall_secs\": 3.000, \"estimated_ops\": 5, \"actual_ops\": 5, \"queue_wait_secs\": 0.200, \"merge_secs\": 0.020, \"worker\": 1, \"lanes_free_start\": 2, \"from_journal\": false},\n",
            "    {\"machine\": \"machine-a\", \"benchmark\": \"cg.D\", \"policy\": \"linux-thp\", \"wall_secs\": 9.000, \"estimated_ops\": 5, \"actual_ops\": 5, \"queue_wait_secs\": 0.000, \"merge_secs\": 0.000, \"worker\": 0, \"lanes_free_start\": 0, \"from_journal\": true}\n",
            "  ]\n}\n"
        )
        .to_string()
    }

    #[test]
    fn v5_runner_json_parses() {
        let r = parse_runner_json(&synthetic_v5()).expect("parses");
        assert_eq!(r.schema, "bench-runner-v5");
        assert_eq!(r.total_wall_secs, 10.0);
        assert_eq!(r.experiments.len(), 2);
        assert_eq!(r.experiments[0].name, "fig2");
        assert_eq!(r.experiments[0].wall_secs, 6.0);
        assert_eq!(r.experiments[1].reused_cells, 2);
        assert_eq!(r.cells.len(), 3);
        assert_eq!(r.cells[1].worker, 1);
        assert!(r.cells[2].from_journal);
        assert!(parse_runner_json("not json at all").is_none());
    }

    #[test]
    fn runner_json_round_trips() {
        let mut r = parse_runner_json(&synthetic_v5()).expect("parses");
        r.schema = RUNNER_SCHEMA.to_string();
        r.shards = "4".into();
        r.jobs = 2;
        r.host_cores = 2;
        r.epochs_simulated = 61;
        r.spans = SpanRollup {
            live_cells: 2,
            queue_wait_total_secs: 0.3,
            simulate_total_secs: 9.0,
            merge_total_secs: 0.03,
            workers_used: 2,
            lanes_free_min: 1,
            lanes_free_max: 2,
        };
        r.cells[0].machine = "machine \"a\"\\".into();
        let text = r.to_json();
        assert!(!text.contains("epochs_reused") && !text.contains("families"));
        assert_eq!(parse_runner_json(&text).as_ref(), Some(&r));
    }

    #[test]
    fn checked_in_baseline_parses() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../results/BENCH_baseline.json"
        );
        let text = std::fs::read_to_string(path).expect("baseline is checked in");
        let r = parse_runner_json(&text).expect("parses");
        assert_eq!(r.experiments.len(), 12);
        assert_eq!(r.total_wall_secs, 163.357);
        assert_eq!(r.cells.len(), 260);
        assert_eq!(r.spans.live_cells, 260);
    }

    #[test]
    fn deltas_skip_zero_owned_rows_and_flag_25_percent() {
        let base = parse_runner_json(&synthetic_v5()).expect("parses");
        let mut now = base.clone();
        now.experiments[0].wall_secs = 7.6;
        let d = experiment_deltas(&now, &base);
        assert_eq!(d.len(), 1, "fig3 owns 0 s in both runs");
        assert_eq!((d[0].name, d[0].before, d[0].now), ("fig2", 6.0, 7.6));
        assert!(d[0].regressed());
        assert!(!Delta::new("x", 6.0, 7.5)
            .expect("both positive")
            .regressed());
        assert!(Delta::new("x", 0.0, 1.0).is_none());
    }

    #[test]
    fn span_breakdown_excludes_journal_rows_and_passes_bound() {
        let r = parse_runner_json(&synthetic_v5()).expect("parses");
        let bd = SpanBreakdown::from_runner(&r);
        // The journal-restored 9s cell on worker 0 must not count.
        assert_eq!(bd.lanes.len(), 2);
        assert!((bd.lanes[0].busy_secs - 6.01).abs() < 1e-9);
        assert!((bd.lanes[1].busy_secs - 3.02).abs() < 1e-9);
        assert!(bd.within_bound(), "err {}", bd.worst_error_fraction());
        // A lane busier than the suite wall must fail the bound.
        let mut broken = r.clone();
        broken.total_wall_secs = 5.0;
        let bd = SpanBreakdown::from_runner(&broken);
        assert!(!bd.within_bound());
    }

    #[test]
    fn html_report_is_standalone_and_escaped() {
        let series = vec![CellSeries {
            stem: "x".into(),
            title: "ua.B / <tag> & \"quote\"".into(),
            rows: Vec::new(),
            runtime_cycles: 1_000_000,
        }];
        let r = parse_runner_json(&synthetic_v5()).expect("parses");
        let html = html_report(&series, Some(&r), Some(&r), true, Some((3, 1)));
        assert!(html.starts_with("<!DOCTYPE html>"));
        assert!(html.contains("&lt;tag&gt; &amp; &quot;quote&quot;"));
        assert!(!html.contains("<tag>"));
        assert!(html.contains("<svg"), "at least the timeline renders");
        assert!(html.contains("PASS"));
        assert!(!html.contains("href="), "no external assets");
        assert!(!html.contains("src="), "no external assets");
    }
}
