//! The traced run: per-layer metrics, measured from this benchmark's own
//! code around calls into each crate's public functions.
//!
//! It has three parts.
//! 1. Passes, repeated while `--seconds` allows: an untraced resolution
//!    of the cell set (as in the untraced run), the same resolution with
//!    tracing hooks on, and the cell set at another shard count for
//!    `engine.lane_speedup` (one shard for a sharded workload, two on a
//!    multi-core host for a workload of plain 1-shard cells). Hooks:
//!    plain cells run under a [`RunObserver`] with cycle attribution on;
//!    fork-tree families run with trace digests.
//!    Traced results must equal the reference results (attribution
//!    aside), and their wall time against the untraced pass is
//!    `trace.overhead_pct`.
//! 2. Engine-boundary analysis of each unit's observed run (a family's
//!    probe runs observed for it, and must reproduce its reference result
//!    too): epoch times, a fresh policy's `on_epoch` replayed over the
//!    recorded inputs (the fork tree's replay technique), LAR estimation,
//!    the checkpoint and result codecs, and the simulated counts `sim.*`.
//! 3. A layer replay per distinct cell: the cell's generated stream, in
//!    the engine's thread interleaving, through a TLB, walk cache, radix
//!    walk, fault handler, memory system, IBS sampler and page-statistics
//!    table of its own, then the page operations and lane fork/absorb on
//!    the state that replay built. The replay only approximates the
//!    engine's call order (it skips page-walk memory references and
//!    policy actions), so `trace.layer_coverage` — the share of the
//!    untraced CPU time the timed layer calls add up to — leaves the
//!    unexplained remainder visible.
//!
//! Reading the clock costs about as much as the cheapest calls, and
//! timing single calls serialises the code around them, so the replay
//! runs each layer as one pass over a round's ops and times the pass:
//! the layers keep the engine's op order and own disjoint state, so a
//! layer-major pass performs exactly the calls an op-major one would.
//! Inside the translation pass, walk-cache walks and faults are timed one
//! by one (less the measured clock cost) and the TLB gets the remainder;
//! one access in [`LEVEL_SAMPLE_EVERY`] is timed alone to split the
//! memory-system pass by service level.
//! Spans (run > cell > epoch > layer-call batch) and counts stay in memory
//! and are written to `perfbench/out/` when the run ends.

use crate::cells::{Cell, Resolved, Unit, Workload};
use crate::gate::Gate;
use crate::stats::{median, ratio, tail_percentile};
use crate::{another_fits, caught, json_num, json_str, timed_rep, warm_up, Metric, Rep};
use carrefour_bench::forktree::FamilyStats;
use engine::checkpoint::{decode_result, encode_result};
use engine::{
    Checkpoint, EpochBoundary, EpochCtx, FailedAction, RunObserver, SimResult, Simulation,
};
use memsys::{AccessKind, MemorySystem, ServiceLevel};
use numa_topology::{CoreId, MachineSpec};
use profiling::{EpochCounters, IbsSample, IbsSampler, PageAccessStats};
use std::hint::black_box;
use std::time::Instant;
use vmem::{AddressSpace, PageSize, ThpControls, Tlb, TlbLookup, VirtAddr, WalkCache};
use workloads::WorkloadGen;

/// One memory access in this many is timed alone, to split the
/// memory-system pass by service level.
const LEVEL_SAMPLE_EVERY: usize = 64;
/// Repetitions of the small one-off calls (codecs, lane fork/absorb).
const MICRO_REPS: usize = 7;
/// Most pages split or migrated in the page-operation measurements.
const PAGE_OPS: usize = 32;

/// One span. A layer-call batch span is one layer's pass over one round;
/// its `busy_us` is the layer's own time in it (less timed sub-calls and
/// clock reads).
struct Span {
    parent: Option<usize>,
    name: String,
    start_us: f64,
    end_us: f64,
    busy_us: Option<f64>,
    calls: u64,
}

/// Spans of the run, relative to its start.
struct Spans {
    t0: Instant,
    spans: Vec<Span>,
}

impl Spans {
    fn us(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.t0).as_secs_f64() * 1e6
    }

    fn push(&mut self, parent: Option<usize>, name: String, start: Instant, end: Instant) -> usize {
        self.spans.push(Span {
            parent,
            name,
            start_us: self.us(start),
            end_us: self.us(end),
            busy_us: None,
            calls: 0,
        });
        self.spans.len() - 1
    }

    fn to_json(&self, workload: &str, seed: u64, counts: &[(String, f64)]) -> String {
        let spans: Vec<String> = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                format!(
                    "{{\"id\": {id}, \"parent\": {}, \"name\": {}, \"start_us\": {:.3}, \"end_us\": {:.3}, \"busy_us\": {}, \"calls\": {}}}",
                    s.parent.map_or("null".into(), |p| p.to_string()),
                    json_str(&s.name),
                    s.start_us,
                    s.end_us,
                    s.busy_us.map_or("null".into(), |b| format!("{b:.3}")),
                    s.calls
                )
            })
            .collect();
        let counts: Vec<String> = counts
            .iter()
            .map(|(k, v)| format!("{}: {}", json_str(k), json_num(k, *v)))
            .collect();
        format!(
            "{{\"workload\": {}, \"seed\": {seed}, \"counts\": {{{}}}, \"spans\": [\n{}\n]}}\n",
            json_str(workload),
            counts.join(", "),
            spans.join(",\n")
        )
    }
}

/// Own time and call count of one layer.
#[derive(Clone, Copy, Default)]
struct Busy {
    secs: f64,
    calls: u64,
}

impl Busy {
    fn ns_per_call(&self) -> f64 {
        ratio(self.secs * 1e9, self.calls as f64).max(0.0)
    }

    fn add(&mut self, o: &Busy) {
        self.secs += o.secs;
        self.calls += o.calls;
    }
}

/// Everything an observed run recorded at one epoch boundary.
struct BoundaryRecord {
    epoch: u32,
    at: Instant,
    counters: EpochCounters,
    samples: Vec<IbsSample>,
    thp: ThpControls,
    failures: Option<Vec<FailedAction>>,
    actions: usize,
}

/// Records every boundary and one checkpoint of a run.
struct Observer {
    records: Vec<BoundaryRecord>,
    ckpt_epoch: u32,
    ckpt: Option<Checkpoint>,
}

impl RunObserver for Observer {
    fn on_boundary(&mut self, b: &EpochBoundary<'_>) {
        self.records.push(BoundaryRecord {
            epoch: b.epoch,
            at: Instant::now(),
            counters: b.counters.clone(),
            samples: b.samples.to_vec(),
            thp: b.thp,
            failures: b.failures.map(<[FailedAction]>::to_vec),
            actions: b.actions.len(),
        });
    }

    fn want_checkpoint(&mut self, epoch: u32) -> bool {
        epoch == self.ckpt_epoch
    }

    fn on_checkpoint(&mut self, ckpt: Checkpoint) {
        self.ckpt = Some(ckpt);
    }
}

/// An observed run of one cell.
struct ObservedRun {
    result: SimResult,
    started: Instant,
    ended: Instant,
    observer: Observer,
}

/// Runs `cell` with attribution on under an [`Observer`] that snapshots
/// the boundary beginning `ckpt_epoch`.
fn observe(cell: &Cell, ckpt_epoch: u32) -> ObservedRun {
    let machine = cell.machine.spec();
    let spec = cell.bench.spec(&machine);
    let mut config = cell.config(&machine);
    config.attribution = true;
    let mut policy = cell.policy();
    let mut observer = Observer {
        records: Vec::new(),
        ckpt_epoch,
        ckpt: None,
    };
    let started = Instant::now();
    let result = Simulation::run_observed(
        &machine,
        &spec,
        &config,
        policy.as_mut(),
        None,
        &mut observer,
    );
    ObservedRun {
        result,
        started,
        ended: Instant::now(),
        observer,
    }
}

/// Pooled per-layer measurements over the workload's cells.
#[derive(Default)]
struct Layers {
    setup_us: Vec<f64>,
    gen: Busy,
    tlb: Busy,
    tlb_misses: u64,
    walk_cached: Busy,
    walk_cache_hits: u64,
    walk_cache_misses: u64,
    walk: Busy,
    fault: Busy,
    access: Busy,
    /// Raw single-access timings by service level, and calls by level.
    level_timed: [Busy; 4],
    level_calls: [u64; 4],
    ibs: Busy,
    pagestats: Busy,
    aggregate_ms: Vec<f64>,
    split_us: Vec<f64>,
    migrate_us: Vec<f64>,
    scan_us: Vec<f64>,
    fork_lane_us: Vec<f64>,
    absorb_lane_us: Vec<f64>,
    ibs_lane_us: Vec<f64>,
    decision_us: Vec<f64>,
    actions: Vec<f64>,
    lar_us: Vec<f64>,
    epoch_ms: Vec<f64>,
    prelude_ms: Vec<f64>,
    boundaries: u64,
    ckpt_encode_us: Vec<f64>,
    ckpt_decode_us: Vec<f64>,
    ckpt_bytes: Vec<f64>,
    result_codec_us: Vec<f64>,
}

impl Layers {
    /// Seconds of the timed calls on the engine's own path: the replay's
    /// layer passes (not its extra uncached walks) and the replayed policy
    /// decisions.
    fn engine_path_secs(&self) -> f64 {
        let passes = [
            self.gen,
            self.tlb,
            self.walk_cached,
            self.fault,
            self.access,
            self.ibs,
            self.pagestats,
        ];
        passes.iter().map(|b| b.secs).sum::<f64>() + self.decision_us.iter().sum::<f64>() * 1e-6
    }

    /// Per-access ns by service level: the raw single-access timings less
    /// one shift, chosen so that the levels add up to the pass-measured
    /// memory-system time. `None` for a level no timed access hit.
    fn access_ns_by_level(&self) -> [Option<f64>; 4] {
        let timed = self.level_timed.iter().zip(&self.level_calls);
        let (raw, calls) = timed
            .filter(|(t, _)| t.calls > 0)
            .fold((0.0, 0u64), |(raw, n), (t, &c)| {
                (raw + t.ns_per_call() * c as f64, n + c)
            });
        let shift = ratio(raw - self.access.secs * 1e9, calls as f64);
        let mut out = [None; 4];
        for (o, t) in out.iter_mut().zip(&self.level_timed) {
            if t.calls > 0 {
                *o = Some((t.ns_per_call() - shift).max(0.0));
            }
        }
        out
    }
}

fn level_index(l: ServiceLevel) -> usize {
    match l {
        ServiceLevel::L1 => 0,
        ServiceLevel::L2 => 1,
        ServiceLevel::L3 => 2,
        ServiceLevel::Dram => 3,
    }
}

/// Times `reps` calls of `f`; microseconds per call.
fn micro_us(reps: usize, mut f: impl FnMut()) -> Vec<f64> {
    (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect()
}

/// The cost of reading the clock, measured once per run.
#[derive(Clone, Copy)]
struct Clock {
    /// One `Instant::now()` call, in ns.
    read_ns: f64,
    /// What a timed interval with nothing in it reads, in ns.
    empty_ns: f64,
}

impl Clock {
    fn measure() -> Self {
        const N: u32 = 20_000;
        let t = Instant::now();
        for _ in 0..N {
            black_box(Instant::now());
        }
        let read_ns = t.elapsed().as_nanos() as f64 / f64::from(N);
        let empty: Vec<f64> = (0..2001)
            .map(|_| {
                let a = Instant::now();
                let b = Instant::now();
                (b - a).as_nanos() as f64
            })
            .collect();
        Clock {
            read_ns,
            empty_ns: median(&empty),
        }
    }

    /// Clock time a timed call adds to its enclosing pass outside its
    /// own interval.
    fn outside_ns(&self) -> f64 {
        (2.0 * self.read_ns - self.empty_ns).max(0.0)
    }

    /// Times one call into `busy`, less the clock cost inside the interval.
    #[inline]
    fn time<T>(&self, busy: &mut Busy, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        busy.secs += (t.elapsed().as_nanos() as f64 - self.empty_ns) * 1e-9;
        busy.calls += 1;
        out
    }
}

/// Engine-boundary analysis of one observed run (part 2).
fn analyse_boundaries(cell: &Cell, run: &ObservedRun, layers: &mut Layers) {
    let machine = cell.machine.spec();
    let obs = &run.observer;
    layers.boundaries += obs.records.len() as u64;
    if let Some(first) = obs.records.first() {
        layers
            .prelude_ms
            .push((first.at - run.started).as_secs_f64() * 1e3);
    }
    let mut prev: Option<Instant> = None;
    for r in &obs.records {
        if let Some(p) = prev {
            layers.epoch_ms.push((r.at - p).as_secs_f64() * 1e3);
        }
        prev = Some(r.at);
    }
    if let Some(p) = prev {
        layers.epoch_ms.push((run.ended - p).as_secs_f64() * 1e3);
    }

    let mut policy = cell.policy();
    for r in &obs.records {
        let mut ctx = EpochCtx::new(&machine, &r.counters, &r.samples, r.thp, r.epoch);
        if let Some(f) = &r.failures {
            ctx.set_failures(f);
        }
        let t = Instant::now();
        policy.on_epoch(&mut ctx);
        let dt = t.elapsed().as_secs_f64();
        layers.decision_us.push(dt * 1e6);
        black_box(ctx.take_actions());
        layers.actions.push(r.actions as f64);
        let t = Instant::now();
        black_box(carrefour::lar::estimate(&r.samples, machine.num_nodes()));
        layers.lar_us.push(t.elapsed().as_secs_f64() * 1e6);
    }

    if let Some(ckpt) = &obs.ckpt {
        let mut bytes = Vec::new();
        layers
            .ckpt_encode_us
            .extend(micro_us(MICRO_REPS, || bytes = ckpt.to_bytes()));
        layers.ckpt_bytes.push(bytes.len() as f64);
        layers.ckpt_decode_us.extend(micro_us(MICRO_REPS, || {
            black_box(Checkpoint::from_bytes(&bytes).expect("a fresh checkpoint decodes"));
        }));
    }
    layers.result_codec_us.extend(micro_us(MICRO_REPS, || {
        let bytes = encode_result(&run.result);
        black_box(decode_result(&bytes).expect("a fresh result decodes"));
    }));
}

/// The layer replay of one cell (part 3).
fn replay(cell: &Cell, clock: Clock, l: &mut Layers, spans: &mut Spans, parent: usize) {
    let machine: MachineSpec = cell.machine.spec();
    let config = cell.config(&machine);
    l.setup_us.extend(micro_us(MICRO_REPS, || {
        let spec = cell.bench.spec(&machine);
        black_box(WorkloadGen::new(&spec, config.seed));
    }));
    let spec = cell.bench.spec(&machine);
    let mut gen = WorkloadGen::new(&spec, config.seed);
    let mut space = AddressSpace::new(&machine, config.vmem);
    for r in &spec.regions {
        space
            .map_region(r.base, r.bytes)
            .expect("suite workload regions map cleanly");
    }
    let threads = spec.threads;
    let mut tlbs: Vec<Tlb> = (0..threads).map(|_| Tlb::new(&config.vmem.tlb)).collect();
    let mut wcs: Vec<WalkCache> = (0..threads).map(|_| WalkCache::new()).collect();
    let mut mem = MemorySystem::new(&machine, config.memsys.clone());
    let mut sampler = IbsSampler::new(machine.num_nodes(), config.ibs);
    let mut pstats = PageAccessStats::new();
    let nodes: Vec<_> = (0..threads)
        .map(|t| machine.node_of_core(CoreId::from(t)))
        .collect();

    let cell_span = spans.push(
        Some(parent),
        format!("replay {}", describe_cell(cell)),
        Instant::now(),
        Instant::now(),
    );
    let batch = config.ops_per_batch.max(1).min(spec.ops_per_round) as usize;
    let mut block = Vec::with_capacity(batch);
    // One round's ops in engine order, then each layer's outputs.
    let mut ops: Vec<(usize, workloads::Op)> = Vec::new();
    let mut maps: Vec<vmem::Mapping> = Vec::new();
    let mut misses: Vec<VirtAddr> = Vec::new();
    let mut outs: Vec<memsys::AccessOutcome> = Vec::new();
    let total_rounds = gen.total_rounds();
    let mut epoch_span = None;
    for round in 0..total_rounds {
        if round % config.rounds_per_epoch == 0 {
            let now = Instant::now();
            epoch_span = Some(spans.push(
                Some(cell_span),
                format!("replay epoch {}", round / config.rounds_per_epoch),
                now,
                now,
            ));
        }
        let epoch = epoch_span.expect("opened at the first round");
        let batch_span = |spans: &mut Spans, name: &str, start: Instant, busy: Busy| {
            let id = spans.push(Some(epoch), name.to_string(), start, Instant::now());
            spans.spans[id].busy_us = Some(busy.secs * 1e6);
            spans.spans[id].calls = busy.calls;
            busy
        };

        // Generation, in the engine's batch interleaving.
        let start = Instant::now();
        ops.clear();
        let mut issued = 0usize;
        let mut cycle = round as usize;
        while (issued as u64) < spec.ops_per_round {
            let n = batch.min(spec.ops_per_round as usize - issued);
            for k in 0..threads {
                let t = (k + cycle) % threads;
                gen.next_block(t, n, &mut block);
                ops.extend(block.iter().map(|&op| (t, op)));
            }
            issued += n;
            cycle += 1;
        }
        let gen_busy = Busy {
            secs: start.elapsed().as_secs_f64(),
            calls: ops.len() as u64,
        };
        l.gen
            .add(&batch_span(spans, "workloads.next_block", start, gen_busy));

        // Translation: TLB, then walk cache and fault on a miss.
        let start = Instant::now();
        let (wc_before, fault_before) = (l.walk_cached, l.fault);
        maps.clear();
        misses.clear();
        for &(t, op) in &ops {
            let vaddr = VirtAddr(op.vaddr);
            let mapping = match tlbs[t].lookup(vaddr) {
                TlbLookup::HitL1(m) | TlbLookup::HitL2(m) => m,
                TlbLookup::Miss => {
                    misses.push(vaddr);
                    let wc = &mut wcs[t];
                    let walked = clock.time(&mut l.walk_cached, || space.walk_cached(vaddr, wc));
                    let m = match walked.mapping {
                        Some(m) => m,
                        None => {
                            clock
                                .time(&mut l.fault, || space.fault(vaddr, nodes[t]))
                                .expect("a walk that found no mapping can fault it in")
                                .mapping
                        }
                    };
                    tlbs[t].insert(m);
                    m
                }
            };
            maps.push(mapping);
        }
        let pass = start.elapsed().as_secs_f64();
        let timed = (l.walk_cached.calls - wc_before.calls) + (l.fault.calls - fault_before.calls);
        let sub = (l.walk_cached.secs - wc_before.secs) + (l.fault.secs - fault_before.secs);
        let tlb_busy = Busy {
            secs: pass - sub - timed as f64 * clock.outside_ns() * 1e-9,
            calls: ops.len() as u64,
        };
        l.tlb
            .add(&batch_span(spans, "vmem.translate", start, tlb_busy));
        l.tlb_misses += misses.len() as u64;

        // Uncached radix walks of the same misses (not on the engine's path).
        let start = Instant::now();
        for &v in &misses {
            black_box(space.walk(v));
        }
        let walk_busy = Busy {
            secs: start.elapsed().as_secs_f64(),
            calls: misses.len() as u64,
        };
        l.walk
            .add(&batch_span(spans, "vmem.walk", start, walk_busy));

        // Memory system.
        let start = Instant::now();
        outs.clear();
        let mut sampled = 0u64;
        for (i, (&(t, op), m)) in ops.iter().zip(&maps).enumerate() {
            let paddr = m.frame.0 + (op.vaddr - m.vbase.0);
            let core = CoreId::from(t);
            let out = if i % LEVEL_SAMPLE_EVERY == 0 {
                sampled += 1;
                let mut one = Busy::default();
                let out = clock.time(&mut one, || {
                    mem.access(core, paddr, m.node, AccessKind::Data)
                });
                l.level_timed[level_index(out.level)].add(&one);
                out
            } else {
                mem.access(core, paddr, m.node, AccessKind::Data)
            };
            l.level_calls[level_index(out.level)] += 1;
            outs.push(out);
        }
        let access_busy = Busy {
            secs: start.elapsed().as_secs_f64() - sampled as f64 * 2.0 * clock.read_ns * 1e-9,
            calls: ops.len() as u64,
        };
        l.access
            .add(&batch_span(spans, "memsys.access", start, access_busy));

        // IBS sampling.
        let start = Instant::now();
        for ((&(t, op), m), out) in ops.iter().zip(&maps).zip(&outs) {
            sampler.observe(|| IbsSample {
                vaddr: VirtAddr(op.vaddr),
                accessing_node: out.from_node,
                thread: t as u16,
                home_node: out.home_node,
                from_dram: out.dram(),
                is_store: op.is_write,
                page_size: m.size,
                walk_remote_steps: 0,
            });
        }
        let ibs_busy = Busy {
            secs: start.elapsed().as_secs_f64(),
            calls: ops.len() as u64,
        };
        l.ibs
            .add(&batch_span(spans, "profiling.ibs_observe", start, ibs_busy));

        // Page access statistics.
        let start = Instant::now();
        for &(t, op) in &ops {
            pstats.record(VirtAddr(op.vaddr), t as u16);
        }
        let ps_busy = Busy {
            secs: start.elapsed().as_secs_f64(),
            calls: ops.len() as u64,
        };
        l.pagestats.add(&batch_span(
            spans,
            "profiling.pagestats_record",
            start,
            ps_busy,
        ));
        spans.spans[epoch].end_us = spans.us(Instant::now());
    }
    spans.spans[cell_span].end_us = spans.us(Instant::now());
    for wc in &wcs {
        l.walk_cache_hits += wc.hits();
        l.walk_cache_misses += wc.misses();
    }

    // Page-statistics aggregation to the pages the space now maps.
    l.aggregate_ms.extend(
        micro_us(3, || {
            black_box(pstats.aggregate(|b| space.translate(VirtAddr(b)).map_or(b, |m| m.vbase.0)));
        })
        .iter()
        .map(|us| us / 1e3),
    );

    // Lane fork/absorb on the warmed memory system and sampler, with
    // node 0's cores as the lane.
    let lane_cores: Vec<usize> = machine
        .cores_of_node(numa_topology::NodeId(0))
        .map(|c| c.index())
        .collect();
    for _ in 0..MICRO_REPS {
        let t = Instant::now();
        let mut lane = mem.fork_lane();
        l.fork_lane_us.push(t.elapsed().as_secs_f64() * 1e6);
        let t = Instant::now();
        mem.absorb_lane(&mut lane, &lane_cores, &[0]);
        l.absorb_lane_us.push(t.elapsed().as_secs_f64() * 1e6);
        let t = Instant::now();
        let mut ibs_lane = sampler.fork_lane();
        sampler.absorb_lane(&mut ibs_lane);
        l.ibs_lane_us.push(t.elapsed().as_secs_f64() * 1e6);
    }

    // Page operations on the faulted space: khugepaged scan steps, then
    // splits of 2 MiB pages and migrations to the next node.
    l.scan_us.extend(micro_us(MICRO_REPS, || {
        black_box(space.promotion_scan(config.khugepaged_scan_limit));
    }));
    let mut huge = Vec::new();
    let mut any = Vec::new();
    space.for_each_leaf(|m| {
        if m.size == PageSize::Size2M && huge.len() < PAGE_OPS {
            huge.push(m.vbase);
        }
        if any.len() < PAGE_OPS {
            any.push((m.vbase, m.node));
        }
    });
    for v in huge {
        let t = Instant::now();
        if space.split(v).is_ok() {
            l.split_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }
    let n_nodes = machine.num_nodes();
    for (v, node) in any {
        let target = numa_topology::NodeId(((node.index() + 1) % n_nodes) as u16);
        let t = Instant::now();
        if space.migrate(v, target).is_ok() {
            l.migrate_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }
}

fn describe_cell(c: &Cell) -> String {
    format!(
        "{}/{}/{:?} seed {} shards {}",
        c.bench.name(),
        c.kind.label(),
        c.machine,
        c.seed,
        c.shards
    )
}

fn describe(u: &Unit) -> String {
    match u {
        Unit::Single(c) => format!("cell {}", describe_cell(c)),
        Unit::Family(cells) => format!("family of {} on {}", cells.len(), describe_cell(&cells[0])),
    }
}

/// One span per epoch of an observed run, under `parent`.
fn epoch_spans(spans: &mut Spans, parent: usize, run: &ObservedRun) {
    let mut prev = run.started;
    for r in &run.observer.records {
        spans.push(Some(parent), format!("epoch {}", r.epoch), prev, r.at);
        prev = r.at;
    }
    spans.push(Some(parent), "final epoch".into(), prev, run.ended);
}

/// The cell whose stream a unit replays: the cell itself, or a family's
/// probe (every family member shares its machine, workload and seed).
fn representative(unit: &Unit) -> &Cell {
    &unit.cells()[0]
}

/// Simulated counts over the observed runs (attribution on).
fn sim_counts(results: &[SimResult]) -> Vec<(&'static str, f64, &'static str)> {
    let ops: f64 = results.iter().map(|r| r.lifetime.total_ops as f64).sum();
    let weighted = |f: &dyn Fn(&SimResult) -> f64| {
        ratio(
            results
                .iter()
                .map(|r| f(r) * r.lifetime.total_ops as f64)
                .sum(),
            ops,
        )
    };
    let runtime: f64 = results.iter().map(|r| r.runtime_cycles as f64).sum();
    let bucket = |f: &dyn Fn(&profiling::CycleBreakdown) -> u64| {
        let cycles: u64 = results
            .iter()
            .filter_map(|r| r.attribution.as_ref())
            .map(|a| f(&a.total))
            .sum();
        ratio(cycles as f64, runtime)
    };
    let epochs = |f: &dyn Fn(&engine::EpochRecord) -> u64| -> f64 {
        results.iter().flat_map(|r| &r.epochs).map(f).sum::<u64>() as f64
    };
    vec![
        (
            "sim.tlb_miss_ratio",
            weighted(&|r| r.lifetime.tlb_miss_ratio),
            "ratio",
        ),
        (
            "sim.walk_miss_fraction",
            weighted(&|r| r.lifetime.walk_miss_fraction),
            "ratio",
        ),
        ("sim.lar", weighted(&|r| r.lifetime.lar), "ratio"),
        (
            "sim.imbalance_pct",
            weighted(&|r| r.lifetime.imbalance),
            "%",
        ),
        (
            "sim.ibs_samples",
            results.iter().map(|r| r.lifetime.ibs_samples as f64).sum(),
            "count",
        ),
        ("sim.migrations", epochs(&|e| e.migrations), "count"),
        ("sim.splits", epochs(&|e| e.splits), "count"),
        (
            "sim.walk_cycle_share",
            bucket(&|b| b.walk_cycles()),
            "ratio",
        ),
        ("sim.ctrl_queue_share", bucket(&|b| b.ctrl_queue), "ratio"),
        (
            "sim.dram_cycle_share",
            bucket(&|b| b.dram_cycles()),
            "ratio",
        ),
        ("sim.runtime_mcycles", runtime / 1e6, "Mcycles"),
    ]
}

/// `r` without its attribution ledger: the only thing tracing adds to a
/// result.
fn without_attribution(r: &SimResult) -> SimResult {
    SimResult {
        attribution: None,
        ..r.clone()
    }
}

/// Result of one traced resolution of a unit.
struct TracedUnit {
    results: Vec<SimResult>,
    family: Option<FamilyStats>,
    observed: Option<ObservedRun>,
}

/// Resolves `unit` with tracing hooks on.
fn resolve_traced(unit: &Unit, ckpt_epoch: u32) -> TracedUnit {
    match unit {
        Unit::Single(c) => {
            let run = observe(c, ckpt_epoch);
            TracedUnit {
                results: vec![run.result.clone()],
                family: None,
                observed: Some(run),
            }
        }
        Unit::Family(cells) => {
            let r = crate::cells::run_family(cells, true);
            TracedUnit {
                results: r.results,
                family: r.family,
                observed: None,
            }
        }
    }
}

/// The traced run. Returns every per-layer metric. `lanes` is the shard
/// count the shard layer is measured at, already capped at the host's
/// core count.
pub fn run(
    w: &Workload,
    seconds: f64,
    seed: u64,
    lanes: u32,
    gate: &mut Gate,
    info: &mut Vec<(String, String)>,
) -> Vec<Metric> {
    let mut spans = Spans {
        t0: Instant::now(),
        spans: Vec::new(),
    };
    let t0 = spans.t0;
    let root = spans.push(None, format!("run {} seed {seed}", w.name), t0, t0);
    let calib_before = crate::calib::mem_ns();
    warm_up(w, gate);

    // Checkpoint epoch per unit: half-way through the run.
    let ckpt_epochs: Vec<u32> = w
        .units
        .iter()
        .map(|u| (representative(u).epochs() / 2).max(1))
        .collect();
    // The shard layer's effect: the same cells at the other shard count.
    // A sharded workload is compared against its cells at one shard; a
    // 1-shard workload of plain cells against its cells at `lanes`
    // shards, whose results must equal the references as well. Fork-tree
    // families take their shards from the lane pool, which stays empty.
    let sharded = w.max_shards() > 1;
    let plain = w.units.iter().all(|u| matches!(u, Unit::Single(_)));
    let other_shards = if sharded {
        Some(1)
    } else {
        (plain && lanes > 1).then_some(lanes)
    };
    let other = other_shards.map(|n| Workload {
        name: w.name,
        units: w.units.iter().map(|u| u.at_shards(n)).collect(),
    });

    // Part 1: passes.
    let mut untraced: Vec<Rep> = Vec::new();
    let mut traced_walls = Vec::new();
    let mut other_walls = Vec::new();
    let mut pass_walls = Vec::new();
    let mut first_traced: Option<Vec<Option<TracedUnit>>> = None;
    let t0 = Instant::now();
    while another_fits(
        pass_walls.len(),
        t0.elapsed().as_secs_f64(),
        &pass_walls,
        seconds,
    ) {
        let pass_start = Instant::now();
        let (rep, _, _) = timed_rep(w, gate);
        spans.push(
            Some(root),
            "untraced pass".into(),
            pass_start,
            Instant::now(),
        );
        untraced.push(rep);

        let start = Instant::now();
        let traced: Vec<(Result<TracedUnit, String>, Instant, Instant)> = w
            .units
            .iter()
            .zip(&ckpt_epochs)
            .map(|(u, &e)| {
                let t = Instant::now();
                (caught(|| resolve_traced(u, e)), t, Instant::now())
            })
            .collect();
        let end = Instant::now();
        let pass = spans.push(Some(root), "traced pass".into(), start, end);
        traced_walls.push((end - start).as_secs_f64());
        let mut kept = Vec::new();
        for (i, (outcome, t_start, t_end)) in traced.into_iter().enumerate() {
            let unit = spans.push(Some(pass), describe(&w.units[i]), t_start, t_end);
            let t = match outcome {
                Ok(t) => t,
                Err(e) => {
                    gate.check(w, i, &Err(e));
                    kept.push(None);
                    continue;
                }
            };
            let plain = Resolved {
                results: t.results.iter().map(without_attribution).collect(),
                family: t.family,
            };
            gate.check(w, i, &Ok(plain));
            if let Some(run) = &t.observed {
                epoch_spans(&mut spans, unit, run);
            }
            kept.push(Some(t));
        }
        first_traced.get_or_insert(kept);

        if let (Some(other), Some(n)) = (&other, other_shards) {
            let start = Instant::now();
            let (rep, _, _) = timed_rep(other, gate);
            spans.push(Some(root), format!("{n}-shard pass"), start, Instant::now());
            other_walls.push(rep.wall);
        }
        pass_walls.push(pass_start.elapsed().as_secs_f64());
    }
    let traced_units = first_traced.unwrap_or_default();
    let mut family_stats = FamilyStats::default();
    for s in traced_units
        .iter()
        .flatten()
        .filter_map(|t| t.family.as_ref())
    {
        family_stats.absorb(s);
    }

    // Part 2: boundary analysis of every unit's observed run. A family's
    // probe has none from the traced pass, so it runs observed here and
    // must reproduce its reference result too. The simulated counts are
    // taken over these runs, which all have attribution on.
    let mut layers = Layers::default();
    let mut observed_results: Vec<SimResult> = Vec::new();
    let clock = Clock::measure();
    for (i, unit) in w.units.iter().enumerate() {
        let cell = representative(unit);
        let from_pass = traced_units
            .get(i)
            .and_then(|t| t.as_ref()?.observed.as_ref());
        if let Some(run) = from_pass {
            analyse_boundaries(cell, run, &mut layers);
            observed_results.push(run.result.clone());
            continue;
        }
        let outcome = caught(|| observe(cell, ckpt_epochs[i]));
        // The fork tree labels its results with the cell's label.
        let label = cell.cell_spec("fork_sweep").policy_label();
        let plain = outcome.as_ref().map_err(Clone::clone).map(|r| SimResult {
            policy: label,
            ..without_attribution(&r.result)
        });
        gate.check_first(w, i, &plain);
        if let Ok(run) = outcome {
            let span = spans.push(
                Some(root),
                format!("observed probe {}", describe_cell(cell)),
                run.started,
                run.ended,
            );
            epoch_spans(&mut spans, span, &run);
            analyse_boundaries(cell, &run, &mut layers);
            observed_results.push(run.result);
        }
    }
    // Part 3: layer replays.
    let replays = spans.push(
        Some(root),
        "layer replays".into(),
        Instant::now(),
        Instant::now(),
    );
    for unit in &w.units {
        replay(
            representative(unit),
            clock,
            &mut layers,
            &mut spans,
            replays,
        );
    }
    spans.spans[replays].end_us = spans.us(Instant::now());
    let calib_after = crate::calib::mem_ns();
    spans.spans[root].end_us = spans.us(Instant::now());

    // Metrics.
    let untraced_wall = median(&untraced.iter().map(|r| r.wall).collect::<Vec<_>>());
    let untraced_cpu = median(&untraced.iter().map(|r| r.cpu).collect::<Vec<_>>());
    let l = &layers;
    let mut o = Out::default();
    o.put("workloads.setup_us", median(&l.setup_us), "us");
    o.put("workloads.gen_ns_per_op", l.gen.ns_per_call(), "ns");
    o.put("vmem.tlb_lookup_ns", l.tlb.ns_per_call(), "ns");
    let tlb_hits = 1.0 - ratio(l.tlb_misses as f64, l.tlb.calls as f64);
    o.put("vmem.tlb_hit_ratio", tlb_hits, "ratio");
    o.put("vmem.walk_cached_ns", l.walk_cached.ns_per_call(), "ns");
    let wc_lookups = l.walk_cache_hits + l.walk_cache_misses;
    let wc_hits = ratio(l.walk_cache_hits as f64, wc_lookups as f64);
    o.put("vmem.walk_cache_hit_ratio", wc_hits, "ratio");
    o.put("vmem.walk_ns", l.walk.ns_per_call(), "ns");
    o.put("vmem.fault_ns", l.fault.ns_per_call(), "ns");
    let no_huge = "no 2 MiB pages in the replayed space (4 KiB policy)";
    o.median_or("vmem.split_us", &l.split_us, "us", no_huge);
    o.median_or(
        "vmem.migrate_us",
        &l.migrate_us,
        "us",
        "no page could migrate",
    );
    o.put("vmem.promotion_scan_us", median(&l.scan_us), "us");
    o.put("memsys.access_ns", l.access.ns_per_call(), "ns");
    let levels = [
        "memsys.access_ns.l1",
        "memsys.access_ns.l2",
        "memsys.access_ns.l3",
        "memsys.access_ns.dram",
    ];
    for (name, ns) in levels.into_iter().zip(l.access_ns_by_level()) {
        if ns.is_none() {
            o.omit(&[name], "no timed access was serviced at this level");
        }
        o.put(name, ns.unwrap_or(0.0), "ns");
    }
    let dram = ratio(l.level_calls[3] as f64, l.access.calls as f64);
    o.put("memsys.dram_ratio", dram, "ratio");
    o.put("memsys.fork_lane_us", median(&l.fork_lane_us), "us");
    o.put("memsys.absorb_lane_us", median(&l.absorb_lane_us), "us");
    o.put("profiling.ibs_observe_ns", l.ibs.ns_per_call(), "ns");
    o.put(
        "profiling.pagestats_record_ns",
        l.pagestats.ns_per_call(),
        "ns",
    );
    o.put(
        "profiling.pagestats_aggregate_ms",
        median(&l.aggregate_ms),
        "ms",
    );
    o.put("profiling.ibs_lane_us", median(&l.ibs_lane_us), "us");
    let no_boundary = "no epoch boundary";
    o.median_or("core.decision_us", &l.decision_us, "us", no_boundary);
    let actions = ratio(l.actions.iter().sum(), l.actions.len() as f64);
    o.put("core.actions_per_epoch", actions, "count");
    o.median_or("core.lar_estimate_us", &l.lar_us, "us", no_boundary);
    o.median_or("engine.epoch_ms", &l.epoch_ms, "ms", no_boundary);
    let epoch_max = l.epoch_ms.iter().copied().fold(0.0, f64::max);
    o.put("engine.epoch_ms_max", epoch_max, "ms");
    o.median_or("engine.prelude_ms", &l.prelude_ms, "ms", no_boundary);
    o.put("engine.boundaries", l.boundaries as f64, "count");
    let no_ckpt = "no run reached the checkpoint epoch";
    o.median_or("engine.ckpt_encode_us", &l.ckpt_encode_us, "us", no_ckpt);
    o.median_or("engine.ckpt_decode_us", &l.ckpt_decode_us, "us", no_ckpt);
    o.median_or("engine.ckpt_bytes", &l.ckpt_bytes, "bytes", no_ckpt);
    o.put("engine.result_codec_us", median(&l.result_codec_us), "us");
    let (speedup, shards) = if other_walls.is_empty() {
        let why = if plain {
            "the host has one core"
        } else {
            "fork-tree families run at one shard (empty lane pool)"
        };
        o.omit(&["engine.lane_speedup", "engine.lane_efficiency"], why);
        (0.0, 1)
    } else if sharded {
        (median(&other_walls) / untraced_wall, w.max_shards())
    } else {
        (untraced_wall / median(&other_walls), lanes)
    };
    o.put("engine.lane_speedup", speedup, "x");
    let efficiency = speedup / f64::from(shards);
    o.put("engine.lane_efficiency", efficiency, "ratio");

    let fs = &family_stats;
    let resolved = fs.epochs_simulated + fs.epochs_reused;
    let family_metrics = [
        ("forktree.probe_s", fs.probe_secs, "s"),
        ("forktree.replay_s", fs.replay_secs, "s"),
        ("forktree.resume_s", fs.resume_secs, "s"),
        ("forktree.clone_s", fs.clone_secs, "s"),
        ("forktree.scratch_s", fs.scratch_secs, "s"),
        (
            "forktree.epochs_simulated",
            fs.epochs_simulated as f64,
            "count",
        ),
        ("forktree.epochs_reused", fs.epochs_reused as f64, "count"),
        ("forktree.forks", fs.forks as f64, "count"),
        ("forktree.full_matches", fs.full_matches as f64, "count"),
        ("forktree.scratch", fs.scratch as f64, "count"),
        (
            "forktree.reuse_ratio",
            ratio(fs.epochs_reused as f64, resolved as f64),
            "ratio",
        ),
    ];
    if fs.cells == 0 {
        let names: Vec<_> = family_metrics.iter().map(|f| f.0).collect();
        o.omit(&names, "this workload resolves no fork-tree family");
    }
    for (name, value, unit) in family_metrics
        .into_iter()
        .chain(sim_counts(&observed_results))
    {
        o.put(name, value, unit);
    }
    let overhead = (median(&traced_walls) / untraced_wall - 1.0) * 100.0;
    o.put("trace.overhead_pct", overhead, "%");
    o.put(
        "trace.layer_coverage",
        ratio(l.engine_path_secs(), untraced_cpu),
        "ratio",
    );
    o.put(
        "host.calib_mem_ns",
        (calib_before + calib_after) / 2.0,
        "ns",
    );

    // The trace file and the run notes.
    let counts: Vec<(String, f64)> = o.m.iter().map(|x| (x.name.clone(), x.value)).collect();
    let path = format!("perfbench/out/trace-{}-seed{seed}.json", w.name);
    let written = std::fs::create_dir_all("perfbench/out")
        .and_then(|_| std::fs::write(&path, spans.to_json(w.name, seed, &counts)));
    if let Err(e) = &written {
        eprintln!("perfbench: could not write {path}: {e}");
    }
    info.push((
        "trace_file".into(),
        json_str(if written.is_ok() { &path } else { "" }),
    ));
    info.push(("passes".into(), untraced.len().to_string()));
    info.push((
        "clock_ns".into(),
        format!(
            "{{\"read\": {:.2}, \"empty_interval\": {:.2}}}",
            clock.read_ns, clock.empty_ns
        ),
    ));
    if let Some((p, v)) = tail_percentile(&l.epoch_ms) {
        info.push((
            "engine.epoch_ms_tail".into(),
            format!(
                "{{\"percentile\": {p:.2}, \"ms\": {v:.4}, \"samples\": {}}}",
                l.epoch_ms.len()
            ),
        ));
    }
    info.push((
        "host.calib_mem_ns".into(),
        format!("[{calib_before:.3},{calib_after:.3}]"),
    ));
    let omitted: Vec<String> = o
        .omitted
        .iter()
        .map(|(k, why)| format!("{}: {}", json_str(k), json_str(why)))
        .collect();
    info.push(("omitted".into(), format!("{{{}}}", omitted.join(", "))));
    o.m
}

/// The per-layer metrics being built, and the ones that do not apply to
/// this workload (reported as 0) with the reason.
#[derive(Default)]
struct Out {
    m: Vec<Metric>,
    omitted: Vec<(&'static str, String)>,
}

impl Out {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.m.push(Metric::new(name, value, unit));
    }

    fn omit(&mut self, names: &[&'static str], why: &str) {
        self.omitted
            .extend(names.iter().map(|&n| (n, why.to_string())));
    }

    /// The median of `v`; 0, omitted because `why`, when `v` is empty.
    fn median_or(&mut self, name: &'static str, v: &[f64], unit: &'static str, why: &str) {
        if v.is_empty() {
            self.omit(&[name], why);
            self.put(name, 0.0, unit);
        } else {
            self.put(name, median(v), unit);
        }
    }
}
