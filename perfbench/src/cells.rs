//! The four workloads: which cells each one resolves, and how.
//!
//! `BENCHMARK.json` lists `tlb_walk_4k` and `fork_sweep`, the two that
//! together reach every layer. `lp_thp` and `lanes2` stay runnable by
//! name for manual untraced and traced runs: the host's speed drifts
//! over minutes, and only two workloads leave room in the benchmark's
//! time budget for windows long enough to average that drift out.

use carrefour::LpParams;
use carrefour_bench::forktree::{self, FamilyStats};
use carrefour_bench::golden::{golden_dir, GoldenCell};
use carrefour_bench::runner::CellSpec;
use carrefour_bench::PolicyKind;
use engine::{SimConfig, SimResult, Simulation, TraceDigest};
use numa_topology::MachineSpec;
use std::hint::black_box;
use vmem::AddressSpace;
use workloads::{Benchmark, WorkloadGen};

/// Seed of the checked-in golden digests. Cells that are checked against
/// a golden `runtime_cycles` always run at this seed.
pub const GOLDEN_SEED: u64 = 42;

/// Every workload name; `BENCHMARK.json` lists the first and the third.
pub const NAMES: [&str; 4] = ["tlb_walk_4k", "lp_thp", "fork_sweep", "lanes2"];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Machine {
    A,
    B,
}

impl Machine {
    /// Builds the machine model (part of every cell's set-up cost).
    pub fn spec(self) -> MachineSpec {
        match self {
            Machine::A => MachineSpec::machine_a(),
            Machine::B => MachineSpec::machine_b(),
        }
    }
}

/// One simulation cell: (machine, benchmark, policy) at a seed and a
/// pinned shard count.
#[derive(Clone, Debug)]
pub struct Cell {
    pub machine: Machine,
    pub bench: Benchmark,
    pub kind: PolicyKind,
    /// Carrefour-LP tunables; `None` runs `kind`'s own policy.
    pub lp: Option<LpParams>,
    pub seed: u64,
    pub shards: u32,
}

impl Cell {
    fn new(machine: Machine, bench: Benchmark, kind: PolicyKind, seed: u64) -> Self {
        Cell {
            machine,
            bench,
            kind,
            lp: None,
            seed,
            shards: 1,
        }
    }

    /// The simulation config, with seed and shard count set explicitly.
    pub fn config(&self, machine: &MachineSpec) -> SimConfig {
        let mut c = SimConfig::for_machine(machine, self.kind.initial_thp());
        c.seed = self.seed;
        c.shards = self.shards;
        c
    }

    /// The runner's description of this cell, tagged into `family`.
    pub fn cell_spec(&self, family: &str) -> CellSpec {
        let mut s = CellSpec::new(self.machine.spec(), self.bench, self.kind);
        s.seed = Some(self.seed);
        s.lp_params = self.lp;
        s.family = Some(family.to_string());
        if let Some(p) = self.lp {
            s.label = Some(format!(
                "Carrefour-LP[split={},hot={}]",
                p.thresholds.split_gain_pp, p.thresholds.hot_page_fraction
            ));
        }
        s
    }

    /// The golden digest this cell must reproduce, if it is a golden cell:
    /// Carrefour-LP at its default parameters on machine A at the golden
    /// seed, for a benchmark with a checked-in digest.
    pub fn golden(&self) -> Option<GoldenCell> {
        let default_lp = self.lp.is_none_or(is_default);
        let golden = self.machine == Machine::A
            && self.seed == GOLDEN_SEED
            && self.kind == PolicyKind::CarrefourLp
            && default_lp
            && matches!(self.bench, Benchmark::CgD | Benchmark::UaB);
        golden.then_some(GoldenCell {
            bench: self.bench,
            kind: self.kind,
        })
    }

    /// Runs the cell once.
    pub fn run(&self) -> SimResult {
        let machine = self.machine.spec();
        let spec = self.bench.spec(&machine);
        let config = self.config(&machine);
        let mut policy = self.policy();
        Simulation::run(&machine, &spec, &config, policy.as_mut())
    }

    /// Epochs the cell's run closes (boundaries plus the final one).
    pub fn epochs(&self) -> u32 {
        let machine = self.machine.spec();
        let spec = self.bench.spec(&machine);
        let config = self.config(&machine);
        WorkloadGen::new(&spec, config.seed)
            .total_rounds()
            .div_ceil(config.rounds_per_epoch)
    }

    /// A fresh instance of the cell's policy.
    pub fn policy(&self) -> Box<dyn engine::NumaPolicy> {
        match self.lp {
            Some(p) => Box::new(carrefour::CarrefourLp::with_params(p)),
            None => self.kind.make(),
        }
    }

    /// Builds everything the cell needs before its first simulated op and
    /// drops it: the machine, the workload spec, the config, the policy,
    /// the workload generator and the mapped address space.
    pub fn set_up(&self) {
        let machine = self.machine.spec();
        let spec = self.bench.spec(&machine);
        let config = self.config(&machine);
        let policy = self.policy();
        let gen = WorkloadGen::new(&spec, config.seed);
        let mut space = AddressSpace::new(&machine, config.vmem);
        for r in &spec.regions {
            space
                .map_region(r.base, r.bytes)
                .expect("suite workload regions map cleanly");
        }
        black_box((&policy, &gen, &space));
    }
}

/// A unit of resolution: one cell run on its own, or a family of cells
/// resolved together through the fork tree (first cell is the probe).
#[derive(Clone, Debug)]
pub enum Unit {
    Single(Cell),
    Family(Vec<Cell>),
}

impl Unit {
    pub fn cells(&self) -> &[Cell] {
        match self {
            Unit::Single(c) => std::slice::from_ref(c),
            Unit::Family(cells) => cells,
        }
    }

    /// The same unit with every cell at `shards` shards.
    pub fn at_shards(&self, shards: u32) -> Unit {
        let pinned = |c: &Cell| Cell {
            shards,
            ..c.clone()
        };
        match self {
            Unit::Single(c) => Unit::Single(pinned(c)),
            Unit::Family(cells) => Unit::Family(cells.iter().map(pinned).collect()),
        }
    }

    /// Resolves the unit: a plain run, or `forktree::run_family`.
    pub fn resolve(&self) -> Resolved {
        match self {
            Unit::Single(c) => Resolved {
                results: vec![c.run()],
                family: None,
            },
            Unit::Family(cells) => run_family(cells, false),
        }
    }
}

/// What one resolution of a unit produced.
pub struct Resolved {
    pub results: Vec<SimResult>,
    pub family: Option<FamilyStats>,
}

/// Resolves a family through the fork tree; `digests` makes every cell
/// also compute its trace digest.
pub fn run_family(cells: &[Cell], digests: bool) -> Resolved {
    let specs: Vec<CellSpec> = cells.iter().map(|c| c.cell_spec("fork_sweep")).collect();
    let (out, stats) = forktree::run_family(&specs, digests);
    Resolved {
        results: out.into_iter().map(|c| c.result).collect(),
        family: Some(stats),
    }
}

/// A named workload and the units it resolves, in order.
pub struct Workload {
    pub name: &'static str,
    pub units: Vec<Unit>,
}

impl Workload {
    /// Every cell, in resolution order.
    pub fn cells(&self) -> impl Iterator<Item = &Cell> {
        self.units.iter().flat_map(Unit::cells)
    }

    /// The most shards any cell runs at.
    pub fn max_shards(&self) -> u32 {
        self.cells().map(|c| c.shards).max().unwrap_or(1)
    }
}

/// Whether `p` is Carrefour-LP's default parameter point. `LpParams` has
/// no `PartialEq`; its `Debug` form lists every field.
fn is_default(p: LpParams) -> bool {
    format!("{p:?}") == format!("{:?}", LpParams::default())
}

/// The `fork_sweep` family on one (machine, benchmark): Carrefour-LP over
/// `split_gain_pp` {4, 5, 6} × `hot_page_fraction` {0.05, 0.06, 0.07} at
/// the golden seed. The default point comes first, so it is the probe;
/// `order_seed` shuffles the eight siblings, which changes the order the
/// fork tree resolves them in but not what any of them computes.
fn lp_family(machine: Machine, bench: Benchmark, order_seed: u64) -> Unit {
    let default = LpParams::default();
    let mut points = vec![default];
    for split in [4.0, 5.0, 6.0] {
        for hot in [0.05, 0.06, 0.07] {
            let mut p = default;
            p.thresholds.split_gain_pp = split;
            p.thresholds.hot_page_fraction = hot;
            if !is_default(p) {
                points.push(p);
            }
        }
    }
    // Fisher-Yates over the siblings with a splitmix64 stream.
    let mut x = order_seed;
    for i in (2..points.len()).rev() {
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        let j = 1 + (z % i as u64) as usize;
        points.swap(i, j);
    }
    let cells = points
        .into_iter()
        .map(|p| Cell {
            lp: Some(p),
            ..Cell::new(machine, bench, PolicyKind::CarrefourLp, GOLDEN_SEED)
        })
        .collect();
    Unit::Family(cells)
}

/// Builds the named workload from the benchmark's `seed`.
///
/// Plain cells simulate at `seed`, except golden cells, which always run
/// at [`GOLDEN_SEED`]: the seed changes the generated access streams but
/// not how many ops a cell simulates. Fork-tree families run at
/// [`GOLDEN_SEED`] too, because which siblings fork and which match in
/// full — the work the family does — depends on the simulation seed;
/// `seed` orders their siblings instead. `lanes` is the shard count of
/// `lanes2`, already capped at the host's core count.
pub fn workload(name: &str, seed: u64, lanes: u32) -> Option<Workload> {
    use Benchmark::*;
    use Machine::*;
    use PolicyKind::*;
    let single = |m, b, k, s| Unit::Single(Cell::new(m, b, k, s));
    let units = match name {
        "tlb_walk_4k" => vec![single(A, Ssca, Linux4k, seed)],
        "lp_thp" => vec![
            single(A, CgD, CarrefourLp, GOLDEN_SEED),
            single(A, UaB, CarrefourLp, GOLDEN_SEED),
            single(B, SpecJbb, CarrefourLp, seed),
        ],
        "fork_sweep" => vec![lp_family(B, CgD, seed), lp_family(A, UaB, seed)],
        "lanes2" => [Linux4k, LinuxThp]
            .into_iter()
            .map(|k| {
                Unit::Single(Cell {
                    shards: lanes,
                    ..Cell::new(B, CgD, k, seed)
                })
            })
            .collect(),
        _ => return None,
    };
    let name = NAMES.into_iter().find(|n| *n == name)?;
    Some(Workload { name, units })
}

/// Reads the golden `runtime_cycles` of `cell` from `tests/golden/`.
pub fn golden_runtime(cell: GoldenCell) -> Result<u64, String> {
    let path = cell.path(&golden_dir());
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let digest = TraceDigest::from_json(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(digest.runtime_cycles)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn points(u: &Unit) -> Vec<String> {
        u.cells().iter().map(|c| format!("{:?}", c.lp)).collect()
    }

    #[test]
    fn the_seed_orders_family_siblings_behind_the_default_probe() {
        let a = lp_family(Machine::A, Benchmark::UaB, 1);
        let b = lp_family(Machine::A, Benchmark::UaB, 2);
        let (pa, pb) = (points(&a), points(&b));
        assert_eq!(pa.len(), 9);
        assert_eq!(pa[0], format!("{:?}", Some(LpParams::default())));
        assert_eq!(pa[0], pb[0]);
        assert_ne!(pa, pb);
        let (mut sa, mut sb) = (pa.clone(), pb.clone());
        sa.sort();
        sb.sort();
        assert_eq!(sa, sb);
        assert_eq!(points(&lp_family(Machine::A, Benchmark::UaB, 1)), pa);
        assert!(a.cells().iter().all(|c| c.seed == GOLDEN_SEED));
    }

    #[test]
    fn golden_cells_are_the_default_carrefour_lp_on_machine_a() {
        let w = workload("lp_thp", 3, 1).unwrap();
        let golden: Vec<bool> = w.cells().map(|c| c.golden().is_some()).collect();
        assert_eq!(golden, [true, true, false]);
        let w = workload("fork_sweep", 3, 1).unwrap();
        assert_eq!(w.cells().filter(|c| c.golden().is_some()).count(), 1);
    }
}
