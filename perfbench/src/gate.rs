//! The correctness gate. A cell fails when its resolution panics or when
//! its result is wrong:
//! * a golden cell must reproduce the checked-in `runtime_cycles`;
//! * every cell must reproduce, byte for byte, its reference result — the
//!   untimed warm-up run, made at one shard for cells that run sharded;
//! * a fork-tree family must account for every epoch exactly once.

use crate::cells::{golden_runtime, Cell, Resolved, Workload};
use carrefour_bench::forktree::FamilyStats;
use engine::checkpoint::encode_result;
use engine::SimResult;

/// What one cell's result must match.
#[derive(Clone, Debug, Default)]
pub struct Expect {
    /// Golden `runtime_cycles`, for golden cells.
    pub golden: Option<Result<u64, String>>,
    /// Encoded reference result, once the warm-up has produced it.
    pub reference: Option<Vec<u8>>,
}

/// Checks one result against what it must match.
pub fn verdict(expect: &Expect, result: &SimResult) -> Result<(), String> {
    match &expect.golden {
        Some(Ok(cycles)) if *cycles != result.runtime_cycles => {
            return Err(format!(
                "runtime_cycles {} != golden {cycles}",
                result.runtime_cycles
            ))
        }
        Some(Err(e)) => return Err(format!("golden digest unreadable: {e}")),
        _ => {}
    }
    match &expect.reference {
        Some(bytes) if *bytes != encode_result(result) => {
            Err("result differs from the cell's reference result".into())
        }
        _ => Ok(()),
    }
}

/// `epochs_simulated + epochs_reused` must equal the epochs the family's
/// results hold.
pub fn family_accounts(stats: &FamilyStats, results: &[SimResult]) -> Result<(), String> {
    let epochs: u64 = results.iter().map(|r| r.epochs.len() as u64).sum();
    let counted = stats.epochs_simulated + stats.epochs_reused;
    if counted == epochs {
        Ok(())
    } else {
        Err(format!(
            "fork tree counted {counted} epochs (simulated {} + reused {}), results hold {epochs}",
            stats.epochs_simulated, stats.epochs_reused
        ))
    }
}

/// Per-cell expectations plus the attempted / failed tally.
pub struct Gate {
    /// `expect[unit][cell]`.
    expect: Vec<Vec<Expect>>,
    pub attempted: u64,
    pub failed: u64,
    /// One line per failure, for the report.
    pub failures: Vec<String>,
}

impl Gate {
    pub fn new(w: &Workload) -> Self {
        let expect = w
            .units
            .iter()
            .map(|u| {
                u.cells()
                    .iter()
                    .map(|c| Expect {
                        golden: c.golden().map(golden_runtime),
                        reference: None,
                    })
                    .collect()
            })
            .collect();
        Gate {
            expect,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
        }
    }

    /// Stores `results` as unit `unit`'s reference results.
    pub fn set_reference(&mut self, unit: usize, results: &[SimResult]) {
        for (e, r) in self.expect[unit].iter_mut().zip(results) {
            e.reference = Some(encode_result(r));
        }
    }

    /// Counts one cell's verdict.
    fn record(&mut self, c: &Cell, verdict: Result<(), String>) -> bool {
        self.attempted += 1;
        let Err(msg) = verdict else {
            return true;
        };
        self.failed += 1;
        self.failures.push(format!(
            "{}/{}/{:?} seed {}: {msg}",
            c.bench.name(),
            c.kind.label(),
            c.machine,
            c.seed
        ));
        false
    }

    /// Counts one resolution of unit `unit`: `Err` carries a panic
    /// message. Returns whether every cell passed.
    pub fn check(&mut self, w: &Workload, unit: usize, outcome: &Result<Resolved, String>) -> bool {
        let cells = w.units[unit].cells();
        let verdicts: Vec<Result<(), String>> = match outcome {
            Err(msg) => vec![Err(format!("panicked: {msg}")); cells.len()],
            Ok(r) if r.results.len() != cells.len() => {
                vec![Err("missing result".into()); cells.len()]
            }
            Ok(r) => {
                let family = r
                    .family
                    .as_ref()
                    .map_or(Ok(()), |s| family_accounts(s, &r.results));
                self.expect[unit]
                    .iter()
                    .zip(&r.results)
                    .map(|(e, res)| verdict(e, res).and(family.clone()))
                    .collect()
            }
        };
        cells
            .iter()
            .zip(verdicts)
            .fold(true, |all, (c, v)| self.record(c, v) && all)
    }

    /// Counts one run of unit `unit`'s first cell on its own (a family's
    /// probe run outside the fork tree).
    pub fn check_first(
        &mut self,
        w: &Workload,
        unit: usize,
        outcome: &Result<SimResult, String>,
    ) -> bool {
        let v = match outcome {
            Err(msg) => Err(format!("panicked: {msg}")),
            Ok(r) => verdict(&self.expect[unit][0], r),
        };
        self.record(&w.units[unit].cells()[0], v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cells::{workload, Unit};
    use std::sync::OnceLock;

    /// The cheapest golden cell's real result (UA.B on machine A), run
    /// once for all tests.
    fn golden_result() -> (Workload, SimResult) {
        static RESULT: OnceLock<SimResult> = OnceLock::new();
        let w = workload("lp_thp", 7, 1).unwrap();
        let Unit::Single(cell) = &w.units[1] else {
            panic!("lp_thp's second unit is UA.B/A")
        };
        assert!(cell.golden().is_some());
        let r = RESULT.get_or_init(|| cell.run()).clone();
        (w, r)
    }

    #[test]
    fn a_perturbed_golden_runtime_fails_the_cell() {
        let (w, r) = golden_result();
        let mut gate = Gate::new(&w);
        let ok = Ok(Resolved {
            results: vec![r.clone()],
            family: None,
        });
        assert!(gate.check(&w, 1, &ok), "{:?}", gate.failures);
        assert_eq!((gate.attempted, gate.failed), (1, 0));

        gate.expect[1][0].golden = Some(Ok(r.runtime_cycles + 1));
        assert!(!gate.check(&w, 1, &ok));
        assert_eq!((gate.attempted, gate.failed), (2, 1));
    }

    #[test]
    fn a_changed_result_or_a_panic_fails_the_cell() {
        let (w, r) = golden_result();
        let mut gate = Gate::new(&w);
        gate.set_reference(1, std::slice::from_ref(&r));
        let mut changed = r.clone();
        changed.lifetime.total_ops += 1;
        let outcome = Ok(Resolved {
            results: vec![changed],
            family: None,
        });
        assert!(!gate.check(&w, 1, &outcome));
        assert!(!gate.check(&w, 1, &Err("boom".into())));
        assert_eq!((gate.attempted, gate.failed), (2, 2));
    }

    #[test]
    fn a_family_must_account_for_every_epoch() {
        let (_, r) = golden_result();
        let n = r.epochs.len() as u64;
        let stats = FamilyStats {
            epochs_simulated: n,
            epochs_reused: n,
            ..FamilyStats::default()
        };
        let two = [r.clone(), r];
        assert!(family_accounts(&stats, &two).is_ok());
        assert!(family_accounts(&stats, &two[..1]).is_err());
    }
}
