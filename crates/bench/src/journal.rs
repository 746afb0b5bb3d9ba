//! The append-only cell journal behind `all_experiments --resume`.
//!
//! Every completed cell is appended to `results/journal_<suite>.jsonl` as
//! one self-contained JSON line the moment its worker finishes, so a
//! crashed or killed suite loses at most the cells that were still in
//! flight. A later `--resume` run loads the journal, keeps every decodable
//! `"ok"` line, and re-runs only the missing or failed cells — the
//! simulator is deterministic, so splicing journaled results with freshly
//! computed ones reproduces the uninterrupted run byte for byte.
//!
//! Line formats (one JSON object per line):
//!
//! ```text
//! {"key":"…","status":"ok","machine":"…","benchmark":"…","policy":"…",
//!  "wall_secs":1.234,"blob":"<hex ckpt-v1 result codec>"}
//! {"key":"…","status":"panicked","msg":"…"}
//! ```
//!
//! `key` is [`CellSpec::key`] — the runner's dedup identity, covering
//! machine, workload, policy, seed override, and fault plan. `blob` is the
//! checksummed [`engine::checkpoint::encode_result`] encoding of the
//! [`SimResult`], hex-armored so the line stays greppable text. Torn or
//! corrupt lines (a crash mid-append, a truncated disk) fail the checksum
//! or the parse and are simply ignored: those cells re-run. When the same
//! key appears twice, the later line wins.
//!
//! [`CellSpec::key`]: crate::runner::CellSpec::key
//! [`SimResult`]: engine::SimResult

use crate::runner::TimedCell;
use crate::Cell;
use codec::esc;
use codec::json::{f64_field, str_field};
use std::collections::HashMap;
use std::io::Write;
use std::path::PathBuf;
use std::sync::Mutex;

/// A journaled result for one completed cell.
pub struct JournaledCell {
    /// The result row, decoded from the journal blob.
    pub cell: Cell,
    /// Host seconds the original run spent on this cell.
    pub wall_secs: f64,
}

/// An append-only journal writer. Thread-safe: workers append from the
/// pool, each line flushed immediately.
pub struct Journal {
    file: Mutex<std::fs::File>,
    path: PathBuf,
}

/// The journal path for a suite name (`results/journal_<suite>.jsonl`).
pub fn journal_path(suite: &str) -> PathBuf {
    PathBuf::from("results").join(format!("journal_{suite}.jsonl"))
}

impl Journal {
    /// Opens the suite's journal for appending, creating `results/` and the
    /// file as needed. `Err` is the underlying io::Error (callers warn and
    /// run without a journal rather than aborting the suite).
    pub fn open_append(suite: &str) -> std::io::Result<Journal> {
        std::fs::create_dir_all("results")?;
        let path = journal_path(suite);
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)?;
        Ok(Journal {
            file: Mutex::new(file),
            path,
        })
    }

    /// Appends one completed cell. Write errors warn on stderr — the suite
    /// keeps running, it just loses resumability for this cell.
    pub fn record_ok(&self, key: &str, timed: &TimedCell) {
        let blob = codec::to_hex(&engine::checkpoint::encode_result(&timed.cell.result));
        let line = format!(
            "{{\"key\":\"{}\",\"status\":\"ok\",\"machine\":\"{}\",\"benchmark\":\"{}\",\"policy\":\"{}\",\"wall_secs\":{},\"blob\":\"{}\"}}",
            esc(key),
            esc(&timed.cell.machine),
            esc(&timed.cell.benchmark),
            esc(&timed.cell.policy),
            timed.wall_secs,
            blob,
        );
        self.append(&line);
    }

    /// Appends one failed cell, so `--resume` knows to re-run it and the
    /// post-mortem has the panic message next to the cell key.
    pub fn record_panicked(&self, key: &str, msg: &str) {
        let line = format!(
            "{{\"key\":\"{}\",\"status\":\"panicked\",\"msg\":\"{}\"}}",
            esc(key),
            esc(msg),
        );
        self.append(&line);
    }

    fn append(&self, line: &str) {
        let mut f = self.file.lock().unwrap();
        if let Err(e) = writeln!(f, "{line}").and_then(|()| f.flush()) {
            crate::logx::warn(&format!("could not append to {}: {e}", self.path.display()));
        }
    }
}

/// Loads every decodable `"ok"` cell from a suite's journal, keyed by
/// [`CellSpec::key`], plus the number of *stale* lines that were
/// superseded by a later line for the same key (the later-line-wins rule
/// firing). A missing file means an empty map (a fresh run). Torn,
/// corrupt, or failed lines are skipped. A crash between append and kill
/// can journal a cell twice, and a retry after a panic line legitimately
/// re-journals the key — the count lets `--resume` report how much of
/// the journal it discarded rather than silently folding duplicates.
///
/// [`CellSpec::key`]: crate::runner::CellSpec::key
pub fn load_counted(suite: &str) -> (HashMap<String, JournaledCell>, usize) {
    match std::fs::read_to_string(journal_path(suite)) {
        Ok(text) => load_from_str(&text),
        Err(_) => (HashMap::new(), 0),
    }
}

/// The parser behind [`load_counted`], split out so tests can feed it
/// torn and duplicated lines directly.
fn load_from_str(text: &str) -> (HashMap<String, JournaledCell>, usize) {
    let mut out = HashMap::new();
    let mut stale = 0usize;
    for line in text.lines() {
        let Some((key, status)) = key_and_status(line) else {
            continue;
        };
        match status.as_str() {
            "ok" => {
                let Some(blob) = str_field(line, "blob") else {
                    continue;
                };
                let Some(bytes) = codec::from_hex(&blob) else {
                    continue;
                };
                let Some(result) = engine::checkpoint::decode_result(&bytes) else {
                    continue; // torn line: checksum failed, cell re-runs
                };
                let (Some(machine), Some(benchmark), Some(policy)) = (
                    str_field(line, "machine"),
                    str_field(line, "benchmark"),
                    str_field(line, "policy"),
                ) else {
                    continue;
                };
                let wall_secs = f64_field(line, "wall_secs").unwrap_or(0.0);
                let prev = out.insert(
                    key,
                    JournaledCell {
                        cell: Cell {
                            machine,
                            benchmark,
                            policy,
                            result,
                        },
                        wall_secs,
                    },
                );
                stale += usize::from(prev.is_some());
            }
            // A later failure line invalidates an earlier success for the
            // same key (it should not happen, but the newest verdict wins).
            _ => {
                stale += usize::from(out.remove(&key).is_some());
            }
        }
    }
    (out, stale)
}

/// Counts a journal's `(ok, failed)` lines by their `status`, read the
/// way [`load_counted`] reads it. Unlike the loader it does not decode
/// blobs: an `"ok"` line counts even when its blob is torn.
pub fn outcome_counts(text: &str) -> (usize, usize) {
    let mut counts = (0, 0);
    for (_, status) in text.lines().filter_map(key_and_status) {
        if status == "ok" {
            counts.0 += 1;
        } else {
            counts.1 += 1;
        }
    }
    counts
}

/// A journal line's `(key, status)`; `None` when either is missing.
fn key_and_status(line: &str) -> Option<(String, String)> {
    Some((str_field(line, "key")?, str_field(line, "status")?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::OnceLock;

    /// One valid journal line for `key`, exactly as [`Journal::record_ok`]
    /// writes it (same format string, no file involved).
    fn ok_line(key: &str, result: &engine::SimResult, wall_secs: f64) -> String {
        let blob = codec::to_hex(&engine::checkpoint::encode_result(result));
        format!(
            "{{\"key\":\"{}\",\"status\":\"ok\",\"machine\":\"m\",\"benchmark\":\"b\",\"policy\":\"p\",\"wall_secs\":{},\"blob\":\"{}\"}}",
            esc(key),
            wall_secs,
            blob,
        )
    }

    fn small_result() -> engine::SimResult {
        crate::run_cell(
            &numa_topology::MachineSpec::test_machine(),
            workloads::Benchmark::EpC,
            crate::PolicyKind::Linux4k,
        )
    }

    #[test]
    fn torn_lines_are_skipped_and_cells_rerun() {
        let r = small_result();
        let good = ok_line("cell-a", &r, 1.0);
        // Torn mid-blob (crash during append): checksum fails, line drops.
        let torn = &good[..good.len() / 2];
        // Torn so early the key survives but the blob field is gone.
        let no_blob = "{\"key\":\"cell-b\",\"status\":\"ok\",\"machine\":\"m";
        let text = format!("{torn}\n{no_blob}\n{good}\n");
        let (map, stale) = load_from_str(&text);
        assert_eq!(map.len(), 1, "only the complete line loads");
        assert!(map.contains_key("cell-a"));
        assert_eq!(stale, 0, "torn lines are dropped, not superseded");
    }

    #[test]
    fn later_duplicate_wins_and_is_counted() {
        let r = small_result();
        let text = format!(
            "{}\n{}\n{}\n",
            ok_line("cell-a", &r, 1.0),
            ok_line("cell-b", &r, 5.0),
            ok_line("cell-a", &r, 2.0),
        );
        let (map, stale) = load_from_str(&text);
        assert_eq!(map.len(), 2);
        assert_eq!(map["cell-a"].wall_secs, 2.0, "the later line wins");
        assert_eq!(stale, 1, "one earlier line was superseded");
    }

    #[test]
    fn late_failure_line_invalidates_and_is_counted() {
        let r = small_result();
        let text = format!(
            "{}\n{{\"key\":\"cell-a\",\"status\":\"panicked\",\"msg\":\"boom\"}}\n",
            ok_line("cell-a", &r, 1.0),
        );
        let (map, stale) = load_from_str(&text);
        assert!(map.is_empty(), "the newest verdict is a failure");
        assert_eq!(stale, 1);
        assert_eq!(outcome_counts(&text), (1, 1));
        // A failure for a key never journaled ok counts nothing.
        let (_, stale2) =
            load_from_str("{\"key\":\"ghost\",\"status\":\"panicked\",\"msg\":\"x\"}\n");
        assert_eq!(stale2, 0);
    }

    /// A two-cell journal and the encoded result both of its lines carry.
    fn sample_journal() -> &'static (String, Vec<u8>) {
        static SAMPLE: OnceLock<(String, Vec<u8>)> = OnceLock::new();
        SAMPLE.get_or_init(|| {
            let r = small_result();
            let text = format!(
                "{}\n{}\n",
                ok_line("cell-a", &r, 1.0),
                ok_line("cell-b", &r, 2.0)
            );
            (text, engine::checkpoint::encode_result(&r))
        })
    }

    /// Loads damaged journal text: it must not panic, and every cell it
    /// keeps must come from a blob whose checksum verified — the original
    /// result, bit for bit.
    fn load_damaged(text: &str) -> HashMap<String, JournaledCell> {
        let (map, _) = load_from_str(text);
        for j in map.values() {
            let bytes = engine::checkpoint::encode_result(&j.cell.result);
            assert!(bytes == sample_journal().1, "a corrupt blob was loaded");
        }
        map
    }

    proptest! {
        #[test]
        fn truncated_journal_loads_only_whole_lines(cut in 0usize..sample_journal().0.len()) {
            let text = &sample_journal().0;
            let map = load_damaged(&text[..cut]);
            // A line loads once its blob's closing quote survives the cut.
            let blob_ends: Vec<usize> = text.match_indices("\"}").map(|(i, _)| i + 1).collect();
            prop_assert_eq!(map.contains_key("cell-a"), cut >= blob_ends[0]);
            prop_assert_eq!(map.contains_key("cell-b"), cut >= blob_ends[1]);
        }

        #[test]
        fn bit_flipped_journal_never_panics(pos in 0usize..sample_journal().0.len(), bit in 0u32..8) {
            let mut bytes = sample_journal().0.clone().into_bytes();
            bytes[pos] ^= 1 << bit;
            load_damaged(&String::from_utf8_lossy(&bytes));
        }

        #[test]
        fn random_bytes_never_panic(seed in 0u64..u64::MAX, len in 0usize..512) {
            let mut rng = CaseRng::new("journal-bytes", seed);
            let bytes: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            prop_assert!(load_damaged(&String::from_utf8_lossy(&bytes)).is_empty());
            // Random bytes spliced into a valid journal.
            let mut spliced = sample_journal().0.clone().into_bytes();
            let at = (seed as usize) % spliced.len();
            spliced.splice(at..at, bytes);
            load_damaged(&String::from_utf8_lossy(&spliced));
        }
    }
}
