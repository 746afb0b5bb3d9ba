//! Host diagnostic `host.calib_mem_ns`: the latency of a fixed chain of
//! dependent reads through a 32 MiB buffer — past any private cache, so
//! it lands in the shared last-level cache or DRAM, where neighbours on
//! the host contend. It is recorded beside every run and never divided
//! into a metric; it only lets a reader tell host drift from a program
//! change.

use std::time::Instant;

/// 32 MiB of `u32` slots (a power of two, for the full-period chain).
const SLOTS: u32 = 8 << 20;
/// Dependent reads per measurement.
const READS: usize = 1 << 20;

/// Nanoseconds per dependent read. The chain is the same on every run:
/// slot `i` holds `(a·i + c) mod SLOTS`, an LCG with `a ≡ 1 (mod 4)` and
/// odd `c`, which visits every slot once per cycle in a scattered order.
pub fn mem_ns() -> f64 {
    const A: u32 = 1_103_515_245;
    const C: u32 = 12_345;
    let next: Vec<u32> = (0..SLOTS)
        .map(|i| A.wrapping_mul(i).wrapping_add(C) & (SLOTS - 1))
        .collect();
    let mut at = 0u32;
    // One untimed lap warms the TLB and page tables for the buffer.
    for _ in 0..READS {
        at = next[at as usize];
    }
    let t = Instant::now();
    for _ in 0..READS {
        at = next[at as usize];
    }
    let ns = t.elapsed().as_nanos() as f64 / READS as f64;
    std::hint::black_box(at);
    ns
}
