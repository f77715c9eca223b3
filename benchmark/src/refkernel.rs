//! The frozen reference kernel every timing is divided by.
//!
//! This sandbox changes speed under one and the same binary — by a fifth,
//! for seconds at a time — so a raw wall-clock time of the simulator says as
//! much about the box as about the code.  The kernel below is a fixed amount
//! of single-threaded work with the simulator's rough instruction mix, run
//! immediately before and after every timed sample.
//! `sample / mean(ref_before, ref_after)` cancels the machine's speed;
//! multiplying by [`REF_NOMINAL_MS`] turns the ratio back into milliseconds
//! of a nominal machine.
//!
//! **Frozen.**  Every number the benchmark has ever reported is a multiple of
//! this kernel's run time.  Editing the work below, its sizes, or
//! [`REF_NOMINAL_MS`] silently rescales all of them; a change that has to
//! touch this file is a new benchmark, and the baseline is measured again.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::Instant;

/// Kernel run time on the nominal machine, milliseconds: about the median
/// this sandbox measured when the kernel was frozen.  It is a unit conversion
/// only — the gate compares ratios of normalised times, in which the
/// constant cancels.
pub const REF_NOMINAL_MS: f64 = 20.0;

// The blend was picked from two studies on this sandbox (README, "Noise
// study"), because the box has two kinds of slow.  One slows arithmetic
// throughput (a busy sibling hyperthread, a clock step): the simulator's
// samples sit on plateaus 20 % apart for seconds, and only throughput-bound
// work — independent integer chains, hashing, sorting — sees the plateaus
// (within-run correlation with the simulator 0.6–0.96; a pointer chase: 0).
// The other slows memory traffic: there a chase tracks the simulator and a
// pure ALU loop leaves 9 % between invocations.  So the kernel is mostly
// throughput-bound work, with about a sixth each of cache-missing loads and
// allocator traffic.

/// Steps of the dependent xorshift-multiply chain (latency-bound ALU).
const CHAIN_STEPS: u64 = 1_200_000;
/// Rounds of four independent xorshift streams with a data-dependent branch
/// (throughput-bound ALU).
const STREAM_ROUNDS: u64 = 1_100_000;
/// Insert / look up / remove rounds on a 64k-key hash map (SipHash).
const MAP_ROUNDS: u64 = 86_000;
/// Elements filled and sorted (branchy, cache-resident).
const SORT_ELEMENTS: usize = 72_000;
/// Entries of the pointer-chase table (`u32` indices: 4 MiB, past L2).
const CHASE_ENTRIES: usize = 1024 * 1024;
/// Pointer-chase steps.
const CHASE_STEPS: usize = 48_000;
/// Allocate/touch/free rounds.
const ALLOC_ROUNDS: usize = 59_000;
/// Live allocations kept in the ring.
const ALLOC_RING: usize = 64;

/// SipHash with fixed keys: the map's work is the same in every process.
type FixedState = BuildHasherDefault<DefaultHasher>;

/// The reference kernel with its tables built once.
pub struct RefKernel {
    table: Vec<u32>,
}

impl Default for RefKernel {
    fn default() -> Self {
        RefKernel::new()
    }
}

impl RefKernel {
    /// Build the kernel: one random cyclic permutation (Sattolo's algorithm
    /// under a fixed xorshift stream), so the chase visits every entry and
    /// the hardware prefetcher cannot follow it.
    pub fn new() -> Self {
        let mut table: Vec<u32> = (0..CHASE_ENTRIES as u32).collect();
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for i in (1..CHASE_ENTRIES).rev() {
            state = xorshift(state);
            let j = (state % i as u64) as usize;
            table.swap(i, j);
        }
        RefKernel { table }
    }

    /// Run the kernel once; returns its wall time in milliseconds.
    pub fn run_ms(&self) -> f64 {
        let started = Instant::now();
        black_box(self.work());
        started.elapsed().as_secs_f64() * 1e3
    }

    /// The work itself; the checksum keeps the optimiser from deleting it.
    fn work(&self) -> u64 {
        // Dependent integer chain.
        let mut x = black_box(0x2545_F491_4F6C_DD1Du64);
        for _ in 0..CHAIN_STEPS {
            x = xorshift(x).wrapping_mul(0x2545_F491_4F6C_DD1D);
        }

        // Four independent streams and a branch the predictor cannot learn.
        let (mut a, mut b, mut c, mut d) =
            (x | 1, black_box(2u64), black_box(3u64), black_box(4u64));
        let mut sum = 0u64;
        for _ in 0..STREAM_ROUNDS {
            a = xorshift(a);
            b = xorshift(b);
            c = xorshift(c);
            d = xorshift(d);
            if (a ^ b) & 7 == 0 {
                sum += c & 3;
            } else {
                sum += d & 1;
            }
        }

        // Hash-map churn: the simulator's per-packet bookkeeping.
        let mut map: HashMap<u64, u64, FixedState> = HashMap::default();
        x = 99;
        for _ in 0..MAP_ROUNDS {
            x = xorshift(x);
            *map.entry(x & 0xFFFF).or_insert(0) += 1;
            x = xorshift(x);
            if let Some(v) = map.get(&(x & 0xFFFF)) {
                sum += v;
            }
            x = xorshift(x);
            map.remove(&(x & 0xFFFF));
        }

        // Fill and sort: percentile and summary code.
        let mut keys: Vec<u64> = (0..SORT_ELEMENTS)
            .map(|_| {
                x = xorshift(x);
                x
            })
            .collect();
        keys.sort_unstable();
        sum = sum.wrapping_add(keys[SORT_ELEMENTS / 3]);

        // Pointer chase through 4 MiB: loads that miss L2.
        let mut at = (x as usize) % CHASE_ENTRIES;
        for _ in 0..CHASE_STEPS {
            at = self.table[at] as usize;
        }

        // Small allocations of mixed sizes with a short lifetime: the
        // allocator traffic of per-subframe vectors and per-packet records.
        let mut ring: Vec<Vec<u8>> = (0..ALLOC_RING).map(|_| Vec::new()).collect();
        for i in 0..ALLOC_ROUNDS {
            x = xorshift(x);
            let len = 16 + (x % 496) as usize;
            let mut block = vec![0u8; len];
            block[len / 2] = x as u8;
            sum = sum.wrapping_add(u64::from(block[len / 2]));
            ring[i % ALLOC_RING] = block;
        }
        sum ^ x ^ a ^ at as u64 ^ ring.len() as u64
    }
}

#[inline(always)]
fn xorshift(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}
