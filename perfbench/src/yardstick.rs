//! The host's speed, measured between the workload's own operations, so
//! that times can be reported at one fixed reference speed.
//!
//! On a shared VM the same code runs fast or slow for stretches of
//! seconds to minutes: over four minutes of hot solves on the 2-vCPU
//! reference VM, 8-second means ranged 10.5–14.3 ms, and between two
//! sessions the same solve took 7 and 13 ms. A yardstick sample is a
//! fixed piece of benchmark code made of what the server's hot paths are
//! made of: a dependent arithmetic chain, fresh multi-megabyte buffers
//! filled and freed, a clone of many small nested allocations, and a
//! pointer chase through a working set sized like the workload's state,
//! so that it waits on the same level of the memory hierarchy. Its
//! mean over a phase, divided by [`REFERENCE_MS`], is that phase's
//! slowdown; the phase's times are divided by it. Over the four minutes
//! above, the quartile spread of 20-second means fell from 0.066 raw to
//! 0.034 so scaled. The program never runs while a sample is taken, and
//! no program code is in one, so a change to the program moves the
//! scaled figures as much as the raw ones.

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::time::Instant;

/// One sample's time at the reference speed: close to its fast-state
/// time on the 2-vCPU reference VM, so scaled figures read as ms there.
pub const REFERENCE_MS: f64 = 5.0;

/// Steps of the arithmetic chain per sample.
const CHAIN_STEPS: u64 = 1_000_000;
/// Fresh buffers per sample, each of `FRESH_WORDS` `u64`s (8 MiB).
const FRESH_BUFFERS: usize = 2;
const FRESH_WORDS: u64 = 1 << 20;
/// Small allocations cloned per sample (boxed slices and lists).
const NESTED: usize = 10_000;
/// Pointer-chase entries per `R2` tuple of the workload.
const CHASE_PER_TUPLE: usize = 64;
/// Pointer-chase steps per sample.
const CHASE_STEPS: usize = 30_000;

/// The data a sample clones, built once.
pub struct Yardstick {
    slices: Vec<Box<[u32]>>,
    lists: Vec<Vec<u32>>,
    maps: Vec<HashMap<u32, Vec<u32>>>,
    tree: BTreeMap<u64, u64>,
    /// One cycle through every entry, in a fixed random order.
    chase: Vec<u32>,
}

impl Yardstick {
    /// Builds the sample's data from a fixed generator, for a workload
    /// of `n` `R2` tuples.
    pub fn new(n: usize) -> Yardstick {
        let mut x = 7u64;
        let mut next = || {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (x >> 33) as u32
        };
        let slices = (0..NESTED)
            .map(|_| vec![next(); 3].into_boxed_slice())
            .collect();
        let lists = (0..NESTED)
            .map(|_| vec![next(); 1 + (next() % 3) as usize])
            .collect();
        let mut maps = vec![HashMap::new(); 3];
        for m in &mut maps {
            for _ in 0..NESTED / 5 {
                m.entry(next() % 4000).or_insert_with(Vec::new).push(next());
            }
        }
        let tree = (0..NESTED)
            .map(|_| (u64::from(next()), u64::from(next())))
            .collect();
        // Sattolo's shuffle: a single cycle, so the chase never settles
        // into a short loop that fits in cache.
        let len = (n * CHASE_PER_TUPLE).clamp(2, u32::MAX as usize);
        let mut order: Vec<u32> = (0..len as u32).collect();
        for i in (1..len).rev() {
            let j = (u64::from(next()) * 2 + u64::from(next() & 1)) as usize % i;
            order.swap(i, j);
        }
        let mut chase = vec![0u32; len];
        for w in 0..len {
            chase[order[w] as usize] = order[(w + 1) % len];
        }
        Yardstick {
            slices,
            lists,
            maps,
            tree,
            chase,
        }
    }

    /// Runs one sample and returns its time in ms.
    pub fn sample(&self) -> f64 {
        let t = Instant::now();
        let mut x = 1u64;
        for i in 0..CHAIN_STEPS {
            x = x.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(i) ^ (x >> 7);
        }
        black_box(x);
        for _ in 0..FRESH_BUFFERS {
            let v: Vec<u64> = (0..FRESH_WORDS).collect();
            black_box(&v);
        }
        let copy = (
            self.slices.clone(),
            self.lists.clone(),
            self.maps.clone(),
            self.tree.clone(),
        );
        black_box(&copy);
        drop(copy);
        let mut at = 0u32;
        for _ in 0..CHASE_STEPS {
            at = self.chase[at as usize];
        }
        black_box(at);
        t.elapsed().as_secs_f64() * 1e3
    }
}

/// A phase's slowdown against the reference speed: the mean of its
/// samples over [`REFERENCE_MS`]. `NaN` without samples.
pub fn slowdown(samples_ms: &[f64]) -> f64 {
    crate::stats::mean(samples_ms) / REFERENCE_MS
}
