//! Host-speed calibration.
//!
//! The benchmark runs on shared virtual machines whose speed drifts: the
//! same single-thread loop, with no other work in the machine, runs up to
//! two times slower in some minutes than in others, as the physical cores,
//! caches and memory bandwidth are shared with other tenants.  Every
//! timing of a run drifts with it, set-up and snapshots as much as the
//! served requests.
//!
//! So the run times a fixed calibration kernel, written here and using
//! none of the library, between its measured steps (set-ups, saves,
//! loads, and the phases of traffic), so that the samples spread over
//! the whole run.  The run's *slowdown* is the median kernel time over
//! [`REFERENCE_MS`], the kernel's time at the reference speed.  Every
//! end-to-end duration is divided by it and every rate multiplied, so
//! they read as they would at the reference speed.  One factor per run,
//! from a hundred or so kernel runs, adds less noise than pairing each
//! step with the few samples next to it.  The kernel mixes the kinds of work
//! the serving stack does: random reads from an array larger than the CPU
//! caches, sorting a cache-resident array, and building a sorted map of
//! short strings.  A change to the library leaves the kernel's time alone,
//! so it shows in the scaled figures in full.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use crate::report::median;

/// The kernel's time, in ms, at the reference speed: about its median
/// over the runs the bounds were set from, on a 2-vCPU Intel Xeon VM.
pub const REFERENCE_MS: f64 = 25.0;

/// Entries of the random-read array: 8 MiB, beyond the CPU caches.
const ARRAY_LEN: usize = 1 << 21;
/// Bytes the array keeps resident, for `peak_rss_mb` to leave out.
pub const ARRAY_BYTES: usize = ARRAY_LEN * std::mem::size_of::<u32>();
const READS: usize = 200_000;
const SORT_LEN: usize = 1 << 14;
const SORTS: u32 = 20;
const MAP_INSERTS: u32 = 20_000;

pub struct Calibration {
    /// Filled once, before the corpus is built, and kept: allocating it
    /// per sample would lift the run's peak RSS at every sample.
    array: Vec<u32>,
    samples_ms: Vec<f64>,
}

impl Calibration {
    pub fn new() -> Self {
        Calibration {
            array: (0..ARRAY_LEN as u32)
                .map(|i| i.wrapping_mul(2_654_435_761))
                .collect(),
            samples_ms: Vec::new(),
        }
    }

    /// Times the kernel `runs` times.
    pub fn sample(&mut self, runs: usize) {
        for _ in 0..runs {
            let started = Instant::now();
            black_box(self.kernel());
            self.samples_ms.push(started.elapsed().as_secs_f64() * 1e3);
        }
    }

    /// The median kernel time of the run so far, in ms.
    pub fn median_ms(&self) -> f64 {
        median(&self.samples_ms)
    }

    /// How many times slower than the reference speed the host ran.
    pub fn slowdown(&self) -> f64 {
        self.median_ms() / REFERENCE_MS
    }

    pub fn runs(&self) -> usize {
        self.samples_ms.len()
    }

    fn kernel(&mut self) -> u64 {
        let mut acc = 0u64;
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for _ in 0..READS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            acc = acc.wrapping_add(u64::from(self.array[x as usize % ARRAY_LEN]));
        }
        let mut sort_buf = vec![0u32; SORT_LEN];
        for round in 0..SORTS {
            for (i, v) in sort_buf.iter_mut().enumerate() {
                *v = (i as u32)
                    .wrapping_mul(2_654_435_761)
                    .rotate_left(round + 3);
            }
            sort_buf.sort_unstable();
            acc = acc.wrapping_add(u64::from(sort_buf[SORT_LEN / 3]));
        }
        let mut map: BTreeMap<String, u32> = BTreeMap::new();
        for i in 0..MAP_INSERTS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *map.entry(format!("wf{}-{}", x % 8192, i % 7)).or_default() += 1;
        }
        acc.wrapping_add(map.len() as u64)
    }
}
