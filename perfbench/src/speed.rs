//! The host's speed, measured beside the program so that timings can be
//! reported in reference-machine units.
//!
//! The reference machine is a shared 2-vCPU guest whose speed for
//! allocation-, hashing- and syscall-heavy code switches between two
//! levels about 1.5× apart every few seconds, and drifts over minutes,
//! while a pure arithmetic loop barely moves (see README.md, *Host speed*). A
//! run's share of slow time decides its figures more than the program
//! does. So the benchmark times a fixed kernel of its own — string
//! formatting, a hash map, a sort: the kind of work the program's hot
//! paths do, none of it the program's code — at least every
//! [`INTERVAL`] while it measures, and converts the run's timings by the
//! kernel's mean time over the run: `timing × REFERENCE_US / kernel`.
//! A change to the program moves the timings and not the kernel, so it
//! shows in full; a slow stretch of the host moves both. One factor per
//! run, from hundreds of samples, follows the drift from run to run
//! without adding the noise of single kernel samples to single timings.
//! The kernel runs on a thread of its own, which allocates from its own
//! malloc arena, so that the state the program leaves in the main heap
//! does not change the kernel's time.

use std::collections::HashMap;
use std::hint::black_box;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The kernel's time on the reference machine on a quiet host (µs).
/// Converted figures read as that machine's figures would.
pub const REFERENCE_US: f64 = 2000.0;
/// The longest gap between two kernel samples while measuring.
const INTERVAL: Duration = Duration::from_millis(100);
/// Strings the kernel formats, hashes and sorts (≈ 200 KB of data).
const KERNEL_WORDS: u64 = 4096;

fn kernel() -> u64 {
    let mut words: Vec<String> = (0..KERNEL_WORDS)
        .map(|i| format!("k{:x}-{}", i.wrapping_mul(0x9E37_79B9_7F4A_7C15), i % 97))
        .collect();
    let mut map: HashMap<String, usize> = HashMap::with_capacity(words.len());
    for (i, w) in words.iter().enumerate() {
        map.insert(w.clone(), i);
    }
    words.sort_unstable();
    let mut acc = 0u64;
    let mut out = String::new();
    for w in &words {
        acc = acc.wrapping_add(map[w] as u64);
        out.push('"');
        out.push_str(w);
        out.push_str("\",");
    }
    acc ^ out.len() as u64
}

/// The thread that runs the kernel: each message asks for one timed run.
struct Worker {
    ask: Sender<()>,
    answer: Receiver<(Instant, f64)>,
    thread: JoinHandle<()>,
}

impl Worker {
    fn spawn() -> Worker {
        let (ask, asked) = channel::<()>();
        let (tell, answer) = channel();
        let thread = std::thread::spawn(move || {
            while asked.recv().is_ok() {
                let start = Instant::now();
                black_box(kernel());
                let us = start.elapsed().as_secs_f64() * 1e6;
                if tell.send((start, us)).is_err() {
                    return;
                }
            }
        });
        Worker {
            ask,
            answer,
            thread,
        }
    }
}

/// Kernel samples, each with the instant it started.
#[derive(Default)]
pub struct Speed {
    samples: Vec<(Instant, f64)>,
    worker: Option<Worker>,
}

impl Drop for Speed {
    fn drop(&mut self) {
        if let Some(Worker { ask, thread, .. }) = self.worker.take() {
            drop(ask);
            let _ = thread.join();
        }
    }
}

/// Share of the slowest and of the fastest kernel samples left out of
/// the mean: a sample that a page fault or another thread interrupted
/// says nothing about the host.
const TRIM: f64 = 0.1;

impl Speed {
    /// Time the kernel once, on the kernel's thread (started on first use).
    pub fn sample(&mut self) {
        let worker = self.worker.get_or_insert_with(Worker::spawn);
        let sample = worker
            .ask
            .send(())
            .ok()
            .and_then(|()| worker.answer.recv().ok());
        if let Some(sample) = sample {
            self.samples.push(sample);
        }
    }

    /// Time the kernel when the last sample is older than [`INTERVAL`].
    pub fn tick(&mut self) {
        if self
            .samples
            .last()
            .is_none_or(|(at, _)| at.elapsed() >= INTERVAL)
        {
            self.sample();
        }
    }

    /// The kernel's mean time over the run (µs), without the [`TRIM`]
    /// shares at either end.
    pub fn kernel_us(&self) -> f64 {
        let mut us: Vec<f64> = self.samples.iter().map(|s| s.1).collect();
        us.sort_by(f64::total_cmp);
        let cut = (us.len() as f64 * TRIM) as usize;
        crate::stats::mean(&us[cut..us.len() - cut])
    }

    /// Reference-machine units per measured unit (1 with no samples).
    pub fn factor(&self) -> f64 {
        let kernel = self.kernel_us();
        if kernel > 0.0 {
            REFERENCE_US / kernel
        } else {
            1.0
        }
    }

    pub fn len(&self) -> usize {
        self.samples.len()
    }
}
