//! The wall-clock timer `micro.rs` runs its ids under.
//!
//! One id = one [`run`]: the batch size doubles until a batch takes
//! ≥ 1 ms (so timer overhead stays negligible), batches run untimed for
//! 400 ms, then timed until there are ≥ 20 samples *and* 1 s has passed
//! (at most 160 samples), and one JSON object is printed on one line —
//! `group`, `id`, the median, mean and best per-iteration nanoseconds,
//! the sample count and the iterations per sample. Under `-- --test`
//! (what CI runs, so bench bit-rot fails the build) the body runs once,
//! untimed, and the line is `bench <group>/<id> smoke ok`. The windows
//! are short on purpose: the numbers are for relative comparison.

use std::hint::black_box;
use std::time::{Duration, Instant};

const MIN_BATCH: Duration = Duration::from_millis(1);
const WARM_UP: Duration = Duration::from_millis(400);
const MEASUREMENT: Duration = Duration::from_secs(1);
const MIN_SAMPLES: usize = 20;

/// Times `body` (or, under `--test`, runs it once) and prints its line.
pub(crate) fn run<R>(group: &str, id: &str, mut body: impl FnMut() -> R) {
    let smoke = std::env::args().any(|a| a == "--test");
    let line = report_line(smoke, group, id, &mut || {
        black_box(body());
    });
    println!("{line}");
}

/// [`run`] without the process state: the line it would print.
pub(crate) fn report_line(smoke: bool, group: &str, id: &str, body: &mut dyn FnMut()) -> String {
    if smoke {
        body();
        return format!("bench {:<56} smoke ok", format!("{group}/{id}"));
    }
    let mut batch = |iters: u64| {
        let start = Instant::now();
        for _ in 0..iters {
            body();
        }
        start.elapsed()
    };
    let mut iters = 1u64;
    while batch(iters) < MIN_BATCH && iters < 1 << 24 {
        iters *= 2;
    }
    let warm_up = Instant::now();
    while warm_up.elapsed() < WARM_UP {
        batch(iters);
    }
    // Nanoseconds per iteration, one sample per batch.
    let mut samples: Vec<f64> = Vec::with_capacity(MIN_SAMPLES);
    let measurement = Instant::now();
    while (samples.len() < MIN_SAMPLES || measurement.elapsed() < MEASUREMENT)
        && samples.len() < MIN_SAMPLES * 8
    {
        samples.push(batch(iters).as_secs_f64() * 1e9 / iters as f64);
    }
    let mean = samples.iter().sum::<f64>() / samples.len() as f64;
    samples.sort_by(f64::total_cmp);
    // The middle sample, or the mean of the two middle ones.
    let median = (samples[(samples.len() - 1) / 2] + samples[samples.len() / 2]) / 2.0;
    // `{:?}` of the ASCII names used here is their JSON string.
    format!(
        "{{\"group\":{group:?},\"id\":{id:?},\"median_ns\":{median:.3},\"mean_ns\":{mean:.3},\
         \"best_ns\":{:.3},\"samples\":{},\"iters\":{iters}}}",
        samples[0],
        samples.len(),
    )
}
