//! Order statistics over one run's samples.

/// Median and tail of a sample set (0 for an empty set).
#[derive(Debug, Default, Clone, Copy)]
pub struct Summary {
    pub p50: f64,
    pub p95: f64,
    pub p99: f64,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Summary {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Summary {
            p50: quantile(&sorted, 0.50),
            p95: quantile(&sorted, 0.95),
            p99: quantile(&sorted, 0.99),
        }
    }
}

/// Nearest-rank quantile of an ascending slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).p50
}

/// Split `samples` into phases; `starts` holds the index at which each
/// phase's samples begin (no starts: one phase). Empty phases are dropped.
fn phases<'a>(samples: &'a [f64], starts: &[usize]) -> Vec<&'a [f64]> {
    let mut bounds: Vec<usize> = starts
        .iter()
        .copied()
        .filter(|&i| i > 0 && i < samples.len())
        .collect();
    bounds.push(samples.len());
    let mut from = 0;
    bounds
        .into_iter()
        .map(|to| {
            let phase = &samples[from..to];
            from = to;
            phase
        })
        .filter(|phase| !phase.is_empty())
        .collect()
}

/// Mean over a run's phases of each phase's median (see [`phases`]). The
/// host's speed moves between levels for seconds at a time, so one phase
/// can run slow while the next runs fast: a median over all samples then
/// snaps to whichever level held most of them, while the mean of the
/// phase medians moves only by the slow phases' share.
pub fn phased_median(samples: &[f64], starts: &[usize]) -> f64 {
    mean(
        &phases(samples, starts)
            .into_iter()
            .map(median)
            .collect::<Vec<_>>(),
    )
}

/// Samples a phase needs for its own 99th percentile: ten lie beyond it.
const P99_PHASE_MIN: usize = 1000;

/// The 99th percentile the same way: the mean of the phases' p99s when
/// every phase has at least [`P99_PHASE_MIN`] samples, else the p99 of
/// all samples.
pub fn phased_p99(samples: &[f64], starts: &[usize]) -> f64 {
    let phases = phases(samples, starts);
    if phases.iter().all(|p| p.len() >= P99_PHASE_MIN) {
        mean(
            &phases
                .into_iter()
                .map(|p| Summary::of(p).p99)
                .collect::<Vec<_>>(),
        )
    } else {
        Summary::of(samples).p99
    }
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}
