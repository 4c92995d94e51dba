//! The repository benchmark: PENGUIN served over vo-net, end to end and
//! layer by layer.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload point-get --seed 7 --seconds 15 --trace 0
//! ```
//!
//! Every run starts a `VoServer` inside this process and drives it through
//! real `VoClient` connections, one request at a time from the main
//! thread. `--trace 0` runs the untraced pass and prints the end-to-end
//! metrics, with times in reference-machine units (see `speed.rs`);
//! `--trace 1` runs the
//! same workload untraced (for the tracing-overhead base) and then traced,
//! and prints the per-layer metrics. Either way the last line of stdout is
//! one JSON object `{"correct", "attempted", "failed", "metrics"}`; the
//! line before it records the run's context (seed, host, sizes, the
//! unreached-span inventory). `README.md` beside this file maps every
//! metric to its layer.

mod fixture;
mod layers;
mod probe;
mod read;
mod speed;
mod stats;

use std::collections::BTreeMap;
use std::process::ExitCode;
use vo_obs::json::Json;

/// Errors end the run: the benchmark prints no result line and exits 1.
pub type Res<T> = Result<T, Box<dyn std::error::Error>>;

/// Environment knobs the program reads when a `Penguin` is constructed.
/// Either one changes behaviour (parallelism, telemetry export), so the
/// benchmark clears them before anything is built and records that it did.
const PROGRAM_ENV: [&str; 2] = ["VO_PARALLELISM", "VO_TELEMETRY"];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PointGet,
    ObjectScan,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "point-get" => Some(Workload::PointGet),
            "object-scan" => Some(Workload::ObjectScan),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::PointGet => "point-get",
            Workload::ObjectScan => "object-scan",
        }
    }

    /// Departments in the university fixture (8 courses each).
    pub fn scale(self) -> i64 {
        match self {
            Workload::PointGet => 64,
            Workload::ObjectScan => 256,
        }
    }

    /// APPLYs in each phase of the write probe: a fixed amount of work,
    /// about 0.3–1.5 s of it on the reference machine (an APPLY costs
    /// ≈ 20–40 ms at scale 64 and ≈ 0.2–0.35 s at scale 256).
    pub fn probe_applies(self) -> usize {
        match self {
            Workload::PointGet => 16,
            Workload::ObjectScan => 6,
        }
    }
}

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<u64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if s == 0 {
                    return Err("--seconds must be at least 1".to_owned());
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Operation tallies: every client request and maintenance call the run
/// makes, and how many of them failed or were refused.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn record<T, E>(&mut self, r: &Result<T, E>) {
        self.attempted += 1;
        if r.is_err() {
            self.failed += 1;
        }
    }

    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// What one run reports: its metrics (name → value, unit), whether every
/// correctness oracle passed, and context lines for the record.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: BTreeMap<&'static str, (f64, &'static str)>,
    pub mismatches: Vec<String>,
    pub tally: Tally,
    pub context: Vec<(&'static str, Json)>,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.insert(name, (value, unit));
    }

    pub fn mismatch(&mut self, what: String) {
        self.mismatches.push(what);
    }
}

/// `git rev` of the checkout, read from `.git` inside the working
/// directory only (the benchmark reads nothing outside its checkout).
fn git_rev() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_owned(),
        Err(_) => return "unknown".to_owned(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_owned())
            .unwrap_or_else(|_| "unknown".to_owned()),
        None => head,
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload point-get|object-scan \
                 --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    // Single-threaded here: nothing else reads the environment yet.
    let cleared: Vec<&str> = PROGRAM_ENV
        .into_iter()
        .filter(|k| std::env::var_os(k).is_some())
        .collect();
    for k in &cleared {
        std::env::remove_var(k);
    }
    let report = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!(
                "perfbench: {} seed {}: {e}",
                args.workload.name(),
                args.seed
            );
            return ExitCode::FAILURE;
        }
    };
    for m in &report.mismatches {
        eprintln!("perfbench: correctness: {m}");
    }
    let mut context = vec![
        ("workload", Json::str(args.workload.name())),
        ("seed", Json::Int(args.seed as i64)),
        ("seconds", Json::Int(args.seconds as i64)),
        ("trace", Json::Bool(args.trace)),
        (
            "nproc",
            Json::Int(vo_penguin::available_parallelism() as i64),
        ),
        ("git_rev", Json::str(git_rev())),
        (
            "profile",
            Json::str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        (
            "env_cleared",
            Json::Arr(cleared.iter().map(|k| Json::str(*k)).collect()),
        ),
    ];
    context.extend(report.context);
    println!(
        "{}",
        Json::obj(vec![("context", Json::obj(context))]).compact()
    );
    let metrics = report
        .metrics
        .iter()
        .map(|(name, (value, unit))| {
            (
                *name,
                Json::obj(vec![
                    ("value", Json::Float(*value)),
                    ("unit", Json::str(*unit)),
                ]),
            )
        })
        .collect();
    let result = Json::obj(vec![
        ("correct", Json::Bool(report.mismatches.is_empty())),
        ("attempted", Json::Int(report.tally.attempted.max(1) as i64)),
        ("failed", Json::Int(report.tally.failed as i64)),
        ("metrics", Json::obj(metrics)),
    ]);
    println!("{}", result.compact());
    ExitCode::SUCCESS
}

/// Untraced: one pass, end-to-end metrics. Traced: an untraced pass for the
/// overhead base, then the traced pass of the same workload and seed.
fn run(args: &Args) -> Res<Report> {
    let scratch = fixture::Scratch::create(args)?;
    if !args.trace {
        let mut report = Report::default();
        let mut pass = read::run(args, &scratch, None)?;
        report.context = std::mem::take(&mut pass.context);
        pass.end_to_end(&mut report);
        report.tally = pass.tally;
        report.mismatches = pass.mismatches;
        return Ok(report);
    }
    // The untraced pass of a traced run only sets the tracing-overhead
    // base, so a third of the window is enough.
    let base = Args {
        seconds: (args.seconds / 3).max(1),
        ..args.clone()
    };
    let untraced = read::run(&base, &scratch, None)?;
    let mut tracer = layers::Tracer::start();
    let traced = read::run(args, &scratch, Some(&mut tracer))?;
    let mut report = Report {
        tally: untraced.tally,
        context: traced.context.clone(),
        ..Report::default()
    };
    layers::per_layer(&mut report, &untraced, &traced, tracer)?;
    report.tally.add(traced.tally);
    report.mismatches.extend(untraced.mismatches);
    report.mismatches.extend(traced.mismatches);
    Ok(report)
}

/// Everything one pass measured, for the end-to-end report and for the
/// per-layer attribution of a traced pass.
#[derive(Default)]
pub struct Pass {
    /// Median set-up time (s): the first set-up and one more per cycle.
    pub setup_s: f64,
    /// Time spent in read phases (s).
    pub window_s: f64,
    /// Client-timed GET round trips (µs), in issue order.
    pub read_us: Vec<f64>,
    /// Where each phase's samples start in `read_us`, `apply_ms` and
    /// `recover_ms` (see [`stats::phased_median`]).
    pub read_phases: Vec<usize>,
    pub apply_phases: Vec<usize>,
    pub recover_phases: Vec<usize>,
    pub instances: u64,
    /// APPLY latency from send to acknowledgement (ms).
    pub apply_ms: Vec<f64>,
    /// Time spent sending APPLYs (s).
    pub apply_window_s: f64,
    /// `Penguin::open_with` times (ms).
    pub recover_ms: Vec<f64>,
    pub store_ratio: f64,
    /// The host's speed over the pass.
    pub speed: speed::Speed,
    pub tally: Tally,
    pub mismatches: Vec<String>,
    pub context: Vec<(&'static str, Json)>,
    /// Traced passes only: what the layer replay needs.
    pub trace: layers::PassTrace,
}

/// The figures of a pass whose times are multiplied by `factor`: 1 for
/// the times as measured, [`speed::Speed::factor`] for reference-machine
/// units.
struct Figures {
    read_p50_us: f64,
    read_p99_us: f64,
    read_rps: f64,
    instances_per_s: f64,
    apply_p50_ms: f64,
    apply_p95_ms: f64,
    apply_rps: f64,
    setup_s: f64,
    recover_ms: f64,
}

impl Pass {
    fn figures(&self, factor: f64) -> Figures {
        let read_s = self.window_s * factor;
        Figures {
            read_p50_us: stats::phased_median(&self.read_us, &self.read_phases) * factor,
            read_p99_us: stats::phased_p99(&self.read_us, &self.read_phases) * factor,
            read_rps: stats::ratio(self.read_us.len() as f64, read_s),
            instances_per_s: stats::ratio(self.instances as f64, read_s),
            apply_p50_ms: stats::phased_median(&self.apply_ms, &self.apply_phases) * factor,
            apply_p95_ms: stats::Summary::of(&self.apply_ms).p95 * factor,
            apply_rps: stats::ratio(self.apply_ms.len() as f64, self.apply_window_s * factor),
            setup_s: self.setup_s * factor,
            recover_ms: stats::phased_median(&self.recover_ms, &self.recover_phases) * factor,
        }
    }

    fn end_to_end(&self, r: &mut Report) {
        let f = self.figures(self.speed.factor());
        r.metric("read_p50_us", f.read_p50_us, "us");
        r.metric("read_p99_us", f.read_p99_us, "us");
        r.metric("read_rps", f.read_rps, "req/s");
        r.metric("instances_per_s", f.instances_per_s, "1/s");
        r.metric("apply_p50_ms", f.apply_p50_ms, "ms");
        r.metric("apply_p95_ms", f.apply_p95_ms, "ms");
        r.metric("apply_rps", f.apply_rps, "1/s");
        let ok = self.tally.attempted.saturating_sub(self.tally.failed);
        r.metric(
            "ok_frac",
            ok as f64 / self.tally.attempted.max(1) as f64,
            "ratio",
        );
        r.metric("setup_s", f.setup_s, "s");
        r.metric("recover_ms", f.recover_ms, "ms");
        r.metric("store_bytes_per_live_byte", self.store_ratio, "ratio");
        let m = self.figures(1.0);
        r.context.push((
            "as_measured",
            Json::obj(vec![
                ("read_p50_us", Json::Float(m.read_p50_us)),
                ("read_p99_us", Json::Float(m.read_p99_us)),
                ("apply_p50_ms", Json::Float(m.apply_p50_ms)),
                ("apply_p95_ms", Json::Float(m.apply_p95_ms)),
                ("recover_ms", Json::Float(m.recover_ms)),
                ("setup_s", Json::Float(m.setup_s)),
            ]),
        ));
        r.context.push((
            "speed",
            Json::obj(vec![
                ("reference_us", Json::Float(speed::REFERENCE_US)),
                ("kernel_us", Json::Float(self.speed.kernel_us())),
                ("kernel_samples", Json::Int(self.speed.len() as i64)),
                ("factor", Json::Float(self.speed.factor())),
            ]),
        ));
    }
}
