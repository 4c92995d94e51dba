//! The workloads, `point-get` and `object-scan`: one client in a closed
//! loop of VOQL GETs against an in-memory system, in read phases that
//! alternate with the phases of the write probe ([`crate::probe::Probe`]).

use crate::fixture::{self, OBJECT};
use crate::layers::{GetRecord, Phase, Tracer, MAX_REPLAYS};
use crate::{Args, Pass, Res, Workload};
use std::collections::HashMap;
use std::time::{Duration, Instant};
use vo_core::prelude::VoInstance;
use vo_net::{VoClient, VoServer, VoqlResult};
use vo_obs::json::Json;
use vo_penguin::{Session, VoqlOutcome};
use vo_relational::rng::SmallRng;

/// object-scan responses checked against the oracle per run.
const SCAN_SAMPLES: usize = 16;
/// The window alternates read phases with write-probe phases, so that the
/// read and the write figures average the host's speed over the same span:
/// one read phase and one probe phase per [`CYCLE_SECONDS`] of `--seconds`.
/// The number of phases is fixed by `--seconds` alone, so every run sends
/// the probe the same number of APPLYs.
const CYCLE_SECONDS: u64 = 3;
const READ_PHASE: Duration = Duration::from_secs(2);
/// In a traced pass, the replay of a read phase's GETs follows it, for at
/// most this long.
const REPLAY_PHASE: Duration = Duration::from_secs(1);
/// Untimed GETs at the start of each read phase: the first requests after
/// a probe phase run on cold caches, an effect of the interleaving only.
const PHASE_WARMUP: usize = 8;

/// The seeded query stream of a read workload.
pub struct Queries {
    workload: Workload,
    rng: SmallRng,
    deck: Vec<String>,
}

impl Queries {
    pub fn new(workload: Workload, seed: u64) -> Queries {
        Queries {
            workload,
            rng: SmallRng::seed_from_u64(seed),
            deck: Vec::new(),
        }
    }

    /// `point-get`: a course drawn uniformly.
    /// `object-scan`: decks of 20 — 14 department lookups (8 instances),
    /// 3 level-and-count filters (1,024 instances when `k` = 5, none when
    /// `k` = 4, every candidate instantiated either way) and 3 ordered,
    /// limited scans — shuffled, so that every run does the same work in a
    /// seeded order.
    pub fn next(&mut self) -> String {
        let departments = self.workload.scale() as usize;
        if self.workload != Workload::ObjectScan {
            let d = self.rng.gen_range(0..departments);
            let c = self.rng.gen_range(0..8);
            return format!("GET {OBJECT} WHERE course_id = 'C{d}-{c}'");
        }
        if self.deck.is_empty() {
            let rng = &mut self.rng;
            let mut level = || ["graduate", "undergraduate"][rng.gen_range(0..2)];
            let mut deck = Vec::with_capacity(20);
            for k in [5, 5, 4] {
                deck.push(format!(
                    "GET {OBJECT} WHERE level = '{}' AND COUNT(STUDENT) < {k}",
                    level()
                ));
            }
            for n in [16, 64, 256] {
                deck.push(format!(
                    "GET {OBJECT} WHERE level = '{}' ORDER BY title LIMIT {n}",
                    level()
                ));
            }
            for _ in 0..14 {
                let d = self.rng.gen_range(0..departments);
                deck.push(format!("GET {OBJECT} WHERE dept_name = 'dept-{d}'"));
            }
            self.rng.shuffle(&mut deck);
            self.deck = deck;
        }
        self.deck.pop().expect("deck refilled above")
    }
}

/// The GET oracle: answers kept during the window, checked afterwards
/// against `Session::voql` at the same version, byte for byte as JSON.
/// A repeated statement is compared in the loop against its first answer
/// (a structural comparison, cheap next to the round trip); the first
/// answer is then checked byte for byte.
pub struct Oracle {
    first: HashMap<String, Vec<VoInstance>>,
    sample_all: bool,
    rng: SmallRng,
    pub mismatches: Vec<String>,
}

impl Oracle {
    pub fn new(workload: Workload, seed: u64) -> Oracle {
        Oracle {
            first: HashMap::new(),
            sample_all: workload != Workload::ObjectScan,
            rng: SmallRng::seed_from_u64(seed ^ 0x0DAC1E),
            mismatches: Vec::new(),
        }
    }

    pub fn observe(&mut self, src: &str, answer: Vec<VoInstance>) {
        if !self.sample_all && (self.first.len() >= SCAN_SAMPLES || self.rng.gen_range(0..8) != 0) {
            return;
        }
        match self.first.get(src) {
            Some(seen) if *seen != answer => {
                self.mismatches
                    .push(format!("`{src}` answered differently on a repeat"));
            }
            Some(_) => {}
            None => {
                self.first.insert(src.to_owned(), answer);
            }
        }
    }

    /// Compare every kept answer with the in-process answer of `session`.
    pub fn check(mut self, session: &Session) -> Vec<String> {
        let render =
            |v: &[VoInstance]| Json::Arr(v.iter().map(|i| i.to_json()).collect()).compact();
        for (src, got) in &self.first {
            match session.voql(src) {
                Ok(VoqlOutcome::Instances(want)) if render(&want) == render(got) => {}
                Ok(VoqlOutcome::Instances(want)) => self.mismatches.push(format!(
                    "`{src}`: {} instances over the wire differ from {} in process",
                    got.len(),
                    want.len()
                )),
                other => self
                    .mismatches
                    .push(format!("`{src}` in process gave {other:?}")),
            }
        }
        self.mismatches
    }
}

/// One timed GET: its latency is recorded only when it succeeds with
/// instances; anything else is counted as failed.
fn timed_get(client: &mut VoClient, src: &str, pass: &mut Pass) -> Option<Vec<VoInstance>> {
    pass.speed.tick();
    let start = Instant::now();
    let result = client.voql(src);
    let us = start.elapsed().as_secs_f64() * 1e6;
    pass.tally.attempted += 1;
    match result {
        Ok(VoqlResult::Instances(instances)) => {
            pass.read_us.push(us);
            pass.instances += instances.len() as u64;
            Some(instances)
        }
        Ok(other) => {
            pass.tally.failed += 1;
            pass.mismatches
                .push(format!("`{src}` answered with {other:?}"));
            None
        }
        Err(_) => {
            pass.tally.failed += 1;
            None
        }
    }
}

/// Build the workload's in-memory system, serve it and connect to it;
/// the time it took (s).
fn set_up(args: &Args) -> Res<((VoClient, VoServer), f64)> {
    let start = Instant::now();
    let server = fixture::serve(fixture::in_memory(args.workload.scale(), args.seed)?)?;
    let client = fixture::connect(&server)?;
    Ok(((client, server), start.elapsed().as_secs_f64()))
}

pub fn run(args: &Args, scratch: &fixture::Scratch, mut tracer: Option<&mut Tracer>) -> Res<Pass> {
    let mut pass = Pass::default();
    pass.speed.sample();
    let ((mut client, server), first_setup_s) = set_up(args)?;
    // `setup_s` is the median of this set-up and one more per cycle, so
    // that set-up samples the same stretch of the host's time as the rest.
    let mut setups = vec![first_setup_s];

    let mut warmup = Queries::new(args.workload, args.seed.wrapping_add(1));

    let mut probe = crate::probe::Probe::start(args, scratch)?;
    let session = server.with_penguin(|p| p.session());
    pass.trace.sessions.push(session.clone());
    let mut queries = Queries::new(args.workload, args.seed);
    let mut oracle = Oracle::new(args.workload, args.seed);
    let phases = (args.seconds / CYCLE_SECONDS).max(1) as usize;
    let mut reading = Duration::ZERO;
    for _ in 0..phases {
        for _ in 0..PHASE_WARMUP {
            let r = client.voql(&warmup.next());
            pass.tally.record(&r);
        }
        if let Some(t) = tracer.as_deref_mut() {
            t.begin_window(&server, Phase::Read);
        }
        let first_get = pass.trace.gets.len();
        pass.read_phases.push(pass.read_us.len());
        let read_start = Instant::now();
        let read_end = read_start + READ_PHASE;
        while Instant::now() < read_end {
            let src = queries.next();
            if let Some(instances) = timed_get(&mut client, &src, &mut pass) {
                oracle.observe(&src, instances);
                if let Some(t) = tracer.as_deref_mut() {
                    pass.trace.gets.push(GetRecord {
                        src,
                        session: Some(0),
                    });
                    t.drain_now_and_then(pass.trace.gets.len());
                }
            }
        }
        reading += read_start.elapsed();
        if let Some(t) = tracer.as_deref_mut() {
            t.end_window(&server, &mut pass.trace);
            let limit = MAX_REPLAYS / phases;
            let seed = args.seed ^ first_get as u64;
            let until = Instant::now() + REPLAY_PHASE;
            t.replay(&mut pass.trace, first_get, limit, seed, until)?;
        }
        probe.phase(&mut pass, tracer.as_deref_mut())?;
        pass.speed.tick();
        let (spare, setup_s) = set_up(args)?;
        drop(spare);
        setups.push(setup_s);
    }
    pass.window_s = reading.as_secs_f64();
    pass.setup_s = crate::stats::median(&setups);

    pass.mismatches.extend(oracle.check(&session));
    let db = session.database();
    pass.context
        .push(("tuples", Json::Int(db.total_tuples() as i64)));
    pass.context.push((
        "base_artifact_bytes",
        Json::Int(fixture::base_bytes(db) as i64),
    ));
    drop(client);
    drop(server);
    probe.finish(&mut pass)?;
    Ok(pass)
}
