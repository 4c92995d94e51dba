//! The write probe: the read workload's data on a durable store with its
//! own server and connection, driven in short phases between the read
//! phases, so that both sample the same stretch of time. Each phase shuts
//! the probe's server down, times reopening its store, serves the
//! recovered system, materializes and watches `omega`, sends a fixed
//! number of closed-loop APPLYs, then PINs and polls the watch; every
//! fourth phase ends with a compaction. Every count is fixed, so every
//! run builds and recovers the same store whatever the host's speed. The
//! probe gives the read workloads their write-side figures — how APPLY
//! cost follows database size — without a single write reaching the
//! system their reads run on. It ends by reopening the store and checking
//! that every acknowledged APPLY survived.

use crate::fixture::{self, OBJECT};
use crate::layers::{Phase, Tracer};
use crate::{stats, Args, Pass, Res, Tally};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::time::Instant;
use vo_core::prelude::{NodeId, UpdateRequest, VoInstance};
use vo_net::{VoClient, VoServer, VoqlResult};
use vo_penguin::Penguin;
use vo_relational::rng::SmallRng;
use vo_relational::schema::RelationSchema;
use vo_relational::tuple::Key;

/// Courses the probe updates.
const POOL: usize = 8;
/// Reopens at the start of every probe phase and at the end, spreading
/// the recovery samples over the run.
const PHASE_REOPENS: usize = 12;
/// The probe compacts its store at the end of every this many phases.
const COMPACT_EVERY_PHASES: usize = 4;
/// In a traced pass, keep the post-commit snapshot of every this many
/// APPLYs for the global-check replay.
const CHECK_SAMPLE_EVERY: usize = 4;

/// What one APPLY changes besides the title. The writer deals these from
/// shuffled decks, so that every seed sends the same mix.
#[derive(Clone, Copy)]
enum Change {
    Title,
    Level,
    Grade,
}

const DECK: [Change; 4] = [Change::Title, Change::Title, Change::Level, Change::Grade];

/// A writer that replaces course instances through `omega`. `old` is the
/// last state this writer had acknowledged for the course, fetched by GET
/// the first time.
struct Writer {
    client: VoClient,
    rng: SmallRng,
    pool: Vec<String>,
    deck: Vec<Change>,
    last: BTreeMap<String, VoInstance>,
    courses: RelationSchema,
    grades: RelationSchema,
    grades_node: NodeId,
    seq: u64,
    /// APPLY latency from send to acknowledgement (ms).
    apply_ms: Vec<f64>,
    /// `total_ops` of each acknowledged APPLY.
    ops: Vec<u64>,
    tally: Tally,
}

impl Writer {
    fn new(server: &VoServer, scale: i64, seed: u64) -> Res<Writer> {
        let (courses, grades, grades_node) = server.with_penguin(|p| -> Res<_> {
            let object = &p.object(OBJECT)?.object;
            let grades_node = object
                .nodes()
                .iter()
                .find(|n| n.relation == "GRADES")
                .ok_or("omega has no GRADES node")?
                .id;
            let schema = |rel: &str| -> Res<RelationSchema> {
                Ok(p.database().table(rel)?.schema().clone())
            };
            Ok((schema("COURSES")?, schema("GRADES")?, grades_node))
        })?;
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x5717E5);
        let mut all: Vec<String> = (0..scale)
            .flat_map(|d| (0..8).map(move |c| format!("C{d}-{c}")))
            .collect();
        rng.shuffle(&mut all);
        all.truncate(POOL);
        let mut writer = Writer {
            client: fixture::connect(server)?,
            rng,
            pool: all,
            deck: Vec::new(),
            last: BTreeMap::new(),
            courses,
            grades,
            grades_node,
            seq: 0,
            apply_ms: Vec::new(),
            ops: Vec::new(),
            tally: Tally::default(),
        };
        for course in writer.pool.clone() {
            let r = writer
                .client
                .voql(&format!("GET {OBJECT} WHERE course_id = '{course}'"));
            writer.tally.record(&r);
            match r? {
                VoqlResult::Instances(mut v) if v.len() == 1 => {
                    writer.last.insert(course, v.pop().expect("one instance"));
                }
                other => return Err(format!("GET of {course} gave {other:?}").into()),
            }
        }
        Ok(writer)
    }

    /// The next replacement: `(course, request, new state)`. The title
    /// always changes; the level or one GRADES child's grade as dealt.
    fn next_request(&mut self) -> Res<(String, UpdateRequest, VoInstance)> {
        self.seq += 1;
        if self.deck.is_empty() {
            self.deck = DECK.to_vec();
            self.rng.shuffle(&mut self.deck);
        }
        let change = self.deck.pop().expect("deck refilled above");
        let course = self.pool[self.rng.gen_range(0..self.pool.len())].clone();
        let old = self.last[&course].clone();
        let mut new = old.clone();
        let root = &mut new.root;
        root.tuple =
            root.tuple
                .with_named(&self.courses, "title", format!("rev-{}", self.seq).into())?;
        match change {
            Change::Title => {}
            Change::Level => {
                let level = match root.tuple.get(self.courses.index_of("level")?).to_string() {
                    l if l.contains("undergraduate") => "graduate",
                    _ => "undergraduate",
                };
                root.tuple = root
                    .tuple
                    .with_named(&self.courses, "level", level.into())?;
            }
            Change::Grade => {
                if let Some(grades) = root.children.get_mut(&self.grades_node) {
                    if !grades.is_empty() {
                        let pick = self.rng.gen_range(0..grades.len());
                        let g = &mut grades[pick];
                        let grade = ["A", "B", "C", "D"][self.rng.gen_range(0..4)];
                        g.tuple = g.tuple.with_named(&self.grades, "grade", grade.into())?;
                    }
                }
            }
        }
        let request = UpdateRequest::Replacement {
            old,
            new: new.clone(),
        };
        Ok((course, request, new))
    }

    /// Send the next APPLY and wait for its acknowledgement; the course it
    /// wrote, when acknowledged.
    fn apply(&mut self) -> Res<Option<String>> {
        let (course, request, new) = self.next_request()?;
        let sent = Instant::now();
        let r = self.client.apply(OBJECT, vec![request]);
        let ms = sent.elapsed().as_secs_f64() * 1e3;
        self.tally.record(&r);
        let Ok((_, total_ops)) = r else {
            return Ok(None);
        };
        self.apply_ms.push(ms);
        self.ops.push(total_ops);
        self.last.insert(course.clone(), new);
        Ok(Some(course))
    }
}

/// Reopen the store in `dir` `count` times (at least once), adding each
/// `Penguin::open_with` time (ms) to `pass`; return the last
/// system opened.
fn timed_reopens(dir: &Path, count: usize, pass: &mut Pass) -> Res<Penguin> {
    let mut system = None;
    for _ in 0..count.max(1) {
        drop(system.take());
        pass.speed.tick();
        let start = Instant::now();
        system = Some(Penguin::open_with(dir, fixture::store_options())?);
        pass.recover_ms.push(start.elapsed().as_secs_f64() * 1e3);
    }
    Ok(system.expect("opened at least once"))
}

pub struct Probe {
    dir: PathBuf,
    server: Option<VoServer>,
    writer: Writer,
    applies: usize,
    phases: usize,
    busy_s: f64,
    apply_phases: Vec<usize>,
}

impl Probe {
    pub fn start(args: &Args, scratch: &fixture::Scratch) -> Res<Probe> {
        let dir = scratch.fresh("probe");
        let server = fixture::serve(fixture::durable(&dir, args.workload.scale(), args.seed)?)?;
        let writer = Writer::new(&server, args.workload.scale(), args.seed)?;
        Ok(Probe {
            dir,
            server: Some(server),
            writer,
            applies: args.workload.probe_applies(),
            phases: 0,
            busy_s: 0.0,
            apply_phases: Vec::new(),
        })
    }

    /// One probe phase: reopen, serve, watch, the phase's APPLYs back to
    /// back, PIN, POLL_WATCH; a compaction every few phases. A traced
    /// pass keeps the phase's spans and counters (from the APPLYs on) and
    /// snapshots for the global-check replay.
    pub fn phase(&mut self, pass: &mut Pass, mut tracer: Option<&mut Tracer>) -> Res<()> {
        drop(self.server.take());
        pass.recover_phases.push(pass.recover_ms.len());
        self.apply_phases.push(self.writer.apply_ms.len());
        let recovered = timed_reopens(&self.dir, PHASE_REOPENS, pass)?;
        let server = fixture::serve(recovered)?;
        let w = &mut self.writer;
        w.client = fixture::connect(&server)?;
        let materialized = w.client.materialize(OBJECT);
        w.tally.record(&materialized);
        materialized?;
        let watch = w.client.watch(OBJECT);
        w.tally.record(&watch);
        let watch = watch?;
        if let Some(t) = tracer.as_deref_mut() {
            t.begin_window(&server, Phase::Write);
        }
        let start = Instant::now();
        let mut written = BTreeSet::new();
        for _ in 0..self.applies {
            pass.speed.tick();
            let Some(course) = w.apply()? else { continue };
            written.insert(Key::single(course.as_str()));
            if tracer.is_some() && w.ops.len().is_multiple_of(CHECK_SAMPLE_EVERY) {
                pass.trace
                    .write_sessions
                    .push(server.with_penguin(|p| p.session()));
            }
        }
        self.busy_s += start.elapsed().as_secs_f64();
        let began = Instant::now();
        let pinned = w.client.pin();
        pass.trace.pin_us.push(began.elapsed().as_secs_f64() * 1e6);
        w.tally.record(&pinned);
        let changes = w.client.poll_watch(watch);
        w.tally.record(&changes);
        let reported: BTreeSet<Key> = changes?.into_iter().map(|c| c.pivot).collect();
        if reported != written {
            pass.mismatches.push(format!(
                "POLL_WATCH reported {} courses after a phase that wrote {}",
                reported.len(),
                written.len()
            ));
        }
        self.phases += 1;
        if self.phases.is_multiple_of(COMPACT_EVERY_PHASES) {
            let r = server.with_penguin(|p| p.compact());
            w.tally.record(&r);
        }
        if let Some(t) = tracer {
            t.end_window(&server, &mut pass.trace);
        }
        self.server = Some(server);
        Ok(())
    }

    /// Shut the probe down, reopen its store, check every acknowledged
    /// state and the store's consistency, and hand the write-side figures
    /// to `pass`.
    pub fn finish(self, pass: &mut Pass) -> Res<()> {
        let Probe {
            dir,
            server,
            mut writer,
            busy_s,
            apply_phases,
            ..
        } = self;
        drop(server);
        let (left_bytes, _) = fixture::dir_bytes(&dir, "")?;
        pass.recover_phases.push(pass.recover_ms.len());
        let mut p = timed_reopens(&dir, PHASE_REOPENS, pass)?;
        pass.speed.sample();
        for (course, want) in &writer.last {
            let got = p.instance_by_key(OBJECT, &Key::single(course.as_str()))?;
            if got.to_json().compact() != want.to_json().compact() {
                pass.mismatches
                    .push(format!("acknowledged state of {course} lost on reopen"));
            }
        }
        let violations = p.check_consistency()?;
        if !violations.is_empty() {
            pass.mismatches.push(format!(
                "{} consistency violations after reopen",
                violations.len()
            ));
        }
        pass.trace.recovery = p.last_recovery();
        p.checkpoint()?;
        p.compact()?;
        let (_, base) = fixture::dir_bytes(&dir, "base-")?;
        pass.store_ratio = stats::ratio(left_bytes as f64, base as f64);
        pass.apply_ms = std::mem::take(&mut writer.apply_ms);
        pass.apply_phases = apply_phases;
        pass.apply_window_s = busy_s;
        pass.trace.apply_ops = std::mem::take(&mut writer.ops);
        pass.tally.add(writer.tally);
        Ok(())
    }
}
