//! The traced pass: span collection, in-process replays of the requests
//! the window sent, counter deltas, and the per-layer metrics built from
//! them. Only the program's existing spans and counters are read; the
//! benchmark's own spans (`bench.*`) wrap its replays.

use crate::{stats, Pass, Report, Res};
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::time::{Duration, Instant};
use vo_core::prelude::{instantiate_many_planned, plan_object};
use vo_net::{
    read_frame, write_frame, Request, RequestBody, Response, ResponseBody, ServerStats, VoServer,
};
use vo_obs::json::{self, Json};
use vo_obs::profile::ProfileNode;
use vo_obs::{metrics, trace};
use vo_penguin::{RecoveryReport, Session, VoqlOutcome, VoqlStatement};
use vo_relational::rng::SmallRng;
use vo_relational::tuple::{Key, Tuple};

/// Spans the program emits outside its tests. A traced pass reports those
/// it never saw as unreached.
const PROGRAM_SPANS: &[&str] = &[
    "core.instantiate",
    "core.instantiate_parallel",
    "core.probe_step",
    "integrity.abort",
    "integrity.cascade",
    "integrity.nullify",
    "integrity.plan_delete",
    "integrity.plan_replacement",
    "keller.enumerate",
    "maintain.refresh",
    "net.accept",
    "net.request",
    "penguin.apply_batch",
    "penguin.commit_prepared",
    "penguin.health",
    "penguin.translate",
    "relational.execute",
    "store.checkpoint",
    "store.compact",
    "store.recover",
    "wal.append",
    "wal.fsync",
];

/// Counters the program keeps outside its tests; those still at zero when
/// a traced run ends are reported as unreached.
const PROGRAM_COUNTERS: &[&str] = &[
    "maintain.full_rebuilds",
    "maintain.instances_patched",
    "maintain.instances_rebuilt",
    "maintain.refreshes",
    "net.bytes.read",
    "net.bytes.written",
    "net.connections.accepted",
    "net.connections.rejected",
    "net.requests.error",
    "net.requests.ok",
    "net.requests.rejected",
    "obs.slowlog.recorded",
    "obs.telemetry.flushes",
    "obs.telemetry.kept",
    "obs.telemetry.sampled_out",
    "penguin.health.transitions",
    "penguin.plan_cache.hits",
    "penguin.plan_cache.invalidations",
    "penguin.plan_cache.misses",
    "penguin.sessions.opened",
    "relational.commits",
    "relational.conflicts",
    "relational.fallback_scans",
    "relational.hash_builds",
    "relational.index_probes",
    "relational.instances_built",
    "relational.join_rows",
    "relational.journal.dropped",
    "relational.snapshots_pinned",
    "store.checkpoints",
    "store.checkpoints.delta",
    "store.checkpoints.full",
    "store.compactions",
    "store.recover.deltas_applied",
    "store.recover.ops_replayed",
    "store.recover.records_replayed",
    "store.segments.created",
    "store.segments.deleted",
    "store.torn_tails_truncated",
    "store.wal.bytes_appended",
    "store.wal.fsyncs",
    "store.wal.records_appended",
    "translate.overlay_created",
    "translate.overlay_reads",
    "translate.snapshot_avoided",
];

/// Collector ring size. The pass drains it every [`DRAIN_EVERY`] GETs, far
/// more often than it can fill, and reports `trace.dropped` (expected 0).
const CAPACITY: usize = 1 << 18;
const DRAIN_EVERY: usize = 128;
/// At most this many window GETs are replayed (a seeded random sample),
/// spread evenly over the read phases.
pub const MAX_REPLAYS: usize = 2000;
/// Pause before a window phase starts collecting (see `begin_window`).
const SETTLE: Duration = Duration::from_millis(5);
/// At most this many post-commit snapshots are re-checked.
const MAX_CHECKS: usize = 16;

/// A window GET, for the replay: its statement and the index of an
/// in-process session at the version it read (none when not sampled).
pub struct GetRecord {
    pub src: String,
    pub session: Option<usize>,
}

/// What a traced pass records for the replay and the counter deltas.
#[derive(Default)]
pub struct PassTrace {
    pub gets: Vec<GetRecord>,
    pub sessions: Vec<Session>,
    /// Snapshots taken right after sampled commits.
    pub write_sessions: Vec<Session>,
    /// Client-timed PIN round trips (µs).
    pub pin_us: Vec<f64>,
    /// `total_ops` of each acknowledged APPLY.
    pub apply_ops: Vec<u64>,
    pub recovery: Option<RecoveryReport>,
    /// Sums over the replayed GETs.
    replay: Replay,
    /// Counter increments inside the read phases and the probe phases.
    read_counted: BTreeMap<&'static str, u64>,
    write_counted: BTreeMap<&'static str, u64>,
    /// Response bytes and responses of the read phases.
    response_bytes: u64,
    responses: u64,
}

/// The kind of window phase: a read phase on the read workload's server,
/// or a probe phase on the probe's. Their counters are kept apart, so
/// that the probe's index probes, say, do not count against the GETs.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    Read,
    Write,
}

/// One recorded span, reduced to what the attribution reads.
struct Ev {
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    dur_us: u64,
    op: Option<String>,
}

/// Holds tracing on for a traced pass and collects its window's spans.
pub struct Tracer {
    _scope: trace::TraceScope,
    seen: BTreeMap<&'static str, u64>,
    window: Vec<Ev>,
    /// The current phase, with the counters and server statistics when
    /// it began.
    phase: Option<(Phase, BTreeMap<&'static str, u64>, ServerStats)>,
}

fn counters() -> BTreeMap<&'static str, u64> {
    PROGRAM_COUNTERS
        .iter()
        .map(|&name| (name, metrics::counter(name).get()))
        .collect()
}

impl Tracer {
    pub fn start() -> Tracer {
        trace::set_capacity(CAPACITY);
        trace::clear();
        Tracer {
            _scope: trace::start_trace(),
            seen: BTreeMap::new(),
            window: Vec::new(),
            phase: None,
        }
    }

    fn drain(&mut self) {
        for e in trace::take() {
            *self.seen.entry(e.name).or_default() += 1;
            if self.phase.is_some() {
                let op = e
                    .field("op")
                    .and_then(|j| j.as_str().ok())
                    .map(str::to_owned);
                self.window.push(Ev {
                    id: e.id,
                    parent: e.parent,
                    name: e.name,
                    dur_us: e.dur_us,
                    op,
                });
            }
        }
    }

    /// Drain every [`DRAIN_EVERY`]th call (`n` counts the caller's GETs).
    pub fn drain_now_and_then(&mut self, n: usize) {
        if n.is_multiple_of(DRAIN_EVERY) {
            self.drain();
        }
    }

    /// Start a phase of the window: its spans are kept, and its counter
    /// increments and responses are added up at [`Tracer::end_window`].
    pub fn begin_window(&mut self, server: &VoServer, phase: Phase) {
        // A server closes its `net.request` span just after sending the
        // response; let the previous phase's last spans land first.
        std::thread::sleep(SETTLE);
        self.drain();
        self.phase = Some((phase, counters(), server.stats()));
    }

    pub fn end_window(&mut self, server: &VoServer, t: &mut PassTrace) {
        std::thread::sleep(SETTLE);
        self.drain();
        let Some((phase, before, stats)) = self.phase.take() else {
            return;
        };
        let counted = match phase {
            Phase::Read => &mut t.read_counted,
            Phase::Write => &mut t.write_counted,
        };
        for (name, after) in counters() {
            *counted.entry(name).or_default() += after - before[name];
        }
        if phase == Phase::Read {
            let now = server.stats();
            let answered = |s: &ServerStats| s.requests_ok + s.requests_error + s.requests_rejected;
            t.response_bytes += now.bytes_written - stats.bytes_written;
            t.responses += answered(&now) - answered(&stats);
        }
    }
}

/// Window spans summed by (operation of the enclosing `net.request`, span
/// name); spans outside any request sit under the empty operation.
struct Spans(HashMap<(String, &'static str), (u64, u64)>);

impl Spans {
    fn of(events: &[Ev]) -> Spans {
        let index: HashMap<u64, usize> =
            events.iter().enumerate().map(|(i, e)| (e.id, i)).collect();
        let mut sums: HashMap<(String, &'static str), (u64, u64)> = HashMap::new();
        for e in events {
            let mut op = None;
            let mut at = Some(e);
            while let Some(cur) = at {
                if cur.name == "net.request" {
                    op = cur.op.clone();
                    break;
                }
                at = cur.parent.and_then(|p| index.get(&p)).map(|&i| &events[i]);
            }
            let slot = sums.entry((op.unwrap_or_default(), e.name)).or_default();
            slot.0 += 1;
            slot.1 += e.dur_us;
        }
        Spans(sums)
    }

    /// `(count, total µs)` of `name` under requests of `op`.
    fn under(&self, op: &str, name: &'static str) -> (f64, f64) {
        let (n, us) = self
            .0
            .get(&(op.to_owned(), name))
            .copied()
            .unwrap_or_default();
        (n as f64, us as f64)
    }

    /// `(count, total µs)` of `name` wherever it ran.
    fn all(&self, name: &str) -> (f64, f64) {
        self.0
            .iter()
            .filter(|((_, n), _)| *n == name)
            .fold((0.0, 0.0), |(c, s), (_, &(n, us))| {
                (c + n as f64, s + us as f64)
            })
    }

    fn mean(&self, name: &str) -> f64 {
        let (n, us) = self.all(name);
        stats::ratio(us, n)
    }
}

/// Each layer's time (µs) over the replayed GETs, plus the counts the
/// ratios need.
#[derive(Default)]
struct Replay {
    n: f64,
    parse: f64,
    pivot: f64,
    plan: f64,
    instantiate: f64,
    execute: f64,
    encode: f64,
    frame: f64,
    decode: f64,
    scan_rows: f64,
    instances: f64,
}

/// Run `f` inside the benchmark span `name`, adding its time (µs) to `acc`.
fn timed<T>(name: &'static str, acc: &mut f64, f: impl FnOnce() -> T) -> T {
    let _span = trace::span(name);
    let start = Instant::now();
    let out = f();
    *acc += start.elapsed().as_secs_f64() * 1e6;
    out
}

fn scan_rows(node: &ProfileNode) -> u64 {
    let own = if node.label.starts_with("Scan(") {
        node.rows_out
    } else {
        0
    };
    own + node.children.iter().map(scan_rows).sum::<u64>()
}

/// Replay one GET in process through the functions `conn.rs` and the
/// client call for it: codec, framing, VOQL parse, pivot selection,
/// object planning, instantiation and the whole `execute_voql`.
fn replay_get(session: &Session, src: &str, id: u64, r: &mut Replay) -> Res<()> {
    let stmt = timed("bench.voql.parse", &mut r.parse, || session.parse_voql(src))?;
    let VoqlStatement::Get { object, query } = &stmt else {
        return Err(format!("replayed `{src}` is not a GET").into());
    };
    let object = &session.object(object)?.object;
    let (schema, db) = (session.schema(), session.database());
    let (keys, plan) = timed("bench.query.pivot_select", &mut r.pivot, || -> Res<_> {
        let plan = query.pivot_plan(schema, object)?;
        Ok((db.execute(&plan)?, plan))
    })?;
    r.scan_rows += scan_rows(&db.execute_profiled(&plan)?.1) as f64;
    let object_plan = timed("bench.core.plan", &mut r.plan, || {
        plan_object(schema, object, db)
    })?;
    let pivot = db.table(object.pivot())?;
    let candidates: Vec<&Tuple> = keys
        .rows
        .iter()
        .filter_map(|row| pivot.get(&Key::new(row.clone())))
        .collect();
    timed("bench.core.instantiate", &mut r.instantiate, || {
        instantiate_many_planned(object, db, &object_plan, &candidates)
    })?;
    let outcome = timed("bench.core.execute_voql", &mut r.execute, || {
        session.execute_voql(&stmt)
    })?;
    let VoqlOutcome::Instances(instances) = outcome else {
        return Err(format!("replayed `{src}` returned no instances").into());
    };
    r.instances += instances.len() as f64;
    let request = Request {
        id,
        body: RequestBody::Voql {
            src: src.to_owned(),
        },
    };
    let response = Response {
        id,
        result: Ok(ResponseBody::Instances(instances)),
    };
    let (req_text, resp_text) = timed("bench.codec.encode", &mut r.encode, || {
        (request.to_json().compact(), response.to_json().compact())
    });
    timed("bench.net.frame", &mut r.frame, || -> Res<()> {
        for payload in [&req_text, &resp_text] {
            let mut wire = Vec::with_capacity(payload.len() + vo_net::frame::HEADER_BYTES);
            write_frame(
                &mut wire,
                payload.as_bytes(),
                vo_net::DEFAULT_MAX_FRAME_BYTES,
            )?;
            black_box(read_frame(
                &mut wire.as_slice(),
                vo_net::DEFAULT_MAX_FRAME_BYTES,
            )?);
        }
        Ok(())
    })?;
    timed("bench.codec.decode", &mut r.decode, || -> Res<()> {
        black_box(Request::from_json(&json::parse(&req_text)?)?);
        black_box(Response::from_json(&json::parse(&resp_text)?)?);
        Ok(())
    })?;
    r.n += 1.0;
    Ok(())
}

impl Tracer {
    /// Replay a seeded random sample of at most `limit` of the GETs
    /// recorded since `from`, until `until`, adding to the pass's replay
    /// sums. The read loop calls this after each read phase, so that a
    /// replay samples the same stretch of the host's time as the GETs it
    /// repeats.
    pub fn replay(
        &mut self,
        t: &mut PassTrace,
        from: usize,
        limit: usize,
        seed: u64,
        until: Instant,
    ) -> Res<()> {
        let mut order: Vec<usize> = (from..t.gets.len())
            .filter(|&i| t.gets[i].session.is_some())
            .collect();
        SmallRng::seed_from_u64(seed ^ 0x4E91A7).shuffle(&mut order);
        order.truncate(limit);
        for (k, &i) in order.iter().enumerate() {
            if Instant::now() >= until {
                break;
            }
            let g = &t.gets[i];
            let session = &t.sessions[g.session.expect("filtered above")];
            replay_get(session, &g.src, i as u64 + 1, &mut t.replay)?;
            if k.is_multiple_of(DRAIN_EVERY) {
                self.drain();
            }
        }
        Ok(())
    }
}

impl Replay {
    /// Per-GET means of the summed layer times.
    fn means(&self) -> Replay {
        let n = self.n.max(1.0);
        Replay {
            n: self.n,
            parse: self.parse / n,
            pivot: self.pivot / n,
            plan: self.plan / n,
            instantiate: self.instantiate / n,
            execute: self.execute / n,
            encode: self.encode / n,
            frame: self.frame / n,
            decode: self.decode / n,
            scan_rows: self.scan_rows,
            instances: self.instances,
        }
    }
}

/// Build every per-layer metric from the traced pass (and the untraced
/// pass's read median, for the tracing overhead).
pub fn per_layer(
    report: &mut Report,
    untraced: &Pass,
    traced: &Pass,
    mut tracer: Tracer,
) -> Res<()> {
    let t = &traced.trace;
    let replayed = t.replay.means();
    let mut check_us = 0.0;
    let checks = t.write_sessions.iter().take(MAX_CHECKS);
    let checked = checks.len();
    for s in checks {
        let violations = timed("bench.integrity.global_check", &mut check_us, || {
            s.check_consistency()
        })?;
        if !violations.is_empty() {
            report.mismatch(format!(
                "{} violations at version {}",
                violations.len(),
                s.version()
            ));
        }
    }
    tracer.drain();
    let spans = Spans::of(&tracer.window);
    let delta = |name: &str| t.read_counted.get(name).copied().unwrap_or_default() as f64;
    let write_delta = |name: &str| t.write_counted.get(name).copied().unwrap_or_default() as f64;
    let gets = traced.read_us.len() as f64;
    let rt_mean = stats::mean(&traced.read_us);
    let (voql_n, voql_us) = spans.under("VOQL", "net.request");
    let server_us = stats::ratio(voql_us, voql_n);
    let instantiate_us = stats::ratio(spans.under("VOQL", "core.instantiate").1, gets);
    let filter_us = replayed.execute - replayed.pivot - replayed.plan - replayed.instantiate;
    let commits = t.apply_ops.len() as f64;
    let (apply_n, apply_us) = spans.under("APPLY", "net.request");
    let batch = spans.under("APPLY", "penguin.apply_batch");
    let hits = delta("penguin.plan_cache.hits");
    let lookups = hits + delta("penguin.plan_cache.misses");
    let patched = write_delta("maintain.instances_patched");

    let r = report;
    r.metric("net.server_us", server_us, "us");
    r.metric(
        "net.transport_us",
        if gets > 0.0 { rt_mean - server_us } else { 0.0 },
        "us",
    );
    r.metric("net.frame_us", replayed.frame, "us");
    r.metric(
        "net.response_bytes",
        stats::ratio(t.response_bytes as f64, t.responses as f64),
        "bytes",
    );
    r.metric(
        "net.funnel_wait_us",
        if apply_n > 0.0 {
            stats::ratio(apply_us, apply_n) - stats::ratio(batch.1, batch.0)
        } else {
            0.0
        },
        "us",
    );
    r.metric("codec.decode_us", replayed.decode, "us");
    r.metric("codec.encode_us", replayed.encode, "us");
    r.metric("voql.parse_us", replayed.parse, "us");
    r.metric("session.pin_us", stats::mean(&t.pin_us), "us");
    r.metric("query.pivot_select_us", replayed.pivot, "us");
    r.metric(
        "query.rows_examined_per_result",
        stats::ratio(replayed.scan_rows, replayed.instances),
        "ratio",
    );
    r.metric("core.plan_us", replayed.plan, "us");
    r.metric(
        "core.plan_cache_hit_ratio",
        stats::ratio(hits, lookups),
        "ratio",
    );
    r.metric("core.plan_cache_lookups", lookups, "count");
    r.metric("core.instantiate_us", instantiate_us, "us");
    r.metric(
        "core.probes_per_instance",
        stats::ratio(delta("relational.index_probes"), traced.instances as f64),
        "ratio",
    );
    r.metric("core.filter_us", filter_us, "us");
    r.metric(
        "exec.parallel_instantiations",
        spans.all("core.instantiate_parallel").0,
        "count",
    );
    r.metric("update.translate_us", spans.mean("penguin.translate"), "us");
    r.metric(
        "integrity.global_check_us",
        stats::ratio(check_us, checked as f64),
        "us",
    );
    r.metric(
        "update.ops_per_apply",
        stats::mean(&t.apply_ops.iter().map(|&n| n as f64).collect::<Vec<_>>()),
        "count",
    );
    r.metric("penguin.apply_us", spans.mean("penguin.apply_batch"), "us");
    r.metric("wal.append_us", spans.mean("wal.append"), "us");
    r.metric("wal.fsync_us", spans.mean("wal.fsync"), "us");
    r.metric(
        "wal.bytes_per_commit",
        stats::ratio(write_delta("store.wal.bytes_appended"), commits),
        "bytes",
    );
    r.metric(
        "wal.fsyncs_per_commit",
        stats::ratio(write_delta("store.wal.fsyncs"), commits),
        "ratio",
    );
    r.metric("store.checkpoint_us", spans.mean("store.checkpoint"), "us");
    r.metric(
        "store.checkpoints_delta",
        write_delta("store.checkpoints.delta"),
        "count",
    );
    r.metric(
        "store.checkpoints_full",
        write_delta("store.checkpoints.full"),
        "count",
    );
    r.metric("store.compact_us", spans.mean("store.compact"), "us");
    r.metric(
        "store.compactions",
        write_delta("store.compactions"),
        "count",
    );
    let recovery = t.recovery.unwrap_or_default();
    r.metric(
        "store.recover_replayed",
        recovery.records_replayed as f64,
        "count",
    );
    r.metric(
        "store.recover_deltas_applied",
        recovery.deltas_applied as f64,
        "count",
    );
    r.metric("maintain.refresh_us", spans.mean("maintain.refresh"), "us");
    r.metric(
        "maintain.patched_ratio",
        stats::ratio(patched, patched + write_delta("maintain.instances_rebuilt")),
        "ratio",
    );
    r.metric(
        "trace.overhead",
        stats::ratio(
            stats::median(&traced.read_us) * traced.speed.factor(),
            stats::median(&untraced.read_us) * untraced.speed.factor(),
        ),
        "ratio",
    );
    r.metric("trace.dropped", trace::dropped() as f64, "count");
    let attributed = replayed.frame
        + replayed.decode
        + replayed.encode
        + replayed.parse
        + replayed.pivot
        + replayed.plan
        + instantiate_us
        + filter_us;
    r.metric("attribution.base_us", rt_mean, "us");
    r.metric("attribution.unattributed_us", rt_mean - attributed, "us");

    let unreached_spans: Vec<Json> = PROGRAM_SPANS
        .iter()
        .filter(|name| !tracer.seen.contains_key(*name))
        .map(|name| Json::str(*name))
        .collect();
    let unreached_counters: Vec<Json> = counters()
        .into_iter()
        .filter(|(_, v)| *v == 0)
        .map(|(name, _)| Json::str(name))
        .collect();
    r.context
        .push(("replayed_gets", Json::Int(replayed.n as i64)));
    r.context
        .push(("unreached_spans", Json::Arr(unreached_spans)));
    r.context
        .push(("unreached_counters", Json::Arr(unreached_counters)));
    Ok(())
}
