//! System construction shared by the workloads: the university database
//! at a workload's scale, the `omega` view object with the indexes its
//! plan wants and a permissive translator, in memory or on a durable
//! store, served by an in-process `VoServer`.

use crate::{Args, Res};
use std::path::{Path, PathBuf};
use std::time::Duration;
use vo_core::prelude::{plan_object, Translator};
use vo_net::{ClientOptions, ServerOptions, VoClient, VoServer};
use vo_penguin::{
    seed_university_scaled, university_scaled, CheckpointPolicy, CompactionPolicy, Penguin,
    StoreOptions, SyncPolicy,
};
use vo_relational::database::Database;
use vo_relational::storage::DatabaseSnapshot;

pub const OBJECT: &str = "omega";

/// Durable stores checkpoint (a delta, normally) once the live log holds
/// more than this many commit records.
pub const CHECKPOINT_RECORDS: u64 = 16;

/// Register `omega` (pivot COURSES), provision the secondary indexes its
/// instantiation plan asks for, and install the permissive translator.
fn define_omega(p: &mut Penguin) -> Res<()> {
    p.define_object(
        OBJECT,
        "COURSES",
        &["DEPARTMENT", "CURRICULUM", "GRADES", "STUDENT"],
    )?;
    let object = p.object(OBJECT)?.object.clone();
    let indexes = plan_object(p.schema(), &object, p.database())?.required_indexes();
    p.with_database_mut(|db| {
        indexes
            .iter()
            .try_for_each(|(rel, attrs)| db.ensure_index(rel, attrs).map(|_| ()))
    })??;
    p.install_translator(OBJECT, Translator::permissive(&object))?;
    Ok(())
}

pub fn in_memory(scale: i64, seed: u64) -> Res<Penguin> {
    let (schema, db) = university_scaled(scale, seed);
    let mut p = Penguin::with_database(schema, db);
    define_omega(&mut p)?;
    Ok(p)
}

/// Sync on every commit, delta checkpoints every [`CHECKPOINT_RECORDS`]
/// commits, no automatic compaction (the write probe compacts on a fixed
/// schedule instead).
pub fn store_options() -> StoreOptions {
    StoreOptions {
        sync: SyncPolicy::Always,
        checkpoint: CheckpointPolicy {
            max_wal_bytes: 4 << 20,
            max_wal_records: CHECKPOINT_RECORDS,
        },
        compaction: CompactionPolicy::never(),
        ..StoreOptions::default()
    }
}

/// A fresh persistent system in `dir`, seeded and checkpointed.
pub fn durable(dir: &Path, scale: i64, seed: u64) -> Res<Penguin> {
    let schema = vo_core::university::university_schema();
    let mut p = Penguin::persistent_with(dir, schema, store_options())?;
    p.with_database_mut(|db| seed_university_scaled(db, scale, seed))??;
    define_omega(&mut p)?;
    p.checkpoint()?;
    Ok(p)
}

/// Two workers: one per client connection the benchmark opens.
pub fn serve(p: Penguin) -> Res<VoServer> {
    Ok(VoServer::start(
        p,
        ServerOptions {
            workers: 2,
            max_connections: 4,
            ..ServerOptions::default()
        },
    )?)
}

pub fn connect(server: &VoServer) -> Res<VoClient> {
    Ok(VoClient::connect(
        server.addr().to_string(),
        ClientOptions {
            io_timeout: Duration::from_secs(60),
            ..ClientOptions::default()
        },
    )?)
}

/// Size of the full base artifact `vo-store` would write for `db`.
pub fn base_bytes(db: &Database) -> usize {
    DatabaseSnapshot::capture_full(db).encode_compact(1).len()
}

/// Bytes of every regular file directly inside `dir`, and of those whose
/// name starts with `prefix`.
pub fn dir_bytes(dir: &Path, prefix: &str) -> Res<(u64, u64)> {
    let (mut all, mut matching) = (0, 0);
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let meta = entry.metadata()?;
        if meta.is_file() {
            all += meta.len();
            if entry.file_name().to_string_lossy().starts_with(prefix) {
                matching += meta.len();
            }
        }
    }
    Ok((all, matching))
}

/// Per-run scratch directories under `.perfbench-run/` in the working
/// directory, removed when the run ends.
pub struct Scratch {
    root: PathBuf,
    next: std::cell::Cell<u32>,
}

impl Scratch {
    pub fn create(args: &Args) -> Res<Scratch> {
        let root = Path::new(".perfbench-run").join(format!(
            "{}-{}",
            args.workload.name(),
            std::process::id()
        ));
        if root.exists() {
            std::fs::remove_dir_all(&root)?;
        }
        std::fs::create_dir_all(&root)?;
        Ok(Scratch {
            root,
            next: std::cell::Cell::new(0),
        })
    }

    /// A path for a new store directory (created by the store itself).
    pub fn fresh(&self, label: &str) -> PathBuf {
        let n = self.next.get();
        self.next.set(n + 1);
        self.root.join(format!("{label}-{n}"))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
        if let Some(parent) = self.root.parent() {
            let _ = std::fs::remove_dir(parent); // only when no other run uses it
        }
    }
}
