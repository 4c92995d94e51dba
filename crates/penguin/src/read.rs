//! The one read path: every read operation of [`crate::system::Penguin`]
//! (the head) and [`crate::session::Session`] (a pinned snapshot) runs
//! here, over a borrowed [`Reader`] and one epoch-checked [`PlanCache`].
//!
//! Object lookup, instantiation, queries, key lookups, consistency
//! checks, profiles and VOQL `GET`/`SHOW` each have a single body. Every
//! operation that instantiates takes its object plan from the cache, so
//! no read request plans from scratch while the structure epoch holds.

use crate::system::RegisteredObject;
use crate::voql::{self, VoqlOutcome, VoqlStatement};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use vo_core::prelude::*;
use vo_exec::Parallelism;
use vo_obs::metrics::{self, Counter};

/// Point-in-time counters for one plan cache (a [`crate::Penguin`]'s or
/// a [`crate::Session`]'s).
///
/// Per cache, so concurrent tests and systems never see each other's
/// traffic; the same events also feed the process-wide
/// `penguin.plan_cache.*` counters in the [`vo_obs::metrics`] registry
/// for JSON export.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlanCacheStats {
    /// Plan served straight from the cache at the current structure epoch.
    pub hits: u64,
    /// Plan built because none was cached for the object.
    pub misses: u64,
    /// Cached plans dropped: explicit invalidation, a
    /// `with_database_mut` borrow, or a stale plan discovered at lookup
    /// time.
    pub invalidations: u64,
}

fn cache_hits() -> Counter {
    static C: OnceLock<Counter> = OnceLock::new();
    *C.get_or_init(|| metrics::counter("penguin.plan_cache.hits"))
}

fn cache_misses() -> Counter {
    static C: OnceLock<Counter> = OnceLock::new();
    *C.get_or_init(|| metrics::counter("penguin.plan_cache.misses"))
}

fn cache_invalidations() -> Counter {
    static C: OnceLock<Counter> = OnceLock::new();
    *C.get_or_init(|| metrics::counter("penguin.plan_cache.invalidations"))
}

/// Prepared object plans by object name, each stamped with the database
/// structure epoch it was built at. A lookup rebuilds a plan whose epoch
/// moved (index created, relation added or dropped); tuple-level updates
/// leave plans valid. A session's cache starts from the head's current
/// plans and, its snapshot's structure being fixed, never goes stale.
#[derive(Debug, Default)]
pub(crate) struct PlanCache(Mutex<CacheState>);

#[derive(Debug, Clone, Default)]
struct CacheState {
    plans: BTreeMap<String, Arc<ObjectPlan>>,
    stats: PlanCacheStats,
}

impl Clone for PlanCache {
    fn clone(&self) -> Self {
        PlanCache(Mutex::new(self.lock().clone()))
    }
}

impl PlanCache {
    fn lock(&self) -> MutexGuard<'_, CacheState> {
        // nothing panics while the lock is held except planning, which
        // leaves the map unchanged, so a poisoned cache is still coherent
        self.0.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// A new cache holding this one's plans that are current for `db`,
    /// with zeroed counters.
    pub(crate) fn current_for(&self, db: &Database) -> PlanCache {
        let plans = self
            .lock()
            .plans
            .iter()
            .filter(|(_, p)| p.is_current(db))
            .map(|(name, p)| (name.clone(), Arc::clone(p)))
            .collect();
        PlanCache(Mutex::new(CacheState {
            plans,
            stats: PlanCacheStats::default(),
        }))
    }

    pub(crate) fn stats(&self) -> PlanCacheStats {
        self.lock().stats
    }

    /// Drop every cached plan, counting each as an invalidation.
    pub(crate) fn clear(&self) {
        let mut state = self.lock();
        let dropped = state.plans.len() as u64;
        state.plans.clear();
        if dropped > 0 {
            state.stats.invalidations += dropped;
            cache_invalidations().add(dropped);
        }
    }

    /// The plan for `object`, built when none is cached at `db`'s
    /// structure epoch.
    pub(crate) fn plan(
        &self,
        schema: &StructuralSchema,
        object: &ViewObject,
        db: &Database,
    ) -> Result<Arc<ObjectPlan>> {
        let mut state = self.lock();
        if let Some(p) = state.plans.get(object.name()) {
            if p.is_current(db) {
                let p = Arc::clone(p);
                state.stats.hits += 1;
                cache_hits().inc();
                return Ok(p);
            }
            state.stats.invalidations += 1;
            cache_invalidations().inc();
        }
        state.stats.misses += 1;
        cache_misses().inc();
        let p = Arc::new(plan_object(schema, object, db)?);
        state.plans.insert(object.name().to_owned(), Arc::clone(&p));
        Ok(p)
    }
}

/// A borrowed view of what every read needs: the schema, one database
/// state, the object registry, the plan cache and the instantiation
/// parallelism.
pub(crate) struct Reader<'a> {
    pub(crate) schema: &'a StructuralSchema,
    pub(crate) db: &'a Database,
    pub(crate) objects: &'a BTreeMap<String, RegisteredObject>,
    pub(crate) plans: &'a PlanCache,
    pub(crate) parallelism: Parallelism,
}

impl<'a> Reader<'a> {
    pub(crate) fn object(&self, name: &str) -> Result<&'a RegisteredObject> {
        self.objects
            .get(name)
            .ok_or_else(|| Error::NoSuchRelation(format!("view object {name}")))
    }

    pub(crate) fn object_names(&self) -> Vec<&'a str> {
        self.objects.keys().map(|s| s.as_str()).collect()
    }

    /// A registered object with its cached plan.
    fn planned(&self, name: &str) -> Result<(&'a ViewObject, Arc<ObjectPlan>)> {
        let object = &self.object(name)?.object;
        Ok((object, self.plans.plan(self.schema, object, self.db)?))
    }

    fn pivots(&self, object: &ViewObject) -> Result<Vec<&'a Tuple>> {
        Ok(self.db.table(object.pivot())?.scan().collect())
    }

    /// Every instance, parallelized across contiguous pivot partitions.
    pub(crate) fn instantiate_all(&self, name: &str) -> Result<Vec<VoInstance>> {
        let (object, plan) = self.planned(name)?;
        let pivots = self.pivots(object)?;
        let workers = self.parallelism.workers_for(pivots.len());
        instantiate_many_parallel(object, self.db, &plan, &pivots, workers)
    }

    /// Every instance, returning only the operator-tree profile.
    pub(crate) fn profile(&self, name: &str) -> Result<ProfileNode> {
        let (object, plan) = self.planned(name)?;
        Ok(instantiate_many_profiled(object, self.db, &plan, &self.pivots(object)?)?.1)
    }

    pub(crate) fn query(&self, name: &str, query: &VoQuery) -> Result<Vec<VoInstance>> {
        let (object, plan) = self.planned(name)?;
        query.execute_planned(object, self.db, &plan)
    }

    /// The one-key case of a query's point get.
    pub(crate) fn instance_by_key(&self, name: &str, pivot_key: &Key) -> Result<VoInstance> {
        let (object, plan) = self.planned(name)?;
        let tuple = self
            .db
            .table(object.pivot())?
            .get(pivot_key)
            .ok_or_else(|| Error::NoSuchTuple {
                relation: object.pivot().to_owned(),
                key: pivot_key.to_string(),
            })?;
        let mut one = instantiate_many_planned(object, self.db, &plan, &[tuple])?;
        Ok(one.pop().expect("one instance per pivot"))
    }

    /// The object's updater; a missing object or translator fails the
    /// *validate* step of the update API.
    pub(crate) fn updater(&self, name: &str) -> UpdateResult<&'a ViewObjectUpdater> {
        self.object(name)
            .and_then(|reg| {
                reg.updater.as_ref().ok_or_else(|| {
                    Error::ConstraintViolation(format!(
                        "no translator chosen for view object {name}; run the dialog first"
                    ))
                })
            })
            .map_err(|e| UpdateError::new(UpdateStep::Validate, e))
    }

    pub(crate) fn check_consistency(&self) -> Result<Vec<Violation>> {
        check_database(self.schema, self.db)
    }

    pub(crate) fn parse_voql(&self, src: &str) -> Result<VoqlStatement> {
        voql::parse_with(&|n| self.object(n).map(|r| &r.object), src)
    }

    /// Run a read statement (`GET`, `SHOW ...`). `DELETE` and `UPDATE`
    /// are refused: the head runs them through [`crate::voql::run`], and
    /// a session prepares the change instead
    /// ([`crate::Session::prepare_batch`]).
    pub(crate) fn execute_voql(&self, stmt: &VoqlStatement) -> Result<VoqlOutcome> {
        match stmt {
            VoqlStatement::Get { object, query } => {
                Ok(VoqlOutcome::Instances(self.query(object, query)?))
            }
            VoqlStatement::ShowObjects => Ok(VoqlOutcome::Text(self.object_names().join("\n"))),
            VoqlStatement::ShowObject(name) => Ok(VoqlOutcome::Text(
                self.object(name)?.object.to_tree_string(self.schema),
            )),
            VoqlStatement::ShowSchema => Ok(VoqlOutcome::Text(self.schema.to_graph_string())),
            VoqlStatement::Delete { object, .. } | VoqlStatement::Update { object, .. } => {
                Err(Error::ConstraintViolation(format!(
                    "sessions are read-only: prepare the update on {object} with \
                     Session::prepare_batch and commit it through Penguin::commit_prepared"
                )))
            }
        }
    }
}
