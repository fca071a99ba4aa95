//! The multi-threaded sharded runtime: a router/supervisor in front of
//! `N` per-shard [`Tippers`] engines, each owned by a worker thread
//! behind a `catch_unwind` crash-isolation boundary.
//!
//! # Executors
//!
//! All concurrency goes through the executor-agnostic facade in
//! [`tippers_resilience::sim`]: worker spawn/join, the job and reply
//! channels, the watchdog's `recv_timeout`, and the monotonic clock
//! behind recovery timings. Constructed on plain OS threads the facade
//! is `std::thread` + `std::sync::mpsc` and the watchdog backstop is
//! real time — byte-identical behavior to the pre-facade runtime.
//! Constructed inside a [`tippers_resilience::sim::SimExecutor`] task,
//! the same runtime becomes a deterministic simulation: the watchdog
//! counts *virtual* milliseconds (never the wall clock, so slow CI
//! hosts cannot fire it spuriously), and every interleaving — including
//! a worker committing its WAL record and then losing the reply race
//! against the watchdog — is reachable from a seeded, replayable
//! schedule (`tests/sim_interleavings.rs`).
//!
//! # Ownership
//!
//! Every shard holds a full copy of the policy set (policy mutations are
//! broadcast, so per-shard policy-id allocators stay in lockstep) and
//! the slice of subject-keyed state — preferences, stored rows, quota
//! counters, notifications — owned by its users under
//! [`super::ShardRouter`]. Preference ids are allocated by the router
//! and preserved through each shard's WAL
//! ([`crate::WalRecord::SubmitPreferenceAssigned`]), which keeps sharded
//! decisions byte-identical to the unsharded engine's (the
//! `shard_differential` suite proves it at 1/2/8 shards).
//!
//! # Failure model
//!
//! A worker that panics or stalls is quarantined: its WAL handle is
//! *fenced* (see [`super::fence`] — a slow-but-alive job that outlives
//! its watchdog can finish against its abandoned in-memory engine but
//! can never again append to the partition), its thread abandoned, its
//! in-memory state discarded, and the slot marked `Down`. Requests
//! routed to a down shard are answered fail-closed with an audited
//! [`crate::DecisionBasis::ShardUnavailable`] denial; healthy shards
//! are undisturbed. After a capped virtual-time backoff the supervisor
//! rebuilds the shard by replaying its WAL partition — committed
//! mutations survive, the panicking op's partial state does not — and
//! re-registers its occupants from the router's directory.
//!
//! Policy/preference mutations accepted while a shard is down are
//! committed *durably* through a standby engine (a WAL-replay rebuild
//! the router writes through immediately and promotes at restart), so
//! an accepted mutation survives even a whole-process crash before the
//! shard comes back. The same standby resolves indeterminate writes: a
//! watchdog expiry leaves the router unsure whether the worker
//! committed its record, but fencing guarantees the partition is
//! quiescent, so reading the replayed id allocators settles it —
//! router-assigned ids are consumed exactly when their record
//! committed, never reused for a different mutation.
//!
//! # Documented divergences from the unsharded engine
//!
//! * Noise effects draw from per-shard RNGs (same seed, independent
//!   sequences) instead of one engine-wide RNG.
//! * While a shard is down: its subjects' requests deny fail-closed, its
//!   owned observations drop (counted), and a rebuilt shard's sensor
//!   state misses the batches it was down for.
//! * `InSpace` requests during a shard outage fail closed for *all* of
//!   the down shard's users — the router cannot know who was in the
//!   space without the shard's store.
//! * A request job lost to a watchdog expiry may have committed audit
//!   or quota-charge records before the fence landed; the router still
//!   answers fail-closed, so a rebuilt shard can carry a quota charge
//!   for a disclosure that was never released — over-charging, the
//!   privacy-safe direction.
//! * With a capture pipeline ([`TippersConfig::ingest`]), each shard
//!   applies the per-zone admission bound, and derives the ladder rung,
//!   from its owned observations only; an observation another shard
//!   rejects under backpressure still feeds this shard's sensor state.

use std::any::Any;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use tippers_ontology::Ontology;
use tippers_policy::{BuildingPolicy, PolicyId, PreferenceId, Timestamp, UserId, UserPreference};
use tippers_resilience::sim;
use tippers_resilience::{ms_from_secs, FaultPlan, FaultPoint, HealthStatus};
use tippers_sensors::{Observation, Occupant};
use tippers_spatial::{SpaceId, SpatialModel};

use crate::audit::{AuditLog, UserNotification};
use crate::enforce::EnforcementDecision;
use crate::policy_manager::PolicyManager;
use crate::preference_manager::SettingsError;
use crate::request::{DataRequest, DataResponse, SubjectResult, SubjectSelector};
use crate::tippers::{Tippers, TippersConfig};
use crate::wal::{FsLog, LogIo, MemLog, RecoveryReport, WalError, WalRecord};

use super::fence::WriterFence;
use super::route::ShardRouter;
use super::supervisor::{backoff_ms, ShardHealth, ShardStats};

/// Configuration of the sharded runtime.
#[derive(Debug, Clone)]
pub struct ShardSpec {
    /// Number of shards (≥ 1).
    pub shards: usize,
    /// Watchdog backstop (milliseconds): how long the router waits on a
    /// shard worker before declaring it hung and quarantining it. Real
    /// time on OS threads; *virtual* time under the simulation executor,
    /// where it never touches the wall clock. Injected
    /// [`FaultPoint::ShardStall`] faults are detected immediately,
    /// without burning wall-clock time.
    pub watchdog_ms: u64,
    /// Virtual-time restart-backoff base (milliseconds); doubles per
    /// consecutive failed restart.
    pub backoff_base_ms: i64,
    /// Virtual-time backoff cap (milliseconds).
    pub backoff_max_ms: i64,
    /// Capture zones pinned to specific shards (everything unpinned
    /// hash-routes). Analyzer lint TA016 validates the same table
    /// pre-deployment; [`ShardRouter::with_zone_pins`] enforces it at
    /// runtime, so the audited topology and the deployed routing agree.
    pub zone_pins: Vec<(SpaceId, usize)>,
    /// Test hook: deliberately reintroduces the PR 9 abandoned-writer
    /// WAL bug by *skipping* the writer-fence advance at quarantine, so
    /// a slow-but-alive worker can append to a partition the supervisor
    /// already replayed. Exists solely so the simulation harness can
    /// prove it finds the bug (E21's seeds-to-bug metric); never set it
    /// outside that experiment.
    #[doc(hidden)]
    pub sim_reintroduce_fence_bug: bool,
}

impl Default for ShardSpec {
    fn default() -> ShardSpec {
        ShardSpec {
            shards: 8,
            watchdog_ms: 5_000,
            backoff_base_ms: 250,
            backoff_max_ms: 8_000,
            zone_pins: Vec::new(),
            sim_reintroduce_fence_bug: false,
        }
    }
}

impl ShardSpec {
    /// A router over this spec's shard count and zone pins.
    fn router(&self) -> ShardRouter {
        ShardRouter::with_zone_pins(self.shards, self.zone_pins.iter().copied())
    }

    /// How long an injected [`FaultPoint::ShardSlowJob`] delays a worker:
    /// comfortably past the watchdog, so the router has always declared
    /// the worker hung (and fenced it) before the job runs.
    fn slow_job_ms(&self) -> u64 {
        self.watchdog_ms.saturating_mul(2)
    }
}

/// A job shipped to a shard worker, and its type-erased result.
type Job = Box<dyn FnOnce(&mut Tippers) -> Box<dyn Any + Send> + Send>;

enum JobResult {
    Done(Box<dyn Any + Send>),
    Panicked,
    Stalled,
}

struct Worker {
    jobs: sim::Sender<(Job, sim::Sender<JobResult>)>,
    handle: Option<sim::JoinHandle>,
    /// Set at quarantine, checked by the worker at every dequeue: a job
    /// that was still queued when the watchdog fired must never run.
    /// The router already recorded it as lost, and a late execution
    /// would apply a stale op to the abandoned engine — and consume
    /// fault-plan budget armed for the slot's *replacement* worker.
    /// (Found by the deterministic simulation sweep: only a preemptive
    /// schedule can expire the watchdog before an idle worker's first
    /// dequeue, which is why wall-clock chaos never hit it.)
    abandoned: Arc<AtomicBool>,
}

/// Spawns a worker owning one shard's engine (an OS thread, or a
/// scheduled task under the simulation executor). The worker consults
/// the shared fault plan before each job: an armed
/// [`FaultPoint::ShardStall`] reports the watchdog verdict without
/// applying the op, an armed [`FaultPoint::ShardSlowJob`] sleeps past
/// the router's watchdog and then runs the job anyway (the abandoned
/// engine applies it, but its WAL handle has been fenced — the
/// dangerous-half rehearsal of a real hung worker), and an armed
/// [`FaultPoint::ShardPanic`] panics inside the `catch_unwind`
/// boundary. A caught panic abandons the engine (rebuilt from its WAL).
fn spawn_worker(mut bms: Tippers, plan: FaultPlan, slow_job_ms: u64) -> Worker {
    let (tx, rx) = sim::channel::<(Job, sim::Sender<JobResult>)>();
    let abandoned = Arc::new(AtomicBool::new(false));
    let fenced_off = Arc::clone(&abandoned);
    let handle = sim::spawn("shard-worker", move || {
        while let Ok((job, reply)) = rx.recv() {
            if fenced_off.load(Ordering::Acquire) {
                // Quarantined with this job still queued: it is lost,
                // not late. Exit without running it (or drawing the
                // fault plan, whose armed budget belongs to the
                // replacement worker).
                drop((job, reply));
                return;
            }
            if plan.should_fail(FaultPoint::ShardStall) {
                let _ = reply.send(JobResult::Stalled);
                continue;
            }
            if plan.should_fail(FaultPoint::ShardSlowJob) {
                sim::sleep_ms(slow_job_ms);
            }
            let result = catch_unwind(AssertUnwindSafe(|| {
                assert!(
                    !plan.should_fail(FaultPoint::ShardPanic),
                    "injected shard panic"
                );
                job(&mut bms)
            }));
            // The gap between a job's last WAL append and its reply
            // reaching the router is where a watchdog expiry leaves the
            // write indeterminate; a scheduling point here lets seeded
            // simulation schedules exercise exactly that race.
            sim::yield_now();
            match result {
                Ok(value) => {
                    let _ = reply.send(JobResult::Done(value));
                }
                Err(_) => {
                    let _ = reply.send(JobResult::Panicked);
                    // The engine's invariants are suspect: drop it. The
                    // supervisor rebuilds from the WAL partition.
                    return;
                }
            }
        }
    });
    Worker {
        jobs: tx,
        handle: Some(handle),
        abandoned,
    }
}

/// How a shard's WAL partition is reopened at rebuild.
enum ShardBacking {
    /// Shared-state in-memory log (tests, benches): a clone sees every
    /// byte the crashed engine appended.
    Mem(MemLog),
    /// On-disk log directory.
    Fs(PathBuf),
}

impl ShardBacking {
    fn reopen(&self) -> Result<Box<dyn LogIo>, WalError> {
        match self {
            ShardBacking::Mem(log) => Ok(Box::new(log.clone())),
            ShardBacking::Fs(dir) => Ok(Box::new(FsLog::open(dir.clone())?)),
        }
    }
}

struct ShardSlot {
    backing: ShardBacking,
    /// The partition's writer-epoch authority: advanced at quarantine,
    /// before anything else touches the partition, so the abandoned
    /// worker's engine can never append concurrently with a rebuild.
    fence: WriterFence,
    worker: Option<Worker>,
    /// The standby engine while the slot is down: a full WAL-replay
    /// rebuild the router writes accepted mutations through (durably,
    /// at the current writer epoch) and promotes at restart. `Some`
    /// implies the slot is `Down`.
    catchup: Option<Tippers>,
    health: ShardHealth,
    /// Policy/preference records accepted while the slot was down that
    /// could not be committed durably because the WAL partition was
    /// unreadable — the in-memory *fallback* tier, committed in order at
    /// the next successful rebuild. The primary tier is the standby
    /// engine, which commits accepted records straight into the
    /// partition. (Observations are never queued on either tier: sensor
    /// feed is droppable, and the drop is counted.)
    pending: Vec<WalRecord>,
    panics: u64,
    stalls: u64,
    restarts: u64,
    restart_losses: u64,
}

enum ShardCall<R> {
    Ok(R),
    Unavailable,
}

/// What became of one dispatched job — the distinction the write paths
/// need that [`ShardCall`] erases.
enum ShardReply<R> {
    Done(R),
    /// The worker skipped the job wholesale (injected stall) or the job
    /// was never dispatched: definitely not applied.
    Skipped,
    /// Panic mid-job or real watchdog expiry: the op may or may not
    /// have committed before the fence landed. The caller must resolve
    /// the doubt against the (now quiescent) WAL partition.
    Lost,
}

/// Why a slot is being quarantined (drives failure counters).
#[derive(Clone, Copy)]
enum FailCause {
    Panic,
    Stall,
    /// A defensively detected dead or misbehaving worker whose original
    /// failure was already counted (or never reported).
    Dead,
}

/// The sharded, supervised, multi-threaded enforcement runtime.
///
/// Implements [`super::EnforcementCore`] identically (byte-for-byte on
/// decisions) to a single [`Tippers`] while it is healthy, and degrades
/// fail-closed per shard when it is not.
pub struct ShardedTippers {
    ontology: Ontology,
    model: SpatialModel,
    config: TippersConfig,
    spec: ShardSpec,
    router: ShardRouter,
    slots: Vec<ShardSlot>,
    /// The building's full occupant directory: rebuilt shards re-register
    /// their slice from here (group/MAC registration is not WAL state),
    /// and fan-out requests fail closed over a down shard's slice.
    directory: HashMap<UserId, Occupant>,
    /// Router-side mirror of the policy set, so policy ids are allocated
    /// deterministically even when some shards are down.
    policy_mirror: PolicyManager,
    /// Router-side preference-id allocator (see
    /// [`Tippers::submit_preference_assigned`]).
    next_preference_id: u64,
    /// Audit of every fail-closed `ShardUnavailable` denial the *router*
    /// issued (per-shard engines audit their own decisions).
    router_audit: AuditLog,
    /// Virtual now (ms), advanced by the timestamps flowing through
    /// operations; drives the restart-backoff watchdog.
    vnow_ms: i64,
    unavailable_denials: u64,
    unavailable_drops: u64,
    pending_replayed: u64,
    /// Wall-clock WAL-replay rebuild durations, microseconds (E20's
    /// recovery percentiles).
    recovery_us: Vec<u64>,
}

impl ShardedTippers {
    /// Creates a sharded BMS whose shards log to in-memory WAL
    /// partitions (crash isolation and WAL-replay recovery work in full;
    /// nothing touches disk).
    ///
    /// # Panics
    ///
    /// Panics when `spec.shards` is zero, a zone pin is out of range or
    /// split across shards, or an injected WAL fault breaks the initial
    /// (empty) open.
    pub fn new(
        ontology: Ontology,
        model: SpatialModel,
        config: TippersConfig,
        spec: ShardSpec,
    ) -> ShardedTippers {
        ShardedTippers::with_backing(ontology, model, config, spec, |_| {
            ShardBacking::Mem(MemLog::new())
        })
        .expect("an empty in-memory log opens cleanly")
        .0
    }

    /// Opens a durable sharded BMS: shard `i` logs to `dir/shard-{i:03}`
    /// (each created if absent, each replayed independently). Router
    /// state is rebuilt from the replayed shards: the policy mirror from
    /// any shard (policies broadcast, so every partition replays the
    /// identical set) and the preference-id allocator from the max
    /// across shards (each partition holds only its owned preferences).
    /// Occupants are administrative configuration, like the unsharded
    /// engine's policies-on-restart: re-register them after opening.
    ///
    /// # Errors
    ///
    /// [`WalError`] when any shard's partition fails to open or replay.
    pub fn open(
        dir: impl AsRef<Path>,
        ontology: Ontology,
        model: SpatialModel,
        config: TippersConfig,
        spec: ShardSpec,
    ) -> Result<(ShardedTippers, Vec<RecoveryReport>), WalError> {
        let dir = dir.as_ref();
        ShardedTippers::with_backing(ontology, model, config, spec, |i| {
            ShardBacking::Fs(dir.join(format!("shard-{i:03}")))
        })
    }

    /// Opens every shard over the partition `backing(i)` names, replays
    /// it, and rebuilds the router's state from the replayed shards.
    fn with_backing(
        ontology: Ontology,
        model: SpatialModel,
        config: TippersConfig,
        spec: ShardSpec,
        backing: impl Fn(usize) -> ShardBacking,
    ) -> Result<(ShardedTippers, Vec<RecoveryReport>), WalError> {
        assert!(
            spec.shards > 0,
            "a sharded runtime needs at least one shard"
        );
        let router = spec.router();
        let mut slots = Vec::with_capacity(spec.shards);
        let mut reports = Vec::with_capacity(spec.shards);
        let mut policy_mirror = PolicyManager::new();
        let mut next_preference_id = 0u64;
        for i in 0..spec.shards {
            let backing = backing(i);
            let fence = WriterFence::new();
            let (bms, report) = Tippers::open_with(
                Box::new(fence.handle(backing.reopen()?)),
                ontology.clone(),
                model.clone(),
                config.clone(),
            )?;
            reports.push(report);
            if i == 0 {
                let (policies, next_policy_id) = bms.policy_parts();
                policy_mirror = PolicyManager::from_parts(policies, next_policy_id);
            } else {
                debug_assert_eq!(
                    policy_mirror.all(),
                    bms.policies(),
                    "policy broadcast must replay identically on every shard"
                );
            }
            next_preference_id = next_preference_id.max(bms.preference_next_id());
            slots.push(ShardSlot {
                backing,
                fence,
                worker: Some(spawn_worker(
                    bms,
                    config.fault_plan.clone(),
                    spec.slow_job_ms(),
                )),
                catchup: None,
                health: ShardHealth::Up,
                pending: Vec::new(),
                panics: 0,
                stalls: 0,
                restarts: 0,
                restart_losses: 0,
            });
        }
        Ok((
            ShardedTippers {
                ontology,
                model,
                config,
                spec,
                router,
                slots,
                directory: HashMap::new(),
                policy_mirror,
                next_preference_id,
                router_audit: AuditLog::new(),
                vnow_ms: 0,
                unavailable_denials: 0,
                unavailable_drops: 0,
                pending_replayed: 0,
                recovery_us: Vec::new(),
            },
            reports,
        ))
    }

    // ---- supervision ---------------------------------------------------------

    fn note_time(&mut self, now: Timestamp) {
        self.vnow_ms = self.vnow_ms.max(ms_from_secs(now.seconds()));
    }

    /// True when the slot is (or was just brought back) up. A down shard
    /// whose backoff expired gets a restart attempt right here — recovery
    /// rides the operation path, exactly like retention sweeps do.
    fn ensure_up(&mut self, idx: usize) -> bool {
        match self.slots[idx].health {
            ShardHealth::Up => true,
            ShardHealth::Down {
                attempts,
                down_until_ms,
            } => {
                if self.vnow_ms < down_until_ms {
                    return false;
                }
                self.try_restart(idx, attempts)
            }
        }
    }

    fn try_restart(&mut self, idx: usize, attempts: u32) -> bool {
        let started_us = sim::monotonic_us();
        let lost = self
            .config
            .fault_plan
            .should_fail(FaultPoint::ShardRestartLoss);
        let rebuilt = if lost {
            // The injected loss models losing the in-flight rebuild; any
            // standby engine is discarded with it. Every mutation it
            // accepted is durable in the WAL partition, so nothing
            // committed is lost — the next attempt replays it.
            self.slots[idx].catchup = None;
            None
        } else if let Some(bms) = self.slots[idx].catchup.take() {
            // The standby engine *is* the rebuilt engine: a WAL-replay
            // rebuild already caught up with every mutation accepted
            // while the slot was down.
            Some(bms)
        } else {
            self.rebuild(idx).ok()
        };
        match rebuilt {
            Some(mut bms) => {
                self.drain_pending(idx, &mut bms);
                self.recovery_us
                    .push(sim::monotonic_us().saturating_sub(started_us));
                let worker =
                    spawn_worker(bms, self.config.fault_plan.clone(), self.spec.slow_job_ms());
                let slot = &mut self.slots[idx];
                slot.worker = Some(worker);
                slot.health = ShardHealth::Up;
                slot.restarts += 1;
                true
            }
            None => {
                // The rebuild was lost (or failed): stay quarantined,
                // back off harder, never serve half-rebuilt state.
                let next = attempts + 1;
                let delay = backoff_ms(self.spec.backoff_base_ms, self.spec.backoff_max_ms, next);
                let slot = &mut self.slots[idx];
                slot.restart_losses += 1;
                slot.health = ShardHealth::Down {
                    attempts: next,
                    down_until_ms: self.vnow_ms + delay,
                };
                false
            }
        }
    }

    /// Rebuilds a quarantined shard's engine: reopen its WAL partition
    /// through a handle at the current writer epoch, replay it
    /// (committed mutations only — the panicking op's partial state is
    /// gone), and re-register the shard's occupants from the directory.
    fn rebuild(&mut self, idx: usize) -> Result<Tippers, WalError> {
        let slot = &self.slots[idx];
        let io = slot.fence.handle(slot.backing.reopen()?);
        let (mut bms, _report) = Tippers::open_with(
            Box::new(io),
            self.ontology.clone(),
            self.model.clone(),
            self.config.clone(),
        )?;
        let mut owned: Vec<Occupant> = self
            .directory
            .values()
            .filter(|o| self.router.shard_of_user(o.user) == idx)
            .cloned()
            .collect();
        // Directory iteration order is a hash order: sort so rebuilds
        // are identical across processes (schedule replay depends on it).
        owned.sort_unstable_by_key(|o| o.user);
        bms.register_occupants(&owned);
        Ok(bms)
    }

    /// Commits the fallback queue (records accepted while the partition
    /// was unreadable) through an engine, in arrival order.
    fn drain_pending(&mut self, idx: usize, bms: &mut Tippers) {
        for record in std::mem::take(&mut self.slots[idx].pending) {
            self.pending_replayed += 1;
            bms.commit(record);
        }
    }

    /// Ensures the slot has a standby engine: a WAL-replay rebuild at
    /// the current writer epoch that accepted-while-down mutations
    /// commit through durably (and that resolves whether an
    /// indeterminate write landed — the fence advanced at quarantine,
    /// so what the replay saw is what the partition will ever hold).
    /// Returns false when the partition is unreadable.
    fn ensure_catchup(&mut self, idx: usize) -> bool {
        if self.slots[idx].catchup.is_none() {
            let Ok(mut bms) = self.rebuild(idx) else {
                return false;
            };
            self.drain_pending(idx, &mut bms);
            self.slots[idx].catchup = Some(bms);
        }
        true
    }

    fn quarantine(&mut self, idx: usize, cause: FailCause) {
        // Fence first: from here on the abandoned worker's engine cannot
        // append to (or truncate, or rotate) the WAL partition, and once
        // `advance` returns no write of its is still in flight — the
        // partition is stable for the standby rebuild to replay.
        // (The test-only `sim_reintroduce_fence_bug` hook skips this —
        // reopening the PR 9 abandoned-writer hole on purpose so the
        // simulation harness can prove it finds the bug.)
        if !self.spec.sim_reintroduce_fence_bug {
            self.slots[idx].fence.advance();
        }
        let slot = &mut self.slots[idx];
        // Dropping the worker closes its job channel (a live thread
        // exits); a genuinely hung thread is abandoned, never joined.
        // The abandonment flag stops it from running any job still
        // queued behind the one the watchdog gave up on.
        if let Some(worker) = &slot.worker {
            worker.abandoned.store(true, Ordering::Release);
        }
        slot.worker = None;
        match cause {
            FailCause::Panic => slot.panics += 1,
            FailCause::Stall => slot.stalls += 1,
            // The original failure was already counted when it was
            // detected; a second detection is not a second failure.
            FailCause::Dead => {}
        }
        // Preserve accumulated backoff escalation: re-quarantining an
        // already-down slot keeps its failed-restart attempts.
        let attempts = match slot.health {
            ShardHealth::Up => 0,
            ShardHealth::Down { attempts, .. } => attempts,
        };
        let delay = backoff_ms(
            self.spec.backoff_base_ms,
            self.spec.backoff_max_ms,
            attempts,
        );
        slot.health = ShardHealth::Down {
            attempts,
            down_until_ms: self.vnow_ms + delay,
        };
    }

    // ---- dispatch ------------------------------------------------------------

    fn send_job<R: Send + 'static>(
        &mut self,
        idx: usize,
        job: impl FnOnce(&mut Tippers) -> R + Send + 'static,
    ) -> Option<sim::Receiver<JobResult>> {
        let (reply_tx, reply_rx) = sim::channel();
        let boxed: Job = Box::new(move |bms| Box::new(job(bms)) as Box<dyn Any + Send>);
        let Some(worker) = self.slots[idx].worker.as_ref() else {
            self.quarantine(idx, FailCause::Dead);
            return None;
        };
        if worker.jobs.send((boxed, reply_tx)).is_err() {
            // The worker died after an earlier panic: quarantine now
            // (the panic itself was counted when it was reported).
            self.quarantine(idx, FailCause::Dead);
            return None;
        }
        Some(reply_rx)
    }

    fn await_reply<R: Send + 'static>(
        &mut self,
        idx: usize,
        rx: &sim::Receiver<JobResult>,
    ) -> ShardReply<R> {
        match rx.recv_timeout_ms(self.spec.watchdog_ms) {
            Ok(JobResult::Done(value)) => match value.downcast::<R>() {
                Ok(v) => ShardReply::Done(*v),
                Err(_) => {
                    // A type confusion between router and worker: treat
                    // the op as indeterminate, never as absent.
                    self.quarantine(idx, FailCause::Dead);
                    ShardReply::Lost
                }
            },
            Ok(JobResult::Panicked) => {
                // The job died mid-flight; it may have committed its WAL
                // record before the panic.
                self.quarantine(idx, FailCause::Panic);
                ShardReply::Lost
            }
            Ok(JobResult::Stalled) => {
                // Injected stall: the worker reported the verdict
                // *instead of* running the job — definitely not applied.
                self.quarantine(idx, FailCause::Stall);
                ShardReply::Skipped
            }
            Err(_) => {
                // Watchdog expiry (real time on OS threads, virtual time
                // under the simulation executor): the worker is hung (or
                // slow) with the job in an unknown state. Quarantining fences its
                // WAL handle, so whatever it committed up to this moment
                // is all it ever will.
                self.quarantine(idx, FailCause::Stall);
                ShardReply::Lost
            }
        }
    }

    /// Dispatches one job to a (known-up) shard worker. `Skipped` when
    /// the worker was already dead and nothing was sent.
    fn dispatch<R: Send + 'static>(
        &mut self,
        idx: usize,
        job: impl FnOnce(&mut Tippers) -> R + Send + 'static,
    ) -> ShardReply<R> {
        match self.send_job(idx, job) {
            Some(rx) => self.await_reply(idx, &rx),
            None => ShardReply::Skipped,
        }
    }

    /// One synchronous round trip to a shard worker (the per-op
    /// crash-isolation boundary), for operations that fail closed
    /// without needing to know *why* the shard answer is missing.
    fn call<R: Send + 'static>(
        &mut self,
        idx: usize,
        job: impl FnOnce(&mut Tippers) -> R + Send + 'static,
    ) -> ShardCall<R> {
        if !self.ensure_up(idx) {
            return ShardCall::Unavailable;
        }
        match self.dispatch(idx, job) {
            ShardReply::Done(v) => ShardCall::Ok(v),
            ShardReply::Skipped | ShardReply::Lost => ShardCall::Unavailable,
        }
    }

    // ---- durable commits ----------------------------------------------------

    /// Commits one record on shard `idx`: through its worker while the
    /// shard is up, otherwise durably through the standby engine when the
    /// partition is readable, otherwise onto the in-memory fallback
    /// queue. A job the worker skipped was definitely not applied; a lost
    /// one may have been, so `landed` reads the standby's replayed id
    /// allocators to tell whether the record already committed — ids are
    /// consumed exactly once. A record that changes nothing, like
    /// removing an absent policy, commits nothing either way.
    fn commit_on(&mut self, idx: usize, record: &WalRecord, landed: impl FnOnce(&Tippers) -> bool) {
        if self.ensure_up(idx) {
            let shipped = record.clone();
            if let ShardReply::Done(_) = self.dispatch(idx, move |bms| bms.commit(shipped)) {
                return;
            }
        }
        if !self.ensure_catchup(idx) {
            self.slots[idx].pending.push(record.clone());
            return;
        }
        let bms = self.slots[idx]
            .catchup
            .as_mut()
            .expect("ensure_catchup built the standby engine");
        if !landed(bms) && bms.commit(record.clone()).changed() {
            self.pending_replayed += 1;
        }
    }

    // ---- fail-closed answers -------------------------------------------------

    fn unavailable_subject(
        &mut self,
        request: &DataRequest,
        user: UserId,
        now: Timestamp,
    ) -> SubjectResult {
        let decision = EnforcementDecision::shard_unavailable();
        self.router_audit.record(
            now,
            user,
            Some(request.service.clone()),
            request.data,
            request.purpose,
            &decision,
        );
        self.unavailable_denials += 1;
        SubjectResult {
            user,
            decision,
            records: Vec::new(),
        }
    }

    fn unavailable_response(
        &mut self,
        request: &DataRequest,
        user: UserId,
        now: Timestamp,
    ) -> DataResponse {
        DataResponse {
            results: vec![self.unavailable_subject(request, user, now)],
            degraded: true,
        }
    }

    /// The users a down shard owns, sorted — the fail-closed fan-out
    /// slice for `All`/`InSpace` requests.
    fn owned_users(&self, idx: usize) -> Vec<UserId> {
        let mut owned: Vec<UserId> = self
            .directory
            .keys()
            .copied()
            .filter(|&u| self.router.shard_of_user(u) == idx)
            .collect();
        owned.sort_unstable();
        owned
    }

    // ---- the enforcement surface ---------------------------------------------

    /// Registers occupants: recorded in the router's directory (the
    /// rebuild source of truth) and pushed to each occupant's owner
    /// shard.
    pub fn register_occupants(&mut self, occupants: &[Occupant]) {
        for o in occupants {
            self.directory.insert(o.user, o.clone());
        }
        for idx in 0..self.slots.len() {
            let owned: Vec<Occupant> = occupants
                .iter()
                .filter(|o| self.router.shard_of_user(o.user) == idx)
                .cloned()
                .collect();
            if owned.is_empty() {
                continue;
            }
            // A down shard's standby engine registers them right away;
            // a from-scratch rebuild re-registers from the directory.
            let standby_copy = owned.clone();
            match self.call(idx, move |bms| bms.register_occupants(&owned)) {
                ShardCall::Ok(()) => {}
                ShardCall::Unavailable => {
                    if let Some(bms) = self.slots[idx].catchup.as_mut() {
                        bms.register_occupants(&standby_copy);
                    }
                }
            }
        }
    }

    /// Adds a policy, broadcast to every shard (each shard enforces the
    /// full policy set; allocators stay in lockstep). A down shard
    /// commits it durably through its standby engine.
    pub fn add_policy(&mut self, policy: BuildingPolicy) -> PolicyId {
        let id = self.policy_mirror.add(policy.clone());
        let record = WalRecord::AddPolicy { policy };
        for idx in 0..self.slots.len() {
            self.commit_on(idx, &record, |bms| bms.policy_next_id() > id.0);
        }
        id
    }

    /// Removes a policy on every shard. A down shard removes it durably
    /// through its standby engine.
    pub fn remove_policy(&mut self, id: PolicyId) -> bool {
        let removed = self.policy_mirror.remove(id);
        let record = WalRecord::RemovePolicy { policy: id };
        for idx in 0..self.slots.len() {
            // Removal is idempotent: re-removing an already-removed id
            // changes nothing and commits nothing.
            self.commit_on(idx, &record, |_| false);
        }
        removed
    }

    /// The policy set in force (the router's mirror).
    pub fn policies(&self) -> &[BuildingPolicy] {
        self.policy_mirror.all()
    }

    /// Stores a preference on its subject's owner shard. The id comes
    /// from the router's allocator — the same sequence the unsharded
    /// engine would assign. A submission while the owner shard is down
    /// is committed durably through the shard's standby engine (straight
    /// into its WAL partition), so an accepted preference survives even
    /// a whole-process crash during the quarantine window.
    pub fn submit_preference(&mut self, mut pref: UserPreference, now: Timestamp) -> PreferenceId {
        self.note_time(now);
        let id = PreferenceId(self.next_preference_id);
        self.next_preference_id += 1;
        pref.id = id;
        let idx = self.router.shard_of_user(pref.user);
        let record = WalRecord::SubmitPreferenceAssigned {
            preference: pref,
            now,
        };
        self.commit_on(idx, &record, |bms| preference_landed(bms, id));
        id
    }

    /// Applies an IoTA setting choice on the user's owner shard.
    ///
    /// # Errors
    ///
    /// [`SettingsError`] when the policy/setting/option is unknown, or
    /// [`SettingsError::ShardUnavailable`] (fail-closed, nothing applied)
    /// while the owner shard is quarantined — unlike plain preference
    /// submission, a choice needs the shard's policy table to validate,
    /// so it cannot be accepted blind.
    pub fn apply_setting_choice(
        &mut self,
        user: UserId,
        policy: PolicyId,
        setting_key: &str,
        option_index: usize,
    ) -> Result<PreferenceId, SettingsError> {
        let idx = self.router.shard_of_user(user);
        if !self.ensure_up(idx) {
            // Nothing dispatched, so nothing can have committed under
            // the reserved id — it stays unconsumed for the next caller.
            return Err(SettingsError::ShardUnavailable);
        }
        let id = PreferenceId(self.next_preference_id);
        let key = setting_key.to_owned();
        match self.dispatch(idx, move |bms| {
            bms.apply_setting_choice_assigned(user, policy, &key, option_index, id)
        }) {
            ShardReply::Done(Ok(got)) => {
                // The id is consumed only on success, mirroring the
                // unsharded allocator.
                self.next_preference_id += 1;
                Ok(got)
            }
            ShardReply::Done(Err(e)) => Err(e),
            // The worker skipped the job wholesale: the id was never
            // written anywhere and is safe to hand out again.
            ShardReply::Skipped => Err(SettingsError::ShardUnavailable),
            ShardReply::Lost => {
                // The worker may have committed `SettingChoiceAssigned`
                // under `id` before the fence landed. Replay the (now
                // quiescent) partition: the allocator moved past `id`
                // iff that record committed. Consume the id exactly when
                // the choice actually took effect — never reuse an id
                // that may name a durable preference.
                if self.ensure_catchup(idx) {
                    let standby = self.slots[idx]
                        .catchup
                        .as_ref()
                        .expect("ensure_catchup built the standby engine");
                    if preference_landed(standby, id) {
                        self.next_preference_id += 1;
                        return Ok(id);
                    }
                    Err(SettingsError::ShardUnavailable)
                } else {
                    // The partition is unreadable, so the doubt cannot
                    // be resolved: burn the id (an allocator gap is
                    // harmless; a reuse is not) and fail closed.
                    self.next_preference_id += 1;
                    Err(SettingsError::ShardUnavailable)
                }
            }
        }
    }

    /// Ingests a batch of observations. Every *up* shard observes the
    /// full batch (sensor/occupancy state is building-global, exactly as
    /// unsharded) but enforces and stores only the observations it owns;
    /// a down shard's owned observations are dropped and counted.
    ///
    /// Returns `(stored, dropped)` across all shards.
    pub fn ingest(&mut self, observations: &[Observation]) -> (usize, usize) {
        if observations.is_empty() {
            return (0, 0);
        }
        if let Some(t) = observations
            .iter()
            .map(|o| ms_from_secs(o.timestamp.seconds()))
            .max()
        {
            self.vnow_ms = self.vnow_ms.max(t);
        }
        let owners: Vec<usize> = observations
            .iter()
            .map(|o| {
                o.subject.map_or_else(
                    || self.router.shard_of_zone(o.space),
                    |u| self.router.shard_of_user(u),
                )
            })
            .collect();
        let mut stored = 0usize;
        let mut dropped = 0usize;
        for idx in 0..self.slots.len() {
            let owned_count = owners.iter().filter(|&&o| o == idx).count();
            let obs = observations.to_vec();
            let mask: Vec<bool> = owners.iter().map(|&o| o == idx).collect();
            match self.call(idx, move |bms| bms.capture(&obs, |i| mask[i]).stored) {
                ShardCall::Ok(s) => {
                    stored += s;
                    dropped += owned_count - s;
                }
                ShardCall::Unavailable => {
                    dropped += owned_count;
                    self.unavailable_drops += owned_count as u64;
                }
            }
        }
        (stored, dropped)
    }

    /// Routes one request. Single-subject requests go to the subject's
    /// owner shard; `All`/`InSpace` fan out to every shard and merge in
    /// user order (the unsharded engine's order). Subjects on a down
    /// shard are denied fail-closed with an audited
    /// [`crate::DecisionBasis::ShardUnavailable`].
    pub fn handle_request(&mut self, request: &DataRequest, now: Timestamp) -> DataResponse {
        self.note_time(now);
        if let SubjectSelector::One(user) = request.subjects {
            let idx = self.router.shard_of_user(user);
            let req = request.clone();
            return match self.call(idx, move |bms| bms.handle_request(&req, now)) {
                ShardCall::Ok(resp) => resp,
                ShardCall::Unavailable => self.unavailable_response(request, user, now),
            };
        }
        let mut results: Vec<SubjectResult> = Vec::new();
        let mut degraded = false;
        for idx in 0..self.slots.len() {
            let req = request.clone();
            match self.call(idx, move |bms| bms.handle_request(&req, now)) {
                ShardCall::Ok(resp) => {
                    degraded |= resp.degraded;
                    results.extend(resp.results);
                }
                ShardCall::Unavailable => {
                    degraded = true;
                    for user in self.owned_users(idx) {
                        results.push(self.unavailable_subject(request, user, now));
                    }
                }
            }
        }
        results.sort_by_key(|r| r.user);
        DataResponse { results, degraded }
    }

    /// Routes a batch of requests, running the shards *concurrently* —
    /// the runtime's parallel request path (experiment E20). Responses
    /// come back in input order; single-subject requests are partitioned
    /// per shard and dispatched in one job each, fan-out selectors fall
    /// back to sequential [`ShardedTippers::handle_request`].
    pub fn handle_batch(&mut self, requests: &[DataRequest], now: Timestamp) -> Vec<DataResponse> {
        self.note_time(now);
        let mut out: Vec<Option<DataResponse>> = Vec::with_capacity(requests.len());
        out.resize_with(requests.len(), || None);
        let mut per_shard: Vec<Vec<(usize, DataRequest)>> =
            (0..self.slots.len()).map(|_| Vec::new()).collect();
        let mut sequential: Vec<usize> = Vec::new();
        for (i, req) in requests.iter().enumerate() {
            match &req.subjects {
                SubjectSelector::One(u) => {
                    per_shard[self.router.shard_of_user(*u)].push((i, req.clone()));
                }
                _ => sequential.push(i),
            }
        }
        let mut waits = Vec::new();
        for (idx, batch) in per_shard.into_iter().enumerate() {
            if batch.is_empty() {
                continue;
            }
            if !self.ensure_up(idx) {
                self.fail_batch(batch, now, &mut out);
                continue;
            }
            let fallback = batch.clone();
            match self.send_job(idx, move |bms| {
                batch
                    .into_iter()
                    .map(|(i, req)| (i, bms.handle_request(&req, now)))
                    .collect::<Vec<(usize, DataResponse)>>()
            }) {
                Some(rx) => waits.push((idx, rx, fallback)),
                None => self.fail_batch(fallback, now, &mut out),
            }
        }
        for (idx, rx, fallback) in waits {
            match self.await_reply::<Vec<(usize, DataResponse)>>(idx, &rx) {
                ShardReply::Done(items) => {
                    for (i, resp) in items {
                        out[i] = Some(resp);
                    }
                }
                // Requests are read-mostly: lost or skipped, the whole
                // batch answers fail-closed either way.
                ShardReply::Skipped | ShardReply::Lost => self.fail_batch(fallback, now, &mut out),
            }
        }
        for i in sequential {
            out[i] = Some(self.handle_request(&requests[i], now));
        }
        out.into_iter()
            .map(|r| r.expect("every request answered"))
            .collect()
    }

    fn fail_batch(
        &mut self,
        batch: Vec<(usize, DataRequest)>,
        now: Timestamp,
        out: &mut [Option<DataResponse>],
    ) {
        for (i, req) in batch {
            let user = match &req.subjects {
                SubjectSelector::One(u) => *u,
                _ => continue,
            };
            out[i] = Some(self.unavailable_response(&req, user, now));
        }
    }

    /// Drains a user's pending notifications from their owner shard
    /// (empty while the shard is down — they are delivered after
    /// recovery, never lost: notifications live in replayed state and
    /// the catch-up queue).
    pub fn take_notifications(&mut self, user: UserId) -> Vec<UserNotification> {
        let idx = self.router.shard_of_user(user);
        match self.call(idx, move |bms| bms.take_notifications(user)) {
            ShardCall::Ok(v) => v,
            ShardCall::Unavailable => Vec::new(),
        }
    }

    /// Runs a retention sweep on every up shard; returns total rows
    /// swept. A down shard sweeps after recovery (retention is enforced
    /// by expiry time, so late sweeps delete the same rows).
    pub fn sweep(&mut self, now: Timestamp) -> usize {
        self.note_time(now);
        let mut total = 0usize;
        for idx in 0..self.slots.len() {
            if let ShardCall::Ok(n) = self.call(idx, move |bms| bms.sweep(now)) {
                total += n;
            }
        }
        total
    }

    /// Runtime health: degraded while any shard is quarantined.
    pub fn health(&self) -> HealthStatus {
        if self.slots.iter().all(|s| s.health.is_up()) {
            HealthStatus::Healthy
        } else {
            HealthStatus::Degraded
        }
    }

    // ---- observability -------------------------------------------------------

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.slots.len()
    }

    /// The shard owning a user's state (exposed so tests, benches and
    /// demos can aim chaos at a specific shard).
    pub fn shard_of_user(&self, user: UserId) -> usize {
        self.router.shard_of_user(user)
    }

    /// Health of every shard slot.
    pub fn shard_healths(&self) -> Vec<ShardHealth> {
        self.slots.iter().map(|s| s.health).collect()
    }

    /// Health of one shard slot.
    pub fn shard_health(&self, idx: usize) -> ShardHealth {
        self.slots[idx].health
    }

    /// The shared fault plan (chaos harnesses arm shard faults here;
    /// every worker consults it before each job).
    pub fn config_fault_plan(&self) -> &FaultPlan {
        &self.config.fault_plan
    }

    /// The router's fail-closed denial audit (`ShardUnavailable` only;
    /// healthy decisions are audited inside their shard).
    pub fn router_audit(&self) -> &AuditLog {
        &self.router_audit
    }

    /// Aggregated supervision counters.
    pub fn stats(&self) -> ShardStats {
        ShardStats {
            shards: self.slots.len(),
            down: self.slots.iter().filter(|s| !s.health.is_up()).count(),
            panics: self.slots.iter().map(|s| s.panics).sum(),
            stalls: self.slots.iter().map(|s| s.stalls).sum(),
            restarts: self.slots.iter().map(|s| s.restarts).sum(),
            restart_losses: self.slots.iter().map(|s| s.restart_losses).sum(),
            unavailable_denials: self.unavailable_denials,
            unavailable_drops: self.unavailable_drops,
            pending_replayed: self.pending_replayed,
            fenced_writes: self.slots.iter().map(|s| s.fence.fenced_writes()).sum(),
        }
    }

    /// Wall-clock durations (µs) of every successful WAL-replay rebuild.
    pub fn recovery_times_us(&self) -> &[u64] {
        &self.recovery_us
    }

    /// The supervisor's virtual clock (ms).
    pub fn virtual_now_ms(&self) -> i64 {
        self.vnow_ms
    }

    /// Runs a read-only closure on one shard's live engine (`None` while
    /// the shard is quarantined) — the observability hook the chaos
    /// harness uses to verify rebuilt state.
    pub fn inspect_shard<R: Send + 'static>(
        &mut self,
        idx: usize,
        f: impl FnOnce(&Tippers) -> R + Send + 'static,
    ) -> Option<R> {
        match self.call(idx, move |bms| f(&*bms)) {
            ShardCall::Ok(v) => Some(v),
            ShardCall::Unavailable => None,
        }
    }
}

impl Drop for ShardedTippers {
    fn drop(&mut self) {
        for slot in &mut self.slots {
            if let Some(worker) = slot.worker.take() {
                let Worker { jobs, handle, .. } = worker;
                // Closing the channel ends the worker loop; join so no
                // thread outlives the runtime. (Quarantined-hung workers
                // were already abandoned without a handle.)
                drop(jobs);
                if let Some(handle) = handle {
                    handle.join();
                }
            }
        }
    }
}

impl std::fmt::Debug for ShardedTippers {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedTippers")
            .field("shards", &self.slots.len())
            .field("healths", &self.shard_healths())
            .field("vnow_ms", &self.vnow_ms)
            .finish_non_exhaustive()
    }
}

/// Whether a router-allocated preference id already committed on a
/// shard. Router ids are allocated in one monotone sequence and the
/// per-shard allocator maxes over committed ids, so the replayed
/// allocator sits past `id` iff that record committed before the fence
/// landed.
fn preference_landed(bms: &Tippers, id: PreferenceId) -> bool {
    bms.preference_next_id() > id.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::thread;
    use std::time::Duration;
    use tippers_policy::{Effect, PreferenceScope};
    use tippers_spatial::fixtures::dbh;

    fn small(watchdog_ms: u64) -> ShardedTippers {
        ShardedTippers::new(
            Ontology::standard(),
            dbh().model,
            TippersConfig::default(),
            ShardSpec {
                shards: 2,
                watchdog_ms,
                backoff_base_ms: 10,
                backoff_max_ms: 40,
                ..ShardSpec::default()
            },
        )
    }

    fn deny_pref(user: UserId) -> UserPreference {
        UserPreference::new(
            PreferenceId(0),
            user,
            PreferenceScope::default(),
            Effect::Deny,
        )
    }

    /// The indeterminate half of a watchdog expiry that fault injection
    /// cannot reach from the public API: the worker *commits* the record
    /// and only then outlives the watchdog. The offline path must read
    /// the commit out of the replayed partition and apply nothing twice.
    #[test]
    fn a_write_that_committed_before_the_watchdog_is_not_reapplied() {
        let mut st = small(50);
        let user = UserId(7);
        let idx = st.router.shard_of_user(user);
        let now = Timestamp::at(0, 9, 0);
        st.note_time(now);

        // Reserve the id exactly as submit_preference does.
        let id = PreferenceId(st.next_preference_id);
        st.next_preference_id += 1;
        let mut pref = deny_pref(user);
        pref.id = id;

        let p = pref.clone();
        let (committed_tx, committed_rx) = mpsc::channel();
        let rx = st
            .send_job(idx, move |bms| {
                let got = bms.submit_preference_assigned(p, now);
                committed_tx.send(()).expect("router is waiting");
                thread::sleep(Duration::from_millis(400));
                got
            })
            .expect("worker is up");
        // Only start the watchdog once the record is durably committed,
        // so the expiry is guaranteed to land *after* the commit.
        committed_rx.recv().expect("worker reached the commit");
        assert!(matches!(
            st.await_reply::<PreferenceId>(idx, &rx),
            ShardReply::Lost
        ));
        assert!(!st.slots[idx].health.is_up());
        assert_eq!(st.stats().stalls, 1);

        // The offline commit resolves the doubt against the replayed
        // (fenced, quiescent) partition: already committed, so nothing
        // to redo.
        let record = WalRecord::SubmitPreferenceAssigned {
            preference: pref,
            now,
        };
        st.commit_on(idx, &record, |bms| preference_landed(bms, id));
        assert_eq!(st.stats().pending_replayed, 0);

        // After recovery the preference exists exactly once.
        st.note_time(Timestamp::at(0, 9, 10));
        assert!(st.ensure_up(idx));
        let n = st
            .inspect_shard(idx, move |bms| bms.preference_count_for(user))
            .expect("shard recovered");
        assert_eq!(n, 1);
    }

    /// The determinate half: the watchdog expires *before* the worker
    /// commits. The fence rejects the late append, and the offline path
    /// sees an uncommitted id and applies the record itself — exactly
    /// once either way.
    #[test]
    fn a_write_fenced_before_committing_is_applied_by_the_standby() {
        let mut st = small(50);
        let user = UserId(7);
        let idx = st.router.shard_of_user(user);
        let now = Timestamp::at(0, 9, 0);
        st.note_time(now);

        let id = PreferenceId(st.next_preference_id);
        st.next_preference_id += 1;
        let mut pref = deny_pref(user);
        pref.id = id;

        let p = pref.clone();
        let (fenced_tx, fenced_rx) = mpsc::channel();
        let rx = st
            .send_job(idx, move |bms| {
                // Outlive the watchdog first, then commit: the append
                // lands on a fenced handle and never reaches the
                // partition (the engine swallows it into its
                // wal_append_failures counter).
                fenced_rx.recv().expect("router signals after quarantine");
                bms.submit_preference_assigned(p, now)
            })
            .expect("worker is up");
        assert!(matches!(
            st.await_reply::<PreferenceId>(idx, &rx),
            ShardReply::Lost
        ));
        // The fence is up; *now* let the abandoned worker try to commit.
        fenced_tx.send(()).expect("worker is parked on the signal");

        let record = WalRecord::SubmitPreferenceAssigned {
            preference: pref,
            now,
        };
        st.commit_on(idx, &record, |bms| preference_landed(bms, id));
        assert_eq!(st.stats().pending_replayed, 1);

        st.note_time(Timestamp::at(0, 9, 10));
        assert!(st.ensure_up(idx));
        let n = st
            .inspect_shard(idx, move |bms| bms.preference_count_for(user))
            .expect("shard recovered");
        assert_eq!(n, 1);
    }

    /// Re-quarantining an already-down slot must not reset its backoff
    /// escalation, and a dead-worker detection must not inflate the
    /// panic counter.
    #[test]
    fn requarantine_preserves_attempts_and_dead_workers_count_nothing() {
        let mut st = small(50);
        st.note_time(Timestamp::at(0, 9, 0));
        st.quarantine(0, FailCause::Panic);
        let ShardHealth::Down { attempts: 0, .. } = st.slots[0].health else {
            panic!("fresh quarantine starts at zero attempts");
        };
        // Two lost restarts escalate the backoff.
        st.slots[0].health = ShardHealth::Down {
            attempts: 2,
            down_until_ms: st.vnow_ms + 40,
        };
        st.quarantine(0, FailCause::Dead);
        let ShardHealth::Down { attempts, .. } = st.slots[0].health else {
            panic!("still down");
        };
        assert_eq!(attempts, 2, "re-quarantine reset backoff escalation");
        let stats = st.stats();
        assert_eq!(stats.panics, 1, "dead-worker detection counted a panic");
        assert_eq!(stats.stalls, 0);
    }
}
