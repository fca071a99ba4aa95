//! The shared fixture: a seeded DBH building, its corpus, a durable BMS
//! over an in-memory WAL, and the operation streams each workload drives.

use std::collections::{BTreeSet, HashMap};
use std::time::Instant;

use tippers::wal::MemLog;
use tippers::{
    DataRequest, Enforcer, IndexedEnforcer, IngestConfig, Priority, QuotaConfig, SubjectSelector,
    Tippers, TippersConfig,
};
use tippers_bench::{gen_policies, gen_preferences, service_pool, Lcg};
use tippers_ontology::Ontology;
use tippers_policy::{
    ActionSet, BuildingPolicy, DataAction, Modality, PolicyId, ResolutionStrategy, ServiceId,
    Timestamp, UserGroup, UserId, UserPreference,
};
use tippers_sensors::{DeviceId, MacAddress, Observation, ObservationPayload, Occupant};
use tippers_spatial::fixtures::{dbh, Dbh};
use tippers_spatial::SpaceId;

use crate::drive::{current_space, flow_of};

/// Occupants registered in every workload.
pub const OCCUPANTS: usize = 1_000;
/// WiFi rows loaded per occupant before the run.
pub const ROWS_PER_OCCUPANT: usize = 4;
/// Distinct requests a request workload cycles through.
pub const REQUEST_POOL: usize = 8_192;
/// Share of a request pool the corpus permits. Left to chance, the share
/// moved with the seed from 0.39 to 0.74 on the 20-policy corpus, and a
/// permitted request costs more than a denied one (quota, release).
pub const PERMIT_SHARE: f64 = 0.6;
/// Reads between two IoTA writes in `pref_churn`.
pub const READS_PER_WRITE: usize = 64;
/// Observations per `ingest_batched` call in `capture_firehose`.
pub const CAPTURE_BATCH: usize = 32;
/// Services the corpus and the requests draw from.
pub const SERVICES: usize = 10;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 500 policies, 5 preferences per user: the enforcer dominates.
    ReqDense,
    /// 20 policies, 1 preference per user: the audit journal dominates.
    ReqSparse,
    /// The dense corpus with one IoTA write per 64 reads.
    PrefChurn,
    /// Batched capture on the dense corpus.
    CaptureFirehose,
}

impl Workload {
    /// Every workload, in the order the documentation lists them.
    pub const ALL: [Workload; 4] = [
        Workload::ReqDense,
        Workload::ReqSparse,
        Workload::PrefChurn,
        Workload::CaptureFirehose,
    ];

    /// The workload named `name`, if any.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ReqDense => "req_dense",
            Workload::ReqSparse => "req_sparse",
            Workload::PrefChurn => "pref_churn",
            Workload::CaptureFirehose => "capture_firehose",
        }
    }

    /// Generated policies (besides the storage baseline).
    pub fn policies(self) -> usize {
        match self {
            Workload::ReqSparse => 20,
            _ => 500,
        }
    }

    /// Generated preferences per occupant.
    pub fn prefs_per_user(self) -> usize {
        match self {
            Workload::ReqSparse => 1,
            _ => 5,
        }
    }

    /// Offered rate of the open-loop phase, operations per second: a
    /// tenth of the seed program's closed-loop capacity on a 2-core Xeon,
    /// or less (up to half for capture, whose batches make no decisions).
    /// At higher rates the host's drifting speed moved queueing delay, and
    /// so latency, far more than it moved throughput; at these each
    /// operation meets an idle system, so latency is its service time. On
    /// `req_sparse` an audit seal (every 64 decisions) ends long before the
    /// next request is due: its p99 is the seal itself. Low rates also keep
    /// the decision count, and so the final audit-archive check, small.
    /// A capture operation is one batch of [`CAPTURE_BATCH`] observations.
    pub fn open_rate(self) -> f64 {
        match self {
            Workload::ReqDense | Workload::ReqSparse => 2_000.0,
            Workload::PrefChurn => 1_000.0,
            Workload::CaptureFirehose => 180.0,
        }
    }

    /// Share of `--seconds` spent in the closed loop; the open loop gets
    /// the rest. Both phases are spread over the whole run, so each metric
    /// averages the host's speed over all of `--seconds` whatever the
    /// share. The share is what the final audit-archive check (~140 µs per
    /// decision) allows: `pref_churn` gets 4 s of a 40-s run, capture,
    /// which makes no decisions, a quarter. `req_dense` and `req_sparse`
    /// (~60k requests per closed second) are sized for 10-s runs.
    pub fn closed_share(self) -> f64 {
        match self {
            Workload::PrefChurn => 0.1,
            Workload::ReqSparse => 0.15,
            Workload::ReqDense => 0.3,
            Workload::CaptureFirehose => 0.25,
        }
    }

    /// The latency limit of one operation, microseconds: 1 ms per request
    /// or write, 1 s per capture batch.
    pub fn slo_us(self) -> f64 {
        match self {
            Workload::CaptureFirehose => 1_000_000.0,
            _ => 1_000.0,
        }
    }

    /// True for the workloads that drive `handle_request`.
    pub fn serves_requests(self) -> bool {
        self != Workload::CaptureFirehose
    }
}

/// One IoTA write of `pref_churn`.
#[derive(Debug, Clone)]
pub enum Write {
    /// `Tippers::submit_preference`.
    Submit(UserPreference),
    /// `Tippers::apply_setting_choice` on the baseline's location setting.
    Setting {
        /// The choosing occupant.
        user: UserId,
        /// The chosen option of Figure 4's location setting.
        option: usize,
    },
}

/// One operation of a workload's stream.
#[derive(Debug, Clone)]
pub enum Op<'a> {
    /// A single-subject data request.
    Request(&'a DataRequest),
    /// An IoTA write.
    Write(&'a Write),
    /// One tick's capture batch, with the tick's virtual time in ms.
    Capture(Vec<Observation>, i64),
}

/// Setting key of Figure 4's location setting, carried by the baseline.
pub const SETTING_KEY: &str = "location-sensing";

/// The set-up BMS plus everything the run loops need to feed it.
#[derive(Debug)]
pub struct Fixture {
    /// The workload this fixture serves.
    pub workload: Workload,
    /// The seed it was generated from.
    pub seed: u64,
    /// The system under test.
    pub bms: Tippers,
    /// A handle on the BMS's in-memory log (clones share state).
    pub wal: MemLog,
    /// Occupant MACs, as registered.
    pub macs: HashMap<UserId, MacAddress>,
    /// Virtual time every request is decided at.
    pub now: Timestamp,
    /// The storage baseline's id (it carries the location setting).
    pub baseline: PolicyId,
    /// Rows stored before the run.
    pub preloaded_rows: usize,
    /// Distinct per-occupant preference sets after set-up.
    pub distinct_pref_sets: usize,
    /// Wall-clock set-up time, seconds.
    pub setup_s: f64,
    /// The workload's operation stream.
    pub stream: Stream,
}

/// A workload's seeded operation stream, kept apart from the BMS so a
/// run loop can hold an operation while it mutates the system.
#[derive(Debug)]
pub struct Stream {
    workload: Workload,
    requests: Vec<DataRequest>,
    writes: Vec<Write>,
    lcg: Lcg,
    offices: Vec<SpaceId>,
    people: Vec<(UserId, MacAddress)>,
    now: Timestamp,
}

impl Fixture {
    /// Builds the corpus and the BMS for `workload` from `seed`, timing
    /// everything up to and including the first enforcer build.
    ///
    /// # Panics
    ///
    /// If the in-memory log cannot be opened or the preload is not stored
    /// in full: both mean the fixture itself is broken.
    pub fn setup(workload: Workload, seed: u64) -> Fixture {
        let started = Instant::now();
        let ontology = Ontology::standard();
        let c = ontology.concepts().clone();
        let dbh = dbh();
        let services = service_pool(SERVICES);
        let policies = gen_policies(workload.policies(), &ontology, &dbh, &services, seed);
        let prefs = gen_preferences(
            OCCUPANTS,
            workload.prefs_per_user(),
            &ontology,
            &dbh,
            &services,
            seed,
        );
        let wal = MemLog::new();
        let (mut bms, _) = Tippers::open_with(
            Box::new(wal.clone()),
            ontology.clone(),
            dbh.model.clone(),
            TippersConfig {
                quota: Some(QuotaConfig {
                    budget: u32::MAX,
                    window_secs: None,
                }),
                ingest: Some(IngestConfig {
                    mailbox_capacity: 1 << 16,
                    batch_max: 64,
                    ..IngestConfig::default()
                }),
                ..TippersConfig::default()
            },
        )
        .expect("an empty in-memory log opens");
        let occupants: Vec<Occupant> = (0..OCCUPANTS as u64)
            .map(|u| {
                Occupant::new(
                    UserId(u),
                    format!("user-{u}"),
                    UserGroup::ALL[u as usize % UserGroup::ALL.len()],
                )
            })
            .collect();
        bms.register_occupants(&occupants);
        let baseline = bms.add_policy(
            BuildingPolicy::new(
                PolicyId(0),
                "Building storage baseline",
                dbh.building,
                c.data,
                c.logging,
            )
            .with_actions(ActionSet::of(&[DataAction::Collect, DataAction::Store]))
            .with_modality(Modality::OptOut)
            .with_setting(BuildingPolicy::location_setting()),
        );
        for p in &policies {
            bms.add_policy(p.clone());
        }

        // Location history predates the occupants' IoTA settings, so every
        // subject has a current location: the newest of its rows.
        let now = Timestamp::at(1, 10, 0);
        let rooms: Vec<SpaceId> = dbh
            .offices
            .iter()
            .chain(&dbh.meeting_rooms)
            .copied()
            .collect();
        let mut lcg = Lcg(seed ^ 0x10C);
        let mut located = Vec::with_capacity(OCCUPANTS);
        let mut preload = Vec::with_capacity(OCCUPANTS * ROWS_PER_OCCUPANT);
        for o in &occupants {
            let mut space = rooms[0];
            for k in 0..ROWS_PER_OCCUPANT {
                space = rooms[lcg.below(rooms.len())];
                preload.push(Observation {
                    device: DeviceId(1),
                    timestamp: now + (600 * k as i64 - 3000) + lcg.below(60) as i64,
                    space,
                    payload: ObservationPayload::WifiAssociation {
                        mac: o.mac,
                        ap: DeviceId(1),
                    },
                    subject: Some(o.user),
                });
            }
            located.push((o.user, space));
        }
        let mut preloaded_rows = 0;
        for chunk in preload.chunks(256) {
            preloaded_rows += bms.ingest(chunk).0;
        }
        assert_eq!(
            preloaded_rows,
            preload.len(),
            "the baseline stores every row"
        );
        for p in &prefs {
            bms.submit_preference(p.clone(), now + -7200);
        }
        // An empty ingest builds the enforcer and changes nothing else.
        bms.ingest(&[]);
        let setup_s = started.elapsed().as_secs_f64();

        let requests = request_pool(&bms, &dbh, &services, &located, now, seed);
        let writes = write_pool(workload, &ontology, &dbh, &services, seed);
        let people: Vec<(UserId, MacAddress)> = occupants.iter().map(|o| (o.user, o.mac)).collect();
        Fixture {
            workload,
            seed,
            distinct_pref_sets: distinct_pref_sets(bms.preferences()),
            bms,
            wal,
            macs: people.iter().copied().collect(),
            now,
            baseline,
            preloaded_rows,
            setup_s,
            stream: Stream {
                workload,
                requests,
                writes,
                lcg: Lcg(seed ^ 0xCA9),
                offices: dbh.offices.clone(),
                people,
                now,
            },
        }
    }
}

impl Stream {
    /// True when the `i`-th operation is an IoTA write.
    pub fn is_write(&self, i: usize) -> bool {
        self.workload == Workload::PrefChurn && i % (READS_PER_WRITE + 1) == READS_PER_WRITE
    }

    /// The `i`-th operation of the workload's stream.
    pub fn op(&mut self, i: usize) -> Op<'_> {
        match self.workload {
            Workload::ReqDense | Workload::ReqSparse => {
                Op::Request(&self.requests[i % REQUEST_POOL])
            }
            Workload::PrefChurn => {
                if self.is_write(i) {
                    Op::Write(&self.writes[(i / (READS_PER_WRITE + 1)) % self.writes.len()])
                } else {
                    Op::Request(&self.requests[i % REQUEST_POOL])
                }
            }
            Workload::CaptureFirehose => {
                // Eight ticks per virtual second, wrapping within an hour
                // so time-conditioned policies hold throughout a run.
                let at = self.now + (i as i64 / 8) % 3600;
                Op::Capture(
                    capture_batch(&mut self.lcg, &self.offices, &self.people, at),
                    i as i64,
                )
            }
        }
    }
}

/// Requests aimed at the corpus: each takes its (service, purpose, data)
/// from a generated policy and a subject currently inside that policy's
/// space, so the quota and release paths run. Candidates are decided by an
/// `IndexedEnforcer` over the set-up corpus and kept until the pool holds
/// [`PERMIT_SHARE`] permits and the rest denials, then shuffled.
fn request_pool(
    bms: &Tippers,
    dbh: &Dbh,
    services: &[ServiceId],
    located: &[(UserId, SpaceId)],
    now: Timestamp,
    seed: u64,
) -> Vec<DataRequest> {
    let mut inside: HashMap<SpaceId, Vec<UserId>> = HashMap::new();
    let targets: Vec<&BuildingPolicy> = bms
        .policies()
        .iter()
        .filter(|p| p.actions.contains(DataAction::Share))
        .filter(|p| {
            let users = inside.entry(p.space).or_insert_with(|| {
                located
                    .iter()
                    .filter(|&&(_, s)| dbh.model.contains(p.space, s))
                    .map(|&(u, _)| u)
                    .collect()
            });
            !users.is_empty()
        })
        .collect();
    let mut lcg = Lcg(seed ^ 0x2E9);
    let mut aimed = || {
        let policy = targets[lcg.below(targets.len())];
        let users = &inside[&policy.space];
        DataRequest {
            service: policy
                .service
                .clone()
                .unwrap_or_else(|| services[lcg.below(services.len())].clone()),
            purpose: policy.purpose,
            data: policy.data,
            subjects: SubjectSelector::One(users[lcg.below(users.len())]),
            from: now + -3600,
            to: now + 1,
            requester_space: None,
            priority: Priority::Interactive,
            deadline: None,
        }
    };
    let engine = IndexedEnforcer::new(
        bms.policies().to_vec(),
        bms.preferences().to_vec(),
        ResolutionStrategy::PolicyPrevails,
        bms.ontology(),
    );
    let permits = (REQUEST_POOL as f64 * PERMIT_SHARE).round() as usize;
    let want = [REQUEST_POOL - permits, permits];
    let mut kept: [Vec<DataRequest>; 2] = [Vec::new(), Vec::new()];
    for _ in 0..REQUEST_POOL * 16 {
        if kept[0].len() == want[0] && kept[1].len() == want[1] {
            break;
        }
        let request = aimed();
        let space = current_space(bms, &request, now);
        let flow = flow_of(bms, &request, space, now);
        let side = usize::from(engine.decide(&flow, bms.ontology(), bms.model()).permits());
        if kept[side].len() < want[side] {
            kept[side].push(request);
        }
    }
    let mut pool: Vec<DataRequest> = kept.into_iter().flatten().collect();
    // A corpus too lopsided to fill both sides tops up with undecided
    // draws; the printed permit share then shows it.
    while pool.len() < REQUEST_POOL {
        pool.push(aimed());
    }
    let mut lcg = Lcg(seed ^ 0x5F1);
    for k in (1..pool.len()).rev() {
        pool.swap(k, lcg.below(k + 1));
    }
    pool
}

/// `pref_churn`'s writes: fresh preferences alternating with setting
/// choices (which replace the occupant's earlier choice).
fn write_pool(
    workload: Workload,
    ontology: &Ontology,
    dbh: &Dbh,
    services: &[ServiceId],
    seed: u64,
) -> Vec<Write> {
    if workload != Workload::PrefChurn {
        return Vec::new();
    }
    let fresh = gen_preferences(OCCUPANTS, 1, ontology, dbh, services, seed ^ 0xC4);
    let mut lcg = Lcg(seed ^ 0x5E7);
    fresh
        .into_iter()
        .flat_map(|p| {
            let choice = Write::Setting {
                user: UserId(lcg.below(OCCUPANTS) as u64),
                option: lcg.below(3),
            };
            [Write::Submit(p), choice]
        })
        .collect()
}

/// One tick's capture batch: ~10% identity-bearing WiFi, the rest
/// subjectless telemetry, spread over the offices.
fn capture_batch(
    lcg: &mut Lcg,
    offices: &[SpaceId],
    people: &[(UserId, MacAddress)],
    at: Timestamp,
) -> Vec<Observation> {
    (0..CAPTURE_BATCH)
        .map(|_| {
            let space = offices[lcg.below(offices.len())];
            let (payload, subject) = match lcg.below(10) {
                0 => {
                    let (user, mac) = people[lcg.below(people.len())];
                    let payload = ObservationPayload::WifiAssociation {
                        mac,
                        ap: DeviceId(1),
                    };
                    (payload, Some(user))
                }
                1..=4 => (
                    ObservationPayload::Temperature {
                        celsius: 20.0 + lcg.unit(),
                    },
                    None,
                ),
                5 => (
                    ObservationPayload::PowerReading {
                        watts: 100.0 + lcg.unit() * 50.0,
                    },
                    None,
                ),
                _ => (
                    ObservationPayload::Motion {
                        detected: lcg.below(2) == 0,
                    },
                    None,
                ),
            };
            Observation {
                device: DeviceId(2),
                timestamp: at,
                space,
                payload,
                subject,
            }
        })
        .collect()
}

/// Occupants' preference sets that differ in anything but ids: the
/// number a hash-consing decision IR would compile.
fn distinct_pref_sets(prefs: &[UserPreference]) -> usize {
    let mut by_user: HashMap<UserId, Vec<String>> = HashMap::new();
    for p in prefs {
        by_user.entry(p.user).or_default().push(format!(
            "{:?}|{:?}|{}|{:?}",
            p.scope, p.effect, p.priority, p.note
        ));
    }
    by_user
        .into_values()
        .map(|mut set| {
            set.sort();
            set
        })
        .collect::<BTreeSet<_>>()
        .len()
}
