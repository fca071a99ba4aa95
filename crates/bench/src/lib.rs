//! Shared workload generation for the benchmark harness.
//!
//! Every experiment in EXPERIMENTS.md draws its policies, preferences and
//! flows from here, so benchmark and table binaries agree on workloads.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod sim;

use tippers::{FaultPlan, Priority, Tippers, TippersConfig};
use tippers_ontology::{ConceptId, Ontology};
use tippers_policy::{
    ActionSet, BuildingPolicy, Condition, DataAction, Effect, IsoDuration, Modality, PolicyId,
    PreferenceId, PreferenceScope, ServiceId, TimeWindow, Timestamp, UserGroup, UserId,
    UserPreference,
};
use tippers_sensors::{BuildingSimulator, Observation, Occupant, Population, SimulatorConfig};
use tippers_spatial::fixtures::Dbh;
use tippers_spatial::{Granularity, SpaceId};

/// A deterministic 64-bit LCG — cheap, seedable, and independent of the
/// `rand` version, so workloads are stable across toolchains.
#[derive(Debug, Clone)]
pub struct Lcg(pub u64);

impl Lcg {
    /// Next raw value.
    #[allow(clippy::should_implement_trait)] // not an iterator: never ends
    pub fn next(&mut self) -> usize {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 33) as usize
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: usize) -> usize {
        self.next() % n.max(1)
    }

    /// Uniform float in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next() % 1_000_000) as f64 / 1_000_000.0
    }
}

/// The data categories building policies realistically govern.
pub fn policy_categories(ontology: &Ontology) -> Vec<ConceptId> {
    let c = ontology.concepts();
    vec![
        c.wifi_association,
        c.bluetooth_sighting,
        c.occupancy,
        c.image,
        c.power_consumption,
        c.ambient_temperature,
        c.person_identity,
        c.location_room,
        c.meeting_details,
        c.event_details,
    ]
}

/// The purposes building policies realistically declare.
pub fn policy_purposes(ontology: &Ontology) -> Vec<ConceptId> {
    let c = ontology.concepts();
    vec![
        c.emergency_response,
        c.surveillance,
        c.access_control,
        c.comfort,
        c.energy_management,
        c.logging,
        c.navigation,
        c.scheduling,
        c.delivery,
        c.analytics,
    ]
}

/// Service ids used by generated workloads.
pub fn service_pool(n: usize) -> Vec<ServiceId> {
    (0..n).map(|i| ServiceId::new(format!("svc-{i}"))).collect()
}

/// Generates `n` building policies over a DBH model: ~10% required, ~60%
/// opt-out, ~30% opt-in; spaces drawn from the whole hierarchy; a third
/// carry time conditions; service policies reference the pool.
pub fn gen_policies(
    n: usize,
    ontology: &Ontology,
    dbh: &Dbh,
    services: &[ServiceId],
    seed: u64,
) -> Vec<BuildingPolicy> {
    let categories = policy_categories(ontology);
    let purposes = policy_purposes(ontology);
    let spaces: Vec<SpaceId> = std::iter::once(dbh.building)
        .chain(dbh.floors.iter().copied())
        .chain(dbh.offices.iter().copied())
        .chain(dbh.meeting_rooms.iter().copied())
        .collect();
    let mut lcg = Lcg(seed);
    (0..n)
        .map(|i| {
            let mut p = BuildingPolicy::new(
                PolicyId(i as u64),
                format!("generated-policy-{i}"),
                spaces[lcg.below(spaces.len())],
                categories[lcg.below(categories.len())],
                purposes[lcg.below(purposes.len())],
            );
            p.modality = match lcg.below(10) {
                0 => Modality::Required,
                1..=6 => Modality::OptOut,
                _ => Modality::OptIn,
            };
            p.actions = if lcg.below(2) == 0 {
                ActionSet::ALL
            } else {
                ActionSet::of(&[DataAction::Collect, DataAction::Store, DataAction::Share])
            };
            if lcg.below(3) == 0 {
                p.condition = Condition::during(if lcg.below(2) == 0 {
                    TimeWindow::business_hours()
                } else {
                    TimeWindow::after_hours()
                });
            }
            if !services.is_empty() && lcg.below(3) == 0 {
                p.service = Some(services[lcg.below(services.len())].clone());
            }
            p
        })
        .collect()
}

/// Generates `per_user` preferences for each of `users` users, mirroring
/// the paper's examples: blanket denials, per-service grants, granularity
/// caps and time-conditioned rules.
pub fn gen_preferences(
    users: usize,
    per_user: usize,
    ontology: &Ontology,
    dbh: &Dbh,
    services: &[ServiceId],
    seed: u64,
) -> Vec<UserPreference> {
    let categories = policy_categories(ontology);
    let c = ontology.concepts();
    let mut lcg = Lcg(seed ^ 0x5EED);
    let mut out = Vec::with_capacity(users * per_user);
    let mut id = 0u64;
    for u in 0..users {
        for _ in 0..per_user {
            let effect = match lcg.below(10) {
                0..=3 => Effect::Deny,
                4..=5 => Effect::Degrade(Granularity::ALL[1 + lcg.below(4)]),
                6 => Effect::Noise { sigma: 5.0 },
                _ => Effect::Allow,
            };
            let scope = PreferenceScope {
                data: if lcg.below(5) == 0 {
                    None
                } else if lcg.below(3) == 0 {
                    Some(c.location)
                } else {
                    Some(categories[lcg.below(categories.len())])
                },
                purpose: None,
                service: if !services.is_empty() && lcg.below(3) == 0 {
                    Some(services[lcg.below(services.len())].clone())
                } else {
                    None
                },
                space: if lcg.below(2) == 0 {
                    Some(dbh.offices[lcg.below(dbh.offices.len())])
                } else {
                    None
                },
                condition: if lcg.below(4) == 0 {
                    Condition::during(TimeWindow::after_hours())
                } else {
                    Condition::always()
                },
            };
            out.push(
                UserPreference::new(PreferenceId(id), UserId(u as u64), scope, effect)
                    .with_priority(lcg.below(3) as u8),
            );
            id += 1;
        }
    }
    out
}

/// A random share-stage flow for enforcement benchmarks.
pub fn gen_flow(
    ontology: &Ontology,
    dbh: &Dbh,
    services: &[ServiceId],
    users: usize,
    lcg: &mut Lcg,
) -> tippers::RequestFlow {
    let categories = policy_categories(ontology);
    let purposes = policy_purposes(ontology);
    tippers::RequestFlow {
        subject: UserId(lcg.below(users) as u64),
        subject_group: UserGroup::ALL[lcg.below(5)],
        data: categories[lcg.below(categories.len())],
        purpose: purposes[lcg.below(purposes.len())],
        service: if services.is_empty() {
            None
        } else {
            Some(services[lcg.below(services.len())].clone())
        },
        action: DataAction::Share,
        time: Timestamp::at(lcg.below(7) as i64, lcg.below(24) as u32, 0),
        subject_space: Some(dbh.offices[lcg.below(dbh.offices.len())]),
        requester_space: None,
        room_occupied: None,
    }
}

/// Builds a registered, populated BMS over pre-generated policies and
/// preferences — the shared fixture of the E12 and E13 benches (one
/// definition, so both experiments measure the same system).
pub fn build_bms(
    ontology: &Ontology,
    dbh: &Dbh,
    policies: &[BuildingPolicy],
    prefs: &[UserPreference],
    users: usize,
    plan: FaultPlan,
) -> Tippers {
    let mut bms = Tippers::new(
        ontology.clone(),
        dbh.model.clone(),
        TippersConfig {
            fault_plan: plan,
            ..TippersConfig::default()
        },
    );
    let occupants: Vec<Occupant> = (0..users as u64)
        .map(|u| Occupant::new(UserId(u), format!("user-{u}"), UserGroup::GradStudent))
        .collect();
    bms.register_occupants(&occupants);
    for p in policies {
        bms.add_policy(p.clone());
    }
    for p in prefs {
        bms.submit_preference(p.clone(), Timestamp::at(0, 7, 0));
    }
    bms
}

/// One durable BMS mutation in a generated crash-recovery workload
/// (the units the recovery fuzz harness crashes between).
#[derive(Debug, Clone)]
pub enum Mutation {
    /// Publish a building policy.
    AddPolicy(BuildingPolicy),
    /// Retract a policy by id (may be a no-op if already retracted).
    RemovePolicy(PolicyId),
    /// Submit a user preference at a timestamp.
    SubmitPreference(UserPreference, Timestamp),
    /// Choose an option of a policy's setting (Figure 4). The option may
    /// be one the setting does not offer: the BMS rejects that choice and
    /// logs nothing.
    SettingChoice {
        /// The choosing occupant.
        user: UserId,
        /// The policy whose setting is chosen.
        policy: PolicyId,
        /// The setting's key.
        setting_key: String,
        /// The chosen option.
        option_index: usize,
    },
    /// Retroactively enforce a previously submitted preference.
    Retroactive(PreferenceId),
    /// Ingest a batch of captured observations.
    Ingest(Vec<Observation>),
    /// Run a retention sweep at a timestamp.
    Gc(Timestamp),
    /// Write a full-state checkpoint and compact the log.
    Checkpoint,
}

/// Generates a seeded, deterministic mutation workload over the DBH
/// building: simulator-driven ingest batches interleaved with policy
/// publishes/retractions, preference submissions, setting choices (valid
/// and out of range), retroactive purges, retention sweeps and
/// checkpoints. Returns the building fixture, its occupants
/// (administrative state the caller re-registers after every recovery)
/// and the mutation list.
pub fn gen_mutations(
    n: usize,
    ontology: &Ontology,
    seed: u64,
) -> (Dbh, Vec<Occupant>, Vec<Mutation>) {
    let mut sim = BuildingSimulator::new(
        SimulatorConfig {
            seed,
            population: Population {
                staff: 2,
                faculty: 2,
                grads: 3,
                undergrads: 3,
                visitors: 0,
            },
            tick_secs: 300,
            ..SimulatorConfig::default()
        },
        ontology,
    );
    let dbh = sim.dbh().clone();
    let occupants = sim.occupants().to_vec();
    sim.set_clock(Timestamp::at(0, 8, 0));
    let trace = sim.run_until(Timestamp::at(0, 20, 0)).observations;

    let services = service_pool(4);
    let mut policy_pool = gen_policies(24, ontology, &dbh, &services, seed ^ 0xB0);
    // A third of the generated policies carry a short retention window so
    // retention sweeps mid-workload actually delete rows.
    for (i, p) in policy_pool.iter_mut().enumerate() {
        if i % 3 == 0 {
            p.retention = Some(IsoDuration::hours(1 + (i % 4) as u32));
        }
    }
    let pref_pool = gen_preferences(occupants.len(), 6, ontology, &dbh, &services, seed ^ 0x9E0);

    let mut lcg = Lcg(seed ^ 0xFA11);
    let mut mutations = Vec::with_capacity(n);
    // Storage authorizers go first so ingest stores rows from the start:
    // the catalog pair, plus a building-wide telemetry baseline covering
    // the subjectless environmental feeds (power, occupancy, temperature)
    // that dominate the simulator trace. Its two-hour retention gives the
    // workload's gc sweeps real rows to reap, and its Figure 4 location
    // setting gives occupants a choice to make.
    let c = ontology.concepts();
    let baseline = BuildingPolicy::new(
        PolicyId(0),
        "Building telemetry baseline",
        dbh.building,
        c.data,
        c.logging,
    )
    .with_actions(ActionSet::of(&[DataAction::Collect, DataAction::Store]))
    .with_retention(IsoDuration::hours(2))
    .with_modality(Modality::OptOut)
    .with_setting(BuildingPolicy::location_setting());
    let setting = baseline.settings[0].clone();
    mutations.push(Mutation::AddPolicy(baseline));
    mutations.push(Mutation::AddPolicy(
        tippers_policy::catalog::policy1_thermostat(PolicyId(0), dbh.building, ontology),
    ));
    mutations.push(Mutation::AddPolicy(
        tippers_policy::catalog::policy2_emergency_location(PolicyId(0), dbh.building, ontology),
    ));
    let mut added = 3usize;
    let mut submitted = 0usize;
    let mut next_policy = 0usize;
    let mut next_pref = 0usize;
    let mut next_obs = 0usize;
    let mut clock = Timestamp::at(0, 8, 0);
    while mutations.len() < n {
        clock = clock + 60 + lcg.below(540) as i64;
        let roll = lcg.below(100);
        let mutation = if roll < 40 {
            let len = 3 + lcg.below(9);
            let batch: Vec<Observation> = (0..len)
                .map(|i| {
                    let mut obs = trace[next_obs % trace.len()].clone();
                    next_obs += 1;
                    // Rebase onto the workload clock so retention windows
                    // straddle the gc sweeps instead of expiring wholesale.
                    obs.timestamp = clock + i as i64;
                    obs
                })
                .collect();
            Mutation::Ingest(batch)
        } else if roll < 45 {
            // One choice in four names an option past the setting's last.
            Mutation::SettingChoice {
                user: occupants[lcg.below(occupants.len())].user,
                policy: PolicyId(0),
                setting_key: setting.key.clone(),
                option_index: lcg.below(setting.options.len() + 1),
            }
        } else if roll < 60 {
            let pref = pref_pool[next_pref % pref_pool.len()].clone();
            next_pref += 1;
            submitted += 1;
            Mutation::SubmitPreference(pref, clock)
        } else if roll < 70 {
            let policy = policy_pool[next_policy % policy_pool.len()].clone();
            next_policy += 1;
            added += 1;
            Mutation::AddPolicy(policy)
        } else if roll < 77 {
            // Retract only generated policies: the three seed authorizers
            // stay in force so ingest keeps storing rows on every seed.
            Mutation::RemovePolicy(PolicyId((3 + lcg.below(added - 3)) as u64))
        } else if roll < 85 && submitted > 0 {
            Mutation::Retroactive(PreferenceId(lcg.below(submitted) as u64))
        } else if roll < 93 {
            Mutation::Gc(clock)
        } else {
            Mutation::Checkpoint
        };
        mutations.push(mutation);
    }
    (dbh, occupants, mutations)
}

/// Applies one workload mutation to a BMS. Checkpoint failures are
/// tolerated (the log's older segments stay authoritative), and so are
/// rejected setting choices (they change nothing); everything else is
/// infallible by construction.
pub fn apply_mutation(bms: &mut Tippers, mutation: &Mutation) {
    match mutation {
        Mutation::AddPolicy(p) => {
            bms.add_policy(p.clone());
        }
        Mutation::RemovePolicy(id) => {
            bms.remove_policy(*id);
        }
        Mutation::SubmitPreference(p, now) => {
            bms.submit_preference(p.clone(), *now);
        }
        Mutation::SettingChoice {
            user,
            policy,
            setting_key,
            option_index,
        } => {
            let _ = bms.apply_setting_choice(*user, *policy, setting_key, *option_index);
        }
        Mutation::Retroactive(id) => {
            bms.apply_retroactively(*id);
        }
        Mutation::Ingest(observations) => {
            bms.ingest(observations);
        }
        Mutation::Gc(now) => {
            bms.gc(*now);
        }
        Mutation::Checkpoint => {
            let _ = bms.checkpoint();
        }
    }
}

/// Shape of an open-loop request storm (experiment E15): a Poisson
/// baseline with periodic bursts, a small Emergency share that must
/// survive any overload, and a Batch share that is first to be shed.
#[derive(Debug, Clone, Copy)]
pub struct StormConfig {
    /// Workload seed.
    pub seed: u64,
    /// Storm length, virtual seconds.
    pub duration_secs: i64,
    /// Baseline Poisson arrival rate, requests per virtual second.
    pub rate_per_sec: f64,
    /// Arrival-rate multiplier inside bursts.
    pub burst_multiplier: f64,
    /// Burst period, seconds (a burst starts every this many seconds).
    pub burst_every_secs: i64,
    /// Burst length, seconds.
    pub burst_len_secs: i64,
    /// Fraction of arrivals classed Emergency.
    pub emergency_share: f64,
    /// Fraction of arrivals classed Batch (the rest are Interactive).
    pub batch_share: f64,
    /// Deadline horizon attached to non-Emergency arrivals, seconds.
    pub deadline_secs: i64,
}

impl Default for StormConfig {
    fn default() -> Self {
        StormConfig {
            seed: 7,
            duration_secs: 120,
            rate_per_sec: 8.0,
            burst_multiplier: 6.0,
            burst_every_secs: 30,
            burst_len_secs: 10,
            emergency_share: 0.05,
            batch_share: 0.3,
            deadline_secs: 30,
        }
    }
}

/// One arrival in a storm trace.
#[derive(Debug, Clone)]
pub struct StormArrival {
    /// Virtual arrival time.
    pub at: Timestamp,
    /// The request as the service would issue it (priority and deadline
    /// already attached).
    pub request: tippers::DataRequest,
}

/// Generates a seeded open-loop storm trace starting at `start`: bursty
/// Poisson arrivals over `users` subjects, classed
/// Emergency/Interactive/Batch per the configured shares. Open loop means
/// arrivals do not wait for responses — exactly the load shape that
/// overwhelms an unprotected enforcement point.
pub fn gen_storm(
    config: StormConfig,
    ontology: &Ontology,
    users: usize,
    start: Timestamp,
) -> Vec<StormArrival> {
    let c = ontology.concepts();
    let services = service_pool(3);
    let mut lcg = Lcg(config.seed ^ 0x5708);
    let mut arrivals = Vec::new();
    let duration_ms = config.duration_secs.max(1) * 1000;
    let mut t_ms = 0i64;
    while t_ms < duration_ms {
        let in_burst = config.burst_every_secs > 0
            && (t_ms / 1000) % config.burst_every_secs < config.burst_len_secs;
        let rate = if in_burst {
            config.rate_per_sec * config.burst_multiplier
        } else {
            config.rate_per_sec
        };
        // Exponential inter-arrival time for a Poisson process, in ms.
        let dt_ms = (-lcg.unit().max(1e-6).ln() / rate.max(1e-6) * 1000.0) as i64;
        t_ms += dt_ms.max(1);
        if t_ms >= duration_ms {
            break;
        }
        let at = start + t_ms / 1000;
        let class = lcg.unit();
        let (priority, purpose, deadline) = if class < config.emergency_share {
            (Priority::Emergency, c.emergency_response, None)
        } else if class < config.emergency_share + config.batch_share {
            (
                Priority::Batch,
                c.analytics,
                Some(at + config.deadline_secs),
            )
        } else {
            (
                Priority::Interactive,
                [c.comfort, c.scheduling, c.navigation][lcg.below(3)],
                Some(at + config.deadline_secs),
            )
        };
        arrivals.push(StormArrival {
            at,
            request: tippers::DataRequest {
                service: services[lcg.below(services.len())].clone(),
                purpose,
                data: if lcg.below(2) == 0 {
                    c.location_room
                } else {
                    c.occupancy
                },
                subjects: tippers::SubjectSelector::One(UserId(lcg.below(users.max(1)) as u64)),
                from: Timestamp(at.seconds() - 3600),
                to: Timestamp(at.seconds() + 1),
                requester_space: None,
                priority,
                deadline,
            },
        });
    }
    arrivals
}

#[cfg(test)]
mod tests {
    use super::*;
    use tippers_spatial::fixtures::dbh;

    #[test]
    fn generators_are_deterministic() {
        let ont = Ontology::standard();
        let d = dbh();
        let services = service_pool(5);
        let a = gen_policies(50, &ont, &d, &services, 9);
        let b = gen_policies(50, &ont, &d, &services, 9);
        assert_eq!(a, b);
        let pa = gen_preferences(10, 3, &ont, &d, &services, 9);
        let pb = gen_preferences(10, 3, &ont, &d, &services, 9);
        assert_eq!(pa, pb);
        assert_eq!(pa.len(), 30);
    }

    #[test]
    fn mutation_workload_is_deterministic_and_mixed() {
        let ont = Ontology::standard();
        let (_, occupants, a) = gen_mutations(210, &ont, 7);
        let (_, _, b) = gen_mutations(210, &ont, 7);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert!(a.len() >= 210);
        assert!(!occupants.is_empty());
        let count = |f: fn(&Mutation) -> bool| a.iter().filter(|m| f(m)).count();
        assert!(count(|m| matches!(m, Mutation::Ingest(_))) > 20);
        assert!(count(|m| matches!(m, Mutation::SubmitPreference(..))) > 10);
        assert!(count(|m| matches!(m, Mutation::Checkpoint)) > 2);
        assert!(count(|m| matches!(m, Mutation::Gc(_))) > 2);
        assert!(count(|m| matches!(m, Mutation::RemovePolicy(_))) > 2);
        assert!(count(|m| matches!(m, Mutation::Retroactive(_))) > 2);
        let options = BuildingPolicy::location_setting().options.len();
        let chosen = |valid: bool| {
            a.iter()
                .filter(|m| {
                    matches!(m, Mutation::SettingChoice { option_index, .. }
                        if (*option_index < options) == valid)
                })
                .count()
        };
        assert!(
            chosen(true) > 0 && chosen(false) > 0,
            "valid and invalid choices"
        );
    }

    #[test]
    fn storm_is_deterministic_bursty_and_classed() {
        let ont = Ontology::standard();
        let start = Timestamp::at(0, 9, 0);
        let a = gen_storm(StormConfig::default(), &ont, 10, start);
        let b = gen_storm(StormConfig::default(), &ont, 10, start);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        // Roughly rate × duration arrivals, inflated by bursts.
        assert!(a.len() > 900, "storm too small: {}", a.len());
        let of = |p: Priority| a.iter().filter(|s| s.request.priority == p).count();
        assert!(of(Priority::Emergency) > 10);
        assert!(of(Priority::Batch) > 100);
        assert!(of(Priority::Interactive) > 300);
        // Bursts concentrate arrivals: the busiest second beats the mean.
        let mut per_sec = std::collections::HashMap::new();
        for s in &a {
            *per_sec.entry(s.at.seconds()).or_insert(0usize) += 1;
        }
        let max = per_sec.values().copied().max().unwrap_or(0);
        let mean = a.len() / 120;
        assert!(max > mean * 2, "no burst visible: max {max}, mean {mean}");
        // Every non-Emergency arrival carries a deadline.
        assert!(a
            .iter()
            .all(|s| s.request.priority == Priority::Emergency || s.request.deadline.is_some()));
    }

    #[test]
    fn policy_mix_contains_all_modalities() {
        let ont = Ontology::standard();
        let d = dbh();
        let services = service_pool(5);
        let policies = gen_policies(200, &ont, &d, &services, 4);
        let required = policies.iter().filter(|p| p.is_required()).count();
        assert!(
            required > 5 && required < 60,
            "required share: {required}/200"
        );
    }
}
