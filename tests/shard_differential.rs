//! Sharded ≡ unsharded differential: the same deployment driven through
//! [`EnforcementCore`] on a single `Tippers` and on `ShardedTippers` at
//! 1, 2, and 8 shards must produce **byte-identical** transcripts —
//! every assigned id, every decision basis, every released record, every
//! notification.
//!
//! Documented exclusions (see `tippers::shard`): `Effect::Noise`
//! preferences (per-shard RNG sequences) and behavior while shards are
//! quarantined (covered by the chaos suite instead) — this scenario uses
//! neither.

use privacy_aware_buildings::prelude::*;
use tippers::{
    CaptureDropReason, DataRequest, EnforcementCore, IngestConfig, Priority, ShardSpec,
    ShardedTippers, SubjectSelector, Tippers as Bms,
};
use tippers_policy::{
    catalog, ActionSet, BuildingPolicy, PolicyId, PreferenceId, PreferenceScope, Timestamp,
    UserGroup, UserPreference,
};
use tippers_sensors::{DeviceId, MacAddress, Observation, ObservationPayload, Occupant};

const USERS: u64 = 40;

fn occupants(building: &tippers_spatial::fixtures::Dbh) -> Vec<Occupant> {
    (0..USERS)
        .map(|u| {
            let group = match u % 4 {
                0 => UserGroup::Faculty,
                1 => UserGroup::GradStudent,
                2 => UserGroup::Undergrad,
                _ => UserGroup::Visitor,
            };
            let mut o = Occupant::new(UserId(u), format!("occupant-{u}"), group);
            o.office = Some(building.offices[(u as usize) % building.offices.len()]);
            o
        })
        .collect()
}

fn observations(building: &tippers_spatial::fixtures::Dbh) -> Vec<Observation> {
    let mut obs = Vec::new();
    for minute in (0..60).step_by(10) {
        for u in 0..USERS {
            obs.push(Observation {
                device: DeviceId(0),
                timestamp: Timestamp::at(0, 9, minute),
                space: building.offices[(u as usize) % building.offices.len()],
                payload: ObservationPayload::WifiAssociation {
                    mac: MacAddress::for_user(u),
                    ap: DeviceId(0),
                },
                subject: Some(UserId(u)),
            });
        }
        // Subjectless ambient readings: routed by capture zone.
        for (i, &office) in building.offices.iter().enumerate() {
            obs.push(Observation {
                device: DeviceId(1),
                timestamp: Timestamp::at(0, 9, minute),
                space: office,
                payload: ObservationPayload::Temperature {
                    celsius: 21.0 + (i as f64) * 0.1,
                },
                subject: None,
            });
        }
    }
    obs
}

/// Drives the full scenario through the shared trait and records every
/// observable outcome as one JSON-ish transcript line per step.
fn drive<E: EnforcementCore>(bms: &mut E) -> Vec<String> {
    let ontology = Ontology::standard();
    let building = dbh();
    let c = ontology.concepts().clone();
    let mut t = Vec::new();

    bms.register_occupants(&occupants(&building));

    // Policy plane: the paper's catalog plus a broad WiFi-logging policy,
    // one of which is later removed.
    let p_hvac = bms.add_policy(catalog::policy1_thermostat(
        PolicyId(0),
        building.building,
        &ontology,
    ));
    let p_emergency = bms.add_policy(
        catalog::policy2_emergency_location(PolicyId(0), building.building, &ontology)
            .with_setting(BuildingPolicy::location_setting()),
    );
    let p_wifi = bms.add_policy(
        BuildingPolicy::new(
            PolicyId(0),
            "Network logging",
            building.building,
            c.wifi_association,
            c.logging,
        )
        .with_actions(ActionSet::ALL),
    );
    let p_analytics = bms.add_policy(
        BuildingPolicy::new(
            PolicyId(0),
            "Space analytics",
            building.building,
            c.occupancy,
            c.analytics,
        )
        .with_actions(ActionSet::ALL),
    );
    t.push(format!(
        "policies {p_hvac:?} {p_emergency:?} {p_wifi:?} {p_analytics:?}"
    ));

    // Preference plane: deterministic per-user mix (no Noise effects).
    for u in 0..USERS {
        let effect = match u % 3 {
            0 => Effect::Deny,
            1 => Effect::Allow,
            _ => Effect::Degrade(tippers_spatial::Granularity::Floor),
        };
        let scope = PreferenceScope {
            data: Some(if u % 2 == 0 {
                c.wifi_association
            } else {
                c.occupancy
            }),
            purpose: (u % 5 == 0).then_some(c.logging),
            ..Default::default()
        };
        let id = bms.submit_preference(
            UserPreference::new(PreferenceId(0), UserId(u), scope, effect),
            Timestamp::at(0, 8, 30 + (u % 20) as u32),
        );
        t.push(format!("pref {u} -> {id:?}"));
    }

    // IoTA setting choices on the emergency policy (valid and invalid).
    for u in 0..USERS / 2 {
        let choice =
            bms.apply_setting_choice(UserId(u), p_emergency, "location-sensing", (u % 3) as usize);
        t.push(format!("choice {u} -> {choice:?}"));
    }
    t.push(format!(
        "bad-choice -> {:?}",
        bms.apply_setting_choice(UserId(0), p_emergency, "location-sensing", 99)
    ));
    t.push(format!(
        "bad-key -> {:?}",
        bms.apply_setting_choice(UserId(0), p_emergency, "no-such-setting", 0)
    ));

    // Data plane.
    let (stored, dropped) = bms.ingest(&observations(&building));
    t.push(format!("ingest {stored} {dropped}"));

    // Policy churn mid-run.
    t.push(format!("remove {:?}", bms.remove_policy(p_analytics)));
    t.push(format!("remove-again {:?}", bms.remove_policy(p_analytics)));

    // Request plane: every user singly, then fan-out selectors.
    let now = Timestamp::at(0, 10, 0);
    for u in 0..USERS {
        let req = DataRequest {
            service: ServiceId::new("Concierge"),
            purpose: c.logging,
            data: c.wifi_association,
            subjects: SubjectSelector::One(UserId(u)),
            from: Timestamp::at(0, 9, 0),
            to: Timestamp::at(0, 10, 0),
            requester_space: None,
            priority: Priority::Interactive,
            deadline: None,
        };
        let resp = bms.handle_request(&req, now);
        t.push(format!(
            "one {u} {}",
            serde_json::to_string(&resp).expect("response serializes")
        ));
    }
    for (name, subjects, data, purpose) in [
        (
            "all-wifi",
            SubjectSelector::All,
            c.wifi_association,
            c.logging,
        ),
        ("all-occ", SubjectSelector::All, c.occupancy, c.analytics),
        (
            "in-space",
            SubjectSelector::InSpace(building.building),
            c.wifi_association,
            c.logging,
        ),
    ] {
        let req = DataRequest {
            service: ServiceId::new("SpaceAnalytics"),
            purpose,
            data,
            subjects,
            from: Timestamp::at(0, 9, 0),
            to: Timestamp::at(0, 10, 0),
            requester_space: None,
            priority: Priority::Interactive,
            deadline: None,
        };
        let resp = bms.handle_request(&req, now);
        t.push(format!(
            "{name} {}",
            serde_json::to_string(&resp).expect("response serializes")
        ));
    }

    // Retention sweep and notification drain.
    t.push(format!("sweep {}", bms.sweep(Timestamp::at(2, 0, 0))));
    for u in 0..USERS {
        let notes: Vec<String> = bms
            .take_notifications(UserId(u))
            .into_iter()
            .map(|n| n.text)
            .collect();
        if !notes.is_empty() {
            t.push(format!("notes {u} {notes:?}"));
        }
    }
    t.push(format!("health {:?}", bms.health()));
    t
}

fn unsharded_transcript() -> Vec<String> {
    unsharded_run(TippersConfig::default()).0
}

fn unsharded_run(config: TippersConfig) -> (Vec<String>, Bms) {
    let building = dbh();
    let mut bms = Bms::new(Ontology::standard(), building.model.clone(), config);
    (drive(&mut bms), bms)
}

fn sharded_transcript(shards: usize) -> Vec<String> {
    sharded_run(shards, TippersConfig::default())
}

fn sharded_run(shards: usize, config: TippersConfig) -> Vec<String> {
    let building = dbh();
    let mut bms = ShardedTippers::new(
        Ontology::standard(),
        building.model.clone(),
        config,
        ShardSpec {
            shards,
            ..ShardSpec::default()
        },
    );
    let t = drive(&mut bms);
    // The run was fault-free: no shard ever went down, nothing failed
    // closed, nothing was queued.
    let stats = bms.stats();
    assert_eq!(stats.down, 0);
    assert_eq!(stats.panics + stats.stalls, 0);
    assert_eq!(stats.unavailable_denials + stats.unavailable_drops, 0);
    t
}

fn assert_identical(shards: usize) {
    assert_transcripts_match(&unsharded_transcript(), &sharded_transcript(shards), shards);
}

fn assert_transcripts_match(reference: &[String], sharded: &[String], shards: usize) {
    assert_eq!(
        reference.len(),
        sharded.len(),
        "transcript length diverged at {shards} shards"
    );
    for (i, (a, b)) in reference.iter().zip(sharded).enumerate() {
        assert_eq!(a, b, "transcript line {i} diverged at {shards} shards");
    }
}

#[test]
fn one_shard_is_byte_identical_to_unsharded() {
    assert_identical(1);
}

#[test]
fn two_shards_are_byte_identical_to_unsharded() {
    assert_identical(2);
}

#[test]
fn eight_shards_are_byte_identical_to_unsharded() {
    assert_identical(8);
}

/// With a capture pipeline and no overload, sharded ingest runs the same
/// capture path as the unsharded engine: the capture filter and the
/// admission bound apply on both, and every count, decision and released
/// row matches.
#[test]
fn pipelined_ingest_is_byte_identical_to_unsharded() {
    let pipelined = TippersConfig {
        ingest: Some(IngestConfig {
            mailbox_capacity: 1 << 16,
            ..IngestConfig::default()
        }),
        ..TippersConfig::default()
    };
    let (reference, bms) = unsharded_run(pipelined.clone());
    let filtered = bms
        .capture_drops()
        .iter()
        .filter(|d| d.reason == CaptureDropReason::CaptureFilter)
        .count();
    assert!(filtered > 0, "`ingest` must run the capture filter");
    let stats = bms.ingest_stats().expect("pipeline configured");
    assert_eq!(stats.rejected, 0, "no overload");
    assert_eq!(stats.rung_observations[0], stats.admitted, "full fidelity");
    assert_ne!(
        reference,
        unsharded_transcript(),
        "the capture filter changes what is stored"
    );
    for shards in [1, 2, 8] {
        assert_transcripts_match(&reference, &sharded_run(shards, pipelined.clone()), shards);
    }
}

/// The simulation executor is transcript-transparent: the same
/// fault-free scenario, with the whole sharded runtime (workers,
/// channels, watchdogs) scheduled cooperatively inside a
/// [`SimExecutor`], produces byte-identical transcripts to both the
/// threaded sharded run and the unsharded reference — and a different
/// seed (a different legal interleaving) cannot change them.
#[test]
fn sim_executed_shards_are_byte_identical_to_threaded_and_unsharded() {
    use std::sync::{Arc, Mutex};
    use tippers_resilience::sim::{Schedule, SimExecutor};

    let reference = unsharded_transcript();
    let threaded = sharded_transcript(4);

    let sim_transcript = |seed: u64| {
        let out = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&out);
        let outcome = SimExecutor::run(&Schedule::seeded(seed, 0), move || {
            *sink.lock().expect("unpoisoned") = sharded_transcript(4);
        });
        assert!(
            !outcome.failed(),
            "fault-free sim run failed at seed {seed}: {:?}",
            outcome.violation
        );
        Arc::try_unwrap(out)
            .expect("sim tasks joined")
            .into_inner()
            .expect("unpoisoned")
    };

    let sim = sim_transcript(42);
    assert_eq!(
        sim, threaded,
        "sim-executed transcript diverged from the threaded run"
    );
    assert_eq!(
        sim, reference,
        "sim-executed transcript diverged from the unsharded reference"
    );
    assert_eq!(
        sim_transcript(7),
        sim,
        "a different interleaving changed a fault-free transcript"
    );
}

#[test]
fn batched_requests_match_sequential_routing() {
    let building = dbh();
    let ontology = Ontology::standard();
    let c = ontology.concepts().clone();
    let mut sharded = ShardedTippers::new(
        ontology.clone(),
        building.model.clone(),
        TippersConfig::default(),
        ShardSpec {
            shards: 4,
            ..ShardSpec::default()
        },
    );
    sharded.register_occupants(&occupants(&building));
    sharded.add_policy(
        BuildingPolicy::new(
            PolicyId(0),
            "Network logging",
            building.building,
            c.wifi_association,
            c.logging,
        )
        .with_actions(ActionSet::ALL),
    );
    sharded.ingest(&observations(&building));
    let now = Timestamp::at(0, 10, 0);
    let requests: Vec<DataRequest> = (0..USERS)
        .map(|u| DataRequest {
            service: ServiceId::new("Concierge"),
            purpose: c.logging,
            data: c.wifi_association,
            subjects: SubjectSelector::One(UserId(u)),
            from: Timestamp::at(0, 9, 0),
            to: Timestamp::at(0, 10, 0),
            requester_space: None,
            priority: Priority::Interactive,
            deadline: None,
        })
        .collect();
    let batched = sharded.handle_batch(&requests, now);
    assert_eq!(batched.len(), requests.len());
    for (req, batch_resp) in requests.iter().zip(&batched) {
        let solo = sharded.handle_request(req, now);
        assert_eq!(
            serde_json::to_string(&solo).unwrap(),
            serde_json::to_string(batch_resp).unwrap(),
        );
    }
}

#[test]
fn durable_reopen_rebuilds_router_state() {
    let dir = std::env::temp_dir().join(format!("tippers-shard-reopen-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let building = dbh();
    let ontology = Ontology::standard();
    let c = ontology.concepts().clone();
    let spec = ShardSpec {
        shards: 4,
        ..ShardSpec::default()
    };
    let policy = BuildingPolicy::new(
        PolicyId(0),
        "Network logging",
        building.building,
        c.wifi_association,
        c.logging,
    )
    .with_actions(ActionSet::ALL);
    let request = |u: u64| DataRequest {
        service: ServiceId::new("Concierge"),
        purpose: c.logging,
        data: c.wifi_association,
        subjects: SubjectSelector::One(UserId(u)),
        from: Timestamp::at(0, 0, 0),
        to: Timestamp::at(0, 10, 0),
        requester_space: None,
        priority: Priority::Interactive,
        deadline: None,
    };

    // Seed: commit a policy and one preference, then drop the runtime.
    let seeded_pref = {
        let (mut bms, _) = ShardedTippers::open(
            &dir,
            ontology.clone(),
            building.model.clone(),
            TippersConfig::default(),
            spec.clone(),
        )
        .expect("open fresh");
        bms.register_occupants(&occupants(&building));
        bms.add_policy(policy.clone());
        bms.submit_preference(
            UserPreference::new(
                PreferenceId(0),
                UserId(3),
                PreferenceScope {
                    data: Some(c.wifi_association),
                    ..Default::default()
                },
                Effect::Deny,
            ),
            Timestamp::at(0, 9, 0),
        )
    };

    // Reopen: per-shard WAL replay must restore the shards, and the
    // router must rebuild its policy mirror and id allocator from them —
    // otherwise the next assigned id would collide with a replayed one.
    let (mut bms, reports) = ShardedTippers::open(
        &dir,
        ontology,
        building.model.clone(),
        TippersConfig::default(),
        spec,
    )
    .expect("reopen");
    assert_eq!(reports.len(), 4);
    assert!(reports.iter().any(|r| r.records_replayed > 0));
    bms.register_occupants(&occupants(&building));
    assert_eq!(bms.policies(), std::slice::from_ref(&policy));
    let now = Timestamp::at(0, 10, 0);
    let denied = bms.handle_request(&request(3), now);
    assert!(!denied.results[0].decision.permits());
    let allowed = bms.handle_request(&request(4), now);
    assert!(allowed.results[0].decision.permits());
    let next = bms.submit_preference(
        UserPreference::new(
            PreferenceId(0),
            UserId(5),
            PreferenceScope {
                data: Some(c.occupancy),
                ..Default::default()
            },
            Effect::Deny,
        ),
        now,
    );
    assert!(
        next.0 > seeded_pref.0,
        "the rebuilt allocator must not re-issue a replayed id"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
