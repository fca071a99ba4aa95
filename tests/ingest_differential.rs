//! Capture ≡ store differential harness for the batched ingest pipeline.
//!
//! The batched, backpressured capture path (`Tippers::ingest_batched`)
//! exists for throughput, not for different semantics: under no overload
//! its stored rows must be **byte-identical** to the one-at-a-time
//! `Tippers::ingest` path over the same corpus, no stored row may ever
//! violate the zone's capture filter, and backpressure must hand
//! observations back (capped retry at the producer) instead of buffering
//! or silently dropping them. A replication leg pins the group-shipping
//! equivalence: one `write_batch_to` commits the same state as N
//! `write_to` calls while shipping fewer frame rounds.
//!
//! Seeded via `TIPPERS_FAULT_SEED` (CI runs 7, 42 and 4711).

use std::collections::HashMap;

use privacy_aware_buildings::prelude::*;
use tippers::replication::{Cluster, ReplicationConfig, WriteOutcome};
use tippers::{CaptureDropReason, CaptureFilter, FaultPlan, IngestConfig, StoredRow, VirtualClock};
use tippers_bench::{gen_policies, gen_preferences, service_pool};
use tippers_policy::{
    ActionSet, BuildingPolicy, DataAction, IsoDuration, Modality, PreferenceScope, UserPreference,
};
use tippers_sensors::{DeviceId, MacAddress, Observation, ObservationPayload, Occupant};
use tippers_spatial::fixtures::Dbh;

fn fault_seed() -> u64 {
    std::env::var("TIPPERS_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42)
}

struct Fixture {
    ontology: Ontology,
    building: Dbh,
    occupants: Vec<Occupant>,
    policies: Vec<BuildingPolicy>,
    preferences: Vec<UserPreference>,
    trace: Vec<Observation>,
}

/// The shared corpus both twins enforce: the catalog pair, a
/// building-wide telemetry baseline (so subjectless environmental feeds
/// store), a seeded generated policy mix, and seeded preferences topped
/// with one unconditional location deny — the capture filter must be
/// non-trivial on every seed.
fn fixture() -> Fixture {
    let seed = fault_seed();
    let ontology = Ontology::standard();
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
        &ontology,
    );
    let building = sim.dbh().clone();
    let occupants = sim.occupants().to_vec();
    sim.set_clock(Timestamp::at(0, 8, 0));
    let trace = sim.run_until(Timestamp::at(0, 13, 0)).observations;

    let c = ontology.concepts().clone();
    let services = service_pool(3);
    let mut policies = vec![
        BuildingPolicy::new(
            PolicyId(0),
            "Building telemetry baseline",
            building.building,
            c.data,
            c.logging,
        )
        .with_actions(ActionSet::of(&[DataAction::Collect, DataAction::Store]))
        .with_retention(IsoDuration::hours(2))
        .with_modality(Modality::OptOut),
        catalog::policy1_thermostat(PolicyId(0), building.building, &ontology),
        catalog::policy2_emergency_location(PolicyId(0), building.building, &ontology),
    ];
    policies.extend(gen_policies(
        16,
        &ontology,
        &building,
        &services,
        seed ^ 0xB0,
    ));

    let mut preferences = gen_preferences(
        occupants.len(),
        4,
        &ontology,
        &building,
        &services,
        seed ^ 0x9E0,
    );
    // Occupant 0 opts out of location capture unconditionally: their MAC
    // lands on the capture-suppression list on every seed.
    preferences.push(UserPreference::new(
        PreferenceId(9_000),
        occupants[0].user,
        PreferenceScope {
            data: Some(c.location),
            ..PreferenceScope::default()
        },
        Effect::Deny,
    ));

    Fixture {
        ontology,
        building,
        occupants,
        policies,
        preferences,
        trace,
    }
}

fn build_bms(fx: &Fixture, ingest: Option<IngestConfig>) -> Tippers {
    let mut bms = Tippers::new(
        fx.ontology.clone(),
        fx.building.model.clone(),
        TippersConfig {
            ingest,
            ..TippersConfig::default()
        },
    );
    bms.register_occupants(&fx.occupants);
    for p in &fx.policies {
        bms.add_policy(p.clone());
    }
    for p in &fx.preferences {
        bms.submit_preference(p.clone(), Timestamp::at(0, 7, 0));
    }
    bms
}

fn capture_filter(fx: &Fixture, bms: &Tippers) -> CaptureFilter {
    let macs: HashMap<UserId, MacAddress> = fx.occupants.iter().map(|o| (o.user, o.mac)).collect();
    CaptureFilter::derive(&fx.ontology, bms.policies(), bms.preferences(), &macs)
}

fn rows(bms: &Tippers) -> Vec<StoredRow> {
    bms.store().iter().cloned().collect()
}

/// Under no overload, the batched pipeline and the one-at-a-time path
/// store byte-identical rows in identical order over any stream the
/// capture filter admits.
#[test]
fn batched_rows_are_byte_identical_to_the_one_at_a_time_path() {
    let seed = fault_seed();
    let fx = fixture();
    let mut legacy = build_bms(&fx, None);
    let mut batched = build_bms(
        &fx,
        Some(IngestConfig {
            // Headroom keeps every zone below the coarsen watermark: the
            // differential holds on the full-fidelity rung.
            mailbox_capacity: 1 << 16,
            ..IngestConfig::default()
        }),
    );
    let filter = capture_filter(&fx, &legacy);
    assert!(
        !filter.suppressed_macs().is_empty(),
        "the corpus must produce a non-trivial capture filter (seed {seed})"
    );
    // The legacy path's capture-time suppression happens at the device
    // (settings sync); feed both twins the stream those devices emit.
    let stream: Vec<Observation> = fx
        .trace
        .iter()
        .filter(|o| !filter.suppresses(o))
        .cloned()
        .collect();
    assert!(stream.len() > 200, "stream too small: {}", stream.len());

    for obs in &stream {
        legacy.ingest(std::slice::from_ref(obs));
    }
    for (i, chunk) in stream.chunks(200).enumerate() {
        let report = batched.ingest_batched(chunk, i as i64);
        assert!(report.rejected.is_empty(), "no overload, no backpressure");
        assert_eq!(report.suppressed, 0, "no overload, no ladder suppression");
        assert_eq!(report.coarsened, 0, "no overload, no coarsening");
        assert!(report.synced);
    }

    let legacy_rows = rows(&legacy);
    let batched_rows = rows(&batched);
    assert!(
        legacy_rows.len() > 50,
        "workload must store rows (seed {seed}): {}",
        legacy_rows.len()
    );
    assert_eq!(
        legacy_rows, batched_rows,
        "batched store diverged from the one-at-a-time path (seed {seed})"
    );
    // Byte-identical, not merely equal: the serialized forms match too.
    assert_eq!(format!("{legacy_rows:?}"), format!("{batched_rows:?}"));

    let stats = batched.ingest_stats().expect("pipeline configured");
    assert_eq!(stats.admitted, stream.len() as u64);
    assert_eq!(stats.rejected, 0);
    assert_eq!(stats.stored, batched_rows.len() as u64);
    assert_eq!(stats.rung_observations[0], stream.len() as u64);
    // Every non-stored observation is an audited storage-time denial —
    // exactly the drops the legacy path counts.
    assert_eq!(
        stats.unauthorized as usize,
        stream.len() - batched_rows.len()
    );
}

/// No stored row ever violates the zone capture filter, even when the
/// raw stream carries suppressed MACs — and each suppression is audited.
#[test]
fn no_stored_row_violates_the_capture_filter() {
    let fx = fixture();
    let mut bms = build_bms(&fx, Some(IngestConfig::default()));
    let filter = capture_filter(&fx, &bms);

    // The raw firehose, plus synthetic sightings of the opted-out MAC to
    // guarantee the filter has work on every seed.
    let mut stream = fx.trace.clone();
    for i in 0..16 {
        stream.push(Observation {
            device: DeviceId(500 + i),
            timestamp: Timestamp::at(0, 9, 0) + i64::from(i),
            space: fx.building.offices[usize::try_from(i).unwrap() % fx.building.offices.len()],
            payload: ObservationPayload::WifiAssociation {
                mac: fx.occupants[0].mac,
                ap: DeviceId(500 + i),
            },
            subject: Some(fx.occupants[0].user),
        });
    }
    let mut attempts = 0u64;
    for (i, chunk) in stream.chunks(48).enumerate() {
        let mut pending = chunk.to_vec();
        // Capped retry: re-offer what backpressure handed back, at most
        // twice, then let the remainder drop (it stays accounted).
        for now in 0..3i64 {
            if pending.is_empty() {
                break;
            }
            attempts += pending.len() as u64;
            pending = bms.ingest_batched(&pending, i as i64 * 10 + now).rejected;
        }
    }

    let suppressed = filter.suppressed_macs();
    for row in bms.store().iter() {
        if let Some(mac) = row.observation.payload.mac() {
            assert!(
                !suppressed.contains(&mac),
                "stored row carries a capture-suppressed MAC: {row:?}"
            );
        }
    }
    let drops = bms.capture_drops();
    let filtered = drops
        .iter()
        .filter(|d| d.reason == CaptureDropReason::CaptureFilter)
        .count();
    assert!(
        filtered >= 16,
        "all synthetic suppressed sightings must be audited drops: {filtered}"
    );
    // Nothing vanished silently: every offer attempt either entered a
    // mailbox or was handed back as an audited backpressure rejection.
    let stats = bms.ingest_stats().unwrap();
    assert_eq!(stats.admitted + stats.rejected, attempts);
    assert_eq!(
        stats.rejected as usize,
        drops
            .iter()
            .filter(|d| d.reason == CaptureDropReason::Backpressure)
            .count(),
        "every backpressure rejection is audited"
    );
}

/// A full mailbox hands observations back in order; re-offering them
/// (the producer's capped retry) eventually stores every authorized row
/// without the mailbox ever exceeding its bound.
#[test]
fn backpressure_hands_back_overflow_for_capped_retry() {
    let fx = fixture();
    let mut bms = build_bms(
        &fx,
        Some(IngestConfig {
            mailbox_capacity: 8,
            batch_max: 4,
            ..IngestConfig::default()
        }),
    );
    // One zone, 40 essential-category observations: motion survives every
    // rung, so backpressure is the only thing standing between capture
    // and store.
    let stream: Vec<Observation> = (0..40)
        .map(|i| Observation {
            device: DeviceId(900),
            timestamp: Timestamp::at(0, 9, 0) + i,
            space: fx.building.meeting_rooms[0],
            payload: ObservationPayload::Motion { detected: true },
            subject: None,
        })
        .collect();

    let mut report = bms.ingest_batched(&stream, 0);
    assert_eq!(report.rejected.len(), 32, "capacity 8 admits 8");
    assert_eq!(
        report.rejected,
        stream[8..].to_vec(),
        "backpressure hands back exactly the overflow tail, in order"
    );
    let mut rounds = 1usize;
    while !report.rejected.is_empty() {
        rounds += 1;
        assert!(rounds <= 8, "retry must terminate");
        let pending = report.rejected;
        report = bms.ingest_batched(&pending, rounds as i64);
        // Each call's admitted count (offered minus handed back) stays
        // within the bound.
        let admitted = pending.len() - report.rejected.len();
        assert!(admitted <= 8, "admission bound violated: {admitted}");
    }
    assert_eq!(rounds, 5, "40 observations through a bound of 8");

    let stats = bms.ingest_stats().unwrap();
    assert_eq!(stats.admitted, 40);
    assert_eq!(stats.stored, 40, "every retried observation stores");
    assert_eq!(stats.rejected, 32 + 24 + 16 + 8);
    // Stored rows preserve capture order.
    let times: Vec<i64> = bms
        .store()
        .iter()
        .map(|r| r.observation.timestamp.seconds())
        .collect();
    let mut sorted = times.clone();
    sorted.sort_unstable();
    assert_eq!(times, sorted);
}

/// One `write_batch_to` call commits the same replicated state as N
/// `write_to` calls — while shipping fewer frame rounds (the replication
/// half of group-commit amortization).
#[test]
fn write_batch_to_matches_n_write_to_calls_with_fewer_shipping_rounds() {
    let fx = fixture();
    let boot = |fx: &Fixture| {
        Cluster::new(
            ReplicationConfig::default(),
            FaultPlan::disarmed(),
            VirtualClock::new(),
            fx.ontology.clone(),
            fx.building.model.clone(),
            TippersConfig::default(),
            fx.occupants.clone(),
        )
        .expect("cluster boot")
    };
    let mut one_by_one = boot(&fx);
    let mut grouped = boot(&fx);

    // N mutations: the policy corpus, the preference corpus, and an
    // ingest batch — every durable record kind the capture path ships.
    let ingest_batch: Vec<Observation> = fx.trace.iter().take(20).cloned().collect();
    let mutations = fx.policies.len() + fx.preferences.len() + 1;
    let apply = |bms: &mut Tippers, i: usize, fx: &Fixture, batch: &[Observation]| {
        if i < fx.policies.len() {
            bms.add_policy(fx.policies[i].clone());
        } else if i < fx.policies.len() + fx.preferences.len() {
            bms.submit_preference(
                fx.preferences[i - fx.policies.len()].clone(),
                Timestamp::at(0, 7, 0),
            );
        } else {
            bms.ingest(batch);
        }
    };

    let base_rounds = one_by_one.shipping_rounds();
    assert_eq!(base_rounds, grouped.shipping_rounds());
    for i in 0..mutations {
        let outcome = one_by_one
            .write_to(0, |bms| apply(bms, i, &fx, &ingest_batch))
            .expect("write");
        assert!(matches!(outcome, WriteOutcome::Committed { .. }));
    }
    let outcome = grouped
        .write_batch_to(0, mutations, |bms, i| apply(bms, i, &fx, &ingest_batch))
        .expect("batched write");
    assert!(matches!(outcome, WriteOutcome::Committed { .. }));

    for node in 0..3 {
        assert_eq!(
            one_by_one.node_bms(node).policies(),
            grouped.node_bms(node).policies(),
            "node {node} policy divergence"
        );
        assert_eq!(
            one_by_one.node_bms(node).preferences(),
            grouped.node_bms(node).preferences(),
            "node {node} preference divergence"
        );
        assert_eq!(
            rows(one_by_one.node_bms(node)),
            rows(grouped.node_bms(node)),
            "node {node} store divergence"
        );
    }
    let split = one_by_one.shipping_rounds() - base_rounds;
    let batched_rounds = grouped.shipping_rounds() - base_rounds;
    assert_eq!(split, mutations as u64, "one round per write_to");
    assert_eq!(batched_rounds, 1, "one round for the whole batch");
}

/// On a pipelined BMS every entry point runs the one capture path:
/// `ingest` and `ingest_batched` over the same raw stream store identical
/// rows and audit identical drops. The stream carries sightings of a
/// capture-suppressed MAC that the mandatory emergency policy would
/// authorize for storage, so only the capture filter keeps them out.
#[test]
fn ingest_and_ingest_batched_share_one_capture_path() {
    let seed = fault_seed();
    let fx = fixture();
    let config = IngestConfig {
        mailbox_capacity: 1 << 16,
        ..IngestConfig::default()
    };
    let mut one = build_bms(&fx, Some(config.clone()));
    let mut batched = build_bms(&fx, Some(config));
    let sightings: Vec<Observation> = (0..16)
        .map(|i| Observation {
            device: DeviceId(600 + i),
            timestamp: Timestamp::at(0, 9, 30) + i64::from(i),
            space: fx.building.offices[usize::try_from(i).unwrap() % fx.building.offices.len()],
            payload: ObservationPayload::WifiAssociation {
                mac: fx.occupants[0].mac,
                ap: DeviceId(600 + i),
            },
            subject: Some(fx.occupants[0].user),
        })
        .collect();
    // Storage-time enforcement alone authorizes every sighting: without
    // a pipeline (no capture filter) they are stored.
    let mut unfiltered = build_bms(&fx, None);
    assert_eq!(unfiltered.ingest(&sightings), (sightings.len(), 0));

    let mut stream = fx.trace.clone();
    stream.extend(sightings);
    for (i, chunk) in stream.chunks(48).enumerate() {
        let (stored, dropped) = one.ingest(chunk);
        let report = batched.ingest_batched(chunk, i as i64);
        assert_eq!(stored, report.stored);
        assert_eq!(stored + dropped, chunk.len());
    }

    let one_rows = rows(&one);
    assert!(
        one_rows.len() > 50,
        "workload must store rows (seed {seed})"
    );
    assert_eq!(
        one_rows,
        rows(&batched),
        "stored rows diverged (seed {seed})"
    );
    assert_eq!(one.capture_drops(), batched.capture_drops());
    assert_eq!(one.ingest_stats(), batched.ingest_stats());
    let filtered = one
        .capture_drops()
        .iter()
        .filter(|d| d.reason == CaptureDropReason::CaptureFilter)
        .count();
    assert!(
        filtered >= 16,
        "the sightings are capture-filter drops: {filtered}"
    );
    let suppressed = fx.occupants[0].mac;
    assert!(
        one_rows
            .iter()
            .all(|r| r.observation.payload.mac() != Some(suppressed)),
        "`ingest` stored a capture-suppressed MAC (seed {seed})"
    );
}
