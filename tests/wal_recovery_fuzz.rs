//! Recovery fuzz harness for the write-ahead log.
//!
//! A seeded workload of 200+ BMS mutations (policy publishes and
//! retractions, preference submissions, retroactive purges, ingest
//! batches, retention sweeps, checkpoints) runs against an in-memory log
//! whose directory is deep-copied after every mutation. The harness then
//! simulates a crash at every one of those record boundaries — plus torn
//! cuts and bit flips *inside* the final record — and asserts that every
//! recovered BMS equals the in-memory state at exactly that prefix, that
//! corrupt tails are truncated and counted (never silently accepted, and
//! never an error), and that post-recovery enforcement decisions are
//! identical to an uncrashed run of the same prefix.
//!
//! Seeded via `TIPPERS_FAULT_SEED` (CI runs 7, 42 and 4711).

use privacy_aware_buildings::prelude::*;
use tippers::wal::{record_boundaries, MemLog};
use tippers::{DataRequest, DecisionBasis, FaultPlan, FaultPoint, RecoveryReport, StoredRow};
use tippers_bench::{apply_mutation, gen_mutations, Mutation};
use tippers_policy::{BuildingPolicy, UserPreference};
use tippers_sensors::Occupant;
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
    mutations: Vec<Mutation>,
}

fn fixture(n: usize) -> Fixture {
    let ontology = Ontology::standard();
    let (building, occupants, mutations) = gen_mutations(n, &ontology, fault_seed());
    Fixture {
        ontology,
        building,
        occupants,
        mutations,
    }
}

/// The durable state the log is accountable for. Occupant registration is
/// administrative configuration the operator re-applies on startup, like
/// the ontology and spatial model, so it is deliberately absent.
type DurableState = (Vec<StoredRow>, Vec<UserPreference>, Vec<BuildingPolicy>);

fn durable_state(bms: &Tippers) -> DurableState {
    (
        bms.store().iter().cloned().collect(),
        bms.preferences().to_vec(),
        bms.policies().to_vec(),
    )
}

fn recover(log: &MemLog, fx: &Fixture) -> (Tippers, RecoveryReport) {
    Tippers::open_with(
        Box::new(log.clone()),
        fx.ontology.clone(),
        fx.building.model.clone(),
        TippersConfig::default(),
    )
    .expect("recovery must never error on a crashed log")
}

/// An uncrashed, non-durable BMS that applied exactly `prefix` mutations —
/// the reference the recovered instance must be indistinguishable from.
fn reference_at(fx: &Fixture, prefix: usize) -> Tippers {
    let mut bms = Tippers::new(
        fx.ontology.clone(),
        fx.building.model.clone(),
        TippersConfig::default(),
    );
    bms.register_occupants(&fx.occupants);
    for m in &fx.mutations[..prefix] {
        apply_mutation(&mut bms, m);
    }
    bms
}

/// Every (permit, basis) outcome for a grid of emergency-locate and
/// concierge-navigation requests over all occupants.
fn decision_grid(bms: &mut Tippers, fx: &Fixture, now: Timestamp) -> Vec<(bool, DecisionBasis)> {
    let c = fx.ontology.concepts().clone();
    let mut out = Vec::new();
    for occupant in &fx.occupants {
        for (service, purpose, data) in [
            (
                catalog::services::emergency(),
                c.emergency_response,
                c.wifi_association,
            ),
            (catalog::services::concierge(), c.navigation, c.location),
        ] {
            let request = DataRequest {
                service,
                purpose,
                data,
                subjects: SubjectSelector::One(occupant.user),
                from: Timestamp::at(0, 8, 0),
                to: now,
                requester_space: None,
                priority: Default::default(),
                deadline: None,
            };
            let response = bms.handle_request(&request, now);
            let result = &response.results[0];
            out.push((result.decision.permits(), result.decision.basis.clone()));
        }
    }
    out
}

fn total_bytes(log: &MemLog) -> usize {
    log.file_names()
        .iter()
        .filter_map(|n| log.file_bytes(n))
        .map(|b| b.len())
        .sum()
}

fn current_segment(log: &MemLog) -> String {
    log.file_names()
        .into_iter()
        .filter(|n| n.starts_with("wal-") && n.ends_with(".log"))
        .max()
        .expect("log has a current segment")
}

/// Runs the full workload against a fresh durable BMS, deep-copying the
/// log directory and capturing the in-memory state after every mutation.
fn run_workload(fx: &Fixture) -> (Vec<MemLog>, Vec<DurableState>) {
    let log = MemLog::new();
    let (mut bms, report) = recover(&log, fx);
    assert_eq!(report.records_replayed, 0);
    assert!(bms.wal_enabled());
    bms.register_occupants(&fx.occupants);

    let mut copies = vec![log.deep_copy()];
    let mut expected = vec![durable_state(&bms)];
    for m in &fx.mutations {
        apply_mutation(&mut bms, m);
        copies.push(log.deep_copy());
        expected.push(durable_state(&bms));
    }
    assert_eq!(bms.wal_append_failures(), 0, "clean run loses no appends");
    let peak_rows = expected.iter().map(|s| s.0.len()).max().unwrap_or(0);
    assert!(
        peak_rows > 50,
        "workload must actually store rows (peak {peak_rows})"
    );
    assert!(bms.preferences().len() > 10);
    (copies, expected)
}

#[test]
fn crash_after_every_record_boundary_recovers_exact_prefix_state() {
    let fx = fixture(220);
    assert!(fx.mutations.len() >= 200, "acceptance floor: 200 mutations");
    let (copies, expected) = run_workload(&fx);

    // The crashes straddle setting choices: an accepted choice appends a
    // record, a rejected one appends nothing.
    let appended: Vec<bool> = fx
        .mutations
        .iter()
        .enumerate()
        .filter(|(_, m)| matches!(m, Mutation::SettingChoice { .. }))
        .map(|(i, _)| total_bytes(&copies[i + 1]) > total_bytes(&copies[i]))
        .collect();
    assert!(
        appended.contains(&true) && appended.contains(&false),
        "setting choices: {appended:?}"
    );

    for (i, (copy, want)) in copies.iter().zip(&expected).enumerate() {
        // Every append is synced before the mutation returns, so a crash
        // here loses nothing — and recovery must prove it.
        copy.crash();
        let (recovered, report) = recover(copy, &fx);
        assert_eq!(report.truncated_tails, 0, "boundary {i}");
        assert_eq!(recovered.wal_truncations(), 0, "boundary {i}");
        assert_eq!(&durable_state(&recovered), want, "boundary {i}");
        assert!(
            recovered.store().index_consistent(),
            "boundary {i}: dangling subject index after recovery"
        );
    }

    // Post-recovery enforcement decisions are identical to an uncrashed
    // run of the same prefix — at the midpoint and at the full workload.
    let now = Timestamp::at(1, 0, 0);
    for prefix in [copies.len() / 2, copies.len() - 1] {
        let mut reference = reference_at(&fx, prefix);
        let (mut recovered, _) = recover(&copies[prefix], &fx);
        recovered.register_occupants(&fx.occupants);
        assert_eq!(
            decision_grid(&mut reference, &fx, now),
            decision_grid(&mut recovered, &fx, now),
            "decision divergence after recovering prefix {prefix}"
        );
    }
}

#[test]
fn torn_and_corrupt_tails_truncate_to_previous_boundary() {
    let fx = fixture(220);
    let (copies, expected) = run_workload(&fx);

    let mut torn_checked = 0usize;
    let mut flips_checked = 0usize;
    for i in 1..copies.len() {
        // Only mutations that appended a record have a tail to tear;
        // checkpoints rewrite segments wholesale and are covered by the
        // wal module's own compaction-crash tests.
        if matches!(fx.mutations[i - 1], Mutation::Checkpoint)
            || total_bytes(&copies[i]) <= total_bytes(&copies[i - 1])
        {
            continue;
        }
        let name = current_segment(&copies[i]);
        let bytes = copies[i].file_bytes(&name).expect("segment exists");
        let bounds = record_boundaries(&bytes);
        let last_end = *bounds.last().expect("segment has records");
        assert_eq!(last_end, bytes.len(), "clean run leaves no garbage");
        let last_start = if bounds.len() >= 2 {
            bounds[bounds.len() - 2]
        } else {
            0
        };

        // A crash mid-write: cut inside the final record's header, early
        // payload, middle, and one byte short of complete.
        let mut cuts = vec![
            last_start + 1,
            last_start + 5,
            last_start + (last_end - last_start) / 2,
            last_end - 1,
        ];
        cuts.sort_unstable();
        cuts.dedup();
        for cut in cuts {
            if cut <= last_start || cut >= last_end {
                continue;
            }
            let tampered = copies[i].deep_copy();
            tampered.set_file(&name, bytes[..cut].to_vec());
            let (recovered, report) = recover(&tampered, &fx);
            assert_eq!(
                durable_state(&recovered),
                expected[i - 1],
                "cut at byte {cut} of mutation {}: recovery must land on the previous boundary",
                i - 1
            );
            assert_eq!(report.truncated_tails, 1, "cut at {cut}");
            assert!(report.bytes_discarded > 0);
            assert!(report.corruption.is_some());
            assert_eq!(
                recovered.wal_truncations(),
                1,
                "the truncation must surface on the BMS's audit counter"
            );
            assert!(recovered.store().index_consistent());
            torn_checked += 1;
        }

        // Bit rot inside the final record.
        let mut flipped = bytes.clone();
        let pos = last_start + (last_end - last_start) / 2;
        flipped[pos] ^= 0x20;
        let tampered = copies[i].deep_copy();
        tampered.set_file(&name, flipped);
        let (recovered, report) = recover(&tampered, &fx);
        assert_eq!(
            durable_state(&recovered),
            expected[i - 1],
            "flip at byte {pos} of mutation {} went undetected",
            i - 1
        );
        assert!(report.truncated_tails >= 1);
        assert!(recovered.wal_truncations() >= 1);
        flips_checked += 1;
    }
    assert!(torn_checked >= 100, "torn-tail coverage: {torn_checked}");
    assert!(flips_checked >= 50, "bit-flip coverage: {flips_checked}");
}

#[test]
fn injected_storage_faults_recover_to_a_prefix_state() {
    let fx = fixture(220);
    let plan = FaultPlan::seeded(fault_seed());
    plan.arm(FaultPoint::WalSyncDrop, 0.15);
    plan.arm_limited(FaultPoint::WalAppendTorn, 0.05, 2);
    plan.arm(FaultPoint::WalSegmentRename, 0.3);

    let log = MemLog::new();
    let (mut bms, _) = Tippers::open_with(
        Box::new(log.clone()),
        fx.ontology.clone(),
        fx.building.model.clone(),
        TippersConfig {
            fault_plan: plan.clone(),
            ..TippersConfig::default()
        },
    )
    .expect("open");
    bms.register_occupants(&fx.occupants);

    let mut expected = vec![durable_state(&bms)];
    for m in &fx.mutations {
        apply_mutation(&mut bms, m);
        expected.push(durable_state(&bms));
    }
    assert!(
        plan.injected(FaultPoint::WalSyncDrop) > 0,
        "the sync-drop fault must actually have fired"
    );

    // Crash with faulty storage underneath: whatever survives must be
    // *some* prefix of the run — never a mix, never fabricated state.
    log.crash();
    let (recovered, _report) = recover(&log, &fx);
    let state = durable_state(&recovered);
    let prefix = expected
        .iter()
        .position(|s| *s == state)
        .unwrap_or_else(|| {
            panic!(
                "recovered state ({} rows, {} prefs, {} policies) matches no prefix of the run",
                state.0.len(),
                state.1.len(),
                state.2.len()
            )
        });
    assert!(recovered.store().index_consistent());

    // And the recovered prefix behaves exactly like an uncrashed run that
    // stopped there.
    let mut reference = reference_at(&fx, prefix);
    let mut recovered = recovered;
    recovered.register_occupants(&fx.occupants);
    let now = Timestamp::at(1, 0, 0);
    assert_eq!(
        decision_grid(&mut reference, &fx, now),
        decision_grid(&mut recovered, &fx, now),
        "decision divergence after faulty-storage recovery at prefix {prefix}"
    );
}
