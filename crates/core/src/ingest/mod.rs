//! Batched, backpressured sensor ingest: capture-time enforcement that
//! survives the firehose.
//!
//! The paper's enforcement mapping (§IV.B) places enforcement not only at
//! request time but at *capture* and *storage* time, at sensor-event
//! rates. This module holds the capture pipeline's pieces; the one loop
//! that runs them is `Tippers::capture`, behind every ingest entry point:
//!
//! ```text
//!  sensor links ──▶ per-zone admission bound ──▶ per-zone CaptureFilter
//!       ▲             (per call, input order)        (suppress MACs)
//!       │ rejected observations                          │
//!       └──────────────────── degradation ladder ◀───────┘
//!                                    │
//!                              storage grant
//!                                    │
//!          WAL group commit ◀────────┘ (one fsync per call)
//!          │
//!          ▼ synced? ── no ─▶ drop-and-audit (fail closed)
//!        store inserts + replication tap
//! ```
//!
//! Under overload each zone degrades along an explicit ladder
//! ([`LadderRung`]): full fidelity → coarsen-at-capture →
//! suppress-non-essential → reject-with-audit. The path is fail-closed
//! end to end: an observation that cannot be filtered, group-committed,
//! or admitted is dropped *and audited* ([`CaptureDrop`]), never stored
//! raw.

mod filter;

pub(crate) use filter::coarsen_at_capture;
pub use filter::{CaptureFilter, LadderRung};

use std::collections::BTreeMap;

use tippers_ontology::ConceptId;
use tippers_policy::{Timestamp, UserId};
use tippers_sensors::Observation;
use tippers_spatial::{SpaceId, SpatialModel};

/// Configuration of the capture pipeline ([`crate::TippersConfig::ingest`]).
#[derive(Debug, Clone)]
pub struct IngestConfig {
    /// Per-zone admission bound of one ingest call: a zone admits its
    /// first `mailbox_capacity` observations, in input order, and hands
    /// the rest back with backpressure.
    pub mailbox_capacity: usize,
    /// Maximum rows per group-committed WAL record (one
    /// [`crate::WalRecord::Ingest`] per chunk; the whole chunk sequence
    /// shares one fsync).
    pub batch_max: usize,
    /// Admitted share of the bound at which a zone coarsens at capture.
    pub coarsen_watermark: f64,
    /// Admitted share of the bound at which a zone suppresses
    /// non-essential categories.
    pub suppress_watermark: f64,
}

impl Default for IngestConfig {
    fn default() -> Self {
        IngestConfig {
            mailbox_capacity: 64,
            batch_max: 32,
            coarsen_watermark: 0.5,
            suppress_watermark: 0.8,
        }
    }
}

/// Why a capture was dropped instead of stored. Every variant is an
/// *audited* outcome — the pipeline never loses an observation silently.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CaptureDropReason {
    /// The zone's admission bound was reached; backpressure was handed
    /// to the link.
    Backpressure,
    /// The capture filter forbids storing this MAC at all.
    CaptureFilter,
    /// The degradation ladder suppressed a non-essential capture.
    Degraded,
    /// No building policy authorizes storing the row (the storage-time
    /// enforcement decision, identical to the one-at-a-time path).
    Unauthorized,
    /// An injected store-write fault lost the row.
    StoreFault,
    /// The group commit's durability could not be proven (fsync stall or
    /// append failure): the whole batch is treated as unadmitted.
    DurabilityLost,
}

/// One audited capture-path drop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CaptureDrop {
    /// Capture time of the dropped observation.
    pub time: Timestamp,
    /// The zone it was captured in.
    pub zone: SpaceId,
    /// Its data category.
    pub category: ConceptId,
    /// The data subject, when known.
    pub subject: Option<UserId>,
    /// Why it was dropped.
    pub reason: CaptureDropReason,
}

/// Lifetime counters of the ingest pipeline.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// Observations admitted under the per-zone bound.
    pub admitted: u64,
    /// Observations rejected at admission (backpressure).
    pub rejected: u64,
    /// Rows durably stored.
    pub stored: u64,
    /// Observations coarsened at capture.
    pub coarsened: u64,
    /// Observations suppressed by the degradation ladder.
    pub suppressed: u64,
    /// Observations denied by storage-time enforcement.
    pub unauthorized: u64,
    /// Rows dropped fail-closed because durability could not be proven.
    pub unadmitted: u64,
    /// Group commits issued (each is one fsync for a whole batch).
    pub group_commits: u64,
    /// Observations processed at each ladder rung, indexed by
    /// [`LadderRung::index`].
    pub rung_observations: [u64; 4],
}

/// The outcome of one [`crate::Tippers::ingest_batched`] call.
#[derive(Debug, Clone, PartialEq)]
pub struct IngestReport {
    /// Rows durably stored.
    pub stored: usize,
    /// Observations handed back under backpressure — the sensor link's
    /// cue to retry (capped) or drop-and-account, never to buffer without
    /// bound.
    pub rejected: Vec<Observation>,
    /// Observations coarsened at capture this call.
    pub coarsened: usize,
    /// Observations suppressed by the ladder this call.
    pub suppressed: usize,
    /// Observations denied by storage-time enforcement this call.
    pub unauthorized: usize,
    /// Rows dropped fail-closed on an unproven group commit this call.
    pub unadmitted: usize,
    /// True when every logged record of this call was durably synced.
    pub synced: bool,
}

impl IngestReport {
    pub(crate) fn empty() -> IngestReport {
        IngestReport {
            stored: 0,
            rejected: Vec::new(),
            coarsened: 0,
            suppressed: 0,
            unauthorized: 0,
            unadmitted: 0,
            synced: true,
        }
    }

    /// Total observations not stored.
    pub fn dropped(&self) -> usize {
        self.rejected.len() + self.suppressed + self.unauthorized + self.unadmitted
    }
}

/// The capture pipeline's lifetime state: its configuration, counters
/// and the drop-audit trail. Owned by [`crate::Tippers`] when
/// [`crate::TippersConfig::ingest`] is set.
#[derive(Debug)]
pub(crate) struct IngestPipeline {
    config: IngestConfig,
    stats: IngestStats,
    drops: Vec<CaptureDrop>,
}

impl IngestPipeline {
    /// A pipeline that has seen nothing.
    pub(crate) fn new(config: IngestConfig) -> IngestPipeline {
        IngestPipeline {
            config,
            stats: IngestStats::default(),
            drops: Vec::new(),
        }
    }

    /// Maximum rows per group-committed record.
    pub(crate) fn batch_max(&self) -> usize {
        self.config.batch_max.max(1)
    }

    /// Admits one call's owned observations. In each zone the first
    /// `mailbox_capacity`, in input order, are admitted and the rest are
    /// handed back. A zone's rung is its admitted count over the
    /// capacity, read against the watermarks; essential zones stay at
    /// full fidelity. Returns each observation's rung, `None` when it was
    /// handed back. Observations the caller does not own are neither
    /// counted nor bounded.
    pub(crate) fn admit(
        &mut self,
        observations: &[Observation],
        owned: impl Fn(usize) -> bool,
        model: &SpatialModel,
        filter: &CaptureFilter,
    ) -> Vec<Option<LadderRung>> {
        let capacity = self.config.mailbox_capacity.max(1);
        // Per zone: observations offered, then the zone's rung.
        let mut zones: BTreeMap<SpaceId, (usize, LadderRung)> = BTreeMap::new();
        let mut admitted: Vec<Option<LadderRung>> = observations
            .iter()
            .enumerate()
            .map(|(index, obs)| {
                if !owned(index) {
                    return Some(LadderRung::FullFidelity);
                }
                let (offered, _) = zones
                    .entry(obs.space)
                    .or_insert((0, LadderRung::FullFidelity));
                *offered += 1;
                (*offered <= capacity).then_some(LadderRung::FullFidelity)
            })
            .collect();
        for (&zone, (offered, rung)) in &mut zones {
            let accepted = (*offered).min(capacity);
            #[allow(clippy::cast_precision_loss)]
            let ratio = accepted as f64 / capacity as f64;
            if filter.essential_zone(model, zone) {
                *rung = LadderRung::FullFidelity;
            } else if ratio >= self.config.suppress_watermark {
                *rung = LadderRung::SuppressNonEssential;
            } else if ratio >= self.config.coarsen_watermark {
                *rung = LadderRung::CoarsenAtCapture;
            }
            let rejected = (*offered - accepted) as u64;
            self.stats.admitted += accepted as u64;
            self.stats.rejected += rejected;
            self.stats.rung_observations[rung.index()] += accepted as u64;
            self.stats.rung_observations[LadderRung::RejectWithAudit.index()] += rejected;
        }
        for (index, (rung, obs)) in admitted.iter_mut().zip(observations).enumerate() {
            if let Some(rung) = rung.as_mut().filter(|_| owned(index)) {
                *rung = zones[&obs.space].1;
            }
        }
        admitted
    }

    /// Records an audited drop.
    pub(crate) fn note_drop(
        &mut self,
        obs: &Observation,
        category: ConceptId,
        reason: CaptureDropReason,
    ) {
        self.drops.push(CaptureDrop {
            time: obs.timestamp,
            zone: obs.space,
            category,
            subject: obs.subject,
            reason,
        });
    }

    /// Folds one call's outcome past admission into the lifetime
    /// counters; `group_committed` when its rows shared a synced fsync.
    pub(crate) fn tally(&mut self, report: &IngestReport, group_committed: bool) {
        self.stats.stored += report.stored as u64;
        self.stats.coarsened += report.coarsened as u64;
        self.stats.suppressed += report.suppressed as u64;
        self.stats.unauthorized += report.unauthorized as u64;
        self.stats.unadmitted += report.unadmitted as u64;
        self.stats.group_commits += u64::from(group_committed);
    }

    /// Lifetime counters.
    pub(crate) fn stats(&self) -> IngestStats {
        self.stats
    }

    /// The audited drop trail.
    pub(crate) fn drops(&self) -> &[CaptureDrop] {
        &self.drops
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tippers_sensors::{DeviceId, ObservationPayload};
    use tippers_spatial::fixtures::dbh;

    fn obs(space: SpaceId, t: i64) -> Observation {
        Observation {
            device: DeviceId(0),
            timestamp: Timestamp(t),
            space,
            payload: ObservationPayload::Motion { detected: true },
            subject: None,
        }
    }

    fn admitted(rungs: &[Option<LadderRung>]) -> Vec<bool> {
        rungs.iter().map(Option::is_some).collect()
    }

    #[test]
    fn admission_is_bounded_per_zone_and_hands_back_overflow() {
        let d = dbh();
        let mut p = IngestPipeline::new(IngestConfig {
            mailbox_capacity: 2,
            ..IngestConfig::default()
        });
        let batch = [
            obs(d.offices[0], 0),
            obs(d.offices[0], 1),
            // Third into the same zone bounces; a different zone still admits.
            obs(d.offices[0], 2),
            obs(d.offices[1], 3),
        ];
        let admission = p.admit(&batch, |_| true, &d.model, &CaptureFilter::default());
        assert_eq!(admitted(&admission), [true, true, false, true]);
        assert_eq!(p.stats().admitted, 3);
        assert_eq!(p.stats().rejected, 1);
        // The bound is per call: the next call admits afresh.
        let admission = p.admit(&batch[..2], |_| true, &d.model, &CaptureFilter::default());
        assert_eq!(admitted(&admission), [true, true]);
        assert_eq!(p.stats().admitted, 5);
    }

    #[test]
    fn admission_keeps_the_first_of_each_zone_in_input_order() {
        let d = dbh();
        let mut p = IngestPipeline::new(IngestConfig {
            mailbox_capacity: 1,
            ..IngestConfig::default()
        });
        let batch = [
            obs(d.offices[1], 10),
            obs(d.offices[0], 11),
            obs(d.offices[1], 12),
            obs(d.offices[0], 13),
        ];
        let admission = p.admit(&batch, |_| true, &d.model, &CaptureFilter::default());
        assert_eq!(admitted(&admission), [true, true, false, false]);
        // Observations the caller does not own are neither counted nor
        // bounded.
        let admission = p.admit(&batch, |i| i >= 2, &d.model, &CaptureFilter::default());
        assert_eq!(admitted(&admission), [true, true, true, true]);
    }

    #[test]
    fn rung_tracks_fill_ratio_and_essential_zones_stay_full_fidelity() {
        let d = dbh();
        let mut p = IngestPipeline::new(IngestConfig {
            mailbox_capacity: 10,
            coarsen_watermark: 0.5,
            suppress_watermark: 0.8,
            ..IngestConfig::default()
        });
        let batch: Vec<Observation> = (0..9).map(|i| obs(d.offices[0], i)).collect();
        let admission = p.admit(&batch, |_| true, &d.model, &CaptureFilter::default());
        assert!(admission
            .iter()
            .all(|&r| r == Some(LadderRung::SuppressNonEssential)));
        let admission = p.admit(&batch[..5], |_| true, &d.model, &CaptureFilter::default());
        assert!(admission
            .iter()
            .all(|&r| r == Some(LadderRung::CoarsenAtCapture)));
        assert_eq!(p.stats().rung_observations, [0, 5, 9, 0]);
        // The same count in an essential zone is not degraded.
        let ont = tippers_ontology::Ontology::standard();
        let policy = tippers_policy::catalog::policy2_emergency_location(
            tippers_policy::PolicyId(0),
            d.building,
            &ont,
        );
        let filter = CaptureFilter::derive(&ont, &[policy], &[], &std::collections::HashMap::new());
        let admission = p.admit(&batch, |_| true, &d.model, &filter);
        assert!(admission
            .iter()
            .all(|&r| r == Some(LadderRung::FullFidelity)));
    }
}
