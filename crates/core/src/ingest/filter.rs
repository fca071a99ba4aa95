//! Per-zone capture filters and the overload degradation ladder.
//!
//! A [`CaptureFilter`] is derived from the *same* policy + preference
//! corpus the request path enforces, so capture-time suppression can
//! never disagree with request-time decisions: an unconditional deny
//! preference suppresses the subject's MACs before storage, and a
//! mandatory emergency-purpose policy marks its zones *essential* —
//! exempt from every degradation rung (Policy 2's log survives any
//! overload).

use tippers_ontology::Ontology;
use tippers_policy::{BuildingPolicy, UserPreference};
use tippers_sensors::{MacAddress, Observation, ObservationPayload};
use tippers_spatial::{SpaceId, SpatialModel};

use crate::sensor_manager::SensorManager;

/// The capture-path degradation ladder, in escalation order. The rung a
/// zone runs at is keyed to the share of its per-call admission bound it
/// filled; Emergency (essential) zones always run at
/// [`LadderRung::FullFidelity`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LadderRung {
    /// Everything the filter admits is stored as captured.
    FullFidelity,
    /// Identity is stripped at capture where the payload allows it
    /// (camera identifications cleared, environmental attributions
    /// dropped); location-bearing payloads pass through unchanged.
    CoarsenAtCapture,
    /// Only essential categories (occupancy, ambient temperature) are
    /// stored; identity- and location-bearing captures are suppressed.
    SuppressNonEssential,
    /// The admission bound is reached: further captures are rejected
    /// with an audited drop and backpressure is handed to the sensor
    /// link.
    RejectWithAudit,
}

impl LadderRung {
    /// Stable index into per-rung occupancy counters.
    pub fn index(self) -> usize {
        match self {
            LadderRung::FullFidelity => 0,
            LadderRung::CoarsenAtCapture => 1,
            LadderRung::SuppressNonEssential => 2,
            LadderRung::RejectWithAudit => 3,
        }
    }
}

/// Capture-time enforcement derived from the policy + preference corpus.
#[derive(Debug, Clone, Default)]
pub struct CaptureFilter {
    /// MACs whose owners unconditionally deny network/location capture
    /// (the [`SensorManager::capture_suppression`] list, re-checked here
    /// defensively in case a device missed a settings sync).
    suppressed: Vec<MacAddress>,
    /// Space subtrees covered by a required emergency-purpose policy:
    /// capture in these zones is never degraded.
    essential_spaces: Vec<SpaceId>,
}

impl CaptureFilter {
    /// Derives the filter from the live corpus.
    pub fn derive(
        ontology: &Ontology,
        policies: &[BuildingPolicy],
        preferences: &[UserPreference],
        macs: &std::collections::HashMap<tippers_policy::UserId, MacAddress>,
    ) -> CaptureFilter {
        let c = ontology.concepts();
        let essential_spaces = policies
            .iter()
            .filter(|p| p.is_required() && ontology.purposes.is_a(p.purpose, c.emergency_response))
            .map(|p| p.space)
            .collect();
        CaptureFilter {
            suppressed: SensorManager::capture_suppression(ontology, preferences, macs),
            essential_spaces,
        }
    }

    /// True when the observation's MAC is capture-denied: the row must
    /// never be stored, at any ladder rung.
    pub fn suppresses(&self, obs: &Observation) -> bool {
        obs.payload
            .mac()
            .is_some_and(|mac| self.suppressed.contains(&mac))
    }

    /// True when `zone` lies under a required emergency-purpose policy's
    /// space: its captures are exempt from degradation.
    pub fn essential_zone(&self, model: &SpatialModel, zone: SpaceId) -> bool {
        self.essential_spaces
            .iter()
            .any(|&root| model.contains(root, zone))
    }

    /// True when `category` must survive even the suppress rung
    /// (occupancy and ambient temperature drive safety-relevant
    /// actuation — Policy 1's HVAC loop).
    pub fn essential_category(&self, ontology: &Ontology, obs: &Observation) -> bool {
        let c = ontology.concepts();
        let category = obs.payload.category(ontology);
        ontology.data.is_a(category, c.occupancy)
            || ontology.data.is_a(category, c.ambient_temperature)
    }

    /// The suppression list the filter enforces (for settings sync).
    pub fn suppressed_macs(&self) -> &[MacAddress] {
        &self.suppressed
    }
}

/// Coarsens an observation in place where its payload allows it,
/// returning true when anything was stripped. Location-bearing payloads
/// (WiFi, BLE, badge) cannot be coarsened — their payload *is* the
/// identity — and pass through for the next rung to handle.
pub(crate) fn coarsen_at_capture(obs: &mut Observation) -> bool {
    match &mut obs.payload {
        ObservationPayload::CameraFrame { identified, .. } => {
            let had_identity = !identified.is_empty() || obs.subject.is_some();
            identified.clear();
            obs.subject = None;
            had_identity
        }
        ObservationPayload::PowerReading { .. } | ObservationPayload::Temperature { .. } => {
            // Environmental readings are attributed to an office's
            // assignee at capture; coarsening drops that attribution.
            obs.subject.take().is_some()
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use tippers_policy::{catalog, Effect, PolicyId, PreferenceId, PreferenceScope, UserId};
    use tippers_sensors::DeviceId;
    use tippers_spatial::fixtures::dbh;

    #[test]
    fn emergency_policy_marks_its_zone_essential() {
        let ont = Ontology::standard();
        let d = dbh();
        let policy = catalog::policy2_emergency_location(PolicyId(0), d.building, &ont);
        let filter = CaptureFilter::derive(&ont, &[policy], &[], &HashMap::new());
        assert!(filter.essential_zone(&d.model, d.offices[0]));
    }

    #[test]
    fn unconditional_deny_suppresses_the_mac() {
        let ont = Ontology::standard();
        let c = ont.concepts();
        let mac = MacAddress::for_user(9);
        let macs: HashMap<UserId, MacAddress> = [(UserId(9), mac)].into_iter().collect();
        let pref = UserPreference::new(
            PreferenceId(1),
            UserId(9),
            PreferenceScope {
                data: Some(c.location),
                ..Default::default()
            },
            Effect::Deny,
        );
        let filter = CaptureFilter::derive(&ont, &[], &[pref], &macs);
        let obs = Observation {
            device: DeviceId(0),
            timestamp: tippers_policy::Timestamp(0),
            space: dbh().offices[0],
            payload: ObservationPayload::WifiAssociation {
                mac,
                ap: DeviceId(0),
            },
            subject: Some(UserId(9)),
        };
        assert!(filter.suppresses(&obs));
    }

    #[test]
    fn coarsening_strips_identity_but_not_location_payloads() {
        let mut camera = Observation {
            device: DeviceId(1),
            timestamp: tippers_policy::Timestamp(0),
            space: dbh().offices[0],
            payload: ObservationPayload::CameraFrame {
                occupant_count: 2,
                identified: vec![UserId(1)],
            },
            subject: Some(UserId(1)),
        };
        assert!(coarsen_at_capture(&mut camera));
        assert_eq!(camera.subject, None);
        assert!(
            matches!(camera.payload, ObservationPayload::CameraFrame { ref identified, occupant_count: 2 } if identified.is_empty())
        );

        let mut wifi = Observation {
            device: DeviceId(2),
            timestamp: tippers_policy::Timestamp(0),
            space: dbh().offices[0],
            payload: ObservationPayload::WifiAssociation {
                mac: MacAddress::for_user(1),
                ap: DeviceId(2),
            },
            subject: Some(UserId(1)),
        };
        assert!(!coarsen_at_capture(&mut wifi));
        assert_eq!(wifi.subject, Some(UserId(1)));
    }

    #[test]
    fn rungs_escalate_in_order() {
        assert!(LadderRung::FullFidelity < LadderRung::CoarsenAtCapture);
        assert!(LadderRung::CoarsenAtCapture < LadderRung::SuppressNonEssential);
        assert!(LadderRung::SuppressNonEssential < LadderRung::RejectWithAudit);
        assert_eq!(LadderRung::RejectWithAudit.index(), 3);
    }
}
