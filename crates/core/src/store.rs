//! The BMS's observation store (the `DB` box of Figure 1, step 3).
//!
//! Rows are tagged at ingest with the data category, the authorizing
//! policy, and an expiry derived from that policy's retention element —
//! retention enforcement is then a sweep ([`Store::gc`]) that provably
//! never keeps expired rows (property-tested).

use std::collections::HashMap;

use serde::{Deserialize, Serialize};
use tippers_ontology::{ConceptId, Ontology};
use tippers_policy::{PolicyId, Timestamp, UserId};
use tippers_sensors::Observation;

/// One stored observation row.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StoredRow {
    /// The observation as captured.
    pub observation: Observation,
    /// Data category of the payload.
    pub category: ConceptId,
    /// The policy that authorized storing it.
    pub policy: PolicyId,
    /// When it was stored.
    pub stored_at: Timestamp,
    /// When it must be deleted (`None` = no retention limit).
    pub expires_at: Option<Timestamp>,
}

/// In-memory time-series store with subject and category indexes.
///
/// # Examples
///
/// ```
/// use tippers::Store;
///
/// let store = Store::new();
/// assert!(store.is_empty());
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Store {
    rows: Vec<StoredRow>,
    by_subject: HashMap<UserId, Vec<usize>>,
}

impl Store {
    /// An empty store.
    pub fn new() -> Store {
        Store::default()
    }

    /// Number of live rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if no live rows exist.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Inserts a row.
    pub fn insert(
        &mut self,
        observation: Observation,
        category: ConceptId,
        policy: PolicyId,
        stored_at: Timestamp,
        retention_secs: Option<i64>,
    ) {
        let expires_at = retention_secs.map(|secs| Timestamp(stored_at.seconds() + secs));
        self.insert_row(StoredRow {
            observation,
            category,
            policy,
            stored_at,
            expires_at,
        });
    }

    /// Inserts an already-built row (write-ahead-log replay: ingest
    /// records are physical, carrying the rows that survived
    /// enforcement).
    pub fn insert_row(&mut self, row: StoredRow) {
        let idx = self.rows.len();
        if let Some(user) = row.observation.subject {
            self.by_subject.entry(user).or_default().push(idx);
        }
        self.rows.push(row);
    }

    /// Diagnostic invariant check: every `by_subject` index entry points
    /// at an in-bounds row whose subject matches, and every subject-
    /// bearing row is indexed exactly once (no dangling or duplicate
    /// entries after a sweep).
    pub fn index_consistent(&self) -> bool {
        let mut indexed = 0usize;
        for (user, idxs) in &self.by_subject {
            for &i in idxs {
                match self.rows.get(i) {
                    Some(row) if row.observation.subject == Some(*user) => indexed += 1,
                    _ => return false,
                }
            }
            let mut sorted = idxs.clone();
            sorted.sort_unstable();
            sorted.dedup();
            if sorted.len() != idxs.len() {
                return false;
            }
        }
        let subject_rows = self
            .rows
            .iter()
            .filter(|r| r.observation.subject.is_some())
            .count();
        indexed == subject_rows
    }

    /// Rows about one subject, in a category (subsumption-aware), within
    /// `[from, to)`.
    pub fn query_subject(
        &self,
        ontology: &Ontology,
        subject: UserId,
        category: ConceptId,
        from: Timestamp,
        to: Timestamp,
    ) -> Vec<&StoredRow> {
        let Some(indexes) = self.by_subject.get(&subject) else {
            return Vec::new();
        };
        indexes
            .iter()
            .map(|&i| &self.rows[i])
            .filter(|r| r.observation.timestamp >= from && r.observation.timestamp < to)
            .filter(|r| ontology.data.is_a(r.category, category))
            .collect()
    }

    /// All rows in a category (subsumption-aware) within `[from, to)` —
    /// used for aggregate queries with no single subject.
    pub fn query_category(
        &self,
        ontology: &Ontology,
        category: ConceptId,
        from: Timestamp,
        to: Timestamp,
    ) -> Vec<&StoredRow> {
        self.rows
            .iter()
            .filter(|r| r.observation.timestamp >= from && r.observation.timestamp < to)
            .filter(|r| ontology.data.is_a(r.category, category))
            .collect()
    }

    /// The most recent row about a subject in a category at or before `at`.
    pub fn latest_for(
        &self,
        ontology: &Ontology,
        subject: UserId,
        category: ConceptId,
        at: Timestamp,
    ) -> Option<&StoredRow> {
        self.by_subject
            .get(&subject)?
            .iter()
            .map(|&i| &self.rows[i])
            .filter(|r| r.observation.timestamp <= at)
            .filter(|r| ontology.data.is_a(r.category, category))
            .max_by_key(|r| r.observation.timestamp)
    }

    /// Deletes every row whose expiry has passed. Returns how many were
    /// deleted. Rebuilds indexes; O(n).
    pub fn gc(&mut self, now: Timestamp) -> usize {
        let before = self.rows.len();
        self.rows.retain(|r| !is_expired(r, now));
        let removed = before - self.rows.len();
        if removed > 0 {
            self.rebuild_index();
        }
        removed
    }

    /// The rows [`Store::gc`] would delete at `now`, in store order — the
    /// retention sweeper's input for deletion certificates and its
    /// physical `SweepDelete` record.
    pub fn expired(&self, now: Timestamp) -> Vec<StoredRow> {
        self.rows
            .iter()
            .filter(|r| is_expired(r, now))
            .cloned()
            .collect()
    }

    /// Physically removes the given rows (each at most once, by equality)
    /// — applying a sweep's `SweepDelete` record. Returns how many were
    /// actually removed. Each target removes the first live row equal to
    /// it, so a row listed `k` times removes its first `k` occurrences:
    /// one pass in store order does that, finding equal targets through
    /// their capture time. O(n + k).
    pub fn remove_rows(&mut self, rows: &[StoredRow]) -> usize {
        let mut targets: HashMap<Timestamp, Vec<&StoredRow>> = HashMap::new();
        for row in rows {
            targets
                .entry(row.observation.timestamp)
                .or_default()
                .push(row);
        }
        let before = self.rows.len();
        self.rows.retain(|r| {
            let Some(bucket) = targets.get_mut(&r.observation.timestamp) else {
                return true;
            };
            match bucket.iter().position(|t| *t == r) {
                Some(i) => {
                    bucket.swap_remove(i);
                    false
                }
                None => true,
            }
        });
        let removed = before - self.rows.len();
        if removed > 0 {
            self.rebuild_index();
        }
        removed
    }

    fn rebuild_index(&mut self) {
        self.by_subject.clear();
        for (i, r) in self.rows.iter().enumerate() {
            if let Some(user) = r.observation.subject {
                self.by_subject.entry(user).or_default().push(i);
            }
        }
    }

    /// Deletes every row about `subject` in `category` (subsumption-aware)
    /// — retroactive enforcement when a user opts out. Returns the count.
    pub fn purge_subject(
        &mut self,
        ontology: &Ontology,
        subject: UserId,
        category: ConceptId,
    ) -> usize {
        let before = self.rows.len();
        self.rows.retain(|r| {
            !(r.observation.subject == Some(subject) && ontology.data.is_a(r.category, category))
        });
        let removed = before - self.rows.len();
        if removed > 0 {
            self.rebuild_index();
        }
        removed
    }

    /// Iterates all rows (diagnostics, experiments).
    pub fn iter(&self) -> impl Iterator<Item = &StoredRow> {
        self.rows.iter()
    }
}

/// True when a row's retention has run out at `now`.
fn is_expired(row: &StoredRow, now: Timestamp) -> bool {
    row.expires_at.is_some_and(|e| e <= now)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tippers_sensors::{DeviceId, MacAddress, ObservationPayload};
    use tippers_spatial::{SpaceKind, SpatialModel};

    fn obs(ont: &Ontology, user: u64, t: Timestamp) -> (Observation, ConceptId) {
        let mut m = SpatialModel::new("c");
        let b = m.add_space("B", SpaceKind::Building, m.root());
        let payload = ObservationPayload::WifiAssociation {
            mac: MacAddress::for_user(user),
            ap: DeviceId(0),
        };
        let category = payload.category(ont);
        (
            Observation {
                device: DeviceId(0),
                timestamp: t,
                space: b,
                payload,
                subject: Some(UserId(user)),
            },
            category,
        )
    }

    #[test]
    fn insert_and_query_by_subject() {
        let ont = Ontology::standard();
        let c = ont.concepts();
        let mut store = Store::new();
        let (o1, cat) = obs(&ont, 1, Timestamp::at(0, 9, 0));
        let (o2, _) = obs(&ont, 2, Timestamp::at(0, 9, 5));
        store.insert(o1, cat, PolicyId(1), Timestamp::at(0, 9, 0), None);
        store.insert(o2, cat, PolicyId(1), Timestamp::at(0, 9, 5), None);
        assert_eq!(store.len(), 2);
        let rows = store.query_subject(
            &ont,
            UserId(1),
            c.wifi_association,
            Timestamp::at(0, 0, 0),
            Timestamp::at(1, 0, 0),
        );
        assert_eq!(rows.len(), 1);
        // Subsumption: querying the parent category finds the row too.
        let rows = store.query_subject(
            &ont,
            UserId(1),
            ont.data.id("data/network").unwrap(),
            Timestamp::at(0, 0, 0),
            Timestamp::at(1, 0, 0),
        );
        assert_eq!(rows.len(), 1);
        // But a sibling category does not.
        let rows = store.query_subject(
            &ont,
            UserId(1),
            c.location,
            Timestamp::at(0, 0, 0),
            Timestamp::at(1, 0, 0),
        );
        assert!(rows.is_empty());
    }

    #[test]
    fn time_range_is_half_open() {
        let ont = Ontology::standard();
        let c = ont.concepts();
        let mut store = Store::new();
        let t = Timestamp::at(0, 9, 0);
        let (o, cat) = obs(&ont, 1, t);
        store.insert(o, cat, PolicyId(1), t, None);
        assert_eq!(
            store
                .query_subject(&ont, UserId(1), c.wifi_association, t, t)
                .len(),
            0
        );
        assert_eq!(
            store
                .query_subject(&ont, UserId(1), c.wifi_association, t, t + 1)
                .len(),
            1
        );
    }

    #[test]
    fn gc_removes_exactly_expired_rows() {
        let ont = Ontology::standard();
        let mut store = Store::new();
        let t0 = Timestamp::at(0, 9, 0);
        let (o1, cat) = obs(&ont, 1, t0);
        let (o2, _) = obs(&ont, 2, t0);
        store.insert(o1, cat, PolicyId(1), t0, Some(600));
        store.insert(o2, cat, PolicyId(1), t0, None);
        assert_eq!(store.gc(t0 + 599), 0);
        assert_eq!(store.gc(t0 + 601), 1);
        assert_eq!(store.len(), 1);
        // Index stays consistent after compaction.
        let c = ont.concepts();
        assert_eq!(
            store
                .query_subject(&ont, UserId(2), c.wifi_association, t0, t0 + 1)
                .len(),
            1
        );
        assert!(store
            .query_subject(&ont, UserId(1), c.wifi_association, t0, t0 + 1)
            .is_empty());
    }

    #[test]
    fn latest_for_finds_most_recent() {
        let ont = Ontology::standard();
        let c = ont.concepts();
        let mut store = Store::new();
        for min in [0, 10, 20] {
            let t = Timestamp::at(0, 9, min);
            let (o, cat) = obs(&ont, 1, t);
            store.insert(o, cat, PolicyId(1), t, None);
        }
        let latest = store
            .latest_for(&ont, UserId(1), c.wifi_association, Timestamp::at(0, 9, 15))
            .unwrap();
        assert_eq!(latest.observation.timestamp, Timestamp::at(0, 9, 10));
        assert!(store
            .latest_for(&ont, UserId(1), c.wifi_association, Timestamp::at(0, 8, 0))
            .is_none());
    }

    mod gc_properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// After any sweep over any mix of subjectless/subject-bearing
            /// rows and retention windows, the survivors are exactly the
            /// unexpired rows, the `by_subject` index is consistent with
            /// them, and every surviving subject row stays reachable
            /// through a subject query.
            #[test]
            fn gc_leaves_subject_index_consistent_with_survivors(
                rows in proptest::collection::vec(
                    (
                        proptest::option::of(0u64..6),
                        proptest::option::of(0i64..3_600),
                        0i64..7_200,
                    ),
                    0..48,
                ),
                sweep in 0i64..12_000,
            ) {
                let ont = Ontology::standard();
                let c = ont.concepts().clone();
                let mut store = Store::new();
                for (user, retention, offset) in &rows {
                    let t = Timestamp(*offset);
                    let (mut o, cat) = obs(&ont, user.unwrap_or(0), t);
                    o.subject = user.map(UserId);
                    store.insert(o, cat, PolicyId(0), t, *retention);
                }
                prop_assert!(store.index_consistent());

                let now = Timestamp(sweep);
                let expected: Vec<StoredRow> = store
                    .iter()
                    .filter(|r| r.expires_at.is_none_or(|e| e > now))
                    .cloned()
                    .collect();
                let removed = store.gc(now);
                prop_assert_eq!(removed, rows.len() - expected.len());
                prop_assert!(store.index_consistent());
                prop_assert_eq!(
                    store.iter().cloned().collect::<Vec<StoredRow>>(),
                    expected.clone()
                );
                for user in 0..6u64 {
                    let via_index = store
                        .query_subject(
                            &ont,
                            UserId(user),
                            c.wifi_association,
                            Timestamp(0),
                            Timestamp(i64::from(u32::MAX)),
                        )
                        .len();
                    let survivors = expected
                        .iter()
                        .filter(|r| r.observation.subject == Some(UserId(user)))
                        .count();
                    prop_assert_eq!(via_index, survivors);
                }
            }
        }
    }

    mod remove_rows_properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// `remove_rows` equals removing, target by target, the first
            /// live row equal to it — with duplicate rows in the store and
            /// duplicate, absent and out-of-order targets.
            #[test]
            fn remove_rows_matches_first_match_removal(
                rows in proptest::collection::vec((0u64..3, 0i64..4), 0..24),
                picks in proptest::collection::vec((0u64..4, 0i64..5), 0..24),
            ) {
                let ont = Ontology::standard();
                let row = |user: u64, offset: i64| {
                    let t = Timestamp(offset);
                    let (o, cat) = obs(&ont, user, t);
                    StoredRow {
                        observation: o,
                        category: cat,
                        policy: PolicyId(0),
                        stored_at: t,
                        expires_at: None,
                    }
                };
                let mut store = Store::new();
                for &(user, offset) in &rows {
                    store.insert_row(row(user, offset));
                }
                let targets: Vec<StoredRow> =
                    picks.iter().map(|&(user, offset)| row(user, offset)).collect();
                let mut expected: Vec<StoredRow> = store.iter().cloned().collect();
                let mut removed = 0;
                for target in &targets {
                    if let Some(i) = expected.iter().position(|r| r == target) {
                        expected.remove(i);
                        removed += 1;
                    }
                }
                prop_assert_eq!(store.remove_rows(&targets), removed);
                prop_assert_eq!(store.iter().cloned().collect::<Vec<StoredRow>>(), expected);
                prop_assert!(store.index_consistent());
            }
        }
    }

    #[test]
    fn purge_subject_is_category_scoped() {
        let ont = Ontology::standard();
        let c = ont.concepts();
        let mut store = Store::new();
        let t = Timestamp::at(0, 9, 0);
        let (o, cat) = obs(&ont, 1, t);
        store.insert(o, cat, PolicyId(1), t, None);
        // Purging an unrelated category removes nothing.
        assert_eq!(store.purge_subject(&ont, UserId(1), c.location), 0);
        // Purging the parent category removes the row.
        assert_eq!(
            store.purge_subject(&ont, UserId(1), ont.data.id("data/network").unwrap()),
            1
        );
        assert!(store.is_empty());
    }
}
