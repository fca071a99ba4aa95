//! Executing operations, checking their outputs, and the untraced run
//! that yields the end-to-end metrics.

use std::time::{Duration, Instant};

use tippers::{
    CaptureDropReason, DataRequest, DecisionBasis, EnforcementDecision, Enforcer, NaiveEnforcer,
    RequestFlow, SubjectSelector, Tippers,
};
use tippers_policy::{DataAction, PolicyId, ResolutionStrategy, Timestamp};
use tippers_spatial::SpaceId;

use crate::fixture::{Fixture, Op, Workload, Write, SETTING_KEY};
use crate::stats::{quantile, ratio, rss_bytes, Metrics};

/// Operations of the untimed verification pass that opens every run.
pub const CHECK_OPS: usize = 2_048;
/// Every this many requests of the verification pass are re-decided by
/// the naive oracle.
const ORACLE_EVERY: usize = 4;
/// Closed-loop and open-loop slices alternate this many times in a run.
pub const SLICES: usize = 20;
/// `setup_s` is the median of the run's own set-up and of further
/// set-ups in the same process, made in two batches once the slices have
/// ended: one before the final checks and one after them. The samples
/// then span the long final audit verification, so one slow stretch of
/// the host cannot set the median. Each batch makes at least this many
/// set-ups ...
pub const SETUP_SAMPLES: usize = 3;
/// ... taking at least this many seconds in all.
pub const SETUP_MIN_S: f64 = 1.0;

/// What one operation did.
#[derive(Debug, Clone, Default)]
pub struct Step {
    /// The operation failed (see [`is_failure`]).
    pub failed: bool,
    /// Decisions the operation made.
    pub decisions: u64,
    /// Of those, permits.
    pub permits: u64,
    /// Rows released.
    pub rows: u64,
    /// Observations offered (capture only).
    pub obs: u64,
    /// The operation was an IoTA write.
    pub write: bool,
    /// A request's decision, as `handle_request` returned it.
    pub decision: Option<EnforcementDecision>,
}

impl Step {
    /// The throughput units this step counts for: observations for a
    /// capture batch, otherwise one operation.
    pub fn units(&self) -> u64 {
        if self.obs > 0 {
            self.obs
        } else {
            1
        }
    }
}

/// Totals over every operation of a run.
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Decisions made.
    pub decisions: u64,
}

impl Totals {
    /// Adds one step.
    pub fn add(&mut self, step: &Step) {
        self.attempted += 1;
        self.failed += u64::from(step.failed);
        self.decisions += step.decisions;
    }
}

/// Correctness checks; any failure fails the run.
#[derive(Debug, Default)]
pub struct Checks {
    /// One line per check made, `ok` or `FAILED`.
    pub lines: Vec<String>,
    /// True once any check failed.
    pub failed: bool,
}

impl Checks {
    /// Records a check.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl std::fmt::Display) {
        self.failed |= !ok;
        let verdict = if ok { "ok" } else { "FAILED" };
        self.lines.push(format!("{verdict:6} {name}: {detail}"));
    }
}

/// A failed request: a fail-closed denial the workload should never
/// provoke. Policy denials are correct answers, not failures; quota
/// denials are failures because the budget is never spent.
pub fn is_failure(basis: &DecisionBasis) -> bool {
    matches!(
        basis,
        DecisionBasis::InternalError
            | DecisionBasis::Overload
            | DecisionBasis::ShardUnavailable
            | DecisionBasis::StaleReplica
            | DecisionBasis::QuotaExceeded
    )
}

/// The single subject of a benchmark request.
///
/// # Panics
///
/// On a multi-subject selector, which the fixture never generates.
pub fn subject_of(request: &DataRequest) -> tippers_policy::UserId {
    match request.subjects {
        SubjectSelector::One(user) => user,
        _ => panic!("benchmark requests name one subject"),
    }
}

/// The subject's current space as `handle_request` resolves it: the
/// newest network row, if at most an hour old.
pub fn current_space(bms: &Tippers, request: &DataRequest, now: Timestamp) -> Option<SpaceId> {
    let ontology = bms.ontology();
    let row =
        bms.store()
            .latest_for(ontology, subject_of(request), ontology.concepts().data, now)?;
    (now - row.observation.timestamp <= 3600).then_some(row.observation.space)
}

/// The flow `handle_request` decides for a single-subject request.
pub fn flow_of(
    bms: &Tippers,
    request: &DataRequest,
    subject_space: Option<SpaceId>,
    now: Timestamp,
) -> RequestFlow {
    let user = subject_of(request);
    RequestFlow {
        subject: user,
        subject_group: bms.group_of(user),
        data: request.data,
        purpose: request.purpose,
        service: Some(request.service.clone()),
        action: DataAction::Share,
        time: now,
        subject_space,
        requester_space: request.requester_space,
        room_occupied: None,
    }
}

/// Runs one operation against the BMS and checks the shape of its
/// answer.
///
/// # Errors
///
/// A description of a malformed answer (a response without exactly one
/// result for its subject).
pub fn execute(
    bms: &mut Tippers,
    op: &Op<'_>,
    now: Timestamp,
    baseline: PolicyId,
) -> Result<Step, String> {
    match op {
        Op::Request(request) => {
            let response = bms.handle_request(request, now);
            let user = subject_of(request);
            match response.results.as_slice() {
                [result] if result.user == user => {
                    let permitted = result.decision.permits();
                    Ok(Step {
                        failed: is_failure(&result.decision.basis),
                        decisions: 1,
                        permits: u64::from(permitted),
                        rows: result.records.len() as u64,
                        decision: Some(result.decision.clone()),
                        ..Step::default()
                    })
                }
                other => Err(format!(
                    "request for {user} answered with {} results",
                    other.len()
                )),
            }
        }
        Op::Write(Write::Submit(pref)) => {
            bms.submit_preference(pref.clone(), now);
            Ok(Step {
                write: true,
                ..Step::default()
            })
        }
        Op::Write(Write::Setting { user, option }) => {
            let failed = bms
                .apply_setting_choice(*user, baseline, SETTING_KEY, *option)
                .is_err();
            Ok(Step {
                failed,
                write: true,
                ..Step::default()
            })
        }
        Op::Capture(batch, now_ms) => {
            let report = bms.ingest_batched(batch, *now_ms);
            Ok(Step {
                failed: !report.rejected.is_empty() || report.unadmitted > 0,
                obs: batch.len() as u64,
                ..Step::default()
            })
        }
    }
}

/// Runs operation `i` and records it; a malformed answer is a failed
/// operation and a failed check.
pub fn run_op(fx: &mut Fixture, i: usize, totals: &mut Totals, checks: &mut Checks) -> Step {
    let op = fx.stream.op(i);
    let step = match execute(&mut fx.bms, &op, fx.now, fx.baseline) {
        Ok(step) => step,
        Err(e) => {
            if !checks.failed {
                checks.check("one result per subject", false, e);
            }
            Step {
                failed: true,
                ..Step::default()
            }
        }
    };
    totals.add(&step);
    step
}

/// The untimed pass that opens every run: [`CHECK_OPS`] operations, with
/// a sample of requests re-decided by `NaiveEnforcer`, the test oracle.
/// Returns the permit share of the pass's decisions (an exact count).
pub fn verify_pass(fx: &mut Fixture, totals: &mut Totals, checks: &mut Checks) -> f64 {
    let ops = if fx.workload.serves_requests() {
        CHECK_OPS
    } else {
        CHECK_OPS / 32
    };
    let mut oracle: Option<NaiveEnforcer> = None;
    let (mut sampled, mut disagreed, mut decisions, mut permits) = (0u64, 0u64, 0u64, 0u64);
    for i in 0..ops {
        // Capture batches are generated on demand, so only request
        // streams are peeked at before the operation runs.
        let request = if fx.workload.serves_requests() {
            match fx.stream.op(i) {
                Op::Request(r) => Some(r.clone()),
                _ => {
                    oracle = None;
                    None
                }
            }
        } else {
            None
        };
        let before = totals.decisions;
        let step = run_op(fx, i, totals, checks);
        decisions += totals.decisions - before;
        permits += step.permits;
        let Some(request) = request.filter(|_| i % ORACLE_EVERY == 0) else {
            continue;
        };
        let engine = oracle.get_or_insert_with(|| {
            NaiveEnforcer::new(
                fx.bms.policies().to_vec(),
                fx.bms.preferences().to_vec(),
                ResolutionStrategy::PolicyPrevails,
            )
        });
        let space = current_space(&fx.bms, &request, fx.now);
        let flow = flow_of(&fx.bms, &request, space, fx.now);
        let expected = engine.decide(&flow, fx.bms.ontology(), fx.bms.model());
        sampled += 1;
        disagreed += u64::from(step.decision.map(|d| d.effect) != Some(expected.effect));
    }
    if fx.workload.serves_requests() {
        checks.check(
            "decisions match NaiveEnforcer",
            sampled > 0 && disagreed == 0,
            format!("{disagreed} of {sampled} sampled effects disagree"),
        );
    }
    ratio(permits as f64, decisions as f64)
}

/// The checks every run ends with.
pub fn final_checks(fx: &Fixture, audit_before: usize, totals: &Totals, checks: &mut Checks) {
    let bms = &fx.bms;
    let chain = bms.verify_audit_chain();
    checks.check("audit chain verifies", chain.is_ok(), format!("{chain:?}"));
    let archive = bms.verify_audit_archive();
    checks.check(
        "audit archive verifies",
        archive.is_ok(),
        format!("{archive:?}"),
    );
    let grew = bms.audit().entries().len() - audit_before;
    checks.check(
        "one audit entry per decision",
        grew as u64 == totals.decisions,
        format!("{grew} entries for {} decisions", totals.decisions),
    );
    checks.check(
        "no WAL append failures",
        bms.wal_append_failures() == 0,
        bms.wal_append_failures(),
    );
    if fx.workload == Workload::CaptureFirehose {
        let stats = bms.ingest_stats().unwrap_or_default();
        let dropped = bms
            .capture_drops()
            .iter()
            .filter(|d| d.reason != CaptureDropReason::Backpressure)
            .count() as u64;
        checks.check(
            "capture accounting closes",
            stats.admitted == stats.stored + dropped,
            format!(
                "admitted {} = stored {} + dropped {dropped}",
                stats.admitted, stats.stored
            ),
        );
        checks.check(
            "store index consistent",
            bms.store().index_consistent(),
            "by_subject index",
        );
    }
}

/// Latency samples of the open loop, microseconds from due time.
#[derive(Debug, Default)]
pub struct OpenLoop {
    /// Every operation's latency.
    pub latency_us: Vec<f64>,
    /// IoTA writes' latency.
    pub write_us: Vec<f64>,
    /// How late the generator issued each operation.
    pub lag_us: Vec<f64>,
    /// Operations that failed or missed the latency limit.
    pub slo_misses: u64,
    /// Throughput units the operations counted.
    pub units: u64,
}

impl OpenLoop {
    /// Appends another slice's samples.
    fn absorb(&mut self, other: OpenLoop) {
        self.latency_us.extend(other.latency_us);
        self.write_us.extend(other.write_us);
        self.lag_us.extend(other.lag_us);
        self.slo_misses += other.slo_misses;
        self.units += other.units;
    }
}

/// Issues operations at the workload's fixed rate for `seconds`, timing
/// each from when it was due. Operation indices continue from `*i`.
pub fn open_loop(
    fx: &mut Fixture,
    i: &mut usize,
    seconds: f64,
    totals: &mut Totals,
    checks: &mut Checks,
) -> OpenLoop {
    let period = 1.0 / fx.workload.open_rate();
    let slo_us = fx.workload.slo_us();
    let mut out = OpenLoop::default();
    let start = Instant::now();
    for k in 0.. {
        let due = start + Duration::from_secs_f64(period * k as f64);
        if due.duration_since(start).as_secs_f64() >= seconds {
            break;
        }
        while Instant::now() < due {
            std::hint::spin_loop();
        }
        let issued = Instant::now();
        let step = run_op(fx, *i, totals, checks);
        let done = Instant::now();
        *i += 1;
        let latency = (done - due).as_secs_f64() * 1e6;
        out.latency_us.push(latency);
        out.lag_us.push((issued - due).as_secs_f64() * 1e6);
        if step.write {
            out.write_us.push(latency);
        }
        out.slo_misses += u64::from(step.failed || latency > slo_us);
        out.units += step.units();
    }
    out
}

/// Runs closed-loop operations for `seconds`; returns the throughput
/// units they counted.
pub fn closed_loop(
    fx: &mut Fixture,
    i: &mut usize,
    seconds: f64,
    totals: &mut Totals,
    checks: &mut Checks,
) -> u64 {
    let window = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut units = 0u64;
    while start.elapsed() < window {
        units += run_op(fx, *i, totals, checks).units();
        *i += 1;
    }
    units
}

/// Adds one batch of set-up times to `samples`: fixtures of `fx`'s
/// workload and seed are built, timed and dropped one at a time until
/// [`SETUP_SAMPLES`] of them have taken [`SETUP_MIN_S`]. Made after the
/// slices, they leave the run's resident-memory figures alone.
fn add_setups(fx: &Fixture, samples: &mut Vec<f64>) {
    let (mut n, mut secs) = (0, 0.0);
    while n < SETUP_SAMPLES || secs < SETUP_MIN_S {
        let s = Fixture::setup(fx.workload, fx.seed).setup_s;
        samples.push(s);
        n += 1;
        secs += s;
    }
}

/// The untraced run: verification pass, then [`SLICES`] alternating
/// closed-loop and open-loop slices, then the final checks. Interleaving
/// spreads both phases over the whole run, so a host whose speed drifts
/// within the run weighs equally on every metric. `ops_per_s` is the
/// median of the closed slices' throughputs, so slices that fall in a slow
/// stretch of the host do not set it. `lat_p99_us` is the
/// median of the slices' p99s: a host stall confined to one slice cannot
/// set it, while the program's own periodic stalls (an audit seal every
/// 64 decisions) show in every slice. `setup_s` is the median of the
/// samples [`SETUP_SAMPLES`] describes. Returns the end-to-end metrics, the totals and the
/// permit share.
pub fn run(fx: &mut Fixture, seconds: f64, checks: &mut Checks) -> (Metrics, Totals, f64) {
    let setup_rss = rss_bytes();
    let audit_before = fx.bms.audit().entries().len();
    let mut totals = Totals::default();
    let permit_share = verify_pass(fx, &mut totals, checks);
    let mut i = CHECK_OPS;
    let share = fx.workload.closed_share();
    let closed_s = seconds * share / SLICES as f64;
    let open_s = seconds * (1.0 - share) / SLICES as f64;
    let mut closed_units = 0u64;
    let mut rates = Vec::with_capacity(SLICES);
    let mut open = OpenLoop::default();
    let mut p99s = Vec::with_capacity(SLICES);
    let rss_before = rss_bytes();
    for _ in 0..SLICES {
        let start = Instant::now();
        let units = closed_loop(fx, &mut i, closed_s, &mut totals, checks);
        rates.push(units as f64 / start.elapsed().as_secs_f64());
        closed_units += units;
        let mut slice = open_loop(fx, &mut i, open_s, &mut totals, checks);
        p99s.push(quantile(&mut slice.latency_us, 0.99));
        open.absorb(slice);
    }
    let rss_per_unit = ratio(rss_bytes() - rss_before, (closed_units + open.units) as f64);
    let mut setups = vec![fx.setup_s];
    add_setups(fx, &mut setups);
    final_checks(fx, audit_before, &totals, checks);
    add_setups(fx, &mut setups);

    let n = open.latency_us.len();
    let mut m = Metrics::default();
    let n_setups = setups.len();
    m.put("setup_s", quantile(&mut setups, 0.5), "s", n_setups);
    m.put("setup_rss_mb", setup_rss / 1e6, "MB", 1);
    m.put(
        "ops_per_s",
        quantile(&mut rates, 0.5),
        "1/s",
        closed_units as usize,
    );
    m.put("lat_p50_us", quantile(&mut open.latency_us, 0.5), "us", n);
    m.put("lat_p99_us", quantile(&mut p99s, 0.5), "us", n);
    m.put(
        "slo_miss_ratio",
        ratio(open.slo_misses as f64, n as f64),
        "ratio",
        n,
    );
    m.put(
        "error_ratio",
        ratio(totals.failed as f64, totals.attempted as f64),
        "ratio",
        totals.attempted as usize,
    );
    m.put(
        "rss_bytes_per_op",
        rss_per_unit,
        "B",
        (closed_units + open.units) as usize,
    );
    let writes = open.write_us.len();
    m.put(
        "write_p99_us",
        quantile(&mut open.write_us, 0.99),
        "us",
        writes,
    );
    m.put("gen_lag_p99_us", quantile(&mut open.lag_us, 0.99), "us", n);
    (m, totals, permit_share)
}
