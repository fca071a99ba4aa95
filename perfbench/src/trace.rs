//! The traced run: spans around the calls into each layer's public
//! functions, made from the benchmark's own code, plus exact counts.
//!
//! The root span of a request wraps `Tippers::handle_request` on the real
//! BMS. The benchmark then replays that request's stages through public
//! calls on shadow state (a replay enforcer, quota ledger, audit log,
//! audit chain and archive), each stage in its own span. A replayed
//! decision, or a replayed row count, that differs from the real one is a
//! decomposition mismatch: the layer numbers would then describe some
//! other program.

use std::fmt::Write as _;
use std::time::Instant;

use tippers::wal::{LogIo, MemLog};
use tippers::{
    AuditChain, AuditLog, CaptureDropReason, CaptureFilter, ChainEvent, Enforcer, IndexedEnforcer,
    QuotaConfig, QuotaLedger, Tippers, ARCHIVE_PREFIX, SEGMENT_RECORDS,
};
use tippers_policy::{conflict, ResolutionStrategy};

use crate::drive::{
    current_space, execute, final_checks, flow_of, open_loop, run_op, subject_of, verify_pass,
    Checks, Step, Totals, CHECK_OPS,
};
use crate::fixture::{Fixture, Op, Write};
use crate::stats::{quantile, ratio, Metrics};

/// Reads a process-wide allocation counter.
pub type AllocCounter = fn() -> u64;

/// Operations of the exact-count window that opens the traced run (a
/// capture operation is one batch).
pub const EXACT_OPS: usize = 4_096;
const EXACT_BATCHES: usize = 256;
/// Share of `--seconds` spent in the traced loop; an untraced open loop
/// at the workload's rate takes the rest. Every other operation of the
/// traced loop that is not a write or the operation after one runs bare,
/// timed but not replayed, to measure how much the tracing perturbs the
/// root span.
const TRACED_SHARE: f64 = 0.7;

/// A span's layer function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Layer {
    Request,
    LatestFor,
    Build,
    Decide,
    Quota,
    Record,
    Encode,
    ChainAppend,
    SealArchive,
    Query,
    Submit,
    Setting,
    Classify,
    Batch,
    FilterDerive,
}

const LAYERS: usize = 15;

impl Layer {
    fn name(self) -> &'static str {
        match self {
            Layer::Request => "tippers.handle_request",
            Layer::LatestFor => "store.latest_for",
            Layer::Build => "enforce.build",
            Layer::Decide => "enforce.decide",
            Layer::Quota => "quota.charge",
            Layer::Record => "audit.record",
            Layer::Encode => "audit.encode",
            Layer::ChainAppend => "audit.chain_append",
            Layer::SealArchive => "audit.seal_archive",
            Layer::Query => "store.query",
            Layer::Submit => "preference.submit",
            Layer::Setting => "preference.setting",
            Layer::Classify => "policy.conflict_classify",
            Layer::Batch => "tippers.ingest_batched",
            Layer::FilterDerive => "ingest.filter_derive",
        }
    }
}

/// One recorded span: operation id, layer, start and duration in
/// nanoseconds since the run began, and allocations made inside it.
#[derive(Debug, Clone, Copy)]
struct Span {
    op: u32,
    layer: Layer,
    start_ns: u64,
    dur_ns: u64,
    allocs: u64,
}

/// Spans in memory: every span of the exact window, and per-layer
/// durations of every span.
struct Tracer {
    t0: Instant,
    allocs: AllocCounter,
    window: bool,
    spans: Vec<Span>,
    durations_us: Vec<Vec<f64>>,
    window_allocs: [u64; LAYERS],
    /// Replayed layer time of the operation in flight, microseconds.
    op_layers_us: f64,
}

impl Tracer {
    fn new(allocs: AllocCounter) -> Tracer {
        Tracer {
            t0: Instant::now(),
            allocs,
            window: true,
            spans: Vec::new(),
            durations_us: vec![Vec::new(); LAYERS],
            window_allocs: [0; LAYERS],
            op_layers_us: 0.0,
        }
    }

    /// Runs `f` inside a span of `layer` for operation `op`.
    fn span<T>(&mut self, op: usize, layer: Layer, f: impl FnOnce() -> T) -> T {
        let allocs = (self.allocs)();
        let start = Instant::now();
        let out = f();
        let dur = start.elapsed();
        let allocs = (self.allocs)() - allocs;
        let us = dur.as_secs_f64() * 1e6;
        self.durations_us[layer as usize].push(us);
        if !matches!(
            layer,
            Layer::Request | Layer::Submit | Layer::Setting | Layer::Batch
        ) {
            self.op_layers_us += us;
        }
        if self.window {
            self.window_allocs[layer as usize] += allocs;
            self.spans.push(Span {
                op: op as u32,
                layer,
                start_ns: (start - self.t0).as_nanos() as u64,
                dur_ns: dur.as_nanos() as u64,
                allocs,
            });
        }
        out
    }

    fn p(&self, layer: Layer, q: f64) -> (f64, usize) {
        let mut d = self.durations_us[layer as usize].clone();
        (quantile(&mut d, q), d.len())
    }

    fn sum(&self, layer: Layer) -> f64 {
        self.durations_us[layer as usize].iter().sum()
    }

    fn csv(&self) -> String {
        let mut out = String::from("op,layer,start_ns,dur_ns,allocs\n");
        for s in &self.spans {
            let _ = writeln!(
                out,
                "{},{},{},{},{}",
                s.op,
                s.layer.name(),
                s.start_ns,
                s.dur_ns,
                s.allocs
            );
        }
        out
    }
}

/// Shadow state the replayed stages run against.
struct Shadow {
    engine: Option<IndexedEnforcer>,
    ledger: QuotaLedger,
    log: AuditLog,
    chain: AuditChain,
    archive: MemLog,
}

/// Tallies of the traced operations.
#[derive(Default)]
struct Tally {
    requests: u64,
    decisions: u64,
    permits: u64,
    rows: u64,
    rebuilds: u64,
    payload_bytes: u64,
    mismatches: u64,
    obs: u64,
    self_us: Vec<f64>,
    seal_us: Vec<f64>,
    residual_us: Vec<f64>,
}

/// Program counters read at the edges of the exact window.
#[derive(Debug, Clone, Default)]
struct Counters {
    wal_records: u64,
    wal_syncs: u64,
    wal_bytes: u64,
    archive_bytes: u64,
    retained: u64,
    admitted: u64,
    stored: u64,
    full_rung: u64,
    rung_total: u64,
    drops: [u64; 6],
}

const DROP_REASONS: [(CaptureDropReason, &str); 6] = [
    (CaptureDropReason::Backpressure, "backpressure"),
    (CaptureDropReason::CaptureFilter, "capture_filter"),
    (CaptureDropReason::Degraded, "degraded"),
    (CaptureDropReason::Unauthorized, "unauthorized"),
    (CaptureDropReason::StoreFault, "store_fault"),
    (CaptureDropReason::DurabilityLost, "durability_lost"),
];

impl Counters {
    fn take(fx: &Fixture) -> Counters {
        let bms = &fx.bms;
        let mut c = Counters {
            wal_records: bms.wal_appended_records(),
            wal_syncs: bms.wal_sync_count(),
            retained: (bms.audit().entries().len() + bms.audit_chain().open_records().len()) as u64,
            ..Counters::default()
        };
        for name in fx.wal.file_names() {
            let bytes = fx.wal.file_bytes(&name).map_or(0, |b| b.len() as u64);
            if name.starts_with(ARCHIVE_PREFIX) {
                c.archive_bytes += bytes;
            } else {
                c.wal_bytes += bytes;
            }
        }
        if let Some(stats) = bms.ingest_stats() {
            c.admitted = stats.admitted;
            c.stored = stats.stored;
            c.full_rung = stats.rung_observations[0];
            c.rung_total = stats.rung_observations.iter().sum();
        }
        for drop in bms.capture_drops() {
            let k = DROP_REASONS
                .iter()
                .position(|(r, _)| *r == drop.reason)
                .expect("every drop reason is listed");
            c.drops[k] += 1;
        }
        c
    }
}

fn build(bms: &Tippers) -> IndexedEnforcer {
    IndexedEnforcer::new(
        bms.policies().to_vec(),
        bms.preferences().to_vec(),
        ResolutionStrategy::PolicyPrevails,
        bms.ontology(),
    )
}

/// Runs operation `i` with its root span and the replay of its stages.
fn traced_op(
    fx: &mut Fixture,
    tr: &mut Tracer,
    sh: &mut Shadow,
    tally: &mut Tally,
    i: usize,
    checks: &mut Checks,
) -> Step {
    let op = fx.stream.op(i);
    tr.op_layers_us = 0.0;
    let root = match &op {
        Op::Request(_) => Layer::Request,
        Op::Write(Write::Submit(_)) => Layer::Submit,
        Op::Write(Write::Setting { .. }) => Layer::Setting,
        Op::Capture(..) => Layer::Batch,
    };
    let bms = &mut fx.bms;
    let (now, baseline) = (fx.now, fx.baseline);
    let outcome = tr.span(i, root, || execute(bms, &op, now, baseline));
    let root_us = *tr.durations_us[root as usize]
        .last()
        .expect("root span recorded");
    let step = outcome.unwrap_or_else(|e| {
        checks.check("one result per subject", false, e);
        Step {
            failed: true,
            ..Step::default()
        }
    });
    let bms = &fx.bms;
    let (ontology, model) = (bms.ontology(), bms.model());
    match &op {
        Op::Request(request) => {
            let space = tr.span(i, Layer::LatestFor, || current_space(bms, request, now));
            let flow = flow_of(bms, request, space, now);
            if sh.engine.is_none() {
                sh.engine = Some(tr.span(i, Layer::Build, || build(bms)));
                tally.rebuilds += 1;
            }
            let engine = sh.engine.as_ref().expect("built above");
            let decision = tr.span(i, Layer::Decide, || engine.decide(&flow, ontology, model));
            let user = subject_of(request);
            if step.decision.as_ref() != Some(&decision) {
                tally.mismatches += 1;
            }
            if decision.permits() {
                let quota = QuotaConfig {
                    budget: u32::MAX,
                    window_secs: None,
                };
                tr.span(i, Layer::Quota, || {
                    if !sh
                        .ledger
                        .exhausted(user, &request.service, request.purpose, now, quota)
                    {
                        sh.ledger
                            .charge(user, &request.service, request.purpose, now, quota);
                    }
                });
            }
            let entry = tr.span(i, Layer::Record, || {
                sh.log
                    .record(
                        now,
                        user,
                        Some(request.service.clone()),
                        request.data,
                        request.purpose,
                        &decision,
                    )
                    .clone()
            });
            let payload = tr.span(i, Layer::Encode, || {
                serde_json::to_string(&ChainEvent::Decision { entry })
                    .expect("chain events serialize")
            });
            tally.payload_bytes += payload.len() as u64;
            tr.span(i, Layer::ChainAppend, || {
                sh.chain.append(payload);
            });
            let sealed = tr.span(i, Layer::SealArchive, || {
                let segments = sh.chain.seal(SEGMENT_RECORDS);
                for segment in &segments {
                    let name = format!("{ARCHIVE_PREFIX}{:010}.seg", segment.first_seq);
                    let bytes = serde_json::to_string(segment).expect("segments serialize");
                    let _ = sh.archive.append(&name, bytes.as_bytes());
                    let _ = sh.archive.sync(&name);
                }
                segments.len()
            });
            if sealed > 0 {
                tally.seal_us.push(
                    *tr.durations_us[Layer::SealArchive as usize]
                        .last()
                        .expect("span"),
                );
            }
            if decision.permits() {
                let rows = tr.span(i, Layer::Query, || {
                    let c = ontology.concepts();
                    let location = ontology.data.is_a(request.data, c.location)
                        || ontology.data.compatible(request.data, c.location);
                    let categories = if location {
                        vec![c.wifi_association, c.bluetooth_sighting, c.location]
                    } else {
                        vec![request.data]
                    };
                    categories
                        .into_iter()
                        .map(|cat| {
                            bms.store()
                                .query_subject(ontology, user, cat, request.from, request.to)
                                .len() as u64
                        })
                        .sum::<u64>()
                });
                tally.mismatches += u64::from(rows != step.rows);
            }
            tally.rows += step.rows;
            tally.requests += 1;
            tally.decisions += 1;
            tally.permits += u64::from(decision.permits());
            tally.self_us.push(root_us - tr.op_layers_us);
        }
        Op::Write(write) => {
            if let Write::Submit(pref) = write {
                tr.span(i, Layer::Classify, || {
                    bms.policies()
                        .iter()
                        .filter_map(|p| {
                            conflict::classify(
                                p,
                                pref,
                                ontology,
                                model,
                                ResolutionStrategy::PolicyPrevails,
                            )
                        })
                        .count()
                });
            }
            sh.engine = None;
        }
        Op::Capture(batch, _) => {
            tr.span(i, Layer::FilterDerive, || {
                CaptureFilter::derive(ontology, bms.policies(), bms.preferences(), &fx.macs)
            });
            tally.obs += batch.len() as u64;
            tally
                .residual_us
                .push((root_us - tr.op_layers_us) / batch.len() as f64);
        }
    }
    step
}

/// The traced run. Writes the exact window's spans as CSV to `spans`
/// when given, and returns the per-layer metrics.
pub fn run(
    fx: &mut Fixture,
    seconds: f64,
    allocs: AllocCounter,
    spans: Option<&std::path::Path>,
    checks: &mut Checks,
) -> (Metrics, Totals) {
    let audit_before = fx.bms.audit().entries().len();
    let mut totals = Totals::default();
    let permit_share = verify_pass(fx, &mut totals, checks);
    let mut tr = Tracer::new(allocs);
    let mut sh = Shadow {
        engine: None,
        ledger: QuotaLedger::new(),
        log: AuditLog::new(),
        chain: AuditChain::new(),
        archive: MemLog::new(),
    };
    sh.engine = Some(tr.span(0, Layer::Build, || build(&fx.bms)));
    let mut tally = Tally::default();
    let mut i = CHECK_OPS;

    // Exact-count window: a fixed number of operations from a state that
    // depends only on the seed.
    let window_ops = if fx.workload.serves_requests() {
        EXACT_OPS
    } else {
        EXACT_BATCHES
    };
    let before = Counters::take(fx);
    let mut after_write = false;
    for _ in 0..window_ops {
        let step = traced_op(fx, &mut tr, &mut sh, &mut tally, i, checks);
        after_write = step.write;
        totals.add(&step);
        i += 1;
    }
    let after = Counters::take(fx);
    let w = std::mem::take(&mut tally);
    tr.window = false;

    // Writes, and the operation after each, are always traced: the
    // program's enforcer rebuild and the shadow's then fall in the same
    // operation, and bare operations are all requests (or batches).
    let started = Instant::now();
    let mut bare_us = Vec::new();
    while started.elapsed().as_secs_f64() < seconds * TRACED_SHARE {
        if i.is_multiple_of(2) || after_write || fx.stream.is_write(i) {
            let step = traced_op(fx, &mut tr, &mut sh, &mut tally, i, checks);
            after_write = step.write;
            totals.add(&step);
        } else {
            let start = Instant::now();
            run_op(fx, i, &mut totals, checks);
            bare_us.push(start.elapsed().as_secs_f64() * 1e6);
        }
        i += 1;
    }
    let mut open = open_loop(
        fx,
        &mut i,
        seconds * (1.0 - TRACED_SHARE),
        &mut totals,
        checks,
    );
    final_checks(fx, audit_before, &totals, checks);
    let mismatches = w.mismatches + tally.mismatches;
    checks.check(
        "replayed decisions and rows match handle_request",
        mismatches == 0,
        format!("{mismatches} mismatches"),
    );
    if let Some(path) = spans {
        if let Err(e) = std::fs::write(path, tr.csv()) {
            checks.check("spans written", false, e);
        }
    }

    let mut m = Metrics::default();
    let ops = window_ops as f64;
    let (decisions, requests) = (w.decisions as f64, w.requests as f64);
    let window_allocs = |layers: &[Layer]| -> f64 {
        layers
            .iter()
            .map(|&l| tr.window_allocs[l as usize] as f64)
            .sum()
    };
    let audit_layers = [
        Layer::Record,
        Layer::Encode,
        Layer::ChainAppend,
        Layer::SealArchive,
    ];
    let pct = |m: &mut Metrics, name: &str, layer: Layer, q: f64| {
        let (v, n) = tr.p(layer, q);
        m.put(name, v, "us", n);
    };
    let root_sum = tr.sum(Layer::Request);
    let mut all = tally;
    all.self_us.extend(w.self_us);
    all.seal_us.extend(w.seal_us);
    all.residual_us.extend(w.residual_us);

    pct(&mut m, "tippers.request_us", Layer::Request, 0.5);
    let n = all.self_us.len();
    m.put("tippers.self_us", quantile(&mut all.self_us, 0.5), "us", n);
    m.count(
        "tippers.allocs_per_request",
        ratio(window_allocs(&[Layer::Request]), requests),
        "count",
        w.requests as usize,
    );

    pct(&mut m, "enforce.decide_p50_us", Layer::Decide, 0.5);
    pct(&mut m, "enforce.decide_p99_us", Layer::Decide, 0.99);
    m.put(
        "enforce.share",
        ratio(tr.sum(Layer::Decide), root_sum),
        "ratio",
        tr.durations_us[Layer::Decide as usize].len(),
    );
    m.count(
        "enforce.allocs_per_decision",
        ratio(window_allocs(&[Layer::Decide]), decisions),
        "count",
        w.decisions as usize,
    );
    pct(&mut m, "enforce.build_us", Layer::Build, 0.5);
    m.count(
        "enforce.rebuilds_per_kop",
        1000.0 * w.rebuilds as f64 / ops,
        "1/kop",
        window_ops,
    );

    pct(&mut m, "audit.record_us", Layer::Record, 0.5);
    pct(&mut m, "audit.encode_us", Layer::Encode, 0.5);
    pct(&mut m, "audit.chain_append_us", Layer::ChainAppend, 0.5);
    m.put(
        "audit.share",
        ratio(audit_layers.iter().map(|&l| tr.sum(l)).sum(), root_sum),
        "ratio",
        tr.durations_us[Layer::Record as usize].len(),
    );
    m.count(
        "audit.payload_bytes_per_decision",
        ratio(w.payload_bytes as f64, decisions),
        "B",
        w.decisions as usize,
    );
    m.count(
        "audit.allocs_per_decision",
        ratio(window_allocs(&audit_layers), decisions),
        "count",
        w.decisions as usize,
    );
    let n = all.seal_us.len();
    m.put(
        "audit.seal_archive_us",
        quantile(&mut all.seal_us, 0.5),
        "us",
        n,
    );
    m.count(
        "audit.archive_bytes_per_decision",
        ratio(
            (after.archive_bytes - before.archive_bytes) as f64,
            decisions,
        ),
        "B",
        w.decisions as usize,
    );
    m.count(
        "audit.retained_per_decision",
        ratio(after.retained as f64 - before.retained as f64, decisions),
        "count",
        w.decisions as usize,
    );

    pct(&mut m, "quota.charge_us", Layer::Quota, 0.5);
    pct(&mut m, "store.latest_for_us", Layer::LatestFor, 0.5);
    pct(&mut m, "store.query_us", Layer::Query, 0.5);
    m.count(
        "store.rows_per_release",
        ratio(w.rows as f64, w.permits as f64),
        "count",
        w.permits as usize,
    );

    let records = (after.wal_records - before.wal_records) as f64;
    m.count("wal.records_per_op", records / ops, "count", window_ops);
    m.count(
        "wal.bytes_per_op",
        (after.wal_bytes - before.wal_bytes) as f64 / ops,
        "B",
        window_ops,
    );
    m.count(
        "wal.records_per_sync",
        ratio(records, (after.wal_syncs - before.wal_syncs) as f64),
        "count",
        window_ops,
    );
    m.count(
        "wal.append_failures",
        fx.bms.wal_append_failures() as f64,
        "count",
        totals.attempted as usize,
    );

    pct(&mut m, "preference.submit_us", Layer::Submit, 0.5);
    pct(&mut m, "preference.setting_us", Layer::Setting, 0.5);
    pct(&mut m, "policy.conflict_classify_us", Layer::Classify, 0.5);

    pct(&mut m, "ingest.batch_us", Layer::Batch, 0.5);
    pct(&mut m, "ingest.filter_derive_us", Layer::FilterDerive, 0.5);
    let n = all.residual_us.len();
    m.put(
        "ingest.per_obs_residual_us",
        quantile(&mut all.residual_us, 0.5),
        "us",
        n,
    );
    let admitted = (after.admitted - before.admitted) as f64;
    m.count(
        "ingest.stored_ratio",
        ratio((after.stored - before.stored) as f64, admitted),
        "ratio",
        w.obs as usize,
    );
    for (k, (_, reason)) in DROP_REASONS.iter().enumerate() {
        m.count(
            &format!("ingest.drop.{reason}"),
            (after.drops[k] - before.drops[k]) as f64,
            "count",
            w.obs as usize,
        );
    }
    m.count(
        "ingest.full_rung_share",
        ratio(
            (after.full_rung - before.full_rung) as f64,
            (after.rung_total - before.rung_total) as f64,
        ),
        "ratio",
        w.obs as usize,
    );
    m.count(
        "ingest.allocs_per_obs",
        ratio(window_allocs(&[Layer::Batch]), w.obs as f64),
        "count",
        w.obs as usize,
    );

    let n = open.lag_us.len();
    m.put(
        "harness.gen_lag_p99_us",
        quantile(&mut open.lag_us, 0.99),
        "us",
        n,
    );
    let root = if fx.workload.serves_requests() {
        Layer::Request
    } else {
        Layer::Batch
    };
    m.put(
        "harness.trace_overhead_ratio",
        ratio(tr.p(root, 0.5).0, quantile(&mut bare_us, 0.5)),
        "ratio",
        bare_us.len(),
    );
    m.count(
        "harness.decomposition_mismatches",
        mismatches as f64,
        "count",
        (w.decisions + all.decisions) as usize,
    );
    m.count("harness.permit_share", permit_share, "ratio", CHECK_OPS);
    (m, totals)
}
