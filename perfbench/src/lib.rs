//! A layered benchmark of the TIPPERS enforcement point.
//!
//! One single-threaded process drives one single-threaded [`tippers::Tippers`]
//! through a seeded workload. The untraced binary (`perfbench`) reports
//! end-to-end metrics; the traced binary (`perfbench-traced`) times the
//! calls into each layer's public functions and counts allocations. See
//! `README.md` in this directory.

pub mod drive;
pub mod fixture;
pub mod stats;
pub mod trace;

use serde_json::Value;

use crate::drive::{Checks, Totals};
use crate::fixture::{Fixture, Workload};
use crate::stats::{obj, Metrics};

/// Command-line arguments shared by both binaries.
#[derive(Debug, Clone)]
pub struct Args {
    /// The workload to run.
    pub workload: Workload,
    /// The workload seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Where the traced run writes its spans.
    pub spans: Option<String>,
}

impl Args {
    /// Parses `--workload <name> --seed <n> --seconds <s> [--spans <path>]`.
    ///
    /// # Errors
    ///
    /// A usage message for a missing or malformed argument.
    pub fn parse(args: impl Iterator<Item = String>) -> Result<Args, String> {
        let args: Vec<String> = args.collect();
        let value = |flag: &str| {
            args.iter()
                .position(|a| a == flag)
                .and_then(|i| args.get(i + 1))
                .ok_or(format!("missing {flag}"))
        };
        let name = value("--workload")?;
        Ok(Args {
            workload: Workload::parse(name).ok_or(format!("unknown workload {name}"))?,
            seed: value("--seed")?
                .parse()
                .map_err(|e| format!("--seed: {e}"))?,
            seconds: value("--seconds")?
                .parse()
                .map_err(|e| format!("--seconds: {e}"))?,
            spans: value("--spans").ok().cloned(),
        })
    }
}

/// Prints a run's result as the one JSON line the wrapper reads.
pub fn report(fx: &Fixture, metrics: &Metrics, totals: &Totals, checks: &Checks, extra: Value) {
    let descriptors = obj([
        ("policies", (fx.bms.policies().len() as u64).into()),
        ("preferences", (fx.bms.preferences().len() as u64).into()),
        (
            "distinct_preference_sets",
            (fx.distinct_pref_sets as u64).into(),
        ),
        ("preloaded_rows", (fx.preloaded_rows as u64).into()),
        ("occupants", (fixture::OCCUPANTS as u64).into()),
        ("open_rate_per_s", fx.workload.open_rate().into()),
        ("closed_share", fx.workload.closed_share().into()),
        ("capture_batch", (fixture::CAPTURE_BATCH as u64).into()),
    ]);
    let checks_json = Value::Array(checks.lines.iter().map(|l| l.as_str().into()).collect());
    let out = obj([
        ("workload", fx.workload.name().into()),
        ("descriptors", descriptors),
        ("extra", extra),
        ("correct", (!checks.failed).into()),
        ("attempted", totals.attempted.into()),
        ("failed", totals.failed.into()),
        ("checks", checks_json),
        ("metrics", metrics.to_json()),
    ]);
    println!(
        "{}",
        serde_json::to_string(&out).expect("a JSON value serializes")
    );
}
