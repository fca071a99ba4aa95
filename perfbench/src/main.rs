//! The untraced run: end-to-end metrics.

use tippers_perfbench::drive::{self, Checks};
use tippers_perfbench::fixture::Fixture;
use tippers_perfbench::stats::obj;
use tippers_perfbench::{report, Args};

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut fx = Fixture::setup(args.workload, args.seed);
    let mut checks = Checks::default();
    let (metrics, totals, permit_share) = drive::run(&mut fx, args.seconds, &mut checks);
    report(
        &fx,
        &metrics,
        &totals,
        &checks,
        obj([("permit_share", permit_share.into())]),
    );
    if checks.failed {
        std::process::exit(1);
    }
}
