//! Figure 8: soft page faults caused by paging-daemon invalidations.
use hogtame::experiments::suite;
use hogtame::prelude::*;

fn main() -> Result<(), SuiteError> {
    let (machine, benches) = bench::suite_target();
    suite::run(&machine, benches, SimDuration::from_secs(5))?.emit("fig08");
    Ok(())
}
