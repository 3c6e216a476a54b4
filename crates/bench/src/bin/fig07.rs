//! Figure 7: normalized execution time of the out-of-core applications.
use hogtame::experiments::suite;
use hogtame::prelude::*;

fn main() -> Result<(), SuiteError> {
    let (machine, benches) = bench::suite_target();
    suite::run(&machine, benches, SimDuration::from_secs(5))?.emit("fig07");
    Ok(())
}
