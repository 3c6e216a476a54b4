//! Figure 9: breakdown of outcomes for freed pages.
use hogtame::experiments::suite;
use hogtame::prelude::*;

fn main() -> Result<(), SuiteError> {
    let (machine, benches) = bench::suite_target();
    suite::run(&machine, benches, SimDuration::from_secs(5))?.emit("fig09");
    Ok(())
}
