//! Figure 7: normalized execution time of the out-of-core applications.
use hogtame::experiments::suite;
use hogtame::prelude::*;

fn main() -> Result<(), SuiteError> {
    suite::run(&MachineConfig::origin200(), None, SimDuration::from_secs(5))?.emit("fig07");
    Ok(())
}
