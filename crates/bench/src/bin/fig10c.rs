//! Figure 10(c): interactive hard page faults per sweep.
use hogtame::experiments::suite;
use hogtame::prelude::*;

fn main() -> Result<(), SuiteError> {
    suite::run(&MachineConfig::origin200(), None, SimDuration::from_secs(5))?.emit("fig10c");
    Ok(())
}
