//! Figure 9: breakdown of outcomes for freed pages.
use hogtame::experiments::suite;
use hogtame::prelude::*;

fn main() -> Result<(), SuiteError> {
    suite::run(&MachineConfig::origin200(), None, SimDuration::from_secs(5))?.emit("fig09");
    Ok(())
}
