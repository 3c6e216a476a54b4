//! Table 3: page reclamation activity (original vs prefetch+release).
use hogtame::experiments::suite;
use hogtame::prelude::*;

fn main() -> Result<(), SuiteError> {
    suite::run(&MachineConfig::origin200(), None, SimDuration::from_secs(5))?.emit("table3");
    Ok(())
}
