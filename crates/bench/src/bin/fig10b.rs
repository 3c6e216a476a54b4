//! Figure 10(b): interactive response at 5 s sleep, normalized to running alone.
use hogtame::experiments::suite;
use hogtame::prelude::*;

fn main() -> Result<(), SuiteError> {
    suite::run(&MachineConfig::origin200(), None, SimDuration::from_secs(5))?.emit("fig10b");
    Ok(())
}
