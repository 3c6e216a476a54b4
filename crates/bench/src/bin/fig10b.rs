//! Figure 10(b): interactive response at 5 s sleep, normalized to running alone.
use hogtame::experiments::suite;
use hogtame::prelude::*;

fn main() -> Result<(), SuiteError> {
    let (machine, benches) = bench::suite_target();
    suite::run(&machine, benches, SimDuration::from_secs(5))?.emit("fig10b");
    Ok(())
}
