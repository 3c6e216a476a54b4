//! Table 3: page reclamation activity (original vs prefetch+release).
use hogtame::experiments::suite;
use hogtame::prelude::*;

fn main() -> Result<(), SuiteError> {
    let (machine, benches) = bench::suite_target();
    suite::run(&machine, benches, SimDuration::from_secs(5))?.emit("table3");
    Ok(())
}
