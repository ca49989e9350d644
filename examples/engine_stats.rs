//! Run two overlapping campaigns through the execution engine and print
//! its statistics: the second campaign is served entirely from the memo
//! table, so only the union of unique jobs ever simulates.
//!
//! ```sh
//! cargo run --release --example engine_stats
//! ```

use horizon::core::campaign::Campaign;
use horizon::engine::Engine;
use horizon::uarch::MachineConfig;
use horizon::workloads::cpu2017;
use std::sync::Arc;

fn main() {
    let engine = Arc::new(Engine::new());
    Arc::clone(&engine).install();

    let campaign = Campaign::quick();
    let machines = vec![MachineConfig::skylake_i7_6700(), MachineConfig::sparc_t4()];

    // First campaign simulates; the second (a subset of the first grid)
    // is served from the memo table without touching the simulator.
    campaign.measure(&cpu2017::speed_int(), &machines);
    campaign.measure(&cpu2017::speed_int()[..4], &machines);

    println!("{}", engine.stats().summary());
}
