//! The Figure 3 opportunity study: how much of every core's instruction
//! stream falls within temporal streams recorded by a single randomly chosen
//! core.
//!
//! ```text
//! cargo run --release --example commonality_study
//! ```

use shift::sim::experiments::commonality;
use shift::trace::{presets, Scale};

fn main() {
    let workloads = vec![
        presets::oltp_db2().scaled_footprint(0.15),
        presets::web_search().scaled_footprint(0.15),
        presets::media_streaming().scaled_footprint(0.15),
    ];
    let result = commonality(&workloads, 8, Scale::Demo, 3);
    println!("instruction cache accesses within common temporal streams (Figure 3)");
    for row in &result.rows {
        println!(
            "  {:<18}{:>6.1}%",
            row.workload,
            row.common_fraction * 100.0
        );
    }
    println!("  {:<18}{:>6.1}%", "Average", result.mean() * 100.0);
    println!();
    println!("The paper reports >90% commonality for the full-size workloads;");
    println!("the shared structure is what makes one core's history usable by all.");
}
