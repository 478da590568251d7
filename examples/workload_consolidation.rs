//! Workload consolidation (Figure 10, scaled down): two workloads share the
//! CMP, each with its own history generator core and its own LLC-embedded
//! history buffer.
//!
//! ```text
//! cargo run --release --example workload_consolidation
//! ```

use shift::sim::experiments::ConsolidationPlan;
use shift::sim::{PrefetcherConfig, RunMatrix};
use shift::trace::{presets, Scale};

fn main() {
    let workloads = vec![
        presets::oltp_oracle()
            .scaled_footprint(0.15)
            .with_region_index(0),
        presets::web_search()
            .scaled_footprint(0.15)
            .with_region_index(1),
    ];
    let mut matrix = RunMatrix::new();
    let plan = ConsolidationPlan::plan(
        &mut matrix,
        &workloads,
        &[
            PrefetcherConfig::next_line(),
            PrefetcherConfig::pif_32k(),
            PrefetcherConfig::shift_virtualized(),
        ],
        8,
        Scale::Demo,
        11,
    );
    let result = plan.collect(&matrix.execute());

    println!("speedup under workload consolidation (Figure 10, scaled down)");
    println!("mix: {}", result.workloads.join(" + "));
    for (label, speedup) in &result.speedups {
        println!("  {label:<14}{speedup:>8.3}x");
    }
    println!();
    println!("Each workload keeps its own shared history in the LLC; SHIFT's benefit");
    println!("is preserved under consolidation, as §5.5 of the paper reports.");
}
