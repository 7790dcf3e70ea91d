//! The "Golden Path" (paper §3.2): sweep the anonymization strength and
//! watch the information loss for the *intended* analysis stay low while
//! the loss for an *unintended* profiling query grows.
//!
//! Run with `cargo run --example policy_tradeoff`.

use paradise::anon::{
    direct_distance_ratio, kl_divergence, mondrian, slice, SlicingConfig,
};
use paradise::prelude::*;

fn main() {
    // positions of 6 persons over 400 ticks
    let config = SmartRoomConfig { persons: 6, switch_probability: 0.01, ..Default::default() };
    let mut sim = SmartRoomSim::with_config(5, config);
    let table = sim.ubisense_tagged(400);
    println!("raw table: {} rows × {} columns", table.len(), table.schema.len());

    // columns: tag(0) x(1) y(2) z(3) t(4) valid(5)
    let qids = vec![1usize, 2, 4];

    println!("\nk-anonymity sweep (Mondrian on x, y, t):");
    println!("{:>4} {:>10} {:>10} {:>12} {:>12}", "k", "DD-ratio", "KL(all)", "KL(intended)", "KL(profiling)");
    for k in [2usize, 5, 10, 25, 50, 100] {
        let anonymized = mondrian(&table, &qids, k).expect("mondrian");
        let dd = direct_distance_ratio(&table, &anonymized).unwrap();
        let kl_all = kl_divergence(&table, &anonymized, &[1, 2, 4]).unwrap();
        // intended analysis: movement height profile → z histogram
        let kl_intended = kl_divergence(&table, &anonymized, &[3]).unwrap();
        // unintended profiling: who was where → (tag, x, y)
        let kl_profiling = kl_divergence(&table, &anonymized, &[0, 1, 2]).unwrap();
        println!(
            "{k:>4} {dd:>10.4} {kl_all:>10.4} {kl_intended:>12.4} {kl_profiling:>12.4}"
        );
    }

    println!("\nslicing sweep (bucket size; groups = {{tag}}, {{x,y,z}}, {{t,valid}}):");
    println!("{:>7} {:>10} {:>14} {:>14}", "bucket", "DD-ratio", "KL(joint x,y)", "KL(tag link)");
    for bucket in [2usize, 4, 8, 16, 32] {
        let config = SlicingConfig {
            column_groups: vec![vec![0], vec![1, 2, 3], vec![4, 5]],
            bucket_size: bucket,
            seed: 11,
        };
        let result = slice(&table, &config).expect("slice");
        let dd = direct_distance_ratio(&table, &result.frame).unwrap();
        // within-group joint distribution is preserved exactly:
        let kl_joint = kl_divergence(&table, &result.frame, &[1, 2]).unwrap();
        // cross-group linkage (tag ↔ position) is destroyed:
        let kl_link = kl_divergence(&table, &result.frame, &[0, 1]).unwrap();
        println!("{bucket:>7} {dd:>10.4} {kl_joint:>14.6} {kl_link:>14.4}");
    }

    println!(
        "\nreading: k-anonymity leaves the intended z-distribution almost \
         untouched while the (tag,x,y) profile degrades with k;\n\
         slicing keeps every per-group distribution exact (KL≈0) and \
         destroys only the linkage — the paper's column-wise option."
    );
}
