//! Figure 5 — "Analysis vs. simulations for SLC" (Sec. 5.1).
//!
//! Same settings as Fig. 4 (1000 source blocks, uniform distribution,
//! 5 × 200 and 50 × 20 levels) with the stacked code. The paper notes
//! "the analysis agrees with experiments very well for SLC" — the SLC
//! analysis involves no approximation.

use prlc_analysis::{curves, AnalysisOptions};
use prlc_bench::{sample_points, RunOpts};
use prlc_core::{PriorityDistribution, PriorityProfile, Scheme};
use prlc_gf::Gf256;
use prlc_sim::{fmt_f, simulate_decoding_curve, CurveConfig, Persistence, Table};

fn main() {
    let opts = RunOpts::from_args();
    let configs: &[(&str, usize, usize, usize, usize)] = if opts.quick {
        &[("fig5a", 5, 20, 300, 25), ("fig5b", 20, 5, 300, 25)]
    } else {
        // SLC needs more blocks than PLC to saturate (per-level coupon
        // effects), so extend the x-axis past Fig. 4's.
        &[("fig5a", 5, 200, 2000, 50), ("fig5b", 50, 20, 3000, 100)]
    };

    for &(name, levels, per_level, max_blocks, step) in configs {
        let profile = PriorityProfile::uniform(levels, per_level).expect("valid profile");
        let dist = PriorityDistribution::uniform(levels);

        eprintln!(
            "[{name}] SLC, N={}, {levels} levels x {per_level}, runs={} ...",
            profile.total_blocks(),
            opts.runs
        );
        let sim = simulate_decoding_curve::<Gf256>(&CurveConfig {
            persistence: Persistence::Coding(Scheme::Slc),
            profile: profile.clone(),
            distribution: dist.clone(),
            max_blocks,
            runs: opts.runs,
            seed: opts.seed.wrapping_add(5),
        });

        let ms = sample_points(max_blocks, step);
        let ana = AnalysisOptions::sharp();
        let mut table = Table::new(["M", "analysis E(X)", "sim mean", "sim ci95"]);
        for &m in &ms {
            let a = curves::expected_levels(Scheme::Slc, &profile, &dist, m, &ana);
            let s = sim.summaries[m];
            table.push_row([
                m.to_string(),
                fmt_f(a, 4),
                fmt_f(s.mean, 4),
                fmt_f(s.ci95, 4),
            ]);
        }
        opts.emit(
            name,
            &format!("Fig. 5 ({name}): SLC analysis vs simulation — {levels} levels"),
            &table,
        );
    }
}
