//! Figure 4 — "Analysis vs. simulations for PLC" (Sec. 5.1).
//!
//! Settings from the paper: 1000 source blocks, uniform priority
//! distribution; (a) 5 levels × 200 blocks, (b) 50 levels × 20 blocks.
//! Each series is the expected number of decoded priority levels against
//! the number of processed coded blocks, with the simulation averaged
//! over independent runs (95% CI).

use prlc_analysis::{curves, AnalysisOptions};
use prlc_bench::{sample_points, RunOpts};
use prlc_core::{PriorityDistribution, PriorityProfile, Scheme};
use prlc_gf::Gf256;
use prlc_sim::{fmt_f, simulate_decoding_curve, CurveConfig, Persistence, Table};

fn main() {
    let opts = RunOpts::from_args();
    let configs: &[(&str, usize, usize, usize, usize)] = if opts.quick {
        // name, levels, per-level, max blocks, step
        &[("fig4a", 5, 20, 200, 20), ("fig4b", 20, 5, 200, 20)]
    } else {
        &[("fig4a", 5, 200, 1500, 50), ("fig4b", 50, 20, 1500, 50)]
    };

    for &(name, levels, per_level, max_blocks, step) in configs {
        let profile = PriorityProfile::uniform(levels, per_level).expect("valid profile");
        let dist = PriorityDistribution::uniform(levels);
        let n = profile.total_blocks();

        eprintln!(
            "[{name}] PLC, N={n}, {levels} levels x {per_level}, runs={} ...",
            opts.runs
        );
        let sim = simulate_decoding_curve::<Gf256>(&CurveConfig {
            persistence: Persistence::Coding(Scheme::Plc),
            profile: profile.clone(),
            distribution: dist.clone(),
            max_blocks,
            runs: opts.runs,
            seed: opts.seed,
        });

        let ms = sample_points(max_blocks, step);
        let ana = AnalysisOptions::sharp();
        let mut table = Table::new(["M", "analysis E(X)", "sim mean", "sim ci95"]);
        for &m in &ms {
            let a = curves::expected_levels(Scheme::Plc, &profile, &dist, m, &ana);
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
            &format!("Fig. 4 ({name}): PLC analysis vs simulation — {levels} levels"),
            &table,
        );
    }
}
