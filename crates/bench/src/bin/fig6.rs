//! Figure 6 — "SLC vs. PLC" (Sec. 5.2).
//!
//! Settings from the paper: 1000 source blocks; (a) 10 levels × 100
//! blocks, (b) 50 levels × 20 blocks; uniform priority distribution.
//! Expected observations: the gap is modest at 10 levels and significant
//! at 50; the level count barely affects PLC but strongly degrades SLC
//! (coupon-collector effect as levels shrink).

use prlc_bench::{sample_points, RunOpts};
use prlc_core::{PriorityDistribution, PriorityProfile, Scheme};
use prlc_gf::Gf256;
use prlc_sim::{fmt_f, simulate_decoding_curve, CurveConfig, Persistence, Table};

fn main() {
    let opts = RunOpts::from_args();
    let configs: &[(&str, usize, usize, usize, usize)] = if opts.quick {
        &[("fig6a", 5, 20, 300, 25), ("fig6b", 20, 5, 300, 25)]
    } else {
        &[("fig6a", 10, 100, 2500, 100), ("fig6b", 50, 20, 2500, 100)]
    };

    for &(name, levels, per_level, max_blocks, step) in configs {
        let profile = PriorityProfile::uniform(levels, per_level).expect("valid profile");
        let dist = PriorityDistribution::uniform(levels);

        eprintln!(
            "[{name}] SLC vs PLC, {levels} levels x {per_level}, runs={} ...",
            opts.runs
        );
        let mut curves = Vec::new();
        for scheme in [Scheme::Slc, Scheme::Plc] {
            curves.push(simulate_decoding_curve::<Gf256>(&CurveConfig {
                persistence: Persistence::Coding(scheme),
                profile: profile.clone(),
                distribution: dist.clone(),
                max_blocks,
                runs: opts.runs,
                seed: opts.seed.wrapping_add(6),
            }));
        }

        let ms = sample_points(max_blocks, step);
        let mut table = Table::new(["M", "SLC mean", "SLC ci95", "PLC mean", "PLC ci95"]);
        for &m in &ms {
            let slc = curves[0].summaries[m];
            let plc = curves[1].summaries[m];
            table.push_row([
                m.to_string(),
                fmt_f(slc.mean, 4),
                fmt_f(slc.ci95, 4),
                fmt_f(plc.mean, 4),
                fmt_f(plc.ci95, 4),
            ]);
        }
        opts.emit(
            name,
            &format!("Fig. 6 ({name}): SLC vs PLC — {levels} levels"),
            &table,
        );
    }
}
