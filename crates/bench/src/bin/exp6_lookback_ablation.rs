//! Look-back discovery (§4.1): Table 1 and ablation A2 (DESIGN.md §5).
//!
//! First prints Table 1, the frequency→seasonal-period mapping, and the
//! ordered look-back candidates discovery finds on representative catalog
//! datasets.
//!
//! Then the ablation: does automatic look-back discovery beat the fixed
//! default of 8, and how close does it get to an oracle sweep over
//! look-back values? Protocol: for seasonal catalog datasets, fit a
//! WindowRandomForest pipeline with (a) the discovered look-back, (b) the
//! fixed default 8, (c) every look-back in a sweep grid (oracle = best of
//! sweep on the holdout). Reports SMAPE per dataset and the mean regret vs
//! oracle.

use autoai_bench::evaluate_forecaster;
use autoai_datasets::univariate_catalog;
use autoai_lookback::{discover_univariate, seasonal_periods, LookbackConfig};
use autoai_pipelines::WindowPipeline;
use autoai_tsdata::Frequency;

/// Table 1 plus the §4.1 discovery demonstration.
fn print_table1_and_discovery() {
    println!("Table 1: mapping of data frequency to seasonal periods\n");
    println!("{:<10} {:>40}", "frequency", "candidate seasonal periods");
    for f in [
        Frequency::Years,
        Frequency::Months,
        Frequency::Weeks,
        Frequency::Days,
        Frequency::Hours,
        Frequency::Minutes,
        Frequency::Seconds,
    ] {
        let periods = seasonal_periods(f);
        println!("{:<10} {:>40}", f.code(), format!("{periods:?}"));
    }

    println!("\n§4.1 discovery on catalog datasets (ordered candidates, best first):\n");
    let catalog = univariate_catalog();
    for name in [
        "AirPassengers",
        "elecdaily",
        "Sunspots",
        "Twitter-volume-AAPL",
        "PJME-MW",
    ] {
        let entry = catalog
            .iter()
            .find(|e| e.name == name)
            // tscheck:allow(panic): experiment driver fails fast on a broken setup
            .expect("catalog name");
        let frame = entry.generate(31);
        let lbs = discover_univariate(
            frame.series(0),
            frame.timestamps(),
            &LookbackConfig::default(),
        );
        println!(
            "{:<24} len {:>5}  look-backs {:?}",
            entry.name,
            frame.len(),
            lbs
        );
    }
    println!();
}

fn main() {
    print_table1_and_discovery();

    let quick = std::env::args().any(|a| a == "--quick");
    let mut catalog = univariate_catalog();
    catalog.retain(|e| e.scaled_len() >= 300);
    catalog.truncate(if quick { 5 } else { 15 });
    let horizon = 12;
    let sweep = [4usize, 8, 12, 24, 48, 96];

    println!(
        "Look-back ablation over {} datasets (horizon {horizon})",
        catalog.len()
    );
    println!(
        "\n{:<28} {:>10} {:>12} {:>10} {:>12} {:>10}",
        "dataset", "discovered", "smape(disc)", "smape(8)", "oracle-lb", "smape(orc)"
    );

    let mut regret_disc = Vec::new();
    let mut regret_fixed = Vec::new();
    for entry in &catalog {
        let frame = entry.generate(29);
        let train_len = frame.len() - frame.len() / 5;
        let train = frame.slice(0, train_len);
        let discovered = discover_univariate(
            train.series(0),
            train.timestamps(),
            &LookbackConfig::default(),
        )[0];

        let eval_lb = |lb: usize| -> f64 {
            let p = WindowPipeline::random_forest(lb);
            evaluate_forecaster(Box::new(p), &frame, horizon)
                .smape
                .unwrap_or(f64::INFINITY)
        };

        let disc_smape = eval_lb(discovered);
        let fixed_smape = eval_lb(8);
        let (oracle_lb, oracle_smape) = sweep
            .iter()
            .map(|&lb| (lb, eval_lb(lb)))
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .unwrap_or((8, fixed_smape));

        println!(
            "{:<28} {:>10} {:>12.2} {:>10.2} {:>12} {:>10.2}",
            entry.name, discovered, disc_smape, fixed_smape, oracle_lb, oracle_smape
        );
        if oracle_smape.is_finite() {
            regret_disc.push(disc_smape - oracle_smape);
            regret_fixed.push(fixed_smape - oracle_smape);
        }
    }

    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    println!("\n== summary ==");
    println!(
        "mean SMAPE regret vs oracle — discovered: {:.2}",
        mean(&regret_disc)
    );
    println!(
        "mean SMAPE regret vs oracle — fixed 8   : {:.2}",
        mean(&regret_fixed)
    );
    println!(
        "shape check: discovered look-backs should have no more regret than the fixed default."
    );
}
