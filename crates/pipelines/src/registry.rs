//! The pipeline registry: pre-composed pipelines the zero-conf system
//! instantiates (§4: "Currently, pre-composed pipelines are instantiated but
//! the system can also dynamically generate new pipelines").

use crate::stat_pipelines::{
    ArPipeline, ArimaPipeline, BatsPipeline, GarchPipeline, HoltWintersPipeline,
    SeasonalNaivePipeline, ThetaPipeline, ZeroModelPipeline,
};
use crate::traits::Forecaster;
use crate::window_pipeline::WindowPipeline;

/// Everything a pipeline needs to be instantiated: the discovered look-back
/// window, the user's prediction horizon, and the discovered seasonal
/// periods (for BATS / Holt-Winters / ARIMA).
#[derive(Debug, Clone)]
pub struct PipelineContext {
    /// Look-back window length (from §4.1 discovery or user input).
    pub lookback: usize,
    /// Prediction horizon.
    pub horizon: usize,
    /// Candidate seasonal periods, most preferred first.
    pub seasonal_periods: Vec<usize>,
}

impl PipelineContext {
    /// Context with the paper's defaults (look-back 8).
    pub fn new(lookback: usize, horizon: usize, seasonal_periods: Vec<usize>) -> Self {
        Self {
            lookback: lookback.max(2),
            horizon: horizon.max(1),
            seasonal_periods,
        }
    }

    /// The preferred seasonal period (0 when none was discovered).
    pub fn primary_period(&self) -> usize {
        self.seasonal_periods.first().copied().unwrap_or(0)
    }
}

/// Display names of the 10 default pipelines, ordered as in Table 6 /
/// Figure 15 (average-performance order).
pub const PIPELINE_NAMES: [&str; 10] = [
    "FlattenAutoEnsembler-log",
    "WindowRandomForest",
    "WindowSVR",
    "MT2RForecaster",
    "bats",
    "DifferenceFlattenAutoEnsembler-log",
    "LocalizedFlattenAutoEnsembler",
    "Arima",
    "HW-Additive",
    "HW-Multiplicative",
];

/// Instantiate the paper's 10 default pipelines for a context.
pub fn default_pipelines(ctx: &PipelineContext) -> Vec<Box<dyn Forecaster>> {
    PIPELINE_NAMES
        .iter()
        .filter_map(|name| pipeline_by_name(name, ctx))
        .collect()
}

/// Instantiate one pipeline by display name. Returns `None` for unknown
/// names. Besides the 10 defaults this registers the extension pipelines
/// (`ZeroModel`, `Theta`, `NeuralWindow`) used in the ~80-pipeline scaling
/// experiments.
pub fn pipeline_by_name(name: &str, ctx: &PipelineContext) -> Option<Box<dyn Forecaster>> {
    let lb = ctx.lookback;
    let h = ctx.horizon;
    let m = ctx.primary_period();
    let p: Box<dyn Forecaster> = match name {
        "FlattenAutoEnsembler-log" => Box::new(WindowPipeline::flatten(lb, h, true)),
        "FlattenAutoEnsembler" => Box::new(WindowPipeline::flatten(lb, h, false)),
        "WindowRandomForest" => Box::new(WindowPipeline::random_forest(lb)),
        "WindowSVR" => Box::new(WindowPipeline::svr(lb)),
        "MT2RForecaster" => Box::new(WindowPipeline::mt2r(lb, h)),
        "bats" => Box::new(BatsPipeline::new(ctx.seasonal_periods.clone())),
        "DifferenceFlattenAutoEnsembler-log" => {
            Box::new(WindowPipeline::difference_flatten(lb, h, true))
        }
        "DifferenceFlattenAutoEnsembler" => {
            Box::new(WindowPipeline::difference_flatten(lb, h, false))
        }
        "LocalizedFlattenAutoEnsembler" => Box::new(WindowPipeline::localized_flatten(lb, h)),
        "Arima" => Box::new(ArimaPipeline::new(m)),
        "HW-Additive" => Box::new(HoltWintersPipeline::additive(m)),
        "HW-Multiplicative" => Box::new(HoltWintersPipeline::multiplicative(m)),
        "ZeroModel" => Box::new(ZeroModelPipeline::new()),
        "Theta" => Box::new(ThetaPipeline::new()),
        "NeuralWindow" => Box::new(WindowPipeline::neural(lb, h)),
        "AR" => Box::new(ArPipeline::new(lb.clamp(1, 8))),
        "Garch" => Box::new(GarchPipeline::new()),
        "SeasonalNaive" => Box::new(SeasonalNaivePipeline::new(if m >= 2 { m } else { lb })),
        _ => return None,
    };
    Some(p)
}

/// An extended registry exercising the paper's "about 80 different
/// pipelines" scaling claim: the defaults plus parameter variations.
pub fn extended_pipelines(ctx: &PipelineContext) -> Vec<Box<dyn Forecaster>> {
    let mut out = default_pipelines(ctx);
    out.push(Box::new(ZeroModelPipeline::new()));
    out.push(Box::new(ThetaPipeline::new()));
    out.push(Box::new(WindowPipeline::neural(ctx.lookback, ctx.horizon)));
    out.push(Box::new(ArPipeline::new(ctx.lookback.clamp(1, 8))));
    out.push(Box::new(GarchPipeline::new()));
    out.push(Box::new(SeasonalNaivePipeline::new(
        ctx.primary_period().max(ctx.lookback),
    )));
    // look-back variations of the window pipelines
    for factor in [2usize, 4] {
        let lb = (ctx.lookback * factor).max(4);
        out.push(Box::new(WindowPipeline::random_forest(lb)));
        out.push(Box::new(WindowPipeline::svr(lb)));
        out.push(Box::new(WindowPipeline::flatten(lb, ctx.horizon, true)));
        out.push(Box::new(WindowPipeline::flatten(lb, ctx.horizon, false)));
        out.push(Box::new(WindowPipeline::difference_flatten(
            lb,
            ctx.horizon,
            false,
        )));
        out.push(Box::new(WindowPipeline::localized_flatten(lb, ctx.horizon)));
        out.push(Box::new(WindowPipeline::mt2r(lb, ctx.horizon)));
    }
    // no-log variants at the base look-back
    out.push(Box::new(WindowPipeline::flatten(
        ctx.lookback,
        ctx.horizon,
        false,
    )));
    out.push(Box::new(WindowPipeline::difference_flatten(
        ctx.lookback,
        ctx.horizon,
        false,
    )));
    // seasonal-period variations for the statistical family
    for &p in ctx.seasonal_periods.iter().skip(1).take(2) {
        out.push(Box::new(HoltWintersPipeline::additive(p)));
        out.push(Box::new(HoltWintersPipeline::multiplicative(p)));
        out.push(Box::new(BatsPipeline::new(vec![p])));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_registry_has_ten_pipelines() {
        let ctx = PipelineContext::new(8, 12, vec![12]);
        let ps = default_pipelines(&ctx);
        assert_eq!(ps.len(), 10);
        let names: Vec<String> = ps.iter().map(|p| p.name()).collect();
        for expected in PIPELINE_NAMES {
            assert!(names.contains(&expected.to_string()), "missing {expected}");
        }
    }

    #[test]
    fn unknown_name_returns_none() {
        let ctx = PipelineContext::new(8, 12, vec![]);
        assert!(pipeline_by_name("NotARealPipeline", &ctx).is_none());
    }

    #[test]
    fn extension_pipelines_resolvable() {
        let ctx = PipelineContext::new(8, 12, vec![7]);
        for name in [
            "ZeroModel",
            "Theta",
            "NeuralWindow",
            "FlattenAutoEnsembler",
            "AR",
            "Garch",
            "SeasonalNaive",
        ] {
            assert!(pipeline_by_name(name, &ctx).is_some(), "missing {name}");
        }
    }

    #[test]
    fn extended_registry_scales_out() {
        let ctx = PipelineContext::new(8, 12, vec![12, 7, 30]);
        let ps = extended_pipelines(&ctx);
        assert!(
            ps.len() >= 30,
            "extended registry has {} pipelines",
            ps.len()
        );
    }

    #[test]
    fn context_clamps_degenerate_values() {
        let ctx = PipelineContext::new(0, 0, vec![]);
        assert!(ctx.lookback >= 2);
        assert!(ctx.horizon >= 1);
        assert_eq!(ctx.primary_period(), 0);
    }
}
