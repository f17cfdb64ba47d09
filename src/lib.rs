//! Umbrella crate for the AutoAI-TS reproduction: re-exports every
//! sub-crate so examples and integration tests have a single import root.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub use autoai_chaos as chaos;
pub use autoai_datasets as datasets;
pub use autoai_linalg as linalg;
pub use autoai_lookback as lookback;
pub use autoai_ml_models as ml_models;
pub use autoai_neural as neural;
pub use autoai_pipelines as pipelines;
pub use autoai_sota as sota;
pub use autoai_stat_models as stat_models;
pub use autoai_tdaub as tdaub;
pub use autoai_transforms as transforms;
pub use autoai_ts as core_ts;
pub use autoai_tsdata as tsdata;
