//! Cross-version golden pins for the BATS and auto-ARIMA model searches.
//!
//! Every number below was recorded from the serial per-point
//! implementation that predates the lockstep BATS objective and the
//! parallel model-search fan-outs. Both optimisations promise bit-identical
//! selections and forecasts, so any kernel or scheduling change that moves
//! one bit of an AIC, a selected component or a 12-step forecast fails
//! here. The fits run on deterministic catalog series; the multi-period
//! BATS cases mirror the candidate period lists look-back discovery hands
//! the `bats` pipeline on those series.

use autoai_ts_repro::datasets::univariate_catalog;
use autoai_ts_repro::stat_models::arima::SeasonalSpec;
use autoai_ts_repro::stat_models::{auto_arima, Arima, ArimaSpec, Bats, BatsConfig};

fn catalog_series(name: &str) -> Vec<f64> {
    let entry = univariate_catalog()
        .into_iter()
        .find(|e| e.name == name)
        .expect("series is in the catalog");
    entry.generate(1).series(0).to_vec()
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// A pinned BATS fit: AIC bits, the selected components (Box-Cox λ bits
/// when selected, trend, ARMA, kept periods) and the 12-step forecast bits.
struct BatsPin {
    aic: u64,
    lambda: Option<u64>,
    trend: bool,
    arma: bool,
    periods: &'static [usize],
    forecast: [u64; 12],
}

fn assert_bats(case: &str, m: &Bats, pin: &BatsPin) {
    assert_eq!(m.aic.to_bits(), pin.aic, "{case}: AIC {}", m.aic);
    assert_eq!(m.lambda.map(f64::to_bits), pin.lambda, "{case}: Box-Cox λ");
    assert_eq!(m.has_trend, pin.trend, "{case}: trend");
    assert_eq!(m.has_arma, pin.arma, "{case}: ARMA");
    assert_eq!(m.periods, pin.periods, "{case}: periods");
    assert_eq!(bits(&m.forecast(12)), pin.forecast, "{case}: forecast");
}

/// A pinned auto-ARIMA selection: the chosen specification, AICc bits and
/// the 12-step forecast bits.
fn assert_arima(case: &str, m: &Arima, spec: ArimaSpec, aic: u64, forecast: [u64; 12]) {
    assert_eq!(m.spec, spec, "{case}: selected specification");
    assert_eq!(m.aic.to_bits(), aic, "{case}: AICc {}", m.aic);
    assert_eq!(bits(&m.forecast(12)), forecast, "{case}: forecast");
}

const SEASONAL_4: Option<SeasonalSpec> = Some(SeasonalSpec {
    p: 1,
    d: 1,
    q: 1,
    m: 4,
});
const SEASONAL_12: Option<SeasonalSpec> = Some(SeasonalSpec {
    p: 1,
    d: 1,
    q: 1,
    m: 12,
});

#[test]
fn bats_four_period_fit_is_pinned() {
    let y = catalog_series("departures");
    let m = Bats::fit(&y, &BatsConfig::with_periods(vec![30, 12, 6, 7])).unwrap();
    assert_bats(
        "departures [30,12,6,7]",
        &m,
        &BatsPin {
            aic: 0xc08bff0441fa3c19,
            lambda: Some(0x3fe15ae5d4fffbba),
            trend: true,
            arma: true,
            periods: &[30, 12, 6, 7],
            forecast: [
                0x40913597c2f1c210,
                0x408e3218779366b2,
                0x408b424da388df5f,
                0x408a63c352c3d330,
                0x408b99715cebe61a,
                0x408ec35a156bf62f,
                0x4091aaa043dc1c01,
                0x4093cfb74ae960b7,
                0x409551cfa612c270,
                0x4095e8e2c98fb604,
                0x4095715eb2f928fb,
                0x4093e1e1b09ed7f8,
            ],
        },
    );
}

#[test]
fn bats_five_period_fit_with_a_long_period_is_pinned() {
    let y = catalog_series("auscafe");
    let m = Bats::fit(&y, &BatsConfig::with_periods(vec![30, 12, 5, 171, 7])).unwrap();
    assert_bats(
        "auscafe [30,12,5,171,7]",
        &m,
        &BatsPin {
            aic: 0xc06c2568190dd00a,
            lambda: Some(0x3fe7afb6a3a1d873),
            trend: true,
            arma: true,
            periods: &[30, 12, 5, 171, 7],
            forecast: [
                0x4078ae2a22dfce24,
                0x407851466b835414,
                0x407801a1c528d589,
                0x4077e7c4b3917a75,
                0x4078237afe52282c,
                0x4078955385f6b1b3,
                0x407942230404e760,
                0x4079cb9c678b25ba,
                0x407a15a2d8c0720d,
                0x407a2fd326ac21c3,
                0x407a1be82e3d7b97,
                0x4079e233d283dae9,
            ],
        },
    );
}

#[test]
fn bats_seeded_refit_is_pinned() {
    let y = catalog_series("departures");
    let cfg = BatsConfig::with_periods(vec![30, 12, 6, 7]);
    let seed = Bats::fit(&y[..400], &cfg).unwrap();
    assert_bats(
        "departures[..400] cold seed",
        &seed,
        &BatsPin {
            aic: 0xc087c2a40f263619,
            lambda: Some(0x3fe0df674607a5ce),
            trend: true,
            arma: true,
            periods: &[30, 12, 6, 7],
            forecast: [
                0x4091136892f2e615,
                0x408f9ea4294ed752,
                0x408cbb6b02313165,
                0x40893adab48141e7,
                0x4086ca2ee84b1c47,
                0x4085dc59e42a9cb5,
                0x4086d87b5c289b68,
                0x408974f98d8804cc,
                0x408d1e2e63b11ade,
                0x409060609a573434,
                0x4091b39e0b6caad7,
                0x409244677abf832e,
            ],
        },
    );
    let warm = Bats::fit_seeded_with_deadline(&y, &cfg, &seed, None).unwrap();
    assert_bats(
        "departures seeded refit",
        &warm,
        &BatsPin {
            aic: 0xc095340068175dae,
            lambda: Some(0x3fe0df674607a5ce),
            trend: true,
            arma: true,
            periods: &[30, 12, 6, 7],
            forecast: [
                0x40912d596d907e1e,
                0x408e36ea42c573dc,
                0x408b2b66faa458b7,
                0x408a0fb8dc243042,
                0x408b3c1d6b36a63b,
                0x408e5c1f52c8d17b,
                0x40915523f318c197,
                0x409378d7abc31fbe,
                0x4095125384379bf1,
                0x4095ae79b902f4b6,
                0x409526114c4c7e02,
                0x4093a1ee273e61d5,
            ],
        },
    );
}

#[test]
fn auto_arima_quarterly_seasonal_pick_is_pinned() {
    let y = catalog_series("qcement");
    let m = auto_arima(&y, 3, 3, 4).unwrap();
    assert_arima(
        "qcement m=4",
        &m,
        ArimaSpec {
            p: 0,
            d: 0,
            q: 2,
            seasonal: SEASONAL_4,
        },
        0xc0c880190bbe404b,
        [
            0x407647ffffffffff,
            0x4073d0000000000d,
            0x4071580000000000,
            0x4073dffffffffff4,
            0x407667ffffffffff,
            0x4073f00000000006,
            0x4071780000000000,
            0x4073fffffffffff8,
            0x407687ffffffffff,
            0x4074100000000008,
            0x4071980000000000,
            0x40741ffffffffff7,
        ],
    );
}

#[test]
fn auto_arima_monthly_seasonal_picks_are_pinned() {
    let y = catalog_series("auscafe");
    let m = auto_arima(&y, 3, 3, 12).unwrap();
    assert_arima(
        "auscafe m=12",
        &m,
        ArimaSpec {
            p: 3,
            d: 2,
            q: 2,
            seasonal: SEASONAL_12,
        },
        0xc0d6ed197246879b,
        [
            0x40786cccccccccd1,
            0x407819999999999f,
            0x4077e01f84f4549c,
            0x4077d33333333334,
            0x4077f9b91e8dee36,
            0x40784cccccccccd0,
            0x4078b99999999999,
            0x4079266666666666,
            0x4079797a14a544ff,
            0x4079a00000000002,
            0x40799313ae3ede9b,
            0x407959999999999d,
        ],
    );
    let y = catalog_series("AirPassengers");
    let m = auto_arima(&y, 3, 3, 12).unwrap();
    assert_arima(
        "AirPassengers m=12",
        &m,
        ArimaSpec {
            p: 0,
            d: 2,
            q: 2,
            seasonal: SEASONAL_12,
        },
        0xc0ba5906045a2f40,
        [
            0x40783fffffffffed,
            0x407b6bffffffffa1,
            0x407dcded8678e642,
            0x407ec7ffffffff83,
            0x407e1bc8c3ed1238,
            0x407bfbffffffff4a,
            0x4078ffffffffff5e,
            0x4075fbffffffff48,
            0x4073c880c12a9401,
            0x407307ffffffff10,
            0x4073faa583b667bd,
            0x40766bfffffffeca,
        ],
    );
}
