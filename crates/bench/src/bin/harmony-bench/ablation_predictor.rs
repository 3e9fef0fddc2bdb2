//! Ablation: predictor choice (ARIMA vs simple baselines).
//!
//! Evaluates one-step-ahead forecasting accuracy on per-priority-group
//! arrival-rate series extracted from the trace — the series the
//! HARMONY prediction module actually consumes.

use harmony_bench::{analysis_trace, fmt, section, table, Scale};
use harmony_forecast::{
    rolling_evaluate, Arima, Ewma, Forecaster, Holt, HoltWinters, MovingAverage, Naive,
};
use harmony_model::{PriorityGroup, SimDuration};
use harmony_trace::stats::arrival_rate_series;

pub fn run() {
    let trace = analysis_trace(Scale::from_env());
    let series = arrival_rate_series(&trace, SimDuration::from_mins(30.0));

    let arima = Arima::new(2, 0, 1).expect("order").with_mean();
    let ma = MovingAverage::new(6).expect("window");
    let ewma = Ewma::new(0.3).expect("alpha");
    let holt = Holt::new(0.4, 0.2).expect("factors");
    // 48 half-hour samples per day: the diurnal period of the series.
    let hw = HoltWinters::new(0.3, 0.05, 0.3, 48).expect("factors");
    let predictors: Vec<&dyn Forecaster> = vec![&Naive, &ma, &ewma, &holt, &hw, &arima];

    section("Ablation: one-step forecasting error per predictor (tasks/s)");
    let mut rows = Vec::new();
    for group in PriorityGroup::ALL {
        let s = &series[group.index()];
        // Warm-up covers Holt-Winters' two-season minimum (96 half-hour
        // samples) when the series is long enough for it.
        let warmup = (s.len() / 4).max(12).max(97).min(s.len().saturating_sub(4));
        for p in &predictors {
            match rolling_evaluate(*p, s, warmup) {
                Ok((mae, rmse)) => rows.push(vec![
                    group.to_string(),
                    p.name().to_owned(),
                    fmt(mae),
                    fmt(rmse),
                ]),
                Err(e) => rows.push(vec![
                    group.to_string(),
                    p.name().to_owned(),
                    format!("error: {e}"),
                    String::new(),
                ]),
            }
        }
    }
    table(&["group", "predictor", "mae", "rmse"], &rows);
}
