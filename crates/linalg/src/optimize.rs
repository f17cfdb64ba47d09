//! Derivative-free optimizers.
//!
//! Statistical model fitting in AutoAI-TS (Holt–Winters smoothing constants,
//! ARMA coefficients via conditional sum of squares, BATS smoothing
//! constants, GARCH variance parameters) minimizes non-convex objectives
//! without analytic gradients. [`nelder_mead`] is the one simplex search
//! every model fit runs through, with a golden-section line search for 1-D
//! problems such as Box-Cox lambda selection.
//!
//! The search is lazy: each iteration evaluates the reflection, then the
//! expansion or the contraction only when the decision tree asks for it,
//! one point per objective call. Evaluating all three candidates up front,
//! so that an objective could amortize setup across them, costs about three
//! evaluations per iteration where the search uses one or two. An objective
//! that reuses scratch between calls keeps it in its `FnMut` state instead
//! (BATS's smoothing recursion and ARIMA's CSS recursion do).
//!
//! The search's own iterations allocate nothing either: the centroid and
//! the reflection, expansion and contraction points live in buffers sized
//! once per search, and an accepted point is copied into the worst vertex.
//! The arithmetic, the comparisons and the stable sort are those of the
//! textbook loop, so argmins, minima and objective call counts keep their
//! bits (`pinned_searches_keep_their_bits_and_call_counts`).

/// Options controlling the Nelder–Mead simplex search.
#[derive(Debug, Clone)]
pub struct NelderMeadOptions {
    /// Maximum number of objective evaluations. The search stops at the
    /// first iteration that starts with this many evaluations spent, so it
    /// can overshoot by at most one shrink, i.e. the parameter dimension.
    pub max_evals: usize,
    /// Convergence tolerance on the simplex spread of objective values.
    pub f_tol: f64,
    /// Initial simplex step relative to each coordinate (absolute fallback 0.1).
    pub initial_step: f64,
    /// Cooperative wall-clock deadline: when set, the search stops at the
    /// first iteration past this instant and returns the best vertex found
    /// so far. This is how the per-pipeline *soft* time budget reaches the
    /// iterative model fits — best-so-far parameters instead of a hang.
    pub deadline: Option<std::time::Instant>,
}

impl Default for NelderMeadOptions {
    fn default() -> Self {
        Self {
            max_evals: 2000,
            f_tol: 1e-9,
            initial_step: 0.1,
            deadline: None,
        }
    }
}

/// Minimize `f` starting from `x0` with the Nelder–Mead simplex method.
///
/// Returns `(argmin, min_value, timed_out)`. The objective may return
/// non-finite values to signal infeasible points; they are treated as
/// `+inf`. It is called once per evaluated point, and every call counts
/// against [`NelderMeadOptions::max_evals`]. `timed_out` reports that the
/// search exited early because [`NelderMeadOptions::deadline`] passed; the
/// argmin is then the best simplex vertex found before the deadline
/// (best-so-far semantics).
pub fn nelder_mead(
    mut f: impl FnMut(&[f64]) -> f64,
    x0: &[f64],
    opts: &NelderMeadOptions,
) -> (Vec<f64>, f64, bool) {
    let mut eval = |x: &[f64]| -> f64 {
        let v = f(x);
        if v.is_finite() {
            v
        } else {
            f64::INFINITY
        }
    };
    let n = x0.len();
    if n == 0 {
        return (Vec::new(), eval(x0), false);
    }
    // standard coefficients
    let (alpha, gamma, rho, sigma) = (1.0, 2.0, 0.5, 0.5);

    // (vertex, objective value) pairs; after the sort below, best first
    let steps = x0.iter().enumerate().map(|(i, &xi)| {
        let mut p = x0.to_vec();
        if let Some(v) = p.get_mut(i) {
            *v += if xi.abs() > 1e-8 {
                xi.abs() * opts.initial_step
            } else {
                opts.initial_step
            };
        }
        p
    });
    let mut simplex: Vec<(Vec<f64>, f64)> = std::iter::once(x0.to_vec())
        .chain(steps)
        .map(|p| {
            let v = eval(&p);
            (p, v)
        })
        .collect();
    let mut evals = simplex.len();
    let mut timed_out = false;
    // the centroid and the candidate points, sized once per search
    let mut centroid = vec![0.0; n];
    let mut reflect = vec![0.0; n];
    let mut expand = vec![0.0; n];
    let mut contract = vec![0.0; n];

    while evals < opts.max_evals {
        if let Some(deadline) = opts.deadline {
            if std::time::Instant::now() >= deadline {
                timed_out = true;
                break;
            }
        }
        // order simplex by objective (stable, so ties keep vertex order)
        simplex.sort_by(|a, b| a.1.total_cmp(&b.1));
        let (Some((x_best, f_best)), Some(&(_, f_next)), Some((x_worst, f_worst))) =
            (simplex.first(), simplex.iter().rev().nth(1), simplex.last())
        else {
            break; // unreachable: n >= 1, so the simplex has >= 2 vertices
        };

        // converge only when both objective spread AND simplex extent are
        // small: equal f-values alone can straddle a minimum symmetrically.
        if (f_worst - f_best).abs() < opts.f_tol && f_best.is_finite() {
            let mut x_spread = 0.0f64;
            for (p, _) in simplex.iter().skip(1) {
                for (a, b) in p.iter().zip(x_best) {
                    x_spread = x_spread.max((a - b).abs());
                }
            }
            if x_spread < 1e-7 {
                break;
            }
        }
        let (f_best, f_worst) = (*f_best, *f_worst);

        // centroid of all but worst
        centroid.fill(0.0);
        for (p, _) in simplex.iter().take(n) {
            for (c, &x) in centroid.iter_mut().zip(p) {
                *c += x / n as f64;
            }
        }

        for ((r, &c), &w) in reflect.iter_mut().zip(&centroid).zip(x_worst) {
            *r = c + alpha * (c - w);
        }
        let fr = eval(&reflect);
        evals += 1;

        let replacement = if fr < f_best {
            // expansion
            for ((e, &c), &w) in expand.iter_mut().zip(&centroid).zip(x_worst) {
                *e = c + gamma * (c - w);
            }
            let fe = eval(&expand);
            evals += 1;
            Some(if fe < fr {
                (&expand, fe)
            } else {
                (&reflect, fr)
            })
        } else if fr < f_next {
            Some((&reflect, fr))
        } else {
            // contraction
            for ((k, &c), &w) in contract.iter_mut().zip(&centroid).zip(x_worst) {
                *k = c + rho * (w - c);
            }
            let fc = eval(&contract);
            evals += 1;
            (fc < f_worst).then_some((&contract, fc))
        };
        match replacement {
            Some((point, v)) => {
                if let Some((worst, f_worst)) = simplex.last_mut() {
                    for (x, &p) in worst.iter_mut().zip(point.iter()) {
                        *x = p;
                    }
                    *f_worst = v;
                }
            }
            None => {
                // shrink toward best
                if let Some(((best, _), rest)) = simplex.split_first_mut() {
                    for (p, v) in rest {
                        for (x, &b) in p.iter_mut().zip(best.iter()) {
                            *x = b + sigma * (*x - b);
                        }
                        *v = eval(p);
                        evals += 1;
                    }
                }
            }
        }
    }

    // the first vertex with the lowest value (the simplex need not be
    // sorted after the last replacement)
    let (x, v) = simplex
        .into_iter()
        .reduce(|best, cand| if cand.1 < best.1 { cand } else { best })
        .unwrap_or_default();
    (x, v, timed_out)
}

/// Golden-section search for the minimum of a unimodal 1-D function on `[a, b]`.
pub fn golden_section_min(f: impl Fn(f64) -> f64, mut a: f64, mut b: f64, tol: f64) -> f64 {
    let inv_phi = (5f64.sqrt() - 1.0) / 2.0;
    let mut c = b - inv_phi * (b - a);
    let mut d = a + inv_phi * (b - a);
    let mut fc = f(c);
    let mut fd = f(d);
    for _ in 0..200 {
        if (b - a).abs() < tol {
            break;
        }
        if fc < fd {
            b = d;
            d = c;
            fd = fc;
            c = b - inv_phi * (b - a);
            fc = f(c);
        } else {
            a = c;
            c = d;
            fc = fd;
            d = a + inv_phi * (b - a);
            fd = f(d);
        }
    }
    (a + b) / 2.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nelder_mead_minimizes_quadratic() {
        let f = |x: &[f64]| (x[0] - 3.0).powi(2) + (x[1] + 1.0).powi(2);
        let (x, v, timed_out) = nelder_mead(f, &[0.0, 0.0], &NelderMeadOptions::default());
        assert!((x[0] - 3.0).abs() < 1e-3, "{x:?}");
        assert!((x[1] + 1.0).abs() < 1e-3, "{x:?}");
        assert!(v < 1e-5);
        assert!(!timed_out);
    }

    #[test]
    fn nelder_mead_minimizes_rosenbrock() {
        let f = |x: &[f64]| {
            let a = 1.0 - x[0];
            let b = x[1] - x[0] * x[0];
            a * a + 100.0 * b * b
        };
        let opts = NelderMeadOptions {
            max_evals: 10_000,
            ..Default::default()
        };
        let (x, _, _) = nelder_mead(f, &[-1.2, 1.0], &opts);
        assert!((x[0] - 1.0).abs() < 0.05, "{x:?}");
        assert!((x[1] - 1.0).abs() < 0.05, "{x:?}");
    }

    #[test]
    fn nelder_mead_handles_infeasible_regions() {
        // objective is infinite for x < 0; minimum at x = 0.5
        let f = |x: &[f64]| {
            if x[0] < 0.0 {
                f64::INFINITY
            } else {
                (x[0] - 0.5).powi(2)
            }
        };
        let (x, _, _) = nelder_mead(f, &[2.0], &NelderMeadOptions::default());
        assert!((x[0] - 0.5).abs() < 1e-3, "{x:?}");
    }

    #[test]
    fn nelder_mead_zero_dimensional() {
        let (x, v, timed_out) = nelder_mead(|_| 7.0, &[], &NelderMeadOptions::default());
        assert!(x.is_empty());
        assert_eq!(v, 7.0);
        assert!(!timed_out);
    }

    #[test]
    fn objective_calls_equal_the_charged_budget() {
        // Rosenbrock from a bad start never converges within these caps,
        // so every run ends on the budget. The search charges each call
        // it makes and stops once the charge reaches `max_evals`, so the
        // calls land in [max_evals, max_evals + dim]: a shrink, the only
        // multi-point step, charges `dim`. Evaluating candidates the
        // decision tree does not use would overshoot this bound.
        let dim = 3;
        for max_evals in (10..=400).step_by(13) {
            let mut calls = 0usize;
            let f = |x: &[f64]| {
                calls += 1;
                x.windows(2)
                    .map(|w| {
                        let a = 1.0 - w[0];
                        let b = w[1] - w[0] * w[0];
                        a * a + 100.0 * b * b
                    })
                    .sum::<f64>()
            };
            let opts = NelderMeadOptions {
                max_evals,
                f_tol: 0.0,
                ..Default::default()
            };
            let (x, v, timed_out) = nelder_mead(f, &[-1.2, 1.0, -0.5], &opts);
            assert_eq!(x.len(), dim);
            assert!(v.is_finite() && !timed_out);
            assert!(
                (max_evals..=max_evals + dim).contains(&calls),
                "max_evals {max_evals}: {calls} objective calls"
            );
        }
    }

    #[test]
    fn expired_deadline_returns_best_so_far_with_flag() {
        let f = |x: &[f64]| (x[0] - 3.0).powi(2);
        let opts = NelderMeadOptions {
            deadline: Some(std::time::Instant::now()),
            ..Default::default()
        };
        let (x, v, timed_out) = nelder_mead(f, &[0.0], &opts);
        assert!(timed_out);
        assert_eq!(x.len(), 1);
        assert!(v.is_finite());
    }

    #[test]
    fn far_deadline_does_not_change_the_result() {
        let f = |x: &[f64]| (x[0] - 3.0).powi(2) + (x[1] + 1.0).powi(2);
        let far = NelderMeadOptions {
            deadline: Some(std::time::Instant::now() + std::time::Duration::from_secs(3600)),
            ..Default::default()
        };
        let none = NelderMeadOptions {
            deadline: None,
            ..Default::default()
        };
        let (bounded, bounded_v, timed_out) = nelder_mead(f, &[0.0, 0.0], &far);
        let (unbounded, unbounded_v, _) = nelder_mead(f, &[0.0, 0.0], &none);
        assert!(!timed_out);
        assert_eq!(bounded, unbounded);
        assert_eq!(bounded_v.to_bits(), unbounded_v.to_bits());
    }

    /// One pinned search: argmin bits, min bits, objective calls and the
    /// timeout flag.
    fn pinned(
        mut f: impl FnMut(&[f64]) -> f64,
        x0: &[f64],
        opts: &NelderMeadOptions,
    ) -> (Vec<u64>, u64, usize, bool) {
        let mut calls = 0usize;
        let (x, v, timed_out) = nelder_mead(
            |p| {
                calls += 1;
                f(p)
            },
            x0,
            opts,
        );
        let bits = x.iter().map(|c| c.to_bits()).collect();
        (bits, v.to_bits(), calls, timed_out)
    }

    /// The searches below, run on the simplex loop as it stood before its
    /// candidate buffers were preallocated: every bit of the argmin and the
    /// min and the exact objective call count. A buffer change that moves
    /// an operation, a comparison or the vertex order moves one of them.
    #[test]
    fn pinned_searches_keep_their_bits_and_call_counts() {
        let quadratic = |x: &[f64]| (x[0] - 3.0).powi(2) + (x[1] + 1.0).powi(2);
        let rosenbrock = |x: &[f64]| {
            let a = 1.0 - x[0];
            let b = x[1] - x[0] * x[0];
            a * a + 100.0 * b * b
        };
        // infinite right of x0 = 0.04 with the minimum beyond that wall:
        // the start simplex has an infinite vertex whose contraction is
        // infinite too, so the search shrinks, and later reflections land
        // past the wall and force contractions along it
        let walled = |x: &[f64]| {
            if x[0] > 0.04 {
                f64::INFINITY
            } else {
                (x[0] - 2.0).powi(2) + (x[1] - 1.5).powi(2)
            }
        };
        let one_d = |x: &[f64]| (x[0] - 0.7).powi(2) + 0.3 * (x[0] - 0.7).powi(4);
        let defaults = NelderMeadOptions::default();
        let long = NelderMeadOptions {
            max_evals: 10_000,
            ..Default::default()
        };
        let expired = NelderMeadOptions {
            deadline: Some(std::time::Instant::now()),
            ..Default::default()
        };
        let cases = [
            (
                "quadratic",
                pinned(quadratic, &[0.0, 0.0], &defaults),
                (
                    vec![4613937818242519112, 13830554455384737594],
                    4382059056040306642,
                    139,
                    false,
                ),
            ),
            (
                "rosenbrock",
                pinned(rosenbrock, &[-1.2, 1.0], &long),
                (
                    vec![4607182418860334896, 4607182418918369662],
                    4372306602498216712,
                    236,
                    false,
                ),
            ),
            (
                "walled",
                pinned(walled, &[0.0, 0.0], &defaults),
                (
                    vec![4585925428558828642, 4609434218700773486],
                    4615832932964270659,
                    276,
                    false,
                ),
            ),
            (
                "one-d",
                pinned(one_d, &[4.0], &defaults),
                (vec![4604480259023595084], 4171775814200721408, 56, false),
            ),
            (
                // only the start simplex is evaluated
                "expired",
                pinned(quadratic, &[0.5, 0.25], &expired),
                (
                    vec![4603129179135383962, 4598175219545276416],
                    4620203451222652356,
                    3,
                    true,
                ),
            ),
        ];
        for (name, got, want) in cases {
            assert_eq!(got, want, "{name}");
        }
    }

    #[test]
    fn golden_section_finds_parabola_min() {
        let x = golden_section_min(|x| (x - 2.5).powi(2), 0.0, 10.0, 1e-8);
        assert!((x - 2.5).abs() < 1e-6);
    }
}
