//! Derivative-free Nelder–Mead simplex optimizer.
//!
//! Used to minimize the conditional sum of squares when fitting ARMA
//! coefficients — the "optimization libs are thinner" substitution: a
//! compact, dependency-free downhill-simplex implementation with the
//! standard reflection/expansion/contraction/shrink moves.
//!
//! The optimizer is driven ask/tell ([`NelderMead`]): it hands out the
//! next point to evaluate and waits for its value, so a caller can
//! advance several independent searches in one evaluation pass (the
//! ARIMA fit runs one search per lane of its CSS kernel).
//! [`nelder_mead`] is the closure-driven loop over it.

use crate::arima::MAX_ORDER;

/// Most coordinates a [`NelderMead`] search takes: the `p + q`
/// coefficients of the largest ARMA model.
pub(crate) const NM_MAX_DIM: usize = 2 * MAX_ORDER;

/// Tuning knobs for [`nelder_mead`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NelderMeadOptions {
    /// Maximum objective evaluations.
    pub max_evals: usize,
    /// Convergence tolerance on the simplex's objective spread.
    pub f_tolerance: f64,
    /// Initial simplex step per coordinate.
    pub initial_step: f64,
}

impl Default for NelderMeadOptions {
    fn default() -> Self {
        NelderMeadOptions { max_evals: 2000, f_tolerance: 1e-10, initial_step: 0.1 }
    }
}

const ALPHA: f64 = 1.0; // reflection
const GAMMA: f64 = 2.0; // expansion
const RHO: f64 = 0.5; // contraction
const SIGMA: f64 = 0.5; // shrink

/// One simplex vertex: a point and its objective value.
#[derive(Debug, Clone, Copy)]
struct Vertex {
    x: [f64; NM_MAX_DIM],
    f: f64,
}

/// Which evaluation the search is waiting for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Await {
    /// Initial vertex `k` (`x0` is vertex 0).
    Initial(usize),
    Reflection,
    Expansion,
    Contraction,
    /// Vertex `k` shrunk toward the best one.
    Shrink(usize),
    /// Converged or out of budget; nothing more to evaluate.
    Done,
}

/// An ask/tell Nelder–Mead search.
///
/// [`NelderMead::ask`] returns the point whose objective value the search
/// needs next, and [`NelderMead::tell`] hands that value back. Once `ask`
/// returns `None`, [`NelderMead::best`] holds the result. Non-finite
/// values mark infeasible points and are treated as `+∞`.
///
/// Vertices live in fixed-capacity storage, so a search allocates
/// nothing after [`NelderMead::new`].
#[derive(Debug)]
pub(crate) struct NelderMead {
    n: usize,
    options: NelderMeadOptions,
    evals: usize,
    simplex: [Vertex; NM_MAX_DIM + 1],
    centroid: [f64; NM_MAX_DIM],
    /// The point `ask` returns.
    trial: [f64; NM_MAX_DIM],
    /// The reflected point, kept while its expansion or contraction is
    /// evaluated.
    reflected: Vertex,
    awaiting: Await,
}

impl NelderMead {
    /// Starts a search from `x0`: the initial simplex is `x0` plus a step
    /// along each axis.
    ///
    /// # Panics
    ///
    /// Panics if `x0` has more than [`NM_MAX_DIM`] coordinates.
    pub fn new(x0: &[f64], options: &NelderMeadOptions) -> Self {
        let n = x0.len();
        assert!(n <= NM_MAX_DIM, "Nelder–Mead takes at most {NM_MAX_DIM} coordinates, got {n}");
        let mut start = [0.0; NM_MAX_DIM];
        start[..n].copy_from_slice(x0);
        let mut simplex = [Vertex { x: start, f: f64::INFINITY }; NM_MAX_DIM + 1];
        for (i, vertex) in simplex[1..=n].iter_mut().enumerate() {
            let xi = vertex.x[i];
            vertex.x[i] += if xi.abs() > 1e-12 { options.initial_step * xi.abs() } else { options.initial_step };
        }
        NelderMead {
            n,
            options: *options,
            evals: 0,
            simplex,
            centroid: [0.0; NM_MAX_DIM],
            trial: start,
            reflected: simplex[0],
            awaiting: Await::Initial(0),
        }
    }

    /// The point to evaluate next, or `None` once the search is over.
    pub fn ask(&self) -> Option<&[f64]> {
        (self.awaiting != Await::Done).then(|| &self.trial[..self.n])
    }

    /// Hands back the objective value at the point [`NelderMead::ask`]
    /// returned, and advances the search to its next point. Does nothing
    /// once the search is over.
    pub fn tell(&mut self, value: f64) {
        if self.awaiting == Await::Done {
            return;
        }
        self.evals += 1;
        let f = if value.is_finite() { value } else { f64::INFINITY };
        let told = Vertex { x: self.trial, f };
        let n = self.n;
        match self.awaiting {
            Await::Initial(k) => {
                self.simplex[k] = told;
                if k == n {
                    if n == 0 {
                        self.awaiting = Await::Done;
                    } else {
                        self.iterate();
                    }
                } else {
                    self.trial = self.simplex[k + 1].x;
                    self.awaiting = Await::Initial(k + 1);
                }
            }
            Await::Reflection => {
                if f < self.simplex[0].f {
                    self.reflected = told;
                    self.blend(GAMMA);
                    self.awaiting = Await::Expansion;
                } else if f < self.simplex[n - 1].f {
                    self.simplex[n] = told;
                    self.iterate();
                } else {
                    // Contract (outside if reflection helped over worst,
                    // else inside).
                    self.reflected = told;
                    self.blend(if f < self.simplex[n].f { RHO } else { -RHO });
                    self.awaiting = Await::Contraction;
                }
            }
            Await::Expansion => {
                self.simplex[n] = if f < self.reflected.f { told } else { self.reflected };
                self.iterate();
            }
            Await::Contraction => {
                if f < self.simplex[n].f.min(self.reflected.f) {
                    self.simplex[n] = told;
                    self.iterate();
                } else {
                    self.shrink_next(1);
                }
            }
            Await::Shrink(k) => {
                self.simplex[k] = told;
                if k == n {
                    self.iterate();
                } else {
                    self.shrink_next(k + 1);
                }
            }
            Await::Done => {}
        }
    }

    /// The best vertex so far, `(x, f(x))`; the search's result once
    /// [`NelderMead::ask`] returns `None`. Ties go to the earliest vertex
    /// in simplex order.
    pub fn best(&self) -> (&[f64], f64) {
        let simplex = &self.simplex[..=self.n];
        let mut best = &simplex[0];
        for vertex in &simplex[1..] {
            if vertex.f.total_cmp(&best.f).is_lt() {
                best = vertex;
            }
        }
        (&best.x[..self.n], best.f)
    }

    /// Objective evaluations told so far.
    pub fn evals(&self) -> usize {
        self.evals
    }

    /// The top of one iteration: stop on budget or convergence, else
    /// reflect the worst vertex through the centroid of the rest.
    fn iterate(&mut self) {
        let n = self.n;
        if self.evals >= self.options.max_evals {
            self.awaiting = Await::Done;
            return;
        }
        self.simplex[..=n].sort_by(|a, b| f64::total_cmp(&a.f, &b.f));
        let best = self.simplex[0].f;
        let worst = self.simplex[n].f;
        if (worst - best).abs() <= self.options.f_tolerance * (1.0 + best.abs()) {
            self.awaiting = Await::Done;
            return;
        }
        // Centroid of all but the worst.
        let centroid = &mut self.centroid[..n];
        centroid.fill(0.0);
        for vertex in &self.simplex[..n] {
            for (c, v) in centroid.iter_mut().zip(&vertex.x) {
                *c += v;
            }
        }
        for c in centroid {
            *c /= n as f64;
        }
        self.blend(ALPHA);
        self.awaiting = Await::Reflection;
    }

    /// Sets the trial point to `c + t·(c − worst)`.
    fn blend(&mut self, t: f64) {
        let worst = &self.simplex[self.n].x;
        for ((x, c), w) in self.trial.iter_mut().zip(&self.centroid).zip(worst).take(self.n) {
            *x = c + t * (c - w);
        }
    }

    /// Sets the trial point to vertex `k` shrunk toward the best one.
    fn shrink_next(&mut self, k: usize) {
        let best = &self.simplex[0].x;
        let vertex = &self.simplex[k].x;
        for ((x, b), v) in self.trial.iter_mut().zip(best).zip(vertex).take(self.n) {
            *x = b + SIGMA * (v - b);
        }
        self.awaiting = Await::Shrink(k);
    }
}

/// Minimizes `f` starting from `x0`, returning `(x_best, f_best)`.
///
/// `f` may return non-finite values to mark infeasible points; they are
/// treated as `+∞`.
///
/// # Panics
///
/// Panics if `x0` has more than `2 · MAX_ORDER` (16) coordinates.
///
/// # Examples
///
/// ```
/// use harmony_forecast::{nelder_mead, NelderMeadOptions};
///
/// let rosenbrock = |x: &[f64]| {
///     (1.0 - x[0]).powi(2) + 100.0 * (x[1] - x[0] * x[0]).powi(2)
/// };
/// let opts = NelderMeadOptions { max_evals: 20_000, ..Default::default() };
/// let (x, fx) = nelder_mead(rosenbrock, &[-1.2, 1.0], &opts);
/// assert!(fx < 1e-6, "f = {fx} at {x:?}");
/// assert!((x[0] - 1.0).abs() < 1e-2 && (x[1] - 1.0).abs() < 1e-2);
/// ```
pub fn nelder_mead<F>(mut f: F, x0: &[f64], options: &NelderMeadOptions) -> (Vec<f64>, f64)
where
    F: FnMut(&[f64]) -> f64,
{
    let mut search = NelderMead::new(x0, options);
    while let Some(x) = search.ask() {
        let value = f(x);
        search.tell(value);
    }
    let (x, fx) = search.best();
    (x.to_vec(), fx)
}

/// The closure-driven Nelder–Mead that [`NelderMead`] replaced, kept as
/// the oracle the ask/tell search must match bit for bit.
#[cfg(test)]
pub(crate) fn nelder_mead_oracle<F>(
    mut f: F,
    x0: &[f64],
    options: &NelderMeadOptions,
) -> (Vec<f64>, f64)
where
    F: FnMut(&[f64]) -> f64,
{
    let n = x0.len();
    let mut evals = 0usize;
    let mut eval = |x: &[f64], evals: &mut usize| -> f64 {
        *evals += 1;
        let v = f(x);
        if v.is_finite() {
            v
        } else {
            f64::INFINITY
        }
    };
    if n == 0 {
        let v = eval(x0, &mut evals);
        return (x0.to_vec(), v);
    }

    let mut simplex: Vec<(Vec<f64>, f64)> = Vec::with_capacity(n + 1);
    let fx0 = eval(x0, &mut evals);
    simplex.push((x0.to_vec(), fx0));
    for i in 0..n {
        let mut x = x0.to_vec();
        let step = if x[i].abs() > 1e-12 { options.initial_step * x[i].abs() } else { options.initial_step };
        x[i] += step;
        let fx = eval(&x, &mut evals);
        simplex.push((x, fx));
    }

    while evals < options.max_evals {
        simplex.sort_by(|a, b| f64::total_cmp(&a.1, &b.1));
        let best = simplex[0].1;
        let worst = simplex[n].1;
        if (worst - best).abs() <= options.f_tolerance * (1.0 + best.abs()) {
            break;
        }
        let mut centroid = vec![0.0; n];
        for (x, _) in &simplex[..n] {
            for (c, v) in centroid.iter_mut().zip(x) {
                *c += v;
            }
        }
        for c in &mut centroid {
            *c /= n as f64;
        }
        let worst_x = simplex[n].0.clone();
        let blend = |t: f64| -> Vec<f64> {
            centroid.iter().zip(&worst_x).map(|(c, w)| c + t * (c - w)).collect()
        };
        let xr = blend(ALPHA);
        let fr = eval(&xr, &mut evals);
        if fr < simplex[0].1 {
            let xe = blend(GAMMA);
            let fe = eval(&xe, &mut evals);
            simplex[n] = if fe < fr { (xe, fe) } else { (xr, fr) };
        } else if fr < simplex[n - 1].1 {
            simplex[n] = (xr, fr);
        } else {
            let (xc, fc) = if fr < simplex[n].1 {
                let xc = blend(RHO);
                let fc = eval(&xc, &mut evals);
                (xc, fc)
            } else {
                let xc = blend(-RHO);
                let fc = eval(&xc, &mut evals);
                (xc, fc)
            };
            if fc < simplex[n].1.min(fr) {
                simplex[n] = (xc, fc);
            } else {
                let best_x = simplex[0].0.clone();
                for entry in simplex.iter_mut().skip(1) {
                    let x: Vec<f64> =
                        best_x.iter().zip(&entry.0).map(|(b, v)| b + SIGMA * (v - b)).collect();
                    let fx = eval(&x, &mut evals);
                    *entry = (x, fx);
                }
            }
        }
    }
    simplex.sort_by(|a, b| f64::total_cmp(&a.1, &b.1));
    let (x, fx) = simplex.swap_remove(0);
    (x, fx)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimizes_quadratic() {
        let (x, fx) = nelder_mead(
            |x| (x[0] - 3.0).powi(2) + (x[1] + 1.0).powi(2) + 5.0,
            &[0.0, 0.0],
            &NelderMeadOptions::default(),
        );
        assert!((x[0] - 3.0).abs() < 1e-4, "{x:?}");
        assert!((x[1] + 1.0).abs() < 1e-4);
        assert!((fx - 5.0).abs() < 1e-6);
    }

    #[test]
    fn handles_infeasible_regions() {
        // Objective is infinite for x < 0; optimum at boundary 0.
        let (x, _) = nelder_mead(
            |x| if x[0] < 0.0 { f64::NAN } else { x[0] * x[0] + 1.0 },
            &[2.0],
            &NelderMeadOptions::default(),
        );
        assert!(x[0].abs() < 1e-3, "x = {:?}", x);
    }

    #[test]
    fn zero_dimension_returns_input() {
        let (x, fx) = nelder_mead(|_| 7.0, &[], &NelderMeadOptions::default());
        assert!(x.is_empty());
        assert_eq!(fx, 7.0);
    }

    #[test]
    fn respects_eval_budget() {
        let mut count = 0usize;
        let opts = NelderMeadOptions { max_evals: 50, ..Default::default() };
        let _ = nelder_mead(
            |x| {
                count += 1;
                x.iter().map(|v| v * v).sum()
            },
            &[5.0, 5.0, 5.0],
            &opts,
        );
        assert!(count <= 60, "evaluations {count} should respect the budget");
    }

    #[test]
    fn four_dimensional_sphere() {
        let opts = NelderMeadOptions { max_evals: 10_000, ..Default::default() };
        let (x, fx) =
            nelder_mead(|x| x.iter().map(|v| (v - 1.0) * (v - 1.0)).sum(), &[4.0, -3.0, 2.0, 0.0], &opts);
        assert!(fx < 1e-8, "fx = {fx}, x = {x:?}");
    }

    /// Runs both searches on `f`, counting evaluations, and requires the
    /// same point bits, value bits and evaluation count.
    fn assert_matches_oracle(f: impl Fn(&[f64]) -> f64, x0: &[f64], opts: &NelderMeadOptions) {
        let mut new_evals = 0usize;
        let (x, fx) = nelder_mead(
            |x| {
                new_evals += 1;
                f(x)
            },
            x0,
            opts,
        );
        let mut old_evals = 0usize;
        let (ox, ofx) = nelder_mead_oracle(
            |x| {
                old_evals += 1;
                f(x)
            },
            x0,
            opts,
        );
        let bits = |v: &[f64]| v.iter().map(|c| c.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&x), bits(&ox), "point from {x0:?}: {x:?} vs {ox:?}");
        assert_eq!(fx.to_bits(), ofx.to_bits(), "value from {x0:?}: {fx} vs {ofx}");
        assert_eq!(new_evals, old_evals, "evaluations from {x0:?}");
    }

    #[test]
    fn ask_tell_matches_oracle_on_quadratic() {
        let f = |x: &[f64]| (x[0] - 3.0).powi(2) + (x[1] + 1.0).powi(2) + 5.0;
        for x0 in [[0.0, 0.0], [10.0, -7.5], [3.0, -1.0]] {
            assert_matches_oracle(f, &x0, &NelderMeadOptions::default());
        }
    }

    #[test]
    fn ask_tell_matches_oracle_on_rosenbrock() {
        let f = |x: &[f64]| (1.0 - x[0]).powi(2) + 100.0 * (x[1] - x[0] * x[0]).powi(2);
        let opts = NelderMeadOptions { max_evals: 20_000, ..Default::default() };
        assert_matches_oracle(f, &[-1.2, 1.0], &opts);
        assert_matches_oracle(f, &[0.0, 0.0], &NelderMeadOptions::default());
    }

    #[test]
    fn ask_tell_matches_oracle_on_infeasible_regions() {
        let f = |x: &[f64]| if x[0] < 0.0 { f64::NAN } else { x[0] * x[0] + 1.0 };
        assert_matches_oracle(f, &[2.0], &NelderMeadOptions::default());
        // Everything infeasible: the spread is ∞ − ∞, so only the budget
        // stops the search.
        let opts = NelderMeadOptions { max_evals: 200, ..Default::default() };
        assert_matches_oracle(|_| f64::INFINITY, &[1.0, 2.0], &opts);
        let guarded = |x: &[f64]| {
            if x.iter().any(|c| c.abs() > 1.0) {
                f64::INFINITY
            } else {
                x.iter().map(|c| (c - 0.9) * (c - 0.9)).sum()
            }
        };
        assert_matches_oracle(guarded, &[0.95, -0.95, 0.5], &NelderMeadOptions::default());
    }

    #[test]
    fn ask_tell_matches_oracle_when_the_budget_runs_out() {
        let sphere = |x: &[f64]| x.iter().map(|v| v * v).sum::<f64>();
        for max_evals in [0, 1, 3, 4, 5, 50, 51, 52] {
            let opts = NelderMeadOptions { max_evals, ..Default::default() };
            assert_matches_oracle(sphere, &[5.0, 5.0, 5.0], &opts);
        }
        // A negative tolerance never converges, so shrinks overrun.
        let opts = NelderMeadOptions { max_evals: 300, f_tolerance: -1.0, initial_step: 0.1 };
        assert_matches_oracle(sphere, &[1.0, -2.0, 0.5, 4.0], &opts);
    }

    #[test]
    fn ask_tell_matches_oracle_on_plateaus() {
        // Exact ties everywhere: tie order in the sort, the strictness of
        // each comparison and which tied vertex wins all show here.
        let steps = |x: &[f64]| x.iter().map(|v| (v * 4.0).floor().abs()).sum::<f64>();
        for max_evals in [10, 40, 400] {
            let opts = NelderMeadOptions { max_evals, ..Default::default() };
            assert_matches_oracle(steps, &[1.3, -0.7], &opts);
            assert_matches_oracle(steps, &[2.1, 0.4, -1.6], &opts);
            assert_matches_oracle(|_| f64::INFINITY, &[1.0, 2.0], &opts);
            assert_matches_oracle(|_| 3.0, &[0.5, -0.25, 1.0], &opts);
        }
        let opts = NelderMeadOptions { max_evals: 60, f_tolerance: -1.0, initial_step: 0.3 };
        assert_matches_oracle(steps, &[0.9, 0.9], &opts);
        assert_matches_oracle(|_| 3.0, &[0.5, -0.25, 1.0], &opts);
        // A quantized bowl from a grid of starts and steps.
        let terraced = |x: &[f64]| {
            let r = (x[0] - 1.0).powi(2) + (x[1] + 0.5).powi(2);
            (r * 2.0).floor()
        };
        for i in 0..8 {
            for step in [0.1, 0.5, 1.5] {
                let opts = NelderMeadOptions { max_evals: 150, f_tolerance: -1.0, initial_step: step };
                let x0 = [i as f64 * 0.7 - 2.0, 1.5 - i as f64 * 0.45];
                assert_matches_oracle(terraced, &x0, &opts);
            }
        }
    }

    #[test]
    fn ask_tell_matches_oracle_at_zero_dimensions() {
        assert_matches_oracle(|_| 7.0, &[], &NelderMeadOptions::default());
        assert_matches_oracle(|_| f64::NAN, &[], &NelderMeadOptions::default());
    }

    #[test]
    fn ask_tell_matches_oracle_at_full_dimension() {
        let f = |x: &[f64]| x.iter().enumerate().map(|(i, v)| (v - i as f64 * 0.1).powi(2)).sum();
        let x0 = [0.3; NM_MAX_DIM];
        assert_matches_oracle(f, &x0, &NelderMeadOptions { max_evals: 3000, ..Default::default() });
    }

    #[test]
    fn finished_search_ignores_further_values() {
        let mut search = NelderMead::new(&[], &NelderMeadOptions::default());
        search.tell(1.0);
        assert!(search.ask().is_none());
        search.tell(-5.0);
        assert_eq!(search.evals(), 1);
        assert_eq!(search.best().1, 1.0);
    }
}
