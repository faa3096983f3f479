//! Naive reference implementations of the EHMM kernels, kept verbatim from
//! before the flat-buffer/workspace optimization, plus differential
//! property tests proving the optimized kernels match them.
//!
//! These are compiled only under `#[cfg(test)]`: they are the executable
//! specification the hot path is checked against, not shipped code. Each
//! function mirrors the original implementation exactly — per-step
//! `powers.power(..).clone()`, nested `Vec<Vec<f64>>` buffers, `safe_ln`
//! per transition entry — so any divergence introduced by the banded,
//! log-memoized kernels is caught here.

use std::collections::HashMap;

use rand::Rng;

use crate::matrix::TransitionMatrix;
use crate::model::{EhmmSpec, EmissionTable};
use crate::sampler::sample_categorical;
use crate::viterbi::{safe_ln, ViterbiResult};

/// The memo cache of integer powers the original kernels each built:
/// `base^k`, computed on first use and kept per `k`.
pub struct TransitionPowers {
    base: TransitionMatrix,
    cache: HashMap<u32, TransitionMatrix>,
}

impl TransitionPowers {
    pub fn new(base: TransitionMatrix) -> Self {
        Self {
            base,
            cache: HashMap::new(),
        }
    }

    pub fn power(&mut self, k: u32) -> &TransitionMatrix {
        self.cache.entry(k).or_insert_with(|| self.base.power(k))
    }
}

/// Posteriors in the pre-optimization nested-`Vec` layout.
pub struct NaivePosteriors {
    pub gamma: Vec<Vec<f64>>,
    pub xi: Vec<Vec<Vec<f64>>>,
    pub log_likelihood: f64,
}

/// The original gap-aware Viterbi decoder (per-step clone + `safe_ln`).
pub fn naive_viterbi(spec: &EhmmSpec, obs: &EmissionTable) -> ViterbiResult {
    assert_eq!(spec.num_states(), obs.num_states());
    let num_states = spec.num_states();
    let num_obs = obs.num_obs();
    let mut powers = TransitionPowers::new(spec.transition().clone());

    let mut delta: Vec<f64> = spec
        .initial()
        .iter()
        .zip(obs.log_row(0))
        .map(|(&p, &e)| safe_ln(p) + e)
        .collect();
    let mut psi: Vec<Vec<usize>> = Vec::with_capacity(num_obs);
    psi.push(vec![0; num_states]);

    for n in 1..num_obs {
        let a = powers.power(obs.gap(n)).clone();
        let emissions = obs.log_row(n);
        let mut next = vec![f64::NEG_INFINITY; num_states];
        let mut back = vec![0usize; num_states];
        for j in 0..num_states {
            let mut best = f64::NEG_INFINITY;
            let mut best_i = 0usize;
            for i in 0..num_states {
                let score = delta[i] + safe_ln(a.get(i, j));
                if score > best {
                    best = score;
                    best_i = i;
                }
            }
            next[j] = best + emissions[j];
            back[j] = best_i;
        }
        delta = next;
        psi.push(back);
    }

    let (mut best_state, best_score) =
        delta
            .iter()
            .enumerate()
            .fold((0usize, f64::NEG_INFINITY), |(bi, bs), (i, &s)| {
                if s > bs {
                    (i, s)
                } else {
                    (bi, bs)
                }
            });
    let mut path = vec![0usize; num_obs];
    path[num_obs - 1] = best_state;
    for n in (1..num_obs).rev() {
        best_state = psi[n][best_state];
        path[n - 1] = best_state;
    }
    ViterbiResult {
        path,
        log_likelihood: best_score,
    }
}

/// The original scaled forward–backward pass (per-step clones, nested
/// buffers).
pub fn naive_forward_backward(spec: &EhmmSpec, obs: &EmissionTable) -> NaivePosteriors {
    assert_eq!(spec.num_states(), obs.num_states());
    let num_states = spec.num_states();
    let num_obs = obs.num_obs();
    let mut powers = TransitionPowers::new(spec.transition().clone());

    let emissions: Vec<Vec<f64>> = (0..num_obs).map(|n| obs.scaled_linear_row(n)).collect();
    let step_matrices: Vec<usize> = (0..num_obs).map(|n| obs.gap(n) as usize).collect();

    let mut alpha = vec![vec![0.0_f64; num_states]; num_obs];
    let mut log_likelihood = 0.0_f64;
    for i in 0..num_states {
        alpha[0][i] = spec.initial()[i] * emissions[0][i];
    }
    log_likelihood += normalize(&mut alpha[0]);
    for n in 1..num_obs {
        let a = powers.power(step_matrices[n] as u32).clone();
        let (prev, rest) = alpha.split_at_mut(n);
        let prev = &prev[n - 1];
        let cur = &mut rest[0];
        for j in 0..num_states {
            let mut acc = 0.0;
            for i in 0..num_states {
                acc += prev[i] * a.get(i, j);
            }
            cur[j] = acc * emissions[n][j];
        }
        log_likelihood += normalize(cur);
    }

    let mut beta = vec![vec![1.0_f64; num_states]; num_obs];
    for n in (0..num_obs - 1).rev() {
        let a = powers.power(step_matrices[n + 1] as u32).clone();
        let mut row = vec![0.0_f64; num_states];
        for i in 0..num_states {
            let mut acc = 0.0;
            for j in 0..num_states {
                acc += a.get(i, j) * emissions[n + 1][j] * beta[n + 1][j];
            }
            row[i] = acc;
        }
        normalize(&mut row);
        beta[n] = row;
    }

    let mut gamma = vec![vec![0.0_f64; num_states]; num_obs];
    for n in 0..num_obs {
        for i in 0..num_states {
            gamma[n][i] = alpha[n][i] * beta[n][i];
        }
        normalize(&mut gamma[n]);
    }

    let mut xi = Vec::with_capacity(num_obs.saturating_sub(1));
    for n in 0..num_obs.saturating_sub(1) {
        let a = powers.power(step_matrices[n + 1] as u32).clone();
        let mut pair = vec![vec![0.0_f64; num_states]; num_states];
        let mut total = 0.0;
        for i in 0..num_states {
            for j in 0..num_states {
                let v = alpha[n][i] * a.get(i, j) * emissions[n + 1][j] * beta[n + 1][j];
                pair[i][j] = v;
                total += v;
            }
        }
        if total > 0.0 {
            for row in &mut pair {
                for v in row.iter_mut() {
                    *v /= total;
                }
            }
        } else {
            let flat = 1.0 / (num_states * num_states) as f64;
            for row in &mut pair {
                for v in row.iter_mut() {
                    *v = flat;
                }
            }
        }
        xi.push(pair);
    }

    NaivePosteriors {
        gamma,
        xi,
        log_likelihood,
    }
}

/// The original path scorer (fresh powers cache, `safe_ln` per step).
pub fn naive_path_log_score(spec: &EhmmSpec, obs: &EmissionTable, path: &[usize]) -> f64 {
    assert_eq!(path.len(), obs.num_obs());
    let mut powers = TransitionPowers::new(spec.transition().clone());
    let mut score = safe_ln(spec.initial()[path[0]]) + obs.log_row(0)[path[0]];
    for n in 1..path.len() {
        let a = powers.power(obs.gap(n));
        score += safe_ln(a.get(path[n - 1], path[n])) + obs.log_row(n)[path[n]];
    }
    score
}

/// The original FFBS sampler (per-step clones, dense weight vectors).
pub fn naive_sample_path_ffbs<R: Rng + ?Sized>(
    spec: &EhmmSpec,
    obs: &EmissionTable,
    rng: &mut R,
) -> Vec<usize> {
    assert_eq!(spec.num_states(), obs.num_states());
    let num_states = spec.num_states();
    let num_obs = obs.num_obs();
    let mut powers = TransitionPowers::new(spec.transition().clone());
    let emissions: Vec<Vec<f64>> = (0..num_obs).map(|n| obs.scaled_linear_row(n)).collect();

    let mut alpha = vec![vec![0.0_f64; num_states]; num_obs];
    for i in 0..num_states {
        alpha[0][i] = spec.initial()[i] * emissions[0][i];
    }
    normalize(&mut alpha[0]);
    for n in 1..num_obs {
        let a = powers.power(obs.gap(n)).clone();
        let (prev, rest) = alpha.split_at_mut(n);
        let prev = &prev[n - 1];
        let cur = &mut rest[0];
        for j in 0..num_states {
            let mut acc = 0.0;
            for i in 0..num_states {
                acc += prev[i] * a.get(i, j);
            }
            cur[j] = acc * emissions[n][j];
        }
        normalize(cur);
    }

    let mut path = vec![0usize; num_obs];
    path[num_obs - 1] = sample_categorical(&alpha[num_obs - 1], rng);
    for n in (0..num_obs - 1).rev() {
        let a = powers.power(obs.gap(n + 1)).clone();
        let next_state = path[n + 1];
        let weights: Vec<f64> = (0..num_states)
            .map(|i| alpha[n][i] * a.get(i, next_state))
            .collect();
        path[n] = sample_categorical(&weights, rng);
    }
    path
}

fn normalize(v: &mut [f64]) -> f64 {
    let sum: f64 = v.iter().sum();
    if sum > 0.0 {
        for x in v.iter_mut() {
            *x /= sum;
        }
        sum.ln()
    } else {
        let flat = 1.0 / v.len() as f64;
        for x in v.iter_mut() {
            *x = flat;
        }
        0.0
    }
}

mod differential {
    use super::*;
    use crate::workspace::EhmmWorkspace;
    use crate::{forward_backward, path_log_score, sample_path_ffbs, viterbi};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const TOL: f64 = 1e-12;

    /// A random model: either the paper's tridiagonal prior (banded `A^Δ`,
    /// the production shape) or a dense random row-stochastic matrix (full
    /// bandwidth, exercising the band-clamping logic), plus a random
    /// emission table with occasional `-inf` (impossible-state) entries.
    fn any_model() -> impl Strategy<Value = (EhmmSpec, EmissionTable)> {
        (
            2usize..=12,
            1usize..=30,
            0.0f64..=1.0,
            any::<u64>(),
            any::<bool>(),
        )
            .prop_map(|(num_states, num_obs, stay, seed, dense)| {
                let mut rng = StdRng::seed_from_u64(seed);
                let transition = if dense {
                    let rows: Vec<Vec<f64>> = (0..num_states)
                        .map(|_| {
                            let raw: Vec<f64> =
                                (0..num_states).map(|_| rng.gen_range(0.01..1.0)).collect();
                            let sum: f64 = raw.iter().sum();
                            raw.iter().map(|v| v / sum).collect()
                        })
                        .collect();
                    TransitionMatrix::from_rows(rows)
                } else {
                    TransitionMatrix::tridiagonal(num_states, stay)
                };
                let spec = EhmmSpec::with_uniform_initial(transition);
                let rows: Vec<Vec<f64>> = (0..num_obs)
                    .map(|_| {
                        (0..num_states)
                            .map(|_| {
                                if rng.gen_range(0.0..1.0) < 0.05 {
                                    f64::NEG_INFINITY
                                } else {
                                    -rng.gen_range(0.0..10.0)
                                }
                            })
                            .collect()
                    })
                    .collect();
                let gaps: Vec<u32> = (0..num_obs)
                    .map(|n| if n == 0 { 0 } else { rng.gen_range(0..8) })
                    .collect();
                (spec, EmissionTable::new(rows, gaps))
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(60))]

        #[test]
        fn optimized_viterbi_is_identical_to_the_reference((spec, obs) in any_model()) {
            let fast = viterbi(&spec, &obs);
            let slow = naive_viterbi(&spec, &obs);
            prop_assert_eq!(&fast.path, &slow.path, "decoded paths diverge");
            let diff = (fast.log_likelihood - slow.log_likelihood).abs();
            prop_assert!(
                diff <= TOL || (fast.log_likelihood.is_infinite()
                    && slow.log_likelihood.is_infinite()),
                "log-likelihoods diverge: {} vs {}", fast.log_likelihood, slow.log_likelihood
            );
        }

        #[test]
        fn optimized_posteriors_match_the_reference((spec, obs) in any_model()) {
            let fast = forward_backward(&spec, &obs);
            let slow = naive_forward_backward(&spec, &obs);
            prop_assert!(
                (fast.log_likelihood - slow.log_likelihood).abs() <= TOL,
                "log-likelihood: {} vs {}", fast.log_likelihood, slow.log_likelihood
            );
            for n in 0..obs.num_obs() {
                for i in 0..spec.num_states() {
                    prop_assert!(
                        (fast.gamma[n][i] - slow.gamma[n][i]).abs() <= TOL,
                        "gamma[{}][{}]: {} vs {}", n, i, fast.gamma[n][i], slow.gamma[n][i]
                    );
                }
            }
            prop_assert_eq!(fast.xi.len(), slow.xi.len());
            for n in 0..fast.xi.len() {
                for i in 0..spec.num_states() {
                    for j in 0..spec.num_states() {
                        prop_assert!(
                            (fast.xi[n].get(i, j) - slow.xi[n][i][j]).abs() <= TOL,
                            "xi[{}][{}][{}]: {} vs {}", n, i, j, fast.xi[n].get(i, j), slow.xi[n][i][j]
                        );
                    }
                }
            }
        }

        #[test]
        fn optimized_path_scores_match_the_reference(((spec, obs), seed) in (any_model(), any::<u64>())) {
            let mut rng = StdRng::seed_from_u64(seed);
            let path: Vec<usize> = (0..obs.num_obs())
                .map(|_| rng.gen_range(0..spec.num_states()))
                .collect();
            let fast = path_log_score(&spec, &obs, &path);
            let slow = naive_path_log_score(&spec, &obs, &path);
            prop_assert!(
                (fast - slow).abs() <= TOL || (fast.is_infinite() && slow.is_infinite()),
                "path score: {} vs {}", fast, slow
            );
        }

        #[test]
        fn optimized_ffbs_consumes_the_same_rng_stream(((spec, obs), seed) in (any_model(), any::<u64>())) {
            // Identical weights (zeros outside the band are structural) must
            // produce identical draws from identical RNG states.
            let fast = sample_path_ffbs(&spec, &obs, &mut StdRng::seed_from_u64(seed));
            let slow = naive_sample_path_ffbs(&spec, &obs, &mut StdRng::seed_from_u64(seed));
            prop_assert_eq!(fast, slow);
        }

        #[test]
        fn shared_workspace_matches_fresh_workspaces((spec, obs) in any_model()) {
            // Running every kernel through one shared workspace (the engine
            // configuration) gives the same results as the one-shot wrappers.
            let ws = EhmmWorkspace::new(spec.clone());
            let v1 = ws.viterbi(&obs);
            let v2 = viterbi(&spec, &obs);
            prop_assert_eq!(v1.path, v2.path);
            let p1 = ws.forward_backward(&obs);
            let p2 = forward_backward(&spec, &obs);
            prop_assert_eq!(p1, p2);
        }
    }
}
