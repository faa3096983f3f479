//! The banded pairwise posteriors Γ against the dense construction they
//! replaced.
//!
//! The oracle below is the forward–backward pass exactly as it was when
//! every step's Γ was a dense K×K matrix: the same forward scatter, the
//! same backward gather, and a pairwise pass that zeroes all K² cells,
//! fills the kernel's band, and divides every cell by the total. The
//! banded pass must produce the same `f64` in every cell — the stored
//! value inside the band and `0.0` outside it — the capacity sampler
//! must draw the same paths from the banded Γ as Algorithm 1 does from
//! the dense one, and a session sampled through the banded Γ must equal
//! one sampled through the dense Γ.
//!
//! It lives in this crate rather than in `veritas_ehmm` because the
//! session differential needs [`Abduction`].

use std::sync::Arc;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use veritas::{Abduction, VeritasConfig};
use veritas_abr::Mpc;
use veritas_ehmm::{
    sample_path, BandMatrix, EhmmSpec, EhmmWorkspace, EmissionTable, GapKernel, Posteriors,
    StateMatrix, TransitionMatrix,
};
use veritas_media::{QualityLadder, VbrParams, VideoAsset};
use veritas_player::{run_session, PlayerConfig};
use veritas_trace::generators::{FccLike, TraceGenerator};

/// Dense posteriors: `gamma`, one K×K `xi` matrix per step, and the
/// log-likelihood.
struct DensePosteriors {
    gamma: StateMatrix,
    xi: Vec<StateMatrix>,
    log_likelihood: f64,
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

/// The scaled forward–backward pass with a dense Γ per step.
fn oracle_forward_backward(ws: &EhmmWorkspace, obs: &EmissionTable) -> DensePosteriors {
    let num_states = ws.spec().num_states();
    let num_obs = obs.num_obs();
    let step_kernels: Vec<Arc<GapKernel>> = (1..num_obs).map(|n| ws.kernel(obs.gap(n))).collect();

    let mut emissions = StateMatrix::zeros(num_obs, num_states);
    for n in 0..num_obs {
        obs.scaled_linear_row_into(n, emissions.row_mut(n));
    }
    let mut alpha = StateMatrix::zeros(num_obs, num_states);
    let mut log_likelihood = 0.0_f64;
    for (slot, (&p, &e)) in alpha
        .row_mut(0)
        .iter_mut()
        .zip(ws.spec().initial().iter().zip(emissions.row(0)))
    {
        *slot = p * e;
    }
    log_likelihood += normalize(alpha.row_mut(0));
    for n in 1..num_obs {
        let kernel = &step_kernels[n - 1];
        let (prev, cur) = alpha.prev_and_current(n);
        for (i, &p) in prev.iter().enumerate() {
            if p == 0.0 {
                continue;
            }
            let row = kernel.matrix().row(i);
            for j in kernel.band(i, num_states) {
                cur[j] += p * row[j];
            }
        }
        for (c, &e) in cur.iter_mut().zip(emissions.row(n)) {
            *c *= e;
        }
        log_likelihood += normalize(cur);
    }

    let mut beta = StateMatrix::filled(num_obs, num_states, 1.0);
    for n in (0..num_obs - 1).rev() {
        let kernel = &step_kernels[n];
        let (cur, next) = beta.current_and_next(n);
        let em_next = emissions.row(n + 1);
        for (i, slot) in cur.iter_mut().enumerate() {
            let row = kernel.matrix().row(i);
            let mut acc = 0.0;
            for j in kernel.band(i, num_states) {
                acc += row[j] * em_next[j] * next[j];
            }
            *slot = acc;
        }
        normalize(cur);
    }

    let mut gamma = StateMatrix::zeros(num_obs, num_states);
    for n in 0..num_obs {
        let row = gamma.row_mut(n);
        for (slot, (&a, &b)) in row.iter_mut().zip(alpha.row(n).iter().zip(beta.row(n))) {
            *slot = a * b;
        }
        normalize(row);
    }

    let mut xi = Vec::with_capacity(num_obs.saturating_sub(1));
    for n in 0..num_obs.saturating_sub(1) {
        let kernel = &step_kernels[n];
        let alpha_n = alpha.row(n);
        let em_next = emissions.row(n + 1);
        let beta_next = beta.row(n + 1);
        let mut pair = StateMatrix::zeros(num_states, num_states);
        let mut total = 0.0;
        for (i, &a) in alpha_n.iter().enumerate() {
            let row = kernel.matrix().row(i);
            let out = pair.row_mut(i);
            for j in kernel.band(i, num_states) {
                let v = a * row[j] * em_next[j] * beta_next[j];
                out[j] = v;
                total += v;
            }
        }
        if total > 0.0 {
            for v in pair.as_mut_slice() {
                *v /= total;
            }
        } else {
            let flat = 1.0 / (num_states * num_states) as f64;
            for v in pair.as_mut_slice() {
                *v = flat;
            }
        }
        xi.push(pair);
    }

    DensePosteriors {
        gamma,
        xi,
        log_likelihood,
    }
}

fn sample_categorical<R: Rng + ?Sized>(weights: &[f64], rng: &mut R) -> usize {
    let total: f64 = weights.iter().sum();
    if total <= 0.0 || !total.is_finite() {
        return rng.gen_range(0..weights.len());
    }
    let mut threshold = rng.gen::<f64>() * total;
    for (i, &w) in weights.iter().enumerate() {
        threshold -= w;
        if threshold <= 0.0 {
            return i;
        }
    }
    weights.len() - 1
}

/// Algorithm 1 over the dense Γ: the final state anchored at the Viterbi
/// solution, each earlier state drawn from column `next_state` of Γ.
fn oracle_sample_path<R: Rng + ?Sized>(
    xi: &[StateMatrix],
    last_state: usize,
    rng: &mut R,
) -> Vec<usize> {
    let num_obs = xi.len() + 1;
    let num_states = xi.first().map_or(1, |pair| pair.cols());
    let mut path = vec![0usize; num_obs];
    path[num_obs - 1] = last_state;
    let mut weights = vec![0.0_f64; num_states];
    for n in (0..num_obs - 1).rev() {
        let next_state = path[n + 1];
        let pair = &xi[n];
        for (i, w) in weights.iter_mut().enumerate() {
            *w = pair[i][next_state];
        }
        path[n] = sample_categorical(&weights, rng);
    }
    path
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Every cell of a band, expanded to the dense row-major layout.
fn expand(band: &BandMatrix) -> Vec<f64> {
    let n = band.num_states();
    (0..n)
        .flat_map(|i| (0..n).map(move |j| band.get(i, j)))
        .collect()
}

/// A dense matrix stored as a full-bandwidth band, so `get` reads every
/// cell of it unchanged.
fn full_band(dense: &StateMatrix) -> BandMatrix {
    let n = dense.cols();
    let width = 2 * n - 1;
    let mut data = vec![0.0; n * width];
    for i in 0..n {
        for j in 0..n {
            data[i * width + j + n - 1 - i] = dense[i][j];
        }
    }
    BandMatrix::from_vec(n, n - 1, data)
}

fn assert_bit_identical(banded: &Posteriors, dense: &DensePosteriors) {
    assert_eq!(bits(banded.gamma.as_slice()), bits(dense.gamma.as_slice()));
    assert_eq!(
        banded.log_likelihood.to_bits(),
        dense.log_likelihood.to_bits()
    );
    assert_eq!(banded.xi.len(), dense.xi.len());
    for (n, (band, pair)) in banded.xi.iter().zip(&dense.xi).enumerate() {
        assert_eq!(
            bits(&expand(band)),
            bits(pair.as_slice()),
            "xi[{n}] (bandwidth {})",
            band.bandwidth()
        );
    }
}

/// A tridiagonal model over `num_states` states with gaps drawn from
/// {0, 1, 2, `wide_gap`} (at most four distinct kernels per case, so a
/// 64-state case stays cheap) and log-densities with occasional `-inf`.
/// With `contradiction` set, observation `k` allows only state `s` and
/// observation `k + 1` forbids it across a zero gap — the emissions give
/// the step no reachable mass, which forces the degenerate uniform Γ
/// whenever the filter at `k` is concentrated on `s`.
fn any_model() -> impl Strategy<Value = (EhmmSpec, EmissionTable)> {
    (
        1usize..=64,
        1usize..=20,
        0.0f64..=1.0,
        any::<u64>(),
        0u32..=65,
        any::<bool>(),
    )
        .prop_map(
            |(num_states, num_obs, stay, seed, wide_gap, contradiction)| {
                let mut rng = StdRng::seed_from_u64(seed);
                let wide_gap = wide_gap.min(num_states as u32 + 1);
                let spec =
                    EhmmSpec::with_uniform_initial(TransitionMatrix::tridiagonal(num_states, stay));
                let mut rows: Vec<Vec<f64>> = (0..num_obs)
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
                let mut gaps: Vec<u32> = (0..num_obs)
                    .map(|n| match (n, rng.gen_range(0..4)) {
                        (0, _) => 0,
                        (_, 3) => wide_gap,
                        (_, g) => g,
                    })
                    .collect();
                if contradiction && num_states >= 2 && num_obs >= 2 {
                    let k = rng.gen_range(0..num_obs - 1);
                    let s = rng.gen_range(0..num_states);
                    for (i, v) in rows[k].iter_mut().enumerate() {
                        *v = if i == s { -1.0 } else { f64::NEG_INFINITY };
                    }
                    rows[k + 1][s] = f64::NEG_INFINITY;
                    gaps[k + 1] = 0;
                }
                (spec, EmissionTable::new(rows, gaps))
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn banded_gamma_is_bit_identical_to_the_dense_oracle((spec, obs) in any_model()) {
        let ws = EhmmWorkspace::new(spec);
        let banded = ws.forward_backward(&obs);
        let dense = oracle_forward_backward(&ws, &obs);
        assert_bit_identical(&banded, &dense);
        if obs.num_obs() >= 2 {
            let viterbi = ws.viterbi(&obs);
            let last = viterbi.path[obs.num_obs() - 1];
            for seed in 0..4u64 {
                prop_assert_eq!(
                    sample_path(&banded, &viterbi, &mut StdRng::seed_from_u64(seed)),
                    oracle_sample_path(&dense.xi, last, &mut StdRng::seed_from_u64(seed))
                );
            }
        }
    }
}

#[test]
fn a_step_with_no_reachable_mass_is_uniform_over_all_cells() {
    // Observation 0 allows only state 2; observation 1, a zero gap later,
    // forbids it: the pair posterior of step 0 has no mass anywhere.
    let num_states = 6;
    let spec = EhmmSpec::with_uniform_initial(TransitionMatrix::tridiagonal(num_states, 0.8));
    let mut first = vec![f64::NEG_INFINITY; num_states];
    first[2] = -0.5;
    let mut second = vec![-1.0; num_states];
    second[2] = f64::NEG_INFINITY;
    let obs = EmissionTable::new(vec![first, second, vec![-1.0; num_states]], vec![0, 0, 1]);
    let ws = EhmmWorkspace::new(spec);
    let banded = ws.forward_backward(&obs);
    let dense = oracle_forward_backward(&ws, &obs);
    assert_bit_identical(&banded, &dense);

    let degenerate = &banded.xi[0];
    assert_eq!(degenerate.bandwidth(), num_states - 1);
    let flat = 1.0 / (num_states * num_states) as f64;
    assert!(expand(degenerate).iter().all(|&v| v == flat));
    assert_eq!(banded.xi[1].bandwidth(), 1, "the next step keeps its band");
}

/// One MPC session over an FCC-like trace, 120 two-second chunks.
fn session(seed: u64) -> veritas_player::SessionLog {
    let asset = VideoAsset::generate(
        QualityLadder::paper_default(),
        240.0,
        2.0,
        VbrParams::default(),
        5,
    );
    let truth = FccLike::new(3.0, 8.0).generate(240.0, seed);
    run_session(
        &asset,
        &mut Mpc::new(),
        &truth,
        &PlayerConfig::paper_default(),
    )
}

#[test]
fn sessions_sample_identical_traces_under_dense_and_banded_gamma() {
    for (seed, epsilon) in [(11u64, 0.5), (12, 0.25), (13, 0.1)] {
        let log = session(seed);
        let config = VeritasConfig {
            epsilon_mbps: epsilon,
            ..VeritasConfig::paper_default()
        };
        let banded = Abduction::infer(&log, &config);

        // Rebuild the same emission table and run the dense oracle.
        let grid = config.capacity_grid();
        let rows = log
            .records
            .iter()
            .map(|record| Abduction::emission_row(record, &grid, config.sigma_mbps))
            .collect();
        let starts = banded.start_intervals();
        let gaps = std::iter::once(0)
            .chain(starts.windows(2).map(|w| (w[1] - w[0]) as u32))
            .collect();
        let obs = EmissionTable::new(rows, gaps);
        let dense = oracle_forward_backward(banded.workspace(), &obs);
        assert_bit_identical(banded.posteriors(), &dense);

        let oracle = Abduction::from_parts(
            &log,
            &config,
            banded.workspace().clone(),
            banded.viterbi().clone(),
            Posteriors {
                gamma: dense.gamma.clone(),
                xi: dense.xi.iter().map(full_band).collect(),
                log_likelihood: dense.log_likelihood,
            },
        )
        .expect("the oracle posteriors fit the log");
        for sample_seed in [0u64, 7, 99] {
            assert_eq!(
                banded.sample_traces_with_seed(5, sample_seed),
                oracle.sample_traces_with_seed(5, sample_seed),
                "session {seed}, epsilon {epsilon}, sample seed {sample_seed}"
            );
        }
    }
}
