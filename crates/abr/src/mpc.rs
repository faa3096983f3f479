//! MPC — model-predictive bitrate control (Yin et al., SIGCOMM 2015).

use serde::{Deserialize, Serialize};

use crate::context::AbrContext;
use crate::Abr;

/// QoE weights for the MPC objective.
///
/// The objective over the lookahead horizon is
/// `Σ bitrate_k − λ Σ |bitrate_k − bitrate_{k−1}| − μ Σ rebuffer_k`,
/// the linear QoE form from the MPC paper with bitrates in Mbps and
/// rebuffering in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QoeWeights {
    /// Smoothness penalty per Mbps of bitrate change.
    pub smoothness_lambda: f64,
    /// Rebuffering penalty per second stalled.
    pub rebuffer_mu: f64,
}

impl Default for QoeWeights {
    fn default() -> Self {
        Self {
            smoothness_lambda: 1.0,
            rebuffer_mu: 8.0,
        }
    }
}

/// Model Predictive Control ABR.
///
/// At every chunk boundary the controller predicts future throughput with the
/// harmonic mean of recent observations (optionally discounted by the recent
/// maximum prediction error — RobustMPC), then finds the quality plan over a
/// short lookahead horizon with the best QoE, simulating buffer evolution,
/// and plays the plan's first decision.
///
/// The search is an exact branch-and-bound: a depth-first walk over plan
/// prefixes that carries buffer and QoE down each shared prefix and cuts a
/// subtree once even the top bitrate at every remaining step, with no
/// penalty, cannot reach the best plan found so far. It returns what scoring
/// all `num_q^horizon` plans would: the same bit-identical scores, and on an
/// exact tie the plan with the smallest index `Σ plan[s]·num_q^s`. The cut
/// is disabled when a QoE weight is negative, since the bound then fails.
/// A horizon of 0 is treated as 1.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Mpc {
    /// Number of future chunks considered in the lookahead.
    pub horizon: usize,
    /// Number of past chunks in the harmonic-mean throughput predictor.
    pub prediction_window: usize,
    /// QoE weights.
    pub weights: QoeWeights,
    /// If true, discount the throughput prediction by the recent maximum
    /// relative error (RobustMPC).
    pub robust: bool,
}

impl Mpc {
    /// Standard MPC with a 5-chunk horizon.
    pub fn new() -> Self {
        Self {
            horizon: 5,
            prediction_window: 5,
            weights: QoeWeights::default(),
            robust: false,
        }
    }

    /// RobustMPC: same controller with an error-discounted predictor.
    pub fn robust() -> Self {
        Self {
            robust: true,
            ..Self::new()
        }
    }

    /// Overrides the lookahead horizon (must be ≥ 1). The search is exact,
    /// so its worst case still grows as `num_q^horizon`; pruning usually
    /// keeps it far below that.
    pub fn with_horizon(mut self, horizon: usize) -> Self {
        assert!(horizon >= 1);
        self.horizon = horizon;
        self
    }

    /// Overrides the QoE weights.
    pub fn with_weights(mut self, weights: QoeWeights) -> Self {
        self.weights = weights;
        self
    }

    fn predicted_throughput(&self, ctx: &AbrContext) -> f64 {
        let base = ctx
            .harmonic_mean_throughput(self.prediction_window)
            .unwrap_or(1.0)
            .max(1e-3);
        if self.robust {
            let err = ctx.recent_prediction_error(self.prediction_window);
            base / (1.0 + err)
        } else {
            base
        }
    }
}

impl Default for Mpc {
    fn default() -> Self {
        Self::new()
    }
}

impl Abr for Mpc {
    fn name(&self) -> &'static str {
        if self.robust {
            "RobustMPC"
        } else {
            "MPC"
        }
    }

    fn choose(&mut self, ctx: &AbrContext) -> usize {
        let num_q = ctx.num_qualities();
        let remaining = ctx.asset.num_chunks().saturating_sub(ctx.next_chunk);
        if num_q <= 1 || remaining == 0 {
            // One rung, or no chunk left to score: every plan ties and the
            // first plan (all rung 0) wins.
            return 0;
        }
        let horizon = self.horizon.clamp(1, remaining);
        let mut search = PlanSearch::new(self, ctx, horizon);
        let prev_rate = ctx.last_quality.map(|q| search.rates[q]);
        search.visit(0, ctx.buffer_s, 0.0, prev_rate);
        search.best_plan[0]
    }
}

/// Exact branch-and-bound over the `num_q^horizon` quality plans.
///
/// Plans that share a prefix share its buffer, QoE and previous-rate state,
/// so each prefix is evaluated once. Scores accumulate in the objective's
/// term order (`+ rate`, `− λ|Δrate|`, `− μ·rebuffer`), so every leaf score
/// is bit-identical to scoring that plan from step 0. The winner is the
/// maximum score; exact ties go to the smallest plan index
/// `Σ plan[s]·num_q^s`, the first maximum of an enumeration that counts
/// with `plan[0]` as the fastest digit.
struct PlanSearch {
    weights: QoeWeights,
    chunk_dur: f64,
    capacity: f64,
    /// Nominal bitrate per rung, Mbps.
    rates: Vec<f64>,
    /// Predicted download time of step `s` at rung `q`, at `s * num_q + q`.
    download_s: Vec<f64>,
    top_rate: f64,
    /// Whether subtrees may be cut by the optimistic bound. The bound (every
    /// remaining step earns the top bitrate and pays nothing) holds only
    /// for non-negative penalty weights.
    prune: bool,
    plan: Vec<usize>,
    best_plan: Vec<usize>,
    best_score: f64,
}

impl PlanSearch {
    fn new(mpc: &Mpc, ctx: &AbrContext, horizon: usize) -> Self {
        let asset = ctx.asset;
        let rates = asset.ladder().bitrates();
        let predicted = mpc.predicted_throughput(ctx);
        let download_s = (ctx.next_chunk..ctx.next_chunk + horizon)
            .flat_map(|chunk| (0..rates.len()).map(move |q| (chunk, q)))
            .map(|(chunk, q)| asset.size_bytes(chunk, q) * 8.0 / 1e6 / predicted)
            .collect();
        let weights = mpc.weights;
        Self {
            weights,
            chunk_dur: asset.chunk_duration_s(),
            capacity: ctx.buffer_capacity_s,
            top_rate: rates.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            rates,
            download_s,
            prune: weights.smoothness_lambda >= 0.0 && weights.rebuffer_mu >= 0.0,
            plan: vec![0; horizon],
            // Before any leaf the incumbent is plan 0 at −∞: only a strictly
            // greater score replaces it, as in the enumeration.
            best_plan: vec![0; horizon],
            best_score: f64::NEG_INFINITY,
        }
    }

    /// Offers the current `plan` as a finished leaf scoring `score`.
    fn offer(&mut self, score: f64) {
        // Index order compares from the most significant digit, the last step.
        let precedes = || self.plan.iter().rev().lt(self.best_plan.iter().rev());
        if score > self.best_score || (score == self.best_score && precedes()) {
            self.best_score = score;
            self.best_plan.copy_from_slice(&self.plan);
        }
    }

    /// Expands every rung at `step`, given the buffer, QoE and previous rate
    /// after the prefix `plan[..step]`. Each chunk takes its predicted
    /// download time, during which the buffer drains; on completion the
    /// buffer gains one chunk duration, capped at capacity. Rungs go top
    /// first: high-rate plans raise the incumbent early.
    fn visit(&mut self, step: usize, buffer: f64, qoe: f64, prev_rate: Option<f64>) {
        let num_q = self.rates.len();
        let steps_left = self.plan.len() - step - 1;
        for q in (0..num_q).rev() {
            let dt = self.download_s[step * num_q + q];
            let rebuffer = (dt - buffer).max(0.0);
            let rate = self.rates[q];
            let mut score = qoe + rate;
            if let Some(prev) = prev_rate {
                score -= self.weights.smoothness_lambda * (rate - prev).abs();
            }
            score -= self.weights.rebuffer_mu * rebuffer;
            self.plan[step] = q;
            if steps_left == 0 {
                self.offer(score);
            } else if !(self.prune && self.bound(score, steps_left) < self.best_score) {
                let next_buffer = ((buffer - dt).max(0.0) + self.chunk_dur).min(self.capacity);
                self.visit(step + 1, next_buffer, score, Some(rate));
            }
        }
    }

    /// Upper bound on any leaf below a prefix scoring `qoe` with `steps`
    /// steps to go. It adds the top rate with the same float additions a
    /// leaf performs and rounding is monotone, so no leaf can exceed it and
    /// a cut needs no rounding margin.
    fn bound(&self, qoe: f64, steps: usize) -> f64 {
        (0..steps).fold(qoe, |acc, _| acc + self.top_rate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use veritas_media::VideoAsset;

    fn ctx<'a>(
        asset: &'a VideoAsset,
        tput: &'a [f64],
        buffer_s: f64,
        last_quality: Option<usize>,
    ) -> AbrContext<'a> {
        AbrContext {
            asset,
            next_chunk: 20,
            buffer_s,
            buffer_capacity_s: 5.0,
            throughput_history_mbps: tput,
            download_time_history_s: &[],
            last_quality,
        }
    }

    #[test]
    fn poor_throughput_history_selects_low_quality() {
        let asset = VideoAsset::paper_default(1);
        let mut mpc = Mpc::new();
        let tput = [0.2, 0.25, 0.2, 0.22];
        let q = mpc.choose(&ctx(&asset, &tput, 2.0, Some(0)));
        assert_eq!(q, 0, "0.2 Mbps history must keep MPC at the lowest rung");
    }

    #[test]
    fn rich_throughput_and_full_buffer_selects_high_quality() {
        let asset = VideoAsset::paper_default(1);
        let mut mpc = Mpc::new();
        let tput = [9.0, 9.5, 10.0, 9.0];
        let q = mpc.choose(&ctx(&asset, &tput, 5.0, Some(4)));
        assert!(q >= asset.num_qualities() - 2, "got rung {q}");
    }

    #[test]
    fn quality_is_weakly_monotone_in_predicted_throughput() {
        let asset = VideoAsset::paper_default(1);
        let mut mpc = Mpc::new();
        let mut prev = 0usize;
        for tput in [0.2, 0.5, 1.0, 2.0, 4.0, 6.0, 9.0] {
            let hist = [tput; 4];
            let q = mpc.choose(&ctx(&asset, &hist, 4.0, Some(prev)));
            assert!(q >= prev || q + 1 >= prev, "tput {tput}: {prev} -> {q}");
            prev = q;
        }
    }

    #[test]
    fn empty_buffer_is_conservative_even_with_good_history() {
        let asset = VideoAsset::paper_default(1);
        let mut mpc = Mpc::new();
        let tput = [6.0, 6.0, 6.0];
        let q_empty = mpc.choose(&ctx(&asset, &tput, 0.0, Some(2)));
        let q_full = mpc.choose(&ctx(&asset, &tput, 5.0, Some(2)));
        assert!(q_empty <= q_full);
    }

    #[test]
    fn robust_variant_is_no_more_aggressive_than_plain_mpc() {
        let asset = VideoAsset::paper_default(1);
        let mut mpc = Mpc::new();
        let mut robust = Mpc::robust();
        // Volatile history inflates the error estimate.
        let tput = [1.0, 8.0, 1.5, 7.0];
        let q_plain = mpc.choose(&ctx(&asset, &tput, 3.0, Some(2)));
        let q_robust = robust.choose(&ctx(&asset, &tput, 3.0, Some(2)));
        assert!(q_robust <= q_plain);
    }

    #[test]
    fn no_history_still_returns_a_valid_choice() {
        let asset = VideoAsset::paper_default(1);
        let mut mpc = Mpc::new();
        let q = mpc.choose(&ctx(&asset, &[], 1.0, None));
        assert!(q < asset.num_qualities());
    }

    #[test]
    fn horizon_end_of_video_does_not_panic() {
        let asset = VideoAsset::paper_default(1);
        let mut mpc = Mpc::new();
        let tput = [3.0, 3.0];
        let c = AbrContext {
            asset: &asset,
            next_chunk: asset.num_chunks() - 1,
            buffer_s: 3.0,
            buffer_capacity_s: 5.0,
            throughput_history_mbps: &tput,
            download_time_history_s: &[],
            last_quality: Some(2),
        };
        let q = mpc.choose(&c);
        assert!(q < asset.num_qualities());
    }

    #[test]
    fn zero_horizon_searches_one_step() {
        let asset = VideoAsset::paper_default(1);
        let tput = [3.0, 3.0];
        let c = ctx(&asset, &tput, 3.0, Some(2));
        let mut zero = Mpc {
            horizon: 0,
            ..Mpc::new()
        };
        assert_eq!(zero.choose(&c), Mpc::new().with_horizon(1).choose(&c));
    }

    #[test]
    fn horizon_past_the_end_of_video_is_capped() {
        let asset = VideoAsset::paper_default(1);
        let tput = [3.0, 3.0];
        let c = AbrContext {
            next_chunk: asset.num_chunks() - 3,
            ..ctx(&asset, &tput, 3.0, Some(2))
        };
        // Only 3 chunks remain, so a horizon of 100 searches 3 steps.
        let mut long = Mpc::new().with_horizon(100);
        assert_eq!(long.choose(&c), Mpc::new().with_horizon(3).choose(&c));
        let past_end = AbrContext {
            next_chunk: asset.num_chunks(),
            ..c
        };
        assert_eq!(long.choose(&past_end), 0);
    }

    #[test]
    fn smoothness_penalty_discourages_oscillation() {
        let asset = VideoAsset::paper_default(1);
        // With an enormous smoothness penalty the controller should stay at
        // the previous quality when throughput is moderate.
        let mut sticky = Mpc::new().with_weights(QoeWeights {
            smoothness_lambda: 100.0,
            rebuffer_mu: 8.0,
        });
        let tput = [2.5, 2.5, 2.5];
        let q = sticky.choose(&ctx(&asset, &tput, 4.0, Some(2)));
        assert_eq!(q, 2);
    }

    #[test]
    fn names_distinguish_variants() {
        assert_eq!(Mpc::new().name(), "MPC");
        assert_eq!(Mpc::robust().name(), "RobustMPC");
    }
}
