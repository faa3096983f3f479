//! `Mpc::choose` against the exhaustive enumeration it replaced.
//!
//! The oracle below scores every one of the `num_q^horizon` plans from step
//! 0 and keeps the first maximum in index order. The branch-and-bound in
//! `Mpc::choose` must pick the same rung for every input, and a whole
//! player session driven by either must produce the same log.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use veritas_abr::{clamp_quality, Abr, AbrContext, Mpc, QoeWeights};
use veritas_media::{QualityLadder, VbrParams, VideoAsset};
use veritas_player::{run_session, PlayerConfig};
use veritas_trace::generators::{FccLike, TraceGenerator};

/// The exhaustive MPC search: every plan enumerated as a base-`num_q`
/// counter with `plan[0]` the fastest digit, each scored from step 0.
fn oracle_choose(mpc: &Mpc, ctx: &AbrContext) -> usize {
    let num_q = ctx.num_qualities();
    if num_q == 1 {
        return 0;
    }
    let remaining = ctx.asset.num_chunks().saturating_sub(ctx.next_chunk);
    let horizon = mpc.horizon.min(remaining.max(1));
    let predicted = oracle_predicted_throughput(mpc, ctx);
    let mut best_plan_first = 0usize;
    let mut best_score = f64::NEG_INFINITY;
    let total_plans = num_q.pow(horizon as u32);
    let mut plan = vec![0usize; horizon];
    for idx in 0..total_plans {
        let mut rem = idx;
        for slot in plan.iter_mut() {
            *slot = rem % num_q;
            rem /= num_q;
        }
        let score = oracle_score_plan(mpc, ctx, &plan, predicted);
        if score > best_score {
            best_score = score;
            best_plan_first = plan[0];
        }
    }
    clamp_quality(best_plan_first, num_q)
}

fn oracle_predicted_throughput(mpc: &Mpc, ctx: &AbrContext) -> f64 {
    let base = ctx
        .harmonic_mean_throughput(mpc.prediction_window)
        .unwrap_or(1.0)
        .max(1e-3);
    if mpc.robust {
        base / (1.0 + ctx.recent_prediction_error(mpc.prediction_window))
    } else {
        base
    }
}

fn oracle_score_plan(mpc: &Mpc, ctx: &AbrContext, plan: &[usize], predicted: f64) -> f64 {
    let asset = ctx.asset;
    let chunk_dur = asset.chunk_duration_s();
    let mut buffer = ctx.buffer_s;
    let mut qoe = 0.0;
    let mut prev_rate = ctx.last_quality.map(|q| asset.ladder().bitrate(q));
    for (step, &q) in plan.iter().enumerate() {
        let chunk = ctx.next_chunk + step;
        if chunk >= asset.num_chunks() {
            break;
        }
        let size = asset.size_bytes(chunk, q);
        let dt = size * 8.0 / 1e6 / predicted;
        let rebuffer = (dt - buffer).max(0.0);
        buffer = (buffer - dt).max(0.0) + chunk_dur;
        buffer = buffer.min(ctx.buffer_capacity_s);
        let rate = asset.ladder().bitrate(q);
        qoe += rate;
        if let Some(prev) = prev_rate {
            qoe -= mpc.weights.smoothness_lambda * (rate - prev).abs();
        }
        qoe -= mpc.weights.rebuffer_mu * rebuffer;
        prev_rate = Some(rate);
    }
    qoe
}

/// The oracle as a player-drivable ABR, named like the controller it checks
/// so the two session logs can be compared whole.
struct OracleMpc(Mpc);

impl Abr for OracleMpc {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn choose(&mut self, ctx: &AbrContext) -> usize {
        oracle_choose(&self.0, ctx)
    }
}

/// Rungs drawn from a coarse grid so duplicate bitrates (exact score ties)
/// are common.
fn ladder(kind: usize, seed: u64) -> QualityLadder {
    match kind {
        0 => QualityLadder::paper_default(),
        1 => QualityLadder::paper_higher_qualities(),
        _ => {
            const GRID: [f64; 7] = [0.1, 0.4, 1.0, 2.5, 4.0, 6.0, 8.0];
            let mut rng = StdRng::seed_from_u64(seed);
            let rungs = rng.gen_range(1..=6usize);
            let rates: Vec<f64> = (0..rungs)
                .map(|_| GRID[rng.gen_range(0..GRID.len())])
                .collect();
            QualityLadder::from_bitrates(&rates)
        }
    }
}

/// Weights covering the defaults, zero, and negative values (which must
/// switch pruning off).
fn weight(kind: usize, default: f64, draw: f64) -> f64 {
    match kind {
        0 => default,
        1 => 0.0,
        2 => -draw,
        _ => draw,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3000))]

    #[test]
    fn choose_matches_the_exhaustive_enumeration(
        (ladder_kind, asset_seed, num_chunks, horizon) in (0usize..5, any::<u64>(), 1usize..=24, 1usize..=6),
        (end_offset, near_end, buffer_frac, big_buffer, last_raw) in
            (0usize..=24, any::<bool>(), 0.0f64..=1.0, any::<bool>(), 0usize..=6),
        (history, zero_at, robust) in (prop::collection::vec(0.05f64..12.0, 0..8), 0usize..10, any::<bool>()),
        (lambda_kind, mu_kind, lambda_draw, mu_draw, buffer_edge) in
            (0usize..5, 0usize..5, 0.0f64..20.0, 0.0f64..20.0, 0usize..6),
    ) {
        let asset = VideoAsset::generate(
            ladder(ladder_kind, asset_seed),
            num_chunks as f64 * 2.0,
            2.0,
            VbrParams::default(),
            asset_seed,
        );
        let num_chunks = asset.num_chunks();
        // Half the cases sit within one horizon of the end (or past it).
        let next_chunk = if near_end {
            num_chunks.saturating_sub(end_offset % (horizon + 2))
        } else {
            end_offset.min(num_chunks)
        };
        let capacity = if big_buffer { 30.0 } else { 5.0 };
        let buffer_s = match buffer_edge {
            0 => 0.0,
            1 => capacity,
            _ => buffer_frac * capacity,
        };
        let mut history = history;
        if zero_at < history.len() {
            history[zero_at] = 0.0;
        }
        let last_quality = (last_raw < asset.num_qualities()).then_some(last_raw);
        let ctx = AbrContext {
            asset: &asset,
            next_chunk,
            buffer_s,
            buffer_capacity_s: capacity,
            throughput_history_mbps: &history,
            download_time_history_s: &[],
            last_quality,
        };
        let mpc = Mpc {
            horizon,
            prediction_window: 5,
            weights: QoeWeights {
                smoothness_lambda: weight(lambda_kind, 1.0, lambda_draw),
                rebuffer_mu: weight(mu_kind, 8.0, mu_draw),
            },
            robust,
        };
        let mut fast = mpc;
        prop_assert_eq!(fast.choose(&ctx), oracle_choose(&mpc, &ctx), "{:?} at {:?}", mpc, ctx);
    }
}

#[test]
fn sessions_match_the_exhaustive_enumeration() {
    let asset = VideoAsset::generate(
        QualityLadder::paper_default(),
        200.0,
        2.0,
        VbrParams::default(),
        11,
    );
    for seed in [1u64, 2, 3] {
        let trace = FccLike::new(0.5, 8.0).generate(400.0, seed);
        for capacity in [5.0, 30.0] {
            let config = PlayerConfig::paper_default().with_buffer_capacity(capacity);
            for mpc in [Mpc::new(), Mpc::robust()] {
                let fast = run_session(&asset, &mut { mpc }, &trace, &config);
                let oracle = run_session(&asset, &mut OracleMpc(mpc), &trace, &config);
                assert_eq!(
                    fast,
                    oracle,
                    "{} diverged on trace {seed} at {capacity} s",
                    mpc.name()
                );
            }
        }
    }
}
