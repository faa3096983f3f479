//! `abduce-cold`: EHMM inference with nothing cached.
//!
//! The same kind of corpus as `cf-mpc`. A request is an abduction-shaped
//! `Query::sweep` over one session across epsilon in {0.5, 0.25, 0.1}
//! times sigma in {0.5, 1.0}, run on a fresh engine with no disk tier,
//! so every one of its six units is a real EHMM inference (21, 41 and
//! 101 states) and a cache write; replay is bypassed.

use std::sync::Arc;

use veritas::{baseline_trace, Abduction, VeritasConfig};
use veritas_engine::{
    AbductionCache, ConfigSweep, Engine, Query, QueryKind, QueryOutput, QueryPlan, QueryRecord,
    QuerySet, RunSummary, SessionCorpus,
};
use veritas_trace::stats::trace_mae;

use crate::common::{
    closed_loop, finish_traced, normalized, paired_loop, shared, synth_corpus, timed, Accuracy,
    LayerReport, Opts, Report, ACCURACY_SESSIONS, SETUPS,
};
use crate::stats::samples_for;
use crate::trace::Tracer;

/// Workload name.
pub const NAME: &str = "abduce-cold";
/// Sessions in the corpus; the request stream cycles over them.
const SESSIONS: usize = 32;
/// Query id of the sweep.
const QUERY: &str = "abduce";
/// Units (sweep variants) per request.
const VARIANTS: usize = 6;
/// Tail percentile reported.
const TAIL: f64 = 90.0;

fn query_set(session: usize) -> QuerySet {
    let sweep = ConfigSweep::new()
        .over_epsilon(vec![0.5, 0.25, 0.1])
        .over_sigma(vec![0.5, 1.0]);
    QuerySet::new(NAME, VeritasConfig::paper_default())
        .with_query(Query::sweep(QUERY, sweep).with_sessions(vec![session]))
}

/// One request: a fresh engine (empty cache, no disk tier) runs the
/// sweep. Returns its records and summary.
fn engine_request(
    corpus: &Arc<SessionCorpus>,
    session: usize,
) -> Result<(Vec<QueryRecord>, RunSummary), String> {
    let engine = Engine::builder()
        .threads(1)
        .build()
        .map_err(|e| e.to_string())?;
    let plan =
        QueryPlan::compile(&query_set(session), corpus.as_ref()).map_err(|e| e.to_string())?;
    let report = engine
        .submit_shared(shared(corpus), Arc::new(plan))
        .map_err(|e| e.to_string())?
        .wait();
    let summary = &report.summary;
    if summary.cache_misses != VARIANTS as u64 || summary.cache_hits != 0 || summary.disk_hits != 0
    {
        return Err(format!("expected {VARIANTS} inferences, got {summary:?}"));
    }
    if report.records.len() != VARIANTS || !report.records.iter().all(QueryRecord::is_ok) {
        return Err(format!(
            "expected {VARIANTS} ok records, got {:?}",
            report.records
        ));
    }
    Ok((report.records, report.summary))
}

/// Mean Viterbi MAE against the ground truth over the fixed evaluation
/// sessions, against the MAE of the Baseline's observed-throughput
/// trace.
fn accuracy(corpus: &SessionCorpus, records: &[QueryRecord]) -> Accuracy {
    let veritas: Vec<f64> = records
        .iter()
        .filter_map(|r| r.output.as_ref()?.viterbi_mae_vs_truth_mbps)
        .collect();
    let delta_s = VeritasConfig::paper_default().delta_s;
    let sessions = ACCURACY_SESSIONS;
    let baseline: f64 = corpus.sessions[..sessions]
        .iter()
        .map(|s| {
            let truth = s.truth.as_ref().expect("synthetic corpora carry the truth");
            let horizon = s.log.session_duration_s.min(truth.duration());
            trace_mae(
                &truth.with_duration(horizon),
                &baseline_trace(&s.log, delta_s),
                delta_s,
            )
        })
        .sum();
    let veritas_mae = veritas.iter().sum::<f64>() / veritas.len().max(1) as f64;
    Accuracy {
        what: "GTBW MAE vs truth (Mbps)",
        veritas: veritas_mae,
        baseline: baseline / sessions.max(1) as f64,
        samples: veritas.len() as u64,
        extra: vec![("viterbi_mae_mbps", "Mbps", veritas_mae)],
    }
}

/// The same request, made of the layers' public calls: emission table
/// and inference are timed apart, through the workspace a fresh cache
/// would hand a miss.
fn traced_request(
    corpus: &SessionCorpus,
    tracer: &mut Tracer,
    layers: &mut LayerReport,
    i: u64,
) -> Result<Vec<QueryRecord>, String> {
    let si = i as usize % SESSIONS;
    tracer.request(i, |t| {
        let set = query_set(si);
        let plan = t
            .span("plan.compile", |_| QueryPlan::compile(&set, corpus))
            .map_err(|e| e.to_string())?;
        let cache = AbductionCache::new();
        let session = &corpus.sessions[si];
        let log = &session.log;
        let mut records = Vec::new();
        for unit in plan.units() {
            let planned = &plan.configs()[unit.config];
            let config = &planned.config;
            let rows = t.span("ehmm.emission", |_| {
                config.validate()?;
                let capacities = config.capacity_grid();
                Ok::<_, String>(
                    log.records
                        .iter()
                        .map(|r| Abduction::emission_row(r, &capacities, config.sigma_mbps))
                        .collect(),
                )
            })?;
            let abduction = t
                .span("ehmm.infer", |_| {
                    Abduction::try_infer_prepared(log, config, rows, cache.workspace_for(config))
                })
                .map_err(|e| e.to_string())?;
            layers.cache_misses += 1;
            let output = t.span("answer", |_| {
                let viterbi = abduction.viterbi_trace();
                let mae = session.truth.as_ref().map(|truth| {
                    let horizon = log.session_duration_s.min(truth.duration());
                    trace_mae(&truth.with_duration(horizon), &viterbi, config.delta_s)
                });
                QueryOutput {
                    chunks: Some(log.records.len()),
                    mean_capacity_mbps: Some(viterbi.mean()),
                    viterbi_mae_vs_truth_mbps: mae,
                    ..QueryOutput::default()
                }
            });
            let record = QueryRecord {
                query_id: QUERY.to_string(),
                kind: QueryKind::Sweep,
                session: session.id.clone(),
                variant: planned.label.clone(),
                status: "ok".to_string(),
                error: None,
                cache: Some("miss".to_string()),
                elapsed_us: 0,
                output: Some(output),
                attempts: None,
            };
            let line = t
                .span("runner.serialize", |_| serde_json::to_string(&record))
                .map_err(|e| e.to_string())?;
            layers.record_bytes += line.len() as u64;
            layers.records += 1;
            records.push(record);
        }
        Ok(records)
    })
}

/// Runs the workload.
pub fn run(opts: &Opts) -> Result<Report, String> {
    let mut report = Report::new(NAME);
    let min_requests = samples_for(TAIL).max(SESSIONS) as u64;
    let setup = || timed(|| Arc::new(synth_corpus(SESSIONS, opts.corpus_seed(2))));
    if !opts.trace {
        let mut setups = Vec::new();
        let mut corpus = None;
        for _ in 0..SETUPS {
            let (c, setup_s) = setup();
            corpus = Some(c);
            setups.push(setup_s);
        }
        let corpus = corpus.expect("at least one set-up");
        let mut evaluated = Vec::new();
        let run = closed_loop(
            opts.seconds,
            |i| i >= min_requests,
            |i| {
                let (records, _) = engine_request(&corpus, i as usize % SESSIONS)?;
                if i < ACCURACY_SESSIONS as u64 {
                    evaluated.extend(records);
                }
                Ok(VARIANTS as u64)
            },
        );
        report.check(evaluated.len() == ACCURACY_SESSIONS * VARIANTS, || {
            "the evaluation sessions were not all answered".to_string()
        });
        report.end_to_end(&setups, &run, TAIL, accuracy(&corpus, &evaluated));
        return Ok(report);
    }

    let mut tracer = Tracer::new(std::time::Instant::now());
    let (corpus, corpus_s) = setup();
    let mut layers = LayerReport {
        synth_corpus_s: corpus_s,
        ..LayerReport::default()
    };
    let (mut reference, mut traced_records) = (Vec::new(), Vec::new());
    let mut summary_misses = 0u64;
    let (untraced, traced) = paired_loop(
        opts.seconds,
        |i| i >= SESSIONS as u64,
        |i| {
            let (records, summary) = engine_request(&corpus, i as usize % SESSIONS)?;
            summary_misses += summary.cache_misses;
            if i < SESSIONS as u64 {
                reference.extend(records.iter().map(normalized));
            }
            Ok(VARIANTS as u64)
        },
        |i| {
            let records = traced_request(&corpus, &mut tracer, &mut layers, i)?;
            if i < SESSIONS as u64 {
                traced_records.extend(records.iter().map(normalized));
            }
            Ok(VARIANTS as u64)
        },
    );
    report.check(traced_records == reference, || {
        "traced answers differ from the engine's".to_string()
    });
    // Both sides ran the same requests: the traced inferences must equal
    // the misses the engine's RunSummary counted.
    report.check(layers.cache_misses == summary_misses, || {
        format!(
            "traced inferences {} disagree with RunSummary.cache_misses {summary_misses}",
            layers.cache_misses
        )
    });
    finish_traced(&mut report, opts, tracer, layers, &untraced, &traced)?;
    Ok(report)
}
