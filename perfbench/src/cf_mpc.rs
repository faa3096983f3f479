//! `cf-mpc`: the counterfactual that replays the deployed MPC.
//!
//! Library front end (`Engine::submit_shared`, one worker thread) over
//! an eager synthetic corpus with ground truth; the posterior cache is
//! warmed in set-up. A request is the `what-if-30s-buffer`
//! counterfactual on one session: every request is a memory hit
//! followed by K posterior-sample replays, one Baseline and one Oracle
//! replay of MPC. Replay dominates, so an ABR or replay change shows
//! here and nowhere else.

use std::sync::Arc;

use veritas::{baseline_trace, oracle_trace, RangePrediction, VeritasConfig};
use veritas_engine::{
    log_fingerprint, materialize_scenario, CacheSource, Engine, Query, QueryKind, QueryOutput,
    QueryPlan, QueryRecord, QuerySet, RangeSummary, ScenarioSpec, SessionCorpus,
};

use crate::common::{
    closed_loop, finish_traced, normalized, paired_loop, shared, synth_corpus, timed, Accuracy,
    LayerReport, Opts, Report, ACCURACY_SESSIONS, SETUPS,
};
use crate::stats::samples_for;
use crate::trace::Tracer;

/// Workload name.
pub const NAME: &str = "cf-mpc";
/// Sessions in the corpus; the request stream cycles over them.
const SESSIONS: usize = 32;
/// Query id of the counterfactual.
const QUERY: &str = "what-if-30s-buffer";
/// Tail percentile reported.
const TAIL: f64 = 90.0;

fn scenario() -> ScenarioSpec {
    ScenarioSpec::buffer(30.0)
}

fn query_set(session: usize) -> QuerySet {
    QuerySet::new(NAME, VeritasConfig::paper_default())
        .with_query(Query::counterfactual(QUERY, scenario()).with_sessions(vec![session]))
}

struct World {
    corpus: Arc<SessionCorpus>,
    engine: Engine,
}

/// Synthesizes the corpus and warms the engine's posterior cache with
/// one full-session abduction per session. Returns the world and the
/// (synthesis, warm-up) times.
fn setup(opts: &Opts) -> Result<(World, f64, f64), String> {
    let (corpus, corpus_s) = timed(|| Arc::new(synth_corpus(SESSIONS, opts.corpus_seed(1))));
    let engine = Engine::builder()
        .threads(1)
        .build()
        .map_err(|e| e.to_string())?;
    let warm =
        QuerySet::new("warm", VeritasConfig::paper_default()).with_query(Query::abduction("warm"));
    let (report, warm_s) = timed(|| engine.run(&corpus, &warm));
    let report = report.map_err(|e| e.to_string())?;
    if report.summary.cache_misses != SESSIONS as u64 || report.summary.errors != 0 {
        return Err(format!("warm-up: {:?}", report.summary));
    }
    Ok((World { corpus, engine }, corpus_s, warm_s))
}

/// One request through the library front end.
fn engine_request(world: &World, session: usize) -> Result<QueryRecord, String> {
    let plan = QueryPlan::compile(&query_set(session), world.corpus.as_ref())
        .map_err(|e| e.to_string())?;
    let report = world
        .engine
        .submit_shared(shared(&world.corpus), Arc::new(plan))
        .map_err(|e| e.to_string())?
        .wait();
    let summary = &report.summary;
    if summary.cache_hits != 1 || summary.cache_misses != 0 || summary.disk_hits != 0 {
        return Err(format!("expected one warm cache hit, got {summary:?}"));
    }
    match report.records.as_slice() {
        [record] if record.is_ok() => Ok(record.clone()),
        records => Err(format!("expected one ok record, got {records:?}")),
    }
}

/// Veritas's and the Baseline's average-bitrate error against the
/// Oracle over one pass of the sessions.
fn accuracy(records: &[QueryRecord]) -> Accuracy {
    let (mut veritas, mut baseline, mut in_range) = (0.0, 0.0, 0usize);
    for record in records {
        let output = record.output.as_ref().expect("ok record");
        let range = output.veritas.expect("counterfactual range");
        let base = output.baseline.expect("baseline outcome");
        let oracle = output.oracle.expect("synthetic corpora carry the truth");
        veritas += (range.bitrate_median - oracle.avg_bitrate_mbps).abs();
        baseline += (base.avg_bitrate_mbps - oracle.avg_bitrate_mbps).abs();
        in_range += usize::from(
            range.bitrate_low <= oracle.avg_bitrate_mbps
                && oracle.avg_bitrate_mbps <= range.bitrate_high,
        );
    }
    let n = records.len().max(1) as f64;
    Accuracy {
        what: "avg-bitrate MAE vs Oracle (Mbps)",
        veritas: veritas / n,
        baseline: baseline / n,
        samples: records.len() as u64,
        extra: vec![("oracle_in_range_frac", "frac", in_range as f64 / n)],
    }
}

/// The same request, made of the layers' public calls with a span
/// around each.
fn traced_request(
    world: &World,
    tracer: &mut Tracer,
    layers: &mut LayerReport,
    i: u64,
) -> Result<QueryRecord, String> {
    let si = i as usize % SESSIONS;
    let corpus = world.corpus.as_ref();
    tracer.request(i, |t| {
        let set = query_set(si);
        let (plan, scenario) = t.span("plan.compile", |_| {
            let plan = QueryPlan::compile(&set, corpus).map_err(|e| e.to_string())?;
            let scenario = materialize_scenario(corpus, &scenario())?;
            Ok::<_, String>((plan, scenario))
        })?;
        let planned = &plan.configs()[0];
        let session = &corpus.sessions[si];
        let log = &session.log;
        let (abduction, source) = t
            .span("cache.lookup", |_| {
                world.engine.cache().get_or_infer_keyed(
                    &session.id,
                    log,
                    log_fingerprint(log),
                    log.records.len(),
                    &planned.config,
                    planned.fingerprint,
                )
            })
            .map_err(|e| e.to_string())?;
        match source {
            CacheSource::Memory => layers.cache_hits += 1,
            CacheSource::Disk => layers.cache_disk_hits += 1,
            CacheSource::Inferred => layers.cache_misses += 1,
        }
        let traces = t.span("sample", |_| {
            abduction
                .sample_traces_with_seed(planned.config.num_samples.max(1), planned.config.seed)
        });
        let mut replay = |t: &mut Tracer, trace: &veritas_trace::BandwidthTrace| {
            let qoe = t.span("replay", |_| scenario.replay(trace));
            layers.replay_chunks += qoe.chunks as u64;
            qoe
        };
        let samples = traces.iter().map(|trace| replay(t, trace)).collect();
        let base_trace = t.span("sample", |_| baseline_trace(log, planned.config.delta_s));
        let baseline = replay(t, &base_trace);
        let oracle = session.truth.as_ref().map(|truth| {
            let trace = t.span("sample", |_| oracle_trace(truth, log));
            replay(t, &trace)
        });
        let record = QueryRecord {
            query_id: QUERY.to_string(),
            kind: QueryKind::Counterfactual,
            session: session.id.clone(),
            variant: None,
            status: "ok".to_string(),
            error: None,
            cache: Some(source.label().to_string()),
            elapsed_us: 0,
            output: Some(QueryOutput {
                veritas: Some(RangeSummary::of(&RangePrediction { samples })),
                baseline: Some(baseline),
                oracle,
                ..QueryOutput::default()
            }),
            attempts: None,
        };
        let line = t
            .span("runner.serialize", |_| serde_json::to_string(&record))
            .map_err(|e| e.to_string())?;
        layers.record_bytes += line.len() as u64;
        layers.records += 1;
        Ok(record)
    })
}

/// Runs the workload.
pub fn run(opts: &Opts) -> Result<Report, String> {
    let mut report = Report::new(NAME);
    let min_requests = samples_for(TAIL).max(SESSIONS) as u64;
    if !opts.trace {
        let mut setups = Vec::new();
        let mut world = None;
        for _ in 0..SETUPS {
            let (w, total_s) = timed(|| setup(opts));
            world = Some(w?.0);
            setups.push(total_s);
        }
        let world = world.expect("at least one set-up");
        let mut evaluated = Vec::new();
        let run = closed_loop(
            opts.seconds,
            |i| i >= min_requests,
            |i| {
                let record = engine_request(&world, i as usize % SESSIONS)?;
                if i < ACCURACY_SESSIONS as u64 {
                    evaluated.push(record);
                }
                Ok(1)
            },
        );
        report.check(evaluated.len() == ACCURACY_SESSIONS, || {
            "the evaluation sessions were not all answered".to_string()
        });
        report.end_to_end(&setups, &run, TAIL, accuracy(&evaluated));
        return Ok(report);
    }

    let mut tracer = Tracer::new(std::time::Instant::now());
    let (world, corpus_s, warm_s) = setup(opts)?;
    let mut layers = LayerReport {
        synth_corpus_s: corpus_s,
        synth_warm_s: warm_s,
        ..LayerReport::default()
    };
    let hits_before = world.engine.cache().hits();
    let (mut reference, mut traced_records) = (Vec::new(), Vec::new());
    let (untraced, traced) = paired_loop(
        opts.seconds,
        |i| i >= SESSIONS as u64,
        |i| {
            let record = engine_request(&world, i as usize % SESSIONS)?;
            if i < SESSIONS as u64 {
                reference.push(normalized(&record));
            }
            Ok(1)
        },
        |i| {
            let record = traced_request(&world, &mut tracer, &mut layers, i)?;
            if i < SESSIONS as u64 {
                traced_records.push(normalized(&record));
            }
            Ok(1)
        },
    );
    report.check(traced_records == reference, || {
        "traced answers differ from the engine's".to_string()
    });
    // Every engine request was one memory hit (engine_request checks its
    // RunSummary); the rest of the cache's own hit count must be the
    // traced lookups.
    let cache_hits = world.engine.cache().hits() - hits_before;
    let engine_hits = untraced.outcomes.attempted();
    report.check(
        cache_hits == engine_hits + layers.cache_hits && layers.cache_misses == 0,
        || {
            format!(
                "traced lookups ({} hits, {} misses) disagree with CacheStats \
                 ({cache_hits} hits, {engine_hits} of them the engine's)",
                layers.cache_hits, layers.cache_misses
            )
        },
    );
    finish_traced(&mut report, opts, tracer, layers, &untraced, &traced)?;
    Ok(report)
}
