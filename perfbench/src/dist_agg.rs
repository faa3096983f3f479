//! `dist-agg`: whole-corpus aggregates through the shard coordinator.
//!
//! `Coordinator::connect` to two in-process `Service` workers over the
//! same `.vcorp`, sharing a cache directory populated in set-up (the
//! workers start cold and restore every posterior from disk during the
//! warm-up request). A request is a whole-corpus aggregate set:
//! `mean_capacity_mbps` and `rebuffer_ratio_percent` under BBA. The only
//! workload that runs shard dispatch, merge and the coordinator fold,
//! and the disk cache tier.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use veritas::{baseline_trace, VeritasConfig};
use veritas_engine::{
    AggregateMetric, AggregateSpec, Coordinator, Corpus, CorpusSource, DistConfig, Engine,
    EngineReport, LazyCorpus, Query, QueryPlan, QueryRecord, QuerySet, ScenarioSpec, Service,
    ServiceConfig, ServiceHandle, SessionCorpus, AGGREGATE_SESSION,
};

use crate::common::{
    closed_loop, finish_traced, full_decode_bytes, ingest, normalized, paired_loop, synth_corpus,
    timed, Accuracy, LayerReport, Opts, Report, StoreCounters, ACCURACY_SESSIONS, SETUPS,
};
use crate::stats::samples_for;
use crate::trace::Tracer;

/// Workload name.
pub const NAME: &str = "dist-agg";
/// Sessions in the corpus.
const SESSIONS: usize = 32;
/// Worker services.
const WORKERS: usize = 2;
/// Tail percentile reported.
const TAIL: f64 = 90.0;
/// Id of the capacity aggregate.
const CAPACITY: &str = "mean-capacity";

fn query_set() -> QuerySet {
    QuerySet::new(NAME, VeritasConfig::paper_default())
        .with_query(Query::aggregate(
            CAPACITY,
            AggregateSpec::of(AggregateMetric::MeanCapacityMbps),
        ))
        .with_query(Query::aggregate(
            "rebuffer-bba",
            AggregateSpec::of(AggregateMetric::RebufferRatioPercent)
                .with_scenario(ScenarioSpec::abr("bba")),
        ))
}

/// Work units of one request: one per (aggregate, session).
const UNITS: u64 = 2 * SESSIONS as u64;

struct World {
    corpus: Arc<SessionCorpus>,
    lazy: Arc<LazyCorpus>,
    vcorp: PathBuf,
    services: Vec<ServiceHandle>,
    coordinator: Coordinator,
    /// Posteriors the workers restored from disk during the warm-up.
    disk_hits: u64,
}

impl World {
    fn stop(self) {
        drop(self.coordinator);
        for service in self.services {
            service.stop();
        }
    }

    fn corpus(&self) -> Arc<dyn Corpus> {
        Arc::clone(&self.lazy) as Arc<dyn Corpus>
    }
}

/// Synthesis, ingest, cache-directory population, worker start and a
/// warm-up request that restores every posterior from disk. Returns
/// the world and the (synthesis, ingest, warm) times.
fn setup(opts: &Opts, attempt: usize) -> Result<(World, [f64; 3]), String> {
    let seed = opts.corpus_seed(4);
    let (corpus, corpus_s) = timed(|| Arc::new(synth_corpus(SESSIONS, seed)));
    let dir = opts.fresh_dir(&format!("setup-{attempt}"))?;
    let vcorp = dir.join("corpus.vcorp");
    let cache_dir = dir.join("cache");
    let (lazy, ingest_s) = timed(|| ingest(&corpus, &vcorp));
    let lazy = Arc::new(lazy?);
    let (warm, warm_s) = timed(|| {
        let set = query_set();
        let populate = Engine::builder()
            .threads(1)
            .cache_dir(&cache_dir)
            .build()
            .map_err(|e| e.to_string())?;
        let plan = QueryPlan::compile(&set, lazy.as_ref()).map_err(|e| e.to_string())?;
        let filled = populate
            .submit_shared(Arc::clone(&lazy) as Arc<dyn Corpus>, Arc::new(plan))
            .map_err(|e| e.to_string())?
            .wait();
        if filled.summary.cache_misses != SESSIONS as u64 {
            return Err(format!("cache population: {:?}", filled.summary));
        }
        let mut services = Vec::new();
        for _ in 0..WORKERS {
            let service = Service::bind(ServiceConfig {
                addr: "127.0.0.1:0".to_string(),
                corpus: CorpusSource::Vcorp(vcorp.clone()),
                threads: Some(1),
                cache_dir: Some(cache_dir.clone()),
                ..ServiceConfig::default()
            })
            .map_err(|e| e.to_string())?
            .spawn()
            .map_err(|e| e.to_string())?;
            services.push(service);
        }
        let coordinator = Coordinator::connect(
            services.iter().map(ServiceHandle::addr).collect(),
            DistConfig {
                io_timeout: Some(Duration::from_secs(30)),
                ..DistConfig::default()
            },
        )
        .map_err(|e| e.to_string())?;
        let warm = coordinator
            .run(Arc::clone(&lazy) as Arc<dyn Corpus>, &set)
            .map_err(|e| e.to_string())?;
        Ok((services, coordinator, warm))
    });
    let (services, coordinator, warm) = warm?;
    let restored: u64 = services.iter().map(|s| s.metrics().cache.disk_hits).sum();
    if warm.summary.disk_hits != SESSIONS as u64
        || warm.summary.cache_misses != 0
        || restored != warm.summary.disk_hits
    {
        return Err(format!(
            "warm-up should restore {SESSIONS} posteriors from disk: summary {:?}, workers {restored}",
            warm.summary
        ));
    }
    Ok((
        World {
            corpus,
            lazy,
            vcorp,
            services,
            coordinator,
            disk_hits: restored,
        },
        [corpus_s, ingest_s, warm_s],
    ))
}

/// Checks one distributed report and returns its normalized records.
fn checked(report: &EngineReport) -> Result<Vec<QueryRecord>, String> {
    let summary = &report.summary;
    if summary.errors != 0 || summary.shard_retries != 0 || summary.cache_hits != UNITS {
        return Err(format!("unexpected summary {summary:?}"));
    }
    Ok(report.records.iter().map(normalized).collect())
}

/// One request through the coordinator; its answers must equal the
/// first request's.
fn request(world: &World, reference: &mut Option<Vec<QueryRecord>>) -> Result<u64, String> {
    let report = world
        .coordinator
        .run(world.corpus(), &query_set())
        .map_err(|e| e.to_string())?;
    let records = checked(&report)?;
    match reference {
        Some(expected) if *expected != records => {
            Err("answers differ from the first request's".to_string())
        }
        Some(_) => Ok(UNITS),
        None => {
            *reference = Some(records);
            Ok(UNITS)
        }
    }
}

/// The distributed answers must equal a local engine run over the same
/// `.vcorp`.
fn check_local(report: &mut Report, world: &World, reference: &Option<Vec<QueryRecord>>) {
    let local = Engine::builder()
        .threads(1)
        .build()
        .map_err(|e| e.to_string())
        .and_then(|engine| {
            let plan =
                QueryPlan::compile(&query_set(), world.lazy.as_ref()).map_err(|e| e.to_string())?;
            engine
                .submit_shared(world.corpus(), Arc::new(plan))
                .map_err(|e| e.to_string())
        })
        .map(|handle| handle.wait());
    let matches = match (&local, reference) {
        (Ok(local), Some(reference)) => {
            local.records.iter().map(normalized).collect::<Vec<_>>() == *reference
        }
        _ => false,
    };
    report.check(matches, || {
        "the merged report differs from the local report".to_string()
    });
}

/// Per-session Viterbi mean capacity against the truth's mean, against
/// the Baseline's observed-throughput mean, over the fixed evaluation
/// sessions.
fn accuracy(corpus: &SessionCorpus, records: &[QueryRecord]) -> Accuracy {
    let index: HashMap<&str, usize> = corpus.sessions[..ACCURACY_SESSIONS]
        .iter()
        .enumerate()
        .map(|(i, s)| (s.id.as_str(), i))
        .collect();
    let delta_s = VeritasConfig::paper_default().delta_s;
    let (mut veritas, mut baseline, mut n) = (0.0, 0.0, 0u64);
    for record in records {
        if record.query_id != CAPACITY || record.session == AGGREGATE_SESSION {
            continue;
        }
        let (Some(&si), Some(value)) = (
            index.get(record.session.as_str()),
            record.output.as_ref().and_then(|o| o.metric_value),
        ) else {
            continue;
        };
        let session = &corpus.sessions[si];
        let truth = session
            .truth
            .as_ref()
            .expect("synthetic corpora carry the truth");
        let horizon = session.log.session_duration_s.min(truth.duration());
        let truth_mean = truth.with_duration(horizon).mean();
        veritas += (value - truth_mean).abs();
        baseline += (baseline_trace(&session.log, delta_s).mean() - truth_mean).abs();
        n += 1;
    }
    let d = n.max(1) as f64;
    Accuracy {
        what: "session mean-capacity error vs truth (Mbps)",
        veritas: veritas / d,
        baseline: baseline / d,
        samples: n,
        extra: Vec::new(),
    }
}

/// Per-request coordinator figures of the traced run.
#[derive(Default)]
struct DistSpans {
    overhead_ms: f64,
    skew: f64,
    retries: u64,
    requests: u64,
}

/// The request as compile + streamed coordinator run, noting when each
/// shard's records arrive.
fn traced_request(
    world: &World,
    shard_of: &HashMap<String, usize>,
    tracer: &mut Tracer,
    dist: &mut DistSpans,
    i: u64,
) -> Result<u64, String> {
    tracer.request(i, |t| {
        let set = query_set();
        let plan = t
            .span("plan.compile", |_| {
                QueryPlan::compile(&set, world.lazy.as_ref())
            })
            .map_err(|e| e.to_string())?;
        let (done, wall, summary) = t.span("dist.run", |_| {
            let start = Instant::now();
            let mut handle = world
                .coordinator
                .submit(world.corpus(), Arc::new(plan))
                .map_err(|e| e.to_string())?;
            let mut done = vec![None; WORKERS];
            for record in &mut handle {
                if let Some(&shard) = shard_of.get(&record.session) {
                    done[shard].get_or_insert_with(|| start.elapsed());
                }
            }
            let summary = handle.into_summary();
            Ok::<_, String>((done, start.elapsed(), summary))
        })?;
        if summary.errors != 0 || summary.cache_hits != UNITS {
            return Err(format!("unexpected summary {summary:?}"));
        }
        let shards: Vec<f64> = done.iter().flatten().map(Duration::as_secs_f64).collect();
        let slowest = shards.iter().copied().fold(0.0, f64::max);
        let mean = shards.iter().sum::<f64>() / shards.len().max(1) as f64;
        dist.overhead_ms += (wall.as_secs_f64() - slowest) * 1e3;
        dist.skew += crate::trace::ratio(slowest, mean);
        dist.retries += summary.shard_retries;
        dist.requests += 1;
        Ok(UNITS)
    })
}

/// Runs the workload.
pub fn run(opts: &Opts) -> Result<Report, String> {
    let mut report = Report::new(NAME);
    let min_requests = samples_for(TAIL) as u64;
    if !opts.trace {
        let mut setups = Vec::new();
        let mut world: Option<World> = None;
        for attempt in 0..SETUPS {
            if let Some(previous) = world.take() {
                previous.stop();
            }
            let (w, total_s) = timed(|| setup(opts, attempt));
            world = Some(w?.0);
            setups.push(total_s);
        }
        let world = world.expect("at least one set-up");
        let mut reference = None;
        let run = closed_loop(
            opts.seconds,
            |i| i >= min_requests,
            |_| request(&world, &mut reference),
        );
        check_local(&mut report, &world, &reference);
        let records = reference.unwrap_or_default();
        report.end_to_end(&setups, &run, TAIL, accuracy(&world.corpus, &records));
        world.stop();
        return Ok(report);
    }

    let (world, [corpus_s, ingest_s, warm_s]) = setup(opts, 0)?;
    let mut layers = LayerReport {
        synth_corpus_s: corpus_s,
        synth_ingest_s: ingest_s,
        synth_warm_s: warm_s,
        cache_disk_hits: world.disk_hits,
        ..LayerReport::default()
    };
    let hits_before: u64 = world.services.iter().map(|s| s.metrics().cache.hits).sum();
    let mut shard_of = HashMap::new();
    for shard in world.lazy.shard(WORKERS) {
        for &si in &shard.sessions {
            shard_of.insert(world.lazy.session_id_at(si).to_string(), shard.index);
        }
    }
    let mut tracer = Tracer::new(Instant::now());
    let mut dist = DistSpans::default();
    let mut reference = None;
    let (untraced, traced) = paired_loop(
        opts.seconds,
        |i| i >= 1,
        |_| request(&world, &mut reference),
        |i| traced_request(&world, &shard_of, &mut tracer, &mut dist, i),
    );
    check_local(&mut report, &world, &reference);
    // Every unit of every request is a memory hit on some worker: the
    // workers' own cache counters must have moved by exactly that much.
    let metrics: Vec<_> = world.services.iter().map(ServiceHandle::metrics).collect();
    let hits: u64 = metrics.iter().map(|m| m.cache.hits).sum::<u64>() - hits_before;
    let expected = untraced.outcomes.units + traced.outcomes.units;
    report.check(hits == expected, || {
        format!("worker cache hits moved by {hits}, the requests counted {expected} units")
    });
    layers.cache_hits = hits;
    layers.cache_misses = metrics.iter().map(|m| m.cache.misses).sum();
    let store = layers.store.get_or_insert_with(StoreCounters::default);
    for m in &metrics {
        let residency = m.residency.unwrap_or_default();
        store.bytes_decoded += residency.bytes_decoded;
        store.peak_resident_bytes += residency.peak_resident_bytes as u64;
    }
    store.full_bytes = full_decode_bytes(&world.vcorp)?;
    let d = dist.requests.max(1) as f64;
    layers.dist = Some((dist.overhead_ms / d, dist.skew / d, dist.retries));
    finish_traced(&mut report, opts, tracer, layers, &untraced, &traced)?;
    world.stop();
    Ok(report)
}
