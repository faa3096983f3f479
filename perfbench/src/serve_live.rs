//! `serve-live`: interventional queries against a live service.
//!
//! `Service::spawn` in-process over a `.vcorp` ingested in set-up, one
//! client connection per core, each a closed loop. A request is the
//! interventional query for one session and decision point k, asked
//! for every ladder rung's candidate size: the first rung's unit is a
//! prefix-abduction miss and the other four are memory hits, so every
//! request has the same shape. The stream walks sessions x decision
//! points. Wire, plan compilation and record serialization are a large
//! share of each unit.
//!
//! The service's posterior cache has no eviction, and every miss keeps
//! a posterior of a few hundred KB, so the run is cut into epochs: one
//! epoch is one pass of the stream against a fresh service, started
//! while the clients wait at a barrier. That keeps memory bounded and
//! every epoch's requests alike; the restarts are excluded from the
//! measured time. Later epochs must answer exactly as the first did.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::Instant;

use veritas::{InterventionalPredictor, VeritasConfig};
use veritas_engine::{
    AbductionCache, CacheSource, Corpus, CorpusSource, Engine, LazyCorpus, Query, QueryKind,
    QueryOutput, QueryPlan, QueryRecord, QuerySet, RunSummary, Service, ServiceConfig,
    ServiceHandle, SessionCorpus, SummaryEnvelope,
};

use crate::common::{
    finish_traced, full_decode_bytes, ingest, normalized, paired_loop, synth_corpus, timed,
    Accuracy, LayerReport, LoopResult, Opts, Report, StoreCounters, Window, ACCURACY_SESSIONS,
    SETUPS,
};
use crate::trace::Tracer;

/// Workload name.
pub const NAME: &str = "serve-live";
/// Sessions in the corpus.
const SESSIONS: usize = 32;
/// Decision points are every `STRIDE`-th chunk: k = 16, 32, ...
const STRIDE: usize = 16;
/// Tail percentile reported.
const TAIL: f64 = 99.0;
/// Every `CHECK_EVERY`-th first-epoch request of a client is answered
/// again in-process by `Engine::run` and compared.
const CHECK_EVERY: u64 = 5;

/// One epoch's request stream: session x decision point, dealt to the
/// clients in turn.
#[derive(Debug, Clone, Copy)]
struct Stream {
    /// Decision points per session.
    points: usize,
    /// Ladder rungs: the units of one request.
    rungs: usize,
    /// Connections the requests are dealt across.
    clients: usize,
}

/// One request of the stream: a (session, k) group.
#[derive(Debug, Clone, Copy)]
struct Req {
    group: u64,
    session: usize,
    k: usize,
}

impl Stream {
    fn new(corpus: &SessionCorpus, clients: usize) -> Self {
        let chunks = corpus.sessions.iter().map(|s| s.log.records.len()).min();
        Self {
            points: (chunks.unwrap_or(0).saturating_sub(1) / STRIDE).max(1),
            rungs: corpus.asset.num_qualities(),
            clients,
        }
    }

    /// Groups per epoch: every (session, k), rounded down to a multiple
    /// of the client count so each client gets the same share.
    fn groups(&self) -> u64 {
        let all = (SESSIONS * self.points) as u64;
        all - all % self.clients as u64
    }

    /// Requests one client sends per epoch.
    fn per_client(&self) -> u64 {
        self.groups() / self.clients as u64
    }

    /// Request `j` of an epoch, as sent by client `client`.
    fn req(&self, client: usize, j: u64) -> Req {
        let group = client as u64 + self.clients as u64 * j;
        Req {
            group,
            session: (group / self.points as u64) as usize,
            k: STRIDE * (1 + (group % self.points as u64) as usize),
        }
    }
}

/// One query per rung, in rung order, so the service answers the rungs
/// in that order.
fn query_set(corpus: &SessionCorpus, req: Req) -> QuerySet {
    (0..corpus.asset.num_qualities()).fold(
        QuerySet::new(NAME, VeritasConfig::paper_default()),
        |set, rung| {
            set.with_query(
                Query::interventional(&format!("rung-{rung}"))
                    .with_sessions(vec![req.session])
                    .with_chunk_index(req.k)
                    .with_candidate_size(corpus.asset.size_bytes(req.k, rung)),
            )
        },
    )
}

/// One client connection speaking the service's JSONL protocol.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: String,
}

impl Client {
    fn connect(addr: SocketAddr) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        let mut client = Self {
            reader,
            writer: stream,
            line: String::new(),
        };
        // One metrics round trip, so the connection is live before the
        // first timed request.
        client.send("{\"metrics\": true}")?;
        match client.read_line()? {
            line if line.starts_with("{\"metrics\"") => Ok(client),
            line => Err(format!("unexpected metrics answer: {line}")),
        }
    }

    fn send(&mut self, line: &str) -> Result<(), String> {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| e.to_string())
    }

    fn read_line(&mut self) -> Result<&str, String> {
        self.line.clear();
        match self.reader.read_line(&mut self.line) {
            Ok(0) => Err("connection closed".to_string()),
            Ok(_) => Ok(self.line.trim_end()),
            Err(e) => Err(e.to_string()),
        }
    }

    /// Posts a query set; returns its records and summary.
    fn query(&mut self, set: &QuerySet) -> Result<(Vec<QueryRecord>, RunSummary), String> {
        let set = serde_json::to_string(set).map_err(|e| e.to_string())?;
        self.send(&format!("{{\"query\": {set}}}"))?;
        let mut records = Vec::new();
        loop {
            let line = self.read_line()?;
            if line.starts_with("{\"summary\"") {
                let envelope: SummaryEnvelope =
                    serde_json::from_str(line).map_err(|e| format!("summary: {e}"))?;
                return Ok((records, envelope.summary));
            }
            if line.starts_with("{\"error\"") {
                return Err(line.to_string());
            }
            records.push(serde_json::from_str(line).map_err(|e| format!("record: {e}"))?);
        }
    }
}

fn start_service(vcorp: &Path) -> Result<ServiceHandle, String> {
    Service::bind(ServiceConfig {
        addr: "127.0.0.1:0".to_string(),
        corpus: CorpusSource::Vcorp(vcorp.to_path_buf()),
        threads: Some(1),
        ..ServiceConfig::default()
    })
    .map_err(|e| e.to_string())?
    .spawn()
    .map_err(|e| e.to_string())
}

struct World {
    corpus: Arc<SessionCorpus>,
    vcorp: PathBuf,
    service: Option<ServiceHandle>,
    clients: Vec<Client>,
    stream: Stream,
}

impl World {
    /// Closes every connection, then stops the service.
    fn shutdown(self) {
        drop(self.clients);
        if let Some(service) = self.service {
            service.stop();
        }
    }
}

/// Synthesis, `.vcorp` ingest, service start with one connection per
/// core. Returns the world and the (synthesis, ingest, warm) times.
fn setup(opts: &Opts, attempt: usize) -> Result<(World, [f64; 3]), String> {
    let seed = opts.corpus_seed(3);
    let (corpus, corpus_s) = timed(|| Arc::new(synth_corpus(SESSIONS, seed)));
    let dir = opts.fresh_dir(&format!("setup-{attempt}"))?;
    let vcorp = dir.join("corpus.vcorp");
    let (lazy, ingest_s) = timed(|| ingest(&corpus, &vcorp));
    drop(lazy?);
    let clients = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (started, warm_s) = timed(|| {
        let service = start_service(&vcorp)?;
        let connections = (0..clients)
            .map(|_| Client::connect(service.addr()))
            .collect::<Result<Vec<_>, String>>()?;
        Ok::<_, String>((service, connections))
    });
    let (service, connections) = started?;
    let stream = Stream::new(&corpus, clients);
    Ok((
        World {
            corpus,
            vcorp,
            service: Some(service),
            clients: connections,
            stream,
        },
        [corpus_s, ingest_s, warm_s],
    ))
}

/// What the services of a run counted, read by the epoch leader off
/// each service before replacing it.
#[derive(Debug, Default)]
struct Served {
    hits: u64,
    misses: u64,
    bytes_decoded: u64,
    epochs: u64,
    error: Option<String>,
}

/// The epoch protocol shared by the client threads.
struct Epochs {
    barrier: Barrier,
    service: Mutex<Option<ServiceHandle>>,
    addr: Mutex<Option<SocketAddr>>,
    stop: AtomicBool,
    served: Mutex<Served>,
    start: Instant,
    seconds: f64,
    vcorp: PathBuf,
}

impl Epochs {
    /// Called by every client once its share of an epoch is done and
    /// its connection closed. One client retires the old service and,
    /// unless the run's time is up, starts the next one. Returns the
    /// address to reconnect to, or `None` when the run is over.
    fn boundary(&self) -> Option<SocketAddr> {
        if self.barrier.wait().is_leader() {
            let mut slot = self.service.lock().expect("service lock");
            let mut served = self.served.lock().expect("served lock");
            if let Some(old) = slot.take() {
                let metrics = old.metrics();
                served.hits += metrics.cache.hits;
                served.misses += metrics.cache.misses;
                served.bytes_decoded += metrics.residency.map_or(0, |r| r.bytes_decoded);
                served.epochs += 1;
                // Let the old connections' threads finish, so the old
                // cache is freed before the next service fills its own.
                let deadline = Instant::now() + std::time::Duration::from_secs(5);
                while old.metrics().connections_active > 0 && Instant::now() < deadline {
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
                old.stop();
            }
            let mut next = None;
            if self.start.elapsed().as_secs_f64() < self.seconds {
                match start_service(&self.vcorp) {
                    Ok(service) => next = Some(service),
                    Err(e) => served.error = Some(e),
                }
            }
            *self.addr.lock().expect("addr lock") = next.as_ref().map(ServiceHandle::addr);
            self.stop.store(next.is_none(), Ordering::SeqCst);
            *slot = next;
        }
        self.barrier.wait();
        if self.stop.load(Ordering::SeqCst) {
            None
        } else {
            *self.addr.lock().expect("addr lock")
        }
    }
}

/// What one client's loop collected besides its timings.
#[derive(Default)]
struct ClientLog {
    /// Records labelled hit / miss by the server.
    hits: u64,
    misses: u64,
    /// Sampled first-epoch (query set, normalized records) pairs.
    sampled: Vec<(QuerySet, Vec<QueryRecord>)>,
    /// First-epoch answers for the logged rung:
    /// (predicted, actual, Baseline prediction) download times.
    accuracy: Vec<(f64, f64, f64)>,
    /// First-epoch normalized records by group.
    first_epoch: HashMap<u64, Vec<QueryRecord>>,
    /// Summed server-reported engine ms, and the rest of each round trip.
    engine_ms: f64,
    wire_ms: f64,
    trips: u64,
}

/// Sends request `j` of an epoch and checks its answer.
fn one_request(
    client: Option<&mut Client>,
    corpus: &SessionCorpus,
    req: Req,
    first_epoch: bool,
    j: u64,
    log: &mut ClientLog,
) -> Result<(), String> {
    let client = client.ok_or("not connected")?;
    let set = query_set(corpus, req);
    let sent = Instant::now();
    let (records, summary) = client.query(&set)?;
    let round_trip_ms = sent.elapsed().as_secs_f64() * 1e3;
    log.engine_ms += summary.elapsed_ms;
    log.wire_ms += round_trip_ms - summary.elapsed_ms;
    log.trips += 1;
    if records.len() != set.queries.len()
        || !records.iter().all(|r| r.is_ok() && r.output.is_some())
    {
        return Err(format!(
            "expected {} ok records, got {records:?}",
            set.queries.len()
        ));
    }
    for (rung, record) in records.iter().enumerate() {
        match record.cache.as_deref() {
            Some("miss") if rung == 0 => log.misses += 1,
            Some("hit") if rung > 0 => log.hits += 1,
            other => return Err(format!("rung {rung} answered from cache {other:?}")),
        }
    }
    let records: Vec<QueryRecord> = records.iter().map(normalized).collect();
    if !first_epoch {
        return match log.first_epoch.get(&req.group) {
            Some(first) if *first == records => Ok(()),
            _ => Err("answers differ from the first epoch's".to_string()),
        };
    }
    if j.is_multiple_of(CHECK_EVERY) {
        log.sampled.push((set, records.clone()));
    }
    let session = &corpus.sessions[req.session].log;
    if req.session < ACCURACY_SESSIONS {
        let logged = session.records[req.k].quality;
        let output = records[logged].output.as_ref().expect("checked above");
        let size = corpus.asset.size_bytes(req.k, logged);
        let observed = session.records[req.k - 1].throughput_mbps;
        log.accuracy.push((
            output.predicted_download_time_s.unwrap_or(f64::NAN),
            output.actual_download_time_s.unwrap_or(f64::NAN),
            size * 8.0 / 1e6 / observed,
        ));
    }
    log.first_epoch.insert(req.group, records);
    Ok(())
}

/// One client's closed loop: its share of each epoch, then the epoch
/// boundary, until the run's time is up. Time spent at boundaries is
/// excluded from the loop's wall time; each epoch is one window.
fn client_loop(
    epochs: &Epochs,
    corpus: &SessionCorpus,
    stream: Stream,
    index: usize,
    client: Client,
) -> (LoopResult, ClientLog) {
    let mut run = LoopResult::default();
    let mut log = ClientLog::default();
    let mut client = Some(client);
    let mut paused_s = 0.0;
    let mut epoch_start = Instant::now();
    for epoch in 0.. {
        let (requests, units) = (run.outcomes.attempted(), run.outcomes.units);
        for j in 0..stream.per_client() {
            let req = stream.req(index, j);
            let sent = Instant::now();
            match one_request(client.as_mut(), corpus, req, epoch == 0, j, &mut log) {
                Ok(()) => run
                    .outcomes
                    .ok(sent.elapsed().as_secs_f64() * 1e3, stream.rungs as u64),
                Err(e) => {
                    run.outcomes.fail();
                    if run.errors.len() < 5 {
                        run.errors.push(format!("epoch {epoch} request {j}: {e}"));
                    }
                }
            }
        }
        run.windows.push(Window {
            seconds: epoch_start.elapsed().as_secs_f64(),
            requests: run.outcomes.attempted() - requests,
            units: run.outcomes.units - units,
        });
        let paused = Instant::now();
        drop(client.take());
        let next = epochs.boundary();
        if let Some(addr) = next {
            client = match Client::connect(addr) {
                Ok(client) => Some(client),
                Err(e) => {
                    run.errors.push(e);
                    None
                }
            };
        }
        paused_s += paused.elapsed().as_secs_f64();
        epoch_start = Instant::now();
        if next.is_none() {
            break;
        }
    }
    run.wall_s = epochs.start.elapsed().as_secs_f64() - paused_s;
    (run, log)
}

/// Runs every client's loop on its own thread for at least `seconds`
/// (whole epochs), and merges the results. Leaves the world without a
/// service or connections.
fn serve(world: &mut World, seconds: f64) -> (LoopResult, ClientLog, Served) {
    let epochs = Epochs {
        barrier: Barrier::new(world.clients.len()),
        service: Mutex::new(world.service.take()),
        addr: Mutex::new(None),
        stop: AtomicBool::new(false),
        served: Mutex::new(Served::default()),
        start: Instant::now(),
        seconds,
        vcorp: world.vcorp.clone(),
    };
    let corpus = world.corpus.as_ref();
    let stream = world.stream;
    let clients = std::mem::take(&mut world.clients);
    let results: Vec<(LoopResult, ClientLog)> = std::thread::scope(|scope| {
        let epochs = &epochs;
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(c, client)| scope.spawn(move || client_loop(epochs, corpus, stream, c, client)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    world.service = epochs.service.into_inner().expect("service lock");
    let mut run = LoopResult::default();
    let mut log = ClientLog::default();
    for (r, l) in results {
        run.merge(r);
        log.hits += l.hits;
        log.misses += l.misses;
        log.sampled.extend(l.sampled);
        log.accuracy.extend(l.accuracy);
        log.first_epoch.extend(l.first_epoch);
        log.engine_ms += l.engine_ms;
        log.wire_ms += l.wire_ms;
        log.trips += l.trips;
    }
    (run, log, epochs.served.into_inner().expect("served lock"))
}

/// Checks the served answers: sampled records equal `Engine::run`'s,
/// and the services' own cache counters equal what the clients saw.
fn check_served(report: &mut Report, corpus: &SessionCorpus, log: &ClientLog, served: &Served) {
    let engine = Engine::builder()
        .threads(1)
        .build()
        .expect("default engine");
    let mismatches = log
        .sampled
        .iter()
        .filter(|(set, served)| match engine.run(corpus, set) {
            Ok(local) => local.records.iter().map(normalized).collect::<Vec<_>>() != *served,
            Err(_) => true,
        })
        .count();
    report.check(mismatches == 0, || {
        format!(
            "{mismatches} of {} sampled served records differ from Engine::run",
            log.sampled.len()
        )
    });
    report.check(served.hits == log.hits && served.misses == log.misses, || {
        format!(
            "service cache counters ({} hits, {} misses) disagree with the records ({} hits, {} misses)",
            served.hits, served.misses, log.hits, log.misses
        )
    });
    if let Some(error) = &served.error {
        report.problems.push(format!("service restart: {error}"));
    }
}

fn accuracy(log: &ClientLog) -> Accuracy {
    let n = log.accuracy.len().max(1) as f64;
    let veritas = log
        .accuracy
        .iter()
        .map(|(p, a, _)| (p - a).abs())
        .sum::<f64>()
        / n;
    let baseline = log
        .accuracy
        .iter()
        .map(|(_, a, b)| (b - a).abs())
        .sum::<f64>()
        / n;
    Accuracy {
        what: "download-time MAE, logged rung (s)",
        veritas,
        baseline,
        samples: log.accuracy.len() as u64,
        extra: vec![("dl_time_mae_s", "s", veritas)],
    }
}

/// The service's request, replayed in-process from the layers' public
/// calls over a lazy view of the same `.vcorp`.
fn replica_request(
    lazy: &LazyCorpus,
    corpus: &SessionCorpus,
    cache: &AbductionCache,
    tracer: &mut Tracer,
    layers: &mut LayerReport,
    req: Req,
) -> Result<Vec<QueryRecord>, String> {
    tracer.request(req.group, |t| {
        let set = query_set(corpus, req);
        let plan = t
            .span("plan.compile", |_| QueryPlan::compile(&set, lazy))
            .map_err(|e| e.to_string())?;
        let planned = &plan.configs()[0];
        let before = lazy.bytes_decoded();
        let log = t
            .span("store.load", |_| {
                lazy.load_log_projected(req.session, plan.column_demand(req.session))
            })
            .map_err(|e| e.to_string())?;
        layers
            .store
            .get_or_insert_with(StoreCounters::default)
            .bytes_decoded += lazy.bytes_decoded() - before;
        let next = &log.records[req.k];
        let mut records = Vec::new();
        for query in &plan.set().queries {
            let (abduction, source) = t
                .span_as(|_| {
                    let found = cache.get_or_infer_keyed(
                        lazy.session_id_at(req.session),
                        &log,
                        Corpus::log_fingerprint(lazy, req.session),
                        req.k,
                        &planned.config,
                        planned.fingerprint,
                    );
                    let name = match found {
                        Ok((_, CacheSource::Inferred)) => "ehmm.infer",
                        _ => "cache.lookup",
                    };
                    (found, name)
                })
                .map_err(|e| e.to_string())?;
            match source {
                CacheSource::Memory => layers.cache_hits += 1,
                CacheSource::Disk => layers.cache_disk_hits += 1,
                CacheSource::Inferred => layers.cache_misses += 1,
            }
            let size = query
                .candidate_size_bytes
                .expect("every query names a size");
            let prediction = t.span("interventional.predict", |_| {
                InterventionalPredictor::new(planned.config).predict_from_abduction(
                    &abduction,
                    &log,
                    req.k,
                    size,
                    &next.tcp_info,
                )
            });
            let record = QueryRecord {
                query_id: query.id.clone(),
                kind: QueryKind::Interventional,
                session: lazy.session_id_at(req.session).to_string(),
                variant: None,
                status: "ok".to_string(),
                error: None,
                cache: Some(source.label().to_string()),
                elapsed_us: 0,
                output: Some(QueryOutput {
                    expected_capacity_mbps: Some(prediction.expected_capacity_mbps),
                    predicted_download_time_s: Some(prediction.download_time_s),
                    actual_download_time_s: Some(next.download_time_s),
                    ..QueryOutput::default()
                }),
                attempts: None,
            };
            let line = t
                .span("runner.serialize", |_| serde_json::to_string(&record))
                .map_err(|e| e.to_string())?;
            layers.record_bytes += line.len() as u64;
            layers.records += 1;
            records.push(normalized(&record));
        }
        Ok(records)
    })
}

/// One epoch of the stream, every client's share in turn, replayed
/// in-process twice in lockstep: untraced and traced, each through its
/// own fresh lazy corpus and cache. Returns both runs, the traced
/// side's answers, and its lazy corpus.
fn replica_epoch(
    world: &World,
    tracer: &mut Tracer,
    layers: &mut LayerReport,
) -> Result<ReplicaEpoch, String> {
    let open = || LazyCorpus::open(&world.vcorp).map_err(|e| e.to_string());
    let (untraced_lazy, lazy) = (open()?, open()?);
    let (untraced_cache, cache) = (AbductionCache::new(), AbductionCache::new());
    let stream = world.stream;
    let reqs: Vec<Req> = (0..stream.clients)
        .flat_map(|c| (0..stream.per_client()).map(move |j| stream.req(c, j)))
        .collect();
    let (mut off, mut scratch) = (Tracer::off(), LayerReport::default());
    let mut records = HashMap::new();
    let units = stream.rungs as u64;
    let (untraced, traced) = paired_loop(
        0.0,
        |p| p >= reqs.len() as u64,
        |p| {
            let req = reqs[p as usize];
            replica_request(
                &untraced_lazy,
                &world.corpus,
                &untraced_cache,
                &mut off,
                &mut scratch,
                req,
            )?;
            Ok(units)
        },
        |p| {
            let req = reqs[p as usize];
            let answers = replica_request(&lazy, &world.corpus, &cache, tracer, layers, req)?;
            records.insert(req.group, answers);
            Ok(units)
        },
    );
    Ok(ReplicaEpoch {
        untraced,
        traced,
        records,
        lazy,
    })
}

/// What [`replica_epoch`] returns.
struct ReplicaEpoch {
    untraced: LoopResult,
    traced: LoopResult,
    records: HashMap<u64, Vec<QueryRecord>>,
    lazy: LazyCorpus,
}

/// Runs the workload.
pub fn run(opts: &Opts) -> Result<Report, String> {
    let mut report = Report::new(NAME);
    if !opts.trace {
        let mut setups = Vec::new();
        let mut world: Option<World> = None;
        for attempt in 0..SETUPS {
            if let Some(previous) = world.take() {
                previous.shutdown();
            }
            let (w, total_s) = timed(|| setup(opts, attempt));
            world = Some(w?.0);
            setups.push(total_s);
        }
        let mut world = world.expect("at least one set-up");
        let (run, log, served) = serve(&mut world, opts.seconds);
        check_served(&mut report, &world.corpus, &log, &served);
        report.end_to_end(&setups, &run, TAIL, accuracy(&log));
        world.shutdown();
        return Ok(report);
    }

    let (mut world, [corpus_s, ingest_s, warm_s]) = setup(opts, 0)?;
    let mut layers = LayerReport {
        synth_corpus_s: corpus_s,
        synth_ingest_s: ingest_s,
        synth_warm_s: warm_s,
        ..LayerReport::default()
    };
    let mut tracer = Tracer::new(Instant::now());
    let ReplicaEpoch {
        untraced,
        traced,
        records: replica,
        lazy,
    } = replica_epoch(&world, &mut tracer, &mut layers)?;
    // The service itself, for the wire split and the cross-checks.
    let (served_run, log, served) = serve(&mut world, opts.seconds / 2.0);
    check_served(&mut report, &world.corpus, &log, &served);
    report.check(replica == log.first_epoch, || {
        "the in-process replica's answers differ from the service's".to_string()
    });
    let groups = world.stream.groups();
    report.check(
        layers.cache_misses == groups
            && layers.cache_hits == groups * (world.stream.rungs as u64 - 1),
        || {
            format!(
                "replica cache counts: {} misses, {} hits",
                layers.cache_misses, layers.cache_hits
            )
        },
    );
    // The replica decodes each session once. Each epoch's service does
    // too, except that clients racing on a session's first load may
    // both decode it: at least once, at most once per client.
    let residency = Corpus::residency(&lazy).unwrap_or_default();
    let store = layers.store.get_or_insert_with(StoreCounters::default);
    let once = served.epochs * residency.bytes_decoded;
    report.check(
        store.bytes_decoded == residency.bytes_decoded
            && (once..=once * world.stream.clients as u64).contains(&served.bytes_decoded),
        || {
            format!(
                "decoded bytes: traced loads {}, replica residency {}, services {} over {} epochs",
                store.bytes_decoded, residency.bytes_decoded, served.bytes_decoded, served.epochs
            )
        },
    );
    store.peak_resident_bytes = residency.peak_resident_bytes as u64;
    store.full_bytes = full_decode_bytes(&world.vcorp)?;
    layers.service = Some((log.engine_ms, log.wire_ms, log.trips));
    report.attempted += served_run.outcomes.attempted();
    report.failed += served_run.outcomes.failed;
    report.problems.extend(served_run.errors.iter().cloned());
    finish_traced(&mut report, opts, tracer, layers, &untraced, &traced)?;
    world.shutdown();
    Ok(report)
}
