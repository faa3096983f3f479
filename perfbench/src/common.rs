//! What every workload shares: options, corpus synthesis and ingest,
//! the closed request loop, and the report the run prints.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use veritas_abr::abr_by_name;
use veritas_engine::{
    Corpus, CorpusMeta, CorpusSession, LazyCorpus, QueryRecord, SessionCorpus, SyntheticSpec,
    VcorpWriter,
};
use veritas_player::run_session;
use veritas_trace::generators::{FccLike, TraceGenerator};

use crate::stats::{median, Outcomes};
use crate::trace::{Layers, Tracer};

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// Video length of every synthetic session (120 two-second chunks).
const VIDEO_S: f64 = 240.0;

/// Longest a request loop may run, whatever its sample floor asks for,
/// so a run always ends well inside its time limit.
const LOOP_CAP_S: f64 = 120.0;

/// Command-line options of one workload run.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Input seed: the same seed gives the same corpus and request stream.
    pub seed: u64,
    /// Measured seconds of the request loop.
    pub seconds: f64,
    /// Whether this is the traced run (per-layer metrics).
    pub trace: bool,
    /// Scratch directory for this run's files, removed when it ends.
    pub work: PathBuf,
}

impl Opts {
    /// A corpus seed for this workload, derived from the run seed so that
    /// workloads given one seed still see different corpora.
    pub fn corpus_seed(&self, salt: u64) -> u64 {
        let mut z = self.seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % 1_000_000_007
    }

    /// A fresh sub-directory of the work directory.
    pub fn fresh_dir(&self, name: &str) -> Result<PathBuf, String> {
        let dir = self.work.join(name);
        if dir.exists() {
            std::fs::remove_dir_all(&dir).map_err(|e| format!("clear {}: {e}", dir.display()))?;
        }
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(dir)
    }
}

/// Sessions every corpus starts with, synthesized from [`ACCURACY_SEED`]
/// whatever the run's seed: the fixed evaluation set each workload's
/// accuracy is computed on, so accuracy is identical across runs and
/// moves only when answers change.
pub const ACCURACY_SESSIONS: usize = 16;

/// Seed of the evaluation set and of the video asset, chosen once.
const ACCURACY_SEED: u64 = 20_260_001;

/// Synthesizes a corpus with ground truth in the default deployed
/// setting (MPC, 5 s buffer, FCC-like traces): the
/// [`ACCURACY_SESSIONS`] fixed sessions, then `sessions` minus those
/// whose traces come from `seed`.
pub fn synth_corpus(sessions: usize, seed: u64) -> SessionCorpus {
    let spec = SyntheticSpec {
        sessions: ACCURACY_SESSIONS,
        seed: ACCURACY_SEED,
        video_duration_s: VIDEO_S,
        ..SyntheticSpec::default()
    };
    let mut corpus = spec.build();
    let (low, high) = spec.bandwidth_range_mbps;
    let generator = FccLike::new(low, high);
    for i in ACCURACY_SESSIONS..sessions {
        let truth = generator.generate(VIDEO_S * 6.0, seed ^ (0x9E37 + i as u64));
        let mut abr = abr_by_name(&corpus.deployed_abr).expect("the default deployed ABR exists");
        let log = run_session(&corpus.asset, abr.as_mut(), &truth, &corpus.player);
        corpus.sessions.push(CorpusSession {
            id: format!("session-{i}"),
            log,
            truth: Some(truth),
        });
    }
    corpus
}

/// Writes `corpus` as a `.vcorp` at `path` and opens it lazily,
/// checking that the lazy view reconstructs the same deployed setting
/// and session logs.
pub fn ingest(corpus: &SessionCorpus, path: &Path) -> Result<LazyCorpus, String> {
    let meta = CorpusMeta {
        deployed_abr: corpus.deployed_abr.clone(),
        buffer_capacity_s: corpus.player.buffer_capacity_s,
        chunk_duration_s: corpus.asset.chunk_duration_s(),
        video_duration_s: VIDEO_S,
        asset_seed: ACCURACY_SEED,
        note: None,
    };
    let mut writer = VcorpWriter::create(path, &meta).map_err(|e| e.to_string())?;
    for session in &corpus.sessions {
        writer
            .append(&session.id, &session.log)
            .map_err(|e| e.to_string())?;
    }
    writer.finish().map_err(|e| e.to_string())?;
    let lazy = LazyCorpus::open(path).map_err(|e| e.to_string())?;
    if Corpus::deployed_fingerprint(&lazy) != corpus.deployed_fingerprint()
        || Corpus::content_fingerprint(&lazy) != Corpus::content_fingerprint(corpus)
    {
        return Err("the ingested .vcorp does not reproduce the synthetic corpus".to_string());
    }
    Ok(lazy)
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// A record with its run-dependent fields (`elapsed_us`, and the cache
/// tier that served it) cleared, for comparing answers across paths.
pub fn normalized(record: &QueryRecord) -> QueryRecord {
    QueryRecord {
        elapsed_us: 0,
        cache: None,
        ..record.clone()
    }
}

/// Length of the windows a loop's throughput is taken over.
const WINDOW_S: f64 = 1.0;

/// Work a loop completed in one window of its run.
#[derive(Debug, Clone, Copy, Default)]
pub struct Window {
    /// Length of the window in seconds.
    pub seconds: f64,
    /// Requests attempted in it.
    pub requests: u64,
    /// Work units completed in it.
    pub units: u64,
}

/// What a closed request loop measured.
#[derive(Debug, Default)]
pub struct LoopResult {
    /// Per-request outcomes.
    pub outcomes: Outcomes,
    /// Wall time of the loop in seconds.
    pub wall_s: f64,
    /// Consecutive windows of about [`WINDOW_S`] each.
    pub windows: Vec<Window>,
    /// The first few failure messages.
    pub errors: Vec<String>,
}

impl LoopResult {
    /// Folds a parallel client's loop into this one. Wall time is the
    /// longest client's, and windows line up by index: a window lasts as
    /// long as its slowest client and counts every client's work.
    pub fn merge(&mut self, other: LoopResult) {
        self.outcomes.merge(other.outcomes);
        self.wall_s = self.wall_s.max(other.wall_s);
        for (i, window) in other.windows.into_iter().enumerate() {
            match self.windows.get_mut(i) {
                Some(mine) => {
                    mine.seconds = mine.seconds.max(window.seconds);
                    mine.requests += window.requests;
                    mine.units += window.units;
                }
                None => self.windows.push(window),
            }
        }
        for error in other.errors {
            if self.errors.len() < 5 {
                self.errors.push(error);
            }
        }
    }

    /// Median (units/s, requests/s) over the windows: a slow phase of
    /// the host, or a stall, moves a median of windows far less than a
    /// whole-run mean. Falls back to the whole run when it had no
    /// complete window.
    pub fn rates(&self) -> (f64, f64) {
        if self.windows.is_empty() {
            let requests = self.outcomes.attempted() as f64;
            return (
                self.outcomes.units as f64 / self.wall_s,
                requests / self.wall_s,
            );
        }
        let rate = |f: fn(&Window) -> u64| {
            let rates: Vec<f64> = self
                .windows
                .iter()
                .map(|w| f(w) as f64 / w.seconds)
                .collect();
            median(&rates)
        };
        (rate(|w| w.units), rate(|w| w.requests))
    }
}

/// Runs a closed loop: request `i + 1` is sent only once request `i`
/// has been answered. Stops once `seconds` have passed and `done(i)`
/// says the loop has enough requests for its statistics.
/// `request(i)` returns the work units request `i` covered.
pub fn closed_loop(
    seconds: f64,
    mut done: impl FnMut(u64) -> bool,
    mut request: impl FnMut(u64) -> Result<u64, String>,
) -> LoopResult {
    let mut result = LoopResult::default();
    let start = Instant::now();
    let (mut window_start, mut window_requests, mut window_units) = (start, 0, 0);
    let mut i = 0u64;
    while !finished(start, seconds, done(i)) {
        result.send(i, &mut request);
        i += 1;
        let seconds = window_start.elapsed().as_secs_f64();
        if seconds >= WINDOW_S {
            let (requests, units) = (result.outcomes.attempted(), result.outcomes.units);
            result.windows.push(Window {
                seconds,
                requests: requests - window_requests,
                units: units - window_units,
            });
            (window_start, window_requests, window_units) = (Instant::now(), requests, units);
        }
    }
    result.wall_s = start.elapsed().as_secs_f64();
    result
}

/// Runs two paths for the same requests in lockstep: request `p` goes
/// down both, alternating which goes first, so that phases of host
/// speed hit both sides alike. Each side's wall time is the sum of its
/// own request times. Stops once `seconds` have passed and `done(p)`.
pub fn paired_loop(
    seconds: f64,
    mut done: impl FnMut(u64) -> bool,
    mut a: impl FnMut(u64) -> Result<u64, String>,
    mut b: impl FnMut(u64) -> Result<u64, String>,
) -> (LoopResult, LoopResult) {
    let (mut ra, mut rb) = (LoopResult::default(), LoopResult::default());
    let start = Instant::now();
    let mut p = 0u64;
    while !finished(start, seconds, done(p)) {
        if p.is_multiple_of(2) {
            ra.send(p, &mut a);
            rb.send(p, &mut b);
        } else {
            rb.send(p, &mut b);
            ra.send(p, &mut a);
        }
        p += 1;
    }
    for side in [&mut ra, &mut rb] {
        side.wall_s = side.outcomes.ok_ms.iter().sum::<f64>() / 1e3;
    }
    (ra, rb)
}

fn finished(start: Instant, seconds: f64, done: bool) -> bool {
    let elapsed = start.elapsed().as_secs_f64();
    (elapsed >= seconds && done) || elapsed >= LOOP_CAP_S
}

impl LoopResult {
    /// Sends request `i` and records its outcome.
    fn send(&mut self, i: u64, request: &mut impl FnMut(u64) -> Result<u64, String>) {
        let sent = Instant::now();
        match request(i) {
            Ok(units) => self.outcomes.ok(sent.elapsed().as_secs_f64() * 1e3, units),
            Err(error) => {
                self.outcomes.fail();
                if self.errors.len() < 5 {
                    self.errors.push(format!("request {i}: {error}"));
                }
            }
        }
    }
}

/// Times `f`, returning its value and its duration in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed().as_secs_f64())
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Its unit.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
    /// How many samples the value summarizes.
    pub samples: u64,
    /// What exactly was measured, for the human-readable table.
    pub note: String,
}

/// Everything one workload run reports.
#[derive(Debug)]
pub struct Report {
    /// Workload name.
    pub workload: &'static str,
    /// Requests attempted in the measured loop.
    pub attempted: u64,
    /// Requests that failed or answered wrongly.
    pub failed: u64,
    /// Failed output checks; the run is correct when this is empty.
    pub problems: Vec<String>,
    /// The metrics, in print order.
    pub metrics: Vec<Metric>,
    /// Figures printed in the table but left out of the JSON line.
    pub shown: Vec<Metric>,
}

impl Report {
    /// An empty report for `workload`.
    pub fn new(workload: &'static str) -> Self {
        Self {
            workload,
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            metrics: Vec::new(),
            shown: Vec::new(),
        }
    }

    /// Records a failed check unless `ok`.
    pub fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(problem());
        }
    }

    /// Adds a metric.
    pub fn metric(
        &mut self,
        name: &'static str,
        unit: &'static str,
        value: f64,
        samples: u64,
        note: impl Into<String>,
    ) {
        if !value.is_finite() {
            self.problems.push(format!("{name} is not a finite number"));
        }
        self.metrics.push(Metric {
            name,
            unit,
            value: if value.is_finite() { value } else { -1.0 },
            samples,
            note: note.into(),
        });
    }

    /// Adds the end-to-end metrics every workload reports, from its set-up
    /// times, its measured loop, the percentile its tail is read at, and
    /// its accuracy against the Baseline.
    pub fn end_to_end(
        &mut self,
        setups_s: &[f64],
        run: &LoopResult,
        tail_p: f64,
        accuracy: Accuracy,
    ) {
        let o = &run.outcomes;
        self.attempted = o.attempted();
        self.failed = o.failed;
        for error in &run.errors {
            self.problems.push(error.clone());
        }
        self.check(o.failed == 0, || format!("{} requests failed", o.failed));
        let n = o.attempted();
        self.metric(
            "setup_s",
            "s",
            median(setups_s),
            setups_s.len() as u64,
            "median set-up",
        );
        let (units_per_s, requests_per_s) = run.rates();
        let windows = format!("median of {} windows", run.windows.len());
        self.metric("units_per_s", "1/s", units_per_s, o.units, &windows);
        self.metric("requests_per_s", "1/s", requests_per_s, n, &windows);
        let p50 = o.percentile(50.0);
        self.check(p50.is_some(), || {
            "too few requests for a median".to_string()
        });
        self.metric("latency_p50_ms", "ms", p50.unwrap_or(f64::NAN), n, "p50");
        // The tail is printed, not reported: on this host it tracks how
        // much of the run fell in a slow phase more than the program.
        let tail = o.percentile(tail_p);
        self.check(tail.is_some(), || {
            format!("too few requests for p{tail_p}: {n} attempted")
        });
        let beyond = n - ((tail_p / 100.0 * n as f64).ceil() as u64).min(n);
        self.shown.push(Metric {
            name: if tail_p == 99.0 {
                "latency_p99_ms"
            } else {
                "latency_p90_ms"
            },
            unit: "ms",
            value: tail.unwrap_or(f64::NAN),
            samples: n,
            note: format!("{beyond} samples beyond; printed only"),
        });
        self.metric("ok_frac", "frac", o.ok_frac(), n, "answered correctly");
        match peak_rss_mb() {
            Ok(mb) => self.metric("peak_rss_mb", "MB", mb, 1, "VmHWM"),
            Err(e) => self.problems.push(e),
        }
        self.metric(
            "err_vs_baseline",
            "ratio",
            accuracy.veritas / accuracy.baseline,
            accuracy.samples,
            format!(
                "Veritas {} {:.4} / Baseline {:.4}",
                accuracy.what, accuracy.veritas, accuracy.baseline
            ),
        );
        for (name, unit, value) in accuracy.extra {
            self.shown.push(Metric {
                name,
                unit,
                value,
                samples: accuracy.samples,
                note: "evaluation set; printed only".to_string(),
            });
        }
    }

    /// Prints the table, any failed checks, and the closing JSON line.
    pub fn print(&self) {
        let mut out = String::new();
        for m in self.metrics.iter().chain(&self.shown) {
            let _ = writeln!(
                out,
                "{:<12} {:<34} {:>14.6} {:<6} n={:<8} {}",
                self.workload, m.name, m.value, m.unit, m.samples, m.note
            );
        }
        for problem in &self.problems {
            let _ = writeln!(out, "{:<12} CHECK FAILED: {problem}", self.workload);
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        let _ = writeln!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            // A run that attempted nothing measured nothing.
            self.problems.is_empty() && self.attempted > 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
        print!("{out}");
    }
}

/// A finite number with every digit Rust's shortest round-trip form
/// keeps.
fn json_number(value: f64) -> String {
    let text = format!("{value:?}");
    if text.contains('.') || text.contains('e') {
        text
    } else {
        format!("{text}.0")
    }
}

/// A workload's accuracy against the paper's Baseline, computed from
/// its own records on the fixed evaluation sessions.
#[derive(Debug, Clone, Default)]
pub struct Accuracy {
    /// What the error measures.
    pub what: &'static str,
    /// Veritas's error.
    pub veritas: f64,
    /// The Baseline's error on the same answers.
    pub baseline: f64,
    /// Answers the errors average over.
    pub samples: u64,
    /// Further accuracy figures for the table: (name, unit, value).
    pub extra: Vec<(&'static str, &'static str, f64)>,
}

/// The per-layer metrics of a traced run, named as in `BENCHMARK.json`.
/// Every traced run reports every one of them; a layer a workload never
/// enters reads 0.
#[derive(Debug, Default)]
pub struct LayerReport {
    /// Synthesis, ingest and warm-up time of the traced set-up.
    pub synth_corpus_s: f64,
    /// `.vcorp` write and open time.
    pub synth_ingest_s: f64,
    /// Cache warm-up and service start time.
    pub synth_warm_s: f64,
    /// Work units the traced requests covered.
    pub units: u64,
    /// Span totals of the traced requests.
    pub layers: Layers,
    /// Chunks replayed over every replay call.
    pub replay_chunks: u64,
    /// Cache lookups served from memory, from disk, and inferred.
    pub cache_hits: u64,
    /// Disk-tier restores observed.
    pub cache_disk_hits: u64,
    /// Inferences observed.
    pub cache_misses: u64,
    /// Store decode counters, when the workload reads a `.vcorp`.
    pub store: Option<StoreCounters>,
    /// Serialized record bytes and count.
    pub record_bytes: u64,
    /// Records serialized.
    pub records: u64,
    /// Service round trips: (engine ms, wire ms) sums and count.
    pub service: Option<(f64, f64, u64)>,
    /// Coordinator (overhead ms, shard skew) means, and shard retries.
    pub dist: Option<(f64, f64, u64)>,
    /// Traced ÷ untraced work-unit throughput.
    pub overhead_frac: f64,
}

/// Decode counters of a lazily read corpus.
#[derive(Debug, Clone, Copy, Default)]
pub struct StoreCounters {
    /// Block bytes decoded.
    pub bytes_decoded: u64,
    /// Bytes a full decode of the same loads would have read.
    pub full_bytes: u64,
    /// Peak resident decoded bytes.
    pub peak_resident_bytes: u64,
}

impl LayerReport {
    /// Adds every per-layer metric to `report`.
    pub fn emit(&self, report: &mut Report) {
        let l = &self.layers;
        let units = self.units.max(1) as f64;
        let replay = l.get("replay");
        let infer = l.get("ehmm.infer");
        let lookups = self.cache_hits + self.cache_disk_hits + self.cache_misses;
        let requests = l.get(crate::trace::REQUEST).calls;
        report.metric("synth.corpus_s", "s", self.synth_corpus_s, 1, "synthesis");
        report.metric(
            "synth.ingest_s",
            "s",
            self.synth_ingest_s,
            1,
            ".vcorp write+open",
        );
        report.metric("synth.warm_s", "s", self.synth_warm_s, 1, "warm-up");
        report.metric(
            "replay.ms_per_call",
            "ms",
            l.ms_per_call("replay"),
            replay.calls,
            "self time",
        );
        report.metric(
            "replay.calls_per_unit",
            "count",
            replay.calls as f64 / units,
            self.units,
            "",
        );
        report.metric(
            "replay.chunks",
            "count",
            crate::trace::ratio(self.replay_chunks as f64, replay.calls as f64),
            replay.calls,
            "chunks per replay",
        );
        report.metric(
            "replay.share",
            "frac",
            l.share("replay"),
            requests,
            "of request wall",
        );
        report.metric(
            "ehmm.emission_ms",
            "ms",
            l.ms_per_call("ehmm.emission"),
            l.get("ehmm.emission").calls,
            "per inference",
        );
        report.metric(
            "ehmm.infer_ms",
            "ms",
            l.ms_per_call("ehmm.infer"),
            infer.calls,
            "",
        );
        report.metric(
            "ehmm.infers",
            "count",
            infer.calls as f64 / units,
            self.units,
            "per unit",
        );
        report.metric(
            "ehmm.share",
            "frac",
            l.share("ehmm.emission") + l.share("ehmm.infer"),
            requests,
            "of request wall",
        );
        report.metric(
            "sample.ms_per_unit",
            "ms",
            l.get("sample").self_ns as f64 / 1e6 / units,
            self.units,
            "",
        );
        report.metric(
            "cache.lookup_ms",
            "ms",
            l.ms_per_call("cache.lookup"),
            l.get("cache.lookup").calls,
            "memory hits",
        );
        report.metric(
            "cache.hit_ratio",
            "frac",
            crate::trace::ratio(self.cache_hits as f64, lookups as f64),
            lookups,
            "memory hits / lookups",
        );
        report.metric(
            "cache.misses",
            "count",
            self.cache_misses as f64 / units,
            self.units,
            "per unit",
        );
        report.metric(
            "cache.disk_hits",
            "count",
            self.cache_disk_hits as f64,
            1,
            "disk restores",
        );
        let store = self.store.unwrap_or_default();
        let decode = l.get("store.load");
        report.metric(
            "store.decode_ms",
            "ms",
            l.ms_per_call("store.load"),
            decode.calls,
            "per load",
        );
        report.metric(
            "store.bytes_decoded",
            "bytes",
            store.bytes_decoded as f64,
            1,
            "",
        );
        report.metric(
            "store.projected_bytes_ratio",
            "frac",
            crate::trace::ratio(store.bytes_decoded as f64, store.full_bytes as f64),
            1,
            "projected / full decode",
        );
        report.metric(
            "store.peak_resident_bytes",
            "bytes",
            store.peak_resident_bytes as f64,
            1,
            "",
        );
        report.metric(
            "plan.compile_ms",
            "ms",
            l.ms_per_call("plan.compile"),
            l.get("plan.compile").calls,
            "",
        );
        report.metric(
            "interventional.predict_ms",
            "ms",
            l.ms_per_call("interventional.predict"),
            l.get("interventional.predict").calls,
            "",
        );
        report.metric(
            "runner.serialize_us_per_record",
            "us",
            l.ms_per_call("runner.serialize") * 1e3,
            self.records,
            "",
        );
        report.metric(
            "runner.record_bytes",
            "bytes",
            crate::trace::ratio(self.record_bytes as f64, self.records as f64),
            self.records,
            "",
        );
        let (engine_ms, wire_ms, trips) = self.service.unwrap_or_default();
        let trips_f = trips.max(1) as f64;
        report.metric(
            "service.engine_ms",
            "ms",
            engine_ms / trips_f,
            trips,
            "server elapsed_ms",
        );
        report.metric(
            "service.wire_ms",
            "ms",
            wire_ms / trips_f,
            trips,
            "round trip - elapsed_ms",
        );
        let (overhead_ms, skew, retries) = self.dist.unwrap_or_default();
        report.metric(
            "dist.overhead_ms",
            "ms",
            overhead_ms,
            requests,
            "wall - slowest shard",
        );
        report.metric(
            "dist.shard_skew",
            "ratio",
            skew,
            requests,
            "slowest / mean shard",
        );
        report.metric("dist.shard_retries", "count", retries as f64, requests, "");
        report.metric(
            "trace.coverage",
            "frac",
            l.coverage(),
            requests,
            "layer self / request wall",
        );
        report.metric(
            "trace.overhead_frac",
            "ratio",
            self.overhead_frac,
            1,
            "traced / untraced units/s",
        );
    }
}

/// Shares a corpus as the engine's trait object.
pub fn shared<C: Corpus + 'static>(corpus: &Arc<C>) -> Arc<dyn Corpus> {
    Arc::clone(corpus) as Arc<dyn Corpus>
}

/// Writes a traced run's spans next to the run's work directory, as
/// `trace-<workload>-seed<seed>.jsonl`, and returns the path.
pub fn write_trace(
    opts: &Opts,
    workload: &str,
    tracer: &crate::trace::Tracer,
) -> Result<PathBuf, String> {
    let dir = opts.work.parent().unwrap_or(Path::new("."));
    let path = dir.join(format!("trace-{workload}-seed{}.jsonl", opts.seed));
    std::fs::write(&path, tracer.to_jsonl())
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(path)
}

/// Closes a traced run shared by the single-loop workloads: overhead,
/// request counts, the span file, and the per-layer metrics.
pub fn finish_traced(
    report: &mut Report,
    opts: &Opts,
    tracer: Tracer,
    mut layers: LayerReport,
    untraced: &LoopResult,
    traced: &LoopResult,
) -> Result<(), String> {
    for run in [untraced, traced] {
        report.attempted += run.outcomes.attempted();
        report.failed += run.outcomes.failed;
        report.problems.extend(run.errors.iter().cloned());
    }
    let rate = |run: &LoopResult| run.outcomes.units as f64 / run.wall_s;
    layers.overhead_frac = rate(traced) / rate(untraced);
    layers.units = traced.outcomes.units;
    layers.layers = tracer.layers();
    let path = write_trace(opts, report.workload, &tracer)?;
    eprintln!("spans written to {}", path.display());
    layers.emit(report);
    Ok(())
}

/// Bytes a full (unprojected) decode of every session of a `.vcorp`
/// reads: the base of `store.projected_bytes_ratio`.
pub fn full_decode_bytes(vcorp: &Path) -> Result<u64, String> {
    let lazy = LazyCorpus::open(vcorp).map_err(|e| e.to_string())?;
    for i in 0..lazy.len() {
        lazy.load_log(i).map_err(|e| e.to_string())?;
    }
    Ok(lazy.bytes_decoded())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window(seconds: f64, requests: u64, units: u64) -> Window {
        Window {
            seconds,
            requests,
            units,
        }
    }

    #[test]
    fn throughput_is_the_median_window_and_parallel_windows_add_up() {
        let mut run = LoopResult {
            windows: vec![window(1.0, 10, 20), window(1.0, 1, 2), window(2.0, 20, 40)],
            ..LoopResult::default()
        };
        // One stalled window does not move the median.
        assert_eq!(run.rates(), (20.0, 10.0));
        run.merge(LoopResult {
            windows: vec![window(2.0, 10, 20)],
            ..LoopResult::default()
        });
        let first = run.windows[0];
        assert_eq!((first.seconds, first.requests, first.units), (2.0, 20, 40));
        assert_eq!(run.windows.len(), 3);
    }
}
