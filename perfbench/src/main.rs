//! `perfbench`: the end-to-end and per-layer benchmark of the GPUlog
//! reproduction.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload reach-chain --seed 1 --seconds 25 --trace 0
//! ```
//!
//! One run builds one workload from its seed, then spends `--seconds` in
//! four-second cycles through three measured phases, each given its share
//! of the cycle:
//!
//! 1. the fixpoint legs: the workload's program to fixpoint on the serial,
//!    sharded:2, pipelined:2 and multigpu:2 backends, round-robin, every
//!    run checked byte-for-byte against the first serial one;
//! 2. a serving window: one closed-loop reader thread issuing
//!    `point_lookup` (and at a fixed share a non-prefix `goal_lookup`)
//!    against a `gpulog-serve` snapshot, beside one open-loop writer that
//!    inserts an isolated fact and refreshes at the workload's fixed rate;
//! 3. the goal queries: one closed-loop client calling
//!    `GpulogEngine::run_query_with(relation, [Some(src), None])` in
//!    rounds over the workload's goal sources.
//!
//! Set-up (device, engine build, fact load; for `serve-mixed` also the
//! first fixpoint and its publish) is timed three times after every
//! fixpoint round.
//!
//! The shared host this benchmark was sized on runs the same code up to
//! ~1.7x slower at some times than at others, for half a second or for
//! minutes. So every end-to-end wall time is scaled by the host's speed
//! at the time it was taken, as timed by a fixed probe kernel on the same
//! thread (see [`HostClock`]), and each metric is then a median (or, for
//! lookups, a percentile) over all of the run's scaled samples. The phases
//! are cycled so that every metric samples the whole run. glibc's
//! allocator thresholds are pinned first (see [`pin_malloc_thresholds`]).
//!
//! Every answer is then checked against host oracles that share no code
//! with the engine, and the last line of standard output is the result
//! object. With `--trace 0` it carries the end-to-end metrics; with
//! `--trace 1` the same script runs with a span recorder and a timing
//! backend wrapper and carries the per-layer metrics instead, and the
//! spans go to `.bench_trace/<workload>-seed<seed>.jsonl`.

mod trace;
mod workload;

use gpulog::analysis::passes::{lint_program, optimize_program};
use gpulog::ast::{Atom, Query, Term};
use gpulog::backend::{Backend, MultiGpuBackend, PipelinedBackend, SerialBackend, ShardedBackend};
use gpulog::{
    compile, lower_program, magic_rewrite, parse_program, DeviceTopology, EngineConfig,
    EngineResult, GpulogEngine, NwayStrategy, Phase, RunStats,
};
use gpulog_baselines::souffle_like;
use gpulog_datasets::CspaInput;
use gpulog_device::{CounterSnapshot, Device, DeviceProfile};
use gpulog_serve::ServeWriter;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::num::NonZeroUsize;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use trace::{BackendTotals, TimedBackend, Tracer};
use workload::{Kind, Rng, Size, Workload};

/// End-to-end metrics, printed with `--trace 0` (name, unit).
const END_TO_END: [(&str, &str); 14] = [
    ("setup_s", "s"),
    ("fixpoint_s", "s"),
    ("fixpoint_sharded_s", "s"),
    ("fixpoint_pipelined_s", "s"),
    ("fixpoint_multigpu_s", "s"),
    ("modeled_device_s", "s"),
    ("modeled_cp_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("lookup_p50_us", "us"),
    ("lookup_p99_us", "us"),
    ("goal_lookup_p50_us", "us"),
    ("reads_per_s", "1/s"),
    ("update_visible_p50_ms", "ms"),
    ("goal_query_p50_us", "us"),
];

/// Per-layer metrics, printed with `--trace 1` (name, unit).
const PER_LAYER: [(&str, &str); 66] = [
    ("frontend.parse_us", "us"),
    ("frontend.lint_us", "us"),
    ("frontend.optimize_us", "us"),
    ("frontend.compile_us", "us"),
    ("frontend.lower_us", "us"),
    ("frontend.build_us", "us"),
    ("frontend.magic_rewrite_us", "us"),
    ("frontend.ops_lowered", "count"),
    ("engine.iterations", "count"),
    ("engine.tail_iterations", "count"),
    ("engine.delta_tuples", "count"),
    ("engine.new_tuples", "count"),
    ("engine.dedup_yield", "ratio"),
    ("engine.us_per_iteration", "us"),
    ("engine.phase.join_s", "s"),
    ("engine.phase.dedup_s", "s"),
    ("engine.phase.index_delta_s", "s"),
    ("engine.phase.index_full_s", "s"),
    ("engine.phase.merge_s", "s"),
    ("engine.phase.other_s", "s"),
    ("engine.unattributed_s", "s"),
    ("backend.rule_exec_s", "s"),
    ("backend.diff_exec_s", "s"),
    ("backend.fence_s", "s"),
    ("backend.loop_s", "s"),
    ("backend.calls", "count"),
    ("backend.idle_calls", "count"),
    ("backend.useful_call_ratio", "ratio"),
    ("hisa.hash_inserts", "count"),
    ("hisa.hash_rebuilds", "count"),
    ("hisa.inserts_per_delta_tuple", "ratio"),
    ("hisa.merge_s", "s"),
    ("hisa.index_s", "s"),
    ("hisa.hash_inserts_pipelined", "count"),
    ("hisa.hash_rebuilds_pipelined", "count"),
    ("device.sort_passes", "count"),
    ("device.sort_s", "s"),
    ("device.kernel_launches", "count"),
    ("device.bytes_moved", "B"),
    ("device.allocations", "count"),
    ("device.pool_reuse_ratio", "ratio"),
    ("device.dispatches", "count"),
    ("device.dispatch_s", "s"),
    ("device.peak_mib", "MiB"),
    ("device.overlap_s", "s"),
    ("device.stall_s", "s"),
    ("device.adaptive_merge_batches", "count"),
    ("topology.exchange_bytes", "B"),
    ("topology.exchange_messages", "count"),
    ("topology.max_device_compute_s", "s"),
    ("serve.insert_us", "us"),
    ("serve.refresh_run_s", "s"),
    ("serve.publish_us", "us"),
    ("serve.generations", "count"),
    ("serve.generator_late_ms", "ms"),
    ("serve.rows_per_lookup", "rows"),
    ("serve.goal_lookup_rows", "rows"),
    ("goal.sub_run_us", "us"),
    ("goal.iterations", "count"),
    ("goal.tuples_materialized", "count"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
    ("trace.spans", "count"),
    ("trace.spans_dropped", "count"),
    ("trace.fixpoint_traced_s", "s"),
    ("trace.fixpoint_untraced_s", "s"),
];

/// Shards (and simulated devices) of the sharded, pipelined and multigpu
/// legs.
const SHARDS: usize = 2;
/// Worker threads of every device. On a 2-core host, 2-worker devices ran
/// the fixpoints 20-40% slower than 1-worker ones and flipped between a
/// fast and a slow mode from one process to the next (kernel dispatch
/// wake-ups on a box with no idle core), which no bound could absorb.
/// The second core is left to the serving window's second client thread
/// and the pipelined backend's merge lane.
const DEVICE_WORKERS: usize = 1;
/// Set-ups timed after each fixpoint round; `setup_s` is their median.
const SETUPS_PER_ROUND: usize = 3;
/// How old a thread's host-speed probe may be when it scales a sample
/// (see [`HostClock`]).
const PROBE_EVERY: Duration = Duration::from_millis(100);
/// The probe time a scaled wall time is referred to: a scaled time reads
/// what the sample would have taken on a host that runs the probe in 1 ms
/// (the host this benchmark was sized on took 0.75-1.6 ms).
const PROBE_REF_S: f64 = 0.001;
/// A probe is the fastest of this many probe kernels.
const PROBE_REPS: usize = 2;
/// The writer probes only when its next update is due at least this late.
const WRITER_PROBE_SLACK: Duration = Duration::from_millis(10);
/// One cycle through the three phases (see [`run`]).
const CYCLE: Duration = Duration::from_secs(4);
/// Every `SAMPLE_EVERY`-th reader answer is kept and checked afterwards,
/// up to `MAX_SAMPLES` of them (kept answers count in `peak_rss_mib`).
const SAMPLE_EVERY: u64 = 61;
const MAX_SAMPLES: usize = 1000;

/// Command-line arguments.
#[derive(Debug, Clone)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// `Size::Tiny` only in the self-test.
    size: Size,
}

const USAGE: &str = "usage: perfbench --workload <cspa-httpd|reach-chain|serve-mixed> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
        size: Size::Full,
    };
    let mut i = 0;
    while i < args.len() {
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("{} needs a value", args[i]))?;
        match args[i].as_str() {
            "--workload" => parsed.workload = value.clone(),
            "--seed" => {
                parsed.seed = value
                    .parse()
                    .map_err(|_| format!("--seed needs an integer, got {value:?}"))?
            }
            "--seconds" => {
                parsed.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds needs a positive number, got {value:?}"))?
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace needs 0 or 1, got {value:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
        i += 2;
    }
    if parsed.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(parsed)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv).unwrap_or_else(|err| {
        eprintln!("perfbench: {err}\n{USAGE}");
        std::process::exit(2);
    });
    let outcome = run(&args).unwrap_or_else(|err| {
        eprintln!("perfbench: {err}\n{USAGE}");
        std::process::exit(2);
    });
    for note in &outcome.notes {
        eprintln!("perfbench: {note}");
    }
    println!("{}", outcome.conditions_json());
    println!("{}", outcome.result_json());
}

/// A run's result: the checks, the metrics and the conditions.
#[derive(Debug, Default)]
struct Outcome {
    attempted: u64,
    failed: u64,
    /// Failed checks and operations, for standard error.
    notes: Vec<String>,
    metrics: Vec<(&'static str, f64, &'static str)>,
    conditions: Vec<(String, String)>,
}

impl Outcome {
    fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    fn result_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    number(*value)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    fn conditions_json(&self) -> String {
        let fields: Vec<String> = self
            .conditions
            .iter()
            .map(|(k, v)| format!("\"{k}\": \"{}\"", v.replace('"', "'")))
            .collect();
        format!("{{\"conditions\": {{{}}}}}", fields.join(", "))
    }
}

/// A JSON number with every digit Rust's shortest round-trip form keeps.
fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

/// Counts operations and failures; a failed check counts as a failed
/// operation.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Tally {
    fn ok(&mut self) {
        self.attempted += 1;
    }

    fn fail(&mut self, note: String) {
        self.attempted += 1;
        self.failed += 1;
        if self.notes.len() < 20 {
            self.notes.push(note);
        }
    }

    /// Records a check on an operation already counted as attempted.
    fn check(&mut self, ok: bool, note: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            if self.notes.len() < 20 {
                self.notes.push(note());
            }
        }
    }
}

/// The simulated device every engine runs on: an H100 profile with its
/// full 80 GB capacity (the scaled budget of the table bins runs the
/// magic-sets sub-engine out of memory on CSPA).
fn profile() -> DeviceProfile {
    DeviceProfile::nvidia_h100()
}

/// A fresh device with [`DEVICE_WORKERS`] workers.
fn device() -> Device {
    Device::with_workers(profile(), DEVICE_WORKERS)
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, NonZeroUsize::get)
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Median of `values` (the upper one of an even count); 0 when empty.
fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Nearest-rank percentile `q` of `values`; 0 when empty.
fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Every relation of a fixpoint, as canonical sorted flat tuples.
type Outputs = Vec<(String, Vec<u32>)>;

fn outputs(engine: &GpulogEngine) -> EngineResult<Outputs> {
    let snapshot = engine.snapshot()?;
    Ok(snapshot
        .relation_names()
        .iter()
        .map(|name| {
            let rows = snapshot.sorted_tuples_flat(name).unwrap_or_default();
            (name.clone(), rows)
        })
        .collect())
}

fn relation<'a>(outputs: &'a Outputs, name: &str) -> &'a [u32] {
    outputs
        .iter()
        .find(|(n, _)| n == name)
        .map_or(&[], |(_, rows)| rows.as_slice())
}

/// Runs one workload and returns its outcome.
fn run(args: &Args) -> Result<Outcome, String> {
    let malloc = pin_malloc_thresholds();
    let w = workload::build(&args.workload, args.seed, args.size)?;
    let tracer = Tracer::new(args.trace);
    let mut tally = Tally::default();
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    let budget = Duration::from_secs_f64(args.seconds);

    if tracer.enabled() {
        frontend_breakdown(&w, &tracer, &mut tally, &mut m);
    }
    let mut conditions = run_conditions(args, &w);
    conditions.push(("malloc".into(), malloc));
    // The run cycles through the three phases, each for its share of a
    // cycle, so every metric samples the whole run.
    let cycle = CYCLE.min(budget);
    let cycles = (secs(budget) / secs(cycle)).round().max(1.0) as u32;
    conditions.push(("cycles".into(), format!("{cycles} x {} s", secs(cycle))));
    let mut fixpoint = FixpointPhase::default();
    let mut serve = ServePhase::new(&w);
    let mut goal = GoalPhase::new(&w, &mut tally);
    let mut clock = HostClock::new();
    for _ in 0..cycles {
        let budget = cycle.mul_f64(w.shares.fixpoint);
        fixpoint.run_for(&w, budget, &tracer, &mut tally, &mut clock);
        let served = fixpoint.setups.served.take();
        let budget = cycle.mul_f64(w.shares.serve);
        serve.run_for(&w, budget, served, &tracer, &mut tally, &mut clock);
        let budget = cycle.mul_f64(w.shares.goal);
        goal.run_for(&w, budget, &tracer, &mut tally, &mut clock);
    }
    conditions.push(("host_scale".into(), scale_summary(&clock.scales)));
    let reference = fixpoint.report(&w, tracer.enabled(), &mut m, &mut conditions);
    let serve = serve.finish(&mut tally);
    let goal = goal.stats;
    // Peak memory is read before the oracles run in this process.
    m.insert("peak_rss_mib", peak_rss_mib());

    if let Some(reference) = &reference {
        check_fixpoint(&w, reference, &mut tally);
    }
    if let Some(serve) = &serve {
        serve.report(&mut m, &mut conditions);
        check_serve(&w, serve, reference.as_ref(), &mut tally);
    }
    goal.report(&mut m, &mut conditions);
    check_goal(&w, &goal, reference.as_ref(), &mut tally);

    if tracer.enabled() {
        let (spans, dropped) = tracer.counts();
        m.insert("trace.spans", spans as f64);
        m.insert("trace.spans_dropped", dropped as f64);
        let path =
            PathBuf::from(".bench_trace").join(format!("{}-seed{}.jsonl", w.name, args.seed));
        match tracer.write_jsonl(&path) {
            Ok(()) => conditions.push(("trace_file".into(), path.display().to_string())),
            Err(err) => tally.fail(format!("writing {}: {err}", path.display())),
        }
    }

    let list: &[(&'static str, &'static str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Vec::with_capacity(list.len());
    for &(name, unit) in list {
        match m.get(name) {
            Some(&value) => metrics.push((name, value, unit)),
            None => tally.fail(format!("metric {name} was not measured")),
        }
    }
    Ok(Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        notes: tally.notes,
        metrics,
        conditions,
    })
}

/// Pins glibc's mmap and trim thresholds, and says what it did.
///
/// By default glibc raises its mmap threshold to the size of the largest
/// mmapped block freed so far. Whether a 1.5 MB block (a `goal_lookup`'s
/// row vector on `reach-chain`) is then mapped and unmapped on every call
/// or served from the heap depends on which blocks the run happened to
/// free first: `goal_lookup_p50_us` read ~5.8 ms in some processes and
/// ~4.4 ms in others of the same code and seed. Fixed thresholds, at the
/// sizes the dynamic rule tends to, take that lottery out of the run.
fn pin_malloc_thresholds() -> String {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        const M_TRIM_THRESHOLD: i32 = -1;
        const M_MMAP_THRESHOLD: i32 = -3;
        const MMAP_THRESHOLD: i32 = 32 << 20;
        const TRIM_THRESHOLD: i32 = 64 << 20;
        // SAFETY: `mallopt` only sets allocator parameters; glibc takes its
        // own lock to do so.
        let ok = unsafe {
            mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD) == 1
                && mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD) == 1
        };
        if ok {
            return "glibc mmap threshold 32 MiB, trim threshold 64 MiB".into();
        }
        "glibc thresholds dynamic (mallopt failed)".into()
    }
    #[cfg(not(all(target_os = "linux", target_env = "gnu")))]
    {
        "system allocator defaults".into()
    }
}

/// The conditions every result is recorded with.
fn run_conditions(args: &Args, w: &Workload) -> Vec<(String, String)> {
    let p = profile();
    let mut c: Vec<(String, String)> = vec![
        ("workload".into(), w.name.into()),
        ("seed".into(), args.seed.to_string()),
        ("seconds".into(), args.seconds.to_string()),
        ("trace".into(), u8::from(args.trace).to_string()),
        ("nproc".into(), nproc().to_string()),
        ("device_profile".into(), p.name.to_string()),
        ("device_capacity_bytes".into(), p.memory_capacity_bytes.to_string()),
        ("device_workers".into(), DEVICE_WORKERS.to_string()),
        ("shards".into(), SHARDS.to_string()),
        (
            "shares".into(),
            format!(
                "fixpoint {} serve {} goal {}",
                w.shares.fixpoint, w.shares.serve, w.shares.goal
            ),
        ),
        ("update_hz".into(), w.update_hz.to_string()),
        (
            "reader_mix".into(),
            format!(
                "1 closed-loop reader: point_lookup {} of {every}, goal_lookup [None, Some(y)] 1 of {every}",
                w.goal_lookup_every - 1,
                every = w.goal_lookup_every
            ),
        ),
        (
            "timing".into(),
            "wall times are host CPU times of a simulated device, end-to-end ones scaled to a \
             host that runs the probe in 1 ms (host_scale); modeled_* is the simulated H100 \
             cost model"
                .into(),
        ),
    ];
    c.extend(
        w.conditions
            .iter()
            .map(|(k, v)| ((*k).to_string(), v.clone())),
    );
    c
}

/// Set-up samples. They are taken a few at a time between fixpoint
/// rounds, so they spread over the run instead of sharing one moment's
/// noise at process start.
#[derive(Debug, Default)]
struct Setups {
    times: Vec<f64>,
    builds_us: Vec<f64>,
    /// The last served writer, when the workload's set-up includes the
    /// publish; the serving window uses it.
    served: Option<ServeWriter>,
}

/// One timed set-up: device, engine build and fact load, plus the first
/// fixpoint and its publish for workloads whose set-up serves.
fn setup_once(
    w: &Workload,
    tracer: &Tracer,
    tally: &mut Tally,
    setups: &mut Setups,
    clock: &mut HostClock,
) {
    let request = tracer.request();
    let scale = clock.scale();
    let start = Instant::now();
    let mut build_time = Duration::ZERO;
    let result = tracer.span("setup", Some(request), || -> EngineResult<_> {
        let device = device();
        let build_start = Instant::now();
        let engine = tracer.span("engine.build", None, || {
            GpulogEngine::builder(&device).program(w.source()).build()
        })?;
        build_time = build_start.elapsed();
        let engine = tracer.span("engine.add_facts", None, || w.load(engine))?;
        if w.setup_publishes {
            let writer = tracer.span("serve.writer_new", None, || ServeWriter::new(engine))?;
            Ok((None, Some(writer)))
        } else {
            Ok((Some(engine), None))
        }
    });
    let elapsed = start.elapsed();
    match result {
        Ok((engine, writer)) => {
            tally.ok();
            setups.times.push(secs(elapsed) * scale);
            setups.builds_us.push(secs(build_time) * 1e6);
            // Tear-down happens here, outside the timed region.
            drop(engine);
            if writer.is_some() {
                setups.served = writer;
            }
        }
        Err(err) => tally.fail(format!("setup: {err}")),
    }
}

/// Runs `f` inside a span named `name` and appends its time in µs to
/// `times[name]`.
fn timed<T>(
    tracer: &Tracer,
    times: &mut HashMap<&'static str, Vec<f64>>,
    name: &'static str,
    f: impl FnOnce() -> T,
) -> T {
    let start = Instant::now();
    let result = tracer.span(name, None, f);
    times
        .entry(name)
        .or_default()
        .push(secs(start.elapsed()) * 1e6);
    result
}

/// Traced runs only: times each front-end layer's public function on its
/// own — the calls `EngineBuilder::build` makes, plus the magic-sets
/// rewrite a goal query makes.
fn frontend_breakdown(
    w: &Workload,
    tracer: &Tracer,
    tally: &mut Tally,
    m: &mut BTreeMap<&'static str, f64>,
) {
    const REPS: usize = 15;
    let query = Query::new(Atom::new(
        w.query_relation,
        vec![Term::Const(w.goal_sources[0]), Term::var("y")],
    ));
    let mut t: HashMap<&'static str, Vec<f64>> = HashMap::new();
    let mut ops = 0usize;
    for _ in 0..REPS {
        let result = (|| -> EngineResult<()> {
            let program = timed(tracer, &mut t, "frontend.parse", || {
                parse_program(w.source())
            })?;
            timed(tracer, &mut t, "frontend.lint", || lint_program(&program));
            let optimized = timed(tracer, &mut t, "frontend.optimize", || {
                optimize_program(&program)
            })?;
            let compiled = timed(tracer, &mut t, "frontend.compile", || {
                compile(&optimized.program)
            })?;
            let lowered = timed(tracer, &mut t, "frontend.lower", || {
                lower_program(&compiled, NwayStrategy::TemporarilyMaterialized)
            });
            ops = lowered
                .iter()
                .flat_map(|s| s.non_recursive.iter().chain(&s.recursive))
                .map(|p| p.ops.len())
                .sum();
            timed(tracer, &mut t, "frontend.magic_rewrite", || {
                magic_rewrite(&program, &query)
            })?;
            Ok(())
        })();
        match result {
            Ok(()) => tally.ok(),
            Err(err) => tally.fail(format!("front end: {err}")),
        }
    }
    for (name, metric) in [
        ("frontend.parse", "frontend.parse_us"),
        ("frontend.lint", "frontend.lint_us"),
        ("frontend.optimize", "frontend.optimize_us"),
        ("frontend.compile", "frontend.compile_us"),
        ("frontend.lower", "frontend.lower_us"),
        ("frontend.magic_rewrite", "frontend.magic_rewrite_us"),
    ] {
        m.insert(metric, median(t.get(name).map_or(&[], Vec::as_slice)));
    }
    m.insert("frontend.ops_lowered", ops as f64);
}

/// The four backend legs of the fixpoint phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Leg {
    Serial,
    Sharded,
    Pipelined,
    MultiGpu,
}

const LEGS: [Leg; 4] = [Leg::Serial, Leg::Sharded, Leg::Pipelined, Leg::MultiGpu];

impl Leg {
    fn metric(self) -> &'static str {
        match self {
            Leg::Serial => "fixpoint_s",
            Leg::Sharded => "fixpoint_sharded_s",
            Leg::Pipelined => "fixpoint_pipelined_s",
            Leg::MultiGpu => "fixpoint_multigpu_s",
        }
    }

    fn topology() -> DeviceTopology {
        DeviceTopology::nvlink_like(NonZeroUsize::new(SHARDS).expect("SHARDS is positive"))
    }

    fn config(self) -> EngineConfig {
        let config = EngineConfig::default();
        match self {
            Leg::Serial => config,
            Leg::Sharded => config.with_shard_count(SHARDS),
            Leg::Pipelined => config.with_pipelined(SHARDS),
            Leg::MultiGpu => config.with_device_topology(Self::topology()),
        }
    }

    /// The backend the engine would pick for [`Leg::config`], built here
    /// so a traced run can wrap it.
    fn backend(self) -> EngineResult<Box<dyn Backend>> {
        Ok(match self {
            Leg::Serial => Box::new(SerialBackend),
            Leg::Sharded => Box::new(ShardedBackend::new(SHARDS)?),
            Leg::Pipelined => Box::new(PipelinedBackend::new(SHARDS)?),
            Leg::MultiGpu => Box::new(MultiGpuBackend::new(Self::topology())),
        })
    }
}

/// One measured fixpoint run.
#[derive(Debug)]
struct LegRun {
    /// Raw wall time of `GpulogEngine::run`.
    wall: f64,
    /// The host-speed scale at its start (see [`HostClock`]).
    scale: f64,
    stats: RunStats,
    counters: CounterSnapshot,
    device_phases: HashMap<String, Duration>,
    backend: Option<BackendTotals>,
}

impl LegRun {
    fn device_phase(&self, name: &str) -> f64 {
        self.device_phases.get(name).map_or(0.0, |d| secs(*d))
    }
}

/// Builds a fresh engine for `leg` (outside the timed region) and times
/// its `run()`.
/// The speed of the host, as seen from the calling thread.
///
/// The shared host this benchmark was sized on runs any code up to ~1.7x
/// slower at some times than at others, in stretches from half a second
/// to minutes, and no statistic over one run's samples removes a slow
/// minute. So every end-to-end wall time is scaled by the host's speed at
/// the time: the calling thread times a fixed probe kernel (sort, binary
/// search, hash inserts, all in benchmark code) at most [`PROBE_EVERY`]
/// before the sample, never inside a timed region, and the sample is
/// multiplied by `PROBE_REF_S / probe`. A change in the program moves the
/// sample and not the probe.
#[derive(Debug)]
struct HostClock {
    probed: Instant,
    scale: f64,
    /// Every scale this clock measured, for the run conditions.
    scales: Vec<f64>,
}

impl HostClock {
    fn new() -> Self {
        let mut clock = HostClock {
            probed: Instant::now(),
            scale: 1.0,
            scales: Vec::new(),
        };
        clock.probe();
        clock
    }

    fn probe(&mut self) {
        let fastest = (0..PROBE_REPS)
            .map(|_| probe_kernel())
            .fold(f64::INFINITY, f64::min);
        self.scale = PROBE_REF_S / fastest;
        self.scales.push(self.scale);
        self.probed = Instant::now();
    }

    /// The scale for a sample about to start, re-probed first when the
    /// last probe is older than [`PROBE_EVERY`].
    fn scale(&mut self) -> f64 {
        if self.probed.elapsed() >= PROBE_EVERY {
            self.probe();
        }
        self.scale
    }
}

/// The count, minimum, median and maximum of `scales`, for the conditions.
fn scale_summary(scales: &[f64]) -> String {
    format!(
        "{} probes, min {:.3} p50 {:.3} max {:.3}",
        scales.len(),
        percentile(scales, 0.0),
        median(scales),
        percentile(scales, 1.0)
    )
}

/// The probe: fixed work, the same on every call, in the allocation,
/// sorting and searching mix of the engine's kernels; its time in seconds.
fn probe_kernel() -> f64 {
    let start = Instant::now();
    let mut rng = Rng::new(0x9E37);
    let mut values: Vec<u64> = (0..16_384).map(|_| rng.next_u64() % 100_000).collect();
    values.sort_unstable();
    values.dedup();
    let hits = (0..16_384)
        .filter(|_| values.binary_search(&(rng.next_u64() % 100_000)).is_ok())
        .count();
    let set: HashSet<u64> = values.iter().take(4096).copied().collect();
    std::hint::black_box((hits, set.len()));
    secs(start.elapsed())
}

fn run_leg(
    w: &Workload,
    leg: Leg,
    device: &Device,
    tracer: &Arc<Tracer>,
    wrap: bool,
    clock: &mut HostClock,
) -> EngineResult<(LegRun, Outputs)> {
    let mut builder = GpulogEngine::builder(device)
        .program(w.source())
        .config(leg.config());
    let mut totals: Option<Arc<Mutex<BackendTotals>>> = None;
    if wrap {
        let (backend, handle) = TimedBackend::new(leg.backend()?, Arc::clone(tracer));
        builder = builder.backend(Box::new(backend));
        totals = Some(handle);
    }
    let mut engine = w.load(builder.build()?)?;
    let scale = clock.scale();
    device.metrics().reset_phase_times();
    let before = device.metrics().snapshot();
    let request = tracer.request();
    let start = Instant::now();
    let stats = tracer.span("engine.run", Some(request), || engine.run())?;
    let wall = secs(start.elapsed());
    let counters = device.metrics().snapshot().since(&before);
    let device_phases = device.metrics().phase_times();
    let backend = totals.map(|t| *t.lock().expect("no thread panics while holding the totals"));
    let rows = outputs(&engine)?;
    Ok((
        LegRun {
            wall,
            scale,
            stats,
            counters,
            device_phases,
            backend,
        },
        rows,
    ))
}

/// Whether a phase that has finished `done` rounds starts another: always
/// below `min`, and otherwise only if a round as long as the last one
/// still ends by `deadline` — so a run overruns its budget by little even
/// when one round takes seconds.
fn another_round(done: usize, min: usize, last_start: Instant, deadline: Instant) -> bool {
    done < min || Instant::now() + last_start.elapsed() <= deadline
}

/// Median over `runs` of `f`.
fn med(runs: &[LegRun], f: impl Fn(&LegRun) -> f64) -> f64 {
    median(&runs.iter().map(f).collect::<Vec<_>>())
}

/// Phase 1: the four backend legs, round-robin. The first serial run's
/// outputs are the reference every later run must equal byte for byte
/// and the oracles then check.
#[derive(Debug, Default)]
struct FixpointPhase {
    devices: Vec<Device>,
    runs: Vec<Vec<LegRun>>,
    /// Serial walls without the wrapper or spans (traced runs only).
    untraced: Vec<f64>,
    reference: Option<Outputs>,
    setups: Setups,
    rounds: usize,
}

impl FixpointPhase {
    /// Rounds for `budget`: at least one, and two in the run's first call
    /// (round 0 warms each device's pools and is not measured).
    fn run_for(
        &mut self,
        w: &Workload,
        budget: Duration,
        tracer: &Arc<Tracer>,
        tally: &mut Tally,
        clock: &mut HostClock,
    ) {
        if self.devices.is_empty() {
            self.devices = LEGS.iter().map(|_| device()).collect();
            self.runs = LEGS.iter().map(|_| Vec::new()).collect();
        }
        let deadline = Instant::now() + budget;
        loop {
            let round_start = Instant::now();
            self.round(w, tracer, tally, clock);
            if !another_round(self.rounds, 2, round_start, deadline) {
                break;
            }
        }
    }

    fn round(
        &mut self,
        w: &Workload,
        tracer: &Arc<Tracer>,
        tally: &mut Tally,
        clock: &mut HostClock,
    ) {
        for (i, &leg) in LEGS.iter().enumerate() {
            match run_leg(w, leg, &self.devices[i], tracer, tracer.enabled(), clock) {
                Ok((run, rows)) => {
                    tally.ok();
                    match &self.reference {
                        None => self.reference = Some(rows),
                        Some(expected) => tally.check(*expected == rows, || {
                            format!("{leg:?} fixpoint differs from the serial one")
                        }),
                    }
                    if self.rounds > 0 {
                        self.runs[i].push(run);
                    }
                }
                Err(err) => tally.fail(format!("{leg:?} fixpoint: {err}")),
            }
        }
        if tracer.enabled() {
            // The same serial run without the wrapper or spans, for the
            // tracing overhead.
            let plain = Tracer::new(false);
            match run_leg(w, Leg::Serial, &self.devices[0], &plain, false, clock) {
                Ok((run, _)) if self.rounds > 0 => self.untraced.push(run.wall),
                Ok(_) => {}
                Err(err) => tally.fail(format!("untraced serial fixpoint: {err}")),
            }
        }
        for _ in 0..SETUPS_PER_ROUND {
            setup_once(w, tracer, tally, &mut self.setups, clock);
        }
        self.rounds += 1;
    }

    /// Reports the legs' metrics and returns the reference outputs.
    fn report(
        self,
        w: &Workload,
        traced: bool,
        m: &mut BTreeMap<&'static str, f64>,
        conditions: &mut Vec<(String, String)>,
    ) -> Option<Outputs> {
        m.insert("setup_s", median(&self.setups.times));
        m.insert("frontend.build_us", median(&self.setups.builds_us));
        for (i, leg) in LEGS.iter().enumerate() {
            let walls: Vec<f64> = self.runs[i].iter().map(|r| r.wall).collect();
            m.insert(leg.metric(), med(&self.runs[i], |r| r.wall * r.scale));
            conditions.push((
                format!("{}_raw", leg.metric()),
                format!(
                    "{} runs, min {:.6} p50 {:.6} max {:.6}",
                    walls.len(),
                    percentile(&walls, 0.0),
                    median(&walls),
                    percentile(&walls, 1.0)
                ),
            ));
        }
        let serial = &self.runs[0];
        let pipelined = &self.runs[2];
        let multigpu = &self.runs[3];
        m.insert(
            "modeled_device_s",
            med(serial, |r| r.stats.modeled_seconds()),
        );
        m.insert(
            "modeled_cp_s",
            med(multigpu, |r| {
                r.stats
                    .topology
                    .as_ref()
                    .map_or(0.0, |t| t.modeled_critical_path_sec)
            }),
        );
        layer_metrics(w, serial, pipelined, multigpu, &self.untraced, traced, m);
        self.reference
    }
}

/// Per-layer figures of the fixpoint legs, from the serial leg unless
/// the name says otherwise.
fn layer_metrics(
    w: &Workload,
    serial: &[LegRun],
    pipelined: &[LegRun],
    multigpu: &[LegRun],
    untraced: &[f64],
    traced: bool,
    m: &mut BTreeMap<&'static str, f64>,
) {
    let edb: HashSet<&str> = w.edb.iter().map(|(name, _)| *name).collect();
    let delta = |r: &LegRun| -> f64 {
        r.stats
            .iteration_records
            .iter()
            .map(|i| i.delta_tuples as f64)
            .sum()
    };
    let new = |r: &LegRun| -> f64 {
        r.stats
            .iteration_records
            .iter()
            .map(|i| i.new_tuples as f64)
            .sum()
    };
    let derived = |r: &LegRun| -> usize {
        r.stats
            .relation_sizes
            .iter()
            .filter(|(name, _)| !edb.contains(name.as_str()))
            .map(|(_, size)| size)
            .sum()
    };
    m.insert(
        "engine.iterations",
        med(serial, |r| r.stats.iterations as f64),
    );
    m.insert(
        "engine.tail_iterations",
        med(serial, |r| r.stats.tail_iterations(derived(r), 0.01) as f64),
    );
    m.insert("engine.delta_tuples", med(serial, delta));
    m.insert("engine.new_tuples", med(serial, new));
    m.insert(
        "engine.dedup_yield",
        med(serial, |r| ratio(delta(r), new(r))),
    );
    m.insert(
        "engine.us_per_iteration",
        med(serial, |r| ratio(r.wall * 1e6, r.stats.iterations as f64)),
    );
    for (phase, metric) in [
        (Phase::Join, "engine.phase.join_s"),
        (Phase::Deduplication, "engine.phase.dedup_s"),
        (Phase::IndexDelta, "engine.phase.index_delta_s"),
        (Phase::IndexFull, "engine.phase.index_full_s"),
        (Phase::Merge, "engine.phase.merge_s"),
        (Phase::Other, "engine.phase.other_s"),
    ] {
        m.insert(metric, med(serial, |r| r.stats.phase(phase)));
    }
    m.insert(
        "engine.unattributed_s",
        med(serial, |r| r.wall - r.stats.phase_total()),
    );
    if traced {
        let b = |r: &LegRun| r.backend.unwrap_or_default();
        let covered = |r: &LegRun| secs(b(r).rule_exec + b(r).diff_exec + b(r).fence);
        m.insert("backend.rule_exec_s", med(serial, |r| secs(b(r).rule_exec)));
        m.insert("backend.diff_exec_s", med(serial, |r| secs(b(r).diff_exec)));
        m.insert("backend.fence_s", med(serial, |r| secs(b(r).fence)));
        m.insert("backend.loop_s", med(serial, |r| r.wall - covered(r)));
        m.insert("backend.calls", med(serial, |r| b(r).calls as f64));
        m.insert(
            "backend.idle_calls",
            med(serial, |r| b(r).idle_calls as f64),
        );
        m.insert(
            "backend.useful_call_ratio",
            med(serial, |r| {
                ratio((b(r).calls - b(r).idle_calls) as f64, b(r).calls as f64)
            }),
        );
        let covered_total: f64 = serial.iter().map(covered).sum();
        let wall_total: f64 = serial.iter().map(|r| r.wall).sum();
        m.insert("trace.coverage", ratio(covered_total, wall_total));
        let traced_wall = med(serial, |r| r.wall);
        let plain_wall = median(untraced);
        m.insert("trace.fixpoint_traced_s", traced_wall);
        m.insert("trace.fixpoint_untraced_s", plain_wall);
        m.insert("trace.overhead", ratio(traced_wall, plain_wall));
    }
    let count =
        |runs: &[LegRun], f: fn(&CounterSnapshot) -> u64| med(runs, |r| f(&r.counters) as f64);
    m.insert("hisa.hash_inserts", count(serial, |c| c.hash_inserts));
    m.insert("hisa.hash_rebuilds", count(serial, |c| c.hash_rebuilds));
    m.insert(
        "hisa.inserts_per_delta_tuple",
        med(serial, |r| ratio(r.counters.hash_inserts as f64, delta(r))),
    );
    m.insert("hisa.merge_s", med(serial, |r| r.device_phase("merge")));
    m.insert("hisa.index_s", med(serial, |r| r.device_phase("index")));
    m.insert(
        "hisa.hash_inserts_pipelined",
        count(pipelined, |c| c.hash_inserts),
    );
    m.insert(
        "hisa.hash_rebuilds_pipelined",
        count(pipelined, |c| c.hash_rebuilds),
    );
    m.insert("device.sort_passes", count(serial, |c| c.sort_passes));
    m.insert("device.sort_s", med(serial, |r| r.device_phase("sort")));
    m.insert(
        "device.kernel_launches",
        count(serial, |c| c.kernel_launches),
    );
    m.insert(
        "device.bytes_moved",
        count(serial, CounterSnapshot::bytes_moved),
    );
    m.insert(
        "device.allocations",
        med(serial, |r| r.stats.allocations as f64),
    );
    m.insert(
        "device.pool_reuse_ratio",
        med(serial, |r| {
            ratio(r.stats.pool_reuses as f64, r.stats.allocations as f64)
        }),
    );
    m.insert("device.dispatches", count(serial, |c| c.pool_dispatches));
    m.insert(
        "device.dispatch_s",
        med(serial, |r| r.counters.dispatch_nanos as f64 * 1e-9),
    );
    m.insert(
        "device.peak_mib",
        med(serial, |r| {
            r.stats.peak_device_bytes as f64 / (1024.0 * 1024.0)
        }),
    );
    m.insert(
        "device.overlap_s",
        med(pipelined, |r| r.stats.overlap_nanos as f64 * 1e-9),
    );
    m.insert(
        "device.stall_s",
        med(pipelined, |r| r.stats.pipeline_stall_nanos as f64 * 1e-9),
    );
    m.insert(
        "device.adaptive_merge_batches",
        med(pipelined, |r| r.stats.adaptive_merge_batches as f64),
    );
    let topo = |f: fn(&gpulog::TopologyReport) -> f64| {
        med(multigpu, |r| r.stats.topology.as_ref().map_or(0.0, f))
    };
    m.insert(
        "topology.exchange_bytes",
        topo(|t| t.total_exchange_bytes as f64),
    );
    m.insert(
        "topology.exchange_messages",
        topo(|t| t.total_exchange_messages as f64),
    );
    m.insert(
        "topology.max_device_compute_s",
        topo(|t| {
            t.devices
                .iter()
                .map(|d| d.modeled_compute_sec)
                .fold(0.0, f64::max)
        }),
    );
}

/// One reader answer kept for the oracle check.
#[derive(Debug)]
struct Sample {
    goal: bool,
    key: u32,
    rows: Vec<Vec<u32>>,
}

/// Latencies of one kind of reader operation over the run: the count and
/// total of all of them, and a log-linear histogram of their nanoseconds
/// with `2^SUB_BUCKET_BITS` buckets per power of two (under 0.8% wide) for
/// the percentiles. Every operation is counted, and memory (and with it
/// `peak_rss_mib`) stays flat however many operations a run makes.
#[derive(Debug, Default)]
struct Latencies {
    count: u64,
    total_us: f64,
    buckets: Vec<u64>,
}

const SUB_BUCKET_BITS: u32 = 7;

/// The histogram bucket of `ns`: exact below `2^(SUB_BUCKET_BITS + 1)`,
/// then `2^SUB_BUCKET_BITS` buckets per power of two.
fn bucket_of(ns: u64) -> usize {
    let top = 63 - (ns | 1).leading_zeros();
    if top <= SUB_BUCKET_BITS {
        return ns as usize;
    }
    let shift = top - SUB_BUCKET_BITS;
    ((shift as usize) << SUB_BUCKET_BITS) + (ns >> shift) as usize
}

/// The lowest nanosecond value of `bucket` and its width.
fn bucket_range(bucket: usize) -> (f64, f64) {
    let per = 1usize << SUB_BUCKET_BITS;
    if bucket < 2 * per {
        return (bucket as f64, 1.0);
    }
    let shift = bucket / per - 1;
    let low = ((bucket - shift * per) as u64) << shift;
    (low as f64, (1u64 << shift) as f64)
}

impl Latencies {
    fn push(&mut self, us: f64) {
        self.count += 1;
        self.total_us += us;
        let b = bucket_of((us * 1e3) as u64);
        if self.buckets.len() <= b {
            self.buckets.resize(b + 1, 0);
        }
        self.buckets[b] += 1;
    }

    /// Nearest-rank percentile `q` in microseconds, placed within its
    /// bucket by its rank among the bucket's operations; 0 when empty.
    fn percentile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut below = 0;
        for (b, &n) in self.buckets.iter().enumerate() {
            if below + n >= rank {
                let (low, width) = bucket_range(b);
                let within = (rank - below) as f64 - 0.5;
                return (low + width * within / n as f64) * 1e-3;
            }
            below += n;
        }
        unreachable!("rank {rank} is within the count {}", self.count)
    }
}

/// What the reader measured over the run. Latencies and serving time are
/// scaled by the reader thread's [`HostClock`].
#[derive(Debug)]
struct ReadStats {
    /// Draws the lookup keys.
    rng: Rng,
    /// Operations issued so far; fixes the mix and the sampled answers.
    op: u64,
    lookup_us: Latencies,
    goal_lookup_us: Latencies,
    /// Serving time, raw and scaled.
    seconds: f64,
    scaled_seconds: f64,
    scales: Vec<f64>,
    lookup_rows: u64,
    goal_lookup_rows: u64,
    unknown_relation: u64,
    samples: Vec<Sample>,
}

impl ReadStats {
    fn reads(&self) -> u64 {
        self.lookup_us.count + self.goal_lookup_us.count
    }
}

/// What the writer measured, one entry per update.
#[derive(Debug, Default)]
struct WriteStats {
    /// Scaled time to visibility of every update that became visible.
    visible_ms: Vec<f64>,
    insert_us: Vec<f64>,
    refresh_run_s: Vec<f64>,
    publish_us: Vec<f64>,
    late_ms: Vec<f64>,
    errors: Vec<String>,
    updates: u32,
}

/// What the serving windows measured.
#[derive(Debug)]
struct ServeStats {
    reads: ReadStats,
    writes: WriteStats,
    generations: u64,
    final_rows: Outputs,
}

impl ServeStats {
    fn report(&self, m: &mut BTreeMap<&'static str, f64>, c: &mut Vec<(String, String)>) {
        let (r, w) = (&self.reads, &self.writes);
        m.insert("lookup_p50_us", r.lookup_us.percentile(0.5));
        m.insert("lookup_p99_us", r.lookup_us.percentile(0.99));
        m.insert("goal_lookup_p50_us", r.goal_lookup_us.percentile(0.5));
        m.insert("reads_per_s", ratio(r.reads() as f64, r.scaled_seconds));
        m.insert("update_visible_p50_ms", median(&w.visible_ms));
        m.insert("serve.insert_us", median(&w.insert_us));
        m.insert("serve.refresh_run_s", median(&w.refresh_run_s));
        m.insert("serve.publish_us", median(&w.publish_us));
        m.insert("serve.generations", self.generations as f64);
        m.insert("serve.generator_late_ms", median(&w.late_ms));
        m.insert(
            "serve.rows_per_lookup",
            ratio(r.lookup_rows as f64, r.lookup_us.count as f64),
        );
        m.insert(
            "serve.goal_lookup_rows",
            ratio(r.goal_lookup_rows as f64, r.goal_lookup_us.count as f64),
        );
        c.push((
            "serve_samples".into(),
            format!(
                "{} point_lookups, {} goal_lookups, {} updates, {:.3} s",
                r.lookup_us.count, r.goal_lookup_us.count, w.updates, r.seconds,
            ),
        ));
        c.push(("reader_host_scale".into(), scale_summary(&r.scales)));
        let goal_us = r.goal_lookup_us.total_us;
        let point_us = r.lookup_us.total_us;
        c.push((
            "reader_goal_lookup_time_share".into(),
            format!("{:.3}", ratio(goal_us, goal_us + point_us)),
        ));
        let busy_s = w.insert_us.iter().sum::<f64>() * 1e-6
            + w.refresh_run_s.iter().sum::<f64>()
            + w.publish_us.iter().sum::<f64>() * 1e-6;
        c.push((
            "writer_busy_share".into(),
            format!("{:.3}", ratio(busy_s, r.seconds)),
        ));
        c.push((
            "writer_late_ms".into(),
            format!(
                "p50 {:.3} max {:.3}",
                median(&w.late_ms),
                percentile(&w.late_ms, 1.0)
            ),
        ));
    }
}

/// The closed-loop reader of one serving window. Every [`PROBE_EVERY`]
/// it stops to probe the host's speed, outside any timed operation and
/// outside the serving time it reports.
fn read_loop(
    w: &Workload,
    handle: &gpulog_serve::ServeHandle,
    stats: &mut ReadStats,
    tracer: &Tracer,
    deadline: Instant,
) {
    let mut clock = HostClock::new();
    let mut scale = clock.scale;
    let mut since = Instant::now();
    loop {
        let key = w.keys[stats.rng.below(w.keys.len())];
        let op = stats.op;
        let goal = op % w.goal_lookup_every == w.goal_lookup_every - 1;
        let t = Instant::now();
        let rows = if goal {
            tracer.span("serve.goal_lookup", None, || {
                handle.goal_lookup(w.query_relation, &[None, Some(key)])
            })
        } else {
            tracer.span("serve.point_lookup", None, || {
                handle.point_lookup(w.query_relation, &[key])
            })
        };
        let done = Instant::now();
        let us = secs(done - t) * 1e6 * scale;
        match rows {
            Some(rows) => {
                if goal {
                    stats.goal_lookup_us.push(us);
                    stats.goal_lookup_rows += rows.len() as u64;
                } else {
                    stats.lookup_us.push(us);
                    stats.lookup_rows += rows.len() as u64;
                }
                if op.is_multiple_of(SAMPLE_EVERY) && stats.samples.len() < MAX_SAMPLES {
                    stats.samples.push(Sample { goal, key, rows });
                }
            }
            None => stats.unknown_relation += 1,
        }
        stats.op += 1;
        if done >= deadline || done - since >= PROBE_EVERY {
            stats.seconds += secs(done - since);
            stats.scaled_seconds += secs(done - since) * scale;
            if done >= deadline {
                stats.scales.append(&mut clock.scales);
                return;
            }
            scale = clock.scale();
            since = Instant::now();
        }
    }
}

/// Phase 2: the serving windows, one per cycle. The writer is open loop
/// over the serving time of the whole run: update `k` is due `k / rate`
/// seconds into it, and its visibility is timed from that due time to the
/// end of its publish.
#[derive(Debug)]
struct ServePhase {
    writer: Option<ServeWriter>,
    failed: bool,
    /// Serving time of the windows so far.
    served: Duration,
    reads: ReadStats,
    writes: WriteStats,
}

impl ServePhase {
    fn new(w: &Workload) -> Self {
        ServePhase {
            writer: None,
            failed: false,
            served: Duration::ZERO,
            reads: ReadStats {
                rng: Rng::new(w.stream_seed ^ 0x5E4E),
                op: 0,
                lookup_us: Latencies::default(),
                goal_lookup_us: Latencies::default(),
                seconds: 0.0,
                scaled_seconds: 0.0,
                scales: Vec::new(),
                lookup_rows: 0,
                goal_lookup_rows: 0,
                unknown_relation: 0,
                samples: Vec::new(),
            },
            writes: WriteStats::default(),
        }
    }

    /// One serving window of `budget`. The writer is `served` when the
    /// workload's set-up publishes, else built here on first use.
    fn run_for(
        &mut self,
        w: &Workload,
        budget: Duration,
        served: Option<ServeWriter>,
        tracer: &Tracer,
        tally: &mut Tally,
        clock: &mut HostClock,
    ) {
        if self.writer.is_none() && !self.failed {
            let writer = match served {
                Some(writer) => Ok(writer),
                None => w
                    .prepare(&device(), EngineConfig::default())
                    .and_then(ServeWriter::new),
            };
            match writer {
                Ok(writer) => self.writer = Some(writer),
                Err(err) => {
                    self.failed = true;
                    tally.fail(format!("serve set-up: {err}"));
                }
            }
        }
        let Some(writer) = self.writer.as_mut() else {
            return;
        };
        let handle = writer.handle();
        let (reads, writes) = (&mut self.reads, &mut self.writes);
        let before = reads.reads();
        let visible_before = writes.visible_ms.len();
        let start = Instant::now();
        let deadline = start + budget;
        let period = Duration::from_secs_f64(1.0 / w.update_hz);
        let served_before = self.served;
        std::thread::scope(|s| {
            s.spawn(|| read_loop(w, &handle, reads, tracer, deadline));
            loop {
                let k = writes.updates;
                let due = start + (period * k).saturating_sub(served_before);
                if due >= deadline {
                    break;
                }
                // The writer probes the host only while it has time to spare.
                if due.saturating_duration_since(Instant::now()) >= WRITER_PROBE_SLACK {
                    clock.scale();
                }
                let scale = clock.scale;
                let now = Instant::now();
                if now < due {
                    std::thread::sleep(due - now);
                }
                writes
                    .late_ms
                    .push(secs(Instant::now().saturating_duration_since(due)) * 1e3);
                let request = tracer.request();
                let t = Instant::now();
                let inserted = tracer.span("serve.insert_facts_batch", Some(request), || {
                    writer.insert_facts_batch(w.update_relation, &w.update(k))
                });
                let insert = t.elapsed();
                let t = Instant::now();
                let refreshed = tracer.span("serve.refresh", Some(request), || writer.refresh());
                let refresh = t.elapsed();
                match inserted.and(refreshed) {
                    Ok(run) => {
                        writes.visible_ms.push(secs(due.elapsed()) * 1e3 * scale);
                        writes.insert_us.push(secs(insert) * 1e6);
                        writes.refresh_run_s.push(run.wall_seconds);
                        writes
                            .publish_us
                            .push((secs(refresh) - run.wall_seconds) * 1e6);
                    }
                    Err(err) => writes.errors.push(format!("update {k}: {err}")),
                }
                writes.updates += 1;
            }
        });
        self.served += budget;
        tally.attempted += self.reads.reads() - before;
        tally.attempted += (self.writes.visible_ms.len() - visible_before) as u64;
    }

    /// The run's serving measurements and the final served fact set.
    fn finish(self, tally: &mut Tally) -> Option<ServeStats> {
        let writer = self.writer?;
        for _ in 0..self.reads.unknown_relation {
            tally.fail("a lookup named an unknown relation".into());
        }
        for err in &self.writes.errors {
            tally.fail(format!("serve {err}"));
        }
        let final_rows = outputs(writer.engine()).unwrap_or_else(|err| {
            tally.fail(format!("final snapshot: {err}"));
            Vec::new()
        });
        Some(ServeStats {
            generations: writer.handle().generation(),
            reads: self.reads,
            writes: self.writes,
            final_rows,
        })
    }
}

/// What the goal-query loop measured.
#[derive(Debug, Default)]
struct GoalStats {
    /// `(source, latency)` of every query.
    latency_us: Vec<(u32, f64)>,
    sub_run_us: Vec<f64>,
    iterations: Vec<f64>,
    materialized: Vec<f64>,
    /// `(source, answers)` kept for the oracle check.
    samples: Vec<(u32, Vec<u32>)>,
}

impl GoalStats {
    fn report(&self, m: &mut BTreeMap<&'static str, f64>, c: &mut Vec<(String, String)>) {
        // A query's cost depends on its source, and sources are asked
        // unequally often: a source's cost is the median of its queries,
        // and the metric is the median over sources.
        let mut by_source: BTreeMap<u32, Vec<f64>> = BTreeMap::new();
        for &(source, us) in &self.latency_us {
            by_source.entry(source).or_default().push(us);
        }
        let costs: Vec<f64> = by_source.values().map(|v| median(v)).collect();
        m.insert("goal_query_p50_us", median(&costs));
        m.insert("goal.sub_run_us", median(&self.sub_run_us));
        m.insert("goal.iterations", median(&self.iterations));
        m.insert("goal.tuples_materialized", median(&self.materialized));
        c.push(("goal_queries".into(), self.latency_us.len().to_string()));
    }
}

/// Phase 3: closed-loop goal queries through the magic-sets rewrite, in
/// rounds over the workload's goal sources, each round in a seeded order.
#[derive(Debug)]
struct GoalPhase {
    engine: Option<GpulogEngine>,
    rng: Rng,
    /// Sources still to ask in the current round.
    queue: Vec<u32>,
    rounds: usize,
    stats: GoalStats,
}

impl GoalPhase {
    fn new(w: &Workload, tally: &mut Tally) -> Self {
        let engine = w
            .prepare(&device(), EngineConfig::default())
            .map_err(|err| tally.fail(format!("goal set-up: {err}")))
            .ok();
        GoalPhase {
            engine,
            rng: Rng::new(w.stream_seed ^ 0x60A1),
            queue: Vec::new(),
            rounds: 0,
            stats: GoalStats::default(),
        }
    }

    /// Queries for `budget`: at least one, and more while one as long as
    /// the last still fits.
    fn run_for(
        &mut self,
        w: &Workload,
        budget: Duration,
        tracer: &Arc<Tracer>,
        tally: &mut Tally,
        clock: &mut HostClock,
    ) {
        let Some(engine) = &self.engine else {
            return;
        };
        let deadline = Instant::now() + budget;
        loop {
            if self.queue.is_empty() {
                self.queue = w.goal_sources.clone();
                for i in (1..self.queue.len()).rev() {
                    self.queue.swap(i, self.rng.below(i + 1));
                }
                self.rounds += 1;
            }
            let key = self.queue.pop().expect("a round has sources");
            let request = tracer.request();
            let scale = clock.scale();
            let t = Instant::now();
            let result = tracer.span("engine.run_query_with", Some(request), || {
                engine.run_query_with(w.query_relation, &[Some(key), None])
            });
            let us = secs(t.elapsed()) * 1e6 * scale;
            let stats = &mut self.stats;
            match result {
                Ok(result) => {
                    tally.ok();
                    stats.latency_us.push((key, us));
                    stats.sub_run_us.push(result.stats.wall_seconds * 1e6);
                    stats.iterations.push(result.stats.iterations as f64);
                    stats.materialized.push(result.tuples_materialized as f64);
                    if self.rounds == 1 {
                        stats.samples.push((key, result.answers.as_flat().to_vec()));
                    }
                }
                Err(err) => tally.fail(format!("goal query from {key}: {err}")),
            }
            if Instant::now() + t.elapsed() > deadline {
                break;
            }
        }
    }
}

/// Host CSPA sizes from the Soufflé-like baseline (its own relation
/// store and join loops; no engine code).
fn cspa_sizes(assign: Vec<(u32, u32)>, dereference: Vec<(u32, u32)>) -> [usize; 3] {
    let input = CspaInput {
        name: "oracle".into(),
        assign,
        dereference,
    };
    let (_, sizes) = souffle_like::cspa(&input, nproc());
    [sizes.value_flow, sizes.value_alias, sizes.memory_alias]
}

fn engine_cspa_sizes(rows: &Outputs) -> [usize; 3] {
    ["ValueFlow", "ValueAlias", "MemoryAlias"].map(|r| relation(rows, r).len() / 2)
}

/// The fixpoint oracle: REACH-shaped programs against host BFS, CSPA
/// against the Soufflé-like baseline's relation sizes.
fn check_fixpoint(w: &Workload, reference: &Outputs, tally: &mut Tally) {
    tally.ok();
    match w.kind {
        Kind::Cspa => {
            let expected = cspa_sizes(w.pairs("Assign"), w.pairs("Dereference"));
            let got = engine_cspa_sizes(reference);
            tally.check(expected == got, || {
                format!("CSPA sizes {got:?} differ from the Souffle-like {expected:?}")
            });
        }
        Kind::Reach | Kind::NegatedReach => {
            let host = w.host_graph(&[]);
            tally.check(host.closure_flat() == relation(reference, "Reach"), || {
                "Reach differs from the host BFS closure".into()
            });
        }
    }
}

/// Rows of a binary relation whose column `col` equals `key`.
fn rows_with(flat: &[u32], col: usize, key: u32) -> Vec<Vec<u32>> {
    flat.chunks(2)
        .filter(|row| row[col] == key)
        .map(<[u32]>::to_vec)
        .collect()
}

/// The serving oracle: the final snapshot against the host oracle over
/// the final fact set, and every sampled answer against the same closure
/// (updates only ever add isolated pairs, so an answer about an input id
/// is the same in every generation).
fn check_serve(w: &Workload, serve: &ServeStats, reference: Option<&Outputs>, tally: &mut Tally) {
    tally.ok();
    let updates: Vec<(u32, u32)> = (0..serve.writes.updates)
        .map(|k| {
            let row = w.update(k);
            (row.as_flat()[0], row.as_flat()[1])
        })
        .collect();
    let expected: Vec<u32> = match w.kind {
        Kind::Cspa => {
            let mut assign = w.pairs("Assign");
            assign.extend(&updates);
            let expected = cspa_sizes(assign, w.pairs("Dereference"));
            let got = engine_cspa_sizes(&serve.final_rows);
            tally.check(expected == got, || {
                format!("served CSPA sizes {got:?} differ from the Souffle-like {expected:?}")
            });
            // Sampled ValueFlow answers are checked against the first
            // serial fixpoint, itself checked against the baseline.
            reference.map_or_else(Vec::new, |r| relation(r, w.query_relation).to_vec())
        }
        Kind::Reach | Kind::NegatedReach => {
            let closure = w.host_graph(&updates).closure_flat();
            tally.check(closure == relation(&serve.final_rows, "Reach"), || {
                "final served Reach differs from the host BFS closure".into()
            });
            closure
        }
    };
    if expected.is_empty() {
        return;
    }
    let bad = serve
        .reads
        .samples
        .iter()
        .filter(|s| rows_with(&expected, usize::from(s.goal), s.key) != s.rows)
        .count();
    tally.check(bad == 0, || {
        format!(
            "{bad} of {} sampled lookups disagree with the oracle",
            serve.reads.samples.len()
        )
    });
}

/// The goal oracle: each kept answer set against host BFS from its source
/// (for CSPA, against the checked serial fixpoint's `ValueFlow` rows).
fn check_goal(w: &Workload, goal: &GoalStats, reference: Option<&Outputs>, tally: &mut Tally) {
    let host = w.host_graph(&[]);
    for (key, answers) in &goal.samples {
        let expected: Vec<u32> = match w.kind {
            Kind::Cspa => match reference {
                Some(r) => rows_with(relation(r, w.query_relation), 0, *key).concat(),
                None => continue,
            },
            Kind::Reach | Kind::NegatedReach => host
                .reachable_from(*key)
                .into_iter()
                .flat_map(|y| [*key, y])
                .collect(),
        };
        tally.check(expected == *answers, || {
            format!("goal answers from {key} disagree with the oracle")
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
    fn listed(section: &str) -> Vec<(String, String)> {
        let json = include_str!("../../BENCHMARK.json");
        let start = json
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("section closes")];
        body.split('{')
            .skip(1)
            .map(|entry| {
                let field = |key: &str| {
                    let at = entry.find(&format!("\"{key}\"")).expect("field present");
                    entry[at..]
                        .split('"')
                        .nth(3)
                        .expect("string value")
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn own(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| ((*n).to_string(), (*u).to_string()))
            .collect()
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        assert_eq!(listed("end_to_end"), own(&END_TO_END));
        assert_eq!(listed("per_layer"), own(&PER_LAYER));
        let json = include_str!("../../BENCHMARK.json");
        for name in workload::NAMES {
            assert!(json.contains(&format!("\"name\": \"{name}\"")), "{name}");
        }
    }

    /// The self-test: every workload at its tiny size, untraced and
    /// traced, emits every named metric with its unit and passes every
    /// oracle check.
    #[test]
    fn every_workload_emits_every_metric_and_passes_its_oracles() {
        for name in workload::NAMES {
            for trace in [false, true] {
                let args = Args {
                    workload: name.to_string(),
                    seed: 3,
                    seconds: 1.0,
                    trace,
                    size: Size::Tiny,
                };
                let outcome = run(&args).expect("known workload");
                assert!(
                    outcome.correct(),
                    "{name} trace {trace}: {:?}",
                    outcome.notes
                );
                let list: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
                let got: Vec<(&str, &str)> =
                    outcome.metrics.iter().map(|(n, _, u)| (*n, *u)).collect();
                assert_eq!(got, list, "{name} trace {trace}");
                if !trace {
                    for (metric, value, _) in &outcome.metrics {
                        assert!(*value > 0.0, "{name}: {metric} is {value}");
                    }
                }
                let json = outcome.result_json();
                assert!(json.starts_with("{\"correct\": true, \"attempted\": "));
            }
        }
    }

    #[test]
    fn arguments_parse_and_reject_bad_values() {
        let args = |s: &str| -> Vec<String> { s.split_whitespace().map(String::from).collect() };
        let a = parse_args(&args(
            "--workload reach-chain --seed 4 --seconds 2 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("reach-chain", 4, 2.0, true)
        );
        assert!(parse_args(&args("--workload x --trace 2")).is_err());
        assert!(parse_args(&args("--workload x --seconds 0")).is_err());
        assert!(parse_args(&args("--seed 1")).is_err());
        assert!(parse_args(&args("--workload")).is_err());
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(median(&[]), 0.0);
    }
    #[test]
    fn latency_histogram_percentiles_stay_within_a_bucket() {
        let mut l = Latencies::default();
        assert_eq!(l.percentile(0.5), 0.0);
        // 1..=1000 µs, one operation each.
        for us in 1..=1000 {
            l.push(f64::from(us));
        }
        assert_eq!(l.count, 1000);
        for (q, exact) in [(0.01, 10.0), (0.5, 500.0), (0.99, 990.0), (1.0, 1000.0)] {
            let got = l.percentile(q);
            assert!(
                (got - exact).abs() <= exact / 128.0,
                "p{q}: {got} vs {exact}"
            );
        }
        // Exact below 256 ns.
        let mut small = Latencies::default();
        small.push(0.1);
        assert!((small.percentile(0.5) - 0.1).abs() < 1e-3);
    }

    #[test]
    fn host_clock_scales_are_positive_and_finite() {
        let mut clock = HostClock::new();
        let scale = clock.scale();
        assert!(scale.is_finite() && scale > 0.0, "{scale}");
        assert!(!clock.scales.is_empty());
    }
}
