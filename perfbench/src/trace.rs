//! Tracing for `--trace 1` runs: an in-memory span recorder and a
//! `Backend` wrapper that times the real backend from outside.
//!
//! A span records one call into a layer's public function: its name,
//! start and end (relative to the recorder's epoch), the span that was
//! open on the calling thread when it began (its parent), and a request
//! id shared by every span of one request. Spans stay in memory and are
//! written as JSON lines when the run ends. With tracing off,
//! [`Tracer::span`] only runs its body, and the fixpoint legs use the
//! backend the engine picks itself, so untraced runs carry no recorder
//! cost.

use gpulog::backend::{Backend, EvalContext, PipelineOutcome};
use gpulog::{EngineResult, RaOp, RaPipeline, TopologyReport};
use std::cell::RefCell;
use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Spans kept per span name; later ones are counted, not stored, so a
/// serving window of a million lookups cannot exhaust memory.
const MAX_SPANS_PER_NAME: usize = 20_000;

/// One timed call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    /// The enclosing span on the same thread, 0 for a root.
    pub parent: u64,
    pub request: u64,
    pub name: &'static str,
    pub start: Duration,
    pub end: Duration,
}

#[derive(Debug, Default)]
struct Log {
    spans: Vec<Span>,
    per_name: HashMap<&'static str, usize>,
    dropped: u64,
}

/// The span recorder shared by every thread of a run.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    log: Mutex<Log>,
}

thread_local! {
    /// `(span id, request id)` of the spans open on this thread.
    static OPEN: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
}

impl Tracer {
    pub fn new(enabled: bool) -> Arc<Self> {
        Arc::new(Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            log: Mutex::new(Log::default()),
        })
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// A fresh request id (ids and request ids share one counter).
    pub fn request(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Runs `body` inside a span named `name`. The request id is
    /// `request`, else the enclosing span's, else a fresh one.
    pub fn span<R>(&self, name: &'static str, request: Option<u64>, body: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return body();
        }
        let id = self.request();
        let (parent, inherited) = OPEN.with(|open| open.borrow().last().copied().unwrap_or((0, 0)));
        let request = request
            .or((inherited != 0).then_some(inherited))
            .unwrap_or(id);
        OPEN.with(|open| open.borrow_mut().push((id, request)));
        let start = self.epoch.elapsed();
        let result = body();
        let end = self.epoch.elapsed();
        OPEN.with(|open| open.borrow_mut().pop());
        let mut log = self
            .log
            .lock()
            .expect("no thread panics while holding the span log");
        let kept = log.per_name.entry(name).or_insert(0);
        if *kept < MAX_SPANS_PER_NAME {
            *kept += 1;
            log.spans.push(Span {
                id,
                parent,
                request,
                name,
                start,
                end,
            });
        } else {
            log.dropped += 1;
        }
        result
    }

    /// Spans recorded and spans dropped past the per-name cap.
    pub fn counts(&self) -> (usize, u64) {
        let log = self
            .log
            .lock()
            .expect("no thread panics while holding the span log");
        (log.spans.len(), log.dropped)
    }

    /// Writes every recorded span to `path` as JSON lines.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let log = self
            .log
            .lock()
            .expect("no thread panics while holding the span log");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &log.spans {
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"request\": {}, \"name\": \"{}\", \
                 \"start_us\": {:.3}, \"end_us\": {:.3}}}",
                s.id,
                s.parent,
                s.request,
                s.name,
                s.start.as_secs_f64() * 1e6,
                s.end.as_secs_f64() * 1e6,
            )?;
        }
        out.flush()
    }
}

/// What the [`TimedBackend`] saw, summed over every call.
#[derive(Debug, Clone, Copy, Default)]
pub struct BackendTotals {
    /// Time inside `execute` on rule pipelines.
    pub rule_exec: Duration,
    /// Time inside `execute` on `Diff` (delta population and merge)
    /// pipelines.
    pub diff_exec: Duration,
    /// Time inside `fence`.
    pub fence: Duration,
    /// `execute` calls.
    pub calls: u64,
    /// `execute` calls that put out zero rows.
    pub idle_calls: u64,
}

/// Wraps the real backend and times every `execute` and `fence` call,
/// recording a span for each.
#[derive(Debug)]
pub struct TimedBackend {
    inner: Box<dyn Backend>,
    tracer: Arc<Tracer>,
    totals: Arc<Mutex<BackendTotals>>,
}

impl TimedBackend {
    /// Wraps `inner`; the returned handle reads the running totals.
    pub fn new(inner: Box<dyn Backend>, tracer: Arc<Tracer>) -> (Self, Arc<Mutex<BackendTotals>>) {
        let totals = Arc::new(Mutex::new(BackendTotals::default()));
        let backend = TimedBackend {
            inner,
            tracer,
            totals: Arc::clone(&totals),
        };
        (backend, totals)
    }

    fn totals(&self) -> std::sync::MutexGuard<'_, BackendTotals> {
        self.totals
            .lock()
            .expect("no thread panics while holding the backend totals")
    }
}

impl Backend for TimedBackend {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn execute(
        &self,
        ctx: &mut EvalContext<'_>,
        pipeline: &RaPipeline,
    ) -> EngineResult<PipelineOutcome> {
        let is_diff = matches!(pipeline.ops.as_slice(), [RaOp::Diff { .. }]);
        let name = if is_diff {
            "backend.execute_diff"
        } else {
            "backend.execute"
        };
        let start = Instant::now();
        let outcome = self
            .tracer
            .span(name, None, || self.inner.execute(ctx, pipeline));
        let elapsed = start.elapsed();
        let mut totals = self.totals();
        totals.calls += 1;
        if is_diff {
            totals.diff_exec += elapsed;
        } else {
            totals.rule_exec += elapsed;
        }
        if let Ok(out) = &outcome {
            let rows = if is_diff {
                out.delta_rows
            } else {
                out.derived_rows
            };
            if rows == 0 {
                totals.idle_calls += 1;
            }
        }
        outcome
    }

    fn topology_report(&self) -> Option<TopologyReport> {
        self.inner.topology_report()
    }

    fn fence(&self, ctx: &mut EvalContext<'_>) -> EngineResult<()> {
        let start = Instant::now();
        let result = self
            .tracer
            .span("backend.fence", None, || self.inner.fence(ctx));
        self.totals().fence += start.elapsed();
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_share_the_request_id() {
        let tracer = Tracer::new(true);
        let req = tracer.request();
        tracer.span("outer", Some(req), || tracer.span("inner", None, || ()));
        let log = tracer.log.lock().unwrap();
        let inner = log.spans.iter().find(|s| s.name == "inner").unwrap();
        let outer = log.spans.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(inner.parent, outer.id);
        assert_eq!(inner.request, req);
        assert_eq!(outer.request, req);
        assert!(outer.start <= inner.start && inner.end <= outer.end);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        assert_eq!(tracer.span("x", None, || 3), 3);
        assert_eq!(tracer.counts(), (0, 0));
    }
}
