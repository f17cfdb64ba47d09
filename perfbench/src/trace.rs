//! Timing from outside the program: `/proc` samplers, an in-memory span
//! recorder, and a `Progress` sink that turns the stage events `fit` already
//! emits into stage sub-spans.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use autoai_ts::{Progress, ProgressEvent};

/// Clock ticks per second of the `utime`/`stime` fields of
/// `/proc/self/stat` (`USER_HZ`, 100 on every mainstream Linux build).
const TICKS_PER_SEC: f64 = 100.0;

/// Process CPU time (user + system) in seconds, from `/proc/self/stat`;
/// `None` when `/proc` is unavailable.
pub fn cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // the command name may hold spaces; the fixed fields follow its ')'
    let rest = stat.get(stat.rfind(')')? + 1..)?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // fields 14 and 15 of the file are the 12th and 13th after the name
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) as f64 / TICKS_PER_SEC)
}

/// Peak resident set size of this process in MiB (`VmHWM`); `None` when
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Cores the worker pool can use.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One recorded span: a call into a layer, or a stage inside a fit.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub cpu_s: Option<f64>,
}

impl Span {
    pub fn wall_s(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 * 1e-9
    }

    /// The layer a span belongs to: its name up to the last dot.
    pub fn layer(&self) -> &'static str {
        self.name
            .rsplit_once('.')
            .map_or(self.name, |(layer, _)| layer)
    }
}

/// In-memory span store; written out once, when the run ends.
pub struct Tracer {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Store a finished span and return its id.
    pub fn record(
        &self,
        name: &'static str,
        request: u64,
        parent: Option<u64>,
        (start, end): (Instant, Instant),
        cpu_s: Option<f64>,
    ) -> u64 {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let span = Span {
            id,
            parent,
            request,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            cpu_s,
        };
        self.spans.lock().expect("span store poisoned").push(span);
        id
    }

    /// Rename a span after the fact (an observe that turned out to run a
    /// re-selection belongs to the online layer).
    pub fn rename(&self, id: u64, name: &'static str) {
        let mut spans = self.spans.lock().expect("span store poisoned");
        if let Some(span) = spans.iter_mut().find(|s| s.id == id) {
            span.name = name;
        }
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span store poisoned").clone()
    }
}

/// Times one call; with a tracer, also records it as a root span with the
/// process CPU time it overlapped.
pub fn timed<T>(
    tracer: Option<&Tracer>,
    name: &'static str,
    request: u64,
    f: impl FnOnce() -> T,
) -> (T, f64, Option<u64>) {
    let cpu0 = tracer.and_then(|_| cpu_seconds());
    let start = Instant::now();
    let value = f();
    let end = Instant::now();
    let ms = end.duration_since(start).as_secs_f64() * 1e3;
    let id = tracer.map(|t| {
        let cpu = cpu0.zip(cpu_seconds()).map(|(a, b)| b - a);
        t.record(name, request, None, (start, end), cpu)
    });
    (value, ms, id)
}

/// Sum of each layer's self time: a span's duration minus the part of it
/// its child spans cover (children never overlap within one fit).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut child: BTreeMap<u64, f64> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *child.entry(p).or_default() += s.wall_s();
        }
    }
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    for s in spans {
        let own = (s.wall_s() - child.get(&s.id).copied().unwrap_or(0.0)).max(0.0);
        *out.entry(s.layer()).or_default() += own;
    }
    out
}

/// Spans as JSON lines, one object per span.
pub fn spans_json(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let cpu = s.cpu_s.map_or("null".to_string(), |c| format!("{c}"));
        let _ = writeln!(
            out,
            "{{\"id\":{},\"parent\":{parent},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"cpu_s\":{cpu}}}",
            s.id, s.request, s.name, s.start_ns, s.end_ns
        );
    }
    out
}

/// Stage names of one `fit`, in event order: each stage ends at the event
/// listed beside it and starts where the previous one ended.
const STAGES: [(&str, &str); 7] = [
    ("tsdata.quality", "QualityChecked"),
    ("core.orchestrator.zero_model", "ZeroModelReady"),
    ("lookback.discover", "LookbackDiscovered"),
    ("pipelines.generate", "PipelinesGenerated"),
    ("tdaub.run", "TDaubFinished"),
    ("core.orchestrator.holdout", "HoldoutScored"),
    ("core.orchestrator.finalize", "Ready"),
];

/// A `Progress` sink that timestamps the stage events of one fit and the
/// process CPU time at each of them.
pub struct StageClock {
    marks: Mutex<Vec<(&'static str, Instant, Option<f64>)>>,
}

impl StageClock {
    pub fn new() -> Self {
        Self {
            marks: Mutex::new(Vec::new()),
        }
    }

    /// Turn the marks into stage spans under `parent`, starting at the
    /// fit's own start. Returns `(stage name, wall s, cpu s)` per stage.
    pub fn stages(
        &self,
        tracer: &Tracer,
        parent: u64,
        request: u64,
        start: Instant,
        cpu_start: Option<f64>,
    ) -> Vec<(&'static str, f64, Option<f64>)> {
        let marks = self.marks.lock().expect("stage clock poisoned");
        let mut out = Vec::new();
        let (mut from, mut cpu_from) = (start, cpu_start);
        for (stage, event) in STAGES {
            let Some(&(_, at, cpu)) = marks.iter().find(|(e, _, _)| *e == event) else {
                continue;
            };
            let cpu_s = cpu_from.zip(cpu).map(|(a, b)| b - a);
            tracer.record(stage, request, Some(parent), (from, at), cpu_s);
            out.push((stage, at.duration_since(from).as_secs_f64(), cpu_s));
            from = at;
            cpu_from = cpu;
        }
        out
    }
}

impl Progress for StageClock {
    fn report(&self, event: &ProgressEvent) {
        let name = match event {
            ProgressEvent::QualityChecked { .. } => "QualityChecked",
            ProgressEvent::ZeroModelReady => "ZeroModelReady",
            ProgressEvent::LookbackDiscovered { .. } => "LookbackDiscovered",
            ProgressEvent::PipelinesGenerated { .. } => "PipelinesGenerated",
            ProgressEvent::TDaubFinished { .. } => "TDaubFinished",
            ProgressEvent::HoldoutScored { .. } => "HoldoutScored",
            ProgressEvent::Ready => "Ready",
            _ => return,
        };
        let at = Instant::now();
        let cpu = cpu_seconds();
        if let Ok(mut marks) = self.marks.lock() {
            marks.push((name, at, cpu));
        }
    }
}
