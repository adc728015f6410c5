//! Measurement plumbing: in-memory spans, order statistics, peak RSS,
//! a stable digest for output checks, and the little JSON the
//! benchmark prints.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One timed call into a layer of the program.
#[derive(Debug, Clone)]
pub struct Span {
    /// The public call wrapped, e.g. `cosim.run_for`.
    pub name: &'static str,
    /// Episode the span belongs to (all spans of one episode share it).
    pub episode: u32,
    /// Start, in ns since the tracer was created.
    pub start_ns: u64,
    /// End, in ns since the tracer was created.
    pub end_ns: u64,
}

/// Records spans around calls when switched on; a plain call through
/// otherwise. Spans stay in memory until [`Tracer::write_json`].
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    episode: u32,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            on: false,
            origin: Instant::now(),
            episode: 0,
            spans: Vec::new(),
        }
    }

    /// Switches recording on or off and sets the episode id stamped on
    /// the spans that follow.
    pub fn start_episode(&mut self, episode: u32, on: bool) {
        self.on = on;
        self.episode = episode;
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Runs `f`, recording it as a span named `name` when tracing is on.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start_ns = self.now_ns();
        let out = f();
        self.spans.push(Span {
            name,
            episode: self.episode,
            start_ns,
            end_ns: self.now_ns(),
        });
        out
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Total span time per name within one episode.
    pub fn totals(&self, episode: u32) -> BTreeMap<&'static str, Duration> {
        let mut out = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.episode == episode) {
            *out.entry(s.name).or_insert(Duration::ZERO) +=
                Duration::from_nanos(s.end_ns - s.start_ns);
        }
        out
    }

    /// Every recorded span as a JSON array.
    pub fn write_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"episode\":{},\"start_ns\":{},\"end_ns\":{}}}{sep}",
                s.name, s.episode, s.start_ns, s.end_ns
            );
        }
        out.push(']');
        out
    }
}

/// Order statistics of one timing: minimum, quartiles, the highest of
/// p99/p90/p75 that has at least ten samples beyond it, and the sample
/// count.
#[derive(Debug, Clone)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    /// `(percentile, value)`; `None` below 40 samples.
    pub tail: Option<(u32, f64)>,
}

/// The 1-based nearest rank of percentile `p` (in whole percent) among
/// `n` samples.
fn rank(n: usize, p: u32) -> usize {
    (n * p as usize).div_ceil(100).clamp(1, n.max(1))
}

/// How many of `n` samples lie above the nearest-rank percentile `p`.
pub fn samples_beyond(n: usize, p: u32) -> usize {
    n - rank(n, p).min(n)
}

/// Nearest-rank percentile of sorted samples.
pub fn percentile(sorted: &[f64], p: u32) -> f64 {
    sorted[rank(sorted.len(), p) - 1]
}

pub fn summarize(samples: &[f64]) -> Summary {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    let tail = [99u32, 90, 75]
        .into_iter()
        .find(|&p| samples_beyond(n, p) >= 10)
        .map(|p| (p, percentile(&s, p)));
    let at = |p| if n == 0 { 0.0 } else { percentile(&s, p) };
    Summary {
        n,
        min: s.first().copied().unwrap_or(0.0),
        q1: at(25),
        median: at(50),
        q3: at(75),
        tail,
    }
}

/// Nearest-rank percentile of unsorted samples (0 when empty).
pub fn percentile_of(samples: &[f64], p: u32) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    if s.is_empty() {
        0.0
    } else {
        percentile(&s, p)
    }
}

pub fn median(samples: &[f64]) -> f64 {
    summarize(samples).median
}

/// Peak resident set of this process (`VmHWM`), in MiB. Unlike
/// `getrusage`, it does not carry over the parent's peak across `exec`.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Logical CPUs available to this process.
pub fn cpus() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The checked-out revision, read from `.git` without running git; the
/// benchmark's checkout need not be a repository.
pub fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(r) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(rev) = read(&format!(".git/{r}")) {
        return rev.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(r))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// 64-bit FNV-1a over everything written to it: the digest that output
/// checks compare.
#[derive(Debug, Clone, Copy)]
pub struct Fnv {
    pub hash: u64,
    pub bytes: u64,
}

impl Default for Fnv {
    fn default() -> Self {
        Fnv {
            hash: 0xcbf2_9ce4_8422_2325,
            bytes: 0,
        }
    }
}

impl Fnv {
    pub fn feed(&mut self, data: &[u8]) {
        for &b in data {
            self.hash ^= u64::from(b);
            self.hash = self.hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.bytes += data.len() as u64;
    }
}

impl std::fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.feed(s.as_bytes());
        Ok(())
    }
}

/// A finite number as JSON (non-finite values become `null`, and `-0`
/// becomes `0`).
pub fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{}", x + 0.0)
    } else {
        "null".into()
    }
}

/// A string as JSON.
pub fn text(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

impl Summary {
    pub fn json(&self) -> String {
        let tail = self
            .tail
            .map_or(String::new(), |(p, v)| format!(",\"p{p}\":{}", num(v)));
        format!(
            "{{\"min\":{},\"q1\":{},\"median\":{},\"q3\":{}{tail},\"n\":{}}}",
            num(self.min),
            num(self.q1),
            num(self.median),
            num(self.q3),
            self.n
        )
    }
}
