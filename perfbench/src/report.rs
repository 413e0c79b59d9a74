//! Statistics, the seeded input generator, and the result document.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Nearest-rank `q`-quantile of `values` (any order). 0 when empty.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// SplitMix64: the benchmark's only source of randomness, so a seed
/// fixes every generated input.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA24B_AED4_963E_E407));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Peak resident set size of this process in MB (`VmHWM`), 0 when the
/// platform does not expose it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Timings of one workload's operations (one "op" is the unit of work
/// the workload repeats: a fit→search workflow, a warm search, or one
/// request round trip) plus its set-up repetitions.
#[derive(Default)]
pub struct OpTimes {
    pub setup_s: Vec<f64>,
    pub op_s: Vec<f64>,
    /// Ops completed in `wall_s` (more than `op_s` holds when only a
    /// sample of op times is kept).
    pub completed: usize,
    /// Wall seconds from the first op's start to the last op's end.
    pub wall_s: f64,
    /// Peak resident set in MB after a fixed amount of work (set-up and
    /// a fixed number of ops, or the whole serving run), so that a change
    /// that fits more ops into the run does not read as using more memory.
    pub peak_rss_mb: f64,
}

impl OpTimes {
    /// The end-to-end metrics, in `BENCHMARK.json` order, with the
    /// sample count behind each. The tail (`op_p999_ms`) is not among
    /// them: the search workloads time a few dozen ops at most, so their
    /// tail is their slowest op, too unsteady to bound; it goes to the
    /// metadata instead.
    pub fn end_to_end(&self) -> Vec<(&'static str, f64, &'static str, usize)> {
        vec![
            ("setup_s", median(&self.setup_s), "s", self.setup_s.len()),
            ("op_p50_ms", 1e3 * median(&self.op_s), "ms", self.op_s.len()),
            (
                "ops_per_s",
                self.completed as f64 / self.wall_s.max(1e-9),
                "1/s",
                self.completed,
            ),
            ("peak_rss_mb", self.peak_rss_mb, "MB", 1),
        ]
    }
}

/// A metric value: finite JSON number text with all its digits.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Escape a string for a JSON literal.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
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

/// Named metrics with units, in insertion order.
#[derive(Default)]
pub struct Metrics {
    pub entries: Vec<(String, f64, &'static str)>,
    /// Sample count behind each timing, keyed like `entries`.
    pub samples: BTreeMap<String, usize>,
}

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.entries.push((name.to_string(), value, unit));
    }

    pub fn put_timed(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.put(name, value, unit);
        self.samples.insert(name.to_string(), samples);
    }

    pub fn json(&self) -> String {
        let body: Vec<String> = self
            .entries
            .iter()
            .map(|(n, v, u)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    quote(n),
                    num(*v),
                    quote(u)
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }

    pub fn samples_json(&self) -> String {
        let body: Vec<String> = self
            .samples
            .iter()
            .map(|(n, c)| format!("{}: {c}", quote(n)))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}
