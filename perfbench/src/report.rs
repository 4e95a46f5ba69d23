//! Metric names and units, the provenance header, and the result line.

use serde_json::{json, Map, Value};

/// End-to-end metrics `(name, unit)`, printed by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("calls_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("mflops", "Mflop/s"),
    ("goodput_mb_s", "MB/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics `(name, unit)`, printed by every traced run. Client
/// and server figures are means per call of the traced window.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("ninf-client.interface_ms", "ms"),
    ("ninf-client.marshal_ms", "ms"),
    ("ninf-client.overhead_ms", "ms"),
    ("ninf-client.roundtrip_ms", "ms"),
    ("ninf-client.attempts_per_call", "count"),
    ("ninf-client.request_bytes", "bytes"),
    ("ninf-client.reply_bytes", "bytes"),
    ("ninf-client.args_refd", "count"),
    ("ninf-client.args_refilled", "count"),
    ("ninf-client.ref_hit_ratio", "ratio"),
    ("ninf-client.bulk_bytes", "bytes"),
    ("ninf-client.bulk_retransmits", "count"),
    ("ninf-client.bulk_streams", "count"),
    ("ninf-protocol.encode_ms", "ms"),
    ("ninf-protocol.decode_ms", "ms"),
    ("ninf-protocol.crc_ms", "ms"),
    ("ninf-protocol.frame_bytes", "bytes"),
    ("ninf-protocol.digest_ms", "ms"),
    ("ninf-reactor.wire_ms", "ms"),
    ("ninf-reactor.dials", "count"),
    ("ninf-server.response_ms", "ms"),
    ("ninf-server.queue_wait_ms", "ms"),
    ("ninf-server.queue_wait_p99_ms", "ms"),
    ("ninf-server.service_ms", "ms"),
    ("ninf-server.wall_ms", "ms"),
    ("ninf-server.argcache_hits", "count"),
    ("ninf-server.argcache_misses", "count"),
    ("ninf-server.argcache_evictions", "count"),
    ("ninf-server.argcache_hit_ratio", "ratio"),
    ("ninf-server.argstore_bytes", "bytes"),
    ("ninf-server.argstore_insert_ms", "ms"),
    ("ninf-server.argstore_get_ms", "ms"),
    ("ninf-server.chunks", "count"),
    ("ninf-server.chunk_rejects", "count"),
    ("ninf-exec.kernel_ms", "ms"),
    ("ninf-exec.handler_overhead_ms", "ms"),
    ("ninf-obs.tracing_overhead_pct", "%"),
    ("budget.residual_ms", "ms"),
];

/// The rows of the layer budget, in the order a call crosses them. They sum
/// to the mean client latency but for `budget.residual_ms`.
pub const BUDGET_ROWS: &[&str] = &[
    "ninf-client.overhead_ms",
    "ninf-reactor.wire_ms",
    "ninf-server.response_ms",
    "ninf-server.queue_wait_ms",
    "ninf-exec.kernel_ms",
    "ninf-exec.handler_overhead_ms",
];

/// Measured values by metric name.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    /// Record `name` (which must be listed in [`END_TO_END`] or
    /// [`PER_LAYER`]).
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "unlisted metric {name}"
        );
        self.0.retain(|(n, _)| *n != name);
        self.0.push((name, value));
    }

    /// The value of `name`.
    pub fn get(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("metric {name} was not measured"))
    }

    /// `{name: {value, unit}}` for every metric of `listed`, in order.
    pub fn to_json(&self, listed: &[(&str, &str)]) -> Value {
        let mut map = Map::new();
        for (name, unit) in listed {
            map.insert(
                name.to_string(),
                json!({"value": self.get(name), "unit": *unit}),
            );
        }
        Value::Object(map)
    }

    /// Aligned `name value unit` lines for every metric of `listed`.
    pub fn table(&self, listed: &[(&str, &str)]) -> String {
        listed
            .iter()
            .map(|(name, unit)| format!("  {name:<34} {:>16.6} {unit}\n", self.get(name)))
            .collect()
    }
}

/// Peak resident set of this process (`VmHWM`), MiB: client, server and
/// benchmark together.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// CPU time of all CPUs from the first line of `/proc/stat`, in clock
/// ticks: `(steal, total)`. Steal is time a hypervisor gave to other guests
/// while this one's vCPUs were ready to run; it shows up in every timing
/// and is not the program's doing. `(0, 0)` where it cannot be read.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .and_then(|l| l.strip_prefix("cpu "))
        .map(|l| {
            l.split_whitespace()
                .filter_map(|t| t.parse().ok())
                .collect()
        })
        .unwrap_or_default();
    // user nice system idle iowait irq softirq steal ...; guest time is
    // already counted in user.
    let total = ticks.iter().take(8).sum();
    (ticks.get(7).copied().unwrap_or(0), total)
}

/// The commit the benchmark was built from, read from the checkout's
/// `.git` when there is one.
fn git_sha() -> String {
    let git = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let read = |p: &str| std::fs::read_to_string(git.join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown (not a git checkout)".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    read(reference)
        .map(|s| s.trim().to_owned())
        .or_else(|| {
            read("packed-refs")?.lines().find_map(|l| {
                let (sha, name) = l.split_once(' ')?;
                (name == reference).then(|| sha.to_owned())
            })
        })
        .unwrap_or_else(|| format!("unknown ({reference})"))
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// What any two result files need to be comparable: code, host, toolchain,
/// inputs and run shape.
pub fn provenance(workload: &str, seed: u64, seconds: f64, trace: bool, setups: usize) -> Value {
    json!({
        "git_sha": git_sha(),
        "nproc": std::thread::available_parallelism().map_or(1, |n| n.get()),
        "cpu_model": cpu_model(),
        "rustc": env!("PERFBENCH_RUSTC"),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "setup_repeats": setups,
    })
}
