//! One benchmark run: set-up, the measured window(s), the correctness check,
//! and the metrics derived from them.

use std::fmt::Write as _;

use ninf_client::CallTiming;
use ninf_obs::recorder;
use ninf_protocol::CallStat;
use serde_json::json;

use crate::probe;
use crate::report::{self, Metrics, BUDGET_ROWS, END_TO_END, PER_LAYER};
use crate::rig::{Rig, Sample, Window};
use crate::stats::{mean, median, percentile, ratio};
use crate::workload::{Inputs, Verdict, Workload};

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
}

/// What a run measured.
pub struct Outcome {
    /// Human-readable report: provenance, counts, metrics, budget.
    pub report: String,
    pub metrics: Metrics,
    /// Calls made in the measured window(s).
    pub attempted: u64,
    /// Calls that errored or returned a wrong result.
    pub failed: u64,
}

impl Outcome {
    /// The machine-readable result line, printed last.
    pub fn result_line(&self, trace: bool) -> String {
        let listed = if trace { PER_LAYER } else { END_TO_END };
        json!({
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": self.metrics.to_json(listed),
        })
        .to_string()
    }
}

/// Outcome counts of the calls checked so far.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    wrong: u64,
    first_error: Option<String>,
}

impl Tally {
    /// Check every call of a window against the local reference (after the
    /// window, so no check sits on the measured path).
    fn check(&mut self, inputs: &Inputs, samples: &[Sample]) {
        for s in samples {
            self.attempted += 1;
            let settled = inputs.settle(s.client, s.seq, &s.verdict);
            if settled.is_err() && !matches!(s.verdict, Verdict::Failed(_)) {
                self.wrong += 1;
            }
            if let Err(e) = settled {
                self.failed += 1;
                self.first_error
                    .get_or_insert(format!("client {} call {}: {e}", s.client, s.seq));
            }
        }
    }
}

/// Samples of calls that returned.
fn ok_samples(window: &Window) -> Vec<&Sample> {
    window
        .samples
        .iter()
        .filter(|s| !matches!(s.verdict, Verdict::Failed(_)))
        .collect()
}

fn calls_per_s(window: &Window) -> f64 {
    ratio(ok_samples(window).len() as f64, window.elapsed)
}

/// Mean over the window's returned calls of `f`.
fn per_call(window: &Window, f: impl Fn(&Sample) -> f64) -> f64 {
    mean(&ok_samples(window).into_iter().map(f).collect::<Vec<_>>())
}

/// Calls a slice of the window needs before it gets its own figures: enough
/// that ten of them lie beyond its 99th percentile.
const SLICE_CALLS: usize = 1000;
/// At most this many slices.
const MAX_SLICES: usize = 10;

/// End-to-end figures `[calls_per_s, p50 ms, p99 ms, mflops, goodput MB/s]`
/// of the returned calls that completed in `[from, to)` of the window, a
/// slice `secs` long.
fn figures(inputs: &Inputs, ok: &[&Sample], from: f64, to: f64, secs: f64) -> [f64; 5] {
    let calls: Vec<&&Sample> = ok.iter().filter(|s| s.end >= from && s.end < to).collect();
    let lat_ms: Vec<f64> = calls.iter().map(|s| s.latency * 1e3).collect();
    let flops = inputs.flops_per_call();
    let mflops: Vec<f64> = calls.iter().map(|s| flops / s.latency / 1e6).collect();
    let delivered: usize = calls.iter().map(|s| s.delivered).sum();
    [
        ratio(calls.len() as f64, secs),
        median(&lat_ms),
        percentile(&lat_ms, 99.0),
        mean(&mflops),
        ratio(delivered as f64 / 1e6, secs),
    ]
}

/// End-to-end metrics of an untraced window. The window is cut into equal
/// time slices of at least [`SLICE_CALLS`] calls each, and every figure is
/// the median over the slices, so a short stall of the host moves one slice
/// rather than the run; a window with fewer calls is one slice.
fn end_to_end(m: &mut Metrics, inputs: &Inputs, window: &Window, setups: &[f64]) {
    let ok = ok_samples(window);
    let slices = (ok.len() / SLICE_CALLS).clamp(1, MAX_SLICES);
    let width = window.elapsed / slices as f64;
    let per_slice: Vec<[f64; 5]> = (0..slices)
        .map(|i| {
            // The last slice also takes the call that ends the window.
            let to = if i + 1 == slices {
                f64::INFINITY
            } else {
                (i + 1) as f64 * width
            };
            figures(inputs, &ok, i as f64 * width, to, width)
        })
        .collect();
    let med = |i: usize| median(&per_slice.iter().map(|f| f[i]).collect::<Vec<_>>());
    for (i, name) in [
        "calls_per_s",
        "latency_p50_ms",
        "latency_p99_ms",
        "mflops",
        "goodput_mb_s",
    ]
    .into_iter()
    .enumerate()
    {
        m.set(name, med(i));
    }
    m.set("setup_s", median(setups));
}

/// Server-side means of the window's call records, seconds.
fn server_means(calls: &[CallStat]) -> [f64; 5] {
    let of = |f: &dyn Fn(&CallStat) -> f64| calls.iter().map(f).collect::<Vec<f64>>();
    let wait = of(&|c| c.t_dequeue - c.t_enqueue);
    [
        mean(&of(&|c| c.t_enqueue - c.t_submit)),
        mean(&wait),
        percentile(&wait, 99.0),
        mean(&of(&|c| c.t_complete - c.t_dequeue)),
        mean(&of(&|c| c.t_complete - c.t_submit)),
    ]
}

/// The client's decomposition of a traced call.
fn timing(s: &Sample) -> &CallTiming {
    s.timing
        .as_deref()
        .expect("a traced window keeps every call's timing")
}

/// Per-layer metrics of a traced window.
fn per_layer(
    m: &mut Metrics,
    rig: &Rig,
    inputs: &Inputs,
    traced: &Window,
    plain_calls_per_s: f64,
    store_delta: [u64; 5],
    probes: &probe::Probes,
) {
    let calls = ok_samples(traced).len() as f64;
    let ms = |f: fn(&Sample) -> f64| per_call(traced, f) * 1e3;
    m.set("ninf-client.interface_ms", rig.interface_s * 1e3);
    m.set("ninf-client.marshal_ms", ms(|s| timing(s).marshal));
    m.set(
        "ninf-client.overhead_ms",
        ms(|s| timing(s).total - timing(s).roundtrip),
    );
    m.set("ninf-client.roundtrip_ms", ms(|s| timing(s).roundtrip));
    let count = |f: fn(&Sample) -> f64| per_call(traced, f);
    m.set(
        "ninf-client.attempts_per_call",
        count(|s| f64::from(timing(s).attempts)),
    );
    m.set(
        "ninf-client.request_bytes",
        count(|s| timing(s).request_bytes as f64),
    );
    m.set(
        "ninf-client.reply_bytes",
        count(|s| timing(s).reply_bytes as f64),
    );
    let refd = count(|s| f64::from(timing(s).args_refd));
    m.set("ninf-client.args_refd", refd);
    m.set(
        "ninf-client.args_refilled",
        count(|s| f64::from(timing(s).args_refilled)),
    );
    m.set(
        "ninf-client.ref_hit_ratio",
        ratio(refd, inputs.cacheable_args() as f64),
    );
    m.set(
        "ninf-client.bulk_bytes",
        count(|s| timing(s).bulk_bytes as f64),
    );
    m.set(
        "ninf-client.bulk_retransmits",
        count(|s| f64::from(timing(s).bulk_retransmits)),
    );
    m.set(
        "ninf-client.bulk_streams",
        count(|s| f64::from(timing(s).bulk_streams)),
    );

    m.set("ninf-protocol.encode_ms", probes.encode_ms);
    m.set("ninf-protocol.decode_ms", probes.decode_ms);
    m.set("ninf-protocol.crc_ms", probes.crc_ms);
    m.set("ninf-protocol.frame_bytes", probes.frame_bytes);
    m.set("ninf-protocol.digest_ms", probes.digest_ms);

    let [response, wait, wait_p99, service, wall] = server_means(&traced.server_calls);
    m.set(
        "ninf-reactor.wire_ms",
        m.get("ninf-client.roundtrip_ms") - wall * 1e3,
    );
    // Every bulk lane dials once per upload; a retried attempt redials the
    // call connection.
    m.set(
        "ninf-reactor.dials",
        count(|s| f64::from(timing(s).attempts - 1 + timing(s).bulk_streams)),
    );
    m.set("ninf-server.response_ms", response * 1e3);
    m.set("ninf-server.queue_wait_ms", wait * 1e3);
    m.set("ninf-server.queue_wait_p99_ms", wait_p99 * 1e3);
    m.set("ninf-server.service_ms", service * 1e3);
    m.set("ninf-server.wall_ms", wall * 1e3);

    let [hits, misses, evictions, chunks, rejects] = store_delta.map(|d| ratio(d as f64, calls));
    m.set("ninf-server.argcache_hits", hits);
    m.set("ninf-server.argcache_misses", misses);
    m.set("ninf-server.argcache_evictions", evictions);
    m.set("ninf-server.argcache_hit_ratio", ratio(hits, hits + misses));
    m.set(
        "ninf-server.argstore_bytes",
        rig.server().arg_store().bytes() as f64,
    );
    m.set("ninf-server.argstore_insert_ms", probes.argstore_insert_ms);
    m.set("ninf-server.argstore_get_ms", probes.argstore_get_ms);
    m.set("ninf-server.chunks", chunks);
    m.set("ninf-server.chunk_rejects", rejects);

    m.set("ninf-exec.kernel_ms", probes.kernel_ms);
    m.set(
        "ninf-exec.handler_overhead_ms",
        service * 1e3 - probes.kernel_ms,
    );
    m.set(
        "ninf-obs.tracing_overhead_pct",
        ratio(plain_calls_per_s - calls_per_s(traced), plain_calls_per_s) * 100.0,
    );
    let latency = ms(|s| s.latency);
    let rows: f64 = BUDGET_ROWS.iter().map(|r| m.get(r)).sum();
    m.set("budget.residual_ms", latency - rows);
}

/// The layer budget of one call: the rows, their sum, the mean client
/// latency, and what the rows leave unexplained.
fn budget_table(m: &Metrics, traced: &Window) -> String {
    let latency = per_call(traced, |s| s.latency) * 1e3;
    let mut out = String::from("layer budget, mean per call (traced window):\n");
    let mut sum = 0.0;
    for row in BUDGET_ROWS {
        let v = m.get(row);
        sum += v;
        let share = ratio(v, latency) * 100.0;
        let _ = writeln!(out, "  {row:<34} {v:>12.4} ms {share:>6.1}%");
    }
    let _ = writeln!(out, "  {:<34} {sum:>12.4} ms", "sum of rows");
    let _ = writeln!(out, "  {:<34} {latency:>12.4} ms", "client latency (mean)");
    let _ = writeln!(
        out,
        "  {:<34} {:>12.4} ms",
        "residual",
        m.get("budget.residual_ms")
    );
    out
}

/// Server argument-store and chunk counters
/// `(hits, misses, evictions, chunks, chunk rejects)`.
fn store_counters(rig: &Rig) -> [u64; 5] {
    let (hits, misses, evictions, _) = rig.server().metrics().argcache();
    let (chunks, rejects, _, _) = rig.server().metrics().chunked();
    [hits, misses, evictions, chunks, rejects]
}

/// Write a traced run's spans next to the benchmark's sources, as Chrome
/// trace JSON; returns the report line saying where.
fn write_trace(workload: Workload, spans: &[ninf_obs::Span]) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{}.json", workload.name()));
    let written = std::fs::create_dir_all(path.parent().expect("path has a parent"))
        .and_then(|()| std::fs::write(&path, ninf_obs::export::chrome_trace_json(spans)));
    match written {
        Ok(()) => format!("trace: {} spans -> {}\n", spans.len(), path.display()),
        Err(e) => format!("trace: not written ({}: {e})\n", path.display()),
    }
}

/// Run one configured benchmark.
pub fn run(cfg: Config) -> Result<Outcome, String> {
    let w = cfg.workload;
    let inputs = Inputs::generate(w, cfg.seed);
    let setups = if cfg.trace { 1 } else { w.setup_repeats() };
    let mut report = String::new();
    let prov = report::provenance(w.name(), cfg.seed, cfg.seconds, cfg.trace, setups);
    let _ = writeln!(report, "provenance {prov}");

    let mut setup_s = Vec::new();
    let mut kept = None;
    for r in 0..setups {
        let rig = Rig::setup(w, cfg.seed, &inputs, (r * w.warmup_calls()) as u64)?;
        setup_s.push(rig.setup_s);
        if let Some(previous) = kept.replace(rig) {
            previous.teardown();
        }
    }
    let mut rig = kept.expect("at least one set-up");
    let warm = rig.warm;
    let counts = json!({
        "input_fingerprint": format!("{:016x}", inputs.fingerprint()),
        "warmup_calls": warm.calls,
        "request_bytes": warm.request_bytes,
        "refs": warm.refs,
        "argcache_hits": warm.argcache_hits,
        "argcache_misses": warm.argcache_misses,
        "argcache_evictions": warm.argcache_evictions,
        "chunks": warm.chunks,
        "bulk_retransmits": warm.bulk_retransmits,
    });
    let _ = writeln!(report, "counts {counts}");
    let _ = writeln!(report, "setup_s samples {setup_s:?}");

    let mut tally = Tally::default();
    let mut metrics = Metrics::default();
    let (steal0, total0) = report::cpu_ticks();
    let windows = if cfg.trace {
        let plain = rig.window(&inputs, cfg.seconds, false);
        let before = store_counters(&rig);
        recorder::global().set_enabled(true);
        let mut traced = rig.window(&inputs, cfg.seconds, true);
        recorder::global().set_enabled(false);
        let after = store_counters(&rig);
        let delta = std::array::from_fn(|i| after[i] - before[i]);
        let (probes, probe_spans) = probe::run(w, rig.args());
        per_layer(
            &mut metrics,
            &rig,
            &inputs,
            &traced,
            calls_per_s(&plain),
            delta,
            &probes,
        );
        let mut spans = std::mem::take(&mut traced.spans);
        spans.extend(probe_spans);
        spans.extend(recorder::global().snapshot(0));
        report.push_str(&write_trace(w, &spans));
        let _ = writeln!(
            report,
            "flight recorder: {} spans dropped by its ring",
            recorder::global().dropped()
        );
        let _ = writeln!(
            report,
            "server call records joined: {} for {} client calls",
            traced.server_calls.len(),
            traced.samples.len()
        );
        vec![plain, traced]
    } else {
        let window = rig.window(&inputs, cfg.seconds, false);
        end_to_end(&mut metrics, &inputs, &window, &setup_s);
        vec![window]
    };
    let (steal1, total1) = report::cpu_ticks();
    let _ = writeln!(
        report,
        "host steal during the window(s): {:.1}% of CPU time",
        ratio((steal1 - steal0) as f64, (total1 - total0) as f64) * 100.0
    );
    rig.teardown();
    if !cfg.trace {
        metrics.set("peak_rss_mb", report::peak_rss_mib());
    }
    for window in &windows {
        tally.check(&inputs, &window.samples);
        let _ = writeln!(
            report,
            "window: {} calls in {:.3} s",
            window.samples.len(),
            window.elapsed
        );
    }
    let _ = writeln!(
        report,
        "calls: attempted={} failed={} wrong={} error_rate={}",
        tally.attempted,
        tally.failed,
        tally.wrong,
        ratio(tally.failed as f64, tally.attempted as f64)
    );
    if let Some(e) = &tally.first_error {
        let _ = writeln!(report, "first failure: {e}");
    }
    if cfg.trace {
        report.push_str("per-layer metrics:\n");
        report.push_str(&metrics.table(PER_LAYER));
        report.push_str(&budget_table(&metrics, &windows[1]));
    } else {
        report.push_str("end-to-end metrics:\n");
        report.push_str(&metrics.table(END_TO_END));
    }
    Ok(Outcome {
        report,
        metrics,
        attempted: tally.attempted,
        failed: tally.failed,
    })
}
