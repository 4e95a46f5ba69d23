//! The measured rig: an in-process reactor-core server, one dialed client
//! connection per closed-loop thread, the timed set-up and the measured
//! window.

use std::time::{Duration, Instant};

use ninf_client::{CallTiming, NinfClient};
use ninf_obs::{Span, TraceContext};
use ninf_protocol::{CallStat, Value};
use ninf_server::builtin::register_stdlib;
use ninf_server::{ExecMode, NinfServer, Registry, SchedPolicy, ServerConfig, ServerCore};

use crate::workload::{Inputs, Verdict, Workload};

/// Counts of the sequential warm-up inside set-up. Nothing in them depends
/// on timing, so they repeat exactly under one seed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WarmCounts {
    /// Warm-up calls made (all clients).
    pub calls: u64,
    /// Array payload bytes shipped inline by those calls.
    pub request_bytes: u64,
    /// Arguments those calls named by content ref.
    pub refs: u64,
    /// Server argument-store hits, misses and evictions.
    pub argcache_hits: u64,
    pub argcache_misses: u64,
    pub argcache_evictions: u64,
    /// Bulk chunks the server accepted.
    pub chunks: u64,
    /// Bulk chunk retransmits the clients reported.
    pub bulk_retransmits: u64,
}

/// One closed-loop client: its connection, its argument vector (rewritten
/// in place per call) and its next call number.
struct Client {
    conn: NinfClient,
    args: Vec<Value>,
    seq: u64,
}

/// One call of the measured window.
pub struct Sample {
    /// Client-observed wall time of the `Ninf_call`, seconds.
    pub latency: f64,
    /// Array payload bytes the call delivered: inline request values,
    /// bulk-shipped images and reply values.
    pub delivered: usize,
    /// The client's own decomposition of the call (traced windows only, so
    /// an untraced window's bookkeeping stays small next to the system's
    /// own memory).
    pub timing: Option<Box<CallTiming>>,
    /// The call's verdict, or its solution kept for the check.
    pub verdict: Verdict,
    /// Which call this was, to regenerate its inputs for the check.
    pub client: usize,
    pub seq: u64,
    /// When the call completed, seconds into the window.
    pub end: f64,
}

/// What one measured window produced.
pub struct Window {
    pub samples: Vec<Sample>,
    /// From the start to the completion of the last call, seconds.
    pub elapsed: f64,
    /// The benchmark's own spans (traced windows only).
    pub spans: Vec<Span>,
    /// Server call records of the window (traced windows only).
    pub server_calls: Vec<CallStat>,
}

/// A spawned server with its warmed-up clients.
pub struct Rig {
    workload: Workload,
    seed: u64,
    server: NinfServer,
    addr: String,
    clients: Vec<Client>,
    /// Stage-1 interface fetch of the first client's first call, seconds.
    pub interface_s: f64,
    /// Set-up wall time, seconds.
    pub setup_s: f64,
    /// Counts of the warm-up.
    pub warm: WarmCounts,
}

/// One call on `client`: rewrite its inputs, call, and judge the results
/// (after the timed span). Returns the latency, the client's timing and
/// the verdict.
fn call(
    workload: Workload,
    seed: u64,
    inputs: &Inputs,
    client: &mut Client,
    index: usize,
) -> (f64, CallTiming, Verdict) {
    inputs.prepare_call(&mut client.args, index, client.seq);
    if let Some(options) = workload.call_options(seed, index, client.seq) {
        if let Err(e) = client.conn.set_options(options) {
            return (0.0, CallTiming::default(), Verdict::Failed(e.to_string()));
        }
    }
    let t0 = Instant::now();
    let out = client.conn.ninf_call(workload.routine(), &client.args);
    let latency = t0.elapsed().as_secs_f64();
    let timing = client.conn.last_timing().unwrap_or_default();
    let verdict = match out {
        Ok(results) => inputs.judge(results),
        Err(e) => Verdict::Failed(e.to_string()),
    };
    (latency, timing, verdict)
}

impl Rig {
    /// Spawn the workload's server, dial its clients, fetch the interface
    /// and run the sequential warm-up; the whole of it is `setup_s`. The
    /// clients number their calls from `first_seq`, so repeated set-ups
    /// send calls of their own.
    pub fn setup(
        workload: Workload,
        seed: u64,
        inputs: &Inputs,
        first_seq: u64,
    ) -> Result<Rig, String> {
        let t0 = Instant::now();
        let mut registry = Registry::new();
        register_stdlib(&mut registry, false);
        let config = ServerConfig {
            pes: workload.pes(),
            mode: ExecMode::TaskParallel,
            policy: SchedPolicy::Fcfs,
            core: ServerCore::default(),
            ..ServerConfig::default()
        };
        let server = NinfServer::start("127.0.0.1:0", registry, config)
            .map_err(|e| format!("server start: {e}"))?;
        let addr = server.addr().to_string();
        let mut clients = Vec::new();
        for _ in 0..workload.clients() {
            let conn = NinfClient::connect_with(&addr, workload.options(seed))
                .map_err(|e| format!("dial {addr}: {e}"))?;
            clients.push(Client {
                conn,
                args: inputs.initial_args(),
                seq: first_seq,
            });
        }
        // Each client's first call fetches the interface (stage 1), under
        // the call's own retry policy, as any client's first Ninf_call does.
        let mut interface_s = 0.0;
        let mut warm = WarmCounts::default();
        for (i, c) in clients.iter_mut().enumerate() {
            for _ in 0..workload.warmup_calls() {
                let (_, timing, verdict) = call(workload, seed, inputs, c, i);
                inputs
                    .settle(i, c.seq, &verdict)
                    .map_err(|e| format!("warm-up call: {e}"))?;
                if i == 0 && warm.calls == 0 {
                    interface_s = timing.interface;
                }
                c.seq += 1;
                warm.calls += 1;
                warm.request_bytes += timing.request_bytes as u64;
                warm.refs += u64::from(timing.args_refd);
                warm.bulk_retransmits += u64::from(timing.bulk_retransmits);
            }
        }
        let (hits, misses, evictions, _) = server.metrics().argcache();
        (
            warm.argcache_hits,
            warm.argcache_misses,
            warm.argcache_evictions,
        ) = (hits, misses, evictions);
        warm.chunks = server.metrics().chunked().0;
        Ok(Rig {
            workload,
            seed,
            server,
            addr,
            clients,
            interface_s,
            setup_s: t0.elapsed().as_secs_f64(),
            warm,
        })
    }

    /// The spawned server (its metrics and argument store).
    pub fn server(&self) -> &NinfServer {
        &self.server
    }

    /// Client 0's current arguments: the shape of the workload's Invoke.
    pub fn args(&self) -> &[Value] {
        &self.clients[0].args
    }

    /// Run every client closed-loop, with zero think time, until `seconds`
    /// have passed; each finishes the call it is in. A traced window
    /// records a benchmark span around every call (the caller arms the
    /// flight recorder) and collects the server's call records.
    pub fn window(&mut self, inputs: &Inputs, seconds: f64, traced: bool) -> Window {
        let (workload, seed) = (self.workload, self.seed);
        let mut monitor = if traced {
            Some(StatsCursor::open(&self.addr))
        } else {
            None
        };
        let start = Instant::now();
        let deadline = start + Duration::from_secs_f64(seconds);
        let per_client = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .enumerate()
                .map(|(index, client)| {
                    s.spawn(move || {
                        let mut samples = Vec::new();
                        let mut spans = Vec::new();
                        let mut last = Instant::now();
                        while Instant::now() < deadline {
                            let ctx = traced.then(TraceContext::root);
                            client.conn.set_trace_parent(ctx);
                            let start_us = ninf_obs::now_us();
                            let (latency, timing, verdict) =
                                call(workload, seed, inputs, client, index);
                            last = Instant::now();
                            if let Some(ctx) = ctx {
                                spans.push(Span::at(ctx, "bench.call", "perfbench", start_us));
                            }
                            samples.push(Sample {
                                end: (last - start).as_secs_f64(),
                                latency,
                                delivered: timing.request_bytes
                                    + timing.bulk_bytes
                                    + timing.reply_bytes,
                                timing: traced.then(|| Box::new(timing)),
                                verdict,
                                client: index,
                                seq: client.seq,
                            });
                            client.seq += 1;
                        }
                        client.conn.set_trace_parent(None);
                        (samples, spans, last)
                    })
                })
                .collect();
            if let Some(m) = monitor.as_mut() {
                // Drain the server's bounded record ring while the window
                // runs, so no record is evicted before it is read.
                while !handles.iter().all(|h| h.is_finished()) {
                    std::thread::sleep(Duration::from_millis(500));
                    m.poll();
                }
            }
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect::<Vec<_>>()
        });
        let mut window = Window {
            samples: Vec::new(),
            elapsed: 0.0,
            spans: Vec::new(),
            server_calls: Vec::new(),
        };
        for (samples, spans, last) in per_client {
            if window.samples.is_empty() {
                window.samples = samples;
            } else {
                window.samples.extend(samples);
            }
            window.spans.extend(spans);
            window.elapsed = window.elapsed.max((last - start).as_secs_f64());
        }
        if let Some(mut m) = monitor {
            m.poll();
            window.server_calls = m.records;
        }
        window
    }

    /// Close the clients and stop the server; the client-side digest memory
    /// of this address is forgotten, so a later server on a reused port
    /// starts cold.
    pub fn teardown(self) {
        drop(self.clients);
        self.server.shutdown();
        ninf_client::argmem::forget_destination(&self.addr);
    }
}

/// A `QueryStats` cursor over the server's call records, on a connection of
/// its own, starting at the records yet to come.
struct StatsCursor {
    conn: Option<NinfClient>,
    cursor: u64,
    records: Vec<CallStat>,
}

impl StatsCursor {
    fn open(addr: &str) -> StatsCursor {
        let mut conn = NinfClient::connect(addr).ok();
        let cursor = conn
            .as_mut()
            .and_then(|c| c.query_stats(u64::MAX).ok())
            .map_or(0, |(_, total, _)| total);
        StatsCursor {
            conn,
            cursor,
            records: Vec::new(),
        }
    }

    fn poll(&mut self) {
        if let Some(conn) = self.conn.as_mut() {
            if let Ok((_, total, records)) = conn.query_stats(self.cursor) {
                self.cursor = total;
                self.records.extend(records);
            }
        }
    }
}
