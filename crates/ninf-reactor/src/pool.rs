//! `MuxPool`: checked-out multiplexed streams instead of connect-per-call.
//!
//! Checkout returns a [`MuxHandle`] onto a live shared stream for the
//! target address, dialing only when no live stream has admission capacity
//! (a *miss*); reusing one is a *hit*. Dead streams — poisoned by any
//! stream-level error — are evicted on the next checkout, so a retry after
//! a stream failure transparently lands on a fresh connection.

use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::time::Duration;

use ninf_obs::metrics::{Counter, MetricsRegistry};
use ninf_protocol::ProtocolResult;

use crate::mux::{MuxHandle, MuxStream, DEFAULT_MAX_INFLIGHT};

/// Pool sizing knobs.
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Streams dialed per address before calls share the least-loaded one.
    pub max_streams_per_addr: usize,
    /// In-flight bound per stream (admission backpressure).
    pub max_inflight_per_stream: usize,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            max_streams_per_addr: 2,
            max_inflight_per_stream: DEFAULT_MAX_INFLIGHT,
        }
    }
}

/// A checked-out connection: the transport handle plus whether it reused an
/// already-open stream.
pub struct Checkout {
    /// Transport for one logical client.
    pub handle: MuxHandle,
    /// True when an existing live stream was reused (a pool hit).
    pub reused: bool,
}

/// One address's pooled streams, plus whether a checkout is dialing a new
/// one right now.
#[derive(Default)]
struct AddrStreams {
    live: Vec<Arc<MuxStream>>,
    dialing: bool,
}

/// Shared pool of multiplexed streams, keyed by server address.
pub struct MuxPool {
    streams: Mutex<HashMap<String, AddrStreams>>,
    /// Signalled whenever a dial finishes (or fails), waking checkouts
    /// that were waiting on it.
    dialed: Condvar,
    config: PoolConfig,
    hits: Counter,
    misses: Counter,
}

impl Default for MuxPool {
    fn default() -> Self {
        Self::new(PoolConfig::default())
    }
}

impl MuxPool {
    /// Pool with standalone hit/miss counters.
    pub fn new(config: PoolConfig) -> Self {
        Self::with_counters(config, Counter::default(), Counter::default())
    }

    /// Pool whose hit/miss counters live in `registry` as
    /// `ninf_client_pool_hits_total` / `ninf_client_pool_misses_total`.
    pub fn with_metrics(config: PoolConfig, registry: &MetricsRegistry) -> Self {
        Self::with_counters(
            config,
            registry.counter(
                "ninf_client_pool_hits_total",
                "Checkouts served by an already-open multiplexed stream",
            ),
            registry.counter(
                "ninf_client_pool_misses_total",
                "Checkouts that had to dial a new connection",
            ),
        )
    }

    fn with_counters(config: PoolConfig, hits: Counter, misses: Counter) -> Self {
        MuxPool {
            streams: Mutex::new(HashMap::new()),
            dialed: Condvar::new(),
            config,
            hits,
            misses,
        }
    }

    fn lock(&self) -> MutexGuard<'_, HashMap<String, AddrStreams>> {
        self.streams.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Check out a handle for `addr`, dialing (with `deadline`) on a miss.
    ///
    /// Dials are single-flight per address: a checkout that misses while
    /// another is dialing the same address waits for that dial and then
    /// decides again, normally reusing the new stream. So at most
    /// `max_streams_per_addr` streams are ever open to one address. The
    /// dial itself runs outside the lock, so a slow connect never blocks
    /// checkouts to other addresses.
    pub fn checkout(&self, addr: &str, deadline: Option<Duration>) -> ProtocolResult<Checkout> {
        let mut map = self.lock();
        loop {
            let entry = map.entry(addr.to_string()).or_default();
            // Evict streams poisoned since the last checkout.
            entry.live.retain(|s| !s.is_dead());
            // Reuse the least-loaded live stream unless every one is at its
            // admission bound and there is still dial budget.
            if let Some(best) = entry.live.iter().min_by_key(|s| s.inflight()) {
                let saturated = best.inflight() >= self.config.max_inflight_per_stream;
                if !saturated || entry.live.len() >= self.config.max_streams_per_addr {
                    self.hits.inc();
                    return Ok(Checkout {
                        handle: best.handle(),
                        reused: true,
                    });
                }
            }
            if !entry.dialing {
                entry.dialing = true;
                break;
            }
            map = self.dialed.wait(map).unwrap_or_else(|e| e.into_inner());
        }
        drop(map);
        let dialed = MuxStream::connect(addr, deadline, self.config.max_inflight_per_stream);
        let mut map = self.lock();
        let entry = map.entry(addr.to_string()).or_default();
        entry.dialing = false;
        self.dialed.notify_all();
        let stream = dialed?;
        self.misses.inc();
        let handle = stream.handle();
        entry.live.push(Arc::new(stream));
        Ok(Checkout {
            handle,
            reused: false,
        })
    }

    /// Total checkouts that reused a live stream.
    pub fn hits(&self) -> u64 {
        self.hits.get()
    }

    /// Total checkouts that dialed a new connection.
    pub fn misses(&self) -> u64 {
        self.misses.get()
    }

    /// Live streams currently pooled for `addr`.
    pub fn open_streams(&self, addr: &str) -> usize {
        self.lock()
            .get(addr)
            .map(|e| e.live.iter().filter(|s| !s.is_dead()).count())
            .unwrap_or(0)
    }

    /// Drop every pooled stream (closing the sockets).
    pub fn clear(&self) {
        self.lock().clear();
    }
}

/// Process-wide pool for CLI tools: every `ninf-call`/`repro` invocation in
/// one process shares streams through this.
pub fn global_pool() -> &'static Arc<MuxPool> {
    static POOL: OnceLock<Arc<MuxPool>> = OnceLock::new();
    POOL.get_or_init(|| Arc::new(MuxPool::default()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ninf_protocol::{Arg, Message, Transport};
    use std::net::TcpListener;
    use std::sync::Arc as StdArc;

    use crate::reactor::{Handler, Reactor, ReactorConfig, ReactorHandle, ReactorHooks};

    fn echo_server() -> ReactorHandle {
        let handler: Handler = StdArc::new(|req: crate::reactor::Request| match req.message {
            Message::Invoke { args, .. } => Some(Message::ResultData {
                results: Arg::into_values(args).expect("inline"),
            }),
            _ => Some(Message::Error {
                reason: "unexpected".into(),
            }),
        });
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        Reactor::start(
            listener,
            ReactorConfig::default(),
            handler,
            ReactorHooks::default(),
        )
        .unwrap()
    }

    fn ping(h: &mut MuxHandle) {
        h.set_deadline(Some(Duration::from_secs(5))).unwrap();
        h.send(&Message::Invoke {
            routine: "echo".into(),
            args: vec![],
            trace: None,
        })
        .unwrap();
        h.recv().unwrap();
    }

    #[test]
    fn second_checkout_reuses_the_stream() {
        let server = echo_server();
        let addr = server.local_addr().to_string();
        let pool = MuxPool::new(PoolConfig::default());

        let mut first = pool.checkout(&addr, Some(Duration::from_secs(5))).unwrap();
        assert!(!first.reused);
        ping(&mut first.handle);

        let mut second = pool.checkout(&addr, Some(Duration::from_secs(5))).unwrap();
        assert!(second.reused, "live stream must be reused");
        ping(&mut second.handle);

        assert_eq!(pool.hits(), 1);
        assert_eq!(pool.misses(), 1);
        assert_eq!(pool.open_streams(&addr), 1);
        server.shutdown();
    }

    #[test]
    fn dead_stream_is_evicted_and_redialed() {
        let server = echo_server();
        let addr = server.local_addr().to_string();
        let pool = MuxPool::new(PoolConfig::default());

        let mut co = pool.checkout(&addr, Some(Duration::from_secs(5))).unwrap();
        // Poison the stream (at least one full header of garbage, so the
        // server parses and rejects it).
        co.handle.send_raw(&[0xAAu8; 64]).unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while pool.open_streams(&addr) > 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }

        let mut fresh = pool.checkout(&addr, Some(Duration::from_secs(5))).unwrap();
        assert!(!fresh.reused, "poisoned stream must not be handed out");
        ping(&mut fresh.handle);
        assert_eq!(pool.misses(), 2);
        server.shutdown();
    }

    #[test]
    fn concurrent_misses_share_one_dial() {
        let server = echo_server();
        let addr = server.local_addr().to_string();
        let pool = StdArc::new(MuxPool::new(PoolConfig::default()));
        let start = StdArc::new(std::sync::Barrier::new(8));
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let (pool, addr, start) = (pool.clone(), addr.clone(), start.clone());
                std::thread::spawn(move || {
                    start.wait();
                    let mut co = pool.checkout(&addr, Some(Duration::from_secs(5))).unwrap();
                    ping(&mut co.handle);
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(pool.misses(), 1, "one dial serves every concurrent miss");
        assert_eq!(pool.hits(), 7);
        assert_eq!(pool.open_streams(&addr), 1);
        server.shutdown();
    }

    #[test]
    fn metrics_backed_pool_exposes_counters() {
        let server = echo_server();
        let addr = server.local_addr().to_string();
        let registry = MetricsRegistry::new();
        let pool = MuxPool::with_metrics(PoolConfig::default(), &registry);
        let _a = pool.checkout(&addr, Some(Duration::from_secs(5))).unwrap();
        let _b = pool.checkout(&addr, Some(Duration::from_secs(5))).unwrap();
        let text = registry.render_prometheus();
        assert!(text.contains("ninf_client_pool_hits_total 1"), "{text}");
        assert!(text.contains("ninf_client_pool_misses_total 1"), "{text}");
        server.shutdown();
    }
}
