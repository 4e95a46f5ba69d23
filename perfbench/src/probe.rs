//! Per-layer probes: each layer's public functions, timed from outside the
//! crate on the workload's own inputs. Every probe reports the median
//! per-operation time of several timed batches and leaves one span.

use std::time::Instant;

use ninf_obs::{Span, TraceContext};
use ninf_protocol::{cacheable, crc32c, digest_value, Arg, Digest, Message, Value};
use ninf_server::ArgStore;

use crate::stats::median;
use crate::workload::Workload;

/// Timed batches per probe.
const BATCHES: usize = 15;
/// A batch of a fast operation repeats it until it lasts at least this long.
const MIN_BATCH_S: f64 = 50e-6;

/// Probe results, milliseconds per operation unless named otherwise.
#[derive(Debug, Clone, Copy, Default)]
pub struct Probes {
    pub encode_ms: f64,
    pub decode_ms: f64,
    pub crc_ms: f64,
    /// Framed size of the workload's Invoke, bytes.
    pub frame_bytes: f64,
    pub digest_ms: f64,
    pub argstore_insert_ms: f64,
    pub argstore_get_ms: f64,
    pub kernel_ms: f64,
}

/// Records one span per probe under a common root.
struct Recorder {
    root: TraceContext,
    spans: Vec<Span>,
}

impl Recorder {
    fn span(&mut self, name: &str, start_us: u64, per_op_ms: f64) {
        self.spans.push(
            Span::at(self.root.child(), name, "perfbench", start_us)
                .with_detail(format!("per_op_ms={per_op_ms}")),
        );
    }

    /// Median per-operation time of a side-effect-free `op`, in ms.
    fn batched<R>(&mut self, name: &str, mut op: impl FnMut() -> R) -> f64 {
        let start_us = ninf_obs::now_us();
        let t = Instant::now();
        std::hint::black_box(op());
        let once = t.elapsed().as_secs_f64();
        let batch = ((MIN_BATCH_S / once.max(1e-9)).ceil() as usize).clamp(1, 100_000);
        let per_op: Vec<f64> = (0..BATCHES)
            .map(|_| {
                let t = Instant::now();
                for _ in 0..batch {
                    std::hint::black_box(op());
                }
                t.elapsed().as_secs_f64() / batch as f64
            })
            .collect();
        let ms = median(&per_op) * 1e3;
        self.span(name, start_us, ms);
        ms
    }

    /// Median time of `op` on a fresh input from `prepare` each time (the
    /// preparation is not timed), in ms.
    fn each<I, R>(
        &mut self,
        name: &str,
        mut prepare: impl FnMut(usize) -> I,
        mut op: impl FnMut(I) -> R,
    ) -> f64 {
        let start_us = ninf_obs::now_us();
        let per_op: Vec<f64> = (0..BATCHES)
            .map(|i| {
                let input = prepare(i);
                let t = Instant::now();
                let out = std::hint::black_box(op(input));
                let took = t.elapsed().as_secs_f64();
                drop(out);
                took
            })
            .collect();
        let ms = median(&per_op) * 1e3;
        self.span(name, start_us, ms);
        ms
    }
}

/// Distinct store keys for the argument-store probe.
fn probe_digest(i: usize) -> Digest {
    Digest {
        hi: i as u64 + 1,
        lo: !(i as u64),
    }
}

/// Run every probe on `args`, one call's arguments, and return the results
/// with the probes' spans.
pub fn run(workload: Workload, args: &[Value]) -> (Probes, Vec<Span>) {
    let mut rec = Recorder {
        root: TraceContext::root(),
        spans: Vec::new(),
    };
    let mut p = Probes::default();

    // ninf-protocol: the workload's own Invoke, refs where a warm client
    // sends refs.
    let wire_args: Vec<Arg> = args
        .iter()
        .enumerate()
        .map(|(i, v)| {
            if workload.steady_ref(i) {
                Arg::Ref(digest_value(v))
            } else {
                Arg::Data(v.clone())
            }
        })
        .collect();
    let invoke = Message::Invoke {
        routine: workload.routine().to_owned(),
        args: wire_args,
        trace: None,
    };
    let payload = invoke.encode();
    p.frame_bytes = (ninf_protocol::FRAME_HEADER_BYTES + payload.len()) as f64;
    p.encode_ms = rec.batched("probe.encode", || invoke.encode());
    p.decode_ms = rec.batched("probe.decode", || {
        Message::decode(&payload).expect("own Invoke decodes")
    });
    p.crc_ms = rec.batched("probe.crc32c", || crc32c(&payload));
    // The client digests every cacheable argument on every call; with none
    // (EP), the digest of the scalar arguments stands in.
    let digested: Vec<&Value> = if args.iter().any(cacheable) {
        args.iter().filter(|v| cacheable(v)).collect()
    } else {
        args.iter().collect()
    };
    p.digest_ms = rec.batched("probe.digest_value", || {
        digested.iter().map(|v| digest_value(v)).collect::<Vec<_>>()
    });

    // ninf-server ArgStore on the workload's largest argument, in a store
    // four values large, so inserts past the fourth evict one each.
    let largest = args
        .iter()
        .max_by_key(|v| v.wire_bytes())
        .expect("every routine takes an argument")
        .clone();
    let store = ArgStore::new(4 * largest.wire_bytes().max(1));
    p.argstore_insert_ms = rec.each(
        "probe.argstore_insert",
        |i| (probe_digest(i), largest.clone()),
        |(d, v)| store.insert(d, v),
    );
    let resident = probe_digest(BATCHES - 1);
    p.argstore_get_ms = rec.each("probe.argstore_get", |_| (), |()| store.get(&resident));

    // ninf-exec: the same kernel the server's handler runs, in-process.
    p.kernel_ms = match workload {
        Workload::EpTiny => {
            let Some(Value::Int(m)) = args.first() else {
                unreachable!("ep(m) takes an int")
            };
            let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
            rec.batched("probe.ep_kernel_parallel", || {
                ninf_exec::ep_kernel_parallel(*m as u32, workers)
            })
        }
        Workload::LinpackFresh | Workload::WanBulk => {
            let (Value::DoubleArray(a), Value::DoubleArray(b)) = (&args[1], &args[2]) else {
                unreachable!("linpack(n, A, b) takes arrays")
            };
            let n = b.len();
            rec.each(
                "probe.dgefa_dgesl",
                |_| {
                    (
                        ninf_exec::Matrix::from_col_major(n, n, a.clone()),
                        b.clone(),
                    )
                },
                |(mut lu, mut x)| {
                    let ipvt = ninf_exec::dgefa(&mut lu).expect("seeded matrix is nonsingular");
                    ninf_exec::dgesl(&lu, &ipvt, &mut x);
                    x
                },
            )
        }
    };
    (p, rec.spans)
}
