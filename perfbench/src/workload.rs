//! The three workloads: what each one calls, against which server, and the
//! seeded inputs it sends. Every input is a pure function of the workload
//! seed, so a result can be checked after the measured window by
//! regenerating the inputs of the call that produced it.

use std::time::Duration;

use ninf_client::CallOptions;
use ninf_exec::{EpResult, Matrix};
use ninf_protocol::{cacheable, LinkShape, Value};

/// Scaled-residual acceptance bound for Linpack solutions (the
/// HPL threshold on `‖A·x − b‖∞ / (‖A‖∞ · ‖x‖∞ · n · ε)`).
const RESIDUAL_BOUND: f64 = 16.0;

/// The WAN link of `wan-bulk`: 4 MB/s, 20 ms one way, 1% loss. The loss seed
/// is filled in per call.
const WAN_LINK: &str = "bw=4m,delay=20ms,loss=0.01";

/// A named closed-loop workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Tiny EP calls: the per-call path is nearly all of the time.
    EpTiny,
    /// Linpack with a fresh matrix per call on a 1-PE FCFS server.
    LinpackFresh,
    /// Fresh Linpack matrices pre-shipped in chunks over a shaped link.
    WanBulk,
}

impl Workload {
    /// Every workload, in the order the docs list them.
    pub const ALL: [Workload; 3] = [Workload::EpTiny, Workload::LinpackFresh, Workload::WanBulk];

    /// The name the command line and `BENCHMARK.json` use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::EpTiny => "ep-tiny",
            Workload::LinpackFresh => "linpack-fresh",
            Workload::WanBulk => "wan-bulk",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The remote routine every call invokes.
    pub fn routine(self) -> &'static str {
        match self {
            Workload::EpTiny => "ep",
            Workload::LinpackFresh | Workload::WanBulk => "linpack",
        }
    }

    /// Closed-loop client threads, one connection each.
    pub fn clients(self) -> usize {
        match self {
            Workload::WanBulk => 1,
            _ => 2,
        }
    }

    /// PEs of the spawned server's FCFS gate.
    pub fn pes(self) -> usize {
        match self {
            Workload::LinpackFresh => 1,
            _ => 2,
        }
    }

    /// How many times one run sets the rig up; `setup_s` is their median.
    /// A `wan-bulk` set-up takes about a second, the others a few tens of
    /// milliseconds.
    pub fn setup_repeats(self) -> usize {
        match self {
            Workload::WanBulk => 3,
            _ => 25,
        }
    }

    /// Sequential warm-up calls per client inside set-up.
    pub fn warmup_calls(self) -> usize {
        match self {
            Workload::EpTiny => 20,
            Workload::LinpackFresh => 3,
            Workload::WanBulk => 1,
        }
    }

    /// Client call options. `wan-bulk` ships its matrix as 16 KiB chunks
    /// over one bulk lane, both connections shaped client-side.
    pub fn options(self, seed: u64) -> CallOptions {
        match self {
            Workload::WanBulk => CallOptions {
                // A lost Invoke on the shaped call connection is recovered
                // by deadline and redial; an Invoke round trip is ~30 ms, so
                // keep that stall short.
                deadline: Some(Duration::from_millis(250)),
                retries: 3,
                backoff: Duration::from_millis(10),
                streams: 1,
                chunk_bytes: 16 * 1024,
                // A chunk round trip is ~25 ms (4 ms on the wire, 20 ms of
                // delay); a lost chunk or ack stalls its lane this long.
                lane_deadline: Some(Duration::from_millis(80)),
                wan: Some(wan_shape(seed, 0, 0)),
                ..CallOptions::default()
            },
            _ => CallOptions::with_deadline(Duration::from_secs(30)),
        }
    }

    /// Options for call `seq` of `client`: `wan-bulk` draws a fresh link
    /// realization per call, so a run samples the link's loss process
    /// instead of replaying one loss pattern on every freshly dialed lane.
    pub fn call_options(self, seed: u64, client: usize, seq: u64) -> Option<CallOptions> {
        match self {
            Workload::WanBulk => Some(CallOptions {
                wan: Some(wan_shape(seed, client, seq + 1)),
                ..self.options(seed)
            }),
            _ => None,
        }
    }

    /// Which argument positions the client names by content ref once warm
    /// (the pre-shipped matrix of `wan-bulk`).
    pub fn steady_ref(self, arg: usize) -> bool {
        self == Workload::WanBulk && arg == 1
    }
}

/// The shaped link for one call: the fixed path of [`WAN_LINK`] with a loss
/// seed derived from the run seed and the call's position.
fn wan_shape(seed: u64, client: usize, seq: u64) -> LinkShape {
    let shape = LinkShape::parse(WAN_LINK).expect("WAN_LINK parses");
    LinkShape {
        seed: mix(seed, client as u64, seq),
        ..shape
    }
}

/// SplitMix64 over `(seed, a, b)`: the one generator every seeded input here
/// derives from.
fn mix(seed: u64, a: u64, b: u64) -> u64 {
    let mut z =
        seed ^ a.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ b.wrapping_mul(0xA076_1D64_78BD_642F);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over 64-bit words.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for byte in w.to_le_bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

/// A dense system whose right-hand side changes per call.
struct System {
    n: usize,
    /// The matrix as generated (for residuals).
    a: Matrix,
    /// Row sums of `|a|`, for `‖A‖∞` of a salted copy.
    row_abs: Vec<f64>,
}

impl System {
    fn new(a: Matrix) -> Self {
        let n = a.rows();
        let mut row_abs = vec![0.0; n];
        for j in 0..n {
            for (r, v) in row_abs.iter_mut().zip(a.col(j)) {
                *r += v.abs();
            }
        }
        System { n, a, row_abs }
    }

    /// Scaled residual of `x` against `(A + salt·e_n e_nᵀ)·x = b`.
    fn residual(&self, salt: f64, x: &[f64], b: &[f64]) -> f64 {
        let n = self.n;
        if x.len() != n || b.len() != n {
            return f64::INFINITY;
        }
        let mut ax = self.a.matvec(x);
        ax[n - 1] += salt * x[n - 1];
        let last = self.a.col(n - 1)[n - 1];
        let mut a_norm = self.row_abs[n - 1] - last.abs() + (last + salt).abs();
        for r in &self.row_abs[..n - 1] {
            a_norm = a_norm.max(*r);
        }
        let resid = ax
            .iter()
            .zip(b)
            .fold(0.0f64, |acc, (axi, bi)| acc.max((axi - bi).abs()));
        let x_norm = x.iter().fold(0.0f64, |acc, v| acc.max(v.abs()));
        let scaled = resid / (a_norm * x_norm * n as f64 * f64::EPSILON).max(f64::MIN_POSITIVE);
        if scaled.is_finite() {
            scaled
        } else {
            f64::INFINITY
        }
    }
}

enum Kind {
    Ep {
        m: u32,
        /// The serial kernel: the counts must match it exactly.
        expect: EpResult,
        /// The kernel split as the server's handler splits it: the sums
        /// must match it exactly.
        split: EpResult,
    },
    /// `linpack(n, A, b)`: a seeded base system whose last matrix entry and
    /// first right-hand-side entry are salted per call, so every call ships
    /// a matrix no store has seen and has a solution of its own.
    Linpack { system: System, b: Vec<f64> },
}

/// The seeded inputs of one run and the reference each result is checked
/// against.
pub struct Inputs {
    workload: Workload,
    kind: Kind,
    fingerprint: u64,
}

impl Inputs {
    /// Generate every input of `workload` from `seed`.
    pub fn generate(workload: Workload, seed: u64) -> Inputs {
        let kind = match workload {
            Workload::EpTiny => {
                // EP's only input is its size; the trial stream is the
                // NPB-fixed one, so the seed changes nothing here.
                let m = 4;
                let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
                Kind::Ep {
                    m,
                    expect: ninf_exec::ep_kernel(m),
                    split: ninf_exec::ep_kernel_parallel(m, workers),
                }
            }
            Workload::LinpackFresh | Workload::WanBulk => {
                let (a, b) = ninf_exec::random_matrix(256, mix(seed, 1, 0));
                Kind::Linpack {
                    system: System::new(a),
                    b,
                }
            }
        };
        let mut words = vec![seed];
        words.extend(workload.name().bytes().map(u64::from));
        match &kind {
            Kind::Ep { m, .. } => words.push(u64::from(*m)),
            Kind::Linpack { system, b } => {
                words.push(system.n as u64);
                words.extend(system.a.as_slice().iter().chain(b).map(|v| v.to_bits()));
            }
        }
        Inputs {
            workload,
            kind,
            fingerprint: fnv(words),
        }
    }

    /// FNV-1a fingerprint of the generated inputs (with the seed and the
    /// per-call salting scheme, this names every input of the run).
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Floating-point operations of one call: Linpack's `2n³/3 + 2n²` and
    /// EP's `2^(m+1)` operations (§4.3's count).
    pub fn flops_per_call(&self) -> f64 {
        match &self.kind {
            Kind::Ep { m, .. } => 2.0 * (1u64 << m) as f64,
            Kind::Linpack { system, .. } => ninf_exec::linpack_flops(system.n as u64) as f64,
        }
    }

    /// A client's argument vector, ready for [`Inputs::prepare_call`].
    pub fn initial_args(&self) -> Vec<Value> {
        match &self.kind {
            Kind::Ep { m, .. } => vec![Value::Int(*m as i32)],
            Kind::Linpack { system, b } => vec![
                Value::Int(system.n as i32),
                Value::DoubleArray(system.a.as_slice().to_vec()),
                Value::DoubleArray(b.clone()),
            ],
        }
    }

    /// Array arguments per call that are large enough to be content
    /// addressed (sent by ref when the server holds them).
    pub fn cacheable_args(&self) -> usize {
        self.initial_args().iter().filter(|v| cacheable(v)).count()
    }

    /// Unique index of call `seq` of `client`.
    fn call_index(&self, client: usize, seq: u64) -> u64 {
        seq * self.workload.clients() as u64 + client as u64
    }

    /// Linpack salt of one call: small enough to leave the system well
    /// conditioned, distinct for every call of a run.
    fn salt(&self, client: usize, seq: u64) -> f64 {
        (self.call_index(client, seq) + 1) as f64 * f64::powi(2.0, -24)
    }

    /// Rewrite `args` in place into the inputs of call `seq` of `client`.
    pub fn prepare_call(&self, args: &mut [Value], client: usize, seq: u64) {
        match &self.kind {
            Kind::Ep { .. } => {}
            Kind::Linpack { system, b } => {
                let n = system.n;
                let salt = self.salt(client, seq);
                if let Value::DoubleArray(a) = &mut args[1] {
                    a[n * n - 1] = system.a.col(n - 1)[n - 1] + salt;
                }
                if let Value::DoubleArray(rhs) = &mut args[2] {
                    rhs[0] = b[0] + salt;
                }
            }
        }
    }

    /// Judge the results of one call. EP's check is a few compares and runs
    /// at once; a Linpack solution is kept for the residual check
    /// after the window.
    pub fn judge(&self, results: Vec<Value>) -> Verdict {
        let mut results = results.into_iter();
        match &self.kind {
            Kind::Ep { expect, split, .. } => {
                match check_ep(expect, split, results.next(), results.next()) {
                    Ok(()) => Verdict::Right,
                    Err(e) => Verdict::Wrong(e),
                }
            }
            _ => match results.next() {
                Some(Value::DoubleArray(x)) => Verdict::Pending(x),
                _ => Verdict::Wrong(format!(
                    "{}: x is not a double array",
                    self.workload.routine()
                )),
            },
        }
    }

    /// Settle a verdict: run a kept solution's residual check.
    pub fn settle(&self, client: usize, seq: u64, verdict: &Verdict) -> Result<(), String> {
        match verdict {
            Verdict::Right => Ok(()),
            Verdict::Wrong(e) | Verdict::Failed(e) => Err(e.clone()),
            Verdict::Pending(x) => self.verify(client, seq, x),
        }
    }

    /// Residual check of the solution `x` of call `seq` of `client`.
    pub fn verify(&self, client: usize, seq: u64, x: &[f64]) -> Result<(), String> {
        match &self.kind {
            Kind::Ep { .. } => Err("ep: no solution to check".into()),
            Kind::Linpack { system, b } => {
                let salt = self.salt(client, seq);
                let mut rhs = b.clone();
                rhs[0] += salt;
                check_residual("linpack", system.residual(salt, x, &rhs))
            }
        }
    }
}

/// What became of one call.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// Checked at once and right.
    Right,
    /// A solution kept for the check after the window.
    Pending(Vec<f64>),
    /// The result is wrong.
    Wrong(String),
    /// The call returned an error.
    Failed(String),
}

/// EP results `(sums[2], counts[10])` against the reference kernels.
fn check_ep(
    expect: &EpResult,
    split: &EpResult,
    sums: Option<Value>,
    counts: Option<Value>,
) -> Result<(), String> {
    let (Some(Value::DoubleArray(sums)), Some(Value::DoubleArray(counts))) = (sums, counts) else {
        return Err("ep: results are not (sums[2], counts[10])".into());
    };
    let want: Vec<f64> = expect.counts.iter().map(|&c| c as f64).collect();
    if counts != want {
        return Err(format!("ep: counts {counts:?} differ from {want:?}"));
    }
    // The server splits the stream across its workers; the sums agree with
    // the serial kernel up to that reassociation.
    let want = [split.sx, split.sy];
    if sums != want {
        return Err(format!("ep: sums {sums:?} differ from {want:?}"));
    }
    let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * b.abs().max(1.0);
    if !close(sums[0], expect.sx) || !close(sums[1], expect.sy) {
        return Err("ep: sums drift from the serial kernel".into());
    }
    Ok(())
}

fn check_residual(what: &str, scaled: f64) -> Result<(), String> {
    if scaled <= RESIDUAL_BOUND {
        Ok(())
    } else {
        Err(format!(
            "{what}: scaled residual {scaled:.3e} exceeds {RESIDUAL_BOUND}"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        for w in Workload::ALL {
            let a = Inputs::generate(w, 11);
            let b = Inputs::generate(w, 11);
            assert_eq!(a.fingerprint(), b.fingerprint(), "{}", w.name());
            let (mut x, mut y) = (a.initial_args(), b.initial_args());
            a.prepare_call(&mut x, 1, 7);
            b.prepare_call(&mut y, 1, 7);
            assert_eq!(x, y);
        }
        assert_ne!(
            Inputs::generate(Workload::LinpackFresh, 1).fingerprint(),
            Inputs::generate(Workload::LinpackFresh, 2).fingerprint()
        );
    }

    #[test]
    fn local_solutions_pass_and_wrong_ones_fail() {
        let inputs = Inputs::generate(Workload::LinpackFresh, 5);
        let mut args = inputs.initial_args();
        inputs.prepare_call(&mut args, 1, 3);
        let (Value::DoubleArray(a), Value::DoubleArray(b)) = (&args[1], &args[2]) else {
            unreachable!()
        };
        let mut lu = Matrix::from_col_major(256, 256, a.clone());
        let mut x = b.clone();
        let ipvt = ninf_exec::dgefa(&mut lu).unwrap();
        ninf_exec::dgesl(&lu, &ipvt, &mut x);
        assert!(inputs.verify(1, 3, &x).is_ok());
        // The same solution checked as another call's fails: salts differ.
        assert!(inputs.verify(0, 3, &x).is_err());
        x[0] += 1e-6;
        assert!(inputs.verify(1, 3, &x).is_err());
    }

    #[test]
    fn ep_reference_matches_the_server_handler() {
        let inputs = Inputs::generate(Workload::EpTiny, 0);
        let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
        let r = ninf_exec::ep_kernel_parallel(4, workers);
        let results = [
            Value::DoubleArray(vec![r.sx, r.sy]),
            Value::DoubleArray(r.counts.iter().map(|&c| c as f64).collect()),
        ];
        assert_eq!(inputs.judge(results.to_vec()), Verdict::Right);
        let mut wrong = results.to_vec();
        wrong[1] = Value::DoubleArray(vec![0.0; 10]);
        assert!(matches!(inputs.judge(wrong), Verdict::Wrong(_)));
    }
}
