//! The Ninf client API.
//!
//! "Ninf_call is a representative API used for invoking a named remote
//! library on the server as if it were on a local machine via Ninf RPC"
//! (paper §2.2). The Rust rendering:
//!
//! ```no_run
//! use ninf_client::NinfClient;
//! use ninf_protocol::Value;
//!
//! let mut client = NinfClient::connect("127.0.0.1:5656")?;
//! let n = 4usize;
//! let results = client.ninf_call(
//!     "dmmul",
//!     &[
//!         Value::Int(n as i32),
//!         Value::DoubleArray(vec![1.0; n * n]), // A
//!         Value::DoubleArray(vec![2.0; n * n]), // B
//!     ],
//! )?;
//! let c = &results[0]; // C = A × B
//! # let _ = c;
//! # Ok::<(), ninf_protocol::ProtocolError>(())
//! ```
//!
//! There is no client-side stub, header, or IDL file: the first stage of the
//! call fetches the compiled interface from the server and interprets it to
//! size and marshal every argument (§2.3). [`NinfClient::ninf_call`] is the
//! one blocking call: its retry loop owns the first dial, every redial
//! (direct, or a re-checkout from a [`ninf_reactor::MuxPool`] for clients
//! made with [`NinfClient::connect_pooled`]) and the call's trace spans,
//! all under the client's [`CallOptions`]. Also provided:
//!
//! * [`NinfClient::ninf_call_async`] — `Ninf_call_async`: run the call on
//!   its own thread and join it later with [`AsyncCall::wait`];
//! * [`transaction`] — `Ninf_transaction_begin/end`: record a block of calls,
//!   derive the data-dependency DAG, and hand it to a scheduler (the
//!   metaserver executes independent calls task-parallel, §2.4 / §4.3.1).

pub mod argmem;
pub mod bulk;
pub mod client;
pub mod transaction;

pub use bulk::{parallel_put, UploadReport, DEFAULT_LANE_DEADLINE, MAX_CHUNK_ATTEMPTS};
pub use client::{
    call_two_phase, ninf_call_url, parse_ninf_url, AsyncCall, CallOptions, CallTiming,
    LocalTxError, NinfClient,
};
pub use transaction::{execute_locally, PlannedCall, SlotId, Transaction, TxArg};
