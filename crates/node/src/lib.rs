//! A real networked peer: the §3 reconciliation protocol over TCP.
//!
//! Everything below the socket is shared with the rest of the
//! workspace — the sans-I/O [`icd_core::ReceiverMachine`] /
//! [`icd_core::SenderMachine`] pair emits the exact `icd-wire` frames
//! the discrete-event simulator books, so a swarm of OS processes and
//! an [`icd_overlay::OverlayNet`] run of the same topology and seed
//! move **byte-identical traffic on every link**. That is the crate's
//! load-bearing claim, and `tests/swarm_harness.rs` enforces it by
//! spawning real daemons and diffing their per-link wire counters
//! against [`plan::predict`].
//!
//! * [`plan`] — the deterministic distribution plan: universe ids,
//!   per-node initial shares, directed session links with per-link
//!   seeds, all pure functions of a [`plan::DistributionSpec`]; plus
//!   the simulator-backed [`plan::predict`] oracle.
//! * [`shared`] — the one working set a node's connection threads
//!   share: mutex-guarded cross-session symbol ingestion with
//!   duplicate-free distinct counting.
//! * [`connection`] — per-connection drivers over core's blocking
//!   loops: the dialer-side [`connection::fetch_session`]
//!   (`drive_receiver_with`), the listener-side
//!   [`connection::serve_session`] (`drive_sender`), and the tiny hello
//!   preamble that carries `(dialer, link seed, epoch)` ahead of the
//!   first frame.
//! * [`daemon`] — the peer runtime: listener thread serving many
//!   inbound sessions, parallel fetches that dial and sleep what their
//!   recovery ladder says, and a roster speaking `icd-swarm`'s
//!   [`icd_swarm::SwarmEvent`] membership vocabulary.
//! * [`retry`] — the recovery machine, free of sockets, threads and
//!   clocks: [`RetryPolicy`]'s seeded backoff, the per-fetch redial
//!   ladder (dial, back off, finish) and the per-node stall state that
//!   escalates a stalled node to speculative dials.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod connection;
pub mod daemon;
pub mod plan;
pub mod retry;
pub mod shared;

pub use connection::{
    fetch_session, serve_session, FetchError, FetchOutcome, Hello, HelloError, SessionEpoch,
};
pub use daemon::{DaemonConfig, Node, NodeConfig, Roster, ServeChaos};
pub use plan::{
    link_seed, predict, predict_faulty, round_seed, DistributionSpec, FaultyPrediction,
    PlannedLink, Prediction, SpecParseError, SwarmPlan, MAX_ROUNDS,
};
pub use retry::{FetchReport, RetryPolicy};
pub use shared::SharedWorkingSet;
